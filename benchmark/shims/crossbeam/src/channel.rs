//! Unbounded multi-producer multi-consumer FIFO channel on a
//! `Mutex<VecDeque>` + `Condvar`, with the disconnect semantics of
//! `crossbeam::channel`: `recv` fails once the queue is empty **and**
//! every sender is gone; `send` fails once every receiver is gone.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The message could not be sent: every receiver is gone.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("SendError(..)")
    }
}

/// The channel is empty and every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Why a non-blocking receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

/// Why a bounded-wait receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with nothing queued.
    Timeout,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

/// One blocked `select2` call: channels it watches set `fired` and
/// notify when a message arrives or the last sender leaves.
#[derive(Default)]
struct Watcher {
    fired: Mutex<bool>,
    wake: Condvar,
}

impl Watcher {
    fn fire(&self) {
        *lock(&self.fired) = true;
        self.wake.notify_one();
    }

    /// Blocks until fired, then re-arms.
    fn wait(&self) {
        let mut fired = lock(&self.fired);
        while !*fired {
            fired = self.wake.wait(fired).unwrap_or_else(PoisonError::into_inner);
        }
        *fired = false;
    }
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked in `recv`/`recv_timeout`; sends skip the
    /// condvar syscall when it is zero.
    parked: usize,
    watchers: Vec<Arc<Watcher>>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

/// Every critical section leaves the state valid, so a poisoned lock
/// (a panic elsewhere on the thread that held it) is still usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked: 0,
            watchers: Vec::new(),
        }),
        ready: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// The sending half; clone it for more producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Queues `msg`. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns the message back if every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = lock(&self.shared.state);
        if st.receivers == 0 {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        let wake_receiver = st.parked > 0;
        let watchers = st.watchers.clone();
        drop(st);
        if wake_receiver {
            self.shared.ready.notify_one();
        }
        for w in &watchers {
            w.fire();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared.state).senders += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        st.senders -= 1;
        if st.senders == 0 {
            // Disconnected: every blocked receiver and selector must
            // wake to observe it.
            let watchers = st.watchers.clone();
            drop(st);
            self.shared.ready.notify_all();
            for w in &watchers {
                w.fire();
            }
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Sender { .. }")
    }
}

/// The receiving half; clone it for more consumers (each message goes
/// to exactly one of them).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next message without blocking.
    ///
    /// # Errors
    ///
    /// `Empty` if nothing is queued, `Disconnected` if additionally
    /// every sender is gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = lock(&self.shared.state);
        match st.queue.pop_front() {
            Some(msg) => Ok(msg),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Fails once the queue is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st.parked += 1;
            st = self.shared.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked -= 1;
        }
    }

    /// Blocks until a message arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// `Timeout` if nothing arrived in time, `Disconnected` once the
    /// queue is empty and every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            st.parked += 1;
            st = self.shared.ready.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0;
            st.parked -= 1;
        }
    }

    fn watch(&self, w: &Arc<Watcher>) {
        lock(&self.shared.state).watchers.push(Arc::clone(w));
    }

    fn unwatch(&self, w: &Arc<Watcher>) {
        lock(&self.shared.state).watchers.retain(|x| !Arc::ptr_eq(x, w));
    }

    /// Non-blocking receive in the shape `select2` reports: a
    /// disconnected channel counts as ready (with an error).
    fn poll(&self) -> Option<Result<T, RecvError>> {
        match self.try_recv() {
            Ok(msg) => Some(Ok(msg)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
            Err(TryRecvError::Empty) => None,
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock(&self.shared.state).receivers += 1;
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        st.receivers -= 1;
        if st.receivers == 0 {
            // Nobody can ever read these; release them (and whatever
            // they own) now rather than when the last sender goes.
            let orphaned = std::mem::take(&mut st.queue);
            drop(st);
            drop(orphaned);
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Receiver { .. }")
    }
}

/// Which arm of a [`select2`] became ready.
pub enum Selected<A, B> {
    /// The first receiver.
    First(A),
    /// The second receiver.
    Second(B),
}

/// Blocks until `a` or `b` has a message or is disconnected; the
/// engine behind [`crate::select!`]. `a` wins when both are ready.
pub fn select2<T, U>(
    a: &Receiver<T>,
    b: &Receiver<U>,
) -> Selected<Result<T, RecvError>, Result<U, RecvError>> {
    let poll = || a.poll().map(Selected::First).or_else(|| b.poll().map(Selected::Second));
    if let Some(ready) = poll() {
        return ready;
    }
    // Register before re-polling: a send that lands between the poll
    // and the wait has already fired the watcher, so the wait returns
    // at once and the next poll sees the message.
    let watcher = Arc::new(Watcher::default());
    a.watch(&watcher);
    b.watch(&watcher);
    let ready = loop {
        if let Some(ready) = poll() {
            break ready;
        }
        watcher.wait();
    };
    a.unwatch(&watcher);
    b.unwatch(&watcher);
    ready
}
