//! In-process transport with deterministic fault injection.
//!
//! Each node owns an unbounded receiving channel; a shared [`Network`]
//! handle routes [`Envelope`]s to their destination. A seeded
//! [`FaultPlan`] decides, per message, whether to drop, delay, reorder,
//! duplicate or corrupt it, and round-scoped scripted events partition
//! nodes or target specific message kinds — so the recovery machinery
//! (acknowledged history sync, abstentions, checkpointing) is exercised
//! against the conditions the paper's footnote 1 glosses over.
//!
//! Deferred delivery (delay, jitter, reordering) runs on a single lazy
//! **pump thread** draining a monotonic-deadline queue; it exits on its
//! own when the last [`Network`] handle is dropped.
//!
//! # Transport modes
//!
//! Routing, fault injection and the ledger counters live in the shared
//! [`Network`] regardless of mode; what varies is the last hop from the
//! delivery step into a node's inbox. Under
//! [`TransportMode::InProcess`] (the default) envelopes cross a
//! crossbeam channel untouched. Under [`TransportMode::Socket`] every
//! route is a loopback TCP or Unix-socket connection: delivery encodes
//! the envelope with the [`crate::frame`] codec and writes the bytes,
//! and a per-connection reader thread on the endpoint side decodes
//! frames back into the same channel the in-process mode uses. Both
//! directions of every exchange cross a real socket, endpoints and
//! schedulers are byte-for-byte unaware of the mode, and
//! [`Network::wire_bytes`] / [`Network::wire_frames`] meter the traffic.

use crate::fault::{self, FaultPlan, LinkPolicy};
use crate::frame::{self, FrameReader};
use crate::message::{Message, NodeId};
use crate::socket::{self, TransportMode};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload.
    pub message: Message,
}

/// A message scheduled for future delivery, ordered by deadline then by
/// send order (so equal deadlines keep FIFO semantics).
struct Delayed {
    due: Instant,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The deferred-delivery queue shared between senders and the pump.
struct DelayQueue {
    heap: Mutex<BinaryHeap<Reverse<Delayed>>>,
    wakeup: Condvar,
    closed: AtomicBool,
}

impl DelayQueue {
    fn new() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            wakeup: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    fn push(&self, item: Delayed) {
        self.heap.lock().push(Reverse(item));
        self.wakeup.notify_one();
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wakeup.notify_all();
    }
}

/// The last hop from delivery into a node's inbox.
#[derive(Clone)]
enum Route {
    /// In-process mode: straight into the endpoint's channel.
    Local(Sender<Envelope>),
    /// Socket mode: frame-encoded over the node's loopback connection; a
    /// reader thread on the far side feeds the endpoint's channel.
    Remote(Arc<socket::Conn>),
}

struct NetworkInner {
    routes: Mutex<HashMap<NodeId, Route>>,
    mode: TransportMode,
    /// Socket factory, present only in socket mode.
    hub: Option<socket::Hub>,
    plan: FaultPlan,
    /// Fault RNG — locked only when a link policy actually draws
    /// randomness; lossless sends never touch it.
    rng: Mutex<StdRng>,
    /// Protocol round the scripted events are scoped to (set by the
    /// round driver via [`Network::begin_round`]).
    round: AtomicU64,
    sent: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    deferred: AtomicU64,
    /// Sends whose destination had no registered route at delivery time
    /// (crashed node, shutdown after disconnect). Booked separately from
    /// `dropped` so fault-injection assertions on link loss stay exact.
    unroutable: AtomicU64,
    /// Monotone sequence for FIFO tie-breaking in the delay queue.
    seq: AtomicU64,
    delay_queue: Arc<DelayQueue>,
    /// Frame bytes written to sockets (zero in in-process mode).
    wire_bytes: AtomicU64,
    /// Frames written to sockets (zero in in-process mode).
    wire_frames: AtomicU64,
}

impl NetworkInner {
    /// Hands an envelope to its destination, if registered. No fault is
    /// ever applied here — faults are decided once, at send time. A
    /// missing route (the destination crashed or never registered) is
    /// booked as unroutable, not as a network drop.
    ///
    /// The route is cloned out so the socket write happens outside the
    /// routing lock; per-connection write order is serialised by the
    /// connection's own writer lock instead.
    fn deliver(&self, envelope: Envelope) {
        let route = self.routes.lock().get(&envelope.to).cloned();
        match route {
            Some(Route::Local(tx)) => {
                let _ = tx.send(envelope);
            }
            Some(Route::Remote(conn)) => {
                let bytes = frame::encode_frame(&envelope);
                self.wire_frames.fetch_add(1, Ordering::Relaxed);
                self.wire_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                // A failed write means the endpoint side is gone — same
                // outcome as sending into a dropped channel.
                let _ = conn.write_frame(&bytes);
            }
            None => {
                self.unroutable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for NetworkInner {
    fn drop(&mut self) {
        self.delay_queue.close();
        // Close every socket route so the endpoint-side reader threads
        // see EOF and exit instead of lingering in a blocked read.
        for route in self.routes.get_mut().values() {
            if let Route::Remote(conn) = route {
                conn.close();
            }
        }
    }
}

/// Shared handle to the in-process network.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("transport", &self.inner.mode.label())
            .field("nodes", &self.inner.routes.lock().len())
            .field("round", &self.inner.round.load(Ordering::Relaxed))
            .field("plan", &self.inner.plan)
            .finish()
    }
}

/// Drains the delay queue, delivering messages as their deadlines pass.
/// Exits when every [`Network`] handle is gone (the queue is closed and
/// upgrades fail), so tests never leak a busy thread.
fn run_pump(queue: Arc<DelayQueue>, inner: Weak<NetworkInner>) {
    loop {
        let next = {
            let mut heap = queue.heap.lock();
            loop {
                if queue.closed.load(Ordering::SeqCst) {
                    return;
                }
                match heap.peek() {
                    Some(Reverse(d)) => {
                        let now = Instant::now();
                        if d.due <= now {
                            break;
                        }
                        let wait = d.due - now;
                        queue.wakeup.wait_for(&mut heap, wait);
                    }
                    None => {
                        queue.wakeup.wait(&mut heap);
                    }
                }
            }
            heap.pop().expect("peeked item present").0
        };
        match inner.upgrade() {
            Some(inner) => inner.deliver(next.envelope),
            None => return,
        }
    }
}

impl Network {
    /// Creates a lossless in-process network.
    pub fn new() -> Self {
        Self::with_faults(FaultPlan::lossless(0))
    }

    /// Creates a network that drops each message with probability
    /// `drop_prob`, using `seed` for reproducibility. `1.0` is a valid
    /// total blackout.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is not in `[0, 1]`.
    pub fn with_loss(drop_prob: f64, seed: u64) -> Self {
        Self::with_faults(FaultPlan::uniform(LinkPolicy::lossless().with_drop(drop_prob), seed))
    }

    /// Creates an in-process network governed by the given fault plan
    /// (sockets are [`Network::with_transport`]'s to ask for). The
    /// delivery pump thread is spawned only when the plan can defer
    /// messages.
    pub fn with_faults(plan: FaultPlan) -> Self {
        Self::with_transport(plan, TransportMode::InProcess)
    }

    /// Creates a network governed by the given fault plan over an
    /// explicit transport. In socket mode a loopback hub is bound and
    /// every subsequent registration gets its own connection.
    ///
    /// # Panics
    ///
    /// Panics if the socket hub cannot bind its loopback listener.
    pub fn with_transport(plan: FaultPlan, mode: TransportMode) -> Self {
        let hub = match mode {
            TransportMode::InProcess => None,
            TransportMode::Socket(kind) => {
                Some(socket::Hub::bind(kind).expect("socket transport: bind loopback hub"))
            }
        };
        let needs_pump = plan.needs_pump();
        let seed = plan.seed;
        let delay_queue = Arc::new(DelayQueue::new());
        let inner = Arc::new(NetworkInner {
            routes: Mutex::new(HashMap::new()),
            mode,
            hub,
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            round: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            unroutable: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            delay_queue: Arc::clone(&delay_queue),
            wire_bytes: AtomicU64::new(0),
            wire_frames: AtomicU64::new(0),
        });
        if needs_pump {
            let weak = Arc::downgrade(&inner);
            std::thread::Builder::new()
                .name("baffle-net-pump".into())
                .spawn(move || run_pump(delay_queue, weak))
                .expect("spawn delivery pump");
        }
        Self { inner }
    }

    /// Registers a node and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the node id is currently registered. A node removed by
    /// [`Network::disconnect`] may register again — that is how a
    /// crashed client rejoins.
    pub fn register(&self, id: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        {
            let mut routes = self.inner.routes.lock();
            assert!(!routes.contains_key(&id), "node {id} registered twice");
            let route = match &self.inner.hub {
                None => Route::Local(tx),
                Some(hub) => {
                    // Pair creation happens under the routing lock, so
                    // connect/accept pairs can never interleave.
                    let (peer, net_side) =
                        hub.connect_pair().expect("socket transport: connect endpoint");
                    let conn =
                        socket::Conn::new(net_side, false).expect("socket transport: clone stream");
                    spawn_wire_reader(format!("baffle-wire-rx-{id}"), peer, tx);
                    Route::Remote(Arc::new(conn))
                }
            };
            routes.insert(id, route);
        }
        Endpoint { id, network: self.clone(), receiver: rx }
    }

    /// Creates a multiplexed endpoint: one shared inbound channel that
    /// any number of node ids can be attached to via
    /// [`MuxEndpoint::attach`]. This is the transport half of the
    /// event-driven scheduler — 10k+ clients share a single queue
    /// instead of 10k channels and 10k blocked receiver threads. In
    /// socket mode the mux likewise holds a single shared connection:
    /// attached ids route frames through it, and one reader thread
    /// demuxes them into the shared inbox.
    pub fn register_mux(&self) -> MuxEndpoint {
        let (tx, rx) = unbounded();
        let wire = self.inner.hub.as_ref().map(|hub| {
            let (peer, net_side) = hub.connect_pair().expect("socket transport: connect mux");
            let conn = Arc::new(
                socket::Conn::new(net_side, true).expect("socket transport: clone stream"),
            );
            spawn_wire_reader("baffle-wire-mux".into(), peer, tx.clone());
            conn
        });
        MuxEndpoint { network: self.clone(), sender: tx, receiver: rx, wire }
    }

    /// Removes `id`'s route, modelling a crash-stop: undelivered and
    /// future messages to it vanish, and its actor's blocking `recv`
    /// returns an error (all senders gone) so the actor loop exits.
    /// Returns whether the node was registered.
    ///
    /// In socket mode the node's connection is closed as well (EOF ends
    /// the reader thread, which closes the channel) — unless the route
    /// goes through a mux's shared pinned connection, which stays open
    /// for the ids still attached.
    pub fn disconnect(&self, id: NodeId) -> bool {
        let removed = self.inner.routes.lock().remove(&id);
        match removed {
            Some(Route::Remote(conn)) => {
                if !conn.pinned() {
                    conn.close();
                }
                true
            }
            Some(Route::Local(_)) => true,
            None => false,
        }
    }

    /// Whether `id` currently has a registered route.
    pub fn is_connected(&self, id: NodeId) -> bool {
        self.inner.routes.lock().contains_key(&id)
    }

    /// Declares the start of protocol round `round`, scoping the plan's
    /// scripted events (partitions, targeted drops). Called by the round
    /// driver before each [`crate::server::Server::run_round`].
    pub fn begin_round(&self, round: u64) {
        self.inner.round.store(round, Ordering::SeqCst);
    }

    /// Sends a message, subject to the fault plan: it may be dropped
    /// (link loss, partition, scripted filter), delayed, reordered,
    /// duplicated, or have its wire payload corrupted in flight. A send
    /// to an unknown destination is fire-and-forget (UDP-like) and is
    /// booked under [`Network::messages_unroutable`], not as a drop.
    ///
    /// [`Message::Shutdown`] is exempt from every fault: it is a control
    /// message delivered out of band (a real deployment would retry it),
    /// and dropping it would leak actor threads.
    pub fn send(&self, from: NodeId, to: NodeId, message: Message) {
        let inner = &*self.inner;
        inner.sent.fetch_add(1, Ordering::Relaxed);
        if matches!(message, Message::Shutdown) {
            inner.deliver(Envelope { from, to, message });
            return;
        }
        let round = inner.round.load(Ordering::SeqCst);
        if inner.plan.is_partitioned(round, from)
            || inner.plan.is_partitioned(round, to)
            || inner.plan.drops_kind(round, to, message.kind())
        {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let policy = inner.plan.policy(from, to);
        if !policy.is_active() {
            inner.deliver(Envelope { from, to, message });
            return;
        }

        // All random draws for this message happen under one lock, in
        // send order, so a seeded plan replays identical decisions for
        // an identical send sequence.
        let mut message = message;
        let mut copies = 1usize;
        let mut delays = [Duration::ZERO; 2];
        {
            let mut rng = inner.rng.lock();
            if policy.drop_prob > 0.0 && rng.gen_bool(policy.drop_prob) {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if policy.corrupt_prob > 0.0
                && rng.gen_bool(policy.corrupt_prob)
                && fault::corrupt_message(&mut message, &mut rng)
            {
                inner.corrupted.fetch_add(1, Ordering::Relaxed);
            }
            if policy.duplicate_prob > 0.0 && rng.gen_bool(policy.duplicate_prob) {
                copies = 2;
                inner.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            for delay in delays.iter_mut().take(copies) {
                let mut d = policy.delay;
                if policy.jitter > Duration::ZERO {
                    d += Duration::from_nanos(rng.gen_range(0..=policy.jitter.as_nanos() as u64));
                }
                if policy.reorder_prob > 0.0
                    && policy.reorder_window > Duration::ZERO
                    && rng.gen_bool(policy.reorder_prob)
                {
                    // Hold the message back so later sends overtake it.
                    d += Duration::from_nanos(
                        rng.gen_range(1..=policy.reorder_window.as_nanos() as u64),
                    );
                }
                *delay = d;
            }
        }
        for &delay in delays.iter().take(copies) {
            let envelope = Envelope { from, to, message: message.clone() };
            if delay.is_zero() {
                inner.deliver(envelope);
            } else {
                inner.deferred.fetch_add(1, Ordering::Relaxed);
                inner.delay_queue.push(Delayed {
                    due: Instant::now() + delay,
                    seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                    envelope,
                });
            }
        }
    }

    /// Total messages handed to the network.
    pub fn messages_sent(&self) -> u64 {
        self.inner.sent.load(Ordering::Relaxed)
    }

    /// Messages lost to the simulated link (probabilistic drops,
    /// partitions and scripted filters).
    pub fn messages_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Messages delivered twice by the duplication fault.
    pub fn messages_duplicated(&self) -> u64 {
        self.inner.duplicated.load(Ordering::Relaxed)
    }

    /// Messages whose wire payload was corrupted in flight.
    pub fn messages_corrupted(&self) -> u64 {
        self.inner.corrupted.load(Ordering::Relaxed)
    }

    /// Message copies routed through the deferred-delivery queue.
    pub fn messages_deferred(&self) -> u64 {
        self.inner.deferred.load(Ordering::Relaxed)
    }

    /// Sends that reached delivery with no registered route — shutdown
    /// notices to crashed nodes, mid-round sends racing a disconnect.
    /// Disjoint from [`Network::messages_dropped`], which counts only
    /// messages the simulated link itself lost.
    pub fn messages_unroutable(&self) -> u64 {
        self.inner.unroutable.load(Ordering::Relaxed)
    }

    /// The transport mode this network was created with.
    pub fn transport(&self) -> TransportMode {
        self.inner.mode
    }

    /// Frame bytes written to sockets. Zero in in-process mode; in
    /// socket mode this is the exact bytes-on-the-wire cost of every
    /// delivered message (header and payload, after fault injection).
    pub fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes.load(Ordering::Relaxed)
    }

    /// Frames written to sockets (one per delivered message copy in
    /// socket mode; zero in in-process mode).
    pub fn wire_frames(&self) -> u64 {
        self.inner.wire_frames.load(Ordering::Relaxed)
    }
}

/// Decodes frames off `stream` into `tx` until the connection closes
/// (clean EOF or error) or the receiving endpoint is dropped. One such
/// thread exists per socket-mode connection, on the endpoint side.
fn spawn_wire_reader(name: String, stream: socket::Stream, tx: Sender<Envelope>) {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let mut reader = FrameReader::new(stream);
            loop {
                match reader.read_frame() {
                    Ok(Some(envelope)) => {
                        if tx.send(envelope).is_err() {
                            return; // endpoint dropped its receiver
                        }
                    }
                    Ok(None) | Err(_) => return,
                }
            }
        })
        .expect("spawn wire reader");
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

/// A node's connection: its inbox plus a sending handle.
#[derive(Debug)]
pub struct Endpoint {
    id: NodeId,
    network: Network,
    receiver: Receiver<Envelope>,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `message` to `to`.
    pub fn send(&self, to: NodeId, message: Message) {
        self.network.send(self.id, to, message);
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns an error when the network shut down (all senders gone).
    pub fn recv(&self) -> Result<Envelope, crossbeam::channel::RecvError> {
        self.receiver.recv()
    }

    /// Waits up to `timeout` for a message.
    ///
    /// # Errors
    ///
    /// Returns an error on timeout or disconnection.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Envelope, crossbeam::channel::RecvTimeoutError> {
        self.receiver.recv_timeout(timeout)
    }

    /// A send-only handle for this endpoint's node id — what a state
    /// machine keeps when its inbox is owned by a [`MuxEndpoint`].
    pub fn outbox(&self) -> Outbox {
        Outbox { id: self.id, network: self.network.clone() }
    }
}

/// A send-only network handle bound to one node id. State machines hold
/// an `Outbox` instead of a full [`Endpoint`]: their inbound traffic is
/// delivered by the scheduler, so they never block on a receiver.
#[derive(Debug, Clone)]
pub struct Outbox {
    id: NodeId,
    network: Network,
}

impl Outbox {
    /// The node id this outbox sends as.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `message` to `to` as this node.
    pub fn send(&self, to: NodeId, message: Message) {
        self.network.send(self.id, to, message);
    }
}

/// A multiplexed inbox: many node ids, one channel. Created by
/// [`Network::register_mux`]; ids are attached and detached dynamically
/// as clients join, crash and restart. Messages for every attached id
/// arrive interleaved on the shared receiver in delivery order, tagged
/// with their destination (`Envelope::to`), so a scheduler can demux
/// them without per-node threads.
#[derive(Debug)]
pub struct MuxEndpoint {
    network: Network,
    sender: Sender<Envelope>,
    receiver: Receiver<Envelope>,
    /// The mux's shared socket connection (socket mode only). Pinned:
    /// detaching one id must not sever the other attached ids, so it
    /// closes only when the mux or the network goes away.
    wire: Option<Arc<socket::Conn>>,
}

impl MuxEndpoint {
    /// Routes `id`'s traffic into this shared inbox and returns the
    /// node's send-only handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is currently registered (same contract as
    /// [`Network::register`]). A node removed by [`MuxEndpoint::detach`]
    /// or [`Network::disconnect`] may attach again.
    pub fn attach(&self, id: NodeId) -> Outbox {
        let route = match &self.wire {
            Some(conn) => Route::Remote(Arc::clone(conn)),
            None => Route::Local(self.sender.clone()),
        };
        let previous = self.network.inner.routes.lock().insert(id, route);
        assert!(previous.is_none(), "node {id} registered twice");
        Outbox { id, network: self.network.clone() }
    }

    /// Removes `id`'s route (crash-stop semantics, like
    /// [`Network::disconnect`]). Messages for `id` already queued in the
    /// shared inbox are *not* purged — the scheduler discards envelopes
    /// addressed to detached ids as it drains. Returns whether the node
    /// was registered.
    pub fn detach(&self, id: NodeId) -> bool {
        self.network.disconnect(id)
    }

    /// The underlying network handle.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The raw shared receiver — lets the scheduler `select!` over
    /// envelopes and its command channel in one blocking wait.
    pub(crate) fn raw_receiver(&self) -> &Receiver<Envelope> {
        &self.receiver
    }

    /// Takes the next queued envelope without blocking.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.receiver.try_recv().ok()
    }

    /// Waits up to `timeout` for the next envelope.
    ///
    /// # Errors
    ///
    /// Returns an error on timeout or disconnection.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Envelope, crossbeam::channel::RecvTimeoutError> {
        self.receiver.recv_timeout(timeout)
    }
}

impl Drop for MuxEndpoint {
    fn drop(&mut self) {
        // Close the shared connection so its reader thread exits; the
        // network side treats subsequent writes like sends into a
        // dropped channel.
        if let Some(conn) = &self.wire {
            conn.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, LinkSelector};
    use crate::socket::SocketKind;
    use baffle_nn::wire;

    #[test]
    fn point_to_point_delivery() {
        let net = Network::new();
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        a.send(NodeId(1), Message::Shutdown);
        let env = b.recv().unwrap();
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.message, Message::Shutdown);
    }

    #[test]
    fn unknown_destination_is_booked_as_unroutable_not_dropped() {
        let net = Network::new();
        let a = net.register(NodeId(0));
        a.send(NodeId(99), Message::Shutdown); // must not panic
        a.send(NodeId(99), Message::RoundResult { round: 1, accepted: true });
        assert_eq!(net.messages_sent(), 2);
        assert_eq!(net.messages_unroutable(), 2);
        assert_eq!(net.messages_dropped(), 0, "no-route sends are not link loss");
    }

    #[test]
    fn mux_endpoint_demuxes_many_ids_over_one_channel() {
        let net = Network::new();
        let server = net.register(NodeId(0));
        let mux = net.register_mux();
        let out1 = mux.attach(NodeId(1));
        let _out2 = mux.attach(NodeId(2));
        server.send(NodeId(1), Message::RoundResult { round: 1, accepted: true });
        server.send(NodeId(2), Message::RoundResult { round: 2, accepted: true });
        let first = mux.recv_timeout(Duration::from_millis(200)).unwrap();
        let second = mux.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(first.to, NodeId(1));
        assert_eq!(second.to, NodeId(2));
        // The outbox sends as its attached id.
        out1.send(NodeId(0), Message::RoundResult { round: 3, accepted: false });
        assert_eq!(server.recv_timeout(Duration::from_millis(200)).unwrap().from, NodeId(1));
    }

    #[test]
    fn mux_detach_makes_the_id_unroutable_and_reattachable() {
        let net = Network::new();
        let server = net.register(NodeId(0));
        let mux = net.register_mux();
        let _out = mux.attach(NodeId(1));
        assert!(mux.detach(NodeId(1)));
        assert!(!mux.detach(NodeId(1)), "double detach reports absence");
        server.send(NodeId(1), Message::RoundResult { round: 1, accepted: true });
        assert!(mux.try_recv().is_none());
        assert_eq!(net.messages_unroutable(), 1);
        // Restart: the id attaches again and traffic flows.
        let _out = mux.attach(NodeId(1));
        server.send(NodeId(1), Message::RoundResult { round: 2, accepted: true });
        assert!(mux.recv_timeout(Duration::from_millis(200)).is_ok());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn mux_attach_of_a_registered_id_panics() {
        let net = Network::new();
        let _a = net.register(NodeId(3));
        let mux = net.register_mux();
        let _ = mux.attach(NodeId(3));
    }

    #[test]
    fn lossy_network_drops_roughly_the_configured_fraction() {
        let net = Network::with_loss(0.3, 42);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let n = 2000;
        for round in 0..n {
            a.send(NodeId(1), Message::RoundResult { round, accepted: true });
        }
        let mut received = 0;
        // Generous drain timeout: under the socket transport delivery
        // crosses a kernel buffer and a reader thread, so back-to-back
        // messages may be more than a millisecond apart.
        while b.recv_timeout(Duration::from_millis(50)).is_ok() {
            received += 1;
        }
        let drop_rate = 1.0 - received as f64 / n as f64;
        assert!((0.25..0.35).contains(&drop_rate), "drop rate {drop_rate}");
        assert_eq!(net.messages_dropped() + received, n);
    }

    #[test]
    fn total_blackout_is_expressible() {
        let net = Network::with_loss(1.0, 3);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        for round in 0..20 {
            a.send(NodeId(1), Message::RoundResult { round, accepted: true });
        }
        assert!(b.recv_timeout(Duration::from_millis(5)).is_err());
        assert_eq!(net.messages_dropped(), 20);
    }

    #[test]
    fn shutdown_is_never_dropped() {
        let net = Network::with_loss(1.0, 7);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        for _ in 0..50 {
            a.send(NodeId(1), Message::Shutdown);
        }
        let mut got = 0;
        while b.recv_timeout(Duration::from_millis(50)).is_ok() {
            got += 1;
        }
        assert_eq!(got, 50);
    }

    #[test]
    fn recv_timeout_expires() {
        let net = Network::new();
        let a = net.register(NodeId(0));
        assert!(a.recv_timeout(Duration::from_millis(5)).is_err());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let net = Network::new();
        let _a = net.register(NodeId(0));
        let _b = net.register(NodeId(0));
    }

    #[test]
    fn disconnect_unblocks_the_receiver_and_allows_reregistration() {
        let net = Network::new();
        let a = net.register(NodeId(0));
        assert!(net.is_connected(NodeId(0)));
        let handle = std::thread::spawn(move || a.recv().is_err());
        assert!(net.disconnect(NodeId(0)));
        assert!(handle.join().unwrap(), "recv must error once the route is gone");
        assert!(!net.disconnect(NodeId(0)), "double disconnect reports absence");
        // A crashed node rejoins with a fresh endpoint.
        let a2 = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        b.send(NodeId(0), Message::RoundResult { round: 1, accepted: true });
        assert!(a2.recv_timeout(Duration::from_millis(200)).is_ok());
    }

    #[test]
    fn delayed_messages_arrive_later_but_intact() {
        let plan = FaultPlan::uniform(
            LinkPolicy::lossless().with_delay(Duration::from_millis(30), Duration::from_millis(10)),
            5,
        );
        let net = Network::with_faults(plan);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let start = Instant::now();
        a.send(NodeId(1), Message::RoundResult { round: 9, accepted: false });
        assert!(
            b.recv_timeout(Duration::from_millis(5)).is_err(),
            "a delayed message must not arrive immediately"
        );
        let env = b.recv_timeout(Duration::from_secs(5)).expect("delayed message lost");
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(env.message, Message::RoundResult { round: 9, accepted: false });
        assert_eq!(net.messages_deferred(), 1);
    }

    #[test]
    fn reordering_overtakes_held_messages() {
        // Every message is held back 20–40ms with probability 1; sending
        // a held message followed by an instant one on a lossless side
        // channel shows the overtake.
        let plan = FaultPlan::lossless(11).link(
            LinkSelector::to(NodeId(1)),
            LinkPolicy::lossless().with_reorder(1.0, Duration::from_millis(40)),
        );
        let net = Network::with_faults(plan);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        a.send(NodeId(1), Message::RoundResult { round: 1, accepted: true });
        // Second message: bypasses the holdback only if its own draw is
        // small — instead route it through a different policy by sending
        // many and checking arrival order is not send order.
        for round in 2..=20 {
            a.send(NodeId(1), Message::RoundResult { round, accepted: true });
        }
        let mut order = Vec::new();
        while order.len() < 20 {
            let env = b.recv_timeout(Duration::from_secs(5)).expect("message lost");
            if let Message::RoundResult { round, .. } = env.message {
                order.push(round);
            }
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "random holdbacks must reorder at least one pair");
        assert_eq!(sorted, (1..=20).collect::<Vec<_>>(), "nothing may be lost");
    }

    #[test]
    fn duplication_delivers_twice() {
        let plan = FaultPlan::uniform(LinkPolicy::lossless().with_duplicate(1.0), 13);
        let net = Network::with_faults(plan);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        a.send(NodeId(1), Message::RoundResult { round: 4, accepted: true });
        let mut got = 0;
        while b.recv_timeout(Duration::from_millis(50)).is_ok() {
            got += 1;
        }
        assert_eq!(got, 2, "a duplicated message arrives exactly twice");
        assert_eq!(net.messages_duplicated(), 1);
        assert_eq!(net.messages_sent(), 1, "duplication does not inflate the send count");
    }

    #[test]
    fn corruption_damages_payloads_detectably() {
        let plan = FaultPlan::uniform(LinkPolicy::lossless().with_corrupt(1.0), 17);
        let net = Network::with_faults(plan);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let params = vec![1.0f32; 50];
        a.send(NodeId(1), Message::TrainRequest { round: 1, global: wire::encode_f32(&params) });
        let env = b.recv_timeout(Duration::from_millis(500)).expect("corrupted, not dropped");
        let Message::TrainRequest { global, .. } = env.message else { panic!("wrong kind") };
        let err = wire::decode_f32(&global).expect_err("payload must be damaged");
        assert!(err.is_corruption());
        assert_eq!(net.messages_corrupted(), 1);
    }

    #[test]
    fn partition_drops_everything_during_its_rounds() {
        let plan =
            FaultPlan::lossless(0).event(FaultEvent::Partition { node: NodeId(1), rounds: 2..=2 });
        let net = Network::with_faults(plan);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.begin_round(2);
        a.send(NodeId(1), Message::RoundResult { round: 2, accepted: true });
        b.send(NodeId(0), Message::RoundResult { round: 2, accepted: true });
        assert!(b.recv_timeout(Duration::from_millis(5)).is_err());
        assert!(a.recv_timeout(Duration::from_millis(5)).is_err());
        assert_eq!(net.messages_dropped(), 2);
        // The partition heals on the next round.
        net.begin_round(3);
        a.send(NodeId(1), Message::RoundResult { round: 3, accepted: true });
        assert!(b.recv_timeout(Duration::from_millis(200)).is_ok());
    }

    #[test]
    fn scripted_kind_filter_drops_only_that_kind() {
        let plan = FaultPlan::lossless(0).event(FaultEvent::DropKind {
            to: Some(NodeId(1)),
            rounds: 1..=1,
            kind: "validate-request",
        });
        let net = Network::with_faults(plan);
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        net.begin_round(1);
        a.send(
            NodeId(1),
            Message::ValidateRequest {
                round: 1,
                candidate: bytes::Bytes::new(),
                history_delta: vec![],
            },
        );
        a.send(NodeId(1), Message::RoundResult { round: 1, accepted: true });
        let env = b.recv_timeout(Duration::from_millis(200)).expect("other kinds pass");
        assert_eq!(env.message.kind(), "round-result");
        assert!(b.recv_timeout(Duration::from_millis(5)).is_err());
    }

    const RECV: Duration = Duration::from_secs(5);

    #[test]
    fn socket_transport_delivers_and_meters_wire_traffic() {
        let net =
            Network::with_transport(FaultPlan::lossless(0), TransportMode::Socket(SocketKind::Tcp));
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let params = vec![0.5f32; 32];
        a.send(NodeId(1), Message::TrainRequest { round: 7, global: wire::encode_f32(&params) });
        b.send(NodeId(0), Message::RoundResult { round: 7, accepted: true });
        let env = b.recv_timeout(RECV).expect("frame lost over loopback");
        let Message::TrainRequest { round, global } = env.message else { panic!("wrong kind") };
        assert_eq!(round, 7);
        assert_eq!(wire::decode_f32(&global).unwrap(), params);
        assert_eq!(a.recv_timeout(RECV).unwrap().from, NodeId(1));
        assert_eq!(net.wire_frames(), 2, "both directions cross the socket");
        assert!(net.wire_bytes() > 2 * frame::FRAME_HEADER as u64);
        assert_eq!(net.messages_sent(), 2);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_transport_delivers() {
        let net = Network::with_transport(
            FaultPlan::lossless(0),
            TransportMode::Socket(SocketKind::Unix),
        );
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        a.send(NodeId(1), Message::RoundResult { round: 3, accepted: false });
        let env = b.recv_timeout(RECV).unwrap();
        assert_eq!(env.message, Message::RoundResult { round: 3, accepted: false });
        assert_eq!(net.wire_frames(), 1);
    }

    #[test]
    fn socket_transport_mux_demuxes_and_survives_detach() {
        let net =
            Network::with_transport(FaultPlan::lossless(0), TransportMode::Socket(SocketKind::Tcp));
        let server = net.register(NodeId(0));
        let mux = net.register_mux();
        let _out1 = mux.attach(NodeId(1));
        let out2 = mux.attach(NodeId(2));
        server.send(NodeId(1), Message::RoundResult { round: 1, accepted: true });
        server.send(NodeId(2), Message::RoundResult { round: 2, accepted: true });
        assert_eq!(mux.recv_timeout(RECV).unwrap().to, NodeId(1));
        assert_eq!(mux.recv_timeout(RECV).unwrap().to, NodeId(2));
        // Detaching one id must not sever the mux's shared connection.
        assert!(mux.detach(NodeId(1)));
        server.send(NodeId(2), Message::RoundResult { round: 3, accepted: true });
        assert_eq!(mux.recv_timeout(RECV).unwrap().to, NodeId(2));
        out2.send(NodeId(0), Message::RoundResult { round: 4, accepted: false });
        assert_eq!(server.recv_timeout(RECV).unwrap().from, NodeId(2));
    }

    #[test]
    fn socket_disconnect_closes_the_connection_and_allows_rejoin() {
        let net =
            Network::with_transport(FaultPlan::lossless(0), TransportMode::Socket(SocketKind::Tcp));
        let a = net.register(NodeId(0));
        let handle = std::thread::spawn(move || a.recv().is_err());
        assert!(net.disconnect(NodeId(0)));
        assert!(handle.join().unwrap(), "recv must error once the connection closes");
        let a2 = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        b.send(NodeId(0), Message::RoundResult { round: 1, accepted: true });
        assert!(a2.recv_timeout(RECV).is_ok());
    }

    #[test]
    fn socket_transport_preserves_detectable_corruption() {
        // A payload corrupted by the fault injector must arrive over the
        // socket still framed intact (the frame checksum covers what was
        // actually sent) and still detectably damaged at the codec layer.
        let plan = FaultPlan::uniform(LinkPolicy::lossless().with_corrupt(1.0), 17);
        let net = Network::with_transport(plan, TransportMode::Socket(SocketKind::Tcp));
        let a = net.register(NodeId(0));
        let b = net.register(NodeId(1));
        let params = vec![1.0f32; 50];
        a.send(NodeId(1), Message::TrainRequest { round: 1, global: wire::encode_f32(&params) });
        let env = b.recv_timeout(RECV).expect("corrupted, not dropped");
        let Message::TrainRequest { global, .. } = env.message else { panic!("wrong kind") };
        assert!(wire::decode_f32(&global).expect_err("payload must be damaged").is_corruption());
        assert_eq!(net.messages_corrupted(), 1);
    }
}
