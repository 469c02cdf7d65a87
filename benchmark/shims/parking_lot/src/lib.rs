//! Offline stand-in for `parking_lot` 0.12, covering exactly what the
//! BaFFLe workspace calls: a non-poisoning [`Mutex`] whose `lock()`
//! returns the guard directly, and a [`Condvar`] that waits on a
//! `&mut` guard. Both wrap their `std::sync` counterparts.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion lock that ignores poisoning: a panic while the
/// lock is held leaves it usable, as with the published crate.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self { inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning its value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is acquired.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }

    /// Direct access through exclusive ownership; no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Holds the lock until dropped.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    /// `None` only inside [`Condvar`] waits, which hand the std guard
    /// to the std condvar by value and put the returned one back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside condvar waits")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside condvar waits")
    }
}

/// Whether a timed wait ended by timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self { inner: std::sync::Condvar::new() }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Releases the lock, blocks until notified, and re-acquires it.
    /// Spurious wake-ups are possible; callers loop on their condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present outside condvar waits");
        guard.inner = Some(self.inner.wait(std_guard).unwrap_or_else(PoisonError::into_inner));
    }

    /// Like [`Condvar::wait`], giving up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present outside condvar waits");
        let (std_guard, result) =
            self.inner.wait_timeout(std_guard, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
        WaitTimeoutResult(result.timed_out())
    }
}
