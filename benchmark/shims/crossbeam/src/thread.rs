//! `crossbeam::thread::scope` on top of `std::thread::scope`.

use std::any::Any;

/// Handle for spawning threads that may borrow from the enclosing
/// stack frame.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread. As in crossbeam, the closure receives the
    /// scope so it can spawn siblings.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }))
    }
}

/// Runs `f` with a scope; every thread spawned on it is joined before
/// this returns.
///
/// # Errors
///
/// Never, in this stand-in: `std::thread::scope` re-raises a child's
/// panic on the calling thread instead of returning it. The `Result`
/// keeps crossbeam's signature.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|inner| f(&Scope { inner })))
}
