//! Offline stand-in for `crossbeam` 0.8, covering exactly what the
//! BaFFLe workspace calls: an unbounded MPMC channel with
//! `recv_timeout`, a blocking two-arm `select!` over receivers, and
//! `thread::scope`.
//!
//! Everything blocks on a `Condvar`; nothing polls.

pub mod channel;
pub mod thread;

/// Blocks until one of two receivers has a message or is disconnected,
/// then runs that arm with the `Result<T, RecvError>`.
///
/// Only the form the workspace uses is accepted: exactly two `recv`
/// arms, the first with a block body. When both are ready the first arm
/// wins (the published crate picks at random; no caller depends on it).
#[macro_export]
macro_rules! select {
    (
        recv($r1:expr) -> $p1:pat => $b1:block $(,)?
        recv($r2:expr) -> $p2:pat => $b2:expr $(,)?
    ) => {
        match $crate::channel::select2(&$r1, &$r2) {
            $crate::channel::Selected::First($p1) => $b1,
            $crate::channel::Selected::Second($p2) => $b2,
        }
    };
}
