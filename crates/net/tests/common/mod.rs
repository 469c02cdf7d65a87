//! The transport is a test parameter: every suite that builds a
//! `Network` or a `DeploymentConfig` runs its bodies through
//! [`on_each_transport`]. `tests/chaos.rs` and
//! `tests/failure_injection.rs` pull this file in via `#[path]`.

use baffle_net::socket::{SocketKind, TransportMode};

/// Runs `body` once over in-process channels and once over loopback
/// TCP, concurrently: these suites wait on phase timeouts, not on the
/// CPU, so both arms fit in one arm's wall-clock. Each arm's thread is
/// named after its transport, so a panic message says which arm failed.
pub fn on_each_transport(body: impl Fn(TransportMode) + Sync) {
    std::thread::scope(|scope| {
        for transport in [TransportMode::InProcess, TransportMode::Socket(SocketKind::Tcp)] {
            let body = &body;
            std::thread::Builder::new()
                .name(transport.label().into())
                .spawn_scoped(scope, move || body(transport))
                .expect("spawn transport arm");
        }
    });
}
