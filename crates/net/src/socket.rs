//! Loopback socket plumbing for the wire transport.
//!
//! In socket mode every registered endpoint gets a real OS-level
//! connection — TCP on `127.0.0.1` or a Unix domain socket — and the
//! network's delivery step writes [`crate::frame`]-encoded bytes into
//! it; a reader thread on the endpoint side cuts frames back off the
//! stream. The fault pipeline, routing table and ledger counters stay
//! in the shared [`crate::transport::Network`] (they are the simulated
//! *link*, not the wire), so the socket hop is exactly the
//! serialise/deserialise boundary: every payload a node receives has
//! round-tripped through the full frame codec over a kernel socket.
//!
//! The [`Hub`] owns one listener; connections are created pairwise
//! (connect + accept under the network's registration lock, so pairs
//! can never interleave). [`Conn`] is the write half the network keeps
//! per route, with a lock-free shutdown handle so a close can unblock a
//! writer mid-frame.

use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which socket family the wire transport uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// TCP over `127.0.0.1` (portable, exercises the real TCP stack).
    Tcp,
    /// Unix domain sockets (lower overhead; falls back to TCP on
    /// platforms without them).
    Unix,
}

/// How envelopes travel from the network's delivery step to endpoints.
///
/// A value, never ambient state: a deployment takes it from
/// [`DeploymentConfig::transport`], a bare network from
/// [`Network::with_transport`]; nothing reads the process environment.
/// Tests that must hold on every transport loop over the modes.
///
/// [`DeploymentConfig::transport`]: crate::deployment::DeploymentConfig::transport
/// [`Network::with_transport`]: crate::transport::Network::with_transport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Crossbeam channels, no serialisation — what every preset and
    /// [`Network::new`](crate::transport::Network::new) use.
    InProcess,
    /// Frame-encoded bytes over loopback sockets.
    Socket(SocketKind),
}

impl TransportMode {
    /// Short name for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            TransportMode::InProcess => "channel",
            TransportMode::Socket(SocketKind::Tcp) => "tcp",
            TransportMode::Socket(SocketKind::Unix) => "unix",
        }
    }
}

/// One direction-agnostic byte stream of either family.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Shuts down both directions, unblocking any reader or writer.
    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener, SocketAddr),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Distinguishes concurrently-bound hubs within one process (the Unix
/// socket path must be unique per hub).
static HUB_SEQ: AtomicU64 = AtomicU64::new(0);

/// The network's socket factory: one loopback listener whose
/// connections are handed out pairwise at registration time.
pub(crate) struct Hub {
    listener: Listener,
}

impl Hub {
    pub(crate) fn bind(kind: SocketKind) -> io::Result<Hub> {
        let listener = match kind {
            SocketKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = listener.local_addr()?;
                Listener::Tcp(listener, addr)
            }
            #[cfg(unix)]
            SocketKind::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "baffle-hub-{}-{}.sock",
                    std::process::id(),
                    HUB_SEQ.fetch_add(1, Ordering::Relaxed),
                ));
                let _ = std::fs::remove_file(&path);
                Listener::Unix(UnixListener::bind(&path)?, path)
            }
            #[cfg(not(unix))]
            SocketKind::Unix => {
                // No Unix domain sockets on this platform: loopback TCP
                // gives the same framing guarantees.
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = listener.local_addr()?;
                Listener::Tcp(listener, addr)
            }
        };
        Ok(Hub { listener })
    }

    /// Creates one connection pair: `(endpoint side, network side)`.
    /// Callers serialise pair creation (the registration lock), so the
    /// accepted connection is always the one just initiated.
    pub(crate) fn connect_pair(&self) -> io::Result<(Stream, Stream)> {
        match &self.listener {
            Listener::Tcp(listener, addr) => {
                let peer = TcpStream::connect(addr)?;
                let (hub_side, _) = listener.accept()?;
                peer.set_nodelay(true)?;
                hub_side.set_nodelay(true)?;
                Ok((Stream::Tcp(peer), Stream::Tcp(hub_side)))
            }
            #[cfg(unix)]
            Listener::Unix(listener, path) => {
                let peer = UnixStream::connect(path)?;
                let (hub_side, _) = listener.accept()?;
                Ok((Stream::Unix(peer), Stream::Unix(hub_side)))
            }
        }
    }
}

/// The write half of one route's connection. `write_frame` serialises
/// concurrent senders; `close` bypasses the writer lock via a cloned
/// handle so it also unblocks a writer stuck on a full socket buffer.
#[derive(Debug)]
pub(crate) struct Conn {
    writer: Mutex<Stream>,
    ctrl: Stream,
    pinned: bool,
}

impl Conn {
    /// Wraps the network-side stream of a pair. `pinned` connections
    /// (a mux's shared socket) survive individual detaches and close
    /// only when the network or mux goes away.
    pub(crate) fn new(stream: Stream, pinned: bool) -> io::Result<Conn> {
        let ctrl = stream.try_clone()?;
        Ok(Conn { writer: Mutex::new(stream), ctrl, pinned })
    }

    pub(crate) fn pinned(&self) -> bool {
        self.pinned
    }

    /// Writes one complete frame. Errors mean the endpoint side is
    /// gone — the caller treats that like a send into a dropped
    /// channel.
    pub(crate) fn write_frame(&self, frame: &[u8]) -> io::Result<()> {
        self.writer.lock().write_all(frame)
    }

    /// Shuts the connection down in both directions: the endpoint-side
    /// reader sees EOF (its channel closes, `recv` errors — crash-stop
    /// semantics) and any in-flight write fails.
    pub(crate) fn close(&self) {
        self.ctrl.shutdown();
    }
}
