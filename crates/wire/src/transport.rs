//! Byte transports under the framed protocol.
//!
//! A [`Transport`] is a blocking, bidirectional byte stream with shared
//! (`&self`) endpoints, so one connection object can be driven from a
//! writer thread and a reader thread concurrently.  Two implementations:
//!
//! * [`Duplex`] — an in-process pipe pair.  This is the default harness
//!   transport: it enforces the byte-for-byte protocol (everything crosses
//!   as encoded frames, nothing is shared by reference) and it exposes
//!   [`Duplex::kill_outbound_after`], which tears the outbound wire at an
//!   exact byte offset — the fault-injection hook the kill-at-any-byte
//!   replication harness drives.
//! * [`TcpTransport`] — a loopback socket, for crossing a real process
//!   boundary.

use crate::{WireError, WireResult};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A blocking bidirectional byte stream.  All methods take `&self`;
/// implementations synchronise internally.
pub trait Transport: Send + Sync {
    /// Writes all of `bytes`, or fails with [`WireError::Closed`] /
    /// [`WireError::Io`] if the wire is down.
    fn write_all(&self, bytes: &[u8]) -> WireResult<()>;

    /// Fills `buf` completely, blocking for more bytes as needed.  Fails
    /// with [`WireError::Closed`] when the peer shuts down before `buf` is
    /// full — a partial fill is indistinguishable from a torn frame and is
    /// reported the same way.
    fn read_exact(&self, buf: &mut [u8]) -> WireResult<()>;

    /// Tears down both directions; blocked readers wake with
    /// [`WireError::Closed`].
    fn shutdown(&self);
}

/// One direction of an in-process pipe.
#[derive(Debug, Default)]
struct PipeBuf {
    data: VecDeque<u8>,
    closed: bool,
    /// Remaining bytes this direction will carry before the wire "tears":
    /// bytes beyond the budget are dropped and the pipe closes.  `None`
    /// means unlimited.
    budget: Option<usize>,
}

#[derive(Debug, Default)]
struct Pipe {
    inner: Mutex<PipeBuf>,
    cv: Condvar,
}

impl Pipe {
    fn write_all(&self, bytes: &[u8]) -> WireResult<()> {
        let mut buf = self.inner.lock().expect("pipe lock");
        if buf.closed {
            return Err(WireError::Closed);
        }
        match buf.budget {
            None => buf.data.extend(bytes.iter().copied()),
            Some(budget) => {
                let keep = bytes.len().min(budget);
                buf.data.extend(bytes[..keep].iter().copied());
                buf.budget = Some(budget - keep);
                if keep < bytes.len() {
                    buf.closed = true;
                    self.cv.notify_all();
                    return Err(WireError::Closed);
                }
            }
        }
        self.cv.notify_all();
        Ok(())
    }

    fn read_exact(&self, out: &mut [u8]) -> WireResult<()> {
        let mut buf = self.inner.lock().expect("pipe lock");
        let mut filled = 0;
        while filled < out.len() {
            if let Some(b) = buf.data.pop_front() {
                out[filled] = b;
                filled += 1;
                continue;
            }
            if buf.closed {
                return Err(WireError::Closed);
            }
            buf = self.cv.wait(buf).expect("pipe lock");
        }
        Ok(())
    }

    fn close(&self) {
        // Setting the flag is valid at every step, so a guard poisoned by a
        // panicking writer is still safe to use — and `Drop` calls this.
        let mut buf = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        buf.closed = true;
        self.cv.notify_all();
    }
}

/// An in-process transport endpoint: writes go to the outbound pipe, reads
/// drain the inbound pipe.  Create a crossed pair with [`Duplex::pair`].
///
/// Dropping an endpoint closes both directions, as closing a socket does:
/// the peer reads whatever was already written, then
/// [`WireError::Closed`], instead of blocking forever.
#[derive(Debug)]
pub struct Duplex {
    outbound: Arc<Pipe>,
    inbound: Arc<Pipe>,
}

impl Duplex {
    /// A connected pair of endpoints: bytes written on one are read by the
    /// other, in both directions.
    pub fn pair() -> (Duplex, Duplex) {
        let a_to_b = Arc::new(Pipe::default());
        let b_to_a = Arc::new(Pipe::default());
        (
            Duplex {
                outbound: Arc::clone(&a_to_b),
                inbound: Arc::clone(&b_to_a),
            },
            Duplex {
                outbound: b_to_a,
                inbound: a_to_b,
            },
        )
    }

    /// Arms the fault injector: after `n` more outbound bytes the wire
    /// tears — later bytes are dropped, the peer reads the clean `n`-byte
    /// prefix and then sees [`WireError::Closed`], exactly like a
    /// connection dying mid-frame.
    pub fn kill_outbound_after(&self, n: usize) {
        let mut buf = self.outbound.inner.lock().expect("pipe lock");
        buf.budget = Some(n);
    }
}

impl Transport for Duplex {
    fn write_all(&self, bytes: &[u8]) -> WireResult<()> {
        self.outbound.write_all(bytes)
    }

    fn read_exact(&self, buf: &mut [u8]) -> WireResult<()> {
        self.inbound.read_exact(buf)
    }

    fn shutdown(&self) {
        self.outbound.close();
        self.inbound.close();
    }
}

impl Drop for Duplex {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A loopback-socket transport wrapping a [`TcpStream`].  The stream is
/// cloned into independent read and write halves so a reader thread and
/// writer thread never contend.
pub struct TcpTransport {
    reader: Mutex<TcpStream>,
    writer: Mutex<TcpStream>,
    stream: TcpStream,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Wraps a connected stream.  Fails if the OS refuses to clone the
    /// descriptor.
    pub fn new(stream: TcpStream) -> WireResult<Self> {
        stream.set_nodelay(true).ok();
        let reader = stream
            .try_clone()
            .map_err(|e| WireError::Io(e.to_string()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| WireError::Io(e.to_string()))?;
        Ok(Self {
            reader: Mutex::new(reader),
            writer: Mutex::new(writer),
            stream,
        })
    }
}

impl Transport for TcpTransport {
    fn write_all(&self, bytes: &[u8]) -> WireResult<()> {
        let mut w = self.writer.lock().expect("tcp writer lock");
        w.write_all(bytes).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset => WireError::Closed,
            _ => WireError::Io(e.to_string()),
        })
    }

    fn read_exact(&self, buf: &mut [u8]) -> WireResult<()> {
        let mut r = self.reader.lock().expect("tcp reader lock");
        r.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset => WireError::Closed,
            _ => WireError::Io(e.to_string()),
        })
    }

    fn shutdown(&self) {
        self.stream.shutdown(Shutdown::Both).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn duplex_carries_bytes_both_ways() {
        let (a, b) = Duplex::pair();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn duplex_read_blocks_until_bytes_arrive() {
        let (a, b) = Duplex::pair();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        a.write_all(b"x").unwrap();
        a.write_all(b"yz").unwrap();
        assert_eq!(&t.join().unwrap(), b"xyz");
    }

    #[test]
    fn kill_delivers_clean_prefix_then_closed() {
        let (a, b) = Duplex::pair();
        a.kill_outbound_after(3);
        assert!(matches!(a.write_all(b"hello"), Err(WireError::Closed)));
        let mut prefix = [0u8; 3];
        b.read_exact(&mut prefix).unwrap();
        assert_eq!(&prefix, b"hel");
        let mut more = [0u8; 1];
        assert!(matches!(b.read_exact(&mut more), Err(WireError::Closed)));
        // The torn direction stays dead.
        assert!(matches!(a.write_all(b"!"), Err(WireError::Closed)));
    }

    #[test]
    fn shutdown_wakes_blocked_readers() {
        let (a, b) = Duplex::pair();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 1];
            b.read_exact(&mut buf)
        });
        a.shutdown();
        assert!(matches!(t.join().unwrap(), Err(WireError::Closed)));
    }

    #[test]
    fn dropping_one_end_closes_the_other() {
        let (a, b) = Duplex::pair();
        a.write_all(b"bye").unwrap();
        drop(a);
        // Bytes written before the drop still arrive; then the wire is
        // closed both ways.
        let mut buf = [0u8; 3];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"bye");
        assert!(matches!(b.read_exact(&mut buf), Err(WireError::Closed)));
        assert!(matches!(b.write_all(b"?"), Err(WireError::Closed)));

        // A reader already blocked on the peer wakes up too.
        let (a, b) = Duplex::pair();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 1];
            b.read_exact(&mut buf)
        });
        drop(a);
        assert!(matches!(t.join().unwrap(), Err(WireError::Closed)));
    }

    #[test]
    fn tcp_loopback_round_trip() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            return; // no loopback in this sandbox; covered by Duplex tests
        };
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::new(stream).unwrap();
            let mut buf = [0u8; 5];
            t.read_exact(&mut buf).unwrap();
            t.write_all(&buf).unwrap();
        });
        let t = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
        t.write_all(b"frame").unwrap();
        let mut buf = [0u8; 5];
        t.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"frame");
        server.join().unwrap();
    }
}
