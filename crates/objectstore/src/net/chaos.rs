//! Wire-level fault application at the socket boundary.
//!
//! The server consults [`crate::fault::FaultInjector::decide_wire`] once per exchange and
//! arms a [`FaultWriter`] around the response path (and a dribble flag on
//! the request path for slowloris). Faults act on the raw byte stream, so
//! the client exercises exactly the failure shapes a production object
//! store emits: connections that die mid-frame, responses that corrupt in
//! flight, peers that go silent, write sides that close early.

use crate::fault::WireFault;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Bytes of response prefix delivered before an RST/partial fault kills the
/// connection — past a typical response head, so the client has usually
/// parsed a status line and committed to a body before the cut (the
/// nastier shape: a *believed* response that dies mid-stream). Small acks
/// fit entirely inside the prefix and survive — real resets land after the
/// kernel already flushed short responses, same effect.
const FAULT_PREFIX: usize = 192;

/// Leading response bytes corrupted by the garbage fault; hits the status
/// line so the client's decoder rejects the frame outright.
const GARBAGE_SPAN: usize = 12;

fn injected(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionReset, format!("injected wire {what}"))
}

/// A [`Write`] wrapper over a connection that applies one wire fault to the
/// response it carries. Constructed per exchange; [`WireFault::None`] is a
/// transparent passthrough.
pub struct FaultWriter<'a> {
    inner: &'a TcpStream,
    fault: WireFault,
    partial_stall: Duration,
    written: usize,
    /// Set once the fault has fired; every later write fails fast.
    dead: bool,
}

impl<'a> FaultWriter<'a> {
    /// Wrap `inner`, applying `fault` to the bytes written through it.
    pub fn new(inner: &'a TcpStream, fault: WireFault, partial_stall: Duration) -> Self {
        FaultWriter { inner, fault, partial_stall, written: 0, dead: false }
    }

    /// True when the armed fault kills the connection (the server must not
    /// reuse it for another exchange).
    pub fn poisoned(&self) -> bool {
        self.dead
    }

    fn die(&mut self, what: &str) -> std::io::Error {
        self.dead = true;
        injected(what)
    }
}

impl Write for FaultWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(injected("fault (connection already dead)"));
        }
        match self.fault {
            WireFault::None | WireFault::Slowloris => self.inner.write(buf),
            WireFault::Garbage => {
                // Corrupt the leading bytes (the status line), then pass the
                // rest through: the client receives a full-length frame whose
                // head no longer parses.
                if self.written < GARBAGE_SPAN {
                    let mut corrupted = buf.to_vec();
                    for b in corrupted.iter_mut().take(GARBAGE_SPAN.saturating_sub(self.written)) {
                        *b ^= 0x55;
                    }
                    let n = self.inner.write(&corrupted)?;
                    self.written += n;
                    Ok(n)
                } else {
                    self.inner.write(buf)
                }
            }
            WireFault::Rst => {
                // Deliver a prefix, then abort. An abrupt close mid-frame is
                // what a peer's RST looks like to our decoder: EOF inside a
                // frame it was promised.
                if self.written >= FAULT_PREFIX {
                    return Err(self.die("rst mid-response"));
                }
                let allowed = (FAULT_PREFIX - self.written).min(buf.len());
                let n = self.inner.write(buf.get(..allowed).unwrap_or_default())?;
                self.written += n;
                Ok(n)
            }
            WireFault::Partial => {
                // Deliver a prefix, flush it, then go silent: the client's
                // read timeout (not a connection error) must surface this.
                if self.written >= FAULT_PREFIX {
                    let _ = self.inner.flush();
                    std::thread::sleep(self.partial_stall);
                    return Err(self.die("partial write stall"));
                }
                let allowed = (FAULT_PREFIX - self.written).min(buf.len());
                let n = self.inner.write(buf.get(..allowed).unwrap_or_default())?;
                self.written += n;
                Ok(n)
            }
            WireFault::HalfClose => {
                // Close the write side before the first response byte: the
                // client sees EOF exactly where a status line should start.
                let _ = self.inner.shutdown(std::net::Shutdown::Write);
                Err(self.die("half-close before response"))
            }
        }
    }

    /// Without a write fault armed, two buffers still leave in one
    /// syscall; a fault counts bytes, so it takes them through
    /// [`Self::write`] one buffer at a time.
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self.fault {
            WireFault::None | WireFault::Slowloris if !self.dead => self.inner.write_vectored(bufs),
            _ => self.write(bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| &**b)),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Ok(());
        }
        self.inner.flush()
    }
}
