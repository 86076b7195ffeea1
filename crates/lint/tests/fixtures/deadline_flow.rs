//! Deadline-flow fixture: socket sinks in the net plane, reached through
//! paths that do and do not establish timeouts or flow a `Deadline` in.
//! Loaded under a synthetic `net/wire.rs` path so the pass scopes to it.

pub struct Conn {
    sock: TcpStream,
}

impl Conn {
    /// `Read` trait adapter: sinks inside functions named `read` are their
    /// callers' responsibility — no finding.
    pub fn read(&mut self, buf: &mut [u8]) {
        let _ = self.sock.read(buf);
    }
}

/// Helper of a `Write` trait adapter: its only caller is the adapter below,
/// whose own callers reach it through a trait call — no finding.
fn spill(conn: &mut Conn, pending: &[u8]) {
    let _ = conn.sock.write_all(pending);
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) {
        spill(self, buf);
    }
}

/// Establishing frame: flows the deadline into the read timeout. Callers
/// of this function establish transitively.
fn tighten_for(conn: &mut Conn, deadline: Deadline) {
    let window = deadline.remaining();
    let _ = conn.sock.set_read_timeout(window);
}

/// The sink itself, two frames below the root that holds the deadline.
fn recv_into(conn: &mut Conn, buf: &mut [u8]) {
    let _ = conn.sock.read(buf);
}

/// Clean root: the deadline flows through `tighten_for` before the read
/// two frames down in `recv_into` — no finding on either rule.
fn fetch(conn: &mut Conn, deadline: Deadline, buf: &mut [u8]) {
    tighten_for(conn, deadline);
    recv_into(conn, buf);
}

/// No frame on any path to this read ever sets a timeout:
/// `unbounded-read` at the root.
fn naked_poll(conn: &mut Conn, buf: &mut [u8]) {
    let _ = conn.sock.read(buf);
}

/// Helper that installs a *static* default timeout; no deadline in sight.
fn default_timeouts(conn: &mut Conn) {
    let _ = conn.sock.set_read_timeout(Some(DEFAULT_IO));
}

/// A `Deadline` is available here but only the static default ever
/// reaches the socket: rule 1 is satisfied (a timeout exists), rule 2
/// denies (`deadline-unflowed-read`).
fn fetch_with_default(conn: &mut Conn, deadline: Deadline, buf: &mut [u8]) {
    let _ = deadline;
    default_timeouts(conn);
    let _ = conn.sock.read(buf);
}

/// Socket write with no establishing frame anywhere: `unbounded-write`.
fn push_frame(conn: &mut Conn, frame: &[u8]) {
    let _ = conn.sock.write_all(frame);
}

/// Serialization helper over a caller-supplied writer: generic roots are
/// never the frame responsible for socket timeouts — no finding.
fn encode_frame(w: &mut impl Write, payload: &[u8]) {
    let _ = w.write_all(payload);
}

/// Literal `TcpStream::connect` in the net plane: deny regardless of path.
fn plain_dial(addr: &SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// `connect_timeout` is the allowed spelling — no finding.
fn careful_dial(addr: &SocketAddr, budget: Duration) {
    let _ = TcpStream::connect_timeout(addr, budget);
}

/// Suppressed: a justified allow at the sink line.
fn probed_poll(conn: &mut Conn, buf: &mut [u8]) {
    // lint:allow(probe socket is nonblocking by construction)
    let _ = conn.sock.read(buf);
}
