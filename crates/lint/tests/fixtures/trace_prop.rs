//! Trace-propagation fixture: egress with and without the trace attached
//! (directly, via a forwarding chain, or not at all), response completions
//! with and without the span-trailer decode, and response heads with and
//! without the trailer emit. Loaded under a non-`net/` objectstore path so
//! rule 1 applies.

pub struct Pool {
    idle: Vec<Conn>,
}

impl Pool {
    fn evict(&mut self, conn: Conn) {
        drop(conn);
    }

    /// The completion primitive itself calls `evict` on overflow, but is
    /// exempt from the balance rule by name.
    fn checkin(&mut self, conn: Conn) {
        if self.idle.len() >= MAX_IDLE {
            self.evict(conn);
            return;
        }
        self.idle.push(conn);
    }
}

/// Attaches the trace before egress: clean.
fn traced_send(pool: &Pool, req: &mut Request) {
    req.headers.set(headers::TRACE, next_trace_id());
    let _ = pool.send(req);
}

/// Forwards a caller's request to the wire; its only caller attaches the
/// trace, so the obligation is discharged one frame up: clean.
fn forward_send(pool: &Pool, req: Request) {
    let _ = pool.send(&req);
}

/// The attaching caller of `forward_send`.
fn attach_then_forward(pool: &Pool, mut req: Request) {
    req.headers.set(headers::TRACE, next_trace_id());
    forward_send(pool, req);
}

/// Egress with no attach and no forwarding signature: deny.
fn untraced_send(pool: &Pool, payload: &[u8]) {
    let _ = pool.send(payload);
}

/// Forwards a request but has no resolved callers: unprovable, deny.
fn orphan_forward(pool: &Pool, req: Request) {
    let _ = pool.send(&req);
}

/// A channel send shares the name but not the receiver: not egress, clean.
fn channel_push(tx: &Sender<Vec<u8>>, payload: Vec<u8>) {
    let _ = tx.send(payload);
}

/// Suppressed by a justified allow.
fn metrics_push(pool: &Pool, payload: &[u8]) {
    // lint:allow(internal metrics channel, trace attached by the sink)
    let _ = pool.send(payload);
}

/// Completion balanced by a span decode: clean.
fn finish_clean(pool: &mut Pool, mut conn: Conn, trace: Option<&str>) {
    merge_server_spans(&mut conn, trace, 0);
    pool.checkin(conn);
}

/// The response finishes (evict) without decoding the span trailer — the
/// required "response path that skips the trailer decode" case: deny.
fn finish_leaky(pool: &mut Pool, conn: Conn) {
    pool.evict(conn);
}

/// Head plus trailer: clean.
fn reply_clean(out: &mut Vec<u8>, status: u16) {
    encode_response_head(out, status);
    server_span_trailer(out);
}

/// Error termination that forgets the trailer: deny.
fn reply_headless(out: &mut Vec<u8>, status: u16) {
    encode_response_head(out, status);
}
