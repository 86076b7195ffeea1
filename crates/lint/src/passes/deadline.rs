//! Deadline-flow analysis over the TCP data plane.
//!
//! Generalises invariants rule 3 ("retry loops consult `Deadline`") and
//! rule 5 ("sockets read under a timeout") from "same function" to "any
//! call chain". Socket sinks — reads, writes and connects in
//! `objectstore/src/net/{server,pool,wire}.rs` — must be reachable only
//! through call paths that establish a timeout, and when a `Deadline` is
//! in scope anywhere on the path, a frame on that path must flow it into
//! the timeout.
//!
//! Three rules, all deny:
//!
//! 1. **`unbounded-{read,write}`** — a sink is reachable from a root
//!    function through a path on which no frame *establishes* the matching
//!    timeout. `estab(F)` = `F` calls `set_read_timeout` /
//!    `set_write_timeout` directly, or any resolved callee does (bottom-up
//!    fixpoint — `Conn::tighten` establishes both, so callers of `tighten`
//!    are establishing frames). The backward walk from the sink prunes at
//!    establishing frames; a non-establishing root is a violation.
//! 2. **`deadline-unflowed-{read,write}`** — same walk, but tracking
//!    whether a `Deadline` was *available* on the path (a frame whose
//!    signature mentions `Deadline` or whose body mentions `deadline`).
//!    The walk prunes at frames where an available deadline actually flows
//!    into the timeout (`deadline_estab(F)` = `F` is deadline-available
//!    and sets the timeout directly, or a resolved callee does). Reaching
//!    a root with a deadline available but never flowed is a violation:
//!    the budget existed and the socket ignored it. Paths with no deadline
//!    anywhere (e.g. the server accept loop, which has no request context
//!    yet) are rule 1's business only.
//! 3. **`unbounded-connect`** — a literal `TcpStream::connect(..)` in the
//!    net plane; `connect_timeout` is the only allowed spelling.
//!
//! Sinks inside functions *named* `read` / `write` / `flush` / `peek` are
//! exempt: those are `Read`/`Write` trait adapters (`PacedStream::read`)
//! whose timeouts are their callers' responsibility by construction — and
//! so are the sinks of the helpers such an adapter calls: a walk that ends
//! at an adapter *root* has only run out of resolvable callers (the trait
//! call into it is not an edge), not of callers. For the same reason, a
//! *root* whose signature takes a generic writer or reader (`impl Write`,
//! `W: Write`) is exempt — serialization helpers are routinely driven
//! against `Vec<u8>` buffers; when a real caller hands them a socket, that
//! caller's own frames are still on the walked path and still checked.
//!
//! This is a may-analysis at function granularity: establishment anywhere
//! in a frame covers the whole frame (token order inside a body is not
//! modelled — closures dissolve into their enclosing function, which makes
//! order unsound to use). Limits in DESIGN.md §15.

use crate::analysis::Graph;
use crate::findings::{Finding, Severity};
use crate::lexer::Tok;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Files whose socket calls are in scope (the TCP data plane).
const SCOPE: &[&str] = &["net/server.rs", "net/pool.rs", "net/wire.rs"];

/// Trait-adapter function names whose sinks are exempt.
const ADAPTERS: &[&str] = &["read", "write", "write_vectored", "flush", "peek"];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Read,
    Write,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
        }
    }
    fn setter(self) -> &'static str {
        match self {
            Kind::Read => "set_read_timeout",
            Kind::Write => "set_write_timeout",
        }
    }
}

pub fn run(graph: &Graph<'_>) -> Vec<Finding> {
    let n_nodes = graph.nodes.len();

    // Establishment facts, propagated bottom-up: a frame establishes a
    // timeout kind if it sets it directly or any resolved callee does.
    let mut estab_seed: Vec<BTreeSet<Kind>> = vec![BTreeSet::new(); n_nodes];
    let mut flow_seed: Vec<BTreeSet<Kind>> = vec![BTreeSet::new(); n_nodes];
    let mut avail = vec![false; n_nodes];
    let mut exempt_root = vec![false; n_nodes];
    for n in 0..n_nodes {
        avail[n] = graph
            .sig_toks(n)
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "Deadline"))
            || has_deadline_value(graph.body_toks(n));
        // `fn f(w: &mut impl Write)` / `<W: Write>` — a serialization
        // helper over a caller-supplied writer — or a `Read`/`Write` trait
        // adapter, entered through a trait call the graph has no edge for.
        // Its sinks are checked through every real caller; as a root it is
        // never the frame responsible for the timeout.
        exempt_root[n] = ADAPTERS.contains(&graph.func(n).name.as_str())
            || graph
                .sig_toks(n)
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "Write" || s == "Read"));
        for kind in [Kind::Read, Kind::Write] {
            if graph.calls_name(n, kind.setter()) {
                estab_seed[n].insert(kind);
                if avail[n] {
                    flow_seed[n].insert(kind);
                }
            }
        }
    }
    let estab = graph.propagate_up(estab_seed);
    let deadline_estab = graph.propagate_up(flow_seed);

    let mut out = Vec::new();
    // (sink node, kind, rule, root) -> first sink line, for deduplication.
    let mut found: BTreeMap<(usize, Kind, &'static str, usize), u32> = BTreeMap::new();

    for n in 0..n_nodes {
        let pf = graph.file(n);
        if !SCOPE.iter().any(|s| pf.path.ends_with(s)) {
            continue;
        }
        let f = graph.func(n);
        let toks = graph.body_toks(n);

        // Rule 3: literal TcpStream::connect.
        for (i, t) in toks.iter().enumerate() {
            if t.tok != Tok::Ident("TcpStream".into()) {
                continue;
            }
            let is_connect = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "connect")
                && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Punct('(')));
            if !is_connect || allowed(pf, t.line) {
                continue;
            }
            out.push(Finding {
                pass: "deadline-flow",
                severity: Severity::Deny,
                file: pf.path.clone(),
                function: f.qual_name.clone(),
                line: t.line,
                detail: "unbounded-connect".into(),
                message: "`TcpStream::connect` has no timeout; use `connect_timeout` with a deadline-derived budget".into(),
            });
        }

        if ADAPTERS.contains(&f.name.as_str()) {
            continue;
        }

        for c in &graph.calls[n] {
            let Some(kind) = sink_kind(toks, c.at, &c.name) else { continue };
            if allowed(pf, c.line) {
                continue;
            }
            // Rule 1: every path to this sink must establish the timeout.
            for root in bad_roots(graph, n, |m| estab[m].contains(&kind)) {
                if exempt_root[root] {
                    continue;
                }
                found.entry((n, kind, "unbounded", root)).or_insert(c.line);
            }
            // Rule 2: paths with a deadline available must flow it in.
            for root in unflowed_roots(graph, n, &avail, |m| deadline_estab[m].contains(&kind)) {
                if exempt_root[root] {
                    continue;
                }
                found.entry((n, kind, "deadline-unflowed", root)).or_insert(c.line);
            }
        }
    }

    for ((n, kind, rule, root), line) in found {
        let pf = graph.file(n);
        let f = graph.func(n);
        let root_name = graph.func(root).qual_name.clone();
        let message = match rule {
            "unbounded" => format!(
                "socket {} reachable from `{root_name}` without any frame setting `{}` on the path",
                kind.name(),
                kind.setter()
            ),
            _ => format!(
                "socket {} reachable from `{root_name}` on a path where a `Deadline` is available but never flows into `{}`",
                kind.name(),
                kind.setter()
            ),
        };
        out.push(Finding {
            pass: "deadline-flow",
            severity: Severity::Deny,
            file: pf.path.clone(),
            function: f.qual_name.clone(),
            line,
            detail: format!("{rule}-{}:{root_name}", kind.name()),
            message,
        });
    }
    out
}

fn allowed(pf: &crate::model::ParsedFile, line: u32) -> bool {
    pf.allow_for(line).map(|a| !a.reason.trim().is_empty()).unwrap_or(false)
}

/// Does the body use a `deadline` *value*? Struct-literal field inits and
/// struct-pattern type ascriptions (`deadline: ...`) don't count — a
/// constructor storing a field is not a budget available to this frame.
fn has_deadline_value(toks: &[crate::lexer::Token]) -> bool {
    toks.iter().enumerate().any(|(i, t)| {
        matches!(&t.tok, Tok::Ident(s) if s == "deadline")
            && !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
    })
}

/// Classify the call at `at` as a socket sink. Only method calls count
/// (`.read(buf)`, not a free `read(..)`), `read`/`write` need at least one
/// argument (zero-arg forms are the lock-acquisition grammar), and
/// `write_all`/`write_vectored`/`flush`/`peek`/`read_from` count
/// unconditionally.
fn sink_kind(toks: &[crate::lexer::Token], at: usize, name: &str) -> Option<Kind> {
    let method = at >= 1 && matches!(toks.get(at - 1).map(|t| &t.tok), Some(Tok::Punct('.')));
    if !method {
        return None;
    }
    let has_args = !matches!(toks.get(at + 2).map(|t| &t.tok), Some(Tok::Punct(')')));
    match name {
        "read" | "peek" if name == "peek" || has_args => Some(Kind::Read),
        // `BytesMut::read_from(&mut socket, ..)`: the frame reader's one
        // read, made on its behalf inside the buffer type.
        "read_from" => Some(Kind::Read),
        "write" if has_args => Some(Kind::Write),
        "write_all" | "write_vectored" | "flush" => Some(Kind::Write),
        _ => None,
    }
}

/// Rule 1 backward walk: roots reachable from `start` through frames where
/// `is_estab` is false. Walking stops (satisfied) at establishing frames;
/// a non-establishing frame with no callers is a bad root.
fn bad_roots(graph: &Graph<'_>, start: usize, is_estab: impl Fn(usize) -> bool) -> Vec<usize> {
    if is_estab(start) {
        return Vec::new();
    }
    let mut roots = BTreeSet::new();
    let mut seen = BTreeSet::from([start]);
    let mut queue = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        if graph.callers[v].is_empty() {
            roots.insert(v);
            continue;
        }
        for &c in &graph.callers[v] {
            if is_estab(c) || !seen.insert(c) {
                continue;
            }
            queue.push_back(c);
        }
    }
    roots.into_iter().collect()
}

/// Rule 2 backward walk: like [`bad_roots`], but a root only counts when a
/// deadline was available on some frame of the path that reached it, and
/// pruning happens at frames where the deadline actually flows into the
/// timeout.
fn unflowed_roots(
    graph: &Graph<'_>,
    start: usize,
    avail: &[bool],
    flows: impl Fn(usize) -> bool,
) -> Vec<usize> {
    if flows(start) {
        return Vec::new();
    }
    let mut roots = BTreeSet::new();
    let mut seen = BTreeSet::from([(start, avail[start])]);
    let mut queue = VecDeque::from([(start, avail[start])]);
    while let Some((v, seen_avail)) = queue.pop_front() {
        if graph.callers[v].is_empty() {
            if seen_avail {
                roots.insert(v);
            }
            continue;
        }
        for &c in &graph.callers[v] {
            if flows(c) {
                continue;
            }
            let state = (c, seen_avail || avail[c]);
            if seen.insert(state) {
                queue.push_back(state);
            }
        }
    }
    roots.into_iter().collect()
}
