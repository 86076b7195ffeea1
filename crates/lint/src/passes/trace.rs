//! Trace-propagation completeness over the objectstore crate.
//!
//! PR 7 made traces wire-spanning: requests carry `x-scoop-trace`
//! (`headers::TRACE`) out, responses carry `x-scoop-server-spans` back as
//! a chunked trailer, and the pool merges the trailer at every
//! response-completion path. Greps can check call sites exist; they cannot
//! check that *every path* constructs its request with the trace attached
//! or finishes its response with the trailer decoded. This pass checks the
//! three obligations as call-graph properties. All findings deny.
//!
//! 1. **`no-trace-attach`** — every transport-egress site (the pool's one
//!    way onto the wire, `pool.send(..)`) outside the net plane must be in
//!    a function that *attaches* the trace header (a `.set(..)` call with
//!    `headers::TRACE` in its arguments, directly or via a resolved
//!    callee), or that visibly *forwards* a caller's request (signature
//!    mentions `Request` or `Headers`) — in which case every resolved
//!    caller must satisfy the same obligation recursively. A forwarding
//!    function with no resolved callers cannot be proven and denies.
//! 2. **`completion-without-span-merge`** — response-completion sites
//!    (`checkin` / `evict` calls) must be balanced by server-span decodes
//!    (`merge_server_spans` / `take_server_spans` calls) in the same
//!    function: each completion path must have decoded the trailer before
//!    giving the connection back. Counting (not ordering) is used because
//!    token order across branches is not path-sensitive; the functions
//!    named `checkin` / `evict` themselves are the primitives and exempt.
//! 3. **`head-without-span-trailer`** — a function encoding a response
//!    head (`encode_response_head`) must also emit the span trailer
//!    (`server_span_trailer`): clean and error terminations alike carry
//!    spans back.

use crate::analysis::Graph;
use crate::findings::{Finding, Severity};
use crate::lexer::Tok;
use std::collections::BTreeMap;

/// Crate in scope: the TCP transport and its client live here.
const SCOPE_PREFIX: &str = "crates/objectstore/src/";

pub fn run(graph: &Graph<'_>) -> Vec<Finding> {
    let n_nodes = graph.nodes.len();
    let in_scope: Vec<bool> =
        (0..n_nodes).map(|n| graph.file(n).path.starts_with(SCOPE_PREFIX)).collect();

    // Attach facts, propagated bottom-up (a callee that attaches makes
    // its callers attach too).
    let mut attach_seed: Vec<std::collections::BTreeSet<&str>> =
        vec![std::collections::BTreeSet::new(); n_nodes];
    for (n, s) in attach_seed.iter_mut().enumerate() {
        if sets_trace(graph.body_toks(n)) {
            s.insert("attach");
        }
    }
    let attach_sets = graph.propagate_up(attach_seed);
    let attaches: Vec<bool> = attach_sets.iter().map(|s| !s.is_empty()).collect();
    let forwards: Vec<bool> = (0..n_nodes)
        .map(|n| {
            graph.sig_toks(n).iter().any(|t| {
                matches!(&t.tok, Tok::Ident(s) if s == "Request" || s == "Headers")
            })
        })
        .collect();

    let mut out = Vec::new();
    let mut memo: BTreeMap<usize, bool> = BTreeMap::new();

    for (n, &scoped) in in_scope.iter().enumerate() {
        if !scoped {
            continue;
        }
        let pf = graph.file(n);
        let f = graph.func(n);
        let toks = graph.body_toks(n);

        // Rule 1: egress sites outside the net plane.
        if !pf.path.contains("/net/") {
            for c in &graph.calls[n] {
                // `send` only as the pool transport's literal
                // `pool.send(..)` — channel sends share the name.
                let tok_before = |back: usize| toks.get(c.at - back).map(|t| &t.tok);
                let egress = c.name == "send"
                    && c.at >= 2
                    && matches!(tok_before(1), Some(Tok::Punct('.')))
                    && matches!(tok_before(2), Some(Tok::Ident(r)) if r == "pool");
                if !egress || allowed(pf, c.line) {
                    continue;
                }
                if !satisfied(graph, n, &attaches, &forwards, &mut memo, &mut Vec::new()) {
                    out.push(Finding {
                        pass: "trace-propagation",
                        severity: Severity::Deny,
                        file: pf.path.clone(),
                        function: f.qual_name.clone(),
                        line: c.line,
                        detail: format!("no-trace-attach:{}", c.name),
                        message: format!(
                            "request egress `{}()` on a path that never attaches `headers::TRACE`",
                            c.name
                        ),
                    });
                }
            }
        }

        // Rule 2: completions balanced by span decodes.
        if f.name != "checkin" && f.name != "evict" {
            let merges = graph.calls[n]
                .iter()
                .filter(|c| c.name == "merge_server_spans" || c.name == "take_server_spans")
                .count();
            let completions: Vec<&crate::analysis::Call> = graph.calls[n]
                .iter()
                .filter(|c| c.name == "checkin" || c.name == "evict")
                .collect();
            if completions.len() > merges {
                let first = completions[0];
                if !allowed(pf, first.line) {
                    out.push(Finding {
                        pass: "trace-propagation",
                        severity: Severity::Deny,
                        file: pf.path.clone(),
                        function: f.qual_name.clone(),
                        line: first.line,
                        detail: "completion-without-span-merge".into(),
                        message: format!(
                            "{} completion path(s) but {merges} server-span decode(s): a response finishes without decoding `x-scoop-server-spans`",
                            completions.len()
                        ),
                    });
                }
            }
        }

        // Rule 3: response heads must be followed by span trailers.
        if graph.calls_name(n, "encode_response_head") && !graph.calls_name(n, "server_span_trailer")
        {
            let line = graph.calls[n]
                .iter()
                .find(|c| c.name == "encode_response_head")
                .map(|c| c.line)
                .unwrap_or(0);
            if !allowed(pf, line) {
                out.push(Finding {
                    pass: "trace-propagation",
                    severity: Severity::Deny,
                    file: pf.path.clone(),
                    function: f.qual_name.clone(),
                    line,
                    detail: "head-without-span-trailer".into(),
                    message: "response head encoded but `server_span_trailer()` never emitted on this path".into(),
                });
            }
        }
    }
    out
}

fn allowed(pf: &crate::model::ParsedFile, line: u32) -> bool {
    pf.allow_for(line).map(|a| !a.reason.trim().is_empty()).unwrap_or(false)
}

/// Does the body contain `.set(.. TRACE ..)` (with `TRACE` anywhere in the
/// balanced argument list)?
fn sets_trace(toks: &[crate::lexer::Token]) -> bool {
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(s) if s == "set") {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) if s == "TRACE" => return true,
                _ => {}
            }
            j += 1;
        }
    }
    false
}

/// Rule-1 obligation: the function attaches the trace, or forwards a
/// request and every resolved caller (recursively) satisfies the same.
/// Cycles resolve to "unproven" (deny) — conservative, and absent in
/// practice.
fn satisfied(
    graph: &Graph<'_>,
    n: usize,
    attaches: &[bool],
    forwards: &[bool],
    memo: &mut BTreeMap<usize, bool>,
    stack: &mut Vec<usize>,
) -> bool {
    if let Some(&v) = memo.get(&n) {
        return v;
    }
    if stack.contains(&n) {
        return false;
    }
    let v = if attaches[n] {
        true
    } else if !forwards[n] || graph.callers[n].is_empty() {
        false
    } else {
        stack.push(n);
        let ok = graph.callers[n]
            .clone()
            .iter()
            .all(|&c| satisfied(graph, c, attaches, forwards, memo, stack));
        stack.pop();
        ok
    };
    memo.insert(n, v);
    v
}
