//! End-to-end fixture tests: known violations in `tests/fixtures/` must
//! produce *exactly* the expected findings — positives and negatives in
//! one assertion, so a regression in any pass (missed finding or fresh
//! false positive) fails loudly.
//!
//! The fixtures are never compiled (cargo only builds top-level files in
//! `tests/`), and the workspace scan skips `crates/lint` entirely, so the
//! deliberate bugs cannot leak into real lint runs.

use scoop_lint::analyze;
use scoop_lint::findings::Severity;
use std::collections::BTreeSet;

/// Load a fixture under a synthetic workspace path (the linter's
/// crate-based rules key off the path).
fn fixture(name: &str, synthetic_path: &str) -> (String, String) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {path}: {e}"));
    (synthetic_path.to_string(), src)
}

#[test]
fn fixtures_produce_exactly_the_expected_findings() {
    let files = vec![
        fixture("deadlock.rs", "crates/objectstore/src/fixture_deadlock.rs"),
        fixture("panics.rs", "crates/storlets/src/fixture_panics.rs"),
        fixture("invariants.rs", "crates/common/src/fixture_invariants.rs"),
    ];
    let findings = analyze(&files);
    let got: BTreeSet<String> = findings.iter().map(|f| f.fingerprint()).collect();
    let want: BTreeSet<String> = [
        // deadlock.rs: the cycle (deny) and the sleep under guard, now
        // reported by the interprocedural blocking pass with its class
        // named (deny); `fast_append` (drop before sleep) and the
        // correctly-ordered `forward` alone produce nothing.
        "lock-order|crates/objectstore/src/fixture_deadlock.rs|Journal::backward|lock-cycle:Journal.entries,Registry.nodes",
        "transitive-blocking|crates/objectstore/src/fixture_deadlock.rs|Journal::slow_append|held-across:Journal.entries:sleep:sleep",
        // panics.rs: deny panic sites; `justified` is suppressed by its
        // lint:allow; the empty allow is itself a finding; `clean` and the
        // #[cfg(test)] module produce nothing.
        "panic-path|crates/storlets/src/fixture_panics.rs|unwraps|unwrap",
        "panic-path|crates/storlets/src/fixture_panics.rs|expects|expect",
        "panic-path|crates/storlets/src/fixture_panics.rs|panics|panic!",
        "panic-path|crates/storlets/src/fixture_panics.rs|empty_justification|allow-without-justification",
        "panic-path|crates/storlets/src/fixture_panics.rs|indexes|indexing",
        "panic-path|crates/storlets/src/fixture_panics.rs|adds|arithmetic",
        // invariants.rs: unclassified variants, the wildcard arm, the
        // smuggled header, the unbounded retry; `bounded_retry` produces
        // nothing.
        "invariants|crates/common/src/fixture_invariants.rs|ScoopError::class|error-variant-unclassified:Overloaded",
        "invariants|crates/common/src/fixture_invariants.rs|ScoopError::class|error-variant-unclassified:Corrupt",
        "invariants|crates/common/src/fixture_invariants.rs|ScoopError::class|error-classification-wildcard",
        "invariants|crates/common/src/fixture_invariants.rs|smuggled_header|header-literal:x-smuggled-header",
        "invariants|crates/common/src/fixture_invariants.rs|unbounded_retry|retry-loop-without-deadline",
        // ... the socket dialed and read with no read timeout;
        // `timed_socket_read` (same dial, timeout configured) is clean.
        "invariants|crates/common/src/fixture_invariants.rs|raw_socket_read|tcp-read-without-timeout",
        // ... and the hand-spelled trace header, caught even inside the
        // fixture's #[cfg(test)] module (rule 2 skips it, rule 4 must not).
        "invariants|crates/common/src/fixture_invariants.rs|tests::stamps_trace_by_hand|trace-header-literal",
        // ... and the hand-spelled span layer; `const_layer_span` (layer via
        // the constant) and `csv_field_span` (unrelated `span` method with
        // no string second argument) are clean.
        "invariants|crates/common/src/fixture_invariants.rs|literal_layer_span|span-layer-literal:proxy",
    ]
    .into_iter()
    .map(str::to_string)
    .collect();

    let missing: Vec<_> = want.difference(&got).collect();
    let unexpected: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "missing findings: {missing:#?}\nunexpected findings: {unexpected:#?}"
    );

    // Severity split: the two per-function panic heuristics are warn
    // (baselined); the sleep under guard denies (a guard-holding sleep
    // serialises every contender); everything else denies too.
    let deny = findings.iter().filter(|f| f.severity == Severity::Deny).count();
    let warn = findings.iter().filter(|f| f.severity == Severity::Warn).count();
    assert_eq!((deny, warn), (14, 2), "severity split changed");
}

/// Fingerprints emitted by one pass over one fixture (the fixture files
/// deliberately trip other passes too — e.g. the net-plane deadline
/// fixture also violates the per-function invariants rules — so each
/// pass's suite asserts exactly its own findings).
fn pass_fingerprints(files: &[(String, String)], pass: &str) -> BTreeSet<String> {
    analyze(files).into_iter().filter(|f| f.pass == pass).map(|f| f.fingerprint()).collect()
}

fn assert_exact(got: &BTreeSet<String>, want: &[&str]) {
    let want: BTreeSet<String> = want.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = want.difference(got).collect();
    let unexpected: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "missing findings: {missing:#?}\nunexpected findings: {unexpected:#?}"
    );
}

#[test]
fn deadline_flow_fixture_produces_exactly_the_expected_findings() {
    // Loaded under a synthetic net-plane path so the pass scopes to it.
    let files = vec![fixture("deadline_flow.rs", "crates/objectstore/src/net/wire.rs")];
    let got = pass_fingerprints(&files, "deadline-flow");
    assert_exact(
        &got,
        &[
            // No timeout on any path to the read: rule 1 at the root.
            "deadline-flow|crates/objectstore/src/net/wire.rs|naked_poll|unbounded-read:naked_poll",
            // A static default satisfies rule 1, but the in-scope deadline
            // never flows: rule 2.
            "deadline-flow|crates/objectstore/src/net/wire.rs|fetch_with_default|deadline-unflowed-read:fetch_with_default",
            // Unestablished write sink.
            "deadline-flow|crates/objectstore/src/net/wire.rs|push_frame|unbounded-write:push_frame",
            // Literal TcpStream::connect.
            "deadline-flow|crates/objectstore/src/net/wire.rs|plain_dial|unbounded-connect",
            // Negatives riding along: `fetch` (deadline established two
            // frames above the sink via `tighten_for` -> `recv_into`),
            // the `Conn::read` trait adapter, `spill` (a helper only the
            // `Conn::write` adapter calls), the generic `encode_frame` root, `careful_dial` (connect_timeout) and the allowed
            // `probed_poll` all stay silent.
        ],
    );
    for f in analyze(&files) {
        if f.pass == "deadline-flow" {
            assert_eq!(f.severity, Severity::Deny, "{} must deny", f.fingerprint());
        }
    }
}

#[test]
fn trace_propagation_fixture_produces_exactly_the_expected_findings() {
    let files = vec![fixture("trace_prop.rs", "crates/objectstore/src/client_paths.rs")];
    let got = pass_fingerprints(&files, "trace-propagation");
    assert_exact(
        &got,
        &[
            // Egress that neither attaches nor forwards.
            "trace-propagation|crates/objectstore/src/client_paths.rs|untraced_send|no-trace-attach:send",
            // Forwarding function with no resolved callers: unprovable.
            "trace-propagation|crates/objectstore/src/client_paths.rs|orphan_forward|no-trace-attach:send",
            // The response path that skips the trailer decode.
            "trace-propagation|crates/objectstore/src/client_paths.rs|finish_leaky|completion-without-span-merge",
            // Response head without the span trailer.
            "trace-propagation|crates/objectstore/src/client_paths.rs|reply_headless|head-without-span-trailer",
            // Negatives: `traced_send` (attaches directly), `forward_send`
            // (obligation discharged by its attaching caller), the exempt
            // `Pool::checkin` primitive, the balanced `finish_clean`,
            // `reply_clean`, the allowed `metrics_push`, and `channel_push`
            // (a `send` whose receiver is not the pool is not egress).
        ],
    );
}

#[test]
fn transitive_blocking_fixture_produces_exactly_the_expected_findings() {
    let files = vec![fixture("blocking.rs", "crates/objectstore/src/cache_sync.rs")];
    let findings: Vec<_> =
        analyze(&files).into_iter().filter(|f| f.pass == "transitive-blocking").collect();
    let got: BTreeSet<String> = findings.iter().map(|f| f.fingerprint()).collect();
    assert_exact(
        &got,
        &[
            // Sleep two frames below the guard: deny.
            "transitive-blocking|crates/objectstore/src/cache_sync.rs|Cache::rebuild|held-across:Cache.map:backoff_pause:sleep",
            // Channel receive one frame below the guard: warn.
            "transitive-blocking|crates/objectstore/src/cache_sync.rs|Cache::drain|held-across:Cache.map:wait_for_signal:channel-recv",
            // Direct receive under the guard: warn at the site.
            "transitive-blocking|crates/objectstore/src/cache_sync.rs|Cache::drain_inline|held-across:Cache.map:recv:channel-recv",
            // Negatives: `rebuild_outside` (guard dropped first), `tally`
            // (non-blocking resolved callee), and the allowed `warmed`.
        ],
    );
    for f in &findings {
        let want = if f.detail.ends_with(":sleep") { Severity::Deny } else { Severity::Warn };
        assert_eq!(f.severity, want, "severity of {}", f.fingerprint());
    }
}

// ---- whole-workspace properties -----------------------------------------

fn workspace_files() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    scoop_lint::collect_workspace(&root).expect("collecting workspace sources")
}

#[test]
fn workspace_has_no_deny_findings() {
    // The real workspace must be deny-free: denies cannot be baselined, so
    // any deny here is a red CI gate.
    let denies: Vec<_> = analyze(&workspace_files())
        .into_iter()
        .filter(|f| f.severity == Severity::Deny)
        .map(|f| f.fingerprint())
        .collect();
    assert!(denies.is_empty(), "deny findings in the workspace: {denies:#?}");
}

#[test]
fn seeded_read_timeout_regression_turns_the_gate_red() {
    // Remove the read-timeout establishment one call frame below the
    // senders (Conn::tighten): the pool still gets a *default* timeout from
    // `dial`, so rule 1 stays green, but the request deadline no longer
    // flows into the socket — rule 2 must catch it.
    let mut files = workspace_files();
    let pool = files
        .iter_mut()
        .find(|(p, _)| p.ends_with("objectstore/src/net/pool.rs"))
        .expect("pool.rs in workspace");
    let seeded = pool.1.replacen("self.write.set_read_timeout", "self.write.skip_read_timeout", 1);
    assert_ne!(seeded, pool.1, "seed site not found");
    pool.1 = seeded;
    let hits: Vec<_> = analyze(&files)
        .into_iter()
        .filter(|f| {
            f.pass == "deadline-flow"
                && f.severity == Severity::Deny
                && f.detail.starts_with("deadline-unflowed-read")
        })
        .map(|f| f.fingerprint())
        .collect();
    assert!(!hits.is_empty(), "seeded timeout removal produced no deadline-flow deny");
}

#[test]
fn seeded_trailer_skip_regression_turns_the_gate_red() {
    // Drop the merge_server_spans call from HttpPool::exchange: its eager
    // completion path now finishes without decoding the span trailer.
    let mut files = workspace_files();
    let pool = files
        .iter_mut()
        .find(|(p, _)| p.ends_with("objectstore/src/net/pool.rs"))
        .expect("pool.rs in workspace");
    let seeded = pool.1.replacen(
        "merge_server_spans(&mut conn, trace.as_deref(), window_start_us);",
        "();",
        1,
    );
    assert_ne!(seeded, pool.1, "seed site not found");
    pool.1 = seeded;
    let hit = analyze(&files).into_iter().any(|f| {
        f.pass == "trace-propagation"
            && f.severity == Severity::Deny
            && f.detail == "completion-without-span-merge"
            && f.function.contains("exchange")
    });
    assert!(hit, "seeded trailer skip produced no trace-propagation deny");
}

#[test]
fn call_graph_builds_deterministically_over_the_whole_workspace() {
    // Robustness: the builder must survive every real workspace file (no
    // panics) and produce a stable node count across rebuilds.
    let files = workspace_files();
    let parsed: Vec<_> =
        files.iter().map(|(p, s)| scoop_lint::model::parse_file(p, s)).collect();
    let a = scoop_lint::analysis::Graph::build(&parsed);
    let b = scoop_lint::analysis::Graph::build(&parsed);
    assert_eq!(a.nodes.len(), b.nodes.len(), "node count not stable across builds");
    assert!(
        a.nodes.len() >= 150,
        "suspiciously small workspace call graph: {} nodes",
        a.nodes.len()
    );
    let resolved_a: usize =
        a.calls.iter().map(|cs| cs.iter().filter(|c| c.target.is_some()).count()).sum();
    let resolved_b: usize =
        b.calls.iter().map(|cs| cs.iter().filter(|c| c.target.is_some()).count()).sum();
    assert_eq!(resolved_a, resolved_b, "resolution not stable across builds");
    assert!(resolved_a > 0, "no call resolved anywhere in the workspace");
}

#[test]
fn clean_fixture_set_is_finding_free() {
    // The justified allow and test-only code paths, alone: no findings at
    // all (guards the suppression logic against over-reporting when the
    // noisy fixtures are absent).
    let src = r#"
        pub fn careful(v: Option<u32>) -> u32 {
            // lint:allow(verified non-empty by the caller's constructor)
            v.unwrap()
        }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() {
                assert_eq!(super::careful(Some(2)), 2);
            }
        }
    "#;
    let files = vec![("crates/objectstore/src/fixture_clean.rs".to_string(), src.to_string())];
    let findings: Vec<_> = analyze(&files)
        .into_iter()
        // The single-file set has no ScoopError definition; ignore the
        // classification-missing finding that correctly reports that.
        .filter(|f| f.detail != "error-classification-missing")
        .collect();
    assert!(findings.is_empty(), "unexpected findings: {findings:#?}");
}
