//! Full-stack integration tests: generator → object store → storlets →
//! connector → compute → SQL, across execution modes and configurations.

use scoop_compute::{ExecutionMode, TableFormat};
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_integration::deploy;
use scoop_workload::table1_queries;

#[test]
fn all_table1_queries_agree_across_modes() {
    let (ctx, _) = deploy(60, 3, 3_000, 64 * 1024);
    ctx.convert_to_columnar("largemeter", "colmeter", 1_000)
        .unwrap();
    for q in table1_queries() {
        let vanilla = ctx
            .query("largemeter", &q.sql, ExecutionMode::Vanilla)
            .unwrap_or_else(|e| panic!("{} vanilla: {e}", q.name));
        let pushed = ctx
            .query("largemeter", &q.sql, ExecutionMode::Pushdown)
            .unwrap_or_else(|e| panic!("{} pushdown: {e}", q.name));
        assert_eq!(vanilla.result, pushed.result, "{} mode mismatch", q.name);
        assert!(
            pushed.metrics.bytes_transferred < vanilla.metrics.bytes_transferred,
            "{}: pushdown moved {} >= vanilla {}",
            q.name,
            pushed.metrics.bytes_transferred,
            vanilla.metrics.bytes_transferred
        );
        // Columnar arm (same data, converted).
        let session = ctx.session_with_schema("colmeter", ExecutionMode::Columnar, None);
        session.register_table("largemeter", "colmeter", None, TableFormat::Columnar, None);
        let columnar = session
            .sql(&q.sql)
            .unwrap_or_else(|e| panic!("{} columnar: {e}", q.name));
        assert!(
            vanilla.result.approx_eq(&columnar.result, 1e-9),
            "{} columnar mismatch",
            q.name
        );
    }
}

#[test]
fn results_invariant_to_chunk_size_and_workers() {
    let reference = {
        let (ctx, _) = deploy(40, 2, 2_000, 1 << 20);
        ctx.query(
            "largemeter",
            "SELECT vid, sum(index) as t, count(*) as n FROM largemeter GROUP BY vid ORDER BY vid",
            ExecutionMode::Pushdown,
        )
        .unwrap()
        .result
    };
    for chunk in [8 * 1024u64, 48 * 1024, 300 * 1024] {
        let (ctx, _) = deploy(40, 2, 2_000, chunk);
        let out = ctx
            .query(
                "largemeter",
                "SELECT vid, sum(index) as t, count(*) as n FROM largemeter GROUP BY vid ORDER BY vid",
                ExecutionMode::Pushdown,
            )
            .unwrap();
        assert!(
            reference.approx_eq(&out.result, 1e-9),
            "chunk={chunk} diverged"
        );
        assert!(out.metrics.tasks >= 2, "chunk={chunk} undersplit");
    }
}

#[test]
fn authenticated_cluster_end_to_end() {
    use scoop_objectstore::SwiftConfig;
    let ctx = ScoopContext::new(ScoopConfig {
        swift: SwiftConfig { auth_enabled: true, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    // Anonymous access is rejected; queries fail with unauthorized.
    ctx.client().create_container("meters").unwrap();
    let err = ctx
        .client()
        .put_object("meters", "x.csv", bytes::Bytes::from_static(b"a,b\n1,2\n"))
        .unwrap_err();
    assert_eq!(err.kind(), "unauthorized");
    // A registered user gets a token and full service.
    ctx.cluster()
        .auth()
        .register_user("AUTH_gridpocket", "analyst", "pw");
    let client = ctx
        .cluster()
        .client("AUTH_gridpocket", "analyst", "pw")
        .unwrap();
    client
        .put_object("meters", "x.csv", bytes::Bytes::from_static(b"a,b\n1,2\n3,4\n"))
        .unwrap();
    assert_eq!(client.list("meters", None).unwrap().len(), 1);
}

#[test]
fn concurrent_queries_share_the_store() {
    let (ctx, _) = deploy(50, 4, 2_000, 32 * 1024);
    let queries: Vec<String> = table1_queries().iter().map(|q| q.sql.clone()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|sql| {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let v = ctx.query("largemeter", sql, ExecutionMode::Vanilla).unwrap();
                    let p = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
                    assert_eq!(v.result, p.result);
                    p.result.len()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() < usize::MAX);
        }
    });
}

#[test]
fn non_aggregate_pipeline_with_order_limit() {
    let (ctx, _) = deploy(30, 2, 1_500, 32 * 1024);
    let sql = "SELECT vid, date, index FROM largemeter \
               WHERE index > 100 AND city LIKE 'Paris' \
               ORDER BY index DESC, vid LIMIT 7";
    let v = ctx.query("largemeter", sql, ExecutionMode::Vanilla).unwrap();
    let p = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    assert_eq!(v.result, p.result);
    assert!(p.result.len() <= 7);
    // Descending order by index.
    let vals: Vec<f64> = p.result.rows.iter().map(|r| r[2].as_f64().unwrap()).collect();
    assert!(vals.windows(2).all(|w| w[0] >= w[1]), "{vals:?}");
}

#[test]
fn select_star_disables_pushdown_projection_but_still_matches() {
    let (ctx, bytes) = deploy(30, 2, 1_500, 64 * 1024);
    let sql = "SELECT * FROM largemeter WHERE state LIKE 'FRA' ORDER BY vid, date LIMIT 20";
    let v = ctx.query("largemeter", sql, ExecutionMode::Vanilla).unwrap();
    let p = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    assert_eq!(v.result, p.result);
    assert_eq!(v.result.columns.len(), 10);
    // Selection still pushed: transfer below the raw dataset.
    assert!(p.metrics.bytes_transferred < bytes / 2);
}

#[test]
fn empty_results_and_empty_containers() {
    let (ctx, _) = deploy(10, 1, 200, 64 * 1024);
    let sql = "SELECT vid FROM largemeter WHERE city LIKE 'Atlantis'";
    let v = ctx.query("largemeter", sql, ExecutionMode::Vanilla).unwrap();
    let p = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    assert!(v.result.is_empty() && p.result.is_empty());
    // Aggregate over empty selection: one NULL-ish global row.
    let sql = "SELECT count(*) as n FROM largemeter WHERE city LIKE 'Atlantis'";
    let p = ctx.query("largemeter", sql, ExecutionMode::Pushdown).unwrap();
    // No groups → no rows (GROUP BY-less semantics over distributed
    // partials with zero matching rows).
    assert!(p.result.len() <= 1);
}

/// The context's client may hold the last cluster handle. It has to close its
/// keep-alive sockets before the cluster joins the TCP front end, or every
/// server worker sits out its idle timeout — five seconds a teardown.
#[test]
fn dropping_a_tcp_context_that_served_a_get_is_prompt() {
    let ctx = ScoopContext::new(ScoopConfig { transport_tcp: true, ..Default::default() })
        .expect("deploy over tcp");
    let data = bytes::Bytes::from_static(b"vid,index\nm1,1.0\n");
    ctx.upload_csv("meters", vec![("part-0.csv".into(), data.clone())], None).expect("upload");
    let body = ctx
        .client()
        .get_object("meters", "part-0.csv")
        .and_then(|resp| resp.read_body())
        .expect("GET over tcp");
    assert_eq!(body, data);
    let pool = ctx.client().transport_pool().expect("tcp client has a pool").snapshot();
    assert!(pool.idle > 0, "the GET must leave a keep-alive connection behind: {pool:?}");

    let started = std::time::Instant::now();
    drop(ctx);
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "teardown took {took:?}");
}
