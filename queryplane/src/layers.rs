//! The traced pass end to end: set up, take the untraced baseline, run traced
//! rounds, and turn their spans and counts into the per-layer metrics.

use crate::dataset::{deploy, Deployment, Scale};
use crate::measure::{run_rounds, warm_up, Driver, Length};
use crate::probe::{peel_ingest, QueryProbe, RoundCounts};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::Workload;
use crate::{output_dir, RunResult};
use scoop_common::telemetry;
use scoop_common::Result;
use scoop_core::ExecutionMode;
use std::time::Instant;

/// Untraced rounds run first in the same process: the baseline that
/// `trace.overhead_pct` compares the traced rounds against.
const BASELINE_ROUNDS: usize = 10;
/// Traced rounds a run makes at least, however short its seconds.
const MIN_TRACED_ROUNDS: usize = 3;
/// Whole-object GETs timed for `objectstore.get_mb_s`.
const GET_SAMPLES: usize = 15;

/// Plain whole-object GETs over TCP from one client: the wire's own rate,
/// comparable with `netplane`'s `tcp_get_1_clients`.
fn get_mb_s(dep: &Deployment, container: &str, object: &str) -> Result<f64> {
    let mut rates = Vec::new();
    for _ in 0..GET_SAMPLES {
        let started = Instant::now();
        let body = dep
            .ctx
            .client()
            .get_object(container, object)?
            .read_body()?;
        rates.push(body.len() as f64 / 1e6 / started.elapsed().as_secs_f64());
    }
    Ok(median(&rates))
}

/// `num / den`, or 0 where the denominator is: a layer that did no work has
/// no rate. Bytes over microseconds is decimal MB/s.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one workload.
pub fn per_layer(
    workload: &Workload,
    scale: Scale,
    seed: u64,
    length: Length,
) -> Result<RunResult> {
    let dep = deploy(scale, seed, workload.needs())?;
    let driver = Driver::new(&dep, workload)?;
    let probe = match driver.queries() {
        Some((sql, references)) => Some(QueryProbe::new(&dep, workload, sql, references)?),
        None => None,
    };

    // Untraced baseline, same process, same deployment.
    let warm = warm_up(&driver, length);
    let baseline_rounds = match length {
        Length::Rounds(n) => n,
        Length::Seconds(_) => BASELINE_ROUNDS,
    };
    let baseline = run_rounds(
        &driver,
        Length::Rounds(baseline_rounds),
        0,
        warm.len() as u64,
    );
    let baseline_us = median(
        &baseline
            .iter()
            .map(|r| r.wall.as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );

    // Traced rounds.
    let mut tracer = Tracer::new(workload.name);
    let mut rounds: Vec<RoundCounts> = Vec::new();
    let started = Instant::now();
    loop {
        let done = match length {
            Length::Rounds(n) => rounds.len() >= n,
            Length::Seconds(s) => {
                started.elapsed().as_secs_f64() >= s && rounds.len() >= MIN_TRACED_ROUNDS
            }
        };
        if done {
            break;
        }
        let round = rounds.len() as u32;
        let mut counts = RoundCounts::default();
        match &probe {
            Some(probe) => {
                for qi in 0..probe.queries.len() {
                    tracer.at(round, qi as u32);
                    probe.peel(&mut tracer, qi, &mut counts)?;
                }
                counts.stats_meta_bytes = probe.stats_meta_bytes();
            }
            None => {
                tracer.at(round, 0);
                peel_ingest(&dep, &mut tracer, u64::from(round), &mut counts)?;
            }
        }
        rounds.push(counts);
    }
    let wire_mb_s = match &probe {
        // Always a CSV object, so the rate compares across workloads.
        Some(p) if p.mode == ExecutionMode::Columnar => {
            get_mb_s(&dep, crate::dataset::PLAIN, &dep.objects[0].0)?
        }
        Some(p) => get_mb_s(&dep, p.container, &dep.objects[0].0)?,
        None => get_mb_s(
            &dep,
            crate::dataset::PUT_PLAIN,
            &crate::harness::ingest_name(0),
        )?,
    };

    write_trace(&tracer, workload.name);

    // Medians over the traced rounds.
    let dur = |name: &str| median_or_zero(tracer.per_round(name).iter().map(|s| s.wall_us as f64));
    let own = |name: &str| median_or_zero(tracer.per_round(name).iter().map(|s| s.self_us as f64));
    let count =
        |f: &dyn Fn(&RoundCounts) -> u64| median_or_zero(rounds.iter().map(|r| f(r) as f64));
    let layer_us =
        |layer: &'static str| count(&|r| r.program_layer_us.get(layer).copied().unwrap_or(0));

    let ingest = probe.is_none();
    let columnar = probe
        .as_ref()
        .is_some_and(|p| p.mode == ExecutionMode::Columnar);
    let parse_name = if columnar {
        "columnar.decode"
    } else {
        "csvengine.parse"
    };
    let sql_1w = dur("compute.sql_1w");
    let sql_2w = dur("compute.sql");
    let residual_pct = median_or_zero(
        tracer
            .per_round("compute.sql_1w")
            .iter()
            .map(|s| 100.0 * s.self_us as f64 / s.wall_us.max(1) as f64),
    );
    // The same residual with the peeled reads and parse replaced by the
    // program's own fused scan. The store's server thread runs beside the
    // compute thread, so reads peeled out one after another count time the
    // query spends only once; the fused scan does not.
    let exec_only = dur("sqlengine.exec") - dur(parse_name);
    let chain = dur("sqlengine.plan") + dur("compute.discover") + dur("compute.scan") + exec_only;
    let residual_scan_pct = 100.0 * ratio(sql_1w - chain, sql_1w);
    // The round a user sees, inside the traced pass: the two-worker query
    // spans, or the three requests of an ingest round.
    let traced_round_us = if ingest {
        dur("objectstore.client") + dur("objectstore.head")
    } else {
        sql_2w
    };
    let scanned = count(&|r| r.probe_scanned);
    let logical_per_round = match &probe {
        Some(p) => (p.queries.len() as u64 * dep.dataset_bytes) as f64,
        None => (crate::harness::INGEST_OPS * dep.dataset_bytes) as f64,
    };
    let pruned = count(&|r| r.counters.blocks_pruned);
    let kept = count(&|r| r.counters.blocks_scanned);
    let stats_meta = count(&|r| r.stats_meta_bytes);
    let (csv_stored, col_stored) = dep.columnar_bytes.unwrap_or((0, 0));

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mismatches: u64 = rounds.iter().map(|r| r.mismatches).sum();
    if mismatches > 0 {
        eprintln!(
            "{}: {mismatches} peeled steps did not reproduce the query they were peeled from",
            workload.name
        );
    }
    // README, "Measurement caveats": this header counts blocks outside a
    // task's byte window as skipped, so it is shown, not used.
    let header_skipped = count(&|r| r.counters.bytes_skipped);
    if header_skipped > 0.0 {
        eprintln!(
            "{}: x-scoop-skipped-bytes summed to {:.1} MB a round; the queries cover {:.1} MB",
            workload.name,
            header_skipped / 1e6,
            logical_per_round / 1e6
        );
    }
    let mut result = RunResult {
        correct: failed == 0
            && mismatches == 0
            && warm.iter().chain(&baseline).all(|r| r.failed == 0),
        attempted: attempted.max(1),
        failed,
        metrics: Vec::new(),
    };
    let mut put = |name: &'static str, value: f64| result.push(name, value);

    put("sqlengine.plan_us", dur("sqlengine.plan"));
    put("sqlengine.exec_us", own("sqlengine.exec"));
    put("sqlengine.pushed_conjuncts", count(&|r| r.pushed_conjuncts));
    put(
        "sqlengine.residual_conjuncts",
        count(&|r| r.residual_conjuncts),
    );
    put("compute.sql_us", sql_2w);
    put("compute.sql_us_1w", sql_1w);
    put("compute.parallel_speedup", ratio(sql_1w, sql_2w));
    put("compute.tasks", count(&|r| r.tasks));
    put("compute.task_us_max", count(&|r| r.task_us_max));
    put("compute.task_retries", count(&|r| r.task_retries));
    put("compute.rows_to_compute", count(&|r| r.rows_to_compute));
    put("compute.rows_after_filter", count(&|r| r.rows_after_filter));
    put("compute.discover_us", dur("compute.discover"));
    put("compute.scan_us", dur("compute.scan"));
    put(
        "compute.self_us",
        own("compute.sql_1w") + dur("compute.discover"),
    );
    put("connector.read_us", dur("connector.read"));
    put("connector.self_us", own("connector.read"));
    put(
        "connector.bytes_transferred",
        count(&|r| r.bytes_transferred),
    );
    put(
        "connector.pushdown_fallbacks",
        count(&|r| r.counters.pushdown_fallbacks),
    );
    put(
        "connector.stream_resumes",
        count(&|r| r.counters.stream_resumes),
    );
    put(
        "connector.retries",
        count(&|r| r.counters.client_retries + r.counters.stream_resumes),
    );
    put("objectstore.client_us", dur("objectstore.client"));
    put("objectstore.handle_us", dur("objectstore.handle"));
    put("objectstore.net_us", own("objectstore.client"));
    put("objectstore.store_us", own("objectstore.handle"));
    put("objectstore.get_mb_s", wire_mb_s);
    put(
        "objectstore.put_us",
        if ingest {
            dur("objectstore.client")
        } else {
            0.0
        },
    );
    put("objectstore.pool_dials", count(&|r| r.counters.pool_dials));
    put(
        "objectstore.pool_reuses",
        count(&|r| r.counters.pool_reuses),
    );
    put(
        "objectstore.proxy_requests",
        count(&|r| r.counters.proxy_requests),
    );
    put(
        "objectstore.objserver_bytes_out",
        count(&|r| r.counters.objserver_bytes_out),
    );
    put(
        "objectstore.hedged_gets",
        count(&|r| r.counters.hedged_gets),
    );
    put(
        "objectstore.replica_failovers",
        count(&|r| r.counters.replica_failovers),
    );
    put("storlets.invoke_us", dur("storlets.invoke"));
    put("storlets.self_us", own("storlets.invoke"));
    put(
        "storlets.filter_mb_s",
        ratio(scanned, dur("storlets.invoke")),
    );
    // An ingest round decodes the stats it just published; that is no plan.
    put(
        "storlets.plan_us",
        if ingest {
            0.0
        } else {
            dur("common.zonestats_decode") + dur("storlets.plan_ranges")
        },
    );
    put(
        "storlets.invocations",
        count(&|r| r.counters.storlet_invocations),
    );
    put("storlets.bytes_in", count(&|r| r.counters.storlet_bytes_in));
    put(
        "storlets.bytes_out",
        count(&|r| r.counters.storlet_bytes_out),
    );
    put(
        "storlets.scanned_share",
        count(&|r| r.counters.storlet_bytes_in) / logical_per_round,
    );
    put("storlets.skip_plans", count(&|r| r.counters.skip_plans));
    put(
        "storlets.plan_fallbacks",
        count(&|r| r.counters.plan_fallbacks),
    );
    put("storlets.blocks_pruned", pruned);
    put("storlets.blocks_scanned", kept);
    put("storlets.prune_ratio", ratio(pruned, pruned + kept));
    put(
        "storlets.admission_sheds",
        count(&|r| r.counters.admission_sheds),
    );
    put("storlets.zoneindex_us", dur("storlets.zoneindex"));
    put(
        "storlets.zoneindex_mb_s",
        ratio(scanned, dur("storlets.zoneindex")),
    );
    put("csvengine.filter_us", dur("csvengine.filter"));
    put(
        "csvengine.filter_mb_s",
        ratio(scanned, dur("csvengine.filter")),
    );
    put("csvengine.parse_us", dur("csvengine.parse"));
    put(
        "csvengine.parse_mb_s",
        ratio(count(&|r| r.probe_parsed), dur("csvengine.parse")),
    );
    put("csvengine.records_in", count(&|r| r.counters.records_in));
    put("csvengine.records_out", count(&|r| r.counters.records_out));
    put("columnar.decode_us", dur("columnar.decode"));
    put(
        "columnar.decode_mb_s",
        ratio(count(&|r| r.columnar_fetched), dur("columnar.decode")),
    );
    put("columnar.bytes_fetched", count(&|r| r.columnar_fetched));
    put(
        "columnar.stored_ratio",
        ratio(col_stored as f64, csv_stored as f64),
    );
    put("columnar.encode_us", dep.times.encode_us as f64);
    put("common.stats_meta_bytes", stats_meta);
    put(
        "common.stats_meta_ratio",
        stats_meta / dep.dataset_bytes as f64,
    );
    put("common.zonestats_decode_us", dur("common.zonestats_decode"));
    put("workload.generate_us", dep.times.generate_us as f64);
    for (name, layer) in [
        ("program.layer_us.session", telemetry::layers::SESSION),
        ("program.layer_us.scheduler", telemetry::layers::SCHEDULER),
        ("program.layer_us.connector", telemetry::layers::CONNECTOR),
        ("program.layer_us.client", telemetry::layers::CLIENT),
        ("program.layer_us.proxy", telemetry::layers::PROXY),
        ("program.layer_us.objserver", telemetry::layers::OBJSERVER),
        ("program.layer_us.storlet", telemetry::layers::STORLET),
    ] {
        put(name, layer_us(layer));
    }
    put("trace.residual_pct", residual_pct);
    put("trace.residual_scan_pct", residual_scan_pct);
    put(
        "trace.overhead_pct",
        100.0 * (traced_round_us / baseline_us - 1.0),
    );

    eprintln!(
        "{}: {} traced rounds after {} untraced; {} spans",
        workload.name,
        rounds.len(),
        baseline.len(),
        tracer.spans().len()
    );
    roofline(&result);
    Ok(result)
}

fn median_or_zero(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// Spans are written once, when the run ends. A trace that cannot be written
/// costs the run nothing but the file.
fn write_trace(tracer: &Tracer, workload: &str) {
    let dir = output_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().render()));
    match written {
        Ok(()) => eprintln!("{workload}: trace written to {}", path.display()),
        Err(e) => eprintln!("{workload}: trace not written to {}: {e}", path.display()),
    }
}

/// ROADMAP item 1's roofline ratio, as information lines: a layer's rate
/// inside the query ÷ the same layer's committed microbenchmark figure. The
/// `BENCH_*.json` files are read where they lie and never written.
fn roofline(result: &RunResult) {
    let recorded = |file: &str, bench: &str| -> Option<f64> {
        let doc = crate::json::parse(&std::fs::read_to_string(file).ok()?).ok()?;
        doc.get("results")?
            .as_array()?
            .iter()
            .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(bench))?
            .get("mb_per_s")?
            .as_f64()
    };
    for (metric, file, bench) in [
        (
            "storlets.filter_mb_s",
            "BENCH_hotpath.json",
            "storlet_csv_filter",
        ),
        (
            "csvengine.filter_mb_s",
            "BENCH_hotpath.json",
            "storlet_csv_filter",
        ),
        (
            "csvengine.parse_mb_s",
            "BENCH_hotpath.json",
            "compute_csv_parse",
        ),
        (
            "columnar.decode_mb_s",
            "BENCH_hotpath.json",
            "columnar_decode",
        ),
        (
            "objectstore.get_mb_s",
            "BENCH_netplane.json",
            "tcp_get_1_clients",
        ),
    ] {
        let (Some(observed), Some(reference)) = (result.get(metric), recorded(file, bench)) else {
            continue;
        };
        if observed > 0.0 && reference > 0.0 {
            eprintln!(
                "roofline: {metric} {observed:.1} MB/s = {:.2} x {bench} {reference:.1} MB/s ({file})",
                observed / reference
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;
    use crate::workloads::find;

    /// `--quick --trace 1`: every per-layer metric by name, the peel adds up
    /// to the query (no mismatch makes the run incorrect), and the
    /// separation the workloads were chosen for shows.
    #[test]
    fn quick_traced_runs_report_every_per_layer_metric() {
        let run = |name: &str| {
            let result =
                per_layer(find(name).unwrap(), Scale::QUICK, 42, Length::Rounds(2)).expect(name);
            assert!(result.correct, "{name}: {result:?}");
            for m in PER_LAYER {
                assert!(
                    result.get(m.name).is_some_and(f64::is_finite),
                    "{name}: {} missing",
                    m.name
                );
            }
            assert_eq!(result.metrics.len(), PER_LAYER.len(), "{name}");
            result
        };
        let zoned = run("zoned_table1");
        assert!(
            zoned.get("storlets.scanned_share").unwrap() < 0.5,
            "zone maps must prune"
        );
        assert!(zoned.get("storlets.skip_plans").unwrap() > 0.0);
        assert!(zoned.get("csvengine.filter_us").unwrap() > 0.0);
        assert!(zoned.get("common.stats_meta_bytes").unwrap() > 0.0);
        let vanilla = run("vanilla_scan");
        assert_eq!(vanilla.get("storlets.invoke_us"), Some(0.0));
        assert_eq!(vanilla.get("csvengine.filter_us"), Some(0.0));
        assert!(vanilla.get("csvengine.parse_us").unwrap() > 0.0);
        let columnar = run("columnar_scan");
        assert_eq!(columnar.get("csvengine.parse_us"), Some(0.0));
        assert!(columnar.get("columnar.decode_us").unwrap() > 0.0);
        assert!(columnar.get("columnar.stored_ratio").unwrap() < 1.0);
        let ingest = run("ingest_put");
        assert!(ingest.get("storlets.zoneindex_us").unwrap() > 0.0);
        assert!(ingest.get("objectstore.put_us").unwrap() > 0.0);
    }
}
