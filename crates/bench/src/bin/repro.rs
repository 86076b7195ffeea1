//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation and prints them as text tables.
//!
//! ```text
//! repro [all|fig1|table1|fig5|fig6|fig7|fig8|fig9|fig10|multi-tenant|ablations|calibration|smoke] ...
//!       [--quick] [--series-dir DIR] [--check-metrics]
//! ```
//!
//! By default runs everything at the standard scale and writes the Fig. 9
//! time-series CSVs under `target/figures/`. Every run ends with a dump of
//! the process-wide telemetry snapshot; `--check-metrics` additionally fails
//! the run if any registered data-path metric is missing from it. The
//! `smoke` experiment (not part of `all`) runs one traced pushdown query
//! over a deliberately degraded cluster and prints the resulting trace —
//! the observability acceptance gate CI runs on every push.

use scoop_bench::{best_of, compute_csv_parse, mbs, storlet_csv_filter};
use scoop_core::experiments::{ablations, figures, resources, table1, FigureResult, Lab, Scale};

/// One traced pushdown query over a cluster where every object node is slow
/// and hedging, breakers and chaos injection are all armed: exercises the
/// whole ingest path so the trailing snapshot carries nonzero data-path
/// counters, and prints the spans recorded under the query's trace ID.
fn smoke() -> scoop_common::Result<()> {
    use scoop_core::{ExecutionMode, ScoopConfig, ScoopContext};
    use scoop_objectstore::{BreakerConfig, FaultPlan, SwiftConfig};
    use scoop_workload::{GeneratorConfig, MeterDataset};
    use std::time::Duration;

    // Slow every object node so any replica placement forces the proxy to
    // launch hedges once 1 ms passes without a first byte.
    let mut plan = FaultPlan::quiet(0x5C00F);
    for node in 0..4 {
        plan = plan.with_slow_node(node, Duration::from_millis(10));
    }
    let ctx = ScoopContext::new(ScoopConfig {
        swift: SwiftConfig {
            fault_plan: Some(plan),
            breaker: Some(BreakerConfig::default()),
            hedge_after: Some(Duration::from_millis(1)),
            ..SwiftConfig::default()
        },
        ..ScoopConfig::default()
    })?;
    let mut gen = MeterDataset::new(&GeneratorConfig { meters: 30, ..Default::default() });
    let objects = (0..2)
        .map(|i| (format!("part-{i}.csv"), gen.csv_object(400)))
        .collect();
    ctx.upload_csv("meters", objects, None)?;
    let sql = "SELECT vid, sum(index) as total FROM meters \
               WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid";
    let outcome = ctx.query("meters", sql, ExecutionMode::Pushdown)?;
    let spans = scoop_common::telemetry::trace_spans(&outcome.metrics.trace);
    println!("== smoke — one traced pushdown query over a degraded cluster ==");
    println!(
        "{} rows in {:?}; trace {} recorded {} spans:",
        outcome.result.rows.len(),
        outcome.metrics.wall,
        outcome.metrics.trace,
        spans.len()
    );
    for s in &spans {
        println!("  {:>10}  {:>8} us  {}", s.layer, s.duration_us, s.detail);
    }
    println!();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_metrics = args.iter().any(|a| a == "--check-metrics");
    let series_dir = args
        .iter()
        .position(|a| a == "--series-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/figures"));
    let mut wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--") && *a != series_dir.to_string_lossy())
        .collect();
    if wanted.is_empty() {
        wanted.push("all");
    }
    let all = wanted.contains(&"all");
    let scale = if quick { Scale::quick() } else { Scale::standard() };

    eprintln!(
        "building lab: {} meters, {} objects x {} rows ...",
        scale.meters, scale.objects, scale.rows_per_object
    );
    let lab_env = Lab::new(&scale).expect("lab setup");
    eprintln!(
        "dataset: {} over {} objects; workers={} chunk={}\n",
        scoop_common::ByteSize::b(lab_env.dataset_bytes),
        scale.objects,
        scale.workers,
        scoop_common::ByteSize::b(scale.chunk_size),
    );

    let want = |id: &str| all || wanted.contains(&id);
    let mut failures = 0usize;
    let mut show = |result: scoop_common::Result<FigureResult>| match result {
        Ok(fig) => println!("{}", fig.render()),
        Err(e) => {
            failures += 1;
            eprintln!("experiment failed: {e}");
        }
    };

    if want("calibration") {
        // The `hotpath` kernels, timed as its gate times them.
        let (csv, iters) = (&lab_env.sample_csv, if quick { 3 } else { 5 });
        let object = bytes::Bytes::copy_from_slice(csv);
        let filter_secs = best_of(iters, || storlet_csv_filter(&object));
        let parse_secs = best_of(iters, || compute_csv_parse(csv));
        println!("== calibration — measured single-core throughputs ==");
        println!("storlet CSV filter : {:.0} MB/s", mbs(csv.len(), filter_secs));
        println!("compute CSV parse  : {:.0} MB/s", mbs(csv.len(), parse_secs));
        println!(
            "(the testbed projections use the paper-fitted cost model; see EXPERIMENTS.md)\n"
        );
    }
    if want("fig1") {
        show(figures::fig1(&lab_env));
    }
    if want("table1") {
        show(table1::run(&lab_env));
    }
    if want("fig5") {
        show(figures::fig5(&lab_env));
    }
    if want("fig6") {
        show(figures::fig6(&lab_env));
    }
    if want("fig7") {
        show(figures::fig7(&lab_env));
    }
    if want("fig8") {
        show(figures::fig8(&lab_env));
    }
    if want("multi-tenant") {
        show(figures::multi_tenant(&lab_env));
    }
    if want("fig9") {
        show(resources::fig9(&lab_env));
        match resources::export_series(&lab_env, &series_dir) {
            Ok(files) => println!(
                "wrote {} time-series CSVs under {}\n",
                files.len(),
                series_dir.display()
            ),
            Err(e) => eprintln!("series export failed: {e}"),
        }
    }
    if want("fig10") {
        show(resources::fig10(&lab_env));
    }
    if want("ablations") {
        show(ablations::stage(&scale));
        show(ablations::chunk_size(&scale));
        show(ablations::pipelining(&scale));
        show(ablations::tiering(&scale));
    }
    // Deliberately outside `all`: the degraded cluster exists to exercise the
    // trace/metrics plumbing, not to reproduce a paper figure.
    if wanted.contains(&"smoke") {
        if let Err(e) = smoke() {
            failures += 1;
            eprintln!("smoke failed: {e}");
        }
    }

    // Every run ends with the process-wide metrics dump, so figures always
    // come with the wire/hedge/storlet accounting that produced them.
    let snap = scoop_common::telemetry::snapshot();
    println!("== telemetry snapshot ==");
    println!("{}", snap.to_text());
    // ... and with the wide-event log: one line per query, so a slow figure
    // can be traced to the query (and layer) that produced it.
    let events = scoop_common::telemetry::query_events();
    println!("== query events ({}) ==", events.len());
    print!("{}", scoop_common::telemetry::events_to_text(&events));
    if check_metrics {
        let missing = scoop_common::telemetry::missing_data_path_metrics(&snap);
        if !missing.is_empty() {
            eprintln!(
                "--check-metrics: {} registered data-path metric(s) missing from the snapshot:",
                missing.len()
            );
            for name in missing {
                eprintln!("  {name}");
            }
            std::process::exit(1);
        }
        println!("--check-metrics: all data-path metrics present");
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
