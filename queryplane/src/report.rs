//! The modes for people: `--all`, `--repeat` and `--compare`.
//!
//! Each run of a workload is a fresh process (this executable again, in the
//! driver's form), so peak memory and the program's global telemetry registry
//! never leak from one workload into the next.

use crate::json::{self, Json};
use crate::spec::{self, Better, EndToEnd};
use crate::stats::{median, spread};
use crate::workloads::{Workload, WORKLOADS};
use crate::{output_dir, unit_of, Args, RunResult};
use scoop_common::table::{fnum, TextTable};
use std::process::{Command, Stdio};

/// One run as stored in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    pub workload: String,
    pub trace: bool,
    pub result: RunResult,
}

/// Read a result line (or a stored run) back. Metrics this build does not
/// know are dropped: their unit and direction are unknown.
pub fn parse_result(doc: &Json) -> Option<RunResult> {
    let known = |name: &str| {
        spec::END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(spec::PER_LAYER.iter().map(|m| m.name))
            .find(|n| *n == name)
    };
    let metrics = doc
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((known(name)?, m.get("value")?.as_f64()?)))
        .collect();
    Some(RunResult {
        correct: doc.get("correct")?.as_bool()?,
        attempted: doc.get("attempted")?.as_f64()? as u64,
        failed: doc.get("failed")?.as_f64()? as u64,
        metrics,
    })
}

fn stored_to_json(run: &StoredRun) -> Json {
    let Json::Obj(mut pairs) = run.result.to_json() else {
        unreachable!("a result renders as an object")
    };
    pairs.insert(0, ("workload".to_string(), Json::Str(run.workload.clone())));
    pairs.insert(
        1,
        (
            "trace".to_string(),
            Json::Num(f64::from(u8::from(run.trace))),
        ),
    );
    Json::Obj(pairs)
}

fn stored_from_json(doc: &Json) -> Option<StoredRun> {
    Some(StoredRun {
        workload: doc.get("workload")?.as_str()?.to_string(),
        trace: doc.get("trace")?.as_f64()? != 0.0,
        result: parse_result(doc)?,
    })
}

/// A result file: the settings of the runs, then the runs.
pub fn file_to_json(args: &Args, runs: &[StoredRun]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("benchmark", Json::Str("queryplane".into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("runs", Json::Arr(runs.iter().map(stored_to_json).collect())),
    ])
}

pub fn runs_from_json(doc: &Json) -> Result<Vec<StoredRun>, String> {
    doc.get("runs")
        .and_then(Json::as_array)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(|r| stored_from_json(r).ok_or_else(|| "malformed run".to_string()))
        .collect()
}

fn load(path: &str) -> Result<Vec<StoredRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    runs_from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn save(args: &Args, runs: &[StoredRun], default_name: &str) -> Result<(), String> {
    let path = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => output_dir().join(default_name),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file_to_json(args, runs).render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(())
}

/// Run one workload in a fresh process and read its result line.
fn spawn_run(args: &Args, workload: &Workload, trace: bool) -> Result<StoredRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name,
        "--seed",
        &args.seed.to_string(),
    ])
    .args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child: none outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            workload.name,
            u8::from(trace),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no result line")?;
    let result = json::parse(line)
        .ok()
        .as_ref()
        .and_then(parse_result)
        .ok_or("malformed result line")?;
    Ok(StoredRun {
        workload: workload.name.to_string(),
        trace,
        result,
    })
}

fn selected(args: &Args) -> Vec<&'static Workload> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect()
}

fn print_run(run: &StoredRun) {
    println!(
        "{} (trace {}): correct {}, {} attempted, {} failed",
        run.workload,
        u8::from(run.trace),
        run.result.correct,
        run.result.attempted,
        run.result.failed
    );
    let mut table = TextTable::new(vec!["metric", "value", "unit"]);
    for (name, value) in &run.result.metrics {
        table.row(vec![
            name.to_string(),
            fnum(*value, 4),
            unit_of(name).to_string(),
        ]);
    }
    print!("{}", table.render());
}

/// `--all`: every workload, end-to-end pass then traced pass, every metric by
/// name with its unit.
pub fn all(args: &Args) -> Result<(), String> {
    let mut runs = Vec::new();
    for workload in selected(args) {
        for trace in [false, true] {
            let run = spawn_run(args, workload, trace)?;
            print_run(&run);
            runs.push(run);
        }
    }
    // The paper's S_Q: how much faster the pushdown arm answers the same
    // logical bytes than ingest-then-compute. Information, not a metric.
    let rate = |name: &str| {
        runs.iter()
            .find(|r| r.workload == name && !r.trace)
            .and_then(|r| r.result.get("logical_mb_s"))
    };
    if let Some(vanilla) = rate("vanilla_scan") {
        for name in [
            "pushdown_table1",
            "pushdown_lowsel",
            "zoned_table1",
            "columnar_scan",
        ] {
            if let Some(arm) = rate(name) {
                println!(
                    "S_Q {name}: {arm:.1} MB/s / vanilla_scan {vanilla:.1} MB/s = {:.2}",
                    arm / vanilla
                );
            }
        }
    }
    save(args, &runs, "result.json")?;
    all_correct(&runs)
}

/// The values of one end-to-end metric over the runs of one workload.
fn values(runs: &[StoredRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.result.get(metric))
        .collect()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// `"<failed> of <attempted>"` over a set of runs.
fn failures(runs: &[StoredRun]) -> String {
    let failed: u64 = runs.iter().map(|r| r.result.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.result.attempted).sum();
    format!("{failed} of {attempted}")
}

fn all_correct(runs: &[StoredRun]) -> Result<(), String> {
    if runs.iter().all(|r| r.result.correct) {
        Ok(())
    } else {
        Err("a run reported incorrect output".into())
    }
}

fn pct(share: Option<f64>) -> String {
    share.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0))
}

/// `--repeat N`: the end-to-end pass N times per workload; each metric's
/// min / median / max and its quartile spread against its bound.
pub fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let mut runs = Vec::new();
    for i in 0..n {
        for workload in selected(args) {
            eprintln!("repeat {}/{n}: {}", i + 1, workload.name);
            runs.push(spawn_run(args, workload, false)?);
        }
    }
    let mut table = TextTable::new(vec![
        "workload", "metric", "unit", "runs", "min", "median", "max", "spread", "bound", "verdict",
    ]);
    for workload in selected(args) {
        for m in spec::END_TO_END {
            let v = values(&runs, workload.name, m.name);
            if v.is_empty() {
                table.row(vec![
                    workload.name,
                    m.name,
                    m.unit,
                    "0",
                    "",
                    "",
                    "",
                    "",
                    "",
                    "MISSING",
                ]);
                continue;
            }
            let (lo, hi) = min_max(&v);
            let spread = spread(&v);
            let verdict = match spread {
                None => "one run",
                Some(s) if s <= m.bound / 3.0 => "steady",
                Some(s) if s <= m.bound => "within bound",
                Some(_) => "WIDER THAN BOUND",
            };
            table.row(vec![
                workload.name.to_string(),
                m.name.to_string(),
                m.unit.to_string(),
                v.len().to_string(),
                fnum(lo, 4),
                fnum(median(&v), 4),
                fnum(hi, 4),
                pct(spread),
                pct(Some(m.bound)),
                verdict.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    println!("failed operations: {}", failures(&runs));
    save(args, &runs, "repeat.json")?;
    all_correct(&runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference of the size the bound cares about cannot be told from
    /// noise. Not the same as unchanged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the base by which `new` is worse than `base`, negative when it
/// is better.
pub fn worse_by(metric: &EndToEnd, base: f64, new: f64) -> f64 {
    match metric.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn verdict(metric: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let noisy = |v: &[f64]| spread(v).is_some_and(|s| s > metric.bound);
    if noisy(base) || noisy(new) {
        return Verdict::Unresolved;
    }
    let worse = worse_by(metric, median(base), median(new));
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// `--compare a.json b.json`: one row per workload × end-to-end metric.
pub fn compare(a: &str, b: &str) -> Result<(), String> {
    let (base, new) = (load(a)?, load(b)?);
    println!("base = {a}, new = {b}; spread = quartile distance / median");
    let mut table = TextTable::new(vec![
        "workload",
        "metric",
        "unit",
        "runs",
        "base median",
        "new median",
        "new / base",
        "base spread",
        "new spread",
        "bound",
        "verdict",
    ]);
    let mut regressed = 0;
    for workload in WORKLOADS {
        for m in spec::END_TO_END {
            let (va, vb) = (
                values(&base, workload.name, m.name),
                values(&new, workload.name, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(m, &va, &vb);
            regressed += usize::from(v == Verdict::Regressed);
            table.row(vec![
                workload.name.to_string(),
                m.name.to_string(),
                m.unit.to_string(),
                format!("{}+{}", va.len(), vb.len()),
                fnum(ma, 4),
                fnum(mb, 4),
                fnum(mb / ma, 4),
                pct(spread(&va)),
                pct(spread(&vb)),
                pct(Some(m.bound)),
                v.as_str().to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "failed operations: base {}, new {}",
        failures(&base),
        failures(&new)
    );
    if regressed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{regressed} metric(s) regressed beyond their bound"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, p50: f64) -> StoredRun {
        let mut result = RunResult {
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: Vec::new(),
        };
        result.push("round_ms_p50", p50);
        result.push("logical_mb_s", 1000.0 / p50);
        StoredRun {
            workload: workload.into(),
            trace: false,
            result,
        }
    }

    fn test_args() -> Args {
        Args {
            workload: None,
            seed: 7,
            seconds: 8.0,
            trace: false,
            quick: false,
            all: false,
            repeat: None,
            compare: None,
            out: None,
            emit_manifest: false,
        }
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let runs = vec![run("vanilla_scan", 91.5), run("ingest_put", 32.25)];
        let text = file_to_json(&test_args(), &runs).render_pretty();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(7.0));
        assert_eq!(runs_from_json(&doc).unwrap(), runs);
        assert!(runs_from_json(&Json::obj([("runs", Json::Num(1.0))])).is_err());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Fixed here, so the test does not move with the table's bounds.
        let p50 = &EndToEnd {
            name: "round_ms_p50",
            unit: "ms",
            better: Better::Lower,
            bound: 0.10,
        };
        let mbs = &EndToEnd {
            name: "logical_mb_s",
            unit: "MB/s",
            better: Better::Higher,
            bound: 0.10,
        };
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(p50, &base, &[104.0, 105.0, 103.0, 104.5]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(p50, &base, &[120.0, 121.0, 119.0, 120.5]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(p50, &base, &[80.0, 81.0, 79.0, 80.5]),
            Verdict::Improved
        );
        // The same numbers read the other way for a throughput.
        assert_eq!(
            verdict(mbs, &base, &[120.0, 121.0, 119.0, 120.5]),
            Verdict::Improved
        );
        assert_eq!(
            verdict(mbs, &base, &[80.0, 81.0, 79.0, 80.5]),
            Verdict::Regressed
        );
        // A side whose own runs disagree by more than the bound settles nothing.
        assert_eq!(
            verdict(
                p50,
                &[80.0, 100.0, 120.0, 140.0],
                &[100.0, 100.0, 100.0, 100.0]
            ),
            Verdict::Unresolved
        );
        assert!((worse_by(p50, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(mbs, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }
}
