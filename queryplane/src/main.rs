//! `queryplane`: the repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! queryplane --workload W --seed N --seconds S --trace 0|1   one run, one result line (the driver's form)
//! queryplane --all [--seed N] [--seconds S] [--out FILE]      every workload, both passes, one table
//! queryplane --repeat N [--workload W] [--out FILE]           the end-to-end pass N times: min / median / max / spread
//! queryplane --compare A.json B.json                          two result files, one verdict per workload × metric
//! queryplane --emit-manifest                                  BENCHMARK.json
//! ```
//! `--quick` swaps in the small dataset and five rounds.

mod dataset;
mod harness;
mod json;
mod layers;
mod measure;
mod probe;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use dataset::Scale;
use json::Json;
use measure::Length;
use std::process::ExitCode;

/// Rounds of a `--quick` run.
const QUICK_ROUNDS: usize = 5;

/// What one run reports: the driver's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the spec tables.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value)| {
            (
                *name,
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit_of(name).into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn unit_of(metric: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// Where result and trace files go: beside the build outputs.
pub fn output_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target).join("queryplane")
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub all: bool,
    pub repeat: Option<usize>,
    pub compare: Option<(String, String)>,
    pub out: Option<String>,
    pub emit_manifest: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 42,
            seconds: f64::from(spec::RUN_SECONDS),
            trace: false,
            quick: false,
            all: false,
            repeat: None,
            compare: None,
            out: None,
            emit_manifest: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--repeat" => {
                    let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if n == 0 {
                        return Err("--repeat needs at least 1".into());
                    }
                    args.repeat = Some(n);
                }
                "--compare" => args.compare = Some((value()?, value()?)),
                "--out" => args.out = Some(value()?),
                "--quick" => args.quick = true,
                "--all" => args.all = true,
                "--emit-manifest" => args.emit_manifest = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if let Some(name) = &args.workload {
            if workloads::find(name).is_none() {
                let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload {name}; one of {}",
                    known.join(", ")
                ));
            }
        }
        Ok(args)
    }

    fn scale(&self) -> Scale {
        if self.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }

    fn length(&self) -> Length {
        if self.quick {
            Length::Rounds(QUICK_ROUNDS)
        } else {
            Length::Seconds(self.seconds)
        }
    }
}

/// One run of one workload in this process.
fn run_one(args: &Args, workload: &workloads::Workload) -> scoop_common::Result<RunResult> {
    if args.trace {
        layers::per_layer(workload, args.scale(), args.seed, args.length())
    } else {
        measure::end_to_end(workload, args.scale(), args.seed, args.length())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("queryplane: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.emit_manifest {
        print!("{}", spec::manifest().render_pretty());
        Ok(())
    } else if let Some((a, b)) = &args.compare {
        report::compare(a, b)
    } else if let Some(n) = args.repeat {
        report::repeat(&args, n)
    } else if args.all {
        report::all(&args)
    } else if let Some(workload) = args.workload.as_deref().and_then(workloads::find) {
        // The driver's form. Everything for people goes to stderr; the last
        // line of stdout is the result.
        run_one(&args, workload)
            .map_err(|e| e.to_string())
            .map(|result| {
                println!("{}", result.to_json().render());
            })
    } else {
        Err(
            "nothing to do: pass --workload, --all, --repeat, --compare or --emit-manifest"
                .to_string(),
        )
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("queryplane: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = Args::parse(&argv(
            "--workload zoned_table1 --seed 7 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("zoned_table1"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 8.0, true));
        assert_eq!(args.length(), Length::Seconds(8.0));
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--trace 2")).is_err());
        assert!(Args::parse(&argv("--seconds 0")).is_err());
        assert!(Args::parse(&argv("--seed")).is_err());
        assert!(Args::parse(&argv("--frobnicate")).is_err());
        let quick = Args::parse(&argv("--quick --workload ingest_put")).unwrap();
        assert_eq!(
            (quick.scale(), quick.length()),
            (Scale::QUICK, Length::Rounds(QUICK_ROUNDS))
        );
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let mut result = RunResult {
            correct: true,
            attempted: 350,
            failed: 0,
            metrics: Vec::new(),
        };
        result.push("round_ms_p50", 12.034_517);
        result.push("setup_s", 0.812_7);
        let line = result.to_json().render();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = doc.get("metrics").unwrap().get("round_ms_p50").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(12.034_517));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(report::parse_result(&doc), Some(result));
    }
}
