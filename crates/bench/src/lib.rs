//! The one harness behind the gated kernel benches (`hotpath`, `netplane`,
//! `skipping`): a result row, the `BENCH_*.json` writer and reader, the
//! regression gate, the argument reader and the timing helpers. It also
//! holds the two kernels `repro calibration` reports, so each kernel is
//! timed in one place, the way its gate times it.
//!
//! The files are hand-rolled JSON (the workspace deliberately carries no
//! serde_json) with one result per line, which is what the reader relies on.

use bytes::Bytes;
use scoop_csv::filter::filter_buffer;
use scoop_csv::{CsvReader, Predicate, PushdownSpec};
use scoop_workload::generator::meter_schema;
use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

/// One result line: the bench's name, its gated rate, and every field after
/// the name in file order (the rate among them), each written at the file's
/// precision.
#[derive(Debug, Clone)]
pub struct Row {
    /// The bench's name, as the gate matches it.
    pub name: String,
    /// The gated rate, decimal MB/s.
    pub mb_per_s: f64,
    fields: Vec<(String, String)>,
}

impl Row {
    /// A row with no fields yet.
    pub fn new(name: impl Into<String>) -> Row {
        Row { name: name.into(), mb_per_s: 0.0, fields: Vec::new() }
    }

    /// Append a field, written as `value` displays: a number already at the
    /// file's precision, or `null`.
    pub fn with(mut self, key: &str, value: impl Display) -> Row {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Append the gated `mb_per_s` field, at one decimal.
    pub fn rate(mut self, mb_per_s: f64) -> Row {
        self.mb_per_s = mb_per_s;
        self.with("mb_per_s", format!("{mb_per_s:.1}"))
    }

    /// The written value of field `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// The flags every gated bench takes: `--quick`, `--write`, and
/// `--check [FILE]`, which reads the bench's own file when no path follows.
#[derive(Debug)]
pub struct Args {
    /// Smaller inputs and fewer samples, for CI smoke runs.
    pub quick: bool,
    /// Replace the committed file with this run's rows.
    pub write: bool,
    /// The recorded file to gate against.
    pub check: Option<String>,
    args: Vec<String>,
}

impl Args {
    /// Parse `args`; `json` is the file a bare `--check` reads.
    pub fn parse(args: Vec<String>, json: &str) -> Args {
        let mut parsed = Args { quick: false, write: false, check: None, args };
        parsed.quick = parsed.has("--quick");
        parsed.write = parsed.has("--write");
        if parsed.has("--check") {
            parsed.check = Some(parsed.value("--check").unwrap_or(json).to_string());
        }
        parsed
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The argument after `flag`, unless that argument is itself a flag.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str).filter(|v| !v.starts_with("--"))
    }

    /// `quick` or `full`, as the files' `mode` and the tables' titles say it.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// One gated `BENCH_*.json` file and how its gate reads it.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The committed file: `--write` replaces it, a bare `--check` reads it.
    pub json: &'static str,
    /// What `mb_per_s` measures, as the file's `unit` says.
    pub unit: &'static str,
    /// A row fails the gate below this fraction of its recorded rate.
    pub floor: f64,
}

/// `hotpath`'s file: a row fails below 70% of its recorded rate.
pub const HOTPATH: Suite = Suite { json: "BENCH_hotpath.json", unit: "decimal MB/s", floor: 0.7 };
/// `netplane`'s file: 50%, because loopback scheduling noise on a shared
/// runner dwarfs codec-level regressions.
pub const NETPLANE: Suite = Suite { json: "BENCH_netplane.json", unit: "decimal MB/s", floor: 0.5 };
/// `skipping`'s file: 50% of the effective rate.
pub const SKIPPING: Suite = Suite {
    json: "BENCH_skipping.json",
    unit: "decimal MB/s of logical object bytes per query second",
    floor: 0.5,
};

impl Suite {
    /// This process's arguments.
    pub fn args(&self) -> Args {
        Args::parse(std::env::args().skip(1).collect(), self.json)
    }

    /// The file for `rows`; each `header` field (already written) sits
    /// between `mode` and `unit`.
    pub fn render_json(&self, mode: &str, header: &[(&str, String)], rows: &[Row]) -> String {
        let mut out = format!("{{\n  \"schema_version\": 1,\n  \"mode\": \"{mode}\",\n");
        for (key, value) in header {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        out.push_str(&format!("  \"unit\": \"{}\",\n  \"results\": [\n", self.unit));
        for (i, row) in rows.iter().enumerate() {
            let fields: String = row.fields.iter().map(|(k, v)| format!(", \"{k}\": {v}")).collect();
            let comma = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {{ \"name\": \"{}\"{fields} }}{comma}\n", row.name));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Gate `rows` against `recorded`, the text of `path`: every row must be
    /// recorded, reach `floor ×` its recorded rate, and then pass `extra`.
    /// The first failure is the error; a pass reports one line per row.
    pub fn check_against(
        &self,
        rows: &[Row],
        recorded: &str,
        path: &str,
        extra: impl Fn(&Row) -> Result<(), String>,
    ) -> Result<Vec<String>, String> {
        let recorded = parse_results(recorded)?;
        let mut msgs = Vec::new();
        for r in rows {
            let Some(rec) = recorded.iter().find(|rec| rec.name == r.name).map(|rec| rec.mb_per_s)
            else {
                return Err(format!("bench '{}' missing from {path}", r.name));
            };
            if r.mb_per_s < rec * self.floor {
                return Err(format!(
                    "'{}' regressed: {:.1} MB/s vs recorded {rec:.1} MB/s (floor {:.1})",
                    r.name,
                    r.mb_per_s,
                    rec * self.floor
                ));
            }
            extra(r)?;
            msgs.push(format!("{:<22} {:>8.1} MB/s vs recorded {rec:.1} MB/s", r.name, r.mb_per_s));
        }
        Ok(msgs)
    }

    /// How every gated bench ends: `--write` replaces the committed file
    /// with `rows`, and `--check` gates them, exiting 1 on a failure.
    pub fn finish(
        &self,
        args: &Args,
        header: &[(&str, String)],
        rows: &[Row],
        extra: impl Fn(&Row) -> Result<(), String>,
    ) {
        if args.write {
            let json = self.render_json(args.mode(), header, rows);
            std::fs::write(self.json, json).unwrap_or_else(|e| panic!("write {}: {e}", self.json));
            println!("wrote {}", self.json);
        }
        let Some(path) = &args.check else { return };
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| self.check_against(rows, &text, path, extra));
        match verdict {
            Ok(msgs) => {
                for m in msgs {
                    println!("  {m}");
                }
                println!("bench-smoke: OK ({path})");
            }
            Err(e) => {
                eprintln!("bench-smoke: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// A structural check for [`Suite::check_against`]: row `name` must read
/// under `limit` of an `object_bytes` object, by its `bytes_read` field.
pub fn reads_under(
    name: &'static str,
    limit: f64,
    object_bytes: u64,
) -> impl Fn(&Row) -> Result<(), String> {
    move |row| {
        if row.name != name {
            return Ok(());
        }
        let read: u64 = row
            .get("bytes_read")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("'{name}' has no bytes_read"))?;
        let fraction = read as f64 / object_bytes as f64;
        if fraction >= limit {
            return Err(format!(
                "'{name}' read {:.1}% of the object (must stay under {:.0}%)",
                fraction * 100.0,
                limit * 100.0
            ));
        }
        Ok(())
    }
}

/// The result rows of a file in the one-result-per-line layout
/// [`Suite::render_json`] writes, each field as written.
pub fn parse_results(text: &str) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| l.contains("\"name\"")) {
        let malformed = || format!("malformed result line: {line}");
        let body = line.trim_end_matches(',').strip_prefix("{ ").and_then(|b| b.strip_suffix(" }"));
        let mut fields = body.ok_or_else(malformed)?.split(", ").map(|f| f.split_once(": "));
        let Some(Some(("\"name\"", name))) = fields.next() else { return Err(malformed()) };
        let mut row = Row::new(name.trim_matches('"'));
        for field in fields {
            let (key, value) = field.ok_or_else(malformed)?;
            row = match key.trim_matches('"') {
                "mb_per_s" => row.rate(value.parse().map_err(|_| malformed())?),
                key => row.with(key, value),
            };
        }
        if row.get("mb_per_s").is_none() {
            return Err(format!("missing mb_per_s in: {line}"));
        }
        out.push(row);
    }
    if out.is_empty() {
        return Err("no results found in JSON".to_string());
    }
    Ok(out)
}

/// Best wall-clock seconds of `iters` runs of `f` (the first doubles as
/// warmup).
pub fn best_of(iters: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Decimal MB/s of `bytes` in `secs`.
pub fn mbs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Fig. 5's pushdown over meter CSV with a header: `vid, index` where
/// `city LIKE 'Rot%'`, and the header it resolves against.
pub fn fig5_pushdown() -> (PushdownSpec, Vec<String>) {
    let spec = PushdownSpec {
        columns: Some(vec!["vid".into(), "index".into()]),
        predicate: Some(Predicate::StartsWith("city".into(), "Rot".into())),
        has_header: true,
    };
    (spec, meter_schema().names().iter().map(|s| s.to_string()).collect())
}

/// The storlet CSV filter: `filter_buffer` with [`fig5_pushdown`] over meter
/// CSV with a header. Returns the bytes kept.
pub fn storlet_csv_filter(csv: &[u8]) -> u64 {
    let (spec, header) = fig5_pushdown();
    let (out, _) = filter_buffer(&spec, &header, csv, true).expect("filter");
    black_box(out.len()) as u64
}

/// The compute CSV parse: `CsvReader` typing every field of meter CSV with
/// a header. Returns the rows typed.
pub fn compute_csv_parse(csv: &[u8]) -> u64 {
    let stream = scoop_common::stream::once(Bytes::from(csv.to_vec()));
    let typed = CsvReader::new(stream, meter_schema(), true).filter(Result::is_ok).count();
    black_box(typed) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOTPATH_JSON: &str = include_str!("../../../BENCH_hotpath.json");
    const NETPLANE_JSON: &str = include_str!("../../../BENCH_netplane.json");
    const SKIPPING_JSON: &str = include_str!("../../../BENCH_skipping.json");

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from).collect(), "BENCH_x.json")
    }

    fn pass(_: &Row) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn check_takes_the_next_argument_only_when_it_is_a_path() {
        let a = args("--check --quick");
        assert_eq!((a.check.as_deref(), a.quick), (Some("BENCH_x.json"), true));
        assert_eq!(args("--quick --check").check.as_deref(), Some("BENCH_x.json"));
        assert_eq!(args("--check FILE --quick").check.as_deref(), Some("FILE"));
        assert_eq!(args("--quick --write").check, None);
        assert_eq!(args("--overhead-gate 3 --check").value("--overhead-gate"), Some("3"));
    }

    #[test]
    fn gate_holds_each_row_to_its_floor() {
        let recorded = "{ \"name\": \"a\", \"mb_per_s\": 100.0 }";
        assert!(HOTPATH.check_against(&[Row::new("a").rate(75.0)], recorded, "f", pass).is_ok());
        assert_eq!(
            HOTPATH.check_against(&[Row::new("a").rate(69.9)], recorded, "f", pass),
            Err("'a' regressed: 69.9 MB/s vs recorded 100.0 MB/s (floor 70.0)".to_string())
        );
        assert!(NETPLANE.check_against(&[Row::new("a").rate(55.0)], recorded, "f", pass).is_ok());
        assert_eq!(
            HOTPATH.check_against(&[Row::new("b").rate(500.0)], recorded, "f", pass),
            Err("bench 'b' missing from f".to_string())
        );
        assert_eq!(
            HOTPATH.check_against(&[Row::new("a").rate(500.0)], "{\n}\n", "f", pass),
            Err("no results found in JSON".to_string())
        );
    }

    #[test]
    fn skipping_gate_fires_when_sel_99_9_reads_a_tenth() {
        let object_bytes = 1_482_909;
        let check = |read: u64| {
            let arm = Row::new("sel_99_9").with("bytes_read", read).rate(1e9);
            let structural = reads_under("sel_99_9", 0.10, object_bytes);
            SKIPPING.check_against(&[arm], SKIPPING_JSON, "f", structural)
        };
        assert!(check(object_bytes / 10).is_ok());
        assert_eq!(
            check(object_bytes / 10 + 1),
            Err("'sel_99_9' read 10.0% of the object (must stay under 10%)".to_string())
        );
        let other = Row::new("sel_50").with("bytes_read", object_bytes);
        assert!(reads_under("sel_99_9", 0.10, object_bytes)(&other).is_ok());
    }

    #[test]
    fn committed_files_hold_every_row_their_bench_emits() {
        let emitted = [
            (
                HOTPATH_JSON,
                "storlet_csv_filter compute_csv_parse record_split columnar_decode \
                 compute_sql_exec compute_csv_scan zoneindex_put etag_fingerprint \
                 storlet_table1_filter compute_sql_groups",
            ),
            (
                NETPLANE_JSON,
                "tcp_get_1_clients tcp_get_8_clients tcp_get_32_clients tcp_range64k_1_clients",
            ),
            (SKIPPING_JSON, "sel_50 sel_95 sel_99_9"),
        ];
        for (text, names) in emitted {
            let recorded = parse_results(text).expect("committed file parses");
            let recorded: Vec<&str> = recorded.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(recorded, names.split_whitespace().collect::<Vec<_>>());
        }
    }

    #[test]
    fn writer_keeps_each_committed_layout_byte_for_byte() {
        let object_bytes = |n: u64| vec![("object_bytes", n.to_string())];
        let files = [
            (HOTPATH, HOTPATH_JSON, Vec::new()),
            (NETPLANE, NETPLANE_JSON, object_bytes(4_194_304)),
            (SKIPPING, SKIPPING_JSON, object_bytes(1_482_909)),
        ];
        for (suite, text, header) in files {
            let rows = parse_results(text).expect("committed file parses");
            assert_eq!(suite.render_json("full", &header, &rows), text);
        }
    }

    #[test]
    fn calibration_kernels_run_over_meter_csv() {
        let config = scoop_workload::GeneratorConfig { meters: 50, ..Default::default() };
        let csv = scoop_workload::MeterDataset::new(&config).csv_object(500);
        assert!(storlet_csv_filter(&csv) > 0);
        assert_eq!(compute_csv_parse(&csv), 500);
    }
}
