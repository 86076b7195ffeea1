//! Pushdown filter evaluation over raw CSV records.
//!
//! This is the code the CSV storlet executes at storage nodes: it resolves the
//! [`PushdownSpec`]'s column names against the object schema, then streams
//! records through selection + projection, emitting filtered CSV.
//!
//! ## NULL semantics
//!
//! An empty CSV field is NULL. Comparisons and string matches against NULL are
//! false (`IS NULL` / `IS NOT NULL` excepted), and comparisons between a
//! numeric literal and a non-numeric field are false — exactly matching the
//! typed evaluation in `scoop-sql`, which is what makes pushdown transparent.
//!
//! ## Byte fidelity
//!
//! Matching records are emitted as **untouched slices of the input**: the
//! passthrough path copies the whole record verbatim, and the projection path
//! copies each projected field's original bytes (quoting and escapes
//! included) whenever that is safe — a field is only re-rendered through
//! [`write_field`] when its raw form could corrupt downstream parsing (an
//! unquoted field containing a literal `"` or a stray `\r`, or a malformed
//! quoted field). A field holding `2` therefore ships as `2`, never `2.0`.
//!
//! ## Zero-copy evaluation
//!
//! Selection runs on a [`RecordView`]: the record is scanned once with the
//! SWAR scanner, only the first `max(referenced field index) + 1` fields are
//! delimited, and predicates read borrowed field bytes — no `String` or
//! `Value` is allocated per field on the hot path.

use crate::pushdown::{LikePattern, Predicate, PushdownSpec};
use crate::record::{write_field, RecordSplitter};
use crate::scan;
use crate::value::Value;
use crate::view::{FieldBuf, RecordView};
use scoop_common::{Result, ScoopError};
use std::borrow::Cow;
use std::cmp::Ordering;

/// A predicate with column names resolved to field indices.
#[derive(Debug, Clone)]
enum CompiledPred {
    Eq(usize, Value),
    Ne(usize, Value),
    Lt(usize, Value),
    Le(usize, Value),
    Gt(usize, Value),
    Ge(usize, Value),
    Like(usize, LikePattern),
    StartsWith(usize, String),
    EndsWith(usize, String),
    Contains(usize, String),
    In(usize, Vec<Value>),
    IsNull(usize),
    IsNotNull(usize),
    And(Box<CompiledPred>, Box<CompiledPred>),
    Or(Box<CompiledPred>, Box<CompiledPred>),
    Not(Box<CompiledPred>),
}

/// Resolve a column name against a header (case-insensitive).
fn resolve(header: &[String], name: &str) -> Result<usize> {
    header
        .iter()
        .position(|h| h.eq_ignore_ascii_case(name))
        .ok_or_else(|| ScoopError::InvalidRequest(format!("unknown pushdown column '{name}'")))
}

fn compile_pred(p: &Predicate, header: &[String]) -> Result<CompiledPred> {
    Ok(match p {
        Predicate::Eq(c, v) => CompiledPred::Eq(resolve(header, c)?, v.clone()),
        Predicate::Ne(c, v) => CompiledPred::Ne(resolve(header, c)?, v.clone()),
        Predicate::Lt(c, v) => CompiledPred::Lt(resolve(header, c)?, v.clone()),
        Predicate::Le(c, v) => CompiledPred::Le(resolve(header, c)?, v.clone()),
        Predicate::Gt(c, v) => CompiledPred::Gt(resolve(header, c)?, v.clone()),
        Predicate::Ge(c, v) => CompiledPred::Ge(resolve(header, c)?, v.clone()),
        Predicate::Like(c, s) => CompiledPred::Like(resolve(header, c)?, LikePattern::new(s)),
        Predicate::StartsWith(c, s) => CompiledPred::StartsWith(resolve(header, c)?, s.clone()),
        Predicate::EndsWith(c, s) => CompiledPred::EndsWith(resolve(header, c)?, s.clone()),
        Predicate::Contains(c, s) => CompiledPred::Contains(resolve(header, c)?, s.clone()),
        Predicate::In(c, vs) => CompiledPred::In(resolve(header, c)?, vs.clone()),
        Predicate::IsNull(c) => CompiledPred::IsNull(resolve(header, c)?),
        Predicate::IsNotNull(c) => CompiledPred::IsNotNull(resolve(header, c)?),
        Predicate::And(a, b) => CompiledPred::And(
            Box::new(compile_pred(a, header)?),
            Box::new(compile_pred(b, header)?),
        ),
        Predicate::Or(a, b) => CompiledPred::Or(
            Box::new(compile_pred(a, header)?),
            Box::new(compile_pred(b, header)?),
        ),
        Predicate::Not(a) => CompiledPred::Not(Box::new(compile_pred(a, header)?)),
    })
}

/// Compare a raw field with a literal under the NULL/coercion rules above.
fn cmp_field(field: &str, lit: &Value) -> Option<Ordering> {
    if field.is_empty() {
        return None;
    }
    match lit {
        Value::Null => None,
        Value::Int(_) | Value::Float(_) => {
            let f = field.parse::<f64>().ok()?;
            f.partial_cmp(&lit.as_f64()?)
        }
        Value::Str(s) => Some(field.cmp(s.as_str())),
    }
}

/// Field equality under the same rules.
fn eq_field(field: &str, lit: &Value) -> bool {
    cmp_field(field, lit) == Some(Ordering::Equal)
}

impl CompiledPred {
    /// Evaluate with a field accessor (absent fields read as NULL/empty).
    /// Generic so both the legacy slice path and the zero-copy view path
    /// monomorphize to direct code.
    fn eval_with<'a, F>(&self, get: &F) -> bool
    where
        F: Fn(usize) -> Cow<'a, str>,
    {
        match self {
            CompiledPred::Eq(i, v) => eq_field(&get(*i), v),
            CompiledPred::Ne(i, v) => {
                // SQL: NULL <> x is unknown → false.
                matches!(cmp_field(&get(*i), v), Some(o) if o != Ordering::Equal)
            }
            CompiledPred::Lt(i, v) => cmp_field(&get(*i), v) == Some(Ordering::Less),
            CompiledPred::Le(i, v) => {
                matches!(cmp_field(&get(*i), v), Some(Ordering::Less | Ordering::Equal))
            }
            CompiledPred::Gt(i, v) => cmp_field(&get(*i), v) == Some(Ordering::Greater),
            CompiledPred::Ge(i, v) => {
                matches!(cmp_field(&get(*i), v), Some(Ordering::Greater | Ordering::Equal))
            }
            CompiledPred::Like(i, p) => {
                let f = get(*i);
                !f.is_empty() && p.matches(f.as_bytes())
            }
            CompiledPred::StartsWith(i, p) => {
                let f = get(*i);
                !f.is_empty() && f.starts_with(p.as_str())
            }
            CompiledPred::EndsWith(i, p) => {
                let f = get(*i);
                !f.is_empty() && f.ends_with(p.as_str())
            }
            CompiledPred::Contains(i, p) => {
                let f = get(*i);
                !f.is_empty() && f.contains(p.as_str())
            }
            CompiledPred::In(i, vs) => {
                let f = get(*i);
                vs.iter().any(|v| eq_field(&f, v))
            }
            CompiledPred::IsNull(i) => get(*i).is_empty(),
            CompiledPred::IsNotNull(i) => !get(*i).is_empty(),
            CompiledPred::And(a, b) => a.eval_with(get) && b.eval_with(get),
            CompiledPred::Or(a, b) => a.eval_with(get) || b.eval_with(get),
            CompiledPred::Not(a) => !a.eval_with(get),
        }
    }

    /// Largest field index this predicate reads.
    fn max_index(&self, m: &mut usize) {
        match self {
            CompiledPred::Eq(i, _)
            | CompiledPred::Ne(i, _)
            | CompiledPred::Lt(i, _)
            | CompiledPred::Le(i, _)
            | CompiledPred::Gt(i, _)
            | CompiledPred::Ge(i, _)
            | CompiledPred::Like(i, _)
            | CompiledPred::StartsWith(i, _)
            | CompiledPred::EndsWith(i, _)
            | CompiledPred::Contains(i, _)
            | CompiledPred::In(i, _)
            | CompiledPred::IsNull(i)
            | CompiledPred::IsNotNull(i) => *m = (*m).max(*i),
            CompiledPred::And(a, b) | CompiledPred::Or(a, b) => {
                a.max_index(m);
                b.max_index(m);
            }
            CompiledPred::Not(a) => a.max_index(m),
        }
    }
}

/// A [`PushdownSpec`] resolved against a concrete file schema, ready for
/// record-rate evaluation.
#[derive(Debug, Clone)]
pub struct CompiledSpec {
    /// Projected field indices in output order; `None` = all fields.
    projection: Option<Vec<usize>>,
    pred: Option<CompiledPred>,
    /// Number of leading fields selection + projection actually read; the
    /// per-record parse stops there.
    parse_bound: usize,
    /// Whether the object's first record is a header row.
    pub has_header: bool,
}

impl CompiledSpec {
    /// Resolve `spec` against the object's column list (in file order).
    pub fn compile(spec: &PushdownSpec, header: &[String]) -> Result<CompiledSpec> {
        let projection = match &spec.columns {
            None => None,
            Some(cols) => Some(
                cols.iter()
                    .map(|c| resolve(header, c))
                    .collect::<Result<Vec<usize>>>()?,
            ),
        };
        let pred = spec
            .predicate
            .as_ref()
            .map(|p| compile_pred(p, header))
            .transpose()?;
        let mut max = None::<usize>;
        if let Some(p) = &pred {
            let mut m = 0;
            p.max_index(&mut m);
            max = Some(m);
        }
        if let Some(idx) = &projection {
            for &i in idx {
                max = Some(max.map_or(i, |m| m.max(i)));
            }
        }
        let parse_bound = max.map_or(0, |m| m.saturating_add(1));
        Ok(CompiledSpec { projection, pred, parse_bound, has_header: spec.has_header })
    }

    /// How many leading fields of a record selection and projection read:
    /// a [`FieldBuf::parse_bounded`] to this bound is all
    /// [`CompiledSpec::matches_view`] needs.
    pub fn parse_bound(&self) -> usize {
        self.parse_bound
    }

    /// Evaluate the selection on parsed fields.
    pub fn matches(&self, fields: &[Cow<'_, str>]) -> bool {
        self.pred.as_ref().is_none_or(|p| {
            p.eval_with(&|i| Cow::Borrowed(fields.get(i).map(|c| c.as_ref()).unwrap_or("")))
        })
    }

    /// Evaluate the selection on a zero-copy record view.
    pub fn matches_view(&self, view: &RecordView<'_, '_>) -> bool {
        self.pred
            .as_ref()
            .is_none_or(|p| p.eval_with(&|i| view.text(i).unwrap_or(Cow::Borrowed(""))))
    }

    /// Parse a raw record; when it passes selection, append the projected
    /// record to `out` and return true. Allocation-free except for malformed
    /// (escaped/stray) fields; `buf` is the caller's reusable parse state.
    pub fn filter_record_buf(&self, record: &[u8], buf: &mut FieldBuf, out: &mut Vec<u8>) -> bool {
        let view = buf.parse_bounded(record, self.parse_bound);
        if !self.matches_view(&view) {
            return false;
        }
        match &self.projection {
            None => {
                out.extend_from_slice(record);
                out.push(b'\n');
            }
            Some(idx) => {
                // A single projected NULL field must not serialize to a
                // blank line (readers skip those): quote it, matching
                // `record::write_record`.
                if idx.len() == 1
                    && view.bytes(idx[0]).map(|b| b.is_empty()).unwrap_or(true)
                {
                    out.extend_from_slice(b"\"\"\n");
                    return true;
                }
                for (k, &i) in idx.iter().enumerate() {
                    if k > 0 {
                        out.push(b',');
                    }
                    emit_field(&view, i, out);
                }
                out.push(b'\n');
            }
        }
        true
    }
}

/// Append field `i` of `view` to `out`, preserving the original bytes
/// whenever their raw form is safe to re-parse.
fn emit_field(view: &RecordView<'_, '_>, i: usize, out: &mut Vec<u8>) {
    let Some(span) = view.span(i) else {
        return; // absent field → empty
    };
    let raw = &view.raw()[span.start..span.end];
    if span.quoted {
        if span.is_simple() {
            // Cleanly quoted in the input: ship the original bytes, quotes
            // and all.
            out.extend_from_slice(raw);
            return;
        }
    } else if scan::find_byte2(raw, b'"', b'\r').is_none() {
        // Plain field with no byte that could confuse a re-parse (commas and
        // newlines cannot occur inside an unquoted span by construction).
        out.extend_from_slice(raw);
        return;
    }
    // Malformed or risky raw form: re-render with canonical quoting. For a
    // well-formed doubled-quote escape this reproduces the input bytes
    // exactly; only RFC-violating fields are normalized.
    if let Some(t) = view.text(i) {
        write_field(out, &t);
    }
}

/// Cumulative statistics from a [`StreamFilter`] run; the storlet engine
/// reports these for resource accounting and selectivity measurement.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FilterStats {
    /// Raw bytes consumed (including records that were discarded).
    pub bytes_in: u64,
    /// Filtered bytes produced.
    pub bytes_out: u64,
    /// Records examined (excluding a consumed header row).
    pub records_in: u64,
    /// Records that passed selection.
    pub records_out: u64,
}

impl FilterStats {
    /// Fraction of input bytes discarded — the paper's "query data selectivity".
    pub fn data_selectivity(&self) -> f64 {
        if self.bytes_in == 0 {
            0.0
        } else {
            1.0 - self.bytes_out as f64 / self.bytes_in as f64
        }
    }
}

/// Stateful, chunk-at-a-time filter over a CSV byte stream.
///
/// Drives [`RecordSplitter`] + [`CompiledSpec`]; this is the storlet's
/// `invoke()` body. When `consume_header` is true the first record of the
/// stream is treated as the header row and dropped (the compute side already
/// knows the schema; pushdown responses carry pure data records).
pub struct StreamFilter {
    compiled: CompiledSpec,
    splitter: RecordSplitter,
    fields: FieldBuf,
    header_pending: bool,
    stats: FilterStats,
}

impl StreamFilter {
    /// Create a filter. `range_starts_at_zero` tells the filter whether the
    /// header row (if the object has one) is present at the stream start.
    pub fn new(compiled: CompiledSpec, range_starts_at_zero: bool) -> Self {
        let header_pending = compiled.has_header && range_starts_at_zero;
        StreamFilter {
            compiled,
            splitter: RecordSplitter::new(),
            fields: FieldBuf::default(),
            header_pending,
            stats: FilterStats::default(),
        }
    }

    /// Feed a chunk; filtered output is appended to `out`. Fails when a
    /// single record exceeds the splitter's record-size cap.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<u8>) -> Result<()> {
        self.stats.bytes_in += chunk.len() as u64;
        let compiled = &self.compiled;
        let fields = &mut self.fields;
        let stats = &mut self.stats;
        let header_pending = &mut self.header_pending;
        let before = out.len();
        let res = self.splitter.push(chunk, |record| {
            if *header_pending {
                *header_pending = false;
                return;
            }
            stats.records_in += 1;
            if compiled.filter_record_buf(record, fields, out) {
                stats.records_out += 1;
            }
        });
        self.stats.bytes_out += (out.len() - before) as u64;
        res
    }

    /// Flush the trailing record and return cumulative statistics.
    pub fn finish(self, out: &mut Vec<u8>) -> FilterStats {
        let StreamFilter { compiled, splitter, mut fields, mut header_pending, mut stats } = self;
        let before = out.len();
        splitter.finish(|record| {
            if header_pending {
                header_pending = false;
                return;
            }
            stats.records_in += 1;
            if compiled.filter_record_buf(record, &mut fields, out) {
                stats.records_out += 1;
            }
        });
        stats.bytes_out += (out.len() - before) as u64;
        stats
    }
}

/// Convenience: filter an entire in-memory buffer.
///
/// ```
/// use scoop_csv::{filter::filter_buffer, Predicate, PushdownSpec, Value};
/// let spec = PushdownSpec {
///     columns: Some(vec!["vid".into()]),
///     predicate: Some(Predicate::Eq("city".into(), Value::Str("Paris".into()))),
///     has_header: true,
/// };
/// let header = vec!["vid".to_string(), "city".to_string()];
/// let data = b"vid,city\nm1,Paris\nm2,Nice\n";
/// let (out, stats) = filter_buffer(&spec, &header, data, true).unwrap();
/// assert_eq!(out, b"m1\n");
/// assert_eq!(stats.records_out, 1);
/// ```
pub fn filter_buffer(
    spec: &PushdownSpec,
    header: &[String],
    data: &[u8],
    range_starts_at_zero: bool,
) -> Result<(Vec<u8>, FilterStats)> {
    let compiled = CompiledSpec::compile(spec, header)?;
    let mut f = StreamFilter::new(compiled, range_starts_at_zero);
    let mut out = Vec::new();
    f.push(data, &mut out)?;
    let stats = f.finish(&mut out);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Vec<String> {
        ["vid", "date", "index", "city", "state"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    const DATA: &[u8] = b"vid,date,index,city,state\n\
        m1,2015-01-03 10:00:00,100.5,Rotterdam,NLD\n\
        m2,2015-01-04 11:00:00,200.0,Paris,FRA\n\
        m3,2015-02-01 09:00:00,50.0,Utrecht,NLD\n\
        m4,2015-01-09 09:30:00,,Rotterdam,NLD\n";

    fn run(spec: PushdownSpec) -> (String, FilterStats) {
        let (out, stats) = filter_buffer(&spec, &header(), DATA, true).unwrap();
        (String::from_utf8(out).unwrap(), stats)
    }

    #[test]
    fn passthrough_drops_only_header() {
        let (out, stats) = run(PushdownSpec {
            has_header: true,
            ..PushdownSpec::passthrough()
        });
        assert_eq!(out.lines().count(), 4);
        assert_eq!(stats.records_in, 4);
        assert_eq!(stats.records_out, 4);
        assert!(!out.contains("vid,date"));
    }

    #[test]
    fn like_selection_on_date() {
        let spec = PushdownSpec {
            columns: None,
            predicate: Some(Predicate::Like("date".into(), "2015-01%".into())),
            has_header: true,
        };
        let (out, stats) = run(spec);
        assert_eq!(stats.records_out, 3);
        assert!(!out.contains("2015-02"));
    }

    #[test]
    fn projection_reorders_columns() {
        let spec = PushdownSpec {
            columns: Some(vec!["index".into(), "vid".into()]),
            predicate: Some(Predicate::Eq("city".into(), Value::Str("Paris".into()))),
            has_header: true,
        };
        let (out, _) = run(spec);
        assert_eq!(out, "200.0,m2\n");
    }

    #[test]
    fn numeric_comparison_and_null_semantics() {
        let gt = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Gt("index".into(), Value::Float(99.0))),
            has_header: true,
        };
        let (out, _) = run(gt);
        // m4's empty index is NULL → excluded even though Rotterdam.
        assert_eq!(out, "m1\nm2\n");

        let isnull = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::IsNull("index".into())),
            has_header: true,
        };
        assert_eq!(run(isnull).0, "m4\n");

        // NOT (index > 99) still excludes NULL under... note: our NOT is
        // boolean (two-valued), so NULL rows *pass* NOT. Catalyst never pushes
        // NOT over nullable comparisons for this reason; the planner in
        // scoop-sql mirrors that restriction.
        let ne = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Ne("index".into(), Value::Float(100.5))),
            has_header: true,
        };
        assert_eq!(run(ne).0, "m2\nm3\n");
    }

    #[test]
    fn in_and_string_ops() {
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::In(
                "state".into(),
                vec![Value::Str("FRA".into()), Value::Str("DEU".into())],
            )),
            has_header: true,
        };
        assert_eq!(run(spec).0, "m2\n");

        let sw = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::StartsWith("city".into(), "Rot".into())),
            has_header: true,
        };
        assert_eq!(run(sw).0, "m1\nm4\n");

        let ct = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Contains("city".into(), "tre".into())),
            has_header: true,
        };
        assert_eq!(run(ct).0, "m3\n");
    }

    #[test]
    fn selectivity_reported() {
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into()]),
            predicate: Some(Predicate::Eq("vid".into(), Value::Str("m1".into()))),
            has_header: true,
        };
        let (_, stats) = run(spec);
        assert!(stats.data_selectivity() > 0.9, "{stats:?}");
        assert_eq!(stats.records_in, 4);
        assert_eq!(stats.records_out, 1);
    }

    #[test]
    fn range_not_at_zero_keeps_all_records() {
        // When the byte range starts mid-object there is no header to drop.
        let body = b"m9,2015-01-01 00:00:00,1.0,Nice,FRA\n";
        let spec = PushdownSpec { has_header: true, ..Default::default() };
        let (out, stats) = filter_buffer(&spec, &header(), body, false).unwrap();
        assert_eq!(out, body);
        assert_eq!(stats.records_in, 1);
    }

    #[test]
    fn unknown_column_fails_compile() {
        let spec = PushdownSpec {
            columns: Some(vec!["ghost".into()]),
            predicate: None,
            has_header: true,
        };
        assert!(CompiledSpec::compile(&spec, &header()).is_err());
    }

    #[test]
    fn chunked_push_equals_whole_buffer() {
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "city".into()]),
            predicate: Some(Predicate::Like("date".into(), "2015-01%".into())),
            has_header: true,
        };
        let (whole, ws) = filter_buffer(&spec, &header(), DATA, true).unwrap();
        for chunk in [1usize, 3, 8, 17] {
            let compiled = CompiledSpec::compile(&spec, &header()).unwrap();
            let mut f = StreamFilter::new(compiled, true);
            let mut out = Vec::new();
            for c in DATA.chunks(chunk) {
                f.push(c, &mut out).unwrap();
            }
            let stats = f.finish(&mut out);
            assert_eq!(out, whole, "chunk={chunk}");
            assert_eq!(stats.records_out, ws.records_out);
            assert_eq!(stats.bytes_in, ws.bytes_in);
            assert_eq!(stats.bytes_out, ws.bytes_out);
        }
    }

    /// The byte-fidelity contract: every record (and projected field) in the
    /// output is an untouched slice of the input.
    #[test]
    fn output_round_trips_original_bytes() {
        // `2` must not become `2.0`; original quoting must survive.
        let header: Vec<String> = ["id", "val", "note"].iter().map(|s| s.to_string()).collect();
        let data: &[u8] = b"id,val,note\n\
            a,2,\"Rot,terdam\"\n\
            b,3.50,\"say \"\"hi\"\"\"\n\
            c,2,plain\n";
        let spec = PushdownSpec {
            columns: None,
            predicate: Some(Predicate::Eq("val".into(), Value::Int(2))),
            has_header: true,
        };
        let (out, _) = filter_buffer(&spec, &header, data, true).unwrap();
        assert_eq!(out, b"a,2,\"Rot,terdam\"\nc,2,plain\n".to_vec());
        // Every output record is a verbatim sub-slice of the input.
        for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            assert!(
                data.windows(line.len()).any(|w| w == line),
                "output record {:?} not found in input",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn projection_preserves_original_field_bytes() {
        let header: Vec<String> = ["id", "val", "note"].iter().map(|s| s.to_string()).collect();
        let data: &[u8] = b"id,val,note\n\
            a,2,\"Rot,terdam\"\n\
            b,007,\"say \"\"hi\"\"\"\n";
        let spec = PushdownSpec {
            columns: Some(vec!["note".into(), "val".into()]),
            predicate: None,
            has_header: true,
        };
        let (out, _) = filter_buffer(&spec, &header, data, true).unwrap();
        // Quoted fields keep their exact original rendering (including the
        // doubled-quote escape), numerics keep leading zeros.
        assert_eq!(out, b"\"Rot,terdam\",2\n\"say \"\"hi\"\"\",007\n".to_vec());
    }
}
