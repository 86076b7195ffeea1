//! Pushdown filter evaluation over raw CSV records.
//!
//! This is the code the CSV storlet executes at storage nodes: it resolves the
//! [`PushdownSpec`]'s column names against the object schema, then streams
//! records through selection + projection, emitting filtered CSV. The one
//! driver of that loop is [`FilterDriver`]; the storlet and
//! [`filter_buffer`] both run it. The compute side's vanilla scan and the
//! connector's fallback filter select with the same [`CompiledSpec::select`].
//!
//! ## NULL semantics
//!
//! An empty CSV field is NULL. What each leaf answers on a field, NULL
//! included, is [`crate::predicate`]'s, exactly matching the typed
//! evaluation in `scoop-sql`, which is what makes pushdown transparent.

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
//! ## Field-ordered selection
//!
//! A record is read only as far as its verdict needs. The predicate's
//! top-level conjuncts are tested in the order of the last field each reads,
//! and the record is tokenised (with the SWAR scanner, into a reusable
//! [`FieldBuf`]) only up to the field the next conjunct reads: a Table I
//! record that fails `date LIKE '2015-01%'` is dropped after two fields,
//! however far the projection or a second conjunct reaches. Only survivors
//! are tokenised on to the projection. The conjuncts are side-effect free
//! and two-valued, so their order does not change the verdict.
//!
//! ## Byte leaves
//!
//! A leaf reads a field's borrowed bytes; no `String` or `Value` is made per
//! field. Its answer is [`crate::predicate::Test::on`] of the field's *lossy*
//! UTF-8 text, because that is what the compute side types a `Str` from: an
//! ASCII field is its own text and is tested as it stands, and a non-ASCII
//! field is tested through `String::from_utf8_lossy`.

use crate::predicate::Tree;
use crate::pushdown::{Predicate, PushdownSpec};
use crate::record::write_field;
use crate::scan;
use crate::split::RangedRecordStream;
use crate::view::{FieldBuf, RecordView};
use bytes::Bytes;
use scoop_common::stream::{self, DEFAULT_CHUNK};
use scoop_common::{ByteStream, Result, ScoopError};
use std::borrow::Cow;

/// Resolve a column name against a header (case-insensitive).
fn resolve(header: &[String], name: &str) -> Result<usize> {
    header
        .iter()
        .position(|h| h.eq_ignore_ascii_case(name))
        .ok_or_else(|| ScoopError::InvalidRequest(format!("unknown pushdown column '{name}'")))
}

/// A predicate with column names resolved to field indices.
type CompiledPred = Tree<usize>;

impl CompiledPred {
    /// Evaluate on a view tokenised at least to [`CompiledPred::fields`]. A
    /// leaf reads its field's lossy text, which an ASCII field is as it
    /// stands; an absent field reads as NULL.
    fn eval(&self, view: &RecordView<'_, '_>) -> bool {
        match self {
            Tree::Leaf(field, test) => {
                let raw = view.bytes(*field).unwrap_or(Cow::Borrowed(&[]));
                if raw.is_empty() {
                    test.on_null()
                } else if raw.is_ascii() {
                    test.on(&*raw)
                } else {
                    test.on(String::from_utf8_lossy(&raw).as_bytes())
                }
            }
            Tree::And(a, b) => a.eval(view) && b.eval(view),
            Tree::Or(a, b) => a.eval(view) || b.eval(view),
            Tree::Not(a) => !a.eval(view),
        }
    }

    /// How many leading fields the predicate reads.
    fn fields(&self) -> usize {
        match self {
            Tree::Leaf(field, _) => field.saturating_add(1),
            Tree::And(a, b) | Tree::Or(a, b) => a.fields().max(b.fields()),
            Tree::Not(a) => a.fields(),
        }
    }

    /// Append the operands of the top-level `And`s to `out`.
    fn conjuncts(self, out: &mut Vec<CompiledPred>) {
        match self {
            Tree::And(a, b) => {
                a.conjuncts(out);
                b.conjuncts(out);
            }
            other => out.push(other),
        }
    }
}

/// A [`PushdownSpec`] resolved against a concrete file schema, ready for
/// record-rate evaluation.
#[derive(Debug, Clone)]
pub struct CompiledSpec {
    /// Projected field indices in output order; `None` = the whole record.
    projection: Option<Vec<usize>>,
    /// The predicate's top-level conjuncts, each with the number of leading
    /// fields it reads, in that order.
    conjuncts: Vec<(usize, CompiledPred)>,
    /// Leading fields a survivor is tokenised through (none when the record
    /// is emitted whole).
    projected_fields: usize,
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
        let fields = projection.iter().flatten().max().map_or(0, |m| m.saturating_add(1));
        let mut compiled = CompiledSpec::selection(spec.predicate.as_ref(), header, fields)?;
        compiled.projection = projection;
        compiled.has_header = spec.has_header;
        Ok(compiled)
    }

    /// Resolve a predicate alone, for a caller that projects survivors
    /// itself: [`CompiledSpec::select`] tokenises each survivor through its
    /// first `fields` fields, and [`CompiledSpec::filter_record_buf`] emits
    /// it whole.
    pub fn selection(
        predicate: Option<&Predicate>,
        header: &[String],
        fields: usize,
    ) -> Result<CompiledSpec> {
        let mut flat = Vec::new();
        if let Some(p) = predicate {
            Tree::compile(p, &mut |name| resolve(header, name))?.conjuncts(&mut flat);
        }
        let mut conjuncts: Vec<(usize, CompiledPred)> =
            flat.into_iter().map(|c| (c.fields(), c)).collect();
        conjuncts.sort_by_key(|(fields, _)| *fields);
        Ok(CompiledSpec { projection: None, conjuncts, projected_fields: fields, has_header: false })
    }

    /// The selection on one record: `None` when it fails, else the record's
    /// view tokenised through every field the projection reads.
    ///
    /// The conjuncts run in field order and the record is tokenised only as
    /// far as the next one reads, so a record that fails early costs only
    /// its leading fields. `buf` is the caller's reusable parse state.
    pub fn select<'r, 'b>(
        &self,
        record: &'r [u8],
        buf: &'b mut FieldBuf,
    ) -> Option<RecordView<'r, 'b>> {
        let mut tokenised = None;
        for (fields, pred) in &self.conjuncts {
            if tokenised.is_none_or(|t| *fields > t) {
                tokenised = Some(*fields);
                buf.parse_bounded(record, *fields);
            }
            if !pred.eval(&buf.view(record)) {
                return None;
            }
        }
        if tokenised.is_none_or(|t| self.projected_fields > t) {
            buf.parse_bounded(record, self.projected_fields);
        }
        Some(buf.view(record))
    }

    /// Run [`CompiledSpec::select`] on a raw record; when it passes, append
    /// the projected record to `out` and return true. Allocation-free except
    /// for malformed (escaped/stray) fields and leaves that need the lossy
    /// text of a non-ASCII field.
    pub fn filter_record_buf(&self, record: &[u8], buf: &mut FieldBuf, out: &mut Vec<u8>) -> bool {
        let Some(view) = self.select(record, buf) else {
            return false;
        };
        emit_record(&view, self.projection.as_deref(), out);
        true
    }
}

/// Append a selected record to `out`: whole, or its projected fields.
fn emit_record(view: &RecordView<'_, '_>, projection: Option<&[usize]>, out: &mut Vec<u8>) {
    let Some(idx) = projection else {
        // A reader trims one `\r` before the `\n`, so a record that ends in
        // `\r` (its line ended `\r\r\n`) ships that ending whole.
        let raw = view.raw();
        out.extend_from_slice(raw);
        if raw.last() == Some(&b'\r') {
            out.push(b'\r');
        }
        out.push(b'\n');
        return;
    };
    // A single projected NULL field must not serialize to a blank line
    // (readers skip those): quote it, matching `record::write_record`.
    if let &[only] = idx {
        if view.bytes(only).is_none_or(|b| b.is_empty()) {
            out.extend_from_slice(b"\"\"\n");
            return;
        }
    }
    for (k, &i) in idx.iter().enumerate() {
        if k > 0 {
            out.push(b',');
        }
        emit_field(view, i, out);
    }
    out.push(b'\n');
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

/// Cumulative statistics from a [`FilterDriver`] run; the storlet engine
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

/// The one CSV filter driver: the records a [`RangedRecordStream`] owns,
/// through [`CompiledSpec::filter_record_buf`], each selected inside the
/// input chunk it arrived in. The `csvfilter` storlet streams its output
/// through it, and [`filter_buffer`] runs it over a whole buffer. A range
/// that starts at the object's first byte of an object with a header row
/// drops that row: the compute side already knows the schema, and pushdown
/// responses carry pure data records.
pub struct FilterDriver {
    records: RangedRecordStream,
    compiled: CompiledSpec,
    /// Reusable per-record parse state (field span table).
    fields: FieldBuf,
    /// True while the object's header record is still to be consumed.
    header_pending: bool,
}

impl FilterDriver {
    /// Filter `records`; `at_object_start` tells whether the range starts
    /// at the object's first byte, where its header row (if any) is.
    pub fn new(records: RangedRecordStream, compiled: CompiledSpec, at_object_start: bool) -> Self {
        let header_pending = compiled.has_header && at_object_start;
        FilterDriver { records, compiled, fields: FieldBuf::default(), header_pending }
    }

    /// Filter input chunks until this call has appended [`DEFAULT_CHUNK`]
    /// bytes to `out` or the range is exhausted, adding what it read and
    /// wrote to `stats`. Returns `Ok(true)` while more output may follow. An
    /// error — of the input, or a record past the splitter's size cap — is
    /// returned once, after the counters of the chunks before it are added.
    pub fn fill(&mut self, out: &mut Vec<u8>, stats: &mut FilterStats) -> Result<bool> {
        let FilterDriver { records, compiled, fields, header_pending } = self;
        let (read_from, before) = (records.offset(), out.len());
        let mut more = Ok(true);
        while matches!(more, Ok(true)) && out.len().saturating_sub(before) < DEFAULT_CHUNK {
            more = records.next_chunk(|record| {
                if std::mem::take(header_pending) {
                    return;
                }
                stats.records_in = stats.records_in.saturating_add(1);
                if compiled.filter_record_buf(record, fields, out) {
                    stats.records_out = stats.records_out.saturating_add(1);
                }
            });
        }
        stats.bytes_in = stats.bytes_in.saturating_add(records.offset().saturating_sub(read_from));
        let written = out.len().saturating_sub(before) as u64;
        stats.bytes_out = stats.bytes_out.saturating_add(written);
        more
    }
}

/// Filter a whole byte stream — every record of it, from a range that
/// starts on a record boundary — into one buffer.
pub fn filter_stream(
    spec: &PushdownSpec,
    header: &[String],
    input: ByteStream,
    range_starts_at_zero: bool,
) -> Result<(Vec<u8>, FilterStats)> {
    let compiled = CompiledSpec::compile(spec, header)?;
    let records = RangedRecordStream::new(input, 0, None);
    let mut filter = FilterDriver::new(records, compiled, range_starts_at_zero);
    let (mut out, mut stats) = (Vec::new(), FilterStats::default());
    while filter.fill(&mut out, &mut stats)? {}
    Ok((out, stats))
}

/// Convenience: filter an entire in-memory buffer through
/// [`filter_stream`].
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
    filter_stream(spec, header, stream::once(Bytes::copy_from_slice(data)), range_starts_at_zero)
}

/// The evaluator [`CompiledSpec::select`] replaced, kept as the oracle of the
/// differential tests: each record tokenised once to the last field the
/// selection or the projection reads, the predicate walked in tree order,
/// every leaf on the field's lossy UTF-8 text. Survivors go through the same
/// `emit_record`, so byte-identical output checks that `select` tokenised
/// them as far as the projection reads.
#[cfg(test)]
mod reference {
    use super::{emit_record, resolve};
    use crate::pushdown::{LikePattern, Predicate, PushdownSpec};
    use crate::value::Value;
    use crate::view::{FieldBuf, RecordView};
    use scoop_common::Result;
    use std::borrow::Cow;
    use std::cmp::Ordering;

    enum Pred {
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
        And(Box<Pred>, Box<Pred>),
        Or(Box<Pred>, Box<Pred>),
        Not(Box<Pred>),
    }

    fn compile_pred(p: &Predicate, header: &[String]) -> Result<Pred> {
        let r = |c: &str| resolve(header, c);
        Ok(match p {
            Predicate::Eq(c, v) => Pred::Eq(r(c)?, v.clone()),
            Predicate::Ne(c, v) => Pred::Ne(r(c)?, v.clone()),
            Predicate::Lt(c, v) => Pred::Lt(r(c)?, v.clone()),
            Predicate::Le(c, v) => Pred::Le(r(c)?, v.clone()),
            Predicate::Gt(c, v) => Pred::Gt(r(c)?, v.clone()),
            Predicate::Ge(c, v) => Pred::Ge(r(c)?, v.clone()),
            Predicate::Like(c, s) => Pred::Like(r(c)?, LikePattern::new(s)),
            Predicate::StartsWith(c, s) => Pred::StartsWith(r(c)?, s.clone()),
            Predicate::EndsWith(c, s) => Pred::EndsWith(r(c)?, s.clone()),
            Predicate::Contains(c, s) => Pred::Contains(r(c)?, s.clone()),
            Predicate::In(c, vs) => Pred::In(r(c)?, vs.clone()),
            Predicate::IsNull(c) => Pred::IsNull(r(c)?),
            Predicate::IsNotNull(c) => Pred::IsNotNull(r(c)?),
            Predicate::And(a, b) => {
                Pred::And(Box::new(compile_pred(a, header)?), Box::new(compile_pred(b, header)?))
            }
            Predicate::Or(a, b) => {
                Pred::Or(Box::new(compile_pred(a, header)?), Box::new(compile_pred(b, header)?))
            }
            Predicate::Not(a) => Pred::Not(Box::new(compile_pred(a, header)?)),
        })
    }

    fn cmp_field(field: &str, lit: &Value) -> Option<Ordering> {
        if field.is_empty() {
            return None;
        }
        match lit {
            Value::Null => None,
            Value::Int(_) | Value::Float(_) => field.parse::<f64>().ok()?.partial_cmp(&lit.as_f64()?),
            Value::Str(s) => Some(field.cmp(s.as_str())),
        }
    }

    fn eq_field(field: &str, lit: &Value) -> bool {
        cmp_field(field, lit) == Some(Ordering::Equal)
    }

    impl Pred {
        fn eval(&self, view: &RecordView<'_, '_>) -> bool {
            let get = |i: usize| view.text(i).unwrap_or(Cow::Borrowed(""));
            match self {
                Pred::Eq(i, v) => eq_field(&get(*i), v),
                Pred::Ne(i, v) => matches!(cmp_field(&get(*i), v), Some(o) if o != Ordering::Equal),
                Pred::Lt(i, v) => cmp_field(&get(*i), v) == Some(Ordering::Less),
                Pred::Le(i, v) => {
                    matches!(cmp_field(&get(*i), v), Some(Ordering::Less | Ordering::Equal))
                }
                Pred::Gt(i, v) => cmp_field(&get(*i), v) == Some(Ordering::Greater),
                Pred::Ge(i, v) => {
                    matches!(cmp_field(&get(*i), v), Some(Ordering::Greater | Ordering::Equal))
                }
                Pred::Like(i, p) => {
                    let f = get(*i);
                    !f.is_empty() && p.matches(f.as_bytes())
                }
                Pred::StartsWith(i, p) => {
                    let f = get(*i);
                    !f.is_empty() && f.starts_with(p.as_str())
                }
                Pred::EndsWith(i, p) => {
                    let f = get(*i);
                    !f.is_empty() && f.ends_with(p.as_str())
                }
                Pred::Contains(i, p) => {
                    let f = get(*i);
                    !f.is_empty() && f.contains(p.as_str())
                }
                Pred::In(i, vs) => {
                    let f = get(*i);
                    vs.iter().any(|v| eq_field(&f, v))
                }
                Pred::IsNull(i) => get(*i).is_empty(),
                Pred::IsNotNull(i) => !get(*i).is_empty(),
                Pred::And(a, b) => a.eval(view) && b.eval(view),
                Pred::Or(a, b) => a.eval(view) || b.eval(view),
                Pred::Not(a) => !a.eval(view),
            }
        }

        fn max_index(&self, m: &mut usize) {
            match self {
                Pred::Eq(i, _)
                | Pred::Ne(i, _)
                | Pred::Lt(i, _)
                | Pred::Le(i, _)
                | Pred::Gt(i, _)
                | Pred::Ge(i, _)
                | Pred::Like(i, _)
                | Pred::StartsWith(i, _)
                | Pred::EndsWith(i, _)
                | Pred::Contains(i, _)
                | Pred::In(i, _)
                | Pred::IsNull(i)
                | Pred::IsNotNull(i) => *m = (*m).max(*i),
                Pred::And(a, b) | Pred::Or(a, b) => {
                    a.max_index(m);
                    b.max_index(m);
                }
                Pred::Not(a) => a.max_index(m),
            }
        }
    }

    /// A spec compiled the old way.
    pub(super) struct Reference {
        projection: Option<Vec<usize>>,
        pred: Option<Pred>,
        parse_bound: usize,
    }

    impl Reference {
        pub(super) fn compile(spec: &PushdownSpec, header: &[String]) -> Result<Reference> {
            let projection = match &spec.columns {
                None => None,
                Some(cols) => Some(cols.iter().map(|c| resolve(header, c)).collect::<Result<_>>()?),
            };
            let pred = spec.predicate.as_ref().map(|p| compile_pred(p, header)).transpose()?;
            let mut max = pred.as_ref().map(|p| {
                let mut m = 0;
                p.max_index(&mut m);
                m
            });
            for &i in projection.iter().flatten() {
                max = Some(max.map_or(i, |m: usize| m.max(i)));
            }
            let parse_bound = max.map_or(0, |m| m + 1);
            Ok(Reference { projection, pred, parse_bound })
        }

        /// The old `filter_record_buf`.
        pub(super) fn filter_record(&self, record: &[u8], buf: &mut FieldBuf, out: &mut Vec<u8>) -> bool {
            let view = buf.parse_bounded(record, self.parse_bound);
            if !self.pred.as_ref().is_none_or(|p| p.eval(&view)) {
                return false;
            }
            emit_record(&view, self.projection.as_deref(), out);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

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
            let input = stream::chunked(Bytes::from_static(DATA), chunk);
            let (out, stats) = filter_stream(&spec, &header(), input, true).unwrap();
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

    #[test]
    fn conjuncts_run_in_field_order_and_stop_at_the_first_false() {
        // Written city-first; `select` tests date (field 1) first and stops
        // there for a record from February.
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "state".into()]),
            predicate: Some(Predicate::And(
                Box::new(Predicate::Eq("city".into(), Value::Str("Rotterdam".into()))),
                Box::new(Predicate::Like("date".into(), "2015-01%".into())),
            )),
            has_header: true,
        };
        let compiled = CompiledSpec::compile(&spec, &header()).unwrap();
        let mut buf = FieldBuf::default();
        let february = b"m3,2015-02-01 09:00:00,50.0,Rotterdam,NLD";
        assert!(compiled.select(february, &mut buf).is_none());
        assert_eq!(buf.view(february).len(), 2, "tokenised past the failing conjunct");
        // A January record from Paris fails on city, after field 3.
        let paris = b"m2,2015-01-04 11:00:00,200.0,Paris,FRA";
        assert!(compiled.select(paris, &mut buf).is_none());
        assert_eq!(buf.view(paris).len(), 4);
        // A survivor is tokenised on through the projection.
        let kept = b"m1,2015-01-03 10:00:00,100.5,Rotterdam,NLD";
        let view = compiled.select(kept, &mut buf).unwrap();
        assert_eq!(view.len(), 5);
        let mut out = Vec::new();
        assert!(compiled.filter_record_buf(kept, &mut buf, &mut out));
        assert_eq!(out, b"m1,NLD\n");
    }

    #[test]
    fn a_spec_without_predicate_or_projection_keeps_everything_untokenised() {
        let compiled = CompiledSpec::compile(&PushdownSpec::passthrough(), &header()).unwrap();
        let mut buf = FieldBuf::default();
        // Stale spans from a longer record must not leak into the next view.
        buf.parse(b"a,bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb,c");
        let view = compiled.select(b"x", &mut buf).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.raw(), b"x");
    }

    /// The cases where raw bytes and their lossy text disagree: the leaf
    /// must answer as the text does.
    #[test]
    fn byte_leaves_answer_as_the_lossy_text() {
        let header: Vec<String> = vec!["f".into()];
        let keeps = |pred: Predicate, field: &[u8]| {
            let spec = PushdownSpec { columns: None, predicate: Some(pred), has_header: false };
            let compiled = CompiledSpec::compile(&spec, &header).unwrap();
            compiled.select(field, &mut FieldBuf::default()).is_some()
        };
        let s = |v: &str| Value::Str(v.into());
        // A truncated `é` sorts below 'é' as bytes, above it as text (U+FFFD).
        assert!(!keeps(Predicate::Lt("f".into(), s("é")), b"\xC3"));
        assert!(keeps(Predicate::Gt("f".into(), s("é")), b"\xC3"));
        // `_` is one character: two invalid bytes are two of them.
        assert!(!keeps(Predicate::Like("f".into(), "_".into()), b"\xFF\xFF"));
        assert!(keeps(Predicate::Like("f".into(), "__".into()), b"\xFF\xFF"));
        assert!(keeps(Predicate::Like("f".into(), "caf_".into()), "café".as_bytes()));
        // A literal holding U+FFFD equals the text of an invalid byte.
        assert!(keeps(Predicate::Eq("f".into(), s("\u{FFFD}")), b"\xFF"));
        assert!(keeps(Predicate::StartsWith("f".into(), "a\u{FFFD}".into()), b"a\xFFb"));
        assert!(!keeps(Predicate::Ne("f".into(), s("a\u{FFFD}")), b"a\xC3"));
        assert!(keeps(Predicate::In("f".into(), vec![s("x"), s("\u{FFFD}")]), b"\xC3"));
        // Multibyte and invalid fields against multibyte literals.
        assert!(keeps(Predicate::Eq("f".into(), s("é")), "é".as_bytes()));
        assert!(!keeps(Predicate::Eq("f".into(), s("é")), b"\xC3"));
        assert!(keeps(Predicate::Contains("f".into(), "é".into()), b"\xFF\xC3\xA9\xFF"));
        assert!(!keeps(Predicate::EndsWith("f".into(), "é".into()), b"\xC3\xA9\xC3"));
        assert!(keeps(Predicate::Ne("f".into(), s("é")), b"\xFF"));
        // Numbers never parse out of invalid UTF-8, and quoted fields unquote.
        assert!(!keeps(Predicate::Ge("f".into(), Value::Int(0)), b"1\xFF"));
        assert!(keeps(Predicate::Eq("f".into(), Value::Float(2.5)), b"\"2.50\""));
        assert!(keeps(Predicate::Eq("f".into(), s("say \"hé\"")), "\"say \"\"hé\"\"\"".as_bytes()));
    }

    mod differential {
        use super::super::reference::Reference;
        use super::super::*;
        use crate::value::Value;
        use proptest::prelude::*;

        /// A small deterministic generator driven by the proptest seed.
        struct Lcg(u64);

        impl Lcg {
            fn below(&mut self, n: usize) -> usize {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((self.0 >> 33) % n as u64) as usize
            }

            fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
                &items[self.below(items.len())]
            }
        }

        const COLUMNS: [&str; 5] = ["a", "b", "c", "d", "e"];

        /// Field spellings as they stand in a record: ASCII, multibyte,
        /// invalid UTF-8, U+FFFD itself, quoted, `""`-escaped, stray bytes
        /// after a closing quote, an unterminated quote, risky unquoted bytes.
        const FIELDS: [&[u8]; 36] = [
            b"",
            b"a",
            b"ab",
            b"Rot",
            b"Rotterdam",
            b"2.5",
            b"2.50",
            b"007",
            b"-3",
            b"1e3",
            b"NaN",
            "é".as_bytes(),
            "café".as_bytes(),
            "Zürich".as_bytes(),
            "日本".as_bytes(),
            "é_é".as_bytes(),
            b"\xFF",
            b"a\xFF",
            b"\xFF\xFF",
            b"caf\xC3",
            b"\xC3",
            b"\xC3\xA9\xC3",
            b"1\xFF",
            "\u{FFFD}".as_bytes(),
            "a\u{FFFD}".as_bytes(),
            b"\"x,y\"",
            b"\"say \"\"hi\"\"\"",
            b"\"\"",
            b"\"a\"tail",
            "\"é\"".as_bytes(),
            b"\"\xFF\"",
            b"\"2.5\"",
            b"\"open",
            b"a\"b",
            b"x\ry",
            b"\"multi\nline\"",
        ];

        fn literal(rng: &mut Lcg) -> Value {
            match rng.below(10) {
                0..=1 => Value::Int(*rng.pick(&[-3, 0, 2, 7])),
                2..=3 => Value::Float(*rng.pick(&[2.5, -0.5, 1000.0, f64::NAN])),
                4..=8 => Value::Str(
                    (*rng.pick(&[
                        "", "a", "Rot", "2.5", "é", "café", "caf", "\u{FFFD}", "a\u{FFFD}", "日",
                        "x,y", "say \"hi\"", "Zürich",
                    ]))
                    .into(),
                ),
                _ => Value::Null,
            }
        }

        fn text(rng: &mut Lcg) -> String {
            rng.pick(&["", "a", "Rot", "é", "caf", "\u{FFFD}", "本", "2."]).to_string()
        }

        /// A random predicate: every leaf kind, nested `And` / `Or` / `Not`.
        fn predicate(rng: &mut Lcg, depth: usize) -> Predicate {
            if depth > 0 && rng.below(2) == 0 {
                let a = Box::new(predicate(rng, depth - 1));
                return match rng.below(4) {
                    0 | 1 => Predicate::And(a, Box::new(predicate(rng, depth - 1))),
                    2 => Predicate::Or(a, Box::new(predicate(rng, depth - 1))),
                    _ => Predicate::Not(a),
                };
            }
            let c = rng.pick(&COLUMNS).to_string();
            match rng.below(13) {
                0 => Predicate::Eq(c, literal(rng)),
                1 => Predicate::Ne(c, literal(rng)),
                2 => Predicate::Lt(c, literal(rng)),
                3 => Predicate::Le(c, literal(rng)),
                4 => Predicate::Gt(c, literal(rng)),
                5 => Predicate::Ge(c, literal(rng)),
                6 => Predicate::Like(
                    c,
                    rng.pick(&[
                        "Rot%", "%é", "caf_", "_", "__", "%\u{FFFD}%", "%", "a%b", "é%", "%_%",
                        "_é_", "2.5", "\u{FFFD}", "caf%", "%本",
                    ])
                    .to_string(),
                ),
                7 => Predicate::StartsWith(c, text(rng)),
                8 => Predicate::EndsWith(c, text(rng)),
                9 => Predicate::Contains(c, text(rng)),
                10 => Predicate::In(c, (0..1 + rng.below(3)).map(|_| literal(rng)).collect()),
                11 => Predicate::IsNull(c),
                _ => Predicate::IsNotNull(c),
            }
        }

        /// A record of 0 to 7 fields (empty, short, full and extra-field
        /// rows).
        fn record(rng: &mut Lcg) -> Vec<u8> {
            let n = rng.below(8);
            let mut out = Vec::new();
            for k in 0..n {
                if k > 0 {
                    out.push(b',');
                }
                let field: &&[u8] = rng.pick(&FIELDS);
                out.extend_from_slice(field);
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            /// `select` + `filter_record_buf` keep exactly the records the
            /// tree-order text evaluator keeps and emit the same bytes, over
            /// one reused `FieldBuf`.
            #[test]
            fn select_equals_the_tree_order_text_evaluator(seed in any::<u64>()) {
                let mut rng = Lcg(seed);
                let header: Vec<String> = COLUMNS.iter().map(|c| c.to_string()).collect();
                let columns = match rng.below(3) {
                    0 => None,
                    _ => Some(
                        (0..rng.below(4)).map(|_| rng.pick(&COLUMNS).to_string()).collect::<Vec<_>>(),
                    ),
                };
                let predicate = match rng.below(8) {
                    0 => None,
                    _ => Some(predicate(&mut rng, 3)),
                };
                let spec = PushdownSpec { columns, predicate, has_header: false };
                let compiled = CompiledSpec::compile(&spec, &header).unwrap();
                let reference = Reference::compile(&spec, &header).unwrap();
                let (mut buf, mut ref_buf) = (FieldBuf::default(), FieldBuf::default());
                for _ in 0..16 {
                    let record = record(&mut rng);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let kept = compiled.filter_record_buf(&record, &mut buf, &mut got);
                    prop_assert_eq!(
                        kept,
                        reference.filter_record(&record, &mut ref_buf, &mut want),
                        "{} on {:?}",
                        spec,
                        String::from_utf8_lossy(&record)
                    );
                    prop_assert_eq!(
                        &got,
                        &want,
                        "{} on {:?}",
                        spec,
                        String::from_utf8_lossy(&record)
                    );
                    prop_assert_eq!(compiled.select(&record, &mut buf).is_some(), kept);
                }
            }
        }
    }
}
