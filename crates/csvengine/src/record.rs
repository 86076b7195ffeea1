//! Byte-level CSV record machinery: incremental record splitting and
//! RFC-4180 field parsing.
//!
//! ## One record rule
//!
//! A record ends at the first `\n`, whatever the quotes. A trailing `\r` is
//! part of the terminator and a blank line is no record. That is the only
//! rule a byte-range split can honour — a task that starts reading in the
//! middle of an object cannot know the quote state there — so every CSV
//! reader, filter and indexer in the system splits records with
//! [`RecordSplitter`] under it. Quoting keeps its meaning *inside* a record:
//! a quoted field may hold commas, doubled quotes and bare `\r`s
//! ([`crate::view`]), but a `\n` ends the record wherever it stands.
//!
//! This is the hot path of the whole system: the CSV storlet runs these
//! routines at storage nodes over every byte of every object. The splitter
//! scans with the SWAR primitives in [`crate::scan`] (8 bytes per step) and
//! emits **borrowed slices of the input chunk** whenever a record is fully
//! contained in it — bytes are only copied into the internal buffer for
//! records that straddle a chunk boundary. Field parsing lives in
//! [`crate::view`] and borrows from the record wherever possible.
//!
//! ## Bounded buffering
//!
//! A corrupt object (a single record with no newline) would make the
//! splitter buffer the entire remaining stream. [`RecordSplitter::push`]
//! enforces a configurable max-record-size cap ([`DEFAULT_MAX_RECORD_SIZE`])
//! on the *buffered* partial record and surfaces
//! [`scoop_common::ScoopError::Csv`] instead of growing without bound. The
//! error is sticky: a capped splitter stays failed.

use crate::scan;
use scoop_common::{Result, ScoopError};
use std::borrow::Cow;

/// Default cap on one buffered (chunk-straddling) record: 16 MiB. Far above
/// any sane CSV record, far below "the rest of a multi-GB object".
pub const DEFAULT_MAX_RECORD_SIZE: usize = 16 * 1024 * 1024;

/// Incremental record splitter: the one implementation of the record rule.
///
/// Feed arbitrary chunks with [`RecordSplitter::push`]; complete records
/// (without their line terminator) are handed to the callback. Call
/// [`RecordSplitter::finish`] to flush a trailing record that lacks a final
/// newline.
#[derive(Debug)]
pub struct RecordSplitter {
    /// The current chunk-straddling partial record (empty at record
    /// boundaries).
    buf: Vec<u8>,
    max_record: usize,
    /// Sticky failure: the cap fired and the splitter is unusable.
    overflowed: bool,
    /// Reusable comma-offset table for [`RecordSplitter::push_rows`].
    comma_buf: Vec<u32>,
}

impl Default for RecordSplitter {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordSplitter {
    /// Create a splitter with the default record-size cap.
    pub fn new() -> Self {
        Self::with_max_record_size(DEFAULT_MAX_RECORD_SIZE)
    }

    /// Create a splitter that errors once a single buffered record exceeds
    /// `max_record` bytes (use [`usize::MAX`] to disable the cap).
    pub fn with_max_record_size(max_record: usize) -> Self {
        RecordSplitter {
            buf: Vec::new(),
            max_record,
            overflowed: false,
            comma_buf: Vec::new(),
        }
    }

    /// Feed a chunk, invoking `emit` once per completed record.
    ///
    /// Records fully contained in `chunk` are emitted as borrowed slices of
    /// `chunk` (zero-copy); only a trailing partial record is buffered.
    pub fn push(&mut self, chunk: &[u8], mut emit: impl FnMut(&[u8])) -> Result<()> {
        let Some(data) = self.complete_straddler(chunk, &mut emit)? else {
            return Ok(());
        };
        let mut record_start = 0usize;
        while let Some(i) = scan::find_byte(&data[record_start..], b'\n') {
            let at = record_start + i;
            emit_line(&data[record_start..at], &mut emit);
            record_start = at + 1;
        }
        self.buf.extend_from_slice(&data[record_start..]);
        self.check_cap()
    }

    /// Feed a chunk through the fused record-and-field scanner.
    ///
    /// One SWAR sweep computes the newline, comma and quote lanes of each
    /// 8-byte word together, so the chunk is read once — not once for record
    /// splitting plus once per record for field splitting. Quote-free records
    /// fully contained in `chunk` reach `on_row` with `Some(commas)` — the
    /// record-relative byte offsets of their commas, i.e. the field
    /// boundaries; everything else — records containing a quote anywhere
    /// (and their neighbours in the same 8-byte word), and records that
    /// straddle a chunk boundary — arrives with `None` and needs the full
    /// quote-aware field parse. Record boundaries (CRLF trimming, blank-line
    /// skipping, the size cap) are identical to [`RecordSplitter::push`].
    pub fn push_rows(
        &mut self,
        chunk: &[u8],
        mut on_row: impl FnMut(&[u8], Option<&[u32]>),
    ) -> Result<()> {
        let Some(data) = self.complete_straddler(chunk, &mut |r| on_row(r, None))? else {
            return Ok(());
        };
        let mut commas = std::mem::take(&mut self.comma_buf);
        commas.clear();
        let mut record_start = 0usize;
        let mut pos = 0usize;
        while pos < data.len() {
            let word = if data.len() - pos >= 8 {
                scan::load_word(&data[pos..pos + 8])
            } else {
                // Zero-pad the tail word: 0x00 is none of the three needles,
                // so the phantom lanes can never match.
                let mut w = 0u64;
                for (k, &c) in data[pos..].iter().enumerate() {
                    w |= (c as u64) << (8 * k);
                }
                w
            };
            let nl = scan::match_lanes(word, b'\n');
            // `u32` comma offsets can only overflow on a >4 GiB record, which
            // takes the same path (and the cap then rejects it).
            if scan::match_lanes(word, b'"') != 0
                || pos - record_start > (u32::MAX as usize) - 8
            {
                // Rare: a quote in this word. Every record the word overlaps
                // goes messy — a quote-free neighbour of the quoted record
                // needlessly, which is slower but parses the same — and the
                // fused scan resumes past the last of them. No byte is read
                // twice.
                commas.clear();
                let mut m = nl;
                while m != 0 {
                    let at = pos + scan::lane_index(m);
                    emit_line(&data[record_start..at], &mut |r| on_row(r, None));
                    record_start = at + 1;
                    m &= m - 1;
                }
                pos += 8;
                if record_start < pos {
                    // The open record overlaps the word too: find its end.
                    match data.get(pos..).and_then(|rest| scan::find_byte(rest, b'\n')) {
                        Some(i) => {
                            let at = pos + i;
                            emit_line(&data[record_start..at], &mut |r| on_row(r, None));
                            record_start = at + 1;
                            pos = record_start;
                        }
                        None => pos = data.len(),
                    }
                }
                continue;
            }
            let mut m = nl | scan::match_lanes(word, b',');
            while m != 0 {
                let at = pos + scan::lane_index(m);
                let lane_bit = m & m.wrapping_neg();
                if nl & lane_bit != 0 {
                    emit_line(&data[record_start..at], &mut |r| on_row(r, Some(&commas)));
                    commas.clear();
                    record_start = at + 1;
                } else {
                    commas.push((at - record_start) as u32);
                }
                m &= m - 1;
            }
            pos += 8;
        }
        // Trailing partial record: buffer it; its commas are recomputed when
        // it completes (via the messy path), so the collected ones drop.
        self.buf.extend_from_slice(&data[record_start..]);
        self.comma_buf = commas;
        self.check_cap()
    }

    /// The shared head of [`RecordSplitter::push`] and
    /// [`RecordSplitter::push_rows`]: complete the buffered straddling record
    /// at the chunk's first newline and emit it, returning the rest of the
    /// chunk — or `None` when the chunk holds no newline and was buffered
    /// whole.
    fn complete_straddler<'c>(
        &mut self,
        chunk: &'c [u8],
        emit: &mut impl FnMut(&[u8]),
    ) -> Result<Option<&'c [u8]>> {
        if self.overflowed {
            return Err(self.cap_error());
        }
        if self.buf.is_empty() {
            return Ok(Some(chunk));
        }
        let Some(nl) = scan::find_byte(chunk, b'\n') else {
            self.buf.extend_from_slice(chunk);
            return self.check_cap().map(|()| None);
        };
        let (line, rest) = chunk.split_at(nl);
        self.buf.extend_from_slice(line);
        self.check_cap()?;
        emit_line(&self.buf, emit);
        self.buf.clear();
        Ok(Some(rest.get(1..).unwrap_or_default()))
    }

    /// Flush the final record (if any bytes remain) and consume the splitter.
    pub fn finish(self, mut emit: impl FnMut(&[u8])) {
        if !self.overflowed {
            emit_line(&self.buf, &mut emit);
        }
    }

    /// Bytes currently buffered awaiting a record terminator.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    fn check_cap(&mut self) -> Result<()> {
        if self.buf.len() > self.max_record {
            self.overflowed = true;
            // Release the hoarded bytes immediately — the point of the cap.
            self.buf = Vec::new();
            return Err(self.cap_error());
        }
        Ok(())
    }

    fn cap_error(&self) -> ScoopError {
        ScoopError::Csv(format!(
            "CSV record exceeds the {}-byte record-size cap (missing newline in the object?)",
            self.max_record
        ))
    }
}

/// Hand a line to `emit` as a record: a trailing `\r` is part of the line
/// terminator, and a blank line is no record.
fn emit_line(line: &[u8], emit: &mut impl FnMut(&[u8])) {
    let record = line.strip_suffix(b"\r").unwrap_or(line);
    if !record.is_empty() {
        emit(record);
    }
}

/// Split a whole in-memory buffer into records (helper over the splitter).
pub fn split_records(data: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut sp = RecordSplitter::with_max_record_size(usize::MAX);
    // With the cap disabled push cannot fail.
    let _infallible = sp.push(data, |r| out.push(r.to_vec()));
    sp.finish(|r| out.push(r.to_vec()));
    out
}

/// Parse one record into fields.
///
/// Unquoted fields are borrowed; quoted fields are unescaped into owned
/// strings (doubled quotes collapse, and bytes between a closing quote and
/// the next comma are preserved by concatenation rather than silently
/// dropped). Invalid UTF-8 is replaced lossily — object stores accept
/// arbitrary bytes, but SQL operates on text.
pub fn parse_fields(record: &[u8]) -> Vec<Cow<'_, str>> {
    let mut buf = crate::view::FieldBuf::default();
    let view = buf.parse(record);
    let n = view.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        match view.text(i) {
            Some(t) => out.push(t),
            None => break,
        }
    }
    out
}

/// True when the raw value needs quoting when written back out.
pub fn needs_quoting(field: &str) -> bool {
    scan::find_byte3(field.as_bytes(), b',', b'"', b'\n').is_some()
        || scan::find_byte(field.as_bytes(), b'\r').is_some()
}

/// Append a single field to `out`, quoting/escaping as required.
pub fn write_field(out: &mut Vec<u8>, field: &str) {
    if needs_quoting(field) {
        out.push(b'"');
        for b in field.bytes() {
            if b == b'"' {
                out.push(b'"');
            }
            out.push(b);
        }
        out.push(b'"');
    } else {
        out.extend_from_slice(field.as_bytes());
    }
}

/// Serialize string fields into one CSV record terminated by `\n`.
///
/// A record consisting of a single empty field is written as `""` — a bare
/// empty line would be indistinguishable from a blank line, which readers
/// (like Spark-CSV) skip.
pub fn write_record(out: &mut Vec<u8>, fields: &[&str]) {
    if fields.len() == 1 && fields[0].is_empty() {
        out.extend_from_slice(b"\"\"\n");
        return;
    }
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_field(out, f);
    }
    out.push(b'\n');
}

/// A per-byte splitter under the record rule and the original per-byte
/// field parser (with the stray-byte concatenation this module shares), kept
/// as the reference implementation for the differential property suite.
/// Never compiled into release binaries.
#[cfg(test)]
pub(crate) mod reference {
    use std::borrow::Cow;

    #[derive(Debug, Default)]
    pub struct RecordSplitter {
        buf: Vec<u8>,
        scan: usize,
    }

    impl RecordSplitter {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn push(&mut self, chunk: &[u8], mut emit: impl FnMut(&[u8])) {
            self.buf.extend_from_slice(chunk);
            let mut record_start = 0usize;
            let mut i = self.scan;
            while i < self.buf.len() {
                if self.buf[i] == b'\n' {
                    let mut end = i;
                    if end > record_start && self.buf[end - 1] == b'\r' {
                        end -= 1;
                    }
                    if end > record_start {
                        emit(&self.buf[record_start..end]);
                    }
                    record_start = i + 1;
                }
                i += 1;
            }
            if record_start > 0 {
                self.buf.drain(..record_start);
            }
            self.scan = self.buf.len();
        }

        pub fn finish(mut self, mut emit: impl FnMut(&[u8])) {
            if !self.buf.is_empty() {
                let mut end = self.buf.len();
                if self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                if end > 0 {
                    emit(&self.buf[..end]);
                }
                self.buf.clear();
            }
        }
    }

    pub fn split_records(data: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut sp = RecordSplitter::new();
        sp.push(data, |r| out.push(r.to_vec()));
        sp.finish(|r| out.push(r.to_vec()));
        out
    }

    pub fn parse_fields(record: &[u8]) -> Vec<Cow<'_, str>> {
        let mut fields = Vec::new();
        if record.is_empty() {
            return fields;
        }
        let mut i = 0usize;
        loop {
            if i < record.len() && record[i] == b'"' {
                // Quoted field.
                let mut owned = Vec::new();
                i += 1;
                loop {
                    match record.get(i) {
                        Some(b'"') if record.get(i + 1) == Some(&b'"') => {
                            owned.push(b'"');
                            i += 2;
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            owned.push(b);
                            i += 1;
                        }
                        // Unterminated quote: treat remainder as the field.
                        None => break,
                    }
                }
                // Preserve stray bytes between the closing quote and the
                // next comma (RFC-4180-tolerant concatenation).
                while i < record.len() && record[i] != b',' {
                    owned.push(record[i]);
                    i += 1;
                }
                fields.push(Cow::Owned(String::from_utf8_lossy(&owned).into_owned()));
            } else {
                let start = i;
                while i < record.len() && record[i] != b',' {
                    i += 1;
                }
                fields.push(String::from_utf8_lossy(&record[start..i]));
            }
            if i >= record.len() {
                break;
            }
            i += 1; // consume the comma
            if i == record.len() {
                // Trailing comma → trailing empty field.
                fields.push(Cow::Borrowed(""));
                break;
            }
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(data: &[u8]) -> Vec<String> {
        split_records(data)
            .into_iter()
            .map(|r| String::from_utf8(r).unwrap())
            .collect()
    }

    fn fields(rec: &str) -> Vec<String> {
        parse_fields(rec.as_bytes())
            .into_iter()
            .map(|c| c.into_owned())
            .collect()
    }

    #[test]
    fn splits_simple_lines() {
        assert_eq!(records(b"a\nb\nc\n"), vec!["a", "b", "c"]);
        // Missing trailing newline still yields the last record.
        assert_eq!(records(b"a\nb"), vec!["a", "b"]);
        assert_eq!(records(b""), Vec::<String>::new());
    }

    #[test]
    fn handles_crlf() {
        assert_eq!(records(b"a\r\nb\r\n"), vec!["a", "b"]);
        assert_eq!(records(b"a\r"), vec!["a"]);
    }

    #[test]
    fn quoted_newlines_end_records() {
        // The record rule: a newline ends the record even inside quotes.
        assert_eq!(
            records(b"\"a\nstill a\",x\nb,y\n"),
            vec!["\"a", "still a\",x", "b,y"]
        );
    }

    #[test]
    fn a_trailing_cr_is_a_terminator_even_inside_an_open_quote() {
        assert_eq!(records(b"\"a\r"), vec!["\"a"]);
        assert_eq!(records(b"\"a\"\r"), vec!["\"a\""]);
        // A CR that is not last stays record content.
        assert_eq!(records(b"\"a\rb\"\n"), vec!["\"a\rb\""]);
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        let data = b"alpha,1\n\"be,ta\",2\r\n\"ga\"\"mma\",3\nlast,4";
        let whole = records(data);
        for chunk in [1usize, 2, 3, 5, 7, 100] {
            let mut out = Vec::new();
            let mut sp = RecordSplitter::new();
            for c in data.chunks(chunk) {
                sp.push(c, |r| out.push(String::from_utf8(r.to_vec()).unwrap()))
                    .unwrap();
            }
            sp.finish(|r| out.push(String::from_utf8(r.to_vec()).unwrap()));
            assert_eq!(out, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn record_size_cap_errors_instead_of_buffering() {
        // A record whose newline never comes is one giant pending record;
        // the cap must fire instead of buffering the whole stream.
        let mut sp = RecordSplitter::with_max_record_size(64);
        sp.push(b"ok,1\n\"never closed ", |_| {}).unwrap();
        let mut err = None;
        for _ in 0..100 {
            if let Err(e) = sp.push(&[b'x'; 32], |_| panic!("no record can complete")) {
                err = Some(e);
                break;
            }
        }
        let err = err.expect("cap must fire");
        assert!(matches!(err, ScoopError::Csv(_)), "{err:?}");
        assert!(err.to_string().contains("record-size cap"), "{err}");
        // Sticky: further pushes keep failing, buffered bytes are released.
        assert!(sp.push(b"a\n", |_| {}).is_err());
        assert_eq!(sp.pending(), 0);
    }

    #[test]
    fn cap_also_guards_missing_newlines() {
        let mut sp = RecordSplitter::with_max_record_size(16);
        assert!(sp.push(&[b'x'; 64], |_| {}).is_err());
    }

    #[test]
    fn parses_plain_fields() {
        assert_eq!(fields("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(fields("a,,c"), vec!["a", "", "c"]);
        assert_eq!(fields("a,b,"), vec!["a", "b", ""]);
        assert_eq!(fields(""), Vec::<String>::new());
        assert_eq!(fields("solo"), vec!["solo"]);
    }

    #[test]
    fn parses_quoted_fields() {
        assert_eq!(fields("\"a,b\",c"), vec!["a,b", "c"]);
        assert_eq!(fields("\"he said \"\"hi\"\"\",x"), vec!["he said \"hi\"", "x"]);
        assert_eq!(fields("\"multi\nline\",y"), vec!["multi\nline", "y"]);
        // Unterminated quote tolerated.
        assert_eq!(fields("\"open"), vec!["open"]);
    }

    #[test]
    fn stray_bytes_after_closing_quote_are_preserved() {
        // RFC-4180-tolerant concatenation — the old parser silently ate
        // `tail` here.
        assert_eq!(fields("\"a\"tail,x"), vec!["atail", "x"]);
        assert_eq!(fields("\"a\"\"b\"z"), vec!["a\"bz"]);
        assert_eq!(fields("x,\"q\" ,y"), vec!["x", "q ", "y"]);
    }

    #[test]
    fn write_roundtrip() {
        let cases: Vec<Vec<&str>> = vec![
            vec!["a", "b"],
            vec!["with,comma", "with\"quote", "with\rcr"],
            vec!["", "", ""],
            vec!["plain"],
        ];
        for case in cases {
            let mut buf = Vec::new();
            write_record(&mut buf, &case);
            let recs = split_records(&buf);
            assert_eq!(recs.len(), 1);
            assert_eq!(fields(std::str::from_utf8(&recs[0]).unwrap()), case);
        }
        // The round trip holds for newline-free fields only: a written
        // newline ends the record.
        let mut buf = Vec::new();
        write_record(&mut buf, &["with\nnewline", "x"]);
        assert_eq!(records(&buf), vec!["\"with", "newline\",x"]);
    }

    /// Run data through `push_rows` in `chunk`-byte steps, returning every
    /// emitted record plus, for clean ones, the reported comma offsets.
    fn fused_rows(data: &[u8], chunk: usize) -> Vec<(Vec<u8>, Option<Vec<u32>>)> {
        let mut out = Vec::new();
        let mut sp = RecordSplitter::new();
        for c in data.chunks(chunk.max(1)) {
            sp.push_rows(c, |r, commas| {
                out.push((r.to_vec(), commas.map(|c| c.to_vec())));
            })
            .unwrap();
        }
        sp.finish(|r| out.push((r.to_vec(), None)));
        out
    }

    #[test]
    fn push_rows_emits_the_same_records_as_push() {
        let cases: &[&[u8]] = &[
            b"a,b,c\nd,e,f\n",
            b"a,b\nc,d",
            b"\r\n\n\r\n",
            b"a\r\nb\r\n",
            b"\"q,in\",x\nplain,y\n",
            b"\"multi\nline\",1\nz,2\r\n",
            b"one_long_record_with_no_newline_at_all,spanning,words",
            b"short\n\"a\"\"b\",c\ntrailing,comma,\n",
            b"\"unterminated, never closes\nstill inside",
            b"x\ny\"z,w\nplain,tail\n",
        ];
        for data in cases {
            for chunk in [1usize, 2, 3, 5, 7, 8, 9, 64] {
                let fused: Vec<Vec<u8>> =
                    fused_rows(data, chunk).into_iter().map(|(r, _)| r).collect();
                assert_eq!(
                    fused,
                    split_records(data),
                    "record divergence on {:?} chunk={chunk}",
                    String::from_utf8_lossy(data)
                );
            }
        }
    }

    #[test]
    fn push_rows_comma_offsets_are_exact() {
        let rows = fused_rows(b"a,bb,,ccc\nno_commas\n1,2\n", 64);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (b"a,bb,,ccc".to_vec(), Some(vec![1, 4, 5])));
        assert_eq!(rows[1], (b"no_commas".to_vec(), Some(vec![])));
        assert_eq!(rows[2], (b"1,2".to_vec(), Some(vec![1])));
        // Straddling records lose their offsets (messy path), clean in-chunk
        // records keep them; a trailing CR is trimmed before the offsets are
        // reported, so offsets always index into the emitted record.
        let rows = fused_rows(b"aa,bb\ncc,dd\r\n", 8);
        assert_eq!(rows[0], (b"aa,bb".to_vec(), Some(vec![2])));
        assert_eq!(rows[1].0, b"cc,dd".to_vec());
        // Quoted records never report offsets.
        for (r, commas) in fused_rows(b"\"a,b\",c\nplain,row\n", 64) {
            if r.starts_with(b"\"") {
                assert!(commas.is_none(), "{:?}", String::from_utf8_lossy(&r));
            } else {
                assert_eq!(commas, Some(vec![5]));
            }
        }
    }

    #[test]
    fn push_rows_respects_the_record_size_cap() {
        let mut sp = RecordSplitter::with_max_record_size(16);
        assert!(sp.push_rows(&[b'x'; 64], |_, _| {}).is_err());
        // Sticky, like push().
        assert!(sp.push_rows(b"a\n", |_, _| {}).is_err());
    }

    #[test]
    fn pending_tracks_incomplete_record() {
        let mut sp = RecordSplitter::new();
        sp.push(b"unfinished", |_| panic!("no record yet")).unwrap();
        assert_eq!(sp.pending(), 10);
    }
}

/// Differential property suite: the SWAR zero-copy splitter/parser must be
/// byte-identical to the per-byte [`reference`] implementation over random
/// chunk boundaries, CRLF mixes, nested/doubled quotes and trailing commas.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;

    /// Raw byte soup biased toward CSV structure: delimiters, quotes, CR/LF
    /// and a little printable filler. This deliberately produces malformed
    /// CSV (unbalanced quotes, bare CRs, stray bytes after closing quotes) —
    /// the paths where the two implementations are most likely to diverge.
    fn soup_strategy() -> impl Strategy<Value = Vec<u8>> {
        // Repeated arms bias the (uniform) union toward structure bytes.
        proptest::collection::vec(
            prop_oneof![
                Just(b'a'),
                Just(b'a'),
                Just(b'b'),
                Just(b','),
                Just(b','),
                Just(b'"'),
                Just(b'"'),
                Just(b'"'),
                Just(b'\n'),
                Just(b'\n'),
                Just(b'\r'),
                Just(b'\r'),
                Just(b' '),
                Just(0xC3u8), // multi-byte UTF-8 lead / invalid tail
            ],
            0..160,
        )
    }

    /// Structured rows joined with a mix of `\n` and `\r\n` terminators.
    fn structured_strategy() -> impl Strategy<Value = Vec<u8>> {
        let field = prop_oneof![
            proptest::string::string_regex("[a-z0-9 ;=_-]{0,10}").expect("regex"),
            proptest::string::string_regex("[a-z0-9 ;=_-]{0,10}").expect("regex"),
            proptest::string::string_regex("\"[a-z,\n\r]{0,8}\"").expect("regex"),
            proptest::string::string_regex("\"[a-z\"\"]{0,6}\"").expect("regex"),
            Just(String::new()), // empty / trailing-comma fields
        ];
        let row = proptest::collection::vec(field, 1..6);
        proptest::collection::vec((row, any::<bool>()), 0..20).prop_map(|rows| {
            let mut buf = Vec::new();
            for (fields, crlf) in rows {
                buf.extend_from_slice(fields.join(",").as_bytes());
                buf.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
            buf
        })
    }

    fn assert_equivalent(data: &[u8], chunk: usize) {
        // Whole-buffer split.
        let new = split_records(data);
        let old = reference::split_records(data);
        assert_eq!(new, old, "split divergence on {:?}", String::from_utf8_lossy(data));
        // Chunked split with the given boundary stride.
        let mut chunked = Vec::new();
        let mut sp = RecordSplitter::with_max_record_size(usize::MAX);
        for c in data.chunks(chunk.max(1)) {
            sp.push(c, |r| chunked.push(r.to_vec())).expect("uncapped");
        }
        sp.finish(|r| chunked.push(r.to_vec()));
        assert_eq!(chunked, old, "chunked split divergence (chunk={chunk})");
        // Fused record+field scan: identical record stream, and the comma
        // offsets reported for clean records must be exactly the commas a
        // per-byte scan of the emitted record finds.
        let mut fused = Vec::new();
        let mut sp = RecordSplitter::with_max_record_size(usize::MAX);
        for c in data.chunks(chunk.max(1)) {
            sp.push_rows(c, |r, commas| {
                if let Some(commas) = commas {
                    let expect: Vec<u32> = r
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b == b',')
                        .map(|(i, _)| i as u32)
                        .collect();
                    assert_eq!(commas, expect, "comma offsets on {:?}", String::from_utf8_lossy(r));
                    assert!(!r.contains(&b'"'), "clean record contains a quote");
                }
                fused.push(r.to_vec());
            })
            .expect("uncapped");
        }
        sp.finish(|r| fused.push(r.to_vec()));
        assert_eq!(fused, old, "fused split divergence (chunk={chunk})");
        // Field parse of every record.
        for rec in &old {
            let new_fields: Vec<String> =
                parse_fields(rec).into_iter().map(|c| c.into_owned()).collect();
            let old_fields: Vec<String> = reference::parse_fields(rec)
                .into_iter()
                .map(|c| c.into_owned())
                .collect();
            assert_eq!(
                new_fields,
                old_fields,
                "parse divergence on record {:?}",
                String::from_utf8_lossy(rec)
            );
        }
    }

    proptest! {
        #[test]
        fn swar_matches_reference_on_byte_soup(
            data in soup_strategy(),
            chunk in 1usize..48,
        ) {
            assert_equivalent(&data, chunk);
        }

        #[test]
        fn swar_matches_reference_on_structured_csv(
            data in structured_strategy(),
            chunk in 1usize..48,
        ) {
            assert_equivalent(&data, chunk);
        }
    }

    #[test]
    fn swar_matches_reference_on_fixtures() {
        let fixtures: &[&[u8]] = &[
            b"",
            b"\n",
            b"\r\n",
            b"\r",
            b"a,b\nc,d",
            b"a,b,\n,,\n",
            b"\"a\nb\",c\r\nd,e\n",
            b"\"unterminated, never closes\nstill inside\n",
            b"\"a\"stray,b\n",
            b"\"a\"\"b\"\"\",c\n",
            b"trailing,comma,\n",
            b"\"\"\n",
            b"\"\r\n",
            b"x\r\r\n",
            b"\"q\"\r",
        ];
        for (i, f) in fixtures.iter().enumerate() {
            for chunk in [1, 2, 3, 7, 64] {
                assert_equivalent(f, chunk);
            }
            let _ = i;
        }
    }
}
