//! PUT-path zone-map indexing storlet.
//!
//! The paper puts computation where the data lands; this storlet runs on the
//! ingestion path and computes the per-block statistics that later let GET
//! pushdown skip whole byte ranges of an object (`scoop_storlets::planner`).
//! It is a pure passthrough for the object bytes — its only product is
//! metadata: a [`scoop_common::zonestats::ObjectStats`] serialized into
//! `x-object-meta-scoop-stats-*` chunks and published through the invocation
//! context's `extra_meta` out-channel, which the middleware merges into the
//! upstream PUT.

use crate::api::{InvocationContext, Storlet};
use scoop_common::hash::fingerprint_hex;
use scoop_common::zonestats::{ObjectStats, StatsBuilder};
use scoop_common::{stream, ByteStream, Result};
use scoop_csv::record::RecordSplitter;
use scoop_csv::FieldBuf;
use std::sync::atomic::Ordering;

/// Nominal block size when the PUT does not specify one. Small enough that a
/// selective predicate skips most of a multi-megabyte object, large enough
/// that the per-block metadata stays a rounding error.
pub const DEFAULT_BLOCK_BYTES: u64 = 64 * 1024;

/// Parameters: `schema` (comma-separated column names, required), optional
/// `header` ("1" when the object starts with a header row), optional `block`
/// (nominal block size in bytes).
pub struct ZoneIndexStorlet;

impl Storlet for ZoneIndexStorlet {
    fn name(&self) -> &str {
        "zoneindex"
    }

    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
        let columns: Vec<String> = ctx
            .require("schema")?
            .split(',')
            .map(str::to_string)
            .collect();
        let has_header = ctx.params.get("header").map(String::as_str) == Some("1");
        let block_bytes = ctx
            .params
            .get("block")
            .and_then(|b| b.parse::<u64>().ok())
            .unwrap_or(DEFAULT_BLOCK_BYTES);
        let metrics = ctx.metrics.clone();
        let extra_meta = ctx.extra_meta.clone();

        // Indexing needs exact byte offsets for every record, so it consumes
        // the whole object before emitting it unchanged. That is the shape of
        // the PUT path anyway: the middleware hands over the body as one
        // chunk, which passes through uncopied, and collects the output.
        let mut input_opt = Some(input);
        Ok(Box::new(std::iter::from_fn(move || {
            let input = input_opt.take()?;
            let columns = columns.clone();
            let run = || -> Result<_> {
                let data = stream::collect(input)?;
                let len = data.len() as u64;
                metrics.bytes_in.fetch_add(len, Ordering::Relaxed);
                let mut builder = StatsBuilder::new(columns, has_header, block_bytes);
                let records = index_records(&data, has_header, &mut builder);
                metrics.records_in.fetch_add(records, Ordering::Relaxed);
                metrics.records_out.fetch_add(records, Ordering::Relaxed);
                // The etag stamps which bytes the stats describe. zoneindex is
                // a passthrough, so when it runs last in the PUT pipeline this
                // fingerprint equals the stored object's etag; any other
                // arrangement yields a mismatch and the planner falls back.
                let stats = builder.finish(fingerprint_hex(&data));
                extra_meta.lock().extend(stats.to_metadata());
                metrics.bytes_out.fetch_add(len, Ordering::Relaxed);
                Ok(data)
            };
            Some(run())
        })))
    }
}

/// Fold every record of `data` into `builder` in one pass of the fused
/// record-and-field scanner, and return the number of data records.
///
/// The whole object goes to the splitter in one push with the size cap off,
/// so every newline-terminated record arrives as a slice of `data` and its
/// offset is where that slice starts; a final record without a newline is
/// what the splitter still holds at the end. A record's byte length runs to
/// the end of its terminator, and the bytes between one record and the next
/// are blank lines, which belong to the open block but carry no data — as
/// does the header row.
fn index_records(data: &[u8], has_header: bool, builder: &mut StatsBuilder) -> u64 {
    let base = data.as_ptr() as usize;
    // One validation for the whole object; a record of an object that is
    // not all UTF-8 is validated on its own.
    let whole = std::str::from_utf8(data).ok();
    // First byte not yet handed to the builder.
    let mut cursor = 0usize;
    let mut header_pending = has_header;
    let mut records = 0u64;
    let mut fields = FieldBuf::default();
    let mut fold = |start: usize, record: &[u8], next: usize, commas: Option<&[u32]>| {
        builder.skip_bytes(start.saturating_sub(cursor) as u64);
        let len = next.saturating_sub(start) as u64;
        cursor = next;
        if std::mem::take(&mut header_pending) {
            builder.skip_bytes(len);
            return;
        }
        records += 1;
        // Quote-free, valid UTF-8 records are cut at the commas the scan
        // found; the rest take the quote-aware parse (lossy UTF-8).
        let text = match whole {
            Some(whole) => whole.get(start..start.saturating_add(record.len())),
            None => std::str::from_utf8(record).ok(),
        };
        match (commas, text) {
            (Some(commas), Some(text)) => builder.record(comma_fields(text, commas), len),
            _ => {
                let view = fields.parse(record);
                builder.record((0..view.len()).map(|i| view.text(i).unwrap_or_default()), len);
            }
        }
    };
    let mut splitter = RecordSplitter::with_max_record_size(usize::MAX);
    // With the cap off `push_rows` cannot fail.
    let _uncapped = splitter.push_rows(data, |record, commas| {
        let start = (record.as_ptr() as usize).wrapping_sub(base);
        let end = start.saturating_add(record.len());
        // The splitter trimmed the terminator: `\n`, or `\r\n`.
        let next = end.saturating_add(if data.get(end) == Some(&b'\r') { 2 } else { 1 });
        fold(start, record, next, commas);
    });
    // The final record, if it lacks a newline, is what the splitter still
    // holds: the tail of `data`.
    let tail_start = data.len().saturating_sub(splitter.pending());
    splitter.finish(|tail| fold(tail_start, tail, data.len(), None));
    builder.skip_bytes(data.len().saturating_sub(cursor) as u64);
    records
}

/// The fields of a quote-free record, cut at its comma offsets.
fn comma_fields<'a>(text: &'a str, commas: &'a [u32]) -> impl Iterator<Item = &'a str> {
    let mut start = 0usize;
    let ends = commas.iter().map(|&c| c as usize).chain(std::iter::once(text.len()));
    ends.map(move |end| {
        let field = text.get(start..end).unwrap_or_default();
        start = end.saturating_add(1);
        field
    })
}

/// Decode the stats a context's `extra_meta` channel accumulated (test and
/// middleware helper).
pub fn stats_from_context(ctx: &InvocationContext) -> Result<Option<ObjectStats>> {
    let pairs = ctx.extra_meta.lock().clone();
    ObjectStats::from_metadata(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::collections::HashMap;

    const DATA: &[u8] = b"vid,index,city\nm1,100.5,Rotterdam\nm2,,Paris\nm3,50,Utrecht\nm4,75,Delft\n";

    fn run(data: &'static [u8], block: &str) -> (String, InvocationContext) {
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,index,city".to_string());
        params.insert("header".to_string(), "1".to_string());
        params.insert("block".to_string(), block.to_string());
        let ctx = InvocationContext::new(params);
        let out = ZoneIndexStorlet
            .invoke(stream::chunked(Bytes::from_static(data), 7), ctx.clone())
            .unwrap();
        let out = String::from_utf8(stream::collect(out).unwrap().to_vec()).unwrap();
        (out, ctx)
    }

    #[test]
    fn passthrough_and_stats_published() {
        let (out, ctx) = run(DATA, "24");
        assert_eq!(out.as_bytes(), DATA, "zoneindex must not alter the object");
        let stats = stats_from_context(&ctx).unwrap().expect("stats published");
        assert_eq!(stats.etag, fingerprint_hex(DATA));
        assert!(stats.has_header);
        assert_eq!(stats.columns, vec!["vid", "index", "city"]);
        assert_eq!(stats.covered_len(), DATA.len() as u64);
        assert_eq!(stats.blocks.iter().map(|b| b.rows).sum::<u64>(), 4);
        assert!(stats.blocks.len() > 1, "small block size must cut blocks");
        // Block boundaries are record boundaries: each interior boundary
        // byte is preceded by a newline.
        for b in &stats.blocks[1..] {
            assert_eq!(DATA[b.start as usize - 1], b'\n');
        }
    }

    #[test]
    fn quoted_newlines_end_records() {
        let data: &[u8] = b"a,b\n\"x\ny\",1\n\"p\",2\n";
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "a,b".to_string());
        params.insert("header".to_string(), "1".to_string());
        params.insert("block".to_string(), "4".to_string());
        let ctx = InvocationContext::new(params);
        let out = ZoneIndexStorlet
            .invoke(stream::once(Bytes::from_static(data)), ctx.clone())
            .unwrap();
        stream::collect(out).unwrap();
        let stats = stats_from_context(&ctx).unwrap().unwrap();
        // The record rule: `"x` and `y",1` are two records, as every reader
        // splits them, so `y"` is a value the stats must admit.
        assert_eq!(stats.blocks.iter().map(|b| b.rows).sum::<u64>(), 3);
        assert!(stats.blocks.iter().any(|b| b.start == 7), "no block starts at `y\",1`");
        let a_max: Vec<Option<&str>> =
            stats.blocks.iter().map(|b| b.columns[0].str_max.as_deref()).collect();
        assert!(a_max.contains(&Some("y\"")), "{a_max:?}");
    }

    #[test]
    fn missing_schema_errors() {
        let ctx = InvocationContext::new(HashMap::new());
        assert!(ZoneIndexStorlet.invoke(stream::empty(), ctx).is_err());
    }
}

/// The indexer as it was before the fused scan — a byte-at-a-time record
/// walk, an owned field vector per record, and the original per-field fold
/// (`str::parse::<f64>`, a linear distinct scan, fresh min/max strings) —
/// kept as the reference the differential suite holds the storlet to.
#[cfg(test)]
mod reference {
    use scoop_common::hash::fingerprint_hex;
    use scoop_common::zonestats::{
        bloom_mask, BlockStats, ColumnStats, ObjectStats, BLOOM_MAX_DISTINCT, MAX_STRING_STAT,
    };
    use scoop_csv::record::parse_fields;

    /// `(content_end, next_start)` of the record starting at `start`: it
    /// ends at the first newline, whatever the quotes.
    fn record_span(data: &[u8], start: usize) -> (usize, usize) {
        let mut i = start;
        while let Some(&b) = data.get(i) {
            if b == b'\n' {
                return (i, i + 1);
            }
            i += 1;
        }
        (data.len(), data.len())
    }

    fn truncate_prefix(s: &str) -> String {
        if s.len() <= MAX_STRING_STAT {
            return s.to_string();
        }
        let mut end = MAX_STRING_STAT;
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        s[..end].to_string()
    }

    fn observe(c: &mut ColumnStats, field: &str, distinct: &mut Vec<String>) {
        if field.is_empty() {
            c.has_null = true;
            return;
        }
        c.has_value = true;
        if let Ok(v) = field.parse::<f64>() {
            if !v.is_nan() {
                c.num = Some(match c.num {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        if c.str_min.as_deref().is_none_or(|m| field < m) {
            c.str_min = Some(truncate_prefix(field));
        }
        if c.str_max.as_deref().is_none_or(|m| field > m) {
            c.str_max = Some(field.to_string());
        }
        if distinct.len() <= BLOOM_MAX_DISTINCT && !distinct.iter().any(|d| d == field) {
            distinct.push(field.to_string());
        }
    }

    struct Builder {
        block_bytes: u64,
        ncols: usize,
        blocks: Vec<BlockStats>,
        cur: BlockStats,
        distinct: Vec<Vec<String>>,
        offset: u64,
    }

    impl Builder {
        fn fresh(&self, start: u64) -> BlockStats {
            BlockStats {
                start,
                columns: vec![ColumnStats::default(); self.ncols],
                ..Default::default()
            }
        }

        fn record(&mut self, fields: &[&str], len: u64) {
            for (i, (col, distinct)) in
                self.cur.columns.iter_mut().zip(self.distinct.iter_mut()).enumerate()
            {
                observe(col, fields.get(i).copied().unwrap_or(""), distinct);
            }
            self.cur.rows += 1;
            self.offset += len;
            if self.offset - self.cur.start >= self.block_bytes {
                self.cut();
            }
        }

        fn cut(&mut self) {
            if self.offset == self.cur.start {
                return;
            }
            let next = self.fresh(self.offset);
            let mut done = std::mem::replace(&mut self.cur, next);
            done.end = self.offset;
            for (col, distinct) in done.columns.iter_mut().zip(&mut self.distinct) {
                if col.str_max.as_ref().is_some_and(|m| m.len() > MAX_STRING_STAT) {
                    col.str_max = None;
                }
                if !distinct.is_empty() && distinct.len() <= BLOOM_MAX_DISTINCT {
                    col.bloom = Some(distinct.iter().fold(0u64, |m, v| m | bloom_mask(v)));
                }
                distinct.clear();
            }
            self.blocks.push(done);
        }
    }

    /// The stats the indexer published for `data`, and its record count.
    pub fn index(
        data: &[u8],
        columns: &[&str],
        has_header: bool,
        block: u64,
    ) -> (ObjectStats, u64) {
        let ncols = columns.len();
        let mut b = Builder {
            block_bytes: block.max(1),
            ncols,
            blocks: Vec::new(),
            cur: BlockStats::default(),
            distinct: vec![Vec::new(); ncols],
            offset: 0,
        };
        b.cur = b.fresh(0);
        let mut header_pending = has_header;
        let mut records = 0u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let (content_end, next) = record_span(data, pos);
            let len = (next - pos) as u64;
            let raw = &data[pos..content_end];
            let content = raw.strip_suffix(b"\r").unwrap_or(raw);
            if content.is_empty() || std::mem::take(&mut header_pending) {
                b.offset += len;
            } else {
                records += 1;
                let parsed = parse_fields(content);
                let fields: Vec<&str> = parsed.iter().map(|f| f.as_ref()).collect();
                b.record(&fields, len);
            }
            pos = next;
        }
        b.cut();
        let stats = ObjectStats {
            etag: fingerprint_hex(data),
            has_header,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            blocks: b.blocks,
        };
        (stats, records)
    }
}

/// The fused indexer against [`reference`]: identical `ObjectStats`,
/// identical metadata strings, identical record counts, and the object
/// passed through untouched, over malformed and well-formed CSV, with and
/// without a header, at several input chunkings and block sizes.
#[cfg(test)]
mod differential {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const COLUMNS: [&str; 3] = ["a", "b", "c"];

    fn check(data: &[u8], has_header: bool, block: u64, chunk: usize) {
        let mut params = HashMap::new();
        params.insert("schema".to_string(), COLUMNS.join(","));
        params.insert("header".to_string(), if has_header { "1" } else { "0" }.to_string());
        params.insert("block".to_string(), block.to_string());
        let ctx = InvocationContext::new(params);
        let input = stream::chunked(Bytes::copy_from_slice(data), chunk.max(1));
        let out = stream::collect(ZoneIndexStorlet.invoke(input, ctx.clone()).unwrap()).unwrap();
        let shown = String::from_utf8_lossy(data);
        assert_eq!(&out[..], data, "passthrough: {shown:?}");
        let (want, records) = reference::index(data, &COLUMNS, has_header, block);
        // In memory: the metadata codec is not the thing under test (it
        // does not round-trip non-ASCII strings).
        let columns = COLUMNS.map(str::to_string).to_vec();
        let mut builder = StatsBuilder::new(columns, has_header, block);
        assert_eq!(index_records(data, has_header, &mut builder), records, "{shown:?}");
        let got = builder.finish(fingerprint_hex(data));
        assert_eq!(got, want, "stats of {shown:?} (header {has_header}, block {block})");
        let published = ctx.extra_meta.lock().clone();
        assert_eq!(published, want.to_metadata(), "metadata of {shown:?}");
        assert_eq!(ctx.metrics.records_in.load(Ordering::Relaxed), records, "{shown:?}");
        assert_eq!(ctx.metrics.records_out.load(Ordering::Relaxed), records, "{shown:?}");
        assert_eq!(ctx.metrics.bytes_in.load(Ordering::Relaxed), data.len() as u64);
    }

    /// One field's bytes as written, quotes and all.
    fn field() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            // Low cardinality: short words repeat within a block.
            "[a-c]{0,2}".prop_map(String::into_bytes),
            // High cardinality, some past MAX_STRING_STAT.
            "[A-Za-z0-9 ]{0,24}".prop_map(String::into_bytes),
            // Multi-byte characters around the 16-byte truncation point.
            "[a-z\u{e9}\u{20ac}]{12,18}".prop_map(String::into_bytes),
            // Numbers: plain decimals and what the fast path hands on.
            "[+-]?[0-9]{0,5}[.]?[0-9]{0,4}".prop_map(String::into_bytes),
            prop_oneof![
                Just("NaN"),
                Just("nan"),
                Just("inf"),
                Just("-inf"),
                Just("Infinity"),
                Just("1e5"),
                Just("-2.5E-3"),
                Just(".5"),
                Just("5."),
                Just("+3"),
                Just("-0"),
                Just("Nice"),
                Just("9007199254740993"),
            ]
            .prop_map(|s| s.as_bytes().to_vec()),
            // Quoted: embedded commas, newlines, CRs and doubled quotes.
            "\"[a-z,\n\r]{0,8}\"".prop_map(String::into_bytes),
            "\"[a-z\"]{0,6}\"".prop_map(String::into_bytes),
            // Raw bytes: stray quotes, invalid UTF-8, bare CRs.
            proptest::collection::vec(
                prop_oneof![Just(b'"'), Just(b'\r'), Just(0xC3u8), Just(0xFFu8), Just(b'x')],
                0..3,
            ),
        ]
    }

    /// Rows of 0..5 fields, ended by `\n`, `\r\n` or blank lines, the last
    /// one sometimes without a terminator.
    fn object() -> impl Strategy<Value = Vec<u8>> {
        let row = proptest::collection::vec(field(), 0..5);
        let term =
            prop_oneof![Just("\n"), Just("\n"), Just("\r\n"), Just("\n\n"), Just("\r\n\r\n")];
        (proptest::collection::vec((row, term), 0..60), any::<bool>()).prop_map(
            |(rows, final_newline)| {
                let mut out = Vec::new();
                let n = rows.len();
                for (i, (fields, term)) in rows.into_iter().enumerate() {
                    out.extend_from_slice(&fields.join(&b','));
                    if final_newline || i + 1 < n {
                        out.extend_from_slice(term.as_bytes());
                    }
                }
                out
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_indexer_matches_reference(
            data in object(),
            has_header in any::<bool>(),
            block in prop_oneof![1u64..64, 64u64..2048, Just(u64::MAX)],
            chunk in prop_oneof![1usize..16, 16usize..4096],
        ) {
            check(&data, has_header, block, chunk);
        }
    }

    #[test]
    fn fused_indexer_matches_reference_on_fixtures() {
        let many: Vec<u8> =
            (0..200).flat_map(|i| format!("v{i},{},x\n", i % 7).into_bytes()).collect();
        let accents = format!("a-string-well-over-sixteen-bytes,{},z\n", "\u{e9}".repeat(9));
        let fixtures: &[&[u8]] = &[
            b"",
            b"a,b,c\n",
            b"a,b,c",
            b"a,b,c\r\n",
            b"\n\n\r\n",
            b"\r",
            b"x,1\r",
            b"a,b,c\n1,2,3",
            b"a,b,c\n\n1,2,3\n\n\n",
            b"\"unterminated,1\r",
            b"\"unterminated\n1,2,3\n",
            b"\"x\ny\",1\r\n\"p\"\"q\",2\n",
            b"a\"b,c\nd,e\n",
            b"\xff\xfe,1\n\xc3,2\n",
            b"NaN,inf,-inf\n1e5,.5,+3\n-0,0,5.\n",
            b"m1,2015-01-03 00:00:00,1\nm2,2015-01-04 00:00:00,2\nm3,2015-01-02 00:00:00,3\n",
            accents.as_bytes(),
            &many,
        ];
        for data in fixtures {
            for has_header in [false, true] {
                for block in [1, 7, 64, 4096, u64::MAX] {
                    for chunk in [1, 3, 8, 64, 1 << 20] {
                        check(data, has_header, block, chunk);
                    }
                }
            }
        }
    }
}
