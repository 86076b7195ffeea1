//! The CSV projection/selection pushdown filter — the paper's `CSVStorlet`.
//!
//! Parameters:
//!
//! * `spec` — a [`PushdownSpec`] header encoding (projection, selection,
//!   header flag) as produced by the analytics delegator.
//! * `schema` — the object's column names in file order, comma-separated.
//!
//! The filter is **byte-range aware** with Hadoop `LineRecordReader`
//! ownership semantics (see `scoop_csv::split`): when invoked with
//! `range_start > 0` it discards bytes through the first newline (unless the
//! window is pre-aligned), and it owns records starting at offsets `p` with
//! `range_start < p <= range_end`, reading past `range_end` to finish the
//! final owned record and then **stopping the input stream early** — the
//! laziness that keeps a ranged invocation from scanning the rest of the
//! object. The ownership rules are [`RangedRecordStream`]'s and the filter
//! loop is [`FilterDriver`]'s; this storlet is a thin adapter that publishes
//! the driver's counters.

use crate::api::{InvocationContext, Storlet};
use bytes::Bytes;
use scoop_common::{ByteStream, Result, ScoopError};
use scoop_csv::filter::{CompiledSpec, FilterDriver, FilterStats};
use scoop_csv::split::RangedRecordStream;
use scoop_csv::PushdownSpec;
use std::time::Instant;

/// The CSV pushdown storlet.
pub struct CsvFilterStorlet;

impl Storlet for CsvFilterStorlet {
    fn name(&self) -> &str {
        "csvfilter"
    }

    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
        let spec = PushdownSpec::from_header(ctx.require("spec")?)?;
        let schema: Vec<String> = ctx
            .require("schema")?
            .split(',')
            .map(str::to_string)
            .collect();
        if schema.is_empty() {
            return Err(ScoopError::Storlet("empty schema parameter".into()));
        }
        let compiled = CompiledSpec::compile(&spec, &schema)?;
        ctx.logger.log(format!(
            "csvfilter: range_start={} range_end={:?} cols={:?}",
            ctx.range_start, ctx.range_end, spec.columns
        ));
        // ctx.range_end is the inclusive HTTP-style end byte; ownership uses
        // the exclusive split end (records with start <= end+1 belong to this
        // range — see scoop_csv::split). Saturating: a suffix-style
        // `bytes=0-18446744073709551615` end is a legal header, and u64::MAX
        // already means "own everything", so the clamp loses nothing.
        let end = ctx.range_end.map(|e| e.saturating_add(1));
        let records = if ctx.pre_aligned {
            RangedRecordStream::pre_aligned(input, ctx.range_start, end)
        } else {
            RangedRecordStream::new(input, ctx.range_start, end)
        };
        let mut filter = FilterDriver::new(records, compiled, ctx.range_start == 0);
        let metrics = ctx.metrics;
        // Each pull fills one output chunk; the counters are published once
        // per pull.
        Ok(Box::new(std::iter::from_fn(move || {
            let started = Instant::now();
            let (mut out, mut stats) = (Vec::new(), FilterStats::default());
            let filled = filter.fill(&mut out, &mut stats);
            let m = &metrics;
            m.add(&m.bytes_in, stats.bytes_in);
            m.add(&m.records_in, stats.records_in);
            m.add(&m.records_out, stats.records_out);
            m.add(&m.busy_ns, started.elapsed().as_nanos() as u64);
            if let Err(e) = filled {
                return Some(Err(e));
            }
            if out.is_empty() {
                return None;
            }
            m.add(&m.bytes_out, stats.bytes_out);
            Some(Ok(Bytes::from(out)))
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::InvocationMetrics;
    use scoop_common::stream;
    use scoop_csv::filter::filter_buffer;
    use scoop_csv::split::{aligned_slice, plan_splits};
    use scoop_csv::{Predicate, Value};
    use std::collections::HashMap;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    const SCHEMA: &str = "vid,date,index,city";
    const DATA: &[u8] = b"vid,date,index,city\n\
        m1,2015-01-03,100.5,Rotterdam\n\
        m2,2015-01-04,200.0,Paris\n\
        m3,2015-02-01,50.0,Utrecht\n\
        m4,2015-01-09,75.0,Rotterdam\n";

    fn spec() -> PushdownSpec {
        PushdownSpec {
            columns: Some(vec!["vid".into(), "index".into()]),
            predicate: Some(Predicate::Eq("city".into(), Value::Str("Rotterdam".into()))),
            has_header: true,
        }
    }

    /// Invoke on the bytes of `data` from `start` on, read in chunks of
    /// `read`: the filtered output and the invocation's counters.
    fn invoke(
        data: &[u8],
        spec: &PushdownSpec,
        start: u64,
        end: Option<u64>,
        pre_aligned: bool,
        read: usize,
    ) -> (Vec<u8>, Arc<InvocationMetrics>) {
        let mut params = HashMap::new();
        params.insert("spec".to_string(), spec.to_header());
        params.insert("schema".to_string(), SCHEMA.to_string());
        let mut ctx = InvocationContext::new(params);
        ctx.range_start = start;
        ctx.range_end = end;
        ctx.pre_aligned = pre_aligned;
        let metrics = ctx.metrics.clone();
        // The middleware feeds the storlet bytes from range_start onward.
        let body = Bytes::copy_from_slice(&data[start as usize..]);
        let out = CsvFilterStorlet
            .invoke(stream::chunked(body, read), ctx)
            .unwrap();
        (stream::collect(out).unwrap().to_vec(), metrics)
    }

    fn invoke_range(
        data: &[u8],
        spec: &PushdownSpec,
        start: u64,
        end: Option<u64>,
        chunk: usize,
    ) -> (String, Arc<InvocationMetrics>) {
        let (out, metrics) = invoke(data, spec, start, end, false, chunk);
        (String::from_utf8(out).unwrap(), metrics)
    }

    #[test]
    fn whole_object_filtering() {
        let (out, m) = invoke_range(DATA, &spec(), 0, None, 7);
        assert_eq!(out, "m1,100.5\nm4,75.0\n");
        assert_eq!(m.records_in.load(Ordering::Relaxed), 4);
        assert_eq!(m.records_out.load(Ordering::Relaxed), 2);
        assert!(m.data_selectivity() > 0.5);
    }

    #[test]
    fn matches_filter_buffer_reference() {
        let header: Vec<String> = SCHEMA.split(',').map(str::to_string).collect();
        let (reference, _) = filter_buffer(&spec(), &header, DATA, true).unwrap();
        let (out, _) = invoke_range(DATA, &spec(), 0, None, 3);
        assert_eq!(out.as_bytes(), &reference[..]);
    }

    /// `DATA` with CRLF and bare LF terminators, blank lines, and a last
    /// record with no newline (only its CR).
    const RAGGED: &[u8] = b"vid,date,index,city\r\n\
        m1,2015-01-03,100.5,Rotterdam\r\n\r\n\
        m2,2015-01-04,200.0,Paris\n\n\
        m3,2015-02-01,50.0,Utrecht\r\n\
        m4,2015-01-09,75.0,Rotterdam\n\
        m5,2015-01-10,5.0,Rotterdam\r";

    /// The key contract: for any split plan and any input chunking,
    /// concatenating ranged storlet outputs equals filtering each record
    /// exactly once — identical to the `aligned_slice` reference
    /// implementation, and to planner-cut pre-aligned windows.
    #[test]
    fn ranged_invocations_match_aligned_slices() {
        let header: Vec<String> = SCHEMA.split(',').map(str::to_string).collect();
        let spec = spec();
        let mut seed = 7u64;
        let mut read = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1 + (seed >> 33) as usize % 48
        };
        for data in [DATA, RAGGED] {
            let (whole, _) = filter_buffer(&spec, &header, data, true).unwrap();
            for chunk_size in [16u64, 23, 40, 64, 200] {
                let mut combined = Vec::new();
                let mut reference = Vec::new();
                for (s, e) in plan_splits(data.len() as u64, chunk_size) {
                    // Reference: aligned slice, filtered (header only in split 0).
                    let slice = aligned_slice(data, s, e);
                    let spec_for_split = PushdownSpec {
                        has_header: spec.has_header && s == 0,
                        ..spec.clone()
                    };
                    let (r, _) = filter_buffer(&spec_for_split, &header, slice, true).unwrap();
                    reference.extend_from_slice(&r);
                    // Storlet: inclusive-end range [s, e-1].
                    let (out, _) = invoke(data, &spec, s, Some(e - 1), false, read());
                    combined.extend_from_slice(&out);
                }
                assert_eq!(combined, reference, "chunk_size={chunk_size}");
                assert_eq!(combined, whole, "chunk_size={chunk_size}");
            }
            // Windows cut on record starts, as the block planner cuts them:
            // each past the first is pre-aligned and owns its first record.
            let starts: Vec<usize> = std::iter::once(0)
                .chain((1..data.len()).filter(|&i| data[i - 1] == b'\n'))
                .collect();
            for every in 1..=3 {
                let mut cuts: Vec<usize> = starts.iter().step_by(every).copied().collect();
                cuts.push(data.len());
                let mut combined = Vec::new();
                for w in cuts.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let (out, _) =
                        invoke(&data[..b], &spec, a as u64, Some(b as u64 - 1), a > 0, read());
                    combined.extend_from_slice(&out);
                }
                assert_eq!(combined, whole, "every {every}th record start");
            }
        }
    }

    /// The counters of ranged invocations over a 400-record object, pinned
    /// to what the storlet published when it split records itself.
    #[test]
    fn invocation_metrics_are_pinned() {
        let mut data = b"vid,date,index,city\n".to_vec();
        for i in 0..400 {
            let city = ["Rotterdam", "Paris", "Utrecht"][i % 3];
            data.extend_from_slice(
                format!("m{i},2015-0{}-{:02},{i}.5,{city}\n", 1 + i % 3, 1 + i % 28).as_bytes(),
            );
        }
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "index".into()]),
            predicate: Some(Predicate::And(
                Box::new(Predicate::Eq("city".into(), Value::Str("Rotterdam".into()))),
                Box::new(Predicate::Like("date".into(), "2015-01%".into())),
            )),
            has_header: true,
        };
        let counters: Vec<[u64; 4]> = [(0, None), (0, Some(4999)), (3000, Some(8999)), (9000, None)]
            .into_iter()
            .map(|(start, end)| {
                let (_, m) = invoke(&data, &spec, start, end, false, 4096);
                [&m.records_in, &m.records_out, &m.bytes_in, &m.bytes_out]
                    .map(|c| c.load(Ordering::Relaxed))
            })
            .collect();
        // [records_in, records_out, bytes_in, bytes_out] per range.
        let pinned = [
            [400, 134, 11802, 1398],
            [174, 58, 8192, 562],
            [200, 67, 8192, 737],
            [93, 31, 2802, 341],
        ];
        assert_eq!(counters, pinned);
    }

    #[test]
    fn early_termination_stops_reading() {
        // Large object: range covers only the start; the stream must not
        // consume the whole input.
        let mut big = Vec::from(&b"a,b\n"[..]);
        for i in 0..100_000 {
            big.extend_from_slice(format!("m{i},1\n").as_bytes());
        }
        let big: &'static [u8] = Box::leak(big.into_boxed_slice());
        let spec = PushdownSpec { has_header: true, ..Default::default() };
        let mut params = HashMap::new();
        params.insert("spec".to_string(), spec.to_header());
        params.insert("schema".to_string(), "a,b".to_string());
        let mut ctx = InvocationContext::new(params);
        ctx.range_start = 0;
        ctx.range_end = Some(1000);
        let metrics = ctx.metrics.clone();
        let out = CsvFilterStorlet
            .invoke(
                stream::chunked(Bytes::from_static(big), 4096),
                ctx,
            )
            .unwrap();
        let _ = stream::collect(out).unwrap();
        let consumed = metrics.bytes_in.load(Ordering::Relaxed);
        assert!(
            consumed < 20_000,
            "consumed {consumed} bytes for a 1000-byte range"
        );
    }

    #[test]
    fn u64_max_range_end_owns_everything() {
        // Regression: `e + 1` overflow-panicked on the largest legal
        // inclusive end; it must behave exactly like an unbounded range.
        let (unbounded, _) = invoke_range(DATA, &spec(), 0, None, 9);
        let (clamped, _) = invoke_range(DATA, &spec(), 0, Some(u64::MAX), 9);
        assert_eq!(clamped, unbounded);
        assert_eq!(clamped, "m1,100.5\nm4,75.0\n");
    }

    #[test]
    fn pre_aligned_range_keeps_first_record() {
        // Byte 20 is the start of the m1 record; a planner-cut range
        // starting there must not discard it through newline alignment.
        let start = DATA.iter().position(|&b| b == b'\n').unwrap() as u64 + 1;
        let mut params = HashMap::new();
        params.insert("spec".to_string(), spec().to_header());
        params.insert("schema".to_string(), SCHEMA.to_string());
        let mut ctx = InvocationContext::new(params);
        ctx.range_start = start;
        ctx.range_end = None;
        ctx.pre_aligned = true;
        let body = Bytes::from_static(&DATA[start as usize..]);
        let out = CsvFilterStorlet.invoke(stream::chunked(body, 13), ctx).unwrap();
        let out = String::from_utf8(stream::collect(out).unwrap().to_vec()).unwrap();
        // All data records present: nothing was discarded, no header skip.
        assert_eq!(out, "m1,100.5\nm4,75.0\n");
        // Without the flag, the same invocation drops the first record.
        let (unaligned, _) = invoke_range(DATA, &spec(), start, None, 13);
        assert_eq!(unaligned, "m4,75.0\n");
    }

    #[test]
    fn an_unterminated_record_past_the_cap_fails_the_invocation() {
        let body = Bytes::from(vec![b'x'; scoop_csv::record::DEFAULT_MAX_RECORD_SIZE + 1]);
        for end in [Some(10), None] {
            let mut params = HashMap::new();
            params.insert("spec".to_string(), PushdownSpec::passthrough().to_header());
            params.insert("schema".to_string(), SCHEMA.to_string());
            let mut ctx = InvocationContext::new(params);
            ctx.range_end = end;
            let out = CsvFilterStorlet.invoke(stream::chunked(body.clone(), 1 << 20), ctx).unwrap();
            let err = stream::collect(out).unwrap_err();
            assert!(matches!(err, ScoopError::Csv(_)), "{err}");
        }
    }

    #[test]
    fn missing_params_error() {
        let ctx = InvocationContext::new(HashMap::new());
        assert!(CsvFilterStorlet
            .invoke(stream::empty(), ctx)
            .is_err());
        let mut params = HashMap::new();
        params.insert("spec".to_string(), "hdr=1;cols=*;pred=".to_string());
        // schema missing
        assert!(CsvFilterStorlet
            .invoke(stream::empty(), InvocationContext::new(params))
            .is_err());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, m) = invoke_range(b"", &PushdownSpec::passthrough(), 0, None, 8);
        assert!(out.is_empty());
        assert_eq!(m.records_in.load(Ordering::Relaxed), 0);
    }
}
