//! Storage-side aggregation storlet.
//!
//! The paper notes the object store "can perform aggregations on individual
//! object requests to facilitate the construction of graphs from a large
//! dataset". This storlet computes count/sum/min/max/mean of one numeric CSV
//! column and emits a single-row CSV — turning a gigabyte GET into a
//! ~100-byte response.

use crate::api::{InvocationContext, Storlet};
use bytes::Bytes;
use scoop_common::{ByteStream, Result, ScoopError};
use scoop_csv::record::parse_fields;
use scoop_csv::split::RangedRecordStream;
use std::sync::atomic::Ordering;

/// Parameters: `column` (name), `schema` (comma-separated column names),
/// optional `header` ("1" when the object starts with a header row).
pub struct AggregateStorlet;

impl Storlet for AggregateStorlet {
    fn name(&self) -> &str {
        "aggregate"
    }

    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
        let column = ctx.require("column")?.to_string();
        let schema: Vec<String> = ctx
            .require("schema")?
            .split(',')
            .map(str::to_string)
            .collect();
        let col_idx = schema
            .iter()
            .position(|c| c.eq_ignore_ascii_case(&column))
            .ok_or_else(|| ScoopError::Storlet(format!("unknown column '{column}'")))?;
        let has_header = ctx.params.get("header").map(String::as_str) == Some("1");
        let metrics = ctx.metrics.clone();

        // Aggregation cannot stream incrementally — it consumes everything
        // and yields one record.
        let mut input_opt = Some(input);
        Ok(Box::new(std::iter::from_fn(move || {
            let input = input_opt.take()?;
            let run = || -> Result<Bytes> {
                let mut records = RangedRecordStream::new(input, 0, None);
                let mut skip = has_header;
                let (mut count, mut sum) = (0u64, 0f64);
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                let mut consume = |record: &[u8]| {
                    if skip {
                        skip = false;
                        return;
                    }
                    metrics.records_in.fetch_add(1, Ordering::Relaxed);
                    let fields = parse_fields(record);
                    if let Some(v) = fields
                        .get(col_idx)
                        .and_then(|f| f.parse::<f64>().ok())
                    {
                        count += 1;
                        sum += v;
                        min = min.min(v);
                        max = max.max(v);
                    }
                };
                while records.next_chunk(&mut consume)? {}
                metrics.bytes_in.fetch_add(records.offset(), Ordering::Relaxed);
                // Zero parsed rows: an explicit empty-aggregate row. min/max/
                // mean have no value — emitting the raw accumulators would
                // ship `inf`/`-inf`/NaN and fabricating `0` would claim a
                // value that never occurred, so those fields stay empty
                // (NULL), exactly how SQL MIN/MAX/AVG over no rows behave.
                let out = if count == 0 {
                    format!("count,sum,min,max,mean\n{count},{sum},,,\n")
                } else {
                    let mean = sum / count as f64;
                    format!("count,sum,min,max,mean\n{count},{sum},{min},{max},{mean}\n")
                };
                metrics.bytes_out.fetch_add(out.len() as u64, Ordering::Relaxed);
                metrics.records_out.fetch_add(1, Ordering::Relaxed);
                Ok(Bytes::from(out))
            };
            Some(run())
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_common::stream;
    use std::collections::HashMap;

    fn run(data: &'static [u8]) -> String {
        let mut params = HashMap::new();
        params.insert("column".to_string(), "index".to_string());
        params.insert("schema".to_string(), "vid,index".to_string());
        params.insert("header".to_string(), "1".to_string());
        let out = AggregateStorlet
            .invoke(
                stream::chunked(Bytes::from_static(data), 8),
                InvocationContext::new(params),
            )
            .unwrap();
        String::from_utf8(stream::collect(out).unwrap().to_vec()).unwrap()
    }

    #[test]
    fn aggregates_numeric_column() {
        let data = b"vid,index\nm1,10\nm2,30\nm3,20\n";
        let out = run(data);
        assert_eq!(out, "count,sum,min,max,mean\n3,60,10,30,20\n");
    }

    #[test]
    fn skips_non_numeric_and_handles_empty() {
        let data = b"vid,index\nm1,x\nm2,\n";
        let out = run(data);
        assert_eq!(out, "count,sum,min,max,mean\n0,0,,,\n");
    }

    #[test]
    fn zero_matching_rows_emit_no_inf_or_nan() {
        // Regression: the unguarded accumulators are ±inf/NaN when no field
        // parses; none of that may ever reach the wire.
        for data in [&b"vid,index\n"[..], &b"vid,index\nm1,notanumber\n"[..]] {
            let out = run(data);
            assert!(!out.contains("inf"), "{out}");
            assert!(!out.to_ascii_lowercase().contains("nan"), "{out}");
            assert!(out.starts_with("count,sum,min,max,mean\n0,"), "{out}");
        }
    }

    #[test]
    fn unknown_column_errors() {
        let mut params = HashMap::new();
        params.insert("column".to_string(), "ghost".to_string());
        params.insert("schema".to_string(), "a,b".to_string());
        assert!(AggregateStorlet
            .invoke(stream::empty(), InvocationContext::new(params))
            .is_err());
    }
}
