//! PUT-path ETL storlet: cleansing and format transformation on upload.
//!
//! "We use Storlet for data cleansing and for modifying the data format (e.g.
//! split a column into multiple ones). These transformation simplify Spark
//! workloads without requiring painful rewrites of huge data sets." —
//! Section V. The GridPocket datasets in the evaluation "upon being uploaded
//! into the object store, \[were\] cleansed by an ETL storlet".
//!
//! Transformations (driven by parameters):
//!
//! * trim surrounding whitespace from every field;
//! * drop records whose field count differs from the schema (malformed rows);
//! * optionally split one column on a separator into two columns — e.g. a
//!   `"2015-01-03 10:20:00"` timestamp into `date` + `time`.

use crate::api::{map_records, InvocationContext, Storlet};
use scoop_common::{ByteStream, Result, ScoopError};
use scoop_csv::record::{parse_fields, write_record};

/// Parameters: `schema` (expected column names), optional `split_column`
/// (name), `split_sep` (default `" "`), `header` ("1" to rewrite the header).
pub struct EtlCleanseStorlet;

impl Storlet for EtlCleanseStorlet {
    fn name(&self) -> &str {
        "etlcleanse"
    }

    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
        let schema: Vec<String> = ctx
            .require("schema")?
            .split(',')
            .map(str::to_string)
            .collect();
        let split_column = ctx.params.get("split_column").cloned();
        let split_sep = ctx
            .params
            .get("split_sep")
            .cloned()
            .unwrap_or_else(|| " ".to_string());
        let split_idx = match &split_column {
            None => None,
            Some(name) => Some(
                schema
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(name))
                    .ok_or_else(|| {
                        ScoopError::Storlet(format!("unknown split column '{name}'"))
                    })?,
            ),
        };
        let expected_fields = schema.len();
        let mut header_pending = ctx.params.get("header").map(String::as_str) == Some("1");
        Ok(map_records(input, ctx.metrics, move |record, out| {
            let fields = parse_fields(record);
            if std::mem::take(&mut header_pending) {
                // Rewrite the header, applying the column split to names.
                let names: Vec<String> = transform(
                    &fields.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
                    split_idx,
                    &split_sep,
                    true,
                );
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                write_record(out, &refs);
                return true;
            }
            if fields.len() != expected_fields {
                return false; // malformed row: dropped
            }
            let trimmed: Vec<String> = fields.iter().map(|f| f.trim().to_string()).collect();
            let cells = transform(&trimmed, split_idx, &split_sep, false);
            let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
            write_record(out, &refs);
            true
        }))
    }
}

/// Apply the column split. For headers, derive `<name>_1`/`<name>_2`.
fn transform(
    fields: &[String],
    split_idx: Option<usize>,
    sep: &str,
    is_header: bool,
) -> Vec<String> {
    let Some(idx) = split_idx else {
        return fields.to_vec();
    };
    let mut out = Vec::with_capacity(fields.len() + 1);
    for (i, f) in fields.iter().enumerate() {
        if i == idx {
            if is_header {
                out.push(format!("{f}_1"));
                out.push(format!("{f}_2"));
            } else {
                match f.split_once(sep) {
                    Some((a, b)) => {
                        out.push(a.to_string());
                        out.push(b.to_string());
                    }
                    None => {
                        out.push(f.clone());
                        out.push(String::new());
                    }
                }
            }
        } else {
            out.push(f.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scoop_common::stream;
    use std::collections::HashMap;

    fn run(data: &'static [u8], split: Option<&str>) -> String {
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "vid,date,index".to_string());
        params.insert("header".to_string(), "1".to_string());
        if let Some(col) = split {
            params.insert("split_column".to_string(), col.to_string());
        }
        let out = EtlCleanseStorlet
            .invoke(
                stream::chunked(Bytes::from_static(data), 9),
                InvocationContext::new(params),
            )
            .unwrap();
        String::from_utf8(stream::collect(out).unwrap().to_vec()).unwrap()
    }

    #[test]
    fn trims_and_drops_malformed() {
        let data = b"vid,date,index\n m1 , 2015-01-03 ,  5 \nbad,row\nm2,2015-01-04,6\n";
        let out = run(data, None);
        assert_eq!(out, "vid,date,index\nm1,2015-01-03,5\nm2,2015-01-04,6\n");
    }

    #[test]
    fn splits_timestamp_column() {
        let data = b"vid,date,index\nm1,2015-01-03 10:20:00,5\n";
        let out = run(data, Some("date"));
        assert_eq!(out, "vid,date_1,date_2,index\nm1,2015-01-03,10:20:00,5\n");
    }

    #[test]
    fn split_without_separator_pads_empty() {
        let data = b"vid,date,index\nm1,nodate,5\n";
        let out = run(data, Some("date"));
        assert!(out.contains("m1,nodate,,5\n"), "{out}");
    }

    #[test]
    fn unknown_split_column_errors() {
        let mut params = HashMap::new();
        params.insert("schema".to_string(), "a,b".to_string());
        params.insert("split_column".to_string(), "ghost".to_string());
        assert!(EtlCleanseStorlet
            .invoke(stream::empty(), InvocationContext::new(params))
            .is_err());
    }
}
