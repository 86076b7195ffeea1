//! Property-based tests for the CSV engine invariants called out in DESIGN.md:
//! round-trips, split completeness, chunking invariance and LIKE semantics.

use proptest::prelude::*;
use scoop_csv::pushdown::{like_match, PushdownSpec};
use scoop_csv::record::{parse_fields, split_records, write_record, RecordSplitter};
use scoop_csv::split::{aligned_slice, plan_splits};
use scoop_csv::{Predicate, Value};

/// Arbitrary field content, including the characters that require quoting.
fn field_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 ,\"\n\r%();=_-]{0,12}").expect("regex")
}

/// Rows of newline-free fields: a written `\n` ends the record whatever the
/// quotes (the record rule), so only these round-trip record by record.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    let field = proptest::string::string_regex("[a-zA-Z0-9 ,\"\r%();=_-]{0,12}").expect("regex");
    proptest::collection::vec(proptest::collection::vec(field, 1..6), 0..30)
}

/// Line content for split tests.
fn lines_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::string::string_regex("[a-z0-9,]{0,20}").expect("regex"),
        0..40,
    )
}

proptest! {
    /// write∘parse = id for arbitrary records, including quoting.
    #[test]
    fn csv_record_roundtrip(rows in rows_strategy()) {
        let mut buf = Vec::new();
        for row in &rows {
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            write_record(&mut buf, &refs);
        }
        let records = split_records(&buf);
        prop_assert_eq!(records.len(), rows.len());
        for (rec, row) in records.iter().zip(&rows) {
            let parsed: Vec<String> =
                parse_fields(rec).into_iter().map(|c| c.into_owned()).collect();
            prop_assert_eq!(&parsed, row);
        }
    }

    /// The record splitter is invariant to chunk boundaries.
    #[test]
    fn splitter_chunking_invariant(
        rows in rows_strategy(),
        chunk in 1usize..64,
    ) {
        let mut buf = Vec::new();
        for row in &rows {
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            write_record(&mut buf, &refs);
        }
        let whole = split_records(&buf);
        let mut chunked = Vec::new();
        let mut sp = RecordSplitter::new();
        for c in buf.chunks(chunk) {
            sp.push(c, |r| chunked.push(r.to_vec())).unwrap();
        }
        sp.finish(|r| chunked.push(r.to_vec()));
        prop_assert_eq!(chunked, whole);
    }

    /// Record-aligned splits partition the object: every record appears in
    /// exactly one split, in order, for any chunk size.
    #[test]
    fn aligned_splits_cover_each_record_once(
        lines in lines_strategy(),
        chunk in 1u64..64,
        trailing_newline in any::<bool>(),
    ) {
        let mut data = lines.join("\n");
        if trailing_newline && !data.is_empty() {
            data.push('\n');
        }
        let bytes = data.as_bytes();
        let expected: Vec<Vec<u8>> = split_records(bytes);
        let mut got = Vec::new();
        for (s, e) in plan_splits(bytes.len() as u64, chunk) {
            got.extend(split_records(aligned_slice(bytes, s, e)));
        }
        prop_assert_eq!(got, expected);
    }

    /// The pushdown header encoding round-trips arbitrary column names and
    /// string literals.
    #[test]
    fn pushdown_header_roundtrip(
        col in field_strategy().prop_filter("non-empty", |s| !s.is_empty()),
        lit in field_strategy(),
        iv in any::<i64>(),
        has_header in any::<bool>(),
        project in any::<bool>(),
    ) {
        let pred = Predicate::And(
            Box::new(Predicate::Like(col.clone(), lit.clone())),
            Box::new(Predicate::Le(col.clone(), Value::Int(iv))),
        );
        let spec = PushdownSpec {
            columns: if project { Some(vec![col.clone(), "other".into()]) } else { None },
            predicate: Some(pred),
            has_header,
        };
        let back = PushdownSpec::from_header(&spec.to_header()).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// LIKE with no wildcards is equality; '%'-only matches everything.
    #[test]
    fn like_degenerate_cases(s in "[a-zA-Z0-9]{0,12}", t in "[a-zA-Z0-9]{0,12}") {
        prop_assert_eq!(like_match(&s, &t), s == t);
        prop_assert!(like_match("%", &t));
        let prefixed = format!("{s}%");
        prop_assert_eq!(like_match(&prefixed, &t), t.starts_with(&s));
        let suffixed = format!("%{s}");
        prop_assert_eq!(like_match(&suffixed, &t), t.ends_with(&s));
        let contains = format!("%{s}%");
        prop_assert_eq!(like_match(&contains, &t), t.contains(&s));
    }

    /// Typed value total order is antisymmetric and transitive on samples.
    #[test]
    fn value_total_order_laws(
        a in any::<i64>(), b in any::<f64>(), s in "[a-z]{0,6}",
    ) {
        let vals = [Value::Null, Value::Int(a), Value::Float(b), Value::Str(s)];
        for x in &vals {
            for y in &vals {
                prop_assert_eq!(x.total_cmp(y), y.total_cmp(x).reverse());
                for z in &vals {
                    if x.total_cmp(y) != std::cmp::Ordering::Greater
                        && y.total_cmp(z) != std::cmp::Ordering::Greater
                    {
                        prop_assert_ne!(x.total_cmp(z), std::cmp::Ordering::Greater);
                    }
                }
            }
        }
    }
}
