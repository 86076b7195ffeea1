//! Schemas: ordered, named, typed columns.

use crate::value::Value;
use scoop_common::{Result, ScoopError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The column types supported by the data model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str => write!(f, "str"),
        }
    }
}

/// A single named column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Column name (case-sensitive; SQL resolution lowercases at parse time).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype }
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from a field list.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a column by name (case-insensitive, like Spark SQL).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Schema::index_of`] but returns a descriptive error.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            ScoopError::Sql(format!(
                "unknown column '{name}' (available: {})",
                self.fields
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Sub-schema with only the named columns, in the order given.
    pub fn project(&self, columns: &[String]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(columns.len());
        for c in columns {
            fields.push(self.fields[self.resolve(c)?].clone());
        }
        Ok(Schema::new(fields))
    }

    /// Parse one raw record (string fields) into a typed row. Extra fields
    /// are dropped; missing fields become NULL, mirroring permissive CSV
    /// ingestion in Spark-CSV.
    pub fn parse_row(&self, fields: &[&str]) -> Vec<Value> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                fields
                    .get(i)
                    .map(|raw| Value::parse_typed(raw, f.dtype))
                    .unwrap_or(Value::Null)
            })
            .collect()
    }

    /// Parse a typed row straight off a zero-copy [`crate::view::RecordView`]
    /// — same semantics as [`Schema::parse_row`] (extra fields dropped,
    /// missing fields NULL) without materializing intermediate strings for
    /// numeric columns.
    pub fn parse_view(&self, view: &crate::view::RecordView<'_, '_>) -> Vec<Value> {
        self.fields.iter().enumerate().map(|(i, f)| typed_field(view, i, f.dtype)).collect()
    }

    /// Infer a schema from a header record plus sample data records:
    /// a column is `Int` if every non-empty sample parses as i64, `Float` if
    /// every non-empty sample parses as f64, `Str` otherwise.
    pub fn infer(header: &[&str], samples: &[Vec<&str>]) -> Schema {
        let fields = header
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut any = false;
                let mut all_int = true;
                let mut all_float = true;
                for row in samples {
                    if let Some(cell) = row.get(i) {
                        if cell.is_empty() {
                            continue;
                        }
                        any = true;
                        if cell.parse::<i64>().is_err() {
                            all_int = false;
                        }
                        if cell.parse::<f64>().is_err() {
                            all_float = false;
                        }
                    }
                }
                let dtype = if any && all_int {
                    DataType::Int
                } else if any && all_float {
                    DataType::Float
                } else {
                    DataType::Str
                };
                Field::new(name.to_string(), dtype)
            })
            .collect();
        Schema::new(fields)
    }
}

/// Field `i` of `view` typed as `dtype`; NULL when the record has no such
/// field.
#[inline]
fn typed_field(view: &crate::view::RecordView<'_, '_>, i: usize, dtype: DataType) -> Value {
    // Unquoted fields skip the Cow wrapper entirely.
    if let Some(raw) = view.plain_bytes(i) {
        return Value::parse_field_bytes(raw, dtype);
    }
    match view.bytes(i) {
        Some(raw) => Value::parse_field_bytes(&raw, dtype),
        None => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter_schema() -> Schema {
        Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
        ])
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = meter_schema();
        assert_eq!(s.index_of("VID"), Some(0));
        assert_eq!(s.index_of("Index"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.resolve("nope").is_err());
    }

    #[test]
    fn project_preserves_request_order() {
        let s = meter_schema();
        let p = s.project(&["index".into(), "vid".into()]).unwrap();
        assert_eq!(p.names(), vec!["index", "vid"]);
        assert!(s.project(&["ghost".into()]).is_err());
    }

    #[test]
    fn parse_row_pads_and_types() {
        let s = meter_schema();
        let row = s.parse_row(&["m1", "2015-01-03 10:00:00"]);
        assert_eq!(row[0], Value::Str("m1".into()));
        assert!(row[2].is_null());
        let row = s.parse_row(&["m1", "d", "4.5", "extra"]);
        assert_eq!(row[2], Value::Float(4.5));
        assert_eq!(row.len(), 3);
    }

    #[test]
    fn row_from_commas_matches_parse_view_on_clean_records() {
        // The batch typer's comma path against the view path, record by
        // record; a record that is not a slice of the input is copied.
        let s = Schema::new(vec![
            Field::new("vid", DataType::Str),
            Field::new("date", DataType::Str),
            Field::new("index", DataType::Float),
            Field::new("count", DataType::Int),
        ]);
        let records: &[&[u8]] = &[
            b"m1,2015-02-01 00:00:00,12.50,7",
            b"m2,d,," ,
            b"m3",
            b"",
            b"m4,d,1.5,9,extra,fields,dropped",
            b"m5,d,not_a_float,not_an_int",
            b",,,",
            b"m6,d,-0.25,-3",
        ];
        let mut buf = crate::view::FieldBuf::default();
        for rec in records {
            let commas: Vec<u32> = rec
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b',')
                .map(|(i, _)| i as u32)
                .collect();
            let input = bytes::Bytes::copy_from_slice(rec);
            for slice in [&input[..], &rec[..]] {
                let mut batch = crate::batch::BatchBuilder::new(&s, input.clone());
                batch.push_commas(slice, &commas);
                let fast = batch.finish().row(0).unwrap();
                let slow = s.parse_view(&buf.parse_bounded(rec, s.len()));
                assert_eq!(fast, slow, "on {:?}", String::from_utf8_lossy(rec));
            }
        }
    }

    #[test]
    fn infer_picks_narrowest_type() {
        let header = vec!["a", "b", "c", "d"];
        let samples = vec![
            vec!["1", "1.5", "x", ""],
            vec!["2", "2", "9", ""],
        ];
        let s = Schema::infer(&header, &samples);
        assert_eq!(s.fields[0].dtype, DataType::Int);
        assert_eq!(s.fields[1].dtype, DataType::Float);
        assert_eq!(s.fields[2].dtype, DataType::Str);
        // All-empty column defaults to Str.
        assert_eq!(s.fields[3].dtype, DataType::Str);
    }
}
