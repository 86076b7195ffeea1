//! On-disk layout: row groups + footer.
//!
//! ```text
//! [rg0 col0 chunk][rg0 col1 chunk]...[rg1 col0 chunk]...[footer][len u32]["SCOL"]
//! ```
//!
//! Like Parquet, all metadata (schema, chunk offsets/lengths, per-chunk
//! min/max statistics, row counts) lives in a footer at the end of the
//! object, so a reader fetches the tail first and then only the chunks it
//! needs — which is what makes column pruning cheap over ranged GETs.

use crate::encode::{put_bytes, put_u32, put_u64, put_varint, Cursor};
use scoop_common::{Result, ScoopError};
use scoop_csv::schema::{DataType, Field, Schema};
use scoop_csv::Value;

/// Trailing magic.
pub const MAGIC: &[u8; 4] = b"SCOL";
/// Format version.
pub const VERSION: u8 = 1;

/// Location + stats of one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Absolute byte offset of the encoded chunk.
    pub offset: u64,
    /// Encoded length in bytes.
    pub length: u64,
    /// Minimum non-null value (Null when the chunk is all-null/empty).
    pub min: Value,
    /// Maximum non-null value.
    pub max: Value,
}

/// Metadata of one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub rows: u64,
    /// One chunk per schema column, in schema order.
    pub chunks: Vec<ChunkMeta>,
}

/// The parsed footer.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    /// Logical schema.
    pub schema: Schema,
    /// Row groups in file order.
    pub row_groups: Vec<RowGroupMeta>,
}

impl Footer {
    /// Total row count.
    pub fn num_rows(&self) -> u64 {
        self.row_groups.iter().map(|g| g.rows).sum()
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_varint(out, crate::encode::zigzag(*i));
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_bytes(out, s.as_bytes());
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value> {
    let tag = c.bytes_one()?;
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Int(crate::encode::unzigzag(c.varint()?)),
        2 => Value::Float(c.f64()?),
        3 => Value::Str(String::from_utf8_lossy(c.bytes()?).into_owned()),
        other => return Err(ScoopError::Columnar(format!("bad value tag {other}"))),
    })
}

impl Footer {
    /// Serialize the footer (without length/magic trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(VERSION);
        put_varint(&mut out, self.schema.len() as u64);
        for f in &self.schema.fields {
            put_bytes(&mut out, f.name.as_bytes());
            out.push(match f.dtype {
                DataType::Int => 0,
                DataType::Float => 1,
                DataType::Str => 2,
            });
        }
        put_varint(&mut out, self.row_groups.len() as u64);
        for g in &self.row_groups {
            put_varint(&mut out, g.rows);
            for c in &g.chunks {
                put_u64(&mut out, c.offset);
                put_u64(&mut out, c.length);
                put_value(&mut out, &c.min);
                put_value(&mut out, &c.max);
            }
        }
        out
    }

    /// Parse a footer buffer.
    pub fn decode(data: &[u8]) -> Result<Footer> {
        let mut c = Cursor::new(data);
        let version = c.bytes_one()?;
        if version != VERSION {
            return Err(ScoopError::Columnar(format!(
                "unsupported columnar version {version}"
            )));
        }
        let n_cols = c.count("column")?;
        let mut fields = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = String::from_utf8_lossy(c.bytes()?).into_owned();
            let dtype = match c.bytes_one()? {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Str,
                other => {
                    return Err(ScoopError::Columnar(format!("bad dtype tag {other}")))
                }
            };
            fields.push(Field::new(name, dtype));
        }
        let n_groups = c.count("row group")?;
        let mut row_groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let rows = c.varint()?;
            let mut chunks = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let offset = c.u64()?;
                let length = c.u64()?;
                let min = get_value(&mut c)?;
                let max = get_value(&mut c)?;
                chunks.push(ChunkMeta { offset, length, min, max });
            }
            row_groups.push(RowGroupMeta { rows, chunks });
        }
        Ok(Footer { schema: Schema::new(fields), row_groups })
    }

    /// Append the footer + trailer (length + magic) to a file buffer.
    pub fn write_trailer(&self, out: &mut Vec<u8>) {
        let footer = self.encode();
        let len = footer.len() as u32;
        out.extend_from_slice(&footer);
        put_u32(out, len);
        out.extend_from_slice(MAGIC);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_column, Cell};

    fn footer() -> Footer {
        Footer {
            schema: Schema::new(vec![
                Field::new("vid", DataType::Str),
                Field::new("index", DataType::Float),
            ]),
            row_groups: vec![RowGroupMeta {
                rows: 100,
                chunks: vec![
                    ChunkMeta {
                        offset: 0,
                        length: 512,
                        min: Value::Str("m1".into()),
                        max: Value::Str("m99".into()),
                    },
                    ChunkMeta {
                        offset: 512,
                        length: 800,
                        min: Value::Float(0.5),
                        max: Value::Float(99.0),
                    },
                ],
            }],
        }
    }

    #[test]
    fn footer_roundtrip() {
        let f = footer();
        let enc = f.encode();
        assert_eq!(Footer::decode(&enc).unwrap(), f);
        assert_eq!(f.num_rows(), 100);
    }

    #[test]
    fn trailer_layout() {
        let f = footer();
        let mut buf = vec![0u8; 10]; // pretend chunk data
        f.write_trailer(&mut buf);
        assert_eq!(&buf[buf.len() - 4..], MAGIC);
        let len = u32::from_le_bytes(buf[buf.len() - 8..buf.len() - 4].try_into().unwrap());
        let footer_bytes = &buf[buf.len() - 8 - len as usize..buf.len() - 8];
        assert_eq!(Footer::decode(footer_bytes).unwrap(), f);
    }

    /// A chunk's min/max, as the encoder reports them with the chunk.
    fn stats(values: &[Value]) -> (Value, Value) {
        let cells: Vec<Option<Cell<'_>>> = values.iter().map(Cell::of_value).collect();
        encode_column(&cells, &mut Vec::new())
    }

    #[test]
    fn stats_ignore_nulls() {
        let (min, max) = stats(&[Value::Null, Value::Int(5), Value::Int(-3), Value::Null]);
        assert_eq!(min, Value::Int(-3));
        assert_eq!(max, Value::Int(5));
        let (min, max) = stats(&[Value::Null]);
        assert!(min.is_null() && max.is_null());
    }

    #[test]
    fn stats_order_cells_as_values_do() {
        // Numbers by `f64::total_cmp` (an Int as f64, -0.0 below 0.0, NaN
        // above everything), below strings, which order by their bytes; the
        // first of equal cells is kept.
        let values = [
            Value::Float(0.0),
            Value::Int(0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Str("é".into()),
            Value::Str("z".into()),
            Value::Float(f64::INFINITY),
        ];
        let (min, max) = stats(&values);
        let want_min = values.iter().min_by(|a, b| a.total_cmp(b));
        let want_max = values.iter().rev().max_by(|a, b| a.total_cmp(b));
        assert!(matches!(min, Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(Some(&min), want_min);
        assert_eq!(max, Value::Str("é".into()));
        assert_eq!(Some(&max), want_max);
        let (min, max) = stats(&values[..4]);
        assert!(matches!(max, Value::Float(f) if f.is_nan()));
        assert!(matches!(min, Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
        let (min, _) = stats(&[Value::Int(1), Value::Float(1.0)]);
        assert!(matches!(min, Value::Int(1)), "first of equal cells");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Footer::decode(&[]).is_err());
        assert!(Footer::decode(&[99]).is_err());
    }

    #[test]
    fn counts_larger_than_the_footer_are_corrupt_not_allocations() {
        // 2^40 columns in a 7-byte footer.
        let mut footer = vec![VERSION];
        put_varint(&mut footer, 1 << 40);
        assert_eq!(footer.len(), 7);
        assert!(matches!(Footer::decode(&footer), Err(ScoopError::Corrupt(_))));
        // No columns and 2^40 row groups.
        let mut footer = vec![VERSION, 0];
        put_varint(&mut footer, 1 << 40);
        assert!(matches!(Footer::decode(&footer), Err(ScoopError::Corrupt(_))));
    }
}
