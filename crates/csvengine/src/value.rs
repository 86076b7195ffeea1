//! The typed scalar data model.
//!
//! A deliberately small lattice — `Null < Int/Float < Str` — matching what the
//! GridPocket meter data and the Table I queries require. Numeric comparisons
//! coerce `Int` and `Float`; strings compare lexicographically (byte order),
//! which is also how the paper's `date LIKE '2015-01%'`-style predicates rely
//! on ISO-8601 dates sorting textually.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A scalar value flowing through the SQL engine and pushdown filters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL / empty CSV field in a numeric column.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

/// NULL, so a value can be cheaply `std::mem::take`n out of a decoded block.
impl Default for Value {
    #[inline]
    fn default() -> Value {
        Value::Null
    }
}

impl Value {
    /// Parse a raw CSV field according to a preferred type, falling back to
    /// string when the field does not parse. Empty fields become `Null`.
    pub fn parse_typed(field: &str, dtype: crate::schema::DataType) -> Value {
        use crate::schema::DataType;
        if field.is_empty() {
            return Value::Null;
        }
        match dtype {
            DataType::Int => field
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or_else(|_| Value::Str(field.into())),
            DataType::Float => field
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or_else(|_| Value::Str(field.into())),
            DataType::Str => Value::Str(field.into()),
        }
    }

    /// Byte-level [`Value::parse_typed`]: identical semantics, but numeric
    /// fields that hit the exact fast path skip the UTF-8 pass and the
    /// general float parser entirely — this is the compute-ingest hot loop.
    /// The body that inlines into callers is deliberately tiny; everything
    /// rare (exponents, overflow, non-UTF-8) lives in the cold outlined
    /// fallback so it doesn't pollute the per-field loop.
    #[inline]
    pub fn parse_field_bytes(field: &[u8], dtype: crate::schema::DataType) -> Value {
        use crate::schema::DataType;
        if field.is_empty() {
            return Value::Null;
        }
        match dtype {
            DataType::Int => match parse_i64_simple(field) {
                Some(v) => Value::Int(v),
                None => Self::parse_field_slow(field, dtype),
            },
            DataType::Float => match parse_f64_simple(field) {
                Some(v) => Value::Float(v),
                None => Self::parse_field_slow(field, dtype),
            },
            DataType::Str => Value::Str(String::from_utf8_lossy(field).into_owned()),
        }
    }

    /// Fallback for fields the exact numeric fast path rejects: lossy UTF-8
    /// conversion plus the std parsers, preserving `parse_typed` semantics.
    #[cold]
    #[inline(never)]
    fn parse_field_slow(field: &[u8], dtype: crate::schema::DataType) -> Value {
        use crate::schema::DataType;
        let text = String::from_utf8_lossy(field);
        match dtype {
            DataType::Int => text
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or_else(|_| Value::Str(text.into_owned())),
            DataType::Float => text
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or_else(|_| Value::Str(text.into_owned())),
            DataType::Str => Value::Str(text.into_owned()),
        }
    }

    /// Best-effort numeric view (`Int` and `Float` only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view (only for `Str`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style three-valued comparison: `None` when either side is NULL or
    /// the types are incomparable (e.g. string vs number).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// SQL equality under the same coercion rules (NULL = anything → false).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// Total ordering for ORDER BY / GROUP BY keys: NULLs first, then numbers
    /// (coerced), then strings. Unlike [`Value::sql_cmp`] this is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                // Rank 1 is Int/Float only, so both coercions succeed; keep a
                // non-panicking fallback for the type system's sake.
                _ => Ordering::Equal,
            },
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Render the value the way the CSV writer / result printer does.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// Exact fast path for `-?\d+(\.\d+)?` with an exactly-representable
/// mantissa: a `u64` accumulate plus one correctly-rounded division by a
/// power of ten — the classic strtod fast case, bit-identical to the general
/// parser. Anything else (exponents, overflow, `inf`, stray bytes) returns
/// `None` and falls back to `str::parse`.
#[inline]
fn parse_f64_simple(b: &[u8]) -> Option<f64> {
    const POW10: [f64; 16] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13,
        1e14, 1e15,
    ];
    let (neg, digits) = match b.split_first()? {
        (b'-', rest) => (true, rest),
        _ => (false, b),
    };
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    let mut mant = 0u64;
    let mut frac = 0usize;
    let mut seen_dot = false;
    let mut n_digits = 0usize;
    for &c in digits {
        match c {
            b'0'..=b'9' => {
                mant = mant * 10 + (c - b'0') as u64;
                n_digits += 1;
                if seen_dot {
                    frac += 1;
                }
            }
            b'.' if !seen_dot => seen_dot = true,
            _ => return None,
        }
    }
    // ≤ 15 digits keeps the mantissa exactly representable (< 2^53).
    if n_digits == 0 || n_digits > 15 {
        return None;
    }
    let v = mant as f64 / POW10[frac];
    Some(if neg { -v } else { v })
}

/// Broadcast `'0'` — the padding byte for the SWAR digit word.
const ZERO_WORD: u64 = 0x3030_3030_3030_3030;

/// Decimal value of 8 digit characters in string order (first digit in the
/// low byte of the little-endian word), or `None` if any byte is not
/// `'0'..='9'`. Pairwise Muła reduction: three multiplies instead of eight
/// data-dependent multiply-adds.
#[inline(always)]
fn eight_digit_value(w: u64) -> Option<u64> {
    // A byte is a digit iff its high nibble is 3 and adding 6 doesn't carry
    // into the high nibble (0x39+6=0x3F stays, 0x3A+6=0x40 escapes).
    let nibble_check = (w & 0xF0F0_F0F0_F0F0_F0F0)
        | ((w.wrapping_add(0x0606_0606_0606_0606) & 0xF0F0_F0F0_F0F0_F0F0) >> 4);
    if nibble_check != 0x3333_3333_3333_3333 {
        return None;
    }
    let v = w - ZERO_WORD;
    let v = v.wrapping_mul(2561) >> 8;
    let v = (v & 0x00FF_00FF_00FF_00FF).wrapping_mul(6_553_601) >> 16;
    let v = (v & 0x0000_FFFF_0000_FFFF).wrapping_mul(42_949_672_960_001) >> 32;
    Some(v)
}

/// Branch-light float parse for a short field given over-read room: `window`
/// is the rest of the record starting at the field, `len` the field's true
/// length. One 8-byte load covers the whole field; bytes past `len` are
/// masked to `'0'` so they can never affect the result. Returns exactly what
/// [`parse_f64_simple`] would for the same field, or `None` to fall back
/// (longer fields, exotic syntax, non-digits).
#[inline(always)]
pub(crate) fn parse_f64_window(window: &[u8], len: usize) -> Option<f64> {
    const POW10: [f64; 9] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
    if len == 0 || len > 8 || window.len() < 8 {
        return None;
    }
    let w = crate::scan::load_word(window);
    let (w, len, neg) = if w as u8 == b'-' {
        (w >> 8, len - 1, true)
    } else {
        (w, len, false)
    };
    if len == 0 {
        return None;
    }
    let mask = if len == 8 { !0u64 } else { (1u64 << (8 * len)) - 1 };
    let w = (w & mask) | (ZERO_WORD & !mask);
    let dots = crate::scan::match_lanes(w, b'.');
    // With pad count p and fractional digits f, the 8-char value is
    // D·10^p, so the result is D/10^f = value/10^(p+f).
    let (digits, exp) = if dots == 0 {
        (w, 8 - len)
    } else {
        if dots & dots.wrapping_sub(1) != 0 || len == 1 {
            // Two dots, or the field is just ".".
            return None;
        }
        let d = crate::scan::lane_index(dots);
        // Drop the dot byte, close the gap, pad the vacated top with '0'.
        let low = w & ((1u64 << (8 * d)) - 1);
        let high = if d == 7 { 0 } else { (w >> (8 * (d + 1))) << (8 * d) };
        // p' = 8-(len-1), f = len-1-d, so p'+f = 8-d.
        (low | high | (0xFFu64 << 56 & ZERO_WORD), 8 - d)
    };
    let mant = eight_digit_value(digits)?;
    let v = mant as f64 / POW10[exp];
    Some(if neg { -v } else { v })
}

/// Fast path for plain decimal integers; overflow and oddities fall back.
#[inline]
fn parse_i64_simple(b: &[u8]) -> Option<i64> {
    let (neg, digits) = match b.split_first()? {
        (b'-', rest) => (true, rest),
        _ => (false, b),
    };
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut v = 0i64;
    for &c in digits {
        if !c.is_ascii_digit() {
            return None;
        }
        v = v * 10 + (c - b'0') as i64;
    }
    Some(if neg { -v } else { v })
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash numerics by their f64 bits after coercion so Int(2) and
            // Float(2.0) (equal under total_cmp) hash identically.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn window_float_parse_matches_the_serial_parser() {
        // Every candidate is parsed via the over-read window (padded with
        // comma + junk, like a real record tail) and must agree bit-for-bit
        // with parse_f64_simple / the std fallback on both value and
        // accept/reject decision.
        let pieces = [
            "0", "5", "51", "92", "9244", "123456", "1234567", "99999999", "000123",
        ];
        let mut cases: Vec<String> = Vec::new();
        for a in pieces {
            cases.push(a.to_string());
            cases.push(format!("-{a}"));
            for b in pieces {
                cases.push(format!("{a}.{b}"));
                cases.push(format!("-{a}.{b}"));
            }
        }
        for odd in [
            ".", "-.", "..", "1.2.3", "5.", ".5", "-.5", "+5", "1e3", "abc", "12a",
            "-", "--5", "12345678", "123456789", "1234.5678",
        ] {
            cases.push(odd.to_string());
        }
        for case in &cases {
            let mut window = case.clone().into_bytes();
            window.extend_from_slice(b",junk,tail");
            let got = parse_f64_window(&window, case.len());
            let reference = parse_f64_simple(case.as_bytes());
            match (got, reference) {
                (Some(g), Some(r)) => {
                    assert_eq!(g.to_bits(), r.to_bits(), "{case:?}");
                }
                (Some(g), None) => panic!("window accepted {case:?} = {g} but serial rejects"),
                (None, _) => {
                    // Declining is always allowed; the caller falls back.
                    // But anything short and plain must take the fast path.
                    if case.len() <= 8
                        && case.bytes().all(|b| b.is_ascii_digit())
                        && !case.is_empty()
                    {
                        panic!("window parser must accept plain digits {case:?}");
                    }
                }
            }
        }
        // Short-window guard: a field at the very end of a record (< 8 bytes
        // of over-read room) declines rather than reading out of bounds.
        assert_eq!(parse_f64_window(b"5.2", 3), None);
    }

    #[test]
    fn fast_number_parse_matches_std() {
        // Floats: sweep digit counts on both sides of the dot and compare
        // bit patterns against the std parser.
        let pieces = ["0", "5", "51", "9244", "12345678", "999999999", "000123"];
        for int_p in pieces {
            for frac_p in pieces {
                for s in [
                    format!("{int_p}.{frac_p}"),
                    format!("-{int_p}.{frac_p}"),
                    int_p.to_string(),
                    format!("-{int_p}"),
                ] {
                    if let Some(got) = parse_f64_simple(s.as_bytes()) {
                        let want: f64 = s.parse().unwrap();
                        assert_eq!(got.to_bits(), want.to_bits(), "{s:?}");
                    }
                }
            }
        }
        assert_eq!(parse_f64_simple(b"51.9244"), Some(51.9244));
        assert_eq!(parse_f64_simple(b"1.2.3"), None);
        assert_eq!(parse_f64_simple(b"."), None);
        assert_eq!(parse_f64_simple(b"5."), Some(5.0));
        assert_eq!(parse_f64_simple(b".5"), Some(0.5));
        // Integers, including the 18-digit boundary.
        for s in ["0", "42", "-42", "123456789", "123456789012345678", "-999999999999999999"] {
            assert_eq!(parse_i64_simple(s.as_bytes()), Some(s.parse().unwrap()), "{s:?}");
        }
        assert_eq!(parse_i64_simple(b"1234567890123456789"), None, ">18 digits falls back");
        assert_eq!(parse_i64_simple(b"12a4"), None);
    }

    #[test]
    fn parse_typed_respects_type_and_falls_back() {
        assert_eq!(Value::parse_typed("42", DataType::Int), Value::Int(42));
        assert_eq!(Value::parse_typed("4.5", DataType::Float), Value::Float(4.5));
        assert_eq!(
            Value::parse_typed("oops", DataType::Int),
            Value::Str("oops".into())
        );
        assert!(Value::parse_typed("", DataType::Int).is_null());
        assert_eq!(
            Value::parse_typed("Rotterdam", DataType::Str),
            Value::Str("Rotterdam".into())
        );
    }

    #[test]
    fn sql_cmp_coerces_numerics_and_rejects_mixed() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn total_cmp_is_total_and_ranks_types() {
        let vals = [
            Value::Null,
            Value::Int(1),
            Value::Float(1.5),
            Value::Str("a".into()),
        ];
        for a in &vals {
            for b in &vals {
                // Anti-symmetry sanity.
                assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
            }
        }
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(9) < Value::Str("".into()));
    }

    #[test]
    fn equal_numerics_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
    }

    #[test]
    fn strings_order_and_hash_by_their_bytes() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        for (a, b) in [("caf\u{e9}", "cafz"), ("\u{65e5}", "\u{1f600}"), ("ab", "abc"), ("", "a")] {
            let (x, y) = (Value::Str(a.into()), Value::Str(b.into()));
            assert_eq!(x.cmp(&y), a.as_bytes().cmp(b.as_bytes()), "{a:?} {b:?}");
            assert_eq!(x.sql_cmp(&y), Some(a.as_bytes().cmp(b.as_bytes())), "{a:?} {b:?}");
        }
        // A string hashes as `str` does, so a byte-keyed group table and a
        // `Value`-keyed map agree.
        let mut s = DefaultHasher::new();
        "abc".hash(&mut s);
        assert_eq!(h(&Value::Str("abc".into())), s.finish());
    }

    #[test]
    fn str_fields_are_lossy_utf8() {
        for raw in [
            b"plain".as_slice(),
            b"".as_slice(),
            b"caf\xc3\xa9".as_slice(),
            b"bad\xffbyte".as_slice(),
            b"this one is much longer than twenty-two bytes \xff".as_slice(),
        ] {
            let want = if raw.is_empty() {
                Value::Null
            } else {
                Value::Str(String::from_utf8_lossy(raw).into_owned())
            };
            assert_eq!(Value::parse_field_bytes(raw, DataType::Str), want, "{raw:?}");
        }
    }

    #[test]
    fn display_matches_csv_expectations() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.25).to_string(), "2.25");
        assert_eq!(Value::Str("x,y".into()).to_string(), "x,y");
    }
}
