//! The percent escaping of every Scoop text codec: pushdown headers, storlet
//! parameters and zone-map statistics.
//!
//! An encoded string is ASCII: `%XX` stands for `%` itself, a byte the codec
//! reserves for its own structure, a control byte, or any non-ASCII byte.
//! Decoding is strict: a raw non-ASCII byte is an error, because no encoder
//! writes one. (Encoders before this module wrote each byte of a non-ASCII
//! character as the Latin-1 character of that byte, which decodes to a
//! different string.)

use crate::{Result, ScoopError};

/// Escape `s`: `%`, the bytes in `reserved`, control bytes and non-ASCII
/// bytes become `%XX`.
pub fn encode(s: &str, reserved: &[u8]) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b == b'%' || reserved.contains(&b) || b.is_ascii_control() || !b.is_ascii() {
            out.push_str(&format!("%{b:02X}"));
        } else {
            out.push(char::from(b));
        }
    }
    out
}

/// Undo [`encode`]; `what` names the codec in the error. Runs between
/// escapes are copied whole.
pub fn decode(s: &str, what: &str) -> Result<String> {
    let bad = |why: &str| ScoopError::InvalidRequest(format!("{what}: {why}"));
    if !s.is_ascii() {
        return Err(bad("raw non-ASCII byte"));
    }
    let mut out = Vec::with_capacity(s.len());
    let mut rest = s.as_bytes();
    while let Some(at) = rest.iter().position(|&b| b == b'%') {
        let (plain, escape) = rest.split_at(at);
        out.extend_from_slice(plain);
        let (hex, after) = escape
            .get(1..3)
            .zip(escape.get(3..))
            .ok_or_else(|| bad("truncated %-escape"))?;
        let v = std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u8::from_str_radix(hex, 16).ok())
            .ok_or_else(|| bad("bad %-escape"))?;
        out.push(v);
        rest = after;
    }
    out.extend_from_slice(rest);
    String::from_utf8(out).map_err(|_| bad("not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_ascii() {
        for s in ["", "plain", "a%b;c=d", "tab\there", "Liège", "é…|%;,", "😀", "\u{7f}"] {
            let encoded = encode(s, b";=");
            assert!(encoded.is_ascii(), "{encoded}");
            assert_eq!(decode(&encoded, "test").unwrap(), s);
        }
        assert_eq!(encode("Liège a;b", b";"), "Li%C3%A8ge a%3Bb");
        // Unreserved ASCII is its own encoding.
        assert_eq!(encode("m1,2015-01", b";"), "m1,2015-01");
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["%", "%4", "%zz", "%C3", "Liège", "LiÃ¨ge"] {
            assert!(decode(bad, "test").is_err(), "{bad}");
        }
    }
}
