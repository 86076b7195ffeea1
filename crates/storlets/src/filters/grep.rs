//! Line-grep storlet: early discard of lines lacking a substring.
//!
//! The simplest useful pushdown filter — the shape of Diamond-style "early
//! discard" cited by the paper — and a second, independent storlet to exercise
//! pipelining (e.g. `linegrep` → `rlecompress`).

use crate::api::{map_records, InvocationContext, Storlet};
use scoop_common::{ByteStream, Result};

/// Keeps lines containing the `pattern` parameter. With `invert=1`, keeps
/// lines *not* containing it.
pub struct LineGrepStorlet;

impl Storlet for LineGrepStorlet {
    fn name(&self) -> &str {
        "linegrep"
    }

    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
        let pattern = ctx.require("pattern")?.as_bytes().to_vec();
        let invert = ctx.params.get("invert").map(String::as_str) == Some("1");
        Ok(map_records(input, ctx.metrics, move |line, out| {
            let keep = contains(line, &pattern) != invert;
            if keep {
                out.extend_from_slice(line);
                out.push(b'\n');
            }
            keep
        }))
    }
}

/// Byte-level substring search (empty needle matches everything).
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    haystack
        .windows(needle.len())
        .any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scoop_common::stream;
    use std::collections::HashMap;

    fn run(data: &'static [u8], pattern: &str, invert: bool) -> String {
        let mut params = HashMap::new();
        params.insert("pattern".to_string(), pattern.to_string());
        if invert {
            params.insert("invert".to_string(), "1".to_string());
        }
        let out = LineGrepStorlet
            .invoke(
                stream::chunked(Bytes::from_static(data), 5),
                InvocationContext::new(params),
            )
            .unwrap();
        String::from_utf8(stream::collect(out).unwrap().to_vec()).unwrap()
    }

    #[test]
    fn keeps_matching_lines() {
        let data = b"ERROR disk full\nINFO ok\nERROR net down\n";
        assert_eq!(run(data, "ERROR", false), "ERROR disk full\nERROR net down\n");
    }

    #[test]
    fn invert_drops_matches() {
        let data = b"ERROR a\nINFO b\n";
        assert_eq!(run(data, "ERROR", true), "INFO b\n");
    }

    #[test]
    fn empty_pattern_matches_all() {
        let data = b"a\nb";
        assert_eq!(run(data, "", false), "a\nb\n");
    }

    #[test]
    fn requires_pattern_param() {
        assert!(LineGrepStorlet
            .invoke(stream::empty(), InvocationContext::new(HashMap::new()))
            .is_err());
    }

    #[test]
    fn substring_search_reference() {
        assert!(contains(b"hello world", b"lo w"));
        assert!(!contains(b"hello", b"world"));
        assert!(contains(b"abc", b""));
        assert!(!contains(b"ab", b"abc"));
    }
}
