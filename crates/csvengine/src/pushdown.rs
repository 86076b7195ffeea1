//! The pushdown task payload: projection + selection filters.
//!
//! In the paper, a *pushdown task* "is represented as a piece of metadata
//! attached to an object request": the Catalyst-extracted projections and
//! selections are serialized into HTTP headers by the Stocator connector and
//! deserialized by the CSV storlet at the object store. This module defines
//! that payload ([`PushdownSpec`]), its predicate language (the same shapes as
//! Spark's Data Sources `Filter` API), and a compact, reversible header
//! encoding.

use crate::value::Value;
use scoop_common::{Result, ScoopError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A selection predicate over named columns.
///
/// Mirrors the filter shapes Spark SQL hands to a `PrunedFilteredScan`
/// implementation: comparisons, string matches, set membership, null tests
/// and boolean combinators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `col = value`
    Eq(String, Value),
    /// `col <> value`
    Ne(String, Value),
    /// `col < value`
    Lt(String, Value),
    /// `col <= value`
    Le(String, Value),
    /// `col > value`
    Gt(String, Value),
    /// `col >= value`
    Ge(String, Value),
    /// `col LIKE pattern` (`%` any run, `_` any single char)
    Like(String, String),
    /// `col` starts with the literal prefix
    StartsWith(String, String),
    /// `col` ends with the literal suffix
    EndsWith(String, String),
    /// `col` contains the literal substring
    Contains(String, String),
    /// `col IN (v1, v2, ...)`
    In(String, Vec<Value>),
    /// `col IS NULL`
    IsNull(String),
    /// `col IS NOT NULL`
    IsNotNull(String),
    /// Conjunction
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation
    Not(Box<Predicate>),
}

/// The deepest predicate a pushdown header may carry (see
/// [`Predicate::depth`]). The header decoder recurses once per level, so the
/// cap bounds the stack a peer's header can take; the planner keeps anything
/// deeper on the compute side.
pub const MAX_PREDICATE_DEPTH: usize = 128;

impl Predicate {
    /// Nesting depth: 1 for a leaf, one more for each `And`, `Or` or `Not`
    /// around it.
    pub fn depth(&self) -> usize {
        match self {
            Predicate::And(a, b) | Predicate::Or(a, b) => a.depth().max(b.depth()).saturating_add(1),
            Predicate::Not(a) => a.depth().saturating_add(1),
            _ => 1,
        }
    }

    /// Conjunction helper that flattens `None` sides.
    pub fn and_all(preds: Vec<Predicate>) -> Option<Predicate> {
        preds
            .into_iter()
            .reduce(|a, b| Predicate::And(Box::new(a), Box::new(b)))
    }

    /// All column names referenced by this predicate.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.collect_columns(&mut set);
        set
    }

    fn collect_columns(&self, set: &mut BTreeSet<String>) {
        match self {
            Predicate::Eq(c, _)
            | Predicate::Ne(c, _)
            | Predicate::Lt(c, _)
            | Predicate::Le(c, _)
            | Predicate::Gt(c, _)
            | Predicate::Ge(c, _)
            | Predicate::Like(c, _)
            | Predicate::StartsWith(c, _)
            | Predicate::EndsWith(c, _)
            | Predicate::Contains(c, _)
            | Predicate::In(c, _)
            | Predicate::IsNull(c)
            | Predicate::IsNotNull(c) => {
                set.insert(c.clone());
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(set);
                b.collect_columns(set);
            }
            Predicate::Not(p) => p.collect_columns(set),
        }
    }
}

/// SQL `LIKE` matching with `%` (any run) and `_` (any single char),
/// operating on Unicode scalar values.
///
/// Allocation-free: the pattern and the text are walked as UTF-8 bytes.
/// `%` and `_` are ASCII, so they never occur inside a multi-byte sequence;
/// literal bytes compare one to one; `_` and the restart after a `%` step
/// over one whole character, which keeps both cursors on character
/// boundaries. A wildcard in the pattern is always a wildcard, also when the
/// text holds the same character at that position.
pub fn like_match(pattern: &str, text: &str) -> bool {
    like_bytes(pattern.as_bytes(), text.as_bytes())
}

/// [`like_match`] on the UTF-8 bytes of both sides. Bytes that are not UTF-8
/// are matched as they come; nothing is read out of bounds.
fn like_bytes(pat: &[u8], txt: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    // After the last `%`: the pattern index behind it and the text index its
    // run currently ends at (classic backtracking to the last `%`).
    let mut star: Option<(usize, usize)> = None;
    while let Some(&tb) = txt.get(t) {
        match pat.get(p) {
            Some(b'%') => {
                p += 1;
                star = Some((p, t));
            }
            Some(b'_') => {
                p += 1;
                t += utf8_width(tb);
            }
            Some(&pb) if pb == tb => {
                p += 1;
                t += 1;
            }
            _ => {
                let Some((star_p, star_t)) = star else {
                    return false;
                };
                let resume = star_t.saturating_add(txt.get(star_t).map_or(1, |&b| utf8_width(b)));
                star = Some((star_p, resume));
                p = star_p;
                t = resume;
            }
        }
    }
    pat.get(p..).is_some_and(|rest| rest.iter().all(|&b| b == b'%'))
}

/// Byte length of the UTF-8 sequence a leading byte opens.
#[inline]
fn utf8_width(lead: u8) -> usize {
    match lead {
        0xF0..=0xFF => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

/// A `LIKE` pattern classified once, so matching a row does no pattern
/// analysis: the common shapes are plain string tests, the rest runs
/// [`like_match`]. Shared by the store-side filter and the SQL executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikePattern {
    /// No wildcard: equality.
    Exact(String),
    /// `lit%`
    Prefix(String),
    /// `%lit`
    Suffix(String),
    /// `%lit%`
    Contains(String),
    /// Anything else (`_`, inner `%`).
    General(String),
}

impl LikePattern {
    /// Classify `pattern`.
    pub fn new(pattern: &str) -> LikePattern {
        let plain = |s: &str| !s.contains(['%', '_']);
        if plain(pattern) {
            return LikePattern::Exact(pattern.to_string());
        }
        if let Some(body) = pattern.strip_suffix('%') {
            if plain(body) {
                return LikePattern::Prefix(body.to_string());
            }
            if let Some(inner) = body.strip_prefix('%').filter(|s| plain(s)) {
                return LikePattern::Contains(inner.to_string());
            }
        }
        match pattern.strip_prefix('%').filter(|s| plain(s)) {
            Some(body) => LikePattern::Suffix(body.to_string()),
            None => LikePattern::General(pattern.to_string()),
        }
    }

    /// Does `text` (UTF-8 bytes, so a caller holding them need not
    /// re-validate) match? Same answer as [`like_match`] on the pattern: a
    /// UTF-8 literal can only occur in UTF-8 text on character boundaries.
    #[inline]
    pub fn matches(&self, text: &[u8]) -> bool {
        match self {
            LikePattern::Exact(p) => text == p.as_bytes(),
            LikePattern::Prefix(p) => text.starts_with(p.as_bytes()),
            LikePattern::Suffix(p) => text.ends_with(p.as_bytes()),
            LikePattern::Contains(p) => {
                p.is_empty() || text.windows(p.len()).any(|w| w == p.as_bytes())
            }
            LikePattern::General(p) => like_bytes(p.as_bytes(), text),
        }
    }
}

/// The full pushdown payload for one object request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PushdownSpec {
    /// Columns to project, in output order. `None` means all columns.
    pub columns: Option<Vec<String>>,
    /// Selection predicate. `None` means keep every row.
    pub predicate: Option<Predicate>,
    /// Whether the first record of the object is a header row the filter must
    /// consume (and echo, projected, when the range starts at offset 0).
    pub has_header: bool,
}

impl PushdownSpec {
    /// A no-op spec (all columns, all rows).
    pub fn passthrough() -> Self {
        PushdownSpec::default()
    }

    /// Columns the filter must *read* (projected + referenced by predicate).
    pub fn required_columns(&self) -> Option<BTreeSet<String>> {
        let cols = self.columns.as_ref()?;
        let mut set: BTreeSet<String> = cols.iter().cloned().collect();
        if let Some(p) = &self.predicate {
            set.extend(p.columns());
        }
        Some(set)
    }
}

// ---------------------------------------------------------------------------
// Compact header encoding
// ---------------------------------------------------------------------------
//
// Grammar (tokens separated by single spaces, strings percent-encoded):
//   spec  := "hdr=" ("1"|"0") ";cols=" ("*" | name,name,...) ";pred=" pexpr?
//   pexpr := "(" op args ")"
//   value := "n" | "i:<i64>" | "f:<f64>" | "s:<enc>"

/// Percent-encode ([`scoop_common::percent`]) the bytes that collide with
/// the grammar. The empty string is encoded as `~` (and a literal `~` is
/// escaped) so that every encoded string is a non-empty token.
fn enc(s: &str) -> String {
    if s.is_empty() {
        return "~".to_string();
    }
    scoop_common::percent::encode(s, b"() ,;=~")
}

fn dec(s: &str) -> Result<String> {
    if s == "~" {
        return Ok(String::new());
    }
    scoop_common::percent::decode(s, "pushdown header")
}

fn enc_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('n'),
        Value::Int(i) => out.push_str(&format!("i:{i}")),
        Value::Float(f) => out.push_str(&format!("f:{f}")),
        Value::Str(s) => {
            out.push_str("s:");
            out.push_str(&enc(s));
        }
    }
}

fn enc_pred(p: &Predicate, out: &mut String) {
    let bin = |op: &str, c: &str, v: &Value, out: &mut String| {
        out.push('(');
        out.push_str(op);
        out.push(' ');
        out.push_str(&enc(c));
        out.push(' ');
        enc_value(v, out);
        out.push(')');
    };
    let strop = |op: &str, c: &str, s: &str, out: &mut String| {
        out.push('(');
        out.push_str(op);
        out.push(' ');
        out.push_str(&enc(c));
        out.push(' ');
        out.push_str(&enc(s));
        out.push(')');
    };
    match p {
        Predicate::Eq(c, v) => bin("eq", c, v, out),
        Predicate::Ne(c, v) => bin("ne", c, v, out),
        Predicate::Lt(c, v) => bin("lt", c, v, out),
        Predicate::Le(c, v) => bin("le", c, v, out),
        Predicate::Gt(c, v) => bin("gt", c, v, out),
        Predicate::Ge(c, v) => bin("ge", c, v, out),
        Predicate::Like(c, s) => strop("like", c, s, out),
        Predicate::StartsWith(c, s) => strop("sw", c, s, out),
        Predicate::EndsWith(c, s) => strop("ew", c, s, out),
        Predicate::Contains(c, s) => strop("ct", c, s, out),
        Predicate::In(c, vs) => {
            out.push_str("(in ");
            out.push_str(&enc(c));
            for v in vs {
                out.push(' ');
                enc_value(v, out);
            }
            out.push(')');
        }
        Predicate::IsNull(c) => {
            out.push_str("(null ");
            out.push_str(&enc(c));
            out.push(')');
        }
        Predicate::IsNotNull(c) => {
            out.push_str("(notnull ");
            out.push_str(&enc(c));
            out.push(')');
        }
        Predicate::And(a, b) => {
            out.push_str("(and ");
            enc_pred(a, out);
            out.push(' ');
            enc_pred(b, out);
            out.push(')');
        }
        Predicate::Or(a, b) => {
            out.push_str("(or ");
            enc_pred(a, out);
            out.push(' ');
            enc_pred(b, out);
            out.push(')');
        }
        Predicate::Not(a) => {
            out.push_str("(not ");
            enc_pred(a, out);
            out.push(')');
        }
    }
}

/// Tokenizer for the s-expression predicate grammar: what is left of the
/// predicate text.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Tokens<'a> {
    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches(' ');
    }

    fn expect(&mut self, c: char) -> Result<()> {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(ScoopError::InvalidRequest(format!(
                "expected '{c}' before '{}' in pushdown header",
                self.rest.chars().take(16).collect::<String>()
            ))),
        }
    }

    /// Read a bare token (up to whitespace or paren).
    fn word(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let end = self.rest.find([' ', '(', ')']).unwrap_or(self.rest.len());
        let (word, rest) = self.rest.split_at(end);
        if word.is_empty() {
            return Err(ScoopError::InvalidRequest("empty token in header".into()));
        }
        self.rest = rest;
        Ok(word)
    }
}

fn dec_value(tok: &str) -> Result<Value> {
    if tok == "n" {
        return Ok(Value::Null);
    }
    if let Some(rest) = tok.strip_prefix("i:") {
        return rest
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ScoopError::InvalidRequest(format!("bad int literal '{rest}'")));
    }
    if let Some(rest) = tok.strip_prefix("f:") {
        return rest
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ScoopError::InvalidRequest(format!("bad float literal '{rest}'")));
    }
    if let Some(rest) = tok.strip_prefix("s:") {
        return Ok(Value::Str(dec(rest)?));
    }
    Err(ScoopError::InvalidRequest(format!("bad value token '{tok}'")))
}

/// Decode the predicate at nesting depth `depth` (1 at the top).
fn dec_pred(t: &mut Tokens<'_>, depth: usize) -> Result<Predicate> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(ScoopError::InvalidRequest(format!(
            "predicate nests deeper than {MAX_PREDICATE_DEPTH}"
        )));
    }
    let inner = depth.saturating_add(1);
    // lint:allow(Tokens::expect is a fallible parser combinator returning
    // Result, not Option::expect — the `?` propagates, nothing panics)
    t.expect('(')?;
    let op = t.word()?;
    let pred = match op {
        "and" | "or" | "not" => {
            let a = Box::new(dec_pred(t, inner)?);
            match op {
                "not" => Predicate::Not(a),
                "and" => Predicate::And(a, Box::new(dec_pred(t, inner)?)),
                _ => Predicate::Or(a, Box::new(dec_pred(t, inner)?)),
            }
        }
        "in" => {
            let col = dec(t.word()?)?;
            let mut vals = Vec::new();
            loop {
                t.skip_ws();
                if t.peek() == Some(')') {
                    break;
                }
                vals.push(dec_value(t.word()?)?);
            }
            Predicate::In(col, vals)
        }
        "null" => Predicate::IsNull(dec(t.word()?)?),
        "notnull" => Predicate::IsNotNull(dec(t.word()?)?),
        _ => {
            let (col, arg) = (dec(t.word()?)?, t.word()?);
            match op {
                "eq" => Predicate::Eq(col, dec_value(arg)?),
                "ne" => Predicate::Ne(col, dec_value(arg)?),
                "lt" => Predicate::Lt(col, dec_value(arg)?),
                "le" => Predicate::Le(col, dec_value(arg)?),
                "gt" => Predicate::Gt(col, dec_value(arg)?),
                "ge" => Predicate::Ge(col, dec_value(arg)?),
                "like" => Predicate::Like(col, dec(arg)?),
                "sw" => Predicate::StartsWith(col, dec(arg)?),
                "ew" => Predicate::EndsWith(col, dec(arg)?),
                "ct" => Predicate::Contains(col, dec(arg)?),
                other => {
                    return Err(ScoopError::InvalidRequest(format!("unknown predicate op '{other}'")))
                }
            }
        }
    };
    // lint:allow(fallible Tokens::expect returning Result, same as above)
    t.expect(')')?;
    Ok(pred)
}

impl PushdownSpec {
    /// Serialize into the compact single-line header value.
    pub fn to_header(&self) -> String {
        let mut out = String::new();
        out.push_str("hdr=");
        out.push(if self.has_header { '1' } else { '0' });
        out.push_str(";cols=");
        match &self.columns {
            None => out.push('*'),
            Some(cols) => {
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&enc(c));
                }
            }
        }
        out.push_str(";pred=");
        if let Some(p) = &self.predicate {
            enc_pred(p, &mut out);
        }
        out
    }

    /// Parse a header value produced by [`PushdownSpec::to_header`].
    pub fn from_header(header: &str) -> Result<PushdownSpec> {
        let mut parts = header.splitn(3, ';');
        let hdr = parts
            .next()
            .and_then(|s| s.strip_prefix("hdr="))
            .ok_or_else(|| ScoopError::InvalidRequest("missing hdr= section".into()))?;
        let cols = parts
            .next()
            .and_then(|s| s.strip_prefix("cols="))
            .ok_or_else(|| ScoopError::InvalidRequest("missing cols= section".into()))?;
        let pred = parts
            .next()
            .and_then(|s| s.strip_prefix("pred="))
            .ok_or_else(|| ScoopError::InvalidRequest("missing pred= section".into()))?;
        let has_header = match hdr {
            "1" => true,
            "0" => false,
            other => {
                return Err(ScoopError::InvalidRequest(format!(
                    "bad hdr flag '{other}'"
                )))
            }
        };
        let columns = if cols == "*" {
            None
        } else if cols.is_empty() {
            Some(Vec::new())
        } else {
            Some(
                cols.split(',')
                    .map(dec)
                    .collect::<Result<Vec<String>>>()?,
            )
        };
        let predicate = if pred.is_empty() {
            None
        } else {
            let mut toks = Tokens { rest: pred };
            let p = dec_pred(&mut toks, 1)?;
            toks.skip_ws();
            if !toks.rest.is_empty() {
                return Err(ScoopError::InvalidRequest(
                    "trailing garbage after predicate".into(),
                ));
            }
            Some(p)
        };
        Ok(PushdownSpec { columns, predicate, has_header })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        enc_pred(self, &mut out);
        write!(f, "{out}")
    }
}

impl fmt::Display for PushdownSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_header())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &PushdownSpec) {
        let hdr = spec.to_header();
        let back = PushdownSpec::from_header(&hdr).expect("parse back");
        assert_eq!(&back, spec, "header was: {hdr}");
    }

    #[test]
    fn like_basic() {
        assert!(like_match("2015-01%", "2015-01-15 10:20:00"));
        assert!(!like_match("2015-01%", "2015-02-01"));
        assert!(like_match("Rotterdam", "Rotterdam"));
        assert!(!like_match("Rotterdam", "rotterdam"));
        assert!(like_match("U%", "USA"));
        assert!(like_match("%dam", "Rotterdam"));
        assert!(like_match("R%dam", "Rotterdam"));
        assert!(like_match("_otterdam", "Rotterdam"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("_", ""));
        assert!(like_match("a%b%c", "a-x-b-y-c"));
        assert!(!like_match("a%b%c", "a-x-c-y-b"));
    }

    #[test]
    fn like_unicode() {
        assert!(like_match("caf_", "café"));
        assert!(like_match("%é", "café"));
    }

    /// The matcher this module shipped before the byte matcher: collect both
    /// sides into `Vec<char>`, backtrack to the last `%`. Kept as the
    /// reference the differential test compares against. It tested for a
    /// literal match before testing for `%`, so a `%` in the text consumed a
    /// `%` in the pattern as a literal; texts without `%` are unaffected.
    fn like_match_reference(pattern: &str, text: &str) -> bool {
        let pat: Vec<char> = pattern.chars().collect();
        let txt: Vec<char> = text.chars().collect();
        let (mut p, mut t) = (0usize, 0usize);
        let (mut star_p, mut star_t) = (usize::MAX, 0usize);
        while t < txt.len() {
            if p < pat.len() && (pat[p] == '_' || pat[p] == txt[t]) {
                p += 1;
                t += 1;
            } else if p < pat.len() && pat[p] == '%' {
                star_p = p;
                star_t = t;
                p += 1;
            } else if star_p != usize::MAX {
                p = star_p + 1;
                star_t += 1;
                t = star_t;
            } else {
                return false;
            }
        }
        while p < pat.len() && pat[p] == '%' {
            p += 1;
        }
        p == pat.len()
    }

    #[test]
    fn percent_in_the_text_does_not_disarm_the_wildcard() {
        // The reference consumed the pattern's `%` as a literal here.
        assert!(like_match("%a", "%xa"));
        assert!(!like_match_reference("%a", "%xa"));
        assert!(like_match("50%", "50% off"));
        assert!(like_match("%", "%"));
    }

    #[test]
    fn like_pattern_classifies_the_common_shapes() {
        let lit = |s: &str| s.to_string();
        assert_eq!(LikePattern::new("Rotterdam"), LikePattern::Exact(lit("Rotterdam")));
        assert_eq!(LikePattern::new(""), LikePattern::Exact(lit("")));
        assert_eq!(LikePattern::new("2015-01%"), LikePattern::Prefix(lit("2015-01")));
        assert_eq!(LikePattern::new("%"), LikePattern::Prefix(lit("")));
        assert_eq!(LikePattern::new("%dam"), LikePattern::Suffix(lit("dam")));
        assert_eq!(LikePattern::new("%tter%"), LikePattern::Contains(lit("tter")));
        assert_eq!(LikePattern::new("%%"), LikePattern::Contains(lit("")));
        for general in ["R%dam", "_otterdam", "2015-0_%", "%a%b%", "%_"] {
            assert_eq!(LikePattern::new(general), LikePattern::General(lit(general)));
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        // Small alphabets so wildcards, repeats and multi-byte characters
        // (2, 3 and 4 bytes) all meet often. No `%` in the text: see
        // `like_match_reference`.
        const PATTERN: &str = "[ab%_éß€😀]{0,8}";
        const TEXT: &str = "[ab_éß€😀]{0,10}";

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn byte_matcher_equals_the_char_matcher(pattern in PATTERN, text in TEXT) {
                let want = like_match_reference(&pattern, &text);
                prop_assert_eq!(like_match(&pattern, &text), want, "{:?} ~ {:?}", pattern, text);
                prop_assert_eq!(
                    LikePattern::new(&pattern).matches(text.as_bytes()),
                    want,
                    "classified {:?} ~ {:?}",
                    pattern,
                    text
                );
            }
        }
    }

    #[test]
    fn header_roundtrip_simple() {
        roundtrip(&PushdownSpec::passthrough());
        roundtrip(&PushdownSpec {
            columns: Some(vec!["vid".into(), "date".into(), "index".into()]),
            predicate: Some(Predicate::Like("date".into(), "2015-01%".into())),
            has_header: true,
        });
    }

    #[test]
    fn header_roundtrip_nested_and_weird_strings() {
        let p = Predicate::And(
            Box::new(Predicate::Or(
                Box::new(Predicate::Eq("city".into(), Value::Str("Rot,ter;dam=()".into()))),
                Box::new(Predicate::In(
                    "state".into(),
                    vec![Value::Str("FRA".into()), Value::Int(7), Value::Null, Value::Str("Liège".into())],
                )),
            )),
            Box::new(Predicate::Not(Box::new(Predicate::Ge(
                "index".into(),
                Value::Float(3.25),
            )))),
        );
        let spec = PushdownSpec {
            columns: Some(vec!["a b".into(), "c%d".into()]),
            predicate: Some(p),
            has_header: false,
        };
        assert!(spec.to_header().is_ascii());
        roundtrip(&spec);
    }

    #[test]
    fn header_roundtrip_all_ops() {
        for p in [
            Predicate::Eq("a".into(), Value::Int(1)),
            Predicate::Ne("a".into(), Value::Float(1.5)),
            Predicate::Lt("a".into(), Value::Str("x".into())),
            Predicate::Le("a".into(), Value::Null),
            Predicate::Gt("a".into(), Value::Int(-9)),
            Predicate::Ge("a".into(), Value::Int(0)),
            Predicate::Like("a".into(), "%x_".into()),
            Predicate::StartsWith("a".into(), "pre".into()),
            Predicate::EndsWith("a".into(), "suf".into()),
            Predicate::Contains("a".into(), "mid".into()),
            Predicate::In("a".into(), vec![]),
            Predicate::IsNull("a".into()),
            Predicate::IsNotNull("a".into()),
        ] {
            roundtrip(&PushdownSpec {
                columns: None,
                predicate: Some(p),
                has_header: true,
            });
        }
    }

    #[test]
    fn malformed_headers_error() {
        assert!(PushdownSpec::from_header("").is_err());
        assert!(PushdownSpec::from_header("hdr=2;cols=*;pred=").is_err());
        assert!(PushdownSpec::from_header("hdr=1;cols=*;pred=(bogus a b)").is_err());
        assert!(PushdownSpec::from_header("hdr=1;cols=*;pred=(eq a i:1) junk").is_err());
        assert!(PushdownSpec::from_header("hdr=1;cols=*;pred=(eq a i:zz)").is_err());
        assert!(PushdownSpec::from_header("hdr=1;cols=*;pred=(eq a s:%4)").is_err());
        // Raw non-ASCII is no header an encoder writes (it escapes it).
        assert!(PushdownSpec::from_header("hdr=1;cols=*;pred=(eq a s:Liège)").is_err());
    }

    /// `(not ` × `levels` around one leaf: a predicate `levels + 1` deep.
    fn nested_nots(levels: usize) -> String {
        format!("hdr=1;cols=*;pred={}(eq a i:1){}", "(not ".repeat(levels), ")".repeat(levels))
    }

    #[test]
    fn predicate_depth_is_capped() {
        // Deep enough to overflow a 2 MiB stack if the decoder recursed on.
        let deep = nested_nots(5_000);
        assert!(deep.len() < 64 * 1024);
        assert!(matches!(PushdownSpec::from_header(&deep), Err(ScoopError::InvalidRequest(_))));
        let at_cap = PushdownSpec::from_header(&nested_nots(MAX_PREDICATE_DEPTH - 1)).unwrap();
        let pred = at_cap.predicate.as_ref().unwrap();
        assert_eq!(pred.depth(), MAX_PREDICATE_DEPTH);
        roundtrip(&at_cap);
        assert!(PushdownSpec::from_header(&nested_nots(MAX_PREDICATE_DEPTH)).is_err());
        // `and`/`or` count the same way, whichever side is deep.
        let mut p = Predicate::IsNull("a".into());
        for _ in 1..MAX_PREDICATE_DEPTH {
            p = Predicate::Or(Box::new(Predicate::IsNull("b".into())), Box::new(p));
        }
        let spec = PushdownSpec { columns: None, predicate: Some(p.clone()), has_header: false };
        roundtrip(&spec);
        let deeper = Predicate::And(Box::new(p), Box::new(Predicate::IsNull("c".into())));
        let spec = PushdownSpec { columns: None, predicate: Some(deeper), has_header: false };
        assert!(PushdownSpec::from_header(&spec.to_header()).is_err());
    }

    #[test]
    fn required_columns_unions_projection_and_predicate() {
        let spec = PushdownSpec {
            columns: Some(vec!["vid".into(), "index".into()]),
            predicate: Some(Predicate::And(
                Box::new(Predicate::Like("date".into(), "2015%".into())),
                Box::new(Predicate::Eq("city".into(), Value::Str("Rotterdam".into()))),
            )),
            has_header: true,
        };
        let req = spec.required_columns().unwrap();
        let want: BTreeSet<String> =
            ["vid", "index", "date", "city"].iter().map(|s| s.to_string()).collect();
        assert_eq!(req, want);
        assert!(PushdownSpec::passthrough().required_columns().is_none());
    }

    #[test]
    fn and_all_builds_balanced_conjunction() {
        assert_eq!(Predicate::and_all(vec![]), None);
        let p = Predicate::and_all(vec![
            Predicate::IsNull("a".into()),
            Predicate::IsNull("b".into()),
            Predicate::IsNull("c".into()),
        ])
        .unwrap();
        assert_eq!(p.columns().len(), 3);
    }
}
