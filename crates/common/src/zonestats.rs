//! Per-block zone-map statistics for store-side data skipping.
//!
//! At PUT time the indexing storlet divides a CSV object into record-aligned
//! byte blocks and records, per block and per column, the evidence a planner
//! needs to answer "can any record in this block match the pushdown
//! predicate?": numeric min/max over fields that parse as `f64`, string
//! min/max over the raw field bytes, a NULL presence flag, and an optional
//! 64-bit bloom digest for low-cardinality string columns. The stats are
//! serialized into a compact percent-escaped text form and chunked into
//! numbered `x-object-meta-scoop-stats-*` metadata values
//! ([`crate::headers::SCOOP_STATS_PREFIX`]), so they persist, replicate
//! and survive exactly like user metadata.
//!
//! Staleness is handled by embedding the object's etag: a planner must treat
//! stats whose etag differs from the stored object's as absent and fall back
//! to a full scan. Everything here is *advisory* — a decoding failure or a
//! missing column never makes a query wrong, only slower.
//!
//! This module holds the data model and codec only; predicate pruning lives
//! next to the predicate type (`scoop_csv::blockplan`), keeping
//! `scoop_common` free of CSV dependencies.

use crate::hash::{hash64, hash64_seeded};
use crate::{Result, ScoopError};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};

/// Longest string literal kept verbatim in a zone map. A longer *minimum* is
/// truncated to this many bytes — a prefix is still a sound lower bound — but
/// a longer *maximum* is dropped entirely, because a prefix of the max is NOT
/// an upper bound.
pub const MAX_STRING_STAT: usize = 16;

/// Distinct-value ceiling for building a bloom digest: columns with more
/// distinct strings per block are not worth a digest (it would be saturated).
pub const BLOOM_MAX_DISTINCT: usize = 32;

/// Metadata chunk payload size. Each `x-object-meta-scoop-stats-N` value
/// stays comfortably header-sized.
pub const META_CHUNK: usize = 256;

/// Per-column statistics over one record block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStats {
    /// Numeric `(min, max)` over fields that parse as finite-or-infinite
    /// `f64` (NaN fields are excluded: no comparison can select them).
    pub num: Option<(f64, f64)>,
    /// Smallest raw field value, possibly truncated to [`MAX_STRING_STAT`]
    /// bytes (a prefix is a sound lower bound).
    pub str_min: Option<String>,
    /// Largest raw field value; `None` when unknown *or* when the true max
    /// was too long to store (a prefix would be unsound as an upper bound).
    pub str_max: Option<String>,
    /// Any empty/absent (NULL) field in the block.
    pub has_null: bool,
    /// Any non-empty field in the block.
    pub has_value: bool,
    /// 64-bit bloom digest of the distinct field values, present only when
    /// the block stayed under [`BLOOM_MAX_DISTINCT`] distinct strings.
    pub bloom: Option<u64>,
}

/// One record-aligned byte block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStats {
    /// First byte of the block (a record start, or 0).
    pub start: u64,
    /// One past the last byte of the block (a record end boundary).
    pub end: u64,
    /// Data records in the block (header row excluded).
    pub rows: u64,
    /// Per-column stats, parallel to [`ObjectStats::columns`].
    pub columns: Vec<ColumnStats>,
}

/// The full per-object index: schema, block layout, per-block zone maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectStats {
    /// Etag of the object bytes the stats describe; a mismatch against the
    /// stored object means the stats are stale and must be ignored.
    pub etag: String,
    /// Whether byte 0 starts a header row (owned by block 0, not counted).
    pub has_header: bool,
    /// Column names in file order.
    pub columns: Vec<String>,
    /// Record-aligned blocks tiling `[0, object_len)` in order.
    pub blocks: Vec<BlockStats>,
}

/// The two bloom probe positions for a field value (double hashing over the
/// workspace fingerprint; 64-bit filter).
pub fn bloom_mask(value: &str) -> u64 {
    let h = hash64(value.as_bytes());
    let b1 = (h & 63) as u32;
    let b2 = ((h >> 8) & 63) as u32;
    (1u64 << b1) | (1u64 << b2)
}

impl ColumnStats {
    /// Fold one field value (raw bytes, already unquoted) into the stats.
    /// `scratch` is this column's working state for the same open block.
    /// Nothing is allocated once the block's min and max buffers exist,
    /// except when a new distinct value joins the set.
    #[inline]
    pub fn observe(&mut self, field: &str, scratch: &mut ColumnScratch) {
        if field.is_empty() {
            self.has_null = true;
            return;
        }
        // A value the open block has already folded changes nothing. The
        // distinct set can tell while it is under its ceiling; past it every
        // value is folded again.
        if scratch.seen(field) {
            return;
        }
        self.has_value = true;
        if let Some(v) = parse_number(field) {
            if !v.is_nan() {
                self.num = Some(match self.num {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        let word = prefix_word(field.as_bytes());
        if self.str_min.as_deref().is_none_or(|m| less(field, word, m, scratch.min_word)) {
            // Eager truncation is sound for the *min*: a prefix only lowers
            // the bound further. It keeps at least the first
            // `MAX_STRING_STAT - 3` bytes, so the field's word is its word.
            replace(&mut self.str_min, truncate_prefix(field));
            scratch.min_word = word;
        }
        // The max is tracked exactly while the block is open — truncating
        // here would be unsound (a prefix is below the true max), and
        // poisoning to `None` here could be undone by a later smaller value.
        // [`Self::seal`] drops overlong maxima once the block closes.
        if self.str_max.as_deref().is_none_or(|m| less(m, scratch.max_word, field, word)) {
            replace(&mut self.str_max, field);
            scratch.max_word = word;
        }
    }

    /// Close the stats for serialization: an overlong exact max becomes
    /// "unknown" (`None`) since only a prefix could be stored and a prefix
    /// of the max is not an upper bound.
    pub fn seal(&mut self) {
        if self.str_max.as_ref().is_some_and(|m| m.len() > MAX_STRING_STAT) {
            self.str_max = None;
        }
    }
}

/// `a < b`, given each string's [`prefix_word`]: words that differ decide,
/// and only a tie compares the strings.
fn less(a: &str, a_word: u64, b: &str, b_word: u64) -> bool {
    if a_word == b_word {
        a < b
    } else {
        a_word < b_word
    }
}

/// The first 8 bytes of `b` as a big-endian integer, zero-padded. Two
/// strings whose words differ order as their words do: they differ at a
/// byte among the first 8, or one ends there and is a prefix of the other.
#[inline]
fn prefix_word(b: &[u8]) -> u64 {
    if let Some(word) = b.first_chunk::<8>() {
        return u64::from_be_bytes(*word);
    }
    match (b.first_chunk::<4>(), b.last_chunk::<4>()) {
        // 4..=7 bytes: two overlapping halves, the second shifted to where
        // its bytes sit.
        (Some(lo), Some(hi)) => {
            let shift = 64u32.wrapping_sub((b.len() as u32).wrapping_mul(8));
            u64::from(u32::from_be_bytes(*lo)) << 32 | u64::from(u32::from_be_bytes(*hi)) << shift
        }
        _ => b.iter().zip([56u32, 48, 40]).fold(0, |w, (&c, shift)| w | u64::from(c) << shift),
    }
}

/// Overwrite a string stat in place, reusing its buffer.
fn replace(slot: &mut Option<String>, value: &str) {
    match slot {
        Some(s) => {
            s.clear();
            s.push_str(value);
        }
        None => *slot = Some(value.to_string()),
    }
}

/// Truncate to a char-boundary prefix of at most [`MAX_STRING_STAT`] bytes.
fn truncate_prefix(s: &str) -> &str {
    let mut end = MAX_STRING_STAT.min(s.len());
    while !s.is_char_boundary(end) {
        end = end.saturating_sub(1);
    }
    s.get(..end).unwrap_or("")
}

/// `field.parse::<f64>().ok()`, bit for bit, without its cost on the fields
/// a CSV column is made of. A field that cannot start a float (after an
/// optional sign: a digit, `.`, or exactly `inf`, `infinity` or `nan` in
/// any case) is rejected at once. A plain decimal of at most 8 bytes after
/// the sign is read a word at a time: the integer its digits spell (below
/// 10^8, so exact) divided by an exact power of ten is one correctly
/// rounded IEEE division, hence the value the correctly rounded parser
/// returns (Clinger's fast path). Everything else goes to the parser.
#[inline]
fn parse_number(field: &str) -> Option<f64> {
    const WORDS: [&[u8]; 3] = [b"inf", b"infinity", b"nan"];
    const POW10: [f64; 8] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];
    let bytes = field.as_bytes();
    let (negative, body) = match bytes.first()? {
        b'-' => (true, bytes.get(1..)?),
        b'+' => (false, bytes.get(1..)?),
        _ => (false, bytes),
    };
    match body.first()? {
        b'0'..=b'9' | b'.' => {}
        b'i' | b'I' | b'n' | b'N' if WORDS.iter().any(|w| body.eq_ignore_ascii_case(w)) => {}
        _ => return None,
    }
    match short_decimal(body).and_then(|(m, scale)| Some((m, POW10.get(scale)?))) {
        Some((mantissa, scale)) => {
            let v = mantissa as f64 / scale;
            Some(if negative { -v } else { v })
        }
        None => field.parse().ok(),
    }
}

/// `b` as `(the integer its digits spell, digits after the point)` when it
/// is at most 8 bytes of digits with at most one point among them, read a
/// word at a time.
#[inline]
fn short_decimal(b: &[u8]) -> Option<(u64, usize)> {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH4: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    const ZEROS: u64 = 0x3030_3030_3030_3030; // `0` in every lane
    let len = b.len();
    // Little-endian: byte i in lane i, lanes past the end zero.
    let word = match (b.first_chunk::<8>(), b.first_chunk::<4>(), b.last_chunk::<4>()) {
        (Some(all), _, _) if len == 8 => u64::from_le_bytes(*all),
        (None, Some(lo), Some(hi)) => {
            let shift = (len as u32).wrapping_sub(4).wrapping_mul(8);
            u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << shift
        }
        (None, None, _) => {
            b.iter().zip([0u32, 8, 16]).fold(0, |w, (&c, shift)| w | u64::from(c) << shift)
        }
        _ => return None,
    };
    // Lanes holding `.` (an exact, carry-free lane test).
    let x = word ^ 0x2E2E_2E2E_2E2E_2E2E;
    let points = !((x & LOW7).wrapping_add(LOW7) | x | LOW7);
    let (digits, count, scale) = if points == 0 {
        (word, len, 0)
    } else {
        // Close the gap: the lanes above the point move down one.
        let at = (points.trailing_zeros() / 8) as usize;
        let below = 1u64.wrapping_shl((at as u32).wrapping_mul(8)).wrapping_sub(1);
        let last = len.wrapping_sub(1);
        ((word & below) | (word >> 8 & !below), last, last.wrapping_sub(at))
    };
    if count == 0 {
        return None;
    }
    // Right-align the digits in eight, the lanes below them `0`s.
    let pad = 64u32.wrapping_sub((count as u32).wrapping_mul(8));
    let aligned = digits.wrapping_shl(pad) | ZEROS & 1u64.wrapping_shl(pad).wrapping_sub(1);
    // Every lane `0`..=`9`: a second point or any other byte fails here.
    if aligned & HIGH4 != ZEROS || aligned.wrapping_add(0x0606_0606_0606_0606) & HIGH4 != ZEROS {
        return None;
    }
    // Eight digits to an integer in three multiply steps (Lemire): lane
    // pairs, then the four pairs weighted 10^6, 10^4, 10^2, 1.
    const PAIRS: u64 = 0x0000_00FF_0000_00FF;
    const HIGH_PAIRS: u64 = 0x000F_4240_0000_0064; // 100 + (10^6 << 32)
    const LOW_PAIRS: u64 = 0x0000_2710_0000_0001; // 1 + (10^4 << 32)
    let v = aligned.wrapping_sub(ZEROS);
    let v = v.wrapping_mul(10).wrapping_add(v >> 8);
    let v = (v & PAIRS)
        .wrapping_mul(HIGH_PAIRS)
        .wrapping_add((v >> 16 & PAIRS).wrapping_mul(LOW_PAIRS))
        >> 32;
    Some((v, scale))
}

/// What [`ColumnStats::observe`] keeps about one column of the open block
/// besides the stats themselves.
///
/// First, the block's distinct values, for the bloom digest and to skip
/// values already folded. Each carries a key of its length and up to three
/// 8-byte words, which identifies any value of at most 24 bytes outright,
/// so a lookup compares strings only for longer values whose keys match. A
/// lookup tries the last value found first (a column that repeats itself
/// row after row) and then one probe of a small open-addressed table, not a
/// scan. The set stops growing one past [`BLOOM_MAX_DISTINCT`]: from then on
/// the block has no digest, and nothing is looked up.
///
/// Second, the first 8 bytes of the string min and max as big-endian
/// integers, so most comparisons against them are one integer comparison.
#[derive(Debug, Clone)]
pub struct ColumnScratch {
    /// `1 + index` into `keys`/`values`, or 0 for an empty slot.
    slots: [u8; SLOTS],
    keys: Vec<[u64; 4]>,
    values: Vec<String>,
    /// Index of the value the last lookup found or added.
    last: usize,
    min_word: u64,
    max_word: u64,
}

/// Table size: a power of two, well over the `BLOOM_MAX_DISTINCT + 1`
/// values the set can hold, so a probe sequence always meets an empty slot.
const SLOTS: usize = 64;

impl Default for ColumnScratch {
    fn default() -> Self {
        ColumnScratch {
            slots: [0; SLOTS],
            keys: Vec::new(),
            values: Vec::new(),
            last: 0,
            min_word: 0,
            max_word: 0,
        }
    }
}

impl ColumnScratch {
    /// True when `value` is already in the set; otherwise add it, unless
    /// the set is past its ceiling (and then it answers `false` unasked).
    #[inline]
    pub(crate) fn seen(&mut self, value: &str) -> bool {
        if self.values.len() > BLOOM_MAX_DISTINCT {
            return false;
        }
        let key = value_key(value.as_bytes());
        let exact = value.len() <= 24;
        // Word-wise, branch-free: `==` on the arrays calls `memcmp`.
        let same = |k: &[u64; 4]| k.iter().zip(&key).fold(0, |d, (a, b)| d | (a ^ b)) == 0;
        let is = |i: usize| {
            self.keys.get(i).is_some_and(same)
                && (exact || self.values.get(i).is_some_and(|v| v == value))
        };
        if is(self.last) {
            return true;
        }
        let hash = key.iter().zip([0u32, 0, 21, 42]).fold(0u64, |h, (&w, r)| h ^ w.rotate_left(r));
        let mut slot = (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        for _ in 0..SLOTS {
            let Some(entry) = self.slots.get(slot).copied() else { break };
            let Some(i) = usize::from(entry).checked_sub(1) else {
                self.last = self.values.len();
                if let Some(entry) = self.slots.get_mut(slot) {
                    *entry = u8::try_from(self.last.saturating_add(1)).unwrap_or(u8::MAX);
                }
                self.keys.push(key);
                self.values.push(value.to_string());
                return false;
            };
            if is(i) {
                self.last = i;
                return true;
            }
            slot = slot.wrapping_add(1) % SLOTS;
        }
        false
    }

    /// The bloom digest of the set, when it stayed small enough for one.
    pub(crate) fn bloom(&self) -> Option<u64> {
        if self.values.is_empty() || self.values.len() > BLOOM_MAX_DISTINCT {
            return None;
        }
        Some(self.values.iter().fold(0u64, |m, v| m | bloom_mask(v)))
    }

    /// Reset for the next block.
    pub(crate) fn clear(&mut self) {
        self.slots = [0; SLOTS];
        self.keys.clear();
        self.values.clear();
        self.last = 0;
        self.min_word = 0;
        self.max_word = 0;
    }
}

/// `[len, words...]` of a value: under 8 bytes the bytes are packed into
/// one word (three sampled bytes cover 1..=3, two overlapping halves cover
/// 4..=7); from 8 bytes on, the words at the start, the middle and the end,
/// which overlap to cover every byte up to 24.
#[inline]
fn value_key(b: &[u8]) -> [u64; 4] {
    let len = b.len();
    let at = |i: usize| b.get(i..).unwrap_or_default();
    if let (Some(head), Some(tail)) = (b.first_chunk::<8>(), b.last_chunk::<8>()) {
        let mid = at((len / 2).saturating_sub(4)).first_chunk::<8>().unwrap_or(head);
        let [head, mid, tail] = [head, mid, tail].map(|w| u64::from_le_bytes(*w));
        return [len as u64, head, mid, tail];
    }
    let packed = match (b.first_chunk::<4>(), b.last_chunk::<4>()) {
        (Some(lo), Some(hi)) => {
            u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << 32
        }
        _ => {
            let byte = |i: usize| b.get(i).map_or(0, |&c| u64::from(c));
            byte(0) | byte(len / 2) << 8 | byte(len.saturating_sub(1)) << 16
        }
    };
    [len as u64, packed, 0, 0]
}

/// Incrementally builds [`ObjectStats`] as records stream through the
/// indexing storlet. Callers feed parsed records via [`Self::record`] and
/// byte positions via the record's length; block boundaries are cut at
/// record boundaries once a block exceeds `block_bytes`.
#[derive(Debug)]
pub struct StatsBuilder {
    block_bytes: u64,
    columns: Vec<String>,
    has_header: bool,
    blocks: Vec<BlockStats>,
    cur: BlockStats,
    cur_scratch: Vec<ColumnScratch>,
    offset: u64,
}

impl StatsBuilder {
    /// Start a builder for an object with the given schema. `block_bytes`
    /// is the nominal block size; each block covers at least one record.
    pub fn new(columns: Vec<String>, has_header: bool, block_bytes: u64) -> StatsBuilder {
        let ncols = columns.len();
        StatsBuilder {
            block_bytes: block_bytes.max(1),
            columns,
            has_header,
            blocks: Vec::new(),
            cur: BlockStats { columns: vec![ColumnStats::default(); ncols], ..Default::default() },
            cur_scratch: vec![ColumnScratch::default(); ncols],
            offset: 0,
        }
    }

    /// Account bytes that belong to the current block but carry no data
    /// records (the header row, blank lines).
    pub fn skip_bytes(&mut self, len: u64) {
        self.offset = self.offset.saturating_add(len);
    }

    /// Fold one data record into the current block. `fields` are the parsed
    /// field values in column order (missing trailing fields are NULL,
    /// extra ones are ignored); `len` is the record's on-disk byte length
    /// including its newline.
    pub fn record<S: AsRef<str>>(&mut self, fields: impl IntoIterator<Item = S>, len: u64) {
        let mut fields = fields.into_iter();
        for (col, scratch) in self.cur.columns.iter_mut().zip(self.cur_scratch.iter_mut()) {
            match fields.next() {
                Some(field) => col.observe(field.as_ref(), scratch),
                None => col.observe("", scratch),
            }
        }
        self.cur.rows = self.cur.rows.saturating_add(1);
        self.offset = self.offset.saturating_add(len);
        if self.offset.saturating_sub(self.cur.start) >= self.block_bytes {
            self.cut();
        }
    }

    /// Close the current block at the current offset.
    fn cut(&mut self) {
        if self.offset == self.cur.start {
            return;
        }
        let ncols = self.columns.len();
        let mut done = std::mem::replace(
            &mut self.cur,
            BlockStats {
                start: self.offset,
                columns: vec![ColumnStats::default(); ncols],
                ..Default::default()
            },
        );
        done.end = self.offset;
        for (col, scratch) in done.columns.iter_mut().zip(&mut self.cur_scratch) {
            col.seal();
            col.bloom = scratch.bloom();
            scratch.clear();
        }
        self.blocks.push(done);
    }

    /// Finish: close the open block and stamp the object identity.
    pub fn finish(mut self, etag: String) -> ObjectStats {
        self.cut();
        ObjectStats {
            etag,
            has_header: self.has_header,
            columns: self.columns,
            blocks: self.blocks,
        }
    }

    /// Total bytes folded so far (diagnostics).
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------
//
// Compact line-free text form (the disk backend's metadata sidecar cannot
// hold tabs or newlines, and HTTP header values should not either):
//
//   v1|<etag>|<hdr 0/1>|<col;col;...>|<block>|<block>|...
//   block := s:<start>;e:<end>;r:<rows>;<colstat>;<colstat>;...
//   colstat := [n<min>,<max>][m<str_min>][M<str_max>][u][x][b<bloom hex>]
//
// Strings are percent-escaped ([`crate::percent`]) so the `|`, `;`, `,`
// structure bytes never appear raw, and the encoded form is ASCII.

fn esc(s: &str) -> String {
    crate::percent::encode(s, b"|;,")
}

fn unesc(s: &str) -> Result<String> {
    crate::percent::decode(s, "zone stats")
}

/// `f64` text round-trip: Rust's shortest-repr `Display` re-parses exactly.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn parse_f64(s: &str) -> Result<f64> {
    s.parse::<f64>()
        .map_err(|_| ScoopError::InvalidRequest(format!("bad stats number '{s}'")))
}

fn parse_u64(s: &str) -> Result<u64> {
    s.parse::<u64>()
        .map_err(|_| ScoopError::InvalidRequest(format!("bad stats integer '{s}'")))
}

impl ObjectStats {
    /// Serialize into the compact single-string form.
    pub fn encode(&self) -> String {
        let mut out = String::from("v1|");
        out.push_str(&esc(&self.etag));
        out.push('|');
        out.push(if self.has_header { '1' } else { '0' });
        out.push('|');
        out.push_str(&self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(";"));
        for b in &self.blocks {
            out.push('|');
            out.push_str(&format!("s:{};e:{};r:{}", b.start, b.end, b.rows));
            for c in &b.columns {
                out.push(';');
                if let Some((lo, hi)) = c.num {
                    out.push_str(&format!("n{},{}", fmt_f64(lo), fmt_f64(hi)));
                }
                if let Some(m) = &c.str_min {
                    out.push('m');
                    out.push_str(&esc(m));
                    out.push(',');
                }
                if let Some(m) = &c.str_max {
                    out.push('M');
                    out.push_str(&esc(m));
                    out.push(',');
                }
                if c.has_null {
                    out.push('u');
                }
                if c.has_value {
                    out.push('x');
                }
                if let Some(bloom) = c.bloom {
                    out.push_str(&format!("b{bloom:x}"));
                }
            }
        }
        out
    }

    /// Decode the compact form. Total: any malformed input is an error, never
    /// a panic — the planner treats errors as "no stats".
    pub fn decode(s: &str) -> Result<ObjectStats> {
        let mut parts = s.split('|');
        let bad = |what: &str| ScoopError::InvalidRequest(format!("stats decode: {what}"));
        if parts.next() != Some("v1") {
            return Err(bad("unknown version"));
        }
        let etag = unesc(parts.next().ok_or_else(|| bad("missing etag"))?)?;
        let has_header = match parts.next() {
            Some("1") => true,
            Some("0") => false,
            _ => return Err(bad("bad header flag")),
        };
        let cols_raw = parts.next().ok_or_else(|| bad("missing columns"))?;
        let columns = cols_raw
            .split(';')
            .filter(|c| !c.is_empty())
            .map(unesc)
            .collect::<Result<Vec<String>>>()?;
        if columns.is_empty() {
            return Err(bad("empty schema"));
        }
        let mut blocks = Vec::new();
        for braw in parts {
            let mut fields = braw.split(';');
            let mut take_kv = |prefix: &str| -> Result<u64> {
                let f = fields.next().ok_or_else(|| bad("truncated block"))?;
                parse_u64(
                    f.strip_prefix(prefix)
                        .ok_or_else(|| bad("bad block field"))?,
                )
            };
            let start = take_kv("s:")?;
            let end = take_kv("e:")?;
            let rows = take_kv("r:")?;
            if end <= start {
                return Err(bad("empty block range"));
            }
            if let Some(prev) = blocks.last() {
                let prev: &BlockStats = prev;
                if prev.end != start {
                    return Err(bad("non-contiguous blocks"));
                }
            }
            let mut cstats = Vec::with_capacity(columns.len());
            for craw in fields {
                cstats.push(decode_colstat(craw)?);
            }
            if cstats.len() != columns.len() {
                return Err(bad("column count mismatch"));
            }
            blocks.push(BlockStats { start, end, rows, columns: cstats });
        }
        Ok(ObjectStats { etag, has_header, columns, blocks })
    }

    /// Split the encoded form into numbered metadata entries
    /// (`<prefix>0`, `<prefix>1`, ...), each at most [`META_CHUNK`] bytes.
    pub fn to_metadata(&self) -> Vec<(String, String)> {
        // The encoded form is ASCII, so every chunk is whole characters.
        let encoded = self.encode();
        encoded
            .as_bytes()
            .chunks(META_CHUNK)
            .enumerate()
            .map(|(n, chunk)| {
                let key = format!("{}{n}", crate::headers::SCOOP_STATS_PREFIX);
                (key, String::from_utf8_lossy(chunk).into_owned())
            })
            .collect()
    }

    /// Reassemble and decode stats from metadata key/value pairs. Returns
    /// `None` when no stats chunks are present at all; `Err` when chunks
    /// exist but do not decode (the caller falls back to a full scan).
    pub fn from_metadata<'a>(
        meta: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<Option<ObjectStats>> {
        let mut chunks: BTreeMap<u64, &str> = BTreeMap::new();
        for (k, v) in meta {
            if let Some(suffix) = k.strip_prefix(crate::headers::SCOOP_STATS_PREFIX) {
                let n = parse_u64(suffix)?;
                chunks.insert(n, v);
            }
        }
        if chunks.is_empty() {
            return Ok(None);
        }
        // Chunks must be gapless 0..N.
        let mut encoded = String::new();
        for (i, (n, v)) in chunks.iter().enumerate() {
            if *n != i as u64 {
                return Err(ScoopError::InvalidRequest("stats chunk gap".into()));
            }
            encoded.push_str(v);
        }
        Self::decode(&encoded).map(Some)
    }

    /// Total byte length covered by the blocks (== object size when the
    /// index is complete).
    pub fn covered_len(&self) -> u64 {
        self.blocks.last().map(|b| b.end).unwrap_or(0)
    }

    /// Whether these stats may prune reads of one stored object version —
    /// the freshness check both tiers run before they plan. The stats must
    /// describe exactly the stored bytes (an overwrite changes the `etag`, a
    /// truncation the `len`), and the reader must agree on the column
    /// layout, because pruning evidence is positional, and on the header
    /// flag. Column names are compared trimmed.
    pub fn describes<'a>(
        &self,
        etag: Option<&str>,
        len: Option<u64>,
        columns: impl IntoIterator<Item = &'a str>,
        has_header: bool,
    ) -> bool {
        etag == Some(self.etag.as_str())
            && len == Some(self.covered_len())
            && columns.into_iter().map(str::trim).eq(self.columns.iter().map(String::as_str))
            && has_header == self.has_header
    }
}

/// A fingerprint of the stats chunks among `meta`, or `None` when there are
/// none. Re-indexing the same bytes under another block size or schema keeps
/// the etag but changes the chunks, so a cache of decoded stats keys on this
/// as well as on the etag.
pub fn metadata_fingerprint<'a>(meta: impl Iterator<Item = (&'a str, &'a str)>) -> Option<u64> {
    meta.filter(|(k, _)| k.starts_with(crate::headers::SCOOP_STATS_PREFIX))
        .fold(None, |h, (k, v)| {
            let h = hash64_seeded(k.as_bytes(), h.unwrap_or(0));
            Some(hash64_seeded(v.as_bytes(), h))
        })
}

/// Entries a [`StatsCache`] holds before it drops them all and starts over.
pub const STATS_CACHE_ENTRIES: usize = 256;

/// A bounded memo of decoded zone maps, keyed by whatever pins the bytes
/// they describe — an etag at least. An entry is the decoded index or a
/// negative one, "this object version has no index a reader can use", so an
/// un-indexed object, or one whose index cannot be read, costs one load per
/// version rather than one per read. Decoding is the cost it saves; callers
/// still run [`ObjectStats::describes`] on every hit.
pub struct StatsCache<K> {
    entries: Mutex<HashMap<K, Option<Arc<ObjectStats>>>>,
}

impl<K> Default for StatsCache<K> {
    fn default() -> Self {
        StatsCache { entries: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + Hash> StatsCache<K> {
    /// The entry for `key`, loading it on a miss. `load` answers `Ok(Some)`
    /// with an index, `Ok(None)` for a definite "no index" (kept as a
    /// negative entry), or `Err` for a failure that says nothing about the
    /// object: nothing is kept, and the caller sees "no index" this time
    /// only. Loads run outside the lock, so two readers missing at once
    /// both load and the second insert wins.
    pub fn get_or_load(
        &self,
        key: K,
        load: impl FnOnce() -> Result<Option<ObjectStats>>,
    ) -> Option<Arc<ObjectStats>> {
        if let Some(hit) = self.entries.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return hit.clone();
        }
        let loaded = load().ok()?.map(Arc::new);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() >= STATS_CACHE_ENTRIES {
            entries.clear();
        }
        entries.insert(key, loaded.clone());
        loaded
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

fn decode_colstat(raw: &str) -> Result<ColumnStats> {
    let bad = |what: &str| ScoopError::InvalidRequest(format!("stats colstat: {what}"));
    let mut c = ColumnStats::default();
    let bytes = raw.as_bytes();
    let mut i = 0;
    // Fields are tagged and self-delimiting: numeric/bloom run to the next
    // tag letter boundary; strings run to their `,` terminator.
    while let Some(&tag) = bytes.get(i) {
        let rest = raw.get(i.saturating_add(1)..).unwrap_or("");
        match tag {
            b'n' => {
                let end = rest
                    .find(|ch: char| !(ch.is_ascii_digit() || "+-.,eEinfaN".contains(ch)))
                    .unwrap_or(rest.len());
                let (lo, hi) = rest
                    .get(..end)
                    .unwrap_or("")
                    .split_once(',')
                    .ok_or_else(|| bad("bad numeric range"))?;
                c.num = Some((parse_f64(lo)?, parse_f64(hi)?));
                i = i.saturating_add(1).saturating_add(end);
            }
            b'm' | b'M' => {
                let end = rest.find(',').ok_or_else(|| bad("unterminated string stat"))?;
                let s = unesc(rest.get(..end).unwrap_or(""))?;
                if tag == b'm' {
                    c.str_min = Some(s);
                } else {
                    c.str_max = Some(s);
                }
                i = i.saturating_add(2).saturating_add(end);
            }
            b'u' => {
                c.has_null = true;
                i = i.saturating_add(1);
            }
            b'x' => {
                c.has_value = true;
                i = i.saturating_add(1);
            }
            b'b' => {
                let end = rest
                    .find(|ch: char| !ch.is_ascii_hexdigit())
                    .unwrap_or(rest.len());
                c.bloom = Some(
                    u64::from_str_radix(rest.get(..end).unwrap_or(""), 16)
                        .map_err(|_| bad("bad bloom digest"))?,
                );
                i = i.saturating_add(1).saturating_add(end);
            }
            _ => return Err(bad("unknown tag")),
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectStats {
        let mut b = StatsBuilder::new(
            vec!["vid".into(), "index".into(), "city".into()],
            true,
            32,
        );
        b.skip_bytes(15); // header row
        b.record(["m1", "100.5", "Rotterdam"], 20);
        b.record(["m2", "", "Paris"], 12);
        b.record(["m3", "50", "Utrecht"], 14);
        b.record(["m4", "75", "a|b;c,d%e"], 16);
        b.finish("etag123".into())
    }

    #[test]
    fn builder_blocks_tile_and_count() {
        let s = sample();
        assert_eq!(s.columns.len(), 3);
        assert!(!s.blocks.is_empty());
        assert_eq!(s.blocks[0].start, 0);
        for w in s.blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "blocks must tile");
        }
        assert_eq!(s.covered_len(), 15 + 20 + 12 + 14 + 16);
        assert_eq!(s.blocks.iter().map(|b| b.rows).sum::<u64>(), 4);
        // Column 1 saw a NULL and numeric values.
        let col1: Vec<&ColumnStats> = s.blocks.iter().map(|b| &b.columns[1]).collect();
        assert!(col1.iter().any(|c| c.has_null));
        assert!(col1.iter().any(|c| c.num.is_some()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let enc = s.encode();
        assert!(!enc.contains('\t') && !enc.contains('\n'), "sidecar-safe");
        let dec = ObjectStats::decode(&enc).unwrap();
        assert_eq!(dec, s);
    }

    #[test]
    fn metadata_chunking_roundtrip() {
        let mut b = StatsBuilder::new(
            (0..8).map(|i| format!("col{i}")).collect(),
            false,
            16,
        );
        for i in 0..200u64 {
            let v = format!("value-{i}");
            let fields: Vec<&str> = (0..8).map(|_| v.as_str()).collect();
            b.record(fields, 40);
        }
        let s = b.finish("bigetag".into());
        let meta = s.to_metadata();
        assert!(meta.len() > 1, "large stats must chunk");
        for (_, v) in &meta {
            assert!(v.len() <= META_CHUNK);
        }
        let dec = ObjectStats::from_metadata(
            meta.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        )
        .unwrap()
        .unwrap();
        assert_eq!(dec, s);
        // Chunk order in the map must not matter.
        let mut rev: Vec<(&str, &str)> =
            meta.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        rev.reverse();
        assert_eq!(ObjectStats::from_metadata(rev.into_iter()).unwrap().unwrap(), s);
    }

    #[test]
    fn non_ascii_strings_roundtrip_as_ascii() {
        let mut b = StatsBuilder::new(vec!["city".into(), "tag".into()], true, u64::MAX);
        b.record(["Liège", "é…|%;,"], 20);
        b.record(["Ærøskøbing", "😀"], 20);
        let s = b.finish("etag-é".into());
        assert_eq!(s.blocks[0].columns[0].str_max.as_deref(), Some("Ærøskøbing"));
        let encoded = s.encode();
        assert!(encoded.is_ascii(), "{encoded}");
        assert_eq!(ObjectStats::decode(&encoded).unwrap(), s);
        // The metadata chunks are ASCII too, and reassemble.
        let meta = s.to_metadata();
        assert!(meta.iter().all(|(_, v)| v.is_ascii() && v.len() <= META_CHUNK));
        let pairs = meta.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        assert_eq!(ObjectStats::from_metadata(pairs).unwrap().unwrap(), s);
        // ASCII encodes as it always did.
        assert!(ObjectStats::decode("v1|e|0|city|s:0;e:5;r:1;mParis,MParis,x").is_ok());
        // A raw non-ASCII byte is a form no encoder writes now: the old
        // Latin-1 spelling of `Liège` reads as no index, not as `LiÃ¨ge`.
        assert!(ObjectStats::decode("v1|e|0|city|s:0;e:7;r:1;mLiÃ¨ge,MLiÃ¨ge,x").is_err());
    }

    #[test]
    fn absent_and_corrupt_metadata() {
        assert!(ObjectStats::from_metadata(std::iter::empty()).unwrap().is_none());
        let garbage = [("x-object-meta-scoop-stats-0", "v9|zzz")];
        assert!(ObjectStats::from_metadata(garbage.iter().copied()).is_err());
        let gap = [
            ("x-object-meta-scoop-stats-0", "v1|e|0|a"),
            ("x-object-meta-scoop-stats-2", "rest"),
        ];
        assert!(ObjectStats::from_metadata(gap.iter().copied()).is_err());
        assert!(ObjectStats::decode("").is_err());
        assert!(ObjectStats::decode("v1|e|0|").is_err(), "empty schema");
        assert!(ObjectStats::decode("v1|e|2|a").is_err(), "bad header flag");
    }

    #[test]
    fn string_stat_truncation_is_one_sided() {
        let mut c = ColumnStats::default();
        let mut d = ColumnScratch::default();
        let long = "z".repeat(40);
        c.observe(&long, &mut d);
        c.observe("aa", &mut d);
        c.seal();
        // min: truncated prefix (sound lower bound); max: dropped (a prefix
        // would claim values above the true max are impossible), and a later
        // smaller value must not resurrect a bounded max.
        assert_eq!(c.str_min.as_deref(), Some("aa"));
        assert_eq!(c.str_max, None, "overlong max must stay unknown");

        let mut c = ColumnStats::default();
        c.observe("bb", &mut d);
        c.observe("cc", &mut d);
        c.seal();
        assert_eq!(c.str_max.as_deref(), Some("cc"));
    }

    /// Values that share their first 8 bytes (one month of dates) are
    /// ordered past their words, and values whose keys cannot tell them
    /// apart (25+ bytes, differing only between the sampled words) are
    /// still distinct.
    #[test]
    fn string_bounds_and_distinct_values_past_the_key() {
        let mut c = ColumnStats::default();
        let mut d = ColumnScratch::default();
        for v in ["2015-01-03 00:00:00", "2015-01-04 00:00:00", "2015-01-02 00:00:00"] {
            c.observe(v, &mut d);
        }
        assert_eq!(c.str_min.as_deref(), Some("2015-01-02 00:00"));
        assert_eq!(c.str_max.as_deref(), Some("2015-01-04 00:00:00"));

        let low = "p".repeat(30);
        let mut high = low.clone().into_bytes();
        high[9] = b'z';
        let high = String::from_utf8(high).unwrap();
        let mut c = ColumnStats::default();
        let mut d = ColumnScratch::default();
        c.observe(&low, &mut d);
        c.observe(&high, &mut d);
        assert_eq!(c.str_min.as_deref(), Some(&low[..MAX_STRING_STAT]));
        assert_eq!(d.values, vec![low, high]);
    }

    #[test]
    fn bloom_digest_only_for_low_cardinality() {
        let mut b = StatsBuilder::new(vec!["city".into()], false, u64::MAX);
        for i in 0..100u64 {
            let v = format!("city-{i}");
            b.record([v.as_str()], 10);
        }
        let s = b.finish("e".into());
        assert_eq!(s.blocks[0].columns[0].bloom, None, "high cardinality");

        let mut b = StatsBuilder::new(vec!["city".into()], false, u64::MAX);
        for _ in 0..100u64 {
            b.record(["Rotterdam"], 10);
            b.record(["Paris"], 6);
        }
        let s = b.finish("e".into());
        let bloom = s.blocks[0].columns[0].bloom.expect("low cardinality digest");
        assert_eq!(bloom & bloom_mask("Rotterdam"), bloom_mask("Rotterdam"));
        assert_eq!(bloom & bloom_mask("Paris"), bloom_mask("Paris"));
    }

    #[test]
    fn numeric_stats_handle_infinities_and_nan() {
        let mut c = ColumnStats::default();
        let mut d = ColumnScratch::default();
        c.observe("inf", &mut d);
        c.observe("-inf", &mut d);
        c.observe("NaN", &mut d);
        c.observe("3.5", &mut d);
        let (lo, hi) = c.num.unwrap();
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, f64::INFINITY);
        // And they survive the codec.
        let s = ObjectStats {
            etag: "e".into(),
            has_header: false,
            columns: vec!["v".into()],
            blocks: vec![BlockStats { start: 0, end: 10, rows: 4, columns: vec![c] }],
        };
        assert_eq!(ObjectStats::decode(&s.encode()).unwrap(), s);
    }

    /// The fast path must be `str::parse::<f64>` bit for bit, including the
    /// sign of zero, and reject exactly what it rejects.
    fn assert_parses_like_std(s: &str) {
        let want = s.parse::<f64>().ok().map(f64::to_bits);
        assert_eq!(parse_number(s).map(f64::to_bits), want, "{s:?}");
    }

    #[test]
    fn number_fast_path_fixtures() {
        for s in [
            "", "-", "+", ".", "-.", "0", "-0", "+0", "-0.0", "5.", ".5", "+3", "-.5", "1e5",
            "1E-3", "inf", "-INF", "Infinity", "+infinity", "NaN", "-nan", "Nice", "NLD",
            "infinit", "1.2.3", "1,5", " 1", "1 ", "0x10", "1_000", "007.50",
            "9007199254740992", "9007199254740993", "0.1", "0.30000000000000004",
            "1234567890123456789", "12345678901234567890", "0.0000000000000000000001",
            "0.00000000000000000000001", "179769313486231570000000000000000000000",
            "3.14159265358979323846264338327950288",
        ] {
            assert_parses_like_std(s);
        }
    }

    #[test]
    fn describes_checks_bytes_layout_and_header() {
        let s = sample();
        let len = s.covered_len();
        let cols = ["vid", " index", "city"];
        assert!(s.describes(Some("etag123"), Some(len), cols, true));
        // Another version of the object, or another length.
        assert!(!s.describes(Some("other"), Some(len), cols, true));
        assert!(!s.describes(None, Some(len), cols, true));
        assert!(!s.describes(Some("etag123"), Some(len + 1), cols, true));
        // Another layout or header flag.
        assert!(!s.describes(Some("etag123"), Some(len), ["vid", "city", "index"], true));
        assert!(!s.describes(Some("etag123"), Some(len), ["vid", "index"], true));
        assert!(!s.describes(Some("etag123"), Some(len), cols, false));
    }

    #[test]
    fn fingerprint_covers_stats_chunks_only() {
        let meta = sample().to_metadata();
        let pairs = || meta.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let fp = metadata_fingerprint(pairs()).expect("stats present");
        // Other metadata does not move it; a changed chunk does.
        let with_other = pairs().chain([("x-object-meta-a", "1")]);
        assert_eq!(metadata_fingerprint(with_other), Some(fp));
        let mut changed = meta.clone();
        changed[0].1.push('x');
        let changed = changed.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        assert_ne!(metadata_fingerprint(changed), Some(fp));
        assert_eq!(metadata_fingerprint([("x-object-meta-a", "1")].into_iter()), None);
    }

    #[test]
    fn stats_cache_keeps_answers_not_failures() {
        let cache: StatsCache<&str> = StatsCache::default();
        let loads = std::cell::Cell::new(0);
        let load = |answer: Result<Option<ObjectStats>>| {
            loads.set(loads.get() + 1);
            answer
        };
        // A positive and a negative entry each load once.
        assert!(cache.get_or_load("a", || load(Ok(Some(sample())))).is_some());
        assert!(cache.get_or_load("a", || load(Ok(None))).is_some());
        assert!(cache.get_or_load("b", || load(Ok(None))).is_none());
        assert!(cache.get_or_load("b", || load(Ok(Some(sample())))).is_none());
        assert_eq!(loads.get(), 2);
        // A failure is "no index" this time only.
        let err = || load(Err(ScoopError::Io(std::io::Error::other("down"))));
        assert!(cache.get_or_load("c", err).is_none());
        assert!(cache.get_or_load("c", || load(Ok(Some(sample())))).is_some());
        assert_eq!(loads.get(), 4);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn stats_cache_is_bounded() {
        let cache: StatsCache<usize> = StatsCache::default();
        for i in 0..STATS_CACHE_ENTRIES * 2 + 1 {
            cache.get_or_load(i, || Ok(None));
            assert!(cache.len() <= STATS_CACHE_ENTRIES);
        }
        assert!(cache.len() > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn number_fast_path_matches_std_on_decimals(
            sign in "[+-]?",
            int in "[0-9]{0,20}",
            frac in proptest::option::of("[0-9]{0,24}"),
            exp in proptest::option::of("[eE][+-]?[0-9]{1,3}"),
        ) {
            let mut s = format!("{sign}{int}");
            if let Some(frac) = frac {
                s.push('.');
                s.push_str(&frac);
            }
            s.push_str(exp.as_deref().unwrap_or(""));
            assert_parses_like_std(&s);
        }

        #[test]
        fn number_fast_path_matches_std_on_soup(s in "[0-9.+eEinfatyIN -]{0,12}") {
            assert_parses_like_std(&s);
        }

        /// The word-at-a-time path: up to 8 bytes of digits and points.
        #[test]
        fn number_fast_path_matches_std_on_short_words(s in "[+-]?[0-9.]{0,9}") {
            assert_parses_like_std(&s);
        }
    }
}
