//! Inline-capable string storage for [`crate::Value`].
//!
//! Every field of the GridPocket meter schema — including the 19-byte
//! `"2015-02-01 00:00:00"` timestamps — fits in [`INLINE_LEN`] bytes, so a
//! row view over a batch's string lanes materializes string cells without
//! touching the allocator: an inline copy of at most 22
//! bytes instead of a `String` allocation per field, and a no-op drop
//! instead of a `free`. Longer strings spill to a `Box<str>`.
//!
//! The type is deliberately safe Rust: the inline buffer stores bytes that
//! were valid UTF-8 at construction, and [`SmallStr::as_str`] re-validates
//! on access (a handful of nanoseconds for ≤22 bytes) rather than caching a
//! `str` view through `unsafe`.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum byte length stored inline. Chosen so the enum stays 24 bytes —
/// the same payload size as `String` — while covering every meter field.
pub const INLINE_LEN: usize = 22;

/// A UTF-8 string that stores short values inline and long ones on the heap.
#[derive(Clone)]
pub enum SmallStr {
    /// At most [`INLINE_LEN`] bytes, valid UTF-8 at construction.
    Inline { len: u8, buf: [u8; INLINE_LEN] },
    /// Spill storage for longer strings.
    Heap(Box<str>),
}

impl SmallStr {
    /// Build from a `&str`, inlining when it fits.
    #[inline]
    pub fn new(s: &str) -> SmallStr {
        if s.len() <= INLINE_LEN {
            let mut buf = [0u8; INLINE_LEN];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr::Inline { len: s.len() as u8, buf }
        } else {
            SmallStr::Heap(s.into())
        }
    }

    /// Build from raw bytes with `from_utf8_lossy` semantics: short valid
    /// UTF-8 is inlined without allocating; anything else goes through the
    /// lossy conversion. This is the CSV field materialization fast path.
    #[inline]
    pub fn from_utf8_lossy(bytes: &[u8]) -> SmallStr {
        // ASCII implies valid UTF-8; `[u8]::is_ascii` is a word-at-a-time
        // high-bit check, much cheaper than the full UTF-8 validator. This
        // is the whole inlined fast path — everything else is outlined.
        if bytes.len() <= INLINE_LEN && bytes.is_ascii() {
            let mut buf = [0u8; INLINE_LEN];
            buf[..bytes.len()].copy_from_slice(bytes);
            return SmallStr::Inline { len: bytes.len() as u8, buf };
        }
        Self::from_utf8_lossy_slow(bytes)
    }

    /// Construct from the first `len` bytes of `window`, which the caller
    /// guarantees are valid UTF-8. When they fit inline and the window
    /// extends to at least [`INLINE_LEN`] bytes, the copy is a single
    /// fixed-size move instead of a variable-length one and nothing is
    /// validated — the bytes past `len` land in the buffer but are
    /// unreachable, because every accessor is length-bounded. This is how a
    /// row view materializes a string lane's cell: the window is the rest of
    /// the lane's bytes from the cell on.
    #[inline]
    pub fn from_utf8_window(window: &[u8], len: usize) -> SmallStr {
        match window.get(..INLINE_LEN) {
            Some(head) if len <= INLINE_LEN => {
                let mut buf = [0u8; INLINE_LEN];
                buf.copy_from_slice(head);
                SmallStr::Inline { len: len as u8, buf }
            }
            _ => SmallStr::from_utf8_lossy(window.get(..len).unwrap_or_default()),
        }
    }

    /// Non-ASCII or long input: full validation / lossy conversion.
    #[cold]
    #[inline(never)]
    fn from_utf8_lossy_slow(bytes: &[u8]) -> SmallStr {
        if bytes.len() <= INLINE_LEN {
            if let Ok(s) = std::str::from_utf8(bytes) {
                return SmallStr::new(s);
            }
        }
        match String::from_utf8_lossy(bytes) {
            Cow::Borrowed(s) => SmallStr::new(s),
            Cow::Owned(s) => SmallStr::from(s),
        }
    }

    /// The string view. Inline storage re-validates (it was valid UTF-8 at
    /// construction, so the fallback arm is unreachable in practice).
    #[inline]
    pub fn as_str(&self) -> &str {
        match self {
            SmallStr::Inline { len, buf } => {
                let end = (*len as usize).min(INLINE_LEN);
                std::str::from_utf8(&buf[..end]).unwrap_or("")
            }
            SmallStr::Heap(s) => s,
        }
    }

    /// The string's UTF-8 bytes, without the re-validation [`Self::as_str`]
    /// pays: what comparing, hashing and byte-wise matching should use.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            SmallStr::Inline { len, buf } => buf.get(..*len as usize).unwrap_or(&buf[..]),
            SmallStr::Heap(s) => s.as_bytes(),
        }
    }

    /// Byte length of the string.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SmallStr::Inline { len, .. } => *len as usize,
            SmallStr::Heap(s) => s.len(),
        }
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SmallStr {
    fn default() -> Self {
        SmallStr::Inline { len: 0, buf: [0u8; INLINE_LEN] }
    }
}

impl From<&str> for SmallStr {
    #[inline]
    fn from(s: &str) -> SmallStr {
        SmallStr::new(s)
    }
}

impl From<String> for SmallStr {
    #[inline]
    fn from(s: String) -> SmallStr {
        if s.len() <= INLINE_LEN {
            SmallStr::new(&s)
        } else {
            SmallStr::Heap(s.into_boxed_str())
        }
    }
}

impl From<Cow<'_, str>> for SmallStr {
    #[inline]
    fn from(s: Cow<'_, str>) -> SmallStr {
        match s {
            Cow::Borrowed(s) => SmallStr::new(s),
            Cow::Owned(s) => SmallStr::from(s),
        }
    }
}

impl From<&SmallStr> for String {
    fn from(s: &SmallStr) -> String {
        s.as_str().to_owned()
    }
}

impl std::ops::Deref for SmallStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SmallStr {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SmallStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for SmallStr {}

impl PartialEq<str> for SmallStr {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SmallStr {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for SmallStr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallStr {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // `str` orders by its bytes.
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for SmallStr {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // As `str` hashes: its bytes, then a terminator.
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

// Marker impls for the offline serde stand-in (the derive emits no code,
// but hand-rolled wire formats never route through serde anyway).
impl serde::Serialize for SmallStr {}
impl<'de> serde::Deserialize<'de> for SmallStr {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inlines_short_and_spills_long() {
        let s = SmallStr::new("2015-02-01 00:00:00");
        assert!(matches!(s, SmallStr::Inline { .. }));
        assert_eq!(s.as_str(), "2015-02-01 00:00:00");
        assert_eq!(s.len(), 19);

        let long = "x".repeat(INLINE_LEN + 1);
        let s = SmallStr::new(&long);
        assert!(matches!(s, SmallStr::Heap(_)));
        assert_eq!(s.as_str(), long);
    }

    #[test]
    fn boundary_length_is_inline() {
        let at = "y".repeat(INLINE_LEN);
        let s = SmallStr::from(at.clone());
        assert!(matches!(s, SmallStr::Inline { .. }));
        assert_eq!(s.as_str(), at);
    }

    #[test]
    fn lossy_bytes_match_string_lossy() {
        for raw in [
            b"plain".as_slice(),
            b"".as_slice(),
            b"caf\xc3\xa9".as_slice(),
            b"bad\xffbyte".as_slice(),
            b"this one is much longer than the inline buffer \xff".as_slice(),
        ] {
            assert_eq!(
                SmallStr::from_utf8_lossy(raw).as_str(),
                String::from_utf8_lossy(raw),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn eq_ord_hash_cross_representation() {
        use std::collections::hash_map::DefaultHasher;
        let inline = SmallStr::new("abc");
        let heap = SmallStr::Heap("abc".into());
        assert_eq!(inline, heap);
        assert_eq!(inline.cmp(&heap), Ordering::Equal);
        let h = |s: &SmallStr| {
            let mut st = DefaultHasher::new();
            s.hash(&mut st);
            st.finish()
        };
        assert_eq!(h(&inline), h(&heap));
        assert!(SmallStr::new("a") < SmallStr::new("b"));
        assert_eq!(SmallStr::new("x"), "x");
        // Byte-wise comparison and hashing agree with `str`'s.
        for (a, b) in [("caf\u{e9}", "cafz"), ("\u{65e5}", "\u{1f600}"), ("ab", "abc"), ("", "a")] {
            assert_eq!(SmallStr::new(a).cmp(&SmallStr::new(b)), a.cmp(b), "{a:?} {b:?}");
            assert_eq!(SmallStr::new(a).as_bytes(), a.as_bytes());
        }
        let mut st = DefaultHasher::new();
        "abc".hash(&mut st);
        assert_eq!(h(&inline), st.finish());
    }

    #[test]
    fn display_and_default() {
        assert_eq!(SmallStr::new("hi").to_string(), "hi");
        assert_eq!(SmallStr::default().as_str(), "");
        assert!(SmallStr::default().is_empty());
    }
}
