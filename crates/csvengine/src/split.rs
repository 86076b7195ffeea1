//! Record-aligned byte-range splits.
//!
//! Spark/Hadoop partition a CSV object into fixed-size byte ranges and each
//! task must read a *record-aligned* view of its range so that every record is
//! processed exactly once across all tasks. The paper extended the Storlet
//! middleware to run filters "at storage nodes for byte ranges" under exactly
//! this contract; this module implements it.
//!
//! ## Ownership contract (Hadoop `LineRecordReader` semantics)
//!
//! For a split `[s, e)` over an object of `len` bytes, the split owns the
//! records whose starting offset `p` satisfies:
//!
//! * `p == 0 && s == 0` (the first record belongs to the first split), or
//! * `s < p <= e`.
//!
//! A record straddling the end of a split is therefore read past `e` by the
//! owning split, and a record starting exactly at `s > 0` belongs to the
//! *previous* split. Like Hadoop, split alignment scans for raw newlines:
//! a record ends at the first `\n`, whatever the quotes — the one record
//! rule of [`crate::record`] that every reader in the system shares, and
//! the only one a split can honour without the quote state at its start.

use crate::record::RecordSplitter;
use crate::scan;

/// Find the byte index of the first `\n` at or after `from`, if any.
fn find_newline(data: &[u8], from: usize) -> Option<usize> {
    scan::find_byte(data.get(from..)?, b'\n').map(|p| from + p)
}

/// Compute the record-aligned byte range `[a, b)` for logical split
/// `[start, end)` of `data`, honouring the ownership contract above.
///
/// The returned range contains only whole records; it may be empty when the
/// split owns no record.
pub fn aligned_range(data: &[u8], start: u64, end: u64) -> (usize, usize) {
    let len = data.len();
    let s = (start.min(len as u64)) as usize;
    let a = if s == 0 {
        0
    } else {
        match find_newline(data, s) {
            Some(nl) => nl + 1,
            None => len,
        }
    };
    let b = if end >= len as u64 {
        len
    } else {
        match find_newline(data, end as usize) {
            Some(nl) => nl + 1,
            None => len,
        }
    };
    (a, b.max(a))
}

/// Extract the record-aligned slice for split `[start, end)`.
pub fn aligned_slice(data: &[u8], start: u64, end: u64) -> &[u8] {
    let (a, b) = aligned_range(data, start, end);
    &data[a..b]
}

/// Plan logical splits of `total_len` bytes into chunks of `chunk_size`.
///
/// Mirrors Hadoop partition discovery: the object is divided by the configured
/// chunk size (the HDFS block size in the paper, which notes this constant is
/// "not adapted to object stores" — see the ablation bench).
pub fn plan_splits(total_len: u64, chunk_size: u64) -> Vec<(u64, u64)> {
    assert!(chunk_size > 0, "chunk size must be positive");
    if total_len == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(total_len.div_ceil(chunk_size) as usize);
    let mut s = 0u64;
    while s < total_len {
        let e = (s + chunk_size).min(total_len);
        out.push((s, e));
        s = e;
    }
    out
}

/// Streaming record reader over a byte stream that starts at absolute
/// object offset `start`, honouring the split-ownership contract above and
/// **stopping the input early** once past `end`. It is the one
/// implementation of that contract on a stream: the `csvfilter` storlet's
/// ranged invocations, the vanilla scan's splits, the connector's fallback
/// filter and the record storlets' whole-object reads all read through it.
///
/// Records come out one input chunk at a time, borrowed, through the
/// callback of [`RangedRecordStream::next_chunk`] — the shape of
/// [`RecordSplitter::push`], which splits them: a record wholly inside a
/// chunk is a slice of that chunk, and a record straddling two chunks is
/// copied into the splitter's buffer, under its record-size cap.
pub struct RangedRecordStream {
    /// `None` once the range is exhausted (end passed, input ended or
    /// failed): the rest of the body is never pulled.
    input: Option<scoop_common::ByteStream>,
    /// Splits the owned bytes; holds the head of an owned record whose
    /// newline has not arrived yet.
    splitter: RecordSplitter,
    /// Absolute object offset of the first byte of the next input chunk.
    offset: u64,
    /// Past the newline that ends the record a split starting mid-object
    /// does not own.
    aligned: bool,
    /// Exclusive logical end of the range (None = EOF).
    end: Option<u64>,
    /// Records already split off but not yet handed out by the
    /// record-at-a-time [`Iterator`] form.
    pending: std::collections::VecDeque<Vec<u8>>,
}

impl RangedRecordStream {
    /// Create over a stream whose first byte is object offset `start`;
    /// `end` is the *exclusive* logical split end: the stream owns records
    /// whose start offset `p` satisfies `start < p <= end` (plus `p == 0`
    /// when `start == 0`), exactly matching [`aligned_range`].
    pub fn new(input: scoop_common::ByteStream, start: u64, end: Option<u64>) -> Self {
        RangedRecordStream {
            input: Some(input),
            splitter: RecordSplitter::new(),
            offset: start,
            aligned: start == 0,
            end,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// Like [`RangedRecordStream::new`] over a window that starts on a
    /// record boundary it owns, such as one the block planner cut: the
    /// record at `start` is kept even when `start > 0`.
    pub fn pre_aligned(input: scoop_common::ByteStream, start: u64, end: Option<u64>) -> Self {
        RangedRecordStream { aligned: true, ..RangedRecordStream::new(input, start, end) }
    }

    /// Absolute object offset one past the last input byte pulled.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Pull one input chunk and hand every owned record it completes to
    /// `emit` — without its line terminator (`\n` or `\r\n`), blank lines
    /// skipped. Returns `Ok(true)` while more records may follow and
    /// `Ok(false)` once the range is exhausted: the split's last record has
    /// been emitted and the input dropped unread past it. An input error, or
    /// a record past the splitter's size cap, is returned once and also
    /// exhausts the range.
    pub fn next_chunk(&mut self, mut emit: impl FnMut(&[u8])) -> scoop_common::Result<bool> {
        let Some(input) = self.input.as_mut() else {
            return Ok(false);
        };
        let exhausted = match input.next() {
            Some(Ok(chunk)) => self.push(&chunk, &mut emit),
            Some(Err(e)) => Err(e),
            None => {
                // The object ended inside an owned record: it ends there.
                std::mem::take(&mut self.splitter).finish(emit);
                Ok(true)
            }
        };
        if !matches!(exhausted, Ok(false)) {
            self.input = None;
        }
        exhausted.map(|exhausted| !exhausted)
    }

    /// Split one chunk, emitting the owned records it completes. Returns true
    /// once the range is exhausted: every record starting at or before the
    /// range end has been emitted.
    fn push(&mut self, chunk: &[u8], emit: &mut impl FnMut(&[u8])) -> scoop_common::Result<bool> {
        self.offset = self.offset.saturating_add(chunk.len() as u64);
        let mut rest = chunk;
        if !self.aligned {
            // Everything up to the first newline precedes the first owned
            // record.
            let Some(nl) = scan::find_byte(rest, b'\n') else {
                return Ok(false);
            };
            rest = rest.get(nl.saturating_add(1)..).unwrap_or_default();
            self.aligned = true;
        }
        let Some(end) = self.end else {
            self.splitter.push(rest, &mut *emit)?;
            return Ok(false);
        };
        // Every record starting in the bytes at offsets up to `end` is owned.
        let rest_start = self.offset.saturating_sub(rest.len() as u64);
        let owned = end.checked_sub(rest_start).map_or(0, |d| {
            usize::try_from(d.saturating_add(1)).unwrap_or(usize::MAX)
        });
        let (head, tail) = rest.split_at(owned.min(rest.len()));
        self.splitter.push(head, &mut *emit)?;
        if self.splitter.pending() == 0 {
            // The next record starts at the first byte not yet split.
            return Ok(self.offset.saturating_sub(tail.len() as u64) > end);
        }
        // Read on to the newline that ends the last owned record.
        let Some(nl) = scan::find_byte(tail, b'\n') else {
            self.splitter.push(tail, &mut *emit)?;
            return Ok(false);
        };
        let last = tail.get(..=nl).unwrap_or_default();
        self.splitter.push(last, &mut *emit)?;
        Ok(true)
    }
}

/// The record-at-a-time form: each record is copied out of its chunk. The
/// scans use [`RangedRecordStream::next_chunk`]; this form serves callers
/// that want owned records, such as the `queryplane` benchmark's probes.
impl Iterator for RangedRecordStream {
    type Item = scoop_common::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(record) = self.pending.pop_front() {
                return Some(Ok(record));
            }
            let mut pending = std::mem::take(&mut self.pending);
            let more = self.next_chunk(|record| pending.push_back(record.to_vec()));
            self.pending = pending;
            match more {
                Err(e) => return Some(Err(e)),
                Ok(false) if self.pending.is_empty() => return None,
                Ok(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::split_records;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Every record of the range, through the chunk-at-a-time callback.
    fn drain(mut stream: RangedRecordStream) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while stream.next_chunk(|r| out.push(r.to_vec())).unwrap() {}
        out
    }

    /// The object bytes from `s` on, in chunks of `chunk`.
    fn from(data: &[u8], s: u64, chunk: usize) -> scoop_common::ByteStream {
        scoop_common::stream::chunked(bytes::Bytes::from(data[s as usize..].to_vec()), chunk)
    }

    #[test]
    fn ranged_stream_matches_aligned_slice() {
        let data: Vec<u8> = (0..50)
            .flat_map(|i| format!("rec-{i},val{}\n", i * 2).into_bytes())
            .collect();
        for chunk in [8u64, 17, 40, 200] {
            for (s, e) in plan_splits(data.len() as u64, chunk) {
                let reference = split_records(aligned_slice(&data, s, e));
                for read in [1, 5, 13, 4096] {
                    let got = drain(RangedRecordStream::new(from(&data, s, read), s, Some(e)));
                    assert_eq!(got, reference, "split=({s},{e}) chunk={chunk} read={read}");
                }
                // The record-at-a-time form hands out the same records.
                let owned: Vec<Vec<u8>> = RangedRecordStream::new(from(&data, s, 13), s, Some(e))
                    .collect::<scoop_common::Result<_>>()
                    .unwrap();
                assert_eq!(owned, reference, "split=({s},{e}) chunk={chunk}");
            }
        }
    }

    #[test]
    fn crlf_blank_lines_and_an_unterminated_last_record() {
        let data = b"a,1\r\n\r\nb,2\n\nc,3\r";
        for read in 1..=data.len() {
            let got = drain(RangedRecordStream::new(from(data, 0, read), 0, None));
            assert_eq!(got, vec![b"a,1".to_vec(), b"b,2".to_vec(), b"c,3".to_vec()], "read={read}");
            let got = drain(RangedRecordStream::new(from(data, 2, read), 2, Some(9)));
            assert_eq!(got, vec![b"b,2".to_vec()], "read={read}");
        }
    }

    #[test]
    fn a_pre_aligned_window_keeps_its_first_record() {
        let data = b"aa\nbb\ncc\ndd\n";
        for read in 1..=data.len() {
            // "bb" starts at 3: a plain split from 3 leaves it to the split
            // before; a pre-aligned window from 3 owns it.
            let plain = RangedRecordStream::new(from(data, 3, read), 3, Some(6));
            assert_eq!(drain(plain), vec![b"cc".to_vec()], "read={read}");
            let window = RangedRecordStream::pre_aligned(from(data, 3, read), 3, Some(6));
            assert_eq!(drain(window), vec![b"bb".to_vec(), b"cc".to_vec()], "read={read}");
        }
    }

    #[test]
    fn ranged_stream_stops_early() {
        let data: Vec<u8> = (0..10_000)
            .flat_map(|i| format!("row-{i}\n").into_bytes())
            .collect();
        let consumed = Arc::new(AtomicU64::new(0));
        let counted = consumed.clone();
        let stream = Box::new(
            scoop_common::stream::chunked(bytes::Bytes::from(data), 512).inspect(move |chunk| {
                if let Ok(chunk) = chunk {
                    counted.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                }
            }),
        );
        let rows = drain(RangedRecordStream::new(stream, 0, Some(100)));
        assert!(!rows.is_empty());
        let consumed = consumed.load(Ordering::Relaxed);
        assert!(consumed < 5_000, "consumed {} bytes", consumed);
    }

    #[test]
    fn an_input_error_is_returned_once() {
        let failing = scoop_common::stream::error(scoop_common::ScoopError::NotFound("x".into()));
        let mut stream = RangedRecordStream::new(failing, 0, None);
        assert!(stream.next_chunk(|_| {}).is_err());
        assert!(!stream.next_chunk(|_| panic!("no records after an error")).unwrap());
    }

    #[test]
    fn an_unterminated_record_past_the_cap_is_an_error() {
        // No newline in 16 MiB + 1 bytes: a range ending at byte 10 owns the
        // record starting at 0 and reads on for its newline, which would
        // buffer the whole body as one record without the splitter's cap.
        let body = bytes::Bytes::from(vec![b'x'; crate::record::DEFAULT_MAX_RECORD_SIZE + 1]);
        for end in [Some(10), None] {
            let input = scoop_common::stream::chunked(body.clone(), 1 << 20);
            let mut stream = RangedRecordStream::new(input, 0, end);
            let err = loop {
                match stream.next_chunk(|_| panic!("no record completes")) {
                    Ok(true) => {}
                    Ok(false) => panic!("exhausted without the cap error (end {end:?})"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, scoop_common::ScoopError::Csv(_)), "{err}");
            assert!(err.to_string().contains("record-size cap"), "{err}");
            assert!(!stream.next_chunk(|_| {}).unwrap(), "the error exhausts the range");
        }
    }

    fn lines(data: &[u8], splits: &[(u64, u64)]) -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        for &(s, e) in splits {
            all.extend(split_records(aligned_slice(data, s, e)));
        }
        all
    }

    #[test]
    fn single_split_covers_everything() {
        let data = b"a\nbb\nccc\n";
        assert_eq!(aligned_range(data, 0, data.len() as u64), (0, data.len()));
    }

    #[test]
    fn straddling_record_belongs_to_left_split() {
        // Records: "aaaa"(0..5), "bbbb"(5..10), "cc"(10..13)
        let data = b"aaaa\nbbbb\ncc\n";
        // Split cuts mid-"bbbb": left split owns it.
        let left = aligned_slice(data, 0, 7);
        let right = aligned_slice(data, 7, data.len() as u64);
        assert_eq!(left, b"aaaa\nbbbb\n");
        assert_eq!(right, b"cc\n");
    }

    #[test]
    fn record_starting_exactly_at_split_start_belongs_to_previous() {
        let data = b"aaaa\nbbbb\ncc\n";
        // "bbbb" starts at offset 5; split boundary at 5 → previous owns it.
        let left = aligned_slice(data, 0, 5);
        let right = aligned_slice(data, 5, data.len() as u64);
        assert_eq!(left, b"aaaa\nbbbb\n");
        assert_eq!(right, b"cc\n");
    }

    #[test]
    fn empty_middle_split_is_fine() {
        let data = b"a-very-long-single-record-with-no-newline";
        let splits = plan_splits(data.len() as u64, 10);
        let all = lines(data, &splits);
        assert_eq!(all, vec![data.to_vec()]);
    }

    #[test]
    fn no_trailing_newline_last_record_owned_once() {
        let data = b"one\ntwo\nthree";
        for chunk in 1..=(data.len() as u64 + 3) {
            let splits = plan_splits(data.len() as u64, chunk);
            let all = lines(data, &splits);
            assert_eq!(
                all,
                vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()],
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn plan_splits_covers_exactly() {
        assert_eq!(plan_splits(0, 10), Vec::<(u64, u64)>::new());
        assert_eq!(plan_splits(25, 10), vec![(0, 10), (10, 20), (20, 25)]);
        assert_eq!(plan_splits(10, 10), vec![(0, 10)]);
        let splits = plan_splits(1_000_003, 4096);
        assert_eq!(splits.first().unwrap().0, 0);
        assert_eq!(splits.last().unwrap().1, 1_000_003);
        for w in splits.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
