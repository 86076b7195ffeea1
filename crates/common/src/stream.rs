//! Chunked byte streams — the unit of data flow across the workspace.
//!
//! Object GET/PUT bodies, storlet input/output and compute-side ingestion all
//! move data as a stream of [`bytes::Bytes`] chunks so that a pushdown filter
//! can transform a multi-gigabyte object without materializing it, exactly as
//! the Storlets framework streams request bodies through `invoke()`.

use crate::error::Result;
use bytes::Bytes;

/// A boxed, fallible, sendable stream of byte chunks.
pub type ByteStream = Box<dyn Iterator<Item = Result<Bytes>> + Send>;

/// Default chunk size for streams fabricated from contiguous buffers.
/// 64 KiB mirrors Swift's default disk chunk size.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// Create an empty stream.
pub fn empty() -> ByteStream {
    Box::new(std::iter::empty())
}

/// Create a single-chunk stream from one buffer.
pub fn once(data: Bytes) -> ByteStream {
    if data.is_empty() {
        empty()
    } else {
        Box::new(std::iter::once(Ok(data)))
    }
}

/// Create a stream that yields `data` in chunks of `chunk_size` bytes.
pub fn chunked(data: Bytes, chunk_size: usize) -> ByteStream {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut offset = 0usize;
    Box::new(std::iter::from_fn(move || {
        if offset >= data.len() {
            return None;
        }
        let end = (offset + chunk_size).min(data.len());
        let chunk = data.slice(offset..end);
        offset = end;
        Some(Ok(chunk))
    }))
}

/// Create a stream yielding the given chunks in order.
pub fn from_chunks(chunks: Vec<Bytes>) -> ByteStream {
    Box::new(chunks.into_iter().filter(|c| !c.is_empty()).map(Ok))
}

/// Create a stream that immediately fails with `err`.
pub fn error(err: crate::ScoopError) -> ByteStream {
    Box::new(std::iter::once(Err(err)))
}

/// Drain a stream into one contiguous buffer.
pub fn collect(stream: ByteStream) -> Result<Bytes> {
    collect_sized(stream, 0)
}

/// Largest allocation [`collect_sized`] makes on the strength of a hint
/// alone; past it the buffer grows with the bytes that actually arrive.
const MAX_COLLECT_RESERVE: usize = 64 * 1024 * 1024;

/// [`collect`] for a caller that knows about how long the stream is (a
/// response's `content-length`): a one-chunk stream is returned as is, no
/// copy, and a longer one is gathered into a buffer reserved once from
/// `expected_len` instead of grown from empty. The hint is advisory — it
/// may come from a peer, so a wrong one costs at most a reallocation or
/// 64 MiB of address space, never correctness.
pub fn collect_sized(mut stream: ByteStream, expected_len: usize) -> Result<Bytes> {
    let Some(first) = stream.next().transpose()? else { return Ok(Bytes::new()) };
    let Some(second) = stream.next().transpose()? else { return Ok(first) };
    let mut out: Vec<u8> = Vec::with_capacity(
        expected_len.min(MAX_COLLECT_RESERVE).max(first.len().saturating_add(second.len())),
    );
    out.extend_from_slice(&first);
    out.extend_from_slice(&second);
    for chunk in stream {
        out.extend_from_slice(&chunk?);
    }
    Ok(Bytes::from(out))
}

/// The first `limit` bytes of a stream (all of it, if it ends first): the
/// chunk that reaches `limit` is cut there, and nothing past it is pulled.
pub fn take(mut inner: ByteStream, limit: u64) -> ByteStream {
    let mut left = limit;
    Box::new(std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let item = inner.next()?.map(|chunk| {
            let chunk = match usize::try_from(left) {
                Ok(cut) if cut < chunk.len() => chunk.slice(..cut),
                _ => chunk,
            };
            left = left.saturating_sub(chunk.len() as u64);
            chunk
        });
        if item.is_err() {
            left = 0;
        }
        Some(item)
    }))
}

/// Wrap a stream so that ending before `expected` bytes have been delivered
/// becomes a retryable I/O error instead of a silent truncation.
///
/// Object servers report `content-length` before streaming the body; a
/// backend fault (or an injected chaos fault) can still cut the stream short.
/// Consumers that stop pulling early never trigger the check — it fires only
/// when the producer claims a natural end too soon. Excess bytes beyond
/// `expected` fail too, as soon as they appear.
pub fn enforce_length(inner: ByteStream, expected: u64) -> ByteStream {
    let mut seen = 0u64;
    let mut finished = false;
    let mut inner = inner;
    Box::new(std::iter::from_fn(move || {
        if finished {
            return None;
        }
        match inner.next() {
            Some(Ok(chunk)) => {
                seen += chunk.len() as u64;
                if seen > expected {
                    finished = true;
                    return Some(Err(crate::ScoopError::Io(std::io::Error::other(
                        format!("stream overran declared length: {seen} > {expected} bytes"),
                    ))));
                }
                Some(Ok(chunk))
            }
            Some(Err(e)) => {
                finished = true;
                Some(Err(e))
            }
            None if seen < expected => {
                finished = true;
                Some(Err(crate::ScoopError::Io(std::io::Error::other(format!(
                    "truncated stream: got {seen} of {expected} bytes"
                )))))
            }
            None => {
                finished = true;
                None
            }
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoopError;

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn chunked_roundtrip_preserves_bytes() {
        let data = payload(200_001);
        for chunk in [1usize, 7, 4096, DEFAULT_CHUNK, 1_000_000] {
            let s = chunked(data.clone(), chunk);
            assert_eq!(collect(s).unwrap(), data, "chunk={chunk}");
        }
    }

    #[test]
    fn empty_and_once() {
        assert_eq!(collect(empty()).unwrap().len(), 0);
        assert_eq!(collect(once(Bytes::new())).unwrap().len(), 0);
        assert_eq!(collect(once(Bytes::from_static(b"xyz"))).unwrap(), "xyz");
    }

    #[test]
    fn from_chunks_skips_empties() {
        let s = from_chunks(vec![
            Bytes::from_static(b"ab"),
            Bytes::new(),
            Bytes::from_static(b"cd"),
        ]);
        assert_eq!(collect(s).unwrap(), "abcd");
    }

    #[test]
    fn enforce_length_passes_exact_streams() {
        let data = payload(10_000);
        let s = enforce_length(chunked(data.clone(), 777), 10_000);
        assert_eq!(collect(s).unwrap(), data);
    }

    #[test]
    fn enforce_length_flags_truncation_as_retryable() {
        let s = enforce_length(chunked(payload(100), 30), 150);
        let err = collect(s).unwrap_err();
        assert!(err.is_retryable());
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn enforce_length_flags_overrun() {
        let s = enforce_length(chunked(payload(100), 30), 50);
        assert!(collect(s).unwrap_err().to_string().contains("overran"));
    }

    #[test]
    fn enforce_length_ignores_early_stop() {
        // A consumer that stops pulling must not see a truncation error.
        let mut s = enforce_length(chunked(payload(100), 10), 100);
        assert!(s.next().unwrap().is_ok());
        drop(s);
    }

    #[test]
    fn take_cuts_at_the_limit_and_pulls_no_further() {
        let pulled = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = pulled.clone();
        let counted = Box::new(chunked(payload(10), 4).inspect(move |_| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        assert_eq!(collect(take(counted, 6)).unwrap(), payload(10).slice(..6));
        assert_eq!(pulled.load(std::sync::atomic::Ordering::Relaxed), 2, "a third chunk was pulled");
        assert_eq!(collect(take(chunked(payload(10), 4), 50)).unwrap(), payload(10));
        assert!(collect(take(empty(), 0)).unwrap().is_empty());
    }

    #[test]
    fn error_stream_propagates() {
        let s = error(ScoopError::NotFound("gone".into()));
        assert!(collect(s).is_err());
    }
}
