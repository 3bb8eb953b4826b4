//! Content fingerprints over IR values.
//!
//! The analysis session (`ipcp-core`) keys cached artifacts by *what the
//! phase actually read*: a procedure's own IR, the IR of its transitive
//! callees, and the handful of configuration facets the phase consults.
//! The IR side of those keys is a 64-bit FNV-1a hash of the value's
//! canonical [`Wire`] encoding ([`crate::codec`]), streamed straight into
//! the hasher ([`Fnv1a`] is a [`WireSink`]) without materializing the
//! bytes. Cache keys and disk payloads therefore share one definition of
//! identity: two values fingerprint alike exactly when their encodings
//! hash alike, and the encoding round-trips every field of the value.
//!
//! These fingerprints are *cache keys*, not cryptographic digests: a
//! collision costs a stale artifact. With `n` live keys the chance of
//! any collision is about `n² / 2⁶⁵` (the birthday bound). A store for a
//! 100k-procedure program holds on the order of 10⁶ per-procedure keys
//! across a configuration sweep, which puts that chance near 3·10⁻⁸ —
//! acceptable for a cache, and the reason widening to 128 bits is left
//! for stores another few orders of magnitude larger.

use crate::codec::{Wire, WireSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher, usable as a [`WireSink`].
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian), e.g. another fingerprint.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The digest accumulated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl WireSink for Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }
}

/// Fingerprints a value by streaming its [`Wire`] encoding through
/// FNV-1a, without materializing the bytes.
pub fn fingerprint<T: Wire>(value: &T) -> u64 {
    let mut hasher = Fnv1a::new();
    value.encode(&mut hasher);
    hasher.finish()
}

/// Folds already-computed fingerprints (order-sensitive) into one.
pub fn combine(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut hasher = Fnv1a::new();
    for part in parts {
        hasher.write_u64(part);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        let s = |x: &str| x.to_string();
        assert_eq!(fingerprint(&s("abc")), fingerprint(&s("abc")));
        assert_ne!(fingerprint(&s("abc")), fingerprint(&s("abd")));
        assert_ne!(fingerprint(&1u32), fingerprint(&2u32));
    }

    #[test]
    fn streaming_matches_encoded_hash() {
        let value = vec![1u64, 2, 3];
        let mut h = Fnv1a::new();
        h.write_bytes(&crate::codec::encode_to_vec(&value));
        assert_eq!(fingerprint(&value), h.finish());
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_eq!(combine([1, 2, 3]), combine([1, 2, 3]));
        assert_ne!(combine([1, 2, 3]), combine([3, 2, 1]));
        assert_ne!(combine([]), combine([0]));
    }

    #[test]
    fn program_fingerprints_track_edits() {
        let a = crate::compile_to_ir("main\nx = 1\nprint(x)\nend\n").unwrap();
        let b = crate::compile_to_ir("main\nx = 2\nprint(x)\nend\n").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
