//! Content fingerprints over IR values.
//!
//! The analysis session (`ipcp-core`) keys cached artifacts by *what the
//! phase actually read*: a procedure's own IR, the summaries of its
//! callees, and the handful of configuration facets the phase consults.
//! The IR side of those keys is a 128-bit word-wise hash of the value's
//! canonical [`Wire`] encoding ([`crate::codec`]), streamed straight into
//! the hasher ([`Fp128`] is a [`WireSink`]) without materializing the
//! bytes. Each primitive the encoder emits — a tag byte, a `u32`, a
//! `u64`, a length-prefixed byte run — is absorbed as whole words, one
//! multiply per word instead of one per byte. The encoding is
//! type-directed and decodable, so two values of one type emit the same
//! word sequence exactly when their encodings are equal: cache keys and
//! disk payloads share one definition of identity.
//!
//! These fingerprints are *cache keys*, not cryptographic digests: a
//! collision costs a stale artifact. With `n` live keys the chance of
//! any collision is about `n² / 2¹²⁹` (the birthday bound). A store for a
//! 100k-procedure program holds on the order of 10⁶ per-procedure keys
//! across a configuration sweep, which puts that chance near 1.5·10⁻²⁷.
//!
//! [`Fnv1a`] stays for the few 64-bit identities that name files (entry
//! keys, label hashes, the toolchain stamp), where inputs are short.

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

/// PCG's 128-bit LCG multiplier: odd, with dense high and low halves,
/// so one multiply carries every bit of a word into the upper state.
const MIX: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;
/// The offset basis: FNV-1a's 128-bit one.
const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// A 128-bit word-wise hasher, usable as a [`WireSink`].
///
/// Each absorbed word is xored into the state, which is multiplied by a
/// dense odd 128-bit constant and then folded (high half xored into the
/// low half), because a multiply alone only carries bits upward. Every
/// step is a bijection of the state, so a change confined to one word
/// always changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Fp128(u128);

impl Default for Fp128 {
    fn default() -> Self {
        Fp128(OFFSET)
    }
}

impl Fp128 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let h = (self.0 ^ u128::from(w)).wrapping_mul(MIX);
        self.0 = h ^ (h >> 64);
    }

    /// Absorbs a 128-bit value, e.g. another fingerprint.
    #[inline]
    pub fn write(&mut self, v: u128) {
        self.word(v as u64);
        self.word((v >> 64) as u64);
    }

    /// The digest accumulated so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl WireSink for Fp128 {
    /// A byte run as its length and then its 8-byte words, the tail
    /// zero-padded (the length keeps the padding unambiguous).
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        if !words.remainder().is_empty() {
            let mut tail = [0u8; 8];
            tail[..words.remainder().len()].copy_from_slice(words.remainder());
            self.word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.word(v);
    }
}

/// Fingerprints a value by streaming its [`Wire`] encoding through
/// [`Fp128`], without materializing the bytes.
pub fn fingerprint<T: Wire>(value: &T) -> u128 {
    let mut hasher = Fp128::new();
    value.encode(&mut hasher);
    hasher.finish()
}

/// Folds already-computed fingerprints (order-sensitive) into one.
pub fn combine(parts: impl IntoIterator<Item = u128>) -> u128 {
    let mut hasher = Fp128::new();
    let mut n = 0u64;
    for part in parts {
        hasher.write(part);
        n += 1;
    }
    hasher.word(n);
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
        assert_ne!(fingerprint(&s("abcdefgh")), fingerprint(&s("abcdefgh\0")));
        assert_ne!(fingerprint(&1u32), fingerprint(&2u32));
    }

    #[test]
    fn every_bit_of_a_word_reaches_both_halves() {
        let base = fingerprint(&0u64);
        for bit in 0..64 {
            let moved = fingerprint(&(1u64 << bit)) ^ base;
            assert_ne!(moved as u64, 0, "bit {bit}: low half untouched");
            assert_ne!((moved >> 64) as u64, 0, "bit {bit}: high half untouched");
        }
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
