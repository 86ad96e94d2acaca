//! A small integer hasher for the emulator's hot maps.
//!
//! The functional passes look up a page, a cache line or a block leader
//! on every retired memory access or taken branch. The standard library's
//! SipHash resists keys crafted to collide; on this path it costs more
//! than the emulation itself. These keys are page indices, line numbers
//! and PCs of the simulated program, so a program whose addresses collide
//! can only slow its own run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by small integers, hashed with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd 64-bit multiplier (2^64 / φ).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply integer hasher: the key times an odd constant as a
/// 128-bit product, whose two halves are XORed together. The high half
/// depends on every key bit, so every output bit does too — the bucket
/// index the table takes from the low bits as well as the tag it takes
/// from the top bits. Keys that differ only in high bits (page-aligned
/// addresses, line numbers) therefore still spread over the buckets.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = ((self.0 ^ n) as u128).wrapping_mul(MUL as u128);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u32) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn every_key_bit_reaches_the_low_and_high_bits() {
        // Flipping any one key bit almost always changes both the low
        // ten bits (bucket index) and the top seven bits (tag).
        let keys: Vec<u32> = (0..512u32).map(|i| i.wrapping_mul(0x0101_0F13) ^ (i << 12)).collect();
        for bit in 0..32 {
            let (mut low, mut top) = (0, 0);
            for &key in &keys {
                let (a, b) = (hash(key), hash(key ^ (1 << bit)));
                low += usize::from(a & 1023 != b & 1023);
                top += usize::from(a >> 57 != b >> 57);
            }
            assert!(low * 100 > keys.len() * 95, "bit {bit}: low bits changed {low}/512");
            assert!(top * 100 > keys.len() * 95, "bit {bit}: top bits changed {top}/512");
        }
    }

    #[test]
    fn strided_keys_spread_over_buckets() {
        // Page-aligned addresses and large power-of-two strides share
        // all their low bits; their bucket indices must not.
        for stride in [1u32, 64, 4096, 1 << 20] {
            let mut buckets: Vec<u64> = (0..1024u32).map(|i| hash(i * stride) & 1023).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(buckets.len() > 600, "stride {stride}: {} of 1024 buckets", buckets.len());
        }
    }
}
