//! A deterministic hasher for integer keys.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a random per-process key:
//! resistant to chosen-key flooding, and several times the cost of the
//! probe itself on a `u32` or `(u32, u16)` key. The offline pipeline's
//! tables are keyed by addresses and ports the simulation generated, so
//! they use [`IntHasher`] instead: one folded multiply per written word,
//! then a 64-bit avalanche in `finish`, so the low bits that pick a bucket
//! and the top bits a SwissTable compares both depend on every input bit.
//!
//! Never key an [`IntMap`] or [`IntSet`] by bytes that arrive off the wire:
//! the hasher has no secret, so an adversary can pick colliding keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`].
pub type IntSet<T> = HashSet<T, BuildHasherDefault<IntHasher>>;

/// Multiply-fold word hasher with a final avalanche. Deterministic: equal
/// keys hash equal in every process.
#[derive(Debug, Clone, Copy)]
pub struct IntHasher(u64);

/// Initial state (the fractional digits of π).
const SEED: u64 = 0x243F_6A88_85A3_08D3;
/// Odd multiplier (the golden ratio in 64-bit fixed point).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for IntHasher {
    fn default() -> Self {
        IntHasher(SEED)
    }
}

impl IntHasher {
    /// Fold one word in: the full 128-bit product of `state ^ word` and
    /// the multiplier, high half xor low half.
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    // The words the keys in use are made of (addresses, ports); any other
    // width goes through `write`.
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    /// MurmurHash3's `fmix64`.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_value_is_pinned() {
        assert_eq!(hash(&(7u32, 80u16)), hash(&(7u32, 80u16)));
        assert_ne!(hash(&(7u32, 80u16)), hash(&(7u32, 81u16)));
        assert_ne!(hash(&(7u32, 80u16)), hash(&(80u32, 7u16)));
        // No per-process key: the same input hashes the same forever.
        assert_eq!(hash(&0x0A00_0001u32), 0x28E4_AB86_5104_C00B);
    }

    #[test]
    fn consecutive_addresses_spread_over_low_and_high_bits() {
        // One /16 of addresses: the bucket index (low bits) and the control
        // byte (top 7 bits) must both look uniform.
        let n = 1u32 << 16;
        let mut low = vec![0u32; 1 << 12];
        let mut top = [0u32; 128];
        for ip in 0x0A0B_0000..0x0A0B_0000 + n {
            let h = hash(&ip);
            low[(h & 0xFFF) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        // 16 expected per low bucket, 512 per top bucket.
        assert!(low.iter().all(|&c| (1..=48).contains(&c)), "low bits clump");
        assert!(
            top.iter().all(|&c| (384..=640).contains(&c)),
            "top bits clump"
        );
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = IntHasher::default();
        a.write(b"0123456789");
        let mut b = IntHasher::default();
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_work_as_std_ones() {
        let mut map: IntMap<u32, u64> = IntMap::default();
        let mut set: IntSet<(u32, u16)> = IntSet::default();
        for ip in 0..10_000u32 {
            *map.entry(ip % 97).or_default() += 1;
            set.insert((ip, (ip % 7) as u16));
        }
        assert_eq!(map.len(), 97);
        assert_eq!(map.values().sum::<u64>(), 10_000);
        assert_eq!(set.len(), 10_000);
        assert!(set.contains(&(42, 0)));
    }
}
