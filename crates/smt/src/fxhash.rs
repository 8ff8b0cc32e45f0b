//! The solver's map hasher: the rotate-multiply word hash of Firefox and
//! rustc ("Fx"). Solver maps are keyed by dense ids and small tuples of
//! them, which SipHash spends most of a lookup on; this hash is one rotate,
//! xor and multiply per word and needs no random seed.
//!
//! It is deterministic: a key hashes to the same value in every run and on
//! every platform (words are read little-endian, `usize` and 128-bit values
//! are hashed as `u64` words). No solver result depends on iteration order,
//! though; where order matters, the solver sorts or walks a `Vec`.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the Fx hasher. Build it with `HashMap::default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher. Build it with `HashSet::default()`.
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn fx<T: std::hash::Hash>(t: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    /// The hash of a key is fixed: the same values on every run, build and
    /// platform (signed and 128-bit integers, tuples, slices and strings).
    /// The constants were computed by hand from the word formula, with
    /// each key's words as `Hash` feeds them.
    #[test]
    fn hashes_are_pinned() {
        assert_eq!(fx(0u32), 0);
        assert_eq!(fx(1u32), SEED);
        assert_eq!(fx(7usize), fx(7u64));
        assert_eq!(fx((3u32, 7u32)), 0x9060_7537_13d1_0ded);
        assert_eq!(fx(-5i128), 0xe32a_a3dd_9ea0_1f7a);
        assert_eq!(fx([(2i128, 9u32)].as_slice()), 0xe320_6587_bffe_b4ec);
        assert_eq!(fx("memory_ops"), 0x64c2_a92e_1bf0_0e54);
    }
}
