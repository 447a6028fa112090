//! A fixed, fast hasher for the in-process lookup tables on the decision
//! hot path.
//!
//! The keys these tables hold are trusted, already well-mixed values —
//! FNV-1a fingerprints, configuration fields, phase-scale bit patterns,
//! kernel names from the workload suite — so they need neither SipHash's
//! cost nor its per-process random keys. A fixed hasher also makes each
//! table's layout the same in every process, so lookup cost does not
//! change from one run of a program to the next.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xorshift hashing, one 64-bit word at a time. Not for keys an
/// adversary chooses: there is no DoS protection.
#[derive(Debug, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        // The length in the top byte keeps "ab" and "ab\0" apart.
        self.write_u64(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci-constant multiply with an xorshift to spread low bits.
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

/// A `HashMap` hashed with [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_across_maps_and_processes() {
        assert_eq!(hash("Sort.BottomScan"), hash("Sort.BottomScan"));
        assert_eq!(hash(&(1u64, 2u64, 3u64)), hash(&(1u64, 2u64, 3u64)));
        // Pinned: a change here changes every table's layout.
        assert_eq!(hash(&7u64), 0x5384_5410_e72b_c400);
    }

    #[test]
    fn short_strings_and_trailing_zeros_differ() {
        assert_ne!(hash(&[1u8, 2][..]), hash(&[1u8, 2, 0][..]));
        assert_ne!(hash("ab"), hash("ba"));
        assert_ne!(hash("kernel.a"), hash("kernel.b"));
    }

    #[test]
    fn a_key_map_finds_what_it_stores() {
        let mut m: KeyMap<String, usize> = KeyMap::default();
        for i in 0..1000 {
            m.insert(format!("k{i}"), i);
        }
        assert!((0..1000).all(|i| m[&format!("k{i}")] == i));
    }
}
