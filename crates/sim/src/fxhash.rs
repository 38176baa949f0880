//! A fast, deterministic hasher for maps keyed by a node's own values.
//!
//! The client hashes only its own keys: ids it allocates (`OpId`,
//! `ReqSeq`, SAN and flush ids), inodes its server assigned, and its local
//! processes' paths; the world hashes the addresses of message-kind labels.
//! No remote party chooses them, so SipHash's protection against crafted
//! collisions buys nothing here, while a cached op pays for it on every
//! lookup. This is the multiply-rotate word hash of rustc's `FxHasher`.
//! Server maps keep `RandomState`: their keys come off the network.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by values no remote party chose.
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` of values no remote party chose.
pub type HashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// One 64-bit word of state, folded with each word written.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
