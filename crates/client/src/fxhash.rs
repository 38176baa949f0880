//! A fast, deterministic hasher for the client's own maps.
//!
//! Every key the client hashes is its own: ids it allocates (`OpId`,
//! `ReqSeq`, SAN and flush ids), inodes its server assigned, and its local
//! processes' paths. No remote party chooses them, so SipHash's protection
//! against crafted collisions buys nothing here, while a cached op pays
//! for it on every lookup. This is the multiply-rotate word hash of
//! rustc's `FxHasher`. Server maps keep `RandomState`: their keys come
//! off the network.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by client-internal values.
pub(crate) type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` of client-internal values.
pub(crate) type HashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// One 64-bit word of state, folded with each word written.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

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
