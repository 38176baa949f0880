//! A fast, deterministic hasher for maps keyed by a node's own values.
//!
//! The rule: keys this node mints use Fx; keys a peer chooses keep
//! SipHash (`RandomState`), whose keyed hash is what stops crafted
//! collisions. Fx is the multiply-rotate word hash of rustc's
//! `FxHasher`. Nobody can aim collisions at keys they did not choose, so
//! there SipHash would cost every lookup and buy nothing. A client counts
//! the inode numbers its server assigned as its own: that server is the
//! authority it already trusts.
//!
//! Fx maps:
//! - the client's: ids it allocates (`OpId`, `ReqSeq`, SAN and flush
//!   ids), inodes its server assigned, and its local processes' paths;
//! - the world's: the addresses of message-kind labels;
//! - the metadata store's: the inode table (`InodeTable`) and the
//!   namespace's map of directories (`Namespace`), both keyed by inode
//!   numbers the server mints. A `RenameLink`'s inode number is the
//!   peer's, so it is only ever a directory entry's value, never a key;
//! - the server's session table (`SessionTable`), keyed by the `NodeId`
//!   the host or world assigns.
//!
//! `RandomState` maps: the host's address book (socket addresses), the
//! session table's Hello replies (client seqs) and each directory's
//! entries (client-chosen names).

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
