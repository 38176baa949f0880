//! Inode table: attributes and block maps.

use tank_proto::{fxhash, BlockId, Ino};

/// One file or directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// True for directories.
    pub is_dir: bool,
    /// Logical size in bytes (data files only; directories report 0).
    pub size: u64,
    /// Last metadata mutation time (server-local ns; metadata is only
    /// weakly consistent per §3 footnote 1, so this is informational).
    pub mtime: u64,
    /// Metadata version, bumped on every mutation.
    pub version: u64,
    /// Shared-disk blocks backing the file, in logical order.
    pub blocks: Vec<BlockId>,
    /// Link count (files are unlinked when it reaches zero).
    pub nlink: u32,
}

impl Inode {
    fn new(ino: Ino, is_dir: bool) -> Self {
        Inode {
            ino,
            is_dir,
            size: 0,
            mtime: 0,
            version: 1,
            blocks: Vec::new(),
            nlink: 1,
        }
    }
}

/// Allocation and storage of inodes.
#[derive(Debug, Clone, Default)]
pub struct InodeTable {
    pub(crate) next: u64,
    /// Keyed by numbers this table minted, so hashed with Fx.
    pub(crate) map: fxhash::HashMap<Ino, Inode>,
}

impl InodeTable {
    /// Empty table; inode numbers start at 1 (0 is never valid).
    pub fn new() -> Self {
        InodeTable {
            next: 1,
            map: fxhash::HashMap::default(),
        }
    }

    /// Allocate a fresh inode.
    pub fn create(&mut self, is_dir: bool) -> Ino {
        self.create_where(is_dir, |_| true)
    }

    /// Allocate a fresh inode whose number satisfies `owned` — the hook a
    /// metadata shard uses so every inode it mints is one it governs
    /// (other numbers belong to other shards). Scans forward from the
    /// cursor; with rendezvous placement the expected scan length is the
    /// shard count.
    pub fn create_where(&mut self, is_dir: bool, owned: impl Fn(Ino) -> bool) -> Ino {
        loop {
            let ino = Ino(self.next);
            self.next += 1;
            if owned(ino) {
                self.map.insert(ino, Inode::new(ino, is_dir));
                return ino;
            }
        }
    }

    /// Install an inode at an explicit number (shard namespace roots live
    /// at reserved numbers fixed by the shard map). Panics if the number
    /// is taken; advances the cursor past it.
    pub fn create_at(&mut self, ino: Ino, is_dir: bool) {
        let prev = self.map.insert(ino, Inode::new(ino, is_dir));
        assert!(prev.is_none(), "inode {ino} created twice");
        self.next = self.next.max(ino.0 + 1);
    }

    /// Look up an inode.
    pub fn get(&self, ino: Ino) -> Option<&Inode> {
        self.map.get(&ino)
    }

    /// Mutable lookup; bumps the version on access so every mutation is
    /// externally visible. Callers must actually mutate (the server only
    /// takes this path on writes).
    pub fn get_mut(&mut self, ino: Ino) -> Option<&mut Inode> {
        let inode = self.map.get_mut(&ino)?;
        inode.version += 1;
        Some(inode)
    }

    /// Remove an inode, returning its block list for deallocation.
    pub fn remove(&mut self, ino: Ino) -> Option<Vec<BlockId>> {
        self.map.remove(&ino).map(|i| i.blocks)
    }

    /// Number of live inodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no inodes exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_assigns_unique_increasing_inos() {
        let mut t = InodeTable::new();
        let a = t.create(false);
        let b = t.create(true);
        assert_ne!(a, b);
        assert!(a.0 >= 1, "ino 0 is reserved");
        assert!(t.get(a).is_some());
        assert!(t.get(b).unwrap().is_dir);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mutation_bumps_version() {
        let mut t = InodeTable::new();
        let a = t.create(false);
        let v0 = t.get(a).unwrap().version;
        t.get_mut(a).unwrap().size = 100;
        assert!(t.get(a).unwrap().version > v0);
    }

    #[test]
    fn create_where_skips_foreign_numbers() {
        let mut t = InodeTable::new();
        // Pretend this shard owns only even inos.
        let a = t.create_where(false, |i| i.0 % 2 == 0);
        let b = t.create_where(false, |i| i.0 % 2 == 0);
        assert_eq!(a, Ino(2));
        assert_eq!(b, Ino(4));
    }

    #[test]
    fn create_at_reserves_and_advances_cursor() {
        let mut t = InodeTable::new();
        t.create_at(Ino(3), true);
        assert!(t.get(Ino(3)).unwrap().is_dir);
        let next = t.create(false);
        assert_eq!(next, Ino(4), "cursor moved past the reserved number");
    }

    #[test]
    fn remove_returns_blocks() {
        let mut t = InodeTable::new();
        let a = t.create(false);
        t.get_mut(a).unwrap().blocks = vec![BlockId(5), BlockId(9)];
        assert_eq!(t.remove(a), Some(vec![BlockId(5), BlockId(9)]));
        assert!(t.get(a).is_none());
        assert_eq!(t.remove(a), None);
    }
}
