//! The metadata store façade used by the server actor.

use tank_proto::message::{FileAttr, FsError};
use tank_proto::{BlockId, Ino, ServerId};
use tank_shard::ShardMap;

use crate::alloc::BlockAllocator;
use crate::inode::InodeTable;
use crate::namespace::{Namespace, NsError};

/// Metadata operation errors; both servers put them on the wire as the
/// [`FsError`] this converts into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaError {
    /// No such file/directory.
    NotFound,
    /// Name exists.
    Exists,
    /// Not a directory / directory misuse / non-empty directory.
    Invalid,
    /// Shared store out of blocks.
    NoSpace,
}

impl From<MetaError> for FsError {
    fn from(e: MetaError) -> Self {
        match e {
            MetaError::NotFound => FsError::NotFound,
            MetaError::Exists => FsError::Exists,
            MetaError::Invalid => FsError::Invalid,
            MetaError::NoSpace => FsError::NoSpace,
        }
    }
}

impl From<NsError> for MetaError {
    fn from(e: NsError) -> Self {
        match e {
            NsError::NotFound => MetaError::NotFound,
            NsError::Exists => MetaError::Exists,
            NsError::NotADir | NsError::NotEmpty => MetaError::Invalid,
        }
    }
}

/// Inodes + namespace + allocator behind one transactional interface.
/// Each public method is one metadata transaction (the unit the paper's
/// "transactions per second" server performance is measured in).
#[derive(Debug, Clone)]
pub struct MetaStore {
    pub(crate) inodes: InodeTable,
    pub(crate) ns: Namespace,
    pub(crate) alloc: BlockAllocator,
    pub(crate) block_size: usize,
    /// Shard layout and this store's slot in it. A single-server store is
    /// the degenerate one-shard map, so every store is "sharded".
    pub(crate) map: ShardMap,
    pub(crate) sid: ServerId,
    /// Count of executed metadata transactions (experiment E9).
    pub(crate) transactions: u64,
}

impl MetaStore {
    /// Fresh store over a pool of `total_blocks` shared blocks.
    pub fn new(total_blocks: u64, block_size: usize) -> Self {
        MetaStore::new_sharded(ShardMap::single(), ServerId(0), total_blocks, block_size)
    }

    /// Fresh store for shard `sid` of `map`, over a SAN device of
    /// `total_blocks` blocks shared by all shards. The store owns the
    /// namespace root `map.root_of(sid)`, mints only inode numbers the
    /// map assigns to `sid`, and allocates only from its private block
    /// slice of the device.
    pub fn new_sharded(map: ShardMap, sid: ServerId, total_blocks: u64, block_size: usize) -> Self {
        let mut inodes = InodeTable::new();
        let root = map.root_of(sid);
        inodes.create_at(root, true);
        // `block_range` answers `ALL` for a one-shard map; the pool is
        // still bounded by the device.
        let range = map.block_range(sid, total_blocks);
        let (base, count) = (range.start, range.end.min(total_blocks) - range.start);
        MetaStore {
            ns: Namespace::new(root),
            inodes,
            alloc: BlockAllocator::with_base(base, count),
            block_size,
            map,
            sid,
            transactions: 0,
        }
    }

    /// The root directory inode.
    pub fn root(&self) -> Ino {
        self.ns.root()
    }

    /// Block size the store was configured with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Executed transaction count (E9's unit of server performance).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Mint an inode number this shard governs (never a reserved root,
    /// never a number the map assigns to a different shard).
    fn mint(&mut self, is_dir: bool) -> Ino {
        let (map, sid) = (self.map, self.sid);
        self.inodes
            .create_where(is_dir, |i| !map.is_root(i) && map.owner_of(i) == sid)
    }

    /// Create a file under `parent`.
    pub fn create(&mut self, parent: Ino, name: &str, now: u64) -> Result<Ino, MetaError> {
        self.transactions += 1;
        if !self.ns.is_dir(parent) {
            return Err(MetaError::Invalid);
        }
        if self.ns.lookup(parent, name).is_ok() {
            return Err(MetaError::Exists);
        }
        let ino = self.mint(false);
        self.inodes.get_mut(ino).unwrap().mtime = now;
        self.ns.link(parent, name, ino, false)?;
        Ok(ino)
    }

    /// Create a directory under `parent`.
    pub fn mkdir(&mut self, parent: Ino, name: &str, now: u64) -> Result<Ino, MetaError> {
        self.transactions += 1;
        if !self.ns.is_dir(parent) {
            return Err(MetaError::Invalid);
        }
        if self.ns.lookup(parent, name).is_ok() {
            return Err(MetaError::Exists);
        }
        let ino = self.mint(true);
        self.inodes.get_mut(ino).unwrap().mtime = now;
        self.ns.link(parent, name, ino, true)?;
        Ok(ino)
    }

    /// Resolve a name.
    pub fn lookup(&mut self, parent: Ino, name: &str) -> Result<(Ino, FileAttr), MetaError> {
        self.transactions += 1;
        let ino = self.ns.lookup(parent, name)?;
        match self.attr_of(ino) {
            Ok(attr) => Ok((ino, attr)),
            // A cross-shard rename links a dentry on this shard to an
            // inode governed by its original shard. Serve the resolution
            // with a synthesized attr; the authoritative attributes come
            // from the owner shard via `GetAttr` on the returned ino.
            Err(MetaError::NotFound) => Ok((
                ino,
                FileAttr {
                    size: 0,
                    mtime: 0,
                    version: 0,
                    is_dir: false,
                },
            )),
            Err(e) => Err(e),
        }
    }

    /// Destination half of a rename: link `name → ino` into `dir`. Only
    /// the dentry is created — the inode may be governed by another shard
    /// and is not touched.
    pub fn rename_link(&mut self, dir: Ino, name: &str, ino: Ino) -> Result<(), MetaError> {
        self.transactions += 1;
        if !self.ns.is_dir(dir) {
            return Err(MetaError::Invalid);
        }
        if self.ns.lookup(dir, name).is_ok() {
            return Err(MetaError::Exists);
        }
        self.ns.link(dir, name, ino, false)?;
        Ok(())
    }

    /// Source half of a rename: remove the dentry `name` from `dir`
    /// without freeing the inode or its blocks — the file now lives under
    /// its new name, possibly on another shard.
    pub fn rename_unlink(&mut self, dir: Ino, name: &str) -> Result<Ino, MetaError> {
        self.transactions += 1;
        Ok(self.ns.unlink(dir, name)?)
    }

    /// Attributes of an inode.
    pub fn getattr(&mut self, ino: Ino) -> Result<FileAttr, MetaError> {
        self.transactions += 1;
        self.attr_of(ino)
    }

    /// Truncate (only shrinking frees blocks; growth happens through
    /// explicit allocation).
    pub fn setattr(
        &mut self,
        ino: Ino,
        size: Option<u64>,
        now: u64,
    ) -> Result<FileAttr, MetaError> {
        self.transactions += 1;
        let block_size = self.block_size as u64;
        let inode = self.inodes.get_mut(ino).ok_or(MetaError::NotFound)?;
        if let Some(new_size) = size {
            inode.size = new_size;
            let needed = new_size.div_ceil(block_size) as usize;
            while inode.blocks.len() > needed {
                let freed = inode.blocks.pop().unwrap();
                self.alloc.dealloc(freed);
            }
        }
        inode.mtime = now;
        let _ = inode;
        self.attr_of(ino)
    }

    /// List a directory.
    pub fn readdir(&mut self, dir: Ino) -> Result<Vec<(String, Ino)>, MetaError> {
        self.transactions += 1;
        Ok(self.ns.list(dir)?)
    }

    /// Unlink a file or empty directory, freeing its blocks.
    pub fn unlink(&mut self, parent: Ino, name: &str) -> Result<Ino, MetaError> {
        self.transactions += 1;
        let ino = self.ns.unlink(parent, name)?;
        if let Some(blocks) = self.inodes.remove(ino) {
            for b in blocks {
                self.alloc.dealloc(b);
            }
        }
        Ok(ino)
    }

    /// Allocate `count` more blocks to a file; returns the complete block
    /// map (what the client needs for direct SAN I/O).
    pub fn alloc_blocks(&mut self, ino: Ino, count: u32) -> Result<Vec<BlockId>, MetaError> {
        self.transactions += 1;
        if self.inodes.get(ino).is_none() {
            return Err(MetaError::NotFound);
        }
        let fresh = self.alloc.alloc(count).ok_or(MetaError::NoSpace)?;
        let inode = self.inodes.get_mut(ino).unwrap();
        inode.blocks.extend_from_slice(&fresh);
        Ok(inode.blocks.clone())
    }

    /// Commit a new file size after the client hardened data to the SAN.
    pub fn commit_write(&mut self, ino: Ino, new_size: u64, now: u64) -> Result<(), MetaError> {
        self.transactions += 1;
        let inode = self.inodes.get_mut(ino).ok_or(MetaError::NotFound)?;
        if new_size > inode.size {
            inode.size = new_size;
        }
        inode.mtime = now;
        Ok(())
    }

    /// Block map and size of a file (server-internal).
    pub fn file_extent(&self, ino: Ino) -> Result<(Vec<BlockId>, u64), MetaError> {
        let inode = self.inodes.get(ino).ok_or(MetaError::NotFound)?;
        Ok((inode.blocks.clone(), inode.size))
    }

    /// Free blocks remaining in the pool.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.free()
    }

    fn attr_of(&self, ino: Ino) -> Result<FileAttr, MetaError> {
        let inode = self.inodes.get(ino).ok_or(MetaError::NotFound)?;
        Ok(FileAttr {
            size: inode.size,
            mtime: inode.mtime,
            version: inode.version,
            is_dir: inode.is_dir,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MetaStore {
        MetaStore::new(1024, 4096)
    }

    #[test]
    fn create_lookup_getattr() {
        let mut s = store();
        let root = s.root();
        let f = s.create(root, "a.txt", 100).unwrap();
        let (ino, attr) = s.lookup(root, "a.txt").unwrap();
        assert_eq!(ino, f);
        assert_eq!(attr.size, 0);
        assert!(!attr.is_dir);
        assert_eq!(attr.mtime, 100);
        assert_eq!(s.create(root, "a.txt", 101), Err(MetaError::Exists));
    }

    #[test]
    fn mkdir_then_create_inside() {
        let mut s = store();
        let d = s.mkdir(s.root(), "dir", 1).unwrap();
        let f = s.create(d, "f", 2).unwrap();
        assert_eq!(s.lookup(d, "f").unwrap().0, f);
        let listing = s.readdir(s.root()).unwrap();
        assert_eq!(listing.len(), 1);
        assert!(s.getattr(d).unwrap().is_dir);
    }

    #[test]
    fn allocation_grows_the_block_map() {
        let mut s = store();
        let f = s.create(s.root(), "f", 0).unwrap();
        let m1 = s.alloc_blocks(f, 3).unwrap();
        assert_eq!(m1.len(), 3);
        let m2 = s.alloc_blocks(f, 2).unwrap();
        assert_eq!(m2.len(), 5);
        assert_eq!(&m2[..3], &m1[..], "existing map preserved");
        assert_eq!(s.free_blocks(), 1024 - 5);
    }

    #[test]
    fn commit_write_grows_size_monotonically() {
        let mut s = store();
        let f = s.create(s.root(), "f", 0).unwrap();
        s.commit_write(f, 5000, 10).unwrap();
        assert_eq!(s.getattr(f).unwrap().size, 5000);
        s.commit_write(f, 100, 11).unwrap();
        assert_eq!(s.getattr(f).unwrap().size, 5000, "commit never shrinks");
    }

    #[test]
    fn truncate_frees_blocks() {
        let mut s = store();
        let f = s.create(s.root(), "f", 0).unwrap();
        s.alloc_blocks(f, 4).unwrap();
        s.commit_write(f, 4 * 4096, 1).unwrap();
        s.setattr(f, Some(4096), 2).unwrap();
        let (blocks, size) = s.file_extent(f).unwrap();
        assert_eq!(size, 4096);
        assert_eq!(blocks.len(), 1);
        assert_eq!(s.free_blocks(), 1024 - 1);
    }

    #[test]
    fn unlink_frees_everything() {
        let mut s = store();
        let f = s.create(s.root(), "f", 0).unwrap();
        s.alloc_blocks(f, 8).unwrap();
        s.unlink(s.root(), "f").unwrap();
        assert_eq!(s.free_blocks(), 1024);
        assert_eq!(s.getattr(f), Err(MetaError::NotFound));
    }

    #[test]
    fn nospace_surfaces() {
        let mut s = MetaStore::new(4, 4096);
        let f = s.create(s.root(), "f", 0).unwrap();
        assert_eq!(s.alloc_blocks(f, 5), Err(MetaError::NoSpace));
        assert!(s.alloc_blocks(f, 4).is_ok());
    }

    #[test]
    fn transactions_are_counted() {
        let mut s = store();
        let before = s.transactions();
        let f = s.create(s.root(), "f", 0).unwrap();
        s.getattr(f).unwrap();
        s.readdir(s.root()).unwrap();
        assert_eq!(s.transactions(), before + 3);
    }

    #[test]
    fn sharded_store_mints_only_owned_inos() {
        let map = ShardMap::new(4);
        let sid = ServerId(2);
        let mut s = MetaStore::new_sharded(map, sid, 4096, 4096);
        assert_eq!(s.root(), map.root_of(sid));
        for i in 0..20 {
            let f = s.create(s.root(), &format!("f{i}"), 0).unwrap();
            assert_eq!(map.owner_of(f), sid, "minted foreign ino {f}");
            assert!(!map.is_root(f));
        }
    }

    #[test]
    fn sharded_store_allocates_only_its_block_slice() {
        let map = ShardMap::new(4);
        let sid = ServerId(1);
        let mut s = MetaStore::new_sharded(map, sid, 4096, 4096);
        let range = map.block_range(sid, 4096);
        let f = s.create(s.root(), "f", 0).unwrap();
        let blocks = s.alloc_blocks(f, 16).unwrap();
        assert!(blocks.iter().all(|b| range.contains(*b)));
        assert_eq!(s.free_blocks(), (range.end - range.start) - 16);
    }

    #[test]
    fn rename_halves_move_a_dentry_without_touching_blocks() {
        let mut s = store();
        let f = s.create(s.root(), "old", 0).unwrap();
        s.alloc_blocks(f, 2).unwrap();
        let free_before = s.free_blocks();
        s.rename_link(s.root(), "new", f).unwrap();
        assert_eq!(s.rename_unlink(s.root(), "old").unwrap(), f);
        assert_eq!(s.free_blocks(), free_before, "rename frees nothing");
        assert_eq!(s.lookup(s.root(), "new").unwrap().0, f);
        assert_eq!(s.lookup(s.root(), "old"), Err(MetaError::NotFound));
        assert_eq!(
            s.rename_link(s.root(), "new", f),
            Err(MetaError::Exists),
            "destination name collision is rejected"
        );
    }

    #[test]
    fn foreign_dentry_resolves_with_synthesized_attr() {
        // A dentry pointing at an inode this shard does not hold (the
        // cross-shard rename destination case).
        let mut s = store();
        s.rename_link(s.root(), "ghost", Ino(555)).unwrap();
        let (ino, attr) = s.lookup(s.root(), "ghost").unwrap();
        assert_eq!(ino, Ino(555));
        assert_eq!(attr.version, 0, "synthesized, not authoritative");
        // The dentry can be renamed away again without freeing anything.
        assert_eq!(s.rename_unlink(s.root(), "ghost").unwrap(), Ino(555));
    }

    #[test]
    fn peer_chosen_rename_inos_key_no_fx_map() {
        // `RenameLink` carries an inode number the peer chose. Multiples
        // of 2^32 share Fx's low hash bits, so were such a number a key of
        // an Fx map they would all fall into one probe chain. The link
        // keys only its name (SipHash) and stores the number as a value.
        let mut s = store();
        let (inodes, dirs) = (s.inodes.len(), s.ns.dirs.len());
        let sent: Vec<Ino> = (1..=2_000u64).map(|k| Ino(k << 32)).collect();
        for (k, ino) in sent.iter().enumerate() {
            s.rename_link(s.root(), &format!("r{k}"), *ino).unwrap();
        }
        assert_eq!(s.inodes.len(), inodes, "no inode is registered");
        assert_eq!(s.ns.dirs.len(), dirs, "no directory is registered");
        for (k, ino) in sent.iter().enumerate() {
            assert_eq!(s.lookup(s.root(), &format!("r{k}")).unwrap().0, *ino);
            assert_eq!(s.rename_unlink(s.root(), &format!("r{k}")).unwrap(), *ino);
        }
        assert!(s.readdir(s.root()).unwrap().is_empty());
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut s = store();
        let f = s.create(s.root(), "f", 0).unwrap();
        let v1 = s.getattr(f).unwrap().version;
        let v2 = s.getattr(f).unwrap().version;
        assert_eq!(v1, v2, "reads do not bump versions");
        s.commit_write(f, 10, 1).unwrap();
        assert!(s.getattr(f).unwrap().version > v1);
    }
}
