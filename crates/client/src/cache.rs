//! Write-back block cache.
//!
//! Caches whole blocks per inode, tracks dirtiness, and remembers the
//! provenance tag of each cached version so reads served from cache can be
//! audited by the offline checker exactly like reads served from disk.
//!
//! The cache holds at most [`BlockCache::capacity`] blocks; when an insert
//! pushes it past that, [`BlockCache::trim`] evicts **clean** blocks in
//! least-recently-used order. Dirty blocks are never evicted — they are the
//! write-back queue, and only drain by being hardened to the SAN
//! ([`BlockCache::mark_clean`]) or discarded wholesale at lease expiry
//! ([`BlockCache::invalidate_all`]). Eviction never scans: the clean
//! blocks are indexed by last-use stamp, so the victim is the index's
//! first entry. The coherence contract governing when
//! cached data may be *served* lives one layer up, in the lease FSM — see
//! `CACHING.md` for the phase↔admission table.

use std::collections::{BTreeMap, HashMap};

use tank_proto::{Ino, WriteTag};

/// Lifecycle state of one cached block. `CACHING.md`'s state table mirrors
/// this enum; a doc-contract test diffs the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Identical to the on-disk copy; may be evicted at any time.
    Clean,
    /// Newer than the on-disk copy; pinned until written back.
    Dirty,
}

impl BlockState {
    /// Every state, for contract tests.
    pub const ALL: [BlockState; 2] = [BlockState::Clean, BlockState::Dirty];

    /// The name `CACHING.md` uses.
    pub fn label(self) -> &'static str {
        match self {
            BlockState::Clean => "Clean",
            BlockState::Dirty => "Dirty",
        }
    }
}

/// One cached block.
#[derive(Debug, Clone)]
pub struct CachedBlock {
    /// Block contents (always a whole block).
    pub data: Vec<u8>,
    /// Tag of the version this data represents.
    pub tag: WriteTag,
    /// Dirty = newer than the on-disk copy; must be written back.
    pub dirty: bool,
    /// Last-use stamp for LRU eviction (monotonic insert/serve counter).
    last_use: u64,
}

impl CachedBlock {
    /// The block's lifecycle state.
    pub fn state(&self) -> BlockState {
        if self.dirty {
            BlockState::Dirty
        } else {
            BlockState::Clean
        }
    }
}

/// Per-client block cache.
///
/// ```
/// use tank_client::cache::BlockCache;
/// use tank_proto::{Ino, WriteTag};
///
/// // Two-block cache: filling a third clean block evicts the coldest.
/// let mut c = BlockCache::with_capacity(8, 2);
/// c.fill(Ino(1), 0, vec![0; 8], WriteTag::default());
/// c.fill(Ino(1), 1, vec![1; 8], WriteTag::default());
/// c.fill(Ino(1), 2, vec![2; 8], WriteTag::default());
/// assert_eq!(c.trim(), 1);                    // block 0 was least recent
/// assert!(c.get(Ino(1), 0).is_none());
/// assert!(c.get(Ino(1), 2).is_some());
/// ```
#[derive(Debug)]
pub struct BlockCache {
    /// ino → (block index → block). BTreeMap so flush order is
    /// deterministic.
    files: HashMap<Ino, BTreeMap<u32, CachedBlock>>,
    block_size: usize,
    /// Total cached blocks (cheap len).
    blocks: usize,
    /// Max blocks retained across files (`usize::MAX` = unbounded;
    /// `0` = retain nothing clean — the "no read cache" baseline).
    capacity: usize,
    /// Monotonic LRU clock.
    tick: u64,
    /// Eviction order: every **clean** block, keyed by its `last_use`
    /// stamp (stamps are unique — each comes from a fresh `tick`). The
    /// first entry is the block a scan for the coldest clean block would
    /// find. Dirty blocks are absent: they are pinned.
    lru: BTreeMap<u64, (Ino, u32)>,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new(0)
    }
}

impl BlockCache {
    /// Unbounded cache for blocks of `block_size` bytes.
    pub fn new(block_size: usize) -> Self {
        BlockCache::with_capacity(block_size, usize::MAX)
    }

    /// Cache holding at most `capacity` blocks (clean blocks evict LRU;
    /// dirty blocks may transiently exceed the limit).
    pub fn with_capacity(block_size: usize, capacity: usize) -> Self {
        BlockCache {
            files: HashMap::new(),
            block_size,
            blocks: 0,
            capacity,
            tick: 0,
            lru: BTreeMap::new(),
        }
    }

    /// The configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total cached blocks.
    pub fn len(&self) -> usize {
        self.blocks
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    /// Look up a block.
    pub fn get(&self, ino: Ino, idx: u32) -> Option<&CachedBlock> {
        self.files.get(&ino)?.get(&idx)
    }

    /// Insert a *clean* block (fetched from disk). A no-op when the block
    /// is already cached: while a lock is held, the cached copy is always
    /// at least as new as the disk (only our own flushes change the disk),
    /// and overwriting could clobber dirty data with a stale concurrent
    /// read — a lost update plus a read-your-writes violation.
    pub fn fill(&mut self, ino: Ino, idx: u32, data: Vec<u8>, tag: WriteTag) {
        debug_assert_eq!(data.len(), self.block_size);
        self.tick += 1;
        let stamp = self.tick;
        let file = self.files.entry(ino).or_default();
        if file.contains_key(&idx) {
            return;
        }
        file.insert(
            idx,
            CachedBlock {
                data,
                tag,
                dirty: false,
                last_use: stamp,
            },
        );
        self.lru.insert(stamp, (ino, idx));
        self.blocks += 1;
    }

    /// Refresh a block's LRU stamp (a read was served from it).
    pub fn touch(&mut self, ino: Ino, idx: u32) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(b) = self.files.get_mut(&ino).and_then(|f| f.get_mut(&idx)) {
            if !b.dirty {
                self.lru.remove(&b.last_use);
                self.lru.insert(stamp, (ino, idx));
            }
            b.last_use = stamp;
        }
    }

    /// Evict least-recently-used **clean** blocks until the cache is back
    /// within capacity; returns how many were dropped. Dirty blocks are
    /// never evicted (they are the write-back queue), so the cache can
    /// transiently exceed capacity while dirty data awaits hardening.
    ///
    /// Callers invoke this *after* a read has been served, never between
    /// the SAN fetch and the serve — at capacity 0 every fetched block
    /// lives exactly long enough to answer its read.
    ///
    /// ```
    /// use tank_client::cache::BlockCache;
    /// use tank_proto::{Ino, WriteTag};
    ///
    /// // Dirty blocks are pinned: even a capacity-0 cache retains them.
    /// let mut c = BlockCache::with_capacity(8, 0);
    /// c.write(Ino(1), 0, 0, &[7; 8], WriteTag::default());
    /// assert_eq!(c.trim(), 0); // nothing evictable
    /// assert_eq!(c.dirty_count(), 1);
    ///
    /// // Hardened to the SAN, the block turns clean — and evictable.
    /// c.mark_clean(Ino(1), 0, WriteTag::default());
    /// assert_eq!(c.trim(), 1);
    /// assert!(c.is_empty());
    /// ```
    pub fn trim(&mut self) -> usize {
        let mut evicted = 0;
        while self.blocks > self.capacity {
            // Coldest clean block across all files.
            let Some((_, (ino, idx))) = self.lru.pop_first() else {
                break; // everything left is dirty
            };
            self.remove_block(ino, idx);
            evicted += 1;
        }
        evicted
    }

    /// Drop one block that is already out of the eviction order.
    fn remove_block(&mut self, ino: Ino, idx: u32) {
        if let Some(f) = self.files.get_mut(&ino) {
            f.remove(&idx);
            self.blocks -= 1;
            if f.is_empty() {
                self.files.remove(&ino);
            }
        }
    }

    /// Write `data` at `offset` within block `idx`, marking it dirty with
    /// `tag`. The block must already be cached (callers read-modify-write
    /// uncached partial blocks) unless the write covers the whole block.
    pub fn write(&mut self, ino: Ino, idx: u32, offset: usize, data: &[u8], tag: WriteTag) {
        debug_assert!(offset + data.len() <= self.block_size);
        self.tick += 1;
        let stamp = self.tick;
        let file = self.files.entry(ino).or_default();
        match file.get_mut(&idx) {
            Some(b) => {
                if !b.dirty {
                    self.lru.remove(&b.last_use);
                }
                b.data[offset..offset + data.len()].copy_from_slice(data);
                b.tag = tag;
                b.dirty = true;
                b.last_use = stamp;
            }
            None => {
                assert!(
                    offset == 0 && data.len() == self.block_size,
                    "partial write to uncached block {ino}/{idx}: read-modify-write required"
                );
                file.insert(
                    idx,
                    CachedBlock {
                        data: data.to_vec(),
                        tag,
                        dirty: true,
                        last_use: stamp,
                    },
                );
                self.blocks += 1;
            }
        }
    }

    /// Dirty blocks of one inode, in index order.
    pub fn dirty_of(&self, ino: Ino) -> Vec<(u32, Vec<u8>, WriteTag)> {
        self.files
            .get(&ino)
            .map(|file| {
                file.iter()
                    .filter(|(_, b)| b.dirty)
                    .map(|(idx, b)| (*idx, b.data.clone(), b.tag))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// How many dirty blocks one inode has.
    pub fn dirty_len(&self, ino: Ino) -> usize {
        self.files
            .get(&ino)
            .map_or(0, |file| file.values().filter(|b| b.dirty).count())
    }

    /// All inodes with any cached block (dirty or clean), sorted.
    pub fn inos(&self) -> Vec<Ino> {
        let mut v: Vec<Ino> = self.files.keys().copied().collect();
        v.sort();
        v
    }

    /// All inodes that currently have dirty blocks.
    pub fn dirty_inos(&self) -> Vec<Ino> {
        let mut v: Vec<Ino> = self
            .files
            .iter()
            .filter(|(_, file)| file.values().any(|b| b.dirty))
            .map(|(ino, _)| *ino)
            .collect();
        v.sort();
        v
    }

    /// Count of dirty blocks across all files.
    pub fn dirty_count(&self) -> usize {
        self.files
            .values()
            .flat_map(|f| f.values())
            .filter(|b| b.dirty)
            .count()
    }

    /// Mark a block clean after its write-back was acknowledged by the
    /// disk — but only if the tag still matches (the block may have been
    /// re-dirtied by a newer local write while the flush was in flight).
    pub fn mark_clean(&mut self, ino: Ino, idx: u32, tag: WriteTag) {
        if let Some(b) = self.files.get_mut(&ino).and_then(|f| f.get_mut(&idx)) {
            if b.tag == tag && b.dirty {
                b.dirty = false;
                self.lru.insert(b.last_use, (ino, idx));
            }
        }
    }

    /// Drop every cached block of one inode (e.g. after releasing its
    /// lock). Dirty data is discarded — callers flush first.
    pub fn invalidate_ino(&mut self, ino: Ino) -> usize {
        match self.files.remove(&ino) {
            Some(file) => {
                for b in file.values().filter(|b| !b.dirty) {
                    self.lru.remove(&b.last_use);
                }
                self.blocks -= file.len();
                file.len()
            }
            None => 0,
        }
    }

    /// Drop everything (lease expiry). Returns how many dirty blocks were
    /// discarded — in a correct run that flushed first, zero.
    pub fn invalidate_all(&mut self) -> usize {
        let dirty = self.dirty_count();
        self.files.clear();
        self.lru.clear();
        self.blocks = 0;
        dirty
    }
}

/// The eviction rule the order index replaced, kept as the test oracle:
/// find each victim by scanning every block of every file.
#[cfg(test)]
impl BlockCache {
    /// Every clean block with its stamp, found the slow way.
    fn clean_by_scan(&self) -> impl Iterator<Item = (u64, (Ino, u32))> + '_ {
        self.files.iter().flat_map(|(ino, f)| {
            f.iter()
                .filter(|(_, b)| !b.dirty)
                .map(move |(idx, b)| (b.last_use, (*ino, *idx)))
        })
    }

    /// [`trim`](Self::trim) with every victim chosen by the scan.
    fn trim_by_scan(&mut self) -> usize {
        let mut evicted = 0;
        while self.blocks > self.capacity {
            let Some((stamp, (ino, idx))) = self.clean_by_scan().min() else {
                break;
            };
            self.lru.remove(&stamp);
            self.remove_block(ino, idx);
            evicted += 1;
        }
        evicted
    }

    /// The order index holds exactly the clean blocks, under their stamps.
    fn lru_is_exact(&self) -> bool {
        self.clean_by_scan().collect::<BTreeMap<_, _>>() == self.lru
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tank_proto::{Epoch, NodeId};

    const F: Ino = Ino(1);

    fn tag(wseq: u64) -> WriteTag {
        WriteTag {
            writer: NodeId(1),
            epoch: Epoch(1),
            wseq,
        }
    }

    fn cache() -> BlockCache {
        BlockCache::new(8)
    }

    #[test]
    fn fill_never_clobbers_an_existing_block() {
        let mut c = cache();
        c.write(F, 0, 0, &[9; 8], tag(5)); // dirty, newest
                                           // A concurrent read's stale disk data arrives late:
        c.fill(F, 0, vec![1; 8], tag(1));
        let b = c.get(F, 0).unwrap();
        assert!(b.dirty, "dirty data survives");
        assert_eq!(b.data, vec![9; 8]);
        assert_eq!(b.tag, tag(5));
        // Clean blocks are also kept (they are as new as the disk).
        let mut c = cache();
        c.fill(F, 1, vec![2; 8], tag(2));
        c.fill(F, 1, vec![3; 8], tag(3));
        assert_eq!(c.get(F, 1).unwrap().tag, tag(2));
    }

    #[test]
    fn fill_then_get_is_clean() {
        let mut c = cache();
        c.fill(F, 0, vec![1; 8], tag(1));
        let b = c.get(F, 0).unwrap();
        assert!(!b.dirty);
        assert_eq!(b.data, vec![1; 8]);
        assert_eq!(c.len(), 1);
        assert!(c.dirty_inos().is_empty());
    }

    #[test]
    fn write_marks_dirty_and_updates_tag() {
        let mut c = cache();
        c.fill(F, 0, vec![0; 8], tag(1));
        c.write(F, 0, 2, &[7, 7], tag(2));
        let b = c.get(F, 0).unwrap();
        assert!(b.dirty);
        assert_eq!(b.data, vec![0, 0, 7, 7, 0, 0, 0, 0]);
        assert_eq!(b.tag, tag(2));
        assert_eq!(c.dirty_of(F).len(), 1);
    }

    #[test]
    fn whole_block_write_to_uncached_is_allowed() {
        let mut c = cache();
        c.write(F, 3, 0, &[9; 8], tag(1));
        assert!(c.get(F, 3).unwrap().dirty);
    }

    #[test]
    #[should_panic(expected = "read-modify-write required")]
    fn partial_write_to_uncached_panics() {
        let mut c = cache();
        c.write(F, 0, 2, &[1, 2], tag(1));
    }

    #[test]
    fn mark_clean_respects_tag_races() {
        let mut c = cache();
        c.write(F, 0, 0, &[1; 8], tag(1));
        // A newer local write lands while the flush of tag(1) is in
        // flight...
        c.write(F, 0, 0, &[2; 8], tag(2));
        // ...so the flush completion for tag(1) must NOT clean the block.
        c.mark_clean(F, 0, tag(1));
        assert!(c.get(F, 0).unwrap().dirty, "newer dirty data must survive");
        c.mark_clean(F, 0, tag(2));
        assert!(!c.get(F, 0).unwrap().dirty);
    }

    #[test]
    fn dirty_tracking_across_files() {
        let mut c = cache();
        c.write(Ino(1), 0, 0, &[1; 8], tag(1));
        c.fill(Ino(2), 0, vec![0; 8], tag(2));
        c.write(Ino(3), 0, 0, &[3; 8], tag(3));
        assert_eq!(c.dirty_inos(), vec![Ino(1), Ino(3)]);
        assert_eq!(c.dirty_count(), 2);
    }

    #[test]
    fn invalidate_ino_and_all() {
        let mut c = cache();
        c.write(Ino(1), 0, 0, &[1; 8], tag(1));
        c.fill(Ino(2), 0, vec![0; 8], tag(2));
        assert_eq!(c.invalidate_ino(Ino(1)), 1);
        assert_eq!(c.len(), 1);
        c.write(Ino(2), 1, 0, &[5; 8], tag(3));
        assert_eq!(c.invalidate_all(), 1, "one dirty block discarded");
        assert!(c.is_empty());
    }

    #[test]
    fn trim_evicts_lru_clean_blocks_only() {
        let mut c = BlockCache::with_capacity(8, 2);
        c.fill(F, 0, vec![0; 8], tag(1));
        c.fill(F, 1, vec![1; 8], tag(2));
        c.fill(F, 2, vec![2; 8], tag(3));
        // Re-use block 0 so block 1 becomes the coldest.
        c.touch(F, 0);
        assert_eq!(c.trim(), 1);
        assert!(c.get(F, 1).is_none(), "coldest clean block evicted");
        assert!(c.get(F, 0).is_some());
        assert!(c.get(F, 2).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn trim_never_evicts_dirty_blocks() {
        let mut c = BlockCache::with_capacity(8, 1);
        c.write(F, 0, 0, &[9; 8], tag(1));
        c.write(F, 1, 0, &[9; 8], tag(2));
        assert_eq!(c.trim(), 0, "dirty write-back data is pinned");
        assert_eq!(c.len(), 2, "cache may overflow with dirty data");
        c.mark_clean(F, 0, tag(1));
        assert_eq!(c.trim(), 1, "hardened block becomes evictable");
        assert!(c.get(F, 1).unwrap().dirty);
    }

    #[test]
    fn capacity_zero_retains_nothing_clean() {
        let mut c = BlockCache::with_capacity(8, 0);
        c.fill(F, 0, vec![1; 8], tag(1));
        assert!(c.get(F, 0).is_some(), "retained until the read is served");
        assert_eq!(c.trim(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn block_state_tracks_dirtiness() {
        let mut c = cache();
        c.fill(F, 0, vec![1; 8], tag(1));
        assert_eq!(c.get(F, 0).unwrap().state(), BlockState::Clean);
        c.write(F, 0, 0, &[2; 8], tag(2));
        assert_eq!(c.get(F, 0).unwrap().state(), BlockState::Dirty);
        c.mark_clean(F, 0, tag(2));
        assert_eq!(c.get(F, 0).unwrap().state(), BlockState::Clean);
    }

    #[test]
    fn dirty_of_is_in_index_order() {
        let mut c = cache();
        c.write(F, 5, 0, &[5; 8], tag(5));
        c.write(F, 1, 0, &[1; 8], tag(1));
        c.write(F, 3, 0, &[3; 8], tag(3));
        let idxs: Vec<u32> = c.dirty_of(F).iter().map(|(i, _, _)| *i).collect();
        assert_eq!(idxs, vec![1, 3, 5]);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Fill { ino: u64, idx: u32 },
        Touch { ino: u64, idx: u32 },
        Write { ino: u64, idx: u32 },
        MarkClean { ino: u64, idx: u32, current: bool },
        Trim,
        InvalidateIno { ino: u64 },
        InvalidateAll,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let block = || (0u64..3, 0u32..5);
        prop_oneof![
            block().prop_map(|(ino, idx)| Op::Fill { ino, idx }),
            block().prop_map(|(ino, idx)| Op::Fill { ino, idx }),
            block().prop_map(|(ino, idx)| Op::Touch { ino, idx }),
            block().prop_map(|(ino, idx)| Op::Write { ino, idx }),
            (block(), any::<bool>()).prop_map(|((ino, idx), current)| Op::MarkClean {
                ino,
                idx,
                current
            }),
            Just(Op::Trim),
            Just(Op::Trim),
            (0u64..3).prop_map(|ino| Op::InvalidateIno { ino }),
            Just(Op::InvalidateAll),
        ]
    }

    proptest! {
        /// The order index evicts exactly what the scan it replaced would
        /// have: two caches fed one op sequence, one trimmed through the
        /// index and one through the scan, hold the same blocks in the
        /// same states after every step and report the same evictions.
        #[test]
        fn indexed_trim_matches_the_scan_oracle(
            capacity in 0usize..8,
            ops in proptest::collection::vec(arb_op(), 1..300),
        ) {
            let mut fast = BlockCache::with_capacity(8, capacity);
            let mut slow = BlockCache::with_capacity(8, capacity);
            let mut wseq = 0u64;
            for op in ops {
                wseq += 1;
                match op {
                    Op::Fill { ino, idx } => {
                        fast.fill(Ino(ino), idx, vec![wseq as u8; 8], tag(wseq));
                        slow.fill(Ino(ino), idx, vec![wseq as u8; 8], tag(wseq));
                    }
                    Op::Touch { ino, idx } => {
                        fast.touch(Ino(ino), idx);
                        slow.touch(Ino(ino), idx);
                    }
                    Op::Write { ino, idx } => {
                        fast.write(Ino(ino), idx, 0, &[wseq as u8; 8], tag(wseq));
                        slow.write(Ino(ino), idx, 0, &[wseq as u8; 8], tag(wseq));
                    }
                    Op::MarkClean { ino, idx, current } => {
                        // The block's own tag hardens it; a stale one must not.
                        let t = match fast.get(Ino(ino), idx) {
                            Some(b) if current => b.tag,
                            _ => tag(0),
                        };
                        fast.mark_clean(Ino(ino), idx, t);
                        slow.mark_clean(Ino(ino), idx, t);
                    }
                    Op::Trim => prop_assert_eq!(fast.trim(), slow.trim_by_scan()),
                    Op::InvalidateIno { ino } => {
                        prop_assert_eq!(fast.invalidate_ino(Ino(ino)), slow.invalidate_ino(Ino(ino)));
                    }
                    Op::InvalidateAll => {
                        prop_assert_eq!(fast.invalidate_all(), slow.invalidate_all());
                    }
                }
                prop_assert!(fast.lru_is_exact());
                prop_assert!(slow.lru_is_exact());
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.inos(), slow.inos());
                for ino in fast.inos() {
                    for idx in 0..5 {
                        let (a, b) = (fast.get(ino, idx), slow.get(ino, idx));
                        prop_assert_eq!(
                            a.map(|b| (b.tag, b.dirty, b.last_use)),
                            b.map(|b| (b.tag, b.dirty, b.last_use))
                        );
                    }
                }
            }
        }
    }
}
