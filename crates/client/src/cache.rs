//! Write-back block cache.
//!
//! Caches whole blocks per inode, tracks dirtiness, and remembers the
//! provenance tag of each cached version so reads served from cache can be
//! audited by the offline checker exactly like reads served from disk.
//!
//! The cache holds at most [`BlockCache::capacity`] blocks; when an insert
//! pushes it past that, [`BlockCache::trim`] evicts **evictable** blocks —
//! clean and unpinned — fewest decayed reads first, least recently used
//! among equals. Only reads count ([`BlockCache::touch`]): a fill or a
//! write adds nothing, so a block written and hardened but never read is
//! the first to go. Counts outlive eviction (a history of counts, no data)
//! and halve every `16 × capacity` counted reads, so a hot set that moves
//! is followed. Dirty blocks are never evicted — they are the write-back
//! queue, and only drain by being hardened to the SAN
//! ([`BlockCache::mark_clean`]) or discarded wholesale at lease expiry
//! ([`BlockCache::invalidate_all`]). Pinned blocks ([`BlockCache::pin`])
//! are the ones an in-flight read has yet to serve. Eviction never scans:
//! the evictable blocks are indexed by (read count, last use), so the
//! victim is the index's first entry. The coherence contract governing
//! when cached data may be *served* lives one layer up, in the lease FSM —
//! see `CACHING.md` for the phase↔admission table.

use std::collections::BTreeMap;

use tank_proto::{Ino, WriteTag};

use tank_sim::fxhash::HashMap;

/// Counted reads between two halvings of every read count, per block of
/// capacity: `W = 16 × capacity`. A halving re-keys every evictable block,
/// so this spreads its cost to 1/16 of a re-key per read; and since the
/// counts sum to at most `(S + W) / 2` after each halving, the history
/// never holds more than `2W = 32 × capacity` entries.
const AGING_READS_PER_BLOCK: u64 = 16;

/// Lifecycle state of one cached block. `CACHING.md`'s state table mirrors
/// this enum; a doc-contract test diffs the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Identical to the on-disk copy; evictable unless a read it was
    /// fetched for is still in flight.
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
    /// Stamp of the last fill, read or write: orders blocks of equal read
    /// count, least recent first (monotonic, unique per block).
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
/// c.touch(Ino(1), 0);                         // block 0 has been read
/// c.fill(Ino(1), 2, vec![2; 8], WriteTag::default());
/// assert_eq!(c.trim(), 1);                    // block 1 was never read, and older than 2
/// assert!(c.get(Ino(1), 1).is_none());
/// assert!(c.get(Ino(1), 0).is_some());
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
    /// Monotonic use clock.
    tick: u64,
    /// Eviction order: every **evictable** block — clean and unpinned —
    /// keyed by (decayed read count, `last_use`); stamps are unique, so
    /// keys are. The first entry is the block a scan for the fewest-read,
    /// then least recent, evictable block would find. Dirty and pinned
    /// blocks are absent.
    order: BTreeMap<(u32, u64), (Ino, u32)>,
    /// Decayed read count per block, cached or not. Counts only — no data,
    /// no tag — so it needs no invalidation, and a block evicted and
    /// fetched again resumes its count. Kept only by a cache that chooses
    /// victims (bounded, nonzero capacity).
    reads: HashMap<(Ino, u32), u32>,
    /// Counted reads since the counts last halved.
    reads_since_aging: u64,
    /// Pins per block: how many in-flight reads have yet to serve it.
    pins: HashMap<(Ino, u32), u32>,
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

    /// Cache holding at most `capacity` blocks (clean blocks evict fewest
    /// reads first; dirty and pinned blocks may transiently exceed the
    /// limit).
    pub fn with_capacity(block_size: usize, capacity: usize) -> Self {
        BlockCache {
            files: HashMap::default(),
            block_size,
            blocks: 0,
            capacity,
            tick: 0,
            order: BTreeMap::new(),
            reads: HashMap::default(),
            reads_since_aging: 0,
            pins: HashMap::default(),
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

    /// Counted reads between two agings, or `None` for a cache that never
    /// chooses among victims: an unbounded one evicts nothing, a capacity-0
    /// one every evictable block.
    fn window(&self) -> Option<u64> {
        (self.capacity > 0 && self.capacity < usize::MAX)
            .then(|| AGING_READS_PER_BLOCK.saturating_mul(self.capacity as u64))
    }

    /// A block's decayed read count.
    fn reads_of(&self, ino: Ino, idx: u32) -> u32 {
        self.reads.get(&(ino, idx)).copied().unwrap_or(0)
    }

    /// Put a clean block into the eviction order, unless a pin holds it
    /// out.
    fn enter_order(&mut self, ino: Ino, idx: u32, last_use: u64) {
        if !self.pins.contains_key(&(ino, idx)) {
            let key = (self.reads_of(ino, idx), last_use);
            self.order.insert(key, (ino, idx));
        }
    }

    /// Take a block out of the eviction order; `false` if it was not in it.
    fn leave_order(&mut self, ino: Ino, idx: u32, last_use: u64) -> bool {
        let key = (self.reads_of(ino, idx), last_use);
        self.order.remove(&key).is_some()
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
        self.blocks += 1;
        self.enter_order(ino, idx, stamp);
    }

    /// Count a read served from a block: one more read, and a fresh
    /// last-use stamp. Every `16 × capacity` counted reads, all counts
    /// halve.
    pub fn touch(&mut self, ino: Ino, idx: u32) {
        self.tick += 1;
        let stamp = self.tick;
        let Some(b) = self.files.get_mut(&ino).and_then(|f| f.get_mut(&idx)) else {
            return;
        };
        let last = std::mem::replace(&mut b.last_use, stamp);
        let in_order = self.leave_order(ino, idx, last);
        let Some(window) = self.window() else {
            if in_order {
                self.order.insert((0, stamp), (ino, idx));
            }
            return;
        };
        let reads = self.reads.entry((ino, idx)).or_default();
        *reads += 1;
        if in_order {
            self.order.insert((*reads, stamp), (ino, idx));
        }
        self.reads_since_aging += 1;
        if self.reads_since_aging >= window {
            self.age();
        }
    }

    /// Halve every read count, drop the zeros, and re-key the order to
    /// match.
    fn age(&mut self) {
        self.reads_since_aging = 0;
        self.reads.retain(|_, n| {
            *n /= 2;
            *n > 0
        });
        self.order = std::mem::take(&mut self.order)
            .into_iter()
            .map(|((n, last), block)| ((n / 2, last), block))
            .collect();
    }

    /// Evict evictable blocks — fewest decayed reads first, least recent
    /// among equals — until the cache is back within capacity; returns how
    /// many were dropped. Dirty blocks are never evicted (they are the
    /// write-back queue), nor are pinned ones, so the cache can
    /// transiently exceed capacity.
    ///
    /// Callers pin every block a read is waiting on and unpin it only once
    /// the read is served — at capacity 0 every fetched block lives
    /// exactly long enough to answer its read.
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
            let Some((_, (ino, idx))) = self.order.pop_first() else {
                break; // everything left is dirty or pinned
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

    /// Hold block `idx` of `ino` out of the eviction order until a matching
    /// [`unpin`](Self::unpin). A read pins every block it waits on, so no
    /// other read's trim can evict one between its fetch and its serve.
    /// Pins count (two reads may wait on one block) and belong to the
    /// block, not to a cached copy: a pin may be taken before the block is
    /// fetched, and invalidation still drops a pinned block — the pin then
    /// holds whatever copy is fetched next.
    pub fn pin(&mut self, ino: Ino, idx: u32) {
        let pins = self.pins.entry((ino, idx)).or_default();
        *pins += 1;
        if *pins == 1 {
            if let Some(last) = self.get(ino, idx).map(|b| b.last_use) {
                self.leave_order(ino, idx, last);
            }
        }
    }

    /// Release one [`pin`](Self::pin). With the last one gone, a cached
    /// clean block rejoins the eviction order.
    pub fn unpin(&mut self, ino: Ino, idx: u32) {
        let Some(pins) = self.pins.get_mut(&(ino, idx)) else {
            return;
        };
        *pins -= 1;
        if *pins > 0 {
            return;
        }
        self.pins.remove(&(ino, idx));
        if let Some(last) = self.get(ino, idx).filter(|b| !b.dirty).map(|b| b.last_use) {
            self.enter_order(ino, idx, last);
        }
    }

    /// Write `data` at `offset` within block `idx`, marking it dirty with
    /// `tag`. The block must already be cached (callers read-modify-write
    /// uncached partial blocks) unless the write covers the whole block.
    /// A write is not a read: the block's read count stays as it was.
    pub fn write(&mut self, ino: Ino, idx: u32, offset: usize, data: &[u8], tag: WriteTag) {
        debug_assert!(offset + data.len() <= self.block_size);
        self.tick += 1;
        let stamp = self.tick;
        let reads = self.reads_of(ino, idx);
        let file = self.files.entry(ino).or_default();
        match file.get_mut(&idx) {
            Some(b) => {
                self.order.remove(&(reads, b.last_use));
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
        let Some(b) = self.files.get_mut(&ino).and_then(|f| f.get_mut(&idx)) else {
            return;
        };
        if b.tag == tag && b.dirty {
            b.dirty = false;
            let last = b.last_use;
            self.enter_order(ino, idx, last);
        }
    }

    /// Drop every cached block of one inode (e.g. after releasing its
    /// lock). Dirty data is discarded — callers flush first.
    pub fn invalidate_ino(&mut self, ino: Ino) -> usize {
        let Some(file) = self.files.remove(&ino) else {
            return 0;
        };
        for (&idx, b) in &file {
            self.leave_order(ino, idx, b.last_use);
        }
        self.blocks -= file.len();
        file.len()
    }

    /// Drop everything (lease expiry). Returns how many dirty blocks were
    /// discarded — in a correct run that flushed first, zero.
    pub fn invalidate_all(&mut self) -> usize {
        let dirty = self.dirty_count();
        self.files.clear();
        self.order.clear();
        self.blocks = 0;
        dirty
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

    /// One read the way the client serves it: fetch on a miss, count the
    /// read, trim.
    fn read(c: &mut BlockCache, ino: Ino, idx: u32) {
        if c.get(ino, idx).is_none() {
            c.fill(ino, idx, vec![0; 8], tag(0));
        }
        c.touch(ino, idx);
        c.trim();
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

    #[test]
    fn a_pinned_block_waits_for_its_last_unpin() {
        let mut c = BlockCache::with_capacity(8, 0);
        // Two reads wait on block 0; the pin precedes the fetch.
        c.pin(F, 0);
        c.pin(F, 0);
        c.fill(F, 0, vec![1; 8], tag(1));
        assert_eq!(c.trim(), 0, "pinned: out of the eviction order");
        c.unpin(F, 0);
        assert_eq!(c.trim(), 0, "one read still waits on it");
        // Invalidation drops it anyway; the pin holds the next copy.
        assert_eq!(c.invalidate_ino(F), 1);
        c.fill(F, 0, vec![2; 8], tag(2));
        assert_eq!(c.trim(), 0);
        c.unpin(F, 0);
        assert_eq!(c.trim(), 1, "served: evictable again");
        assert!(c.pins.is_empty());
    }

    #[test]
    fn a_block_read_often_survives_a_stream_of_one_time_reads() {
        for k in 2..5 {
            let mut c = BlockCache::with_capacity(8, 4);
            for _ in 0..k {
                read(&mut c, F, 0);
            }
            for idx in 1..=4 {
                read(&mut c, Ino(2), idx);
            }
            assert!(c.get(F, 0).is_some(), "read {k} times, evicted by a scan");
            assert_eq!(c.len(), 4);
        }
    }

    #[test]
    fn a_written_then_hardened_block_goes_before_a_block_read_once() {
        let mut c = BlockCache::with_capacity(8, 1);
        read(&mut c, F, 0);
        c.write(F, 1, 0, &[1; 8], tag(1));
        c.mark_clean(F, 1, tag(1));
        assert_eq!(c.trim(), 1);
        assert!(c.get(F, 1).is_none(), "never read: the first victim");
        assert!(c.get(F, 0).is_some(), "read once, though less recent");
    }

    #[test]
    fn an_evicted_block_resumes_its_count_when_fetched_again() {
        let mut c = BlockCache::with_capacity(8, 1);
        read(&mut c, F, 0);
        read(&mut c, F, 0);
        for _ in 0..3 {
            read(&mut c, F, 1);
        }
        assert!(c.get(F, 0).is_none(), "evicted once block 1 caught up");
        // Fetched again, block 0 picks up at three reads and, as the more
        // recent of two equals, keeps its place.
        read(&mut c, F, 0);
        assert!(c.get(F, 0).is_some(), "a resumed 3 beats an older 3");
        assert!(c.get(F, 1).is_none());
        assert_eq!(c.reads_of(F, 0), 3);
    }

    #[test]
    fn a_moved_hot_set_owns_the_cache_within_two_windows() {
        const CAP: u32 = 8;
        let mut c = BlockCache::with_capacity(8, CAP as usize);
        let w = c.window().unwrap();
        for i in 0..4 * w {
            read(&mut c, Ino(1), (i % CAP as u64) as u32);
        }
        assert!((0..CAP).all(|idx| c.get(Ino(1), idx).is_some()));
        for i in 0..2 * w {
            read(&mut c, Ino(2), (i % CAP as u64) as u32);
        }
        for idx in 0..CAP {
            assert!(c.get(Ino(2), idx).is_some(), "new hot block {idx} cached");
            assert!(c.get(Ino(1), idx).is_none(), "old hot block {idx} gone");
        }
    }

    #[test]
    fn the_history_stays_within_32_times_capacity() {
        // xorshift64: a fixed, dependency-free op stream.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let ops: Vec<(u64, Ino, u32)> = (0..100_000)
            .map(|_| (next(100), Ino(next(64)), next(64) as u32))
            .collect();
        for capacity in [1, 8, 64, usize::MAX] {
            let mut c = BlockCache::with_capacity(8, capacity);
            for (i, &(what, ino, idx)) in ops.iter().enumerate() {
                match what {
                    0..=79 => read(&mut c, ino, idx),
                    80..=94 => c.write(ino, idx, 0, &[1; 8], tag(i as u64)),
                    95..=98 => {
                        if let Some(t) = c.get(ino, idx).map(|b| b.tag) {
                            c.mark_clean(ino, idx, t);
                        }
                    }
                    _ => {
                        c.invalidate_ino(ino);
                    }
                }
                let bound = 32usize.saturating_mul(capacity);
                assert!(c.reads.len() <= bound, "{} > {bound}", c.reads.len());
            }
            if capacity == usize::MAX {
                assert!(c.reads.is_empty(), "an unbounded cache keeps no history");
            }
        }
    }

    #[test]
    fn equal_counts_evict_in_lru_order() {
        const CAP: u32 = 5;
        let mut c = BlockCache::with_capacity(8, CAP as usize);
        let used = [3, 1, 4, 0, 2];
        for idx in 0..CAP {
            c.fill(F, idx, vec![0; 8], tag(0));
        }
        for idx in used {
            c.touch(F, idx);
        }
        // Each newcomer, read once like the rest, pushes out the least
        // recently used of the equals.
        for (k, victim) in used.into_iter().enumerate() {
            read(&mut c, Ino(2), k as u32);
            assert!(c.get(F, victim).is_none(), "{victim} evicted {k}th");
            assert_eq!(c.len(), CAP as usize);
        }
    }

    /// The eviction rule stated independently of the cache: read counts
    /// with their aging, and pins.
    #[derive(Default)]
    struct Model {
        window: Option<u64>,
        reads: HashMap<(Ino, u32), u32>,
        since: u64,
        pins: HashMap<(Ino, u32), u32>,
    }

    impl Model {
        fn new(capacity: usize) -> Model {
            Model {
                window: (capacity > 0).then_some(16 * capacity as u64),
                ..Model::default()
            }
        }

        fn read(&mut self, block: (Ino, u32)) {
            let Some(window) = self.window else {
                return;
            };
            *self.reads.entry(block).or_default() += 1;
            self.since += 1;
            if self.since == window {
                self.since = 0;
                self.reads.retain(|_, n| {
                    *n /= 2;
                    *n > 0
                });
            }
        }

        /// Every evictable block with its rank, found by scanning the cache.
        fn evictable(&self, c: &BlockCache) -> BTreeMap<(u32, u64), (Ino, u32)> {
            c.files
                .iter()
                .flat_map(|(ino, f)| f.iter().map(move |(idx, b)| ((*ino, *idx), b)))
                .filter(|(block, b)| !b.dirty && !self.pins.contains_key(block))
                .map(|(block, b)| {
                    let n = self.reads.get(&block).copied().unwrap_or(0);
                    ((n, b.last_use), block)
                })
                .collect()
        }

        /// [`BlockCache::trim`] with every victim chosen by the scan.
        fn trim_by_scan(&self, c: &mut BlockCache) -> usize {
            let mut evicted = 0;
            while c.blocks > c.capacity {
                let Some((key, (ino, idx))) = self.evictable(c).pop_first() else {
                    break;
                };
                c.order.remove(&key);
                c.remove_block(ino, idx);
                evicted += 1;
            }
            evicted
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Fill { ino: u64, idx: u32 },
        Touch { ino: u64, idx: u32 },
        Read { ino: u64, idx: u32 },
        Write { ino: u64, idx: u32 },
        MarkClean { ino: u64, idx: u32, current: bool },
        Pin { ino: u64, idx: u32 },
        Unpin { nth: usize },
        Trim,
        InvalidateIno { ino: u64 },
        InvalidateAll,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let block = || (0u64..3, 0u32..5);
        let read = move || block().prop_map(|(ino, idx)| Op::Read { ino, idx });
        prop_oneof![
            block().prop_map(|(ino, idx)| Op::Fill { ino, idx }),
            block().prop_map(|(ino, idx)| Op::Touch { ino, idx }),
            read(),
            read(),
            read(),
            read(),
            block().prop_map(|(ino, idx)| Op::Write { ino, idx }),
            (block(), any::<bool>()).prop_map(|((ino, idx), current)| Op::MarkClean {
                ino,
                idx,
                current
            }),
            block().prop_map(|(ino, idx)| Op::Pin { ino, idx }),
            any::<usize>().prop_map(|nth| Op::Unpin { nth }),
            Just(Op::Trim),
            Just(Op::Trim),
            (0u64..3).prop_map(|ino| Op::InvalidateIno { ino }),
            Just(Op::InvalidateAll),
        ]
    }

    proptest! {
        /// The order index evicts exactly what a scan for the evictable
        /// block with the fewest decayed reads, least recent among equals,
        /// would: two caches fed one op sequence, one trimmed through the
        /// index and one through the scan, hold the same blocks in the
        /// same states after every step and report the same evictions.
        /// Read counts and pins come from an independent model, so a
        /// cache that miscounts a read, ages wrongly or lets a pinned
        /// block into its order fails here.
        #[test]
        fn indexed_trim_matches_the_scan_oracle(
            capacity in 0usize..8,
            ops in proptest::collection::vec(arb_op(), 1..400),
        ) {
            let mut fast = BlockCache::with_capacity(8, capacity);
            let mut slow = BlockCache::with_capacity(8, capacity);
            let mut model = Model::new(capacity);
            let mut wseq = 0u64;
            for op in ops {
                wseq += 1;
                match op {
                    Op::Fill { ino, idx } => {
                        fast.fill(Ino(ino), idx, vec![wseq as u8; 8], tag(wseq));
                        slow.fill(Ino(ino), idx, vec![wseq as u8; 8], tag(wseq));
                    }
                    Op::Touch { ino, idx } | Op::Read { ino, idx } => {
                        // A read is the client's: a fill (a no-op if the
                        // block is cached), then a touch.
                        if matches!(op, Op::Read { .. }) {
                            fast.fill(Ino(ino), idx, vec![wseq as u8; 8], tag(wseq));
                            slow.fill(Ino(ino), idx, vec![wseq as u8; 8], tag(wseq));
                        }
                        if fast.get(Ino(ino), idx).is_some() {
                            model.read((Ino(ino), idx));
                        }
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
                    Op::Pin { ino, idx } => {
                        *model.pins.entry((Ino(ino), idx)).or_default() += 1;
                        fast.pin(Ino(ino), idx);
                        slow.pin(Ino(ino), idx);
                    }
                    Op::Unpin { nth } => {
                        let mut pinned: Vec<(Ino, u32)> = model.pins.keys().copied().collect();
                        pinned.sort();
                        if let Some(&(ino, idx)) = pinned.get(nth % pinned.len().max(1)) {
                            let n = model.pins.get_mut(&(ino, idx)).unwrap();
                            *n -= 1;
                            if *n == 0 {
                                model.pins.remove(&(ino, idx));
                            }
                            fast.unpin(ino, idx);
                            slow.unpin(ino, idx);
                        }
                    }
                    Op::Trim => prop_assert_eq!(fast.trim(), model.trim_by_scan(&mut slow)),
                    Op::InvalidateIno { ino } => {
                        prop_assert_eq!(fast.invalidate_ino(Ino(ino)), slow.invalidate_ino(Ino(ino)));
                    }
                    Op::InvalidateAll => {
                        prop_assert_eq!(fast.invalidate_all(), slow.invalidate_all());
                    }
                }
                prop_assert_eq!(&fast.reads, &model.reads);
                prop_assert_eq!(&fast.order, &model.evictable(&fast));
                prop_assert_eq!(&slow.order, &model.evictable(&slow));
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
