//! Shard map: partitioning the inode namespace across N metadata servers.
//!
//! The paper's client "maintains a single lease *per server*" (§3) — the
//! plural only matters once there is more than one server. This crate is
//! the shared placement vocabulary that lets a cluster of independent lock
//! servers split the namespace with no coordination between them:
//!
//! * every shard `s` owns a private namespace root, `Ino(1 + s)`, so the
//!   reserved inos `1..=n` are the shard roots;
//! * every other inode is owned by exactly one shard, chosen by rendezvous
//!   (highest-random-weight) hashing of the ino — deterministic, uniform,
//!   and computable by client and server alike with no directory service;
//! * top-level directory *entries* are placed by rendezvous-hashing the
//!   *name* ([`ShardMap::place_top`]), so a client knows which shard to ask
//!   for `/f17` without consulting any other shard first. Deeper paths have
//!   subtree affinity: a dentry lives on the shard that owns its parent
//!   directory's inode.
//! * each shard allocates SAN blocks only from its private slice of the
//!   device ([`ShardMap::block_range`]), so fencing a client out of one
//!   shard's range leaves its direct I/O against other shards untouched.
//!
//! A map with `n = 1` degenerates exactly to the single-server system: one
//! root at `Ino(1)`, every ino owned by [`ServerId`] 0, and a block range
//! covering the whole device.
//!
//! The map is versioned by an `epoch` carried in `Hello`/`HelloOk`; servers
//! reject traffic from clients holding a different map with
//! `Misrouted(StaleMap)`. This reproduction only uses static maps (epoch 0),
//! but the handshake means online resharding can be added without a wire
//! change.

use serde::{Deserialize, Serialize};
use tank_proto::{BlockRange, Ino, ServerId};

/// The cluster's shard layout: how many metadata servers exist and which
/// slice of the namespace and of the SAN each one owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    n: u16,
    epoch: u64,
}

impl ShardMap {
    /// A single-server map — the degenerate layout every pre-shard
    /// deployment runs.
    pub fn single() -> ShardMap {
        ShardMap::new(1)
    }

    /// A static map over `n` servers (epoch 0).
    pub fn new(n: u16) -> ShardMap {
        assert!(n >= 1, "a cluster needs at least one shard");
        ShardMap { n, epoch: 0 }
    }

    /// Number of shards.
    #[inline]
    pub fn nshards(&self) -> u16 {
        self.n
    }

    /// All shard ids, in order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> {
        (0..self.n).map(ServerId)
    }

    /// The map's version, exchanged in `Hello`/`HelloOk`.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The namespace root owned by shard `sid`. Roots occupy the reserved
    /// inos `1..=n`; with one shard this is the classic `Ino(1)`.
    #[inline]
    pub fn root_of(&self, sid: ServerId) -> Ino {
        debug_assert!(sid.0 < self.n);
        Ino(1 + sid.0 as u64)
    }

    /// Whether `ino` is one of the per-shard namespace roots.
    #[inline]
    pub fn is_root(&self, ino: Ino) -> bool {
        1 <= ino.0 && ino.0 <= self.n as u64
    }

    /// The shard that owns (serves metadata and locks for) `ino`.
    ///
    /// Roots belong to their own shard; everything else is placed by
    /// rendezvous hashing, so ownership is stable under any subset of
    /// shards being up and needs no placement table. One shard owns
    /// everything, with no hashing.
    #[inline]
    pub fn owner_of(&self, ino: Ino) -> ServerId {
        if self.n == 1 {
            return ServerId(0);
        }
        if self.is_root(ino) {
            return ServerId(ino.0 as u16 - 1);
        }
        self.rendezvous(ino.0)
    }

    /// The shard whose root directory holds the top-level entry `name`.
    ///
    /// Placing top-level *dentries* by name lets a client route `/f17`
    /// with nothing but the map in hand. The inode the entry resolves to
    /// is created on the same shard (servers allocate only self-owned
    /// inos), so in the common case dentry and inode governance coincide.
    #[inline]
    pub fn place_top(&self, name: &str) -> ServerId {
        if self.n == 1 {
            return ServerId(0);
        }
        self.rendezvous_bytes(name.as_bytes())
    }

    /// The slice of a `total_blocks`-sized SAN device that shard `sid`
    /// allocates from (and fences). Slices are contiguous, disjoint, and
    /// cover the device; with one shard the slice is the whole device.
    pub fn block_range(&self, sid: ServerId, total_blocks: u64) -> BlockRange {
        debug_assert!(sid.0 < self.n);
        if self.n == 1 {
            return BlockRange::ALL;
        }
        let n = self.n as u64;
        let i = sid.0 as u64;
        BlockRange {
            start: i * total_blocks / n,
            end: (i + 1) * total_blocks / n,
        }
    }

    /// Highest-random-weight choice over the shard set for a numeric key.
    fn rendezvous(&self, key: u64) -> ServerId {
        let mut best = (0u64, ServerId(0));
        for s in 0..self.n {
            let w = mix(key ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(s as u64 + 1)));
            if w > best.0 {
                best = (w, ServerId(s));
            }
        }
        best.1
    }

    /// Rendezvous over a byte-string key (top-level names).
    fn rendezvous_bytes(&self, key: &[u8]) -> ServerId {
        self.rendezvous(fnv1a(key))
    }
}

/// SplitMix64 finalizer: cheap, well-distributed 64-bit mixing. The exact
/// function is arbitrary but must be identical on client and server — it is
/// part of the placement contract, like [`tank_proto::stripe_disk`].
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, folding names into the numeric rendezvous key space.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_degenerates_to_classic_layout() {
        let m = ShardMap::single();
        assert_eq!(m.nshards(), 1);
        assert_eq!(m.root_of(ServerId(0)), Ino(1));
        assert!(m.is_root(Ino(1)));
        assert!(!m.is_root(Ino(2)));
        for i in [1u64, 2, 7, 1000] {
            assert_eq!(m.owner_of(Ino(i)), ServerId(0));
        }
        assert_eq!(m.place_top("f17"), ServerId(0));
        assert_eq!(m.block_range(ServerId(0), 4096), BlockRange::ALL);
    }

    #[test]
    fn the_single_shard_fast_path_agrees_with_rendezvous() {
        // A seeded property check over random inodes and names: one shard
        // answers without hashing, and rendezvous over a one-shard set
        // must give the same answer.
        let m = ShardMap::single();
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(1);
            mix(state)
        };
        for _ in 0..4096 {
            let ino = Ino(next());
            assert_eq!(m.owner_of(ino), m.rendezvous(ino.0), "{ino}");
            let len = (next() % 24) as usize;
            let name: String = (0..len)
                .map(|_| char::from(b' ' + (next() % 95) as u8))
                .collect();
            assert_eq!(
                m.place_top(&name),
                m.rendezvous_bytes(name.as_bytes()),
                "{name:?}"
            );
        }
        for ino in [Ino(0), Ino(1), Ino(2), Ino(u64::MAX)] {
            assert_eq!(m.owner_of(ino), m.rendezvous(ino.0), "{ino}");
        }
    }

    #[test]
    fn roots_are_reserved_and_self_owned() {
        let m = ShardMap::new(4);
        for s in m.servers() {
            let root = m.root_of(s);
            assert!(m.is_root(root));
            assert_eq!(m.owner_of(root), s);
        }
        assert!(!m.is_root(Ino(5)));
        assert!(!m.is_root(Ino(0)));
    }

    #[test]
    fn ownership_is_deterministic_and_total() {
        let m = ShardMap::new(4);
        for i in 5..200u64 {
            let owner = m.owner_of(Ino(i));
            assert!(owner.0 < 4);
            assert_eq!(owner, m.owner_of(Ino(i)), "stable across calls");
        }
    }

    #[test]
    fn ownership_spreads_across_shards() {
        let m = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for i in 5..1005u64 {
            counts[m.owner_of(Ino(i)).0 as usize] += 1;
        }
        // Rendezvous hashing should be roughly uniform: each shard gets
        // 250 ± a wide tolerance out of 1000.
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "shard {s} owns {c}/1000 inos — placement is skewed"
            );
        }
    }

    #[test]
    fn name_placement_spreads_across_shards() {
        let m = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[m.place_top(&format!("f{i}")).0 as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "shard {s} gets {c}/1000 top-level names — placement is skewed"
            );
        }
    }

    #[test]
    fn block_ranges_partition_the_device() {
        let m = ShardMap::new(3);
        let total = 1000u64;
        let ranges: Vec<BlockRange> = m.servers().map(|s| m.block_range(s, total)).collect();
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, total);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile with no gap");
        }
        for r in &ranges {
            assert!(r.end > r.start, "every shard gets a non-empty slice");
        }
    }

    #[test]
    fn growing_the_cluster_moves_a_minority_of_keys() {
        // The rendezvous property: going from n to n+1 shards relocates
        // roughly 1/(n+1) of the keys, not a wholesale reshuffle.
        let m4 = ShardMap::new(4);
        let m5 = ShardMap::new(5);
        let total = 2000u64;
        let moved = (6..6 + total)
            .filter(|&i| {
                let a = m4.owner_of(Ino(i));
                let b = m5.owner_of(Ino(i));
                a != b
            })
            .count() as u64;
        // Expected ~1/5 = 400; allow generous slack.
        assert!(
            moved < total / 2,
            "{moved}/{total} keys moved — not minimal-disruption placement"
        );
    }
}
