//! The hashed namespace against the ordered one it replaced: equal
//! results, listings and snapshot bytes over random streams of links,
//! unlinks, lookups and listings in nested directories, and snapshots
//! that do not depend on the order names were linked in.

#[path = "oracle/tree_namespace.rs"]
mod tree_namespace;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tank_meta::namespace::NsError;
use tank_meta::snapshot::{self, Watermarks};
use tank_meta::{MetaError, MetaStore, Namespace};
use tank_proto::{Ino, ServerId};
use tank_shard::ShardMap;
use tree_namespace::TreeNamespace;

/// A small deterministic generator, so one proptest case can drive a long
/// stream cheaply.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Few names, so they collide; they differ in case, length, prefix and
/// byte order past ASCII, so name order is not insertion order.
const NAMES: [&str; 8] = ["a", "B", "b", "a0", "ab", "é", "z.txt", ""];

/// One step of a stream. `at` picks the directory the step runs in from
/// the root and every inode minted so far — live directories, files and
/// unlinked inodes alike, so `NotADir` comes up as often as the tree is
/// deep; `name` picks from [`NAMES`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Link { at: usize, name: usize, dir: bool },
    Unlink { at: usize, name: usize },
    Lookup { at: usize, name: usize },
    List { at: usize },
}

fn stream(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng(seed | 1);
    (0..len)
        .map(|_| {
            let at = rng.below(1 << 16) as usize;
            let name = rng.below(NAMES.len() as u64) as usize;
            match rng.below(20) {
                0..=8 => Op::Link {
                    at,
                    name,
                    dir: rng.below(5) < 2,
                },
                9..=12 => Op::Unlink { at, name },
                13..=16 => Op::Lookup { at, name },
                _ => Op::List { at },
            }
        })
        .collect()
}

const ROOT: Ino = Ino(1);

/// Run `ops` on the hashed namespace and the oracle, minting inode
/// numbers in order; every result and listing must match. Returns the
/// errors seen.
fn run_namespace(ops: &[Op]) -> Result<Vec<NsError>, TestCaseError> {
    let (mut ns, mut oracle) = (Namespace::new(ROOT), TreeNamespace::new(ROOT));
    let mut places = vec![ROOT];
    let mut errors = Vec::new();
    for &op in ops {
        let (got, want) = match op {
            Op::Link { at, name, dir } => {
                let (parent, child) = (places[at % places.len()], Ino(places.len() as u64 + 1));
                let got = ns.link(parent, NAMES[name], child, dir);
                let want = oracle.link(parent, NAMES[name], child, dir);
                if got.is_ok() {
                    places.push(child);
                }
                (got.map(|()| None), want.map(|()| None))
            }
            Op::Unlink { at, name } => {
                let parent = places[at % places.len()];
                let got = ns.unlink(parent, NAMES[name]);
                (got.map(Some), oracle.unlink(parent, NAMES[name]).map(Some))
            }
            Op::Lookup { at, name } => {
                let parent = places[at % places.len()];
                let got = ns.lookup(parent, NAMES[name]);
                (got.map(Some), oracle.lookup(parent, NAMES[name]).map(Some))
            }
            Op::List { at } => {
                let dir = places[at % places.len()];
                prop_assert_eq!(ns.list(dir), oracle.list(dir), "{:?}", op);
                continue;
            }
        };
        prop_assert_eq!(got, want, "{:?}", op);
        errors.extend(got.err());
    }
    for &ino in &places {
        prop_assert_eq!(ns.is_dir(ino), oracle.is_dir(ino));
        prop_assert_eq!(ns.list(ino), oracle.list(ino));
    }
    Ok(errors)
}

/// Header (version and three watermarks), inode cursor and count.
const INODES_AT: usize = 1 + 3 * 8 + 8 + 4;
/// One inode record with no blocks.
const INODE_LEN: usize = 8 + 1 + 8 + 8 + 8 + 4 + 4;

/// Split `snapshot` of a store that holds `inodes` inodes and no blocks
/// into its namespace section (`ns_len` bytes after the inode table) and
/// what follows it, the allocator's section.
fn namespace_section(snapshot: &[u8], inodes: usize, ns_len: usize) -> (&[u8], &[u8]) {
    let at = INODES_AT + inodes * INODE_LEN;
    let count = u32::from_le_bytes(snapshot[INODES_AT - 4..INODES_AT].try_into().unwrap());
    assert_eq!(count as usize, inodes, "the inode table's count");
    snapshot[at..].split_at(ns_len.min(snapshot.len() - at))
}

/// Run `ops` on a store and on the oracle, which links what the store
/// minted: equal results and listings, and after every step the store's
/// snapshot carries the oracle's namespace section byte for byte. At the
/// end the snapshot decodes into a store that lists the same and encodes
/// to the same bytes.
fn run_store(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut store = MetaStore::new(1024, 512);
    let mut oracle = TreeNamespace::new(store.root());
    let wm = Watermarks::default();
    let fresh = snapshot::encode(&store, &wm);
    let alloc_section = namespace_section(&fresh, 1, oracle.encode().len())
        .1
        .to_vec();
    let mut places = vec![store.root()];
    let mut live = 1;
    let meta = MetaError::from;
    for (now, &op) in (1..).zip(ops) {
        let (got, want) = match op {
            Op::Link { at, name, dir } => {
                let parent = places[at % places.len()];
                let got = if dir {
                    store.mkdir(parent, NAMES[name], now)
                } else {
                    store.create(parent, NAMES[name], now)
                };
                // A refused link mints nothing; the oracle must refuse it
                // too, whatever number it is offered.
                let child = *got.as_ref().unwrap_or(&Ino(u64::MAX));
                let want = oracle.link(parent, NAMES[name], child, dir);
                if got.is_ok() {
                    places.push(child);
                    live += 1;
                }
                (got.map(Some), want.map(|()| Some(child)).map_err(meta))
            }
            Op::Unlink { at, name } => {
                let parent = places[at % places.len()];
                let got = store.unlink(parent, NAMES[name]);
                live -= usize::from(got.is_ok());
                (
                    got.map(Some),
                    oracle.unlink(parent, NAMES[name]).map(Some).map_err(meta),
                )
            }
            Op::Lookup { at, name } => {
                let parent = places[at % places.len()];
                let got = store.lookup(parent, NAMES[name]).map(|(ino, _)| Some(ino));
                (
                    got,
                    oracle.lookup(parent, NAMES[name]).map(Some).map_err(meta),
                )
            }
            Op::List { at } => {
                let dir = places[at % places.len()];
                let want = oracle.list(dir).map_err(meta);
                prop_assert_eq!(store.readdir(dir), want, "{:?}", op);
                (Ok(None), Ok(None))
            }
        };
        prop_assert_eq!(got, want, "{:?}", op);
        let bytes = snapshot::encode(&store, &wm);
        let want = oracle.encode();
        let (section, rest) = namespace_section(&bytes, live, want.len());
        prop_assert_eq!(section, &want[..], "namespace section after {:?}", op);
        prop_assert_eq!(rest, &alloc_section[..], "allocator section after {:?}", op);
    }
    let bytes = snapshot::encode(&store, &wm);
    let (mut restored, _) = snapshot::decode(&bytes, ShardMap::single(), ServerId(0), 512).unwrap();
    prop_assert_eq!(
        snapshot::encode(&restored, &wm),
        bytes,
        "decode then encode"
    );
    for &ino in &places {
        prop_assert_eq!(
            restored.readdir(ino),
            oracle.list(ino).map_err(MetaError::from)
        );
    }
    Ok(())
}

/// A store holding one fixed tree, its names linked in an order drawn
/// from `seed`: `dirs` nested directories made in a fixed order, then
/// `files` files minted under temporary names and moved to their final
/// `(directory, name)` in the drawn order. Every seed gives the same tree.
fn tree_linked_in_order(dirs: usize, files: usize, seed: u64) -> MetaStore {
    let mut rng = Rng(0x7eee);
    let mut store = MetaStore::new(1024, 512);
    let mut dir_inos = vec![store.root()];
    for d in 0..dirs {
        let parent = dir_inos[rng.below(dir_inos.len() as u64) as usize];
        dir_inos.push(store.mkdir(parent, &format!("d{d}"), 1).unwrap());
    }
    let root = store.root();
    let placed: Vec<(Ino, Ino, String)> = (0..files)
        .map(|f| {
            let ino = store.create(root, &format!("t{f}"), 2).unwrap();
            let dir = dir_inos[rng.below(dir_inos.len() as u64) as usize];
            (ino, dir, format!("f{f}.{}", rng.below(1000)))
        })
        .collect();
    let mut order: Vec<usize> = (0..files).collect();
    let mut shuffle = Rng(seed | 1);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.below(i as u64 + 1) as usize);
    }
    for f in order {
        let (ino, dir, name) = &placed[f];
        assert_eq!(store.rename_unlink(root, &format!("t{f}")), Ok(*ino));
        store.rename_link(*dir, name, *ino).unwrap();
    }
    store
}

proptest! {
    /// Link, unlink, lookup and list agree with the ordered namespace,
    /// error for error.
    #[test]
    fn the_namespace_agrees_with_the_ordered_one(seed in any::<u64>()) {
        run_namespace(&stream(seed, 400))?;
    }

    /// Through the store, results, listings and snapshot bytes agree with
    /// the ordered namespace after every step.
    #[test]
    fn store_snapshots_agree_with_the_ordered_namespace(seed in any::<u64>()) {
        run_store(&stream(seed, 200))?;
    }

    /// The same tree linked in two orders snapshots to the same bytes.
    #[test]
    fn the_order_names_were_linked_in_leaves_no_trace_in_a_snapshot(
        dirs in 0usize..6,
        files in 2usize..40,
        seed_one in any::<u64>(),
        seed_two in any::<u64>(),
    ) {
        let (mut one, mut two) = (
            tree_linked_in_order(dirs, files, seed_one),
            tree_linked_in_order(dirs, files, seed_two),
        );
        for ino in (1..=dirs as u64 + 1).map(Ino) {
            prop_assert_eq!(one.readdir(ino), two.readdir(ino));
        }
        let wm = Watermarks::default();
        let (a, b) = (snapshot::encode(&one, &wm), snapshot::encode(&two, &wm));
        let first = a.iter().zip(&b).position(|(x, y)| x != y);
        prop_assert_eq!(a, b, "the snapshots differ from byte {:?} on", first);
    }
}

/// The streams are strong enough to matter: across the proptest's seeds
/// they reach every namespace error, not only the easy ones.
#[test]
fn the_streams_reach_every_namespace_error() {
    let mut seen = Vec::new();
    for seed in 0..64 {
        seen.extend(run_namespace(&stream(seed, 400)).unwrap());
    }
    for e in [
        NsError::NotADir,
        NsError::NotFound,
        NsError::Exists,
        NsError::NotEmpty,
    ] {
        assert!(seen.contains(&e), "no stream produced {e:?}");
    }
}
