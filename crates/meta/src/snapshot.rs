//! Deterministic full-state snapshots of a [`MetaStore`], and the
//! recovery path that rebuilds one from a snapshot plus a WAL suffix.
//!
//! The encoding is canonical — inodes and directories are emitted in
//! sorted order — so two stores holding the same logical state produce
//! the *same bytes*. The failover tests lean on this: a promoted standby
//! is correct iff its snapshot encoding is byte-identical to the shadow
//! model's. It is written with `tank_proto::wire`'s primitives and read
//! with its bounds-checked `Reader`, the datagrams' and the log's byte
//! format: a short snapshot or a flag byte other than 0 or 1 decodes to
//! `None`, never a panic. The `transactions` perf counter is deliberately
//! excluded (reads bump it but are not logged, so it is not recoverable
//! state).

use std::collections::HashMap;

use tank_proto::wire::{Reader, WireDecode, WireEncode, WireError};
use tank_proto::ServerId;
use tank_shard::ShardMap;

use crate::alloc::BlockAllocator;
use crate::inode::{Inode, InodeTable};
use crate::namespace::{by_name, Namespace};
use crate::store::MetaStore;
use crate::txn::Applied;
use crate::wal::{DurableStore, ScanOutcome, WalDefect, WalRecord};

/// Durable counters that live beside the namespace: server-side
/// high-water marks the WAL carries across incarnations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watermarks {
    /// Highest session id ever begun.
    pub session: u64,
    /// Highest lock epoch ever granted.
    pub epoch: u64,
    /// Highest incarnation ever logged.
    pub incarnation: u64,
}

/// Snapshot format version.
const VERSION: u8 = 1;

/// Canonical encoding of a store plus its watermarks.
pub fn encode(store: &MetaStore, wm: &Watermarks) -> Vec<u8> {
    let mut buf = vec![VERSION];
    let b = &mut buf;
    wm.session.put(b);
    wm.epoch.put(b);
    wm.incarnation.put(b);

    // Inode table, sorted by number.
    store.inodes.next.put(b);
    let mut inos: Vec<&Inode> = store.inodes.map.values().collect();
    inos.sort_by_key(|i| i.ino);
    (inos.len() as u32).put(b);
    for inode in inos {
        inode.ino.put(b);
        inode.is_dir.put(b);
        inode.size.put(b);
        inode.mtime.put(b);
        inode.version.put(b);
        inode.nlink.put(b);
        inode.blocks.put(b);
    }

    // Namespace, directories sorted by inode, entries by name.
    store.ns.root.put(b);
    let mut dirs: Vec<_> = store.ns.dirs.iter().collect();
    dirs.sort_by_key(|(ino, _)| **ino);
    (dirs.len() as u32).put(b);
    for (ino, entries) in dirs {
        ino.put(b);
        (entries.len() as u32).put(b);
        for (name, child) in by_name(entries) {
            name.put(b);
            child.put(b);
        }
    }

    // Allocator bitmap and cursor.
    store.alloc.base.put(b);
    store.alloc.total.put(b);
    store.alloc.allocated.put(b);
    (store.alloc.cursor as u64).put(b);
    store.alloc.words.put(b);
    buf
}

/// Decode a snapshot back into a live store. `map`/`sid`/`block_size`
/// are configuration, not state — the caller (the server) supplies the
/// same values it was constructed with. Returns `None` on any
/// malformation instead of panicking.
pub fn decode(
    bytes: &[u8],
    map: ShardMap,
    sid: ServerId,
    block_size: usize,
) -> Option<(MetaStore, Watermarks)> {
    let mut r = Reader::new(bytes);
    if r.byte().ok()? != VERSION {
        return None;
    }
    read(&mut r, map, sid, block_size).ok().flatten()
}

/// The snapshot after its version byte: `Err` where the bytes run out or
/// break the format, `Ok(None)` where they describe an allocator this
/// configuration cannot hold.
fn read(
    r: &mut Reader<'_>,
    map: ShardMap,
    sid: ServerId,
    block_size: usize,
) -> Result<Option<(MetaStore, Watermarks)>, WireError> {
    let wm = Watermarks {
        session: r.get()?,
        epoch: r.get()?,
        incarnation: r.get()?,
    };

    let next = r.get()?;
    let n_inodes = r.get::<u32>()?;
    let mut inodes = InodeTable::new();
    for _ in 0..n_inodes {
        let ino = r.get()?;
        let inode = Inode {
            ino,
            is_dir: r.get()?,
            size: r.get()?,
            mtime: r.get()?,
            version: r.get()?,
            nlink: r.get()?,
            blocks: counted(r)?,
        };
        inodes.map.insert(ino, inode);
    }
    inodes.next = next;

    let mut ns = Namespace::new(r.get()?);
    ns.dirs.clear();
    let n_dirs = r.get::<u32>()?;
    for _ in 0..n_dirs {
        let dir = r.get()?;
        let n_entries = r.get::<u32>()?;
        let mut entries = HashMap::new();
        for _ in 0..n_entries {
            let name = r.get()?;
            entries.insert(name, r.get()?);
        }
        ns.dirs.insert(dir, entries);
    }

    let base = r.get()?;
    let total = r.get()?;
    let allocated = r.get()?;
    let cursor = r.get::<u64>()? as usize;
    let words: Vec<u64> = counted(r)?;
    let mut alloc = BlockAllocator::with_base(base, total);
    if alloc.words.len() != words.len() || cursor >= words.len().max(1) {
        return Ok(None);
    }
    alloc.words = words;
    alloc.allocated = allocated;
    alloc.cursor = cursor;

    Ok(Some((
        MetaStore {
            inodes,
            ns,
            alloc,
            block_size,
            map,
            sid,
            transactions: 0,
        },
        wm,
    )))
}

/// A `u32` count and that many values. Unlike a datagram's vectors the
/// count has no cap but the bytes: the snapshot is the server's own.
fn counted<T: WireDecode>(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
    let n = r.get::<u32>()?;
    (0..n).map(|_| r.get()).collect()
}

/// FNV-1a 64 over arbitrary bytes — the digest the failover tests
/// compare across primary, standby and shadow model.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a live store (canonical encoding).
pub fn store_digest(store: &MetaStore, wm: &Watermarks) -> u64 {
    digest(&encode(store, wm))
}

/// Everything recovery reconstructs from the durable device.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt store.
    pub store: MetaStore,
    /// High-water marks carried across the crash.
    pub watermarks: Watermarks,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Why the log scan stopped early, if it did (torn tail / bit flip).
    pub defect: Option<WalDefect>,
}

/// Apply one WAL record to a store being rebuilt: the watermarks are kept
/// here, a mutation is redone by the function that first did it
/// ([`MetaStore::redo`]). Replay of a valid log prefix onto the matching
/// snapshot base cannot fail; outcomes are debug-asserted rather than
/// unwrapped so a corrupt-but-CRC-valid record degrades instead of
/// panicking.
pub fn apply(store: &mut MetaStore, wm: &mut Watermarks, rec: &WalRecord) {
    match rec {
        WalRecord::SessionWatermark(v) => wm.session = wm.session.max(*v),
        WalRecord::EpochWatermark(v) => wm.epoch = wm.epoch.max(*v),
        WalRecord::Incarnation(v) => wm.incarnation = wm.incarnation.max(*v),
        WalRecord::Create { ino, .. } | WalRecord::Mkdir { ino, .. } => {
            let got = store.redo(rec);
            debug_assert_eq!(got, Ok(Applied::Minted(*ino)), "replay diverged on {rec:?}");
        }
        WalRecord::SetAttr { .. }
        | WalRecord::Unlink { .. }
        | WalRecord::RenameLink { .. }
        | WalRecord::RenameUnlink { .. }
        | WalRecord::Alloc { .. }
        | WalRecord::Commit { .. } => {
            let got = store.redo(rec);
            debug_assert!(got.is_ok(), "replay diverged on {rec:?}");
        }
    }
}

/// Full recovery: truncate the log to its valid prefix, decode the
/// snapshot (or start from a fresh sharded store), and replay the log.
/// The rebuilt store counts no transactions: replay is not one.
/// Never panics — a torn tail or bit-flipped record shrinks the replayed
/// suffix, which is exactly what a real disk would have lost.
pub fn recover(
    durable: &mut DurableStore,
    map: ShardMap,
    sid: ServerId,
    total_blocks: u64,
    block_size: usize,
) -> Recovered {
    let mut wm = Watermarks::default();
    let mut store = match durable.snapshot() {
        Some(bytes) => match decode(bytes, map, sid, block_size) {
            Some((s, w)) => {
                wm = w;
                s
            }
            // Snapshot installs are atomic in the model, so a corrupt
            // snapshot means version skew; start over rather than die.
            None => MetaStore::new_sharded(map, sid, total_blocks, block_size),
        },
        None => MetaStore::new_sharded(map, sid, total_blocks, block_size),
    };
    let ScanOutcome {
        records, defect, ..
    } = durable.recover();
    for rec in &records {
        apply(&mut store, &mut wm, rec);
    }
    // Replay redid transactions an earlier incarnation counted.
    store.transactions = 0;
    Recovered {
        store,
        watermarks: wm,
        replayed: records.len(),
        defect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tank_proto::Ino;

    fn busy_store() -> MetaStore {
        let mut s = MetaStore::new_sharded(ShardMap::new(2), ServerId(0), 4096, 512);
        let root = s.root();
        let d = s.mkdir(root, "dir", 1).unwrap();
        let f = s.create(root, "f", 2).unwrap();
        let g = s.create(d, "g", 3).unwrap();
        s.alloc_blocks(f, 5).unwrap();
        s.commit_write(f, 2000, 4).unwrap();
        s.setattr(f, Some(512), 5).unwrap();
        s.alloc_blocks(g, 2).unwrap();
        s.rename_link(root, "g2", g).unwrap();
        s.rename_unlink(d, "g").unwrap();
        s.create(root, "victim", 6).unwrap();
        s.unlink(root, "victim").unwrap();
        s
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let s = busy_store();
        let wm = Watermarks {
            session: 3,
            epoch: 9,
            incarnation: 2,
        };
        let bytes = encode(&s, &wm);
        let (restored, wm2) = decode(&bytes, ShardMap::new(2), ServerId(0), 512).unwrap();
        assert_eq!(wm, wm2);
        assert_eq!(bytes, encode(&restored, &wm2), "canonical re-encoding");
        assert_eq!(store_digest(&s, &wm), store_digest(&restored, &wm2));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let s = busy_store();
        let bytes = encode(&s, &Watermarks::default());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], ShardMap::new(2), ServerId(0), 512).is_none(),
                "decoded from a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn decode_rejects_a_flag_byte_other_than_0_or_1() {
        let mut bytes = encode(&busy_store(), &Watermarks::default());
        // Version, three watermarks, the inode counter and count, the
        // first inode's number: then its directory flag (the root: 1).
        let at = 1 + 3 * 8 + 8 + 4 + 8;
        assert_eq!(bytes[at], 1);
        bytes[at] = 2;
        assert!(decode(&bytes, ShardMap::new(2), ServerId(0), 512).is_none());
    }

    #[test]
    fn wal_replay_reproduces_the_store_exactly() {
        // Drive a live store and mirror every mutation into a WAL, then
        // recover from the WAL alone and compare canonical encodings.
        let map = ShardMap::new(2);
        let sid = ServerId(1);
        let mut live = MetaStore::new_sharded(map, sid, 4096, 512);
        let mut wal = DurableStore::default();

        let root = live.root();
        let log = |rec: WalRecord, wal: &mut DurableStore| wal.append(&rec);

        let d = live.mkdir(root, "dir", 10).unwrap();
        log(
            WalRecord::Mkdir {
                parent: root,
                name: "dir".into(),
                now: 10,
                ino: d,
            },
            &mut wal,
        );
        let f = live.create(d, "file", 11).unwrap();
        log(
            WalRecord::Create {
                parent: d,
                name: "file".into(),
                now: 11,
                ino: f,
            },
            &mut wal,
        );
        live.alloc_blocks(f, 6).unwrap();
        log(WalRecord::Alloc { ino: f, count: 6 }, &mut wal);
        live.commit_write(f, 3000, 12).unwrap();
        log(
            WalRecord::Commit {
                ino: f,
                new_size: 3000,
                now: 12,
            },
            &mut wal,
        );
        live.setattr(f, Some(512), 13).unwrap();
        log(
            WalRecord::SetAttr {
                ino: f,
                size: Some(512),
                now: 13,
            },
            &mut wal,
        );
        log(WalRecord::SessionWatermark(4), &mut wal);
        wal.fsync();
        wal.crash();

        let rec = recover(&mut wal, map, sid, 4096, 512);
        assert!(rec.defect.is_none());
        assert_eq!(rec.store.transactions(), 0, "replay is no transaction");
        assert_eq!(rec.watermarks.session, 4);
        assert_eq!(
            encode(&rec.store, &rec.watermarks),
            encode(
                &live,
                &Watermarks {
                    session: 4,
                    ..Default::default()
                }
            ),
            "replayed store is byte-identical"
        );
    }

    #[test]
    fn recovery_from_snapshot_plus_suffix() {
        let map = ShardMap::single();
        let sid = ServerId(0);
        let mut live = MetaStore::new_sharded(map, sid, 1024, 512);
        let root = live.root();
        let f = live.create(root, "f", 1).unwrap();
        let wm = Watermarks {
            session: 1,
            epoch: 2,
            incarnation: 1,
        };

        let mut wal = DurableStore::default();
        wal.install_snapshot(encode(&live, &wm));
        // Post-snapshot suffix.
        live.alloc_blocks(f, 3).unwrap();
        wal.append(&WalRecord::Alloc { ino: f, count: 3 });
        wal.fsync();
        // Un-fsynced tail that the crash destroys.
        wal.append(&WalRecord::Commit {
            ino: f,
            new_size: 999,
            now: 2,
        });
        wal.crash();

        let rec = recover(&mut wal, map, sid, 1024, 512);
        assert_eq!(rec.replayed, 1, "only the fsynced suffix survives");
        assert_eq!(rec.store.file_extent(f).unwrap().0.len(), 3);
        assert_eq!(rec.store.file_extent(f).unwrap().1, 0, "commit was lost");
        assert_eq!(rec.watermarks, wm);
    }

    #[test]
    fn torn_tail_recovery_loses_only_the_tail() {
        let map = ShardMap::single();
        let sid = ServerId(0);
        let mut wal = DurableStore::default();
        wal.append(&WalRecord::Create {
            parent: Ino(1),
            name: "kept".into(),
            now: 1,
            ino: Ino(2),
        });
        wal.fsync();
        wal.append(&WalRecord::Create {
            parent: Ino(1),
            name: "torn".into(),
            now: 2,
            ino: Ino(3),
        });
        wal.crash_torn(5);
        let rec = recover(&mut wal, map, sid, 1024, 512);
        assert_eq!(rec.replayed, 1);
        assert!(rec.defect.is_some());
        assert!(rec.store.file_extent(Ino(2)).is_ok());
        assert!(rec.store.file_extent(Ino(3)).is_err());
    }
}
