//! Write-ahead logging for the metadata store.
//!
//! The paper keeps metadata on the server's *private* storage (§1.1); this
//! module is that storage made honest. Every namespace / allocation /
//! lease-bookkeeping mutation is encoded as a [`WalRecord`] and appended to
//! a [`DurableStore`] **before** the server acknowledges the operation; an
//! explicit [`DurableStore::fsync`] marks the group-commit point. A crash
//! truncates the log to the last fsync — exactly the bytes a real disk
//! promises — and recovery replays the surviving prefix onto a fresh
//! [`crate::MetaStore`].
//!
//! The on-log format is self-validating: each record is framed as
//! `[len: u32 LE][crc32: u32 LE][payload]`, and the payload is the
//! record in `tank_proto::wire`'s byte format, declared once in the
//! table below (the datagrams' primitives and flag rule). A torn tail, a
//! partial record at EOF, or a CRC-detected bit flip stops the scan at
//! the last valid record; recovery truncates there and never panics.
//!
//! Replay is a *logical* redo log: records carry the operation and its
//! arguments (including the original timestamps), and every
//! [`crate::MetaStore`] mutation is a deterministic function of prior
//! state plus arguments, so re-executing the ops against the snapshot
//! base reproduces byte-identical state — inode numbers, block maps,
//! version counters and all.

use tank_proto::wire::{Reader, WireEncode};
use tank_proto::{Ino, MAX_NAME};

/// One logged metadata mutation (or durable watermark).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// `MetaStore::create(parent, name, now)` succeeded, minting `ino`.
    /// The minted number is redundant under deterministic replay; it is
    /// logged so the cross-incarnation audit can prove no ino is ever
    /// minted twice.
    Create {
        /// Parent directory.
        parent: Ino,
        /// New entry name.
        name: String,
        /// Mutation timestamp (server-local ns at original execution).
        /// Replay reuses it so `mtime`/digests match.
        now: u64,
        /// The inode the original execution minted.
        ino: Ino,
    },
    /// `MetaStore::mkdir` succeeded.
    Mkdir {
        /// Parent directory.
        parent: Ino,
        /// New directory name.
        name: String,
        /// Mutation timestamp.
        now: u64,
        /// The inode the original execution minted.
        ino: Ino,
    },
    /// `MetaStore::setattr` succeeded.
    SetAttr {
        /// Target inode.
        ino: Ino,
        /// New size, if the attr set included one.
        size: Option<u64>,
        /// Mutation timestamp.
        now: u64,
    },
    /// `MetaStore::unlink` succeeded.
    Unlink {
        /// Parent directory.
        parent: Ino,
        /// Removed entry name.
        name: String,
    },
    /// `MetaStore::rename_link` succeeded (destination half).
    RenameLink {
        /// Destination directory.
        dir: Ino,
        /// New name.
        name: String,
        /// Linked inode (may be foreign — cross-shard rename).
        ino: Ino,
    },
    /// `MetaStore::rename_unlink` succeeded (source half).
    RenameUnlink {
        /// Source directory.
        dir: Ino,
        /// Removed name.
        name: String,
    },
    /// `MetaStore::alloc_blocks` succeeded. The allocator is deterministic
    /// (rotating-cursor first-fit), so count suffices to reproduce the
    /// exact block list.
    Alloc {
        /// File the blocks were appended to.
        ino: Ino,
        /// How many blocks were allocated.
        count: u32,
    },
    /// `MetaStore::commit_write` succeeded.
    Commit {
        /// Committed file.
        ino: Ino,
        /// Size the client hardened to the SAN.
        new_size: u64,
        /// Mutation timestamp.
        now: u64,
    },
    /// Session-id high-water mark: the server began a session with this
    /// id. Recovery restores the counter so no post-crash incarnation can
    /// ever re-mint a session id a surviving client still holds (the
    /// restart-replay hole: a stale retransmit admitted under a colliding
    /// fresh session would re-execute).
    SessionWatermark(u64),
    /// Lock-epoch high-water mark: the lock table granted an epoch `<=`
    /// this value. Volatile lock state is *meant* to die with the server
    /// (leases re-establish it), but epochs must never regress across
    /// incarnations or fence checks lose their ordering.
    EpochWatermark(u64),
    /// The server came up as this incarnation. Strictly increasing across
    /// the log; recovery resumes from `max + 1`.
    Incarnation(u64),
}

/// Why a log scan stopped before the end of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalDefect {
    /// Fewer bytes than a frame header, or fewer than the header's length
    /// claims — the torn tail a crash mid-write leaves.
    TornFrame,
    /// Frame checksum mismatch (bit flip, or a tear that landed inside
    /// the payload).
    BadCrc,
    /// Checksum passed but the payload does not decode as a record —
    /// only possible under version skew or memory corruption.
    BadPayload,
}

/// Result of scanning a log byte range.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Records recovered, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (truncation point).
    pub valid_len: usize,
    /// Why the scan stopped early, if it did.
    pub defect: Option<WalDefect>,
}

/// Frame header: `len: u32` + `crc: u32`.
const FRAME_HEADER: usize = 8;
/// Sanity bound on one record's payload: real records are far smaller,
/// anything bigger is garbage.
const MAX_RECORD: usize = 1 << 16;

// The largest record — a tag, three `u64`s and a name of `MAX_NAME`
// bytes behind its `u16` length — fits the bound, so every record the
// store builds can be scanned back.
const _: () = assert!(1 + 3 * 8 + 2 + MAX_NAME <= MAX_RECORD);

// ---------------------------------------------------------------- crc32

/// IEEE CRC-32 (reflected, poly 0xEDB88320) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ------------------------------------------------------------- codec

// Each record's tag, then its fields in log order.
tank_proto::wire! {
    enum WalRecord {
        0 => Create { parent, ino, now, name },
        1 => Mkdir { parent, ino, now, name },
        2 => SetAttr { ino, size, now },
        3 => Unlink { parent, name },
        4 => RenameLink { dir, ino, name },
        5 => RenameUnlink { dir, name },
        6 => Alloc { ino, count },
        7 => Commit { ino, new_size, now },
        8 => SessionWatermark(v),
        9 => EpochWatermark(v),
        10 => Incarnation(v),
    }
}

/// Decode one record payload. `None` on any malformation — unknown tag,
/// short buffer, a flag byte other than 0 or 1, trailing garbage.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    let rec = r.get().ok()?;
    (r.remaining() == 0).then_some(rec)
}

/// Frame one record (`len` + `crc` + payload) onto `buf`; returns the
/// framed byte count.
pub fn frame(rec: &WalRecord, buf: &mut Vec<u8>) -> usize {
    // The payload is written in place behind a blank header, then the
    // header is filled in from it.
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    rec.put(buf);
    let len = buf.len() - start - FRAME_HEADER;
    let crc = crc32(&buf[start + FRAME_HEADER..]);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    FRAME_HEADER + len
}

/// Scan framed records from `bytes`, stopping at the first defect. The
/// returned `valid_len` is the truncation point recovery must cut the
/// log at; everything before it decoded cleanly.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut defect = None;
    while off < bytes.len() {
        let mut hdr = Reader::new(&bytes[off..]);
        let (Ok(len), Ok(crc)) = (hdr.get::<u32>(), hdr.get::<u32>()) else {
            defect = Some(WalDefect::TornFrame);
            break;
        };
        let len = len as usize;
        if len > MAX_RECORD || bytes.len() - off - FRAME_HEADER < len {
            defect = Some(WalDefect::TornFrame);
            break;
        }
        let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crc32(payload) != crc {
            defect = Some(WalDefect::BadCrc);
            break;
        }
        match decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => {
                defect = Some(WalDefect::BadPayload);
                break;
            }
        }
        off += FRAME_HEADER + len;
    }
    ScanOutcome {
        records,
        valid_len: off,
        defect,
    }
}

// ------------------------------------------------------ durable store

/// Append / fsync / compaction counters, surfaced as observability
/// metrics by the server.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Group-commit points that actually hardened new bytes.
    pub fsyncs: u64,
    /// Snapshot installs that truncated the log.
    pub compactions: u64,
}

/// The modeled private metadata device: a snapshot area plus a log, with
/// an explicit durability watermark. Bytes past the watermark are the
/// OS-buffered tail a crash destroys; [`DurableStore::fsync`] advances
/// the watermark (group commit: one fsync hardens every append since the
/// last).
#[derive(Debug, Clone)]
pub struct DurableStore {
    /// Last installed snapshot (atomic install models write-then-rename).
    snapshot: Option<Vec<u8>>,
    /// Snapshot generation, bumped on every install.
    snap_gen: u64,
    /// Log bytes since the snapshot.
    log: Vec<u8>,
    /// Bytes guaranteed to survive a crash.
    durable: usize,
    /// Log size (durable bytes) beyond which the owner should compact.
    compact_threshold: usize,
    stats: WalStats,
}

/// Default compaction threshold: small enough that the long experiments
/// actually exercise compaction, large enough to amortize snapshots.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 64 * 1024;

impl Default for DurableStore {
    fn default() -> Self {
        DurableStore::new(DEFAULT_COMPACT_THRESHOLD)
    }
}

impl DurableStore {
    /// Empty store with the given compaction threshold (bytes of durable
    /// log).
    pub fn new(compact_threshold: usize) -> Self {
        DurableStore {
            snapshot: None,
            snap_gen: 0,
            log: Vec::new(),
            durable: 0,
            compact_threshold,
            stats: WalStats::default(),
        }
    }

    /// Append one record (buffered — not durable until [`Self::fsync`]).
    pub fn append(&mut self, rec: &WalRecord) {
        frame(rec, &mut self.log);
        self.stats.appends += 1;
    }

    /// Group-commit point: harden everything appended so far. Returns
    /// `true` if the watermark actually advanced (a no-op fsync is free
    /// and not counted).
    pub fn fsync(&mut self) -> bool {
        if self.durable == self.log.len() {
            return false;
        }
        self.durable = self.log.len();
        self.stats.fsyncs += 1;
        true
    }

    /// Fail-stop: the buffered tail is gone.
    pub fn crash(&mut self) {
        self.log.truncate(self.durable);
    }

    /// Fail-stop that tears the record straddling the durability
    /// watermark: `extra` bytes of the buffered tail made it to the
    /// platter before power died. Recovery must truncate them away.
    pub fn crash_torn(&mut self, extra: usize) {
        let keep = (self.durable + extra).min(self.log.len());
        self.log.truncate(keep);
    }

    /// Flip a bit in the log (fault injection for CRC tests).
    pub fn corrupt_byte(&mut self, idx: usize) {
        if let Some(b) = self.log.get_mut(idx) {
            *b ^= 0x40;
        }
    }

    /// Whether the durable log has outgrown the compaction threshold.
    pub fn needs_compaction(&self) -> bool {
        self.durable > self.compact_threshold
    }

    /// Install a snapshot and truncate the log. The caller must have
    /// fsynced first — a snapshot of state the log does not yet cover
    /// would lose the un-hardened ops' durability story.
    pub fn install_snapshot(&mut self, bytes: Vec<u8>) {
        debug_assert_eq!(self.durable, self.log.len(), "compact before fsync");
        self.snapshot = Some(bytes);
        self.snap_gen += 1;
        self.log.clear();
        self.durable = 0;
        self.stats.compactions += 1;
    }

    /// Scan the (post-crash) log, truncate it to the last valid record,
    /// and return everything recovered. Never panics: torn tails, bit
    /// flips and partial records shrink the result instead.
    pub fn recover(&mut self) -> ScanOutcome {
        let outcome = scan(&self.log);
        self.log.truncate(outcome.valid_len);
        self.durable = outcome.valid_len;
        outcome
    }

    /// The installed snapshot, if any.
    pub fn snapshot(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }

    /// Snapshot generation.
    pub fn snap_gen(&self) -> u64 {
        self.snap_gen
    }

    /// Full log bytes (durable + buffered tail).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Bytes below the durability watermark.
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// Durable log bytes from `offset` on — what a primary ships to a
    /// standby that has acknowledged up to `offset`.
    pub fn durable_delta(&self, offset: usize) -> &[u8] {
        let start = offset.min(self.durable);
        &self.log[start..self.durable]
    }

    /// Counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Standby-side ingest of a replication shipment. Cumulative and
    /// idempotent: shipments are deltas from the primary's last *acked*
    /// offset, so duplicates and overlaps append only the genuinely new
    /// tail, and a gap (offset beyond our length) is ignored until the
    /// primary retransmits from lower. Returns `true` if local state
    /// advanced.
    pub fn ingest(
        &mut self,
        snap_gen: u64,
        snapshot: Option<&[u8]>,
        offset: u64,
        bytes: &[u8],
        durable: u64,
    ) -> bool {
        let mut advanced = false;
        if snap_gen > self.snap_gen {
            // The primary compacted past us; we cannot interpret its log
            // offsets without the new base.
            let Some(snap) = snapshot else {
                return false;
            };
            self.snapshot = Some(snap.to_vec());
            self.snap_gen = snap_gen;
            self.log.clear();
            self.durable = 0;
            advanced = true;
        } else if snap_gen < self.snap_gen {
            return false; // stale shipment from before our snapshot
        }
        let offset = offset as usize;
        if offset <= self.log.len() {
            let have = self.log.len() - offset;
            if bytes.len() > have {
                self.log.extend_from_slice(&bytes[have..]);
                advanced = true;
            }
        }
        // Mirror the primary's fsync watermark, clamped to what we hold.
        let durable = (durable as usize).min(self.log.len());
        if durable > self.durable {
            self.durable = durable;
            advanced = true;
        }
        advanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Incarnation(1),
            WalRecord::Create {
                parent: Ino(1),
                name: "a.txt".into(),
                now: 42,
                ino: Ino(2),
            },
            WalRecord::Mkdir {
                parent: Ino(1),
                name: "dir".into(),
                now: 43,
                ino: Ino(3),
            },
            WalRecord::SetAttr {
                ino: Ino(2),
                size: Some(4096),
                now: 44,
            },
            WalRecord::SetAttr {
                ino: Ino(2),
                size: None,
                now: 45,
            },
            WalRecord::Alloc {
                ino: Ino(2),
                count: 7,
            },
            WalRecord::Commit {
                ino: Ino(2),
                new_size: 3000,
                now: 46,
            },
            WalRecord::RenameLink {
                dir: Ino(3),
                name: "b".into(),
                ino: Ino(2),
            },
            WalRecord::RenameUnlink {
                dir: Ino(1),
                name: "a.txt".into(),
            },
            WalRecord::Unlink {
                parent: Ino(3),
                name: "b".into(),
            },
            WalRecord::SessionWatermark(9),
            WalRecord::EpochWatermark(17),
        ]
    }

    #[test]
    fn record_roundtrip() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.put(&mut buf);
            assert_eq!(decode_payload(&buf), Some(rec.clone()), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.put(&mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_payload(&buf[..cut]),
                    None,
                    "{rec:?} decoded from a {cut}-byte prefix"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_a_flag_byte_other_than_0_or_1() {
        let mut buf = Vec::new();
        WalRecord::SetAttr {
            ino: Ino(2),
            size: Some(4096),
            now: 44,
        }
        .put(&mut buf);
        assert_eq!(buf[9], 1, "the size flag follows the tag and the ino");
        buf[9] = 2;
        assert_eq!(decode_payload(&buf), None);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = Vec::new();
        WalRecord::SessionWatermark(1).put(&mut buf);
        buf.push(0);
        assert_eq!(decode_payload(&buf), None);
    }

    #[test]
    fn scan_recovers_everything_fsynced() {
        let mut store = DurableStore::default();
        let recs = sample_records();
        for r in &recs {
            store.append(r);
        }
        assert!(store.fsync());
        assert!(!store.fsync(), "idempotent fsync is free");
        store.crash();
        let out = store.recover();
        assert_eq!(out.records, recs);
        assert!(out.defect.is_none());
    }

    #[test]
    fn crash_loses_the_unsynced_tail() {
        let mut store = DurableStore::default();
        store.append(&WalRecord::Incarnation(1));
        store.fsync();
        store.append(&WalRecord::SessionWatermark(5));
        store.crash(); // second record never hardened
        let out = store.recover();
        assert_eq!(out.records, vec![WalRecord::Incarnation(1)]);
        assert!(out.defect.is_none(), "clean cut at the watermark");
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let mut store = DurableStore::default();
        store.append(&WalRecord::Incarnation(1));
        store.fsync();
        store.append(&WalRecord::EpochWatermark(3));
        for extra in 1..(FRAME_HEADER + 9) {
            let mut torn = store.clone();
            torn.crash_torn(extra);
            let out = torn.recover();
            assert_eq!(
                out.records,
                vec![WalRecord::Incarnation(1)],
                "torn tail of {extra} bytes"
            );
            assert_eq!(out.defect, Some(WalDefect::TornFrame));
            assert_eq!(torn.log_len(), out.valid_len, "log truncated");
        }
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let mut store = DurableStore::default();
        store.append(&WalRecord::Incarnation(1));
        store.append(&WalRecord::SessionWatermark(2));
        store.fsync();
        let first_len = {
            let mut probe = DurableStore::default();
            probe.append(&WalRecord::Incarnation(1));
            probe.log_len()
        };
        // Flip a payload byte of the *second* record.
        store.corrupt_byte(first_len + FRAME_HEADER);
        let out = store.recover();
        assert_eq!(out.records, vec![WalRecord::Incarnation(1)]);
        assert_eq!(out.defect, Some(WalDefect::BadCrc));
    }

    #[test]
    fn compaction_resets_the_log_and_bumps_gen() {
        let mut store = DurableStore::new(8);
        store.append(&WalRecord::SessionWatermark(1));
        store.append(&WalRecord::SessionWatermark(2));
        store.fsync();
        assert!(store.needs_compaction());
        store.install_snapshot(vec![0xAA; 4]);
        assert_eq!(store.snap_gen(), 1);
        assert_eq!(store.log_len(), 0);
        assert_eq!(store.snapshot(), Some(&[0xAA; 4][..]));
        assert_eq!(store.stats().compactions, 1);
        assert!(!store.needs_compaction());
    }

    #[test]
    fn ingest_is_cumulative_and_gap_safe() {
        let mut primary = DurableStore::default();
        let mut standby = DurableStore::default();
        primary.append(&WalRecord::Incarnation(1));
        primary.fsync();
        let d1 = primary.durable_len();
        // First shipment applies.
        assert!(standby.ingest(0, None, 0, primary.durable_delta(0), d1 as u64));
        // Duplicate shipment is a no-op.
        assert!(!standby.ingest(0, None, 0, primary.durable_delta(0), d1 as u64));
        primary.append(&WalRecord::SessionWatermark(7));
        primary.fsync();
        // A gapped shipment (offset beyond what we hold) is ignored...
        let bogus = standby.ingest(
            0,
            None,
            primary.durable_len() as u64,
            &[],
            primary.durable_len() as u64,
        );
        assert!(!bogus || standby.log_len() == primary.durable_len());
        // ...and a cumulative retransmit from the acked offset heals it.
        assert!(standby.ingest(
            0,
            None,
            0,
            primary.durable_delta(0),
            primary.durable_len() as u64
        ));
        let out = standby.recover();
        assert_eq!(
            out.records,
            vec![WalRecord::Incarnation(1), WalRecord::SessionWatermark(7)]
        );
    }

    #[test]
    fn ingest_snapshot_generation_change() {
        let mut standby = DurableStore::default();
        standby.append(&WalRecord::Incarnation(1));
        standby.fsync();
        // Shipment from a newer generation without the snapshot: refused.
        assert!(!standby.ingest(2, None, 0, &[0, 1, 2], 3));
        // With the snapshot: installed, log reset, delta applied.
        let mut delta = Vec::new();
        frame(&WalRecord::EpochWatermark(4), &mut delta);
        assert!(standby.ingest(2, Some(&[0xBB; 3]), 0, &delta, delta.len() as u64));
        assert_eq!(standby.snap_gen(), 2);
        assert_eq!(standby.snapshot(), Some(&[0xBB; 3][..]));
        assert_eq!(
            standby.recover().records,
            vec![WalRecord::EpochWatermark(4)]
        );
        // Stale shipment from the old generation: refused.
        assert!(!standby.ingest(1, None, 0, &[9, 9], 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z0-9_.]{1,24}"
    }

    fn arb_record() -> impl Strategy<Value = WalRecord> {
        prop_oneof![
            (any::<u64>(), arb_name(), any::<u64>(), any::<u64>()).prop_map(|(p, name, now, i)| {
                WalRecord::Create {
                    parent: Ino(p),
                    name,
                    now,
                    ino: Ino(i),
                }
            }),
            (any::<u64>(), arb_name(), any::<u64>(), any::<u64>()).prop_map(|(p, name, now, i)| {
                WalRecord::Mkdir {
                    parent: Ino(p),
                    name,
                    now,
                    ino: Ino(i),
                }
            }),
            (
                any::<u64>(),
                proptest::option::of(any::<u64>()),
                any::<u64>()
            )
                .prop_map(|(i, size, now)| WalRecord::SetAttr {
                    ino: Ino(i),
                    size,
                    now,
                }),
            (any::<u64>(), arb_name()).prop_map(|(p, name)| WalRecord::Unlink {
                parent: Ino(p),
                name,
            }),
            (any::<u64>(), arb_name(), any::<u64>()).prop_map(|(d, name, i)| {
                WalRecord::RenameLink {
                    dir: Ino(d),
                    name,
                    ino: Ino(i),
                }
            }),
            (any::<u64>(), arb_name())
                .prop_map(|(d, name)| WalRecord::RenameUnlink { dir: Ino(d), name }),
            (any::<u64>(), any::<u32>())
                .prop_map(|(i, count)| WalRecord::Alloc { ino: Ino(i), count }),
            (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(i, s, now)| {
                WalRecord::Commit {
                    ino: Ino(i),
                    new_size: s,
                    now,
                }
            }),
            any::<u64>().prop_map(WalRecord::SessionWatermark),
            any::<u64>().prop_map(WalRecord::EpochWatermark),
            any::<u64>().prop_map(WalRecord::Incarnation),
        ]
    }

    proptest! {
        #[test]
        fn codec_roundtrips(rec in arb_record()) {
            let mut buf = Vec::new();
            rec.put(&mut buf);
            prop_assert_eq!(decode_payload(&buf), Some(rec));
        }

        #[test]
        fn framed_stream_roundtrips(recs in proptest::collection::vec(arb_record(), 0..32)) {
            let mut buf = Vec::new();
            for r in &recs {
                frame(r, &mut buf);
            }
            let out = scan(&buf);
            prop_assert_eq!(out.records, recs);
            prop_assert_eq!(out.valid_len, buf.len());
            prop_assert!(out.defect.is_none());
        }

        #[test]
        fn truncated_stream_never_panics_and_yields_a_prefix(
            recs in proptest::collection::vec(arb_record(), 1..16),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut buf = Vec::new();
            for r in &recs {
                frame(r, &mut buf);
            }
            let cut = ((buf.len() as f64) * cut_frac) as usize;
            let out = scan(&buf[..cut]);
            prop_assert!(out.valid_len <= cut);
            prop_assert!(out.records.len() <= recs.len());
            for (got, want) in out.records.iter().zip(recs.iter()) {
                prop_assert_eq!(got, want);
            }
        }

        #[test]
        fn corrupted_stream_never_panics(
            recs in proptest::collection::vec(arb_record(), 1..16),
            idx_frac in 0.0f64..1.0,
        ) {
            let mut buf = Vec::new();
            for r in &recs {
                frame(r, &mut buf);
            }
            let idx = (((buf.len() - 1) as f64) * idx_frac) as usize;
            buf[idx] ^= 0x10;
            let _ = scan(&buf); // must not panic; prefix may shrink
        }
    }
}
