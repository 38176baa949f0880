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
//! The on-log format is hand-rolled and self-validating: each record is
//! framed as `[len: u32 LE][crc32: u32 LE][payload]`. A torn tail, a
//! partial record at EOF, or a CRC-detected bit flip stops the scan at the
//! last valid record; recovery truncates there and never panics.
//!
//! Replay is a *logical* redo log: records carry the operation and its
//! arguments (including the original timestamps), and every
//! [`crate::MetaStore`] mutation is a deterministic function of prior
//! state plus arguments, so re-executing the ops against the snapshot
//! base reproduces byte-identical state — inode numbers, block maps,
//! version counters and all.

use tank_proto::Ino;

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
/// Sanity bound on one record's payload (names are `u16`-prefixed, so
/// real records are far smaller; anything bigger is garbage).
const MAX_RECORD: usize = 1 << 16;

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
// (the little-endian primitives are shared with the snapshot encoding)

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "name too long for the log");
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader; every getter returns `None` past
/// the end instead of panicking (the log is untrusted input after a
/// crash). Shared with the snapshot decoder.
pub(crate) struct Rd<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Rd { b, off: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() - self.off < n {
            return None;
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.off == self.b.len()
    }
}

impl WalRecord {
    /// Encode the record payload (unframed).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Create {
                parent,
                name,
                now,
                ino,
            } => {
                buf.push(0);
                put_u64(buf, parent.0);
                put_u64(buf, ino.0);
                put_u64(buf, *now);
                put_str(buf, name);
            }
            WalRecord::Mkdir {
                parent,
                name,
                now,
                ino,
            } => {
                buf.push(1);
                put_u64(buf, parent.0);
                put_u64(buf, ino.0);
                put_u64(buf, *now);
                put_str(buf, name);
            }
            WalRecord::SetAttr { ino, size, now } => {
                buf.push(2);
                put_u64(buf, ino.0);
                match size {
                    Some(s) => {
                        buf.push(1);
                        put_u64(buf, *s);
                    }
                    None => buf.push(0),
                }
                put_u64(buf, *now);
            }
            WalRecord::Unlink { parent, name } => {
                buf.push(3);
                put_u64(buf, parent.0);
                put_str(buf, name);
            }
            WalRecord::RenameLink { dir, name, ino } => {
                buf.push(4);
                put_u64(buf, dir.0);
                put_u64(buf, ino.0);
                put_str(buf, name);
            }
            WalRecord::RenameUnlink { dir, name } => {
                buf.push(5);
                put_u64(buf, dir.0);
                put_str(buf, name);
            }
            WalRecord::Alloc { ino, count } => {
                buf.push(6);
                put_u64(buf, ino.0);
                put_u32(buf, *count);
            }
            WalRecord::Commit { ino, new_size, now } => {
                buf.push(7);
                put_u64(buf, ino.0);
                put_u64(buf, *new_size);
                put_u64(buf, *now);
            }
            WalRecord::SessionWatermark(v) => {
                buf.push(8);
                put_u64(buf, *v);
            }
            WalRecord::EpochWatermark(v) => {
                buf.push(9);
                put_u64(buf, *v);
            }
            WalRecord::Incarnation(v) => {
                buf.push(10);
                put_u64(buf, *v);
            }
        }
    }

    /// Decode one record payload. Returns `None` on any malformation —
    /// unknown tag, short buffer, trailing garbage.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Rd::new(payload);
        let rec = match r.u8()? {
            0 => WalRecord::Create {
                parent: Ino(r.u64()?),
                ino: Ino(r.u64()?),
                now: r.u64()?,
                name: r.str()?,
            },
            1 => WalRecord::Mkdir {
                parent: Ino(r.u64()?),
                ino: Ino(r.u64()?),
                now: r.u64()?,
                name: r.str()?,
            },
            2 => WalRecord::SetAttr {
                ino: Ino(r.u64()?),
                size: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return None,
                },
                now: r.u64()?,
            },
            3 => WalRecord::Unlink {
                parent: Ino(r.u64()?),
                name: r.str()?,
            },
            4 => WalRecord::RenameLink {
                dir: Ino(r.u64()?),
                ino: Ino(r.u64()?),
                name: r.str()?,
            },
            5 => WalRecord::RenameUnlink {
                dir: Ino(r.u64()?),
                name: r.str()?,
            },
            6 => WalRecord::Alloc {
                ino: Ino(r.u64()?),
                count: r.u32()?,
            },
            7 => WalRecord::Commit {
                ino: Ino(r.u64()?),
                new_size: r.u64()?,
                now: r.u64()?,
            },
            8 => WalRecord::SessionWatermark(r.u64()?),
            9 => WalRecord::EpochWatermark(r.u64()?),
            10 => WalRecord::Incarnation(r.u64()?),
            _ => return None,
        };
        if !r.done() {
            return None; // trailing garbage inside a checksummed frame
        }
        Some(rec)
    }
}

/// Frame one record (`len` + `crc` + payload) onto `buf`; returns the
/// framed byte count.
pub fn frame(rec: &WalRecord, buf: &mut Vec<u8>) -> usize {
    let mut payload = Vec::new();
    rec.encode(&mut payload);
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc32(&payload));
    buf.extend_from_slice(&payload);
    FRAME_HEADER + payload.len()
}

/// Scan framed records from `bytes`, stopping at the first defect. The
/// returned `valid_len` is the truncation point recovery must cut the
/// log at; everything before it decoded cleanly.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut defect = None;
    while off < bytes.len() {
        if bytes.len() - off < FRAME_HEADER {
            defect = Some(WalDefect::TornFrame);
            break;
        }
        let mut hdr = Rd::new(&bytes[off..off + FRAME_HEADER]);
        let (Some(len), Some(crc)) = (hdr.u32(), hdr.u32()) else {
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
        match WalRecord::decode(payload) {
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
            rec.encode(&mut buf);
            assert_eq!(WalRecord::decode(&buf), Some(rec.clone()), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    WalRecord::decode(&buf[..cut]),
                    None,
                    "{rec:?} decoded from a {cut}-byte prefix"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = Vec::new();
        WalRecord::SessionWatermark(1).encode(&mut buf);
        buf.push(0);
        assert_eq!(WalRecord::decode(&buf), None);
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
            rec.encode(&mut buf);
            prop_assert_eq!(WalRecord::decode(&buf), Some(rec));
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
