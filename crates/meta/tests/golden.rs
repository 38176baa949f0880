//! The log and snapshot formats, pinned to literal bytes. One value of
//! every `WalRecord` variant frames (`len`, `crc32`, payload) to exactly
//! the bytes written here and scans back to the value, and the canonical
//! snapshot of a fixed store has a pinned length and digest and decodes
//! to a store that re-encodes to the same bytes. A log or snapshot left
//! on the private device by one build must recover under the next, so
//! these bytes may not move.

use tank_meta::snapshot::{self, Watermarks};
use tank_meta::wal::{frame, scan};
use tank_meta::{MetaStore, WalRecord};
use tank_proto::{Ino, ServerId};
use tank_shard::ShardMap;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).expect("ascii"), 16).expect("hex"))
        .collect()
}

/// Every case: a label, the record, and its framed bytes.
fn cases() -> Vec<(&'static str, WalRecord, &'static str)> {
    vec![
        (
            "Create",
            WalRecord::Create {
                parent: Ino(1),
                name: "a.txt".into(),
                now: 42,
                ino: Ino(2),
            },
            "20000000 1d024040 00 010000000000000002000000000000002a000000000000000500612e747874",
        ),
        (
            "Mkdir",
            WalRecord::Mkdir {
                parent: Ino(1),
                name: "dir".into(),
                now: 43,
                ino: Ino(3),
            },
            "1e000000 feab8072 01 010000000000000003000000000000002b000000000000000300646972",
        ),
        (
            "SetAttr size",
            WalRecord::SetAttr {
                ino: Ino(2),
                size: Some(4096),
                now: 44,
            },
            "1a000000 15f0dd47 02 02000000000000000100100000000000002c00000000000000",
        ),
        (
            "SetAttr no size",
            WalRecord::SetAttr {
                ino: Ino(2),
                size: None,
                now: 45,
            },
            "12000000 8e4380d4 02 0200000000000000002d00000000000000",
        ),
        (
            "Unlink",
            WalRecord::Unlink {
                parent: Ino(3),
                name: "b".into(),
            },
            "0c000000 dd18d737 03 0300000000000000010062",
        ),
        (
            "RenameLink",
            WalRecord::RenameLink {
                dir: Ino(3),
                name: "b".into(),
                ino: Ino(2),
            },
            "14000000 ff257c18 04 03000000000000000200000000000000010062",
        ),
        (
            "RenameUnlink",
            WalRecord::RenameUnlink {
                dir: Ino(1),
                name: "a.txt".into(),
            },
            "10000000 ab62e87a 05 01000000000000000500612e747874",
        ),
        (
            "Alloc",
            WalRecord::Alloc {
                ino: Ino(2),
                count: 7,
            },
            "0d000000 793f7dde 06 020000000000000007000000",
        ),
        (
            "Commit",
            WalRecord::Commit {
                ino: Ino(2),
                new_size: 3000,
                now: 46,
            },
            "19000000 eadf5a12 07 0200000000000000b80b0000000000002e00000000000000",
        ),
        (
            "SessionWatermark",
            WalRecord::SessionWatermark(9),
            "09000000 9dad9e42 08 0900000000000000",
        ),
        (
            "EpochWatermark",
            WalRecord::EpochWatermark(17),
            "09000000 4093bbfa 09 1100000000000000",
        ),
        (
            "Incarnation",
            WalRecord::Incarnation(1),
            "09000000 ae9e8dbf 0a 0100000000000000",
        ),
    ]
}

#[test]
fn every_record_frames_to_its_pinned_bytes_and_back() {
    let mut wrong = Vec::new();
    for (label, rec, want) in cases() {
        let mut got = Vec::new();
        let n = frame(&rec, &mut got);
        if hex(&got) != hex(&unhex(want)) || n != got.len() {
            wrong.push(format!("{label}: frames to {} ({n} reported)", hex(&got)));
            continue;
        }
        let out = scan(&unhex(want));
        if out.records != [rec.clone()] || out.defect.is_some() {
            wrong.push(format!("{label}: scans to {out:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_snapshot_of_a_fixed_store_has_its_pinned_digest() {
    let mut s = MetaStore::new_sharded(ShardMap::new(2), ServerId(0), 4096, 512);
    let root = s.root();
    let d = s.mkdir(root, "dir", 1).expect("mkdir");
    let f = s.create(root, "f", 2).expect("create");
    let g = s.create(d, "g", 3).expect("create");
    s.alloc_blocks(f, 5).expect("alloc");
    s.commit_write(f, 2000, 4).expect("commit");
    s.setattr(f, Some(512), 5).expect("setattr");
    s.alloc_blocks(g, 2).expect("alloc");
    s.rename_link(root, "g2", g).expect("link");
    s.rename_unlink(d, "g").expect("unlink");
    s.create(root, "victim", 6).expect("create");
    s.unlink(root, "victim").expect("unlink");
    let wm = Watermarks {
        session: 3,
        epoch: 9,
        incarnation: 2,
    };
    let bytes = snapshot::encode(&s, &wm);
    assert_eq!(
        (bytes.len(), snapshot::digest(&bytes)),
        (589, 0x136a05c8de436ba8),
        "snapshot bytes moved"
    );
    let (back, wm2) =
        snapshot::decode(&bytes, ShardMap::new(2), ServerId(0), 512).expect("snapshot decodes");
    assert_eq!(snapshot::encode(&back, &wm2), bytes, "decode re-encodes");
}
