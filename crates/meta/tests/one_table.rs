//! The one mutation table (`tank_meta::txn`): a metadata mutation is
//! executed, logged and replayed by one function, so replay does what
//! execution did and the log holds a record exactly for what changed.

use proptest::prelude::*;
use tank_meta::snapshot::{self, Watermarks};
use tank_meta::{wal, Applied, DurableStore, MetaStore, WalRecord};
use tank_proto::message::{FsError, RequestBody};
use tank_proto::{Epoch, Ino, LockMode, ServerId, MAX_NAME};
use tank_shard::ShardMap;

/// A pool small enough that allocation runs out.
const BLOCKS: u64 = 24;
const BLOCK_SIZE: usize = 512;
const SID: ServerId = ServerId(1);

fn fresh() -> MetaStore {
    MetaStore::new_sharded(ShardMap::new(2), SID, BLOCKS, BLOCK_SIZE)
}

fn image(store: &MetaStore) -> Vec<u8> {
    snapshot::encode(store, &Watermarks::default())
}

/// Inode numbers around the few a short run mints (this shard's root
/// included), so requests hit live files, live directories and nothing.
fn arb_ino() -> impl Strategy<Value = Ino> {
    (0u64..14).prop_map(Ino)
}

/// Few names, so creates collide and unlinks find their target.
fn arb_name() -> impl Strategy<Value = String> {
    (0u8..5).prop_map(|i| format!("n{i}"))
}

/// Every mutating request, the three reads, and a non-metadata body.
fn arb_body() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        (arb_ino(), arb_name()).prop_map(|(parent, name)| RequestBody::Create { parent, name }),
        (arb_ino(), arb_name()).prop_map(|(parent, name)| RequestBody::Mkdir { parent, name }),
        (arb_ino(), proptest::option::of(0u64..4096))
            .prop_map(|(ino, size)| RequestBody::SetAttr { ino, size }),
        (arb_ino(), arb_name()).prop_map(|(parent, name)| RequestBody::Unlink { parent, name }),
        (arb_ino(), arb_name(), arb_ino()).prop_map(|(dir, name, ino)| RequestBody::RenameLink {
            dir,
            name,
            ino
        }),
        (arb_ino(), arb_name()).prop_map(|(dir, name)| RequestBody::RenameUnlink { dir, name }),
        (arb_ino(), 0u32..10).prop_map(|(ino, count)| RequestBody::AllocBlocks { ino, count }),
        (arb_ino(), 0u64..8192)
            .prop_map(|(ino, new_size)| RequestBody::CommitWrite { ino, new_size }),
        (arb_ino(), arb_name()).prop_map(|(parent, name)| RequestBody::Lookup { parent, name }),
        arb_ino().prop_map(|dir| RequestBody::ReadDir { dir }),
        arb_ino().prop_map(|ino| RequestBody::GetAttr { ino }),
        Just(RequestBody::KeepAlive),
    ]
}

/// Requests biased toward this shard's root, so a namespace gets built.
fn arb_script() -> impl Strategy<Value = Vec<(RequestBody, u64)>> {
    let root = ShardMap::new(2).root_of(SID);
    let rooted = prop_oneof![
        arb_name().prop_map(move |name| RequestBody::Create { parent: root, name }),
        arb_name().prop_map(move |name| RequestBody::Mkdir { parent: root, name }),
        arb_body(),
        arb_body(),
    ];
    proptest::collection::vec((rooted, 0u64..1_000), 30..80)
}

proptest! {
    /// Do = redo: recovery from the records `execute` returned — from a
    /// snapshot taken anywhere in the run plus the suffix logged after it —
    /// rebuilds the executed store byte for byte, and replaying the whole
    /// log onto a fresh store mints the inode numbers the records carry.
    #[test]
    fn do_equals_redo(script in arb_script(), snapshot_at in 0usize..80) {
        let map = ShardMap::new(2);
        let mut live = fresh();
        let mut wal = DurableStore::default();
        let mut logged = Vec::new();
        let (mut done, mut failed) = (0, 0);
        for (i, (body, now)) in script.into_iter().enumerate() {
            if i == snapshot_at {
                wal.fsync();
                wal.install_snapshot(image(&live));
            }
            match live.execute(body, now) {
                Ok((_, Some(rec))) => {
                    wal.append(&rec);
                    logged.push(rec);
                    done += 1;
                }
                Ok((_, None)) => {}
                Err(_) => failed += 1,
            }
        }
        prop_assert!(done > 0 && failed > 0, "a script mixes successes and failures");
        wal.fsync();
        wal.crash();
        let recovered = snapshot::recover(&mut wal, map, SID, BLOCKS, BLOCK_SIZE);
        prop_assert!(recovered.defect.is_none());
        prop_assert_eq!(image(&recovered.store), image(&live));

        let mut replayed = fresh();
        for rec in &logged {
            let got = replayed.redo(rec);
            if let WalRecord::Create { ino, .. } | WalRecord::Mkdir { ino, .. } = rec {
                prop_assert_eq!(got, Ok(Applied::Minted(*ino)));
            } else {
                prop_assert!(got.is_ok(), "replay refused {:?}: {:?}", rec, got);
            }
        }
        prop_assert_eq!(image(&replayed), image(&live));
    }

    /// A record iff a change: `execute` hands back a record exactly when
    /// the canonical image moved — never for a read, never for a refused
    /// mutation, always for a mutation that went through.
    #[test]
    fn a_record_iff_a_change(script in arb_script()) {
        let mut live = fresh();
        for (body, now) in script {
            let mutates = WalRecord::of_request(body.clone(), now).is_some();
            let before = image(&live);
            let outcome = live.execute(body.clone(), now);
            let changed = image(&live) != before;
            match outcome {
                Ok((_, Some(_))) => {
                    prop_assert!(mutates && changed, "{:?} logged without a change", body);
                }
                Ok((_, None)) => prop_assert!(!mutates && !changed, "{:?} changed unlogged", body),
                Err(_) => prop_assert!(!changed, "{:?} failed but changed the store", body),
            }
        }
    }
}

/// Is `body` outside the metadata table — `Invalid` from
/// `MetaStore::execute` whatever the store holds? Exhaustive, so a new
/// request variant must be classified here (and given a sample below).
fn not_a_metadata_request(body: &RequestBody) -> bool {
    match body {
        RequestBody::Hello { .. }
        | RequestBody::KeepAlive
        | RequestBody::LockAcquire { .. }
        | RequestBody::LockRelease { .. }
        | RequestBody::PushAck { .. }
        | RequestBody::Batch(_) => true,
        RequestBody::Create { .. }
        | RequestBody::Lookup { .. }
        | RequestBody::Mkdir { .. }
        | RequestBody::ReadDir { .. }
        | RequestBody::Unlink { .. }
        | RequestBody::GetAttr { .. }
        | RequestBody::SetAttr { .. }
        | RequestBody::AllocBlocks { .. }
        | RequestBody::CommitWrite { .. }
        | RequestBody::RenameLink { .. }
        | RequestBody::RenameUnlink { .. } => false,
    }
}

#[test]
fn every_request_variant_is_a_metadata_request_or_invalid() {
    let mut store = MetaStore::new(64, 512);
    let (parent, dir) = (store.root(), store.root());
    let ino = store.create(parent, "f", 0).unwrap();
    let (g, f2) = (|| "g".to_owned(), "f2".to_owned());
    let (mode, epoch) = (LockMode::Exclusive, Epoch(1));
    // One of each variant, in an order every metadata request succeeds in.
    let samples = vec![
        RequestBody::Hello { map_epoch: 0 },
        RequestBody::KeepAlive,
        RequestBody::Create { parent, name: g() },
        RequestBody::Lookup { parent, name: g() },
        RequestBody::Mkdir {
            parent,
            name: "d".into(),
        },
        RequestBody::ReadDir { dir },
        RequestBody::Unlink { parent, name: g() },
        RequestBody::GetAttr { ino },
        RequestBody::SetAttr { ino, size: Some(0) },
        RequestBody::LockAcquire { ino, mode },
        RequestBody::LockRelease { ino, epoch },
        RequestBody::PushAck { push_seq: 1 },
        RequestBody::AllocBlocks { ino, count: 2 },
        RequestBody::CommitWrite { ino, new_size: 700 },
        RequestBody::RenameLink { dir, name: f2, ino },
        RequestBody::RenameUnlink {
            dir,
            name: "f".into(),
        },
        RequestBody::Batch(vec![RequestBody::GetAttr { ino }]),
    ];
    let kinds: std::collections::BTreeSet<_> = samples.iter().map(RequestBody::kind).collect();
    assert_eq!(kinds.len(), samples.len(), "one sample per variant");
    for body in samples {
        let outside = not_a_metadata_request(&body);
        let txns = store.transactions();
        let outcome = store.execute(body.clone(), 1);
        if outside {
            assert_eq!(outcome, Err(FsError::Invalid), "{body:?}");
            assert_eq!(store.transactions(), txns, "{body:?} touched the store");
            assert!(WalRecord::of_request(body, 1).is_none());
        } else {
            assert!(outcome.is_ok(), "{body:?}: {outcome:?}");
        }
    }
}

#[test]
fn a_name_longer_than_max_name_is_refused_before_a_record_is_built() {
    let mut store = MetaStore::new(64, 512);
    let (parent, dir) = (store.root(), store.root());
    let ino = store.create(parent, "f", 0).unwrap();
    let before = image(&store);
    let long = || "n".repeat(MAX_NAME + 1);
    for body in [
        RequestBody::Create {
            parent,
            name: long(),
        },
        RequestBody::Lookup {
            parent,
            name: long(),
        },
        RequestBody::Mkdir {
            parent,
            name: long(),
        },
        RequestBody::Unlink {
            parent,
            name: long(),
        },
        RequestBody::RenameLink {
            dir,
            name: long(),
            ino,
        },
        RequestBody::RenameUnlink { dir, name: long() },
    ] {
        assert_eq!(
            store.execute(body.clone(), 1),
            Err(FsError::Invalid),
            "{body:?}"
        );
    }
    assert_eq!(image(&store), before, "nothing changed");

    // The longest legal name is logged, and the log reads back past it.
    let name = "n".repeat(MAX_NAME);
    let (_, rec) = store
        .execute(RequestBody::Create { parent, name }, 1)
        .expect("a MAX_NAME-byte name is legal");
    let rec = rec.expect("a create is logged");
    let mut log = Vec::new();
    wal::frame(&rec, &mut log);
    wal::frame(&WalRecord::Incarnation(2), &mut log);
    let out = wal::scan(&log);
    assert_eq!(out.records, vec![rec, WalRecord::Incarnation(2)]);
    assert!(out.defect.is_none());
}
