//! The recovery grace window holds back exactly what reads the lock
//! table.
//!
//! A server in its grace window has an empty lock table: the locks that
//! survived the crash live only at their holders until τ(1+ε) has run out.
//! Whatever the window serves ([`RequestBody::needs_full_service`] false)
//! must therefore be answered without the table — both drivers' admission
//! rules (tankd's and the simulator's) must give the same answer for an
//! empty table as for one in which another client holds every inode
//! `Exclusive`. Checked over every request variant, aimed at the root,
//! a file, a directory and a missing inode.

use tank_meta::MetaStore;
use tank_proto::message::{FsError, RequestBody};
use tank_proto::{Epoch, Ino, LockMode, NodeId, ReqSeq, SessionId};
use tank_server::lock::LockManager;
use tank_server::LockRequestOutcome;

type Admit = fn(&LockManager, &mut MetaStore, NodeId, &RequestBody) -> Result<(), FsError>;

const ME: NodeId = NodeId(7);
const OTHER: NodeId = NodeId(8);

/// The variant's position; no wildcard, so a new variant must be added
/// here (and to [`bodies`]) before this compiles.
fn variant(body: &RequestBody) -> usize {
    match body {
        RequestBody::Hello { .. } => 0,
        RequestBody::KeepAlive => 1,
        RequestBody::Create { .. } => 2,
        RequestBody::Lookup { .. } => 3,
        RequestBody::Mkdir { .. } => 4,
        RequestBody::ReadDir { .. } => 5,
        RequestBody::Unlink { .. } => 6,
        RequestBody::GetAttr { .. } => 7,
        RequestBody::SetAttr { .. } => 8,
        RequestBody::LockAcquire { .. } => 9,
        RequestBody::LockRelease { .. } => 10,
        RequestBody::PushAck { .. } => 11,
        RequestBody::AllocBlocks { .. } => 12,
        RequestBody::CommitWrite { .. } => 13,
        RequestBody::RenameLink { .. } => 14,
        RequestBody::RenameUnlink { .. } => 15,
        RequestBody::Batch(_) => 16,
    }
}

/// Every variant aimed at every `(ino, name)` target, plus a batch of
/// all the single bodies the window serves.
fn bodies(targets: &[(Ino, &str)]) -> Vec<RequestBody> {
    let mut all = vec![
        RequestBody::Hello { map_epoch: 0 },
        RequestBody::KeepAlive,
        RequestBody::PushAck { push_seq: 1 },
    ];
    for &(ino, name) in targets {
        let name = name.to_owned();
        all.extend([
            RequestBody::Create {
                parent: ino,
                name: name.clone(),
            },
            RequestBody::Lookup {
                parent: ino,
                name: name.clone(),
            },
            RequestBody::Mkdir {
                parent: ino,
                name: name.clone(),
            },
            RequestBody::ReadDir { dir: ino },
            RequestBody::Unlink {
                parent: ino,
                name: name.clone(),
            },
            RequestBody::GetAttr { ino },
            RequestBody::SetAttr { ino, size: None },
            RequestBody::SetAttr { ino, size: Some(0) },
            RequestBody::LockAcquire {
                ino,
                mode: LockMode::SharedRead,
            },
            RequestBody::LockRelease {
                ino,
                epoch: Epoch(1),
            },
            RequestBody::AllocBlocks { ino, count: 1 },
            RequestBody::CommitWrite { ino, new_size: 1 },
            RequestBody::RenameLink {
                dir: ino,
                name: name.clone(),
                ino,
            },
            RequestBody::RenameUnlink { dir: ino, name },
        ]);
    }
    let served: Vec<RequestBody> = all
        .iter()
        .filter(|b| b.batchable() && !b.needs_full_service())
        .cloned()
        .collect();
    all.push(RequestBody::Batch(served));
    all
}

#[test]
fn what_the_grace_window_serves_is_admitted_without_the_lock_table() {
    let mut meta = MetaStore::new(1024, 512);
    let root = meta.root();
    let file = meta.create(root, "a", 0).unwrap();
    let dir = meta.mkdir(root, "d", 0).unwrap();
    let missing = Ino(99);
    let targets = [
        (root, "a"),
        (root, "d"),
        (file, "x"),
        (dir, "y"),
        (missing, "z"),
    ];

    let empty = LockManager::new();
    let mut held = LockManager::new();
    for (k, ino) in [root, file, dir, missing].into_iter().enumerate() {
        let outcome = held.request(
            OTHER,
            ino,
            LockMode::Exclusive,
            SessionId(1),
            ReqSeq(k as u64),
        );
        assert!(matches!(outcome, LockRequestOutcome::Granted(_)));
    }

    let all = bodies(&targets);
    let mut seen: Vec<usize> = all.iter().map(variant).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        (0..17).collect::<Vec<_>>(),
        "every variant is sampled"
    );

    let drivers: [(&str, Admit); 2] = [
        ("tankd", tank_net::server::admit),
        ("simulator", tank_server::node::admit),
    ];
    for (driver, admit) in drivers {
        let mut differs = Vec::new();
        for body in &all {
            let without = admit(&empty, &mut meta, ME, body);
            let against = admit(&held, &mut meta, ME, body);
            if body.needs_full_service() {
                if without != against {
                    differs.push(body.kind());
                }
            } else {
                assert_eq!(without, against, "{driver}: {body:?} read the lock table");
            }
        }
        // Negative control: the held table is one admission does see —
        // unlinking a file another client holds is refused.
        assert!(differs.contains(&"unlink"), "{driver}: {differs:?}");
    }
}
