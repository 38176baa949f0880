//! Same seed ⇒ byte-identical op stream and open-loop schedule;
//! different seed ⇒ different.

use tank_benchmark::gen::{
    schedule, Binding, FileRef, LockStream, MetaStream, Names, Workload, CHAINS, SLOTS,
};
use tank_proto::message::RequestBody;
use tank_proto::{CtlMsg, Ino, NetMsg, NodeId, ReqSeq, Request, SessionId, WireEncode};

/// Inode numbers the way a fresh server hands them out, so the encoded
/// bytes depend on nothing but the seed.
struct Sequential;

impl Binding for Sequential {
    fn ino(&self, slot: usize, file: FileRef) -> Ino {
        match file {
            FileRef::Shared(i) => Ino(2 + i as u64),
            FileRef::Private(j) => Ino(10_000 + 2 * slot as u64 + j as u64),
            FileRef::Scratch(g) => Ino(20_000 + g as u64),
        }
    }
}

/// The first `units` datagrams of every slot, encoded.
fn meta_bytes(workload: Workload, seed: u64, units: usize) -> Vec<u8> {
    let names = Names::new(seed);
    let mut out = Vec::new();
    for slot in 0..SLOTS {
        let mut stream = MetaStream::new(workload, seed, slot);
        for seq in 0..units {
            let mut bodies: Vec<RequestBody> = stream
                .next_unit()
                .iter()
                .map(|op| op.body(slot, &names, &Sequential))
                .collect();
            let body = if bodies.len() == 1 {
                bodies.remove(0)
            } else {
                RequestBody::Batch(bodies)
            };
            let msg = NetMsg::Ctl(CtlMsg::Request(Request {
                src: NodeId(0),
                session: SessionId(1),
                seq: ReqSeq(seq as u64),
                body,
            }));
            out.extend_from_slice(&msg.encoded());
        }
    }
    out
}

#[test]
fn meta_streams_are_a_function_of_the_seed() {
    for workload in [Workload::Small, Workload::Batch] {
        let a = meta_bytes(workload, 42, 50);
        assert_eq!(a, meta_bytes(workload, 42, 50), "{workload:?}");
        assert_ne!(a, meta_bytes(workload, 43, 50), "{workload:?}");
    }
    // The two workloads draw from the same files but not the same ops.
    assert_ne!(
        meta_bytes(Workload::Small, 42, 50),
        meta_bytes(Workload::Batch, 42, 50)
    );
}

#[test]
fn lock_streams_are_a_function_of_the_seed() {
    let steps = |seed| -> Vec<_> {
        (0..CHAINS)
            .flat_map(|c| {
                let mut s = LockStream::new(seed, c);
                (0..200).map(move |_| s.next_step()).collect::<Vec<_>>()
            })
            .collect()
    };
    assert_eq!(steps(7), steps(7));
    assert_ne!(steps(7), steps(8));
}

#[test]
fn slots_walk_different_streams() {
    let first = |slot| {
        let mut s = MetaStream::new(Workload::Small, 1, slot);
        (0..100).flat_map(|_| s.next_unit()).collect::<Vec<_>>()
    };
    assert_ne!(first(0), first(1));
}

#[test]
fn schedules_are_a_function_of_the_seed() {
    let a = schedule(5, 40_000, 250_000_000, SLOTS);
    assert_eq!(a, schedule(5, 40_000, 250_000_000, SLOTS));
    let b = schedule(6, 40_000, 250_000_000, SLOTS);
    assert_eq!(a.len(), b.len());
    // Same due times (the rate is fixed), different slot order.
    assert!(a.iter().zip(&b).all(|(x, y)| x.at_ns == y.at_ns));
    assert_ne!(a, b);
}

#[test]
fn names_are_a_function_of_the_seed() {
    assert_eq!(Names::new(3).shared(9), Names::new(3).shared(9));
    assert_ne!(Names::new(3).shared(9), Names::new(4).shared(9));
    assert_ne!(Names::new(3).private(1, 0), Names::new(3).private(2, 0));
}
