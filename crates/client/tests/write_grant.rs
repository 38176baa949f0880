//! A write lands only under an `Exclusive` grant, whatever order its
//! replies arrive in, and lands exactly its own bytes or nothing.
//!
//! A scripted server answers each request when it arrives, or after a
//! per-kind delay, and pushes a demand on a timer, so the interleaving
//! of a write's preparation with a hand-off is exact. The case pinned
//! here: the `Allocated` answer to a write's `AllocBlocks` reaches the
//! client after a demand took the `Exclusive` grant the request was sent
//! under and a `SharedRead` re-grant replaced it. The write must wait for
//! `Exclusive` again instead of writing under the read grant.

use std::collections::HashMap;

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, FsData, FsErr, FsOp};
use tank_core::Phase;
use tank_proto::message::{FileAttr, FsError, PushBody, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    BlockId, CtlMsg, Epoch, Event, Incarnation, Ino, LockMode, NetMsg, NodeId, Request, Response,
    ServerPush, SessionId,
};
use tank_sim::{Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

const BS: usize = 512;
const ROOT: Ino = Ino(1);
const F: Ino = Ino(2);
/// Timer token of the scripted demand; replies use their queue index.
const DEMAND: u64 = u64::MAX;

/// One empty file `/f` (no blocks mapped), one client, no disks.
#[derive(Default)]
struct ScriptedServer {
    /// Reply delay per `RequestBody::kind` (absent: at once).
    delays: HashMap<&'static str, LocalNs>,
    /// Kinds never answered.
    mute: Vec<&'static str>,
    /// Push a demand for `/f` this long after the first `AllocBlocks`.
    demand_after: Option<LocalNs>,
    client: Option<NodeId>,
    blocks: Vec<BlockId>,
    /// Mode of every grant, by epoch.
    grants: Vec<LockMode>,
    /// Kinds of the requests executed, in arrival order.
    seen: Vec<&'static str>,
    /// Replies waiting for their timer (token = index).
    delayed: Vec<(NodeId, Response)>,
}

impl ScriptedServer {
    fn execute(&mut self, body: &RequestBody) -> Result<ReplyBody, FsError> {
        Ok(match body {
            RequestBody::Hello { map_epoch } => ReplyBody::HelloOk {
                session: SessionId(1),
                map_epoch: *map_epoch,
            },
            RequestBody::Lookup { parent, name } if *parent == ROOT && name == "f" => {
                ReplyBody::Resolved {
                    ino: F,
                    attr: FileAttr::default(),
                }
            }
            RequestBody::LockAcquire { ino, mode } if *ino == F => {
                self.grants.push(*mode);
                ReplyBody::LockGranted {
                    ino: F,
                    mode: *mode,
                    epoch: Epoch(self.grants.len() as u64),
                    blocks: self.blocks.clone(),
                    size: 0,
                }
            }
            RequestBody::AllocBlocks { ino, count } if *ino == F => {
                let next = 100 + self.blocks.len() as u64;
                self.blocks
                    .extend((next..next + *count as u64).map(BlockId));
                ReplyBody::Allocated {
                    blocks: self.blocks.clone(),
                }
            }
            RequestBody::KeepAlive
            | RequestBody::CommitWrite { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. } => ReplyBody::Ok,
            unexpected => panic!("the scripted server has no answer to {unexpected:?}"),
        })
    }
}

impl Actor<NetMsg, Event> for ScriptedServer {
    fn on_message(
        &mut self,
        from: NodeId,
        _net: NetId,
        msg: NetMsg,
        ctx: &mut Ctx<'_, NetMsg, Event>,
    ) {
        let NetMsg::Ctl(CtlMsg::Request(Request {
            session, seq, body, ..
        })) = msg
        else {
            return;
        };
        let kind = body.kind();
        if kind == "alloc_blocks" && !self.seen.contains(&kind) {
            if let Some(after) = self.demand_after {
                self.client = Some(from);
                ctx.set_timer(after, DEMAND);
            }
        }
        self.seen.push(kind);
        if self.mute.contains(&kind) {
            return;
        }
        let resp = Response {
            dst: from,
            session: if kind == "hello" {
                SessionId(1)
            } else {
                session
            },
            seq,
            incarnation: Incarnation(1),
            outcome: ResponseOutcome::Acked(self.execute(&body)),
        };
        match self.delays.get(kind) {
            Some(delay) => {
                ctx.set_timer(*delay, self.delayed.len() as u64);
                self.delayed.push((from, resp));
            }
            None => ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Response(resp))),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg, Event>) {
        if token == DEMAND {
            let to = self.client.expect("a client asked for blocks");
            let push = ServerPush {
                dst: to,
                session: SessionId(1),
                push_seq: 1,
                body: PushBody::Demand {
                    ino: F,
                    mode_needed: LockMode::Exclusive,
                    epoch: Epoch(self.grants.len() as u64),
                },
            };
            return ctx.send(NetId::CONTROL, to, NetMsg::Ctl(CtlMsg::Push(push)));
        }
        let (to, resp) = self.delayed[token as usize].clone();
        ctx.send(NetId::CONTROL, to, NetMsg::Ctl(CtlMsg::Response(resp)));
    }
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

/// Run `server` and one observed client with `script` and no periodic
/// write-back until `until`; the world, the server and the client.
fn run(
    server: ScriptedServer,
    script: Script,
    until: SimTime,
) -> (World<NetMsg, Event>, NodeId, NodeId) {
    let mut world: World<NetMsg, Event> = World::new(WorldConfig::default());
    world.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    world.add_network(NetId::SAN, NetParams::ideal(100_000));
    let server = world.add_node(Box::new(server), ClockSpec::ideal());
    let mut cfg = ClientConfig::new(server, vec![server]);
    cfg.block_size = BS;
    cfg.flush_interval = LocalNs(0);
    let node = ClientNode::new(cfg).with_script(script);
    let client = world.add_node(Box::new(node), ClockSpec::ideal());
    world.run_until(until);
    (world, server, client)
}

fn read_all() -> FsOp {
    FsOp::Read {
        path: "/f".into(),
        offset: 0,
        len: BS as u32,
    }
}

/// A block-long payload no other write in these tests produces.
fn payload() -> Vec<u8> {
    (0..BS).map(|i| (i * 7 % 251) as u8 + 1).collect()
}

/// The grant of every write acknowledged on `/f`, in order.
fn write_epochs(world: &World<NetMsg, Event>) -> Vec<Epoch> {
    world
        .observations()
        .iter()
        .filter_map(|(_, _, ev)| match ev {
            Event::WriteAcked { ino, tag, .. } if *ino == F => Some(tag.epoch),
            _ => None,
        })
        .collect()
}

#[test]
fn an_allocation_answered_after_a_shared_regrant_waits_for_exclusive() {
    // 10 ms: the write takes `Exclusive` (epoch 1) and asks for a block;
    // the answer is held back 50 ms. 15 ms: a demand takes the lock back
    // (nothing is dirty yet, so it is released at once). 30 ms: a read
    // takes `SharedRead` (epoch 2). ≈ 60 ms: `Allocated` lands. The
    // write must upgrade (epoch 3) before it touches the cache.
    let server = ScriptedServer {
        delays: HashMap::from([("alloc_blocks", ms(50))]),
        demand_after: Some(ms(5)),
        ..Default::default()
    };
    let write = FsOp::Write {
        path: "/f".into(),
        offset: 0,
        data: vec![7; BS],
    };
    let script = Script::new().at(ms(10), write).at(ms(30), read_all());
    let (world, server, client) = run(server, script, SimTime::from_millis(400));

    let server = world.node_ref::<ScriptedServer>(server).unwrap();
    use LockMode::{Exclusive as X, SharedRead as S};
    assert_eq!(server.grants, [X, S, X], "the write re-took Exclusive");
    let acquires_and_allocs: Vec<_> = server
        .seen
        .iter()
        .filter(|k| matches!(**k, "lock_acquire" | "alloc_blocks" | "lock_release"))
        .collect();
    assert_eq!(
        acquires_and_allocs,
        [
            &"lock_acquire",
            &"alloc_blocks",
            &"lock_release",
            &"lock_acquire",
            &"lock_acquire"
        ],
        "one allocation: the upgrade's grant carries the block"
    );
    assert_eq!(
        write_epochs(&world),
        [Epoch(3)],
        "written under the upgrade only"
    );
    let node = world.node_ref::<ClientNode>(client).unwrap();
    assert_eq!(
        node.stats().failed,
        0,
        "the read and the write both succeed"
    );
    assert_eq!(node.results().count(), 2);
}

#[test]
fn a_write_parked_on_an_upgrade_writes_exactly_its_own_bytes() {
    // The schedule above: the write's `Allocated` answer lands under a
    // `SharedRead` re-grant, the write parks for `Exclusive` and resumes
    // after the upgrade. Its payload must still be whole when it does:
    // the read at 200 ms, served from the cache, returns every byte.
    let server = ScriptedServer {
        delays: HashMap::from([("alloc_blocks", ms(50))]),
        demand_after: Some(ms(5)),
        ..Default::default()
    };
    let write = FsOp::Write {
        path: "/f".into(),
        offset: 0,
        data: payload(),
    };
    let script = Script::new()
        .at(ms(10), write)
        .at(ms(30), read_all())
        .at(ms(200), read_all());
    let (world, server, client) = run(server, script, SimTime::from_millis(400));

    let server = world.node_ref::<ScriptedServer>(server).unwrap();
    use LockMode::{Exclusive as X, SharedRead as S};
    assert_eq!(server.grants, [X, S, X], "the write parked for the upgrade");
    assert_eq!(
        write_epochs(&world),
        [Epoch(3)],
        "written once, under the upgrade"
    );
    let node = world.node_ref::<ClientNode>(client).unwrap();
    let results: Vec<_> = node.results().map(|(_, r)| r.clone()).collect();
    assert_eq!(
        results,
        [
            Ok(FsData::Bytes(Vec::new())),
            Ok(FsData::Unit),
            Ok(FsData::Bytes(payload()))
        ],
        "the early read saw an empty file; the late one the write's bytes"
    );
}

#[test]
fn a_write_refused_at_phase_4_leaves_no_dirty_block() {
    // The server stops answering keep-alives and holds the write's
    // `Allocated` answer for 9 s: it lands at 0.9τ of a 10 s lease, in
    // phase 4, whose flush snapshot is final. The write must fail then
    // and leave the cache clean; the lease has not yet expired, so
    // nothing else has cleared it.
    let server = ScriptedServer {
        delays: HashMap::from([("alloc_blocks", LocalNs::from_secs(9))]),
        mute: vec!["keep_alive"],
        ..Default::default()
    };
    let write = FsOp::Write {
        path: "/f".into(),
        offset: 0,
        data: payload(),
    };
    let script = Script::new().at(ms(10), write);
    let (world, _, client) = run(server, script, SimTime::from_millis(9_500));

    let done = world
        .observations()
        .iter()
        .find_map(|(at, _, ev)| match ev {
            Event::OpCompleted { err, .. } => Some((*at, *err)),
            _ => None,
        });
    let (at, err) = done.expect("the write completed");
    assert_eq!(err, Some(FsErr::LeaseLost));
    assert!(
        at >= SimTime::from_secs(9),
        "refused when `Allocated` landed: {at:?}"
    );
    assert!(write_epochs(&world).is_empty(), "nothing acknowledged");
    let node = world.node_ref::<ClientNode>(client).unwrap();
    assert_eq!(node.lease().phase(LocalNs(at.0)), Phase::ExpectedFailure);
    assert_eq!(node.dirty_blocks(), 0, "no dirty block behind the flush");
}
