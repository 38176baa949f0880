//! The lock-protected attribute cache at its protocol edges.
//!
//! A scripted server executes each request when it arrives and sends the
//! reply after a per-kind delay, so the order in which replies reach the
//! client is exact — the reorderings CACHING.md's admission rule exists
//! for cannot be left to a seed. Every `Stat` is judged by its
//! `AttrServed` event (from the cache, or from the server) and by how many
//! `GetAttr`s the server saw.

use std::collections::HashMap;

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, FsData, FsOp};
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    BlockId, CtlMsg, Epoch, Event, Incarnation, Ino, NetMsg, NodeId, Request, Response, SessionId,
};
use tank_sim::{Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

const BS: usize = 512;
const ROOT: Ino = Ino(1);
const F: Ino = Ino(2);

/// One file `/f` (4 blocks mapped, size 0), one client, no disks: the
/// tests write whole blocks and read nothing back, so the SAN stays idle.
#[derive(Default)]
struct ScriptedServer {
    /// Reply delay per `RequestBody::kind` (absent: at once).
    delays: HashMap<&'static str, LocalNs>,
    /// Answer every `CommitWrite` with `NoSpace`, changing nothing.
    fail_commits: bool,
    size: u64,
    version: u64,
    epochs: u64,
    /// Kinds of the requests executed, in arrival order.
    seen: Vec<&'static str>,
    /// Replies waiting for their timer (token = index).
    delayed: Vec<(NodeId, Response)>,
}

impl ScriptedServer {
    fn attr(&self) -> FileAttr {
        FileAttr {
            size: self.size,
            mtime: 0,
            version: self.version,
            is_dir: false,
        }
    }

    fn execute(&mut self, body: &RequestBody) -> Result<ReplyBody, FsError> {
        Ok(match body {
            RequestBody::Hello { map_epoch } => ReplyBody::HelloOk {
                session: SessionId(1),
                map_epoch: *map_epoch,
            },
            RequestBody::Lookup { parent, name } if *parent == ROOT && name == "f" => {
                ReplyBody::Resolved {
                    ino: F,
                    attr: self.attr(),
                }
            }
            RequestBody::GetAttr { ino } if *ino == F => ReplyBody::Attr { attr: self.attr() },
            RequestBody::LockAcquire { ino, mode } if *ino == F => {
                self.epochs += 1;
                ReplyBody::LockGranted {
                    ino: F,
                    mode: *mode,
                    epoch: Epoch(self.epochs),
                    blocks: (100..104).map(BlockId).collect(),
                    size: self.size,
                }
            }
            RequestBody::CommitWrite { ino, new_size } if *ino == F => {
                if self.fail_commits {
                    return Err(FsError::NoSpace);
                }
                self.size = self.size.max(*new_size);
                self.version += 1;
                ReplyBody::Ok
            }
            RequestBody::KeepAlive
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
        self.seen.push(kind);
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
        let (to, resp) = self.delayed[token as usize].clone();
        ctx.send(NetId::CONTROL, to, NetMsg::Ctl(CtlMsg::Response(resp)));
    }
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn stat() -> FsOp {
    FsOp::Stat { path: "/f".into() }
}

/// A whole-block write at block `idx` (no read-modify-write, no SAN).
fn write_block(idx: u64) -> FsOp {
    FsOp::Write {
        path: "/f".into(),
        offset: idx * BS as u64,
        data: vec![7; BS],
    }
}

/// What one run showed: each `Stat`'s (size, version) in completion
/// order, each `AttrServed.from_cache` in order, and the `GetAttr`s the
/// server executed.
struct Outcome {
    stats: Vec<(u64, u64)>,
    from_cache: Vec<bool>,
    getattrs: usize,
    hits_and_misses: (u64, u64),
}

fn run(server: ScriptedServer, script: Script) -> Outcome {
    let mut world: World<NetMsg, Event> = World::new(WorldConfig::default());
    world.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    world.add_network(NetId::SAN, NetParams::ideal(100_000));
    let server = world.add_node(Box::new(server), ClockSpec::ideal());
    let mut cfg = ClientConfig::new(server, vec![server]);
    cfg.block_size = BS;
    cfg.flush_interval = LocalNs(0);
    let node = ClientNode::new(cfg).with_script(script);
    let client = world.add_node(Box::new(node), ClockSpec::ideal());
    world.run_until(SimTime::from_millis(400));

    let node = world.node_ref::<ClientNode>(client).unwrap();
    let stats = node
        .results()
        .filter_map(|(_, r)| match r {
            Ok(FsData::Attr { size, version, .. }) => Some((*size, *version)),
            _ => None,
        })
        .collect();
    let from_cache = world
        .observations()
        .iter()
        .filter_map(|(_, _, ev)| match ev {
            Event::AttrServed { ino, from_cache } => {
                assert_eq!(*ino, F);
                Some(*from_cache)
            }
            _ => None,
        })
        .collect();
    let getattrs = world
        .node_ref::<ScriptedServer>(server)
        .unwrap()
        .seen
        .iter()
        .filter(|k| **k == "getattr")
        .count();
    let s = node.stats();
    assert_eq!(s.failed, 0, "no op failed");
    Outcome {
        stats,
        from_cache,
        getattrs,
        hits_and_misses: (s.attr_hits, s.attr_misses),
    }
}

#[test]
fn a_held_lock_answers_the_second_stat() {
    // The plain case: the first `Stat` under the lock asks the server and
    // is admitted, the next ones never leave the client.
    let script = Script::new()
        .at(ms(10), write_block(0))
        .at(ms(50), stat())
        .at(ms(60), stat())
        .at(ms(70), stat());
    let out = run(ScriptedServer::default(), script);
    assert_eq!(out.from_cache, [false, true, true]);
    assert_eq!(out.getattrs, 1);
    assert_eq!(out.stats, [(BS as u64, 1); 3]);
    assert_eq!(out.hits_and_misses, (2, 1));
}

#[test]
fn a_reply_overtaken_by_our_own_commit_is_not_admitted() {
    // GetAttr leaves at 50 ms and is executed before the growing write of
    // 60 ms commits, but its reply is the slower one: it describes version
    // 1 when the commit has already made it 2. It answers its own `Stat`
    // and is not cached — the `Stat` at 100 ms must ask again.
    let mut server = ScriptedServer::default();
    server.delays.insert("getattr", ms(30));
    let script = Script::new()
        .at(ms(10), write_block(0))
        .at(ms(50), stat())
        .at(ms(60), write_block(1))
        .at(ms(100), stat())
        .at(ms(200), stat());
    let out = run(server, script);
    assert_eq!(out.from_cache, [false, false, true]);
    assert_eq!(out.getattrs, 2, "the stale reply cached nothing");
    let (old, new) = ((BS as u64, 1), (2 * BS as u64, 2));
    assert_eq!(out.stats, [old, new, new]);
}

#[test]
fn a_request_sent_behind_an_unanswered_commit_is_not_admitted() {
    // The commit's reply is slow, so the commit may still be on the wire —
    // and the network may hand it to the server *after* a GetAttr sent
    // later. Until it is answered, no attribute reply is cached.
    let mut server = ScriptedServer::default();
    server.delays.insert("commit_write", ms(50));
    let script = Script::new()
        .at(ms(10), write_block(0))
        .at(ms(20), stat())
        .at(ms(30), stat())
        .at(ms(100), stat())
        .at(ms(120), stat());
    let out = run(server, script);
    assert_eq!(out.from_cache, [false, false, false, true]);
    assert_eq!(out.getattrs, 3);
}

#[test]
fn a_request_sent_while_acquiring_is_not_admitted() {
    // The read's LockAcquire is slow; the `Stat` of 15 ms leaves while the
    // entry is `Acquiring`, and the grant lands before the attribute
    // reply. That reply left under no grant: it is not cached.
    let mut server = ScriptedServer::default();
    server.delays.insert("lock_acquire", ms(20));
    server.delays.insert("getattr", ms(40));
    let read = FsOp::Read {
        path: "/f".into(),
        offset: 0,
        len: BS as u32,
    };
    let script = Script::new()
        .at(ms(10), read)
        .at(ms(15), stat())
        .at(ms(100), stat())
        .at(ms(200), stat());
    let out = run(server, script);
    assert_eq!(out.from_cache, [false, false, true]);
    assert_eq!(out.getattrs, 2);
}

#[test]
fn an_exclusive_holder_stats_its_own_uncommitted_size() {
    // The commit of the growing write is refused, so the server still says
    // size 0 while the holder's cache holds one block more. The server's
    // answer is what it is; the answer from the lock is the holder's local
    // size (what a read would return) beside the admitted version.
    let server = ScriptedServer {
        fail_commits: true,
        ..Default::default()
    };
    let script = Script::new()
        .at(ms(10), write_block(0))
        .at(ms(50), stat())
        .at(ms(60), stat());
    let out = run(server, script);
    assert_eq!(out.from_cache, [false, true]);
    assert_eq!(out.stats, [(0, 0), (BS as u64, 0)]);
}

#[test]
fn a_stat_of_an_unresolved_path_completes_from_the_lookup() {
    // Nothing is known of `/f` yet: the `Lookup` reply carries the
    // attributes and the `Stat` ends there, as it always has — no GetAttr,
    // nothing cached (neither the name nor, with no lock held, the
    // attributes), counted as a miss.
    let out = run(
        ScriptedServer::default(),
        Script::new().at(ms(10), stat()).at(ms(20), stat()),
    );
    assert_eq!(out.from_cache, [false, false]);
    assert_eq!(out.getattrs, 0);
    assert_eq!(out.stats, [(0, 0); 2]);
    assert_eq!(out.hits_and_misses, (0, 2));
}
