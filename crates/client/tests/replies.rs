//! What a failed reply does, and where it differs from a failed request.
//!
//! A scripted server answers every request at once, except the n-th of a
//! kind, which it answers with the outcome a test gives: an `Err` reply
//! or a NACK. It also serves the one block of `/f` on the SAN. Most
//! failures end the same way whether the server answered with an error
//! or refused the request; these tests pin that for lock acquisition,
//! and pin the two places where the client must not treat them alike:
//! any reply to a `LockRelease` ends the lock's era while a NACKed one
//! stays `Releasing`, and a failed `Hello` reply sends the `Hello` again
//! at once.

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, FsData, FsErr, FsOp};
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    BlockId, CtlMsg, Epoch, Event, Incarnation, Ino, NackReason, NetMsg, NodeId, Request, Response,
    SanMsg, SanReadOk, SessionId, WriteTag,
};
use tank_sim::{Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

const BS: usize = 512;
const ROOT: Ino = Ino(1);
const F: Ino = Ino(2);
/// The one block of `/f`, and what it holds.
const BLOCK: BlockId = BlockId(100);
const BYTE: u8 = 9;

/// One file `/f` of one block, one client; also the SAN disk.
#[derive(Default)]
struct ScriptedServer {
    /// `(kind, n, outcome)`: answer the n-th request of `kind` (from 1)
    /// with `outcome` instead of executing it.
    answers: Vec<(&'static str, usize, ResponseOutcome)>,
    /// Kinds of the requests that arrived, with the server's clock then.
    seen: Vec<(&'static str, LocalNs)>,
    grants: u64,
    san_reads: u64,
}

impl ScriptedServer {
    fn answering(kind: &'static str, n: usize, outcome: ResponseOutcome) -> Self {
        ScriptedServer {
            answers: vec![(kind, n, outcome)],
            ..Self::default()
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
                    attr: FileAttr::default(),
                }
            }
            RequestBody::LockAcquire { ino, mode } if *ino == F => {
                self.grants += 1;
                ReplyBody::LockGranted {
                    ino: F,
                    mode: *mode,
                    epoch: Epoch(self.grants),
                    blocks: vec![BLOCK],
                    size: BS as u64,
                }
            }
            RequestBody::KeepAlive
            | RequestBody::CommitWrite { .. }
            | RequestBody::LockRelease { .. }
            | RequestBody::PushAck { .. } => ReplyBody::Ok,
            unexpected => panic!("the scripted server has no answer to {unexpected:?}"),
        })
    }

    /// How many requests of `kind` arrived.
    fn count(&self, kind: &str) -> usize {
        self.seen.iter().filter(|(k, _)| *k == kind).count()
    }

    /// The kinds that arrived, in order, keep-alives left out.
    fn kinds(&self) -> Vec<&'static str> {
        self.seen
            .iter()
            .map(|(k, _)| *k)
            .filter(|k| *k != "keep_alive")
            .collect()
    }
}

impl Actor<NetMsg, Event> for ScriptedServer {
    fn on_message(
        &mut self,
        from: NodeId,
        net: NetId,
        msg: NetMsg,
        ctx: &mut Ctx<'_, NetMsg, Event>,
    ) {
        if let NetMsg::San(SanMsg::ReadBlock { req_id, block }) = msg {
            assert_eq!(block, BLOCK);
            self.san_reads += 1;
            let result = Ok(SanReadOk {
                data: vec![BYTE; BS],
                tag: WriteTag::default(),
            });
            let resp = SanMsg::ReadResp { req_id, result };
            return ctx.send(net, from, NetMsg::San(resp));
        }
        let NetMsg::Ctl(CtlMsg::Request(Request {
            session, seq, body, ..
        })) = msg
        else {
            return;
        };
        let kind = body.kind();
        self.seen.push((kind, ctx.now()));
        let n = self.count(kind);
        let scripted = self
            .answers
            .iter()
            .find(|(k, i, _)| *k == kind && *i == n)
            .map(|(_, _, outcome)| outcome.clone());
        let outcome = scripted.unwrap_or_else(|| ResponseOutcome::Acked(self.execute(&body)));
        let resp = Response {
            dst: from,
            session: if kind == "hello" {
                SessionId(1)
            } else {
                session
            },
            seq,
            incarnation: Incarnation(1),
            outcome,
        };
        ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Response(resp)));
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, NetMsg, Event>) {}
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

/// Run `server` and one observed client with `script` and no periodic
/// write-back until `until`: the server and the client's results.
fn run(server: ScriptedServer, script: Script, until: SimTime) -> (ScriptedServer, Vec<Outcome>) {
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
    let results = world
        .node_ref::<ClientNode>(client)
        .unwrap()
        .results()
        .map(|(_, r)| r.clone())
        .collect();
    let server = world.node_mut::<ScriptedServer>(server).unwrap();
    (std::mem::take(server), results)
}

type Outcome = Result<FsData, FsErr>;

fn read() -> FsOp {
    FsOp::Read {
        path: "/f".into(),
        offset: 0,
        len: BS as u32,
    }
}

fn write() -> FsOp {
    FsOp::Write {
        path: "/f".into(),
        offset: 0,
        data: vec![BYTE; BS],
    }
}

fn release() -> FsOp {
    FsOp::Release { path: "/f".into() }
}

fn block() -> Outcome {
    Ok(FsData::Bytes(vec![BYTE; BS]))
}

/// The two ways a request can fail at the server, and the error each
/// reaches a waiting op as.
fn failures() -> [(ResponseOutcome, FsErr); 2] {
    [
        (
            ResponseOutcome::Acked(Err(FsError::NotLocked)),
            FsErr::Invalid,
        ),
        (
            ResponseOutcome::Nacked(NackReason::Recovering),
            FsErr::Unavailable,
        ),
    ]
}

#[test]
fn a_failed_acquire_fails_its_waiters_and_clears_the_placeholder_answered_or_nacked() {
    // Two reads at 10 ms share one `LockAcquire`; it fails. Both fail
    // with the mapped error, and nothing stays `Acquiring`: the read at
    // 100 ms asks for the lock afresh and is served.
    let script = Script::new()
        .at(ms(10), read())
        .at(ms(10), read())
        .at(ms(100), read());
    let mut kinds = Vec::new();
    for (outcome, err) in failures() {
        let server = ScriptedServer::answering("lock_acquire", 1, outcome);
        let (server, results) = run(server, script.clone(), SimTime::from_millis(300));
        assert_eq!(results, [Err(err), Err(err), block()], "{err:?}");
        assert_eq!(server.count("lock_acquire"), 2, "{err:?}");
        kinds.push(server.kinds());
    }
    assert_eq!(
        kinds[0], kinds[1],
        "the same requests follow either failure"
    );
}

#[test]
fn a_failed_upgrade_keeps_the_held_grant_answered_or_nacked() {
    // 10 ms: a read takes `SharedRead` and fetches the block. 50 ms: a
    // write asks for `Exclusive`; the upgrade fails. The write fails with
    // the mapped error, but the read grant and its cache stay: the read
    // at 100 ms is served from the cache, with no request. The write at
    // 150 ms asks for the upgrade again and lands.
    let script = Script::new()
        .at(ms(10), read())
        .at(ms(50), write())
        .at(ms(100), read())
        .at(ms(150), write());
    let mut kinds = Vec::new();
    for (outcome, err) in failures() {
        let server = ScriptedServer::answering("lock_acquire", 2, outcome);
        let (server, results) = run(server, script.clone(), SimTime::from_millis(300));
        assert_eq!(
            results,
            [block(), Err(err), block(), Ok(FsData::Unit)],
            "{err:?}"
        );
        assert_eq!(server.count("lock_acquire"), 3, "{err:?}");
        assert_eq!(server.san_reads, 1, "the block was fetched once: {err:?}");
        kinds.push(server.kinds());
    }
    assert_eq!(
        kinds[0], kinds[1],
        "the same requests follow either failure"
    );
}

#[test]
fn any_reply_to_a_release_ends_the_lock_era() {
    // 10 ms: a read takes the lock and fetches the block. 50 ms: an eager
    // release. Whether the server answers it `Ok` or with an error, the
    // lock and its cached block are gone: the read at 100 ms acquires
    // again and fetches the block again.
    let script = Script::new()
        .at(ms(10), read())
        .at(ms(50), release())
        .at(ms(100), read());
    for reply in [Ok(ReplyBody::Ok), Err(FsError::NotLocked)] {
        let server = ScriptedServer::answering("lock_release", 1, ResponseOutcome::Acked(reply));
        let (server, results) = run(server, script.clone(), SimTime::from_millis(300));
        assert_eq!(results, [block(), Ok(FsData::Unit), block()]);
        assert_eq!(server.count("lock_acquire"), 2, "the lock was gone");
        assert_eq!(server.san_reads, 2, "the cached block was gone");
    }
}

#[test]
fn a_nacked_release_stays_releasing() {
    // The same schedule, but the release is NACKed: its fate at the
    // server is unknown, so the client keeps `Releasing` and parks the
    // read at 100 ms behind it instead of acquiring again.
    let script = Script::new()
        .at(ms(10), read())
        .at(ms(50), release())
        .at(ms(100), read());
    let nack = ResponseOutcome::Nacked(NackReason::Recovering);
    let server = ScriptedServer::answering("lock_release", 1, nack);
    let (server, results) = run(server, script, SimTime::from_millis(300));
    assert_eq!(results, [block(), Ok(FsData::Unit)], "the read waits");
    assert_eq!(server.count("lock_acquire"), 1);
    assert_eq!(server.san_reads, 1);
}

/// Server-clock gaps between successive `Hello`s.
fn hello_gaps(server: &ScriptedServer) -> Vec<LocalNs> {
    let at: Vec<LocalNs> = server
        .seen
        .iter()
        .filter(|(k, _)| *k == "hello")
        .map(|(_, t)| *t)
        .collect();
    at.windows(2).map(|w| w[1].minus(w[0])).collect()
}

#[test]
fn a_failed_hello_reply_sends_the_hello_again_at_once() {
    // The first `Hello` is answered with an error: the client sends it
    // again when the reply lands, one round trip later, and the stat at
    // 10 ms is served under the session the second one opens.
    let reply = ResponseOutcome::Acked(Err(FsError::Unavailable));
    let server = ScriptedServer::answering("hello", 1, reply);
    let script = Script::new().at(ms(10), FsOp::Stat { path: "/f".into() });
    let (server, results) = run(server, script, SimTime::from_millis(100));
    assert_eq!(hello_gaps(&server), [LocalNs(200_000)]);
    assert_eq!(results.len(), 1);
    assert!(results[0].is_ok(), "{results:?}");
}

#[test]
fn a_nacked_hello_is_sent_again_after_a_pause() {
    // The contrast: a `Recovering` NACK of the first `Hello` holds the
    // second back for the Hello retry pause, 500 ms after the NACK lands.
    let nack = ResponseOutcome::Nacked(NackReason::Recovering);
    let server = ScriptedServer::answering("hello", 1, nack);
    let (server, _) = run(server, Script::new(), SimTime::from_millis(700));
    assert_eq!(hello_gaps(&server), [LocalNs(500_200_000)]);
}
