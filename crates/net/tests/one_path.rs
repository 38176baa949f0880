//! One request path, two drivers: the same single-client script answered by
//! the simulator's `ServerNode` in a `World` and by `tankd`'s `LeaseServer`
//! on the host over UDP loopback must produce the same `(seq, outcome)`
//! sequence — for the hand-written script, and for random scripts drawn
//! from its request kinds, duplicated seqs and re-sent Hellos among them.
//! Both run one `ServerCore`; only the clocks differ, so `mtime` is masked.
//! Both hand its effects to one instrument fold, so they also end with the
//! same `server.*` counters — all but `server.fences`, which only a server
//! with disks to fence moves.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tank_net::server::{LeaseServer, NetServerConfig};
use tank_obs::{names, Registry};
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Epoch, Event, Ino, LockMode, NackReason, NetMsg, NodeCtx, NodeId, ReqSeq, Request,
    SessionId, WireDecode, WireEncode, MAX_DATAGRAM,
};
use tank_server::{ServerConfig, ServerNode};
use tank_sim::{Actor, ClockSpec, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

const ROOT: Ino = Ino(1);
const A: Ino = Ino(2);

fn req(session: u64, seq: u64, body: RequestBody) -> Request {
    Request {
        src: NodeId(0),
        session: SessionId(session),
        seq: ReqSeq(seq),
        body,
    }
}

/// Hello, create, mkdir, lookup, readdir, getattr, a touch, a batch whose
/// second element fails, lock + release, a duplicated seq, a duplicated
/// Hello, and a request on the old session after a second Hello.
fn script() -> Vec<Request> {
    let hello = RequestBody::Hello { map_epoch: 0 };
    let named = |name: &str| (ROOT, name.to_owned());
    let create = |name: &str| {
        let (parent, name) = named(name);
        RequestBody::Create { parent, name }
    };
    let (parent, name) = named("d");
    let mkdir = RequestBody::Mkdir { parent, name };
    let (parent, name) = named("a");
    let lookup = RequestBody::Lookup { parent, name };
    let mode = LockMode::Exclusive;
    let release = RequestBody::LockRelease {
        ino: A,
        epoch: Epoch(1),
    };
    vec![
        req(0, 1, hello.clone()),
        req(1, 2, create("a")),
        req(1, 3, mkdir),
        req(1, 4, lookup),
        req(1, 5, RequestBody::ReadDir { dir: ROOT }),
        req(1, 6, RequestBody::GetAttr { ino: A }),
        req(1, 7, RequestBody::SetAttr { ino: A, size: None }),
        req(
            1,
            8,
            RequestBody::Batch(vec![create("b"), create("a"), create("c")]),
        ),
        req(1, 9, RequestBody::LockAcquire { ino: A, mode }),
        req(1, 10, release.clone()),
        req(1, 10, release),
        req(0, 1, hello.clone()),
        req(0, 11, hello),
        req(1, 12, RequestBody::KeepAlive),
    ]
}

/// The outcome with every `mtime` zeroed: the two drivers' clocks differ.
fn masked(outcome: ResponseOutcome) -> ResponseOutcome {
    fn reply(r: Result<ReplyBody, FsError>) -> Result<ReplyBody, FsError> {
        r.map(|body| match body {
            ReplyBody::Resolved { ino, mut attr } => {
                attr.mtime = 0;
                ReplyBody::Resolved { ino, attr }
            }
            ReplyBody::Attr { mut attr } => {
                attr.mtime = 0;
                ReplyBody::Attr { attr }
            }
            ReplyBody::Batch(outcomes) => {
                ReplyBody::Batch(outcomes.into_iter().map(reply).collect())
            }
            other => other,
        })
    }
    match outcome {
        ResponseOutcome::Acked(r) => ResponseOutcome::Acked(reply(r)),
        nack => nack,
    }
}

/// Sends the script one request per ms and records every response.
struct Requester {
    server: NodeId,
    script: Vec<Request>,
    answers: Vec<(ReqSeq, ResponseOutcome)>,
}

impl Actor<NetMsg, Event> for Requester {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.script.len() {
            ctx.set_timer(LocalNs::from_millis(1 + i as u64), i as u64);
        }
    }
    fn on_message(&mut self, _f: NodeId, _n: NetId, msg: NetMsg, _ctx: &mut NodeCtx<'_>) {
        if let NetMsg::Ctl(CtlMsg::Response(r)) = msg {
            self.answers.push((r.seq, r.outcome));
        }
    }
    fn on_timer(&mut self, i: u64, ctx: &mut NodeCtx<'_>) {
        let msg = NetMsg::Ctl(CtlMsg::Request(self.script[i as usize].clone()));
        ctx.send(NetId::CONTROL, self.server, msg);
    }
}

/// A Hello, then up to 20 steps: a fresh request of one of the script's
/// kinds (on an older session now and then), an exact duplicate of an
/// earlier request, a re-sent Hello, or a fresh Hello opening a session.
fn random_script(rng: &mut ChaCha8Rng) -> Vec<Request> {
    let hello = || RequestBody::Hello { map_epoch: 0 };
    let mut script = vec![req(0, 1, hello())];
    let mut hellos = script.clone();
    let (mut session, mut seq) = (1, 1);
    for _ in 0..rng.random_range(4..=20) {
        let name = ["a", "b", "c", "d"][rng.random_range(0..4usize)].to_owned();
        let ino = Ino(rng.random_range(1..=6));
        let step = match rng.random_range(0..14) {
            0 => script[rng.random_range(0..script.len())].clone(),
            1 => hellos[rng.random_range(0..hellos.len())].clone(),
            2 => {
                (session, seq) = (session + 1, seq + 1);
                hellos.push(req(0, seq, hello()));
                hellos[hellos.len() - 1].clone()
            }
            kind => {
                let parent = ROOT;
                let body = match kind {
                    3 | 4 => RequestBody::Create { parent, name },
                    5 => RequestBody::Mkdir { parent, name },
                    6 => RequestBody::Lookup { parent, name },
                    7 => RequestBody::ReadDir { dir: ino },
                    8 => RequestBody::GetAttr { ino },
                    9 => RequestBody::SetAttr { ino, size: None },
                    10 => {
                        let lookup = RequestBody::Lookup { parent, name };
                        let create = RequestBody::Create {
                            parent,
                            name: "b".into(),
                        };
                        let pick = [lookup, create, RequestBody::GetAttr { ino }];
                        let len = rng.random_range(1..=3);
                        let batch = (0..len).map(|_| pick[rng.random_range(0..3usize)].clone());
                        RequestBody::Batch(batch.collect())
                    }
                    11 => {
                        let modes = [LockMode::SharedRead, LockMode::Exclusive];
                        let mode = modes[rng.random_range(0..2usize)];
                        RequestBody::LockAcquire { ino, mode }
                    }
                    12 => RequestBody::LockRelease {
                        ino,
                        epoch: Epoch(rng.random_range(1..=4)),
                    },
                    _ => RequestBody::KeepAlive,
                };
                let on = if rng.random_bool(0.15) {
                    rng.random_range(1..=session)
                } else {
                    session
                };
                seq += 1;
                req(on, seq, body)
            }
        };
        script.push(step);
    }
    script
}

/// What a driver answered, and the `server.*` counters it ended with.
type Run = (Vec<(ReqSeq, ResponseOutcome)>, Vec<(String, u64)>);

/// The `server.*` counters both drivers record, sorted by name.
fn server_counters(registry: &Registry) -> Vec<(String, u64)> {
    let mut counters: Vec<_> = (registry.snapshot().counters.into_iter())
        .filter(|c| c.name.starts_with("server.") && c.name != names::SERVER_FENCES.name)
        .map(|c| (c.name, c.value))
        .collect();
    counters.sort();
    counters
}

fn run_in_world(script: Vec<Request>) -> Run {
    let mut w: World<NetMsg, Event> = World::new(WorldConfig::default());
    w.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    let registry = Arc::new(Registry::new());
    let mut node = ServerNode::new(ServerConfig::default(), 1 << 16, 4096);
    node.set_obs(registry.clone());
    let server = w.add_node(Box::new(node), ClockSpec::ideal());
    let len = script.len();
    let requester = Requester {
        server,
        script,
        answers: Vec::new(),
    };
    let requester = w.add_node(Box::new(requester), ClockSpec::ideal());
    w.run_until(SimTime::from_millis(100 + len as u64));
    let answers = &w.node_ref::<Requester>(requester).unwrap().answers;
    (answers.clone(), server_counters(&registry))
}

fn run_over_udp(script: Vec<Request>) -> Run {
    let registry = Arc::new(Registry::new());
    let cfg = NetServerConfig::default();
    let server = LeaseServer::spawn_observed("127.0.0.1:0", cfg, Some(&registry)).unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(server.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    // A duplicate of a request that left no replayable answer is ignored
    // (`InProgress`): the read times out and the script goes on.
    let answers = script
        .into_iter()
        .filter_map(|req| {
            sock.send(&NetMsg::Ctl(CtlMsg::Request(req)).encoded())
                .unwrap();
            let n = sock.recv(&mut buf).ok()?;
            match NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&buf[..n])) {
                Ok(NetMsg::Ctl(CtlMsg::Response(r))) => Some((r.seq, r.outcome)),
                other => panic!("server sent {other:?}"),
            }
        })
        .collect();
    server.stop();
    (answers, server_counters(&registry))
}

fn mask((answers, counters): Run) -> Run {
    let answers = answers
        .into_iter()
        .map(|(seq, outcome)| (seq, masked(outcome)))
        .collect();
    (answers, counters)
}

#[test]
fn server_node_and_tankd_answer_one_script_identically() {
    let (sim, sim_counters) = mask(run_in_world(script()));
    let (udp, udp_counters) = mask(run_over_udp(script()));
    assert_eq!(sim.len(), script().len(), "{sim:?}");
    assert_eq!(sim, udp);
    assert_eq!(sim_counters, udp_counters);
    let counter = |name: &str| sim_counters.iter().find(|c| c.0 == name).map(|c| c.1);
    assert_eq!(counter(names::SERVER_SESSIONS.name), Some(2));
    assert_eq!(counter(names::SERVER_LOCK_GRANTED.name), Some(1));
    assert_eq!(counter(names::SERVER_NACK_STALE_SESSION.name), Some(1));
    // The script reached the arms it was written for.
    let outcome = |i: usize| &sim[i].1;
    let hello_ok = |session| {
        let session = SessionId(session);
        ResponseOutcome::Acked(Ok(ReplyBody::HelloOk {
            session,
            map_epoch: 0,
        }))
    };
    assert_eq!(*outcome(11), hello_ok(1), "duplicated Hello replayed");
    assert_eq!(*outcome(12), hello_ok(2));
    let batch = vec![Ok(ReplyBody::Created { ino: Ino(4) }), Err(FsError::Exists)];
    let batch = ResponseOutcome::Acked(Ok(ReplyBody::Batch(batch)));
    assert_eq!(*outcome(7), batch);
    assert_eq!(sim[10], sim[9], "duplicated seq replayed");
    let stale = ResponseOutcome::Nacked(tank_proto::NackReason::StaleSession);
    assert_eq!(*outcome(13), stale);
}

#[test]
fn server_node_and_tankd_answer_random_scripts_identically() {
    // Each case starts a loopback tankd: few cases, many steps each.
    let mut rng = ChaCha8Rng::seed_from_u64(0x0E_9A7E);
    let (mut replays, mut stale, mut grants) = (0, 0, 0);
    for case in 0..24 {
        let script = random_script(&mut rng);
        let (sim, sim_counters) = mask(run_in_world(script.clone()));
        let (udp, udp_counters) = mask(run_over_udp(script.clone()));
        assert_eq!(sim, udp, "case {case}: {script:?}");
        assert_eq!(sim_counters, udp_counters, "case {case}: {script:?}");
        replays += sim.windows(2).filter(|w| w[0] == w[1]).count();
        let count = |arm: fn(&ResponseOutcome) -> bool| sim.iter().filter(|a| arm(&a.1)).count();
        stale += count(|o| matches!(o, ResponseOutcome::Nacked(NackReason::StaleSession)));
        grants += count(|o| matches!(o, ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { .. }))));
    }
    // The scripts reached the arms they are drawn for.
    assert!(
        replays > 0 && stale > 0 && grants > 0,
        "{replays} {stale} {grants}"
    );
}
