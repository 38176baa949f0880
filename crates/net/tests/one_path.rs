//! One request path, two drivers: the same single-client script answered by
//! the simulator's `ServerNode` in a `World` and by `tankd`'s `LeaseServer`
//! over UDP loopback must produce the same `(seq, outcome)` sequence. Both
//! run one `ServerCore`; only the clocks differ, so `mtime` is masked.

use std::net::UdpSocket;
use std::time::Duration;

use tank_net::server::{LeaseServer, NetServerConfig};
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Epoch, Ino, LockMode, NetMsg, NodeId, ReqSeq, Request, SessionId, WireDecode,
    WireEncode, MAX_DATAGRAM,
};
use tank_server::{ServerConfig, ServerNode};
use tank_sim::{Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

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

impl Actor<NetMsg, ()> for Requester {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg, ()>) {
        for i in 0..self.script.len() {
            ctx.set_timer(LocalNs::from_millis(1 + i as u64), i as u64);
        }
    }
    fn on_message(&mut self, _f: NodeId, _n: NetId, msg: NetMsg, _ctx: &mut Ctx<'_, NetMsg, ()>) {
        if let NetMsg::Ctl(CtlMsg::Response(r)) = msg {
            self.answers.push((r.seq, r.outcome));
        }
    }
    fn on_timer(&mut self, i: u64, ctx: &mut Ctx<'_, NetMsg, ()>) {
        let msg = NetMsg::Ctl(CtlMsg::Request(self.script[i as usize].clone()));
        ctx.send(NetId::CONTROL, self.server, msg);
    }
}

fn run_in_world(script: Vec<Request>) -> Vec<(ReqSeq, ResponseOutcome)> {
    let mut w: World<NetMsg> = World::new(WorldConfig::default());
    w.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    let node = ServerNode::<()>::unobserved(ServerConfig::default(), 1 << 16, 4096);
    let server = w.add_node(Box::new(node), ClockSpec::ideal());
    let requester = Requester {
        server,
        script,
        answers: Vec::new(),
    };
    let requester = w.add_node(Box::new(requester), ClockSpec::ideal());
    w.run_until(SimTime::from_millis(100));
    let answers = &w.node_ref::<Requester>(requester).unwrap().answers;
    answers.clone()
}

fn run_over_udp(script: Vec<Request>) -> Vec<(ReqSeq, ResponseOutcome)> {
    let server = LeaseServer::spawn("127.0.0.1:0", NetServerConfig::default()).unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(server.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let answers = script
        .into_iter()
        .map(|req| {
            sock.send(&NetMsg::Ctl(CtlMsg::Request(req)).encoded())
                .unwrap();
            let n = sock.recv(&mut buf).expect("answered");
            match NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&buf[..n])) {
                Ok(NetMsg::Ctl(CtlMsg::Response(r))) => (r.seq, r.outcome),
                other => panic!("server sent {other:?}"),
            }
        })
        .collect();
    server.stop();
    answers
}

#[test]
fn server_node_and_tankd_answer_one_script_identically() {
    let mask = |answers: Vec<(ReqSeq, ResponseOutcome)>| -> Vec<_> {
        answers
            .into_iter()
            .map(|(seq, outcome)| (seq, masked(outcome)))
            .collect()
    };
    let sim = mask(run_in_world(script()));
    let udp = mask(run_over_udp(script()));
    assert_eq!(sim.len(), script().len(), "{sim:?}");
    assert_eq!(sim, udp);
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
