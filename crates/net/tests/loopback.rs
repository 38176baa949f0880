//! Real-network loopback tests of the server: `LeaseServer` over actual
//! UDP sockets, probed by bare protocol peers. (The client over UDP is
//! tested in `crates/netclient/tests/loopback.rs`.)
//!
//! These use short leases (τ = 600ms) so lease expiry is observable in
//! test time; they are wall-clock tests and tolerate scheduling slop.

use std::collections::BTreeSet;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tank_core::LeaseConfig;
use tank_net::server::{LeaseServer, NetServerConfig};
use tank_net::{DirFaults, FaultConfig};
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Epoch, Ino, LockMode, NackReason, NetMsg, NodeId, ReqSeq, Request, Response,
    ServerPush, SessionId, WireDecode, WireEncode, MAX_DATAGRAM,
};
use tank_server::DemandLadder;
use tank_sim::LocalNs;

fn short_lease() -> LeaseConfig {
    let mut l = LeaseConfig::with_tau(LocalNs::from_millis(600));
    l.epsilon = 0.01;
    l
}

fn server_cfg() -> NetServerConfig {
    NetServerConfig {
        lease: short_lease(),
        ladder: DemandLadder {
            retry_interval: LocalNs::from_millis(50),
            retries: 2,
            release_timeout: LocalNs::from_millis(500),
        },
        ..NetServerConfig::default()
    }
}

// ------------------------------------------------------------------
// Bare protocol peers: one UDP socket each, no retransmission and no
// keep-alive thread, so a test sees every datagram the server sends and
// nothing else.

const ROOT: Ino = Ino(1);

struct RawPeer {
    sock: UdpSocket,
    /// The node id the server assigned this socket's address.
    me: NodeId,
    session: SessionId,
    next_seq: u64,
}

impl RawPeer {
    /// Bind next to `server` (same address family) and open a session.
    fn hello(server: SocketAddr) -> RawPeer {
        let bind = if server.is_ipv6() {
            "[::1]:0"
        } else {
            "127.0.0.1:0"
        };
        let sock = UdpSocket::bind(bind).unwrap();
        sock.connect(server).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut peer = RawPeer {
            sock,
            me: NodeId(0),
            session: SessionId(0),
            next_seq: 1,
        };
        peer.send(RequestBody::Hello { map_epoch: 0 });
        let resp = peer.response().expect("hello answered");
        match resp.outcome {
            ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { session, .. })) => {
                peer.me = resp.dst;
                peer.session = session;
            }
            other => panic!("hello refused: {other:?}"),
        }
        peer
    }

    fn send(&mut self, body: RequestBody) -> ReqSeq {
        let seq = ReqSeq(self.next_seq);
        self.next_seq += 1;
        let msg = NetMsg::Ctl(CtlMsg::Request(Request {
            src: self.me,
            session: self.session,
            seq,
            body,
        }));
        self.sock.send(&msg.encoded()).unwrap();
        seq
    }

    /// The next datagram, or `None` once the socket has been quiet for
    /// the read timeout.
    fn recv(&self) -> Option<CtlMsg> {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let n = self.sock.recv(&mut buf).ok()?;
        match NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&buf[..n])) {
            Ok(NetMsg::Ctl(msg)) => Some(msg),
            other => panic!("server sent {other:?}"),
        }
    }

    /// The next response (pushes skipped).
    fn response(&self) -> Option<Response> {
        loop {
            if let CtlMsg::Response(r) = self.recv()? {
                return Some(r);
            }
        }
    }

    /// Send `body` and wait for its answer.
    fn call(&mut self, body: RequestBody) -> Result<ReplyBody, FsError> {
        let seq = self.send(body);
        let resp = self.response().expect("answered");
        assert_eq!(resp.seq, seq);
        match resp.outcome {
            ResponseOutcome::Acked(result) => result,
            ResponseOutcome::Nacked(why) => panic!("nacked: {why:?}"),
        }
    }

    /// Create `name` in the root directory.
    fn create(&mut self, name: &str) -> Ino {
        match self.call(RequestBody::Create {
            parent: ROOT,
            name: name.into(),
        }) {
            Ok(ReplyBody::Created { ino }) => ino,
            other => panic!("create: {other:?}"),
        }
    }

    /// Take the exclusive lock on an uncontended `ino`.
    fn lock(&mut self, ino: Ino) -> Epoch {
        let mode = LockMode::Exclusive;
        match self.call(RequestBody::LockAcquire { ino, mode }) {
            Ok(ReplyBody::LockGranted { epoch, .. }) => epoch,
            other => panic!("lock: {other:?}"),
        }
    }
}

/// 900 lookups of a 60-byte name that does not exist: a ≈ 64 KB request
/// whose batch stops at its first element.
fn big_batch() -> RequestBody {
    RequestBody::Batch(vec![
        RequestBody::Lookup {
            parent: ROOT,
            name: "n".repeat(60),
        };
        900
    ])
}

/// ≥ 8 peers fire their requests without waiting — more datagrams than
/// one receive vector holds, one of them nearly `MAX_DATAGRAM` long — and
/// each must get exactly its own answers, once, on its own socket.
fn burst_is_answered_exactly_once_each(bind: &str) {
    let server = LeaseServer::spawn(bind, server_cfg()).unwrap();
    let mut peers: Vec<RawPeer> = (0..9).map(|_| RawPeer::hello(server.addr)).collect();
    let mut sent: Vec<BTreeSet<ReqSeq>> = vec![BTreeSet::new(); peers.len()];

    let big = peers[0].send(big_batch());
    sent[0].insert(big);
    for _ in 0..6 {
        for (peer, sent) in peers.iter_mut().zip(&mut sent) {
            sent.insert(peer.send(RequestBody::GetAttr { ino: ROOT }));
        }
    }

    for (peer, sent) in peers.iter().zip(&sent) {
        let mut answered = BTreeSet::new();
        while let Some(resp) = peer.response() {
            assert_eq!((resp.dst, resp.session), (peer.me, peer.session));
            assert!(answered.insert(resp.seq), "{:?} answered twice", resp.seq);
            match resp.outcome {
                ResponseOutcome::Acked(Ok(ReplyBody::Attr { attr })) => assert!(attr.is_dir),
                ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))) => {
                    assert_eq!(resp.seq, big);
                    assert_eq!(outcomes, vec![Err(FsError::NotFound)]);
                }
                other => panic!("unexpected answer: {other:?}"),
            }
        }
        assert_eq!(&answered, sent);
    }
    let stats = server.stop();
    assert_eq!(stats.requests, 9 + 1 + 9 * 6, "hellos + batch + getattrs");
    assert_eq!((stats.nacks, stats.replays), (0, 0));
}

#[test]
fn burst_from_many_sockets_is_answered_exactly_once_each() {
    let big = NetMsg::Ctl(CtlMsg::Request(Request {
        src: NodeId(1),
        session: SessionId(1),
        seq: ReqSeq(1),
        body: big_batch(),
    }));
    let len = big.encoded().len();
    assert!(
        (60_000..=65_507).contains(&len),
        "the big request is near MAX_DATAGRAM: {len}"
    );
    burst_is_answered_exactly_once_each("127.0.0.1:0");
}

#[test]
fn burst_from_ipv6_peers_is_answered_on_the_right_sockets() {
    if UdpSocket::bind("[::1]:0").is_err() {
        return; // no IPv6 loopback on this host
    }
    burst_is_answered_exactly_once_each("[::1]:0");
}

#[test]
fn server_send_faults_apply_to_the_batched_flush() {
    // Every outgoing datagram dropped: requests are executed, nothing is
    // ever heard back — the flush cannot bypass the fault shim.
    let mut cfg = server_cfg();
    cfg.faults = FaultConfig {
        seed: 3,
        send: DirFaults::dropping(1.0),
        ..FaultConfig::none()
    };
    let server = LeaseServer::spawn("127.0.0.1:0", cfg).unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(server.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    for seq in 1..=40 {
        let hello = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(0),
            session: SessionId(0),
            seq: ReqSeq(seq),
            body: RequestBody::Hello { map_epoch: 0 },
        }));
        sock.send(&hello.encoded()).unwrap();
    }
    let mut buf = [0u8; 2048];
    assert!(sock.recv(&mut buf).is_err(), "the server stayed silent");
    assert_eq!(server.stop().requests, 40, "but it executed every hello");
}

#[test]
fn stop_returns_final_counters_and_everything_drained_was_answered() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let mut peer = RawPeer::hello(server.addr);
    for _ in 0..100 {
        peer.send(RequestBody::GetAttr { ino: ROOT });
    }
    // Stop with the burst still in flight: whatever the reactor had
    // drained by then it executed *and* answered before its thread
    // exited, and the counters it returns say exactly how much that was.
    let stats = server.stop();
    let mut answers = 0;
    while peer.response().is_some() {
        answers += 1;
    }
    assert_eq!(
        stats.requests,
        1 + answers,
        "hello + every answered request"
    );
    assert_eq!((stats.nacks, stats.replays), (0, 0));
}

#[test]
fn push_retry_fires_on_time_under_a_flood() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = server.addr;
    let push_retry = Duration::from_nanos(server_cfg().ladder.retry_interval.0);

    // Closed-loop flooders: each keeps 16 requests outstanding, so the
    // server's socket is (nearly) never empty while they run.
    let flooding = AtomicBool::new(true);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut peer = RawPeer::hello(addr);
                for _ in 0..16 {
                    peer.send(RequestBody::GetAttr { ino: ROOT });
                }
                while flooding.load(Ordering::SeqCst) {
                    if peer.response().is_some() {
                        peer.send(RequestBody::GetAttr { ino: ROOT });
                    }
                }
            });
        }

        // The holder takes a lock and then ignores the demand for it, so
        // the only thing that re-sends the demand is the PushRetry timer.
        let mut holder = RawPeer::hello(addr);
        let ino = holder.create("hot");
        holder.lock(ino);
        let mut waiter = RawPeer::hello(addr);
        waiter.send(RequestBody::LockAcquire {
            ino,
            mode: LockMode::Exclusive,
        });

        let mut demands: Vec<(u64, Instant)> = Vec::new();
        while demands.len() < 2 {
            match holder.recv() {
                Some(CtlMsg::Push(ServerPush { push_seq, .. })) => {
                    demands.push((push_seq, Instant::now()));
                }
                Some(_) => {}
                None => break,
            }
        }
        flooding.store(false, Ordering::SeqCst);

        assert_eq!(demands.len(), 2, "the demand was re-sent under load");
        assert_eq!(demands[0].0, demands[1].0, "same push, retried");
        let gap = demands[1].1 - demands[0].1;
        // Due at push_retry; the reactor looks at its timers once per
        // drained batch and at least every MAX_POLL (25 ms). The rest is
        // scheduling slack for a loaded two-core box (which can also make
        // this thread late for the *first* demand, hence the loose floor).
        let slack = Duration::from_millis(25 + 150);
        assert!(
            gap >= push_retry / 2 && gap <= push_retry + slack,
            "retry after {gap:?}, push_retry = {push_retry:?}"
        );
    });
    server.stop();
}

#[test]
fn stale_release_does_not_cancel_a_live_demand() {
    // A retry budget long enough for the holder to sit on the demand for
    // the whole test without being declared dead.
    let mut cfg = server_cfg();
    cfg.ladder.retries = 40;
    let server = LeaseServer::spawn("127.0.0.1:0", cfg).unwrap();
    let mut holder = RawPeer::hello(server.addr);
    let ino = holder.create("hot");
    // Two tenures, so a release naming the first is stale during the second.
    let old = holder.lock(ino);
    assert_eq!(
        holder.call(RequestBody::LockRelease { ino, epoch: old }),
        Ok(ReplyBody::Ok)
    );
    let held = holder.lock(ino);
    assert!(held > old);

    let mut waiter = RawPeer::hello(server.addr);
    let parked = waiter.send(RequestBody::LockAcquire {
        ino,
        mode: LockMode::Exclusive,
    });
    let demand = match holder.recv() {
        Some(CtlMsg::Push(push)) => push.push_seq,
        other => panic!("expected the demand, got {other:?}"),
    };

    // A straggler from the first tenure. The lock table ignores it, so
    // the demand for the grant still held must keep being retried: any
    // push after this answer was sent after the release was processed.
    let stale = holder.send(RequestBody::LockRelease { ino, epoch: old });
    assert_eq!(holder.response().expect("answered").seq, stale);
    assert!(
        matches!(holder.recv(), Some(CtlMsg::Push(push)) if push.push_seq == demand),
        "the demand survives a stale release"
    );
    assert!(waiter.recv().is_none(), "the lock is still held");

    assert_eq!(
        holder.call(RequestBody::LockRelease { ino, epoch: held }),
        Ok(ReplyBody::Ok)
    );
    let grant = waiter.response().expect("granted once really released");
    assert_eq!(grant.seq, parked);
    match grant.outcome {
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, .. })) => assert!(epoch > held),
        other => panic!("expected the grant, got {other:?}"),
    }
    assert_eq!(server.stop().delivery_errors, 0);
}

#[test]
fn a_foreign_push_ack_does_not_stop_the_retry_ladder() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let mut holder = RawPeer::hello(server.addr);
    let ino = holder.create("hot");
    holder.lock(ino);
    let mut meddler = RawPeer::hello(server.addr);
    let mut waiter = RawPeer::hello(server.addr);
    let mode = LockMode::Exclusive;
    let parked = waiter.send(RequestBody::LockAcquire { ino, mode });
    let Some(CtlMsg::Push(ServerPush { push_seq, .. })) = holder.recv() else {
        panic!("expected the demand");
    };
    let demanded_at = Instant::now();

    // Push seqs are small consecutive integers: a third client can name
    // this one. Its ack must change nothing — the holder is silent, so the
    // demand comes again on schedule, not after the release timeout.
    let guess = RequestBody::PushAck { push_seq };
    assert_eq!(meddler.call(guess), Ok(ReplyBody::Ok));
    assert!(
        matches!(holder.recv(), Some(CtlMsg::Push(push)) if push.push_seq == push_seq),
        "the holder's retry ladder kept running"
    );
    let retry = Duration::from_nanos(server_cfg().ladder.retry_interval.0);
    // Same slack as `push_retry_fires_on_time_under_a_flood`.
    let (gap, slack) = (demanded_at.elapsed(), Duration::from_millis(25 + 150));
    assert!(gap <= retry + slack, "retry after {gap:?}");

    // The silent holder is then timed out and the waiter granted.
    let grant = (0..20).find_map(|_| waiter.response());
    let grant = grant.expect("granted once the lock was stolen");
    assert_eq!(grant.seq, parked);
    assert!(matches!(
        grant.outcome,
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { .. }))
    ));
    let stats = server.stop();
    assert!(stats.delivery_errors >= 1 && stats.locks_stolen >= 1);
}

#[test]
fn a_silent_holders_lock_is_back_a_lease_after_the_demand_not_a_ladder_later() {
    // The default ladder takes 4 × 200ms to give up on a holder. The
    // lease wait runs beside it, from the last ACK the holder was sent, so
    // the waiter is granted τ(1+ε) after the first demand; run one after
    // the other they could never take less than τ(1+ε) + 800ms.
    let lease = LeaseConfig::with_tau(LocalNs::from_secs(1));
    let cfg = NetServerConfig {
        lease,
        ..NetServerConfig::default()
    };
    let registry = std::sync::Arc::new(tank_obs::Registry::new());
    let server = LeaseServer::spawn_observed("127.0.0.1:0", cfg, Some(&registry)).unwrap();
    let mut holder = RawPeer::hello(server.addr);
    let ino = holder.create("hot");
    holder.lock(ino);
    let mut waiter = RawPeer::hello(server.addr);
    let mode = LockMode::Exclusive;
    // Read before the acquire is sent, so before the demand it provokes.
    let asked_at = Instant::now();
    let parked = waiter.send(RequestBody::LockAcquire { ino, mode });
    assert!(matches!(holder.recv(), Some(CtlMsg::Push(_))), "demanded");

    // The holder stays silent: no PushAck, no keep-alive, no release.
    let grant = (0..20).find_map(|_| waiter.response());
    let waited = asked_at.elapsed();
    let grant = grant.expect("granted once the lock was stolen");
    assert_eq!(grant.seq, parked);
    assert!(matches!(
        grant.outcome,
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { .. }))
    ));
    let floor = Duration::from_nanos(lease.server_timeout().0);
    assert!(waited >= floor, "stolen inside the lease: {waited:?}");
    assert!(
        waited < floor + Duration::from_millis(600),
        "the ladder was served before the lease wait, not beside it: {waited:?}"
    );
    let stats = server.stop();
    assert_eq!((stats.delivery_errors, stats.steals), (1, 1));
    // The simulator server's fold counted the same story on tankd.
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("server.sessions"), 2);
    assert_eq!(
        counter("server.lock.granted"),
        2,
        "the holder's, then the waiter's"
    );
    assert_eq!(
        counter("server.demands_sent"),
        4,
        "a demand and its 3 retries"
    );
    assert_eq!(counter("server.delivery_errors"), 1);
    assert_eq!(counter("server.condemn.fired"), 1);
    assert_eq!(
        (counter("server.steals"), counter("server.lock.stolen")),
        (1, 1)
    );
    let latency = snap.histogram("server.steal_latency_ns").unwrap();
    assert_eq!(latency.count, 1);
    assert!(latency.sum <= lease.server_timeout().0, "{latency:?}");
}

#[test]
fn a_grant_that_falls_due_while_its_waiter_is_suspect_is_a_nack() {
    // The holder of `f` ignores the waiter's demand and, 300ms into the
    // retry ladder, queues for `g` behind a neighbour. The ladder runs out
    // at 800ms and the holder's τ(1+ε) counts from the demand; the
    // neighbour lets go of `g` at ≈ 1s. The holder's turn has come, but an
    // ACK would renew its lease from the acquire's send — 300ms past what
    // the steal allows for — so it must be told its lease is timing out.
    let cfg = NetServerConfig {
        lease: LeaseConfig::with_tau(LocalNs::from_secs(2)),
        ..NetServerConfig::default()
    };
    let server = LeaseServer::spawn("127.0.0.1:0", cfg).unwrap();
    let mode = LockMode::Exclusive;
    let mut holder = RawPeer::hello(server.addr);
    let f = holder.create("f");
    holder.lock(f);
    let mut neighbour = RawPeer::hello(server.addr);
    let g = neighbour.create("g");
    let epoch = neighbour.lock(g);
    let mut waiter = RawPeer::hello(server.addr);
    let for_f = waiter.send(RequestBody::LockAcquire { ino: f, mode });
    assert!(matches!(holder.recv(), Some(CtlMsg::Push(_))), "demanded");
    let demanded_at = Instant::now();

    std::thread::sleep(Duration::from_millis(300));
    let for_g = holder.send(RequestBody::LockAcquire { ino: g, mode });
    // The neighbour is flushing: it acks the demand now and releases later.
    let Some(CtlMsg::Push(ServerPush { push_seq, .. })) = neighbour.recv() else {
        panic!("expected the demand for g");
    };
    let flushing = RequestBody::PushAck { push_seq };
    assert_eq!(neighbour.call(flushing), Ok(ReplyBody::Ok));
    std::thread::sleep(Duration::from_millis(1_000).saturating_sub(demanded_at.elapsed()));
    let release = RequestBody::LockRelease { ino: g, epoch };
    assert_eq!(neighbour.call(release), Ok(ReplyBody::Ok));

    let answer = holder.response().expect("the queued acquire is answered");
    assert_eq!(answer.seq, for_g);
    let refused = ResponseOutcome::Nacked(NackReason::LeaseTimingOut);
    assert_eq!(answer.outcome, refused, "never an ACK");
    // And the steal is still timed from the demand.
    let grant = (0..20).find_map(|_| waiter.response());
    assert_eq!(grant.expect("granted once f was stolen").seq, for_f);
    let waited = demanded_at.elapsed();
    assert!(waited < Duration::from_millis(2_020 + 600), "{waited:?}");
    let stats = server.stop();
    assert_eq!((stats.delivery_errors, stats.steals), (1, 1));
    assert_eq!(stats.locks_stolen, 2, "f, and g too");
}

#[test]
fn observed_server_records_reactor_and_batch_instruments() {
    let registry = std::sync::Arc::new(tank_obs::Registry::new());
    let server = LeaseServer::spawn_observed("127.0.0.1:0", server_cfg(), Some(&registry)).unwrap();
    let mut peer = RawPeer::hello(server.addr);
    let batch = RequestBody::Batch(vec![RequestBody::GetAttr { ino: ROOT }; 4]);
    assert!(matches!(peer.call(batch), Ok(ReplyBody::Batch(outcomes)) if outcomes.len() == 4));
    server.stop();

    let snap = registry.snapshot();
    assert!(snap.counter("net.reactor.wakeups").unwrap_or(0) > 0);
    let drained = snap.histogram("net.reactor.datagrams_per_wakeup").unwrap();
    assert_eq!(drained.sum, 2, "the hello and the batch");
    assert_eq!(snap.histogram("server.batch.exec_ns").unwrap().count, 1);
}

#[test]
fn datagrams_tankd_cannot_decode_are_counted() {
    let registry = std::sync::Arc::new(tank_obs::Registry::new());
    let server = LeaseServer::spawn_observed("127.0.0.1:0", server_cfg(), Some(&registry)).unwrap();
    let noise = UdpSocket::bind("127.0.0.1:0").unwrap();
    for junk in [&b"\xff noise"[..], &[0xFF; 7], &[]] {
        noise.send_to(junk, server.addr).unwrap();
    }
    // The hello queues behind the noise, so its answer means the noise
    // was drained and decoded first.
    let mut peer = RawPeer::hello(server.addr);
    assert!(peer.call(RequestBody::GetAttr { ino: ROOT }).is_ok());
    let stats = server.stop();
    assert_eq!(stats.requests, 2, "the noise reached no request path");
    assert_eq!(
        registry.snapshot().counter("net.server.decode_errors"),
        Some(3)
    );
}

#[test]
fn mutations_are_stamped_with_the_wakeups_clock_reading() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let mut peer = RawPeer::hello(server.addr);
    let named = |name: &str| (ROOT, name.to_owned());
    let mtime_of = |peer: &mut RawPeer, name: &str| {
        let (parent, name) = named(name);
        match peer.call(RequestBody::Lookup { parent, name }) {
            Ok(ReplyBody::Resolved { attr, .. }) => attr.mtime,
            other => panic!("lookup: {other:?}"),
        }
    };
    // One datagram is one wakeup at most: its elements share a stamp.
    let create = |name: &str| {
        let (parent, name) = named(name);
        RequestBody::Create { parent, name }
    };
    let batch = RequestBody::Batch(vec![create("a"), create("b")]);
    assert!(matches!(peer.call(batch), Ok(ReplyBody::Batch(o)) if o.iter().all(Result::is_ok)));
    let (a, b) = (mtime_of(&mut peer, "a"), mtime_of(&mut peer, "b"));
    assert_eq!(a, b, "one wakeup, one clock reading");
    // Across wakeups the stamp never goes back, and a wakeup a sleep later
    // reads a later clock.
    let mut last = a;
    for i in 0..20 {
        if i == 10 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let name = format!("f{i}");
        peer.create(&name);
        let mtime = mtime_of(&mut peer, &name);
        assert!(mtime >= last, "mtime went back: {last} -> {mtime}");
        last = mtime;
    }
    assert!(
        last - a >= 5_000_000,
        "stamps follow the clock: {a} -> {last}"
    );
    server.stop();
}

#[test]
fn a_hello_from_another_map_epoch_is_misrouted() {
    // tankd runs the routing gates of the single-shard map: every inode is
    // its own, but a client holding another map must not open a session.
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(server.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let hello = NetMsg::Ctl(CtlMsg::Request(Request {
        src: NodeId(0),
        session: SessionId(0),
        seq: ReqSeq(1),
        body: RequestBody::Hello { map_epoch: 7 },
    }));
    sock.send(&hello.encoded()).unwrap();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let n = sock.recv(&mut buf).expect("answered");
    let Ok(NetMsg::Ctl(CtlMsg::Response(resp))) =
        NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&buf[..n]))
    else {
        panic!("expected a response");
    };
    let stale_map = NackReason::Misrouted(tank_proto::RouteError::StaleMap);
    assert_eq!(resp.outcome, ResponseOutcome::Nacked(stale_map));
    let stats = server.stop();
    assert_eq!((stats.requests, stats.nacks), (0, 1));
}
