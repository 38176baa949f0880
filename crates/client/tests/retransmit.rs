//! The client's retransmission schedule, pinned against a scripted
//! server that answers every request at once except the lookups of the
//! names it is told to ignore.
//!
//! An unanswered request goes out again `RTO` (250 ms) after it left,
//! then after each doubled timeout, capped at 2 s: copies at +250, +750,
//! +1 750, +3 750 and +5 750 ms. The client keeps one retransmit deadline
//! for all its requests, so these also pin that two requests keep their
//! own schedules under it, that an answer ends a schedule, and that
//! nothing is re-sent for requests a torn-down lane or a restart forgot.

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, FsErr, FsOp, OpGen};
use tank_core::LeaseConfig;
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Event, Incarnation, Ino, NackReason, NetMsg, NodeId, PushBody, ReqSeq, Request,
    Response, ServerPush, SessionId,
};
use tank_sim::world::Control;
use tank_sim::{Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

const ROOT: Ino = Ino(1);

/// A metadata server with one file per name, `/a` … `/z`.
#[derive(Default)]
struct ScriptedServer {
    /// Names whose lookups are never answered.
    mute: Vec<&'static str>,
    /// Also leave keep-alives unanswered, so the lease runs out.
    mute_keepalives: bool,
    /// Every lookup, answered or not: the name, its sequence number, and
    /// when it arrived on the server's clock.
    lookups: Vec<(String, ReqSeq, LocalNs)>,
    /// Requests answered.
    answered: u64,
    /// Lose the first Hello, so the session opens on its retransmission.
    lose_first_hello: bool,
    /// Hellos that arrived.
    hellos: u64,
    /// Requests that arrived under no session, refused as stale.
    sessionless: u64,
    /// Push an invalidation to the client when the lost Hello arrives,
    /// and hold the stale NACKs back until a Hello is answered: they
    /// then land after the session they do not belong to has opened.
    push_before_session: bool,
    held: Vec<Response>,
    /// Keep-alives that arrived.
    keepalives: u64,
}

impl ScriptedServer {
    fn execute(&self, body: &RequestBody) -> Result<ReplyBody, FsError> {
        Ok(match body {
            RequestBody::Hello { map_epoch } => ReplyBody::HelloOk {
                session: SessionId(1),
                map_epoch: *map_epoch,
            },
            RequestBody::Lookup { parent, name } if *parent == ROOT && name.len() == 1 => {
                ReplyBody::Resolved {
                    ino: ino_of(name),
                    attr: FileAttr::default(),
                }
            }
            RequestBody::GetAttr { .. } => ReplyBody::Attr {
                attr: FileAttr::default(),
            },
            RequestBody::KeepAlive | RequestBody::PushAck { .. } => ReplyBody::Ok,
            unexpected => panic!("the scripted server has no answer to {unexpected:?}"),
        })
    }

    fn ignores(&self, body: &RequestBody) -> bool {
        match body {
            RequestBody::Lookup { name, .. } => self.mute.contains(&name.as_str()),
            RequestBody::KeepAlive => self.mute_keepalives,
            _ => false,
        }
    }

    /// Arrival times of the lookups of `name`, per sequence number, in
    /// order of first arrival.
    fn copies(&self, name: &str) -> Vec<(ReqSeq, Vec<LocalNs>)> {
        let mut out: Vec<(ReqSeq, Vec<LocalNs>)> = Vec::new();
        for (n, seq, at) in &self.lookups {
            let (seq, at) = (*seq, *at);
            if n != name {
                continue;
            }
            match out.iter_mut().find(|(s, _)| *s == seq) {
                Some((_, times)) => times.push(at),
                None => out.push((seq, vec![at])),
            }
        }
        out
    }
}

fn ino_of(name: &str) -> Ino {
    Ino(2 + u64::from(name.as_bytes()[0]))
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
        if let RequestBody::Lookup { name, .. } = &body {
            self.lookups.push((name.clone(), seq, ctx.now()));
        }
        let hello = matches!(body, RequestBody::Hello { .. });
        if hello {
            self.hellos += 1;
            if self.lose_first_hello && self.hellos == 1 {
                if self.push_before_session {
                    let push = ServerPush {
                        dst: from,
                        session: SessionId(0),
                        push_seq: 1,
                        body: PushBody::Invalidate { ino: ino_of("a") },
                    };
                    ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Push(push)));
                }
                return;
            }
        }
        if matches!(body, RequestBody::KeepAlive) {
            self.keepalives += 1;
        }
        if self.ignores(&body) {
            return;
        }
        self.answered += 1;
        let outcome = if !hello && session == SessionId(0) {
            self.sessionless += 1;
            ResponseOutcome::Nacked(NackReason::StaleSession)
        } else {
            ResponseOutcome::Acked(self.execute(&body))
        };
        let resp = Response {
            dst: from,
            session: if hello { SessionId(1) } else { session },
            seq,
            incarnation: Incarnation(1),
            outcome,
        };
        if self.push_before_session && !hello && session == SessionId(0) {
            return self.held.push(resp);
        }
        ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Response(resp)));
        if hello {
            for resp in std::mem::take(&mut self.held) {
                ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Response(resp)));
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, NetMsg, Event>) {}
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn stat(path: &str) -> FsOp {
    FsOp::Stat { path: path.into() }
}

/// One server and one observed client with `script` on a 100 µs control
/// network with no jitter; nothing has run yet.
fn world(
    server: ScriptedServer,
    lease: LeaseConfig,
    script: Script,
) -> (World<NetMsg, Event>, NodeId, NodeId) {
    let mut world: World<NetMsg, Event> = World::new(WorldConfig::default());
    world.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    world.add_network(NetId::SAN, NetParams::ideal(100_000));
    let server = world.add_node(Box::new(server), ClockSpec::ideal());
    let mut cfg = ClientConfig::new(server, vec![server]);
    cfg.lease = lease;
    cfg.flush_interval = LocalNs(0);
    let node = ClientNode::new(cfg).with_script(script);
    let client = world.add_node(Box::new(node), ClockSpec::ideal());
    (world, server, client)
}

fn muting(names: &[&'static str]) -> ScriptedServer {
    ScriptedServer {
        mute: names.to_vec(),
        ..ScriptedServer::default()
    }
}

/// `times` less the first of them, in milliseconds.
fn offsets(times: &[LocalNs]) -> Vec<u64> {
    times
        .iter()
        .map(|t| (t.0 - times[0].0) / 1_000_000)
        .collect()
}

/// Every copy must land on a whole millisecond after the first: the
/// schedule is exact, not approximately right.
fn exact(times: &[LocalNs]) -> bool {
    times
        .iter()
        .all(|t| (t.0 - times[0].0).is_multiple_of(1_000_000))
}

fn server(world: &World<NetMsg, Event>, id: NodeId) -> &ScriptedServer {
    world.node_ref::<ScriptedServer>(id).unwrap()
}

fn client(world: &World<NetMsg, Event>, id: NodeId) -> &ClientNode {
    world.node_ref::<ClientNode>(id).unwrap()
}

const SCHEDULE: [u64; 6] = [0, 250, 750, 1_750, 3_750, 5_750];

#[test]
fn an_unanswered_request_is_resent_at_doubling_intervals_capped_at_two_seconds() {
    let script = Script::new().at(ms(10), stat("/a"));
    let (mut w, s, c) = world(muting(&["a"]), LeaseConfig::default(), script);
    w.run_until(SimTime::from_millis(6_500));
    let copies = server(&w, s).copies("a");
    assert_eq!(copies.len(), 1, "one request: {copies:?}");
    let times = &copies[0].1;
    assert_eq!(offsets(times), SCHEDULE, "{times:?}");
    assert!(exact(times), "{times:?}");
    assert_eq!(client(&w, c).stats().retransmits, 5);
}

#[test]
fn two_requests_sent_100ms_apart_each_keep_their_own_schedule() {
    let script = Script::new().at(ms(10), stat("/a")).at(ms(110), stat("/b"));
    let (mut w, s, _) = world(muting(&["a", "b"]), LeaseConfig::default(), script);
    w.run_until(SimTime::from_millis(6_500));
    let srv = server(&w, s);
    let (a, b) = (&srv.copies("a")[0].1, &srv.copies("b")[0].1);
    assert_eq!(offsets(a), SCHEDULE, "{a:?}");
    assert_eq!(offsets(b), SCHEDULE, "{b:?}");
    assert!(exact(a) && exact(b));
    assert_eq!(b[0].minus(a[0]), ms(100), "b left 100 ms after a");
}

#[test]
fn an_answered_request_is_never_resent() {
    // `/a` is answered at once; `/b`, sent 100 ms later, never is. The
    // deadline armed for `/a` stays armed after its answer and fires with
    // nothing due: `/a` must not go out again, then or later.
    let script = Script::new().at(ms(10), stat("/a")).at(ms(110), stat("/b"));
    let (mut w, s, c) = world(muting(&["b"]), LeaseConfig::default(), script);
    w.run_until(SimTime::from_millis(2_000));
    let srv = server(&w, s);
    let a = srv.copies("a");
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].1.len(), 1, "a left once: {a:?}");
    let b = &srv.copies("b")[0].1;
    assert_eq!(offsets(b), [0, 250, 750, 1_750], "{b:?}");
    let node = client(&w, c);
    assert_eq!(node.stats().retransmits, 3, "only b's copies");
    assert_eq!(node.stats().completed, 1, "the stat of /a");
}

#[test]
fn nothing_fires_for_the_requests_of_a_torn_down_lane() {
    // Keep-alives go unanswered too, so the lane's lease runs out at τ =
    // 2 s and the lane is torn down with `/a`'s lookup still pending. Its
    // copies before then keep the schedule; none follows the teardown.
    let srv = ScriptedServer {
        mute: vec!["a"],
        mute_keepalives: true,
        ..ScriptedServer::default()
    };
    let lease = LeaseConfig::with_tau(ms(2_000));
    let script = Script::new().at(ms(10), stat("/a"));
    let (mut w, s, c) = world(srv, lease, script);
    w.run_until(SimTime::from_millis(6_500));
    let copies = server(&w, s).copies("a");
    assert_eq!(copies.len(), 1, "{copies:?}");
    assert_eq!(offsets(&copies[0].1), [0, 250, 750, 1_750]);
    let node = client(&w, c);
    let results: Vec<_> = node.results().map(|(_, r)| r.clone()).collect();
    assert_eq!(
        results,
        [Err(FsErr::LeaseLost)],
        "the stat died with the lane"
    );
}

#[test]
fn nothing_fires_for_the_requests_of_a_life_before_a_restart() {
    // `/a` leaves at 10 ms and is due again at 260 ms, but the client
    // crashes at 100 ms and restarts at 150 ms. The new life's `/b` leaves
    // at 200 ms. The old life's deadline still fires at 260 ms: it must
    // re-send neither `/a` (forgotten) nor `/b` (not due until 450 ms).
    let script = Script::new().at(ms(10), stat("/a")).at(ms(200), stat("/b"));
    let (mut w, s, c) = world(muting(&["a", "b"]), LeaseConfig::default(), script);
    w.schedule_control(SimTime::from_millis(100), Control::Crash { node: c });
    w.schedule_control(SimTime::from_millis(150), Control::Restart { node: c });
    w.run_until(SimTime::from_millis(6_500));
    let srv = server(&w, s);
    let a = srv.copies("a");
    assert_eq!(a.len(), 1);
    assert_eq!(offsets(&a[0].1), [0], "the old life's request: {a:?}");
    let b = &srv.copies("b")[0].1;
    assert_eq!(offsets(b), SCHEDULE, "{b:?}");
    assert!(exact(b));
}

#[test]
fn a_lost_first_hello_sends_nothing_without_a_session() {
    // The first Hello is lost and its copy leaves at 250 ms. The lease
    // its ACK grants runs from the first send, so that ACK finds a
    // keep-alive due before the reply's session is recorded. The
    // keep-alive waits for the session: the server sees no request
    // without one, and keep-alives under the session that opened.
    let srv = ScriptedServer {
        lose_first_hello: true,
        ..ScriptedServer::default()
    };
    let lease = LeaseConfig::with_tau(ms(600));
    let script = Script::new().at(ms(400), stat("/a"));
    let (mut w, s, c) = world(srv, lease, script);
    w.run_until(SimTime::from_millis(1_000));
    let srv = server(&w, s);
    assert_eq!(srv.hellos, 2, "one session, opened by the retransmission");
    assert_eq!(srv.sessionless, 0, "no request left without a session");
    assert!(srv.keepalives > 0, "the lease was kept alive");
    let results: Vec<_> = client(&w, c).results().map(|(_, r)| r.clone()).collect();
    assert_eq!(results.len(), 1);
    assert!(results[0].is_ok(), "{results:?}");
}

#[test]
fn a_nack_for_a_request_sent_before_the_session_opened_leaves_the_session_alone() {
    // The first Hello is lost and its copy leaves at 250 ms. Meanwhile
    // the server pushes an invalidation, and the client acks it with no
    // session to stamp. The server refuses the ack as stale, and the
    // refusal lands just after the retransmitted Hello's reply. That
    // NACK speaks of no session the client holds: no third Hello
    // follows, and the stat after it is served under the session the
    // Hello opened.
    let srv = ScriptedServer {
        lose_first_hello: true,
        push_before_session: true,
        ..ScriptedServer::default()
    };
    let lease = LeaseConfig::with_tau(ms(600));
    let script = Script::new().at(ms(400), stat("/a"));
    let (mut w, s, c) = world(srv, lease, script);
    w.run_until(SimTime::from_millis(500));
    let srv = server(&w, s);
    assert_eq!(srv.hellos, 2, "one session, opened by the retransmission");
    assert!(
        srv.sessionless > 0,
        "a request left before the session opened"
    );
    let results: Vec<_> = client(&w, c).results().map(|(_, r)| r.clone()).collect();
    assert_eq!(results.len(), 1);
    assert!(results[0].is_ok(), "{results:?}");
}

/// Closed-loop `Stat`s of `/a`, one at a time, `count` in all.
struct Stats {
    left: u64,
}

impl OpGen for Stats {
    fn next_op(
        &mut self,
        _rng: &mut rand_chacha::ChaCha8Rng,
        _now: LocalNs,
    ) -> Option<(LocalNs, FsOp)> {
        self.left = self.left.checked_sub(1)?;
        Some((LocalNs(10_000), stat("/a")))
    }
}

#[test]
fn the_timer_state_stays_bounded_over_ten_thousand_answered_requests() {
    let (mut w, s, c) = world(muting(&[]), LeaseConfig::default(), Script::new());
    w.node_mut::<ClientNode>(c)
        .unwrap()
        .set_workload(Box::new(Stats { left: 10_000 }));
    let mut peak_queue = 0;
    for _ in 0..400 {
        w.run_for(10_000_000);
        peak_queue = peak_queue.max(w.queued_events());
        assert!(
            client(&w, c).live_timer_tokens() <= 8,
            "{} live tokens",
            client(&w, c).live_timer_tokens()
        );
    }
    assert_eq!(client(&w, c).stats().completed, 10_000);
    assert!(server(&w, s).answered >= 10_000);
    assert!(
        peak_queue <= 8,
        "{peak_queue} events queued at a slice's end"
    );
}
