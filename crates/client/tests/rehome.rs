//! A lane re-homes to a shard's standby without bouncing, for at most
//! one election window.
//!
//! Two scripted servers play one shard: a primary that goes silent for a
//! while (the client is cut off from it; it stays alive), and a standby
//! that never elects and answers every request `Misrouted(NotPrimary)`.
//! The client's lease runs out on its own clock, so its lane leaves the
//! silent primary for the standby. A silent primary may be a dead one, so
//! the lane stays at the standby through its redirects, re-`Hello`ing at
//! τ/40 — but for no longer than τ(1+ε), the longest an election there can
//! take. After that it probes the primary again, and when the cut heals
//! it re-attaches there.

use tank_client::{ClientConfig, ClientNode};
use tank_core::LeaseConfig;
use tank_proto::message::{NackReason, ReplyBody, ResponseOutcome, RouteError};
use tank_proto::{CtlMsg, Event, Incarnation, NetMsg, NodeId, Request, Response, SessionId};
use tank_sim::{Actor, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

/// One shard address. Ideal clocks throughout: local time is true time.
struct ScriptedShard {
    /// `None`: the standby, redirecting everything. `Some((from, until))`:
    /// the primary, silent (the client is cut off) in `[from, until)`.
    primary_silent: Option<(LocalNs, LocalNs)>,
    sessions: u64,
    /// Every request that arrived: when, its kind, and whether it was
    /// answered.
    seen: Vec<(LocalNs, &'static str, bool)>,
}

impl ScriptedShard {
    fn primary(silent_from: LocalNs, silent_until: LocalNs) -> Self {
        ScriptedShard {
            primary_silent: Some((silent_from, silent_until)),
            sessions: 0,
            seen: Vec::new(),
        }
    }

    fn standby() -> Self {
        ScriptedShard {
            primary_silent: None,
            sessions: 0,
            seen: Vec::new(),
        }
    }
}

impl Actor<NetMsg, Event> for ScriptedShard {
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
        let now = ctx.now();
        let kind = body.kind();
        let (outcome, session) = match self.primary_silent {
            None => {
                let redirect = NackReason::Misrouted(RouteError::NotPrimary);
                (ResponseOutcome::Nacked(redirect), session)
            }
            Some((from, until)) if from <= now && now < until => {
                self.seen.push((now, kind, false));
                return;
            }
            Some(_) if kind == "hello" => {
                self.sessions += 1;
                let session = SessionId(self.sessions);
                let ok = ReplyBody::HelloOk {
                    session,
                    map_epoch: 0,
                };
                (ResponseOutcome::Acked(Ok(ok)), session)
            }
            Some(_) => (ResponseOutcome::Acked(Ok(ReplyBody::Ok)), session),
        };
        self.seen.push((now, kind, true));
        let resp = Response {
            dst: from,
            session,
            seq,
            incarnation: Incarnation(1),
            outcome,
        };
        ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Response(resp)));
    }

    fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, NetMsg, Event>) {}
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

#[test]
fn a_client_cut_off_from_a_live_primary_waits_one_election_window_then_returns() {
    let (cut, heal, end) = (ms(1_000), ms(9_000), ms(12_000));
    let mut lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    lease.epsilon = 0.01;
    let window = lease.server_timeout();

    let mut world: World<NetMsg, Event> = World::new(WorldConfig::default());
    world.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    world.add_network(NetId::SAN, NetParams::ideal(100_000));
    let primary = world.add_node(
        Box::new(ScriptedShard::primary(cut, heal)),
        ClockSpec::ideal(),
    );
    let standby = world.add_node(Box::new(ScriptedShard::standby()), ClockSpec::ideal());
    let mut cfg = ClientConfig::new(primary, Vec::new());
    cfg.alternates = vec![Some(standby)];
    cfg.lease = lease;
    let node = ClientNode::new(cfg);
    world.add_node(Box::new(node), ClockSpec::ideal());
    world.run_until(SimTime(end.0));

    let shard = |id| world.node_ref::<ScriptedShard>(id).unwrap();
    let (at_primary, at_standby) = (&shard(primary).seen, &shard(standby).seen);
    // The lane left the primary once its lease ran out, about τ after
    // the cut — and not before.
    let left = at_standby.first().expect("the lane tried the standby").0;
    assert!(left > cut.plus(ms(1_500)), "left at {left:?}");
    // It stayed through the standby's redirects for one election window,
    // then probed the primary again.
    let probe = at_primary
        .iter()
        .find(|(t, kind, _)| *t > left && *kind == "hello")
        .expect("the primary was probed again")
        .0;
    assert!(probe > left.plus(window), "probed at {probe:?}");
    assert!(
        probe <= left.plus(window).plus(ms(1_000)),
        "probed at {probe:?}, left at {left:?}"
    );
    // After the heal the lane re-attached at the primary and stayed.
    let attached = at_primary
        .iter()
        .find(|(t, kind, answered)| *t >= heal && *kind == "hello" && *answered)
        .expect("a Hello after the heal was answered")
        .0;
    assert!(attached < heal.plus(window), "attached at {attached:?}");
    assert!(at_standby.iter().all(|(t, _, _)| *t < attached));
    assert!(at_primary
        .iter()
        .any(|(t, kind, _)| *t > attached && *kind == "keep_alive"));
    let resumed: Vec<SimTime> = world
        .observations()
        .iter()
        .filter(|(_, _, ev)| matches!(ev, Event::Resumed { .. }))
        .map(|(t, _, _)| *t)
        .collect();
    assert_eq!(resumed.len(), 2, "the first session and the re-attach");
    assert_eq!(resumed[1].0, attached.0 + 100_000, "resumed on the answer");

    // Redirects: at most one per τ/40 poll inside the window (41, plus the
    // one that ends it), then at most one per 500 ms Hello retry, the
    // alternation the lane falls back to.
    let polls = window.0 / lease.tau.over(40).0 + 2;
    let alternation = (attached.0 - left.plus(window).0) / ms(500).0 + 1;
    let redirects = at_standby.len() as u64;
    assert!(
        redirects <= polls + alternation,
        "{redirects} redirects > {polls} + {alternation}"
    );
    assert!(redirects > polls / 2, "the lane did wait at the standby");
}
