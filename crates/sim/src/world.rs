//! The world: event queue, dispatch, networks, clocks, fault injection.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tank_obs::{names, Counter, Registry};

use crate::actor::{Actor, Ctx, Effect};
use crate::net::{NetId, NetParams, Network};
use crate::stats::MsgStats;
use crate::time::{Clock, ClockSpec, SimTime};
use crate::{NodeId, Payload};

/// World construction parameters.
#[derive(Debug, Clone, Default)]
pub struct WorldConfig {
    /// Master seed; every random decision in the run derives from it.
    pub seed: u64,
    /// Open the tracing gate of the registry attached with
    /// [`World::set_obs`]: the nodes' structured trace events are recorded.
    pub record_trace: bool,
    /// Record the causal skeleton of the run — send, deliver, and observe
    /// records grouped by dispatch — for offline happens-before analysis.
    /// Pure logging: the schedule, RNG draws, and history are bit-identical
    /// with it on or off.
    pub record_causal: bool,
}

/// One entry in the causal log: enough structure to reconstruct the
/// happens-before skeleton of a run offline. `dispatch` groups records by
/// the actor activation that produced (or consumed) them — everything
/// inside one dispatch is a single atomic step in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalRecord {
    /// A message was submitted to a network (before loss/partition rules
    /// applied — a send with no matching deliver was dropped en route).
    Send {
        /// Globally unique message id; duplicated deliveries share it.
        msg_id: u64,
        /// The dispatch that emitted the send.
        dispatch: u64,
        /// Sending node.
        node: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Network carrying the datagram.
        net: NetId,
        /// Payload kind label (for rendering causal paths).
        kind: &'static str,
        /// True send time.
        at: SimTime,
    },
    /// A message reached a live destination actor. Duplicate deliveries
    /// produce one record each, all pointing at the same `msg_id`.
    Deliver {
        /// The id assigned at the matching [`CausalRecord::Send`].
        msg_id: u64,
        /// The dispatch this delivery triggered at the destination.
        dispatch: u64,
        /// Receiving node.
        node: NodeId,
        /// Originating node.
        src: NodeId,
        /// Network that carried the datagram.
        net: NetId,
        /// Payload kind label.
        kind: &'static str,
        /// True delivery time.
        at: SimTime,
    },
    /// An observation was emitted; `obs_index` is its position in
    /// [`World::observations`], linking the causal skeleton to the
    /// checker-facing event stream.
    Observe {
        /// Index into the observation stream.
        obs_index: usize,
        /// The dispatch that emitted it.
        dispatch: u64,
        /// Emitting node.
        node: NodeId,
        /// True emission time.
        at: SimTime,
    },
}

/// Fault-injection and topology controls, schedulable at a future time.
#[derive(Debug, Clone)]
pub enum Control {
    /// Block the directed link `src → dst` on `net`.
    BlockDirected {
        net: NetId,
        src: NodeId,
        dst: NodeId,
    },
    /// Unblock the directed link.
    UnblockDirected {
        net: NetId,
        src: NodeId,
        dst: NodeId,
    },
    /// Block both directions between two nodes.
    BlockPair { net: NetId, a: NodeId, b: NodeId },
    /// Unblock both directions.
    UnblockPair { net: NetId, a: NodeId, b: NodeId },
    /// Partition `net` into groups (cross-group traffic blocked).
    Partition {
        net: NetId,
        groups: Vec<Vec<NodeId>>,
    },
    /// Remove every block on `net`.
    Heal { net: NetId },
    /// Fail-stop a node: it stops processing deliveries and timers.
    Crash { node: NodeId },
    /// Restart a crashed node (dispatches [`Actor::on_restart`]).
    Restart { node: NodeId },
    /// Replace a network's delivery parameters.
    SetParams { net: NetId, params: NetParams },
    /// Add a fixed extra delay to every datagram *sent by* `node` on any
    /// network — the paper's §6 "slow computer", whose commands arrive
    /// late. Zero clears it.
    SetNodeOutboundDelay { node: NodeId, extra_ns: u64 },
}

/// Pre-resolved obs handles so the per-message hot path in [`World::route`]
/// and [`World::step_one`] touches atomics, never the registry lock.
struct WorldObs {
    registry: Arc<Registry>,
    sent: Arc<Counter>,
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
    blocked: Arc<Counter>,
    to_dead: Arc<Counter>,
}

impl WorldObs {
    fn new(registry: Arc<Registry>) -> WorldObs {
        WorldObs {
            sent: registry.counter_def(&names::SIM_MSG_SENT),
            delivered: registry.counter_def(&names::SIM_MSG_DELIVERED),
            dropped: registry.counter_def(&names::SIM_MSG_DROPPED),
            blocked: registry.counter_def(&names::SIM_MSG_BLOCKED),
            to_dead: registry.counter_def(&names::SIM_MSG_TO_DEAD),
            registry,
        }
    }
}

/// What an event in the queue does when popped.
enum Pending<P> {
    Deliver {
        net: NetId,
        src: NodeId,
        dst: NodeId,
        msg: P,
        /// Causal id assigned at send time (0 when causal logging is off).
        msg_id: u64,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Control(Control),
}

/// A scheduled event. Ordered by `(at, seq)`; `seq` is insertion order,
/// giving deterministic FIFO tie-breaking.
struct Scheduled<P> {
    at: SimTime,
    seq: u64,
    what: Pending<P>,
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P> Eq for Scheduled<P> {}
impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event world.
///
/// Type parameters: `P` is the datagram payload, `Ob` the observation type
/// emitted for offline checking.
pub struct World<P: Payload, Ob = ()> {
    now: SimTime,
    started: bool,
    actors: Vec<Option<Box<dyn Actor<P, Ob>>>>,
    clocks: Vec<Clock>,
    rngs: Vec<ChaCha8Rng>,
    crashed: Vec<bool>,
    /// Extra outbound delay per node (slow-computer modeling).
    slow_extra: Vec<u64>,
    networks: BTreeMap<NetId, Network>,
    queue: BinaryHeap<Scheduled<P>>,
    seq: u64,
    seeder: ChaCha8Rng,
    net_rng: ChaCha8Rng,
    stats: MsgStats,
    observations: Vec<(SimTime, NodeId, Ob)>,
    record_trace: bool,
    events_processed: u64,
    obs: Option<WorldObs>,
    /// Causal log (None unless `record_causal`).
    causal: Option<Vec<CausalRecord>>,
    /// Next message id for causal sends (ids start at 1; 0 = unlogged).
    next_msg_id: u64,
    /// Next dispatch id (each actor activation gets one).
    next_dispatch: u64,
    /// The effect buffer every activation fills and `apply_effects`
    /// drains; kept so its capacity is allocated once per world.
    effects_buf: Vec<Effect<P, Ob>>,
}

impl<P: Payload + 'static, Ob: 'static> World<P, Ob> {
    /// Create an empty world.
    pub fn new(config: WorldConfig) -> Self {
        let mut seeder = ChaCha8Rng::seed_from_u64(config.seed);
        let net_rng = ChaCha8Rng::seed_from_u64(seeder.next_u64());
        World {
            now: SimTime::ZERO,
            started: false,
            actors: Vec::new(),
            clocks: Vec::new(),
            rngs: Vec::new(),
            crashed: Vec::new(),
            slow_extra: Vec::new(),
            networks: BTreeMap::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            seeder,
            net_rng,
            stats: MsgStats::default(),
            observations: Vec::new(),
            record_trace: config.record_trace,
            events_processed: 0,
            obs: None,
            causal: config.record_causal.then(Vec::new),
            next_msg_id: 0,
            next_dispatch: 0,
            effects_buf: Vec::new(),
        }
    }

    /// Attach an observability registry. Registers the sim-layer metric
    /// contract and forwards the world's `record_trace` flag into the
    /// registry's tracing gate.
    pub fn set_obs(&mut self, registry: Arc<Registry>) {
        names::register_all(&registry);
        registry.set_tracing(self.record_trace);
        self.obs = Some(WorldObs::new(registry));
    }

    /// The attached observability registry, if any.
    pub fn obs(&self) -> Option<&Arc<Registry>> {
        self.obs.as_ref().map(|o| &o.registry)
    }

    /// Register a network. Must happen before the first send on it.
    pub fn add_network(&mut self, id: NetId, params: NetParams) {
        let prev = self.networks.insert(id, Network::new(params));
        assert!(prev.is_none(), "network {id} registered twice");
    }

    /// Register a node with its clock. Ids are assigned densely in
    /// registration order.
    pub fn add_node(&mut self, actor: Box<dyn Actor<P, Ob>>, clock: ClockSpec) -> NodeId {
        assert!(!self.started, "nodes must be added before the world starts");
        let id = NodeId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.clocks.push(Clock::new(clock));
        self.rngs
            .push(ChaCha8Rng::seed_from_u64(self.seeder.next_u64()));
        self.crashed.push(false);
        self.slow_extra.push(0);
        id
    }

    /// Current true time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A node's clock (for harness-side conversions).
    pub fn clock(&self, node: NodeId) -> &Clock {
        &self.clocks[node.index()]
    }

    /// Message statistics so far.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// Observations emitted so far (true-time stamped, in emission order).
    pub fn observations(&self) -> &[(SimTime, NodeId, Ob)] {
        &self.observations
    }

    /// The causal log (None unless the world was built with
    /// `record_causal`).
    pub fn causal(&self) -> Option<&[CausalRecord]> {
        self.causal.as_deref()
    }

    /// Total events dispatched (progress/looping diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events queued and not yet dispatched: datagrams in flight, armed
    /// timers and scheduled controls.
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Immutable access to a node downcast to its concrete type.
    pub fn node_ref<T: Actor<P, Ob>>(&self, node: NodeId) -> Option<&T> {
        let actor = self.actors[node.index()].as_deref()?;
        (actor as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Mutable access to a node downcast to its concrete type. Intended for
    /// harness setup/harvest, not for bypassing the protocol mid-run.
    pub fn node_mut<T: Actor<P, Ob>>(&mut self, node: NodeId) -> Option<&mut T> {
        let actor = self.actors[node.index()].as_deref_mut()?;
        (actor as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    /// Schedule a control action at an absolute true time.
    pub fn schedule_control(&mut self, at: SimTime, control: Control) {
        assert!(at >= self.now, "cannot schedule control in the past");
        self.push(at, Pending::Control(control));
    }

    /// Apply a control action immediately.
    pub fn apply_control(&mut self, control: Control) {
        self.handle_control(control);
    }

    fn push(&mut self, at: SimTime, what: Pending<P>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, what });
    }

    /// Dispatch `on_start` for every node, in id order. Called implicitly
    /// by the first `run_until`/`step`.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.dispatch(NodeId(i as u32), |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Run until the queue is empty or true time would exceed `t`; then set
    /// now to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while let Some(head) = self.queue.peek() {
            if head.at > t {
                break;
            }
            self.step_one();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Run for a true-time duration from the current instant.
    pub fn run_for(&mut self, delta_ns: u64) {
        self.run_until(self.now.after(delta_ns));
    }

    /// Run until the event queue is fully drained (use with care: periodic
    /// timers make this non-terminating; `max_events` bounds it).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        self.start();
        let mut budget = max_events;
        while !self.queue.is_empty() {
            if budget == 0 {
                return false;
            }
            budget -= 1;
            self.step_one();
        }
        true
    }

    /// Pop and process exactly one event. Returns its timestamp.
    pub fn step(&mut self) -> Option<SimTime> {
        self.start();
        if self.queue.is_empty() {
            None
        } else {
            Some(self.step_one())
        }
    }

    fn step_one(&mut self) -> SimTime {
        let ev = self.queue.pop().expect("step_one on empty queue");
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.events_processed += 1;
        match ev.what {
            Pending::Deliver {
                net,
                src,
                dst,
                msg,
                msg_id,
            } => {
                if self.crashed[dst.index()] {
                    self.stats.cell(msg.kind(), net).to_dead += 1;
                    if let Some(obs) = &self.obs {
                        obs.to_dead.inc();
                    }
                } else {
                    self.stats.cell(msg.kind(), net).delivered += 1;
                    if let Some(obs) = &self.obs {
                        obs.delivered.inc();
                    }
                    if let Some(causal) = self.causal.as_mut() {
                        // The dispatch about to run takes the next id;
                        // logging it here ties the delivery to everything
                        // that dispatch goes on to do.
                        causal.push(CausalRecord::Deliver {
                            msg_id,
                            dispatch: self.next_dispatch,
                            node: dst,
                            src,
                            net,
                            kind: msg.kind(),
                            at: self.now,
                        });
                    }
                    self.dispatch(dst, |actor, ctx| actor.on_message(src, net, msg, ctx));
                }
            }
            Pending::Timer { node, token } => {
                if !self.crashed[node.index()] {
                    self.dispatch(node, |actor, ctx| actor.on_timer(token, ctx));
                }
            }
            Pending::Control(c) => self.handle_control(c),
        }
        self.now
    }

    fn handle_control(&mut self, c: Control) {
        match c {
            Control::BlockDirected { net, src, dst } => self.net_mut(net).block_directed(src, dst),
            Control::UnblockDirected { net, src, dst } => {
                self.net_mut(net).unblock_directed(src, dst)
            }
            Control::BlockPair { net, a, b } => self.net_mut(net).block_pair(a, b),
            Control::UnblockPair { net, a, b } => self.net_mut(net).unblock_pair(a, b),
            Control::Partition { net, groups } => {
                let views: Vec<&[NodeId]> = groups.iter().map(|g| g.as_slice()).collect();
                self.net_mut(net).partition(&views);
            }
            Control::Heal { net } => self.net_mut(net).heal(),
            Control::Crash { node } => {
                if !self.crashed[node.index()] {
                    self.crashed[node.index()] = true;
                    if let Some(actor) = self.actors[node.index()].as_deref_mut() {
                        actor.on_crash();
                    }
                }
            }
            Control::Restart { node } => {
                if self.crashed[node.index()] {
                    self.crashed[node.index()] = false;
                    self.dispatch(node, |actor, ctx| actor.on_restart(ctx));
                }
            }
            Control::SetParams { net, params } => self.net_mut(net).params = params,
            Control::SetNodeOutboundDelay { node, extra_ns } => {
                self.slow_extra[node.index()] = extra_ns;
            }
        }
    }

    fn net_mut(&mut self, id: NetId) -> &mut Network {
        self.networks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unknown network {id}"))
    }

    fn dispatch(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Actor<P, Ob>, &mut Ctx<'_, P, Ob>),
    ) {
        let dispatch_id = self.next_dispatch;
        self.next_dispatch += 1;
        let mut actor = self.actors[node.index()]
            .take()
            .expect("re-entrant dispatch on one node");
        let mut ctx = Ctx::new(
            node,
            self.now,
            &self.clocks[node.index()],
            &mut self.rngs[node.index()],
            &mut self.effects_buf,
        );
        f(actor.as_mut(), &mut ctx);
        self.actors[node.index()] = Some(actor);
        let mut effects = std::mem::take(&mut self.effects_buf);
        self.apply_effects(node, &mut effects, dispatch_id);
        self.effects_buf = effects;
    }

    /// Drains `effects`, leaving its capacity for the next activation.
    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect<P, Ob>>, dispatch: u64) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { net, dst, msg } => self.route(net, node, dst, msg, dispatch),
                Effect::SetTimer { fire_at, token } => {
                    self.push(fire_at.max(self.now), Pending::Timer { node, token });
                }
                Effect::Observe(ob) => {
                    if let Some(causal) = &mut self.causal {
                        causal.push(CausalRecord::Observe {
                            obs_index: self.observations.len(),
                            dispatch,
                            node,
                            at: self.now,
                        });
                    }
                    self.observations.push((self.now, node, ob));
                }
            }
        }
    }

    fn route(&mut self, net: NetId, src: NodeId, dst: NodeId, msg: P, dispatch: u64) {
        let (blocked, params) = {
            let n = self
                .networks
                .get(&net)
                .unwrap_or_else(|| panic!("send on unknown network {net}"));
            (n.is_blocked(src, dst), n.params)
        };
        let cell = self.stats.cell(msg.kind(), net);
        cell.sent += 1;
        cell.bytes_sent += msg.size_hint() as u64;
        if let Some(obs) = &self.obs {
            obs.sent.inc();
        }
        let msg_id = if let Some(causal) = &mut self.causal {
            self.next_msg_id += 1;
            causal.push(CausalRecord::Send {
                msg_id: self.next_msg_id,
                dispatch,
                node: src,
                dst,
                net,
                kind: msg.kind(),
                at: self.now,
            });
            self.next_msg_id
        } else {
            0
        };
        if blocked {
            cell.blocked += 1;
            if let Some(obs) = &self.obs {
                obs.blocked.inc();
            }
            return;
        }
        if params.drop_prob > 0.0 && self.net_rng.random_bool(params.drop_prob) {
            self.stats.cell(msg.kind(), net).dropped += 1;
            if let Some(obs) = &self.obs {
                obs.dropped.inc();
            }
            return;
        }
        let jitter = if params.jitter_ns > 0 {
            self.net_rng.random_range(0..=params.jitter_ns)
        } else {
            0
        };
        let deliver_at = self
            .now
            .after(params.latency_ns + jitter + self.slow_extra[src.index()]);
        let duplicate = params.dup_prob > 0.0 && self.net_rng.random_bool(params.dup_prob);
        if duplicate {
            let extra = if params.jitter_ns > 0 {
                self.net_rng.random_range(0..=params.jitter_ns)
            } else {
                0
            };
            let dup_at = deliver_at.after(1 + extra);
            self.push(
                dup_at,
                Pending::Deliver {
                    net,
                    src,
                    dst,
                    msg: msg.clone(),
                    msg_id,
                },
            );
        }
        self.push(
            deliver_at,
            Pending::Deliver {
                net,
                src,
                dst,
                msg,
                msg_id,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::LocalNs;
    use crate::TokenMap;

    /// Minimal payload for tests.
    #[derive(Debug, Clone, PartialEq)]
    enum TMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for TMsg {
        fn kind(&self) -> &'static str {
            match self {
                TMsg::Ping(_) => "ping",
                TMsg::Pong(_) => "pong",
            }
        }
        fn size_hint(&self) -> usize {
            8
        }
    }

    /// Echoes every ping back as a pong.
    struct Echo;
    impl Actor<TMsg, ()> for Echo {
        fn on_message(&mut self, from: NodeId, net: NetId, msg: TMsg, ctx: &mut Ctx<'_, TMsg, ()>) {
            if let TMsg::Ping(n) = msg {
                ctx.send(net, from, TMsg::Pong(n));
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, TMsg, ()>) {}
    }

    /// Sends pings on a periodic local timer; records pongs with local time.
    struct Pinger {
        peer: NodeId,
        period: LocalNs,
        sent: u32,
        received: Vec<(LocalNs, u32)>,
        limit: u32,
    }
    impl Actor<TMsg, ()> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg, ()>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(
            &mut self,
            _from: NodeId,
            _net: NetId,
            msg: TMsg,
            ctx: &mut Ctx<'_, TMsg, ()>,
        ) {
            if let TMsg::Pong(n) = msg {
                self.received.push((ctx.now(), n));
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, TMsg, ()>) {
            if self.sent < self.limit {
                self.sent += 1;
                ctx.send(NetId::CONTROL, self.peer, TMsg::Ping(self.sent));
                ctx.set_timer(self.period, 0);
            }
        }
    }

    fn two_node_world(params: NetParams, seed: u64) -> (World<TMsg>, NodeId, NodeId) {
        let mut w = World::new(WorldConfig {
            seed,
            record_trace: false,
            record_causal: false,
        });
        w.add_network(NetId::CONTROL, params);
        let echo = w.add_node(Box::new(Echo), ClockSpec::ideal());
        let pinger = w.add_node(
            Box::new(Pinger {
                peer: echo,
                period: LocalNs::from_millis(10),
                sent: 0,
                received: Vec::new(),
                limit: 5,
            }),
            ClockSpec::ideal(),
        );
        (w, echo, pinger)
    }

    #[test]
    fn ping_pong_roundtrips() {
        let (mut w, _echo, pinger) = two_node_world(NetParams::ideal(1_000_000), 7);
        w.run_until(SimTime::from_secs(1));
        let p = w.node_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.received.len(), 5);
        // First ping sent at 10ms, pong back after 2×1ms latency.
        assert_eq!(p.received[0].0, LocalNs::from_millis(12));
        assert_eq!(w.stats().sent_kind("ping", NetId::CONTROL), 5);
        assert_eq!(w.stats().sent_kind("pong", NetId::CONTROL), 5);
    }

    #[test]
    fn identical_seeds_are_bit_identical_different_seeds_differ() {
        let run = |seed| {
            let params = NetParams {
                latency_ns: 1_000_000,
                jitter_ns: 500_000,
                drop_prob: 0.1,
                dup_prob: 0.05,
            };
            let (mut w, _, pinger) = two_node_world(params, seed);
            w.run_until(SimTime::from_secs(1));
            let p = w.node_ref::<Pinger>(pinger).unwrap();
            (p.received.clone(), w.events_processed())
        };
        assert_eq!(run(42), run(42), "same seed, same history");
        assert_ne!(
            run(42).0,
            run(43).0,
            "different seed should perturb timings"
        );
    }

    #[test]
    fn blocked_links_suppress_delivery_and_count() {
        let (mut w, echo, pinger) = two_node_world(NetParams::ideal(1_000_000), 7);
        w.apply_control(Control::BlockDirected {
            net: NetId::CONTROL,
            src: pinger,
            dst: echo,
        });
        w.run_until(SimTime::from_secs(1));
        let p = w.node_ref::<Pinger>(pinger).unwrap();
        assert!(p.received.is_empty());
        let c = w
            .stats()
            .iter()
            .find(|(k, _, _)| *k == "ping")
            .map(|(_, _, c)| *c)
            .unwrap();
        assert_eq!(c.blocked, 5);
        assert_eq!(c.delivered, 0);
    }

    #[test]
    fn asymmetric_block_lets_reverse_traffic_flow() {
        // Block pongs (echo → pinger) but not pings: deliveries happen at
        // the echo, none at the pinger.
        let (mut w, echo, pinger) = two_node_world(NetParams::ideal(1_000_000), 7);
        w.apply_control(Control::BlockDirected {
            net: NetId::CONTROL,
            src: echo,
            dst: pinger,
        });
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.stats().delivered_kind("ping", NetId::CONTROL), 5);
        assert_eq!(w.stats().delivered_kind("pong", NetId::CONTROL), 0);
    }

    #[test]
    fn heal_restores_traffic() {
        let (mut w, echo, pinger) = two_node_world(NetParams::ideal(1_000_000), 7);
        w.apply_control(Control::BlockPair {
            net: NetId::CONTROL,
            a: echo,
            b: pinger,
        });
        w.schedule_control(
            SimTime::from_millis(25),
            Control::Heal {
                net: NetId::CONTROL,
            },
        );
        w.run_until(SimTime::from_secs(1));
        let p = w.node_ref::<Pinger>(pinger).unwrap();
        // Pings at 10,20 are blocked; 30,40,50 get through.
        assert_eq!(p.received.len(), 3);
    }

    #[test]
    fn crashed_node_receives_nothing_until_restart() {
        let (mut w, echo, pinger) = two_node_world(NetParams::ideal(1_000_000), 7);
        w.schedule_control(SimTime::from_millis(5), Control::Crash { node: echo });
        w.schedule_control(SimTime::from_millis(35), Control::Restart { node: echo });
        w.run_until(SimTime::from_secs(1));
        let p = w.node_ref::<Pinger>(pinger).unwrap();
        // Pings at 10,20,30ms hit a dead echo; 40,50 are answered.
        assert_eq!(p.received.len(), 2);
        let c = w
            .stats()
            .iter()
            .find(|(k, _, _)| *k == "ping")
            .map(|(_, _, c)| *c)
            .unwrap();
        assert_eq!(c.to_dead, 3);
    }

    #[test]
    fn skewed_clock_timer_fires_at_skewed_true_time() {
        // A pinger with a 2× fast clock fires its 10ms-local timer every
        // 5ms of true time.
        let mut w: World<TMsg> = World::new(WorldConfig::default());
        w.add_network(NetId::CONTROL, NetParams::ideal(1));
        let echo = w.add_node(Box::new(Echo), ClockSpec::ideal());
        let pinger = w.add_node(
            Box::new(Pinger {
                peer: echo,
                period: LocalNs::from_millis(10),
                sent: 0,
                received: Vec::new(),
                limit: 100,
            }),
            ClockSpec {
                rate: 2.0,
                offset_ns: 0,
            },
        );
        w.run_until(SimTime::from_millis(51));
        let p = w.node_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.sent, 10, "2x clock fires 10ms-local timer every 5ms true");
    }

    #[test]
    fn a_timer_whose_token_was_dropped_does_nothing() {
        /// Arms two timers and gives up on the first before it fires.
        struct Forgetter {
            tokens: TokenMap<&'static str>,
            fired: Vec<(LocalNs, &'static str)>,
        }
        impl Actor<TMsg, ()> for Forgetter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg, ()>) {
                let gone = self.tokens.insert("gone");
                ctx.set_timer(LocalNs::from_millis(10), gone);
                self.tokens.take(gone);
                let kept = self.tokens.insert("kept");
                ctx.set_timer(LocalNs::from_millis(20), kept);
            }
            fn on_message(&mut self, _: NodeId, _: NetId, _: TMsg, _: &mut Ctx<'_, TMsg, ()>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, TMsg, ()>) {
                if let Some(what) = self.tokens.take(token) {
                    self.fired.push((ctx.now(), what));
                }
            }
        }
        let mut w: World<TMsg> = World::new(WorldConfig::default());
        w.add_network(NetId::CONTROL, NetParams::ideal(1));
        let n = w.add_node(
            Box::new(Forgetter {
                tokens: TokenMap::new(),
                fired: Vec::new(),
            }),
            ClockSpec::ideal(),
        );
        w.run_until(SimTime::from_millis(15));
        assert_eq!(w.queued_events(), 1, "the dropped timer still fired");
        w.run_until(SimTime::from_secs(1));
        let f = w.node_ref::<Forgetter>(n).unwrap();
        assert_eq!(f.fired, vec![(LocalNs::from_millis(20), "kept")]);
        assert!(f.tokens.is_empty());
        assert_eq!(w.queued_events(), 0);
    }

    #[test]
    fn observations_are_recorded_with_time_and_node() {
        struct Observer;
        impl Actor<TMsg, u32> for Observer {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg, u32>) {
                ctx.set_timer(LocalNs::from_millis(3), 0);
            }
            fn on_message(&mut self, _: NodeId, _: NetId, _: TMsg, _: &mut Ctx<'_, TMsg, u32>) {}
            fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_, TMsg, u32>) {
                ctx.observe(99);
            }
        }
        let mut w: World<TMsg, u32> = World::new(WorldConfig::default());
        w.add_network(NetId::CONTROL, NetParams::ideal(1));
        let n = w.add_node(Box::new(Observer), ClockSpec::ideal());
        w.run_until(SimTime::from_secs(1));
        let obs = w.observations();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0], (SimTime::from_millis(3), n, 99));
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let params = NetParams {
            latency_ns: 1000,
            jitter_ns: 0,
            drop_prob: 0.5,
            dup_prob: 0.0,
        };
        let mut w: World<TMsg> = World::new(WorldConfig {
            seed: 11,
            record_trace: false,
            record_causal: false,
        });
        w.add_network(NetId::CONTROL, params);
        let echo = w.add_node(Box::new(Echo), ClockSpec::ideal());
        let pinger = w.add_node(
            Box::new(Pinger {
                peer: echo,
                period: LocalNs(1_000_000),
                sent: 0,
                received: Vec::new(),
                limit: 1000,
            }),
            ClockSpec::ideal(),
        );
        w.run_until(SimTime::from_secs(2));
        let _ = pinger;
        let delivered = w.stats().delivered_kind("ping", NetId::CONTROL);
        assert!(
            (300..700).contains(&delivered),
            "~50% of 1000 should survive, got {delivered}"
        );
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let params = NetParams {
            latency_ns: 1000,
            jitter_ns: 0,
            drop_prob: 0.0,
            dup_prob: 1.0,
        };
        let mut w: World<TMsg> = World::new(WorldConfig {
            seed: 3,
            record_trace: false,
            record_causal: false,
        });
        w.add_network(NetId::CONTROL, params);
        let echo = w.add_node(Box::new(Echo), ClockSpec::ideal());
        let _pinger = w.add_node(
            Box::new(Pinger {
                peer: echo,
                period: LocalNs::from_millis(10),
                sent: 0,
                received: Vec::new(),
                limit: 4,
            }),
            ClockSpec::ideal(),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.stats().delivered_kind("ping", NetId::CONTROL), 8);
    }

    #[test]
    fn run_to_quiescence_bounds_runaway_loops() {
        let (mut w, _, _) = two_node_world(NetParams::ideal(1_000), 7);
        assert!(w.run_to_quiescence(10_000));
        assert!(w.queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "schedule control in the past")]
    fn scheduling_control_in_the_past_panics() {
        let (mut w, a, b) = two_node_world(NetParams::ideal(1_000), 7);
        w.run_until(SimTime::from_secs(1));
        w.schedule_control(
            SimTime::from_millis(1),
            Control::BlockPair {
                net: NetId::CONTROL,
                a,
                b,
            },
        );
    }
}
