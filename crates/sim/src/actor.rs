//! The actor model: nodes, their execution context, and effects.
//!
//! A node is an [`Actor`]: a state machine driven by message deliveries and
//! timer firings. Actors interact with the world only through [`Ctx`], which
//! exposes the node's *local* clock (never true time, except for explicitly
//! instrumentation-only accessors), datagram sends, local-duration timers, a
//! deterministic per-node RNG, and an observation sink for offline checking.
//!
//! Effects are buffered in the context and applied by the world after the
//! handler returns, which keeps dispatch single-borrow and makes handlers
//! atomic with respect to the event queue. The world is one driver of an
//! actor; [`Ctx::new`], which lends the context the driver's own effect
//! buffer, lets another (a real socket and wall-clock timers) run the same
//! actor code.
//!
//! Timers cannot be cancelled. An actor that no longer wants a firing
//! forgets its token (see [`TokenMap`](crate::TokenMap)), and the firing
//! finds nothing to do.

use std::any::Any;

use rand_chacha::ChaCha8Rng;

use crate::net::NetId;
use crate::time::{Clock, LocalNs, SimTime};
use crate::{NodeId, Payload};

/// Buffered effect produced by a handler.
#[derive(Debug)]
pub enum Effect<P, Ob> {
    /// Send a datagram.
    Send { net: NetId, dst: NodeId, msg: P },
    /// Arm a timer (fire time already converted to true time).
    SetTimer { fire_at: SimTime, token: u64 },
    /// Emit an observation for offline checking.
    Observe(Ob),
}

/// Execution context handed to actor handlers.
pub struct Ctx<'a, P, Ob> {
    node: NodeId,
    now_true: SimTime,
    clock: &'a Clock,
    rng: &'a mut ChaCha8Rng,
    effects: &'a mut Vec<Effect<P, Ob>>,
}

impl<'a, P: Payload, Ob> Ctx<'a, P, Ob> {
    /// A context for one activation of `node` at true time `now`. The
    /// handler's effects are appended, in order, to `effects`: the driver
    /// lends its buffer for the activation and carries the effects out
    /// once the context is gone, so one buffer's capacity serves every
    /// activation.
    pub fn new(
        node: NodeId,
        now: SimTime,
        clock: &'a Clock,
        rng: &'a mut ChaCha8Rng,
        effects: &'a mut Vec<Effect<P, Ob>>,
    ) -> Self {
        Ctx {
            node,
            now_true: now,
            clock,
            rng,
            effects,
        }
    }

    /// This node's id.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's local clock reading. This is the only notion of time
    /// protocol code may use.
    #[inline]
    pub fn now(&self) -> LocalNs {
        self.clock.local(self.now_true)
    }

    /// True (global) virtual time — instrumentation only. Protocol logic
    /// must not branch on this.
    #[inline]
    pub fn now_true_for_instrumentation(&self) -> SimTime {
        self.now_true
    }

    /// Send a datagram on `net` to `dst`. Delivery is best-effort: the
    /// datagram may be lost, delayed, duplicated, or blocked by a partition.
    pub fn send(&mut self, net: NetId, dst: NodeId, msg: P) {
        self.effects.push(Effect::Send { net, dst, msg });
    }

    /// Arm a timer to fire after `delay` *on this node's clock*. The world
    /// converts to true time through the node's clock rate, so a skewed
    /// clock genuinely experiences skewed timeouts. An armed timer always
    /// fires; its `token` is how the actor tells a firing it still wants
    /// from one it has given up on.
    pub fn set_timer(&mut self, delay: LocalNs, token: u64) {
        let fire_at = self.now_true.after(self.clock.local_delta_to_true(delay));
        self.effects.push(Effect::SetTimer { fire_at, token });
    }

    /// Emit an observation for the offline checkers. Observations carry the
    /// true timestamp when the world records them.
    pub fn observe(&mut self, ob: Ob) {
        self.effects.push(Effect::Observe(ob));
    }

    /// Deterministic per-node RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }
}

/// A simulated node.
///
/// The `Any` supertrait lets the harness downcast nodes back to their
/// concrete types after a run to harvest final state and statistics.
pub trait Actor<P: Payload, Ob>: Any {
    /// Called once at world start (true time zero), in node-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, P, Ob>) {}

    /// A datagram arrived.
    fn on_message(&mut self, from: NodeId, net: NetId, msg: P, ctx: &mut Ctx<'_, P, Ob>);

    /// A timer armed by this node fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, P, Ob>);

    /// The node crashed (fail-stop): volatile state is gone. No context —
    /// a crashed node cannot act. Implementations typically do nothing
    /// here; the hook exists for accounting.
    fn on_crash(&mut self) {}

    /// The node restarted after a crash. Implementations must reset
    /// volatile state here (the simulator does not replace the actor value,
    /// so anything not cleared is "survived on disk").
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, P, Ob>) {}
}
