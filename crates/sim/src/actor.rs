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
//! actor; [`Ctx::new`] and [`Ctx::into_effects`] let another (a real
//! socket and wall-clock timers) run the same actor code.

use std::any::Any;

use rand_chacha::ChaCha8Rng;

use crate::net::NetId;
use crate::time::{Clock, LocalNs, SimTime};
use crate::{NodeId, Payload};

/// Handle for a scheduled timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

/// Buffered effect produced by a handler.
#[derive(Debug)]
pub enum Effect<P, Ob> {
    /// Send a datagram.
    Send { net: NetId, dst: NodeId, msg: P },
    /// Arm a timer (fire time already converted to true time).
    SetTimer {
        fire_at: SimTime,
        id: TimerId,
        token: u64,
    },
    /// Cancel a previously armed timer.
    CancelTimer(TimerId),
    /// Emit an observation for offline checking.
    Observe(Ob),
    /// Append a line to the world trace (if recording).
    Trace(String),
}

/// Execution context handed to actor handlers.
pub struct Ctx<'a, P, Ob> {
    node: NodeId,
    now_true: SimTime,
    clock: &'a Clock,
    rng: &'a mut ChaCha8Rng,
    next_timer_id: &'a mut u64,
    pub(crate) effects: Vec<Effect<P, Ob>>,
    pub(crate) tracing: bool,
}

impl<'a, P: Payload, Ob> Ctx<'a, P, Ob> {
    /// A context for one activation of `node` at true time `now`, with
    /// no effects yet and tracing off. Timer ids are drawn from
    /// `next_timer_id`, which the driver keeps across activations.
    pub fn new(
        node: NodeId,
        now: SimTime,
        clock: &'a Clock,
        rng: &'a mut ChaCha8Rng,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Ctx {
            node,
            now_true: now,
            clock,
            rng,
            next_timer_id,
            effects: Vec::new(),
            tracing: false,
        }
    }

    /// The effects the handler produced, in order, for the driver to
    /// carry out.
    pub fn into_effects(self) -> Vec<Effect<P, Ob>> {
        self.effects
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
    /// clock genuinely experiences skewed timeouts.
    pub fn set_timer(&mut self, delay: LocalNs, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        let fire_at = self.now_true.after(self.clock.local_delta_to_true(delay));
        self.effects.push(Effect::SetTimer { fire_at, id, token });
        id
    }

    /// Cancel a timer. Harmless if it already fired.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
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

    /// Append a trace line (no-op unless the world records traces). The
    /// closure keeps formatting off the hot path.
    pub fn trace(&mut self, f: impl FnOnce() -> String) {
        if self.tracing {
            self.effects.push(Effect::Trace(f()));
        }
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
