//! Server-side observability: one fold over what a driver carries out.
//!
//! [`ServerObs`] resolves every server-layer instrument from the shared
//! [`Registry`] at attach time, so recording touches only atomics. Both
//! drivers of the [`ServerCore`] — the simulator's `ServerNode` and
//! `tankd`'s `LeaseServer` — hand it every effect they drain
//! ([`on_effect`](ServerObs::on_effect)) and every steal they carry out
//! ([`stolen`](ServerObs::stolen)): the `server.*` counters, their trace
//! lines and the steal-latency histogram are one mapping from the core's
//! effects, the same on both. What only `ServerNode` has — the log, the
//! fences, the election, recovery — it records through the handles it
//! shares with the fold. The steal-latency histogram is the measured side of the
//! paper's `τ_s(1+ε)` condemnation bound: every arm-to-fire interval it
//! records must sit at or below `LeaseConfig::server_timeout()`.

use std::collections::HashMap;
use std::sync::Arc;

use tank_obs::{names, Counter, Histogram, Registry};
use tank_proto::message::ResponseOutcome;
use tank_proto::{Event, LockMode, NackReason, NodeCtx, NodeId};
use tank_sim::LocalNs;

use crate::request::{CoreTimer, Effect, ServerCore};

/// Pre-resolved server metric handles (each field is the `names::*`
/// instrument [`new`](ServerObs::new) resolves it from), the trace sink,
/// and the arming time of every lease expiry still waiting to fire. The
/// `pub(crate)` handles are `ServerNode`'s own; the rest only the fold
/// records.
pub struct ServerObs {
    registry: Arc<Registry>,
    pub(crate) unexpected_msgs: Arc<Counter>,
    pub(crate) fences: Arc<Counter>,
    pub(crate) wal_appends: Arc<Counter>,
    pub(crate) wal_fsyncs: Arc<Counter>,
    pub(crate) snapshot_compactions: Arc<Counter>,
    pub(crate) failover_elections: Arc<Counter>,
    pub(crate) replay_latency_ns: Arc<Histogram>,
    // The fold's own instruments, recorded only here.
    lock_granted: Arc<Counter>,
    lock_released: Arc<Counter>,
    lock_stolen: Arc<Counter>,
    steals: Arc<Counter>,
    demands_sent: Arc<Counter>,
    nack_lease_timing_out: Arc<Counter>,
    nack_session_expired: Arc<Counter>,
    nack_stale_session: Arc<Counter>,
    nack_recovering: Arc<Counter>,
    nack_misrouted: Arc<Counter>,
    delivery_errors: Arc<Counter>,
    condemn_armed: Arc<Counter>,
    condemn_fired: Arc<Counter>,
    sessions: Arc<Counter>,
    recovery_began: Arc<Counter>,
    recovery_ended: Arc<Counter>,
    datalock_shared_grants: Arc<Counter>,
    datalock_exclusive_grants: Arc<Counter>,
    datalock_revokes: Arc<Counter>,
    steal_latency_ns: Arc<Histogram>,
    /// When each client's lease expiry was armed (server-local), consumed
    /// when it fires to measure the residual steal latency.
    condemn_armed_at: HashMap<NodeId, LocalNs>,
}

impl std::fmt::Debug for ServerObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerObs").finish_non_exhaustive()
    }
}

impl ServerObs {
    /// Resolve all server instruments from `registry`.
    pub fn new(registry: Arc<Registry>) -> ServerObs {
        let counter = |def| registry.counter_def(def);
        ServerObs {
            unexpected_msgs: counter(&names::SERVER_UNEXPECTED_MSGS),
            fences: counter(&names::SERVER_FENCES),
            wal_appends: counter(&names::META_WAL_APPENDS),
            wal_fsyncs: counter(&names::META_WAL_FSYNCS),
            snapshot_compactions: counter(&names::META_SNAPSHOT_COMPACTIONS),
            failover_elections: counter(&names::SERVER_FAILOVER_ELECTIONS),
            replay_latency_ns: registry.histogram_def(&names::SERVER_WAL_REPLAY_LATENCY_NS),
            lock_granted: counter(&names::SERVER_LOCK_GRANTED),
            lock_released: counter(&names::SERVER_LOCK_RELEASED),
            lock_stolen: counter(&names::SERVER_LOCK_STOLEN),
            steals: counter(&names::SERVER_STEALS),
            demands_sent: counter(&names::SERVER_DEMANDS_SENT),
            nack_lease_timing_out: counter(&names::SERVER_NACK_LEASE_TIMING_OUT),
            nack_session_expired: counter(&names::SERVER_NACK_SESSION_EXPIRED),
            nack_stale_session: counter(&names::SERVER_NACK_STALE_SESSION),
            nack_recovering: counter(&names::SERVER_NACK_RECOVERING),
            nack_misrouted: counter(&names::SERVER_NACK_MISROUTED),
            delivery_errors: counter(&names::SERVER_DELIVERY_ERRORS),
            condemn_armed: counter(&names::SERVER_CONDEMN_ARMED),
            condemn_fired: counter(&names::SERVER_CONDEMN_FIRED),
            sessions: counter(&names::SERVER_SESSIONS),
            recovery_began: counter(&names::SERVER_RECOVERY_BEGAN),
            recovery_ended: counter(&names::SERVER_RECOVERY_ENDED),
            datalock_shared_grants: counter(&names::SERVER_DATALOCK_SHARED_GRANTS),
            datalock_exclusive_grants: counter(&names::SERVER_DATALOCK_EXCLUSIVE_GRANTS),
            datalock_revokes: counter(&names::SERVER_DATALOCK_REVOKES),
            steal_latency_ns: registry.histogram_def(&names::SERVER_STEAL_LATENCY_NS),
            condemn_armed_at: HashMap::new(),
            registry,
        }
    }

    /// Record a structured trace event stamped with true time and this
    /// node's id. The detail closure runs only when tracing is enabled.
    pub fn trace(&self, ctx: &NodeCtx<'_>, kind: &'static str, detail: impl FnOnce() -> String) {
        self.registry.trace_with(
            ctx.now_true_for_instrumentation().0,
            ctx.node().to_string(),
            kind,
            detail,
        );
    }

    /// Count and trace one effect the driver is about to carry out, read
    /// against the `core` that queued it: a NACK, a demand (a revoke when
    /// it is not a retry), a lease expiry's or steal grace's arming, and
    /// every core event. A lease expiry's steal latency is measured from
    /// its first arming to its firing.
    pub fn on_effect(&mut self, effect: &Effect, core: &ServerCore, ctx: &NodeCtx<'_>) {
        match effect {
            Effect::Respond(resp) => {
                let ResponseOutcome::Nacked(reason) = &resp.outcome else {
                    return;
                };
                match reason {
                    NackReason::LeaseTimingOut => &self.nack_lease_timing_out,
                    NackReason::SessionExpired => &self.nack_session_expired,
                    NackReason::StaleSession => &self.nack_stale_session,
                    NackReason::Recovering => &self.nack_recovering,
                    NackReason::Misrouted(_) => &self.nack_misrouted,
                }
                .inc();
                self.trace(ctx, "nack", || {
                    let (client, seq) = (resp.dst.0, resp.seq.0);
                    format!("client=n{client} seq={seq} reason={reason:?}")
                });
            }
            Effect::Push { push, retry } => {
                if !retry {
                    self.datalock_revokes.inc();
                }
                self.demands_sent.inc();
                self.trace(ctx, "demand", || {
                    format!("client=n{} push_seq={}", push.dst.0, push.push_seq)
                });
            }
            &Effect::Arm(after, CoreTimer::LeaseExpiry(client, since)) => {
                let now = ctx.now();
                self.condemn_armed_at.entry(client).or_insert(now);
                self.condemn_armed.inc();
                self.trace(ctx, "condemn-armed", || {
                    let overlap = now.minus(since).0;
                    let (n, after, since) = (client.0, after.0, since.0);
                    format!("client=n{n} fires_in_ns={after} since_ns={since} overlap_ns={overlap}")
                });
            }
            &Effect::Arm(after, CoreTimer::StealGrace(client)) => {
                self.trace(ctx, "steal-grace", || {
                    format!("client=n{} fires_in_ns={}", client.0, after.0)
                });
            }
            Effect::Event(ev) => self.on_event(ev, core, ctx),
            Effect::Arm(..) | Effect::Log(_) | Effect::Steal(_) | Effect::Fence(_) => {}
        }
    }

    fn on_event(&mut self, ev: &Event, core: &ServerCore, ctx: &NodeCtx<'_>) {
        match *ev {
            Event::DeliveryError { client } => {
                self.delivery_errors.inc();
                self.trace(ctx, "delivery-error", || format!("client=n{}", client.0));
            }
            Event::LeaseExpired { client } => {
                self.condemn_fired.inc();
                // The measured side of Theorem 3.1: the *residual* wait,
                // from the delivery error to the lease being declared
                // dead. Detection overlaps the τ_s(1+ε) that began at the
                // last ACK, so this is at most τ_s(1+ε) and usually less
                // by the ladder's length.
                let armed_at = self.condemn_armed_at.remove(&client);
                let latency = armed_at.map_or(0, |t| ctx.now().0.saturating_sub(t.0));
                self.steal_latency_ns.observe(latency);
                self.trace(ctx, "condemned", || {
                    format!("client=n{} latency_ns={latency}", client.0)
                });
            }
            Event::ServerRecovering => {
                self.recovery_began.inc();
                let incarnation = core.incarnation.0;
                self.trace(ctx, "recovery", || {
                    format!("began incarnation={incarnation}")
                });
            }
            Event::ServerRecovered => {
                self.recovery_ended.inc();
                self.trace(ctx, "recovery", || "ended".to_owned());
            }
            Event::LockGranted {
                client,
                ino,
                epoch,
                mode,
            } => {
                self.lock_granted.inc();
                match mode {
                    LockMode::SharedRead => self.datalock_shared_grants.inc(),
                    LockMode::Exclusive => self.datalock_exclusive_grants.inc(),
                }
                self.trace(ctx, "grant", || {
                    format!("client=n{} ino={} epoch={}", client.0, ino.0, epoch.0)
                });
            }
            Event::LockReleased { client, ino, epoch } => {
                self.lock_released.inc();
                self.trace(ctx, "release", || {
                    format!("client=n{} ino={} epoch={}", client.0, ino.0, epoch.0)
                });
            }
            Event::NewSession { client } => {
                self.sessions.inc();
                let session = core.sessions.current(client).map_or(0, |s| s.0);
                self.trace(ctx, "session", || {
                    format!("client=n{} session={session}", client.0)
                });
            }
            _ => {}
        }
    }

    /// Count and trace a steal the driver carried out: `locks` of
    /// `client`'s locks taken.
    pub fn stolen(&self, client: NodeId, locks: usize, ctx: &NodeCtx<'_>) {
        self.steals.inc();
        self.lock_stolen.add(locks as u64);
        self.trace(ctx, "steal", || {
            format!("client=n{} locks={locks}", client.0)
        });
    }

    /// A restarted server: no lease expiry is armed any more.
    pub fn restarted(&mut self) {
        self.condemn_armed_at.clear();
    }
}
