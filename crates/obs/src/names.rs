//! The metric contract: every counter and histogram the repo registers.
//!
//! Each instrument is declared once here as a [`MetricDef`] and listed in
//! [`ALL`]. `OBSERVABILITY.md` at the repository root documents the same
//! table for humans; a unit test diffs the two so neither can drift.
//! Emitting crates resolve handles from these constants
//! (`registry.counter_def(&names::CLIENT_RENEWALS)`), never from ad-hoc
//! string literals, so a typo becomes a compile error instead of a
//! silently separate metric.

use crate::Registry;

/// Which instrument a [`MetricDef`] declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic saturating counter.
    Counter,
    /// Fixed-bucket histogram.
    Histogram,
}

/// Declaration of one metric: name, kind, unit, bounds (histograms only),
/// and a one-line description mirrored in `OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted registry name, e.g. `"client.renewals"`.
    pub name: &'static str,
    /// Counter or histogram.
    pub kind: MetricKind,
    /// Unit label: `"events"` for counters, `"ns"`/`"attempts"` for
    /// histograms.
    pub unit: &'static str,
    /// Inclusive upper bucket bounds; empty for counters.
    pub bounds: &'static [u64],
    /// One-line description (kept in sync with `OBSERVABILITY.md`).
    pub help: &'static str,
}

const fn counter(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Counter,
        unit: "events",
        bounds: &[],
        help,
    }
}

const fn histogram(
    name: &'static str,
    unit: &'static str,
    bounds: &'static [u64],
    help: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Histogram,
        unit,
        bounds,
        help,
    }
}

const MS: u64 = 1_000_000;
const S: u64 = 1_000_000_000;

/// Duration buckets (ns) spanning sub-millisecond sim latencies up to the
/// multi-second lease horizons of the net stack: 1ms–20s.
pub const DURATION_BOUNDS_NS: &[u64] = &[
    MS,
    2 * MS,
    5 * MS,
    10 * MS,
    20 * MS,
    50 * MS,
    100 * MS,
    200 * MS,
    500 * MS,
    S,
    2 * S,
    3 * S,
    4 * S,
    5 * S,
    7 * S,
    10 * S,
    15 * S,
    20 * S,
];

/// Small-count buckets for per-request retransmission counts.
pub const SMALL_COUNT_BOUNDS: &[u64] = &[0, 1, 2, 3, 4, 6, 8, 12, 16];

/// Power-of-two batch-size buckets for the reactor's per-wakeup drain
/// counts (0 = spurious wakeup, cap at the reactor's max batch).
pub const BATCH_SIZE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

// ------------------------------------------------------------- client

/// Successful opportunistic lease renewals (ACK arrived in time).
pub const CLIENT_RENEWALS: MetricDef =
    counter("client.renewals", "successful opportunistic lease renewals");
/// Entries into the Quiescing phase (lease past soft margin, serving stops).
pub const CLIENT_PHASE_QUIESCE: MetricDef = counter(
    "client.phase.quiesce",
    "transitions into the Quiescing phase",
);
/// Entries into the Flushing phase (dirty data pushed while time remains).
pub const CLIENT_PHASE_FLUSH: MetricDef =
    counter("client.phase.flush", "transitions into the Flushing phase");
/// Local lease expiries (cache invalidated, client goes Invalid).
pub const CLIENT_PHASE_INVALID: MetricDef = counter(
    "client.phase.invalid",
    "local lease expiries (cache invalidated)",
);
/// Resumptions of service (new session or renewal after quiesce).
pub const CLIENT_PHASE_RESUME: MetricDef = counter("client.phase.resume", "resumptions of service");
/// Dirty blocks discarded at local expiry (unsynced data lost locally).
pub const CLIENT_EXPIRY_DISCARDED_DIRTY: MetricDef = counter(
    "client.expiry.discarded_dirty",
    "dirty blocks discarded at local expiry",
);
/// Client message retransmissions in the sim stack.
pub const CLIENT_RETRANSMITS: MetricDef =
    counter("client.retransmits", "client message retransmissions (sim)");
/// Messages the client could not interpret (protocol anomalies).
pub const CLIENT_UNEXPECTED_MSGS: MetricDef = counter(
    "client.unexpected_msgs",
    "messages the client could not interpret",
);
/// Per-server lease lanes that expired locally (one shard's cache
/// condemned while the other lanes kept serving).
pub const CLIENT_LANE_EXPIRIES: MetricDef = counter(
    "client.lane.expiries",
    "per-server lease lanes that expired locally",
);
/// Cross-shard renames abandoned before completion (a shard's lane
/// quiesced or a lock acquire failed mid-rename).
pub const CLIENT_RENAME_ABORTS: MetricDef = counter(
    "client.rename.aborts",
    "cross-shard renames abandoned before completion",
);
/// Lease headroom remaining at each successful renewal: old expiry minus
/// ACK arrival, in client-local ns. Negative headroom is impossible — a
/// renewal past expiry is rejected by the lease machine.
pub const CLIENT_RENEWAL_HEADROOM_NS: MetricDef = histogram(
    "client.renewal_headroom_ns",
    "ns",
    DURATION_BOUNDS_NS,
    "lease headroom remaining at each successful renewal",
);
/// Ops per flushed batch (1 = the coalescing queue found nothing to fold).
pub const CLIENT_BATCH_SIZE: MetricDef = histogram(
    "client.batch.size",
    "ops",
    SMALL_COUNT_BOUNDS,
    "ops per flushed control-path batch",
);
/// Why each batch left the queue: 0 = hit the size cap, 1 = the lane had
/// no live request in flight to wait behind, 2 = a sync-point op (lock
/// acquire, rename, SAN round trip...) forced everything queued ahead of
/// it out, 3 = the request in flight was answered or retransmitted.
pub const CLIENT_BATCH_FLUSH_REASON: MetricDef = histogram(
    "client.batch.flush_reason",
    "reason",
    SMALL_COUNT_BOUNDS,
    "batch flush trigger (0=size cap, 1=lane idle, 2=sync point, 3=request in flight answered/retransmitted)",
);
/// Read blocks served from the local block cache without a SAN trip
/// (phases 1–2 of the lease lifecycle; CACHING.md has the admission
/// table).
pub const CLIENT_CACHE_HITS: MetricDef = counter(
    "client.cache.hits",
    "read blocks served from the local cache",
);
/// Read blocks that missed the cache and paid a SAN round trip.
pub const CLIENT_CACHE_MISSES: MetricDef = counter(
    "client.cache.misses",
    "read blocks fetched from the SAN on a cache miss",
);
/// Clean blocks evicted to hold the cache at its configured capacity
/// (dirty blocks are never evicted — they drain through write-back).
pub const CLIENT_CACHE_EVICTIONS: MetricDef = counter(
    "client.cache.evictions",
    "clean blocks evicted by the capacity limit",
);
/// Read blocks fetched again because they left the cache between their
/// fetch and their serve. A read pins the blocks it waits on, so only a
/// lock hand-off mid-read (which drops the file's blocks) causes one.
pub const CLIENT_CACHE_REFETCHES: MetricDef = counter(
    "client.cache.refetches",
    "read blocks fetched again because they left the cache before serve",
);
/// Dirty write-back blocks hardened to the SAN (periodic flush, demand
/// flush, or the phase-4 flush-everything campaign).
pub const CLIENT_CACHE_WRITEBACK_FLUSHES: MetricDef = counter(
    "client.cache.writeback_flushes",
    "dirty write-back blocks hardened to the SAN",
);
/// Server demands that revoked a held data lock (flush-then-release on
/// the client; the shared-read → exclusive coherence path).
pub const CLIENT_CACHE_REVOKES: MetricDef = counter(
    "client.cache.revokes",
    "held data locks revoked by a server demand",
);
/// `Stat`s answered from the attributes cached under a held data lock.
/// Incremented at serve time, so it equals the number of
/// `AttrServed { from_cache: true }` events exactly.
pub const CLIENT_ATTR_HITS: MetricDef = counter(
    "client.attr.hits",
    "stats answered from the attributes cached under a held lock",
);
/// `Stat`s answered by the server (a `GetAttr` or resolving `Lookup`
/// reply); one-for-one with `AttrServed { from_cache: false }` events.
pub const CLIENT_ATTR_MISSES: MetricDef =
    counter("client.attr.misses", "stats answered by the server");

// ------------------------------------------------------------- server

/// Data locks granted to clients.
pub const SERVER_LOCK_GRANTED: MetricDef = counter("server.lock.granted", "data locks granted");
/// Data locks voluntarily released by clients.
pub const SERVER_LOCK_RELEASED: MetricDef =
    counter("server.lock.released", "data locks voluntarily released");
/// Data locks stolen after lease condemnation.
pub const SERVER_LOCK_STOLEN: MetricDef =
    counter("server.lock.stolen", "data locks stolen after condemnation");
/// Steal sweeps executed (one per condemned client, may steal many locks).
pub const SERVER_STEALS: MetricDef =
    counter("server.steals", "steal sweeps over condemned clients");
/// Demand (push) messages sent asking clients to downgrade/release.
pub const SERVER_DEMANDS_SENT: MetricDef =
    counter("server.demands_sent", "demand/push messages sent");
/// NACKs by reason: the server's lease was timing out.
pub const SERVER_NACK_LEASE_TIMING_OUT: MetricDef = counter(
    "server.nack.lease_timing_out",
    "NACKs with reason LeaseTimingOut",
);
/// NACKs by reason: the client's session had expired.
pub const SERVER_NACK_SESSION_EXPIRED: MetricDef = counter(
    "server.nack.session_expired",
    "NACKs with reason SessionExpired",
);
/// NACKs by reason: the request carried a stale session id.
pub const SERVER_NACK_STALE_SESSION: MetricDef = counter(
    "server.nack.stale_session",
    "NACKs with reason StaleSession",
);
/// NACKs by reason: the server was replaying its log after restart.
pub const SERVER_NACK_RECOVERING: MetricDef =
    counter("server.nack.recovering", "NACKs with reason Recovering");
/// NACKs by reason: the request's governing inode belongs to another
/// shard, or the client's shard map epoch was stale.
pub const SERVER_NACK_MISROUTED: MetricDef =
    counter("server.nack.misrouted", "NACKs with reason Misrouted");
/// Message delivery errors reported by the transport.
pub const SERVER_DELIVERY_ERRORS: MetricDef =
    counter("server.delivery_errors", "transport delivery errors");
/// Condemnation timers armed after a delivery error.
pub const SERVER_CONDEMN_ARMED: MetricDef = counter(
    "server.condemn.armed",
    "condemnation timers armed after delivery errors",
);
/// Condemnation timers that fired (client lease declared dead).
pub const SERVER_CONDEMN_FIRED: MetricDef =
    counter("server.condemn.fired", "condemnation timers that fired");
/// Fence operations completed against the SAN.
pub const SERVER_FENCES: MetricDef = counter("server.fences", "SAN fence operations completed");
/// New client sessions established via HELLO.
pub const SERVER_SESSIONS: MetricDef =
    counter("server.sessions", "new client sessions established");
/// Server recovery windows begun (restart detected).
pub const SERVER_RECOVERY_BEGAN: MetricDef =
    counter("server.recovery.began", "server recovery windows begun");
/// Server recovery windows completed (grace period elapsed).
pub const SERVER_RECOVERY_ENDED: MetricDef =
    counter("server.recovery.ended", "server recovery windows completed");
/// Messages the server could not interpret (protocol anomalies).
pub const SERVER_UNEXPECTED_MSGS: MetricDef = counter(
    "server.unexpected_msgs",
    "messages the server could not interpret",
);
/// Time from arming a condemnation timer to its firing, server-local ns:
/// what is left of the `τ_s(1+ε)` that began at the client's last ACK, so
/// every value is ≤ `τ_s(1+ε)`.
pub const SERVER_STEAL_LATENCY_NS: MetricDef = histogram(
    "server.steal_latency_ns",
    "ns",
    DURATION_BOUNDS_NS,
    "condemnation-timer arm-to-fire latency (the residual lease wait)",
);
/// Wall-clock time the request path takes over one `Batch` request (net
/// stack only — the sim server executes in zero virtual time).
pub const SERVER_BATCH_EXEC_NS: MetricDef = histogram(
    "server.batch.exec_ns",
    "ns",
    DURATION_BOUNDS_NS,
    "wall-clock vectored batch execution time",
);
/// Standby takeovers via the diskless-lease election (τ(1+ε) of
/// replication silence on the standby's own clock).
pub const SERVER_FAILOVER_ELECTIONS: MetricDef = counter(
    "server.failover.elections",
    "standby takeovers via diskless-lease election",
);
/// Modeled log-replay cost per recovery (1µs per replayed WAL record;
/// the sim itself replays in zero virtual time).
pub const SERVER_WAL_REPLAY_LATENCY_NS: MetricDef = histogram(
    "server.wal.replay_latency_ns",
    "ns",
    DURATION_BOUNDS_NS,
    "modeled WAL replay cost per recovery",
);
/// Data locks granted in `SharedRead` mode (N concurrent reader caches).
pub const SERVER_DATALOCK_SHARED_GRANTS: MetricDef = counter(
    "server.datalock.shared_grants",
    "data locks granted in SharedRead mode",
);
/// Data locks granted in `Exclusive` mode (single writer).
pub const SERVER_DATALOCK_EXCLUSIVE_GRANTS: MetricDef = counter(
    "server.datalock.exclusive_grants",
    "data locks granted in Exclusive mode",
);
/// Revocation demands sent against held data locks (a waiter needs an
/// incompatible mode — the revoke-to-exclusive coherence storm path).
pub const SERVER_DATALOCK_REVOKES: MetricDef = counter(
    "server.datalock.revokes",
    "revocation demands sent against held data locks",
);

// --------------------------------------------------------------- meta

/// Redo records appended to the metadata write-ahead log.
pub const META_WAL_APPENDS: MetricDef =
    counter("meta.wal.appends", "redo records appended to the WAL");
/// Group-commit fsyncs that advanced the durable watermark (one per
/// acknowledgment point with new records, not one per record).
pub const META_WAL_FSYNCS: MetricDef = counter(
    "meta.wal.fsyncs",
    "group-commit fsyncs that advanced the durable watermark",
);
/// Snapshot compactions (log folded into a fresh snapshot generation).
pub const META_SNAPSHOT_COMPACTIONS: MetricDef = counter(
    "meta.snapshot.compactions",
    "WAL compactions into a fresh snapshot generation",
);

// -------------------------------------------------------- consistency

/// Causal records the happens-before auditor consumed.
pub const CONSISTENCY_HB_EVENTS: MetricDef = counter(
    "consistency.hb.events",
    "causal records consumed by the happens-before auditor",
);
/// Happens-before edges the auditor built over those records.
pub const CONSISTENCY_HB_EDGES: MetricDef = counter(
    "consistency.hb.edges",
    "happens-before edges built by the auditor",
);
/// Conflicting block-access pairs left unordered by happens-before.
pub const CONSISTENCY_HB_RACY_PAIRS: MetricDef = counter(
    "consistency.hb.racy_pairs",
    "conflicting access pairs left unordered by happens-before",
);

// ---------------------------------------------------------------- sim

/// Messages submitted to the simulated network.
pub const SIM_MSG_SENT: MetricDef = counter(
    "sim.msg.sent",
    "messages submitted to the simulated network",
);
/// Messages delivered to a live destination actor.
pub const SIM_MSG_DELIVERED: MetricDef =
    counter("sim.msg.delivered", "messages delivered to live actors");
/// Messages dropped by loss injection.
pub const SIM_MSG_DROPPED: MetricDef =
    counter("sim.msg.dropped", "messages dropped by loss injection");
/// Messages dropped by a partition (link blocked).
pub const SIM_MSG_BLOCKED: MetricDef =
    counter("sim.msg.blocked", "messages dropped by a partition");
/// Messages discarded because the destination was dead at delivery.
pub const SIM_MSG_TO_DEAD: MetricDef = counter(
    "sim.msg.to_dead",
    "messages discarded at a dead destination",
);

// ---------------------------------------------------------------- net

/// UDP datagrams dropped on send by fault injection.
pub const NET_FAULT_SEND_DROPPED: MetricDef = counter(
    "net.fault.send_dropped",
    "datagrams dropped on send by fault injection",
);
/// UDP datagrams duplicated on send by fault injection.
pub const NET_FAULT_SEND_DUP: MetricDef = counter(
    "net.fault.send_dup",
    "datagrams duplicated on send by fault injection",
);
/// UDP datagrams delayed on send by fault injection.
pub const NET_FAULT_SEND_DELAYED: MetricDef = counter(
    "net.fault.send_delayed",
    "datagrams delayed on send by fault injection",
);
/// UDP datagrams dropped on receive by fault injection.
pub const NET_FAULT_RECV_DROPPED: MetricDef = counter(
    "net.fault.recv_dropped",
    "datagrams dropped on receive by fault injection",
);
/// UDP datagrams duplicated on receive by fault injection.
pub const NET_FAULT_RECV_DUP: MetricDef = counter(
    "net.fault.recv_dup",
    "datagrams duplicated on receive by fault injection",
);
/// Datagrams that failed to decode in the client's host loop.
pub const NET_CLIENT_DECODE_ERRORS: MetricDef = counter(
    "net.client.decode_errors",
    "datagrams that failed to decode in the client's host loop",
);
/// Datagrams that failed to decode in `tankd`'s host loop.
pub const NET_SERVER_DECODE_ERRORS: MetricDef = counter(
    "net.server.decode_errors",
    "datagrams that failed to decode in the server's host loop",
);
/// Reactor wakeups (poll returns with ≥1 ready event or a due timer).
pub const NET_REACTOR_WAKEUPS: MetricDef = counter("net.reactor.wakeups", "reactor poll wakeups");
/// Datagrams drained from the socket per reactor wakeup.
pub const NET_REACTOR_DATAGRAMS_PER_WAKEUP: MetricDef = histogram(
    "net.reactor.datagrams_per_wakeup",
    "datagrams",
    BATCH_SIZE_BOUNDS,
    "datagrams drained per reactor wakeup",
);

/// Every metric the repo registers, grouped by layer. `OBSERVABILITY.md`
/// mirrors this list; `register_all` materialises it.
pub const ALL: &[MetricDef] = &[
    // client
    CLIENT_RENEWALS,
    CLIENT_PHASE_QUIESCE,
    CLIENT_PHASE_FLUSH,
    CLIENT_PHASE_INVALID,
    CLIENT_PHASE_RESUME,
    CLIENT_EXPIRY_DISCARDED_DIRTY,
    CLIENT_RETRANSMITS,
    CLIENT_UNEXPECTED_MSGS,
    CLIENT_LANE_EXPIRIES,
    CLIENT_RENAME_ABORTS,
    CLIENT_RENEWAL_HEADROOM_NS,
    CLIENT_BATCH_SIZE,
    CLIENT_BATCH_FLUSH_REASON,
    CLIENT_CACHE_HITS,
    CLIENT_CACHE_MISSES,
    CLIENT_CACHE_EVICTIONS,
    CLIENT_CACHE_REFETCHES,
    CLIENT_CACHE_WRITEBACK_FLUSHES,
    CLIENT_CACHE_REVOKES,
    CLIENT_ATTR_HITS,
    CLIENT_ATTR_MISSES,
    // server
    SERVER_LOCK_GRANTED,
    SERVER_LOCK_RELEASED,
    SERVER_LOCK_STOLEN,
    SERVER_STEALS,
    SERVER_DEMANDS_SENT,
    SERVER_NACK_LEASE_TIMING_OUT,
    SERVER_NACK_SESSION_EXPIRED,
    SERVER_NACK_STALE_SESSION,
    SERVER_NACK_RECOVERING,
    SERVER_NACK_MISROUTED,
    SERVER_DELIVERY_ERRORS,
    SERVER_CONDEMN_ARMED,
    SERVER_CONDEMN_FIRED,
    SERVER_FENCES,
    SERVER_SESSIONS,
    SERVER_RECOVERY_BEGAN,
    SERVER_RECOVERY_ENDED,
    SERVER_UNEXPECTED_MSGS,
    SERVER_STEAL_LATENCY_NS,
    SERVER_BATCH_EXEC_NS,
    SERVER_FAILOVER_ELECTIONS,
    SERVER_WAL_REPLAY_LATENCY_NS,
    SERVER_DATALOCK_SHARED_GRANTS,
    SERVER_DATALOCK_EXCLUSIVE_GRANTS,
    SERVER_DATALOCK_REVOKES,
    // meta
    META_WAL_APPENDS,
    META_WAL_FSYNCS,
    META_SNAPSHOT_COMPACTIONS,
    // consistency
    CONSISTENCY_HB_EVENTS,
    CONSISTENCY_HB_EDGES,
    CONSISTENCY_HB_RACY_PAIRS,
    // sim
    SIM_MSG_SENT,
    SIM_MSG_DELIVERED,
    SIM_MSG_DROPPED,
    SIM_MSG_BLOCKED,
    SIM_MSG_TO_DEAD,
    // net
    NET_FAULT_SEND_DROPPED,
    NET_FAULT_SEND_DUP,
    NET_FAULT_SEND_DELAYED,
    NET_FAULT_RECV_DROPPED,
    NET_FAULT_RECV_DUP,
    NET_CLIENT_DECODE_ERRORS,
    NET_SERVER_DECODE_ERRORS,
    NET_REACTOR_WAKEUPS,
    NET_REACTOR_DATAGRAMS_PER_WAKEUP,
];

/// Register every declared metric so zero-valued instruments appear in
/// snapshots (absence of events is itself a signal).
pub fn register_all(registry: &Registry) {
    for def in ALL {
        registry.register(def);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut seen = std::collections::BTreeSet::new();
        for def in ALL {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.contains('.'), "{} lacks a layer prefix", def.name);
        }
    }

    #[test]
    fn histograms_have_bounds_counters_do_not() {
        for def in ALL {
            match def.kind {
                MetricKind::Counter => assert!(def.bounds.is_empty(), "{}", def.name),
                MetricKind::Histogram => assert!(!def.bounds.is_empty(), "{}", def.name),
            }
        }
    }
}
