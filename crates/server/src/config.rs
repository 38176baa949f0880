//! Server configuration: recovery policy, timing knobs.

use tank_core::LeaseConfig;
use tank_proto::{NodeId, ServerId};
use tank_shard::ShardMap;
use tank_sim::LocalNs;

use crate::demand::DemandLadder;

/// What the server does about a client that stops responding while
/// holding locks — the axis of the paper's entire argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum RecoveryPolicy {
    /// Honor the locks of unreachable clients indefinitely (§2's outcome
    /// without a safety protocol: the file stays unavailable until the
    /// partition heals).
    HonorLocks,
    /// Steal locks immediately, no fencing — safe for function-shipping
    /// servers, *unsafe* on a SAN (§1.2): the isolated client keeps
    /// writing shared disks.
    StealImmediately,
    /// Fence the client at the disks, then steal (§2.1): stops conflicting
    /// writes but strands the client's dirty cache and lets it serve stale
    /// reads to local processes.
    FenceThenSteal,
    /// The paper's protocol: arm the passive lease authority's `τ(1+ε)`
    /// timer, NACK the client meanwhile, fence and steal when it fires —
    /// by which time the client has quiesced, flushed, and invalidated
    /// itself.
    LeaseFence,
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Lease contract (shared with clients).
    pub lease: LeaseConfig,
    /// Which shard of the inode namespace this server governs.
    pub sid: ServerId,
    /// The shard map this server was booted with; requests whose governing
    /// inode another shard owns are NACKed `Misrouted`.
    pub map: ShardMap,
    /// Recovery policy for unresponsive clients.
    pub policy: RecoveryPolicy,
    /// The SAN disks this server manages (fencing targets).
    pub disks: Vec<NodeId>,
    /// When an unanswered demand becomes a delivery error.
    pub ladder: DemandLadder,
    /// §3.3: answer valid requests from suspect clients with NACKs so they
    /// learn their cache is invalid immediately. Disabled, the server
    /// silently ignores them (the strawman the paper rejects as causing
    /// "further unnecessary message traffic"): the client keeps
    /// retransmitting until its own lease machinery gives up.
    pub nack_suspect: bool,
    /// Fail-stop recovery: after a restart, refuse what reads the lock
    /// table for the lease-expiry grace window `τ(1+ε)`: lock grants and
    /// the mutations admitted against it, the requests
    /// [`needs_full_service`](tank_proto::message::RequestBody::needs_full_service)
    /// names. Creates, reads and session traffic are served.
    ///
    /// The restarted server's lock/lease state is volatile and gone, so it
    /// cannot know which clients still hold valid leases; granting before
    /// every pre-crash lease has provably expired could hand a lock to a
    /// new client while a surviving holder is still writing the SAN under
    /// its old (still valid) lease. Waiting out `server_timeout()` makes
    /// every pre-crash holder's own clock expire its lease (and flush its
    /// dirty cache) first — the same rate-synchronization argument as
    /// Theorem 3.1. Disabling this is the experiment's negative control
    /// and demonstrably loses updates.
    pub recovery_grace: bool,
    /// Durable-log bytes beyond which the server folds the log into a
    /// fresh snapshot (write-then-rename in the model; the log restarts
    /// empty at a bumped generation). Bounds replay time after a crash.
    pub compact_threshold: usize,
    /// Steal-side grace for in-flight hardens: after a lease expires
    /// (condemnation fires, the client is NACKed and will never be ACKed
    /// again), wait this long before fencing and stealing its locks.
    ///
    /// The lease contract bounds when the *client stops issuing* SAN
    /// writes — phase 4 ends at `flush_frac·τ` on the client's clock — but
    /// not when its last issued write *lands*: delivery rides the SAN's
    /// latency, outside the clock-rate argument. A steal that lands inside
    /// that delivery window catches acknowledged-but-unhardened blocks
    /// pinned under the stolen epoch (the coherence audit's
    /// "dirty block at steal" clause). Delaying the steal is in the safe
    /// direction for Theorem 3.1 — it only lengthens mutual exclusion at
    /// the cost of availability — and a grace covering the SAN's in-flight
    /// delivery closes the window. Zero (the default) preserves the
    /// prompt-steal behavior the negative-control experiments depend on.
    pub harden_grace: LocalNs,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lease: LeaseConfig::default(),
            sid: ServerId(0),
            map: ShardMap::single(),
            policy: RecoveryPolicy::LeaseFence,
            disks: Vec::new(),
            ladder: DemandLadder::default(),
            nack_suspect: true,
            recovery_grace: true,
            compact_threshold: tank_meta::wal::DEFAULT_COMPACT_THRESHOLD,
            harden_grace: LocalNs(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_protocol() {
        let c = ServerConfig::default();
        assert_eq!(c.policy, RecoveryPolicy::LeaseFence);
        assert!(c.ladder.retries >= 1);
    }
}
