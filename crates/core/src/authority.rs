//! Server-side passive lease authority (§3, §3.3).
//!
//! During normal operation the authority holds **no state and does no
//! work**: `standing_of` on an empty table is the entire fast path, and the
//! experiments measure exactly that ([`AuthorityStats`]). Only a *delivery
//! error* — a client failing to respond to a retried server push — creates
//! a per-client record and arms a timer of `τ(1+ε)` in server-local time,
//! counted from the last ACK the server sent that client: Theorem 3.1's
//! earliest safe moment, so detecting the error and waiting out the lease
//! overlap instead of adding up.
//!
//! While a client's timer runs the server must not ACK it (that would
//! grant a lease, §3.1) and answers valid requests with NACKs so a
//! transiently-partitioned client learns its cache is invalid immediately
//! (§3.3, Figure 5). When the timer fires, the client's locks may be
//! stolen and the client fenced; the client then stands *expired* until it
//! re-establishes a session with `Hello`.

use std::collections::HashMap;

use serde::Serialize;
use tank_proto::NackReason;
use tank_sim::{LocalNs, NodeId};

use crate::config::LeaseConfig;

/// A client's standing with the authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientStanding {
    /// Normal operation: requests are ACKed, no lease state exists.
    Good,
    /// A delivery error occurred; a timer is running until the given
    /// server-local time. Requests are NACKed, never ACKed.
    Suspect {
        /// Server-local time at which the locks may be stolen.
        fires_at: LocalNs,
    },
    /// The timer fired and the locks were stolen. Requests are NACKed with
    /// `SessionExpired` until the client sends `Hello`.
    Expired,
}

impl ClientStanding {
    /// What a client in this standing is told in place of *any* ACK —
    /// including the answer to a request admitted while it was still
    /// `Good`, such as a lock acquire that was queued behind a holder. An
    /// ACK renews the lease from the request's first send, and that may be
    /// later than the ACK the running timer counts from.
    pub fn refusal(self) -> Option<NackReason> {
        match self {
            ClientStanding::Good => None,
            ClientStanding::Suspect { .. } => Some(NackReason::LeaseTimingOut),
            ClientStanding::Expired => Some(NackReason::SessionExpired),
        }
    }
}

/// Work/memory accounting proving the "passive server" claim (abstract:
/// "during normal operation, this protocol invokes no message overhead,
/// and uses no memory and performs no computation at the locking
/// authority").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct AuthorityStats {
    /// Fast-path standing checks performed while the table was empty
    /// (an O(1) lookup in an empty map — the protocol's entire footprint
    /// during normal operation).
    pub empty_checks: u64,
    /// Standing checks performed while at least one record existed.
    pub tracked_checks: u64,
    /// Delivery errors that armed a timer.
    pub timers_started: u64,
    /// Timers that fired (locks stolen).
    pub expirations: u64,
    /// NACKs the authority instructed the server to send.
    pub nacks: u64,
    /// High-water mark of simultaneously tracked clients.
    pub peak_tracked: usize,
}

/// The passive lease authority.
#[derive(Debug, Clone)]
pub struct LeaseAuthority {
    cfg: LeaseConfig,
    /// Per-client records — present only for suspect/expired clients.
    tracked: HashMap<NodeId, ClientStanding>,
    stats: AuthorityStats,
}

impl LeaseAuthority {
    /// New authority with no state.
    pub fn new(cfg: LeaseConfig) -> Self {
        cfg.validate().expect("invalid lease config");
        LeaseAuthority {
            cfg,
            tracked: HashMap::new(),
            stats: AuthorityStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LeaseConfig {
        &self.cfg
    }

    /// A delivery error was detected for `client` (a retried push went
    /// unanswered), which the server has not ACKed since server-local
    /// `since`. Arms the `τ(1+ε)` timer from `since` if none is running.
    /// Returns the server-local fire time if a new timer was armed — the
    /// caller must schedule a wakeup (at once, if that time has passed) and
    /// call [`on_timer`](Self::on_timer) then.
    ///
    /// `since` must be no earlier than the last ACK sent to `client`: every
    /// lease it holds began at or before that ACK (`t_C1 ≤ t_S2`), so all
    /// of them end before `since + τ(1+ε)` on this clock.
    pub fn on_delivery_error(&mut self, client: NodeId, since: LocalNs) -> Option<LocalNs> {
        match self.tracked.get(&client) {
            Some(_) => None, // already suspect or expired
            None => {
                let fires_at = since.plus(self.cfg.server_timeout());
                self.tracked
                    .insert(client, ClientStanding::Suspect { fires_at });
                self.stats.timers_started += 1;
                self.stats.peak_tracked = self.stats.peak_tracked.max(self.tracked.len());
                Some(fires_at)
            }
        }
    }

    /// The timer for `client` fired at server-local `now`. Returns `true`
    /// when the client's lease is now expired and the caller must steal
    /// its locks (and fence it). Idempotent; `false` if the client was not
    /// suspect or the timer has not actually elapsed.
    pub fn on_timer(&mut self, client: NodeId, now: LocalNs) -> bool {
        match self.tracked.get(&client) {
            Some(ClientStanding::Suspect { fires_at }) if now >= *fires_at => {
                self.tracked.insert(client, ClientStanding::Expired);
                self.stats.expirations += 1;
                true
            }
            _ => false,
        }
    }

    /// The client's standing. This is the *only* authority call on the
    /// request hot path; with an empty table it is the whole cost of the
    /// protocol during normal operation.
    pub fn standing_of(&mut self, client: NodeId) -> ClientStanding {
        if self.tracked.is_empty() {
            self.stats.empty_checks += 1;
            return ClientStanding::Good;
        }
        self.stats.tracked_checks += 1;
        self.tracked
            .get(&client)
            .copied()
            .unwrap_or(ClientStanding::Good)
    }

    /// Whether the server may ACK this client (§3.1 correctness rule: "the
    /// server not to ACK messages if it has already started a counter to
    /// expire client locks"). When `false`, the server must NACK instead,
    /// which this method records.
    pub fn may_ack(&mut self, client: NodeId) -> bool {
        match self.standing_of(client) {
            ClientStanding::Good => true,
            ClientStanding::Suspect { .. } | ClientStanding::Expired => {
                self.stats.nacks += 1;
                false
            }
        }
    }

    /// The client established a new session (`Hello` processed *after*
    /// expiry): clear its record. Calling this for a `Suspect` client is a
    /// protocol error — the timer must ride to completion — and panics in
    /// debug builds.
    pub fn on_new_session(&mut self, client: NodeId) {
        debug_assert!(
            !matches!(
                self.tracked.get(&client),
                Some(ClientStanding::Suspect { .. })
            ),
            "cannot reset a client whose expiry timer is still running"
        );
        self.tracked.remove(&client);
    }

    /// Bytes of lease state for `records` tracked clients: what the
    /// authority holds with that many suspect or expired clients.
    pub const fn record_bytes(records: usize) -> usize {
        records * (std::mem::size_of::<NodeId>() + std::mem::size_of::<ClientStanding>())
    }

    /// Bytes of lease state currently held. Zero during normal operation —
    /// measured, not asserted, by experiment E6.
    pub fn memory_bytes(&self) -> usize {
        Self::record_bytes(self.tracked.len())
    }

    /// Number of tracked (suspect or expired) clients.
    pub fn tracked_len(&self) -> usize {
        self.tracked.len()
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> AuthorityStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: NodeId = NodeId(1);
    const C2: NodeId = NodeId(2);
    const S: u64 = 1_000_000_000;

    fn auth() -> LeaseAuthority {
        let mut cfg = LeaseConfig::default(); // τ = 10s
        cfg.epsilon = 0.1;
        LeaseAuthority::new(cfg)
    }

    #[test]
    fn normal_operation_holds_no_state_and_acks_everything() {
        let mut a = auth();
        for _ in 0..1000 {
            assert!(a.may_ack(C1));
            assert!(a.may_ack(C2));
        }
        assert_eq!(
            a.memory_bytes(),
            0,
            "no lease memory during normal operation"
        );
        assert_eq!(a.tracked_len(), 0);
        let s = a.stats();
        assert_eq!(s.empty_checks, 2000);
        assert_eq!(s.tracked_checks, 0);
        assert_eq!(s.timers_started, 0);
        assert_eq!(s.nacks, 0);
    }

    #[test]
    fn delivery_error_arms_timer_of_tau_times_one_plus_eps() {
        let mut a = auth();
        let fires = a.on_delivery_error(C1, LocalNs(5 * S)).expect("new timer");
        assert_eq!(fires, LocalNs(5 * S + 11 * S), "τ(1+ε) = 11s after 5s");
        // Second error is absorbed by the running timer.
        assert_eq!(a.on_delivery_error(C1, LocalNs(6 * S)), None);
    }

    #[test]
    fn a_wait_already_served_fires_on_the_next_timer() {
        // Detection took longer than τ(1+ε): the last ACK was at 5s, the
        // error is declared at 20s, and the timer is already due.
        let mut a = auth();
        let fires = a.on_delivery_error(C1, LocalNs(5 * S)).expect("new timer");
        assert_eq!(fires, LocalNs(16 * S));
        assert!(matches!(a.standing_of(C1), ClientStanding::Suspect { .. }));
        // A second error while suspect is still absorbed.
        assert_eq!(a.on_delivery_error(C1, LocalNs(19 * S)), None);
        assert!(a.on_timer(C1, LocalNs(20 * S)), "due at once: steal");
        assert_eq!(a.standing_of(C1), ClientStanding::Expired);
    }

    #[test]
    fn suspect_client_is_nacked_not_acked() {
        let mut a = auth();
        a.on_delivery_error(C1, LocalNs(0));
        assert!(!a.may_ack(C1), "§3.1: no ACK once the counter started");
        assert!(a.may_ack(C2), "other clients unaffected");
        assert_eq!(a.stats().nacks, 1);
        assert!(matches!(a.standing_of(C1), ClientStanding::Suspect { .. }));
    }

    #[test]
    fn timer_fires_only_after_full_interval() {
        let mut a = auth();
        a.on_delivery_error(C1, LocalNs(0));
        assert!(!a.on_timer(C1, LocalNs(10 * S)), "before τ(1+ε)");
        assert!(a.on_timer(C1, LocalNs(11 * S)), "at τ(1+ε): steal");
        assert!(!a.on_timer(C1, LocalNs(12 * S)), "idempotent");
        assert_eq!(a.standing_of(C1), ClientStanding::Expired);
        assert_eq!(a.stats().expirations, 1);
    }

    #[test]
    fn timer_for_untracked_client_is_a_no_op() {
        let mut a = auth();
        assert!(!a.on_timer(C1, LocalNs(100 * S)));
    }

    #[test]
    fn expired_client_recovers_via_new_session() {
        let mut a = auth();
        a.on_delivery_error(C1, LocalNs(0));
        a.on_timer(C1, LocalNs(11 * S));
        assert!(!a.may_ack(C1), "expired clients are NACKed until Hello");
        a.on_new_session(C1);
        assert!(a.may_ack(C1));
        assert_eq!(a.memory_bytes(), 0, "record freed after recovery");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timer is still running")]
    fn new_session_during_suspect_is_a_protocol_error() {
        let mut a = auth();
        a.on_delivery_error(C1, LocalNs(0));
        a.on_new_session(C1);
    }

    #[test]
    fn memory_scales_with_tracked_clients_only() {
        let mut a = auth();
        for i in 0..10 {
            a.on_delivery_error(NodeId(i), LocalNs(0));
        }
        assert!(a.memory_bytes() > 0);
        assert_eq!(a.tracked_len(), 10);
        assert_eq!(a.stats().peak_tracked, 10);
    }

    #[test]
    fn zero_epsilon_means_timer_equals_tau() {
        let mut cfg = LeaseConfig::default();
        cfg.epsilon = 0.0;
        let mut a = LeaseAuthority::new(cfg);
        let fires = a.on_delivery_error(C1, LocalNs(0)).unwrap();
        assert_eq!(fires, LocalNs(10 * S));
    }
}
