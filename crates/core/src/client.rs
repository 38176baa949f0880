//! Client-side lease state machine (§3.1–§3.3, Figure 4).
//!
//! One [`ClientLease`] instance tracks the client's single lease with one
//! server. The machine is sans-io: the embedding client node reports sends,
//! ACKs and NACKs with local timestamps, and periodically calls
//! [`ClientLease::poll`] to collect edge-triggered actions (send keep-alive,
//! quiesce, flush, expire). [`ClientLease::next_wakeup`] tells the driver
//! when the next poll is due, so no busy polling is needed.
//!
//! The client node polls far more often than anything happens: after every
//! activation and every renewing ACK. So each poll that does the work
//! also caches its *edge*, the earliest local time at which a poll could
//! act (the next phase boundary or keep-alive). Until then `poll` returns
//! nothing and `next_wakeup` returns the edge, both without touching
//! `pending` or recomputing the phase. Whatever moves the lease (an ACK
//! that extends it, a NACK, a session reset) drops the edge. The phase
//! offsets are integers fixed at construction, and `pending` is a
//! seq-ordered queue: sends arrive in seq order at non-decreasing times,
//! so an ACK usually finds its entry at the front and the entries that
//! expire first sit there too.

use std::collections::VecDeque;

use tank_proto::seqwin::insert_in_seq_order;
use tank_proto::ReqSeq;
use tank_sim::LocalNs;

use crate::config::LeaseConfig;

/// Phase of the lease interval, in increasing order of distress.
///
/// `NoLease` is the newborn/reset state: nothing is cached, nothing is
/// protected. Phases `Valid..=ExpectedFailure` are Figure 4's phases 1–4;
/// `Expired` is the post-τ state in which the lease and its locks are dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub enum Phase {
    /// No lease has ever been granted in this session.
    NoLease,
    /// Phase 1: recently renewed, everything served, renewals ride on
    /// ordinary traffic.
    Valid,
    /// Phase 2: no recent ACK, actively send keep-alives; still serving.
    Renewal,
    /// Phase 3: presumed isolated; stop admitting new file-system requests
    /// and quiesce in-flight ones.
    Suspect,
    /// Phase 4: flush every dirty page to shared storage.
    ExpectedFailure,
    /// Past τ: cache contents and locks are invalid; local processes get
    /// errors until a new session is established.
    Expired,
}

impl Phase {
    /// Every phase, in order of distress — the CACHING.md phase/admission
    /// table is diffed against this list by the doc-contract test.
    pub const ALL: [Phase; 6] = [
        Phase::NoLease,
        Phase::Valid,
        Phase::Renewal,
        Phase::Suspect,
        Phase::ExpectedFailure,
        Phase::Expired,
    ];

    /// The variant name as it appears in the coherence contract's tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::NoLease => "NoLease",
            Phase::Valid => "Valid",
            Phase::Renewal => "Renewal",
            Phase::Suspect => "Suspect",
            Phase::ExpectedFailure => "ExpectedFailure",
            Phase::Expired => "Expired",
        }
    }
}

/// Edge-triggered action requested by the lease machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    /// Send a keep-alive (NULL) request to the server now.
    SendKeepAlive,
    /// Entering phase 3: stop admitting new file-system requests; let
    /// in-progress operations drain.
    BeginQuiesce,
    /// Entering phase 4: write all dirty cache contents to shared storage.
    BeginFlush,
    /// The lease expired: invalidate the cache, cede all locks, and fail
    /// file-system requests until the session is re-established.
    LeaseExpired,
    /// A renewal arrived after quiesce began but before expiry: resume
    /// normal service.
    Resume,
}

/// The client lease state machine.
#[derive(Debug, Clone)]
pub struct ClientLease {
    cfg: LeaseConfig,
    /// `cfg`'s phase 2, 3 and 4 offsets into the lease, in local ns.
    renew_at: u64,
    suspect_at: u64,
    flush_at: u64,
    /// `t_C1` of the newest granted lease (send time of the newest
    /// acknowledged message).
    lease_start: Option<LocalNs>,
    /// Send times of in-flight requests, `(seq, t_C1)` in seq order (§3.1:
    /// the lease a future ACK will grant runs from the *send* time).
    pending: VecDeque<(ReqSeq, LocalNs)>,
    /// Set by a NACK (§3.3): the cache is known invalid; at least phase 3.
    nacked: bool,
    /// Once expiry has been observed it is sticky until `reset_session`,
    /// so a straggling ACK cannot resurrect locks the client already ceded.
    expired_latch: bool,
    /// Last phase for which transition actions were emitted.
    announced: Phase,
    /// Next keep-alive due time while in phase 2.
    keepalive_due: Option<LocalNs>,
    /// `(at, edge)`: the last poll that did the work ran at `at`, and no
    /// poll in `[at, edge)` can act (`edge` `None`: none until the lease
    /// moves). `edge` is also what `next_wakeup` returns in that span.
    edge: Option<(LocalNs, Option<LocalNs>)>,
    /// Counters for the experiments.
    renewals: u64,
    keepalives_sent: u64,
}

impl ClientLease {
    /// New machine with no lease.
    pub fn new(cfg: LeaseConfig) -> Self {
        cfg.validate().expect("invalid lease config");
        ClientLease {
            cfg,
            renew_at: cfg.renew_offset().0,
            suspect_at: cfg.suspect_offset().0,
            flush_at: cfg.flush_offset().0,
            lease_start: None,
            pending: VecDeque::new(),
            nacked: false,
            expired_latch: false,
            announced: Phase::NoLease,
            keepalive_due: None,
            edge: None,
            renewals: 0,
            keepalives_sent: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LeaseConfig {
        &self.cfg
    }

    /// Record that a request was sent at local time `now`. Every
    /// client-initiated request participates in opportunistic renewal.
    pub fn on_send(&mut self, seq: ReqSeq, now: LocalNs) {
        insert_in_seq_order(&mut self.pending, seq, now);
    }

    /// Record an ACK for `seq` arriving at `now`. Returns `true` when the
    /// ACK renewed the lease (the paper's `[t_C1, t_C1 + τ)` grant).
    pub fn on_ack(&mut self, seq: ReqSeq, now: LocalNs) -> bool {
        let Ok(i) = self.pending.binary_search_by_key(&seq, |e| e.0) else {
            return false;
        };
        let (_, t_c1) = self.pending.remove(i).expect("found by the search");
        if self.expired_latch || self.nacked {
            // Cache already condemned; only a new session can help.
            return false;
        }
        if now.0 >= t_c1.0.saturating_add(self.cfg.tau.0) {
            // The granted interval [t_C1, t_C1+τ) is already over.
            return false;
        }
        if self.lease_start.is_none_or(|s| t_c1 > s) {
            self.lease_start = Some(t_c1);
            self.renewals += 1;
            self.edge = None;
        }
        true
    }

    /// Record a NACK (§3.3): the client has missed a message, its cache is
    /// invalid, and it must enter phase 3 directly, foregoing further lease
    /// acquisition until recovery.
    pub fn on_nack(&mut self, _now: LocalNs) {
        self.nacked = true;
        self.edge = None;
    }

    /// Establish a fresh session after recovery. `hello_sent_at` is the
    /// send time of the acknowledged `Hello`, which grants the first lease
    /// of the new session.
    pub fn reset_session(&mut self, hello_sent_at: LocalNs, now: LocalNs) {
        self.pending.clear();
        self.nacked = false;
        self.expired_latch = false;
        self.lease_start = Some(hello_sent_at);
        self.keepalive_due = None;
        self.edge = None;
        self.announced = self.phase(now);
    }

    /// Current phase at local time `now`.
    pub fn phase(&self, now: LocalNs) -> Phase {
        if self.expired_latch {
            return Phase::Expired;
        }
        let natural = match self.lease_start {
            None => Phase::NoLease,
            Some(s) => {
                let elapsed = now.0.saturating_sub(s.0);
                if elapsed >= self.cfg.tau.0 {
                    Phase::Expired
                } else if elapsed >= self.flush_at {
                    Phase::ExpectedFailure
                } else if elapsed >= self.suspect_at {
                    Phase::Suspect
                } else if elapsed >= self.renew_at {
                    Phase::Renewal
                } else {
                    Phase::Valid
                }
            }
        };
        if self.nacked {
            natural.max(Phase::Suspect)
        } else {
            natural
        }
    }

    /// Whether new file-system requests from local processes may be
    /// admitted (phases 1–2 only). This is the *admission* half of the
    /// cache-coherence contract's phase table (`CACHING.md`); the *serve*
    /// half is [`ClientLease::cache_usable`].
    ///
    /// ```
    /// use tank_core::{ClientLease, LeaseConfig};
    /// use tank_sim::LocalNs;
    ///
    /// let mut lease = ClientLease::new(LeaseConfig::default()); // τ = 10 s
    /// lease.reset_session(LocalNs::from_secs(0), LocalNs::from_secs(0));
    ///
    /// // Phases 1–2 (valid / renewal): new operations are admitted.
    /// assert!(lease.may_admit(LocalNs::from_secs(5)));
    /// // Phase 3 (suspect — default 70% of τ): the admission gate closes.
    /// assert!(!lease.may_admit(LocalNs::from_secs(8)));
    /// ```
    pub fn may_admit(&self, now: LocalNs) -> bool {
        matches!(self.phase(now), Phase::Valid | Phase::Renewal)
    }

    /// Whether cached data may still be used (anything before expiry: in
    /// phases 3–4 in-progress operations continue against the cache).
    ///
    /// ```
    /// use tank_core::{ClientLease, LeaseConfig};
    /// use tank_sim::LocalNs;
    ///
    /// let mut lease = ClientLease::new(LeaseConfig::default()); // τ = 10 s
    /// lease.reset_session(LocalNs::from_secs(0), LocalNs::from_secs(0));
    ///
    /// // Phase 3: new ops are refused, but ops already in flight may
    /// // still finish against the cache (quiesce = drain, not drop).
    /// assert!(!lease.may_admit(LocalNs::from_secs(8)));
    /// assert!(lease.cache_usable(LocalNs::from_secs(8)));
    /// // Past τ the cache is condemned until a new session.
    /// assert!(!lease.cache_usable(LocalNs::from_secs(10)));
    /// ```
    pub fn cache_usable(&self, now: LocalNs) -> bool {
        let p = self.phase(now);
        p != Phase::Expired && p != Phase::NoLease
    }

    /// Local time at which the current lease expires.
    pub fn expiry(&self) -> Option<LocalNs> {
        if self.expired_latch {
            return None;
        }
        self.lease_start.map(|s| s.plus(self.cfg.tau))
    }

    /// The cached edge, if `now` lies before it: `Some(edge)` means no
    /// poll at `now` can act and `edge` is the next wakeup.
    fn before_edge(&self, now: LocalNs) -> Option<Option<LocalNs>> {
        let (at, edge) = self.edge?;
        (at <= now && edge.is_none_or(|e| now < e)).then_some(edge)
    }

    /// Collect edge-triggered actions at local time `now`.
    pub fn poll(&mut self, now: LocalNs) -> Vec<LeaseAction> {
        if self.before_edge(now).is_some() {
            return Vec::new();
        }
        // Prune in-flight entries whose eventual ACK could no longer grant
        // a live lease; bounds `pending` under persistent loss.
        let tau = self.cfg.tau.0;
        while self
            .pending
            .front()
            .is_some_and(|(_, t)| now.0 >= t.0.saturating_add(tau))
        {
            self.pending.pop_front();
        }

        let ph = self.phase(now);
        let mut out = Vec::new();
        if ph != self.announced {
            if ph > self.announced {
                // Walk forward through every skipped boundary so no action
                // is lost even if polls are sparse.
                if self.announced < Phase::Suspect && ph >= Phase::Suspect {
                    out.push(LeaseAction::BeginQuiesce);
                }
                if self.announced < Phase::ExpectedFailure && ph >= Phase::ExpectedFailure {
                    out.push(LeaseAction::BeginFlush);
                }
                if ph == Phase::Expired {
                    out.push(LeaseAction::LeaseExpired);
                    self.expired_latch = true;
                }
            } else if self.announced >= Phase::Suspect
                && matches!(ph, Phase::Valid | Phase::Renewal)
            {
                out.push(LeaseAction::Resume);
            }
            self.announced = ph;
            if ph != Phase::Renewal {
                self.keepalive_due = None;
            }
        }
        // Latching expiry above leaves the phase where it was.
        if ph == Phase::Renewal {
            let due = self.keepalive_due.get_or_insert(now);
            if now >= *due {
                out.push(LeaseAction::SendKeepAlive);
                self.keepalives_sent += 1;
                self.keepalive_due = Some(now.plus(self.cfg.keepalive_interval));
            }
        }
        // Until the next boundary or keep-alive the phase equals
        // `announced` and no keep-alive is due, so polls have nothing to do.
        self.edge = Some((now, self.wakeup_after(now)));
        out
    }

    /// Absolute local time of the next event the driver should poll at:
    /// the next phase boundary, or the next keep-alive, whichever is
    /// sooner. `None` when idle (no lease, or latched expired).
    pub fn next_wakeup(&self, now: LocalNs) -> Option<LocalNs> {
        match self.before_edge(now) {
            Some(edge) => edge,
            None => self.wakeup_after(now),
        }
    }

    /// [`Self::next_wakeup`] computed from the lease itself.
    fn wakeup_after(&self, now: LocalNs) -> Option<LocalNs> {
        if self.expired_latch {
            return None;
        }
        let s = self.lease_start?.0;
        let boundaries = [
            s.saturating_add(self.renew_at),
            s.saturating_add(self.suspect_at),
            s.saturating_add(self.flush_at),
            s.saturating_add(self.cfg.tau.0),
        ];
        let mut next = boundaries
            .into_iter()
            .filter(|b| *b > now.0)
            .min()
            .map(LocalNs);
        if self.phase(now) == Phase::Renewal {
            let ka = self.keepalive_due.unwrap_or(now).max(now);
            next = Some(next.map_or(ka, |n| n.min(ka)));
        }
        next
    }

    /// How many times the lease was renewed (experiments).
    pub fn renewal_count(&self) -> u64 {
        self.renewals
    }

    /// How many keep-alives phase 2 requested (experiments).
    pub fn keepalive_count(&self) -> u64 {
        self.keepalives_sent
    }

    /// Number of tracked in-flight requests (memory accounting).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        // τ = 10s, boundaries at 4s / 7s / 8.5s, keep-alive every 0.5s.
        LeaseConfig::default()
    }

    fn granted(at: LocalNs) -> ClientLease {
        let mut l = ClientLease::new(cfg());
        l.on_send(ReqSeq(1), at);
        assert!(l.on_ack(ReqSeq(1), at.plus(LocalNs::from_millis(1))));
        l
    }

    const S: u64 = 1_000_000_000;

    #[test]
    fn newborn_has_no_lease_and_admits_nothing() {
        let l = ClientLease::new(cfg());
        assert_eq!(l.phase(LocalNs(0)), Phase::NoLease);
        assert!(!l.may_admit(LocalNs(0)));
        assert!(!l.cache_usable(LocalNs(0)));
        assert_eq!(l.expiry(), None);
    }

    #[test]
    fn lease_runs_from_send_time_not_ack_time() {
        let mut l = ClientLease::new(cfg());
        l.on_send(ReqSeq(1), LocalNs(0));
        // ACK arrives 3s later; lease still expires at 10s, not 13s.
        assert!(l.on_ack(ReqSeq(1), LocalNs(3 * S)));
        assert_eq!(l.expiry(), Some(LocalNs(10 * S)));
    }

    #[test]
    fn phases_progress_through_the_four_stages() {
        let l = granted(LocalNs(0));
        assert_eq!(l.phase(LocalNs(S)), Phase::Valid);
        assert_eq!(l.phase(LocalNs(4 * S)), Phase::Renewal);
        assert_eq!(l.phase(LocalNs(7 * S)), Phase::Suspect);
        assert_eq!(l.phase(LocalNs(8_500_000_000)), Phase::ExpectedFailure);
        assert_eq!(l.phase(LocalNs(10 * S)), Phase::Expired);
    }

    #[test]
    fn admission_stops_at_suspect() {
        let l = granted(LocalNs(0));
        assert!(l.may_admit(LocalNs(S)));
        assert!(l.may_admit(LocalNs(5 * S)), "phase 2 still serves");
        assert!(!l.may_admit(LocalNs(7 * S)), "phase 3 stops admitting");
        assert!(
            l.cache_usable(LocalNs(9 * S)),
            "phase 4 may still flush from cache"
        );
        assert!(!l.cache_usable(LocalNs(10 * S)));
    }

    #[test]
    fn ack_of_newer_send_extends_ack_of_older_does_not_shrink() {
        let mut l = granted(LocalNs(0));
        l.on_send(ReqSeq(2), LocalNs(2 * S));
        l.on_send(ReqSeq(3), LocalNs(3 * S));
        // Out-of-order ACKs: newer first.
        assert!(l.on_ack(ReqSeq(3), LocalNs(3 * S + 1)));
        assert_eq!(l.expiry(), Some(LocalNs(13 * S)));
        // The older ACK must not move expiry backwards.
        assert!(l.on_ack(ReqSeq(2), LocalNs(3 * S + 2)));
        assert_eq!(l.expiry(), Some(LocalNs(13 * S)));
    }

    #[test]
    fn stale_ack_cannot_grant_an_already_over_interval() {
        let mut l = ClientLease::new(cfg());
        l.on_send(ReqSeq(1), LocalNs(0));
        // ACK arrives after the would-be lease interval already passed.
        assert!(!l.on_ack(ReqSeq(1), LocalNs(10 * S)));
        assert_eq!(l.phase(LocalNs(10 * S)), Phase::NoLease);
    }

    #[test]
    fn poll_emits_quiesce_flush_expire_in_order() {
        let mut l = granted(LocalNs(0));
        assert!(l.poll(LocalNs(S)).is_empty());
        assert_eq!(l.poll(LocalNs(7 * S)), vec![LeaseAction::BeginQuiesce]);
        assert_eq!(
            l.poll(LocalNs(8_600_000_000)),
            vec![LeaseAction::BeginFlush]
        );
        assert_eq!(l.poll(LocalNs(10 * S)), vec![LeaseAction::LeaseExpired]);
        // Latched: nothing more.
        assert!(l.poll(LocalNs(11 * S)).is_empty());
    }

    #[test]
    fn sparse_polling_does_not_lose_transitions() {
        let mut l = granted(LocalNs(0));
        // One poll far past expiry must still deliver all three actions.
        assert_eq!(
            l.poll(LocalNs(60 * S)),
            vec![
                LeaseAction::BeginQuiesce,
                LeaseAction::BeginFlush,
                LeaseAction::LeaseExpired
            ]
        );
    }

    #[test]
    fn keepalives_fire_in_renewal_at_the_configured_interval() {
        let mut l = granted(LocalNs(0));
        let mut kas = 0;
        let mut t = 4 * S;
        while t < 7 * S {
            for a in l.poll(LocalNs(t)) {
                if a == LeaseAction::SendKeepAlive {
                    kas += 1;
                }
            }
            t += 100_000_000; // poll every 100ms
        }
        // 3s window, 500ms interval → 6-7 keep-alives, not 30.
        assert!((6..=7).contains(&kas), "got {kas}");
        assert_eq!(l.keepalive_count(), kas);
    }

    #[test]
    fn renewal_during_phase2_returns_to_valid_silently() {
        let mut l = granted(LocalNs(0));
        l.poll(LocalNs(4 * S)); // enter renewal
        l.on_send(ReqSeq(2), LocalNs(5 * S));
        assert!(l.on_ack(ReqSeq(2), LocalNs(5 * S + 1000)));
        let actions = l.poll(LocalNs(5 * S + 2000));
        assert!(
            actions.is_empty(),
            "no Resume needed when service never stopped: {actions:?}"
        );
        assert_eq!(l.phase(LocalNs(5 * S + 2000)), Phase::Valid);
    }

    #[test]
    fn renewal_after_quiesce_emits_resume() {
        let mut l = granted(LocalNs(0));
        assert_eq!(l.poll(LocalNs(7 * S)), vec![LeaseAction::BeginQuiesce]);
        // An old in-flight request finally gets ACKed at 7.5s; it was sent
        // at 6s so the new lease runs to 16s.
        l.on_send(ReqSeq(2), LocalNs(6 * S));
        assert!(l.on_ack(ReqSeq(2), LocalNs(7_500_000_000)));
        assert_eq!(l.poll(LocalNs(7_600_000_000)), vec![LeaseAction::Resume]);
        assert!(l.may_admit(LocalNs(7_600_000_000)));
    }

    #[test]
    fn nack_jumps_to_suspect_and_blocks_renewal() {
        let mut l = granted(LocalNs(0));
        l.on_nack(LocalNs(S));
        assert_eq!(
            l.phase(LocalNs(S)),
            Phase::Suspect,
            "§3.3: directly to phase 3"
        );
        assert_eq!(l.poll(LocalNs(S)), vec![LeaseAction::BeginQuiesce]);
        // Later ACKs for in-flight requests must not resurrect the lease.
        l.on_send(ReqSeq(5), LocalNs(S));
        assert!(!l.on_ack(ReqSeq(5), LocalNs(S + 1000)));
        assert_eq!(l.phase(LocalNs(2 * S)), Phase::Suspect);
    }

    #[test]
    fn nacked_lease_still_walks_flush_and_expiry_boundaries() {
        let mut l = granted(LocalNs(0));
        l.on_nack(LocalNs(S));
        l.poll(LocalNs(S));
        assert_eq!(
            l.poll(LocalNs(8_600_000_000)),
            vec![LeaseAction::BeginFlush]
        );
        assert_eq!(l.poll(LocalNs(10 * S)), vec![LeaseAction::LeaseExpired]);
    }

    #[test]
    fn expiry_is_latched_against_straggler_acks() {
        let mut l = granted(LocalNs(0));
        l.on_send(ReqSeq(2), LocalNs(9_900_000_000));
        l.poll(LocalNs(10 * S)); // expire + latch
        assert!(!l.on_ack(ReqSeq(2), LocalNs(10 * S + 1000)));
        assert_eq!(l.phase(LocalNs(10 * S + 1000)), Phase::Expired);
        assert_eq!(l.expiry(), None);
    }

    #[test]
    fn reset_session_starts_fresh() {
        let mut l = granted(LocalNs(0));
        l.poll(LocalNs(10 * S)); // expired
        l.reset_session(LocalNs(12 * S), LocalNs(12 * S + 1000));
        assert_eq!(l.phase(LocalNs(12 * S + 1000)), Phase::Valid);
        assert!(l.may_admit(LocalNs(12 * S + 1000)));
        assert_eq!(l.expiry(), Some(LocalNs(22 * S)));
        // No stale Resume/Expire actions fire after reset.
        assert!(l.poll(LocalNs(13 * S)).is_empty());
    }

    #[test]
    fn next_wakeup_tracks_boundaries_and_keepalives() {
        let mut l = granted(LocalNs(0));
        assert_eq!(l.next_wakeup(LocalNs(S)), Some(LocalNs(4 * S)));
        l.poll(LocalNs(4 * S)); // keep-alive sent, next due 4.5s
        let w = l.next_wakeup(LocalNs(4 * S + 1)).unwrap();
        assert_eq!(
            w,
            LocalNs(4_500_000_000),
            "keep-alive earlier than 7s boundary"
        );
        let mut l2 = ClientLease::new(cfg());
        assert_eq!(l2.next_wakeup(LocalNs(0)), None);
        l2.on_send(ReqSeq(1), LocalNs(0));
        l2.on_ack(ReqSeq(1), LocalNs(1));
        l2.poll(LocalNs(10 * S));
        assert_eq!(
            l2.next_wakeup(LocalNs(10 * S)),
            None,
            "latched expired sleeps forever"
        );
    }

    #[test]
    fn pending_map_is_pruned() {
        let mut l = granted(LocalNs(0));
        for i in 10..100 {
            l.on_send(ReqSeq(i), LocalNs(0)); // none ever ACKed
        }
        assert_eq!(l.pending_len(), 90);
        l.poll(LocalNs(10 * S));
        assert_eq!(l.pending_len(), 0, "entries past their own τ are dropped");
    }

    #[test]
    fn renewal_counter_counts_extensions_only() {
        let mut l = granted(LocalNs(0));
        assert_eq!(l.renewal_count(), 1);
        l.on_send(ReqSeq(2), LocalNs(S));
        l.on_send(ReqSeq(3), LocalNs(2 * S));
        l.on_ack(ReqSeq(3), LocalNs(2 * S + 1));
        l.on_ack(ReqSeq(2), LocalNs(2 * S + 2)); // older; no extension
        assert_eq!(l.renewal_count(), 2);
    }
}
