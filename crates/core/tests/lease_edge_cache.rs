//! The lease machine with its cached edge against one that recomputes on
//! every call: over random sends, ACKs (in and out of order, unknown and
//! late), NACKs, session resets, polls and wake-up queries at
//! non-decreasing local times, both must emit the same actions, name the
//! same wake-up and agree on every read-only query.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tank_core::{ClientLease, LeaseAction, LeaseConfig, Phase};
use tank_proto::ReqSeq;
use tank_sim::LocalNs;

/// The machine as it was before the edge cache: `pending` in a hash map,
/// every poll prunes it and recomputes the phase, every wake-up query
/// recomputes the boundaries.
struct Recompute {
    cfg: LeaseConfig,
    lease_start: Option<LocalNs>,
    pending: HashMap<ReqSeq, LocalNs>,
    nacked: bool,
    expired_latch: bool,
    announced: Phase,
    keepalive_due: Option<LocalNs>,
    renewals: u64,
    keepalives_sent: u64,
}

impl Recompute {
    fn new(cfg: LeaseConfig) -> Self {
        Recompute {
            cfg,
            lease_start: None,
            pending: HashMap::new(),
            nacked: false,
            expired_latch: false,
            announced: Phase::NoLease,
            keepalive_due: None,
            renewals: 0,
            keepalives_sent: 0,
        }
    }

    fn on_send(&mut self, seq: ReqSeq, now: LocalNs) {
        self.pending.insert(seq, now);
    }

    fn on_ack(&mut self, seq: ReqSeq, now: LocalNs) -> bool {
        let Some(t_c1) = self.pending.remove(&seq) else {
            return false;
        };
        if self.expired_latch || self.nacked {
            return false;
        }
        if now.0 >= t_c1.0.saturating_add(self.cfg.tau.0) {
            return false;
        }
        if self.lease_start.is_none_or(|s| t_c1 > s) {
            self.lease_start = Some(t_c1);
            self.renewals += 1;
        }
        true
    }

    fn on_nack(&mut self) {
        self.nacked = true;
    }

    fn reset_session(&mut self, hello_sent_at: LocalNs, now: LocalNs) {
        self.pending.clear();
        self.nacked = false;
        self.expired_latch = false;
        self.lease_start = Some(hello_sent_at);
        self.keepalive_due = None;
        self.announced = self.phase(now);
    }

    fn phase(&self, now: LocalNs) -> Phase {
        if self.expired_latch {
            return Phase::Expired;
        }
        let natural = match self.lease_start {
            None => Phase::NoLease,
            Some(s) => {
                let elapsed = now.0.saturating_sub(s.0);
                if elapsed >= self.cfg.tau.0 {
                    Phase::Expired
                } else if elapsed >= self.cfg.flush_offset().0 {
                    Phase::ExpectedFailure
                } else if elapsed >= self.cfg.suspect_offset().0 {
                    Phase::Suspect
                } else if elapsed >= self.cfg.renew_offset().0 {
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

    fn expiry(&self) -> Option<LocalNs> {
        if self.expired_latch {
            return None;
        }
        self.lease_start.map(|s| s.plus(self.cfg.tau))
    }

    fn poll(&mut self, now: LocalNs) -> Vec<LeaseAction> {
        let tau = self.cfg.tau.0;
        self.pending.retain(|_, t| now.0 < t.0.saturating_add(tau));
        let ph = self.phase(now);
        let mut out = Vec::new();
        if ph != self.announced {
            if ph > self.announced {
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
        if self.phase(now) == Phase::Renewal {
            let due = self.keepalive_due.get_or_insert(now);
            if now >= *due {
                out.push(LeaseAction::SendKeepAlive);
                self.keepalives_sent += 1;
                self.keepalive_due = Some(now.plus(self.cfg.keepalive_interval));
            }
        }
        out
    }

    fn next_wakeup(&self, now: LocalNs) -> Option<LocalNs> {
        if self.expired_latch {
            return None;
        }
        let s = self.lease_start?;
        let boundaries = [
            s.plus(self.cfg.renew_offset()),
            s.plus(self.cfg.suspect_offset()),
            s.plus(self.cfg.flush_offset()),
            s.plus(self.cfg.tau),
        ];
        let mut next = boundaries.into_iter().filter(|b| *b > now).min();
        if self.phase(now) == Phase::Renewal {
            let ka = self.keepalive_due.unwrap_or(now).max(now);
            next = Some(next.map_or(ka, |n| n.min(ka)));
        }
        next
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// `steps` random calls on both machines, τ = 2 s. Time moves by
/// nothing, a little (most steps, as between two activations), up to a
/// phase, or past τ.
fn drive(seed: u64, steps: usize) -> Result<(), TestCaseError> {
    let cfg = LeaseConfig::with_tau(LocalNs::from_secs(2));
    let tau = cfg.tau.0;
    let mut rng = Rng(seed | 1);
    let mut cached = ClientLease::new(cfg);
    let mut model = Recompute::new(cfg);
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut sent: Vec<(ReqSeq, u64)> = Vec::new();
    for step in 0..steps {
        now += match rng.below(20) {
            0..=3 => 0,
            4..=14 => rng.below(tau / 50),
            15..=18 => rng.below(tau / 3),
            _ => rng.below(2 * tau),
        };
        let t = LocalNs(now);
        match rng.below(100) {
            0..=29 => {
                seq += 1;
                cached.on_send(ReqSeq(seq), t);
                model.on_send(ReqSeq(seq), t);
                sent.push((ReqSeq(seq), now));
            }
            30..=54 if !sent.is_empty() => {
                // Mostly the oldest; sometimes any, so ACKs reorder.
                let i = if rng.below(4) == 0 {
                    rng.below(sent.len() as u64) as usize
                } else {
                    0
                };
                let (s, _) = sent.remove(i);
                prop_assert_eq!(cached.on_ack(s, t), model.on_ack(s, t), "step {}", step);
            }
            55..=57 => {
                // An ACK for a seq never sent, or already answered.
                let s = ReqSeq(rng.below(seq + 2));
                if !sent.iter().any(|(x, _)| *x == s) {
                    prop_assert_eq!(cached.on_ack(s, t), model.on_ack(s, t), "step {}", step);
                }
            }
            58..=61 => {
                cached.on_nack(t);
                model.on_nack();
            }
            62..=65 => {
                // The acknowledged Hello was sent a while ago.
                let hello = LocalNs(now.saturating_sub(rng.below(tau + tau / 4)));
                cached.reset_session(hello, t);
                model.reset_session(hello, t);
                sent.clear();
            }
            66..=79 => {
                prop_assert_eq!(cached.next_wakeup(t), model.next_wakeup(t), "step {}", step);
            }
            _ => {}
        }
        prop_assert_eq!(cached.poll(t), model.poll(t), "poll at step {}", step);
        prop_assert_eq!(cached.next_wakeup(t), model.next_wakeup(t), "step {}", step);
        prop_assert_eq!(cached.phase(t), model.phase(t), "step {}", step);
        prop_assert_eq!(cached.expiry(), model.expiry(), "step {}", step);
        prop_assert_eq!(cached.renewal_count(), model.renewals);
        prop_assert_eq!(cached.keepalive_count(), model.keepalives_sent);
        // A second poll at the same instant, as the client node does after a
        // renewing ACK inside one activation.
        if rng.below(3) == 0 {
            prop_assert_eq!(cached.poll(t), model.poll(t), "re-poll at step {}", step);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn the_cached_edge_agrees_with_recomputing(seed in any::<u64>()) {
        drive(seed, 2_000)?;
    }
}

#[test]
fn a_nack_inside_the_valid_phase_quiesces_at_the_next_poll() {
    // The edge cached by the poll before the NACK lies at the renewal
    // boundary; the NACK must not wait for it.
    let cfg = LeaseConfig::with_tau(LocalNs::from_secs(2));
    let mut l = ClientLease::new(cfg);
    l.on_send(ReqSeq(1), LocalNs(0));
    assert!(l.on_ack(ReqSeq(1), LocalNs(1)));
    assert!(l.poll(LocalNs(10)).is_empty());
    assert_eq!(l.next_wakeup(LocalNs(10)), Some(cfg.renew_offset()));
    l.on_nack(LocalNs(20));
    assert_eq!(l.poll(LocalNs(30)), vec![LeaseAction::BeginQuiesce]);
    assert_eq!(l.next_wakeup(LocalNs(30)), Some(cfg.renew_offset()));
}
