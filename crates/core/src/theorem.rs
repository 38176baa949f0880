//! Theorem 3.1 as an executable timing model.
//!
//! > **Theorem 3.1.** If a client and server have rate synchronized clocks
//! > by a factor of ε, the server cannot steal locks before the client
//! > lease expires.
//!
//! The proof rests on two facts: message ordering gives `t_C1 ≤ t_S2`
//! (the client sent the message before the server ACKed it), and rate
//! synchronization gives `τ_c < τ_s(1+ε)` (τ counted on the client's clock
//! is a shorter true interval than τ(1+ε) counted on the server's clock).
//!
//! [`TimingScenario`] evaluates both sides in true time for arbitrary
//! clock rates, so property tests can sweep the legal rate space (margin
//! never negative) and the illegal space (negative control: margins go
//! negative once the pairwise bound is violated), and experiment E1 can
//! chart the safety margin as a function of ε.

use serde::Serialize;

/// One concrete timing of Figure 3: a client obtains a lease from a
/// message sent at `t_C1` (true time) that the server acknowledged at
/// `t_S2 ≥ t_C1`; later the server observes a delivery error at
/// `error_at ≥ t_S2` and arms its τ(1+ε) timer.
///
/// Rates are relative to true time. The paper's ε bounds the *pairwise*
/// ratio: the scenario is within contract iff
/// `max(rc, rs) / min(rc, rs) ≤ 1 + ε`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TimingScenario {
    /// Client clock rate (local ticks per true tick).
    pub client_rate: f64,
    /// Server clock rate.
    pub server_rate: f64,
    /// True time at which the client sent the lease-granting message.
    pub t_c1: f64,
    /// True time at which the server acknowledged it (`≥ t_c1`).
    pub t_s2: f64,
    /// True time at which the server detects a delivery error and starts
    /// its timer (`≥ t_s2`; the paper's earliest case is `= t_s2`).
    pub error_at: f64,
    /// Lease period τ in local nanoseconds (same contract constant on both
    /// machines).
    pub tau_ns: f64,
    /// The contractual rate bound ε.
    pub epsilon: f64,
}

impl TimingScenario {
    /// Earliest-steal variant: the server's delivery error coincides with
    /// the ACK it just sent (`error_at = t_s2`), which is the adversarial
    /// case the proof covers.
    pub fn earliest(
        client_rate: f64,
        server_rate: f64,
        t_c1: f64,
        t_s2: f64,
        tau_ns: f64,
        epsilon: f64,
    ) -> Self {
        TimingScenario {
            client_rate,
            server_rate,
            t_c1,
            t_s2,
            error_at: t_s2,
            tau_ns,
            epsilon,
        }
    }

    /// True time at which the client's lease `[t_C1, t_C1 + τ)` expires:
    /// τ client-local ticks take `τ / client_rate` true time.
    pub fn client_expiry_true(&self) -> f64 {
        self.t_c1 + self.tau_ns / self.client_rate
    }

    /// Earliest true time at which the server steals the locks: τ(1+ε)
    /// server-local ticks after the error.
    pub fn steal_true(&self) -> f64 {
        self.error_at + self.tau_ns * (1.0 + self.epsilon) / self.server_rate
    }

    /// Safety margin in true nanoseconds: steal time minus client expiry.
    /// Theorem 3.1 says this is non-negative whenever the scenario is
    /// within contract.
    pub fn margin(&self) -> f64 {
        self.steal_true() - self.client_expiry_true()
    }

    /// Whether the server steals only after the client's lease expired.
    pub fn safe(&self) -> bool {
        self.margin() >= 0.0
    }

    /// Whether the clock rates respect the pairwise ε bound (the theorem's
    /// hypothesis).
    pub fn within_contract(&self) -> bool {
        let (lo, hi) = if self.client_rate <= self.server_rate {
            (self.client_rate, self.server_rate)
        } else {
            (self.server_rate, self.client_rate)
        };
        // The 1e-12 relative slack absorbs floating-point error when rates
        // are constructed from sqrt(1+ε) and sit exactly on the boundary.
        self.t_c1 <= self.t_s2
            && self.t_s2 <= self.error_at
            && hi / lo <= (1.0 + self.epsilon) * (1.0 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::legal_rate_range;
    use proptest::prelude::*;

    const TAU: f64 = 10e9; // 10s in ns

    #[test]
    fn ideal_clocks_have_margin_tau_epsilon_plus_delay() {
        // rc = rs = 1, error at ACK: margin = (t_s2 - t_c1) + τ·ε.
        let s = TimingScenario::earliest(1.0, 1.0, 0.0, 1e6, TAU, 0.01);
        assert!(s.within_contract());
        assert!((s.margin() - (1e6 + TAU * 0.01)).abs() < 1.0);
        assert!(s.safe());
    }

    #[test]
    fn worst_case_legal_rates_still_safe() {
        // Client as slow as allowed, server as fast as allowed: the margin
        // shrinks to exactly the message delay.
        let eps = 0.05;
        let (lo, hi) = legal_rate_range(eps);
        let s = TimingScenario::earliest(lo, hi, 0.0, 0.0, TAU, eps);
        assert!(s.within_contract());
        // Exactly at the contract boundary the margin is analytically zero;
        // allow sub-microsecond floating-point slop either way.
        assert!(
            s.margin().abs() < 1e3,
            "boundary case has ~zero margin: {}",
            s.margin()
        );
    }

    #[test]
    fn violated_contract_can_be_unsafe() {
        // Server clock 20% fast vs client with ε = 1%: steal fires early.
        let s = TimingScenario::earliest(1.0, 1.2, 0.0, 0.0, TAU, 0.01);
        assert!(!s.within_contract());
        assert!(!s.safe(), "negative control must violate safety");
    }

    #[test]
    fn later_error_detection_only_adds_margin() {
        let eps = 0.01;
        let (lo, hi) = legal_rate_range(eps);
        let early = TimingScenario::earliest(lo, hi, 0.0, 0.0, TAU, eps);
        let late = TimingScenario {
            error_at: 5e9,
            ..early
        };
        assert!(late.margin() > early.margin());
    }

    proptest! {
        /// Theorem 3.1, property form: every within-contract scenario is
        /// safe.
        #[test]
        fn theorem_3_1_holds_across_legal_rate_space(
            eps in 0.0f64..0.2,
            rc_unit in 0.0f64..=1.0,
            rs_unit in 0.0f64..=1.0,
            delay_ns in 0.0f64..1e9,
            error_extra in 0.0f64..20e9,
            tau_ns in 1e6f64..60e9,
        ) {
            let (lo, hi) = legal_rate_range(eps);
            let rc = lo + rc_unit * (hi - lo);
            let rs = lo + rs_unit * (hi - lo);
            let s = TimingScenario {
                client_rate: rc,
                server_rate: rs,
                t_c1: 0.0,
                t_s2: delay_ns,
                error_at: delay_ns + error_extra,
                tau_ns,
                epsilon: eps,
            };
            prop_assert!(s.within_contract());
            // Tolerate only sub-nanosecond floating point slop at the
            // exact boundary.
            prop_assert!(s.margin() >= -1e-3, "margin {}", s.margin());
        }

        /// Negative control: with simultaneous send/ack and rates beyond
        /// the bound, safety fails — i.e. the ε hypothesis is necessary.
        #[test]
        fn violating_epsilon_breaks_safety(
            eps in 0.0f64..0.1,
            excess in 0.01f64..0.5,
            tau_ns in 1e9f64..60e9,
        ) {
            // Server faster than client by more than 1+ε.
            let ratio = (1.0 + eps) * (1.0 + excess);
            let s = TimingScenario::earliest(1.0, ratio, 0.0, 0.0, tau_ns, eps);
            prop_assert!(!s.within_contract());
            prop_assert!(!s.safe(), "margin {}", s.margin());
        }

        /// Negative control for the timer's anchor: the server counts
        /// τ(1+ε) from the last ACK it sent (`error_at = t_s2`, the
        /// earliest case above). Count from any earlier and some legal
        /// clock pair — client slowest, server fastest, no message delay —
        /// has the steal land inside the lease that ACK granted.
        #[test]
        fn an_anchor_before_the_last_ack_breaks_safety(
            eps in 0.0f64..0.2,
            early_ns in 1.0f64..5e9,
            t_s2 in 5e9f64..50e9,
            tau_ns in 1e6f64..60e9,
        ) {
            let (lo, hi) = legal_rate_range(eps);
            let at_ack = TimingScenario::earliest(lo, hi, t_s2, t_s2, tau_ns, eps);
            prop_assert!(at_ack.within_contract());
            prop_assert!(at_ack.margin() >= -1e-3, "margin {}", at_ack.margin());
            let before_ack = TimingScenario { error_at: t_s2 - early_ns, ..at_ack };
            prop_assert!(!before_ack.within_contract());
            prop_assert!(!before_ack.safe(), "margin {}", before_ack.margin());
        }

        /// The dual worst case (client fast, server slow) is harmless:
        /// the client merely expires early. Safety never depends on which
        /// side is fast.
        #[test]
        fn fast_client_is_always_safe(
            eps in 0.0f64..0.1,
            excess in 0.0f64..0.5,
            tau_ns in 1e9f64..60e9,
        ) {
            let ratio = (1.0 + eps) * (1.0 + excess);
            let s = TimingScenario::earliest(ratio, 1.0, 0.0, 0.0, tau_ns, eps);
            prop_assert!(s.safe());
        }
    }
}
