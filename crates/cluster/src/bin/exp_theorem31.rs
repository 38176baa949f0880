//! E1 — Figure 3 / Theorem 3.1: lease-timing safety margin vs clock skew.
//!
//! Two parts:
//!
//! 1. **Analytic sweep** over ε with worst-case legal clock rates (client
//!    slowest, server fastest): the margin between the server's earliest
//!    steal and the client's lease expiry, plus a negative control that
//!    violates the ε contract.
//! 2. **Simulated verification**: a full-stack partition run per ε with
//!    adversarially skewed clocks; the true-time gap between the isolated
//!    client's own cache invalidation and the server's lock steal must
//!    never be negative.
//!
//! Asserted: the margin is ≥ 0 under every legal ε, every violated-ε
//! control is unsafe, and every simulated gap is ≥ 0.

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::table::{f, Table};
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::Event;
use tank_core::{legal_rate_range, LeaseConfig, TimingScenario};
use tank_server::RecoveryPolicy;
use tank_sim::{ClockSpec, LocalNs, SimTime};

const TAU_S: f64 = 2.0;

fn analytic_table() {
    println!("E1a — analytic worst-case margin, τ = {TAU_S}s, error detected at ACK time");
    let mut t = Table::new(&[
        "epsilon",
        "client_rate",
        "server_rate",
        "margin_ms",
        "violated-eps margin_ms",
    ]);
    for eps in [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1] {
        let (lo, hi) = legal_rate_range(eps);
        let s = TimingScenario::earliest(lo, hi, 0.0, 0.0, TAU_S * 1e9, eps);
        // Negative control: server clock 2ε+1% beyond contract.
        let bad_ratio = (1.0 + eps) * (1.0 + 2.0 * eps + 0.01);
        let bad = TimingScenario::earliest(1.0, bad_ratio, 0.0, 0.0, TAU_S * 1e9, eps);
        // Boundary rates make the analytic margin exactly zero; allow 1µs
        // of floating-point slop.
        assert!(s.margin() >= -1e3, "ε={eps}: margin {} ns", s.margin());
        assert!(!bad.safe(), "ε={eps}: the violated-ε control came out safe");
        t.row(vec![
            format!("{eps}"),
            f(lo),
            f(hi),
            f(s.margin() / 1e6),
            f(bad.margin() / 1e6),
        ]);
    }
    print!("{}", t.render());
}

/// One simulated partition run with client slowest / server fastest legal
/// clocks; returns (client-invalidate time, steal time) in true seconds.
fn simulated_gap(eps: f64, seed: u64) -> Option<(f64, f64)> {
    // Adversarial clocks: isolated client as slow as allowed (its τ lasts
    // longest in true time), server as fast as allowed (τ(1+ε) shortest).
    let (lo, hi) = legal_rate_range(eps);
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = 512;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = eps;
    cfg.policy = RecoveryPolicy::LeaseFence;
    cfg.skew_clocks = false;
    let mut cluster = Cluster::build_with_clocks(cfg, seed, &mut |role| match role {
        tank_cluster::build::NodeRole::Server(_) => ClockSpec {
            rate: hi,
            offset_ns: 17,
        },
        tank_cluster::build::NodeRole::Client(0) => ClockSpec {
            rate: lo,
            offset_ns: 911,
        },
        _ => ClockSpec::ideal(),
    });
    let c0 = Script::new().at(
        LocalNs::from_millis(500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![1; 512],
        },
    );
    let c1 = Script::new().at(
        LocalNs::from_millis(1_500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![2; 512],
        },
    );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control(0, SimTime::from_millis(1_000), None);
    cluster.run_until(SimTime::from_secs(20));
    let evs = cluster.world.observations();
    let c0id = cluster.clients[0];
    let t_inval = evs
        .iter()
        .find(|(_, n, e)| *n == c0id && matches!(e, Event::CacheInvalidated { .. }))
        .map(|(t, _, _)| t.as_secs_f64())?;
    let t_steal = evs
        .iter()
        .find(|(_, _, e)| matches!(e, Event::LockStolen { client, .. } if *client == c0id))
        .map(|(t, _, _)| t.as_secs_f64())?;
    Some((t_inval, t_steal))
}

fn main() {
    analytic_table();
    println!();
    println!("E1b — simulated gap (steal − client-invalidate) under adversarial legal clocks");
    let mut t = Table::new(&["epsilon", "client_dead_s", "steal_s", "gap_ms"]);
    for eps in [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1] {
        let (dead, steal) = simulated_gap(eps, 42)
            .unwrap_or_else(|| panic!("ε={eps}: the client never invalidated or was never stolen"));
        let gap_ms = (steal - dead) * 1e3;
        assert!(gap_ms >= 0.0, "ε={eps}: server stole {gap_ms} ms early");
        t.row(vec![format!("{eps}"), f(dead), f(steal), f(gap_ms)]);
    }
    print!("{}", t.render());
}
