//! E13 — the observability scoreboard: one partition run, fully
//! instrumented.
//!
//! Three clients work a shared namespace; C0 loses the control network
//! from 4s to 20s while holding dirty state, so the run exercises the
//! whole lease lifecycle: opportunistic renewals, the four-phase descent,
//! server-side condemnation, fence, steal, and the post-heal re-hello
//! (whose stale session draws a NACK). The scoreboard prints what the
//! obs layer measured: the renewal-headroom distribution (Theorem 3.1's
//! observed slack), NACKs broken down by reason, and every steal's
//! latency against the τ_s(1+ε) bound.
//!
//! Asserted: every steal latency is ≤ τ_s(1+ε), and the obs counters
//! cross-check clean against the checker's event stream.

use std::sync::Arc;

use tank_cluster::table::Table;
use tank_cluster::workload::UniformGen;
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_obs::{format_ns, HistogramSnap, Registry};
use tank_sim::{LocalNs, SimTime};

/// Render a histogram's non-empty buckets as `≤bound  count  bar` rows.
fn bucket_table(h: &HistogramSnap) -> Table {
    let mut t = Table::new(&["bucket", "count", ""]);
    let total = h.count.max(1);
    for (i, &c) in h.counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let label = match h.bounds.get(i) {
            Some(&b) if h.unit == "ns" => format!("≤ {}", format_ns(b)),
            Some(&b) => format!("≤ {b}"),
            None => "overflow".into(),
        };
        let bar = "#".repeat(((c * 40).div_ceil(total)) as usize);
        t.row(vec![label, c.to_string(), bar]);
    }
    t
}

fn main() {
    let registry = Arc::new(Registry::new());
    let mut cfg = ClusterConfig::default();
    cfg.clients = 3;
    cfg.files = 4;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.record_trace = true;
    cfg.obs = Some(registry.clone());
    let bound = cfg.lease.server_timeout().0;
    let mut cluster = Cluster::build(cfg, 42);
    for i in 0..3 {
        cluster.attach_workload(i, Box::new(UniformGen::default_for(4)));
    }
    cluster.isolate_control(0, SimTime::from_secs(4), Some(SimTime::from_secs(20)));
    cluster.run_until(SimTime::from_secs(30));
    cluster.settle();
    let report = cluster.finish();
    let snap = registry.snapshot();

    println!("E13 — observability scoreboard (τ=2s, ε=0.01, C0 partitioned 4s→20s)");
    println!();

    let headroom = snap.histogram("client.renewal_headroom_ns").unwrap();
    println!(
        "renewal headroom at ACK (lease left on the old grant): n={} min={} mean={} max={}",
        headroom.count,
        headroom.min.map_or("-".into(), format_ns),
        format_ns(headroom.mean() as u64),
        headroom.max.map_or("-".into(), format_ns),
    );
    print!("{}", bucket_table(headroom).render());
    println!();

    let mut nacks = Table::new(&["NACK reason", "count"]);
    for (label, name) in [
        ("LeaseTimingOut", "server.nack.lease_timing_out"),
        ("SessionExpired", "server.nack.session_expired"),
        ("StaleSession", "server.nack.stale_session"),
        ("Recovering", "server.nack.recovering"),
    ] {
        nacks.row(vec![
            label.into(),
            snap.counter(name).unwrap_or(0).to_string(),
        ]);
    }
    print!("{}", nacks.render());
    println!();

    let steal = snap.histogram("server.steal_latency_ns").unwrap();
    assert!(
        steal.max.is_none_or(|m| m <= bound),
        "steal latency {:?} exceeds τ_s(1+ε) = {bound}",
        steal.max
    );
    println!(
        "steal latency (condemn armed → fired): n={} max={} ≤ τ_s(1+ε)={}",
        steal.count,
        steal.max.map_or("-".into(), format_ns),
        format_ns(bound),
    );
    println!(
        "steals={} locks stolen={} fences={} condemn armed={} fired={}",
        snap.counter("server.steals").unwrap_or(0),
        snap.counter("server.lock.stolen").unwrap_or(0),
        snap.counter("server.fences").unwrap_or(0),
        snap.counter("server.condemn.armed").unwrap_or(0),
        snap.counter("server.condemn.fired").unwrap_or(0),
    );
    println!();

    let mut traffic = Table::new(&["layer", "metric", "value"]);
    for (layer, metric) in [
        ("sim", "sim.msg.sent"),
        ("sim", "sim.msg.delivered"),
        ("sim", "sim.msg.blocked"),
        ("client", "client.renewals"),
        ("client", "client.retransmits"),
        ("server", "server.lock.granted"),
        ("server", "server.demands_sent"),
        ("server", "server.delivery_errors"),
        ("server", "server.sessions"),
    ] {
        traffic.row(vec![
            layer.into(),
            metric.into(),
            snap.counter(metric).unwrap_or(0).to_string(),
        ]);
    }
    print!("{}", traffic.render());
    println!();

    let mismatches = cluster.cross_check();
    assert!(mismatches.is_empty(), "cross-check: {mismatches:#?}");
    println!("cross-check: obs counters agree with the checker event stream");
    println!(
        "safety: {} (ops ok={}, lost={}, stale={}, order-viol={})",
        if report.check.safe() {
            "SAFE"
        } else {
            "VIOLATED"
        },
        report.check.ops_ok,
        report.check.lost_updates.len(),
        report.check.stale_reads.len(),
        report.check.write_order_violations.len(),
    );
    println!(
        "trace: {} events recorded ({} dropped), e.g.:",
        registry.trace_events().len(),
        registry.trace_dropped(),
    );
    // A short excerpt around the condemnation, the run's pivotal moment.
    let events = registry.trace_events();
    if let Some(i) = events.iter().position(|e| e.kind == "condemned") {
        for e in events.iter().take(i + 3).skip(i.saturating_sub(3)) {
            println!(
                "  [{:>12}] {:<6} {:<14} {}",
                format_ns(e.t),
                e.actor,
                e.kind,
                e.detail
            );
        }
    }
}
