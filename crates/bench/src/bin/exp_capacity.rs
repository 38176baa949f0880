//! E19 — open-loop capacity sweep: find the real throughput ceiling.
//!
//! The event-driven net server (DESIGN.md §15) claims its
//! run-to-completion reactor is not the bottleneck — the modeled
//! metadata device is. This experiment proves it the only honest way:
//! offered load is swept *open-loop* (arrivals on a fixed schedule,
//! zipf-popular keys, no retransmission, thousands of concurrent net
//! clients) past saturation at 1, 4 and 8 shards, and goodput vs.
//! offered load locates the knee.
//!
//! **Modeled service time.** The CI host is a single core, where eight
//! shard servers cannot scale on raw compute — and a metadata server's
//! real constraint is its metadata device, not cycles. Each server
//! therefore sleeps `SERVICE` per metadata transaction (KeepAlive
//! excluded) on its one reactor thread: shard capacity ≈ 1/SERVICE
//! req/s. Sleeps overlap across shard processes exactly as independent
//! devices do, so the sweep honestly answers "does sharding raise the
//! ceiling?" — on one core or thirty-two. EXPERIMENTS.md §E19 discusses
//! the regime.
//!
//! Per shard count the ladder spans 0.2×–2.0× the nominal capacity; the
//! knee is the highest offered rate whose goodput stays within 90% of
//! offered, and the ceiling is the best measured goodput. Between rate
//! points the driver drains the server backlog so each point starts
//! clean.
//!
//! Safety is validated sim-side (the net stack shares the protocol
//! cores): for every swept shard count, a seeded sim cluster runs the
//! same zipf workload through the offline checker and the
//! happens-before auditor — zero violations, zero racy pairs.
//!
//! Acceptance built into the binary:
//! * at every shard count the lightest point's goodput reaches ≥80% of
//!   offered (the harness itself keeps up);
//! * the 8-shard measured ceiling is strictly above the 1-shard one;
//! * zero NACKs across the sweep, zero checker/hb violations sim-side.
//!
//! Emitted as `BENCH_capacity.json`. `--smoke` shrinks clients,
//! durations and the ladder for CI; assertions are identical except the
//! smoke sweep covers {1, 8} shards.

use std::sync::Arc;
use std::time::Duration;

use tank_bench::openloop::{Fleet, OpenLoopConfig};
use tank_cluster::table::{f, Table};
use tank_cluster::workload::{Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_net::server::{LeaseServer, NetServerConfig, ServerHandle};
use tank_obs::{names, Registry};
use tank_sim::{LocalNs, SimTime};

/// Modeled per-metadata-transaction device time (see module doc).
const SERVICE: Duration = Duration::from_micros(400);
/// Nominal per-shard capacity implied by `SERVICE`.
const SHARD_CAP: u64 = 2_500;
/// Zipf exponent for key popularity.
const ALPHA: f64 = 1.0;

struct SweepShape {
    clients: usize,
    files: usize,
    shard_counts: Vec<usize>,
    /// Ladder as fractions of the shard count's nominal capacity.
    ladder: Vec<f64>,
    duration: Duration,
    drain: Duration,
    seeds: u64,
    sim_secs: u64,
}

fn shape(smoke: bool) -> SweepShape {
    if smoke {
        SweepShape {
            clients: 200,
            files: 64,
            shard_counts: vec![1, 8],
            ladder: vec![0.4, 0.8, 1.6],
            duration: Duration::from_secs(1),
            drain: Duration::from_millis(500),
            seeds: 1,
            sim_secs: 2,
        }
    } else {
        SweepShape {
            clients: 10_000,
            files: 512,
            shard_counts: vec![1, 4, 8],
            ladder: vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0],
            duration: Duration::from_secs(3),
            drain: Duration::from_secs(1),
            seeds: 1,
            sim_secs: 4,
        }
    }
}

fn server_cfg() -> NetServerConfig {
    let mut cfg = NetServerConfig::default();
    // τ = 120 s: sessions outlive the whole sweep without keep-alives,
    // so lease traffic never competes with the offered load.
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(120));
    cfg.service = SERVICE;
    // Ask for a deep kernel backlog; rmem_max may clamp it, and the
    // open-loop protocol treats any overflow as wire loss.
    cfg.recv_buf = Some(8 << 20);
    cfg
}

/// One measured rate point.
struct Point {
    offered: u64,
    sent: u64,
    completed: u64,
    goodput: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

/// Drain leftover backlog replies after a saturated point so the next
/// point starts against idle servers: keep collecting until a quiet
/// interval sees nothing.
fn flush_backlog(fleet: &mut Fleet) {
    fleet.drain_until_quiet(Duration::from_millis(400), Duration::from_secs(60));
}

fn violation_count(check: &tank_consistency::CheckReport) -> usize {
    check.lost_updates.len()
        + check.stale_reads.len()
        + check.write_order_violations.len()
        + check.early_grants.len()
        + check.cross_shard.len()
        + check.batch_atomicity.len()
        + check.coherence.len()
}

/// Sim-side safety battery for one shard count: same zipf popularity,
/// full checker + happens-before audit. Returns (checker violations,
/// racy pairs).
fn sim_battery(shards: usize, files: usize, seeds: u64, secs: u64) -> (usize, usize) {
    let mut violations = 0usize;
    let mut racy = 0usize;
    for seed in 0..seeds {
        let mut cfg = ClusterConfig::default();
        cfg.shards = shards as u16;
        cfg.clients = 4;
        cfg.files = files.min(64);
        cfg.file_blocks = 4;
        cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
        cfg.lease.epsilon = 0.01;
        cfg.gen_concurrency = 2;
        cfg.record_hb = true;
        let mut cluster = Cluster::build(cfg, seed);
        for i in 0..4 {
            cluster.attach_workload(
                i,
                Box::new(ZipfGen::new(files.min(64), ALPHA, Mix::default())),
            );
        }
        cluster.run_until(SimTime::from_secs(secs));
        cluster.settle();
        let hb = cluster.hb_audit();
        if !hb.racy.is_empty() {
            eprintln!("hb audit at {shards} shards, seed {seed}:\n{}", hb.render());
        }
        racy += hb.racy.len();
        let report = cluster.finish();
        violations += violation_count(&report.check);
    }
    (violations, racy)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sh = shape(smoke);
    println!("E19 — open-loop capacity sweep (event-driven net server)");
    println!(
        "({} clients, {} files, zipf α={ALPHA}, service {}µs ⇒ ~{SHARD_CAP} req/s per shard{})",
        sh.clients,
        sh.files,
        SERVICE.as_micros(),
        if smoke { ", --smoke" } else { "" }
    );

    let mut t = Table::new(&[
        "shards",
        "offered/s",
        "sent",
        "completed",
        "goodput/s",
        "p50 ms",
        "p99 ms",
        "p999 ms",
    ]);
    let mut bench = String::from("{\n  \"bench\": \"open_loop_capacity\",\n  \"sweeps\": [\n");
    let mut ceilings: Vec<(usize, f64, u64)> = Vec::new(); // (shards, ceiling, knee)
    let mut total_nacks = 0u64;

    for (si, &shards) in sh.shard_counts.iter().enumerate() {
        // Fresh servers + fleet per shard count.
        let registry = Arc::new(Registry::new());
        let handles: Vec<ServerHandle> = (0..shards)
            .map(|_| {
                LeaseServer::spawn_observed("127.0.0.1:0", server_cfg(), Some(&registry))
                    .expect("spawn shard server")
            })
            .collect();
        let addrs: Vec<_> = handles.iter().map(|h| h.addr).collect();
        let mut fleet = Fleet::new(&addrs, sh.clients, sh.files).expect("fleet setup");

        let nominal = SHARD_CAP * shards as u64;
        let mut points: Vec<Point> = Vec::new();
        for &frac in &sh.ladder {
            let rate = ((nominal as f64 * frac) as u64).max(100);
            let cfg = OpenLoopConfig {
                clients: sh.clients,
                files: sh.files,
                alpha: ALPHA,
                rate,
                duration: sh.duration,
                drain: sh.drain,
                seed: 19,
            };
            let point_reg = Registry::new();
            let res = fleet.run(&cfg, &point_reg).expect("open-loop run");
            total_nacks += res.nacked;
            let goodput = res.completed as f64 / sh.duration.as_secs_f64();
            t.row(vec![
                shards.to_string(),
                rate.to_string(),
                res.sent.to_string(),
                res.completed.to_string(),
                f(goodput),
                f(res.p50_ns as f64 / 1e6),
                f(res.p99_ns as f64 / 1e6),
                f(res.p999_ns as f64 / 1e6),
            ]);
            points.push(Point {
                offered: rate,
                sent: res.sent,
                completed: res.completed,
                goodput,
                p50_ns: res.p50_ns,
                p99_ns: res.p99_ns,
                p999_ns: res.p999_ns,
            });
            flush_backlog(&mut fleet);
        }

        // Knee: highest offered rate whose goodput keeps within 90% of
        // offered. Ceiling: best goodput anywhere on the ladder.
        let knee = points
            .iter()
            .filter(|p| p.goodput >= p.offered as f64 * 0.9)
            .map(|p| p.offered)
            .max()
            .unwrap_or(0);
        let ceiling = points.iter().map(|p| p.goodput).fold(0.0f64, f64::max);
        ceilings.push((shards, ceiling, knee));

        // The harness must keep up when unloaded, or the sweep measures
        // the driver instead of the server.
        let lightest = &points[0];
        assert!(
            lightest.goodput >= lightest.offered as f64 * 0.8,
            "{shards} shards: lightest point lost too much \
             ({:.0} of {} offered)",
            lightest.goodput,
            lightest.offered
        );

        let stats: Vec<_> = handles.into_iter().map(|h| h.stop()).collect();
        let served: u64 = stats.iter().map(|s| s.requests).sum();
        let snap = registry.snapshot();
        let wakeups = snap.counter(names::NET_REACTOR_WAKEUPS.name).unwrap_or(0);
        let per_wakeup = snap
            .histogram(names::NET_REACTOR_DATAGRAMS_PER_WAKEUP.name)
            .map(|h| h.mean())
            .unwrap_or(0.0);
        println!(
            "{shards} shard(s): knee {knee} req/s, ceiling {ceiling:.0} req/s; \
             servers saw {served} requests over {wakeups} reactor wakeups \
             ({per_wakeup:.2} datagrams/wakeup)"
        );

        let (violations, racy) = sim_battery(shards, sh.files, sh.seeds, sh.sim_secs);
        assert_eq!(
            (violations, racy),
            (0, 0),
            "sim-side battery at {shards} shards: {violations} checker violations, {racy} racy pairs"
        );

        bench.push_str(&format!(
            "    {{ \"shards\": {shards}, \"knee_req_s\": {knee}, \
             \"ceiling_req_s\": {ceiling:.1}, \"reactor_wakeups\": {wakeups}, \
             \"datagrams_per_wakeup\": {per_wakeup:.2}, \
             \"sim_checker_violations\": {violations}, \"sim_racy_pairs\": {racy}, \
             \"points\": [\n"
        ));
        for (k, p) in points.iter().enumerate() {
            bench.push_str(&format!(
                "      {{ \"offered_req_s\": {}, \"sent\": {}, \"completed\": {}, \
                 \"goodput_req_s\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {} }}{}\n",
                p.offered,
                p.sent,
                p.completed,
                p.goodput,
                p.p50_ns,
                p.p99_ns,
                p.p999_ns,
                if k + 1 < points.len() { "," } else { "" }
            ));
        }
        bench.push_str(&format!(
            "    ] }}{}\n",
            if si + 1 < sh.shard_counts.len() {
                ","
            } else {
                ""
            }
        ));
    }

    print!("{}", t.render());
    assert_eq!(total_nacks, 0, "NACKs during the capacity sweep");
    println!("sweep: zero NACKs; sim battery: zero violations / racy pairs at every shard count");

    let one = ceilings
        .iter()
        .find(|(s, ..)| *s == 1)
        .expect("1-shard sweep");
    let eight = ceilings
        .iter()
        .find(|(s, ..)| *s == 8)
        .expect("8-shard sweep");
    assert!(
        eight.1 > one.1,
        "8-shard ceiling must beat 1 shard: {:.0} vs {:.0} req/s",
        eight.1,
        one.1
    );
    println!();
    for (s, ceiling, knee) in &ceilings {
        println!("{s} shard(s): knee {knee} req/s, measured ceiling {ceiling:.0} req/s");
    }
    println!(
        "sharding raised the open-loop ceiling {:.2}x (1 → 8 shards)",
        eight.1 / one.1.max(1e-9)
    );

    bench.push_str("  ],\n");
    bench.push_str(&format!(
        "  \"service_us\": {},\n  \"clients\": {},\n  \"files\": {},\n  \
         \"alpha\": {ALPHA},\n  \"ceiling_1_shard\": {:.1},\n  \
         \"ceiling_8_shard\": {:.1},\n  \"scaling_1_to_8\": {:.2}\n}}\n",
        SERVICE.as_micros(),
        sh.clients,
        sh.files,
        one.1,
        eight.1,
        eight.1 / one.1.max(1e-9)
    ));
    std::fs::write("BENCH_capacity.json", &bench).expect("write BENCH_capacity.json");
    println!("wrote BENCH_capacity.json");
}
