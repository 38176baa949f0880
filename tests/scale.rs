//! Scale smoke: a 16-client cluster under a Zipf workload for a minute of
//! virtual time — safety holds, the lease authority stays passive, and
//! opportunistic renewal keeps dedicated lease traffic at zero. And the
//! simulator's own cost per op: a steady `Stat` load keeps its event
//! queue small and costs three events per op.

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_client::{FsOp, OpGen};
use tank_cluster::workload::{Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_sim::{LocalNs, NetId, NetParams, SimTime};

#[test]
fn sixteen_clients_one_virtual_minute() {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 16;
    cfg.disks = 4;
    cfg.files = 32;
    cfg.file_blocks = 4;
    cfg.block_size = 4096;
    cfg.gen_concurrency = 2;
    let mut cluster = Cluster::build(cfg, 20260707);
    let mix = Mix {
        read_frac: 0.7,
        meta_frac: 0.2,
        io_size: 2048,
        max_offset: 3 * 4096,
        think_mean: LocalNs::from_millis(40),
    };
    for i in 0..16 {
        cluster.attach_workload(i, Box::new(ZipfGen::new(32, 0.9, mix)));
    }
    cluster.run_until(SimTime::from_secs(60));
    cluster.settle();
    let report = cluster.finish();

    assert!(report.check.safe(), "{:#?}", report.check);
    assert!(
        report.check.ops_ok > 15_000,
        "16 clients × ~25 ops/s × 60 s: got {}",
        report.check.ops_ok
    );
    // Under heavy Zipf contention the server may very occasionally time a
    // demand out against a slow-to-release (but healthy) client — the
    // protocol cannot distinguish slow from dead (§6) and resolves it
    // safely through the lease path. Passivity must still hold to within
    // those rare events, and residual lease state must drain.
    assert!(
        report.server.delivery_errors <= 3,
        "demand timeouts should be rare: {}",
        report.server.delivery_errors
    );
    assert!(report.authority.timers_started <= report.server.delivery_errors);
    assert_eq!(report.authority_memory_bytes, 0, "all lease state drained");
    // Busy clients renew almost purely opportunistically; the only
    // keep-alives belong to the rare timed-out client riding out its
    // suspect window (it is refused ACKs, so it keeps probing). Bound the
    // total well below one per client-second.
    let kas = cluster
        .world
        .stats()
        .sent_kind("keep_alive", NetId::CONTROL);
    assert!(
        kas < 16 * 60 / 4,
        "dedicated lease traffic stayed negligible: {kas}"
    );
    // Locks churned heavily and fairly (every client got work done).
    for (i, c) in report.clients.iter().enumerate() {
        assert!(c.completed > 200, "client {i} starved: {c:?}");
    }
}

/// One process's closed loop of `Stat`s over `/f0 … /f63`, each after a
/// think time of 0–40 µs.
struct Stats;

impl OpGen for Stats {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let path = format!("/f{}", rng.random_range(0..64u32));
        Some((LocalNs(rng.random_range(0..=40_000)), FsOp::Stat { path }))
    }
}

#[test]
fn a_steady_stat_load_keeps_the_event_queue_small_and_costs_three_events_per_op() {
    // The benchmark's `small` cluster: 8 clients, 2 shards with standbys,
    // control net 100 µs ± 50 µs, τ = 2 s, one unbatched `Stat` at a time
    // per client. Each op is a request, its reply and the think-time
    // timer; each client's one retransmit deadline adds a firing per RTO.
    let lan = |latency_ns| NetParams {
        latency_ns,
        jitter_ns: 50_000,
        drop_prob: 0.0,
        dup_prob: 0.0,
    };
    let mut cfg = ClusterConfig::default();
    cfg.clients = 8;
    cfg.shards = 2;
    cfg.standbys = true;
    cfg.files = 64;
    cfg.lease = LeaseConfig {
        epsilon: 0.01,
        ..LeaseConfig::with_tau(LocalNs::from_secs(2))
    };
    cfg.ctl_net = lan(100_000);
    cfg.san_net = lan(250_000);
    let mut cluster = Cluster::build(cfg, 1);
    for i in 0..8 {
        cluster.attach_workload(i, Box::new(Stats));
    }
    let completed = |c: &Cluster| (0..8).map(|i| c.client(i).stats().completed).sum::<u64>();
    cluster.run_until(SimTime::from_millis(200));
    let (ops0, events0) = (completed(&cluster), cluster.world.events_processed());
    let mut peak = 0;
    for ms in (210..=1_200).step_by(10) {
        cluster.run_until(SimTime::from_millis(ms));
        peak = peak.max(cluster.world.queued_events());
    }
    let ops = completed(&cluster) - ops0;
    let events = cluster.world.events_processed() - events0;
    assert!(ops > 20_000, "one second of 8 closed loops: {ops} ops");
    assert!(peak <= 64, "{peak} events queued");
    let per_op = events as f64 / ops as f64;
    assert!((per_op - 3.0).abs() < 0.05, "{per_op:.3} events per op");
    assert!(
        (0..8).all(|i| cluster.client(i).live_timer_tokens() <= 8),
        "a client's timer tokens grow with its requests"
    );
}
