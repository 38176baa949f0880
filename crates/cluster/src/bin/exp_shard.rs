//! E14 — sharded metadata layer: scaling and blast-radius isolation.
//!
//! Three measurements over the `tank-shard` namespace partitioning:
//!
//! 1. **Scaling sweep** — the same client workload against 1→8 lock
//!    servers: client ops/sec and how the metadata-transaction load
//!    spreads (the per-server share is the §1.1 scalability argument
//!    applied horizontally).
//! 2. **Safety sweep** — every shard count × many seeds through the
//!    offline checker: Theorem 3.1 must hold per server, with zero
//!    cross-shard steal/grant interference.
//! 3. **Blast radius** — four shards, four clients each pinned to a file
//!    on its own shard; one shard drops off the control network mid-run.
//!    The victim's throughput collapses; every other shard's must stay
//!    within 10% of an unpartitioned baseline (the per-server lease
//!    table's whole point).

use tank_cluster::table::{f, Table};
use tank_cluster::workload::{Mix, UniformGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_proto::ServerId;
use tank_shard::ShardMap;
use tank_sim::{LocalNs, SimTime};

/// Workload pinned to one path: closed-loop reads/writes/stats against a
/// single file, so per-client throughput is per-shard throughput.
struct PinnedGen {
    inner: UniformGen,
    path: String,
}

impl PinnedGen {
    fn new(path: String) -> Self {
        PinnedGen {
            inner: UniformGen::new(
                1,
                Mix {
                    read_frac: 0.6,
                    meta_frac: 0.1,
                    io_size: 2048,
                    max_offset: 3 * 4096,
                    think_mean: LocalNs::from_millis(20),
                },
            ),
            path,
        }
    }
}

impl tank_client::OpGen for PinnedGen {
    fn next_op(
        &mut self,
        rng: &mut rand_chacha::ChaCha8Rng,
        now: tank_sim::LocalNs,
    ) -> Option<(tank_sim::LocalNs, tank_client::FsOp)> {
        let (think, op) = self.inner.next_op(rng, now)?;
        let op = match op {
            tank_client::FsOp::Read { offset, len, .. } => tank_client::FsOp::Read {
                path: self.path.clone(),
                offset,
                len,
            },
            tank_client::FsOp::Write { offset, data, .. } => tank_client::FsOp::Write {
                path: self.path.clone(),
                offset,
                data,
            },
            tank_client::FsOp::Stat { .. } => tank_client::FsOp::Stat {
                path: self.path.clone(),
            },
            other => other,
        };
        Some((think, op))
    }
}

fn base_cfg(shards: u16) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.shards = shards;
    cfg.clients = 4;
    cfg.files = 16;
    cfg.file_blocks = 4;
    cfg.block_size = 4096;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.gen_concurrency = 2;
    cfg
}

/// One scaling/safety run: shared uniform workload, `secs` of virtual
/// time. Returns (ops ok, total meta txns, max per-server meta txns,
/// violations).
fn sweep_run(shards: u16, seed: u64, secs: u64) -> (u64, u64, u64, usize) {
    let cfg = base_cfg(shards);
    let mut cluster = Cluster::build(cfg, seed);
    for i in 0..4 {
        cluster.attach_workload(i, Box::new(UniformGen::default_for(16)));
    }
    cluster.run_until(SimTime::from_secs(secs));
    cluster.settle();
    let report = cluster.finish();
    let map = ShardMap::new(shards);
    let per_server: Vec<u64> = map
        .servers()
        .map(|sid| cluster.server_node_of(sid).meta().transactions())
        .collect();
    (
        report.check.ops_ok,
        report.meta_transactions,
        per_server.iter().copied().max().unwrap_or(0),
        report.check.violations(),
    )
}

/// Blast-radius run: four shards, client i pinned to a file owned by
/// shard i. With `partition`, shard 0 is cut off from every client for
/// the middle half of the run. Returns completed ops per client.
fn blast_run(partition: bool, seed: u64, secs: u64) -> Vec<u64> {
    let map = ShardMap::new(4);
    let mut cfg = base_cfg(4);
    cfg.files = 64; // enough names that every shard certainly owns one
    let names: Vec<String> = map
        .servers()
        .map(|sid| {
            (0..64)
                .map(|i| format!("f{i}"))
                .find(|n| map.place_top(n) == sid)
                .expect("64 names cover 4 shards")
        })
        .collect();
    let mut cluster = Cluster::build(cfg, seed);
    for (i, name) in names.iter().enumerate() {
        cluster.attach_workload(i, Box::new(PinnedGen::new(format!("/{name}"))));
    }
    if partition {
        let from = SimTime::from_secs(secs / 4);
        let to = SimTime::from_secs(secs * 3 / 4);
        for c in 0..4 {
            cluster.isolate_control_shard(c, ServerId(0), from, Some(to));
        }
    }
    cluster.run_until(SimTime::from_secs(secs));
    cluster.settle();
    let report = cluster.finish();
    assert!(
        report.check.safe(),
        "blast-radius run (partition={partition}) unsafe: {:#?}",
        report.check
    );
    report.clients.iter().map(|c| c.completed).collect()
}

fn main() {
    let (secs, seeds) = (20u64, 10u64);
    let shard_counts: Vec<u16> = (1..=8).collect();

    println!("E14 — sharded metadata layer: scaling, safety, blast radius");
    println!("({secs}s runs, {seeds} seeds per shard count)");
    println!(
        "ops/sec is closed-loop, set by the think time (4 clients x 2 processes, \
         {} ms mean): it is the same at every shard count and is not a capacity",
        Mix::default().think_mean.0 / 1_000_000
    );

    // 1 + 2: scaling table and the checker sweep in one pass.
    let mut t = Table::new(&[
        "shards",
        "ops ok",
        "ops/sec",
        "meta txns",
        "max per-server txns",
        "violations",
    ]);
    let mut total_violations = 0usize;
    for &shards in &shard_counts {
        let mut ops_sum = 0u64;
        let mut txns_sum = 0u64;
        let mut max_share = 0u64;
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (ops, txns, max_srv, v) = sweep_run(shards, seed, secs);
            ops_sum += ops;
            txns_sum += txns;
            max_share = max_share.max(max_srv);
            violations += v;
        }
        t.row(vec![
            shards.to_string(),
            ops_sum.to_string(),
            f(ops_sum as f64 / (seeds * secs) as f64),
            txns_sum.to_string(),
            max_share.to_string(),
            violations.to_string(),
        ]);
        total_violations += violations;
    }
    print!("{}", t.render());
    assert_eq!(
        total_violations, 0,
        "checker violations across the shard sweep"
    );
    println!(
        "sweep: zero checker violations across {} shard counts × {seeds} seeds",
        shard_counts.len()
    );
    println!();

    // 3: blast radius at 4 shards.
    let baseline = blast_run(false, 99, secs);
    let cut = blast_run(true, 99, secs);
    let mut bt = Table::new(&["client (shard)", "baseline ops", "partitioned ops", "ratio"]);
    for i in 0..4 {
        bt.row(vec![
            format!("c{i} (shard {i})"),
            baseline[i].to_string(),
            cut[i].to_string(),
            f(cut[i] as f64 / baseline[i].max(1) as f64),
        ]);
    }
    print!("{}", bt.render());
    // The victim (shard 0) lost its middle half; survivors must be within
    // 10% of their unpartitioned throughput.
    for i in 1..4 {
        let ratio = cut[i] as f64 / baseline[i].max(1) as f64;
        assert!(
            ratio >= 0.9,
            "shard {i} throughput fell {:.0}% under another shard's partition",
            (1.0 - ratio) * 100.0
        );
    }
    assert!(
        (cut[0] as f64) < baseline[0] as f64 * 0.8,
        "the victim shard should visibly stall (got {}/{})",
        cut[0],
        baseline[0]
    );
    println!();
    println!("blast radius: partitioning shard 0 stalled only shard 0; the other");
    println!("three shards' clients stayed within 10% of baseline — the per-server");
    println!("lease table quiesced one lane, not the cache.");
}
