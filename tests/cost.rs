//! The simulator path's cost per op, counted. A counting global allocator
//! sees every allocation this process makes while two of the benchmark's
//! simulator shapes run — `small` (8 clients, 2 shards with standbys, one
//! unbatched `Stat` at a time per client) and `batch` (the same cluster,
//! four processes per client writing beside reading through a 256-block
//! cache, batches of up to 8, lazy release, so WAL appends, replication
//! and write-back are on the path) — and the test asserts the
//! allocations, bytes and world events per op exactly. The simulator is
//! deterministic, so these are counts, not timings: a change that adds
//! one allocation, one copy or one event per request moves them.
//!
//! One test in this binary, so nothing else allocates while it counts:
//! the small shape's test measures the batch shape after it. The
//! generators' own `format!` of each path and `vec!` of each write are
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_client::{FsOp, OpGen};
use tank_cluster::workload::{Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_sim::{LocalNs, NetParams, SimTime};

/// Allocations (a `realloc` is one) and bytes asked for.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One process's closed loop of `Stat`s over `/f0 … /f63`, each after a
/// think time of 0–40 µs (`tests/scale.rs`'s load).
struct Stats;

impl OpGen for Stats {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let path = format!("/f{}", rng.random_range(0..64u32));
        Some((LocalNs(rng.random_range(0..=40_000)), FsOp::Stat { path }))
    }
}

/// What one simulated second of the `small` shape cost after warm-up.
#[derive(Debug, PartialEq, Eq)]
struct Cost {
    ops: u64,
    allocs: u64,
    bytes: u64,
    events: u64,
}

/// Files every client of the batch shape reads, never written.
const SHARED: usize = 64;
/// Files each client of the batch shape owns and alone writes.
const OWN: usize = 4;
const BLOCK: usize = 4096;

/// One process of the benchmark's simulator `batch` shape: 20 % `Stat`s
/// and 56 % 4 KiB reads of the shared Zipf set, 24 % 4 KiB writes to one
/// of the client's own files, each after a think time of 0–40 µs.
struct Batch {
    client: usize,
    zipf: ZipfGen,
}

impl OpGen for Batch {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let offset = rng.random_range(0..16u64) * BLOCK as u64;
        let op = match rng.random_range(0..100u32) {
            0..=19 => FsOp::Stat {
                path: format!("/f{}", self.zipf.sample(rng)),
            },
            20..=43 => FsOp::Write {
                path: format!(
                    "/f{}",
                    SHARED + self.client * OWN + rng.random_range(0..OWN)
                ),
                offset,
                data: vec![(offset % 251) as u8; BLOCK],
            },
            _ => FsOp::Read {
                path: format!("/f{}", self.zipf.sample(rng)),
                offset,
                len: BLOCK as u32,
            },
        };
        Some((LocalNs(rng.random_range(0..=40_000)), op))
    }
}

/// The cluster both shapes run on: 8 clients, 2 shards with standbys,
/// control net 100 µs ± 50 µs, SAN 250 µs ± 50 µs, τ = 2 s, ε = 0.01.
fn cluster_config() -> ClusterConfig {
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
    cfg
}

fn small_shape() -> Cost {
    let mut cluster = Cluster::build(cluster_config(), 1);
    for i in 0..8 {
        cluster.attach_workload(i, Box::new(Stats));
    }
    measure(cluster, 200, 1_200)
}

/// The benchmark's simulator `batch` shape: 16-block files, four
/// processes per client, batches of up to 8, lazy release, a 256-block
/// cache. Counted from the start, since its WAL appends all fall there.
fn batch_shape() -> Cost {
    let mut cfg = cluster_config();
    cfg.files = SHARED + 8 * OWN;
    cfg.file_blocks = 16;
    cfg.cache_capacity = 256;
    cfg.gen_concurrency = 4;
    cfg.batch_cap = 8;
    cfg.lazy_release = true;
    let mut cluster = Cluster::build(cfg, 1);
    for client in 0..8 {
        let zipf = ZipfGen::new(SHARED, 1.0, Mix::default());
        cluster.attach_workload(client, Box::new(Batch { client, zipf }));
    }
    measure(cluster, 0, 2_400)
}

/// Run to `warm_ms` of simulated time, then count what the run to
/// `until_ms` costs.
fn measure(mut cluster: Cluster, warm_ms: u64, until_ms: u64) -> Cost {
    let completed = |c: &Cluster| (0..8).map(|i| c.client(i).stats().completed).sum::<u64>();
    cluster.run_until(SimTime::from_millis(warm_ms));
    let (ops0, events0) = (completed(&cluster), cluster.world.events_processed());
    let (allocs0, bytes0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    cluster.run_until(SimTime::from_millis(until_ms));
    let (allocs1, bytes1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    Cost {
        ops: completed(&cluster) - ops0,
        allocs: allocs1 - allocs0,
        bytes: bytes1 - bytes0,
        events: cluster.world.events_processed() - events0,
    }
}

fn report(shape: &str, cost: &Cost) {
    let per_op = |n: u64| n as f64 / cost.ops as f64;
    println!(
        "{shape} {cost:?}: {:.4} allocations, {:.1} bytes, {:.4} events per op",
        per_op(cost.allocs),
        per_op(cost.bytes),
        per_op(cost.events)
    );
}

#[test]
fn the_small_shape_costs_its_counted_allocations_bytes_and_events_per_op() {
    let small = small_shape();
    report("small", &small);
    let batch = batch_shape();
    report("batch", &batch);
    assert_eq!(small, EXPECTED);
    assert_eq!(batch, EXPECTED_BATCH);
}

/// Measured on x86-64 Linux, release and debug builds alike: 6.0014
/// allocations, 923.8 bytes and 3.0018 events per op. A toolchain bump
/// may move the allocation counts; re-measure then and say so.
const EXPECTED: Cost = Cost {
    ops: 29_612,
    allocs: 177_714,
    bytes: 27_355_104,
    events: 88_889,
};

/// The batch shape over its first 2.4 simulated seconds, start-up
/// included: the lock grants (each logs an epoch watermark) and sessions
/// that put its 560 WAL appends on the path come early, and lazy release
/// keeps every lock after; the periodic write-back at 2 s puts 512 SAN
/// writes in. Measured on x86-64 Linux, release and debug builds alike:
/// 6.8006 allocations, 5 097.0 bytes and 1.4194 events per op. Framing
/// a log record in place, rather than through a payload `Vec` grown
/// twice, took 1 121 allocations and 18 560 bytes off these counts.
const EXPECTED_BATCH: Cost = Cost {
    ops: 534_116,
    allocs: 3_632_301,
    bytes: 2_722_386_875,
    events: 758_102,
};
