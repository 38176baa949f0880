//! The simulator path's cost per op, counted. A counting global allocator
//! sees every allocation this process makes while the benchmark's three
//! simulator shapes run — `small` (8 clients, 2 shards with standbys, one
//! unbatched `Stat` at a time per client), `batch` (the same cluster,
//! four processes per client writing beside reading through a 256-block
//! cache, batches of up to 8, lazy release, so batching and write-back
//! are on the path) and `lock` (4 clients, 1 shard with a
//! standby, each client one 4 KiB read or write of its own file and then
//! its `Release`, so every second op is a grant and every other a
//! release) — and the test asserts the allocations, bytes and world
//! events exactly, with the control datagrams, SAN datagrams,
//! replication datagrams (a share of the control ones) and primary WAL
//! appends sent meanwhile. The simulator is deterministic, so these are
//! counts, not timings: a change that adds one allocation, one copy, one
//! event, one datagram or one log record per request moves them.
//!
//! One test in this binary, so nothing else allocates while it counts:
//! the small shape's test measures the other two after it. The
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
use tank_proto::ServerId;
use tank_sim::{LocalNs, NetId, NetParams, SimTime};

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

/// What a stretch of simulated time cost: ops completed, allocations and
/// bytes asked for, world events, control and SAN datagrams sent, the
/// replication datagrams among the control ones, and records appended
/// to the shard primaries' logs.
#[derive(Debug, PartialEq, Eq)]
struct Cost {
    ops: u64,
    allocs: u64,
    bytes: u64,
    events: u64,
    ctl: u64,
    san: u64,
    repl: u64,
    wal: u64,
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

/// One process of the benchmark's simulator `lock` shape: the client
/// walks its own files, one 4 KiB read or write of a file, then its
/// `Release`, each after a think time of 0–40 µs.
struct Lock {
    client: usize,
    steps: u64,
}

impl OpGen for Lock {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let think = LocalNs(rng.random_range(0..=40_000));
        let file = SHARED + self.client * OWN + (self.steps / 2) as usize % OWN;
        let path = format!("/f{file}");
        self.steps += 1;
        let offset = rng.random_range(0..16u64) * BLOCK as u64;
        let op = if self.steps.is_multiple_of(2) {
            FsOp::Release { path }
        } else if rng.random_bool(0.5) {
            FsOp::Write {
                path,
                offset,
                data: vec![(offset % 251) as u8; BLOCK],
            }
        } else {
            FsOp::Read {
                path,
                offset,
                len: BLOCK as u32,
            }
        };
        Some((think, op))
    }
}

/// The benchmark's simulator `lock` shape: 4 clients, 1 shard with a
/// standby, 16-block files, a 256-block cache, one process per client.
fn lock_shape() -> Cost {
    let mut cfg = cluster_config();
    cfg.clients = 4;
    cfg.shards = 1;
    cfg.files = SHARED + 4 * OWN;
    cfg.file_blocks = 16;
    cfg.cache_capacity = 256;
    let mut cluster = Cluster::build(cfg, 1);
    for client in 0..4 {
        cluster.attach_workload(client, Box::new(Lock { client, steps: 0 }));
    }
    measure(cluster, 200, 1_200)
}

/// Run to `warm_ms` of simulated time, then count what the run to
/// `until_ms` costs.
fn measure(mut cluster: Cluster, warm_ms: u64, until_ms: u64) -> Cost {
    cluster.run_until(SimTime::from_millis(warm_ms));
    let before = tally(&cluster);
    cluster.run_until(SimTime::from_millis(until_ms));
    let after = tally(&cluster);
    Cost {
        ops: after.ops - before.ops,
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        events: after.events - before.events,
        ctl: after.ctl - before.ctl,
        san: after.san - before.san,
        repl: after.repl - before.repl,
        wal: after.wal - before.wal,
    }
}

/// Every running total a [`Cost`] is the difference of, now.
fn tally(cluster: &Cluster) -> Cost {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let stats = cluster.world.stats();
    let repl = stats
        .iter()
        .filter(|(kind, _, _)| kind.starts_with("repl_"))
        .map(|(_, _, c)| c.sent)
        .sum();
    let shards = 0..cluster.servers.len() as u16;
    Cost {
        ops: (0..cluster.clients.len())
            .map(|i| cluster.client(i).stats().completed)
            .sum(),
        allocs,
        bytes,
        events: cluster.world.events_processed(),
        ctl: stats.sent_on(NetId::CONTROL),
        san: stats.sent_on(NetId::SAN),
        repl,
        wal: shards
            .map(|s| cluster.server_node_of(ServerId(s)).wal_stats().appends)
            .sum(),
    }
}

fn report(shape: &str, cost: &Cost) {
    let per_op = |n: u64| n as f64 / cost.ops as f64;
    println!(
        "{shape} {cost:?}: {:.4} allocations, {:.1} bytes, {:.4} events, {:.4} control \
         datagrams ({:.4} replication), {:.4} SAN datagrams, {:.4} WAL appends per op",
        per_op(cost.allocs),
        per_op(cost.bytes),
        per_op(cost.events),
        per_op(cost.ctl),
        per_op(cost.repl),
        per_op(cost.san),
        per_op(cost.wal)
    );
}

#[test]
fn the_small_shape_costs_its_counted_allocations_bytes_and_events_per_op() {
    let small = small_shape();
    report("small", &small);
    let batch = batch_shape();
    report("batch", &batch);
    let lock = lock_shape();
    report("lock", &lock);
    assert_eq!(small, EXPECTED);
    assert_eq!(batch, EXPECTED_BATCH);
    assert_eq!(lock, EXPECTED_LOCK);
}

/// Measured on x86-64 Linux, release and debug builds alike: 3.0015
/// allocations, 820.1 bytes, 3.0018 events and 2.0002 control datagrams
/// per op; no SAN datagram and no WAL append, and 6 replication
/// datagrams (heartbeats) in all. A toolchain bump may move the
/// allocation counts; re-measure then and say so.
const EXPECTED: Cost = Cost {
    ops: 29_612,
    allocs: 88_881,
    bytes: 24_284_990,
    events: 88_889,
    ctl: 59_229,
    san: 0,
    repl: 6,
    wal: 0,
};

/// The batch shape over its first 2.4 simulated seconds, start-up
/// included: the sessions and the first grant of each shard put its 18
/// WAL appends on the path early, and lazy release keeps every lock
/// after; the periodic write-back at 2 s puts 512 SAN writes in.
/// Measured on x86-64 Linux, release and debug builds alike: 3.7997
/// allocations, 4 994.0 bytes, 1.4174 events, 0.0069 control datagrams
/// (0.0001 replication), 0.4102 SAN datagrams and 0.0000 WAL appends per
/// op. Framing a log record in place, rather than through a payload `Vec`
/// grown twice, took 1 121 allocations and 18 560 bytes off these counts.
const EXPECTED_BATCH: Cost = Cost {
    ops: 534_085,
    allocs: 2_029_351,
    bytes: 2_667_219_465,
    events: 757_006,
    ctl: 3_700,
    san: 219_106,
    repl: 46,
    wal: 18,
};

/// The lock shape's second after 200 ms of warm-up: a grant logs an epoch
/// reservation only once per 2¹⁶ grants, so no op appends to the log or
/// replicates. Measured on x86-64 Linux, release and debug builds alike:
/// 6.5121 allocations, 7 094.1 bytes, 4.0027 events, 2.0002 control
/// datagrams (0.0002 replication), 1.0000 SAN datagrams and 0.0000 WAL
/// appends per op.
const EXPECTED_LOCK: Cost = Cost {
    ops: 9_522,
    allocs: 62_008,
    bytes: 67_549_576,
    events: 38_114,
    ctl: 19_046,
    san: 9_522,
    repl: 2,
    wal: 0,
};
