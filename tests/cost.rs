//! The simulator path's cost per op, counted. A counting global allocator
//! sees every allocation this process makes while the benchmark's `small`
//! shape runs in the simulator — 8 clients, 2 shards with standbys, one
//! unbatched `Stat` at a time per client — and the test asserts the
//! allocations, bytes and world events per op exactly. The simulator is
//! deterministic, so these are counts, not timings: a change that adds
//! one allocation, one copy or one event per request moves them.
//!
//! One test in this binary, so nothing else allocates while it counts.
//! The generator's own `format!` of each path is counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_client::{FsOp, OpGen};
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

fn small_shape() -> Cost {
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
    let (allocs0, bytes0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    cluster.run_until(SimTime::from_millis(1_200));
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

#[test]
fn the_small_shape_costs_its_counted_allocations_bytes_and_events_per_op() {
    let cost = small_shape();
    let per_op = |n: u64| n as f64 / cost.ops as f64;
    println!(
        "{cost:?}: {:.4} allocations, {:.1} bytes, {:.4} events per op",
        per_op(cost.allocs),
        per_op(cost.bytes),
        per_op(cost.events)
    );
    assert_eq!(cost, EXPECTED);
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
