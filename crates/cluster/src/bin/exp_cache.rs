//! E17 — client block cache: hit rate and throughput vs capacity and
//! lock mode.
//!
//! The paper's premise (§2) is that clients cache aggressively *because*
//! the lock/lease machinery makes it safe. This experiment measures what
//! the cache is worth, and what each of its two enablers contributes:
//!
//! * **capacity** — swept over {0, 4, 16, unbounded} blocks per client
//!   on a Zipf-skewed read-mostly workload. 0 is the no-read-cache
//!   baseline (every read fetches from the SAN); the capacity curve
//!   shows hit rate and ops/s climbing as the working set fits.
//! * **lock mode** — SharedRead {on, off} at each capacity. With it off
//!   every read takes an Exclusive data lock, so concurrent readers of
//!   the same hot file revoke each other's locks — and each revocation
//!   drops the revokee's cached blocks. The comparison isolates how much
//!   of the cache's value depends on readers being allowed to coexist.
//!
//! The SAN is configured disk-ish (~2 ms access) so a fetched block
//! costs what it costs on real network-attached storage; a cache hit
//! costs nothing but a lease-phase check.
//!
//! Every run goes through the offline checker — including the coherence
//! audit (no read from a quiesced cache, no dirty block surviving a
//! steal, no write under a shared grant).
//!
//! Acceptance built into the binary:
//! * **cache wins** — unbounded capacity must beat the capacity-0
//!   baseline on ops/s (both with SharedRead on);
//! * **sharing wins** — at unbounded capacity, SharedRead on must beat
//!   Exclusive-only reads;
//! * **baseline honesty** — capacity 0 may hit only on dirty blocks
//!   pinned awaiting write-back (its hit rate stays small);
//! * **capacity pays** — with SharedRead on, the hit rate does not fall
//!   as capacity grows 0 → 4 → 16 → unbounded;
//! * **safety** — zero checker violations across every swept config.

use tank_cluster::table::{f, Table};
use tank_cluster::workload::{Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_sim::{LocalNs, NetParams, SimTime};

const CLIENTS: usize = 4;
const FILES: usize = 8;
const BLOCKS_PER_FILE: u32 = 8;
const BS: usize = 4096;

fn cache_cfg(capacity: usize, shared: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = CLIENTS;
    cfg.files = FILES;
    cfg.file_blocks = BLOCKS_PER_FILE;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    // One closed-loop process per client, as in every earlier capture of
    // this sweep, so the curve stays comparable with them. (More would not
    // thrash a tiny cache: a read pins the blocks it waits on until it is
    // served.)
    cfg.gen_concurrency = 1;
    // Disk-ish SAN: ~5 ms per block round trip. This is the cost a cache
    // hit avoids — with the default 50 µs SAN the cache would be
    // measuring nothing.
    cfg.san_net = NetParams {
        latency_ns: 2_500_000,
        jitter_ns: 200_000,
        ..NetParams::default()
    };
    cfg.cache_capacity = capacity;
    cfg.shared_read = shared;
    cfg
}

/// Zipf-skewed read-mostly traffic: 95% reads, 5% writes, no metadata
/// ops, one block per IO, offsets across the whole file.
fn read_mostly() -> Mix {
    Mix {
        read_frac: 0.95,
        meta_frac: 0.0,
        io_size: BS as u32,
        max_offset: BLOCKS_PER_FILE as u64 * BS as u64,
        think_mean: LocalNs::from_millis(1),
    }
}

/// One run. Returns (ops ok, cache hits, cache misses, violations).
fn run_once(capacity: usize, shared: bool, seed: u64, secs: u64) -> (u64, u64, u64, usize) {
    let mut cluster = Cluster::build(cache_cfg(capacity, shared), seed);
    for i in 0..CLIENTS {
        cluster.attach_workload(i, Box::new(ZipfGen::new(FILES, 1.0, read_mostly())));
    }
    cluster.run_until(SimTime::from_secs(secs));
    cluster.settle();
    let report = cluster.finish();
    let totals = report.client_totals();
    (
        report.check.ops_ok,
        totals.cache_hits,
        totals.cache_misses,
        report.check.violations(),
    )
}

/// Virtual seconds `Cluster::settle()` appends after the timed run
/// (2τ + 5 s at τ = 2 s); the honest rate denominator includes it.
const SETTLE_S: u64 = 9;

fn label(capacity: usize) -> String {
    if capacity == usize::MAX {
        "unbounded".into()
    } else {
        capacity.to_string()
    }
}

fn main() {
    let (secs, seeds) = (20u64, 8u64);
    let capacities: Vec<usize> = vec![0, 4, 16, usize::MAX];

    println!("E17 — client block cache: capacity x lock-mode sweep");
    println!("({secs}s runs, {seeds} seeds per config, Zipf(1.0) 95%-read, SAN ~5ms)");

    let mut t = Table::new(&[
        "capacity",
        "shared read",
        "ops ok",
        "ops/sec",
        "hit rate",
        "violations",
    ]);
    let configs: Vec<(usize, bool)> = capacities
        .iter()
        .flat_map(|&c| [(c, true), (c, false)])
        .collect();
    let mut total_violations = 0usize;
    // (ops/s, hit rate) per config, keyed like `configs`.
    let mut rates: Vec<(f64, f64)> = Vec::new();
    for &(capacity, shared) in &configs {
        let mut ops_sum = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (ops, h, m, v) = run_once(capacity, shared, seed, secs);
            ops_sum += ops;
            hits += h;
            misses += m;
            violations += v;
        }
        let ops_per_sec = ops_sum as f64 / (seeds * (secs + SETTLE_S)) as f64;
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        t.row(vec![
            label(capacity),
            if shared { "on" } else { "off" }.to_string(),
            ops_sum.to_string(),
            f(ops_per_sec),
            format!("{:.1}%", hit_rate * 100.0),
            violations.to_string(),
        ]);
        total_violations += violations;
        rates.push((ops_per_sec, hit_rate));
    }
    print!("{}", t.render());

    assert_eq!(total_violations, 0, "checker violations across the sweep");
    println!(
        "sweep: zero checker violations across {} configs x {seeds} seeds \
         (coherence audit included)",
        configs.len()
    );

    let off = rates[0]; // capacity 0, shared on — the no-cache baseline
    let on = rates[configs.len() - 2]; // unbounded, shared on
    let excl = rates[configs.len() - 1]; // unbounded, shared off
                                         // Capacity 0 disables CLEAN-block retention, but dirty write-back
                                         // blocks are pinned until flushed and stay readable — so the baseline
                                         // hit rate is small (own recent writes), not zero.
    assert!(
        off.1 < 0.2 && off.1 < on.1,
        "capacity 0 must hit only on pinned write-back blocks \
         (hit rate {:.3} vs unbounded {:.3})",
        off.1,
        on.1
    );
    // SharedRead-on configs sit at the even indices, in capacity order.
    let curve: Vec<f64> = rates.iter().step_by(2).map(|r| r.1).collect();
    assert!(
        curve.windows(2).all(|w| w[0] <= w[1]),
        "the SharedRead hit rate must not fall as capacity grows: {curve:?}"
    );
    println!(
        "capacity: SharedRead hit rate never falls as capacity grows ({})",
        curve
            .iter()
            .map(|h| format!("{:.1}%", h * 100.0))
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    assert!(
        on.0 > off.0,
        "the cache must beat the no-cache baseline \
         ({:.2} vs {:.2} ops/s)",
        on.0,
        off.0
    );
    assert!(
        on.0 > excl.0,
        "SharedRead must beat Exclusive-only reads at full capacity \
         ({:.2} vs {:.2} ops/s)",
        on.0,
        excl.0
    );
    println!();
    println!(
        "cache: {:.2} -> {:.2} ops/s over the no-cache baseline ({:.2}x), \
         hit rate {:.1}%",
        off.0,
        on.0,
        on.0 / off.0.max(1e-9),
        on.1 * 100.0
    );
    println!(
        "sharing: SharedRead {:.2} vs Exclusive-only {:.2} ops/s ({:.2}x) — \
         coexisting readers keep their caches warm",
        on.0,
        excl.0,
        on.0 / excl.0.max(1e-9)
    );
}
