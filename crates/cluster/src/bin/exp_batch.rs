//! E15 — control-path batching + lazy lock release.
//!
//! The per-operation round trip is the control path's tax: every open,
//! stat, allocation, and close pays the full client↔server latency even
//! when the answers are independent. Two levers attack it:
//!
//! * **batching** — independent control ops coalesce into one
//!   `RequestBody::Batch` datagram per lane: a request leaves at once on
//!   an idle lane and queues behind the request in flight otherwise, so
//!   under load N ops share one round trip and one opportunistic lease
//!   renewal, and a lightly loaded lane pays no wait at all;
//! * **lazy release** — a voluntary lock release is retained client-side
//!   (the lock stays Held, the cache stays warm); the next cycle on the
//!   same file skips acquire/alloc entirely, and a server demand or cap
//!   overflow sends the release back through the eager path.
//!
//! Three regimes, because the levers win (and could lose) differently:
//!
//! 1. **Latency regime** — per-client **disjoint** file sets, ONE
//!    closed-loop process per client cycling write → read → release on a
//!    WAN-ish control network. Every round trip is on the critical path.
//!    An eager cycle pays one, the acquire: its release completes as the
//!    `LockRelease` leaves, and its writes never grow the file, so nothing
//!    is committed. Lazy release deletes the acquire too. Swept over batch
//!    caps {1, 2, 4, 8, 16} × lazy {off, on} × seeds.
//! 2. **Message-load regime** — a concurrent stat storm (16 processes
//!    per client). A latency-simulated network carries concurrent
//!    singles in parallel, so batching cannot beat pipelining on
//!    latency; its win is **datagrams per op** — the per-message server
//!    cost the paper's §1.1 scalability argument is about. Swept over
//!    batch caps at fixed workload.
//! 3. **LAN regime** — the repo benchmark's `batch` shape: 8 clients × 4
//!    processes, control RTT ≈ 250 µs, think time far below it, cached
//!    reads + write-back writes + stats, lazy release on. Too few
//!    processes to fill a batch and every op on its process's critical
//!    path: the regime where *waiting* for company costs throughput, so
//!    batching must stay within 10 % of cap 1.
//!
//! All regimes run every seed through the offline checker (including
//! the batch-atomicity audit).
//!
//! Acceptance built into the binary:
//! * **negative control** — cap 1 + lazy off is the pre-batching wire
//!   behavior and must land within 15 % of its cycle arithmetic: one
//!   acquire round trip, two SAN round trips and three think times per
//!   write → read → release;
//! * **speedup** — cap 16 + lazy on must clear 3× the negative control;
//! * **message collapse** — cap 16 must bring the storm to ≤ 0.30
//!   control datagrams per op with throughput within 1 %;
//! * **no latency tax** — on the LAN regime cap 8 must reach ≥ 0.90 ×
//!   the ops/s of cap 1;
//! * **safety** — zero checker violations across every swept config.

use tank_client::{FsOp, OpGen};
use tank_cluster::table::{f, Table};
use tank_cluster::workload::{Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_sim::{LocalNs, NetParams, SimTime};

const CLIENTS: usize = 4;
const FILES_PER_CLIENT: usize = 4;
const IO: u32 = 2048;
/// Mean think time of the latency regime's processes.
const THINK_MEAN: LocalNs = LocalNs::from_millis(1);

/// The three-beat control cycle: write → read → release, walking
/// round-robin over this client's private files — the open/write/close
/// shape of real file traffic. Release is the "close" of the cycle,
/// exactly the op lazy release absorbs; with it absorbed the lock stays
/// held and the cache stays warm, so the next visit to the file pays no
/// control round trip at all. Eagerly released, every visit re-pays the
/// acquire; the release itself completes as its `LockRelease` leaves, and
/// the writes stay inside the file, so no size is committed.
struct CycleGen {
    files: Vec<String>,
    beat: usize,
    file: usize,
    think_mean: LocalNs,
}

impl CycleGen {
    fn new(client: usize, think_mean: LocalNs) -> Self {
        let base = client * FILES_PER_CLIENT;
        CycleGen {
            files: (base..base + FILES_PER_CLIENT)
                .map(|i| format!("/f{i}"))
                .collect(),
            beat: 0,
            file: 0,
            think_mean,
        }
    }
}

impl OpGen for CycleGen {
    fn next_op(
        &mut self,
        rng: &mut rand_chacha::ChaCha8Rng,
        _now: LocalNs,
    ) -> Option<(LocalNs, FsOp)> {
        use rand::RngExt;
        let path = self.files[self.file].clone();
        let op = match self.beat {
            0 => {
                let offset = (rng.random_range(0..3u64)) * IO as u64;
                let base = (offset % 251) as u8;
                FsOp::Write {
                    path,
                    offset,
                    data: vec![base; IO as usize],
                }
            }
            1 => FsOp::Read {
                path,
                offset: 0,
                len: IO,
            },
            _ => FsOp::Release { path },
        };
        self.beat = (self.beat + 1) % 3;
        if self.beat == 0 {
            self.file = (self.file + 1) % self.files.len();
        }
        // Uniform on [0, 2·mean]: same mean as exponential, bounded tail.
        let think = LocalNs(rng.random_range(0..=self.think_mean.0 * 2));
        Some((think, op))
    }
}

fn batch_cfg(cap: usize, lazy: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = CLIENTS;
    cfg.files = CLIENTS * FILES_PER_CLIENT;
    cfg.file_blocks = 4;
    cfg.block_size = IO as usize;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    // ONE closed-loop process per client: every control round trip the
    // cycle pays is on the critical path (concurrency would overlap and
    // hide it). This is the client that feels the per-op RTT tax.
    cfg.gen_concurrency = 1;
    // A WAN-ish control network: the round trip (~19.5 ms) dwarfs the
    // think time, so control-path round trips dominate the cycle — the
    // regime the lazy-release lever exists for. The SAN keeps its
    // default (data trips are not under test).
    cfg.ctl_net = NetParams {
        latency_ns: 9_700_000,
        jitter_ns: 200_000,
        ..NetParams::default()
    };
    cfg.batch_cap = cap;
    cfg.lazy_release = lazy;
    cfg
}

/// A metadata scan under concurrency: every local process stats a random
/// file, 16 processes per client — the regime where independent control
/// ops are in flight together and coalescing behind the request in flight
/// can pack them into shared datagrams.
struct StatStormGen {
    files: usize,
    think_mean: LocalNs,
}

impl OpGen for StatStormGen {
    fn next_op(
        &mut self,
        rng: &mut rand_chacha::ChaCha8Rng,
        _now: LocalNs,
    ) -> Option<(LocalNs, FsOp)> {
        use rand::RngExt;
        let f = rng.random_range(0..self.files);
        let think = LocalNs(rng.random_range(0..=self.think_mean.0 * 2));
        Some((
            think,
            FsOp::Stat {
                path: format!("/f{f}"),
            },
        ))
    }
}

fn storm_cfg(cap: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 16;
    cfg.block_size = IO as usize;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    // 16 concurrent processes per client: plenty of independent GetAttrs
    // issued per lane during one round trip, which is what gives the
    // queue behind the request in flight something to pack.
    cfg.gen_concurrency = 16;
    // A metro-area control network (RTT ~4 ms).
    cfg.ctl_net = NetParams {
        latency_ns: 2_000_000,
        jitter_ns: 100_000,
        ..NetParams::default()
    };
    cfg.batch_cap = cap;
    cfg
}

/// Files every LAN-regime client reads, never written during a run.
const LAN_SHARED: usize = 64;
/// Files each LAN-regime client owns and alone writes.
const LAN_OWN: usize = 4;
const LAN_CLIENTS: usize = 8;
const LAN_BLOCK: usize = 4096;

/// The benchmark's `batch` simulator half (`benchmark/src/bin/harness/
/// sim.rs`): 2 shards + standbys, control net 100 µs ± 50 µs, SAN 250 µs
/// ± 50 µs, 256-block caches, four processes per client, lazy release.
fn lan_cfg(cap: usize) -> ClusterConfig {
    let lan = |latency_ns| NetParams {
        latency_ns,
        jitter_ns: 50_000,
        ..NetParams::default()
    };
    let mut cfg = ClusterConfig::default();
    cfg.clients = LAN_CLIENTS;
    cfg.shards = 2;
    cfg.standbys = true;
    cfg.files = LAN_SHARED + LAN_CLIENTS * LAN_OWN;
    cfg.file_blocks = 16;
    cfg.block_size = LAN_BLOCK;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.ctl_net = lan(100_000);
    cfg.san_net = lan(250_000);
    cfg.cache_capacity = 256;
    cfg.gen_concurrency = 4;
    cfg.batch_cap = cap;
    cfg.lazy_release = true;
    cfg
}

/// One LAN-regime client's processes: 56 % reads of the shared Zipf set,
/// 24 % write-back writes to the client's own files (no two clients ever
/// write one file), 20 % stats; think time uniform on 0–40 µs, far below
/// any round trip, so the op rate is the protocol's latency. Stops after
/// `run_for`, so the settle period adds nothing to the op count.
struct LanGen {
    client: usize,
    zipf: ZipfGen,
    started: Option<LocalNs>,
    run_for: LocalNs,
}

impl OpGen for LanGen {
    fn next_op(
        &mut self,
        rng: &mut rand_chacha::ChaCha8Rng,
        now: LocalNs,
    ) -> Option<(LocalNs, FsOp)> {
        use rand::RngExt;
        let started = *self.started.get_or_insert(now);
        if now.minus(started) >= self.run_for {
            return None;
        }
        let think = LocalNs(rng.random_range(0..=40_000u64));
        let offset = rng.random_range(0..16u64) * LAN_BLOCK as u64;
        let op = match rng.random_range(0..100u32) {
            0..=19 => FsOp::Stat {
                path: format!("/f{}", self.zipf.sample(rng)),
            },
            20..=43 => FsOp::Write {
                path: format!(
                    "/f{}",
                    LAN_SHARED + self.client * LAN_OWN + rng.random_range(0..LAN_OWN)
                ),
                offset,
                data: vec![(offset % 251) as u8; LAN_BLOCK],
            },
            _ => FsOp::Read {
                path: format!("/f{}", self.zipf.sample(rng)),
                offset,
                len: LAN_BLOCK as u32,
            },
        };
        Some((think, op))
    }
}

/// One latency-regime run. Returns (ops ok, control datagrams the server
/// saw, checker violations).
fn run_once(cap: usize, lazy: bool, seed: u64, secs: u64) -> (u64, u64, usize) {
    let mut cluster = Cluster::build(batch_cfg(cap, lazy), seed);
    for i in 0..CLIENTS {
        cluster.attach_workload(i, Box::new(CycleGen::new(i, THINK_MEAN)));
    }
    cluster.run_until(SimTime::from_secs(secs));
    cluster.settle();
    let requests = cluster.server_node().stats().requests;
    let report = cluster.finish();
    (report.check.ops_ok, requests, report.check.violations())
}

/// The negative control's ops/s from its cycle's parts: per write → read
/// → release, one acquire round trip on the control network, a SAN round
/// trip each for the read's fetch and the release's flush (an upper
/// bound: a third of the reads hit the block just written), and three
/// think times. The release's own round trip is not in it: an eager
/// release completes when its `LockRelease` leaves.
fn cycle_rate() -> f64 {
    let cfg = batch_cfg(1, false);
    let rtt = |n: NetParams| 2.0 * (n.latency_ns as f64 + n.jitter_ns as f64 / 2.0);
    let cycle_ns = rtt(cfg.ctl_net) + 2.0 * rtt(cfg.san_net) + 3.0 * THINK_MEAN.0 as f64;
    CLIENTS as f64 * 3.0 / (cycle_ns * 1e-9)
}

/// One stat-storm run. Returns (ops ok, control datagrams the server
/// saw, checker violations).
fn storm_once(cap: usize, seed: u64, secs: u64) -> (u64, u64, usize) {
    let mut cluster = Cluster::build(storm_cfg(cap), seed);
    for i in 0..2 {
        cluster.attach_workload(
            i,
            Box::new(StatStormGen {
                files: 16,
                think_mean: LocalNs::from_millis(1),
            }),
        );
    }
    cluster.run_until(SimTime::from_secs(secs));
    cluster.settle();
    let requests = cluster.server_node().stats().requests;
    let report = cluster.finish();
    (report.check.ops_ok, requests, report.check.violations())
}

/// One LAN-regime run. Returns (ops ok, control datagrams the servers
/// saw, checker violations).
fn lan_once(cap: usize, seed: u64, secs: u64) -> (u64, u64, usize) {
    let mut cluster = Cluster::build(lan_cfg(cap), seed);
    for client in 0..LAN_CLIENTS {
        cluster.attach_workload(
            client,
            Box::new(LanGen {
                client,
                zipf: ZipfGen::new(LAN_SHARED, 1.0, Mix::default()),
                started: None,
                run_for: LocalNs::from_secs(secs),
            }),
        );
    }
    cluster.run_until(SimTime::from_secs(secs + 1));
    cluster.settle();
    let report = cluster.finish();
    (
        report.check.ops_ok,
        report.server.requests,
        report.check.violations(),
    )
}

/// One row of a cap sweep: (batch cap, ops/s, control datagrams per op).
type Row = (usize, f64, f64);

/// Run `once(cap, seed)` — returning (ops ok, control datagrams, checker
/// violations) — over `caps` × `seeds`, with ops/s over `rate_secs` per
/// run. Prints the table; returns its rows and the violation total.
fn sweep(
    caps: &[usize],
    seeds: u64,
    rate_secs: u64,
    once: impl Fn(usize, u64) -> (u64, u64, usize),
) -> (Vec<Row>, usize) {
    let mut table = Table::new(&["batch cap", "ops ok", "ops/sec", "ctl msgs/op"]);
    let mut rows = Vec::new();
    let mut violations = 0usize;
    for &cap in caps {
        let (mut ops_sum, mut req_sum) = (0u64, 0u64);
        for seed in 0..seeds {
            let (ops, reqs, v) = once(cap, seed);
            ops_sum += ops;
            req_sum += reqs;
            violations += v;
        }
        let ops_per_sec = ops_sum as f64 / (seeds * rate_secs) as f64;
        let msgs_per_op = req_sum as f64 / ops_sum.max(1) as f64;
        table.row(vec![
            cap.to_string(),
            ops_sum.to_string(),
            f(ops_per_sec),
            f(msgs_per_op),
        ]);
        rows.push((cap, ops_per_sec, msgs_per_op));
    }
    print!("{}", table.render());
    (rows, violations)
}

/// Virtual seconds `Cluster::settle()` appends after the timed run
/// (2τ + 5 s at τ = 2 s). The workload keeps flowing through it, so the
/// honest rate denominator is `secs + SETTLE_S`, which also makes the
/// reported ops/s independent of the run length.
const SETTLE_S: u64 = 9;

fn main() {
    let (secs, seeds) = (20u64, 10u64);
    let caps: Vec<usize> = vec![1, 2, 4, 8, 16];

    println!("E15 — control-path batching + lazy lock release");
    println!("({secs}s runs, {seeds} seeds per config)");
    println!(
        "ops/sec in every regime is closed-loop, set by its control RTT and think time \
         (latency ~19.5 ms + {} ms, storm ~4 ms + 1 ms, LAN ~250 us + 0-40 us): \
         it compares configs, not server capacity",
        THINK_MEAN.0 / 1_000_000
    );

    let mut t = Table::new(&[
        "batch cap",
        "lazy",
        "ops ok",
        "ops/sec",
        "ctl msgs/op",
        "violations",
    ]);
    let mut total_violations = 0usize;
    let mut baseline = 0.0f64;
    let mut best = 0.0f64;
    let configs: Vec<(usize, bool)> = caps.iter().flat_map(|&c| [(c, false), (c, true)]).collect();
    for &(cap, lazy) in &configs {
        let mut ops_sum = 0u64;
        let mut req_sum = 0u64;
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (ops, reqs, v) = run_once(cap, lazy, seed, secs);
            ops_sum += ops;
            req_sum += reqs;
            violations += v;
        }
        let ops_per_sec = ops_sum as f64 / (seeds * (secs + SETTLE_S)) as f64;
        let msgs_per_op = req_sum as f64 / ops_sum.max(1) as f64;
        if cap == 1 && !lazy {
            baseline = ops_per_sec;
        }
        if cap == 16 && lazy {
            best = ops_per_sec;
        }
        t.row(vec![
            cap.to_string(),
            if lazy { "on" } else { "off" }.to_string(),
            ops_sum.to_string(),
            f(ops_per_sec),
            f(msgs_per_op),
            violations.to_string(),
        ]);
        total_violations += violations;
    }
    let speedup = best / baseline.max(1e-9);
    print!("{}", t.render());

    assert_eq!(total_violations, 0, "checker violations across the sweep");
    println!(
        "sweep: zero checker violations across {} configs × {seeds} seeds",
        configs.len()
    );

    // Negative control: cap 1 + lazy off IS the old wire protocol; it must
    // land within 15 % of what its cycle's parts add up to, so the speedup
    // is measured against the real pre-batching system, not a strawman.
    // 15 % covers the SAN bound and start-up, not a second control round
    // trip per cycle (which would cut the rate nearly in half).
    let expected = cycle_rate();
    assert!(
        (baseline - expected).abs() <= expected * 0.15,
        "negative control drifted from its cycle arithmetic: {baseline:.2} ops/s \
         against {expected:.2}"
    );
    assert!(
        speedup >= 3.0,
        "cap 16 + lazy release must clear 3x the per-op round-trip baseline \
         (got {best:.2} vs {baseline:.2} = {speedup:.2}x)"
    );
    println!();
    println!(
        "latency regime: baseline (cap 1, lazy off) {baseline:.2} ops/s \
         (cycle arithmetic {expected:.2}); best (cap 16, lazy on) {best:.2} ops/s — \
         {speedup:.2}x"
    );
    println!("lazy release keeps the lock held and the cache warm, so the steady-state");
    println!("write/read/release cycle pays zero control round trips.");
    println!();

    // ---- message-load regime: the stat storm. Batching cannot beat
    // overlapped pipelining on latency (the network already carries
    // concurrent singles in parallel); its win is DATAGRAM COUNT — the
    // per-message server cost §1.1's scalability argument cares about.
    let (storm_secs, storm_seeds) = (10u64, 5u64);
    let storm_caps: Vec<usize> = vec![1, 2, 4, 8, 16];
    println!("stat storm (16 concurrent processes/client, metro RTT ~4ms):");
    let (storm_rows, storm_violations) = sweep(
        &storm_caps,
        storm_seeds,
        storm_secs + SETTLE_S,
        |cap, seed| storm_once(cap, seed, storm_secs),
    );
    assert_eq!(storm_violations, 0, "checker violations in the stat storm");
    let storm_base = storm_rows[0];
    let storm_best = *storm_rows.last().unwrap();
    let msg_ratio = storm_best.2 / storm_base.2.max(1e-9);
    assert!(
        storm_best.2 <= 0.30,
        "cap 16 must bring the storm to <= 0.30 control datagrams per op \
         (got {:.3} vs {:.3} at cap 1)",
        storm_best.2,
        storm_base.2
    );
    assert!(
        (storm_best.1 / storm_base.1 - 1.0).abs() <= 0.01,
        "batching must not trade storm throughput for message count \
         ({:.2} vs {:.2} ops/s)",
        storm_best.1,
        storm_base.1
    );
    println!(
        "message load: {:.2} -> {:.2} ctl datagrams/op at cap 16 ({:.1}x fewer), \
         throughput within {:.0}%",
        storm_base.2,
        storm_best.2,
        1.0 / msg_ratio.max(1e-9),
        (1.0 - storm_best.1 / storm_base.1).abs() * 100.0
    );

    // ---- LAN regime: the repo benchmark's shape. Four processes never
    // fill a batch, so a flush rule that waits for company taxes every op
    // (a 500 µs flush timer ran cap 8 at 0.72x cap 1 here); waiting only
    // behind a request already in flight must not.
    let (lan_secs, lan_seeds) = (2u64, 5u64);
    println!();
    println!("LAN (benchmark shape: 8 clients x 4 processes, RTT ~250us, lazy release on):");
    let (lan_rows, lan_violations) = sweep(&storm_caps, lan_seeds, lan_secs, |cap, seed| {
        lan_once(cap, seed, lan_secs)
    });
    assert_eq!(lan_violations, 0, "checker violations in the LAN regime");
    let lan_base = lan_rows[0];
    let lan_cap8 = *lan_rows.iter().find(|r| r.0 == 8).expect("cap 8 row");
    let lan_ratio = lan_cap8.1 / lan_base.1.max(1e-9);
    assert!(
        lan_ratio >= 0.90,
        "batching must not tax a lightly loaded lane: cap 8 ran at {:.2}x cap 1 \
         ({:.0} vs {:.0} ops/s)",
        lan_ratio,
        lan_cap8.1,
        lan_base.1
    );
    println!(
        "latency tax: cap 8 runs at {lan_ratio:.2}x cap 1 ({:.0} vs {:.0} ops/s), \
         {:.2} -> {:.2} ctl datagrams/op",
        lan_cap8.1, lan_base.1, lan_base.2, lan_cap8.2
    );
}
