//! The full-stack simulator half of every workload, and the fault drill.
//!
//! `tank_cluster::Cluster` is the only place the WAL, shards, standbys,
//! the client cache and the SAN sit on a request path today. Figures in
//! simulated time (`sim_ops_per_s`, `unavail_ms`, `failover_ms`) are
//! *protocol* results under the stated network delays: they repeat
//! exactly for a seed and say nothing about hardware. `wall_us_per_op`
//! is real: the single-thread cost of the whole client + server protocol
//! core per file-system op.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_client::fs::Script;
use tank_client::{FsOp, OpGen};
use tank_cluster::workload::{Mix, PrimaryBiasGen, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_obs::Registry;
use tank_proto::{NodeId, ServerId};
use tank_sim::{LocalNs, NetParams, SimTime};

use tank_benchmark::gen::{derive, Workload};
use tank_benchmark::spans::Recorder;

/// Lease period of every simulated cluster.
const TAU: LocalNs = LocalNs(2_000_000_000);
/// Clock-rate bound of every simulated cluster.
const EPSILON: f64 = 0.01;
/// `τ(1+ε)`: no conflicting grant may come sooner after a holder is cut
/// off. An `unavail_ms` below it is a safety failure, not a gain.
pub const UNAVAIL_FLOOR_MS: f64 = 2_020.0;
const BLOCK: usize = 4096;

fn base_config() -> ClusterConfig {
    let lan = |latency_ns| NetParams {
        latency_ns,
        jitter_ns: 50_000,
        drop_prob: 0.0,
        dup_prob: 0.0,
    };
    ClusterConfig {
        block_size: BLOCK,
        file_blocks: 16,
        lease: LeaseConfig {
            epsilon: EPSILON,
            ..LeaseConfig::with_tau(TAU)
        },
        ctl_net: lan(100_000),
        san_net: lan(250_000),
        standbys: true,
        ..ClusterConfig::default()
    }
}

/// Files every client reads (`/f0 …`), never written during a run.
const SHARED: usize = 64;
/// Files each client owns and alone writes.
const OWN: usize = 4;
/// The longest any generator waits before its first op, so the session
/// is up and no op is refused for want of a lease.
const FIRST_OP_DELAY: LocalNs = LocalNs(5_000_000);

/// The cluster each workload's simulator half runs on: 8 clients, 2
/// shards + standbys (`lock`: 4 clients, 1 shard + standby), 16-block
/// files of 4 KiB blocks, control net 100 µs ± 50 µs, SAN 250 µs ±
/// 50 µs, τ = 2 s, ε = 0.01. No two clients ever write the same file
/// (README, "What the simulator workloads avoid").
///
/// * `small` — one process per client issuing `Stat`s, unbatched: one
///   control round trip per op, so the cache, batching, the WAL and the
///   SAN do nothing. The workload a cache/batching/group-commit change
///   must *not* move.
/// * `batch` — the application's view: four processes per client, 56 %
///   reads of the shared Zipf set through a 256-block cache (working
///   set 1 024 blocks: larger than the cache, the Zipf head fits), 24 %
///   write-back writes to the client's own files, 20 % stats; batches
///   of up to 8, lazy release; WAL + group commit + replication.
/// * `lock` — lock churn: each client walks its own files, one I/O then
///   an explicit release, so every op pair is a lock acquire and a
///   release at the server with nothing retained.
fn config(workload: Workload) -> ClusterConfig {
    let mut cfg = base_config();
    cfg.clients = if workload == Workload::Lock { 4 } else { 8 };
    cfg.shards = if workload == Workload::Lock { 1 } else { 2 };
    cfg.files = SHARED + cfg.clients * OWN;
    cfg.cache_capacity = 256;
    cfg.gen_concurrency = if workload == Workload::Batch { 4 } else { 1 };
    if workload == Workload::Batch {
        cfg.batch_cap = 8;
        cfg.lazy_release = true;
    }
    cfg
}

/// Closed-loop generator of one client's processes. Think time is
/// uniform on 0–40 µs — far below any round trip — so the op rate is
/// set by the protocol's latency, not by the generator: that is what
/// makes `sim_ops_per_s` a protocol result.
struct FsGen {
    workload: Workload,
    client: usize,
    zipf: ZipfGen,
    /// Local time of the first call, and how long after it to stop.
    started: Option<LocalNs>,
    run_for: LocalNs,
    steps: u64,
}

impl FsGen {
    fn own_file(&self, k: u64) -> String {
        format!("/f{}", SHARED + self.client * OWN + (k as usize % OWN))
    }
}

impl OpGen for FsGen {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let started = *self.started.get_or_insert(now);
        if now.0 - started.0 >= self.run_for.0 {
            // Stop issuing so the cluster can settle and be audited.
            return None;
        }
        let think = if self.steps == 0 {
            FIRST_OP_DELAY
        } else {
            LocalNs(rng.random_range(0..=40_000u64))
        };
        self.steps += 1;
        let shared = |rng: &mut ChaCha8Rng| format!("/f{}", self.zipf.sample(rng));
        let offset = rng.random_range(0..16u64) * BLOCK as u64;
        let write = |path: String| FsOp::Write {
            path,
            offset,
            data: vec![(offset % 251) as u8; BLOCK],
        };
        let read = |path: String| FsOp::Read {
            path,
            offset,
            len: BLOCK as u32,
        };
        let op = match self.workload {
            Workload::Small => FsOp::Stat { path: shared(rng) },
            Workload::Batch => match rng.random_range(0..100u32) {
                0..=19 => FsOp::Stat { path: shared(rng) },
                20..=43 => write(self.own_file(rng.random_range(0..OWN as u64))),
                _ => read(shared(rng)),
            },
            // I/O on an own file, then release it; next pair, next file.
            Workload::Lock => {
                let path = self.own_file((self.steps - 1) / 2);
                if self.steps.is_multiple_of(2) {
                    FsOp::Release { path }
                } else if rng.random_bool(0.5) {
                    write(path)
                } else {
                    read(path)
                }
            }
        };
        Some((think, op))
    }
}

fn attach(cluster: &mut Cluster, workload: Workload, run_for: LocalNs) {
    for client in 0..cluster.clients.len() {
        cluster.attach_workload(
            client,
            Box::new(FsGen {
                workload,
                client,
                zipf: ZipfGen::new(SHARED, 1.0, Mix::default()),
                started: None,
                run_for,
                steps: 0,
            }),
        );
    }
}

/// Simulated seconds per timed slice, per second of `--seconds`: sized so
/// the timed slices together cost about 10 % of the run in wall time on
/// the reference box. A constant, not a measurement, so the simulated
/// figures repeat exactly for a seed.
fn sim_secs_per_run_sec(workload: Workload) -> f64 {
    match workload {
        Workload::Small => 0.06,
        Workload::Batch => 0.011,
        Workload::Lock => 0.13,
    }
}

/// One timed slice of simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimSlice {
    /// File-system ops acknowledged in the slice.
    pub ops: u64,
    /// Simulated time it covers, nanoseconds.
    pub sim_ns: u64,
    /// Wall time `Cluster::run_until` took.
    pub wall: Duration,
    /// Simulator events processed.
    pub events: u64,
}

/// One cluster's life: build, a discarded cold slice, timed slices,
/// settle, audit.
pub struct SimRound {
    /// `Cluster::build` plus attaching the generators (the sim share of
    /// `setup_s`).
    pub setup: Duration,
    /// The timed slices.
    pub slices: Vec<SimSlice>,
    /// The run's report, harvested after settling.
    pub report: RunReport,
    /// Per-shard requests executed (for `shard.imbalance`).
    pub shard_requests: Vec<u64>,
    /// WAL appends and fsyncs over all shards.
    pub wal: (u64, u64),
    /// Registry snapshot when the round was observed (traced runs).
    pub registry: Option<tank_obs::Snapshot>,
    /// Everything the output checks found wrong.
    pub violations: Vec<String>,
}

fn completed(cluster: &Cluster) -> u64 {
    (0..cluster.clients.len())
        .map(|i| cluster.client(i).stats().completed)
        .sum()
}

/// What must be empty after any run, as text.
fn audit(report: &RunReport) -> Vec<String> {
    let c = &report.check;
    let mut v = Vec::new();
    let mut list = |name: &str, n: usize| {
        if n > 0 {
            v.push(format!("{n} {name}"));
        }
    };
    list("lost updates", c.lost_updates.len());
    list("stale reads", c.stale_reads.len());
    list("write-order violations", c.write_order_violations.len());
    list("early grants", c.early_grants.len());
    list("cross-shard lock events", c.cross_shard.len());
    list("batch-atomicity violations", c.batch_atomicity.len());
    list("coherence violations", c.coherence.len());
    list(
        "dirty blocks discarded at expiry",
        c.dirty_discarded as usize,
    );
    v
}

/// Run one round of `workload`'s simulator half. `observed` attaches an
/// obs registry (traced runs only: the timed runs measure the core with
/// checker, trace, hb and obs all off the path) and enables
/// `Cluster::cross_check`. Spans go to `rec`.
pub fn round(
    workload: Workload,
    seed: u64,
    run_seconds: f64,
    slices: usize,
    observed: bool,
    rec: &mut Recorder,
) -> SimRound {
    let registry = observed.then(|| Arc::new(Registry::new()));
    let mut cfg = config(workload);
    cfg.obs = registry.clone();

    rec.enter("cluster.build");
    let t = Instant::now();
    let mut cluster = Cluster::build(cfg, seed);
    let slice_ns = (sim_secs_per_run_sec(workload) * run_seconds * 1e9) as u64;
    // Slice 0 is cold (sessions, first locks, cache fill): half length,
    // discarded. The generators stop just after the last slice — 2 %
    // late on their own clocks, which may run 1 % slow.
    let issuing_ns = FIRST_OP_DELAY.0 + slice_ns / 2 + slices as u64 * slice_ns;
    attach(
        &mut cluster,
        workload,
        LocalNs(issuing_ns + issuing_ns / 50),
    );
    let setup = t.elapsed();
    rec.exit();

    let mut out = Vec::with_capacity(slices);
    for i in 0..=slices {
        let (ops0, events0) = (completed(&cluster), cluster.world.events_processed());
        let len = if i == 0 {
            FIRST_OP_DELAY.0 + slice_ns / 2
        } else {
            slice_ns
        };
        let until = cluster.world.now().after(len);
        rec.set_trace(i as u64);
        rec.enter("cluster.run_until");
        let t = Instant::now();
        cluster.run_until(until);
        let wall = t.elapsed();
        rec.exit();
        if i > 0 {
            out.push(SimSlice {
                ops: completed(&cluster) - ops0,
                sim_ns: slice_ns,
                wall,
                events: cluster.world.events_processed() - events0,
            });
        }
    }

    rec.enter("cluster.settle");
    cluster.settle();
    rec.exit();
    rec.enter("cluster.finish");
    let report = cluster.finish();
    rec.exit();

    let mut violations = audit(&report);
    if observed {
        violations.extend(cluster.cross_check());
    }
    let shards = cluster.servers.len();
    let shard_requests = (0..shards)
        .map(|s| cluster.server_node_of(ServerId(s as u16)).stats().requests)
        .collect();
    let wal = (0..shards)
        .map(|s| cluster.server_node_of(ServerId(s as u16)).wal_stats())
        .fold((0, 0), |(a, f), w| (a + w.appends, f + w.fsyncs));
    SimRound {
        setup,
        slices: out,
        report,
        shard_requests,
        wal,
        registry: registry.map(|r| r.snapshot()),
        violations,
    }
}

/// Closed-loop `Create`s of fresh top-level names: every one is a
/// metadata mutation the server must log and acknowledge, so the first
/// to succeed after a crash marks the moment service is back.
struct CreateGen {
    next: u64,
}

impl OpGen for CreateGen {
    fn next_op(&mut self, _: &mut ChaCha8Rng, _: LocalNs) -> Option<(LocalNs, FsOp)> {
        self.next += 1;
        Some((
            LocalNs::from_millis(5),
            FsOp::Create {
                path: format!("/n{}", self.next),
            },
        ))
    }
}

/// When the drill cuts client 0's control network.
const PARTITION_AT: SimTime = SimTime(4_000_000_000);
/// When the drill crashes the primary for good.
const CRASH_AT: SimTime = SimTime(12_000_000_000);
/// When the drill stops issuing.
const DRILL_END: SimTime = SimTime(22_000_000_000);

/// One fault drill's outcome.
#[derive(Debug, Clone)]
pub struct DrillRun {
    /// Control partition of the lock holder → the waiter's conflicting
    /// acquire granted, simulated milliseconds.
    pub unavail_ms: Option<f64>,
    /// Primary crash → first mutation acknowledged by the promoted
    /// standby, simulated milliseconds.
    pub failover_ms: Option<f64>,
    /// `server.steal_latency_ns` median, when observed.
    pub steal_latency_ns: Option<u64>,
    /// Violations the audit found.
    pub violations: Vec<String>,
}

/// The paper's central scenario (Figure 2) followed by a failover: 4
/// clients, 1 shard + standby, τ = 2 s, ε = 0.01. Client 0 writes `/f0`
/// and holds it `Exclusive` with dirty blocks cached; at 4 s its
/// *control* network is cut (the SAN stays up) and 100 ms later client 1
/// writes `/f0`; client 2 keeps writing its own file and client 3
/// creates files in a closed loop; at 12 s the primary crashes and never
/// returns. `gate` off is the negative control.
pub fn drill(seed: u64, gate: bool, observed: bool) -> DrillRun {
    let registry = observed.then(|| Arc::new(Registry::new()));
    let mut cfg = base_config();
    cfg.clients = 4;
    cfg.shards = 1;
    cfg.files = 4;
    cfg.phase3_gate = gate;
    cfg.obs = registry.clone();
    let mut cluster = Cluster::build(cfg, seed);

    let write = |path: &str, fill: u8| FsOp::Write {
        path: path.into(),
        offset: 0,
        data: vec![fill; 4 * BLOCK],
    };
    let ms = LocalNs::from_millis;
    // The holder keeps rewriting its file right up to (and, on its own
    // clock, past) the partition, so its cache is dirty when cut off.
    let mut holder = Script::new();
    for k in 0..40u64 {
        holder = holder.at(ms(500 + 100 * k), write("/f0", k as u8));
    }
    cluster.attach_script(0, holder);
    cluster.attach_script(1, Script::new().at(ms(4_100), write("/f0", 0xBB)));
    let writer = Mix {
        read_frac: 0.3,
        meta_frac: 0.0,
        io_size: BLOCK as u32,
        max_offset: 16 * BLOCK as u64,
        think_mean: ms(2),
    };
    cluster.attach_workload(2, Box::new(PrimaryBiasGen::new(2, 4, 1.0, writer)));
    cluster.attach_workload(3, Box::new(CreateGen { next: 0 }));

    cluster.isolate_control(0, PARTITION_AT, None);
    cluster.crash_shard_with_failover(ServerId(0), CRASH_AT);
    cluster.run_until(DRILL_END);
    cluster.settle();
    let report = cluster.finish();

    let waiter: NodeId = cluster.clients[1];
    let unavail_ms = report
        .check
        .unavailability
        .iter()
        .filter(|w| w.client == waiter && w.from >= PARTITION_AT)
        .find_map(|w| w.until)
        .map(|t| (t.0 - PARTITION_AT.0) as f64 / 1e6);
    // The first `Create` *submitted* after the crash to succeed: one in
    // flight at the crash may have been acknowledged by the old primary.
    let creator: NodeId = cluster.clients[3];
    let mut after_crash = std::collections::HashSet::new();
    let failover_ms = cluster
        .world
        .observations()
        .iter()
        .filter(|(t, node, _)| *t >= CRASH_AT && *node == creator)
        .find_map(|(t, _, ev)| match ev {
            Event::OpSubmitted { op, .. } => {
                after_crash.insert(*op);
                None
            }
            Event::OpCompleted { op, ok: true, .. } if after_crash.contains(op) => Some(*t),
            _ => None,
        })
        .map(|t| (t.0 - CRASH_AT.0) as f64 / 1e6);

    let mut violations = audit(&report);
    if observed {
        violations.extend(cluster.cross_check());
    }
    match unavail_ms {
        None => violations.push("the waiter was never granted the contested file".into()),
        Some(ms) if ms < UNAVAIL_FLOOR_MS => violations.push(format!(
            "contested file re-granted after {ms} ms, before τ(1+ε) = {UNAVAIL_FLOOR_MS} ms"
        )),
        Some(_) => {}
    }
    if failover_ms.is_none() {
        violations.push("no mutation was acknowledged after the primary crashed".into());
    }
    let elections = cluster.standby_node_of(ServerId(0)).stats().elections;
    if elections != 1 {
        violations.push(format!("{elections} elections, expected exactly 1"));
    }
    DrillRun {
        unavail_ms,
        failover_ms,
        steal_latency_ns: registry.and_then(|r| {
            r.snapshot()
                .histogram("server.steal_latency_ns")?
                .quantile(0.5)
        }),
        violations,
    }
}

/// Inner seeds of a run's fault drills, derived from `--seed` and the
/// workload (so the three workloads are three independent samples).
pub fn drill_seeds(seed: u64, workload: Workload, n: usize) -> Vec<u64> {
    let base = 0x0400 + 0x100 * workload as u64;
    (0..n as u64).map(|k| derive(seed, base + k)).collect()
}
