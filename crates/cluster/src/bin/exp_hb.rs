//! E18 — the happens-before race auditor driven end to end.
//!
//! Theorem 3.1 is an ordering claim; `tank_consistency::hb` checks the
//! ordering itself (not just its visible consequences) by assigning
//! vector clocks to the simulator's causal log and sweeping every
//! conflicting block access. This binary drives it through three
//! batteries:
//!
//! 1. **clean scenarios** — a shared-cache revoke storm, a client crash
//!    whose lock is stolen behind a fence, and a server fail-stop +
//!    restart: the auditor must report **zero** racy pairs on every
//!    seed;
//! 2. **the negative control** — the same fenced steal with the fence
//!    edge family severed from the graph: the auditor must fire (the
//!    rule is live, not vacuously satisfied);
//! 3. **the open-item-1 repro** — ROADMAP's stale-read window (lossy
//!    control net + `crash_server(8s→9s)` + primary-biased writers,
//!    seeds 0/3/6). The auditor *localized* this bug by exonerating the
//!    ordering: every checker symptom was same-client and po-ordered, so
//!    the defect had to be tag accounting, not a missing happens-before
//!    edge. It was: a dropped upgrade reply left a stale pending acquire
//!    whose dedup-window replay reinstated a released epoch with
//!    `wseq = 0` (non-monotone tags). Fixed by ending the inode's lock
//!    era (`bump_gen`) in the client's `on_released`. The repro now runs
//!    as a regression battery: both the checker and the auditor must
//!    come back clean on every seed.

use std::sync::Arc;

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::workload::{HotFileGen, Mix, PrimaryBiasGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::HbReport;
use tank_core::LeaseConfig;
use tank_obs::Registry;
use tank_sim::{LocalNs, NetParams, SimTime};

const BS: usize = 512;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn base_cfg(clients: usize, files: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = clients;
    cfg.files = files;
    cfg.file_blocks = 4;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.record_hb = true;
    cfg
}

fn full_write(path: &str, fill: u8) -> FsOp {
    FsOp::Write {
        path: path.into(),
        offset: 0,
        data: vec![fill; BS * 4],
    }
}

fn read_one(path: &str) -> FsOp {
    FsOp::Read {
        path: path.into(),
        offset: 0,
        len: BS as u32,
    }
}

/// Shared-read caches revoked by a writer mid-storm: every
/// harden/read/grant pair must be ordered by the release→grant chains.
fn storm(seed: u64) -> (Cluster, HbReport) {
    let registry = Arc::new(Registry::new());
    let mut cfg = base_cfg(3, 1);
    cfg.obs = Some(registry);
    let mut cluster = Cluster::build(cfg, seed);
    cluster.attach_script(
        0,
        Script::new()
            .at(ms(500), full_write("/f0", 0x11))
            .at(ms(4_000), full_write("/f0", 0x22)),
    );
    let mix = Mix {
        read_frac: 1.0,
        meta_frac: 0.0,
        io_size: BS as u32,
        max_offset: 4 * BS as u64,
        think_mean: ms(5),
    };
    for i in 1..3 {
        cluster.attach_workload(i, Box::new(HotFileGen::new("/f0", mix)));
    }
    cluster.run_until(SimTime::from_secs(8));
    cluster.settle();
    let report = cluster.hb_audit();
    (cluster, report)
}

/// A client hardens a block while cut off from the control network, then
/// dies; the server lease-fences it and re-grants. With no keep-alive
/// after the flush (control severed first) and no lane quiesce (crashed
/// before client-side expiry), the fence round-trip is the *only* thing
/// ordering the dead client's harden before the next holder's accesses —
/// which is exactly what makes it the negative-control scenario.
fn fenced_steal(seed: u64) -> Cluster {
    let cfg = base_cfg(2, 1);
    let mut cluster = Cluster::build(cfg, seed);
    // Timeline: write acked at 400ms; control severed at 1.5s (last
    // server contact precedes the write-back); the periodic flush tick
    // hardens the block at ~2s over the healthy SAN; crash at 2.5s,
    // before the 2s lease expires on the client's own clock.
    cluster.attach_script(0, Script::new().at(ms(400), full_write("/f0", 0xD1)));
    cluster.attach_script(
        1,
        Script::new()
            .at(ms(6_500), read_one("/f0"))
            .at(ms(7_000), full_write("/f0", 0xD2)),
    );
    cluster.isolate_control(0, SimTime::from_millis(1_500), None);
    cluster.crash_client(0, SimTime::from_millis(2_500), None);
    cluster.run_until(SimTime::from_secs(12));
    cluster.settle();
    cluster
}

/// Server fail-stop + restart under write contention (no loss): the
/// recovery grace window, not a fence, orders pre-crash work before
/// post-recovery grants.
fn restart(seed: u64) -> (Cluster, HbReport) {
    let mut cfg = base_cfg(3, 3);
    cfg.disks = 2;
    cfg.gen_concurrency = 4;
    let mut cluster = Cluster::build(cfg, seed);
    let mix = Mix {
        read_frac: 0.4,
        meta_frac: 0.05,
        io_size: BS as u32,
        max_offset: 1536,
        think_mean: ms(8),
    };
    for i in 0..3 {
        cluster.attach_workload(i, Box::new(PrimaryBiasGen::new(i, 3, 0.8, mix)));
    }
    cluster.crash_server(SimTime::from_secs(8), SimTime::from_millis(9_500));
    cluster.run_until(SimTime::from_secs(20));
    cluster.settle();
    let report = cluster.hb_audit();
    (cluster, report)
}

/// ROADMAP open item 1 (resolved): lossy control network + server
/// crash/restart. The scenario that reproduced the stale-epoch revival
/// bug, kept as a regression battery.
fn open_item_1(seed: u64) -> (Cluster, HbReport) {
    let mut cfg = base_cfg(3, 3);
    cfg.gen_concurrency = 4;
    cfg.ctl_net = NetParams {
        latency_ns: 300_000,
        jitter_ns: 400_000,
        drop_prob: 0.05,
        dup_prob: 0.02,
    };
    let mut cluster = Cluster::build(cfg, seed);
    let mix = Mix {
        think_mean: ms(10),
        ..Mix::default()
    };
    for i in 0..3 {
        cluster.attach_workload(i, Box::new(PrimaryBiasGen::new(i, 3, 0.8, mix)));
    }
    cluster.crash_server(SimTime::from_secs(8), SimTime::from_secs(9));
    cluster.run_until(SimTime::from_secs(30));
    cluster.settle();
    let report = cluster.hb_audit();
    (cluster, report)
}

fn main() {
    let seeds = 6u64;
    println!("# E18 happens-before auditor ({seeds} seeds per battery)");

    println!("## clean: shared-cache revoke storm");
    for seed in 0..seeds {
        let (_, report) = storm(seed);
        println!("seed {seed}: {}", report.summary());
        assert!(report.ok(), "seed {seed}:\n{}", report.render());
        assert!(
            report.pairs_checked > 0,
            "seed {seed}: the storm produced no conflicting pairs to audit"
        );
    }

    println!("## clean: fenced steal after client crash");
    for seed in 0..seeds {
        let cluster = fenced_steal(seed);
        let report = cluster.hb_audit();
        println!("seed {seed}: {}", report.summary());
        assert!(report.ok(), "seed {seed}:\n{}", report.render());

        // Negative control: sever the fence edges and re-audit the same
        // causal log. The fence is the only edge ordering the dead
        // client's harden before the next holder, so the pair must come
        // apart.
        let mut severed = cluster.hb_options();
        severed.fence_edges = false;
        let fired = cluster.hb_audit_with(&severed);
        println!("seed {seed} (fence severed): {}", fired.summary());
        assert!(
            !fired.ok(),
            "seed {seed}: negative control did not fire: severing fence edges left the steal ordered"
        );
    }

    println!("## clean: server fail-stop + restart");
    for seed in 0..seeds {
        let (_, report) = restart(seed);
        println!("seed {seed}: {}", report.summary());
        assert!(report.ok(), "seed {seed}:\n{}", report.render());
    }

    println!("## open item 1 regression (lossy net + crash_server 8s→9s)");
    for seed in [0u64, 3, 6] {
        let (mut cluster, report) = open_item_1(seed);
        let check = cluster.finish().check;
        println!(
            "seed {seed}: {} | checker: {} stale reads, {} write-order violations",
            report.summary(),
            check.stale_reads.len(),
            check.write_order_violations.len(),
        );
        assert!(report.ok(), "seed {seed}:\n{}", report.render());
        assert!(
            check.stale_reads.is_empty() && check.write_order_violations.is_empty(),
            "seed {seed}: open item 1 regressed — the stale-epoch revival is back \
             ({} stale reads, {} write-order violations)",
            check.stale_reads.len(),
            check.write_order_violations.len(),
        );
    }
    println!("ok");
}
