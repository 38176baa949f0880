//! E2 — Figure 4: the four phases of the lease period.
//!
//! Part a: phase occupancy of an active vs an idle-but-caching vs an
//! isolated client over one lease period (sampled on the client's clock).
//!
//! Part b: phase-4 flush completion — how much dirty data an isolated
//! client can harden before expiry, as a function of dirty-cache size.
//! Phase 4 is 15% of τ by default; past its SAN bandwidth the client
//! starts losing acknowledged writes, which is the sizing guidance the
//! phase fractions exist for.
//!
//! Asserted: the active client never leaves phase 1, the isolated client
//! walks the phases in order, and every block hardens at ≤ 256 dirty
//! blocks.

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::table::{f, Table};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::{ClientLease, LeaseConfig, Phase};
use tank_proto::ReqSeq;
use tank_server::RecoveryPolicy;
use tank_sim::{LocalNs, SimTime};

fn phase_timeline() {
    println!("E2a — phase vs time-into-lease (τ=10s; boundaries 40%/70%/85%)");
    let cfg = LeaseConfig::default();
    let mut active = ClientLease::new(cfg);
    let mut isolated = ClientLease::new(cfg);
    // Both obtain a lease at t=0.
    for (i, l) in [&mut active, &mut isolated].into_iter().enumerate() {
        l.on_send(ReqSeq(i as u64 + 1), LocalNs(0));
        l.on_ack(ReqSeq(i as u64 + 1), LocalNs(1_000_000));
    }
    let mut t = Table::new(&["t (s)", "active client", "isolated client"]);
    let mut seq = 100u64;
    let mut walked: Vec<Phase> = Vec::new();
    for step in 0..=22 {
        let now = LocalNs(step * 500_000_000); // 0.5s steps
                                               // The active client does an op every step and gets it ACKed.
        seq += 1;
        active.on_send(ReqSeq(seq), now);
        active.on_ack(ReqSeq(seq), now.plus(LocalNs(500_000)));
        let _ = active.poll(now);
        let _ = isolated.poll(now);
        assert_eq!(
            active.phase(now),
            Phase::Valid,
            "the active client left phase 1"
        );
        if walked.last() != Some(&isolated.phase(now)) {
            walked.push(isolated.phase(now));
        }
        t.row(vec![
            f(now.as_secs_f64()),
            format!("{:?}", active.phase(now)),
            format!("{:?}", isolated.phase(now)),
        ]);
        if isolated.phase(now) == Phase::Expired && step > 20 {
            break;
        }
    }
    print!("{}", t.render());
    assert_eq!(
        walked,
        [
            Phase::Valid,
            Phase::Renewal,
            Phase::Suspect,
            Phase::ExpectedFailure,
            Phase::Expired
        ],
        "the isolated client's phases out of order"
    );
}

/// Phase-4 flush completion vs dirty-cache size: isolate a client holding
/// `dirty_blocks` dirty blocks and count how many were hardened before its
/// cache invalidation.
fn flush_completion(dirty_blocks: u32, seed: u64) -> (usize, usize) {
    const BS: usize = 4096;
    let mut cfg = ClusterConfig::default();
    cfg.clients = 1;
    cfg.files = 1;
    cfg.file_blocks = dirty_blocks;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.policy = RecoveryPolicy::LeaseFence;
    // Slow SAN so large flushes genuinely take time: 2ms/op one way,
    // queue depth 4, and no periodic flush (isolate phase 4's work).
    cfg.san_net = tank_sim::NetParams {
        latency_ns: 2_000_000,
        jitter_ns: 200_000,
        drop_prob: 0.0,
        dup_prob: 0.0,
    };
    cfg.flush_interval = LocalNs(0);
    cfg.flush_window = 4;
    let mut cluster = Cluster::build(cfg, seed);
    // Dirty the whole file just before the partition; periodic flush is
    // slower than the partition, so phase 4 does the work.
    let mut script = Script::new();
    for b in 0..dirty_blocks {
        script = script.at(
            LocalNs::from_millis(500 + b as u64 / 4),
            FsOp::Write {
                path: "/f0".into(),
                offset: b as u64 * BS as u64,
                data: vec![b as u8; BS],
            },
        );
    }
    cluster.attach_script(0, script);
    cluster.isolate_control(0, SimTime::from_millis(1_600), None);
    cluster.run_until(SimTime::from_secs(12));
    let report = cluster.finish();
    let discarded = report.check.dirty_discarded as usize;
    (
        dirty_blocks as usize - discarded.min(dirty_blocks as usize),
        dirty_blocks as usize,
    )
}

fn main() {
    phase_timeline();
    println!();
    println!("E2b — phase-4 flush completion vs dirty cache (τ=2s ⇒ phase 4 ≈ 300ms; SAN 2ms/block write)");
    let mut t = Table::new(&["dirty blocks", "hardened before expiry", "fraction"]);
    for n in [64u32, 128, 256, 384, 512, 768, 1024] {
        let (done, total) = flush_completion(n, 5);
        assert!(
            n > 256 || done == total,
            "{n} dirty blocks: only {done} hardened before expiry"
        );
        t.row(vec![
            n.to_string(),
            done.to_string(),
            f(done as f64 / total as f64),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("paper §3.2: \"By the end of phase 4, no dirty pages should remain. If this is");
    println!("true, the contents of the client cache are completely consistent with the");
    println!("hardened copy\" — the fraction column shows where that sizing assumption breaks.");
}
