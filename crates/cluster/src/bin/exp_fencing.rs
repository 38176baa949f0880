//! E5 — §2.1: the inadequacy of fencing, quantified.
//!
//! Fencing-only recovery vs the lease protocol across seeds: count
//! stranded acknowledged writes (lost updates), stale cache reads served
//! to local processes, and honest denials. The lease protocol converts
//! silent corruption into explicit, bounded unavailability.
//!
//! Asserted: fencing-only loses updates while denying nothing; leases
//! lose nothing and every lease run is safe.

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::table::Table;
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_core::LeaseConfig;
use tank_server::RecoveryPolicy;
use tank_sim::{LocalNs, SimTime};

const BS: usize = 512;

fn run(policy: RecoveryPolicy, lease_clients: bool, seed: u64) -> RunReport {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.file_blocks = 8;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = policy;
    cfg.client_lease_enabled = lease_clients;
    let mut cluster = Cluster::build(cfg, seed);
    let ms = LocalNs::from_millis;
    // C0 dirties several blocks, then operates obliviously while isolated.
    let mut c0 = Script::new();
    for b in 0..6u64 {
        c0 = c0.at(
            ms(400 + b * 30),
            FsOp::Write {
                path: "/f0".into(),
                offset: b * BS as u64,
                data: vec![0xA0 + b as u8; BS],
            },
        );
    }
    for k in 0..8u64 {
        c0 = c0
            .at(
                ms(2_200 + k * 700),
                FsOp::Read {
                    path: "/f0".into(),
                    offset: (k % 6) * BS as u64,
                    len: 64,
                },
            )
            .at(
                ms(2_500 + k * 700),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: (k % 6) * BS as u64,
                    data: vec![0xC0 + k as u8; BS],
                },
            );
    }
    let c1 = Script::new()
        .at(
            ms(1_500),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![0xBB; BS],
            },
        )
        .at(
            ms(6_000),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: 64,
            },
        );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control(
        0,
        SimTime::from_millis(1_000),
        Some(SimTime::from_millis(15_000)),
    );
    cluster.run_until(SimTime::from_secs(25));
    cluster.finish()
}

fn main() {
    println!("E5 — fencing-only vs lease+fence under an oblivious isolated writer (5 seeds)");
    let seeds: Vec<u64> = (1..=5).collect();
    let mut t = Table::new(&[
        "policy",
        "lost updates",
        "stale reads",
        "order viol",
        "fence rejections",
        "honest denials",
        "safe runs",
    ]);
    for (label, policy, lease) in [
        (
            "FenceThenSteal (§2.1)",
            RecoveryPolicy::FenceThenSteal,
            false,
        ),
        ("LeaseFence (§3)", RecoveryPolicy::LeaseFence, true),
    ] {
        let runs: Vec<RunReport> = seeds.iter().map(|&seed| run(policy, lease, seed)).collect();
        let total = |f: fn(&RunReport) -> u64| runs.iter().map(f).sum::<u64>();
        let safe = runs.iter().filter(|r| r.check.safe()).count();
        let lost = total(|r| r.check.lost_updates.len() as u64);
        if lease {
            assert!(
                safe == runs.len() && lost == 0,
                "{label}: a lease run was unsafe or lost updates"
            );
        } else {
            assert!(
                lost > 0 && total(|r| r.check.ops_denied) == 0,
                "{label}: fencing-only must lose updates without one honest denial"
            );
        }
        t.row(vec![
            label.into(),
            lost.to_string(),
            total(|r| r.check.stale_reads.len() as u64).to_string(),
            total(|r| r.check.write_order_violations.len() as u64).to_string(),
            total(|r| r.check.fence_rejections).to_string(),
            total(|r| r.check.ops_denied).to_string(),
            format!("{safe}/{}", runs.len()),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("paper §2.1: \"Fencing fails both in that it prevents dirty cache contents from");
    println!("reaching persistent storage, and, it allows fenced clients to operate on stale");
    println!("cached data without detecting or reporting an error.\"");
}
