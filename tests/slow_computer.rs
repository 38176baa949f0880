//! §6: "the lease-based safety protocol [assumes] computers do not exhibit
//! partial failure by executing commands slowly ... To address slow
//! computers, we use fencing in addition to the lease protocol. ... The
//! fence prevents late commands, from a slow computer, from accessing the
//! disk after locks are stolen."
//!
//! A client turns slow while holding a dirty exclusive lock: every
//! datagram it sends is delayed. Half a second is absorbed by the demand
//! ladder: its answers arrive late but in time, and nothing is stolen.
//! From 2 s up its phase-4 flush writes are still in flight when the
//! server's τ(1+ε) timer fires. With fencing, those late SAN writes
//! bounce; without it (steal-only), they land on top of the new holder's
//! data.

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_core::LeaseConfig;
use tank_server::RecoveryPolicy;
use tank_sim::{LocalNs, SimTime};

const BS: usize = 512;

/// Outbound delays past the steal horizon.
const LATE_MS: [u64; 2] = [2_000, 8_000];

fn slow_writer_scenario(policy: RecoveryPolicy, delay_ms: u64) -> (Cluster, RunReport) {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = policy;
    let mut cluster = Cluster::build(cfg, 77);
    let ms = LocalNs::from_millis;
    let c0 = Script::new().at(
        ms(500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![0xAA; BS],
        },
    );
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
            ms(9_000),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: 16,
            },
        );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    // The slow computer: outbound datagrams take `delay_ms` extra from
    // t=0.6s. Its control messages stall too (so its lease lapses), and
    // its phase-4 flush writes crawl toward the disks.
    cluster.slow_client(0, SimTime::from_millis(600), delay_ms * 1_000_000, None);
    cluster.run_until(SimTime::from_secs(20));
    let report = cluster.finish();
    (cluster, report)
}

#[test]
fn a_delay_inside_the_demand_ladder_is_harmless() {
    for policy in [RecoveryPolicy::LeaseFence, RecoveryPolicy::StealImmediately] {
        let (_cluster, report) = slow_writer_scenario(policy, 500);
        assert!(report.check.safe(), "{policy:?}: {:#?}", report.check);
        assert_eq!(report.check.fence_rejections, 0, "{policy:?}");
        assert_eq!(
            report.server.locks_stolen, 0,
            "{policy:?}: nothing to steal"
        );
    }
}

#[test]
fn fencing_stops_the_late_commands_of_a_slow_computer() {
    for delay_ms in LATE_MS {
        let (_cluster, report) = slow_writer_scenario(RecoveryPolicy::LeaseFence, delay_ms);
        // The slow client's late flush writes bounced off the fence...
        assert!(
            report.check.fence_rejections > 0,
            "+{delay_ms}ms: late SAN writes must hit the fence: {:#?}",
            report.check
        );
        // ...so the on-disk history never goes backwards.
        assert!(
            report.check.write_order_violations.is_empty(),
            "+{delay_ms}ms: {:#?}",
            report.check.write_order_violations
        );
        // And C1 is working with the file.
        assert!(report.server.locks_stolen >= 1, "+{delay_ms}ms");
    }
}

#[test]
fn without_fencing_the_late_commands_corrupt() {
    // Same slow computer, steal-only recovery: the late write lands after
    // the new holder's newer data hardened.
    for delay_ms in LATE_MS {
        let (_cluster, report) = slow_writer_scenario(RecoveryPolicy::StealImmediately, delay_ms);
        assert!(
            !report.check.write_order_violations.is_empty(),
            "+{delay_ms}ms: §6's late command must corrupt without a fence: {:#?}",
            report.check
        );
    }
}
