//! Server fail-stop recovery scenarios: the metadata server crashes and
//! restarts mid-run, losing all volatile state (sessions, locks, lease
//! bookkeeping) while metadata and fence state survive on the shared
//! disks. With the recovery grace window enabled (the default), the
//! restarted server refuses grants, and the mutations it admits against
//! its lock table, for τ(1+ε), so every lease that might have been
//! outstanding at the crash expires on its holder's own clock — and that
//! holder quiesces and flushes — before any conflicting grant can be
//! issued. The checker must find zero lost updates, zero stale reads,
//! and zero grants inside the window, across every seed. The negative
//! control (grace disabled) must grant inside the would-be window on
//! every seed.

use tank_client::fs::{FsResult, Script};
use tank_client::{FsData, FsErr, FsOp};
use tank_cluster::workload::{Mix, PrimaryBiasGen};
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_core::LeaseConfig;
use tank_sim::{LocalNs, SimTime};

fn base_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 3;
    cfg.disks = 2;
    cfg.files = 3;
    cfg.file_blocks = 4;
    cfg.block_size = 512;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.gen_concurrency = 4;
    cfg
}

fn attach_contending_workloads(cluster: &mut Cluster) {
    let mix = Mix {
        read_frac: 0.4,
        meta_frac: 0.05,
        io_size: 512,
        max_offset: 1536,
        think_mean: LocalNs::from_millis(8),
    };
    for i in 0..3 {
        cluster.attach_workload(i, Box::new(PrimaryBiasGen::new(i, 3, 0.8, mix)));
    }
}

fn run_to_end(cluster: &mut Cluster) -> RunReport {
    cluster.run_until(SimTime::from_secs(25));
    cluster.settle();
    cluster.finish()
}

#[test]
fn crash_of_an_idle_server_recovers_cleanly() {
    for seed in 0..10u64 {
        let mut cluster = Cluster::build(base_cfg(), seed);
        // No workload: clients just hold their leases via keep-alives.
        cluster.crash_server(SimTime::from_secs(3), SimTime::from_secs(7));
        let report = run_to_end(&mut cluster);
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(
            report.check.server_recoveries, 1,
            "seed {seed}: grace window announced"
        );
        assert_eq!(
            report.server.recoveries, 1,
            "seed {seed}: server counted its restart"
        );
    }
}

#[test]
fn crash_with_locks_held_loses_no_updates() {
    for seed in 0..10u64 {
        let mut cluster = Cluster::build(base_cfg(), seed);
        attach_contending_workloads(&mut cluster);
        // Crash under full write load — locks held, caches dirty — and
        // restart quickly, well before the holders' leases expire.
        cluster.crash_server(SimTime::from_secs(8), SimTime::from_secs(9));
        let report = run_to_end(&mut cluster);
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.check.server_recoveries, 1, "seed {seed}");
        assert!(
            report.check.ops_ok > 20,
            "seed {seed}: progress resumed after recovery"
        );
        assert!(
            report.server.recovery_nacks > 0 || report.check.ops_ok > 0,
            "seed {seed}: the grace window actually gated work"
        );
    }
}

#[test]
fn crash_concurrent_with_a_client_partition_is_safe() {
    for seed in 0..10u64 {
        let mut cluster = Cluster::build(base_cfg(), seed);
        attach_contending_workloads(&mut cluster);
        // Client 0 is already cut off when the server dies; it heals
        // only after the grace window has closed.
        cluster.isolate_control(0, SimTime::from_secs(6), Some(SimTime::from_secs(14)));
        cluster.crash_server(SimTime::from_secs(7), SimTime::from_secs(9));
        let report = run_to_end(&mut cluster);
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.check.server_recoveries, 1, "seed {seed}");
    }
}

#[test]
fn restart_before_and_after_client_lease_expiry_are_both_safe() {
    // τ = 2s on the clients' clocks: a 500ms outage restarts the server
    // while every pre-crash lease is still live; a 5s outage restarts it
    // after they have all expired and flushed locally. The grace window
    // must make both interleavings safe.
    for seed in 0..10u64 {
        for restart_delay_ms in [500u64, 5_000] {
            let crash = SimTime::from_secs(8);
            let mut cluster = Cluster::build(base_cfg(), seed);
            attach_contending_workloads(&mut cluster);
            cluster.crash_server(crash, crash.after(restart_delay_ms * 1_000_000));
            let report = run_to_end(&mut cluster);
            assert!(
                report.check.safe(),
                "seed {seed}, restart +{restart_delay_ms}ms: {:#?}",
                report.check
            );
            assert_eq!(report.check.server_recoveries, 1, "seed {seed}");
            assert!(
                report.check.ops_ok > 20,
                "seed {seed}: progress after recovery"
            );
        }
    }
}

#[test]
fn restart_under_heavy_duplication_replays_at_most_once() {
    // Regression for the restart-replay hole: session ids were volatile,
    // so a reborn server could mint a session id still held by a
    // surviving client and admit stale duplicates of that client's
    // pre-crash requests into the fresh at-most-once window. The WAL's
    // `SessionWatermark` records (appended at every Hello, restored on
    // replay) keep post-crash ids strictly above every pre-crash id.
    // 15% duplication plus a mid-run crash/restart hammers exactly that
    // path: every duplicate must be absorbed or replayed, never
    // re-executed, across the incarnation boundary.
    for seed in 0..10u64 {
        let mut cfg = base_cfg();
        cfg.ctl_net.dup_prob = 0.15;
        let block_size = cfg.block_size;
        let mut cluster = Cluster::build(cfg, seed);
        attach_contending_workloads(&mut cluster);
        cluster.crash_server(SimTime::from_secs(8), SimTime::from_secs(9));
        let report = run_to_end(&mut cluster);
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.check.server_recoveries, 1, "seed {seed}");
        assert!(
            report.server.replays > 0,
            "seed {seed}: 15% duplication never hit the replay cache?"
        );
        assert!(
            report.check.ops_ok > 20,
            "seed {seed}: progress resumed after recovery"
        );
        // The durable log itself must show a monotone session watermark
        // across the crash — the exact invariant whose absence opened
        // the hole.
        let audit = tank_consistency::durability::audit_store(
            cluster.server_node_of(tank_proto::ServerId(0)).wal(),
            tank_shard::ShardMap::new(1),
            tank_proto::ServerId(0),
            block_size,
        );
        assert!(audit.safe(), "seed {seed}: {:?}", audit.violations);
    }
}

#[test]
fn disabling_the_grace_window_is_demonstrably_unsafe() {
    // Negative control: a restarted server that grants immediately races
    // surviving lease holders. The checker must catch it on every seed as
    // grants inside the would-be grace window. Those are the mechanism;
    // data corruption (lost updates, stale reads) is the consequence the
    // early grants make possible, and whether a seed's schedule turns one
    // into the other is luck.
    for seed in 0..10u64 {
        let mut cfg = base_cfg();
        cfg.recovery_grace = false;
        let mut cluster = Cluster::build(cfg, seed);
        attach_contending_workloads(&mut cluster);
        cluster.crash_server(SimTime::from_secs(8), SimTime::from_secs(9));
        let report = run_to_end(&mut cluster);
        assert!(
            !report.check.early_grants.is_empty(),
            "seed {seed}: without the grace window, grants land while pre-crash \
             leases are live"
        );
    }
}

#[test]
fn a_create_after_a_refused_long_name_survives_a_server_restart() {
    // A name no log record can hold is refused before it is sent; the
    // create after it is logged, and recovery replays it.
    let ms = LocalNs::from_millis;
    let script = Script::new()
        .at(
            ms(1_000),
            FsOp::Create {
                path: format!("/{}", "n".repeat(70_000)),
            },
        )
        .at(
            ms(1_100),
            FsOp::Create {
                path: "/next".into(),
            },
        );
    // Another client, which never saw the name, finds it after recovery.
    let probe = Script::new().at(
        ms(10_000),
        FsOp::Stat {
            path: "/next".into(),
        },
    );
    let mut cluster = Cluster::build(base_cfg(), 1);
    cluster.attach_script(0, script);
    cluster.attach_script(1, probe);
    cluster.crash_server(SimTime::from_secs(3), SimTime::from_secs(4));
    let report = run_to_end(&mut cluster);
    assert!(report.check.safe(), "{:#?}", report.check);
    assert_eq!(report.check.server_recoveries, 1);
    let results = |i: usize| -> Vec<FsResult> {
        let results = cluster.client(i).results();
        results.map(|(_, r)| r.clone()).collect()
    };
    assert_eq!(results(0), [Err(FsErr::Invalid), Ok(FsData::Unit)]);
    let stat = results(1);
    assert!(
        matches!(stat[..], [Ok(FsData::Attr { is_dir: false, .. })]),
        "the create survived the restart: {stat:?}"
    );
}
