//! The paper's central scenario (Figure 2), executed under every recovery
//! policy: client C0 holds an exclusive lock with dirty write-back data
//! when the control network partitions; client C1 then wants the file.
//!
//! | policy            | §     | expected outcome                              |
//! |-------------------|-------|-----------------------------------------------|
//! | HonorLocks        | §2    | safe, but the file is unavailable forever      |
//! | StealImmediately  | §1.2  | available fast, data corrupted (two writers)   |
//! | FenceThenSteal    | §2.1  | no corruption, but lost updates + stale reads  |
//! | LeaseFence        | §3    | safe AND available after ≈ τ(1+ε)              |

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_server::RecoveryPolicy;
use tank_sim::{LocalNs, SimTime};

const BS: usize = 512;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x_ms: u64) -> SimTime {
    SimTime::from_millis(x_ms)
}

/// Build the Figure-2 scenario:
/// * C0 writes `/f0` at 0.5s (exclusive lock, dirty cache) and reads it at
///   0.7s. While isolated it keeps going: local cache writes at 2.5s and
///   5s and a cache read at 4.5s — a lease client refuses these (§3.2),
///   while a lease-less baseline client obliviously serves/buffers them.
/// * Control partition between C0 and the server from 1s; heals at 12s.
/// * C1 writes `/f0` at 1.5s (forcing a demand at the unreachable C0),
///   then reads it back at 9s.
fn figure2(policy: RecoveryPolicy, lease_clients: bool) -> Cluster {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.disks = 2;
    cfg.files = 1;
    cfg.file_blocks = 4;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = policy;
    cfg.client_lease_enabled = lease_clients;
    cfg.skew_clocks = true;
    let mut cluster = Cluster::build(cfg, 1234);
    let c0 = Script::new()
        .at(
            ms(500),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![0xAA; BS],
            },
        )
        .at(
            ms(700),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: 64,
            },
        )
        .at(
            ms(2_500),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![0xA2; BS],
            },
        )
        .at(
            ms(4_500),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: 64,
            },
        )
        .at(
            ms(5_000),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![0xA3; BS],
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
                len: 64,
            },
        );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control(0, t(1_000), Some(t(12_000)));
    cluster
}

#[test]
fn lease_fence_is_safe_and_available() {
    let mut cluster = figure2(RecoveryPolicy::LeaseFence, true);
    cluster.run_until(SimTime::from_secs(20));
    let report = cluster.finish();
    assert!(report.check.safe(), "violations: {:#?}", report.check);

    // C1 eventually got the lock: exactly one closed unavailability
    // window, opened by the conflict that sends C0 its demand. C0's lease
    // wait runs from its anchor, the last ACK it was sent or the demand's
    // first send if that is later (DESIGN.md §3). C0 hears nothing after
    // the demand, so C1 is granted at the demand + τ_s(1+ε): the delivery
    // error's detection runs inside the wait, not in front of it. The
    // tolerance is the server clock's legal skew, ε·τ_s(1+ε) ≈ 20 ms,
    // plus 5 ms for the fence's round trip; measured: 7 ms over.
    let windows: Vec<_> = report
        .check
        .unavailability
        .iter()
        .filter(|w| w.client == cluster.clients[1])
        .collect();
    assert_eq!(windows.len(), 1, "windows: {windows:?}");
    let w = windows[0];
    let until = w.until.expect("C1 was eventually granted");
    let lease = cluster.config().lease;
    let late_ns = (until.0 - w.from.0) as f64 - lease.server_timeout().0 as f64;
    let tolerance_ns = lease.epsilon * lease.server_timeout().0 as f64 + 5e6;
    assert!(
        late_ns.abs() <= tolerance_ns,
        "C1 granted {:.1} ms off the demand + τ(1+ε) (tolerance {:.1} ms)",
        late_ns / 1e6,
        tolerance_ns / 1e6
    );

    // The server followed the §3/§6 recovery order:
    // delivery error → lease expiry → fence → steal.
    let evs = cluster.world.observations();
    let pos = |pred: &dyn Fn(&Event) -> bool| {
        evs.iter()
            .position(|(_, _, e)| pred(e))
            .unwrap_or(usize::MAX)
    };
    let c0 = cluster.clients[0];
    let p_err = pos(&|e| matches!(e, Event::DeliveryError { client } if *client == c0));
    let p_exp = pos(&|e| matches!(e, Event::LeaseExpired { client } if *client == c0));
    let p_fence = pos(&|e| matches!(e, Event::Fenced { client } if *client == c0));
    let p_steal = pos(&|e| matches!(e, Event::LockStolen { client, .. } if *client == c0));
    assert!(p_err < p_exp, "error before expiry");
    assert!(p_exp < p_fence, "expiry before fence");
    assert!(p_fence < p_steal, "fence before steal (§6)");

    // Safety core of Theorem 3.1, observed in true time: the client's own
    // cache invalidation (lease expiry at the client) happened before the
    // server's steal.
    let t_client_dead = evs
        .iter()
        .find(|(_, n, e)| *n == c0 && matches!(e, Event::CacheInvalidated { .. }))
        .map(|(t, _, _)| *t)
        .expect("client expired locally");
    let t_steal = evs
        .iter()
        .find(|(_, _, e)| matches!(e, Event::LockStolen { client, .. } if *client == c0))
        .map(|(t, _, _)| *t)
        .unwrap();
    assert!(
        t_client_dead <= t_steal,
        "client invalidated at {t_client_dead}, server stole at {t_steal}"
    );

    // The isolated client flushed its dirty data in phase 4 — nothing was
    // stranded (C0's 0xAA write hardened even though C1 overwrote later).
    assert_eq!(report.check.lost_updates.len(), 0);
    // The isolated client *refused* service while suspect (§3.2) instead
    // of serving stale data: its 3s/4s ops were denied.
    assert!(
        report.check.ops_denied >= 1,
        "denied: {}",
        report.check.ops_denied
    );
    // After the heal, C0 re-established a session.
    assert!(evs
        .iter()
        .any(|(_, _, e)| matches!(e, Event::NewSession { client } if *client == c0)));
}

#[test]
fn honor_locks_is_safe_but_unavailable_forever() {
    let mut cluster = figure2(RecoveryPolicy::HonorLocks, true);
    cluster.run_until(SimTime::from_secs(20));
    let report = cluster.finish();
    // No corruption...
    assert!(report.check.safe(), "violations: {:#?}", report.check);
    // ...but C1 never got the lock while the partition lasted. (After the
    // 12s heal, C0's client-side lease had long expired, so it re-helloed
    // and the server then released its locks — availability returns only
    // with the partition's end, exactly §2's complaint.)
    let c1 = cluster.clients[1];
    let w = report
        .check
        .unavailability
        .iter()
        .find(|w| w.client == c1)
        .expect("C1 waited");
    match w.until {
        None => {}
        Some(granted) => assert!(
            granted >= t(12_000),
            "grant only after the partition healed, got {granted}"
        ),
    }
    // The server never stole anything.
    assert_eq!(report.server.steals, 0);
    assert_eq!(report.server.locks_stolen, 0);
}

#[test]
fn steal_immediately_corrupts_shared_data() {
    // Baseline: lock stealing without fencing, clients without leases —
    // the §1.2 disaster. The isolated C0 keeps flushing its stale cache to
    // the SAN after C1 was granted the lock.
    let mut cluster = figure2(RecoveryPolicy::StealImmediately, false);
    cluster.run_until(SimTime::from_secs(20));
    let report = cluster.finish();
    assert!(
        !report.check.safe(),
        "stealing without fencing must corrupt: {:#?}",
        report.check
    );
    // Specifically: C0's late write lands on top of C1's newer epoch.
    assert!(
        !report.check.write_order_violations.is_empty() || !report.check.stale_reads.is_empty(),
        "expected order violations or stale reads: {:#?}",
        report.check
    );
    // Availability was immediate though (that is the seduction): C1
    // waited well under the lease timeout.
    let c1 = cluster.clients[1];
    let w = report
        .check
        .unavailability
        .iter()
        .find(|w| w.client == c1)
        .unwrap();
    let waited_s = (w.until.unwrap().0 - w.from.0) as f64 / 1e9;
    assert!(waited_s < 1.5, "steal is fast: {waited_s}");
}

#[test]
fn fencing_only_strands_dirty_data_and_serves_stale_reads() {
    // §2.1: fencing stops the corruption but "dirty data on C1 are
    // stranded and never reach disk" and the fenced client "continues to
    // read and write data out of the cache".
    let mut cluster = figure2(RecoveryPolicy::FenceThenSteal, false);
    cluster.run_until(SimTime::from_secs(20));
    let report = cluster.finish();
    // No write-order corruption — the fence worked...
    assert!(
        report.check.write_order_violations.is_empty(),
        "{:#?}",
        report.check.write_order_violations
    );
    // ...but C0's acknowledged write never reached disk...
    assert!(
        !report.check.lost_updates.is_empty(),
        "expected stranded dirty data: {:#?}",
        report.check
    );
    // ...and C0's 4s read was served from its stale cache after C1's
    // newer version had hardened.
    assert!(
        !report.check.stale_reads.is_empty(),
        "expected stale cache reads: {:#?}",
        report.check
    );
    assert!(report.check.stale_reads.iter().all(|s| s.from_cache));
    // The fence itself visibly rejected C0's late I/O.
    assert!(report.check.fence_rejections > 0);
}

#[test]
fn asymmetric_outbound_partition_still_resolves() {
    // Only C0→server is blocked (C0 hears the server but cannot reach
    // it): pushes are delivered yet their PushAcks are lost, so the
    // server still declares a delivery error and the lease path still
    // recovers — the §2 asymmetric case.
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.policy = RecoveryPolicy::LeaseFence;
    let mut cluster = Cluster::build(cfg, 77);
    let c0 = Script::new().at(
        ms(500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![1; BS],
        },
    );
    let c1 = Script::new().at(
        ms(1_500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![2; BS],
        },
    );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control_outbound(0, t(1_000), Some(t(15_000)));
    cluster.run_until(SimTime::from_secs(25));
    let report = cluster.finish();
    assert!(report.check.safe(), "{:#?}", report.check);
    assert!(report.server.delivery_errors >= 1);
    assert!(
        report.server.locks_stolen >= 1,
        "C0's lock was eventually stolen"
    );
    // C1 got its grant.
    let c1id = cluster.clients[1];
    let w = report
        .check
        .unavailability
        .iter()
        .find(|w| w.client == c1id)
        .unwrap();
    assert!(w.until.is_some());
}

#[test]
fn crashed_client_is_timed_out_and_excused() {
    // Fail-stop crash while holding a dirty exclusive lock: the lease
    // path frees the lock after τ(1+ε); the crashed client's pending
    // write-back is excused volatile loss, not a protocol violation.
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.policy = RecoveryPolicy::LeaseFence;
    // Disable the periodic flush so the dirty block genuinely dies with
    // the client.
    let mut cluster = Cluster::build(cfg, 5);
    {
        // Reach into the client to zero its flush interval.
        let id = cluster.clients[0];
        let node = cluster
            .world
            .node_mut::<tank_client::ClientNode>(id)
            .unwrap();
        let _ = node; // flush interval stays default; the crash at 1s beats the 2s flush anyway
    }
    let c0 = Script::new().at(
        ms(500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![7; BS],
        },
    );
    let c1 = Script::new()
        .at(
            ms(1_500),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![8; BS],
            },
        )
        .at(
            ms(12_000),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: 16,
            },
        );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.crash_client(0, t(1_000), None);
    cluster.run_until(SimTime::from_secs(20));
    let report = cluster.finish();
    assert!(report.check.safe(), "{:#?}", report.check);
    assert!(report.server.locks_stolen >= 1);
    // C1 proceeded and read its own data back.
    let c1_stats = &report.clients[1];
    assert!(c1_stats.completed >= 2, "{c1_stats:?}");
}

#[test]
fn client_restart_after_crash_rejoins_cleanly() {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 1;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    let mut cluster = Cluster::build(cfg, 6);
    let c0 = Script::new().at(
        ms(500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![7; BS],
        },
    );
    cluster.attach_script(0, c0);
    cluster.crash_client(0, t(1_000), Some(t(3_000)));
    cluster.run_until(SimTime::from_secs(15));
    let report = cluster.finish();
    assert!(report.check.safe(), "{:#?}", report.check);
    // The restarted client re-helloed and is serviceable: issue nothing
    // further, just confirm a new session happened after restart.
    let c0id = cluster.clients[0];
    let sessions = cluster
        .world
        .observations()
        .iter()
        .filter(|(_, _, e)| matches!(e, Event::NewSession { client } if *client == c0id))
        .count();
    assert!(
        sessions >= 2,
        "initial + post-restart sessions, got {sessions}"
    );
}
