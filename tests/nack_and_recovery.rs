//! Figure 5 / §3.3: transient partitions, NACKs, and recovery traffic.
//!
//! A client misses messages during a short partition; the server has begun
//! timing out its lease by the time the partition heals. The server "can
//! neither acknowledge the message, which would renew the client lease,
//! nor execute a transaction on the client's behalf". With the NACK
//! optimization the client learns immediately and jumps to phase 3; without
//! it the client burns retransmissions until its own lease machinery gives
//! up.

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_server::RecoveryPolicy;
use tank_sim::world::Control;
use tank_sim::{LocalNs, NetId, NodeId, SimTime};

const BS: usize = 512;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x: u64) -> SimTime {
    SimTime::from_millis(x)
}

/// Transient-partition scenario: C0 holds the lock when a 1.5s partition
/// hits; C1's conflicting request makes the server declare a delivery
/// error mid-partition. The partition heals *before* the τ(1+ε) timer
/// fires, so C0 talks to a server that is already timing it out. C0 keeps
/// stat-ing so it has traffic to be NACKed (or ignored).
fn transient(nack: bool) -> (Cluster, RunReport) {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = RecoveryPolicy::LeaseFence;
    cfg.nack_suspect = nack;
    let mut cluster = Cluster::build(cfg, 99);
    let mut c0 = Script::new().at(
        ms(500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![1; BS],
        },
    );
    // Steady stats: before, during (denied/queued), and after the window.
    let mut tt = 800;
    while tt < 9_000 {
        c0 = c0.at(ms(tt), FsOp::Stat { path: "/f0".into() });
        tt += 300;
    }
    let c1 = Script::new().at(
        ms(1_200),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![2; BS],
        },
    );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control(0, t(1_000), Some(t(2_500)));
    cluster.run_until(SimTime::from_secs(15));
    let report = cluster.finish();
    (cluster, report)
}

#[test]
fn nack_tells_the_client_immediately() {
    let (cluster, report) = transient(true);
    assert!(report.check.safe(), "{:#?}", report.check);
    assert!(report.msg.nacks > 0, "suspect client was NACKed");
    // The client quiesced in direct response to a NACK — before its own
    // phase-3 boundary. Its last renewal was ≈1s (partition start), so
    // natural quiesce would be ≈1s + 1.4s = 2.4s... but the NACK lands
    // right after the 2.5s heal. Check it quiesced at all and recovered.
    let c0 = cluster.clients[0];
    let evs = cluster.world.observations();
    assert!(evs
        .iter()
        .any(|(_, n, e)| *n == c0 && matches!(e, Event::Quiesced { .. })));
    assert!(evs
        .iter()
        .any(|(_, _, e)| matches!(e, Event::NewSession { client } if *client == c0)));
    // Full recovery: C0's stats succeed again near the end.
    let late_ok = evs.iter().any(|(tt, n, e)| {
        *n == c0
            && tt.0 > 8_000_000_000
            && matches!(
                e,
                Event::OpCompleted {
                    kind: "stat",
                    ok: true,
                    ..
                }
            )
    });
    assert!(late_ok, "C0 serves again after re-Hello");
}

/// When C0 recovered: its first new session after the partition began.
fn recovered_at(cluster: &Cluster) -> SimTime {
    let c0 = cluster.clients[0];
    cluster
        .world
        .observations()
        .iter()
        .find(|(tt, _, e)| {
            *tt > t(1_000) && matches!(e, Event::NewSession { client } if *client == c0)
        })
        .map(|(tt, _, _)| *tt)
        .expect("C0 recovered")
}

#[test]
fn without_nack_recovery_still_works_but_costs_more_messages() {
    let (nacked, with_nack) = transient(true);
    let (ignored, without) = transient(false);
    // Both are safe — NACKs are an optimization, not a safety feature.
    assert!(with_nack.check.safe());
    assert!(without.check.safe());
    assert_eq!(without.msg.nacks, 0, "strawman never NACKs suspects");
    // The strawman client keeps retransmitting into the void until its
    // lease expires; the NACKed client stops immediately.
    let rt_with: u64 = with_nack.clients.iter().map(|c| c.retransmits).sum();
    let rt_without: u64 = without.clients.iter().map(|c| c.retransmits).sum();
    assert!(
        rt_without > rt_with,
        "ignoring costs retransmissions: with={rt_with} without={rt_without}"
    );
    // ...and the NACK's news is never slower than the client's own lease
    // machinery giving up.
    let (fast, slow) = (recovered_at(&nacked), recovered_at(&ignored));
    assert!(
        fast <= slow,
        "the NACKed client recovered at {fast}, the ignored one at {slow}"
    );
}

#[test]
fn suspect_client_is_never_acked_before_steal() {
    // §3.1's correctness rule, verified over the whole observation stream:
    // between DeliveryError(C0) and LockStolen(C0), no lease-renewing
    // response reaches C0 — observable as: C0 never Resumes in that span.
    let (cluster, report) = transient(true);
    assert!(report.check.safe());
    let c0 = cluster.clients[0];
    let evs = cluster.world.observations();
    let t_err = evs
        .iter()
        .find(|(_, _, e)| matches!(e, Event::DeliveryError { client } if *client == c0))
        .map(|(t, _, _)| *t)
        .expect("delivery error");
    let t_steal = evs
        .iter()
        .find(|(_, _, e)| matches!(e, Event::LockStolen { client, .. } if *client == c0))
        .map(|(t, _, _)| *t)
        .expect("steal");
    assert!(t_err < t_steal);
    let resumed_in_window = evs.iter().any(|(tt, n, e)| {
        *n == c0 && *tt > t_err && *tt < t_steal && matches!(e, Event::Resumed { .. })
    });
    assert!(
        !resumed_in_window,
        "no renewal between timer start and steal"
    );
}

#[test]
fn heal_before_timer_fires_still_rides_to_completion() {
    // The partition heals at 2.5s but the τ(1+ε) timer — counted from the
    // demand C0 never answered, ≈1.2s — runs to ≈3.2s: the server must NOT
    // cancel it (no ACKs in between), and the steal happens even though
    // the client is reachable again.
    let (cluster, report) = transient(true);
    let (c0, c1) = (cluster.clients[0], cluster.clients[1]);
    let evs = cluster.world.observations();
    // C1 blocks in the step that first transmits the demand to C0.
    let t_demand = evs
        .iter()
        .find(|(_, _, e)| matches!(e, Event::RequestBlocked { client, .. } if *client == c1))
        .map(|(t, _, _)| *t)
        .expect("C1's request conflicted");
    let t_steal = evs
        .iter()
        .find(|(_, _, e)| matches!(e, Event::LockStolen { client, .. } if *client == c0))
        .map(|(t, _, _)| *t)
        .expect("steal happened despite the heal");
    assert!(t_steal > t(2_500), "after the heal, got {t_steal}");
    // In true time: τ(1+ε) on the fastest legal server clock is still τ;
    // on the slowest, with the fence round trip, under τ(1+ε) + 100ms.
    let lease = cluster.config().lease;
    let waited = t_steal.0 - t_demand.0;
    assert!(
        waited >= lease.tau.0 && waited <= lease.server_timeout().0 + ms(100).0,
        "steal ≈ first demand + τ(1+ε), got {t_demand} → {t_steal}"
    );
    assert_eq!(report.server.steals, 1);
}

/// τ = 2s, ε = 1 %, every clock skewed within ε, causal log on.
fn skewed(clients: usize, files: usize, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::default();
    cfg.clients = clients;
    cfg.files = files;
    cfg.file_blocks = 4;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = RecoveryPolicy::LeaseFence;
    cfg.skew_clocks = true;
    cfg.record_hb = true;
    Cluster::build(cfg, seed)
}

#[test]
fn a_holder_that_keeps_renewing_is_timed_from_its_last_ack() {
    // The dual of Figure 2: C0 is cut off from the SAN only. It answers
    // C1's demand with a PushAck, cannot harden its dirty block, and so
    // never releases — while its keep-alives go on being ACKed. The release
    // wait runs out and the τ(1+ε) then counts from the *last of those
    // ACKs*, not from the demand: anything earlier would steal inside a
    // lease the server itself renewed. Skewed clocks, ten seeds.
    for seed in 0..10 {
        let mut cluster = skewed(2, 1, seed);
        let write = |byte| FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![byte; BS],
        };
        cluster.attach_script(0, Script::new().at(ms(1_200), write(1)));
        cluster.attach_script(1, Script::new().at(ms(1_500), write(2)));
        // Healed once C0 is condemned, so its phase-4 flush has somewhere
        // to go: nothing is stranded, and nothing is released either.
        cluster.isolate_san(0, t(1_000), Some(t(3_800)));
        cluster.run_until(SimTime::from_secs(12));
        let hb = cluster.hb_audit();
        assert!(hb.ok(), "seed {seed}:\n{}", hb.render());
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.check.dirty_discarded, 0, "seed {seed}");
        assert_eq!(report.server.steals, 1, "seed {seed}");

        let c0 = cluster.clients[0];
        let evs = cluster.world.observations();
        let when = |pred: &dyn Fn(NodeId, &Event) -> bool| {
            let hit = evs.iter().find(|(_, n, e)| pred(*n, e));
            hit.map(|(t, _, _)| *t)
                .unwrap_or_else(|| panic!("seed {seed}: event missing"))
        };
        let t_err = when(&|_, e| matches!(e, Event::DeliveryError { client } if *client == c0));
        let t_dead = when(&|n, e| n == c0 && matches!(e, Event::CacheInvalidated { .. }));
        let t_steal = when(&|_, e| matches!(e, Event::LockStolen { client, .. } if *client == c0));
        // C0 renewed right up to the error, so the whole lease is still to
        // be waited out: far more than what is left counting from the demand.
        let lease = cluster.config().lease;
        assert!(
            t_steal.0 - t_err.0 > lease.tau.0 / 2,
            "seed {seed}: timed from the demand: error {t_err}, steal {t_steal}"
        );
        // Theorem 3.1 in true time, at its tight edge.
        assert!(
            t_dead <= t_steal,
            "seed {seed}: client invalidated at {t_dead}, server stole at {t_steal}"
        );
        // §3.1: not one renewal once the timer is armed.
        let renewed = evs.iter().any(|(tt, n, e)| {
            *n == c0 && *tt > t_err && *tt < t_steal && matches!(e, Event::Resumed { .. })
        });
        assert!(!renewed, "seed {seed}: renewed between error and steal");
    }
}

#[test]
fn a_waiter_condemned_while_queued_is_not_acked_when_its_turn_comes() {
    // C0 holds /f0 and stops *hearing* the server at 1.0s, just before C1's
    // demand for it goes out. 550ms into the retry ladder C0 asks for /f1,
    // which slow C2 holds; the acquire gets through and queues, and then
    // C0 cannot be heard either. The ladder runs out, C0's τ(1+ε) counts
    // from the demand, the server→C0 direction heals — and then C2's
    // release makes C0's grant fall due. An ACK would renew C0 from the
    // *acquire's* first send, 550ms later than the steal allows for.
    // Skewed clocks, ten seeds.
    for seed in 0..10 {
        let mut cluster = skewed(3, 2, seed);
        let write = |file: &str, byte| FsOp::Write {
            path: file.into(),
            offset: 0,
            data: vec![byte; BS],
        };
        let read = |file: &str| FsOp::Read {
            path: file.into(),
            offset: 0,
            len: BS as u32,
        };
        let stat = FsOp::Stat { path: "/f0".into() };
        // C0 has written /f1 before (so it need not look it up again) and
        // given it up to C2; its stat at 0.9s is its last renewal.
        let c0 = Script::new()
            .at(ms(200), write("/f0", 1))
            .at(ms(300), write("/f1", 3))
            .at(ms(900), stat)
            .at(ms(1_600), write("/f1", 4))
            .at(ms(3_300), read("/f0"));
        cluster.attach_script(0, c0);
        cluster.attach_script(1, Script::new().at(ms(1_050), write("/f0", 2)));
        cluster.attach_script(2, Script::new().at(ms(600), read("/f1")));
        let (c0, server) = (cluster.clients[0], cluster.servers[0]);
        let net = NetId::CONTROL;
        let deaf = (server, c0);
        let mute = (c0, server);
        for (at, (src, dst), block) in [
            (1_000, deaf, true),
            (1_620, mute, true),
            (1_900, deaf, false),
            (3_500, mute, false),
        ] {
            let control = if block {
                Control::BlockDirected { net, src, dst }
            } else {
                Control::UnblockDirected { net, src, dst }
            };
            cluster.world.schedule_control(t(at), control);
        }
        // C2 answers the demand for /f1 inside its own ladder, but late
        // enough to land after the error against C0.
        cluster.slow_client(2, t(1_000), ms(400).0, Some(t(2_500)));
        cluster.run_until(SimTime::from_secs(12));
        let hb = cluster.hb_audit();
        assert!(hb.ok(), "seed {seed}:\n{}", hb.render());
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.check.dirty_discarded, 0, "seed {seed}");
        assert_eq!(report.server.steals, 1, "seed {seed}");
        assert_eq!(
            report.server.locks_stolen, 2,
            "seed {seed}: /f0, and /f1 too"
        );

        let evs = cluster.world.observations();
        let when = |pred: &dyn Fn(NodeId, &Event) -> bool| {
            let hit = evs.iter().find(|(_, n, e)| pred(*n, e));
            hit.map(|(t, _, _)| *t)
                .unwrap_or_else(|| panic!("seed {seed}: event missing"))
        };
        let t_err = when(&|_, e| matches!(e, Event::DeliveryError { client } if *client == c0));
        let t_dead = when(&|n, e| n == c0 && matches!(e, Event::CacheInvalidated { .. }));
        let t_steal = when(&|_, e| matches!(e, Event::LockStolen { client, .. } if *client == c0));
        // The scenario is the one described: C0's turn for /f1 (ino 3)
        // came between the error and the steal.
        let fell_due = evs.iter().any(|(tt, _, e)| {
            let f1 =
                matches!(e, Event::LockGranted { client, ino, .. } if *client == c0 && ino.0 == 3);
            f1 && *tt > t_err && *tt < t_steal
        });
        assert!(fell_due, "seed {seed}: no grant inside the suspect window");
        assert!(
            t_dead <= t_steal,
            "seed {seed}: client invalidated at {t_dead}, server stole at {t_steal}"
        );
        let renewed = evs.iter().any(|(tt, n, e)| {
            *n == c0 && *tt > t_err && *tt < t_steal && matches!(e, Event::Resumed { .. })
        });
        assert!(!renewed, "seed {seed}: renewed between error and steal");
    }
}
