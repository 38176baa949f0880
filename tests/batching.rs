//! The client's coalescing rule, pinned down on the simulator's causal
//! log: with `batch_cap > 1` a batchable request leaves at once when its
//! lane has no coalesced request in flight, and otherwise waits behind
//! that request — until its reply has been dispatched, its first
//! retransmission, a full batch, or a sync point. No request waits on a
//! timer of its own.
//!
//! Every scenario runs 10 seeds with ideal clocks (script times are then
//! true times, so faults can be aimed at one datagram) and must leave the
//! checker and the happens-before auditor clean.

use std::sync::Arc;

use tank_client::fs::Script;
use tank_client::{FsData, FsErr, FsOp, OpGen};
use tank_cluster::{Cluster, ClusterConfig, RunReport};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_obs::Registry;
use tank_proto::OpId;
use tank_sim::{CausalRecord, LocalNs, NetId, NetParams, NodeId, SimTime};

const BS: usize = 512;
/// The client's initial retransmission timeout (`RTO` in `tank_client::node`).
const RTO: SimTime = SimTime::from_millis(250);
/// Worst control round trip on the default LAN: 2 × (100 µs + 50 µs).
const RTT_MAX_NS: u64 = 300_000;

/// Flush-reason codes of `client.batch.flush_reason`.
const SIZE: usize = 0;
const IDLE: usize = 1;
const SYNC: usize = 2;
const ACK: usize = 3;

fn us(x: u64) -> LocalNs {
    LocalNs(x * 1_000)
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x_ms: u64) -> SimTime {
    SimTime::from_millis(x_ms)
}

fn stat(path: &str) -> FsOp {
    FsOp::Stat { path: path.into() }
}

fn create(i: usize) -> FsOp {
    FsOp::Create {
        path: format!("/n{i}"),
    }
}

fn cfg(clients: usize, cap: usize) -> (ClusterConfig, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let mut cfg = ClusterConfig::default();
    cfg.clients = clients;
    cfg.files = 4;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.skew_clocks = false;
    cfg.batch_cap = cap;
    cfg.record_hb = true;
    cfg.obs = Some(registry.clone());
    (cfg, registry)
}

/// `first` at `at` — its `Lookup` is the request in flight — then `k`
/// creates 10 µs apart, all inside that lookup's round trip.
fn creates_behind(mut script: Script, at: LocalNs, first: FsOp, k: usize) -> Script {
    script = script.at(at, first);
    for i in 1..=k {
        script = script.at(LocalNs(at.0 + 10_000 * i as u64), create(i));
    }
    script
}

/// Settle, audit, and return the report: every scenario must be safe and
/// race-free.
fn audited(cluster: &mut Cluster, seed: u64) -> RunReport {
    cluster.settle();
    let report = cluster.finish();
    assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
    let hb = cluster.hb_audit();
    assert!(hb.ok(), "seed {seed}: {}", hb.summary());
    report
}

/// One control datagram a client sent.
#[derive(Debug, Clone, Copy)]
struct Sent {
    dispatch: u64,
    kind: &'static str,
    at: SimTime,
}

/// A client's view of the causal log.
struct Log<'a> {
    cluster: &'a Cluster,
    client: NodeId,
}

impl<'a> Log<'a> {
    fn of(cluster: &'a Cluster, idx: usize) -> Self {
        Log {
            cluster,
            client: cluster.clients[idx],
        }
    }

    fn causal(&self) -> &'a [CausalRecord] {
        self.cluster.world.causal().expect("record_hb is on")
    }

    /// Control datagrams the client sent, in send order.
    fn sends(&self) -> Vec<Sent> {
        self.causal()
            .iter()
            .filter_map(|r| match *r {
                CausalRecord::Send {
                    dispatch,
                    node,
                    net,
                    kind,
                    at,
                    ..
                } if node == self.client && net == NetId::CONTROL => {
                    Some(Sent { dispatch, kind, at })
                }
                _ => None,
            })
            .collect()
    }

    fn sends_of(&self, kind: &str) -> Vec<Sent> {
        self.sends()
            .into_iter()
            .filter(|s| s.kind == kind)
            .collect()
    }

    /// Kinds of the control datagrams sent in one activation, in order.
    fn sent_in(&self, dispatch: u64) -> Vec<&'static str> {
        self.sends()
            .iter()
            .filter(|s| s.dispatch == dispatch)
            .map(|s| s.kind)
            .collect()
    }

    /// Kind of the datagram whose delivery was this activation, if any.
    fn delivered_in(&self, dispatch: u64) -> Option<&'static str> {
        self.causal().iter().find_map(|r| match *r {
            CausalRecord::Deliver {
                dispatch: d, kind, ..
            } if d == dispatch => Some(kind),
            _ => None,
        })
    }

    /// The client's observation of `want` about op `op`: when, and in
    /// which activation.
    fn op_event(&self, op: u64, want: fn(&Event) -> Option<OpId>) -> (SimTime, u64) {
        let observations = self.cluster.world.observations();
        self.causal()
            .iter()
            .find_map(|r| match *r {
                CausalRecord::Observe {
                    obs_index,
                    dispatch,
                    node,
                    at,
                } if node == self.client && want(&observations[obs_index].2) == Some(OpId(op)) => {
                    Some((at, dispatch))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("op {op} has no such observation"))
    }

    /// The activation that submitted the client's `op`-th operation.
    fn submitted(&self, op: u64) -> (SimTime, u64) {
        self.op_event(op, |e| match e {
            Event::OpSubmitted { op, .. } => Some(*op),
            _ => None,
        })
    }

    fn completed(&self, op: u64) -> (SimTime, u64) {
        self.op_event(op, |e| match e {
            Event::OpCompleted { op, .. } => Some(*op),
            _ => None,
        })
    }

    /// What the process that issued `op` was told, if anything (a
    /// client crash forgets its ops).
    fn try_result(&self, op: u64) -> Option<Result<FsData, FsErr>> {
        let idx = self.cluster.clients.iter().position(|c| *c == self.client);
        let client = self.cluster.client(idx.expect("a client of this cluster"));
        client.result_of(OpId(op)).cloned()
    }

    fn result(&self, op: u64) -> Result<FsData, FsErr> {
        self.try_result(op)
            .unwrap_or_else(|| panic!("op {op} has no result"))
    }
}

/// How many flushes left for each reason, and the largest one.
fn flushes(registry: &Registry) -> ([u64; 4], u64) {
    let snap = registry.snapshot();
    let reasons = snap.histogram("client.batch.flush_reason").unwrap();
    let sizes = snap.histogram("client.batch.size").unwrap();
    assert_eq!(reasons.counts[4..].iter().sum::<u64>(), 0, "unknown code");
    (
        reasons.counts[..4].try_into().unwrap(),
        sizes.max.unwrap_or(0),
    )
}

/// Inodes the server gave `/n1 … /nk`, in that order: the server numbers
/// inodes as it executes creates.
fn created_inos(cluster: &Cluster, k: usize) -> Vec<u64> {
    let server = cluster.server_node();
    let mut meta = server.meta().clone();
    (1..=k)
        .map(|i| {
            meta.lookup(server.root_ino(), &format!("n{i}"))
                .unwrap()
                .0
                 .0
        })
        .collect()
}

#[test]
fn an_idle_lane_sends_in_the_activation_that_issued_the_op() {
    for seed in 0..10u64 {
        let (cfg, registry) = cfg(1, 8);
        let mut cluster = Cluster::build(cfg, seed);
        let mut script = Script::new();
        for i in 0..20u64 {
            script = script.at(ms(500 + 50 * i), stat(&format!("/f{}", i % 4)));
        }
        cluster.attach_script(0, script);
        cluster.run_until(t(2_000));
        let log = Log::of(&cluster, 0);
        let submits: Vec<u64> = (1..=20).map(|op| log.submitted(op).1).collect();
        for (op, &dispatch) in (1..).zip(&submits) {
            let sent = log.sent_in(dispatch);
            assert_eq!(sent.len(), 1, "seed {seed} op {op}: sent {sent:?}");
            assert!(log.result(op).is_ok(), "seed {seed} op {op}");
        }
        // No request leaves on a timer of its own: every one goes out
        // where an op was submitted or a datagram was delivered. (Lease
        // maintenance is the lease machine's timer, not the queue's.)
        for s in log.sends() {
            if s.kind == "keep_alive" || s.kind == "hello" {
                continue;
            }
            assert!(
                submits.contains(&s.dispatch) || log.delivered_in(s.dispatch).is_some(),
                "seed {seed}: {s:?} left on a timer"
            );
        }
        let (reasons, largest) = flushes(&registry);
        assert_eq!(reasons, [0, 20, 0, 0], "seed {seed}");
        assert_eq!(largest, 1, "seed {seed}: nothing waited for company");
        audited(&mut cluster, seed);
    }
}

#[test]
fn ops_behind_a_request_in_flight_leave_as_one_batch_at_its_reply() {
    const K: usize = 5;
    for seed in 0..10u64 {
        let (cfg, registry) = cfg(1, 8);
        let mut cluster = Cluster::build(cfg, seed);
        let list = FsOp::List { path: "/d".into() };
        let script = Script::new().at(ms(400), FsOp::Mkdir { path: "/d".into() });
        cluster.attach_script(0, creates_behind(script, ms(500), list, K));
        cluster.run_until(t(1_000));
        let log = Log::of(&cluster, 0);
        // The lookup left with the list; the creates did not leave alone.
        assert_eq!(log.sent_in(log.submitted(2).1), ["lookup"], "seed {seed}");
        for op in 3..=2 + K as u64 {
            assert!(log.sent_in(log.submitted(op).1).is_empty(), "seed {seed}");
            assert_eq!(log.result(op), Ok(FsData::Unit), "seed {seed} op {op}");
        }
        assert!(log.sends_of("create").is_empty(), "seed {seed}");
        // ONE batch, sent by the activation the lookup's reply ran in —
        // so the readdir that reply spawned rides along behind the
        // creates that were already waiting.
        let batches = log.sends_of("batch");
        assert_eq!(batches.len(), 1, "seed {seed}: {batches:?}");
        assert_eq!(
            log.delivered_in(batches[0].dispatch),
            Some("response"),
            "seed {seed}"
        );
        assert!(log.sends_of("readdir").is_empty(), "seed {seed}");
        let (reasons, largest) = flushes(&registry);
        assert_eq!(largest, K as u64 + 1, "seed {seed}");
        // The mkdir and the lookup found the lane idle; the batch left
        // at the lookup's reply.
        assert_eq!(
            (reasons[SIZE], reasons[IDLE], reasons[SYNC], reasons[ACK]),
            (0, 2, 0, 1),
            "seed {seed}"
        );
        // The server ran the creates in issue order.
        let inos = created_inos(&cluster, K);
        assert!(
            inos.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: {inos:?}"
        );
        assert_eq!(log.result(2), Ok(FsData::Entries(vec![])), "seed {seed}");
        audited(&mut cluster, seed);
    }
}

#[test]
fn a_lost_request_releases_the_queue_at_its_first_retransmission() {
    const K: usize = 5;
    for seed in 0..10u64 {
        let (cfg, _registry) = cfg(1, 8);
        let mut cluster = Cluster::build(cfg, seed);
        cluster.attach_script(0, creates_behind(Script::new(), ms(500), stat("/f0"), K));
        // The network eats the lookup and nothing else.
        cluster.isolate_control_outbound(0, t(499), Some(t(501)));
        cluster.run_until(t(1_500));
        let log = Log::of(&cluster, 0);
        let lookups = log.sends_of("lookup");
        let batches = log.sends_of("batch");
        assert_eq!(lookups.len(), 2, "seed {seed}: sent, then retransmitted");
        assert_eq!(batches.len(), 1, "seed {seed}");
        assert_eq!(
            log.sent_in(batches[0].dispatch),
            ["lookup", "batch"],
            "seed {seed}: the queue leaves with the first retransmission"
        );
        assert!(
            batches[0].at.0 - lookups[0].at.0 <= RTO.0,
            "seed {seed}: waited {} ns",
            batches[0].at.0 - lookups[0].at.0
        );
        for op in 1..=1 + K as u64 {
            assert!(log.result(op).is_ok(), "seed {seed} op {op}");
        }
        let inos = created_inos(&cluster, K);
        assert!(
            inos.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: {inos:?}"
        );
        audited(&mut cluster, seed);
    }
}

/// Closed loop of stats over the precreated files.
struct StatLoop;

impl OpGen for StatLoop {
    fn next_op(
        &mut self,
        rng: &mut rand_chacha::ChaCha8Rng,
        _now: LocalNs,
    ) -> Option<(LocalNs, FsOp)> {
        use rand::RngExt;
        let think = LocalNs(rng.random_range(0..=2_000_000u64));
        Some((think, stat(&format!("/f{}", rng.random_range(0..4u32)))))
    }
}

#[test]
fn ten_percent_control_loss_costs_batching_no_throughput() {
    let mut done = [0u64; 2];
    for (slot, cap) in [(0, 1), (1, 8)] {
        for seed in 0..10u64 {
            let (mut cfg, _registry) = cfg(2, cap);
            cfg.gen_concurrency = 4;
            cfg.ctl_net = NetParams {
                drop_prob: 0.10,
                ..cfg.ctl_net
            };
            let mut cluster = Cluster::build(cfg, seed);
            for i in 0..2 {
                cluster.attach_workload(i, Box::new(StatLoop));
            }
            cluster.run_until(SimTime::from_secs(10));
            let report = audited(&mut cluster, seed);
            assert!(report.check.ops_ok > 500, "seed {seed} cap {cap}");
            done[slot] += report.check.ops_ok;
        }
    }
    let ratio = done[1] as f64 / done[0] as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "cap 8 completed {} ops, cap 1 {} ({ratio:.3}x)",
        done[1],
        done[0]
    );
}

#[test]
fn a_lock_acquire_parked_at_the_server_does_not_gate_the_lane() {
    for seed in 0..10u64 {
        let (cfg, _registry) = cfg(2, 8);
        let mut cluster = Cluster::build(cfg, seed);
        // C0 dirties /f0 and drops off the control network: the server
        // can hand the lock over only after C0's lease has run out.
        let holder = Script::new().at(
            ms(500),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![0xAA; BS],
            },
        );
        cluster.attach_script(0, holder);
        cluster.isolate_control(0, t(1_000), None);
        // C1 asks for the lock, then stats another file.
        let waiter = Script::new()
            .at(
                ms(1_500),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: 0,
                    data: vec![0xBB; BS],
                },
            )
            .at(ms(1_600), stat("/f1"));
        cluster.attach_script(1, waiter);
        cluster.run_until(t(8_000));
        let log = Log::of(&cluster, 1);
        let acquire = log.sends_of("lock_acquire")[0];
        let (asked, dispatch) = log.submitted(2);
        assert!(acquire.at < asked, "seed {seed}: the acquire is in flight");
        assert_eq!(log.sent_in(dispatch), ["lookup"], "seed {seed}");
        let (answered, _) = log.completed(2);
        assert!(
            answered.0 - asked.0 <= RTT_MAX_NS,
            "seed {seed}: the stat took {} ns",
            answered.0 - asked.0
        );
        let (granted, _) = log.completed(1);
        assert!(
            granted.0 - asked.0 > 1_000_000_000,
            "seed {seed}: the write was still parked behind C0's lease"
        );
        assert!(
            log.result(1).is_ok() && log.result(2).is_ok(),
            "seed {seed}"
        );
        audited(&mut cluster, seed);
    }
}

/// `fault` hits a lane at 5.1 s, while it holds a gate (a stat's lookup)
/// and a queue (K creates): those ops are lost with the session, and the
/// first op of the next session must leave in the activation that issued
/// it.
fn assert_no_gate_survives(probe_at_ms: u64, fault: fn(&mut Cluster)) {
    const K: usize = 3;
    for seed in 0..10u64 {
        let (cfg, _registry) = cfg(1, 8);
        let mut cluster = Cluster::build(cfg, seed);
        let script = creates_behind(Script::new(), ms(5_100), stat("/f0"), K)
            .at(ms(probe_at_ms), stat("/f1"));
        cluster.attach_script(0, script);
        fault(&mut cluster);
        cluster.run_until(t(probe_at_ms + 1_000));
        let log = Log::of(&cluster, 0);
        let probe = 2 + K as u64;
        for op in 1..probe {
            let lost = !matches!(log.try_result(op), Some(Ok(_)));
            assert!(lost, "seed {seed} op {op}");
        }
        assert_eq!(
            log.sent_in(log.submitted(probe).1),
            ["lookup"],
            "seed {seed}: the probe left at once"
        );
        assert!(log.result(probe).is_ok(), "seed {seed}");
        assert!(
            log.sends_of("hello").len() >= 2,
            "seed {seed}: the lane started a new session"
        );
        audited(&mut cluster, seed);
    }
}

#[test]
fn lane_expiry_leaves_no_gate_behind() {
    // The lookup and the batch behind it go unanswered until the lease
    // runs out; expiry fails the ops and must clear the gate with them.
    assert_no_gate_survives(12_000, |cluster| {
        cluster.isolate_control(0, t(5_099), Some(t(9_000)));
    });
}

#[test]
fn a_dead_session_nack_leaves_no_gate_behind() {
    // The server restarted and forgot the session: the lookup is NACKed
    // (`SessionExpired` / `StaleSession`) with the creates still queued
    // behind it, and the lane re-registers on the spot.
    assert_no_gate_survives(9_000, |cluster| {
        cluster.crash_server(t(5_000), t(5_050));
    });
}

#[test]
fn a_client_restart_leaves_no_gate_behind() {
    // Crash with the lookup in flight and the creates queued behind it.
    assert_no_gate_survives(8_000, |cluster| {
        cluster.crash_client(0, SimTime(5_100_100_000), Some(t(6_000)));
    });
}

#[test]
fn sync_points_and_urgent_ops_flush_the_queue_ahead_of_themselves() {
    for seed in 0..10u64 {
        let (cfg, registry) = cfg(1, 8);
        let mut cluster = Cluster::build(cfg, seed);
        let read = |path: &str| FsOp::Read {
            path: path.into(),
            offset: 0,
            len: BS as u32,
        };
        let script = Script::new()
            // Clean shared locks: /f1 to upgrade, /f2 to give back.
            .at(ms(400), read("/f1"))
            .at(ms(450), read("/f2"));
        // A non-batchable request (the write's LockAcquire) behind a
        // lookup in flight and two queued creates …
        let write = FsOp::Write {
            path: "/f1".into(),
            offset: 0,
            data: vec![0xCC; BS],
        };
        let script = creates_behind(script, ms(500), stat("/f0"), 2).at(us(500_030), write);
        // … and an urgent one (a lock release) in the same position.
        let script = script
            .at(ms(600), stat("/f3"))
            .at(us(600_010), create(3))
            .at(us(600_020), create(4))
            .at(us(600_030), FsOp::Release { path: "/f2".into() });
        cluster.attach_script(0, script);
        cluster.run_until(t(1_000));
        let log = Log::of(&cluster, 0);
        assert_eq!(
            log.sent_in(log.submitted(6).1),
            ["batch", "lock_acquire"],
            "seed {seed}: the creates reach the server before the acquire"
        );
        assert_eq!(
            log.sent_in(log.submitted(10).1),
            ["batch"],
            "seed {seed}: the release carries the creates with it"
        );
        let (reasons, largest) = flushes(&registry);
        assert_eq!(reasons[SYNC], 2, "seed {seed}: {reasons:?}");
        assert_eq!(largest, 3, "seed {seed}: create, create, lock_release");
        for op in 1..=10 {
            assert!(log.result(op).is_ok(), "seed {seed} op {op}");
        }
        let inos = created_inos(&cluster, 4);
        assert!(
            inos.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: {inos:?}"
        );
        audited(&mut cluster, seed);
    }
}

#[test]
fn a_partitioned_client_sends_only_the_keep_alives_the_lease_machine_paces() {
    // Keep-alives are issued with `retry = false`: the lease machine
    // re-sends them on its own schedule. Going through the coalescing
    // queue must not hand them an RTO timer as well.
    let keep_alives = |cap: usize, seed: u64| {
        let (cfg, _registry) = cfg(1, cap);
        let mut cluster = Cluster::build(cfg, seed);
        cluster.attach_script(0, Script::new().at(ms(100), stat("/f0")));
        cluster.isolate_control(0, t(1_000), None);
        // τ = 2 s: stop inside phase 2, before expiry sends a Hello
        // (which does retransmit).
        cluster.run_until(t(2_500));
        assert_eq!(
            cluster.client(0).stats().retransmits,
            0,
            "seed {seed} cap {cap}"
        );
        let sent = Log::of(&cluster, 0).sends_of("keep_alive").len();
        audited(&mut cluster, seed);
        sent
    };
    for seed in 0..10u64 {
        let unbatched = keep_alives(1, seed);
        assert!(unbatched >= 2, "seed {seed}: the lane did probe");
        assert_eq!(keep_alives(8, seed), unbatched, "seed {seed}");
    }
}
