//! When an eager `Release` completes: in the activation that sends its
//! `LockRelease`, not when the server answers. By then every dirty block
//! of the file is hardened on the SAN, a size commit the file needed has
//! been answered (`batch_cap = 1`) or rides in the release's batch, and
//! the lock is `Releasing` — it serves nothing and parks every new op on
//! the inode until the answer. The answer cannot change what the op
//! promised, so the op does not wait for it.
//!
//! The cluster scenarios run on zero-jitter networks with ideal clocks,
//! so every instant is exact: control latency `L`, SAN latency `S`. Each
//! runs 10 seeds and must leave the checker and the happens-before
//! auditor clean, with no dirty block discarded.

use rand::RngExt;
use rand_chacha::ChaCha8Rng;

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, FsData, FsOp, OpGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_proto::message::{FileAttr, NackReason, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    BlockId, CtlMsg, Epoch, Incarnation, Ino, NetMsg, NodeId, OpId, Request, Response, SessionId,
};
use tank_sim::world::Control;
use tank_sim::{
    Actor, CausalRecord, ClockSpec, Ctx, LocalNs, NetId, NetParams, SimTime, World, WorldConfig,
};
use tank_storage::{DiskConfig, DiskNode};

const BS: usize = 512;
/// Blocks precreated per file: a write below `FILE_BLOCKS * BS` does not
/// grow the file, so releasing it needs no size commit.
const FILE_BLOCKS: u32 = 4;
/// One-way control latency, ns.
const L: u64 = 100_000;
/// One-way SAN latency, ns.
const S: u64 = 250_000;
/// The client's initial retransmission timeout (`RTO` in `tank_client::node`).
const RTO: u64 = 250_000_000;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x_ms: u64) -> SimTime {
    SimTime::from_millis(x_ms)
}

fn read(path: &str) -> FsOp {
    FsOp::Read {
        path: path.into(),
        offset: 0,
        len: BS as u32,
    }
}

fn write(path: &str, block: u64, byte: u8) -> FsOp {
    FsOp::Write {
        path: path.into(),
        offset: block * BS as u64,
        data: vec![byte; BS],
    }
}

fn release(path: &str) -> FsOp {
    FsOp::Release { path: path.into() }
}

fn cfg(cap: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 4;
    cfg.block_size = BS;
    cfg.file_blocks = FILE_BLOCKS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.ctl_net = NetParams::ideal(L);
    cfg.san_net = NetParams::ideal(S);
    cfg.skew_clocks = false;
    cfg.batch_cap = cap;
    cfg.record_hb = true;
    cfg
}

/// Settle and audit: every scenario must be safe, race-free, and lose no
/// dirty block.
fn audited(cluster: &mut Cluster, seed: u64) {
    cluster.settle();
    let report = cluster.finish();
    assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
    assert_eq!(report.check.dirty_discarded, 0, "seed {seed}");
    let hb = cluster.hb_audit();
    assert!(hb.ok(), "seed {seed}: {}", hb.summary());
}

/// One client's view of a run.
struct Log<'a> {
    cluster: &'a Cluster,
    idx: usize,
}

impl<'a> Log<'a> {
    fn of(cluster: &'a Cluster, idx: usize) -> Self {
        Log { cluster, idx }
    }

    fn node(&self) -> NodeId {
        self.cluster.clients[self.idx]
    }

    fn causal(&self) -> &'a [CausalRecord] {
        self.cluster.world.causal().expect("record_hb is on")
    }

    /// Control datagrams of `kind` the client sent: (when, activation).
    fn sends_of(&self, kind: &str) -> Vec<(SimTime, u64)> {
        self.causal()
            .iter()
            .filter_map(|r| match *r {
                CausalRecord::Send {
                    dispatch,
                    node,
                    net,
                    kind: k,
                    at,
                    ..
                } if node == self.node() && net == NetId::CONTROL && k == kind => {
                    Some((at, dispatch))
                }
                _ => None,
            })
            .collect()
    }

    /// Kinds of the control datagrams sent in one activation, in order.
    fn sent_in(&self, dispatch: u64) -> Vec<&'static str> {
        self.causal()
            .iter()
            .filter_map(|r| match *r {
                CausalRecord::Send {
                    dispatch: d,
                    node,
                    net,
                    kind,
                    ..
                } if d == dispatch && node == self.node() && net == NetId::CONTROL => Some(kind),
                _ => None,
            })
            .collect()
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
                } if node == self.node() && want(&observations[obs_index].2) == Some(OpId(op)) => {
                    Some((at, dispatch))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("op {op} has no such observation"))
    }

    fn submitted(&self, op: u64) -> SimTime {
        self.op_event(op, |e| match e {
            Event::OpSubmitted { op, .. } => Some(*op),
            _ => None,
        })
        .0
    }

    fn completed(&self, op: u64) -> (SimTime, u64) {
        self.op_event(op, |e| match e {
            Event::OpCompleted { op, .. } => Some(*op),
            _ => None,
        })
    }

    fn result(&self, op: u64) -> Result<FsData, tank_client::FsErr> {
        self.cluster
            .client(self.idx)
            .result_of(OpId(op))
            .cloned()
            .unwrap_or_else(|| panic!("op {op} has no result"))
    }

    /// When the server executed this client's lock releases.
    fn released(&self) -> Vec<SimTime> {
        self.cluster
            .world
            .observations()
            .iter()
            .filter_map(|(at, _, e)| match e {
                Event::LockReleased { client, .. } if *client == self.node() => Some(*at),
                _ => None,
            })
            .collect()
    }
}

/// When the shard-0 server received control datagrams of `kind`.
fn server_got(cluster: &Cluster, kind: &str) -> Vec<SimTime> {
    let server = cluster.server;
    cluster
        .world
        .causal()
        .expect("record_hb is on")
        .iter()
        .filter_map(|r| match *r {
            CausalRecord::Deliver {
                node, kind: k, at, ..
            } if node == server && k == kind => Some(at),
            _ => None,
        })
        .collect()
}

#[test]
fn an_eager_release_is_done_when_its_lock_release_leaves() {
    for seed in 0..10u64 {
        let mut cluster = Cluster::build(cfg(1), seed);
        let script = Script::new()
            .at(ms(100), read("/f0"))
            .at(ms(200), release("/f0"))
            .at(ms(300), write("/f1", 0, 0xA1))
            .at(ms(400), release("/f1"));
        cluster.attach_script(0, script);
        cluster.run_until(t(1_500));
        let log = Log::of(&cluster, 0);
        let sends = log.sends_of("lock_release");
        assert_eq!(sends.len(), 2, "seed {seed}: each release sent once");
        let released = log.released();
        assert_eq!(released.len(), 2, "seed {seed}: each executed once");
        // Answered once: no release was retransmitted.
        assert_eq!(cluster.client(0).stats().retransmits, 0, "seed {seed}");
        // Clean: the release leaves, and the op completes, in the
        // activation that submitted it. Dirty: one SAN round trip later.
        for ((op, waited), (sent, server_at)) in [(2u64, 0u64), (4, 2 * S)]
            .into_iter()
            .zip(sends.into_iter().zip(released))
        {
            let (done, dispatch) = log.completed(op);
            assert_eq!(log.result(op), Ok(FsData::Unit), "seed {seed} op {op}");
            assert_eq!(done.0 - log.submitted(op).0, waited, "seed {seed} op {op}");
            assert_eq!(sent, (done, dispatch), "seed {seed} op {op}");
            assert_eq!(log.sent_in(dispatch), ["lock_release"], "seed {seed}");
            // The server executes the release one latency after it left,
            // so the op is done before the answer (`server_at + L`) lands.
            assert_eq!(server_at.0, done.0 + L, "seed {seed} op {op}");
        }
        audited(&mut cluster, seed);
    }
}

#[test]
fn a_lost_release_reply_parks_the_next_op_not_the_release() {
    // The release leaves at 200 ms + 2S and its answer would land at
    // + 2S + 2L; the server→client control link is down around that
    // instant only.
    let sent = SimTime(200_000_000 + 2 * S);
    for seed in 0..10u64 {
        let mut cluster = Cluster::build(cfg(1), seed);
        let script = Script::new()
            .at(ms(100), write("/f0", 0, 0xB7))
            .at(ms(200), release("/f0"))
            .at(LocalNs(sent.0 + 10_000), read("/f0"));
        cluster.attach_script(0, script);
        let (client, server) = (cluster.clients[0], cluster.server);
        let link = |block| {
            let (src, dst, net) = (server, client, NetId::CONTROL);
            if block {
                Control::BlockDirected { net, src, dst }
            } else {
                Control::UnblockDirected { net, src, dst }
            }
        };
        cluster
            .world
            .schedule_control(SimTime(sent.0 + L / 2), link(true));
        cluster
            .world
            .schedule_control(SimTime(sent.0 + 2 * L + L / 2), link(false));
        cluster.run_until(t(1_500));
        let log = Log::of(&cluster, 0);
        assert_eq!(log.result(2), Ok(FsData::Unit), "seed {seed}");
        assert_eq!(log.completed(2).0, sent, "seed {seed}");
        let releases = log.sends_of("lock_release");
        assert_eq!(releases.len(), 2, "seed {seed}: sent, then retransmitted");
        assert_eq!(releases[0].0, sent, "seed {seed}");
        assert_eq!(releases[1].0 .0, sent.0 + RTO, "seed {seed}");
        // The read parked on `Releasing` until the retransmission was
        // answered, then took a fresh lock and read what was hardened.
        let answered = releases[1].0 .0 + 2 * L;
        let acquires = log.sends_of("lock_acquire");
        assert_eq!(acquires.len(), 2, "seed {seed}: {acquires:?}");
        assert_eq!(acquires[1].0 .0, answered, "seed {seed}");
        assert!(
            log.completed(3).0 .0 - log.submitted(3).0 >= RTO,
            "seed {seed}"
        );
        assert_eq!(
            log.result(3),
            Ok(FsData::Bytes(vec![0xB7; BS])),
            "seed {seed}"
        );
        audited(&mut cluster, seed);
    }
}

/// One SAN latency shorter than the control network's: a flush ends
/// before a control round trip does.
const S_FAST: u64 = 20_000;

/// The write that grows `/f0` by one block. It commits the new size
/// eagerly, in the activation it completes in.
fn grow() -> FsOp {
    write("/f0", FILE_BLOCKS as u64, 0xC3)
}

/// When client 0's growing write of 100 ms completes, found by a dry run
/// of the same deterministic cluster.
fn grown_at(cfg: &ClusterConfig, seed: u64) -> u64 {
    let mut cluster = Cluster::build(cfg.clone(), seed);
    cluster.attach_script(0, Script::new().at(ms(100), grow()));
    cluster.run_until(t(150));
    Log::of(&cluster, 0).completed(1).0 .0
}

/// Client 0 grows `/f0` and releases it `after` ns after the write
/// completed; with `lose_commit_reply` the eager commit's answer is lost.
/// Client 1 stats the file once all is done.
fn grow_then_release(
    cfg: ClusterConfig,
    seed: u64,
    after: u64,
    lose_commit_reply: bool,
) -> Cluster {
    let grown = grown_at(&cfg, seed);
    let mut cluster = Cluster::build(cfg, seed);
    let script = Script::new()
        .at(ms(100), grow())
        .at(LocalNs(grown + after), release("/f0"));
    cluster.attach_script(0, script);
    let stat = FsOp::Stat { path: "/f0".into() };
    cluster.attach_script(1, Script::new().at(ms(800), stat));
    if lose_commit_reply {
        let (net, src, dst) = (NetId::CONTROL, cluster.server, cluster.clients[0]);
        let (from, to) = (grown + L / 2, grown + L + L / 2);
        let world = &mut cluster.world;
        world.schedule_control(SimTime(from), Control::BlockDirected { net, src, dst });
        world.schedule_control(SimTime(to), Control::UnblockDirected { net, src, dst });
    }
    cluster.run_until(t(1_500));
    cluster
}

/// The size another client sees after the release.
fn assert_grown(cluster: &Cluster, seed: u64) {
    let size = match Log::of(cluster, 1).result(1) {
        Ok(FsData::Attr { size, .. }) => size,
        other => panic!("seed {seed}: stat gave {other:?}"),
    };
    assert_eq!(size, (FILE_BLOCKS as u64 + 1) * BS as u64, "seed {seed}");
}

fn fast_san(cap: usize) -> ClusterConfig {
    let mut cfg = cfg(cap);
    cfg.san_net = NetParams::ideal(S_FAST);
    cfg
}

#[test]
fn unbatched_a_growing_release_leaves_after_its_commit_is_answered() {
    // The release's flush ends while the write's eager commit is still
    // unanswered, so the release commits the size itself first.
    for seed in 0..10u64 {
        let mut cluster = grow_then_release(fast_san(1), seed, 10_000, false);
        let log = Log::of(&cluster, 0);
        let commits = log.sends_of("commit_write");
        let releases = log.sends_of("lock_release");
        assert_eq!((commits.len(), releases.len()), (2, 1), "seed {seed}");
        assert_eq!(
            commits[1].0 .0,
            log.submitted(2).0 + 2 * S_FAST,
            "seed {seed}"
        );
        // The release leaves once that commit is answered, and the op
        // completes in the activation that sends it.
        assert_eq!(releases[0].0 .0, commits[1].0 .0 + 2 * L, "seed {seed}");
        assert_eq!(log.completed(2), releases[0], "seed {seed}");
        assert_eq!(log.result(2), Ok(FsData::Unit), "seed {seed}");
        // The server ran both commits, then the release.
        let commit_at = server_got(&cluster, "commit_write");
        let release_at = server_got(&cluster, "lock_release");
        assert_eq!((commit_at.len(), release_at.len()), (2, 1), "seed {seed}");
        assert!(commit_at[1] < release_at[0], "seed {seed}");
        assert_grown(&cluster, seed);
        audited(&mut cluster, seed);
    }
}

/// At `batch_cap = 8` the release's commit and the release leave as one
/// batch, in the activation that completes the op, one flush after it
/// was submitted; the server executes the release one latency later.
fn assert_one_batch(cluster: &Cluster, flush: u64, seed: u64) {
    let log = Log::of(cluster, 0);
    let (done, dispatch) = log.completed(2);
    assert_eq!(done.0, log.submitted(2).0 + flush, "seed {seed}");
    assert_eq!(log.sent_in(dispatch), ["batch"], "seed {seed}");
    assert!(log.sends_of("lock_release").is_empty(), "seed {seed}");
    assert_eq!(log.result(2), Ok(FsData::Unit), "seed {seed}");
    assert_eq!(log.released(), [SimTime(done.0 + L)], "seed {seed}");
    assert_grown(cluster, seed);
}

#[test]
fn batched_a_growing_release_carries_its_commit_in_one_batch() {
    // The eager commit is in flight, gating the lane, when the flush ends.
    for seed in 0..10u64 {
        let mut cluster = grow_then_release(fast_san(8), seed, 10_000, false);
        assert_one_batch(&cluster, 2 * S_FAST, seed);
        audited(&mut cluster, seed);
    }
}

#[test]
fn batched_a_growing_release_carries_its_commit_on_an_idle_lane_too() {
    // The eager commit's answer was lost and the lane counts as idle when
    // the flush ends. A commit sent alone could be overtaken by the
    // release and refused `NotLocked`; it must still ride in the batch.
    for seed in 0..10u64 {
        let mut cluster = grow_then_release(cfg(8), seed, 1_000_000, true);
        assert_one_batch(&cluster, 2 * S, seed);
        audited(&mut cluster, seed);
    }
}

/// The benchmark's `lock` shape (`benchmark/src/bin/harness/sim.rs`): each
/// client walks its four own files, one I/O then an explicit release,
/// and stops after `RUN_FOR` on its own clock.
struct LockPairs {
    client: usize,
    steps: u64,
    started: Option<LocalNs>,
}

const RUN_FOR: LocalNs = LocalNs(1_300_000_000);

/// Files every client could read in the benchmark (none are read here;
/// they set the numbering of the own files).
const SHARED: usize = 64;
const OWN: usize = 4;

impl OpGen for LockPairs {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, now: LocalNs) -> Option<(LocalNs, FsOp)> {
        let started = *self.started.get_or_insert(now);
        if now.0 - started.0 >= RUN_FOR.0 {
            return None;
        }
        let think = if self.steps == 0 {
            ms(5)
        } else {
            LocalNs(rng.random_range(0..=40_000u64))
        };
        self.steps += 1;
        let file = SHARED + self.client * OWN + ((self.steps - 1) / 2) as usize % OWN;
        let path = format!("/f{file}");
        let offset = rng.random_range(0..16u64) * 4096;
        let op = if self.steps.is_multiple_of(2) {
            FsOp::Release { path }
        } else if rng.random_bool(0.5) {
            FsOp::Write {
                path,
                offset,
                data: vec![(offset % 251) as u8; 4096],
            }
        } else {
            FsOp::Read {
                path,
                offset,
                len: 4096,
            }
        };
        Some((think, op))
    }
}

#[test]
fn the_lock_pair_costs_one_control_and_one_san_round_trip() {
    // Mean pair: acquire (2 × 125 µs) + one SAN transfer (2 × 275 µs) +
    // think (2 × 20 µs) = 840 µs, so 4 clients × 2 ops / 840 µs. Waiting
    // for the release's answer would add 250 µs (7 339 op/s).
    const FLOOR: f64 = 4.0 * 2.0 / 840e-6;
    let lan = |latency_ns| NetParams {
        latency_ns,
        jitter_ns: 50_000,
        drop_prob: 0.0,
        dup_prob: 0.0,
    };
    for seed in 1..=3u64 {
        let mut cfg = ClusterConfig::default();
        cfg.clients = 4;
        cfg.standbys = true;
        cfg.files = SHARED + 4 * OWN;
        cfg.file_blocks = 16;
        cfg.cache_capacity = 256;
        cfg.lease = LeaseConfig {
            epsilon: 0.01,
            ..LeaseConfig::with_tau(LocalNs::from_secs(2))
        };
        cfg.ctl_net = lan(100_000);
        cfg.san_net = lan(250_000);
        let mut cluster = Cluster::build(cfg, seed);
        for client in 0..4 {
            cluster.attach_workload(
                client,
                Box::new(LockPairs {
                    client,
                    steps: 0,
                    started: None,
                }),
            );
        }
        let done = |cluster: &Cluster| -> u64 {
            (0..4).map(|i| cluster.client(i).stats().completed).sum()
        };
        cluster.run_until(SimTime::from_millis(300));
        let warm = done(&cluster);
        cluster.run_until(SimTime::from_millis(1_300));
        let rate = (done(&cluster) - warm) as f64;
        assert!(
            rate >= 0.99 * FLOOR,
            "seed {seed}: {rate:.1} op/s against a floor of {FLOOR:.1}"
        );
        cluster.settle();
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.client_totals().failed, 0, "seed {seed}");
    }
}

const ROOT: Ino = Ino(1);
const F: Ino = Ino(2);

/// A scripted lock server for one file `/f` (4 blocks mapped, size 0):
/// it answers every request at once and NACKs every `LockRelease` with
/// `LeaseTimingOut`, recording when each arrived.
#[derive(Default)]
struct NackingServer {
    size: u64,
    epochs: u64,
    releases: Vec<LocalNs>,
}

impl NackingServer {
    fn answer(&mut self, body: &RequestBody) -> ResponseOutcome {
        let attr = FileAttr {
            size: self.size,
            mtime: 0,
            version: 0,
            is_dir: false,
        };
        ResponseOutcome::Acked(Ok(match body {
            RequestBody::Hello { map_epoch } => ReplyBody::HelloOk {
                session: SessionId(1),
                map_epoch: *map_epoch,
            },
            RequestBody::Lookup { parent, name } if *parent == ROOT && name == "f" => {
                ReplyBody::Resolved { ino: F, attr }
            }
            RequestBody::LockAcquire { ino, mode } if *ino == F => {
                self.epochs += 1;
                ReplyBody::LockGranted {
                    ino: F,
                    mode: *mode,
                    epoch: Epoch(self.epochs),
                    blocks: (100..104).map(BlockId).collect(),
                    size: self.size,
                }
            }
            RequestBody::CommitWrite { ino, new_size } if *ino == F => {
                self.size = self.size.max(*new_size);
                ReplyBody::Ok
            }
            RequestBody::LockRelease { .. } => {
                return ResponseOutcome::Nacked(NackReason::LeaseTimingOut)
            }
            RequestBody::KeepAlive | RequestBody::PushAck { .. } => ReplyBody::Ok,
            unexpected => panic!("the scripted server has no answer to {unexpected:?}"),
        }))
    }
}

impl Actor<NetMsg, Event> for NackingServer {
    fn on_message(
        &mut self,
        from: NodeId,
        _net: NetId,
        msg: NetMsg,
        ctx: &mut Ctx<'_, NetMsg, Event>,
    ) {
        let NetMsg::Ctl(CtlMsg::Request(Request { seq, body, .. })) = msg else {
            return;
        };
        if matches!(body, RequestBody::LockRelease { .. }) {
            self.releases.push(ctx.now());
        }
        let resp = Response {
            dst: from,
            session: SessionId(1),
            seq,
            incarnation: Incarnation(1),
            outcome: self.answer(&body),
        };
        ctx.send(NetId::CONTROL, from, NetMsg::Ctl(CtlMsg::Response(resp)));
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, NetMsg, Event>) {}
}

#[test]
fn a_nacked_release_has_already_completed() {
    let mut world: World<NetMsg, Event> = World::new(WorldConfig::default());
    world.add_network(NetId::CONTROL, NetParams::ideal(L));
    world.add_network(NetId::SAN, NetParams::ideal(S));
    let server = world.add_node(Box::new(NackingServer::default()), ClockSpec::ideal());
    let disk = DiskNode::<Event>::new(
        DiskConfig {
            blocks: 1024,
            block_size: BS,
        },
        Box::new(|_| None),
    );
    let disk = world.add_node(Box::new(disk), ClockSpec::ideal());
    let mut cfg = ClientConfig::new(server, vec![disk]);
    cfg.block_size = BS;
    cfg.flush_interval = LocalNs(0);
    // A dirty write (its size commit left with it): the release flushes,
    // then leaves.
    let script = Script::new()
        .at(ms(10), write("/f", 0, 0xE5))
        .at(ms(50), release("/f"));
    let node = ClientNode::new(cfg).with_script(script);
    let client = world.add_node(Box::new(node), ClockSpec::ideal());
    world.run_until(t(400));

    let releases = &world.node_ref::<NackingServer>(server).unwrap().releases;
    assert_eq!(releases.len(), 1, "NACKed once, never retransmitted");
    let node = world.node_ref::<ClientNode>(client).unwrap();
    assert_eq!(node.result_of(OpId(2)), Some(&Ok(FsData::Unit)));
    let done = world
        .observations()
        .iter()
        .find_map(|(at, _, e)| match e {
            Event::OpCompleted { op: OpId(2), .. } => Some(*at),
            _ => None,
        })
        .expect("the release completed");
    assert_eq!(done.0 + L, releases[0].0, "completed as the release left");
    assert_eq!(done.0, 50_000_000 + 2 * S, "one SAN round trip");
}
