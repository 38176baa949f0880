//! Cluster configuration and construction.
#![allow(clippy::field_reassign_with_default)]

use rand::RngExt;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, OpGen};
use tank_consistency::{CheckOptions, Checker, Event};
use tank_core::{legal_rate_range, LeaseConfig};
use tank_proto::{NetMsg, NodeId, ServerId};
use tank_server::{RecoveryPolicy, ServerConfig, ServerNode};
use tank_shard::ShardMap;
use tank_sim::world::Control;
use tank_sim::{ClockSpec, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};
use tank_storage::{DiskConfig, DiskNode};

use crate::report::RunReport;

/// Whole-cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of client nodes.
    pub clients: usize,
    /// Number of metadata lock servers the inode namespace is sharded
    /// across (1 = the classic single-server cluster).
    pub shards: u16,
    /// Build a warm standby per shard: a diskless mirror that tails the
    /// primary's WAL over the control network and elects itself primary
    /// after τ(1+ε) of replication silence. Clients get each standby as
    /// their lane's alternate address. Off by default (every earlier
    /// experiment's topology).
    pub standbys: bool,
    /// Number of SAN disks.
    pub disks: usize,
    /// Files pre-created as `/f0 … /f{n-1}`.
    pub files: usize,
    /// Blocks pre-allocated per file.
    pub file_blocks: u32,
    /// Block size in bytes (whole cluster).
    pub block_size: usize,
    /// Total shared blocks on the store.
    pub total_blocks: u64,
    /// Lease contract.
    pub lease: LeaseConfig,
    /// Server recovery policy.
    pub policy: RecoveryPolicy,
    /// WAL compaction threshold in bytes: when the durable log grows past
    /// this, the server folds it into a fresh snapshot generation. Lower
    /// values mean shorter replays and more compaction work (E16 sweeps
    /// this).
    pub compact_threshold: usize,
    /// Control network characteristics.
    pub ctl_net: NetParams,
    /// SAN characteristics.
    pub san_net: NetParams,
    /// Draw per-node clock rates uniformly from the legal range for
    /// `lease.epsilon` (false = ideal clocks everywhere).
    pub skew_clocks: bool,
    /// Whether clients run the lease protocol (disable to model the
    /// baseline clients of steal/fence-based systems).
    pub client_lease_enabled: bool,
    /// §3.3 NACK optimization at the server (disable for the E4 strawman).
    pub nack_suspect: bool,
    /// Server recovery grace window after a fail-stop restart (disable
    /// only as the negative control: a restarted server that grants
    /// immediately races surviving lease holders and loses updates).
    pub recovery_grace: bool,
    /// Steal-side grace for in-flight hardens (see
    /// [`ServerConfig::harden_grace`]): how long a server waits between
    /// lease expiry and the fence-and-steal, so SAN writes the condemned
    /// client issued before its own expiry can land. Zero (the default)
    /// keeps the prompt-steal behavior.
    pub harden_grace: LocalNs,
    /// Concurrent closed-loop operations per client (local processes).
    pub gen_concurrency: usize,
    /// Client periodic write-back interval (0 disables).
    pub flush_interval: LocalNs,
    /// Client flush queue depth (concurrent SAN writes per campaign).
    pub flush_window: usize,
    /// Client control-path batch cap (1 = batching off, the wire
    /// behavior every earlier experiment measured).
    pub batch_cap: usize,
    /// Client lazy lock release (retain voluntary releases locally).
    pub lazy_release: bool,
    /// Client block-cache capacity in blocks (`usize::MAX` = unbounded,
    /// `0` = no read caching — the E17 cache-off baseline).
    pub cache_capacity: usize,
    /// Request SharedRead data locks for reads (false = every read takes
    /// Exclusive, serializing readers — the E17 lock-mode baseline).
    pub shared_read: bool,
    /// Clients enforce the phase-3 cache gate (disable ONLY as the
    /// negative control: a quiesced cache that keeps serving must trip
    /// the checker's coherence audit).
    pub phase3_gate: bool,
    /// Record a human-readable trace.
    pub record_trace: bool,
    /// Record the simulator's causal log so [`Cluster::hb_audit`] can
    /// run. Pure logging: the schedule and history are bit-identical
    /// with it on or off.
    pub record_hb: bool,
    /// Observability registry shared by every layer of the cluster.
    /// When set, the world registers the full metric contract into it,
    /// forwards `record_trace` into its tracing gate, and the server and
    /// every client attach their counter/histogram/trace emitters.
    pub obs: Option<std::sync::Arc<tank_obs::Registry>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            clients: 2,
            shards: 1,
            standbys: false,
            disks: 2,
            files: 4,
            file_blocks: 4,
            block_size: 4096,
            total_blocks: 1 << 16,
            lease: LeaseConfig::default(),
            policy: RecoveryPolicy::LeaseFence,
            compact_threshold: tank_meta::wal::DEFAULT_COMPACT_THRESHOLD,
            ctl_net: NetParams::default(),
            san_net: NetParams {
                latency_ns: 50_000,
                jitter_ns: 20_000,
                drop_prob: 0.0,
                dup_prob: 0.0,
            },
            skew_clocks: true,
            client_lease_enabled: true,
            nack_suspect: true,
            recovery_grace: true,
            harden_grace: LocalNs(0),
            gen_concurrency: 1,
            flush_interval: LocalNs::from_secs(2),
            flush_window: 16,
            batch_cap: 1,
            lazy_release: false,
            cache_capacity: usize::MAX,
            shared_read: true,
            phase3_gate: true,
            record_trace: false,
            record_hb: false,
            obs: None,
        }
    }
}

/// Role of a node in the standard cluster topology, used when callers
/// pin clocks explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// The i-th disk.
    Disk(usize),
    /// The metadata server for shard `i` (0 in a single-server cluster).
    /// With `standbys`, the warm standby of shard `i` is role
    /// `Server(shards + i)` — an existing clock-pinning closure keeps
    /// working unchanged.
    Server(usize),
    /// The i-th client.
    Client(usize),
}

/// A built cluster: the world plus the id map.
pub struct Cluster {
    /// The simulated world (exposed for advanced scenarios).
    pub world: World<NetMsg, Event>,
    /// Disk node ids.
    pub disks: Vec<NodeId>,
    /// The shard-0 server node id (the only server when `shards == 1`;
    /// kept so single-server call sites read naturally).
    pub server: NodeId,
    /// All server node ids, index-aligned with [`ServerId`].
    pub servers: Vec<NodeId>,
    /// Warm-standby node ids, index-aligned with [`ServerId`] (empty
    /// unless the cluster was built with `standbys`).
    pub standby_servers: Vec<NodeId>,
    /// Client node ids, index-aligned with the config.
    pub clients: Vec<NodeId>,
    cfg: ClusterConfig,
    seed: u64,
    crashes: Vec<(NodeId, SimTime)>,
    server_restarts: Vec<(NodeId, SimTime)>,
}

impl Cluster {
    /// Build a cluster per `cfg`, deterministically from `seed`. Client
    /// and server clocks are drawn from the legal rate range when
    /// `cfg.skew_clocks` is set.
    pub fn build(cfg: ClusterConfig, seed: u64) -> Cluster {
        let mut clock_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC10C_C10C);
        let (lo, hi) = legal_rate_range(cfg.lease.epsilon);
        let skew = cfg.skew_clocks;
        Self::build_with_clocks(cfg, seed, &mut |role| match role {
            NodeRole::Disk(_) => ClockSpec::ideal(),
            NodeRole::Server(_) | NodeRole::Client(_) => {
                if skew {
                    ClockSpec {
                        rate: clock_rng.random_range(lo..=hi),
                        offset_ns: clock_rng.random_range(0..1_000_000_000),
                    }
                } else {
                    ClockSpec::ideal()
                }
            }
        })
    }

    /// Build with caller-pinned clocks (adversarial timing experiments).
    pub fn build_with_clocks(
        cfg: ClusterConfig,
        seed: u64,
        clock_of: &mut dyn FnMut(NodeRole) -> ClockSpec,
    ) -> Cluster {
        assert!(cfg.clients >= 1 && cfg.disks >= 1);
        cfg.lease.validate().expect("lease config");
        let mut world: World<NetMsg, Event> = World::new(WorldConfig {
            seed,
            record_trace: cfg.record_trace,
            record_causal: cfg.record_hb,
        });
        world.add_network(NetId::CONTROL, cfg.ctl_net);
        world.add_network(NetId::SAN, cfg.san_net);
        if let Some(reg) = &cfg.obs {
            world.set_obs(reg.clone());
        }

        let mut disks = Vec::new();
        for i in 0..cfg.disks {
            let node = DiskNode::new(
                DiskConfig {
                    blocks: cfg.total_blocks,
                    block_size: cfg.block_size,
                },
                Box::new(Some),
            );
            disks.push(world.add_node(Box::new(node), clock_of(NodeRole::Disk(i))));
        }

        assert!(cfg.shards >= 1, "a cluster needs at least one shard");
        let map = ShardMap::new(cfg.shards);
        // One shard's server node; its standby mirror is built the same way.
        let shard_server = |sid: ServerId| {
            let mut scfg = ServerConfig::default();
            scfg.lease = cfg.lease;
            scfg.policy = cfg.policy;
            scfg.compact_threshold = cfg.compact_threshold;
            scfg.nack_suspect = cfg.nack_suspect;
            scfg.recovery_grace = cfg.recovery_grace;
            scfg.harden_grace = cfg.harden_grace;
            scfg.disks = disks.clone();
            scfg.sid = sid;
            scfg.map = map;
            let mut node = ServerNode::new(scfg, cfg.total_blocks, cfg.block_size);
            if let Some(reg) = &cfg.obs {
                node.set_obs(reg.clone());
            }
            node
        };
        let mut servers = Vec::new();
        for sid in map.servers() {
            servers.push(world.add_node(
                Box::new(shard_server(sid)),
                clock_of(NodeRole::Server(sid.0 as usize)),
            ));
        }
        let server = servers[0];

        // Warm standbys: one diskless mirror per shard, wired to tail its
        // primary's WAL. Standbys get no precreated files — everything
        // they know arrives through replication, which is the point.
        let mut standby_servers = Vec::new();
        if cfg.standbys {
            for sid in map.servers() {
                standby_servers.push(world.add_node(
                    Box::new(shard_server(sid)),
                    clock_of(NodeRole::Server(cfg.shards as usize + sid.0 as usize)),
                ));
            }
            for (&p, &s) in servers.iter().zip(&standby_servers) {
                world
                    .node_mut::<ServerNode>(p)
                    .expect("server downcast")
                    .set_replication(s, false);
                world
                    .node_mut::<ServerNode>(s)
                    .expect("standby downcast")
                    .set_replication(p, true);
            }
        }

        let mut clients = Vec::new();
        for i in 0..cfg.clients {
            let mut ccfg = ClientConfig::sharded(servers.clone(), disks.clone());
            if cfg.standbys {
                ccfg.alternates = standby_servers.iter().map(|&n| Some(n)).collect();
            }
            ccfg.lease = cfg.lease;
            ccfg.block_size = cfg.block_size;
            ccfg.lease_enabled = cfg.client_lease_enabled;
            ccfg.gen_concurrency = cfg.gen_concurrency;
            ccfg.flush_interval = cfg.flush_interval;
            ccfg.flush_window = cfg.flush_window;
            ccfg.batch_cap = cfg.batch_cap;
            ccfg.lazy_release = cfg.lazy_release;
            ccfg.cache_capacity = cfg.cache_capacity;
            ccfg.shared_read = cfg.shared_read;
            ccfg.phase3_gate = cfg.phase3_gate;
            let mut node = ClientNode::new(ccfg);
            if let Some(reg) = &cfg.obs {
                node.set_obs(reg.clone());
            }
            clients.push(world.add_node(Box::new(node), clock_of(NodeRole::Client(i))));
        }

        // Pre-create the shared files, each on the shard the map places
        // its top-level name on (every shard with one server).
        for i in 0..cfg.files {
            let name = format!("f{i}");
            let owner = servers[map.place_top(&name).0 as usize];
            let srv = world
                .node_mut::<ServerNode>(owner)
                .expect("server downcast");
            srv.precreate_file(&name, cfg.file_blocks);
        }

        Cluster {
            world,
            disks,
            server,
            servers,
            standby_servers,
            clients,
            cfg,
            seed,
            crashes: Vec::new(),
            server_restarts: Vec::new(),
        }
    }

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The attached observability registry, if one was configured.
    pub fn obs(&self) -> Option<&std::sync::Arc<tank_obs::Registry>> {
        self.cfg.obs.as_ref()
    }

    /// Cross-check the checker-facing event stream against the obs
    /// registry's counters (empty = the two pipelines agree). Panics if
    /// no registry was configured.
    pub fn cross_check(&self) -> Vec<String> {
        let reg = self.obs().expect("cluster built without cfg.obs");
        tank_consistency::cross_check(self.world.observations(), &reg.snapshot())
    }

    /// The happens-before auditor's default options for this cluster's
    /// topology: every disk severs cross-dispatch program order, every
    /// primary and standby is registered under its shard, and all edge
    /// families are enabled.
    pub fn hb_options(&self) -> tank_consistency::HbOptions {
        let mut server_shards: Vec<(NodeId, u16)> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u16))
            .collect();
        server_shards.extend(
            self.standby_servers
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, i as u16)),
        );
        tank_consistency::HbOptions::new(self.disks.clone(), server_shards)
    }

    /// Run the happens-before race auditor over the causal log (requires
    /// the cluster to have been built with `cfg.record_hb`). Reports
    /// every conflicting block-access pair the happens-before relation
    /// leaves unordered; also feeds the `consistency.hb.*` counters when
    /// an obs registry is attached.
    pub fn hb_audit(&self) -> tank_consistency::HbReport {
        self.hb_audit_with(&self.hb_options())
    }

    /// [`Cluster::hb_audit`] with explicit options — used by the
    /// negative controls, which sever one edge family and expect the
    /// auditor to fire.
    pub fn hb_audit_with(&self, opts: &tank_consistency::HbOptions) -> tank_consistency::HbReport {
        let records = self
            .world
            .causal()
            .expect("cluster built without cfg.record_hb");
        let report = tank_consistency::hb::audit(records, self.world.observations(), opts);
        if let Some(reg) = self.obs() {
            reg.counter_def(&tank_obs::names::CONSISTENCY_HB_EVENTS)
                .add(report.records as u64);
            reg.counter_def(&tank_obs::names::CONSISTENCY_HB_EDGES)
                .add(report.edges as u64);
            reg.counter_def(&tank_obs::names::CONSISTENCY_HB_RACY_PAIRS)
                .add(report.racy.len() as u64);
        }
        report
    }

    /// Attach a closed-loop workload to client `idx`.
    pub fn attach_workload(&mut self, idx: usize, gen: Box<dyn OpGen>) {
        let id = self.clients[idx];
        self.world
            .node_mut::<ClientNode>(id)
            .expect("client downcast")
            .set_workload(gen);
    }

    /// Attach a fixed script to client `idx`.
    pub fn attach_script(&mut self, idx: usize, script: Script) {
        let id = self.clients[idx];
        self.world
            .node_mut::<ClientNode>(id)
            .expect("client downcast")
            .set_script(script);
    }

    /// Sever client `idx` from every metadata server on the **control
    /// network only** (both directions) at `at`, healing at `heal` if
    /// given — Figure 2's scenario: the SAN stays reachable.
    pub fn isolate_control(&mut self, idx: usize, at: SimTime, heal: Option<SimTime>) {
        for sid in 0..self.servers.len() {
            self.isolate_control_shard(idx, ServerId(sid as u16), at, heal);
        }
    }

    /// Sever client `idx` from the lock server of one shard only (both
    /// directions on the control network). The client's other per-server
    /// leases stay healthy: only `sid`-owned inodes should quiesce.
    pub fn isolate_control_shard(
        &mut self,
        idx: usize,
        sid: ServerId,
        at: SimTime,
        heal: Option<SimTime>,
    ) {
        let c = self.clients[idx];
        let s = self.servers[sid.0 as usize];
        self.world.schedule_control(
            at,
            Control::BlockPair {
                net: NetId::CONTROL,
                a: c,
                b: s,
            },
        );
        if let Some(h) = heal {
            self.world.schedule_control(
                h,
                Control::UnblockPair {
                    net: NetId::CONTROL,
                    a: c,
                    b: s,
                },
            );
        }
    }

    /// Sever client `idx` from every disk on the SAN (both directions) —
    /// the dual failure, where metadata flows but data cannot.
    pub fn isolate_san(&mut self, idx: usize, at: SimTime, heal: Option<SimTime>) {
        let c = self.clients[idx];
        for &d in &self.disks {
            self.world.schedule_control(
                at,
                Control::BlockPair {
                    net: NetId::SAN,
                    a: c,
                    b: d,
                },
            );
            if let Some(h) = heal {
                self.world.schedule_control(
                    h,
                    Control::UnblockPair {
                        net: NetId::SAN,
                        a: c,
                        b: d,
                    },
                );
            }
        }
    }

    /// Block only the direction client→servers (asymmetric partition: the
    /// client hears the servers but cannot reach them).
    pub fn isolate_control_outbound(&mut self, idx: usize, at: SimTime, heal: Option<SimTime>) {
        let c = self.clients[idx];
        for &s in &self.servers {
            self.world.schedule_control(
                at,
                Control::BlockDirected {
                    net: NetId::CONTROL,
                    src: c,
                    dst: s,
                },
            );
            if let Some(h) = heal {
                self.world.schedule_control(
                    h,
                    Control::UnblockDirected {
                        net: NetId::CONTROL,
                        src: c,
                        dst: s,
                    },
                );
            }
        }
    }

    /// Make client `idx` a §6 "slow computer" from `at`: every datagram it
    /// sends (on both networks) is delayed an extra `extra_ns`. Its
    /// commands — including SAN writes — arrive late, which is exactly the
    /// failure mode fencing exists to stop. `until` restores full speed.
    pub fn slow_client(&mut self, idx: usize, at: SimTime, extra_ns: u64, until: Option<SimTime>) {
        let c = self.clients[idx];
        self.world
            .schedule_control(at, Control::SetNodeOutboundDelay { node: c, extra_ns });
        if let Some(u) = until {
            self.world.schedule_control(
                u,
                Control::SetNodeOutboundDelay {
                    node: c,
                    extra_ns: 0,
                },
            );
        }
    }

    /// Fail-stop the metadata server at `at` and restart it at `restart`.
    /// Sessions, locks, and lease state are volatile and lost; metadata
    /// and fence state survive on the shared disks. The restart instant
    /// is recorded so the checker can police the recovery grace window.
    /// In a sharded cluster this is shard 0; see [`Cluster::crash_shard`].
    pub fn crash_server(&mut self, at: SimTime, restart: SimTime) {
        self.crash_shard(ServerId(0), at, restart);
    }

    /// Fail-stop the lock server of one shard at `at`, restarting it at
    /// `restart`. Only that shard's locks and sessions are lost; the
    /// other shards keep granting throughout.
    pub fn crash_shard(&mut self, sid: ServerId, at: SimTime, restart: SimTime) {
        let s = self.servers[sid.0 as usize];
        self.world.schedule_control(at, Control::Crash { node: s });
        self.world
            .schedule_control(restart, Control::Restart { node: s });
        self.server_restarts.push((s, restart));
    }

    /// Fail-stop the lock server of one shard at `at` **permanently** —
    /// it never restarts; the shard's warm standby elects itself primary
    /// after τ(1+ε) of replication silence and serves from its mirrored
    /// WAL. The standby is recorded in the checker's restart list at the
    /// crash instant: the same grant-proximity blackout a restarted
    /// primary owes, the election window and grace window together must
    /// clear it. Requires a cluster built with `standbys`.
    pub fn crash_shard_with_failover(&mut self, sid: ServerId, at: SimTime) {
        assert!(
            !self.standby_servers.is_empty(),
            "cluster built without standbys"
        );
        let s = self.servers[sid.0 as usize];
        self.world.schedule_control(at, Control::Crash { node: s });
        self.server_restarts
            .push((self.standby_servers[sid.0 as usize], at));
    }

    /// Fail-stop client `idx` at `at`, optionally restarting it.
    pub fn crash_client(&mut self, idx: usize, at: SimTime, restart: Option<SimTime>) {
        let c = self.clients[idx];
        self.world.schedule_control(at, Control::Crash { node: c });
        self.crashes.push((c, at));
        if let Some(r) = restart {
            self.world.schedule_control(r, Control::Restart { node: c });
        }
    }

    /// Run the world to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Let in-flight work settle: a few lease periods and flush intervals
    /// past the given instant, so write-back data reaches disk before the
    /// checker rules on it.
    pub fn settle(&mut self) {
        let tau_true = self.cfg.lease.tau.0 * 2 + 5_000_000_000;
        let t = self.world.now().after(tau_true);
        self.world.run_until(t);
    }

    /// Harvest the report (does not consume the cluster: call once at the
    /// end; calling mid-run reports the prefix).
    pub fn finish(&mut self) -> RunReport {
        let observations = self.world.observations().to_vec();
        // Write-back grace: a couple of flush intervals plus slack —
        // younger dirty data at run end is normal, not stranded.
        let grace_ns = 2 * 2_000_000_000 + 1_000_000_000;
        // Tightest true-time lower bound on the server's local grace
        // window τ(1+ε): a fast-but-legal server clock (rate 1+ε) burns
        // through it in τ true nanoseconds.
        let recovery_grace_ns = if self.server_restarts.is_empty() {
            0
        } else {
            self.cfg.lease.tau.0
        };
        let checker = Checker::new(CheckOptions {
            crashes: self.crashes.clone(),
            server_restarts: self.server_restarts.clone(),
            recovery_grace_ns,
            end: self.world.now(),
            grace_ns,
            shard_servers: self.servers.clone(),
            standby_servers: self.standby_servers.iter().map(|&n| Some(n)).collect(),
        });
        let check = checker.run(&observations);
        RunReport::assemble(self, check)
    }

    /// A client node (downcast), for scenario-specific inspection.
    pub fn client(&self, idx: usize) -> &ClientNode {
        self.world
            .node_ref::<ClientNode>(self.clients[idx])
            .expect("client downcast")
    }

    /// The server node (downcast). Shard 0 in a sharded cluster.
    pub fn server_node(&self) -> &ServerNode {
        self.server_node_of(ServerId(0))
    }

    /// The lock server governing one shard (downcast).
    pub fn server_node_of(&self, sid: ServerId) -> &ServerNode {
        self.world
            .node_ref::<ServerNode>(self.servers[sid.0 as usize])
            .expect("server downcast")
    }

    /// One shard's warm standby (downcast). Panics unless the cluster
    /// was built with `standbys`.
    pub fn standby_node_of(&self, sid: ServerId) -> &ServerNode {
        self.world
            .node_ref::<ServerNode>(self.standby_servers[sid.0 as usize])
            .expect("standby downcast")
    }

    /// A disk node (downcast).
    pub fn disk(&self, idx: usize) -> &DiskNode<Event> {
        self.world
            .node_ref::<DiskNode<Event>>(self.disks[idx])
            .expect("disk downcast")
    }

    /// The build seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{UniformGen, ZipfGen};
    use tank_client::FsOp;

    #[test]
    fn build_and_run_a_quiet_cluster() {
        let cfg = ClusterConfig::default();
        let mut c = Cluster::build(cfg, 7);
        c.run_until(SimTime::from_secs(3));
        let report = c.finish();
        assert!(report.check.safe());
        // Idle clients stay alive purely via keep-alives; the authority
        // never arms a timer.
        assert_eq!(report.authority.timers_started, 0);
        assert_eq!(report.authority_memory_bytes, 0);
    }

    #[test]
    fn workload_cluster_is_safe_and_does_work() {
        let mut cfg = ClusterConfig::default();
        cfg.clients = 3;
        cfg.files = 6;
        let mut c = Cluster::build(cfg, 11);
        for i in 0..3 {
            c.attach_workload(i, Box::new(UniformGen::default_for(6)));
        }
        c.run_until(SimTime::from_secs(20));
        c.settle();
        let report = c.finish();
        assert!(report.check.safe(), "violations: {:?}", report.check);
        assert!(
            report.check.ops_ok > 50,
            "ops flowed: {}",
            report.check.ops_ok
        );
        assert!(report.check.reads_checked > 0);
        assert!(report.check.writes_acked > 0);
    }

    #[test]
    fn same_seed_same_report() {
        let run = |seed| {
            let mut cfg = ClusterConfig::default();
            cfg.clients = 2;
            let mut c = Cluster::build(cfg, seed);
            for i in 0..2 {
                c.attach_workload(i, Box::new(UniformGen::default_for(4)));
            }
            c.run_until(SimTime::from_secs(5));
            let r = c.finish();
            (r.check.ops_ok, r.msg.ctl_sent, r.msg.san_sent)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    /// The repo benchmark's `batch` mix for one client: 56 % block reads
    /// of a shared Zipf set, 24 % block writes to the client's own files,
    /// 20 % stats of the shared set, 0–40 µs think time.
    struct BatchGen {
        client: usize,
        zipf: ZipfGen,
        started: bool,
    }

    impl OpGen for BatchGen {
        fn next_op(&mut self, rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
            const BS: u64 = 4096;
            let think = if std::mem::replace(&mut self.started, true) {
                LocalNs(rng.random_range(0..=40_000u64))
            } else {
                LocalNs::from_millis(5) // the sessions are up
            };
            let offset = rng.random_range(0..16u64) * BS;
            let op = match rng.random_range(0..100u32) {
                0..=19 => FsOp::Stat {
                    path: format!("/f{}", self.zipf.sample(rng)),
                },
                20..=43 => FsOp::Write {
                    path: format!("/f{}", 64 + 4 * self.client + rng.random_range(0..4usize)),
                    offset,
                    data: vec![offset as u8; BS as usize],
                },
                _ => FsOp::Read {
                    path: format!("/f{}", self.zipf.sample(rng)),
                    offset,
                    len: BS as u32,
                },
            };
            Some((think, op))
        }
    }

    /// Same seed, same run, observation for observation, at the repo
    /// benchmark's `batch` shape: 8 clients of 4 processes each, 2 shards
    /// with standbys, a 256-block cache, batches of 8, lazy release. The
    /// two builds run in one process, so every map still on `RandomState`
    /// hashes with fresh keys in each: an iteration order that reached
    /// the schedule would show here (DESIGN.md §8, item 7).
    #[test]
    fn same_seed_same_observations_at_the_batch_shape() {
        let run = |seed| {
            let lan = |latency_ns| NetParams {
                latency_ns,
                jitter_ns: 50_000,
                drop_prob: 0.0,
                dup_prob: 0.0,
            };
            let cfg = ClusterConfig {
                clients: 8,
                shards: 2,
                standbys: true,
                files: 64 + 8 * 4,
                file_blocks: 16,
                block_size: 4096,
                lease: LeaseConfig {
                    epsilon: 0.01,
                    ..LeaseConfig::with_tau(LocalNs::from_secs(2))
                },
                ctl_net: lan(100_000),
                san_net: lan(250_000),
                cache_capacity: 256,
                gen_concurrency: 4,
                batch_cap: 8,
                lazy_release: true,
                ..ClusterConfig::default()
            };
            let mut c = Cluster::build(cfg, seed);
            for client in 0..8 {
                let zipf = ZipfGen::new(64, 1.0, Default::default());
                let gen = BatchGen {
                    client,
                    zipf,
                    started: false,
                };
                c.attach_workload(client, Box::new(gen));
            }
            c.run_until(SimTime::from_millis(500));
            c.world.observations().to_vec()
        };
        let first = run(1);
        assert!(first.len() > 100_000, "the run did work: {}", first.len());
        assert!(first == run(1), "same seed, same observation stream");
        assert!(first != run(2), "another seed, another stream");
    }
}
