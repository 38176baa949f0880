//! Sharded metadata-cluster scenarios: the namespace is partitioned across
//! N independent lock servers and the client runs one four-phase lease per
//! server (§3's "a single lease *per server*").
//!
//! The subjects under test:
//! * a multi-shard cluster serves a mixed workload safely,
//! * a Zipf-skewed workload at 1 and 8 shards passes the checker and the
//!   happens-before audit (the tree's only 8-shard hb run),
//! * losing ONE shard's server quiesces only that shard's inodes — the
//!   client keeps reading and writing files owned by the other shards
//!   (blast-radius isolation),
//! * a cross-shard rename moves the dentry between shard roots via the
//!   ordered two-lock protocol, and
//! * a cross-shard rename interrupted by a partition of the B side aborts
//!   cleanly: no orphaned directory entry, checker-verified, 10 seeds.

use std::sync::Arc;

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::workload::{Mix, UniformGen, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_obs::Registry;
use tank_proto::{Event, Ino, ServerId};
use tank_shard::ShardMap;
use tank_sim::{LocalNs, SimTime};

const BS: usize = 512;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x_ms: u64) -> SimTime {
    SimTime::from_millis(x_ms)
}

fn sharded_cfg(shards: u16, clients: usize, files: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.shards = shards;
    cfg.clients = clients;
    cfg.files = files;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg
}

/// The shard-root directory listing of one server (clone: `readdir` is a
/// counted metadata transaction on the live store).
fn root_listing(cluster: &Cluster, sid: ServerId) -> Vec<(String, Ino)> {
    let mut meta = cluster.server_node_of(sid).meta().clone();
    let root = meta.root();
    meta.readdir(root).expect("shard root listing")
}

/// A precreated file name owned by `want` (searching `/f0 … /f{n-1}`).
fn file_owned_by(map: &ShardMap, files: usize, want: ServerId) -> Option<String> {
    (0..files)
        .map(|i| format!("f{i}"))
        .find(|n| map.place_top(n) == want)
}

#[test]
fn four_shard_cluster_serves_and_stays_safe() {
    let cfg = sharded_cfg(4, 3, 16);
    let map = ShardMap::new(4);
    let mut cluster = Cluster::build(cfg, 21);
    for i in 0..3 {
        cluster.attach_workload(i, Box::new(UniformGen::default_for(16)));
    }
    cluster.run_until(SimTime::from_secs(12));
    cluster.settle();
    let report = cluster.finish();
    assert!(report.check.safe(), "violations: {:#?}", report.check);
    assert!(
        report.check.ops_ok > 50,
        "ops flowed: {}",
        report.check.ops_ok
    );
    // Every shard that owns at least one of the precreated names handled
    // real traffic — the namespace is genuinely spread, not funneled
    // through shard 0.
    let mut loaded = 0;
    for sid in map.servers() {
        if file_owned_by(&map, 16, sid).is_some() {
            let reqs = cluster.server_node_of(sid).stats().requests;
            assert!(reqs > 0, "shard {sid:?} owns files but saw no requests");
            loaded += 1;
        }
    }
    assert!(loaded >= 2, "16 names landed on a single shard?");
}

#[test]
fn zipf_workload_is_checker_and_hb_clean_at_one_and_eight_shards() {
    // Skewed popularity puts the hot files' lock traffic on few shards
    // and the write tags of different shards side by side in one audit —
    // the run that once caught a cross-shard `WriteTag` collision.
    const FILES: usize = 64;
    for shards in [1, 8] {
        let mut cfg = sharded_cfg(shards, 4, FILES);
        cfg.file_blocks = 4;
        cfg.gen_concurrency = 2;
        cfg.record_hb = true;
        let mut cluster = Cluster::build(cfg, 0);
        for i in 0..4 {
            cluster.attach_workload(i, Box::new(ZipfGen::new(FILES, 1.0, Mix::default())));
        }
        cluster.run_until(SimTime::from_secs(4));
        cluster.settle();
        let hb = cluster.hb_audit();
        assert!(hb.racy.is_empty(), "{shards} shards:\n{}", hb.render());
        let report = cluster.finish();
        assert!(report.check.safe(), "{shards} shards: {:#?}", report.check);
        assert!(
            report.check.ops_ok > 50,
            "{shards} shards: ops flowed: {}",
            report.check.ops_ok
        );
    }
}

#[test]
fn partition_of_one_shard_stalls_only_that_shard() {
    let registry = Arc::new(Registry::new());
    let mut cfg = sharded_cfg(4, 2, 8);
    cfg.obs = Some(registry.clone());
    let map = ShardMap::new(4);
    // The victim shard is wherever `/f0` lives; pick a healthy-file name
    // owned by any other shard.
    let victim = map.place_top("f0");
    let healthy = (0..8)
        .map(|i| format!("f{i}"))
        .find(|n| map.place_top(n) != victim)
        .expect("8 names cannot all share one shard");
    let mut cluster = Cluster::build(cfg, 42);

    // C0 dirties /f0 (victim shard) and the healthy file before the
    // partition, then keeps working the healthy file while the victim
    // shard is unreachable; its late /f0 op must be refused, not served
    // from a condemned cache.
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
            FsOp::Write {
                path: format!("/{healthy}"),
                offset: 0,
                data: vec![0xBB; BS],
            },
        )
        .at(
            ms(6_000),
            FsOp::Write {
                path: format!("/{healthy}"),
                offset: 0,
                data: vec![0xBC; BS],
            },
        )
        .at(
            ms(7_000),
            FsOp::Read {
                path: format!("/{healthy}"),
                offset: 0,
                len: 64,
            },
        )
        .at(
            ms(8_000),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![0xAB; BS],
            },
        );
    // C1 demands /f0 during the partition, forcing the victim server
    // through delivery-error → lease-expiry → fence → steal against C0.
    let c1 = Script::new().at(
        ms(1_500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![0xCC; BS],
        },
    );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control_shard(0, victim, t(1_000), Some(t(15_000)));
    cluster.run_until(SimTime::from_secs(25));
    let report = cluster.finish();
    assert!(report.check.safe(), "violations: {:#?}", report.check);

    // Blast radius: only the victim shard's server condemned and stole;
    // the client's leases against the other three never wavered.
    assert!(
        cluster.server_node_of(victim).stats().locks_stolen >= 1,
        "victim shard recovered C0's lock"
    );
    for sid in map.servers().filter(|s| *s != victim) {
        assert_eq!(
            cluster.server_node_of(sid).stats().locks_stolen,
            0,
            "shard {sid:?} stole although it was never partitioned"
        );
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("client.lane.expiries"),
        Some(1),
        "exactly the victim lane expired"
    );

    // The healthy-shard ops issued DURING the partition completed (writes
    // at 6s, read at 7s on top of the two pre-partition writes); the late
    // /f0 op was denied by the quiesced victim lane.
    let c0s = &report.clients[0];
    assert!(c0s.completed >= 4, "healthy lanes kept serving: {c0s:?}");
    assert!(
        report.check.ops_denied >= 1,
        "victim-shard op was refused: {}",
        report.check.ops_denied
    );
    // C1 eventually wrote /f0: the steal resolved availability.
    assert!(report.clients[1].completed >= 1);
}

#[test]
fn cross_shard_rename_moves_the_dentry() {
    let cfg = sharded_cfg(2, 1, 2);
    let map = ShardMap::new(2);
    let src = "f0".to_string();
    let src_shard = map.place_top(&src);
    // A destination name owned by the *other* shard.
    let dst = (0..100)
        .map(|i| format!("g{i}"))
        .find(|n| map.place_top(n) != src_shard)
        .expect("some name hashes to the other shard");
    let dst_shard = map.place_top(&dst);
    let mut cluster = Cluster::build(cfg, 7);
    let ino = root_listing(&cluster, src_shard)
        .iter()
        .find(|(n, _)| *n == src)
        .map(|(_, i)| *i)
        .expect("precreated on its owner shard");

    let c0 = Script::new()
        .at(
            ms(500),
            FsOp::Rename {
                from: format!("/{src}"),
                to: format!("/{dst}"),
            },
        )
        // Exercise the fan-out listing over both shard roots afterwards.
        .at(ms(3_000), FsOp::List { path: "/".into() });
    cluster.attach_script(0, c0);
    cluster.run_until(SimTime::from_secs(8));
    cluster.settle();
    let report = cluster.finish();
    assert!(report.check.safe(), "violations: {:#?}", report.check);

    // The dentry moved: gone from the source root, present under the
    // destination root, still naming the original inode (which the source
    // shard keeps governing — dentry and inode governance now differ).
    let src_list = root_listing(&cluster, src_shard);
    assert!(
        !src_list.iter().any(|(n, _)| *n == src),
        "source dentry lingers: {src_list:?}"
    );
    let dst_list = root_listing(&cluster, dst_shard);
    assert_eq!(
        dst_list.iter().find(|(n, _)| *n == dst).map(|(_, i)| *i),
        Some(ino),
        "destination dentry names the original inode: {dst_list:?}"
    );
    assert_eq!(map.owner_of(ino), src_shard, "inode governance unchanged");
}

#[test]
fn cross_shard_rename_under_partition_aborts_cleanly() {
    // 10 seeds: the B side (destination shard) drops off the control
    // network just before the rename. The client's B lane quiesces, the
    // two-lock acquire cannot finish, the rename aborts — and the
    // namespace is untouched: the file keeps exactly its old name. No
    // orphaned dentry, no half-applied link, every seed checker-clean.
    let map = ShardMap::new(2);
    let src = "f0".to_string();
    let src_shard = map.place_top(&src);
    let dst = (0..100)
        .map(|i| format!("g{i}"))
        .find(|n| map.place_top(n) != src_shard)
        .unwrap();
    let dst_shard = map.place_top(&dst);

    for seed in 0..10 {
        let registry = Arc::new(Registry::new());
        let mut cfg = sharded_cfg(2, 1, 2);
        cfg.obs = Some(registry.clone());
        let mut cluster = Cluster::build(cfg, seed);
        let ino = root_listing(&cluster, src_shard)
            .iter()
            .find(|(n, _)| *n == src)
            .map(|(_, i)| *i)
            .unwrap();
        let c0 = Script::new().at(
            ms(1_000),
            FsOp::Rename {
                from: format!("/{src}"),
                to: format!("/{dst}"),
            },
        );
        cluster.attach_script(0, c0);
        cluster.isolate_control_shard(0, dst_shard, t(500), Some(t(12_000)));
        cluster.run_until(SimTime::from_secs(20));
        cluster.settle();
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);

        // The rename aborted (counted) rather than completing or hanging.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("client.rename.aborts"),
            Some(1),
            "seed {seed}: rename against a dead shard must abort"
        );
        // Clean abort: the source dentry is intact, the destination root
        // never gained an entry — no orphan, no duplicate.
        let src_list = root_listing(&cluster, src_shard);
        assert_eq!(
            src_list.iter().find(|(n, _)| *n == src).map(|(_, i)| *i),
            Some(ino),
            "seed {seed}: source dentry must survive the abort"
        );
        let dst_list = root_listing(&cluster, dst_shard);
        assert!(
            !dst_list.iter().any(|(n, _)| *n == dst),
            "seed {seed}: orphaned destination dentry: {dst_list:?}"
        );
    }
}

#[test]
fn batched_lanes_survive_a_shard_partition() {
    // Batching under partition, 10 seeds: with the control path batching
    // (cap 16) and lazy release on, one shard drops off the network
    // mid-run. Three hazards are specific to this configuration and all
    // must be handled:
    //  * ops queued in the victim lane's coalescing buffer when the
    //    partition hits must fail with the lane sweep, not linger,
    //  * the retransmitted batches the partition provokes must dedup as
    //    units (the atomicity audit would catch a re-executed element),
    //  * the lazy-release cache must be purged of the victim shard's
    //    inodes at lane expiry — no retained entry may outlive its lock.
    let map = ShardMap::new(4);
    let victim = map.place_top("f0");
    for seed in 0..10 {
        let mut cfg = sharded_cfg(4, 2, 16);
        cfg.batch_cap = 16;
        cfg.lazy_release = true;
        cfg.gen_concurrency = 4;
        let mut cluster = Cluster::build(cfg, seed);
        for i in 0..2 {
            cluster.attach_workload(i, Box::new(UniformGen::default_for(16)));
        }
        // Both clients lose the victim shard; it heals late in the run.
        cluster.isolate_control_shard(0, victim, t(3_000), Some(t(14_000)));
        cluster.isolate_control_shard(1, victim, t(3_000), Some(t(14_000)));
        cluster.run_until(SimTime::from_secs(22));
        cluster.settle();
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert!(
            report.check.batch_atomicity.is_empty(),
            "seed {seed}: batched elements executed exactly once"
        );
        assert!(
            report.check.ops_ok > 50,
            "seed {seed}: batched lanes kept serving around the partition"
        );
        for i in 0..2 {
            let client = cluster.client(i);
            assert!(
                client.lazy_cache_consistent(),
                "seed {seed}: client {i} retains a release for a lock it no longer holds: {:?}",
                client.lazy_retained()
            );
        }
    }
}

#[test]
fn crashing_one_shard_leaves_the_others_granting() {
    // Satellite: `crash_shard` fail-stops a single lock server. Its locks
    // and sessions die with it; after the τ(1+ε) recovery grace window it
    // serves again. The other shard grants uninterrupted throughout, and
    // the checker's per-server recovery accounting accepts the run.
    let map = ShardMap::new(2);
    let victim = map.place_top("f0");
    let healthy = (0..8)
        .map(|i| format!("f{i}"))
        .find(|n| map.place_top(n) != victim)
        .unwrap();
    let mut cluster = Cluster::build(sharded_cfg(2, 1, 8), 9);
    let c0 = Script::new()
        .at(
            ms(500),
            FsOp::Write {
                path: format!("/{healthy}"),
                offset: 0,
                data: vec![1; BS],
            },
        )
        .at(
            ms(4_000),
            FsOp::Write {
                path: format!("/{healthy}"),
                offset: 0,
                data: vec![2; BS],
            },
        )
        .at(
            ms(14_000),
            FsOp::Write {
                path: "/f0".into(),
                offset: 0,
                data: vec![3; BS],
            },
        );
    cluster.attach_script(0, c0);
    cluster.crash_shard(victim, t(2_000), t(6_000));
    cluster.run_until(SimTime::from_secs(22));
    cluster.settle();
    let report = cluster.finish();
    assert!(report.check.safe(), "violations: {:#?}", report.check);
    assert_eq!(
        cluster.server_node_of(victim).stats().recoveries,
        1,
        "the crashed shard came back through its grace window"
    );
    // All three scripted ops landed: the healthy shard never blinked, and
    // the victim served again after recovery.
    assert!(report.clients[0].completed >= 3, "{:?}", report.clients[0]);
}

/// How long the periodic write-back scenarios run.
const WRITE_BACK_RUN_MS: u64 = 10_000;

/// Client 0 rewrites the first block of `/{file}` every 250 ms for
/// [`WRITE_BACK_RUN_MS`]; the cluster runs that long. Returns how many
/// blocks the client hardened, and the most one write-back timer allows:
/// one per `flush_interval`, plus one.
fn rewrite_one_block(mut cluster: Cluster, file: &str) -> (Cluster, u64, u64) {
    let interval_ms = cluster.config().flush_interval.0 / 1_000_000;
    let mut script = Script::new();
    for k in 1..WRITE_BACK_RUN_MS / 250 {
        let write = FsOp::Write {
            path: format!("/{file}"),
            offset: 0,
            data: vec![k as u8; BS],
        };
        script = script.at(ms(250 * k), write);
    }
    cluster.attach_script(0, script);
    cluster.run_until(t(WRITE_BACK_RUN_MS));
    let client = cluster.clients[0];
    let hardened = cluster
        .world
        .observations()
        .iter()
        .filter(|(_, _, e)| matches!(e, Event::Hardened { initiator, .. } if *initiator == client))
        .count() as u64;
    (
        cluster,
        hardened,
        WRITE_BACK_RUN_MS.div_ceil(interval_ms) + 1,
    )
}

#[test]
fn a_two_shard_client_runs_one_periodic_write_back() {
    // Each lane's `HelloOk` once started a write-back timer chain of its
    // own. With the shard-1 lane's session a second late, the two chains
    // tick out of phase and a block rewritten every 250 ms hardened about
    // twice per `flush_interval`. One chain per client: once per interval.
    let map = ShardMap::new(2);
    let file = file_owned_by(&map, 8, ServerId(0)).expect("8 names cannot all share one shard");
    let mut cluster = Cluster::build(sharded_cfg(2, 1, 8), 5);
    cluster.isolate_control_shard(0, ServerId(1), t(0), Some(t(1_000)));
    let (cluster, hardened, bound) = rewrite_one_block(cluster, &file);

    let client = cluster.clients[0];
    let late_session = cluster
        .world
        .observations()
        .iter()
        .find_map(|(at, node, e)| match e {
            Event::Resumed { shard: 1 } if *node == client => Some(*at),
            _ => None,
        });
    let late_session = late_session.expect("the shard-1 lane got its session");
    assert!(late_session >= t(1_000), "{late_session:?}");
    assert!(hardened >= 2, "the periodic write-back ran: {hardened}");
    assert!(hardened <= bound, "{hardened} hardenings, at most {bound}");
}

#[test]
fn a_restarted_client_runs_one_periodic_write_back() {
    // A crash shorter than `flush_interval` leaves the dead life's next
    // tick pending past the restart: it must not run beside the chain the
    // new session starts. A longer one drops that tick: the new session
    // must still start a chain. The first tick falls after the crash
    // either way, so every hardening is the new life's.
    for down_ms in [500, 3_000] {
        let mut cluster = Cluster::build(sharded_cfg(1, 1, 4), 5);
        cluster.crash_client(0, t(1_000), Some(t(1_000 + down_ms)));
        let (_, hardened, bound) = rewrite_one_block(cluster, "f0");
        assert!(
            hardened >= 2,
            "down {down_ms} ms: the write-back ran: {hardened}"
        );
        assert!(
            hardened <= bound,
            "down {down_ms} ms: {hardened} hardenings, at most {bound}"
        );
    }
}
