//! Client block-cache scenarios: the "safe caching" contract of CACHING.md
//! exercised end to end.
//!
//! The subjects under test, each across 10 seeds:
//! * a read-mostly file served from N clients' shared-read caches — hits
//!   dominate misses and the server hands out SharedRead grants,
//! * a writer revoking those shared caches mid-storm — demands flow, the
//!   readers' caches drop the file, and no reader ever sees stale data,
//! * a client crash with dirty write-back blocks still queued — the
//!   checker's crash excuse (volatile loss is the accepted semantics)
//!   keeps the run safe, and the same stream WITHOUT the excuse trips
//!   the dirty-at-steal coherence audit,
//! * the negative control: a client with the phase-3 cache gate disabled
//!   keeps serving from a quiesced cache, which the coherence audit must
//!   flag on every seed (and its gated twin must not),
//! * the attributes cached under a lock ("Cached attributes"): a
//!   hand-off drops them with the lock, so the next `Stat` reports the new
//!   holder's size; and a partitioned holder, racing a second writer under
//!   skewed clocks, never answers a `Stat` from them once quiesced,
//! * the eviction order: four processes sharing a small cache never evict
//!   a block another's read or read-modify-write is waiting on (no
//!   refetch, no live byte lost), and a stream shaped like the repo
//!   benchmark's `batch` keeps its Zipf head cached.

use std::sync::Arc;

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use tank_client::fs::Script;
use tank_client::{FsData, FsOp, OpGen};
use tank_cluster::workload::{HotFileGen, Mix, ZipfGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::{CheckOptions, Checker, Event};
use tank_core::LeaseConfig;
use tank_obs::Registry;
use tank_sim::{LocalNs, NetParams, SimTime};

const BS: usize = 512;
const FILE_BLOCKS: u32 = 4;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x_ms: u64) -> SimTime {
    SimTime::from_millis(x_ms)
}

fn cache_cfg(clients: usize, files: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = clients;
    cfg.files = files;
    cfg.file_blocks = FILE_BLOCKS;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg
}

/// Read-only mix over the first `FILE_BLOCKS` blocks.
fn read_mix(think_ms: u64) -> Mix {
    Mix {
        read_frac: 1.0,
        meta_frac: 0.0,
        io_size: BS as u32,
        max_offset: (FILE_BLOCKS as u64) * BS as u64,
        think_mean: ms(think_ms),
    }
}

/// A write covering every block of `path` (one cache-warming burst).
fn full_write(path: &str, fill: u8) -> FsOp {
    FsOp::Write {
        path: path.into(),
        offset: 0,
        data: vec![fill; BS * FILE_BLOCKS as usize],
    }
}

#[test]
fn shared_caches_serve_a_read_mostly_file() {
    for seed in 0..10u64 {
        let registry = Arc::new(Registry::new());
        let mut cfg = cache_cfg(4, 2);
        cfg.obs = Some(registry.clone());
        let mut cluster = Cluster::build(cfg, seed);
        // Client 0 warms the data once; clients 1–3 then read it all run
        // long, Zipf-skewed across the two files.
        cluster.attach_script(0, Script::new().at(ms(300), full_write("/f0", 0xAA)));
        for i in 1..4 {
            cluster.attach_workload(i, Box::new(ZipfGen::new(2, 1.0, read_mix(5))));
        }
        cluster.run_until(SimTime::from_secs(10));
        cluster.settle();
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        let totals = report.client_totals();
        assert!(
            totals.cache_hits > totals.cache_misses,
            "seed {seed}: read-mostly traffic should hit: {} hits / {} misses",
            totals.cache_hits,
            totals.cache_misses,
        );
        // The readers coexist: the server granted SharedRead to more than
        // one of them rather than serializing through Exclusive.
        let snap = registry.snapshot();
        let shared = snap.counter("server.datalock.shared_grants").unwrap_or(0);
        assert!(shared >= 2, "seed {seed}: shared grants: {shared}");
    }
}

#[test]
fn revoke_to_exclusive_mid_storm_stays_coherent() {
    for seed in 0..10u64 {
        let registry = Arc::new(Registry::new());
        let mut cfg = cache_cfg(3, 1);
        cfg.obs = Some(registry.clone());
        cfg.record_hb = true;
        let mut cluster = Cluster::build(cfg, seed);
        // Clients 1–2 hammer /f0 from their shared caches; client 0
        // writes it twice mid-storm. Each write must demand every shared
        // holder's cache away, and no post-revoke read may return the
        // superseded bytes (the checker's stale-read pass proves that).
        cluster.attach_script(
            0,
            Script::new()
                .at(ms(500), full_write("/f0", 0x11))
                .at(ms(4_000), full_write("/f0", 0x22))
                .at(ms(7_000), full_write("/f0", 0x33)),
        );
        for i in 1..3 {
            cluster.attach_workload(i, Box::new(HotFileGen::new("/f0", read_mix(5))));
        }
        cluster.run_until(SimTime::from_secs(12));
        cluster.settle();
        // The checker proves the *consequences* stayed coherent; the hb
        // auditor proves the *ordering itself*: every harden/read/grant
        // pair in the storm is causally ordered, no racy pairs.
        let hb = cluster.hb_audit();
        assert!(hb.ok(), "seed {seed}:\n{}", hb.render());
        assert!(
            hb.pairs_checked > 0,
            "seed {seed}: the storm produced no conflicting pairs to audit"
        );
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert!(
            report.check.ops_ok > 100,
            "seed {seed}: the storm did work: {}",
            report.check.ops_ok
        );
        let snap = registry.snapshot();
        let revoked = snap.counter("client.cache.revokes").unwrap_or(0);
        let demanded = snap.counter("server.datalock.revokes").unwrap_or(0);
        assert!(revoked >= 1, "seed {seed}: client revokes: {revoked}");
        assert!(demanded >= 1, "seed {seed}: server demands: {demanded}");
        assert!(
            snap.counter("server.datalock.exclusive_grants")
                .unwrap_or(0)
                >= 1,
            "seed {seed}: the writer got Exclusive"
        );
    }
}

#[test]
fn client_crash_with_queued_dirty_blocks_is_excused() {
    for seed in 0..10u64 {
        let cfg = cache_cfg(2, 1);
        // The crash at 1s lands before the first periodic write-back tick
        // (2s): client 0's acknowledged write is still queued dirty when
        // the machine dies.
        let mut cluster = Cluster::build(cfg, seed);
        cluster.attach_script(0, Script::new().at(ms(400), full_write("/f0", 0xD1)));
        cluster.attach_script(
            1,
            Script::new().at(ms(3_000), full_write("/f0", 0xD2)).at(
                ms(9_000),
                FsOp::Read {
                    path: "/f0".into(),
                    offset: 0,
                    len: BS as u32,
                },
            ),
        );
        cluster.crash_client(0, t(1_000), None);
        cluster.run_until(SimTime::from_secs(12));
        cluster.settle();
        let report = cluster.finish();
        // The crash excuse keeps the run safe: an acknowledged write died
        // with the machine, which is §1.2's accepted volatile loss — NOT
        // a lost acknowledged write chargeable to the protocol.
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert!(
            cluster.server_node().stats().locks_stolen >= 1,
            "seed {seed}: the dead client's lock was stolen"
        );
        // Sanity of the audit itself: the same event stream WITHOUT the
        // crash excuse must flag the stranded block at the steal.
        let strict = Checker::new(CheckOptions {
            end: cluster.world.now(),
            shard_servers: cluster.servers.clone(),
            ..Default::default()
        })
        .run(cluster.world.observations());
        assert!(
            strict
                .coherence
                .iter()
                .any(|c| c.what == "dirty block at steal"),
            "seed {seed}: strict re-check saw the stranded dirty block: {:#?}",
            strict.coherence
        );
    }
}

#[test]
fn disabled_phase3_gate_trips_the_coherence_audit() {
    for seed in 0..10u64 {
        // One run per gate setting, identical timeline: client 0 warms its
        // cache, loses the control network, and keeps issuing reads
        // straight through the quiesce window.
        let run = |phase3_gate: bool| {
            let mut cfg = cache_cfg(1, 1);
            cfg.phase3_gate = phase3_gate;
            let mut cluster = Cluster::build(cfg, seed);
            let mut script = Script::new().at(ms(400), full_write("/f0", 0x77));
            for i in 0..14 {
                script = script.at(
                    ms(1_200 + i * 100),
                    FsOp::Read {
                        path: "/f0".into(),
                        offset: 0,
                        len: BS as u32,
                    },
                );
            }
            cluster.attach_script(0, script);
            cluster.isolate_control(0, t(1_000), Some(t(15_000)));
            cluster.run_until(SimTime::from_secs(20));
            cluster.settle();
            cluster.finish()
        };

        let gated = run(true);
        assert!(gated.check.safe(), "seed {seed}: {:#?}", gated.check);
        assert!(
            gated.check.ops_denied >= 1,
            "seed {seed}: the gate refused quiesce-window reads: {:#?}",
            gated.check
        );

        let ungated = run(false);
        assert!(
            ungated
                .check
                .coherence
                .iter()
                .any(|c| c.what == "cache read while quiesced"),
            "seed {seed}: the audit caught the quiesced cache serving: {:#?}",
            ungated.check.coherence
        );
        assert!(!ungated.check.safe(), "seed {seed}");
    }
}

#[test]
fn a_hand_off_takes_the_cached_attributes_with_the_lock() {
    let stat = || FsOp::Stat { path: "/f0".into() };
    let old_size = (FILE_BLOCKS as u64) * BS as u64;
    for seed in 0..10u64 {
        let mut cluster = Cluster::build(cache_cfg(2, 1), seed);
        // A reads /f0 and stats it twice: the second answer comes from the
        // lock. B then appends a block past EOF and commits, which demands
        // A's lock away. A's third stat must report B's size.
        cluster.attach_script(
            0,
            Script::new()
                .at(
                    ms(300),
                    FsOp::Read {
                        path: "/f0".into(),
                        offset: 0,
                        len: BS as u32,
                    },
                )
                .at(ms(400), stat())
                .at(ms(500), stat())
                .at(ms(2_000), stat()),
        );
        cluster.attach_script(
            1,
            Script::new().at(
                ms(1_000),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: old_size,
                    data: vec![0xB0; BS],
                },
            ),
        );
        cluster.run_until(SimTime::from_secs(4));
        cluster.settle();
        let sizes_and_versions: Vec<(u64, u64)> = cluster
            .client(0)
            .results()
            .filter_map(|(_, r)| match r {
                Ok(FsData::Attr { size, version, .. }) => Some((*size, *version)),
                _ => None,
            })
            .collect();
        let [first, cached, after] = sizes_and_versions[..] else {
            panic!("seed {seed}: three stats: {sizes_and_versions:?}");
        };
        assert_eq!(first, cached, "seed {seed}");
        assert_eq!(first.0, old_size, "seed {seed}");
        assert_eq!(after.0, old_size + BS as u64, "seed {seed}: B's size");
        assert!(after.1 > cached.1, "seed {seed}: B's alloc + commit");
        let a = cluster.client(0).stats();
        assert_eq!(
            (a.attr_hits, a.attr_misses),
            (1, 2),
            "seed {seed}: only the stat under the lock was answered from it"
        );
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
    }
}

#[test]
fn a_partitioned_holder_never_stats_from_a_quiesced_lock() {
    for seed in 0..10u64 {
        let mut cfg = cache_cfg(2, 1);
        cfg.skew_clocks = true;
        cfg.record_hb = true;
        let mut cluster = Cluster::build(cfg, seed);
        // Two clients write, read and stat the one file, so the lock and
        // the attributes under it change hands all run long; client 0
        // loses the control network for six seconds in the middle.
        let mix = Mix {
            read_frac: 0.5,
            meta_frac: 0.3,
            io_size: BS as u32,
            max_offset: (FILE_BLOCKS as u64) * BS as u64,
            think_mean: ms(5),
        };
        for i in 0..2 {
            cluster.attach_workload(i, Box::new(HotFileGen::new("/f0", mix)));
        }
        cluster.isolate_control(0, t(3_000), Some(t(9_000)));
        cluster.run_until(SimTime::from_secs(14));
        cluster.settle();
        let hb = cluster.hb_audit();
        assert!(hb.ok(), "seed {seed}:\n{}", hb.render());

        // The claim itself, read straight off the event stream (the
        // checker's clause says the same): between a client's Quiesced
        // and its Resumed, no stat is answered from the lock.
        let mut quiesced = [false; 2];
        let mut cached_stats = 0;
        let mut quiesces = 0;
        for (_, node, ev) in cluster.world.observations() {
            let Some(c) = cluster.clients.iter().position(|n| n == node) else {
                continue;
            };
            match ev {
                Event::Quiesced { .. } => {
                    quiesced[c] = true;
                    quiesces += 1;
                }
                Event::Resumed { .. } => quiesced[c] = false,
                Event::AttrServed {
                    from_cache: true, ..
                } => {
                    assert!(
                        !quiesced[c],
                        "seed {seed}: client {c} served while quiesced"
                    );
                    cached_stats += 1;
                }
                _ => {}
            }
        }
        assert!(
            quiesces >= 1,
            "seed {seed}: the partition quiesced client 0"
        );
        assert!(cached_stats > 0, "seed {seed}: the cache was exercised");

        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
        assert_eq!(report.check.dirty_discarded, 0, "seed {seed}");
    }
}

/// Closed loop of block-aligned two-block reads, Zipf(1.0) across
/// `/f0 …`, that stops issuing at `stop_at` so the run can settle.
struct TwoBlockReads {
    zipf: ZipfGen,
    stop_at: LocalNs,
}

impl OpGen for TwoBlockReads {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, now: LocalNs) -> Option<(LocalNs, FsOp)> {
        if now >= self.stop_at {
            return None;
        }
        let first = rng.random_range(0..FILE_BLOCKS - 1) as u64;
        let read = FsOp::Read {
            path: format!("/f{}", self.zipf.sample(rng)),
            offset: first * BS as u64,
            len: 2 * BS as u32,
        };
        Some((LocalNs(rng.random_range(0..=200_000u64)), read))
    }
}

/// Four processes per client share a cache smaller than their reads'
/// working set. Every block a read waits on is pinned, so another
/// process's trim never evicts it before the read is served: with no
/// lock ever handed off, nothing is fetched twice.
#[test]
fn a_read_in_flight_keeps_the_blocks_it_waits_on() {
    for capacity in [0, 4, 16] {
        for seed in 0..10u64 {
            let mut cfg = cache_cfg(2, 16);
            cfg.gen_concurrency = 4;
            cfg.cache_capacity = capacity;
            cfg.record_hb = true;
            // A disk-ish SAN: each process's fetches stay in flight while
            // the other three serve reads and trim the shared cache.
            cfg.san_net = NetParams {
                latency_ns: 2_500_000,
                jitter_ns: 200_000,
                ..NetParams::default()
            };
            let mut cluster = Cluster::build(cfg, seed);
            for i in 0..2 {
                cluster.attach_workload(
                    i,
                    Box::new(TwoBlockReads {
                        zipf: ZipfGen::new(16, 1.0, Mix::default()),
                        stop_at: LocalNs::from_secs(2),
                    }),
                );
            }
            cluster.run_until(SimTime::from_secs(2));
            cluster.settle();
            let hb = cluster.hb_audit();
            assert!(hb.ok(), "capacity {capacity} seed {seed}:\n{}", hb.render());
            let report = cluster.finish();
            assert!(
                report.check.safe(),
                "capacity {capacity} seed {seed}: {:#?}",
                report.check
            );
            let totals = report.client_totals();
            assert!(
                totals.cache_misses > 500,
                "capacity {capacity} seed {seed}: the reads fetched: {}",
                totals.cache_misses
            );
            assert_eq!(
                totals.cache_refetches, 0,
                "capacity {capacity} seed {seed}: a block left the cache mid-read"
            );
        }
    }
}

/// A read-modify-write that fetches two partial blocks waits for both;
/// four other processes' reads trim the capacity-0 cache meanwhile. The
/// partial blocks are pinned until the write lands, so every byte the
/// write does not cover keeps its old value — an evicted block would be
/// rewritten around zeros, which the checker (it audits tags, not bytes)
/// cannot see.
#[test]
fn a_read_modify_write_keeps_the_bytes_it_does_not_write() {
    const BLOCKS: u32 = 64;
    let len = BLOCKS as usize * BS;
    for seed in 0..10u64 {
        let mut cfg = cache_cfg(1, 2);
        cfg.file_blocks = BLOCKS;
        cfg.cache_capacity = 0;
        cfg.gen_concurrency = 4;
        cfg.san_net = NetParams {
            latency_ns: 2_500_000,
            jitter_ns: 200_000,
            ..NetParams::default()
        };
        let mut cluster = Cluster::build(cfg, seed);
        // /f0 is written and hardened whole, then each odd block boundary
        // gets 8 new bytes straddling it: blocks 2j and 2j + 1, both
        // fetched, neither cached.
        let mut script = Script::new()
            .at(
                ms(300),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: 0,
                    data: vec![0xAA; len],
                },
            )
            .at(ms(1_000), FsOp::Flush { path: "/f0".into() });
        for j in 0..BLOCKS as u64 / 2 {
            script = script.at(
                ms(1_500 + 20 * j),
                FsOp::Write {
                    path: "/f0".into(),
                    offset: (2 * j + 1) * BS as u64 - 4,
                    data: vec![0xBB; 8],
                },
            );
        }
        script = script.at(
            ms(3_000),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: len as u32,
            },
        );
        cluster.attach_script(0, script);
        cluster.attach_workload(0, Box::new(HotFileGen::new("/f1", read_mix(1))));
        cluster.run_until(SimTime::from_secs(4));
        let read = cluster
            .client(0)
            .results()
            .find_map(|(_, r)| match r {
                Ok(FsData::Bytes(b)) if b.len() == len => Some(b.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("seed {seed}: the read-back completed"));
        for (at, byte) in read.iter().enumerate() {
            let written = (BS..BS + 8).contains(&((at + 4) % (2 * BS)));
            let want = if written { 0xBB } else { 0xAA };
            assert_eq!(*byte, want, "seed {seed}: byte {at} of /f0");
        }
    }
}

/// Shared files of the `batch`-shaped scenario, read by every client.
const SHARED: usize = 64;
/// Files each client alone writes in it.
const OWN: usize = 4;
/// Blocks per file in it.
const BATCH_FILE_BLOCKS: u32 = 16;

/// One process of the repo benchmark's `batch` simulator half: 56 %
/// single-block reads of the shared files (Zipf(1.0) across files, uniform
/// within one), 24 % whole-block writes of the client's own files, 20 %
/// stats of shared files; think time 0–40 µs. Stops issuing at `stop_at`.
struct BatchShaped {
    client: usize,
    zipf: ZipfGen,
    stop_at: LocalNs,
}

impl OpGen for BatchShaped {
    fn next_op(&mut self, rng: &mut ChaCha8Rng, now: LocalNs) -> Option<(LocalNs, FsOp)> {
        if now >= self.stop_at {
            return None;
        }
        let offset = rng.random_range(0..BATCH_FILE_BLOCKS as u64) * BS as u64;
        let shared = format!("/f{}", self.zipf.sample(rng));
        let op = match rng.random_range(0..100u32) {
            0..=19 => FsOp::Stat { path: shared },
            20..=43 => FsOp::Write {
                path: format!(
                    "/f{}",
                    SHARED + self.client * OWN + rng.random_range(0..OWN)
                ),
                offset,
                data: vec![(offset % 251) as u8; BS],
            },
            _ => FsOp::Read {
                path: shared,
                offset,
                len: BS as u32,
            },
        };
        Some((LocalNs(rng.random_range(0..=40_000u64)), op))
    }
}

/// The eviction order's regression gate. The working set (1 024 shared
/// blocks) is four times the cache; what fits is the Zipf head, if the
/// order keeps it ahead of one-time reads and of the client's own
/// hardened writes.
#[test]
fn a_batch_shaped_stream_keeps_its_zipf_head_cached() {
    const CLIENTS: usize = 2;
    let lan = |latency_ns| NetParams {
        latency_ns,
        jitter_ns: 50_000,
        ..NetParams::default()
    };
    let (mut hits, mut misses) = (0u64, 0u64);
    for seed in 0..10u64 {
        let mut cfg = cache_cfg(CLIENTS, SHARED + CLIENTS * OWN);
        cfg.file_blocks = BATCH_FILE_BLOCKS;
        cfg.cache_capacity = 256;
        cfg.gen_concurrency = 4;
        cfg.batch_cap = 8;
        cfg.lazy_release = true;
        cfg.ctl_net = lan(100_000);
        cfg.san_net = lan(250_000);
        cfg.record_hb = true;
        let mut cluster = Cluster::build(cfg, seed);
        for client in 0..CLIENTS {
            cluster.attach_workload(
                client,
                Box::new(BatchShaped {
                    client,
                    zipf: ZipfGen::new(SHARED, 1.0, Mix::default()),
                    stop_at: LocalNs::from_secs(2),
                }),
            );
        }
        let reads = |cluster: &Cluster| {
            (0..CLIENTS)
                .map(|i| cluster.client(i).stats())
                .fold((0, 0), |(h, m), s| (h + s.cache_hits, m + s.cache_misses))
        };
        // Steady state only: the first second fills the cache.
        cluster.run_until(SimTime::from_secs(1));
        let warm = reads(&cluster);
        cluster.run_until(SimTime::from_secs(2));
        let (h, m) = reads(&cluster);
        hits += h - warm.0;
        misses += m - warm.1;
        cluster.settle();
        let hb = cluster.hb_audit();
        assert!(hb.ok(), "seed {seed}:\n{}", hb.render());
        let report = cluster.finish();
        assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);
    }
    // Measured over these 10 seeds: 0.643 under the read-count order,
    // 0.512 under the recency order it replaced.
    let ratio = hits as f64 / (hits + misses) as f64;
    assert!(
        ratio >= 0.62,
        "steady-state hit ratio {ratio:.4} ({hits} hits, {misses} misses)"
    );
}
