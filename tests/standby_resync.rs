//! A primary with a warm standby fail-stops and restarts well inside
//! τ(1+ε). The standby must not elect itself: the restarted primary's
//! first beat comes long before the standby's silence reaches τ(1+ε). The
//! restarted primary forgets what the standby acknowledged and re-ships
//! from offset 0, and the standby's cumulative ingest keeps only what it
//! lacks. So once the run settles, the mirror holds the primary's durable
//! device byte for byte: the same snapshot generation, the same snapshot
//! and the same durable log. The checker rules the whole run safe.

use tank_cluster::workload::{Mix, PrimaryBiasGen};
use tank_cluster::{Cluster, ClusterConfig};
use tank_core::LeaseConfig;
use tank_proto::ServerId;
use tank_sim::{LocalNs, SimTime};

fn resync_cfg(compact_threshold: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 3;
    cfg.standbys = true;
    cfg.disks = 2;
    cfg.files = 6;
    cfg.file_blocks = 4;
    cfg.block_size = 512;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.compact_threshold = compact_threshold;
    cfg.gen_concurrency = 4;
    assert_eq!(cfg.ctl_net.drop_prob, 0.0, "a loss-free control network");
    cfg
}

/// Crash shard 0's primary at 8 s, restart it 0.5 s later (τ(1+ε) is
/// 2.02 s), run to 20 s and settle; then hold the pair to the mirror
/// contract. Returns the snapshot generation the pair ends in.
fn restart_inside_the_election_window(compact_threshold: usize, seed: u64) -> u64 {
    let mut cluster = Cluster::build(resync_cfg(compact_threshold), seed);
    let mix = Mix {
        read_frac: 0.4,
        meta_frac: 0.1,
        io_size: 512,
        max_offset: 1536,
        think_mean: LocalNs::from_millis(8),
    };
    for i in 0..3 {
        cluster.attach_workload(i, Box::new(PrimaryBiasGen::new(i, 6, 0.8, mix)));
    }
    let (crash, restart) = (SimTime::from_secs(8), SimTime::from_millis(8_500));
    cluster.crash_shard(ServerId(0), crash, restart);
    cluster.run_until(SimTime::from_secs(20));
    cluster.settle();
    let report = cluster.finish();
    assert!(report.check.safe(), "seed {seed}: {:#?}", report.check);

    let primary = cluster.server_node_of(ServerId(0));
    let standby = cluster.standby_node_of(ServerId(0));
    assert_eq!(primary.stats().recoveries, 1, "seed {seed}: one restart");
    assert_eq!(standby.stats().elections, 0, "seed {seed}: no election");
    assert!(standby.is_standby(), "seed {seed}: still the standby");
    assert!(
        primary.wal_stats().appends > 20,
        "seed {seed}: the primary logged mutations"
    );

    let (want, got) = (primary.wal(), standby.wal());
    assert_eq!(got.snap_gen(), want.snap_gen(), "seed {seed}: generation");
    assert_eq!(got.snapshot(), want.snapshot(), "seed {seed}: snapshot");
    assert_eq!(
        got.durable_delta(0),
        want.durable_delta(0),
        "seed {seed}: the mirror is the primary's durable log"
    );
    want.snap_gen()
}

#[test]
fn a_restarted_primary_resyncs_its_standby_without_an_election() {
    for seed in 0..5 {
        let threshold = tank_meta::wal::DEFAULT_COMPACT_THRESHOLD;
        assert_eq!(restart_inside_the_election_window(threshold, seed), 0);
    }
}

#[test]
fn a_restarted_primary_resyncs_its_standby_across_compactions() {
    for seed in 0..5 {
        let snap_gen = restart_inside_the_election_window(2048, seed);
        assert!(snap_gen > 1, "seed {seed}: the primary compacted");
    }
}
