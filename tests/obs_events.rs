//! Observability integration: a partition run must emit the exact lease
//! phase-transition trace sequence per client, and the obs counters must
//! agree with the consistency checker's independent event stream.
//!
//! The scenario is Figure 2 again (C0 dirty + partitioned, C1 demands the
//! file), but the subject under test is the instrumentation: trace events,
//! counter/histogram contents, and the cross-check between pipelines.

use std::collections::BTreeSet;
use std::sync::Arc;

use tank_client::fs::Script;
use tank_client::FsOp;
use tank_cluster::{Cluster, ClusterConfig};
use tank_consistency::Event;
use tank_core::LeaseConfig;
use tank_obs::Registry;
use tank_server::RecoveryPolicy;
use tank_sim::{LocalNs, SimTime};

const BS: usize = 512;

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

fn t(x_ms: u64) -> SimTime {
    SimTime::from_millis(x_ms)
}

/// Figure-2 partition with an observability registry attached: C0 dirties
/// `/f0`, loses the control network from 1s to 12s, C1 demands the file at
/// 1.5s. Returns the run cluster and its registry.
fn observed_partition_run() -> (Cluster, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = RecoveryPolicy::LeaseFence;
    cfg.record_trace = true;
    cfg.obs = Some(registry.clone());
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
            ms(14_000),
            FsOp::Read {
                path: "/f0".into(),
                offset: 0,
                len: 64,
            },
        );
    let c1 = Script::new().at(
        ms(1_500),
        FsOp::Write {
            path: "/f0".into(),
            offset: 0,
            data: vec![0xBB; BS],
        },
    );
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control(0, t(1_000), Some(t(12_000)));
    cluster.run_until(SimTime::from_secs(20));
    (cluster, registry)
}

/// The first word of each "phase" trace detail names the phase entered:
/// "active", "quiescing", "flushing", "invalid".
fn phase_words(registry: &Registry, actor: &str) -> Vec<String> {
    registry
        .trace_events()
        .iter()
        .filter(|e| e.kind == "phase" && e.actor == actor)
        .map(|e| {
            e.detail
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

#[test]
fn partition_run_emits_expected_phase_sequence_per_client() {
    let (cluster, registry) = observed_partition_run();

    // The partitioned client walks the full four-phase lease machine and
    // comes back: Active → Quiescing → Flushing → Invalid → Active.
    let c0 = cluster.clients[0].to_string();
    assert_eq!(
        phase_words(&registry, &c0),
        vec!["active", "quiescing", "flushing", "invalid", "active"],
        "partitioned client phase transitions"
    );

    // The healthy client renews opportunistically and never leaves Active:
    // exactly the one session-establishment event.
    let c1 = cluster.clients[1].to_string();
    assert_eq!(
        phase_words(&registry, &c1),
        vec!["active"],
        "healthy client phase transitions"
    );

    // The server's side of the same story, in causal order within the
    // trace: demand push, delivery error, condemn armed, condemned, fence,
    // steal, grant to C1.
    let events = registry.trace_events();
    let pos = |kind: &str| {
        events
            .iter()
            .position(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} trace event"))
    };
    assert!(pos("demand") < pos("delivery-error"));
    assert!(pos("delivery-error") < pos("condemn-armed"));
    assert!(pos("condemn-armed") < pos("condemned"));
    assert!(pos("condemned") < pos("fence"));
    assert!(pos("fence") < pos("steal"));
    assert!(events.iter().any(|e| e.kind == "grant"));
    assert_eq!(registry.trace_dropped(), 0);
}

#[test]
fn counters_and_checker_event_stream_agree() {
    let (mut cluster, registry) = observed_partition_run();

    let snap = registry.snapshot();
    // Liveness of the main instruments: renewals happened and measured
    // positive headroom, the steal latency histogram recorded the one
    // condemnation, and each NACK was classified.
    assert!(snap.counter("client.renewals").unwrap_or(0) > 0);
    let headroom = snap.histogram("client.renewal_headroom_ns").unwrap();
    // (min may legitimately be 0: an in-flight renewal can land exactly at
    // the old lease's boundary and rescue it with no slack left.)
    assert!(
        headroom.count > 0 && headroom.max > Some(0),
        "headroom count={} min={:?} max={:?}",
        headroom.count,
        headroom.min,
        headroom.max
    );
    let steal = snap.histogram("server.steal_latency_ns").unwrap();
    assert_eq!(steal.count, 1);
    // The histogram holds the *residual* wait, from arming the
    // condemnation timer to firing it: the τ(1+ε) of Theorem 3.1 began at
    // the last ACK, so detection has already served part of it and what
    // is left can only be shorter.
    let bound = cluster.config().lease.server_timeout().0;
    assert!(
        steal.max <= Some(bound),
        "residual steal latency {:?} exceeds τ(1+ε) = {bound}",
        steal.max
    );
    assert_eq!(snap.counter("server.condemn.fired"), Some(1));
    assert_eq!(snap.counter("server.steals"), Some(1));

    // The two instrumentation pipelines (obs counters vs checker events)
    // must agree exactly.
    let mismatches = cluster.cross_check();
    assert!(mismatches.is_empty(), "cross-check: {mismatches:#?}");

    // And the run itself stayed safe — instrumentation must not perturb
    // the protocol.
    let report = cluster.finish();
    assert!(report.check.safe(), "{:#?}", report.check);

    // The JSONL exporter frames one object per line for every trace event.
    let jsonl = registry.export_trace_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), registry.trace_events().len());
    assert!(lines
        .iter()
        .all(|l| l.starts_with("{\"t\":") && l.ends_with('}')));
}

/// The variant's name; exhaustive, so a new variant must be named here
/// (and then emitted by one of the runs below).
fn variant(e: &Event) -> &'static str {
    match e {
        Event::OpSubmitted { .. } => "OpSubmitted",
        Event::OpCompleted { .. } => "OpCompleted",
        Event::WriteAcked { .. } => "WriteAcked",
        Event::ReadServed { .. } => "ReadServed",
        Event::AttrServed { .. } => "AttrServed",
        Event::CacheInvalidated { .. } => "CacheInvalidated",
        Event::Quiesced { .. } => "Quiesced",
        Event::Resumed { .. } => "Resumed",
        Event::LockGranted { .. } => "LockGranted",
        Event::LockReleased { .. } => "LockReleased",
        Event::LockStolen { .. } => "LockStolen",
        Event::RequestBlocked { .. } => "RequestBlocked",
        Event::DeliveryError { .. } => "DeliveryError",
        Event::LeaseExpired { .. } => "LeaseExpired",
        Event::Fenced { .. } => "Fenced",
        Event::NewSession { .. } => "NewSession",
        Event::WalSynced { .. } => "WalSynced",
        Event::ServerRecovering => "ServerRecovering",
        Event::ServerRecovered => "ServerRecovered",
        Event::Hardened { .. } => "Hardened",
        Event::DiskRead { .. } => "DiskRead",
        Event::FenceInstalled { .. } => "FenceInstalled",
        Event::FenceRejected { .. } => "FenceRejected",
    }
}

const ALL_VARIANTS: [&str; 23] = [
    "OpSubmitted",
    "OpCompleted",
    "WriteAcked",
    "ReadServed",
    "AttrServed",
    "CacheInvalidated",
    "Quiesced",
    "Resumed",
    "LockGranted",
    "LockReleased",
    "LockStolen",
    "RequestBlocked",
    "DeliveryError",
    "LeaseExpired",
    "Fenced",
    "NewSession",
    "WalSynced",
    "ServerRecovering",
    "ServerRecovered",
    "Hardened",
    "DiskRead",
    "FenceInstalled",
    "FenceRejected",
];

fn write(fill: u8) -> FsOp {
    FsOp::Write {
        path: "/f0".into(),
        offset: 0,
        data: vec![fill; BS],
    }
}

fn read() -> FsOp {
    FsOp::Read {
        path: "/f0".into(),
        offset: 0,
        len: 64,
    }
}

/// One cluster of two clients on `/f0`, τ = 2 s: C0 writes, stats and
/// reads it, then loses the control network from 1 s to 12 s with the SAN
/// intact; C1 writes the file at 1.5 s and releases it at 8 s; C0 reads it
/// again after the heal.
fn contested_run(policy: RecoveryPolicy, leases: bool, crash: bool) -> BTreeSet<&'static str> {
    let mut cfg = ClusterConfig::default();
    cfg.clients = 2;
    cfg.files = 1;
    cfg.block_size = BS;
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    cfg.lease.epsilon = 0.01;
    cfg.policy = policy;
    cfg.client_lease_enabled = leases;
    let mut cluster = Cluster::build(cfg, 4321);
    let c0 = Script::new()
        .at(ms(500), write(0xAA))
        .at(ms(600), FsOp::Stat { path: "/f0".into() })
        .at(ms(700), read())
        .at(ms(2_500), write(0xAB))
        .at(ms(14_000), read());
    let c1 = Script::new()
        .at(ms(1_500), write(0xBB))
        .at(ms(8_000), FsOp::Release { path: "/f0".into() });
    cluster.attach_script(0, c0);
    cluster.attach_script(1, c1);
    cluster.isolate_control(0, t(1_000), Some(t(12_000)));
    if crash {
        cluster.crash_server(t(16_000), t(17_000));
    }
    cluster.run_until(SimTime::from_secs(25));
    (cluster.world.observations().iter())
        .map(|(_, _, e)| variant(e))
        .collect()
}

/// Every variant of the one event vocabulary has a live emission site:
/// a lease partition of a dirty holder plus a server crash and recovery
/// emit all of them but the fence rejection, which a lease-less client
/// writing past its fence adds.
#[test]
fn every_event_variant_is_emitted() {
    let mut seen = contested_run(RecoveryPolicy::LeaseFence, true, true);
    seen.extend(contested_run(RecoveryPolicy::FenceThenSteal, false, false));
    let missing: Vec<&str> = (ALL_VARIANTS.into_iter())
        .filter(|v| !seen.contains(v))
        .collect();
    assert!(missing.is_empty(), "never emitted: {missing:?}");
}
