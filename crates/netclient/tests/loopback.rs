//! The simulator's client over real UDP: a `ClientNode` driven by
//! `TankClient` against a live `LeaseServer`, on OS threads.
//!
//! These use short leases (τ = 600ms) so lease expiry is observable in
//! test time; they are wall-clock tests and tolerate scheduling slop.

use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tank_client::{ClientConfig, FsData, FsErr, FsOp};
use tank_core::{LeaseConfig, Phase};
use tank_net::server::{LeaseServer, NetServerConfig};
use tank_net::{mono_now, DirFaults, FaultConfig};
use tank_netclient::TankClient;
use tank_obs::Registry;
use tank_proto::Event;
use tank_server::DemandLadder;
use tank_sim::LocalNs;

fn short_lease() -> LeaseConfig {
    let mut l = LeaseConfig::with_tau(LocalNs::from_millis(600));
    l.epsilon = 0.01;
    l
}

fn server_cfg() -> NetServerConfig {
    NetServerConfig {
        lease: short_lease(),
        ladder: DemandLadder {
            retry_interval: LocalNs::from_millis(50),
            retries: 2,
            release_timeout: LocalNs::from_millis(500),
        },
        ..NetServerConfig::default()
    }
}

fn config() -> ClientConfig {
    TankClient::config(short_lease())
}

/// Reads take the lock `Exclusive`, so a read is a lock acquisition.
fn exclusive() -> ClientConfig {
    let mut cfg = config();
    cfg.shared_read = false;
    cfg
}

fn connect(addr: impl ToString, cfg: ClientConfig) -> TankClient {
    TankClient::connect(&addr.to_string(), cfg, FaultConfig::none(), None).unwrap()
}

fn create(path: &str) -> FsOp {
    FsOp::Create { path: path.into() }
}

fn stat(path: &str) -> FsOp {
    FsOp::Stat { path: path.into() }
}

fn list(path: &str) -> FsOp {
    FsOp::List { path: path.into() }
}

/// A read of nothing: it takes the file's lock and touches no block.
fn lock(path: &str) -> FsOp {
    FsOp::Read {
        path: path.into(),
        offset: 0,
        len: 0,
    }
}

const DONE: Result<FsData, FsErr> = Ok(FsData::Unit);
const LOCKED: Result<FsData, FsErr> = Ok(FsData::Bytes(Vec::new()));

/// Run `op` until it is not refused for want of a session or of a
/// server out of its grace window, at most for `limit`.
fn until_served(client: &TankClient, op: FsOp, limit: Duration) -> Result<FsData, FsErr> {
    let t0 = Instant::now();
    loop {
        match client.run(op.clone()) {
            Err(FsErr::Unavailable | FsErr::LeaseLost | FsErr::Suspended)
                if t0.elapsed() < limit =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => return other,
        }
    }
}

/// Wait up to `limit` for the client's event stream to satisfy `done`.
fn wait_for_events(client: &TankClient, limit: Duration, done: impl Fn(&[Event]) -> bool) {
    let t0 = Instant::now();
    while !done(&client.events()) {
        assert!(t0.elapsed() < limit, "events: {:?}", client.events());
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `later` happens in `events` after the first `first`.
fn after(events: &[Event], first: &Event, later: &Event) -> bool {
    events
        .iter()
        .skip_while(|e| *e != first)
        .any(|e| e == later)
}

const RESUMED: Event = Event::Resumed { shard: 0 };

#[test]
fn metadata_roundtrip_over_udp() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let client = connect(server.addr, config());

    let mkdir = FsOp::Mkdir {
        path: "/docs".into(),
    };
    assert_eq!(client.run(mkdir), DONE);
    assert_eq!(client.run(create("/docs/a.txt")), DONE);
    match client.run(stat("/docs/a.txt")) {
        Ok(FsData::Attr { is_dir, size, .. }) => assert_eq!((is_dir, size), (false, 0)),
        other => panic!("stat: {other:?}"),
    }
    let listing = Ok(FsData::Entries(vec!["a.txt".into()]));
    assert_eq!(client.run(list("/docs")), listing);
    let rm = FsOp::Delete {
        path: "/docs/a.txt".into(),
    };
    assert_eq!(client.run(rm), DONE);
    assert_eq!(client.run(stat("/docs/a.txt")), Err(FsErr::NotFound));
    drop(client);
    let stats = server.stop();
    assert!(stats.requests >= 6);
    assert_eq!(stats.delivery_errors, 0);
}

#[test]
fn a_caller_takes_its_result_and_the_node_keeps_none() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let client = connect(server.addr, config());
    assert_eq!(client.run(create("/a")), DONE);
    for _ in 0..50 {
        let attr = client.run(stat("/a"));
        assert!(matches!(attr, Ok(FsData::Attr { .. })), "{attr:?}");
    }
    // Refused inside `submit`: only top-level names rename.
    let nested = FsOp::Rename {
        from: "/d/x".into(),
        to: "/y".into(),
    };
    assert_eq!(client.run(nested), Err(FsErr::Invalid));
    assert_eq!(client.inspect(|node| node.results().count()), 0);
    drop(client);
    server.stop();
}

#[test]
fn a_long_lived_client_keeps_its_timer_state_bounded() {
    // Each answered request used to leave its retransmit timer's token
    // behind for as long as the client lived.
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let client = connect(server.addr, config());
    assert_eq!(client.run(create("/a")), DONE);
    for _ in 0..2_000 {
        let attr = client.run(stat("/a"));
        assert!(matches!(attr, Ok(FsData::Attr { .. })), "{attr:?}");
    }
    let live = client.inspect(|node| node.live_timer_tokens());
    assert!(live <= 8, "{live} live timer tokens after 2 001 ops");
    drop(client);
    server.stop();
}

#[test]
fn keepalives_maintain_the_lease_while_idle() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let client = connect(server.addr, config());
    // Idle for several lease periods (τ = 600ms): the node's keep-alives
    // must keep the lease out of Suspect/Expired the whole time.
    std::thread::sleep(Duration::from_millis(2_500));
    let (phase, keepalives) = client.inspect(|node| {
        let lease = node.lease();
        (lease.phase(mono_now()), lease.keepalive_count())
    });
    assert!(
        matches!(phase, Phase::Valid | Phase::Renewal),
        "idle client stayed leased, got {phase:?}"
    );
    assert!(keepalives > 0, "keep-alives actually flowed");
    // And the client still works.
    assert_eq!(client.run(create("/later")), DONE);
    server.stop();
}

#[test]
fn lock_demand_moves_between_live_clients() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let c1 = connect(server.addr, exclusive());
    let c2 = connect(server.addr, exclusive());

    assert_eq!(c1.run(create("/contested")), DONE);
    assert_eq!(c1.run(lock("/contested")), LOCKED);
    // C2's acquire triggers a demand at C1, which hands the lock back;
    // the server then grants C2.
    assert_eq!(c2.run(lock("/contested")), LOCKED);
    let stats = server.stop();
    assert_eq!(
        stats.delivery_errors, 0,
        "live clients answered their demands"
    );
    assert!(stats.pushes_sent >= 1, "the hand-over took a demand");
}

#[test]
fn dead_client_is_timed_out_and_its_lock_stolen() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let c1 = connect(server.addr, exclusive());
    assert_eq!(c1.run(create("/orphan")), DONE);
    assert_eq!(c1.run(lock("/orphan")), LOCKED);
    // Kill the client (its thread exits, its socket closes): demands go
    // unanswered, the server declares a delivery error and waits out
    // τ(1+ε) from the holder's last ACK.
    drop(c1);

    let c2 = connect(server.addr, exclusive());
    let t0 = Instant::now();
    assert_eq!(c2.run(lock("/orphan")), LOCKED);
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(400),
        "grant cannot beat the lease timeout, got {waited:?}"
    );
    let stats = server.stop();
    assert!(stats.delivery_errors >= 1);
    assert!(stats.steals >= 1);
    assert!(stats.locks_stolen >= 1);
}

#[test]
fn suspect_client_is_nacked_and_recovers_with_hello() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = server.addr;
    let c1 = connect(addr, exclusive());
    assert_eq!(c1.run(create("/f")), DONE);
    assert_eq!(c1.run(lock("/f")), LOCKED);
    // The holder vanishes and so misses the demand a third client's
    // acquire provokes (run on a scratch thread: it waits for the steal).
    drop(c1);
    let c2 = connect(addr, exclusive());
    std::thread::scope(|s| {
        s.spawn(|| connect(addr, exclusive()).run(lock("/f")));
        // Eventually the steal frees it.
        std::thread::sleep(Duration::from_millis(900));
        assert_eq!(c2.run(lock("/f")), LOCKED);
    });
    let stats = server.stop();
    assert!(stats.steals >= 1);
}

#[test]
fn restarted_server_enforces_the_grace_window_then_serves() {
    let s1 = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = s1.addr.to_string();
    let client = connect(&addr, config());
    assert_eq!(client.run(create("/pre")), DONE);

    // Fail-stop: the server vanishes with all its volatile state ...
    let _ = s1.stop();
    // ... and restarts on the same address as the next incarnation,
    // inside the recovery grace window.
    let mut cfg = server_cfg();
    cfg.incarnation = 2;
    cfg.recover = true;
    let t0 = Instant::now();
    let s2 = LeaseServer::spawn(&addr, cfg).unwrap();

    // The stale session costs the client its cache and a fresh Hello;
    // then a create, which never reads the lock table, is served inside
    // the grace window (τ(1+ε) ≈ 606ms).
    let served = until_served(&client, create("/post"), Duration::from_secs(5));
    assert_eq!(served, DONE);
    // A delete is admitted against the lock table, so it is NACKed
    // `Recovering` (`Unavailable` to the caller) until the window has
    // passed. Its first refusal also shows the create came inside it.
    let delete = FsOp::Delete {
        path: "/post".into(),
    };
    assert_eq!(client.run(delete.clone()), Err(FsErr::Unavailable));
    let served = until_served(&client, delete, Duration::from_secs(5));
    assert_eq!(served, DONE);
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(500),
        "grace window held the delete back, got {waited:?}"
    );
    let stats = s2.stop();
    assert!(
        stats.recovery_nacks >= 1,
        "the delete was refused during grace"
    );
    let invalidated = Event::CacheInvalidated {
        shard: 0,
        discarded_dirty: 0,
    };
    assert!(
        after(&client.events(), &invalidated, &RESUMED),
        "the old session's cache went, then service resumed: {:?}",
        client.events()
    );
}

#[test]
fn restart_without_grace_serves_immediately_negative_control() {
    let s1 = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = s1.addr.to_string();
    let client = connect(&addr, config());
    assert_eq!(client.run(create("/pre")), DONE);
    let _ = s1.stop();

    // Restart WITHOUT the grace window: the unsafe configuration. The
    // mutation goes through (after a re-hello) well before τ(1+ε).
    let mut cfg = server_cfg();
    cfg.incarnation = 2;
    let t0 = Instant::now();
    let s2 = LeaseServer::spawn(&addr, cfg).unwrap();
    let served = until_served(&client, create("/post"), Duration::from_secs(5));
    assert_eq!(served, DONE);
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "no grace window: served straight away (which is exactly the hazard)"
    );
    let stats = s2.stop();
    assert_eq!(stats.recovery_nacks, 0);
}

#[test]
fn duplicated_requests_execute_at_most_once() {
    // The server's socket duplicates every datagram it receives: each
    // request is admitted twice, and the second copy must be answered
    // from the replay cache, not re-executed.
    let mut cfg = server_cfg();
    cfg.faults = FaultConfig {
        seed: 7,
        recv: DirFaults::duplicating(1.0),
        ..FaultConfig::none()
    };
    let server = LeaseServer::spawn("127.0.0.1:0", cfg).unwrap();
    let client = connect(server.addr, config());

    for i in 0..10 {
        assert_eq!(client.run(create(&format!("/f{i}"))), DONE);
    }
    // Re-creating any name fails with Exists — proof the duplicates did
    // not create doppelgänger files under the same name.
    assert_eq!(client.run(create("/f0")), Err(FsErr::Exists));
    match client.run(list("/")) {
        Ok(FsData::Entries(names)) => assert_eq!(names.len(), 10),
        other => panic!("list: {other:?}"),
    }
    drop(client);
    let stats = server.stop();
    assert!(
        stats.replays >= 10,
        "duplicates hit the replay cache: {}",
        stats.replays
    );
}

#[test]
fn lossy_client_socket_is_covered_by_retransmission() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    // 30% of this client's datagrams (requests AND keep-alives) vanish;
    // the node's retransmission still lands every request.
    let faults = FaultConfig {
        seed: 42,
        send: DirFaults::dropping(0.3),
        ..FaultConfig::none()
    };
    let client = TankClient::connect(&server.addr.to_string(), config(), faults, None).unwrap();
    for i in 0..10 {
        assert_eq!(client.run(create(&format!("/g{i}"))), DONE);
    }
    match client.run(list("/")) {
        Ok(FsData::Entries(names)) => assert_eq!(names.len(), 10),
        other => panic!("list: {other:?}"),
    }
    drop(client);
    server.stop();
}

#[test]
fn observed_client_records_rtt_and_fault_metrics() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let registry = Arc::new(Registry::new());
    // A drop rate high enough that some request almost surely needs a
    // retransmission across the run, but low enough to always converge.
    let faults = FaultConfig {
        seed: 7,
        send: DirFaults::dropping(0.3),
        ..FaultConfig::none()
    };
    let addr = server.addr.to_string();
    let client = TankClient::connect(&addr, config(), faults, Some(&registry)).unwrap();
    for i in 0..10 {
        assert_eq!(client.run(create(&format!("/m{i}"))), DONE);
    }
    drop(client);
    server.stop();

    let snap = registry.snapshot();
    // Every ACK of a request sent after the last renewal extends the
    // lease, and records how much of the old lease the round trip left.
    let renewals = snap.counter("client.renewals").unwrap_or(0);
    let headroom = snap.histogram("client.renewal_headroom_ns").unwrap();
    assert!(headroom.count >= 10, "headroom count = {}", headroom.count);
    assert!(renewals > headroom.count, "the Hello's ACK renews too");
    let tau_ns = short_lease().tau.0;
    assert!(headroom.min > Some(0) && headroom.max <= Some(tau_ns));
    // 30% send-drop over ~20+ datagrams: the fault layer must have
    // recorded drops, and every drop forces a retransmission eventually.
    assert!(snap.counter("net.fault.send_dropped").unwrap_or(0) > 0);
    assert!(snap.counter("client.retransmits").unwrap_or(0) > 0);
}

#[test]
fn delayed_client_sends_reorder_but_every_create_completes_once() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let registry = Arc::new(Registry::new());
    // 30% of this client's datagrams (requests AND keep-alives) are held
    // 5–40 ms by its socket and leave from its host's loop once due, so
    // later sends overtake them.
    let delay = DirFaults::delaying(0.3, Duration::from_millis(5), Duration::from_millis(40));
    let faults = FaultConfig {
        seed: 11,
        send: delay,
        ..FaultConfig::none()
    };
    let addr = server.addr.to_string();
    let client = TankClient::connect(&addr, config(), faults, Some(&registry)).unwrap();
    for i in 0..10 {
        assert_eq!(client.run(create(&format!("/d{i}"))), DONE);
    }
    match client.run(list("/")) {
        Ok(FsData::Entries(names)) => assert_eq!(names.len(), 10),
        other => panic!("list: {other:?}"),
    }
    drop(client);
    server.stop();
    let delayed = registry.snapshot().counter("net.fault.send_delayed");
    assert!(delayed.unwrap_or(0) > 0, "some send was held: {delayed:?}");
}

#[test]
fn a_suspect_lease_admits_nothing_until_the_server_is_back() {
    let s1 = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let addr = s1.addr.to_string();
    let client = connect(&addr, config());
    assert_eq!(client.run(create("/a")), DONE);
    let _ = s1.stop();

    // Nothing renews the lease: at 0.7τ the lane enters phase 3, and an
    // op submitted then is refused at once.
    let quiesced = Event::Quiesced { shard: 0 };
    wait_for_events(&client, Duration::from_secs(3), |e| e.contains(&quiesced));
    assert_eq!(client.run(stat("/a")), Err(FsErr::Suspended));

    // At τ the lease expires locally and the client looks for a new
    // session, which the restarted server gives it.
    let mut cfg = server_cfg();
    cfg.incarnation = 2;
    let s2 = LeaseServer::spawn(&addr, cfg).unwrap();
    wait_for_events(&client, Duration::from_secs(5), |e| {
        after(e, &quiesced, &RESUMED)
    });
    assert_eq!(client.run(create("/b")), DONE);
    assert_eq!(client.run(stat("/b")).map(|_| ()), Ok(()));
    s2.stop();
}

#[test]
fn a_stat_under_a_held_lock_is_answered_from_the_lock() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let registry = Arc::new(Registry::new());
    let addr = server.addr.to_string();
    let client =
        TankClient::connect(&addr, config(), FaultConfig::none(), Some(&registry)).unwrap();
    assert_eq!(client.run(create("/f")), DONE);
    assert_eq!(client.run(lock("/f")), LOCKED);
    // The first stat asks the server and caches the answer under the
    // lock; the second is answered from there.
    let first = client.run(stat("/f"));
    assert!(
        matches!(first, Ok(FsData::Attr { is_dir: false, .. })),
        "{first:?}"
    );
    assert_eq!(client.run(stat("/f")), first);
    server.stop();

    let snap = registry.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    assert_eq!(
        (count("client.attr.hits"), count("client.attr.misses")),
        (1, 1)
    );
    let served: Vec<bool> = (client.events().iter())
        .filter_map(|e| match e {
            Event::AttrServed { from_cache, .. } => Some(*from_cache),
            _ => None,
        })
        .collect();
    assert_eq!(served, [false, true]);
}

#[test]
fn concurrent_ops_on_one_client_share_datagrams() {
    let server = LeaseServer::spawn("127.0.0.1:0", server_cfg()).unwrap();
    let registry = Arc::new(Registry::new());
    let mut cfg = config();
    cfg.batch_cap = 8;
    let addr = server.addr.to_string();
    let client = TankClient::connect(&addr, cfg, FaultConfig::none(), Some(&registry)).unwrap();
    // Eight processes stat the root at once: requests that find one in
    // flight on the lane wait for its answer and leave together.
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..50 {
                    let attr = client.run(stat("/"));
                    assert!(
                        matches!(attr, Ok(FsData::Attr { is_dir: true, .. })),
                        "{attr:?}"
                    );
                }
            });
        }
    });
    server.stop();
    let batch = registry.snapshot().histogram("client.batch.size").cloned();
    let batch = batch.expect("batches recorded");
    assert!(batch.max > Some(1), "some batch carried more than one stat");
}

#[test]
fn tankcli_runs_one_operation_per_command() {
    let server = LeaseServer::spawn("127.0.0.1:0", NetServerConfig::default()).unwrap();
    let addr = server.addr.to_string();
    let tankcli = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tankcli"))
            .arg(&addr)
            .args(args)
            .output()
            .expect("run tankcli");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{args:?}: {stdout} {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    tankcli(&["mkdir", "/docs"]);
    tankcli(&["create", "/docs/a.txt"]);
    assert_eq!(tankcli(&["ls", "/docs"]), "a.txt\n");
    assert!(tankcli(&["stat", "/docs/a.txt"]).contains("size=0"));
    assert!(tankcli(&["lock", "/docs/a.txt", "0"]).contains("holding X lock"));
    assert!(tankcli(&["bench", "5"]).starts_with("5 request round-trips"));
    let stats = server.stop();
    assert_eq!(stats.delivery_errors, 0);
}
