//! End-to-end protocol smoke tests: one server, disks, clients, all real
//! actors in a deterministic world.

use tank_client::fs::Script;
use tank_client::{ClientConfig, ClientNode, FsData, FsErr, FsOp};
use tank_core::LeaseConfig;
use tank_proto::{Event, NetMsg, NodeId, OpId};
use tank_server::{ServerConfig, ServerNode};
use tank_sim::{ClockSpec, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};
use tank_storage::{DiskConfig, DiskNode};

const BS: usize = 512;

struct Rig {
    world: World<NetMsg, Event>,
    server: NodeId,
    clients: Vec<NodeId>,
}

/// Build a world: 2 disks, 1 server, `nclients` clients with the given
/// scripts.
fn rig(scripts: Vec<Script>, lease: LeaseConfig) -> Rig {
    let mut world: World<NetMsg, Event> = World::new(WorldConfig {
        seed: 42,
        record_trace: false,
        record_causal: false,
    });
    world.add_network(NetId::CONTROL, NetParams::ideal(200_000)); // 0.2ms
    world.add_network(NetId::SAN, NetParams::ideal(100_000)); // 0.1ms
    let d0 = world.add_node(
        Box::new(DiskNode::<Event>::unobserved(DiskConfig {
            blocks: 4096,
            block_size: BS,
        })),
        ClockSpec::ideal(),
    );
    let d1 = world.add_node(
        Box::new(DiskNode::<Event>::unobserved(DiskConfig {
            blocks: 4096,
            block_size: BS,
        })),
        ClockSpec::ideal(),
    );
    let mut scfg = ServerConfig::default();
    scfg.lease = lease;
    scfg.disks = vec![d0, d1];
    let server = world.add_node(
        Box::new(ServerNode::new(scfg, 4096, BS)),
        ClockSpec::ideal(),
    );
    let mut clients = Vec::new();
    for script in scripts {
        let mut ccfg = ClientConfig::new(server, vec![d0, d1]);
        ccfg.lease = lease;
        ccfg.block_size = BS;
        let node = ClientNode::new(ccfg).with_script(script);
        clients.push(world.add_node(Box::new(node), ClockSpec::ideal()));
    }
    Rig {
        world,
        server,
        clients,
    }
}

fn results_of(rig: &Rig, client: usize) -> Vec<(OpId, Result<FsData, FsErr>)> {
    rig.world
        .node_ref::<ClientNode>(rig.clients[client])
        .unwrap()
        .results()
        .cloned()
        .collect()
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

#[test]
fn create_write_read_roundtrip_on_one_client() {
    let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let script = Script::new()
        .at(ms(10), FsOp::Create { path: "/f".into() })
        .at(
            ms(50),
            FsOp::Write {
                path: "/f".into(),
                offset: 0,
                data: data.clone(),
            },
        )
        .at(
            ms(100),
            FsOp::Read {
                path: "/f".into(),
                offset: 0,
                len: 1000,
            },
        )
        .at(ms(150), FsOp::Stat { path: "/f".into() });
    let mut r = rig(vec![script], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(1));
    let res = results_of(&r, 0);
    assert_eq!(res.len(), 4, "all four ops completed: {res:?}");
    assert_eq!(res[0].1, Ok(FsData::Unit), "create");
    assert_eq!(res[1].1, Ok(FsData::Unit), "write (into cache)");
    assert_eq!(
        res[2].1,
        Ok(FsData::Bytes(data)),
        "read returns written bytes"
    );
    match &res[3].1 {
        Ok(FsData::Attr { size, is_dir, .. }) => {
            assert_eq!(*size, 1000, "size committed eagerly");
            assert!(!is_dir);
        }
        other => panic!("stat: {other:?}"),
    }
}

#[test]
fn read_across_clients_after_flush_and_release() {
    // C0 creates and writes; C1 reads after C0 releases. The read must see
    // C0's bytes (fetched from the shared disk, not C1's empty cache).
    let payload = vec![7u8; 2 * BS];
    let s0 = Script::new()
        .at(
            ms(10),
            FsOp::Create {
                path: "/shared".into(),
            },
        )
        .at(
            ms(50),
            FsOp::Write {
                path: "/shared".into(),
                offset: 0,
                data: payload.clone(),
            },
        )
        .at(
            ms(100),
            FsOp::Release {
                path: "/shared".into(),
            },
        );
    let s1 = Script::new().at(
        ms(300),
        FsOp::Read {
            path: "/shared".into(),
            offset: 0,
            len: (2 * BS) as u32,
        },
    );
    let mut r = rig(vec![s0, s1], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(1));
    let res1 = results_of(&r, 1);
    assert_eq!(res1.len(), 1);
    assert_eq!(res1[0].1, Ok(FsData::Bytes(payload)));
}

#[test]
fn demand_revocation_moves_exclusive_lock_between_live_clients() {
    // C0 writes and holds the lock; C1 writes the same file. The server
    // demands from C0, C0 flushes + releases, C1 proceeds. Then C0 reads
    // back and must see C1's data (its own cache was invalidated on
    // release).
    let a = vec![1u8; BS];
    let b = vec![2u8; BS];
    let s0 = Script::new()
        .at(ms(10), FsOp::Create { path: "/f".into() })
        .at(
            ms(50),
            FsOp::Write {
                path: "/f".into(),
                offset: 0,
                data: a,
            },
        )
        .at(
            ms(900),
            FsOp::Read {
                path: "/f".into(),
                offset: 0,
                len: BS as u32,
            },
        );
    let s1 = Script::new().at(
        ms(200),
        FsOp::Write {
            path: "/f".into(),
            offset: 0,
            data: b.clone(),
        },
    );
    let mut r = rig(vec![s0, s1], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(2));
    let res0 = results_of(&r, 0);
    let res1 = results_of(&r, 1);
    assert_eq!(res1.len(), 1, "C1's write completed: {res1:?}");
    assert!(res1[0].1.is_ok());
    assert_eq!(res0.len(), 3, "C0 ops: {res0:?}");
    assert_eq!(
        res0[2].1,
        Ok(FsData::Bytes(b)),
        "C0 sees C1's bytes after revocation"
    );
}

#[test]
fn shared_readers_coexist() {
    let s0 = Script::new()
        .at(ms(10), FsOp::Create { path: "/f".into() })
        .at(
            ms(20),
            FsOp::Write {
                path: "/f".into(),
                offset: 0,
                data: vec![9u8; BS],
            },
        )
        .at(ms(60), FsOp::Release { path: "/f".into() })
        .at(
            ms(200),
            FsOp::Read {
                path: "/f".into(),
                offset: 0,
                len: 16,
            },
        );
    let s1 = Script::new().at(
        ms(210),
        FsOp::Read {
            path: "/f".into(),
            offset: 0,
            len: 16,
        },
    );
    let mut r = rig(vec![s0, s1], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(1));
    assert_eq!(
        results_of(&r, 0).last().unwrap().1,
        Ok(FsData::Bytes(vec![9u8; 16]))
    );
    assert_eq!(results_of(&r, 1)[0].1, Ok(FsData::Bytes(vec![9u8; 16])));
    // Both ended holding shared locks; server sees no waiters.
    let srv = r.world.node_ref::<ServerNode>(r.server).unwrap();
    assert_eq!(srv.locks().waiting(), 0);
}

#[test]
fn metadata_operations_roundtrip() {
    let s0 = Script::new()
        .at(ms(10), FsOp::Mkdir { path: "/d".into() })
        .at(
            ms(20),
            FsOp::Create {
                path: "/d/x".into(),
            },
        )
        .at(
            ms(30),
            FsOp::Create {
                path: "/d/y".into(),
            },
        )
        .at(ms(40), FsOp::List { path: "/d".into() })
        .at(
            ms(50),
            FsOp::Delete {
                path: "/d/x".into(),
            },
        )
        .at(ms(60), FsOp::List { path: "/d".into() })
        .at(ms(70), FsOp::Stat { path: "/d".into() })
        .at(
            ms(80),
            FsOp::Delete {
                path: "/nope".into(),
            },
        );
    let mut r = rig(vec![s0], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(1));
    let res = results_of(&r, 0);
    assert_eq!(res.len(), 8);
    assert_eq!(res[3].1, Ok(FsData::Entries(vec!["x".into(), "y".into()])));
    assert_eq!(res[5].1, Ok(FsData::Entries(vec!["y".into()])));
    match &res[6].1 {
        Ok(FsData::Attr { is_dir, .. }) => assert!(is_dir),
        other => panic!("{other:?}"),
    }
    assert_eq!(res[7].1, Err(FsErr::NotFound));
}

#[test]
fn sub_block_rmw_write_preserves_surrounding_bytes() {
    // Write a full block, release (hardened), then on a fresh lock write 4
    // bytes in the middle: the client must RMW from disk.
    let mut expect = vec![5u8; BS];
    expect[100..104].copy_from_slice(&[9, 9, 9, 9]);
    let s0 = Script::new()
        .at(ms(10), FsOp::Create { path: "/f".into() })
        .at(
            ms(20),
            FsOp::Write {
                path: "/f".into(),
                offset: 0,
                data: vec![5u8; BS],
            },
        )
        .at(ms(60), FsOp::Release { path: "/f".into() })
        .at(
            ms(100),
            FsOp::Write {
                path: "/f".into(),
                offset: 100,
                data: vec![9u8; 4],
            },
        )
        .at(
            ms(150),
            FsOp::Read {
                path: "/f".into(),
                offset: 0,
                len: BS as u32,
            },
        );
    let mut r = rig(vec![s0], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(1));
    let res = results_of(&r, 0);
    assert_eq!(res[4].1, Ok(FsData::Bytes(expect)));
}

#[test]
fn zero_length_writes_complete_without_the_lock() {
    // An empty write changes nothing: it completes at once, takes no lock
    // and allocates no block, at offset 0 as anywhere else.
    let empty = |offset| FsOp::Write {
        path: "/f".into(),
        offset,
        data: vec![],
    };
    let s0 = Script::new()
        .at(ms(10), FsOp::Create { path: "/f".into() })
        .at(ms(20), empty(0))
        .at(ms(30), empty(10 * BS as u64))
        .at(ms(40), FsOp::Stat { path: "/f".into() });
    let mut r = rig(vec![s0], LeaseConfig::default());
    r.world.run_until(SimTime::from_secs(1));
    let res = results_of(&r, 0);
    assert_eq!(res.len(), 4, "{res:?}");
    assert_eq!(
        (&res[1].1, &res[2].1),
        (&Ok(FsData::Unit), &Ok(FsData::Unit))
    );
    match &res[3].1 {
        Ok(FsData::Attr { size, .. }) => assert_eq!(*size, 0, "nothing grew"),
        other => panic!("stat: {other:?}"),
    }
    let srv = r.world.node_ref::<ServerNode>(r.server).unwrap();
    assert_eq!(srv.locks().epoch_watermark(), 0, "no lock was ever granted");
}

#[test]
fn keepalives_preserve_idle_client_lease() {
    // An idle client (no ops after 100ms) must stay in good standing via
    // keep-alives: after several lease periods its lease is still valid
    // and a late op succeeds.
    let lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    let s0 = Script::new()
        .at(ms(10), FsOp::Create { path: "/f".into() })
        .at(ms(9_000), FsOp::Stat { path: "/f".into() });
    let mut r = rig(vec![s0], lease);
    r.world.run_until(SimTime::from_secs(10));
    let res = results_of(&r, 0);
    assert_eq!(res.len(), 2);
    assert!(
        res[1].1.is_ok(),
        "late op served: lease never lapsed: {res:?}"
    );
    let c = r.world.node_ref::<ClientNode>(r.clients[0]).unwrap();
    assert!(
        c.lease().keepalive_count() > 0,
        "keep-alives actually flowed"
    );
    // And the server never armed a lease timer.
    let srv = r.world.node_ref::<ServerNode>(r.server).unwrap();
    assert_eq!(srv.authority().stats().timers_started, 0);
    assert_eq!(srv.authority().memory_bytes(), 0);
}

#[test]
fn busy_client_renews_opportunistically_with_zero_keepalives() {
    // A client doing steady metadata work never reaches phase 2, so the
    // lease protocol sends zero dedicated messages (§3.1).
    let lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    let mut script = Script::new().at(ms(5), FsOp::Create { path: "/f".into() });
    let mut t = 100;
    while t < 10_000 {
        script = script.at(ms(t), FsOp::Stat { path: "/f".into() });
        t += 300; // well inside the 0.8s renewal threshold
    }
    let mut r = rig(vec![script], lease);
    // Observe only while the workload is active (an idle tail would
    // legitimately fall back to keep-alives).
    r.world.run_until(SimTime::from_millis(9_900));
    let c = r.world.node_ref::<ClientNode>(r.clients[0]).unwrap();
    assert_eq!(c.lease().keepalive_count(), 0, "no dedicated lease traffic");
    assert!(
        c.lease().renewal_count() > 20,
        "renewed by ordinary messages"
    );
    assert_eq!(
        r.world.stats().sent_kind("keep_alive", NetId::CONTROL),
        0,
        "nothing on the wire either"
    );
}
