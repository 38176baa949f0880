//! Which results a client keeps: those of the ops submitted to it (a
//! script's steps, a live caller's ops), in completion order, at most
//! `RESULT_LOG_CAP` of them, until a caller takes one. A workload
//! generator's ops leave only their `OpCompleted` event.

use rand_chacha::ChaCha8Rng;
use tank_client::fs::{FsResult, Script};
use tank_client::node::RESULT_LOG_CAP;
use tank_client::{ClientConfig, ClientNode, FsData, FsErr, FsOp, OpGen};
use tank_proto::{Event, NetMsg, NodeId, OpId, MAX_NAME};
use tank_server::{ServerConfig, ServerNode};
use tank_sim::{ClockSpec, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};
use tank_storage::{DiskConfig, DiskNode};

const BS: usize = 512;

/// One disk, one server, one observed client running `script` and, if
/// given, `gen`.
fn rig(script: Script, gen: Option<Box<dyn OpGen>>) -> (World<NetMsg, Event>, NodeId) {
    let mut world: World<NetMsg, Event> = World::new(WorldConfig::default());
    world.add_network(NetId::CONTROL, NetParams::ideal(200_000));
    world.add_network(NetId::SAN, NetParams::ideal(100_000));
    let disk = DiskNode::<Event>::unobserved(DiskConfig {
        blocks: 1024,
        block_size: BS,
    });
    let disk = world.add_node(Box::new(disk), ClockSpec::ideal());
    let mut scfg = ServerConfig::default();
    scfg.disks = vec![disk];
    let server = ServerNode::new(scfg, 1024, BS);
    let server = world.add_node(Box::new(server), ClockSpec::ideal());
    let mut cfg = ClientConfig::new(server, vec![disk]);
    cfg.block_size = BS;
    let mut node = ClientNode::new(cfg).with_script(script);
    if let Some(gen) = gen {
        node.set_workload(gen);
    }
    let client = world.add_node(Box::new(node), ClockSpec::ideal());
    (world, client)
}

/// Lists the root, `left` times, 1 ms apart.
struct ListRoot {
    left: u32,
}

impl OpGen for ListRoot {
    fn next_op(&mut self, _rng: &mut ChaCha8Rng, _now: LocalNs) -> Option<(LocalNs, FsOp)> {
        self.left = self.left.checked_sub(1)?;
        let list = FsOp::List { path: "/".into() };
        Some((LocalNs::from_millis(1), list))
    }
}

fn ms(x: u64) -> LocalNs {
    LocalNs::from_millis(x)
}

/// Refused at admission, inside `submit`: only top-level names rename.
fn nested_rename() -> FsOp {
    FsOp::Rename {
        from: "/d/x".into(),
        to: "/y".into(),
    }
}

#[test]
fn a_client_keeps_its_script_results_and_none_of_its_generators() {
    // The create is submitted before the refused rename but completes
    // after it: the log is in completion order.
    let script = Script::new()
        .at(ms(10), FsOp::Create { path: "/a".into() })
        .at(ms(10), nested_rename())
        .at(ms(20), FsOp::Stat { path: "/a".into() })
        .at(
            ms(30),
            FsOp::Stat {
                path: "/missing".into(),
            },
        );
    let (mut world, client) = rig(script, Some(Box::new(ListRoot { left: 100 })));
    world.run_until(SimTime::from_millis(500));

    let completed: Vec<(OpId, &'static str)> = world
        .observations()
        .iter()
        .filter_map(|(_, _, e)| match e {
            Event::OpCompleted { op, kind, .. } => Some((*op, *kind)),
            _ => None,
        })
        .collect();
    let lists = completed.iter().filter(|(_, k)| *k == "list").count();
    assert_eq!(lists, 100, "the generator ran to the end");
    let scripted: Vec<OpId> = completed
        .iter()
        .filter(|(_, k)| *k != "list")
        .map(|(op, _)| *op)
        .collect();

    let node = world.node_ref::<ClientNode>(client).unwrap();
    let results: Vec<(OpId, FsResult)> = node.results().cloned().collect();
    let ids: Vec<OpId> = results.iter().map(|(op, _)| *op).collect();
    assert_eq!(ids, scripted, "the script's ops, in completion order");
    let outcomes: Vec<&FsResult> = results.iter().map(|(_, r)| r).collect();
    assert_eq!(outcomes[0], &Err(FsErr::Invalid), "the rename");
    assert_eq!(outcomes[1], &Ok(FsData::Unit), "the create");
    assert!(
        matches!(outcomes[2], Ok(FsData::Attr { is_dir: false, .. })),
        "{:?}",
        outcomes[2]
    );
    assert_eq!(outcomes[3], &Err(FsErr::NotFound));
}

#[test]
fn the_oldest_result_goes_and_take_result_finds_the_newest() {
    let mut script = Script::new();
    for _ in 0..=RESULT_LOG_CAP {
        script = script.at(ms(10), nested_rename());
    }
    let (mut world, client) = rig(script, None);
    world.run_until(SimTime::from_millis(20));

    let node = world.node_mut::<ClientNode>(client).unwrap();
    let (first, newest) = (OpId(1), OpId(RESULT_LOG_CAP as u64 + 1));
    assert_eq!(node.results().count(), RESULT_LOG_CAP);
    assert_eq!(node.result_of(first), None, "the oldest result went");
    assert_eq!(node.results().next().map(|(op, _)| *op), Some(OpId(2)));
    assert_eq!(node.take_result(newest), Some(Err(FsErr::Invalid)));
    assert_eq!(node.take_result(newest), None, "taken once");
    assert_eq!(node.results().count(), RESULT_LOG_CAP - 1);
    assert_eq!(node.result_of(OpId(2)), Some(&Err(FsErr::Invalid)));
}

#[test]
fn a_name_longer_than_max_name_is_refused_before_a_request_is_sent() {
    let long = format!("/{}", "n".repeat(MAX_NAME + 1));
    let longest = format!("/{}", "n".repeat(MAX_NAME));
    let script = Script::new()
        .at(ms(10), FsOp::Create { path: long.clone() })
        .at(
            ms(10),
            FsOp::Mkdir {
                path: format!("{long}/d"),
            },
        )
        .at(
            ms(10),
            FsOp::Rename {
                from: "/a".into(),
                to: long,
            },
        )
        .at(ms(10), FsOp::Create { path: longest });
    let (mut world, client) = rig(script, None);
    world.run_until(SimTime::from_millis(100));

    let node = world.node_ref::<ClientNode>(client).unwrap();
    let outcomes: Vec<FsResult> = node.results().map(|(_, r)| r.clone()).collect();
    assert_eq!(
        outcomes,
        vec![
            Err(FsErr::Invalid),
            Err(FsErr::Invalid),
            Err(FsErr::Invalid),
            Ok(FsData::Unit)
        ]
    );
    let stats = world.stats();
    assert_eq!(
        stats.sent_kind("create", NetId::CONTROL),
        1,
        "the legal one"
    );
    assert_eq!(stats.sent_kind("lookup", NetId::CONTROL), 0);
    assert_eq!(stats.sent_kind("mkdir", NetId::CONTROL), 0);
}
