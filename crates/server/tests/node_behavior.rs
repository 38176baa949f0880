//! Direct protocol-edge tests of the server node: sessions, dedup/replay,
//! lock preconditions, NACK gating. A minimal scripted requester drives
//! the server without the full client stack, so each exchange is exact.

use tank_core::LeaseConfig;
use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Epoch, Event, Ino, LockMode, NackReason, NetMsg, NodeCtx, NodeId, ReqSeq, Request,
    SanError, SanMsg, SanReadOk, SessionId, WriteTag,
};
use tank_server::{ServerConfig, ServerNode, ServerStats};
use tank_sim::{Actor, ClockSpec, LocalNs, NetId, NetParams, SimTime, World, WorldConfig};

/// Sends a fixed list of raw requests (one per ms) and records responses.
struct Requester {
    server: NodeId,
    script: Vec<Request>,
    responses: Vec<(ReqSeq, ResponseOutcome)>,
    next: usize,
}

impl Actor<NetMsg, Event> for Requester {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(LocalNs::from_millis(1), 0);
    }
    fn on_message(&mut self, _f: NodeId, _n: NetId, msg: NetMsg, _ctx: &mut NodeCtx<'_>) {
        if let NetMsg::Ctl(CtlMsg::Response(r)) = msg {
            self.responses.push((r.seq, r.outcome));
        }
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx<'_>) {
        if let Some(req) = self.script.get(self.next) {
            self.next += 1;
            ctx.send(
                NetId::CONTROL,
                self.server,
                NetMsg::Ctl(CtlMsg::Request(req.clone())),
            );
            ctx.set_timer(LocalNs::from_millis(1), 0);
        }
    }
}

fn run_script(script_builder: impl Fn(NodeId) -> Vec<Request>) -> Vec<(ReqSeq, ResponseOutcome)> {
    run_script_wal(script_builder).0
}

/// [`run_script`], also returning the server's durable log bytes.
fn run_script_wal(
    script_builder: impl Fn(NodeId) -> Vec<Request>,
) -> (Vec<(ReqSeq, ResponseOutcome)>, Vec<u8>) {
    let mut w: World<NetMsg, Event> = World::new(WorldConfig::default());
    w.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    w.add_network(NetId::SAN, NetParams::ideal(100_000));
    let mut cfg = ServerConfig::default();
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(5));
    let server = w.add_node(
        Box::new(ServerNode::new(cfg, 1024, 512)),
        ClockSpec::ideal(),
    );
    {
        let s = w.node_mut::<ServerNode>(server).unwrap();
        s.precreate_file("f0", 4);
    }
    let script = script_builder(server);
    let requester = w.add_node(
        Box::new(Requester {
            server,
            script,
            responses: Vec::new(),
            next: 0,
        }),
        ClockSpec::ideal(),
    );
    w.run_until(SimTime::from_secs(2));
    let responses = w
        .node_ref::<Requester>(requester)
        .unwrap()
        .responses
        .clone();
    let wal = w.node_ref::<ServerNode>(server).unwrap().wal();
    (responses, wal.durable_delta(0).to_vec())
}

fn req(src: u32, session: u64, seq: u64, body: RequestBody) -> Request {
    Request {
        src: NodeId(src),
        session: SessionId(session),
        seq: ReqSeq(seq),
        body,
    }
}

#[test]
fn requests_before_hello_are_stale_session_nacks() {
    let rs = run_script(|_| vec![req(1, 0, 1, RequestBody::GetAttr { ino: Ino(2) })]);
    assert!(matches!(
        rs[0].1,
        ResponseOutcome::Nacked(NackReason::StaleSession)
    ));
}

#[test]
fn wrong_session_id_is_nacked_but_right_one_works() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            // Session ids start at 1; claim session 999.
            req(1, 999, 2, RequestBody::GetAttr { ino: Ino(2) }),
            req(1, 1, 3, RequestBody::GetAttr { ino: Ino(2) }),
        ]
    });
    assert!(matches!(
        rs[0].1,
        ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { .. }))
    ));
    assert!(matches!(
        rs[1].1,
        ResponseOutcome::Nacked(NackReason::StaleSession)
    ));
    assert!(matches!(
        rs[2].1,
        ResponseOutcome::Acked(Ok(ReplyBody::Attr { .. }))
    ));
}

#[test]
fn duplicate_requests_are_replayed_not_reexecuted() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            req(
                1,
                1,
                2,
                RequestBody::Create {
                    parent: Ino(1),
                    name: "x".into(),
                },
            ),
            // Exact duplicate: must replay Created, not answer Exists.
            req(
                1,
                1,
                2,
                RequestBody::Create {
                    parent: Ino(1),
                    name: "x".into(),
                },
            ),
            // A *new* seq for the same name is a real re-execution.
            req(
                1,
                1,
                3,
                RequestBody::Create {
                    parent: Ino(1),
                    name: "x".into(),
                },
            ),
        ]
    });
    let created =
        |o: &ResponseOutcome| matches!(o, ResponseOutcome::Acked(Ok(ReplyBody::Created { .. })));
    assert!(created(&rs[1].1));
    assert!(created(&rs[2].1), "duplicate replays the original Created");
    assert!(matches!(
        rs[3].1,
        ResponseOutcome::Acked(Err(FsError::Exists))
    ));
}

#[test]
fn data_mutations_require_the_exclusive_lock() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            req(
                1,
                1,
                2,
                RequestBody::AllocBlocks {
                    ino: Ino(2),
                    count: 2,
                },
            ),
            req(
                1,
                1,
                3,
                RequestBody::CommitWrite {
                    ino: Ino(2),
                    new_size: 99,
                },
            ),
            req(
                1,
                1,
                4,
                RequestBody::SetAttr {
                    ino: Ino(2),
                    size: Some(0),
                },
            ),
            req(
                1,
                1,
                5,
                RequestBody::LockAcquire {
                    ino: Ino(2),
                    mode: LockMode::Exclusive,
                },
            ),
            req(
                1,
                1,
                6,
                RequestBody::AllocBlocks {
                    ino: Ino(2),
                    count: 2,
                },
            ),
            req(
                1,
                1,
                7,
                RequestBody::CommitWrite {
                    ino: Ino(2),
                    new_size: 99,
                },
            ),
            req(
                1,
                1,
                8,
                RequestBody::SetAttr {
                    ino: Ino(2),
                    size: Some(512),
                },
            ),
        ]
    });
    let notlocked =
        |o: &ResponseOutcome| matches!(o, ResponseOutcome::Acked(Err(FsError::NotLocked)));
    assert!(notlocked(&rs[1].1), "alloc without lock");
    assert!(notlocked(&rs[2].1), "commit without lock");
    assert!(notlocked(&rs[3].1), "truncate without lock");
    assert!(matches!(
        rs[4].1,
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { .. }))
    ));
    assert!(matches!(
        rs[5].1,
        ResponseOutcome::Acked(Ok(ReplyBody::Allocated { .. }))
    ));
    assert!(matches!(rs[6].1, ResponseOutcome::Acked(Ok(ReplyBody::Ok))));
    assert!(matches!(
        rs[7].1,
        ResponseOutcome::Acked(Ok(ReplyBody::Attr { .. }))
    ));
}

#[test]
fn stale_epoch_release_is_a_noop() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            req(
                1,
                1,
                2,
                RequestBody::LockAcquire {
                    ino: Ino(2),
                    mode: LockMode::Exclusive,
                },
            ),
            // Release with a wrong epoch: server must keep the holding.
            req(
                1,
                1,
                3,
                RequestBody::LockRelease {
                    ino: Ino(2),
                    epoch: Epoch(9999),
                },
            ),
            // Still held: a covered re-acquire returns the same grant.
            req(
                1,
                1,
                4,
                RequestBody::LockAcquire {
                    ino: Ino(2),
                    mode: LockMode::SharedRead,
                },
            ),
        ]
    });
    let e1 = match &rs[1].1 {
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, .. })) => *epoch,
        other => panic!("{other:?}"),
    };
    assert!(matches!(rs[2].1, ResponseOutcome::Acked(Ok(ReplyBody::Ok))));
    match &rs[3].1 {
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, mode, .. })) => {
            assert_eq!(*epoch, e1, "holding survived the stale release");
            assert_eq!(*mode, LockMode::Exclusive);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn fresh_hello_releases_previous_incarnations_locks() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            req(
                1,
                1,
                2,
                RequestBody::LockAcquire {
                    ino: Ino(2),
                    mode: LockMode::Exclusive,
                },
            ),
            req(1, 0, 3, RequestBody::Hello { map_epoch: 0 }), // new incarnation
            // New session; the old lock must be gone, so this grant gets a
            // NEW epoch rather than AlreadyHeld's old one.
            req(
                1,
                2,
                4,
                RequestBody::LockAcquire {
                    ino: Ino(2),
                    mode: LockMode::Exclusive,
                },
            ),
        ]
    });
    let e1 = match &rs[1].1 {
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, .. })) => *epoch,
        other => panic!("{other:?}"),
    };
    let e2 = match &rs[3].1 {
        ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, .. })) => *epoch,
        other => panic!("{other:?}"),
    };
    assert!(e2 > e1, "fresh grant after hello: {e1:?} -> {e2:?}");
}

#[test]
fn unlink_of_a_locked_file_is_denied() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            req(
                1,
                1,
                2,
                RequestBody::LockAcquire {
                    ino: Ino(2),
                    mode: LockMode::SharedRead,
                },
            ),
            req(
                1,
                1,
                3,
                RequestBody::Unlink {
                    parent: Ino(1),
                    name: "f0".into(),
                },
            ),
            req(
                1,
                1,
                4,
                RequestBody::LockRelease {
                    ino: Ino(2),
                    epoch: Epoch(1),
                },
            ),
            req(
                1,
                1,
                5,
                RequestBody::Unlink {
                    parent: Ino(1),
                    name: "f0".into(),
                },
            ),
        ]
    });
    assert!(
        matches!(rs[2].1, ResponseOutcome::Acked(Err(FsError::Unavailable))),
        "unlink while locked must be denied: {:?}",
        rs[2].1
    );
    assert!(
        matches!(rs[4].1, ResponseOutcome::Acked(Ok(ReplyBody::Ok))),
        "unlink after release works: {:?}",
        rs[4].1
    );
}

#[test]
fn application_errors_still_ack() {
    let rs = run_script(|_| {
        vec![
            req(1, 0, 1, RequestBody::Hello { map_epoch: 0 }),
            req(
                1,
                1,
                2,
                RequestBody::Lookup {
                    parent: Ino(1),
                    name: "nope".into(),
                },
            ),
            req(
                1,
                1,
                3,
                RequestBody::Unlink {
                    parent: Ino(1),
                    name: "nope".into(),
                },
            ),
            req(1, 1, 4, RequestBody::ReadDir { dir: Ino(2) }), // a file, not a dir
        ]
    });
    for (i, (_, o)) in rs.iter().enumerate().skip(1) {
        assert!(
            matches!(o, ResponseOutcome::Acked(Err(_))),
            "op {i} should be an ACKed error: {o:?}"
        );
    }
}

/// Delivers SAN read/write completions the server never asked for.
struct StrayDisk(NodeId);

impl Actor<NetMsg, Event> for StrayDisk {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let read = SanMsg::ReadResp {
            req_id: 1,
            result: Ok(SanReadOk {
                data: vec![7; 512],
                tag: WriteTag::default(),
            }),
        };
        let write = SanMsg::WriteResp {
            req_id: 1,
            result: Err(SanError::Fenced),
        };
        ctx.send(NetId::SAN, self.0, NetMsg::San(read));
        ctx.send(NetId::SAN, self.0, NetMsg::San(write));
    }
    fn on_message(&mut self, _f: NodeId, _n: NetId, _m: NetMsg, _ctx: &mut NodeCtx<'_>) {}
    fn on_timer(&mut self, _t: u64, _ctx: &mut NodeCtx<'_>) {}
}

#[test]
fn stray_san_completions_are_counted_and_never_acted_on() {
    // The server's only SAN business is fencing: a read or write
    // completion is a protocol anomaly, whatever request id it carries.
    let registry = std::sync::Arc::new(tank_obs::Registry::new());
    let mut w: World<NetMsg, Event> = World::new(WorldConfig::default());
    w.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    w.add_network(NetId::SAN, NetParams::ideal(100_000));
    let mut node = ServerNode::new(ServerConfig::default(), 1024, 512);
    node.set_obs(registry.clone());
    let server = w.add_node(Box::new(node), ClockSpec::ideal());
    w.add_node(Box::new(StrayDisk(server)), ClockSpec::ideal());
    w.run_until(SimTime::from_secs(1));

    assert_eq!(
        registry.snapshot().counter("server.unexpected_msgs"),
        Some(2)
    );
    let s = w.node_ref::<ServerNode>(server).unwrap();
    assert_eq!(s.stats(), ServerStats::default());
    assert_eq!(w.stats().sent_on(NetId::SAN), 2, "only the strays");
    assert_eq!(w.stats().sent_on(NetId::CONTROL), 0);
}

/// Sends each request at its own time (ms) and records every response; a
/// push is never answered, so a demand on this peer's lock runs its ladder
/// out.
struct SilentPeer {
    server: NodeId,
    script: Vec<(u64, Request)>,
    responses: Vec<(ReqSeq, ResponseOutcome)>,
}

impl Actor<NetMsg, Event> for SilentPeer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(LocalNs::from_millis(*at), i as u64);
        }
    }
    fn on_message(&mut self, _f: NodeId, _n: NetId, msg: NetMsg, _ctx: &mut NodeCtx<'_>) {
        if let NetMsg::Ctl(CtlMsg::Response(r)) = msg {
            self.responses.push((r.seq, r.outcome));
        }
    }
    fn on_timer(&mut self, i: u64, ctx: &mut NodeCtx<'_>) {
        let req = self.script[i as usize].1.clone();
        ctx.send(
            NetId::CONTROL,
            self.server,
            NetMsg::Ctl(CtlMsg::Request(req)),
        );
    }
}

#[test]
fn a_grant_that_falls_due_while_its_waiter_is_suspect_is_a_nack() {
    // A holds f0 and, 200 ms after C's demand for it went out, queues for
    // f1 behind B. A never answers the demand; B releases f1 100 ms after
    // the delivery error against A. The grant exists, but an ACK would
    // renew A's lease from 300 ms — the acquire's first send — while the
    // steal is timed from the demand at 100 ms: A must hear a NACK.
    let acquire = |ino| RequestBody::LockAcquire {
        ino: Ino(ino),
        mode: LockMode::Exclusive,
    };
    let hello = RequestBody::Hello { map_epoch: 0 };
    let scripts = [
        vec![
            (1, req(1, 0, 1, hello.clone())),
            (10, req(1, 1, 2, acquire(2))),
            (300, req(1, 1, 3, acquire(3))),
        ],
        vec![
            (2, req(2, 0, 1, hello.clone())),
            (11, req(2, 2, 2, acquire(3))),
            (
                1_000,
                req(
                    2,
                    2,
                    3,
                    RequestBody::LockRelease {
                        ino: Ino(3),
                        epoch: Epoch(2),
                    },
                ),
            ),
        ],
        vec![(3, req(3, 0, 1, hello)), (100, req(3, 3, 2, acquire(2)))],
    ];
    let mut w: World<NetMsg, Event> = World::new(WorldConfig::default());
    w.add_network(NetId::CONTROL, NetParams::ideal(100_000));
    w.add_network(NetId::SAN, NetParams::ideal(100_000));
    let mut cfg = ServerConfig::default();
    cfg.lease = LeaseConfig::with_tau(LocalNs::from_secs(2));
    let server = w.add_node(
        Box::new(ServerNode::new(cfg, 1024, 512)),
        ClockSpec::ideal(),
    );
    {
        let s = w.node_mut::<ServerNode>(server).unwrap();
        assert_eq!(s.precreate_file("f0", 4), Ino(2));
        assert_eq!(s.precreate_file("f1", 4), Ino(3));
    }
    let [a, b, c] = scripts.map(|script| {
        let peer = SilentPeer {
            server,
            script,
            responses: Vec::new(),
        };
        w.add_node(Box::new(peer), ClockSpec::ideal())
    });
    let granted = |o: &ResponseOutcome, ino| matches!(o, ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { ino: i, .. })) if *i == Ino(ino));

    // Past the error (≈ 900 ms) and B's release, short of the steal.
    w.run_until(SimTime::from_millis(1_500));
    let stats = w.node_ref::<ServerNode>(server).unwrap().stats();
    assert_eq!((stats.delivery_errors, stats.steals), (1, 0));
    let of = |w: &World<NetMsg, Event>, n| w.node_ref::<SilentPeer>(n).unwrap().responses.clone();
    let to_a = of(&w, a);
    assert_eq!(to_a.len(), 3, "{to_a:?}");
    assert!(granted(&to_a[1].1, 2));
    let refused = ResponseOutcome::Nacked(NackReason::LeaseTimingOut);
    assert_eq!(to_a[2], (ReqSeq(3), refused), "never an ACK");
    assert!(matches!(
        of(&w, b)[2].1,
        ResponseOutcome::Acked(Ok(ReplyBody::Ok))
    ));
    assert_eq!(of(&w, c).len(), 1, "C still waits");

    // The steal, τ(1+ε) after the demand A never answered.
    w.run_until(SimTime::from_millis(2_500));
    let stats = w.node_ref::<ServerNode>(server).unwrap().stats();
    assert_eq!((stats.steals, stats.locks_stolen), (1, 2), "f0, and f1 too");
    assert!(granted(&of(&w, c)[1].1, 2));
    assert_eq!(of(&w, a).len(), 3, "nothing more for A");
}

#[test]
fn a_non_holder_cannot_move_a_held_inodes_attributes() {
    // A holder caches the attributes of the inode its lock covers
    // (CACHING.md, "Cached attributes"), so while A holds f0 nothing B
    // sends may change what `GetAttr` says of it. Every request shape that
    // can name the inode is tried: B reads the attributes, sends the shape,
    // reads them again. The shapes that reach `inodes.get_mut` (or free the
    // inode) must be refused outright; the rest must simply change nothing.
    let f0 = Ino(2);
    let touch = RequestBody::SetAttr {
        ino: f0,
        size: None,
    };
    let commit = RequestBody::CommitWrite {
        ino: f0,
        new_size: 1 << 20,
    };
    let shapes: Vec<(&str, RequestBody, bool)> = vec![
        ("touch", touch.clone(), true),
        (
            "truncate",
            RequestBody::SetAttr {
                ino: f0,
                size: Some(0),
            },
            true,
        ),
        (
            "alloc",
            RequestBody::AllocBlocks { ino: f0, count: 1 },
            true,
        ),
        ("commit", commit.clone(), true),
        (
            "unlink",
            RequestBody::Unlink {
                parent: Ino(1),
                name: "f0".into(),
            },
            true,
        ),
        (
            "create under it",
            RequestBody::Create {
                parent: f0,
                name: "x".into(),
            },
            true,
        ),
        (
            "mkdir under it",
            RequestBody::Mkdir {
                parent: f0,
                name: "x".into(),
            },
            true,
        ),
        ("batched", RequestBody::Batch(vec![touch, commit]), true),
        (
            "second name for it",
            RequestBody::RenameLink {
                dir: Ino(1),
                name: "alias".into(),
                ino: f0,
            },
            false,
        ),
        (
            "drop its name",
            RequestBody::RenameUnlink {
                dir: Ino(1),
                name: "f0".into(),
            },
            false,
        ),
        (
            "release of a grant B does not hold",
            RequestBody::LockRelease {
                ino: f0,
                epoch: Epoch(1),
            },
            false,
        ),
        (
            "lookup",
            RequestBody::Lookup {
                parent: Ino(1),
                name: "f0".into(),
            },
            false,
        ),
        ("getattr", RequestBody::GetAttr { ino: f0 }, false),
        ("readdir", RequestBody::ReadDir { dir: Ino(1) }, false),
    ];
    for mode in [LockMode::SharedRead, LockMode::Exclusive] {
        for (what, body, must_refuse) in &shapes {
            let hello = RequestBody::Hello { map_epoch: 0 };
            let getattr = RequestBody::GetAttr { ino: f0 };
            let scripts = [
                vec![
                    (1, req(1, 0, 1, hello.clone())),
                    (5, req(1, 1, 2, RequestBody::LockAcquire { ino: f0, mode })),
                ],
                vec![
                    (2, req(2, 0, 1, hello)),
                    (10, req(2, 2, 2, getattr.clone())),
                    (20, req(2, 2, 3, body.clone())),
                    (30, req(2, 2, 4, getattr)),
                ],
            ];
            let mut w: World<NetMsg, Event> = World::new(WorldConfig::default());
            w.add_network(NetId::CONTROL, NetParams::ideal(100_000));
            w.add_network(NetId::SAN, NetParams::ideal(100_000));
            let server = w.add_node(
                Box::new(ServerNode::new(ServerConfig::default(), 1024, 512)),
                ClockSpec::ideal(),
            );
            let precreated = w
                .node_mut::<ServerNode>(server)
                .unwrap()
                .precreate_file("f0", 4);
            assert_eq!(precreated, f0);
            let [a, b] = scripts.map(|script| {
                let peer = SilentPeer {
                    server,
                    script,
                    responses: Vec::new(),
                };
                w.add_node(Box::new(peer), ClockSpec::ideal())
            });
            w.run_until(SimTime::from_millis(50));
            let of = |n| w.node_ref::<SilentPeer>(n).unwrap().responses.clone();
            assert!(
                matches!(
                    of(a)[1].1,
                    ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { .. }))
                ),
                "A holds f0"
            );
            let to_b = of(b);
            assert_eq!(to_b.len(), 4, "{mode:?} {what}: {to_b:?}");
            let attr = |o: &ResponseOutcome| match o {
                ResponseOutcome::Acked(Ok(ReplyBody::Attr { attr })) => *attr,
                other => panic!("{mode:?} {what}: {other:?}"),
            };
            assert_eq!(
                attr(&to_b[1].1),
                attr(&to_b[3].1),
                "{mode:?} {what}: B moved the attributes of an inode A holds"
            );
            let refused = match &to_b[2].1 {
                ResponseOutcome::Acked(Err(_)) => true,
                ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))) => {
                    outcomes.last().is_some_and(|o| o.is_err())
                }
                _ => false,
            };
            assert_eq!(refused, *must_refuse, "{mode:?} {what}: {:?}", to_b[2].1);
        }
    }
}

/// The durable log of [`the_wal_bytes_of_a_fixed_script_match_the_golden`]'s
/// script, captured at the commit before metadata execution moved behind
/// `MetaStore::execute`: same records, same order, same bytes.
const GOLDEN_WAL_HEX: &str = concat!(
    "1d000000b17a587f000100000000000000020000000000000000000000000000",
    "00020066300d0000009790c8cc0602000000000000000400000019000000aff2",
    "2d310702000000000000000008000000000000000000000000000009000000ae",
    "9e8dbf0a01000000000000000900000028b67b910801000000000000001c0000",
    "007b27508a0001000000000000000300000000000000200b2000000000000100",
    "611c0000007b04e42b0101000000000000000400000000000000604d2f000000",
    "0000010064090000006ba200860901000000000000000d00000041e4baca0603",
    "0000000000000003000000190000007ed277a5070300000000000000dc050000",
    "0000000020145d00000000001a000000cb8ab34f020300000000000000010002",
    "00000000000060566c000000000012000000d4a1480602040000000000000000",
    "a0987b000000000015000000743bb67404040000000000000003000000000000",
    "00020061320c00000046558f190501000000000000000100610d000000ded280",
    "af030400000000000000020061321d000000ec23a24600010000000000000005",
    "000000000000002026d70000000000020062311d00000078337cc30001000000",
    "0000000006000000000000006068e6000000000002006331",
);

#[test]
fn the_wal_bytes_of_a_fixed_script_match_the_golden() {
    use RequestBody::{AllocBlocks, Batch, CommitWrite, LockRelease, SetAttr, Unlink};
    let (root, f0, a, d) = (Ino(1), Ino(2), Ino(3), Ino(4));
    let named = |parent: Ino, name: &str| (parent, name.to_owned());
    let create = |name: &str| {
        let (parent, name) = named(root, name);
        RequestBody::Create { parent, name }
    };
    let unlink_a2 = || {
        let (parent, name) = named(d, "a2");
        Unlink { parent, name }
    };
    let (mode, epoch) = (LockMode::Exclusive, Epoch(1));
    let script = vec![
        create("a"),
        RequestBody::Mkdir {
            parent: root,
            name: "d".into(),
        },
        RequestBody::LockAcquire { ino: a, mode },
        AllocBlocks { ino: a, count: 3 },
        CommitWrite {
            ino: a,
            new_size: 1500,
        },
        SetAttr {
            ino: a,
            size: Some(512),
        },
        SetAttr { ino: d, size: None },
        RequestBody::RenameLink {
            dir: d,
            name: "a2".into(),
            ino: a,
        },
        RequestBody::RenameUnlink {
            dir: root,
            name: "a".into(),
        },
        // Refused: the file is still locked. Nothing is logged.
        unlink_a2(),
        LockRelease { ino: a, epoch },
        unlink_a2(),
        // The second element fails in the store, the third never runs.
        Batch(vec![create("b1"), create("b1"), create("b2")]),
        // The second element is refused before the store sees it (f0 is
        // not locked), the third never runs.
        Batch(vec![
            create("c1"),
            AllocBlocks { ino: f0, count: 1 },
            create("c2"),
        ]),
    ];
    let (rs, wal) = run_script_wal(|_| {
        let hello = req(1, 0, 1, RequestBody::Hello { map_epoch: 0 });
        let rest = script.iter().zip(2..);
        std::iter::once(hello)
            .chain(rest.map(|(body, seq)| req(1, 1, seq, body.clone())))
            .collect()
    });
    // `replies[i]` answers `script[i]`.
    let replies: Vec<_> = rs[1..]
        .iter()
        .map(|(_, outcome)| match outcome {
            ResponseOutcome::Acked(result) => result.clone(),
            nack => panic!("{nack:?}"),
        })
        .collect();
    let created = |ino| Ok(ReplyBody::Created { ino });
    assert_eq!(replies[0], created(a));
    assert_eq!(replies[1], created(d));
    assert!(matches!(&replies[2], Ok(ReplyBody::LockGranted { epoch: e, .. }) if *e == epoch));
    assert!(matches!(&replies[3], Ok(ReplyBody::Allocated { blocks }) if blocks.len() == 3));
    assert!(matches!(&replies[5], Ok(ReplyBody::Attr { attr }) if attr.size == 512));
    assert!(matches!(&replies[6], Ok(ReplyBody::Attr { attr }) if attr.is_dir));
    for i in [4, 7, 8, 10, 11] {
        assert_eq!(replies[i], Ok(ReplyBody::Ok), "script[{i}]");
    }
    assert_eq!(replies[9], Err(FsError::Unavailable));
    let batch = |first, then| Ok(ReplyBody::Batch(vec![created(first), Err(then)]));
    assert_eq!(replies[12], batch(Ino(5), FsError::Exists));
    assert_eq!(replies[13], batch(Ino(6), FsError::NotLocked));
    let hex: String = wal.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_WAL_HEX);
}
