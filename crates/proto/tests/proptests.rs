//! Property tests for the wire codec and the at-most-once window.

use proptest::prelude::*;
use tank_proto::message::{
    FileAttr, FsError, NackReason, ReplyBody, RequestBody, ResponseOutcome, RouteError,
};
use tank_proto::seqwin::SeqVerdict;
use tank_proto::{
    BlockId, BlockRange, CtlMsg, DedupWindow, Epoch, FenceOp, Incarnation, Ino, LockMode, NetMsg,
    NodeId, PushBody, ReplMsg, ReqSeq, Request, Response, SanError, SanMsg, SanReadOk, ServerPush,
    SessionId, WireDecode, WireEncode, WriteTag,
};
use tank_sim::Payload;

// ------------------------------------------------------------ strategies

fn arb_mode() -> impl Strategy<Value = LockMode> {
    prop_oneof![Just(LockMode::SharedRead), Just(LockMode::Exclusive)]
}

fn arb_tag() -> impl Strategy<Value = WriteTag> {
    (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(w, e, s)| WriteTag {
        writer: NodeId(w),
        epoch: Epoch(e),
        wseq: s,
    })
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.-]{0,32}"
}

fn arb_attr() -> impl Strategy<Value = FileAttr> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(size, mtime, version, is_dir)| FileAttr {
            size,
            mtime,
            version,
            is_dir,
        },
    )
}

fn arb_request_body() -> impl Strategy<Value = RequestBody> {
    prop_oneof![
        any::<u64>().prop_map(|e| RequestBody::Hello { map_epoch: e }),
        Just(RequestBody::KeepAlive),
        (any::<u64>(), arb_name()).prop_map(|(p, name)| RequestBody::Create {
            parent: Ino(p),
            name
        }),
        (any::<u64>(), arb_name()).prop_map(|(p, name)| RequestBody::Lookup {
            parent: Ino(p),
            name
        }),
        (any::<u64>(), arb_name()).prop_map(|(p, name)| RequestBody::Mkdir {
            parent: Ino(p),
            name
        }),
        any::<u64>().prop_map(|d| RequestBody::ReadDir { dir: Ino(d) }),
        (any::<u64>(), arb_name()).prop_map(|(p, name)| RequestBody::Unlink {
            parent: Ino(p),
            name
        }),
        any::<u64>().prop_map(|i| RequestBody::GetAttr { ino: Ino(i) }),
        (any::<u64>(), proptest::option::of(any::<u64>()))
            .prop_map(|(i, size)| RequestBody::SetAttr { ino: Ino(i), size }),
        (any::<u64>(), arb_mode())
            .prop_map(|(i, mode)| RequestBody::LockAcquire { ino: Ino(i), mode }),
        (any::<u64>(), any::<u64>()).prop_map(|(i, e)| RequestBody::LockRelease {
            ino: Ino(i),
            epoch: Epoch(e)
        }),
        any::<u64>().prop_map(|p| RequestBody::PushAck { push_seq: p }),
        (any::<u64>(), any::<u32>()).prop_map(|(i, c)| RequestBody::AllocBlocks {
            ino: Ino(i),
            count: c
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(i, s)| RequestBody::CommitWrite {
            ino: Ino(i),
            new_size: s
        }),
        (any::<u64>(), arb_name(), any::<u64>()).prop_map(|(d, name, i)| {
            RequestBody::RenameLink {
                dir: Ino(d),
                name,
                ino: Ino(i),
            }
        }),
        (any::<u64>(), arb_name())
            .prop_map(|(d, name)| RequestBody::RenameUnlink { dir: Ino(d), name }),
    ]
}

fn arb_reply_body() -> impl Strategy<Value = ReplyBody> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(s, e)| ReplyBody::HelloOk {
            session: SessionId(s),
            map_epoch: e,
        }),
        Just(ReplyBody::Ok),
        any::<u64>().prop_map(|i| ReplyBody::Created { ino: Ino(i) }),
        (any::<u64>(), arb_attr()).prop_map(|(i, attr)| ReplyBody::Resolved { ino: Ino(i), attr }),
        arb_attr().prop_map(|attr| ReplyBody::Attr { attr }),
        proptest::collection::vec((arb_name(), any::<u64>()), 0..8).prop_map(|v| ReplyBody::Dir {
            entries: v.into_iter().map(|(n, i)| (n, Ino(i))).collect()
        }),
        (
            any::<u64>(),
            arb_mode(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..32),
            any::<u64>()
        )
            .prop_map(|(i, mode, e, blocks, size)| ReplyBody::LockGranted {
                ino: Ino(i),
                mode,
                epoch: Epoch(e),
                blocks: blocks.into_iter().map(BlockId).collect(),
                size,
            }),
        proptest::collection::vec(any::<u64>(), 0..32).prop_map(|b| ReplyBody::Allocated {
            blocks: b.into_iter().map(BlockId).collect()
        }),
    ]
}

fn arb_outcome() -> impl Strategy<Value = ResponseOutcome> {
    prop_oneof![
        arb_reply_body().prop_map(|b| ResponseOutcome::Acked(Ok(b))),
        prop_oneof![
            Just(FsError::NotFound),
            Just(FsError::Exists),
            Just(FsError::NoSpace),
            Just(FsError::NotLocked),
            Just(FsError::Invalid),
            Just(FsError::Unavailable),
        ]
        .prop_map(|e| ResponseOutcome::Acked(Err(e))),
        prop_oneof![
            Just(NackReason::LeaseTimingOut),
            Just(NackReason::SessionExpired),
            Just(NackReason::StaleSession),
            Just(NackReason::Recovering),
            Just(NackReason::Misrouted(RouteError::NotOwner)),
            Just(NackReason::Misrouted(RouteError::StaleMap)),
        ]
        .prop_map(ResponseOutcome::Nacked),
    ]
}

fn arb_netmsg() -> impl Strategy<Value = NetMsg> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u64>(), arb_request_body()).prop_map(
            |(src, sess, seq, body)| {
                NetMsg::Ctl(CtlMsg::Request(Request {
                    src: NodeId(src),
                    session: SessionId(sess),
                    seq: ReqSeq(seq),
                    body,
                }))
            }
        ),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_outcome()
        )
            .prop_map(|(dst, sess, seq, inc, outcome)| {
                NetMsg::Ctl(CtlMsg::Response(Response {
                    dst: NodeId(dst),
                    session: SessionId(sess),
                    seq: ReqSeq(seq),
                    incarnation: Incarnation(inc),
                    outcome,
                }))
            }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_mode(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(dst, sess, ps, ino, mode, epoch, inval)| {
                let body = if inval {
                    PushBody::Invalidate { ino: Ino(ino) }
                } else {
                    PushBody::Demand {
                        ino: Ino(ino),
                        mode_needed: mode,
                        epoch: Epoch(epoch),
                    }
                };
                NetMsg::Ctl(CtlMsg::Push(ServerPush {
                    dst: NodeId(dst),
                    session: SessionId(sess),
                    push_seq: ps,
                    body,
                }))
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(r, b)| NetMsg::San(SanMsg::ReadBlock {
            req_id: r,
            block: BlockId(b)
        })),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256),
            arb_tag()
        )
            .prop_map(|(r, b, data, tag)| NetMsg::San(SanMsg::WriteBlock {
                req_id: r,
                block: BlockId(b),
                data,
                tag
            })),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256),
            arb_tag()
        )
            .prop_map(|(r, data, tag)| NetMsg::San(SanMsg::ReadResp {
                req_id: r,
                result: Ok(SanReadOk { data, tag })
            })),
        any::<u64>().prop_map(|r| NetMsg::San(SanMsg::WriteResp {
            req_id: r,
            result: Err(SanError::Fenced)
        })),
        (
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(r, target, unfence, start, end)| NetMsg::San(SanMsg::FenceCmd {
                    req_id: r,
                    target: NodeId(target),
                    op: if unfence {
                        FenceOp::Unfence
                    } else {
                        FenceOp::Fence
                    },
                    range: BlockRange { start, end },
                })
            ),
        proptest::collection::vec(arb_request_body(), 0..8).prop_map(|elems| {
            NetMsg::Ctl(CtlMsg::Request(Request {
                src: NodeId(1),
                session: SessionId(2),
                seq: ReqSeq(3),
                body: RequestBody::Batch(elems),
            }))
        }),
        proptest::collection::vec(
            prop_oneof![arb_reply_body().prop_map(Ok), Just(Err(FsError::NotFound)),],
            0..8
        )
        .prop_map(|outcomes| {
            NetMsg::Ctl(CtlMsg::Response(Response {
                dst: NodeId(1),
                session: SessionId(2),
                seq: ReqSeq(3),
                incarnation: Incarnation(4),
                outcome: ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))),
            }))
        }),
        (
            any::<u64>(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            any::<u64>()
        )
            .prop_map(|(snap_gen, snapshot, offset, bytes, durable)| {
                NetMsg::Repl(ReplMsg::Append {
                    snap_gen,
                    snapshot,
                    offset,
                    bytes,
                    durable,
                })
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(snap_gen, durable)| NetMsg::Repl(ReplMsg::AppendAck { snap_gen, durable })),
        any::<u64>().prop_map(|i| NetMsg::Repl(ReplMsg::Heartbeat {
            incarnation: Incarnation(i)
        })),
    ]
}

proptest! {
    /// Every message round-trips the wire codec exactly, with no bytes
    /// left over.
    #[test]
    fn wire_roundtrip(msg in arb_netmsg()) {
        let mut enc = msg.encoded();
        let dec = NetMsg::decode(&mut enc).expect("decode");
        prop_assert_eq!(dec, msg);
        prop_assert_eq!(enc.len(), 0);
    }

    /// The simulator counts exactly the bytes a message encodes to.
    #[test]
    fn size_hint_is_the_encoded_length(msg in arb_netmsg()) {
        prop_assert_eq!(Payload::size_hint(&msg), msg.encoded().len());
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = bytes::Bytes::from(bytes);
        let _ = NetMsg::decode(&mut buf);
    }

    /// The dedup window admits each sequence number as Fresh at most once,
    /// regardless of duplication and reordering.
    #[test]
    fn dedup_window_at_most_once(
        seqs in proptest::collection::vec(1u64..200, 1..400),
    ) {
        let mut win = DedupWindow::with_span(4096);
        let mut fresh_seen = std::collections::HashSet::new();
        for s in seqs {
            if win.observe(ReqSeq(s)) == SeqVerdict::Fresh {
                prop_assert!(fresh_seen.insert(s), "seq {} admitted twice", s);
            }
        }
    }
}
