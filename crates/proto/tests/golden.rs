//! The wire format, pinned to literal bytes. One value of every variant of
//! every wire enum — `NetMsg`, `CtlMsg`, `RequestBody`, `ReplyBody`,
//! `ResponseOutcome`, `PushBody`, `SanMsg`, `ReplMsg`, and the
//! `FsError` / `NackReason` / `SanError` / `LockMode` / `FenceOp` tags —
//! encodes to exactly the bytes written here, and those bytes decode back
//! to the value with nothing left over. The round-trip proptests pass
//! whenever encoder and decoder change together; this test fails when the
//! bytes on the wire change at all.

use bytes::Bytes;
use tank_proto::message::{
    FileAttr, FsError, NackReason, ReplyBody, RequestBody, ResponseOutcome, RouteError,
};
use tank_proto::{
    BlockId, BlockRange, CtlMsg, Epoch, FenceOp, Incarnation, Ino, LockMode, NetMsg, NodeId,
    PushBody, ReplMsg, ReqSeq, Request, Response, SanError, SanMsg, SanReadOk, ServerPush,
    SessionId, WireDecode, WireEncode, WriteTag,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).expect("ascii"), 16).expect("hex"))
        .collect()
}

fn request(body: RequestBody) -> NetMsg {
    NetMsg::Ctl(CtlMsg::Request(Request {
        src: NodeId(5),
        session: SessionId(2),
        seq: ReqSeq(42),
        body,
    }))
}

fn response(outcome: ResponseOutcome) -> NetMsg {
    NetMsg::Ctl(CtlMsg::Response(Response {
        dst: NodeId(5),
        session: SessionId(2),
        seq: ReqSeq(42),
        incarnation: Incarnation(7),
        outcome,
    }))
}

fn reply(body: ReplyBody) -> NetMsg {
    response(ResponseOutcome::Acked(Ok(body)))
}

fn push(body: PushBody) -> NetMsg {
    NetMsg::Ctl(CtlMsg::Push(ServerPush {
        dst: NodeId(1),
        session: SessionId(4),
        push_seq: 10,
        body,
    }))
}

const ATTR: FileAttr = FileAttr {
    size: 4096,
    mtime: 3,
    version: 2,
    is_dir: false,
};

const TAG: WriteTag = WriteTag {
    writer: NodeId(3),
    epoch: Epoch(8),
    wseq: 2,
};

/// Every case: a label, the value, and its bytes.
fn cases() -> Vec<(&'static str, NetMsg, &'static str)> {
    vec![
        (
            "Hello",
            request(RequestBody::Hello { map_epoch: 3 }),
            "0000 05000000 0200000000000000 2a00000000000000 000300000000000000",
        ),
        (
            "KeepAlive",
            request(RequestBody::KeepAlive),
            "0000 05000000 0200000000000000 2a00000000000000 01",
        ),
        (
            "Create",
            request(RequestBody::Create {
                parent: Ino(1),
                name: "a.txt".into(),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 0201000000000000000500612e747874",
        ),
        (
            "Lookup",
            request(RequestBody::Lookup {
                parent: Ino(1),
                name: "b".into(),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 030100000000000000010062",
        ),
        (
            "Mkdir",
            request(RequestBody::Mkdir {
                parent: Ino(1),
                name: "d".into(),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 040100000000000000010064",
        ),
        (
            "ReadDir",
            request(RequestBody::ReadDir { dir: Ino(1) }),
            "0000 05000000 0200000000000000 2a00000000000000 050100000000000000",
        ),
        (
            "Unlink",
            request(RequestBody::Unlink {
                parent: Ino(1),
                name: "u".into(),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 060100000000000000010075",
        ),
        (
            "GetAttr",
            request(RequestBody::GetAttr { ino: Ino(2) }),
            "0000 05000000 0200000000000000 2a00000000000000 070200000000000000",
        ),
        (
            "SetAttr size",
            request(RequestBody::SetAttr {
                ino: Ino(2),
                size: Some(100),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 080200000000000000016400000000000000",
        ),
        (
            "SetAttr no size",
            request(RequestBody::SetAttr {
                ino: Ino(2),
                size: None,
            }),
            "0000 05000000 0200000000000000 2a00000000000000 08020000000000000000",
        ),
        (
            "LockAcquire SharedRead",
            request(RequestBody::LockAcquire {
                ino: Ino(2),
                mode: LockMode::SharedRead,
            }),
            "0000 05000000 0200000000000000 2a00000000000000 09020000000000000000",
        ),
        (
            "LockAcquire Exclusive",
            request(RequestBody::LockAcquire {
                ino: Ino(2),
                mode: LockMode::Exclusive,
            }),
            "0000 05000000 0200000000000000 2a00000000000000 09020000000000000001",
        ),
        (
            "LockRelease",
            request(RequestBody::LockRelease {
                ino: Ino(2),
                epoch: Epoch(4),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 0a02000000000000000400000000000000",
        ),
        (
            "PushAck",
            request(RequestBody::PushAck { push_seq: 77 }),
            "0000 05000000 0200000000000000 2a00000000000000 0b4d00000000000000",
        ),
        (
            "AllocBlocks",
            request(RequestBody::AllocBlocks {
                ino: Ino(2),
                count: 8,
            }),
            "0000 05000000 0200000000000000 2a00000000000000 0c020000000000000008000000",
        ),
        (
            "CommitWrite",
            request(RequestBody::CommitWrite {
                ino: Ino(2),
                new_size: 4096,
            }),
            "0000 05000000 0200000000000000 2a00000000000000 0d02000000000000000010000000000000",
        ),
        (
            "RenameLink",
            request(RequestBody::RenameLink {
                dir: Ino(1),
                name: "mv".into(),
                ino: Ino(9),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 10010000000000000002006d760900000000000000",
        ),
        (
            "RenameUnlink",
            request(RequestBody::RenameUnlink {
                dir: Ino(1),
                name: "old".into(),
            }),
            "0000 05000000 0200000000000000 2a00000000000000 11010000000000000003006f6c64",
        ),
        (
            "Batch request",
            request(RequestBody::Batch(vec![
                RequestBody::GetAttr { ino: Ino(2) },
                RequestBody::KeepAlive,
            ])),
            "0000 05000000 0200000000000000 2a00000000000000 120200000007020000000000000001",
        ),
        (
            "HelloOk",
            reply(ReplyBody::HelloOk {
                session: SessionId(3),
                map_epoch: 1,
            }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 000003000000000000000100000000000000",
        ),
        (
            "Ok",
            reply(ReplyBody::Ok),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0001",
        ),
        (
            "Created",
            reply(ReplyBody::Created { ino: Ino(9) }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 00020900000000000000",
        ),
        (
            "Resolved",
            reply(ReplyBody::Resolved {
                ino: Ino(9),
                attr: ATTR,
            }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0003090000000000000000100000000000000300000000000000020000000000000000",
        ),
        (
            "Attr dir",
            reply(ReplyBody::Attr {
                attr: FileAttr {
                    is_dir: true,
                    ..ATTR
                },
            }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 000400100000000000000300000000000000020000000000000001",
        ),
        (
            "Dir",
            reply(ReplyBody::Dir {
                entries: vec![("x".into(), Ino(1)), ("yz".into(), Ino(2))],
            }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 00050200000001007801000000000000000200797a0200000000000000",
        ),
        (
            "LockGranted",
            reply(ReplyBody::LockGranted {
                ino: Ino(9),
                mode: LockMode::Exclusive,
                epoch: Epoch(12),
                blocks: vec![BlockId(3), BlockId(4)],
                size: 8192,
            }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 00060900000000000000010c0000000000000002000000030000000000000004000000000000000020000000000000",
        ),
        (
            "Allocated",
            reply(ReplyBody::Allocated {
                blocks: vec![BlockId(5)],
            }),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0007010000000500000000000000",
        ),
        (
            "Batch reply",
            reply(ReplyBody::Batch(vec![
                Ok(ReplyBody::Created { ino: Ino(9) }),
                Ok(ReplyBody::Ok),
                Err(FsError::Exists),
            ])),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0009030000000002090000000000000000010101",
        ),
        (
            "NotFound",
            response(ResponseOutcome::Acked(Err(FsError::NotFound))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0100",
        ),
        (
            "Exists",
            response(ResponseOutcome::Acked(Err(FsError::Exists))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0101",
        ),
        (
            "NoSpace",
            response(ResponseOutcome::Acked(Err(FsError::NoSpace))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0102",
        ),
        (
            "NotLocked",
            response(ResponseOutcome::Acked(Err(FsError::NotLocked))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0103",
        ),
        (
            "Invalid",
            response(ResponseOutcome::Acked(Err(FsError::Invalid))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0104",
        ),
        (
            "Unavailable",
            response(ResponseOutcome::Acked(Err(FsError::Unavailable))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0105",
        ),
        (
            "LeaseTimingOut",
            response(ResponseOutcome::Nacked(NackReason::LeaseTimingOut)),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0200",
        ),
        (
            "SessionExpired",
            response(ResponseOutcome::Nacked(NackReason::SessionExpired)),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0201",
        ),
        (
            "StaleSession",
            response(ResponseOutcome::Nacked(NackReason::StaleSession)),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0202",
        ),
        (
            "Recovering",
            response(ResponseOutcome::Nacked(NackReason::Recovering)),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0203",
        ),
        (
            "NotOwner",
            response(ResponseOutcome::Nacked(NackReason::Misrouted(
                RouteError::NotOwner,
            ))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0204",
        ),
        (
            "StaleMap",
            response(ResponseOutcome::Nacked(NackReason::Misrouted(
                RouteError::StaleMap,
            ))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0205",
        ),
        (
            "NotPrimary",
            response(ResponseOutcome::Nacked(NackReason::Misrouted(
                RouteError::NotPrimary,
            ))),
            "0001 05000000 0200000000000000 2a00000000000000 0700000000000000 0206",
        ),
        (
            "Demand",
            push(PushBody::Demand {
                ino: Ino(7),
                mode_needed: LockMode::Exclusive,
                epoch: Epoch(3),
            }),
            "0002 01000000 0400000000000000 0a00000000000000 000700000000000000010300000000000000",
        ),
        ("Invalidate", push(PushBody::Invalidate { ino: Ino(7) }), "0002 01000000 0400000000000000 0a00000000000000 010700000000000000"),
        (
            "ReadBlock",
            NetMsg::San(SanMsg::ReadBlock {
                req_id: 1,
                block: BlockId(2),
            }),
            "0100 01000000000000000200000000000000",
        ),
        (
            "WriteBlock",
            NetMsg::San(SanMsg::WriteBlock {
                req_id: 2,
                block: BlockId(2),
                data: vec![0xab, 0xcd, 0xef],
                tag: TAG,
            }),
            "0101 0200000000000000020000000000000003000000abcdef0300000008000000000000000200000000000000",
        ),
        (
            "ReadResp ok",
            NetMsg::San(SanMsg::ReadResp {
                req_id: 1,
                result: Ok(SanReadOk {
                    data: vec![0x11, 0x22],
                    tag: TAG,
                }),
            }),
            "0102 0100000000000000000200000011220300000008000000000000000200000000000000",
        ),
        (
            "ReadResp Fenced",
            NetMsg::San(SanMsg::ReadResp {
                req_id: 1,
                result: Err(SanError::Fenced),
            }),
            "0102 01000000000000000100",
        ),
        (
            "ReadResp BadAddress",
            NetMsg::San(SanMsg::ReadResp {
                req_id: 1,
                result: Err(SanError::BadAddress),
            }),
            "0102 01000000000000000101",
        ),
        (
            "WriteResp ok",
            NetMsg::San(SanMsg::WriteResp {
                req_id: 2,
                result: Ok(()),
            }),
            "0103 020000000000000000",
        ),
        (
            "WriteResp DeviceError",
            NetMsg::San(SanMsg::WriteResp {
                req_id: 2,
                result: Err(SanError::DeviceError),
            }),
            "0103 02000000000000000102",
        ),
        (
            "FenceCmd Fence",
            NetMsg::San(SanMsg::FenceCmd {
                req_id: 3,
                target: NodeId(7),
                op: FenceOp::Fence,
                range: BlockRange::ALL,
            }),
            "0104 030000000000000007000000000000000000000000ffffffffffffffff",
        ),
        (
            "FenceCmd Unfence",
            NetMsg::San(SanMsg::FenceCmd {
                req_id: 3,
                target: NodeId(7),
                op: FenceOp::Unfence,
                range: BlockRange {
                    start: 64,
                    end: 128,
                },
            }),
            "0104 0300000000000000070000000140000000000000008000000000000000",
        ),
        (
            "FenceResp",
            NetMsg::San(SanMsg::FenceResp { req_id: 3 }),
            "0105 0300000000000000",
        ),
        (
            "Append with snapshot",
            NetMsg::Repl(ReplMsg::Append {
                snap_gen: 3,
                snapshot: Some(vec![9, 9]),
                offset: 0,
                bytes: vec![1],
                durable: 1,
            }),
            "0200 030000000000000001020000000909000000000000000001000000010100000000000000",
        ),
        (
            "Append",
            NetMsg::Repl(ReplMsg::Append {
                snap_gen: 0,
                snapshot: None,
                offset: 128,
                bytes: vec![7, 7, 7],
                durable: 131,
            }),
            "0200 0000000000000000008000000000000000030000000707078300000000000000",
        ),
        (
            "AppendAck",
            NetMsg::Repl(ReplMsg::AppendAck {
                snap_gen: 3,
                durable: 224,
            }),
            "0201 0300000000000000e000000000000000",
        ),
        (
            "Heartbeat",
            NetMsg::Repl(ReplMsg::Heartbeat {
                incarnation: Incarnation(5),
            }),
            "0202 0500000000000000",
        ),
    ]
}

#[test]
fn every_variant_encodes_to_its_pinned_bytes_and_back() {
    let mut wrong = Vec::new();
    for (label, msg, want) in cases() {
        let got = msg.encoded();
        if hex(&got) != hex(&unhex(want)) {
            wrong.push(format!("{label}: encodes to {}", hex(&got)));
            continue;
        }
        let mut bytes = Bytes::from(unhex(want));
        match NetMsg::decode(&mut bytes) {
            Ok(back) if back == msg && bytes.is_empty() => {}
            other => wrong.push(format!(
                "{label}: decodes to {other:?}, {} left",
                bytes.len()
            )),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
