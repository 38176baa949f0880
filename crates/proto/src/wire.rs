//! Compact binary wire codec for the protocol messages.
//!
//! The simulator passes messages as in-memory values, but the real-network
//! binding (`tank-net`) and the codec benchmarks need a byte format. The
//! encoding is a hand-rolled tag/length scheme over [`bytes`]: fixed-width
//! little-endian integers, `u8` enum discriminants, `u16`-prefixed strings,
//! and `u32`-prefixed byte/array payloads. No self-description, no schema
//! evolution — both ends are this crate.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::ids::{BlockId, Epoch, Incarnation, Ino, NodeId, ReqSeq, SessionId, WriteTag};
use crate::lock::LockMode;
use crate::message::{
    CtlMsg, FileAttr, FsError, NackReason, PushBody, ReplyBody, Request, RequestBody, Response,
    ResponseOutcome, RouteError, ServerPush, MAX_BATCH_ELEMS,
};
use crate::repl::ReplMsg;
use crate::san::{BlockRange, FenceOp, SanError, SanMsg, SanReadOk};
use crate::NetMsg;

/// Upper bound on one encoded [`NetMsg`] datagram, and therefore the
/// receive-buffer size every transport endpoint needs: the codec's
/// length prefixes are sanity-bounded well below this, and UDP itself
/// cannot carry more. The net layer's drain path sizes its per-datagram
/// scratch with it.
pub const MAX_DATAGRAM: usize = 64 * 1024;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-message.
    Truncated,
    /// Unknown enum discriminant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u8,
    },
    /// String payload was not UTF-8.
    BadUtf8,
    /// Length prefix exceeded sanity bounds.
    TooLong,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::TooLong => write!(f, "length prefix exceeds bound"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted byte-payload length (defensive bound for the UDP path).
const MAX_BYTES: usize = 1 << 22;
/// Maximum accepted array element count.
const MAX_ELEMS: usize = 1 << 20;

/// Types encodable to the wire format.
pub trait WireEncode {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Encode into a fresh buffer.
    fn encoded(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Types decodable from the wire format.
pub trait WireDecode: Sized {
    /// Decode one value, consuming from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
}

// ---------------------------------------------------------------- helpers

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut Bytes) -> Result<u16, WireError> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, WireError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, WireError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn put_str(buf: &mut BytesMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    let len = get_u16(buf)? as usize;
    need(buf, len)?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Vec<u8>, WireError> {
    let len = get_u32(buf)? as usize;
    if len > MAX_BYTES {
        return Err(WireError::TooLong);
    }
    need(buf, len)?;
    Ok(buf.split_to(len).to_vec())
}

fn put_blocks(buf: &mut BytesMut, blocks: &[BlockId]) {
    buf.put_u32_le(blocks.len() as u32);
    for b in blocks {
        buf.put_u64_le(b.0);
    }
}

fn get_blocks(buf: &mut Bytes) -> Result<Vec<BlockId>, WireError> {
    let n = get_u32(buf)? as usize;
    if n > MAX_ELEMS {
        return Err(WireError::TooLong);
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(BlockId(get_u64(buf)?));
    }
    Ok(v)
}

fn put_tag(buf: &mut BytesMut, tag: &WriteTag) {
    buf.put_u32_le(tag.writer.0);
    buf.put_u64_le(tag.epoch.0);
    buf.put_u64_le(tag.wseq);
}

fn get_tag(buf: &mut Bytes) -> Result<WriteTag, WireError> {
    Ok(WriteTag {
        writer: NodeId(get_u32(buf)?),
        epoch: Epoch(get_u64(buf)?),
        wseq: get_u64(buf)?,
    })
}

fn put_mode(buf: &mut BytesMut, m: LockMode) {
    buf.put_u8(match m {
        LockMode::SharedRead => 0,
        LockMode::Exclusive => 1,
    });
}

fn get_mode(buf: &mut Bytes) -> Result<LockMode, WireError> {
    match get_u8(buf)? {
        0 => Ok(LockMode::SharedRead),
        1 => Ok(LockMode::Exclusive),
        t => Err(WireError::BadTag {
            what: "LockMode",
            tag: t,
        }),
    }
}

fn put_attr(buf: &mut BytesMut, a: &FileAttr) {
    buf.put_u64_le(a.size);
    buf.put_u64_le(a.mtime);
    buf.put_u64_le(a.version);
    buf.put_u8(a.is_dir as u8);
}

fn get_attr(buf: &mut Bytes) -> Result<FileAttr, WireError> {
    Ok(FileAttr {
        size: get_u64(buf)?,
        mtime: get_u64(buf)?,
        version: get_u64(buf)?,
        is_dir: get_u8(buf)? != 0,
    })
}

// ----------------------------------------------------------- RequestBody

impl WireEncode for RequestBody {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RequestBody::Hello { map_epoch } => {
                buf.put_u8(0);
                buf.put_u64_le(*map_epoch);
            }
            RequestBody::KeepAlive => buf.put_u8(1),
            RequestBody::Create { parent, name } => {
                buf.put_u8(2);
                buf.put_u64_le(parent.0);
                put_str(buf, name);
            }
            RequestBody::Lookup { parent, name } => {
                buf.put_u8(3);
                buf.put_u64_le(parent.0);
                put_str(buf, name);
            }
            RequestBody::Mkdir { parent, name } => {
                buf.put_u8(4);
                buf.put_u64_le(parent.0);
                put_str(buf, name);
            }
            RequestBody::ReadDir { dir } => {
                buf.put_u8(5);
                buf.put_u64_le(dir.0);
            }
            RequestBody::Unlink { parent, name } => {
                buf.put_u8(6);
                buf.put_u64_le(parent.0);
                put_str(buf, name);
            }
            RequestBody::GetAttr { ino } => {
                buf.put_u8(7);
                buf.put_u64_le(ino.0);
            }
            RequestBody::SetAttr { ino, size } => {
                buf.put_u8(8);
                buf.put_u64_le(ino.0);
                match size {
                    Some(s) => {
                        buf.put_u8(1);
                        buf.put_u64_le(*s);
                    }
                    None => buf.put_u8(0),
                }
            }
            RequestBody::LockAcquire { ino, mode } => {
                buf.put_u8(9);
                buf.put_u64_le(ino.0);
                put_mode(buf, *mode);
            }
            RequestBody::LockRelease { ino, epoch } => {
                buf.put_u8(10);
                buf.put_u64_le(ino.0);
                buf.put_u64_le(epoch.0);
            }
            RequestBody::PushAck { push_seq } => {
                buf.put_u8(11);
                buf.put_u64_le(*push_seq);
            }
            RequestBody::AllocBlocks { ino, count } => {
                buf.put_u8(12);
                buf.put_u64_le(ino.0);
                buf.put_u32_le(*count);
            }
            RequestBody::CommitWrite { ino, new_size } => {
                buf.put_u8(13);
                buf.put_u64_le(ino.0);
                buf.put_u64_le(*new_size);
            }
            RequestBody::RenameLink { dir, name, ino } => {
                buf.put_u8(16);
                buf.put_u64_le(dir.0);
                put_str(buf, name);
                buf.put_u64_le(ino.0);
            }
            RequestBody::RenameUnlink { dir, name } => {
                buf.put_u8(17);
                buf.put_u64_le(dir.0);
                put_str(buf, name);
            }
            RequestBody::Batch(elems) => {
                debug_assert!(elems.len() <= MAX_BATCH_ELEMS, "batch over element cap");
                debug_assert!(
                    elems.iter().all(|e| !matches!(e, RequestBody::Batch(_))),
                    "nested batch"
                );
                buf.put_u8(18);
                buf.put_u32_le(elems.len() as u32);
                for e in elems {
                    e.encode(buf);
                }
            }
        }
    }
}

impl WireDecode for RequestBody {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_u8(buf)? {
            0 => RequestBody::Hello {
                map_epoch: get_u64(buf)?,
            },
            1 => RequestBody::KeepAlive,
            2 => RequestBody::Create {
                parent: Ino(get_u64(buf)?),
                name: get_str(buf)?,
            },
            3 => RequestBody::Lookup {
                parent: Ino(get_u64(buf)?),
                name: get_str(buf)?,
            },
            4 => RequestBody::Mkdir {
                parent: Ino(get_u64(buf)?),
                name: get_str(buf)?,
            },
            5 => RequestBody::ReadDir {
                dir: Ino(get_u64(buf)?),
            },
            6 => RequestBody::Unlink {
                parent: Ino(get_u64(buf)?),
                name: get_str(buf)?,
            },
            7 => RequestBody::GetAttr {
                ino: Ino(get_u64(buf)?),
            },
            8 => {
                let ino = Ino(get_u64(buf)?);
                let size = if get_u8(buf)? != 0 {
                    Some(get_u64(buf)?)
                } else {
                    None
                };
                RequestBody::SetAttr { ino, size }
            }
            9 => RequestBody::LockAcquire {
                ino: Ino(get_u64(buf)?),
                mode: get_mode(buf)?,
            },
            10 => RequestBody::LockRelease {
                ino: Ino(get_u64(buf)?),
                epoch: Epoch(get_u64(buf)?),
            },
            11 => RequestBody::PushAck {
                push_seq: get_u64(buf)?,
            },
            12 => RequestBody::AllocBlocks {
                ino: Ino(get_u64(buf)?),
                count: get_u32(buf)?,
            },
            13 => RequestBody::CommitWrite {
                ino: Ino(get_u64(buf)?),
                new_size: get_u64(buf)?,
            },
            // Tags 14 and 15 are retired (never reuse them): they fall to
            // the catch-all below.
            16 => RequestBody::RenameLink {
                dir: Ino(get_u64(buf)?),
                name: get_str(buf)?,
                ino: Ino(get_u64(buf)?),
            },
            17 => RequestBody::RenameUnlink {
                dir: Ino(get_u64(buf)?),
                name: get_str(buf)?,
            },
            18 => {
                let n = get_u32(buf)? as usize;
                if n > MAX_BATCH_ELEMS {
                    return Err(WireError::TooLong);
                }
                let mut elems = Vec::with_capacity(n);
                for _ in 0..n {
                    let e = RequestBody::decode(buf)?;
                    if matches!(e, RequestBody::Batch(_)) {
                        // Nesting is structurally forbidden: one batch is
                        // one message, and recursion would let a datagram
                        // amplify its own decode cost.
                        return Err(WireError::BadTag {
                            what: "RequestBody (nested batch)",
                            tag: 18,
                        });
                    }
                    elems.push(e);
                }
                RequestBody::Batch(elems)
            }
            t => {
                return Err(WireError::BadTag {
                    what: "RequestBody",
                    tag: t,
                })
            }
        })
    }
}

// ------------------------------------------------------------- ReplyBody

impl WireEncode for ReplyBody {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ReplyBody::HelloOk { session, map_epoch } => {
                buf.put_u8(0);
                buf.put_u64_le(session.0);
                buf.put_u64_le(*map_epoch);
            }
            ReplyBody::Ok => buf.put_u8(1),
            ReplyBody::Created { ino } => {
                buf.put_u8(2);
                buf.put_u64_le(ino.0);
            }
            ReplyBody::Resolved { ino, attr } => {
                buf.put_u8(3);
                buf.put_u64_le(ino.0);
                put_attr(buf, attr);
            }
            ReplyBody::Attr { attr } => {
                buf.put_u8(4);
                put_attr(buf, attr);
            }
            ReplyBody::Dir { entries } => {
                buf.put_u8(5);
                buf.put_u32_le(entries.len() as u32);
                for (name, ino) in entries {
                    put_str(buf, name);
                    buf.put_u64_le(ino.0);
                }
            }
            ReplyBody::LockGranted {
                ino,
                mode,
                epoch,
                blocks,
                size,
            } => {
                buf.put_u8(6);
                buf.put_u64_le(ino.0);
                put_mode(buf, *mode);
                buf.put_u64_le(epoch.0);
                put_blocks(buf, blocks);
                buf.put_u64_le(*size);
            }
            ReplyBody::Allocated { blocks } => {
                buf.put_u8(7);
                put_blocks(buf, blocks);
            }
            ReplyBody::Batch(outcomes) => {
                debug_assert!(outcomes.len() <= MAX_BATCH_ELEMS, "batch over element cap");
                buf.put_u8(9);
                buf.put_u32_le(outcomes.len() as u32);
                for o in outcomes {
                    match o {
                        Ok(body) => {
                            debug_assert!(
                                !matches!(body, ReplyBody::Batch(_)),
                                "nested batch reply"
                            );
                            buf.put_u8(0);
                            body.encode(buf);
                        }
                        Err(e) => {
                            buf.put_u8(1);
                            buf.put_u8(fs_error_tag(*e));
                        }
                    }
                }
            }
        }
    }
}

impl WireDecode for ReplyBody {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_u8(buf)? {
            0 => ReplyBody::HelloOk {
                session: SessionId(get_u64(buf)?),
                map_epoch: get_u64(buf)?,
            },
            1 => ReplyBody::Ok,
            2 => ReplyBody::Created {
                ino: Ino(get_u64(buf)?),
            },
            3 => ReplyBody::Resolved {
                ino: Ino(get_u64(buf)?),
                attr: get_attr(buf)?,
            },
            4 => ReplyBody::Attr {
                attr: get_attr(buf)?,
            },
            5 => {
                let n = get_u32(buf)? as usize;
                if n > MAX_ELEMS {
                    return Err(WireError::TooLong);
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = get_str(buf)?;
                    entries.push((name, Ino(get_u64(buf)?)));
                }
                ReplyBody::Dir { entries }
            }
            6 => ReplyBody::LockGranted {
                ino: Ino(get_u64(buf)?),
                mode: get_mode(buf)?,
                epoch: Epoch(get_u64(buf)?),
                blocks: get_blocks(buf)?,
                size: get_u64(buf)?,
            },
            7 => ReplyBody::Allocated {
                blocks: get_blocks(buf)?,
            },
            // Tag 8 is retired (never reuse it): it falls to the catch-all
            // below.
            9 => {
                let n = get_u32(buf)? as usize;
                if n > MAX_BATCH_ELEMS {
                    return Err(WireError::TooLong);
                }
                let mut outcomes = Vec::with_capacity(n);
                for _ in 0..n {
                    match get_u8(buf)? {
                        0 => {
                            let body = ReplyBody::decode(buf)?;
                            if matches!(body, ReplyBody::Batch(_)) {
                                return Err(WireError::BadTag {
                                    what: "ReplyBody (nested batch)",
                                    tag: 9,
                                });
                            }
                            outcomes.push(Ok(body));
                        }
                        1 => outcomes.push(Err(fs_error_from(get_u8(buf)?)?)),
                        t => {
                            return Err(WireError::BadTag {
                                what: "BatchOutcome",
                                tag: t,
                            })
                        }
                    }
                }
                ReplyBody::Batch(outcomes)
            }
            t => {
                return Err(WireError::BadTag {
                    what: "ReplyBody",
                    tag: t,
                })
            }
        })
    }
}

// -------------------------------------------------------- errors/outcomes

fn fs_error_tag(e: FsError) -> u8 {
    match e {
        FsError::NotFound => 0,
        FsError::Exists => 1,
        FsError::NoSpace => 2,
        FsError::NotLocked => 3,
        FsError::Invalid => 4,
        FsError::Unavailable => 5,
    }
}

fn fs_error_from(tag: u8) -> Result<FsError, WireError> {
    Ok(match tag {
        0 => FsError::NotFound,
        1 => FsError::Exists,
        2 => FsError::NoSpace,
        3 => FsError::NotLocked,
        4 => FsError::Invalid,
        5 => FsError::Unavailable,
        t => {
            return Err(WireError::BadTag {
                what: "FsError",
                tag: t,
            })
        }
    })
}

fn nack_tag(n: NackReason) -> u8 {
    match n {
        NackReason::LeaseTimingOut => 0,
        NackReason::SessionExpired => 1,
        NackReason::StaleSession => 2,
        NackReason::Recovering => 3,
        NackReason::Misrouted(RouteError::NotOwner) => 4,
        NackReason::Misrouted(RouteError::StaleMap) => 5,
        NackReason::Misrouted(RouteError::NotPrimary) => 6,
    }
}

fn nack_from(tag: u8) -> Result<NackReason, WireError> {
    Ok(match tag {
        0 => NackReason::LeaseTimingOut,
        1 => NackReason::SessionExpired,
        2 => NackReason::StaleSession,
        3 => NackReason::Recovering,
        4 => NackReason::Misrouted(RouteError::NotOwner),
        5 => NackReason::Misrouted(RouteError::StaleMap),
        6 => NackReason::Misrouted(RouteError::NotPrimary),
        t => {
            return Err(WireError::BadTag {
                what: "NackReason",
                tag: t,
            })
        }
    })
}

// --------------------------------------------------------------- CtlMsg

fn put_response(buf: &mut BytesMut, r: &Response) {
    buf.put_u8(1);
    buf.put_u32_le(r.dst.0);
    buf.put_u64_le(r.session.0);
    buf.put_u64_le(r.seq.0);
    buf.put_u64_le(r.incarnation.0);
    match &r.outcome {
        ResponseOutcome::Acked(Ok(body)) => {
            buf.put_u8(0);
            body.encode(buf);
        }
        ResponseOutcome::Acked(Err(e)) => {
            buf.put_u8(1);
            buf.put_u8(fs_error_tag(*e));
        }
        ResponseOutcome::Nacked(n) => {
            buf.put_u8(2);
            buf.put_u8(nack_tag(*n));
        }
    }
}

impl WireEncode for CtlMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            CtlMsg::Request(r) => {
                buf.put_u8(0);
                buf.put_u32_le(r.src.0);
                buf.put_u64_le(r.session.0);
                buf.put_u64_le(r.seq.0);
                r.body.encode(buf);
            }
            CtlMsg::Response(r) => put_response(buf, r),
            CtlMsg::Push(p) => {
                buf.put_u8(2);
                buf.put_u32_le(p.dst.0);
                buf.put_u64_le(p.session.0);
                buf.put_u64_le(p.push_seq);
                match &p.body {
                    PushBody::Demand {
                        ino,
                        mode_needed,
                        epoch,
                    } => {
                        buf.put_u8(0);
                        buf.put_u64_le(ino.0);
                        put_mode(buf, *mode_needed);
                        buf.put_u64_le(epoch.0);
                    }
                    PushBody::Invalidate { ino } => {
                        buf.put_u8(1);
                        buf.put_u64_le(ino.0);
                    }
                }
            }
        }
    }
}

impl WireDecode for CtlMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_u8(buf)? {
            0 => CtlMsg::Request(Request {
                src: NodeId(get_u32(buf)?),
                session: SessionId(get_u64(buf)?),
                seq: ReqSeq(get_u64(buf)?),
                body: RequestBody::decode(buf)?,
            }),
            1 => {
                let dst = NodeId(get_u32(buf)?);
                let session = SessionId(get_u64(buf)?);
                let seq = ReqSeq(get_u64(buf)?);
                let incarnation = Incarnation(get_u64(buf)?);
                let outcome = match get_u8(buf)? {
                    0 => ResponseOutcome::Acked(Ok(ReplyBody::decode(buf)?)),
                    1 => ResponseOutcome::Acked(Err(fs_error_from(get_u8(buf)?)?)),
                    2 => ResponseOutcome::Nacked(nack_from(get_u8(buf)?)?),
                    t => {
                        return Err(WireError::BadTag {
                            what: "ResponseOutcome",
                            tag: t,
                        })
                    }
                };
                CtlMsg::Response(Response {
                    dst,
                    session,
                    seq,
                    incarnation,
                    outcome,
                })
            }
            2 => {
                let dst = NodeId(get_u32(buf)?);
                let session = SessionId(get_u64(buf)?);
                let push_seq = get_u64(buf)?;
                let body = match get_u8(buf)? {
                    0 => PushBody::Demand {
                        ino: Ino(get_u64(buf)?),
                        mode_needed: get_mode(buf)?,
                        epoch: Epoch(get_u64(buf)?),
                    },
                    1 => PushBody::Invalidate {
                        ino: Ino(get_u64(buf)?),
                    },
                    t => {
                        return Err(WireError::BadTag {
                            what: "PushBody",
                            tag: t,
                        })
                    }
                };
                CtlMsg::Push(ServerPush {
                    dst,
                    session,
                    push_seq,
                    body,
                })
            }
            t => {
                return Err(WireError::BadTag {
                    what: "CtlMsg",
                    tag: t,
                })
            }
        })
    }
}

// ---------------------------------------------------------------- SanMsg

impl WireEncode for SanMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SanMsg::ReadBlock { req_id, block } => {
                buf.put_u8(0);
                buf.put_u64_le(*req_id);
                buf.put_u64_le(block.0);
            }
            SanMsg::WriteBlock {
                req_id,
                block,
                data,
                tag,
            } => {
                buf.put_u8(1);
                buf.put_u64_le(*req_id);
                buf.put_u64_le(block.0);
                put_bytes(buf, data);
                put_tag(buf, tag);
            }
            SanMsg::ReadResp { req_id, result } => {
                buf.put_u8(2);
                buf.put_u64_le(*req_id);
                match result {
                    Ok(ok) => {
                        buf.put_u8(0);
                        put_bytes(buf, &ok.data);
                        put_tag(buf, &ok.tag);
                    }
                    Err(e) => {
                        buf.put_u8(1);
                        buf.put_u8(san_error_tag(*e));
                    }
                }
            }
            SanMsg::WriteResp { req_id, result } => {
                buf.put_u8(3);
                buf.put_u64_le(*req_id);
                match result {
                    Ok(()) => buf.put_u8(0),
                    Err(e) => {
                        buf.put_u8(1);
                        buf.put_u8(san_error_tag(*e));
                    }
                }
            }
            SanMsg::FenceCmd {
                req_id,
                target,
                op,
                range,
            } => {
                buf.put_u8(4);
                buf.put_u64_le(*req_id);
                buf.put_u32_le(target.0);
                buf.put_u8(matches!(op, FenceOp::Unfence) as u8);
                buf.put_u64_le(range.start);
                buf.put_u64_le(range.end);
            }
            SanMsg::FenceResp { req_id } => {
                buf.put_u8(5);
                buf.put_u64_le(*req_id);
            }
        }
    }
}

fn san_error_tag(e: SanError) -> u8 {
    match e {
        SanError::Fenced => 0,
        SanError::BadAddress => 1,
        SanError::DeviceError => 2,
    }
}

fn san_error_from(tag: u8) -> Result<SanError, WireError> {
    Ok(match tag {
        0 => SanError::Fenced,
        1 => SanError::BadAddress,
        2 => SanError::DeviceError,
        t => {
            return Err(WireError::BadTag {
                what: "SanError",
                tag: t,
            })
        }
    })
}

impl WireDecode for SanMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_u8(buf)? {
            0 => SanMsg::ReadBlock {
                req_id: get_u64(buf)?,
                block: BlockId(get_u64(buf)?),
            },
            1 => SanMsg::WriteBlock {
                req_id: get_u64(buf)?,
                block: BlockId(get_u64(buf)?),
                data: get_bytes(buf)?,
                tag: get_tag(buf)?,
            },
            2 => {
                let req_id = get_u64(buf)?;
                let result = match get_u8(buf)? {
                    0 => Ok(SanReadOk {
                        data: get_bytes(buf)?,
                        tag: get_tag(buf)?,
                    }),
                    1 => Err(san_error_from(get_u8(buf)?)?),
                    t => {
                        return Err(WireError::BadTag {
                            what: "ReadResp",
                            tag: t,
                        })
                    }
                };
                SanMsg::ReadResp { req_id, result }
            }
            3 => {
                let req_id = get_u64(buf)?;
                let result = match get_u8(buf)? {
                    0 => Ok(()),
                    1 => Err(san_error_from(get_u8(buf)?)?),
                    t => {
                        return Err(WireError::BadTag {
                            what: "WriteResp",
                            tag: t,
                        })
                    }
                };
                SanMsg::WriteResp { req_id, result }
            }
            4 => SanMsg::FenceCmd {
                req_id: get_u64(buf)?,
                target: NodeId(get_u32(buf)?),
                op: if get_u8(buf)? != 0 {
                    FenceOp::Unfence
                } else {
                    FenceOp::Fence
                },
                range: BlockRange {
                    start: get_u64(buf)?,
                    end: get_u64(buf)?,
                },
            },
            5 => SanMsg::FenceResp {
                req_id: get_u64(buf)?,
            },
            t => {
                return Err(WireError::BadTag {
                    what: "SanMsg",
                    tag: t,
                })
            }
        })
    }
}

// ---------------------------------------------------------------- ReplMsg

impl WireEncode for ReplMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ReplMsg::Append {
                snap_gen,
                snapshot,
                offset,
                bytes,
                durable,
            } => {
                buf.put_u8(0);
                buf.put_u64_le(*snap_gen);
                match snapshot {
                    Some(s) => {
                        buf.put_u8(1);
                        put_bytes(buf, s);
                    }
                    None => buf.put_u8(0),
                }
                buf.put_u64_le(*offset);
                put_bytes(buf, bytes);
                buf.put_u64_le(*durable);
            }
            ReplMsg::AppendAck { snap_gen, durable } => {
                buf.put_u8(1);
                buf.put_u64_le(*snap_gen);
                buf.put_u64_le(*durable);
            }
            ReplMsg::Heartbeat { incarnation } => {
                buf.put_u8(2);
                buf.put_u64_le(incarnation.0);
            }
        }
    }
}

impl WireDecode for ReplMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_u8(buf)? {
            0 => {
                let snap_gen = get_u64(buf)?;
                let snapshot = match get_u8(buf)? {
                    0 => None,
                    1 => Some(get_bytes(buf)?),
                    t => {
                        return Err(WireError::BadTag {
                            what: "ReplMsg snapshot flag",
                            tag: t,
                        })
                    }
                };
                ReplMsg::Append {
                    snap_gen,
                    snapshot,
                    offset: get_u64(buf)?,
                    bytes: get_bytes(buf)?,
                    durable: get_u64(buf)?,
                }
            }
            1 => ReplMsg::AppendAck {
                snap_gen: get_u64(buf)?,
                durable: get_u64(buf)?,
            },
            2 => ReplMsg::Heartbeat {
                incarnation: Incarnation(get_u64(buf)?),
            },
            t => {
                return Err(WireError::BadTag {
                    what: "ReplMsg",
                    tag: t,
                })
            }
        })
    }
}

// ---------------------------------------------------------------- NetMsg

impl WireEncode for NetMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            NetMsg::Ctl(m) => {
                buf.put_u8(0);
                m.encode(buf);
            }
            NetMsg::San(m) => {
                buf.put_u8(1);
                m.encode(buf);
            }
            NetMsg::Repl(m) => {
                buf.put_u8(2);
                m.encode(buf);
            }
        }
    }
}

impl WireDecode for NetMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(match get_u8(buf)? {
            0 => NetMsg::Ctl(CtlMsg::decode(buf)?),
            1 => NetMsg::San(SanMsg::decode(buf)?),
            2 => NetMsg::Repl(ReplMsg::decode(buf)?),
            t => {
                return Err(WireError::BadTag {
                    what: "NetMsg",
                    tag: t,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: NetMsg) {
        let mut enc = msg.encoded();
        let dec = NetMsg::decode(&mut enc).expect("decode");
        assert_eq!(dec, msg);
        assert_eq!(enc.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn roundtrip_requests() {
        let bodies = vec![
            RequestBody::Hello { map_epoch: 3 },
            RequestBody::KeepAlive,
            RequestBody::Create {
                parent: Ino(1),
                name: "a.txt".into(),
            },
            RequestBody::Lookup {
                parent: Ino(1),
                name: "b".into(),
            },
            RequestBody::Mkdir {
                parent: Ino(1),
                name: "d".into(),
            },
            RequestBody::ReadDir { dir: Ino(1) },
            RequestBody::Unlink {
                parent: Ino(1),
                name: "a.txt".into(),
            },
            RequestBody::GetAttr { ino: Ino(2) },
            RequestBody::SetAttr {
                ino: Ino(2),
                size: Some(100),
            },
            RequestBody::SetAttr {
                ino: Ino(2),
                size: None,
            },
            RequestBody::LockAcquire {
                ino: Ino(2),
                mode: LockMode::Exclusive,
            },
            RequestBody::LockRelease {
                ino: Ino(2),
                epoch: Epoch(4),
            },
            RequestBody::PushAck { push_seq: 77 },
            RequestBody::AllocBlocks {
                ino: Ino(2),
                count: 8,
            },
            RequestBody::CommitWrite {
                ino: Ino(2),
                new_size: 4096,
            },
            RequestBody::RenameLink {
                dir: Ino(1),
                name: "moved".into(),
                ino: Ino(9),
            },
            RequestBody::RenameUnlink {
                dir: Ino(1),
                name: "old".into(),
            },
            RequestBody::Batch(vec![]),
            RequestBody::Batch(vec![
                RequestBody::Lookup {
                    parent: Ino(1),
                    name: "b".into(),
                },
                RequestBody::GetAttr { ino: Ino(2) },
                RequestBody::LockRelease {
                    ino: Ino(2),
                    epoch: Epoch(4),
                },
                RequestBody::CommitWrite {
                    ino: Ino(2),
                    new_size: 4096,
                },
            ]),
        ];
        for body in bodies {
            roundtrip(NetMsg::Ctl(CtlMsg::Request(Request {
                src: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                body,
            })));
        }
    }

    #[test]
    fn roundtrip_responses() {
        let outcomes = vec![
            ResponseOutcome::Acked(Ok(ReplyBody::HelloOk {
                session: SessionId(3),
                map_epoch: 1,
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
            ResponseOutcome::Acked(Ok(ReplyBody::Created { ino: Ino(9) })),
            ResponseOutcome::Acked(Ok(ReplyBody::Resolved {
                ino: Ino(9),
                attr: FileAttr {
                    size: 1,
                    mtime: 2,
                    version: 3,
                    is_dir: false,
                },
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Attr {
                attr: FileAttr {
                    size: 0,
                    mtime: 0,
                    version: 1,
                    is_dir: true,
                },
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Dir {
                entries: vec![("x".into(), Ino(1)), ("y".into(), Ino(2))],
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::LockGranted {
                ino: Ino(9),
                mode: LockMode::SharedRead,
                epoch: Epoch(12),
                blocks: vec![BlockId(3), BlockId(4)],
                size: 8192,
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Allocated {
                blocks: vec![BlockId(5)],
            })),
            ResponseOutcome::Acked(Ok(ReplyBody::Batch(vec![]))),
            ResponseOutcome::Acked(Ok(ReplyBody::Batch(vec![
                Ok(ReplyBody::Resolved {
                    ino: Ino(9),
                    attr: FileAttr {
                        size: 1,
                        mtime: 2,
                        version: 3,
                        is_dir: false,
                    },
                }),
                Ok(ReplyBody::Ok),
                Err(FsError::NotFound),
            ]))),
            ResponseOutcome::Acked(Err(FsError::NotFound)),
            ResponseOutcome::Acked(Err(FsError::Unavailable)),
            ResponseOutcome::Nacked(NackReason::LeaseTimingOut),
            ResponseOutcome::Nacked(NackReason::SessionExpired),
            ResponseOutcome::Nacked(NackReason::StaleSession),
            ResponseOutcome::Nacked(NackReason::Recovering),
            ResponseOutcome::Nacked(NackReason::Misrouted(RouteError::NotOwner)),
            ResponseOutcome::Nacked(NackReason::Misrouted(RouteError::StaleMap)),
            ResponseOutcome::Nacked(NackReason::Misrouted(RouteError::NotPrimary)),
        ];
        for outcome in outcomes {
            let resp = Response {
                dst: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                incarnation: Incarnation(7),
                outcome,
            };
            roundtrip(NetMsg::Ctl(CtlMsg::Response(resp)));
        }
    }

    #[test]
    fn roundtrip_pushes() {
        for body in [
            PushBody::Demand {
                ino: Ino(7),
                mode_needed: LockMode::Exclusive,
                epoch: Epoch(3),
            },
            PushBody::Invalidate { ino: Ino(7) },
        ] {
            roundtrip(NetMsg::Ctl(CtlMsg::Push(ServerPush {
                dst: NodeId(1),
                session: SessionId(4),
                push_seq: 10,
                body,
            })));
        }
    }

    #[test]
    fn roundtrip_san() {
        let tag = WriteTag {
            writer: NodeId(3),
            epoch: Epoch(8),
            wseq: 2,
        };
        let msgs = vec![
            SanMsg::ReadBlock {
                req_id: 1,
                block: BlockId(2),
            },
            SanMsg::WriteBlock {
                req_id: 2,
                block: BlockId(2),
                data: vec![1; 512],
                tag,
            },
            SanMsg::ReadResp {
                req_id: 1,
                result: Ok(SanReadOk {
                    data: vec![1; 512],
                    tag,
                }),
            },
            SanMsg::ReadResp {
                req_id: 1,
                result: Err(SanError::Fenced),
            },
            SanMsg::WriteResp {
                req_id: 2,
                result: Ok(()),
            },
            SanMsg::WriteResp {
                req_id: 2,
                result: Err(SanError::DeviceError),
            },
            SanMsg::FenceCmd {
                req_id: 3,
                target: NodeId(7),
                op: FenceOp::Fence,
                range: BlockRange::ALL,
            },
            SanMsg::FenceCmd {
                req_id: 3,
                target: NodeId(7),
                op: FenceOp::Unfence,
                range: BlockRange {
                    start: 64,
                    end: 128,
                },
            },
            SanMsg::FenceResp { req_id: 3 },
        ];
        for m in msgs {
            roundtrip(NetMsg::San(m));
        }
    }

    #[test]
    fn roundtrip_repl() {
        let msgs = vec![
            ReplMsg::Append {
                snap_gen: 0,
                snapshot: None,
                offset: 128,
                bytes: vec![7; 96],
                durable: 224,
            },
            ReplMsg::Append {
                snap_gen: 3,
                snapshot: Some(vec![9; 256]),
                offset: 0,
                bytes: Vec::new(),
                durable: 0,
            },
            ReplMsg::AppendAck {
                snap_gen: 3,
                durable: 224,
            },
            ReplMsg::Heartbeat {
                incarnation: Incarnation(5),
            },
        ];
        for m in msgs {
            roundtrip(NetMsg::Repl(m));
        }
    }

    #[test]
    fn truncated_repl_is_an_error_not_a_panic() {
        let msg = NetMsg::Repl(ReplMsg::Append {
            snap_gen: 2,
            snapshot: Some(vec![1, 2, 3]),
            offset: 4,
            bytes: vec![5, 6],
            durable: 6,
        });
        let mut enc = BytesMut::new();
        msg.encode(&mut enc);
        let full = enc.freeze();
        for cut in 0..full.len() {
            let mut trunc = full.slice(0..cut);
            assert!(
                NetMsg::decode(&mut trunc).is_err(),
                "decoded from a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let msg = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(5),
            session: SessionId(2),
            seq: ReqSeq(42),
            body: RequestBody::Create {
                parent: Ino(1),
                name: "hello".into(),
            },
        }));
        let full = msg.encoded();
        for cut in 0..full.len() {
            let mut trunc = full.slice(0..cut);
            assert!(
                NetMsg::decode(&mut trunc).is_err(),
                "decoding {cut}/{} bytes must fail",
                full.len()
            );
        }
    }

    #[test]
    fn truncated_batch_is_an_error_not_a_panic() {
        let msg = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(5),
            session: SessionId(2),
            seq: ReqSeq(42),
            body: RequestBody::Batch(vec![
                RequestBody::GetAttr { ino: Ino(1) },
                RequestBody::Lookup {
                    parent: Ino(1),
                    name: "hello".into(),
                },
                RequestBody::LockRelease {
                    ino: Ino(1),
                    epoch: Epoch(3),
                },
            ]),
        }));
        let full = msg.encoded();
        for cut in 0..full.len() {
            let mut trunc = full.slice(0..cut);
            assert!(
                NetMsg::decode(&mut trunc).is_err(),
                "decoding {cut}/{} bytes must fail",
                full.len()
            );
        }
    }

    #[test]
    fn nested_batch_is_rejected_on_decode() {
        // Hand-craft a batch whose single element is itself a batch; the
        // encoder debug-asserts against this, so build the bytes directly.
        let mut buf = BytesMut::new();
        buf.put_u8(18); // outer Batch
        buf.put_u32_le(1);
        buf.put_u8(18); // inner Batch
        buf.put_u32_le(0);
        let mut bytes = buf.freeze();
        match RequestBody::decode(&mut bytes) {
            Err(WireError::BadTag { what, tag: 18 }) => {
                assert!(what.contains("nested"), "got {what}");
            }
            other => panic!("expected nested-batch BadTag, got {other:?}"),
        }

        let mut buf = BytesMut::new();
        buf.put_u8(9); // outer reply Batch
        buf.put_u32_le(1);
        buf.put_u8(0); // Ok element...
        buf.put_u8(9); // ...that is itself a batch
        buf.put_u32_le(0);
        let mut bytes = buf.freeze();
        match ReplyBody::decode(&mut bytes) {
            Err(WireError::BadTag { what, tag: 9 }) => {
                assert!(what.contains("nested"), "got {what}");
            }
            other => panic!("expected nested-batch BadTag, got {other:?}"),
        }
    }

    #[test]
    fn oversized_batch_count_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(18);
        buf.put_u32_le((MAX_BATCH_ELEMS + 1) as u32);
        let mut bytes = buf.freeze();
        assert_eq!(RequestBody::decode(&mut bytes), Err(WireError::TooLong));

        let mut buf = BytesMut::new();
        buf.put_u8(9);
        buf.put_u32_le(u32::MAX);
        let mut bytes = buf.freeze();
        assert_eq!(ReplyBody::decode(&mut bytes), Err(WireError::TooLong));
    }

    #[test]
    fn retired_tags_are_rejected() {
        // Request tags 14 / 15 and reply tag 8 once carried function-shipped
        // data. Patch the body tag (the last byte) of a well-formed message
        // and append what used to be a valid payload.
        let patched = |msg: CtlMsg, tag: u8| {
            let mut bytes = NetMsg::Ctl(msg).encoded().to_vec();
            *bytes.last_mut().expect("non-empty encoding") = tag;
            bytes.extend_from_slice(&[0u8; 24]);
            NetMsg::decode(&mut Bytes::from(bytes))
        };
        let request = |body| {
            CtlMsg::Request(Request {
                src: NodeId(5),
                session: SessionId(2),
                seq: ReqSeq(42),
                body,
            })
        };
        let bad_tag = |what, tag| Err(WireError::BadTag { what, tag });
        for tag in [14u8, 15] {
            let single = request(RequestBody::KeepAlive);
            assert_eq!(patched(single, tag), bad_tag("RequestBody", tag));
            // One retired element poisons the whole batch.
            let elems = vec![RequestBody::GetAttr { ino: Ino(1) }, RequestBody::KeepAlive];
            let batch = request(RequestBody::Batch(elems));
            assert_eq!(patched(batch, tag), bad_tag("RequestBody", tag));
        }
        let response = CtlMsg::Response(Response {
            dst: NodeId(5),
            session: SessionId(2),
            seq: ReqSeq(42),
            incarnation: Incarnation(7),
            outcome: ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
        });
        assert_eq!(patched(response, 8), bad_tag("ReplyBody", 8));
    }

    #[test]
    fn bad_tag_reports_enum() {
        let mut buf = Bytes::from_static(&[9u8]);
        match NetMsg::decode(&mut buf) {
            Err(WireError::BadTag { what, tag }) => {
                assert_eq!(what, "NetMsg");
                assert_eq!(tag, 9);
            }
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    mod batch_props {
        use super::*;
        use proptest::collection::vec as pvec;
        use proptest::prelude::*;

        /// Arbitrary batchable request elements (all fixed-size and
        /// string-carrying shapes the coalescing queue actually folds).
        fn elem() -> impl Strategy<Value = RequestBody> {
            prop_oneof![
                Just(RequestBody::KeepAlive),
                (any::<u64>(), "[a-z0-9._-]{1,12}").prop_map(|(p, name)| {
                    RequestBody::Create {
                        parent: Ino(p),
                        name,
                    }
                }),
                (any::<u64>(), "[a-z0-9._-]{1,12}").prop_map(|(p, name)| {
                    RequestBody::Lookup {
                        parent: Ino(p),
                        name,
                    }
                }),
                (any::<u64>(), "[a-z0-9._-]{1,12}").prop_map(|(p, name)| {
                    RequestBody::Unlink {
                        parent: Ino(p),
                        name,
                    }
                }),
                any::<u64>().prop_map(|i| RequestBody::GetAttr { ino: Ino(i) }),
                any::<u64>().prop_map(|d| RequestBody::ReadDir { dir: Ino(d) }),
                (any::<u64>(), any::<u64>()).prop_map(|(i, e)| RequestBody::LockRelease {
                    ino: Ino(i),
                    epoch: Epoch(e),
                }),
                (any::<u64>(), any::<u64>()).prop_map(|(i, s)| RequestBody::CommitWrite {
                    ino: Ino(i),
                    new_size: s,
                }),
                (any::<u64>(), any::<u32>()).prop_map(|(i, c)| RequestBody::AllocBlocks {
                    ino: Ino(i),
                    count: c,
                }),
                any::<u64>().prop_map(|s| RequestBody::PushAck { push_seq: s }),
            ]
        }

        /// Arbitrary per-element batch outcomes, Ok and Err alike.
        fn outcome() -> impl Strategy<Value = Result<ReplyBody, FsError>> {
            prop_oneof![
                Just(Ok(ReplyBody::Ok)),
                any::<u64>().prop_map(|i| Ok(ReplyBody::Created { ino: Ino(i) })),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
                    |(size, mtime, version, is_dir)| {
                        Ok(ReplyBody::Attr {
                            attr: FileAttr {
                                size,
                                mtime,
                                version,
                                is_dir,
                            },
                        })
                    }
                ),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
                    |(ino, size, version, is_dir)| {
                        Ok(ReplyBody::Resolved {
                            ino: Ino(ino),
                            attr: FileAttr {
                                size,
                                mtime: 0,
                                version,
                                is_dir,
                            },
                        })
                    }
                ),
                Just(Err(FsError::NotFound)),
                Just(Err(FsError::Exists)),
                Just(Err(FsError::NotLocked)),
                Just(Err(FsError::Unavailable)),
            ]
        }

        proptest! {
            #[test]
            fn request_batch_roundtrips(elems in pvec(elem(), 0..48)) {
                let msg = NetMsg::Ctl(CtlMsg::Request(Request {
                    src: NodeId(5),
                    session: SessionId(2),
                    seq: ReqSeq(42),
                    body: RequestBody::Batch(elems),
                }));
                let mut enc = msg.encoded();
                let dec = NetMsg::decode(&mut enc);
                prop_assert_eq!(dec, Ok(msg));
                prop_assert_eq!(enc.remaining(), 0, "trailing bytes after batch");
            }

            #[test]
            fn reply_batch_roundtrips(outcomes in pvec(outcome(), 0..48)) {
                let msg = NetMsg::Ctl(CtlMsg::Response(Response {
                    dst: NodeId(5),
                    session: SessionId(2),
                    seq: ReqSeq(42),
                    incarnation: Incarnation(7),
                    outcome: ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))),
                }));
                let mut enc = msg.encoded();
                let dec = NetMsg::decode(&mut enc);
                prop_assert_eq!(dec, Ok(msg));
                prop_assert_eq!(enc.remaining(), 0, "trailing bytes after batch reply");
            }
        }
    }
}
