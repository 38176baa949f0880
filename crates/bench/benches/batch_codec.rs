//! Batch codec throughput and the reactor's drain-and-decode.
//!
//! Two claims from the batching work, measured rather than asserted:
//!
//! 1. **Batch encode/decode scales linearly** in element count — the
//!    length-prefixed `RequestBody::Batch` / `ReplyBody::Batch` framing
//!    adds no per-element surprises at the coalescing caps the client
//!    actually uses (1/4/16) or well beyond them (64).
//! 2. **A wakeup's drain-and-decode is arena-cheap** — the reactor packs
//!    every ready datagram into one reused [`WakeupBatch`] arena and
//!    `decode_batch` backs all frames with a single `Bytes` copy, so the
//!    per-datagram cost is one slice + decode, not an allocation. The
//!    bench replays the exact server hot-path shape (arena fill as
//!    `drain_ready` does it, then `decode_batch` into a reused request
//!    vec) at the reactor's observed datagrams-per-wakeup scales.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tank_net::reactor::{decode_batch, WakeupBatch};
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Incarnation, Ino, NetMsg, NodeId, ReqSeq, Request, Response, SessionId, WireDecode,
    WireEncode,
};

const SIZES: [usize; 4] = [1, 4, 16, 64];

/// A request batch of `n` elements, shaped like the client's coalescing
/// queue output: mostly reads with the occasional mutation.
fn batch_request(n: usize) -> NetMsg {
    let elems = (0..n)
        .map(|i| match i % 4 {
            0 | 1 => RequestBody::GetAttr { ino: Ino(i as u64) },
            2 => RequestBody::Lookup {
                parent: Ino(1),
                name: format!("f{i}"),
            },
            _ => RequestBody::SetAttr {
                ino: Ino(i as u64),
                size: Some(4096),
            },
        })
        .collect();
    NetMsg::Ctl(CtlMsg::Request(Request {
        src: NodeId(3),
        session: SessionId(9),
        seq: ReqSeq(1234),
        body: RequestBody::Batch(elems),
    }))
}

/// The matching reply: per-element `Ok` outcomes with one trailing error,
/// exercising both arms of the `Result` framing.
fn batch_reply(n: usize) -> NetMsg {
    let mut outcomes: Vec<Result<ReplyBody, FsError>> = (0..n.saturating_sub(1))
        .map(|_| {
            Ok(ReplyBody::Attr {
                attr: FileAttr {
                    size: 4096,
                    mtime: 77,
                    version: 3,
                    is_dir: false,
                },
            })
        })
        .collect();
    outcomes.push(Err(FsError::NotFound));
    NetMsg::Ctl(CtlMsg::Response(Response {
        dst: NodeId(3),
        session: SessionId(9),
        seq: ReqSeq(1234),
        incarnation: Incarnation(1),
        outcome: ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))),
    }))
}

fn bench_codec(c: &mut Criterion) {
    for n in SIZES {
        for (side, msg) in [("request", batch_request(n)), ("reply", batch_reply(n))] {
            let encoded: Bytes = msg.encoded();
            let mut g = c.benchmark_group(format!("batch/{side}/{n}"));
            g.throughput(Throughput::Bytes(encoded.len() as u64));
            g.bench_function("encode", |b| b.iter(|| black_box(msg.encoded())));
            g.bench_function("decode", |b| {
                b.iter(|| {
                    let mut buf = encoded.clone();
                    black_box(NetMsg::decode(&mut buf).unwrap())
                })
            });
            g.finish();
        }
    }
}

/// One wakeup's worth of single-request datagrams, packed into a
/// [`WakeupBatch`] arena exactly as `drain_ready` packs them off the
/// socket: payload bytes end-to-end, one `(offset, len, peer)` frame per
/// datagram.
fn wakeup_of(n: usize) -> WakeupBatch {
    let peer: std::net::SocketAddr = "127.0.0.1:4040".parse().expect("addr");
    let mut batch = WakeupBatch::new();
    for i in 0..n {
        let body = match i % 4 {
            0 | 1 => RequestBody::GetAttr { ino: Ino(i as u64) },
            2 => RequestBody::Lookup {
                parent: Ino(1),
                name: format!("f{i}"),
            },
            _ => RequestBody::SetAttr {
                ino: Ino(i as u64),
                size: Some(4096),
            },
        };
        let encoded: Bytes = NetMsg::Ctl(CtlMsg::Request(Request {
            src: NodeId(3),
            session: SessionId(9),
            seq: ReqSeq(i as u64),
            body,
        }))
        .encoded();
        let off = batch.arena.len();
        batch.arena.extend_from_slice(&encoded);
        batch.frames.push((off, encoded.len(), peer));
    }
    batch
}

fn bench_drain_decode(c: &mut Criterion) {
    for n in SIZES {
        let batch = wakeup_of(n);
        let mut requests: Vec<(std::net::SocketAddr, Request)> = Vec::new();
        let mut g = c.benchmark_group(format!("batch/drain_decode/{n}"));
        g.throughput(Throughput::Bytes(batch.arena.len() as u64));
        g.bench_function("decode_batch", |b| {
            b.iter(|| {
                // The reactor's exact prologue: clear the reused request
                // vec, then decode every frame off one shared buffer.
                requests.clear();
                decode_batch(&batch, &mut requests);
                black_box(requests.len())
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_codec, bench_drain_decode);
criterion_main!(benches);
