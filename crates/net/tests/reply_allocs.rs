//! Allocations on `tankd`'s live reply path, counted. A counting global
//! allocator sees every allocation this process makes, the server's
//! reactor thread included; the test thread sends pre-encoded requests
//! and receives into preallocated buffers, so what is counted while it
//! waits is the server's work: receive, decode, session, execute,
//! encode, send. The bounds are the measured steady state; a reply that
//! costs a buffer of its own again exceeds them.
//!
//! One test in this binary, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tank_net::server::{LeaseServer, NetServerConfig};
use tank_proto::message::{ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{CtlMsg, Ino, NetMsg, NodeId, ReqSeq, Request, SessionId, WireDecode, WireEncode};

/// Allocations (a `realloc` is one) and bytes asked for.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Measured steady state (x86-64 Linux, release and debug builds alike):
/// allocations per `GetAttr` answered — the one shared buffer its wakeup's
/// datagrams are decoded from.
const GETATTR_ALLOCS: f64 = 1.0;
/// Measured steady state: allocations per 32-op batch of `GetAttr` and
/// `Lookup` answered — that buffer, the request's element list and its 16
/// names, the reply's outcome list (the send takes it) and the copy of it
/// the replay cache keeps.
const BATCH_ALLOCS: f64 = 20.0;
/// Room for the rare allocation that is not per request (a spurious
/// wakeup's empty receive batch); a buffer per reply costs two.
const SLACK: f64 = 0.25;

const ROOT: Ino = Ino(1);
const FILES: usize = 8;
const BATCH: usize = 32;
/// Requests of each kind answered before counting starts: more than the
/// session's dedup window, so the replay cache has reached its size.
const WARM: usize = 5_000;
/// Requests of each kind counted.
const COUNTED: usize = 1_000;
/// Receive slot per counted reply; a 32-op batch reply is ~1.5 KB.
const SLOT: usize = 4_096;

/// A raw protocol peer with its requests numbered in advance.
struct Peer {
    sock: UdpSocket,
    me: NodeId,
    session: SessionId,
    next_seq: u64,
}

impl Peer {
    fn encode(&mut self, body: RequestBody) -> Vec<u8> {
        let seq = ReqSeq(self.next_seq);
        self.next_seq += 1;
        let req = Request {
            src: self.me,
            session: self.session,
            seq,
            body,
        };
        NetMsg::Ctl(CtlMsg::Request(req)).encoded().to_vec()
    }

    /// Send `body` and decode its answer (allocates; set-up only).
    fn call(&mut self, body: RequestBody) -> ResponseOutcome {
        let req = self.encode(body);
        self.sock.send(&req).unwrap();
        let mut buf = vec![0u8; SLOT];
        let n = self.sock.recv(&mut buf).unwrap();
        match NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&buf[..n])) {
            Ok(NetMsg::Ctl(CtlMsg::Response(resp))) => {
                if let ResponseOutcome::Acked(Ok(ReplyBody::HelloOk { session, .. })) =
                    &resp.outcome
                {
                    (self.me, self.session) = (resp.dst, *session);
                }
                resp.outcome
            }
            other => panic!("server sent {other:?}"),
        }
    }
}

/// Send each request and wait for its answer, received into its own
/// `SLOT` of `replies`, its length into `lens`: allocations and bytes per
/// request in the meantime. Nothing here allocates.
fn count(sock: &UdpSocket, reqs: &[Vec<u8>], replies: &mut [u8], lens: &mut [usize]) -> (f64, f64) {
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    for ((req, slot), len) in reqs
        .iter()
        .zip(replies.chunks_mut(SLOT))
        .zip(lens.iter_mut())
    {
        sock.send(req).expect("sent");
        *len = sock.recv(slot).expect("answered");
    }
    let n = reqs.len() as f64;
    (
        (ALLOCS.load(Ordering::SeqCst) - allocs) as f64 / n,
        (BYTES.load(Ordering::SeqCst) - bytes) as f64 / n,
    )
}

/// Each counted reply was the answer it should be: `check` holds for its
/// outcome, and it answers its own request.
fn check_replies(
    replies: &[u8],
    lens: &[usize],
    first_seq: u64,
    check: impl Fn(&ReplyBody) -> bool,
) {
    for (i, (slot, &len)) in replies.chunks(SLOT).zip(lens).enumerate() {
        let resp = match NetMsg::decode(&mut bytes::Bytes::copy_from_slice(&slot[..len])) {
            Ok(NetMsg::Ctl(CtlMsg::Response(resp))) => resp,
            other => panic!("reply {i}: {other:?}"),
        };
        assert_eq!(resp.seq, ReqSeq(first_seq + i as u64), "reply {i}");
        match &resp.outcome {
            ResponseOutcome::Acked(Ok(body)) if check(body) => {}
            other => panic!("reply {i}: {other:?}"),
        }
    }
}

#[test]
fn a_steady_reply_path_allocates_within_its_measured_bound() {
    let server = LeaseServer::spawn("127.0.0.1:0", NetServerConfig::default()).unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.connect(server.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut peer = Peer {
        sock: sock.try_clone().unwrap(),
        me: NodeId(0),
        session: SessionId(0),
        next_seq: 1,
    };
    peer.call(RequestBody::Hello { map_epoch: 0 });
    let names: Vec<String> = (0..FILES).map(|f| format!("f{f}")).collect();
    let inos: Vec<Ino> = names
        .iter()
        .map(|name| {
            let body = RequestBody::Create {
                parent: ROOT,
                name: name.clone(),
            };
            match peer.call(body) {
                ResponseOutcome::Acked(Ok(ReplyBody::Created { ino })) => ino,
                other => panic!("create {name}: {other:?}"),
            }
        })
        .collect();
    let getattr = |i: usize| RequestBody::GetAttr {
        ino: inos[i % FILES],
    };
    let batch = |i: usize| {
        RequestBody::Batch(
            (0..BATCH)
                .map(|e| match (i + e) % 2 {
                    0 => getattr(i + e),
                    _ => RequestBody::Lookup {
                        parent: ROOT,
                        name: names[(i + e) % FILES].clone(),
                    },
                })
                .collect(),
        )
    };

    let mut replies = vec![0u8; COUNTED * SLOT];
    let mut lens = vec![0usize; COUNTED];
    let mut measure = |kind: &dyn Fn(usize) -> RequestBody, answer: fn(&ReplyBody) -> bool| {
        let warm: Vec<Vec<u8>> = (0..WARM).map(|i| peer.encode(kind(i))).collect();
        let first_seq = peer.next_seq;
        let counted: Vec<Vec<u8>> = (0..COUNTED).map(|i| peer.encode(kind(i))).collect();
        for reqs in warm.chunks(COUNTED) {
            count(&sock, reqs, &mut replies, &mut lens);
        }
        let per_request = count(&sock, &counted, &mut replies, &mut lens);
        check_replies(&replies, &lens, first_seq, answer);
        per_request
    };
    let (getattr_allocs, getattr_bytes) =
        measure(&getattr, |b| matches!(b, ReplyBody::Attr { .. }));
    let (batch_allocs, batch_bytes) = measure(
        &batch,
        |b| matches!(b, ReplyBody::Batch(outs) if outs.len() == BATCH && outs.iter().all(Result::is_ok)),
    );
    let stats = server.stop();
    assert_eq!((stats.nacks, stats.replays), (0, 0));

    println!(
        "per GetAttr: {getattr_allocs:.3} allocations, {getattr_bytes:.0} bytes; \
         per 32-op batch: {batch_allocs:.3} allocations, {batch_bytes:.0} bytes"
    );
    assert!(
        getattr_allocs <= GETATTR_ALLOCS + SLACK,
        "{getattr_allocs:.3} allocations per GetAttr, bound {GETATTR_ALLOCS}"
    );
    assert!(
        batch_allocs <= BATCH_ALLOCS + SLACK,
        "{batch_allocs:.3} allocations per 32-op batch, bound {BATCH_ALLOCS}"
    );
}
