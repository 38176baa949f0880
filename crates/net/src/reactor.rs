//! Building blocks of the host's reactor loop ([`crate::host`]): a
//! deadline heap that multiplexes every timer into the poll timeout, and
//! a batch-drain of ready datagrams with reusable scratch.
//!
//! The loop waits on the socket with `timeout = next timer deadline`,
//! drains *every* ready datagram into an arena per wakeup, decodes the
//! batch, hands it to the actor it owns, and flushes all the replies at
//! once (DESIGN.md §15). Timers — push retries, release waits, lease
//! expiries, recovery, a client's retransmissions — fire on the same
//! thread between wakeups, so no path ever sleeps per event.

use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use tank_proto::{CtlMsg, NetMsg, Request, WireDecode, MAX_DATAGRAM};

use crate::fault::FaultySocket;

// ------------------------------------------------------------- timers

/// Heap entry ordered so the earliest deadline pops first.
struct TimerEntry<E> {
    at: Instant,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for TimerEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for TimerEntry<E> {}
impl<E> PartialOrd for TimerEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for TimerEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// All of a server's timers in one deadline heap. The reactor asks for
/// [`next_deadline`](Self::next_deadline) to bound its poll timeout and
/// pops due events after every wakeup — timer multiplexing instead of a
/// sleeping thread per event.
pub struct TimerQueue<E> {
    heap: BinaryHeap<TimerEntry<E>>,
    next_seq: u64,
}

impl<E> Default for TimerQueue<E> {
    fn default() -> Self {
        TimerQueue::new()
    }
}

impl<E> TimerQueue<E> {
    /// Empty queue.
    pub fn new() -> TimerQueue<E> {
        TimerQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Arm `ev` to fire `after` from now. Ties fire in arm order.
    pub fn arm(&mut self, after: Duration, ev: E) {
        self.arm_at(Instant::now() + after, ev);
    }

    /// Arm `ev` at an absolute deadline.
    pub fn arm_at(&mut self, at: Instant, ev: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(TimerEntry { at, seq, ev });
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|t| t.at)
    }

    /// Pop the next event due at or before `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<E> {
        match self.heap.peek() {
            Some(t) if t.at <= now => self.heap.pop().map(|t| t.ev),
            _ => None,
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// -------------------------------------------------------------- drain

/// The datagrams one wakeup handles, in either direction: what it
/// drained off the socket, or what its activations queued to send. The
/// bytes are packed end to end in one `arena`, each datagram framed by
/// `(peer, range)`. Both keep their capacity across wakeups, so a warm
/// drain or flush allocates nothing.
pub struct WakeupBatch {
    /// Datagram payloads, packed contiguously.
    pub arena: BytesMut,
    /// One `(peer, range)` frame per datagram, in order: the datagram is
    /// `arena[range]`.
    pub frames: Vec<(SocketAddr, Range<usize>)>,
}

impl Default for WakeupBatch {
    fn default() -> Self {
        WakeupBatch::new()
    }
}

impl WakeupBatch {
    /// Empty batch.
    pub fn new() -> WakeupBatch {
        WakeupBatch {
            arena: BytesMut::new(),
            frames: Vec::new(),
        }
    }

    /// Append one datagram from or for `peer`: the bytes `write` adds to
    /// the arena.
    pub fn push(&mut self, peer: SocketAddr, write: impl FnOnce(&mut BytesMut)) {
        let start = self.arena.len();
        write(&mut self.arena);
        self.frames.push((peer, start..self.arena.len()));
    }

    /// Each datagram's peer and bytes, in order.
    pub fn iter(&self) -> impl Iterator<Item = (SocketAddr, &[u8])> {
        self.frames
            .iter()
            .map(|(peer, range)| (*peer, &self.arena[range.clone()]))
    }

    /// Forget the frames but keep the capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.frames.clear();
    }

    /// Number of datagrams in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the batch holds no datagrams.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Drain every ready datagram (up to `max_frames`) from `sock` into
/// `batch`: recv until `WouldBlock`, the contract that makes one wakeup
/// observe the entire backlog. `scratch` is the fixed receive buffer from
/// [`recv_scratch`], reused across calls; where the socket batches its
/// receives ([`FaultySocket::recv_ready`]) each of its [`MAX_DATAGRAM`]
/// slots takes one datagram per syscall. Returns the number of frames
/// drained: the datagrams received, less those the socket's fault filter
/// dropped, plus the copies it made.
pub fn drain_ready(
    sock: &FaultySocket,
    scratch: &mut [u8],
    batch: &mut WakeupBatch,
    max_frames: usize,
) -> usize {
    batch.clear();
    sock.recv_ready(scratch, max_frames, |bytes, peer| {
        batch.push(peer, |arena| arena.extend_from_slice(bytes));
    })
}

/// Decode every datagram of a drained batch as a [`NetMsg`], handing
/// each to `sink` with its sender, in arrival order. One shared buffer
/// backs every frame — a single allocation per wakeup rather than one
/// per datagram. Returns how many datagrams did not decode (noise,
/// truncation); they are skipped.
pub(crate) fn decode_each(batch: &WakeupBatch, mut sink: impl FnMut(SocketAddr, NetMsg)) -> usize {
    let shared = Bytes::copy_from_slice(&batch.arena);
    let mut errors = 0;
    for (peer, range) in &batch.frames {
        match NetMsg::decode(&mut shared.slice(range.clone())) {
            Ok(msg) => sink(*peer, msg),
            Err(_) => errors += 1,
        }
    }
    errors
}

/// The requests of a drained batch, `(peer, request)` appended to `out`
/// in arrival order: the host's decode (`decode_each`), keeping only
/// requests, as a server reads them. Public (with [`WakeupBatch`]) so
/// the benchmark's probe can time a full wakeup's drain-and-decode
/// (`net.drain_ns_per_dgram`, `net.decode_batch_ns_per_dgram`).
pub fn decode_batch(batch: &WakeupBatch, out: &mut Vec<(SocketAddr, Request)>) {
    decode_each(batch, |peer, msg| {
        if let NetMsg::Ctl(CtlMsg::Request(req)) = msg {
            out.push((peer, req));
        }
    });
}

/// The fixed receive buffer for [`drain_ready`]: one `recvmmsg` vector
/// of [`MAX_DATAGRAM`] slots. Zeroed pages the kernel never writes stay
/// unmapped, so small datagrams keep it cheap.
pub fn recv_scratch() -> Vec<u8> {
    vec![0u8; crate::mmsg::VLEN * MAX_DATAGRAM]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DirFaults, FaultConfig};
    use std::net::UdpSocket;

    #[test]
    fn timer_queue_fires_in_deadline_order_with_stable_ties() {
        let mut q: TimerQueue<u32> = TimerQueue::new();
        let base = Instant::now();
        q.arm_at(base + Duration::from_millis(20), 2);
        q.arm_at(base + Duration::from_millis(10), 1);
        q.arm_at(base + Duration::from_millis(20), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(base + Duration::from_millis(10)));
        let late = base + Duration::from_millis(30);
        assert_eq!(q.pop_due(late), Some(1));
        assert_eq!(q.pop_due(late), Some(2), "tie fires in arm order");
        assert_eq!(q.pop_due(late), Some(3));
        assert!(q.pop_due(late).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn timer_queue_holds_future_events_back() {
        let mut q: TimerQueue<&'static str> = TimerQueue::new();
        q.arm(Duration::from_secs(60), "later");
        assert!(q.pop_due(Instant::now()).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_empties_the_entire_backlog_in_one_wakeup() {
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).expect("bind rx");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let addr = rx.local_addr().expect("addr");
        for i in 0..17u8 {
            tx.send_to(&[i; 3], addr).expect("send");
        }
        // Let the datagrams land in the kernel queue.
        std::thread::sleep(Duration::from_millis(100));
        rx.set_nonblocking(true).expect("nonblocking");
        let mut batch = WakeupBatch::new();
        let mut scratch = recv_scratch();
        let n = drain_ready(&rx, &mut scratch, &mut batch, 1024);
        assert_eq!(n, 17, "one wakeup drains everything queued");
        assert_eq!(batch.arena.len(), 17 * 3);
        // Drained dry: the next drain finds nothing (WouldBlock).
        let n = drain_ready(&rx, &mut scratch, &mut batch, 1024);
        assert_eq!(n, 0);
    }

    #[test]
    fn drain_respects_the_frame_cap() {
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).expect("bind rx");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let addr = rx.local_addr().expect("addr");
        for _ in 0..8 {
            tx.send_to(b"x", addr).expect("send");
        }
        std::thread::sleep(Duration::from_millis(100));
        rx.set_nonblocking(true).expect("nonblocking");
        let mut batch = WakeupBatch::new();
        let mut scratch = recv_scratch();
        assert_eq!(drain_ready(&rx, &mut scratch, &mut batch, 5), 5);
        assert_eq!(drain_ready(&rx, &mut scratch, &mut batch, 5), 3);
    }

    /// `per_peer` numbered datagrams from each of `peers` sockets bound
    /// to `bind`, plus one near-`MAX_DATAGRAM` datagram from the first:
    /// `copies` of every one (0, 1 or 2, as `faults` decide) must come out
    /// of the drain, whole, side by side, under its sender's address —
    /// however many receive vectors that takes.
    fn drain_a_burst(bind: &str, faults: FaultConfig, copies: usize, peers: usize, per_peer: u8) {
        let rx = FaultySocket::bind(bind, faults).expect("bind rx");
        let addr = rx.local_addr().expect("addr");
        let txs: Vec<UdpSocket> = (0..peers)
            .map(|_| UdpSocket::bind(bind).expect("bind tx"))
            .collect();
        let big = vec![0xB1u8; 65_000];
        txs[0].send_to(&big, addr).expect("send big");
        for seq in 0..per_peer {
            for (i, tx) in txs.iter().enumerate() {
                tx.send_to(&[i as u8, seq], addr).expect("send");
            }
        }
        std::thread::sleep(Duration::from_millis(100));
        rx.set_nonblocking(true).expect("nonblocking");
        let mut batch = WakeupBatch::new();
        let mut scratch = recv_scratch();
        let sent = 1 + peers * per_peer as usize;
        let drained = drain_ready(&rx, &mut scratch, &mut batch, 1024);
        assert_eq!(drained, copies * sent);
        let frames: Vec<(SocketAddr, &[u8])> = batch.iter().collect();
        let mut next_seq = vec![0u8; peers];
        let mut bigs = 0;
        for same in frames.chunks(copies.max(1)) {
            let (peer, bytes) = same[0];
            assert!(same.iter().all(|f| *f == same[0]), "copies side by side");
            let i = txs
                .iter()
                .position(|tx| tx.local_addr().expect("addr") == peer)
                .expect("frame carries a sender's address");
            if bytes.len() == big.len() {
                assert_eq!((i, bytes), (0, &big[..]), "big datagram arrived whole");
                bigs += 1;
            } else {
                assert_eq!(bytes, [i as u8, next_seq[i]], "per-peer arrival order");
                next_seq[i] += 1;
            }
        }
        let kept = copies.min(1);
        assert_eq!(bigs, kept);
        assert_eq!(next_seq, vec![per_peer * kept as u8; peers]);
        assert_eq!(drain_ready(&rx, &mut scratch, &mut batch, 1024), 0);
    }

    /// Receive faults that make every datagram's fate `recv`'s.
    fn receiving(recv: DirFaults) -> FaultConfig {
        FaultConfig {
            seed: 5,
            recv,
            ..FaultConfig::none()
        }
    }

    #[test]
    fn drain_spans_receive_vectors_and_keeps_every_peer_address() {
        // 9 × 8 + 1 = 73 datagrams: more than two 32-slot vectors.
        drain_a_burst("127.0.0.1:0", FaultConfig::none(), 1, 9, 8);
    }

    #[test]
    fn drain_reports_ipv6_peers() {
        if UdpSocket::bind("[::1]:0").is_err() {
            return; // no IPv6 loopback on this host
        }
        drain_a_burst("[::1]:0", FaultConfig::none(), 1, 3, 12);
    }

    #[test]
    fn drain_duplicates_every_datagram_in_place_across_receive_vectors() {
        // The same 73-datagram burst through a receive filter that
        // duplicates everything: 146 frames, each beside its twin.
        drain_a_burst(
            "127.0.0.1:0",
            receiving(DirFaults::duplicating(1.0)),
            2,
            9,
            8,
        );
    }

    #[test]
    fn drain_hands_over_nothing_when_every_datagram_is_dropped() {
        // The backlog is still consumed: the next drain finds it empty.
        drain_a_burst("127.0.0.1:0", receiving(DirFaults::dropping(1.0)), 0, 9, 8);
    }
}
