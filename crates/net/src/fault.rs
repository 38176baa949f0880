//! Seeded fault injection for the real UDP transport.
//!
//! [`FaultySocket`] wraps a [`std::net::UdpSocket`] and applies
//! independently configured faults to each direction: datagrams may be
//! dropped, duplicated, or delayed on send; dropped or duplicated on
//! receive. Faults are drawn from a seeded [`ChaCha8Rng`], so a failing
//! run is reproducible by seed. A zero [`FaultConfig`] (the default) is
//! the identity: every datagram passes through untouched.
//!
//! The shim lives *under* the protocol code — the server and client use
//! it as their only socket type — so injected faults exercise the real
//! retransmission, dedup-window, and lease paths rather than mocks.

use std::collections::{BinaryHeap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tank_obs::{names, Counter, Registry};

use crate::locked;
use crate::reactor::WakeupBatch;

/// Faults applied to one direction of the socket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirFaults {
    /// Probability a datagram is silently discarded.
    pub drop_prob: f64,
    /// Probability a datagram is delivered twice.
    pub dup_prob: f64,
    /// Probability a datagram is held back before delivery.
    pub delay_prob: f64,
    /// Uniform extra delay in `[delay_min, delay_max]` when delayed.
    pub delay_min: Duration,
    /// Upper bound of the extra delay.
    pub delay_max: Duration,
}

impl DirFaults {
    /// No faults in this direction.
    pub fn none() -> Self {
        DirFaults::default()
    }

    /// Drop datagrams with probability `p`.
    pub fn dropping(p: f64) -> Self {
        DirFaults {
            drop_prob: p,
            ..DirFaults::default()
        }
    }

    /// Duplicate datagrams with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        DirFaults {
            dup_prob: p,
            ..DirFaults::default()
        }
    }

    /// Delay datagrams with probability `p` by `min..=max` extra.
    pub fn delaying(p: f64, min: Duration, max: Duration) -> Self {
        DirFaults {
            delay_prob: p,
            delay_min: min,
            delay_max: max,
            ..DirFaults::default()
        }
    }

    fn is_none(&self) -> bool {
        self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.delay_prob == 0.0
    }
}

/// Full fault configuration for a socket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault stream (runs are reproducible by seed).
    pub seed: u64,
    /// Faults on outgoing datagrams.
    pub send: DirFaults,
    /// Faults on incoming datagrams (delay fields are ignored on this
    /// side; reordering is already covered by send-side delay).
    pub recv: DirFaults,
}

impl FaultConfig {
    /// The identity configuration: no faults.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Whether neither direction injects anything (the seed is then
    /// never drawn from). A socket with such a configuration is a plain
    /// UDP socket, which is what lets it batch its syscalls.
    pub fn is_none(&self) -> bool {
        self.send.is_none() && self.recv.is_none()
    }
}

struct FaultState {
    rng: ChaCha8Rng,
    /// Receive-side duplicates waiting to be handed out.
    pending: VecDeque<(Vec<u8>, SocketAddr)>,
}

/// A send-side datagram held back by delay injection.
struct DelayedSend {
    due: Instant,
    /// Admission order; ties on `due` deliver in send order.
    seq: u64,
    data: Vec<u8>,
    addr: Option<SocketAddr>,
    copies: u32,
}

impl PartialEq for DelayedSend {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedSend {}
impl PartialOrd for DelayedSend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedSend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct DelayQueueState {
    heap: BinaryHeap<DelayedSend>,
    next_seq: u64,
    stop: bool,
}

/// One timer queue per socket for every delayed delivery: the delivery
/// thread sleeps until the earliest deadline (or new work) instead of a
/// `thread::spawn` per delayed datagram — at 10k-client offered loads a
/// few percent of delay probability would otherwise mean thousands of
/// one-shot threads per second.
struct DelayQueue {
    state: Mutex<DelayQueueState>,
    cv: Condvar,
}

impl DelayQueue {
    fn new() -> DelayQueue {
        DelayQueue {
            state: Mutex::new(DelayQueueState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                stop: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, due: Instant, data: Vec<u8>, addr: Option<SocketAddr>, copies: u32) {
        let mut st = locked(&self.state);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.heap.push(DelayedSend {
            due,
            seq,
            data,
            addr,
            copies,
        });
        self.cv.notify_one();
    }

    /// Deliver due datagrams until stopped. Undelivered entries at stop
    /// time are discarded — indistinguishable from datagrams lost in the
    /// network, which is the faulty contract anyway.
    fn run(&self, sock: &UdpSocket) {
        let mut st = locked(&self.state);
        loop {
            if st.stop {
                return;
            }
            let now = Instant::now();
            match st.heap.peek() {
                None => {
                    st = self
                        .cv
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                Some(top) if top.due > now => {
                    let dur = top.due - now;
                    st = self
                        .cv
                        .wait_timeout(st, dur)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0;
                }
                Some(_) => {
                    if let Some(ds) = st.heap.pop() {
                        // Send outside the lock so a slow syscall never
                        // blocks producers.
                        drop(st);
                        for _ in 0..ds.copies {
                            let _ = match ds.addr {
                                Some(a) => sock.send_to(&ds.data, a),
                                None => sock.send(&ds.data),
                            };
                        }
                        st = locked(&self.state);
                    }
                }
            }
        }
    }

    fn stop(&self) {
        locked(&self.state).stop = true;
        self.cv.notify_all();
    }
}

/// Pre-resolved fault-injection counters (`net.fault.*`).
struct FaultObs {
    send_dropped: Arc<Counter>,
    send_dup: Arc<Counter>,
    send_delayed: Arc<Counter>,
    recv_dropped: Arc<Counter>,
    recv_dup: Arc<Counter>,
}

impl FaultObs {
    fn new(registry: &Registry) -> FaultObs {
        FaultObs {
            send_dropped: registry.counter_def(&names::NET_FAULT_SEND_DROPPED),
            send_dup: registry.counter_def(&names::NET_FAULT_SEND_DUP),
            send_delayed: registry.counter_def(&names::NET_FAULT_SEND_DELAYED),
            recv_dropped: registry.counter_def(&names::NET_FAULT_RECV_DROPPED),
            recv_dup: registry.counter_def(&names::NET_FAULT_RECV_DUP),
        }
    }
}

/// A UDP socket with seeded, per-direction fault injection.
pub struct FaultySocket {
    sock: Arc<UdpSocket>,
    cfg: FaultConfig,
    state: Mutex<FaultState>,
    obs: Option<FaultObs>,
    /// Timer queue for send-side delay injection; the delivery thread is
    /// spawned on the first delayed datagram and joined on drop.
    delay: Arc<DelayQueue>,
    delay_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for FaultySocket {
    fn drop(&mut self) {
        self.delay.stop();
        if let Some(handle) = locked(&self.delay_thread).take() {
            let _ = handle.join();
        }
    }
}

impl FaultySocket {
    /// Bind `addr` with faults per `cfg`.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: FaultConfig) -> std::io::Result<FaultySocket> {
        Ok(Self::wrap(UdpSocket::bind(addr)?, cfg))
    }

    /// Like [`bind`](Self::bind), with fault decisions counted into
    /// `registry` (`FaultConfig` is `Copy`, so the registry rides on the
    /// socket rather than the config).
    pub fn bind_observed<A: ToSocketAddrs>(
        addr: A,
        cfg: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> std::io::Result<FaultySocket> {
        Ok(Self::wrap_observed(UdpSocket::bind(addr)?, cfg, registry))
    }

    /// Wrap an already-bound socket.
    pub fn wrap(sock: UdpSocket, cfg: FaultConfig) -> FaultySocket {
        Self::wrap_observed(sock, cfg, None)
    }

    /// Wrap an already-bound socket, counting fault decisions into
    /// `registry` when given.
    pub fn wrap_observed(
        sock: UdpSocket,
        cfg: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> FaultySocket {
        FaultySocket {
            sock: Arc::new(sock),
            cfg,
            state: Mutex::new(FaultState {
                rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xFA17_50CC),
                pending: VecDeque::new(),
            }),
            obs: registry.map(|r| FaultObs::new(r)),
            delay: Arc::new(DelayQueue::new()),
            delay_thread: Mutex::new(None),
        }
    }

    /// The bound local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// UDP-connect the underlying socket.
    pub fn connect<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<()> {
        self.sock.connect(addr)
    }

    /// Set the receive timeout (also bounds how long a receive-side
    /// drop can stall a caller: at most one extra timeout period). Like
    /// [`send`](Self::send) and [`recv`](Self::recv), for the tests' blocking
    /// peers: a live socket is a host's, nonblocking.
    #[cfg(test)]
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.sock.set_read_timeout(dur)
    }

    /// Switch the socket to nonblocking mode (the reactor's drain
    /// contract: recv until `WouldBlock`). Receive-side drop faults then
    /// surface as `WouldBlock` instead of stalling — the dropped datagram
    /// simply vanishes from the backlog.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.sock.set_nonblocking(nonblocking)
    }

    /// Send to the connected peer, possibly dropping/duplicating/delaying.
    #[cfg(test)]
    pub fn send(&self, buf: &[u8]) -> std::io::Result<usize> {
        self.faulty_send(buf, None)
    }

    /// Send to `addr`, possibly dropping/duplicating/delaying.
    pub fn send_to(&self, buf: &[u8], addr: SocketAddr) -> std::io::Result<usize> {
        self.faulty_send(buf, Some(addr))
    }

    fn faulty_send(&self, buf: &[u8], addr: Option<SocketAddr>) -> std::io::Result<usize> {
        let f = self.cfg.send;
        if f.is_none() {
            return match addr {
                Some(a) => self.sock.send_to(buf, a),
                None => self.sock.send(buf),
            };
        }
        let (dropped, copies, delay) = {
            let mut st = locked(&self.state);
            let dropped = st.rng.random_bool(f.drop_prob);
            let copies = if st.rng.random_bool(f.dup_prob) { 2 } else { 1 };
            let delay = if st.rng.random_bool(f.delay_prob) {
                let span = f.delay_max.saturating_sub(f.delay_min).as_nanos() as u64;
                let extra = if span == 0 {
                    0
                } else {
                    st.rng.random_range(0..=span)
                };
                Some(f.delay_min + Duration::from_nanos(extra))
            } else {
                None
            };
            (dropped, copies, delay)
        };
        if let Some(obs) = &self.obs {
            if dropped {
                obs.send_dropped.inc();
            }
            if copies > 1 {
                obs.send_dup.inc();
            }
            if delay.is_some() {
                obs.send_delayed.inc();
            }
        }
        if dropped {
            // The caller sees success: a dropped datagram is
            // indistinguishable from one lost in the network.
            return Ok(buf.len());
        }
        match delay {
            None => {
                for _ in 0..copies {
                    match addr {
                        Some(a) => self.sock.send_to(buf, a)?,
                        None => self.sock.send(buf)?,
                    };
                }
            }
            Some(d) => {
                self.ensure_delay_thread();
                self.delay
                    .push(Instant::now() + d, buf.to_vec(), addr, copies);
            }
        }
        Ok(buf.len())
    }

    /// Spawn the single delay-delivery thread if it is not running yet.
    fn ensure_delay_thread(&self) {
        let mut slot = locked(&self.delay_thread);
        if slot.is_none() {
            let queue = self.delay.clone();
            let sock = self.sock.clone();
            *slot = Some(std::thread::spawn(move || queue.run(&sock)));
        }
    }

    /// Receive one datagram (source address included), applying
    /// receive-side drop/duplicate faults.
    pub fn recv_from(&self, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr)> {
        let f = self.cfg.recv;
        if let Some((data, peer)) = locked(&self.state).pending.pop_front() {
            let n = data.len().min(buf.len());
            buf[..n].copy_from_slice(&data[..n]);
            return Ok((n, peer));
        }
        loop {
            let (n, peer) = self.sock.recv_from(buf)?;
            if f.is_none() {
                return Ok((n, peer));
            }
            let mut st = locked(&self.state);
            if st.rng.random_bool(f.drop_prob) {
                drop(st);
                if let Some(obs) = &self.obs {
                    obs.recv_dropped.inc();
                }
                continue; // discarded on arrival; wait for the next one
            }
            if st.rng.random_bool(f.dup_prob) {
                st.pending.push_back((buf[..n].to_vec(), peer));
                if let Some(obs) = &self.obs {
                    obs.recv_dup.inc();
                }
            }
            return Ok((n, peer));
        }
    }

    /// Receive from the connected peer.
    #[cfg(test)]
    pub fn recv(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.recv_from(buf).map(|(n, _)| n)
    }

    /// Hand every ready datagram (up to `max`) to `sink` and return how
    /// many there were: receive until `WouldBlock`, so the socket must be
    /// nonblocking. With no faults configured, on Linux, the backlog
    /// comes off in `recvmmsg` batches, one datagram per
    /// [`MAX_DATAGRAM`](tank_proto::MAX_DATAGRAM) slot of `scratch`;
    /// otherwise one [`Self::recv_from`] per datagram, so every
    /// receive-side fault still applies.
    pub fn recv_ready(
        &self,
        scratch: &mut [u8],
        max: usize,
        mut sink: impl FnMut(&[u8], SocketAddr),
    ) -> usize {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if self.cfg.is_none() && scratch.len() >= tank_proto::MAX_DATAGRAM {
            return crate::mmsg::recv_ready(&self.sock, scratch, max, sink);
        }
        let mut got = 0;
        while got < max {
            match self.recv_from(scratch) {
                Ok((n, peer)) => {
                    sink(&scratch[..n], peer);
                    got += 1;
                }
                // WouldBlock = backlog empty; any transient error ends
                // the drain the same way and the next wakeup retries.
                Err(_) => break,
            }
        }
        got
    }

    /// Send every datagram of `batch` to its peer, in order. A failed
    /// send loses that one datagram — the peer's loss, as anywhere on
    /// UDP — and the rest still go. With no faults configured, on Linux,
    /// they leave in `sendmmsg` batches; otherwise one [`Self::send_to`]
    /// each, so every send-side fault still applies.
    pub fn send_all(&self, batch: &WakeupBatch) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if self.cfg.is_none() {
            return crate::mmsg::send_all(&self.sock, batch);
        }
        for (peer, bytes) in batch.iter() {
            let _ = self.send_to(bytes, peer);
        }
    }
}

#[cfg(unix)]
impl std::os::fd::AsRawFd for FaultySocket {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.sock.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg: FaultConfig) -> (FaultySocket, FaultySocket) {
        let a = FaultySocket::bind("127.0.0.1:0", cfg).unwrap();
        let b = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        (a, b)
    }

    #[test]
    fn clean_config_is_identity() {
        let (a, b) = pair(FaultConfig::none());
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        a.send(b"hello").unwrap();
        let mut buf = [0u8; 64];
        let n = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn send_drop_loses_every_datagram_at_p1() {
        let cfg = FaultConfig {
            seed: 1,
            send: DirFaults::dropping(1.0),
            ..FaultConfig::none()
        };
        let (a, b) = pair(cfg);
        b.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        for _ in 0..5 {
            a.send(b"x").unwrap();
        }
        let mut buf = [0u8; 8];
        assert!(b.recv(&mut buf).is_err(), "all datagrams dropped");
    }

    #[test]
    fn send_dup_doubles_every_datagram_at_p1() {
        let cfg = FaultConfig {
            seed: 2,
            send: DirFaults::duplicating(1.0),
            ..FaultConfig::none()
        };
        let (a, b) = pair(cfg);
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        a.send(b"once").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 4);
        assert_eq!(b.recv(&mut buf).unwrap(), 4, "the duplicate arrives too");
    }

    #[test]
    fn recv_dup_replays_the_datagram() {
        let recv = DirFaults::duplicating(1.0);
        let cfg = FaultConfig {
            seed: 3,
            recv,
            ..FaultConfig::none()
        };
        let b = FaultySocket::bind("127.0.0.1:0", cfg).unwrap();
        let a = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        a.send(b"pkt").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 3);
        assert_eq!(b.recv(&mut buf).unwrap(), 3, "queued duplicate");
    }

    #[test]
    fn delayed_datagram_arrives_late() {
        let send = DirFaults::delaying(1.0, Duration::from_millis(80), Duration::from_millis(120));
        let cfg = FaultConfig {
            seed: 4,
            send,
            ..FaultConfig::none()
        };
        let (a, b) = pair(cfg);
        b.set_read_timeout(Some(Duration::from_millis(1000)))
            .unwrap();
        let t0 = std::time::Instant::now();
        a.send(b"slow").unwrap();
        let mut buf = [0u8; 8];
        let n = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"slow");
        assert!(
            t0.elapsed() >= Duration::from_millis(60),
            "datagram was held back"
        );
    }

    #[test]
    fn delay_queue_delivers_every_datagram_through_one_thread() {
        // A burst of delayed datagrams all arrive (the single timer queue
        // loses nothing relative to the old thread-per-datagram scheme),
        // and each respects its lower delay bound.
        let send = DirFaults::delaying(1.0, Duration::from_millis(10), Duration::from_millis(60));
        let cfg = FaultConfig {
            seed: 7,
            send,
            ..FaultConfig::none()
        };
        let (a, b) = pair(cfg);
        b.set_read_timeout(Some(Duration::from_millis(1000)))
            .unwrap();
        let t0 = std::time::Instant::now();
        for i in 0..20u8 {
            a.send(&[i]).unwrap();
        }
        let mut buf = [0u8; 8];
        let mut got = Vec::new();
        for _ in 0..20 {
            let n = b.recv(&mut buf).unwrap();
            assert_eq!(n, 1);
            got.push(buf[0]);
        }
        assert!(t0.elapsed() >= Duration::from_millis(10));
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn dropping_the_socket_discards_pending_delays_without_panicking() {
        let send = DirFaults::delaying(1.0, Duration::from_secs(5), Duration::from_secs(5));
        let cfg = FaultConfig {
            seed: 8,
            send,
            ..FaultConfig::none()
        };
        let (a, b) = pair(cfg);
        a.send(b"never").unwrap();
        drop(a); // joins the delay thread; the 5s-out datagram dies with it
        b.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut buf = [0u8; 8];
        assert!(b.recv(&mut buf).is_err(), "pending delayed send discarded");
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let decide = |seed| {
            let cfg = FaultConfig {
                seed,
                send: DirFaults::dropping(0.5),
                ..FaultConfig::none()
            };
            let s = FaultySocket::bind("127.0.0.1:0", cfg).unwrap();
            // Send into the void; what matters is the drop pattern, which
            // we recover by observing the rng through a sibling socket.
            let peer = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
            peer.set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            s.connect(peer.local_addr().unwrap()).unwrap();
            let mut pattern = Vec::new();
            let mut buf = [0u8; 8];
            for _ in 0..16 {
                s.send(b"p").unwrap();
                pattern.push(peer.recv(&mut buf).is_ok());
            }
            pattern
        };
        assert_eq!(decide(9), decide(9));
    }

    /// What `rx` holds once the senders are done, in arrival order.
    fn received(rx: &FaultySocket) -> Vec<Vec<u8>> {
        rx.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut buf = vec![0u8; 2048];
        let mut got = Vec::new();
        while let Ok(n) = rx.recv(&mut buf) {
            got.push(buf[..n].to_vec());
        }
        got
    }

    /// A batch of `n` numbered datagrams for `to`, of lengths 1 to 9.
    fn numbered(n: u8, to: SocketAddr) -> WakeupBatch {
        let mut batch = WakeupBatch::new();
        for i in 0..n {
            batch.push(to, |arena| {
                arena.extend_from_slice(&vec![i; 1 + usize::from(i % 9)])
            });
        }
        batch
    }

    /// The datagrams of `batch` for `to`, in order.
    fn datagrams_for(batch: &WakeupBatch, to: SocketAddr) -> Vec<Vec<u8>> {
        batch
            .iter()
            .filter(|(peer, _)| *peer == to)
            .map(|(_, bytes)| bytes.to_vec())
            .collect()
    }

    #[test]
    fn send_all_delivers_an_outbox_longer_than_one_vector_in_order() {
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        let tx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        tx.set_nonblocking(true).unwrap();
        let to = rx.local_addr().unwrap();
        let batch = numbered(75, to);
        tx.send_all(&batch);
        assert_eq!(received(&rx), datagrams_for(&batch, to));
    }

    #[test]
    fn send_all_drops_a_refused_datagram_and_sends_the_rest() {
        // An IPv4 socket cannot send to an IPv6 address: the kernel
        // refuses those datagrams, wherever they sit in the outbox, and
        // everything around them still goes out.
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        let tx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        tx.set_nonblocking(true).unwrap();
        let bad: SocketAddr = "[::1]:9".parse().unwrap();
        let to = rx.local_addr().unwrap();
        let mut batch = numbered(40, to);
        for at in [0, 1, 17, 32, 39] {
            batch.frames[at].0 = bad;
        }
        tx.send_all(&batch);
        assert_eq!(received(&rx), datagrams_for(&batch, to));
    }

    #[test]
    fn send_all_goes_through_the_send_faults() {
        let rx = FaultySocket::bind("127.0.0.1:0", FaultConfig::none()).unwrap();
        let drop_all = FaultConfig {
            seed: 11,
            send: DirFaults::dropping(1.0),
            ..FaultConfig::none()
        };
        let tx = FaultySocket::bind("127.0.0.1:0", drop_all).unwrap();
        let batch = numbered(40, rx.local_addr().unwrap());
        tx.send_all(&batch);
        assert!(received(&rx).is_empty(), "every datagram dropped");
        let dup_all = FaultConfig {
            seed: 12,
            send: DirFaults::duplicating(1.0),
            ..FaultConfig::none()
        };
        let tx = FaultySocket::bind("127.0.0.1:0", dup_all).unwrap();
        tx.send_all(&batch);
        assert_eq!(received(&rx).len(), 80, "every datagram doubled");
    }
}
