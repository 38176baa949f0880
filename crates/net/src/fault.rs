//! Seeded fault injection for the real UDP transport.
//!
//! [`FaultySocket`] wraps a [`std::net::UdpSocket`] and filters every
//! frame that crosses it, in either direction, through one seeded fault
//! decision: a frame may be dropped, duplicated, or — on send — held back
//! for a while. Faults are drawn from a seeded [`ChaCha8Rng`], so a
//! failing run is reproducible by seed. A zero [`FaultConfig`] (the
//! default) is the identity: every datagram passes through untouched, and
//! the socket takes no lock, draws nothing and copies nothing.
//!
//! The filter sits on the one syscall path: every receive is a
//! `recvmmsg` batch and every send a `sendmmsg` batch (`mmsg.rs`),
//! faults or not. A held frame waits in a deadline heap inside the
//! socket; the host's flush sends it once it is due, and the host bounds
//! its poll wait by the earliest held deadline as it does by its timers.
//! No thread is involved.
//!
//! The shim lives *under* the protocol code — the server and client use
//! it as their only socket type — so injected faults exercise the real
//! retransmission, dedup-window, and lease paths rather than mocks.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tank_obs::{names, Counter, Registry};

use crate::locked;
use crate::reactor::{TimerQueue, WakeupBatch};

use crate::mmsg;

/// Faults applied to one direction of the socket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirFaults {
    /// Probability a datagram is silently discarded.
    pub drop_prob: f64,
    /// Probability a datagram is delivered twice.
    pub dup_prob: f64,
    /// Probability a datagram is held back before delivery (send only).
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

    /// Why the filter could not honour these faults, if it could not.
    fn refusal(&self) -> Option<&'static str> {
        let probs = [self.drop_prob, self.dup_prob, self.delay_prob];
        if !probs.iter().all(|p| (0.0..=1.0).contains(p)) {
            Some("fault probability outside [0, 1]")
        } else if self.delay_min > self.delay_max {
            Some("fault delay_min exceeds delay_max")
        } else {
            None
        }
    }
}

/// Full fault configuration for a socket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault stream (runs are reproducible by seed).
    pub seed: u64,
    /// Faults on outgoing datagrams.
    pub send: DirFaults,
    /// Faults on incoming datagrams. Delay is refused on this side:
    /// reordering is already covered by send-side delay.
    pub recv: DirFaults,
}

impl FaultConfig {
    /// The identity configuration: no faults.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Whether neither direction injects anything (the seed is then
    /// never drawn from).
    pub fn is_none(&self) -> bool {
        self.send.is_none() && self.recv.is_none()
    }

    /// `InvalidInput` unless the filter can honour every fault: each
    /// probability in `[0, 1]` (NaN is not), a delay range that is not
    /// inverted, and no receive-side delay.
    fn check(&self) -> io::Result<()> {
        let refusal = (self.send.refusal())
            .or(self.recv.refusal())
            .or((self.recv.delay_prob > 0.0).then_some("receive-side delay is not supported"));
        match refusal {
            Some(why) => Err(io::Error::new(io::ErrorKind::InvalidInput, why)),
            None => Ok(()),
        }
    }
}

/// What the filter does with one frame: deliver `copies` of it (0 is a
/// drop, 2 a duplicate), now or `hold` from now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fate {
    copies: usize,
    hold: Option<Duration>,
}

/// One direction of the filter: what it injects and, when the socket is
/// observed, the counters of what it did (`net.fault.*`).
struct Dir {
    faults: DirFaults,
    dropped: Option<Arc<Counter>>,
    dup: Option<Arc<Counter>>,
    delayed: Option<Arc<Counter>>,
}

impl Dir {
    /// The fault decision for one frame, the same for both directions:
    /// drop it, else duplicate and hold it
    /// independently. A direction that injects nothing draws nothing, so
    /// its traffic leaves the other direction's fault stream alone.
    fn fate(&self, rng: &mut ChaCha8Rng) -> Fate {
        let f = &self.faults;
        let mut fate = Fate {
            copies: 1,
            hold: None,
        };
        if f.is_none() {
            return fate;
        }
        if rng.random_bool(f.drop_prob) {
            count(&self.dropped);
            fate.copies = 0;
            return fate;
        }
        if rng.random_bool(f.dup_prob) {
            count(&self.dup);
            fate.copies = 2;
        }
        if rng.random_bool(f.delay_prob) {
            count(&self.delayed);
            let span = f.delay_max.saturating_sub(f.delay_min).as_nanos() as u64;
            fate.hold = Some(f.delay_min + Duration::from_nanos(rng.random_range(0..=span)));
        }
        fate
    }
}

fn count(counter: &Option<Arc<Counter>>) {
    if let Some(c) = counter {
        c.inc();
    }
}

/// A faulty socket's filter state: the seeded stream both directions
/// draw from, and the frames held back on send.
struct Filter {
    rng: ChaCha8Rng,
    send: Dir,
    recv: Dir,
    /// Delayed frames, each with its peer, in deadline order.
    held: TimerQueue<(SocketAddr, Vec<u8>)>,
    /// What the next send carries: the held frames now due, then what
    /// survives of the batch. Cleared, never freed.
    out: WakeupBatch,
}

impl Filter {
    fn new(cfg: FaultConfig, registry: Option<&Arc<Registry>>) -> Filter {
        let counter = |def| registry.map(|r| r.counter_def(def));
        Filter {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xFA17_50CC),
            send: Dir {
                faults: cfg.send,
                dropped: counter(&names::NET_FAULT_SEND_DROPPED),
                dup: counter(&names::NET_FAULT_SEND_DUP),
                delayed: counter(&names::NET_FAULT_SEND_DELAYED),
            },
            recv: Dir {
                faults: cfg.recv,
                dropped: counter(&names::NET_FAULT_RECV_DROPPED),
                dup: counter(&names::NET_FAULT_RECV_DUP),
                delayed: None,
            },
            held: TimerQueue::new(),
            out: WakeupBatch::new(),
        }
    }
}

/// A UDP socket with seeded, per-direction fault injection.
pub struct FaultySocket {
    sock: UdpSocket,
    /// `None` when the configuration injects nothing: a receive or a send
    /// is then the bare syscall.
    filter: Option<Mutex<Filter>>,
}

impl FaultySocket {
    /// Bind `addr` with faults per `cfg`; `InvalidInput` if the socket
    /// could not honour them (see [`FaultConfig::recv`]).
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: FaultConfig) -> io::Result<FaultySocket> {
        Self::bind_observed(addr, cfg, None)
    }

    /// Like [`bind`](Self::bind), with fault decisions counted into
    /// `registry` (`FaultConfig` is `Copy`, so the registry rides on the
    /// socket rather than the config).
    pub fn bind_observed<A: ToSocketAddrs>(
        addr: A,
        cfg: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> io::Result<FaultySocket> {
        cfg.check()?;
        Ok(FaultySocket {
            sock: UdpSocket::bind(addr)?,
            filter: (!cfg.is_none()).then(|| Mutex::new(Filter::new(cfg, registry))),
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// UDP-connect the underlying socket.
    pub fn connect<A: ToSocketAddrs>(&self, addr: A) -> io::Result<()> {
        self.sock.connect(addr)
    }

    /// Switch the socket to nonblocking mode (the reactor's drain
    /// contract: recv until `WouldBlock`).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.sock.set_nonblocking(nonblocking)
    }

    /// Hand every ready datagram (up to `max` off the socket) to `sink`
    /// and return how many frames it was handed: receive until
    /// `WouldBlock`, so the socket must be nonblocking. The backlog
    /// comes off in `recvmmsg` batches, one datagram per
    /// [`MAX_DATAGRAM`](tank_proto::MAX_DATAGRAM) slot of `scratch` (from
    /// [`recv_scratch`](crate::reactor::recv_scratch)). Receive faults
    /// apply per datagram: a dropped one never reaches `sink`, a
    /// duplicated one reaches it twice in a row.
    pub fn recv_ready(
        &self,
        scratch: &mut [u8],
        max: usize,
        mut sink: impl FnMut(&[u8], SocketAddr),
    ) -> usize {
        let Some(filter) = &self.filter else {
            return mmsg::recv_ready(&self.sock, scratch, max, sink);
        };
        let f = &mut *locked(filter);
        let mut frames = 0;
        mmsg::recv_ready(&self.sock, scratch, max, |bytes, peer| {
            let copies = f.recv.fate(&mut f.rng).copies;
            for _ in 0..copies {
                sink(bytes, peer);
            }
            frames += copies;
        });
        frames
    }

    /// Send every datagram of `batch` to its peer, in order, together
    /// with every held frame now due (those first). A failed send loses
    /// that one datagram — the peer's loss, as anywhere on UDP — and the
    /// rest still go. They leave in `sendmmsg` batches. Send
    /// faults apply per datagram: a dropped one is not sent, a
    /// duplicated one is sent twice in a row, and a delayed one (both
    /// copies, if duplicated) is held until a later call finds it due.
    pub fn send_all(&self, batch: &WakeupBatch) {
        let Some(filter) = &self.filter else {
            return mmsg::send_all(&self.sock, batch);
        };
        let f = &mut *locked(filter);
        let now = Instant::now();
        f.out.clear();
        while let Some((peer, bytes)) = f.held.pop_due(now) {
            f.out.push(peer, |arena| arena.extend_from_slice(&bytes));
        }
        for (peer, bytes) in batch.iter() {
            let fate = f.send.fate(&mut f.rng);
            for _ in 0..fate.copies {
                match fate.hold {
                    None => f.out.push(peer, |arena| arena.extend_from_slice(bytes)),
                    Some(after) => f.held.arm_at(now + after, (peer, bytes.to_vec())),
                }
            }
        }
        mmsg::send_all(&self.sock, &f.out);
    }

    /// When the earliest held frame falls due, if one is held: the host
    /// bounds its poll wait by it and flushes once it has passed.
    pub fn next_held(&self) -> Option<Instant> {
        locked(self.filter.as_ref()?).held.next_deadline()
    }
}

impl std::os::fd::AsRawFd for FaultySocket {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.sock.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::recv_scratch;

    /// A plain receiver on loopback.
    fn receiver() -> (UdpSocket, SocketAddr) {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = rx.local_addr().unwrap();
        (rx, addr)
    }

    /// A nonblocking sender with `cfg`'s faults.
    fn sender(cfg: FaultConfig) -> FaultySocket {
        let tx = FaultySocket::bind("127.0.0.1:0", cfg).unwrap();
        tx.set_nonblocking(true).unwrap();
        tx
    }

    fn send_faults(seed: u64, send: DirFaults) -> FaultConfig {
        FaultConfig {
            seed,
            send,
            ..FaultConfig::none()
        }
    }

    /// What `rx` holds once the senders are done, in arrival order.
    fn received(rx: &UdpSocket) -> Vec<Vec<u8>> {
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

    /// Flush `tx` as a host would until it holds nothing: sleep to the
    /// earliest held deadline, then send an empty outbox.
    fn release_held(tx: &FaultySocket) {
        while let Some(at) = tx.next_held() {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            tx.send_all(&WakeupBatch::new());
        }
    }

    #[test]
    fn clean_config_is_identity() {
        let (rx, to) = receiver();
        let tx = sender(FaultConfig::none());
        let batch = numbered(3, to);
        tx.send_all(&batch);
        assert_eq!(tx.next_held(), None);
        assert_eq!(received(&rx), datagrams_for(&batch, to));
    }

    #[test]
    fn send_drop_loses_every_datagram_at_p1() {
        let (rx, to) = receiver();
        let tx = sender(send_faults(1, DirFaults::dropping(1.0)));
        tx.send_all(&numbered(5, to));
        assert!(received(&rx).is_empty(), "all datagrams dropped");
    }

    #[test]
    fn send_dup_doubles_every_datagram_at_p1() {
        let (rx, to) = receiver();
        let tx = sender(send_faults(2, DirFaults::duplicating(1.0)));
        let mut batch = WakeupBatch::new();
        batch.push(to, |arena| arena.extend_from_slice(b"once"));
        tx.send_all(&batch);
        assert_eq!(
            received(&rx),
            [b"once", b"once"],
            "the duplicate arrives too"
        );
    }

    #[test]
    fn recv_dup_replays_the_datagram() {
        let cfg = FaultConfig {
            seed: 3,
            recv: DirFaults::duplicating(1.0),
            ..FaultConfig::none()
        };
        let rx = FaultySocket::bind("127.0.0.1:0", cfg).unwrap();
        rx.set_nonblocking(true).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"pkt", rx.local_addr().unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut got = Vec::new();
        let n = rx.recv_ready(&mut recv_scratch(), 16, |bytes, _| got.push(bytes.to_vec()));
        assert_eq!((n, got), (2, vec![b"pkt".to_vec(); 2]), "queued duplicate");
    }

    #[test]
    fn delayed_datagram_arrives_late() {
        let (rx, to) = receiver();
        let min = Duration::from_millis(80);
        let delay = DirFaults::delaying(1.0, min, Duration::from_millis(120));
        let tx = sender(send_faults(4, delay));
        let mut batch = WakeupBatch::new();
        batch.push(to, |arena| arena.extend_from_slice(b"slow"));
        let t0 = Instant::now();
        tx.send_all(&batch);
        // Flushes before the deadline send nothing.
        tx.send_all(&WakeupBatch::new());
        rx.set_nonblocking(true).unwrap();
        assert!(rx.recv(&mut [0u8; 8]).is_err(), "held, not sent");
        rx.set_nonblocking(false).unwrap();
        release_held(&tx);
        assert_eq!(received(&rx), [b"slow"]);
        assert!(t0.elapsed() >= min, "datagram was held back");
    }

    #[test]
    fn held_frames_all_leave_once_due() {
        // A burst of delayed datagrams all arrive, each once, and none
        // before its lower delay bound.
        let (rx, to) = receiver();
        let delay = DirFaults::delaying(1.0, Duration::from_millis(10), Duration::from_millis(60));
        let tx = sender(send_faults(7, delay));
        let t0 = Instant::now();
        let mut batch = WakeupBatch::new();
        for i in 0..20u8 {
            batch.push(to, |arena| arena.extend_from_slice(&[i]));
        }
        tx.send_all(&batch);
        release_held(&tx);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        let mut got: Vec<u8> = received(&rx).into_iter().map(|d| d[0]).collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn dropping_the_socket_discards_pending_delays_without_panicking() {
        let (rx, to) = receiver();
        let delay = DirFaults::delaying(1.0, Duration::from_secs(5), Duration::from_secs(5));
        let tx = sender(send_faults(8, delay));
        tx.send_all(&numbered(1, to));
        assert!(tx.next_held().is_some());
        drop(tx); // the 5s-out datagram dies with the socket
        assert!(received(&rx).is_empty(), "pending delayed send discarded");
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let pattern = |seed| {
            let (rx, to) = receiver();
            sender(send_faults(seed, DirFaults::dropping(0.5))).send_all(&numbered(32, to));
            received(&rx)
        };
        let first = pattern(9);
        assert!(
            !first.is_empty() && first.len() < 32,
            "{} kept",
            first.len()
        );
        assert_eq!(first, pattern(9));
    }

    #[test]
    fn send_all_delivers_an_outbox_longer_than_one_vector_in_order() {
        let (rx, to) = receiver();
        let tx = sender(FaultConfig::none());
        let batch = numbered(75, to);
        tx.send_all(&batch);
        assert_eq!(received(&rx), datagrams_for(&batch, to));
    }

    #[test]
    fn send_all_drops_a_refused_datagram_and_sends_the_rest() {
        // An IPv4 socket cannot send to an IPv6 address: the kernel
        // refuses those datagrams, wherever they sit in the outbox, and
        // everything around them still goes out.
        let (rx, to) = receiver();
        let tx = sender(FaultConfig::none());
        let bad: SocketAddr = "[::1]:9".parse().unwrap();
        let mut batch = numbered(40, to);
        for at in [0, 1, 17, 32, 39] {
            batch.frames[at].0 = bad;
        }
        tx.send_all(&batch);
        assert_eq!(received(&rx), datagrams_for(&batch, to));
    }

    #[test]
    fn send_all_goes_through_the_send_faults() {
        let (rx, to) = receiver();
        let batch = numbered(40, to);
        sender(send_faults(11, DirFaults::dropping(1.0))).send_all(&batch);
        assert!(received(&rx).is_empty(), "every datagram dropped");
        sender(send_faults(12, DirFaults::duplicating(1.0))).send_all(&batch);
        assert_eq!(received(&rx).len(), 80, "every datagram doubled");
    }

    #[test]
    fn send_all_sends_exactly_what_the_filter_kept_in_order() {
        // 75 frames, more than two send vectors: replaying the filter's
        // decisions from the same seed predicts every datagram the
        // receiver gets, duplicates beside their originals.
        let (rx, to) = receiver();
        let faults = DirFaults {
            drop_prob: 0.3,
            dup_prob: 0.3,
            ..DirFaults::none()
        };
        let cfg = send_faults(13, faults);
        let batch = numbered(75, to);
        sender(cfg).send_all(&batch);
        let mut replay = Filter::new(cfg, None);
        let mut want = Vec::new();
        let mut fates = [0; 3];
        for bytes in datagrams_for(&batch, to) {
            let fate = replay.send.fate(&mut replay.rng);
            fates[fate.copies] += 1;
            want.extend(std::iter::repeat_n(bytes, fate.copies));
        }
        assert!(
            fates.iter().all(|&n| n > 0),
            "drops, passes and dups: {fates:?}"
        );
        assert_eq!(received(&rx), want);
    }

    fn refused(cfg: FaultConfig) -> bool {
        let bound = FaultySocket::bind("127.0.0.1:0", cfg);
        matches!(bound, Err(e) if e.kind() == io::ErrorKind::InvalidInput)
    }

    #[test]
    fn a_receive_side_delay_is_refused() {
        let delay = DirFaults::delaying(0.1, Duration::ZERO, Duration::from_millis(5));
        let cfg = FaultConfig {
            recv: delay,
            ..FaultConfig::none()
        };
        assert!(refused(cfg));
        assert!(!refused(send_faults(0, delay)), "a send-side one is not");
    }

    #[test]
    fn a_probability_outside_the_unit_interval_is_refused() {
        for p in [-0.1, 1.5, f64::INFINITY] {
            assert!(refused(send_faults(0, DirFaults::dropping(p))), "{p}");
            let recv = FaultConfig {
                recv: DirFaults::duplicating(p),
                ..FaultConfig::none()
            };
            assert!(refused(recv), "{p}");
        }
        assert!(!refused(send_faults(0, DirFaults::dropping(1.0))));
    }

    #[test]
    fn a_nan_probability_is_refused() {
        let nan = DirFaults::delaying(f64::NAN, Duration::ZERO, Duration::ZERO);
        assert!(refused(send_faults(0, nan)));
        assert!(refused(send_faults(0, DirFaults::duplicating(f64::NAN))));
    }

    #[test]
    fn an_inverted_delay_range_is_refused() {
        let inverted = DirFaults::delaying(0.5, Duration::from_millis(9), Duration::from_millis(3));
        assert!(refused(send_faults(0, inverted)));
        let registry = Arc::new(Registry::new());
        let observed =
            FaultySocket::bind_observed("127.0.0.1:0", send_faults(0, inverted), Some(&registry));
        assert!(observed.is_err(), "bind_observed refuses it too");
    }
}
