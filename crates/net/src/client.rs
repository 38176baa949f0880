//! The synchronous UDP client.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tank_core::{ClientLease, LeaseAction, LeaseConfig, Phase};
use tank_obs::{names, Counter, Histogram, Registry};
use tank_proto::message::{FileAttr, FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{
    CtlMsg, Ino, LockMode, NackReason, NetMsg, NodeId, PushBody, ReqSeq, Request, SessionId,
    WireDecode, WireEncode, MAX_DATAGRAM,
};

use crate::fault::{FaultConfig, FaultySocket};
use crate::{locked, mono_now};

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetClientError {
    /// The server NACKed the request.
    Nacked(NackReason),
    /// The operation failed at the file-system level.
    Fs(FsError),
    /// No response within the retry budget.
    Timeout,
    /// Unexpected reply shape; carries the reply's kind label.
    Protocol(&'static str),
    /// Socket trouble.
    Io(String),
}

impl std::fmt::Display for NetClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetClientError::Nacked(r) => write!(f, "nacked: {r:?}"),
            NetClientError::Fs(e) => write!(f, "fs error: {e:?}"),
            NetClientError::Timeout => write!(f, "request timed out"),
            NetClientError::Protocol(kind) => {
                write!(f, "protocol violation: unexpected `{kind}` reply")
            }
            NetClientError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for NetClientError {}

type Result<T> = std::result::Result<T, NetClientError>;

/// Pre-resolved handles for the net-client metrics (`net.client.*` in
/// `tank_obs::names`). Resolved once at connect time so the request hot
/// path touches only atomics.
struct NetClientObs {
    timeouts: Arc<Counter>,
    rtt_ns: Arc<Histogram>,
    retransmissions: Arc<Histogram>,
    decode_errors: Arc<Counter>,
}

impl NetClientObs {
    fn new(registry: &Registry) -> NetClientObs {
        names::register_all(registry);
        NetClientObs {
            timeouts: registry.counter_def(&names::NET_CLIENT_TIMEOUTS),
            rtt_ns: registry.histogram_def(&names::NET_CLIENT_RTT_NS),
            retransmissions: registry.histogram_def(&names::NET_CLIENT_RETRANSMISSIONS),
            decode_errors: registry.counter_def(&names::NET_CLIENT_DECODE_ERRORS),
        }
    }
}

struct ClientState {
    lease: ClientLease,
    session: Option<SessionId>,
    next_seq: u64,
    pending: HashMap<ReqSeq, mpsc::Sender<ResponseOutcome>>,
    seen_pushes: std::collections::HashSet<u64>,
    /// Locks currently held (demands auto-release them).
    held: std::collections::HashSet<Ino>,
    /// The server incarnation stamped on the last response seen. A
    /// change means the server restarted since we last heard from it.
    server_incarnation: Option<u64>,
}

/// Request retry budget.
const RETRIES: u32 = 8;
/// Initial per-attempt timeout; doubles per retry up to [`MAX_RTO`].
const RTO: Duration = Duration::from_millis(150);
/// Backoff ceiling.
const MAX_RTO: Duration = Duration::from_secs(2);

/// A synchronous Storage Tank protocol client over UDP.
///
/// Every acknowledged request renews the lease from its *send* time; a
/// background thread mirrors the client lease machine's wakeup schedule
/// to send keep-alives while idle. Lock demands are answered
/// automatically (PushAck then release — this demo client holds no data
/// cache). Retransmissions reuse the request's sequence number (the
/// server's dedup window makes delivery at-most-once) under exponential
/// backoff with jitter; `Recovering` NACKs are retried after a delay,
/// and a stale session is transparently re-established with a fresh
/// Hello.
pub struct TankClient {
    sock: Arc<FaultySocket>,
    state: Arc<Mutex<ClientState>>,
    stop: Arc<AtomicBool>,
    rng: Mutex<ChaCha8Rng>,
    /// Metric handles when connected through [`TankClient::connect_observed`].
    obs: Option<NetClientObs>,
}

impl Drop for TankClient {
    fn drop(&mut self) {
        // Background threads watch this flag and exit within one read
        // timeout / sleep chunk.
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl TankClient {
    /// Connect (UDP-"connect") to a server and establish a session.
    pub fn connect(server: &str, lease: LeaseConfig) -> Result<TankClient> {
        Self::connect_with(server, lease, FaultConfig::none())
    }

    /// Connect through a fault-injecting socket (tests).
    pub fn connect_with(
        server: &str,
        lease: LeaseConfig,
        faults: FaultConfig,
    ) -> Result<TankClient> {
        Self::connect_observed(server, lease, faults, None)
    }

    /// Connect with metrics: per-request round-trip and retransmission
    /// histograms plus the socket's fault-injection counters land in
    /// `registry` (see OBSERVABILITY.md for the `net.*` metric names).
    pub fn connect_observed(
        server: &str,
        lease: LeaseConfig,
        faults: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> Result<TankClient> {
        let sock = FaultySocket::bind_observed("127.0.0.1:0", faults, registry)
            .map_err(|e| NetClientError::Io(e.to_string()))?;
        sock.connect(server)
            .map_err(|e| NetClientError::Io(e.to_string()))?;
        sock.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| NetClientError::Io(e.to_string()))?;
        let sock = Arc::new(sock);
        let state = Arc::new(Mutex::new(ClientState {
            lease: ClientLease::new(lease),
            session: None,
            next_seq: 1,
            pending: HashMap::new(),
            seen_pushes: std::collections::HashSet::new(),
            held: std::collections::HashSet::new(),
            server_incarnation: None,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let client = TankClient {
            sock: sock.clone(),
            state: state.clone(),
            stop: stop.clone(),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(faults.seed ^ 0xBAC0_FF5E)),
            obs: registry.map(|r| NetClientObs::new(r)),
        };
        {
            let (sock, state, stop) = (sock.clone(), state.clone(), stop.clone());
            let decode_errors = client.obs.as_ref().map(|o| o.decode_errors.clone());
            std::thread::spawn(move || {
                Self::recv_loop(&sock, &state, &stop, decode_errors.as_deref())
            });
        }
        std::thread::spawn(move || Self::lease_loop(&sock, &state, &stop));
        client.hello()?;
        Ok(client)
    }

    /// The receive loop: responses complete pending requests (and renew
    /// the lease); pushes are acknowledged and demands auto-released.
    /// Undecodable datagrams are counted (when observed) and dropped —
    /// the sender's retransmission path covers the loss.
    fn recv_loop(
        sock: &Arc<FaultySocket>,
        state: &Arc<Mutex<ClientState>>,
        stop: &AtomicBool,
        decode_errors: Option<&Counter>,
    ) {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        while !stop.load(Ordering::SeqCst) {
            let Ok(n) = sock.recv(&mut buf) else { continue };
            // Re-check after the blocking recv: a dropped client must not
            // answer a demand that raced with its own shutdown.
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let mut bytes = Bytes::copy_from_slice(&buf[..n]);
            let Ok(msg) = NetMsg::decode(&mut bytes) else {
                if let Some(c) = decode_errors {
                    c.inc();
                }
                continue;
            };
            match msg {
                NetMsg::Ctl(CtlMsg::Response(resp)) => {
                    let waiter = {
                        let mut st = locked(state);
                        st.server_incarnation = Some(resp.incarnation.0);
                        if resp.is_ack() {
                            st.lease.on_ack(resp.seq, mono_now());
                        } else if !matches!(
                            resp.outcome,
                            ResponseOutcome::Nacked(NackReason::Recovering)
                        ) {
                            // A Recovering NACK does not condemn the
                            // lease — it only means "ask again later".
                            st.lease.on_nack(mono_now());
                        }
                        st.pending.remove(&resp.seq)
                    };
                    if let Some(w) = waiter {
                        let _ = w.send(resp.outcome);
                    }
                }
                NetMsg::Ctl(CtlMsg::Push(push)) => {
                    Self::on_push(sock, state, push);
                }
                // A client never receives requests, is not on the SAN, and
                // takes no part in server-to-server log replication; all
                // three are misdirected traffic to ignore.
                NetMsg::Ctl(CtlMsg::Request(_)) | NetMsg::San(_) | NetMsg::Repl(_) => {}
            }
        }
    }

    fn on_push(
        sock: &Arc<FaultySocket>,
        state: &Arc<Mutex<ClientState>>,
        push: tank_proto::ServerPush,
    ) {
        let (session, fresh) = {
            let mut st = locked(state);
            (
                st.session.unwrap_or(SessionId(0)),
                st.seen_pushes.insert(push.push_seq),
            )
        };
        // Always ack.
        let ack = Self::raw_request(
            state,
            session,
            RequestBody::PushAck {
                push_seq: push.push_seq,
            },
        );
        let _ = sock.send(&ack.1);
        if !fresh {
            return;
        }
        if let PushBody::Demand { ino, epoch, .. } = push.body {
            // No data cache to flush in this client: release immediately,
            // naming the demanded grant.
            let (seq, bytes) =
                Self::raw_request(state, session, RequestBody::LockRelease { ino, epoch });
            let _ = seq;
            let _ = sock.send(&bytes);
            locked(state).held.remove(&ino);
        }
    }

    /// The keep-alive loop: sleeps until the lease machine's next wakeup
    /// and sends keep-alives when it asks for them.
    fn lease_loop(sock: &Arc<FaultySocket>, state: &Arc<Mutex<ClientState>>, stop: &AtomicBool) {
        while !stop.load(Ordering::SeqCst) {
            let (sleep_for, keepalive) = {
                let mut st = locked(state);
                let now = mono_now();
                let mut ka = false;
                for action in st.lease.poll(now) {
                    if action == LeaseAction::SendKeepAlive {
                        ka = true;
                    }
                }
                let next = st
                    .lease
                    .next_wakeup(now)
                    .map(|at| Duration::from_nanos(at.0.saturating_sub(now.0)))
                    .unwrap_or(Duration::from_millis(200));
                (next.max(Duration::from_millis(10)), ka)
            };
            if keepalive {
                let session = locked(state).session.unwrap_or(SessionId(0));
                let (_, bytes) = Self::raw_request(state, session, RequestBody::KeepAlive);
                let _ = sock.send(&bytes);
            }
            // Sleep in short chunks so drop is responsive.
            let mut left = sleep_for;
            while left > Duration::ZERO && !stop.load(Ordering::SeqCst) {
                let chunk = left.min(Duration::from_millis(50));
                std::thread::sleep(chunk);
                left = left.saturating_sub(chunk);
            }
        }
    }

    /// Allocate a sequence number, register the send with the lease
    /// machine, and encode the datagram. (No pending entry: fire-and-forget
    /// sends like PushAck/KeepAlive use this directly.)
    fn raw_request(
        state: &Arc<Mutex<ClientState>>,
        session: SessionId,
        body: RequestBody,
    ) -> (ReqSeq, Vec<u8>) {
        let mut st = locked(state);
        let seq = ReqSeq(st.next_seq);
        st.next_seq += 1;
        st.lease.on_send(seq, mono_now());
        let req = Request {
            src: NodeId(0),
            session,
            seq,
            body,
        };
        (seq, NetMsg::Ctl(CtlMsg::Request(req)).encoded().to_vec())
    }

    /// Multiply a timeout by a jitter factor in `[0.75, 1.25]` so retry
    /// storms from concurrent clients decorrelate.
    fn jitter(&self, d: Duration) -> Duration {
        let f = locked(&self.rng).random_range(0.75f64..=1.25);
        Duration::from_nanos((d.as_nanos() as f64 * f) as u64)
    }

    /// One request attempt cycle: same sequence number across
    /// retransmissions, per-attempt timeout doubling up to the ceiling.
    fn attempt(&self, body: RequestBody) -> Result<ReplyBody> {
        let (seq, bytes) = {
            let mut st = locked(&self.state);
            let session = st.session.unwrap_or(SessionId(0));
            let seq = ReqSeq(st.next_seq);
            st.next_seq += 1;
            st.lease.on_send(seq, mono_now());
            let req = Request {
                src: NodeId(0),
                session,
                seq,
                body,
            };
            (seq, NetMsg::Ctl(CtlMsg::Request(req)).encoded().to_vec())
        };
        let mut rto = RTO;
        let t0 = mono_now();
        for attempt in 0..=RETRIES {
            let (tx, rx) = mpsc::channel();
            locked(&self.state).pending.insert(seq, tx);
            self.sock
                .send(&bytes)
                .map_err(|e| NetClientError::Io(e.to_string()))?;
            let outcome = rx.recv_timeout(self.jitter(rto));
            if outcome.is_ok() {
                // A response of any flavour completes the round trip;
                // `attempt` counts the retransmissions it took (0 = the
                // first send was answered).
                if let Some(obs) = &self.obs {
                    obs.rtt_ns.observe(mono_now().0.saturating_sub(t0.0));
                    obs.retransmissions.observe(u64::from(attempt));
                }
            }
            match outcome {
                Ok(ResponseOutcome::Acked(Ok(reply))) => return Ok(reply),
                Ok(ResponseOutcome::Acked(Err(e))) => return Err(NetClientError::Fs(e)),
                Ok(ResponseOutcome::Nacked(r)) => return Err(NetClientError::Nacked(r)),
                Err(_) => {
                    // Lost or timed out: retry with the SAME seq (the
                    // server's dedup window makes this at-most-once) and
                    // back off exponentially.
                    locked(&self.state).pending.remove(&seq);
                    rto = (rto * 2).min(MAX_RTO);
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.timeouts.inc();
        }
        Err(NetClientError::Timeout)
    }

    /// Send a request, transparently riding out server recovery windows
    /// and stale sessions.
    fn request(&self, body: RequestBody) -> Result<ReplyBody> {
        // Recovering NACKs last at most one grace window τ(1+ε); the
        // wait budget here comfortably exceeds any test-scale window.
        let mut recovery_waits = 100u32;
        let mut rehellos = 2u32;
        loop {
            match self.attempt(body.clone()) {
                Err(NetClientError::Nacked(NackReason::Recovering)) if recovery_waits > 0 => {
                    recovery_waits -= 1;
                    std::thread::sleep(self.jitter(Duration::from_millis(100)));
                }
                Err(NetClientError::Nacked(
                    NackReason::StaleSession | NackReason::SessionExpired,
                )) if rehellos > 0 => {
                    rehellos -= 1;
                    self.hello()?;
                }
                other => return other,
            }
        }
    }

    fn hello(&self) -> Result<()> {
        let sent_at = mono_now();
        match self.attempt(RequestBody::Hello { map_epoch: 0 })? {
            ReplyBody::HelloOk { session, .. } => {
                let mut st = locked(&self.state);
                st.session = Some(session);
                st.lease.reset_session(sent_at, mono_now());
                st.held.clear();
                st.seen_pushes.clear();
                Ok(())
            }
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Current lease phase on this client's clock.
    pub fn lease_phase(&self) -> Phase {
        let mut st = locked(&self.state);
        let now = mono_now();
        let _ = st.lease.poll(now);
        st.lease.phase(now)
    }

    /// Number of lease renewals observed.
    pub fn renewals(&self) -> u64 {
        locked(&self.state).lease.renewal_count()
    }

    /// Keep-alives the lease machine has requested.
    pub fn keepalives(&self) -> u64 {
        locked(&self.state).lease.keepalive_count()
    }

    /// The incarnation number stamped on the last response seen (a
    /// change between observations means the server restarted).
    pub fn server_incarnation(&self) -> Option<u64> {
        locked(&self.state).server_incarnation
    }

    /// Create a file under `parent`.
    pub fn create(&self, parent: Ino, name: &str) -> Result<Ino> {
        match self.request(RequestBody::Create {
            parent,
            name: name.into(),
        })? {
            ReplyBody::Created { ino } => Ok(ino),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Make a directory.
    pub fn mkdir(&self, parent: Ino, name: &str) -> Result<Ino> {
        match self.request(RequestBody::Mkdir {
            parent,
            name: name.into(),
        })? {
            ReplyBody::Created { ino } => Ok(ino),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Resolve a name.
    pub fn lookup(&self, parent: Ino, name: &str) -> Result<(Ino, FileAttr)> {
        match self.request(RequestBody::Lookup {
            parent,
            name: name.into(),
        })? {
            ReplyBody::Resolved { ino, attr } => Ok((ino, attr)),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Fetch attributes.
    pub fn getattr(&self, ino: Ino) -> Result<FileAttr> {
        match self.request(RequestBody::GetAttr { ino })? {
            ReplyBody::Attr { attr } => Ok(attr),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// List a directory.
    pub fn readdir(&self, dir: Ino) -> Result<Vec<(String, Ino)>> {
        match self.request(RequestBody::ReadDir { dir })? {
            ReplyBody::Dir { entries } => Ok(entries),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Remove a file.
    pub fn unlink(&self, parent: Ino, name: &str) -> Result<()> {
        match self.request(RequestBody::Unlink {
            parent,
            name: name.into(),
        })? {
            ReplyBody::Ok => Ok(()),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Acquire a data lock; waits for the grant (the server answers when
    /// the lock becomes available).
    pub fn lock(&self, ino: Ino, mode: LockMode) -> Result<tank_proto::Epoch> {
        match self.request(RequestBody::LockAcquire { ino, mode })? {
            ReplyBody::LockGranted { epoch, .. } => {
                locked(&self.state).held.insert(ino);
                Ok(epoch)
            }
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Release a data lock (the grant to release is named by its epoch).
    pub fn release(&self, ino: Ino, epoch: tank_proto::Epoch) -> Result<()> {
        match self.request(RequestBody::LockRelease { ino, epoch })? {
            ReplyBody::Ok => {
                locked(&self.state).held.remove(&ino);
                Ok(())
            }
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// Send one explicit keep-alive (normally the background thread does
    /// this when the lease machine asks).
    pub fn keep_alive(&self) -> Result<()> {
        match self.request(RequestBody::KeepAlive)? {
            ReplyBody::Ok => Ok(()),
            unexpected => Err(NetClientError::Protocol(unexpected.kind())),
        }
    }

    /// The root inode of the server's namespace.
    pub fn root(&self) -> Ino {
        Ino(1)
    }
}
