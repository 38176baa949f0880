//! The Storage Tank client over UDP.
//!
//! [`TankClient`] is the second driver of the simulator's client,
//! [`tank_client::ClientNode`]: one thread reads the socket and fires the
//! node's timers on the wall clock, and callers hand it operations. The
//! protocol — sessions, the four lease phases, retransmission, batching,
//! the lock-protected block and attribute caches, lazy release, demand
//! hand-back — is the node's, unchanged. This crate only carries out the
//! effects each activation leaves in its [`Ctx`]:
//!
//! * control sends leave on the socket, to `tankd` ([`SERVER`] to the
//!   node; `tankd` tells clients apart by address);
//! * timers go into a [`TimerQueue`] under the node's timer ids;
//! * `tankd` has no SAN, so a SAN request is answered in-process with
//!   [`SanError::DeviceError`] and a data op that needs a block fails
//!   instead of hanging; [`TankClient::run`] refuses a `Write` outright,
//!   since nothing could ever harden it;
//! * observations are the node's [`Event`] stream — the vocabulary the
//!   simulator's checker reads — kept for [`TankClient::events`].
//!
//! Time is [`mono_now`] read as true time through an ideal clock, so the
//! node's local clock is the process's monotonic clock.

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tank_client::fs::FsResult;
use tank_client::{ClientConfig, ClientNode, FsErr, FsOp};
use tank_core::LeaseConfig;
use tank_net::reactor::TimerQueue;
use tank_net::{mono_now, FaultConfig, FaultySocket};
use tank_obs::{names, Counter, Registry};
use tank_proto::{Event, NetMsg, NodeId, SanError, SanMsg, WireDecode, WireEncode, MAX_DATAGRAM};
use tank_sim::{Actor, Clock, ClockSpec, Ctx, Effect, NetId, SimTime, TimerId};

/// `tankd`, as the node addresses it.
pub const SERVER: NodeId = NodeId(1);
/// The one disk the node stripes blocks over; only this driver answers.
const NO_DISK: NodeId = NodeId(2);
/// Longest socket wait. Bounds how late a timer armed from a caller's
/// thread fires, and how long dropping the client takes.
const MAX_WAIT: Duration = Duration::from_millis(25);
/// Shortest socket wait (a zero read timeout is an error).
const MIN_WAIT: Duration = Duration::from_millis(1);
/// How long [`TankClient::connect`] waits for the first session.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Events kept for [`TankClient::events`]; the oldest go first.
const EVENT_LOG_CAP: usize = 1 << 16;

type Node = ClientNode<Event>;
type NodeCtx<'a> = Ctx<'a, NetMsg, Event>;

/// What every activation runs against.
struct State {
    node: Node,
    clock: Clock,
    rng: ChaCha8Rng,
    next_timer_id: u64,
    timers: TimerQueue<(TimerId, u64)>,
    cancelled: HashSet<TimerId>,
    events: VecDeque<Event>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled whenever the node emits events.
    changed: Condvar,
    sock: FaultySocket,
    stop: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` against the node now and carry out its effects, then
    /// deliver the SAN refusals they call for.
    fn activate<R>(&self, st: &mut State, f: impl FnOnce(&mut Node, &mut NodeCtx<'_>) -> R) -> R {
        let (out, mut refusals) = self.step(st, f);
        while let Some(msg) = refusals.pop_front() {
            let deliver =
                |n: &mut Node, ctx: &mut NodeCtx<'_>| n.on_message(NO_DISK, NetId::SAN, msg, ctx);
            refusals.extend(self.step(st, deliver).1);
        }
        out
    }

    fn step<R>(
        &self,
        st: &mut State,
        f: impl FnOnce(&mut Node, &mut NodeCtx<'_>) -> R,
    ) -> (R, VecDeque<NetMsg>) {
        let now = SimTime(mono_now().0);
        let mut ctx = Ctx::new(
            NodeId(0),
            now,
            &st.clock,
            &mut st.rng,
            &mut st.next_timer_id,
        );
        let out = f(&mut st.node, &mut ctx);
        let mut refusals = VecDeque::new();
        let mut observed = false;
        for effect in ctx.into_effects() {
            match effect {
                Effect::Send {
                    msg: NetMsg::San(req),
                    ..
                } => refusals.extend(refusal(req)),
                Effect::Send { msg, .. } => {
                    // A lost datagram is the retransmit timer's business.
                    let _ = self.sock.send(&msg.encoded());
                }
                Effect::SetTimer { fire_at, id, token } => {
                    let after = Duration::from_nanos(fire_at.0.saturating_sub(now.0));
                    st.timers.arm(after, (id, token));
                }
                Effect::CancelTimer(id) => {
                    st.cancelled.insert(id);
                }
                Effect::Observe(ev) => {
                    if st.events.len() == EVENT_LOG_CAP {
                        st.events.pop_front();
                    }
                    st.events.push_back(ev);
                    observed = true;
                }
                Effect::Trace(_) => {}
            }
        }
        if observed {
            self.changed.notify_all();
        }
        (out, refusals)
    }

    /// Fire every timer that is due and not cancelled.
    fn fire_due(&self, st: &mut State) {
        let now = Instant::now();
        while let Some((id, token)) = st.timers.pop_due(now) {
            if !st.cancelled.remove(&id) {
                self.activate(st, |n, ctx| n.on_timer(token, ctx));
            }
        }
    }
}

/// What the missing SAN answers to `req`: the device failed.
fn refusal(req: SanMsg) -> Option<NetMsg> {
    let err = SanError::DeviceError;
    let resp = match req {
        SanMsg::ReadBlock { req_id, .. } => SanMsg::ReadResp {
            req_id,
            result: Err(err),
        },
        SanMsg::WriteBlock { req_id, .. } => SanMsg::WriteResp {
            req_id,
            result: Err(err),
        },
        SanMsg::ReadResp { .. }
        | SanMsg::WriteResp { .. }
        | SanMsg::FenceCmd { .. }
        | SanMsg::FenceResp { .. } => return None,
    };
    Some(NetMsg::San(resp))
}

/// The driver thread: fire due timers, wait for a datagram until the
/// next deadline, hand it to the node.
fn drive(shared: &Shared, decode_errors: Option<Arc<Counter>>) {
    let mut buf = vec![0u8; MAX_DATAGRAM];
    while !shared.stop.load(Ordering::SeqCst) {
        let wait = {
            let mut st = shared.lock();
            shared.fire_due(&mut st);
            let next = st.timers.next_deadline();
            next.map_or(MAX_WAIT, |at| at.saturating_duration_since(Instant::now()))
        };
        // A failed receive is a timeout or an ICMP error from a server
        // that is down: either way, go round again.
        let _ = shared
            .sock
            .set_read_timeout(Some(wait.clamp(MIN_WAIT, MAX_WAIT)));
        let Ok(n) = shared.sock.recv(&mut buf) else {
            continue;
        };
        // A dropped client must not answer a demand that raced its drop.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match NetMsg::decode(&mut Bytes::copy_from_slice(&buf[..n])) {
            Ok(msg) => {
                let deliver = |n: &mut Node, ctx: &mut NodeCtx<'_>| {
                    n.on_message(SERVER, NetId::CONTROL, msg, ctx)
                };
                shared.activate(&mut shared.lock(), deliver);
            }
            Err(_) => {
                if let Some(c) = &decode_errors {
                    c.inc();
                }
            }
        }
    }
}

/// A Storage Tank client of one `tankd`, over UDP: a [`ClientNode`] on a
/// thread of its own. Dropping it stops the thread and closes the socket.
pub struct TankClient {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for TankClient {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl TankClient {
    /// [`ClientConfig::new`]'s defaults against [`SERVER`] and the
    /// placeholder disk, under `lease`: the configuration
    /// [`connect`](Self::connect) expects.
    pub fn config(lease: LeaseConfig) -> ClientConfig {
        let mut cfg = ClientConfig::new(SERVER, vec![NO_DISK]);
        cfg.lease = lease;
        cfg
    }

    /// Bind a socket to `server`, start the node on its thread, and
    /// return once its first session is open. `cfg` comes from
    /// [`config`](Self::config); `faults` apply to the socket. With a
    /// `registry`, the node records the full `client.*` metric set and
    /// the socket its `net.fault.*` counters.
    pub fn connect(
        server: &str,
        cfg: ClientConfig,
        faults: FaultConfig,
        registry: Option<&Arc<Registry>>,
    ) -> io::Result<TankClient> {
        let peer = server.to_socket_addrs()?.next();
        let peer = peer.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let local = if peer.is_ipv4() {
            "0.0.0.0:0"
        } else {
            "[::]:0"
        };
        let sock = FaultySocket::bind_observed(local, faults, registry)?;
        sock.connect(peer)?;
        let mut node = ClientNode::new(cfg, Box::new(Some));
        if let Some(r) = registry {
            node.set_obs(r.clone());
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                node,
                clock: Clock::new(ClockSpec::ideal()),
                rng: ChaCha8Rng::seed_from_u64(faults.seed),
                next_timer_id: 0,
                timers: TimerQueue::new(),
                cancelled: HashSet::new(),
                events: VecDeque::new(),
            }),
            changed: Condvar::new(),
            sock,
            stop: AtomicBool::new(false),
        });
        shared.activate(&mut shared.lock(), |n, ctx| n.on_start(ctx));
        let decode_errors = registry.map(|r| r.counter_def(&names::NET_CLIENT_DECODE_ERRORS));
        let driver = shared.clone();
        let thread = std::thread::spawn(move || drive(&driver, decode_errors));
        let client = TankClient {
            shared,
            thread: Some(thread),
        };
        let resumed = Event::Resumed { shard: 0 };
        let no_session = |st: &mut State| !st.events.contains(&resumed);
        let (st, waited) = (client.shared.changed)
            .wait_timeout_while(client.shared.lock(), CONNECT_TIMEOUT, no_session)
            .unwrap_or_else(PoisonError::into_inner);
        drop(st);
        if waited.timed_out() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no session"));
        }
        Ok(client)
    }

    /// Run one operation and wait for its result.
    pub fn run(&self, op: FsOp) -> FsResult {
        if let FsOp::Write { .. } = op {
            return Err(FsErr::Invalid);
        }
        let mut st = self.shared.lock();
        let id = self.shared.activate(&mut st, |n, ctx| n.submit(op, ctx));
        loop {
            if let Some(result) = st.node.take_result(id) {
                return result;
            }
            st = (self.shared.changed.wait(st)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The node's events so far, oldest first (the last 65 536 of them).
    pub fn events(&self) -> Vec<Event> {
        self.shared.lock().events.iter().copied().collect()
    }

    /// Look at the node (its lease, its counters) between activations.
    pub fn inspect<R>(&self, f: impl FnOnce(&Node) -> R) -> R {
        f(&self.shared.lock().node)
    }
}
