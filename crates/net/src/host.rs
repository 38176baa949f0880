//! One UDP host for a node: the one place a sans-I/O actor meets a real
//! socket and the wall clock. A [`Host`] owns an [`Actor`] and all its
//! activations run against (an ideal clock over [`mono_now`], the rng,
//! the timers, an address book, a send arena) and runs it on the reactor
//! loop of DESIGN.md §15. `tankd` ([`crate::LeaseServer`]) and
//! `TankClient` are two actors on it, each activated with the
//! [`NodeCtx`] every protocol node takes. The state sits behind one
//! mutex, never held across the poll wait, so other threads can activate
//! the actor between wakeups and wait for what it observes.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tank_obs::{Counter, Histogram};
use tank_proto::{Event, NetMsg, NodeCtx, NodeId, WireEncode};
use tank_sim::{Actor, Clock, ClockSpec, Ctx, Effect, NetId, SimTime};

use crate::fault::FaultySocket;
use crate::mono_now;
use crate::poll::Poller;
use crate::reactor::{decode_each, drain_ready, recv_scratch, TimerQueue, WakeupBatch};

/// Longest poll timeout: bounds how late the loop notices a stop request,
/// a timer armed from another thread, or a frame held back by a send from
/// one.
const MAX_POLL: Duration = Duration::from_millis(25);
/// Replies queued before a batch flushes early. One `sendmmsg` vector:
/// a fuller outbox would not save a syscall, it would only make the
/// first replies of a long batch wait for the last request's execution.
const FLUSH_AT: usize = 32;
/// Most datagrams drained — and so executed and answered — per wakeup; a
/// deeper backlog surfaces on the next wakeup. Due timers fire between
/// batches, so this bounds how late a flood can make them.
const MAX_BATCH: usize = 1024;
/// Observations kept for [`Host::inspect`]; the oldest go first.
const EVENT_LOG_CAP: usize = 1 << 16;

/// What stands in for a network the host has no socket for: the reply, if
/// any, to a datagram sent there, delivered from its destination.
pub type Answerer = Box<dyn Fn(NetMsg) -> Option<NetMsg> + Send>;

/// The loop's instruments, each recorded when present.
#[derive(Default)]
pub struct HostObs {
    /// Poll wakeups that drained a datagram or fired a due timer
    /// (`net.reactor.wakeups`); an idle poll timeout is not one.
    pub wakeups: Option<Arc<Counter>>,
    /// Datagrams drained per such wakeup
    /// (`net.reactor.datagrams_per_wakeup`).
    pub datagrams_per_wakeup: Option<Arc<Histogram>>,
    /// Datagrams that did not decode (`net.client.decode_errors` or
    /// `net.server.decode_errors`).
    pub decode_errors: Option<Arc<Counter>>,
}

/// What every activation runs against.
struct State<A> {
    actor: A,
    clock: Clock,
    rng: ChaCha8Rng,
    /// Armed timers' tokens. A timer always fires: an actor that gave one
    /// up has forgotten its token.
    timers: TimerQueue<u64>,
    /// The effect buffer every activation is lent (see [`Ctx::new`]).
    effects: Vec<Effect<NetMsg, Event>>,
    /// Control-network addresses: node `n` is `addrs[n - 1]`. Static
    /// entries come first; an unknown sender is numbered on first contact.
    /// Peers choose their addresses, so `ids` keeps SipHash.
    ids: HashMap<SocketAddr, NodeId>,
    addrs: Vec<SocketAddr>,
    answerer: Option<Answerer>,
    /// The send arena: every datagram awaiting transmission, encoded
    /// back to back into one buffer and framed by its destination.
    /// [`Shared::flush`] clears it but never frees it, so it keeps the
    /// size of the largest flush. A send costs no buffer of its own.
    outbox: WakeupBatch,
    events: VecDeque<Event>,
    /// An activation observed something no waiter has been told of.
    observed: bool,
}

impl<A: Actor<NetMsg, Event>> State<A> {
    /// Run `f` against the actor at clock reading `now`, carry out its
    /// effects together (as the world does), then deliver the local
    /// answerer's replies, each an activation of its own.
    fn activate<R>(&mut self, now: SimTime, f: impl FnOnce(&mut A, &mut NodeCtx<'_>) -> R) -> R {
        // The host's node is 0 to itself; its peers tell it by address.
        let (clock, rng) = (&self.clock, &mut self.rng);
        let mut ctx = Ctx::new(NodeId(0), now, clock, rng, &mut self.effects);
        let out = f(&mut self.actor, &mut ctx);
        let mut effects = std::mem::take(&mut self.effects);
        let mut replies = Vec::new();
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { net, dst, msg } if net != NetId::CONTROL => {
                    if let Some(reply) = self.answerer.as_ref().and_then(|answer| answer(msg)) {
                        replies.push((dst, net, reply));
                    }
                }
                Effect::Send { dst, msg, .. } => {
                    if let Some(&addr) = self.addrs.get((dst.0 as usize).wrapping_sub(1)) {
                        self.outbox.push(addr, |arena| msg.encode(arena));
                    }
                }
                Effect::SetTimer { fire_at, token } => {
                    let after = Duration::from_nanos(fire_at.0.saturating_sub(now.0));
                    self.timers.arm(after, token);
                }
                Effect::Observe(ev) => {
                    if self.events.len() == EVENT_LOG_CAP {
                        self.events.pop_front();
                    }
                    self.events.push_back(ev);
                    self.observed = true;
                }
            }
        }
        // Handed back before the answerer's replies activate the actor
        // again: each nested activation borrows the same buffer.
        self.effects = effects;
        for (from, net, msg) in replies {
            self.deliver(now, from, net, msg);
        }
        out
    }

    fn deliver(&mut self, now: SimTime, from: NodeId, net: NetId, msg: NetMsg) {
        self.activate(now, |a, ctx| a.on_message(from, net, msg, ctx));
    }

    /// Fire every timer due at `now`: how many fired, and when the next
    /// is due.
    fn fire_due(&mut self, now: Instant) -> (usize, Option<Instant>) {
        let stamp = SimTime(mono_now().0);
        let mut fired = 0;
        while let Some(token) = self.timers.pop_due(now) {
            self.activate(stamp, |a, ctx| a.on_timer(token, ctx));
            fired += 1;
        }
        (fired, self.timers.next_deadline())
    }
}

struct Shared<A> {
    state: Mutex<State<A>>,
    /// Signalled whenever the actor observes something.
    changed: Condvar,
    sock: FaultySocket,
    stop: AtomicBool,
}

impl<A: Actor<NetMsg, Event>> Shared<A> {
    fn lock(&self) -> MutexGuard<'_, State<A>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Transmit, in order, what the activations queued, with any frame
    /// the socket's fault filter held back that is now due, and wake the
    /// waiters if they observed anything. The arena and its frames are
    /// cleared for the next activations, their capacity kept: a host in
    /// steady state allocates nothing to send.
    fn flush(&self, st: &mut State<A>) {
        let held_due = |at| at <= Instant::now();
        if !st.outbox.is_empty() || self.sock.next_held().is_some_and(held_due) {
            self.sock.send_all(&st.outbox);
            st.outbox.clear();
        }
        if std::mem::take(&mut st.observed) {
            self.changed.notify_all();
        }
    }

    /// The reactor loop: fire due timers, wait for readiness bounded by
    /// the next deadline (a timer's, or a frame's the fault filter holds),
    /// drain up to [`MAX_BATCH`] datagrams, hand them to the actor in
    /// arrival order, and flush the replies a `sendmmsg` vector at a
    /// time. A socket that is never empty delays due timers by one batch
    /// at most. Everything drained is answered before a stop.
    /// A pass is recorded as a wakeup only if it fired a due timer or
    /// drained a datagram: an idle poll timeout found no work.
    fn run(&self, mut poller: Poller, obs: HostObs) {
        let mut scratch = recv_scratch();
        let mut batch = WakeupBatch::new();
        let mut msgs: Vec<(SocketAddr, NetMsg)> = Vec::new();
        loop {
            let (mut st, now) = (self.lock(), Instant::now());
            let (fired, timer) = st.fire_due(now);
            self.flush(&mut st);
            drop(st);
            let next = timer.into_iter().chain(self.sock.next_held()).min();
            // The poller waits at least 1 ms, so a deadline under a
            // millisecond away cannot make this loop spin.
            let wait = next.map_or(MAX_POLL, |at| at.saturating_duration_since(now));
            let wait = wait.min(MAX_POLL);
            let ready = poller.wait(wait).is_ok_and(|tokens| !tokens.is_empty());
            // A stopped node must not answer what raced its stop.
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut drained = 0;
            if ready {
                drained = drain_ready(&self.sock, &mut scratch, &mut batch, MAX_BATCH);
                let errors = decode_each(&batch, |peer, msg| msgs.push((peer, msg)));
                if let (Some(c), true) = (&obs.decode_errors, errors > 0) {
                    c.add(errors as u64);
                }
                let mut st = self.lock();
                // One reading per batch, after the drain, never before it:
                // an ACK stamped with it bounds the lease it renews.
                let now = SimTime(mono_now().0);
                for (peer, msg) in msgs.drain(..) {
                    let next = NodeId(st.addrs.len() as u32 + 1);
                    let from = *st.ids.entry(peer).or_insert(next);
                    if from == next {
                        st.addrs.push(peer);
                    }
                    st.deliver(now, from, NetId::CONTROL, msg);
                    if st.outbox.len() >= FLUSH_AT {
                        self.flush(&mut st);
                    }
                }
                self.flush(&mut st);
            }
            if fired == 0 && drained == 0 {
                continue;
            }
            if let Some(c) = &obs.wakeups {
                c.inc();
            }
            if let Some(h) = &obs.datagrams_per_wakeup {
                h.observe(drained as u64);
            }
        }
    }
}

/// An actor on a UDP socket and a thread of its own. Dropping the host
/// stops the thread; [`stop`](Self::stop) also reports how it ended.
pub struct Host<A> {
    shared: Arc<Shared<A>>,
    thread: Option<JoinHandle<()>>,
}

impl<A> Drop for Host<A> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.take().map(JoinHandle::join);
    }
}

impl<A: Actor<NetMsg, Event> + Send> Host<A> {
    /// Run `actor` on `sock`: its `on_start` on this thread, then the
    /// reactor loop on a thread of its own. Node `n`'s control address is
    /// `book[n - 1]`; senders not in it are numbered on first contact. A
    /// send on any other network goes to `answerer`, or nowhere. `seed`
    /// seeds the actor's rng; `obs` names the loop's instruments.
    pub fn spawn(
        actor: A,
        sock: FaultySocket,
        book: Vec<SocketAddr>,
        answerer: Option<Answerer>,
        seed: u64,
        obs: HostObs,
    ) -> io::Result<Host<A>> {
        sock.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(&sock, 0)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                actor,
                clock: Clock::new(ClockSpec::ideal()),
                rng: ChaCha8Rng::seed_from_u64(seed),
                timers: TimerQueue::new(),
                effects: Vec::new(),
                ids: book.iter().zip(1..).map(|(&a, n)| (a, NodeId(n))).collect(),
                addrs: book,
                answerer,
                outbox: WakeupBatch::new(),
                events: VecDeque::new(),
                observed: false,
            }),
            changed: Condvar::new(),
            sock,
            stop: AtomicBool::new(false),
        });
        let mut host = Host {
            shared: shared.clone(),
            thread: None,
        };
        host.activate(|a, ctx| a.on_start(ctx));
        host.thread = Some(std::thread::spawn(move || shared.run(poller, obs)));
        Ok(host)
    }

    /// Run `f` against the actor now, from any thread, and send its sends.
    pub fn activate<R>(&self, f: impl FnOnce(&mut A, &mut NodeCtx<'_>) -> R) -> R {
        let mut st = self.shared.lock();
        let out = st.activate(SimTime(mono_now().0), f);
        self.shared.flush(&mut st);
        out
    }

    /// Wait up to `timeout` until `probe`, shown the actor and its
    /// observations each time they change, returns something.
    pub fn wait<R>(
        &self,
        timeout: Duration,
        mut probe: impl FnMut(&mut A, &VecDeque<Event>) -> Option<R>,
    ) -> Option<R> {
        let (mut out, shared) = (None, &self.shared);
        let waited = shared
            .changed
            .wait_timeout_while(shared.lock(), timeout, |st| {
                out = probe(&mut st.actor, &st.events);
                out.is_none()
            });
        drop(waited.unwrap_or_else(PoisonError::into_inner));
        out
    }

    /// Look at the actor and its observations (the last 65 536, oldest
    /// first) between activations.
    pub fn inspect<R>(&self, f: impl FnOnce(&mut A, &VecDeque<Event>) -> R) -> R {
        let st = &mut *self.shared.lock();
        f(&mut st.actor, &st.events)
    }

    /// Stop the loop and wait for its thread, re-raising its panic if it
    /// died of one: a dead loop must not pass for a stopped one.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(Err(panic)) = self.thread.take().map(JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
    }
}
