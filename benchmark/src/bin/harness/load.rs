//! The load the generator offers `tankd`: set-up of the file set, the
//! per-slot op machines of each workload, and the closed- and open-loop
//! engines that run them from one thread.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

use tank_proto::message::{FsError, ReplyBody, RequestBody, ResponseOutcome};
use tank_proto::{Ino, LockMode, PushBody, Response, ServerPush};

use tank_benchmark::gen::{
    chain_key, chain_sockets, Arrival, LockStep, LockStream, MetaOp, MetaStream, Names, Workload,
    CHAINS, PRIVATE_PER_SLOT, ROOT, SHARED_FILES, SLOTS, SOCKETS, WINDOW,
};
use tank_benchmark::model::{Known, LockAudit, Shadow};
use tank_benchmark::procstat::{self, CpuTicks};

use crate::net::{Fleet, Incoming, Traffic};

/// Files created or queried per set-up datagram.
const SETUP_BATCH: usize = 128;
/// How long a phase waits for ops still in flight once it stops issuing;
/// whatever has not completed by then is counted as failed.
const DRAIN: Duration = Duration::from_secs(3);

/// A deliberate defect, to prove an output check bites (`--inject`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Flip one field of one reply before the shadow model sees it.
    CorruptReply,
    /// Never answer a `Demand` push.
    IgnoreDemand,
    /// Build the fault drill's clients without the phase-3 cache gate.
    NoPhase3Gate,
}

impl Inject {
    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Inject> {
        match s {
            "corrupt-reply" => Some(Inject::CorruptReply),
            "ignore-demand" => Some(Inject::IgnoreDemand),
            "no-phase3-gate" => Some(Inject::NoPhase3Gate),
            _ => None,
        }
    }
}

fn unexpected(what: &str, got: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("set-up: {what} answered {got:?}"))
}

/// One set-up `Batch` on `sock`; every element must be answered.
fn batch(
    fleet: &mut Fleet,
    sock: usize,
    elems: Vec<RequestBody>,
) -> io::Result<Vec<Result<ReplyBody, FsError>>> {
    let n = elems.len();
    match fleet.call(sock, RequestBody::Batch(elems))? {
        ResponseOutcome::Acked(Ok(ReplyBody::Batch(outcomes))) if outcomes.len() == n => {
            Ok(outcomes)
        }
        other => Err(unexpected("a batch", other)),
    }
}

/// Create `names` under the root and read back their attributes, in
/// batches, spreading the datagrams over the sessions.
fn create_files(fleet: &mut Fleet, names: &[String]) -> io::Result<Vec<Known>> {
    let mut known = Vec::with_capacity(names.len());
    for (i, chunk) in names.chunks(SETUP_BATCH).enumerate() {
        let sock = i % SOCKETS;
        let creates = chunk
            .iter()
            .map(|name| RequestBody::Create {
                parent: ROOT,
                name: name.clone(),
            })
            .collect();
        let mut inos = Vec::with_capacity(chunk.len());
        for o in batch(fleet, sock, creates)? {
            match o {
                Ok(ReplyBody::Created { ino }) => inos.push(ino),
                other => return Err(unexpected("Create", other)),
            }
        }
        let stats = inos
            .iter()
            .map(|&ino| RequestBody::GetAttr { ino })
            .collect();
        for (&ino, o) in inos.iter().zip(batch(fleet, sock, stats)?) {
            match o {
                Ok(ReplyBody::Attr { attr }) => known.push(Known { ino, attr }),
                other => return Err(unexpected("GetAttr", other)),
            }
        }
    }
    Ok(known)
}

/// The op machines of one workload: sequential slots that each have at
/// most one op in flight.
pub trait Load {
    /// Number of slots.
    fn slots(&self) -> usize;
    /// Begin `slot`'s next op.
    fn start(&mut self, slot: usize, fleet: &mut Fleet);
    /// A response arrived on `sock`. Returns the slot whose op it
    /// completed, if any.
    fn on_response(&mut self, sock: usize, resp: Response, fleet: &mut Fleet) -> Option<usize>;
    /// A push arrived on `sock`.
    fn on_push(&mut self, sock: usize, push: ServerPush, fleet: &mut Fleet);
}

/// Keep at most this many failure descriptions (the count is exact).
const KEEP_ERRORS: usize = 8;

/// `small` and `batch`: one datagram per op, checked against the shadow
/// namespace.
pub struct MetaLoad {
    workload: Workload,
    names: Names,
    shadow: Shadow,
    streams: Vec<MetaStream>,
    in_flight: Vec<Option<Vec<MetaOp>>>,
    pending: HashMap<(usize, u64), usize>,
    failed: u64,
    errors: Vec<String>,
    corrupt_next: bool,
}

impl MetaLoad {
    /// Create the file set on a fresh server and build the slots.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        fleet: &mut Fleet,
        inject: Option<Inject>,
    ) -> io::Result<MetaLoad> {
        let names = Names::new(seed);
        let shared_names: Vec<String> = (0..SHARED_FILES).map(|i| names.shared(i)).collect();
        let shared = create_files(fleet, &shared_names)?;
        let private_names: Vec<String> = (0..SLOTS)
            .flat_map(|s| (0..PRIVATE_PER_SLOT).map(move |j| (s, j)))
            .map(|(s, j)| names.private(s, j))
            .collect();
        let private = create_files(fleet, &private_names)?
            .chunks(PRIVATE_PER_SLOT)
            .map(|c| [c[0], c[1]])
            .collect();
        Ok(MetaLoad {
            workload,
            names,
            shadow: Shadow::new(shared, private),
            streams: (0..SLOTS)
                .map(|s| MetaStream::new(workload, seed, s))
                .collect(),
            in_flight: vec![None; SLOTS],
            pending: HashMap::new(),
            failed: 0,
            errors: Vec::new(),
            corrupt_next: inject == Some(Inject::CorruptReply),
        })
    }
}

/// Damage the first attribute a reply carries (the injected defect).
fn corrupt(outcome: &mut ResponseOutcome) -> bool {
    fn in_reply(r: &mut Result<ReplyBody, FsError>) -> bool {
        match r {
            Ok(ReplyBody::Attr { attr }) | Ok(ReplyBody::Resolved { attr, .. }) => {
                attr.size += 1;
                true
            }
            Ok(ReplyBody::Batch(elems)) => elems.iter_mut().any(in_reply),
            _ => false,
        }
    }
    match outcome {
        ResponseOutcome::Acked(r) => in_reply(r),
        ResponseOutcome::Nacked(_) => false,
    }
}

impl Load for MetaLoad {
    fn slots(&self) -> usize {
        SLOTS
    }

    fn start(&mut self, slot: usize, fleet: &mut Fleet) {
        let ops = self.streams[slot].next_unit();
        let body = |op: &MetaOp| op.body(slot, &self.names, &self.shadow);
        let request = match self.workload {
            Workload::Small => body(&ops[0]),
            _ => RequestBody::Batch(ops.iter().map(body).collect()),
        };
        let sock = slot % SOCKETS;
        let seq = fleet.send(sock, request);
        self.pending.insert((sock, seq), slot);
        self.in_flight[slot] = Some(ops);
    }

    fn on_response(&mut self, sock: usize, mut resp: Response, _: &mut Fleet) -> Option<usize> {
        let slot = self.pending.remove(&(sock, resp.seq.0))?;
        let ops = self.in_flight[slot].take().expect("pending slot has ops");
        if self.corrupt_next && corrupt(&mut resp.outcome) {
            self.corrupt_next = false;
        }
        if let Err(e) = self.shadow.check_unit(slot, &ops, &resp.outcome) {
            self.failed += 1;
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
        Some(slot)
    }

    fn on_push(&mut self, sock: usize, push: ServerPush, _: &mut Fleet) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors
                .push(format!("unexpected push on socket {sock}: {push:?}"));
        }
    }
}

impl MetaLoad {
    /// Ops answered wrongly or refused, and what was wrong with the
    /// first few.
    pub fn finish(self) -> (u64, Vec<String>) {
        (self.failed, self.errors)
    }
}

/// Where a lock chain's current step stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainState {
    Idle,
    /// Cycle: `LockAcquire` sent from `sock`.
    Acquiring {
        sock: usize,
        ino: Ino,
        mode: LockMode,
    },
    /// Cycle: `LockRelease` sent.
    Releasing,
    /// Hand-off: replies still owed (the grant, the `PushAck`'s answer,
    /// the `LockRelease`'s answer).
    HandingOff {
        owed: u8,
    },
}

struct Chain {
    stream: LockStream,
    hot: Ino,
    /// Which socket of the pair holds `hot` Exclusive.
    hot_side: usize,
    /// Which socket of the pair issues the next uncontended cycle.
    cycle_side: usize,
    state: ChainState,
}

/// What a pending request means to its chain.
#[derive(Debug, Clone, Copy)]
enum LockTag {
    CycleAcquire,
    CycleRelease,
    HandoffAcquire,
    /// `PushAck` or the demanded `LockRelease`.
    HandoffAux,
}

/// `lock`: chains of uncontended cycles and demand hand-offs, audited.
pub struct LockLoad {
    shared: Vec<Known>,
    chains: Vec<Chain>,
    by_hot: HashMap<Ino, usize>,
    pending: HashMap<(usize, u64), (usize, LockTag)>,
    audit: LockAudit,
    failed: u64,
    errors: Vec<String>,
    ignore_demands: bool,
}

impl LockLoad {
    /// Create the file set, give every chain a hot inode held
    /// `Exclusive` by the first socket of its pair, and build the chains.
    pub fn set_up(seed: u64, fleet: &mut Fleet, inject: Option<Inject>) -> io::Result<LockLoad> {
        let names = Names::new(seed);
        let shared_names: Vec<String> = (0..SHARED_FILES).map(|i| names.shared(i)).collect();
        let shared = create_files(fleet, &shared_names)?;
        let hot_names: Vec<String> = (0..CHAINS).map(|c| names.private(c, 0)).collect();
        let hot = create_files(fleet, &hot_names)?;
        let mut audit = LockAudit::new();
        let mut chains = Vec::with_capacity(CHAINS);
        let mut by_hot = HashMap::new();
        for (c, k) in hot.iter().enumerate() {
            let sock = chain_sockets(c)[0];
            let body = RequestBody::LockAcquire {
                ino: k.ino,
                mode: LockMode::Exclusive,
            };
            let epoch = match fleet.call(sock, body)? {
                ResponseOutcome::Acked(Ok(ReplyBody::LockGranted { epoch, .. })) => epoch,
                other => return Err(unexpected("LockAcquire", other)),
            };
            audit.on_grant(sock, k.ino, LockMode::Exclusive, epoch);
            by_hot.insert(k.ino, c);
            chains.push(Chain {
                stream: LockStream::new(seed, c),
                hot: k.ino,
                hot_side: 0,
                cycle_side: 0,
                state: ChainState::Idle,
            });
        }
        Ok(LockLoad {
            shared,
            chains,
            by_hot,
            pending: HashMap::new(),
            audit,
            failed: 0,
            errors: Vec::new(),
            ignore_demands: inject == Some(Inject::IgnoreDemand),
        })
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(what);
        }
    }
}

impl Load for LockLoad {
    fn slots(&self) -> usize {
        CHAINS
    }

    fn start(&mut self, c: usize, fleet: &mut Fleet) {
        let chain = &mut self.chains[c];
        debug_assert_eq!(chain.state, ChainState::Idle);
        let pair = chain_sockets(c);
        match chain.stream.next_step() {
            LockStep::Cycle { key, mode } => {
                let sock = pair[chain.cycle_side];
                chain.cycle_side ^= 1;
                let ino = self.shared[chain_key(c, key)].ino;
                chain.state = ChainState::Acquiring { sock, ino, mode };
                let seq = fleet.send(sock, RequestBody::LockAcquire { ino, mode });
                self.pending.insert((sock, seq), (c, LockTag::CycleAcquire));
            }
            LockStep::Handoff => {
                let sock = pair[chain.hot_side ^ 1];
                chain.state = ChainState::HandingOff { owed: 3 };
                let body = RequestBody::LockAcquire {
                    ino: chain.hot,
                    mode: LockMode::Exclusive,
                };
                let seq = fleet.send(sock, body);
                self.pending
                    .insert((sock, seq), (c, LockTag::HandoffAcquire));
            }
        }
    }

    fn on_response(&mut self, sock: usize, resp: Response, fleet: &mut Fleet) -> Option<usize> {
        let (c, tag) = self.pending.remove(&(sock, resp.seq.0))?;
        let state = self.chains[c].state;
        match (tag, state, &resp.outcome) {
            (
                LockTag::CycleAcquire,
                ChainState::Acquiring { ino, mode, .. },
                ResponseOutcome::Acked(Ok(ReplyBody::LockGranted {
                    ino: got,
                    mode: got_mode,
                    epoch,
                    ..
                })),
            ) if *got == ino && *got_mode == mode => {
                self.audit.on_grant(sock, ino, mode, *epoch);
                self.audit.on_release(sock, ino);
                self.chains[c].state = ChainState::Releasing;
                let seq = fleet.send(sock, RequestBody::LockRelease { ino, epoch: *epoch });
                self.pending.insert((sock, seq), (c, LockTag::CycleRelease));
                None
            }
            (
                LockTag::CycleRelease,
                ChainState::Releasing,
                ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
            ) => {
                self.chains[c].state = ChainState::Idle;
                Some(c)
            }
            (
                LockTag::HandoffAcquire,
                ChainState::HandingOff { owed },
                ResponseOutcome::Acked(Ok(ReplyBody::LockGranted {
                    ino,
                    mode: LockMode::Exclusive,
                    epoch,
                    ..
                })),
            ) if *ino == self.chains[c].hot => {
                self.audit.on_grant(sock, *ino, LockMode::Exclusive, *epoch);
                self.chains[c].hot_side ^= 1;
                self.settle_handoff(c, owed)
            }
            (
                LockTag::HandoffAux,
                ChainState::HandingOff { owed },
                ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
            ) => self.settle_handoff(c, owed),
            _ => {
                // A wrong or refused answer ends the step as a failure;
                // the chain moves on so one defect is one failed op.
                self.fail(format!(
                    "chain {c} in {state:?}: {tag:?} answered {:?}",
                    resp.outcome
                ));
                self.chains[c].state = ChainState::Idle;
                Some(c)
            }
        }
    }

    fn on_push(&mut self, sock: usize, push: ServerPush, fleet: &mut Fleet) {
        let PushBody::Demand { ino, epoch, .. } = push.body else {
            return self.fail(format!("unexpected push on socket {sock}: {push:?}"));
        };
        let Some(&c) = self.by_hot.get(&ino) else {
            return self.fail(format!("demand for a key no chain shares: {push:?}"));
        };
        self.audit.on_demand(sock, push.push_seq, ino);
        if self.ignore_demands {
            return;
        }
        self.audit.on_release(sock, ino);
        let ack = fleet.send(
            sock,
            RequestBody::PushAck {
                push_seq: push.push_seq,
            },
        );
        let release = fleet.send(sock, RequestBody::LockRelease { ino, epoch });
        self.pending.insert((sock, ack), (c, LockTag::HandoffAux));
        self.pending
            .insert((sock, release), (c, LockTag::HandoffAux));
        self.audit.on_demand_answered(sock, push.push_seq);
    }
}

impl LockLoad {
    /// One of a hand-off's three replies arrived.
    fn settle_handoff(&mut self, c: usize, owed: u8) -> Option<usize> {
        if owed > 1 {
            self.chains[c].state = ChainState::HandingOff { owed: owed - 1 };
            None
        } else {
            self.chains[c].state = ChainState::Idle;
            Some(c)
        }
    }

    /// Demand pushes the generator has received so far.
    pub fn demands(&self) -> u64 {
        self.audit.demands
    }

    /// Steps answered wrongly or refused, and every violation the audit
    /// found.
    pub fn finish(self) -> (u64, Vec<String>) {
        let mut errors = self.errors;
        errors.extend(self.audit.finish());
        (self.failed, errors)
    }
}

/// One closed-loop slice.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSlice {
    /// Datagram-level ops completed in the slice.
    pub units: u64,
    /// Its wall time.
    pub wall: Duration,
    /// `tankd` CPU consumed in it, nanoseconds (scheduler accounting).
    pub cpu_ns: u64,
    /// The same split into user and kernel mode (tick-sampled: coarse).
    pub cpu: CpuTicks,
}

/// One open-loop slice.
#[derive(Debug, Clone, Default)]
pub struct OpenSlice {
    /// Latency of every op due in the slice, from its due time to its
    /// last reply, nanoseconds, sorted.
    pub latency_ns: Vec<u64>,
    /// How late the generator started each op, nanoseconds, sorted.
    pub late_ns: Vec<u64>,
    /// Ops due in the slice.
    pub due: u64,
}

/// Totals of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Datagram-level ops started.
    pub started: u64,
    /// Ops that never completed within the drain.
    pub unfinished: u64,
    /// Datagrams that did not decode or matched no request.
    pub stray: u64,
    /// Datagram counts over the phase.
    pub traffic: Traffic,
}

/// Runs a [`Load`] against a [`Fleet`].
pub struct Engine<'a> {
    /// The sessions.
    pub fleet: &'a mut Fleet,
    /// The op machines.
    pub load: &'a mut dyn Load,
    /// `tankd`'s pid.
    pub pid: u32,
    /// Slots with an op in flight. A slot whose op never completed stays
    /// busy for the rest of the round: its protocol state is unknown, so
    /// it is never restarted and whatever is dealt to it counts as failed.
    pub busy: Vec<bool>,
}

fn traffic_since(now: Traffic, then: Traffic) -> Traffic {
    Traffic {
        sent: now.sent - then.sent,
        received: now.received - then.received,
    }
}

impl Engine<'_> {
    /// Deliver everything readable; `done` receives each slot whose op
    /// finished with the time its last reply was read.
    fn pump(&mut self, done: &mut Vec<(usize, Instant)>, stray: &mut u64) {
        let load = &mut *self.load;
        *stray += self.fleet.drain(|fleet, sock, msg| match msg {
            Incoming::Response(r) => {
                if let Some(slot) = load.on_response(sock, r, fleet) {
                    done.push((slot, Instant::now()));
                }
            }
            Incoming::Push(p) => load.on_push(sock, p, fleet),
        });
    }

    /// Closed loop: the first [`WINDOW`] slots each issue their next op
    /// the moment the previous one completes — for an unmeasured `warmup`
    /// (first-touch page faults, allocator growth), then for `slices`
    /// back-to-back slices of `slice` each; then the window drains.
    pub fn closed(
        &mut self,
        warmup: Duration,
        slices: usize,
        slice: Duration,
    ) -> io::Result<(Vec<ClosedSlice>, PhaseTotals)> {
        let traffic0 = self.fleet.traffic;
        let mut totals = PhaseTotals::default();
        let mut busy = 0usize;
        for slot in 0..WINDOW.min(self.load.slots()) {
            self.load.start(slot, self.fleet);
            self.busy[slot] = true;
            busy += 1;
        }
        totals.started = busy as u64;
        let mut out = Vec::with_capacity(slices);
        let mut done = Vec::new();
        let mut completed = 0u64;
        let cpu_now = |pid| Ok::<_, io::Error>((procstat::cpu_ns(pid)?, procstat::cpu_ticks(pid)?));
        let mut slice_start = (Instant::now(), cpu_now(self.pid)?, completed);
        let mut warming = !warmup.is_zero();
        let mut drain_until: Option<Instant> = None;
        while busy > 0 {
            self.fleet.wait(Duration::from_millis(5))?;
            self.pump(&mut done, &mut totals.stray);
            completed += done.len() as u64;
            let now = Instant::now();
            let (t0, cpu0, completed0) = slice_start;
            if warming {
                if now.duration_since(t0) >= warmup {
                    warming = false;
                    slice_start = (now, cpu_now(self.pid)?, completed);
                }
            } else if drain_until.is_none() && now.duration_since(t0) >= slice {
                let cpu = cpu_now(self.pid)?;
                out.push(ClosedSlice {
                    units: completed - completed0,
                    wall: now.duration_since(t0),
                    cpu_ns: cpu.0 - cpu0.0,
                    cpu: cpu.1.since(cpu0.1),
                });
                slice_start = (now, cpu, completed);
                if out.len() == slices {
                    drain_until = Some(now + DRAIN);
                }
            }
            for (slot, _) in done.drain(..) {
                if drain_until.is_some() {
                    self.busy[slot] = false;
                    busy -= 1;
                } else {
                    self.load.start(slot, self.fleet);
                    totals.started += 1;
                }
            }
            if drain_until.is_some_and(|deadline| now >= deadline) {
                break;
            }
        }
        totals.unfinished = busy as u64;
        totals.traffic = traffic_since(self.fleet.traffic, traffic0);
        Ok((out, totals))
    }

    /// Open loop: every arrival of `schedule` starts at its due time
    /// whether or not earlier ops have completed; an arrival whose slot
    /// is still busy waits in that slot's queue and its latency still
    /// runs from the due time. The generator never sleeps — at these
    /// rates the gaps are shorter than a timer can honour.
    pub fn open(
        &mut self,
        schedule: &[Arrival],
        slices: usize,
        slice: Duration,
    ) -> io::Result<(Vec<OpenSlice>, PhaseTotals)> {
        let traffic0 = self.fleet.traffic;
        let slice_ns = slice.as_nanos() as u64;
        let slice_of = |due_ns: u64| ((due_ns / slice_ns) as usize).min(slices - 1);
        let mut totals = PhaseTotals::default();
        let mut out = vec![OpenSlice::default(); slices];
        let nslots = self.load.slots();
        // Due time (ns from `t0`) of the op each slot is running, and of
        // the arrivals queued behind it.
        let mut running: Vec<Option<u64>> = vec![None; nslots];
        let mut queued: Vec<VecDeque<u64>> = vec![VecDeque::new(); nslots];
        let mut in_flight = 0usize;
        let mut done = Vec::new();
        let mut next = 0usize;
        let t0 = Instant::now();
        let mut drain_until: Option<u64> = None;
        loop {
            let now = t0.elapsed().as_nanos() as u64;
            while next < schedule.len() && schedule[next].at_ns <= now {
                let a = schedule[next];
                next += 1;
                let slot = a.slot as usize;
                out[slice_of(a.at_ns)].due += 1;
                if !self.busy[slot] {
                    self.busy[slot] = true;
                    running[slot] = Some(a.at_ns);
                    out[slice_of(a.at_ns)].late_ns.push(now - a.at_ns);
                    self.load.start(slot, self.fleet);
                    in_flight += 1;
                } else {
                    queued[slot].push_back(a.at_ns);
                }
            }
            self.fleet.wait(Duration::ZERO)?;
            self.pump(&mut done, &mut totals.stray);
            for (slot, at) in done.drain(..) {
                let at = at.duration_since(t0).as_nanos() as u64;
                // A reply that finally completes an op the closed loop
                // gave up on frees its slot but is nobody's latency.
                let Some(due) = running[slot].take() else {
                    self.busy[slot] = false;
                    continue;
                };
                out[slice_of(due)].latency_ns.push(at.saturating_sub(due));
                in_flight -= 1;
                self.busy[slot] = false;
                if let Some(due) = queued[slot].pop_front() {
                    self.busy[slot] = true;
                    running[slot] = Some(due);
                    out[slice_of(due)].late_ns.push(at.saturating_sub(due));
                    self.load.start(slot, self.fleet);
                    in_flight += 1;
                }
            }
            if next == schedule.len() {
                if in_flight == 0 {
                    break;
                }
                let now = t0.elapsed().as_nanos() as u64;
                if now >= *drain_until.get_or_insert(now + DRAIN.as_nanos() as u64) {
                    break;
                }
            }
        }
        let never_started: usize = queued.iter().map(VecDeque::len).sum();
        totals.started = schedule.len() as u64;
        totals.unfinished = (in_flight + never_started) as u64;
        totals.traffic = traffic_since(self.fleet.traffic, traffic0);
        for s in &mut out {
            s.latency_ns.sort_unstable();
            s.late_ns.sort_unstable();
        }
        Ok((out, totals))
    }
}
