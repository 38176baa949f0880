//! The lease lanes: the request engine (coalescing, the one retransmit
//! deadline), the session and its Hello, re-homing, the four-phase lease
//! pump, and what a response or a NACK does to a lane.

use super::*;

impl ClientNode {
    /// Swap the lane's address with its alternate, if one is configured.
    /// Called when the current address stops answering as the shard's
    /// primary (a `NotPrimary` redirect, or silence long enough to expire
    /// the lease locally). The swap is symmetric: if the alternate turns
    /// out not to be primary either, its redirect rotates us back, and
    /// [`HELLO_RETRY`] pacing keeps the ping-pong bounded until an
    /// election settles the question. The incarnation watch is cleared —
    /// the new address is a different server whose incarnation we have
    /// not seen yet, not a restart of the old one.
    fn rotate_lane(&mut self, lane: usize, ctx: &mut NodeCtx<'_>) -> bool {
        let l = &mut self.lanes[lane];
        let Some(alt) = l.alt else { return false };
        let old = std::mem::replace(&mut l.addr, alt);
        l.alt = Some(old);
        l.server_incarnation = None;
        l.session = None;
        let sid = l.sid;
        if let Some(obs) = &self.obs {
            obs.trace(ctx, "rotate", || {
                format!("shard={} from={} to={}", sid.0, old.0, alt.0)
            });
        }
        true
    }

    /// Rotate away from an address that went silent: the lease ran out
    /// locally, or a Hello went unanswered. Silence is what a dead
    /// primary looks like, so for τ(1+ε) from the first such departure
    /// the lane stays at the new address through its `NotPrimary`
    /// redirects — an election there is at most that far off — and
    /// re-`Hello`s every τ/40. Past that deadline the silent address may
    /// be a live primary we are merely cut off from, and the lane
    /// alternates as before. The deadline is not re-armed by later
    /// departures; the next session clears it.
    fn leave_silent(&mut self, lane: usize, ctx: &mut NodeCtx<'_>) {
        if self.rotate_lane(lane, ctx) {
            let deadline = ctx.now().plus(self.cfg.lease.server_timeout());
            self.lanes[lane].rehome_until.get_or_insert(deadline);
        }
    }

    /// Send lane `lane`'s Hello again after `delay`, unless it has a
    /// session by then.
    fn retry_hello(&mut self, lane: usize, delay: LocalNs, ctx: &mut NodeCtx<'_>) {
        let token = self.timers.insert(ClientTimer::HelloRetry(lane));
        ctx.set_timer(delay, token);
    }

    // ------------------------------------------------------- request engine

    /// Entry point for every control-path request. With batching enabled
    /// (`batch_cap > 1`) a batchable body leaves at once on an idle lane
    /// and otherwise queues behind the lane's `gate` until that is
    /// answered or retransmitted, the batch fills, or a sync point. With
    /// the default `batch_cap = 1` nothing ever queues: this is a straight
    /// passthrough to [`send_now`](Self::send_now).
    pub(super) fn send_request(
        &mut self,
        lane: usize,
        body: RequestBody,
        purpose: Purpose,
        retry: bool,
        ctx: &mut NodeCtx<'_>,
    ) {
        self.note_mutation(&body);
        if self.cfg.batch_cap <= 1 || !body.batchable() {
            // Sync point: anything already queued (e.g. a CommitWrite)
            // must reach the server before this request executes, so the
            // server still sees a lane's requests in issue order.
            self.flush_batch(lane, FLUSH_SYNC, ctx);
            self.send_now(lane, body, purpose, retry, ctx);
            return;
        }
        // Urgent traffic — lease maintenance, push acks, and lock
        // handovers — keeps its latency: it flushes the lane immediately,
        // carrying whatever else had gathered along for free.
        let urgent = matches!(
            purpose,
            Purpose::KeepAlive
                | Purpose::PushAckSend
                | Purpose::ReleaseStale
                | Purpose::Release { .. }
        );
        let cap = self.batch_cap();
        let l = &mut self.lanes[lane];
        l.queue.push((body, purpose, retry));
        let gate_age = l.gate.map(|(_, sent)| ctx.now().minus(sent));
        if urgent {
            self.flush_batch(lane, FLUSH_SYNC, ctx);
        } else if l.queue.len() >= cap {
            self.flush_batch(lane, FLUSH_SIZE, ctx);
        } else if gate_age.is_none_or(|age| age > l.gate_rtt.times(2)) {
            self.flush_batch(lane, FLUSH_IDLE, ctx);
        }
    }

    /// Elements per coalesced request.
    pub(super) fn batch_cap(&self) -> usize {
        self.cfg.batch_cap.min(tank_proto::MAX_BATCH_ELEMS)
    }

    /// An own request that changes an inode at the server outdates
    /// whatever attributes are cached under its lock.
    pub(super) fn note_mutation(&mut self, body: &RequestBody) {
        if let Some(ino) = mutated_ino(body) {
            if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                info.mutations += 1;
                info.attr = None;
            }
        }
    }

    /// `seq` was answered (or else retransmitted): if the lane's queue
    /// was waiting behind it, the wait is over.
    fn open_gate(&mut self, lane: usize, seq: ReqSeq, answered: bool, ctx: &mut NodeCtx<'_>) {
        let l = &mut self.lanes[lane];
        if let Some((_, sent)) = l.gate.take_if(|(gate, _)| *gate == seq) {
            if answered {
                l.gate_rtt = ctx.now().minus(sent);
            }
            self.flush_batch(lane, FLUSH_ACK, ctx);
        }
    }

    /// Flush a lane's coalescing queue: one element goes out bare (a
    /// batch of one would only add framing), more go out as a single
    /// [`RequestBody::Batch`] under one sequence number — one message,
    /// one ACK, one opportunistic renewal (§3.1). The message is
    /// retransmitted iff any element asked to be, and then gates the lane.
    pub(super) fn flush_batch(&mut self, lane: usize, reason: u64, ctx: &mut NodeCtx<'_>) {
        let mut queue = std::mem::take(&mut self.lanes[lane].queue);
        if queue.is_empty() {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.batch_size.observe(queue.len() as u64);
            obs.batch_flush_reason.observe(reason);
        }
        let retry = queue.iter().any(|(_, _, retry)| *retry);
        let (body, purpose) = if queue.len() == 1 {
            let (body, purpose, _) = queue.pop().expect("one element");
            (body, purpose)
        } else {
            let (bodies, elems) = queue.into_iter().map(|(b, p, _)| (b, p)).unzip();
            (RequestBody::Batch(bodies), Purpose::Batch { elems })
        };
        let seq = self.send_now(lane, body, purpose, retry, ctx);
        self.lanes[lane].gate = retry.then(|| (seq, ctx.now()));
    }

    fn send_now(
        &mut self,
        lane: usize,
        body: RequestBody,
        purpose: Purpose,
        retry: bool,
        ctx: &mut NodeCtx<'_>,
    ) -> ReqSeq {
        let seq = ReqSeq(self.next_seq);
        self.next_seq += 1;
        let l = &mut self.lanes[lane];
        let session = l.session.unwrap_or(SessionId(0));
        l.lease.on_send(seq, ctx.now());
        let server = l.addr;
        let due = retry.then(|| ctx.now().plus(RTO));
        if let Some(due) = due {
            self.arm_retry(due, ctx);
        }
        self.pending.insert(
            seq,
            PendingReq {
                body: body.clone(),
                purpose,
                lane,
                session,
                cur_rto: RTO,
                due,
            },
        );
        ctx.send(
            NetId::CONTROL,
            server,
            NetMsg::Ctl(CtlMsg::Request(Request {
                src: ctx.node(),
                session,
                seq,
                body,
            })),
        );
        seq
    }

    fn retransmit(&mut self, seq: ReqSeq, ctx: &mut NodeCtx<'_>) {
        // NOTE: the lease send-time for `seq` is NOT updated — the lease a
        // future ACK grants must run from a send the ACK is known to
        // follow, and only the first transmission has that property for
        // every copy the server might be answering (§3.1).
        let me = ctx.node();
        // An unanswered Hello probes the lane's other address on every
        // retransmission: a dead primary never sends the NotPrimary
        // redirect that normally steers the lane, so without this the
        // hello would back off against the corpse forever and the shard's
        // promoted standby would never hear from us.
        if let Some(p) = self.pending.get(&seq) {
            if matches!(p.purpose, Purpose::Hello { .. }) {
                let lane = p.lane;
                self.leave_silent(lane, ctx);
            }
        }
        let Some(p) = self.pending.get_mut(&seq) else {
            return;
        };
        let server = self.lanes[p.lane].addr;
        p.cur_rto = p.cur_rto.times(2).min(MAX_RTO);
        let delay = p.cur_rto;
        p.due = Some(ctx.now().plus(delay));
        let msg = Request {
            src: me,
            session: p.session,
            seq,
            body: p.body.clone(),
        };
        self.stats.retransmits += 1;
        if let Some(obs) = &self.obs {
            obs.retransmits.inc();
            obs.trace(ctx, "retransmit", || {
                format!("seq={} rto_ns={}", seq.0, delay.0)
            });
        }
        let lane = p.lane;
        ctx.send(NetId::CONTROL, server, NetMsg::Ctl(CtlMsg::Request(msg)));
        self.open_gate(lane, seq, false, ctx);
    }

    /// Make the retransmit timer fire by `due`: arm it there unless it
    /// already fires no later. Every request's deadline is at least `RTO`
    /// out when set, so in steady operation this arms once per `RTO`, not
    /// once per request.
    fn arm_retry(&mut self, due: LocalNs, ctx: &mut NodeCtx<'_>) {
        if self.retry_timer.is_some_and(|(at, _)| at <= due) {
            return;
        }
        if let Some((_, stale)) = self.retry_timer.take() {
            self.timers.take(stale);
        }
        let token = self.timers.insert(ClientTimer::ReqRetry);
        ctx.set_timer(due.minus(ctx.now()), token);
        self.retry_timer = Some((due, token));
    }

    /// The retransmit timer armed for `deadline` fired: retransmit every
    /// request due by then, in sequence order, each followed by a lease
    /// pump (so one sweep does what one firing per request would), and
    /// re-arm at the next deadline.
    pub(super) fn retransmit_due(&mut self, deadline: LocalNs, ctx: &mut NodeCtx<'_>) {
        // A skewed clock may read a nanosecond short of the deadline it
        // was armed for; the requests due at it go now all the same.
        let upto = deadline.max(ctx.now());
        let mut due: Vec<ReqSeq> = self
            .pending
            .iter()
            .filter(|(_, p)| p.due.is_some_and(|d| d <= upto))
            .map(|(s, _)| *s)
            .collect();
        due.sort_unstable();
        for seq in due {
            if self.pending.contains_key(&seq) {
                self.retransmit(seq, ctx);
                self.pump_lease(ctx);
            }
        }
        // Sends during the sweep found the fired timer still standing and
        // armed nothing: the next deadline is armed once, here.
        self.retry_timer = None;
        if let Some(next) = self.pending.values().filter_map(|p| p.due).min() {
            self.arm_retry(next, ctx);
        }
    }

    // ----------------------------------------------------------- session

    pub(super) fn send_hello(&mut self, lane: usize, ctx: &mut NodeCtx<'_>) {
        if self.lanes[lane].hello_inflight {
            return;
        }
        self.lanes[lane].hello_inflight = true;
        let sent_at = ctx.now();
        let map_epoch = self.map.epoch();
        self.send_request(
            lane,
            RequestBody::Hello { map_epoch },
            Purpose::Hello { sent_at },
            true,
            ctx,
        );
    }

    pub(super) fn on_hello_ok(
        &mut self,
        lane: usize,
        sent_at: LocalNs,
        session: SessionId,
        ctx: &mut NodeCtx<'_>,
    ) {
        let now = ctx.now();
        let l = &mut self.lanes[lane];
        l.hello_inflight = false;
        l.session = Some(session);
        l.rehome_until = None;
        l.lease.reset_session(sent_at, now);
        let first_service = !l.serving;
        l.serving = true;
        let sid = l.sid;
        if first_service {
            self.emit(Event::Resumed { shard: sid.0 }, ctx);
        }
        self.pump_lease(ctx);
        if self.cfg.flush_interval.0 > 0 && self.flush_tick.is_none() {
            self.arm_flush_tick(ctx);
        }
        self.maybe_next_gen_op(ctx);
    }

    /// Whether the op touches state governed by shard `sid`: its resolved
    /// ino, the shard root its path enters through, or (for a cross-shard
    /// rename) either directory. List fan-outs touch every shard.
    fn op_touches_shard(&self, id: OpId, active: &ActiveOp, sid: ServerId) -> bool {
        if let Some(flow) = self.renames.get(&id) {
            return self.map.owner_of(flow.src_dir) == sid
                || self.map.owner_of(flow.dst_dir) == sid;
        }
        if self.list_fanout.contains_key(&id) {
            return true;
        }
        if let Some(ino) = active.ino {
            if self.map.owner_of(ino) == sid {
                return true;
            }
        }
        let first = active.op.path().split('/').find(|p| !p.is_empty());
        let root = match first {
            Some(name) => self.map.root_of(self.map.place_top(name)),
            None => self.map.root_of(ServerId(0)),
        };
        self.map.owner_of(root) == sid
    }

    /// Local failure of ONE lane: its lease expired or its session was
    /// declared dead by that server. Only state governed by that shard is
    /// reset — ops, locks, and cached blocks under the other shards keep
    /// running — and a fresh session is sought from the failed server.
    fn local_expiry(&mut self, lane: usize, ctx: &mut NodeCtx<'_>) {
        let sid = self.lanes[lane].sid;
        self.lanes[lane].serving = false;
        // Fail every in-flight op governed by this shard (sorted:
        // deterministic event order).
        let mut op_ids: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(id, a)| self.op_touches_shard(**id, a, sid))
            .map(|(id, _)| *id)
            .collect();
        op_ids.sort();
        for id in op_ids {
            self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        }
        // Abandon outstanding requests and campaigns aimed at this lane.
        self.pending.retain(|_, p| p.lane != lane);
        // The unsent coalescing queue dies with the lane's pending set:
        // its purposes reference ops the sweep above already failed.
        self.lanes[lane].queue.clear();
        self.lanes[lane].gate = None;
        self.lanes[lane].hello_inflight = false;
        let map = self.map;
        self.flushes.retain(|_, f| map.owner_of(f.ino) != sid);
        self.san_ops.retain(|_, p| {
            let ino = match p {
                SanOp::OpRead { ino, .. } => *ino,
                SanOp::FlushWrite { ino, .. } => *ino,
            };
            map.owner_of(ino) != sid
        });
        self.parked.retain(|ino, _| map.owner_of(*ino) != sid);
        self.deferred_demands
            .retain(|ino, _| map.owner_of(*ino) != sid);
        let held: Vec<Ino> = self
            .locks
            .keys()
            .copied()
            .filter(|i| map.owner_of(*i) == sid)
            .collect();
        for ino in held {
            self.bump_gen(ino);
            self.locks.remove(&ino);
        }
        self.lazy_retained.retain(|i| map.owner_of(*i) != sid);
        self.lanes[lane].seen_pushes.clear();
        let mut owned: Vec<Ino> = self
            .cache
            .inos()
            .into_iter()
            .filter(|i| map.owner_of(*i) == sid)
            .collect();
        owned.sort();
        let mut discarded = 0;
        for ino in owned {
            discarded += self.cache.dirty_len(ino);
            self.cache.invalidate_ino(ino);
        }
        self.name_cache.retain(|_, ino| map.owner_of(*ino) != sid);
        self.emit(
            Event::CacheInvalidated {
                shard: sid.0,
                discarded_dirty: discarded,
            },
            ctx,
        );
        self.lanes[lane].session = None;
        // A primary that let the lease run all the way out locally may be
        // gone for good. If a standby is configured, aim the re-`Hello`
        // there; if the silence was a partition and the old primary still
        // rules, its standby's NotPrimary redirects rotate us back once the
        // standby had time to elect.
        self.leave_silent(lane, ctx);
        self.send_hello(lane, ctx);
    }

    // ------------------------------------------------------- lease driving

    pub(super) fn pump_lease(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.cfg.lease_enabled {
            return;
        }
        let now = ctx.now();
        // Each lane's FSM is pumped independently: a shard losing contact
        // quiesces/flushes/invalidates only its own inodes while the other
        // lanes keep caching at full speed.
        for lane in 0..self.lanes.len() {
            let sid = self.lanes[lane].sid;
            for action in self.lanes[lane].lease.poll(now) {
                match action {
                    // A lane with no session has no lease at the server
                    // for a keep-alive to renew (the server refuses it as
                    // stale). The reply that opens its session resets the
                    // lease and pumps again.
                    LeaseAction::SendKeepAlive if self.lanes[lane].session.is_none() => {}
                    LeaseAction::SendKeepAlive => {
                        self.send_request(
                            lane,
                            RequestBody::KeepAlive,
                            Purpose::KeepAlive,
                            false,
                            ctx,
                        );
                    }
                    LeaseAction::BeginQuiesce => {
                        self.lanes[lane].serving = false;
                        self.emit(Event::Quiesced { shard: sid.0 }, ctx);
                    }
                    LeaseAction::BeginFlush => {
                        // Phase 4: harden everything dirty under THIS
                        // shard's locks. The control path to this server is
                        // presumed dead, so sizes are not committed — data
                        // reaches disk, which is the §3.2 obligation. Other
                        // shards' dirty data is not touched.
                        let map = self.map;
                        let inos: Vec<Ino> = self
                            .cache
                            .dirty_inos()
                            .into_iter()
                            .filter(|i| map.owner_of(*i) == sid)
                            .collect();
                        if let Some(obs) = &self.obs {
                            obs.phase_flush.inc();
                            obs.trace(ctx, "phase", || {
                                format!("flushing shard={} dirty_inos={}", sid.0, inos.len())
                            });
                        }
                        for ino in inos {
                            self.start_flush(ino, AfterFlush::Nothing, ctx);
                        }
                    }
                    LeaseAction::LeaseExpired => {
                        self.local_expiry(lane, ctx);
                    }
                    LeaseAction::Resume => {
                        // After a post-expiry re-hello the session reset has
                        // already resumed service; only an actual transition
                        // counts as a phase change.
                        if !self.lanes[lane].serving {
                            self.lanes[lane].serving = true;
                            self.emit(Event::Resumed { shard: sid.0 }, ctx);
                        }
                        self.maybe_next_gen_op(ctx);
                    }
                }
            }
        }
        // Arm the next poll at the earliest wakeup any lane wants.
        let next = self
            .lanes
            .iter()
            .filter_map(|l| l.lease.next_wakeup(now))
            .min();
        if let Some(at) = next {
            let due = at.max(now.plus(LocalNs(1)));
            if self.next_poll_at.is_none_or(|p| due < p || p <= now) {
                self.next_poll_at = Some(due);
                let token = self.timers.insert(ClientTimer::LeasePoll);
                ctx.set_timer(due.minus(now), token);
            }
        }
    }

    // ------------------------------------------------------------ replies

    pub(super) fn on_response(&mut self, resp: Response, ctx: &mut NodeCtx<'_>) {
        // Detect a server restart before anything else: the incarnation is
        // stamped on every response, so even a NACK for a long-forgotten
        // sequence number tells us the server we knew is gone. Incarnations
        // are tracked per lane — one shard restarting says nothing about
        // the others.
        let Some(lane) = self.pending.get(&resp.seq).map(|p| p.lane) else {
            return;
        };
        let restarted = self.lanes[lane]
            .server_incarnation
            .replace(resp.incarnation)
            .is_some_and(|known| known != resp.incarnation);
        let Some(p) = self.pending.remove(&resp.seq) else {
            return;
        };
        match resp.outcome {
            ResponseOutcome::Acked(result) => {
                // Headroom must be read *before* the ACK extends the lease:
                // it is the margin the old lease still had when renewal
                // landed — the measured slack in Theorem 3.1's ordering.
                let prior_expiry = self.lanes[lane].lease.expiry();
                let now = ctx.now();
                let renewed = self.lanes[lane].lease.on_ack(resp.seq, now);
                if renewed {
                    if let Some(obs) = &self.obs {
                        obs.renewals.inc();
                        // The first ack of a session extends nothing, so
                        // headroom is only defined when a lease was live.
                        if let Some(e) = prior_expiry {
                            let headroom = e.0.saturating_sub(now.0);
                            obs.renewal_headroom_ns.observe(headroom);
                            obs.trace(ctx, "renewal", || format!("headroom_ns={headroom}"));
                        }
                    }
                    self.pump_lease(ctx);
                }
                self.dispatch_reply(p.lane, p.purpose, result, ctx);
            }
            ResponseOutcome::Nacked(reason) => self.on_nack(reason, restarted, p, ctx),
        }
        // After dispatch, so follow-ups the reply spawned ride along.
        self.open_gate(lane, resp.seq, true, ctx);
    }

    fn on_nack(
        &mut self,
        reason: NackReason,
        restarted: bool,
        p: PendingReq,
        ctx: &mut NodeCtx<'_>,
    ) {
        let lane = p.lane;
        match reason {
            NackReason::LeaseTimingOut => self.suspend_lane(p, ctx),
            NackReason::SessionExpired | NackReason::StaleSession if restarted => {
                self.on_server_restart(p, ctx);
            }
            NackReason::SessionExpired | NackReason::StaleSession
                if self.lanes[lane].session != Some(p.session)
                    && !matches!(p.purpose, Purpose::Hello { .. }) =>
            {
                // Sent before the lane's current session opened (say, a
                // push's ack while the Hello was still unanswered): the
                // NACK judges the session it carried, not this one, so
                // only that request fails.
                self.fail_purpose(p.lane, p.purpose, FsErr::LeaseLost, ctx);
            }
            // Our session is dead at that server: its locks are stolen.
            NackReason::SessionExpired | NackReason::StaleSession => self.restart_lane(p, ctx),
            NackReason::Recovering => {
                // The restarted server is inside its grace window. Unlike
                // the NACKs above this does not condemn anything: our lease
                // and cache are still good (the server grants nothing that
                // could conflict until the window closes). The operation
                // just cannot be served yet.
                let was_hello = matches!(p.purpose, Purpose::Hello { .. });
                self.fail_purpose(p.lane, p.purpose, FsErr::Unavailable, ctx);
                if was_hello {
                    self.retry_hello(lane, HELLO_RETRY, ctx);
                }
            }
            NackReason::Misrouted(r) => {
                // A protocol redirect, not a lease judgment: the request
                // reached a server that does not govern its ino (or the
                // shard maps disagree). Nothing cached is condemned — the
                // op just fails back to the process, which can retry once
                // the topology question settles. `NotPrimary` carries a
                // hint: the shard's other address holds the role now, so
                // rotate the lane there before retrying — unless the lane
                // came here because that address went silent, and the
                // standby answering may still be about to elect.
                let was_hello = matches!(p.purpose, Purpose::Hello { .. });
                if was_hello {
                    self.lanes[lane].hello_inflight = false;
                }
                let rehoming = self.lanes[lane]
                    .rehome_until
                    .is_some_and(|until| ctx.now() < until);
                let not_primary = r == RouteError::NotPrimary;
                let rotated = not_primary && !rehoming && self.rotate_lane(lane, ctx);
                self.fail_purpose(p.lane, p.purpose, FsErr::Unavailable, ctx);
                if not_primary && rehoming {
                    // τ/40: the lane attaches within a few percent of τ
                    // after the election.
                    let poll = self.cfg.lease.tau.over(40);
                    self.retry_hello(lane, poll, ctx);
                } else if was_hello {
                    self.retry_hello(lane, HELLO_RETRY, ctx);
                } else if rotated {
                    // The lane's session died with the old primary;
                    // re-register at the standby so work can resume.
                    self.send_hello(lane, ctx);
                }
            }
        }
    }

    /// The server's incarnation changed under us: it crashed, restarted,
    /// and lost our session and lock state. Our lease is still good and
    /// the restarted server grants nothing that could conflict with us
    /// until its grace window closes, so dirty state is *not* condemned.
    /// A clean client (no locks, nothing dirty) simply re-registers. A
    /// client with holdings takes the normal phase-3/4 walk — quiesce,
    /// flush dirty blocks to the SAN, then tear down and re-`Hello` at its
    /// own expiry — exactly the sequence the grace window was sized to
    /// wait out.
    fn on_server_restart(&mut self, p: PendingReq, ctx: &mut NodeCtx<'_>) {
        let lane = p.lane;
        let sid = self.lanes[lane].sid;
        // "Clean" is judged per shard: only locks and dirty blocks this
        // server governs matter for its restart.
        let map = self.map;
        let clean = !self.locks.keys().any(|i| map.owner_of(*i) == sid)
            && !self
                .cache
                .dirty_inos()
                .iter()
                .any(|i| map.owner_of(*i) == sid);
        if clean {
            self.restart_lane(p, ctx);
        } else {
            self.suspend_lane(p, ctx);
        }
    }

    /// Restart `p`'s lane with a fresh session: a refused Hello goes again
    /// at once; anything else fails as `LeaseLost`, and the lane expires
    /// locally, which re-Hellos.
    fn restart_lane(&mut self, p: PendingReq, ctx: &mut NodeCtx<'_>) {
        let lane = p.lane;
        if matches!(p.purpose, Purpose::Hello { .. }) {
            self.lanes[lane].hello_inflight = false;
            self.send_hello(lane, ctx);
        } else {
            self.fail_purpose(lane, p.purpose, FsErr::LeaseLost, ctx);
            self.local_expiry(lane, ctx);
        }
    }

    /// Suspend `p`'s lane (§3.3): a message was missed, so the shard's
    /// cache is invalid. The lease enters phase 3 at once, `p` fails as
    /// `Suspended`, a refused Hello goes again after a pause (the server
    /// is still timing us out; its timer will fire eventually), and the
    /// lease pump walks the lane on toward recovery.
    fn suspend_lane(&mut self, p: PendingReq, ctx: &mut NodeCtx<'_>) {
        let lane = p.lane;
        self.lanes[lane].lease.on_nack(ctx.now());
        let was_hello = matches!(p.purpose, Purpose::Hello { .. });
        self.fail_purpose(lane, p.purpose, FsErr::Suspended, ctx);
        if was_hello {
            self.retry_hello(lane, HELLO_RETRY, ctx);
        }
        self.pump_lease(ctx);
    }
}
