//! Data locks: acquisition and grants, deferred demands, lazy release,
//! the release path, and server pushes.

use super::*;

impl ClientNode {
    // -------------------------------------------------------------- locks

    /// Record `ino` as lazily retained (most recent last) and evict the
    /// oldest retained locks past the cap through the eager release path
    /// they skipped at absorb time.
    pub(super) fn retain_release(&mut self, ino: Ino, ctx: &mut NodeCtx<'_>) {
        self.lazy_retained.retain(|i| *i != ino);
        self.lazy_retained.push(ino);
        while self.lazy_retained.len() > LAZY_RELEASE_CAP {
            let evict = self.lazy_retained.remove(0);
            if matches!(self.locks.get(&evict), Some(LockEntry::Held(_))) {
                self.hand_back(evict, ctx);
            }
        }
    }

    /// Run op `id` if the lock on `ino` covers `mode`; otherwise park it
    /// on `ino` until it does.
    pub(super) fn ensure_lock_then(
        &mut self,
        id: OpId,
        ino: Ino,
        mode: LockMode,
        ctx: &mut NodeCtx<'_>,
    ) {
        if !self.lock_step(id, ino, mode, ctx) {
            self.park(id, ino, mode);
        }
    }

    /// One step of op `id` toward the lock on `ino` in `mode`. A lock that
    /// covers the mode runs the op. Otherwise the lock is moved toward it
    /// and `false` says the op must wait: a weaker holding sends one
    /// upgrade, however many ops wait on it; a lock acquiring or
    /// releasing is waited out; no lock (never taken, released, expired)
    /// is acquired.
    fn lock_step(&mut self, id: OpId, ino: Ino, mode: LockMode, ctx: &mut NodeCtx<'_>) -> bool {
        match self.locks.get_mut(&ino) {
            Some(LockEntry::Held(info)) if info.mode.covers(mode) => {
                self.run_data_op(id, ino, ctx);
                return true;
            }
            Some(LockEntry::Held(info)) => {
                if !std::mem::replace(&mut info.upgrading, true) {
                    self.send_acquire(ino, LockMode::Exclusive, ctx);
                }
            }
            Some(LockEntry::Acquiring | LockEntry::Releasing(_)) => {}
            None => {
                self.locks.insert(ino, LockEntry::Acquiring);
                self.send_acquire(ino, mode, ctx);
            }
        }
        false
    }

    /// Ask `ino`'s server for the lock in `mode`, under the lock's current
    /// generation so a reply to an earlier tenure is recognised as stale.
    fn send_acquire(&mut self, ino: Ino, mode: LockMode, ctx: &mut NodeCtx<'_>) {
        let gen = self.gen_of(ino);
        let lane = self.lane_of_ino(ino);
        let body = RequestBody::LockAcquire { ino, mode };
        self.send_request(lane, body, Purpose::Lock { ino, gen }, true, ctx);
    }

    /// Hand a held lock back to its server: straight away when nothing
    /// under it is dirty, after a write-back flush otherwise.
    fn hand_back(&mut self, ino: Ino, ctx: &mut NodeCtx<'_>) {
        if self.cache.dirty_len(ino) == 0 {
            self.commit_then_release(ino, None, ctx);
        } else {
            self.start_flush(ino, AfterFlush::Release { complete: None }, ctx);
        }
    }

    fn park(&mut self, id: OpId, ino: Ino, mode: LockMode) {
        if let Some(a) = self.ops.get_mut(&id) {
            a.state = OpState::WaitLock { mode };
        }
        self.parked.entry(ino).or_default().push(id);
    }

    pub(super) fn on_lock_granted(
        &mut self,
        ino: Ino,
        mode: LockMode,
        epoch: Epoch,
        blocks: Vec<BlockId>,
        size: u64,
        ctx: &mut NodeCtx<'_>,
    ) {
        // A grant landing while we are releasing is from a dead era (the
        // release is already on the wire; the server has executed or will
        // execute it after the grant): installing it would let us write
        // under an epoch the server no longer honours.
        if matches!(self.locks.get(&ino), Some(LockEntry::Releasing(_))) {
            return;
        }
        // Merge with an existing holding of the same epoch (duplicate or
        // reordered grant): the block map and size only ever grow within
        // an epoch, and the write-sequence counter must never reset (tags
        // must stay monotone).
        if let Some(LockEntry::Held(prev)) = self.locks.get_mut(&ino) {
            if prev.epoch == epoch {
                if blocks.len() > prev.blocks.len() {
                    prev.blocks = blocks;
                }
                prev.size = prev.size.max(size);
                prev.mode = mode;
                prev.upgrading = false;
                self.kick_parked(ino, ctx);
                self.satisfy_deferred_demand(ino, ctx);
                return;
            }
        }
        self.locks.insert(
            ino,
            LockEntry::Held(LockInfo {
                mode,
                epoch,
                blocks,
                size,
                committed_size: size,
                upgrading: false,
                attr: None,
                mutations: 0,
            }),
        );
        self.kick_parked(ino, ctx);
        self.satisfy_deferred_demand(ino, ctx);
    }

    /// A demand arrived while the lock state was in motion: now that it
    /// settled (grant landed / release confirmed), hand the demanded grant
    /// over — or tell the server it is already gone.
    fn satisfy_deferred_demand(&mut self, ino: Ino, ctx: &mut NodeCtx<'_>) {
        let Some(demanded) = self.deferred_demands.remove(&ino) else {
            return;
        };
        match self.locks.get(&ino) {
            // Hand the holding over (flush first), full teardown.
            Some(LockEntry::Held(_)) => self.hand_back(ino, ctx),
            Some(LockEntry::Releasing(info)) if info.epoch == demanded => {}
            Some(LockEntry::Releasing(_)) | Some(LockEntry::Acquiring) => {
                // Still in motion: keep waiting.
                self.deferred_demands.insert(ino, demanded);
            }
            None => {
                let lane = self.lane_of_ino(ino);
                self.send_request(
                    lane,
                    RequestBody::LockRelease {
                        ino,
                        epoch: demanded,
                    },
                    Purpose::ReleaseStale,
                    false,
                    ctx,
                );
            }
        }
    }

    fn kick_parked(&mut self, ino: Ino, ctx: &mut NodeCtx<'_>) {
        let Some(ids) = self.parked.remove(&ino) else {
            return;
        };
        let mut still_parked = Vec::new();
        for id in ids {
            let Some(a) = self.ops.get(&id) else { continue };
            let OpState::WaitLock { mode } = a.state else {
                continue;
            };
            if !self.lock_step(id, ino, mode, ctx) {
                still_parked.push(id);
            }
        }
        if !still_parked.is_empty() {
            self.parked.entry(ino).or_default().extend(still_parked);
        }
    }

    /// Release tail, for an eager `Release` and a hand-back alike: ensure
    /// the committed size, then release. `complete` rides in the commit's
    /// purpose to [`send_release`](Self::send_release), which completes it.
    pub(super) fn commit_then_release(
        &mut self,
        ino: Ino,
        complete: Option<OpId>,
        ctx: &mut NodeCtx<'_>,
    ) {
        let needs_commit = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) => info.size > info.committed_size,
            _ => false,
        };
        if needs_commit {
            let new_size = match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) => info.size,
                _ => 0,
            };
            if self.cfg.batch_cap > 1 {
                // Pipelined handover: queue the commit, then let the
                // (urgent) release flush the lane — both travel in ONE
                // batch and the 2-round-trip commit→release chain costs
                // a single round trip. The commit never leaves on its own,
                // not even on an idle lane: a release that overtook it
                // would make the server refuse it `NotLocked`, and the
                // size would be lost. The server executes the batch in
                // order; if the commit fails, first-error-stops leaves the
                // release unexecuted and the lease machinery recovers.
                let lane = self.lane_of_ino(ino);
                if self.lanes[lane].queue.len() + 2 > self.batch_cap() {
                    self.flush_batch(lane, FLUSH_SIZE, ctx);
                }
                let commit = RequestBody::CommitWrite { ino, new_size };
                self.note_mutation(&commit);
                self.lanes[lane]
                    .queue
                    .push((commit, Purpose::Commit { ino }, true));
                self.send_release(ino, complete, ctx);
                return;
            }
            let lane = self.lane_of_ino(ino);
            self.send_request(
                lane,
                RequestBody::CommitWrite { ino, new_size },
                Purpose::CommitThenRelease { ino, complete },
                true,
                ctx,
            );
        } else {
            self.send_release(ino, complete, ctx);
        }
    }

    pub(super) fn send_release(&mut self, ino: Ino, complete: Option<OpId>, ctx: &mut NodeCtx<'_>) {
        // Final gate: a write may have slipped in during the commit round
        // trip. Releasing with dirty blocks would discard acknowledged
        // data, so flush again first. Once `Releasing` is set below, no
        // further write can apply.
        if self.cache.dirty_len(ino) > 0 && matches!(self.locks.get(&ino), Some(LockEntry::Held(_)))
        {
            return self.start_flush(ino, AfterFlush::Release { complete }, ctx);
        }
        // Name the exact grant being released so a racing newer grant at
        // the server cannot be torn down by this message. The grant info
        // moves into the Releasing state (still needed for flushing).
        let epoch = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => info.epoch,
            _ => Epoch(0),
        };
        match self.locks.get(&ino).cloned() {
            Some(LockEntry::Held(info)) => {
                self.locks.insert(ino, LockEntry::Releasing(info));
            }
            Some(LockEntry::Releasing(_)) => {}
            _ => {
                // Nothing held: nothing to transition; the request below
                // (with its exact epoch) is pure server-side cleanup.
            }
        }
        let lane = self.lane_of_ino(ino);
        self.send_request(
            lane,
            RequestBody::LockRelease { ino, epoch },
            Purpose::Release { ino },
            true,
            ctx,
        );
        // The op's completion point. Every dirty block is hardened (the
        // gate above), a needed size commit was answered or shares the
        // release's batch, and `Releasing` serves nothing and parks every
        // new op on the ino until the answer: the answer cannot change
        // what the op promised, so it is not awaited (as `Flush` does not
        // await its commit).
        if let Some(id) = complete {
            self.complete_op(id, Ok(FsData::Unit), ctx);
        }
    }

    pub(super) fn on_released(&mut self, ino: Ino, ctx: &mut NodeCtx<'_>) {
        self.locks.remove(&ino);
        // The release ends this inode's lock era: a still-pending acquire
        // from before it (e.g. a dropped upgrade reply the server later
        // replays from its dedup window) would otherwise pass the
        // `Purpose::Lock` gen guard and reinstate the dead epoch with a
        // reset write-sequence counter — non-monotone tags.
        self.bump_gen(ino);
        self.lazy_retained.retain(|i| *i != ino);
        self.cache.invalidate_ino(ino);
        // Ops that arrived while releasing re-acquire.
        self.kick_parked(ino, ctx);
    }

    // ------------------------------------------------------------- pushes

    pub(super) fn on_push(&mut self, from: NodeId, push: ServerPush, ctx: &mut NodeCtx<'_>) {
        // Pushes are per-server: ack on (and dedup against) the lane of
        // the server that sent this one.
        let lane = self.lane_of_addr(from).unwrap_or(0);
        // Always ack (stops server retries); handle the body once.
        self.send_request(
            lane,
            RequestBody::PushAck {
                push_seq: push.push_seq,
            },
            Purpose::PushAckSend,
            false,
            ctx,
        );
        if !self.lanes[lane].seen_pushes.insert(push.push_seq) {
            return;
        }
        match push.body {
            PushBody::Demand { ino, epoch, .. } => {
                match self.locks.get(&ino) {
                    Some(LockEntry::Held(_)) => {
                        // Hand our holding over (flush first), with full
                        // local teardown. Even when the demand names a
                        // different grant generation, releasing what we
                        // hold is safe — epoch-qualified releases cannot
                        // hurt a grant that is not ours-as-held.
                        if let Some(obs) = &self.obs {
                            obs.cache_revokes.inc();
                        }
                        self.hand_back(ino, ctx);
                    }
                    Some(LockEntry::Releasing(info)) if info.epoch == epoch => {
                        // Already releasing exactly this grant.
                    }
                    Some(LockEntry::Releasing(_)) | Some(LockEntry::Acquiring) => {
                        // The demanded grant is still in motion toward us
                        // (a grant racing this demand, possibly behind a
                        // release of an older grant). Handle it when the
                        // state settles.
                        self.deferred_demands.insert(ino, epoch);
                    }
                    None => {
                        // We hold nothing (e.g. already expired locally):
                        // release exactly the demanded grant so the server
                        // can move on — qualified by its epoch, so this
                        // cannot tear down a newer grant racing toward us.
                        self.send_request(
                            lane,
                            RequestBody::LockRelease { ino, epoch },
                            Purpose::ReleaseStale,
                            false,
                            ctx,
                        );
                    }
                }
            }
            PushBody::Invalidate { ino } => {
                self.cache.invalidate_ino(ino);
            }
        }
    }
}
