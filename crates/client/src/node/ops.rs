//! The op pipeline: submission, routing and path resolution, renames,
//! root-listing fan-outs, reply dispatch, failure and completion.

use super::*;

impl ClientNode {
    // ----------------------------------------------------------- workload

    pub(super) fn maybe_next_gen_op(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.gen_op_queued || self.gen.is_none() {
            return;
        }
        // Closed loop over `gen_concurrency` local processes.
        let in_flight = self.ops.values().filter(|o| o.from_gen).count();
        if in_flight >= self.cfg.gen_concurrency.max(1) {
            return;
        }
        let now = ctx.now();
        let mut gen = self.gen.take().unwrap();
        let next = gen.next_op(ctx.rng(), now);
        self.gen = Some(gen);
        if let Some((think, op)) = next {
            self.queued_gen_op = Some(op);
            self.gen_op_queued = true;
            let token = self.timers.insert(ClientTimer::NextOp);
            ctx.set_timer(think, token);
        }
    }

    /// Deny an op at submission time without entering the op table.
    fn deny_submit(
        &mut self,
        id: OpId,
        kind: &'static str,
        err: FsErr,
        from_gen: bool,
        ctx: &mut NodeCtx<'_>,
    ) {
        self.stats.denied += 1;
        if !from_gen {
            self.log_result(id, Err(err));
        }
        self.emit(
            Event::OpCompleted {
                op: id,
                kind,
                ok: false,
                err: Some(err),
            },
            ctx,
        );
        if from_gen {
            self.maybe_next_gen_op(ctx);
        }
    }

    /// Submit an operation on behalf of a local process, now. Its result
    /// is logged for [`take_result`](Self::take_result) and announced by
    /// an [`Event::OpCompleted`] once it completes — within this call,
    /// if it is refused at admission.
    pub fn submit(&mut self, op: FsOp, ctx: &mut NodeCtx<'_>) -> OpId {
        self.start_op(op, false, ctx)
    }

    pub(super) fn start_op(&mut self, op: FsOp, from_gen: bool, ctx: &mut NodeCtx<'_>) -> OpId {
        let id = OpId(self.next_op_id);
        self.next_op_id += 1;
        self.emit(
            Event::OpSubmitted {
                op: id,
                kind: op.kind(),
            },
            ctx,
        );
        self.route_op(id, op, from_gen, ctx);
        id
    }

    fn route_op(&mut self, id: OpId, op: FsOp, from_gen: bool, ctx: &mut NodeCtx<'_>) {
        let kind = op.kind();
        // A name the server would refuse is refused before anything is sent.
        let too_long = |path: &str| path.split('/').any(|name| name.len() > MAX_NAME);
        if too_long(op.path()) || matches!(&op, FsOp::Rename { to, .. } if too_long(to)) {
            return self.deny_submit(id, kind, FsErr::Invalid, from_gen, ctx);
        }
        if let FsOp::Rename { .. } = &op {
            return self.submit_rename(id, op, from_gen, ctx);
        }
        let mut parts: Vec<String> = op
            .path()
            .split('/')
            .filter(|p| !p.is_empty())
            .map(str::to_owned)
            .collect();
        // Route by the top-level component: the shard owning that name's
        // dentry governs the whole subtree entered through it. The bare
        // root belongs to shard 0, except a full listing which fans out.
        let root = match parts.first() {
            Some(name) => self.map.root_of(self.map.place_top(name)),
            None => self.map.root_of(ServerId(0)),
        };
        if matches!(op, FsOp::List { .. }) && parts.is_empty() {
            return self.submit_list_fanout(id, op, from_gen, ctx);
        }
        if self.cfg.phase3_gate && !self.lanes[self.lane_of_ino(root)].serving {
            // §3.2 phase 3+ on the governing shard: new file-system
            // requests against it are not serviced. Other shards' ops are
            // unaffected — that is the blast-radius contract. With the
            // gate disabled (negative control) the op is admitted and the
            // checker's coherence audit flags whatever the quiesced cache
            // serves.
            return self.deny_submit(id, kind, FsErr::Suspended, from_gen, ctx);
        }
        let to_parent = matches!(
            op,
            FsOp::Create { .. } | FsOp::Mkdir { .. } | FsOp::Delete { .. }
        );
        let mut active = ActiveOp {
            op,
            state: OpState::MetaWait,
            from_gen,
            ino: None,
        };
        if to_parent && parts.is_empty() {
            // Creating "/" or deleting "/" is invalid.
            self.ops.insert(id, active);
            return self.complete_op(id, Err(FsErr::Invalid), ctx);
        }
        if !to_parent {
            if let Some(&ino) = self.name_cache.get(op_path(&active.op).as_str()) {
                self.ops.insert(id, active);
                return self.op_resolved(id, ino, ctx);
            }
        }
        if to_parent {
            // The last component is the name the op acts on in its parent.
            parts.pop();
        }
        active.state = OpState::Resolve {
            parts,
            idx: 0,
            cur: root,
            to_parent,
        };
        self.ops.insert(id, active);
        self.resolve_step(id, ctx);
    }

    /// List the namespace root: every shard owns a slice of the top-level
    /// directory, so a full listing is a fan-out of one ReadDir per shard
    /// root, merged client-side.
    fn submit_list_fanout(&mut self, id: OpId, op: FsOp, from_gen: bool, ctx: &mut NodeCtx<'_>) {
        let kind = op.kind();
        if !self.lanes.iter().all(|l| l.serving) {
            return self.deny_submit(id, kind, FsErr::Suspended, from_gen, ctx);
        }
        self.ops.insert(
            id,
            ActiveOp {
                op,
                state: OpState::MetaWait,
                from_gen,
                ino: None,
            },
        );
        self.list_fanout.insert(
            id,
            ListFanout {
                waiting: self.lanes.len(),
                entries: Vec::new(),
            },
        );
        for lane in 0..self.lanes.len() {
            let dir = self.map.root_of(self.lanes[lane].sid);
            self.send_request(
                lane,
                RequestBody::ReadDir { dir },
                Purpose::ListShard { op: id },
                true,
                ctx,
            );
        }
    }

    /// Submit a rename. Only top-level single-component files are
    /// renameable (the sharded namespace splits the root directory, so
    /// this is exactly the case where the two dentries can live on
    /// different servers). The client drives it as a two-lock transaction:
    /// Exclusive locks on both shard-root directories taken in ino order
    /// (deadlock-free: roots are `Ino(1+sid)`, so ino order IS ServerId
    /// order), then link at the destination, then unlink at the source.
    fn submit_rename(&mut self, id: OpId, op: FsOp, from_gen: bool, ctx: &mut NodeCtx<'_>) {
        let kind = op.kind();
        let FsOp::Rename { from, to } = &op else {
            unreachable!("submit_rename only sees renames")
        };
        let fparts: Vec<&str> = from.split('/').filter(|p| !p.is_empty()).collect();
        let tparts: Vec<&str> = to.split('/').filter(|p| !p.is_empty()).collect();
        if fparts.len() != 1 || tparts.len() != 1 {
            return self.deny_submit(id, kind, FsErr::Invalid, from_gen, ctx);
        }
        let (src_name, dst_name) = (fparts[0].to_owned(), tparts[0].to_owned());
        if src_name == dst_name {
            // Renaming to itself: trivially done.
            self.ops.insert(
                id,
                ActiveOp {
                    op,
                    state: OpState::MetaWait,
                    from_gen,
                    ino: None,
                },
            );
            return self.complete_op(id, Ok(FsData::Unit), ctx);
        }
        let src_dir = self.map.root_of(self.map.place_top(&src_name));
        let dst_dir = self.map.root_of(self.map.place_top(&dst_name));
        if !self.lanes[self.lane_of_ino(src_dir)].serving
            || !self.lanes[self.lane_of_ino(dst_dir)].serving
        {
            return self.deny_submit(id, kind, FsErr::Suspended, from_gen, ctx);
        }
        self.ops.insert(
            id,
            ActiveOp {
                op,
                state: OpState::MetaWait,
                from_gen,
                ino: None,
            },
        );
        self.renames.insert(
            id,
            RenameFlow {
                src_dir,
                dst_dir,
                src_name,
                dst_name,
                ino: None,
                stage: RenameStage::NeedLookup,
            },
        );
        self.rename_advance(id, ctx);
    }

    /// Drive a rename forward: acquire both directory locks (in ino
    /// order), then look up the source entry. Re-entered from
    /// `on_lock_granted` via the parked-op path.
    pub(super) fn rename_advance(&mut self, id: OpId, ctx: &mut NodeCtx<'_>) {
        let Some(flow) = self.renames.get(&id) else {
            return;
        };
        if flow.stage != RenameStage::NeedLookup {
            return; // already past lock acquisition
        }
        let (src_dir, dst_dir, src_name) = (flow.src_dir, flow.dst_dir, flow.src_name.clone());
        let mut dirs = vec![src_dir, dst_dir];
        dirs.sort();
        dirs.dedup();
        for d in dirs {
            let covered = matches!(
                self.locks.get(&d),
                Some(LockEntry::Held(info)) if info.mode.covers(LockMode::Exclusive)
            );
            if !covered {
                // ensure_lock_then parks the op on `d`; the grant kicks it
                // back into run_data_op → rename_advance, which takes the
                // next lock (strictly in order) or proceeds.
                return self.ensure_lock_then(id, d, LockMode::Exclusive, ctx);
            }
        }
        if let Some(flow) = self.renames.get_mut(&id) {
            flow.stage = RenameStage::AwaitLookup;
        }
        let lane = self.lane_of_ino(src_dir);
        self.send_request(
            lane,
            RequestBody::Lookup {
                parent: src_dir,
                name: src_name,
            },
            Purpose::Rename { op: id },
            true,
            ctx,
        );
    }

    fn resolve_step(&mut self, id: OpId, ctx: &mut NodeCtx<'_>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        let OpState::Resolve {
            parts, idx, cur, ..
        } = &active.state
        else {
            return;
        };
        if *idx >= parts.len() {
            let cur = *cur;
            return self.op_resolved(id, cur, ctx);
        }
        let body = RequestBody::Lookup {
            parent: *cur,
            name: parts[*idx].clone(),
        };
        let lane = self.lane_of_ino(*cur);
        self.send_request(lane, body, Purpose::Resolve { op: id }, true, ctx);
    }

    /// The op's target (or parent, for to_parent ops) is known.
    fn op_resolved(&mut self, id: OpId, ino: Ino, ctx: &mut NodeCtx<'_>) {
        let Some(active) = self.ops.get_mut(&id) else {
            return;
        };
        active.ino = Some(ino);
        let lane = self.map.owner_of(ino).0 as usize;
        match &active.op {
            FsOp::Create { path } => {
                let name = last_component(path);
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::Create { parent: ino, name },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Mkdir { path } => {
                let name = last_component(path);
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::Mkdir { parent: ino, name },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Delete { path } => {
                let name = last_component(path);
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::Unlink { parent: ino, name },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Stat { .. } => {
                active.state = OpState::MetaWait;
                if self.stat_from_lock(id, ino, ctx) {
                    return;
                }
                let under = self.attr_admissible(ino);
                self.send_request(
                    lane,
                    RequestBody::GetAttr { ino },
                    Purpose::Attr { op: id, ino, under },
                    true,
                    ctx,
                );
            }
            FsOp::List { .. } => {
                active.state = OpState::MetaWait;
                self.send_request(
                    lane,
                    RequestBody::ReadDir { dir: ino },
                    Purpose::Meta { op: id },
                    true,
                    ctx,
                );
            }
            FsOp::Rename { .. } => {
                unreachable!("renames never take the resolve path")
            }
            FsOp::Read { .. } => {
                // Shared-read mode lets N clients serve a hot file
                // from N caches; disabled, reads contend for the
                // exclusive lock like writes (the E17 baseline).
                let mode = if self.cfg.shared_read {
                    LockMode::SharedRead
                } else {
                    LockMode::Exclusive
                };
                self.ensure_lock_then(id, ino, mode, ctx);
            }
            FsOp::Write { data, .. } if data.is_empty() => {
                // Nothing to write: no lock, no block, no size change.
                self.complete_op(id, Ok(FsData::Unit), ctx);
            }
            FsOp::Write { .. } => {
                self.ensure_lock_then(id, ino, LockMode::Exclusive, ctx);
            }
            FsOp::Flush { .. } => {
                if self.cache.dirty_len(ino) == 0 {
                    self.finish_flush_commit(ino, Some(id), ctx);
                } else {
                    active.state = OpState::WaitFlush;
                    self.start_flush(ino, AfterFlush::CompleteOp(id), ctx);
                }
            }
            FsOp::Release { .. } => {
                if !matches!(self.locks.get(&ino), Some(LockEntry::Held(_))) {
                    return self.complete_op(id, Ok(FsData::Unit), ctx);
                }
                // Lazy release: absorb the voluntary release locally. The
                // lock stays Held and the cache stays warm, so the op
                // costs zero round trips; a server demand (or the retained
                // set overflowing) later sends the lock back through the
                // eager path. Nothing changes on the wire, so Theorem
                // 3.1's per-message renewal argument is untouched. A
                // deferred demand means the server already wants this
                // ino — hand it over eagerly instead.
                if self.cfg.lazy_release && !self.deferred_demands.contains_key(&ino) {
                    self.retain_release(ino, ctx);
                    return self.complete_op(id, Ok(FsData::Unit), ctx);
                }
                if self.cache.dirty_len(ino) == 0 {
                    self.ops.get_mut(&id).unwrap().state = OpState::WaitFlush;
                    self.commit_then_release(ino, Some(id), ctx);
                } else {
                    self.ops.get_mut(&id).unwrap().state = OpState::WaitFlush;
                    self.start_flush(ino, AfterFlush::Release { complete: Some(id) }, ctx);
                }
            }
        }
    }

    pub(super) fn fail_purpose(
        &mut self,
        lane: usize,
        purpose: Purpose,
        err: FsErr,
        ctx: &mut NodeCtx<'_>,
    ) {
        match purpose {
            Purpose::Resolve { op }
            | Purpose::Meta { op }
            | Purpose::Attr { op, .. }
            | Purpose::Alloc { op, .. } => {
                self.complete_op(op, Err(err), ctx);
            }
            Purpose::Lock { ino, gen } => {
                if gen != self.gen_of(ino) {
                    return; // a dead era's request; already handled
                }
                match self.locks.get_mut(&ino) {
                    Some(LockEntry::Held(info)) => {
                        // A holding exists (established by some other
                        // response); this failed request was at most an
                        // upgrade. The holding — and its dirty cache —
                        // stay; only the waiters give up.
                        info.upgrading = false;
                    }
                    Some(LockEntry::Acquiring) => {
                        // Nothing was ever granted in this era: clear the
                        // placeholder. No data can be cached under it.
                        self.locks.remove(&ino);
                        self.bump_gen(ino);
                        self.cache.invalidate_ino(ino);
                    }
                    _ => {}
                }
                let ids = self.parked.remove(&ino).unwrap_or_default();
                for id in ids {
                    self.complete_op(id, Err(err), ctx);
                }
            }
            Purpose::Release { ino } => {
                // The release was NACKed: its fate at the server is
                // unknown. Keep the Releasing state and the cache — the
                // lease machinery now owns recovery (phase-4 flush still
                // works from the retained grant info; expiry or session
                // reset cleans up). No op waits here: an eager `Release`
                // completed when this message left.
                let _ = ino;
            }
            Purpose::CommitThenRelease { ino, complete } => {
                self.send_release(ino, complete, ctx);
            }
            Purpose::Hello { .. } => {
                self.lanes[lane].hello_inflight = false;
            }
            Purpose::Rename { op } | Purpose::ListShard { op } => {
                // complete_op tears down the rename flow / fan-out state.
                self.complete_op(op, Err(err), ctx);
            }
            Purpose::Batch { elems } => {
                // The whole message failed: every element shares its fate.
                for p in elems {
                    self.fail_purpose(lane, p, err, ctx);
                }
            }
            Purpose::KeepAlive
            | Purpose::Commit { .. }
            | Purpose::PushAckSend
            | Purpose::ReleaseStale => {}
        }
    }

    /// Act on the reply to a request sent for `purpose`. An error reply,
    /// or one that is not the answer the request asked for, fails the
    /// purpose as a refused request does ([`Self::fail_purpose`]), except
    /// where the reply itself decides: a failed Hello reply sends the
    /// Hello again, and any reply to a release ends the lock's era.
    pub(super) fn dispatch_reply(
        &mut self,
        lane: usize,
        purpose: Purpose,
        result: Result<ReplyBody, FsError>,
        ctx: &mut NodeCtx<'_>,
    ) {
        match (purpose, result) {
            (Purpose::Hello { sent_at }, Ok(ReplyBody::HelloOk { session, .. })) => {
                self.on_hello_ok(lane, sent_at, session, ctx);
            }
            (Purpose::Hello { .. }, _) => {
                self.lanes[lane].hello_inflight = false;
                self.send_hello(lane, ctx);
            }
            (Purpose::Release { ino }, _) => self.on_released(ino, ctx),
            (Purpose::Rename { op }, Ok(reply)) => self.dispatch_rename(op, reply, ctx),
            (Purpose::ListShard { op }, Ok(ReplyBody::Dir { entries })) => {
                // The op may already have completed (another shard's
                // failure): the fan-out is then gone.
                let Some(f) = self.list_fanout.get_mut(&op) else {
                    return;
                };
                f.entries.extend(entries.into_iter().map(|(n, _)| n));
                f.waiting -= 1;
                if f.waiting == 0 {
                    let mut all = std::mem::take(&mut f.entries);
                    all.sort();
                    self.complete_op(op, Ok(FsData::Entries(all)), ctx);
                }
            }
            (Purpose::Resolve { op }, Ok(ReplyBody::Resolved { ino, attr })) => {
                let Some(a) = self.ops.get_mut(&op) else {
                    return;
                };
                if let OpState::Resolve {
                    idx,
                    cur,
                    parts,
                    to_parent,
                } = &mut a.state
                {
                    *cur = ino;
                    *idx += 1;
                    if *idx >= parts.len() {
                        // Resolution finished. Stat can complete right
                        // here from the lookup's attributes.
                        if matches!(a.op, FsOp::Stat { .. }) {
                            return self.stat_from_server(op, ino, attr, ctx);
                        }
                        if !*to_parent {
                            let path = op_path(&a.op);
                            self.name_cache.insert(path, ino);
                        }
                        self.op_resolved(op, ino, ctx);
                    } else {
                        self.resolve_step(op, ctx);
                    }
                }
            }
            (Purpose::Attr { op, ino, under }, Ok(ReplyBody::Attr { attr })) => {
                if let Some(under) = under {
                    self.admit_attr(ino, under, &attr);
                }
                self.stat_from_server(op, ino, attr, ctx);
            }
            (Purpose::Meta { op }, Ok(ReplyBody::Created { .. } | ReplyBody::Ok)) => {
                self.complete_op(op, Ok(FsData::Unit), ctx);
            }
            (Purpose::Meta { op }, Ok(ReplyBody::Dir { entries })) => {
                let names = entries.into_iter().map(|(n, _)| n).collect();
                self.complete_op(op, Ok(FsData::Entries(names)), ctx);
            }
            (
                Purpose::Lock { ino, gen },
                Ok(ReplyBody::LockGranted {
                    ino: gino,
                    mode,
                    epoch,
                    blocks,
                    size,
                }),
            ) => {
                // A grant from a previous lock era (we released or
                // invalidated since) would reinstate a dead epoch. If the
                // server granted it post-release, its re-demand will find
                // us holding nothing and clean up.
                if gen == self.gen_of(ino) {
                    debug_assert_eq!(ino, gino);
                    self.on_lock_granted(ino, mode, epoch, blocks, size, ctx);
                }
            }
            (Purpose::Alloc { op, ino }, Ok(ReplyBody::Allocated { blocks })) => {
                // Allocation only grows a file; a shorter map here is a
                // reordered/stale reply and must not shrink ours (dirty
                // blocks past the map would become unflushable).
                if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                    if blocks.len() > info.blocks.len() {
                        info.blocks = blocks;
                    }
                }
                // Re-run the write: allocation may now suffice.
                self.run_data_op(op, ino, ctx);
            }
            (Purpose::Commit { ino }, Ok(_)) => {
                if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                    info.committed_size = info.size.max(info.committed_size);
                }
            }
            (Purpose::CommitThenRelease { ino, complete }, Ok(_)) => {
                if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
                    info.committed_size = info.size.max(info.committed_size);
                }
                self.send_release(ino, complete, ctx);
            }
            (Purpose::Batch { elems }, Ok(ReplyBody::Batch(outcomes))) => {
                // Zip per-element outcomes to their purposes in wire
                // order. A purpose past the end of the outcomes was cut
                // off by first-error-stops: it never executed at the
                // server, so failing it as Unavailable is safe — the
                // caller may freely re-submit.
                let mut outcomes = outcomes.into_iter();
                for p in elems {
                    match outcomes.next() {
                        Some(outcome) => self.dispatch_reply(lane, p, outcome, ctx),
                        None => self.fail_purpose(lane, p, FsErr::Unavailable, ctx),
                    }
                }
            }
            (purpose, Ok(_)) => self.fail_purpose(lane, purpose, FsErr::Invalid, ctx),
            (purpose, Err(e)) => self.fail_purpose(lane, purpose, map_fs_error(e), ctx),
        }
    }

    /// Advance a rename past its server round-trips: lookup → link at the
    /// destination → unlink at the source. Link-before-unlink means any
    /// failure leaves the file reachable under at least one name — the
    /// invariant the cross-shard test checks for.
    fn dispatch_rename(&mut self, op: OpId, reply: ReplyBody, ctx: &mut NodeCtx<'_>) {
        let Some(flow) = self.renames.get(&op) else {
            return; // already aborted (lane expiry, earlier failure)
        };
        let (src_dir, dst_dir) = (flow.src_dir, flow.dst_dir);
        let (src_name, dst_name) = (flow.src_name.clone(), flow.dst_name.clone());
        match (flow.stage, reply) {
            (RenameStage::AwaitLookup, ReplyBody::Resolved { ino, attr }) => {
                if attr.is_dir {
                    // Directory renames would need subtree ownership
                    // reasoning; out of scope for the sharded top level.
                    return self.complete_op(op, Err(FsErr::Invalid), ctx);
                }
                if let Some(flow) = self.renames.get_mut(&op) {
                    flow.ino = Some(ino);
                    flow.stage = RenameStage::AwaitLink;
                }
                let lane = self.lane_of_ino(dst_dir);
                self.send_request(
                    lane,
                    RequestBody::RenameLink {
                        dir: dst_dir,
                        name: dst_name,
                        ino,
                    },
                    Purpose::Rename { op },
                    true,
                    ctx,
                );
            }
            (RenameStage::AwaitLink, ReplyBody::Ok) => {
                if let Some(flow) = self.renames.get_mut(&op) {
                    flow.stage = RenameStage::AwaitUnlink;
                }
                let lane = self.lane_of_ino(src_dir);
                self.send_request(
                    lane,
                    RequestBody::RenameUnlink {
                        dir: src_dir,
                        name: src_name,
                    },
                    Purpose::Rename { op },
                    true,
                    ctx,
                );
            }
            (RenameStage::AwaitUnlink, ReplyBody::Ok) => {
                // Done. Fix the dentry cache: the old name is gone, the
                // new one points at the moved ino.
                let ino = self.renames.get(&op).and_then(|f| f.ino);
                self.name_cache.remove(&format!("/{src_name}"));
                if let Some(ino) = ino {
                    self.name_cache.insert(format!("/{dst_name}"), ino);
                }
                self.complete_op(op, Ok(FsData::Unit), ctx);
            }
            // A reply of the wrong kind for the stage the rename is in.
            (_, _unexpected) => self.complete_op(op, Err(FsErr::Invalid), ctx),
        }
    }

    // --------------------------------------------------------- completion

    pub(super) fn complete_op(&mut self, id: OpId, result: FsResult, ctx: &mut NodeCtx<'_>) {
        let Some(active) = self.ops.remove(&id) else {
            return;
        };
        match &active.op {
            FsOp::Delete { path } => {
                self.name_cache.remove(&canonical(path));
            }
            _ => {
                // A NotFound against a cached resolution means the entry
                // went stale (deleted/recreated elsewhere): drop it.
                if matches!(result, Err(FsErr::NotFound)) {
                    self.name_cache.remove(&canonical(active.op.path()));
                }
            }
        }
        // Drop any parked references to this op.
        if let Some(ino) = active.ino {
            if let Some(v) = self.parked.get_mut(&ino) {
                v.retain(|x| *x != id);
            }
        }
        // Tear down rename state: un-park from both directories and hand
        // back the directory locks we took for the transaction. An
        // incomplete flow is an abort (counted) — thanks to
        // link-before-unlink it never strands the file.
        if let Some(flow) = self.renames.remove(&id) {
            if result.is_err() {
                if let Some(obs) = &self.obs {
                    obs.rename_aborts.inc();
                }
            }
            let mut dirs = vec![flow.src_dir, flow.dst_dir];
            dirs.sort();
            dirs.dedup();
            for d in dirs {
                if let Some(v) = self.parked.get_mut(&d) {
                    v.retain(|x| *x != id);
                }
                if matches!(self.locks.get(&d), Some(LockEntry::Held(_))) {
                    self.send_release(d, None, ctx);
                }
            }
        }
        self.list_fanout.remove(&id);
        self.read_fetched.remove(&id);
        self.unpin_op(id);
        let kind = active.op.kind();
        let err = result.as_ref().err().copied();
        if err.is_some() {
            self.stats.failed += 1;
        }
        if !active.from_gen {
            self.log_result(id, result);
        }
        self.emit(
            Event::OpCompleted {
                op: id,
                kind,
                ok: err.is_none(),
                err,
            },
            ctx,
        );
        if active.from_gen {
            // Note: gen_op_queued tracks the *queued* (timer-armed) op,
            // which is not this one; only ask for more work.
            self.maybe_next_gen_op(ctx);
        }
    }
}
