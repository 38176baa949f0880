//! The data path: reads, writes and attributes under a held lock, the
//! cache's two gates, and the SAN requests and responses behind them.

use super::*;

impl ClientNode {
    // ------------------------------------------------------------ data ops

    /// The op holds a covering lock; run its data phase.
    pub(super) fn run_data_op(&mut self, id: OpId, ino: Ino, ctx: &mut NodeCtx<'_>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        match &active.op {
            FsOp::Read { offset, len, .. } => {
                let (offset, len) = (*offset, *len);
                self.run_read(id, ino, offset, len, ctx);
            }
            FsOp::Write { offset, data, .. } => {
                let (offset, dlen) = (*offset, data.len());
                self.run_write_prepare(id, ino, offset, dlen, ctx);
            }
            FsOp::Rename { .. } => {
                // A directory lock the rename was parked on was granted;
                // take the next lock or start the lookup chain.
                self.rename_advance(id, ctx);
            }
            _ => unreachable!("only read/write/rename take the data path"),
        }
    }

    fn run_read(&mut self, id: OpId, ino: Ino, offset: u64, len: u32, ctx: &mut NodeCtx<'_>) {
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        };
        let (size, epoch) = (info.size, info.epoch);
        let nblocks = info.blocks.len();
        if offset >= size || len == 0 {
            return self.complete_op(id, Ok(FsData::Bytes(Vec::new())), ctx);
        }
        let end = (offset + len as u64).min(size);
        let bs = self.cfg.block_size as u64;
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        // A resident block is a hit, counted at serve time so the counter
        // matches the `from_cache` events one-for-one; a mapped block that
        // is not resident is fetched. Holes are neither.
        let misses = self.uncached(ino, &info.blocks, first..=last);
        let waiting = misses.len();
        if waiting == 0 {
            return self.finish_read(id, ino, ctx);
        }
        let mut fetched: Vec<u32> = Vec::with_capacity(waiting);
        for (idx, block) in misses {
            fetched.push(idx);
            self.san_read(
                ino,
                idx,
                block,
                SanOp::OpRead {
                    op: id,
                    ino,
                    idx,
                    epoch,
                },
                ctx,
            );
        }
        // The read now waits on the SAN: pin every block it will serve, so
        // no other read's trim evicts one before it is answered.
        for idx in (first..=last).filter(|&idx| (idx as usize) < nblocks) {
            self.pin_for(id, ino, idx);
        }
        self.read_fetched.entry(id).or_default().extend(fetched);
        if let Some(a) = self.ops.get_mut(&id) {
            a.state = OpState::SanReads {
                waiting,
                then_write: false,
            };
        }
    }

    /// Phase gate for *serving* cached data (DESIGN.md Figure 4): only a
    /// lane in phases 1–2 may serve. Once the lease turns Suspect the
    /// lane stops `serving` and its quiesced cache answers nothing until
    /// recovery — every cached-read serve path must consult this.
    fn cache_usable(&self, ino: Ino) -> bool {
        !self.cfg.phase3_gate || self.lanes[self.lane_of_ino(ino)].serving
    }

    /// Admission gate for *filling* the cache: data may enter only if it
    /// was read under the lock epoch we still hold. A SAN response that
    /// crossed a release/re-grant is a stale snapshot of the block —
    /// every cache fill must consult this.
    fn may_admit(&self, ino: Ino, epoch: Epoch) -> bool {
        matches!(
            self.locks.get(&ino),
            Some(LockEntry::Held(info)) if info.epoch == epoch
        )
    }

    /// Serve a `Stat` from the attributes cached under the lock on `ino`:
    /// the entry must be `Held` with admitted attributes and the lane in
    /// phase 1–2 (the serve funnel reads use). The size reported is the
    /// holder's local one — under `Exclusive` it includes growth not yet
    /// committed, which only this client can have caused.
    pub(super) fn stat_from_lock(&mut self, id: OpId, ino: Ino, ctx: &mut NodeCtx<'_>) -> bool {
        if !self.cache_usable(ino) {
            return false;
        }
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return false;
        };
        let Some(attr) = info.attr else {
            return false;
        };
        let data = FsData::Attr {
            size: info.size,
            is_dir: attr.is_dir,
            version: attr.version,
        };
        self.emit(
            Event::AttrServed {
                ino,
                from_cache: true,
            },
            ctx,
        );
        self.complete_op(id, Ok(data), ctx);
        true
    }

    /// Complete a `Stat` with attributes the server just sent.
    pub(super) fn stat_from_server(
        &mut self,
        id: OpId,
        ino: Ino,
        attr: FileAttr,
        ctx: &mut NodeCtx<'_>,
    ) {
        if !self.ops.contains_key(&id) {
            return; // the op already failed (lane expiry): nothing is served
        }
        self.emit(
            Event::AttrServed {
                ino,
                from_cache: false,
            },
            ctx,
        );
        let data = FsData::Attr {
            size: attr.size,
            is_dir: attr.is_dir,
            version: attr.version,
        };
        self.complete_op(id, Ok(data), ctx);
    }

    /// What a `GetAttr` for `ino` leaving now may later be admitted
    /// under: the held grant's epoch and own-mutation generation. `None`
    /// when no grant is `Held`, or when an own mutation of the inode is
    /// still unanswered — the network may deliver it *after* this request,
    /// and the reply would then describe the inode before it.
    pub(super) fn attr_admissible(&self, ino: Ino) -> Option<(Epoch, u64)> {
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return None;
        };
        let unanswered = self.pending.values().any(|p| mutates(&p.body, ino))
            || self.lanes[self.lane_of_ino(ino)]
                .queue
                .iter()
                .any(|(body, _, _)| mutates(body, ino));
        (!unanswered).then_some((info.epoch, info.mutations))
    }

    /// Admission gate for the attribute cache, the attribute half of
    /// [`may_admit`](Self::may_admit): the reply's request must have left
    /// under the grant still held, and no own mutation of the inode may
    /// have been sent since — one that was has changed the version this
    /// reply reports (or is about to).
    pub(super) fn admit_attr(&mut self, ino: Ino, under: (Epoch, u64), attr: &FileAttr) {
        let (epoch, mutations) = under;
        if !self.may_admit(ino, epoch) {
            return;
        }
        if let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) {
            if info.mutations == mutations {
                info.attr = Some(CachedAttr {
                    version: attr.version,
                    is_dir: attr.is_dir,
                });
            }
        }
    }

    fn finish_read(&mut self, id: OpId, ino: Ino, ctx: &mut NodeCtx<'_>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        let FsOp::Read { offset, len, .. } = &active.op else {
            return;
        };
        let (offset, len) = (*offset, *len);
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        };
        // Phase-3 serve gate (Figure 4): the lease turned Suspect while
        // this read was in flight — a quiesced cache serves nothing, the
        // op fails exactly as if it had arrived after the gate closed.
        if !self.cache_usable(ino) {
            self.read_fetched.remove(&id);
            return self.complete_op(id, Err(FsErr::Suspended), ctx);
        }
        let (size, epoch) = (info.size, info.epoch);
        let bs = self.cfg.block_size as u64;
        let end = (offset + len as u64).min(size);
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        // The op's blocks are pinned against capacity trims, but a lock
        // hand-off while its SAN fetches were in flight drops the file's
        // blocks all the same: refetch before serving (zeros here would be
        // silent corruption).
        let misses = self.uncached(ino, &info.blocks, first..=last);
        let missing = misses.len();
        for (idx, block) in misses {
            self.stats.cache_refetches += 1;
            if let Some(obs) = &self.obs {
                obs.cache_refetches.inc();
            }
            self.read_fetched.entry(id).or_default().push(idx);
            self.san_read(
                ino,
                idx,
                block,
                SanOp::OpRead {
                    op: id,
                    ino,
                    idx,
                    epoch,
                },
                ctx,
            );
        }
        if missing > 0 {
            if let Some(a) = self.ops.get_mut(&id) {
                a.state = OpState::SanReads {
                    waiting: missing,
                    then_write: false,
                };
            }
            return;
        }
        let fetched = self.read_fetched.remove(&id).unwrap_or_default();
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut served: Vec<(u32, WriteTag, bool)> = Vec::new();
        for idx in first..=last {
            let bstart = idx as u64 * bs;
            let lo = offset.max(bstart) - bstart;
            let hi = end.min(bstart + bs) - bstart;
            match self.cache.get(ino, idx) {
                Some(b) => {
                    out.extend_from_slice(&b.data[lo as usize..hi as usize]);
                    // From cache iff it was already resident when the read
                    // was admitted (not just fetched on its behalf).
                    served.push((idx, b.tag, !fetched.contains(&idx)));
                }
                None => {
                    // Hole (never-written block): zeros, not cache data.
                    out.extend(std::iter::repeat_n(0u8, (hi - lo) as usize));
                    served.push((idx, WriteTag::default(), false));
                }
            }
        }
        for &(idx, _, _) in &served {
            self.cache.touch(ino, idx);
        }
        self.unpin_op(id);
        let evicted = self.cache.trim();
        if evicted > 0 {
            self.stats.cache_evictions += evicted as u64;
            if let Some(obs) = &self.obs {
                obs.cache_evictions.add(evicted as u64);
            }
        }
        for (idx, tag, from_cache) in served {
            self.emit(
                Event::ReadServed {
                    ino,
                    idx,
                    tag,
                    from_cache,
                },
                ctx,
            );
        }
        self.complete_op(id, Ok(FsData::Bytes(out)), ctx);
    }

    fn run_write_prepare(
        &mut self,
        id: OpId,
        ino: Ino,
        offset: u64,
        dlen: usize,
        ctx: &mut NodeCtx<'_>,
    ) {
        let bs = self.cfg.block_size as u64;
        let end = offset + dlen as u64;
        let needed = end.div_ceil(bs) as usize;
        if self.write_grant(id, ino, ctx).is_none() {
            return;
        }
        let Some(LockEntry::Held(info)) = self.locks.get(&ino) else {
            return;
        };
        if needed > info.blocks.len() {
            let count = (needed - info.blocks.len()) as u32;
            if let Some(a) = self.ops.get_mut(&id) {
                a.state = OpState::WaitAlloc;
            }
            let lane = self.lane_of_ino(ino);
            self.send_request(
                lane,
                RequestBody::AllocBlocks { ino, count },
                Purpose::Alloc { op: id, ino },
                true,
                ctx,
            );
            return;
        }
        // Read-modify-write: partial blocks that may hold live data and
        // are not cached must be fetched first.
        let (size, epoch) = (info.size, info.epoch);
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        let partial: Vec<u32> = (first..=last)
            .filter(|&idx| {
                let bstart = idx as u64 * bs;
                let covers_fully = offset <= bstart && end >= bstart + bs;
                let has_live_data = bstart < size && (idx as usize) < info.blocks.len();
                !covers_fully && has_live_data
            })
            .collect();
        let misses = self.uncached(ino, &info.blocks, partial.iter().copied());
        let waiting = misses.len();
        if waiting == 0 {
            return self.apply_write(id, ino, epoch, ctx);
        }
        for (idx, block) in misses {
            self.san_read(
                ino,
                idx,
                block,
                SanOp::OpRead {
                    op: id,
                    ino,
                    idx,
                    epoch,
                },
                ctx,
            );
        }
        // Pin the partial blocks until the write lands: one evicted in the
        // meantime would be rewritten around zeros, its live bytes lost.
        for idx in partial {
            self.pin_for(id, ino, idx);
        }
        if let Some(a) = self.ops.get_mut(&id) {
            a.state = OpState::SanReads {
                waiting,
                then_write: true,
            };
        }
    }

    /// The epoch of the `Exclusive` grant write `id` on `ino` proceeds
    /// under. A write's preparation can outlive the grant it began under:
    /// an `Allocated` reply or an RMW read lands after a demand took the
    /// lock and a `SharedRead` re-grant replaced it. Under a read grant
    /// the op goes back to wait for `Exclusive`; with no grant it fails.
    /// `None` when the op does not proceed now.
    fn write_grant(&mut self, id: OpId, ino: Ino, ctx: &mut NodeCtx<'_>) -> Option<Epoch> {
        let (mode, epoch) = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) => (info.mode, info.epoch),
            _ => {
                self.complete_op(id, Err(FsErr::LeaseLost), ctx);
                return None;
            }
        };
        if mode.covers(LockMode::Exclusive) {
            return Some(epoch);
        }
        self.unpin_op(id);
        self.ensure_lock_then(id, ino, LockMode::Exclusive, ctx);
        None
    }

    /// Write `id`'s payload into the cache under the `Exclusive` grant of
    /// `epoch`. Every caller has just passed [`Self::write_grant`], or
    /// [`Self::may_admit`] under the epoch it returned, and a grant's
    /// epoch never changes mode: the write cannot park here.
    fn apply_write(&mut self, id: OpId, ino: Ino, epoch: Epoch, ctx: &mut NodeCtx<'_>) {
        let Some(active) = self.ops.get(&id) else {
            return;
        };
        let FsOp::Write { offset, data, .. } = &active.op else {
            return;
        };
        let (offset, dlen) = (*offset, data.len());
        // §3.2: by phase 4 the flush snapshot is final. An in-flight write
        // completing now would dirty the cache *behind* the flush and be
        // discarded at expiry — refuse it instead of lying to the process.
        if self.cfg.lease_enabled
            && matches!(
                self.lanes[self.lane_of_ino(ino)].lease.phase(ctx.now()),
                Phase::ExpectedFailure | Phase::Expired
            )
        {
            return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
        }
        let me = ctx.node();
        let bs = self.cfg.block_size as u64;
        let end = offset + dlen as u64;
        // Past the phase-4 refusal the op completes below: take its
        // payload instead of cloning it. Taken any earlier, a parked or
        // refused write would lose its bytes.
        let data = match self.ops.get_mut(&id).map(|a| &mut a.op) {
            Some(FsOp::Write { data, .. }) => std::mem::take(data),
            _ => return,
        };
        let first = (offset / bs) as u32;
        let last = ((end - 1) / bs) as u32;
        let mut acked: Vec<(u32, WriteTag)> = Vec::new();
        for idx in first..=last {
            let bstart = idx as u64 * bs;
            let lo = offset.max(bstart);
            let hi = end.min(bstart + bs);
            // Odd wseq from the client-global counter: still monotone
            // within this lock's epoch, and never equal to any other tag
            // this client's writes produce under any epoch of any shard.
            self.next_wseq += 1;
            let tag = WriteTag {
                writer: me,
                epoch,
                wseq: 2 * self.next_wseq + 1,
            };
            let slice = &data[(lo - offset) as usize..(hi - offset) as usize];
            let covers_fully = lo == bstart && hi == bstart + bs;
            if self.cache.get(ino, idx).is_none() && !covers_fully {
                // Block has no live data (RMW skipped it): surround with
                // zeroes.
                let mut full = vec![0u8; bs as usize];
                full[(lo - bstart) as usize..(hi - bstart) as usize].copy_from_slice(slice);
                self.cache.write(ino, idx, 0, &full, tag);
            } else {
                self.cache
                    .write(ino, idx, (lo - bstart) as usize, slice, tag);
            }
            acked.push((idx, tag));
        }
        let grew = {
            let Some(LockEntry::Held(info)) = self.locks.get_mut(&ino) else {
                return self.complete_op(id, Err(FsErr::LeaseLost), ctx);
            };
            if end > info.size {
                info.size = end;
            }
            info.size > info.committed_size
        };
        for (idx, tag) in acked {
            self.emit(Event::WriteAcked { ino, idx, tag }, ctx);
        }
        if grew {
            // Commit size growth eagerly so other clients' views (block
            // map + size) stay fresh; data itself remains write-back.
            let new_size = match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) => info.size,
                _ => end,
            };
            let lane = self.lane_of_ino(ino);
            self.send_request(
                lane,
                RequestBody::CommitWrite { ino, new_size },
                Purpose::Commit { ino },
                true,
                ctx,
            );
        }
        self.complete_op(id, Ok(FsData::Unit), ctx);
    }

    /// The blocks among `idxs` of `ino` that are mapped but not resident,
    /// with their SAN addresses in `blocks`: what a read or a
    /// read-modify-write must fetch, in index order.
    fn uncached(
        &self,
        ino: Ino,
        blocks: &[BlockId],
        idxs: impl IntoIterator<Item = u32>,
    ) -> Vec<(u32, BlockId)> {
        idxs.into_iter()
            .filter(|&idx| (idx as usize) < blocks.len() && self.cache.get(ino, idx).is_none())
            .map(|idx| (idx, blocks[idx as usize]))
            .collect()
    }

    /// Pin block `idx` of `ino` for op `id` (once per op), so no capacity
    /// trim evicts it before the op has used it.
    fn pin_for(&mut self, id: OpId, ino: Ino, idx: u32) {
        let (_, pinned) = self.op_pins.entry(id).or_insert_with(|| (ino, Vec::new()));
        if !pinned.contains(&idx) {
            pinned.push(idx);
            self.cache.pin(ino, idx);
        }
    }

    /// Release every pin op `id` holds.
    pub(super) fn unpin_op(&mut self, id: OpId) {
        if let Some((ino, pinned)) = self.op_pins.remove(&id) {
            for idx in pinned {
                self.cache.unpin(ino, idx);
            }
        }
    }

    // --------------------------------------------------------------- SAN

    fn san_read(
        &mut self,
        _ino: Ino,
        _idx: u32,
        block: BlockId,
        what: SanOp,
        ctx: &mut NodeCtx<'_>,
    ) {
        let req_id = self.next_san_id;
        self.next_san_id += 1;
        self.san_ops.insert(req_id, what);
        self.stats.cache_misses += 1;
        if let Some(obs) = &self.obs {
            obs.cache_misses.inc();
        }
        let disk = self.cfg.disks[stripe_disk(block, self.cfg.disks.len())];
        ctx.send(
            NetId::SAN,
            disk,
            NetMsg::San(SanMsg::ReadBlock { req_id, block }),
        );
    }

    pub(super) fn on_san_resp(&mut self, san: SanMsg, ctx: &mut NodeCtx<'_>) {
        match san {
            SanMsg::ReadResp { req_id, result } => {
                let Some(SanOp::OpRead {
                    op,
                    ino,
                    idx,
                    epoch,
                }) = self.san_ops.remove(&req_id)
                else {
                    return;
                };
                // The lock this read was issued under must still be the
                // one we hold: a response that crossed a release/re-grant
                // is a stale snapshot and must not enter the cache.
                if !self.may_admit(ino, epoch) {
                    return self.complete_op(op, Err(FsErr::LeaseLost), ctx);
                }
                match result {
                    Ok(ok) => {
                        self.cache.fill(ino, idx, ok.data, ok.tag);
                        let Some(a) = self.ops.get_mut(&op) else {
                            return;
                        };
                        if let OpState::SanReads {
                            waiting,
                            then_write,
                        } = &mut a.state
                        {
                            *waiting -= 1;
                            if *waiting == 0 {
                                let then_write = *then_write;
                                if then_write {
                                    self.apply_write(op, ino, epoch, ctx);
                                } else {
                                    self.finish_read(op, ino, ctx);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        if e == tank_proto::SanError::Fenced {
                            self.stats.fenced_io += 1;
                        }
                        self.complete_op(op, Err(FsErr::LeaseLost), ctx);
                    }
                }
            }
            SanMsg::WriteResp { req_id, result } => {
                let Some(SanOp::FlushWrite {
                    campaign,
                    ino,
                    idx,
                    tag,
                }) = self.san_ops.remove(&req_id)
                else {
                    return;
                };
                match result {
                    Ok(()) => {
                        self.cache.mark_clean(ino, idx, tag);
                        self.stats.flushed_blocks += 1;
                        if let Some(obs) = &self.obs {
                            obs.writeback_flushes.inc();
                        }
                        // Hardening frees the block for eviction: a cache
                        // over capacity on dirty overflow drains here.
                        let evicted = self.cache.trim();
                        if evicted > 0 {
                            self.stats.cache_evictions += evicted as u64;
                            if let Some(obs) = &self.obs {
                                obs.cache_evictions.add(evicted as u64);
                            }
                        }
                    }
                    Err(e) => {
                        if e == tank_proto::SanError::Fenced {
                            self.stats.fenced_io += 1;
                        }
                        // The block stays dirty; a later flush may retry.
                    }
                }
                let done = {
                    let Some(c) = self.flushes.get_mut(&campaign) else {
                        return;
                    };
                    c.in_flight -= 1;
                    c.remaining -= 1;
                    c.remaining == 0
                };
                if done {
                    let c = self.flushes.remove(&campaign).unwrap();
                    self.flush_done(c.ino, c.after, ctx);
                } else {
                    self.issue_flush_writes(campaign, ctx);
                }
            }
            other => {
                // Protocol anomaly: counted and traced, never printed —
                // normal runs stay silent, exporter runs see it structured.
                if let Some(obs) = &self.obs {
                    obs.unexpected_msgs.inc();
                    obs.trace(ctx, "unexpected", || format!("san {other:?}"));
                }
            }
        }
    }
}
