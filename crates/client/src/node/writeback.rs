//! Write-back: flush campaigns over one inode's dirty blocks and the
//! periodic flush chain.

use super::*;

impl ClientNode {
    /// Arm the periodic write-back chain's next tick.
    pub(super) fn arm_flush_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let token = self.timers.insert(ClientTimer::PeriodicFlush);
        self.flush_tick = Some(token);
        ctx.set_timer(self.cfg.flush_interval, token);
    }

    pub(super) fn start_flush(&mut self, ino: Ino, after: AfterFlush, ctx: &mut NodeCtx<'_>) {
        let dirty = self.cache.dirty_of(ino);
        let nblocks = match self.locks.get(&ino) {
            Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => info.blocks.len(),
            _ => 0,
        };
        let queue: VecDeque<_> = dirty
            .into_iter()
            .filter(|(idx, _, _)| (*idx as usize) < nblocks)
            .collect();
        if queue.is_empty() {
            return self.flush_done(ino, after, ctx);
        }
        let campaign = self.next_flush_id;
        self.next_flush_id += 1;
        self.flushes.insert(
            campaign,
            FlushCampaign {
                ino,
                remaining: queue.len(),
                in_flight: 0,
                queue,
                after,
            },
        );
        self.issue_flush_writes(campaign, ctx);
    }

    /// Issue queued flush writes up to the window.
    pub(super) fn issue_flush_writes(&mut self, campaign: u64, ctx: &mut NodeCtx<'_>) {
        let window = self.cfg.flush_window.max(1);
        loop {
            let Some(c) = self.flushes.get_mut(&campaign) else {
                return;
            };
            if c.in_flight >= window {
                return;
            }
            let Some((idx, data, tag)) = c.queue.pop_front() else {
                return;
            };
            let ino = c.ino;
            c.in_flight += 1;
            let block = match self.locks.get(&ino) {
                Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => {
                    info.blocks.get(idx as usize).copied()
                }
                _ => None,
            };
            let Some(block) = block else {
                // Lock vanished mid-campaign: count the block as done.
                if let Some(c) = self.flushes.get_mut(&campaign) {
                    c.in_flight -= 1;
                    c.remaining -= 1;
                }
                continue;
            };
            let req_id = self.next_san_id;
            self.next_san_id += 1;
            self.san_ops.insert(
                req_id,
                SanOp::FlushWrite {
                    campaign,
                    ino,
                    idx,
                    tag,
                },
            );
            let disk = self.cfg.disks[stripe_disk(block, self.cfg.disks.len())];
            ctx.send(
                NetId::SAN,
                disk,
                NetMsg::San(SanMsg::WriteBlock {
                    req_id,
                    block,
                    data,
                    tag,
                }),
            );
        }
    }

    pub(super) fn flush_done(&mut self, ino: Ino, after: AfterFlush, ctx: &mut NodeCtx<'_>) {
        match after {
            AfterFlush::Nothing => {}
            AfterFlush::CompleteOp(id) => {
                self.finish_flush_commit(ino, Some(id), ctx);
            }
            AfterFlush::Release { complete } => {
                // An in-flight write may have re-dirtied the file behind
                // the campaign's snapshot; flush again until clean, only
                // then release (releasing would discard the dirty data).
                // Without a held lock (or mapped blocks) nothing can be
                // flushed — proceed to the release rather than looping.
                let nblocks = match self.locks.get(&ino) {
                    Some(LockEntry::Held(info)) | Some(LockEntry::Releasing(info)) => {
                        info.blocks.len()
                    }
                    _ => 0,
                };
                let flushable = self
                    .cache
                    .dirty_of(ino)
                    .iter()
                    .any(|(idx, _, _)| (*idx as usize) < nblocks);
                if flushable {
                    self.start_flush(ino, AfterFlush::Release { complete }, ctx);
                } else {
                    self.commit_then_release(ino, complete, ctx);
                }
            }
        }
    }

    /// Commit the size if it grew, then complete the Flush op.
    pub(super) fn finish_flush_commit(
        &mut self,
        ino: Ino,
        complete: Option<OpId>,
        ctx: &mut NodeCtx<'_>,
    ) {
        if let Some(LockEntry::Held(info)) = self.locks.get(&ino) {
            if info.size > info.committed_size {
                let new_size = info.size;
                let lane = self.lane_of_ino(ino);
                self.send_request(
                    lane,
                    RequestBody::CommitWrite { ino, new_size },
                    Purpose::Commit { ino },
                    true,
                    ctx,
                );
            }
        }
        if let Some(id) = complete {
            self.complete_op(id, Ok(FsData::Unit), ctx);
        }
    }
}
