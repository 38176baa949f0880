//! The shared virtual disk actor.

use std::collections::HashMap;

use tank_proto::{
    BlockId, BlockRange, Event, FenceOp, NetMsg, SanError, SanMsg, SanReadOk, WriteTag,
};
use tank_sim::{Actor, Ctx, NetId, NodeId};

/// Disk geometry and behaviour.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Number of addressable blocks.
    pub blocks: u64,
    /// Block size in bytes; writes must carry exactly this much data.
    pub block_size: usize,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            blocks: 1 << 16,
            block_size: 4096,
        }
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Reads served.
    pub reads: u64,
    /// Writes hardened.
    pub writes: u64,
    /// I/Os rejected due to fencing.
    pub fenced_rejections: u64,
    /// Fence/unfence commands processed.
    pub fence_ops: u64,
}

/// One block's persistent contents.
#[derive(Debug, Clone)]
struct Block {
    data: Vec<u8>,
    tag: WriteTag,
}

/// A shared SAN disk.
///
/// Generic over the world's observation type `Ob`; the `observe` closure
/// converts the [`Event`]s it reports (experiment/checker metadata — a
/// real disk does none of this) into world observations (return `None` to
/// drop them, e.g. in micro-benchmarks).
pub struct DiskNode<Ob> {
    cfg: DiskConfig,
    /// Sparse block store: unwritten blocks read as zeroes with the
    /// default tag.
    store: HashMap<BlockId, Block>,
    /// Fenced initiators and the block ranges each is fenced out of;
    /// enforced indefinitely (§1.2). A sharded metadata cluster fences a
    /// client out of one shard's slice at a time, so an initiator can
    /// carry several disjoint fenced ranges.
    fenced: HashMap<NodeId, Vec<BlockRange>>,
    /// When set, every I/O fails with `DeviceError` (fault injection).
    failing: bool,
    stats: DiskStats,
    observe: Box<dyn Fn(Event) -> Option<Ob>>,
}

impl<Ob> DiskNode<Ob> {
    /// New disk with the given geometry and observer.
    pub fn new(cfg: DiskConfig, observe: Box<dyn Fn(Event) -> Option<Ob>>) -> Self {
        DiskNode {
            cfg,
            store: HashMap::new(),
            fenced: HashMap::new(),
            failing: false,
            stats: DiskStats::default(),
            observe,
        }
    }

    /// Disk with no observer.
    pub fn unobserved(cfg: DiskConfig) -> Self {
        DiskNode::new(cfg, Box::new(|_| None))
    }

    fn emit(&self, ev: Event, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        if let Some(ob) = (self.observe)(ev) {
            ctx.observe(ob);
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Whether an initiator is currently fenced out of any range.
    pub fn is_fenced(&self, initiator: NodeId) -> bool {
        self.fenced.get(&initiator).is_some_and(|r| !r.is_empty())
    }

    /// Whether an I/O by `initiator` against `block` would be rejected.
    pub fn is_fenced_for(&self, initiator: NodeId, block: BlockId) -> bool {
        self.fenced
            .get(&initiator)
            .is_some_and(|ranges| ranges.iter().any(|r| r.contains(block)))
    }

    /// Inject (or clear) a whole-device failure.
    pub fn set_failing(&mut self, failing: bool) {
        self.failing = failing;
    }

    /// Peek at a block's current tag (harness/checker use; not a SAN op).
    pub fn block_tag(&self, block: BlockId) -> WriteTag {
        self.store.get(&block).map(|b| b.tag).unwrap_or_default()
    }

    /// Number of blocks ever written (memory accounting).
    pub fn blocks_written(&self) -> usize {
        self.store.len()
    }

    /// Test-only direct read (the actor interface is the product surface).
    pub fn testing_read(
        &mut self,
        initiator: NodeId,
        block: BlockId,
    ) -> Result<SanReadOk, SanError> {
        self.read(initiator, block)
    }

    /// Test-only direct write.
    pub fn testing_write(
        &mut self,
        initiator: NodeId,
        block: BlockId,
        data: Vec<u8>,
        tag: WriteTag,
    ) -> Result<WriteTag, SanError> {
        self.write(initiator, block, data, tag)
    }

    /// Test-only fence toggle (whole device).
    pub fn testing_fence(&mut self, target: NodeId, fence: bool) {
        if fence {
            self.apply_fence(target, FenceOp::Fence, BlockRange::ALL);
        } else {
            self.fenced.remove(&target);
        }
    }

    fn apply_fence(&mut self, target: NodeId, op: FenceOp, range: BlockRange) {
        match op {
            FenceOp::Fence => {
                let ranges = self.fenced.entry(target).or_default();
                if !ranges.contains(&range) {
                    ranges.push(range);
                }
            }
            FenceOp::Unfence => {
                if let Some(ranges) = self.fenced.get_mut(&target) {
                    ranges.retain(|r| *r != range);
                    if ranges.is_empty() {
                        self.fenced.remove(&target);
                    }
                }
            }
        }
    }

    fn check_addr(&self, block: BlockId) -> Result<(), SanError> {
        if self.failing {
            Err(SanError::DeviceError)
        } else if block.0 >= self.cfg.blocks {
            Err(SanError::BadAddress)
        } else {
            Ok(())
        }
    }

    fn read(&mut self, initiator: NodeId, block: BlockId) -> Result<SanReadOk, SanError> {
        if self.is_fenced_for(initiator, block) {
            self.stats.fenced_rejections += 1;
            return Err(SanError::Fenced);
        }
        self.check_addr(block)?;
        self.stats.reads += 1;
        Ok(match self.store.get(&block) {
            Some(b) => SanReadOk {
                data: b.data.clone(),
                tag: b.tag,
            },
            None => SanReadOk {
                data: vec![0u8; self.cfg.block_size],
                tag: WriteTag::default(),
            },
        })
    }

    fn write(
        &mut self,
        initiator: NodeId,
        block: BlockId,
        data: Vec<u8>,
        tag: WriteTag,
    ) -> Result<WriteTag, SanError> {
        if self.is_fenced_for(initiator, block) {
            self.stats.fenced_rejections += 1;
            return Err(SanError::Fenced);
        }
        self.check_addr(block)?;
        assert_eq!(
            data.len(),
            self.cfg.block_size,
            "partial-block SAN writes are not a thing; initiators read-modify-write"
        );
        self.stats.writes += 1;
        let previous = self
            .store
            .insert(block, Block { data, tag })
            .map(|b| b.tag)
            .unwrap_or_default();
        Ok(previous)
    }
}

impl<Ob: 'static> Actor<NetMsg, Ob> for DiskNode<Ob> {
    fn on_message(&mut self, from: NodeId, net: NetId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg, Ob>) {
        let NetMsg::San(san) = msg else {
            // Control traffic addressed to a disk is a wiring bug.
            debug_assert!(false, "disk received control message");
            return;
        };
        match san {
            SanMsg::ReadBlock { req_id, block } => {
                let result = self.read(from, block);
                if let Ok(ok) = &result {
                    let ev = Event::DiskRead {
                        initiator: from,
                        block,
                        tag: ok.tag,
                    };
                    self.emit(ev, ctx);
                } else if matches!(result, Err(SanError::Fenced)) {
                    let ev = Event::FenceRejected {
                        initiator: from,
                        was_write: false,
                    };
                    self.emit(ev, ctx);
                }
                ctx.send(net, from, NetMsg::San(SanMsg::ReadResp { req_id, result }));
            }
            SanMsg::WriteBlock {
                req_id,
                block,
                data,
                tag,
            } => {
                let result = match self.write(from, block, data, tag) {
                    Ok(previous) => {
                        let ev = Event::Hardened {
                            initiator: from,
                            block,
                            tag,
                            previous,
                        };
                        self.emit(ev, ctx);
                        Ok(())
                    }
                    Err(e) => {
                        if e == SanError::Fenced {
                            let ev = Event::FenceRejected {
                                initiator: from,
                                was_write: true,
                            };
                            self.emit(ev, ctx);
                        }
                        Err(e)
                    }
                };
                ctx.send(net, from, NetMsg::San(SanMsg::WriteResp { req_id, result }));
            }
            SanMsg::FenceCmd {
                req_id,
                target,
                op,
                range,
            } => {
                self.stats.fence_ops += 1;
                self.apply_fence(target, op, range);
                if op == FenceOp::Fence {
                    let ev = Event::FenceInstalled {
                        target,
                        range_start: range.start,
                        range_end: range.end,
                    };
                    self.emit(ev, ctx);
                }
                ctx.send(net, from, NetMsg::San(SanMsg::FenceResp { req_id }));
            }
            SanMsg::ReadResp { .. } | SanMsg::WriteResp { .. } | SanMsg::FenceResp { .. } => {
                debug_assert!(false, "disk received a response message");
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, NetMsg, Ob>) {}

    // A disk that "crashes" keeps its persistent store: only `fenced` and
    // `failing` are volatile controller state. The paper scopes storage
    // subsystem failures out (§1); we keep contents stable so experiments
    // can crash/restart disks without losing the point under test.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, NetMsg, Ob>) {
        self.failing = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tank_proto::Epoch;
    use tank_sim::{ClockSpec, LocalNs, NetParams, SimTime, World, WorldConfig};

    /// Test initiator: scripts a list of SAN ops, fires them at 1ms
    /// intervals, records responses.
    struct Initiator {
        disk: NodeId,
        script: Vec<SanMsg>,
        responses: Vec<SanMsg>,
        next: usize,
    }

    impl Actor<NetMsg, ()> for Initiator {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg, ()>) {
            ctx.set_timer(LocalNs::from_millis(1), 0);
        }
        fn on_message(
            &mut self,
            _from: NodeId,
            _net: NetId,
            msg: NetMsg,
            _ctx: &mut Ctx<'_, NetMsg, ()>,
        ) {
            if let NetMsg::San(san) = msg {
                self.responses.push(san);
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, NetMsg, ()>) {
            if let Some(op) = self.script.get(self.next) {
                self.next += 1;
                ctx.send(NetId::SAN, self.disk, NetMsg::San(op.clone()));
                ctx.set_timer(LocalNs::from_millis(1), 0);
            }
        }
    }

    fn world_with_disk(script: Vec<SanMsg>) -> (World<NetMsg>, NodeId, NodeId) {
        let mut w: World<NetMsg> = World::new(WorldConfig::default());
        w.add_network(NetId::SAN, NetParams::ideal(10_000));
        let disk = w.add_node(
            Box::new(DiskNode::<()>::unobserved(DiskConfig {
                blocks: 128,
                block_size: 8,
            })),
            ClockSpec::ideal(),
        );
        let init = w.add_node(
            Box::new(Initiator {
                disk,
                script,
                responses: Vec::new(),
                next: 0,
            }),
            ClockSpec::ideal(),
        );
        (w, disk, init)
    }

    fn tag(writer: u32, epoch: u64, wseq: u64) -> WriteTag {
        WriteTag {
            writer: NodeId(writer),
            epoch: Epoch(epoch),
            wseq,
        }
    }

    #[test]
    fn unwritten_blocks_read_as_zeroes_with_default_tag() {
        let (mut w, _, init) = world_with_disk(vec![SanMsg::ReadBlock {
            req_id: 1,
            block: BlockId(5),
        }]);
        w.run_until(SimTime::from_secs(1));
        let r = &w.node_ref::<Initiator>(init).unwrap().responses;
        match &r[0] {
            SanMsg::ReadResp {
                req_id: 1,
                result: Ok(ok),
            } => {
                assert_eq!(ok.data, vec![0u8; 8]);
                assert_eq!(ok.tag, WriteTag::default());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_then_read_roundtrips_data_and_tag() {
        let t = tag(1, 3, 7);
        let (mut w, disk, init) = world_with_disk(vec![
            SanMsg::WriteBlock {
                req_id: 1,
                block: BlockId(2),
                data: vec![9u8; 8],
                tag: t,
            },
            SanMsg::ReadBlock {
                req_id: 2,
                block: BlockId(2),
            },
        ]);
        w.run_until(SimTime::from_secs(1));
        let r = &w.node_ref::<Initiator>(init).unwrap().responses;
        assert!(matches!(
            r[0],
            SanMsg::WriteResp {
                req_id: 1,
                result: Ok(())
            }
        ));
        match &r[1] {
            SanMsg::ReadResp { result: Ok(ok), .. } => {
                assert_eq!(ok.data, vec![9u8; 8]);
                assert_eq!(ok.tag, t);
            }
            other => panic!("unexpected {other:?}"),
        }
        let d = w.node_ref::<DiskNode<()>>(disk).unwrap();
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.blocks_written(), 1);
    }

    #[test]
    fn out_of_range_block_is_bad_address() {
        let (mut w, _, init) = world_with_disk(vec![SanMsg::ReadBlock {
            req_id: 1,
            block: BlockId(999),
        }]);
        w.run_until(SimTime::from_secs(1));
        let r = &w.node_ref::<Initiator>(init).unwrap().responses;
        assert!(matches!(
            r[0],
            SanMsg::ReadResp {
                result: Err(SanError::BadAddress),
                ..
            }
        ));
    }

    #[test]
    fn fenced_initiator_is_rejected_until_unfenced() {
        // The initiator fences *itself* for the test (in production the
        // server sends the fence command; the disk does not care who asks).
        let t = tag(2, 1, 0);
        let me = NodeId(1); // initiator gets id 1 (disk is 0)
        let (mut w, _, init) = world_with_disk(vec![
            SanMsg::FenceCmd {
                req_id: 1,
                target: me,
                op: FenceOp::Fence,
                range: BlockRange::ALL,
            },
            SanMsg::WriteBlock {
                req_id: 2,
                block: BlockId(0),
                data: vec![1u8; 8],
                tag: t,
            },
            SanMsg::ReadBlock {
                req_id: 3,
                block: BlockId(0),
            },
            SanMsg::FenceCmd {
                req_id: 4,
                target: me,
                op: FenceOp::Unfence,
                range: BlockRange::ALL,
            },
            SanMsg::WriteBlock {
                req_id: 5,
                block: BlockId(0),
                data: vec![1u8; 8],
                tag: t,
            },
        ]);
        w.run_until(SimTime::from_secs(1));
        let r = &w.node_ref::<Initiator>(init).unwrap().responses;
        assert!(matches!(r[0], SanMsg::FenceResp { req_id: 1 }));
        assert!(matches!(
            r[1],
            SanMsg::WriteResp {
                result: Err(SanError::Fenced),
                ..
            }
        ));
        assert!(matches!(
            r[2],
            SanMsg::ReadResp {
                result: Err(SanError::Fenced),
                ..
            }
        ));
        assert!(matches!(r[3], SanMsg::FenceResp { req_id: 4 }));
        assert!(matches!(r[4], SanMsg::WriteResp { result: Ok(()), .. }));
    }

    #[test]
    fn ranged_fence_blocks_only_its_slice() {
        let mut d = DiskNode::<()>::unobserved(DiskConfig {
            blocks: 128,
            block_size: 4,
        });
        let me = NodeId(1);
        let t = tag(1, 1, 0);
        d.apply_fence(me, FenceOp::Fence, BlockRange { start: 0, end: 64 });
        assert!(matches!(
            d.write(me, BlockId(10), vec![1; 4], t),
            Err(SanError::Fenced)
        ));
        // I/O against the unfenced half of the device still flows — the
        // blast radius of one shard's fence is its own slice.
        assert!(d.write(me, BlockId(100), vec![1; 4], t).is_ok());
        assert!(d.is_fenced(me));
        assert!(d.is_fenced_for(me, BlockId(0)));
        assert!(!d.is_fenced_for(me, BlockId(64)));
        d.apply_fence(me, FenceOp::Unfence, BlockRange { start: 0, end: 64 });
        assert!(!d.is_fenced(me));
        assert!(d.write(me, BlockId(10), vec![1; 4], t).is_ok());
    }

    #[test]
    fn device_failure_injection() {
        let mut d = DiskNode::<()>::unobserved(DiskConfig {
            blocks: 4,
            block_size: 8,
        });
        d.set_failing(true);
        assert!(matches!(
            d.read(NodeId(1), BlockId(0)),
            Err(SanError::DeviceError)
        ));
        d.set_failing(false);
        assert!(d.read(NodeId(1), BlockId(0)).is_ok());
    }

    #[test]
    fn overwrite_reports_previous_tag() {
        let mut d = DiskNode::<()>::unobserved(DiskConfig {
            blocks: 4,
            block_size: 4,
        });
        let t1 = tag(1, 1, 0);
        let t2 = tag(2, 2, 0);
        let prev = d.write(NodeId(1), BlockId(0), vec![1; 4], t1).unwrap();
        assert_eq!(prev, WriteTag::default());
        let prev = d.write(NodeId(2), BlockId(0), vec![2; 4], t2).unwrap();
        assert_eq!(prev, t1);
        assert_eq!(d.block_tag(BlockId(0)), t2);
    }

    #[test]
    #[should_panic(expected = "partial-block")]
    fn wrong_sized_write_panics() {
        let mut d = DiskNode::<()>::unobserved(DiskConfig {
            blocks: 4,
            block_size: 8,
        });
        let _ = d.write(NodeId(1), BlockId(0), vec![1; 3], tag(1, 1, 0));
    }

    #[test]
    fn observer_sees_hardened_and_fenced_events() {
        let mut w: World<NetMsg, Event> = World::new(WorldConfig::default());
        w.add_network(NetId::SAN, NetParams::ideal(10_000));
        let disk = w.add_node(
            Box::new(DiskNode::new(
                DiskConfig {
                    blocks: 16,
                    block_size: 4,
                },
                Box::new(Some),
            )),
            ClockSpec::ideal(),
        );
        // Drive the disk directly with a tiny scripted actor.
        struct Driver {
            disk: NodeId,
        }
        impl Actor<NetMsg, Event> for Driver {
            fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg, Event>) {
                ctx.set_timer(LocalNs::from_millis(1), 0);
            }
            fn on_message(
                &mut self,
                _: NodeId,
                _: NetId,
                _: NetMsg,
                _: &mut Ctx<'_, NetMsg, Event>,
            ) {
            }
            fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_, NetMsg, Event>) {
                let t = WriteTag {
                    writer: ctx.node(),
                    epoch: Epoch(1),
                    wseq: 0,
                };
                ctx.send(
                    NetId::SAN,
                    self.disk,
                    NetMsg::San(SanMsg::WriteBlock {
                        req_id: 1,
                        block: BlockId(0),
                        data: vec![7; 4],
                        tag: t,
                    }),
                );
            }
        }
        let driver = w.add_node(Box::new(Driver { disk }), ClockSpec::ideal());
        w.run_until(SimTime::from_secs(1));
        let obs = w.observations();
        assert_eq!(obs.len(), 1);
        match obs[0].2 {
            Event::Hardened {
                initiator, block, ..
            } => {
                assert_eq!(initiator, driver);
                assert_eq!(block, BlockId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
