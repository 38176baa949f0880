//! The dedup window as a sorted set: the reference the ring-bitmap
//! [`tank_proto::DedupWindow`] must agree with, verdict for verdict and
//! watermark for watermark. Every seen number above `low` is a tree entry;
//! a number beyond `low + span` slides `low` up to a span below it and
//! drops the entries it passes, in one `split_off`: the step-at-a-time
//! loop it stands for ends at the same `low` with the same entries, but
//! takes 10⁶ steps on a restart jump.

// Shared by test crates that each use part of it.
#![allow(dead_code)]

use std::collections::BTreeSet;

use tank_proto::seqwin::SeqVerdict;
use tank_proto::ReqSeq;

pub struct TreeWindow {
    low: u64,
    seen: BTreeSet<u64>,
    span: u64,
}

impl TreeWindow {
    pub fn with_span(span: u64) -> Self {
        TreeWindow {
            low: 0,
            seen: BTreeSet::new(),
            span,
        }
    }

    pub fn observe(&mut self, seq: ReqSeq) -> SeqVerdict {
        let s = seq.0;
        if s == 0 {
            return SeqVerdict::Stale;
        }
        if s <= self.low || !self.seen.insert(s) {
            return SeqVerdict::Duplicate;
        }
        while self.seen.remove(&(self.low + 1)) {
            self.low += 1;
        }
        if let Some(&max) = self.seen.iter().next_back() {
            if max - self.low > self.span {
                self.low = max - self.span;
                self.seen = self.seen.split_off(&(self.low + 1));
            }
        }
        SeqVerdict::Fresh
    }

    pub fn sparse_len(&self) -> usize {
        self.seen.len()
    }

    pub fn low_watermark(&self) -> ReqSeq {
        ReqSeq(self.low)
    }
}
