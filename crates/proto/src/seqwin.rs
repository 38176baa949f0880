//! At-most-once delivery bookkeeping.
//!
//! The paper's datagram messages "include version numbers for 'at most
//! once' delivery semantics" (§3). [`DedupWindow`] is the receiver side: it
//! tracks, per session, which request sequence numbers have been seen, so a
//! retried datagram is executed at most once while the cached response can
//! still be re-sent.
//!
//! The window is a low watermark plus a fixed ring of [`WINDOW_SPAN`] bits
//! for the numbers above it: every number at or below `low` was seen, and
//! bit `s % WINDOW_SPAN` says whether `s` in `(low, low + span]` was. A
//! number beyond the top slides the window up and the numbers that fall
//! out below it count as seen. Every step is integer work on at most the
//! words the slide crosses, and nothing is allocated after construction.
//!
//! The ring stays partly full in normal operation. A client numbers the
//! requests to all its shards from one counter, so a session sees only its
//! own shard's share of the numbers: on two shards, about every other one.
//! The gaps never fill; each slide forgets them.

use std::collections::VecDeque;

use crate::ids::ReqSeq;

/// Reorder history kept per session: a number more than this far below the
/// newest one seen counts as seen.
pub const WINDOW_SPAN: u64 = 4096;

/// The ring's size in 64-bit words.
const WORDS: usize = (WINDOW_SPAN / 64) as usize;

/// Verdict for an incoming sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqVerdict {
    /// First sighting: execute the request.
    Fresh,
    /// Already executed: re-send the cached response but do not re-execute.
    Duplicate,
    /// Below the window: too old to have a cached response; drop.
    Stale,
}

/// Receiver-side duplicate-suppression window for one (client, session).
#[derive(Debug, Clone)]
pub struct DedupWindow {
    /// All sequence numbers `<= low` have been seen.
    low: u64,
    /// Seen numbers in `(low, low + span]`, bit `s % WINDOW_SPAN`.
    bits: [u64; WORDS],
    /// Number of set bits.
    set: u32,
    /// Distance kept above `low`, at most [`WINDOW_SPAN`].
    span: u64,
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow::with_span(WINDOW_SPAN)
    }
}

impl DedupWindow {
    /// Create a window that keeps `span` numbers of reorder history.
    ///
    /// # Panics
    ///
    /// If `span` is 0 or larger than [`WINDOW_SPAN`].
    pub fn with_span(span: u64) -> Self {
        assert!(
            (1..=WINDOW_SPAN).contains(&span),
            "span {span} outside 1..={WINDOW_SPAN}"
        );
        DedupWindow {
            low: 0,
            bits: [0; WORDS],
            set: 0,
            span,
        }
    }

    /// Classify and record an incoming sequence number.
    pub fn observe(&mut self, seq: ReqSeq) -> SeqVerdict {
        let s = seq.0;
        if s == 0 {
            // Seq numbers start at 1; 0 is never valid.
            return SeqVerdict::Stale;
        }
        if s <= self.low {
            return SeqVerdict::Duplicate;
        }
        if s == self.low + 1 && self.set == 0 {
            // The in-order stream: nothing above the watermark to track.
            self.low = s;
            return SeqVerdict::Fresh;
        }
        if s <= self.low + self.span {
            let (w, mask) = slot(s);
            if self.bits[w] & mask != 0 {
                return SeqVerdict::Duplicate;
            }
            self.bits[w] |= mask;
            self.set += 1;
            self.advance();
            return SeqVerdict::Fresh;
        }
        // Beyond the top. The run above `low` is absorbed first; if it
        // reaches `s - 1`, `s` joins it and nothing slides.
        self.advance();
        if s == self.low + 1 {
            self.low = s;
            return SeqVerdict::Fresh;
        }
        if s - self.low > self.span {
            // Window overflow: the numbers that leave are treated as
            // delivered, the standard trade-off for bounded state. Set
            // numbers just above the new `low` are absorbed by the next
            // `observe`, not now: the replay cache's cut follows `low`,
            // and tests pin `low` to the sorted-set window's, step for step.
            let new_low = s - self.span;
            self.clear(new_low);
            self.low = new_low;
        }
        let (w, mask) = slot(s);
        self.bits[w] |= mask;
        self.set += 1;
        SeqVerdict::Fresh
    }

    /// Advance `low` over the run of set bits just above it, clearing them.
    fn advance(&mut self) {
        while self.set > 0 {
            let bit = ((self.low + 1) % WINDOW_SPAN) as u32;
            let (w, off) = ((bit / 64) as usize, bit % 64);
            // At most `64 - off`: the shift brings in zeros.
            let run = (self.bits[w] >> off).trailing_ones();
            if run == 0 {
                return;
            }
            self.bits[w] &= !(ones(run) << off);
            self.set -= run;
            self.low += u64::from(run);
        }
    }

    /// Clear the bits of the numbers in `(low, to]`, one word at a time;
    /// all of them at once when that covers the whole window.
    fn clear(&mut self, to: u64) {
        if to - self.low >= self.span {
            self.bits = [0; WORDS];
            self.set = 0;
            return;
        }
        let mut s = self.low + 1;
        while s <= to && self.set > 0 {
            let bit = (s % WINDOW_SPAN) as u32;
            let (w, off) = ((bit / 64) as usize, bit % 64);
            // `to - s < span <= WINDOW_SPAN`, so `n` fits in a u32.
            let n = (64 - off).min((to - s + 1) as u32);
            let mask = ones(n) << off;
            self.set -= (self.bits[w] & mask).count_ones();
            self.bits[w] &= !mask;
            s += u64::from(n);
        }
    }

    /// Number of seen numbers above the watermark (memory accounting).
    pub fn sparse_len(&self) -> usize {
        self.set as usize
    }

    /// Highest sequence number at or below which everything was seen.
    pub fn low_watermark(&self) -> ReqSeq {
        ReqSeq(self.low)
    }
}

/// Put `seq`'s entry into a queue kept in seq order, replacing the one
/// already there. Entries arrive nearly in seq order, so this is almost
/// always a push at the back; an older seq is placed by binary search.
pub fn insert_in_seq_order<T>(queue: &mut VecDeque<(ReqSeq, T)>, seq: ReqSeq, value: T) {
    match queue.back() {
        Some((newest, _)) if *newest >= seq => match queue.binary_search_by_key(&seq, |e| e.0) {
            Ok(i) => queue[i].1 = value,
            Err(i) => queue.insert(i, (seq, value)),
        },
        _ => queue.push_back((seq, value)),
    }
}

/// Word index and bit mask of `s` in the ring.
fn slot(s: u64) -> (usize, u64) {
    let bit = s % WINDOW_SPAN;
    ((bit / 64) as usize, 1 << (bit % 64))
}

/// The low `n` bits set, `n` in `1..=64`.
fn ones(n: u32) -> u64 {
    u64::MAX >> (64 - n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> DedupWindow {
        DedupWindow::with_span(1024)
    }

    #[test]
    fn in_order_stream_is_fresh_and_compact() {
        let mut win = w();
        for s in 1..=100u64 {
            assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Fresh);
        }
        assert_eq!(win.sparse_len(), 0, "contiguous run compacts to watermark");
        assert_eq!(win.low_watermark(), ReqSeq(100));
    }

    #[test]
    fn duplicates_detected_before_and_after_compaction() {
        let mut win = w();
        assert_eq!(win.observe(ReqSeq(1)), SeqVerdict::Fresh);
        assert_eq!(win.observe(ReqSeq(1)), SeqVerdict::Duplicate);
        assert_eq!(win.observe(ReqSeq(3)), SeqVerdict::Fresh);
        assert_eq!(win.observe(ReqSeq(3)), SeqVerdict::Duplicate);
        assert_eq!(win.observe(ReqSeq(2)), SeqVerdict::Fresh);
        assert_eq!(win.observe(ReqSeq(2)), SeqVerdict::Duplicate);
    }

    #[test]
    fn zero_is_never_valid() {
        let mut win = w();
        assert_eq!(win.observe(ReqSeq(0)), SeqVerdict::Stale);
    }

    #[test]
    fn reordering_leaves_sparse_entries_then_compacts() {
        let mut win = w();
        assert_eq!(win.observe(ReqSeq(5)), SeqVerdict::Fresh);
        assert_eq!(win.observe(ReqSeq(4)), SeqVerdict::Fresh);
        assert_eq!(win.sparse_len(), 2);
        for s in 1..=3 {
            assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Fresh);
        }
        assert_eq!(win.sparse_len(), 0);
        assert_eq!(win.low_watermark(), ReqSeq(5));
    }

    #[test]
    fn a_batch_is_one_sequence_number() {
        // The window keys on ReqSeq alone — a Batch request travels under
        // a single sequence number, so a retransmitted batch produces
        // exactly ONE Duplicate verdict, never one per element. The
        // replay cache then re-sends the whole recorded Batch reply;
        // elements cannot be re-executed individually.
        let mut win = w();
        let batch_seq = ReqSeq(1);
        assert_eq!(win.observe(batch_seq), SeqVerdict::Fresh);
        // The retransmit (same seq, same 16-element payload) dedups as a
        // unit: one verdict, no per-element bookkeeping grew.
        for _retry in 0..3 {
            assert_eq!(win.observe(batch_seq), SeqVerdict::Duplicate);
        }
        assert_eq!(win.sparse_len(), 0);
        assert_eq!(win.low_watermark(), batch_seq);
    }

    #[test]
    fn interleaved_batch_retransmits_do_not_stall_the_watermark() {
        // Batches and singles share the lane's sequence space. Late
        // retransmits of an already-compacted batch seq must neither
        // re-open the window nor block later traffic from compacting.
        let mut win = w();
        assert_eq!(win.observe(ReqSeq(1)), SeqVerdict::Fresh); // batch A
        assert_eq!(win.observe(ReqSeq(2)), SeqVerdict::Fresh); // single
        assert_eq!(win.observe(ReqSeq(1)), SeqVerdict::Duplicate); // A again
        assert_eq!(win.observe(ReqSeq(3)), SeqVerdict::Fresh); // batch B
        assert_eq!(win.observe(ReqSeq(2)), SeqVerdict::Duplicate);
        assert_eq!(win.low_watermark(), ReqSeq(3));
        assert_eq!(win.sparse_len(), 0);
    }

    #[test]
    fn span_bound_limits_memory() {
        let mut win = DedupWindow::with_span(8);
        // Only even numbers arrive: gaps never fill, window must slide.
        for s in (2..=200u64).step_by(2) {
            win.observe(ReqSeq(s));
        }
        assert!(win.sparse_len() <= 9, "sparse set bounded by span");
    }

    #[test]
    fn a_restart_jump_slides_the_window_in_one_pass() {
        // A restarted client resumes a million numbers on. The first
        // request is fresh and leaves `low` a span below it; what lay
        // inside the old window is forgotten at once.
        let mut win = DedupWindow::default();
        for s in (2..=3000u64).step_by(2) {
            assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Fresh);
        }
        assert_eq!(win.sparse_len(), 1500);
        let s = 3000 + 1_000_000;
        assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Fresh);
        assert_eq!(win.low_watermark(), ReqSeq(s - WINDOW_SPAN));
        assert_eq!(win.sparse_len(), 1);
        assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Duplicate);
        assert_eq!(win.observe(ReqSeq(s - 1)), SeqVerdict::Fresh);
        assert_eq!(win.observe(ReqSeq(3001)), SeqVerdict::Duplicate);
    }

    #[test]
    fn the_ring_wraps_without_aliasing() {
        // Numbers exactly one ring apart share a bit; the slide must have
        // cleared the older before the newer is set.
        let mut win = DedupWindow::default();
        assert_eq!(win.observe(ReqSeq(2)), SeqVerdict::Fresh);
        let s = 2 + WINDOW_SPAN;
        assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Fresh);
        assert_eq!(win.low_watermark(), ReqSeq(2));
        assert_eq!(win.sparse_len(), 1);
        assert_eq!(win.observe(ReqSeq(s)), SeqVerdict::Duplicate);
        assert_eq!(win.observe(ReqSeq(3)), SeqVerdict::Fresh);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn an_unbounded_window_is_refused() {
        DedupWindow::with_span(0);
    }
}
