//! The ring-bitmap dedup window against the sorted-set window it replaced:
//! equal verdicts, watermark and entry count after every number, over
//! streams shaped like the ones a server sees.

#[path = "oracle/tree_window.rs"]
mod tree_window;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tank_proto::seqwin::{SeqVerdict, WINDOW_SPAN};
use tank_proto::{DedupWindow, ReqSeq};
use tree_window::TreeWindow;

/// A small deterministic generator, so one proptest case can drive a long
/// stream cheaply.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A stream of `len` sequence numbers: fresh ones in one lane or every
/// other one (a two-shard client's share), with duplicates of recent
/// numbers, numbers held back and delivered late, gaps, jumps past the
/// span and the `+1 000 000` a restarted client resumes at.
fn stream(seed: u64, span: u64, len: usize) -> Vec<u64> {
    let mut rng = Rng(seed | 1);
    let lanes = 1 + rng.below(2);
    let mut next = 1u64;
    let mut held: Vec<u64> = Vec::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        match rng.below(100) {
            0..=59 => {
                out.push(next);
                next += lanes;
            }
            60..=69 => {
                let back = rng.below(2 * span + 2);
                out.push(next.saturating_sub(back));
            }
            70..=79 => {
                held.push(next);
                next += lanes;
            }
            80..=87 if !held.is_empty() => {
                let i = rng.below(held.len() as u64) as usize;
                out.push(held.swap_remove(i));
            }
            88..=93 => next += 1 + rng.below(span),
            94..=97 => next += span + rng.below(3 * span),
            98 => next += 1_000_000,
            _ => out.push(0),
        }
    }
    out
}

fn check(span: u64, seqs: &[u64]) -> Result<(), TestCaseError> {
    let mut ring = DedupWindow::with_span(span);
    let mut tree = TreeWindow::with_span(span);
    for (i, &s) in seqs.iter().enumerate() {
        let (got, want) = (ring.observe(ReqSeq(s)), tree.observe(ReqSeq(s)));
        prop_assert_eq!(got, want, "step {} seq {}", i, s);
        prop_assert_eq!(ring.low_watermark(), tree.low_watermark(), "step {}", i);
        prop_assert_eq!(ring.sparse_len(), tree.sparse_len(), "step {}", i);
    }
    Ok(())
}

proptest! {
    /// Small spans slide on nearly every jump and wrap the ring's words.
    #[test]
    fn the_ring_agrees_with_the_tree_at_small_spans(
        seed in any::<u64>(),
        span in prop_oneof![Just(1u64), 2u64..130, Just(64), Just(128)],
    ) {
        check(span, &stream(seed, span, 600))?;
    }

    /// The production span, over streams long enough to fill it.
    #[test]
    fn the_ring_agrees_with_the_tree_at_the_window_span(seed in any::<u64>()) {
        check(WINDOW_SPAN, &stream(seed, WINDOW_SPAN, 12_000))?;
    }

    /// Arbitrary numbers in a narrow range: dense duplication and
    /// reordering, no structure at all.
    #[test]
    fn the_ring_agrees_with_the_tree_on_raw_numbers(
        span in 1u64..80,
        seqs in proptest::collection::vec(0u64..300, 1..400),
    ) {
        check(span, &seqs)?;
    }
}

#[test]
fn a_restart_jump_is_one_fresh_verdict_and_a_span_below_it() {
    let mut ring = DedupWindow::default();
    let mut tree = TreeWindow::with_span(WINDOW_SPAN);
    for s in (1..=5_000u64).step_by(2) {
        assert_eq!(ring.observe(ReqSeq(s)), tree.observe(ReqSeq(s)));
    }
    let s = 5_001 + 1_000_000;
    assert_eq!(ring.observe(ReqSeq(s)), SeqVerdict::Fresh);
    assert_eq!(tree.observe(ReqSeq(s)), SeqVerdict::Fresh);
    assert_eq!(ring.low_watermark(), ReqSeq(s - WINDOW_SPAN));
    assert_eq!(ring.low_watermark(), tree.low_watermark());
    assert_eq!(ring.sparse_len(), 1);
}
