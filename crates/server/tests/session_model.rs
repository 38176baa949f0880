//! The session table against a model of the one it replaced: a sorted-set
//! dedup window and a replay cache in a hash map, pruned when it holds
//! more than `2 · WINDOW_SPAN` responses to those at or below
//! `low − WINDOW_SPAN`. Every admission, replayed response and cache size
//! must match, late (out-of-order) records and re-records included.

#[path = "../../proto/tests/oracle/tree_window.rs"]
mod tree_window;

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tank_proto::message::{ReplyBody, ResponseOutcome};
use tank_proto::seqwin::{SeqVerdict, WINDOW_SPAN};
use tank_proto::{Incarnation, NodeId, ReqSeq, Response, SessionId};
use tank_server::session::{Admission, SessionTable};
use tree_window::TreeWindow;

const C: NodeId = NodeId(7);

/// What an admission says, in a comparable form.
#[derive(Debug, PartialEq)]
enum Verdict {
    Execute,
    Replay(Response),
    InProgress,
    WrongSession,
}

impl From<Admission> for Verdict {
    fn from(a: Admission) -> Self {
        match a {
            Admission::Execute => Verdict::Execute,
            Admission::Replay(r) => Verdict::Replay(*r),
            Admission::InProgress => Verdict::InProgress,
            Admission::WrongSession => Verdict::WrongSession,
        }
    }
}

/// One client's session as the table kept it before: the window as a
/// tree, the replay cache as a hash map pruned by `retain`.
struct Model {
    id: SessionId,
    window: TreeWindow,
    replay: HashMap<ReqSeq, Response>,
}

impl Model {
    fn new(id: SessionId) -> Self {
        Model {
            id,
            window: TreeWindow::with_span(WINDOW_SPAN),
            replay: HashMap::new(),
        }
    }

    fn admit(&mut self, session: SessionId, seq: ReqSeq) -> Verdict {
        if session != self.id {
            return Verdict::WrongSession;
        }
        match self.window.observe(seq) {
            SeqVerdict::Fresh => Verdict::Execute,
            SeqVerdict::Duplicate => match self.replay.get(&seq) {
                Some(r) => Verdict::Replay(r.clone()),
                None => Verdict::InProgress,
            },
            SeqVerdict::Stale => Verdict::InProgress,
        }
    }

    fn record(&mut self, seq: ReqSeq, resp: Response) {
        if resp.session != self.id {
            return;
        }
        self.replay.insert(seq, resp);
        if self.replay.len() > 2 * WINDOW_SPAN as usize {
            let low = self.window.low_watermark().0.saturating_sub(WINDOW_SPAN);
            self.replay.retain(|k, _| k.0 > low);
        }
    }
}

/// A response that names its seq and a version, so a replay of the wrong
/// entry or of a replaced one shows.
fn resp(session: SessionId, seq: ReqSeq, version: u64) -> Response {
    Response {
        dst: C,
        session,
        seq,
        incarnation: Incarnation(version),
        outcome: ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// The table and the model side by side.
struct Pair {
    table: SessionTable,
    model: Model,
    /// Executed requests whose answer is not recorded yet, oldest first.
    unanswered: Vec<ReqSeq>,
    /// Recorded seqs, for re-records.
    answered: Vec<ReqSeq>,
    version: u64,
}

impl Pair {
    fn new() -> Self {
        let mut table = SessionTable::new();
        let id = table.begin(C);
        Pair {
            table,
            model: Model::new(id),
            unanswered: Vec::new(),
            answered: Vec::new(),
            version: 0,
        }
    }

    fn admit(&mut self, session: SessionId, seq: ReqSeq) -> Result<Verdict, TestCaseError> {
        let got = Verdict::from(self.table.admit(C, session, seq));
        let want = self.model.admit(session, seq);
        prop_assert_eq!(&got, &want, "admit seq {}", seq.0);
        if got == Verdict::Execute {
            self.unanswered.push(seq);
        }
        Ok(got)
    }

    fn record(&mut self, seq: ReqSeq, session: SessionId) -> Result<(), TestCaseError> {
        self.version += 1;
        let r = resp(session, seq, self.version);
        self.table.record_response(C, seq, r.clone());
        self.model.record(seq, r);
        if self.answered.len() < 64 {
            self.answered.push(seq);
        } else {
            let i = (self.version % 64) as usize;
            self.answered[i] = seq;
        }
        self.check_size()
    }

    fn begin(&mut self) {
        let id = self.table.begin(C);
        self.model = Model::new(id);
        self.unanswered.clear();
        self.answered.clear();
    }

    fn check_size(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.table.replay_entries(), self.model.replay.len());
        Ok(())
    }
}

/// `len` steps of one client's traffic: fresh requests in one lane or
/// two, answered at once or late and out of order, retransmissions of
/// recent ones, re-records, gaps, restart jumps, stale session ids and
/// (about once in 20 000 steps) a new session.
fn drive(seed: u64, len: usize) -> Result<(), TestCaseError> {
    let mut rng = Rng(seed | 1);
    let lanes = 1 + rng.below(2);
    let mut p = Pair::new();
    let mut next = 1u64;
    for _ in 0..len {
        let id = p.model.id;
        match rng.below(1000) {
            0..=599 => {
                let seq = ReqSeq(next);
                next += lanes;
                if p.admit(id, seq)? == Verdict::Execute && rng.below(10) < 8 {
                    p.unanswered.pop();
                    p.record(seq, id)?;
                }
            }
            600..=749 if !p.unanswered.is_empty() => {
                let i = rng.below(p.unanswered.len() as u64) as usize;
                let seq = p.unanswered.remove(i);
                p.record(seq, id)?;
            }
            750..=899 => {
                let back = rng.below(3 * WINDOW_SPAN);
                p.admit(id, ReqSeq(next.saturating_sub(back)))?;
            }
            900..=929 if !p.answered.is_empty() => {
                let i = rng.below(p.answered.len() as u64) as usize;
                p.record(p.answered[i], id)?;
            }
            930..=959 => next += 1 + rng.below(WINDOW_SPAN),
            960..=969 => next += WINDOW_SPAN + rng.below(2 * WINDOW_SPAN),
            970 => next += 1_000_000,
            971..=985 => {
                p.admit(SessionId(id.0 + 1), ReqSeq(next))?;
            }
            986..=998 => {
                let stale = SessionId(id.0.saturating_sub(1));
                p.record(ReqSeq(next.saturating_sub(1)), stale)?;
            }
            999 if rng.below(20) == 0 => p.begin(),
            _ => {
                p.admit(id, ReqSeq(0))?;
            }
        }
    }
    Ok(())
}

proptest! {
    /// Long enough that most cases prune the cache more than once.
    #[test]
    fn the_session_table_agrees_with_the_tree_and_map_model(seed in any::<u64>()) {
        drive(seed, 20_000)?;
    }
}

#[test]
fn a_two_lane_client_keeps_the_verdicts_and_a_bounded_cache() {
    // A client on two shards numbers its requests from one counter, so
    // this server sees every other seq and the window's gaps never fill.
    // Each answer is retransmitted once, and every 97th request is
    // answered late.
    let mut p = Pair::new();
    let id = p.model.id;
    let mut late = Vec::new();
    for k in 0..100_000u64 {
        let seq = ReqSeq(2 * k + 1);
        assert_eq!(p.admit(id, seq).unwrap(), Verdict::Execute);
        p.unanswered.pop();
        if k % 97 == 0 {
            late.push(seq);
        } else {
            p.record(seq, id).unwrap();
        }
        if k % 97 == 50 {
            let seq = late.pop().expect("a late one");
            p.record(seq, id).unwrap();
        }
        let again = p.admit(id, ReqSeq(seq.0.saturating_sub(40))).unwrap();
        assert_ne!(again, Verdict::Execute);
        assert!(p.table.replay_entries() <= 2 * WINDOW_SPAN as usize + 1);
    }
}
