//! Per-client session state: incarnations, at-most-once windows, response
//! caching for duplicate suppression.

use std::collections::{HashMap, VecDeque};

use tank_proto::seqwin::{insert_in_seq_order, SeqVerdict, WINDOW_SPAN};
use tank_proto::{DedupWindow, NodeId, ReqSeq, Response, SessionId};
use tank_sim::fxhash;

/// What the server should do with an incoming request's (session, seq).
#[derive(Debug, Clone)]
pub enum Admission {
    /// Fresh request: execute it.
    Execute,
    /// Duplicate of a request already answered: re-send this response.
    Replay(Box<Response>),
    /// Duplicate of a request still in progress (e.g. a queued lock
    /// request): ignore; the answer will go out when ready.
    InProgress,
    /// Wrong session id (stale incarnation): NACK `StaleSession`.
    WrongSession,
}

/// One client's session.
#[derive(Debug, Clone)]
struct Session {
    id: SessionId,
    window: DedupWindow,
    /// Responses kept for replay, in seq order (a queued lock's grant is
    /// recorded late, in place), pruned from the front against the
    /// window's watermark.
    replay: VecDeque<(ReqSeq, Response)>,
}

/// All client sessions.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    /// Keyed by the node id the host or world assigned the client (Fx).
    sessions: fxhash::HashMap<NodeId, Session>,
    /// Responses to recent Hellos, keyed by the request seq. Hello sits
    /// outside the per-session dedup window (it *creates* the session),
    /// so without this cache a duplicated Hello datagram would mint a
    /// second session and orphan the one the client is actually using.
    /// The client chose the seqs, so these maps keep SipHash.
    hellos: HashMap<NodeId, HashMap<ReqSeq, Response>>,
    next_session: u64,
}

/// Hello responses remembered per client (duplicates older than this
/// are answered with a fresh session, which the client survives via its
/// normal stale-session path).
const HELLO_CACHE: usize = 8;

impl SessionTable {
    /// Empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Begin a fresh session for `client`, superseding any previous one.
    pub fn begin(&mut self, client: NodeId) -> SessionId {
        self.next_session += 1;
        let id = SessionId(self.next_session);
        self.sessions.insert(
            client,
            Session {
                id,
                window: DedupWindow::default(),
                replay: VecDeque::new(),
            },
        );
        id
    }

    /// The client's current session id, if any.
    pub fn current(&self, client: NodeId) -> Option<SessionId> {
        self.sessions.get(&client).map(|s| s.id)
    }

    /// Classify an incoming request.
    pub fn admit(&mut self, client: NodeId, session: SessionId, seq: ReqSeq) -> Admission {
        let Some(s) = self.sessions.get_mut(&client) else {
            return Admission::WrongSession;
        };
        if s.id != session {
            return Admission::WrongSession;
        }
        match s.window.observe(seq) {
            SeqVerdict::Fresh => Admission::Execute,
            SeqVerdict::Duplicate => match s.replay.binary_search_by_key(&seq, |e| e.0) {
                Ok(i) => Admission::Replay(Box::new(s.replay[i].1.clone())),
                Err(_) => Admission::InProgress,
            },
            SeqVerdict::Stale => Admission::InProgress,
        }
    }

    /// Record the response to a fresh request so later duplicates replay
    /// it. Prunes entries the window can no longer ask about.
    pub fn record_response(&mut self, client: NodeId, seq: ReqSeq, resp: Response) {
        if let Some(s) = self.sessions.get_mut(&client) {
            if s.id != resp.session {
                return; // response for a dead incarnation
            }
            insert_in_seq_order(&mut s.replay, seq, resp);
            if s.replay.len() > (2 * WINDOW_SPAN as usize) {
                let low = s.window.low_watermark().0.saturating_sub(WINDOW_SPAN);
                while s.replay.front().is_some_and(|e| e.0 .0 <= low) {
                    s.replay.pop_front();
                }
            }
        }
    }

    /// The cached response to a Hello already answered (same client,
    /// same seq): a duplicate delivery that must be replayed, not
    /// re-executed.
    pub fn hello_replay(&self, client: NodeId, seq: ReqSeq) -> Option<Response> {
        self.hellos.get(&client).and_then(|m| m.get(&seq)).cloned()
    }

    /// Remember a Hello response for duplicate suppression.
    pub fn record_hello(&mut self, client: NodeId, seq: ReqSeq, resp: Response) {
        let m = self.hellos.entry(client).or_default();
        m.insert(seq, resp);
        while m.len() > HELLO_CACHE {
            let oldest = m.keys().min().copied().expect("nonempty");
            m.remove(&oldest);
        }
    }

    /// Drop a client's session entirely.
    pub fn remove(&mut self, client: NodeId) {
        self.sessions.remove(&client);
        self.hellos.remove(&client);
    }

    /// Restore the id counter after recovery. Monotone: never moves the
    /// counter backwards. Without this a reborn server would mint session
    /// ids that collide with pre-crash ids still held by surviving
    /// clients, re-opening their at-most-once windows to stale duplicates.
    pub fn restore_watermark(&mut self, n: u64) {
        self.next_session = self.next_session.max(n);
    }

    /// Highest session id ever begun — the durable watermark the server's
    /// WAL records at every Hello so [`Self::restore_watermark`] can
    /// rebuild it after a crash.
    pub fn watermark(&self) -> u64 {
        self.next_session
    }

    /// Approximate memory used by replay caches (diagnostics).
    pub fn replay_entries(&self) -> usize {
        self.sessions.values().map(|s| s.replay.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tank_proto::message::{ReplyBody, ResponseOutcome};

    const C: NodeId = NodeId(4);

    fn resp(session: SessionId, seq: ReqSeq) -> Response {
        Response {
            dst: C,
            session,
            seq,
            incarnation: tank_proto::Incarnation(1),
            outcome: ResponseOutcome::Acked(Ok(ReplyBody::Ok)),
        }
    }

    #[test]
    fn unknown_client_is_wrong_session() {
        let mut t = SessionTable::new();
        assert!(matches!(
            t.admit(C, SessionId(1), ReqSeq(1)),
            Admission::WrongSession
        ));
    }

    #[test]
    fn fresh_then_replay() {
        let mut t = SessionTable::new();
        let sid = t.begin(C);
        assert!(matches!(t.admit(C, sid, ReqSeq(1)), Admission::Execute));
        // Duplicate before response recorded: in progress.
        assert!(matches!(t.admit(C, sid, ReqSeq(1)), Admission::InProgress));
        t.record_response(C, ReqSeq(1), resp(sid, ReqSeq(1)));
        match t.admit(C, sid, ReqSeq(1)) {
            Admission::Replay(r) => assert_eq!(r.seq, ReqSeq(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_incarnation_invalidates_old() {
        let mut t = SessionTable::new();
        let old = t.begin(C);
        let new = t.begin(C);
        assert_ne!(old, new);
        assert!(matches!(
            t.admit(C, old, ReqSeq(1)),
            Admission::WrongSession
        ));
        assert!(matches!(t.admit(C, new, ReqSeq(1)), Admission::Execute));
    }

    #[test]
    fn session_ids_are_globally_unique() {
        let mut t = SessionTable::new();
        let a = t.begin(NodeId(1));
        let b = t.begin(NodeId(2));
        assert_ne!(a, b);
    }

    #[test]
    fn replay_cache_is_bounded() {
        let mut t = SessionTable::new();
        let sid = t.begin(C);
        for i in 1..=(3 * WINDOW_SPAN) {
            t.admit(C, sid, ReqSeq(i));
            t.record_response(C, ReqSeq(i), resp(sid, ReqSeq(i)));
        }
        assert!(t.replay_entries() <= 2 * WINDOW_SPAN as usize + 1);
    }

    #[test]
    fn duplicate_hello_replays_the_same_session() {
        let mut t = SessionTable::new();
        assert!(t.hello_replay(C, ReqSeq(1)).is_none());
        let sid = t.begin(C);
        t.record_hello(C, ReqSeq(1), resp(sid, ReqSeq(1)));
        let replay = t.hello_replay(C, ReqSeq(1)).expect("cached");
        assert_eq!(replay.session, sid);
        // A *new* Hello (new seq) is not a duplicate.
        assert!(t.hello_replay(C, ReqSeq(2)).is_none());
    }

    #[test]
    fn hello_cache_is_bounded() {
        let mut t = SessionTable::new();
        let sid = t.begin(C);
        for i in 1..=32u64 {
            t.record_hello(C, ReqSeq(i), resp(sid, ReqSeq(i)));
        }
        assert!(t.hello_replay(C, ReqSeq(1)).is_none(), "oldest evicted");
        assert!(t.hello_replay(C, ReqSeq(32)).is_some(), "newest kept");
    }

    #[test]
    fn stale_responses_are_not_recorded() {
        let mut t = SessionTable::new();
        let old = t.begin(C);
        let new = t.begin(C);
        t.record_response(C, ReqSeq(1), resp(old, ReqSeq(1)));
        assert!(matches!(t.admit(C, new, ReqSeq(1)), Admission::Execute));
        assert_eq!(t.replay_entries(), 0);
    }
}
