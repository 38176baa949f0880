//! The replication role, as one sans-I/O core: log shipping, heartbeats
//! and the standby's election (DESIGN.md §13). A primary ships its durable
//! log at every group commit from the offset it last *sent*; each beat
//! falls back to the offset the standby last *acked*, or heartbeats. A
//! standby mirrors and acks, and takes over after τ(1+ε) of silence on its
//! own clock, once every lease the primary granted has expired on its
//! holder's (Theorem 3.1; PaxosLease's diskless election).
//!
//! **Contract.** As [`ServerCore`](crate::ServerCore)'s: each verb is told
//! `now` and borrows the driver's [`DurableStore`]; effects queue in order
//! and the driver drains them with [`RoleCore::next_effect`].

use std::collections::VecDeque;

use tank_meta::DurableStore;
use tank_proto::{Incarnation, NodeId, ReplMsg};
use tank_sim::LocalNs;

/// What a server is to its replication peer. A cursor is a (snapshot
/// generation, durable log offset) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No peer: replication unconfigured, or a standby that took over
    /// (the dead primary does not come back as its standby).
    Alone,
    /// Ships its durable log to `peer`.
    Primary {
        /// The standby.
        peer: NodeId,
        /// What the standby last acknowledged.
        acked: (u64, u64),
        /// What was last shipped.
        sent: (u64, u64),
    },
    /// Mirrors `peer`'s log and NACKs every client until elected.
    Standby {
        /// The primary.
        peer: NodeId,
        /// When it last heard a shipment or heartbeat: the election clock.
        heard: LocalNs,
    },
}

/// One thing a driver must do for the role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoleEffect {
    /// Send this to that node on the control network.
    Send(NodeId, ReplMsg),
    /// After this long, call [`RoleCore::tick`].
    Beat(LocalNs),
    /// The election is won: recover from the mirror and serve.
    Promote,
    /// A message (its kind, its sender) this role does not take: drop it.
    Unexpected(NodeId, &'static str),
}

/// The replication role and the effects it has decided.
#[derive(Debug)]
pub struct RoleCore {
    role: Role,
    /// τ(1+ε): the silence after which a standby takes over.
    timeout: LocalNs,
    out: VecDeque<RoleEffect>,
}

impl RoleCore {
    /// An unreplicated server whose leases run for `timeout` = τ(1+ε).
    pub fn new(timeout: LocalNs) -> RoleCore {
        let (role, out) = (Role::Alone, VecDeque::new());
        RoleCore { role, timeout, out }
    }

    /// Pair with `peer`: as its standby, or as the primary it mirrors.
    pub fn wire(&mut self, peer: NodeId, standby: bool) {
        let (heard, acked, sent) = (LocalNs(0), (0, 0), (0, 0));
        self.role = if standby {
            Role::Standby { peer, heard }
        } else {
            Role::Primary { peer, acked, sent }
        };
    }

    /// True while a standby (not yet elected).
    pub fn is_standby(&self) -> bool {
        matches!(self.role, Role::Standby { .. })
    }

    /// What the driver must do next; `None` once it has caught up.
    pub fn next_effect(&mut self) -> Option<RoleEffect> {
        self.out.pop_front()
    }

    /// The server starts, or restarts with only its device: a primary
    /// re-ships from offset 0 (the standby's cumulative ingest skips what
    /// it holds), a standby restarts its election clock. True when the
    /// server serves, so the driver stamps — or recovers — an incarnation;
    /// a standby appends nothing, its log a byte mirror of the primary's.
    pub fn start(&mut self, now: LocalNs) -> bool {
        match &mut self.role {
            Role::Alone => return true,
            Role::Primary { acked, sent, .. } => (*acked, *sent) = ((0, 0), (0, 0)),
            Role::Standby { heard, .. } => *heard = now,
        }
        self.out.push_back(RoleEffect::Beat(self.beat()));
        !self.is_standby()
    }

    /// The group commit made `wal`'s bytes durable: ship what the standby
    /// has not been sent, with the snapshot while its generation trails.
    pub fn shipped(&mut self, wal: &DurableStore) {
        let Role::Primary { peer, sent, .. } = &mut self.role else {
            return;
        };
        let (snap_gen, durable) = (wal.snap_gen(), wal.durable_len() as u64);
        let (snapshot, offset) = if sent.0 < snap_gen {
            (wal.snapshot().map(<[u8]>::to_vec), 0) // re-base the standby
        } else {
            (None, sent.1.min(durable))
        };
        if snapshot.is_none() && offset == durable {
            return; // nothing new; the beat's heartbeat covers liveness
        }
        *sent = (snap_gen, durable);
        let bytes = wal.durable_delta(offset as usize).to_vec();
        self.out.push_back(RoleEffect::Send(
            *peer,
            ReplMsg::Append {
                snap_gen,
                snapshot,
                offset,
                bytes,
                durable,
            },
        ));
    }

    /// A replication message from `from` at `now`: a standby mirrors a
    /// shipment into `wal` and acks it, a primary advances its acked
    /// cursor. Any other pairing — a dead primary's stray shipment after
    /// our promotion, an ack at a standby — is [`RoleEffect::Unexpected`].
    pub fn on_repl(&mut self, from: NodeId, msg: ReplMsg, now: LocalNs, wal: &mut DurableStore) {
        match (&mut self.role, msg) {
            (Role::Standby { heard, .. }, ReplMsg::Heartbeat { .. }) => *heard = now,
            (
                Role::Standby { heard, .. },
                ReplMsg::Append {
                    snap_gen,
                    snapshot,
                    offset,
                    bytes,
                    durable,
                },
            ) => {
                *heard = now;
                wal.ingest(snap_gen, snapshot.as_deref(), offset, &bytes, durable);
                let (snap_gen, durable) = (wal.snap_gen(), wal.durable_len() as u64);
                let ack = RoleEffect::Send(from, ReplMsg::AppendAck { snap_gen, durable });
                self.out.push_back(ack);
            }
            // Cumulative within a generation; one from before our last
            // compaction is stale (the beat re-bases the standby).
            (Role::Primary { acked, .. }, ReplMsg::AppendAck { snap_gen, durable }) => {
                if snap_gen == wal.snap_gen() {
                    let held = if acked.0 == snap_gen { acked.1 } else { 0 };
                    *acked = (snap_gen, held.max(durable));
                }
            }
            (_, msg) => self.out.push_back(RoleEffect::Unexpected(from, msg.kind())),
        }
    }

    /// The beat at `now`. A primary re-ships from the acked cursor, or
    /// heartbeats with its `incarnation` when the standby holds every
    /// durable byte. A standby elects after τ(1+ε) of silence, and
    /// otherwise beats again no later than that deadline — so it elects
    /// at the deadline, not up to a beat after it.
    pub fn tick(&mut self, now: LocalNs, wal: &DurableStore, incarnation: Incarnation) {
        let mut next = self.beat();
        match &mut self.role {
            Role::Alone => return,
            Role::Standby { heard, .. } => {
                let silent = now.minus(*heard);
                if silent >= self.timeout {
                    self.role = Role::Alone;
                    self.out.push_back(RoleEffect::Promote);
                    return;
                }
                next = next.min(self.timeout.minus(silent));
            }
            Role::Primary { peer, acked, sent } => {
                *sent = *acked;
                if acked.0 == wal.snap_gen() && acked.1 >= wal.durable_len() as u64 {
                    let beat = RoleEffect::Send(*peer, ReplMsg::Heartbeat { incarnation });
                    self.out.push_back(beat);
                } else {
                    self.shipped(wal);
                }
            }
        }
        self.out.push_back(RoleEffect::Beat(next));
    }

    /// τ(1+ε)/4: a healthy primary proves liveness several times per
    /// election window.
    fn beat(&self) -> LocalNs {
        LocalNs(self.timeout.0 / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::RoleEffect::{Beat, Promote, Send, Unexpected};
    use super::*;
    use tank_meta::WalRecord;

    /// The role's peer, and a stranger.
    const PEER: NodeId = NodeId(7);
    const OTHER: NodeId = NodeId(9);
    /// τ(1+ε) at τ = 2 s, ε = 0.01, and its quarter.
    const TIMEOUT: LocalNs = LocalNs(2_020_000_000);
    const BEAT: LocalNs = LocalNs(505_000_000);
    const INC: Incarnation = Incarnation(3);

    fn wired(standby: bool) -> RoleCore {
        let mut core = RoleCore::new(TIMEOUT);
        core.wire(PEER, standby);
        core
    }

    /// Take every effect the core has queued.
    fn drain(core: &mut RoleCore) -> Vec<RoleEffect> {
        std::iter::from_fn(|| core.next_effect()).collect()
    }

    /// Append `n` records to `wal` and make them durable.
    fn commit(wal: &mut DurableStore, n: u64) {
        for i in 0..n {
            wal.append(&WalRecord::Incarnation(i));
        }
        wal.fsync();
    }

    /// The shipment of `wal` from `offset`, with its snapshot or without.
    fn append(wal: &DurableStore, offset: usize, snapshot: bool) -> RoleEffect {
        Send(
            PEER,
            ReplMsg::Append {
                snap_gen: wal.snap_gen(),
                snapshot: wal.snapshot().filter(|_| snapshot).map(<[u8]>::to_vec),
                offset: offset as u64,
                bytes: wal.durable_delta(offset).to_vec(),
                durable: wal.durable_len() as u64,
            },
        )
    }

    fn ack(snap_gen: u64, durable: usize) -> ReplMsg {
        let durable = durable as u64;
        ReplMsg::AppendAck { snap_gen, durable }
    }

    fn heartbeat() -> ReplMsg {
        ReplMsg::Heartbeat { incarnation: INC }
    }

    /// Follow a standby's beats from `first` until it promotes; the
    /// instant it does.
    fn elects_at(core: &mut RoleCore, wal: &DurableStore, first: LocalNs) -> LocalNs {
        let mut now = first;
        for _ in 0..64 {
            core.tick(now, wal, INC);
            match drain(core).as_slice() {
                [Beat(after)] => now = now.plus(*after),
                [Promote] => return now,
                other => panic!("a standby's beat queued {other:?}"),
            }
        }
        panic!("no election in 64 beats");
    }

    #[test]
    fn the_election_fires_at_the_last_replication_message_plus_the_lease_timeout() {
        let (mut core, mut wal) = (wired(true), DurableStore::default());
        assert!(!core.start(LocalNs(0)));
        assert_eq!(drain(&mut core), [Beat(BEAT)]);
        // Off the beat's grid: the last beat before the deadline is cut
        // short to land on it.
        let heard = LocalNs(300_000_000);
        core.on_repl(PEER, heartbeat(), heard, &mut wal);
        assert_eq!(drain(&mut core), []);
        assert_eq!(elects_at(&mut core, &wal, BEAT), heard.plus(TIMEOUT));
        assert!(!core.is_standby());
    }

    #[test]
    fn a_caught_up_primary_heartbeats_and_a_lagging_one_reships_from_the_acked_cursor() {
        let (mut core, mut wal) = (wired(false), DurableStore::default());
        assert!(core.start(LocalNs(0)));
        assert_eq!(drain(&mut core), [Beat(BEAT)]);
        commit(&mut wal, 2);
        core.shipped(&wal);
        assert_eq!(drain(&mut core), [append(&wal, 0, false)]);
        // Nothing new: nothing shipped.
        core.shipped(&wal);
        assert_eq!(drain(&mut core), []);
        core.on_repl(PEER, ack(0, wal.durable_len()), BEAT, &mut wal);
        core.tick(BEAT, &wal, INC);
        assert_eq!(drain(&mut core), [Send(PEER, heartbeat()), Beat(BEAT)]);

        // Two commits, shipped from the sent cursor; only the first is
        // acked, the second shipment is lost.
        let acked = wal.durable_len();
        commit(&mut wal, 1);
        core.shipped(&wal);
        assert_eq!(drain(&mut core), [append(&wal, acked, false)]);
        let (acked, sent) = (wal.durable_len(), wal.durable_len());
        commit(&mut wal, 1);
        core.shipped(&wal);
        assert_eq!(drain(&mut core), [append(&wal, sent, false)]);
        core.on_repl(PEER, ack(0, acked), BEAT, &mut wal);
        assert_eq!(drain(&mut core), []);
        core.tick(BEAT.times(2), &wal, INC);
        assert_eq!(drain(&mut core), [append(&wal, acked, false), Beat(BEAT)]);
    }

    #[test]
    fn a_snapshot_rides_along_while_the_standbys_generation_trails() {
        let (mut core, mut wal) = (wired(false), DurableStore::default());
        core.start(LocalNs(0));
        commit(&mut wal, 2);
        core.shipped(&wal);
        core.on_repl(PEER, ack(0, wal.durable_len()), BEAT, &mut wal);
        drain(&mut core);

        wal.install_snapshot(b"image".to_vec());
        commit(&mut wal, 1);
        core.shipped(&wal);
        assert_eq!(drain(&mut core), [append(&wal, 0, true)]);
        // The send cursor is optimistic: the next commit ships the delta.
        let sent = wal.durable_len();
        commit(&mut wal, 1);
        core.shipped(&wal);
        assert_eq!(drain(&mut core), [append(&wal, sent, false)]);
        // Unacked, the beat re-bases the standby from the snapshot.
        core.tick(BEAT, &wal, INC);
        assert_eq!(drain(&mut core), [append(&wal, 0, true), Beat(BEAT)]);
        core.on_repl(PEER, ack(1, wal.durable_len()), BEAT, &mut wal);
        core.tick(BEAT.times(2), &wal, INC);
        assert_eq!(drain(&mut core), [Send(PEER, heartbeat()), Beat(BEAT)]);
    }

    #[test]
    fn an_append_ack_from_an_older_generation_is_ignored() {
        let (mut core, mut wal) = (wired(false), DurableStore::default());
        core.start(LocalNs(0));
        wal.install_snapshot(b"image".to_vec());
        commit(&mut wal, 1);
        let held = wal.durable_len();
        commit(&mut wal, 1);
        core.shipped(&wal);
        core.on_repl(PEER, ack(1, held), BEAT, &mut wal);
        drain(&mut core);
        // Generation 0 ran further than generation 1 has: a stale ack
        // for it must not count as holding generation 1's bytes.
        core.on_repl(PEER, ack(0, 1 << 20), BEAT, &mut wal);
        assert_eq!(drain(&mut core), []);
        core.tick(BEAT, &wal, INC);
        assert_eq!(drain(&mut core), [append(&wal, held, false), Beat(BEAT)]);
    }

    #[test]
    fn a_restarted_primary_reships_from_zero() {
        let (mut core, mut wal) = (wired(false), DurableStore::default());
        core.start(LocalNs(0));
        commit(&mut wal, 3);
        core.shipped(&wal);
        core.on_repl(PEER, ack(0, wal.durable_len()), BEAT, &mut wal);
        drain(&mut core);

        assert!(core.start(BEAT), "a primary serves: it recovers");
        assert_eq!(drain(&mut core), [Beat(BEAT)]);
        core.tick(BEAT.times(2), &wal, INC);
        assert_eq!(drain(&mut core), [append(&wal, 0, false), Beat(BEAT)]);
    }

    #[test]
    fn a_restarted_standby_appends_nothing_and_restarts_its_election_clock() {
        let mut primary = DurableStore::default();
        commit(&mut primary, 2);
        let (mut core, mut wal) = (wired(true), DurableStore::default());
        core.start(LocalNs(0));
        drain(&mut core);
        let Send(_, msg) = append(&primary, 0, false) else {
            unreachable!("a shipment is a send");
        };
        core.on_repl(PEER, msg, BEAT, &mut wal);
        let held = wal.durable_len();
        assert_eq!(drain(&mut core), [Send(PEER, ack(0, held))]);

        // Restarted long after its clock last moved: it does not serve, so
        // the driver neither recovers nor stamps an incarnation into the
        // mirror, and it counts its silence from the restart.
        let restart = LocalNs::from_secs(5);
        assert!(!core.start(restart), "a standby serves nothing");
        assert_eq!(drain(&mut core), [Beat(BEAT)]);
        let first = restart.plus(BEAT);
        assert_eq!(elects_at(&mut core, &wal, first), restart.plus(TIMEOUT));
    }

    #[test]
    fn a_promoted_core_stops_addressing_its_peer() {
        let (mut core, mut wal) = (wired(true), DurableStore::default());
        core.start(LocalNs(0));
        drain(&mut core);
        assert_eq!(elects_at(&mut core, &wal, BEAT), TIMEOUT);
        commit(&mut wal, 2);
        let after = TIMEOUT.plus(BEAT);
        core.shipped(&wal);
        core.tick(after, &wal, INC);
        assert!(core.start(after), "a promoted core serves");
        assert_eq!(drain(&mut core), [], "no shipment, no beat");
        core.on_repl(PEER, heartbeat(), after, &mut wal);
        assert_eq!(drain(&mut core), [Unexpected(PEER, "repl_heartbeat")]);
    }

    #[test]
    fn a_message_the_role_does_not_take_is_unexpected_and_changes_nothing() {
        let mut primary = DurableStore::default();
        commit(&mut primary, 1);
        let Send(_, shipment) = append(&primary, 0, false) else {
            unreachable!("a shipment is a send");
        };
        let heard = LocalNs::from_secs(1);
        let cases = [
            (Some(true), ack(0, 0), "repl_append_ack"),
            (Some(false), shipment.clone(), "repl_append"),
            (Some(false), heartbeat(), "repl_heartbeat"),
            (None, shipment, "repl_append"),
            (None, ack(0, 0), "repl_append_ack"),
            (None, heartbeat(), "repl_heartbeat"),
        ];
        for (standby, msg, kind) in cases {
            let mut core = RoleCore::new(TIMEOUT);
            if let Some(standby) = standby {
                core.wire(PEER, standby);
            }
            core.start(LocalNs(0));
            drain(&mut core);
            let (mut wal, before) = (DurableStore::default(), core.role);
            core.on_repl(OTHER, msg, heard, &mut wal);
            assert_eq!(drain(&mut core), [Unexpected(OTHER, kind)], "{before:?}");
            assert_eq!((core.role, wal.durable_len()), (before, 0), "{kind}");
        }
    }
}
