//! The offline checker.

use std::collections::{HashMap, HashSet};

use serde::Serialize;
use tank_proto::{BlockId, Event, FsErr, Ino, LockMode, NodeId, WriteTag};
use tank_sim::SimTime;

/// Checker configuration.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Fail-stop crash times per client. Writes acknowledged before a
    /// crash are excused from the lost-update check: volatile state is
    /// legitimately lost with the machine (§1.2). Harnesses that restart
    /// clients record every crash instant.
    pub crashes: Vec<(NodeId, SimTime)>,
    /// Run end (defaults to the last event's timestamp if smaller).
    pub end: SimTime,
    /// Write-back grace: a final acked version younger than this at run
    /// end is *allowed* to still be dirty (the periodic flush simply has
    /// not come around yet) and is not counted as lost. Harnesses set
    /// this to a couple of flush intervals; zero means strict.
    pub grace_ns: u64,
    /// Fail-stop *restart* instants of metadata servers, per server node.
    /// Unlike client crashes these excuse nothing — the whole point of the
    /// recovery protocol is that server loss of volatile lock/lease state
    /// must not lose acknowledged data. Together with
    /// [`recovery_grace_ns`](Self::recovery_grace_ns) they let the
    /// checker flag grants issued
    /// before a restarted server could know they are safe, even in runs
    /// where the grace window was disabled and no recovery events exist.
    /// Each restart constrains only the server that took it: in a sharded
    /// cluster the other lock servers grant on, which is the isolation
    /// the sharding layer promises.
    pub server_restarts: Vec<(NodeId, SimTime)>,
    /// The minimum safe post-restart grant blackout, `τ(1+ε)`: every
    /// lease outstanding at the crash has provably expired after this
    /// long. Zero disables the restart-proximity check (the event-driven
    /// grants-during-recovery check still runs).
    pub recovery_grace_ns: u64,
    /// Shard topology: the lock-server node embodying each `ServerId`
    /// (index = id). Empty = unsharded; when set, the checker audits that
    /// every grant/steal/release a server emits is for an inode the
    /// rendezvous shard map assigns to *that* server — a grant from the
    /// wrong server is cross-shard interference, the failure mode that
    /// would let two authorities hand out conflicting locks.
    pub shard_servers: Vec<NodeId>,
    /// Warm-standby topology: `standby_servers[i]`, when present, is the
    /// node that may take over shard `i` via a failover election. Lock
    /// events from a promoted standby are audited against the same shard
    /// map slot as its primary — a standby granting locks for another
    /// shard's inode is the same cross-shard interference. Empty = no
    /// standbys (every earlier harness).
    pub standby_servers: Vec<Option<NodeId>>,
}

/// A write acknowledged to a local process that never reached shared
/// storage (§2.1's stranded dirty data).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LostUpdate {
    /// The client whose process was told the write succeeded.
    pub client: NodeId,
    /// File and block.
    pub ino: Ino,
    /// Block index.
    pub idx: u32,
    /// The lost version.
    pub tag: WriteTag,
    /// When it was acknowledged.
    pub acked_at: SimTime,
}

/// A read that returned a version older than one already hardened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StaleRead {
    /// The reading client.
    pub client: NodeId,
    /// File and block.
    pub ino: Ino,
    /// Block index.
    pub idx: u32,
    /// What the read returned.
    pub served: WriteTag,
    /// The newer version that was already on disk.
    pub newest_hardened: WriteTag,
    /// When the read was served.
    pub at: SimTime,
    /// Whether the stale data came from the local cache.
    pub from_cache: bool,
}

/// A block's hardened history going backwards in epoch order — the late
/// command fencing exists to stop, or concurrent unsynchronized writers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WriteOrderViolation {
    /// The block.
    pub block: BlockId,
    /// The out-of-order (older) version that landed.
    pub landed: WriteTag,
    /// The newer version it overwrote.
    pub over: WriteTag,
    /// When.
    pub at: SimTime,
}

/// A lock grant a freshly-restarted server had no right to issue: either
/// inside its own announced recovery window, or (with
/// [`CheckOptions::recovery_grace_ns`]) sooner after a restart than every
/// pre-crash lease could have expired. A surviving holder may still be
/// writing under the old grant — this is how a restarted server loses
/// updates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EarlyGrant {
    /// The client granted the lock.
    pub client: NodeId,
    /// The locked file.
    pub ino: Ino,
    /// When the grant happened.
    pub at: SimTime,
    /// The server restart the grant followed too closely.
    pub restart_at: SimTime,
}

/// A lock event emitted by a server the shard map says does not govern
/// the inode. Two servers acting on one inode means two authorities can
/// hand out conflicting locks — per-server Theorem 3.1 is void.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CrossShardInterference {
    /// The server that acted out of its shard.
    pub server: NodeId,
    /// The server the shard map assigns the inode to.
    pub owner: NodeId,
    /// The client involved.
    pub client: NodeId,
    /// The inode acted on.
    pub ino: Ino,
    /// What the server did (`"grant"`, `"steal"`, `"release"`).
    pub what: &'static str,
    /// When.
    pub at: SimTime,
}

/// A lock-lifecycle event that breaks the per-epoch state machine a
/// *batched* control path must preserve: each granted epoch is held
/// exactly once until released or stolen. Vectored execution with
/// first-error-stops could, if miswired, replay a grant inside a
/// retransmitted batch or release an epoch the server never handed out
/// — either would mean a batch was not applied as an atomic prefix.
/// (A grant of a *different* epoch while one is held is a legitimate
/// in-place upgrade and is not flagged.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchAtomicityViolation {
    /// The server that emitted the inconsistent event.
    pub server: NodeId,
    /// The client the event names.
    pub client: NodeId,
    /// The inode.
    pub ino: Ino,
    /// The epoch the event carried.
    pub epoch: tank_proto::Epoch,
    /// What went wrong (`"duplicate same-epoch grant"`,
    /// `"release of non-held epoch"`, `"steal of non-held epoch"`).
    pub what: &'static str,
    /// When.
    pub at: SimTime,
}

/// A break of the cache-coherence contract (CACHING.md): a client cache
/// acted outside what its lease phase and lock mode permit. Five shapes,
/// distinguished by `what`:
///
/// * `"cache read while quiesced"` — a read was served from a local cache
///   whose governing lease lane had entered phase 3 (quiesce) or later;
///   once suspect, cached data may be stale the moment the server steals.
/// * `"dirty block at steal"` — the server stole a grant while the holder
///   still had an acknowledged, unhardened write under that grant's epoch
///   (phase 4 is supposed to flush everything before the lease can lapse).
///   Excused when the holder fail-stopped after the ack, like lost updates.
/// * `"write under SharedRead grant"` — a write was acknowledged into the
///   cache while the client's grant for the file was SharedRead; shared
///   grants license reading only.
/// * `"attr served from cache while quiesced"` — a `Stat` was answered
///   from cached attributes on a lane in phase 3 or later (the attribute
///   twin of the first clause; `idx` and `tag` are zero).
/// * `"attr served from cache outside a grant"` — a `Stat` was answered
///   from cached attributes at an instant the server's own record shows no
///   grant of that file to that client (none yet, or already released or
///   stolen): the attributes outlived the lock that protected them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoherenceViolation {
    /// The client whose cache broke the contract.
    pub client: NodeId,
    /// File.
    pub ino: Ino,
    /// Block index.
    pub idx: u32,
    /// The version involved (served, stranded, or acked).
    pub tag: WriteTag,
    /// Which clause of the contract broke.
    pub what: &'static str,
    /// When.
    pub at: SimTime,
}

/// A window during which a client's lock request sat blocked.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UnavailWindow {
    /// The waiting client.
    pub client: NodeId,
    /// The contested file.
    pub ino: Ino,
    /// When the request was queued.
    pub from: SimTime,
    /// When it was granted (`None`: never, within the run).
    pub until: Option<SimTime>,
}

/// Full audit of one run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CheckReport {
    /// Stranded acknowledged writes.
    pub lost_updates: Vec<LostUpdate>,
    /// Reads that returned superseded data.
    pub stale_reads: Vec<StaleRead>,
    /// Epoch-order regressions on disk.
    pub write_order_violations: Vec<WriteOrderViolation>,
    /// Grants a restarted server issued before its recovery window closed.
    pub early_grants: Vec<EarlyGrant>,
    /// Lock events from servers outside their shard.
    pub cross_shard: Vec<CrossShardInterference>,
    /// Lock-lifecycle breaks the batch audit caught (duplicate grants,
    /// releases of epochs never held).
    pub batch_atomicity: Vec<BatchAtomicityViolation>,
    /// Cache-coherence contract breaks (quiesced-cache reads, dirty
    /// blocks surviving a steal, writes under shared grants, cached
    /// attributes served while quiesced or outside a grant).
    pub coherence: Vec<CoherenceViolation>,
    /// Server recovery windows observed in the event stream.
    pub server_recoveries: u64,
    /// Lock-wait windows.
    pub unavailability: Vec<UnavailWindow>,
    /// Operations denied by quiesced/dead clients.
    pub ops_denied: u64,
    /// Operations completed successfully.
    pub ops_ok: u64,
    /// Operations failed (any error).
    pub ops_failed: u64,
    /// I/Os rejected by fences (a *success* of the fencing mechanism).
    pub fence_rejections: u64,
    /// Dirty blocks discarded at cache invalidations (should equal the
    /// number of lost updates attributable to invalidation).
    pub dirty_discarded: u64,
    /// Total reads audited.
    pub reads_checked: u64,
    /// Total distinct write versions acknowledged.
    pub writes_acked: u64,
}

impl CheckReport {
    /// Every safety violation found, summed over all seven classes.
    /// (Unavailability is a liveness observation, not a safety violation.)
    pub fn violations(&self) -> usize {
        self.lost_updates.len()
            + self.stale_reads.len()
            + self.write_order_violations.len()
            + self.early_grants.len()
            + self.cross_shard.len()
            + self.batch_atomicity.len()
            + self.coherence.len()
    }

    /// True when no safety property was violated.
    pub fn safe(&self) -> bool {
        self.violations() == 0
    }
}

/// The checker. Feed it a full observation stream, get a report.
pub struct Checker {
    opts: CheckOptions,
}

impl Checker {
    /// Checker with options.
    pub fn new(opts: CheckOptions) -> Self {
        Checker { opts }
    }

    /// If a shard topology was declared, verify the server that emitted a
    /// lock event is the one the rendezvous map assigns the inode to.
    fn audit_shard(
        &self,
        report: &mut CheckReport,
        server: NodeId,
        client: NodeId,
        ino: Ino,
        what: &'static str,
        at: SimTime,
    ) {
        let servers = &self.opts.shard_servers;
        if servers.is_empty() {
            return;
        }
        // Resolve the emitting node to the shard slot it embodies: its
        // primary position, or the shard whose standby it is (a promoted
        // standby speaks for its primary's slot). Unknown nodes are not
        // audited — they are not part of the declared topology.
        let slot = servers.iter().position(|s| *s == server).or_else(|| {
            self.opts
                .standby_servers
                .iter()
                .position(|s| *s == Some(server))
        });
        let Some(slot) = slot else { return };
        let map = tank_shard::ShardMap::new(servers.len() as u16);
        let owner_slot = map.owner_of(ino).0 as usize;
        let owner = servers[owner_slot];
        if owner_slot != slot {
            report.cross_shard.push(CrossShardInterference {
                server,
                owner,
                client,
                ino,
                what,
                at,
            });
        }
    }

    /// Audit a run.
    pub fn run(&self, events: &[(SimTime, NodeId, Event)]) -> CheckReport {
        let mut report = CheckReport::default();

        // Last acknowledged write per (client, ino, idx).
        let mut last_acked: HashMap<(NodeId, Ino, u32), (WriteTag, SimTime)> = HashMap::new();
        // Every hardened tag (for lost-update lookup).
        let mut hardened_tags: HashMap<WriteTag, SimTime> = HashMap::new();
        // tag → (ino, idx) learned from acks (for locating hardened events).
        let mut tag_location: HashMap<WriteTag, (Ino, u32)> = HashMap::new();
        // Newest hardened version per (ino, idx) as the scan advances.
        let mut newest_on_disk: HashMap<(Ino, u32), WriteTag> = HashMap::new();
        // Newest hardened version per raw block (order check).
        let mut newest_per_block: HashMap<BlockId, WriteTag> = HashMap::new();
        // Open lock-wait windows.
        let mut open_waits: HashMap<(NodeId, Ino), SimTime> = HashMap::new();
        // Server recovery windows currently open, per server node
        // (restart instant). Sharded clusters recover independently.
        let mut recovering_since: HashMap<NodeId, SimTime> = HashMap::new();
        // Batch-atomicity audit: the epoch each (server, client, ino)
        // currently holds, per the server's own event stream. Epochs are
        // per-server unique for the life of the run (the epoch counter
        // survives restarts), so a same-epoch re-grant can only mean a
        // replayed batch element.
        let mut held_epoch: HashMap<(NodeId, NodeId, Ino), tank_proto::Epoch> = HashMap::new();
        // Coherence audit: lease lanes currently quiesced, per (client,
        // shard); the lock mode each client's current grant carries, per
        // (client, ino); and acked-but-unhardened versions, per (client,
        // ino, idx) — the write-back queue as the event stream shows it.
        let mut quiesced: HashSet<(NodeId, u16)> = HashSet::new();
        let mut granted_mode: HashMap<(NodeId, Ino), LockMode> = HashMap::new();
        let mut unhardened: HashMap<(NodeId, Ino, u32), (WriteTag, SimTime)> = HashMap::new();
        // The shard an ino's lease lane answers to. Clients stamp lane
        // events with rendezvous shard ids, so mirror their map; with no
        // declared topology every ino maps to the one shard 0.
        let shard_count = self.opts.shard_servers.len().max(1) as u16;
        let shard_of = |ino: Ino| tank_shard::ShardMap::new(shard_count).owner_of(ino).0;

        for (t, node, ev) in events {
            match ev {
                Event::WriteAcked { ino, idx, tag } => {
                    report.writes_acked += 1;
                    last_acked.insert((*node, *ino, *idx), (*tag, *t));
                    tag_location.insert(*tag, (*ino, *idx));
                    unhardened.insert((*node, *ino, *idx), (*tag, *t));
                    if granted_mode.get(&(*node, *ino)) == Some(&LockMode::SharedRead) {
                        report.coherence.push(CoherenceViolation {
                            client: *node,
                            ino: *ino,
                            idx: *idx,
                            tag: *tag,
                            what: "write under SharedRead grant",
                            at: *t,
                        });
                    }
                }
                Event::Hardened { block, tag, .. } => {
                    hardened_tags.insert(*tag, *t);
                    // Order check per physical block.
                    match newest_per_block.get(block) {
                        Some(cur) if tag.order_key() < cur.order_key() => {
                            report.write_order_violations.push(WriteOrderViolation {
                                block: *block,
                                landed: *tag,
                                over: *cur,
                                at: *t,
                            });
                        }
                        Some(cur) if tag.order_key() >= cur.order_key() => {
                            newest_per_block.insert(*block, *tag);
                        }
                        _ => {
                            newest_per_block.insert(*block, *tag);
                        }
                    }
                    if let Some(loc) = tag_location.get(tag) {
                        let entry = newest_on_disk.entry(*loc).or_default();
                        if tag.order_key() > entry.order_key() {
                            *entry = *tag;
                        }
                    }
                }
                Event::ReadServed {
                    ino,
                    idx,
                    tag,
                    from_cache,
                } => {
                    report.reads_checked += 1;
                    // Coherence: a cache whose lane is suspect (phase 3+)
                    // must not serve — the server may already be stealing.
                    if *from_cache && quiesced.contains(&(*node, shard_of(*ino))) {
                        report.coherence.push(CoherenceViolation {
                            client: *node,
                            ino: *ino,
                            idx: *idx,
                            tag: *tag,
                            what: "cache read while quiesced",
                            at: *t,
                        });
                    }
                    if let Some(newest) = newest_on_disk.get(&(*ino, *idx)) {
                        if newest.order_key() > tag.order_key() {
                            report.stale_reads.push(StaleRead {
                                client: *node,
                                ino: *ino,
                                idx: *idx,
                                served: *tag,
                                newest_hardened: *newest,
                                at: *t,
                                from_cache: *from_cache,
                            });
                        }
                    }
                }
                Event::AttrServed {
                    ino,
                    from_cache: true,
                } => {
                    // Cached attributes are served under the same two
                    // conditions as cached blocks: a live lease phase, and
                    // a grant the server still records.
                    let mut flag = |what| {
                        report.coherence.push(CoherenceViolation {
                            client: *node,
                            ino: *ino,
                            idx: 0,
                            tag: WriteTag::default(),
                            what,
                            at: *t,
                        })
                    };
                    if quiesced.contains(&(*node, shard_of(*ino))) {
                        flag("attr served from cache while quiesced");
                    }
                    if !granted_mode.contains_key(&(*node, *ino)) {
                        flag("attr served from cache outside a grant");
                    }
                }
                Event::OpCompleted { ok, err, .. } => {
                    if *ok {
                        report.ops_ok += 1;
                    } else if *err == Some(FsErr::Suspended) {
                        report.ops_denied += 1;
                    } else {
                        report.ops_failed += 1;
                    }
                }
                Event::CacheInvalidated {
                    discarded_dirty, ..
                } => {
                    report.dirty_discarded += *discarded_dirty as u64;
                }
                Event::FenceRejected { .. } => {
                    report.fence_rejections += 1;
                }
                Event::RequestBlocked { client, ino } => {
                    open_waits.entry((*client, *ino)).or_insert(*t);
                }
                Event::LockGranted {
                    client,
                    ino,
                    epoch,
                    mode,
                } => {
                    granted_mode.insert((*client, *ino), *mode);
                    // Batch audit: a grant must mint a fresh epoch. Seeing
                    // the *same* epoch granted again means a batch element
                    // was executed twice (replay through the vectored
                    // path). A different epoch is an upgrade and simply
                    // replaces the held one — upgrades emit no release.
                    match held_epoch.get(&(*node, *client, *ino)) {
                        Some(held) if held == epoch => {
                            report.batch_atomicity.push(BatchAtomicityViolation {
                                server: *node,
                                client: *client,
                                ino: *ino,
                                epoch: *epoch,
                                what: "duplicate same-epoch grant",
                                at: *t,
                            });
                        }
                        _ => {
                            held_epoch.insert((*node, *client, *ino), *epoch);
                        }
                    }
                    if let Some(from) = open_waits.remove(&(*client, *ino)) {
                        report.unavailability.push(UnavailWindow {
                            client: *client,
                            ino: *ino,
                            from,
                            until: Some(*t),
                        });
                    }
                    // A grant inside the granting server's announced
                    // recovery window, or closer to one of *its* known
                    // restarts than τ(1+ε), is unsafe. Restarts of other
                    // shards do not blacklist this server's grants.
                    let restart_at = recovering_since.get(node).copied().or_else(|| {
                        if self.opts.recovery_grace_ns == 0 {
                            return None;
                        }
                        self.opts
                            .server_restarts
                            .iter()
                            .filter(|(srv, _)| srv == node)
                            .map(|(_, r)| *r)
                            .filter(|r| r.0 <= t.0 && t.0 < r.0 + self.opts.recovery_grace_ns)
                            .max()
                    });
                    if let Some(restart_at) = restart_at {
                        report.early_grants.push(EarlyGrant {
                            client: *client,
                            ino: *ino,
                            at: *t,
                            restart_at,
                        });
                    }
                    self.audit_shard(&mut report, *node, *client, *ino, "grant", *t);
                }
                Event::LockStolen { client, ino, epoch } => {
                    granted_mode.remove(&(*client, *ino));
                    // Coherence: phase 4 hardens every dirty block before
                    // the lease can lapse, and the server only steals after
                    // lapse — so an acked write whose version has not
                    // reached disk by the steal is stranded under a grant
                    // that no longer exists. Hardened-ness is judged by
                    // tag, exactly as the lost-update pass judges it at
                    // run end. A fail-stop after the ack is excused (same
                    // semantics there too).
                    let mut stranded: Vec<(u32, WriteTag, SimTime)> = unhardened
                        .iter()
                        .filter(|((c, i, _), (w, _))| c == client && i == ino && w.epoch == *epoch)
                        .map(|((_, _, idx), (w, acked_at))| (*idx, *w, *acked_at))
                        .collect();
                    stranded.sort_by_key(|(idx, _, _)| *idx);
                    for (idx, w, acked_at) in stranded {
                        unhardened.remove(&(*client, *ino, idx));
                        if hardened_tags.contains_key(&w) {
                            continue;
                        }
                        let crashed = self
                            .opts
                            .crashes
                            .iter()
                            .any(|(c, tc)| c == client && *tc >= acked_at);
                        if crashed {
                            continue;
                        }
                        report.coherence.push(CoherenceViolation {
                            client: *client,
                            ino: *ino,
                            idx,
                            tag: w,
                            what: "dirty block at steal",
                            at: *t,
                        });
                    }
                    // Batch audit: a server can only steal what its own
                    // stream says is held.
                    if held_epoch.get(&(*node, *client, *ino)) == Some(epoch) {
                        held_epoch.remove(&(*node, *client, *ino));
                    } else {
                        report.batch_atomicity.push(BatchAtomicityViolation {
                            server: *node,
                            client: *client,
                            ino: *ino,
                            epoch: *epoch,
                            what: "steal of non-held epoch",
                            at: *t,
                        });
                    }
                    self.audit_shard(&mut report, *node, *client, *ino, "steal", *t);
                }
                Event::LockReleased { client, ino, epoch } => {
                    granted_mode.remove(&(*client, *ino));
                    // Batch audit: a release for an epoch the server's own
                    // stream does not show as held means a batched
                    // LockRelease was applied out of the recorded order
                    // (or twice). The server only emits this event when
                    // the holder matched, so in a correct run it always
                    // pairs with the latest grant.
                    if held_epoch.get(&(*node, *client, *ino)) == Some(epoch) {
                        held_epoch.remove(&(*node, *client, *ino));
                    } else {
                        report.batch_atomicity.push(BatchAtomicityViolation {
                            server: *node,
                            client: *client,
                            ino: *ino,
                            epoch: *epoch,
                            what: "release of non-held epoch",
                            at: *t,
                        });
                    }
                }
                Event::ServerRecovering => {
                    report.server_recoveries += 1;
                    recovering_since.insert(*node, *t);
                }
                Event::ServerRecovered => {
                    recovering_since.remove(node);
                }
                Event::Quiesced { shard } => {
                    quiesced.insert((*node, *shard));
                }
                Event::Resumed { shard } => {
                    quiesced.remove(&(*node, *shard));
                }
                _ => {}
            }
        }

        // Never-granted waits.
        for ((client, ino), from) in open_waits {
            report.unavailability.push(UnavailWindow {
                client,
                ino,
                from,
                until: None,
            });
        }
        report
            .unavailability
            .sort_by_key(|w| (w.from, w.client, w.ino));

        // Lost updates: final acked versions that never hardened.
        let end = events
            .last()
            .map(|(t, _, _)| *t)
            .unwrap_or(SimTime::ZERO)
            .max(self.opts.end);
        for ((client, ino, idx), (tag, acked_at)) in last_acked {
            if hardened_tags.contains_key(&tag) {
                continue;
            }
            // Within the write-back grace at run end: legitimately dirty.
            if acked_at.0 + self.opts.grace_ns > end.0 {
                continue;
            }
            // Excused when the client fail-stopped after the ack: volatile
            // loss is the accepted semantics of a crash.
            let crashed = self
                .opts
                .crashes
                .iter()
                .any(|(c, tc)| *c == client && *tc >= acked_at);
            if crashed {
                continue;
            }
            report.lost_updates.push(LostUpdate {
                client,
                ino,
                idx,
                tag,
                acked_at,
            });
        }
        report
            .lost_updates
            .sort_by_key(|l| (l.acked_at, l.client.0, l.ino, l.idx));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tank_proto::Epoch;

    const C1: NodeId = NodeId(10);
    const C2: NodeId = NodeId(11);
    const F: Ino = Ino(1);
    const B: BlockId = BlockId(100);

    fn tag(writer: NodeId, epoch: u64, wseq: u64) -> WriteTag {
        WriteTag {
            writer,
            epoch: Epoch(epoch),
            wseq,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn check(events: Vec<(SimTime, NodeId, Event)>) -> CheckReport {
        Checker::new(CheckOptions::default()).run(&events)
    }

    #[test]
    fn grace_window_excuses_recent_dirty_data() {
        let w = tag(C1, 1, 1);
        let events = vec![(
            t(1000),
            C1,
            Event::WriteAcked {
                ino: F,
                idx: 0,
                tag: w,
            },
        )];
        // Strict: lost. With 5s grace and end at 2s: excused. With end at
        // 30s: lost again (it had plenty of time to flush).
        assert_eq!(check(events.clone()).lost_updates.len(), 1);
        let lenient = Checker::new(CheckOptions {
            end: t(2000),
            grace_ns: 5_000_000_000,
            ..Default::default()
        });
        assert!(lenient.run(&events).safe());
        let late_end = Checker::new(CheckOptions {
            end: t(30_000),
            grace_ns: 5_000_000_000,
            ..Default::default()
        });
        assert_eq!(late_end.run(&events).lost_updates.len(), 1);
    }

    #[test]
    fn clean_write_flush_read_is_safe() {
        let w = tag(C1, 1, 1);
        let events = vec![
            (
                t(1),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: w,
                    previous: WriteTag::default(),
                },
            ),
            (
                t(3),
                C2,
                Event::ReadServed {
                    ino: F,
                    idx: 0,
                    tag: w,
                    from_cache: false,
                },
            ),
        ];
        let r = check(events);
        assert!(r.safe(), "{r:?}");
        assert_eq!(r.writes_acked, 1);
        assert_eq!(r.reads_checked, 1);
    }

    #[test]
    fn unhardened_final_write_is_a_lost_update() {
        let w = tag(C1, 1, 1);
        let r = check(vec![(
            t(1),
            C1,
            Event::WriteAcked {
                ino: F,
                idx: 0,
                tag: w,
            },
        )]);
        assert_eq!(r.lost_updates.len(), 1);
        assert_eq!(r.lost_updates[0].tag, w);
        assert!(!r.safe());
    }

    #[test]
    fn coalesced_intermediate_versions_are_not_lost() {
        // Two acked writes to the same block; only the newer hardens
        // (write-back coalescing) — that is correct behaviour.
        let w1 = tag(C1, 1, 1);
        let w2 = tag(C1, 1, 2);
        let r = check(vec![
            (
                t(1),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w1,
                },
            ),
            (
                t(2),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w2,
                },
            ),
            (
                t(3),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: w2,
                    previous: WriteTag::default(),
                },
            ),
        ]);
        assert!(r.safe(), "{r:?}");
    }

    #[test]
    fn crash_excuses_pending_writes() {
        let w = tag(C1, 1, 1);
        let events = vec![(
            t(1),
            C1,
            Event::WriteAcked {
                ino: F,
                idx: 0,
                tag: w,
            },
        )];
        let r = Checker::new(CheckOptions {
            crashes: vec![(C1, t(5))],
            ..Default::default()
        })
        .run(&events);
        assert!(r.safe(), "volatile loss at crash is excused");
        // But a crash *before* the ack excuses nothing.
        let r = Checker::new(CheckOptions {
            crashes: vec![(C1, t(0))],
            ..Default::default()
        })
        .run(&events);
        assert_eq!(r.lost_updates.len(), 1);
    }

    #[test]
    fn read_of_superseded_version_is_stale() {
        let old = tag(C1, 1, 1);
        let new = tag(C2, 2, 1);
        let r = check(vec![
            (
                t(1),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: old,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: old,
                    previous: WriteTag::default(),
                },
            ),
            (
                t(3),
                C2,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: new,
                },
            ),
            (
                t(4),
                NodeId(0),
                Event::Hardened {
                    initiator: C2,
                    block: B,
                    tag: new,
                    previous: old,
                },
            ),
            // C1, fenced and oblivious, serves its stale cache.
            (
                t(5),
                C1,
                Event::ReadServed {
                    ino: F,
                    idx: 0,
                    tag: old,
                    from_cache: true,
                },
            ),
        ]);
        assert_eq!(r.stale_reads.len(), 1);
        assert_eq!(r.stale_reads[0].served, old);
        assert_eq!(r.stale_reads[0].newest_hardened, new);
        assert!(r.stale_reads[0].from_cache);
    }

    #[test]
    fn read_before_the_newer_harden_is_fine() {
        let old = tag(C1, 1, 1);
        let new = tag(C2, 2, 1);
        let r = check(vec![
            (
                t(1),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: old,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: old,
                    previous: WriteTag::default(),
                },
            ),
            (
                t(3),
                C1,
                Event::ReadServed {
                    ino: F,
                    idx: 0,
                    tag: old,
                    from_cache: true,
                },
            ),
            (
                t(4),
                C2,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: new,
                },
            ),
            (
                t(5),
                NodeId(0),
                Event::Hardened {
                    initiator: C2,
                    block: B,
                    tag: new,
                    previous: old,
                },
            ),
        ]);
        assert!(r.safe(), "{r:?}");
    }

    #[test]
    fn late_write_from_old_epoch_is_an_order_violation() {
        let old = tag(C1, 1, 5);
        let new = tag(C2, 2, 1);
        let r = check(vec![
            (
                t(1),
                NodeId(0),
                Event::Hardened {
                    initiator: C2,
                    block: B,
                    tag: new,
                    previous: WriteTag::default(),
                },
            ),
            // C1's late command lands after C2's newer write.
            (
                t(2),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: old,
                    previous: new,
                },
            ),
        ]);
        assert_eq!(r.write_order_violations.len(), 1);
        assert_eq!(r.write_order_violations[0].landed, old);
        assert_eq!(r.write_order_violations[0].over, new);
    }

    #[test]
    fn unavailability_windows_open_and_close() {
        let r = check(vec![
            (
                t(10),
                NodeId(0),
                Event::RequestBlocked { client: C2, ino: F },
            ),
            (
                t(500),
                NodeId(0),
                Event::LockGranted {
                    client: C2,
                    ino: F,
                    epoch: Epoch(2),
                    mode: tank_proto::LockMode::Exclusive,
                },
            ),
            (
                t(600),
                NodeId(0),
                Event::RequestBlocked { client: C1, ino: F },
            ),
        ]);
        assert_eq!(r.unavailability.len(), 2);
        assert_eq!(r.unavailability[0].from, t(10));
        assert_eq!(r.unavailability[0].until, Some(t(500)));
        assert_eq!(r.unavailability[1].until, None, "never granted");
    }

    #[test]
    fn op_accounting() {
        let r = check(vec![
            (
                t(1),
                C1,
                Event::OpCompleted {
                    op: tank_proto::OpId(1),
                    kind: "read",
                    ok: true,
                    err: None,
                },
            ),
            (
                t(2),
                C1,
                Event::OpCompleted {
                    op: tank_proto::OpId(2),
                    kind: "read",
                    ok: false,
                    err: Some(FsErr::Suspended),
                },
            ),
            (
                t(3),
                C1,
                Event::OpCompleted {
                    op: tank_proto::OpId(3),
                    kind: "read",
                    ok: false,
                    err: Some(FsErr::NotFound),
                },
            ),
            (
                t(4),
                C1,
                Event::FenceRejected {
                    initiator: C1,
                    was_write: true,
                },
            ),
            (
                t(5),
                C1,
                Event::CacheInvalidated {
                    shard: 0,
                    discarded_dirty: 3,
                },
            ),
        ]);
        assert_eq!(r.ops_ok, 1);
        assert_eq!(r.ops_denied, 1);
        assert_eq!(r.ops_failed, 1);
        assert_eq!(r.fence_rejections, 1);
        assert_eq!(r.dirty_discarded, 3);
    }

    #[test]
    fn duplicate_same_epoch_grant_is_a_batch_violation() {
        // A replayed batch element re-granting the identical epoch is the
        // signature of vectored execution applying a prefix twice.
        let grant = Event::LockGranted {
            client: C1,
            ino: F,
            epoch: Epoch(7),
            mode: tank_proto::LockMode::Exclusive,
        };
        let r = check(vec![(t(1), NodeId(0), grant), (t(2), NodeId(0), grant)]);
        assert_eq!(r.batch_atomicity.len(), 1);
        assert_eq!(r.batch_atomicity[0].what, "duplicate same-epoch grant");
        assert_eq!(r.batch_atomicity[0].epoch, Epoch(7));
        assert!(!r.safe());
    }

    #[test]
    fn upgrade_grant_replaces_epoch_without_violation() {
        // SharedRead → Exclusive upgrade mints a fresh epoch with no
        // interleaved release event; the audit must treat it as a
        // legitimate in-place replace, and the eventual release of the
        // *new* epoch closes the ledger.
        let r = check(vec![
            (
                t(1),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                    mode: tank_proto::LockMode::SharedRead,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                    mode: tank_proto::LockMode::Exclusive,
                },
            ),
            (
                t(3),
                NodeId(0),
                Event::LockReleased {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                },
            ),
        ]);
        assert!(r.safe(), "{r:?}");
        assert!(r.batch_atomicity.is_empty());
    }

    #[test]
    fn release_of_non_held_epoch_is_a_batch_violation() {
        // Releasing epoch 1 after the upgrade to epoch 2 (or with no
        // grant at all) means a batched LockRelease ran against state the
        // recorded order never produced.
        let r = check(vec![
            (
                t(1),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                    mode: tank_proto::LockMode::Exclusive,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::LockReleased {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                },
            ),
        ]);
        assert_eq!(r.batch_atomicity.len(), 1);
        assert_eq!(r.batch_atomicity[0].what, "release of non-held epoch");
        assert!(!r.safe());
    }

    #[test]
    fn grant_release_cycles_and_steals_stay_clean() {
        // The normal lifecycle — grant, voluntary release, re-grant,
        // steal — closes every epoch exactly once.
        let r = check(vec![
            (
                t(1),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                    mode: tank_proto::LockMode::Exclusive,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::LockReleased {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                },
            ),
            (
                t(3),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                    mode: tank_proto::LockMode::Exclusive,
                },
            ),
            (
                t(4),
                NodeId(0),
                Event::LockStolen {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                },
            ),
        ]);
        assert!(r.safe(), "{r:?}");
        assert!(r.batch_atomicity.is_empty());
    }

    #[test]
    fn cache_read_while_quiesced_is_flagged() {
        // Phase 3 means stop serving from cache; a from_cache read in the
        // window between Quiesced and Resumed breaks the contract, while
        // the same read after Resumed (or from the SAN) is fine.
        let w = tag(C1, 1, 1);
        let served = |from_cache| Event::ReadServed {
            ino: F,
            idx: 0,
            tag: w,
            from_cache,
        };
        let r = check(vec![
            (t(1), C1, Event::Quiesced { shard: 0 }),
            (t(2), C1, served(true)),
            (t(3), C1, served(false)),
            (t(4), C1, Event::Resumed { shard: 0 }),
            (t(5), C1, served(true)),
        ]);
        assert_eq!(r.coherence.len(), 1, "{r:?}");
        assert_eq!(r.coherence[0].what, "cache read while quiesced");
        assert_eq!(r.coherence[0].at, t(2));
        assert!(!r.safe());
    }

    #[test]
    fn attr_served_from_cache_while_quiesced_is_flagged() {
        // The attribute twin of the clause above: inside a grant, a
        // cached `Stat` between Quiesced and Resumed breaks the contract;
        // the same answer from the server, or after Resumed, does not.
        let served = |from_cache| Event::AttrServed { ino: F, from_cache };
        let r = check(vec![
            (
                t(0),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                    mode: tank_proto::LockMode::SharedRead,
                },
            ),
            (t(1), C1, Event::Quiesced { shard: 0 }),
            (t(2), C1, served(true)),
            (t(3), C1, served(false)),
            (t(4), C1, Event::Resumed { shard: 0 }),
            (t(5), C1, served(true)),
        ]);
        assert_eq!(r.coherence.len(), 1, "{r:?}");
        assert_eq!(r.coherence[0].what, "attr served from cache while quiesced");
        assert_eq!(r.coherence[0].at, t(2));
        assert!(!r.safe());
    }

    #[test]
    fn attr_served_from_cache_outside_a_grant_is_flagged() {
        // Cached attributes live and die with the lock: served before any
        // grant, after the release, or after a steal, they have outlived
        // it. Another client's grant licenses nothing.
        let served = Event::AttrServed {
            ino: F,
            from_cache: true,
        };
        let grant = |client, epoch| Event::LockGranted {
            client,
            ino: F,
            epoch: Epoch(epoch),
            mode: tank_proto::LockMode::SharedRead,
        };
        let r = check(vec![
            (t(1), NodeId(0), grant(C2, 1)),
            (t(2), C1, served), // never granted to C1
            (t(3), NodeId(0), grant(C1, 2)),
            (t(4), C1, served), // inside the grant: fine
            (
                t(5),
                NodeId(0),
                Event::LockReleased {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                },
            ),
            (t(6), C1, served), // after the release
            (t(7), NodeId(0), grant(C1, 3)),
            (
                t(8),
                NodeId(0),
                Event::LockStolen {
                    client: C1,
                    ino: F,
                    epoch: Epoch(3),
                },
            ),
            (t(9), C1, served), // after the steal
        ]);
        let at: Vec<SimTime> = r
            .coherence
            .iter()
            .filter(|c| c.what == "attr served from cache outside a grant")
            .map(|c| c.at)
            .collect();
        assert_eq!(at, vec![t(2), t(6), t(9)], "{r:?}");
        assert_eq!(r.coherence.len(), 3, "{r:?}");
        assert!(!r.safe());
    }

    #[test]
    fn quiesce_of_another_clients_lane_does_not_taint_reads() {
        let w = tag(C1, 1, 1);
        let r = check(vec![
            (t(1), C2, Event::Quiesced { shard: 0 }),
            (
                t(2),
                C1,
                Event::ReadServed {
                    ino: F,
                    idx: 0,
                    tag: w,
                    from_cache: true,
                },
            ),
        ]);
        assert!(r.coherence.is_empty(), "{r:?}");
    }

    #[test]
    fn dirty_block_at_steal_is_flagged_unless_crashed() {
        // An acked write under epoch 1 that never hardened before the
        // server stole epoch 1: phase 4 failed its one job. The same
        // stream with a client crash after the ack is excused.
        let w = tag(C1, 1, 1);
        let events = vec![
            (
                t(1),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::LockStolen {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                },
            ),
        ];
        let r = check(events.clone());
        let dirty: Vec<_> = r
            .coherence
            .iter()
            .filter(|c| c.what == "dirty block at steal")
            .collect();
        assert_eq!(dirty.len(), 1, "{r:?}");
        assert_eq!(dirty[0].tag, w);
        let excused = Checker::new(CheckOptions {
            crashes: vec![(C1, t(1))],
            ..Default::default()
        })
        .run(&events);
        assert!(excused.coherence.is_empty(), "{excused:?}");
    }

    #[test]
    fn flushed_block_survives_steal_cleanly() {
        // The normal phase-4 story: ack, harden, then the steal finds
        // nothing dirty.
        let w = tag(C1, 1, 1);
        let r = check(vec![
            (
                t(1),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w,
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: w,
                    previous: WriteTag::default(),
                },
            ),
            (
                t(3),
                NodeId(0),
                Event::LockStolen {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                },
            ),
        ]);
        assert!(r.coherence.is_empty(), "{r:?}");
    }

    #[test]
    fn write_under_shared_grant_is_flagged() {
        // SharedRead licenses reading only; a write ack under it is the
        // cache acting beyond its grant. After the upgrade to Exclusive
        // the same write is legitimate.
        let w1 = tag(C1, 1, 1);
        let w2 = tag(C1, 2, 1);
        let r = check(vec![
            (
                t(1),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(1),
                    mode: tank_proto::LockMode::SharedRead,
                },
            ),
            (
                t(2),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w1,
                },
            ),
            (
                t(3),
                NodeId(0),
                Event::LockGranted {
                    client: C1,
                    ino: F,
                    epoch: Epoch(2),
                    mode: tank_proto::LockMode::Exclusive,
                },
            ),
            (
                t(4),
                C1,
                Event::WriteAcked {
                    ino: F,
                    idx: 0,
                    tag: w2,
                },
            ),
            (
                t(5),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: w2,
                    previous: WriteTag::default(),
                },
            ),
        ]);
        assert_eq!(r.coherence.len(), 1, "{r:?}");
        assert_eq!(r.coherence[0].what, "write under SharedRead grant");
        assert_eq!(r.coherence[0].tag, w1);
    }

    #[test]
    fn same_tag_rewrite_is_not_a_violation() {
        // A retried SAN write of the same version may land twice.
        let w = tag(C1, 1, 1);
        let r = check(vec![
            (
                t(1),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: w,
                    previous: WriteTag::default(),
                },
            ),
            (
                t(2),
                NodeId(0),
                Event::Hardened {
                    initiator: C1,
                    block: B,
                    tag: w,
                    previous: w,
                },
            ),
        ]);
        assert!(r.safe(), "{r:?}");
    }
}
