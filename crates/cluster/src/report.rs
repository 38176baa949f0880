//! Run reports: everything an experiment needs to print its table.

use serde::Serialize;
use tank_client::ClientStats;
use tank_consistency::CheckReport;
use tank_core::AuthorityStats;
use tank_proto::ServerId;
use tank_server::ServerStats;
use tank_sim::{NetId, SimTime};

use crate::build::Cluster;

/// Message-traffic summary.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MsgSummary {
    /// Control-network datagrams sent.
    pub ctl_sent: u64,
    /// Control-network datagrams delivered.
    pub ctl_delivered: u64,
    /// Control-network bytes sent.
    pub ctl_bytes: u64,
    /// SAN datagrams sent.
    pub san_sent: u64,
    /// SAN bytes sent.
    pub san_bytes: u64,
    /// Dedicated lease messages (keep-alive requests).
    pub keepalives: u64,
    /// Protocol NACK responses.
    pub nacks: u64,
    /// Lock-demand pushes.
    pub demands: u64,
    /// Per-kind sent counts on the control network, sorted by kind.
    pub per_kind_ctl: Vec<(String, u64)>,
}

/// Full report of one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// The seed the run was built from.
    pub seed: u64,
    /// Virtual end time.
    pub end: SimTime,
    /// Traffic summary.
    pub msg: MsgSummary,
    /// Server operation counters.
    pub server: ServerStats,
    /// Lease-authority accounting (the "passive server" evidence).
    pub authority: AuthorityStats,
    /// Authority lease-state bytes held at harvest (0 in normal operation).
    pub authority_memory_bytes: usize,
    /// Responses held in the servers' replay caches at harvest: state for
    /// at-most-once delivery, which every client with a session keeps
    /// at the server whatever its lease does.
    pub replay_entries: usize,
    /// Metadata transactions executed.
    pub meta_transactions: u64,
    /// Per-client counters.
    pub clients: Vec<ClientStats>,
    /// Safety/liveness audit.
    pub check: CheckReport,
}

impl RunReport {
    /// Assemble from a finished cluster.
    pub fn assemble(cluster: &Cluster, check: CheckReport) -> RunReport {
        let stats = cluster.world.stats();
        let mut per_kind_ctl = Vec::new();
        for (kind, net, c) in stats.iter() {
            if net == NetId::CONTROL && c.sent > 0 {
                per_kind_ctl.push((kind.to_owned(), c.sent));
            }
        }
        let msg = MsgSummary {
            ctl_sent: stats.sent_on(NetId::CONTROL),
            ctl_delivered: stats.delivered_on(NetId::CONTROL),
            ctl_bytes: stats.bytes_on(NetId::CONTROL),
            san_sent: stats.sent_on(NetId::SAN),
            san_bytes: stats.bytes_on(NetId::SAN),
            keepalives: stats.sent_kind("keep_alive", NetId::CONTROL),
            nacks: stats.sent_kind("nack", NetId::CONTROL),
            demands: stats.sent_kind("demand", NetId::CONTROL),
            per_kind_ctl,
        };
        // Sum counters across every shard's lock server (one server in
        // the classic cluster) and its warm standby, if any: after a
        // failover the promoted standby serves the shard.
        let mut server = ServerStats::default();
        let mut authority = tank_core::AuthorityStats::default();
        let mut authority_memory_bytes = 0;
        let mut replay_entries = 0;
        let mut meta_transactions = 0;
        let shard = |s: usize| ServerId(s as u16);
        let primaries = (0..cluster.servers.len()).map(|s| cluster.server_node_of(shard(s)));
        let standbys =
            (0..cluster.standby_servers.len()).map(|s| cluster.standby_node_of(shard(s)));
        for node in primaries.chain(standbys) {
            server += node.stats();
            let a = node.authority().stats();
            authority.empty_checks += a.empty_checks;
            authority.tracked_checks += a.tracked_checks;
            authority.timers_started += a.timers_started;
            authority.expirations += a.expirations;
            authority.nacks += a.nacks;
            authority.peak_tracked = authority.peak_tracked.max(a.peak_tracked);
            authority_memory_bytes += node.authority().memory_bytes();
            replay_entries += node.replay_entries();
            meta_transactions += node.meta().transactions();
        }
        RunReport {
            seed: cluster.seed(),
            end: cluster.world.now(),
            msg,
            server,
            authority,
            authority_memory_bytes,
            replay_entries,
            meta_transactions,
            clients: (0..cluster.clients.len())
                .map(|i| cluster.client(i).stats())
                .collect(),
            check,
        }
    }

    /// Aggregate client counters.
    pub fn client_totals(&self) -> ClientStats {
        let mut t = ClientStats::default();
        for &c in &self.clients {
            t += c;
        }
        t
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "run seed={} end={}", self.seed, self.end)?;
        writeln!(
            f,
            "  ctl: {} msgs ({} B, {} keep-alive, {} nack, {} demand)  san: {} msgs ({} B)",
            self.msg.ctl_sent,
            self.msg.ctl_bytes,
            self.msg.keepalives,
            self.msg.nacks,
            self.msg.demands,
            self.msg.san_sent,
            self.msg.san_bytes
        )?;
        writeln!(
            f,
            "  server: {} reqs, {} meta txns, {} pushes, {} delivery errors, {} steals ({} locks), {} fences",
            self.server.requests,
            self.meta_transactions,
            self.server.pushes_sent,
            self.server.delivery_errors,
            self.server.steals,
            self.server.locks_stolen,
            self.server.fences_completed
        )?;
        writeln!(
            f,
            "  authority: {} empty-checks, {} tracked-checks, {} timers, {} expirations, mem {} B (peak {} clients)",
            self.authority.empty_checks,
            self.authority.tracked_checks,
            self.authority.timers_started,
            self.authority.expirations,
            self.authority_memory_bytes,
            self.authority.peak_tracked
        )?;
        let t = self.client_totals();
        writeln!(
            f,
            "  clients: {} ops ok, {} denied, {} failed; cache {}/{} hit/miss; {} flushed; {} fenced-IO",
            self.check.ops_ok,
            self.check.ops_denied,
            self.check.ops_failed,
            t.cache_hits,
            t.cache_misses,
            t.flushed_blocks,
            t.fenced_io
        )?;
        writeln!(
            f,
            "  safety: {} lost updates, {} stale reads, {} order violations, {} coherence, {} fence rejections → {}",
            self.check.lost_updates.len(),
            self.check.stale_reads.len(),
            self.check.write_order_violations.len(),
            self.check.coherence.len(),
            self.check.fence_rejections,
            if self.check.safe() { "SAFE" } else { "VIOLATED" }
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_totals_sum_every_field() {
        let one = ClientStats {
            submitted: 1,
            completed: 2,
            denied: 3,
            failed: 4,
            cache_hits: 5,
            cache_misses: 6,
            flushed_blocks: 7,
            cache_evictions: 8,
            cache_refetches: 9,
            fenced_io: 10,
            retransmits: 11,
            attr_hits: 12,
            attr_misses: 13,
        };
        let report = RunReport {
            seed: 0,
            end: SimTime::ZERO,
            msg: MsgSummary::default(),
            server: ServerStats::default(),
            authority: AuthorityStats::default(),
            authority_memory_bytes: 0,
            replay_entries: 0,
            meta_transactions: 0,
            clients: vec![one, one],
            check: CheckReport::default(),
        };
        let twice = ClientStats {
            submitted: 2,
            completed: 4,
            denied: 6,
            failed: 8,
            cache_hits: 10,
            cache_misses: 12,
            flushed_blocks: 14,
            cache_evictions: 16,
            cache_refetches: 18,
            fenced_io: 20,
            retransmits: 22,
            attr_hits: 24,
            attr_misses: 26,
        };
        assert_eq!(report.client_totals(), twice);
    }
}
