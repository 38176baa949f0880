//! Message statistics collected by the world.
//!
//! The overhead experiments (E6/E7 in DESIGN.md) need per-kind message and
//! byte counts, split by network, plus drop accounting. Counters are keyed
//! by the payload's static `kind()` label — borrowed, never copied: the
//! world touches a cell on every send and every delivery.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::net::NetId;

/// Count and byte volume for one message kind on one network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgCounter {
    /// Datagrams sent (attempted, before loss/blocking).
    pub sent: u64,
    /// Datagrams delivered to a live node.
    pub delivered: u64,
    /// Datagrams lost to random loss.
    pub dropped: u64,
    /// Datagrams suppressed by a blocked (partitioned) link.
    pub blocked: u64,
    /// Datagrams addressed to a crashed node.
    pub to_dead: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
}

/// Aggregated statistics for a run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MsgStats {
    counters: BTreeMap<(&'static str, u8), MsgCounter>,
}

impl MsgStats {
    /// Counter cell for `(kind, net)`, created on first touch.
    pub(crate) fn cell(&mut self, kind: &'static str, net: NetId) -> &mut MsgCounter {
        self.counters.entry((kind, net.0)).or_default()
    }

    /// Total datagrams sent on a network (all kinds).
    pub fn sent_on(&self, net: NetId) -> u64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| *n == net.0)
            .map(|(_, c)| c.sent)
            .sum()
    }

    /// Total datagrams delivered on a network.
    pub fn delivered_on(&self, net: NetId) -> u64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| *n == net.0)
            .map(|(_, c)| c.delivered)
            .sum()
    }

    /// Total bytes sent on a network.
    pub fn bytes_on(&self, net: NetId) -> u64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| *n == net.0)
            .map(|(_, c)| c.bytes_sent)
            .sum()
    }

    /// Sent count for one kind on one network.
    pub fn sent_kind(&self, kind: &str, net: NetId) -> u64 {
        self.counters
            .get(&(kind, net.0))
            .map(|c| c.sent)
            .unwrap_or(0)
    }

    /// Delivered count for one kind on one network.
    pub fn delivered_kind(&self, kind: &str, net: NetId) -> u64 {
        self.counters
            .get(&(kind, net.0))
            .map(|c| c.delivered)
            .unwrap_or(0)
    }

    /// Iterate `(kind, net, counter)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, NetId, &MsgCounter)> {
        self.counters.iter().map(|((k, n), c)| (*k, NetId(*n), c))
    }

    /// Merge another stats table into this one (used when aggregating
    /// repeated runs).
    pub fn merge(&mut self, other: &MsgStats) {
        for ((k, n), c) in &other.counters {
            let cell = self.counters.entry((*k, *n)).or_default();
            cell.sent += c.sent;
            cell.delivered += c.delivered;
            cell.dropped += c.dropped;
            cell.blocked += c.blocked;
            cell.to_dead += c.to_dead;
            cell.bytes_sent += c.bytes_sent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_accumulate_and_query() {
        let mut s = MsgStats::default();
        s.cell("keep_alive", NetId::CONTROL).sent += 3;
        s.cell("keep_alive", NetId::CONTROL).bytes_sent += 120;
        s.cell("san_read", NetId::SAN).sent += 2;
        assert_eq!(s.sent_on(NetId::CONTROL), 3);
        assert_eq!(s.sent_on(NetId::SAN), 2);
        assert_eq!(s.bytes_on(NetId::CONTROL), 120);
        assert_eq!(s.sent_kind("keep_alive", NetId::CONTROL), 3);
        assert_eq!(s.sent_kind("keep_alive", NetId::SAN), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = MsgStats::default();
        a.cell("x", NetId::CONTROL).sent = 1;
        let mut b = MsgStats::default();
        b.cell("x", NetId::CONTROL).sent = 2;
        b.cell("y", NetId::SAN).delivered = 5;
        a.merge(&b);
        assert_eq!(a.sent_kind("x", NetId::CONTROL), 3);
        assert_eq!(a.delivered_kind("y", NetId::SAN), 5);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut s = MsgStats::default();
        s.cell("b", NetId::SAN).sent = 1;
        s.cell("a", NetId::CONTROL).sent = 1;
        let kinds: Vec<&str> = s.iter().map(|(k, _, _)| k).collect();
        assert_eq!(kinds, vec!["a", "b"]);
    }
}
