//! Message statistics collected by the world.
//!
//! The overhead experiments (E6/E7 in DESIGN.md) need per-kind message and
//! byte counts, split by network, plus drop accounting. Counters are keyed
//! by the payload's static `kind()` label — borrowed, never copied. The
//! world touches a cell on every send and every delivery, so it finds the
//! cell by the label's address, not its text; a label first met at a new
//! address is looked up by its text, so each kind keeps one cell however
//! many copies of the string the binary holds.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::fxhash::HashMap;
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
    /// Every cell, in first-touch order.
    cells: Vec<MsgCounter>,
    /// `(kind, net)` → index into `cells`, by the label's text: the read
    /// side, in sorted order.
    counters: BTreeMap<(&'static str, u8), usize>,
    /// `(address, length, net)` of a label → index into `cells`: the
    /// world's per-datagram lookup.
    by_addr: HashMap<(usize, usize, u8), usize>,
}

impl MsgStats {
    /// Counter cell for `(kind, net)`, created on first touch.
    pub(crate) fn cell(&mut self, kind: &'static str, net: NetId) -> &mut MsgCounter {
        let key = (kind.as_ptr() as usize, kind.len(), net.0);
        let i = match self.by_addr.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.index(kind, net.0);
                self.by_addr.insert(key, i);
                i
            }
        };
        &mut self.cells[i]
    }

    /// Index of the cell for `(kind, net)` by the label's text, created on
    /// first touch.
    fn index(&mut self, kind: &'static str, net: u8) -> usize {
        let next = self.cells.len();
        let i = *self.counters.entry((kind, net)).or_insert(next);
        if i == next {
            self.cells.push(MsgCounter::default());
        }
        i
    }

    /// Iterate `((kind, net), counter)` in sorted order.
    fn sorted(&self) -> impl Iterator<Item = ((&'static str, u8), &MsgCounter)> {
        self.counters.iter().map(|(k, &i)| (*k, &self.cells[i]))
    }

    /// The cell for one kind on one network, if it was ever touched.
    fn get(&self, kind: &str, net: NetId) -> Option<&MsgCounter> {
        self.counters.get(&(kind, net.0)).map(|&i| &self.cells[i])
    }

    /// Total datagrams sent on a network (all kinds).
    pub fn sent_on(&self, net: NetId) -> u64 {
        self.sorted()
            .filter(|((_, n), _)| *n == net.0)
            .map(|(_, c)| c.sent)
            .sum()
    }

    /// Total datagrams delivered on a network.
    pub fn delivered_on(&self, net: NetId) -> u64 {
        self.sorted()
            .filter(|((_, n), _)| *n == net.0)
            .map(|(_, c)| c.delivered)
            .sum()
    }

    /// Total bytes sent on a network.
    pub fn bytes_on(&self, net: NetId) -> u64 {
        self.sorted()
            .filter(|((_, n), _)| *n == net.0)
            .map(|(_, c)| c.bytes_sent)
            .sum()
    }

    /// Sent count for one kind on one network.
    pub fn sent_kind(&self, kind: &str, net: NetId) -> u64 {
        self.get(kind, net).map_or(0, |c| c.sent)
    }

    /// Delivered count for one kind on one network.
    pub fn delivered_kind(&self, kind: &str, net: NetId) -> u64 {
        self.get(kind, net).map_or(0, |c| c.delivered)
    }

    /// Iterate `(kind, net, counter)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, NetId, &MsgCounter)> {
        self.sorted().map(|((k, n), c)| (k, NetId(n), c))
    }

    /// Merge another stats table into this one (used when aggregating
    /// repeated runs).
    pub fn merge(&mut self, other: &MsgStats) {
        for ((k, n), c) in other.sorted() {
            let i = self.index(k, n);
            let cell = &mut self.cells[i];
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

    #[test]
    fn one_kind_at_two_addresses_is_one_cell() {
        // Two distinct `'static` copies of one label: the second copy's
        // address is new, its text is not.
        let first: &'static str = "keep_alive";
        let second: &'static str = String::from("keep_alive").leak();
        assert_ne!(first.as_ptr(), second.as_ptr());
        let mut s = MsgStats::default();
        s.cell(first, NetId::CONTROL).sent += 1;
        s.cell(second, NetId::CONTROL).sent += 2;
        s.cell(second, NetId::SAN).sent += 4;
        assert_eq!(s.sent_kind("keep_alive", NetId::CONTROL), 3);
        assert_eq!(s.sent_kind("keep_alive", NetId::SAN), 4);
        assert_eq!(s.iter().count(), 2);
    }
}
