//! The lint battery: each lint is a pure function from the lexed
//! workspace to violations. Registration here is what the CLI's
//! `--list` and `run_all` iterate.

pub mod cache_gate;
pub mod determinism;
pub mod exhaustive_match;
pub mod fsync_before_ack;
pub mod lock_order;
pub mod no_unwrap;
pub mod obs_closure;
pub mod scan;
pub mod time_arith;

use crate::report::Violation;
use crate::source::SourceFile;

/// Crates whose behaviour must be a pure function of simulated time and
/// seeded randomness (DESIGN.md: one schedule ⇒ one history).
pub const PROTOCOL_CRATES: &[&str] = &["core", "proto", "client", "server", "sim", "consistency"];

/// Registry entry for one lint.
pub struct LintInfo {
    /// Stable id used in diagnostics, directives, and the allowlist.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line rule statement.
    pub summary: &'static str,
    /// The checker.
    pub check: fn(&[SourceFile]) -> Vec<Violation>,
}

/// All registered lints, in id order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "L1",
        name: "determinism",
        summary: "no ambient wall clock or OS randomness (Instant::now, SystemTime, \
                  thread_rng) outside the real-transport crates",
        check: determinism::check,
    },
    LintInfo {
        id: "L2",
        name: "checked-time-arithmetic",
        summary: "no bare +/-/* or `as` casts inside LocalNs(..)/SimTime(..) constructors \
                  outside sim::time — use the checked helpers",
        check: time_arith::check,
    },
    LintInfo {
        id: "L3",
        name: "no-unwrap-on-wire",
        summary: "no unwrap()/expect() on decode or socket paths (proto::wire and net)",
        check: no_unwrap::check,
    },
    LintInfo {
        id: "L4",
        name: "exhaustive-protocol-match",
        summary: "no `_ =>` wildcard arms in matches over protocol enums — new message \
                  variants must be handled explicitly",
        check: exhaustive_match::check,
    },
    LintInfo {
        id: "L5",
        name: "obs-contract-closure",
        summary: "every metric declared in obs::names is referenced by at least one \
                  non-test call site",
        check: obs_closure::check,
    },
    LintInfo {
        id: "L6",
        name: "fsync-before-ack",
        summary: "the server never builds a `CtlMsg::Response` with un-synced WAL state \
                  earlier in the same function — durability precedes acknowledgement",
        check: fsync_before_ack::check,
    },
    LintInfo {
        id: "L7",
        name: "phase-gated-cache-access",
        summary: "the client's lock-protected cache stays behind its two gates: block \
                  fills and attribute stores consult `may_admit`, block and attribute \
                  serve paths consult `cache_usable`, and `BlockCache` never escapes \
                  client/src/cache.rs and the node module tree (node.rs, node/*.rs)",
        check: cache_gate::check,
    },
    LintInfo {
        id: "L8",
        name: "shard-lock-order",
        summary: "a loop acquiring locks over several inodes (`ensure_lock_then`) must \
                  be preceded by a sort of its iteration order — the global acquisition \
                  order is the deadlock-freedom argument",
        check: lock_order::check,
    },
];

/// Run every registered lint over `files`.
pub fn run_all(files: &[SourceFile]) -> Vec<Violation> {
    LINTS.iter().flat_map(|l| (l.check)(files)).collect()
}
