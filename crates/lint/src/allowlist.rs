//! The committed allowlist: where a lint's rule is deliberately relaxed,
//! with the reason on record.
//!
//! Policy (see `LINTS.md`): an entry here needs a *structural* reason —
//! a whole crate whose job requires the forbidden construct — never
//! convenience, and it must still suppress something: `repo_clean`
//! fails on an entry no finding needs. Point exceptions inside
//! otherwise-governed code use an inline `// tank-lint: allow(Lx)
//! reason` comment instead, which scopes the exemption to one line and
//! keeps the reason next to the code.

/// One allowlist entry: `lint` is not reported under `path_prefix`.
#[derive(Debug, Clone, Copy)]
pub struct Allow {
    /// Lint id, e.g. `L1`.
    pub lint: &'static str,
    /// Workspace-relative path prefix the exemption covers.
    pub path_prefix: &'static str,
    /// Why the exemption is sound.
    pub reason: &'static str,
}

/// The committed exemptions.
pub const ALLOWLIST: &[Allow] = &[
    Allow {
        lint: "L1",
        path_prefix: "crates/net/",
        reason: "real transport: socket deadlines and the monotonic epoch need the OS clock; \
                 protocol decisions still flow through LocalNs",
    },
    Allow {
        lint: "L1",
        path_prefix: "crates/netclient/",
        reason: "real transport: the client driver's timers and socket waits run on the OS \
                 clock; the node it drives sees only LocalNs",
    },
    Allow {
        lint: "L2",
        path_prefix: "crates/sim/src/time.rs",
        reason: "the one blessed home of raw time arithmetic; every other site must go \
                 through its checked (saturating) helpers",
    },
    Allow {
        lint: "L7",
        path_prefix: "crates/client/src/lib.rs",
        reason: "the crate root re-exports BlockCache/BlockState as the public API surface \
                 for the cache's own integration tests; no cache *access* happens here",
    },
];

/// The allowlist entry suppressing `lint` at `rel`, if any.
pub fn allowed(lint: &str, rel: &str) -> Option<&'static Allow> {
    ALLOWLIST
        .iter()
        .find(|a| a.lint == lint && rel.starts_with(a.path_prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_scoping() {
        assert!(allowed("L1", "crates/net/src/server.rs").is_some());
        assert!(allowed("L1", "crates/netclient/src/lib.rs").is_some());
        assert!(allowed("L1", "crates/core/src/lib.rs").is_none());
        assert!(allowed("L2", "crates/sim/src/time.rs").is_some());
        assert!(allowed("L2", "crates/sim/src/world.rs").is_none());
    }
}
