//! Comparator protocols.
//!
//! Two families of baselines exist in this reproduction:
//!
//! 1. **Recovery-policy baselines** — honor-locks, steal-immediately, and
//!    fence-then-steal — live inside the real server as
//!    [`tank_server::RecoveryPolicy`] variants, and lease-less clients as
//!    `ClientConfig::lease_enabled = false`; the partition scenarios and
//!    fault sweeps exercise them against the full stack.
//!
//! 2. **Lease-scheme baselines** (this crate) — the §4/§5 comparisons of
//!    *lease maintenance overhead*, for schemes the system does not
//!    implement:
//!
//!    * **V-style leases** [Gray & Cheriton '89] — a lease *per cached
//!      object*; each must be renewed before expiry or the object drops
//!      from the cache; the authority stores a record per (client, object).
//!    * **Frangipani-style heartbeats** [Thekkath et al. '97] — a single
//!      lease per client, but maintained by unconditional periodic
//!      heartbeats and tracked in server memory with periodic expiry scans.
//!    * **NFS-style polling** [Sandberg et al. '85] — no leases or locks at
//!      all: the client re-validates each cached object by polling its
//!      attributes every few seconds (and gets no coherence guarantee).
//!
//!    These run on a purpose-built miniature world that models exactly the
//!    lease/validation layer: abstract "useful operations" flow from
//!    clients to a server, and each scheme adds its maintenance traffic,
//!    server state, and server work on top. Experiments E6/E7 sweep client
//!    and object counts and print msgs/op, bytes of lease state, and
//!    lease-related server operations per scheme, beside Storage Tank's own
//!    row, which `tank-cluster` measures on the full stack in the same
//!    units ([`LayerParams`] in, [`LayerReport`] out).

pub mod lease_layer;

pub use lease_layer::{run_lease_layer, LayerParams, LayerReport, Scheme};
