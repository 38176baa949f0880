//! Real-network binding of the Storage Tank lease protocol.
//!
//! The simulator proves the protocol's properties; this crate proves the
//! protocol is not simulator-bound. The nodes are the simulator's own
//! sans-I/O actors, driven here by wall-clock timers and UDP datagrams
//! instead of virtual time and a virtual network:
//!
//! * [`Host`] — one actor on a UDP socket and a thread of its own: an
//!   event-driven, single-threaded readiness reactor ([`poll`] +
//!   [`reactor`]) that batch-drains every ready datagram per wakeup,
//!   hands each to the actor in arrival order, carries out what the
//!   actor decided, and flushes the replies together, with every timer
//!   multiplexed into the poll timeout (DESIGN.md §15). It is the only
//!   driver: `tankd` and `tank-netclient`'s `TankClient` are two actors
//!   on it.
//! * [`LeaseServer`] — `tankd` (its binary form): the server's whole
//!   request path, [`tank_server::ServerCore`] (gates, Hello, session
//!   window, lock service, lease authority, metadata store), as an actor.
//!   It differs from the simulator's server in DESIGN.md §15's three rows:
//!   its admission lets an unlocked `SetAttr` through, it drops the core's
//!   log records, and with no SAN to fence, its steal is direct. Everything
//!   lease-related is the real protocol, decided in the core as it is in
//!   the simulator: opportunistic renewal, NACKs for suspect clients,
//!   `τ(1+ε)` timers, steal-on-expiry, and the fail-stop recovery grace
//!   window (`--recover`): a restarted server refuses grants and mutations
//!   for `τ(1+ε)` so every lease that might have been outstanding at the
//!   crash has expired on its holder's own clock.
//! * [`FaultySocket`] — a seeded fault-injection shim (drop / duplicate /
//!   delay, per direction) every host uses as its transport: a filter on
//!   each frame of the batched syscalls, so the retry and dedup machinery
//!   is exercised against real datagram loss on the path that ships.
//!
//! Timestamps given to the sans-io actors are monotonic nanoseconds from
//! a process-local epoch ([`mono_now`]), which is exactly the "local
//! clock" the paper's rate-synchronization assumption speaks about.
//!
//! The crate targets 64-bit Linux only: it waits with `epoll` and moves
//! datagrams with `recvmmsg`/`sendmmsg`, declared against that ABI. Any
//! other target fails to build.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("tank-net targets 64-bit Linux: it needs epoll and recvmmsg/sendmmsg");

pub mod fault;
pub mod host;
mod mmsg;
pub mod poll;
pub mod reactor;
pub mod server;

pub use fault::{DirFaults, FaultConfig, FaultySocket};
pub use host::Host;
pub use poll::Poller;
pub use server::{LeaseServer, ServerHandle};

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use tank_sim::LocalNs;

/// Monotonic local time in nanoseconds since the first call in this
/// process — the node's "local clock".
pub fn mono_now() -> LocalNs {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    LocalNs(epoch.elapsed().as_nanos() as u64)
}

/// Lock a mutex, recovering the data if a panicking thread poisoned it.
///
/// The net-layer mutexes guard plain state (counters, maps, RNGs) whose
/// invariants hold between statements; a panic elsewhere must degrade
/// into that thread's failure, not poison-propagate panics through every
/// socket path (tank-lint L3 bans `unwrap` there).
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_now_is_monotone() {
        let a = mono_now();
        let b = mono_now();
        assert!(b >= a);
    }
}
