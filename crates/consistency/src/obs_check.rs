//! Cross-check between the checker's event stream and the obs registry.
//!
//! The checker reads the `Event`s each node emits; every counter compared
//! here is folded from those same events, in one place per role — the
//! client's `ClientNode::emit` and the server's `ServerObs::on_effect`.
//! So the two are not independent plumbing: what this guards is the
//! fold's mapping from event to name. A counter folded from the wrong
//! event, a fold arm that drops or double-counts, or a counter bumped
//! again outside the fold shows up as a mismatch before a perf PR trusts
//! the numbers.

use tank_obs::{names, Snapshot};
use tank_proto::{Event, LockMode};
use tank_sim::{NodeId, SimTime};

/// Count events matching `pred`.
fn count(events: &[(SimTime, NodeId, Event)], pred: impl Fn(&Event) -> bool) -> u64 {
    events.iter().filter(|(_, _, e)| pred(e)).count() as u64
}

/// Compare the checker-facing event stream against an obs registry
/// snapshot of the same run. Returns one line per mismatch (empty =
/// the two instrumentation pipelines agree).
///
/// Only metrics with a 1:1 event counterpart are compared; purely
/// obs-side instruments (histograms, message counters) have no event to
/// check against.
pub fn cross_check(events: &[(SimTime, NodeId, Event)], snapshot: &Snapshot) -> Vec<String> {
    let discarded_dirty: u64 = events
        .iter()
        .map(|(_, _, e)| match e {
            Event::CacheInvalidated {
                discarded_dirty, ..
            } => *discarded_dirty as u64,
            _ => 0,
        })
        .sum();
    let pairs: Vec<(&str, u64)> = vec![
        (
            names::CLIENT_PHASE_QUIESCE.name,
            count(events, |e| matches!(e, Event::Quiesced { .. })),
        ),
        (
            names::CLIENT_PHASE_RESUME.name,
            count(events, |e| matches!(e, Event::Resumed { .. })),
        ),
        (
            names::CLIENT_PHASE_INVALID.name,
            count(events, |e| matches!(e, Event::CacheInvalidated { .. })),
        ),
        (names::CLIENT_EXPIRY_DISCARDED_DIRTY.name, discarded_dirty),
        (
            names::SERVER_LOCK_GRANTED.name,
            count(events, |e| matches!(e, Event::LockGranted { .. })),
        ),
        (
            names::SERVER_LOCK_RELEASED.name,
            count(events, |e| matches!(e, Event::LockReleased { .. })),
        ),
        (
            names::SERVER_LOCK_STOLEN.name,
            count(events, |e| matches!(e, Event::LockStolen { .. })),
        ),
        (
            names::SERVER_DATALOCK_SHARED_GRANTS.name,
            count(events, |e| {
                matches!(
                    e,
                    Event::LockGranted {
                        mode: LockMode::SharedRead,
                        ..
                    }
                )
            }),
        ),
        (
            names::SERVER_DATALOCK_EXCLUSIVE_GRANTS.name,
            count(events, |e| {
                matches!(
                    e,
                    Event::LockGranted {
                        mode: LockMode::Exclusive,
                        ..
                    }
                )
            }),
        ),
        (
            names::CLIENT_CACHE_HITS.name,
            count(events, |e| {
                matches!(
                    e,
                    Event::ReadServed {
                        from_cache: true,
                        ..
                    }
                )
            }),
        ),
        (
            names::CLIENT_ATTR_HITS.name,
            count(events, |e| {
                matches!(
                    e,
                    Event::AttrServed {
                        from_cache: true,
                        ..
                    }
                )
            }),
        ),
        (
            names::CLIENT_ATTR_MISSES.name,
            count(events, |e| {
                matches!(
                    e,
                    Event::AttrServed {
                        from_cache: false,
                        ..
                    }
                )
            }),
        ),
        (
            names::SERVER_DELIVERY_ERRORS.name,
            count(events, |e| matches!(e, Event::DeliveryError { .. })),
        ),
        (
            names::SERVER_CONDEMN_FIRED.name,
            count(events, |e| matches!(e, Event::LeaseExpired { .. })),
        ),
        (
            names::SERVER_FENCES.name,
            count(events, |e| matches!(e, Event::Fenced { .. })),
        ),
        (
            names::SERVER_SESSIONS.name,
            count(events, |e| matches!(e, Event::NewSession { .. })),
        ),
        (
            names::SERVER_RECOVERY_BEGAN.name,
            count(events, |e| matches!(e, Event::ServerRecovering)),
        ),
        (
            names::SERVER_RECOVERY_ENDED.name,
            count(events, |e| matches!(e, Event::ServerRecovered)),
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, from_events) in pairs {
        let from_counter = snapshot.counter(name).unwrap_or(0);
        if from_counter != from_events {
            mismatches.push(format!(
                "{name}: counter={from_counter} but event stream says {from_events}"
            ));
        }
    }
    mismatches
}
