//! Client-side observability handles.
//!
//! [`ClientObs`] resolves every client-layer instrument from the shared
//! [`Registry`] once, at attach time, so emission sites in the node touch
//! only atomics. Trace events are stamped with *true* simulation time (an
//! instrumentation-only privilege — protocol logic never sees it) so a
//! merged multi-node trace is totally ordered.

use std::sync::Arc;

use tank_obs::{names, Counter, Histogram, Registry};
use tank_proto::NodeCtx;

/// Pre-resolved client metric handles (each field is the `names::*`
/// instrument [`new`](ClientObs::new) resolves it from) plus the trace
/// sink.
pub struct ClientObs {
    registry: Arc<Registry>,
    pub(crate) renewals: Arc<Counter>,
    pub(crate) phase_quiesce: Arc<Counter>,
    pub(crate) phase_flush: Arc<Counter>,
    pub(crate) phase_invalid: Arc<Counter>,
    pub(crate) phase_resume: Arc<Counter>,
    pub(crate) discarded_dirty: Arc<Counter>,
    pub(crate) retransmits: Arc<Counter>,
    pub(crate) unexpected_msgs: Arc<Counter>,
    pub(crate) lane_expiries: Arc<Counter>,
    pub(crate) rename_aborts: Arc<Counter>,
    pub(crate) renewal_headroom_ns: Arc<Histogram>,
    pub(crate) batch_size: Arc<Histogram>,
    pub(crate) batch_flush_reason: Arc<Histogram>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    pub(crate) cache_refetches: Arc<Counter>,
    pub(crate) writeback_flushes: Arc<Counter>,
    pub(crate) cache_revokes: Arc<Counter>,
    pub(crate) attr_hits: Arc<Counter>,
    pub(crate) attr_misses: Arc<Counter>,
}

impl std::fmt::Debug for ClientObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientObs").finish_non_exhaustive()
    }
}

impl ClientObs {
    /// Resolve all client instruments from `registry`.
    pub fn new(registry: Arc<Registry>) -> ClientObs {
        ClientObs {
            renewals: registry.counter_def(&names::CLIENT_RENEWALS),
            phase_quiesce: registry.counter_def(&names::CLIENT_PHASE_QUIESCE),
            phase_flush: registry.counter_def(&names::CLIENT_PHASE_FLUSH),
            phase_invalid: registry.counter_def(&names::CLIENT_PHASE_INVALID),
            phase_resume: registry.counter_def(&names::CLIENT_PHASE_RESUME),
            discarded_dirty: registry.counter_def(&names::CLIENT_EXPIRY_DISCARDED_DIRTY),
            retransmits: registry.counter_def(&names::CLIENT_RETRANSMITS),
            unexpected_msgs: registry.counter_def(&names::CLIENT_UNEXPECTED_MSGS),
            lane_expiries: registry.counter_def(&names::CLIENT_LANE_EXPIRIES),
            rename_aborts: registry.counter_def(&names::CLIENT_RENAME_ABORTS),
            renewal_headroom_ns: registry.histogram_def(&names::CLIENT_RENEWAL_HEADROOM_NS),
            batch_size: registry.histogram_def(&names::CLIENT_BATCH_SIZE),
            batch_flush_reason: registry.histogram_def(&names::CLIENT_BATCH_FLUSH_REASON),
            cache_hits: registry.counter_def(&names::CLIENT_CACHE_HITS),
            cache_misses: registry.counter_def(&names::CLIENT_CACHE_MISSES),
            cache_evictions: registry.counter_def(&names::CLIENT_CACHE_EVICTIONS),
            cache_refetches: registry.counter_def(&names::CLIENT_CACHE_REFETCHES),
            writeback_flushes: registry.counter_def(&names::CLIENT_CACHE_WRITEBACK_FLUSHES),
            cache_revokes: registry.counter_def(&names::CLIENT_CACHE_REVOKES),
            attr_hits: registry.counter_def(&names::CLIENT_ATTR_HITS),
            attr_misses: registry.counter_def(&names::CLIENT_ATTR_MISSES),
            registry,
        }
    }

    /// Record a structured trace event stamped with true time and this
    /// node's id. The detail closure runs only when tracing is enabled.
    pub fn trace(&self, ctx: &NodeCtx<'_>, kind: &'static str, detail: impl FnOnce() -> String) {
        self.registry.trace_with(
            ctx.now_true_for_instrumentation().0,
            ctx.node().to_string(),
            kind,
            detail,
        );
    }
}
