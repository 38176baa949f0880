//! Client-side observability handles.
//!
//! [`ClientObs`] resolves every client-layer instrument from the shared
//! [`Registry`] once, at attach time, so emission sites in the node touch
//! only atomics. Trace events are stamped with *true* simulation time (an
//! instrumentation-only privilege — protocol logic never sees it) so a
//! merged multi-node trace is totally ordered.

use std::sync::Arc;

use tank_obs::{names, Counter, Histogram, Registry};
use tank_sim::{Ctx, Payload};

/// Pre-resolved client metric handles plus the trace sink.
pub struct ClientObs {
    registry: Arc<Registry>,
    /// `client.renewals`.
    pub renewals: Arc<Counter>,
    /// `client.phase.quiesce`.
    pub phase_quiesce: Arc<Counter>,
    /// `client.phase.flush`.
    pub phase_flush: Arc<Counter>,
    /// `client.phase.invalid`.
    pub phase_invalid: Arc<Counter>,
    /// `client.phase.resume`.
    pub phase_resume: Arc<Counter>,
    /// `client.expiry.discarded_dirty`.
    pub discarded_dirty: Arc<Counter>,
    /// `client.retransmits`.
    pub retransmits: Arc<Counter>,
    /// `client.unexpected_msgs`.
    pub unexpected_msgs: Arc<Counter>,
    /// `client.lane.expiries`.
    pub lane_expiries: Arc<Counter>,
    /// `client.rename.aborts`.
    pub rename_aborts: Arc<Counter>,
    /// `client.renewal_headroom_ns`.
    pub renewal_headroom_ns: Arc<Histogram>,
    /// `client.batch.size`.
    pub batch_size: Arc<Histogram>,
    /// `client.batch.flush_reason`.
    pub batch_flush_reason: Arc<Histogram>,
    /// `client.cache.hits`.
    pub cache_hits: Arc<Counter>,
    /// `client.cache.misses`.
    pub cache_misses: Arc<Counter>,
    /// `client.cache.evictions`.
    pub cache_evictions: Arc<Counter>,
    /// `client.cache.refetches`.
    pub cache_refetches: Arc<Counter>,
    /// `client.cache.writeback_flushes`.
    pub writeback_flushes: Arc<Counter>,
    /// `client.cache.revokes`.
    pub cache_revokes: Arc<Counter>,
    /// `client.attr.hits`.
    pub attr_hits: Arc<Counter>,
    /// `client.attr.misses`.
    pub attr_misses: Arc<Counter>,
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
    pub fn trace<P: Payload, Ob>(
        &self,
        ctx: &Ctx<'_, P, Ob>,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        self.registry.trace_with(
            ctx.now_true_for_instrumentation().0,
            ctx.node().to_string(),
            kind,
            detail,
        );
    }
}
