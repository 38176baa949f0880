//! Observability substrate for the Storage Tank reproduction.
//!
//! The paper's whole argument rests on the *timing* of events that are
//! invisible from the outside — opportunistic renewals, the four-phase
//! client expiry walk, the server's `τ(1+ε)` condemnation timer. This
//! crate is the measurement layer every other crate reports into:
//!
//! * **Counters** ([`Counter`]): lock-free, monotonically increasing,
//!   saturating at `u64::MAX` (an overflowed counter stays pinned rather
//!   than wrapping back to small values).
//! * **Histograms** ([`Histogram`]): fixed-bucket latency/duration
//!   distributions with inclusive upper bounds, plus running count, sum,
//!   min and max. Observation is lock-free.
//! * **Trace events** ([`TraceEvent`]): a structured, timestamped event
//!   stream (`{t, actor, kind, detail}`) recorded when tracing is enabled
//!   on the [`Registry`], exportable as JSONL or human-readable text.
//!
//! Registration (name → instrument) takes a lock and is expected on cold
//! paths only; emitting code holds `Arc` handles and touches atomics.
//!
//! The full metric contract — every name, unit, and emitting site — is
//! declared in [`names`] and documented in the repository's
//! `OBSERVABILITY.md`; a unit test diffs the two so the doc cannot drift
//! from the code.

pub mod algo;
pub mod names;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing, lock-free counter.
///
/// Increments saturate at `u64::MAX`: a counter that somehow overflows
/// pins at the maximum instead of wrapping, so rate computations degrade
/// to "huge" rather than "tiny".
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &str) -> Counter {
        Counter {
            name: name.to_owned(),
            value: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        algo::saturating_add(&self.value, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram with inclusive upper bounds.
///
/// A value `v` lands in the first bucket whose bound satisfies `v <=
/// bound`; values above the last bound land in the overflow bucket.
/// Count, sum (saturating), min and max are tracked alongside.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    unit: &'static str,
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    /// `0` while empty (disambiguated by `count`).
    max: AtomicU64,
}

impl Histogram {
    fn new(name: &str, unit: &'static str, bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly increasing"
        );
        Histogram {
            name: name.to_owned(),
            unit,
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unit label (e.g. `"ns"`).
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// The configured inclusive upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        // First bucket whose (inclusive) bound covers v; all bounds
        // smaller than v are skipped.
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        algo::saturating_add(&self.sum, v);
        algo::cas_min(&self.min, v);
        algo::cas_max(&self.max, v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }
}

/// One structured trace event.
///
/// `t` is in nanoseconds on the emitter's timeline: simulated nodes stamp
/// *true* (global) simulation time so a merged stream totally orders the
/// run; the real-network stack stamps the process-wide monotonic clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in nanoseconds (see type docs for which clock).
    pub t: u64,
    /// Emitting actor, e.g. `"n3"` (sim node) or `"netclient"`.
    pub actor: String,
    /// Event class — the stable vocabulary documented in OBSERVABILITY.md
    /// (e.g. `"phase"`, `"renewal"`, `"nack"`, `"condemned"`).
    pub kind: &'static str,
    /// Free-form detail for the kind (still machine-splittable).
    pub detail: String,
}

/// Cap on retained trace events; past it, events are counted as dropped
/// instead of growing memory without bound.
pub const MAX_TRACE_EVENTS: usize = 1 << 20;

/// The registry: a cheap, shareable home for counters, histograms, and
/// the trace sink.
///
/// Registration (`counter`/`histogram`) is get-or-create by name, so
/// independent emitters naturally share one instrument. Handles are
/// `Arc`s; the hot path never takes the registry lock.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    tracing: AtomicBool,
    trace: Mutex<Vec<TraceEvent>>,
    trace_dropped: AtomicU64,
}

impl Registry {
    /// An empty registry with tracing disabled.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(Counter::new(name)))
            .clone()
    }

    /// Get or create the histogram `name` with the given inclusive upper
    /// `bounds` (ignored if the histogram already exists).
    pub fn histogram(&self, name: &str, unit: &'static str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(Histogram::new(name, unit, bounds)))
            .clone()
    }

    /// Register a metric from its [`names`] declaration.
    pub fn register(&self, def: &names::MetricDef) {
        match def.kind {
            names::MetricKind::Counter => {
                self.counter(def.name);
            }
            names::MetricKind::Histogram => {
                self.histogram(def.name, def.unit, def.bounds);
            }
        }
    }

    /// Counter handle for a declared metric (panics on a histogram def —
    /// that is a programming error at the wiring site).
    pub fn counter_def(&self, def: &names::MetricDef) -> Arc<Counter> {
        assert!(
            matches!(def.kind, names::MetricKind::Counter),
            "{} is not a counter",
            def.name
        );
        self.counter(def.name)
    }

    /// Histogram handle for a declared metric (panics on a counter def).
    pub fn histogram_def(&self, def: &names::MetricDef) -> Arc<Histogram> {
        assert!(
            matches!(def.kind, names::MetricKind::Histogram),
            "{} is not a histogram",
            def.name
        );
        self.histogram(def.name, def.unit, def.bounds)
    }

    /// Enable or disable trace-event recording.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether trace events are currently recorded. Emitters with
    /// expensive detail formatting should check this first (or use
    /// [`trace_with`](Self::trace_with)).
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Record a trace event (no-op unless tracing is enabled).
    pub fn trace(&self, t: u64, actor: impl Into<String>, kind: &'static str, detail: String) {
        if !self.tracing() {
            return;
        }
        self.push_event(TraceEvent {
            t,
            actor: actor.into(),
            kind,
            detail,
        });
    }

    /// Record a trace event with lazily formatted detail; the closure runs
    /// only when tracing is enabled.
    pub fn trace_with(
        &self,
        t: u64,
        actor: impl Into<String>,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.tracing() {
            return;
        }
        self.push_event(TraceEvent {
            t,
            actor: actor.into(),
            kind,
            detail: detail(),
        });
    }

    fn push_event(&self, ev: TraceEvent) {
        let mut buf = self.trace.lock().unwrap();
        if buf.len() >= MAX_TRACE_EVENTS {
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.push(ev);
    }

    /// Events dropped after the [`MAX_TRACE_EVENTS`] cap was reached.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    /// A copy of the recorded trace events, in emission order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.lock().unwrap().clone()
    }

    /// Immutable snapshot of every registered instrument, names sorted.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .values()
            .map(|c| CounterSnap {
                name: c.name.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .values()
            .map(|h| HistogramSnap {
                name: h.name.clone(),
                unit: h.unit,
                bounds: h.bounds.clone(),
                counts: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count(),
                sum: h.sum.load(Ordering::Relaxed),
                min: h.min(),
                max: h.max(),
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    // ---------------------------------------------------------- exporters

    /// The trace as JSON Lines, one event per line:
    /// `{"t":12000,"actor":"n3","kind":"phase","detail":"active->quiescing"}`.
    pub fn export_trace_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.trace.lock().unwrap().iter() {
            out.push_str(&format!(
                "{{\"t\":{},\"actor\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
                ev.t,
                json_escape(&ev.actor),
                json_escape(ev.kind),
                json_escape(&ev.detail)
            ));
        }
        out
    }

    /// The trace as aligned human-readable text:
    /// `[   12.000ms] n3           phase        active->quiescing`.
    pub fn export_trace_text(&self) -> String {
        let mut out = String::new();
        for ev in self.trace.lock().unwrap().iter() {
            out.push_str(&format!(
                "[{:>12}] {:<12} {:<16} {}\n",
                format_ns(ev.t),
                ev.actor,
                ev.kind,
                ev.detail
            ));
        }
        out
    }
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnap {
    /// Registered name.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Inclusive upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation, if any.
    pub min: Option<u64>,
    /// Largest observation, if any.
    pub max: Option<u64>,
}

impl HistogramSnap {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate of the `q`-quantile (`0.0..=1.0`), or `None` when empty.
    ///
    /// Resolution is the bucket grid: the estimate is the inclusive
    /// upper bound of the bucket the quantile rank falls in, clamped to
    /// the observed `max` (so the overflow bucket answers with a real
    /// observation instead of infinity, and a coarse ladder never
    /// reports a value above anything seen).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = self.bounds.get(i).copied().unwrap_or(u64::MAX);
                return Some(bound.min(self.max.unwrap_or(bound)));
            }
        }
        self.max
    }
}

/// A full registry snapshot (both instrument kinds, names sorted).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSnap>,
    /// All histograms.
    pub histograms: Vec<HistogramSnap>,
}

impl Snapshot {
    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Every registered metric name, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .counters
            .iter()
            .map(|c| c.name.clone())
            .chain(self.histograms.iter().map(|h| h.name.clone()))
            .collect();
        v.sort();
        v
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0);
        for c in &self.counters {
            out.push_str(&format!("{:<width$}  {}\n", c.name, c.value));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "{:<width$}  n={} min={} mean={:.0} max={} {}\n",
                h.name,
                h.count,
                h.min.map_or("-".into(), |v| v.to_string()),
                h.mean(),
                h.max.map_or("-".into(), |v| v.to_string()),
                h.unit,
            ));
        }
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render nanoseconds tersely (`950ns`, `12.000ms`, `3.400s`).
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_registry_dedups() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x.hits"), Some(3));
        assert!(Arc::ptr_eq(&a, &b), "same name, same instrument");
    }

    #[test]
    fn counter_overflow_saturates() {
        let reg = Registry::new();
        let c = reg.counter("near.max");
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "saturates instead of wrapping");
        c.inc();
        assert_eq!(c.get(), u64::MAX, "stays pinned at the max");
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "ns", &[10, 100, 1000]);
        // Exactly on a bound → that bucket (inclusive upper bound).
        h.observe(10);
        h.observe(100);
        h.observe(1000);
        // One past a bound → the next bucket.
        h.observe(11);
        h.observe(101);
        // Past the last bound → overflow.
        h.observe(1001);
        // Zero → the first bucket.
        h.observe(0);
        let snap = reg.snapshot();
        let s = snap.histogram("lat").unwrap();
        assert_eq!(s.counts, vec![2, 2, 2, 1]);
        assert_eq!(s.count, 7);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(1001));
    }

    #[test]
    fn histogram_sum_saturates() {
        let reg = Registry::new();
        let h = reg.histogram("big", "ns", &[1]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("big").unwrap().sum, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let reg = Registry::new();
        let _ = reg.histogram("bad", "ns", &[10, 10]);
    }

    #[test]
    fn tracing_is_gated_and_capped_detail_is_lazy() {
        let reg = Registry::new();
        reg.trace(1, "a", "k", "dropped while disabled".into());
        reg.trace_with(2, "a", "k", || unreachable!("must not format"));
        assert!(reg.trace_events().is_empty());
        reg.set_tracing(true);
        reg.trace(3, "a", "k", "recorded".into());
        let evs = reg.trace_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t, 3);
        assert_eq!(evs[0].kind, "k");
    }

    #[test]
    fn jsonl_export_escapes_and_frames() {
        let reg = Registry::new();
        reg.set_tracing(true);
        reg.trace(42, "n1", "nack", "reason=\"x\"\nline2".into());
        let out = reg.export_trace_jsonl();
        assert_eq!(
            out,
            "{\"t\":42,\"actor\":\"n1\",\"kind\":\"nack\",\"detail\":\"reason=\\\"x\\\"\\nline2\"}\n"
        );
    }

    #[test]
    fn text_export_mentions_actor_and_kind() {
        let reg = Registry::new();
        reg.set_tracing(true);
        reg.trace(12_000_000, "n3", "phase", "active->quiescing".into());
        let out = reg.export_trace_text();
        assert!(out.contains("n3"));
        assert!(out.contains("phase"));
        assert!(out.contains("active->quiescing"));
        assert!(out.contains("12.000ms"));
    }

    #[test]
    fn register_all_matches_declared_names() {
        let reg = Registry::new();
        names::register_all(&reg);
        let snap = reg.snapshot();
        let mut declared: Vec<String> = names::ALL.iter().map(|d| d.name.to_owned()).collect();
        declared.sort();
        assert_eq!(snap.names(), declared);
    }
}
