//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the program is instrumented. They are
//! kept in memory and written as JSON lines when the run ends. A span's
//! *self time* is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Spans of one op share this (the op's index in the stream).
    pub trace_id: u64,
    /// Unique within the recorder, from 1.
    pub span_id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// `layer.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Records spans with explicit enter/exit; nesting gives the parent.
#[derive(Debug)]
pub struct Recorder {
    /// `false` for [`Recorder::off`]: every call is then a no-op, so the
    /// same code runs traced and untraced.
    on: bool,
    origin: Instant,
    first_id: u32,
    trace_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder::starting_at(1)
    }

    /// Empty recorder whose span ids start at `first_id` (≥ 1), so its
    /// spans can be appended to a file another recorder started.
    pub fn starting_at(first_id: u32) -> Recorder {
        assert!(first_id >= 1, "span id 0 means \"no parent\"");
        Recorder {
            on: true,
            origin: Instant::now(),
            first_id,
            trace_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: what an untraced run passes where
    /// a traced one passes a real recorder.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new()
        }
    }

    /// Spans entered from now on belong to trace `id`.
    pub fn set_trace(&mut self, id: u64) {
        self.trace_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].span_id);
        let idx = self.spans.len();
        self.spans.push(Span {
            trace_id: self.trace_id,
            span_id: self.first_id + idx as u32,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[idx].start_ns = self.now_ns();
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = now;
    }

    /// Span `name` around `f` (for leaf calls that open no child spans).
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every closed span, grouped by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        // Slot 0 collects the roots' time; span `id` owns slot
        // `id - first_id + 1`.
        let slot = |id: u32| {
            if id == 0 {
                0
            } else {
                (id - self.first_id) as usize + 1
            }
        };
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[slot(s.parent)] += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            let own = s.end_ns.saturating_sub(s.start_ns);
            out.entry(s.name)
                .or_default()
                .push(own.saturating_sub(child_ns[slot(s.span_id)]));
        }
        out
    }

    /// Write one JSON object per span, in start order.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"trace_id\":{},\"span_id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.trace_id, s.span_id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_parents_and_self_time_excludes_children() {
        let mut r = Recorder::new();
        r.set_trace(7);
        r.enter("outer");
        r.leaf("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.leaf("inner", || ());
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].span_id, s[0].parent, s[0].trace_id), (1, 0, 7));
        assert_eq!((s[1].span_id, s[1].parent), (2, 1));
        assert_eq!((s[2].span_id, s[2].parent), (3, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let selfs = r.self_times();
        let outer = selfs["outer"][0];
        let inner: u64 = selfs["inner"].iter().sum();
        let total = s[0].end_ns - s[0].start_ns;
        assert_eq!(outer + inner, total);
        assert!(inner >= 2_000_000 && outer < 2_000_000);
    }

    #[test]
    fn ids_can_continue_another_recorders() {
        let mut r = Recorder::starting_at(41);
        r.enter("outer");
        r.leaf("inner", || ());
        r.exit();
        assert_eq!((r.spans()[0].span_id, r.spans()[0].parent), (41, 0));
        assert_eq!((r.spans()[1].span_id, r.spans()[1].parent), (42, 41));
        let selfs = r.self_times();
        let total = r.spans()[0].end_ns - r.spans()[0].start_ns;
        assert_eq!(selfs["outer"][0] + selfs["inner"][0], total);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::off();
        r.enter("outer");
        assert_eq!(r.leaf("inner", || 7), 7);
        r.exit();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut r = Recorder::new();
        r.leaf("a.b", || ());
        r.leaf("c.d", || ());
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"trace_id\":0,\"span_id\":1,\"parent\":0,\"name\":\"a.b\""));
        assert!(lines[1].contains("\"name\":\"c.d\"") && lines[1].ends_with('}'));
    }
}
