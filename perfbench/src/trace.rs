//! In-memory span recorder for the traced replay.
//!
//! Spans nest: each has an optional parent, and a span's *self time* is
//! its duration minus the durations of its direct children. Nothing here
//! touches the program under test; the replay wraps calls to the layers'
//! public functions in [`Tracer::stage`].

use esched_obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name, `layer.stage` (e.g. `core.allocate`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while open).
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans for one operation.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Run `f` inside a span named `name`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take() with open spans");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Chrome trace document (`"X"` events, microseconds) of `ops`, one
/// track per operation index.
pub fn to_chrome(ops: &[Vec<Span>]) -> Value {
    let mut events = Vec::new();
    for (op, spans) in ops.iter().enumerate() {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            events.push(Value::obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("ph", Value::Str("X".to_string())),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(op as f64)),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns as f64 / 1e3)),
                (
                    "args",
                    Value::obj(vec![("self_us", Value::Num(self_ns as f64 / 1e3))]),
                ),
            ]));
        }
    }
    Value::obj(vec![("traceEvents", Value::Arr(events))])
}
