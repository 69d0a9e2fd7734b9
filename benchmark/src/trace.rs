//! In-memory tracing for the traced run: spans around the benchmark's calls
//! into each layer, and aggregate timers for calls too frequent to span.
//!
//! Nothing here runs inside the program under test: every span is opened
//! and closed by the benchmark's own code around a public function call.
//! Spans stay in memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::measure::Summary;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its [`Trace`].
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// What ran, e.g. `experiment:fig5` or `tick`.
    pub name: String,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin (0 while open).
    pub end_ns: u64,
}

/// Spans plus per-call aggregates for one thread of the run.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    timers: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// An empty trace whose times count from `origin` (share one origin
    /// between the traces of a run's threads).
    pub fn new(origin: Instant) -> Self {
        Trace { origin, spans: Vec::new(), timers: BTreeMap::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name: name.into(), start_ns, end_ns: 0 });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Adds one sample to the aggregate timer `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.timers.entry(name).or_default().push(value);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The samples of aggregate timer `name`.
    pub fn timer(&self, name: &str) -> &[f64] {
        self.timers.get(name).map_or(&[], Vec::as_slice)
    }

    /// Moves another thread's trace into this one, renumbering its spans.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, samples) in other.timers {
            self.timers.entry(name).or_default().extend(samples);
        }
    }

    /// Self time of each span: its duration minus the part its children
    /// cover, in ns, by span id.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The trace as a JSON document: every span, self time per span name,
    /// and each aggregate timer's count, sum and median.
    pub fn to_value(&self) -> Value {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let e = by_name.entry(s.name.split(':').next().unwrap_or(&s.name)).or_default();
            e.0 += 1;
            e.1 += own;
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("id".into(), Value::U64(s.id.into())),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p.into()))),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                ])
            })
            .collect();
        let self_time = by_name
            .into_iter()
            .map(|(name, (count, ns))| {
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("spans".into(), Value::U64(count)),
                        ("self_ms".into(), Value::F64(ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        let timers = self
            .timers
            .iter()
            .filter_map(|(name, samples)| {
                let s = Summary::of(samples)?;
                Some((
                    name.to_string(),
                    Value::Map(vec![
                        ("count".into(), Value::U64(s.n as u64)),
                        ("sum".into(), Value::F64(s.mean * s.n as f64)),
                        ("median".into(), Value::F64(s.median)),
                    ]),
                ))
            })
            .collect();
        Value::Map(vec![
            ("self_time".into(), Value::Map(self_time)),
            ("timers".into(), Value::Map(timers)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}
