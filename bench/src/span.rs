//! In-memory spans and counts for the traced run.
//!
//! The harness records a span around each call it makes into a layer:
//! name, start, end, the span that caused it, and the op it belongs
//! to. Nothing is written until the run ends. A layer's *self time* is
//! its span minus the part its child spans cover, so the self times
//! under one op add up to that op's span exactly and no time can hide
//! between layers.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;
use crate::stats::median;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op (one caller-visible request) the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counts: Vec<(&'static str, u32, f64)>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts attributing spans and counts to op `op`.
    pub fn set_op(&mut self, op: u32) {
        assert!(self.open.is_empty(), "an op starts with no span open");
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// A leaf span around one call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Closes every open span (an op that failed midway).
    pub fn unwind(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(id);
        }
    }

    /// Records a count made at the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, self.op, value));
    }

    /// Per op, the summed duration in µs of the spans called `name`;
    /// only ops that have such a span.
    pub fn us_by_op(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += s.dur_ns() as f64 / 1e3;
        }
        by_op
    }

    /// Median µs per op of the spans called `name` (0 if none ran).
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.us_by_op(name).into_values().collect::<Vec<_>>())
    }

    /// Per op, the sum of the counts called `name`.
    pub fn count_by_op(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for c in self.counts.iter().filter(|c| c.0 == name) {
            *by_op.entry(c.1).or_insert(0.0) += c.2;
        }
        by_op
    }

    /// Sum over all ops of the spans called `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Sum over all ops of the count called `name`.
    pub fn count_sum(&self, name: &str) -> f64 {
        self.count_by_op(name).values().sum()
    }

    /// Total self time per span name, in seconds.
    pub fn self_secs_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn spans_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"op\": {}, \"parent\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                    json::string(s.name),
                    s.op,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("submit", None, 0, 100),
            span("plan", Some(0), 10, 70),
            span("expand", Some(1), 10, 30),
            span("search", Some(1), 30, 60),
            span("commit", Some(0), 70, 95),
        ];
        // submit: 100 − (60 + 25); plan: 60 − (20 + 30); leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![15, 10, 20, 30, 25]);
        // Self times under one root add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_attributes_to_ops() {
        let mut r = Recorder::new();
        for op in 0..3 {
            r.set_op(op);
            let outer = r.enter("outer");
            r.time("inner", || std::hint::black_box(1 + 1));
            r.time("inner", || std::hint::black_box(2 + 2));
            r.exit(outer);
            r.count("rows", f64::from(op));
        }
        assert_eq!(r.us_by_op("inner").len(), 3, "two calls fold into one op");
        assert_eq!(r.us_by_op("absent").len(), 0);
        assert_eq!(r.median_us("absent"), 0.0);
        assert_eq!(r.count_sum("rows"), 3.0);
        assert_eq!(r.count_by_op("rows")[&2], 2.0);
        let inner = r.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(0));
        let selfs = r.self_secs_by_name();
        assert!(selfs["outer"] + selfs["inner"] - r.total_secs("outer") < 1e-12);
        assert!(r.spans_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn unwind_closes_what_a_failed_op_left_open() {
        let mut r = Recorder::new();
        r.enter("a");
        r.enter("b");
        r.unwind();
        r.set_op(1); // would panic with a span still open
        assert!(r.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
