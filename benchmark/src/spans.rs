//! Spans: one record per call into a layer, taken from the benchmark's
//! own files, held in memory, written out when the run ends.
//!
//! A span is `{id, parent, op_id, name, start_ns, end_ns}`. Spans of
//! one operation share its `op_id`; the root is `op.put` or `op.get`.
//! A layer's *self time* is its span's duration minus the part its
//! child spans cover.

use crate::stats::{Latencies, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. Disabled, every call is a branch and
/// nothing else: the same replay runs once each way and the gap is
/// the tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for the next operation.
    pub fn begin_op(&mut self, name: &'static str) -> Option<u32> {
        self.op_id += 1;
        self.begin(name)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Names a span once the message it handles has been decoded.
    pub fn rename(&mut self, token: Option<u32>, name: &'static str) {
        if let Some(id) = token {
            self.spans[id as usize].name = name;
        }
    }

    /// Closes a span (and any left open inside it).
    pub fn end(&mut self, token: Option<u32>) {
        let Some(id) = token else { return };
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = end_ns;
            if open == id {
                break;
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What recording one span costs on this host right now, in
/// nanoseconds: a begin/end pair, timed over many.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..PAIRS {
        let token = tracer.begin("calibration");
        tracer.end(token);
    }
    let cost = start.elapsed().as_nanos() as f64 / f64::from(PAIRS);
    std::hint::black_box(tracer.into_spans());
    cost
}

/// Self time of each span, indexed like `spans`: its duration minus
/// its direct children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// True for the two root span names.
pub fn is_root(name: &str) -> bool {
    name == "op.put" || name == "op.get"
}

/// Per span name: `<name>.p50_us` (median duration), `<name>.share`
/// (self time ÷ total root time) and `<name>.per_op` (count ÷ ops).
pub fn summarise(spans: &[Span]) -> Vec<Metric> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Latencies, u64)> = BTreeMap::new();
    let (mut root_ns, mut ops) = (0u64, 0u64);
    for (span, own_ns) in spans.iter().zip(&own) {
        let slot = by_name.entry(span.name).or_default();
        slot.0.record_us(span.duration_ns() as f64 / 1e3);
        slot.1 += own_ns;
        if is_root(span.name) {
            root_ns += span.duration_ns();
            ops += 1;
        }
    }
    let mut out = Vec::new();
    for (name, (durations, own_ns)) in by_name {
        let n = durations.count();
        out.push(Metric::new(format!("{name}.p50_us"), durations.quantile_us(0.5), "us", n));
        out.push(Metric::new(
            format!("{name}.share"),
            own_ns as f64 / root_ns.max(1) as f64,
            "frac",
            n,
        ));
        out.push(Metric::new(format!("{name}.per_op"), n as f64 / ops.max(1) as f64, "1/op", ops));
    }
    out
}

/// One JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"op_id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.op_id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, op_id: 1, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_a_hand_built_tree() {
        let spans = [
            span(0, None, "op.put", 0, 100),
            span(1, Some(0), "client.put_sign", 10, 40),
            span(2, Some(0), "edge.batch_add", 50, 70),
            span(3, Some(2), "wire.decode", 55, 60),
        ];
        assert_eq!(self_times_ns(&spans), [50, 30, 15, 5]);
        let metrics = summarise(&spans);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!((get("edge.batch_add.share") - 0.15).abs() < 1e-12, "self 15 of root 100");
        assert!((get("op.put.share") - 0.50).abs() < 1e-12);
        assert!((get("edge.batch_add.p50_us") - 0.020).abs() < 1e-12, "duration, not self time");
        assert_eq!(get("wire.decode.per_op"), 1.0);
        let shares: f64 =
            metrics.iter().filter(|m| m.name.ends_with(".share")).map(|m| m.value).sum();
        assert!((shares - 1.0).abs() < 1e-12, "self times partition the root");
    }

    #[test]
    fn tracer_nests_spans_under_their_operation_and_jsonl_parses() {
        let mut t = Tracer::new(true);
        let root = t.begin_op("op.get");
        let hop = t.begin("edge.other");
        let leaf = t.begin("wire.decode");
        t.end(leaf);
        t.rename(hop, "edge.get");
        t.end(hop);
        t.end(root);
        let root2 = t.begin_op("op.put");
        t.end(root2);
        let spans = t.into_spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op.get", "edge.get", "wire.decode", "op.put"]
        );
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), None]
        );
        assert_eq!(spans.iter().map(|s| s.op_id).collect::<Vec<_>>(), [1, 1, 1, 2]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        for line in to_jsonl(&spans).lines() {
            let v = Json::parse(line).expect("each line is a JSON object");
            assert!(v.get("name").and_then(Json::as_str).is_some());
        }

        let mut off = Tracer::new(false);
        let token = off.begin_op("op.put");
        off.end(token);
        assert!(token.is_none() && off.into_spans().is_empty(), "disabled tracer records nothing");
    }
}
