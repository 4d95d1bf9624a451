//! Spans recorded from outside the program: the benchmark wraps its own
//! calls into each layer's public functions, never code inside the layers.
//!
//! Each span is opened with ckpt-telemetry's [`Span::wall`] and closed into
//! the [`Tracer`], an in-memory sink that stamps the closing event with the
//! span's id, its parent (the innermost span still open) and the call it
//! belongs to. Spans are kept in memory and written as JSONL at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};

use ckpt_telemetry::json::json_string;
use ckpt_telemetry::{FieldValue, Span, TelemetrySink, TraceEvent};

/// One closed span: wall-clock seconds since the process's telemetry
/// anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique within the run, in opening order.
    pub id: usize,
    /// The innermost span open when this one opened.
    pub parent: Option<usize>,
    /// The benchmark call the span belongs to.
    pub call: usize,
    /// `<layer>.<operation>`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Wall-clock start, seconds.
    pub start: f64,
    /// Wall-clock end, seconds.
    pub end: f64,
}

impl SpanRecord {
    /// The span's length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span measures.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span sink. A disabled tracer runs the wrapped closures and
/// records nothing, so the untraced pass pays one branch per span.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    call: usize,
    next_id: usize,
    open: Vec<usize>,
    closing: Option<(usize, &'static str)>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, ..Tracer::default() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the call id stamped on the spans that follow.
    pub fn set_call(&mut self, call: usize) {
        self.call = call;
    }

    /// Runs `work` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(id);
        let span = Span::wall(name);
        let out = work(self);
        self.open.pop();
        self.closing = Some((id, name));
        span.end_wall(self);
        out
    }

    /// The closed spans, in closing order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, in closing order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(SpanRecord::duration).collect()
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-layer self time in seconds: each span's duration minus the part
    /// its child spans cover (children run one after another inside their
    /// parent, so the covered part is the sum of their durations).
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_time: BTreeMap<usize, f64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_time.entry(parent).or_default() += span.duration();
            }
        }
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for span in &self.spans {
            let own = span.duration() - child_time.get(&span.id).copied().unwrap_or(0.0);
            *by_layer.entry(span.layer().to_string()).or_default() += own;
        }
        by_layer
    }

    /// Writes one JSON object per span of the first `calls` calls: name,
    /// start, end, call, id, parent.
    pub fn write_jsonl<W: Write>(&self, mut out: W, calls: usize) -> io::Result<()> {
        for span in self.spans.iter().filter(|span| span.call < calls) {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":{},\"start\":{},\"end\":{},\"call\":{},\"id\":{},\"parent\":{}}}",
                json_string(span.name),
                span.start,
                span.end,
                span.call,
                span.id,
                parent
            )?;
        }
        out.flush()
    }
}

impl TelemetrySink for Tracer {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, event: &TraceEvent) {
        let start = event.fields().iter().find_map(|(key, value)| match (key.as_ref(), value) {
            ("start", FieldValue::F64(start)) => Some(*start),
            _ => None,
        });
        let (Some((id, name)), Some(start)) = (self.closing.take(), start) else {
            return;
        };
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            call: self.call,
            name,
            start,
            end: event.time(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tracer = Tracer::new(true);
        tracer.set_call(7);
        tracer.span("harness.call", |t| {
            t.span("service.serve_batch", |_| std::hint::black_box(1 + 1));
            t.span("core.dp", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "harness.call").unwrap();
        assert_eq!(root.parent, None);
        assert!(spans.iter().filter(|s| s.id != root.id).all(|s| s.parent == Some(root.id)));
        assert!(spans.iter().all(|s| s.call == 7 && s.end >= s.start));
        let self_time = tracer.self_time_by_layer();
        let total: f64 = self_time.values().sum();
        assert!((total - root.duration()).abs() < 1e-9);
        let mut buffer = Vec::new();
        tracer.write_jsonl(&mut buffer, usize::MAX).unwrap();
        assert_eq!(String::from_utf8(buffer).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("core.dp", |_| 5);
        assert_eq!(value, 5);
        assert!(tracer.spans().is_empty());
    }
}
