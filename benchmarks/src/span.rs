//! In-memory span recorder for the traced repetition.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! public call into a layer: name, start, end, the span that caused it and
//! the query they all belong to. Nothing is written until the run ends. A
//! disabled tracer reads no clock and stores nothing, so the untraced
//! repetitions pay one branch per boundary.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`crypto.channel_seal`).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The user query this span worked for.
    pub query: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Self time and call count of every span name.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, query: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span. Spans close in the reverse order they were opened.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = now;
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span (between repetitions).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with a span still open");
        self.spans.clear();
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover, summed by name, with the number of spans.
///
/// Children of one parent never overlap here (one thread opens and closes
/// them in order), so the covered part is the plain sum of their durations
/// and the self times of a tree add up to its root's duration exactly.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut by_name = SelfTimes::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = by_name.entry(span.name).or_insert((0, 0));
        entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
        entry.1 += 1;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 7,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // query [0,100] ── plan [10,30] ── ecall [12,20]
        //               ├─ seal [40,50]
        //               └─ seal [60,75]
        let spans = [
            span("query", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            span("ecall", 12, 20, Some(1)),
            span("seal", 40, 50, Some(0)),
            span("seal", 60, 75, Some(0)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["query"], (100 - 20 - 10 - 15, 1));
        assert_eq!(
            times["plan"],
            (20 - 8, 1),
            "grandchild is not subtracted twice"
        );
        assert_eq!(times["ecall"], (8, 1));
        assert_eq!(times["seal"], (25, 2), "siblings of one name add up");
        let total: u64 = times.values().map(|(ns, _)| ns).sum();
        assert_eq!(total, 100, "self times of a tree sum to its root");
    }

    #[test]
    fn tracer_links_parents_and_shares_the_query_id() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("query", 3);
        let child = tracer.begin("plan", 3);
        tracer.end(child);
        let sibling = tracer.begin("seal", 3);
        tracer.end(sibling);
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.query == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        tracer.clear();
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("query", 1);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }
}
