//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions (the program itself is not instrumented). A span holds
//! its name, start, end, parent and the run id; spans stay in memory until
//! the run ends and are then written out as JSON lines. A layer is the part
//! of a span name before the first `.` (`core`, `sim`, `decoder`,
//! `service`, `net`, `bench`), and its self time is computed from the span
//! tree by [`self_time_by_layer`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Stage name, `<layer>.<stage>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The run every span of this tracer belongs to.
    pub run: u64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    run: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A span recorder; cheap to clone, and a no-op when disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer for run `run`.
    pub fn new(run: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                run,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.span_under(name, parent)
    }

    /// Opens a span under an explicit parent (for work handed to another
    /// thread); spans opened later on this thread nest under it.
    pub fn span_under(&self, name: &'static str, parent: Option<u64>) -> Span<'_> {
        let Some(inner) = self.inner.as_deref() else {
            return Span {
                inner: None,
                id: 0,
                parent: None,
                name,
                start: None,
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        Span {
            inner: Some(inner),
            id,
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Every span finished so far, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = match &self.inner {
            Some(inner) => inner.spans.lock().expect("span list lock").clone(),
            None => Vec::new(),
        };
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; recorded when dropped.
#[derive(Debug)]
pub struct Span<'t> {
    inner: Option<&'t Inner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Option<Instant>,
}

impl Span<'_> {
    /// The span id, for children opened on other threads (`None` when the
    /// tracer is disabled).
    pub fn id(&self) -> Option<u64> {
        self.inner.map(|_| self.id)
    }

    /// Renames the span before it closes (e.g. to mark a failed call).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (self.inner, self.start) else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let since = |t: Instant| t.duration_since(inner.epoch).as_nanos() as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: since(start),
            end_ns: since(end),
            run: inner.run,
        };
        if let Ok(mut spans) = inner.spans.lock() {
            spans.push(record);
        }
    }
}

/// The layer a span name belongs to: the text before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on other threads may overlap each
/// other, so the union is subtracted, not the sum).
pub fn self_times(spans: &[SpanRecord]) -> Vec<(&SpanRecord, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            (span, own as f64 * 1e-9)
        })
        .collect()
}

/// Total self time per layer, in seconds.
pub fn self_time_by_layer(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in self_times(spans) {
        *totals.entry(layer_of(span.name).to_string()).or_insert(0.0) += own;
    }
    totals
}

/// Number of spans named `name` and their summed duration in seconds.
pub fn total(spans: &[SpanRecord], name: &str) -> (usize, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0.0), |(n, t), s| (n + 1, t + s.secs()))
}

/// Writes the spans as JSON lines.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(spans: &[SpanRecord], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"run\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns, s.run
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            run: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_synthetic_tree() {
        // bench.phase [0, 1000) with two service children on different
        // threads that overlap in [300, 400), one net grandchild, and a
        // child running past its parent's end.
        let spans = vec![
            span(1, None, "bench.phase", 0, 1000),
            span(2, Some(1), "service.submit", 100, 400),
            span(3, Some(1), "service.submit", 300, 600),
            span(4, Some(2), "net.submit", 150, 250),
            span(5, Some(1), "decoder.decode", 900, 1200),
            span(6, None, "core.map", 2000, 2500),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|(_, secs)| (secs * 1e9).round() as u64)
            .collect();
        // phase: 1000 − |[100,600) ∪ [900,1000)| = 1000 − 600 = 400.
        assert_eq!(own, vec![400, 200, 300, 100, 300, 500]);
        let layers = self_time_by_layer(&spans);
        let ns = |layer: &str| (layers[layer] * 1e9).round() as u64;
        assert_eq!(ns("bench"), 400);
        assert_eq!(ns("service"), 500);
        assert_eq!(ns("net"), 100);
        assert_eq!(ns("decoder"), 300);
        assert_eq!(ns("core"), 500);
        // Self times of a tree of sequential children nested in their
        // parents sum to the root's duration; here the two submits overlap
        // by 100 and the decoder child overhangs its parent by 200.
        let sum: u64 = ["bench", "service", "net", "decoder"]
            .iter()
            .map(|l| ns(l))
            .sum();
        assert_eq!(sum, 1000 + 100 + 200);
    }

    #[test]
    fn recorded_spans_nest_by_thread_and_by_explicit_parent() {
        let tracer = Tracer::new(42);
        let outer_id;
        {
            let outer = tracer.span("bench.outer");
            outer_id = outer.id();
            {
                let mut inner = tracer.span("core.route");
                inner.rename("core.route_err");
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _remote = tracer.span_under("net.submit", outer_id);
                    let _nested = tracer.span("net.encode");
                });
            });
        }
        let spans = tracer.spans();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).expect(name).clone();
        let outer = by_name("bench.outer");
        assert_eq!(Some(outer.id), outer_id);
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("core.route_err").parent, Some(outer.id));
        let remote = by_name("net.submit");
        assert_eq!(remote.parent, Some(outer.id));
        assert_eq!(by_name("net.encode").parent, Some(remote.id));
        assert!(spans.iter().all(|s| s.run == 42 && s.end_ns >= s.start_ns));
        assert_eq!(total(&spans, "net.submit").0, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let span = tracer.span("core.map");
        assert_eq!(span.id(), None);
        drop(span);
        assert!(tracer.spans().is_empty());
    }
}
