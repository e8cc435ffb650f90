//! In-memory span recording around calls into the library's layers.
//!
//! The benchmark wraps each layer call in a span (name, start, end,
//! parent); nothing inside the library is instrumented. A span's name is
//! `<layer>.<operation>`, and a layer's **self time** is the time its
//! spans cover minus the part covered by their child spans. Spans are
//! kept in memory and written out once, when the run ends. A disabled
//! tracer records nothing and costs one branch per span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span's identifier; [`ROOT`] is "no parent".
pub type SpanId = u64;

/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

/// One recorded span, with times in ns since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id (ids are unique within a tracer, starting at 1).
    pub id: SpanId,
    /// The causing span, or [`ROOT`].
    pub parent: SpanId,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer when `enabled`, else a no-op one.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to parent its own children. Returns `f`'s
    /// result.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (clipped to its own), so overlapping children — spans of
/// concurrent threads under one parent — are not subtracted twice.
/// Returned parallel to `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = index.get(&span.parent) {
            let parent = &spans[p];
            let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| span.duration_ns() - covered(&mut kids))
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time summed per layer, in layer order of first appearance.
pub fn layer_self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(layer, _)| *layer == span.layer()) {
            Some((_, total)) => *total += own,
            None => out.push((span.layer(), own)),
        }
    }
    out
}

/// The spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}
