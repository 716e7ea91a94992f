//! The traced mode's span recorder. Spans are opened and closed from
//! the benchmark's own files around calls into each layer's public
//! functions; the library itself is not instrumented any further.
//!
//! Each span keeps its name, host start/end (ns since the recorder was
//! created), its parent (the enclosing span on the same thread) and the
//! module/task id it worked for. Spans stay in memory until
//! [`Recorder::write_jsonl`] dumps them at exit. Self time is a span's
//! duration minus the time its children cover.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique per recorder, in opening order per thread).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.scout`.
    pub name: &'static str,
    /// Module index or task index the span worked for.
    pub task: u64,
    /// Host start, ns since the recorder was created.
    pub start_ns: u64,
    /// Host end, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Host duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    next_id: std::sync::atomic::AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: std::sync::atomic::AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name` for `task`.
    pub fn span<R>(&self, name: &'static str, task: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            task,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every closed span so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Host durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Σ host ns over spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans().iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
    }

    /// Writes the spans as JSONL (one object per span, with self time).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = String::new();
        for (span, own) in spans.iter().zip(&self_ns) {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"task\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{}}}\n",
                span.id,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.name,
                span.task,
                span.start_ns,
                span.end_ns,
                own,
            ));
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.as_ref().and_then(|p| index.get(p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(span.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", task: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            // Overlaps child 2: the overlap is covered once.
            span(3, Some(1), 20, 50),
            span(4, Some(3), 25, 35),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 10]);
    }

    #[test]
    fn nested_spans_record_parents_per_thread() {
        let rec = Recorder::default();
        rec.span("outer", 7, || {
            rec.span("inner", 7, || ());
            std::thread::scope(|s| {
                s.spawn(|| rec.span("other-thread", 8, || ()));
            });
        });
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let other = spans.iter().find(|s| s.name == "other-thread").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(other.parent, None, "a span on another thread has no parent here");
        assert_eq!((outer.task, other.task), (7, 8));
        assert!(outer.dur_ns() >= inner.dur_ns());
    }
}
