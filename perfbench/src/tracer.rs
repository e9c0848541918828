//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name (the layer), a start and end in nanoseconds since
//! the tracer was made, the span that was open on the same thread when
//! it started (its parent), and a run id shared by every span of one
//! operation. Spans stay in memory until [`Tracer::write_jsonl`] writes
//! them out when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span store shared by every thread of a traced pass.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` for operation `run`.
    pub fn span<R>(&self, name: &'static str, run: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            run,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Move the recorded spans out, leaving the store empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// [`Tracer::span`] when a tracer is given, else just `f`.
pub fn maybe_span<R>(t: Option<&Tracer>, name: &'static str, run: u64, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, run, f),
        None => f(),
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part its direct children cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Write spans as JSON lines, one span per line, tagged with `pass`.
pub fn write_jsonl(path: &Path, passes: &[(usize, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                run: 0,
                name: "op",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                run: 0,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: Some(2),
                run: 0,
                name: "b",
                start_ns: 20,
                end_ns: 30,
            },
        ];
        let s = self_seconds(&spans);
        assert_eq!(s["op"], 70e-9);
        assert_eq!(s["a"], 20e-9);
        assert_eq!(s["b"], 10e-9);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new();
        t.span("outer", 7, || t.span("inner", 7, || ()));
        let spans = t.take();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(t.take().is_empty());
    }
}
