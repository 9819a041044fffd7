//! In-memory spans recorded around calls into the library's public
//! functions. Nothing inside the program is instrumented: every span is
//! opened and closed by the benchmark's own replay code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `module.step` (or `cmd.*` for a replayed command root).
    pub name: &'static str,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Per-command id for serve spans; 0 for batch spans.
    pub id: u64,
}

/// Span recorder. Spans nest through [`Tracer::span`]; phases a call
/// reports about itself (e.g. `DiscoveryStats`) are attached as children
/// with [`Tracer::phase`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Attach a closed child span of `len` starting at `at` to the open
    /// span — a phase the enclosing call timed itself.
    pub fn phase(&mut self, name: &'static str, at: Instant, len: Duration) {
        let start = at.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            start,
            end: start + len,
            parent: self.open.last().copied(),
            id: 0,
        });
    }

    /// Self time (duration minus the time covered by direct children)
    /// and span count per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end.saturating_sub(s.start).saturating_sub(child_time[i]);
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Total duration of the root spans whose name starts with `prefix`.
    pub fn root_time(&self, prefix: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name.starts_with(prefix))
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start).as_secs_f64())
            .collect()
    }

    /// JSONL dump: one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", 0, |t| {
            t.span("child", 0, |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let st = t.self_times();
        assert!(st["child"].0 >= Duration::from_millis(5));
        assert!(st["root"].0 >= Duration::from_millis(2));
        assert!(st["root"].0 < Duration::from_millis(5));
        assert_eq!(t.root_time("ro"), t.spans[0].end - t.spans[0].start);
    }
}
