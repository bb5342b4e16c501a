//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span holds name, start, end, parent and request id, plus counts
//! attached where they were measured (launch counters, `exec` pool
//! deltas, `obs` snapshot deltas). Phase spans are laid end to end
//! inside their call span from the phase wall times the program already
//! returns in `QueryReport::breakdown`. Spans stay in memory and are
//! written out as JSON lines when the run ends. A span's self time is
//! its duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `intersects.backward`.
    pub name: &'static str,
    /// Request the span belongs to (shared by all spans of a request).
    pub request: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Counts measured at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The value of count `key`, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |c| c.1)
    }
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Lays `phases` end to end from the start of span `parent`.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        let request = self.spans[parent].request;
        let mut at = self.spans[parent].start_ns;
        for &(name, d) in phases {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                request,
                parent: Some(parent),
                start_ns: at,
                end_ns: end,
                counts: Vec::new(),
            });
            at = end;
        }
    }

    /// Attaches a count to span `span`.
    pub fn count(&mut self, span: usize, key: &'static str, value: u64) {
        self.spans[span].counts.push((key, value));
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Self times (ms) of the spans named `name`: duration minus the
    /// summed durations of their children.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Sum of count `key` over the spans named `name`.
    pub fn total(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }

    /// Writes the spans as JSON lines (one object per span; `id` is the
    /// span's index).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        let call = t.span("call", 0, None, t0, t0 + Duration::from_millis(10));
        t.phases(
            call,
            &[
                ("a", Duration::from_millis(3)),
                ("b", Duration::from_millis(4)),
            ],
        );
        assert_eq!(t.self_ms("call"), vec![3.0]);
        assert_eq!(t.durations_ms("b"), vec![4.0]);
        let b = t.named("b").next().unwrap();
        assert_eq!((b.start_ns, b.end_ns), (3_000_000, 7_000_000));
    }
}
