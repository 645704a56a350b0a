//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each layer boundary —
//! around calls into the library's public functions — so nothing in the
//! simulated path learns about wall clocks. They are kept in memory and
//! written as JSON lines when the run ends. End-to-end metrics never come
//! from a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.engine.run_slice`.
    pub name: &'static str,
    /// Identifier, unique within the trace.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Work counted at this boundary (e.g. the `SimStats` delta of a slice).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span. `f` may open further spans and attach counts.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, n: u64) {
        let id = *self.open.last().expect("count outside any span");
        self.spans[id as usize].counts.push((key, n));
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name.
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Self time per span name: duration minus the part its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration_ns() - children[s.id as usize];
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"workload\": \"{workload}\"",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
            for (k, v) in &s.counts {
                write!(out, ", \"{k}\": {v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.count("events", 3);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("events", 3)]);
        let total = t.total_ns();
        let own = t.self_ns();
        assert_eq!(own["inner"], total["inner"]);
        assert_eq!(own["outer"], total["outer"] - total["inner"]);
        assert!(total["inner"] >= 2_000_000);
    }
}
