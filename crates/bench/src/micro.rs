//! A small, dependency-free micro-benchmark harness.
//!
//! Not a criterion replacement — no statistics beyond min/mean over a fixed
//! number of timed samples — but deterministic in shape, fast enough for
//! CI, and sufficient to track the perf trajectory of this workspace in
//! `BENCH_ringnet.json`.

use std::time::Instant;

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group the benchmark belongs to (e.g. "mq").
    pub group: String,
    /// Benchmark name (e.g. "insert_poll_inorder").
    pub name: String,
    /// Samples actually timed.
    pub samples: u32,
    /// Best sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Mean over samples, nanoseconds per iteration.
    pub mean_ns: f64,
    /// Optional elements-per-iteration (yields throughput).
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Elements per second at the mean sample, if a throughput was set.
    pub fn throughput(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 / (self.mean_ns / 1e9))
    }
}

/// Collects benchmark results; the drop-in replacement for a criterion
/// `Criterion` in this workspace.
pub struct Runner {
    /// All results in run order.
    pub results: Vec<BenchResult>,
    samples: u32,
    quiet: bool,
}

impl Runner {
    /// A runner with the default sample count (10).
    pub fn new() -> Self {
        Runner {
            results: Vec::new(),
            samples: 10,
            quiet: false,
        }
    }

    /// Override the number of timed samples per benchmark.
    pub fn samples(mut self, n: u32) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Suppress per-benchmark stderr lines (for the JSON emitter).
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Time `f` (one call = one iteration); `elements` turns the result
    /// into a throughput. `f` returns a value to keep the optimizer honest.
    pub fn bench<T>(
        &mut self,
        group: &str,
        name: &str,
        elements: Option<u64>,
        mut f: impl FnMut() -> T,
    ) {
        // One warmup iteration, then `samples` timed iterations.
        std::hint::black_box(f());
        let mut total = 0.0f64;
        let mut min = f64::INFINITY;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let ns = t0.elapsed().as_nanos() as f64;
            total += ns;
            min = min.min(ns);
        }
        let r = BenchResult {
            group: group.to_string(),
            name: name.to_string(),
            samples: self.samples,
            min_ns: min,
            mean_ns: total / self.samples as f64,
            elements,
        };
        if !self.quiet {
            eprintln!("{}", render(&r));
        }
        self.results.push(r);
    }

    /// Render every result as an aligned text table.
    pub fn report(&self) -> String {
        self.results.iter().map(|r| render(r) + "\n").collect()
    }

    /// Serialise all results as the `BENCH_ringnet.json` document.
    pub fn to_json(&self) -> String {
        self.to_json_with_hotpath(&[])
    }

    /// [`Runner::to_json`] plus the hot-path section (`allocs_per_delivery`
    /// and the host-independent sim-clock latency, NACK rate, control and
    /// packet counts next to wall time, one row per flagship scenario —
    /// empty slice omits the section entirely).
    pub fn to_json_with_hotpath(&self, hotpath: &[crate::suites::HotpathRow]) -> String {
        use harness::report::json;
        let mut out = String::from("{\n  \"schema\": \"ringnet-bench/v2\",\n  \"benches\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 < self.results.len() { "," } else { "" };
            let tput = r
                .throughput()
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "    {{\"group\": {}, \"name\": {}, \"samples\": {}, \"min_ns\": {:.0}, \"mean_ns\": {:.0}, \"elements\": {}, \"throughput_per_sec\": {}}}{sep}\n",
                json::string(&r.group),
                json::string(&r.name),
                r.samples,
                r.min_ns,
                r.mean_ns,
                r.elements.map(|e| e.to_string()).unwrap_or_else(|| "null".into()),
                tput,
            ));
        }
        out.push_str("  ]");
        if !hotpath.is_empty() {
            out.push_str(",\n  \"hotpath\": [\n");
            for (i, h) in hotpath.iter().enumerate() {
                let sep = if i + 1 < hotpath.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"name\": {}, \"wall_ms\": {:.2}, \"delivered\": {}, \
                     \"allocs_per_delivery\": {:.3}, \"alloc_bytes_per_delivery\": {:.1}, \
                     \"latency_p50_ms\": {:.3}, \"latency_p999_ms\": {:.3}, \
                     \"nacks_per_delivery\": {:.4}, \"control_per_delivery\": {:.4}, \
                     \"packets_per_delivery\": {:.4}}}{sep}\n",
                    json::string(&h.name),
                    h.wall_ms,
                    h.delivered,
                    h.allocs_per_delivery,
                    h.alloc_bytes_per_delivery,
                    h.latency_p50_ms,
                    h.latency_p999_ms,
                    h.nacks_per_delivery,
                    h.control_per_delivery,
                    h.packets_per_delivery,
                ));
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

fn render(r: &BenchResult) -> String {
    let label = format!("{}/{}", r.group, r.name);
    match r.throughput() {
        Some(t) => format!(
            "{label:<44} {:>12} ns/iter (min {:>12} ns, {:.1} Melem/s)",
            fmt_ns(r.mean_ns),
            fmt_ns(r.min_ns),
            t / 1e6
        ),
        None => format!(
            "{label:<44} {:>12} ns/iter (min {:>12} ns)",
            fmt_ns(r.mean_ns),
            fmt_ns(r.min_ns)
        ),
    }
}

fn fmt_ns(ns: f64) -> String {
    format!("{:.0}", ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_times_and_reports() {
        let mut r = Runner::new().samples(3).quiet();
        r.bench("demo", "sum", Some(1000), || (0..1000u64).sum::<u64>());
        assert_eq!(r.results.len(), 1);
        let b = &r.results[0];
        assert!(b.mean_ns >= b.min_ns);
        assert!(b.throughput().unwrap() > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"group\": \"demo\""));
        assert!(json.contains("ringnet-bench/v2"));
        assert!(!json.contains("hotpath"), "empty hotpath omits the section");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(r.report().contains("demo/sum"));
    }

    #[test]
    fn hotpath_section_renders() {
        let mut r = Runner::new().samples(1).quiet();
        r.bench("demo", "sum", None, || 1u64);
        let rows = vec![crate::suites::HotpathRow {
            name: "flagship".into(),
            wall_ms: 12.0,
            delivered: 1000,
            allocs_per_delivery: 0.119,
            alloc_bytes_per_delivery: 166.0,
            latency_p50_ms: 22.5,
            latency_p999_ms: 34.5,
            nacks_per_delivery: 0.0,
            control_per_delivery: 0.0485,
            packets_per_delivery: 1.7926,
        }];
        let json = r.to_json_with_hotpath(&rows);
        assert!(json.contains("\"hotpath\": ["));
        assert!(json.contains("\"allocs_per_delivery\": 0.119"));
        assert!(json.contains("\"latency_p50_ms\": 22.500, \"latency_p999_ms\": 34.500"));
        assert!(json.contains(
            "\"nacks_per_delivery\": 0.0000, \"control_per_delivery\": 0.0485, \
             \"packets_per_delivery\": 1.7926"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
