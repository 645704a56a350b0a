//! A small, dependency-free micro-benchmark harness: the best of a fixed
//! number of timed samples per loop. The `benchmark` package (`ringbench/`)
//! reads its `min_ns` rows as per-layer metrics; wall time is never
//! asserted.

use std::time::Instant;

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group the benchmark belongs to (e.g. "mq").
    pub group: String,
    /// Benchmark name (e.g. "steady_state_window").
    pub name: String,
    /// Best sample, nanoseconds per iteration.
    pub min_ns: f64,
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

    /// Suppress the per-benchmark stderr lines.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Time `f` (one call = one iteration). `f` returns a value to keep
    /// the optimizer honest.
    pub fn bench<T>(&mut self, group: &str, name: &str, mut f: impl FnMut() -> T) {
        // One warmup iteration, then `samples` timed iterations.
        std::hint::black_box(f());
        let mut min = f64::INFINITY;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            min = min.min(t0.elapsed().as_nanos() as f64);
        }
        if !self.quiet {
            let label = format!("{group}/{name}");
            eprintln!("{label:<44} {min:>12.0} ns/iter (min)");
        }
        self.results.push(BenchResult {
            group: group.to_string(),
            name: name.to_string(),
            min_ns: min,
        });
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_times_and_reports() {
        let mut r = Runner::new().samples(3).quiet();
        r.bench("demo", "sum", || (0..1000u64).sum::<u64>());
        assert_eq!(r.results.len(), 1);
        assert_eq!(
            (r.results[0].group.as_str(), r.results[0].name.as_str()),
            ("demo", "sum")
        );
        assert!(r.results[0].min_ns.is_finite());
    }
}
