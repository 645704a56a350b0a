//! Parallel replica execution.
//!
//! Experiments sweep protocol and workload parameters over many independent,
//! deterministic simulation replicas. Replicas share nothing, so the natural
//! parallelisation is fan-out across `std::thread::scope` workers, each
//! owning a contiguous chunk of the output vector (`chunks_mut` hands every
//! worker a disjoint `&mut` slice — no locks, no result shuffling). Results
//! return in input order regardless of completion order, so a parallel sweep
//! is indistinguishable from a sequential one.

/// Run `job(i, &inputs[i])` for every input, in parallel, returning outputs
/// in input order.
///
/// `job` must be deterministic per input for reproducible sweeps (all
/// simulations in this workspace are). Threads default to the available
/// parallelism, capped by the number of inputs.
pub fn run_replicas<I, O, F>(inputs: &[I], threads: usize, job: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads, n);
    if threads <= 1 {
        return inputs.iter().enumerate().map(|(i, x)| job(i, x)).collect();
    }

    let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    let job = &job;

    std::thread::scope(|scope| {
        for (t, out) in results.chunks_mut(chunk).enumerate() {
            let start = t * chunk;
            scope.spawn(move || {
                for (off, slot) in out.iter_mut().enumerate() {
                    let i = start + off;
                    *slot = Some(job(i, &inputs[i]));
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("every chunk filled its slots"))
        .collect()
}

/// Resolve a thread-count request: `0` means "use available parallelism".
pub(crate) fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..64).collect();
        let outputs = run_replicas(&inputs, 8, |_, &x| x * x);
        assert_eq!(outputs, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches_parallel() {
        let inputs: Vec<u64> = (0..40).collect();
        let seq = run_replicas(&inputs, 1, |i, &x| (i as u64) ^ x.wrapping_mul(31));
        let par = run_replicas(&inputs, 4, |i, &x| (i as u64) ^ x.wrapping_mul(31));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let outputs: Vec<u32> = run_replicas(&[] as &[u32], 4, |_, &x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn index_is_passed_through() {
        let inputs = vec!["a", "b", "c"];
        let outputs = run_replicas(&inputs, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(outputs, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(5, 0), 1);
    }

    #[test]
    fn heavier_parallel_load() {
        // Simulation-shaped job: a deterministic pseudo-random walk.
        let inputs: Vec<u64> = (0..128).collect();
        let job = |_: usize, &seed: &u64| {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut acc = 0u64;
            for _ in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            acc
        };
        let seq: Vec<u64> = inputs.iter().enumerate().map(|(i, x)| job(i, x)).collect();
        let par = run_replicas(&inputs, 0, job);
        assert_eq!(seq, par);
    }
}
