//! Run the whole benchmark suite once and write the machine-readable
//! `BENCH_ringnet.json` perf-trajectory document.
//!
//! ```text
//! cargo run --release -p ringnet-bench --bin bench_report [-- [quick] [<path>]]
//! ```
//!
//! Defaults to `BENCH_ringnet.json` in the current directory and 5 timed
//! samples per benchmark. `quick` drops to a single sample — the CI smoke
//! mode that exercises every bench path without asserting timings.
//!
//! The process runs under [`ringnet_bench::alloc::CountingAlloc`], so the
//! hot-path section at the end of the document carries real
//! `allocs_per_delivery` numbers next to wall time — and, per flagship
//! scenario, the sim-clock `latency_p50_ms` / `latency_p999_ms`,
//! `nacks_per_delivery`, `control_per_delivery` and `packets_per_delivery`:
//! the protocol's own numbers, the same on any host.

#[global_allocator]
static ALLOC: ringnet_bench::alloc::CountingAlloc = ringnet_bench::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let path = args
        .iter()
        .find(|a| a.as_str() != "quick")
        .cloned()
        .unwrap_or_else(|| "BENCH_ringnet.json".to_string());
    let samples = if quick { 1 } else { 5 };
    let mut r = ringnet_bench::micro::Runner::new().samples(samples);
    eprintln!("datastructures suite…");
    ringnet_bench::suites::datastructures(&mut r);
    eprintln!("simulation suite…");
    ringnet_bench::suites::simulation(&mut r);
    eprintln!("full_sweep suite…");
    ringnet_bench::suites::full_sweep(&mut r);
    eprintln!("experiments (quick) suite…");
    ringnet_bench::suites::experiments(&mut r);
    eprintln!("hotpath allocation audit…");
    let hotpath = ringnet_bench::suites::hotpath_scenarios();
    std::fs::write(&path, r.to_json_with_hotpath(&hotpath)).expect("write bench json");
    eprintln!(
        "wrote {path} ({} benches, {} hotpath rows)",
        r.results.len(),
        hotpath.len()
    );
}
