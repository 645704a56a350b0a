//! # ringnet-bench — experiment runner and work-counter gate
//!
//! * the **`experiments` binary** (`cargo run --release -p ringnet-bench
//!   --bin experiments [-- quick] [-- <id>…]`) regenerates every
//!   table/figure of the paper's evaluation (DESIGN.md §4) and prints the
//!   result tables recorded in EXPERIMENTS.md;
//! * the **`hotpath` binary** runs the two flagship workloads under the
//!   counting allocator and prints allocations, wired-core control
//!   messages and wire packets per delivery; `hotpath -- check` fails when
//!   one exceeds its pinned ceiling;
//! * the library: [`alloc`] (the counting allocator), [`micro`] (a
//!   min-of-samples timer) and [`suites`] (the `datastructures` loops and
//!   the `hotpath` workloads), which the `benchmark` package (`ringbench/`)
//!   imports. Performance is measured by that benchmark; its results, one
//!   entry per PR, are kept in `BENCH_ringnet.json`.

#![warn(missing_docs)]

pub mod alloc;
pub mod micro;
pub mod suites;
