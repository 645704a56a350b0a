//! `cargo bench -p ringnet-bench --bench datastructures`
//!
//! Microbenchmarks of the paper's data structures (§4.1) on the in-repo
//! micro harness, one line per loop on stderr: the loops the benchmark's
//! `core.{token,wq,mq,wt}` metrics read.

fn main() {
    let mut r = ringnet_bench::micro::Runner::new().samples(20);
    ringnet_bench::suites::datastructures(&mut r);
}
