//! # ringbench — the RingNet benchmark
//!
//! The ruler `/BENCHMARK.json` names: four workloads, ten end-to-end
//! metrics on two clocks (host time and simulated time), and a traced run
//! that attributes cost to layers. See `README.md` next to this crate.

#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod hosttime;
pub mod json;
pub mod layers;
pub mod measure;
pub mod simstats;
pub mod trace;
pub mod workloads;
