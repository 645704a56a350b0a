//! # chaos — randomized scenarios, fault injection and an online auditor
//!
//! The paper's whole claim is that the protocol stays reliable and totally
//! ordered *under mobility and failure* — yet a hand-written scenario only
//! exercises the failures its author thought of. This crate turns the
//! [`MulticastSim`](ringnet_core::driver::MulticastSim) facade into a
//! property-based testing rig:
//!
//! * [`gen`] — a seeded **scenario generator** that samples valid random
//!   [`Scenario`](ringnet_core::driver::Scenario)s: grid shape, walker
//!   counts, traffic pattern, link profiles (incl. Gilbert–Elliott bursty
//!   wireless), handoff schedules, late joins, and a fault schedule drawn
//!   from the full repertoire (walker/core kills, core kill → restart →
//!   ring-rejoin cycles, AP crash + restart, wired-core partitions with
//!   heal, forced token loss), in four sizes ([`SoakTier`]) up to an
//!   opt-in production-scale stress tier and a massive tier (thousands of
//!   walkers).
//! * [`audit`] — an **auditor** fed one protocol event at a time (today
//!   from a run's retained journal, in one batch pass) that checks, per
//!   delivery, total-order agreement across members, gap-freedom per
//!   stream modulo recorded skips, duplicate-free GSN assignment, and
//!   post-fault liveness windows — reporting the *first* violation with
//!   full context.
//! * [`mod@shrink`] — a delta-debugging **shrinker** that minimizes a failing
//!   scenario by deleting events and truncating the run window while the
//!   failure still reproduces.
//! * [`postmortem`] — **flight-recorder dumps** for convicted seeds: the
//!   shrunk reproduction is re-run with the deterministic telemetry layer
//!   forced on (journal byte-identity guarantees the re-run *is* the
//!   convicted run) and every per-node recorder is serialised next to the
//!   violation into one JSON document (`flight_recorder_<backend>_
//!   <seed>.json`).
//! * [`soak`] — the generate → run → audit → (on failure) shrink loop over
//!   every backend, plus the cross-backend **delivery-set equivalence**
//!   audit ([`check_equivalence`]): on loss-free, fault-free worlds all
//!   six backends must deliver *identical* per-walker message sets. Both
//!   are driven by the `chaos_soak` binary:
//!
//! ```text
//! cargo run --release -p ringnet-chaos --bin chaos_soak -- --seeds 200
//! cargo run --release -p ringnet-chaos --bin chaos_soak -- --seed 1337   # reproduce
//! ```
//!
//! Determinism contract: `(ChaosConfig, seed)` fully determines the
//! scenario, and `(scenario, seed)` fully determines every backend's run,
//! so a failing seed printed by the soak reproduces exactly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod gen;
pub mod postmortem;
pub mod shrink;
pub mod soak;

pub use audit::{AuditConfig, AuditReport, Auditor, LivenessCheck, Violation, ViolationKind};
pub use gen::{generate, ChaosConfig, SoakTier};
pub use postmortem::{dump_json, failure_dump, write_dump};
pub use shrink::shrink;
pub use soak::{
    audit_scenario_run, check_equivalence, delivery_sets, equivalence_scenario,
    ne_skips_delivered_elsewhere, soak_seed, Backend, EquivalenceFailure, SoakFailure, SoakOutcome,
};
