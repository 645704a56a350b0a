//! # ringnet-repro — reproduction of the RingNet protocol (ICPPW 2004)
//!
//! Umbrella crate for *Wang, Cao, Chan — "A Reliable Totally-Ordered Group
//! Multicast Protocol for Mobile Internet"*. It re-exports the workspace
//! crates and hosts the runnable examples and the cross-crate integration
//! tests.
//!
//! * [`core`] (`ringnet-core`) — the RingNet protocol: hierarchy, ordering
//!   token, reliable forwarding/delivery, mobility, recovery, and the
//!   Theorem 5.1 analytical model.
//! * [`simnet`] — the deterministic discrete-event network simulator.
//! * [`mobility`] — synthetic movement models and handoff traces.
//! * [`baselines`] — flat logical ring, unordered RingNet, tree multicast,
//!   home-agent tunnelling.
//! * [`harness`] — metrics, scenarios and the experiment suite
//!   (EXPERIMENTS.md).
//! * [`chaos`] — randomized scenario generation, the expanded fault
//!   repertoire, the online total-order/reliability auditor and the
//!   `chaos_soak` property-testing binary.
//!
//! ```
//! use ringnet_repro::core::{HierarchyBuilder, GroupId, RingNetSim, TrafficPattern};
//! use ringnet_repro::simnet::{SimDuration, SimTime};
//!
//! let spec = HierarchyBuilder::new(GroupId(1))
//!     .source_pattern(TrafficPattern::Cbr { interval: SimDuration::from_millis(20) })
//!     .source_limit(10)
//!     .build();
//! let mut net = RingNetSim::build(spec, 1);
//! net.run_until(SimTime::from_secs(2));
//! let (journal, ..) = net.finish();
//! assert!(!journal.is_empty());
//! ```

#![warn(missing_docs)]

pub use baselines;
pub use chaos;
pub use harness;
pub use mobility;
pub use ringnet_core as core;
pub use simnet;
