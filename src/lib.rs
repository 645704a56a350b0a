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
//! A [`Scenario`](core::driver::Scenario) describes the world; the RingNet
//! backend lays it out as a [`HierarchySpec`](core::HierarchySpec) and
//! runs it, taking faults as [`ScenarioEvent`](core::driver::ScenarioEvent)s
//! — here the crash of the second wired-core entity, a top-ring BR:
//!
//! ```
//! use ringnet_repro::core::driver::{ringnet_spec, MulticastSim, ScenarioBuilder, ScenarioEvent};
//! use ringnet_repro::core::{GroupId, RingNetSim};
//! use ringnet_repro::simnet::{SimDuration, SimTime};
//!
//! let scenario = ScenarioBuilder::figure1(GroupId(1))
//!     .cbr(SimDuration::from_millis(20))
//!     .message_limit(10)
//!     .build();
//! let spec = ringnet_spec(&scenario);
//! assert_eq!(spec.tier_sizes(), (4, 9, 9, 9));
//! let mut net = RingNetSim::for_scenario(spec, &scenario, 1);
//! net.schedule(ScenarioEvent::KillCore { at: SimTime::from_secs(1), index: 1 });
//! net.run_until(SimTime::from_secs(2));
//! let report = net.finish();
//! assert!(!report.journal.is_empty());
//! ```

#![warn(missing_docs)]

pub use baselines;
pub use chaos;
pub use harness;
pub use mobility;
pub use ringnet_core as core;
pub use simnet;
