//! # baselines — comparator protocols for the RingNet reproduction
//!
//! The paper positions RingNet against three families of prior schemes
//! (§2); none are available as artifacts, so this crate re-implements them
//! in spirit on the same simulator (DESIGN.md §2):
//!
//! * [`flat_ring`] — a *single* logical ring over every base station
//!   (Nikolaidis & Harms, the paper's \[16\]): the RingNet engine on the
//!   station shape (no AG rings, no APs, every top-ring node a hybrid
//!   station), isolating the structural cost of one big ring (token
//!   rotation and buffers grow with N). Used by E1, E7.
//! * [`unordered`] — RingNet without total ordering (the Theorem 5.1
//!   comparator and Remark 3's recommendation): per-source FIFO streams on
//!   the same `HierarchySpec` — RingNet's entities, addresses and links,
//!   no token. Used by T1, E4.
//! * [`tree`] — MIP-RS-style shortest-path-tree multicast with rebuild on
//!   handoff: the RingNet engine on a degenerate (rings-of-one) spec. Used
//!   by E6.
//! * [`tunnel`] — MIP-BT-style home-agent tunnelling: cheap handoffs, one
//!   wired unicast per MH per message. Used by E6.
//! * [`relm`] — RelM-style centralized supervisor host: sequencing,
//!   buffering and per-member feedback all concentrated in one entity.
//!   Used by E8.
//!
//! Two world shapes, two assemblies. The ring comparators and the
//! unordered one live on the *hierarchy* shape, whose creation order and
//! wiring rule are [`ringnet_core::HierarchySpec`]'s; tunnel and RelM live
//! on one *star* (hub, an edge per attachment, one source, placed MHs)
//! assembled in this crate. The three baselines that speak their own
//! message type share one simulator-plus-teardown skeleton, so each file
//! holds its actors, its `build(&Scenario)` and its `schedule`.
//!
//! Every comparator implements the protocol-generic
//! [`ringnet_core::driver::MulticastSim`] trait — a
//! [`ringnet_core::driver::Scenario`] is the only way to build one — so one
//! scenario drives RingNet and all five baselines through identical glue:
//!
//! ```
//! use baselines::{FlatRingSim, UnorderedSim};
//! use ringnet_core::driver::{MulticastSim, ScenarioBuilder};
//! use ringnet_core::engine::RingNetSim;
//! use simnet::{SimDuration, SimTime};
//!
//! let scenario = ScenarioBuilder::new()
//!     .attachments(4)
//!     .cbr(SimDuration::from_millis(20))
//!     .message_limit(5)
//!     .loss_free_wireless()
//!     .duration(SimTime::from_secs(2))
//!     .build();
//! for report in [
//!     RingNetSim::run_scenario(&scenario, 7),
//!     FlatRingSim::run_scenario(&scenario, 7),
//!     UnorderedSim::run_scenario(&scenario, 7),
//! ] {
//!     assert_eq!(report.metrics.order_violations, 0);
//!     assert!(report.metrics.delivered > 0);
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flat_ring;
pub mod relm;
mod source;
pub mod tree;
pub mod tunnel;
pub mod unordered;
mod world;

pub use flat_ring::FlatRingSim;
pub use relm::RelmSim;
pub use tree::{
    remote_subscription_spec, ringnet_smooth_spec, tree_churn, wired_control_messages, TreeSim,
};
pub use tunnel::TunnelSim;
pub use unordered::UnorderedSim;
