//! # ringnet-core — the RingNet totally-ordered group multicast protocol
//!
//! Reproduction of *Wang, Cao, Chan — "A Reliable Totally-Ordered Group
//! Multicast Protocol for Mobile Internet" (ICPP Workshops 2004)*.
//!
//! The RingNet model organises the network into four tiers — Border
//! Routers, Access Gateways, Access Proxies and Mobile Hosts — with the
//! upper two tiers arranged into logical rings (see [`hierarchy`]). On top
//! of that distribution vehicle the protocol provides reliable,
//! totally-ordered multicast:
//!
//! * an `OrderingToken` circulates the top ring assigning global sequence
//!   numbers ([`token`], [`ordering`]);
//! * every entity reliably forwards ordered messages along its ring and
//!   down the tree, and APs deliver them to mobile hosts over lossy
//!   wireless links, *even across handoffs* ([`forwarding`],
//!   [`delivering`], [`mh`]);
//! * reliability is local-scope and best-effort: per-hop NACK/ACK with a
//!   bounded retry budget; a message whose budget is exhausted is "really
//!   lost" and skipped consistently ([`retransmit`], [`mq`]);
//! * token loss and multiple-token hazards are repaired from the per-node
//!   token snapshots ([`recovery`]);
//! * membership, liveness, ring repair and leader failover are provided by
//!   the membership layer the paper assumes ([`membership`]), with every
//!   ring-membership transition routed through an explicit per-ring
//!   lifecycle state machine ([`ring_lifecycle`]) that also models the
//!   re-entry of restarted BRs/AGs into their repaired rings;
//! * ring epochs are a first-class ordering layer ([`ring_epoch`]): an
//!   `EpochFence` owns token admission and every epoch bump, and a
//!   deterministic primary-component rule lets the majority side of a
//!   partitioned ordering ring keep assigning while the fenced minority
//!   queues, then merges back after the heal;
//! * multi-group scenarios shard the ordering layer into one token ring
//!   per group; messages addressed to a group *set* are serialized by the
//!   cross-group fence ([`fence`]) so co-addressed messages deliver in the
//!   same relative order at every common subscriber.
//!
//! The protocol logic is entirely sans-IO: state machines consume events
//! and emit [`actions::Action`]s, making every algorithm unit-testable.
//! [`engine`] instantiates whole hierarchies as deterministic `simnet`
//! simulations, [`analysis`] evaluates Theorem 5.1's closed forms for
//! comparison against measurements, and [`driver`] provides the
//! protocol-generic facade (a [`Scenario`] description + the
//! [`MulticastSim`] trait + a [`RunReport`]) that RingNet and every
//! comparator baseline implement, with [`metrics`] summarising journals
//! uniformly across protocols.
//!
//! ## Quick start
//!
//! ```
//! use ringnet_core::driver::{ringnet_spec, CoreShape, MulticastSim, ScenarioBuilder};
//! use ringnet_core::engine::RingNetSim;
//! use ringnet_core::ids::GroupId;
//! use simnet::{SimDuration, SimTime};
//!
//! // The paper's Figure 1 topology, 100 msg/s source, 2 simulated seconds.
//! let scenario = ScenarioBuilder::figure1(GroupId(1))
//!     .cbr(SimDuration::from_millis(10))
//!     .message_limit(50)
//!     .duration(SimTime::from_secs(2))
//!     .build();
//! // Figure 1 is a preset of the regular hierarchy shape: 4 BRs over 3 AG
//! // rings of 3 AGs, one attachment (AP) per AG.
//! let shape = CoreShape::Hierarchy { brs: 4, rings: 3, ags_per_ring: 3 };
//! assert_eq!(scenario.shape, shape);
//! assert_eq!(ringnet_spec(&scenario).tier_sizes(), (4, 9, 9, 9));
//! let report = RingNetSim::run_scenario(&scenario, 42);
//! assert!(report.stats.packets_delivered > 0);
//! assert!(report.metrics.delivered > 0);
//! assert_eq!(report.metrics.order_violations, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod actions;
pub mod analysis;
pub mod config;
pub mod delivering;
pub mod driver;
pub mod engine;
pub mod events;
pub mod fence;
pub mod forwarding;
pub mod hierarchy;
pub mod ids;
pub mod membership;
pub mod metrics;
pub mod mh;
pub mod mq;
pub mod msg;
pub mod node;
pub mod ordering;
pub mod recovery;
pub mod retransmit;
pub mod ring_epoch;
pub mod ring_lifecycle;
pub mod telemetry;
pub mod token;
pub mod wq;
pub mod wt;

pub use actions::Action;
pub use config::{ProtocolConfig, HEARTBEAT_PERIOD, HOP_TICK};
pub use driver::{
    CoreShape, MulticastSim, RunMetrics, RunReport, Scenario, ScenarioBuilder, ScenarioEvent,
};
pub use engine::{AddrMap, RingNetSim};
pub use events::ProtoEvent;
pub use hierarchy::{HierarchySpec, TrafficPattern};
pub use ids::{Endpoint, Epoch, GlobalSeq, GroupId, Guid, LocalRange, LocalSeq, NodeId, PayloadId};
pub use mh::{MhCounters, MhState};
pub use mq::{DeliverItem, InsertOutcome, MessageQueue, MsgData};
pub use msg::{Msg, PAYLOAD_BYTES};
pub use node::NeState;
pub use ring_epoch::EpochFence;
pub use ring_lifecycle::{LifecycleEvent, MemberState, RingLifecycle};
pub use telemetry::{Telemetry, TelemetryReport};
pub use token::OrderingToken;
pub use wq::WorkingQueue;
pub use wt::WorkingTable;
