//! # simnet — deterministic discrete-event network simulation
//!
//! The substrate under the RingNet reproduction: virtual time, a
//! deterministic event queue, per-simulation RNG streams, point-to-point
//! links with latency and loss models, an actor-based simulator
//! and measurement primitives.
//!
//! `simnet` knows nothing about multicast or mobility — protocol logic lives
//! in `ringnet-core` and `baselines`, which implement [`Actor`] over their
//! own wire-message types.
//!
//! ## Example
//!
//! ```
//! use simnet::{Actor, Ctx, LinkProfile, NodeAddr, Sim, SimDuration};
//!
//! struct Hello { peer: Option<NodeAddr> }
//!
//! impl Actor<&'static str, String> for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str, String>) {
//!         if let Some(p) = self.peer { ctx.send(p, "hello"); }
//!     }
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, &'static str, String>,
//!                  from: NodeAddr, msg: &'static str) {
//!         ctx.record(format!("{from} said {msg}"));
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let a = sim.add_node(Box::new(Hello { peer: None }));
//! let b = sim.add_node(Box::new(Hello { peer: Some(a) }));
//! sim.world().topo.connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(5)));
//! sim.run_to_quiescence(100);
//! let (records, stats, ()) = sim.finish();
//! assert_eq!(records.len(), 1);
//! assert_eq!(stats.packets_delivered, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod link;
pub mod rng;
pub mod sim;
mod slab;
pub mod stats;
pub mod time;
pub mod topo;

pub use event::{EventHandle, EventQueue};
pub use link::{LatencyModel, LinkProfile, LossModel};
pub use rng::SimRng;
pub use sim::{Actor, Ctx, Journal, Sim, SimStats, World};
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
pub use topo::{NodeAddr, Topology};
