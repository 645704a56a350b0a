//! # mobility — synthetic movement and handoff traces
//!
//! The RingNet paper evaluates a protocol for *mobile* Internet but had no
//! real movement traces; this crate provides the synthetic equivalent
//! (DESIGN.md §2): a cell grid with AP placement ([`grid`]), mobility
//! models ([`models`]: random waypoint and scripted trajectories), and
//! handoff trace generation ([`handoff`]) that converts
//! sampled trajectories into the attachment-change events protocol
//! scenarios consume.
//!
//! Everything is identity-agnostic: APs are grid indices, walkers are
//! numbered; the experiment harness maps them onto protocol `NodeId`s and
//! `Guid`s.
//!
//! ```
//! use mobility::{CellGrid, HandoffTrace, RandomWaypoint};
//! use simnet::{SimDuration, SimRng};
//!
//! let grid = CellGrid::new(4, 4, 100.0);
//! let mut rng = SimRng::from_seed(7);
//! let mut walkers: Vec<RandomWaypoint> = (0..3)
//!     .map(|_| RandomWaypoint::new(400.0, 400.0, (5.0, 15.0), 1.0, &mut rng))
//!     .collect();
//! let trace: HandoffTrace = mobility::generate(
//!     &mut walkers, &grid,
//!     SimDuration::from_secs(60), SimDuration::from_millis(100), &mut rng);
//! assert_eq!(trace.initial.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod grid;
pub mod handoff;
pub mod models;

pub use grid::{ApIndex, CellGrid, Pos};
pub use handoff::{generate, ping_pong, HandoffEvent, HandoffTrace};
pub use models::{Mobility, RandomWaypoint, Scripted};
