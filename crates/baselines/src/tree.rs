//! Tree-multicast baseline in the style of Mobile IP Remote Subscription
//! (MIP-RS), built as a degenerate RingNet configuration.
//!
//! MIP-RS delivers multicast on shortest-path trees and *re-subscribes*
//! (rebuilds the delivery tree) whenever an MH hands off — the paper's §2
//! notes its packets take optimal paths but "the overhead is the cost of
//! reconstructing the delivery tree while a handoff occurs". A pure tree is
//! exactly RingNet with every logical ring shrunk to one node, on-demand AP
//! activation and no path reservation, so the comparison runs the same
//! protocol code and isolates the structural knobs.
//!
//! Experiment E6 measures tree churn and wired cost per handoff against
//! RingNet with reservations and the tunnelling baseline.

use ringnet_core::driver::{
    degenerate_tree_spec, MulticastSim, RunReport, Scenario, ScenarioEvent,
};
use ringnet_core::engine::RingNetSim;
use simnet::SimTime;

/// MIP-RS-style tree multicast as a [`MulticastSim`] backend: the RingNet
/// engine on the degenerate spec of
/// [`ringnet_core::driver::degenerate_tree_spec`] — one root, rings of
/// one, reservation radius 0, on-demand activation — so every handoff
/// rebuilds the delivery tree. Every scenario event kind is supported (it
/// *is* the RingNet engine underneath).
pub struct TreeSim(pub RingNetSim);

impl MulticastSim for TreeSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        TreeSim(RingNetSim::for_scenario(
            degenerate_tree_spec(scenario),
            scenario,
            seed,
        ))
    }

    fn schedule(&mut self, event: ScenarioEvent) {
        self.0.schedule(event);
    }

    fn run_until(&mut self, t: SimTime) {
        self.0.run_until(t);
    }

    fn finish(self) -> RunReport {
        MulticastSim::finish(self.0)
    }
}
