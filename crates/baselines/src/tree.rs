//! Tree-multicast baselines in the style of Mobile IP Remote Subscription
//! (MIP-RS), built as degenerate RingNet configurations.
//!
//! MIP-RS delivers multicast on shortest-path trees and *re-subscribes*
//! (rebuilds the delivery tree) whenever an MH hands off — the paper's §2
//! notes its packets take optimal paths but "the overhead is the cost of
//! reconstructing the delivery tree while a handoff occurs". A pure tree is
//! exactly RingNet with every logical ring shrunk to one node, on-demand AP
//! activation and no path reservation, so the comparison runs the same
//! protocol code and isolates the structural knobs:
//!
//! * [`remote_subscription_spec`] — tree rebuild on every handoff
//!   (reservation radius 0, APs activate on demand);
//! * [`ringnet_smooth_spec`] — the paper's scheme (reservation radius > 0).
//!
//! Experiment E6 measures wired control cost per handoff across these and
//! the tunnelling baseline.

use ringnet_core::driver::{
    degenerate_tree_spec, MulticastSim, RunReport, Scenario, ScenarioEvent,
};
use ringnet_core::engine::RingNetSim;
use ringnet_core::hierarchy::{HierarchySpec, TrafficPattern};
use ringnet_core::{GroupId, HierarchyBuilder, ProtoEvent, ProtocolConfig};
use simnet::{SimDuration, SimTime};

/// A pure-tree (MIP-RS style) deployment: one root, `routers` interior
/// nodes (rings of one), `aps_per_router` APs each, joining the tree on
/// demand and rebuilding on every handoff.
pub fn remote_subscription_spec(
    group: GroupId,
    routers: usize,
    aps_per_router: usize,
    mhs_per_ap: usize,
    cfg: ProtocolConfig,
) -> HierarchySpec {
    HierarchyBuilder::new(group)
        .brs(1)
        .ag_rings(routers, 1)
        .aps_per_ag(aps_per_router)
        .mhs_per_ap(mhs_per_ap)
        .sources(1)
        .aps_always_active(false)
        .config(cfg.with_reservation_radius(0))
        .build()
}

/// The paper's smooth-handoff configuration on the same tier sizes: proper
/// rings plus path reservation of the given radius.
pub fn ringnet_smooth_spec(
    group: GroupId,
    routers: usize,
    aps_per_router: usize,
    mhs_per_ap: usize,
    radius: u8,
    cfg: ProtocolConfig,
) -> HierarchySpec {
    HierarchyBuilder::new(group)
        .brs(2)
        .ag_rings(routers.div_ceil(3).max(1), 3.min(routers).max(1))
        .aps_per_ag(aps_per_router)
        .mhs_per_ap(mhs_per_ap)
        .sources(1)
        .aps_always_active(false)
        .config(cfg.with_reservation_radius(radius))
        .build()
}

/// MIP-RS-style tree multicast as a [`MulticastSim`] backend: the RingNet
/// engine on the degenerate spec of
/// [`ringnet_core::driver::degenerate_tree_spec`] — one root, rings of
/// one, reservation radius 0, on-demand activation — so every handoff
/// rebuilds the delivery tree. Every scenario event kind is supported (it
/// *is* the RingNet engine underneath), always on the sequential simulator
/// (`Scenario::shards` is ignored).
pub struct TreeSim(pub RingNetSim);

impl MulticastSim for TreeSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        TreeSim(RingNetSim::for_scenario(
            degenerate_tree_spec(scenario),
            scenario,
            seed,
            1,
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

/// Sum of wired control messages over all entities at teardown (from the
/// `NeFinal` records). The wired-cost metric of experiment E6.
pub fn wired_control_messages(journal: &[(SimTime, ProtoEvent)]) -> u64 {
    journal
        .iter()
        .map(|(_, e)| match e {
            ProtoEvent::NeFinal { control_sent, .. } => *control_sent as u64,
            _ => 0,
        })
        .sum()
}

/// Count of graft + prune events — tree-maintenance churn (E6's secondary
/// metric: MIP-RS pays one graft/prune pair per handoff, reservations trade
/// them for amortised pre-grafts). Re-exported from the shared journal
/// metrics so every caller counts churn identically.
pub use ringnet_core::metrics::tree_churn;

/// Convenience: a CBR pattern of `rate` messages/second.
pub fn cbr(rate: f64) -> TrafficPattern {
    assert!(rate > 0.0);
    TrafficPattern::Cbr {
        interval: SimDuration::from_secs_f64(1.0 / rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringnet_core::engine::RingNetSim;
    use ringnet_core::Guid;

    #[test]
    fn tree_spec_is_valid_and_degenerate() {
        let spec = remote_subscription_spec(GroupId(1), 4, 2, 1, ProtocolConfig::default());
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        assert_eq!(spec.top_ring.len(), 1, "single root");
        assert!(
            spec.ag_rings.iter().all(|r| r.members.len() == 1),
            "rings of one"
        );
        assert!(spec.aps.iter().all(|a| !a.always_active));
        assert_eq!(spec.cfg.reservation_radius, 0);
    }

    #[test]
    fn smooth_spec_keeps_reservations() {
        let spec = ringnet_smooth_spec(GroupId(1), 6, 1, 1, 2, ProtocolConfig::default());
        assert!(spec.validate().is_empty());
        assert_eq!(spec.cfg.reservation_radius, 2);
    }

    #[test]
    fn tree_delivers_to_on_demand_members() {
        let mut spec = remote_subscription_spec(GroupId(1), 2, 1, 1, ProtocolConfig::default());
        for s in &mut spec.sources {
            s.limit = Some(10);
            s.pattern = cbr(50.0);
            // Let the on-demand grafts settle before traffic starts.
            s.start = SimTime::from_millis(200);
        }
        let mut net = RingNetSim::build(spec, 4);
        net.run_until(SimTime::from_secs(3));
        let (journal, _) = net.finish();
        let delivered = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::MhDeliver { .. }))
            .count();
        assert_eq!(delivered, 20, "2 MHs × 10 messages");
        // On-demand activation produced grafts.
        assert!(tree_churn(&journal) >= 2);
    }

    #[test]
    fn handoff_on_tree_causes_rebuild_churn() {
        let mut spec = remote_subscription_spec(GroupId(1), 2, 2, 1, ProtocolConfig::default());
        for s in &mut spec.sources {
            s.pattern = cbr(100.0);
            s.start = SimTime::from_millis(200);
        }
        let target = spec.aps.last().unwrap().id;
        let mut net = RingNetSim::build(spec, 5);
        net.schedule_handoff(SimTime::from_secs(1), Guid(0), target);
        net.run_until(SimTime::from_secs(4));
        let (journal, _) = net.finish();
        let churn = tree_churn(&journal);
        // Initial activations (several grafts) + handoff-driven graft at the
        // target AP + prune of the emptied AP.
        assert!(churn >= 4, "churn {churn}");
        assert!(journal
            .iter()
            .any(|(_, e)| matches!(e, ProtoEvent::HandoffRegistered { mh: Guid(0), .. })));
        assert!(wired_control_messages(&journal) > 0);
    }
}
