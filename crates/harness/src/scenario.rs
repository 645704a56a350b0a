//! Scenario glue: turning mobility traces into protocol-agnostic
//! [`Scenario`](ringnet_core::driver::Scenario)s.
//!
//! The identity-agnostic `mobility` crate speaks in AP grid indices and
//! walker numbers — exactly the vocabulary of
//! [`ringnet_core::driver::Scenario`] — so the conversion is direct: cells
//! become attachment points, walkers become walkers, and every handoff of
//! the trace becomes a [`ScenarioEvent::Handoff`]. The resulting scenario
//! runs unchanged on every [`MulticastSim`] backend.
//!
//! [`MulticastSim`]: ringnet_core::driver::MulticastSim

use mobility::{CellGrid, HandoffTrace};
use ringnet_core::driver::{ScenarioBuilder, ScenarioEvent};

/// Start a [`ScenarioBuilder`] over `grid` with the walkers of `trace`
/// placed at their initial cells, every handoff scheduled, and on-demand
/// attachment activation (the mobility setting). Finish the builder with
/// traffic, protocol config and duration.
pub fn mobile_scenario(grid: &CellGrid, trace: &HandoffTrace) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .grid(grid.cols(), grid.rows())
        .walkers(trace.initial.iter().map(|&cell| Some(cell)).collect())
        .aps_always_active(false)
        .events(trace.events.iter().map(|ev| ScenarioEvent::Handoff {
            at: ev.at,
            walker: ev.walker,
            to: ev.to,
        }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::ping_pong;
    use ringnet_core::driver::MulticastSim;
    use ringnet_core::engine::RingNetSim;
    use simnet::{SimDuration, SimTime};

    #[test]
    fn trace_becomes_a_valid_scenario() {
        let grid = CellGrid::new(4, 2, 100.0);
        let trace = ping_pong(
            3,
            &grid,
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
        );
        let sc = mobile_scenario(&grid, &trace)
            .cbr(SimDuration::from_millis(10))
            .build();
        assert!(sc.validate().is_empty(), "{:?}", sc.validate());
        assert_eq!(sc.attachments, 8);
        assert_eq!(sc.walkers.len(), 3);
        assert_eq!(sc.events.len(), trace.events.len());
        assert!(!sc.aps_always_active);
        // Corner cell has two neighbours under the grid arrangement.
        assert_eq!(sc.neighbours_of(0).len(), 2);
    }

    #[test]
    fn trace_scenario_runs_on_ringnet() {
        let grid = CellGrid::new(2, 1, 100.0);
        let trace = ping_pong(
            1,
            &grid,
            SimDuration::from_millis(500),
            SimDuration::from_secs(2),
        );
        let sc = mobile_scenario(&grid, &trace)
            .cbr(SimDuration::from_millis(20))
            .message_limit(50)
            .duration(SimTime::from_secs(4))
            .build();
        let report = RingNetSim::run_scenario(&sc, 7);
        let handoffs = report
            .journal
            .iter()
            .filter(|(_, e)| matches!(e, ringnet_core::ProtoEvent::HandoffRegistered { .. }))
            .count();
        assert!(handoffs >= 3, "handoffs registered: {handoffs}");
        assert!(
            report.metrics.delivered > 30,
            "delivered {}",
            report.metrics.delivered
        );
        assert_eq!(report.metrics.order_violations, 0);
    }
}
