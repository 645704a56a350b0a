//! E3 — Token-Loss recovery (§4.2.1).
//!
//! We crash a top-ring node mid-run — both a non-leader and the leader
//! (which also originated the token) — and measure how long ordering
//! stalls before the Token-Regeneration algorithm restores it from the
//! per-node `NewOrderingToken` snapshots. Correctness gates: global
//! sequence numbers are never assigned twice, and no MH observes an order
//! violation.

use ringnet_core::driver::{CoreShape, MulticastSim, ScenarioBuilder, ScenarioEvent};
use ringnet_core::{NodeId, ProtoEvent, RingNetSim};
use simnet::{SimDuration, SimTime};

use crate::report::{fms, Table};

struct Point {
    stall: SimDuration,
    violations: u64,
    dup_assignments: u64,
    continued: bool,
    regenerated: bool,
}

fn measure(victim: NodeId, seed: u64, quick: bool) -> Point {
    let kill_at = SimTime::from_secs(2);
    let duration = SimTime::from_secs(if quick { 5 } else { 8 });
    let sc = ScenarioBuilder::new()
        .attachments(4)
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings: 2,
            ags_per_ring: 2,
        })
        .sources(2)
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .duration(duration)
        // The victim is a BR, whose core index is its id.
        .event(ScenarioEvent::KillCore {
            at: kill_at,
            index: victim.0 as usize,
        })
        .build();
    let report = RingNetSim::run_scenario(&sc, seed);
    let journal = &report.journal;

    // Ordering stall: the largest gap between consecutive Ordered events
    // in the window around the failure.
    let ordered_times: Vec<SimTime> = journal
        .iter()
        .filter_map(|(t, e)| matches!(e, ProtoEvent::Ordered { .. }).then_some(*t))
        .filter(|t| *t >= kill_at - SimDuration::from_millis(500))
        .collect();
    let stall = ordered_times
        .windows(2)
        .map(|w| w[1].saturating_since(w[0]))
        .max()
        .unwrap_or(SimDuration::MAX);
    let continued = ordered_times
        .last()
        .is_some_and(|t| *t > kill_at + SimDuration::from_secs(1));

    // Unique assignment check: every Ordered gsn appears exactly once.
    let mut gsns: Vec<u64> = journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::Ordered { gsn, .. } => Some(gsn.0),
            _ => None,
        })
        .collect();
    let n = gsns.len() as u64;
    gsns.sort_unstable();
    gsns.dedup();
    let dup_assignments = n - gsns.len() as u64;

    let regenerated = journal
        .iter()
        .any(|(_, e)| matches!(e, ProtoEvent::TokenRegenerated { .. }));

    Point {
        stall,
        violations: report.metrics.order_violations,
        dup_assignments,
        continued,
        regenerated,
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E3",
        "Token-loss recovery after a top-ring crash (kill at t=2s)",
        &[
            "victim",
            "seed",
            "max ordering stall",
            "violations",
            "dup gsn",
            "recovered",
            "regen used",
        ],
    );
    let seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2, 3] };
    for victim in [NodeId(2), NodeId(0)] {
        for &seed in &seeds {
            let p = measure(victim, seed, quick);
            table.row(vec![
                if victim == NodeId(0) {
                    "ne0 (leader/origin)".into()
                } else {
                    "ne2 (member)".into()
                },
                seed.to_string(),
                fms(p.stall),
                p.violations.to_string(),
                p.dup_assignments.to_string(),
                p.continued.to_string(),
                p.regenerated.to_string(),
            ]);
        }
    }
    table.note(
        "stall includes failure detection (the first miss on the heartbeat tick, the rest \
         confirmed a round trip apart), quiet detection and ring traversal; a member excised \
         before the transfer to it gives up needs no regeneration",
    );
    table.note(
        "paper: the Token-Regeneration algorithm restarts ordering from NewOrderingToken snapshots",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_recovers_without_violations() {
        let t = run(true);
        for row in &t.rows {
            assert_eq!(row[3], "0", "order violations: {row:?}");
            assert_eq!(row[4], "0", "duplicate assignments: {row:?}");
            assert_eq!(row[5], "true", "ordering did not recover: {row:?}");
        }
    }
}
