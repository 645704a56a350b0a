//! E4 — the ordering latency penalty (Remark 3).
//!
//! "If totally-ordered property is not required, then multicast using the
//! RingNet hierarchy will be more efficient and message latency will
//! decrease due to the fact that ordering operations are not required in
//! the top logical ring." Same hierarchy, same traffic, ordered vs
//! unordered — the latency difference *is* the price of total order. One
//! [`Scenario`] per rate drives both backends.

use baselines::UnorderedSim;
use ringnet_core::driver::{CoreShape, MulticastSim, Scenario, ScenarioBuilder};
use ringnet_core::RingNetSim;
use simnet::{Histogram, SimDuration, SimTime};

use crate::report::{fms, Table};

fn scenario(lambda: f64, duration: SimTime) -> Scenario {
    ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(2)
        .cbr(SimDuration::from_secs_f64(1.0 / lambda))
        .loss_free_wireless()
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings: 2,
            ags_per_ring: 2,
        })
        .duration(duration)
        .build()
}

fn latency<S: MulticastSim>(sc: &Scenario) -> Histogram {
    S::run_scenario(sc, 13).metrics.e2e_latency
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E4",
        "Ordering latency penalty (Remark 3): ordered vs unordered RingNet (ms)",
        &[
            "λ",
            "ordered p50",
            "unordered p50",
            "penalty p50",
            "ordered p99",
            "unordered p99",
        ],
    );
    let lambdas: Vec<f64> = if quick {
        vec![100.0]
    } else {
        vec![50.0, 100.0, 400.0]
    };
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    for &lambda in &lambdas {
        let sc = scenario(lambda, duration);
        let ord = latency::<RingNetSim>(&sc);
        let unord = latency::<UnorderedSim>(&sc);
        let op50 = SimDuration::from_nanos(ord.quantile(0.5));
        let up50 = SimDuration::from_nanos(unord.quantile(0.5));
        table.row(vec![
            format!("{lambda:.0}"),
            fms(op50),
            fms(up50),
            fms(op50.saturating_sub(up50)),
            fms(SimDuration::from_nanos(ord.quantile(0.99))),
            fms(SimDuration::from_nanos(unord.quantile(0.99))),
        ]);
    }
    table.note("penalty ≈ token wait + τ — bounded by T2's bound; each unordered stream's tree is rooted at its own BR");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_ordering_costs_latency_but_is_bounded() {
        let t = run(true);
        let row = &t.rows[0];
        let ordered: f64 = row[1].parse().unwrap();
        let unordered: f64 = row[2].parse().unwrap();
        assert!(
            ordered > unordered,
            "ordering must add latency: {ordered} vs {unordered}"
        );
        // The penalty stays within the analytic copy bound for r=4:
        // max(T_order, T_transmit) + τ = 20 + 5 = 25 ms.
        assert!(
            ordered - unordered < 30.0,
            "penalty too large: {} ms",
            ordered - unordered
        );
    }
}
