//! E7 — token rotation time vs ring size, and throughput insensitivity.
//!
//! §5 defines `T_order` as the token's round-trip around the top ring. We
//! measure the empirical rotation period on growing flat rings and check
//! (a) it scales linearly with `r·hop`, and (b) per-MH throughput stays at
//! the offered `s·λ` regardless — the independence that makes Theorem
//! 5.1's throughput claim work.

use baselines::FlatRingSim;
use ringnet_core::driver::{MulticastSim, ScenarioBuilder};
use ringnet_core::NodeId;
use simnet::{SimDuration, SimTime};

use crate::metrics;
use crate::report::{fms, fnum, Table};

struct Point {
    rotation: SimDuration,
    analytic: SimDuration,
    rate: f64,
}

fn measure(r: usize, duration: SimTime) -> Point {
    let hop = SimDuration::from_millis(5);
    let mut sc = ScenarioBuilder::new()
        .attachments(r)
        .walkers_per_attachment(1)
        .sources(2.min(r))
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .duration(duration)
        .build();
    sc.links.top_ring = simnet::LinkProfile::wired(hop);
    let journal = FlatRingSim::run_scenario(&sc, 19).journal;
    let rotation = metrics::token_rotation_period(&journal, NodeId(0)).expect("token rotated");
    let rate = metrics::delivery_rate(&journal, SimTime::from_secs(1), duration);
    Point {
        rotation,
        analytic: hop * r as u64,
        rate,
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E7",
        "Token rotation T_order vs ring size r (hop = 5 ms), throughput fixed at s·λ = 200/s",
        &["r", "measured rotation", "analytic r·hop", "per-MH rate"],
    );
    let rs: Vec<usize> = if quick { vec![2, 8] } else { vec![2, 4, 8, 16] };
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    for &r in &rs {
        let p = measure(r, duration);
        table.row(vec![
            r.to_string(),
            fms(p.rotation),
            fms(p.analytic),
            fnum(p.rate),
        ]);
    }
    table.note("rotation tracks r·hop; throughput does not degrade as T_order grows (Theorem 5.1)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_rotation_scales_and_throughput_does_not() {
        let t = run(true);
        let rot_small: f64 = t.rows[0][1].parse().unwrap();
        let rot_large: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            rot_large > 2.5 * rot_small,
            "rotation 2→8 stations should roughly 4×: {rot_small} → {rot_large}"
        );
        for row in &t.rows {
            let rate: f64 = row[3].parse().unwrap();
            assert!(
                (rate - 200.0).abs() / 200.0 < 0.05,
                "throughput held regardless of ring size: {row:?}"
            );
        }
    }
}
