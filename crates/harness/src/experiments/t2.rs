//! T2 — Theorem 5.1, latency bound.
//!
//! "Any message will be ordered, forwarded, and delivered within the
//! message latency bound of max(T_order, T_transmit) + τ + T_deliver."
//! We sweep the top-ring size `r` on a loss-free network (the theorem
//! explicitly excludes retransmission) and compare measured delivery
//! latencies against the analytic bound at `τ = 0`: Order-Assignment copies
//! on token arrival, there is no `τ` scan for a delivery to wait for.

use ringnet_core::analysis::{bounds, TheoremInputs};
use ringnet_core::driver::{CoreShape, MulticastSim, ScenarioBuilder};
use ringnet_core::RingNetSim;
use simnet::{SimDuration, SimTime};

use crate::experiments::analytic_t_deliver;
use crate::report::{fms, Table};

const AGS_PER_RING: usize = 2;

/// One sweep point: measured latency quantiles vs the analytic bounds.
pub struct Point {
    /// Top-ring size.
    pub r: usize,
    /// The paper's as-written bound max(T_order,T_transmit)+τ+T_deliver,
    /// at `τ = 0`.
    pub bound: SimDuration,
    /// The corrected worst-case bound T_order+T_transmit+τ+T_deliver
    /// (see `ringnet_core::analysis` — the paper's proof overlaps token
    /// wait with assignment propagation, which only holds in the best
    /// token phase).
    pub bound_worst: SimDuration,
    /// Measured p50 / p99 / max end-to-end latency.
    pub p50: SimDuration,
    /// Measured p99.
    pub p99: SimDuration,
    /// Measured maximum.
    pub max: SimDuration,
}

/// Measure one ring size.
pub fn measure(r: usize, duration: SimTime) -> Point {
    let s = 2.min(r);
    let lambda = 100.0;
    let sc = ScenarioBuilder::new()
        .attachments(2 * AGS_PER_RING)
        .shape(CoreShape::Hierarchy {
            brs: r,
            rings: 2,
            ags_per_ring: AGS_PER_RING,
        })
        .sources(s)
        .cbr(SimDuration::from_secs_f64(1.0 / lambda))
        .loss_free_wireless()
        .duration(duration)
        .build();
    let links = &sc.links;
    let report = RingNetSim::run_scenario(&sc, 7);
    let h = &report.metrics.e2e_latency;
    assert!(h.count() > 0, "no latency samples");
    let inputs = TheoremInputs {
        ring_size: r,
        sources: s,
        rate_per_sec: lambda,
        ring_hop: links.top_ring.latency.max_delay(),
        tau: SimDuration::ZERO,
        t_deliver: analytic_t_deliver(links, AGS_PER_RING),
    };
    let b = bounds(&inputs);
    Point {
        r,
        bound: b.latency_bound,
        bound_worst: b.latency_bound_worst,
        p50: SimDuration::from_nanos(h.quantile(0.5)),
        p99: SimDuration::from_nanos(h.quantile(0.99)),
        max: SimDuration::from_nanos(h.quantile(1.0)),
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "T2",
        "Theorem 5.1 — latency vs paper bound and corrected worst-case bound (ms)",
        &[
            "r",
            "paper bound",
            "worst bound",
            "p50",
            "p99",
            "max",
            "≤paper",
            "≤worst",
        ],
    );
    let rs: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8] };
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    let yes_no = |holds: bool| if holds { "yes" } else { "NO" }.to_string();
    let mut all_within_worst = true;
    let mut any_paper_violation = false;
    for &r in &rs {
        let p = measure(r, duration);
        let within_paper = p.max <= p.bound;
        let within_worst = p.max <= p.bound_worst;
        all_within_worst &= within_worst;
        any_paper_violation |= !within_paper;
        table.row(vec![
            r.to_string(),
            fms(p.bound),
            fms(p.bound_worst),
            fms(p.p50),
            fms(p.p99),
            fms(p.max),
            yes_no(within_paper),
            yes_no(within_worst),
        ]);
    }
    table.note(format!(
        "all points within corrected worst-case bound: {all_within_worst}; paper's as-written bound violated at some phase: {any_paper_violation}"
    ));
    table.note("both bounds are evaluated at τ = 0: Order-Assignment copies on token arrival and on a late pre-order's arrival, so this implementation has no τ scan and no delivery pays the term");
    table.note("reproduction finding: the paper's Max(T_order,T_transmit) overlap holds only in the best token phase; worst case needs T_order+T_transmit (see analysis module docs)");
    table.note("loss-free links per the theorem's assumption; jitter upper-bounded in T_deliver");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t2_latency_within_corrected_bound() {
        let t = run(true);
        for row in &t.rows {
            assert_eq!(
                row[7], "yes",
                "corrected latency bound at τ = 0 violated: {row:?}"
            );
        }
    }

    #[test]
    fn bound_grows_with_ring_size() {
        let d = SimTime::from_secs(2);
        let small = measure(2, d);
        let large = measure(6, d);
        assert!(large.bound > small.bound);
        // Measured latency also rises with r (more token wait).
        assert!(large.p99 >= small.p50);
    }
}
