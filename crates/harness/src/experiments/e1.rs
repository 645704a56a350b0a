//! E1 — RingNet hierarchy vs one flat logical ring.
//!
//! §2 on the flat-ring protocol \[16\]: "since all the control information
//! has to be rotated along the ring, it may lead to large latency and
//! require large buffers when the ring becomes large. Each logical ring
//! within our proposed RingNet model functions in a similar way, but it
//! deals with only a local scope of the whole group." We grow the number
//! of attachment points N and compare delivery latency and peak buffers —
//! **one scenario per N, two backends**: the flat ring ignores the
//! hierarchy-shape hint, so the identical [`Scenario`] drives both sides
//! of the comparison.

use baselines::FlatRingSim;
use ringnet_core::driver::{CoreShape, MulticastSim, Scenario, ScenarioBuilder};
use ringnet_core::RingNetSim;
use simnet::{SimDuration, SimTime};

use crate::report::{fms, Table};

/// Balanced hierarchy dimensions for N attachment points:
/// `(ag_rings, ags_per_ring, aps_per_ag)` with product = N.
fn hierarchy_shape(n: usize) -> (usize, usize, usize) {
    match n {
        0..=4 => (1, 2, n.div_ceil(2).max(1)),
        5..=8 => (2, 2, n / 4),
        9..=16 => (2, 2, n / 4),
        _ => (4, 2, n / 8),
    }
}

/// The shared world for N attachment points; only the core-shape hint is
/// RingNet-specific (and ignored by the flat ring).
fn scenario(n: usize, duration: SimTime) -> Scenario {
    let (rings, ags_per_ring, _) = hierarchy_shape(n);
    ScenarioBuilder::new()
        .attachments(n)
        .walkers_per_attachment(1)
        .sources(2.min(n))
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings,
            ags_per_ring,
        })
        .duration(duration)
        // The sweep reads only the streamed metrics; never materialize the
        // journal (~2 MiB per backend per point at N = 32 otherwise).
        .retain_journal(false)
        .build()
}

struct Point {
    p50: SimDuration,
    p99: SimDuration,
    peak_buf: u32,
}

fn measure<S: MulticastSim>(sc: &Scenario) -> Point {
    let report = S::run_scenario(sc, 3);
    Point {
        p50: SimDuration::from_nanos(report.metrics.e2e_latency.quantile(0.5)),
        p99: SimDuration::from_nanos(report.metrics.e2e_latency.quantile(0.99)),
        peak_buf: report.metrics.wq_peak + report.metrics.mq_peak,
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E1",
        "RingNet hierarchy vs flat logical ring [16] — latency (ms) and peak buffers vs N",
        &[
            "N", "flat p50", "hier p50", "flat p99", "hier p99", "flat buf", "hier buf",
        ],
    );
    let ns: Vec<usize> = if quick {
        vec![4, 12]
    } else {
        vec![4, 8, 16, 32]
    };
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    let mut rows: Vec<(usize, Point, Point)> = Vec::new();
    for &n in &ns {
        let sc = scenario(n, duration);
        let flat = measure::<FlatRingSim>(&sc);
        let hier = measure::<RingNetSim>(&sc);
        table.row(vec![
            n.to_string(),
            fms(flat.p50),
            fms(hier.p50),
            fms(flat.p99),
            fms(hier.p99),
            flat.peak_buf.to_string(),
            hier.peak_buf.to_string(),
        ]);
        rows.push((n, flat, hier));
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let flat_growth = last.1.p50.as_nanos() as f64 / first.1.p50.as_nanos().max(1) as f64;
        let hier_growth = last.2.p50.as_nanos() as f64 / first.2.p50.as_nanos().max(1) as f64;
        table.note(format!(
            "p50 latency growth {}×N: flat {flat_growth:.2}×, hierarchy {hier_growth:.2}× — the hierarchy localises the ring cost",
            last.0 / first.0.max(1),
        ));
    }
    table.note("paper: flat ring latency/buffers grow with ring size; RingNet's rings stay small");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_flat_ring_degrades_faster() {
        let t = run(true);
        assert_eq!(t.rows.len(), 2);
        let flat_small: f64 = t.rows[0][1].parse().unwrap();
        let flat_large: f64 = t.rows[1][1].parse().unwrap();
        let hier_small: f64 = t.rows[0][2].parse().unwrap();
        let hier_large: f64 = t.rows[1][2].parse().unwrap();
        let flat_growth = flat_large / flat_small.max(0.001);
        let hier_growth = hier_large / hier_small.max(0.001);
        assert!(
            flat_growth > 1.5 * hier_growth,
            "flat should degrade faster: flat {flat_growth:.2}x vs hier {hier_growth:.2}x"
        );
    }

    #[test]
    fn shapes_multiply_out() {
        for n in [4usize, 8, 16, 32] {
            let (r, a, p) = hierarchy_shape(n);
            assert_eq!(r * a * p, n, "shape for {n}");
        }
    }
}
