//! T3 — Theorem 5.1, buffer-size bounds.
//!
//! "The size of WQ can be set to s·λ·(max(T_order, T_transmit)+τ); … the
//! size [of MQ] can be set to s·λ·T_order." We sweep the offered load and
//! compare the *measured peak occupancy* of the top-ring nodes' queues
//! against the analytic bounds (with the documented empirical slack for
//! ACK batching and retention, `analysis::EMPIRICAL_SLACK_FACTOR`).

use ringnet_core::analysis::{bounds, within_buffer_bound, TheoremInputs};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{GroupId, HierarchyBuilder, NodeId};
use simnet::{SimDuration, SimTime};

use crate::experiments::{analytic_t_deliver, loss_free_links, run_spec};
use crate::report::{fnum, Table};

const R: usize = 4;
const S: usize = 2;

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "T3",
        "Theorem 5.1 — peak buffer occupancy vs bounds (messages)",
        &[
            "λ (msg/s)",
            "WQ bound",
            "WQ peak",
            "ok",
            "MQ bound",
            "MQ peak",
            "ok",
        ],
    );
    let lambdas: Vec<f64> = if quick {
        vec![100.0, 500.0]
    } else {
        vec![100.0, 500.0, 1000.0]
    };
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    let links = loss_free_links();
    let mut all_ok = true;
    for &lambda in &lambdas {
        let spec = HierarchyBuilder::new(GroupId(1))
            .brs(R)
            .ag_rings(2, 2)
            .aps_per_ag(1)
            .mhs_per_ap(1)
            .sources(S)
            .source_pattern(TrafficPattern::Cbr {
                interval: SimDuration::from_secs_f64(1.0 / lambda),
            })
            .links(links.clone())
            .build();
        let (_, finals) = run_spec(spec, 11, duration);
        // Peak over the top-ring nodes only (the theorem's subjects).
        let mut wq_peak = 0u32;
        let mut mq_peak = 0u32;
        for br in 0..R as u32 {
            if let Some((wq, mq)) = finals.buffer_peaks_of(NodeId(br)) {
                wq_peak = wq_peak.max(wq);
                mq_peak = mq_peak.max(mq);
            }
        }
        let b = bounds(&TheoremInputs {
            ring_size: R,
            sources: S,
            rate_per_sec: lambda,
            ring_hop: links.top_ring.latency.max_delay(),
            tau: SimDuration::from_millis(5),
            t_deliver: analytic_t_deliver(&links, 2),
        });
        let wq_ok = within_buffer_bound(wq_peak as f64, b.wq_bound);
        let mq_ok = within_buffer_bound(mq_peak as f64, b.mq_bound);
        all_ok &= wq_ok && mq_ok;
        table.row(vec![
            fnum(lambda),
            fnum(b.wq_bound),
            wq_peak.to_string(),
            if wq_ok { "yes".into() } else { "NO".into() },
            fnum(b.mq_bound),
            mq_peak.to_string(),
            if mq_ok { "yes".into() } else { "NO".into() },
        ]);
    }
    table.note(format!(
        "bounds checked as measured ≤ {}×bound + {} (ACK batching & retention slack, see analysis docs); all ok: {all_ok}",
        ringnet_core::analysis::EMPIRICAL_SLACK_FACTOR,
        ringnet_core::analysis::EMPIRICAL_SLACK_MESSAGES,
    ));
    table.note("paper: buffers stay bounded and linear in s·λ — the key claim is the linear shape");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3_buffers_within_slacked_bounds() {
        let t = run(true);
        for row in &t.rows {
            assert_eq!(row[3], "yes", "WQ bound violated: {row:?}");
            assert_eq!(row[6], "yes", "MQ bound violated: {row:?}");
        }
    }

    #[test]
    fn buffers_scale_roughly_linearly() {
        let t = run(true);
        // Peaks at 5× the load should stay well below 25× the low-load peak
        // (i.e. growth is at most linear-ish, not quadratic).
        let low: f64 = t.rows[0][2].parse().unwrap();
        let high: f64 = t.rows[1][2].parse().unwrap();
        if low > 0.0 {
            assert!(high / low < 25.0, "WQ growth {low} -> {high}");
        }
    }
}
