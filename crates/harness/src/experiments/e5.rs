//! E5 — best-effort reliability vs wireless loss (§4.2.3).
//!
//! "If each NE in the hierarchy will reliably transmit multicast messages
//! within some local scope … in a best-effort way, then highly probable
//! reliability can be expected." We sweep the wireless loss rate with the
//! local-scope retransmission scheme enabled (NACK budget 5) and disabled
//! (budget 0) and measure the application-level delivery ratio.

use ringnet_core::hierarchy::{LinkPlan, TrafficPattern};
use ringnet_core::{GroupId, HierarchyBuilder, ProtocolConfig};
use simnet::{LinkProfile, SimDuration, SimTime};

use crate::experiments::run_spec;
use crate::report::{fnum, Table};

struct Point {
    ratio: f64,
    skipped: u64,
    duplicates: u64,
}

fn measure(loss: f64, budget: u8, quick: bool) -> Point {
    let duration = SimTime::from_secs(if quick { 3 } else { 8 });
    let links = LinkPlan {
        wireless: LinkProfile::wireless(
            SimDuration::from_millis(2),
            SimDuration::from_millis(1),
            loss,
        ),
        ..LinkPlan::default()
    };
    let spec = HierarchyBuilder::new(GroupId(1))
        .brs(3)
        .ag_rings(2, 2)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(2)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .source_window(SimTime::ZERO, Some(duration - SimDuration::from_secs(1)))
        .config(ProtocolConfig::default().with_nack_budget(budget))
        .links(links)
        .build();
    let (_, finals) = run_spec(spec, 17, duration);
    let totals = finals.mh_totals();
    Point {
        ratio: totals.delivery_ratio(),
        skipped: totals.skipped,
        duplicates: totals.duplicates,
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E5",
        "Delivery ratio vs wireless loss — local-scope retransmission on/off",
        &["loss", "nack budget", "delivery ratio", "skipped", "dups"],
    );
    let losses: Vec<f64> = if quick {
        vec![0.1, 0.3]
    } else {
        vec![0.0, 0.05, 0.1, 0.2, 0.3]
    };
    for &loss in &losses {
        for budget in [0u8, 5] {
            let p = measure(loss, budget, quick);
            table.row(vec![
                fnum(loss),
                budget.to_string(),
                format!("{:.4}", p.ratio),
                p.skipped.to_string(),
                p.duplicates.to_string(),
            ]);
        }
    }
    table.note(
        "budget 0 ⇒ first-touch loss is final (≈ raw channel); budget 5 recovers nearly everything",
    );
    table.note(
        "paper: 'highly probable reliability can be expected when the network is highly stable'",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_retransmission_recovers_losses() {
        let t = run(true);
        // Rows alternate budget 0 / budget 5 per loss rate.
        for pair in t.rows.chunks(2) {
            let without: f64 = pair[0][2].parse().unwrap();
            let with: f64 = pair[1][2].parse().unwrap();
            let loss: f64 = pair[0][0].parse().unwrap();
            // Residual loss with 5 rounds of (lossy) NACK+retransmit is
            // ≈ loss × (1-(1-loss)²)⁵ ≈ 1% at 30% channel loss.
            assert!(with > 0.96, "budget-5 ratio at loss {loss}: {with}");
            assert!(
                with >= without,
                "retransmission must not hurt: {with} vs {without}"
            );
            // Without retransmission, delivery should visibly suffer at
            // non-trivial loss rates.
            if loss >= 0.1 {
                assert!(
                    without < 0.99,
                    "budget-0 ratio suspiciously high: {without}"
                );
            }
        }
    }
}
