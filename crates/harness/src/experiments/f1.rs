//! F1 — Figure 1: the RingNet hierarchy.
//!
//! Builds the topology the paper draws (four-BR top ring, three AG rings of
//! three, APs and MHs below), verifies its structural invariants, runs it
//! briefly and confirms totally-ordered delivery to every MH.

use ringnet_core::driver::{ringnet_spec, MulticastSim, ScenarioBuilder};
use ringnet_core::{GroupId, RingNetSim};
use simnet::{SimDuration, SimTime};

use crate::metrics;
use crate::report::Table;

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "F1",
        "Figure 1 — RingNet hierarchy construction and sanity run",
        &["tier", "entities", "check"],
    );
    // Sanity run: every MH receives the full totally-ordered stream.
    let msgs = if quick { 20 } else { 100 };
    let sc = ScenarioBuilder::figure1(GroupId(1))
        .cbr(SimDuration::from_millis(10))
        .message_limit(msgs)
        .build();
    let spec = ringnet_spec(&sc);
    let problems = spec.validate();
    let (brs, ags, aps, mhs) = spec.tier_sizes();
    table.row(vec![
        "BRT (top ring)".into(),
        brs.to_string(),
        "ring of 4, leader ne0".into(),
    ]);
    table.row(vec![
        "AGT (rings)".into(),
        ags.to_string(),
        "3 rings × 3 AGs".into(),
    ]);
    table.row(vec!["APT".into(), aps.to_string(), "one AP per AG".into()]);
    table.row(vec!["MHT".into(), mhs.to_string(), "one MH per AP".into()]);
    table.note(format!("spec validation problems: {}", problems.len()));

    let mut net = RingNetSim::for_scenario(spec, &sc, 1);
    net.run_until(SimTime::from_secs(if quick { 3 } else { 6 }));
    let report = net.finish();
    let per = metrics::deliveries_per_mh(&report.journal);
    let complete = per.values().filter(|v| v.len() as u64 == msgs).count();
    let violations = report.metrics.order_violations;
    table.row(vec![
        "delivery".into(),
        format!("{}/{} MHs complete", complete, per.len()),
        format!("{} order violations", violations),
    ]);
    table.note("paper: schematic architecture figure; reproduced structurally");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_completes_and_orders() {
        let t = run(true);
        assert_eq!(t.rows.len(), 5);
        let delivery_row = &t.rows[4];
        assert!(
            delivery_row[1].starts_with("9/9"),
            "all MHs complete: {delivery_row:?}"
        );
        assert!(delivery_row[2].starts_with("0 order"), "{delivery_row:?}");
    }
}
