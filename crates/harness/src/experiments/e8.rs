//! E8 — load distribution: RingNet vs a RelM-style supervisor host.
//!
//! §2 on RelM \[6\]: "since the SHs have to do so many tasks such as
//! maintaining connections for MHs, the RelM protocol scales not very well
//! when the number of group members becomes very large." We grow the
//! member count and compare the *busiest wired entity* of each scheme:
//! RelM's SH sequences, buffers and processes every member's feedback;
//! RingNet spreads exactly that work over APs, AGs and BRs. One
//! [`Scenario`] per member count drives both backends — the wired-core
//! definition (SH alone vs BRs + AGs) comes from each backend's
//! `MulticastSim::finish`.
//!
//! [`Scenario`]: ringnet_core::driver::Scenario

use baselines::RelmSim;
use ringnet_core::driver::{CoreShape, MulticastSim, Scenario, ScenarioBuilder};
use ringnet_core::RingNetSim;
use simnet::{SimDuration, SimTime};

use crate::report::Table;

const ATTACH_POINTS: usize = 4;

fn scenario(members_per_ap: usize, duration: SimTime) -> Scenario {
    ScenarioBuilder::new()
        .attachments(ATTACH_POINTS)
        .walkers_per_attachment(members_per_ap)
        .sources(1)
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .shape(CoreShape::Hierarchy {
            brs: 2,
            rings: 1,
            ags_per_ring: 2,
        })
        .duration(duration)
        // The sweep reads only the streamed metrics; never materialize the
        // journal (~3.7 MiB at 128 members otherwise).
        .retain_journal(false)
        .build()
}

/// `(busiest wired-core entity msgs, peak buffering)` for one backend.
fn measure<S: MulticastSim>(sc: &Scenario) -> (u64, u32) {
    let report = S::run_scenario(sc, 41);
    (
        report.metrics.busiest_core_msgs,
        report.metrics.wq_peak + report.metrics.mq_peak,
    )
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E8",
        "Load concentration vs group size: RelM supervisor host vs RingNet (4 attach points)",
        &[
            "members",
            "RelM SH msgs",
            "RingNet busiest msgs",
            "RelM SH buffer",
            "RingNet max buffer",
        ],
    );
    let sizes: Vec<usize> = if quick { vec![2, 8] } else { vec![2, 8, 32] };
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    let mut rows = Vec::new();
    for &per_ap in &sizes {
        let members = per_ap * ATTACH_POINTS;
        let sc = scenario(per_ap, duration);
        let (relm_msgs, relm_buf) = measure::<RelmSim>(&sc);
        let (rn_msgs, rn_buf) = measure::<RingNetSim>(&sc);
        table.row(vec![
            members.to_string(),
            relm_msgs.to_string(),
            rn_msgs.to_string(),
            relm_buf.to_string(),
            rn_buf.to_string(),
        ]);
        rows.push((members, relm_msgs, rn_msgs));
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let relm_growth = last.1 as f64 / first.1.max(1) as f64;
        let rn_growth = last.2 as f64 / first.2.max(1) as f64;
        table.note(format!(
            "busiest-entity load growth over {}× members: RelM {relm_growth:.1}×, RingNet {rn_growth:.1}× — the SH concentrates per-member work",
            last.0 / first.0.max(1)
        ));
    }
    table.note("interior (wired-core) entities only: the per-member wireless last hop is identical in both schemes");
    table.note("RelM SH processes every member's ACK/NACK; RingNet aggregates per hop");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_supervisor_concentrates_load() {
        let t = run(true);
        assert_eq!(t.rows.len(), 2);
        let relm_small: f64 = t.rows[0][1].parse().unwrap();
        let relm_large: f64 = t.rows[1][1].parse().unwrap();
        let rn_small: f64 = t.rows[0][2].parse().unwrap();
        let rn_large: f64 = t.rows[1][2].parse().unwrap();
        let relm_growth = relm_large / relm_small.max(1.0);
        let rn_growth = rn_large / rn_small.max(1.0);
        assert!(
            relm_growth > 1.5 * rn_growth,
            "SH load should grow much faster with members: RelM {relm_growth:.2}x vs RingNet {rn_growth:.2}x"
        );
    }
}
