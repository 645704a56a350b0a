//! A1 — ablation of the protocol's ACK batching (DESIGN.md §5).
//!
//! **ACK batching** (`ack_every`): fewer ACKs mean longer retention and
//! larger buffer peaks — the empirical slack factor of T3 at work. The
//! `core ctl / delivery` column prices the other side of the trade: a hop
//! acknowledges only a front that moved, so batching saves control
//! messages exactly as far as several moves share one ACK.
//!
//! The WTSNP retention and the old token snapshot (§4.1) are not swept:
//! each alone measured exactly as the defaults, on the loss-free ring and
//! at 5 % ring loss, so both are fixed (two rotations, old snapshot kept;
//! see `ringnet_core::token` and `ringnet_core::ordering`).

use ringnet_core::driver::{CoreShape, MulticastSim, ScenarioBuilder};
use ringnet_core::{NodeId, ProtocolConfig, RingNetSim};
use simnet::{SimDuration, SimTime};

use crate::report::{fms, Table};

struct Point {
    p99: SimDuration,
    retransmissions: u64,
    skips: u64,
    mq_peak: u32,
    /// Wired-core control messages per application delivery.
    control_per_delivery: f64,
}

fn measure(cfg: ProtocolConfig, duration: SimTime) -> Point {
    let sc = ScenarioBuilder::new()
        .attachments(4)
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings: 2,
            ags_per_ring: 2,
        })
        .sources(2)
        .cbr(SimDuration::from_millis(5))
        .config(cfg)
        .loss_free_wireless()
        .duration(duration)
        .build();
    let report = RingNetSim::run_scenario(&sc, 23);
    let (finals, totals) = (&report.finals, &report.metrics);
    let h = &totals.e2e_latency;
    let retransmissions = finals.ne.values().map(|f| f.retransmissions as u64).sum();
    let skips = finals.mh_totals().skipped;
    let mut mq_peak = 0;
    for br in 0..4u32 {
        if let Some((_, mq)) = finals.buffer_peaks_of(NodeId(br)) {
            mq_peak = mq_peak.max(mq);
        }
    }
    Point {
        p99: SimDuration::from_nanos(h.quantile(0.99)),
        retransmissions,
        skips,
        mq_peak,
        control_per_delivery: totals.wired_core_control_sent as f64 / totals.delivered as f64,
    }
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "A1",
        "Ablation: ACK batching",
        &[
            "variant",
            "p99 latency (ms)",
            "retransmissions",
            "MH skips",
            "top MQ peak",
            "core ctl / delivery",
        ],
    );
    let duration = SimTime::from_secs(if quick { 3 } else { 6 });
    // ack_every × HOP_TICK may not exceed HEARTBEAT_PERIOD: 10 at most.
    let acks: &[u8] = if quick { &[1, 8] } else { &[1, 4, 8] };
    for &a in acks {
        let cfg = ProtocolConfig {
            ack_every: a,
            ..ProtocolConfig::default()
        };
        let p = measure(cfg, duration);
        table.row(vec![
            format!("ack_every={a}"),
            fms(p.p99),
            p.retransmissions.to_string(),
            p.skips.to_string(),
            p.mq_peak.to_string(),
            format!("{:.3}", p.control_per_delivery),
        ]);
    }
    table.note("default: ack_every=2 (measures as ack_every=1 does: 42.47 ms, MQ peak 9, 0.382 ctl / delivery)");
    table.note("ACK batching trades control messages (last column) for buffer residency; the saving is small because a hop acknowledges only a front that moved, so ack_every=1 costs what the default does");
    table.note("the WTSNP-retention and old-token rows went with their settings (PR 25): on a loss-free ring and at 5% ring loss, retention 1 and dropping the old snapshot each measured exactly as the defaults (at 5% loss 90.18 ms / 1242 retransmissions / MQ peak 49 / 0.993); only stripping both moved a column, so both are fixed: retention 2, old snapshot kept");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_ablation_effects_visible() {
        let t = run(true);
        // Rows: ack_every=1, ack_every=8.
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[2], "0", "a loss-free ring needs no repair ({})", row[0]);
            assert_eq!(row[3], "0", "and skips nothing ({})", row[0]);
        }
        let peak = |row: usize| t.rows[row][4].parse::<u32>().unwrap();
        assert!(
            peak(1) > peak(0),
            "coarser ACK batching must hold buffers longer (ack1 {}, ack8 {})",
            peak(0),
            peak(1)
        );
        let control = |row: usize| t.rows[row][5].parse::<f64>().unwrap();
        assert!(
            control(1) < control(0),
            "and must save control messages (ack1 {}, ack8 {})",
            control(0),
            control(1)
        );
    }
}
