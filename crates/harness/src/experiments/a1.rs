//! A1 — ablations of the protocol's design choices (DESIGN.md §5).
//!
//! Three knobs, each isolated on the same workload:
//!
//! * **WTSNP retention** (rotations an assignment stays in the token) and
//!   **OldOrderingToken** (§4.1 keeps two token versions): together they
//!   set how long after its token a pre-order may still arrive and be
//!   copied by Order-Assignment. Since the copy became event-driven that
//!   window is used only on the *repair path* — a pre-order lost on the
//!   ring and re-fetched after its token has passed. On a loss-free ring
//!   every pre-order precedes its token and both knobs are inert; on a
//!   lossy ring a window too short for the pre-order repair
//!   hands the hole to `MQ`-level NACKs, visible as retransmissions.
//! * **ACK batching** (`ack_every`): fewer ACKs mean longer retention and
//!   larger buffer peaks — the empirical slack factor of T3 at work. The
//!   `core ctl / delivery` column prices the other side of the trade: a hop
//!   acknowledges only a front that moved, so batching saves control
//!   messages exactly as far as several moves share one ACK.

use ringnet_core::driver::hierarchy_core;
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{GroupId, HierarchyBuilder, NodeId, ProtoEvent, ProtocolConfig};
use simnet::{LossModel, SimDuration, SimTime};

use crate::experiments::{loss_free_links, run_spec};
use crate::metrics;
use crate::report::{fms, Table};

struct Point {
    p99: SimDuration,
    retransmissions: u64,
    skips: u64,
    mq_peak: u32,
    /// Wired-core control messages per application delivery.
    control_per_delivery: f64,
}

/// Loss on every top-ring link of the "lossy ring" rows.
const RING_LOSS: f64 = 0.05;

fn measure(cfg: ProtocolConfig, lossy_ring: bool, duration: SimTime) -> Point {
    let mut links = loss_free_links();
    if lossy_ring {
        links.top_ring = links.top_ring.with_loss(LossModel::Bernoulli(RING_LOSS));
    }
    let spec = HierarchyBuilder::new(GroupId(1))
        .brs(4)
        .ag_rings(2, 2)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(2)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(5),
        })
        .config(cfg)
        .links(links)
        .build();
    let mut totals = metrics::MetricsAccumulator::new(hierarchy_core(&spec));
    let journal = run_spec(spec, 23, duration);
    totals.observe_journal(&journal);
    let totals = totals.finish();
    let h = metrics::end_to_end_latency(&journal);
    let retransmissions = journal
        .iter()
        .map(|(_, e)| match e {
            ProtoEvent::NeFinal {
                retransmissions, ..
            } => *retransmissions as u64,
            _ => 0,
        })
        .sum();
    let skips = metrics::mh_totals(&journal).skipped;
    let mut mq_peak = 0;
    for br in 0..4u32 {
        if let Some((_, mq)) = metrics::buffer_peaks_of(&journal, NodeId(br)) {
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
        "Ablations: WTSNP retention, old-token keeping, ACK batching",
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
    let mut variants: Vec<(String, ProtocolConfig, bool)> = Vec::new();
    let retentions: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3] };
    // The two knobs interact: the old-token copy extends an entry's local
    // visibility by a full rotation, masking short retention. The combined
    // variant strips both.
    let stripped = ProtocolConfig {
        wtsnp_retain_rotations: 1,
        keep_old_token: false,
        ..ProtocolConfig::default()
    };
    for lossy_ring in [false, true] {
        let world = if lossy_ring {
            "5% ring loss"
        } else {
            "loss-free"
        };
        for &r in retentions {
            let c = ProtocolConfig {
                wtsnp_retain_rotations: r,
                ..ProtocolConfig::default()
            };
            variants.push((format!("retention={r} ({world})"), c, lossy_ring));
        }
        variants.push((
            format!("retention=1 + no old ({world})"),
            stripped.clone(),
            lossy_ring,
        ));
    }
    let no_old = ProtocolConfig {
        keep_old_token: false,
        ..ProtocolConfig::default()
    };
    variants.push(("no OldOrderingToken".into(), no_old, false));
    let acks: &[u8] = if quick { &[1, 8] } else { &[1, 4, 16] };
    for &a in acks {
        let c = ProtocolConfig {
            ack_every: a,
            ..ProtocolConfig::default()
        };
        variants.push((format!("ack_every={a}"), c, false));
    }
    for (name, cfg, lossy_ring) in variants {
        let p = measure(cfg, lossy_ring, duration);
        table.row(vec![
            name,
            fms(p.p99),
            p.retransmissions.to_string(),
            p.skips.to_string(),
            p.mq_peak.to_string(),
            format!("{:.3}", p.control_per_delivery),
        ]);
    }
    table.note("defaults: retention=2, old token kept, ack_every=2");
    table.note("loss-free rows are flat on purpose: every pre-order precedes its token and Order-Assignment copies on token arrival, so neither retention nor the old snapshot is ever consulted (while the copy waited for a τ tick these rows showed 2373 retransmissions on a loss-free ring — repairs of holes the tick itself opened)");
    table.note("retention and the old snapshot matter only on the repair path (5% ring loss rows): a pre-order re-fetched after its token is copied on arrival while a kept snapshot still covers it; with both stripped the hole falls to MQ-level NACKs and costs extra retransmissions");
    table.note("ACK batching trades control messages (last column) for buffer residency; the saving is small because a hop acknowledges only a front that moved, so ack_every=1 costs what the default does");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_ablation_effects_visible() {
        let t = run(true);
        // Rows: retention=1, retention=2, stripped — loss-free, then the
        // same three at 5% ring loss — then no-old-token, ack_every=1, 8.
        assert_eq!(t.rows.len(), 9);
        let repairs = |row: usize| t.rows[row][2].parse::<u64>().unwrap();
        for row in 0..3 {
            assert_eq!(repairs(row), 0, "a loss-free ring needs no repair");
        }
        assert!(repairs(4) > 0, "a lossy ring does");
        assert!(
            repairs(5) > repairs(4),
            "stripping both retention mechanisms must cost repairs on the repair path"
        );
        let peak_ack1: u32 = t.rows[7][4].parse().unwrap();
        let peak_ack8: u32 = t.rows[8][4].parse().unwrap();
        assert!(
            peak_ack8 >= peak_ack1,
            "coarser ACK batching must not shrink buffers (ack1 {peak_ack1}, ack8 {peak_ack8})"
        );
        let control = |row: usize| t.rows[row][5].parse::<f64>().unwrap();
        assert!(
            control(8) < control(7),
            "nor may it cost control messages (ack1 {}, ack8 {})",
            control(7),
            control(8)
        );
        // Every variant still delivers (skips bounded).
        for row in &t.rows {
            let skips: u64 = row[3].parse().unwrap();
            assert!(skips < 100, "variant {} skipped {skips}", row[0]);
        }
    }
}
