//! Equivalence suite for the streaming metrics layer: for every backend, a
//! recorded journal and the run's end-of-run counters pushed through the
//! multi-pass [`oracle`] below must produce exactly the `RunMetrics` that
//! the single-pass `MetricsAccumulator` computes — fed record-by-record
//! from the simnet journal sink with journal retention on and off, and fed
//! the retained journal in one batch
//! (`MetricsAccumulator::observe_journal`).
//!
//! Also pins the scheduler-swap determinism contract at the facade level:
//! equal seeds give byte-identical journals and identical metrics.

use std::collections::BTreeSet;

use ringnet_repro::baselines::{FlatRingSim, RelmSim, TreeSim, TunnelSim, UnorderedSim};
use ringnet_repro::core::driver::{
    MulticastSim, RunReport, Scenario, ScenarioBuilder, ScenarioEvent,
};
use ringnet_repro::core::metrics::MetricsAccumulator;
use ringnet_repro::core::{NodeId, RingNetSim};
use ringnet_repro::simnet::{SimDuration, SimTime};

const SEED: u64 = 2024;

/// The oracle: every `RunMetrics` field from its own pass over the retained
/// journal or the report's end-of-run counters — the pre-accumulator
/// pipeline, kept here (and only here) as the independent reference the
/// single-pass `MetricsAccumulator` is pinned to.
mod oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use ringnet_repro::core::driver::{RunMetrics, RunReport};
    use ringnet_repro::core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
    use ringnet_repro::harness::metrics::Journal;
    use ringnet_repro::simnet::{Histogram, SimTime};

    /// Assemble [`RunMetrics`] one pass per metric, never touching the
    /// accumulator.
    pub fn multipass_metrics(report: &RunReport, wired_core: &BTreeSet<NodeId>) -> RunMetrics {
        let journal = &report.journal;
        let ne = report.finals.ne.iter().map(|(&(_, node), f)| (node, f));
        let core = || ne.clone().filter(|(node, _)| wired_core.contains(node));
        let mh = || report.finals.mh.values();
        RunMetrics {
            delivered: mh().map(|c| c.delivered as u64).sum(),
            skipped: mh().map(|c| c.skipped as u64).sum(),
            duplicates: mh().map(|c| c.duplicates as u64).sum(),
            handoffs: mh().map(|c| c.handoffs as u64).sum(),
            mhs: mh().count() as u64,
            ordered: count(journal, |e| matches!(e, ProtoEvent::Ordered { .. })),
            source_msgs: count(journal, |e| matches!(e, ProtoEvent::SourceSend { .. })),
            order_violations: order_violations(journal),
            e2e_latency: end_to_end_latency(journal),
            wq_peak: ne.clone().map(|(_, f)| f.wq_peak).max().unwrap_or(0),
            mq_peak: ne.clone().map(|(_, f)| f.mq_peak).max().unwrap_or(0),
            tree_churn: count(journal, |e| {
                matches!(e, ProtoEvent::Grafted { .. } | ProtoEvent::Pruned { .. })
            }),
            wired_core_data_sent: core().map(|(_, f)| f.data_sent as u64).sum(),
            busiest_core_msgs: core().map(|(_, f)| f.data_sent as u64).max().unwrap_or(0),
            wired_core_control_sent: core().map(|(_, f)| f.control_sent as u64).sum(),
        }
    }

    /// Journal entries matching `kind`.
    fn count(journal: &Journal, kind: impl Fn(&ProtoEvent) -> bool) -> u64 {
        journal.iter().filter(|(_, e)| kind(e)).count() as u64
    }

    /// Number of total-order violations: deliveries whose global sequence
    /// number does not strictly increase at some `(MH, group)` stream.
    fn order_violations(journal: &Journal) -> u64 {
        let mut streams: BTreeMap<(Guid, GroupId), Vec<GlobalSeq>> = BTreeMap::new();
        for (_, e) in journal {
            if let ProtoEvent::MhDeliver { group, mh, gsn, .. } = e {
                streams.entry((*mh, *group)).or_default().push(*gsn);
            }
        }
        streams
            .values()
            .flat_map(|seq| seq.windows(2))
            .filter(|w| w[1] <= w[0])
            .count() as u64
    }

    /// End-to-end latency samples: the first `SourceSend` of a message →
    /// each `MhDeliver` of it, matched by `(source, local_seq)`, in
    /// nanoseconds.
    fn end_to_end_latency(journal: &Journal) -> Histogram {
        let mut sent: BTreeMap<(NodeId, LocalSeq), SimTime> = BTreeMap::new();
        let mut h = Histogram::new();
        for (t, e) in journal {
            match e {
                ProtoEvent::SourceSend { source, local_seq } => {
                    sent.entry((*source, *local_seq)).or_insert(*t);
                }
                ProtoEvent::MhDeliver {
                    source, local_seq, ..
                } => {
                    if let Some(&t0) = sent.get(&(*source, *local_seq)) {
                        h.add(t.saturating_since(t0).as_nanos());
                    }
                }
                _ => {}
            }
        }
        h
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

/// Recover each backend's wired-core set from the report's end-of-run
/// counters and the streamed metrics: the oracle needs the same set the
/// backend summarised with, and the core-load sums identify it uniquely
/// here because every backend's core is either "every entity reporting
/// counters" (ring protocols) or a known singleton/subset whose sums the
/// streamed metrics carry. We simply try the two candidate sets and require
/// that exactly the backend's own choice reproduces its numbers — then use
/// it for the oracle. (Keeps the test independent of per-backend
/// internals.)
fn wired_core_candidates(report: &RunReport) -> Vec<BTreeSet<NodeId>> {
    let all_nes: BTreeSet<NodeId> = report.finals.ne.keys().map(|&(_, node)| node).collect();
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

    // Retention on: the journal is kept, the metrics stream from the sink.
    let retained = S::run_scenario(&sc, SEED);
    assert!(
        !retained.journal.is_empty(),
        "{name}: retention on keeps the journal"
    );

    // The oracle must agree for the backend's own wired-core set.
    let core = wired_core_candidates(&retained)
        .into_iter()
        .find(|core| oracle::multipass_metrics(&retained, core) == retained.metrics)
        .unwrap_or_else(|| {
            panic!("{name}: no wired-core candidate reproduces the metrics via the legacy passes")
        });

    // Batch: the same accumulator fed the retained journal in one pass,
    // and the same counters.
    let mut batch = MetricsAccumulator::new(core);
    batch.observe_journal(&retained.journal);
    batch.observe_finals(&retained.finals);
    assert_eq!(
        batch.finish(),
        retained.metrics,
        "{name}: batch pass diverged from the streamed metrics"
    );

    // Retention off: no journal, the same streamed metrics.
    let mut streaming_sc = sc.clone();
    streaming_sc.retain_journal = false;
    let online = S::run_scenario(&streaming_sc, SEED);
    assert!(
        online.journal.is_empty(),
        "{name}: retention off materializes no journal"
    );
    assert_eq!(
        online.metrics, retained.metrics,
        "{name}: metrics diverged between retention modes"
    );
    assert_eq!(
        online.finals, retained.finals,
        "{name}: end-of-run counters diverged between retention modes"
    );
    assert_eq!(
        online.stats, retained.stats,
        "{name}: transport stats diverged between retention modes"
    );

    // Determinism across runs (scheduler-swap contract): byte-identical
    // journals and metrics for equal seeds.
    let again = S::run_scenario(&sc, SEED);
    assert_eq!(
        again.journal, retained.journal,
        "{name}: journal not replayed"
    );
    assert_eq!(
        again.metrics, retained.metrics,
        "{name}: metrics not replayed"
    );
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
