//! Journal analysis: everything the experiments measure is derived from
//! the protocol-event journal a simulation leaves behind.
//!
//! Lives in `ringnet-core` (rather than the harness) because every
//! [`MulticastSim`](crate::driver::MulticastSim) backend summarises its run
//! through [`MetricsAccumulator`] when building a
//! [`RunReport`](crate::driver::RunReport); the harness re-exports this
//! module unchanged.
//!
//! Two layers live here:
//!
//! * [`MetricsAccumulator`] — the streaming summariser: every
//!   [`RunMetrics`] field in **one scan** over the events, fed either from
//!   a finished journal slice or *online* through the simulator's journal
//!   sink (so a big sweep never materializes the journal `Vec` at all).
//! * The standalone per-metric functions below it — each a separate pass
//!   over a retained journal: the order checks, and the journal-dependent
//!   diagnostics (delivery gaps, token rotation, windowed rates) that only
//!   make sense with a retained journal.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::driver::RunMetrics;
use crate::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::{Histogram, SimDuration, SimTime};

/// FxHash-style multiply-rotate hasher (the rustc hash): not DoS-hardened
/// — irrelevant for simulation-internal integer keys — and several times
/// faster than SipHash on the small fixed-width keys the metrics hot path
/// looks up once per delivery.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

// ringlint: allow(determinism) — audited: every FxMap here is keyed-lookup-only
// (entry/get per delivery); nothing iterates one, and every emitted aggregate is
// accumulated into scalars/Histograms or ordered via BTree collections before
// emission, so the unspecified iteration order can never reach a journal or
// report. Iteration over these maps would itself be flagged by this rule.
type FxMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Computes every [`RunMetrics`] field in a single pass over the protocol
/// events, in any feeding mode:
///
/// * **batch** — [`MetricsAccumulator::observe_journal`] over a finished
///   journal slice (what [`RunReport::new`](crate::driver::RunReport::new)
///   does);
/// * **online** — [`MetricsAccumulator::observe`] from the simnet journal
///   sink as records are emitted, with journal retention off (see
///   [`Reporting`](crate::driver::Reporting)).
///
/// Feeding the same events in the same order produces identical
/// [`RunMetrics`] either way; `tests/metrics_equivalence.rs` holds both
/// modes against a multi-pass oracle for all six backends.
#[derive(Debug, Clone)]
pub struct MetricsAccumulator {
    wired_core: BTreeSet<NodeId>,
    totals: MhTotals,
    ordered: u64,
    source_msgs: u64,
    order_violations: u64,
    /// Last delivered GSN per `(MH, group)` (order-violation check —
    /// each group's ring numbers its own GSN stream).
    last_gsn: FxMap<(Guid, GroupId), GlobalSeq>,
    /// First `SourceSend` time per `(source, local_seq)` (latency matching).
    sent: FxMap<(NodeId, LocalSeq), SimTime>,
    e2e: Histogram,
    wq_peak: u32,
    mq_peak: u32,
    tree_churn: u64,
    core_data_sent: u64,
    core_busiest: u64,
    core_control_sent: u64,
}

impl MetricsAccumulator {
    /// An empty accumulator. `wired_core` names the backend's interior
    /// (wired) entities, whose `NeFinal` records feed the per-core load
    /// metrics.
    pub fn new(wired_core: BTreeSet<NodeId>) -> Self {
        MetricsAccumulator {
            wired_core,
            totals: MhTotals::default(),
            ordered: 0,
            source_msgs: 0,
            order_violations: 0,
            last_gsn: FxMap::default(),
            sent: FxMap::default(),
            e2e: Histogram::new(),
            wq_peak: 0,
            mq_peak: 0,
            tree_churn: 0,
            core_data_sent: 0,
            core_busiest: 0,
            core_control_sent: 0,
        }
    }

    /// Fold one event in. Events must arrive in journal (emission) order.
    #[inline]
    pub fn observe(&mut self, t: SimTime, e: &ProtoEvent) {
        match *e {
            ProtoEvent::SourceSend { source, local_seq } => {
                self.source_msgs += 1;
                self.sent.entry((source, local_seq)).or_insert(t);
            }
            ProtoEvent::Ordered { .. } => self.ordered += 1,
            ProtoEvent::MhDeliver {
                group,
                mh,
                gsn,
                source,
                local_seq,
            } => {
                match self.last_gsn.entry((mh, group)) {
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        if gsn <= *o.get() {
                            self.order_violations += 1;
                        }
                        o.insert(gsn);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(gsn);
                    }
                }
                if let Some(&t0) = self.sent.get(&(source, local_seq)) {
                    self.e2e.add(t.saturating_since(t0).as_nanos());
                }
            }
            ProtoEvent::MhFinal {
                delivered,
                skipped,
                duplicates,
                handoffs,
                ..
            } => {
                self.totals.delivered += delivered as u64;
                self.totals.skipped += skipped as u64;
                self.totals.duplicates += duplicates as u64;
                self.totals.handoffs += handoffs as u64;
                self.totals.mhs += 1;
            }
            ProtoEvent::NeFinal {
                node,
                wq_peak,
                mq_peak,
                data_sent,
                control_sent,
                ..
            } => {
                self.wq_peak = self.wq_peak.max(wq_peak);
                self.mq_peak = self.mq_peak.max(mq_peak);
                if self.wired_core.contains(&node) {
                    self.core_data_sent += data_sent as u64;
                    self.core_busiest = self.core_busiest.max(data_sent as u64);
                    self.core_control_sent += control_sent as u64;
                }
            }
            ProtoEvent::Grafted { .. } | ProtoEvent::Pruned { .. } => self.tree_churn += 1,
            _ => {}
        }
    }

    /// Fold a whole journal in — the single batch pass.
    pub fn observe_journal(&mut self, journal: &Journal) {
        for (t, e) in journal {
            self.observe(*t, e);
        }
    }

    /// Consume the accumulator into the finished metrics.
    pub fn finish(self) -> RunMetrics {
        RunMetrics {
            delivered: self.totals.delivered,
            skipped: self.totals.skipped,
            duplicates: self.totals.duplicates,
            handoffs: self.totals.handoffs,
            mhs: self.totals.mhs,
            ordered: self.ordered,
            source_msgs: self.source_msgs,
            order_violations: self.order_violations,
            e2e_latency: self.e2e,
            wq_peak: self.wq_peak,
            mq_peak: self.mq_peak,
            tree_churn: self.tree_churn,
            wired_core_data_sent: self.core_data_sent,
            busiest_core_msgs: self.core_busiest,
            wired_core_control_sent: self.core_control_sent,
        }
    }
}

/// A journal slice, as returned by the engines' `finish()`.
pub type Journal = [(SimTime, ProtoEvent)];

/// Per-MH delivery records: `(time, gsn)` in delivery order (all groups
/// merged — use [`deliveries_per_mh_group`] for order checks).
pub fn deliveries_per_mh(journal: &Journal) -> BTreeMap<Guid, Vec<(SimTime, GlobalSeq)>> {
    let mut map: BTreeMap<Guid, Vec<(SimTime, GlobalSeq)>> = BTreeMap::new();
    for (t, e) in journal {
        if let ProtoEvent::MhDeliver { mh, gsn, .. } = e {
            map.entry(*mh).or_default().push((*t, *gsn));
        }
    }
    map
}

/// Per-`(MH, group)` delivery records: `(time, gsn)` in delivery order.
/// GSN streams are only comparable within one group's ring.
pub fn deliveries_per_mh_group(
    journal: &Journal,
) -> BTreeMap<(Guid, GroupId), Vec<(SimTime, GlobalSeq)>> {
    let mut map: BTreeMap<(Guid, GroupId), Vec<(SimTime, GlobalSeq)>> = BTreeMap::new();
    for (t, e) in journal {
        if let ProtoEvent::MhDeliver { group, mh, gsn, .. } = e {
            map.entry((*mh, *group)).or_default().push((*t, *gsn));
        }
    }
    map
}

/// Number of total-order violations: deliveries whose global sequence
/// number does not strictly increase at some `(MH, group)` stream. Zero
/// for a correct run. (Strictly increasing per-stream sequences imply
/// pairwise-consistent total order across MHs within each group, because
/// the sequence numbers are unique per ring.)
pub fn order_violations(journal: &Journal) -> u64 {
    let mut violations = 0;
    for (_, seq) in deliveries_per_mh_group(journal) {
        for w in seq.windows(2) {
            if w[1].1 <= w[0].1 {
                violations += 1;
            }
        }
    }
    violations
}

/// True when no two MHs ever delivered the same pair of messages in
/// opposite relative orders (direct pairwise agreement check, stronger
/// diagnostics than [`order_violations`]).
///
/// Position maps are built once per MH — a duplicate GSN within a single
/// stream is itself a disagreement (the old diagonal self-check) — and
/// each unordered pair is checked once: an inversion between `a` and `b`
/// is the same inversion between `b` and `a`.
pub fn pairwise_agreement(journal: &Journal) -> bool {
    let per = deliveries_per_mh_group(journal);
    let mut by_group: BTreeMap<GroupId, Vec<Vec<GlobalSeq>>> = BTreeMap::new();
    for ((_, group), v) in &per {
        by_group
            .entry(*group)
            .or_default()
            .push(v.iter().map(|(_, g)| *g).collect());
    }
    by_group
        .values()
        .all(|orders| pairwise_agreement_within(orders))
}

fn pairwise_agreement_within(orders: &[Vec<GlobalSeq>]) -> bool {
    let mut positions: Vec<FxMap<GlobalSeq, usize>> = Vec::with_capacity(orders.len());
    for order in orders {
        let mut pos = FxMap::with_capacity_and_hasher(order.len(), Default::default());
        for (i, g) in order.iter().enumerate() {
            if pos.insert(*g, i).is_some() {
                return false; // one MH delivered the same message twice
            }
        }
        positions.push(pos);
    }
    for (ai, a) in orders.iter().enumerate() {
        for pos_b in positions.iter().skip(ai + 1) {
            // Positions of shared messages must increase along `a`'s order.
            let mut last: Option<usize> = None;
            for g in a {
                let Some(&p) = pos_b.get(g) else { continue };
                if last.is_some_and(|l| p <= l) {
                    return false;
                }
                last = Some(p);
            }
        }
    }
    true
}

/// End-to-end latency samples: reception at the corresponding node
/// (`SourceSend`) → application delivery at each MH (`MhDeliver`), matched
/// by `(source, local_seq)`. Returns a histogram of nanoseconds.
pub fn end_to_end_latency(journal: &Journal) -> Histogram {
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

/// Mean per-MH delivery rate (messages/second) within `[from, to]`.
pub fn delivery_rate(journal: &Journal, from: SimTime, to: SimTime) -> f64 {
    let span = to.saturating_since(from).as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    let per = deliveries_per_mh(journal);
    if per.is_empty() {
        return 0.0;
    }
    let total: usize = per
        .values()
        .map(|v| v.iter().filter(|(t, _)| *t >= from && *t <= to).count())
        .sum();
    total as f64 / per.len() as f64 / span
}

/// Aggregate final per-MH counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MhTotals {
    /// Messages delivered to applications.
    pub delivered: u64,
    /// Messages skipped as really-lost.
    pub skipped: u64,
    /// Duplicate receptions discarded.
    pub duplicates: u64,
    /// Handoffs performed.
    pub handoffs: u64,
    /// Number of MHs reporting.
    pub mhs: u64,
}

impl MhTotals {
    /// Fraction of messages delivered (vs delivered + skipped).
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.skipped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }
}

/// Sum the `MhFinal` records.
pub fn mh_totals(journal: &Journal) -> MhTotals {
    let mut t = MhTotals::default();
    for (_, e) in journal {
        if let ProtoEvent::MhFinal {
            delivered,
            skipped,
            duplicates,
            handoffs,
            ..
        } = e
        {
            t.delivered += *delivered as u64;
            t.skipped += *skipped as u64;
            t.duplicates += *duplicates as u64;
            t.handoffs += *handoffs as u64;
            t.mhs += 1;
        }
    }
    t
}

/// Peak buffer occupancy of one specific entity.
pub fn buffer_peaks_of(journal: &Journal, node: NodeId) -> Option<(u32, u32)> {
    journal.iter().find_map(|(_, e)| match e {
        ProtoEvent::NeFinal {
            node: n,
            wq_peak,
            mq_peak,
            ..
        } if *n == node => Some((*wq_peak, *mq_peak)),
        _ => None,
    })
}

/// The largest gap between consecutive application deliveries at `mh`
/// within `[from, to]` — the disruption metric for handoff experiments.
pub fn max_delivery_gap(
    journal: &Journal,
    mh: Guid,
    from: SimTime,
    to: SimTime,
) -> Option<SimDuration> {
    let per = deliveries_per_mh(journal);
    let seq = per.get(&mh)?;
    let times: Vec<SimTime> = seq
        .iter()
        .map(|(t, _)| *t)
        .filter(|t| *t >= from && *t <= to)
        .collect();
    if times.len() < 2 {
        return None;
    }
    times.windows(2).map(|w| w[1].saturating_since(w[0])).max()
}

/// Mean interval between `TokenPass` events observed at `node` — the
/// empirical token rotation time.
pub fn token_rotation_period(journal: &Journal, node: NodeId) -> Option<SimDuration> {
    let times: Vec<SimTime> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::TokenPass { node: n, .. } if *n == node => Some(*t),
            _ => None,
        })
        .collect();
    if times.len() < 2 {
        return None;
    }
    let span = times
        .last()
        .expect("guarded above: at least two pass times")
        .saturating_since(times[0]);
    Some(SimDuration::from_nanos(
        span.as_nanos() / (times.len() as u64 - 1),
    ))
}

/// Count of graft + prune events — distribution-tree maintenance churn
/// (zero for backends without a shared tree, e.g. tunnelling).
pub fn tree_churn(journal: &Journal) -> u64 {
    journal
        .iter()
        .filter(|(_, e)| matches!(e, ProtoEvent::Grafted { .. } | ProtoEvent::Pruned { .. }))
        .count() as u64
}

/// Number of source transmissions observed (`SourceSend` records).
pub fn source_msgs(journal: &Journal) -> u64 {
    journal
        .iter()
        .filter(|(_, e)| matches!(e, ProtoEvent::SourceSend { .. }))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(t: u64, mh: u32, gsn: u64) -> (SimTime, ProtoEvent) {
        (
            SimTime::from_millis(t),
            ProtoEvent::MhDeliver {
                group: GroupId(1),
                mh: Guid(mh),
                gsn: GlobalSeq(gsn),
                source: NodeId(0),
                local_seq: LocalSeq(gsn),
            },
        )
    }

    fn send(t: u64, ls: u64) -> (SimTime, ProtoEvent) {
        (
            SimTime::from_millis(t),
            ProtoEvent::SourceSend {
                source: NodeId(0),
                local_seq: LocalSeq(ls),
            },
        )
    }

    #[test]
    fn order_violation_detection() {
        let ok = vec![deliver(1, 0, 1), deliver(2, 0, 2), deliver(3, 1, 1)];
        assert_eq!(order_violations(&ok), 0);
        assert!(pairwise_agreement(&ok));
        let bad = vec![deliver(1, 0, 2), deliver(2, 0, 1)];
        assert_eq!(order_violations(&bad), 1);
    }

    #[test]
    fn pairwise_duplicate_within_one_stream_detected() {
        // The legacy diagonal self-check caught an MH delivering the same
        // GSN twice; the pair-halved rewrite must keep catching it.
        let j = vec![deliver(1, 0, 1), deliver(2, 0, 1)];
        assert!(!pairwise_agreement(&j));
        // ... even when another MH delivered it once.
        let j2 = vec![deliver(1, 0, 1), deliver(1, 1, 1), deliver(2, 1, 1)];
        assert!(!pairwise_agreement(&j2));
    }

    #[test]
    fn pairwise_disagreement_detected() {
        // MH0 sees 1 then 2; MH1 sees 2 then 1. Each individually broken
        // too, but the pairwise check must catch the disagreement.
        let j = vec![
            deliver(1, 0, 1),
            deliver(2, 0, 2),
            deliver(1, 1, 2),
            deliver(2, 1, 1),
        ];
        assert!(!pairwise_agreement(&j));
    }

    #[test]
    fn latency_matching() {
        let j = vec![send(10, 1), deliver(35, 0, 1), deliver(45, 1, 1)];
        let h = end_to_end_latency(&j);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), SimDuration::from_millis(35).as_nanos());
        assert_eq!(h.min(), SimDuration::from_millis(25).as_nanos());
    }

    #[test]
    fn unmatched_deliveries_are_ignored() {
        let j = vec![deliver(35, 0, 1)];
        assert_eq!(end_to_end_latency(&j).count(), 0);
    }

    #[test]
    fn delivery_rate_window() {
        let mut j = Vec::new();
        for i in 0..100 {
            j.push(deliver(i * 10, 0, i + 1)); // 100 msg/s for 1 s
        }
        let rate = delivery_rate(&j, SimTime::ZERO, SimTime::from_secs(1));
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
        // Window excludes everything → 0.
        assert_eq!(
            delivery_rate(&j, SimTime::from_secs(10), SimTime::from_secs(11)),
            0.0
        );
    }

    #[test]
    fn totals_and_ratio() {
        let j = vec![(
            SimTime::ZERO,
            ProtoEvent::MhFinal {
                group: GroupId(1),
                mh: Guid(0),
                delivered: 90,
                skipped: 10,
                duplicates: 3,
                handoffs: 2,
            },
        )];
        let t = mh_totals(&j);
        assert_eq!(t.delivered, 90);
        assert!((t.delivery_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(MhTotals::default().delivery_ratio(), 1.0);
    }

    #[test]
    fn gap_measurement() {
        let j = vec![deliver(0, 0, 1), deliver(10, 0, 2), deliver(250, 0, 3)];
        let gap = max_delivery_gap(&j, Guid(0), SimTime::ZERO, SimTime::from_secs(1)).unwrap();
        assert_eq!(gap, SimDuration::from_millis(240));
        assert!(max_delivery_gap(&j, Guid(9), SimTime::ZERO, SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn token_rotation_mean() {
        let j: Vec<(SimTime, ProtoEvent)> = (0..5)
            .map(|i| {
                (
                    SimTime::from_millis(20 * i),
                    ProtoEvent::TokenPass {
                        group: GroupId(1),
                        node: NodeId(0),
                        rotation: i,
                        epoch: crate::Epoch(0),
                        next_gsn: GlobalSeq(1),
                    },
                )
            })
            .collect();
        assert_eq!(
            token_rotation_period(&j, NodeId(0)),
            Some(SimDuration::from_millis(20))
        );
        assert_eq!(token_rotation_period(&j, NodeId(1)), None);
    }
}
