//! Run analysis: everything the experiments measure is derived from what a
//! simulation leaves behind — the protocol-event journal, and the
//! end-of-run counters ([`Finals`]) every live entity hands over at
//! teardown.
//!
//! Lives in `ringnet-core` (rather than the harness) because every
//! [`MulticastSim`](crate::driver::MulticastSim) backend summarises its run
//! here: [`Reporting`] feeds a [`MetricsAccumulator`] from the journal sink
//! and assembles the [`RunReport`]. The harness re-exports this module
//! unchanged.
//!
//! Three layers live here:
//!
//! * [`MetricsAccumulator`] — the streaming summariser: every
//!   [`RunMetrics`] field in **one scan** over the events, fed either from
//!   a finished journal slice or *online* through the simulator's journal
//!   sink (so a big sweep never materializes the journal `Vec` at all),
//!   plus one fold of the run's [`Finals`].
//! * [`Finals`] — the typed end-of-run counters, with their lookups, and
//!   the [`Harvest`] every backend's actors write them into as they stop.
//! * The standalone per-metric functions — each a separate pass over a
//!   retained journal, for what no [`RunMetrics`] field gives: the pairwise
//!   agreement check, and the journal-dependent diagnostics (per-walker
//!   deliveries, delivery gaps, token rotation, windowed rates).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use crate::driver::Scenario;
use crate::mh::MhCounters;
use crate::telemetry::NodeDump;
use crate::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::{Histogram, SimDuration, SimStats, SimTime};

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
/// events plus one fold of the run's [`Finals`]
/// ([`MetricsAccumulator::observe_finals`]), the events in any feeding
/// mode:
///
/// * **online** — [`MetricsAccumulator::observe`] from the simnet journal
///   sink as records are emitted, whether or not the journal is retained
///   (what every backend's [`Reporting`] does);
/// * **batch** — [`MetricsAccumulator::observe_journal`] over a finished
///   journal slice.
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
    /// (wired) entities, whose [`Finals`] records feed the per-core load
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

    /// Fold the run's end-of-run counters in: the walker totals, the
    /// buffer peaks, and the wired core's data and control sent.
    pub fn observe_finals(&mut self, finals: &Finals) {
        finals.mh.values().for_each(|c| self.totals.add(c));
        for (&(_, node), ne) in &finals.ne {
            self.wq_peak = self.wq_peak.max(ne.wq_peak);
            self.mq_peak = self.mq_peak.max(ne.mq_peak);
            if self.wired_core.contains(&node) {
                self.core_data_sent += ne.data_sent as u64;
                self.core_busiest = self.core_busiest.max(ne.data_sent as u64);
                self.core_control_sent += ne.control_sent as u64;
            }
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
/// merged — use `deliveries_per_mh_group` for order checks).
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
pub(crate) fn deliveries_per_mh_group(
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

/// True when no two MHs ever delivered the same pair of messages in
/// opposite relative orders (direct pairwise agreement check, stronger
/// diagnostics than [`RunMetrics::order_violations`]).
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

/// One network entity's end-of-run counters for one group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeFinal {
    /// Peak `WQ` occupancy.
    pub wq_peak: u32,
    /// Peak `MQ` occupancy.
    pub mq_peak: u32,
    /// Messages dropped on `MQ` overflow.
    pub mq_overflow: u32,
    /// Messages dropped on `WQ` overflow.
    pub wq_overflow: u32,
    /// Wired control messages sent (token, acks, nacks, heartbeats …).
    pub control_sent: u32,
    /// Data-plane messages sent.
    pub data_sent: u32,
    /// Retransmissions served to downstream requesters.
    pub retransmissions: u32,
}

/// What every entity counted over a run, handed over from
/// [`simnet::Actor::on_stop`] as the run ends: per `(group, entity)` an
/// [`NeFinal`], per `(group, walker)` its [`MhCounters`]. Counters are not
/// behaviour, so they travel beside the journal, not in it.
///
/// **Live states only.** A state that is dead at teardown — a killed
/// walker, a crashed entity that never restarted — hands over nothing. A
/// killed walker's deliveries stay in the journal but are not in
/// [`RunMetrics::delivered`], and a crashed core entity's control is not in
/// [`RunMetrics::wired_core_control_sent`]. (Telemetry, by contrast, is
/// harvested from dead nodes too: a crashed node's flight recorder is
/// postmortem evidence.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Finals {
    /// Per `(group, entity)`.
    pub ne: BTreeMap<(GroupId, NodeId), NeFinal>,
    /// Per `(group, walker)`.
    pub mh: BTreeMap<(GroupId, Guid), MhCounters>,
}

impl Finals {
    /// The walkers' counters summed.
    pub fn mh_totals(&self) -> MhTotals {
        let mut t = MhTotals::default();
        self.mh.values().for_each(|c| t.add(c));
        t
    }

    /// Peak `(WQ, MQ)` occupancy of `node`: the largest over its groups.
    pub fn buffer_peaks_of(&self, node: NodeId) -> Option<(u32, u32)> {
        self.ne
            .iter()
            .filter(|((_, n), _)| *n == node)
            .map(|(_, f)| (f.wq_peak, f.mq_peak))
            .reduce(|(wq, mq), (w, m)| (wq.max(w), mq.max(m)))
    }
}

/// What a run's actors leave behind when it stops
/// ([`simnet::Actor::on_stop`]): every backend's counters and — on the
/// RingNet-engine backends with telemetry on — each NE's merged telemetry
/// dump. It is the harvest [`simnet::Sim::finish`] returns. All of it is
/// keyed, so the order actors stop in is moot.
#[derive(Debug, Default)]
pub struct Harvest {
    /// The counters.
    pub finals: Finals,
    /// The telemetry dumps, by node.
    pub(crate) dumps: BTreeMap<NodeId, NodeDump>,
}

impl Harvest {
    /// Hand over one entity's counters for one group.
    pub fn ne(&mut self, group: GroupId, node: NodeId, counts: NeFinal) {
        self.finals.ne.insert((group, node), counts);
    }

    /// Hand over one walker's counters for one group.
    pub fn mh(&mut self, group: GroupId, mh: Guid, counts: MhCounters) {
        self.finals.mh.insert((group, mh), counts);
    }

    /// Hand over one node's merged telemetry.
    pub(crate) fn telemetry(&mut self, node: NodeId, dump: NodeDump) {
        self.dumps.insert(node, dump);
    }
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
    /// Number of live `(walker, group)` states reporting.
    pub mhs: u64,
}

impl MhTotals {
    fn add(&mut self, c: &MhCounters) {
        self.delivered += c.delivered as u64;
        self.skipped += c.skipped as u64;
        self.duplicates += c.duplicates as u64;
        self.handoffs += c.handoffs as u64;
        self.mhs += 1;
    }

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

// ------------------------------------------------------------- run report

/// Protocol-agnostic summary metrics of one finished run, derived by
/// [`MetricsAccumulator`] from the protocol events in one scan and
/// from the run's [`Finals`]. The walker totals, buffer peaks and
/// core loads count live states only (see [`Finals`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Messages delivered to applications (sum over live walker states).
    pub delivered: u64,
    /// Messages skipped as really-lost.
    pub skipped: u64,
    /// Duplicate receptions discarded.
    pub duplicates: u64,
    /// Handoffs performed.
    pub handoffs: u64,
    /// Live `(walker, group)` states at teardown: a multi-group walker
    /// counts once per subscription, a killed walker not at all.
    pub mhs: u64,
    /// Messages assigned a global sequence number (ordered protocols).
    pub ordered: u64,
    /// Source transmissions observed.
    pub source_msgs: u64,
    /// Total-order violations (must be 0 for ordered protocols):
    /// deliveries whose global sequence number does not strictly increase
    /// at some `(MH, group)` stream. Strictly increasing per-stream
    /// sequences imply pairwise-consistent total order across MHs within
    /// each group, because the sequence numbers are unique per ring.
    pub order_violations: u64,
    /// End-to-end latency samples (source send → application delivery), ns.
    pub e2e_latency: Histogram,
    /// Largest per-entity WQ occupancy peak.
    pub wq_peak: u32,
    /// Largest per-entity MQ occupancy peak.
    pub mq_peak: u32,
    /// Graft + prune events (distribution-tree churn).
    pub tree_churn: u64,
    /// Sum of data messages sent by wired-core entities.
    pub wired_core_data_sent: u64,
    /// Data messages sent by the busiest wired-core entity.
    pub busiest_core_msgs: u64,
    /// Sum of control messages sent by wired-core entities.
    pub wired_core_control_sent: u64,
}

impl RunMetrics {
    /// Fraction of messages delivered (vs delivered + skipped).
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.skipped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// Mean wired-core data copies per source message.
    pub fn wired_copies_per_msg(&self) -> f64 {
        self.wired_core_data_sent as f64 / self.source_msgs.max(1) as f64
    }
}

/// Everything a finished [`MulticastSim`](crate::driver::MulticastSim) run
/// leaves behind.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The protocol-event journal, time ordered.
    pub journal: Vec<(SimTime, ProtoEvent)>,
    /// Transport-level statistics from the simulator.
    pub stats: SimStats,
    /// Protocol-agnostic summary metrics.
    pub metrics: RunMetrics,
    /// Every live entity's and walker's end-of-run counters.
    pub finals: Finals,
    /// Harvested telemetry (per-node metrics + flight recorders), present
    /// only when the scenario enabled [`crate::config::ProtocolConfig::
    /// telemetry`] **and** the backend supports harvesting (the
    /// RingNet-engine backends — ringnet, tree, flat ring; the other
    /// baselines leave it `None`).
    pub telemetry: Option<crate::telemetry::TelemetryReport>,
}

// ------------------------------------------------------------- reporting

/// How a backend's run turns into a [`RunReport`]. Every
/// [`MulticastSim`](crate::driver::MulticastSim) backend calls
/// [`Reporting::install_journal`] right after constructing its simulator
/// and [`Reporting::finish`] at teardown. A [`MetricsAccumulator`] is
/// attached to the simulator's journal sink and fed online, and folds the
/// harvested [`Finals`] in at the end; the scenario's [`Scenario::retain_journal`] flag only decides
/// whether the journal `Vec` is kept as well (pre-sized from the scenario's
/// workload) or never materialized (the report's journal is then empty).
///
/// The sink owns its accumulator, so feeding it touches nothing shared. It
/// hands the accumulator over when the journal drops it, which every
/// simulator's `finish` does before the backend calls [`Reporting::finish`].
pub struct Reporting {
    /// Where the journal sink leaves its accumulator when it is dropped.
    slot: Rc<Cell<Option<MetricsAccumulator>>>,
}

/// The journal sink [`Reporting::install_journal`] attaches. Its closure
/// captures it whole (a type with `Drop` is never captured by field), so
/// dropping the closure hands the accumulator over.
struct StreamingSink {
    acc: MetricsAccumulator,
    slot: Rc<Cell<Option<MetricsAccumulator>>>,
}

impl Drop for StreamingSink {
    fn drop(&mut self) {
        // An empty accumulator allocates nothing.
        let acc = std::mem::replace(&mut self.acc, MetricsAccumulator::new(BTreeSet::new()));
        self.slot.set(Some(acc));
    }
}

impl Reporting {
    /// Configure journalling on `journal` per the scenario (see the type
    /// docs). `wired_core` names the backend's interior (wired) entities,
    /// so per-core load metrics compare across protocols; the last-hop
    /// attachment tier is excluded by convention (its per-member wireless
    /// cost is identical in every scheme).
    pub fn install_journal(
        journal: &mut simnet::Journal<ProtoEvent>,
        scenario: &Scenario,
        wired_core: BTreeSet<NodeId>,
    ) -> Reporting {
        if scenario.retain_journal {
            journal.reserve(scenario.journal_capacity_hint());
        } else {
            journal.set_retention(false);
        }
        let slot = Rc::new(Cell::new(None));
        let mut sink = StreamingSink {
            acc: MetricsAccumulator::new(wired_core),
            slot: Rc::clone(&slot),
        };
        journal.set_sink(move |t, e| sink.acc.observe(t, e));
        Reporting { slot }
    }

    /// Assemble the report from a finished run: the metrics the sink
    /// streamed with `finals` folded in, and `journal` as the simulator
    /// returned it (empty with retention off).
    pub fn finish(
        self,
        journal: Vec<(SimTime, ProtoEvent)>,
        stats: SimStats,
        finals: Finals,
    ) -> RunReport {
        let acc = self.slot.take();
        let mut acc = acc.expect("the simulator's finish drops the journal sink first");
        acc.observe_finals(&finals);
        RunReport {
            journal,
            stats,
            metrics: acc.finish(),
            finals,
            telemetry: None,
        }
    }
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

    /// The accumulator's metrics over one journal, with no end-of-run
    /// counters.
    fn summarise(journal: &Journal) -> RunMetrics {
        let mut acc = MetricsAccumulator::new(BTreeSet::new());
        acc.observe_journal(journal);
        acc.finish()
    }

    #[test]
    fn order_violation_detection() {
        let ok = vec![deliver(1, 0, 1), deliver(2, 0, 2), deliver(3, 1, 1)];
        assert_eq!(summarise(&ok).order_violations, 0);
        assert!(pairwise_agreement(&ok));
        let bad = vec![deliver(1, 0, 2), deliver(2, 0, 1)];
        assert_eq!(summarise(&bad).order_violations, 1);
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
        let h = summarise(&j).e2e_latency;
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), SimDuration::from_millis(35).as_nanos());
        assert_eq!(h.min(), SimDuration::from_millis(25).as_nanos());
    }

    #[test]
    fn unmatched_deliveries_are_ignored() {
        let j = vec![deliver(35, 0, 1)];
        assert_eq!(summarise(&j).e2e_latency.count(), 0);
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
        let mut finals = Finals::default();
        let counters = MhCounters {
            delivered: 90,
            skipped: 10,
            duplicates: 3,
            handoffs: 2,
        };
        finals.mh.insert((GroupId(1), Guid(0)), counters);
        let t = finals.mh_totals();
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
