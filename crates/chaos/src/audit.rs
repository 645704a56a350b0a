//! The total-order / reliability auditor.
//!
//! An [`Auditor`] folds protocol events in one at a time, in journal
//! (emission) order, and checks the protocol's safety claims **per
//! delivery**, not as an after-the-fact summary. Every caller today feeds
//! it a retained journal after the run ([`Auditor::observe_journal`]); the
//! per-event [`Auditor::observe`] is the same path, so a journal sink could
//! feed it during the run instead. The checks:
//!
//! * **Total order**: every walker's delivered global sequence numbers
//!   strictly increase *per group* (each group runs its own token ring, so
//!   each group is its own GSN space), and the per-group
//!   `GSN ↔ (source, local_seq)` mapping agreed on by ordering nodes and
//!   walkers is a function — no GSN is assigned or delivered for two
//!   different messages, which together with per-walker monotonicity gives
//!   pairwise agreement across members of a group.
//! * **Cross-group agreement** (checked at [`Auditor::finish`]): any two
//!   messages that were ordered in two or more *common* groups got GSNs
//!   whose relative order agrees in every common group. With per-walker
//!   per-group monotonicity this is exactly the fence promise: two
//!   overlapping multicasts deliver in the same relative order at every
//!   common subscriber, no matter which of its rings delivered them.
//! * **No duplicates**: no walker delivers the same GSN twice in a group,
//!   no ordering node assigns the same `(group, GSN)` twice.
//! * **Per-stream FIFO**: per `(walker, group, stream)` the per-source
//!   sequence numbers strictly increase (the one safety property even the
//!   unordered baseline promises).
//! * **Gap-freedom**: a walker's merged deliver/skip chain advances by
//!   exactly one GSN at a time after its join point — a message can be
//!   *skipped* (really lost, and recorded as such) but never silently
//!   dropped. Only meaningful for backends that record per-GSN skips (the
//!   RingNet-engine family).
//! * **Liveness** (optional, checked at [`Auditor::finish`]): every
//!   non-exempt walker delivered or skipped something (in any of its
//!   groups) within the closing window of the run — faults must heal, not
//!   strand members.
//!
//! The first violation is kept with full context; later events still feed
//! the counters so a report can say how widespread the damage was.
//!
//! # State layout
//!
//! The per-event work is array indexing, not tree search:
//!
//! * **GSN tables.** One per group, in a first-seen list. Each is a `Vec`
//!   of slots indexed by GSN; a slot holds the `(source, local_seq)` the
//!   GSN was first seen to mean and the node of its latest `Ordered`
//!   record.
//! * **Walker rows.** A `Vec` indexed by [`Guid`]. A row lists the
//!   walker's `(group, state)` pairs in first-seen order; the state is its
//!   deliver/skip chain position, its last progress time and its
//!   per-stream FIFO fronts, a `Vec` indexed by interned source. Sources
//!   are interned because the fence funnels' virtual ids sit at
//!   `0xFFFF_0000` and up.
//! * **Cross-group records.** Each `Ordered` record appends
//!   `(source, local_seq, group, gsn)` to one `Vec`. [`Auditor::finish`]
//!   sorts it stably by message, so each message's records stay in journal
//!   order.
//!
//! **Spill rule.** An id (GSN, walker, source) at most 4 096 past the end
//! of its table grows the table; one further out goes to that table's
//! `BTreeMap` instead, and moves into the `Vec` if the table later grows
//! over it. Memory therefore follows the ids a journal uses, not their
//! values: a forged `GlobalSeq(u64::MAX)` costs one map entry.
//!
//! **Cost.** On the benchmark's four workloads the batch pass costs 18–38
//! ns per journal entry (`chaos.audit.ns_per_entry`, traced runs on a
//! 2-core shared host). With the state in five `BTreeMap`s keyed by tuples
//! it cost 174–403 ns on the same workloads; the metrics accumulator costs
//! 11–23. EXPERIMENTS.md, "Where a `chaos_stress_12` host second goes",
//! has the readings.

use std::collections::BTreeMap;
use std::fmt;

use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::{SimDuration, SimTime};

/// What kind of safety property a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A walker delivered a GSN ≤ one it had already delivered in the same
    /// group.
    OrderInversion,
    /// A walker delivered the same `(group, GSN)` twice.
    DuplicateDelivery,
    /// An ordering node assigned the same `(group, GSN)` twice.
    DuplicateAssignment,
    /// The same `(group, GSN)` was observed for two different
    /// `(source, local_seq)` messages (ordering nodes and walkers disagree
    /// on what the GSN is).
    AssignmentMismatch,
    /// Per `(walker, group, stream)` sequence numbers did not strictly
    /// increase.
    FifoViolation,
    /// A walker's deliver/skip chain jumped over a GSN with no skip record.
    GsnGap,
    /// Two messages ordered in ≥ 2 common groups got GSNs whose relative
    /// order differs between two of those groups — the cross-group fence
    /// let overlapping multicasts swap on one of the rings.
    CrossGroupOrder,
    /// A walker went silent: nothing delivered or skipped within the
    /// closing liveness window.
    Silence,
    /// Ordering never demonstrably resumed after the last scheduled
    /// recovery event (e.g. a ring rejoin): no delivery at or after it.
    OrderingStalled,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::OrderInversion => "order inversion",
            ViolationKind::DuplicateDelivery => "duplicate delivery",
            ViolationKind::DuplicateAssignment => "duplicate GSN assignment",
            ViolationKind::AssignmentMismatch => "GSN/message mismatch",
            ViolationKind::FifoViolation => "per-stream FIFO violation",
            ViolationKind::GsnGap => "unexplained GSN gap",
            ViolationKind::CrossGroupOrder => "cross-group order divergence",
            ViolationKind::Silence => "walker silent in liveness window",
            ViolationKind::OrderingStalled => "ordering stalled after recovery",
        };
        f.write_str(s)
    }
}

/// One detected safety violation, with the context needed to chase it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulation time of the offending event (end of run for
    /// [`ViolationKind::Silence`]).
    pub at: SimTime,
    /// Which property broke.
    pub kind: ViolationKind,
    /// Human-readable context: walker, GSN, expected vs observed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.kind, self.detail)
    }
}

/// Liveness configuration (see [`AuditConfig::liveness`]).
#[derive(Debug, Clone)]
pub struct LivenessCheck {
    /// Every audited walker must deliver or skip something within this
    /// window before the end of the run.
    pub window: SimDuration,
    /// The walkers expected to be live at the end of the run.
    pub walkers: Vec<u32>,
}

/// Which checks the auditor runs — not every backend makes every promise.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// GSN-based checks: per-walker per-group monotonicity, duplicate
    /// assignment, assignment agreement, cross-group order agreement.
    /// Every backend makes these promises; on the unordered comparator,
    /// which orders each stream as a group of its own, they are per stream,
    /// and the cross-group check is vacuous (each message is in one group).
    pub check_gsn_order: bool,
    /// Gap-freedom of the merged deliver/skip chain. Only for backends
    /// that record per-GSN skips (the RingNet-engine family).
    pub check_gap_freedom: bool,
    /// End-of-run liveness (None = not checked).
    pub liveness: Option<LivenessCheck>,
    /// Require at least one application delivery at or after this time —
    /// the post-rejoin total-order check: a ring rejoin (or other
    /// recovery) must leave the ordering pipeline demonstrably running,
    /// not just the walkers un-stranded. (None = not checked.)
    pub ordering_resumed_after: Option<SimTime>,
}

impl Default for AuditConfig {
    /// Full safety checks, no liveness.
    fn default() -> Self {
        AuditConfig {
            check_gsn_order: true,
            check_gap_freedom: true,
            liveness: None,
            ordering_resumed_after: None,
        }
    }
}

/// Everything the auditor saw, summarised. Produced by [`Auditor::finish`].
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The first violation, with context (None = clean run).
    pub first_violation: Option<Violation>,
    /// Total violations observed (the first is kept verbatim).
    pub violations: u64,
    /// Application deliveries audited.
    pub deliveries: u64,
    /// Skip records audited.
    pub skips: u64,
    /// Distinct walkers that delivered or skipped something.
    pub walkers_seen: usize,
    /// Messages seen ordered in two or more groups (the population the
    /// cross-group agreement check ran over; `0` in single-group worlds).
    pub cross_group_messages: usize,
}

impl AuditReport {
    /// True when no check tripped.
    pub fn is_clean(&self) -> bool {
        self.first_violation.is_none()
    }
}

/// How far past the dense end of a [`Dense`] table an id may land and
/// still grow it. An id further out goes to the table's spill map, so a
/// forged id costs one map entry, never a vector sized by its value.
const DENSE_SLACK: u64 = 4096;

/// A table indexed by a small integer id — a GSN, a walker's [`Guid`], a
/// [`NodeId`]. Ids up to [`DENSE_SLACK`] past the end of `rows` grow it;
/// ids beyond spill into an ordered map. When `rows` grows over spilled
/// ids they move in, so every id lives in exactly one place.
#[derive(Debug)]
struct Dense<T> {
    rows: Vec<T>,
    spill: BTreeMap<u64, T>,
}

impl<T> Default for Dense<T> {
    fn default() -> Self {
        Dense {
            rows: Vec::new(),
            spill: BTreeMap::new(),
        }
    }
}

impl<T: Default> Dense<T> {
    fn get(&self, id: u64) -> Option<&T> {
        if id < self.rows.len() as u64 {
            Some(&self.rows[id as usize])
        } else {
            self.spill.get(&id)
        }
    }

    /// The row for `id`, created empty if it is new.
    #[inline]
    fn entry(&mut self, id: u64) -> &mut T {
        if id < self.rows.len() as u64 {
            return &mut self.rows[id as usize];
        }
        self.entry_past_end(id)
    }

    /// [`Dense::entry`] for an id past the end of `rows`: grow them or
    /// spill.
    #[cold]
    fn entry_past_end(&mut self, id: u64) -> &mut T {
        let len = self.rows.len() as u64;
        if id - len >= DENSE_SLACK {
            return self.spill.entry(id).or_default();
        }
        self.rows.resize_with(id as usize + 1, T::default);
        if !self.spill.is_empty() {
            let above = self.spill.split_off(&(id + 1));
            for (k, row) in std::mem::replace(&mut self.spill, above) {
                self.rows[k as usize] = row;
            }
        }
        &mut self.rows[id as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.rows.iter().chain(self.spill.values())
    }
}

/// What one `(group, GSN)` has been seen to mean.
#[derive(Debug, Clone, Copy, Default)]
struct GsnSlot {
    /// The `(source, local_seq)` first seen for it, from either side.
    meaning: Option<(NodeId, LocalSeq)>,
    /// The node of the latest `Ordered` record that assigned it.
    assigned: Option<NodeId>,
}

/// One walker's audit state in one of its groups.
#[derive(Debug)]
struct WalkerGroup {
    group: GroupId,
    /// Merged deliver/skip chain position (last GSN consumed).
    last_gsn: Option<GlobalSeq>,
    /// Last time this walker delivered or skipped in this group.
    last_progress: SimTime,
    /// Last per-stream sequence number, indexed by interned source.
    fronts: Vec<Option<LocalSeq>>,
}

/// The auditor. Feed with [`Auditor::observe`] (or a whole journal via
/// [`Auditor::observe_journal`]), then [`Auditor::finish`].
///
/// Every GSN-shaped piece of state is keyed by group: one token ring per
/// group means one GSN space per group, and a GSN only means anything
/// relative to the ring that assigned it.
#[derive(Debug)]
pub struct Auditor {
    cfg: AuditConfig,
    /// Per walker ([`Guid`]), its state in each group it has touched, in
    /// first-seen order.
    walkers: Dense<Vec<WalkerGroup>>,
    /// Per group, in first-seen order, what each GSN means and who
    /// assigned it.
    gsns: Vec<(GroupId, Dense<GsnSlot>)>,
    /// Source [`NodeId`] → its index into a walker's `fronts`. Interned
    /// because fence funnels' virtual ids sit at the top of the id space.
    sources: Dense<Option<u32>>,
    interned_sources: u32,
    /// Every `Ordered` record as `(source, local_seq, group, gsn)`, in
    /// journal order: the raw material of the cross-group agreement check.
    cross: Vec<(NodeId, LocalSeq, GroupId, GlobalSeq)>,
    first_violation: Option<Violation>,
    violations: u64,
    deliveries: u64,
    skips: u64,
    /// Time of the most recent application delivery (any walker).
    last_delivery: Option<SimTime>,
}

impl Auditor {
    /// A fresh auditor with the given checks.
    pub fn new(cfg: AuditConfig) -> Self {
        Auditor {
            cfg,
            walkers: Dense::default(),
            gsns: Vec::new(),
            sources: Dense::default(),
            interned_sources: 0,
            cross: Vec::new(),
            first_violation: None,
            violations: 0,
            deliveries: 0,
            skips: 0,
            last_delivery: None,
        }
    }

    #[cold]
    fn violate(&mut self, at: SimTime, kind: ViolationKind, detail: String) {
        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(Violation { at, kind, detail });
        }
    }

    /// The slot of `(group, gsn)`.
    fn gsn_slot(&mut self, group: GroupId, gsn: GlobalSeq) -> &mut GsnSlot {
        let i = match self.gsns.iter().position(|(g, _)| *g == group) {
            Some(i) => i,
            None => {
                self.gsns.push((group, Dense::default()));
                self.gsns.len() - 1
            }
        };
        self.gsns[i].1.entry(gsn.0)
    }

    /// Register what a `(group, GSN)` means; trip on disagreement with
    /// the meaning first seen for it.
    fn meaning(
        &mut self,
        at: SimTime,
        group: GroupId,
        gsn: GlobalSeq,
        source: NodeId,
        ls: LocalSeq,
        who: &str,
    ) {
        let (s0, l0) = *self
            .gsn_slot(group, gsn)
            .meaning
            .get_or_insert((source, ls));
        if (s0, l0) != (source, ls) {
            self.violate(
                at,
                ViolationKind::AssignmentMismatch,
                format!(
                    "{who}: group {} gsn {} means (src {}, seq {}) \
                     but was first seen as (src {}, seq {})",
                    group.0, gsn.0, source.0, ls.0, s0.0, l0.0
                ),
            );
        }
    }

    /// The index of `source` in a walker's `fronts`.
    fn source_index(&mut self, source: NodeId) -> usize {
        let next = self.interned_sources;
        let ix = *self.sources.entry(u64::from(source.0)).get_or_insert(next);
        if ix == next {
            self.interned_sources += 1;
        }
        ix as usize
    }

    /// Walker `mh`'s state in `group`, created on first sight.
    fn walker_group(&mut self, mh: Guid, group: GroupId) -> &mut WalkerGroup {
        let row = self.walkers.entry(u64::from(mh.0));
        let i = match row.iter().position(|st| st.group == group) {
            Some(i) => i,
            None => {
                row.push(WalkerGroup {
                    group,
                    last_gsn: None,
                    last_progress: SimTime::ZERO,
                    fronts: Vec::new(),
                });
                row.len() - 1
            }
        };
        &mut row[i]
    }

    /// Fold one event in. Events must arrive in journal (emission) order.
    pub fn observe(&mut self, t: SimTime, e: &ProtoEvent) {
        match *e {
            ProtoEvent::Ordered {
                node,
                group,
                source,
                local_seq,
                gsn,
            } if self.cfg.check_gsn_order => {
                if let Some(prev) = self.gsn_slot(group, gsn).assigned.replace(node) {
                    self.violate(
                        t,
                        ViolationKind::DuplicateAssignment,
                        format!(
                            "group {} gsn {} assigned at node {} but already assigned at node {}",
                            group.0, gsn.0, node.0, prev.0
                        ),
                    );
                }
                self.meaning(t, group, gsn, source, local_seq, "ordering node");
                self.cross.push((source, local_seq, group, gsn));
            }
            ProtoEvent::MhDeliver {
                mh,
                group,
                gsn,
                source,
                local_seq,
            } => {
                self.deliveries += 1;
                self.last_delivery = Some(t);
                let check_gsn = self.cfg.check_gsn_order;
                if check_gsn {
                    self.meaning(t, group, gsn, source, local_seq, "walker");
                }
                let s = self.source_index(source);
                let st = self.walker_group(mh, group);
                st.last_progress = t;
                let last = st.last_gsn;
                if check_gsn {
                    st.last_gsn = Some(last.map_or(gsn, |p| p.max(gsn)));
                }
                // Per-stream FIFO — the one promise every backend makes.
                // Checked after the GSN properties so an ordered backend's
                // inversion is labelled as such, not as its FIFO shadow.
                if st.fronts.len() <= s {
                    st.fronts.resize(s + 1, None);
                }
                let fifo_bad = st.fronts[s].filter(|&prev| local_seq <= prev);
                st.fronts[s] = Some(local_seq);
                if check_gsn {
                    match last {
                        Some(prev) if gsn == prev => {
                            self.violate(
                                t,
                                ViolationKind::DuplicateDelivery,
                                format!(
                                    "walker {} delivered group {} gsn {} twice",
                                    mh.0, group.0, gsn.0
                                ),
                            );
                        }
                        Some(prev) if gsn < prev => {
                            self.violate(
                                t,
                                ViolationKind::OrderInversion,
                                format!(
                                    "walker {} delivered group {} gsn {} after gsn {}",
                                    mh.0, group.0, gsn.0, prev.0
                                ),
                            );
                        }
                        Some(prev) if self.cfg.check_gap_freedom && gsn.0 != prev.0 + 1 => {
                            self.violate(
                                t,
                                ViolationKind::GsnGap,
                                format!(
                                    "walker {} jumped from group {} gsn {} to {} \
                                     with no skip records",
                                    mh.0, group.0, prev.0, gsn.0
                                ),
                            );
                        }
                        _ => {}
                    }
                }
                if let Some(prev) = fifo_bad {
                    self.violate(
                        t,
                        ViolationKind::FifoViolation,
                        format!(
                            "walker {} group {} stream {}: seq {} after seq {}",
                            mh.0, group.0, source.0, local_seq.0, prev.0
                        ),
                    );
                }
            }
            ProtoEvent::MhSkip { mh, group, gsn } if self.cfg.check_gsn_order => {
                self.skips += 1;
                let st = self.walker_group(mh, group);
                st.last_progress = t;
                let last = st.last_gsn;
                st.last_gsn = Some(last.map_or(gsn, |p| p.max(gsn)));
                match last {
                    Some(prev) if gsn <= prev => {
                        self.violate(
                            t,
                            ViolationKind::OrderInversion,
                            format!(
                                "walker {} skipped group {} gsn {} at or below its front {}",
                                mh.0, group.0, gsn.0, prev.0
                            ),
                        );
                    }
                    Some(prev) if self.cfg.check_gap_freedom && gsn.0 != prev.0 + 1 => {
                        self.violate(
                            t,
                            ViolationKind::GsnGap,
                            format!(
                                "walker {} skipped from group {} gsn {} to {} leaving a hole",
                                mh.0, group.0, prev.0, gsn.0
                            ),
                        );
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    /// Fold a whole journal in (batch feeding of the same per-event path).
    pub fn observe_journal(&mut self, journal: &[(SimTime, ProtoEvent)]) {
        for (t, e) in journal {
            self.observe(*t, e);
        }
    }

    /// The cross-group agreement check: for every pair of groups, the
    /// messages ordered in *both* must have the same relative order on both
    /// rings. Per group pair `(g1, g2)` the `(gsn_in_g1, gsn_in_g2)` points
    /// of the shared messages must be co-monotone — sorting by the first
    /// coordinate, the second must strictly increase. Returns the number of
    /// messages that appeared in ≥ 2 groups.
    fn check_cross_group(&mut self, end: SimTime) -> usize {
        // One shared message's footprint on a group pair: its GSN in each
        // group, plus its journal identity for the violation message.
        type PairPoint = (GlobalSeq, GlobalSeq, NodeId, LocalSeq);
        let mut cross = std::mem::take(&mut self.cross);
        // Stable: a message's records keep their journal order, so the
        // pair points come out in the order a per-message map would give.
        cross.sort_by_key(|&(source, ls, _, _)| (source, ls));
        let mut shared = 0usize;
        let mut pairs: BTreeMap<(GroupId, GroupId), Vec<PairPoint>> = BTreeMap::new();
        for records in cross.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if records.len() < 2 {
                continue;
            }
            shared += 1;
            let (source, ls, _, _) = records[0];
            for (i, &(_, _, gi, si)) in records.iter().enumerate() {
                for &(_, _, gj, sj) in &records[i + 1..] {
                    let (a, b) = if gi <= gj {
                        ((gi, si), (gj, sj))
                    } else {
                        ((gj, sj), (gi, si))
                    };
                    if a.0 == b.0 {
                        // Same group twice = duplicate assignment, already
                        // tripped; not a cross-group datum.
                        continue;
                    }
                    pairs
                        .entry((a.0, b.0))
                        .or_default()
                        .push((a.1, b.1, source, ls));
                }
            }
        }
        let mut divergences: Vec<(SimTime, ViolationKind, String)> = Vec::new();
        for ((g1, g2), mut pts) in pairs {
            pts.sort_unstable_by_key(|p| p.0);
            for w in pts.windows(2) {
                let (a1, a2, src_a, ls_a) = w[0];
                let (b1, b2, src_b, ls_b) = w[1];
                if a2 >= b2 {
                    divergences.push((
                        end,
                        ViolationKind::CrossGroupOrder,
                        format!(
                            "messages (src {}, seq {}) and (src {}, seq {}) order as \
                             {} < {} in group {} but {} ≥ {} in group {}",
                            src_a.0, ls_a.0, src_b.0, ls_b.0, a1.0, b1.0, g1.0, a2.0, b2.0, g2.0
                        ),
                    ));
                }
            }
        }
        for (at, kind, detail) in divergences {
            self.violate(at, kind, detail);
        }
        shared
    }

    /// Close the audit at simulated time `end`, running the cross-group
    /// agreement, liveness and post-recovery ordering checks.
    pub fn finish(mut self, end: SimTime) -> AuditReport {
        let cross_group_messages = if self.cfg.check_gsn_order {
            self.check_cross_group(end)
        } else {
            0
        };
        if let Some(after) = self.cfg.ordering_resumed_after.take() {
            let resumed = self.last_delivery.is_some_and(|t| t >= after);
            if !resumed {
                let last = self
                    .last_delivery
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "never".into());
                self.violate(
                    end,
                    ViolationKind::OrderingStalled,
                    format!(
                        "no application delivery at or after {after} \
                         (last delivery: {last})"
                    ),
                );
            }
        }
        if let Some(liveness) = self.cfg.liveness.take() {
            for &w in &liveness.walkers {
                // Progress in *any* of the walker's groups counts: a fault
                // strands a walker, not one of its subscriptions.
                let last_progress = self
                    .walkers
                    .get(u64::from(w))
                    .and_then(|row| row.iter().map(|st| st.last_progress).max());
                let late_enough = last_progress.is_some_and(|last| last + liveness.window >= end);
                if !late_enough {
                    let last = last_progress
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "never".into());
                    self.violate(
                        end,
                        ViolationKind::Silence,
                        format!(
                            "walker {w} made no progress in the last {} (last progress: {last})",
                            liveness.window
                        ),
                    );
                }
            }
        }
        let walkers_seen = self.walkers.iter().filter(|row| !row.is_empty()).count();
        AuditReport {
            first_violation: self.first_violation,
            violations: self.violations,
            deliveries: self.deliveries,
            skips: self.skips,
            walkers_seen,
            cross_group_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId(1);

    fn deliver(t: u64, mh: u32, gsn: u64) -> (SimTime, ProtoEvent) {
        (
            SimTime::from_millis(t),
            ProtoEvent::MhDeliver {
                mh: Guid(mh),
                group: G,
                gsn: GlobalSeq(gsn),
                source: NodeId(0),
                local_seq: LocalSeq(gsn),
            },
        )
    }

    fn skip(t: u64, mh: u32, gsn: u64) -> (SimTime, ProtoEvent) {
        (
            SimTime::from_millis(t),
            ProtoEvent::MhSkip {
                mh: Guid(mh),
                group: G,
                gsn: GlobalSeq(gsn),
            },
        )
    }

    fn ordered_in(t: u64, group: u32, gsn: u64, src: u32, ls: u64) -> (SimTime, ProtoEvent) {
        (
            SimTime::from_millis(t),
            ProtoEvent::Ordered {
                node: NodeId(group),
                group: GroupId(group),
                source: NodeId(src),
                local_seq: LocalSeq(ls),
                gsn: GlobalSeq(gsn),
            },
        )
    }

    fn audit(journal: &[(SimTime, ProtoEvent)]) -> AuditReport {
        let mut a = Auditor::new(AuditConfig::default());
        a.observe_journal(journal);
        a.finish(SimTime::from_secs(1))
    }

    #[test]
    fn clean_chain_passes() {
        let j = vec![
            deliver(1, 0, 1),
            deliver(2, 0, 2),
            skip(3, 0, 3),
            deliver(4, 0, 4),
        ];
        let r = audit(&j);
        assert!(r.is_clean(), "{:?}", r.first_violation);
        assert_eq!(r.deliveries, 3);
        assert_eq!(r.skips, 1);
    }

    #[test]
    fn inversion_and_duplicate_detected() {
        let r = audit(&[deliver(1, 0, 2), deliver(2, 0, 1)]);
        assert_eq!(
            r.first_violation.unwrap().kind,
            ViolationKind::OrderInversion
        );
        let r = audit(&[deliver(1, 0, 1), deliver(2, 0, 1)]);
        assert_eq!(
            r.first_violation.unwrap().kind,
            ViolationKind::DuplicateDelivery
        );
    }

    #[test]
    fn unexplained_gap_detected_and_skip_explains_it() {
        let r = audit(&[deliver(1, 0, 1), deliver(2, 0, 3)]);
        assert_eq!(r.first_violation.unwrap().kind, ViolationKind::GsnGap);
        let r = audit(&[deliver(1, 0, 1), skip(2, 0, 2), deliver(3, 0, 3)]);
        assert!(r.is_clean());
    }

    #[test]
    fn join_point_may_start_anywhere() {
        let r = audit(&[deliver(1, 0, 41), deliver(2, 0, 42)]);
        assert!(r.is_clean(), "{:?}", r.first_violation);
    }

    #[test]
    fn assignment_disagreement_detected() {
        let j = vec![
            (
                SimTime::from_millis(1),
                ProtoEvent::MhDeliver {
                    mh: Guid(0),
                    group: G,
                    gsn: GlobalSeq(1),
                    source: NodeId(0),
                    local_seq: LocalSeq(1),
                },
            ),
            (
                SimTime::from_millis(2),
                ProtoEvent::MhDeliver {
                    mh: Guid(1),
                    group: G,
                    gsn: GlobalSeq(1),
                    source: NodeId(0),
                    local_seq: LocalSeq(2), // different message, same gsn
                },
            ),
        ];
        let r = audit(&j);
        assert_eq!(
            r.first_violation.unwrap().kind,
            ViolationKind::AssignmentMismatch
        );
    }

    #[test]
    fn duplicate_assignment_detected() {
        let ordered = |t: u64, node: u32, gsn: u64| {
            (
                SimTime::from_millis(t),
                ProtoEvent::Ordered {
                    node: NodeId(node),
                    group: G,
                    source: NodeId(node),
                    local_seq: LocalSeq(1),
                    gsn: GlobalSeq(gsn),
                },
            )
        };
        let r = audit(&[ordered(1, 0, 7), ordered(2, 1, 7)]);
        assert_eq!(
            r.first_violation.unwrap().kind,
            ViolationKind::DuplicateAssignment
        );
    }

    #[test]
    fn gsn_spaces_are_per_group() {
        // The same GSN in two different groups is two different slots: no
        // duplicate assignment, no duplicate delivery, and each group's
        // chain is checked on its own.
        let j = vec![
            ordered_in(1, 1, 7, 0, 1),
            ordered_in(2, 2, 7, 5, 1),
            (
                SimTime::from_millis(3),
                ProtoEvent::MhDeliver {
                    mh: Guid(0),
                    group: GroupId(1),
                    gsn: GlobalSeq(7),
                    source: NodeId(0),
                    local_seq: LocalSeq(1),
                },
            ),
            (
                SimTime::from_millis(4),
                ProtoEvent::MhDeliver {
                    mh: Guid(0),
                    group: GroupId(2),
                    gsn: GlobalSeq(7),
                    source: NodeId(5),
                    local_seq: LocalSeq(1),
                },
            ),
        ];
        let r = audit(&j);
        assert!(r.is_clean(), "{:?}", r.first_violation);
        assert_eq!(r.cross_group_messages, 0);
    }

    #[test]
    fn cross_group_agreement_passes_when_orders_match() {
        // Two fenced messages from source 9 land in groups 1 and 2; their
        // relative order agrees on both rings (ring-local positions differ,
        // the *order* is what must match).
        let j = vec![
            ordered_in(1, 1, 4, 9, 1),
            ordered_in(2, 2, 11, 9, 1),
            ordered_in(3, 1, 5, 9, 2),
            ordered_in(4, 2, 13, 9, 2),
        ];
        let r = audit(&j);
        assert!(r.is_clean(), "{:?}", r.first_violation);
        assert_eq!(r.cross_group_messages, 2);
    }

    #[test]
    fn forged_cross_ring_swap_is_caught() {
        // Same two fenced messages, but group 2's ring is forged to order
        // them the other way round: seq 2 below seq 1.
        let j = vec![
            ordered_in(1, 1, 4, 9, 1),
            ordered_in(2, 2, 13, 9, 1),
            ordered_in(3, 1, 5, 9, 2),
            ordered_in(4, 2, 11, 9, 2),
        ];
        let r = audit(&j);
        let v = r.first_violation.expect("swap must be caught");
        assert_eq!(v.kind, ViolationKind::CrossGroupOrder);
        assert!(v.detail.contains("group 2"), "{}", v.detail);
    }

    #[test]
    fn fifo_checked_even_without_gsn_checks() {
        let j = vec![deliver(1, 0, 1), {
            // Same stream seq again, new "gsn", read with GSN checks off.
            (
                SimTime::from_millis(2),
                ProtoEvent::MhDeliver {
                    mh: Guid(0),
                    group: G,
                    gsn: GlobalSeq(9),
                    source: NodeId(0),
                    local_seq: LocalSeq(1),
                },
            )
        }];
        let mut a = Auditor::new(AuditConfig {
            check_gsn_order: false,
            check_gap_freedom: false,
            liveness: None,
            ordering_resumed_after: None,
        });
        a.observe_journal(&j);
        let r = a.finish(SimTime::from_secs(1));
        assert_eq!(
            r.first_violation.unwrap().kind,
            ViolationKind::FifoViolation
        );
    }

    #[test]
    fn silence_detected_and_exemptions_respected() {
        let j = vec![deliver(100, 0, 1), deliver(5_900, 1, 1)];
        let run = |walkers: Vec<u32>| {
            let mut a = Auditor::new(AuditConfig {
                liveness: Some(LivenessCheck {
                    window: SimDuration::from_secs(2),
                    walkers,
                }),
                ..AuditConfig::default()
            });
            a.observe_journal(&j);
            a.finish(SimTime::from_secs(6))
        };
        // Walker 0 stalled at t=0.1s of a 6s run.
        let r = run(vec![0, 1]);
        assert_eq!(r.first_violation.unwrap().kind, ViolationKind::Silence);
        // Exempting it (e.g. it was killed) passes.
        let r = run(vec![1]);
        assert!(r.is_clean());
        // A walker that never appears at all is silent too.
        let r = run(vec![2]);
        assert_eq!(r.first_violation.unwrap().kind, ViolationKind::Silence);
    }

    #[test]
    fn liveness_counts_progress_in_any_group() {
        // Walker 0 subscribes to two groups; its only recent progress is in
        // group 2 — that is still progress.
        let j = vec![
            (
                SimTime::from_millis(100),
                ProtoEvent::MhDeliver {
                    mh: Guid(0),
                    group: GroupId(1),
                    gsn: GlobalSeq(1),
                    source: NodeId(0),
                    local_seq: LocalSeq(1),
                },
            ),
            (
                SimTime::from_millis(5_900),
                ProtoEvent::MhDeliver {
                    mh: Guid(0),
                    group: GroupId(2),
                    gsn: GlobalSeq(1),
                    source: NodeId(5),
                    local_seq: LocalSeq(1),
                },
            ),
        ];
        let mut a = Auditor::new(AuditConfig {
            liveness: Some(LivenessCheck {
                window: SimDuration::from_secs(2),
                walkers: vec![0],
            }),
            ..AuditConfig::default()
        });
        a.observe_journal(&j);
        let r = a.finish(SimTime::from_secs(6));
        assert!(r.is_clean(), "{:?}", r.first_violation);
        assert_eq!(r.walkers_seen, 1);
    }
}
