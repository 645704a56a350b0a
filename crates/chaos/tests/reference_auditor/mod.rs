//! The auditor as it was while its state lived in five `BTreeMap`s keyed
//! by tuples, for `auditor_reference.rs` to check the dense auditor
//! against. Everything below the imports is copied unedited.

use std::collections::BTreeMap;

use chaos::{AuditConfig, AuditReport, Violation, ViolationKind};
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::SimTime;

#[derive(Debug, Clone, Default)]
struct WalkerState {
    /// Merged deliver/skip chain position (last GSN consumed).
    last_gsn: Option<GlobalSeq>,
    /// Last per-stream sequence number, keyed by stream (source).
    streams: BTreeMap<NodeId, LocalSeq>,
    /// Last time this walker delivered or skipped.
    last_progress: SimTime,
}

/// The streaming auditor. Feed with [`Auditor::observe`] (or a whole
/// journal via [`Auditor::observe_journal`]), then [`Auditor::finish`].
///
/// Every GSN-shaped piece of state is keyed by group: one token ring per
/// group means one GSN space per group, and a GSN only means anything
/// relative to the ring that assigned it.
#[derive(Debug)]
pub struct Auditor {
    cfg: AuditConfig,
    walkers: BTreeMap<(Guid, GroupId), WalkerState>,
    /// What each per-group GSN means, agreed across ordering nodes and
    /// walkers.
    gsn_meaning: BTreeMap<(GroupId, GlobalSeq), (NodeId, LocalSeq)>,
    /// `(group, GSN)`s that appeared in an `Ordered` record
    /// (duplicate-assignment check).
    assigned: BTreeMap<(GroupId, GlobalSeq), NodeId>,
    /// Per-message assignment positions across rings, fed from `Ordered`
    /// records: the raw material of the cross-group agreement check.
    cross: BTreeMap<(NodeId, LocalSeq), Vec<(GroupId, GlobalSeq)>>,
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
            walkers: BTreeMap::new(),
            gsn_meaning: BTreeMap::new(),
            assigned: BTreeMap::new(),
            cross: BTreeMap::new(),
            first_violation: None,
            violations: 0,
            deliveries: 0,
            skips: 0,
            last_delivery: None,
        }
    }

    fn violate(&mut self, at: SimTime, kind: ViolationKind, detail: String) {
        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(Violation { at, kind, detail });
        }
    }

    /// Register what a `(group, GSN)` means; trip on disagreement.
    fn meaning(
        &mut self,
        at: SimTime,
        group: GroupId,
        gsn: GlobalSeq,
        source: NodeId,
        ls: LocalSeq,
        who: &str,
    ) {
        match self.gsn_meaning.get(&(group, gsn)) {
            None => {
                self.gsn_meaning.insert((group, gsn), (source, ls));
            }
            Some(&(s0, l0)) if (s0, l0) != (source, ls) => {
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
            Some(_) => {}
        }
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
                if let Some(prev) = self.assigned.insert((group, gsn), node) {
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
                self.cross
                    .entry((source, local_seq))
                    .or_default()
                    .push((group, gsn));
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
                if self.cfg.check_gsn_order {
                    self.meaning(t, group, gsn, source, local_seq, "walker");
                }
                let check_gsn = self.cfg.check_gsn_order;
                let check_gap = self.cfg.check_gap_freedom;
                let st = self.walkers.entry((mh, group)).or_default();
                st.last_progress = t;
                let last = st.last_gsn;
                // Per-stream FIFO — the one promise every backend makes.
                // Checked after the GSN properties so an ordered backend's
                // inversion is labelled as such, not as its FIFO shadow.
                let fifo_bad = match st.streams.get(&source) {
                    Some(&prev) if local_seq <= prev => Some(prev),
                    _ => None,
                };
                st.streams.insert(source, local_seq);
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
                        Some(prev) if check_gap && gsn.0 != prev.0 + 1 => {
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
                    self.walkers
                        .get_mut(&(mh, group))
                        .expect("just inserted")
                        .last_gsn = Some(last.map_or(gsn, |p| p.max(gsn)));
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
                let check_gap = self.cfg.check_gap_freedom;
                let st = self.walkers.entry((mh, group)).or_default();
                st.last_progress = t;
                let last = st.last_gsn;
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
                    Some(prev) if check_gap && gsn.0 != prev.0 + 1 => {
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
                self.walkers
                    .get_mut(&(mh, group))
                    .expect("just inserted")
                    .last_gsn = Some(last.map_or(gsn, |p| p.max(gsn)));
            }
            _ => {}
        }
    }

    /// Fold a whole journal in (batch feeding of the same streaming path).
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
        let mut shared = 0usize;
        let mut pairs: BTreeMap<(GroupId, GroupId), Vec<PairPoint>> = BTreeMap::new();
        for (&(source, ls), gsns) in &self.cross {
            if gsns.len() < 2 {
                continue;
            }
            shared += 1;
            for i in 0..gsns.len() {
                for j in i + 1..gsns.len() {
                    let (a, b) = if gsns[i].0 <= gsns[j].0 {
                        (gsns[i], gsns[j])
                    } else {
                        (gsns[j], gsns[i])
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
                    .range((Guid(w), GroupId(u32::MIN))..=(Guid(w), GroupId(u32::MAX)))
                    .map(|(_, st)| st.last_progress)
                    .max();
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
        let mut walkers_seen = 0usize;
        let mut prev: Option<Guid> = None;
        for &(mh, _) in self.walkers.keys() {
            if prev != Some(mh) {
                walkers_seen += 1;
                prev = Some(mh);
            }
        }
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
