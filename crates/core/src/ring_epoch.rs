//! The ring-epoch layer: epoch ownership, token-pass fencing, and
//! primary-component partition survival.
//!
//! Historically the token's `epoch` was bookkeeping smeared across the
//! ordering layer (inline `instance()` comparisons and a raw
//! `(epoch, origin, rotation)` fingerprint in `OrderingState`), the
//! recovery layer (an inline `Epoch(e + 1)` bump on regeneration) and the
//! node layer (rejoin grants hand-seeding both guards). This module makes
//! ring epochs a first-class ordering layer:
//!
//! * [`EpochFence`] owns the **keep-one instance** order and the
//!   **duplicate-pass** fingerprint. Every token acceptance goes through
//!   `EpochFence::admit`; every epoch bump goes through
//!   [`EpochFence::regenerate`]; every rejoin/merge grant seeds through
//!   [`EpochFence::seed_from_pass`]. Nothing outside this module compares
//!   raw [`Epoch`] values.
//! * `primary_component` is the deterministic partition rule (majority
//!   of the static ring order; a half split breaks the tie toward the
//!   side holding the smallest static id — cf. Malkhi/Merritt/Rodeh's
//!   primary-component membership). Every GSN-assigning path — token
//!   regeneration, regeneration adoption, the sole-survivor self-pass —
//!   checks it before creating or reviving a token lineage, which is
//!   exactly what excludes split-brain GSN forks on a partitioned ring.
//! * The `impl NeState` block implements what happens on the losing side:
//!   entry into the [`MemberState::Partitioned`] lifecycle state (the
//!   stale token lineage is fenced off, submissions queue unassigned),
//!   heal detection by probing excised peers, and the whole-component
//!   **merge** through the generalized `RejoinRequest`/`RejoinGrant`
//!   machinery — the merged member keeps its `MQ` (the missed range is
//!   repaired or skipped by the normal NACK machinery, never forked) and
//!   resubmits its queued pre-orders for fresh GSNs in the merged epoch.

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, Epoch, NodeId};
use crate::msg::Msg;
use crate::node::NeState;
use crate::ring_lifecycle::{LifecycleEvent, MemberState, RingLifecycle};
use crate::telemetry::EpochCause;
use crate::token::OrderingToken;

/// Identity of one token pass: `(epoch, origin id, rotation)`.
pub(crate) type PassId = (Epoch, u32, u64);

/// Verdict of [`EpochFence::admit`] on an arriving token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenAdmission {
    /// A stale instance under the keep-one rule: destroy it (and record
    /// [`ProtoEvent::TokenDestroyed`]).
    Stale,
    /// A retransmission of a pass already processed here (the sender
    /// missed our ack): re-acknowledge but never re-process — that would
    /// fork a second live token.
    DuplicatePass,
    /// The live pass: process it.
    Admit,
}

/// The per-node epoch fence. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochFence {
    /// Best token instance `(epoch, origin)` ever observed (keep-one rule:
    /// higher epoch wins, ties break on the regenerating node id).
    best_instance: (Epoch, u32),
    /// Fingerprint of the last token pass processed here.
    last_pass: Option<PassId>,
}

impl Default for EpochFence {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochFence {
    /// A factory-fresh fence (epoch 0, nothing processed).
    pub fn new() -> Self {
        EpochFence {
            best_instance: (Epoch(0), 0),
            last_pass: None,
        }
    }

    /// The best instance observed (diagnostics / tests).
    pub(crate) fn best_instance(&self) -> (Epoch, u32) {
        self.best_instance
    }

    /// The last processed pass (diagnostics / tests).
    pub fn last_pass(&self) -> Option<PassId> {
        self.last_pass
    }

    /// Judge an arriving token against the fence.
    pub(crate) fn admit(&self, token: &OrderingToken) -> TokenAdmission {
        if token.instance() < self.best_instance {
            return TokenAdmission::Stale;
        }
        if let Some((e, o, r)) = self.last_pass {
            if (e, o) == (token.epoch, token.origin.0) && token.rotation <= r {
                return TokenAdmission::DuplicatePass;
            }
        }
        TokenAdmission::Admit
    }

    /// Record a processed pass (call only after `TokenAdmission::Admit`).
    pub fn commit(&mut self, token: &OrderingToken) {
        self.best_instance = token.instance();
        self.last_pass = Some((token.epoch, token.origin.0, token.rotation));
    }

    /// Bump `base` into the next epoch with `origin` as the regenerating
    /// node and move the fence to the new lineage — the one place in the
    /// codebase an epoch number is ever incremented.
    pub fn regenerate(&mut self, base: &mut OrderingToken, origin: NodeId) {
        base.epoch = Epoch(base.epoch.0 + 1);
        base.origin = origin;
        self.best_instance = base.instance();
    }

    /// Seed the fence from the live pass a rejoin/merge grant carried: the
    /// guards must reject stale retransmissions from before the splice
    /// while still admitting the live pass (same rotation) the granter is
    /// about to forward. On rotation 0 no earlier pass exists to guard
    /// against, so the fingerprint stays unset.
    pub fn seed_from_pass(&mut self, (epoch, origin, rotation): PassId) {
        self.best_instance = (epoch, origin);
        self.last_pass = (rotation > 0).then(|| (epoch, origin, rotation - 1));
    }
}

/// Does an armed forced-drop fault (armed while `armed` was the live
/// epoch) still apply to an arriving token of `token_epoch`? The arm
/// captures the lineage current at arming time; a token from a newer
/// epoch means Token-Regeneration already replaced the targeted lineage,
/// so the drop opportunity has passed and the arm must disarm. One of the
/// two raw-epoch orderings the fence's module owns on behalf of the
/// fault-injection path (the other being the keep-one rule in `admit`).
pub(crate) fn arm_covers(armed: Epoch, token_epoch: Epoch) -> bool {
    token_epoch <= armed
}

/// Does a `TokenAck { epoch, rotation }` acknowledge exactly the pass
/// `pass`? Acks carry no origin, but within one admitted instance the
/// `(epoch, rotation)` pair identifies the pass uniquely: the keep-one
/// rule retires an older epoch before a new lineage circulates, so a
/// stale-instance ack can never alias a live in-flight transfer.
pub(crate) fn ack_matches_pass(pass: PassId, epoch: Epoch, rotation: u64) -> bool {
    let (e, _origin, r) = pass;
    e == epoch && r == rotation
}

/// The deterministic primary-component rule over one ring's static order:
/// a side may create or revive a token lineage iff it holds a strict
/// majority of the static members, or exactly half of them including the
/// smallest static id (the tiebreak that keeps a 50/50 split from
/// producing two primaries). `lifecycle` is the caller's local view; its
/// in-cycle members (including the caller itself) are the reachable side.
pub(crate) fn primary_component(order: &[NodeId], lifecycle: &RingLifecycle) -> bool {
    let n = order.len();
    let reachable = lifecycle.in_ring_count();
    if 2 * reachable > n {
        return true;
    }
    let smallest = *order.iter().min().expect("rings are never empty");
    2 * reachable == n && lifecycle.is_in_ring(smallest)
}

impl NeState {
    /// True while this top-ring node sits fenced on the minority side of a
    /// partitioned ordering ring (including the merge handshake).
    pub(crate) fn is_partition_fenced(&self) -> bool {
        self.ring.as_ref().is_some_and(|r| {
            matches!(
                r.state_of(self.id),
                MemberState::Partitioned | MemberState::Merging
            )
        })
    }

    /// Whether this node answers `n`'s requests. A fenced BR is fed
    /// nothing the primary orders, so it stops answering what its
    /// children ask (probes, grafts, NACKs): they miss it and fail over to
    /// their next parent candidate, a BR of the primary component. Its
    /// ring peers are always answered, since their probes carry the heal
    /// evidence.
    pub(crate) fn serves(&self, n: NodeId) -> bool {
        !self.is_partition_fenced() || self.ring.as_ref().is_some_and(|r| r.order.contains(&n))
    }

    /// True while the merge handshake is in flight.
    pub(crate) fn is_merging(&self) -> bool {
        self.ring
            .as_ref()
            .is_some_and(|r| r.state_of(self.id) == MemberState::Merging)
    }

    /// Does this node's current view of its top ring form the primary
    /// component? Non-top rings (and ringless entities) are always
    /// "primary" — the rule only fences the GSN-assigning ring.
    pub(crate) fn top_ring_primary(&self) -> bool {
        match &self.ring {
            Some(r) if r.is_top => primary_component(&r.order, &r.lifecycle),
            _ => true,
        }
    }

    /// Evaluate the primary-component rule after a top-ring membership
    /// change and fence this node off if its side lost. Called from
    /// `after_ring_change`, so every excision path (heartbeat detection,
    /// `RingFail` broadcasts) funnels through one evaluation point.
    pub(crate) fn check_partition_fence(&mut self, now: SimTime, out: &mut Outbox) {
        let me = self.id;
        if self.ord.is_none() || self.top_ring_primary() || self.is_partition_fenced() {
            return;
        }
        let r = self.ring.as_mut().expect("top-ring node has a ring");
        if !matches!(r.state_of(me), MemberState::Active | MemberState::Suspected) {
            return; // rejoining nodes re-enter via the grant, not the fence
        }
        r.lifecycle.apply(me, LifecycleEvent::PartitionMinority);
        let in_ring = r.alive_count() as u32;
        // Fence off the stale token lineage: the snapshots, any in-flight
        // transfer and the armed fault all belong to an epoch this side
        // may no longer extend. Queued submissions (WQ + own-source
        // range) survive for resubmission in the merged epoch.
        let ord = self.ord.as_mut().expect("checked above");
        ord.new_token = None;
        ord.old_token = None;
        ord.inflight = None;
        ord.drop_armed = None;
        ord.regen_ceded = false;
        self.pending_rejoins.clear();
        self.merge_probe_target = 0;
        let epoch = ord.fence.best_instance().0;
        self.telemetry.partition_fenced(now, epoch, in_ring);
        out.push(Action::Record(ProtoEvent::RingPartitioned {
            node: me,
            in_ring,
        }));
    }

    /// Partitioned-side periodic duty: probe one rotating *excised* static
    /// member. While the partition holds the probe is lost on the downed
    /// links; the first [`Msg::HeartbeatAck`] that makes it back is heal
    /// evidence and starts the merge.
    pub(crate) fn tick_partition_probe(&mut self, out: &mut Outbox) {
        let group = self.group;
        let me = self.id;
        let Some(r) = self.ring.as_ref() else { return };
        let n = r.order.len();
        for _ in 0..n {
            let cand = r.order[self.merge_probe_target % n];
            self.merge_probe_target = (self.merge_probe_target + 1) % n;
            if cand != me && r.state_of(cand) == MemberState::Excised {
                self.send_control(Endpoint::Ne(cand), Msg::Heartbeat { group }, out);
                return;
            }
        }
    }

    /// Heal evidence: an excised member answered a partition probe. Move
    /// to `Merging` and start the whole-component merge via the rejoin
    /// handshake (retried on the heartbeat tick until granted).
    pub(crate) fn on_heal_evidence(&mut self, now: SimTime, from: Endpoint, out: &mut Outbox) {
        let Endpoint::Ne(sender) = from else { return };
        let Some(r) = self.ring.as_mut() else { return };
        if r.state_of(self.id) != MemberState::Partitioned {
            return;
        }
        if !r.order.contains(&sender) || r.state_of(sender) != MemberState::Excised {
            return;
        }
        r.lifecycle.apply(self.id, LifecycleEvent::MergeStart);
        self.rejoin_attempts = 0;
        self.telemetry.merge_started(now);
        self.send_rejoin_request(now, out);
    }

    /// A rejoin or merge grant spliced this node back into the live ring.
    /// The live token reaches it within a rotation, so it starts no
    /// regeneration round of its own. And its crashed or fenced incarnation
    /// may have left unacknowledged token transfers behind: with an unseeded
    /// fence a retransmitted stale copy would pass the keep-one and
    /// duplicate-transfer checks and fork a second live token. So the fence
    /// is seeded from the granter's `pass` (see
    /// [`EpochFence::seed_from_pass`] for the rotation-0 edge), and a seed
    /// that moves the best instance counts as an epoch bump of `cause`.
    pub(crate) fn seed_fence_from_grant(
        &mut self,
        now: SimTime,
        pass: Option<PassId>,
        cause: EpochCause,
    ) {
        let Some(ord) = self.ord.as_mut() else { return };
        ord.last_token_seen = now;
        let Some(pass) = pass else { return };
        let before = ord.fence.best_instance().0;
        ord.fence.seed_from_pass(pass);
        let after = ord.fence.best_instance().0;
        if after != before {
            self.telemetry.epoch_bump(now, cause, after);
        }
    }

    /// Complete this node's side of a partition merge: become `Active`,
    /// re-admit the members this side had excised (the merge is proof the
    /// other side lives; genuinely dead peers are re-excised by normal
    /// liveness probing), seed the epoch fence from the granter's pass so
    /// stale pre-partition token copies stay dead, and resubmit the
    /// pre-orders queued while fenced for fresh GSNs in the merged epoch.
    ///
    /// Unlike a crash-rejoin the `MQ` is **kept**, not fast-forwarded: the
    /// range assigned by the primary during the partition is repaired from
    /// upstream retention where possible and skipped (with per-GSN records)
    /// where not — either way the walkers below resume without forked or
    /// reordered GSNs.
    pub(crate) fn complete_own_merge(
        &mut self,
        now: SimTime,
        pass: Option<PassId>,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let Some(r) = self.ring.as_mut() else { return };
        let t = r.lifecycle.apply(me, LifecycleEvent::RejoinComplete);
        if !t.changed() {
            return; // duplicate grant: the merge already completed
        }
        let excised: Vec<NodeId> = r
            .order
            .iter()
            .copied()
            .filter(|&m| r.state_of(m) == MemberState::Excised)
            .collect();
        for m in excised {
            r.lifecycle.apply(m, LifecycleEvent::RejoinComplete);
        }
        r.restart_probes();
        self.rejoin_attempts = 0;
        self.seed_fence_from_grant(now, pass, EpochCause::MergeSeed);
        // Resubmit the own-source messages that queued while fenced: their
        // pre-orders never circulated, so push them to the (now majority)
        // next; they are assigned at our first post-merge token hold.
        let mut resubmitted = 0u32;
        if let (Some(ord), Some(wq)) = (self.ord.as_ref(), self.wq.as_ref()) {
            let next = self
                .ring
                .as_ref()
                .map(|r| r.next_of(me))
                .expect("checked above");
            if next != me && ord.min_unordered <= ord.max_local && ord.max_local.is_valid() {
                for ls in ord.min_unordered.0..=ord.max_local.0 {
                    let ls = crate::ids::LocalSeq(ls);
                    if let Some(payload) = wq.get(me, ls) {
                        out.push(Action::to_ne(
                            next,
                            Msg::PreOrder {
                                group,
                                corresponding: me,
                                local_seq: ls,
                                payload,
                            },
                        ));
                        resubmitted += 1;
                    }
                }
                self.counters.data_sent += resubmitted;
            }
        }
        let epoch = self
            .ord
            .as_ref()
            .map(|o| o.fence.best_instance().0)
            .unwrap_or(crate::ids::Epoch(0));
        self.telemetry
            .merge_completed(now, epoch, u64::from(resubmitted));
        out.push(Action::Record(ProtoEvent::RingMerged {
            node: me,
            resubmitted,
        }));
        self.after_ring_change(now, out);
    }

    /// Fault injection ([`Msg::ReplayToken`]): re-send this node's kept
    /// token snapshot to its ring next — a delayed duplicate of an already
    /// forwarded pass, exactly the Byzantine-ish copy the epoch fence must
    /// suppress at the receiver. No-op off the top ring, while fenced or
    /// rejoining, or before any pass was processed.
    pub(crate) fn replay_token(&mut self, out: &mut Outbox) {
        if self.is_rejoining() || self.is_partition_fenced() {
            return;
        }
        let Some(ord) = self.ord.as_ref() else { return };
        let Some(snapshot) = ord.new_token.clone() else {
            return;
        };
        let next = self.ring_next().expect("top-ring node has a ring");
        if next == self.id {
            return;
        }
        self.send_control(Endpoint::Ne(next), Msg::Token(Box::new(snapshot)), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GroupId;

    fn token(epoch: u32, origin: u32, rotation: u64) -> OrderingToken {
        let mut t = OrderingToken::new(GroupId(1), NodeId(origin));
        t.epoch = Epoch(epoch);
        t.rotation = rotation;
        t
    }

    #[test]
    fn admit_orders_instances_by_keep_one_rule() {
        let mut f = EpochFence::new();
        let live = token(1, 2, 4);
        assert_eq!(f.admit(&live), TokenAdmission::Admit);
        f.commit(&live);
        assert_eq!(f.best_instance(), (Epoch(1), 2));
        // A lower-epoch instance is stale regardless of origin.
        assert_eq!(f.admit(&token(0, 9, 99)), TokenAdmission::Stale);
        // Same epoch, smaller origin: stale under the tiebreak.
        assert_eq!(f.admit(&token(1, 1, 9)), TokenAdmission::Stale);
        // Same instance, same or older rotation: a duplicate pass.
        assert_eq!(f.admit(&token(1, 2, 4)), TokenAdmission::DuplicatePass);
        assert_eq!(f.admit(&token(1, 2, 3)), TokenAdmission::DuplicatePass);
        // Same instance, newer rotation: the live pass.
        assert_eq!(f.admit(&token(1, 2, 5)), TokenAdmission::Admit);
        // A newer epoch always wins.
        assert_eq!(f.admit(&token(2, 0, 0)), TokenAdmission::Admit);
    }

    #[test]
    fn regenerate_bumps_exactly_one_epoch() {
        let mut f = EpochFence::new();
        let mut base = token(3, 7, 11);
        f.regenerate(&mut base, NodeId(4));
        assert_eq!(base.epoch, Epoch(4));
        assert_eq!(base.origin, NodeId(4));
        assert_eq!(f.best_instance(), (Epoch(4), 4));
        // The pre-regeneration lineage is now stale.
        assert_eq!(f.admit(&token(3, 7, 12)), TokenAdmission::Stale);
    }

    #[test]
    fn seed_guards_stale_passes_but_admits_the_live_one() {
        let mut f = EpochFence::new();
        f.seed_from_pass((Epoch(2), 5, 7));
        assert_eq!(f.admit(&token(2, 5, 6)), TokenAdmission::DuplicatePass);
        assert_eq!(f.admit(&token(2, 5, 7)), TokenAdmission::Admit);
        // Rotation 0: no earlier pass exists; nothing may be blocked.
        let mut f0 = EpochFence::new();
        f0.seed_from_pass((Epoch(2), 5, 0));
        assert_eq!(f0.last_pass(), None);
        assert_eq!(f0.admit(&token(2, 5, 0)), TokenAdmission::Admit);
    }

    #[test]
    fn primary_component_majority_and_tiebreak() {
        use crate::ring_lifecycle::LifecycleEvent as E;
        let order = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let mut lc = RingLifecycle::new(order);
        assert!(primary_component(&order, &lc), "full ring is primary");
        lc.apply(NodeId(3), E::Excise);
        assert!(primary_component(&order, &lc), "3 of 4 is a majority");
        lc.apply(NodeId(2), E::Excise);
        assert!(
            primary_component(&order, &lc),
            "half split holding the smallest id wins the tiebreak"
        );
        lc.apply(NodeId(0), E::Excise);
        assert!(!primary_component(&order, &lc), "1 of 4 is a minority");

        // The complementary half (without the smallest id) must lose.
        let mut other = RingLifecycle::new(order);
        other.apply(NodeId(0), E::Excise);
        other.apply(NodeId(1), E::Excise);
        assert!(
            !primary_component(&order, &other),
            "the half without the smallest id is not primary"
        );
    }

    #[test]
    fn minority_node_fences_itself_and_assigns_nothing() {
        use crate::config::ProtocolConfig;
        use crate::ids::{GroupId, LocalSeq, PayloadId};
        // Top ring {0, 1}: node 1 loses the tiebreak when the ring splits.
        let mut n1 = NeState::new_br(
            GroupId(1),
            NodeId(1),
            vec![NodeId(0), NodeId(1)],
            true,
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        // Node 1 concludes node 0 is unreachable (heartbeat misses would
        // funnel through the same mark_dead → after_ring_change path).
        n1.on_ring_fail(SimTime::from_secs(1), NodeId(0), &mut out);
        assert!(n1.is_partition_fenced(), "1 of 2 without the smallest id");
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::RingPartitioned {
                node: NodeId(1),
                in_ring: 1
            })
        )));
        // A fenced node must not regenerate a token — not via the signal…
        out.clear();
        n1.maybe_start_regen(SimTime::from_secs(9), &mut out);
        assert!(out.is_empty(), "no regeneration round from the minority");
        // …not via the sole-survivor self-pass…
        n1.tick_hop(SimTime::from_secs(9), &mut out);
        assert!(
            !out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Msg::Token(_),
                    ..
                } | Action::Record(ProtoEvent::TokenRegenerated { .. })
            )),
            "no self-pass while fenced"
        );
        // …and an arriving token (a stale copy of the dead lineage) is
        // ignored without an ack.
        out.clear();
        n1.on_token(
            SimTime::from_secs(9),
            Endpoint::Ne(NodeId(0)),
            OrderingToken::new(GroupId(1), NodeId(0)),
            &mut out,
        );
        assert!(out.is_empty(), "fenced nodes black-hole tokens");
        // Source submissions queue without circulating or assigning.
        out.clear();
        n1.on_source_data(SimTime::from_secs(9), LocalSeq(1), PayloadId(7), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Record(ProtoEvent::SourceSend { .. }))));
        assert!(
            !out.iter().any(|a| matches!(a, Action::Send { .. })),
            "queued submissions do not circulate while fenced"
        );
        assert!(
            !out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::Ordered { .. }))),
            "no GSN is ever assigned on the minority side"
        );
    }

    #[test]
    fn primary_survivor_keeps_the_gsn_stream() {
        use crate::config::ProtocolConfig;
        use crate::ids::GroupId;
        // Node 0 holds the smallest id: a 1-of-2 split leaves it primary.
        let mut n0 = NeState::new_br(
            GroupId(1),
            NodeId(0),
            vec![NodeId(0), NodeId(1)],
            true,
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n0.on_ring_fail(SimTime::from_secs(1), NodeId(1), &mut out);
        assert!(!n0.is_partition_fenced(), "tiebreak keeps node 0 primary");
        // It may regenerate (sole-survivor immediate adoption).
        out.clear();
        n0.maybe_start_regen(SimTime::from_secs(9), &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::TokenRegenerated { .. }))),
            "the primary survivor revives the lineage"
        );
    }

    #[test]
    fn heal_probe_merge_grant_cycle() {
        use crate::config::ProtocolConfig;
        use crate::ids::{GroupId, LocalSeq, PayloadId};
        let mut n1 = NeState::new_br(
            GroupId(1),
            NodeId(1),
            vec![NodeId(0), NodeId(1)],
            true,
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n1.on_ring_fail(SimTime::from_secs(1), NodeId(0), &mut out);
        assert!(n1.is_partition_fenced());
        // Two submissions queue while fenced.
        n1.on_source_data(SimTime::from_secs(2), LocalSeq(1), PayloadId(1), &mut out);
        n1.on_source_data(SimTime::from_secs(2), LocalSeq(2), PayloadId(2), &mut out);
        // The periodic tick probes the excised peer.
        out.clear();
        n1.tick_heartbeat(SimTime::from_secs(3), &mut out);
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: Endpoint::Ne(NodeId(0)),
                    msg: Msg::Heartbeat { .. }
                }
            )),
            "partitioned node probes its excised peers for heal evidence"
        );
        // The probe answer (post-heal) starts the merge handshake.
        out.clear();
        n1.on_heartbeat_ack(SimTime::from_secs(4), Endpoint::Ne(NodeId(0)), &mut out);
        assert!(n1.is_merging());
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(0)),
                msg: Msg::RejoinRequest {
                    member: NodeId(1),
                    ..
                }
            }
        )));
        // The grant completes the merge: active again, fence seeded from
        // the merged epoch, MQ kept (NOT fast-forwarded — catch-up runs
        // through the normal NACK machinery), queued pre-orders resubmitted.
        out.clear();
        n1.on_rejoin_grant(
            SimTime::from_secs(5),
            NodeId(1),
            crate::ids::GlobalSeq(50),
            Some((Epoch(2), 0, 5)),
            &mut out,
        );
        assert!(!n1.is_partition_fenced());
        assert!(!n1.is_merging());
        let r = n1.ring.as_ref().unwrap();
        assert!(r.is_in_ring(NodeId(0)), "excised majority re-admitted");
        assert_eq!(
            n1.mq.front(),
            crate::ids::GlobalSeq::ZERO,
            "merge keeps the MQ: the missed range is repaired, not skipped over"
        );
        let ord = n1.ord.as_ref().unwrap();
        assert_eq!(ord.fence.best_instance(), (Epoch(2), 0));
        let resubmits: Vec<LocalSeq> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(NodeId(0)),
                    msg:
                        Msg::PreOrder {
                            corresponding: NodeId(1),
                            local_seq,
                            ..
                        },
                } => Some(*local_seq),
                _ => None,
            })
            .collect();
        assert_eq!(resubmits, vec![LocalSeq(1), LocalSeq(2)]);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::RingMerged {
                node: NodeId(1),
                resubmitted: 2
            })
        )));
        // A stale pre-partition token copy stays dead under the fence…
        out.clear();
        n1.on_token(
            SimTime::from_secs(5),
            Endpoint::Ne(NodeId(0)),
            OrderingToken::new(GroupId(1), NodeId(0)), // epoch 0
            &mut out,
        );
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Record(ProtoEvent::TokenDestroyed { .. }))));
        // …while the merged-epoch live pass is processed and assigns the
        // resubmitted messages fresh GSNs in the merged epoch.
        out.clear();
        let mut live = OrderingToken::new(GroupId(1), NodeId(0));
        live.epoch = Epoch(2);
        live.rotation = 5;
        live.next_gsn = crate::ids::GlobalSeq(61);
        n1.on_token(
            SimTime::from_secs(5),
            Endpoint::Ne(NodeId(0)),
            live,
            &mut out,
        );
        let assigned: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Record(ProtoEvent::Ordered { local_seq, gsn, .. }) => {
                    Some((*local_seq, *gsn))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            assigned,
            vec![
                (LocalSeq(1), crate::ids::GlobalSeq(61)),
                (LocalSeq(2), crate::ids::GlobalSeq(62))
            ],
            "queued messages get fresh GSNs in the merged epoch"
        );
    }

    #[test]
    fn stale_heal_evidence_falls_back_to_partitioned_probing() {
        use crate::config::ProtocolConfig;
        use crate::ids::GroupId;
        // Heal evidence arrives, then the link flaps back down before any
        // grant: after the request budget the node must return to
        // `Partitioned` probing, not take the crash-rejoiner's solo splice.
        let mut n1 = NeState::new_br(
            GroupId(1),
            NodeId(1),
            vec![NodeId(0), NodeId(1)],
            true,
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n1.on_ring_fail(SimTime::from_secs(1), NodeId(0), &mut out);
        n1.on_heartbeat_ack(SimTime::from_secs(2), Endpoint::Ne(NodeId(0)), &mut out);
        assert!(n1.is_merging());
        let budget = 2u64 * (crate::config::HEARTBEAT_MISSES as u64 + 2);
        for i in 0..=budget + 1 {
            out.clear();
            n1.tick_heartbeat(SimTime::from_millis(2_000 + 50 * (i + 1)), &mut out);
        }
        assert!(
            n1.is_partition_fenced() && !n1.is_merging(),
            "unanswered merge requests fall back to Partitioned"
        );
        assert!(
            !out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::RingMerged { .. }))),
            "no solo splice for a fenced minority"
        );
        // Fresh heal evidence restarts the merge normally.
        out.clear();
        n1.on_heartbeat_ack(SimTime::from_secs(9), Endpoint::Ne(NodeId(0)), &mut out);
        assert!(n1.is_merging());
    }

    #[test]
    fn duplicate_merge_grant_is_idempotent() {
        use crate::config::ProtocolConfig;
        use crate::ids::{GlobalSeq, GroupId};
        let mut n1 = NeState::new_br(
            GroupId(1),
            NodeId(1),
            vec![NodeId(0), NodeId(1)],
            true,
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n1.on_ring_fail(SimTime::from_secs(1), NodeId(0), &mut out);
        n1.on_rejoin_grant(
            SimTime::from_secs(2),
            NodeId(1),
            GlobalSeq(10),
            Some((Epoch(1), 0, 3)),
            &mut out,
        );
        assert!(!n1.is_partition_fenced());
        out.clear();
        // The duplicate grant (second granter / rebroadcast) is a no-op:
        // no second resubmission, no second merge record.
        n1.on_rejoin_grant(
            SimTime::from_secs(2),
            NodeId(1),
            GlobalSeq(99),
            Some((Epoch(1), 0, 3)),
            &mut out,
        );
        assert!(
            !out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::RingMerged { .. }))),
            "duplicate grant must not re-run the merge"
        );
        assert_eq!(n1.mq.front(), GlobalSeq::ZERO, "still no fast-forward");
    }

    #[test]
    fn replay_token_resends_snapshot_without_inflight_tracking() {
        use crate::config::ProtocolConfig;
        use crate::ids::GroupId;
        let mut n0 = NeState::new_br(
            GroupId(1),
            NodeId(0),
            vec![NodeId(0), NodeId(1)],
            true,
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        // No snapshot yet: replay is a no-op.
        n0.replay_token(&mut out);
        assert!(out.is_empty());
        n0.originate_token(SimTime::ZERO, &mut out);
        n0.on_token_ack(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(1)),
            Epoch(0),
            1,
            crate::ids::GlobalSeq::ZERO,
            &mut out,
        );
        assert!(n0.ord.as_ref().unwrap().inflight.is_none());
        out.clear();
        n0.replay_token(&mut out);
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: Endpoint::Ne(NodeId(1)),
                    msg: Msg::Token(_)
                }
            )),
            "replay duplicates the kept snapshot toward the ring next"
        );
        assert!(
            n0.ord.as_ref().unwrap().inflight.is_none(),
            "a rogue duplicate is not tracked for reliable transfer"
        );
    }

    #[test]
    fn two_rings_never_both_primary() {
        use crate::ring_lifecycle::LifecycleEvent as E;
        // Every cut of a 5-ring: one side primary, the other not.
        let order: Vec<NodeId> = (0..5).map(NodeId).collect();
        for cut in 1..5usize {
            let mut a = RingLifecycle::new(order.iter().copied());
            let mut b = RingLifecycle::new(order.iter().copied());
            for (i, &m) in order.iter().enumerate() {
                if i < cut {
                    b.apply(m, E::Excise);
                } else {
                    a.apply(m, E::Excise);
                }
            }
            let pa = primary_component(&order, &a);
            let pb = primary_component(&order, &b);
            assert!(
                pa ^ pb,
                "cut {cut}: exactly one side must be primary (a={pa}, b={pb})"
            );
        }
    }
}
