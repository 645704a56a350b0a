//! The network-entity state machine: shared state and message dispatch.
//!
//! One [`NeState`] drives a BR, AG or AP. Per the paper (§4), each entity
//! "only maintains information about its possible leader, previous, next,
//! parent, and children neighbors": [`RingState`] holds the ring-neighbour
//! view (with the statically configured cycle of Remark 2), `parent` /
//! `children` hold the tree view, and APs additionally track their attached
//! MHs in [`ApMhState`].
//!
//! One private constructor fills every field from an entity's static
//! inputs; the public `new_*` constructors are thin calls to it. A
//! crash-restart ([`NeState::restart`]) is the same fresh construction
//! plus a short list of named survivors (statistics, telemetry, the hop
//! and rejoin rotation phases, the cross-group fence wiring).
//!
//! The algorithm implementations live in sibling modules, all as `impl
//! NeState` blocks: `ordering` (Message-Ordering + Order-Assignment),
//! `forwarding` (Message-Forwarding), `delivering` (Message-Delivering and
//! tree/mobility maintenance), `retransmit` (the local-scope retransmission
//! tick), `recovery` (Token-Loss / Multiple-Token) and `membership`
//! (heartbeats, ring repair, membership aggregation).

use std::collections::BTreeMap;

use simnet::SimTime;

use crate::actions::Outbox;
use crate::config::{ProtocolConfig, HEARTBEAT_MISSES, WQ_CAPACITY};
use crate::ids::{Endpoint, GlobalSeq, GroupId, Guid, LocalSeq, NodeId};
use crate::metrics::NeFinal;
use crate::mq::MessageQueue;
use crate::msg::Msg;
use crate::ring_lifecycle::{LifecycleEvent, MemberState, RingLifecycle};
use crate::telemetry::Telemetry;
use crate::token::OrderingToken;
use crate::wq::WorkingQueue;
use crate::wt::WorkingTable;

/// Ring-membership state for BRs and AGs. All membership transitions go
/// through the embedded [`RingLifecycle`] — see that module's docs for the
/// state machine.
#[derive(Debug, Clone)]
pub struct RingState {
    /// The statically configured ring cycle, in ring order (Remark 2).
    pub order: Vec<NodeId>,
    /// Per-member lifecycle states (the single source of truth for who is
    /// in the ring cycle).
    pub lifecycle: RingLifecycle,
    /// True for the top logical ring (the ordering ring).
    pub is_top: bool,
    /// Probes to `next` without an answer, sent or implied.
    pub hb_outstanding: u8,
    /// When the last heartbeat tick ran.
    pub(crate) hb_tick_at: SimTime,
    /// The next node whose traffic answers for it: it acknowledged a frame
    /// sent to it since the last heartbeat tick. While it is still `next`,
    /// a tick implies its probe instead of sending it, and an unanswered
    /// implied probe does not suspect it. Cleared by the first tick that
    /// sends a real probe.
    pub(crate) hb_by_traffic: Option<NodeId>,
    /// The first frame sent to `next` since the last heartbeat tick that
    /// `next` has not acknowledged: it asks the tick's implied probe.
    pub(crate) hb_asked: Option<AskedProbe>,
    /// Cumulative `MQ` ACK received from the next node, by `DataAck` or
    /// `TokenAck` (retention GC of both `MQ` and `WQ`).
    pub next_acked_mq: GlobalSeq,
    /// On the top ring, the last ack of an excised next and until when it
    /// still pins `MQ` ([`RingState::hold_for_failover`]).
    pub(crate) failover_hold: Option<(GlobalSeq, SimTime)>,
}

impl RingState {
    /// Create ring state for `me` over the configured `order`.
    pub fn new(order: Vec<NodeId>, me: NodeId, is_top: bool) -> Self {
        assert!(order.contains(&me), "ring order must include the owner");
        let lifecycle = RingLifecycle::new(order.iter().copied());
        RingState {
            order,
            lifecycle,
            is_top,
            hb_outstanding: 0,
            hb_tick_at: SimTime::ZERO,
            hb_by_traffic: None,
            hb_asked: None,
            next_acked_mq: GlobalSeq::ZERO,
            failover_hold: None,
        }
    }

    fn pos(&self, id: NodeId) -> usize {
        self.order
            .iter()
            .position(|&n| n == id)
            .expect("node not in ring order")
    }

    /// True when the member takes part in the ring cycle.
    pub fn is_in_ring(&self, id: NodeId) -> bool {
        self.lifecycle.is_in_ring(id)
    }

    /// Lifecycle state of a member.
    pub(crate) fn state_of(&self, id: NodeId) -> MemberState {
        self.lifecycle.state(id)
    }

    /// The next in-ring node after `me` in the cycle (may be `me` itself
    /// when it is the only member in the cycle).
    pub fn next_of(&self, me: NodeId) -> NodeId {
        let n = self.order.len();
        let start = self.pos(me);
        for step in 1..=n {
            let cand = self.order[(start + step) % n];
            if self.lifecycle.is_in_ring(cand) {
                return cand;
            }
        }
        me
    }

    /// The previous in-ring node before `me` in the cycle.
    pub fn prev_of(&self, me: NodeId) -> NodeId {
        let n = self.order.len();
        let start = self.pos(me);
        for step in 1..=n {
            let cand = self.order[(start + n - step) % n];
            if self.lifecycle.is_in_ring(cand) {
                return cand;
            }
        }
        me
    }

    /// Whether the ring node before `member` keeps its `MQ` for it, the
    /// one rule of who acks whom: on the top ring always (it serves the
    /// NACKs); on a lower ring unless `member` leads it, the circle
    /// stopping before the leader (§4.2.2), whose parent feeds it instead.
    pub(crate) fn prev_keeps_mq_for(&self, member: NodeId) -> bool {
        self.is_top || member != self.leader()
    }

    /// The ring leader: smallest in-ring node id (DESIGN.md §6).
    pub fn leader(&self) -> NodeId {
        self.lifecycle
            .in_ring()
            .next()
            .expect("ring has no member in the cycle")
    }

    /// Excise a member (local detection or `RingFail` broadcast). Returns
    /// true if it was in the ring cycle until now.
    pub fn mark_dead(&mut self, id: NodeId) -> bool {
        let was_in = self.lifecycle.is_in_ring(id);
        self.lifecycle.apply(id, LifecycleEvent::Excise);
        was_in
    }

    /// `failed` is about to leave `me`'s view. When it is `me`'s next on
    /// the top ring, its last ack keeps pinning `MQ` for one
    /// [`FAILOVER_WINDOW`](crate::config::FAILOVER_WINDOW): the excised
    /// BR's children graft onto a BR of the primary component, which
    /// serves their resume point from this retention.
    pub(crate) fn hold_for_failover(&mut self, me: NodeId, failed: NodeId, now: SimTime) {
        if self.is_top && self.next_of(me) == failed {
            let until = now + crate::config::FAILOVER_WINDOW;
            self.failover_hold = Some((self.next_acked_mq, until));
        }
    }

    /// A liveness probe to `id` went unanswered.
    pub(crate) fn suspect(&mut self, id: NodeId) {
        self.lifecycle.apply(id, LifecycleEvent::Suspect);
    }

    /// Liveness evidence for `id` arrived while it was suspected.
    pub(crate) fn refute(&mut self, id: NodeId) {
        self.lifecycle.apply(id, LifecycleEvent::Refute);
    }

    /// Number of members in the ring cycle.
    pub(crate) fn alive_count(&self) -> usize {
        self.lifecycle.in_ring_count()
    }

    /// Members currently in the ring cycle, in identity order.
    pub(crate) fn members_in_ring(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.lifecycle.in_ring()
    }

    /// A frame that its receiver acknowledges went to `to` at `now`. The
    /// first such frame since the last heartbeat tick asks that tick's
    /// implied probe; `gsn` is the forwarded message an AG ring's
    /// `DataAck` must cover, `None` for a token transfer, which its
    /// `TokenAck` answers.
    pub(crate) fn ask(&mut self, to: NodeId, now: SimTime, gsn: Option<GlobalSeq>) {
        if !self
            .hb_asked
            .is_some_and(|a| a.to == to && a.sent_at >= self.hb_tick_at)
        {
            self.hb_asked = Some(AskedProbe {
                to,
                sent_at: now,
                gsn,
            });
        }
    }

    /// True when `upto`, a `DataAck` from `from`, covers the forwarded
    /// message that asked the current implied probe.
    pub(crate) fn data_ack_answers(&self, from: NodeId, upto: GlobalSeq) -> bool {
        self.hb_asked.is_some_and(|a| {
            a.to == from && a.sent_at >= self.hb_tick_at && a.gsn.is_some_and(|g| upto >= g)
        })
    }

    /// Start probing over, `next` having changed or come back: no miss
    /// carries over, and no ack can answer for a frame sent before.
    pub(crate) fn restart_probes(&mut self) {
        self.hb_outstanding = 0;
        self.hb_asked = None;
    }

    /// Splice a rejoined peer back into `me`'s cycle view. True on a real
    /// splice, which restarts the probes and, when the peer is `me`'s
    /// new next, its ACK progress (pinning GC until its first post-rejoin
    /// cumulative ACK).
    pub(crate) fn readmit(&mut self, me: NodeId, member: NodeId) -> bool {
        let t = self.lifecycle.apply(member, LifecycleEvent::RejoinComplete);
        if t.changed() {
            self.restart_probes();
            if self.next_of(me) == member {
                self.next_acked_mq = GlobalSeq::ZERO;
            }
        }
        t.changed()
    }
}

/// A frame to the next ring node that asks a heartbeat tick's implied
/// probe (see [`crate::membership`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AskedProbe {
    /// The next node it went to.
    pub(crate) to: NodeId,
    /// When it was sent.
    pub(crate) sent_at: SimTime,
    /// The GSN an AG ring's `DataAck` must cover to answer it; `None` for
    /// a token transfer.
    pub(crate) gsn: Option<GlobalSeq>,
}

/// In-flight ordering-token transfer awaiting a [`Msg::TokenAck`].
#[derive(Debug, Clone)]
pub struct InflightToken {
    /// The token copy being transferred.
    pub token: OrderingToken,
    /// The intended receiver.
    pub to: NodeId,
    /// When the last attempt was sent.
    pub sent_at: SimTime,
    /// Transfer attempts so far.
    pub attempts: u8,
}

/// Message-Ordering state kept by top-ring nodes only (§4.1).
#[derive(Debug, Clone)]
pub struct OrderingState {
    /// `NewOrderingToken`: snapshot of the most recently processed token.
    pub new_token: Option<OrderingToken>,
    /// `OldOrderingToken`: the previous snapshot.
    pub old_token: Option<OrderingToken>,
    /// `MinLocalSeqNo`: first own-source local number not yet assigned.
    pub min_unordered: LocalSeq,
    /// `MaxLocalSeqNo`: last own-source local number received.
    pub max_local: LocalSeq,
    /// Outstanding reliable token transfer to the next node.
    pub inflight: Option<InflightToken>,
    /// The ring-epoch fence: owns the keep-one instance order, the
    /// duplicate-pass fingerprint and every epoch bump (see
    /// [`crate::ring_epoch`]). Every token acceptance, regeneration round
    /// and rejoin-grant seeding validates against it.
    pub fence: crate::ring_epoch::EpochFence,
    /// Last time a live token was processed here ("ordering runs well").
    pub last_token_seen: SimTime,
    /// Last time this node originated a Token-Regeneration round.
    pub last_regen_at: SimTime,
    /// Forced-token-loss arming ([`Msg::DropToken`]): when set, the next
    /// token arriving with an epoch ≤ the armed epoch is acknowledged and
    /// silently discarded. Any token arrival disarms.
    pub drop_armed: Option<crate::ids::Epoch>,
    /// This node ceded its outstanding Token-Regeneration round to a
    /// smaller-origin round it forwarded (concurrent-round arbitration);
    /// its own returning round message must be dropped, not adopted.
    pub regen_ceded: bool,
    /// Order-Assignment watermark: every global number at or below it is
    /// settled here — copied `WQ`→`MQ`, or out of reach for good (lost,
    /// collected, or covered by no kept snapshot). A scan walks only the
    /// WTSNP entries above it, and when it equals the newest snapshot's
    /// last assigned number there is nothing to scan at all.
    pub(crate) assigned_through: GlobalSeq,
}

impl OrderingState {
    fn new() -> Self {
        OrderingState {
            new_token: None,
            old_token: None,
            min_unordered: LocalSeq::FIRST,
            max_local: LocalSeq::ZERO,
            inflight: None,
            fence: crate::ring_epoch::EpochFence::new(),
            last_token_seen: SimTime::ZERO,
            last_regen_at: SimTime::ZERO,
            drop_armed: None,
            regen_ceded: false,
            assigned_through: GlobalSeq::ZERO,
        }
    }
}

/// AP-only state: the attached-MH table and tree-activation bookkeeping.
#[derive(Debug, Clone)]
pub struct ApMhState {
    /// Per-MH delivery progress (the paper's AP-side `WT`, keyed by GUID).
    pub wt: WorkingTable<Guid>,
    /// Last time each MH was heard from (liveness).
    pub last_heard: BTreeMap<Guid, SimTime>,
    /// Statically part of the distribution tree (non-mobility experiments).
    pub always_active: bool,
    /// Active until this time due to a path reservation.
    pub reservation_until: SimTime,
    /// Neighbouring APs (for reservation propagation).
    pub neighbours: Vec<NodeId>,
    /// Whether this AP is currently grafted to its parent.
    pub grafted: bool,
}

impl ApMhState {
    pub(crate) fn new(always_active: bool, neighbours: Vec<NodeId>) -> Self {
        ApMhState {
            wt: WorkingTable::new(),
            last_heard: BTreeMap::new(),
            always_active,
            reservation_until: SimTime::ZERO,
            neighbours,
            grafted: false,
        }
    }

    /// Should this AP be receiving the group's traffic at `now`?
    pub(crate) fn should_be_active(&self, now: SimTime) -> bool {
        self.always_active || !self.wt.is_empty() || now < self.reservation_until
    }
}

/// The delivery front (`upto`) an entity last stated to one of its ack
/// targets, and when.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Told {
    pub(crate) to: NodeId,
    pub(crate) upto: GlobalSeq,
    pub(crate) at: SimTime,
}

/// Per-entity counters, handed over at teardown in the entity's
/// [`NeFinal`] record.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeCounters {
    /// Data-plane messages sent.
    pub data_sent: u32,
    /// Control-plane messages sent.
    pub control_sent: u32,
    /// Retransmissions served to downstreams.
    pub retransmissions: u32,
    /// Duplicate data receptions discarded.
    pub duplicates: u32,
}

/// The network-entity state machine. See module docs.
pub struct NeState {
    /// Group served.
    pub group: GroupId,
    /// `Current`: this entity's identity.
    pub id: NodeId,
    /// Protocol parameters.
    pub cfg: ProtocolConfig,
    /// Ring view (BRs and AGs).
    pub ring: Option<RingState>,
    /// Current parent (ring leaders and APs).
    pub parent: Option<NodeId>,
    /// Statically configured candidate parents (Remark 2).
    pub parent_candidates: Vec<NodeId>,
    /// The AG ring's leader when this entity is the leader's next member:
    /// it is watched instead of the parent (`NeState::rewatch`).
    pub(crate) watched_leader: Option<NodeId>,
    /// Probes to the watched node without an answer, sent or implied.
    pub parent_hb_outstanding: u8,
    /// A frame arrived from the watched node since the last heartbeat
    /// tick: it answered the outstanding probe, and that tick implies its
    /// probe instead of sending it.
    pub(crate) parent_heard: bool,
    /// Active children and when each was last heard.
    pub children: BTreeMap<NodeId, SimTime>,
    /// Per-child delivery progress (`WT`).
    pub wt_children: WorkingTable<NodeId>,
    /// The ordered-message queue (`MQ`).
    pub mq: MessageQueue,
    /// The pre-order queue (`WQ`), top-ring nodes only.
    pub wq: Option<WorkingQueue>,
    /// Message-Ordering state, top-ring nodes only.
    pub ord: Option<OrderingState>,
    /// AP-only MH state.
    pub ap: Option<ApMhState>,
    /// Net membership delta not yet propagated upward (batched updates).
    pub pending_delta: i64,
    /// Aggregated member count of this entity's subtree.
    pub subtree_members: i64,
    /// Hop-tick counter (drives the `ack_every` divisor).
    pub hop_tick_count: u64,
    /// The front last stated, by `DataAck` or `TokenAck`, to the upstream
    /// hop, the one ack target. An ack goes out only when it says more than
    /// this; it is dropped whenever its target may have forgotten us
    /// ([`NeState::forget_told`]).
    pub(crate) told: Option<Told>,
    /// Statistics counters.
    pub counters: NeCounters,
    /// Crash-stop flag: a dead entity ignores everything.
    pub alive: bool,
    /// Set by a crash-restart ([`NeState::restart`]): the next `GraftAck`
    /// fast-forwards the (freshly empty) `MQ` to the parent's announced
    /// front instead of chasing unrecoverable history.
    pub resync_on_graft: bool,
    /// Set by a crash-restart of a top-ring node: the first post-restart
    /// own-source message re-baselines `MinLocalSeqNo` so already-ordered
    /// local numbers are never assigned a second global number.
    pub resync_source: bool,
    /// Rejoin requests received from restarted ring members, granted at the
    /// next token boundary (top ring; non-top rings grant immediately).
    pub pending_rejoins: Vec<NodeId>,
    /// Rotating index into the static ring order for [`Msg::RejoinRequest`]
    /// retries while this entity is itself rejoining.
    pub rejoin_target: usize,
    /// Rejoin requests this incarnation sent without a grant yet. Past a
    /// budget proportional to the ring size, the rejoiner concludes nobody
    /// is left to grant (every static peer dead or unreachable) and splices
    /// itself in; normal liveness probing then re-excises the dead peers.
    pub rejoin_attempts: u32,
    /// Rotating index into the static ring order for the partition-heal
    /// probes a [`MemberState::Partitioned`] node sends to its excised
    /// peers (see [`crate::ring_epoch`]).
    pub merge_probe_target: usize,
    /// A ring leader's `Graft` to its parent has not been acknowledged
    /// yet. The parent may have lost the graft (administratively-down
    /// link, loss) while still answering heartbeats — without a retry the
    /// leader would believe itself attached while the parent serves it
    /// nothing, stranding its whole ring. Retried on the heartbeat tick;
    /// cleared by [`Msg::GraftAck`]. (APs track the equivalent via
    /// `ApMhState::grafted` + `ensure_active_grafted`.)
    pub graft_pending: bool,
    /// Cross-group fence wiring ([`crate::fence`]): present only on
    /// top-ring states of multi-group simulations. `None` keeps every
    /// fence path inert (single-group runs are byte-identical).
    pub(crate) cross_fence: Option<crate::fence::CrossGroupFence>,
    /// Deterministic observability: metrics registry plus flight
    /// recorder ([`crate::telemetry`]). No-op unless `cfg.telemetry`.
    pub telemetry: Telemetry,
}

impl NeState {
    /// A factory-fresh entity, from its static inputs alone: the ring order
    /// with its top flag (BRs, AGs), the candidate parents, and an AP's
    /// `always_active` flag with its neighbours. The one statement of what
    /// "empty" means, shared by creation and [`NeState::restart`].
    fn fresh(
        group: GroupId,
        id: NodeId,
        cfg: ProtocolConfig,
        ring: Option<(Vec<NodeId>, bool)>,
        parent_candidates: Vec<NodeId>,
        ap: Option<(bool, Vec<NodeId>)>,
    ) -> Self {
        let is_top = ring.as_ref().is_some_and(|&(_, top)| top);
        NeState {
            group,
            id,
            ring: ring.map(|(order, is_top)| RingState::new(order, id, is_top)),
            parent: None,
            parent_candidates,
            watched_leader: None,
            parent_hb_outstanding: 0,
            parent_heard: false,
            children: BTreeMap::new(),
            wt_children: WorkingTable::new(),
            mq: MessageQueue::new(cfg.mq_capacity),
            wq: is_top.then(|| WorkingQueue::new(WQ_CAPACITY)),
            ord: is_top.then(OrderingState::new),
            ap: ap.map(|(always_active, neighbours)| ApMhState::new(always_active, neighbours)),
            pending_delta: 0,
            subtree_members: 0,
            hop_tick_count: 0,
            told: None,
            counters: NeCounters::default(),
            alive: true,
            resync_on_graft: false,
            resync_source: false,
            pending_rejoins: Vec::new(),
            rejoin_target: 0,
            rejoin_attempts: 0,
            merge_probe_target: 0,
            graft_pending: false,
            cross_fence: None,
            telemetry: Telemetry::from_cfg(&cfg),
            cfg,
        }
    }

    /// Create a border router. `ring` must contain `id`; `is_top` marks the
    /// ordering ring.
    pub fn new_br(
        group: GroupId,
        id: NodeId,
        ring: Vec<NodeId>,
        is_top: bool,
        cfg: ProtocolConfig,
    ) -> Self {
        Self::fresh(group, id, cfg, Some((ring, is_top)), Vec::new(), None)
    }

    /// Create an access gateway on a (non-top) ring with candidate parents.
    pub fn new_ag(
        group: GroupId,
        id: NodeId,
        ring: Vec<NodeId>,
        parent_candidates: Vec<NodeId>,
        cfg: ProtocolConfig,
    ) -> Self {
        Self::fresh(group, id, cfg, Some((ring, false)), parent_candidates, None)
    }

    /// Create a hybrid station for the flat-ring baseline: a member of a
    /// single top (ordering) ring that *also* serves MHs directly — the
    /// structure of the logical-ring protocol of Nikolaidis & Harms that
    /// §2 compares against (every base station on one ring).
    pub fn new_flat_station(
        group: GroupId,
        id: NodeId,
        ring: Vec<NodeId>,
        cfg: ProtocolConfig,
    ) -> Self {
        let station = Some((true, Vec::new()));
        Self::fresh(group, id, cfg, Some((ring, true)), Vec::new(), station)
    }

    /// Create an access proxy under candidate parent AGs.
    pub fn new_ap(
        group: GroupId,
        id: NodeId,
        parent_candidates: Vec<NodeId>,
        always_active: bool,
        neighbours: Vec<NodeId>,
        cfg: ProtocolConfig,
    ) -> Self {
        let ap = Some((always_active, neighbours));
        Self::fresh(group, id, cfg, None, parent_candidates, ap)
    }

    /// True when this entity sits on the top (ordering) logical ring.
    pub(crate) fn is_top_ring(&self) -> bool {
        self.ring.as_ref().is_some_and(|r| r.is_top)
    }

    /// This entity's next ring node, if on a ring.
    pub fn ring_next(&self) -> Option<NodeId> {
        self.ring.as_ref().map(|r| r.next_of(self.id))
    }

    /// This entity's previous ring node, if on a ring.
    pub(crate) fn ring_prev(&self) -> Option<NodeId> {
        self.ring.as_ref().map(|r| r.prev_of(self.id))
    }

    /// This entity's ring leader, if on a ring.
    pub(crate) fn ring_leader(&self) -> Option<NodeId> {
        self.ring.as_ref().map(|r| r.leader())
    }

    /// True when this entity is its ring's leader.
    pub(crate) fn is_ring_leader(&self) -> bool {
        self.ring_leader() == Some(self.id)
    }

    /// The upstream hop this entity NACKs missing `MQ` messages to and
    /// acks its front to: the previous ring node when that node keeps its
    /// `MQ` for us (`RingState::prev_keeps_mq_for`), else the parent (the
    /// leader of a *non-top* ring, an AP).
    pub fn upstream(&self) -> Option<NodeId> {
        match &self.ring {
            Some(r) if r.prev_keeps_mq_for(self.id) => {
                let prev = r.prev_of(self.id);
                (prev != self.id).then_some(prev)
            }
            _ => self.parent,
        }
    }

    /// Dispatch one received message. `from` is the sending endpoint as
    /// resolved by the engine. Outputs are appended to `out`.
    pub fn on_msg(&mut self, now: SimTime, from: Endpoint, msg: Msg, out: &mut Outbox) {
        if let Msg::Restart { .. } = msg {
            // The one stimulus a crashed entity still reacts to.
            self.restart(now, out);
            return;
        }
        if !self.alive {
            return;
        }
        debug_assert_eq!(msg.group(), self.group, "cross-group message");
        if self.watched_leader.or(self.parent).map(Endpoint::Ne) == Some(from) {
            // Whatever the watched node sends answers the probe to it.
            self.parent_hb_outstanding = 0;
            self.parent_heard = true;
        }
        match msg {
            Msg::SourceData {
                local_seq, payload, ..
            } => self.on_source_data(now, local_seq, payload, out),
            Msg::PreOrder {
                corresponding,
                local_seq,
                payload,
                ..
            } => self.on_pre_order(now, corresponding, local_seq, payload, out),
            Msg::PreOrderNack {
                corresponding,
                missing,
                ..
            } => self.on_pre_order_nack(from, corresponding, &missing, out),
            Msg::FenceIngress {
                origin,
                local_seq,
                payload,
                targets,
                ..
            } => self.on_fence_ingress(now, origin, local_seq, payload, targets, out),
            Msg::FenceDispatch {
                chan_seq,
                origin,
                origin_seq,
                payload,
                ..
            } => self.on_fence_dispatch(now, chan_seq, origin, origin_seq, payload, out),
            Msg::FencePreOrder {
                funnel,
                chan_seq,
                origin,
                origin_seq,
                payload,
                ..
            } => self.on_fence_pre_order(now, funnel, chan_seq, (origin, origin_seq), payload, out),
            Msg::Token(token) => self.on_token(now, from, *token, out),
            Msg::TokenAck {
                epoch,
                rotation,
                upto,
                ..
            } => self.on_token_ack(now, from, epoch, rotation, upto, out),
            Msg::Data { gsn, data, .. } => self.on_data(now, from, gsn, data, out),
            Msg::DataAck { upto, .. } => self.on_data_ack(now, from, upto, out),
            Msg::DataNack { missing, .. } => self.on_data_nack(from, &missing, out),
            Msg::Heartbeat { .. } => self.on_heartbeat(now, from, out),
            Msg::HeartbeatAck { .. } => self.on_heartbeat_ack(now, from, out),
            // Our new previous node knows nothing of our progress; the
            // alive set itself is maintained by `RingFail` broadcasts.
            Msg::NewPrev { .. } => self.forget_told(),
            Msg::Graft {
                child,
                resume_from,
                resync,
                ..
            } => self.on_graft(now, child, resume_from, resync, out),
            Msg::GraftAck { front, .. } => self.on_graft_ack(now, from, front),
            Msg::Prune { child, .. } => self.on_prune(now, child, out),
            Msg::MembershipUpdate { delta, .. } => self.on_membership_update(delta),
            Msg::Join { guid, .. } => self.on_join(now, guid, out),
            Msg::Leave { guid, .. } => self.on_leave(now, guid, out),
            Msg::HandoffRegister {
                guid, resume_from, ..
            } => self.on_handoff_register(now, guid, resume_from, out),
            Msg::Reserve {
                origin_ap, radius, ..
            } => self.on_reserve(now, origin_ap, radius, out),
            Msg::TokenRegen { origin, best, .. } => self.on_token_regen(now, origin, *best, out),
            Msg::RingFail { failed, .. } => self.on_ring_fail(now, failed, out),
            Msg::RejoinRequest { member, .. } => self.on_rejoin_request(now, member, out),
            Msg::RejoinGrant {
                member,
                front,
                pass,
                ..
            } => self.on_rejoin_grant(now, member, front, pass, out),
            Msg::Kill { .. } => self.kill(),
            Msg::DropToken { .. } => self.arm_token_drop(),
            Msg::ReplayToken { .. } => self.replay_token(out),
            Msg::Restart { .. } => unreachable!("handled before the alive check"),
            Msg::HandoffTo { .. }
            | Msg::JoinAck { .. }
            | Msg::JoinCmd { .. }
            | Msg::ReRegister { .. } => {
                // MH-only messages; NEs ignore them.
            }
        }
    }

    /// Send one control-plane message: the single place control traffic is
    /// counted, in total (`NeFinal::control_sent`, see [`Self::finals`]) and
    /// by kind (telemetry).
    pub(crate) fn send_control(&mut self, to: Endpoint, msg: Msg, out: &mut Outbox) {
        self.counters.control_sent += 1;
        self.telemetry.count(msg.control_metric());
        out.push(crate::actions::Action::Send { to, msg });
    }

    /// Forget what the ack target was last told, so the next ack tick
    /// restates the front to it: called whenever the target may have
    /// reset what it knows of us — a repair made us its next (`NewPrev`),
    /// it re-registered us as a child (`GraftAck`), a rejoin or merge
    /// spliced either of us back in (`RejoinGrant`).
    pub(crate) fn forget_told(&mut self) {
        self.told = None;
    }

    /// This state's end-of-run counters; `None` once crashed (a dead state
    /// hands over nothing — see [`Finals`](crate::metrics::Finals)).
    pub(crate) fn finals(&self) -> Option<NeFinal> {
        self.alive.then(|| NeFinal {
            wq_peak: self.wq.as_ref().map_or(0, |w| w.peak_occupancy() as u32),
            mq_peak: self.mq.peak_occupancy() as u32,
            mq_overflow: self.mq.overflow_drops as u32,
            wq_overflow: self.wq.as_ref().map_or(0, |w| w.overflow_drops as u32),
            control_sent: self.counters.control_sent,
            data_sent: self.counters.data_sent,
            retransmissions: self.counters.retransmissions,
        })
    }

    /// Crash-stop this entity (scenario fault injection).
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Restart a crashed entity (scenario fault injection): a fresh
    /// construction from the same static inputs (identity, configuration,
    /// the Remark-2 ring order, candidate parents, an AP's activation flag
    /// and neighbours) plus the survivors named in the body, each with its
    /// reason. `MQ`/`WQ`, ordering state, child and MH tables, tree
    /// attachment and the rejoin budget all start over.
    ///
    /// * A restarted **AP** re-grafts on demand: immediately when
    ///   `always_active`, otherwise when an MH re-registers (solicited via
    ///   [`Msg::ReRegister`] when the AP hears from an MH it no longer
    ///   knows). The first `GraftAck` fast-forwards the fresh `MQ` to the
    ///   parent's announced front.
    /// * A restarted **BR/AG** re-enters its repaired ring through the
    ///   lifecycle layer: peers count as in-ring until probing re-excises
    ///   the dead, its own state becomes `Rejoining`, and it runs the
    ///   [`Msg::RejoinRequest`]/[`Msg::RejoinGrant`] handshake, retried on
    ///   the heartbeat tick against rotating static ring members until a
    ///   grant splices it back in at a token boundary (see
    ///   `NeState::on_rejoin_request`).
    pub fn restart(&mut self, now: SimTime, out: &mut Outbox) {
        let ring = self.ring.take().map(|r| (r.order, r.is_top));
        let ap = self.ap.take().map(|a| (a.always_active, a.neighbours));
        let parents = std::mem::take(&mut self.parent_candidates);
        let fresh = Self::fresh(self.group, self.id, self.cfg.clone(), ring, parents, ap);
        *self = NeState {
            // Cumulative statistics and telemetry span incarnations.
            counters: self.counters,
            telemetry: std::mem::take(&mut self.telemetry),
            // Resetting it would shift this entity's `ack_every` phase.
            hop_tick_count: self.hop_tick_count,
            // Resetting it would change who gets the first rejoin request.
            rejoin_target: self.rejoin_target,
            // Static wiring: the generator never faults a multi-group core.
            cross_fence: self.cross_fence.take(),
            // The fresh `MQ` resyncs from the first `GraftAck`; on the top
            // ring own-source numbering re-baselines too.
            resync_on_graft: true,
            resync_source: fresh.ord.is_some(),
            ..fresh
        };
        if let Some(wq) = self.wq.as_mut() {
            wq.mark_resync();
        }
        if let Some(r) = self.ring.as_mut() {
            // The crash was its excision: `Excised → Rejoining`.
            r.lifecycle.apply(self.id, LifecycleEvent::Excise);
            r.lifecycle.apply(self.id, LifecycleEvent::RejoinStart);
            if r.alive_count() == 0 {
                // Sole member of its ring (degenerate rings-of-one, e.g. the
                // tree baseline's routers): there is nobody to grant, so the
                // splice is immediate.
                self.complete_own_rejoin(now, self.mq.front(), None, out);
            } else {
                self.send_rejoin_request(now, out);
            }
        } else {
            self.ensure_active_grafted(now, out);
        }
    }

    /// True while this ring entity is waiting to be spliced back in.
    pub fn is_rejoining(&self) -> bool {
        self.ring
            .as_ref()
            .is_some_and(|r| r.state_of(self.id) == MemberState::Rejoining)
    }

    /// Send (or retry) the rejoin request, rotating through the static ring
    /// order so a dead first pick cannot stall re-entry. Past a budget of
    /// unanswered requests covering every peer several times over, nobody
    /// is left to grant (every static peer dead or unreachable): the
    /// rejoiner splices itself in and lets normal liveness probing
    /// re-excise the dead peers one by one.
    pub(crate) fn send_rejoin_request(&mut self, now: SimTime, out: &mut Outbox) {
        let group = self.group;
        let me = self.id;
        let Some(r) = self.ring.as_ref() else { return };
        let n = r.order.len();
        let budget = (n as u32) * (HEARTBEAT_MISSES as u32 + 2);
        if self.rejoin_attempts >= budget {
            if self.is_merging() {
                // The heal evidence went stale: the link flapped back down
                // before any grant arrived. A partition-merging node must
                // not take the crash-rejoiner's solo splice (its side is
                // still the fenced minority) — fall back to `Partitioned`
                // probing until fresh heal evidence arrives.
                let r = self.ring.as_mut().expect("checked above");
                r.lifecycle
                    .apply(self.id, LifecycleEvent::PartitionMinority);
                self.rejoin_attempts = 0;
                return;
            }
            self.complete_own_rejoin(now, self.mq.front(), None, out);
            return;
        }
        self.rejoin_attempts += 1;
        for _ in 0..n {
            let cand = r.order[self.rejoin_target % n];
            self.rejoin_target = (self.rejoin_target + 1) % n;
            if cand != me {
                let request = Msg::RejoinRequest { group, member: me };
                self.send_control(Endpoint::Ne(cand), request, out);
                self.telemetry.rejoin_requested(now, cand);
                return;
            }
        }
    }

    /// A restarted ring member asked to re-enter.
    ///
    /// A member we had excised needs a real splice: non-top rings grant
    /// immediately, the top ring defers to the next token boundary
    /// ([`NeState::process_and_forward_token`]) so the splice happens
    /// while the granter holds the token exclusively and GSN assignment
    /// cannot fork.
    ///
    /// A member still `Active` in our cycle (we never excised it — it
    /// restarted before detection, or a duplicate request raced its own
    /// grant) is granted immediately *with* the ring-wide broadcast: our
    /// view may not be everyone's (a `RingFail` about the member can still
    /// be in flight), and the member stops requesting once it completes —
    /// without the broadcast, peers that did excise it would exclude it
    /// forever with no repair path. Receivers treat the broadcast
    /// idempotently, so the cost of a stale duplicate request is a few
    /// no-op control messages.
    pub(crate) fn on_rejoin_request(&mut self, now: SimTime, member: NodeId, out: &mut Outbox) {
        if member == self.id {
            return; // misrouted echo
        }
        let Some(r) = self.ring.as_mut() else { return };
        if r.state_of(self.id) != MemberState::Active {
            return; // a rejoining/suspected node is no authority
        }
        if !r.order.contains(&member) {
            return; // not a member of this ring's static order
        }
        r.lifecycle.apply(member, LifecycleEvent::RejoinStart);
        match r.state_of(member) {
            MemberState::Rejoining if r.is_top => {
                if !self.pending_rejoins.contains(&member) {
                    self.pending_rejoins.push(member);
                }
            }
            MemberState::Rejoining => self.grant_rejoin(now, member, None, out),
            MemberState::Active => {
                let pass = self.known_token_pass();
                self.grant_rejoin(now, member, pass, out);
            }
            MemberState::Suspected | MemberState::Excised => {
                unreachable!("RejoinStart leaves a member active or rejoining")
            }
            MemberState::Partitioned | MemberState::Merging => {
                unreachable!("partition states are self-only; peers see Excised")
            }
        }
    }

    /// The live token pass `(epoch, origin, rotation)` as last seen here,
    /// for seeding a rejoiner's duplicate-transfer suppression state.
    fn known_token_pass(&self) -> Option<crate::ring_epoch::PassId> {
        Some(self.ord.as_ref()?.new_token.as_ref()?.pass_id())
    }

    /// Splice `member` back into the ring: complete its lifecycle
    /// transition, tell it (and every other in-ring member) via
    /// [`Msg::RejoinGrant`], and reset the neighbour bookkeeping the splice
    /// may have invalidated. `pass` is the live token pass in hand at a
    /// top-ring splice boundary (None on non-top rings). The broadcast is
    /// sent even when the member is already `Active` here — peers whose
    /// view diverged (an excision we never saw) re-admit it; the
    /// bookkeeping resets and the journal record happen only on a real
    /// splice.
    pub(crate) fn grant_rejoin(
        &mut self,
        now: SimTime,
        member: NodeId,
        pass: Option<(crate::ids::Epoch, u32, u64)>,
        out: &mut Outbox,
    ) {
        let group = self.group;
        let me = self.id;
        let front = self.mq.front();
        let Some(r) = self.ring.as_mut() else { return };
        let spliced = r.readmit(me, member);
        let targets: Vec<NodeId> = r.members_in_ring().filter(|&m| m != me).collect();
        for t in targets {
            let grant = Msg::RejoinGrant {
                group,
                member,
                front,
                pass,
            };
            self.send_control(Endpoint::Ne(t), grant, out);
        }
        if spliced {
            self.rewatch();
            self.forget_told();
            out.push(crate::actions::Action::Record(
                crate::events::ProtoEvent::RingRejoined { node: me, member },
            ));
            self.telemetry.rejoin_granted(now, member);
        }
    }

    /// A rejoin grant arrived: either we are the rejoined member (complete
    /// the splice — a crash-rejoiner fast-forwards its fresh `MQ` to the
    /// granter's front, a partition-merging member keeps its `MQ` and
    /// resubmits its queued pre-orders) or a peer was rejoined (re-admit it
    /// to our cycle view).
    pub(crate) fn on_rejoin_grant(
        &mut self,
        now: SimTime,
        member: NodeId,
        front: GlobalSeq,
        pass: Option<(crate::ids::Epoch, u32, u64)>,
        out: &mut Outbox,
    ) {
        // Either of us re-entering the cycle resets the other's ack
        // bookkeeping (`next_acked_mq` below, on whoever gains a new next).
        self.forget_told();
        if member == self.id {
            if self.is_partition_fenced() {
                self.complete_own_merge(now, pass, out);
            } else {
                self.complete_own_rejoin(now, front, pass, out);
            }
            return;
        }
        let me = self.id;
        let Some(r) = self.ring.as_mut() else { return };
        if r.order.contains(&member) && r.readmit(me, member) {
            self.rewatch();
        }
    }

    /// Finish our own re-entry: become `Active`, fast-forward the fresh
    /// `MQ` to the granter's announced front (history from before the crash
    /// is unrecoverable — chasing it would only produce NACK storms), seed
    /// the token-duplicate guards from the granter's known pass, and
    /// re-acquire a parent when we lead a non-top ring.
    pub(crate) fn complete_own_rejoin(
        &mut self,
        now: SimTime,
        front: GlobalSeq,
        pass: Option<(crate::ids::Epoch, u32, u64)>,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let Some(r) = self.ring.as_mut() else { return };
        let t = r.lifecycle.apply(me, LifecycleEvent::RejoinComplete);
        if !t.changed() {
            return; // duplicate grant: the splice already happened
        }
        r.restart_probes();
        self.mq.fast_forward(front);
        self.seed_fence_from_grant(now, pass, crate::telemetry::EpochCause::RejoinSeed);
        self.telemetry.rejoin_completed(now, me);
        self.after_ring_change(now, out);
    }

    /// Arm forced token loss (scenario fault injection): the next token of
    /// the currently-best epoch this node receives is acknowledged and
    /// black-holed (see [`Msg::DropToken`]). No-op off the top ring.
    pub(crate) fn arm_token_drop(&mut self) {
        if let Some(ord) = self.ord.as_mut() {
            ord.drop_armed = Some(ord.fence.best_instance().0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Vec<NodeId> {
        vec![NodeId(10), NodeId(20), NodeId(30)]
    }

    #[test]
    fn ring_next_prev_leader() {
        let r = RingState::new(ring3(), NodeId(20), true);
        assert_eq!(r.next_of(NodeId(10)), NodeId(20));
        assert_eq!(r.next_of(NodeId(30)), NodeId(10));
        assert_eq!(r.prev_of(NodeId(10)), NodeId(30));
        assert_eq!(r.prev_of(NodeId(20)), NodeId(10));
        assert_eq!(r.leader(), NodeId(10));
    }

    #[test]
    fn ring_skips_dead_members() {
        let mut r = RingState::new(ring3(), NodeId(10), true);
        assert!(r.mark_dead(NodeId(20)));
        assert!(!r.mark_dead(NodeId(20)));
        assert_eq!(r.next_of(NodeId(10)), NodeId(30));
        assert_eq!(r.prev_of(NodeId(30)), NodeId(10));
        assert_eq!(r.alive_count(), 2);
        r.mark_dead(NodeId(30));
        assert_eq!(
            r.next_of(NodeId(10)),
            NodeId(10),
            "sole survivor is its own next"
        );
    }

    #[test]
    fn leader_changes_on_death() {
        let mut r = RingState::new(ring3(), NodeId(20), false);
        assert_eq!(r.leader(), NodeId(10));
        r.mark_dead(NodeId(10));
        assert_eq!(r.leader(), NodeId(20));
    }

    #[test]
    fn br_constructor_wires_ordering_only_on_top() {
        let cfg = ProtocolConfig::default();
        let top = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg.clone());
        assert!(top.ord.is_some());
        assert!(top.wq.is_some());
        assert!(top.is_top_ring());
        let lower = NeState::new_br(GroupId(1), NodeId(10), ring3(), false, cfg);
        assert!(lower.ord.is_none());
        assert!(lower.wq.is_none());
    }

    #[test]
    fn upstream_resolution() {
        let cfg = ProtocolConfig::default();
        // Ring member (non-leader): upstream is prev.
        let ag = NeState::new_ag(
            GroupId(1),
            NodeId(20),
            ring3(),
            vec![NodeId(1)],
            cfg.clone(),
        );
        assert_eq!(ag.upstream(), Some(NodeId(10)));
        // Non-top ring leader: upstream is the parent.
        let mut leader = NeState::new_ag(
            GroupId(1),
            NodeId(10),
            ring3(),
            vec![NodeId(1)],
            cfg.clone(),
        );
        assert_eq!(leader.upstream(), None, "not grafted yet");
        leader.parent = Some(NodeId(1));
        assert_eq!(leader.upstream(), Some(NodeId(1)));
        // Top-ring leader: upstream is still prev (MQ repair within the ring).
        let br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg.clone());
        assert_eq!(br.upstream(), Some(NodeId(30)));
        // AP: upstream is the parent.
        let mut ap = NeState::new_ap(GroupId(1), NodeId(99), vec![NodeId(20)], true, vec![], cfg);
        ap.parent = Some(NodeId(20));
        assert_eq!(ap.upstream(), Some(NodeId(20)));
    }

    #[test]
    fn ap_activation_logic() {
        let now = SimTime::from_secs(1);
        let mut ap = ApMhState::new(false, vec![]);
        assert!(!ap.should_be_active(now));
        ap.reservation_until = SimTime::from_secs(2);
        assert!(ap.should_be_active(now));
        assert!(!ap.should_be_active(SimTime::from_secs(3)));
        ap.wt.register(Guid(1), GlobalSeq::ZERO);
        assert!(ap.should_be_active(SimTime::from_secs(3)));
        let always = ApMhState::new(true, vec![]);
        assert!(always.should_be_active(now));
    }

    #[test]
    fn restart_revives_ap_with_fresh_state() {
        let cfg = ProtocolConfig::default();
        let mut ap = NeState::new_ap(
            GroupId(1),
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![NodeId(98)],
            cfg,
        );
        let mut out = Vec::new();
        ap.on_join(SimTime::ZERO, Guid(1), &mut out);
        ap.kill();
        out.clear();
        ap.on_msg(
            SimTime::from_secs(1),
            Endpoint::Ne(NodeId(99)),
            Msg::Restart { group: GroupId(1) },
            &mut out,
        );
        assert!(ap.alive, "restart revives");
        assert!(ap.resync_on_graft, "next graft ack resyncs the MQ");
        let st = ap.ap.as_ref().unwrap();
        assert!(st.wt.is_empty(), "MH table wiped");
        assert_eq!(st.neighbours, vec![NodeId(98)], "static config survives");
        assert!(st.always_active);
        assert_eq!(ap.subtree_members, 0);
        // Always-active AP re-grafts immediately.
        assert!(out.iter().any(|a| matches!(
            a,
            crate::actions::Action::Send {
                msg: Msg::Graft { .. },
                ..
            }
        )));
    }

    #[test]
    fn restart_puts_ring_entities_on_the_rejoin_path() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        br.kill();
        let mut out = Vec::new();
        br.on_msg(
            SimTime::from_secs(1),
            Endpoint::Ne(NodeId(10)),
            Msg::Restart { group: GroupId(1) },
            &mut out,
        );
        assert!(br.alive, "restart revives ring entities");
        assert!(br.is_rejoining(), "not in the cycle until granted");
        assert!(br.resync_source, "own-source numbering re-baselines");
        // A rejoin request went out to a static ring peer.
        let requests: Vec<NodeId> = out
            .iter()
            .filter_map(|a| match a {
                crate::actions::Action::Send {
                    to: Endpoint::Ne(n),
                    msg:
                        Msg::RejoinRequest {
                            member: NodeId(10), ..
                        },
                } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(requests, vec![NodeId(20)]);
        // Retries rotate through the remaining static members.
        out.clear();
        br.send_rejoin_request(SimTime::from_secs(1), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            crate::actions::Action::Send {
                to: Endpoint::Ne(NodeId(30)),
                ..
            }
        )));
    }

    #[test]
    fn rejoin_grant_completes_the_splice_and_fast_forwards() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        br.kill();
        let mut out = Vec::new();
        br.restart(SimTime::from_secs(1), &mut out);
        out.clear();
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(20)),
            Msg::RejoinGrant {
                group: GroupId(1),
                member: NodeId(10),
                front: GlobalSeq(41),
                pass: None,
            },
            &mut out,
        );
        assert!(!br.is_rejoining(), "grant completes the splice");
        assert_eq!(br.mq.front(), GlobalSeq(41), "MQ fast-forwarded");
        // A duplicate grant (second granter) must not fast-forward again.
        let mut out2 = Vec::new();
        br.on_data(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(30)),
            GlobalSeq(42),
            crate::mq::MsgData {
                source: NodeId(0),
                local_seq: LocalSeq(1),
                ordering_node: NodeId(0),
                payload: crate::ids::PayloadId(1),
            },
            &mut out2,
        );
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(30)),
            Msg::RejoinGrant {
                group: GroupId(1),
                member: NodeId(10),
                front: GlobalSeq(50),
                pass: None,
            },
            &mut out2,
        );
        assert_eq!(br.mq.front(), GlobalSeq(42), "duplicate grant is a no-op");
    }

    #[test]
    fn peer_grant_readmits_member_to_the_cycle() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(30), ring3(), true, cfg);
        let mut out = Vec::new();
        br.on_ring_fail(SimTime::from_secs(1), NodeId(10), &mut out);
        assert_eq!(br.ring_next(), Some(NodeId(20)), "10 excised");
        out.clear();
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(20)),
            Msg::RejoinGrant {
                group: GroupId(1),
                member: NodeId(10),
                front: GlobalSeq(7),
                pass: None,
            },
            &mut out,
        );
        assert_eq!(br.ring_next(), Some(NodeId(10)), "10 back in the cycle");
        assert_eq!(
            br.ring.as_ref().unwrap().next_acked_mq,
            GlobalSeq::ZERO,
            "ACK progress of the new next starts over"
        );
    }

    #[test]
    fn rejoining_node_ignores_tokens_until_granted() {
        // A token reaching a not-yet-spliced node could be a stale
        // retransmission; it must be ignored without an ack (the live
        // sender retries; the grant seeds the duplicate guards first).
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        br.kill();
        let mut out = Vec::new();
        br.restart(SimTime::from_secs(1), &mut out);
        out.clear();
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(30)),
            Msg::Token(Box::new(OrderingToken::new(GroupId(1), NodeId(20)))),
            &mut out,
        );
        assert!(out.is_empty(), "no ack, no processing, no forward");
        assert!(br.is_rejoining());
        assert!(br.ord.as_ref().unwrap().new_token.is_none());
    }

    #[test]
    fn grant_seeds_token_guards_against_stale_retransmissions() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        br.kill();
        let mut out = Vec::new();
        br.restart(SimTime::from_secs(1), &mut out);
        out.clear();
        // Grant carries the live pass (epoch 1, origin 20, rotation 5).
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(20)),
            Msg::RejoinGrant {
                group: GroupId(1),
                member: NodeId(10),
                front: GlobalSeq(9),
                pass: Some((crate::ids::Epoch(1), 20, 5)),
            },
            &mut out,
        );
        let ord = br.ord.as_ref().unwrap();
        assert_eq!(ord.fence.best_instance(), (crate::ids::Epoch(1), 20));
        assert_eq!(ord.fence.last_pass(), Some((crate::ids::Epoch(1), 20, 4)));
        // A stale same-instance retransmission (rotation 3) is suppressed…
        out.clear();
        let mut stale = OrderingToken::new(GroupId(1), NodeId(20));
        stale.epoch = crate::ids::Epoch(1);
        stale.rotation = 3;
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(30)),
            Msg::Token(Box::new(stale)),
            &mut out,
        );
        assert!(
            !out.iter().any(|a| matches!(
                a,
                crate::actions::Action::Send {
                    msg: Msg::Token(_),
                    ..
                }
            )),
            "stale pass must not be re-processed (would fork the token)"
        );
        // …while the live pass (rotation 5, as seeded) is processed.
        out.clear();
        let mut live = OrderingToken::new(GroupId(1), NodeId(20));
        live.epoch = crate::ids::Epoch(1);
        live.rotation = 5;
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(30)),
            Msg::Token(Box::new(live)),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            crate::actions::Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
    }

    #[test]
    fn rejoiner_with_no_live_peers_splices_itself_after_budget() {
        // Both static peers are permanently dead: the requests can never be
        // answered. After a budget covering every peer several times the
        // rejoiner must splice itself in rather than stall forever.
        let mut ag = NeState::new_ag(
            GroupId(1),
            NodeId(10),
            ring3(),
            vec![NodeId(1)],
            ProtocolConfig::default(),
        );
        ag.kill();
        let mut out = Vec::new();
        ag.restart(SimTime::from_secs(1), &mut out);
        let budget = ring3().len() as u64 * (HEARTBEAT_MISSES as u64 + 2);
        for i in 0..=budget + 1 {
            out.clear();
            ag.tick_heartbeat(SimTime::from_millis(1_000 + 50 * (i + 1)), &mut out);
            if !ag.is_rejoining() {
                break;
            }
        }
        assert!(!ag.is_rejoining(), "self-splice after the request budget");
    }

    #[test]
    fn active_member_request_is_granted_with_broadcast() {
        // Fast restart: the granter never excised the member, but a
        // RingFail about it may still be in flight to other peers — the
        // grant must be broadcast ring-wide so diverged views re-admit it.
        let cfg = ProtocolConfig::default();
        let mut ag = NeState::new_ag(GroupId(1), NodeId(20), ring3(), vec![NodeId(1)], cfg);
        let mut out = Vec::new();
        ag.on_rejoin_request(SimTime::from_secs(1), NodeId(10), &mut out);
        let grant_targets: Vec<NodeId> = out
            .iter()
            .filter_map(|a| match a {
                crate::actions::Action::Send {
                    to: Endpoint::Ne(n),
                    msg:
                        Msg::RejoinGrant {
                            member: NodeId(10), ..
                        },
                } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            grant_targets,
            vec![NodeId(10), NodeId(30)],
            "grant goes to the member AND every other in-ring peer"
        );
        // No false splice record: the member never left this cycle view.
        assert!(!out
            .iter()
            .any(|a| matches!(a, crate::actions::Action::Record(_))));
    }

    #[test]
    fn reexcised_pending_member_is_not_resurrected_at_the_boundary() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        let mut out = Vec::new();
        // Member 20 dies, asks to rejoin (queued for the token boundary)…
        br.on_ring_fail(SimTime::from_secs(1), NodeId(20), &mut out);
        br.on_rejoin_request(SimTime::from_secs(2), NodeId(20), &mut out);
        assert_eq!(br.pending_rejoins, vec![NodeId(20)]);
        // …then crashes again before the boundary.
        br.on_ring_fail(SimTime::from_secs(3), NodeId(20), &mut out);
        out.clear();
        br.originate_token(SimTime::from_secs(4), &mut out);
        assert!(
            !out.iter().any(|a| matches!(
                a,
                crate::actions::Action::Send {
                    msg: Msg::RejoinGrant { .. },
                    ..
                }
            )),
            "a re-excised member must not be spliced back in"
        );
        assert!(
            !br.ring.as_ref().unwrap().is_in_ring(NodeId(20)),
            "still excised"
        );
    }

    #[test]
    fn rotation_zero_grant_does_not_block_the_live_pass() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        br.kill();
        let mut out = Vec::new();
        br.restart(SimTime::from_secs(1), &mut out);
        out.clear();
        // Grant carries a first-rotation pass (rotation 0).
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(20)),
            Msg::RejoinGrant {
                group: GroupId(1),
                member: NodeId(10),
                front: GlobalSeq::ZERO,
                pass: Some((crate::ids::Epoch(1), 20, 0)),
            },
            &mut out,
        );
        assert_eq!(
            br.ord.as_ref().unwrap().fence.last_pass(),
            None,
            "no earlier pass exists to guard against"
        );
        // The live rotation-0 pass must be processed, not discarded.
        out.clear();
        let mut live = OrderingToken::new(GroupId(1), NodeId(20));
        live.epoch = crate::ids::Epoch(1);
        br.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(30)),
            Msg::Token(Box::new(live)),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            crate::actions::Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
    }

    #[test]
    fn sole_member_ring_rejoins_itself_immediately() {
        let cfg = ProtocolConfig::default();
        let mut ag = NeState::new_ag(GroupId(1), NodeId(5), vec![NodeId(5)], vec![NodeId(1)], cfg);
        ag.kill();
        let mut out = Vec::new();
        ag.restart(SimTime::from_secs(1), &mut out);
        assert!(!ag.is_rejoining(), "nobody to ask: immediate splice");
        assert_eq!(ag.parent, Some(NodeId(1)), "leader re-acquired a parent");
        assert!(
            out.iter().any(|a| matches!(
                a,
                crate::actions::Action::Send {
                    msg: Msg::Graft { resync: true, .. },
                    ..
                }
            )),
            "re-graft resyncs from the parent's front"
        );
    }

    #[test]
    fn dead_entity_ignores_messages() {
        let cfg = ProtocolConfig::default();
        let mut br = NeState::new_br(GroupId(1), NodeId(10), ring3(), true, cfg);
        br.kill();
        let mut out = Vec::new();
        br.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(30)),
            Msg::Heartbeat { group: GroupId(1) },
            &mut out,
        );
        assert!(out.is_empty());
    }
}
