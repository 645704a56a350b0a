//! Wire messages exchanged by RingNet entities.
//!
//! One enum covers all planes of the protocol: the data plane (source
//! injection, ring pre-order circulation, ordered delivery), the token
//! plane (the transfer's acknowledgement doubles as the ring hop's
//! cumulative ACK), per-hop reliability (one cumulative ACK kind for the
//! ordered stream, NACKs for it and for the pre-order stream — the paper's
//! local-scope retransmission scheme), membership/topology maintenance,
//! mobility, and token recovery. Every message carries the `GID`: the
//! engine instantiates one ordering ring (token, `WQ`/`MQ`, epoch fence)
//! per group and dispatches on it, and the cross-group fence adds three
//! `Fence*` messages for traffic addressed to several groups at once.

use crate::ids::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, PayloadId};
use crate::mq::MsgData;
use crate::token::OrderingToken;

/// The RingNet wire-message set.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---------------------------------------------------------------- data
    /// Multicast source → its corresponding top-ring node: a fresh message
    /// with the source's next local sequence number.
    SourceData {
        /// Group.
        group: GroupId,
        /// Per-source sequence number.
        local_seq: LocalSeq,
        /// Application payload handle.
        payload: PayloadId,
    },
    /// A not-yet-ordered message circulating the top ring (a `WQ` entry).
    PreOrder {
        /// Group.
        group: GroupId,
        /// The source's corresponding node (identifies the `WQ` sub-queue).
        corresponding: NodeId,
        /// Per-source sequence number.
        local_seq: LocalSeq,
        /// Application payload handle.
        payload: PayloadId,
    },
    /// Request retransmission of missing pre-order entries.
    PreOrderNack {
        /// Group.
        group: GroupId,
        /// Which source's stream has holes.
        corresponding: NodeId,
        /// The missing local sequence numbers.
        missing: Vec<LocalSeq>,
    },
    /// A totally-ordered message: non-top ring circulation, parent→child
    /// tree delivery, and AP→MH wireless delivery all use this.
    Data {
        /// Group.
        group: GroupId,
        /// Global sequence number.
        gsn: GlobalSeq,
        /// Message metadata (source, local seq, ordering node, payload).
        data: MsgData,
    },
    /// Cumulative ACK of the ordered stream, sent to the upstream hop
    /// (previous ring node, parent, or AP) — the only hop acknowledgement
    /// on the wired core: a previous ring node collects its `WQ` by it too,
    /// since a front past GSN *g* has every pre-order ordered at or below
    /// *g* behind it. An NE sends it when its front has moved, and restates
    /// an unchanged front once per heartbeat period of silence. An MH sends
    /// it every ack period, moved or not, as its liveness beacon.
    DataAck {
        /// Group.
        group: GroupId,
        /// Everything up to and including this number was delivered
        /// (or skipped as really-lost) locally.
        upto: GlobalSeq,
    },
    /// Request retransmission of missing ordered messages from upstream.
    DataNack {
        /// Group.
        group: GroupId,
        /// The missing global sequence numbers.
        missing: Vec<GlobalSeq>,
    },

    // ----------------------------------------------------- cross-group fence
    /// Source → corresponding BR (→ fence sequencer): a fresh message
    /// addressed to *several* groups at once. The single global fence
    /// sequencer serialises all such messages so every addressed ring
    /// ingests them in one agreed order.
    FenceIngress {
        /// The fence home group (lowest declared group): routes the message
        /// to the sequencer-hosting ring state, not a destination.
        group: GroupId,
        /// The source's corresponding BR — the message's identity node.
        origin: NodeId,
        /// Per-source sequence number (identity with `origin`).
        local_seq: LocalSeq,
        /// Application payload handle.
        payload: PayloadId,
        /// The addressed groups (≥ 2).
        targets: Vec<GroupId>,
    },
    /// Fence sequencer → one addressed group's funnel BR: ingest this fenced
    /// message into the group's ring as the funnel stream's next entry.
    FenceDispatch {
        /// The addressed group.
        group: GroupId,
        /// Funnel-stream sequence number (contiguous per group, assigned by
        /// the sequencer in its global serialisation order).
        chan_seq: LocalSeq,
        /// The message's identity node (source's corresponding BR).
        origin: NodeId,
        /// The message's identity sequence number at `origin`.
        origin_seq: LocalSeq,
        /// Application payload handle.
        payload: PayloadId,
    },
    /// A fenced message circulating a group's top ring (the fence analogue
    /// of [`Msg::PreOrder`], keyed under the group's virtual funnel stream).
    FencePreOrder {
        /// Group.
        group: GroupId,
        /// The real BR hosting this group's funnel (circulation stop rule —
        /// the `WQ` sub-queue itself is keyed by the group's virtual id).
        funnel: NodeId,
        /// Funnel-stream sequence number.
        chan_seq: LocalSeq,
        /// The message's identity node.
        origin: NodeId,
        /// The message's identity sequence number at `origin`.
        origin_seq: LocalSeq,
        /// Application payload handle.
        payload: PayloadId,
    },

    // --------------------------------------------------------------- token
    /// The ordering token, transferred to the next top-ring node.
    Token(Box<OrderingToken>),
    /// Receipt acknowledgement for a token transfer (stops retransmission).
    /// Carries the acker's `MQ` front as it stands after processing the
    /// token — on the top ring the front moves at token receipt, so this is
    /// the [`Msg::DataAck`] of the ring hop and no separate one follows.
    TokenAck {
        /// Group.
        group: GroupId,
        /// Epoch of the acknowledged token.
        epoch: crate::ids::Epoch,
        /// Rotation count of the acknowledged token (identifies the pass).
        rotation: u64,
        /// The acker's cumulative delivery front (as in [`Msg::DataAck`]).
        upto: GlobalSeq,
    },

    // ---------------------------------------------------- membership / topo
    /// Ring-neighbour / parent-child liveness probe, NE to NE only: an MH's
    /// liveness beacon is its [`Msg::DataAck`].
    Heartbeat {
        /// Group.
        group: GroupId,
    },
    /// Liveness probe response, to the probing NE.
    HeartbeatAck {
        /// Group.
        group: GroupId,
    },
    /// Ring repair: the sender bypassed failures and is now the receiver's
    /// previous ring node — whose record of the receiver's progress starts
    /// over, so the receiver states its front again.
    NewPrev {
        /// Group.
        group: GroupId,
    },
    /// Child (or freshly activated AP / new ring leader) attaches to a
    /// parent and asks for the ordered stream from `resume_from + 1` on.
    Graft {
        /// Group.
        group: GroupId,
        /// The attaching child.
        child: NodeId,
        /// Deliver from this global sequence number (exclusive).
        resume_from: GlobalSeq,
        /// The child restarted with empty state and will fast-forward to
        /// the parent's front from the `GraftAck`: serve from "now", do
        /// not replay the retained window (it would be discarded wholesale
        /// as stale after the fast-forward).
        resync: bool,
    },
    /// Parent accepts a graft, announcing its own delivery front. A child
    /// recovering from a crash-restart (see [`Msg::Restart`]) fast-forwards
    /// its empty `MQ` to this front instead of chasing unrecoverable
    /// history; established children ignore the field.
    GraftAck {
        /// Group.
        group: GroupId,
        /// The parent's contiguous-delivery front at graft time.
        front: GlobalSeq,
    },
    /// Child detaches from its parent (no members and no reservation left).
    Prune {
        /// Group.
        group: GroupId,
        /// The detaching child.
        child: NodeId,
    },
    /// Aggregated membership delta propagated toward the top of the
    /// hierarchy (the paper's batched update scheme).
    MembershipUpdate {
        /// Group.
        group: GroupId,
        /// Net member-count change in the sender's subtree since last update.
        delta: i64,
    },

    // ------------------------------------------------------------ mobility
    /// MH → AP: join the group at this AP.
    Join {
        /// Group.
        group: GroupId,
        /// The joining mobile host.
        guid: Guid,
    },
    /// MH → AP: leave the group.
    Leave {
        /// Group.
        group: GroupId,
        /// The leaving mobile host.
        guid: Guid,
    },
    /// Radio-layer stimulus to an MH: you are now under `new_ap`
    /// (injected by the mobility scenario, not sent by any entity).
    HandoffTo {
        /// Group.
        group: GroupId,
        /// The new access proxy.
        new_ap: NodeId,
    },
    /// MH → new AP after a handoff: register and resume delivery.
    HandoffRegister {
        /// Group.
        group: GroupId,
        /// The arriving mobile host.
        guid: Guid,
        /// MH has everything up to and including this number.
        resume_from: GlobalSeq,
    },
    /// AP → neighbouring APs: an MH is nearby; pre-join the distribution
    /// tree so a future handoff finds traffic already flowing (§3's
    /// multicast path reservation).
    Reserve {
        /// Group.
        group: GroupId,
        /// AP where the member currently resides.
        origin_ap: NodeId,
        /// Remaining propagation radius.
        radius: u8,
    },

    /// AP → MH answer to [`Msg::Join`]: delivery starts after this global
    /// sequence number (the MH fast-forwards its `MQ` past older history).
    JoinAck {
        /// Group.
        group: GroupId,
        /// First delivery will be `start_from + 1`.
        start_from: GlobalSeq,
    },
    /// AP → MH: "I do not know you — register again." The answer to a
    /// [`Msg::DataAck`] from an MH missing from the AP's `WT`: after an AP
    /// crash-restart wiped the table, or when the original registration was
    /// lost on the wireless hop. The MH answers with
    /// [`Msg::HandoffRegister`] carrying its resume point, which is
    /// idempotent on the AP side.
    ReRegister {
        /// Group.
        group: GroupId,
    },

    // ------------------------------------------------------------ recovery
    /// The Token-Regeneration message traversing the top ring, carrying the
    /// best `NewOrderingToken` snapshot seen so far.
    TokenRegen {
        /// Group.
        group: GroupId,
        /// Node that originated this regeneration round.
        origin: NodeId,
        /// Best snapshot so far.
        best: Box<OrderingToken>,
    },
    /// Ring-membership broadcast: `failed` was detected dead and bypassed.
    RingFail {
        /// Group.
        group: GroupId,
        /// The dead ring member.
        failed: NodeId,
    },
    /// A restarted ring member asks to re-enter its repaired ring. Retried
    /// against rotating static ring members (Remark 2) until a
    /// [`Msg::RejoinGrant`] arrives. On the top ring the receiver defers
    /// the grant to its next token boundary so GSN assignment never forks;
    /// non-top rings grant immediately.
    RejoinRequest {
        /// Group.
        group: GroupId,
        /// The member asking to re-enter.
        member: NodeId,
    },
    /// Ring-membership broadcast completing a rejoin: `member` is spliced
    /// back into the cycle. Sent both to the rejoiner (which fast-forwards
    /// its fresh `MQ` to `front`) and to every other in-ring member (which
    /// re-admits `member` to its cycle view; `front`/`pass` are ignored).
    RejoinGrant {
        /// Group.
        group: GroupId,
        /// The re-admitted member.
        member: NodeId,
        /// The granter's contiguous-delivery front at splice time.
        front: GlobalSeq,
        /// The live token pass `(epoch, origin, rotation)` known to the
        /// granter (top ring: the token in hand at the splice boundary).
        /// Seeds the rejoiner's duplicate-transfer and keep-one state so a
        /// stale retransmitted token copy cannot be mistaken for the live
        /// one and fork GSN assignment.
        pass: Option<(crate::ids::Epoch, u32, u64)>,
    },

    // -------------------------------------------------- engine control only
    /// Scenario stimulus to an MH: join the group at `ap` now. Not part of
    /// the protocol; injected by scenario code for late joiners.
    JoinCmd {
        /// Group.
        group: GroupId,
        /// AP to join at.
        ap: NodeId,
    },
    /// Fault injection: crash-stop the receiver. Not part of the protocol;
    /// injected by scenario code.
    Kill {
        /// Group.
        group: GroupId,
    },
    /// Fault injection: restart a crashed entity with factory-fresh
    /// protocol state (volatile queues and tables lost). Not part of the
    /// protocol; injected by scenario code. A restarted AP re-grafts on
    /// demand; a restarted BR/AG re-enters its repaired ring via the
    /// [`Msg::RejoinRequest`]/[`Msg::RejoinGrant`] handshake.
    Restart {
        /// Group.
        group: GroupId,
    },
    /// Fault injection: arm the receiving top-ring node to black-hole the
    /// next ordering token of the current epoch it receives (forced token
    /// loss; the Token-Regeneration machinery must recover). Not part of
    /// the protocol; injected by scenario code.
    DropToken {
        /// Group.
        group: GroupId,
    },
    /// Fault injection: the receiving top-ring node re-sends its kept
    /// token snapshot to its ring next — a *duplicated, delayed* copy of a
    /// pass it already forwarded (Byzantine-ish control fault). The
    /// receiver's epoch fence must suppress the stale copy (or, when the
    /// replay overtakes the original, the original). Not part of the
    /// protocol; injected by scenario code.
    ReplayToken {
        /// Group.
        group: GroupId,
    },
}

impl Msg {
    /// The group a message belongs to.
    pub fn group(&self) -> GroupId {
        match self {
            Msg::SourceData { group, .. }
            | Msg::PreOrder { group, .. }
            | Msg::PreOrderNack { group, .. }
            | Msg::Data { group, .. }
            | Msg::DataAck { group, .. }
            | Msg::DataNack { group, .. }
            | Msg::FenceIngress { group, .. }
            | Msg::FenceDispatch { group, .. }
            | Msg::FencePreOrder { group, .. }
            | Msg::TokenAck { group, .. }
            | Msg::Heartbeat { group }
            | Msg::HeartbeatAck { group }
            | Msg::NewPrev { group }
            | Msg::Graft { group, .. }
            | Msg::GraftAck { group, .. }
            | Msg::Prune { group, .. }
            | Msg::MembershipUpdate { group, .. }
            | Msg::Join { group, .. }
            | Msg::Leave { group, .. }
            | Msg::HandoffTo { group, .. }
            | Msg::HandoffRegister { group, .. }
            | Msg::Reserve { group, .. }
            | Msg::JoinAck { group, .. }
            | Msg::ReRegister { group }
            | Msg::TokenRegen { group, .. }
            | Msg::RingFail { group, .. }
            | Msg::RejoinRequest { group, .. }
            | Msg::RejoinGrant { group, .. }
            | Msg::JoinCmd { group, .. }
            | Msg::Kill { group }
            | Msg::Restart { group }
            | Msg::DropToken { group }
            | Msg::ReplayToken { group } => *group,
            Msg::Token(t) => t.group,
        }
    }

    /// This message rewritten for `group` if it is an *entity-wide*
    /// stimulus — a crash, a restart, a handoff or a join command concerns a
    /// whole node or host, so each of its per-group states gets a copy —
    /// and `None` for a message that belongs to one group.
    #[inline]
    pub(crate) fn stimulus_for(&self, group: GroupId) -> Option<Msg> {
        Some(match *self {
            Msg::Kill { .. } => Msg::Kill { group },
            Msg::Restart { .. } => Msg::Restart { group },
            Msg::HandoffTo { new_ap, .. } => Msg::HandoffTo { group, new_ap },
            Msg::JoinCmd { ap, .. } => Msg::JoinCmd { group, ap },
            _ => return None,
        })
    }

    /// The telemetry counter a control-plane send of this message is
    /// counted under (`NeState::send_control`).
    pub(crate) fn control_metric(&self) -> &'static str {
        use crate::telemetry::metric;
        match self {
            Msg::DataAck { .. } => metric::CONTROL_SENT_DATA_ACK,
            Msg::DataNack { .. } | Msg::PreOrderNack { .. } => metric::CONTROL_SENT_NACK,
            Msg::Token(_) => metric::CONTROL_SENT_TOKEN,
            Msg::TokenAck { .. } => metric::CONTROL_SENT_TOKEN_ACK,
            Msg::Heartbeat { .. } | Msg::HeartbeatAck { .. } => metric::CONTROL_SENT_HEARTBEAT,
            _ => metric::CONTROL_SENT_OTHER,
        }
    }

    /// True for the payload-bearing data-plane messages.
    pub(crate) fn carries_payload(&self) -> bool {
        matches!(
            self,
            Msg::SourceData { .. }
                | Msg::PreOrder { .. }
                | Msg::Data { .. }
                | Msg::FenceIngress { .. }
                | Msg::FenceDispatch { .. }
                | Msg::FencePreOrder { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Epoch;

    #[test]
    fn group_extraction() {
        let g = GroupId(7);
        let msgs = [
            Msg::SourceData {
                group: g,
                local_seq: LocalSeq(1),
                payload: PayloadId(1),
            },
            Msg::DataAck {
                group: g,
                upto: GlobalSeq(3),
            },
            Msg::Token(Box::new(OrderingToken::new(g, NodeId(0)))),
            Msg::TokenAck {
                group: g,
                epoch: Epoch(0),
                rotation: 2,
                upto: GlobalSeq(3),
            },
            Msg::Heartbeat { group: g },
        ];
        for m in msgs {
            assert_eq!(m.group(), g);
        }
    }

    #[test]
    fn fence_messages_route_and_charge() {
        let ingress = Msg::FenceIngress {
            group: GroupId(1),
            origin: NodeId(3),
            local_seq: LocalSeq(9),
            payload: PayloadId(9),
            targets: vec![GroupId(1), GroupId(2)],
        };
        assert_eq!(ingress.group(), GroupId(1));
        assert!(ingress.carries_payload());
        let pre = Msg::FencePreOrder {
            group: GroupId(2),
            funnel: NodeId(0),
            chan_seq: LocalSeq(1),
            origin: NodeId(3),
            origin_seq: LocalSeq(9),
            payload: PayloadId(9),
        };
        assert_eq!(pre.group(), GroupId(2));
        assert!(pre.carries_payload());
    }

    #[test]
    fn payload_flag() {
        assert!(Msg::SourceData {
            group: GroupId(1),
            local_seq: LocalSeq(1),
            payload: PayloadId(1)
        }
        .carries_payload());
        assert!(!Msg::Heartbeat { group: GroupId(1) }.carries_payload());
    }
}
