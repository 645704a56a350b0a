//! The cross-group ordering fence.
//!
//! Multi-group scenarios run one ordering ring per group (`GID`), so two
//! groups' GSN streams are mutually unordered. A message addressed to a
//! group *set* must still deliver in the same relative order as any other
//! co-addressed message at every common subscriber. The fence achieves
//! that with a single deterministic serialization point feeding every
//! addressed ring through its own normal ordering machinery:
//!
//! 1. **Ingress.** A multi-group source hands [`Msg::FenceIngress`] to its
//!    corresponding node on the *fence home group* (the lowest declared
//!    group). That node journals the `SourceSend` and forwards to the
//!    **sequencer** — the home group's token-origin node.
//! 2. **Sequencing.** The sequencer stamps one contiguous channel sequence
//!    number per addressed group and dispatches a [`Msg::FenceDispatch`]
//!    to each group's **funnel** (that group's token-origin node) over the
//!    FIFO wired mesh. Because every funnel ingests fenced messages in
//!    sequencer order, the per-ring GSN orders of fenced messages agree
//!    pairwise on every common group.
//! 3. **Funnelling.** The funnel enters the message into its `WQ` under
//!    the group's *virtual source identity*
//!    (`NodeId::fence_virtual`) — carrying the original
//!    `(source, local_seq)` so journal identity survives — circulates it
//!    as [`Msg::FencePreOrder`] (the §4.2.2 stop rule, keyed on the
//!    funnel), and assigns GSNs for the virtual stream at its next token
//!    visit exactly like an own-source stream.
//!
//! From the WTSNP entry onward the message is indistinguishable from
//! ordinary traffic: Order-Assignment, `MQ` replication, tree delivery and
//! retransmission all apply unchanged. The fence deliberately owns **no**
//! epoch or membership state — everything it touches stays routed through
//! `ring_epoch` / `ring_lifecycle` via the ordinary token path.

use std::collections::BTreeMap;

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::events::ProtoEvent;
use crate::ids::{GroupId, LocalRange, LocalSeq, NodeId, PayloadId};
use crate::mq::InsertOutcome;
use crate::msg::Msg;
use crate::node::NeState;
use crate::ordering::AssignTrigger;
use crate::token::OrderingToken;

/// Cross-group fence wiring and cursors for one per-group `NeState`.
///
/// Present only on top-ring states of multi-group simulations; the
/// placement (sequencer and funnel identities) is static, derived from
/// the declared group set at assembly time.
#[derive(Debug, Clone)]
pub(crate) struct CrossGroupFence {
    /// The fence home group: the lowest declared group id. All ingress
    /// flows through this group's states.
    pub home_group: GroupId,
    /// The node hosting the global fence sequencer (the home group's
    /// token-origin node).
    pub sequencer: NodeId,
    /// The owning state's group's funnel (its token-origin node).
    pub funnel: NodeId,
    /// Funnel placement for every declared group, in group order
    /// (sequencer-side dispatch table).
    pub funnels: Vec<(GroupId, NodeId)>,
    /// Sequencer only: next channel sequence number per target group.
    pub next_chan: BTreeMap<GroupId, LocalSeq>,
    /// Ingress dedupe watermark at the corresponding node (the local
    /// source link is reliable and contiguous, mirroring `max_local`).
    pub ingress_seen: LocalSeq,
    /// Funnel only: first channel sequence number not yet GSN-assigned.
    pub chan_min_unordered: LocalSeq,
    /// Funnel only: last channel sequence number ingested.
    pub chan_max: LocalSeq,
}

impl CrossGroupFence {
    /// Wire the fence view for one state. `funnels` must cover every
    /// declared group, sorted by group; the home group is the lowest.
    pub fn new(own_group: GroupId, funnels: Vec<(GroupId, NodeId)>) -> Self {
        debug_assert!(funnels.windows(2).all(|w| w[0].0 < w[1].0));
        let (home_group, sequencer) = *funnels.first().expect("at least one group");
        let funnel = funnels
            .iter()
            .find(|(g, _)| *g == own_group)
            .map(|(_, n)| *n)
            .expect("own group is declared");
        CrossGroupFence {
            home_group,
            sequencer,
            funnel,
            funnels,
            next_chan: BTreeMap::new(),
            ingress_seen: LocalSeq::ZERO,
            chan_min_unordered: LocalSeq::FIRST,
            chan_max: LocalSeq::ZERO,
        }
    }
}

impl NeState {
    /// Intake of a multi-group submission at the corresponding node (the
    /// fence home group's state), and — once forwarded — at the sequencer.
    pub(crate) fn on_fence_ingress(
        &mut self,
        now: SimTime,
        origin: NodeId,
        ls: LocalSeq,
        payload: PayloadId,
        targets: Vec<GroupId>,
        out: &mut Outbox,
    ) {
        let me = self.id;
        if !self.is_top_ring() || self.cross_fence.is_none() {
            return;
        }
        if origin == me {
            // Fresh from the local source: journal and dedupe here, exactly
            // once, then hand to the sequencer.
            let cf = self.cross_fence.as_mut().expect("checked above");
            debug_assert_eq!(self.group, cf.home_group, "ingress on the home group");
            if ls <= cf.ingress_seen {
                self.counters.duplicates += 1;
                return;
            }
            cf.ingress_seen = ls;
            let sequencer = cf.sequencer;
            out.push(Action::Record(ProtoEvent::SourceSend {
                source: me,
                local_seq: ls,
            }));
            if sequencer != me {
                out.push(Action::to_ne(
                    sequencer,
                    Msg::FenceIngress {
                        group: self.group,
                        origin,
                        local_seq: ls,
                        payload,
                        targets,
                    },
                ));
                self.counters.data_sent += 1;
                return;
            }
        }
        self.fence_sequence(now, origin, ls, payload, &targets, out);
    }

    /// Sequencer core: stamp one channel number per addressed group and
    /// dispatch to each group's funnel.
    fn fence_sequence(
        &mut self,
        _now: SimTime,
        origin: NodeId,
        origin_seq: LocalSeq,
        payload: PayloadId,
        targets: &[GroupId],
        out: &mut Outbox,
    ) {
        let cf = self.cross_fence.as_mut().expect("fence wiring present");
        debug_assert_eq!(cf.sequencer, self.id, "only the sequencer stamps");
        let mut dispatched = 0u32;
        for &g in targets {
            let Some(&(_, funnel)) = cf.funnels.iter().find(|(fg, _)| *fg == g) else {
                debug_assert!(false, "fence target {g} not declared");
                continue;
            };
            let c = cf.next_chan.entry(g).or_insert(LocalSeq::FIRST);
            let chan_seq = *c;
            *c = c.next();
            // A funnel on this very node is reached via the engine's
            // same-actor loopback (there is no self link in the mesh).
            out.push(Action::to_ne(
                funnel,
                Msg::FenceDispatch {
                    group: g,
                    chan_seq,
                    origin,
                    origin_seq,
                    payload,
                },
            ));
            dispatched += 1;
        }
        self.counters.data_sent += dispatched;
    }

    /// Funnel intake: enter the fenced message into the group's virtual
    /// source stream and circulate it around this group's ring.
    pub(crate) fn on_fence_dispatch(
        &mut self,
        _now: SimTime,
        chan_seq: LocalSeq,
        origin: NodeId,
        origin_seq: LocalSeq,
        payload: PayloadId,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let Some(cf) = self.cross_fence.as_mut() else {
            return;
        };
        debug_assert_eq!(cf.funnel, me, "dispatch lands on the group's funnel");
        // The sequencer→funnel mesh hop is FIFO and lossless, so channel
        // numbers arrive contiguously; anything at or below the watermark
        // is a duplicate.
        if chan_seq <= cf.chan_max {
            self.counters.duplicates += 1;
            return;
        }
        cf.chan_max = chan_seq;
        let vid = NodeId::fence_virtual(group);
        let Some(wq) = self.wq.as_mut() else { return };
        wq.insert_with_origin(vid, chan_seq, payload, Some((origin, origin_seq)));
        let next = self.ring_next().expect("top-ring node has a ring");
        if next != me {
            out.push(Action::to_ne(
                next,
                Msg::FencePreOrder {
                    group,
                    funnel: me,
                    chan_seq,
                    origin,
                    origin_seq,
                    payload,
                },
            ));
            self.counters.data_sent += 1;
        }
    }

    /// A fenced pre-order forwarded from the previous ring node (mirror of
    /// [`NeState::on_pre_order`] with the stop rule keyed on the funnel).
    pub(crate) fn on_fence_pre_order(
        &mut self,
        now: SimTime,
        funnel: NodeId,
        chan_seq: LocalSeq,
        origin: (NodeId, LocalSeq),
        payload: PayloadId,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let (origin, origin_seq) = origin;
        if funnel == me {
            // Full circle; drop defensively (transient after ring repairs).
            return;
        }
        let vid = NodeId::fence_virtual(group);
        let Some(wq) = self.wq.as_mut() else { return };
        match wq.insert_with_origin(vid, chan_seq, payload, Some((origin, origin_seq))) {
            InsertOutcome::Stored => {
                let next = self.ring_next().expect("top-ring node has a ring");
                if next != funnel && next != me {
                    out.push(Action::to_ne(
                        next,
                        Msg::FencePreOrder {
                            group,
                            funnel,
                            chan_seq,
                            origin,
                            origin_seq,
                            payload,
                        },
                    ));
                    self.counters.data_sent += 1;
                }
                self.order_assign(now, AssignTrigger::PreOrder, out);
            }
            InsertOutcome::Duplicate => self.counters.duplicates += 1,
            InsertOutcome::Stale | InsertOutcome::Overflow => {}
        }
    }

    /// Token-visit assignment for the funnel's virtual stream, called from
    /// [`NeState::process_and_forward_token`] right after the own-source
    /// assignment; the Order-Assignment pass that follows copies the range
    /// into `MQ` with everything else the token carries. The `Ordered`
    /// records carry the *original* `(source, local_seq)` identity, read
    /// from the funnel's `WQ` (it ingested every channel number itself).
    /// No-op on non-funnel nodes and single-group runs.
    pub(crate) fn fence_assign_on_token(
        &mut self,
        now: SimTime,
        token: &mut OrderingToken,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let Some(cf) = self.cross_fence.as_mut() else {
            return;
        };
        if cf.funnel != me || !(cf.chan_min_unordered <= cf.chan_max && cf.chan_max.is_valid()) {
            return;
        }
        let vid = NodeId::fence_virtual(group);
        let range = LocalRange::new(cf.chan_min_unordered, cf.chan_max);
        cf.chan_min_unordered = cf.chan_max.next();
        let min_gs = token.assign(vid, vid, range);
        let wq = self.wq.as_ref().expect("top-ring node has a WQ");
        for (i, chan_seq) in range.iter().enumerate() {
            // A channel number the WQ no longer holds (capacity overflow)
            // was assigned a number nobody here can deliver; it has no
            // identity left to journal.
            let Some((_, Some((source, local_seq)))) = wq.get_entry(vid, chan_seq) else {
                continue;
            };
            out.push(Action::Record(ProtoEvent::Ordered {
                group,
                node: me,
                source,
                local_seq,
                gsn: min_gs.advance(i as u64),
            }));
        }
        self.telemetry.gsn_assigned(now, min_gs, range.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::{Endpoint, GlobalSeq};

    const GA: GroupId = GroupId(1);
    const GB: GroupId = GroupId(2);

    fn top_ring() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    /// Funnels: group 1 at node 0 (also the sequencer), group 2 at node 1.
    fn funnels() -> Vec<(GroupId, NodeId)> {
        vec![(GA, NodeId(0)), (GB, NodeId(1))]
    }

    fn br(group: GroupId, id: u32) -> NeState {
        let mut st = NeState::new_br(
            group,
            NodeId(id),
            top_ring(),
            true,
            ProtocolConfig::default(),
        );
        st.cross_fence = Some(CrossGroupFence::new(group, funnels()));
        st
    }

    fn sends_of(out: &Outbox) -> Vec<(NodeId, &Msg)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(n),
                    msg,
                } => Some((*n, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ingress_at_corresponding_journals_and_forwards_to_sequencer() {
        // Node 2 (home-group state) receives a two-group submission from
        // its local source; the sequencer lives on node 0.
        let mut n = br(GA, 2);
        let mut out = Vec::new();
        n.on_fence_ingress(
            SimTime::ZERO,
            NodeId(2),
            LocalSeq(1),
            PayloadId(9),
            vec![GA, GB],
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::SourceSend {
                source: NodeId(2),
                local_seq: LocalSeq(1),
            })
        )));
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(0), "forwarded to the sequencer");
        assert!(matches!(sends[0].1, Msg::FenceIngress { .. }));
        // Duplicate ingress is swallowed.
        out.clear();
        n.on_fence_ingress(
            SimTime::ZERO,
            NodeId(2),
            LocalSeq(1),
            PayloadId(9),
            vec![GA, GB],
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(n.counters.duplicates, 1);
    }

    #[test]
    fn sequencer_stamps_contiguous_channels_per_group() {
        let mut seq = br(GA, 0);
        let mut out = Vec::new();
        // Two forwarded submissions, both addressed to {1, 2}.
        for ls in 1..=2u64 {
            seq.on_fence_ingress(
                SimTime::ZERO,
                NodeId(2),
                LocalSeq(ls),
                PayloadId(ls),
                vec![GA, GB],
                &mut out,
            );
        }
        let dispatches: Vec<(NodeId, GroupId, LocalSeq)> = sends_of(&out)
            .into_iter()
            .filter_map(|(to, m)| match m {
                Msg::FenceDispatch {
                    group, chan_seq, ..
                } => Some((to, *group, *chan_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(
            dispatches,
            vec![
                (NodeId(0), GA, LocalSeq(1)),
                (NodeId(1), GB, LocalSeq(1)),
                (NodeId(0), GA, LocalSeq(2)),
                (NodeId(1), GB, LocalSeq(2)),
            ],
            "each group gets its own contiguous channel, funnel-addressed"
        );
    }

    #[test]
    fn funnel_ingests_and_circulates_with_origin_identity() {
        // Group 2's funnel is node 1.
        let mut f = br(GB, 1);
        let mut out = Vec::new();
        f.on_fence_dispatch(
            SimTime::ZERO,
            LocalSeq(1),
            NodeId(2),
            LocalSeq(7),
            PayloadId(3),
            &mut out,
        );
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(2), "circulated to the next ring node");
        assert!(matches!(
            sends[0].1,
            Msg::FencePreOrder {
                funnel: NodeId(1),
                chan_seq: LocalSeq(1),
                origin: NodeId(2),
                origin_seq: LocalSeq(7),
                ..
            }
        ));
        // Token visit assigns the virtual stream, surfaces the original
        // identity in the Ordered record, and copies it into MQ at once.
        out.clear();
        f.originate_token(SimTime::ZERO, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::Ordered {
                group: GB,
                source: NodeId(2),
                local_seq: LocalSeq(7),
                gsn: GlobalSeq(1),
                ..
            })
        )));
        let d = f.mq.get(GlobalSeq(1)).expect("copied at the token visit");
        assert_eq!((d.source, d.local_seq), (NodeId(2), LocalSeq(7)));
        assert_eq!(d.ordering_node, NodeId::fence_virtual(GB));
        // Cursor advanced: an immediate second visit assigns nothing.
        let mut tok = OrderingToken::new(GB, NodeId(1));
        out.clear();
        f.fence_assign_on_token(SimTime::ZERO, &mut tok, &mut out);
        assert!(out.is_empty() && tok.entries().is_empty());
    }

    #[test]
    fn funnel_stream_is_copied_on_token_arrival_and_on_late_arrival() {
        // Node 2 of group 2's ring (funnel: node 1). The funnel's token
        // carries the virtual stream's assignment chan 1..=2 → gsn 1..=2.
        let vid = NodeId::fence_virtual(GB);
        let mut tok = OrderingToken::new(GB, NodeId(1));
        tok.assign(vid, vid, LocalRange::new(LocalSeq(1), LocalSeq(2)));
        let mut n = br(GB, 2);
        let mut out = Vec::new();
        let pre_order = |n: &mut NeState, chan: u64, out: &mut Outbox| {
            n.on_fence_pre_order(
                SimTime::ZERO,
                NodeId(1),
                LocalSeq(chan),
                (NodeId(0), LocalSeq(40 + chan)),
                PayloadId(chan),
                out,
            );
        };
        pre_order(&mut n, 1, &mut out);
        n.on_token(SimTime::ZERO, Endpoint::Ne(NodeId(1)), tok, &mut out);
        assert_eq!(n.mq.front(), GlobalSeq(1), "chan 1 copied with the token");
        // Chan 2 was overtaken by the token: copied the instant it lands.
        pre_order(&mut n, 2, &mut out);
        assert_eq!(n.mq.front(), GlobalSeq(2), "copied on arrival");
        let d = n.mq.get(GlobalSeq(2)).unwrap();
        assert_eq!((d.source, d.local_seq), (NodeId(0), LocalSeq(42)));
    }

    #[test]
    fn fence_pre_order_stops_before_the_funnel() {
        // Node 0's next is node 1 == the funnel: circulation terminates,
        // the entry is self-acked for GC.
        let mut n = br(GB, 0);
        let mut out = Vec::new();
        n.on_fence_pre_order(
            SimTime::ZERO,
            NodeId(1),
            LocalSeq(1),
            (NodeId(2), LocalSeq(7)),
            PayloadId(3),
            &mut out,
        );
        assert!(sends_of(&out).is_empty(), "stops before the funnel");
        let vid = NodeId::fence_virtual(GB);
        let stored = n.wq.as_ref().unwrap().get(vid, LocalSeq(1));
        assert_eq!(stored, Some(PayloadId(3)));
        // Node 2's next is node 0 ≠ funnel → forwards.
        let mut n2 = br(GB, 2);
        out.clear();
        n2.on_fence_pre_order(
            SimTime::ZERO,
            NodeId(1),
            LocalSeq(1),
            (NodeId(2), LocalSeq(7)),
            PayloadId(3),
            &mut out,
        );
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(0));
    }

    #[test]
    fn single_group_states_are_fence_inert() {
        let mut n = NeState::new_br(GA, NodeId(0), top_ring(), true, ProtocolConfig::default());
        assert!(n.cross_fence.is_none());
        let mut out = Vec::new();
        n.on_fence_ingress(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            vec![GA, GB],
            &mut out,
        );
        let mut tok = OrderingToken::new(GA, NodeId(0));
        n.fence_assign_on_token(SimTime::ZERO, &mut tok, &mut out);
        assert!(out.is_empty(), "no journal, no sends");
        assert!(tok.entries().is_empty(), "no assignment");
    }
}
