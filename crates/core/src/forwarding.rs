//! The Message-Forwarding algorithm and the ordered-data hop handlers
//! (§4.2.2 case B, plus the `MQ` side of the local-scope retransmission
//! scheme).
//!
//! `drive_delivery` is the single place where a node's `MQ` front advances.
//! Whenever it does, every newly deliverable message is pushed:
//!
//! * to the next ring node — only on *non-top* rings and only "if the next
//!   node is not the leader of the logical ring" (the leader injected the
//!   message into the ring, so the circle stops just before it);
//! * to every active child (Message-Delivering case A, §4.2.3);
//! * to every attached MH when this node is an AP (case B).
//!
//! Top-ring nodes do not forward `MQ` content — each builds it locally from
//! `WQ` + token — but each serves `MQ` retransmissions to its next node,
//! which NACKs its previous node for a hole it could not fill from its own
//! token snapshots.
//!
//! Who keeps its `MQ` for whom is one rule, `RingState::prev_keeps_mq_for`: a
//! ring node keeps it for its next when it forwards to that next or serves
//! it — every top-ring node, and every lower-ring member but the last. The
//! same rule says who acks whom (the next acks its previous node, see
//! [`crate::retransmit`]) and whose acked front bounds a node's garbage
//! collection. A lower ring's leader is fed and acked by its parent.

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, GlobalSeq, NodeId};
use crate::mq::{DeliverItem, InsertOutcome, MsgData};
use crate::msg::Msg;
use crate::node::NeState;

impl NeState {
    /// An ordered message arrived from upstream (previous ring node, parent,
    /// or — for retransmissions — whoever served our NACK).
    pub(crate) fn on_data(
        &mut self,
        now: SimTime,
        _from: Endpoint,
        gsn: GlobalSeq,
        data: MsgData,
        out: &mut Outbox,
    ) {
        match self.mq.insert(gsn, data) {
            InsertOutcome::Stored => self.drive_delivery(now, out),
            InsertOutcome::Duplicate | InsertOutcome::Stale => {
                self.counters.duplicates += 1;
                if gsn < self.mq.valid_front() {
                    self.pass_on_collected(gsn, data, out);
                }
            }
            InsertOutcome::Overflow => {}
        }
    }

    /// A message this entity already collected came back, fetched for a
    /// child that grafted below `ValidFront` (`fetch_collected`): pass it
    /// to each child whose front is below it. Collection waits for every
    /// registered child, so no other child is ever below it.
    fn pass_on_collected(&mut self, gsn: GlobalSeq, data: MsgData, out: &mut Outbox) {
        let group = self.group;
        for (child, upto) in self.wt_children.iter() {
            if upto < gsn {
                out.push(Action::to_ne(child, Msg::Data { group, gsn, data }));
                self.counters.data_sent += 1;
            }
        }
    }

    /// Advance the `MQ` front and push every newly deliverable message to
    /// the ring, the children and the MHs. Also emits `NeSkip` records for
    /// really-lost messages the front steps over.
    pub(crate) fn drive_delivery(&mut self, now: SimTime, out: &mut Outbox) {
        let me = self.id;
        let group = self.group;
        // Non-top ring members forward along the ring to a next they keep
        // their `MQ` for: everyone but the leader (§4.2.2 case B).
        let fwd_next: Option<NodeId> = match &self.ring {
            Some(r) if !r.is_top => {
                let next = r.next_of(me);
                (next != me && r.prev_keeps_mq_for(next)).then_some(next)
            }
            _ => None,
        };
        // Step the front one slot at a time (no per-poll Vec — this runs on
        // every data arrival and usually advances nothing).
        let mut any = false;
        let mut first_forwarded = None;
        while let Some(item) = self.mq.next_deliverable() {
            any = true;
            match item {
                DeliverItem::Deliver(gsn, data) => {
                    if let Some(next) = fwd_next {
                        out.push(Action::to_ne(next, Msg::Data { group, gsn, data }));
                        self.counters.data_sent += 1;
                        first_forwarded.get_or_insert(gsn);
                    }
                    for &child in self.children.keys() {
                        out.push(Action::to_ne(child, Msg::Data { group, gsn, data }));
                        self.counters.data_sent += 1;
                    }
                    if let Some(ap) = &self.ap {
                        for (guid, _) in ap.wt.iter() {
                            out.push(Action::to_mh(guid, Msg::Data { group, gsn, data }));
                            self.counters.data_sent += 1;
                        }
                    }
                }
                DeliverItem::Skip(gsn) => {
                    out.push(Action::Record(ProtoEvent::NeSkip {
                        group,
                        node: me,
                        gsn,
                    }));
                }
            }
        }
        if !any {
            return;
        }
        if let (Some(next), Some(gsn)) = (fwd_next, first_forwarded) {
            // The next node's cumulative ack of the frame answers the
            // liveness probe to it (see `crate::membership`).
            let r = self.ring.as_mut().expect("forwarding ring");
            r.ask(next, now, Some(gsn));
        }
        self.telemetry.delivered_up_to(now, self.mq.front());
    }

    /// Cumulative ordered-stream ACK from a downstream hop. The next ring
    /// node's ack also answers the liveness probe to it when it covers the
    /// frame that asked the probe (see [`crate::membership`]). An MH's ack
    /// is also its liveness beacon: it refreshes a registered MH, and draws
    /// a [`Msg::ReRegister`] from an AP that does not know the MH.
    pub(crate) fn on_data_ack(
        &mut self,
        now: SimTime,
        from: Endpoint,
        upto: GlobalSeq,
        out: &mut Outbox,
    ) {
        match from {
            Endpoint::Ne(n) => {
                if let std::collections::btree_map::Entry::Occupied(mut e) = self.children.entry(n)
                {
                    e.insert(now); // doubles as liveness
                    self.wt_children.ack(n, upto);
                } else if self.ring_next() == Some(n) {
                    let r = self.ring.as_mut().expect("ring present");
                    if upto > r.next_acked_mq {
                        r.next_acked_mq = upto;
                    }
                    if r.data_ack_answers(n, upto) {
                        self.next_answered(n, true);
                    }
                }
            }
            Endpoint::Mh(guid) => {
                let Some(ap) = self.ap.as_mut() else { return };
                if ap.wt.ack(guid, upto) {
                    ap.last_heard.insert(guid, now);
                } else {
                    // Our WT entry is gone (crash-restart amnesia) or the
                    // registration was lost on the wireless hop: ask the MH
                    // to register again. No last-heard entry until it does,
                    // or the sweep would count a departure that was never
                    // counted as an arrival.
                    let group = self.group;
                    self.send_control(from, Msg::ReRegister { group }, out);
                }
            }
        }
    }

    /// Retransmission request from a downstream hop: serve every requested
    /// message still retained (`ValidFront` retention exists for this).
    pub(crate) fn on_data_nack(&mut self, from: Endpoint, missing: &[GlobalSeq], out: &mut Outbox) {
        if matches!(from, Endpoint::Ne(n) if !self.serves(n)) {
            return;
        }
        let group = self.group;
        for &gsn in missing {
            if let Some(&data) = self.mq.get(gsn) {
                out.push(Action::Send {
                    to: from,
                    msg: Msg::Data { group, gsn, data },
                });
                self.counters.retransmissions += 1;
                self.telemetry
                    .count(crate::telemetry::metric::RETRANSMISSIONS_SERVED);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::{GroupId, Guid, LocalSeq, PayloadId};
    use crate::node::NeState;

    const G: GroupId = GroupId(1);

    fn data(ls: u64) -> MsgData {
        MsgData {
            source: NodeId(0),
            local_seq: LocalSeq(ls),
            ordering_node: NodeId(0),
            payload: PayloadId(ls),
        }
    }

    /// AG ring 10-20-30; node under test is 20 (leader is 10).
    fn ag(id: u32) -> NeState {
        NeState::new_ag(
            G,
            NodeId(id),
            vec![NodeId(10), NodeId(20), NodeId(30)],
            vec![NodeId(1)],
            ProtocolConfig::default(),
        )
    }

    fn data_sends(out: &Outbox) -> Vec<(Endpoint, GlobalSeq)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: Msg::Data { gsn, .. },
                } => Some((*to, *gsn)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ring_forwarding_stops_before_leader() {
        // Node 20 forwards to 30.
        let mut n20 = ag(20);
        let mut out = Vec::new();
        n20.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        assert_eq!(
            data_sends(&out),
            vec![(Endpoint::Ne(NodeId(30)), GlobalSeq(1))]
        );
        // Node 30's next is the leader 10 → no ring forward.
        let mut n30 = ag(30);
        out.clear();
        n30.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        assert!(data_sends(&out).is_empty());
    }

    #[test]
    fn leader_injects_into_ring() {
        let mut n10 = ag(10);
        n10.parent = Some(NodeId(1));
        let mut out = Vec::new();
        n10.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(1)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        assert_eq!(
            data_sends(&out),
            vec![(Endpoint::Ne(NodeId(20)), GlobalSeq(1))]
        );
    }

    #[test]
    fn delivery_fans_out_to_children_and_mhs() {
        let mut ap = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        ap.ap
            .as_mut()
            .unwrap()
            .wt
            .register(Guid(1), GlobalSeq::ZERO);
        ap.ap
            .as_mut()
            .unwrap()
            .wt
            .register(Guid(2), GlobalSeq::ZERO);
        let mut out = Vec::new();
        ap.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        let sends = data_sends(&out);
        assert_eq!(
            sends,
            vec![
                (Endpoint::Mh(Guid(1)), GlobalSeq(1)),
                (Endpoint::Mh(Guid(2)), GlobalSeq(1)),
            ]
        );
        assert_eq!(ap.counters.data_sent, 2);
    }

    #[test]
    fn out_of_order_data_held_until_gap_fills() {
        let mut n20 = ag(20);
        let mut out = Vec::new();
        n20.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(2),
            data(2),
            &mut out,
        );
        assert!(data_sends(&out).is_empty(), "gap at 1 blocks");
        n20.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        let sends = data_sends(&out);
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[0].1, GlobalSeq(1));
        assert_eq!(sends[1].1, GlobalSeq(2));
    }

    #[test]
    fn duplicate_data_counted_not_reforwarded() {
        let mut n20 = ag(20);
        let mut out = Vec::new();
        n20.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        out.clear();
        n20.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(1),
            data(1),
            &mut out,
        );
        assert!(data_sends(&out).is_empty());
        assert_eq!(n20.counters.duplicates, 1);
    }

    #[test]
    fn acks_update_child_and_ring_progress() {
        let mut n20 = ag(20);
        let mut out = Vec::new();
        n20.children.insert(NodeId(100), SimTime::ZERO);
        n20.wt_children.register(NodeId(100), GlobalSeq::ZERO);
        n20.on_data_ack(
            SimTime::from_millis(1),
            Endpoint::Ne(NodeId(100)),
            GlobalSeq(4),
            &mut out,
        );
        assert_eq!(n20.wt_children.progress(NodeId(100)), Some(GlobalSeq(4)));
        // Ack from ring next (30).
        n20.on_data_ack(
            SimTime::from_millis(1),
            Endpoint::Ne(NodeId(30)),
            GlobalSeq(2),
            &mut out,
        );
        assert_eq!(n20.ring.as_ref().unwrap().next_acked_mq, GlobalSeq(2));
        // Stale ring ack ignored.
        n20.on_data_ack(
            SimTime::from_millis(2),
            Endpoint::Ne(NodeId(30)),
            GlobalSeq(1),
            &mut out,
        );
        assert_eq!(n20.ring.as_ref().unwrap().next_acked_mq, GlobalSeq(2));
        // The ring watermark is the *next* node's front — the one ack that
        // collects `MQ` and `WQ` alike; anybody else's is not ours to heed.
        n20.on_data_ack(
            SimTime::from_millis(3),
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(9),
            &mut out,
        );
        assert_eq!(n20.ring.as_ref().unwrap().next_acked_mq, GlobalSeq(2));
        assert_eq!(n20.wt_children.progress(NodeId(100)), Some(GlobalSeq(4)));
    }

    #[test]
    fn nack_served_from_retained_window() {
        let mut n20 = ag(20);
        let mut out = Vec::new();
        for g in 1..=3u64 {
            n20.on_data(
                SimTime::ZERO,
                Endpoint::Ne(NodeId(10)),
                GlobalSeq(g),
                data(g),
                &mut out,
            );
        }
        out.clear();
        n20.on_data_nack(
            Endpoint::Ne(NodeId(30)),
            &[GlobalSeq(2), GlobalSeq(9)],
            &mut out,
        );
        let sends = data_sends(&out);
        assert_eq!(sends, vec![(Endpoint::Ne(NodeId(30)), GlobalSeq(2))]);
        assert_eq!(n20.counters.retransmissions, 1);
    }

    #[test]
    fn skip_records_emitted_for_lost_messages() {
        let mut n20 = ag(20);
        let mut out = Vec::new();
        n20.on_data(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(10)),
            GlobalSeq(3),
            data(3),
            &mut out,
        );
        // Exhaust the budget instantly.
        let (_, lost) = n20.mq.collect_nacks(0);
        assert_eq!(lost.len(), 2);
        out.clear();
        n20.drive_delivery(SimTime::ZERO, &mut out);
        let skips: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, Action::Record(ProtoEvent::NeSkip { .. })))
            .collect();
        assert_eq!(skips.len(), 2);
        // gsn 3 still forwarded after the skips.
        assert_eq!(data_sends(&out).len(), 1);
    }
}
