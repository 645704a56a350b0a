//! The Message-Delivering algorithm's tree and mobility maintenance
//! (§4.2.3 and §3's MMA behaviour).
//!
//! Delivery itself is push-based and lives in `forwarding::drive_delivery`;
//! this module manages *who* gets those pushes: children graft onto and
//! prune from parents, MHs join / leave / hand off between APs, and the
//! multicast-path-reservation scheme pre-activates neighbouring APs so that
//! "when an MH handoffs, it can immediately receive multicast messages".

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, GlobalSeq, Guid, NodeId};
use crate::msg::Msg;
use crate::node::NeState;

impl NeState {
    /// A child attaches (or re-attaches) and asks for the stream after
    /// `resume_from`. A `resync` child (crash-restart with empty state)
    /// is registered at our *current* front instead: it will fast-forward
    /// there from the `GraftAck`, so replaying the retained window would
    /// only be discarded as stale on arrival.
    pub(crate) fn on_graft(
        &mut self,
        now: SimTime,
        child: NodeId,
        resume_from: GlobalSeq,
        resync: bool,
        out: &mut Outbox,
    ) {
        if !self.serves(child) {
            return;
        }
        let resume_from = if resync { self.mq.front() } else { resume_from };
        let newly = self.children.insert(child, now).is_none();
        self.wt_children.register(child, resume_from);
        let ack = Msg::GraftAck {
            group: self.group,
            front: self.mq.front(),
        };
        self.send_control(Endpoint::Ne(child), ack, out);
        if newly {
            out.push(Action::Record(ProtoEvent::Grafted {
                group: self.group,
                parent: self.id,
                child,
            }));
        }
        self.send_catchup(Endpoint::Ne(child), resume_from, out);
        self.fetch_collected(resume_from, out);
    }

    /// A top-ring parent asked to resume a child from below its own
    /// `ValidFront` fetches the range it collected through the top ring's
    /// NACK path: its ring predecessor may still hold it, for an excised
    /// BR's failover ([`crate::node::RingState::hold_for_failover`]) or for
    /// the child it served until the child failed over. What comes back
    /// goes to the children that lack it (`on_data`).
    fn fetch_collected(&mut self, resume_from: GlobalSeq, out: &mut Outbox) {
        let (first, collected) = (resume_from.next(), self.mq.valid_front());
        if !self.is_top_ring() || first >= collected {
            return;
        }
        let Some(prev) = self.ring_prev().filter(|&p| p != self.id) else {
            return;
        };
        let missing = (first.0..collected.0).map(GlobalSeq).collect();
        let group = self.group;
        self.send_control(Endpoint::Ne(prev), Msg::DataNack { group, missing }, out);
    }

    /// Our own graft was accepted by the parent. After a crash-restart the
    /// first accepted graft fast-forwards the (freshly empty) `MQ` to the
    /// parent's announced front: history from before the crash is not
    /// recoverable, and chasing it would only produce NACK storms.
    pub(crate) fn on_graft_ack(&mut self, _now: SimTime, from: Endpoint, front: GlobalSeq) {
        let Endpoint::Ne(p) = from else { return };
        if self.parent == Some(p) {
            self.graft_pending = false;
            // The parent registered our progress afresh.
            self.forget_told();
            if let Some(ap) = self.ap.as_mut() {
                ap.grafted = true;
            }
            if self.resync_on_graft {
                self.resync_on_graft = false;
                self.mq.fast_forward(front);
            }
        }
    }

    /// A child detaches.
    pub(crate) fn on_prune(&mut self, _now: SimTime, child: NodeId, out: &mut Outbox) {
        if self.children.remove(&child).is_some() {
            self.wt_children.remove(child);
            out.push(Action::Record(ProtoEvent::Pruned {
                group: self.group,
                parent: self.id,
                child,
            }));
        }
    }

    /// An MH joins the group at this AP. Delivery starts from "now" (the
    /// AP's current front) — joiners do not receive history.
    pub(crate) fn on_join(&mut self, now: SimTime, guid: Guid, out: &mut Outbox) {
        let group = self.group;
        let start_from = self.mq.front();
        let Some(ap) = self.ap.as_mut() else { return };
        let newly = ap.wt.progress(guid).is_none();
        ap.wt.register(guid, start_from);
        ap.last_heard.insert(guid, now);
        self.send_control(Endpoint::Mh(guid), Msg::JoinAck { group, start_from }, out);
        if newly {
            self.pending_delta += 1;
            self.subtree_members += 1;
        }
        self.ensure_active_grafted(now, out);
        self.emit_reservations(out);
    }

    /// An MH leaves the group at this AP.
    pub(crate) fn on_leave(&mut self, now: SimTime, guid: Guid, out: &mut Outbox) {
        let Some(ap) = self.ap.as_mut() else { return };
        if ap.wt.remove(guid).is_some() {
            ap.last_heard.remove(&guid);
            self.pending_delta -= 1;
            self.subtree_members -= 1;
        }
        // Deactivation (prune from parent) is handled lazily by the
        // heartbeat tick once no members and no reservation remain.
        let _ = now;
        let _ = out;
    }

    /// An MH arrives after a handoff and resumes delivery from its own
    /// progress point. Unlike a fresh join, history since `resume_from` is
    /// replayed from this AP's retained window.
    pub(crate) fn on_handoff_register(
        &mut self,
        now: SimTime,
        guid: Guid,
        resume_from: GlobalSeq,
        out: &mut Outbox,
    ) {
        let Some(ap) = self.ap.as_mut() else { return };
        let newly = ap.wt.progress(guid).is_none();
        ap.wt.register(guid, resume_from);
        ap.last_heard.insert(guid, now);
        if newly {
            // The member moved into this subtree; the old AP's liveness
            // sweep will emit the matching −1 from its side.
            self.pending_delta += 1;
            self.subtree_members += 1;
        }
        out.push(Action::Record(ProtoEvent::HandoffRegistered {
            group: self.group,
            mh: guid,
            ap: self.id,
            resume: resume_from,
        }));
        self.ensure_active_grafted(now, out);
        self.send_catchup(Endpoint::Mh(guid), resume_from, out);
        self.emit_reservations(out);
    }

    /// Path-reservation request from a nearby AP (§3): pre-join the
    /// distribution tree so an imminent handoff finds traffic flowing.
    pub(crate) fn on_reserve(
        &mut self,
        now: SimTime,
        origin_ap: NodeId,
        radius: u8,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let Some(ap) = self.ap.as_mut() else { return };
        let until = now + crate::config::RESERVATION_TTL;
        if until > ap.reservation_until {
            ap.reservation_until = until;
        }
        out.push(Action::Record(ProtoEvent::Reserved {
            group,
            ap: me,
            origin: origin_ap,
        }));
        // Propagate outward while radius remains.
        if radius > 1 {
            for nb in ap.neighbours.clone() {
                if nb != origin_ap {
                    let reserve = Msg::Reserve {
                        group,
                        origin_ap: me,
                        radius: radius - 1,
                    };
                    self.send_control(Endpoint::Ne(nb), reserve, out);
                }
            }
        }
        self.ensure_active_grafted(now, out);
    }

    /// Graft this AP onto a parent when it should be receiving the group's
    /// traffic and is not yet attached.
    pub(crate) fn ensure_active_grafted(&mut self, now: SimTime, out: &mut Outbox) {
        let Some(ap) = self.ap.as_mut() else { return };
        if !ap.should_be_active(now) || ap.grafted {
            return;
        }
        let parent = match self.parent {
            Some(p) => p,
            None => {
                let Some(&first) = self.parent_candidates.first() else {
                    return;
                };
                self.parent = Some(first);
                first
            }
        };
        self.send_graft(parent, out);
        // `grafted` flips on GraftAck; re-sent by the heartbeat tick until then.
    }

    /// Send Reserve to every neighbouring AP (radius from config).
    pub(crate) fn emit_reservations(&mut self, out: &mut Outbox) {
        let radius = self.cfg.reservation_radius;
        if radius == 0 {
            return;
        }
        let group = self.group;
        let me = self.id;
        let Some(ap) = self.ap.as_ref() else { return };
        for nb in ap.neighbours.clone() {
            let reserve = Msg::Reserve {
                group,
                origin_ap: me,
                radius,
            };
            self.send_control(Endpoint::Ne(nb), reserve, out);
        }
    }

    /// Replay the retained window `(resume_from, front]` to a downstream
    /// that just (re)attached.
    fn send_catchup(&mut self, to: Endpoint, resume_from: GlobalSeq, out: &mut Outbox) {
        let group = self.group;
        let front = self.mq.front();
        let mut g = resume_from.next().max(self.mq.valid_front());
        while g <= front {
            if let Some(&data) = self.mq.get(g) {
                out.push(Action::Send {
                    to,
                    msg: Msg::Data {
                        group,
                        gsn: g,
                        data,
                    },
                });
                self.counters.data_sent += 1;
            }
            g = g.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::{GroupId, LocalSeq, PayloadId};
    use crate::mq::MsgData;

    const G: GroupId = GroupId(1);

    fn data(g: u64) -> MsgData {
        MsgData {
            source: NodeId(0),
            local_seq: LocalSeq(g),
            ordering_node: NodeId(0),
            payload: PayloadId(g),
        }
    }

    fn ag_with_content(upto: u64) -> NeState {
        let mut n = NeState::new_ag(
            G,
            NodeId(20),
            vec![NodeId(10), NodeId(20)],
            vec![NodeId(1)],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        for g in 1..=upto {
            n.on_data(
                SimTime::ZERO,
                Endpoint::Ne(NodeId(10)),
                GlobalSeq(g),
                data(g),
                &mut out,
            );
        }
        n
    }

    fn ap(always_active: bool, neighbours: Vec<NodeId>) -> NeState {
        NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            always_active,
            neighbours,
            ProtocolConfig::default(),
        )
    }

    #[test]
    fn graft_registers_child_and_replays_window() {
        let mut n = ag_with_content(5);
        let mut out = Vec::new();
        n.on_graft(SimTime::ZERO, NodeId(99), GlobalSeq(2), false, &mut out);
        assert!(n.children.contains_key(&NodeId(99)));
        assert_eq!(n.wt_children.progress(NodeId(99)), Some(GlobalSeq(2)));
        let datas: Vec<GlobalSeq> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Msg::Data { gsn, .. },
                    ..
                } => Some(*gsn),
                _ => None,
            })
            .collect();
        assert_eq!(datas, vec![GlobalSeq(3), GlobalSeq(4), GlobalSeq(5)]);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::GraftAck { .. },
                ..
            }
        )));
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Record(ProtoEvent::Grafted { .. }))));
        // Re-graft: no second Grafted record.
        out.clear();
        n.on_graft(
            SimTime::from_millis(1),
            NodeId(99),
            GlobalSeq(5),
            false,
            &mut out,
        );
        assert!(!out
            .iter()
            .any(|a| matches!(a, Action::Record(ProtoEvent::Grafted { .. }))));
    }

    #[test]
    fn prune_removes_child() {
        let mut n = ag_with_content(1);
        let mut out = Vec::new();
        n.on_graft(SimTime::ZERO, NodeId(99), GlobalSeq::ZERO, false, &mut out);
        out.clear();
        n.on_prune(SimTime::ZERO, NodeId(99), &mut out);
        assert!(n.children.is_empty());
        assert!(n.wt_children.is_empty());
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Record(ProtoEvent::Pruned { .. }))));
        // Double prune is silent.
        out.clear();
        n.on_prune(SimTime::ZERO, NodeId(99), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn join_starts_from_now_not_history() {
        let mut n = ap(true, vec![]);
        // Give the AP some history.
        let mut out = Vec::new();
        for g in 1..=4u64 {
            n.on_data(
                SimTime::ZERO,
                Endpoint::Ne(NodeId(20)),
                GlobalSeq(g),
                data(g),
                &mut out,
            );
        }
        out.clear();
        n.on_join(SimTime::from_millis(1), Guid(7), &mut out);
        // JoinAck tells the MH to start after the AP's current front.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::JoinAck {
                    start_from: GlobalSeq(4),
                    ..
                },
                ..
            }
        )));
        // No history replay on join.
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Data { .. },
                ..
            }
        )));
        assert_eq!(n.pending_delta, 1);
        assert_eq!(n.subtree_members, 1);
        // Duplicate join does not double-count.
        out.clear();
        n.on_join(SimTime::from_millis(2), Guid(7), &mut out);
        assert_eq!(n.pending_delta, 1);
    }

    #[test]
    fn leave_decrements_membership() {
        let mut n = ap(true, vec![]);
        let mut out = Vec::new();
        n.on_join(SimTime::ZERO, Guid(7), &mut out);
        n.on_leave(SimTime::ZERO, Guid(7), &mut out);
        assert_eq!(n.pending_delta, 0);
        assert_eq!(n.subtree_members, 0);
        assert!(n.ap.as_ref().unwrap().wt.is_empty());
        // Leave of unknown member is a no-op.
        n.on_leave(SimTime::ZERO, Guid(8), &mut out);
        assert_eq!(n.pending_delta, 0);
    }

    #[test]
    fn handoff_register_replays_from_resume_point() {
        let mut n = ap(true, vec![]);
        let mut out = Vec::new();
        for g in 1..=6u64 {
            n.on_data(
                SimTime::ZERO,
                Endpoint::Ne(NodeId(20)),
                GlobalSeq(g),
                data(g),
                &mut out,
            );
        }
        out.clear();
        n.on_handoff_register(SimTime::from_millis(1), Guid(3), GlobalSeq(4), &mut out);
        let datas: Vec<GlobalSeq> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Mh(Guid(3)),
                    msg: Msg::Data { gsn, .. },
                } => Some(*gsn),
                _ => None,
            })
            .collect();
        assert_eq!(datas, vec![GlobalSeq(5), GlobalSeq(6)]);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::HandoffRegistered {
                resume: GlobalSeq(4),
                ..
            })
        )));
    }

    #[test]
    fn inactive_ap_grafts_on_first_member() {
        let mut n = ap(false, vec![]);
        assert!(!n.ap.as_ref().unwrap().grafted);
        let mut out = Vec::new();
        n.on_join(SimTime::ZERO, Guid(1), &mut out);
        let grafts: Vec<_> = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::Graft { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(grafts.len(), 1);
        assert_eq!(n.parent, Some(NodeId(20)));
        // GraftAck completes the attachment.
        n.on_graft_ack(SimTime::ZERO, Endpoint::Ne(NodeId(20)), GlobalSeq::ZERO);
        assert!(n.ap.as_ref().unwrap().grafted);
    }

    #[test]
    fn restart_resync_fast_forwards_to_parent_front() {
        let mut n = ap(true, vec![]);
        let mut out = Vec::new();
        // Crash and restart: state wiped, resync armed, re-graft sent.
        n.kill();
        n.restart(SimTime::from_secs(1), &mut out);
        assert!(n.resync_on_graft);
        assert_eq!(n.mq.front(), GlobalSeq::ZERO);
        // Parent accepts, announcing its front at 40.
        n.on_graft_ack(
            SimTime::from_secs(1),
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(41),
        );
        assert!(!n.resync_on_graft, "resync consumed");
        assert_eq!(
            n.mq.front(),
            GlobalSeq(41),
            "fresh MQ fast-forwarded to the parent's front"
        );
        // A later re-graft ack must NOT fast-forward again.
        out.clear();
        n.on_data(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(42),
            data(42),
            &mut out,
        );
        n.on_graft_ack(
            SimTime::from_secs(2),
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(50),
        );
        assert_eq!(n.mq.front(), GlobalSeq(42), "established child unaffected");
    }

    #[test]
    fn reservation_activates_and_propagates() {
        let mut n = ap(false, vec![NodeId(98), NodeId(97)]);
        let mut out = Vec::new();
        n.on_reserve(SimTime::from_secs(1), NodeId(98), 2, &mut out);
        // Reservation keeps the AP active until now + TTL.
        let st = n.ap.as_ref().unwrap();
        assert!(st.should_be_active(SimTime::from_secs(1)));
        assert!(!st.should_be_active(SimTime::from_secs(10)));
        // Radius 2 → propagate to the *other* neighbour with radius 1.
        let fwd: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(n),
                    msg: Msg::Reserve { radius, .. },
                } => Some((*n, *radius)),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![(NodeId(97), 1)]);
        // It also grafted (activation).
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Graft { .. },
                ..
            }
        )));
    }

    #[test]
    fn reservation_radius_one_does_not_propagate() {
        let mut n = ap(false, vec![NodeId(98)]);
        let mut out = Vec::new();
        n.on_reserve(SimTime::from_secs(1), NodeId(96), 1, &mut out);
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Reserve { .. },
                ..
            }
        )));
    }

    #[test]
    fn join_emits_reservations_to_neighbours() {
        let mut n = ap(true, vec![NodeId(98), NodeId(97)]);
        let mut out = Vec::new();
        n.on_join(SimTime::ZERO, Guid(1), &mut out);
        let targets: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(n),
                    msg: Msg::Reserve { .. },
                } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![NodeId(98), NodeId(97)]);
    }

    #[test]
    fn zero_radius_disables_reservations() {
        let cfg = ProtocolConfig::default().with_reservation_radius(0);
        let mut n = NeState::new_ap(G, NodeId(99), vec![NodeId(20)], true, vec![NodeId(98)], cfg);
        let mut out = Vec::new();
        n.on_join(SimTime::ZERO, Guid(1), &mut out);
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Reserve { .. },
                ..
            }
        )));
    }

    /// BR 1 of the top ring 0 → 1 → 2, holding GSNs 1–10 and collected up
    /// to 10: its next acked 10 and it has no child.
    fn br1_collected_to_10() -> NeState {
        let ring = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut n = NeState::new_br(G, NodeId(1), ring, true, ProtocolConfig::default());
        let mut out = Vec::new();
        for g in 1..=10 {
            n.on_data(
                SimTime::ZERO,
                Endpoint::Ne(NodeId(0)),
                GlobalSeq(g),
                data(g),
                &mut out,
            );
        }
        n.ring.as_mut().unwrap().next_acked_mq = GlobalSeq(10);
        n.tick_hop(SimTime::from_millis(5), &mut out);
        assert_eq!(n.mq.valid_front(), GlobalSeq(10));
        n
    }

    fn sends(out: &Outbox) -> Vec<(Endpoint, &Msg)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_top_ring_parent_fetches_what_a_child_grafts_below() {
        let mut n = br1_collected_to_10();
        let mut out = Vec::new();
        n.on_graft(
            SimTime::from_millis(6),
            NodeId(20),
            GlobalSeq(3),
            false,
            &mut out,
        );
        let nacks: Vec<_> = (sends(&out).into_iter())
            .filter_map(|(to, m)| match m {
                Msg::DataNack { missing, .. } => Some((to, missing.clone())),
                _ => None,
            })
            .collect();
        let range = (4..10).map(GlobalSeq).collect();
        assert_eq!(
            nacks,
            vec![(Endpoint::Ne(NodeId(0)), range)],
            "to the ring predecessor"
        );
        // A child at the front needs nothing; what comes back goes only to
        // the child below it, and the parent's own `MQ` stays as it was.
        n.on_graft(
            SimTime::from_millis(6),
            NodeId(21),
            GlobalSeq(10),
            false,
            &mut out,
        );
        out.clear();
        n.on_data(
            SimTime::from_millis(16),
            Endpoint::Ne(NodeId(0)),
            GlobalSeq(5),
            data(5),
            &mut out,
        );
        let datas: Vec<_> = (sends(&out).into_iter())
            .filter_map(|(to, m)| {
                matches!(
                    m,
                    Msg::Data {
                        gsn: GlobalSeq(5),
                        ..
                    }
                )
                .then_some(to)
            })
            .collect();
        assert_eq!(datas, vec![Endpoint::Ne(NodeId(20))]);
        assert_eq!(n.mq.valid_front(), GlobalSeq(10));
        // A lower ring's parent has no ring predecessor holding for it.
        let mut ag = ag_with_content(5);
        ag.mq.gc_to(GlobalSeq(4));
        out.clear();
        ag.on_graft(SimTime::ZERO, NodeId(99), GlobalSeq(1), false, &mut out);
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::DataNack { .. },
                ..
            }
        )));
    }

    #[test]
    fn a_fenced_br_answers_its_ring_but_not_its_children() {
        let mut n = br1_collected_to_10();
        let mut out = Vec::new();
        n.on_graft(
            SimTime::from_millis(6),
            NodeId(20),
            GlobalSeq(10),
            false,
            &mut out,
        );
        // BR 1 loses BRs 0 and 2: alone of three, it fences itself.
        for dead in [NodeId(0), NodeId(2)] {
            n.ring.as_mut().unwrap().mark_dead(dead);
        }
        n.check_partition_fence(SimTime::from_millis(7), &mut out);
        assert!(n.is_partition_fenced());
        out.clear();
        let now = SimTime::from_millis(8);
        n.on_heartbeat(now, Endpoint::Ne(NodeId(20)), &mut out);
        n.on_graft(now, NodeId(21), GlobalSeq(10), false, &mut out);
        n.on_data_nack(Endpoint::Ne(NodeId(20)), &[GlobalSeq(10)], &mut out);
        assert!(out.is_empty(), "children go unanswered: {out:?}");
        assert!(!n.children.contains_key(&NodeId(21)));
        n.on_heartbeat(now, Endpoint::Ne(NodeId(0)), &mut out);
        let acked = sends(&out);
        assert!(
            matches!(
                acked[..],
                [(Endpoint::Ne(NodeId(0)), Msg::HeartbeatAck { .. })]
            ),
            "a ring peer's probe is heal evidence: {out:?}"
        );
    }
}
