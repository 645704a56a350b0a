//! The mobile-host state machine (the paper's MH tier, §4.1).
//!
//! An MH keeps the same `MQ` structure as the NEs, delivers contiguously to
//! its application (skipping really-lost messages), acknowledges
//! cumulatively to its AP, NACKs gaps, and — on a radio-layer handoff
//! stimulus — re-registers at the new AP announcing its own resume point so
//! delivery continues seamlessly ("even in handoffs").
//!
//! The cumulative ACK is also the MH's liveness beacon: it goes to the AP
//! on every `ack_every`-th hop tick whether or not the front moved, so the
//! AP hears from a live MH once per ack period and needs no separate
//! heartbeat. An MH runs one timer chain, the hop tick. An AP that does not
//! know the acking MH answers with [`Msg::ReRegister`].

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::config::ProtocolConfig;
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, GlobalSeq, GroupId, Guid, NodeId};
use crate::mq::{DeliverItem, InsertOutcome, MessageQueue, MsgData};
use crate::msg::Msg;

/// Per-MH statistics (surfaced in the `MhFinal` journal record).
#[derive(Debug, Clone, Copy, Default)]
pub struct MhCounters {
    /// Messages delivered to the application.
    pub delivered: u32,
    /// Messages skipped as really-lost.
    pub skipped: u32,
    /// Duplicate receptions discarded.
    pub duplicates: u32,
    /// Handoffs performed.
    pub handoffs: u32,
}

/// The mobile-host state machine.
pub struct MhState {
    /// Group joined.
    pub group: GroupId,
    /// Globally unique identity (`GUID`).
    pub guid: Guid,
    /// Currently attached AP (the paper's `AP` field), if any.
    pub ap: Option<NodeId>,
    /// Receive queue (`MQ`).
    pub mq: MessageQueue,
    /// Protocol parameters.
    pub cfg: ProtocolConfig,
    /// Statistics.
    pub counters: MhCounters,
    /// Hop-tick counter (drives the `ack_every` divisor).
    pub hop_tick_count: u64,
    /// Sequence of the last application delivery, for order verification.
    pub last_delivered: GlobalSeq,
    /// Crash-stop flag.
    pub alive: bool,
}

impl MhState {
    /// Create an MH. It attaches and joins via [`MhState::join`].
    pub fn new(group: GroupId, guid: Guid, cfg: ProtocolConfig) -> Self {
        let mq = MessageQueue::new(cfg.mq_capacity);
        MhState {
            group,
            guid,
            ap: None,
            mq,
            cfg,
            counters: MhCounters::default(),
            hop_tick_count: 0,
            last_delivered: GlobalSeq::ZERO,
            alive: true,
        }
    }

    /// Attach to `ap` and join the group there.
    pub fn join(&mut self, _now: SimTime, ap: NodeId, out: &mut Outbox) {
        self.ap = Some(ap);
        out.push(Action::to_ne(
            ap,
            Msg::Join {
                group: self.group,
                guid: self.guid,
            },
        ));
    }

    /// Leave the group (and detach).
    pub fn leave(&mut self, _now: SimTime, out: &mut Outbox) {
        if let Some(ap) = self.ap.take() {
            out.push(Action::to_ne(
                ap,
                Msg::Leave {
                    group: self.group,
                    guid: self.guid,
                },
            ));
        }
    }

    /// Dispatch one received message.
    pub fn on_msg(&mut self, now: SimTime, from: Endpoint, msg: Msg, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        match msg {
            Msg::Data { gsn, data, .. } => self.on_data(now, gsn, data, out),
            Msg::ReRegister { .. } => {
                // Our AP no longer knows us (crash-restart amnesia or a lost
                // registration). Register again with our own resume point;
                // the AP side is idempotent. Only honour the *current* AP —
                // a stale solicitation from a previous AP must not re-attach
                // us there.
                if let (Endpoint::Ne(n), Some(ap)) = (from, self.ap) {
                    if n == ap {
                        out.push(Action::to_ne(
                            ap,
                            Msg::HandoffRegister {
                                group: self.group,
                                guid: self.guid,
                                resume_from: self.mq.front(),
                            },
                        ));
                    }
                }
            }
            Msg::JoinAck { start_from, .. } => {
                // Skip history from before our join point.
                self.mq.fast_forward(start_from);
                if start_from > self.last_delivered {
                    self.last_delivered = start_from;
                }
            }
            Msg::HandoffTo { new_ap, .. } => self.on_handoff(now, new_ap, out),
            Msg::JoinCmd { ap, .. } => self.join(now, ap, out),
            Msg::Kill { .. } => self.alive = false,
            Msg::FlushStats { .. } => self.flush_final_stats(out),
            _ => {}
        }
    }

    fn on_data(&mut self, _now: SimTime, gsn: GlobalSeq, data: MsgData, out: &mut Outbox) {
        match self.mq.insert(gsn, data) {
            InsertOutcome::Stored => self.deliver_ready(out),
            InsertOutcome::Duplicate | InsertOutcome::Stale => {
                self.counters.duplicates += 1;
            }
            InsertOutcome::Overflow => {}
        }
    }

    /// Advance the application-delivery front, one slot at a time (no
    /// per-poll `Vec` — this runs on every data arrival).
    fn deliver_ready(&mut self, out: &mut Outbox) {
        while let Some(item) = self.mq.next_deliverable() {
            match item {
                DeliverItem::Deliver(gsn, data) => {
                    debug_assert!(gsn > self.last_delivered, "total order violated");
                    self.last_delivered = gsn;
                    self.counters.delivered += 1;
                    if self.cfg.record_mh_deliveries {
                        out.push(Action::Record(ProtoEvent::MhDeliver {
                            group: self.group,
                            mh: self.guid,
                            gsn,
                            source: data.source,
                            local_seq: data.local_seq,
                        }));
                    }
                }
                DeliverItem::Skip(gsn) => {
                    self.last_delivered = gsn;
                    self.counters.skipped += 1;
                    if self.cfg.record_mh_deliveries {
                        out.push(Action::Record(ProtoEvent::MhSkip {
                            group: self.group,
                            mh: self.guid,
                            gsn,
                        }));
                    }
                }
            }
        }
    }

    /// Radio-layer stimulus: we are now under `new_ap`. Register there,
    /// announcing our own progress so delivery resumes where it stopped.
    fn on_handoff(&mut self, _now: SimTime, new_ap: NodeId, out: &mut Outbox) {
        if self.ap == Some(new_ap) {
            return;
        }
        self.counters.handoffs += 1;
        self.ap = Some(new_ap);
        out.push(Action::to_ne(
            new_ap,
            Msg::HandoffRegister {
                group: self.group,
                guid: self.guid,
                resume_from: self.mq.front(),
            },
        ));
    }

    /// Periodic hop tick: NACK gaps, cumulative ACK, GC.
    pub fn tick_hop(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        self.hop_tick_count += 1;
        let (missing, newly_lost) = self.mq.collect_nacks(self.cfg.nack_budget);
        if let Some(ap) = self.ap {
            if !missing.is_empty() {
                out.push(Action::to_ne(
                    ap,
                    Msg::DataNack {
                        group: self.group,
                        missing,
                    },
                ));
            }
            if self
                .hop_tick_count
                .is_multiple_of(self.cfg.ack_every as u64)
            {
                out.push(Action::to_ne(
                    ap,
                    Msg::DataAck {
                        group: self.group,
                        upto: self.mq.front(),
                    },
                ));
            }
        }
        if !newly_lost.is_empty() {
            self.deliver_ready(out);
        }
        // Applications consume immediately; nothing downstream pins the MQ.
        let front = self.mq.front();
        self.mq.gc_to(front);
        let _ = now;
    }

    /// Emit the final-statistics journal record.
    pub fn flush_final_stats(&self, out: &mut Outbox) {
        out.push(Action::Record(ProtoEvent::MhFinal {
            group: self.group,
            mh: self.guid,
            delivered: self.counters.delivered,
            skipped: self.counters.skipped,
            duplicates: self.counters.duplicates,
            handoffs: self.counters.handoffs,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LocalSeq, PayloadId};

    const G: GroupId = GroupId(1);
    const AP1: NodeId = NodeId(50);
    const AP2: NodeId = NodeId(51);

    fn data(g: u64) -> MsgData {
        MsgData {
            source: NodeId(0),
            local_seq: LocalSeq(g),
            ordering_node: NodeId(0),
            payload: PayloadId(g),
        }
    }

    fn mh() -> MhState {
        MhState::new(G, Guid(7), ProtocolConfig::default())
    }

    fn delivered_gsns(out: &Outbox) -> Vec<u64> {
        out.iter()
            .filter_map(|a| match a {
                Action::Record(ProtoEvent::MhDeliver { gsn, .. }) => Some(gsn.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn join_then_receive_in_order() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP1),
                msg: Msg::Join { .. }
            }
        ));
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::JoinAck {
                group: G,
                start_from: GlobalSeq::ZERO,
            },
            &mut out,
        );
        for g in 1..=3u64 {
            m.on_msg(
                SimTime::ZERO,
                Endpoint::Ne(AP1),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: data(g),
                },
                &mut out,
            );
        }
        assert_eq!(delivered_gsns(&out), vec![1, 2, 3]);
        assert_eq!(m.counters.delivered, 3);
        assert_eq!(m.last_delivered, GlobalSeq(3));
    }

    #[test]
    fn join_mid_stream_skips_history() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::JoinAck {
                group: G,
                start_from: GlobalSeq(40),
            },
            &mut out,
        );
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(41),
                data: data(41),
            },
            &mut out,
        );
        assert_eq!(
            delivered_gsns(&out),
            vec![41],
            "no wait for history before 41"
        );
    }

    #[test]
    fn gap_nacked_then_filled() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(2),
                data: data(2),
            },
            &mut out,
        );
        assert!(delivered_gsns(&out).is_empty());
        m.tick_hop(SimTime::from_millis(5), &mut out);
        let nacks: Vec<_> = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::DataNack { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(nacks.len(), 1);
        // Retransmission arrives.
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        assert_eq!(delivered_gsns(&out), vec![1, 2]);
    }

    #[test]
    fn budget_exhaustion_skips() {
        let cfg = ProtocolConfig::default().with_nack_budget(1);
        let mut m = MhState::new(G, Guid(7), cfg);
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(2),
                data: data(2),
            },
            &mut out,
        );
        out.clear();
        m.tick_hop(SimTime::from_millis(5), &mut out);
        m.tick_hop(SimTime::from_millis(10), &mut out);
        assert_eq!(m.counters.skipped, 1);
        assert_eq!(delivered_gsns(&out), vec![2]);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::MhSkip {
                gsn: GlobalSeq(1),
                ..
            })
        )));
    }

    #[test]
    fn handoff_reregisters_with_resume_point() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        for g in 1..=5u64 {
            m.on_msg(
                SimTime::ZERO,
                Endpoint::Ne(AP1),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: data(g),
                },
                &mut out,
            );
        }
        out.clear();
        m.on_msg(
            SimTime::from_secs(1),
            Endpoint::Ne(AP2),
            Msg::HandoffTo {
                group: G,
                new_ap: AP2,
            },
            &mut out,
        );
        assert_eq!(m.ap, Some(AP2));
        assert_eq!(m.counters.handoffs, 1);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP2),
                msg: Msg::HandoffRegister {
                    resume_from: GlobalSeq(5),
                    ..
                }
            }
        ));
        // Handoff to the same AP is ignored.
        out.clear();
        m.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(AP2),
            Msg::HandoffTo {
                group: G,
                new_ap: AP2,
            },
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(m.counters.handoffs, 1);
    }

    #[test]
    fn reregister_solicitation_answered_by_current_ap_only() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        for g in 1..=3u64 {
            m.on_msg(
                SimTime::ZERO,
                Endpoint::Ne(AP1),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: data(g),
                },
                &mut out,
            );
        }
        out.clear();
        m.on_msg(
            SimTime::from_secs(1),
            Endpoint::Ne(AP1),
            Msg::ReRegister { group: G },
            &mut out,
        );
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(AP1),
                msg: Msg::HandoffRegister {
                    resume_from: GlobalSeq(3),
                    ..
                }
            }
        ));
        assert_eq!(m.counters.handoffs, 0, "re-registration is not a handoff");
        // A stale AP's solicitation is ignored.
        out.clear();
        m.on_msg(
            SimTime::from_secs(2),
            Endpoint::Ne(AP2),
            Msg::ReRegister { group: G },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn acks_on_schedule_and_gc() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        out.clear();
        m.tick_hop(SimTime::from_millis(5), &mut out); // tick 1: no ack
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::DataAck { .. },
                ..
            }
        )));
        m.tick_hop(SimTime::from_millis(10), &mut out); // tick 2: ack
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::DataAck {
                    upto: GlobalSeq(1),
                    ..
                },
                ..
            }
        )));
        // Delivered content GC'd.
        assert_eq!(m.mq.occupancy(), 0);
    }

    #[test]
    fn duplicates_counted_once_delivered() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        assert_eq!(m.counters.delivered, 1);
        assert_eq!(m.counters.duplicates, 1);
    }

    /// The ack is the MH's liveness beacon: an ack tick restates a front
    /// that has not moved, so an idle MH is still heard once per ack period.
    #[test]
    fn ack_tick_restates_an_unmoved_front() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        out.clear();
        for t in 1..=4 {
            m.tick_hop(SimTime::from_millis(5 * t), &mut out);
        }
        let acks: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(AP1),
                    msg: Msg::DataAck { upto, .. },
                } => Some(*upto),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![GlobalSeq::ZERO; 2], "two ack ticks, two acks");
        assert_eq!(out.len(), 2, "and nothing else");
    }

    #[test]
    fn final_stats_record() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::FlushStats { group: G },
            &mut out,
        );
        assert!(matches!(
            out[0],
            Action::Record(ProtoEvent::MhFinal { delivered: 1, .. })
        ));
    }

    #[test]
    fn kill_silences() {
        let mut m = mh();
        let mut out = Vec::new();
        m.join(SimTime::ZERO, AP1, &mut out);
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Kill { group: G },
            &mut out,
        );
        out.clear();
        m.on_msg(
            SimTime::ZERO,
            Endpoint::Ne(AP1),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(1),
                data: data(1),
            },
            &mut out,
        );
        m.tick_hop(SimTime::from_millis(5), &mut out);
        assert!(out.is_empty());
    }
}
