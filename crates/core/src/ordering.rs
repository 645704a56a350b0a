//! The Message-Ordering and Order-Assignment algorithms (§4.2.1).
//!
//! Top-ring nodes run three cooperating pieces:
//!
//! 1. **Source intake + pre-order circulation.** A source's messages enter
//!    `WQ` at the corresponding node and are forwarded along the ring so
//!    every top-ring node eventually holds every source's stream
//!    (Message-Forwarding case A, implemented here because it operates on
//!    `WQ`).
//! 2. **Token processing.** The node currently holding the `OrderingToken`
//!    assigns a global-sequence range to its own source's pending messages,
//!    snapshots the token (`NewOrderingToken` / `OldOrderingToken`) and
//!    reliably transfers it to the next ring node.
//! 3. **Order-Assignment.** Each node copies every `WQ` message covered by
//!    a WTSNP entry of its kept token snapshots into `MQ` under its assigned
//!    global number. The copy is event-driven: it runs at the instant a
//!    snapshot is installed (own range and predecessors' ranges in one
//!    GSN-ordered pass) and at the instant a late pre-order lands under an
//!    entry a kept snapshot already covers, so on a loss-free ring no
//!    delivery waits for a timer. The paper's periodic `τ` scan is gone:
//!    a snapshot is installed in one place (`process_and_forward_token`),
//!    a network pre-order enters `WQ` in two (`on_pre_order`,
//!    `on_fence_pre_order`), all three copy on the spot, and an own-stream
//!    entry falls under a snapshot only at the node's own token hold — so
//!    a scan only ever saw what its last trigger had settled. Measured
//!    before it went: 0 copies by the scan against 4 868 837 on token
//!    arrival and 42 on late pre-orders, over 1 500 generated chaos worlds
//!    (500 seeds × quick / default / stress). A per-node watermark
//!    (`OrderingState::assigned_through`) makes every trigger cost
//!    O(new entries) and an idle one O(1).
//!
//! The old snapshot (`OldOrderingToken`) is always kept: it is
//! fault-recovery state, not a fast path. Over 4 500 generated chaos runs
//! (500 seeds × quick / default / stress × the three ring backends) it
//! supplied 8 of 22 906 424 `WQ`→`MQ` copies, each a late pre-order whose
//! entry the newer snapshot had already pruned.

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, Epoch, GlobalSeq, LocalRange, LocalSeq, NodeId, PayloadId};
use crate::mq::InsertOutcome;
use crate::msg::Msg;
use crate::node::{InflightToken, NeState};
use crate::token::OrderingToken;

/// What set off an Order-Assignment scan (only telemetry tells them apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AssignTrigger {
    /// A token snapshot was just installed.
    Token,
    /// A (fence) pre-order just entered the `WQ`.
    PreOrder,
}

impl AssignTrigger {
    fn metric(self) -> &'static str {
        use crate::telemetry::metric;
        match self {
            AssignTrigger::Token => metric::COPIED_ON_TOKEN,
            AssignTrigger::PreOrder => metric::COPIED_ON_PREORDER,
        }
    }
}

impl NeState {
    /// Intake from this node's own multicast source. The source is local and
    /// reliable, so local sequence numbers arrive contiguously.
    pub(crate) fn on_source_data(
        &mut self,
        _now: SimTime,
        ls: LocalSeq,
        payload: PayloadId,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let resync = std::mem::take(&mut self.resync_source);
        let fenced = self.is_partition_fenced();
        let (Some(ord), Some(wq)) = (self.ord.as_mut(), self.wq.as_mut()) else {
            return; // only top-ring nodes accept source traffic
        };
        if resync {
            // First own-source message after a crash-restart: local numbers
            // below `ls` were (potentially) assigned global numbers by the
            // pre-crash incarnation; re-baselining `MinLocalSeqNo` keeps
            // every `(source, local_seq)` pair mapped to at most one GSN.
            ord.min_unordered = ls;
        }
        if ls <= ord.max_local {
            self.counters.duplicates += 1;
            return;
        }
        ord.max_local = ls;
        wq.insert(me, ls, payload);
        out.push(Action::Record(ProtoEvent::SourceSend {
            source: me,
            local_seq: ls,
        }));
        if fenced {
            // Minority side of a partitioned ring: the message queues in
            // the WQ unassigned and un-circulated (an unordered entry is
            // never collected) — it is resubmitted for a fresh GSN in the
            // merged epoch (`complete_own_merge`).
            return;
        }
        // Circulate around the ring (stops before returning to us).
        let next = self.ring_next().expect("top-ring node has a ring");
        if next != me {
            out.push(Action::to_ne(
                next,
                Msg::PreOrder {
                    group,
                    corresponding: me,
                    local_seq: ls,
                    payload,
                },
            ));
            self.counters.data_sent += 1;
        }
    }

    /// A pre-order message forwarded from the previous ring node.
    pub(crate) fn on_pre_order(
        &mut self,
        now: SimTime,
        corresponding: NodeId,
        ls: LocalSeq,
        payload: PayloadId,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        let Some(wq) = self.wq.as_mut() else { return };
        if corresponding == me {
            // Full circle: the paper's forwarding rule should have stopped
            // it one hop earlier; drop defensively (can happen transiently
            // after ring repairs).
            return;
        }
        match wq.insert(corresponding, ls, payload) {
            InsertOutcome::Stored => {
                let next = self.ring_next().expect("top-ring node has a ring");
                // Forward "if the next node is not the corresponding node of
                // the message" (§4.2.2 case A).
                if next != corresponding && next != me {
                    out.push(Action::to_ne(
                        next,
                        Msg::PreOrder {
                            group,
                            corresponding,
                            local_seq: ls,
                            payload,
                        },
                    ));
                    self.counters.data_sent += 1;
                }
                // Late or retransmitted: the covering token may have been
                // here already (O(1) when it has not).
                self.order_assign(now, AssignTrigger::PreOrder, out);
            }
            InsertOutcome::Duplicate => self.counters.duplicates += 1,
            InsertOutcome::Stale | InsertOutcome::Overflow => {}
        }
    }

    /// Retransmission request for pre-order entries from the next ring node.
    /// Fence-virtual streams are re-served as [`Msg::FencePreOrder`] (they
    /// carry the original source identity and the funnel stop rule).
    pub(crate) fn on_pre_order_nack(
        &mut self,
        from: Endpoint,
        corresponding: NodeId,
        missing: &[LocalSeq],
        out: &mut Outbox,
    ) {
        let Endpoint::Ne(requester) = from else {
            return;
        };
        let group = self.group;
        let funnel = self.cross_fence.as_ref().map(|cf| cf.funnel);
        let Some(wq) = self.wq.as_ref() else { return };
        for &ls in missing {
            if let Some((payload, origin)) = wq.get_entry(corresponding, ls) {
                let msg = if corresponding.is_fence_virtual() {
                    let Some(funnel) = funnel else { continue };
                    let (origin, origin_seq) =
                        origin.expect("fence-virtual entries carry their origin identity");
                    Msg::FencePreOrder {
                        group,
                        funnel,
                        chan_seq: ls,
                        origin,
                        origin_seq,
                        payload,
                    }
                } else {
                    Msg::PreOrder {
                        group,
                        corresponding,
                        local_seq: ls,
                        payload,
                    }
                };
                out.push(Action::to_ne(requester, msg));
                self.counters.retransmissions += 1;
            }
        }
    }

    /// Create this group's initial ordering token here and start circulating
    /// it. Called once at simulation start on the designated top-ring node.
    pub fn originate_token(&mut self, now: SimTime, out: &mut Outbox) {
        assert!(self.is_top_ring(), "only top-ring nodes originate tokens");
        let token = OrderingToken::new(self.group, self.id);
        let ord = self.ord.as_mut().expect("top-ring node has ordering state");
        ord.fence.commit(&token);
        ord.last_token_seen = now;
        self.process_and_forward_token(now, token, out);
    }

    /// Handle an arriving `OrderingToken`.
    pub(crate) fn on_token(
        &mut self,
        now: SimTime,
        from: Endpoint,
        token: OrderingToken,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        if self.is_rejoining() || self.is_partition_fenced() {
            // Not spliced in (rejoining) or fenced on the minority side of
            // a partition: this copy could equally be the live pass racing
            // our RejoinGrant or a stale (pre-crash / pre-partition)
            // retransmission — and the fence cannot tell them apart until
            // a grant seeds it (processing a stale copy would fork a
            // second live token; a minority-side pass extending the old
            // lineage is the split brain itself). Ignore it *without*
            // acknowledging: a live sender simply retries after
            // `TOKEN_RETRY_AFTER`, by which time the grant has landed.
            return;
        }
        if self.ord.is_none() {
            return;
        }
        let (epoch, rotation) = (token.epoch, token.rotation);
        self.admit_token(now, token, out);
        // Always acknowledge receipt so the sender stops retransmitting —
        // even a stale instance, which would otherwise be re-sent forever.
        // The ack leaves after the token was processed: on this ring the
        // `MQ` front moves exactly then, so the sender's garbage collection
        // learns of it now and no separate `DataAck` has to follow.
        if let Endpoint::Ne(sender) = from {
            if sender != me {
                let upto = self.mq.front();
                let ack = Msg::TokenAck {
                    group,
                    epoch,
                    rotation,
                    upto,
                };
                self.send_control(from, ack, out);
                self.note_told(now, sender, upto);
            }
        }
    }

    /// Pass an arrived token through the epoch fence and, when it is the
    /// live pass, process and forward it.
    fn admit_token(&mut self, now: SimTime, token: OrderingToken, out: &mut Outbox) {
        let me = self.id;
        let ord = self.ord.as_mut().expect("checked by on_token");
        // The ring-epoch fence owns both the Multiple-Token keep-one rule
        // and duplicate-transfer suppression (a retransmission of a pass
        // we already processed must be re-acked but never re-processed —
        // that would fork a second live token).
        match ord.fence.admit(&token) {
            crate::ring_epoch::TokenAdmission::Stale => {
                out.push(Action::Record(ProtoEvent::TokenDestroyed {
                    node: me,
                    epoch: token.epoch,
                }));
                self.telemetry
                    .count(crate::telemetry::metric::STALE_TOKENS_DESTROYED);
                return;
            }
            crate::ring_epoch::TokenAdmission::DuplicatePass => return,
            crate::ring_epoch::TokenAdmission::Admit => {}
        }
        // Forced-token-loss fault injection: a single armed drop swallows
        // the live token of the epoch current at arming time (acked all the
        // same, so the sender will not retransmit — the instance is simply gone
        // and Token-Regeneration must recover). A token from a *newer*
        // epoch means the drop opportunity has passed; disarm and process.
        if let Some(armed) = ord.drop_armed.take() {
            if crate::ring_epoch::arm_covers(armed, token.epoch) {
                out.push(Action::Record(ProtoEvent::TokenDropped {
                    node: me,
                    epoch: token.epoch,
                }));
                return;
            }
        }
        ord.fence.commit(&token);
        ord.last_token_seen = now;
        ord.regen_ceded = false; // ordering works again; any cede is stale
        self.process_and_forward_token(now, token, out);
    }

    /// Core of Message-Ordering: assign a range to own pending messages,
    /// snapshot, and reliably transfer to the next node.
    pub(crate) fn process_and_forward_token(
        &mut self,
        now: SimTime,
        mut token: OrderingToken,
        out: &mut Outbox,
    ) {
        let me = self.id;
        // Holding the token is the one moment this node owns the GSN
        // stream exclusively: splice any restarted members waiting to
        // rejoin *now*, so the re-entry can never interleave with a
        // concurrent assignment elsewhere (re-entry at a token boundary).
        if !self.pending_rejoins.is_empty() {
            let pass = Some(token.pass_id());
            let pending = std::mem::take(&mut self.pending_rejoins);
            for member in pending {
                // A member that crashed *again* while queued (a RingFail
                // moved it back to Excised) must not be resurrected; its
                // next restart sends a fresh request.
                let still_rejoining = self.ring.as_ref().is_some_and(|r| {
                    r.state_of(member) == crate::ring_lifecycle::MemberState::Rejoining
                });
                if still_rejoining {
                    self.grant_rejoin(now, member, pass, out);
                }
            }
        }
        // The ring leader marks each completed rotation; WTSNP pruning keys
        // off this counter.
        if self.is_ring_leader() {
            token.complete_rotation();
        }
        let group = self.group;
        let ord = self.ord.as_mut().expect("ordering state");
        // Pre-assign global numbers to every ready-to-be-ordered message
        // from our own source (Holder.MinLocalSeqNo ..= Holder.MaxLocalSeqNo).
        if ord.min_unordered <= ord.max_local && ord.max_local.is_valid() {
            let range = LocalRange::new(ord.min_unordered, ord.max_local);
            let min_gs = token.assign(me, me, range);
            for (i, ls) in range.iter().enumerate() {
                out.push(Action::Record(ProtoEvent::Ordered {
                    group,
                    node: me,
                    source: me,
                    local_seq: ls,
                    gsn: min_gs.advance(i as u64),
                }));
            }
            ord.min_unordered = ord.max_local.next();
            let batch = range.len();
            self.telemetry.gsn_assigned(now, min_gs, batch);
        }
        // The group's fence funnel assigns the cross-group stream the same
        // way, under its virtual source identity (no-op on single-group
        // runs and on every non-funnel node — see `crate::fence`).
        self.fence_assign_on_token(now, &mut token, out);
        // Keep the two most recent token versions (§4.1). The snapshot
        // retiring from `old_token` is recycled as the new snapshot's
        // buffer (`copy_from`), so steady-state rotation takes no
        // allocation here.
        let ord = self.ord.as_mut().expect("ordering state");
        let mut snapshot = std::mem::replace(&mut ord.old_token, ord.new_token.take());
        match snapshot.as_mut() {
            Some(s) => s.copy_from(&token),
            // ringlint: allow(hot-clone) — audited: cold path, runs once per node
            // lifetime (first pass with no retired snapshot to recycle); the steady
            // state reuses the retired snapshot's buffers via copy_from above.
            None => snapshot = Some(token.clone()),
        }
        ord.new_token = snapshot;
        out.push(Action::Record(ProtoEvent::TokenPass {
            group,
            node: me,
            rotation: token.rotation,
            epoch: token.epoch,
            next_gsn: token.next_gsn,
        }));
        self.telemetry.token_pass(now);
        // Order-Assignment runs now, on the snapshot just installed: the
        // ranges other nodes assigned since our last hold and the ranges
        // assigned above enter MQ in one GSN-ordered pass (copying our own,
        // higher, range first would open a gap the hop tick NACKs). That
        // the assigner copies at once is also the robustness anchor of the
        // pipeline: even if the token rotates so fast that WTSNP entries
        // are pruned before a late pre-order reaches some other node, the
        // assigner's MQ retains every message, from where ring-level NACK
        // repair can fetch it.
        self.order_assign(now, AssignTrigger::Token, out);
        // Reliable transfer to the next node.
        let next = self.ring_next().expect("top-ring node has a ring");
        let ord = self.ord.as_mut().expect("ordering state");
        if next != me {
            ord.inflight = Some(InflightToken {
                // ringlint: allow(hot-clone) — audited: one clone per token *pass*
                // (not per delivery): the retransmission buffer must retain the
                // token while the wire copy moves into Msg::Token below.
                token: token.clone(),
                to: next,
                sent_at: now,
                attempts: 1,
            });
            self.send_control(Endpoint::Ne(next), Msg::Token(Box::new(token)), out);
        } else {
            // Sole survivor: the token stays local; the hop tick re-processes
            // it so ordering keeps making progress.
            ord.inflight = None;
        }
    }

    /// Token-transfer acknowledgement from the next node, carrying its
    /// `MQ` front: whichever pass it acknowledges (a stale or duplicate
    /// copy is acked too), the front is the next node's cumulative ACK.
    /// The ack of a transfer sent once, since the last heartbeat tick, also
    /// answers the liveness probe to the next node (see
    /// [`crate::membership`]); a retried transfer's ack may be for a copy
    /// sent before the tick.
    pub(crate) fn on_token_ack(
        &mut self,
        now: SimTime,
        from: Endpoint,
        epoch: Epoch,
        rotation: u64,
        upto: GlobalSeq,
        out: &mut Outbox,
    ) {
        let Some(ord) = self.ord.as_mut() else { return };
        let Endpoint::Ne(sender) = from else { return };
        let mut answered = false;
        if let Some(inf) = &ord.inflight {
            if inf.to == sender
                && crate::ring_epoch::ack_matches_pass(inf.token.pass_id(), epoch, rotation)
            {
                answered = inf.attempts == 1
                    && self
                        .ring
                        .as_ref()
                        .is_some_and(|r| inf.sent_at >= r.hb_tick_at);
                ord.inflight = None;
            }
        }
        if answered {
            self.next_answered(sender, true);
        }
        self.on_data_ack(now, from, upto, out);
    }

    /// The Order-Assignment algorithm: copy every `WQ` message covered by
    /// a kept token snapshot into `MQ` under its global number, in GSN
    /// order, then deliver what that made deliverable.
    ///
    /// Only entries above the `assigned_through` watermark are walked; the
    /// watermark then moves up to the first entry still waiting for a
    /// pre-order, or to the newest snapshot's last assigned number.
    pub(crate) fn order_assign(&mut self, now: SimTime, trigger: AssignTrigger, out: &mut Outbox) {
        let Some(ord) = self.ord.as_mut() else { return };
        let Some(newest) = ord.new_token.as_ref() else {
            return;
        };
        let through = ord.assigned_through;
        if through.next() >= newest.next_gsn {
            return; // everything any kept snapshot assigned is settled
        }
        // WTSNP is in GSN order and pruned from the front, so what the old
        // snapshot adds to the new one is a run of older entries: the two
        // concatenate into one GSN-ordered view, no merge needed.
        let new_entries = newest.entries();
        let old_entries = ord.old_token.as_ref().map_or(&[][..], |t| t.entries());
        let old_entries = match new_entries.first() {
            Some(first) => &old_entries[..old_entries.partition_point(|e| e.min_gs < first.min_gs)],
            None => old_entries,
        };
        let wq = self.wq.as_mut().expect("top-ring node has a WQ");
        let mq = &mut self.mq;
        let mut copied = 0u64;
        let mut waiting_from = None;
        for e in old_entries
            .iter()
            .chain(new_entries)
            .skip_while(|e| e.max_gs() <= through)
        {
            let settled = wq.take_orderable_with(
                e.ordering_node,
                e.source,
                e.local,
                e.min_gs,
                |gsn, data| {
                    copied += 1;
                    mq.insert(gsn, data);
                },
            );
            if !settled && waiting_from.is_none() {
                waiting_from = Some(e.min_gs);
            }
        }
        ord.assigned_through = waiting_from.unwrap_or(newest.next_gsn).prev().max(through);
        if copied > 0 {
            self.telemetry.count_n(trigger.metric(), copied);
            self.drive_delivery(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::GroupId;
    use crate::node::NeState;

    const G: GroupId = GroupId(1);

    fn top_ring() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    fn br(id: u32) -> NeState {
        NeState::new_br(G, NodeId(id), top_ring(), true, ProtocolConfig::default())
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
    fn source_data_enters_wq_and_circulates() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(7), &mut out);
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(1), "forwarded to next ring node");
        assert!(matches!(
            sends[0].1,
            Msg::PreOrder {
                corresponding: NodeId(0),
                local_seq: LocalSeq(1),
                ..
            }
        ));
        let stored = n.wq.as_ref().unwrap().get(NodeId(0), LocalSeq(1));
        assert_eq!(stored, Some(PayloadId(7)));
        // Duplicate local sequence number ignored.
        out.clear();
        n.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(7), &mut out);
        assert!(out.is_empty());
        assert_eq!(n.counters.duplicates, 1);
    }

    #[test]
    fn pre_order_forwarding_stops_before_corresponding_node() {
        // Node 2's next is node 0; a PreOrder whose corresponding node is 0
        // must NOT be forwarded by node 2.
        let mut n2 = br(2);
        let mut out = Vec::new();
        n2.on_pre_order(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            &mut out,
        );
        assert!(sends_of(&out).is_empty(), "stops at the node before origin");
        let stored = n2.wq.as_ref().unwrap().get(NodeId(0), LocalSeq(1));
        assert_eq!(stored, Some(PayloadId(1)));

        // Node 1's next is node 2 ≠ corresponding 0 → forwards.
        let mut n1 = br(1);
        out.clear();
        n1.on_pre_order(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            &mut out,
        );
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, NodeId(2));
    }

    #[test]
    fn duplicate_pre_order_not_reforwarded() {
        let mut n1 = br(1);
        let mut out = Vec::new();
        n1.on_pre_order(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            &mut out,
        );
        out.clear();
        n1.on_pre_order(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            &mut out,
        );
        assert!(sends_of(&out).is_empty());
        assert_eq!(n1.counters.duplicates, 1);
    }

    #[test]
    fn token_assigns_pending_range_and_forwards() {
        let mut n = br(0);
        let mut out = Vec::new();
        // Two pending own-source messages.
        n.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(1), &mut out);
        n.on_source_data(SimTime::ZERO, LocalSeq(2), PayloadId(2), &mut out);
        out.clear();
        n.originate_token(SimTime::ZERO, &mut out);
        // Ordered records for both messages.
        let ordered: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Record(ProtoEvent::Ordered { gsn, local_seq, .. }) => {
                    Some((*local_seq, *gsn))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            ordered,
            vec![(LocalSeq(1), GlobalSeq(1)), (LocalSeq(2), GlobalSeq(2))]
        );
        // Token forwarded to node 1 with inflight tracking.
        let sends = sends_of(&out);
        assert!(matches!(sends.last().unwrap().1, Msg::Token(_)));
        assert_eq!(sends.last().unwrap().0, NodeId(1));
        let ord = n.ord.as_ref().unwrap();
        assert!(ord.inflight.is_some());
        assert_eq!(ord.new_token.as_ref().unwrap().next_gsn, GlobalSeq(3));
        assert_eq!(ord.min_unordered, LocalSeq(3));
    }

    #[test]
    fn token_ack_clears_inflight() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.originate_token(SimTime::ZERO, &mut out);
        let (epoch, rotation) = {
            let inf = n.ord.as_ref().unwrap().inflight.as_ref().unwrap();
            (inf.token.epoch, inf.token.rotation)
        };
        let acked = |n: &NeState| n.ring.as_ref().unwrap().next_acked_mq;
        // Wrong sender: ignored, the front it carries included.
        let t = SimTime::from_millis(1);
        n.on_token_ack(
            t,
            Endpoint::Ne(NodeId(2)),
            epoch,
            rotation,
            GlobalSeq(4),
            &mut out,
        );
        assert!(n.ord.as_ref().unwrap().inflight.is_some());
        assert_eq!(acked(&n), GlobalSeq::ZERO);
        // The next node's ack clears the transfer and is its cumulative
        // ACK of the ordered stream at the same time.
        n.on_token_ack(
            t,
            Endpoint::Ne(NodeId(1)),
            epoch,
            rotation,
            GlobalSeq(4),
            &mut out,
        );
        assert!(n.ord.as_ref().unwrap().inflight.is_none());
        assert_eq!(acked(&n), GlobalSeq(4));
        // The ack of a stale or duplicate copy matches no transfer, but the
        // front it carries is as good as any (and never regresses).
        n.on_token_ack(
            t,
            Endpoint::Ne(NodeId(1)),
            epoch,
            rotation + 7,
            GlobalSeq(6),
            &mut out,
        );
        n.on_token_ack(
            t,
            Endpoint::Ne(NodeId(1)),
            epoch,
            rotation,
            GlobalSeq(5),
            &mut out,
        );
        assert_eq!(acked(&n), GlobalSeq(6));
    }

    #[test]
    fn token_ack_carries_the_front_as_it_stands_after_the_token() {
        let mut n = br(1);
        let mut out = Vec::new();
        let t0 = SimTime::from_millis(3);
        n.on_pre_order(t0, NodeId(0), LocalSeq(1), PayloadId(1), &mut out);
        out.clear();
        // The token carries node 0's ls1 → gs1: processing it moves the
        // front to 1, and the ack — sent after the token went on — says so.
        n.on_token(t0, Endpoint::Ne(NodeId(0)), token_assigning(1, 1), &mut out);
        let sends = sends_of(&out);
        assert!(matches!(sends[0], (NodeId(2), Msg::Token(_))));
        assert!(matches!(
            sends[1],
            (
                NodeId(0),
                Msg::TokenAck {
                    upto: GlobalSeq(1),
                    ..
                }
            )
        ));
        // The hop tick has nothing to add to that…
        out.clear();
        n.tick_hop(SimTime::from_millis(5), &mut out);
        n.tick_hop(SimTime::from_millis(10), &mut out);
        assert!(sends_of(&out).is_empty(), "{out:?}");
        // …and a retransmitted copy of the pass is acked again, front and
        // all, without being processed again.
        n.on_token(
            SimTime::from_millis(11),
            Endpoint::Ne(NodeId(0)),
            token_assigning(1, 1),
            &mut out,
        );
        let sends = sends_of(&out);
        assert_eq!(sends.len(), 1, "{out:?}");
        assert!(matches!(
            sends[0].1,
            Msg::TokenAck {
                upto: GlobalSeq(1),
                ..
            }
        ));
    }

    #[test]
    fn stale_token_instance_destroyed_but_acked() {
        let mut n = br(1);
        let mut out = Vec::new();
        // Seed best_instance with a newer epoch.
        let mut fresh = OrderingToken::new(G, NodeId(1));
        fresh.epoch = Epoch(3);
        n.on_token(SimTime::ZERO, Endpoint::Ne(NodeId(0)), fresh, &mut out);
        out.clear();
        let stale = OrderingToken::new(G, NodeId(0)); // epoch 0
        n.on_token(
            SimTime::from_millis(1),
            Endpoint::Ne(NodeId(0)),
            stale,
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::TokenDestroyed {
                epoch: Epoch(0),
                ..
            })
        )));
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Msg::TokenAck {
                        epoch: Epoch(0),
                        ..
                    },
                    ..
                }
            )),
            "stale token still acked to silence the sender"
        );
        // And it must not have been forwarded.
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
    }

    #[test]
    fn armed_drop_swallows_live_token_once() {
        let mut n = br(1);
        n.arm_token_drop();
        let mut out = Vec::new();
        let tok = OrderingToken::new(G, NodeId(0));
        n.on_token(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(0)),
            tok.clone(),
            &mut out,
        );
        // Acked (sender must stop retransmitting) but neither processed nor
        // forwarded — the token is gone.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::TokenAck { .. },
                ..
            }
        )));
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Record(ProtoEvent::TokenDropped { .. }))));
        assert!(n.ord.as_ref().unwrap().new_token.is_none());
        // Disarmed: the next (e.g. regenerated) token is processed normally.
        out.clear();
        let mut regen = OrderingToken::new(G, NodeId(0));
        regen.epoch = Epoch(1);
        n.on_token(
            SimTime::from_millis(1),
            Endpoint::Ne(NodeId(0)),
            regen,
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
    }

    #[test]
    fn armed_drop_lets_newer_epoch_pass() {
        let mut n = br(1);
        n.arm_token_drop(); // armed at epoch 0
        let mut out = Vec::new();
        let mut regen = OrderingToken::new(G, NodeId(0));
        regen.epoch = Epoch(2);
        n.on_token(SimTime::ZERO, Endpoint::Ne(NodeId(0)), regen, &mut out);
        assert!(
            !out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::TokenDropped { .. }))),
            "newer epoch means the drop window passed"
        );
        assert!(n.ord.as_ref().unwrap().drop_armed.is_none(), "disarmed");
    }

    /// Node 1 of the 0→1→2 ring with a telemetry registry, so the tests can
    /// see which trigger made each copy.
    fn observed_br1() -> NeState {
        let cfg = ProtocolConfig {
            telemetry: true,
            ..ProtocolConfig::default()
        };
        NeState::new_br(G, NodeId(1), top_ring(), true, cfg)
    }

    fn copies(n: &NeState, trigger: AssignTrigger) -> u64 {
        let dump = n.telemetry.dump().expect("telemetry is on");
        dump.metrics.counter(trigger.metric())
    }

    /// A token from node 0 whose WTSNP maps node 0's `ls` range to GSN 1...
    fn token_assigning(first: u64, last: u64) -> OrderingToken {
        let mut t = OrderingToken::new(G, NodeId(0));
        t.assign(
            NodeId(0),
            NodeId(0),
            LocalRange::new(LocalSeq(first), LocalSeq(last)),
        );
        t
    }

    #[test]
    fn assigner_copies_its_own_range_at_the_token_hold() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(11), &mut out);
        n.originate_token(SimTime::ZERO, &mut out);
        assert_eq!(n.mq.front(), GlobalSeq(1), "copied and delivered at once");
        let d = n.mq.get(GlobalSeq(1)).unwrap();
        assert_eq!(d.payload, PayloadId(11));
        assert_eq!(d.ordering_node, NodeId(0));
        assert_eq!(n.ord.as_ref().unwrap().assigned_through, GlobalSeq(1));
    }

    #[test]
    fn token_arrival_copies_predecessors_range_at_the_same_instant() {
        let mut n = observed_br1();
        let mut out = Vec::new();
        let t0 = SimTime::from_millis(3);
        n.on_pre_order(t0, NodeId(0), LocalSeq(1), PayloadId(1), &mut out);
        n.on_source_data(t0, LocalSeq(1), PayloadId(2), &mut out);
        assert_eq!(n.mq.rear(), GlobalSeq::ZERO, "nothing is ordered yet");
        // The token carries node 0's ls1 → gs1; node 1 adds its own → gs2.
        n.on_token(t0, Endpoint::Ne(NodeId(0)), token_assigning(1, 1), &mut out);
        assert_eq!(n.mq.front(), GlobalSeq(2), "both ranges, in GSN order");
        assert_eq!(n.mq.get(GlobalSeq(1)).unwrap().source, NodeId(0));
        assert_eq!(n.mq.get(GlobalSeq(2)).unwrap().source, NodeId(1));
        assert_eq!(copies(&n, AssignTrigger::Token), 2);
        assert_eq!(n.ord.as_ref().unwrap().assigned_through, GlobalSeq(2));
    }

    #[test]
    fn pre_order_arriving_after_its_token_is_copied_on_arrival() {
        let mut n = observed_br1();
        let mut out = Vec::new();
        let t0 = SimTime::from_millis(3);
        // ls1 is here, ls2 was overtaken by the token that covers both.
        n.on_pre_order(t0, NodeId(0), LocalSeq(1), PayloadId(1), &mut out);
        n.on_token(t0, Endpoint::Ne(NodeId(0)), token_assigning(1, 2), &mut out);
        assert_eq!(n.mq.front(), GlobalSeq(1));
        assert_eq!(
            n.ord.as_ref().unwrap().assigned_through,
            GlobalSeq::ZERO,
            "the watermark waits below the unsettled entry"
        );
        n.on_pre_order(t0, NodeId(0), LocalSeq(2), PayloadId(2), &mut out);
        assert_eq!(n.mq.front(), GlobalSeq(2), "copied on arrival");
        assert_eq!(copies(&n, AssignTrigger::Token), 1);
        assert_eq!(copies(&n, AssignTrigger::PreOrder), 1);
        assert_eq!(n.ord.as_ref().unwrap().assigned_through, GlobalSeq(2));
    }

    #[test]
    fn late_pre_order_is_copied_through_the_old_token() {
        let mut n = observed_br1();
        let mut out = Vec::new();
        // Pass 1 carries node 0's ls1 → gs1, but the pre-order is not here.
        n.on_token(
            SimTime::from_millis(5),
            Endpoint::Ne(NodeId(0)),
            token_assigning(1, 1),
            &mut out,
        );
        // Pass 2 (entry pruned from it) pushes pass 1 to OldOrderingToken.
        let mut pass2 = OrderingToken::new(G, NodeId(0));
        pass2.next_gsn = GlobalSeq(2);
        pass2.rotation = 3;
        n.on_token(
            SimTime::from_millis(10),
            Endpoint::Ne(NodeId(0)),
            pass2,
            &mut out,
        );
        let ord = n.ord.as_ref().unwrap();
        assert!(ord.old_token.is_some() && ord.new_token.as_ref().unwrap().wtsnp.is_empty());
        // The repaired pre-order arrives two passes late.
        n.on_pre_order(
            SimTime::from_millis(11),
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            &mut out,
        );
        assert_eq!(n.mq.front(), GlobalSeq(1), "entry found via old snapshot");
        assert_eq!(copies(&n, AssignTrigger::PreOrder), 1);
    }

    #[test]
    fn non_top_node_ignores_ordering_traffic() {
        let mut ag = NeState::new_ag(
            G,
            NodeId(5),
            vec![NodeId(5), NodeId(6)],
            vec![NodeId(0)],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        ag.on_source_data(SimTime::ZERO, LocalSeq(1), PayloadId(1), &mut out);
        ag.on_pre_order(
            SimTime::ZERO,
            NodeId(0),
            LocalSeq(1),
            PayloadId(1),
            &mut out,
        );
        ag.on_token(
            SimTime::ZERO,
            Endpoint::Ne(NodeId(0)),
            OrderingToken::new(G, NodeId(0)),
            &mut out,
        );
        assert!(out.is_empty());
    }
}
