//! The membership / topology-maintenance protocol (§3).
//!
//! The paper relies on an "underlying membership protocol" whose details it
//! omits; this module is the concrete instance this reproduction builds
//! (DESIGN.md §2). It provides:
//!
//! * **Liveness**: one probe per heartbeat period to the next ring node
//!   and one to the watched node, with a miss budget, each sent only where
//!   traffic has not already answered it.
//!   - *Ring*: the hop's own acknowledged traffic is the probe — the token
//!     transfer on the top ring, the forwarded `Data` on an AG ring. The
//!     first such frame sent to `next` since the last tick asks the tick's
//!     probe (`RingState::ask`). Its acknowledgement answers like a
//!     `HeartbeatAck`: a `TokenAck` for a transfer sent once, or a
//!     `DataAck` whose `upto` covers the frame. The next tick then counts
//!     an *implied* probe instead of sending one. A frame sent after that
//!     tick asks the implied probe: unanswered by the following tick, it
//!     is a miss, though not a suspicion. A period in which nothing went
//!     to `next` asked nothing and missed nothing; its closing tick sends
//!     a real probe. So an idle ring probes every tick. An AG ring's last
//!     member, whose data stops before the leader, does not probe it.
//!   - *Watch*: any frame at all from the watched node answers the probe
//!     to it: the parent, or for the leader's next member on an AG ring
//!     the leader (`NeState::rewatch`), which it then excises when silent.
//!
//!   The ring asks more than the watch does because a frame sent before a
//!   tick but acknowledged after it is stale evidence: counted, it would
//!   excise a dead or cut-off `next` a period late. The acknowledgement of
//!   a frame sent after the tick proves at least what a probe at that tick
//!   would have. Still, a frame tests `next` somewhat later than a probe at
//!   the tick would, and a period without traffic tests nothing, so a
//!   death or a cut close to a tick can be acted on a period earlier or
//!   later than probes alone would act on it; the same holds for a watched
//!   node that dies just after its last frame. Downstreams are tracked by
//!   last-heard times: children by their ACKs and heartbeats, MHs by their
//!   ACKs.
//! * **Ring repair**: a dead next node is bypassed using the statically
//!   configured cycle (Remark 2), the failure is broadcast to the remaining
//!   ring members, and — on the top ring — a Token-Loss message is handed
//!   to the multicast layer, exactly as §4.2.1 prescribes.
//! * **Leader / parent failover**: a non-top ring's new leader grafts onto
//!   a candidate parent; entities whose parent died rotate to the next
//!   configured candidate.
//! * **Ring re-entry**: a restarted BR/AG runs the
//!   `RejoinRequest`/`RejoinGrant` handshake and is spliced back into its
//!   repaired ring (see [`crate::ring_lifecycle`] — every membership
//!   transition in this module goes through that state machine).
//! * **Membership aggregation**: member deltas batch upward along
//!   AP → AG → ring leader → BR → top leader (the "batched update scheme").

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::config::{HEARTBEAT_MISSES, HEARTBEAT_PERIOD, TOKEN_QUIET_AFTER};
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, NodeId};
use crate::msg::Msg;
use crate::node::NeState;

impl NeState {
    /// Answer an NE's liveness probe; refresh the prober's last-heard time
    /// when it is one of our children. MHs do not probe: their acks are
    /// their beacon (see `on_data_ack`).
    pub(crate) fn on_heartbeat(&mut self, now: SimTime, from: Endpoint, out: &mut Outbox) {
        let Endpoint::Ne(n) = from else { return };
        if !self.serves(n) {
            return;
        }
        if self.children.contains_key(&n) {
            self.children.insert(n, now);
        }
        let group = self.group;
        self.send_control(from, Msg::HeartbeatAck { group }, out);
    }

    /// A probe we sent was answered.
    pub(crate) fn on_heartbeat_ack(&mut self, now: SimTime, from: Endpoint, out: &mut Outbox) {
        let Endpoint::Ne(n) = from else { return };
        // An answer from an *excised* peer while we sit fenced on the
        // minority side of a partition is heal evidence: start the merge.
        self.on_heal_evidence(now, from, out);
        self.next_answered(n, false);
    }

    /// `n` answered the probe to our next node, if it still is our next
    /// node: by a `HeartbeatAck`, or `by_traffic`, acknowledging the frame
    /// that asked the implied probe since the last tick.
    pub(crate) fn next_answered(&mut self, n: NodeId, by_traffic: bool) {
        if self.ring_next() != Some(n) {
            return;
        }
        let Some(r) = self.ring.as_mut() else { return };
        r.hb_outstanding = 0;
        if by_traffic {
            r.hb_by_traffic = Some(n);
            r.hb_asked = None;
        }
        if r.state_of(n) == crate::ring_lifecycle::MemberState::Suspected {
            self.telemetry.count(crate::telemetry::metric::HB_REFUTES);
        }
        r.refute(n);
    }

    /// Another ring member announced a bypassed failure.
    pub(crate) fn on_ring_fail(&mut self, now: SimTime, failed: NodeId, out: &mut Outbox) {
        if failed == self.id {
            // A false conviction: a partitioned neighbour declared us dead,
            // but we are processing this message, so we are not. Marking
            // ourselves dead would corrupt our own ring view (up to an
            // empty alive set); ignore the announcement instead.
            return;
        }
        let Some(r) = self.ring.as_mut() else { return };
        r.hold_for_failover(self.id, failed, now);
        if !r.mark_dead(failed) {
            return;
        }
        // Next may have changed.
        r.restart_probes();
        // Topology maintenance ran → hand Token-Loss to the multicast layer
        // (it ignores the signal while ordering runs well).
        if r.is_top {
            self.maybe_start_regen(now, out);
        }
        self.after_ring_change(now, out);
    }

    /// Aggregated membership delta from a downstream subtree.
    pub(crate) fn on_membership_update(&mut self, delta: i64) {
        self.subtree_members += delta;
        self.pending_delta += delta;
    }

    /// Where this entity's batched membership updates go: parent for APs and
    /// ring leaders, ring leader for other ring members, nowhere at the top.
    pub(crate) fn membership_upstream(&self) -> Option<NodeId> {
        match &self.ring {
            Some(r) => {
                let leader = r.leader();
                if leader == self.id {
                    if r.is_top {
                        None // the top leader is the aggregation root
                    } else {
                        self.parent
                    }
                } else {
                    Some(leader)
                }
            }
            None => self.parent,
        }
    }

    /// The periodic heartbeat / liveness / maintenance tick.
    pub fn tick_heartbeat(&mut self, now: SimTime, out: &mut Outbox) {
        if !self.alive {
            return;
        }
        if self.is_rejoining() {
            // Not in the cycle yet: the only periodic duty is retrying the
            // rejoin handshake (rotating static targets until granted).
            self.send_rejoin_request(now, out);
            return;
        }
        if self.is_merging() {
            // Heal evidence arrived: retry the whole-component merge
            // handshake (the same rotating-request machinery) until a
            // grant splices this side back in.
            self.send_rejoin_request(now, out);
            return;
        }
        if self.is_partition_fenced() {
            // Fenced on the minority side: additionally probe one rotating
            // excised peer per tick — the first answered probe is heal
            // evidence. Normal minority-side duties (probing the remaining
            // minority neighbours, serving children) continue below; every
            // GSN-assigning path is gated inside the epoch layer.
            self.tick_partition_probe(out);
        }
        let group = self.group;

        // --- ring neighbour liveness -----------------------------------
        let mut dead = None;
        if let Some(r) = self.ring.as_mut() {
            let last_tick = std::mem::replace(&mut r.hb_tick_at, now);
            let next = r.next_of(self.id);
            let by_traffic = r.hb_by_traffic == Some(next);
            // A frame to `next` since the last tick, still unacknowledged,
            // put the implied probe; without one, nothing was asked.
            let asked = r
                .hb_asked
                .is_some_and(|a| a.to == next && a.sent_at >= last_tick);
            // A lower ring's last member leaves its leader to the leader's
            // next, which watches it (`parent_maintenance`).
            if next != self.id && r.prev_keeps_mq_for(next) {
                if r.hb_outstanding >= HEARTBEAT_MISSES {
                    dead = Some(next);
                } else if by_traffic && r.hb_outstanding == 0 {
                    // Traffic answered since the last tick: it stands in
                    // for this tick's probe.
                    r.hb_outstanding = 1;
                } else {
                    if by_traffic && !asked {
                        // The implied probe asked nothing, so missed
                        // nothing.
                        r.hb_outstanding = 0;
                    }
                    if r.hb_outstanding > 0 && !by_traffic {
                        // The previous probe, a sent one, went unanswered.
                        if r.state_of(next) == crate::ring_lifecycle::MemberState::Active {
                            self.telemetry.count(crate::telemetry::metric::HB_SUSPECTS);
                        }
                        r.suspect(next);
                    }
                    r.hb_by_traffic = None;
                    r.hb_outstanding += 1;
                    self.send_control(Endpoint::Ne(next), Msg::Heartbeat { group }, out);
                }
            }
        }
        if let Some(next) = dead {
            self.excise(now, next, out);
        }

        // --- parent liveness / failover ---------------------------------
        self.parent_maintenance(now, out);

        // --- children / MH staleness -------------------------------------
        self.sweep_stale_downstreams(now, out);

        // --- AP activation upkeep ---------------------------------------
        self.ap_activation_maintenance(now, out);

        // --- batched membership propagation ------------------------------
        self.flush_membership(out);

        // --- self-detected token quiet (staggered fallback) ---------------
        self.token_quiet_fallback(now, out);
    }

    /// Excise a ring member found dead by this entity's own watch — its
    /// next node, or the AG-ring leader it follows — tell the others, and
    /// run what any ring change runs.
    fn excise(&mut self, now: SimTime, failed: NodeId, out: &mut Outbox) {
        let (group, me) = (self.group, self.id);
        let Some(r) = self.ring.as_mut() else { return };
        let was_next = r.next_of(me) == failed;
        r.hold_for_failover(me, failed, now);
        r.mark_dead(failed);
        let new_next = r.next_of(me);
        r.restart_probes();
        if was_next {
            r.hb_by_traffic = None;
            r.next_acked_mq = crate::ids::GlobalSeq::ZERO;
        }
        out.push(Action::Record(ProtoEvent::RingRepaired {
            node: me,
            failed,
            new_next,
        }));
        let peers: Vec<NodeId> = r.members_in_ring().filter(|&m| m != me).collect();
        // Only a new next that we keep our `MQ` for restates its front to
        // us: a lower ring's leader acks its parent, which forgot nothing.
        let new_prev = was_next && new_next != me && r.prev_keeps_mq_for(new_next);
        for m in peers {
            self.send_control(Endpoint::Ne(m), Msg::RingFail { group, failed }, out);
        }
        if new_prev {
            self.send_control(Endpoint::Ne(new_next), Msg::NewPrev { group }, out);
        }
        self.telemetry.count(crate::telemetry::metric::RING_REPAIRS);
        // Topology maintenance ran → Token-Loss message to the multicast
        // layer (top ring only); an in-flight token goes to the new next.
        if self.is_top_ring() {
            self.maybe_start_regen(now, out);
        }
        self.redirect_inflight_token(now, out);
        self.after_ring_change(now, out);
    }

    /// Re-aim an unacknowledged token transfer after a ring repair. When
    /// the repair left this node outside the primary component the copy is
    /// dropped instead — re-aiming it into the minority loop would keep
    /// the stale lineage circulating on the fenced side.
    fn redirect_inflight_token(&mut self, now: SimTime, out: &mut Outbox) {
        let me = self.id;
        if self.is_partition_fenced() || !self.top_ring_primary() {
            if let Some(ord) = self.ord.as_mut() {
                ord.inflight = None;
            }
            return;
        }
        let Some(r) = self.ring.as_ref() else { return };
        let next = r.next_of(me);
        let Some(ord) = self.ord.as_mut() else { return };
        let Some(inf) = ord.inflight.as_mut() else {
            return;
        };
        if inf.to != next && next != me {
            inf.to = next;
            inf.attempts = 1;
            inf.sent_at = now;
            let token = inf.token.clone();
            self.send_transfer(now, next, token, out);
        }
    }

    /// A ring membership change may have made us leader of a non-top ring
    /// (need a parent) or changed who we deliver to. Also used by the engine
    /// at start-up so ring leaders acquire their initial parent. On the top
    /// ring this is additionally the single point where the epoch layer
    /// re-evaluates the primary-component rule (every excision path funnels
    /// through here).
    pub(crate) fn after_ring_change(&mut self, now: SimTime, out: &mut Outbox) {
        self.check_partition_fence(now, out);
        self.rewatch();
        let Some(r) = self.ring.as_ref() else { return };
        if !r.is_top && r.leader() == self.id && self.parent.is_none() {
            if let Some(&parent) = self.parent_candidates.first() {
                self.parent = Some(parent);
                self.parent_hb_outstanding = 0;
                self.graft_pending = self.ap.is_none();
                self.send_graft(parent, out);
            }
        }
        let _ = now;
    }

    /// Ask `parent` to adopt this entity as a child, resuming the group's
    /// stream after this entity's `MQ` front.
    pub(crate) fn send_graft(&mut self, parent: NodeId, out: &mut Outbox) {
        let graft = Msg::Graft {
            group: self.group,
            child: self.id,
            resume_from: self.mq.front(),
            resync: self.resync_on_graft,
        };
        self.send_control(Endpoint::Ne(parent), graft, out);
    }

    /// Work out whether this entity watches its AG ring's leader: it does
    /// as the leader's next member, which the leader's data reaches first.
    /// A new watch starts with no miss.
    pub(crate) fn rewatch(&mut self) {
        let Some(r) = self.ring.as_ref() else { return };
        let leader = (!r.is_top).then(|| r.leader());
        let watched = leader.filter(|&l| l != self.id && r.prev_of(self.id) == l);
        if self.watched_leader != watched {
            self.watched_leader = watched;
            self.parent_hb_outstanding = 0;
            self.parent_heard = false;
        }
    }

    /// Probe the watched node unless it was heard from since the last
    /// tick. After a miss budget, excise a watched leader, so that this
    /// entity leads and grafts, or rotate to the next parent candidate.
    fn parent_maintenance(&mut self, now: SimTime, out: &mut Outbox) {
        let group = self.group;
        let heard = std::mem::take(&mut self.parent_heard);
        let follows = self.watched_leader.is_some();
        let Some(p) = self.watched_leader.or(self.parent) else {
            // Leaders of non-top rings acquire a parent lazily.
            self.after_ring_change(now, out);
            return;
        };
        if follows && self.parent_hb_outstanding >= HEARTBEAT_MISSES {
            self.excise(now, p, out);
        } else if self.parent_hb_outstanding >= HEARTBEAT_MISSES {
            // Parent is dead: fail over to the next configured candidate.
            let next_candidate = {
                let cands = &self.parent_candidates;
                if cands.is_empty() {
                    None
                } else {
                    let pos = cands.iter().position(|&c| c == p);
                    let idx = pos.map(|i| (i + 1) % cands.len()).unwrap_or(0);
                    Some(cands[idx])
                }
            };
            self.parent_hb_outstanding = 0;
            if let Some(ap) = self.ap.as_mut() {
                ap.grafted = false;
            }
            match next_candidate {
                Some(c) => {
                    self.parent = Some(c);
                    self.graft_pending = self.ap.is_none();
                    self.send_graft(c, out);
                }
                None => self.parent = None,
            }
        } else {
            self.parent_hb_outstanding += 1;
            if !heard {
                self.send_control(Endpoint::Ne(p), Msg::Heartbeat { group }, out);
            }
            // APs that should be active but missed their GraftAck re-graft.
            if self.ap.as_ref().is_some_and(|a| !a.grafted) {
                self.ensure_active_grafted(now, out);
            }
            // Ring leaders likewise retry an unacknowledged graft: the
            // parent may have lost it (down link) while still answering
            // heartbeats — without the retry the leader would believe
            // itself attached while the parent serves it nothing,
            // stranding the leader's whole ring.
            if self.ap.is_none() && self.graft_pending && !follows {
                self.send_graft(p, out);
            }
        }
    }

    /// Drop children and MHs not heard from within the liveness window.
    /// Crucially this unblocks garbage collection pinned by dead downstreams.
    fn sweep_stale_downstreams(&mut self, now: SimTime, out: &mut Outbox) {
        let window = HEARTBEAT_PERIOD * (HEARTBEAT_MISSES as u64 + 1);
        let cutoff = now - window;
        if now.saturating_since(SimTime::ZERO) < window {
            return; // grace period at start-up
        }
        let stale_children: Vec<NodeId> = self
            .children
            .iter()
            .filter(|(_, &t)| t < cutoff)
            .map(|(&c, _)| c)
            .collect();
        for c in stale_children {
            self.children.remove(&c);
            self.wt_children.remove(c);
            out.push(Action::Record(ProtoEvent::Pruned {
                group: self.group,
                parent: self.id,
                child: c,
            }));
        }
        let mut departed = 0;
        if let Some(ap) = self.ap.as_mut() {
            let stale_mhs: Vec<crate::ids::Guid> = ap
                .last_heard
                .iter()
                .filter(|(_, &t)| t < cutoff)
                .map(|(&g, _)| g)
                .collect();
            for g in stale_mhs {
                ap.wt.remove(g);
                ap.last_heard.remove(&g);
                departed += 1;
            }
        }
        if departed > 0 {
            // Members moved away (handoff) or died: propagate the decrement.
            self.pending_delta -= departed;
            self.subtree_members -= departed;
        }
    }

    /// Prune an AP from the tree once it has no members and no reservation.
    fn ap_activation_maintenance(&mut self, now: SimTime, out: &mut Outbox) {
        let group = self.group;
        let me = self.id;
        let parent = self.parent;
        let Some(ap) = self.ap.as_mut() else { return };
        if ap.grafted && !ap.should_be_active(now) {
            ap.grafted = false;
            if let Some(p) = parent {
                self.send_control(Endpoint::Ne(p), Msg::Prune { group, child: me }, out);
            }
        }
    }

    /// Send the batched membership delta upward; the top leader records the
    /// aggregate instead.
    fn flush_membership(&mut self, out: &mut Outbox) {
        if self.pending_delta == 0 {
            return;
        }
        let group = self.group;
        match self.membership_upstream() {
            Some(up) => {
                let update = Msg::MembershipUpdate {
                    group,
                    delta: self.pending_delta,
                };
                self.send_control(Endpoint::Ne(up), update, out);
                self.pending_delta = 0;
            }
            None => {
                // Aggregation root.
                self.pending_delta = 0;
                out.push(Action::Record(ProtoEvent::MembershipCount {
                    group: self.group,
                    node: self.id,
                    members: self.subtree_members,
                }));
            }
        }
    }

    /// Position-staggered self-detection of a quiet token: avoids concurrent
    /// regeneration rounds from several nodes at once.
    fn token_quiet_fallback(&mut self, now: SimTime, out: &mut Outbox) {
        let me = self.id;
        let Some(r) = self.ring.as_ref() else { return };
        if !r.is_top {
            return;
        }
        let position = r
            .order
            .iter()
            .filter(|&&n| r.is_in_ring(n))
            .position(|&n| n == me)
            .unwrap_or(0) as u64;
        let threshold = TOKEN_QUIET_AFTER * (2 + position);
        let Some(ord) = self.ord.as_ref() else { return };
        let ever_saw_token = ord.last_token_seen > SimTime::ZERO || ord.new_token.is_some();
        if ever_saw_token && now.saturating_since(ord.last_token_seen) > threshold {
            self.maybe_start_regen(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::{GlobalSeq, GroupId, Guid};

    const G: GroupId = GroupId(1);

    fn ring() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    fn br(id: u32) -> NeState {
        NeState::new_br(G, NodeId(id), ring(), true, ProtocolConfig::default())
    }

    fn hb_sends(out: &Outbox) -> Vec<NodeId> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(n),
                    msg: Msg::Heartbeat { .. },
                } => Some(*n),
                _ => None,
            })
            .collect()
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// The next node acknowledges the transfer `n` has in flight.
    fn ack_token(n: &mut NeState, at: SimTime) {
        let inf = n.ord.as_ref().unwrap().inflight.as_ref().unwrap();
        let (to, epoch, rotation) = (inf.to, inf.token.epoch, inf.token.rotation);
        n.on_token_ack(
            at,
            Endpoint::Ne(to),
            epoch,
            rotation,
            GlobalSeq::ZERO,
            &mut Vec::new(),
        );
    }

    /// The token comes back to `n` from the previous node, which forwards
    /// it to the next one.
    fn token_returns(n: &mut NeState, at: SimTime) {
        let token = n.ord.as_ref().unwrap().new_token.clone().unwrap();
        let mut out = Vec::new();
        n.on_msg(
            at,
            Endpoint::Ne(NodeId(2)),
            Msg::Token(Box::new(token)),
            &mut out,
        );
        assert!(n.ord.as_ref().unwrap().inflight.is_some(), "forwarded");
    }

    fn outstanding(n: &NeState) -> u8 {
        n.ring.as_ref().unwrap().hb_outstanding
    }

    fn next_state(n: &NeState) -> crate::ring_lifecycle::MemberState {
        n.ring.as_ref().unwrap().state_of(NodeId(1))
    }

    #[test]
    fn heartbeat_is_answered() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.on_heartbeat(SimTime::ZERO, Endpoint::Ne(NodeId(2)), &mut out);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Ne(NodeId(2)),
                msg: Msg::HeartbeatAck { .. }
            }
        ));
    }

    #[test]
    fn tick_probes_next() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.tick_heartbeat(SimTime::from_millis(50), &mut out);
        assert_eq!(hb_sends(&out), vec![NodeId(1)]);
        assert_eq!(n.ring.as_ref().unwrap().hb_outstanding, 1);
        n.on_heartbeat_ack(SimTime::from_millis(51), Endpoint::Ne(NodeId(1)), &mut out);
        assert_eq!(n.ring.as_ref().unwrap().hb_outstanding, 0);
    }

    #[test]
    fn token_answered_period_sends_no_ring_heartbeat() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.tick_heartbeat(ms(50), &mut out);
        assert_eq!(
            hb_sends(&out),
            vec![NodeId(1)],
            "no token yet: a real probe"
        );
        n.on_heartbeat_ack(ms(51), Endpoint::Ne(NodeId(1)), &mut out);
        n.originate_token(ms(60), &mut out);
        ack_token(&mut n, ms(70));
        for t in [100, 150, 200] {
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            assert!(hb_sends(&out).is_empty(), "{t} ms: the token answered");
            assert_eq!(outstanding(&n), 1, "{t} ms: the implied probe counts");
            token_returns(&mut n, ms(t + 10));
            ack_token(&mut n, ms(t + 20));
        }
    }

    #[test]
    fn idle_top_ring_probes_every_tick() {
        let mut n = br(0);
        let mut out = Vec::new();
        for t in [50, 100, 150] {
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            assert_eq!(hb_sends(&out), vec![NodeId(1)], "{t} ms");
            n.on_heartbeat_ack(ms(t + 1), Endpoint::Ne(NodeId(1)), &mut out);
        }
        // One token pass implies the 200 ms probe; the token does not come
        // back before 250 ms, so that tick probes for real, and the implied
        // probe nothing asked is neither a miss nor a suspicion.
        n.originate_token(ms(160), &mut out);
        ack_token(&mut n, ms(170));
        out.clear();
        n.tick_heartbeat(ms(200), &mut out);
        assert!(hb_sends(&out).is_empty());
        out.clear();
        n.tick_heartbeat(ms(250), &mut out);
        assert_eq!(hb_sends(&out), vec![NodeId(1)]);
        assert_eq!(outstanding(&n), 1);
        assert_eq!(next_state(&n), crate::ring_lifecycle::MemberState::Active);
    }

    #[test]
    fn unanswered_implied_probe_is_a_miss_but_no_suspicion() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.originate_token(ms(10), &mut out);
        ack_token(&mut n, ms(20));
        n.tick_heartbeat(ms(50), &mut out);
        // The 60 ms transfer asks the implied probe; nothing answers it.
        token_returns(&mut n, ms(60));
        out.clear();
        n.tick_heartbeat(ms(100), &mut out);
        assert_eq!(
            hb_sends(&out),
            vec![NodeId(1)],
            "silence draws a real probe"
        );
        assert_eq!(outstanding(&n), 2, "the implied probe was missed");
        assert_eq!(next_state(&n), crate::ring_lifecycle::MemberState::Active);
        out.clear();
        n.tick_heartbeat(ms(150), &mut out);
        assert_eq!(
            next_state(&n),
            crate::ring_lifecycle::MemberState::Suspected
        );
        out.clear();
        n.tick_heartbeat(ms(200), &mut out);
        assert_eq!(
            n.ring_next(),
            Some(NodeId(2)),
            "excised three periods after the implied probe, as sent probes would"
        );
    }

    #[test]
    fn token_ack_for_a_transfer_sent_before_the_tick_answers_nothing() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.originate_token(ms(45), &mut out);
        n.tick_heartbeat(ms(50), &mut out);
        ack_token(&mut n, ms(55));
        assert_eq!(outstanding(&n), 1, "stale evidence");
        out.clear();
        n.tick_heartbeat(ms(100), &mut out);
        assert_eq!(hb_sends(&out), vec![NodeId(1)]);
        assert_eq!(
            next_state(&n),
            crate::ring_lifecycle::MemberState::Suspected
        );
    }

    /// AG `id` of the AG ring 10-20-30-40 (leader 10), after the ring
    /// change that works out its watch. AG 30, neither the leader's next
    /// nor the last member, forwards every ordered message to 40 and
    /// probes 40.
    fn ag(id: u32) -> NeState {
        let ring = vec![NodeId(10), NodeId(20), NodeId(30), NodeId(40)];
        let mut n = NeState::new_ag(G, NodeId(id), ring, vec![], ProtocolConfig::default());
        n.after_ring_change(SimTime::ZERO, &mut Vec::new());
        n
    }

    /// Message `gsn` arrives from 20 and 30 forwards it to 40.
    fn forward(n: &mut NeState, gsn: u64, at: SimTime) {
        let data = crate::mq::MsgData {
            source: NodeId(0),
            local_seq: crate::ids::LocalSeq(gsn),
            ordering_node: NodeId(0),
            payload: crate::ids::PayloadId(gsn),
        };
        n.on_data(
            at,
            Endpoint::Ne(NodeId(20)),
            GlobalSeq(gsn),
            data,
            &mut Vec::new(),
        );
    }

    /// 40 acknowledges everything up to `upto`.
    fn ack_data(n: &mut NeState, upto: u64, at: SimTime) {
        n.on_data_ack(
            at,
            Endpoint::Ne(NodeId(40)),
            GlobalSeq(upto),
            &mut Vec::new(),
        );
    }

    fn ag_next_state(n: &NeState) -> crate::ring_lifecycle::MemberState {
        n.ring.as_ref().unwrap().state_of(NodeId(40))
    }

    #[test]
    fn data_answered_period_sends_no_ag_ring_heartbeat() {
        let mut n = ag(30);
        let mut out = Vec::new();
        n.tick_heartbeat(ms(50), &mut out);
        assert_eq!(
            hb_sends(&out),
            vec![NodeId(40)],
            "no data yet: a real probe"
        );
        n.on_heartbeat_ack(ms(51), Endpoint::Ne(NodeId(40)), &mut out);
        forward(&mut n, 1, ms(60));
        ack_data(&mut n, 1, ms(70));
        for (gsn, t) in [(2, 100), (3, 150), (4, 200)] {
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            assert!(hb_sends(&out).is_empty(), "{t} ms: the data answered");
            assert_eq!(outstanding(&n), 1, "{t} ms: the implied probe counts");
            forward(&mut n, gsn, ms(t + 10));
            ack_data(&mut n, gsn, ms(t + 20));
        }
    }

    #[test]
    fn idle_ag_ring_probes_every_tick() {
        let mut n = ag(30);
        let mut out = Vec::new();
        for t in [50, 100, 150] {
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            assert_eq!(hb_sends(&out), vec![NodeId(40)], "{t} ms");
            n.on_heartbeat_ack(ms(t + 1), Endpoint::Ne(NodeId(40)), &mut out);
        }
        // One acknowledged frame implies the 200 ms probe; nothing is
        // forwarded after it, so the 250 ms tick probes for real, and the
        // implied probe nothing asked is neither a miss nor a suspicion.
        forward(&mut n, 1, ms(160));
        ack_data(&mut n, 1, ms(170));
        out.clear();
        n.tick_heartbeat(ms(200), &mut out);
        assert!(hb_sends(&out).is_empty());
        out.clear();
        n.tick_heartbeat(ms(250), &mut out);
        assert_eq!(hb_sends(&out), vec![NodeId(40)]);
        assert_eq!(outstanding(&n), 1);
        assert_eq!(
            ag_next_state(&n),
            crate::ring_lifecycle::MemberState::Active
        );
    }

    #[test]
    fn unanswered_implied_ag_ring_probe_is_a_miss_but_no_suspicion() {
        let mut n = ag(30);
        let mut out = Vec::new();
        forward(&mut n, 1, ms(10));
        ack_data(&mut n, 1, ms(20));
        n.tick_heartbeat(ms(50), &mut out);
        // The 60 ms frame asks the implied probe; nothing answers it.
        forward(&mut n, 2, ms(60));
        out.clear();
        n.tick_heartbeat(ms(100), &mut out);
        assert_eq!(
            hb_sends(&out),
            vec![NodeId(40)],
            "silence draws a real probe"
        );
        assert_eq!(outstanding(&n), 2, "the implied probe was missed");
        assert_eq!(
            ag_next_state(&n),
            crate::ring_lifecycle::MemberState::Active
        );
        out.clear();
        n.tick_heartbeat(ms(150), &mut out);
        assert_eq!(
            ag_next_state(&n),
            crate::ring_lifecycle::MemberState::Suspected
        );
        out.clear();
        n.tick_heartbeat(ms(200), &mut out);
        assert_eq!(
            n.ring_next(),
            Some(NodeId(10)),
            "excised three periods after the implied probe, as sent probes would"
        );
    }

    #[test]
    fn data_ack_for_a_frame_sent_before_the_tick_answers_nothing() {
        let mut n = ag(30);
        let mut out = Vec::new();
        forward(&mut n, 1, ms(45));
        n.tick_heartbeat(ms(50), &mut out);
        ack_data(&mut n, 1, ms(55));
        assert_eq!(outstanding(&n), 1, "stale evidence");
        // A later frame's ack answers only once it covers that frame.
        forward(&mut n, 2, ms(60));
        ack_data(&mut n, 1, ms(65));
        assert_eq!(outstanding(&n), 1, "the ack falls short of the frame");
        out.clear();
        n.tick_heartbeat(ms(100), &mut out);
        assert_eq!(hb_sends(&out), vec![NodeId(40)]);
        assert_eq!(
            ag_next_state(&n),
            crate::ring_lifecycle::MemberState::Suspected
        );
    }

    /// A frame from the leader 10 reaches `n` at `at`.
    fn leader_frame(n: &mut NeState, at: SimTime) {
        let ack = Msg::HeartbeatAck { group: G };
        n.on_msg(at, Endpoint::Ne(NodeId(10)), ack, &mut Vec::new());
    }

    #[test]
    fn last_member_sends_its_leader_no_probe() {
        let mut n = ag(40);
        let mut out = Vec::new();
        for k in 1..=2 * HEARTBEAT_MISSES as u64 {
            n.tick_heartbeat(ms(50 * k), &mut out);
        }
        assert_eq!(hb_sends(&out), vec![], "{out:?}");
        assert_eq!(n.ring_next(), Some(NodeId(10)), "never excised");
    }

    #[test]
    fn leader_heard_within_a_period_draws_no_probe() {
        let mut n = ag(20);
        let mut out = Vec::new();
        n.tick_heartbeat(ms(50), &mut out);
        assert_eq!(hb_sends(&out), vec![NodeId(30), NodeId(10)], "unheard");
        n.on_heartbeat_ack(ms(51), Endpoint::Ne(NodeId(30)), &mut out);
        for t in [100, 150, 200, 250] {
            leader_frame(&mut n, ms(t - 10));
            n.on_heartbeat_ack(ms(t - 5), Endpoint::Ne(NodeId(30)), &mut out);
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            assert_eq!(hb_sends(&out), vec![NodeId(30)], "{t} ms");
            assert_eq!(n.parent_hb_outstanding, 1, "{t} ms: the frame answered");
        }
    }

    #[test]
    fn silent_leader_is_excised_by_its_next_after_the_miss_budget() {
        let ring = vec![NodeId(10), NodeId(20), NodeId(30), NodeId(40)];
        let cfg = ProtocolConfig::default();
        let mut n = NeState::new_ag(G, NodeId(20), ring, vec![NodeId(1)], cfg);
        let mut out = Vec::new();
        n.after_ring_change(SimTime::ZERO, &mut out);
        leader_frame(&mut n, ms(40));
        let mut t = 50;
        for _ in 0..HEARTBEAT_MISSES {
            // 30 answers; the leader has fallen silent.
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            n.on_heartbeat_ack(ms(t + 1), Endpoint::Ne(NodeId(30)), &mut Vec::new());
            assert_eq!(n.ring_leader(), Some(NodeId(10)), "{t} ms");
            t += 50;
        }
        assert_eq!(t, 50 + 50 * HEARTBEAT_MISSES as u64);
        out.clear();
        n.tick_heartbeat(ms(t), &mut out);
        assert_eq!(n.ring_leader(), Some(NodeId(20)), "excised at {t} ms");
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::RingRepaired {
                node: NodeId(20),
                failed: NodeId(10),
                new_next: NodeId(30),
            })
        )));
        let sends: Vec<(NodeId, &Msg)> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(to),
                    msg,
                } if !matches!(msg, Msg::Heartbeat { .. }) => Some((*to, msg)),
                _ => None,
            })
            .collect();
        let fail = |m: &Msg| {
            matches!(
                m,
                Msg::RingFail {
                    failed: NodeId(10),
                    ..
                }
            )
        };
        let graft = |m: &Msg| {
            matches!(
                m,
                Msg::Graft {
                    child: NodeId(20),
                    ..
                }
            )
        };
        assert!(
            matches!(sends[..], [(NodeId(30), a), (NodeId(40), b), (NodeId(1), c)]
                if fail(a) && fail(b) && graft(c)),
            "the others hear of it, no `NewPrev`, and 20 grafts: {sends:?}"
        );
        assert_eq!(n.parent, Some(NodeId(1)));
    }

    #[test]
    fn missed_heartbeats_trigger_ring_repair() {
        let mut n = br(0);
        let mut out = Vec::new();
        for i in 0..=HEARTBEAT_MISSES as u64 {
            out.clear();
            n.tick_heartbeat(SimTime::from_millis(50 * (i + 1)), &mut out);
        }
        // Node 1 declared dead, next is now node 2, failure broadcast.
        assert_eq!(n.ring_next(), Some(NodeId(2)));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::RingRepaired {
                failed: NodeId(1),
                new_next: NodeId(2),
                ..
            })
        )));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(2)),
                msg: Msg::RingFail {
                    failed: NodeId(1),
                    ..
                }
            }
        )));
    }

    #[test]
    fn false_self_conviction_is_ignored() {
        let mut n = br(1);
        let mut out = Vec::new();
        n.on_ring_fail(SimTime::from_secs(1), NodeId(1), &mut out);
        assert!(out.is_empty());
        assert!(
            n.ring.as_ref().unwrap().is_in_ring(NodeId(1)),
            "a live node never marks itself dead"
        );
    }

    #[test]
    fn ring_fail_broadcast_updates_view() {
        let mut n = br(2);
        let mut out = Vec::new();
        assert_eq!(n.ring_next(), Some(NodeId(0)));
        n.on_ring_fail(SimTime::from_secs(1), NodeId(0), &mut out);
        assert_eq!(n.ring_next(), Some(NodeId(1)));
        assert_eq!(n.ring_leader(), Some(NodeId(1)));
        // Duplicate announcement is a no-op.
        out.clear();
        n.on_ring_fail(SimTime::from_secs(1), NodeId(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn new_nontop_leader_grafts_to_parent() {
        let mut n = NeState::new_ag(
            G,
            NodeId(20),
            vec![NodeId(10), NodeId(20), NodeId(30)],
            vec![NodeId(1), NodeId(2)],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        // Leader 10 dies.
        n.on_ring_fail(SimTime::from_secs(1), NodeId(10), &mut out);
        assert_eq!(n.ring_leader(), Some(NodeId(20)));
        assert_eq!(n.parent, Some(NodeId(1)));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(1)),
                msg: Msg::Graft {
                    child: NodeId(20),
                    ..
                }
            }
        )));
    }

    #[test]
    fn parent_failover_rotates_candidates() {
        let mut n = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20), NodeId(21)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        n.parent = Some(NodeId(20));
        let mut out = Vec::new();
        for i in 0..=HEARTBEAT_MISSES as u64 {
            out.clear();
            n.tick_heartbeat(SimTime::from_millis(50 * (i + 1)), &mut out);
        }
        assert_eq!(n.parent, Some(NodeId(21)), "rotated to the next candidate");
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(21)),
                msg: Msg::Graft { .. }
            }
        )));
    }

    #[test]
    fn parent_traffic_answers_the_parent_probe() {
        let mut n = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20), NodeId(21)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        n.parent = Some(NodeId(20));
        let to_parent = |out: &Outbox| {
            out.iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Send {
                            to: Endpoint::Ne(NodeId(20)),
                            msg: Msg::Heartbeat { .. }
                        }
                    )
                })
                .count()
        };
        let data = Msg::Data {
            group: G,
            gsn: GlobalSeq(1),
            data: crate::mq::MsgData {
                source: NodeId(0),
                local_seq: crate::ids::LocalSeq(1),
                ordering_node: NodeId(0),
                payload: crate::ids::PayloadId(1),
            },
        };
        let mut out = Vec::new();
        n.on_msg(ms(40), Endpoint::Ne(NodeId(20)), data, &mut out);
        out.clear();
        n.tick_heartbeat(ms(50), &mut out);
        assert_eq!(to_parent(&out), 0, "the parent's data answered");
        // Silent from here on: probes resume, and the failover comes after
        // `HEARTBEAT_MISSES` silent periods, as it does after an answered
        // probe.
        let mut t = 50;
        for _ in 0..HEARTBEAT_MISSES - 1 {
            t += 50;
            out.clear();
            n.tick_heartbeat(ms(t), &mut out);
            assert_eq!(to_parent(&out), 1, "{t} ms");
            assert_eq!(n.parent, Some(NodeId(20)), "{t} ms");
        }
        n.tick_heartbeat(ms(t + 50), &mut out);
        assert_eq!(t + 50, 50 + 50 * HEARTBEAT_MISSES as u64);
        assert_eq!(n.parent, Some(NodeId(21)), "failed over");
    }

    #[test]
    fn ring_leader_retries_unacknowledged_graft() {
        // A leader's Graft can be lost (administratively-down link) while
        // the parent still answers heartbeats: without a retry the leader
        // believes itself attached while the parent serves it nothing,
        // stranding its whole ring (found by the partition soak).
        let mut n = NeState::new_ag(
            G,
            NodeId(10),
            vec![NodeId(10), NodeId(20)],
            vec![NodeId(1)],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n.after_ring_change(SimTime::ZERO, &mut out); // leader grafts
        assert_eq!(n.parent, Some(NodeId(1)));
        assert!(n.graft_pending);
        // The graft was lost; every heartbeat tick re-sends it.
        out.clear();
        n.tick_heartbeat(SimTime::from_millis(50), &mut out);
        let grafts = |out: &Outbox| {
            out.iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Send {
                            to: Endpoint::Ne(NodeId(1)),
                            msg: Msg::Graft { .. }
                        }
                    )
                })
                .count()
        };
        assert_eq!(grafts(&out), 1, "unacknowledged graft is retried");
        // The ack stops the retries.
        n.on_graft_ack(
            SimTime::from_millis(51),
            Endpoint::Ne(NodeId(1)),
            crate::ids::GlobalSeq::ZERO,
        );
        assert!(!n.graft_pending);
        out.clear();
        n.tick_heartbeat(SimTime::from_millis(100), &mut out);
        assert_eq!(grafts(&out), 0, "acknowledged graft is not re-sent");
    }

    #[test]
    fn stale_children_are_swept_and_gc_unblocked() {
        let mut n = br(0);
        let window_end = SimTime::from_secs(10);
        n.children.insert(NodeId(50), SimTime::ZERO);
        n.wt_children.register(NodeId(50), GlobalSeq::ZERO);
        let mut out = Vec::new();
        n.tick_heartbeat(window_end, &mut out);
        assert!(n.children.is_empty());
        assert!(n.wt_children.is_empty());
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::Pruned {
                child: NodeId(50),
                ..
            })
        )));
    }

    #[test]
    fn stale_mhs_decrement_membership() {
        let mut n = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n.on_join(SimTime::ZERO, Guid(1), &mut out);
        assert_eq!(n.subtree_members, 1);
        out.clear();
        n.tick_heartbeat(SimTime::from_secs(10), &mut out);
        assert_eq!(n.subtree_members, 0);
        assert!(n.ap.as_ref().unwrap().wt.is_empty());
    }

    #[test]
    fn data_ack_from_an_unknown_mh_is_no_member() {
        // After a crash-restart an MH can ack before it re-registers, then
        // hand off elsewhere: were it given a last-heard entry, the sweep
        // would count a departure the AP never counted as an arrival.
        let mut n = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        n.on_data_ack(ms(1), Endpoint::Mh(Guid(7)), GlobalSeq(3), &mut out);
        assert!(n.ap.as_ref().unwrap().last_heard.is_empty());
        n.tick_heartbeat(SimTime::from_secs(10), &mut out);
        assert_eq!(n.subtree_members, 0);
        assert_eq!(n.pending_delta, 0);
    }

    #[test]
    fn data_ack_from_an_unknown_mh_solicits_reregistration() {
        // An MH the AP does not know (its WT entry lost to a crash-restart,
        // or its registration lost on the wireless hop) is asked to register
        // again by its next ack.
        let mut n = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        let mh = Endpoint::Mh(Guid(7));
        n.on_data_ack(ms(1), mh, GlobalSeq(3), &mut out);
        assert!(
            matches!(
                &out[..],
                [Action::Send {
                    to,
                    msg: Msg::ReRegister { .. }
                }] if *to == mh
            ),
            "exactly one solicitation: {out:?}"
        );
        assert!(n.ap.as_ref().unwrap().last_heard.is_empty());
        // A registered MH's ack draws nothing.
        n.on_join(SimTime::from_secs(10), Guid(7), &mut out);
        out.clear();
        n.on_data_ack(SimTime::from_secs(11), mh, GlobalSeq(3), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn membership_batches_to_upstream() {
        // Non-leader ring member routes to its ring leader.
        let mut n = br(1);
        n.on_membership_update(3);
        n.on_membership_update(2);
        assert_eq!(n.subtree_members, 5);
        let mut out = Vec::new();
        n.flush_membership(&mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(0)),
                msg: Msg::MembershipUpdate { delta: 5, .. }
            }
        )));
        assert_eq!(n.pending_delta, 0);
    }

    #[test]
    fn top_leader_records_aggregate() {
        let mut n = br(0); // leader of the top ring
        n.on_membership_update(7);
        let mut out = Vec::new();
        n.flush_membership(&mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::MembershipCount { members: 7, .. })
        )));
        assert!(
            !out.iter().any(|a| matches!(a, Action::Send { .. })),
            "root does not forward"
        );
    }

    #[test]
    fn membership_upstream_resolution() {
        // AP → parent.
        let mut ap = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            true,
            vec![],
            ProtocolConfig::default(),
        );
        ap.parent = Some(NodeId(20));
        assert_eq!(ap.membership_upstream(), Some(NodeId(20)));
        // Non-top ring leader → parent.
        let mut ag = NeState::new_ag(
            G,
            NodeId(10),
            vec![NodeId(10), NodeId(20)],
            vec![NodeId(1)],
            ProtocolConfig::default(),
        );
        ag.parent = Some(NodeId(1));
        assert_eq!(ag.membership_upstream(), Some(NodeId(1)));
        // Top leader → none.
        let top = br(0);
        assert_eq!(top.membership_upstream(), None);
        // Top non-leader → leader.
        let top2 = br(2);
        assert_eq!(top2.membership_upstream(), Some(NodeId(0)));
    }

    #[test]
    fn inactive_ap_prunes_itself() {
        let mut n = NeState::new_ap(
            G,
            NodeId(99),
            vec![NodeId(20)],
            false,
            vec![],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        // Activate via a reservation, graft...
        n.on_reserve(SimTime::ZERO, NodeId(98), 1, &mut out);
        n.on_graft_ack(SimTime::ZERO, Endpoint::Ne(NodeId(20)), GlobalSeq::ZERO);
        assert!(n.ap.as_ref().unwrap().grafted);
        // ...then let the reservation lapse.
        out.clear();
        n.tick_heartbeat(SimTime::from_secs(30), &mut out);
        assert!(!n.ap.as_ref().unwrap().grafted);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(20)),
                msg: Msg::Prune {
                    child: NodeId(99),
                    ..
                }
            }
        )));
    }
}
