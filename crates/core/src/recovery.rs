//! Token-Loss recovery and Multiple-Token resolution (§4.2.1).
//!
//! **Detection.** The paper's Token-Loss message reaches the multicast
//! layer two ways, both here a direct call to `maybe_start_regen`. When
//! topology maintenance runs (a ring repair), the membership layer signals
//! that the token may be lost. And on every hop tick each top-ring member
//! checks the token itself (`token_quiet_fallback`): the `k`-th in-ring
//! member suspects loss once it has seen no token for longer than `1 + k`
//! quiet windows, so the first member originates and the others stand by a
//! window apart. Either way the node checks whether "the Message-Ordering
//! algorithm runs well" (`ordering_runs_well`: it processed a pass within
//! the window, or its own transfer is unacknowledged) and, if not,
//! originates a Token-Regeneration message that encapsulates its
//! `NewOrderingToken` and traverses the ring along next links. Every
//! traversed node either destroys the message (ordering runs well there),
//! upgrades the encapsulated snapshot to its own fresher one, or — when
//! the message returns to its originator after a full circle — restarts
//! Message-Ordering with the best snapshot under a bumped epoch. A lost
//! pass thus costs one window, at most one hop tick, and one circle of
//! the round: 50 ms on a ring of four 5 ms hops.
//!
//! **The window** (`NeState::token_quiet_after`) is one circle of the ring
//! and a hop tick: a top-ring link's longest delay per configured member
//! (`config::token_quiet_window`), 25 ms on four 5 ms hops, 185 ms on a
//! flat ring of 36 stations. Every pair of top-ring members is linked
//! alike, so a ring repaired around an excised member circles no slower.
//!
//! **A regenerated lineage never races the one it replaces.** A member
//! forwards a round only with no transfer outstanding: its last transfer
//! was acknowledged, so its next has processed that pass, or gave up, so
//! every copy has landed or died (a sender gives up a retry period after
//! its last send, and `HierarchySpec::validate` holds top-ring links below
//! that period). Suppose a member `X` processed a pass of the old lineage
//! after the round passed `X`, and take the earliest such processing. The
//! pass came from `X`'s predecessor `P`, which processed it before the
//! round passed `P`; by then `P`'s transfer of it was over, so `X` had
//! processed it already (a copy now is a duplicate) or no copy was left:
//! a contradiction. So a round never overtakes a live token; it meets it
//! at the member holding its transfer, which destroys the round. The one
//! member the argument skips is the origin, which the round passes first
//! and reaches again last: a pass it processed meanwhile leaves it inside
//! its window when the round returns, because the round, forwarded on
//! arrival, circles within the window. A member alone in its ring is
//! exempt from the transfer rule: a transfer it holds is to the next it
//! excised, which will never ack, and its round returns at once.
//!
//! A token parked on purpose at an idle ring is quiet without being lost.
//! Parking must extend this rule — members must know a quiet token is
//! parked, not lost — rather than lengthen the window, which every lost
//! token pays for. A static ring of one parks its token, and knows it.
//!
//! Restart-after-full-circle is this reproduction's resolution of the
//! paper's ambiguous restart rule (DESIGN.md §6): it guarantees the old
//! token is quiescent everywhere before a replacement is created, which —
//! together with the bounded token-retry budget — excludes concurrent
//! live tokens assigning overlapping ranges.
//!
//! Multiple tokens (e.g. after ring merges, simulated directly in tests)
//! are resolved by the keep-one rule in `ordering::on_token`: the instance
//! `(epoch, origin)` order decides, and stale instances are destroyed at
//! the first node that has seen a better one.
//!
//! Recovery reads the ring exclusively through the lifecycle-backed views
//! (`ring_next`, in-ring membership — see [`crate::ring_lifecycle`]), so a
//! member mid-rejoin is never handed a Token-Regeneration round: it only
//! rejoins the traversal after a grant splices it back in. Conversely,
//! adopting a regenerated token *is* a token boundary — any rejoin
//! requests queued at the adopter are granted there, exactly as on a
//! normal pass (`process_and_forward_token`).

use simnet::SimTime;

use crate::actions::{Action, Outbox};
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, NodeId};
use crate::msg::Msg;
use crate::node::NeState;
use crate::token::OrderingToken;

impl NeState {
    /// "The Message-Ordering algorithm runs well" here (§4.2.1): a pass
    /// processed within the quiet window, or a transfer of our own not yet
    /// acknowledged, unless we are alone in the ring (see the module doc);
    /// at a static ring of one, which holds its token, a kept snapshot.
    pub(crate) fn ordering_runs_well(&self, now: SimTime) -> bool {
        let alone = self.ring_next() == Some(self.id);
        self.ord.as_ref().is_some_and(|ord| {
            now.saturating_since(ord.last_token_seen) < self.token_quiet_after
                || (ord.inflight.is_some() && !alone)
                || (ord.new_token.is_some() && self.holds_its_token())
        })
    }

    /// Originate a Token-Regeneration round unless ordering runs well here,
    /// a round was originated too recently (damping), or the ring-epoch
    /// layer fences this node (a partitioned minority creating a new
    /// lineage *is* the split brain — see [`crate::ring_epoch`]).
    pub(crate) fn maybe_start_regen(&mut self, now: SimTime, out: &mut Outbox) {
        let me = self.id;
        let group = self.group;
        if self.is_partition_fenced() || !self.top_ring_primary() {
            return;
        }
        if self.ordering_runs_well(now) {
            return; // ignore the Token-Loss message
        }
        let window = self.token_quiet_after;
        let best = {
            let Some(ord) = self.ord.as_mut() else { return };
            if now.saturating_since(ord.last_regen_at) < window {
                return; // damping: one round at a time
            }
            ord.last_regen_at = now;
            ord.regen_ceded = false;
            ord.new_token
                .clone()
                .unwrap_or_else(|| OrderingToken::new(group, me))
        };
        self.telemetry
            .regen(now, me, crate::telemetry::RegenOutcome::Originated);
        let next = self.ring_next().expect("top-ring node has a ring");
        if next == me {
            // Sole survivor: adopt immediately.
            self.adopt_regenerated(now, best, out);
        } else {
            let regen = Msg::TokenRegen {
                group,
                origin: me,
                best: Box::new(best),
            };
            self.send_control(Endpoint::Ne(next), regen, out);
        }
    }

    /// A Token-Regeneration message arrived from the previous node.
    pub(crate) fn on_token_regen(
        &mut self,
        now: SimTime,
        origin: NodeId,
        best: OrderingToken,
        out: &mut Outbox,
    ) {
        let me = self.id;
        let group = self.group;
        if self.is_partition_fenced() {
            // A fenced minority node destroys regeneration rounds: its side
            // must not extend or revive any token lineage.
            self.telemetry
                .regen(now, origin, crate::telemetry::RegenOutcome::Destroyed);
            return;
        }
        if self.ordering_runs_well(now) {
            self.telemetry
                .regen(now, origin, crate::telemetry::RegenOutcome::Destroyed);
            return;
        }
        let window = self.token_quiet_after;
        let best = {
            let Some(ord) = self.ord.as_mut() else { return };
            if origin != me && now.saturating_since(ord.last_regen_at) < window {
                // Concurrent-round arbitration: our own round may still be
                // circulating. Exactly one round may adopt — two concurrent
                // adoptions would assign overlapping GSN ranges before the
                // Multiple-Token rule could destroy either lineage. The
                // smaller origin wins, deterministically:
                if me < origin {
                    self.telemetry
                        .regen(now, origin, crate::telemetry::RegenOutcome::Destroyed);
                    return; // destroy theirs; our round continues
                }
                // Theirs wins: forward it and refuse to adopt our own
                // round when (if ever) it comes back.
                ord.regen_ceded = true;
                self.telemetry
                    .regen(now, me, crate::telemetry::RegenOutcome::Ceded);
            }
            // Upgrade the snapshot if ours has assigned further.
            match &ord.new_token {
                // ringlint: allow(hot-clone) — audited: token-regeneration recovery
                // path, runs only after a suspected token loss, never per delivery.
                Some(mine) if mine.next_gsn > best.next_gsn => mine.clone(),
                _ => best,
            }
        };
        if origin == me {
            let ord = self.ord.as_mut().expect("checked above");
            if ord.regen_ceded {
                // We ceded to a smaller-origin round mid-flight; dropping
                // our returning round keeps the adoption unique.
                ord.regen_ceded = false;
                self.telemetry
                    .regen(now, me, crate::telemetry::RegenOutcome::Destroyed);
                return;
            }
            // Full circle of quiet nodes: restart with the best snapshot.
            self.adopt_regenerated(now, best, out);
            return;
        }
        let next = self.ring_next().expect("top-ring node has a ring");
        if next == me {
            // Degenerate: everyone else died while the message traversed.
            self.adopt_regenerated(now, best, out);
            return;
        }
        let regen = Msg::TokenRegen {
            group,
            origin,
            best: Box::new(best),
        };
        self.send_control(Endpoint::Ne(next), regen, out);
    }

    /// Restart Message-Ordering here with `base` under a bumped epoch.
    /// The bump itself lives in [`crate::ring_epoch::EpochFence`]; adoption
    /// is the one fork-critical moment, so the primary-component rule is
    /// re-checked even though every caller is already gated.
    fn adopt_regenerated(&mut self, now: SimTime, base: OrderingToken, out: &mut Outbox) {
        let me = self.id;
        if !self.top_ring_primary() {
            return;
        }
        let mut token = base;
        let ord = self.ord.as_mut().expect("ordering state");
        ord.fence.regenerate(&mut token, me);
        ord.last_token_seen = now;
        ord.regen_ceded = false;
        out.push(Action::Record(ProtoEvent::TokenRegenerated {
            node: me,
            epoch: token.epoch,
            next_gsn: token.next_gsn,
        }));
        self.telemetry
            .regen(now, me, crate::telemetry::RegenOutcome::Adopted);
        self.telemetry
            .epoch_bump(now, crate::telemetry::EpochCause::Regenerated, token.epoch);
        self.process_and_forward_token(now, token, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::{Endpoint, Epoch, GlobalSeq, GroupId, LocalRange, LocalSeq};

    const G: GroupId = GroupId(1);

    fn ring() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    fn br(id: u32) -> NeState {
        NeState::new_br(G, NodeId(id), ring(), true, ProtocolConfig::default())
    }

    fn quiet_time() -> SimTime {
        SimTime::ZERO + br(0).token_quiet_after * 2
    }

    fn regen_sends(out: &Outbox) -> usize {
        out.iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::TokenRegen { .. },
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn loss_signal_ignored_while_ordering_runs_well() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.originate_token(SimTime::ZERO, &mut out); // last_token_seen = 0
        out.clear();
        n.maybe_start_regen(SimTime::from_millis(1), &mut out);
        assert!(
            !out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Msg::TokenRegen { .. },
                    ..
                }
            )),
            "recent token ⇒ no regeneration"
        );
    }

    #[test]
    fn quiet_node_originates_regen() {
        let mut n = br(0);
        let t = quiet_time();
        let mut out = Vec::new();
        n.maybe_start_regen(t, &mut out);
        let regens: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(to),
                    msg: Msg::TokenRegen { origin, .. },
                } => Some((*to, *origin)),
                _ => None,
            })
            .collect();
        assert_eq!(regens, vec![(NodeId(1), NodeId(0))]);
        // Damping: a second signal right after does nothing.
        out.clear();
        n.maybe_start_regen(t, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn regen_destroyed_at_healthy_node() {
        let mut n = br(1);
        let mut out = Vec::new();
        // Node 1 saw a token very recently.
        let tok = OrderingToken::new(G, NodeId(0));
        n.on_token(
            SimTime::from_millis(100),
            Endpoint::Ne(NodeId(0)),
            tok,
            &mut out,
        );
        out.clear();
        n.on_token_regen(
            SimTime::from_millis(101),
            NodeId(0),
            OrderingToken::new(G, NodeId(0)),
            &mut out,
        );
        assert!(out.is_empty(), "healthy node destroys the regen message");
    }

    #[test]
    fn regen_upgrades_snapshot_and_forwards() {
        let mut n = br(1);
        let t = quiet_time();
        // Node 1's snapshot is ahead: next_gsn = 11.
        let mut mine = OrderingToken::new(G, NodeId(0));
        mine.assign(
            NodeId(1),
            NodeId(1),
            LocalRange::new(LocalSeq(1), LocalSeq(10)),
        );
        n.ord.as_mut().unwrap().new_token = Some(mine);
        let mut out = Vec::new();
        let stale = OrderingToken::new(G, NodeId(0)); // next_gsn = 1
        n.on_token_regen(t, NodeId(0), stale, &mut out);
        let fwd: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::Ne(to),
                    msg: Msg::TokenRegen { best, origin, .. },
                } => Some((*to, *origin, best.next_gsn)),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![(NodeId(2), NodeId(0), GlobalSeq(11))]);
    }

    #[test]
    fn full_circle_adopts_with_bumped_epoch() {
        let mut n = br(0);
        let t = quiet_time();
        let mut best = OrderingToken::new(G, NodeId(2));
        best.assign(
            NodeId(2),
            NodeId(2),
            LocalRange::new(LocalSeq(1), LocalSeq(5)),
        );
        let mut out = Vec::new();
        // The message we originated comes back to us.
        n.on_token_regen(t, NodeId(0), best, &mut out);
        let regenerated: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                Action::Record(ProtoEvent::TokenRegenerated {
                    epoch, next_gsn, ..
                }) => Some((*epoch, *next_gsn)),
                _ => None,
            })
            .collect();
        assert_eq!(
            regenerated,
            vec![(Epoch(1), GlobalSeq(6))],
            "sequence space preserved"
        );
        // And the new token started circulating.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Token(_),
                ..
            }
        )));
        assert_eq!(
            n.ord.as_ref().unwrap().fence.best_instance(),
            (Epoch(1), 0),
            "instance updated to the regenerated lineage"
        );
    }

    #[test]
    fn concurrent_rounds_resolve_to_the_smaller_origin() {
        let t = quiet_time();
        // Node 0 has its own round outstanding; node 2's round arrives.
        let mut n0 = br(0);
        let mut out = Vec::new();
        n0.maybe_start_regen(t, &mut out); // originates (sets last_regen_at)
        out.clear();
        n0.on_token_regen(t, NodeId(2), OrderingToken::new(G, NodeId(2)), &mut out);
        assert!(out.is_empty(), "larger-origin round destroyed at node 0");
        assert!(!n0.ord.as_ref().unwrap().regen_ceded);

        // Node 2 has its own round outstanding; node 0's round arrives:
        // node 2 cedes, forwards node 0's message, and later drops its own
        // returning round instead of adopting.
        let mut n2 = br(2);
        let mut out = Vec::new();
        n2.maybe_start_regen(t, &mut out);
        out.clear();
        n2.on_token_regen(t, NodeId(0), OrderingToken::new(G, NodeId(0)), &mut out);
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Msg::TokenRegen {
                        origin: NodeId(0),
                        ..
                    },
                    ..
                }
            )),
            "smaller-origin round forwarded"
        );
        assert!(n2.ord.as_ref().unwrap().regen_ceded);
        out.clear();
        n2.on_token_regen(t, NodeId(2), OrderingToken::new(G, NodeId(2)), &mut out);
        assert!(out.is_empty(), "ceded round is not adopted");
        assert!(!n2.ord.as_ref().unwrap().regen_ceded, "cede consumed");
        // The next round node 2 originates is a fresh claim again.
        let t2 = t + n2.token_quiet_after * 3;
        out.clear();
        n2.maybe_start_regen(t2, &mut out);
        n2.on_token_regen(t2, NodeId(2), OrderingToken::new(G, NodeId(2)), &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::TokenRegenerated { .. }))),
            "un-ceded round adopts normally"
        );
    }

    /// A member whose own transfer is unacknowledged holds a live pass on
    /// its way to the next member, however long ago it processed it: it
    /// neither originates a round nor lets one pass, until the next acks.
    #[test]
    fn an_unacknowledged_transfer_keeps_the_ring_live_past_the_window() {
        let mut n = br(1);
        let mut out = Vec::new();
        let pass = OrderingToken::new(G, NodeId(0));
        n.on_token(SimTime::ZERO, Endpoint::Ne(NodeId(0)), pass, &mut out);
        assert!(n.ord.as_ref().unwrap().inflight.is_some(), "sent to node 2");
        let t = quiet_time();
        out.clear();
        n.maybe_start_regen(t, &mut out);
        assert_eq!(regen_sends(&out), 0, "no round originated");
        n.on_token_regen(t, NodeId(0), OrderingToken::new(G, NodeId(0)), &mut out);
        assert_eq!(regen_sends(&out), 0, "the round is destroyed");

        let inf = n.ord.as_ref().unwrap().inflight.as_ref().unwrap();
        let (epoch, rotation) = (inf.token.epoch, inf.token.rotation);
        n.on_token_ack(
            t,
            Endpoint::Ne(NodeId(2)),
            epoch,
            rotation,
            GlobalSeq::ZERO,
            &mut out,
        );
        n.on_token_regen(t, NodeId(0), OrderingToken::new(G, NodeId(0)), &mut out);
        assert_eq!(regen_sends(&out), 1, "acked: the round passes");
    }

    /// A member left alone in its ring may still hold a transfer to the
    /// next it excised, which nobody will ever ack: it regenerates on its
    /// quiet window alone, or its ring would stall for good.
    #[test]
    fn a_member_alone_with_a_transfer_to_an_excised_next_still_adopts() {
        let ring = vec![NodeId(0), NodeId(1)];
        let mut n = NeState::new_br(G, NodeId(0), ring, true, ProtocolConfig::default());
        let mut out = Vec::new();
        n.originate_token(SimTime::ZERO, &mut out);
        n.on_ring_fail(SimTime::from_millis(1), NodeId(1), &mut out);
        assert_eq!(n.ring_next(), Some(NodeId(0)), "alone in its ring");
        assert!(n.top_ring_primary(), "the half holding the smallest id");
        assert!(n.ord.as_ref().unwrap().inflight.is_some(), "to node 1");
        out.clear();
        n.maybe_start_regen(quiet_time(), &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::TokenRegenerated {
                epoch: Epoch(1),
                ..
            })
        )));
    }

    #[test]
    fn sole_survivor_adopts_immediately() {
        let cfg = ProtocolConfig::default();
        let mut n = NeState::new_br(G, NodeId(7), vec![NodeId(7)], true, cfg);
        let t = quiet_time();
        let mut out = Vec::new();
        n.maybe_start_regen(t, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::TokenRegenerated {
                epoch: Epoch(1),
                ..
            })
        )));
    }

    #[test]
    fn regenerated_token_beats_stale_original() {
        // After adoption, the node destroys a late-arriving epoch-0 token.
        let mut n = br(0);
        let t = quiet_time();
        let mut out = Vec::new();
        n.on_token_regen(t, NodeId(0), OrderingToken::new(G, NodeId(2)), &mut out);
        out.clear();
        let stale = OrderingToken::new(G, NodeId(1)); // epoch 0
        n.on_token(t, Endpoint::Ne(NodeId(2)), stale, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Record(ProtoEvent::TokenDestroyed {
                epoch: Epoch(0),
                ..
            })
        )));
    }

    #[test]
    fn non_top_node_ignores_recovery_traffic() {
        let mut ag = NeState::new_ag(
            G,
            NodeId(5),
            vec![NodeId(5), NodeId(6)],
            vec![],
            ProtocolConfig::default(),
        );
        let mut out = Vec::new();
        ag.maybe_start_regen(SimTime::from_secs(10), &mut out);
        ag.on_token_regen(
            SimTime::from_secs(10),
            NodeId(5),
            OrderingToken::new(G, NodeId(5)),
            &mut out,
        );
        assert!(out.is_empty());
    }
}
