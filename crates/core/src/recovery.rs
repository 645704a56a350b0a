//! Token-Loss recovery and Multiple-Token resolution (§4.2.1).
//!
//! When topology maintenance runs (a ring repair), the membership layer
//! sends a Token-Loss message to the multicast layer. A node receiving it
//! checks whether "the Message-Ordering algorithm runs well" — a live token
//! has visited within `TOKEN_QUIET_AFTER` — and, if not, originates a
//! Token-Regeneration message that encapsulates its `NewOrderingToken` and
//! traverses the ring along next links. Every traversed node either
//! destroys the message (ordering runs well there), upgrades the
//! encapsulated snapshot to its own fresher one, or — when the message
//! returns to its originator after a full quiet circle — restarts
//! Message-Ordering with the best snapshot under a bumped epoch.
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
use crate::config::TOKEN_QUIET_AFTER;
use crate::events::ProtoEvent;
use crate::ids::{Endpoint, NodeId};
use crate::msg::Msg;
use crate::node::NeState;
use crate::token::OrderingToken;

impl NeState {
    /// Membership layer → multicast layer: the token may be lost.
    pub(crate) fn on_token_loss_signal(&mut self, now: SimTime, out: &mut Outbox) {
        self.maybe_start_regen(now, out);
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
        let best = {
            let Some(ord) = self.ord.as_mut() else { return };
            if now.saturating_since(ord.last_token_seen) < TOKEN_QUIET_AFTER {
                return; // ordering runs well → ignore the Token-Loss message
            }
            if now.saturating_since(ord.last_regen_at) < TOKEN_QUIET_AFTER {
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
        let best = {
            let Some(ord) = self.ord.as_mut() else { return };
            if now.saturating_since(ord.last_token_seen) < TOKEN_QUIET_AFTER {
                // Ordering runs well here: destroy the message.
                self.telemetry
                    .regen(now, origin, crate::telemetry::RegenOutcome::Destroyed);
                return;
            }
            if origin != me && now.saturating_since(ord.last_regen_at) < TOKEN_QUIET_AFTER {
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
        SimTime::ZERO + TOKEN_QUIET_AFTER * 2
    }

    #[test]
    fn loss_signal_ignored_while_ordering_runs_well() {
        let mut n = br(0);
        let mut out = Vec::new();
        n.originate_token(SimTime::ZERO, &mut out); // last_token_seen = 0
        out.clear();
        n.on_token_loss_signal(SimTime::from_millis(1), &mut out);
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
        n.on_token_loss_signal(t, &mut out);
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
        n.on_token_loss_signal(t, &mut out);
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
        n0.on_token_loss_signal(t, &mut out); // originates (sets last_regen_at)
        out.clear();
        n0.on_token_regen(t, NodeId(2), OrderingToken::new(G, NodeId(2)), &mut out);
        assert!(out.is_empty(), "larger-origin round destroyed at node 0");
        assert!(!n0.ord.as_ref().unwrap().regen_ceded);

        // Node 2 has its own round outstanding; node 0's round arrives:
        // node 2 cedes, forwards node 0's message, and later drops its own
        // returning round instead of adopting.
        let mut n2 = br(2);
        let mut out = Vec::new();
        n2.on_token_loss_signal(t, &mut out);
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
        let t2 = t + TOKEN_QUIET_AFTER * 3;
        out.clear();
        n2.on_token_loss_signal(t2, &mut out);
        n2.on_token_regen(t2, NodeId(2), OrderingToken::new(G, NodeId(2)), &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::Record(ProtoEvent::TokenRegenerated { .. }))),
            "un-ceded round adopts normally"
        );
    }

    #[test]
    fn sole_survivor_adopts_immediately() {
        let cfg = ProtocolConfig::default();
        let mut n = NeState::new_br(G, NodeId(7), vec![NodeId(7)], true, cfg);
        let t = quiet_time();
        let mut out = Vec::new();
        n.on_token_loss_signal(t, &mut out);
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
        ag.on_token_loss_signal(SimTime::from_secs(10), &mut out);
        ag.on_token_regen(
            SimTime::from_secs(10),
            NodeId(5),
            OrderingToken::new(G, NodeId(5)),
            &mut out,
        );
        assert!(out.is_empty());
    }
}
