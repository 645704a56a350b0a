//! The per-ring membership lifecycle state machine.
//!
//! Every ring participant (BR or AG) tracks each member of its ring —
//! including itself — through one explicit lifecycle:
//!
//! ```text
//!            Suspect              Excise
//!   Active ──────────▶ Suspected ───────▶ Excised
//!     ▲  ◀──────────      │                  │
//!     │     Refute        │ Excise           │ RejoinStart
//!     │                   ▼                  ▼
//!     └──────────────────────────────── Rejoining
//!                  RejoinComplete
//!
//!            PartitionMinority           MergeStart
//!   Active ───────────────────▶ Partitioned ─────────▶ Merging
//!     ▲                              │                     │
//!     └──────────────────────────────┴─────────────────────┘
//!                           RejoinComplete
//! ```
//!
//! Historically these transitions were smeared across the membership layer
//! (excision on `RingFail` / heartbeat-budget exhaustion), the recovery
//! layer (ring views read during Token-Regeneration) and the node layer
//! (crash-restart handling, which simply *forbade* ring re-entry). This
//! module is now the single place a ring-membership state can change:
//! [`crate::node::RingState`] owns a [`RingLifecycle`] and every caller
//! goes through `RingLifecycle::apply`. Members in [`MemberState::Active`]
//! or [`MemberState::Suspected`] are *in the ring* (part of the
//! next/prev/leader cycle); `Excised` and `Rejoining` members are not.
//!
//! The two partition states are **self-only**: a node applies
//! [`LifecycleEvent::PartitionMinority`] to *itself* when the epoch layer
//! ([`crate::ring_epoch`]) concludes its side of a split top ring is not
//! the primary component. Peers never observe these states — from the
//! majority side a partitioned member is simply `Excised`. Both states
//! keep the node in its own cycle view (so degenerate leader lookups
//! must not panic) but it assigns nothing and grants nothing until a
//! merge grant moves it back to `Active`. A `Partitioned` node carries on
//! its periodic duties (probing its minority-side neighbours, serving
//! children) plus the heal probe; a `Merging` node suspends everything
//! except retrying the merge handshake — the grant (or the retry budget
//! falling back to `Partitioned`) is expected within a few ticks.
//!
//! The state machine is deliberately strict: transitions that can only
//! arise from a protocol-logic bug (suspecting a member that is not even in
//! the ring) panic with a descriptive message, while transitions that
//! legitimately recur under message loss or duplication (a second `Excise`
//! broadcast, a duplicate rejoin grant) are idempotent no-ops reported as
//! `Transition::Unchanged`.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::NodeId;

/// Lifecycle state of one ring member, as seen by one ring participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Believed alive and part of the ring cycle.
    Active,
    /// A liveness probe went unanswered; still in the cycle until the miss
    /// budget runs out.
    Suspected,
    /// Declared dead and bypassed; not part of the cycle.
    Excised,
    /// A restarted member asked to re-enter and is being spliced back in;
    /// not part of the cycle until [`LifecycleEvent::RejoinComplete`].
    Rejoining,
    /// Self-only: this node sits on the minority side of a partitioned
    /// ordering ring. It stays in its own (minority) cycle view but is
    /// fenced off from every GSN-assigning path until a merge.
    Partitioned,
    /// Self-only: heal evidence arrived and the whole-component merge
    /// handshake (`RejoinRequest`/`RejoinGrant`) is in flight.
    Merging,
}

impl fmt::Display for MemberState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemberState::Active => "active",
            MemberState::Suspected => "suspected",
            MemberState::Excised => "excised",
            MemberState::Rejoining => "rejoining",
            MemberState::Partitioned => "partitioned",
            MemberState::Merging => "merging",
        })
    }
}

/// The stimuli that drive the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// A liveness probe to the member went unanswered.
    Suspect,
    /// Liveness evidence arrived (heartbeat ack) while the member was
    /// suspected.
    Refute,
    /// The member was declared dead: local miss-budget exhaustion or a
    /// `RingFail` broadcast from a peer.
    Excise,
    /// The member asked to re-enter the ring (`RejoinRequest` received).
    RejoinStart,
    /// The member was spliced back into the ring (`RejoinGrant` issued or
    /// observed). Also completes a partition merge.
    RejoinComplete,
    /// Self-only: the epoch layer concluded this node's side of a split
    /// top ring is not the primary component.
    PartitionMinority,
    /// Self-only: heal evidence arrived while partitioned; the merge
    /// handshake starts.
    MergeStart,
}

impl fmt::Display for LifecycleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LifecycleEvent::Suspect => "suspect",
            LifecycleEvent::Refute => "refute",
            LifecycleEvent::Excise => "excise",
            LifecycleEvent::RejoinStart => "rejoin-start",
            LifecycleEvent::RejoinComplete => "rejoin-complete",
            LifecycleEvent::PartitionMinority => "partition-minority",
            LifecycleEvent::MergeStart => "merge-start",
        })
    }
}

/// Outcome of [`RingLifecycle::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// The member moved to a new state.
    Changed {
        /// State before the event.
        from: MemberState,
        /// State after the event.
        to: MemberState,
    },
    /// The event was legal but idempotent in the current state (e.g. a
    /// duplicate `Excise` broadcast).
    Unchanged,
}

impl Transition {
    /// True when the member's state actually moved.
    pub fn changed(&self) -> bool {
        matches!(self, Transition::Changed { .. })
    }
}

/// Per-member lifecycle states for one ring, keyed by member identity.
#[derive(Debug, Clone)]
pub struct RingLifecycle {
    states: BTreeMap<NodeId, MemberState>,
}

impl RingLifecycle {
    /// A fresh lifecycle over `members`, everyone [`MemberState::Active`].
    pub fn new(members: impl IntoIterator<Item = NodeId>) -> Self {
        let states = members
            .into_iter()
            .map(|m| (m, MemberState::Active))
            .collect::<BTreeMap<_, _>>();
        assert!(!states.is_empty(), "a ring lifecycle needs members");
        RingLifecycle { states }
    }

    /// Current state of a member. Panics on an identity outside the ring's
    /// static order — that is a wiring bug, not a protocol condition.
    pub fn state(&self, id: NodeId) -> MemberState {
        *self
            .states
            .get(&id)
            .unwrap_or_else(|| panic!("node {} is not a member of this ring", id.0))
    }

    /// Apply one lifecycle event to one member. Legal transitions return
    /// [`Transition::Changed`]; legal-but-idempotent repeats return
    /// [`Transition::Unchanged`]; illegal combinations panic descriptively.
    pub(crate) fn apply(&mut self, id: NodeId, event: LifecycleEvent) -> Transition {
        use LifecycleEvent as E;
        use MemberState as S;
        let from = self.state(id);
        let to = match (from, event) {
            // --- liveness suspicion --------------------------------------
            (S::Active, E::Suspect) => Some(S::Suspected),
            (S::Suspected, E::Suspect) => None,
            (S::Excised | S::Rejoining | S::Partitioned | S::Merging, E::Suspect) => panic!(
                "illegal ring-lifecycle transition: cannot suspect node {} \
                 while it is {} (only in-cycle peers are probed)",
                id.0, from
            ),
            // --- suspicion refuted ---------------------------------------
            (S::Suspected, E::Refute) => Some(S::Active),
            // Late liveness evidence from a member already excised (or mid
            // rejoin/merge) must not resurrect it outside the handshakes.
            (S::Active | S::Excised | S::Rejoining | S::Partitioned | S::Merging, E::Refute) => {
                None
            }
            // --- excision ------------------------------------------------
            (S::Active | S::Suspected, E::Excise) => Some(S::Excised),
            // A member that crashes again mid-rejoin is excised again; a
            // `RingFail` about a partitioned/merging self is a (stale)
            // peer conviction — the merge path re-enters via the grant.
            (S::Rejoining | S::Partitioned | S::Merging, E::Excise) => Some(S::Excised),
            (S::Excised, E::Excise) => None, // duplicate RingFail broadcast
            // --- re-entry ------------------------------------------------
            (S::Excised, E::RejoinStart) => Some(S::Rejoining),
            (S::Rejoining, E::RejoinStart) => None, // retried request
            // A rejoin request from a member we never excised is liveness
            // proof; any suspicion is refuted and the grant is a welcome.
            (S::Suspected, E::RejoinStart) => Some(S::Active),
            (S::Active, E::RejoinStart) => None,
            // A partitioned/merging self observing a request about itself
            // (a looped-back duplicate) changes nothing.
            (S::Partitioned | S::Merging, E::RejoinStart) => None,
            (
                S::Rejoining | S::Excised | S::Suspected | S::Partitioned | S::Merging,
                E::RejoinComplete,
            ) => Some(S::Active),
            (S::Active, E::RejoinComplete) => None, // duplicate grant
            // --- partition fencing (self-only states) --------------------
            (S::Active | S::Suspected, E::PartitionMinority) => Some(S::Partitioned),
            (S::Partitioned, E::PartitionMinority) => None, // re-evaluation
            // A fresh split while the previous merge was still in flight.
            (S::Merging, E::PartitionMinority) => Some(S::Partitioned),
            (S::Excised | S::Rejoining, E::PartitionMinority) => panic!(
                "illegal ring-lifecycle transition: node {} cannot enter a \
                 partition minority while it is {} (only in-cycle members \
                 evaluate the primary component)",
                id.0, from
            ),
            (S::Partitioned, E::MergeStart) => Some(S::Merging),
            (S::Merging, E::MergeStart) => None, // repeated heal evidence
            // Stale heal evidence after the merge already completed (or
            // before any partition) changes nothing.
            (S::Active | S::Suspected, E::MergeStart) => None,
            (S::Excised | S::Rejoining, E::MergeStart) => panic!(
                "illegal ring-lifecycle transition: node {} cannot start a \
                 merge while it is {} (merges leave the partitioned state)",
                id.0, from
            ),
        };
        match to {
            Some(to) => {
                self.states.insert(id, to);
                Transition::Changed { from, to }
            }
            None => Transition::Unchanged,
        }
    }

    /// True when the member takes part in the ring cycle (next/prev/leader).
    /// `Partitioned`/`Merging` are self-only states: the node stays in its
    /// own minority-side cycle view (it keeps probing minority peers and a
    /// leader lookup on the degenerate view must not panic).
    pub fn is_in_ring(&self, id: NodeId) -> bool {
        matches!(
            self.state(id),
            MemberState::Active
                | MemberState::Suspected
                | MemberState::Partitioned
                | MemberState::Merging
        )
    }

    /// Members currently in the ring cycle, in identity order.
    pub(crate) fn in_ring(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.states
            .iter()
            .filter(|(_, s)| {
                matches!(
                    s,
                    MemberState::Active
                        | MemberState::Suspected
                        | MemberState::Partitioned
                        | MemberState::Merging
                )
            })
            .map(|(&id, _)| id)
    }

    /// Number of members in the ring cycle.
    pub(crate) fn in_ring_count(&self) -> usize {
        self.in_ring().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LifecycleEvent as E;
    use MemberState as S;

    const M: NodeId = NodeId(7);

    fn at(state: S) -> RingLifecycle {
        let mut lc = RingLifecycle::new([M]);
        // Drive the member into `state` via legal transitions only.
        match state {
            S::Active => {}
            S::Suspected => {
                lc.apply(M, E::Suspect);
            }
            S::Excised => {
                lc.apply(M, E::Excise);
            }
            S::Rejoining => {
                lc.apply(M, E::Excise);
                lc.apply(M, E::RejoinStart);
            }
            S::Partitioned => {
                lc.apply(M, E::PartitionMinority);
            }
            S::Merging => {
                lc.apply(M, E::PartitionMinority);
                lc.apply(M, E::MergeStart);
            }
        }
        assert_eq!(lc.state(M), state);
        lc
    }

    /// The full transition table: `(from, event, expected)` where
    /// `Some(to)` is a state change, `None` a legal idempotent no-op.
    /// The missing `(from, event)` combinations — Suspect outside the
    /// Active/Suspected pair, and PartitionMinority/MergeStart on
    /// Excised/Rejoining — are the illegal ones (tested below).
    const TABLE: &[(S, E, Option<S>)] = &[
        (S::Active, E::Suspect, Some(S::Suspected)),
        (S::Active, E::Refute, None),
        (S::Active, E::Excise, Some(S::Excised)),
        (S::Active, E::RejoinStart, None),
        (S::Active, E::RejoinComplete, None),
        (S::Active, E::PartitionMinority, Some(S::Partitioned)),
        (S::Active, E::MergeStart, None),
        (S::Suspected, E::Suspect, None),
        (S::Suspected, E::Refute, Some(S::Active)),
        (S::Suspected, E::Excise, Some(S::Excised)),
        (S::Suspected, E::RejoinStart, Some(S::Active)),
        (S::Suspected, E::RejoinComplete, Some(S::Active)),
        (S::Suspected, E::PartitionMinority, Some(S::Partitioned)),
        (S::Suspected, E::MergeStart, None),
        (S::Excised, E::Refute, None),
        (S::Excised, E::Excise, None),
        (S::Excised, E::RejoinStart, Some(S::Rejoining)),
        (S::Excised, E::RejoinComplete, Some(S::Active)),
        (S::Rejoining, E::Refute, None),
        (S::Rejoining, E::Excise, Some(S::Excised)),
        (S::Rejoining, E::RejoinStart, None),
        (S::Rejoining, E::RejoinComplete, Some(S::Active)),
        (S::Partitioned, E::Refute, None),
        (S::Partitioned, E::Excise, Some(S::Excised)),
        (S::Partitioned, E::RejoinStart, None),
        (S::Partitioned, E::RejoinComplete, Some(S::Active)),
        (S::Partitioned, E::PartitionMinority, None),
        (S::Partitioned, E::MergeStart, Some(S::Merging)),
        (S::Merging, E::Refute, None),
        (S::Merging, E::Excise, Some(S::Excised)),
        (S::Merging, E::RejoinStart, None),
        (S::Merging, E::RejoinComplete, Some(S::Active)),
        (S::Merging, E::PartitionMinority, Some(S::Partitioned)),
        (S::Merging, E::MergeStart, None),
    ];

    #[test]
    fn every_legal_transition_behaves_per_table() {
        for &(from, event, expect) in TABLE {
            let mut lc = at(from);
            let t = lc.apply(M, event);
            match expect {
                Some(to) => {
                    assert_eq!(
                        t,
                        Transition::Changed { from, to },
                        "{from} --{event}--> expected {to}"
                    );
                    assert_eq!(lc.state(M), to);
                }
                None => {
                    assert_eq!(t, Transition::Unchanged, "{from} --{event}--> no-op");
                    assert_eq!(lc.state(M), from, "no-op must not move the state");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot suspect node 7 while it is excised")]
    fn suspecting_an_excised_member_panics() {
        at(S::Excised).apply(M, E::Suspect);
    }

    #[test]
    #[should_panic(expected = "cannot suspect node 7 while it is rejoining")]
    fn suspecting_a_rejoining_member_panics() {
        at(S::Rejoining).apply(M, E::Suspect);
    }

    #[test]
    #[should_panic(expected = "cannot suspect node 7 while it is partitioned")]
    fn suspecting_a_partitioned_member_panics() {
        at(S::Partitioned).apply(M, E::Suspect);
    }

    #[test]
    #[should_panic(expected = "cannot suspect node 7 while it is merging")]
    fn suspecting_a_merging_member_panics() {
        at(S::Merging).apply(M, E::Suspect);
    }

    #[test]
    #[should_panic(expected = "cannot enter a partition minority while it is excised")]
    fn partitioning_an_excised_member_panics() {
        at(S::Excised).apply(M, E::PartitionMinority);
    }

    #[test]
    #[should_panic(expected = "cannot start a merge while it is rejoining")]
    fn merging_a_rejoining_member_panics() {
        at(S::Rejoining).apply(M, E::MergeStart);
    }

    #[test]
    #[should_panic(expected = "not a member of this ring")]
    fn unknown_member_panics() {
        at(S::Active).state(NodeId(99));
    }

    #[test]
    fn partitioned_member_stays_in_its_own_cycle_view() {
        let mut lc = RingLifecycle::new([NodeId(1), NodeId(2)]);
        lc.apply(NodeId(2), E::Excise); // the majority side, unreachable
        lc.apply(NodeId(1), E::PartitionMinority);
        assert!(
            lc.is_in_ring(NodeId(1)),
            "a partitioned self stays in its own cycle (leader lookups must not panic)"
        );
        assert_eq!(lc.in_ring_count(), 1);
        lc.apply(NodeId(1), E::MergeStart);
        assert!(lc.is_in_ring(NodeId(1)));
        lc.apply(NodeId(1), E::RejoinComplete);
        assert_eq!(lc.state(NodeId(1)), S::Active);
    }

    #[test]
    fn full_partition_merge_cycle() {
        let mut lc = RingLifecycle::new([NodeId(1), NodeId(2)]);
        assert!(lc.apply(NodeId(1), E::PartitionMinority).changed());
        assert_eq!(
            lc.apply(NodeId(1), E::PartitionMinority),
            Transition::Unchanged
        );
        assert!(lc.apply(NodeId(1), E::MergeStart).changed());
        assert_eq!(lc.apply(NodeId(1), E::MergeStart), Transition::Unchanged);
        assert!(lc.apply(NodeId(1), E::RejoinComplete).changed());
        assert_eq!(lc.state(NodeId(1)), S::Active);
        // A duplicate merge grant is idempotent.
        assert_eq!(
            lc.apply(NodeId(1), E::RejoinComplete),
            Transition::Unchanged
        );
    }

    #[test]
    fn in_ring_view_tracks_states() {
        let mut lc = RingLifecycle::new([NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(lc.in_ring_count(), 3);
        lc.apply(NodeId(2), E::Suspect);
        assert!(lc.is_in_ring(NodeId(2)), "suspected members stay in ring");
        lc.apply(NodeId(2), E::Excise);
        assert!(!lc.is_in_ring(NodeId(2)));
        assert_eq!(lc.in_ring().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
        lc.apply(NodeId(2), E::RejoinStart);
        assert!(
            !lc.is_in_ring(NodeId(2)),
            "rejoining members are not in the cycle yet"
        );
        lc.apply(NodeId(2), E::RejoinComplete);
        assert_eq!(lc.in_ring_count(), 3);
    }

    #[test]
    fn full_crash_rejoin_cycle() {
        let mut lc = RingLifecycle::new([NodeId(1), NodeId(2)]);
        assert!(lc.apply(NodeId(2), E::Suspect).changed());
        assert!(lc.apply(NodeId(2), E::Excise).changed());
        assert!(lc.apply(NodeId(2), E::RejoinStart).changed());
        assert!(lc.apply(NodeId(2), E::RejoinComplete).changed());
        assert_eq!(lc.state(NodeId(2)), S::Active);
    }
}
