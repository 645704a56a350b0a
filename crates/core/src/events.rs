//! Protocol-level journal records.
//!
//! Every entity emits [`ProtoEvent`]s into the simulation journal; the
//! measurement layer (`harness::metrics`) reconstructs latencies, ordering
//! correctness and handoff disruption from them after the run. The journal
//! records behaviour only: what each entity counted (buffer peaks, control
//! and data sent, deliveries per walker) is handed over at teardown as
//! [`Finals`](crate::metrics::Finals), beside the journal. Records are
//! deliberately flat `Copy` data — a journal from a long run holds
//! millions of them.

use crate::ids::{Epoch, GlobalSeq, GroupId, Guid, LocalSeq, NodeId};

/// One journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A source handed a fresh message to its corresponding node.
    SourceSend {
        /// Corresponding (and source-proxy) node.
        source: NodeId,
        /// The message's local sequence number.
        local_seq: LocalSeq,
    },
    /// A message received its global number (recorded by its OrderingNode).
    Ordered {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The ordering node.
        node: NodeId,
        /// Source of the message.
        source: NodeId,
        /// Local sequence number.
        local_seq: LocalSeq,
        /// Assigned global sequence number.
        gsn: GlobalSeq,
    },
    /// An entity skipped a really-lost message.
    NeSkip {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The entity.
        node: NodeId,
        /// The skipped global number.
        gsn: GlobalSeq,
    },
    /// An MH delivered a message to its application.
    MhDeliver {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The mobile host.
        mh: Guid,
        /// Global sequence number.
        gsn: GlobalSeq,
        /// Source of the message.
        source: NodeId,
        /// Local sequence number at that source.
        local_seq: LocalSeq,
    },
    /// An MH skipped a really-lost message.
    MhSkip {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The mobile host.
        mh: Guid,
        /// The skipped global number.
        gsn: GlobalSeq,
    },
    /// The token completed a hop (recorded by the node releasing it).
    TokenPass {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// Node passing the token on.
        node: NodeId,
        /// Token rotation count.
        rotation: u64,
        /// Token epoch.
        epoch: Epoch,
        /// `NextGlobalSeqNo` at hand-off time.
        next_gsn: GlobalSeq,
    },
    /// A node adopted a regenerated token.
    TokenRegenerated {
        /// The restarting node.
        node: NodeId,
        /// New epoch.
        epoch: Epoch,
        /// `NextGlobalSeqNo` the lineage resumed from.
        next_gsn: GlobalSeq,
    },
    /// A stale token instance was destroyed (Multiple-Token rule).
    TokenDestroyed {
        /// The node that destroyed it.
        node: NodeId,
        /// Epoch of the destroyed instance.
        epoch: Epoch,
    },
    /// A token was black-holed by fault injection ([`forced token
    /// loss`](crate::msg::Msg::DropToken)); the Token-Regeneration
    /// machinery is expected to recover from this point.
    TokenDropped {
        /// The node that swallowed the token.
        node: NodeId,
        /// Epoch of the dropped instance.
        epoch: Epoch,
    },
    /// A ring node bypassed a dead neighbour.
    RingRepaired {
        /// The repairing node.
        node: NodeId,
        /// The failed neighbour.
        failed: NodeId,
        /// The new next node.
        new_next: NodeId,
    },
    /// A restarted ring member was spliced back into its repaired ring
    /// (recorded by the granting node at the token boundary).
    RingRejoined {
        /// The granting node.
        node: NodeId,
        /// The re-admitted member.
        member: NodeId,
    },
    /// A top-ring node concluded (via the ring-epoch layer's
    /// primary-component rule) that its side of a split ordering ring is
    /// the minority and fenced itself off: from here until a merge it
    /// assigns no GSNs, adopts no regenerated token and queues its own
    /// source's submissions.
    RingPartitioned {
        /// The fenced node.
        node: NodeId,
        /// Members (including the node) still in its minority cycle view.
        in_ring: u32,
    },
    /// A fenced minority node completed its whole-component merge back
    /// into the primary ring (recorded by the merging node when the grant
    /// lands).
    RingMerged {
        /// The merged node.
        node: NodeId,
        /// Queued own-source pre-orders resubmitted for fresh GSNs in the
        /// merged epoch.
        resubmitted: u32,
    },
    /// An MH registered at an AP after a handoff.
    HandoffRegistered {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The mobile host.
        mh: Guid,
        /// The new AP.
        ap: NodeId,
        /// Delivery resumes after this global number.
        resume: GlobalSeq,
    },
    /// A child attached to a parent (tree activation).
    Grafted {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The parent.
        parent: NodeId,
        /// The new child.
        child: NodeId,
    },
    /// A child detached from a parent.
    Pruned {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The parent.
        parent: NodeId,
        /// The departed child.
        child: NodeId,
    },
    /// An AP pre-joined the tree due to path reservation.
    Reserved {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The reserving AP.
        ap: NodeId,
        /// AP whose member triggered the reservation.
        origin: NodeId,
    },
    /// Aggregated membership count at the top of the hierarchy changed.
    MembershipCount {
        /// The ordering ring (group) this record belongs to.
        group: GroupId,
        /// The reporting node (top leader).
        node: NodeId,
        /// Members currently in the subtree.
        members: i64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_small() {
        // Journals hold millions of these. The largest payload is 28 bytes
        // (`Ordered`, `MhDeliver`, `TokenPass`), so with the tag a record is
        // 32 bytes and a `(SimTime, ProtoEvent)` journal entry 40.
        assert_eq!(std::mem::size_of::<ProtoEvent>(), 32);
    }

    #[test]
    fn records_are_copy_and_comparable() {
        let a = ProtoEvent::MhDeliver {
            group: GroupId(1),
            mh: Guid(1),
            gsn: GlobalSeq(2),
            source: NodeId(3),
            local_seq: LocalSeq(4),
        };
        let b = a;
        assert_eq!(a, b);
    }
}
