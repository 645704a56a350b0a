//! The `OrderingToken` that circulates the top logical ring (§4.1).
//!
//! The token carries `NextGlobalSeqNo` — the next unassigned global
//! sequence number — and `WTSNP`, a working table of sequence-number pairs.
//! Each WTSNP entry maps a contiguous range of one source's local sequence
//! numbers onto an equally long range of global numbers, recording which
//! node performed the assignment (`OrderingNode`). Top-ring nodes read the
//! table during Order-Assignment to stamp the messages waiting in their
//! `WQ`s.
//!
//! Two bookkeeping fields extend the paper's structure (it leaves both
//! policies unspecified, see DESIGN.md §6): an `epoch` distinguishing
//! regenerated tokens for Multiple-Token resolution, and a `rotation`
//! counter (incremented each time the token passes the ring leader) that
//! drives WTSNP pruning — an entry is dropped two full rotations after
//! assignment, by which point every ring node has had both the new- and
//! old-token chance to consume it.
//!
//! The retention is a constant, `WTSNP_RETAIN_ROTATIONS`: A1 measured no
//! difference between retaining one rotation and two, on the loss-free
//! ring or on the 5 %-loss ring. A node copies an entry the moment a
//! snapshot covering it is installed, so the window matters only to a
//! pre-order that arrives after its entry's token has moved on (see
//! [`crate::ordering`] for how rarely that happens).

use crate::ids::{Epoch, GlobalSeq, GroupId, LocalRange, NodeId};

/// One WTSNP entry: a `(local range → global range)` assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeqNoPair {
    /// `SourceNode`: which source the messages come from.
    pub source: NodeId,
    /// `MinLocalSeqNo ..= MaxLocalSeqNo`.
    pub local: LocalRange,
    /// `OrderingNode`: the top-ring node that assigned the range.
    pub ordering_node: NodeId,
    /// `MinGlobalSeqNo`; `MaxGlobalSeqNo` is derivable as
    /// `min_gs + (local.len() - 1)`.
    pub min_gs: GlobalSeq,
    /// Token rotation at which the assignment happened (pruning clock).
    pub assigned_at_rotation: u64,
}

impl SeqNoPair {
    /// `MaxGlobalSeqNo` of this assignment.
    pub(crate) fn max_gs(&self) -> GlobalSeq {
        self.min_gs.advance(self.local.len() - 1)
    }
}

/// The ordering token. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderingToken {
    /// Group this token orders (`GID`).
    pub group: GroupId,
    /// Generation number; bumped by Token-Regeneration.
    pub epoch: Epoch,
    /// Identity of the node that (re)generated this token instance.
    /// Together with `epoch` this forms the total "instance id" used by the
    /// Multiple-Token rule.
    pub origin: NodeId,
    /// `NextGlobalSeqNo`.
    pub next_gsn: GlobalSeq,
    /// Completed rotations past the ring leader.
    pub rotation: u64,
    /// `WTSNP` — recent assignments, newest last.
    pub(crate) wtsnp: Vec<SeqNoPair>,
}

/// How many rotations a WTSNP entry is retained after assignment.
pub(crate) const WTSNP_RETAIN_ROTATIONS: u64 = 2;

impl OrderingToken {
    /// Create the group's initial token at `origin`.
    pub fn new(group: GroupId, origin: NodeId) -> Self {
        OrderingToken {
            group,
            epoch: Epoch::ZERO,
            origin,
            next_gsn: GlobalSeq::FIRST,
            rotation: 0,
            wtsnp: Vec::new(),
        }
    }

    /// Assign global numbers to `range` of `source`'s messages, recorded as
    /// ordered by `ordering_node`. Returns the first assigned global number.
    pub fn assign(
        &mut self,
        ordering_node: NodeId,
        source: NodeId,
        range: LocalRange,
    ) -> GlobalSeq {
        let min_gs = self.next_gsn;
        self.next_gsn = self.next_gsn.advance(range.len());
        self.wtsnp.push(SeqNoPair {
            source,
            local: range,
            ordering_node,
            min_gs,
            assigned_at_rotation: self.rotation,
        });
        min_gs
    }

    /// Overwrite `self` with a copy of `src`, reusing the WTSNP buffer's
    /// capacity. The snapshot path (`NewOrderingToken` on every pass)
    /// recycles retired snapshots through this instead of `clone`, so the
    /// steady-state token rotation allocates nothing.
    pub fn copy_from(&mut self, src: &OrderingToken) {
        // Whole-struct copy (epoch included, carried verbatim — no epoch
        // ordering happens here), re-seating the recycled WTSNP buffer.
        self.wtsnp.clone_from(&src.wtsnp);
        let wtsnp = std::mem::take(&mut self.wtsnp);
        let OrderingToken {
            group,
            epoch,
            origin,
            next_gsn,
            rotation,
            ..
        } = *src;
        *self = OrderingToken {
            group,
            epoch,
            origin,
            next_gsn,
            rotation,
            wtsnp,
        };
    }

    /// Note a pass over the ring leader (one full rotation) and prune WTSNP
    /// entries older than `WTSNP_RETAIN_ROTATIONS`. Returns pruned count.
    pub fn complete_rotation(&mut self) -> usize {
        self.rotation += 1;
        let cutoff = self.rotation.saturating_sub(WTSNP_RETAIN_ROTATIONS);
        let before = self.wtsnp.len();
        self.wtsnp.retain(|e| e.assigned_at_rotation >= cutoff);
        before - self.wtsnp.len()
    }

    /// Instance id used by the Multiple-Token keep-one rule: higher epoch
    /// wins; ties break on the (re)generating node id.
    pub fn instance(&self) -> (Epoch, u32) {
        (self.epoch, self.origin.0)
    }

    /// Identity of this token pass, in the form the epoch fence orders
    /// (`crate::ring_epoch::PassId`): `(epoch, origin id, rotation)`.
    pub fn pass_id(&self) -> crate::ring_epoch::PassId {
        (self.epoch, self.origin.0, self.rotation)
    }

    /// Entries currently in the table.
    pub(crate) fn entries(&self) -> &[SeqNoPair] {
        &self.wtsnp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LocalSeq;

    fn token() -> OrderingToken {
        OrderingToken::new(GroupId(1), NodeId(0))
    }

    #[test]
    fn assignment_is_contiguous() {
        let mut t = token();
        let g1 = t.assign(
            NodeId(0),
            NodeId(0),
            LocalRange::new(LocalSeq(1), LocalSeq(3)),
        );
        let g2 = t.assign(
            NodeId(1),
            NodeId(1),
            LocalRange::new(LocalSeq(1), LocalSeq(2)),
        );
        assert_eq!(g1, GlobalSeq(1));
        assert_eq!(g2, GlobalSeq(4));
        assert_eq!(t.next_gsn, GlobalSeq(6));
        assert_eq!(t.entries()[0].max_gs(), GlobalSeq(3));
        assert_eq!(t.entries()[1].max_gs(), GlobalSeq(5));
    }

    #[test]
    fn rotation_prunes_old_entries() {
        let mut t = token();
        t.assign(
            NodeId(0),
            NodeId(0),
            LocalRange::new(LocalSeq(1), LocalSeq(1)),
        );
        assert_eq!(t.complete_rotation(), 0); // rotation 1, entry from 0 kept
        t.assign(
            NodeId(1),
            NodeId(1),
            LocalRange::new(LocalSeq(1), LocalSeq(1)),
        );
        assert_eq!(t.complete_rotation(), 0); // rotation 2, entries from 0,1 kept
        assert_eq!(t.complete_rotation(), 1); // rotation 3: entry from 0 pruned
        assert_eq!(t.entries().len(), 1);
        assert_eq!(t.complete_rotation(), 1); // rotation 4: entry from 1 pruned
        assert!(t.entries().is_empty());
        // Pruning never rolls back the sequence counter.
        assert_eq!(t.next_gsn, GlobalSeq(3));
    }

    #[test]
    fn keep_one_rule() {
        let mut a = token();
        let mut b = OrderingToken::new(GroupId(1), NodeId(5));
        assert!(
            b.instance() > a.instance(),
            "equal epoch: higher origin id wins"
        );
        a.epoch = Epoch(1);
        assert!(
            a.instance() > b.instance(),
            "higher epoch wins regardless of origin"
        );
        b.epoch = Epoch(1);
        b.origin = NodeId(9);
        assert!(b.instance() > a.instance());
        b.origin = NodeId(0);
        assert_eq!(
            a.instance(),
            b.instance(),
            "identical instances: neither wins"
        );
    }

    #[test]
    fn empty_token_sane() {
        let t = token();
        assert!(t.entries().is_empty());
        assert_eq!(t.next_gsn, GlobalSeq::FIRST);
    }
}
