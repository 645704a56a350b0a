//! `WQ` — the WorkingQueue of not-yet-ordered messages (§4.1, top ring only).
//!
//! The paper designs `WQ` as "a list of queues, each of which is used to
//! keep messages from one source". Sources inject locally-sequenced
//! messages at their *corresponding node*; every top-ring node additionally
//! receives the other sources' messages forwarded along the ring. The queue
//! for a source is keyed by that source's corresponding node (the paper's
//! `WQ.OrderingNode` notation).
//!
//! Entries wait here until the Order-Assignment algorithm matches them with
//! a global-sequence range recorded in the ordering token and copies them
//! into `MQ`. An entry can be garbage-collected once it has been copied
//! *and* the next ring node's `MQ` front has passed its global number —
//! until then the next node may still ask for it again. There is no
//! per-stream acknowledgement: a front past GSN *g* has received, or given
//! up on, every pre-order ordered at or below *g*.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::ids::{GlobalSeq, LocalRange, LocalSeq, NodeId, PayloadId};
use crate::mq::{InsertOutcome, MsgData};

/// One slot of a per-source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SqSlot {
    /// Gap: a later local sequence number arrived first.
    Missing { waiting: bool, nacks: u8 },
    /// Retry budget exhausted; the `MQ`-level retransmission path will have
    /// to repair the hole downstream of ordering.
    Lost,
    /// Payload present.
    Present {
        payload: PayloadId,
        /// Global number under which Order-Assignment copied the entry
        /// into `MQ` (None = not yet ordered).
        gsn: Option<GlobalSeq>,
        /// Overriding message identity `(source, local_seq)` for entries of
        /// a fence funnel stream, whose queue key and slot position are the
        /// group's virtual funnel id and channel sequence. `None` (every
        /// normal entry) means the identity is the queue key and slot
        /// sequence themselves.
        origin: Option<(NodeId, LocalSeq)>,
    },
}

/// Queue of one source's pending messages.
#[derive(Debug, Clone)]
struct SourceQueue {
    slots: VecDeque<SqSlot>,
    /// Local sequence number of `slots[0]`.
    base: LocalSeq,
    /// Highest local sequence number seen.
    rear: LocalSeq,
}

impl SourceQueue {
    fn new() -> Self {
        SourceQueue {
            slots: VecDeque::new(),
            base: LocalSeq::FIRST,
            rear: LocalSeq::ZERO,
        }
    }

    fn idx(&self, ls: LocalSeq) -> Option<usize> {
        if ls < self.base {
            return None;
        }
        let i = (ls.0 - self.base.0) as usize;
        (i < self.slots.len()).then_some(i)
    }

    fn insert(
        &mut self,
        ls: LocalSeq,
        payload: PayloadId,
        origin: Option<(NodeId, LocalSeq)>,
        capacity: usize,
    ) -> InsertOutcome {
        debug_assert!(ls.is_valid());
        if ls < self.base {
            return InsertOutcome::Stale;
        }
        let rel = (ls.0 - self.base.0) as usize;
        if rel >= capacity {
            return InsertOutcome::Overflow;
        }
        while self.slots.len() <= rel {
            self.slots.push_back(SqSlot::Missing {
                waiting: true,
                nacks: 0,
            });
        }
        match self.slots[rel] {
            SqSlot::Present { .. } => InsertOutcome::Duplicate,
            SqSlot::Lost => InsertOutcome::Stale,
            SqSlot::Missing { .. } => {
                self.slots[rel] = SqSlot::Present {
                    payload,
                    gsn: None,
                    origin,
                };
                if ls > self.rear {
                    self.rear = ls;
                }
                InsertOutcome::Stored
            }
        }
    }

    fn gc(&mut self, next_front: GlobalSeq) -> usize {
        let mut dropped = 0;
        while let Some(slot) = self.slots.front() {
            let removable = match slot {
                // A lost slot holds no payload and will never be copied or
                // retransmitted from here; drop it unconditionally.
                SqSlot::Lost => true,
                SqSlot::Present { gsn, .. } => gsn.is_some_and(|g| g <= next_front),
                SqSlot::Missing { .. } => false,
            };
            if !removable {
                break;
            }
            self.slots.pop_front();
            self.base = self.base.next();
            dropped += 1;
        }
        dropped
    }
}

/// The WorkingQueue: per-source queues plus shared capacity accounting.
#[derive(Debug, Clone)]
pub struct WorkingQueue {
    queues: BTreeMap<NodeId, SourceQueue>,
    capacity_per_source: usize,
    /// Resync mode ([`WorkingQueue::mark_resync`]): each stream's first
    /// entry re-baselines that stream instead of chasing pre-crash history.
    resync_streams: bool,
    /// Entries dropped because a per-source queue was full.
    pub overflow_drops: u64,
    peak_total: usize,
}

impl WorkingQueue {
    /// Create a WorkingQueue whose per-source queues hold `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WQ capacity must be positive");
        WorkingQueue {
            queues: BTreeMap::new(),
            capacity_per_source: capacity,
            resync_streams: false,
            overflow_drops: 0,
            peak_total: 0,
        }
    }

    fn note_peak(&mut self) {
        let total = self.occupancy();
        if total > self.peak_total {
            self.peak_total = total;
        }
    }

    /// Switch this (freshly created) queue into resync mode: a stream's
    /// first entry re-baselines the stream at its own local number instead
    /// of opening a gap back to `LocalSeq::FIRST`. Used after a
    /// crash-restart, where a ring-rejoined node picks every stream up
    /// mid-flight — pre-crash history is unrecoverable and chasing it would
    /// only burn the NACK budget (or overflow the per-source capacity).
    pub(crate) fn mark_resync(&mut self) {
        self.resync_streams = true;
    }

    /// Offer a message `(corresponding_node, local_seq)`; used both for the
    /// own source's fresh messages and for ring-forwarded ones.
    pub fn insert(
        &mut self,
        corresponding: NodeId,
        ls: LocalSeq,
        payload: PayloadId,
    ) -> InsertOutcome {
        self.insert_with_origin(corresponding, ls, payload, None)
    }

    /// Offer a fence funnel-stream entry: keyed under the group's virtual
    /// funnel id at its channel sequence, but carrying its real identity
    /// `(source, local_seq)` for `MQ` records downstream.
    pub(crate) fn insert_with_origin(
        &mut self,
        corresponding: NodeId,
        ls: LocalSeq,
        payload: PayloadId,
        origin: Option<(NodeId, LocalSeq)>,
    ) -> InsertOutcome {
        let cap = self.capacity_per_source;
        let resync = self.resync_streams;
        let q = self
            .queues
            .entry(corresponding)
            .or_insert_with(SourceQueue::new);
        if resync && q.slots.is_empty() && q.rear == LocalSeq::ZERO && q.base == LocalSeq::FIRST {
            q.base = ls;
        }
        let outcome = q.insert(ls, payload, origin, cap);
        if outcome == InsertOutcome::Overflow {
            self.overflow_drops += 1;
        }
        if outcome == InsertOutcome::Stored {
            self.note_peak();
        }
        outcome
    }

    /// Payload of a retained message (serves ring retransmissions).
    pub fn get(&self, corresponding: NodeId, ls: LocalSeq) -> Option<PayloadId> {
        self.get_entry(corresponding, ls).map(|(p, _)| p)
    }

    /// Payload plus overriding identity of a retained message (serves fence
    /// funnel-stream retransmissions, which must rebuild the full entry).
    pub(crate) fn get_entry(
        &self,
        corresponding: NodeId,
        ls: LocalSeq,
    ) -> Option<(PayloadId, Option<(NodeId, LocalSeq)>)> {
        let q = self.queues.get(&corresponding)?;
        match q.slots.get(q.idx(ls)?) {
            Some(SqSlot::Present {
                payload, origin, ..
            }) => Some((*payload, *origin)),
            _ => None,
        }
    }

    /// Order-Assignment step for one WTSNP entry: stamp every present,
    /// not-yet-copied message in `range` with its global number
    /// (`min_gs + (ls - range.min)`) and return the `MQ`-ready records.
    pub fn take_orderable(
        &mut self,
        corresponding: NodeId,
        source: NodeId,
        range: LocalRange,
        min_gs: GlobalSeq,
    ) -> Vec<(GlobalSeq, MsgData)> {
        let mut out = Vec::new();
        self.take_orderable_with(corresponding, source, range, min_gs, |g, d| {
            out.push((g, d));
        });
        out
    }

    /// [`Self::take_orderable`] without the result `Vec`: each taken entry is
    /// handed to `sink` in order; Order-Assignment inserts straight into the
    /// `MQ` through this.
    ///
    /// Returns true when the range is *settled* here: every local number in
    /// it was copied (now or earlier), garbage-collected or declared lost,
    /// so no later arrival can fall under it. False means at least one
    /// message of the range has not reached this node yet — the caller must
    /// come back when it does.
    pub(crate) fn take_orderable_with(
        &mut self,
        corresponding: NodeId,
        source: NodeId,
        range: LocalRange,
        min_gs: GlobalSeq,
        mut sink: impl FnMut(GlobalSeq, MsgData),
    ) -> bool {
        let Some(q) = self.queues.get_mut(&corresponding) else {
            return false;
        };
        let mut settled = true;
        for ls in range.iter() {
            if ls < q.base {
                continue; // collected, or history from before a resync
            }
            match q.slots.get_mut((ls.0 - q.base.0) as usize) {
                Some(SqSlot::Present {
                    payload,
                    gsn,
                    origin,
                }) => {
                    if gsn.is_some() {
                        continue;
                    }
                    let g = min_gs.advance(ls.since(range.min));
                    *gsn = Some(g);
                    let (src, src_seq) = origin.unwrap_or((source, ls));
                    sink(
                        g,
                        MsgData {
                            source: src,
                            local_seq: src_seq,
                            ordering_node: corresponding,
                            payload: *payload,
                        },
                    );
                }
                Some(SqSlot::Lost) => {}
                Some(SqSlot::Missing { .. }) | None => settled = false,
            }
        }
        settled
    }

    /// Walk every queue's gaps: bump NACK counters, transition exhausted
    /// slots to `Lost`. Returns `(requests grouped by source, lost count)`.
    pub fn collect_nacks(&mut self, budget: u8) -> (Vec<(NodeId, Vec<LocalSeq>)>, u64) {
        let mut requests = Vec::new();
        let mut lost = 0;
        for (&corr, q) in self.queues.iter_mut() {
            let mut missing = Vec::new();
            if q.rear < q.base {
                continue;
            }
            for ls in q.base.0..=q.rear.0 {
                let ls = LocalSeq(ls);
                let Some(i) = q.idx(ls) else { continue };
                if let SqSlot::Missing { waiting, nacks } = &mut q.slots[i] {
                    if !*waiting {
                        continue;
                    }
                    if *nacks >= budget {
                        q.slots[i] = SqSlot::Lost;
                        lost += 1;
                    } else {
                        *nacks += 1;
                        missing.push(ls);
                    }
                }
            }
            if !missing.is_empty() {
                requests.push((corr, missing));
            }
        }
        (requests, lost)
    }

    /// Garbage-collect every queue's prefix of entries copied into `MQ`
    /// under a global number the next ring node's `MQ` front has passed
    /// (`next_front`, its cumulative ACK; `GlobalSeq(u64::MAX)` on a ring of
    /// one, where nobody is left to ask again).
    pub fn gc(&mut self, next_front: GlobalSeq) -> usize {
        self.queues.values_mut().map(|q| q.gc(next_front)).sum()
    }

    /// Total retained entries across all sources.
    pub fn occupancy(&self) -> usize {
        self.queues.values().map(|q| q.slots.len()).sum()
    }

    /// Peak total occupancy over the queue's lifetime.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    #[test]
    fn resync_rebases_each_stream_at_its_first_entry() {
        let mut wq = WorkingQueue::new(8);
        wq.mark_resync();
        // A rejoined node picks the stream up at ls 500: no gap back to 1
        // (which would NACK-storm and overflow the 8-slot capacity).
        assert_eq!(
            wq.insert(N1, LocalSeq(500), PayloadId(500)),
            InsertOutcome::Stored
        );
        let (requests, lost) = wq.collect_nacks(3);
        assert!(requests.is_empty(), "{requests:?}");
        assert_eq!(lost, 0);
        assert_eq!(wq.get(N1, LocalSeq(500)), Some(PayloadId(500)));
        // Later entries of the SAME stream chase gaps normally.
        assert_eq!(
            wq.insert(N1, LocalSeq(502), PayloadId(502)),
            InsertOutcome::Stored
        );
        let (requests, _) = wq.collect_nacks(3);
        assert_eq!(requests, vec![(N1, vec![LocalSeq(501)])]);
        // A second stream rebases independently.
        assert_eq!(
            wq.insert(N2, LocalSeq(9_000), PayloadId(1)),
            InsertOutcome::Stored
        );
        assert_eq!(wq.get(N2, LocalSeq(9_000)), Some(PayloadId(1)));
        // Without resync the same first insert overflows the capacity.
        let mut plain = WorkingQueue::new(8);
        assert_eq!(
            plain.insert(N1, LocalSeq(500), PayloadId(500)),
            InsertOutcome::Overflow
        );
    }

    #[test]
    fn fence_origin_identity_survives_ordering() {
        let mut wq = WorkingQueue::new(8);
        let funnel_stream = NodeId::fence_virtual(crate::ids::GroupId(2));
        wq.insert_with_origin(
            funnel_stream,
            LocalSeq(1),
            PayloadId(77),
            Some((NodeId(5), LocalSeq(40))),
        );
        let out = wq.take_orderable(
            funnel_stream,
            funnel_stream,
            LocalRange::new(LocalSeq(1), LocalSeq(1)),
            GlobalSeq(9),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.source, NodeId(5));
        assert_eq!(out[0].1.local_seq, LocalSeq(40));
        assert_eq!(out[0].1.ordering_node, funnel_stream);
        assert_eq!(
            wq.get_entry(funnel_stream, LocalSeq(1)),
            Some((PayloadId(77), Some((NodeId(5), LocalSeq(40)))))
        );
    }

    #[test]
    fn insert_and_order_flow() {
        let mut wq = WorkingQueue::new(64);
        for ls in 1..=3u64 {
            assert_eq!(
                wq.insert(N1, LocalSeq(ls), PayloadId(ls)),
                InsertOutcome::Stored
            );
        }
        let out = wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(1), LocalSeq(3)),
            GlobalSeq(10),
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, GlobalSeq(10));
        assert_eq!(out[2].0, GlobalSeq(12));
        assert_eq!(out[1].1.local_seq, LocalSeq(2));
        assert_eq!(out[0].1.ordering_node, N1);
        // Second call is a no-op: entries already copied.
        let again = wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(1), LocalSeq(3)),
            GlobalSeq(10),
        );
        assert!(again.is_empty());
    }

    #[test]
    fn partial_range_orders_only_present() {
        let mut wq = WorkingQueue::new(64);
        wq.insert(N1, LocalSeq(1), PayloadId(1));
        wq.insert(N1, LocalSeq(3), PayloadId(3)); // ls 2 missing
        let out = wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(1), LocalSeq(3)),
            GlobalSeq(5),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, GlobalSeq(5)); // ls1 → gs5
        assert_eq!(out[1].0, GlobalSeq(7)); // ls3 → gs7 (gs6 reserved for ls2)
                                            // ls2 arrives late: its reserved number is still assigned correctly.
        wq.insert(N1, LocalSeq(2), PayloadId(2));
        let late = wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(1), LocalSeq(3)),
            GlobalSeq(5),
        );
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].0, GlobalSeq(6));
    }

    #[test]
    fn gc_requires_copy_and_the_next_front_past_the_gsn() {
        let mut wq = WorkingQueue::new(64);
        wq.insert(N1, LocalSeq(1), PayloadId(1));
        wq.insert(N1, LocalSeq(2), PayloadId(2));
        wq.insert(N2, LocalSeq(1), PayloadId(3));
        // N1's two messages are ordered as gs 7 and 8, N2's as gs 9.
        wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(1), LocalSeq(2)),
            GlobalSeq(7),
        );
        wq.take_orderable(
            N2,
            N2,
            LocalRange::new(LocalSeq(1), LocalSeq(1)),
            GlobalSeq(9),
        );
        assert_eq!(wq.gc(GlobalSeq(6)), 0, "the next node's front is below");
        assert_eq!(wq.gc(GlobalSeq(7)), 1);
        // One front releases every stream it has passed: no per-stream ack.
        assert_eq!(wq.gc(GlobalSeq(9)), 2);
        assert_eq!(wq.occupancy(), 0);
    }

    #[test]
    fn uncopied_entry_blocks_gc() {
        let mut wq = WorkingQueue::new(64);
        wq.insert(N1, LocalSeq(1), PayloadId(1));
        wq.insert(N1, LocalSeq(2), PayloadId(2));
        assert_eq!(
            wq.gc(GlobalSeq(u64::MAX)),
            0,
            "not ordered yet: no front, however far, releases it"
        );
        // An unordered entry also pins the ordered ones queued behind it.
        wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(2), LocalSeq(2)),
            GlobalSeq(1),
        );
        assert_eq!(wq.gc(GlobalSeq(u64::MAX)), 0);
    }

    #[test]
    fn nack_collection_per_source() {
        let mut wq = WorkingQueue::new(64);
        wq.insert(N1, LocalSeq(3), PayloadId(3)); // 1, 2 missing
        wq.insert(N2, LocalSeq(2), PayloadId(2)); // 1 missing
        let (reqs, lost) = wq.collect_nacks(2);
        assert_eq!(lost, 0);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0], (N1, vec![LocalSeq(1), LocalSeq(2)]));
        assert_eq!(reqs[1], (N2, vec![LocalSeq(1)]));
    }

    #[test]
    fn nack_exhaustion_goes_lost_and_gc_skips() {
        let mut wq = WorkingQueue::new(64);
        wq.insert(N1, LocalSeq(2), PayloadId(2));
        let (_, lost0) = wq.collect_nacks(0);
        assert_eq!(lost0, 1);
        // Lost slot at base can be GC'd; present-but-uncopied slot stays.
        assert_eq!(wq.gc(GlobalSeq(u64::MAX)), 1);
        assert_eq!(wq.get(N1, LocalSeq(2)), Some(PayloadId(2)));
    }

    #[test]
    fn overflow_counted() {
        let mut wq = WorkingQueue::new(2);
        assert_eq!(
            wq.insert(N1, LocalSeq(1), PayloadId(1)),
            InsertOutcome::Stored
        );
        assert_eq!(
            wq.insert(N1, LocalSeq(2), PayloadId(2)),
            InsertOutcome::Stored
        );
        assert_eq!(
            wq.insert(N1, LocalSeq(3), PayloadId(3)),
            InsertOutcome::Overflow
        );
        assert_eq!(wq.overflow_drops, 1);
    }

    #[test]
    fn duplicate_insert() {
        let mut wq = WorkingQueue::new(8);
        wq.insert(N1, LocalSeq(1), PayloadId(1));
        assert_eq!(
            wq.insert(N1, LocalSeq(1), PayloadId(1)),
            InsertOutcome::Duplicate
        );
    }

    #[test]
    fn peak_occupancy() {
        let mut wq = WorkingQueue::new(64);
        for ls in 1..=5u64 {
            wq.insert(N1, LocalSeq(ls), PayloadId(ls));
        }
        wq.take_orderable(
            N1,
            N1,
            LocalRange::new(LocalSeq(1), LocalSeq(5)),
            GlobalSeq(1),
        );
        wq.gc(GlobalSeq(5));
        assert_eq!(wq.occupancy(), 0);
        assert_eq!(wq.peak_occupancy(), 5);
    }
}
