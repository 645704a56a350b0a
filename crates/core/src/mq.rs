//! `MQ` — the per-entity MessageQueue of totally-ordered messages (§4.1).
//!
//! The paper allocates `MQ` as sequential storage with three pointers:
//! `Rear` (most recently received), `Front` (most recently delivered) and
//! `ValidFront` (oldest delivered message still kept — retained so the
//! entity can serve retransmissions to its downstream scope). Each slot
//! carries the flags `Received`, `Waiting`, `Delivered` plus the message
//! metadata (`SourceNode`, `LocalSeqNo`, `OrderingNode`, `GlobalSeqNo`,
//! `Payload`).
//!
//! This implementation indexes slots by [`GlobalSeq`] directly (a deque with
//! a moving base), which makes the paper's flag combinations explicit:
//!
//! * `Received=false, Waiting=true`  → [`Slot::Missing`] — a detected gap
//!   being chased by the local-scope retransmission scheme;
//! * `Received=false, Waiting=false, Delivered=true` → [`Slot::Lost`] — a
//!   *really lost* message: the retry budget ran out and, per §4.1, the
//!   message "is also considered to be delivered" (the queue skips it);
//! * `Received=true` → [`Slot::Received`], delivered or not.

use std::collections::VecDeque;

use crate::ids::{GlobalSeq, LocalSeq, NodeId, PayloadId};

/// Message metadata stored per slot (the paper's per-message attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgData {
    /// Where the message comes from (`SourceNode`).
    pub source: NodeId,
    /// Sequence number assigned by the source (`LocalSeqNo`).
    pub local_seq: LocalSeq,
    /// Top-ring node that ordered the message (`OrderingNode`).
    pub ordering_node: NodeId,
    /// Opaque application payload handle.
    pub payload: PayloadId,
}

/// One `MQ` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Known to exist (a later message arrived) but not received yet;
    /// `waiting` distinguishes "being chased" from "given up this tick".
    Missing {
        /// Retransmission still being awaited.
        waiting: bool,
        /// NACKs sent so far for this slot.
        nacks: u8,
    },
    /// Really lost: budget exhausted; counts as delivered and is skipped.
    Lost,
    /// Received; `delivered` mirrors the paper's `Delivered` flag.
    Received {
        /// Passed to the local delivery machinery already.
        delivered: bool,
        /// Message metadata.
        data: MsgData,
    },
}

/// Result of offering a message to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Newly stored.
    Stored,
    /// A received copy already occupied the slot.
    Duplicate,
    /// The slot was already garbage-collected or declared lost.
    Stale,
    /// Capacity would be exceeded; message dropped.
    Overflow,
}

/// Items produced when the queue's front advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverItem {
    /// Deliver this message.
    Deliver(GlobalSeq, MsgData),
    /// This sequence number was really lost; the order skips it.
    Skip(GlobalSeq),
}

/// The MessageQueue. See module docs.
#[derive(Debug, Clone)]
pub struct MessageQueue {
    /// Slot storage; index 0 corresponds to sequence number `base`.
    slots: VecDeque<Slot>,
    /// Sequence number of `slots[0]`.
    base: GlobalSeq,
    /// Most recently received sequence number (`Rear`). Zero until first insert.
    rear: GlobalSeq,
    /// Most recently delivered sequence number (`Front`): everything at or
    /// below it is delivered or skipped. Zero until first delivery.
    front: GlobalSeq,
    /// Capacity `MaxNo`.
    capacity: usize,
    /// Messages dropped due to overflow.
    pub overflow_drops: u64,
    /// Peak number of retained slots.
    peak: usize,
}

impl MessageQueue {
    /// Create a queue with capacity `MaxNo`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MQ capacity must be positive");
        MessageQueue {
            slots: VecDeque::new(),
            base: GlobalSeq::FIRST,
            rear: GlobalSeq::ZERO,
            front: GlobalSeq::ZERO,
            capacity,
            overflow_drops: 0,
            peak: 0,
        }
    }

    /// `Rear`: the highest received sequence number (zero before any).
    pub fn rear(&self) -> GlobalSeq {
        self.rear
    }

    /// `Front`: the highest delivered-or-skipped sequence number.
    pub fn front(&self) -> GlobalSeq {
        self.front
    }

    /// `ValidFront`: the oldest sequence number still retained.
    pub fn valid_front(&self) -> GlobalSeq {
        self.base
    }

    /// Number of retained slots.
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Peak retained-slot count over the queue's lifetime.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Capacity `MaxNo`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn idx(&self, gsn: GlobalSeq) -> Option<usize> {
        if gsn < self.base {
            return None;
        }
        let i = (gsn.0 - self.base.0) as usize;
        if i < self.slots.len() {
            Some(i)
        } else {
            None
        }
    }

    fn note_peak(&mut self) {
        if self.slots.len() > self.peak {
            self.peak = self.slots.len();
        }
    }

    /// Offer the message with sequence number `gsn`. Creates `Missing` gap
    /// slots for any unseen numbers below `gsn`.
    pub fn insert(&mut self, gsn: GlobalSeq, data: MsgData) -> InsertOutcome {
        debug_assert!(gsn.is_valid());
        if gsn < self.base {
            return InsertOutcome::Stale;
        }
        let rel = (gsn.0 - self.base.0) as usize;
        if rel >= self.capacity {
            self.overflow_drops += 1;
            return InsertOutcome::Overflow;
        }
        while self.slots.len() <= rel {
            self.slots.push_back(Slot::Missing {
                waiting: true,
                nacks: 0,
            });
        }
        self.note_peak();
        match self.slots[rel] {
            Slot::Received { .. } => InsertOutcome::Duplicate,
            Slot::Lost => InsertOutcome::Stale,
            Slot::Missing { .. } => {
                self.slots[rel] = Slot::Received {
                    delivered: false,
                    data,
                };
                if gsn > self.rear {
                    self.rear = gsn;
                }
                InsertOutcome::Stored
            }
        }
    }

    /// Advance `Front` over the next contiguous received-or-lost slot, if
    /// any, returning its delivery item. Received slots are marked
    /// `Delivered`. The allocation-free stepping primitive under
    /// [`Self::poll_deliverable`] — hot delivery loops call it directly so an
    /// empty poll (the common case: most arrivals don't advance `Front`)
    /// costs no `Vec`.
    pub fn next_deliverable(&mut self) -> Option<DeliverItem> {
        let next = self.front.next().max(self.base);
        let i = self.idx(next)?;
        match &mut self.slots[i] {
            Slot::Missing { .. } => None,
            Slot::Lost => {
                self.front = next;
                Some(DeliverItem::Skip(next))
            }
            Slot::Received { delivered, data } => {
                let d = *data;
                *delivered = true;
                self.front = next;
                Some(DeliverItem::Deliver(next, d))
            }
        }
    }

    /// Advance `Front` over every contiguous received-or-lost slot, returning
    /// the delivery items in order. Received slots are marked `Delivered`.
    /// Collecting convenience over [`Self::next_deliverable`] for tests and
    /// diagnostics.
    pub fn poll_deliverable(&mut self) -> Vec<DeliverItem> {
        std::iter::from_fn(|| self.next_deliverable()).collect()
    }

    /// Walk the missing slots between `Front` and `Rear`: every slot still
    /// `waiting` gets its NACK counter bumped and is returned for (re)request;
    /// slots whose counter already reached `budget` transition to `Lost`.
    ///
    /// Returns `(to_request, newly_lost)`.
    pub fn collect_nacks(&mut self, budget: u8) -> (Vec<GlobalSeq>, Vec<GlobalSeq>) {
        let mut to_request = Vec::new();
        let mut newly_lost = Vec::new();
        let start = self.front.next().max(self.base);
        if self.rear < start {
            return (to_request, newly_lost);
        }
        for gsn in start.0..=self.rear.0 {
            let gsn = GlobalSeq(gsn);
            let Some(i) = self.idx(gsn) else { continue };
            if let Slot::Missing { waiting, nacks } = &mut self.slots[i] {
                if !*waiting {
                    continue;
                }
                if *nacks >= budget {
                    self.slots[i] = Slot::Lost;
                    newly_lost.push(gsn);
                } else {
                    *nacks += 1;
                    to_request.push(gsn);
                }
            }
        }
        (to_request, newly_lost)
    }

    /// Metadata of a retained received message (for serving retransmissions).
    pub fn get(&self, gsn: GlobalSeq) -> Option<&MsgData> {
        let i = self.idx(gsn)?;
        match &self.slots[i] {
            Slot::Received { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Raw slot view (diagnostics, tests).
    pub fn slot(&self, gsn: GlobalSeq) -> Option<&Slot> {
        self.idx(gsn).map(|i| &self.slots[i])
    }

    /// Garbage-collect every slot at or below `gsn`, but never past the
    /// delivered front (undelivered messages must stay buffered).
    /// Returns the number of slots dropped.
    pub fn gc_to(&mut self, gsn: GlobalSeq) -> usize {
        let limit = gsn.min(self.front);
        let mut dropped = 0;
        while self.base <= limit && !self.slots.is_empty() {
            self.slots.pop_front();
            self.base = self.base.next();
            dropped += 1;
        }
        if self.slots.is_empty() && self.base <= limit {
            self.base = limit.next();
        }
        dropped
    }

    /// True when a message would still be accepted at `gsn`.
    pub fn accepts(&self, gsn: GlobalSeq) -> bool {
        gsn >= self.base && (gsn.0 - self.base.0) < self.capacity as u64
    }

    /// Skip everything at or below `gsn` without delivering it: history that
    /// predates this receiver's join point. Retained slots above `gsn` are
    /// kept. No-op when `gsn` is below the current front.
    pub fn fast_forward(&mut self, gsn: GlobalSeq) {
        if gsn <= self.front {
            return;
        }
        while self.base <= gsn && !self.slots.is_empty() {
            self.slots.pop_front();
            self.base = self.base.next();
        }
        if self.base <= gsn {
            self.base = gsn.next();
        }
        self.front = gsn;
        if self.rear < gsn {
            self.rear = gsn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(src: u32, ls: u64) -> MsgData {
        MsgData {
            source: NodeId(src),
            local_seq: LocalSeq(ls),
            ordering_node: NodeId(src),
            payload: PayloadId(ls),
        }
    }

    #[test]
    fn in_order_insert_and_deliver() {
        let mut q = MessageQueue::new(16);
        for g in 1..=5u64 {
            assert_eq!(q.insert(GlobalSeq(g), data(1, g)), InsertOutcome::Stored);
        }
        assert_eq!(q.rear(), GlobalSeq(5));
        let items = q.poll_deliverable();
        assert_eq!(items.len(), 5);
        assert!(matches!(items[0], DeliverItem::Deliver(GlobalSeq(1), _)));
        assert_eq!(q.front(), GlobalSeq(5));
        assert!(q.poll_deliverable().is_empty(), "second poll is empty");
    }

    #[test]
    fn gap_blocks_delivery() {
        let mut q = MessageQueue::new(16);
        q.insert(GlobalSeq(1), data(1, 1));
        q.insert(GlobalSeq(3), data(1, 3)); // gap at 2
        let items = q.poll_deliverable();
        assert_eq!(items.len(), 1);
        assert_eq!(q.front(), GlobalSeq(1));
        assert!(matches!(
            q.slot(GlobalSeq(2)),
            Some(Slot::Missing { waiting: true, .. })
        ));
        // Fill the gap: both 2 and 3 become deliverable.
        assert_eq!(q.insert(GlobalSeq(2), data(1, 2)), InsertOutcome::Stored);
        let items = q.poll_deliverable();
        assert_eq!(items.len(), 2);
        assert_eq!(q.front(), GlobalSeq(3));
    }

    #[test]
    fn duplicate_and_stale_detection() {
        let mut q = MessageQueue::new(16);
        q.insert(GlobalSeq(1), data(1, 1));
        assert_eq!(q.insert(GlobalSeq(1), data(1, 1)), InsertOutcome::Duplicate);
        q.poll_deliverable();
        q.gc_to(GlobalSeq(1));
        assert_eq!(q.insert(GlobalSeq(1), data(1, 1)), InsertOutcome::Stale);
    }

    #[test]
    fn overflow_guard() {
        let mut q = MessageQueue::new(4);
        for g in 1..=4u64 {
            assert_eq!(q.insert(GlobalSeq(g), data(1, g)), InsertOutcome::Stored);
        }
        assert_eq!(q.insert(GlobalSeq(5), data(1, 5)), InsertOutcome::Overflow);
        assert_eq!(q.overflow_drops, 1);
        assert!(!q.accepts(GlobalSeq(5)));
        // Delivering and GC'ing makes room again.
        q.poll_deliverable();
        q.gc_to(GlobalSeq(2));
        assert!(q.accepts(GlobalSeq(5)));
        assert_eq!(q.insert(GlobalSeq(5), data(1, 5)), InsertOutcome::Stored);
    }

    #[test]
    fn nack_escalation_to_lost() {
        let mut q = MessageQueue::new(16);
        q.insert(GlobalSeq(1), data(1, 1));
        q.insert(GlobalSeq(4), data(1, 4)); // gaps at 2, 3
        q.poll_deliverable();
        let budget = 2;
        let (req1, lost1) = q.collect_nacks(budget);
        assert_eq!(req1, vec![GlobalSeq(2), GlobalSeq(3)]);
        assert!(lost1.is_empty());
        let (req2, lost2) = q.collect_nacks(budget);
        assert_eq!(req2.len(), 2);
        assert!(lost2.is_empty());
        // Third round: counters hit the budget → both become Lost.
        let (req3, lost3) = q.collect_nacks(budget);
        assert!(req3.is_empty());
        assert_eq!(lost3, vec![GlobalSeq(2), GlobalSeq(3)]);
        // Lost slots are skipped by delivery, exactly like the paper's
        // "really lost ⇒ considered delivered".
        let items = q.poll_deliverable();
        assert_eq!(
            items,
            vec![
                DeliverItem::Skip(GlobalSeq(2)),
                DeliverItem::Skip(GlobalSeq(3)),
                DeliverItem::Deliver(GlobalSeq(4), data(1, 4)),
            ]
        );
    }

    #[test]
    fn late_arrival_after_lost_is_stale() {
        let mut q = MessageQueue::new(16);
        q.insert(GlobalSeq(2), data(1, 2));
        let (_, _) = q.collect_nacks(0); // budget 0 → immediate loss of gsn 1
        assert!(matches!(q.slot(GlobalSeq(1)), Some(Slot::Lost)));
        assert_eq!(q.insert(GlobalSeq(1), data(1, 1)), InsertOutcome::Stale);
    }

    #[test]
    fn gc_respects_front() {
        let mut q = MessageQueue::new(16);
        for g in 1..=6u64 {
            q.insert(GlobalSeq(g), data(1, g));
        }
        q.poll_deliverable();
        // Try to GC past front: clamped to front.
        let dropped = q.gc_to(GlobalSeq(100));
        assert_eq!(dropped, 6);
        assert_eq!(q.valid_front(), GlobalSeq(7));
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn gc_keeps_undelivered() {
        let mut q = MessageQueue::new(16);
        q.insert(GlobalSeq(1), data(1, 1));
        q.insert(GlobalSeq(3), data(1, 3));
        q.poll_deliverable(); // front = 1
        q.gc_to(GlobalSeq(3));
        // Only gsn 1 may be dropped: 2 is missing, 3 undelivered.
        assert_eq!(q.valid_front(), GlobalSeq(2));
        assert_eq!(q.occupancy(), 2);
        assert!(q.get(GlobalSeq(3)).is_some());
    }

    #[test]
    fn retransmission_service_window() {
        let mut q = MessageQueue::new(16);
        for g in 1..=3u64 {
            q.insert(GlobalSeq(g), data(1, g));
        }
        q.poll_deliverable();
        // ValidFront retention: still serves 1..=3 until GC.
        assert!(q.get(GlobalSeq(1)).is_some());
        q.gc_to(GlobalSeq(2));
        assert!(q.get(GlobalSeq(1)).is_none());
        assert!(q.get(GlobalSeq(3)).is_some());
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut q = MessageQueue::new(64);
        for g in 1..=10u64 {
            q.insert(GlobalSeq(g), data(1, g));
        }
        q.poll_deliverable();
        q.gc_to(GlobalSeq(10));
        assert_eq!(q.occupancy(), 0);
        assert_eq!(q.peak_occupancy(), 10);
    }

    #[test]
    fn out_of_order_arrival_delivers_in_order() {
        let mut q = MessageQueue::new(32);
        let order = [5u64, 1, 4, 2, 3];
        for g in order {
            q.insert(GlobalSeq(g), data(1, g));
        }
        let delivered: Vec<u64> = q
            .poll_deliverable()
            .into_iter()
            .map(|item| match item {
                DeliverItem::Deliver(g, _) => g.0,
                DeliverItem::Skip(g) => panic!("unexpected skip {g}"),
            })
            .collect();
        assert_eq!(delivered, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fast_forward_skips_history() {
        let mut q = MessageQueue::new(128);
        // Joiner receives a mid-stream message first.
        q.insert(GlobalSeq(57), data(1, 57));
        assert!(q.poll_deliverable().is_empty(), "blocked by history gap");
        q.fast_forward(GlobalSeq(56));
        let items = q.poll_deliverable();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], DeliverItem::Deliver(GlobalSeq(57), _)));
        assert_eq!(q.valid_front(), GlobalSeq(57));
        // Fast-forwarding backwards is a no-op.
        q.fast_forward(GlobalSeq(10));
        assert_eq!(q.front(), GlobalSeq(57));
    }

    #[test]
    fn fast_forward_on_fresh_queue() {
        let mut q = MessageQueue::new(16);
        q.fast_forward(GlobalSeq(100));
        assert_eq!(q.front(), GlobalSeq(100));
        assert_eq!(
            q.insert(GlobalSeq(101), data(1, 101)),
            InsertOutcome::Stored
        );
        assert_eq!(q.poll_deliverable().len(), 1);
        assert_eq!(q.insert(GlobalSeq(99), data(1, 99)), InsertOutcome::Stale);
    }

    #[test]
    fn empty_queue_edge_cases() {
        let mut q = MessageQueue::new(4);
        assert!(q.poll_deliverable().is_empty());
        let (req, lost) = q.collect_nacks(3);
        assert!(req.is_empty() && lost.is_empty());
        assert_eq!(q.gc_to(GlobalSeq(10)), 0);
        assert_eq!(q.rear(), GlobalSeq::ZERO);
        assert_eq!(q.front(), GlobalSeq::ZERO);
    }
}
