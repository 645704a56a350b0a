//! Deterministic pending-event set: a two-level calendar queue.
//!
//! Discrete-event protocol simulations schedule almost everything a few
//! link-latencies or timer-ticks ahead of `now`, so the classic global
//! `BinaryHeap` pays `O(log n)` sift cost on a structure dominated by
//! short-delay entries. This queue splits the future in two:
//!
//! * **near** — a ring of `NUM_BUCKETS` calendar buckets, each
//!   2^`BUCKET_BITS` nanoseconds wide (~134 ms of horizon). An entry lands in
//!   its time bucket in `O(1)` (a plain `Vec` push); when the cursor
//!   reaches a bucket it is sorted **once** (descending, so draining pops
//!   from the back) and drained in order — the *sorted-ring drain*. The
//!   rare entry scheduled into the bucket mid-drain is placed by binary
//!   search. This replaces the former per-bucket `BinaryHeap`s: a bucket
//!   of `k` entries pays one `k log k` sort per sweep instead of `2k`
//!   sift passes, and every pop is a branch-light `Vec::pop`.
//! * **far** — one overflow heap for entries beyond the horizon. As the
//!   cursor sweeps forward, far entries migrate into near exactly once.
//!
//! The heaps store only slim 24-byte *keys* `(time, seq, slot)`; payloads
//! are written once into a slab and never moved again. `seq` is a
//! monotonically increasing insertion counter, so the pop order —
//! `(time, seq)` lexicographic — is the same *total, reproducible* order
//! the previous global-heap implementation produced, including
//! insertion-order tie-breaks. That order is the determinism contract every
//! simulation in this workspace depends on; `simnet/tests/properties.rs`
//! checks it against a reference model.
//!
//! A bucket's `Vec` does not stay with its bucket: when the cursor leaves
//! a drained bucket the buffer goes onto a spare stack, and the next push
//! into a bucket with no buffer takes one from there. The queue thus keeps
//! about as many buffers as buckets are ever in use at once, not one per
//! bucket a burst ever landed in, each the size of its largest burst.
//!
//! Cancellation is `O(1)` and eager on the payload: the slab slot is freed
//! immediately (dropping the payload) and the stale key is discarded when
//! it surfaces. Slot reuse is ABA-safe because a key only matches a slot
//! that still holds its own `seq`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::Slab;
use crate::time::SimTime;

/// Width of one near bucket: 2^19 ns ≈ 0.52 ms — below the smallest
/// protocol timer, a fraction of typical link latencies.
const BUCKET_BITS: u32 = 19;
/// Buckets on the near ring: 256 × 0.52 ms ≈ 134 ms of horizon, beyond
/// every periodic protocol timer in this workspace.
pub(crate) const NUM_BUCKETS: usize = 256;

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.as_nanos() >> BUCKET_BITS
}

/// Handle to a scheduled entry, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// Slim heap entry: scheduling key plus the slab slot of the payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list (see the module docs for the
/// two-level structure and the determinism contract).
pub struct EventQueue<E> {
    /// Calendar ring; bucket `b` (absolute) lives at index `b % NUM_BUCKETS`.
    /// Non-cursor buckets are unsorted append logs; the cursor bucket is
    /// kept descending by `(time, seq)` while `cursor_sorted` holds, so
    /// the in-order drain is `Vec::pop` from the back.
    near: Vec<Vec<Key>>,
    /// Buffers of drained buckets the cursor has left, handed to the next
    /// bucket that needs one.
    spare: Vec<Vec<Key>>,
    /// Entries at or beyond the near horizon.
    far: BinaryHeap<Key>,
    /// Absolute bucket index of the scan position. Invariant: every key in
    /// `near` has bucket in `[cursor, cursor + NUM_BUCKETS)` (past-time
    /// entries are clamped into the cursor bucket), every key in `far` has
    /// bucket `>= cursor + NUM_BUCKETS`.
    cursor: u64,
    /// The cursor bucket has been sorted for draining; entries pushed into
    /// it while this holds are placed by binary search instead.
    cursor_sorted: bool,
    /// Keys currently stored in `near` (live or stale).
    near_keys: usize,
    /// Payloads (with their seq, for ABA-safe handle/key matching),
    /// indexed by `Key::slot` / `EventHandle::slot`.
    slots: Slab<(u64, E)>,
    next_seq: u64,
    /// Number of live (not cancelled, not popped) entries.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            far: BinaryHeap::new(),
            cursor: 0,
            cursor_sorted: false,
            near_keys: 0,
            slots: Slab::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Pre-size the payload slab for roughly `additional` more concurrent
    /// pending entries (used by builders that know the workload scale).
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// True when `key` still refers to a pending (not cancelled) payload.
    #[inline]
    fn key_live(&self, key: Key) -> bool {
        matches!(self.slots.get(key.slot), Some((seq, _)) if *seq == key.seq)
    }

    /// Descending `(time, seq)` — the sorted-drain order (pop from back =
    /// earliest first).
    #[inline]
    fn drain_order(a: &Key, b: &Key) -> Ordering {
        b.time.cmp(&a.time).then_with(|| b.seq.cmp(&a.seq))
    }

    /// Place a key into a near bucket. The cursor bucket, once sorted for
    /// draining, stays sorted via binary-search insertion; every other
    /// bucket is a plain append. A bucket without a buffer takes a spare.
    #[inline]
    fn push_near(&mut self, b: u64, key: Key) {
        let idx = (b % NUM_BUCKETS as u64) as usize;
        let bucket = &mut self.near[idx];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        if b == self.cursor && self.cursor_sorted {
            let at = bucket.partition_point(|k| Self::drain_order(k, &key) == Ordering::Less);
            bucket.insert(at, key);
        } else {
            bucket.push(key);
        }
        self.near_keys += 1;
    }

    fn push_key(&mut self, key: Key) {
        let b = bucket_of(key.time);
        if b >= self.cursor + NUM_BUCKETS as u64 {
            self.far.push(key);
        } else {
            // Past-time entries (clock clamps, zero-delay injections) land
            // in the cursor bucket; the drain order keeps them first.
            self.push_near(b.max(self.cursor), key);
        }
    }

    /// Sort the cursor bucket for draining (once per sweep).
    #[inline]
    fn sort_cursor_bucket(&mut self) {
        if !self.cursor_sorted {
            let idx = (self.cursor % NUM_BUCKETS as u64) as usize;
            self.near[idx].sort_unstable_by(Self::drain_order);
            self.cursor_sorted = true;
        }
    }

    /// Give the drained cursor bucket's buffer to the spare stack.
    fn shed_cursor_bucket(&mut self) {
        let idx = (self.cursor % NUM_BUCKETS as u64) as usize;
        debug_assert!(self.near[idx].is_empty());
        let buf = std::mem::take(&mut self.near[idx]);
        if buf.capacity() > 0 {
            self.spare.push(buf);
        }
    }

    /// Move the window forward one bucket and pull newly covered far
    /// entries into the calendar.
    fn advance(&mut self) {
        self.shed_cursor_bucket();
        self.cursor += 1;
        self.cursor_sorted = false;
        self.migrate();
    }

    /// Pull far entries whose bucket fell inside the near horizon.
    fn migrate(&mut self) {
        let horizon = self.cursor + NUM_BUCKETS as u64;
        while let Some(k) = self.far.peek() {
            if bucket_of(k.time) >= horizon {
                break;
            }
            let k = self.far.pop().expect("peeked");
            let b = bucket_of(k.time).max(self.cursor);
            self.push_near(b, k);
        }
    }

    /// When the calendar is empty, jump the window to the earliest far
    /// entry (if any) and migrate. Returns `false` when nothing is pending.
    fn refill_near(&mut self) -> bool {
        debug_assert_eq!(self.near_keys, 0);
        let Some(k) = self.far.peek() else {
            return false;
        };
        let jump_to = bucket_of(k.time);
        self.shed_cursor_bucket();
        self.cursor = self.cursor.max(jump_to);
        self.cursor_sorted = false;
        self.migrate();
        debug_assert!(self.near_keys > 0);
        true
    }

    /// Schedule `payload` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slots.insert((seq, payload));
        self.push_key(Key { time, seq, slot });
        self.live += 1;
        EventHandle { slot, seq }
    }

    /// Cancel a previously scheduled entry. Returns `true` if the handle was
    /// still pending (i.e. not yet popped or cancelled). The payload is
    /// dropped immediately; the stale key is discarded lazily.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if !matches!(self.slots.get(handle.slot), Some((seq, _)) if *seq == handle.seq) {
            return false;
        }
        drop(self.slots.remove(handle.slot));
        self.live -= 1;
        true
    }

    /// The earliest live key and the index of its bucket, discarding the
    /// stale keys in front of it; `None` when nothing is pending.
    #[inline]
    fn front(&mut self) -> Option<(usize, Key)> {
        loop {
            if self.near_keys == 0 && !self.refill_near() {
                return None;
            }
            self.sort_cursor_bucket();
            let idx = (self.cursor % NUM_BUCKETS as u64) as usize;
            match self.near[idx].last().copied() {
                Some(key) if self.key_live(key) => return Some((idx, key)),
                Some(_) => {
                    // Stale key of a cancelled entry: keep scanning.
                    self.near[idx].pop();
                    self.near_keys -= 1;
                }
                None => self.advance(),
            }
        }
    }

    /// Remove the entry [`Self::front`] just returned.
    #[inline]
    fn take_front(&mut self, idx: usize, key: Key) -> (SimTime, E) {
        self.near[idx].pop();
        self.near_keys -= 1;
        self.live -= 1;
        let (_, payload) = self.slots.remove(key.slot);
        (key.time, payload)
    }

    /// Remove and return the earliest live entry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (idx, key) = self.front()?;
        Some(self.take_front(idx, key))
    }

    /// Remove and return the earliest live entry if it is due at or before
    /// `until`: a peek at the front and a `pop` in one pass.
    #[inline]
    pub(crate) fn pop_through(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let (idx, key) = self.front().filter(|(_, key)| key.time <= until)?;
        Some(self.take_front(idx, key))
    }

    /// Number of live (schedulable) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every pending entry.
    pub fn clear(&mut self) {
        for bucket in &mut self.near {
            bucket.clear();
        }
        self.far.clear();
        self.slots.clear();
        self.near_keys = 0;
        self.live = 0;
        self.cursor = 0;
        self.cursor_sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_millis(1), 1);
        let h2 = q.schedule(SimTime::from_millis(2), 2);
        q.schedule(SimTime::from_millis(3), 3);
        assert_eq!(q.len(), 3);
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel must report false");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h1));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert!(!q.cancel(h), "cancelling a popped handle must report false");
        // The slot was reused; a stale handle must not kill the new entry.
        let h2 = q.schedule(SimTime::from_millis(1), 2);
        assert!(!q.cancel(h));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h2));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        q.cancel(h);
        assert_eq!(q.pop_through(SimTime::from_millis(1)), None);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_through_stops_at_the_bound() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        q.schedule(SimTime::from_secs(9), 3);
        q.cancel(h);
        assert_eq!(
            q.pop_through(SimTime::from_millis(2)),
            Some((SimTime::from_millis(2), 2))
        );
        assert_eq!(q.pop_through(SimTime::from_secs(8)), None);
        assert_eq!(q.len(), 1, "an entry past the bound stays");
        assert_eq!(
            q.pop_through(SimTime::from_secs(9)),
            Some((SimTime::from_secs(9), 3))
        );
    }

    #[test]
    fn clear_resets() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_entries_migrate_in_order() {
        // Entries far beyond the horizon, interleaved with near ones, pop
        // in global (time, seq) order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "far-b");
        q.schedule(SimTime::from_millis(1), "near");
        q.schedule(SimTime::from_secs(10), "far-c"); // same time: insertion order
        q.schedule(SimTime::from_secs(2), "mid");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "mid", "far-b", "far-c"]);
    }

    #[test]
    fn window_jump_then_near_schedule() {
        // After the window jumps to a far-future bucket, newly scheduled
        // short-delay entries still order correctly around it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "a");
        assert_eq!(q.pop_through(SimTime::from_secs(4)), None);
        q.schedule(
            SimTime::from_secs(5) + crate::SimDuration::from_micros(10),
            "b",
        );
        q.schedule(SimTime::from_secs(6), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn bucket_ring_wraps_many_horizons() {
        // March time across many full ring wraps.
        let mut q = EventQueue::new();
        let step = crate::SimDuration::from_millis(97); // not bucket aligned
        let mut t = SimTime::ZERO;
        for i in 0..500u64 {
            q.schedule(t, i);
            t += step;
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..500).collect::<Vec<_>>());
    }

    /// Keys the near buckets and the spare stack can hold without growing.
    fn key_capacity<E>(q: &EventQueue<E>) -> usize {
        let buffers = q.near.iter().chain(&q.spare);
        buffers.map(Vec::capacity).sum()
    }

    #[test]
    fn a_burst_per_sweep_costs_one_burst_of_buffer_not_one_per_bucket() {
        // One 1 000-key burst per sweep of the ring, each in a bucket no
        // earlier burst used, beside a timer that re-arms every 5 ms. Kept
        // per bucket, the burst capacity would add up sweep by sweep (12
        // bursts here, up to 256); passed on, it stays at the few buffers
        // that are ever in use at once (3 here, at 12 sweeps or at 60).
        const BURST: u64 = 1_000;
        const SWEEPS: u64 = 12;
        const TIMER: u64 = u64::MAX;
        let bucket = crate::SimDuration::from_nanos(1 << BUCKET_BITS);
        let mut q = EventQueue::new();
        for sweep in 0..SWEEPS {
            let at = SimTime::ZERO + bucket * ((NUM_BUCKETS as u64 + 7) * sweep + 3);
            for i in 0..BURST {
                q.schedule(at, i);
            }
        }
        q.schedule(SimTime::ZERO, TIMER);
        let last_burst = SimTime::ZERO + bucket * ((NUM_BUCKETS as u64 + 7) * (SWEEPS - 1) + 3);
        let (mut bursts, mut prev) = (0, SimTime::ZERO);
        while let Some((t, what)) = q.pop() {
            assert!(t >= prev, "time went backwards");
            prev = t;
            match what {
                TIMER if t < last_burst => {
                    q.schedule(t + crate::SimDuration::from_millis(5), TIMER);
                }
                TIMER => {}
                _ => bursts += 1,
            }
        }
        assert_eq!(bursts, SWEEPS * BURST);
        let capacity = key_capacity(&q);
        assert!(
            capacity <= 3 * 1024 + 64,
            "buckets and spares hold {capacity} keys of capacity after {SWEEPS} bursts of {BURST}"
        );
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let h = q.schedule(SimTime::from_nanos(round), round);
            if round % 3 == 0 {
                assert!(q.cancel(h));
            } else {
                assert!(q.pop().is_some());
            }
        }
        assert!(q.is_empty());
        // Steady-state single-entry churn must not grow the slab.
        assert!(
            q.slots.slot_count() <= 2,
            "slab grew to {}",
            q.slots.slot_count()
        );
    }
}
