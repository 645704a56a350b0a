//! `WT` — the WorkingTable of per-downstream delivery progress (§4.1).
//!
//! Each non-bottom entity keeps one entry per child node; each AP keeps one
//! entry per attached MH (keyed by `GUID`). The entry stores the maximal
//! global sequence number known to be delivered to that downstream
//! (`MaxGlobalSeqNo`), learned from cumulative ACKs. The table answers the
//! question the paper's `Delivered` flag needs: *"through which sequence
//! number has everything been delivered to all my children / MHs?"* — the
//! minimum over all entries — which also bounds garbage collection.

use std::collections::BTreeMap;

use crate::ids::GlobalSeq;

/// Per-downstream progress table, generic over the key (child `NodeId` for
/// interior entities, MH `Guid` for APs).
#[derive(Debug, Clone)]
pub struct WorkingTable<K: Ord + Copy> {
    entries: BTreeMap<K, GlobalSeq>,
}

impl<K: Ord + Copy> Default for WorkingTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> WorkingTable<K> {
    /// Create an empty table.
    pub fn new() -> Self {
        WorkingTable {
            entries: BTreeMap::new(),
        }
    }

    /// Add a downstream with initial progress `upto` (usually zero, or the
    /// resume point announced during a handoff). Keeps the larger value when
    /// the key is already present.
    #[inline]
    pub fn register(&mut self, key: K, upto: GlobalSeq) {
        let e = self.entries.entry(key).or_insert(upto);
        if upto > *e {
            *e = upto;
        }
    }

    /// Remove a departed downstream. Returns its last progress if present.
    pub fn remove(&mut self, key: K) -> Option<GlobalSeq> {
        self.entries.remove(&key)
    }

    /// Record a cumulative ACK. Regressions are ignored (stale ACKs).
    /// Returns true when the entry existed.
    #[inline]
    pub fn ack(&mut self, key: K, upto: GlobalSeq) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) => {
                if upto > *e {
                    *e = upto;
                }
                true
            }
            None => false,
        }
    }

    /// Progress of one downstream.
    #[inline]
    pub fn progress(&self, key: K) -> Option<GlobalSeq> {
        self.entries.get(&key).copied()
    }

    /// `MaxGlobalSeqNo` delivered to *all* downstreams — the minimum over
    /// entries; `None` when the table is empty (delivery is then vacuous).
    #[inline]
    pub fn min_progress(&self) -> Option<GlobalSeq> {
        self.entries.values().copied().min()
    }

    /// Number of downstreams tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no downstream is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(key, progress)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, GlobalSeq)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Guid, NodeId};

    #[test]
    fn register_and_ack() {
        let mut wt = WorkingTable::new();
        wt.register(NodeId(1), GlobalSeq::ZERO);
        wt.register(NodeId(2), GlobalSeq::ZERO);
        assert!(wt.ack(NodeId(1), GlobalSeq(5)));
        assert!(wt.ack(NodeId(2), GlobalSeq(3)));
        assert_eq!(wt.min_progress(), Some(GlobalSeq(3)));
        assert_eq!(wt.progress(NodeId(1)), Some(GlobalSeq(5)));
    }

    #[test]
    fn stale_acks_ignored() {
        let mut wt = WorkingTable::new();
        wt.register(NodeId(1), GlobalSeq::ZERO);
        wt.ack(NodeId(1), GlobalSeq(7));
        wt.ack(NodeId(1), GlobalSeq(4));
        assert_eq!(wt.progress(NodeId(1)), Some(GlobalSeq(7)));
    }

    #[test]
    fn unknown_key_ack_reports_false() {
        let mut wt: WorkingTable<NodeId> = WorkingTable::new();
        assert!(!wt.ack(NodeId(9), GlobalSeq(1)));
    }

    #[test]
    fn empty_table_has_no_min() {
        let wt: WorkingTable<Guid> = WorkingTable::new();
        assert_eq!(wt.min_progress(), None);
        assert!(wt.is_empty());
    }

    #[test]
    fn register_keeps_larger_progress() {
        let mut wt = WorkingTable::new();
        wt.register(Guid(1), GlobalSeq(10));
        wt.register(Guid(1), GlobalSeq(4));
        assert_eq!(wt.progress(Guid(1)), Some(GlobalSeq(10)));
        wt.register(Guid(1), GlobalSeq(12));
        assert_eq!(wt.progress(Guid(1)), Some(GlobalSeq(12)));
    }

    #[test]
    fn remove_returns_progress() {
        let mut wt = WorkingTable::new();
        wt.register(Guid(1), GlobalSeq(2));
        assert_eq!(wt.remove(Guid(1)), Some(GlobalSeq(2)));
        assert_eq!(wt.remove(Guid(1)), None);
        assert!(wt.is_empty());
    }

    #[test]
    fn min_progress_tracks_removals() {
        let mut wt = WorkingTable::new();
        wt.register(NodeId(1), GlobalSeq(1));
        wt.register(NodeId(2), GlobalSeq(9));
        assert_eq!(wt.min_progress(), Some(GlobalSeq(1)));
        wt.remove(NodeId(1));
        assert_eq!(wt.min_progress(), Some(GlobalSeq(9)));
    }
}
