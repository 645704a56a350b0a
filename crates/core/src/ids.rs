//! Protocol identities and sequence numbers.
//!
//! Faithful to the paper's §4.1 naming: groups are addressed by `GID`,
//! network entities (APs/AGs/BRs) by `NodeID`, mobile hosts by globally /
//! locally unique ids (`GUID`/`LUID` — Mobile IP home address / care-of
//! address in the paper), messages by a per-source `LocalSeqNo` and, once
//! ordered, a group-wide `GlobalSeqNo`.

use core::fmt;

/// Group identity (the paper's `GID`, e.g. an IP multicast class-D address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u32);

/// Network-entity identity (the paper's `NodeID`): BRs, AGs and APs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Base of the reserved virtual-node range used by the cross-group fence:
/// each group's funnel ingests fenced messages as a synthetic source stream
/// keyed by `NodeId::fence_virtual(group)`. Real entities never get ids in
/// this range (`u32::MAX` stays free as the address-map sentinel).
const VIRTUAL_FENCE_BASE: u32 = 0xFFFF_0000;

impl NodeId {
    /// The virtual source identity of group `g`'s fence funnel stream.
    pub(crate) fn fence_virtual(g: GroupId) -> NodeId {
        debug_assert!(g.0 < u32::MAX - VIRTUAL_FENCE_BASE);
        NodeId(VIRTUAL_FENCE_BASE + g.0)
    }

    /// True for fence-funnel virtual identities (never real entities).
    pub(crate) fn is_fence_virtual(self) -> bool {
        self.0 >= VIRTUAL_FENCE_BASE && self.0 != u32::MAX
    }
}

/// Globally unique mobile-host identity (the paper's `GUID`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Guid(pub u32);

/// Per-source sequence number assigned by a multicast source
/// (the paper's `LocalSeqNo`). Starts at 1; 0 means "none yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalSeq(pub u64);

/// Group-wide total-order sequence number assigned by the ordering token
/// (the paper's `GlobalSeqNo`). Starts at 1; 0 means "none yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalSeq(pub u64);

/// Token generation number. Incremented every time the Token-Regeneration
/// algorithm creates a replacement token, so stale and regenerated tokens
/// can be distinguished during Multiple-Token resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u32);

impl Epoch {
    /// The epoch every group's initial token starts in. Every later epoch
    /// is minted by `ring_epoch::EpochFence::regenerate` — nothing else
    /// constructs a raw `Epoch` (enforced by ringlint's `epoch-fence`).
    pub const ZERO: Epoch = Epoch(0);
}

/// Identifies an application payload. The simulation carries no payload
/// bytes, and a link never prices a packet by its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PayloadId(pub u64);

/// Either kind of protocol endpoint: a network entity or a mobile host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A network entity (BR, AG or AP).
    Ne(NodeId),
    /// A mobile host.
    Mh(Guid),
}

macro_rules! seq_impl {
    ($t:ident) => {
        impl $t {
            /// The "none yet" sentinel (sequences start at 1).
            pub const ZERO: $t = $t(0);
            /// The first valid sequence number.
            pub(crate) const FIRST: $t = $t(1);

            /// The next sequence number.
            #[inline]
            pub fn next(self) -> $t {
                $t(self.0 + 1)
            }

            /// The previous sequence number, saturating at zero.
            #[inline]
            pub fn prev(self) -> $t {
                $t(self.0.saturating_sub(1))
            }

            /// Advance by `n`.
            #[inline]
            pub fn advance(self, n: u64) -> $t {
                $t(self.0 + n)
            }

            /// Distance from `other` to `self` (`self - other`), saturating.
            #[inline]
            pub fn since(self, other: $t) -> u64 {
                self.0.saturating_sub(other.0)
            }

            /// True for real sequence numbers (non-sentinel).
            #[inline]
            pub(crate) fn is_valid(self) -> bool {
                self.0 > 0
            }
        }
    };
}

seq_impl!(LocalSeq);
seq_impl!(GlobalSeq);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ne{}", self.0)
    }
}
impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mh{}", self.0)
    }
}
impl fmt::Display for LocalSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ls{}", self.0)
    }
}
impl fmt::Display for GlobalSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gs{}", self.0)
    }
}
impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Ne(n) => write!(f, "{n}"),
            Endpoint::Mh(m) => write!(f, "{m}"),
        }
    }
}

/// An inclusive range of local sequence numbers from one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRange {
    /// First local sequence number of the range.
    pub min: LocalSeq,
    /// Last local sequence number of the range (inclusive).
    pub max: LocalSeq,
}

impl LocalRange {
    /// Create a range; panics when `min > max` or either bound is invalid.
    pub fn new(min: LocalSeq, max: LocalSeq) -> Self {
        assert!(
            min.is_valid() && max.is_valid() && min <= max,
            "bad range {min}..={max}"
        );
        LocalRange { min, max }
    }

    /// Number of sequence numbers covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.max.0 - self.min.0 + 1
    }

    /// Never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when `ls` lies inside the range.
    #[inline]
    pub fn contains(&self, ls: LocalSeq) -> bool {
        self.min <= ls && ls <= self.max
    }

    /// Iterate over the covered local sequence numbers.
    pub fn iter(&self) -> impl Iterator<Item = LocalSeq> {
        (self.min.0..=self.max.0).map(LocalSeq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_arithmetic() {
        let s = LocalSeq::FIRST;
        assert_eq!(s.next(), LocalSeq(2));
        assert_eq!(s.prev(), LocalSeq(0));
        assert_eq!(LocalSeq::ZERO.prev(), LocalSeq(0));
        assert_eq!(s.advance(10), LocalSeq(11));
        assert_eq!(LocalSeq(11).since(s), 10);
        assert_eq!(s.since(LocalSeq(11)), 0);
        assert!(!LocalSeq::ZERO.is_valid());
        assert!(LocalSeq::FIRST.is_valid());
    }

    #[test]
    fn global_seq_mirrors_local() {
        assert_eq!(GlobalSeq::FIRST.advance(4), GlobalSeq(5));
        assert_eq!(GlobalSeq(5).since(GlobalSeq(2)), 3);
    }

    #[test]
    fn range_basics() {
        let r = LocalRange::new(LocalSeq(3), LocalSeq(7));
        assert_eq!(r.len(), 5);
        assert!(r.contains(LocalSeq(3)));
        assert!(r.contains(LocalSeq(7)));
        assert!(!r.contains(LocalSeq(8)));
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![
                LocalSeq(3),
                LocalSeq(4),
                LocalSeq(5),
                LocalSeq(6),
                LocalSeq(7)
            ]
        );
    }

    #[test]
    fn singleton_range() {
        let r = LocalRange::new(LocalSeq(4), LocalSeq(4));
        assert_eq!(r.len(), 1);
        assert!(r.contains(LocalSeq(4)));
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn inverted_range_panics() {
        let _ = LocalRange::new(LocalSeq(5), LocalSeq(4));
    }

    #[test]
    fn fence_virtual_ids_are_reserved_and_distinct() {
        let a = NodeId::fence_virtual(GroupId(1));
        let b = NodeId::fence_virtual(GroupId(2));
        assert_ne!(a, b);
        assert!(a.is_fence_virtual());
        assert!(b.is_fence_virtual());
        assert!(!NodeId(0).is_fence_virtual());
        assert!(!NodeId(100_000).is_fence_virtual());
        // u32::MAX stays free for the address-map sentinel.
        assert!(!NodeId(u32::MAX).is_fence_virtual());
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(format!("{}", NodeId(3)), "ne3");
        assert_eq!(format!("{}", Guid(4)), "mh4");
        assert_eq!(format!("{}", Endpoint::Ne(NodeId(1))), "ne1");
        assert_eq!(format!("{}", Endpoint::Mh(Guid(2))), "mh2");
        assert_eq!(format!("{}", GlobalSeq(9)), "gs9");
    }
}
