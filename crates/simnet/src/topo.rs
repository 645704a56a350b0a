//! Mutable network topology: a set of nodes and directed links.
//!
//! Links are directed so that asymmetric channels (e.g. a clean downlink and
//! a lossy uplink) can be modelled; [`Topology::connect_duplex`] installs the
//! common symmetric case. Links are stored as per-source adjacency rows kept
//! sorted by destination: the row index is O(1), the destination probe is a
//! binary search over a handful of contiguous entries — the lookup runs once
//! per transmitted packet, where a tree walk over the whole link table
//! dominated the simulator's flat profile. Iteration order (row by row,
//! sorted within each row) is identical to the former
//! `BTreeMap<(src, dst), _>`, which matters for reproducible statistics
//! dumps.

use crate::link::{LinkProfile, LinkState};

/// Address of a node inside one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// The vector index backing this address.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Directed-link table.
#[derive(Default)]
pub struct Topology {
    /// Outgoing adjacency per source address, each row sorted by
    /// destination. Rows for unused addresses stay empty.
    out: Vec<Vec<(NodeAddr, LinkState)>>,
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    fn row(&self, src: NodeAddr) -> Option<&Vec<(NodeAddr, LinkState)>> {
        self.out.get(src.index())
    }

    /// Install (or replace) the directed link `src → dst`.
    pub(crate) fn connect(&mut self, src: NodeAddr, dst: NodeAddr, profile: LinkProfile) {
        let i = src.index();
        if i >= self.out.len() {
            self.out.resize_with(i + 1, Vec::new);
        }
        let row = &mut self.out[i];
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(p) => row[p].1 = LinkState::new(profile),
            Err(p) => row.insert(p, (dst, LinkState::new(profile))),
        }
    }

    /// Install the same profile in both directions.
    pub fn connect_duplex(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.connect(a, b, profile.clone());
        self.connect(b, a, profile);
    }

    /// Remove the directed link `src → dst`. Returns `true` if it existed.
    pub(crate) fn disconnect(&mut self, src: NodeAddr, dst: NodeAddr) -> bool {
        let Some(row) = self.out.get_mut(src.index()) else {
            return false;
        };
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(p) => {
                row.remove(p);
                true
            }
            Err(_) => false,
        }
    }

    /// Remove both directions between `a` and `b`.
    pub fn disconnect_duplex(&mut self, a: NodeAddr, b: NodeAddr) {
        self.disconnect(a, b);
        self.disconnect(b, a);
    }

    /// True when a directed link `src → dst` exists.
    pub fn has_link(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        self.link(src, dst).is_some()
    }

    /// Set the administrative up/down state of the directed link
    /// `src → dst`. Returns `true` when the link exists.
    pub fn set_link_up(&mut self, src: NodeAddr, dst: NodeAddr, up: bool) -> bool {
        match self.link_mut(src, dst) {
            Some(l) => {
                l.set_up(up);
                true
            }
            None => false,
        }
    }

    /// Set the up/down state of both directions between `a` and `b`
    /// (partition / heal fault injection). Returns `true` when at least
    /// one direction exists.
    pub fn set_duplex_up(&mut self, a: NodeAddr, b: NodeAddr, up: bool) -> bool {
        let fwd = self.set_link_up(a, b, up);
        let rev = self.set_link_up(b, a, up);
        fwd || rev
    }

    /// Mutable access to a directed link's runtime state.
    #[inline]
    pub(crate) fn link_mut(&mut self, src: NodeAddr, dst: NodeAddr) -> Option<&mut LinkState> {
        let row = self.out.get_mut(src.index())?;
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(p) => Some(&mut row[p].1),
            Err(_) => None,
        }
    }

    /// Read access to a directed link's runtime state.
    #[inline]
    pub fn link(&self, src: NodeAddr, dst: NodeAddr) -> Option<&LinkState> {
        let row = self.row(src)?;
        match row.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(p) => Some(&row[p].1),
            Err(_) => None,
        }
    }

    /// All outgoing neighbours of `src`, in address order.
    pub fn neighbours(&self, src: NodeAddr) -> impl Iterator<Item = NodeAddr> + '_ {
        self.row(src)
            .map(|r| r.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(dst, _)| dst)
    }

    /// Iterate over every directed link (deterministic order: by source
    /// address, then destination).
    pub fn iter(&self) -> impl Iterator<Item = (NodeAddr, NodeAddr, &LinkState)> {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().map(move |(d, l)| (NodeAddr(s as u32), *d, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn p() -> LinkProfile {
        LinkProfile::wired(SimDuration::from_millis(1))
    }

    #[test]
    fn connect_and_query() {
        let mut t = Topology::new();
        t.connect(NodeAddr(0), NodeAddr(1), p());
        assert!(t.has_link(NodeAddr(0), NodeAddr(1)));
        assert!(!t.has_link(NodeAddr(1), NodeAddr(0)), "links are directed");
        t.connect_duplex(NodeAddr(2), NodeAddr(3), p());
        assert!(t.has_link(NodeAddr(2), NodeAddr(3)));
        assert!(t.has_link(NodeAddr(3), NodeAddr(2)));
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn disconnect_removes() {
        let mut t = Topology::new();
        t.connect_duplex(NodeAddr(0), NodeAddr(1), p());
        assert!(t.disconnect(NodeAddr(0), NodeAddr(1)));
        assert!(!t.has_link(NodeAddr(0), NodeAddr(1)));
        assert!(t.has_link(NodeAddr(1), NodeAddr(0)));
        assert!(!t.disconnect(NodeAddr(0), NodeAddr(1)), "double disconnect");
        t.disconnect_duplex(NodeAddr(0), NodeAddr(1));
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn neighbours_in_order() {
        let mut t = Topology::new();
        for d in [5u32, 1, 9, 3] {
            t.connect(NodeAddr(7), NodeAddr(d), p());
        }
        t.connect(NodeAddr(8), NodeAddr(0), p());
        let ns: Vec<u32> = t.neighbours(NodeAddr(7)).map(|n| n.0).collect();
        assert_eq!(ns, vec![1, 3, 5, 9]);
    }

    #[test]
    fn duplex_up_down_toggles_both_directions() {
        let mut t = Topology::new();
        t.connect_duplex(NodeAddr(0), NodeAddr(1), p());
        assert!(t.set_duplex_up(NodeAddr(0), NodeAddr(1), false));
        assert!(!t.link(NodeAddr(0), NodeAddr(1)).unwrap().is_up());
        assert!(!t.link(NodeAddr(1), NodeAddr(0)).unwrap().is_up());
        assert!(t.set_duplex_up(NodeAddr(0), NodeAddr(1), true));
        assert!(t.link(NodeAddr(0), NodeAddr(1)).unwrap().is_up());
        // No such link: reports false.
        assert!(!t.set_duplex_up(NodeAddr(5), NodeAddr(6), false));
    }

    #[test]
    fn replace_link_resets_state() {
        let mut t = Topology::new();
        t.connect(NodeAddr(0), NodeAddr(1), p());
        t.link_mut(NodeAddr(0), NodeAddr(1)).unwrap().offered = 42;
        t.connect(NodeAddr(0), NodeAddr(1), p());
        assert_eq!(t.link(NodeAddr(0), NodeAddr(1)).unwrap().offered, 0);
    }
}
