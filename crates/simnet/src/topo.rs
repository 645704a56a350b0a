//! Mutable network topology: a set of nodes and directed links.
//!
//! Links are directed so that asymmetric channels (e.g. a clean downlink and
//! a lossy uplink) can be modelled; [`Topology::connect_duplex`] installs the
//! common symmetric case.
//!
//! **Row layout.** Every wire packet looks its link up once, so the table
//! is laid out for that lookup. Each source address owns a row: its
//! destinations, sorted, in a dense `Vec<NodeAddr>`, and its links beside
//! them in a second vector in the same order. The row index is O(1); the
//! binary search reads only the address array; the hit then touches one
//! 56-byte link entry, less than a cache line: the link's 16-byte channel
//! (Gilbert–Elliott state, up flag, serializer horizon and queue), its
//! 32-byte draw stream, its connection ordinal and a `u32` index of its
//! profile. (Aligning the entry to 64 bytes measured no faster and made
//! every row allocation an aligned one, which cost set-up time.) Iteration
//! order (row by row, sorted within each row) is that of a
//! `BTreeMap<(src, dst), _>`, which reproducible statistics dumps rely on.
//!
//! **Shared profiles.** A world installs a handful of distinct
//! [`LinkProfile`]s over thousands of links (a default-plan RingNet world
//! has at most six: top ring, AG ring, BR–AG, AG–AP, wireless, source), so
//! the topology interns each profile once in a table and a link carries
//! its index. [`LinkState`](crate::link::LinkState) is the standalone form
//! of the same link, a profile and a channel together; both transmit
//! through the one channel code path.
//!
//! **Draw streams.** Each directed link owns its loss-and-jitter draw
//! stream, derived from the run seed, the pair, and how many times the
//! pair was connected before ([`link_stream`]). A link's outcomes therefore
//! depend only on the sequence of packets offered to *it*: reordering sends
//! across different links, even within one simulated instant, re-rolls
//! nothing, and a re-attachment draws afresh instead of replaying the old
//! stream.

use std::collections::BTreeMap;

use crate::link::{Channel, LinkProfile, TxOutcome};
use crate::rng::{splitmix64, SimRng};
use crate::time::SimTime;

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

/// Salt separating link streams from the other streams of one seed.
const LINK_STREAMS: u64 = 0x4C49_4E4B_5354_524D;

/// The draw stream of the `nth` connection (0-based) of `src → dst` in the
/// run seeded `seed`.
pub fn link_stream(seed: u64, src: NodeAddr, dst: NodeAddr, nth: u64) -> SimRng {
    let pair = (u64::from(src.0) << 32) | u64::from(dst.0);
    SimRng::derive(
        splitmix64(seed ^ LINK_STREAMS),
        splitmix64(pair).wrapping_add(nth),
    )
}

/// One directed link as the topology stores it, in 56 bytes: its draw
/// stream, its channel, which connection of the pair it is (0-based) and
/// the index of its profile in the topology's table.
struct Link {
    draws: SimRng,
    channel: Channel,
    nth: u32,
    profile: u32,
}

/// One source's outgoing links: the sorted destinations, dense, and the
/// links beside them in the same order.
#[derive(Default)]
struct Row {
    dsts: Vec<NodeAddr>,
    links: Vec<Link>,
}

impl Row {
    #[inline]
    fn find(&self, dst: NodeAddr) -> Result<usize, usize> {
        self.dsts.binary_search(&dst)
    }

    #[inline]
    fn link_mut(&mut self, dst: NodeAddr) -> Option<&mut Link> {
        let p = self.find(dst).ok()?;
        Some(&mut self.links[p])
    }
}

/// Directed-link table.
#[derive(Default)]
pub struct Topology {
    /// The run seed every link's draw stream derives from.
    seed: u64,
    /// Outgoing adjacency per source address, each row sorted by
    /// destination. Rows for unused addresses stay empty.
    out: Vec<Row>,
    /// The distinct profiles installed so far; a link holds an index.
    profiles: Vec<LinkProfile>,
    /// The index `intern` returned last.
    last_profile: u32,
    /// For each directed pair once connected and now not: how many times it
    /// was connected, so a re-attachment gets a stream of its own.
    retired: BTreeMap<(NodeAddr, NodeAddr), u32>,
}

impl Topology {
    /// Create an empty topology whose links draw under the run seed `seed`.
    pub(crate) fn with_seed(seed: u64) -> Self {
        Topology {
            seed,
            ..Self::default()
        }
    }

    fn row(&self, src: NodeAddr) -> Option<&Row> {
        self.out.get(src.index())
    }

    /// The table index of `profile`, added when new. Worlds install the
    /// same few profiles over and over, mostly the one installed last, so
    /// that is tried before the scan.
    fn intern(&mut self, profile: LinkProfile) -> u32 {
        if self.profiles.get(self.last_profile as usize) != Some(&profile) {
            let at = match self.profiles.iter().position(|p| *p == profile) {
                Some(at) => at,
                None => {
                    self.profiles.push(profile);
                    self.profiles.len() - 1
                }
            };
            self.last_profile = at as u32;
        }
        self.last_profile
    }

    /// Install (or replace) the directed link `src → dst` with the
    /// interned profile `profile`, a fresh channel and the draw stream of
    /// this connection.
    fn attach(&mut self, src: NodeAddr, dst: NodeAddr, profile: u32) {
        let i = src.index();
        if i >= self.out.len() {
            self.out.resize_with(i + 1, Row::default);
        }
        let seed = self.seed;
        let link = |nth: u32| Link {
            draws: link_stream(seed, src, dst, u64::from(nth)),
            channel: Channel::new(),
            nth,
            profile,
        };
        let row = &mut self.out[i];
        match row.find(dst) {
            Ok(p) => row.links[p] = link(row.links[p].nth + 1),
            Err(p) => {
                row.dsts.insert(p, dst);
                let nth = self.retired.remove(&(src, dst)).unwrap_or(0);
                row.links.insert(p, link(nth));
            }
        }
    }

    /// Install (or replace) the directed link `src → dst`, with a fresh
    /// state and the draw stream of this connection.
    pub(crate) fn connect(&mut self, src: NodeAddr, dst: NodeAddr, profile: LinkProfile) {
        let profile = self.intern(profile);
        self.attach(src, dst, profile);
    }

    /// Install the same profile in both directions.
    pub fn connect_duplex(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        let profile = self.intern(profile);
        self.attach(a, b, profile);
        self.attach(b, a, profile);
    }

    /// Remove the directed link `src → dst`. Returns `true` if it existed.
    pub(crate) fn disconnect(&mut self, src: NodeAddr, dst: NodeAddr) -> bool {
        let Some(row) = self.out.get_mut(src.index()) else {
            return false;
        };
        match row.find(dst) {
            Ok(p) => {
                row.dsts.remove(p);
                let link = row.links.remove(p);
                self.retired.insert((src, dst), link.nth + 1);
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
        self.row(src).is_some_and(|row| row.find(dst).is_ok())
    }

    /// Set the administrative up/down state of the directed link
    /// `src → dst`. Returns `true` when the link exists.
    pub fn set_link_up(&mut self, src: NodeAddr, dst: NodeAddr, up: bool) -> bool {
        match self.out.get_mut(src.index()).and_then(|r| r.link_mut(dst)) {
            Some(link) => {
                link.channel.set_up(up);
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

    /// Offer one packet of `size` bytes to the link `src → dst` at `now`,
    /// drawing from that link's own stream: the outcome, or `None` when
    /// there is no such link.
    #[inline]
    pub fn transmit(
        &mut self,
        src: NodeAddr,
        dst: NodeAddr,
        now: SimTime,
        size: usize,
    ) -> Option<TxOutcome> {
        let link = self.out.get_mut(src.index())?.link_mut(dst)?;
        let profile = &self.profiles[link.profile as usize];
        Some(link.channel.transmit(profile, now, size, &mut link.draws))
    }

    /// The profile of the directed link `src → dst`.
    pub fn profile(&self, src: NodeAddr, dst: NodeAddr) -> Option<&LinkProfile> {
        let row = self.row(src)?;
        let p = row.find(dst).ok()?;
        Some(&self.profiles[row.links[p].profile as usize])
    }

    /// All outgoing neighbours of `src`, in address order.
    pub fn neighbours(&self, src: NodeAddr) -> impl Iterator<Item = NodeAddr> + '_ {
        self.row(src).map_or(&[][..], |r| &r.dsts).iter().copied()
    }

    /// Every directed link with its profile (deterministic order: by source
    /// address, then destination). Links sharing a profile yield the same
    /// reference.
    pub fn iter(&self) -> impl Iterator<Item = (NodeAddr, NodeAddr, &LinkProfile)> {
        self.out.iter().enumerate().flat_map(move |(s, row)| {
            (row.dsts.iter().zip(&row.links))
                .map(move |(&dst, l)| (NodeAddr(s as u32), dst, &self.profiles[l.profile as usize]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;
    use crate::time::SimDuration;

    fn p() -> LinkProfile {
        LinkProfile::wired(SimDuration::from_millis(1))
    }

    #[test]
    fn connect_and_query() {
        let mut t = Topology::default();
        t.connect(NodeAddr(0), NodeAddr(1), p());
        assert!(t.has_link(NodeAddr(0), NodeAddr(1)));
        assert!(!t.has_link(NodeAddr(1), NodeAddr(0)), "links are directed");
        t.connect_duplex(NodeAddr(2), NodeAddr(3), p());
        assert!(t.has_link(NodeAddr(2), NodeAddr(3)));
        assert!(t.has_link(NodeAddr(3), NodeAddr(2)));
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.profile(NodeAddr(2), NodeAddr(3)), Some(&p()));
        assert_eq!(t.profile(NodeAddr(1), NodeAddr(0)), None);
    }

    #[test]
    fn disconnect_removes() {
        let mut t = Topology::default();
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
        let mut t = Topology::default();
        for d in [5u32, 1, 9, 3] {
            t.connect(NodeAddr(7), NodeAddr(d), p());
        }
        t.connect(NodeAddr(8), NodeAddr(0), p());
        let ns: Vec<u32> = t.neighbours(NodeAddr(7)).map(|n| n.0).collect();
        assert_eq!(ns, vec![1, 3, 5, 9]);
    }

    /// Offer one 64-byte packet at time zero.
    fn send(t: &mut Topology, src: u32, dst: u32) -> Option<TxOutcome> {
        t.transmit(NodeAddr(src), NodeAddr(dst), SimTime::ZERO, 64)
    }

    #[test]
    fn duplex_up_down_toggles_both_directions() {
        let mut t = Topology::default();
        t.connect_duplex(NodeAddr(0), NodeAddr(1), p());
        assert!(t.set_duplex_up(NodeAddr(0), NodeAddr(1), false));
        assert_eq!(send(&mut t, 0, 1), Some(TxOutcome::Down));
        assert_eq!(send(&mut t, 1, 0), Some(TxOutcome::Down));
        assert!(t.set_duplex_up(NodeAddr(0), NodeAddr(1), true));
        assert!(matches!(send(&mut t, 0, 1), Some(TxOutcome::Deliver(_))));
        // No such link: reports false, and nothing transmits.
        assert!(!t.set_duplex_up(NodeAddr(5), NodeAddr(6), false));
        assert_eq!(send(&mut t, 5, 6), None);
    }

    #[test]
    fn each_connection_draws_its_own_stream() {
        // A jittered link: the arrival time is the stream's first draw.
        let jittered = LinkProfile::wireless(SimDuration::ZERO, SimDuration::from_secs(1), 0.0);
        let first_arrival = |t: &mut Topology, src: u32, dst: u32| send(t, src, dst).unwrap();
        let mut t = Topology::with_seed(9);
        t.connect_duplex(NodeAddr(0), NodeAddr(1), jittered.clone());
        t.connect(NodeAddr(0), NodeAddr(2), jittered.clone());
        let first = first_arrival(&mut t, 0, 1);
        assert_ne!(first, first_arrival(&mut t, 1, 0), "directions differ");
        assert_ne!(first, first_arrival(&mut t, 0, 2), "destinations differ");
        let mut stream0 = link_stream(9, NodeAddr(0), NodeAddr(1), 0);
        assert_eq!(
            first,
            Channel::new().transmit(&jittered, SimTime::ZERO, 64, &mut stream0),
            "a pair's first connection draws stream 0"
        );
        // Re-attachment: a new stream, not a replay of the old one.
        t.disconnect_duplex(NodeAddr(0), NodeAddr(1));
        t.connect_duplex(NodeAddr(0), NodeAddr(1), jittered);
        assert_ne!(
            first_arrival(&mut t, 0, 1),
            first,
            "a reconnection draws afresh"
        );
        assert_ne!(
            link_stream(10, NodeAddr(0), NodeAddr(1), 0).next_u64(),
            link_stream(9, NodeAddr(0), NodeAddr(1), 0).next_u64(),
            "streams depend on the seed"
        );
    }

    #[test]
    fn replace_link_resets_state() {
        // 8000 bits/s: a 100-byte packet holds the serializer for 100 ms.
        let slow = LinkProfile {
            bandwidth: crate::link::BandwidthModel::Limited {
                bits_per_sec: 8_000,
                queue_limit: 16,
            },
            ..LinkProfile::wired(SimDuration::ZERO)
        };
        let mut t = Topology::default();
        let (a, b) = (NodeAddr(0), NodeAddr(1));
        t.connect(a, b, slow.clone());
        t.transmit(a, b, SimTime::ZERO, 100);
        t.connect(a, b, slow);
        assert_eq!(
            t.transmit(a, b, SimTime::ZERO, 100),
            Some(TxOutcome::Deliver(SimTime::from_millis(100))),
            "the replacement starts with an idle serializer"
        );
    }

    #[test]
    fn links_fit_a_cache_line_and_share_profiles() {
        assert_eq!(std::mem::size_of::<Link>(), 56);
        let wireless = p().with_loss(LossModel::lossy_wireless());
        let mut t = Topology::default();
        for i in 0..100u32 {
            let profile = if i % 3 == 0 { wireless.clone() } else { p() };
            t.connect_duplex(NodeAddr(i), NodeAddr(i + 1), profile);
        }
        assert_eq!(t.profiles.len(), 2);
        let shared = |a: u32, b: u32| t.profile(NodeAddr(a), NodeAddr(b)).unwrap() as *const _;
        assert_eq!(shared(1, 2), shared(5, 4), "one copy per distinct profile");
    }
}
