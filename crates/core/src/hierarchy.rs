//! RingNet hierarchy specification (§3, Figure 1).
//!
//! A [`HierarchySpec`] declares the whole four-tier structure — the top BR
//! ring, the AG rings with their candidate parent BRs, the APs with their
//! candidate parent AGs and neighbour lists, the MHs with their initial
//! attachment, and the multicast sources with their traffic patterns — plus
//! the link profiles of every scope. Per Remark 2 the candidate-contactor
//! relationships are static configuration.
//!
//! Specs are derived from a [`crate::driver::Scenario`]: its
//! [`crate::driver::CoreShape`] lays out a regular hierarchy (`b` BRs, `g` AG
//! rings of `a` AGs, the attachments spread evenly over the AGs), and
//! [`crate::driver::ScenarioBuilder::figure1`] is the topology drawn in the
//! paper's Figure 1.

use std::collections::BTreeSet;

use simnet::{LinkProfile, NodeAddr, SimDuration, SimTime};

use crate::config::{ProtocolConfig, AG_RING_CAP, TOKEN_RETRY_AFTER};
use crate::driver::{CoreShape, Scenario};
use crate::ids::{GroupId, Guid, NodeId};

/// Traffic pattern of one multicast source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Constant bit rate: one message every `interval`.
    Cbr {
        /// Inter-message interval.
        interval: SimDuration,
    },
    /// Poisson arrivals at `rate` messages per second.
    Poisson {
        /// Mean rate (messages/second).
        rate: f64,
    },
}

impl TrafficPattern {
    /// Mean inter-message interval — the CBR equivalent of this pattern.
    /// Single-ingest backends without a Poisson source (tunnel, RelM)
    /// degrade Poisson traffic to CBR at this interval.
    pub fn mean_interval(&self) -> SimDuration {
        match *self {
            TrafficPattern::Cbr { interval } => interval,
            TrafficPattern::Poisson { rate } => SimDuration::from_secs_f64(1.0 / rate.max(1e-9)),
        }
    }

    /// Mean rate in messages per second.
    pub fn rate_per_sec(&self) -> f64 {
        match *self {
            TrafficPattern::Cbr { interval } => {
                if interval.is_zero() {
                    0.0
                } else {
                    1e9 / interval.as_nanos() as f64
                }
            }
            TrafficPattern::Poisson { rate } => rate,
        }
    }

    /// What makes this pattern unrunnable, if anything: a zero CBR interval
    /// re-arms the source timer at the same instant forever, and a Poisson
    /// rate that is not positive and finite draws no usable gap.
    pub(crate) fn problem(&self) -> Option<String> {
        match *self {
            TrafficPattern::Cbr { interval } if interval.is_zero() => Some(
                "CBR interval must be positive (a zero interval re-arms the source \
                 timer at the same instant forever)"
                    .into(),
            ),
            TrafficPattern::Poisson { rate } if !(rate > 0.0 && rate.is_finite()) => Some(format!(
                "Poisson rate must be positive and finite, got {rate}"
            )),
            _ => None,
        }
    }
}

/// One multicast source, attached to its corresponding top-ring node (§5
/// assumes at most one source per top-ring node, `s ≤ r`).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// The corresponding BR on the top ring.
    pub corresponding: NodeId,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// First transmission time.
    pub start: SimTime,
    /// Stop sending at this time (None = never).
    pub stop: Option<SimTime>,
    /// Stop after this many messages (None = unlimited).
    pub limit: Option<u64>,
    /// Addressed groups. Empty means "the spec's primary group" (the
    /// single-group default). Two or more groups route every message
    /// through the cross-group fence ([`crate::fence`]); each source
    /// addresses one fixed group or one fixed group set for its whole
    /// lifetime, so its `(corresponding, local_seq)` identity names the
    /// same logical channel everywhere.
    pub groups: Vec<GroupId>,
}

/// One AG ring.
#[derive(Debug, Clone, PartialEq)]
pub struct AgRingSpec {
    /// Ring members, in ring order.
    pub members: Vec<NodeId>,
    /// Candidate parent BRs for the ring leader (first = preferred).
    pub parent_candidates: Vec<NodeId>,
}

/// One access proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct ApSpec {
    /// Identity.
    pub id: NodeId,
    /// Candidate parent AGs (first = preferred).
    pub parent_candidates: Vec<NodeId>,
    /// Statically in the distribution tree (true for non-mobility setups).
    pub always_active: bool,
    /// Neighbouring APs (reservation scope).
    pub neighbours: Vec<NodeId>,
}

/// One mobile host.
#[derive(Debug, Clone, PartialEq)]
pub struct MhSpec {
    /// Identity.
    pub guid: Guid,
    /// AP joined at simulation start (None = joins later via scenario).
    pub initial_ap: Option<NodeId>,
    /// Subscribed groups. Empty means "the spec's primary group" (the
    /// single-group default); every listed group must be declared in
    /// [`HierarchySpec::groups`].
    pub subscriptions: Vec<GroupId>,
}

/// Link profiles for every scope of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    /// Links between top-ring BRs: every pair, so a repaired ring's hop
    /// around an excised BR is one too.
    pub top_ring: LinkProfile,
    /// Links between adjacent AGs in a ring.
    pub ag_ring: LinkProfile,
    /// Links from each AG to every candidate parent BR of its ring.
    pub br_ag: LinkProfile,
    /// AG ↔ AP links.
    pub ag_ap: LinkProfile,
    /// AP ↔ MH wireless links.
    pub wireless: LinkProfile,
    /// Source ↔ corresponding BR links.
    pub source: LinkProfile,
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan {
            top_ring: LinkProfile::wired(SimDuration::from_millis(5)),
            ag_ring: LinkProfile::wired(SimDuration::from_millis(2)),
            br_ag: LinkProfile::wired(SimDuration::from_millis(3)),
            ag_ap: LinkProfile::wired(SimDuration::from_millis(1)),
            wireless: LinkProfile::wireless(
                SimDuration::from_millis(2),
                SimDuration::from_millis(1),
                0.01,
            ),
            source: LinkProfile::wired(SimDuration::from_micros(100)),
        }
    }
}

/// The complete declarative description of a RingNet deployment.
///
/// A spec with no AG rings and no APs is the *station shape*
/// ([`HierarchySpec::is_station_shape`]): every top-ring node is a hybrid
/// station that orders *and* serves MHs, which may then name a top-ring
/// member as their `initial_ap`.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySpec {
    /// The primary multicast group (single-group specs order exactly this
    /// group; multi-group specs use it as the default subscription).
    pub group: GroupId,
    /// The declared group set. Empty means "just [`Self::group`]" — the
    /// single-group default every pre-existing construction site keeps.
    /// With two or more groups the engine instantiates one ordering ring
    /// per group over the same physical top-ring nodes and wires the
    /// cross-group fence ([`crate::fence`]) on every top-ring state.
    pub groups: Vec<GroupId>,
    /// Order each group where its one source enters, with no token ring:
    /// the group's ordering state is a ring of one at its source's BR,
    /// which numbers each message on arrival, and every other BR relays
    /// the group's stream one top-ring hop down from there. Each source's
    /// stream is then its own group, delivered in per-source FIFO order
    /// with no ordering wait — the comparator without total order of
    /// Theorem 5.1 ([`unordered_spec`]). False in every other spec.
    pub order_at_entry: bool,
    /// Protocol parameters shared by every entity.
    pub cfg: ProtocolConfig,
    /// Top-ring BRs in ring order.
    pub top_ring: Vec<NodeId>,
    /// AG rings.
    pub ag_rings: Vec<AgRingSpec>,
    /// Access proxies.
    pub aps: Vec<ApSpec>,
    /// Mobile hosts.
    pub mhs: Vec<MhSpec>,
    /// Multicast sources.
    pub sources: Vec<SourceSpec>,
    /// Link profiles.
    pub links: LinkPlan,
}

/// One entity of a deployment, as [`HierarchySpec::entities`] yields it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entity<'a> {
    /// A top-ring BR (a hybrid station in the station shape).
    Br(NodeId),
    /// An AG and the ring it sits on.
    Ag(NodeId, &'a AgRingSpec),
    /// An access proxy.
    Ap(&'a ApSpec),
    /// A multicast source.
    Source(&'a SourceSpec),
    /// A mobile host.
    Mh(&'a MhSpec),
}

impl Entity<'_> {
    /// The identity of a network entity (BR, AG or AP); `None` for sources
    /// and mobile hosts.
    pub(crate) fn ne_id(&self) -> Option<NodeId> {
        match *self {
            Entity::Br(id) | Entity::Ag(id, _) => Some(id),
            Entity::Ap(ap) => Some(ap.id),
            Entity::Source(_) | Entity::Mh(_) => None,
        }
    }
}

impl HierarchySpec {
    /// Every entity in **creation order**: BRs in ring order, AGs ring by
    /// ring, APs, sources, MHs. This is the one place that order is spelled
    /// out: a world built from a spec instantiates exactly this sequence, so
    /// the entity at position `i` lives at simulator address `NodeAddr(i)`
    /// (address tables index by it too).
    pub fn entities(&self) -> impl Iterator<Item = Entity<'_>> {
        let ags = self
            .ag_rings
            .iter()
            .flat_map(|ring| ring.members.iter().map(move |&ag| Entity::Ag(ag, ring)));
        (self.top_ring.iter().map(|&br| Entity::Br(br)))
            .chain(ags)
            .chain(self.aps.iter().map(Entity::Ap))
            .chain(self.sources.iter().map(Entity::Source))
            .chain(self.mhs.iter().map(Entity::Mh))
    }

    /// The **wiring rule**: every duplex link of the deployment as a pair
    /// of addresses and the [`LinkPlan`] profile it draws. `ne` resolves a
    /// network entity's address — its [`Self::entities`] position, which
    /// every world built from a spec already tabulates
    /// ([`crate::engine::AddrMap::for_spec`]). Rings are logical — the
    /// unicast routes underneath exist between any two members (repair
    /// paths after failures), so each ring is a full mesh; every ring
    /// member reaches every candidate parent BR and every AP every
    /// candidate parent AG (Remark 2: the candidates are static
    /// configuration); neighbouring APs are linked for reservation
    /// traffic; a source reaches its corresponding BR and an MH the AP it
    /// starts at.
    pub fn wiring(
        &self,
        ne: impl Fn(NodeId) -> NodeAddr,
    ) -> impl Iterator<Item = (NodeAddr, NodeAddr, &LinkProfile)> {
        /// Every unordered pair of ring members.
        fn pairs(ring: &[NodeId]) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
            let tails = ring.iter().enumerate().map(|(i, &a)| (a, &ring[i + 1..]));
            tails.flat_map(|(a, rest)| rest.iter().map(move |&b| (a, b)))
        }
        let at = |i: usize| NodeAddr(i as u32);
        let plan = &self.links;
        let mut links = Vec::new();
        let mut link = |a: NodeId, b: NodeId, profile| links.push((ne(a), ne(b), profile));
        for (a, b) in pairs(&self.top_ring) {
            link(a, b, &plan.top_ring);
        }
        for ring in &self.ag_rings {
            for (a, b) in pairs(&ring.members) {
                link(a, b, &plan.ag_ring);
            }
            for &ag in &ring.members {
                for &br in &ring.parent_candidates {
                    link(ag, br, &plan.br_ag);
                }
            }
        }
        for ap in &self.aps {
            for &ag in &ap.parent_candidates {
                link(ap.id, ag, &plan.ag_ap);
            }
            for &nb in ap.neighbours.iter().filter(|&&nb| nb > ap.id) {
                link(ap.id, nb, &plan.ag_ap);
            }
        }
        for (i, entity) in self.entities().enumerate() {
            match entity {
                Entity::Source(src) => links.push((at(i), ne(src.corresponding), &plan.source)),
                Entity::Mh(mh) => {
                    links.extend(mh.initial_ap.map(|ap| (at(i), ne(ap), &plan.wireless)));
                }
                Entity::Br(_) | Entity::Ag(..) | Entity::Ap(_) => {}
            }
        }
        links.into_iter()
    }

    /// The effective declared group set, sorted ascending: `groups` when
    /// non-empty (always including `group`), else just `[group]`.
    pub(crate) fn effective_groups(&self) -> Vec<GroupId> {
        if self.groups.is_empty() {
            return vec![self.group];
        }
        let mut gs: Vec<GroupId> = self.groups.clone();
        if !gs.contains(&self.group) {
            gs.push(self.group);
        }
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// The groups a mobile host subscribes to (sorted; empty spec ⇒ the
    /// primary group).
    pub fn subscriptions_of(&self, mh: &MhSpec) -> Vec<GroupId> {
        if mh.subscriptions.is_empty() {
            return vec![self.group];
        }
        let mut gs = mh.subscriptions.clone();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// The groups a source addresses (sorted; empty spec ⇒ the primary
    /// group).
    pub fn source_groups_of(&self, src: &SourceSpec) -> Vec<GroupId> {
        if src.groups.is_empty() {
            return vec![self.group];
        }
        let mut gs = src.groups.clone();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// Each declared group and its *funnel*, the BR where its token starts:
    /// the `i`-th group's is the `i`-th BR by id (modulo their count), so
    /// the per-ring assignment load spreads over the BRs. A funnel also
    /// orders its group's fenced traffic ([`crate::fence`]). A group
    /// ordered at entry ([`Self::order_at_entry`]) starts its token at its
    /// entry BR instead.
    pub(crate) fn funnels(&self) -> Vec<(GroupId, NodeId)> {
        let mut brs = self.top_ring.clone();
        brs.sort_unstable();
        let groups = self.effective_groups().into_iter().enumerate();
        let funnel = |(i, g): (usize, GroupId)| {
            let funnel = brs[i % brs.len()];
            let entry = self.order_at_entry.then(|| self.entry_of(g, funnel));
            (g, entry.unwrap_or(funnel))
        };
        groups.map(funnel).collect()
    }

    /// `g`'s *entry BR*, whose token starts at `funnel`: the
    /// `corresponding` BR of the first source addressing exactly `{g}`, or
    /// `funnel`, which orders fenced traffic, when only fenced sources (or
    /// none) reach `g`.
    fn entry_of(&self, g: GroupId, funnel: NodeId) -> NodeId {
        let mut sources = self.sources.iter();
        let entry = sources.find(|src| self.source_groups_of(src) == [g]);
        entry.map_or(funnel, |src| src.corresponding)
    }

    /// `ring`'s parent candidates for group `g`, whose token starts at
    /// `funnel`: the same list, turned so the tree hangs from where `g`'s
    /// GSNs are assigned, its entry BR `e`. With `e` places after
    /// `top_ring[0]`, the list starts at its first candidate at or
    /// downstream of the BR `e` places after its usual first one: in an
    /// automatic layout ring 0 hangs from the entry BR itself and ring `i`
    /// from the BR `i` places after it. The spec builders put source `i` at
    /// `top_ring[i]`, so a single group enters at `top_ring[0]` and every
    /// list is returned as declared. A group ordered at entry instead
    /// starts the list at `e` when `e` is a candidate, and keeps it as
    /// declared otherwise: its first candidate relays the stream one
    /// top-ring hop from `e`.
    pub(crate) fn parents_rooted_at(
        &self,
        ring: &AgRingSpec,
        g: GroupId,
        funnel: NodeId,
    ) -> Vec<NodeId> {
        let entry = self.entry_of(g, funnel);
        let mut parents = ring.parent_candidates.clone();
        let at = if self.order_at_entry {
            parents.iter().position(|&p| p == entry).unwrap_or(0)
        } else {
            let (top, n) = (&self.top_ring, self.top_ring.len());
            let pos = |br| top.iter().position(|&b| b == br);
            let start = pos(parents[0]).zip(pos(entry)).map(|(first, e)| first + e);
            let start = start.expect("validated spec: candidates and sources sit on the top ring");
            let at = (0..n).find_map(|d| parents.iter().position(|&p| p == top[(start + d) % n]));
            at.expect("validated spec: the first candidate is a BR")
        };
        parents.rotate_left(at);
        parents
    }

    /// True for the *station shape*: no AG rings and no APs, so the top
    /// ring is a single logical ring of hybrid stations — ordering nodes
    /// that also serve MHs directly (the flat-ring comparator of §2; see
    /// [`crate::node::NeState::new_flat_station`]).
    pub fn is_station_shape(&self) -> bool {
        self.ag_rings.is_empty() && self.aps.is_empty()
    }

    /// The `i`-th attachment entity — where scenario attachment indices
    /// land: `aps[i]`, or `top_ring[i]` in the station shape.
    pub fn attachment(&self, i: usize) -> Option<NodeId> {
        if self.is_station_shape() {
            self.top_ring.get(i).copied()
        } else {
            self.aps.get(i).map(|ap| ap.id)
        }
    }

    /// Structural validation; returns human-readable problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.cfg.validate();
        if self.top_ring.is_empty() {
            problems.push("top ring is empty".into());
        }
        // Token-loss safety (`crate::recovery`) counts a transfer that gave
        // up, a retry period after its last send, as over: every copy must
        // have landed or died by then, so a top-ring link must deliver
        // within a retry period. No token crosses a `br_ag` link, which is
        // held to the same bound. The quiet window is the ring's circle at
        // the top-ring link, so a token at the bound never looks lost while
        // it circles. Liveness itself needs no bound:
        // each probe's confirmation waits its own link's round trip
        // (`crate::membership`), however long, and the period tick leaves
        // a probe still out to it. The failover window covers a fenced
        // BR's children only over `br_ag` links of at most 10 ms
        // (`config::FAILOVER_WINDOW`); a child slower to fail over skips
        // at its graft, which the auditor allows.
        for (scope, link) in [
            ("top_ring", &self.links.top_ring),
            ("br_ag", &self.links.br_ag),
        ] {
            if link.latency.max_delay() >= TOKEN_RETRY_AFTER {
                problems.push(format!(
                    "{scope} links may take {:?}, not below the token retry period {:?}",
                    link.latency.max_delay(),
                    TOKEN_RETRY_AFTER
                ));
            }
        }
        let declared: std::collections::BTreeSet<GroupId> =
            self.effective_groups().into_iter().collect();
        if declared.len() > self.top_ring.len().max(1) {
            problems.push(format!(
                "{} groups declared but only {} ordering-capable top-ring nodes",
                declared.len(),
                self.top_ring.len()
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut dup_check = |id: NodeId, what: &str, problems: &mut Vec<String>| {
            if !seen.insert(id) {
                problems.push(format!("duplicate NodeId {id} ({what})"));
            }
        };
        for &br in &self.top_ring {
            dup_check(br, "BR", &mut problems);
        }
        for (i, ring) in self.ag_rings.iter().enumerate() {
            if ring.members.is_empty() {
                problems.push(format!("AG ring {i} is empty"));
            }
            for &ag in &ring.members {
                dup_check(ag, "AG", &mut problems);
            }
            if ring.parent_candidates.is_empty() {
                problems.push(format!("AG ring {i} has no candidate parent BR"));
            }
            for p in &ring.parent_candidates {
                if !self.top_ring.contains(p) {
                    problems.push(format!("AG ring {i}: parent candidate {p} is not a BR"));
                }
            }
        }
        let all_ags: std::collections::BTreeSet<NodeId> = self
            .ag_rings
            .iter()
            .flat_map(|r| r.members.iter().copied())
            .collect();
        let all_aps: std::collections::BTreeSet<NodeId> = self.aps.iter().map(|a| a.id).collect();
        for ap in &self.aps {
            dup_check(ap.id, "AP", &mut problems);
            if ap.parent_candidates.is_empty() {
                problems.push(format!("AP {} has no candidate parent AG", ap.id));
            }
            for p in &ap.parent_candidates {
                if !all_ags.contains(p) {
                    problems.push(format!("AP {}: parent candidate {p} is not an AG", ap.id));
                }
            }
            for nb in &ap.neighbours {
                if !all_aps.contains(nb) {
                    problems.push(format!("AP {}: neighbour {nb} is not an AP", ap.id));
                }
            }
        }
        let mut guids = std::collections::BTreeSet::new();
        for mh in &self.mhs {
            if !guids.insert(mh.guid) {
                problems.push(format!("duplicate GUID {}", mh.guid));
            }
            if let Some(ap) = mh.initial_ap {
                // MHs attach to APs — or, in the station shape only, to
                // the top-ring stations themselves.
                let exists = if self.is_station_shape() {
                    self.top_ring.contains(&ap)
                } else {
                    all_aps.contains(&ap)
                };
                if !exists {
                    problems.push(format!("MH {}: initial AP {ap} does not exist", mh.guid));
                }
            }
            for g in &mh.subscriptions {
                if !declared.contains(g) {
                    problems.push(format!("MH {}: subscribes to undeclared {g}", mh.guid));
                }
            }
        }
        for s in &self.sources {
            if !self.top_ring.contains(&s.corresponding) {
                problems.push(format!(
                    "source at {} is not on the top ring",
                    s.corresponding
                ));
            }
            if let Some(problem) = s.pattern.problem() {
                problems.push(format!("source at {}: {problem}", s.corresponding));
            }
            for g in &s.groups {
                if !declared.contains(g) {
                    problems.push(format!(
                        "source at {}: addresses undeclared {g}",
                        s.corresponding
                    ));
                }
            }
        }
        let mut by_corr = std::collections::BTreeSet::new();
        for s in &self.sources {
            if !by_corr.insert(s.corresponding) {
                problems.push(format!(
                    "multiple sources at corresponding node {} (the paper assumes s ≤ r, one per node)",
                    s.corresponding
                ));
            }
        }
        if self.order_at_entry {
            // Each group is ordered where its one source enters.
            for s in &self.sources {
                if self.source_groups_of(s).len() > 1 {
                    problems.push(format!(
                        "source at {}: addresses several groups, which no entry orders together",
                        s.corresponding
                    ));
                }
            }
            for g in &declared {
                let reach = |s: &&SourceSpec| self.source_groups_of(s).contains(g);
                let n = self.sources.iter().filter(reach).count();
                if n != 1 {
                    problems.push(format!(
                        "{g} is ordered at entry but has {n} sources, not one"
                    ));
                }
            }
        }
        // The engine's address tables are indexed by id, so ids must be
        // dense: every derivation numbers NEs and walkers from 0.
        let count = self.entities().count();
        let ne_ids = self.entities().filter_map(|e| e.ne_id().map(|id| id.0));
        let ids = ne_ids.chain(self.mhs.iter().map(|mh| mh.guid.0));
        for id in ids.filter(|&id| id as usize >= count) {
            problems.push(format!("id {id} is not below the entity count {count}"));
        }
        problems
    }

    /// Count of entities per tier: `(BRs, AGs, APs, MHs)`.
    pub fn tier_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.top_ring.len(),
            self.ag_rings.iter().map(|r| r.members.len()).sum(),
            self.aps.len(),
            self.mhs.len(),
        )
    }

    /// Render the hierarchy as indented ASCII art (one line per entity) —
    /// the reproduction of Figure 1's structure.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "RingNet hierarchy for {}", self.group);
        let _ = writeln!(
            s,
            "BRT ring: [{}] (leader {})",
            self.top_ring
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(" -> "),
            self.top_ring
                .iter()
                .min()
                .map(|n| n.to_string())
                .unwrap_or_default()
        );
        for src in &self.sources {
            let _ = writeln!(
                s,
                "  source @ {} ({:.1} msg/s)",
                src.corresponding,
                src.pattern.rate_per_sec()
            );
        }
        for ring in &self.ag_rings {
            let _ = writeln!(
                s,
                "  AGT ring under {}: [{}] (leader {})",
                ring.parent_candidates
                    .first()
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "?".into()),
                ring.members
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> "),
                ring.members
                    .iter()
                    .min()
                    .map(|n| n.to_string())
                    .unwrap_or_default()
            );
            for ap in self.aps.iter().filter(|a| {
                a.parent_candidates
                    .first()
                    .is_some_and(|p| ring.members.contains(p))
            }) {
                let mh_count = self
                    .mhs
                    .iter()
                    .filter(|m| m.initial_ap == Some(ap.id))
                    .count();
                let _ = writeln!(
                    s,
                    "    APT {} under {} ({} MH{})",
                    ap.id,
                    ap.parent_candidates[0],
                    mh_count,
                    if mh_count == 1 { "" } else { "s" }
                );
            }
        }
        s
    }
}

// --------------------------------------------- scenario → hierarchy specs

/// Map a scenario onto a [`HierarchySpec`] for the RingNet engine,
/// honouring the scenario's [`CoreShape`]. Attachment `i` becomes
/// `spec.aps[i]`, walker `w` becomes `Guid(w)`.
pub fn ringnet_spec(sc: &Scenario) -> HierarchySpec {
    match sc.shape {
        CoreShape::Hierarchy {
            brs,
            rings,
            ags_per_ring,
        } => {
            let aps_per_ag = sc.attachments / (rings * ags_per_ring);
            assert!(
                aps_per_ag * rings * ags_per_ring == sc.attachments && aps_per_ag > 0,
                "{} attachments do not divide into {rings}×{ags_per_ring} AGs",
                sc.attachments
            );
            // Ids run BRs, then AGs ring by ring, then APs AG by AG.
            let top_ring: Vec<NodeId> = (0..brs as u32).map(NodeId).collect();
            let ag_rings: Vec<AgRingSpec> = (0..rings)
                .map(|i| {
                    let first = (brs + i * ags_per_ring) as u32;
                    AgRingSpec {
                        members: (first..first + ags_per_ring as u32).map(NodeId).collect(),
                        parent_candidates: with_backup(top_ring[i % brs], top_ring[(i + 1) % brs]),
                    }
                })
                .collect();
            let ap_id = |cell: usize| NodeId((brs + rings * ags_per_ring + cell) as u32);
            let aps = (0..sc.attachments)
                .map(|cell| {
                    let ag = cell / aps_per_ag;
                    let ring = &ag_rings[ag / ags_per_ring].members;
                    let pos = ag % ags_per_ring;
                    ApSpec {
                        id: ap_id(cell),
                        parent_candidates: with_backup(ring[pos], ring[(pos + 1) % ags_per_ring]),
                        always_active: sc.aps_always_active,
                        neighbours: sc.neighbours_of(cell).into_iter().map(ap_id).collect(),
                    }
                })
                .collect();
            finish_spec(sc, top_ring, ag_rings, aps)
        }
        CoreShape::Auto => auto_hierarchy(sc, sc.ordering_capable_nodes()),
    }
}

/// Map a scenario onto a *degenerate* [`HierarchySpec`] — every logical
/// ring shrunk to one node — which is exactly MIP-RS-style shortest-path
///-tree multicast running the same protocol code (see `baselines::tree`).
/// Reservation radius is forced to 0 and attachments activate on demand:
/// the tree rebuilds on every handoff.
pub fn degenerate_tree_spec(sc: &Scenario) -> HierarchySpec {
    let routers = sc.attachments.div_ceil(2).max(1);
    let ag_rings = (0..routers)
        .map(|i| AgRingSpec {
            members: vec![NodeId(1 + i as u32)],
            parent_candidates: vec![NodeId(0)],
        })
        .collect();
    let ap_id = |i: usize| NodeId((1 + routers + i) as u32);
    let aps = (0..sc.attachments)
        .map(|i| ApSpec {
            id: ap_id(i),
            parent_candidates: vec![NodeId(1 + (i % routers) as u32)],
            always_active: false,
            neighbours: sc.neighbours_of(i).into_iter().map(ap_id).collect(),
        })
        .collect();
    let mut spec = finish_spec(sc, vec![NodeId(0)], ag_rings, aps);
    spec.cfg.reservation_radius = 0;
    // The degenerate tree has a single ordering node — a ring-of-one
    // cannot host one token ring per group, so extra declared groups
    // collapse onto the scenario's primary group (the static-baseline
    // semantics: extra groups are ignored).
    spec.groups.clear();
    for mh in &mut spec.mhs {
        mh.subscriptions.clear();
    }
    for src in &mut spec.sources {
        src.groups.clear();
    }
    spec
}

/// Map a scenario onto RingNet *without* total order — the comparator of
/// Theorem 5.1 and Remark 3 (see `baselines::unordered`): the spec of
/// [`ringnet_spec`], with each source's stream its own group, ordered at
/// its entry BR ([`HierarchySpec::order_at_entry`]), and every walker
/// subscribed to every stream. The scenario's own groups are ignored.
/// Walkers are placed by [`Scenario::static_placements`].
pub fn unordered_spec(sc: &Scenario) -> HierarchySpec {
    let mut spec = ringnet_spec(sc);
    let aps = sc.static_placements().into_iter();
    let aps: Vec<NodeId> = aps.map(|k| attachment_entity(&spec, k, "walker")).collect();
    for (mh, ap) in spec.mhs.iter_mut().zip(aps) {
        mh.initial_ap = Some(ap);
    }
    let streams = (0..spec.sources.len() as u32).map(|i| GroupId(sc.group.0 + i));
    spec.groups = streams.collect();
    for (src, &g) in spec.sources.iter_mut().zip(&spec.groups) {
        src.groups = vec![g];
    }
    for mh in &mut spec.mhs {
        mh.subscriptions = spec.groups.clone();
    }
    spec.order_at_entry = true;
    spec
}

/// Map a scenario onto the *station shape* of [`HierarchySpec`] — one
/// logical ring over every attachment point, each a hybrid station that
/// orders and serves its walkers directly — which is exactly the flat
/// logical-ring protocol of Nikolaidis & Harms running the same protocol
/// code (see `baselines::flat_ring`). Attachment `i` is station
/// `NodeId(i)`; the ring uses the scenario's `top_ring` link profile.
/// Stations serve joins dynamically, so a late joiner idles at station 0
/// until its [`ScenarioEvent::Join`](crate::driver::ScenarioEvent::Join) hands it off.
pub fn flat_ring_spec(sc: &Scenario) -> HierarchySpec {
    let stations = (0..sc.attachments as u32).map(NodeId).collect();
    let mut spec = finish_spec(sc, stations, Vec::new(), Vec::new());
    for mh in &mut spec.mhs {
        mh.initial_ap.get_or_insert(NodeId(0));
    }
    spec
}

/// The balanced shape the mobility experiments use: `brs` BRs on the
/// ordering ring, roughly one AG per four attachments, split into the
/// fewest AG rings of at most [`AG_RING_CAP`] consecutive AGs whose sizes
/// differ by at most one, APs assigned round-robin. Ring `i` lists the
/// BRs from BR `i` on, so that ring leaders spread over the BRs.
fn auto_hierarchy(sc: &Scenario, brs: usize) -> HierarchySpec {
    let n_ags = sc.attachments.div_ceil(4).max(2);
    let br_ids: Vec<NodeId> = (0..brs as u32).map(NodeId).collect();
    let ag_ids: Vec<NodeId> = (brs as u32..(brs + n_ags) as u32).map(NodeId).collect();
    let rings = n_ags.div_ceil(AG_RING_CAP);
    let cut = |i: usize| (i * n_ags).div_ceil(rings);
    let ag_rings = (0..rings)
        .map(|i| AgRingSpec {
            members: ag_ids[cut(i)..cut(i + 1)].to_vec(),
            parent_candidates: (i..i + brs).map(|b| br_ids[b % brs]).collect(),
        })
        .collect();
    let ap_id = |cell: usize| NodeId((brs + n_ags + cell) as u32);
    let aps = (0..sc.attachments)
        .map(|cell| ApSpec {
            id: ap_id(cell),
            parent_candidates: with_backup(ag_ids[cell % n_ags], ag_ids[(cell + 1) % n_ags]),
            always_active: sc.aps_always_active,
            neighbours: sc.neighbours_of(cell).into_iter().map(ap_id).collect(),
        })
        .collect();
    finish_spec(sc, br_ids, ag_rings, aps)
}

/// A parent candidate list: `preferred`, then `backup` unless it is the
/// same node.
fn with_backup(preferred: NodeId, backup: NodeId) -> Vec<NodeId> {
    if backup == preferred {
        vec![preferred]
    } else {
        vec![preferred, backup]
    }
}

/// The spec of a laid-out core: the scenario's group, protocol config and
/// links over `top_ring`, `ag_rings` and `aps`, with the scenario's
/// walkers, sources and groups applied. Single-group scenarios leave every
/// group field at its empty default, so the spec (and the run) is
/// identical to the pre-multi-group one.
fn finish_spec(
    sc: &Scenario,
    top_ring: Vec<NodeId>,
    ag_rings: Vec<AgRingSpec>,
    aps: Vec<ApSpec>,
) -> HierarchySpec {
    let declared = sc.declared_groups();
    let multi = declared.len() > 1;
    let mut spec = HierarchySpec {
        group: sc.group,
        groups: if multi { declared } else { Vec::new() },
        order_at_entry: false,
        cfg: sc.cfg.clone(),
        top_ring,
        ag_rings,
        aps,
        mhs: Vec::new(),
        sources: Vec::new(),
        links: sc.links.clone(),
    };
    spec.mhs = sc
        .walkers
        .iter()
        .enumerate()
        .map(|(w, att)| MhSpec {
            guid: Guid(w as u32),
            initial_ap: att.map(|a| attachment_entity(&spec, a, "walker")),
            subscriptions: if multi {
                sc.subscriptions_of(w)
            } else {
                Vec::new()
            },
        })
        .collect();
    let sources = sc.sources.min(spec.top_ring.len());
    spec.sources = (0..sources)
        .map(|i| SourceSpec {
            corresponding: spec.top_ring[i],
            pattern: sc.pattern,
            start: sc.start,
            stop: sc.stop,
            limit: sc.limit,
            groups: if multi {
                sc.source_groups_of(i)
            } else {
                Vec::new()
            },
        })
        .collect();
    spec
}

/// The wired-core entity set of a hierarchy spec (BRs + AGs; the AP tier
/// is the last hop and excluded from core-load comparisons).
pub fn hierarchy_core(spec: &HierarchySpec) -> BTreeSet<NodeId> {
    spec_core_order(spec).into_iter().collect()
}

/// The wired-core entities of a spec in scenario-index order (BRs in ring
/// order, then AGs ring by ring) — the indexing [`KillCore`]
/// and [`PartitionCore`] use.
///
/// [`KillCore`]: crate::driver::ScenarioEvent::KillCore
/// [`PartitionCore`]: crate::driver::ScenarioEvent::PartitionCore
pub(crate) fn spec_core_order(spec: &HierarchySpec) -> Vec<NodeId> {
    let core = spec.entities().map_while(|e| match e {
        Entity::Br(id) | Entity::Ag(id, _) => Some(id),
        _ => None,
    });
    core.collect()
}

pub(crate) fn attachment_entity(spec: &HierarchySpec, index: usize, what: &str) -> NodeId {
    spec.attachment(index)
        .unwrap_or_else(|| panic!("{what} attachment index {index} out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{
        degenerate_tree_spec, flat_ring_spec, ringnet_spec, unordered_spec, CoreShape,
        ScenarioBuilder,
    };

    /// A regular hierarchy of `brs` BRs over `rings` AG rings of
    /// `ags_per_ring` AGs.
    fn regular(brs: usize, rings: usize, ags_per_ring: usize) -> CoreShape {
        CoreShape::Hierarchy {
            brs,
            rings,
            ags_per_ring,
        }
    }

    fn figure1() -> HierarchySpec {
        ringnet_spec(&ScenarioBuilder::figure1(GroupId(1)).build())
    }

    #[test]
    fn builder_produces_valid_spec() {
        let spec = ringnet_spec(
            &ScenarioBuilder::new()
                .attachments(18)
                .walkers_per_attachment(2)
                .sources(2)
                .shape(regular(4, 3, 3))
                .build(),
        );
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        assert_eq!(spec.tier_sizes(), (4, 9, 18, 36));
        assert_eq!(spec.sources.len(), 2);
    }

    #[test]
    fn ids_are_disjoint_across_tiers() {
        let spec = figure1();
        let mut all: Vec<u32> = spec.top_ring.iter().map(|n| n.0).collect();
        all.extend(
            spec.ag_rings
                .iter()
                .flat_map(|r| r.members.iter().map(|n| n.0)),
        );
        all.extend(spec.aps.iter().map(|a| a.id.0));
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }

    #[test]
    fn entities_run_tier_by_tier_and_wiring_draws_the_link_plan() {
        let spec = ringnet_spec(
            &ScenarioBuilder::new()
                .attachments(4)
                .shape(regular(2, 2, 2))
                .build(),
        );
        let tiers: Vec<u8> = (spec.entities())
            .map(|e| match e {
                Entity::Br(_) => 0,
                Entity::Ag(..) => 1,
                Entity::Ap(_) => 2,
                Entity::Source(_) => 3,
                Entity::Mh(_) => 4,
            })
            .collect();
        assert_eq!(tiers, [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 4, 4, 4, 4]);
        // Laid-out ids are creation positions, i.e. addresses.
        let ids: Vec<u32> = spec
            .entities()
            .filter_map(|e| e.ne_id())
            .map(|n| n.0)
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());

        let wiring = || spec.wiring(|id| NodeAddr(id.0));
        let count = |profile: &LinkProfile| wiring().filter(|l| l.2 == profile).count();
        assert_eq!(count(&spec.links.top_ring), 1, "2 BRs");
        assert_eq!(count(&spec.links.ag_ring), 2, "2 rings of 2");
        assert_eq!(count(&spec.links.br_ag), 8, "4 AGs × 2 candidate BRs");
        assert_eq!(
            count(&spec.links.ag_ap),
            8 + 3,
            "4 APs × 2 AGs + the AP chain"
        );
        assert_eq!(count(&spec.links.source), 1);
        assert_eq!(count(&spec.links.wireless), 4);
        // Source 0 (address 10) feeds BR 0; MH 0 (address 11) sits at AP 6.
        let has = |a, b| wiring().any(|l| (l.0, l.1) == (NodeAddr(a), NodeAddr(b)));
        assert!(has(10, 0) && has(11, 6));
    }

    #[test]
    fn figure1_matches_paper_shape() {
        let spec = figure1();
        assert!(spec.validate().is_empty());
        let (brs, ags, aps, _mhs) = spec.tier_sizes();
        assert_eq!(brs, 4, "Figure 1 draws four BRs on the top ring");
        assert_eq!(ags, 9, "three AG rings of three");
        assert_eq!(aps, 9);
        let render = spec.render();
        assert!(render.contains("BRT ring"));
        assert!(render.contains("AGT ring"));
        assert!(render.contains("APT"));
    }

    #[test]
    fn validation_rejects_unrunnable_traffic() {
        // The rules `Scenario::validate` applies: a zero CBR interval would
        // re-arm the source timer at the same instant forever, and a NaN
        // rate would draw NaN gaps.
        for (pattern, problem) in [
            (
                TrafficPattern::Cbr {
                    interval: SimDuration::ZERO,
                },
                "CBR interval must be positive",
            ),
            (
                TrafficPattern::Poisson { rate: f64::NAN },
                "Poisson rate must be positive and finite",
            ),
        ] {
            let mut spec = figure1();
            spec.sources[0].pattern = pattern;
            let problems = spec.validate();
            assert!(
                problems.iter().any(|p| p.contains(problem)),
                "{pattern:?}: {problems:?}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = figure1();
        spec.sources.push(SourceSpec {
            corresponding: NodeId(9999),
            pattern: TrafficPattern::Poisson { rate: 1.0 },
            start: SimTime::ZERO,
            stop: None,
            limit: None,
            groups: Vec::new(),
        });
        assert!(!spec.validate().is_empty());

        let mut spec2 = figure1();
        spec2.mhs.push(MhSpec {
            guid: spec2.mhs[0].guid,
            initial_ap: None,
            subscriptions: Vec::new(),
        });
        assert!(spec2
            .validate()
            .iter()
            .any(|p| p.contains("duplicate GUID")));

        let mut spec3 = figure1();
        spec3.aps[0].parent_candidates.clear();
        assert!(spec3
            .validate()
            .iter()
            .any(|p| p.contains("no candidate parent AG")));
    }

    #[test]
    fn validation_rejects_ring_links_as_slow_as_the_token_retry_period() {
        let mut spec = figure1();
        spec.links.top_ring = LinkProfile::wired(SimDuration::from_millis(40));
        let problems = spec.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("top_ring links"), "{problems:?}");
        spec.links.top_ring = LinkProfile::wired(SimDuration::from_millis(5));
        spec.links.br_ag = LinkProfile::wired(TOKEN_RETRY_AFTER);
        let problems = spec.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("br_ag links"), "{problems:?}");
    }

    /// A ring repaired around an excised BR bridges it over a top-ring
    /// link, since every pair of BRs has one: no token or round crosses a
    /// `br_ag` link, however slow.
    #[test]
    fn every_pair_of_brs_is_linked_by_a_top_ring_link() {
        let mut spec = figure1();
        spec.links.br_ag = LinkProfile::wired(SimDuration::from_millis(25));
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        let brs = spec.top_ring.len();
        let wiring = || spec.wiring(|id| NodeAddr(id.0));
        let between_brs = wiring().filter(|l| l.2 == &spec.links.top_ring).count();
        assert_eq!(between_brs, brs * (brs - 1) / 2);
        assert!(brs > 3, "some pair is not adjacent");
    }

    #[test]
    fn mh_may_attach_to_a_top_ring_member_in_the_station_shape_only() {
        // Station shape: no AG rings, no APs — the BRs serve MHs directly.
        let mut spec = figure1();
        let station = spec.top_ring[2];
        spec.ag_rings.clear();
        spec.aps.clear();
        spec.mhs = vec![MhSpec {
            guid: Guid(0),
            initial_ap: Some(station),
            subscriptions: Vec::new(),
        }];
        assert!(spec.is_station_shape());
        assert_eq!(spec.attachment(2), Some(station));
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());

        // The same MH is rejected as soon as the spec has an AP tier.
        let mut tiered = figure1();
        tiered.mhs[0].initial_ap = Some(station);
        assert!(!tiered.is_station_shape());
        assert_eq!(tiered.attachment(2), Some(tiered.aps[2].id));
        assert!(tiered
            .validate()
            .iter()
            .any(|p| p.contains("initial AP") && p.contains("does not exist")));
    }

    #[test]
    fn duplicate_source_per_node_rejected() {
        let mut spec = figure1();
        let dup = spec.sources[0].clone();
        spec.sources.push(dup);
        assert!(spec
            .validate()
            .iter()
            .any(|p| p.contains("multiple sources")));
    }

    /// An order-at-entry spec orders each group where its one source
    /// enters, so a group with no source or with two, and a source that
    /// addresses two groups, are each rejected.
    #[test]
    fn validation_rejects_a_group_no_one_entry_orders() {
        let sc = ScenarioBuilder::new()
            .attachments(2)
            .sources(2)
            .shape(regular(2, 1, 2))
            .build();
        let spec = unordered_spec(&sc);
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        let (g0, g1) = (spec.groups[0], spec.groups[1]);
        let problems = |edit: &dyn Fn(&mut HierarchySpec)| {
            let mut spec = spec.clone();
            edit(&mut spec);
            spec.validate()
        };
        let says = |problems: &[String], what: &str| problems.iter().any(|p| p.contains(what));

        let no_source = problems(&|spec| drop(spec.sources.pop()));
        assert!(says(
            &no_source,
            &format!("{g1} is ordered at entry but has 0 sources")
        ));
        let two_sources = problems(&|spec| spec.sources[1].groups = vec![g0]);
        assert!(says(
            &two_sources,
            &format!("{g0} is ordered at entry but has 2 sources")
        ));
        let multi_group = problems(&|spec| spec.sources[0].groups = vec![g0, g1]);
        assert!(says(
            &multi_group,
            "source at ne0: addresses several groups"
        ));
        assert!(
            !ringnet_spec(&sc).order_at_entry,
            "only the comparator's spec"
        );
    }

    #[test]
    fn neighbours_form_a_chain() {
        let spec = ringnet_spec(
            &ScenarioBuilder::new()
                .attachments(4)
                .shape(regular(4, 1, 2))
                .build(),
        );
        let aps = &spec.aps;
        assert_eq!(aps.len(), 4);
        assert_eq!(aps[0].neighbours, vec![aps[1].id]);
        assert_eq!(aps[1].neighbours, vec![aps[0].id, aps[2].id]);
        assert_eq!(aps[3].neighbours, vec![aps[2].id]);
    }

    #[test]
    fn traffic_pattern_rates() {
        let cbr = TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        };
        assert!((cbr.rate_per_sec() - 100.0).abs() < 1e-9);
        let poisson = TrafficPattern::Poisson { rate: 42.0 };
        assert_eq!(poisson.rate_per_sec(), 42.0);
    }

    #[test]
    fn validation_rejects_ids_past_the_entity_count() {
        let mut spec = figure1();
        spec.mhs[0].guid = Guid(1 << 30);
        spec.top_ring[1] = NodeId(1 << 30);
        let (problems, count) = (spec.validate(), spec.entities().count());
        let problem = format!("id {} is not below the entity count {count}", 1 << 30);
        assert_eq!(problems.iter().filter(|&p| *p == problem).count(), 2);
    }

    #[test]
    fn every_derivation_numbers_ids_below_the_entity_count() {
        let derivations: [fn(&Scenario) -> HierarchySpec; 3] =
            [ringnet_spec, degenerate_tree_spec, flat_ring_spec];
        let scenarios = [
            ScenarioBuilder::new().build(),
            ScenarioBuilder::figure1(GroupId(1)).build(),
            ScenarioBuilder::new()
                .attachments(18)
                .walkers_per_attachment(2)
                .sources(2)
                .shape(regular(4, 3, 3))
                .build(),
            ScenarioBuilder::new()
                .attachments(8)
                .sources(4)
                .groups((1..=4).map(GroupId).collect())
                .walkers(vec![Some(0), None, Some(7), None])
                .build(),
            ScenarioBuilder::new()
                .attachments(3)
                .walkers(Vec::new())
                .build(),
        ];
        for (i, sc) in scenarios.iter().enumerate() {
            for derive in derivations {
                let spec = derive(sc);
                assert!(spec.validate().is_empty(), "{i}: {:?}", spec.validate());
            }
        }
    }

    /// The automatic layout of `attachments` cells under `sources` sources.
    fn auto(attachments: usize, sources: usize) -> HierarchySpec {
        ringnet_spec(
            &ScenarioBuilder::new()
                .attachments(attachments)
                .sources(sources)
                .build(),
        )
    }

    fn ring_sizes(spec: &HierarchySpec) -> Vec<usize> {
        spec.ag_rings.iter().map(|r| r.members.len()).collect()
    }

    #[test]
    fn seventeen_ags_split_into_five_rings() {
        let sizes = ring_sizes(&auto(68, 2));
        assert_eq!(sizes, vec![4, 3, 4, 3, 3], "never 4 + 4 + 4 + 4 + 1");
    }

    #[test]
    fn auto_rings_are_capped_balanced_and_consecutive() {
        for attachments in 1..=400 {
            let spec = auto(attachments, 2);
            assert!(
                spec.validate().is_empty(),
                "{attachments}: {:?}",
                spec.validate()
            );
            let sizes = ring_sizes(&spec);
            let n_ags: usize = sizes.iter().sum();
            assert_eq!(sizes.len(), n_ags.div_ceil(AG_RING_CAP), "{attachments}");
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(
                *max <= AG_RING_CAP && max - min <= 1,
                "{attachments}: {sizes:?}"
            );
            assert!(*min > 1, "{attachments}: a ring of one");
            // The rings cut the AGs in id order.
            let ags: Vec<u32> = spec
                .ag_rings
                .iter()
                .flat_map(|r| &r.members)
                .map(|n| n.0)
                .collect();
            let first = spec.top_ring.len() as u32;
            assert!(
                ags.iter().copied().eq(first..first + n_ags as u32),
                "{attachments}"
            );
        }
    }

    #[test]
    fn auto_ring_leaders_spread_over_the_brs() {
        // 64 AGs in more rings than there are BRs: 3.
        let spec = auto(256, 3);
        assert_eq!(spec.ag_rings.len(), 64usize.div_ceil(AG_RING_CAP));
        assert!(spec.ag_rings.len() > 3);
        for (i, ring) in spec.ag_rings.iter().enumerate() {
            let mut brs = ring.parent_candidates.clone();
            assert_eq!(brs[0], NodeId((i % 3) as u32), "ring {i}");
            brs.sort_unstable();
            assert_eq!(brs, spec.top_ring, "ring {i} lists every BR");
        }
    }

    #[test]
    fn auto_layout_of_at_most_cap_ags_is_one_ring_as_before() {
        for attachments in 1..=4 * AG_RING_CAP {
            let spec = auto(attachments, 2);
            let ags = (2..(2 + attachments.div_ceil(4).max(2)) as u32).map(NodeId);
            let one = AgRingSpec {
                members: ags.collect(),
                parent_candidates: spec.top_ring.clone(),
            };
            assert_eq!(spec.ag_rings, vec![one], "{attachments}");
        }
    }

    /// Every AG ring's parent candidates for each group, as the engine
    /// hands them to that group's ring states: turned by the group's entry
    /// BR.
    fn rooted_parents(spec: &HierarchySpec) -> Vec<(GroupId, Vec<Vec<NodeId>>)> {
        let rings = |(g, funnel)| {
            let ring = |r| spec.parents_rooted_at(r, g, funnel);
            (g, spec.ag_rings.iter().map(ring).collect())
        };
        spec.funnels().into_iter().map(rings).collect()
    }

    #[test]
    fn each_groups_tree_hangs_from_the_br_that_assigns_its_gsns() {
        let g = |ids: &[u32]| ids.iter().copied().map(GroupId).collect::<Vec<_>>();
        let brs = |ids: &[u32]| ids.iter().copied().map(NodeId).collect::<Vec<_>>();
        // Entry BR per group: source i enters at BR i; 96 cells make 24
        // AGs in six rings whose usual lists start at BRs 0, 1, 2, 3, 0
        // and 1.
        let sc = ScenarioBuilder::new()
            .attachments(96)
            .sources(4)
            .groups(g(&[1, 2, 3, 4]))
            .source_groups(vec![g(&[3]), g(&[1]), g(&[4]), g(&[2])])
            .build();
        let spec = ringnet_spec(&sc);
        assert_eq!(spec.top_ring, brs(&[0, 1, 2, 3]));
        assert_eq!(spec.ag_rings.len(), 6);
        // Ring i of the group entering at BR e lists BR i + e onwards.
        let turned = |e: u32| -> Vec<Vec<NodeId>> {
            let list = |i| (0..4).map(|k| NodeId((i + e + k) % 4)).collect();
            (0..6).map(list).collect()
        };
        let want = [(1, 1), (2, 3), (3, 0), (4, 2)].map(|(group, e)| (GroupId(group), turned(e)));
        assert_eq!(rooted_parents(&spec), want);

        // Single group: source 0 enters at the first BR, so every ring
        // keeps its declared list.
        for spec in [auto(96, 3), figure1()] {
            let declared = spec.ag_rings.iter().map(|r| r.parent_candidates.clone());
            let declared: Vec<_> = declared.collect();
            assert_eq!(rooted_parents(&spec), vec![(spec.group, declared)]);
        }

        // A group only a fenced source reaches is rooted at its funnel,
        // where its token starts: group 2 (funnel BR 1) here. Group 1
        // enters where source 1 does, not where the fenced source 0 does.
        let sc = ScenarioBuilder::new()
            .attachments(8)
            .sources(3)
            .groups(g(&[1, 2, 3]))
            .source_groups(vec![g(&[1, 2]), g(&[1]), g(&[3])])
            .build();
        let spec = ringnet_spec(&sc);
        assert_eq!(spec.funnels()[1], (GroupId(2), NodeId(1)));
        let firsts = rooted_parents(&spec).into_iter();
        let firsts: Vec<_> = firsts.map(|(g, rings)| (g, rings[0][0])).collect();
        assert_eq!(
            firsts,
            [(1, 1), (2, 1), (3, 2)].map(|(g, b)| (GroupId(g), NodeId(b)))
        );
    }

    #[test]
    fn a_short_candidate_list_turns_to_the_first_candidate_downstream() {
        // figure1's rings list their own BR and the next one. Entry e turns
        // ring r's list to start at the first candidate at or after BR
        // r + e: only a turn by one brings the backup first.
        for e in 0..4 {
            // The group's first source enters at BR e.
            let mut spec = figure1();
            spec.sources[0].corresponding = spec.top_ring[e];
            for ring in &spec.ag_rings {
                let mut want = ring.parent_candidates.clone();
                if e == 1 {
                    want.reverse();
                }
                let got = spec.parents_rooted_at(ring, spec.group, NodeId(0));
                assert_eq!(got, want, "entry {e}");
            }
        }
    }

    #[test]
    fn mhs_without_initial_ap_are_allowed() {
        let mut spec = figure1();
        spec.mhs.push(MhSpec {
            guid: Guid(spec.mhs.len() as u32),
            initial_ap: None,
            subscriptions: Vec::new(),
        });
        assert!(spec.validate().is_empty());
    }
}
