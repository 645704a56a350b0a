//! RingNet hierarchy specification and builder (§3, Figure 1).
//!
//! A [`HierarchySpec`] declares the whole four-tier structure — the top BR
//! ring, the AG rings with their candidate parent BRs, the APs with their
//! candidate parent AGs and neighbour lists, the MHs with their initial
//! attachment, and the multicast sources with their traffic patterns — plus
//! the link profiles of every scope. Per Remark 2 the candidate-contactor
//! relationships are static configuration.
//!
//! [`HierarchyBuilder`] assembles regular specs (`b` BRs, `g` AG rings of
//! `a` AGs, `p` APs per AG, `m` MHs per AP); [`figure1`] reproduces the
//! topology drawn in the paper's Figure 1.

use simnet::{LinkProfile, NodeAddr, SimDuration, SimTime};

use crate::config::ProtocolConfig;
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
    /// Links between adjacent top-ring BRs.
    pub top_ring: LinkProfile,
    /// Links between adjacent AGs in a ring.
    pub ag_ring: LinkProfile,
    /// BR ↔ AG-ring-leader links (also BR ↔ BR non-adjacent repair paths).
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
    pub fn ne_id(&self) -> Option<NodeId> {
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
    /// (shard maps and address tables index by it too).
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
    pub fn effective_groups(&self) -> Vec<GroupId> {
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

/// Convenience builder for regular hierarchies.
#[derive(Debug, Clone)]
pub struct HierarchyBuilder {
    group: GroupId,
    groups: Vec<GroupId>,
    cfg: ProtocolConfig,
    brs: usize,
    ag_rings: usize,
    ags_per_ring: usize,
    aps_per_ag: usize,
    mhs_per_ap: usize,
    sources: usize,
    source_pattern: TrafficPattern,
    source_start: SimTime,
    source_stop: Option<SimTime>,
    source_limit: Option<u64>,
    links: LinkPlan,
    aps_always_active: bool,
}

impl HierarchyBuilder {
    /// Start a builder with sensible defaults (4 BRs, 3 rings × 3 AGs,
    /// 1 AP per AG, 1 MH per AP, 1 source at 100 msg/s CBR).
    pub fn new(group: GroupId) -> Self {
        HierarchyBuilder {
            group,
            groups: Vec::new(),
            cfg: ProtocolConfig::default(),
            brs: 4,
            ag_rings: 3,
            ags_per_ring: 3,
            aps_per_ag: 1,
            mhs_per_ap: 1,
            sources: 1,
            source_pattern: TrafficPattern::Cbr {
                interval: SimDuration::from_millis(10),
            },
            source_start: SimTime::ZERO,
            source_stop: None,
            source_limit: None,
            links: LinkPlan::default(),
            aps_always_active: true,
        }
    }

    /// Number of BRs on the top ring.
    pub fn brs(mut self, n: usize) -> Self {
        self.brs = n;
        self
    }

    /// Declare a multi-group workload: one ordering ring per listed
    /// group. MHs subscribe to every group and source *i* addresses group
    /// `groups[i % groups.len()]`; callers wanting bespoke subscription
    /// or addressing sets edit the built spec's public fields.
    pub fn groups(mut self, groups: Vec<GroupId>) -> Self {
        self.groups = groups;
        self
    }

    /// Number of AG rings and AGs per ring.
    pub fn ag_rings(mut self, rings: usize, ags_per_ring: usize) -> Self {
        self.ag_rings = rings;
        self.ags_per_ring = ags_per_ring;
        self
    }

    /// APs per AG.
    pub fn aps_per_ag(mut self, n: usize) -> Self {
        self.aps_per_ag = n;
        self
    }

    /// MHs initially attached per AP.
    pub fn mhs_per_ap(mut self, n: usize) -> Self {
        self.mhs_per_ap = n;
        self
    }

    /// Number of sources (`s ≤ r`), assigned round-robin to BRs 0, 1, ….
    pub fn sources(mut self, n: usize) -> Self {
        self.sources = n;
        self
    }

    /// Traffic pattern shared by all sources.
    pub fn source_pattern(mut self, p: TrafficPattern) -> Self {
        self.source_pattern = p;
        self
    }

    /// Source start/stop window.
    pub fn source_window(mut self, start: SimTime, stop: Option<SimTime>) -> Self {
        self.source_start = start;
        self.source_stop = stop;
        self
    }

    /// Per-source message limit.
    pub fn source_limit(mut self, limit: u64) -> Self {
        self.source_limit = Some(limit);
        self
    }

    /// Protocol configuration.
    pub fn config(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Link profiles.
    pub fn links(mut self, links: LinkPlan) -> Self {
        self.links = links;
        self
    }

    /// Whether APs are statically in the tree (disable for mobility
    /// experiments so activation is member-driven).
    pub fn aps_always_active(mut self, v: bool) -> Self {
        self.aps_always_active = v;
        self
    }

    /// Assemble the spec. IDs are assigned sequentially: BRs first, then
    /// AGs ring by ring, then APs; GUIDs from 0.
    pub fn build(self) -> HierarchySpec {
        assert!(self.sources <= self.brs, "the paper assumes s ≤ r");
        let mut next_id = 0u32;
        let mut take = |n: usize| -> Vec<NodeId> {
            let ids: Vec<NodeId> = (next_id..next_id + n as u32).map(NodeId).collect();
            next_id += n as u32;
            ids
        };
        let top_ring = take(self.brs);
        let mut ag_rings = Vec::with_capacity(self.ag_rings);
        for i in 0..self.ag_rings {
            let members = take(self.ags_per_ring);
            // Preferred parent rotates over BRs; the next BR is the backup.
            let pref = top_ring[i % top_ring.len()];
            let backup = top_ring[(i + 1) % top_ring.len()];
            let parent_candidates = if backup == pref {
                vec![pref]
            } else {
                vec![pref, backup]
            };
            ag_rings.push(AgRingSpec {
                members,
                parent_candidates,
            });
        }
        let mut aps = Vec::new();
        for ring in &ag_rings {
            for &ag in &ring.members {
                for _ in 0..self.aps_per_ag {
                    let id = take(1)[0];
                    // Backup parent: the next AG in the same ring.
                    let pos = ring
                        .members
                        .iter()
                        .position(|&m| m == ag)
                        .expect("AG ids come from iterating this very ring");
                    let backup = ring.members[(pos + 1) % ring.members.len()];
                    let parent_candidates = if backup == ag {
                        vec![ag]
                    } else {
                        vec![ag, backup]
                    };
                    aps.push(ApSpec {
                        id,
                        parent_candidates,
                        always_active: self.aps_always_active,
                        neighbours: Vec::new(), // filled below
                    });
                }
            }
        }
        // Neighbour lists: adjacency along the global AP chain (the mobility
        // crate substitutes geographic adjacency when needed).
        let ap_ids: Vec<NodeId> = aps.iter().map(|a| a.id).collect();
        for (i, ap) in aps.iter_mut().enumerate() {
            if i > 0 {
                ap.neighbours.push(ap_ids[i - 1]);
            }
            if i + 1 < ap_ids.len() {
                ap.neighbours.push(ap_ids[i + 1]);
            }
        }
        // Multi-group declarations subscribe every MH to every group and
        // spread sources round-robin over the group list; single-group
        // builds leave both vectors empty (= primary-group default).
        let declared = {
            let mut gs = self.groups.clone();
            if !gs.is_empty() && !gs.contains(&self.group) {
                gs.push(self.group);
            }
            gs.sort_unstable();
            gs.dedup();
            gs
        };
        let mut mhs = Vec::new();
        let mut guid = 0u32;
        for ap in &aps {
            for _ in 0..self.mhs_per_ap {
                mhs.push(MhSpec {
                    guid: Guid(guid),
                    initial_ap: Some(ap.id),
                    subscriptions: declared.clone(),
                });
                guid += 1;
            }
        }
        let sources = (0..self.sources)
            .map(|i| SourceSpec {
                corresponding: top_ring[i],
                pattern: self.source_pattern,
                start: self.source_start,
                stop: self.source_stop,
                limit: self.source_limit,
                groups: if declared.is_empty() {
                    Vec::new()
                } else {
                    vec![declared[i % declared.len()]]
                },
            })
            .collect();
        HierarchySpec {
            group: self.group,
            groups: declared,
            cfg: self.cfg,
            top_ring,
            ag_rings,
            aps,
            mhs,
            sources,
            links: self.links,
        }
    }
}

/// The topology drawn in the paper's Figure 1: one BR ring of four, three
/// AG rings of three, one AP per AG and one MH per AP (the figure is
/// schematic about AP/MH counts; the tier structure is what matters).
pub fn figure1(group: GroupId) -> HierarchySpec {
    HierarchyBuilder::new(group)
        .brs(4)
        .ag_rings(3, 3)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(1)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_spec() {
        let spec = HierarchyBuilder::new(GroupId(1))
            .brs(4)
            .ag_rings(3, 3)
            .aps_per_ag(2)
            .mhs_per_ap(2)
            .sources(2)
            .build();
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        assert_eq!(spec.tier_sizes(), (4, 9, 18, 36));
        assert_eq!(spec.sources.len(), 2);
    }

    #[test]
    fn ids_are_disjoint_across_tiers() {
        let spec = HierarchyBuilder::new(GroupId(1)).build();
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
        let spec = HierarchyBuilder::new(GroupId(1))
            .brs(2)
            .ag_rings(2, 2)
            .sources(1)
            .build();
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
        // Builder ids are creation positions, i.e. addresses.
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
        let spec = figure1(GroupId(9));
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
        // rate slips past the Poisson source's `rate <= 0.0` guard.
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
            let spec = HierarchyBuilder::new(GroupId(1))
                .source_pattern(pattern)
                .build();
            let problems = spec.validate();
            assert!(
                problems.iter().any(|p| p.contains(problem)),
                "{pattern:?}: {problems:?}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = figure1(GroupId(1));
        spec.sources.push(SourceSpec {
            corresponding: NodeId(9999),
            pattern: TrafficPattern::Poisson { rate: 1.0 },
            start: SimTime::ZERO,
            stop: None,
            limit: None,
            groups: Vec::new(),
        });
        assert!(!spec.validate().is_empty());

        let mut spec2 = figure1(GroupId(1));
        spec2.mhs.push(MhSpec {
            guid: spec2.mhs[0].guid,
            initial_ap: None,
            subscriptions: Vec::new(),
        });
        assert!(spec2
            .validate()
            .iter()
            .any(|p| p.contains("duplicate GUID")));

        let mut spec3 = figure1(GroupId(1));
        spec3.aps[0].parent_candidates.clear();
        assert!(spec3
            .validate()
            .iter()
            .any(|p| p.contains("no candidate parent AG")));
    }

    #[test]
    fn mh_may_attach_to_a_top_ring_member_in_the_station_shape_only() {
        // Station shape: no AG rings, no APs — the BRs serve MHs directly.
        let mut spec = figure1(GroupId(1));
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
        let mut tiered = figure1(GroupId(1));
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
        let mut spec = figure1(GroupId(1));
        let dup = spec.sources[0].clone();
        spec.sources.push(dup);
        assert!(spec
            .validate()
            .iter()
            .any(|p| p.contains("multiple sources")));
    }

    #[test]
    fn neighbours_form_a_chain() {
        let spec = HierarchyBuilder::new(GroupId(1))
            .ag_rings(1, 2)
            .aps_per_ag(2)
            .build();
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
    fn mhs_without_initial_ap_are_allowed() {
        let mut spec = figure1(GroupId(1));
        spec.mhs.push(MhSpec {
            guid: Guid(1000),
            initial_ap: None,
            subscriptions: Vec::new(),
        });
        assert!(spec.validate().is_empty());
    }
}
