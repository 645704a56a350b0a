//! The protocol-generic driver API: one [`Scenario`] description, one
//! [`MulticastSim`] trait, one [`RunReport`] — for RingNet *and* every
//! comparator protocol.
//!
//! The paper's whole argument is comparative (RingNet vs a flat logical
//! ring, an unordered hierarchy, tree multicast, home-agent tunnelling and
//! a RelM-style supervisor), so the repo treats the multicast protocol as a
//! pluggable component: a [`Scenario`] declares the *world* — attachment
//! points, mobile hosts, traffic, link profiles, and a schedule of
//! handoffs/failures/late joins — in protocol-agnostic terms, and each
//! backend maps it onto its own structure:
//!
//! | backend | attachment point becomes | wired core |
//! |---------|--------------------------|-----------|
//! | `RingNetSim` | an AP under the BR/AG hierarchy | BRs + AGs |
//! | `baselines::FlatRingSim` | a station of the RingNet engine's station shape (one big ring) | all stations |
//! | `baselines::UnorderedSim` | an AP of the same `HierarchySpec` (no token) | BRs + AGs |
//! | `baselines::TreeSim` | a leaf of a degenerate (ring-of-one) tree | root + routers |
//! | `baselines::TunnelSim` | a foreign-agent AP (an edge of the star) | the home agent |
//! | `baselines::RelmSim` | an MSS under the supervisor (an edge of the star) | the supervisor host |
//!
//! Identity mapping is uniform: **walker `i` is `Guid(i)`** and
//! **attachment `k` is the backend's `k`-th attachment entity** in every
//! backend, so one journal analysis (see [`crate::metrics`]) compares runs
//! across protocols.
//!
//! ```
//! use ringnet_core::driver::{MulticastSim, ScenarioBuilder};
//! use ringnet_core::engine::RingNetSim;
//! use simnet::{SimDuration, SimTime};
//!
//! let scenario = ScenarioBuilder::new()
//!     .attachments(4)
//!     .walkers_per_attachment(1)
//!     .cbr(SimDuration::from_millis(20))
//!     .message_limit(10)
//!     .duration(SimTime::from_secs(3))
//!     .build();
//! let report = RingNetSim::run_scenario(&scenario, 42);
//! assert_eq!(report.metrics.order_violations, 0);
//! assert!(report.metrics.delivered > 0);
//! ```

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use simnet::{Histogram, LinkProfile, SimDuration, SimStats, SimTime};

use crate::engine::RingNetSim;
use crate::hierarchy::{
    figure1, AgRingSpec, ApSpec, Entity, HierarchyBuilder, HierarchySpec, LinkPlan, MhSpec,
    SourceSpec, TrafficPattern,
};
use crate::ids::{GroupId, Guid, NodeId};
use crate::metrics;
use crate::ProtoEvent;
use crate::ProtocolConfig;

// ------------------------------------------------------------- scenario

/// How tree-capable backends shape their wired core. Backends without a
/// configurable core (flat ring, tunnel, RelM) ignore the hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreShape {
    /// Pick a balanced shape from the attachment count (two+ BRs, one AG
    /// ring of roughly one AG per four attachment points — the shape the
    /// mobility experiments use).
    Auto,
    /// An explicit regular hierarchy: `brs` top-ring BRs, `rings` AG rings
    /// of `ags_per_ring` AGs. The attachment count must divide evenly into
    /// `rings × ags_per_ring` APs.
    Hierarchy {
        /// BRs on the top ring.
        brs: usize,
        /// Number of AG rings.
        rings: usize,
        /// AGs per ring.
        ags_per_ring: usize,
    },
    /// The paper's Figure 1 topology (4 BRs, 3 rings × 3 AGs, 9 APs).
    /// Use [`ScenarioBuilder::figure1`], which also sizes the attachments
    /// and walkers to match.
    Figure1,
}

/// One scheduled world event. Times are simulation times; identities are
/// protocol-agnostic (walker numbers and attachment indices).
///
/// Backends without the corresponding mechanism ignore an event: the
/// static-membership baselines (unordered, RelM) ignore mobility events,
/// and only the RingNet-engine backends (RingNet, tree) implement
/// failures. This is deliberate — a `Scenario` describes what the world
/// *does*, and a protocol that cannot react is exactly what the
/// comparison experiments measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// Walker `walker` moves: its radio detaches from the current
    /// attachment and attaches at attachment `to`.
    Handoff {
        /// When the radio switches.
        at: SimTime,
        /// The moving walker.
        walker: usize,
        /// Destination attachment index.
        to: usize,
    },
    /// A walker built with no initial attachment joins the group at
    /// attachment `at_ap`.
    Join {
        /// When the join happens.
        at: SimTime,
        /// The joining walker.
        walker: usize,
        /// Attachment index joined at.
        at_ap: usize,
    },
    /// Crash-stop failure of the `index`-th wired-core entity (backend
    /// order: RingNet/unordered = BRs then AGs; flat ring = stations;
    /// tree = root then routers). The index must be in range for the
    /// backend's core — backends that implement failures panic on an
    /// out-of-range index rather than silently killing a different
    /// entity.
    KillCore {
        /// When the entity dies.
        at: SimTime,
        /// Index into the backend's wired-core entity list.
        index: usize,
    },
    /// Crash-stop failure of a walker.
    KillWalker {
        /// When the walker dies.
        at: SimTime,
        /// The dying walker.
        walker: usize,
    },
    /// Crash-stop failure of the `ap`-th *attachment* entity (as opposed to
    /// [`ScenarioEvent::KillCore`], which targets the wired core). Walkers
    /// under the crashed attachment lose service until it restarts (see
    /// [`ScenarioEvent::ApRestart`]) or they hand off elsewhere. Implemented
    /// by the RingNet-engine backends (RingNet, tree); the flat ring's
    /// stations are ring members (use `KillCore` there) and the static
    /// baselines ignore it.
    ApCrash {
        /// When the attachment entity crashes.
        at: SimTime,
        /// Attachment index.
        ap: usize,
    },
    /// Restart of a previously crashed attachment entity with
    /// factory-fresh protocol state: it re-grafts into the distribution
    /// tree and its walkers re-register (solicited when the amnesiac AP
    /// hears from an MH it no longer knows). Messages that flowed while it
    /// was down surface as per-walker skips, not as order violations.
    ApRestart {
        /// When the attachment entity comes back.
        at: SimTime,
        /// Attachment index.
        ap: usize,
    },
    /// Wired-link partition between the `a`-th and `b`-th wired-core
    /// entities (same indexing as [`ScenarioEvent::KillCore`]): every
    /// direct link between the two goes administratively down until a
    /// matching [`ScenarioEvent::HealCore`]. Pairs without a direct link
    /// are a no-op. Implemented by the RingNet-engine backends.
    PartitionCore {
        /// When the links go down.
        at: SimTime,
        /// First core entity index.
        a: usize,
        /// Second core entity index.
        b: usize,
    },
    /// Heal a wired-core partition: the links between the `a`-th and
    /// `b`-th core entities come back up.
    HealCore {
        /// When the links come back.
        at: SimTime,
        /// First core entity index.
        a: usize,
        /// Second core entity index.
        b: usize,
    },
    /// Forced loss of the ordering token: every ordering node is armed to
    /// black-hole the next current-epoch token it receives, so the first
    /// transfer after `at` vanishes and the Token-Regeneration machinery
    /// must restore ordering. Implemented by the RingNet-engine backends
    /// and the flat ring; a no-op where no token circulates.
    DropToken {
        /// When the ordering nodes are armed.
        at: SimTime,
    },
    /// Restart of a previously crashed wired-core entity (same indexing as
    /// [`ScenarioEvent::KillCore`]) with factory-fresh protocol state: the
    /// entity re-enters its repaired ring through the
    /// `RejoinRequest`/`RejoinGrant` handshake, is spliced back in at a
    /// token boundary, and resyncs its `MQ` from the granter's announced
    /// front. Implemented by the RingNet-engine backends (RingNet, tree)
    /// and the flat ring; the static baselines ignore it.
    RingRejoin {
        /// When the entity comes back.
        at: SimTime,
        /// Index into the backend's wired-core entity list.
        index: usize,
    },
    /// Partition the *ordering ring*: every wired link between the
    /// `isolate`-th wired-core entity (same indexing as
    /// [`ScenarioEvent::KillCore`]) and the other members of **its own
    /// logical ring** goes administratively down until the matching
    /// [`ScenarioEvent::HealRing`]. The isolated side evaluates the
    /// ring-epoch layer's primary-component rule, fences itself
    /// (`Partitioned` lifecycle state — no GSN assignment, no token
    /// regeneration, submissions queue) and merges back after the heal.
    /// Implemented by the RingNet-engine backends and the flat ring; a
    /// ring-of-one member (the tree backend) has no ring links to sever,
    /// so the event degenerates to a no-op there; static baselines ignore
    /// it. Out-of-range indices panic, exactly like `KillCore`.
    PartitionRing {
        /// When the links go down.
        at: SimTime,
        /// Index of the core entity isolated from its ring peers.
        isolate: usize,
    },
    /// Heal a ring partition: the links between the `isolate`-th core
    /// entity and its ring peers come back up. The fenced minority then
    /// detects the heal by probing and runs the epoch-fenced merge.
    HealRing {
        /// When the links come back.
        at: SimTime,
        /// Index of the previously isolated core entity.
        isolate: usize,
    },
    /// Byzantine-ish control-message fault: re-inject a *duplicated,
    /// delayed* copy of a control message concerning the `index`-th core
    /// entity (see [`ReplayKind`]). The protocol's idempotency and epoch
    /// fences must absorb the copy. Implemented by the RingNet-engine
    /// backends and the flat ring; static baselines ignore it.
    ReplayControl {
        /// When the stale copy is injected.
        at: SimTime,
        /// Which control message is duplicated.
        kind: ReplayKind,
        /// Index into the backend's wired-core entity list.
        index: usize,
    },
}

/// Which control message a [`ScenarioEvent::ReplayControl`] duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayKind {
    /// The `index`-th core entity re-sends its kept ordering-token
    /// snapshot to its ring next — a delayed duplicate of a pass it
    /// already forwarded. The receiver's epoch fence must suppress
    /// whichever copy arrives second.
    Token,
    /// A duplicate of the `RingFail` broadcast about the `index`-th core
    /// entity is re-delivered to every static member of its ring.
    /// Requires a preceding [`ScenarioEvent::KillCore`] of the same
    /// entity (and must precede any [`ScenarioEvent::RingRejoin`] of it —
    /// a delayed conviction landing *after* a completed re-entry would be
    /// indistinguishable from a fresh failure).
    RingFail,
    /// A duplicate of the `RejoinGrant` broadcast about the `index`-th
    /// core entity is re-delivered to its ring peers (not the member
    /// itself — peers ignore the grant's `front`/`pass` payload).
    /// Requires a preceding [`ScenarioEvent::RingRejoin`] of the same
    /// entity; note that is the *restart*, not the splice — when the
    /// genuine token-boundary grant is delayed (e.g. a regeneration is in
    /// flight) the copy can land **early**, flipping the still-rejoining
    /// member `Active` in peers' views ahead of its splice. The protocol
    /// must absorb both cases: a late copy is an idempotent no-op, an
    /// early one briefly routes ring traffic at a member that ignores it
    /// un-acked (bounded retries) until its next request completes the
    /// real splice.
    RejoinGrant,
}

impl ScenarioEvent {
    /// When this event fires.
    pub fn at(&self) -> SimTime {
        match *self {
            ScenarioEvent::Handoff { at, .. }
            | ScenarioEvent::Join { at, .. }
            | ScenarioEvent::KillCore { at, .. }
            | ScenarioEvent::KillWalker { at, .. }
            | ScenarioEvent::ApCrash { at, .. }
            | ScenarioEvent::ApRestart { at, .. }
            | ScenarioEvent::PartitionCore { at, .. }
            | ScenarioEvent::HealCore { at, .. }
            | ScenarioEvent::DropToken { at }
            | ScenarioEvent::RingRejoin { at, .. }
            | ScenarioEvent::PartitionRing { at, .. }
            | ScenarioEvent::HealRing { at, .. }
            | ScenarioEvent::ReplayControl { at, .. } => at,
        }
    }
}

/// A protocol-agnostic deployment + workload + schedule description: the
/// one input every [`MulticastSim`] backend builds from.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The multicast group.
    pub group: GroupId,
    /// Additional declared multicast groups beyond [`Scenario::group`]
    /// (empty = the classic single-group world). Ring-capable backends
    /// instantiate one ordering ring per declared group; see
    /// [`Scenario::declared_groups`].
    pub groups: Vec<GroupId>,
    /// Protocol parameters shared by every entity (backends that have no
    /// use for a knob ignore it).
    pub cfg: ProtocolConfig,
    /// Number of attachment points (cells / APs / stations / MSSs).
    pub attachments: usize,
    /// Optional grid width: attachment `i` sits at cell `(i % cols,
    /// i / cols)` and neighbour relations (the reservation scope) use
    /// 4-connectivity. `None` = attachments form a chain.
    pub grid_cols: Option<usize>,
    /// Per-walker initial attachment; `None` = joins later via a
    /// [`ScenarioEvent::Join`] (backends without late-join support attach
    /// such walkers at attachment 0).
    pub walkers: Vec<Option<usize>>,
    /// Per-walker subscription sets: `subscriptions[w]` is the set of
    /// groups walker `w` subscribes to. Missing or empty entries default
    /// to *all* declared groups; every listed group must be declared.
    pub subscriptions: Vec<Vec<GroupId>>,
    /// Number of multicast sources (backends with a single ingest point —
    /// tunnel, RelM — clamp to their capability; RingNet-family backends
    /// place one source per top-ring node).
    pub sources: usize,
    /// Per-source target group sets: `source_groups[i]` is the fixed group
    /// set that *every* message of source `i` addresses for its whole
    /// lifetime. A missing entry defaults to the single group
    /// `declared[i % R]` (disjoint round-robin sharding); a *present*
    /// entry must be non-empty — a message addressed to no group is
    /// rejected by [`Scenario::validate`]. Entries naming two or more
    /// groups route through the cross-group fence on ring backends.
    pub source_groups: Vec<Vec<GroupId>>,
    /// Traffic pattern shared by all sources.
    pub pattern: TrafficPattern,
    /// First transmission time.
    pub start: SimTime,
    /// Sources stop at this time (None = never).
    pub stop: Option<SimTime>,
    /// Per-source message limit (None = unlimited).
    pub limit: Option<u64>,
    /// Link profiles; backends draw the scopes they have (a flat ring uses
    /// `top_ring` + `wireless`; the tunnel's home detour uses `top_ring`).
    pub links: LinkPlan,
    /// Wired-core shape hint for tree-capable backends.
    pub shape: CoreShape,
    /// Whether attachment entities are statically in the distribution tree
    /// (disable for mobility scenarios so activation is member-driven).
    pub aps_always_active: bool,
    /// The world schedule: handoffs, late joins, failures.
    pub events: Vec<ScenarioEvent>,
    /// How long [`MulticastSim::run_scenario`] runs before tearing down.
    pub duration: SimTime,
    /// Whether the run retains the full protocol-event journal in
    /// [`RunReport::journal`] (default `true` — tests and diagnostics read
    /// it). Disable for full-sweep-scale runs: metrics then stream through
    /// a [`metrics::MetricsAccumulator`] fed online from the journal sink,
    /// the journal `Vec` is never materialized, and `RunReport::journal`
    /// comes back empty.
    pub retain_journal: bool,
    /// Event-queue shards for backends that support intra-world parallel
    /// execution (currently the ringnet backend; others ignore it). `1` =
    /// classic sequential run. Results are byte-identical per `(seed,
    /// shards)` and semantically equivalent across shard counts; see
    /// `simnet::shard`.
    pub shards: usize,
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Every group this scenario declares: [`Scenario::group`] plus
    /// [`Scenario::groups`], sorted and deduplicated. Never empty.
    pub fn declared_groups(&self) -> Vec<GroupId> {
        let mut all = self.groups.clone();
        all.push(self.group);
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Walker `w`'s subscription set, sorted and deduplicated. Missing or
    /// empty entries mean "every declared group".
    pub fn subscriptions_of(&self, w: usize) -> Vec<GroupId> {
        match self.subscriptions.get(w) {
            Some(subs) if !subs.is_empty() => {
                let mut subs = subs.clone();
                subs.sort_unstable();
                subs.dedup();
                subs
            }
            _ => self.declared_groups(),
        }
    }

    /// Source `i`'s fixed target group set, sorted and deduplicated. A
    /// missing entry defaults to the single group `declared[i % R]`.
    pub fn source_groups_of(&self, i: usize) -> Vec<GroupId> {
        match self.source_groups.get(i) {
            Some(gs) if !gs.is_empty() => {
                let mut gs = gs.clone();
                gs.sort_unstable();
                gs.dedup();
                gs
            }
            _ => {
                let declared = self.declared_groups();
                vec![declared[i % declared.len()]]
            }
        }
    }

    /// How many ordering-capable (token-ring) nodes the scenario's core
    /// shape provides — the ceiling on the declared group count, since
    /// each group's ring needs its own token-origin node. The auto shape
    /// grows its BR ring to fit both sources and groups.
    pub fn ordering_capable_nodes(&self) -> usize {
        match self.shape {
            CoreShape::Auto => self.sources.max(2).max(self.declared_groups().len()),
            CoreShape::Hierarchy { brs, .. } => brs,
            CoreShape::Figure1 => 4,
        }
    }

    /// Structural validation; returns human-readable problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let declared = self.declared_groups();
        if declared.len() > self.ordering_capable_nodes() {
            problems.push(format!(
                "{} groups declared but the core shape has only {} \
                 ordering-capable nodes (one token ring per group)",
                declared.len(),
                self.ordering_capable_nodes()
            ));
        }
        if self.subscriptions.len() > self.walkers.len() {
            problems.push(format!(
                "{} subscription sets for {} walkers",
                self.subscriptions.len(),
                self.walkers.len()
            ));
        }
        for (w, subs) in self.subscriptions.iter().enumerate() {
            for g in subs {
                if !declared.contains(g) {
                    problems.push(format!("walker {w} subscribes to undeclared group {g}"));
                }
            }
        }
        if self.source_groups.len() > self.sources {
            problems.push(format!(
                "{} source group sets for {} sources",
                self.source_groups.len(),
                self.sources
            ));
        }
        for (i, gs) in self.source_groups.iter().enumerate() {
            if gs.is_empty() {
                problems.push(format!(
                    "source {i}: empty group set — every message must address \
                     at least one group"
                ));
            }
            for g in gs {
                if !declared.contains(g) {
                    problems.push(format!("source {i} addresses undeclared group {g}"));
                }
            }
        }
        if self.attachments == 0 {
            problems.push("no attachment points".into());
        }
        if self.sources == 0 {
            problems.push("no sources".into());
        }
        problems.extend(self.pattern.problem());
        problems.extend(self.cfg.validate());
        if self.shards == 0 {
            problems.push("shards must be at least 1 (1 = sequential run)".into());
        } else if self.shards > self.attachments {
            problems.push(format!(
                "{} shards requested but only {} attachment subtrees exist to \
                 partition — use at most one shard per attachment",
                self.shards, self.attachments
            ));
        }
        for (w, att) in self.walkers.iter().enumerate() {
            if let Some(a) = att {
                if *a >= self.attachments {
                    problems.push(format!("walker {w} starts at nonexistent attachment {a}"));
                }
            }
        }
        if let Some(cols) = self.grid_cols {
            if cols == 0 || !self.attachments.is_multiple_of(cols) {
                problems.push(format!(
                    "grid width {cols} does not tile {} attachments",
                    self.attachments
                ));
            }
        }
        if self.shape == CoreShape::Figure1 && self.attachments != 9 {
            problems.push(format!(
                "Figure 1 has exactly 9 attachment points, not {}",
                self.attachments
            ));
        }
        if let CoreShape::Hierarchy {
            brs,
            rings,
            ags_per_ring,
        } = self.shape
        {
            if brs == 0 || rings == 0 || ags_per_ring == 0 {
                problems.push("empty hierarchy shape".into());
            } else if !self.attachments.is_multiple_of(rings * ags_per_ring) {
                problems.push(format!(
                    "{} attachments do not divide into {rings}×{ags_per_ring} AGs",
                    self.attachments
                ));
            }
            if self.sources > brs {
                problems.push(format!(
                    "{} sources > {brs} BRs (the paper assumes s ≤ r)",
                    self.sources
                ));
            }
        }
        for ev in &self.events {
            let (walker, att) = match *ev {
                ScenarioEvent::Handoff { walker, to, .. } => (Some(walker), Some(to)),
                ScenarioEvent::Join { walker, at_ap, .. } => (Some(walker), Some(at_ap)),
                ScenarioEvent::KillCore { .. } => (None, None),
                // A rejoin revives a *crashed* entity; rejoining a live one
                // would silently factory-reset it mid-run.
                ScenarioEvent::RingRejoin { at, index } => {
                    let killed_before = self.events.iter().any(|e| {
                        matches!(e, ScenarioEvent::KillCore { at: k, index: i }
                                 if *i == index && *k <= at)
                    });
                    if !killed_before {
                        problems.push(format!(
                            "RingRejoin of core entity {index} at {at} without a \
                             preceding KillCore of the same entity"
                        ));
                    }
                    (None, None)
                }
                ScenarioEvent::KillWalker { walker, .. } => (Some(walker), None),
                ScenarioEvent::ApCrash { ap, .. } | ScenarioEvent::ApRestart { ap, .. } => {
                    (None, Some(ap))
                }
                // Core indexing is backend-dependent (like KillCore) and
                // checked by each backend; only the pair shape is validated.
                ScenarioEvent::PartitionCore { a, b, .. }
                | ScenarioEvent::HealCore { a, b, .. } => {
                    if a == b {
                        problems.push(format!("partition/heal between core entity {a} and itself"));
                    }
                    (None, None)
                }
                // A ring partition must heal into a still-partitioned ring
                // never: at most one unhealed PartitionRing at a time.
                ScenarioEvent::PartitionRing { at, isolate } => {
                    let unhealed_before = self.events.iter().any(|e| {
                        let ScenarioEvent::PartitionRing {
                            at: p,
                            isolate: other,
                        } = *e
                        else {
                            return false;
                        };
                        if p > at || (p, other) == (at, isolate) {
                            return false;
                        }
                        // Healed strictly inside (p, at]?
                        !self.events.iter().any(|h| {
                            matches!(h, ScenarioEvent::HealRing { at: ha, isolate: hi }
                                     if *hi == other && *ha >= p && *ha <= at)
                        })
                    });
                    if unhealed_before {
                        problems.push(format!(
                            "PartitionRing of core entity {isolate} at {at} while an \
                             earlier ring partition is still unhealed"
                        ));
                    }
                    (None, None)
                }
                ScenarioEvent::HealRing { at, isolate } => {
                    let partitioned_before = self.events.iter().any(|e| {
                        matches!(e, ScenarioEvent::PartitionRing { at: p, isolate: i }
                                 if *i == isolate && *p <= at)
                    });
                    if !partitioned_before {
                        problems.push(format!(
                            "HealRing of core entity {isolate} at {at} without a \
                             preceding PartitionRing of the same entity"
                        ));
                    }
                    (None, None)
                }
                ScenarioEvent::ReplayControl { at, kind, index } => {
                    match kind {
                        ReplayKind::Token => {}
                        ReplayKind::RingFail => {
                            let killed_before = self.events.iter().any(|e| {
                                matches!(e, ScenarioEvent::KillCore { at: k, index: i }
                                         if *i == index && *k <= at)
                            });
                            if !killed_before {
                                problems.push(format!(
                                    "RingFail replay for core entity {index} at {at} \
                                     without a preceding KillCore of the same entity"
                                ));
                            }
                            let rejoined_first = self.events.iter().any(|e| {
                                matches!(e, ScenarioEvent::RingRejoin { at: r, index: i }
                                         if *i == index && *r <= at)
                            });
                            if rejoined_first {
                                problems.push(format!(
                                    "RingFail replay for core entity {index} at {at} \
                                     after its RingRejoin — a delayed conviction landing \
                                     post-re-entry would be a fresh failure, not a duplicate"
                                ));
                            }
                        }
                        ReplayKind::RejoinGrant => {
                            let rejoined_before = self.events.iter().any(|e| {
                                matches!(e, ScenarioEvent::RingRejoin { at: r, index: i }
                                         if *i == index && *r <= at)
                            });
                            if !rejoined_before {
                                problems.push(format!(
                                    "RejoinGrant replay for core entity {index} at {at} \
                                     without a preceding RingRejoin of the same entity"
                                ));
                            }
                        }
                    }
                    (None, None)
                }
                ScenarioEvent::DropToken { .. } => (None, None),
            };
            if let Some(w) = walker {
                if w >= self.walkers.len() {
                    problems.push(format!("event on nonexistent walker {w}"));
                }
            }
            if let Some(a) = att {
                if a >= self.attachments {
                    problems.push(format!("event targets nonexistent attachment {a}"));
                }
            }
            if ev.at() > self.duration {
                problems.push(format!(
                    "event at {} is scheduled after the {} run window",
                    ev.at(),
                    self.duration
                ));
            }
        }
        problems
    }

    /// Neighbour attachment indices of attachment `i` under this
    /// scenario's spatial arrangement (grid 4-connectivity, else chain).
    pub fn neighbours_of(&self, i: usize) -> Vec<usize> {
        if let Some(cols) = self.grid_cols {
            let (x, y) = (i % cols, i / cols);
            let rows = self.attachments / cols;
            let mut out = Vec::with_capacity(4);
            if x > 0 {
                out.push(i - 1);
            }
            if x + 1 < cols {
                out.push(i + 1);
            }
            if y > 0 {
                out.push(i - cols);
            }
            if y + 1 < rows {
                out.push(i + cols);
            }
            out
        } else {
            let mut out = Vec::with_capacity(2);
            if i > 0 {
                out.push(i - 1);
            }
            if i + 1 < self.attachments {
                out.push(i + 1);
            }
            out
        }
    }

    /// Expected journal size, used to pre-size the record storage before a
    /// run (an estimate from the workload: per-message fan-out to every
    /// walker plus ordering records and teardown finals; capped so a
    /// mis-declared scenario cannot balloon the pre-allocation).
    pub fn journal_capacity_hint(&self) -> usize {
        let per_source: u64 = match self.limit {
            Some(l) => l,
            None => {
                let window = self
                    .stop
                    .unwrap_or(self.duration)
                    .saturating_since(self.start);
                let per_sec = match self.pattern {
                    TrafficPattern::Cbr { interval } => 1e9 / interval.as_nanos().max(1) as f64,
                    TrafficPattern::Poisson { rate } => rate.max(0.0),
                };
                (window.as_secs_f64() * per_sec).ceil() as u64
            }
        };
        let msgs = per_source.saturating_mul(self.sources as u64);
        let walkers = self.walkers.len() as u64;
        let estimate = msgs
            .saturating_mul(walkers + 2)
            .saturating_add(walkers.saturating_mul(8))
            .saturating_add(256);
        estimate.min(1 << 20) as usize
    }

    /// The initial attachment of every walker for static-membership
    /// backends (unordered, RelM): walkers with an initial attachment keep
    /// it; a late joiner is attached at its [`ScenarioEvent::Join`] target
    /// from the start (or attachment 0 with no join scheduled). One shared
    /// rule so every static backend places late joiners identically.
    pub fn static_placements(&self) -> Vec<usize> {
        let mut placements: Vec<usize> = self.walkers.iter().map(|w| w.unwrap_or(0)).collect();
        for ev in &self.events {
            if let ScenarioEvent::Join { walker, at_ap, .. } = *ev {
                if self.walkers.get(walker) == Some(&None) {
                    placements[walker] = at_ap;
                }
            }
        }
        placements
    }
}

/// Fluent constructor for [`Scenario`] — the one piece of glue every
/// experiment, example and test shares.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    sc: Scenario,
    walkers_per_attachment: Option<usize>,
}

impl ScenarioBuilder {
    /// Defaults: group 1, default protocol config, 4 attachments in a
    /// chain, one walker per attachment, one 100 msg/s CBR source, default
    /// links, auto core shape, always-active attachments, 5 s duration.
    pub fn new() -> Self {
        ScenarioBuilder {
            sc: Scenario {
                group: GroupId(1),
                groups: Vec::new(),
                cfg: ProtocolConfig::default(),
                attachments: 4,
                grid_cols: None,
                walkers: Vec::new(),
                subscriptions: Vec::new(),
                sources: 1,
                source_groups: Vec::new(),
                pattern: TrafficPattern::Cbr {
                    interval: SimDuration::from_millis(10),
                },
                start: SimTime::ZERO,
                stop: None,
                limit: None,
                links: LinkPlan::default(),
                shape: CoreShape::Auto,
                aps_always_active: true,
                events: Vec::new(),
                duration: SimTime::from_secs(5),
                retain_journal: true,
                shards: 1,
            },
            walkers_per_attachment: Some(1),
        }
    }

    /// The paper's Figure 1 deployment: 9 attachments under the Figure-1
    /// hierarchy, one walker per attachment.
    pub fn figure1(group: GroupId) -> Self {
        let spec = figure1(group);
        let mut b = Self::new();
        b.sc.group = group;
        b.sc.attachments = spec.aps.len();
        b.sc.shape = CoreShape::Figure1;
        b
    }

    /// The multicast group.
    pub fn group(mut self, g: GroupId) -> Self {
        self.sc.group = g;
        self
    }

    /// Declare additional multicast groups beyond the primary one (see
    /// [`Scenario::groups`]): ring backends instantiate one ordering ring
    /// per declared group, sources default to round-robin single-group
    /// addressing and walkers to subscribing everywhere.
    pub fn groups(mut self, gs: Vec<GroupId>) -> Self {
        self.sc.groups = gs;
        self
    }

    /// Per-walker subscription sets (see [`Scenario::subscriptions`]).
    pub fn subscriptions(mut self, subs: Vec<Vec<GroupId>>) -> Self {
        self.sc.subscriptions = subs;
        self
    }

    /// Per-source target group sets (see [`Scenario::source_groups`]).
    pub fn source_groups(mut self, gs: Vec<Vec<GroupId>>) -> Self {
        self.sc.source_groups = gs;
        self
    }

    /// Protocol parameters.
    pub fn config(mut self, cfg: ProtocolConfig) -> Self {
        self.sc.cfg = cfg;
        self
    }

    /// Number of attachment points, arranged in a chain.
    pub fn attachments(mut self, n: usize) -> Self {
        self.sc.attachments = n;
        self.sc.grid_cols = None;
        self
    }

    /// Attachment points arranged in a `cols × rows` grid (neighbour scope
    /// = 4-connectivity).
    pub fn grid(mut self, cols: usize, rows: usize) -> Self {
        self.sc.attachments = cols * rows;
        self.sc.grid_cols = Some(cols);
        self
    }

    /// Place `n` walkers at every attachment point (the regular layout).
    pub fn walkers_per_attachment(mut self, n: usize) -> Self {
        self.walkers_per_attachment = Some(n);
        self.sc.walkers.clear();
        self
    }

    /// Explicit walker placement: `placements[i]` is walker `i`'s initial
    /// attachment (`None` = joins later).
    pub fn walkers(mut self, placements: Vec<Option<usize>>) -> Self {
        self.walkers_per_attachment = None;
        self.sc.walkers = placements;
        self
    }

    /// Append one walker at `attachment` (or a late joiner with `None`).
    pub fn walker(mut self, attachment: Option<usize>) -> Self {
        self.walkers_per_attachment = None;
        self.sc.walkers.push(attachment);
        self
    }

    /// Number of multicast sources.
    pub fn sources(mut self, n: usize) -> Self {
        self.sc.sources = n;
        self
    }

    /// Event-queue shards for parallel-capable backends (`1` = sequential;
    /// must not exceed the attachment count — see [`Scenario::validate`]).
    pub fn shards(mut self, n: usize) -> Self {
        self.sc.shards = n;
        self
    }

    /// Traffic pattern shared by all sources.
    pub fn pattern(mut self, p: TrafficPattern) -> Self {
        self.sc.pattern = p;
        self
    }

    /// CBR traffic with the given inter-message interval.
    pub fn cbr(self, interval: SimDuration) -> Self {
        self.pattern(TrafficPattern::Cbr { interval })
    }

    /// Poisson traffic at `rate` messages/second.
    pub fn poisson(self, rate: f64) -> Self {
        self.pattern(TrafficPattern::Poisson { rate })
    }

    /// Source start/stop window.
    pub fn window(mut self, start: SimTime, stop: Option<SimTime>) -> Self {
        self.sc.start = start;
        self.sc.stop = stop;
        self
    }

    /// Per-source message limit.
    pub fn message_limit(mut self, limit: u64) -> Self {
        self.sc.limit = Some(limit);
        self
    }

    /// Full link plan.
    pub fn links(mut self, links: LinkPlan) -> Self {
        self.sc.links = links;
        self
    }

    /// Override just the wireless (last-hop) profile.
    pub fn wireless(mut self, profile: LinkProfile) -> Self {
        self.sc.links.wireless = profile;
        self
    }

    /// Loss-free 2 ms wireless — Theorem 5.1's "without retransmission"
    /// assumption, shared by most comparison experiments.
    pub fn loss_free_wireless(self) -> Self {
        self.wireless(LinkProfile::wired(SimDuration::from_millis(2)))
    }

    /// Wired-core shape hint.
    pub fn shape(mut self, shape: CoreShape) -> Self {
        self.sc.shape = shape;
        self
    }

    /// Whether attachments are statically in the tree (disable for
    /// mobility scenarios).
    pub fn aps_always_active(mut self, v: bool) -> Self {
        self.sc.aps_always_active = v;
        self
    }

    /// Append one scheduled event.
    pub fn event(mut self, ev: ScenarioEvent) -> Self {
        self.sc.events.push(ev);
        self
    }

    /// Append many scheduled events.
    pub fn events(mut self, evs: impl IntoIterator<Item = ScenarioEvent>) -> Self {
        self.sc.events.extend(evs);
        self
    }

    /// How long [`MulticastSim::run_scenario`] runs before teardown.
    pub fn duration(mut self, d: SimTime) -> Self {
        self.sc.duration = d;
        self
    }

    /// Whether to retain the full protocol-event journal (default `true`).
    /// Pass `false` for full-sweep-scale runs: metrics stream online and
    /// [`RunReport::journal`] comes back empty (see
    /// [`Scenario::retain_journal`]).
    pub fn retain_journal(mut self, retain: bool) -> Self {
        self.sc.retain_journal = retain;
        self
    }

    /// Enable the deterministic telemetry layer (per-node metrics,
    /// protocol-phase traces and the flight recorder — see
    /// [`crate::telemetry`]). Off by default; the enabled run's journal is
    /// byte-identical to the disabled run's, and the telemetry lands in
    /// [`RunReport::telemetry`] on supporting backends.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.sc.cfg.telemetry = on;
        self
    }

    /// Finish. Panics on an invalid scenario (use [`Scenario::validate`]
    /// on the built value for graceful handling).
    pub fn build(mut self) -> Scenario {
        if let Some(per) = self.walkers_per_attachment {
            self.sc.walkers = (0..self.sc.attachments)
                .flat_map(|a| std::iter::repeat_n(Some(a), per))
                .collect();
        }
        let problems = self.sc.validate();
        assert!(problems.is_empty(), "invalid scenario: {problems:?}");
        self.sc
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------- run report

/// Protocol-agnostic summary metrics of one finished run, derived from the
/// protocol events in one scan by [`metrics::MetricsAccumulator`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Messages delivered to applications (sum over walkers).
    pub delivered: u64,
    /// Messages skipped as really-lost.
    pub skipped: u64,
    /// Duplicate receptions discarded.
    pub duplicates: u64,
    /// Handoffs performed.
    pub handoffs: u64,
    /// Walkers that reported final statistics.
    pub mhs: u64,
    /// Messages assigned a global sequence number (ordered protocols).
    pub ordered: u64,
    /// Source transmissions observed.
    pub source_msgs: u64,
    /// Total-order violations (must be 0 for ordered protocols).
    pub order_violations: u64,
    /// End-to-end latency samples (source send → application delivery), ns.
    pub e2e_latency: Histogram,
    /// Largest per-entity WQ occupancy peak.
    pub wq_peak: u32,
    /// Largest per-entity MQ occupancy peak.
    pub mq_peak: u32,
    /// Graft + prune events (distribution-tree churn).
    pub tree_churn: u64,
    /// Sum of data messages sent by wired-core entities.
    pub wired_core_data_sent: u64,
    /// Data messages sent by the busiest wired-core entity.
    pub busiest_core_msgs: u64,
    /// Sum of control messages sent by wired-core entities.
    pub wired_core_control_sent: u64,
}

impl RunMetrics {
    /// Fraction of messages delivered (vs delivered + skipped).
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.skipped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// Mean wired-core data copies per source message.
    pub fn wired_copies_per_msg(&self) -> f64 {
        self.wired_core_data_sent as f64 / self.source_msgs.max(1) as f64
    }
}

/// Everything a finished [`MulticastSim`] run leaves behind.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The protocol-event journal, time ordered.
    pub journal: Vec<(SimTime, ProtoEvent)>,
    /// Transport-level statistics from the simulator.
    pub stats: SimStats,
    /// Protocol-agnostic summary metrics.
    pub metrics: RunMetrics,
    /// Harvested telemetry (per-node metrics + flight recorders), present
    /// only when the scenario enabled [`crate::config::ProtocolConfig::
    /// telemetry`] **and** the backend supports harvesting (the
    /// RingNet-engine backends — ringnet, tree, flat ring; the other
    /// baselines leave it `None`).
    pub telemetry: Option<crate::telemetry::TelemetryReport>,
}

impl RunReport {
    /// Assemble a report from a finished run. `wired_core` names the
    /// backend's interior (wired) entities so per-core load metrics can be
    /// compared across protocols; the last-hop attachment tier is excluded
    /// by convention (its per-member wireless cost is identical in every
    /// scheme).
    pub fn new(
        journal: Vec<(SimTime, ProtoEvent)>,
        stats: SimStats,
        wired_core: &BTreeSet<NodeId>,
    ) -> Self {
        let mut acc = metrics::MetricsAccumulator::new(wired_core.clone());
        acc.observe_journal(&journal); // the one and only pass
        RunReport {
            journal,
            stats,
            metrics: acc.finish(),
            telemetry: None,
        }
    }
}

// ------------------------------------------------------------- reporting

/// How a backend's run turns into a [`RunReport`], honouring the
/// scenario's [`Scenario::retain_journal`] flag. Every [`MulticastSim`]
/// backend calls [`Reporting::install_journal`] right after constructing its
/// simulator and [`Reporting::finish`] at teardown:
///
/// * retention **on** (default): the journal storage is pre-sized from the
///   scenario's workload and kept; metrics are computed in one batch pass
///   at teardown.
/// * retention **off**: a [`metrics::MetricsAccumulator`] is attached to
///   the simulator's journal sink and fed online; the journal `Vec` is
///   never materialized and the report's journal is empty.
#[derive(Debug, Default)]
pub struct Reporting {
    online: Option<Arc<Mutex<metrics::MetricsAccumulator>>>,
}

impl Reporting {
    /// Configure journalling on `journal` per the scenario (see the type
    /// docs). `wired_core` names the backend's interior entities — the
    /// same set the backend passes to [`Reporting::finish`].
    pub fn install_journal(
        journal: &mut simnet::Journal<ProtoEvent>,
        scenario: &Scenario,
        wired_core: BTreeSet<NodeId>,
    ) -> Reporting {
        if scenario.retain_journal {
            journal.reserve(scenario.journal_capacity_hint());
            Reporting { online: None }
        } else {
            journal.set_retention(false);
            let acc = Arc::new(Mutex::new(metrics::MetricsAccumulator::new(wired_core)));
            let sink = Arc::clone(&acc);
            journal.set_sink(move |t, e| {
                sink.lock().expect("metrics sink poisoned").observe(t, e);
            });
            Reporting { online: Some(acc) }
        }
    }

    /// Assemble the report from a finished run. In online mode the metrics
    /// come from the streamed accumulator (and `journal` is the empty
    /// `Vec` the disabled journal returned); in batch mode they are
    /// computed here in one pass.
    pub fn finish(
        self,
        journal: Vec<(SimTime, ProtoEvent)>,
        stats: SimStats,
        wired_core: &BTreeSet<NodeId>,
    ) -> RunReport {
        match self.online {
            Some(acc) => {
                // The simulator (and with it the sink closure) is already
                // dropped, so this is the last reference.
                let acc = Arc::try_unwrap(acc)
                    .map(|m| m.into_inner().expect("metrics sink poisoned"))
                    .unwrap_or_else(|arc| arc.lock().expect("metrics sink poisoned").clone());
                RunReport {
                    journal,
                    stats,
                    metrics: acc.finish(),
                    telemetry: None,
                }
            }
            None => RunReport::new(journal, stats, wired_core),
        }
    }
}

// ------------------------------------------------------------- the trait

/// A multicast protocol simulation that can be driven by a [`Scenario`].
///
/// The facade every backend implements: build a deterministic simulation
/// from a protocol-agnostic scenario, feed it scheduled world events, run
/// virtual time forward, and tear down into a [`RunReport`]. Experiment
/// code written against this trait runs unchanged on RingNet and on every
/// baseline.
pub trait MulticastSim: Sized {
    /// Instantiate the scenario with the given seed. Panics on a scenario
    /// the backend cannot represent at all (validate first); capabilities
    /// the backend merely lacks (mobility, failures) degrade per
    /// [`ScenarioEvent`]'s documentation instead.
    fn build(scenario: &Scenario, seed: u64) -> Self;

    /// Schedule one world event. Events outside the backend's capability
    /// set are ignored (see [`ScenarioEvent`]).
    fn schedule(&mut self, event: ScenarioEvent);

    /// Run until simulated time `t`.
    fn run_until(&mut self, t: SimTime);

    /// Flush final statistics and tear down into a report.
    fn finish(self) -> RunReport;

    /// Drive a scenario end to end: build, schedule every event, run for
    /// `scenario.duration`, tear down.
    fn run_scenario(scenario: &Scenario, seed: u64) -> RunReport {
        let mut sim = Self::build(scenario, seed);
        for ev in &scenario.events {
            sim.schedule(*ev);
        }
        sim.run_until(scenario.duration);
        sim.finish()
    }
}

// --------------------------------------------- scenario → hierarchy specs

/// Map a scenario onto a [`HierarchySpec`] for the RingNet engine,
/// honouring the scenario's [`CoreShape`]. Attachment `i` becomes
/// `spec.aps[i]`, walker `w` becomes `Guid(w)`.
pub fn ringnet_spec(sc: &Scenario) -> HierarchySpec {
    let mut spec = match sc.shape {
        CoreShape::Figure1 => {
            let mut spec = figure1(sc.group);
            assert_eq!(
                spec.aps.len(),
                sc.attachments,
                "Figure 1 has exactly {} attachment points",
                spec.aps.len()
            );
            spec.cfg = sc.cfg.clone();
            for ap in &mut spec.aps {
                ap.always_active = sc.aps_always_active;
            }
            spec
        }
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
            HierarchyBuilder::new(sc.group)
                .brs(brs)
                .ag_rings(rings, ags_per_ring)
                .aps_per_ag(aps_per_ag)
                .mhs_per_ap(0)
                .sources(sc.sources.min(brs))
                .aps_always_active(sc.aps_always_active)
                .config(sc.cfg.clone())
                .build()
        }
        CoreShape::Auto => auto_hierarchy(sc, sc.ordering_capable_nodes()),
    };
    finish_spec(&mut spec, sc);
    spec
}

/// Map a scenario onto a *degenerate* [`HierarchySpec`] — every logical
/// ring shrunk to one node — which is exactly MIP-RS-style shortest-path
///-tree multicast running the same protocol code (see `baselines::tree`).
/// Reservation radius is forced to 0 and attachments activate on demand:
/// the tree rebuilds on every handoff.
pub fn degenerate_tree_spec(sc: &Scenario) -> HierarchySpec {
    let routers = sc.attachments.div_ceil(2).max(1);
    let mut spec = HierarchySpec {
        group: sc.group,
        groups: Vec::new(),
        cfg: sc.cfg.clone().with_reservation_radius(0),
        top_ring: vec![NodeId(0)],
        ag_rings: (0..routers)
            .map(|i| AgRingSpec {
                members: vec![NodeId(1 + i as u32)],
                parent_candidates: vec![NodeId(0)],
            })
            .collect(),
        aps: (0..sc.attachments)
            .map(|i| ApSpec {
                id: NodeId(1 + routers as u32 + i as u32),
                parent_candidates: vec![NodeId(1 + (i % routers) as u32)],
                always_active: false,
                neighbours: Vec::new(),
            })
            .collect(),
        mhs: Vec::new(),
        sources: Vec::new(),
        links: sc.links.clone(),
    };
    let ap_ids: Vec<NodeId> = spec.aps.iter().map(|a| a.id).collect();
    for (i, ap) in spec.aps.iter_mut().enumerate() {
        ap.neighbours = sc.neighbours_of(i).into_iter().map(|n| ap_ids[n]).collect();
    }
    finish_spec(&mut spec, sc);
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

/// Map a scenario onto the *station shape* of [`HierarchySpec`] — one
/// logical ring over every attachment point, each a hybrid station that
/// orders and serves its walkers directly — which is exactly the flat
/// logical-ring protocol of Nikolaidis & Harms running the same protocol
/// code (see `baselines::flat_ring`). Attachment `i` is station
/// `NodeId(i)`; the ring uses the scenario's `top_ring` link profile.
/// Stations serve joins dynamically, so a late joiner idles at station 0
/// until its [`ScenarioEvent::Join`] hands it off.
pub fn flat_ring_spec(sc: &Scenario) -> HierarchySpec {
    let mut spec = HierarchySpec {
        group: sc.group,
        groups: Vec::new(),
        cfg: sc.cfg.clone(),
        top_ring: (0..sc.attachments as u32).map(NodeId).collect(),
        ag_rings: Vec::new(),
        aps: Vec::new(),
        mhs: Vec::new(),
        sources: Vec::new(),
        links: sc.links.clone(),
    };
    finish_spec(&mut spec, sc);
    for mh in &mut spec.mhs {
        mh.initial_ap.get_or_insert(NodeId(0));
    }
    spec
}

/// The balanced shape the mobility experiments use: `brs` BRs on the
/// ordering ring, one AG ring of roughly one AG per four attachments, APs
/// assigned round-robin.
fn auto_hierarchy(sc: &Scenario, brs: usize) -> HierarchySpec {
    let n_aps = sc.attachments;
    let n_ags = n_aps.div_ceil(4).max(2);
    let br_ids: Vec<NodeId> = (0..brs as u32).map(NodeId).collect();
    let ag_ids: Vec<NodeId> = (brs as u32..(brs + n_ags) as u32).map(NodeId).collect();
    let ap_base = (brs + n_ags) as u32;
    let ap_ids: Vec<NodeId> = (0..n_aps as u32).map(|i| NodeId(ap_base + i)).collect();
    let aps: Vec<ApSpec> = (0..n_aps)
        .map(|cell| {
            let ag = ag_ids[cell % n_ags];
            let backup = ag_ids[(cell + 1) % n_ags];
            ApSpec {
                id: ap_ids[cell],
                parent_candidates: if backup == ag {
                    vec![ag]
                } else {
                    vec![ag, backup]
                },
                always_active: sc.aps_always_active,
                neighbours: sc
                    .neighbours_of(cell)
                    .into_iter()
                    .map(|c| ap_ids[c])
                    .collect(),
            }
        })
        .collect();
    HierarchySpec {
        group: sc.group,
        groups: Vec::new(),
        cfg: sc.cfg.clone(),
        top_ring: br_ids.clone(),
        ag_rings: vec![AgRingSpec {
            members: ag_ids,
            parent_candidates: br_ids,
        }],
        aps,
        mhs: Vec::new(),
        sources: Vec::new(),
        links: sc.links.clone(),
    }
}

/// Apply the scenario's walkers, sources, groups and links onto an
/// assembled spec. Single-group scenarios leave every group field at its
/// empty default, so the spec (and the run) is identical to the
/// pre-multi-group one.
fn finish_spec(spec: &mut HierarchySpec, sc: &Scenario) {
    spec.links = sc.links.clone();
    let declared = sc.declared_groups();
    let multi = declared.len() > 1;
    spec.groups = if multi { declared } else { Vec::new() };
    spec.mhs = sc
        .walkers
        .iter()
        .enumerate()
        .map(|(w, att)| MhSpec {
            guid: Guid(w as u32),
            initial_ap: att.map(|a| attachment_entity(spec, a, "walker")),
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
}

/// The wired-core entity set of a hierarchy spec (BRs + AGs; the AP tier
/// is the last hop and excluded from core-load comparisons).
pub fn hierarchy_core(spec: &HierarchySpec) -> BTreeSet<NodeId> {
    spec_core_order(spec).into_iter().collect()
}

// ------------------------------------------------- RingNetSim as backend

/// The wired-core entities of a spec in scenario-index order (BRs in ring
/// order, then AGs ring by ring) — the indexing [`ScenarioEvent::KillCore`]
/// and [`ScenarioEvent::PartitionCore`] use.
pub fn spec_core_order(spec: &HierarchySpec) -> Vec<NodeId> {
    let core = spec.entities().map_while(|e| match e {
        Entity::Br(id) | Entity::Ag(id, _) => Some(id),
        _ => None,
    });
    core.collect()
}

fn core_entity(spec: &HierarchySpec, index: usize, what: &str) -> NodeId {
    let core = spec_core_order(spec);
    *core.get(index).unwrap_or_else(|| {
        panic!(
            "{what} index {index} out of range ({} core entities)",
            core.len()
        )
    })
}

fn attachment_entity(spec: &HierarchySpec, index: usize, what: &str) -> NodeId {
    spec.attachment(index)
        .unwrap_or_else(|| panic!("{what} attachment index {index} out of range"))
}

impl RingNetSim {
    /// The one "spec + scenario → simulation with reporting installed"
    /// constructor behind every RingNet-engine backend (RingNet, tree,
    /// flat ring): build `spec` on `shards` event-queue shards and set the
    /// journal up per the scenario's retention mode. Torn down by
    /// [`MulticastSim::finish`].
    pub fn for_scenario(
        spec: HierarchySpec,
        scenario: &Scenario,
        seed: u64,
        shards: usize,
    ) -> Self {
        let mut sim = RingNetSim::build_sharded(spec, seed, shards, 0);
        let core = hierarchy_core(&sim.spec);
        sim.reporting = Reporting::install_journal(sim.journal_mut(), scenario, core);
        sim
    }
}

impl MulticastSim for RingNetSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        RingNetSim::for_scenario(ringnet_spec(scenario), scenario, seed, scenario.shards)
    }

    fn schedule(&mut self, event: ScenarioEvent) {
        match event {
            ScenarioEvent::Handoff { at, walker, to } => {
                let ap = attachment_entity(&self.spec, to, "Handoff");
                self.schedule_handoff(at, Guid(walker as u32), ap);
            }
            ScenarioEvent::Join { at, walker, at_ap } => {
                let ap = attachment_entity(&self.spec, at_ap, "Join");
                self.schedule_join(at, Guid(walker as u32), ap);
            }
            ScenarioEvent::KillCore { at, index } => {
                let victim = core_entity(&self.spec, index, "KillCore");
                self.schedule_kill_ne(at, victim);
            }
            ScenarioEvent::KillWalker { at, walker } => {
                self.schedule_kill_mh(at, Guid(walker as u32));
            }
            ScenarioEvent::ApCrash { at, ap } => {
                let ap = attachment_entity(&self.spec, ap, "ApCrash");
                self.schedule_kill_ne(at, ap);
            }
            ScenarioEvent::ApRestart { at, ap } => {
                let ap = attachment_entity(&self.spec, ap, "ApRestart");
                self.schedule_restart_ne(at, ap);
            }
            ScenarioEvent::PartitionCore { at, a, b } => {
                let a = core_entity(&self.spec, a, "PartitionCore");
                let b = core_entity(&self.spec, b, "PartitionCore");
                self.schedule_link_state(at, a, b, false);
            }
            ScenarioEvent::HealCore { at, a, b } => {
                let a = core_entity(&self.spec, a, "HealCore");
                let b = core_entity(&self.spec, b, "HealCore");
                self.schedule_link_state(at, a, b, true);
            }
            ScenarioEvent::DropToken { at } => {
                self.schedule_token_drop(at);
            }
            ScenarioEvent::RingRejoin { at, index } => {
                let member = core_entity(&self.spec, index, "RingRejoin");
                self.schedule_restart_ne(at, member);
            }
            ScenarioEvent::PartitionRing { at, isolate } => {
                let member = core_entity(&self.spec, isolate, "PartitionRing");
                self.schedule_ring_isolation(at, member, false);
            }
            ScenarioEvent::HealRing { at, isolate } => {
                let member = core_entity(&self.spec, isolate, "HealRing");
                self.schedule_ring_isolation(at, member, true);
            }
            ScenarioEvent::ReplayControl { at, kind, index } => {
                let member = core_entity(&self.spec, index, "ReplayControl");
                self.schedule_control_replay(at, kind, member);
            }
        }
    }

    fn run_until(&mut self, t: SimTime) {
        RingNetSim::run_until(self, t);
    }

    fn finish(mut self) -> RunReport {
        let core = hierarchy_core(&self.spec);
        let reporting = std::mem::take(&mut self.reporting);
        let bank = self.telemetry_bank.take();
        let shard_of = std::mem::take(&mut self.telemetry_shards);
        let (journal, stats) = RingNetSim::finish(self);
        let mut report = reporting.finish(journal, stats, &core);
        if let Some(bank) = bank {
            // The actors (and with them the `Arc` clones) died with the
            // simulator; unwrap without cloning when we hold the last ref.
            let bank = Arc::try_unwrap(bank)
                .map(|m| m.into_inner().expect("telemetry bank poisoned"))
                .unwrap_or_else(|arc| arc.lock().expect("telemetry bank poisoned").clone());
            report.telemetry = Some(crate::telemetry::TelemetryReport::new(bank, shard_of));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        ScenarioBuilder::new()
            .attachments(4)
            .walkers_per_attachment(1)
            .sources(2)
            .cbr(SimDuration::from_millis(20))
            .message_limit(10)
            .loss_free_wireless()
            .duration(SimTime::from_secs(3))
            .build()
    }

    #[test]
    fn builder_defaults_are_valid() {
        let sc = ScenarioBuilder::new().build();
        assert!(sc.validate().is_empty());
        assert_eq!(sc.walkers.len(), 4);
        assert!(sc.walkers.iter().all(|w| w.is_some()));
    }

    #[test]
    fn grid_neighbours_are_4_connected() {
        let sc = ScenarioBuilder::new().grid(4, 2).build();
        assert_eq!(sc.attachments, 8);
        assert_eq!(sc.neighbours_of(0), vec![1, 4]);
        let mut n5 = sc.neighbours_of(5);
        n5.sort_unstable();
        assert_eq!(n5, vec![1, 4, 6]);
        // Chain arrangement when no grid is declared.
        let chain = ScenarioBuilder::new().attachments(3).build();
        assert_eq!(chain.neighbours_of(1), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn builder_rejects_bad_walker_placement() {
        let _ = ScenarioBuilder::new()
            .attachments(2)
            .walkers(vec![Some(5)])
            .build();
    }

    #[test]
    fn ringnet_spec_auto_maps_attachments_to_aps() {
        let sc = small();
        let spec = ringnet_spec(&sc);
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        assert_eq!(spec.aps.len(), 4);
        assert_eq!(spec.mhs.len(), 4);
        assert_eq!(spec.sources.len(), 2);
        // Walker i = Guid(i) at spec.aps[i].
        for (i, mh) in spec.mhs.iter().enumerate() {
            assert_eq!(mh.guid, Guid(i as u32));
            assert_eq!(mh.initial_ap, Some(spec.aps[i].id));
        }
    }

    #[test]
    fn ringnet_spec_explicit_hierarchy_shape() {
        let sc = ScenarioBuilder::new()
            .attachments(8)
            .shape(CoreShape::Hierarchy {
                brs: 4,
                rings: 2,
                ags_per_ring: 2,
            })
            .sources(2)
            .build();
        let spec = ringnet_spec(&sc);
        assert!(spec.validate().is_empty());
        assert_eq!(spec.top_ring.len(), 4);
        assert_eq!(spec.ag_rings.len(), 2);
        assert_eq!(spec.aps.len(), 8);
    }

    #[test]
    fn degenerate_tree_is_rings_of_one() {
        let sc = ScenarioBuilder::new().attachments(6).build();
        let spec = degenerate_tree_spec(&sc);
        assert!(spec.validate().is_empty(), "{:?}", spec.validate());
        assert_eq!(spec.top_ring.len(), 1);
        assert!(spec.ag_rings.iter().all(|r| r.members.len() == 1));
        assert!(spec.aps.iter().all(|a| !a.always_active));
        assert_eq!(spec.cfg.reservation_radius, 0);
        assert_eq!(spec.aps.len(), 6);
    }

    #[test]
    fn ringnet_runs_a_scenario_end_to_end() {
        let report = RingNetSim::run_scenario(&small(), 42);
        assert_eq!(report.metrics.order_violations, 0);
        assert_eq!(report.metrics.ordered, 20, "2 sources × 10 messages");
        assert_eq!(report.metrics.delivered, 80, "4 walkers × 20 messages");
        assert_eq!(report.metrics.mhs, 4);
        assert!(report.metrics.e2e_latency.count() > 0);
        assert!(report.stats.packets_delivered > 0);
    }

    #[test]
    fn scenario_events_drive_the_backend() {
        let mut sc = small();
        sc.limit = None;
        sc.events = vec![
            ScenarioEvent::Handoff {
                at: SimTime::from_secs(1),
                walker: 0,
                to: 3,
            },
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(2),
                index: 1,
            },
        ];
        sc.duration = SimTime::from_secs(4);
        let report = RingNetSim::run_scenario(&sc, 7);
        assert_eq!(report.metrics.order_violations, 0);
        assert_eq!(report.metrics.handoffs, 1);
        assert!(report
            .journal
            .iter()
            .any(|(_, e)| matches!(e, ProtoEvent::HandoffRegistered { mh: Guid(0), .. })));
    }

    #[test]
    #[should_panic(expected = "empty group set")]
    fn builder_rejects_empty_message_group_set() {
        // A message addressed to no group is meaningless: a *present*
        // source_groups entry must be non-empty (missing entries get the
        // round-robin default instead).
        let _ = ScenarioBuilder::new()
            .sources(2)
            .groups(vec![GroupId(2)])
            .source_groups(vec![vec![GroupId(1)], Vec::new()])
            .build();
    }

    #[test]
    #[should_panic(expected = "CBR interval must be positive")]
    fn builder_rejects_zero_cbr_interval() {
        // A zero interval would re-arm the source timer at the same
        // instant forever: `run_until` never returns.
        let _ = ScenarioBuilder::new().cbr(SimDuration::ZERO).build();
    }

    #[test]
    #[should_panic(expected = "Figure 1 has exactly 9 attachment points")]
    fn builder_rejects_figure1_with_other_attachment_count() {
        // Used to pass validation, then panic inside `ringnet_spec` (and
        // silently build a five-AP world on the unordered backend).
        let _ = ScenarioBuilder::figure1(GroupId(1)).attachments(5).build();
    }

    #[test]
    fn builder_rejects_degenerate_poisson_rates() {
        for rate in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let mut sc = ScenarioBuilder::new().build();
            sc.pattern = TrafficPattern::Poisson { rate };
            let problems = sc.validate();
            assert!(
                problems.iter().any(|p| p.contains("Poisson rate")),
                "rate {rate}: {problems:?}"
            );
        }
        assert!(ScenarioBuilder::new()
            .poisson(50.0)
            .build()
            .validate()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "subscribes to undeclared group")]
    fn builder_rejects_undeclared_subscription() {
        let _ = ScenarioBuilder::new()
            .groups(vec![GroupId(2)])
            .subscriptions(vec![vec![GroupId(1)], vec![GroupId(7)]])
            .build();
    }

    #[test]
    #[should_panic(expected = "ordering-capable nodes")]
    fn builder_rejects_more_groups_than_ordering_nodes() {
        // Each declared group needs its own token-origin node; a fixed
        // 2-BR hierarchy cannot host three rings. (The Auto shape grows
        // its BR ring to fit, so only explicit shapes can violate this.)
        let _ = ScenarioBuilder::new()
            .attachments(4)
            .shape(CoreShape::Hierarchy {
                brs: 2,
                rings: 2,
                ags_per_ring: 2,
            })
            .groups(vec![GroupId(2), GroupId(3)])
            .build();
    }

    #[test]
    fn multi_group_validate_problems_are_descriptive() {
        // The graceful path reports all three multi-group problems at
        // once, each naming the offending index and rule.
        let mut sc = ScenarioBuilder::new().sources(2).build();
        sc.groups = vec![GroupId(2)];
        sc.subscriptions = vec![vec![GroupId(9)]];
        sc.source_groups = vec![Vec::new(), vec![GroupId(8)]];
        let problems = sc.validate();
        assert!(
            problems
                .iter()
                .any(|p| p.contains("walker 0 subscribes to undeclared group")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("source 0: empty group set")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("source 1 addresses undeclared group")),
            "{problems:?}"
        );
    }

    #[test]
    fn validate_rejects_rejoin_without_kill() {
        let mut sc = ScenarioBuilder::new().build();
        sc.events.push(ScenarioEvent::RingRejoin {
            at: SimTime::from_secs(2),
            index: 3,
        });
        let problems = sc.validate();
        assert!(
            problems.iter().any(|p| p.contains("preceding KillCore")),
            "{problems:?}"
        );
        // Paired with a kill of the same entity it is valid.
        sc.events.insert(
            0,
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(1),
                index: 3,
            },
        );
        assert!(sc.validate().is_empty(), "{:?}", sc.validate());
    }

    #[test]
    fn builder_rejects_events_after_duration() {
        let mut sc = ScenarioBuilder::new()
            .duration(SimTime::from_secs(2))
            .build();
        sc.events.push(ScenarioEvent::DropToken {
            at: SimTime::from_secs(3),
        });
        let problems = sc.validate();
        assert!(problems.iter().any(|p| p.contains("after")), "{problems:?}");
    }

    #[test]
    fn ap_crash_and_restart_recovers_delivery() {
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(6);
        sc.events = vec![
            ScenarioEvent::ApCrash {
                at: SimTime::from_secs(2),
                ap: 1,
            },
            ScenarioEvent::ApRestart {
                at: SimTime::from_secs(3),
                ap: 1,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 11);
        assert_eq!(report.metrics.order_violations, 0);
        // Walker 1 (under the crashed AP) resumed delivery after the restart.
        let last_w1 = report
            .journal
            .iter()
            .filter_map(|(t, e)| match e {
                ProtoEvent::MhDeliver { mh: Guid(1), .. } => Some(*t),
                _ => None,
            })
            .max()
            .expect("walker 1 delivered something");
        assert!(
            last_w1 > SimTime::from_secs(5),
            "delivery resumed after the restart (last at {last_w1})"
        );
        // The outage surfaced as skips, never as disorder or duplicates.
        assert_eq!(report.metrics.duplicates, 0);
    }

    /// Every entity ticks on its own clock whatever the protocol is doing,
    /// so a run with a 20 ms outage fires the timers of the same run without
    /// it, give or take the ticks around the outage (at most one stale and
    /// one phase-shifted per chain). A forked chain would add one tick per
    /// period for the rest of the run.
    fn assert_ticks_like_a_never_restarted_twin(sc: &Scenario, seed: u64, report: &RunReport) {
        let mut twin = sc.clone();
        twin.events.clear();
        let twin = RingNetSim::run_scenario(&twin, seed);
        let (restarted, healthy) = (report.stats.timers_fired, twin.stats.timers_fired);
        assert!(
            restarted.abs_diff(healthy) <= 4,
            "a restarted entity must tick at the rate of a healthy one \
             ({restarted} vs {healthy} timers fired)"
        );
    }

    #[test]
    fn fast_restart_does_not_duplicate_timer_chains() {
        // Crash → restart faster than any timer period: the pre-crash
        // pending timers are still queued at revival and must fall dead,
        // not fork second tick chains (which would double heartbeat and
        // NACK traffic for the rest of the run).
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(6);
        sc.events = vec![
            ScenarioEvent::ApCrash {
                at: SimTime::from_secs(2),
                ap: 1,
            },
            ScenarioEvent::ApRestart {
                at: SimTime::from_millis(2_020),
                ap: 1,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 11);
        assert_eq!(report.metrics.order_violations, 0);
        assert_ticks_like_a_never_restarted_twin(&sc, 11, &report);
    }

    #[test]
    fn core_kill_restart_rejoins_the_ring() {
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(8);
        // Auto shape with 2 sources: core = BRs 0,1 then AGs 2,3. Kill the
        // non-source AG at index 3 and bring it back a second later.
        sc.events = vec![
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(2),
                index: 3,
            },
            ScenarioEvent::RingRejoin {
                at: SimTime::from_secs(3),
                index: 3,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 19);
        assert_eq!(report.metrics.order_violations, 0);
        assert_eq!(report.metrics.duplicates, 0);
        let member = {
            let spec = ringnet_spec(&sc);
            spec_core_order(&spec)[3]
        };
        // The ring noticed the death and the re-entry.
        assert!(report.journal.iter().any(
            |(_, e)| matches!(e, ProtoEvent::RingRepaired { failed, .. } if *failed == member)
        ));
        let rejoined_at = report
            .journal
            .iter()
            .find_map(|(t, e)| match e {
                ProtoEvent::RingRejoined { member: m, .. } if *m == member => Some(*t),
                _ => None,
            })
            .expect("rejoin grant recorded");
        assert!(rejoined_at >= SimTime::from_secs(3));
        // Every walker kept delivering well past the rejoin, in order.
        for w in 0..4u32 {
            let last = report
                .journal
                .iter()
                .filter_map(|(t, e)| match e {
                    ProtoEvent::MhDeliver { mh, .. } if mh.0 == w => Some(*t),
                    _ => None,
                })
                .max()
                .expect("walker delivered");
            assert!(
                last > SimTime::from_secs(7),
                "walker {w} delivering after the rejoin (last at {last})"
            );
        }
    }

    #[test]
    fn top_ring_kill_restart_rejoins_and_resumes_ordering() {
        let mut sc = small();
        sc.sources = 1; // core = BRs 0,1 (+AGs); BR index 1 carries no source
        sc.limit = None;
        sc.duration = SimTime::from_secs(8);
        sc.events = vec![
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(2),
                index: 1,
            },
            ScenarioEvent::RingRejoin {
                at: SimTime::from_secs(3),
                index: 1,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 23);
        assert_eq!(report.metrics.order_violations, 0);
        let member = {
            let spec = ringnet_spec(&sc);
            spec_core_order(&spec)[1]
        };
        let rejoined_at = report
            .journal
            .iter()
            .find_map(|(t, e)| match e {
                ProtoEvent::RingRejoined { member: m, .. } if *m == member => Some(*t),
                _ => None,
            })
            .expect("top-ring rejoin granted at a token boundary");
        // The rejoined BR demonstrably participates in ordering again: it
        // passes the token after the splice.
        assert!(
            report.journal.iter().any(|(t, e)| matches!(e,
                ProtoEvent::TokenPass { node, .. } if *node == member && *t > rejoined_at)),
            "rejoined BR resumed token passing"
        );
        // And ordering as a whole kept running to the end of the window.
        let last_ordered = report
            .journal
            .iter()
            .filter_map(|(t, e)| matches!(e, ProtoEvent::Ordered { .. }).then_some(*t))
            .max()
            .unwrap();
        assert!(last_ordered > SimTime::from_secs(7));
    }

    #[test]
    fn fast_core_rejoin_does_not_duplicate_timer_chains() {
        // Kill → restart faster than any timer period on a *ring* entity:
        // the pre-crash pending timers are still queued at revival and must
        // fall dead under the bumped generation, not fork second chains.
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(7);
        sc.events = vec![
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(2),
                index: 3,
            },
            ScenarioEvent::RingRejoin {
                at: SimTime::from_millis(2_020),
                index: 3,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 29);
        assert_eq!(report.metrics.order_violations, 0);
        assert_ticks_like_a_never_restarted_twin(&sc, 29, &report);
    }

    #[test]
    fn ring_partition_fences_minority_and_merges_on_heal() {
        // sources = 1 → auto shape builds 2 BRs; BR index 1 carries no
        // source and is isolated from the ordering ring for 1.5 s.
        let mut sc = small();
        sc.sources = 1;
        sc.limit = None;
        sc.duration = SimTime::from_secs(8);
        sc.events = vec![
            ScenarioEvent::PartitionRing {
                at: SimTime::from_secs(2),
                isolate: 1,
            },
            ScenarioEvent::HealRing {
                at: SimTime::from_millis(3_500),
                isolate: 1,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 31);
        assert_eq!(report.metrics.order_violations, 0);
        let member = {
            let spec = ringnet_spec(&sc);
            spec_core_order(&spec)[1]
        };
        // The isolated BR fenced itself…
        let fenced_at = report
            .journal
            .iter()
            .find_map(|(t, e)| match e {
                ProtoEvent::RingPartitioned { node, .. } if *node == member => Some(*t),
                _ => None,
            })
            .expect("minority side fenced itself");
        assert!(fenced_at > SimTime::from_secs(2));
        // …never assigned a GSN while fenced…
        assert!(
            !report.journal.iter().any(|(t, e)| matches!(e,
                ProtoEvent::Ordered { node, .. } if *node == member && *t >= fenced_at)),
            "a fenced minority node must not assign GSNs"
        );
        // …and merged back after the heal.
        let merged_at = report
            .journal
            .iter()
            .find_map(|(t, e)| match e {
                ProtoEvent::RingMerged { node, .. } if *node == member => Some(*t),
                _ => None,
            })
            .expect("the fenced member merged back");
        assert!(merged_at >= SimTime::from_millis(3_500));
        // The merged member demonstrably participates in ordering again.
        assert!(
            report.journal.iter().any(|(t, e)| matches!(e,
                ProtoEvent::TokenPass { node, .. } if *node == member && *t > merged_at)),
            "merged BR resumed token passing"
        );
        // No GSN was ever assigned twice across the partition→merge cycle.
        let mut seen = std::collections::BTreeMap::new();
        for (_, e) in &report.journal {
            if let ProtoEvent::Ordered {
                gsn,
                source,
                local_seq,
                ..
            } = e
            {
                if let Some(prev) = seen.insert(*gsn, (*source, *local_seq)) {
                    assert_eq!(
                        prev,
                        (*source, *local_seq),
                        "gsn {gsn:?} assigned to two different messages"
                    );
                }
            }
        }
        // And ordering as a whole ran to the end of the window.
        let last_ordered = report
            .journal
            .iter()
            .filter_map(|(t, e)| matches!(e, ProtoEvent::Ordered { .. }).then_some(*t))
            .max()
            .unwrap();
        assert!(last_ordered > SimTime::from_secs(7));
    }

    #[test]
    fn control_replays_are_absorbed() {
        // Kill an AG, replay its RingFail broadcast while it is down,
        // rejoin it, then replay the grant broadcast and a token snapshot:
        // every duplicate must be absorbed by the idempotent lifecycle and
        // the epoch fence.
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(8);
        sc.events = vec![
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(2),
                index: 3,
            },
            ScenarioEvent::ReplayControl {
                at: SimTime::from_millis(2_600),
                kind: ReplayKind::RingFail,
                index: 3,
            },
            ScenarioEvent::RingRejoin {
                at: SimTime::from_secs(3),
                index: 3,
            },
            ScenarioEvent::ReplayControl {
                at: SimTime::from_secs(4),
                kind: ReplayKind::RejoinGrant,
                index: 3,
            },
            ScenarioEvent::ReplayControl {
                at: SimTime::from_millis(4_500),
                kind: ReplayKind::Token,
                index: 0,
            },
        ];
        assert!(sc.validate().is_empty(), "{:?}", sc.validate());
        let report = RingNetSim::run_scenario(&sc, 37);
        assert_eq!(report.metrics.order_violations, 0);
        assert_eq!(report.metrics.duplicates, 0, "no duplicate deliveries");
        let last_ordered = report
            .journal
            .iter()
            .filter_map(|(t, e)| matches!(e, ProtoEvent::Ordered { .. }).then_some(*t))
            .max()
            .unwrap();
        assert!(last_ordered > SimTime::from_secs(7), "ordering unharmed");
    }

    #[test]
    fn validate_rejects_malformed_partition_schedules() {
        let base = || {
            ScenarioBuilder::new()
                .duration(SimTime::from_secs(6))
                .build()
        };
        // Heal without a preceding partition.
        let mut sc = base();
        sc.events.push(ScenarioEvent::HealRing {
            at: SimTime::from_secs(2),
            isolate: 1,
        });
        assert!(
            sc.validate()
                .iter()
                .any(|p| p.contains("without a preceding PartitionRing")),
            "{:?}",
            sc.validate()
        );
        // Partition of an already-partitioned ring.
        let mut sc = base();
        sc.events.push(ScenarioEvent::PartitionRing {
            at: SimTime::from_secs(1),
            isolate: 1,
        });
        sc.events.push(ScenarioEvent::PartitionRing {
            at: SimTime::from_secs(2),
            isolate: 2,
        });
        assert!(
            sc.validate().iter().any(|p| p.contains("still unhealed")),
            "{:?}",
            sc.validate()
        );
        // Healing in between makes the second partition legal.
        let mut sc = base();
        sc.events.extend([
            ScenarioEvent::PartitionRing {
                at: SimTime::from_secs(1),
                isolate: 1,
            },
            ScenarioEvent::HealRing {
                at: SimTime::from_millis(1_500),
                isolate: 1,
            },
            ScenarioEvent::PartitionRing {
                at: SimTime::from_secs(2),
                isolate: 2,
            },
            ScenarioEvent::HealRing {
                at: SimTime::from_secs(3),
                isolate: 2,
            },
        ]);
        assert!(sc.validate().is_empty(), "{:?}", sc.validate());
    }

    #[test]
    fn validate_rejects_malformed_replays() {
        let base = || {
            ScenarioBuilder::new()
                .duration(SimTime::from_secs(6))
                .build()
        };
        // RingFail replay without the kill.
        let mut sc = base();
        sc.events.push(ScenarioEvent::ReplayControl {
            at: SimTime::from_secs(2),
            kind: ReplayKind::RingFail,
            index: 1,
        });
        assert!(
            sc.validate()
                .iter()
                .any(|p| p.contains("without a preceding KillCore")),
            "{:?}",
            sc.validate()
        );
        // RingFail replay after the member already rejoined.
        let mut sc = base();
        sc.events.extend([
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(1),
                index: 1,
            },
            ScenarioEvent::RingRejoin {
                at: SimTime::from_secs(2),
                index: 1,
            },
            ScenarioEvent::ReplayControl {
                at: SimTime::from_secs(3),
                kind: ReplayKind::RingFail,
                index: 1,
            },
        ]);
        assert!(
            sc.validate()
                .iter()
                .any(|p| p.contains("after its RingRejoin")),
            "{:?}",
            sc.validate()
        );
        // Grant replay without the rejoin.
        let mut sc = base();
        sc.events.push(ScenarioEvent::ReplayControl {
            at: SimTime::from_secs(2),
            kind: ReplayKind::RejoinGrant,
            index: 1,
        });
        assert!(
            sc.validate()
                .iter()
                .any(|p| p.contains("without a preceding RingRejoin")),
            "{:?}",
            sc.validate()
        );
        // Token replays need no precondition.
        let mut sc = base();
        sc.events.push(ScenarioEvent::ReplayControl {
            at: SimTime::from_secs(2),
            kind: ReplayKind::Token,
            index: 0,
        });
        assert!(sc.validate().is_empty(), "{:?}", sc.validate());
    }

    #[test]
    fn forced_token_loss_recovers_via_regeneration() {
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(6);
        sc.events = vec![ScenarioEvent::DropToken {
            at: SimTime::from_secs(2),
        }];
        let report = RingNetSim::run_scenario(&sc, 13);
        assert_eq!(report.metrics.order_violations, 0);
        assert!(report
            .journal
            .iter()
            .any(|(_, e)| matches!(e, ProtoEvent::TokenDropped { .. })));
        assert!(report
            .journal
            .iter()
            .any(|(_, e)| matches!(e, ProtoEvent::TokenRegenerated { .. })));
        let last_ordered = report
            .journal
            .iter()
            .filter_map(|(t, e)| matches!(e, ProtoEvent::Ordered { .. }).then_some(*t))
            .max()
            .unwrap();
        assert!(
            last_ordered > SimTime::from_secs(5),
            "ordering recovered after the drop (last at {last_ordered})"
        );
    }

    #[test]
    fn core_partition_heals_without_disorder() {
        let mut sc = small();
        sc.limit = None;
        sc.duration = SimTime::from_secs(6);
        // Auto shape with 2 sources: core = 2 BRs + 2 AGs; partition the
        // two AGs (indices 2 and 3) for a second.
        sc.events = vec![
            ScenarioEvent::PartitionCore {
                at: SimTime::from_secs(2),
                a: 2,
                b: 3,
            },
            ScenarioEvent::HealCore {
                at: SimTime::from_secs(3),
                a: 2,
                b: 3,
            },
        ];
        let report = RingNetSim::run_scenario(&sc, 17);
        assert_eq!(report.metrics.order_violations, 0);
        assert!(report.metrics.delivered > 0);
    }

    #[test]
    fn figure1_scenario_matches_paper_shape() {
        let sc = ScenarioBuilder::figure1(GroupId(1))
            .cbr(SimDuration::from_millis(10))
            .message_limit(20)
            .duration(SimTime::from_secs(3))
            .build();
        let spec = ringnet_spec(&sc);
        assert_eq!(spec.tier_sizes(), (4, 9, 9, 9));
        let report = RingNetSim::run_scenario(&sc, 1);
        assert_eq!(report.metrics.order_violations, 0);
        assert!(report.metrics.delivered > 0);
    }
}
