//! The [`World`] skeleton of the two baselines that speak their own
//! message type (tunnel, RelM) — a simulator whose actors stop into the
//! engine's [`Harvest`], and the scenario's [`Reporting`] over the wired
//! core — and the [`Star`] assembly both are built on, whose one traffic
//! [`Source`] is the engine's too.

use std::collections::BTreeSet;
use std::rc::Rc;

use ringnet_core::driver::{Reporting, RunReport, Scenario};
use ringnet_core::engine::Source;
use ringnet_core::hierarchy::{SourceSpec, TrafficPattern};
use ringnet_core::metrics::Harvest;
use ringnet_core::{Guid, NodeId, ProtoEvent};
use simnet::{Actor, LinkProfile, NodeAddr, Sim, SimTime};

/// An actor of a world speaking `M`.
pub(crate) type BoxedActor<M> = Box<dyn Actor<M, ProtoEvent, Harvest>>;

/// A built own-message simulation: what [`ringnet_core::MulticastSim`]'s
/// `run_until` and `finish` need, so a backend keeps only its actors, its
/// assembly and its `schedule`.
pub(crate) struct World<M> {
    pub(crate) sim: Sim<M, ProtoEvent, Harvest>,
    reporting: Reporting,
}

impl<M: Clone + 'static> World<M> {
    /// Wrap an assembled simulator, setting its journal up per the
    /// scenario's retention mode; `core` is its wired-core entity ids.
    pub fn new(
        mut sim: Sim<M, ProtoEvent, Harvest>,
        core: BTreeSet<NodeId>,
        scenario: &Scenario,
    ) -> Self {
        let journal = &mut sim.world().journal;
        let reporting = Reporting::install_journal(journal, scenario, core);
        World { sim, reporting }
    }

    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Stop the simulator, which harvests every actor's end-of-run
    /// counters, and tear down into the report.
    pub fn finish(self) -> RunReport {
        let (journal, stats, harvest) = self.sim.finish();
        self.reporting.finish(journal, stats, harvest.finals)
    }
}

/// The star world of the single-ingest baselines: one hub (`NodeId(0)` —
/// home agent, supervisor host), one edge entity per attachment
/// (`NodeId(k + 1)` — foreign agent, MSS), one source feeding the hub, and
/// the walkers, each behind its home edge. Created in that order, so the
/// address of everything follows from the edge count; shared by every
/// actor of the world as its address table.
pub(crate) struct Star {
    n_edges: u32,
    /// The edge each walker starts at (`homes[w]` for `Guid(w)`).
    pub homes: Vec<NodeId>,
}

impl Star {
    pub(crate) const HUB: NodeAddr = NodeAddr(0);

    /// The edge entity of attachment `k`.
    pub(crate) fn edge_id(k: usize) -> NodeId {
        NodeId(k as u32 + 1)
    }

    /// Every edge entity's address, ascending.
    pub fn edges(&self) -> impl Iterator<Item = NodeAddr> {
        (1..=self.n_edges).map(NodeAddr)
    }

    /// Every walker with its home edge.
    pub fn walkers(&self) -> impl Iterator<Item = (Guid, NodeId)> + '_ {
        (0u32..).map(Guid).zip(self.homes.iter().copied())
    }

    pub fn edge(&self, id: NodeId) -> Option<NodeAddr> {
        (1..=self.n_edges).contains(&id.0).then_some(NodeAddr(id.0))
    }

    pub fn mh(&self, guid: Guid) -> Option<NodeAddr> {
        ((guid.0 as usize) < self.homes.len()).then_some(NodeAddr(self.n_edges + 2 + guid.0))
    }
}

/// The protocol-specific half of a star world: its source message and
/// which [`ringnet_core::hierarchy::LinkPlan`] profile the hub ↔ edge
/// detour draws.
pub(crate) struct StarPlan<'a, M> {
    pub source_data: fn(u64) -> M,
    pub hub_link: &'a LinkProfile,
    /// Initial attachment index per walker.
    pub placements: Vec<usize>,
}

impl<M: Clone + 'static> StarPlan<'_, M> {
    /// Assemble the star for `scenario`: addresses, actors (from the
    /// per-role constructors) and wiring. The scheme has one ingest point,
    /// so the source count is clamped to 1 and Poisson traffic degrades to
    /// CBR at the same mean rate.
    pub fn assemble(
        self,
        scenario: &Scenario,
        seed: u64,
        hub: impl FnOnce(&Rc<Star>) -> BoxedActor<M>,
        edge: impl Fn(&Rc<Star>, NodeId) -> BoxedActor<M>,
        mh: impl Fn(&Rc<Star>, Guid, NodeId) -> BoxedActor<M>,
    ) -> (World<M>, Rc<Star>) {
        let edge_ids: Vec<NodeId> = (0..scenario.attachments).map(Star::edge_id).collect();
        let star = Rc::new(Star {
            n_edges: edge_ids.len() as u32,
            homes: self.placements.iter().map(|&k| edge_ids[k]).collect(),
        });

        let mut sim: Sim<M, ProtoEvent, Harvest> = Sim::new(seed);
        sim.add_node(hub(&star));
        for &id in &edge_ids {
            sim.add_node(edge(&star, id));
        }
        // The one source, feeding the hub.
        let spec = SourceSpec {
            corresponding: NodeId(0),
            pattern: TrafficPattern::Cbr {
                interval: scenario.pattern.mean_interval(),
            },
            start: scenario.start,
            stop: scenario.stop,
            limit: scenario.limit,
            groups: Vec::new(),
        };
        let source = sim.add_node(Box::new(Source::new(spec, Star::HUB, self.source_data)));
        for (guid, home) in star.walkers() {
            sim.add_node(mh(&star, guid, home));
        }

        let topo = &mut sim.world().topo;
        for edge in star.edges() {
            topo.connect_duplex(Star::HUB, edge, self.hub_link.clone());
        }
        topo.connect_duplex(source, Star::HUB, scenario.links.source.clone());
        for (guid, home) in star.walkers() {
            let ends = star.mh(guid).zip(star.edge(home));
            let (mh, edge) = ends.expect("every walker is placed at an edge");
            topo.connect_duplex(mh, edge, scenario.links.wireless.clone());
        }

        let core = BTreeSet::from([NodeId(0)]);
        let world = World::new(sim, core, scenario);
        (world, star)
    }
}
