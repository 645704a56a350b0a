//! What the three baselines that speak their own message type (tunnel,
//! RelM, unordered) share: the [`World`] skeleton every one of them is — a
//! simulator, the addresses that answer the teardown probe, the sink their
//! answers go to and the scenario's [`Reporting`] over the wired core —
//! and the [`Star`] assembly of the two single-ingest ones.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use ringnet_core::driver::{Reporting, RunReport, Scenario};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::metrics::{Finals, NeFinal};
use ringnet_core::{GroupId, Guid, MhCounters, NodeId, ProtoEvent};
use simnet::{Actor, Journal, LinkProfile, NodeAddr, Sim, SimDuration, SimTime};

use crate::source::Source;

/// An actor of a world speaking `M`.
pub(crate) type BoxedActor<M> = Box<dyn Actor<M, ProtoEvent>>;

/// Where a world's actors put their end-of-run counters when the teardown
/// probe reaches them; shared by the [`World`] and every answering actor.
#[derive(Clone, Default)]
pub(crate) struct FinalsSink(Arc<Mutex<Finals>>);

impl FinalsSink {
    pub(crate) fn ne(&self, group: GroupId, node: NodeId, counts: NeFinal) {
        self.lock().ne.insert((group, node), counts);
    }

    pub(crate) fn mh(&self, group: GroupId, mh: Guid, counts: MhCounters) {
        self.lock().mh.insert((group, mh), counts);
    }

    fn lock(&self) -> MutexGuard<'_, Finals> {
        self.0.lock().expect("finals sink poisoned")
    }
}

/// A built own-message simulation: what [`ringnet_core::MulticastSim`]'s
/// `run_until` and `finish` need, so a backend keeps only its actors, its
/// assembly and its `schedule`.
pub(crate) struct World<M> {
    pub(crate) sim: Sim<M, ProtoEvent>,
    /// The teardown probe and every address that answers it (all but the
    /// sources), ascending.
    flush: (M, Vec<NodeAddr>),
    /// Where the answers to the probe go.
    finals: FinalsSink,
    reporting: Reporting,
}

impl<M: Clone + 'static> World<M> {
    /// Wrap an assembled simulator, setting its journal up per the
    /// scenario's retention mode; `core` is its wired-core entity ids and
    /// `finals` the sink its actors answer the probe into.
    pub fn new(
        mut sim: Sim<M, ProtoEvent>,
        flush: (M, Vec<NodeAddr>),
        finals: FinalsSink,
        core: BTreeSet<NodeId>,
        scenario: &Scenario,
    ) -> Self {
        let journal = &mut sim.world().journal;
        let reporting = Reporting::install_journal(journal, scenario, core);
        World {
            sim,
            flush,
            finals,
            reporting,
        }
    }

    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    pub fn journal_mut(&mut self) -> &mut Journal<ProtoEvent> {
        &mut self.sim.world().journal
    }

    /// Ask every entity and MH for its end-of-run counters, drain just
    /// those events and tear down into the report.
    pub fn finish(mut self) -> RunReport {
        let (probe, targets) = self.flush;
        let w = self.sim.world();
        for addr in targets {
            w.inject(addr, addr, probe.clone(), SimDuration::ZERO);
        }
        let t = self.sim.now() + SimDuration::from_nanos(1);
        self.sim.run_until(t);
        let (journal, stats) = self.sim.finish();
        let finals = std::mem::take(&mut *self.finals.lock());
        self.reporting.finish(journal, stats, finals)
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
    /// The world's end-of-run counters sink.
    pub finals: FinalsSink,
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

/// The protocol-specific half of a star world: its wire format and which
/// [`ringnet_core::hierarchy::LinkPlan`] profile the hub ↔ edge detour
/// draws.
pub(crate) struct StarPlan<'a, M> {
    pub sizer: fn(&M) -> usize,
    pub source_data: fn(u64) -> M,
    pub flush: M,
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
        hub: impl FnOnce(&Arc<Star>) -> BoxedActor<M>,
        edge: impl Fn(&Arc<Star>, NodeId) -> BoxedActor<M>,
        mh: impl Fn(&Arc<Star>, Guid, NodeId) -> BoxedActor<M>,
    ) -> (World<M>, Arc<Star>) {
        let edge_ids: Vec<NodeId> = (0..scenario.attachments).map(Star::edge_id).collect();
        let star = Arc::new(Star {
            n_edges: edge_ids.len() as u32,
            homes: self.placements.iter().map(|&k| edge_ids[k]).collect(),
            finals: FinalsSink::default(),
        });

        let mut sim: Sim<M, ProtoEvent> = Sim::with_options(seed, true, self.sizer);
        let mut answering = vec![sim.add_node(hub(&star))];
        answering.extend(edge_ids.iter().map(|&id| sim.add_node(edge(&star, id))));
        let source = sim.add_node(Box::new(Source {
            target: Star::HUB,
            pattern: TrafficPattern::Cbr {
                interval: scenario.pattern.mean_interval(),
            },
            start: scenario.start,
            stop: scenario.stop,
            limit: scenario.limit,
            seq: 0,
            make: self.source_data,
        }));
        answering.extend((star.walkers()).map(|(guid, home)| sim.add_node(mh(&star, guid, home))));

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
        let finals = star.finals.clone();
        let world = World::new(sim, (self.flush, answering), finals, core, scenario);
        (world, star)
    }
}
