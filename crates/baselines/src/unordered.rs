//! The *unordered* RingNet baseline — "the multicast protocol without
//! ordering requirement" that Theorem 5.1 compares against (and Remark 3
//! recommends when total order is not needed).
//!
//! Same distribution vehicle (the RingNet hierarchy), same reliable
//! hop-by-hop transport, but no token and no global sequence numbers:
//! every source's stream is delivered independently in per-source FIFO
//! order, so a message never waits for ordering. The throughput experiment
//! (T1) shows both protocols sustain `s·λ`; the latency experiments (T2,
//! E4) show the ordering overhead this baseline avoids.
//!
//! The hierarchy *is* RingNet's: the world is assembled from the same
//! [`HierarchySpec`] (entities, address order and wiring alike), and every
//! entity forwards along the spec's preferred-parent tree. Membership and
//! mobility are deliberately static — the tree is fixed at build time —
//! because the ordered-vs-unordered experiments run without churn, exactly
//! like the paper's §5 analysis.

use std::collections::BTreeMap;
use std::sync::Arc;

use ringnet_core::driver::{
    hierarchy_core, ringnet_spec, MulticastSim, RunReport, Scenario, ScenarioEvent,
};
use ringnet_core::hierarchy::{AgRingSpec, ApSpec, Entity, HierarchySpec, MhSpec};
use ringnet_core::{
    AddrMap, Endpoint, GlobalSeq, GroupId, Guid, LocalSeq, MessageQueue, MsgData, NodeId,
    PayloadId, ProtoEvent, ProtocolConfig, WorkingTable, HEARTBEAT_PERIOD, HOP_TICK,
};
use simnet::{Actor, Ctx, Journal, NodeAddr, Sim, SimTime};

use crate::source::Source;
use crate::world::{BoxedActor, World};

/// Wire messages of the unordered protocol. Streams are identified by the
/// source's corresponding BR (`corr`), sequence numbers are per-stream.
#[derive(Debug, Clone, PartialEq)]
pub enum UnMsg {
    /// Source → its BR.
    SourceData {
        /// Per-source sequence number.
        seq: u64,
    },
    /// Stream data flowing through the hierarchy.
    Data {
        /// Stream id (the source's corresponding BR).
        corr: NodeId,
        /// Per-stream sequence number.
        seq: u64,
    },
    /// Cumulative per-stream ACK to the upstream hop.
    Ack {
        /// Stream id.
        corr: NodeId,
        /// Received through this number.
        upto: u64,
    },
    /// Per-stream retransmission request to the upstream hop.
    Nack {
        /// Stream id.
        corr: NodeId,
        /// Missing sequence numbers.
        missing: Vec<u64>,
    },
    /// Teardown probe (emit final statistics).
    FlushStats,
}

fn un_wire_size(msg: &UnMsg) -> usize {
    match msg {
        UnMsg::SourceData { .. } | UnMsg::Data { .. } => 40 + 512,
        UnMsg::Ack { .. } => 24,
        UnMsg::Nack { missing, .. } => 24 + 8 * missing.len(),
        UnMsg::FlushStats => 0,
    }
}

const TAG_HOP: u64 = 2;

/// RingNet's acknowledgement discipline (`NeState::tick_hop`, step 3) for
/// one stream and one target, so the comparator pays for control what the
/// protocol it is compared with pays: speak on the `ack_every` tick when
/// the front has moved past what the target was told, and restate an
/// unmoved front once a whole heartbeat period has passed in silence.
#[derive(Clone, Copy, Default)]
struct AckGate {
    told: u64,
    at: SimTime,
}

impl AckGate {
    /// Whether to acknowledge `front` now; if so, it counts as told.
    fn due(&mut self, front: u64, ack_tick: bool, now: SimTime) -> bool {
        let news = ack_tick && front > self.told;
        let silent = self.told > 0 && now.saturating_since(self.at) >= HEARTBEAT_PERIOD;
        if news || silent {
            *self = AckGate {
                told: front,
                at: now,
            };
        }
        news || silent
    }
}

/// One per-stream receive state: queue + downstream progress.
struct Stream {
    mq: MessageQueue,
    wt_children: WorkingTable<NodeId>,
    wt_mhs: WorkingTable<Guid>,
    next_acked: GlobalSeq,
    /// Ack gates towards `UnRole::upstream` and `UnRole::prev`.
    gates: [AckGate; 2],
}

impl Stream {
    fn new(cfg: &ProtocolConfig, children: &[NodeId], mhs: &[Guid]) -> Self {
        let mut wt_children = WorkingTable::new();
        for &c in children {
            wt_children.register(c, GlobalSeq::ZERO);
        }
        let mut wt_mhs = WorkingTable::new();
        for &m in mhs {
            wt_mhs.register(m, GlobalSeq::ZERO);
        }
        Stream {
            mq: MessageQueue::new(cfg.mq_capacity),
            wt_children,
            wt_mhs,
            next_acked: GlobalSeq::ZERO,
            gates: Default::default(),
        }
    }
}

/// Where one entity sits in the static distribution tree.
#[derive(Debug, Clone, Default)]
struct UnRole {
    /// Ring next hop, if on a ring.
    next: Option<NodeId>,
    /// Ring leader, if on a *non-top* ring (forwarding stops before it).
    nontop_leader: Option<NodeId>,
    /// True for top-ring members (forwarding stops before the stream's
    /// corresponding node instead).
    is_top: bool,
    /// Upstream hop for NACKs/ACKs (prev ring node or parent).
    upstream: Option<NodeId>,
    /// Previous ring node (receives retention ACKs), if distinct.
    prev: Option<NodeId>,
    /// Tree children.
    children: Vec<NodeId>,
    /// Attached MHs (APs only).
    mhs: Vec<Guid>,
}

impl UnRole {
    /// The role of network entity `entity` in `spec`: rings run in member
    /// order, and the tree follows every ring's and every AP's *preferred*
    /// parent (`parent_candidates[0]`, handed to the ring's leader — its
    /// lowest id) and every MH's initial AP.
    fn of(spec: &HierarchySpec, entity: Entity<'_>) -> UnRole {
        let leader = |ring: &[NodeId]| ring.iter().copied().min();
        // `(next, prev)` of `id` on `ring`, `None` on a ring of one.
        let ring_hops = |ring: &[NodeId], id: NodeId| {
            let (n, i) = (ring.len(), ring.iter().position(|&m| m == id)?);
            Some((ring[(i + 1) % n], ring[(i + n - 1) % n])).filter(|_| n > 1)
        };
        match entity {
            Entity::Br(id) => {
                let hops = ring_hops(&spec.top_ring, id);
                let mine = |r: &&AgRingSpec| r.parent_candidates.first() == Some(&id);
                UnRole {
                    next: hops.map(|h| h.0),
                    is_top: true,
                    upstream: hops.map(|h| h.1),
                    prev: hops.map(|h| h.1),
                    children: (spec.ag_rings.iter().filter(mine))
                        .filter_map(|r| leader(&r.members))
                        .collect(),
                    ..UnRole::default()
                }
            }
            Entity::Ag(id, ring) => {
                let hops = ring_hops(&ring.members, id);
                let leader = leader(&ring.members);
                let mine = |ap: &&ApSpec| ap.parent_candidates.first() == Some(&id);
                UnRole {
                    next: hops.map(|h| h.0),
                    nontop_leader: leader,
                    upstream: if leader == Some(id) {
                        ring.parent_candidates.first().copied()
                    } else {
                        hops.map(|h| h.1)
                    },
                    prev: hops.map(|h| h.1),
                    children: spec.aps.iter().filter(mine).map(|ap| ap.id).collect(),
                    ..UnRole::default()
                }
            }
            Entity::Ap(ap) => {
                let mine = |mh: &&MhSpec| mh.initial_ap == Some(ap.id);
                UnRole {
                    upstream: ap.parent_candidates.first().copied(),
                    mhs: spec.mhs.iter().filter(mine).map(|mh| mh.guid).collect(),
                    ..UnRole::default()
                }
            }
            Entity::Source(_) | Entity::Mh(_) => UnRole::default(),
        }
    }
}

struct UnNe {
    id: NodeId,
    group: GroupId,
    cfg: ProtocolConfig,
    role: UnRole,
    streams: BTreeMap<NodeId, Stream>,
    map: Arc<AddrMap>,
    hop_count: u64,
    peak_total: usize,
}

impl UnNe {
    fn stream(&mut self, corr: NodeId) -> &mut Stream {
        let cfg = &self.cfg;
        let role = &self.role;
        self.streams
            .entry(corr)
            .or_insert_with(|| Stream::new(cfg, &role.children, &role.mhs))
    }

    fn total_occupancy(&self) -> usize {
        self.streams.values().map(|s| s.mq.occupancy()).sum()
    }

    fn on_data(&mut self, corr: NodeId, seq: u64, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>) {
        let data = MsgData {
            source: corr,
            local_seq: LocalSeq(seq),
            ordering_node: corr,
            payload: PayloadId(seq),
        };
        let me = self.id;
        let role = self.role.clone();
        let map = Arc::clone(&self.map);
        let st = self.stream(corr);
        if st.mq.insert(GlobalSeq(seq), data) != ringnet_core::InsertOutcome::Stored {
            return;
        }
        // Deliver every newly contiguous message downstream immediately.
        let items = st.mq.poll_deliverable();
        let fwd = match (role.is_top, role.next) {
            (true, Some(next)) if next != corr && next != me => Some(next),
            (false, Some(next)) if Some(next) != role.nontop_leader && next != me => Some(next),
            _ => None,
        };
        for item in items {
            let (gsn, _d) = match item {
                ringnet_core::DeliverItem::Deliver(g, d) => (g, d),
                ringnet_core::DeliverItem::Skip(_) => continue,
            };
            if let Some(next) = fwd {
                if let Some(addr) = map.ne(next) {
                    ctx.send(addr, UnMsg::Data { corr, seq: gsn.0 });
                }
            }
            for c in &role.children {
                if let Some(addr) = map.ne(*c) {
                    ctx.send(addr, UnMsg::Data { corr, seq: gsn.0 });
                }
            }
            for m in &role.mhs {
                if let Some(addr) = map.mh(*m) {
                    ctx.send(addr, UnMsg::Data { corr, seq: gsn.0 });
                }
            }
        }
        let occ = self.total_occupancy();
        if occ > self.peak_total {
            self.peak_total = occ;
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>) {
        self.hop_count += 1;
        let ack_tick = self.hop_count.is_multiple_of(self.cfg.ack_every as u64);
        let now = ctx.now();
        let budget = self.cfg.nack_budget;
        let map = Arc::clone(&self.map);
        let role = self.role.clone();
        for (&corr, st) in self.streams.iter_mut() {
            let (missing, _lost) = st.mq.collect_nacks(budget);
            if !missing.is_empty() {
                if let Some(up) = role.upstream {
                    if let Some(addr) = map.ne(up) {
                        ctx.send(
                            addr,
                            UnMsg::Nack {
                                corr,
                                missing: missing.iter().map(|g| g.0).collect(),
                            },
                        );
                    }
                }
            }
            let upto = st.mq.front().0;
            for (gate, target) in st.gates.iter_mut().zip([role.upstream, role.prev]) {
                let Some(addr) = target.and_then(|t| map.ne(t)) else {
                    continue;
                };
                if gate.due(upto, ack_tick, now) {
                    ctx.send(addr, UnMsg::Ack { corr, upto });
                }
            }
            // GC to collective progress.
            let mut wm = st.mq.front();
            if let Some(m) = st.wt_children.min_progress() {
                wm = wm.min(m);
            }
            if let Some(m) = st.wt_mhs.min_progress() {
                wm = wm.min(m);
            }
            if role.next.is_some() {
                wm = wm.min(st.next_acked);
            }
            st.mq.gc_to(GlobalSeq(wm.0.saturating_sub(1)));
        }
    }
}

impl Actor<UnMsg, ProtoEvent> for UnNe {
    fn on_start(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>) {
        ctx.set_timer(HOP_TICK, TAG_HOP);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>, from: NodeAddr, msg: UnMsg) {
        match msg {
            UnMsg::SourceData { seq } => {
                let me = self.id;
                ctx.record(ProtoEvent::SourceSend {
                    source: me,
                    local_seq: LocalSeq(seq),
                });
                self.on_data(me, seq, ctx);
            }
            UnMsg::Data { corr, seq } => self.on_data(corr, seq, ctx),
            UnMsg::Ack { corr, upto } => {
                let from_ep = self.map.endpoint_of(from);
                let next = self.role.next;
                let st = self.stream(corr);
                match from_ep {
                    Endpoint::Ne(n) if Some(n) == next => {
                        st.next_acked = st.next_acked.max(GlobalSeq(upto));
                    }
                    Endpoint::Ne(n) => {
                        st.wt_children.ack(n, GlobalSeq(upto));
                    }
                    Endpoint::Mh(g) => {
                        st.wt_mhs.ack(g, GlobalSeq(upto));
                    }
                }
            }
            UnMsg::Nack { corr, missing } => {
                let st = self.stream(corr);
                for seq in missing {
                    if st.mq.get(GlobalSeq(seq)).is_some() {
                        ctx.send(from, UnMsg::Data { corr, seq });
                    }
                }
            }
            UnMsg::FlushStats => {
                let wq_peak = 0;
                ctx.record(ProtoEvent::NeFinal {
                    group: self.group,
                    node: self.id,
                    wq_peak,
                    mq_peak: self.peak_total as u32,
                    mq_overflow: self
                        .streams
                        .values()
                        .map(|s| s.mq.overflow_drops as u32)
                        .sum(),
                    wq_overflow: 0,
                    control_sent: 0,
                    data_sent: 0,
                    retransmissions: 0,
                });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>, tag: u64) {
        if tag == TAG_HOP {
            self.tick(ctx);
            ctx.set_timer(HOP_TICK, TAG_HOP);
        }
    }
}

struct UnMh {
    guid: Guid,
    group: GroupId,
    cfg: ProtocolConfig,
    ap: NodeId,
    streams: BTreeMap<NodeId, (MessageQueue, AckGate)>,
    map: Arc<AddrMap>,
    hop_count: u64,
    delivered: u32,
    skipped: u32,
}

impl Actor<UnMsg, ProtoEvent> for UnMh {
    fn on_start(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>) {
        ctx.set_timer(HOP_TICK, TAG_HOP);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>, _from: NodeAddr, msg: UnMsg) {
        match msg {
            UnMsg::Data { corr, seq } => {
                let cfg_cap = self.cfg.mq_capacity;
                let (mq, _) = self
                    .streams
                    .entry(corr)
                    .or_insert_with(|| (MessageQueue::new(cfg_cap), AckGate::default()));
                let data = MsgData {
                    source: corr,
                    local_seq: LocalSeq(seq),
                    ordering_node: corr,
                    payload: PayloadId(seq),
                };
                if mq.insert(GlobalSeq(seq), data) != ringnet_core::InsertOutcome::Stored {
                    return;
                }
                for item in mq.poll_deliverable() {
                    match item {
                        ringnet_core::DeliverItem::Deliver(gsn, d) => {
                            self.delivered += 1;
                            ctx.record(ProtoEvent::MhDeliver {
                                group: self.group,
                                mh: self.guid,
                                gsn,
                                source: d.source,
                                local_seq: d.local_seq,
                            });
                        }
                        ringnet_core::DeliverItem::Skip(gsn) => {
                            self.skipped += 1;
                            ctx.record(ProtoEvent::MhSkip {
                                group: self.group,
                                mh: self.guid,
                                gsn,
                            });
                        }
                    }
                }
            }
            UnMsg::FlushStats => {
                ctx.record(ProtoEvent::MhFinal {
                    group: self.group,
                    mh: self.guid,
                    delivered: self.delivered,
                    skipped: self.skipped,
                    duplicates: 0,
                    handoffs: 0,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>, tag: u64) {
        if tag != TAG_HOP {
            return;
        }
        self.hop_count += 1;
        let budget = self.cfg.nack_budget;
        let ack_tick = self.hop_count.is_multiple_of(self.cfg.ack_every as u64);
        let now = ctx.now();
        let ap_addr = self.map.ne(self.ap);
        let mut skips = Vec::new();
        for (&corr, (mq, gate)) in self.streams.iter_mut() {
            let (missing, newly_lost) = mq.collect_nacks(budget);
            if let Some(addr) = ap_addr {
                if !missing.is_empty() {
                    ctx.send(
                        addr,
                        UnMsg::Nack {
                            corr,
                            missing: missing.iter().map(|g| g.0).collect(),
                        },
                    );
                }
                let upto = mq.front().0;
                if gate.due(upto, ack_tick, now) {
                    ctx.send(addr, UnMsg::Ack { corr, upto });
                }
            }
            if !newly_lost.is_empty() {
                for item in mq.poll_deliverable() {
                    match item {
                        ringnet_core::DeliverItem::Deliver(gsn, d) => {
                            self.delivered += 1;
                            skips.push(ProtoEvent::MhDeliver {
                                group: self.group,
                                mh: self.guid,
                                gsn,
                                source: d.source,
                                local_seq: d.local_seq,
                            });
                        }
                        ringnet_core::DeliverItem::Skip(gsn) => {
                            self.skipped += 1;
                            skips.push(ProtoEvent::MhSkip {
                                group: self.group,
                                mh: self.guid,
                                gsn,
                            });
                        }
                    }
                }
            }
            let front = mq.front();
            mq.gc_to(front);
        }
        for ev in skips {
            ctx.record(ev);
        }
        ctx.set_timer(HOP_TICK, TAG_HOP);
    }
}

/// A built unordered-RingNet simulation.
pub struct UnorderedSim(World<UnMsg>);

impl UnorderedSim {
    /// The journal receiving this run's protocol events.
    pub fn journal_mut(&mut self) -> &mut Journal<ProtoEvent> {
        self.0.journal_mut()
    }
}

/// The unordered hierarchy as a [`MulticastSim`] backend: the world of
/// [`ringnet_spec`] — RingNet's own entities, addresses and wiring for the
/// same scenario — with per-source FIFO streams instead of a token and a
/// total order. Membership is static by design: mobility and failure
/// events are ignored, exactly like the paper's §5 analysis setting (late
/// joiners attach at their `Join` target from the start, per
/// [`Scenario::static_placements`]). Single-group: extra declared groups
/// size the core like RingNet's but carry no traffic of their own.
impl MulticastSim for UnorderedSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let mut spec = ringnet_spec(scenario);
        for (mh, k) in spec.mhs.iter_mut().zip(scenario.static_placements()) {
            mh.initial_ap = Some(spec.aps[k].id);
        }
        let (group, cfg) = (spec.group, &spec.cfg);
        let map = Arc::new(AddrMap::for_spec(&spec));

        let mut sim: Sim<UnMsg, ProtoEvent> = Sim::with_options(seed, true, un_wire_size);
        let mut answering = Vec::new();
        for entity in spec.entities() {
            let actor: BoxedActor<UnMsg> = match entity {
                Entity::Source(src) => Box::new(Source {
                    target: map.ne(src.corresponding).expect("validated"),
                    pattern: src.pattern,
                    start: src.start,
                    stop: src.stop,
                    limit: src.limit,
                    seq: 0,
                    make: |seq| UnMsg::SourceData { seq },
                }),
                Entity::Mh(mh) => Box::new(UnMh {
                    guid: mh.guid,
                    group,
                    cfg: cfg.clone(),
                    ap: mh.initial_ap.expect("placed above"),
                    streams: BTreeMap::new(),
                    map: Arc::clone(&map),
                    hop_count: 0,
                    delivered: 0,
                    skipped: 0,
                }),
                Entity::Br(id) | Entity::Ag(id, _) | Entity::Ap(&ApSpec { id, .. }) => {
                    Box::new(UnNe {
                        id,
                        group,
                        cfg: cfg.clone(),
                        role: UnRole::of(&spec, entity),
                        streams: BTreeMap::new(),
                        map: Arc::clone(&map),
                        hop_count: 0,
                        peak_total: 0,
                    })
                }
            };
            let addr = sim.add_node(actor);
            if !matches!(entity, Entity::Source(_)) {
                answering.push(addr);
            }
        }
        let topo = &mut sim.world().topo;
        let ne = |id| map.ne(id).expect("validated spec wires a declared NE");
        for (a, b, profile) in spec.wiring(ne) {
            topo.connect_duplex(a, b, profile.clone());
        }

        let flush = (UnMsg::FlushStats, answering);
        UnorderedSim(World::new(sim, flush, hierarchy_core(&spec), scenario))
    }

    fn schedule(&mut self, _event: ScenarioEvent) {
        // Static membership: the unordered baseline runs without churn.
    }

    fn run_until(&mut self, t: SimTime) {
        self.0.run_until(t);
    }

    fn finish(self) -> RunReport {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringnet_core::driver::{CoreShape, ScenarioBuilder};
    use simnet::SimDuration;

    /// 3 BRs over 2 rings × 2 AGs, one AP per AG with one MH each, two
    /// 50 msg/s sources of 15 messages (default, lossy wireless).
    fn scenario(secs: u64) -> Scenario {
        ScenarioBuilder::new()
            .shape(CoreShape::Hierarchy {
                brs: 3,
                rings: 2,
                ags_per_ring: 2,
            })
            .attachments(4)
            .walkers_per_attachment(1)
            .sources(2)
            .cbr(SimDuration::from_millis(20))
            .message_limit(15)
            .duration(SimTime::from_secs(secs))
            .build()
    }

    #[test]
    fn delivers_every_stream_fifo() {
        let journal = UnorderedSim::run_scenario(&scenario(3), 1).journal;
        // per (mh, source) the sequence numbers must be exactly 1..=15.
        let mut per: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver {
                mh, gsn, source, ..
            } = e
            {
                per.entry((mh.0, source.0)).or_default().push(gsn.0);
            }
        }
        // 4 MHs × 2 sources.
        assert_eq!(per.len(), 8, "{:?}", per.keys().collect::<Vec<_>>());
        for ((mh, src), seqs) in &per {
            assert_eq!(
                *seqs,
                (1..=15u64).collect::<Vec<_>>(),
                "mh{mh} stream {src}: {seqs:?}"
            );
        }
    }

    #[test]
    fn no_ordering_latency_faster_than_token_wait() {
        // The unordered baseline delivers without waiting for any token:
        // first delivery should happen within a few link hops.
        let journal = UnorderedSim::run_scenario(&scenario(1), 2).journal;
        let send_time = journal
            .iter()
            .find_map(|(t, e)| matches!(e, ProtoEvent::SourceSend { .. }).then_some(*t))
            .unwrap();
        let first_delivery = journal
            .iter()
            .find_map(|(t, e)| matches!(e, ProtoEvent::MhDeliver { .. }).then_some(*t))
            .unwrap();
        let latency = first_delivery.saturating_since(send_time);
        assert!(
            latency < SimDuration::from_millis(20),
            "unordered path latency {latency}"
        );
    }

    #[test]
    fn deterministic() {
        let run = || UnorderedSim::run_scenario(&scenario(2), 5).journal;
        assert_eq!(run(), run());
    }

    #[test]
    fn final_stats_emitted() {
        let journal = UnorderedSim::run_scenario(&scenario(2), 3).journal;
        let ne_finals = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::NeFinal { .. }))
            .count();
        let mh_finals = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::MhFinal { .. }))
            .count();
        assert_eq!(ne_finals, 3 + 4 + 4);
        assert_eq!(mh_finals, 4);
    }

    /// Comparator parity: walker → AP → AG parentage is `ringnet_spec`'s.
    /// With two rings of two AGs over eight attachments the spec hands
    /// each AG a *block* of two consecutive APs. Cut every AP off from the
    /// first AG: exactly the walkers the spec puts below that AG fall
    /// silent, everyone else still gets every message.
    #[test]
    fn tree_parentage_is_the_ringnet_specs() {
        let sc = ScenarioBuilder::new()
            .shape(CoreShape::Hierarchy {
                brs: 2,
                rings: 2,
                ags_per_ring: 2,
            })
            .attachments(8)
            .walkers_per_attachment(1)
            .cbr(SimDuration::from_millis(20))
            .message_limit(10)
            .loss_free_wireless()
            .duration(SimTime::from_secs(2))
            .build();
        let spec = ringnet_spec(&sc);
        let ag = spec.ag_rings[0].members[0];
        let below: Vec<Guid> = (spec.mhs.iter())
            .filter(|mh| {
                let ap = spec.aps.iter().find(|ap| Some(ap.id) == mh.initial_ap);
                ap.is_some_and(|ap| ap.parent_candidates[0] == ag)
            })
            .map(|mh| mh.guid)
            .collect();
        assert_eq!(below, [Guid(0), Guid(1)], "consecutive blocks");

        // Builder ids are creation positions, i.e. simulator addresses.
        let addr = |id: NodeId| NodeAddr(id.0);
        let mut net = UnorderedSim::build(&sc, 1);
        let topo = &mut net.0.sim.world().topo;
        for ap in &spec.aps {
            topo.set_duplex_up(addr(ap.id), addr(ag), false);
        }
        net.run_until(sc.duration);
        let journal = net.finish().journal;
        let mut delivered: BTreeMap<Guid, usize> = BTreeMap::new();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver { mh, .. } = e {
                *delivered.entry(*mh).or_default() += 1;
            }
        }
        let expected: BTreeMap<Guid, usize> = (spec.mhs.iter())
            .filter(|mh| !below.contains(&mh.guid))
            .map(|mh| (mh.guid, 10))
            .collect();
        assert_eq!(delivered, expected);
    }
}
