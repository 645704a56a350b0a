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
//! Membership and mobility are deliberately static here (the hierarchy is
//! wired at build time) — the ordered-vs-unordered experiments run without
//! churn, exactly like the paper's §5 analysis.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ringnet_core::driver::{
    CoreShape, MulticastSim, Reporting, RunReport, Scenario, ScenarioEvent,
};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{
    GlobalSeq, GroupId, Guid, LocalSeq, MessageQueue, MsgData, NodeId, PayloadId, ProtoEvent,
    ProtocolConfig, WorkingTable,
};
use simnet::{Actor, Ctx, LinkProfile, NodeAddr, Sim, SimDuration, SimStats, SimTime};

use crate::source::Source;

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

/// One per-stream receive state: queue + downstream progress.
struct Stream {
    mq: MessageQueue,
    wt_children: WorkingTable<NodeId>,
    wt_mhs: WorkingTable<Guid>,
    next_acked: GlobalSeq,
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
        }
    }
}

/// Static role wiring of one unordered entity.
#[derive(Debug, Clone, Default)]
pub struct UnRole {
    /// Ring next hop, if on a ring.
    pub next: Option<NodeId>,
    /// Ring leader, if on a *non-top* ring (forwarding stops before it).
    pub nontop_leader: Option<NodeId>,
    /// True for top-ring members (forwarding stops before the stream's
    /// corresponding node instead).
    pub is_top: bool,
    /// Upstream hop for NACKs/ACKs (prev ring node or parent).
    pub upstream: Option<NodeId>,
    /// Previous ring node (receives retention ACKs), if distinct.
    pub prev: Option<NodeId>,
    /// Tree children.
    pub children: Vec<NodeId>,
    /// Attached MHs (APs and flat stations).
    pub mhs: Vec<Guid>,
}

struct UnNe {
    id: NodeId,
    group: GroupId,
    cfg: ProtocolConfig,
    role: UnRole,
    streams: BTreeMap<NodeId, Stream>,
    map: Arc<UnAddrMap>,
    hop_count: u64,
    peak_total: usize,
}

/// Identity ↔ address table for the unordered network.
#[derive(Debug, Default)]
pub struct UnAddrMap {
    ne: BTreeMap<NodeId, NodeAddr>,
    mh: BTreeMap<Guid, NodeAddr>,
    rev: BTreeMap<NodeAddr, UnEndpoint>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnEndpoint {
    Ne(NodeId),
    Mh(Guid),
}

impl UnAddrMap {
    fn endpoint_of(&self, addr: NodeAddr) -> Option<UnEndpoint> {
        self.rev.get(&addr).copied()
    }
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
                if let Some(addr) = map.ne.get(&next) {
                    ctx.send(*addr, UnMsg::Data { corr, seq: gsn.0 });
                }
            }
            for c in &role.children {
                if let Some(addr) = map.ne.get(c) {
                    ctx.send(*addr, UnMsg::Data { corr, seq: gsn.0 });
                }
            }
            for m in &role.mhs {
                if let Some(addr) = map.mh.get(m) {
                    ctx.send(*addr, UnMsg::Data { corr, seq: gsn.0 });
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
        let send_acks = self.hop_count.is_multiple_of(self.cfg.ack_every as u64);
        let budget = self.cfg.nack_budget;
        let map = Arc::clone(&self.map);
        let role = self.role.clone();
        for (&corr, st) in self.streams.iter_mut() {
            let (missing, _lost) = st.mq.collect_nacks(budget);
            if !missing.is_empty() {
                if let Some(up) = role.upstream {
                    if let Some(addr) = map.ne.get(&up) {
                        ctx.send(
                            *addr,
                            UnMsg::Nack {
                                corr,
                                missing: missing.iter().map(|g| g.0).collect(),
                            },
                        );
                    }
                }
            }
            if send_acks {
                let upto = st.mq.front().0;
                for target in [role.upstream, role.prev].into_iter().flatten() {
                    if let Some(addr) = map.ne.get(&target) {
                        ctx.send(*addr, UnMsg::Ack { corr, upto });
                    }
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
        ctx.set_timer(self.cfg.hop_tick, TAG_HOP);
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
                    Some(UnEndpoint::Ne(n)) => {
                        if Some(n) == next {
                            if GlobalSeq(upto) > st.next_acked {
                                st.next_acked = GlobalSeq(upto);
                            }
                        } else {
                            st.wt_children.ack(n, GlobalSeq(upto));
                        }
                    }
                    Some(UnEndpoint::Mh(g)) => {
                        st.wt_mhs.ack(g, GlobalSeq(upto));
                    }
                    None => {}
                }
            }
            UnMsg::Nack { corr, missing } => {
                let map = Arc::clone(&self.map);
                let from_ep = map.endpoint_of(from);
                let st = self.stream(corr);
                for seq in missing {
                    if st.mq.get(GlobalSeq(seq)).is_some() {
                        let target = match from_ep {
                            Some(UnEndpoint::Ne(n)) => map.ne.get(&n).copied(),
                            Some(UnEndpoint::Mh(g)) => map.mh.get(&g).copied(),
                            None => None,
                        };
                        if let Some(addr) = target {
                            ctx.send(addr, UnMsg::Data { corr, seq });
                        }
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
            ctx.set_timer(self.cfg.hop_tick, TAG_HOP);
        }
    }
}

struct UnMh {
    guid: Guid,
    group: GroupId,
    cfg: ProtocolConfig,
    ap: NodeId,
    streams: BTreeMap<NodeId, MessageQueue>,
    map: Arc<UnAddrMap>,
    hop_count: u64,
    delivered: u32,
    skipped: u32,
}

impl Actor<UnMsg, ProtoEvent> for UnMh {
    fn on_start(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>) {
        ctx.set_timer(self.cfg.hop_tick, TAG_HOP);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, UnMsg, ProtoEvent>, _from: NodeAddr, msg: UnMsg) {
        match msg {
            UnMsg::Data { corr, seq } => {
                let cfg_cap = self.cfg.mq_capacity;
                let mq = self
                    .streams
                    .entry(corr)
                    .or_insert_with(|| MessageQueue::new(cfg_cap));
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
        let send_acks = self.hop_count.is_multiple_of(self.cfg.ack_every as u64);
        let ap_addr = self.map.ne.get(&self.ap).copied();
        let mut skips = Vec::new();
        for (&corr, mq) in self.streams.iter_mut() {
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
                if send_acks {
                    ctx.send(
                        addr,
                        UnMsg::Ack {
                            corr,
                            upto: mq.front().0,
                        },
                    );
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
        ctx.set_timer(self.cfg.hop_tick, TAG_HOP);
    }
}

/// Parameters of an unordered-RingNet deployment (mirrors the ordered
/// builder's regular shape).
#[derive(Debug, Clone)]
pub struct UnorderedSpec {
    /// The multicast group stamped on journal records (the unordered
    /// baseline is single-group; extra declared scenario groups are
    /// ignored).
    pub group: GroupId,
    /// Protocol parameters (`hop_tick`, budgets, capacities are shared).
    pub cfg: ProtocolConfig,
    /// BRs on the top ring.
    pub brs: usize,
    /// AG rings and AGs per ring.
    pub ag_rings: (usize, usize),
    /// APs per AG (ignored when `aps_total` is set).
    pub aps_per_ag: usize,
    /// Exact total AP count, assigned round-robin over all AGs (for
    /// scenario-driven builds whose attachment count need not divide
    /// evenly). Overrides `aps_per_ag`.
    pub aps_total: Option<usize>,
    /// MHs per AP (ignored when `placements` is set).
    pub mhs_per_ap: usize,
    /// Explicit MH placement: `placements[i]` is MH `Guid(i)`'s AP index
    /// (in AP creation order). Overrides `mhs_per_ap`.
    pub placements: Option<Vec<usize>>,
    /// Sources (≤ brs).
    pub sources: usize,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// First transmission time.
    pub start: SimTime,
    /// Sources stop at this time (None = never).
    pub stop: Option<SimTime>,
    /// Per-source message limit.
    pub limit: Option<u64>,
    /// Link profiles: `(ring, tree, wireless)`.
    pub links: (LinkProfile, LinkProfile, LinkProfile),
}

impl UnorderedSpec {
    /// Defaults matching [`ringnet_core::HierarchyBuilder`]'s link plan.
    pub fn new() -> Self {
        UnorderedSpec {
            group: GroupId(1),
            cfg: ProtocolConfig::default(),
            brs: 4,
            ag_rings: (3, 3),
            aps_per_ag: 1,
            aps_total: None,
            mhs_per_ap: 1,
            placements: None,
            sources: 1,
            pattern: TrafficPattern::Cbr {
                interval: SimDuration::from_millis(10),
            },
            start: SimTime::ZERO,
            stop: None,
            limit: None,
            links: (
                LinkProfile::wired(SimDuration::from_millis(5)),
                LinkProfile::wired(SimDuration::from_millis(2)),
                LinkProfile::wireless(
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(1),
                    0.01,
                ),
            ),
        }
    }
}

impl Default for UnorderedSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// A built unordered-RingNet simulation.
pub struct UnorderedSim {
    /// The underlying simulator.
    pub sim: Sim<UnMsg, ProtoEvent>,
    addrs: Arc<UnAddrMap>,
    /// Wired-core entity ids (BRs + AGs), for run-report comparisons.
    core: BTreeSet<NodeId>,
    /// Report assembly mode (batch by default; the [`MulticastSim`] facade
    /// switches it to streaming when journal retention is off).
    pub reporting: Reporting,
}

impl UnorderedSim {
    /// Instantiate the deployment with the given seed.
    pub fn build(spec: UnorderedSpec, seed: u64) -> Self {
        assert!(spec.sources <= spec.brs);
        let mut sim: Sim<UnMsg, ProtoEvent> = Sim::with_options(seed, true, un_wire_size);
        let mut map = UnAddrMap::default();
        let mut next_addr = 0u32;
        let mut next_id = 0u32;

        let claim = |map: &mut UnAddrMap, next_addr: &mut u32, next_id: &mut u32| {
            let id = NodeId(*next_id);
            let addr = NodeAddr(*next_addr);
            *next_id += 1;
            *next_addr += 1;
            map.ne.insert(id, addr);
            map.rev.insert(addr, UnEndpoint::Ne(id));
            (id, addr)
        };

        let brs: Vec<(NodeId, NodeAddr)> = (0..spec.brs)
            .map(|_| claim(&mut map, &mut next_addr, &mut next_id))
            .collect();
        let mut rings: Vec<Vec<(NodeId, NodeAddr)>> = Vec::new();
        for _ in 0..spec.ag_rings.0 {
            rings.push(
                (0..spec.ag_rings.1)
                    .map(|_| claim(&mut map, &mut next_addr, &mut next_id))
                    .collect(),
            );
        }
        let mut aps: Vec<(NodeId, NodeAddr, NodeId)> = Vec::new(); // (ap, addr, parent ag)
        match spec.aps_total {
            Some(n) => {
                let flat_ags: Vec<NodeId> = rings.iter().flatten().map(|&(ag, _)| ag).collect();
                for i in 0..n {
                    let (id, addr) = claim(&mut map, &mut next_addr, &mut next_id);
                    aps.push((id, addr, flat_ags[i % flat_ags.len()]));
                }
            }
            None => {
                for ring in &rings {
                    for &(ag, _) in ring {
                        for _ in 0..spec.aps_per_ag {
                            let (id, addr) = claim(&mut map, &mut next_addr, &mut next_id);
                            aps.push((id, addr, ag));
                        }
                    }
                }
            }
        }
        let mut source_addrs = Vec::new();
        for _ in 0..spec.sources {
            source_addrs.push(NodeAddr(next_addr));
            next_addr += 1;
        }
        let mut mhs: Vec<(Guid, NodeAddr, NodeId)> = Vec::new();
        match &spec.placements {
            Some(placements) => {
                for (w, &ap_idx) in placements.iter().enumerate() {
                    assert!(ap_idx < aps.len(), "placement beyond AP count");
                    let addr = NodeAddr(next_addr);
                    next_addr += 1;
                    map.mh.insert(Guid(w as u32), addr);
                    map.rev.insert(addr, UnEndpoint::Mh(Guid(w as u32)));
                    mhs.push((Guid(w as u32), addr, aps[ap_idx].0));
                }
            }
            None => {
                let mut guid = 0u32;
                for &(ap, _, _) in &aps {
                    for _ in 0..spec.mhs_per_ap {
                        let addr = NodeAddr(next_addr);
                        next_addr += 1;
                        map.mh.insert(Guid(guid), addr);
                        map.rev.insert(addr, UnEndpoint::Mh(Guid(guid)));
                        mhs.push((Guid(guid), addr, ap));
                        guid += 1;
                    }
                }
            }
        }
        let map = Arc::new(map);

        // Roles.
        let br_ids: Vec<NodeId> = brs.iter().map(|b| b.0).collect();
        for (i, &(id, _)) in brs.iter().enumerate() {
            let next = br_ids[(i + 1) % br_ids.len()];
            let prev = br_ids[(i + br_ids.len() - 1) % br_ids.len()];
            // Children: leaders of rings assigned to this BR (round-robin,
            // mirroring HierarchyBuilder).
            let children: Vec<NodeId> = rings
                .iter()
                .enumerate()
                .filter(|(ri, _)| ri % brs.len() == i)
                .map(|(_, ring)| {
                    ring.iter()
                        .map(|m| m.0)
                        .min()
                        .expect("spec validation rejects empty rings")
                })
                .collect();
            let role = UnRole {
                next: (next != id).then_some(next),
                nontop_leader: None,
                is_top: true,
                upstream: (prev != id).then_some(prev),
                prev: (prev != id).then_some(prev),
                children,
                mhs: vec![],
            };
            sim.add_node(Box::new(UnNe {
                id,
                group: spec.group,
                cfg: spec.cfg.clone(),
                role,
                streams: BTreeMap::new(),
                map: Arc::clone(&map),
                hop_count: 0,
                peak_total: 0,
            }));
        }
        for (ri, ring) in rings.iter().enumerate() {
            let ids: Vec<NodeId> = ring.iter().map(|m| m.0).collect();
            let leader = *ids
                .iter()
                .min()
                .expect("spec validation rejects empty rings");
            let parent_br = br_ids[ri % br_ids.len()];
            for (i, &(id, _)) in ring.iter().enumerate() {
                let next = ids[(i + 1) % ids.len()];
                let prev = ids[(i + ids.len() - 1) % ids.len()];
                let children: Vec<NodeId> = aps
                    .iter()
                    .filter(|(_, _, parent)| *parent == id)
                    .map(|(ap, _, _)| *ap)
                    .collect();
                let role = UnRole {
                    next: (next != id).then_some(next),
                    nontop_leader: Some(leader),
                    is_top: false,
                    upstream: if id == leader {
                        Some(parent_br)
                    } else {
                        (prev != id).then_some(prev)
                    },
                    prev: (prev != id).then_some(prev),
                    children,
                    mhs: vec![],
                };
                sim.add_node(Box::new(UnNe {
                    id,
                    group: spec.group,
                    cfg: spec.cfg.clone(),
                    role,
                    streams: BTreeMap::new(),
                    map: Arc::clone(&map),
                    hop_count: 0,
                    peak_total: 0,
                }));
            }
        }
        for &(id, _, parent) in &aps {
            let my_mhs: Vec<Guid> = mhs
                .iter()
                .filter(|(_, _, ap)| *ap == id)
                .map(|(g, _, _)| *g)
                .collect();
            let role = UnRole {
                next: None,
                nontop_leader: None,
                is_top: false,
                upstream: Some(parent),
                prev: None,
                children: vec![],
                mhs: my_mhs,
            };
            sim.add_node(Box::new(UnNe {
                id,
                group: spec.group,
                cfg: spec.cfg.clone(),
                role,
                streams: BTreeMap::new(),
                map: Arc::clone(&map),
                hop_count: 0,
                peak_total: 0,
            }));
        }
        for i in 0..spec.sources {
            let addr = sim.add_node(Box::new(Source {
                target: brs[i].1,
                pattern: spec.pattern,
                start: spec.start,
                stop: spec.stop,
                limit: spec.limit,
                seq: 0,
                make: |seq| UnMsg::SourceData { seq },
            }));
            debug_assert_eq!(addr, source_addrs[i]);
        }
        for &(g, _, ap) in &mhs {
            sim.add_node(Box::new(UnMh {
                guid: g,
                group: spec.group,
                cfg: spec.cfg.clone(),
                ap,
                streams: BTreeMap::new(),
                map: Arc::clone(&map),
                hop_count: 0,
                delivered: 0,
                skipped: 0,
            }));
        }

        // Topology (mirrors the ordered engine's wiring).
        let w = sim.world();
        for (i, &(_, a)) in brs.iter().enumerate() {
            for &(_, b) in brs.iter().skip(i + 1) {
                w.topo.connect_duplex(a, b, spec.links.0.clone());
            }
        }
        for (ri, ring) in rings.iter().enumerate() {
            for (i, &(_, a)) in ring.iter().enumerate() {
                for &(_, b) in ring.iter().skip(i + 1) {
                    w.topo.connect_duplex(a, b, spec.links.1.clone());
                }
            }
            let parent_addr = brs[ri % brs.len()].1;
            for &(_, a) in ring {
                w.topo.connect_duplex(a, parent_addr, spec.links.1.clone());
            }
        }
        for &(_, ap_addr, parent) in &aps {
            let parent_addr = *map
                .ne
                .get(&parent)
                .expect("AP parents are declared ring members");
            w.topo
                .connect_duplex(ap_addr, parent_addr, spec.links.1.clone());
        }
        for (i, &sa) in source_addrs.iter().enumerate() {
            w.topo.connect_duplex(
                sa,
                brs[i].1,
                LinkProfile::wired(SimDuration::from_micros(100)),
            );
        }
        for &(_, mh_addr, ap) in &mhs {
            let ap_addr = *map.ne.get(&ap).expect("MHs start at declared APs");
            w.topo
                .connect_duplex(mh_addr, ap_addr, spec.links.2.clone());
        }

        let core: BTreeSet<NodeId> = brs
            .iter()
            .map(|&(id, _)| id)
            .chain(rings.iter().flatten().map(|&(id, _)| id))
            .collect();
        UnorderedSim {
            sim,
            addrs: map,
            core,
            reporting: Reporting::default(),
        }
    }

    /// Run until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Flush final statistics and return `(journal, transport stats)`.
    pub fn finish(mut self) -> (Vec<(SimTime, ProtoEvent)>, SimStats) {
        let targets: Vec<NodeAddr> = self.addrs.rev.keys().copied().collect();
        {
            let w = self.sim.world();
            for addr in targets {
                w.inject(addr, addr, UnMsg::FlushStats, SimDuration::ZERO);
            }
        }
        let t = self.sim.now() + SimDuration::from_nanos(1);
        self.sim.run_until(t);
        self.sim.finish()
    }
}

/// The unordered hierarchy as a [`MulticastSim`] backend: same tiering as
/// RingNet (the scenario's [`CoreShape`] is honoured), per-source FIFO
/// streams instead of a total order. Membership is static by design —
/// mobility and failure events are ignored, exactly like the paper's §5
/// analysis setting (and late joiners attach at their `Join` target from
/// the start).
impl MulticastSim for UnorderedSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let mut spec = UnorderedSpec::new();
        spec.group = scenario.group;
        spec.cfg = scenario.cfg.clone();
        match scenario.shape {
            CoreShape::Hierarchy {
                brs,
                rings,
                ags_per_ring,
            } => {
                spec.brs = brs;
                spec.ag_rings = (rings, ags_per_ring);
            }
            // The Figure-1 wired core, mirroring what RingNetSim builds
            // for the same scenario (4 BRs, 3 rings × 3 AGs).
            CoreShape::Figure1 => {
                spec.brs = 4;
                spec.ag_rings = (3, 3);
            }
            // Auto mirrors the RingNet auto shape: enough BRs for the
            // sources, one AG ring of ~1 AG per 4 attachments.
            CoreShape::Auto => {
                spec.brs = scenario.sources.max(2);
                spec.ag_rings = (1, scenario.attachments.div_ceil(4).max(2));
            }
        }
        spec.aps_total = Some(scenario.attachments);
        spec.placements = Some(scenario.static_placements());
        spec.sources = scenario.sources.min(spec.brs);
        spec.pattern = scenario.pattern;
        spec.start = scenario.start;
        spec.stop = scenario.stop;
        spec.limit = scenario.limit;
        spec.links = (
            scenario.links.top_ring.clone(),
            scenario.links.ag_ring.clone(),
            scenario.links.wireless.clone(),
        );
        let mut sim = UnorderedSim::build(spec, seed);
        let core = sim.core.clone();
        sim.reporting = Reporting::install(&mut sim.sim, scenario, core);
        sim
    }

    fn schedule(&mut self, _event: ScenarioEvent) {
        // Static membership: the unordered baseline runs without churn.
    }

    fn run_until(&mut self, t: SimTime) {
        UnorderedSim::run_until(self, t);
    }

    fn finish(mut self) -> RunReport {
        let core = self.core.clone();
        let reporting = std::mem::take(&mut self.reporting);
        let (journal, stats) = UnorderedSim::finish(self);
        reporting.finish(journal, stats, &core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> UnorderedSpec {
        let mut s = UnorderedSpec::new();
        s.brs = 3;
        s.ag_rings = (2, 2);
        s.sources = 2;
        s.limit = Some(15);
        s.pattern = TrafficPattern::Cbr {
            interval: SimDuration::from_millis(20),
        };
        s
    }

    #[test]
    fn delivers_every_stream_fifo() {
        let mut net = UnorderedSim::build(spec(), 1);
        net.run_until(SimTime::from_secs(3));
        let (journal, _) = net.finish();
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
        let mut net = UnorderedSim::build(spec(), 2);
        net.run_until(SimTime::from_secs(1));
        let (journal, _) = net.finish();
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
        fn run() -> usize {
            let mut net = UnorderedSim::build(spec(), 5);
            net.run_until(SimTime::from_secs(2));
            net.finish().0.len()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn final_stats_emitted() {
        let mut net = UnorderedSim::build(spec(), 3);
        net.run_until(SimTime::from_secs(2));
        let (journal, _) = net.finish();
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
}
