//! A RelM-style centralized supervisor baseline (Brown & Singh 1998, the
//! paper's reference \[6\]).
//!
//! RelM's three tiers put a *Supervisor Host* (SH) in charge of "most of
//! the routing and protocol details for MHs": the SH sequences the group's
//! messages, buffers every message until **every member** has
//! acknowledged it, and processes each member's ACKs/NACKs itself; the
//! MSSs (base stations) are thin relays. The RingNet paper's §2 criticism
//! — "the RelM protocol scales not very well when the number of group
//! members becomes very large" — is structural: SH work and SH buffering
//! grow with the member count and with the slowest member. Experiment E8
//! measures exactly that against RingNet's distributed equivalent.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ringnet_core::driver::{MulticastSim, Reporting, RunReport, Scenario, ScenarioEvent};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, PayloadId, ProtoEvent};
use simnet::{Actor, Ctx, LinkProfile, NodeAddr, Sim, SimDuration, SimStats, SimTime};

use crate::source::Source;

/// Wire messages of the RelM-style baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum RelmMsg {
    /// Source → SH.
    SourceData {
        /// Source-assigned number (the SH re-sequences anyway).
        seq: u64,
    },
    /// SH → MSS: deliver to the MSS's local members.
    Down {
        /// SH sequence number.
        seq: u64,
    },
    /// MSS → MH wireless delivery.
    Deliver {
        /// SH sequence number.
        seq: u64,
    },
    /// MH → MSS → SH cumulative acknowledgement.
    Ack {
        /// Acknowledging member.
        guid: Guid,
        /// Everything through this number was delivered.
        upto: u64,
    },
    /// MH → MSS → SH retransmission request.
    Nack {
        /// Requesting member.
        guid: Guid,
        /// Missing sequence numbers.
        missing: Vec<u64>,
    },
    /// Teardown probe.
    FlushStats,
}

fn relm_wire_size(msg: &RelmMsg) -> usize {
    match msg {
        RelmMsg::SourceData { .. } | RelmMsg::Down { .. } | RelmMsg::Deliver { .. } => 40 + 512,
        RelmMsg::Ack { .. } => 24,
        RelmMsg::Nack { missing, .. } => 24 + 8 * missing.len(),
        RelmMsg::FlushStats => 0,
    }
}

const TAG_HOP: u64 = 2;

#[derive(Debug, Default)]
struct RelmMap {
    mss: BTreeMap<NodeId, NodeAddr>,
    mh: BTreeMap<Guid, NodeAddr>,
    mh_mss: BTreeMap<Guid, NodeId>,
    sh: Option<NodeAddr>,
}

/// The supervisor host: sequencer, group-wide buffer, per-member ACK book.
struct Supervisor {
    id: NodeId,
    group: GroupId,
    map: Arc<RelmMap>,
    next_seq: u64,
    /// Retained messages (seq → still-unacked member count is derived).
    buffer: BTreeMap<u64, ()>,
    /// Per-member cumulative progress — the centralized `WT`.
    progress: BTreeMap<Guid, u64>,
    msgs_processed: u64,
    peak_buffer: usize,
}

impl Supervisor {
    fn gc(&mut self) {
        let min = self.progress.values().copied().min().unwrap_or(0);
        while let Some((&seq, _)) = self.buffer.first_key_value() {
            if seq <= min {
                self.buffer.remove(&seq);
            } else {
                break;
            }
        }
    }
}

impl Actor<RelmMsg, ProtoEvent> for Supervisor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>, _from: NodeAddr, msg: RelmMsg) {
        match msg {
            RelmMsg::SourceData { .. } => {
                self.msgs_processed += 1;
                self.next_seq += 1;
                let seq = self.next_seq;
                ctx.record(ProtoEvent::SourceSend {
                    source: self.id,
                    local_seq: LocalSeq(seq),
                });
                self.buffer.insert(seq, ());
                self.peak_buffer = self.peak_buffer.max(self.buffer.len());
                for addr in self.map.mss.values() {
                    ctx.send(*addr, RelmMsg::Down { seq });
                }
            }
            RelmMsg::Ack { guid, upto } => {
                // The structural cost: the SH processes EVERY member's ACKs.
                self.msgs_processed += 1;
                let e = self.progress.entry(guid).or_insert(0);
                if upto > *e {
                    *e = upto;
                }
                self.gc();
            }
            RelmMsg::Nack { guid, missing } => {
                self.msgs_processed += 1;
                if let Some(&mss) = self.map.mh_mss.get(&guid) {
                    if let Some(&addr) = self.map.mss.get(&mss) {
                        for seq in missing {
                            if self.buffer.contains_key(&seq) {
                                ctx.send(addr, RelmMsg::Down { seq });
                            }
                        }
                    }
                }
            }
            RelmMsg::FlushStats => {
                ctx.record(ProtoEvent::NeFinal {
                    group: self.group,
                    node: self.id,
                    wq_peak: 0,
                    mq_peak: self.peak_buffer as u32,
                    mq_overflow: 0,
                    wq_overflow: 0,
                    control_sent: 0,
                    data_sent: self.msgs_processed as u32,
                    retransmissions: 0,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, RelmMsg, ProtoEvent>, _: u64) {}
}

/// A thin MSS relay: SH traffic down to local members, member feedback up.
struct Mss {
    id: NodeId,
    group: GroupId,
    members: Vec<Guid>,
    map: Arc<RelmMap>,
    processed: u64,
}

impl Actor<RelmMsg, ProtoEvent> for Mss {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>, _from: NodeAddr, msg: RelmMsg) {
        match msg {
            RelmMsg::Down { seq } => {
                self.processed += 1;
                for g in &self.members {
                    if let Some(&addr) = self.map.mh.get(g) {
                        ctx.send(addr, RelmMsg::Deliver { seq });
                    }
                }
            }
            RelmMsg::Ack { .. } | RelmMsg::Nack { .. } => {
                self.processed += 1;
                if let Some(sh) = self.map.sh {
                    ctx.send(sh, msg);
                }
            }
            RelmMsg::FlushStats => {
                ctx.record(ProtoEvent::NeFinal {
                    group: self.group,
                    node: self.id,
                    wq_peak: 0,
                    mq_peak: 0,
                    mq_overflow: 0,
                    wq_overflow: 0,
                    control_sent: 0,
                    data_sent: self.processed as u32,
                    retransmissions: 0,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, RelmMsg, ProtoEvent>, _: u64) {}
}

/// A RelM member: in-order delivery, periodic cumulative ACKs to the SH.
struct RelmMh {
    guid: Guid,
    group: GroupId,
    mss: NodeId,
    map: Arc<RelmMap>,
    highest_contig: u64,
    stashed: BTreeMap<u64, ()>,
    delivered: u32,
    hop_count: u64,
}

impl RelmMh {
    fn drain(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>) {
        while self.stashed.remove(&(self.highest_contig + 1)).is_some() {
            self.highest_contig += 1;
            self.delivered += 1;
            ctx.record(ProtoEvent::MhDeliver {
                group: self.group,
                mh: self.guid,
                gsn: GlobalSeq(self.highest_contig),
                source: NodeId(0),
                local_seq: LocalSeq(self.highest_contig),
            });
            let _ = PayloadId(self.highest_contig);
        }
    }
}

impl Actor<RelmMsg, ProtoEvent> for RelmMh {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>) {
        ctx.set_timer(SimDuration::from_millis(10), TAG_HOP);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>, _from: NodeAddr, msg: RelmMsg) {
        if let RelmMsg::Deliver { seq } = msg {
            if seq > self.highest_contig {
                self.stashed.insert(seq, ());
                self.drain(ctx);
            }
        } else if let RelmMsg::FlushStats = msg {
            ctx.record(ProtoEvent::MhFinal {
                group: self.group,
                mh: self.guid,
                delivered: self.delivered,
                skipped: 0,
                duplicates: 0,
                handoffs: 0,
            });
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>, tag: u64) {
        if tag != TAG_HOP {
            return;
        }
        self.hop_count += 1;
        if let Some(&addr) = self.map.mss.get(&self.mss) {
            // Periodic cumulative ACK (every other tick) + NACKs for holes.
            if self.hop_count.is_multiple_of(2) {
                ctx.send(
                    addr,
                    RelmMsg::Ack {
                        guid: self.guid,
                        upto: self.highest_contig,
                    },
                );
            }
            if let Some((&max, _)) = self.stashed.last_key_value() {
                let missing: Vec<u64> = (self.highest_contig + 1..max)
                    .filter(|s| !self.stashed.contains_key(s))
                    .take(32)
                    .collect();
                if !missing.is_empty() {
                    ctx.send(
                        addr,
                        RelmMsg::Nack {
                            guid: self.guid,
                            missing,
                        },
                    );
                }
            }
        }
        ctx.set_timer(SimDuration::from_millis(10), TAG_HOP);
    }
}

/// Parameters of a RelM-style deployment.
#[derive(Debug, Clone)]
pub struct RelmSpec {
    /// The multicast group stamped on journal records (RelM itself is
    /// single-group; extra declared scenario groups are ignored).
    pub group: GroupId,
    /// Number of MSSs under the supervisor.
    pub msss: usize,
    /// Members per MSS (ignored when `placements` is set).
    pub mhs_per_mss: usize,
    /// Explicit member placement: `placements[i]` is member `Guid(i)`'s
    /// 0-based MSS index. Overrides `mhs_per_mss`.
    pub placements: Option<Vec<usize>>,
    /// Source interval.
    pub interval: SimDuration,
    /// First transmission time.
    pub start: SimTime,
    /// The source stops at this time (None = never).
    pub stop: Option<SimTime>,
    /// Per-source message limit.
    pub limit: Option<u64>,
    /// SH ↔ MSS wired link.
    pub wired: LinkProfile,
    /// MSS ↔ MH wireless link.
    pub wireless: LinkProfile,
}

impl RelmSpec {
    /// Defaults matching the comparison experiments.
    pub fn new(msss: usize, mhs_per_mss: usize) -> Self {
        RelmSpec {
            group: GroupId(1),
            msss,
            mhs_per_mss,
            placements: None,
            interval: SimDuration::from_millis(10),
            start: SimTime::ZERO,
            stop: None,
            limit: None,
            wired: LinkProfile::wired(SimDuration::from_millis(4)),
            wireless: LinkProfile::wired(SimDuration::from_millis(2)),
        }
    }
}

/// A built RelM simulation.
pub struct RelmSim {
    /// The underlying simulator.
    pub sim: Sim<RelmMsg, ProtoEvent>,
    map: Arc<RelmMap>,
    /// Report assembly mode (batch by default; the [`MulticastSim`] facade
    /// switches it to streaming when journal retention is off).
    pub reporting: Reporting,
}

impl RelmSim {
    /// Instantiate with the given seed. The SH is `NodeId(0)`, MSSs are
    /// `NodeId(1..)`.
    pub fn build(spec: RelmSpec, seed: u64) -> Self {
        assert!(spec.msss >= 1);
        let mut sim: Sim<RelmMsg, ProtoEvent> = Sim::with_options(seed, true, relm_wire_size);
        let mut map = RelmMap::default();
        let sh_addr = NodeAddr(0);
        map.sh = Some(sh_addr);
        let mut next = 1u32;
        let mss_ids: Vec<NodeId> = (1..=spec.msss as u32).map(NodeId).collect();
        for &m in &mss_ids {
            map.mss.insert(m, NodeAddr(next));
            next += 1;
        }
        let source_addr = NodeAddr(next);
        next += 1;
        let mut members: Vec<(Guid, NodeId)> = Vec::new();
        match &spec.placements {
            Some(placements) => {
                for (w, &mss_idx) in placements.iter().enumerate() {
                    assert!(mss_idx < spec.msss, "placement beyond MSS count");
                    let g = Guid(w as u32);
                    map.mh.insert(g, NodeAddr(next));
                    map.mh_mss.insert(g, mss_ids[mss_idx]);
                    members.push((g, mss_ids[mss_idx]));
                    next += 1;
                }
            }
            None => {
                let mut guid = 0u32;
                for &m in &mss_ids {
                    for _ in 0..spec.mhs_per_mss {
                        map.mh.insert(Guid(guid), NodeAddr(next));
                        map.mh_mss.insert(Guid(guid), m);
                        members.push((Guid(guid), m));
                        guid += 1;
                        next += 1;
                    }
                }
            }
        }
        let map = Arc::new(map);

        let progress: BTreeMap<Guid, u64> = members.iter().map(|(g, _)| (*g, 0)).collect();
        sim.add_node(Box::new(Supervisor {
            id: NodeId(0),
            group: spec.group,
            map: Arc::clone(&map),
            next_seq: 0,
            buffer: BTreeMap::new(),
            progress,
            msgs_processed: 0,
            peak_buffer: 0,
        }));
        for &m in &mss_ids {
            let local: Vec<Guid> = members
                .iter()
                .filter(|(_, mss)| *mss == m)
                .map(|(g, _)| *g)
                .collect();
            sim.add_node(Box::new(Mss {
                id: m,
                group: spec.group,
                members: local,
                map: Arc::clone(&map),
                processed: 0,
            }));
        }
        let s = sim.add_node(Box::new(Source {
            target: sh_addr,
            pattern: TrafficPattern::Cbr {
                interval: spec.interval,
            },
            start: spec.start,
            stop: spec.stop,
            limit: spec.limit,
            seq: 0,
            make: |seq| RelmMsg::SourceData { seq },
        }));
        debug_assert_eq!(s, source_addr);
        for &(g, mss) in &members {
            sim.add_node(Box::new(RelmMh {
                guid: g,
                group: spec.group,
                mss,
                map: Arc::clone(&map),
                highest_contig: 0,
                stashed: BTreeMap::new(),
                delivered: 0,
                hop_count: 0,
            }));
        }

        let w = sim.world();
        for &m in &mss_ids {
            w.topo
                .connect_duplex(sh_addr, map.mss[&m], spec.wired.clone());
        }
        w.topo.connect_duplex(
            source_addr,
            sh_addr,
            LinkProfile::wired(SimDuration::from_micros(100)),
        );
        for &(g, mss) in &members {
            w.topo
                .connect_duplex(map.mh[&g], map.mss[&mss], spec.wireless.clone());
        }
        RelmSim {
            sim,
            map,
            reporting: Reporting::default(),
        }
    }

    /// Run until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Flush final statistics and return `(journal, transport stats)`.
    pub fn finish(mut self) -> (Vec<(SimTime, ProtoEvent)>, SimStats) {
        let targets: Vec<NodeAddr> = std::iter::once(NodeAddr(0))
            .chain(self.map.mss.values().copied())
            .chain(self.map.mh.values().copied())
            .collect();
        {
            let w = self.sim.world();
            for addr in targets {
                w.inject(addr, addr, RelmMsg::FlushStats, SimDuration::ZERO);
            }
        }
        let t = self.sim.now() + SimDuration::from_nanos(1);
        self.sim.run_until(t);
        self.sim.finish()
    }
}

/// RelM as a [`MulticastSim`] backend: attachment `k` is MSS
/// `NodeId(k + 1)`, the wired core is the supervisor host alone — the
/// centralization E8 measures. RelM's connection handover is out of scope
/// for this reproduction, so membership is static: mobility and failure
/// events are ignored (late joiners attach at their `Join` target from the
/// start), and the single ingest point clamps the source count to 1
/// (Poisson traffic degrades to CBR at the same mean rate).
impl MulticastSim for RelmSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let mut spec = RelmSpec::new(scenario.attachments, 0);
        spec.group = scenario.group;
        spec.placements = Some(scenario.static_placements());
        spec.interval = scenario.pattern.mean_interval();
        spec.start = scenario.start;
        spec.stop = scenario.stop;
        spec.limit = scenario.limit;
        spec.wired = scenario.links.br_ag.clone();
        spec.wireless = scenario.links.wireless.clone();
        let mut sim = RelmSim::build(spec, seed);
        let core: BTreeSet<NodeId> = std::iter::once(NodeId(0)).collect();
        sim.reporting = Reporting::install(&mut sim.sim, scenario, core);
        sim
    }

    fn schedule(&mut self, _event: ScenarioEvent) {
        // Static membership: RelM's handover protocol is not reproduced.
    }

    fn run_until(&mut self, t: SimTime) {
        RelmSim::run_until(self, t);
    }

    fn finish(mut self) -> RunReport {
        let core: BTreeSet<NodeId> = std::iter::once(NodeId(0)).collect();
        let reporting = std::mem::take(&mut self.reporting);
        let (journal, stats) = RelmSim::finish(self);
        reporting.finish(journal, stats, &core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(msss: usize, per: usize) -> RelmSpec {
        let mut s = RelmSpec::new(msss, per);
        s.limit = Some(20);
        s.interval = SimDuration::from_millis(20);
        s
    }

    #[test]
    fn relm_delivers_in_order() {
        let mut net = RelmSim::build(spec(3, 2), 1);
        net.run_until(SimTime::from_secs(3));
        let (journal, _) = net.finish();
        let mut per: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver { mh, gsn, .. } = e {
                per.entry(mh.0).or_default().push(gsn.0);
            }
        }
        assert_eq!(per.len(), 6);
        for (mh, seqs) in &per {
            assert_eq!(*seqs, (1..=20u64).collect::<Vec<_>>(), "mh{mh}");
        }
    }

    #[test]
    fn sh_processes_every_members_acks() {
        // SH work grows with the member count (the paper's criticism).
        fn sh_work(members_per_mss: usize) -> u32 {
            let mut net = RelmSim::build(spec(4, members_per_mss), 2);
            net.run_until(SimTime::from_secs(3));
            let (journal, _) = net.finish();
            journal
                .iter()
                .find_map(|(_, e)| match e {
                    ProtoEvent::NeFinal {
                        node: NodeId(0),
                        data_sent,
                        ..
                    } => Some(*data_sent),
                    _ => None,
                })
                .unwrap()
        }
        let small = sh_work(1);
        let large = sh_work(8);
        assert!(
            large > 3 * small,
            "8× members should multiply SH work: {small} → {large}"
        );
    }

    #[test]
    fn sh_buffer_pinned_by_slowest_member() {
        // With a long-delay wireless link, SH retention grows.
        let mut s = spec(2, 2);
        s.limit = Some(50);
        s.interval = SimDuration::from_millis(5);
        s.wireless = LinkProfile::wired(SimDuration::from_millis(40));
        let mut net = RelmSim::build(s, 3);
        net.run_until(SimTime::from_secs(3));
        let (journal, _) = net.finish();
        let peak = journal
            .iter()
            .find_map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    node: NodeId(0),
                    mq_peak,
                    ..
                } => Some(*mq_peak),
                _ => None,
            })
            .unwrap();
        assert!(peak >= 10, "slow members should pin the SH buffer: {peak}");
    }
}
