//! The Mobile-IP Bidirectional Tunnelling baseline (MIP-BT).
//!
//! Every MH's multicast traffic detours through its *home agent*: the HA
//! subscribes to the group once and tunnels a unicast copy of every packet
//! to each MH's current care-of address (its AP). Handoffs are cheap in
//! the wired network (one care-of update to the HA), but the data path is
//! poor: the HA sends one wired unicast *per MH per message*, and latency
//! includes the home detour — §2: "it incurs a high handoff latency as the
//! MH moves far away from its home network", and no tree maintenance at
//! all. Experiment E6 compares its per-message and per-handoff wired costs
//! with RingNet and the tree baseline.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ringnet_core::driver::{MulticastSim, Reporting, RunReport, Scenario, ScenarioEvent};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, PayloadId, ProtoEvent};
use simnet::{Actor, Ctx, LinkProfile, NodeAddr, Sim, SimDuration, SimStats, SimTime};

use crate::source::Source;

/// Wire messages of the tunnelling baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TunMsg {
    /// Source → HA: a fresh multicast message.
    SourceData {
        /// Sequence number.
        seq: u64,
    },
    /// HA → AP: tunnelled unicast copy for one MH.
    Tunnel {
        /// Sequence number.
        seq: u64,
        /// The target MH.
        guid: Guid,
    },
    /// AP → MH: final wireless hop.
    Deliver {
        /// Sequence number.
        seq: u64,
    },
    /// MH → AP → HA: care-of update after a handoff.
    CoaUpdate {
        /// The moving MH.
        guid: Guid,
        /// Its new AP.
        new_ap: NodeId,
    },
    /// Radio stimulus to the MH (scenario-injected).
    HandoffTo {
        /// The new AP.
        new_ap: NodeId,
    },
    /// Teardown probe.
    FlushStats,
}

fn tun_wire_size(msg: &TunMsg) -> usize {
    match msg {
        TunMsg::SourceData { .. } | TunMsg::Tunnel { .. } | TunMsg::Deliver { .. } => 40 + 512,
        TunMsg::CoaUpdate { .. } | TunMsg::HandoffTo { .. } => 24,
        TunMsg::FlushStats => 0,
    }
}

/// Shared address table.
#[derive(Debug, Default)]
struct TunMap {
    ap: BTreeMap<NodeId, NodeAddr>,
    mh: BTreeMap<Guid, NodeAddr>,
    ha: Option<NodeAddr>,
}

/// The home agent: group subscription point and per-MH tunnel endpoint.
struct HomeAgent {
    id: NodeId,
    group: GroupId,
    locations: BTreeMap<Guid, NodeId>,
    map: Arc<TunMap>,
    data_sent: u32,
    control_sent: u32,
}

impl Actor<TunMsg, ProtoEvent> for HomeAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TunMsg, ProtoEvent>, _from: NodeAddr, msg: TunMsg) {
        match msg {
            TunMsg::SourceData { seq } => {
                ctx.record(ProtoEvent::SourceSend {
                    source: self.id,
                    local_seq: LocalSeq(seq),
                });
                // One wired unicast per MH — the structural cost of MIP-BT.
                let targets: Vec<(Guid, NodeId)> =
                    self.locations.iter().map(|(g, ap)| (*g, *ap)).collect();
                for (guid, ap) in targets {
                    if let Some(addr) = self.map.ap.get(&ap) {
                        ctx.send(*addr, TunMsg::Tunnel { seq, guid });
                        self.data_sent += 1;
                    }
                }
            }
            TunMsg::CoaUpdate { guid, new_ap } => {
                self.locations.insert(guid, new_ap);
                self.control_sent += 1;
                ctx.record(ProtoEvent::HandoffRegistered {
                    group: self.group,
                    mh: guid,
                    ap: new_ap,
                    resume: GlobalSeq::ZERO,
                });
            }
            TunMsg::FlushStats => {
                ctx.record(ProtoEvent::NeFinal {
                    group: self.group,
                    node: self.id,
                    wq_peak: 0,
                    mq_peak: 0,
                    mq_overflow: 0,
                    wq_overflow: 0,
                    control_sent: self.control_sent,
                    data_sent: self.data_sent,
                    retransmissions: 0,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, TunMsg, ProtoEvent>, _: u64) {}
}

/// A foreign-agent AP: relays tunnelled packets over the wireless hop and
/// care-of updates back to the HA.
struct TunAp {
    id: NodeId,
    group: GroupId,
    map: Arc<TunMap>,
    data_sent: u32,
    control_sent: u32,
}

impl Actor<TunMsg, ProtoEvent> for TunAp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TunMsg, ProtoEvent>, _from: NodeAddr, msg: TunMsg) {
        match msg {
            TunMsg::Tunnel { seq, guid } => {
                if let Some(addr) = self.map.mh.get(&guid) {
                    ctx.send(*addr, TunMsg::Deliver { seq });
                    self.data_sent += 1;
                }
            }
            TunMsg::CoaUpdate { guid, new_ap } => {
                if let Some(ha) = self.map.ha {
                    ctx.send(ha, TunMsg::CoaUpdate { guid, new_ap });
                    self.control_sent += 1;
                }
            }
            TunMsg::FlushStats => {
                ctx.record(ProtoEvent::NeFinal {
                    group: self.group,
                    node: self.id,
                    wq_peak: 0,
                    mq_peak: 0,
                    mq_overflow: 0,
                    wq_overflow: 0,
                    control_sent: self.control_sent,
                    data_sent: self.data_sent,
                    retransmissions: 0,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, TunMsg, ProtoEvent>, _: u64) {}
}

/// A tunnelled MH: receives unicast copies; announces care-of changes.
struct TunMh {
    guid: Guid,
    group: GroupId,
    ap: NodeId,
    map: Arc<TunMap>,
    delivered: u32,
    handoffs: u32,
    highest: u64,
    duplicates: u32,
}

impl Actor<TunMsg, ProtoEvent> for TunMh {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TunMsg, ProtoEvent>, _from: NodeAddr, msg: TunMsg) {
        match msg {
            TunMsg::Deliver { seq } => {
                if seq <= self.highest {
                    self.duplicates += 1;
                    return;
                }
                self.highest = seq;
                self.delivered += 1;
                ctx.record(ProtoEvent::MhDeliver {
                    group: self.group,
                    mh: self.guid,
                    gsn: GlobalSeq(seq),
                    source: NodeId(0),
                    local_seq: LocalSeq(seq),
                });
                let _ = PayloadId(seq);
            }
            TunMsg::HandoffTo { new_ap } => {
                if new_ap == self.ap {
                    return;
                }
                self.ap = new_ap;
                self.handoffs += 1;
                if let Some(addr) = self.map.ap.get(&new_ap) {
                    ctx.send(
                        *addr,
                        TunMsg::CoaUpdate {
                            guid: self.guid,
                            new_ap,
                        },
                    );
                }
            }
            TunMsg::FlushStats => {
                ctx.record(ProtoEvent::MhFinal {
                    group: self.group,
                    mh: self.guid,
                    delivered: self.delivered,
                    skipped: 0,
                    duplicates: self.duplicates,
                    handoffs: self.handoffs,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, TunMsg, ProtoEvent>, _: u64) {}
}

/// Parameters of a tunnelling deployment.
#[derive(Debug, Clone)]
pub struct TunnelSpec {
    /// The multicast group stamped on journal records (the tunnel is
    /// single-group; extra declared scenario groups are ignored).
    pub group: GroupId,
    /// Number of APs (foreign agents).
    pub aps: usize,
    /// MHs, assigned round-robin over the APs (ignored when `placements`
    /// is set).
    pub mhs: usize,
    /// Explicit MH placement: `placements[i]` is MH `Guid(i)`'s initial
    /// 0-based AP index. Overrides `mhs`.
    pub placements: Option<Vec<usize>>,
    /// Source interval.
    pub interval: SimDuration,
    /// First transmission time.
    pub start: SimTime,
    /// The source stops at this time (None = never).
    pub stop: Option<SimTime>,
    /// Per-source message limit.
    pub limit: Option<u64>,
    /// HA ↔ AP wired link (the home detour).
    pub wired: LinkProfile,
    /// AP ↔ MH wireless link.
    pub wireless: LinkProfile,
}

impl TunnelSpec {
    /// Defaults used by the comparison experiments.
    pub fn new(aps: usize, mhs: usize) -> Self {
        TunnelSpec {
            group: GroupId(1),
            aps,
            mhs,
            placements: None,
            interval: SimDuration::from_millis(10),
            start: SimTime::ZERO,
            stop: None,
            limit: None,
            wired: LinkProfile::wired(SimDuration::from_millis(8)),
            wireless: LinkProfile::wireless(
                SimDuration::from_millis(2),
                SimDuration::from_millis(1),
                0.01,
            ),
        }
    }
}

/// A built tunnelling simulation with a scenario API mirroring the RingNet
/// engine's.
pub struct TunnelSim {
    /// The underlying simulator.
    pub sim: Sim<TunMsg, ProtoEvent>,
    map: Arc<TunMap>,
    spec: TunnelSpec,
    /// Report assembly mode (batch by default; the [`MulticastSim`] facade
    /// switches it to streaming when journal retention is off).
    pub reporting: Reporting,
}

impl TunnelSim {
    /// Instantiate with the given seed.
    pub fn build(spec: TunnelSpec, seed: u64) -> Self {
        assert!(spec.aps >= 1);
        let mut sim: Sim<TunMsg, ProtoEvent> = Sim::with_options(seed, true, tun_wire_size);
        let mut map = TunMap::default();
        let ha_addr = NodeAddr(0);
        map.ha = Some(ha_addr);
        let mut next = 1u32;
        let ap_ids: Vec<NodeId> = (1..=spec.aps as u32).map(NodeId).collect();
        for &ap in &ap_ids {
            map.ap.insert(ap, NodeAddr(next));
            next += 1;
        }
        let source_addr = NodeAddr(next);
        next += 1;
        // Initial AP per MH: explicit placements or round-robin.
        let assignments: Vec<usize> = match &spec.placements {
            Some(p) => {
                assert!(p.iter().all(|&a| a < spec.aps), "placement beyond AP count");
                p.clone()
            }
            None => (0..spec.mhs).map(|i| i % spec.aps).collect(),
        };
        let guids: Vec<Guid> = (0..assignments.len() as u32).map(Guid).collect();
        for &g in &guids {
            map.mh.insert(g, NodeAddr(next));
            next += 1;
        }
        let map = Arc::new(map);

        let ha = sim.add_node(Box::new(HomeAgent {
            id: NodeId(0),
            group: spec.group,
            locations: guids
                .iter()
                .enumerate()
                .map(|(i, &g)| (g, ap_ids[assignments[i]]))
                .collect(),
            map: Arc::clone(&map),
            data_sent: 0,
            control_sent: 0,
        }));
        debug_assert_eq!(ha, ha_addr);
        for &ap in &ap_ids {
            sim.add_node(Box::new(TunAp {
                id: ap,
                group: spec.group,
                map: Arc::clone(&map),
                data_sent: 0,
                control_sent: 0,
            }));
        }
        let s = sim.add_node(Box::new(Source {
            target: ha_addr,
            pattern: TrafficPattern::Cbr {
                interval: spec.interval,
            },
            start: spec.start,
            stop: spec.stop,
            limit: spec.limit,
            seq: 0,
            make: |seq| TunMsg::SourceData { seq },
        }));
        debug_assert_eq!(s, source_addr);
        for (i, &g) in guids.iter().enumerate() {
            sim.add_node(Box::new(TunMh {
                guid: g,
                group: spec.group,
                ap: ap_ids[assignments[i]],
                map: Arc::clone(&map),
                delivered: 0,
                handoffs: 0,
                highest: 0,
                duplicates: 0,
            }));
        }

        let w = sim.world();
        for &ap in &ap_ids {
            w.topo
                .connect_duplex(ha_addr, map.ap[&ap], spec.wired.clone());
        }
        w.topo.connect_duplex(
            source_addr,
            ha_addr,
            LinkProfile::wired(SimDuration::from_micros(100)),
        );
        for (i, &g) in guids.iter().enumerate() {
            let home = ap_ids[assignments[i]];
            w.topo
                .connect_duplex(map.mh[&g], map.ap[&home], spec.wireless.clone());
        }

        TunnelSim {
            sim,
            map,
            spec,
            reporting: Reporting::default(),
        }
    }

    /// Schedule an MH handoff: rewire the radio and stimulate a care-of
    /// update.
    pub fn schedule_handoff(&mut self, at: SimTime, guid: Guid, new_ap: NodeId) {
        let map = Arc::clone(&self.map);
        let wireless = self.spec.wireless.clone();
        self.sim.world().schedule_control(at, move |w| {
            let (Some(&mh_addr), Some(&ap_addr)) = (map.mh.get(&guid), map.ap.get(&new_ap)) else {
                return;
            };
            let old: Vec<NodeAddr> = w.topo.neighbours(mh_addr).collect();
            for o in old {
                w.topo.disconnect_duplex(mh_addr, o);
            }
            w.topo.connect_duplex(mh_addr, ap_addr, wireless.clone());
            w.inject(
                ap_addr,
                mh_addr,
                TunMsg::HandoffTo { new_ap },
                SimDuration::ZERO,
            );
        });
    }

    /// Run until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Flush final statistics and return `(journal, transport stats)`.
    pub fn finish(mut self) -> (Vec<(SimTime, ProtoEvent)>, SimStats) {
        let targets: Vec<NodeAddr> = std::iter::once(NodeAddr(0))
            .chain(self.map.ap.values().copied())
            .chain(self.map.mh.values().copied())
            .collect();
        {
            let w = self.sim.world();
            for addr in targets {
                w.inject(addr, addr, TunMsg::FlushStats, SimDuration::ZERO);
            }
        }
        let t = self.sim.now() + SimDuration::from_nanos(1);
        self.sim.run_until(t);
        self.sim.finish()
    }
}

/// MIP-BT as a [`MulticastSim`] backend: attachment `k` is the foreign
/// agent `NodeId(k + 1)`, the wired core is the home agent alone (the
/// scheme's single wired data sender). Handoffs are the tunnel's strong
/// point and fully supported; the scheme has one ingest point, so the
/// scenario's source count is clamped to 1 and Poisson traffic degrades to
/// CBR at the same mean rate. Failure events are ignored (no recovery
/// machinery to compare).
impl MulticastSim for TunnelSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let mut spec = TunnelSpec::new(scenario.attachments, scenario.walkers.len());
        spec.group = scenario.group;
        spec.placements = Some(scenario.walkers.iter().map(|w| w.unwrap_or(0)).collect());
        spec.interval = scenario.pattern.mean_interval();
        spec.start = scenario.start;
        spec.stop = scenario.stop;
        spec.limit = scenario.limit;
        spec.wired = scenario.links.top_ring.clone();
        spec.wireless = scenario.links.wireless.clone();
        let mut sim = TunnelSim::build(spec, seed);
        let core: BTreeSet<NodeId> = std::iter::once(NodeId(0)).collect();
        sim.reporting = Reporting::install(&mut sim.sim, scenario, core);
        sim
    }

    fn schedule(&mut self, event: ScenarioEvent) {
        match event {
            ScenarioEvent::Handoff { at, walker, to } => {
                self.schedule_handoff(at, Guid(walker as u32), NodeId(to as u32 + 1));
            }
            // Late joiners were attached at AP 0 at build; a join is a
            // handoff to the requested AP.
            ScenarioEvent::Join { at, walker, at_ap } => {
                self.schedule_handoff(at, Guid(walker as u32), NodeId(at_ap as u32 + 1));
            }
            // The tunnel baseline models no failures: crashes, restarts,
            // partitions and token faults are ignored (there is no token).
            ScenarioEvent::KillCore { .. }
            | ScenarioEvent::KillWalker { .. }
            | ScenarioEvent::ApCrash { .. }
            | ScenarioEvent::ApRestart { .. }
            | ScenarioEvent::PartitionCore { .. }
            | ScenarioEvent::HealCore { .. }
            | ScenarioEvent::DropToken { .. }
            | ScenarioEvent::RingRejoin { .. }
            | ScenarioEvent::PartitionRing { .. }
            | ScenarioEvent::HealRing { .. }
            | ScenarioEvent::ReplayControl { .. } => {}
        }
    }

    fn run_until(&mut self, t: SimTime) {
        TunnelSim::run_until(self, t);
    }

    fn finish(mut self) -> RunReport {
        let core: BTreeSet<NodeId> = std::iter::once(NodeId(0)).collect();
        let reporting = std::mem::take(&mut self.reporting);
        let (journal, stats) = TunnelSim::finish(self);
        reporting.finish(journal, stats, &core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TunnelSpec {
        let mut s = TunnelSpec::new(3, 3);
        s.limit = Some(10);
        s.interval = SimDuration::from_millis(20);
        // Loss-free wireless keeps the no-retransmission baseline exact.
        s.wireless = LinkProfile::wired(SimDuration::from_millis(2));
        s
    }

    #[test]
    fn tunnel_delivers_per_mh_unicast() {
        let mut net = TunnelSim::build(spec(), 1);
        net.run_until(SimTime::from_secs(2));
        let (journal, _) = net.finish();
        let delivered = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::MhDeliver { .. }))
            .count();
        assert_eq!(delivered, 30, "3 MHs × 10 messages");
        // HA sent one wired unicast per MH per message.
        let ha_data: u32 = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    node: NodeId(0),
                    data_sent,
                    ..
                } => Some(*data_sent),
                _ => None,
            })
            .sum();
        assert_eq!(ha_data, 30);
    }

    #[test]
    fn handoff_is_one_control_message() {
        let mut net = TunnelSim::build(spec(), 2);
        net.schedule_handoff(SimTime::from_millis(50), Guid(0), NodeId(3));
        net.run_until(SimTime::from_secs(2));
        let (journal, _) = net.finish();
        assert!(journal.iter().any(|(_, e)| matches!(
            e,
            ProtoEvent::HandoffRegistered {
                mh: Guid(0),
                ap: NodeId(3),
                ..
            }
        )));
        let ha_control: u32 = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    node: NodeId(0),
                    control_sent,
                    ..
                } => Some(*control_sent),
                _ => None,
            })
            .sum();
        assert_eq!(ha_control, 1, "exactly one care-of update processed");
        // Delivery continues after the move: mh0 still gets all messages
        // sent after the update (tunnel redirected).
        let mh0: Vec<u64> = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::MhDeliver {
                    mh: Guid(0), gsn, ..
                } => Some(gsn.0),
                _ => None,
            })
            .collect();
        assert!(mh0.len() >= 8, "mh0 delivered {mh0:?}");
    }

    #[test]
    fn no_duplicates_without_handoff() {
        let mut net = TunnelSim::build(spec(), 3);
        net.run_until(SimTime::from_secs(2));
        let (journal, _) = net.finish();
        let dups: u32 = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::MhFinal { duplicates, .. } => Some(*duplicates),
                _ => None,
            })
            .sum();
        assert_eq!(dups, 0);
    }
}
