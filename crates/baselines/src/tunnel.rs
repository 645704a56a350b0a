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

use std::collections::BTreeMap;
use std::rc::Rc;

use ringnet_core::driver::{MulticastSim, RunReport, Scenario, ScenarioEvent};
use ringnet_core::metrics::{Harvest, NeFinal};
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, MhCounters, NodeId, ProtoEvent};
use simnet::{Actor, Ctx, LinkProfile, NodeAddr, SimDuration, SimTime};

use crate::world::{Star, StarPlan, World};

/// Wire messages of the tunnelling baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TunMsg {
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
}

/// The home agent: group subscription point and per-MH tunnel endpoint.
struct HomeAgent {
    id: NodeId,
    group: GroupId,
    locations: BTreeMap<Guid, NodeId>,
    star: Rc<Star>,
    data_sent: u32,
    control_sent: u32,
}

impl Actor<TunMsg, ProtoEvent, Harvest> for HomeAgent {
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
                    if let Some(addr) = self.star.edge(ap) {
                        ctx.send(addr, TunMsg::Tunnel { seq, guid });
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
            _ => {}
        }
    }

    fn on_stop(&mut self, out: &mut Harvest) {
        let counts = NeFinal {
            control_sent: self.control_sent,
            data_sent: self.data_sent,
            ..NeFinal::default()
        };
        out.ne(self.group, self.id, counts);
    }
}

/// A foreign-agent AP: relays tunnelled packets over the wireless hop and
/// care-of updates back to the HA.
struct TunAp {
    id: NodeId,
    group: GroupId,
    star: Rc<Star>,
    data_sent: u32,
    control_sent: u32,
}

impl Actor<TunMsg, ProtoEvent, Harvest> for TunAp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TunMsg, ProtoEvent>, _from: NodeAddr, msg: TunMsg) {
        match msg {
            TunMsg::Tunnel { seq, guid } => {
                if let Some(addr) = self.star.mh(guid) {
                    ctx.send(addr, TunMsg::Deliver { seq });
                    self.data_sent += 1;
                }
            }
            TunMsg::CoaUpdate { guid, new_ap } => {
                ctx.send(Star::HUB, TunMsg::CoaUpdate { guid, new_ap });
                self.control_sent += 1;
            }
            _ => {}
        }
    }

    fn on_stop(&mut self, out: &mut Harvest) {
        let counts = NeFinal {
            control_sent: self.control_sent,
            data_sent: self.data_sent,
            ..NeFinal::default()
        };
        out.ne(self.group, self.id, counts);
    }
}

/// A tunnelled MH: receives unicast copies; announces care-of changes.
struct TunMh {
    guid: Guid,
    group: GroupId,
    ap: NodeId,
    star: Rc<Star>,
    delivered: u32,
    handoffs: u32,
    highest: u64,
    duplicates: u32,
}

impl Actor<TunMsg, ProtoEvent, Harvest> for TunMh {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, TunMsg, ProtoEvent>, _from: NodeAddr, msg: TunMsg) {
        let TunMsg::Deliver { seq } = msg else { return };
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
    }

    /// The radio stimulus of a handoff: `tag` is the new AP's id.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TunMsg, ProtoEvent>, tag: u64) {
        let new_ap = NodeId(tag as u32);
        if new_ap == self.ap {
            return;
        }
        self.ap = new_ap;
        self.handoffs += 1;
        if let Some(addr) = self.star.edge(new_ap) {
            ctx.send(
                addr,
                TunMsg::CoaUpdate {
                    guid: self.guid,
                    new_ap,
                },
            );
        }
    }

    fn on_stop(&mut self, out: &mut Harvest) {
        let counts = MhCounters {
            delivered: self.delivered,
            duplicates: self.duplicates,
            handoffs: self.handoffs,
            ..MhCounters::default()
        };
        out.mh(self.group, self.guid, counts);
    }
}

/// A built tunnelling simulation.
pub struct TunnelSim {
    world: World<TunMsg>,
    star: Rc<Star>,
    wireless: LinkProfile,
}

impl TunnelSim {
    /// Schedule an MH handoff: rewire the radio and set the MH a zero-delay
    /// timer, tagged with the new AP's id, that sends the care-of update.
    fn schedule_handoff(&mut self, at: SimTime, walker: usize, attachment: usize) {
        let (guid, new_ap) = (Guid(walker as u32), Star::edge_id(attachment));
        let (Some(mh_addr), Some(ap_addr)) = (self.star.mh(guid), self.star.edge(new_ap)) else {
            return;
        };
        let wireless = self.wireless.clone();
        self.world.sim.world().schedule_control(at, move |w| {
            let old: Vec<NodeAddr> = w.topo.neighbours(mh_addr).collect();
            for o in old {
                w.topo.disconnect_duplex(mh_addr, o);
            }
            w.topo.connect_duplex(mh_addr, ap_addr, wireless);
            w.set_timer(mh_addr, SimDuration::ZERO, u64::from(new_ap.0));
        });
    }
}

/// MIP-BT as a [`MulticastSim`] backend, on the star world: attachment
/// `k` is the foreign agent `NodeId(k + 1)`, the wired core is the home
/// agent alone (the scheme's single wired data sender) and the home detour
/// draws the scenario's `top_ring` link profile. Handoffs are the tunnel's
/// strong point and fully supported; the scheme has one ingest point, so
/// the scenario's source count is clamped to 1 and Poisson traffic degrades
/// to CBR at the same mean rate. Failure events are ignored (no recovery
/// machinery to compare).
impl MulticastSim for TunnelSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let group = scenario.group;
        let plan = StarPlan {
            source_data: |seq| TunMsg::SourceData { seq },
            hub_link: &scenario.links.top_ring,
            // Late joiners idle at AP 0 until their `Join` hands them off.
            placements: scenario.walkers.iter().map(|w| w.unwrap_or(0)).collect(),
        };
        let (world, star) = plan.assemble(
            scenario,
            seed,
            |star| {
                Box::new(HomeAgent {
                    id: NodeId(0),
                    group,
                    locations: star.walkers().collect(),
                    star: Rc::clone(star),
                    data_sent: 0,
                    control_sent: 0,
                })
            },
            |star, id| {
                Box::new(TunAp {
                    id,
                    group,
                    star: Rc::clone(star),
                    data_sent: 0,
                    control_sent: 0,
                })
            },
            |star, guid, ap| {
                Box::new(TunMh {
                    guid,
                    group,
                    ap,
                    star: Rc::clone(star),
                    delivered: 0,
                    handoffs: 0,
                    highest: 0,
                    duplicates: 0,
                })
            },
        );
        TunnelSim {
            world,
            star,
            wireless: scenario.links.wireless.clone(),
        }
    }

    fn schedule(&mut self, event: ScenarioEvent) {
        match event {
            // A join is a handoff from AP 0 to the requested AP.
            ScenarioEvent::Handoff { at, walker, to }
            | ScenarioEvent::Join {
                at,
                walker,
                at_ap: to,
            } => self.schedule_handoff(at, walker, to),
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
        self.world.run_until(t);
    }

    fn finish(self) -> RunReport {
        self.world.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringnet_core::driver::ScenarioBuilder;

    /// 3 foreign agents with one MH each, 10 messages at 50 msg/s.
    /// Loss-free wireless keeps the no-retransmission baseline exact.
    fn scenario() -> ScenarioBuilder {
        ScenarioBuilder::new()
            .attachments(3)
            .walkers_per_attachment(1)
            .cbr(SimDuration::from_millis(20))
            .message_limit(10)
            .loss_free_wireless()
            .duration(SimTime::from_secs(2))
    }

    #[test]
    fn tunnel_delivers_per_mh_unicast() {
        let report = TunnelSim::run_scenario(&scenario().build(), 1);
        let delivered = report
            .journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::MhDeliver { .. }))
            .count();
        assert_eq!(delivered, 30, "3 MHs × 10 messages");
        // HA sent one wired unicast per MH per message.
        let ha = report.finals.ne[&(GroupId(1), NodeId(0))];
        assert_eq!(ha.data_sent, 30);
    }

    #[test]
    fn handoff_is_one_control_message() {
        let sc = scenario()
            .event(ScenarioEvent::Handoff {
                at: SimTime::from_millis(50),
                walker: 0,
                to: 2,
            })
            .build();
        let report = TunnelSim::run_scenario(&sc, 2);
        let journal = &report.journal;
        assert!(journal.iter().any(|(_, e)| matches!(
            e,
            ProtoEvent::HandoffRegistered {
                mh: Guid(0),
                ap: NodeId(3),
                ..
            }
        )));
        let ha = report.finals.ne[&(GroupId(1), NodeId(0))];
        assert_eq!(ha.control_sent, 1, "exactly one care-of update processed");
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
        let finals = TunnelSim::run_scenario(&scenario().build(), 3).finals;
        assert_eq!(finals.mh_totals().duplicates, 0);
    }
}
