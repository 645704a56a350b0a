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

use std::collections::BTreeMap;
use std::sync::Arc;

use ringnet_core::driver::{MulticastSim, RunReport, Scenario, ScenarioEvent};
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::{Actor, Ctx, NodeAddr, SimDuration, SimTime};

use crate::world::{Star, StarPlan, World};

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

/// The supervisor host: sequencer, group-wide buffer, per-member ACK book.
struct Supervisor {
    id: NodeId,
    group: GroupId,
    star: Arc<Star>,
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
                for addr in self.star.edges() {
                    ctx.send(addr, RelmMsg::Down { seq });
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
                let mss = self.star.homes.get(guid.0 as usize);
                if let Some(addr) = mss.and_then(|&mss| self.star.edge(mss)) {
                    for seq in missing {
                        if self.buffer.contains_key(&seq) {
                            ctx.send(addr, RelmMsg::Down { seq });
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
    star: Arc<Star>,
    processed: u64,
}

impl Actor<RelmMsg, ProtoEvent> for Mss {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, RelmMsg, ProtoEvent>, _from: NodeAddr, msg: RelmMsg) {
        match msg {
            RelmMsg::Down { seq } => {
                self.processed += 1;
                for g in &self.members {
                    if let Some(addr) = self.star.mh(*g) {
                        ctx.send(addr, RelmMsg::Deliver { seq });
                    }
                }
            }
            RelmMsg::Ack { .. } | RelmMsg::Nack { .. } => {
                self.processed += 1;
                ctx.send(Star::HUB, msg);
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
    star: Arc<Star>,
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
        if let Some(addr) = self.star.edge(self.mss) {
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

/// A built RelM simulation.
pub struct RelmSim(World<RelmMsg>);

/// RelM as a [`MulticastSim`] backend, on the star world: attachment
/// `k` is MSS `NodeId(k + 1)`, the wired core is the supervisor host alone
/// — the centralization E8 measures — and the SH ↔ MSS links draw the
/// scenario's `br_ag` profile. RelM's connection handover is out of scope
/// for this reproduction, so membership is static: mobility and failure
/// events are ignored (late joiners attach at their `Join` target from the
/// start), and the single ingest point clamps the source count to 1
/// (Poisson traffic degrades to CBR at the same mean rate).
impl MulticastSim for RelmSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let group = scenario.group;
        let plan = StarPlan {
            sizer: relm_wire_size,
            source_data: |seq| RelmMsg::SourceData { seq },
            flush: RelmMsg::FlushStats,
            hub_link: &scenario.links.br_ag,
            placements: scenario.static_placements(),
        };
        let (world, _) = plan.assemble(
            scenario,
            seed,
            |star| {
                Box::new(Supervisor {
                    id: NodeId(0),
                    group,
                    star: Arc::clone(star),
                    next_seq: 0,
                    buffer: BTreeMap::new(),
                    progress: star.walkers().map(|(g, _)| (g, 0)).collect(),
                    msgs_processed: 0,
                    peak_buffer: 0,
                })
            },
            |star, id| {
                Box::new(Mss {
                    id,
                    group,
                    members: (star.walkers())
                        .filter(|&(_, mss)| mss == id)
                        .map(|(g, _)| g)
                        .collect(),
                    star: Arc::clone(star),
                    processed: 0,
                })
            },
            |star, guid, mss| {
                Box::new(RelmMh {
                    guid,
                    group,
                    mss,
                    star: Arc::clone(star),
                    highest_contig: 0,
                    stashed: BTreeMap::new(),
                    delivered: 0,
                    hop_count: 0,
                })
            },
        );
        RelmSim(world)
    }

    fn schedule(&mut self, _event: ScenarioEvent) {
        // Static membership: RelM's handover protocol is not reproduced.
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
    use ringnet_core::driver::ScenarioBuilder;
    use simnet::LinkProfile;

    /// `msss` MSSs with `per` members each, 20 messages at 50 msg/s over
    /// loss-free wireless, 3 s.
    fn scenario(msss: usize, per: usize) -> ScenarioBuilder {
        ScenarioBuilder::new()
            .attachments(msss)
            .walkers_per_attachment(per)
            .cbr(SimDuration::from_millis(20))
            .message_limit(20)
            .loss_free_wireless()
            .duration(SimTime::from_secs(3))
    }

    #[test]
    fn relm_delivers_in_order() {
        let journal = RelmSim::run_scenario(&scenario(3, 2).build(), 1).journal;
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
            let journal = RelmSim::run_scenario(&scenario(4, members_per_mss).build(), 2).journal;
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
        let sc = scenario(2, 2)
            .message_limit(50)
            .cbr(SimDuration::from_millis(5))
            .wireless(LinkProfile::wired(SimDuration::from_millis(40)))
            .build();
        let journal = RelmSim::run_scenario(&sc, 3).journal;
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
