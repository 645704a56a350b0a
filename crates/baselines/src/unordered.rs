//! The *unordered* RingNet baseline — "the multicast protocol without
//! ordering requirement" that Theorem 5.1 compares against (and Remark 3
//! recommends when total order is not needed).
//!
//! Same distribution vehicle, same transport: it is the RingNet engine on
//! [`unordered_spec`], RingNet's own hierarchy (entities, addresses and
//! links) with each source's stream its own group, ordered where it enters
//! (FlexCast's *genuine* property: only where a stream enters takes part
//! in ordering it). The group's ordering ring is one node, its source's
//! BR, which numbers each message as it arrives; every other BR relays the
//! stream one top-ring hop down from there, and an AG ring hangs from the
//! entry BR whenever that BR is one of its candidate parents. So no
//! message waits for a token, and every stream is delivered in per-source
//! FIFO order. The throughput experiment (T1) shows both protocols sustain
//! `s·λ`; the latency experiment (E4) shows the ordering overhead this
//! baseline avoids.
//!
//! Membership and mobility are deliberately static — scenario events are
//! ignored — because the ordered-vs-unordered experiments run without
//! churn, exactly like the paper's §5 analysis.

use ringnet_core::driver::{unordered_spec, MulticastSim, RunReport, Scenario, ScenarioEvent};
use ringnet_core::engine::RingNetSim;
use simnet::SimTime;

/// The unordered hierarchy as a [`MulticastSim`] backend: the RingNet
/// engine on [`unordered_spec`]. Every scenario event is ignored; late
/// joiners attach at their `Join` target from the start
/// ([`Scenario::static_placements`]).
pub struct UnorderedSim(pub RingNetSim);

impl MulticastSim for UnorderedSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        let spec = unordered_spec(scenario);
        UnorderedSim(RingNetSim::for_scenario(spec, scenario, seed))
    }

    fn schedule(&mut self, _event: ScenarioEvent) {
        // Static membership: the unordered baseline runs without churn.
    }

    fn run_until(&mut self, t: SimTime) {
        self.0.run_until(t);
    }

    fn finish(self) -> RunReport {
        MulticastSim::finish(self.0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use ringnet_core::driver::{ringnet_spec, CoreShape, ScenarioBuilder};
    use ringnet_core::{Guid, NodeId, ProtoEvent};
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

    /// Per `(mh, source)`, the delivered source sequence numbers in
    /// journal order.
    fn streams(sc: &Scenario, seed: u64) -> BTreeMap<(u32, u32), Vec<u64>> {
        let journal = UnorderedSim::run_scenario(sc, seed).journal;
        let mut per: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver {
                mh,
                source,
                local_seq,
                ..
            } = e
            {
                per.entry((mh.0, source.0)).or_default().push(local_seq.0);
            }
        }
        // 4 MHs × 2 sources.
        assert_eq!(per.len(), 8, "{:?}", per.keys().collect::<Vec<_>>());
        per
    }

    /// What the comparator promises on a lossy radio hop: each stream is
    /// FIFO with no hole below the highest delivered number. Not that it is
    /// complete — a lost *last* message has no later one to reveal the gap,
    /// so no NACK asks for it (RingNet shares the limit; see
    /// `a_lost_last_message_is_never_repaired` in the core's engine
    /// scenarios).
    #[test]
    fn delivers_every_stream_fifo() {
        for ((mh, src), seqs) in streams(&scenario(3), 1) {
            let top = seqs.last().copied().unwrap_or(0);
            assert_eq!(seqs, (1..=top).collect::<Vec<_>>(), "mh{mh} stream {src}");
        }
    }

    /// On a loss-free twin of the same world every stream is complete.
    #[test]
    fn loss_free_streams_are_complete() {
        let mut sc = scenario(3);
        sc.links.wireless = sc.links.wireless.with_loss(simnet::LossModel::Perfect);
        for ((mh, src), seqs) in streams(&sc, 1) {
            assert_eq!(seqs, (1..=15u64).collect::<Vec<_>>(), "mh{mh} stream {src}");
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

    /// Counters come per `(group, node)`: each of the two streams is a
    /// group every entity and walker serves.
    #[test]
    fn final_stats_emitted() {
        let finals = UnorderedSim::run_scenario(&scenario(2), 3).finals;
        assert_eq!(finals.ne.len(), 2 * (3 + 4 + 4));
        assert_eq!(finals.mh.len(), 2 * 4);
    }

    /// Comparator parity: walker → AP → AG parentage is `ringnet_spec`'s.
    /// With two rings of two AGs over eight attachments the spec hands
    /// each AG a *block* of two consecutive APs, and every AP grafts to the
    /// AG the spec prefers for it.
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
        let placed = |spec: &ringnet_core::HierarchySpec| {
            let mhs = spec.mhs.iter();
            mhs.map(|mh| (mh.guid, mh.initial_ap)).collect::<Vec<_>>()
        };
        assert_eq!(placed(&unordered_spec(&sc)), placed(&spec));

        let journal = UnorderedSim::run_scenario(&sc, 1).journal;
        let mut parent_of: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for (_, e) in &journal {
            if let ProtoEvent::Grafted { parent, child, .. } = *e {
                assert_eq!(parent_of.insert(child, parent), None, "one graft each");
            }
        }
        for ap in &spec.aps {
            assert_eq!(parent_of[&ap.id], ap.parent_candidates[0], "{}", ap.id);
        }
        let delivered = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::MhDeliver { .. }));
        assert_eq!(delivered.count(), 8 * 10, "loss-free world");
    }
}
