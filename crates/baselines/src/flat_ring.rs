//! The flat logical-ring baseline (Nikolaidis & Harms, ICNP 1999 — the
//! paper's reference \[16\]).
//!
//! Every base station sits on *one* logical ring; the ordering token and
//! all control information rotate along the full ring. The RingNet paper's
//! §2 criticism — "since all the control information has to be rotated
//! along the ring, it may lead to large latency and require large buffers
//! when the ring becomes large" — is exactly what experiment E1 measures
//! against this baseline.
//!
//! Implementation: the RingNet engine on the *station shape* of
//! [`ringnet_core::driver::flat_ring_spec`] — no AG rings, no APs, every
//! top-ring node a hybrid station that orders *and* serves MHs — so the
//! comparison runs the same protocol code, the same assembly and the same
//! control surface, and isolates the structural difference (one ring of N
//! stations vs a hierarchy of small rings). This file owns only the event
//! quirks of a world without an attachment tier.

use ringnet_core::driver::{flat_ring_spec, MulticastSim, RunReport, Scenario, ScenarioEvent};
use ringnet_core::engine::RingNetSim;
use simnet::SimTime;

/// The flat ring as a [`MulticastSim`] backend: attachment `k` is station
/// `NodeId(k)`, the wired core is *every* station (they all carry the
/// ring's ordering and forwarding work — that is the point of E1). It *is*
/// the RingNet engine underneath.
pub struct FlatRingSim(pub RingNetSim);

impl MulticastSim for FlatRingSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        FlatRingSim(RingNetSim::for_scenario(
            flat_ring_spec(scenario),
            scenario,
            seed,
        ))
    }

    fn schedule(&mut self, event: ScenarioEvent) {
        let event = match event {
            // Late joiners were attached at station 0 at build time; a join
            // is a handoff to the requested station.
            ScenarioEvent::Join { at, walker, at_ap } => ScenarioEvent::Handoff {
                at,
                walker,
                to: at_ap,
            },
            // A flat station doubles as the attachment entity (use
            // KillCore/RingRejoin for station crash-restart), and there is
            // no non-ordering wired segment to partition.
            ScenarioEvent::ApCrash { .. }
            | ScenarioEvent::ApRestart { .. }
            | ScenarioEvent::PartitionCore { .. }
            | ScenarioEvent::HealCore { .. } => return,
            other => other,
        };
        self.0.schedule(event);
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
    use super::*;
    use ringnet_core::driver::ScenarioBuilder;
    use ringnet_core::{NodeId, ProtoEvent};
    use simnet::SimDuration;

    /// `stations` stations, one walker each, `sources` 50 msg/s sources of
    /// 20 messages, default (lossy) wireless.
    fn journal(
        stations: usize,
        sources: usize,
        secs: u64,
        seed: u64,
    ) -> Vec<(SimTime, ProtoEvent)> {
        let sc = ScenarioBuilder::new()
            .attachments(stations)
            .walkers_per_attachment(1)
            .sources(sources)
            .cbr(SimDuration::from_millis(20))
            .message_limit(20)
            .duration(SimTime::from_secs(secs))
            .build();
        FlatRingSim::run_scenario(&sc, seed).journal
    }

    #[test]
    fn flat_ring_orders_and_delivers() {
        let journal = journal(4, 1, 3, 1);
        let mut per_mh: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver { mh, gsn, .. } = e {
                per_mh.entry(mh.0).or_default().push(gsn.0);
            }
        }
        assert_eq!(per_mh.len(), 4);
        for (mh, gsns) in &per_mh {
            assert_eq!(gsns.len(), 20, "mh{mh}: {gsns:?}");
            assert!(gsns.windows(2).all(|w| w[0] < w[1]), "mh{mh} in order");
        }
    }

    #[test]
    fn token_rotation_grows_with_ring_size() {
        // Average gap between consecutive TokenPass events at one node
        // should grow roughly linearly with the station count.
        fn rotation_gap(stations: usize) -> f64 {
            let journal = journal(stations, 1, 4, 2);
            let times: Vec<SimTime> = journal
                .iter()
                .filter_map(|(t, e)| match e {
                    ProtoEvent::TokenPass {
                        node: NodeId(0), ..
                    } => Some(*t),
                    _ => None,
                })
                .collect();
            assert!(times.len() > 3, "token rotated at least a few times");
            let total = times.last().unwrap().saturating_since(times[0]);
            total.as_secs_f64() / (times.len() - 1) as f64
        }
        let small = rotation_gap(3);
        let large = rotation_gap(12);
        assert!(
            large > 2.5 * small,
            "rotation time should scale with ring size (3: {small:.4}s, 12: {large:.4}s)"
        );
    }

    #[test]
    fn multiple_sources_get_disjoint_numbers() {
        let journal = journal(5, 3, 3, 3);
        let mut gsns: Vec<u64> = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::Ordered { gsn, .. } => Some(gsn.0),
                _ => None,
            })
            .collect();
        let n = gsns.len();
        assert_eq!(n, 60, "3 sources × 20 messages");
        gsns.sort_unstable();
        gsns.dedup();
        assert_eq!(gsns.len(), n, "no duplicate global numbers");
    }

    #[test]
    fn ring_partition_stalls_then_merges_station_and_walkers() {
        // 3 stations, 1 walker each, station 2 isolated from the ring for
        // 1.5 s. Its walker stalls while fenced, then resumes after the
        // merge (missed GSNs are repaired from retention or skipped — but
        // never delivered out of order or twice).
        let mut sc = ScenarioBuilder::new()
            .attachments(3)
            .walkers_per_attachment(1)
            .sources(1)
            .cbr(SimDuration::from_millis(10))
            .loss_free_wireless()
            .duration(SimTime::from_secs(8))
            .build();
        sc.events = vec![
            ScenarioEvent::PartitionRing {
                at: SimTime::from_secs(2),
                isolate: 2,
            },
            ScenarioEvent::HealRing {
                at: SimTime::from_millis(3_500),
                isolate: 2,
            },
        ];
        let report = FlatRingSim::run_scenario(&sc, 41);
        assert_eq!(report.metrics.order_violations, 0);
        // The isolated station fenced itself and merged back.
        assert!(report.journal.iter().any(|(_, e)| matches!(
            e,
            ProtoEvent::RingPartitioned {
                node: NodeId(2),
                ..
            }
        )));
        assert!(report.journal.iter().any(|(_, e)| matches!(
            e,
            ProtoEvent::RingMerged {
                node: NodeId(2),
                ..
            }
        )));
        // Its walker (walker 2) resumed strictly monotone delivery after
        // the heal and kept going to the end of the run.
        let w2: Vec<(SimTime, u64)> = report
            .journal
            .iter()
            .filter_map(|(t, e)| match e {
                ProtoEvent::MhDeliver {
                    mh: ringnet_core::Guid(2),
                    gsn,
                    ..
                } => Some((*t, gsn.0)),
                _ => None,
            })
            .collect();
        assert!(
            w2.windows(2).all(|w| w[0].1 < w[1].1),
            "walker 2 delivered strictly in order across the partition"
        );
        let last = w2.last().expect("walker 2 delivered").0;
        assert!(
            last > SimTime::from_secs(7),
            "walker 2 delivering again after the merge (last at {last})"
        );
        // And no GSN ever meant two different messages group-wide.
        let mut meaning = std::collections::BTreeMap::new();
        for (_, e) in &report.journal {
            if let ProtoEvent::MhDeliver {
                gsn,
                source,
                local_seq,
                ..
            } = e
            {
                if let Some(prev) = meaning.insert(gsn.0, (*source, *local_seq)) {
                    assert_eq!(prev, (*source, *local_seq), "forked gsn {}", gsn.0);
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(journal(4, 1, 2, 9), journal(4, 1, 2, 9));
    }
}
