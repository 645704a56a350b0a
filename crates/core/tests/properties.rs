//! Randomized property tests of protocol-level invariants: ring navigation
//! under arbitrary failure patterns, token instance ordering, and
//! whole-network total order under randomized loss and traffic. Cases are
//! drawn from seeded [`SimRng`] streams — reproducible, dependency-free.

use ringnet_core::hierarchy::{LinkPlan, TrafficPattern};
use ringnet_core::node::RingState;
use ringnet_core::{GroupId, HierarchyBuilder, NodeId, OrderingToken, ProtoEvent, RingNetSim};
use simnet::{LinkProfile, SimDuration, SimRng, SimTime};

/// Ring navigation stays consistent under any failure subset that
/// leaves the owner alive: next/prev are inverse, the leader is the
/// minimum alive id, and iterating `next` visits every alive member.
#[test]
fn ring_navigation_consistent() {
    let mut rng = SimRng::from_seed(0xC1);
    for case in 0..64 {
        let n = rng.range_u64(2, 12) as usize;
        let dead_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let me = NodeId(0);
        let mut ring = RingState::new(order.clone(), me, true);
        for (i, &d) in dead_mask.iter().enumerate() {
            if d && i != 0 {
                ring.mark_dead(NodeId(i as u32));
            }
        }
        let alive: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&x| ring.is_in_ring(x))
            .collect();
        assert_eq!(ring.leader(), alive[0], "case {case}: leader = min alive");
        // next/prev inverse on every alive member.
        for &a in &alive {
            let nx = ring.next_of(a);
            assert!(ring.is_in_ring(nx), "case {case}");
            assert_eq!(ring.prev_of(nx), a, "case {case}: prev(next(a)) == a");
        }
        // Iterating next from me visits all alive members exactly once.
        let mut seen = vec![me];
        let mut cur = ring.next_of(me);
        while cur != me {
            assert!(
                !seen.contains(&cur),
                "case {case}: cycle visits a member twice"
            );
            seen.push(cur);
            cur = ring.next_of(cur);
        }
        seen.sort_unstable();
        let mut alive_sorted = alive.clone();
        alive_sorted.sort_unstable();
        assert_eq!(seen, alive_sorted, "case {case}");
    }
}

/// The Multiple-Token keep-one relation is a strict weak order: at most
/// one of `a wins b` / `b wins a`, and transitivity holds across trios.
#[test]
fn token_instance_order_consistent() {
    let mut rng = SimRng::from_seed(0xC2);
    for _case in 0..64 {
        let count = rng.range_u64(3, 10) as usize;
        let tokens: Vec<OrderingToken> = (0..count)
            .map(|_| {
                let epoch = rng.range_u64(0, 8) as u32;
                let origin = rng.range_u64(0, 8) as u32;
                let mut t = OrderingToken::new(GroupId(1), NodeId(origin));
                t.epoch = ringnet_core::Epoch(epoch);
                t
            })
            .collect();
        let wins = |a: &OrderingToken, b: &OrderingToken| a.instance() > b.instance();
        for a in &tokens {
            for b in &tokens {
                assert!(!(wins(a, b) && wins(b, a)));
            }
        }
        for a in &tokens {
            for b in &tokens {
                for c in &tokens {
                    if wins(a, b) && wins(b, c) {
                        assert!(wins(a, c), "transitivity");
                    }
                }
            }
        }
    }
}

/// Whole-network invariant under randomized wireless loss, rates and
/// seeds: no MH ever observes a total-order violation, and global
/// sequence numbers are never assigned twice.
#[test]
fn total_order_never_violated() {
    let mut rng = SimRng::from_seed(0xC3);
    for case in 0..8 {
        let seed = rng.range_u64(0, 10_000);
        let loss_pct = rng.range_u64(0, 30);
        let interval_ms = rng.range_u64(5, 25);
        let spec = HierarchyBuilder::new(GroupId(1))
            .brs(3)
            .ag_rings(2, 2)
            .aps_per_ag(1)
            .mhs_per_ap(1)
            .sources(2)
            .source_pattern(TrafficPattern::Cbr {
                interval: SimDuration::from_millis(interval_ms),
            })
            .source_limit(40)
            .links(LinkPlan {
                wireless: LinkProfile::wireless(
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(2),
                    loss_pct as f64 / 100.0,
                ),
                ..LinkPlan::default()
            })
            .build();
        let mut net = RingNetSim::build(spec, seed);
        net.run_until(SimTime::from_secs(4));
        let (journal, _) = net.finish();
        // Per-MH strict monotonicity.
        let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver { mh, gsn, .. } = e {
                let prev = last.insert(mh.0, gsn.0);
                assert!(
                    prev.is_none_or(|p| p < gsn.0),
                    "case {case}: order violated at mh{}",
                    mh.0
                );
            }
        }
        // Unique assignment.
        let mut gsns: Vec<u64> = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::Ordered { gsn, .. } => Some(gsn.0),
                _ => None,
            })
            .collect();
        let n = gsns.len();
        gsns.sort_unstable();
        gsns.dedup();
        assert_eq!(
            gsns.len(),
            n,
            "case {case}: duplicate global sequence numbers"
        );
        assert_eq!(n, 80, "case {case}: all 80 messages ordered exactly once");
    }
}

/// Epoch-fenced partition survival: across randomized top-ring
/// partition→heal windows, no message is ever assigned two GSNs and no
/// GSN ever names two messages — the ring-epoch fence keeps the minority
/// side from forking the sequence space, and the merged member's queued
/// submissions are assigned exactly once in the merged epoch.
#[test]
fn partition_heal_never_double_assigns() {
    use ringnet_core::driver::{MulticastSim, ScenarioBuilder, ScenarioEvent};
    let mut rng = SimRng::from_seed(0x9A27);
    for case in 0..12 {
        let down = SimTime::from_millis(1_500 + rng.range_u64(0, 1_000));
        let heal = down + SimDuration::from_millis(400 + rng.range_u64(0, 1_500));
        let mut sc = ScenarioBuilder::new()
            .attachments(4)
            .walkers_per_attachment(1)
            .sources(1)
            .cbr(SimDuration::from_millis(5 + rng.range_u64(0, 10)))
            .loss_free_wireless()
            .duration(SimTime::from_secs(7))
            .build();
        sc.events = vec![
            ScenarioEvent::PartitionRing {
                at: down,
                isolate: 1,
            },
            ScenarioEvent::HealRing {
                at: heal,
                isolate: 1,
            },
        ];
        let seed = rng.range_u64(0, u64::MAX - 1);
        let report = RingNetSim::run_scenario(&sc, seed);
        assert_eq!(report.metrics.order_violations, 0, "case {case}");
        let mut by_gsn: std::collections::BTreeMap<u64, (u32, u64)> = Default::default();
        let mut by_msg: std::collections::BTreeMap<(u32, u64), u64> = Default::default();
        for (_, e) in &report.journal {
            if let ProtoEvent::Ordered {
                gsn,
                source,
                local_seq,
                ..
            } = e
            {
                let msg = (source.0, local_seq.0);
                if let Some(prev) = by_gsn.insert(gsn.0, msg) {
                    assert_eq!(
                        prev, msg,
                        "case {case} (seed {seed}): gsn {} names two messages",
                        gsn.0
                    );
                }
                if let Some(prev_gsn) = by_msg.insert(msg, gsn.0) {
                    assert_eq!(
                        prev_gsn, gsn.0,
                        "case {case} (seed {seed}): message {msg:?} assigned two GSNs"
                    );
                }
            }
        }
        // The run actually ordered traffic on both sides of the window.
        let last = report
            .journal
            .iter()
            .filter_map(|(t, e)| matches!(e, ProtoEvent::Ordered { .. }).then_some(*t))
            .max()
            .expect("ordered something");
        assert!(last > heal, "case {case}: ordering resumed after the heal");
    }
}
