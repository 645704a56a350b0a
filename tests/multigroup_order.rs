//! Multi-group ordering properties, checked directly at the delivery
//! journal (the chaos auditor covers the same ground statistically over
//! random worlds; this file is the deterministic, named-world proof):
//!
//! * **Pairwise order agreement** — any two messages sharing ≥ 2 groups
//!   deliver in the same relative order at every common subscriber. The
//!   check is the strongest form: *every* pair of per-(walker, group)
//!   delivery streams must agree on the relative order of their common
//!   messages, across walkers, across groups, and across the two ring
//!   backends' independent runs of the same world.
//! * **Degenerate declarations are free** — a single-group world written
//!   through the multi-group surface (explicit one-element group list,
//!   subscription sets, source group sets) produces a byte-identical
//!   journal to the classic implicit form, on every backend.
//! * **Ring scaling at fixed offered load** — splitting the same traffic
//!   across more disjoint rings lifts a saturated single ring, plateaus
//!   once two rings carry the load, and costs at most 5 % more wire
//!   packets per delivery at 8 rings than at 2.

use std::collections::BTreeMap;

use ringnet_repro::baselines::{FlatRingSim, RelmSim, TreeSim, TunnelSim, UnorderedSim};
use ringnet_repro::core::driver::{MulticastSim, Scenario, ScenarioBuilder};
use ringnet_repro::core::RingNetSim;
use ringnet_repro::core::{GroupId, LocalSeq, NodeId, ProtoEvent};
use ringnet_repro::simnet::{SimDuration, SimTime};

/// A 3-group world saturated with overlap: four sources whose fixed
/// target sets cover every group pair (and the full set), eight walkers
/// whose subscriptions cover singletons, pairs and the full set.
fn overlapping_scenario() -> Scenario {
    let g = |n: u32| GroupId(n);
    ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(2)
        .sources(4)
        .cbr(SimDuration::from_millis(20))
        .window(SimTime::from_millis(200), None)
        .message_limit(12)
        .loss_free_wireless()
        .duration(SimTime::from_secs(4))
        .groups(vec![g(2), g(3)])
        .source_groups(vec![
            vec![g(1), g(2)],
            vec![g(2), g(3)],
            vec![g(1), g(2), g(3)],
            vec![g(3)],
        ])
        .subscriptions(vec![
            vec![g(1)],
            vec![g(2)],
            vec![g(3)],
            vec![g(1), g(2)],
            vec![g(2), g(3)],
            vec![g(1), g(3)],
            vec![g(1), g(2), g(3)],
            vec![g(2)],
        ])
        .build()
}

/// Per-(walker, group) delivery streams in journal order, keyed by the
/// message's journal identity `(source, local_seq)`.
type Streams = BTreeMap<(u32, u32), Vec<(NodeId, LocalSeq)>>;

fn delivery_streams(journal: &[(SimTime, ProtoEvent)]) -> Streams {
    let mut streams: Streams = BTreeMap::new();
    for (_, e) in journal {
        if let ProtoEvent::MhDeliver {
            group,
            mh,
            source,
            local_seq,
            ..
        } = e
        {
            streams
                .entry((mh.0, group.0))
                .or_default()
                .push((*source, *local_seq));
        }
    }
    streams
}

/// Assert every pair of streams agrees on the relative order of its
/// common messages: sort the common set by its position in stream `a`,
/// then the positions in stream `b` must strictly increase.
fn assert_pairwise_agreement(streams: &Streams, label: &str) {
    let keys: Vec<&(u32, u32)> = streams.keys().collect();
    for (i, ka) in keys.iter().enumerate() {
        let pos_a: BTreeMap<&(NodeId, LocalSeq), usize> = streams[ka]
            .iter()
            .enumerate()
            .map(|(idx, m)| (m, idx))
            .collect();
        for kb in &keys[i + 1..] {
            let mut common: Vec<(usize, usize)> = streams[kb]
                .iter()
                .enumerate()
                .filter_map(|(idx_b, m)| pos_a.get(m).map(|idx_a| (*idx_a, idx_b)))
                .collect();
            common.sort_unstable();
            for w in common.windows(2) {
                assert!(
                    w[0].1 < w[1].1,
                    "{label}: streams {ka:?} and {kb:?} disagree on the \
                     relative order of their common messages ({w:?})"
                );
            }
        }
    }
}

#[test]
fn shared_group_messages_agree_at_every_common_subscriber() {
    let sc = overlapping_scenario();
    for seed in [1u64, 7, 42, 99, 123] {
        for (name, journal) in [
            ("ringnet", RingNetSim::run_scenario(&sc, seed).journal),
            ("flat_ring", FlatRingSim::run_scenario(&sc, seed).journal),
        ] {
            let streams = delivery_streams(&journal);
            // The world actually exercises the fence: some walker
            // received the same message through two different rings.
            let mut groups_of: BTreeMap<(u32, NodeId, LocalSeq), u32> = BTreeMap::new();
            for ((w, _), msgs) in &streams {
                for m in msgs {
                    *groups_of.entry((*w, m.0, m.1)).or_default() += 1;
                }
            }
            let multi = groups_of.values().filter(|n| **n >= 2).count();
            assert!(
                multi > 0,
                "{name}/{seed}: no message reached a walker via two rings"
            );
            assert!(
                streams.len() >= 8,
                "{name}/{seed}: only {} delivery streams",
                streams.len()
            );
            assert_pairwise_agreement(&streams, &format!("{name}/{seed}"));
        }
    }
}

#[test]
fn multigroup_runs_are_deterministic() {
    let sc = overlapping_scenario();
    let a = RingNetSim::run_scenario(&sc, 42);
    let b = RingNetSim::run_scenario(&sc, 42);
    assert_eq!(a.journal, b.journal, "same seed, same multi-group journal");
    let fa = FlatRingSim::run_scenario(&sc, 42);
    let fb = FlatRingSim::run_scenario(&sc, 42);
    assert_eq!(fa.journal, fb.journal);
}

#[test]
fn degenerate_multigroup_surface_is_byte_identical_to_classic() {
    let classic = ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(2)
        .cbr(SimDuration::from_millis(20))
        .window(SimTime::from_millis(200), None)
        .message_limit(10)
        .loss_free_wireless()
        .duration(SimTime::from_secs(3))
        .build();
    // The same world spelled through the multi-group surface: the
    // primary group declared redundantly, every walker subscribed to it
    // explicitly, every source addressed to it explicitly.
    let g = classic.group;
    let mut explicit = classic.clone();
    explicit.groups = vec![g];
    explicit.subscriptions = vec![vec![g]; explicit.walkers.len()];
    explicit.source_groups = vec![vec![g]; explicit.sources];
    assert!(explicit.validate().is_empty(), "{:?}", explicit.validate());

    macro_rules! check {
        ($sim:ty, $name:expr) => {
            let a = <$sim>::run_scenario(&classic, 7);
            let b = <$sim>::run_scenario(&explicit, 7);
            assert_eq!(
                a.journal, b.journal,
                "{}: degenerate multi-group journal diverged",
                $name
            );
        };
    }
    check!(RingNetSim, "ringnet");
    check!(FlatRingSim, "flat_ring");
    check!(TreeSim, "tree");
    check!(RelmSim, "relm");
    check!(TunnelSim, "tunnel");
    check!(UnorderedSim, "unordered");
}

/// The same aggregate offered load (8 CBR sources × 500 msg/s) split
/// across `rings` disjoint per-group token rings. Sources round-robin onto
/// the declared groups and every walker subscribes to every group, so the
/// potential delivery set is the same at every ring count; `mq_capacity`
/// is shrunk to 128 so a single ring's delivery pipeline saturates.
fn ring_split_scenario(rings: u32) -> Scenario {
    let mut sc = ScenarioBuilder::new()
        .attachments(8)
        .walkers_per_attachment(1)
        .sources(8)
        .cbr(SimDuration::from_millis(2))
        .loss_free_wireless()
        .duration(SimTime::from_secs(2))
        .groups((1..=rings).map(GroupId).collect())
        .build();
    sc.cfg.mq_capacity = 128;
    sc.cfg = sc.cfg.quiet();
    sc.retain_journal = false;
    sc
}

/// Deliveries and wire packets in the two simulated seconds: counts, not
/// clocks, so they are asserted here rather than timed in a bench. At
/// seed 7 the rings deliver 4 800 / 62 080 / 62 560 / 62 560 (R = 1 / 2 /
/// 4 / 8: R4 is 13.0× R1, R8 is 1.008× R2) at 3.3626 / 3.4376 wire
/// packets per delivery for R = 2 / 8 (1.022×).
#[test]
fn splitting_load_across_rings_scales_then_plateaus() {
    let mut delivered = BTreeMap::new();
    let mut per_delivery = BTreeMap::new();
    for rings in [1u32, 2, 4, 8] {
        let rep = RingNetSim::run_scenario(&ring_split_scenario(rings), 7);
        let d = rep.metrics.delivered;
        assert!(d > 0, "{rings} ring(s) delivered nothing");
        delivered.insert(rings, d);
        per_delivery.insert(rings, rep.stats.packets_sent as f64 / d as f64);
    }
    assert!(
        delivered[&4] >= 3 * delivered[&1],
        "4 rings must deliver ≥ 3× a saturated single ring (got {} vs {})",
        delivered[&4],
        delivered[&1]
    );
    assert!(
        (delivered[&8] as f64) < 1.1 * delivered[&2] as f64,
        "8 rings must deliver within 10% of 2 rings (got {} vs {})",
        delivered[&8],
        delivered[&2]
    );
    assert!(
        per_delivery[&8] <= 1.05 * per_delivery[&2],
        "wire packets per delivery at 8 rings must stay within 5% of 2 rings \
         (got {:.4} vs {:.4})",
        per_delivery[&8],
        per_delivery[&2]
    );
}
