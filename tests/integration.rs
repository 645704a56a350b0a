//! Cross-crate integration tests: whole-system properties that span the
//! simulator, the protocol, mobility and the baselines — driven through
//! the protocol-generic `Scenario` facade wherever a scenario can express
//! the setup (spec-level engine details keep their direct tests).

use ringnet_repro::core::driver::{
    ringnet_spec, CoreShape, MulticastSim, ScenarioBuilder, ScenarioEvent,
};
use ringnet_repro::core::{GroupId, Guid, NodeId, ProtoEvent, RingNetSim, TrafficPattern};
use ringnet_repro::harness::metrics;
use ringnet_repro::harness::scenario::mobile_scenario;
use ringnet_repro::mobility::{self, CellGrid, RandomWaypoint};
use ringnet_repro::simnet::{SimDuration, SimRng, SimTime};

/// The headline guarantee: every MH delivers a subsequence of the same
/// total order, complete when nothing is lost.
#[test]
fn total_order_complete_delivery_on_figure1() {
    let scenario = ScenarioBuilder::figure1(GroupId(1))
        .cbr(SimDuration::from_millis(10))
        .message_limit(150)
        .loss_free_wireless()
        .duration(SimTime::from_secs(5))
        .build();
    let report = RingNetSim::run_scenario(&scenario, 1234);
    let per = metrics::deliveries_per_mh(&report.journal);
    assert_eq!(per.len(), 9);
    for (mh, seq) in &per {
        let gsns: Vec<u64> = seq.iter().map(|(_, g)| g.0).collect();
        assert_eq!(gsns, (1..=150).collect::<Vec<_>>(), "{mh} incomplete");
    }
    assert_eq!(report.metrics.order_violations, 0);
    assert!(metrics::pairwise_agreement(&report.journal));
}

/// Multiple sources: global numbers interleave across sources but stay
/// unique, and every MH sees the identical interleaving.
#[test]
fn multi_source_interleaving_is_identical_everywhere() {
    let scenario = ScenarioBuilder::new()
        .attachments(6)
        .walkers_per_attachment(1)
        .sources(4)
        .cbr(SimDuration::from_millis(7))
        .message_limit(60)
        .loss_free_wireless()
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings: 2,
            ags_per_ring: 3,
        })
        .duration(SimTime::from_secs(6))
        .build();
    let report = RingNetSim::run_scenario(&scenario, 77);
    let mut by_mh: std::collections::BTreeMap<u32, Vec<(u32, u64, u64)>> = Default::default();
    for (_, e) in &report.journal {
        if let ProtoEvent::MhDeliver {
            mh,
            gsn,
            source,
            local_seq,
            ..
        } = e
        {
            by_mh
                .entry(mh.0)
                .or_default()
                .push((source.0, local_seq.0, gsn.0));
        }
    }
    let first = by_mh.values().next().unwrap().clone();
    assert_eq!(first.len(), 240, "4 sources × 60 messages");
    for (mh, seq) in &by_mh {
        assert_eq!(seq, &first, "mh{mh} saw a different interleaving");
    }
    // Per-source FIFO preserved inside the total order.
    for src in 0..4u32 {
        let ls_seq: Vec<u64> = first
            .iter()
            .filter(|(s, _, _)| *s == src)
            .map(|(_, ls, _)| *ls)
            .collect();
        assert_eq!(
            ls_seq,
            (1..=60).collect::<Vec<_>>(),
            "source {src} not FIFO"
        );
    }
}

/// Determinism across the whole stack: identical seeds give identical
/// journals; different seeds differ.
#[test]
fn full_stack_determinism() {
    let scenario = ScenarioBuilder::figure1(GroupId(1))
        .poisson(80.0)
        .message_limit(60)
        .duration(SimTime::from_secs(3))
        .build();
    let run = |seed: u64| RingNetSim::run_scenario(&scenario, seed).journal;
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// Random waypoint mobility with reservations: no order violations, high
/// delivery ratio, and all handoffs registered.
#[test]
fn mobility_scenario_preserves_order() {
    let grid = CellGrid::new(3, 3, 120.0);
    let mut rng = SimRng::from_seed(42);
    let mut walkers: Vec<RandomWaypoint> = (0..5)
        .map(|_| RandomWaypoint::new(360.0, 360.0, (15.0, 30.0), 0.2, &mut rng))
        .collect();
    let duration = SimTime::from_secs(8);
    let trace = mobility::generate(
        &mut walkers,
        &grid,
        duration.saturating_since(SimTime::ZERO),
        SimDuration::from_millis(100),
        &mut rng,
    );
    assert!(!trace.events.is_empty(), "walkers must hand off");
    let scenario = mobile_scenario(&grid, &trace)
        .cbr(SimDuration::from_millis(10))
        .duration(duration)
        .build();
    let report = RingNetSim::run_scenario(&scenario, 3);
    assert_eq!(report.metrics.order_violations, 0);
    assert!(report.metrics.handoffs as usize >= trace.events.len() / 2);
    assert!(
        report.metrics.delivery_ratio() > 0.95,
        "ratio {}",
        report.metrics.delivery_ratio()
    );
}

/// Failure of an interior AG: its APs fail over to the backup parent and
/// delivery continues. The AG is addressed through the scenario's
/// wired-core index space (BRs first, then AGs).
#[test]
fn ag_failure_fails_over_to_backup_parent() {
    let scenario = ScenarioBuilder::new()
        .attachments(3)
        .walkers_per_attachment(1)
        .sources(1)
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .shape(CoreShape::Hierarchy {
            brs: 2,
            rings: 1,
            ags_per_ring: 3,
        })
        // Core index 2 = first AG (after the two BRs).
        .event(ScenarioEvent::KillCore {
            at: SimTime::from_secs(2),
            index: 2,
        })
        .duration(SimTime::from_secs(8))
        .build();
    let report = RingNetSim::run_scenario(&scenario, 8);
    // The orphaned AP re-grafted somewhere after the failure.
    let regraft = report
        .journal
        .iter()
        .any(|(t, e)| *t > SimTime::from_secs(2) && matches!(e, ProtoEvent::Grafted { .. }));
    assert!(regraft, "no re-graft after AG failure");
    // Deliveries continue well past the failure.
    let last_delivery = report
        .journal
        .iter()
        .filter_map(|(t, e)| matches!(e, ProtoEvent::MhDeliver { .. }).then_some(*t))
        .max()
        .unwrap();
    assert!(
        last_delivery > SimTime::from_secs(7),
        "delivery stalled at {last_delivery}"
    );
    assert_eq!(report.metrics.order_violations, 0);
}

/// Late joiners skip history: a join at t=2s must not deliver messages
/// ordered long before the join.
#[test]
fn late_joiner_skips_history() {
    let scenario = ScenarioBuilder::new()
        .attachments(2)
        .walkers(vec![Some(0), Some(1), None])
        .sources(1)
        .cbr(SimDuration::from_millis(10))
        .shape(CoreShape::Hierarchy {
            brs: 2,
            rings: 1,
            ags_per_ring: 2,
        })
        .event(ScenarioEvent::Join {
            at: SimTime::from_secs(2),
            walker: 2,
            at_ap: 0,
        })
        .duration(SimTime::from_secs(4))
        .build();
    let report = RingNetSim::run_scenario(&scenario, 9);
    let per = metrics::deliveries_per_mh(&report.journal);
    let late = per.get(&Guid(2)).expect("late joiner delivered");
    // ~100 msg/s: by t=2s about 200 messages have passed; the joiner must
    // start near there, not at 1.
    let first = late.first().unwrap().1 .0;
    assert!(first > 150, "late joiner started at gs{first}");
    assert_eq!(report.metrics.order_violations, 0);
}

/// The engine refuses structurally invalid specs (spec-level test; the
/// scenario layer has its own validation, exercised in driver tests).
#[test]
#[should_panic(expected = "invalid spec")]
fn invalid_spec_is_rejected() {
    let sc = ScenarioBuilder::figure1(GroupId(1)).build();
    let mut spec = ringnet_spec(&sc);
    spec.sources
        .push(ringnet_repro::core::hierarchy::SourceSpec {
            corresponding: NodeId(9999),
            pattern: TrafficPattern::Cbr {
                interval: SimDuration::from_millis(10),
            },
            start: SimTime::ZERO,
            stop: None,
            limit: None,
            groups: Vec::new(),
        });
    let _ = RingNetSim::for_scenario(spec, &sc, 1, 1);
}

/// Heavy churn torture: ping-pong handoffs while a BR dies — order still
/// holds, duplicates are bounded by handoff replays only.
#[test]
fn churn_plus_failure_torture() {
    let grid = CellGrid::new(4, 1, 100.0);
    let trace = mobility::ping_pong(
        3,
        &grid,
        SimDuration::from_millis(700),
        SimDuration::from_secs(6),
    );
    let scenario = mobile_scenario(&grid, &trace)
        .cbr(SimDuration::from_millis(10))
        // Core index 1 = the second top-ring BR.
        .event(ScenarioEvent::KillCore {
            at: SimTime::from_secs(3),
            index: 1,
        })
        .duration(SimTime::from_secs(8))
        .build();
    let report = RingNetSim::run_scenario(&scenario, 11);
    assert_eq!(report.metrics.order_violations, 0);
    assert!(metrics::pairwise_agreement(&report.journal));
    assert!(
        report.metrics.delivered > 500,
        "delivered {}",
        report.metrics.delivered
    );
}
