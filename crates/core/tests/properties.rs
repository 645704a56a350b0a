//! Randomized property tests of protocol-level invariants: ring navigation
//! under arbitrary failure patterns, token instance ordering, and
//! whole-network total order under randomized loss and traffic. Cases are
//! drawn from seeded [`SimRng`] streams — reproducible, dependency-free.

use ringnet_core::driver::{ringnet_spec, CoreShape, MulticastSim, ScenarioBuilder};
use ringnet_core::hierarchy::{LinkPlan, TrafficPattern};
use ringnet_core::node::RingState;
use ringnet_core::{GroupId, NodeId, OrderingToken, ProtoEvent, RingNetSim};
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
        let sc = ScenarioBuilder::new()
            .attachments(4)
            .shape(CoreShape::Hierarchy {
                brs: 3,
                rings: 2,
                ags_per_ring: 2,
            })
            .sources(2)
            .cbr(SimDuration::from_millis(interval_ms))
            .message_limit(40)
            .wireless(LinkProfile::wireless(
                SimDuration::from_millis(2),
                SimDuration::from_millis(2),
                loss_pct as f64 / 100.0,
            ))
            .build();
        let mut net = RingNetSim::build(&sc, seed);
        net.run_until(SimTime::from_secs(4));
        let journal = net.finish().journal;
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
    use ringnet_core::driver::ScenarioEvent;
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

/// FNV-1a over a rendered string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every regular hierarchy the workspace lays out, named by the call site
/// that lays it out. A sweep contributes each of its points, in sweep
/// order.
fn spec_layouts() -> Vec<(&'static str, Vec<ringnet_core::HierarchySpec>)> {
    use ringnet_core::ProtocolConfig;
    use simnet::{LatencyModel, LossModel};

    const G: GroupId = GroupId(1);
    let layout = |b: ScenarioBuilder| ringnet_spec(&b.build());
    let regular = |brs, rings, ags_per_ring, aps_per_ag, walkers, sources| {
        ScenarioBuilder::new()
            .attachments(rings * ags_per_ring * aps_per_ag)
            .walkers_per_attachment(walkers)
            .sources(sources)
            .shape(CoreShape::Hierarchy {
                brs,
                rings,
                ags_per_ring,
            })
    };
    let cbr = |ms| TrafficPattern::Cbr {
        interval: SimDuration::from_millis(ms),
    };
    let wireless = |profile| LinkPlan {
        wireless: profile,
        ..LinkPlan::default()
    };
    let loss_free = || wireless(LinkProfile::wired(SimDuration::from_millis(2)));
    let jittered = |loss| LinkProfile {
        latency: LatencyModel::Jittered {
            base: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(2),
        },
        loss,
    };

    let t2 = [2, 4, 8].map(|r| {
        layout(
            regular(r, 2, 2, 1, 1, 2.min(r))
                .pattern(TrafficPattern::Cbr {
                    interval: SimDuration::from_secs_f64(1.0 / 100.0),
                })
                .links(loss_free()),
        )
    });
    let t3 = [100.0, 500.0, 1000.0].map(|lambda: f64| {
        layout(
            regular(4, 2, 2, 1, 1, 2)
                .pattern(TrafficPattern::Cbr {
                    interval: SimDuration::from_secs_f64(1.0 / lambda),
                })
                .links(loss_free()),
        )
    });
    let e3 = layout(
        regular(4, 2, 2, 1, 1, 2)
            .pattern(cbr(10))
            .links(loss_free()),
    );
    let mut e5 = Vec::new();
    for secs in [3, 8] {
        for loss in [0.0, 0.05, 0.1, 0.2, 0.3] {
            for budget in [0, 5] {
                let duration = SimTime::from_secs(secs);
                e5.push(layout(
                    regular(3, 2, 2, 1, 1, 2)
                        .pattern(cbr(10))
                        .window(SimTime::ZERO, Some(duration - SimDuration::from_secs(1)))
                        .config(ProtocolConfig::default().with_nack_budget(budget))
                        .links(wireless(LinkProfile::wireless(
                            SimDuration::from_millis(2),
                            SimDuration::from_millis(1),
                            loss,
                        ))),
                ));
            }
        }
    }
    // A1's full sweep named ack_every = 16, which `ProtocolConfig::validate`
    // rejects (16 × HOP_TICK > HEARTBEAT_PERIOD): the setting goes in after
    // the layout so that point keeps its pinned digest.
    let a1 = [1, 4, 8, 16].map(|ack_every| {
        let mut spec = layout(regular(4, 2, 2, 1, 1, 2).pattern(cbr(5)).links(loss_free()));
        spec.cfg.ack_every = ack_every;
        spec
    });
    let mut rng = SimRng::from_seed(0xC3);
    let random_loss: Vec<_> = (0..8)
        .map(|_| {
            let _seed = rng.range_u64(0, 10_000);
            let loss_pct = rng.range_u64(0, 30);
            let interval_ms = rng.range_u64(5, 25);
            layout(
                regular(3, 2, 2, 1, 1, 2)
                    .pattern(cbr(interval_ms))
                    .message_limit(40)
                    .links(wireless(LinkProfile::wireless(
                        SimDuration::from_millis(2),
                        SimDuration::from_millis(2),
                        loss_pct as f64 / 100.0,
                    ))),
            )
        })
        .collect();
    let unrunnable = [cbr(0), TrafficPattern::Poisson { rate: f64::NAN }].map(|pattern| {
        let mut spec = layout(ScenarioBuilder::figure1(G));
        spec.sources[0].pattern = pattern;
        spec
    });
    let reservation = layout(
        regular(2, 1, 2, 2, 1, 1)
            .walkers(vec![Some(1)])
            .pattern(cbr(20))
            .aps_always_active(false)
            .config(ProtocolConfig::default().with_reservation_radius(1)),
    );
    let idle = [1, 2].map(|walkers| {
        let mut spec = layout(
            regular(2, 1, 2, 2, walkers, 1)
                .config(ProtocolConfig::default().with_reservation_radius(0))
                .links(wireless(LinkProfile::wired(SimDuration::from_millis(5)))),
        );
        spec.sources.clear();
        spec
    });
    let hierarchy = |brs, rings, ags_per_ring| CoreShape::Hierarchy {
        brs,
        rings,
        ags_per_ring,
    };

    vec![
        ("harness t2::measure, r = 2, 4, 8", t2.to_vec()),
        ("harness t3::run, λ = 100, 500, 1000", t3.to_vec()),
        ("harness e3::measure", vec![e3]),
        ("harness e5::measure, (quick, loss, budget)", e5),
        ("harness a1::measure, ack_every = 1, 4, 8, 16", a1.to_vec()),
        (
            "figure1: harness f1, tests/integration.rs invalid_spec_is_rejected, \
             hierarchy.rs tests (also the builder defaults)",
            vec![layout(ScenarioBuilder::figure1(G))],
        ),
        (
            "src/lib.rs doctest",
            vec![layout(
                ScenarioBuilder::figure1(G)
                    .pattern(cbr(20))
                    .message_limit(10),
            )],
        ),
        (
            "engine.rs tests::small_spec",
            vec![layout(
                regular(3, 2, 2, 1, 1, 2).pattern(cbr(20)).message_limit(10),
            )],
        ),
        (
            "hierarchy.rs tests::builder_produces_valid_spec",
            vec![layout(regular(4, 3, 3, 2, 2, 2))],
        ),
        (
            "hierarchy.rs tests::entities_run_tier_by_tier_and_wiring_draws_the_link_plan",
            vec![layout(regular(2, 2, 2, 1, 1, 1))],
        ),
        (
            "hierarchy.rs tests::validation_rejects_unrunnable_traffic",
            unrunnable.to_vec(),
        ),
        (
            "hierarchy.rs tests::neighbours_form_a_chain",
            vec![layout(regular(4, 1, 2, 2, 1, 1))],
        ),
        ("properties.rs total_order_never_violated", random_loss),
        (
            "engine_scenarios.rs poisson_traffic_is_fully_ordered_and_delivered",
            vec![layout(
                regular(3, 1, 3, 1, 1, 3)
                    .pattern(TrafficPattern::Poisson { rate: 120.0 })
                    .window(SimTime::ZERO, Some(SimTime::from_secs(2)))
                    .links(loss_free()),
            )],
        ),
        (
            "engine_scenarios.rs ap_failure_orphans_then_handoff_rescues",
            vec![layout(regular(2, 1, 2, 2, 1, 1).pattern(cbr(10)))],
        ),
        (
            "engine_scenarios.rs bursty_channel_with_budget_keeps_ratio_high",
            vec![layout(
                regular(2, 1, 2, 1, 2, 1)
                    .pattern(cbr(10))
                    .window(SimTime::ZERO, Some(SimTime::from_secs(3)))
                    .links(wireless(jittered(LossModel::lossy_wireless()))),
            )],
        ),
        (
            "engine_scenarios.rs a_lost_last_message_is_never_repaired",
            vec![layout(
                regular(2, 1, 2, 1, 2, 1)
                    .pattern(cbr(10))
                    .message_limit(10)
                    .links(wireless(jittered(LossModel::Bernoulli(0.2)))),
            )],
        ),
        (
            "engine_scenarios.rs quiet_world_fires_two_timer_chains_per_ne_and_one_ack_wake_per_mh",
            vec![layout(
                ScenarioBuilder::figure1(G)
                    .config(ProtocolConfig::default().quiet())
                    .message_limit(5)
                    .links(loss_free()),
            )],
        ),
        (
            "engine_scenarios.rs reservation_expires_and_ap_prunes_itself",
            vec![reservation],
        ),
        (
            "engine_scenarios.rs killing_an_mh_stops_its_acks_and_frees_it",
            vec![layout(regular(2, 1, 2, 1, 2, 1).pattern(cbr(10)))],
        ),
        (
            "engine_scenarios.rs idle_mhs_are_kept_alive_by_their_acks_alone, 1 and 2 MHs per AP",
            idle.to_vec(),
        ),
        (
            "engine_scenarios.rs an_amnesiac_ap_relearns_its_mhs_within_a_wireless_round_trip",
            vec![layout(regular(2, 1, 2, 1, 2, 1).pattern(cbr(10)).links(
                wireless(LinkProfile::wired(SimDuration::from_millis(1))),
            ))],
        ),
        (
            "engine_scenarios.rs station_shaped_spec_delivers_in_order (before the edit)",
            vec![layout(
                ScenarioBuilder::figure1(G)
                    .sources(2)
                    .pattern(cbr(20))
                    .message_limit(20),
            )],
        ),
        (
            "engine_scenarios.rs ring_cut_at_a_heartbeat_tick_is_repaired_on_the_probe_schedule",
            vec![layout(regular(2, 2, 1, 1, 1, 1).pattern(cbr(10)))],
        ),
        (
            "engine_scenarios.rs zero_mh_network_runs_clean",
            vec![layout(
                regular(2, 1, 2, 1, 0, 2).pattern(cbr(10)).message_limit(50),
            )],
        ),
        (
            "engine_scenarios.rs lost_frame_of_cumulative_acks_is_repaired_by_the_next_frame",
            vec![layout(
                regular(4, 1, 1, 1, 1, 4)
                    .groups((1..=4).map(GroupId).collect())
                    .pattern(cbr(10))
                    .window(SimTime::ZERO, Some(SimTime::from_millis(1500)))
                    .links(loss_free()),
            )],
        ),
        (
            "engine_scenarios.rs figure1_latency_is_token_wait_plus_link_delays_exactly",
            vec![layout(
                regular(4, 3, 3, 1, 1, 1)
                    .pattern(cbr(7))
                    .window(SimTime::ZERO, Some(SimTime::from_millis(1500)))
                    .links(LinkPlan {
                        top_ring: LinkProfile::wired(SimDuration::from_millis(3)),
                        ..loss_free()
                    }),
            )],
        ),
        (
            "driver ringnet_spec: ScenarioBuilder::figure1 (quickstart, README, integration)",
            vec![layout(ScenarioBuilder::figure1(G))],
        ),
        (
            "driver ringnet_spec: CoreShape::Hierarchy (E1, E4, E8, T1, integration, examples)",
            vec![
                layout(
                    ScenarioBuilder::new()
                        .attachments(8)
                        .shape(hierarchy(4, 2, 2))
                        .sources(2),
                ),
                layout(
                    ScenarioBuilder::new()
                        .attachments(6)
                        .sources(4)
                        .shape(hierarchy(4, 2, 3))
                        .aps_always_active(false),
                ),
                layout(
                    ScenarioBuilder::new()
                        .attachments(2)
                        .walkers(vec![Some(0), Some(1), None])
                        .shape(hierarchy(2, 1, 2)),
                ),
            ],
        ),
        (
            "driver ringnet_spec: CoreShape::Auto, 8×4 grid (campus_128's shape)",
            vec![layout(
                ScenarioBuilder::new()
                    .grid(8, 4)
                    .walkers_per_attachment(4)
                    .sources(2),
            )],
        ),
        (
            "driver ringnet_spec: CoreShape::Auto, 16×16 grid (metro_1k's shape)",
            vec![layout(
                ScenarioBuilder::new()
                    .grid(16, 16)
                    .walkers_per_attachment(4)
                    .sources(2),
            )],
        ),
    ]
}

/// `fnv1a(format!("{specs:?}"))` per call site of [`spec_layouts`], pinned
/// on the code that laid every hierarchy out with a second builder. The
/// builder is gone and the scenario's shape lays them out now; a digest
/// that moves means a call site now runs a different world.
///
/// All 31 were re-pinned, with no layout changed, on the last code whose
/// link profiles had a `bandwidth` field (every one `Unlimited`), from
/// their text with that field stripped; deleting the field left them
/// standing. All 31 were re-pinned again, with no layout changed, on the
/// last code whose `HierarchySpec` had no `order_at_entry` field, from
/// their text with `order_at_entry: false` spliced in before `cfg`, where
/// the field sits; adding the field left them standing. The older values
/// quoted below are of the text before the splice.
const SPEC_DIGESTS: &[(&str, u64)] = &[
    ("harness t2::measure, r = 2, 4, 8", 0x63ee7ead23e81d56),
    ("harness t3::run, λ = 100, 500, 1000", 0x155aef35162160df),
    ("harness e3::measure", 0x0f7898ad8acbd257),
    ("harness e5::measure, (quick, loss, budget)", 0xae5465cc748f4091),
    ("harness a1::measure, ack_every = 1, 4, 8, 16", 0x7598c0d793bc73e3),
    ("figure1: harness f1, tests/integration.rs invalid_spec_is_rejected, hierarchy.rs tests (also the builder defaults)", 0x1dedbfedc24e9c47),
    ("src/lib.rs doctest", 0x59d7f42234e6dbb4),
    ("engine.rs tests::small_spec", 0xfdec5dafecf6f847),
    ("hierarchy.rs tests::builder_produces_valid_spec", 0xaea00ebfd45406e9),
    ("hierarchy.rs tests::entities_run_tier_by_tier_and_wiring_draws_the_link_plan", 0xa552be18d4092b6d),
    ("hierarchy.rs tests::validation_rejects_unrunnable_traffic", 0xbeab3cbbeae8c969),
    ("hierarchy.rs tests::neighbours_form_a_chain", 0xe7cf131d6cc4181b),
    ("properties.rs total_order_never_violated", 0x00a3d4669afe7576),
    ("engine_scenarios.rs poisson_traffic_is_fully_ordered_and_delivered", 0xe01afd5447a8d26a),
    ("engine_scenarios.rs ap_failure_orphans_then_handoff_rescues", 0xb8a930c6a99bb2e0),
    ("engine_scenarios.rs bursty_channel_with_budget_keeps_ratio_high", 0xc28d91ee5ae3c74a),
    ("engine_scenarios.rs a_lost_last_message_is_never_repaired", 0x375affc6364c8b93),
    ("engine_scenarios.rs quiet_world_fires_two_timer_chains_per_ne_and_one_ack_wake_per_mh", 0xead779b379d35b51),
    ("engine_scenarios.rs reservation_expires_and_ap_prunes_itself", 0x0c2cefb29c65773a),
    ("engine_scenarios.rs killing_an_mh_stops_its_acks_and_frees_it", 0xbc65b3ae3da43167),
    ("engine_scenarios.rs idle_mhs_are_kept_alive_by_their_acks_alone, 1 and 2 MHs per AP", 0x016f299e47ea4da1),
    ("engine_scenarios.rs an_amnesiac_ap_relearns_its_mhs_within_a_wireless_round_trip", 0x4a3a9b2486ce52a1),
    ("engine_scenarios.rs station_shaped_spec_delivers_in_order (before the edit)", 0xf66120b82b50bc3e),
    ("engine_scenarios.rs ring_cut_at_a_heartbeat_tick_is_repaired_on_the_probe_schedule", 0xc1a1cd6d23f3bab0),
    ("engine_scenarios.rs zero_mh_network_runs_clean", 0x5344ac70819fe25a),
    ("engine_scenarios.rs lost_frame_of_cumulative_acks_is_repaired_by_the_next_frame", 0x01b3d7dbddd5d218),
    ("engine_scenarios.rs figure1_latency_is_token_wait_plus_link_delays_exactly", 0x100677e343dba052),
    ("driver ringnet_spec: ScenarioBuilder::figure1 (quickstart, README, integration)", 0x1dedbfedc24e9c47),
    ("driver ringnet_spec: CoreShape::Hierarchy (E1, E4, E8, T1, integration, examples)", 0x077ec28a1a6b02f0),
    // Moved on purpose when AG_RING_CAP went from 11 to 4 (was
    // 0xda2ebe15b6d8347e): the 8 AGs form 2 rings of 4, ring i listing
    // BR i mod 2 first, in place of one ring of 8.
    ("driver ringnet_spec: CoreShape::Auto, 8×4 grid (campus_128's shape)", 0xa901e3b005e6d51c),
    // Moved on purpose when the automatic layout split more than
    // AG_RING_CAP AGs into balanced rings (was 0x8b01097c5f6ca2e9): the
    // 64 AGs form 4 rings of 16, ring i listing BR i mod 2 first, in place
    // of one ring of 64. Its AGs, APs and walkers are unedited. Moved
    // again when AG_RING_CAP went from 16 to 11 (was 0x025ceefc43e5f1d9):
    // 6 rings of 11, 11, 11, 11, 10 and 10 AGs, ring i listing BR i mod 2
    // first. Moved again when AG_RING_CAP went from 11 to 4 (was
    // 0x9434f5acb47c4805): 16 rings of 4.
    ("driver ringnet_spec: CoreShape::Auto, 16×16 grid (metro_1k's shape)", 0x6075129f9e763cdd),
];

#[test]
fn every_regular_hierarchy_lays_out_as_pinned() {
    let got: Vec<(&str, u64)> = spec_layouts()
        .into_iter()
        .map(|(site, specs)| (site, fnv1a(&format!("{specs:?}"))))
        .collect();
    assert_eq!(got, SPEC_DIGESTS);
}
