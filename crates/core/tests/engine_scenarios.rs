//! Engine scenario matrix: whole-simulation behaviours that the unit tests
//! can't see — traffic patterns, fault injection, activation lifecycles,
//! journal plumbing.

use std::collections::BTreeMap;

use ringnet_core::config::{HEARTBEAT_PERIOD, HOP_TICK};
use ringnet_core::driver::{MulticastSim, Scenario};
use ringnet_core::hierarchy::{LinkPlan, MhSpec, TrafficPattern};
use ringnet_core::metrics::buffer_peaks_of;
use ringnet_core::telemetry::metric;
use ringnet_core::{
    GroupId, Guid, HierarchyBuilder, NodeId, ProtoEvent, ProtocolConfig, RingNetSim,
};
use simnet::{LatencyModel, LinkProfile, LossModel, SimDuration, SimTime};

const G: GroupId = GroupId(1);

fn count<F: Fn(&ProtoEvent) -> bool>(journal: &[(SimTime, ProtoEvent)], f: F) -> usize {
    journal.iter().filter(|(_, e)| f(e)).count()
}

#[test]
fn poisson_traffic_is_fully_ordered_and_delivered() {
    let spec = HierarchyBuilder::new(G)
        .brs(3)
        .ag_rings(1, 3)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(3)
        .source_pattern(TrafficPattern::Poisson { rate: 120.0 })
        .source_window(SimTime::ZERO, Some(SimTime::from_secs(2)))
        .links(LinkPlan {
            wireless: LinkProfile::wired(SimDuration::from_millis(2)),
            ..LinkPlan::default()
        })
        .build();
    let mut net = RingNetSim::build(spec, 17);
    net.run_until(SimTime::from_secs(4));
    let (journal, _) = net.finish();
    let sent = count(&journal, |e| matches!(e, ProtoEvent::SourceSend { .. }));
    let ordered = count(&journal, |e| matches!(e, ProtoEvent::Ordered { .. }));
    assert!(sent > 300, "Poisson sources produced {sent}");
    assert_eq!(sent, ordered, "every sent message ordered exactly once");
    // Each of the 3 MHs delivered everything.
    let delivered = count(&journal, |e| matches!(e, ProtoEvent::MhDeliver { .. }));
    assert_eq!(delivered, sent * 3);
}

#[test]
fn ap_failure_orphans_then_handoff_rescues() {
    let mut spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(1, 2)
        .aps_per_ag(2)
        .mhs_per_ap(1)
        .sources(1)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .build();
    spec.links.wireless = LinkProfile::wired(SimDuration::from_millis(2));
    let dead_ap = spec.aps[0].id;
    let rescue_ap = spec.aps[1].id;
    let mut net = RingNetSim::build(spec, 23);
    // AP of MH 0 dies at 2s; the radio layer moves the MH at 3s.
    net.schedule_kill_ne(SimTime::from_secs(2), dead_ap);
    net.schedule_handoff(SimTime::from_secs(3), Guid(0), rescue_ap);
    net.run_until(SimTime::from_secs(6));
    let (journal, _) = net.finish();
    // MH 0's deliveries: gap during orphanhood, resumption after rescue.
    let times: Vec<SimTime> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::MhDeliver { mh: Guid(0), .. } => Some(*t),
            _ => None,
        })
        .collect();
    assert!(
        times.iter().any(|t| *t < SimTime::from_secs(2)),
        "delivered before failure"
    );
    assert!(
        times.iter().any(|t| *t > SimTime::from_secs(4)),
        "delivery resumed after the rescue handoff"
    );
    // Strictly increasing gsns survived the outage (NACK catch-up).
    let gsns: Vec<u64> = journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::MhDeliver {
                mh: Guid(0), gsn, ..
            } => Some(gsn.0),
            _ => None,
        })
        .collect();
    assert!(gsns.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn bursty_channel_with_budget_keeps_ratio_high() {
    let spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(1, 2)
        .aps_per_ag(1)
        .mhs_per_ap(2)
        .sources(1)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .source_window(SimTime::ZERO, Some(SimTime::from_secs(3)))
        .links(LinkPlan {
            wireless: LinkProfile {
                latency: LatencyModel::Jittered {
                    base: SimDuration::from_millis(2),
                    jitter: SimDuration::from_millis(2),
                },
                loss: LossModel::lossy_wireless(),
                bandwidth: simnet::BandwidthModel::Unlimited,
            },
            ..LinkPlan::default()
        })
        .build();
    let mut net = RingNetSim::build(spec, 29);
    net.run_until(SimTime::from_secs(5));
    let (journal, _) = net.finish();
    let delivered: u64 = journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::MhFinal { delivered, .. } => Some(*delivered as u64),
            _ => None,
        })
        .sum();
    let skipped: u64 = journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::MhFinal { skipped, .. } => Some(*skipped as u64),
            _ => None,
        })
        .sum();
    let ratio = delivered as f64 / (delivered + skipped).max(1) as f64;
    assert!(ratio > 0.98, "bursty-channel delivery ratio {ratio}");
}

/// An NE runs two timer chains — hop tick and heartbeat — and an MH one,
/// the hop tick, whose ack is its heartbeat: on a quiet loss-free world the
/// simulator fires exactly those ticks plus the source's own. A further
/// chain (the `τ` scan, the buffer sampler and the MH heartbeat were three)
/// cannot come back unnoticed.
#[test]
fn quiet_world_fires_two_timer_chains_per_ne_and_one_per_mh() {
    let messages = 5;
    let spec = HierarchyBuilder::new(G)
        .config(ProtocolConfig::default().quiet())
        .source_limit(messages)
        .build();
    let mhs = spec.mhs.len() as u64;
    let nes = (spec.entities().count() - spec.sources.len()) as u64 - mhs;
    let second = SimDuration::from_secs(1).as_nanos();
    let hop_ticks = second / HOP_TICK.as_nanos();
    let heartbeat_ticks = second / HEARTBEAT_PERIOD.as_nanos();
    let mut net = RingNetSim::build(spec, 31);
    net.run_until(SimTime::from_secs(1));
    let (journal, stats) = net.finish();
    // A source ticks once per message and once more to find its limit spent.
    assert_eq!(
        stats.timers_fired,
        nes * (hop_ticks + heartbeat_ticks) + mhs * hop_ticks + messages + 1
    );
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::Ordered { .. })) as u64,
        messages
    );
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::MhDeliver { .. })),
        0,
        "quiet mode drops per-delivery records"
    );
}

/// A reservation-only AP stays on the tree for the reservation TTL (a
/// fixed 2 s) and prunes itself within a heartbeat or two after it lapses.
#[test]
fn reservation_expires_and_ap_prunes_itself() {
    let ttl = SimDuration::from_secs(2);
    let mut spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(1, 2)
        .aps_per_ag(2)
        .mhs_per_ap(0)
        .sources(1)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(20),
        })
        .aps_always_active(false)
        .config(ProtocolConfig::default().with_reservation_radius(1))
        .build();
    // One MH at AP[1]; its join reserves the neighbours AP[0] and AP[2].
    let home = spec.aps[1].id;
    spec.mhs.push(MhSpec {
        guid: Guid(0),
        initial_ap: Some(home),
        subscriptions: Vec::new(),
    });
    let mut net = RingNetSim::build(spec, 37);
    net.run_until(SimTime::from_secs(4));
    let (journal, _) = net.finish();
    let mut reserved_at = BTreeMap::new();
    for (t, e) in &journal {
        if let ProtoEvent::Reserved { ap, .. } = e {
            reserved_at.insert(*ap, *t);
        }
    }
    assert!(
        !reserved_at.contains_key(&home),
        "the home AP is a member's"
    );
    assert!(
        reserved_at.len() >= 2,
        "neighbours reserved: {reserved_at:?}"
    );
    // Reservation-only APs grafted, then pruned once the TTL lapsed — not
    // before, and not much later.
    let grafted: Vec<NodeId> = journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::Grafted { child, .. } => Some(*child),
            _ => None,
        })
        .collect();
    assert!(grafted.len() >= 2, "grafts: {grafted:?}");
    let prunes: Vec<(SimTime, NodeId)> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::Pruned { child, .. } => Some((*t, *child)),
            _ => None,
        })
        .collect();
    assert!(
        !prunes.is_empty(),
        "reservation-only APs must prune after the TTL"
    );
    for (t, ap) in &prunes {
        let reserved = reserved_at[ap];
        assert!(
            *t >= reserved + ttl,
            "{ap} reserved at {reserved:?} pruned at {t:?}, inside the TTL"
        );
        assert!(
            *t < reserved + ttl + HEARTBEAT_PERIOD * 2,
            "{ap} reserved at {reserved:?} pruned only at {t:?}"
        );
    }
    // The member's own AP stays grafted: deliveries continue to the end.
    let last = journal
        .iter()
        .filter_map(|(t, e)| matches!(e, ProtoEvent::MhDeliver { .. }).then_some(*t))
        .max()
        .unwrap();
    assert!(last > SimTime::from_secs(3));
}

#[test]
fn killing_an_mh_stops_its_acks_and_frees_it() {
    let spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(1, 2)
        .aps_per_ag(1)
        .mhs_per_ap(2)
        .sources(1)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .build();
    let mut net = RingNetSim::build(spec, 41);
    net.schedule_kill_mh(SimTime::from_secs(1), Guid(0));
    net.run_until(SimTime::from_secs(4));
    let (journal, _) = net.finish();
    // The dead MH stops delivering shortly after the kill...
    let dead_last = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::MhDeliver { mh: Guid(0), .. } => Some(*t),
            _ => None,
        })
        .max()
        .unwrap();
    assert!(dead_last <= SimTime::from_millis(1100));
    // ...while its sibling keeps receiving to the end (the AP's GC is not
    // pinned forever by the corpse — the liveness sweep removed it).
    let alive_last = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::MhDeliver { mh: Guid(1), .. } => Some(*t),
            _ => None,
        })
        .max()
        .unwrap();
    assert!(alive_last > SimTime::from_secs(3));
    // Kill is not a Leave: membership drops via the liveness sweep instead.
    let counts: Vec<i64> = journal
        .iter()
        .filter_map(|(_, e)| match e {
            ProtoEvent::MembershipCount { members, .. } => Some(*members),
            _ => None,
        })
        .collect();
    // 2 APs × 2 MHs = 4 members; the kill leaves 3.
    assert!(
        counts.last().is_some_and(|&c| c == 3),
        "final membership: {counts:?}"
    );
}

/// An MH has no heartbeat: its ack, sent every ack period whether or not
/// its front moved, is all its AP hears from it, and it is enough. In a
/// world with no traffic nobody is swept in 2 s, and one more MH per AP adds
/// exactly its `Join`, the AP's `JoinAck` and one `DataAck` per ack period
/// to the wire. (The 5 ms radio hop lands the joins after each AP's graft
/// is acknowledged: a join at an AP still grafting would resend the graft.)
#[test]
fn idle_mhs_are_kept_alive_by_their_acks_alone() {
    let run = |mhs_per_ap: usize| {
        let spec = HierarchyBuilder::new(G)
            .brs(2)
            .ag_rings(1, 2)
            .aps_per_ag(2)
            .mhs_per_ap(mhs_per_ap)
            .sources(0)
            .config(ProtocolConfig::default().with_reservation_radius(0))
            .links(LinkPlan {
                wireless: LinkProfile::wired(SimDuration::from_millis(5)),
                ..LinkPlan::default()
            })
            .build();
        let (aps, mhs) = (spec.aps.len() as u64, spec.mhs.len() as i64);
        let mut net = RingNetSim::build(spec, 47);
        net.run_until(SimTime::from_secs(2));
        let (journal, stats) = net.finish();
        // The joins reach the root within the sweep's 200 ms window, before
        // any MH could be swept; from then on the count holds.
        let counts: Vec<(SimTime, i64)> = journal
            .iter()
            .filter_map(|(t, e)| match e {
                ProtoEvent::MembershipCount { members, .. } => Some((*t, *members)),
                _ => None,
            })
            .collect();
        let &(settled, last) = counts.last().expect("membership counted");
        assert_eq!(last, mhs, "{counts:?}");
        assert!(
            settled <= SimTime::ZERO + HEARTBEAT_PERIOD * 4,
            "{counts:?}"
        );
        (aps, stats.packets_sent)
    };
    let (aps, one) = run(1);
    let (_, two) = run(2);
    let cfg = ProtocolConfig::default();
    let acks = SimDuration::from_secs(2).as_nanos() / (HOP_TICK * cfg.ack_every as u64).as_nanos();
    assert_eq!(
        two - one,
        aps * (2 + acks),
        "no heartbeat, no heartbeat ack"
    );
}

/// An AP that crash-restarts forgets its MHs. The next ack of each, at
/// most one ack period after the restart, draws a `ReRegister`, and the MH
/// is registered again one wireless round trip later — well before its
/// AP would have swept it, and not a heartbeat period later.
#[test]
fn amnesiac_ap_solicits_reregistration_within_an_ack_period() {
    let spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(1, 2)
        .aps_per_ag(1)
        .mhs_per_ap(2)
        .sources(1)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .links(LinkPlan {
            wireless: LinkProfile::wired(SimDuration::from_millis(1)),
            ..LinkPlan::default()
        })
        .build();
    let ap = spec.aps[0].id;
    let crash = SimTime::from_millis(1_001);
    assert_eq!(
        crash.as_nanos() % HEARTBEAT_PERIOD.as_nanos(),
        SimDuration::from_millis(1).as_nanos(),
        "1 ms after a heartbeat tick"
    );
    let mut net = RingNetSim::build(spec, 53);
    net.schedule_kill_ne(crash, ap);
    net.schedule_restart_ne(crash, ap);
    net.run_until(SimTime::from_secs(2));
    let (journal, _) = net.finish();
    let registered: Vec<(Guid, SimTime)> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::HandoffRegistered { mh, ap: at, .. } if *at == ap => Some((*mh, *t)),
            _ => None,
        })
        .collect();
    let mhs: Vec<Guid> = registered.iter().map(|&(mh, _)| mh).collect();
    assert_eq!(mhs, vec![Guid(0), Guid(1)], "each MH re-registers once");
    for (mh, t) in registered {
        assert!(
            t > crash && t <= crash + SimDuration::from_millis(15),
            "{mh} re-registered at {t:?}"
        );
    }
}

/// The station shape, built directly: a spec with no AG rings and no APs is
/// one logical ring of hybrid stations — each orders *and* serves the MHs
/// that name it as their attachment — on the ordinary engine.
#[test]
fn station_shaped_spec_delivers_in_order() {
    let mut spec = HierarchyBuilder::new(G)
        .brs(4)
        .sources(2)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(20),
        })
        .source_limit(20)
        .build();
    spec.ag_rings.clear();
    spec.aps.clear();
    spec.mhs = (0..4u32)
        .map(|i| MhSpec {
            guid: Guid(i),
            initial_ap: Some(spec.top_ring[i as usize]),
            subscriptions: Vec::new(),
        })
        .collect();
    assert!(spec.is_station_shape());
    let mut net = RingNetSim::build(spec, 5);
    // Stations serve handoffs like any attachment entity.
    net.schedule_handoff(SimTime::from_millis(300), Guid(0), NodeId(3));
    net.run_until(SimTime::from_secs(3));
    let (journal, _) = net.finish();
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::Ordered { .. })),
        40,
        "2 sources × 20 messages"
    );
    assert!(journal.iter().any(|(_, e)| matches!(
        e,
        ProtoEvent::HandoffRegistered {
            mh: Guid(0),
            ap: NodeId(3),
            ..
        }
    )));
    let per_mh = ringnet_core::metrics::deliveries_per_mh(&journal);
    assert_eq!(per_mh.len(), 4);
    for (mh, seq) in &per_mh {
        assert_eq!(seq.len(), 40, "{mh} delivered everything: {seq:?}");
    }
    assert_eq!(ringnet_core::metrics::order_violations(&journal), 0);
}

/// A two-BR top ring cut exactly at a heartbeat tick, while the token and
/// its acknowledgements cross the link: each side excises the other three
/// missed probes after the tick, the instant a probe sent at the tick
/// gives. The token stands in for a probe only with the acknowledgement of
/// a transfer sent after the last tick; counting any frame from the next
/// node would take the frames sent before the cut and received after it as
/// an answer, and repair the ring a period or more late.
#[test]
fn ring_cut_at_a_heartbeat_tick_is_repaired_on_the_probe_schedule() {
    let spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(2, 1)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(1)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .build();
    let (a, b) = (spec.top_ring[0], spec.top_ring[1]);
    let hop = spec.links.top_ring.latency.max_delay();
    let cut = SimTime::from_secs(1);
    assert_eq!(cut.as_nanos() % HEARTBEAT_PERIOD.as_nanos(), 0, "a tick");
    let mut net = RingNetSim::build(spec, 7);
    net.schedule_link_state(cut, a, b, false);
    net.run_until(cut + HEARTBEAT_PERIOD * 6);
    let (journal, _) = net.finish();
    assert!(
        journal.iter().any(|(t, e)| {
            matches!(e, ProtoEvent::TokenPass { .. }) && *t + hop > cut && *t <= cut
        }),
        "a token transfer is in flight at the cut"
    );
    let repaired: Vec<(SimTime, NodeId)> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::RingRepaired { node, .. } => Some((*t, *node)),
            _ => None,
        })
        .collect();
    let due = cut + HEARTBEAT_PERIOD * 3;
    assert_eq!(repaired, vec![(due, a), (due, b)]);
}

#[test]
fn zero_mh_network_runs_clean() {
    let spec = HierarchyBuilder::new(G)
        .brs(2)
        .ag_rings(1, 2)
        .aps_per_ag(1)
        .mhs_per_ap(0)
        .sources(2)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(10),
        })
        .source_limit(50)
        .build();
    let mut net = RingNetSim::build(spec, 43);
    net.run_until(SimTime::from_secs(3));
    let (journal, stats) = net.finish();
    // Ordering proceeds with nobody listening.
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::Ordered { .. })),
        100
    );
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::MhDeliver { .. })),
        0
    );
    assert_eq!(stats.packets_no_route, 0, "no dangling destinations");
}

/// Per-hop framing under loss: a walker subscribed to four groups
/// acknowledges all four streams in one frame per ack tick. Cutting the
/// uplink for the instant of one ack tick loses exactly one wire packet —
/// the whole frame of four cumulative acks — and the next tick's frame,
/// being cumulative, repairs all four streams at once: not one packet more
/// is sent than in the run that lost nothing (no NACK, no retransmission),
/// and from the moment that frame lands the two runs are indistinguishable
/// (up to the AP's peak-depth counter, which remembers the stall).
#[test]
fn lost_frame_of_cumulative_acks_is_repaired_by_the_next_frame() {
    /// The journal, the transport totals, and the AP's `MQ` peak (of its
    /// first group state; the lost frame stalled all four alike).
    fn run(cut_uplink: bool) -> (Vec<(SimTime, ProtoEvent)>, simnet::SimStats, u32) {
        let spec = HierarchyBuilder::new(G)
            .groups((1..=4).map(GroupId).collect())
            .brs(4)
            .ag_rings(1, 1)
            .aps_per_ag(1)
            .mhs_per_ap(1)
            .sources(4)
            .source_pattern(TrafficPattern::Cbr {
                interval: SimDuration::from_millis(10),
            })
            .source_window(SimTime::ZERO, Some(SimTime::from_millis(1500)))
            .links(LinkPlan {
                wireless: LinkProfile::wired(SimDuration::from_millis(2)),
                ..LinkPlan::default()
            })
            .build();
        let ap = spec.aps[0].id;
        let mut net = RingNetSim::build(spec, 3);
        let (mh_addr, ap_addr) = (net.addrs.mh(Guid(0)).unwrap(), net.addrs.ne(ap).unwrap());
        // Acks leave every second 5 ms hop tick; 1010 ms is an ack tick that
        // is not also a 50 ms heartbeat tick. Only the uplink drops.
        for (at_ms, up) in [(1009, !cut_uplink), (1011, true)] {
            net.schedule_control(SimTime::from_millis(at_ms), move |w| {
                w.set_link_up(mh_addr, ap_addr, up);
            });
        }
        net.run_until(SimTime::from_secs(2));
        let (journal, stats) = net.finish();
        let (_, ap_mq_peak) = buffer_peaks_of(&journal, ap).expect("the AP reports");
        (journal, stats, ap_mq_peak)
    }
    let (clean, clean_stats, clean_peak) = run(false);
    let (cut, cut_stats, cut_peak) = run(true);

    assert_eq!(
        cut_stats.packets_link_down, 1,
        "one frame carried all four acks"
    );
    assert_eq!(
        cut_stats.packets_sent, clean_stats.packets_sent,
        "nothing extra was said"
    );
    // The next ack tick is at 1020 ms and its frame lands 2 ms later; what
    // the AP held in between shows in its peak depth and nowhere else.
    assert!(
        cut_peak > clean_peak,
        "the lost acks were felt: the AP retained what they would have released \
         ({cut_peak} vs {clean_peak})"
    );
    let before_teardown = |j: &[(SimTime, ProtoEvent)]| {
        let run: Vec<_> = j
            .iter()
            .filter(|(t, _)| *t < SimTime::from_secs(2))
            .collect();
        format!("{run:?}")
    };
    assert_eq!(
        before_teardown(&cut),
        before_teardown(&clean),
        "the next frame repaired every stream: not one journal line moved"
    );
    assert!(count(&cut, |e| matches!(e, ProtoEvent::MhDeliver { .. })) > 500);
    let unrepaired = |e: &ProtoEvent| match e {
        ProtoEvent::NeFinal {
            retransmissions, ..
        } => *retransmissions > 0,
        ProtoEvent::MhFinal {
            skipped,
            duplicates,
            ..
        } => skipped + duplicates > 0,
        _ => false,
    };
    assert_eq!(count(&cut, unrepaired), 0);
}

/// Loss-free static worlds, 600 ms each: the benchmark's 2-BR grid shape
/// (`campus_128`, cut down), its 8-ring shape (`rings8_ctrl`), and the
/// 4-ring world whose every message crosses the cross-group fence.
fn loss_free_static_worlds() -> Vec<(&'static str, Scenario)> {
    let base = || {
        Scenario::builder()
            .loss_free_wireless()
            .window(SimTime::ZERO, Some(SimTime::from_millis(400)))
            .duration(SimTime::from_millis(600))
            .telemetry(true)
    };
    let multi = |rings: u32| {
        let mut sc = base()
            .attachments(8)
            .walkers_per_attachment(1)
            .sources(8)
            .cbr(SimDuration::from_millis(2))
            .groups((1..=rings).map(GroupId).collect());
        if rings == 4 {
            sc = sc.source_groups(
                (0..8u32)
                    .map(|i| vec![GroupId(i % rings + 1), GroupId((i + 1) % rings + 1)])
                    .collect(),
            );
        }
        let mut sc = sc.build();
        sc.cfg.mq_capacity = 128;
        sc
    };
    let grid = base()
        .grid(4, 2)
        .walkers_per_attachment(2)
        .sources(2)
        .cbr(SimDuration::from_millis(5))
        .build();
    vec![
        ("grid_2br", grid),
        ("rings8", multi(8)),
        ("fence_overlap_4", multi(4)),
    ]
}

/// Nothing is lost in these worlds, so nothing may be asked for twice: no
/// `DataNack`, no retransmission served, no duplicate seen. (A non-assigner
/// BR used to copy its own, higher, GSN range into `MQ` up to τ before its
/// predecessor's lower one, and the hop tick NACKed the hole.) And every
/// `WQ`→`MQ` copy is made the instant its token arrives — none is left for
/// a late pre-order.
#[test]
fn loss_free_static_worlds_never_nack_and_never_wait_for_the_tick() {
    for (name, sc) in loss_free_static_worlds() {
        let report = RingNetSim::run_scenario(&sc, 7);
        let m = &report.metrics;
        assert!(m.delivered > 1_000, "{name}: world too quiet");
        assert_eq!(m.delivery_ratio(), 1.0, "{name}");
        assert_eq!((m.duplicates, m.skipped), (0, 0), "{name}");
        let t = report.telemetry.as_ref().expect("telemetry is on");
        for quiet in [
            metric::NACKS_SENT,
            metric::PREORDER_NACKS_SENT,
            metric::RETRANSMISSIONS_SERVED,
            metric::COPIED_ON_PREORDER,
        ] {
            assert_eq!(t.total_counter(quiet), 0, "{name}: {quiet}");
        }
        let served: u32 = report
            .journal
            .iter()
            .map(|(_, e)| match e {
                ProtoEvent::NeFinal {
                    retransmissions, ..
                } => *retransmissions,
                _ => 0,
            })
            .sum();
        assert_eq!(served, 0, "{name}: retransmissions served");
        // Every top-ring state copies every message of its ring exactly once.
        let ring_states = sc.ordering_capable_nodes() as u64;
        assert_eq!(
            t.total_counter(metric::COPIED_ON_TOKEN),
            m.ordered * ring_states,
            "{name}: copies made on token arrival"
        );
    }
}

/// Theorem 5.1 without the τ term: on the loss-free Figure-1 world every
/// delivery takes exactly its token wait, plus the ring hops the WTSNP
/// entry rides from the assigner to the BR above the walker, plus the
/// tree path below that BR — link delays only, no timer residual.
#[test]
fn figure1_latency_is_token_wait_plus_link_delays_exactly() {
    let links = LinkPlan {
        // 3 ms ring hops: token arrivals fall between the 5 ms hop ticks, so
        // a copy that waited for a timer would show.
        top_ring: LinkProfile::wired(SimDuration::from_millis(3)),
        wireless: LinkProfile::wired(SimDuration::from_millis(2)),
        ..LinkPlan::default()
    };
    let spec = HierarchyBuilder::new(G)
        .brs(4)
        .ag_rings(3, 3)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(1)
        // 7 ms against the 12 ms rotation: the token wait takes every phase.
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_millis(7),
        })
        .source_window(SimTime::ZERO, Some(SimTime::from_millis(1500)))
        .links(links.clone())
        .build();
    let delay = |p: &LinkProfile| p.latency.max_delay();
    // Walker k sits under AP k under AG k: ring k/3, position k%3. Ring r
    // hangs off BR r, r token hops downstream of the assigner BR 0.
    let path_below_token: BTreeMap<Guid, SimDuration> = spec
        .mhs
        .iter()
        .map(|mh| {
            let k = u64::from(mh.guid.0);
            let (ring, pos) = (k / 3, k % 3);
            let path = delay(&links.top_ring) * ring
                + delay(&links.br_ag)
                + delay(&links.ag_ring) * pos
                + delay(&links.ag_ap)
                + delay(&links.wireless);
            (mh.guid, path)
        })
        .collect();
    let mut net = RingNetSim::build(spec, 7);
    net.run_until(SimTime::from_secs(2));
    let (journal, _) = net.finish();
    let mut sent = BTreeMap::new();
    let mut ordered = BTreeMap::new();
    let mut checked = 0;
    for (t, e) in &journal {
        match e {
            ProtoEvent::SourceSend { local_seq, .. } => {
                sent.insert(*local_seq, *t);
            }
            ProtoEvent::Ordered { local_seq, .. } => {
                ordered.insert(*local_seq, *t);
            }
            ProtoEvent::MhDeliver { mh, local_seq, .. } => {
                let token_wait = ordered[local_seq].saturating_since(sent[local_seq]);
                assert_eq!(
                    t.saturating_since(sent[local_seq]),
                    token_wait + path_below_token[mh],
                    "{mh:?} {local_seq:?}: residual beyond token wait {token_wait:?} + path"
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert_eq!(checked, sent.len() * 9, "every walker got every message");
    assert!(sent.len() > 200);
}

/// FNV-1a over the sorted `Debug` lines of every `Ordered` and `MhDeliver`
/// entry: when each message got its global number and when each walker got
/// each message, and nothing else (sorted because ring states of different
/// groups may be permuted within one simulated instant).
fn order_and_delivery_digest(journal: &[(SimTime, ProtoEvent)]) -> u64 {
    let mut lines: Vec<String> = journal
        .iter()
        .filter(|(_, e)| matches!(e, ProtoEvent::Ordered { .. } | ProtoEvent::MhDeliver { .. }))
        .map(|(t, e)| format!("{t:?}|{e:?}\n"))
        .collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`order_and_delivery_digest`] of the 8-disjoint-ring world at seed 7,
/// pinned on the commit before the acknowledgement plane was thinned: a
/// change to *when and how often hops acknowledge* may not move the
/// instant of a single ordering or delivery.
const RINGS8_ORDER_AND_DELIVERY: u64 = 0x1539_ea2b_0b6f_1715;

/// Every `telemetry::metric::CONTROL_SENT_*` counter.
const CONTROL_KINDS: [&str; 6] = [
    metric::CONTROL_SENT_DATA_ACK,
    metric::CONTROL_SENT_NACK,
    metric::CONTROL_SENT_TOKEN,
    metric::CONTROL_SENT_TOKEN_ACK,
    metric::CONTROL_SENT_HEARTBEAT,
    metric::CONTROL_SENT_OTHER,
];

/// The 8-disjoint-ring world (the benchmark's `rings8_ctrl` shape) is the
/// control-plane-bound one: its acknowledgement discipline is pinned here
/// at work level — what it costs, that it repairs nothing in a loss-free
/// world, and that it moves no ordering or delivery instant.
#[test]
fn rings8_acknowledgements_move_no_ordering_or_delivery_instant() {
    let (_, mut sc) = loss_free_static_worlds().swap_remove(1);
    // Long enough for the steady state to outweigh start-up and the idle
    // tail, as it does in the benchmark's 7 sim-s.
    sc.stop = Some(SimTime::from_millis(2_000));
    sc.duration = SimTime::from_millis(2_100);
    let report = RingNetSim::run_scenario(&sc, 7);
    let m = &report.metrics;
    assert!(m.delivered > 10_000, "world too quiet");
    assert_eq!(m.delivery_ratio(), 1.0);
    assert_eq!((m.duplicates, m.skipped), (0, 0));
    let t = report.telemetry.as_ref().expect("telemetry is on");
    for quiet in [
        metric::NACKS_SENT,
        metric::PREORDER_NACKS_SENT,
        metric::RETRANSMISSIONS_SERVED,
    ] {
        assert_eq!(t.total_counter(quiet), 0, "{quiet}");
    }
    let per_delivery = m.wired_core_control_sent as f64 / m.delivered as f64;
    assert!(
        per_delivery <= 0.40,
        "{per_delivery} core control messages per delivery (0.75 while every hop \
         acknowledged on a clock, per stream)"
    );
    // The per-kind telemetry counters are the split of `control_sent`.
    let by_kind: u64 = CONTROL_KINDS.iter().map(|k| t.total_counter(k)).sum();
    let total: u64 = report
        .journal
        .iter()
        .map(|(_, e)| match e {
            ProtoEvent::NeFinal { control_sent, .. } => u64::from(*control_sent),
            _ => 0,
        })
        .sum();
    assert_eq!(by_kind, total);
    let got = order_and_delivery_digest(&report.journal);
    assert_eq!(
        got, RINGS8_ORDER_AND_DELIVERY,
        "ordering/delivery digest {got:#018x} != pinned {RINGS8_ORDER_AND_DELIVERY:#018x}"
    );
}
