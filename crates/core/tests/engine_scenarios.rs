//! Engine scenario matrix: whole-simulation behaviours that the unit tests
//! can't see — traffic patterns, fault injection, activation lifecycles,
//! journal plumbing.

use std::collections::{BTreeMap, BTreeSet};

use ringnet_core::config::{HEARTBEAT_PERIOD, HOP_TICK};
use ringnet_core::driver::{
    hierarchy_core, ringnet_spec, CoreShape, MulticastSim, RunReport, Scenario, ScenarioBuilder,
    ScenarioEvent,
};
use ringnet_core::hierarchy::{LinkPlan, MhSpec};
use ringnet_core::metrics::Finals;
use ringnet_core::telemetry::metric;
use ringnet_core::{GroupId, Guid, NodeId, ProtoEvent, ProtocolConfig, RingNetSim};
use simnet::{LatencyModel, LinkProfile, LossModel, SimDuration, SimTime};

const G: GroupId = GroupId(1);

/// A scenario over a regular hierarchy: `brs` BRs over `rings` AG rings of
/// `ags_per_ring` AGs, with `aps_per_ag` attachments under each AG.
fn hierarchy(brs: usize, rings: usize, ags_per_ring: usize, aps_per_ag: usize) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .attachments(rings * ags_per_ring * aps_per_ag)
        .shape(CoreShape::Hierarchy {
            brs,
            rings,
            ags_per_ring,
        })
}

fn count<F: Fn(&ProtoEvent) -> bool>(journal: &[(SimTime, ProtoEvent)], f: F) -> usize {
    journal.iter().filter(|(_, e)| f(e)).count()
}

#[test]
fn poisson_traffic_is_fully_ordered_and_delivered() {
    let sc = hierarchy(3, 1, 3, 1)
        .sources(3)
        .poisson(120.0)
        .window(SimTime::ZERO, Some(SimTime::from_secs(2)))
        .loss_free_wireless()
        .build();
    let mut net = RingNetSim::build(&sc, 17);
    net.run_until(SimTime::from_secs(4));
    let journal = net.finish().journal;
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
    let sc = hierarchy(2, 1, 2, 2)
        .cbr(SimDuration::from_millis(10))
        .build();
    let mut spec = ringnet_spec(&sc);
    spec.links.wireless = LinkProfile::wired(SimDuration::from_millis(2));
    let mut net = RingNetSim::for_scenario(spec, &sc, 23);
    // AP of MH 0 dies at 2s; the radio layer moves the MH at 3s.
    net.schedule(ScenarioEvent::ApCrash {
        at: SimTime::from_secs(2),
        ap: 0,
    });
    net.schedule(ScenarioEvent::Handoff {
        at: SimTime::from_secs(3),
        walker: 0,
        to: 1,
    });
    net.run_until(SimTime::from_secs(6));
    let journal = net.finish().journal;
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
    let sc = hierarchy(2, 1, 2, 1)
        .walkers_per_attachment(2)
        .cbr(SimDuration::from_millis(10))
        .window(SimTime::ZERO, Some(SimTime::from_secs(3)))
        .links(LinkPlan {
            wireless: LinkProfile {
                latency: LatencyModel::Jittered {
                    base: SimDuration::from_millis(2),
                    jitter: SimDuration::from_millis(2),
                },
                loss: LossModel::lossy_wireless(),
            },
            ..LinkPlan::default()
        })
        .build();
    let mut net = RingNetSim::build(&sc, 29);
    net.run_until(SimTime::from_secs(5));
    let finals = net.finish().finals;
    let ratio = finals.mh_totals().delivery_ratio();
    assert!(ratio > 0.98, "bursty-channel delivery ratio {ratio}");
}

/// The limit of local-scope repair: a lost *last* message is never
/// repaired. An MH learns of a gap only from a later message, and an AP
/// never re-pushes what its MH's cumulative ack shows missing. Here ten
/// messages cross a 20 %-loss radio hop; the wired core is loss-free, so
/// the AP holds all ten (its other walker delivers GSN 10), but walker 0
/// lost GSN 10 over the air and its front stays at 9 — gap-free below —
/// for the 1.9 s the run goes on after the last send.
#[test]
fn a_lost_last_message_is_never_repaired() {
    let messages = 10;
    let sc = hierarchy(2, 1, 2, 1)
        .walkers_per_attachment(2)
        .cbr(SimDuration::from_millis(10))
        .message_limit(messages)
        .links(LinkPlan {
            wireless: LinkProfile {
                latency: LatencyModel::Jittered {
                    base: SimDuration::from_millis(2),
                    jitter: SimDuration::from_millis(2),
                },
                loss: LossModel::Bernoulli(0.2),
            },
            ..LinkPlan::default()
        })
        .build();
    let spec = ringnet_spec(&sc);
    let (short, sibling) = (Guid(0), Guid(1));
    let ap_of = |spec: &ringnet_core::HierarchySpec, g: Guid| {
        spec.mhs.iter().find(|m| m.guid == g).unwrap().initial_ap
    };
    assert!(ap_of(&spec, short).is_some());
    assert_eq!(ap_of(&spec, short), ap_of(&spec, sibling), "one AP");
    let mut net = RingNetSim::for_scenario(spec, &sc, 1);
    net.run_until(SimTime::from_secs(2));
    let journal = net.finish().journal;
    // Per walker, every GSN it delivered or skipped, in journal order.
    let mut passed: BTreeMap<Guid, Vec<u64>> = BTreeMap::new();
    for (_, e) in &journal {
        if let ProtoEvent::MhDeliver { mh, gsn, .. } | ProtoEvent::MhSkip { mh, gsn, .. } = e {
            passed.entry(*mh).or_default().push(gsn.0);
        }
    }
    let ordered = count(&journal, |e| matches!(e, ProtoEvent::Ordered { .. })) as u64;
    assert_eq!(ordered, messages);
    assert_eq!(passed[&sibling], (1..=messages).collect::<Vec<_>>());
    assert_eq!(
        passed[&short],
        (1..messages).collect::<Vec<_>>(),
        "walker 0's front stops one short of its AP's, with no hole below"
    );
}

/// A failover window RingNet does not close. An AG dies a few ms after a
/// heartbeat tick on a loss-free 4-AG ring. Its ring predecessor excises
/// it three periods later and repairs the ring to the dead AG's next
/// member. That member NACKs the gap from its new predecessor, delivers it
/// and collects it. One period after the repair, the dead AG's orphaned AP
/// misses its third parent probe and grafts onto that same member. Its
/// graft asks to resume below what the new parent still holds, so the AP
/// skips the gap and so does its walker. Nothing was lost on any link.
#[test]
fn a_failover_child_skips_what_its_new_parent_already_collected() {
    let sc = hierarchy(2, 1, 4, 1)
        .cbr(SimDuration::from_millis(10))
        .build();
    let spec = ringnet_spec(&sc);
    let ring = &spec.ag_rings[0].members;
    let (prev, dead, heir) = (ring[1], ring[2], ring[3]);
    let orphan = spec
        .aps
        .iter()
        .find(|ap| ap.parent_candidates == [dead, heir])
        .expect("the dead AG's AP fails over to its ring successor")
        .id;
    let tick = SimTime::from_secs(1);
    let mut net = RingNetSim::for_scenario(spec, &sc, 7);
    net.schedule(ScenarioEvent::KillCore {
        // Core indices run over the BRs, then the AGs.
        at: tick + SimDuration::from_millis(9),
        index: 2 + 2,
    });
    net.run_until(SimTime::from_secs(2));
    let journal = net.finish().journal;
    let repaired = journal.iter().find_map(|(t, e)| match e {
        ProtoEvent::RingRepaired { node, failed, .. } if (*node, *failed) == (prev, dead) => {
            Some(*t)
        }
        _ => None,
    });
    assert_eq!(repaired, Some(tick + HEARTBEAT_PERIOD * 3));
    let grafted = journal.iter().find_map(|(t, e)| match e {
        ProtoEvent::Grafted { parent, child, .. } if (*parent, *child) == (heir, orphan) => {
            Some(*t)
        }
        _ => None,
    });
    let grafted = grafted.expect("the orphan grafts onto the heir");
    assert!(grafted > tick + HEARTBEAT_PERIOD * 4, "one period after");
    let skipped_at = |node: NodeId| -> Vec<SimTime> {
        journal
            .iter()
            .filter_map(|(t, e)| match e {
                ProtoEvent::NeSkip { node: n, .. } if *n == node => Some(*t),
                _ => None,
            })
            .collect()
    };
    assert!(skipped_at(heir).is_empty(), "the heir delivered the gap");
    let skips = skipped_at(orphan);
    assert!(!skips.is_empty(), "the orphan skips the gap");
    assert!(skips.iter().all(|&t| t > grafted), "after grafting");
    assert!(count(&journal, |e| matches!(e, ProtoEvent::MhSkip { .. })) > 0);
    assert_eq!(ringnet_core::metrics::order_violations(&journal), 0);
}

/// An AG ring's leader dies 9 ms after a heartbeat tick on a loss-free
/// 3-AG ring. The leader's next member watches it: the leader's data
/// answers the watch, so the ring's last member, whose hop to the leader
/// carries no traffic, no longer probes it. The next member excises the
/// leader four periods after the tick, `HEARTBEAT_MISSES` unanswered
/// periods after the last answered one, as the last member's probes did.
/// It leads from then on and grafts onto the dead leader's parent BR,
/// which still holds everything the ring had not yet delivered, so
/// nothing is skipped anywhere.
#[test]
fn a_dead_ag_ring_leader_is_excised_and_its_next_grafts_without_a_skip() {
    let sc = hierarchy(2, 1, 3, 1)
        .cbr(SimDuration::from_millis(10))
        .build();
    let spec = ringnet_spec(&sc);
    let ring = &spec.ag_rings[0].members;
    let (leader, heir) = (ring[0], ring[1]);
    let tick = SimTime::from_secs(1);
    assert_eq!(tick.as_nanos() % HEARTBEAT_PERIOD.as_nanos(), 0, "a tick");
    let mut net = RingNetSim::for_scenario(spec, &sc, 7);
    net.schedule(ScenarioEvent::KillCore {
        // Core indices run over the BRs, then the AGs.
        at: tick + SimDuration::from_millis(9),
        index: 2,
    });
    net.run_until(SimTime::from_secs(2));
    let journal = net.finish().journal;
    let repaired: Vec<(SimTime, NodeId)> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::RingRepaired { node, failed, .. } if *failed == leader => Some((*t, *node)),
            _ => None,
        })
        .collect();
    let due = tick + HEARTBEAT_PERIOD * 4;
    assert_eq!(repaired, vec![(due, heir)], "the leader's next excises");
    let grafted: Vec<(SimTime, NodeId)> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::Grafted { parent, child, .. } if *child == heir => Some((*t, *parent)),
            _ => None,
        })
        .collect();
    assert!(
        matches!(grafted[..], [(t, NodeId(0))] if t > due && t < due + HEARTBEAT_PERIOD),
        "the heir leads and grafts onto the dead leader's parent: {grafted:?}"
    );
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::NeSkip { .. })),
        0
    );
    assert_eq!(
        count(&journal, |e| matches!(e, ProtoEvent::MhSkip { .. })),
        0
    );
    assert_eq!(ringnet_core::metrics::order_violations(&journal), 0);
}

/// An NE runs two timer chains — hop tick and heartbeat — and an MH wakes
/// only when it has work. On a quiet world whose radio hop neither loses
/// nor reorders no gap ever opens, so an MH's only duty is its ack, which
/// is its heartbeat: it wakes once per ack period, `hop_ticks / ack_every`
/// times a second, where it used to wake on every hop tick. The simulator fires exactly those timers plus
/// the source's own. A further chain (the `τ` scan, the buffer sampler and
/// the MH heartbeat were three), or an MH waking for nothing, cannot come
/// back unnoticed.
#[test]
fn quiet_world_fires_two_timer_chains_per_ne_and_one_ack_wake_per_mh() {
    let messages = 5;
    let sc = ScenarioBuilder::figure1(G)
        .config(ProtocolConfig::default().quiet())
        .message_limit(messages)
        .loss_free_wireless()
        .build();
    let spec = ringnet_spec(&sc);
    let mhs = spec.mhs.len() as u64;
    let nes = (spec.entities().count() - spec.sources.len()) as u64 - mhs;
    let second = SimDuration::from_secs(1).as_nanos();
    let hop_ticks = second / HOP_TICK.as_nanos();
    let heartbeat_ticks = second / HEARTBEAT_PERIOD.as_nanos();
    let ack_every = u64::from(spec.cfg.ack_every);
    let mut net = RingNetSim::for_scenario(spec, &sc, 31);
    net.run_until(SimTime::from_secs(1));
    let RunReport { journal, stats, .. } = net.finish();
    // A source ticks once per message and once more to find its limit spent.
    assert_eq!(
        stats.timers_fired,
        nes * (hop_ticks + heartbeat_ticks) + mhs * hop_ticks / ack_every + messages + 1
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
    // One MH at AP[1]; its join reserves the neighbours AP[0] and AP[2].
    let sc = hierarchy(2, 1, 2, 2)
        .walkers(vec![Some(1)])
        .cbr(SimDuration::from_millis(20))
        .aps_always_active(false)
        .config(ProtocolConfig::default().with_reservation_radius(1))
        .build();
    let spec = ringnet_spec(&sc);
    let home = spec.aps[1].id;
    let mut net = RingNetSim::for_scenario(spec, &sc, 37);
    net.run_until(SimTime::from_secs(4));
    let journal = net.finish().journal;
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
    let sc = hierarchy(2, 1, 2, 1)
        .walkers_per_attachment(2)
        .cbr(SimDuration::from_millis(10))
        .build();
    let mut net = RingNetSim::build(&sc, 41);
    net.schedule(ScenarioEvent::KillWalker {
        at: SimTime::from_secs(1),
        walker: 0,
    });
    net.run_until(SimTime::from_secs(4));
    let journal = net.finish().journal;
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
        let sc = hierarchy(2, 1, 2, 2)
            .walkers_per_attachment(mhs_per_ap)
            .config(ProtocolConfig::default().with_reservation_radius(0))
            .links(LinkPlan {
                wireless: LinkProfile::wired(SimDuration::from_millis(5)),
                ..LinkPlan::default()
            })
            .build();
        let mut spec = ringnet_spec(&sc);
        spec.sources.clear();
        let (aps, mhs) = (spec.aps.len() as u64, spec.mhs.len() as i64);
        let mut net = RingNetSim::for_scenario(spec, &sc, 47);
        net.run_until(SimTime::from_secs(2));
        let RunReport { journal, stats, .. } = net.finish();
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
    let sc = hierarchy(2, 1, 2, 1)
        .walkers_per_attachment(2)
        .cbr(SimDuration::from_millis(10))
        .links(LinkPlan {
            wireless: LinkProfile::wired(SimDuration::from_millis(1)),
            ..LinkPlan::default()
        })
        .build();
    let spec = ringnet_spec(&sc);
    let ap = spec.aps[0].id;
    let crash = SimTime::from_millis(1_001);
    assert_eq!(
        crash.as_nanos() % HEARTBEAT_PERIOD.as_nanos(),
        SimDuration::from_millis(1).as_nanos(),
        "1 ms after a heartbeat tick"
    );
    let mut net = RingNetSim::for_scenario(spec, &sc, 53);
    net.schedule(ScenarioEvent::ApCrash { at: crash, ap: 0 });
    net.schedule(ScenarioEvent::ApRestart { at: crash, ap: 0 });
    net.run_until(SimTime::from_secs(2));
    let journal = net.finish().journal;
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
    let sc = ScenarioBuilder::figure1(G)
        .sources(2)
        .cbr(SimDuration::from_millis(20))
        .message_limit(20)
        .build();
    let mut spec = ringnet_spec(&sc);
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
    assert_eq!(spec.attachment(3), Some(NodeId(3)));
    let mut net = RingNetSim::for_scenario(spec, &sc, 5);
    // Stations serve handoffs like any attachment entity.
    net.schedule(ScenarioEvent::Handoff {
        at: SimTime::from_millis(300),
        walker: 0,
        to: 3,
    });
    net.run_until(SimTime::from_secs(3));
    let journal = net.finish().journal;
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
    let sc = hierarchy(2, 2, 1, 1)
        .cbr(SimDuration::from_millis(10))
        .build();
    let spec = ringnet_spec(&sc);
    // A BR's core index is its id.
    let (a, b) = (spec.top_ring[0], spec.top_ring[1]);
    let hop = spec.links.top_ring.latency.max_delay();
    let cut = SimTime::from_secs(1);
    assert_eq!(cut.as_nanos() % HEARTBEAT_PERIOD.as_nanos(), 0, "a tick");
    let mut net = RingNetSim::for_scenario(spec, &sc, 7);
    net.schedule(ScenarioEvent::PartitionCore {
        at: cut,
        a: a.0 as usize,
        b: b.0 as usize,
    });
    net.run_until(cut + HEARTBEAT_PERIOD * 6);
    let journal = net.finish().journal;
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

/// A cut on an AG ring, between the leader's next member and the member
/// after it, which the leader's next forwards every ordered message to.
/// Here the downstream member's cumulative `DataAck` stands in for the
/// probe, but only when it covers a frame sent after the last tick. The
/// link goes down 1 ms after a tick, while the ack the downstream member
/// sent at the tick is still crossing it. That ack covers only frames sent
/// before the tick, so it answers nothing, and the upstream member excises
/// the downstream one three periods after the tick, as probes sent every
/// tick would. Counting the stale ack would repair the ring a period late.
/// (The hop out of the leader is not the one to cut: its next member also
/// watches the leader, so both ends would excise each other.)
#[test]
fn ag_ring_cut_at_a_heartbeat_tick_is_repaired_on_the_probe_schedule() {
    let sc = hierarchy(2, 1, 3, 1)
        .cbr(SimDuration::from_millis(10))
        .build();
    let spec = ringnet_spec(&sc);
    let ring = &spec.ag_rings[0].members;
    let (up, down) = (ring[1], ring[2]);
    let tick = SimTime::from_secs(1);
    assert_eq!(tick.as_nanos() % HEARTBEAT_PERIOD.as_nanos(), 0, "a tick");
    let lead = SimDuration::from_millis(1);
    let cut = tick + lead;
    assert!(spec.links.ag_ring.latency.min_delay() > lead, "in flight");
    let mut net = RingNetSim::for_scenario(spec, &sc, 7);
    // Core indices run over the BRs, then the AGs.
    net.schedule(ScenarioEvent::PartitionCore {
        at: cut,
        a: 3,
        b: 4,
    });
    net.run_until(cut + HEARTBEAT_PERIOD * 6);
    let journal = net.finish().journal;
    let repaired: Vec<(SimTime, NodeId, NodeId)> = journal
        .iter()
        .filter_map(|(t, e)| match e {
            ProtoEvent::RingRepaired { node, failed, .. } => Some((*t, *node, *failed)),
            _ => None,
        })
        .collect();
    let due = tick + HEARTBEAT_PERIOD * 3;
    assert_eq!(repaired, vec![(due, up, down)]);
}

#[test]
fn zero_mh_network_runs_clean() {
    let sc = hierarchy(2, 1, 2, 1)
        .walkers_per_attachment(0)
        .sources(2)
        .cbr(SimDuration::from_millis(10))
        .message_limit(50)
        .build();
    let mut net = RingNetSim::build(&sc, 43);
    net.run_until(SimTime::from_secs(3));
    let RunReport { journal, stats, .. } = net.finish();
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
    fn run(cut_uplink: bool) -> (Vec<(SimTime, ProtoEvent)>, simnet::SimStats, Finals, u32) {
        let sc = hierarchy(4, 1, 1, 1)
            .sources(4)
            .groups((1..=4).map(GroupId).collect())
            .cbr(SimDuration::from_millis(10))
            .window(SimTime::ZERO, Some(SimTime::from_millis(1500)))
            .loss_free_wireless()
            .build();
        let spec = ringnet_spec(&sc);
        let ap = spec.aps[0].id;
        let mut net = RingNetSim::for_scenario(spec, &sc, 3);
        let (mh_addr, ap_addr) = (net.addrs.mh(Guid(0)).unwrap(), net.addrs.ne(ap).unwrap());
        // Acks leave every second 5 ms hop tick; 1010 ms is an ack tick that
        // is not also a 50 ms heartbeat tick. Only the uplink drops.
        for (at_ms, up) in [(1009, !cut_uplink), (1011, true)] {
            net.schedule_control(SimTime::from_millis(at_ms), move |w| {
                w.topo.set_link_up(mh_addr, ap_addr, up);
            });
        }
        net.run_until(SimTime::from_secs(2));
        let RunReport {
            journal,
            stats,
            finals,
            ..
        } = net.finish();
        let (_, ap_mq_peak) = finals.buffer_peaks_of(ap).expect("the AP reports");
        (journal, stats, finals, ap_mq_peak)
    }
    let (clean, clean_stats, _, clean_peak) = run(false);
    let (cut, cut_stats, cut_finals, cut_peak) = run(true);

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
    let served = cut_finals.ne.values().filter(|f| f.retransmissions > 0);
    let unrepaired = cut_finals
        .mh
        .values()
        .filter(|c| c.skipped + c.duplicates > 0);
    assert_eq!(served.count() + unrepaired.count(), 0);
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
        let served: u32 = report.finals.ne.values().map(|f| f.retransmissions).sum();
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
    let sc = ScenarioBuilder::figure1(G)
        // 7 ms against the 12 ms rotation: the token wait takes every phase.
        .cbr(SimDuration::from_millis(7))
        .window(SimTime::ZERO, Some(SimTime::from_millis(1500)))
        .links(links.clone())
        .build();
    let spec = ringnet_spec(&sc);
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
    let mut net = RingNetSim::for_scenario(spec, &sc, 7);
    net.run_until(SimTime::from_secs(2));
    let journal = net.finish().journal;
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

/// Theorem 5.1 on the 8-disjoint-ring world (the benchmark's `rings8_ctrl`
/// shape), with each group's tree hung from the BR that assigns its GSNs:
/// every delivery takes exactly its token wait, the BR → AG hop, the AG-ring
/// hops to the walker's AG, the AG → AP hop and the radio hop. No top-ring
/// term is left: the BR whose token visit numbers a message is the one its
/// ring leader grafted under, for all eight groups alike.
#[test]
fn rings8_latency_is_token_wait_plus_the_tree_below_the_assigner_exactly() {
    let (_, sc) = loss_free_static_worlds().swap_remove(1);
    let spec = ringnet_spec(&sc);
    assert_eq!((spec.top_ring.len(), spec.ag_rings.len()), (8, 1));
    let ring = &spec.ag_rings[0].members;
    let delay = |p: &LinkProfile| p.latency.max_delay();
    let links = &spec.links;
    let path_below_assigner: BTreeMap<Guid, SimDuration> = (spec.mhs.iter())
        .map(|mh| {
            let ap = spec.aps.iter().find(|ap| Some(ap.id) == mh.initial_ap);
            let ag = ap.expect("every walker starts at an AP").parent_candidates[0];
            let hops = ring.iter().position(|&m| m == ag).expect("ring member") as u64;
            let path = delay(&links.br_ag)
                + delay(&links.ag_ring) * hops
                + delay(&links.ag_ap)
                + delay(&links.wireless);
            (mh.guid, path)
        })
        .collect();
    let journal = RingNetSim::run_scenario(&sc, 7).journal;
    let mut sent = BTreeMap::new();
    let mut ordered = BTreeMap::new();
    let mut checked = 0;
    for (t, e) in &journal {
        match *e {
            ProtoEvent::SourceSend { source, local_seq } => {
                sent.insert((source, local_seq), *t);
            }
            ProtoEvent::Ordered {
                source, local_seq, ..
            } => {
                ordered.insert((source, local_seq), *t);
            }
            ProtoEvent::MhDeliver {
                mh,
                source,
                local_seq,
                ..
            } => {
                let msg = (source, local_seq);
                let token_wait = ordered[&msg].saturating_since(sent[&msg]);
                assert_eq!(
                    t.saturating_since(sent[&msg]),
                    token_wait + path_below_assigner[&mh],
                    "{mh:?} {msg:?}: residual beyond token wait {token_wait:?} + tree"
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        checked,
        sent.len() * spec.mhs.len(),
        "every walker got every message"
    );
    assert!(sent.len() > 1_000);
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
/// instant of a single ordering or delivery. Re-pinned (was
/// `0x1539_ea2b_0b6f_1715`) when each group's AG ring came to hang from
/// the BR that assigns its GSNs: every delivery of groups 2–8 lost its
/// top-ring hops, which is the point; no ordering instant moved.
const RINGS8_ORDER_AND_DELIVERY: u64 = 0x1726_f10d_1442_8d35;

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
    let total: u64 = (report.finals.ne.values())
        .map(|f| u64::from(f.control_sent))
        .sum();
    assert_eq!(by_kind, total);
    let got = order_and_delivery_digest(&report.journal);
    assert_eq!(
        got, RINGS8_ORDER_AND_DELIVERY,
        "ordering/delivery digest {got:#018x} != pinned {RINGS8_ORDER_AND_DELIVERY:#018x}"
    );
}

/// A node runs one state per group, and each state hands over its own
/// counters: a node's buffer peaks are the largest over its groups, not
/// those of whichever group reports first. On this 4-ring world some node's
/// lowest group does not hold its peak, so a first-record lookup would
/// under-report it.
#[test]
fn buffer_peaks_of_a_multigroup_node_are_the_max_over_its_groups() {
    let (_, sc) = loss_free_static_worlds()
        .into_iter()
        .find(|(name, _)| *name == "fence_overlap_4")
        .expect("the 4-ring world");
    let finals = RingNetSim::run_scenario(&sc, 7).finals;
    let mut per_node: BTreeMap<NodeId, Vec<(u32, u32)>> = BTreeMap::new();
    for (&(_, node), f) in &finals.ne {
        per_node
            .entry(node)
            .or_default()
            .push((f.wq_peak, f.mq_peak));
    }
    let mut first_group_under_reports = false;
    for (node, peaks) in per_node {
        assert_eq!(peaks.len(), 4, "{node:?}: one record per group");
        let max = (peaks.iter()).fold((0, 0), |(wq, mq), &(w, m)| (wq.max(w), mq.max(m)));
        assert_eq!(finals.buffer_peaks_of(node), Some(max), "{node:?}");
        first_group_under_reports |= peaks[0] != max;
    }
    assert!(
        first_group_under_reports,
        "the world separates the two rules"
    );
    assert_eq!(finals.buffer_peaks_of(NodeId(u32::MAX)), None);
}

/// Only live states hand over counters at teardown (see `metrics::Finals`).
/// A killed walker's deliveries stay in the journal but leave
/// `metrics.delivered`, and an entity crashed for good reports nothing — so
/// a crashed AG's control leaves `wired_core_control_sent`. Telemetry is
/// harvested from the dead too.
#[test]
fn finals_come_from_live_states_only() {
    let sc = Scenario::builder()
        .shape(CoreShape::Hierarchy {
            brs: 2,
            rings: 2,
            ags_per_ring: 2,
        })
        .attachments(4)
        .walkers_per_attachment(1)
        .cbr(SimDuration::from_millis(20))
        .loss_free_wireless()
        .duration(SimTime::from_secs(3))
        .telemetry(true)
        .events([
            ScenarioEvent::KillWalker {
                at: SimTime::from_secs(1),
                walker: 0,
            },
            ScenarioEvent::ApCrash {
                at: SimTime::from_secs(1),
                ap: 3,
            },
            // Core index 3: the second AG of the first ring.
            ScenarioEvent::KillCore {
                at: SimTime::from_secs(1),
                index: 3,
            },
        ])
        .build();
    let spec = ringnet_spec(&sc);
    let (crashed_ap, crashed_ag) = (spec.aps[3].id, spec.ag_rings[0].members[1]);
    let report = RingNetSim::run_scenario(&sc, 7);
    let (finals, m) = (&report.finals, &report.metrics);

    let journalled = |who: Option<Guid>| {
        count(
            &report.journal,
            |e| matches!(e, ProtoEvent::MhDeliver { mh, .. } if who.is_none_or(|w| *mh == w)),
        ) as u64
    };
    assert!(
        journalled(Some(Guid(0))) > 0,
        "walker 0 delivered before dying"
    );
    assert!(!finals.mh.keys().any(|&(_, mh)| mh == Guid(0)));
    assert_eq!(m.mhs, 3);
    assert_eq!(m.delivered, journalled(None) - journalled(Some(Guid(0))));

    let reports = |node: NodeId| finals.ne.keys().any(|&(_, n)| n == node);
    assert!(!reports(crashed_ap) && !reports(crashed_ag));
    let core = hierarchy_core(&spec);
    assert!(core.contains(&crashed_ag));
    let live_core_control: u64 = (finals.ne.iter())
        .filter(|((_, n), _)| core.contains(n))
        .map(|(_, f)| u64::from(f.control_sent))
        .sum();
    assert_eq!(m.wired_core_control_sent, live_core_control);

    let t = report.telemetry.as_ref().expect("telemetry is on");
    assert!(t.nodes.contains_key(&crashed_ap) && t.nodes.contains_key(&crashed_ag));
}

/// Two AG rings of three under two BRs, ring `i`'s leader grafted onto
/// BR `i`, 10 ms CBR from BR 0, loss-free radio; a ring partition isolates
/// BR 1 from the ordering ring at 1 s and heals at `heal`.
fn isolated_br1(heal: SimTime) -> Scenario {
    hierarchy(2, 2, 3, 1)
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .events([
            ScenarioEvent::PartitionRing {
                at: SimTime::from_secs(1),
                isolate: 1,
            },
            ScenarioEvent::HealRing {
                at: heal,
                isolate: 1,
            },
        ])
        .build()
}

/// What a run of [`isolated_br1`] journaled: when BR 1 fenced itself and
/// merged back, where and when AG ring 1's leader grafted, and the skips.
struct Isolation {
    fenced: SimTime,
    merged: SimTime,
    leader1_grafts: Vec<(SimTime, NodeId)>,
    ne_skips: BTreeMap<NodeId, Vec<u64>>,
    mh_skips: usize,
}

fn isolation(sc: &Scenario, journal: &[(SimTime, ProtoEvent)]) -> Isolation {
    let leader1 = ringnet_spec(sc).ag_rings[1].members[0];
    let (mut fenced, mut merged) = (None, None);
    let (mut leader1_grafts, mut mh_skips) = (Vec::new(), 0);
    let mut ne_skips: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
    for &(t, e) in journal {
        match e {
            ProtoEvent::RingPartitioned {
                node: NodeId(1), ..
            } => {
                fenced.get_or_insert(t);
            }
            ProtoEvent::RingMerged {
                node: NodeId(1), ..
            } => {
                merged.get_or_insert(t);
            }
            ProtoEvent::Grafted { parent, child, .. } if child == leader1 => {
                leader1_grafts.push((t, parent));
            }
            ProtoEvent::NeSkip { node, gsn, .. } => {
                ne_skips.entry(node).or_default().push(gsn.0);
            }
            ProtoEvent::MhSkip { .. } => mh_skips += 1,
            _ => {}
        }
    }
    Isolation {
        fenced: fenced.expect("BR 1 fences itself"),
        merged: merged.expect("BR 1 merges back"),
        leader1_grafts,
        ne_skips,
        mh_skips,
    }
}

/// A BR's isolation costs its subtree nothing. BR 1, fenced on the
/// minority side, stops answering its children, so AG ring 1's leader
/// misses three probes and fails over to its next candidate, BR 0, the
/// primary. BR 0 kept its `MQ` at BR 1's last ack for one failover window
/// after excising BR 1 and replays the leader's resume point from it: no
/// AG, AP or walker of ring 1 skips. BR 1 itself, left without children,
/// still skips at the merge the 100 GSNs BR 0 ordered meanwhile, every one
/// delivered by every walker: the window closed long before (ROADMAP
/// item 3).
#[test]
fn a_ring_under_an_isolated_br_fails_over_to_the_primary() {
    let sc = isolated_br1(SimTime::from_secs(2));
    let spec = ringnet_spec(&sc);
    assert_eq!(spec.ag_rings[1].parent_candidates, [NodeId(1), NodeId(0)]);
    let report = RingNetSim::run_scenario(&sc, 7);
    let journal = &report.journal;
    let iso = isolation(&sc, journal);
    let window = HEARTBEAT_PERIOD * 5;
    assert!(
        matches!(iso.leader1_grafts[..], [(_, NodeId(1)), (t, NodeId(0))]
            if t > iso.fenced && t < iso.fenced + window),
        "ring 1's leader fails over to BR 0 within the window: {:?}",
        iso.leader1_grafts
    );
    let gap = iso.ne_skips.get(&NodeId(1)).cloned().unwrap_or_default();
    assert_eq!(
        iso.ne_skips.keys().copied().collect::<Vec<_>>(),
        [NodeId(1)],
        "only BR 1 skips"
    );
    assert_eq!(
        gap,
        (100..200).collect::<Vec<_>>(),
        "BR 1 skips at the merge"
    );
    let ordered_meanwhile: BTreeSet<u64> = (journal.iter())
        .filter_map(|(t, e)| match *e {
            ProtoEvent::Ordered { node, gsn, .. }
                if *t >= SimTime::from_secs(1) && *t < iso.merged =>
            {
                assert_eq!(node, NodeId(0), "only the primary orders");
                Some(gsn.0)
            }
            _ => None,
        })
        .collect();
    assert!(gap.iter().all(|g| ordered_meanwhile.contains(g)));
    assert_eq!(iso.mh_skips, 0);
    for g in &gap {
        let got = count(
            journal,
            |e| matches!(e, ProtoEvent::MhDeliver { gsn, .. } if gsn.0 == *g),
        );
        assert_eq!(got, spec.mhs.len(), "GSN {g}");
    }
    assert_eq!(ringnet_core::metrics::order_violations(journal), 0);
}

/// The same isolation healed at 1.2 s, after BR 1 fenced itself at 1.15 s
/// but before AG ring 1's leader has missed it three times. BR 1 merges
/// back and answers again, so the leader stays grafted onto it, and its
/// NACKs for what BR 0 ordered meanwhile are served from what BR 0 still
/// holds at BR 1's last ack: nothing is skipped anywhere.
#[test]
fn a_partition_healed_before_the_failover_skips_nothing() {
    let sc = isolated_br1(SimTime::from_millis(1_200));
    let report = RingNetSim::run_scenario(&sc, 7);
    let iso = isolation(&sc, &report.journal);
    assert_eq!(iso.fenced, SimTime::from_millis(1_150));
    assert!(
        iso.merged < iso.fenced + HEARTBEAT_PERIOD * 2,
        "{:?}",
        iso.merged
    );
    assert_eq!(
        iso.leader1_grafts.iter().map(|g| g.1).collect::<Vec<_>>(),
        [NodeId(1)],
        "one graft"
    );
    assert_eq!(iso.ne_skips, BTreeMap::new());
    assert_eq!(iso.mh_skips, 0);
    assert_eq!(ringnet_core::metrics::order_violations(&report.journal), 0);
}

/// A cut between an AG ring's leader and its next member, pinned as a
/// finding: nothing dies, yet both ends excise each other and part of the
/// subtree skips. On a loss-free 3-AG ring under two BRs (AGs 2, 3, 4,
/// one AP and one walker each) the link AG 2 – AG 3 goes down for good at
/// 1.001 s. AG 3 watches its leader AG 2 through AG 2's data, and AG 2
/// probes its next member AG 3: both go unanswered, and at the same tick
/// each excises the other and bypasses it to AG 4. Lower rings have no
/// merge path, so the two live views stay apart. AG 3 leads its view and
/// grafts onto BR 0, and AG 4 grafts onto BR 0 too. AGs 3 and 4, the APs
/// below them and their walkers each skip 13 GSNs, every one of which
/// walker 0, under AG 2, delivered.
#[test]
fn a_cut_between_an_ag_ring_leader_and_its_next_makes_each_excise_the_other() {
    let cut = SimTime::from_millis(1_001);
    let sc = hierarchy(2, 1, 3, 1)
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        // Core indices run over the BRs, then the AGs: AG 2 and AG 3.
        .events([ScenarioEvent::PartitionCore {
            at: cut,
            a: 2,
            b: 3,
        }])
        .build();
    let spec = ringnet_spec(&sc);
    assert_eq!(spec.ag_rings[0].members, [2, 3, 4].map(NodeId));
    let report = RingNetSim::run_scenario(&sc, 7);
    let journal = &report.journal;
    let repaired: Vec<(SimTime, NodeId, NodeId)> = (journal.iter())
        .filter_map(|(t, e)| match *e {
            ProtoEvent::RingRepaired { node, failed, .. } => Some((*t, node, failed)),
            _ => None,
        })
        .collect();
    let due = SimTime::from_millis(1_150);
    assert_eq!(
        repaired,
        [(due, NodeId(2), NodeId(3)), (due, NodeId(3), NodeId(2))],
        "each end of the cut excises the other"
    );
    let late_grafts: Vec<(NodeId, NodeId)> = (journal.iter())
        .filter_map(|(t, e)| match *e {
            ProtoEvent::Grafted { parent, child, .. } if *t > cut => Some((child, parent)),
            _ => None,
        })
        .collect();
    assert_eq!(
        late_grafts,
        [(NodeId(3), NodeId(0)), (NodeId(4), NodeId(0))]
    );
    let mut ne_skips: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut mh_skips: BTreeMap<Guid, usize> = BTreeMap::new();
    let mut skipped = BTreeSet::new();
    let mut walker0 = BTreeSet::new();
    for (_, e) in journal {
        match *e {
            ProtoEvent::NeSkip { node, gsn, .. } => {
                *ne_skips.entry(node).or_default() += 1;
                skipped.insert(gsn);
            }
            ProtoEvent::MhSkip { mh, .. } => *mh_skips.entry(mh).or_default() += 1,
            ProtoEvent::MhDeliver {
                mh: Guid(0), gsn, ..
            } => {
                walker0.insert(gsn);
            }
            _ => {}
        }
    }
    assert_eq!(skipped.len(), 13, "the same GSNs at every skipper");
    assert!(skipped.is_subset(&walker0), "walker 0 delivered them all");
    // ROADMAP item 3, "a skip means the data is gone": nothing was lost,
    // so a fix (a merge path for lower rings, or a cut that convicts only
    // one end) empties both maps and turns this finding into its test.
    assert_eq!(ne_skips, [3, 4, 6, 7].map(|n| (NodeId(n), 13)).into());
    assert_eq!(mh_skips, [1, 2].map(|w| (Guid(w), 13)).into());
    assert_eq!(report.metrics.delivered, 1_471);
    assert_eq!(ringnet_core::metrics::order_violations(journal), 0);
}
