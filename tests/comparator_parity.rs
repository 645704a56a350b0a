//! Comparator parity: the unordered baseline rides *RingNet's* vehicle.
//!
//! Theorem 5.1 / Remark 3 compare total order against "the multicast
//! protocol without ordering requirement" on the same distribution tree,
//! so E4's "the latency difference is the price of total order" only holds
//! if every tree hop of the unordered world draws the `LinkPlan` profile
//! the ordered world draws. The plan below gives all six scopes a
//! different latency and lengthens the three tree scopes one at a time.

use std::collections::BTreeMap;

use ringnet_repro::baselines::UnorderedSim;
use ringnet_repro::core::driver::{CoreShape, MulticastSim, RunReport, Scenario, ScenarioBuilder};
use ringnet_repro::core::hierarchy::LinkPlan;
use ringnet_repro::core::ProtoEvent;
use ringnet_repro::simnet::{LinkProfile, SimDuration, SimTime};

/// Six distinct latencies, every link loss- and jitter-free.
fn plan() -> LinkPlan {
    let wired = |us| LinkProfile::wired(SimDuration::from_micros(us));
    LinkPlan {
        top_ring: wired(5_000),
        ag_ring: wired(2_000),
        br_ag: wired(3_000),
        ag_ap: wired(1_000),
        wireless: wired(4_000),
        source: wired(100),
    }
}

fn run(links: LinkPlan) -> RunReport {
    let sc = ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(1)
        .cbr(SimDuration::from_millis(20))
        .message_limit(20)
        // The tree forms by graft: the sources start once it has.
        .window(SimTime::from_millis(200), None)
        .links(links)
        .duration(SimTime::from_secs(2))
        .build();
    let report = UnorderedSim::run_scenario(&sc, 11);
    assert_eq!(report.metrics.delivered, 4 * 20, "loss-free world");
    report
}

/// Exact median of source-send → delivery latency, and the instant of the
/// first delivery.
fn p50_and_first_delivery(report: &RunReport) -> (SimDuration, SimTime) {
    let mut sent = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut first = None;
    for &(t, ref e) in &report.journal {
        match *e {
            ProtoEvent::SourceSend { source, local_seq } => {
                sent.insert((source, local_seq), t);
            }
            ProtoEvent::MhDeliver {
                source, local_seq, ..
            } => {
                latencies.push(t.saturating_since(sent[&(source, local_seq)]));
                first.get_or_insert(t);
            }
            _ => {}
        }
    }
    latencies.sort_unstable();
    (latencies[latencies.len() / 2], first.expect("delivered"))
}

/// Every walker's path crosses exactly one BR→AG-leader hop and one AG→AP
/// hop, so lengthening either scope by `delta` moves the median latency by
/// exactly `delta`. The source link sits *before* the `SourceSend` record
/// (stamped when the corresponding BR takes the message in), so it moves
/// the whole timeline instead: same latency, first delivery `delta` later.
#[test]
fn unordered_latency_follows_br_ag_ag_ap_and_source_links() {
    let delta = SimDuration::from_millis(7);
    let (base_p50, base_first) = p50_and_first_delivery(&run(plan()));

    let lengthened = |scope: fn(&mut LinkPlan) -> &mut LinkProfile| {
        let mut links = plan();
        let profile = scope(&mut links);
        *profile = LinkProfile::wired(profile.latency.min_delay() + delta);
        p50_and_first_delivery(&run(links))
    };

    let (p50, _) = lengthened(|l| &mut l.br_ag);
    assert_eq!(p50, base_p50 + delta, "links.br_ag is on the tree");
    let (p50, _) = lengthened(|l| &mut l.ag_ap);
    assert_eq!(p50, base_p50 + delta, "links.ag_ap is on the tree");
    let (p50, first) = lengthened(|l| &mut l.source);
    assert_eq!(p50, base_p50, "the source link precedes SourceSend");
    assert_eq!(first, base_first + delta, "links.source feeds the tree");
}

/// T1's and E4's world: 4 BRs over 2 rings × 2 AGs, one walker per
/// attachment, `s` CBR sources of 100 msg/s from 200 ms, loss-free.
fn theorem_world(s: usize) -> Scenario {
    ScenarioBuilder::new()
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings: 2,
            ags_per_ring: 2,
        })
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(s)
        .cbr(SimDuration::from_millis(10))
        .window(SimTime::from_millis(200), None)
        .loss_free_wireless()
        .duration(SimTime::from_secs(1))
        .build()
}

/// The slowest delivery of each `(walker, source)` pair.
fn slowest_per_walker_and_source(report: &RunReport) -> BTreeMap<(u32, u32), SimDuration> {
    let mut sent = BTreeMap::new();
    let mut slowest = BTreeMap::new();
    for &(t, ref e) in &report.journal {
        match *e {
            ProtoEvent::SourceSend { source, local_seq } => {
                sent.insert((source, local_seq), t);
            }
            ProtoEvent::MhDeliver {
                mh,
                source,
                local_seq,
                ..
            } => {
                let latency = t.saturating_since(sent[&(source, local_seq)]);
                let worst = slowest.entry((mh.0, source.0)).or_insert(latency);
                *worst = latency.max(*worst);
            }
            _ => {}
        }
    }
    slowest
}

/// Per source count `s` and source, walkers 0–3's slowest delivery in ms.
/// Each is the sum of the tree path's link delays from the source's BR:
/// BR → AG leader 3, along the AG ring 2, AG → AP 1, the radio 2, and 5
/// for the one top-ring hop to a relay BR. AG ring 0 lists BRs 0 and 1
/// as its candidate parents, ring 1 BRs 1 and 2.
///
/// Source 0's rows are the old comparator's. The others moved when the
/// comparator came to run on the RingNet engine, where an AG ring hangs
/// from the stream's entry BR whenever that BR is a candidate, and from
/// its first candidate, a relay one top-ring hop from the entry BR,
/// otherwise. The old comparator forwarded every stream around the top
/// ring to each ring's first candidate. None is slower:
/// - s = 2 and 4, source 1: walkers 0 and 1 were 21 and 23 (three
///   top-ring hops to BR 0); ring 0 now hangs from BR 1 itself.
/// - s = 4, source 2: walkers 0 and 1 were 16 and 18 (two hops to BR 0),
///   now one; walkers 2 and 3 were 21 and 23 (three hops to BR 1); ring 1
///   now hangs from BR 2 itself.
/// - s = 4, source 3: walkers 2 and 3 were 16 and 18 (two hops to BR 1),
///   now one.
const PATH_LATENCY_MS: &[(usize, u32, [u64; 4])] = &[
    (1, 0, [6, 8, 11, 13]),
    (2, 0, [6, 8, 11, 13]),
    (2, 1, [6, 8, 6, 8]),
    (4, 0, [6, 8, 11, 13]),
    (4, 1, [6, 8, 6, 8]),
    (4, 2, [11, 13, 6, 8]),
    (4, 3, [11, 13, 11, 13]),
];

/// The comparator's latency oracle: on the world T1 and E4 run, every
/// walker hears every source at exactly its tree path's latency.
#[test]
fn each_walker_hears_each_source_at_its_tree_path_latency() {
    let mut got = Vec::new();
    for s in [1, 2, 4] {
        let slowest =
            slowest_per_walker_and_source(&UnorderedSim::run_scenario(&theorem_world(s), 3));
        for source in 0..s as u32 {
            let ms = |w: u32| {
                let latency = slowest[&(w, source)];
                assert_eq!(latency.as_nanos() % 1_000_000, 0, "whole ms: {latency}");
                latency.as_nanos() / 1_000_000
            };
            got.push((s, source, [ms(0), ms(1), ms(2), ms(3)]));
        }
    }
    assert_eq!(got, PATH_LATENCY_MS);
}
