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
use ringnet_repro::core::driver::{MulticastSim, RunReport, ScenarioBuilder};
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
