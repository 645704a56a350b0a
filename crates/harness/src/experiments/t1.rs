//! T1 — Theorem 5.1, throughput claim.
//!
//! "Compared with the multicast protocol without ordering requirement, our
//! totally-ordered multicast protocol provides the same multicast
//! throughput as s·λ messages each time unit." We run both protocols on
//! the same hierarchy and traffic, measure the steady per-MH delivery rate
//! and compare it with the offered load s·λ.
//!
//! The rates are counted *online* through the journal sink with retention
//! off (like the streaming metrics accumulator) — the full-mode sweeps
//! never materialize a journal.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use baselines::unordered::{UnorderedSim, UnorderedSpec};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{GroupId, HierarchyBuilder, ProtoEvent, RingNetSim};
use simnet::{Journal, SimDuration, SimTime};

use crate::experiments::loss_free_links;
use crate::report::{fnum, Table};

/// Streaming substitute for `metrics::delivery_rate`: count per-MH
/// deliveries inside `[warmup, duration]` as records are emitted, divide
/// by the number of MHs that delivered anything and the window span.
struct RateCounter {
    in_window: u64,
    mhs: BTreeSet<u32>,
}

fn install_rate_counter(
    journal: &mut Journal<ProtoEvent>,
    warmup: SimTime,
    duration: SimTime,
) -> Arc<Mutex<RateCounter>> {
    let counter = Arc::new(Mutex::new(RateCounter {
        in_window: 0,
        mhs: BTreeSet::new(),
    }));
    let sink = Arc::clone(&counter);
    journal.set_retention(false);
    journal.add_sink(move |t, e| {
        if let ProtoEvent::MhDeliver { mh, .. } = e {
            let mut c = sink.lock().expect("rate counter poisoned");
            c.mhs.insert(mh.0);
            if t >= warmup && t <= duration {
                c.in_window += 1;
            }
        }
    });
    counter
}

fn finish_rate(counter: &Mutex<RateCounter>, warmup: SimTime, duration: SimTime) -> f64 {
    let span = duration.saturating_since(warmup).as_secs_f64();
    let c = counter.lock().expect("rate counter poisoned");
    if c.mhs.is_empty() || span <= 0.0 {
        return 0.0;
    }
    c.in_window as f64 / c.mhs.len() as f64 / span
}

fn ordered_rate(s: usize, lambda: f64, duration: SimTime, warmup: SimTime) -> f64 {
    let spec = HierarchyBuilder::new(GroupId(1))
        .brs(4)
        .ag_rings(2, 2)
        .aps_per_ag(1)
        .mhs_per_ap(1)
        .sources(s)
        .source_pattern(TrafficPattern::Cbr {
            interval: SimDuration::from_secs_f64(1.0 / lambda),
        })
        .links(loss_free_links())
        .build();
    let mut net = RingNetSim::build(spec, 42);
    let counter = install_rate_counter(net.journal_mut(), warmup, duration);
    net.run_until(duration);
    let _ = net.finish();
    finish_rate(&counter, warmup, duration)
}

fn unordered_rate(s: usize, lambda: f64, duration: SimTime, warmup: SimTime) -> f64 {
    let mut spec = UnorderedSpec::new();
    spec.brs = 4;
    spec.ag_rings = (2, 2);
    spec.aps_per_ag = 1;
    spec.mhs_per_ap = 1;
    spec.sources = s;
    spec.pattern = TrafficPattern::Cbr {
        interval: SimDuration::from_secs_f64(1.0 / lambda),
    };
    spec.links.2 = simnet::LinkProfile::wired(SimDuration::from_millis(2));
    let mut net = UnorderedSim::build(spec, 42);
    let counter = install_rate_counter(&mut net.sim.world().journal, warmup, duration);
    net.run_until(duration);
    let _ = net.finish();
    finish_rate(&counter, warmup, duration)
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "T1",
        "Theorem 5.1 — throughput: ordered vs unordered, target s·λ",
        &[
            "s",
            "λ (msg/s)",
            "target s·λ",
            "ordered",
            "unordered",
            "ord/target",
        ],
    );
    let sweeps: Vec<(usize, f64)> = if quick {
        vec![(1, 50.0), (2, 50.0)]
    } else {
        vec![
            (1, 50.0),
            (2, 50.0),
            (4, 50.0),
            (1, 200.0),
            (2, 200.0),
            (4, 200.0),
        ]
    };
    let duration = SimTime::from_secs(if quick { 4 } else { 8 });
    let warmup = SimTime::from_secs(1);
    let mut worst_ratio: f64 = 1.0;
    for (s, lambda) in sweeps {
        let target = s as f64 * lambda;
        let ord = ordered_rate(s, lambda, duration, warmup);
        let unord = unordered_rate(s, lambda, duration, warmup);
        let ratio = ord / target;
        worst_ratio = worst_ratio.min(ratio);
        table.row(vec![
            s.to_string(),
            fnum(lambda),
            fnum(target),
            fnum(ord),
            fnum(unord),
            format!("{ratio:.3}"),
        ]);
    }
    table.note(format!(
        "paper: identical throughput s·λ for both protocols; worst ordered/target ratio {worst_ratio:.3}"
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_sustains_offered_load() {
        let t = run(true);
        for row in &t.rows {
            let target: f64 = row[2].parse().unwrap();
            let ordered: f64 = row[3].parse().unwrap();
            let unordered: f64 = row[4].parse().unwrap();
            assert!(
                (ordered - target).abs() / target < 0.05,
                "ordered rate {ordered} vs target {target}"
            );
            assert!(
                (unordered - target).abs() / target < 0.05,
                "unordered rate {unordered} vs target {target}"
            );
        }
    }
}
