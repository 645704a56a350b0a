//! T1 — Theorem 5.1, throughput claim.
//!
//! "Compared with the multicast protocol without ordering requirement, our
//! totally-ordered multicast protocol provides the same multicast
//! throughput as s·λ messages each time unit." We run both protocols on
//! one scenario — the same `HierarchySpec`, entity for entity and link for
//! link — measure the steady per-MH delivery rate and compare it with the
//! offered load s·λ.
//!
//! The rates are counted *online* through the journal sink with retention
//! off (like the streaming metrics accumulator) — the full-mode sweeps
//! never materialize a journal.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use baselines::UnorderedSim;
use ringnet_core::driver::{CoreShape, MulticastSim, Scenario, ScenarioBuilder};
use ringnet_core::{ProtoEvent, RingNetSim};
use simnet::{Journal, SimDuration, SimTime};

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
) -> Rc<RefCell<RateCounter>> {
    let counter = Rc::new(RefCell::new(RateCounter {
        in_window: 0,
        mhs: BTreeSet::new(),
    }));
    let sink = Rc::clone(&counter);
    journal.add_sink(move |t, e| {
        if let ProtoEvent::MhDeliver { mh, .. } = e {
            let mut c = sink.borrow_mut();
            c.mhs.insert(mh.0);
            if t >= warmup && t <= duration {
                c.in_window += 1;
            }
        }
    });
    counter
}

fn finish_rate(counter: &RefCell<RateCounter>, warmup: SimTime, duration: SimTime) -> f64 {
    let span = duration.saturating_since(warmup).as_secs_f64();
    let c = counter.borrow();
    if c.mhs.is_empty() || span <= 0.0 {
        return 0.0;
    }
    c.in_window as f64 / c.mhs.len() as f64 / span
}

/// The one world both protocols run on: 4 BRs over 2 rings × 2 AGs, one
/// AP per AG with one MH each, `s` CBR sources of `lambda` msg/s, loss-free
/// links.
fn world(s: usize, lambda: f64, duration: SimTime) -> Scenario {
    ScenarioBuilder::new()
        .shape(CoreShape::Hierarchy {
            brs: 4,
            rings: 2,
            ags_per_ring: 2,
        })
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(s)
        .cbr(SimDuration::from_secs_f64(1.0 / lambda))
        .loss_free_wireless()
        .retain_journal(false)
        .duration(duration)
        .build()
}

/// Steady per-MH delivery rate of backend `S` on `world`.
fn rate<S: MulticastSim>(
    world: &Scenario,
    journal_of: fn(&mut S) -> &mut Journal<ProtoEvent>,
    warmup: SimTime,
) -> f64 {
    let mut net = S::build(world, 42);
    let counter = install_rate_counter(journal_of(&mut net), warmup, world.duration);
    net.run_until(world.duration);
    let _ = net.finish();
    finish_rate(&counter, warmup, world.duration)
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
        let world = world(s, lambda, duration);
        let ord = rate(&world, RingNetSim::journal_mut, warmup);
        let unord = rate(&world, |s: &mut UnorderedSim| s.0.journal_mut(), warmup);
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
