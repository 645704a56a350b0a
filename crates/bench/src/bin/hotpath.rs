//! Hot-path audit: wall time, allocations, control messages and wire
//! packets per simulated delivery for the fabric's two flagship workloads,
//! plus a CI assertion mode.
//!
//! ```text
//! cargo run --release -p ringnet-bench --bin hotpath            # report
//! cargo run --release -p ringnet-bench --bin hotpath -- check   # CI gate
//! ```
//!
//! `check` asserts `allocs_per_delivery`, `control_per_delivery`,
//! `packets_per_delivery` and `events_per_delivery` stay within the pinned
//! golden tolerances below, so an allocation regression on the sim path, a
//! control plane or a radio hop that starts talking more, or an entity
//! that starts waking for nothing, fails the build even when wall time is
//! too noisy to trip anything.
//!
//! In both modes the last line of standard output is the rows as one JSON
//! array: the `hotpath` block of a `BENCH_ringnet.json` entry.

use harness::report::json;
use ringnet_bench::alloc::CountingAlloc;
use ringnet_bench::suites::{hotpath_scenarios, HotpathRow};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What `check` gates, in the order of each scenario's ceilings.
const GATED: [&str; 4] = ["allocs", "control messages", "wire packets", "events"];

/// Pinned golden ceilings per scenario, per delivery: allocator calls,
/// wired-core control messages, wire packets, simulator events.
///
/// * **Allocations** (calls, not bytes). Measured after the copy-free
///   fabric work: 0.119 (128-walker second, down from 1.562) and 0.336
///   (multigroup R=4, down from 3.323); then 0.117 and 0.138 once the
///   Order-Assignment tick kept its merge buffer (per-hop control framing
///   and its burst pool included); then 0.112 and 0.111 with event-driven
///   Order-Assignment (no merge buffer at all, no funnel batch `Vec`, and
///   no NACK/retransmit pairs on a loss-free ring); then 0.073 and 0.084
///   once a drained calendar bucket passed its buffer on instead of each
///   of the 256 buckets growing its own (measured 0.114 and 0.108 before,
///   under ceilings of 0.15); multigroup R=4 0.103 once its sources stop
///   500 ms before its 2 s end, so that the row divides by the 48 000
///   deliveries of every message to every walker, not by the 62 400 that
///   happened to land before the cut (ceiling 0.10 → 0.125). Keep a comfortable margin (20–30 %) over the
///   measured value so noise never trips the gate, while per-bucket
///   buffers coming back, a restored per-delivery clone or a new
///   per-event allocation — always ≥ 1.0 per delivery — still does.
/// * **Control messages.** A deterministic count, so the margin is thin
///   (~5 %): measured 0.0607 and 0.1376 with one cumulative ack per hop,
///   sent when its front has moved (were 0.0758 and 0.4462 while every hop
///   acknowledged on the `ack_every` clock, ordered stream and every
///   pre-order stream alike); then 0.0456 and 0.0722 once traffic answers
///   the liveness probes (no ring heartbeat where the token answered, no
///   parent heartbeat where the parent's frames did); then 0.0397 and
///   0.0678 once an AG ring's acknowledged data answers the probe to its
///   next member too (were ceilings 0.048 and 0.076), so AG-ring probing
///   on every tick coming back trips it; then 0.0377 and 0.0646 once a
///   lower ring's leader stopped acknowledging the ring's last member,
///   which keeps no `MQ` for it (were ceilings 0.041 and 0.070), so that
///   ack stream coming back trips it; then 0.0367 and 0.0596 once an AG
///   ring's leader is watched by its next member, whose data it is,
///   instead of probed by the last member (were ceilings 0.039 and
///   0.067), so the closing hop's probes coming back trip it; the
///   128-walker second 0.0368 once `AG_RING_CAP` went from 11 to 4 and
///   split its 8 AGs into two rings (was 0.0367, so its ceilings stay);
///   multigroup R=4 0.0816 on the drained window, whose last 500 ms still
///   probe and acknowledge with nothing to deliver (ceiling 0.062 →
///   0.086).
/// * **Wire packets**, wireless hop included, a frame or burst counting
///   once. Deterministic, so the margin is thin (~2 %): measured 1.7926
///   and 3.3789 once an MH's ack became its liveness beacon (were 1.9226
///   and 3.3890 while every MH also sent a heartbeat its AP answered), so
///   a second MH ↔ AP exchange coming back trips it; multigroup R=4
///   3.3605 once each group's AG ring hung from the BR that assigns its
///   GSNs (was 3.3746, under a ceiling of 3.45); 3.3674 on the drained
///   window, under the same ceiling; 1.7438 and 3.3508 once an MH restates
///   an unmoved front only every second ack tick (were 1.7838 and 3.3674,
///   under ceilings of 1.83 and 3.43). The ceilings went to 1.78 (2 %
///   margin) and 3.36 (0.27 %, all the room R=4's old figure leaves), so
///   an ack on every ack tick coming back trips both.
/// * **Events** — packets, timers and controls the simulator dispatched.
///   Deterministic, so the margin is thin (~0.5 %): measured 1.4378 and
///   2.8991 once an MH wakes only when an ack or a NACK is due (were
///   1.7711 and 2.9246 while every MH woke on every hop tick), so an idle
///   wake chain coming back trips it; multigroup R=4 2.8863 once each
///   group's AG ring hung from the BR that assigns its GSNs (was 2.8944,
///   under a ceiling of 2.91); 2.9403 on the drained window (ceiling
///   2.90 → 2.955); 1.3479 and 2.9072 once an MH sends fewer acks and
///   sleeps to the tick its ack is due, the beacon when its front has not
///   moved (were 1.4246 and 2.9403; 1.3871 and 2.9238 with the fewer acks
///   alone). The ceilings went to 1.355 and 2.92 (0.5 % and 0.4 %), so
///   either an MH waking on every ack tick or its extra acks coming back
///   trips them.
///
/// Regenerate with `hotpath` after deliberate changes.
const CEILINGS: &[(&str, [f64; 4])] = &[
    (
        "ringnet_128_walkers_one_sim_second",
        [0.095, 0.038, 1.78, 1.355],
    ),
    ("multigroup_throughput_rings_4", [0.125, 0.086, 3.36, 2.92]),
];

/// Every measured value over its pinned ceiling, and every pinned
/// scenario not measured.
fn failures(rows: &[HotpathRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(name, ceilings) in CEILINGS {
        let Some(row) = rows.iter().find(|r| r.name == name) else {
            failures.push(format!("pinned scenario {name} was not measured"));
            continue;
        };
        let measured = [
            row.allocs_per_delivery,
            row.control_per_delivery,
            row.packets_per_delivery,
            row.events_per_delivery,
        ];
        for ((what, got), max) in GATED.iter().zip(measured).zip(ceilings) {
            if got > max {
                failures.push(format!(
                    "{name}: {got:.4} {what}/delivery exceeds the pinned ceiling {max:.4}"
                ));
            }
        }
    }
    failures
}

/// The rows as one JSON array on one line.
fn json_line(rows: &[HotpathRow]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|h| {
            format!(
                "{{\"name\": {}, \"wall_ms\": {:.2}, \"delivered\": {}, \
                 \"allocs_per_delivery\": {:.3}, \"alloc_bytes_per_delivery\": {:.1}, \
                 \"control_per_delivery\": {:.4}, \"packets_per_delivery\": {:.4}, \
                 \"events_per_delivery\": {:.4}}}",
                json::string(&h.name),
                h.wall_ms,
                h.delivered,
                h.allocs_per_delivery,
                h.alloc_bytes_per_delivery,
                h.control_per_delivery,
                h.packets_per_delivery,
                h.events_per_delivery,
            )
        })
        .collect();
    format!("[{}]", objects.join(", "))
}

fn main() {
    let check = std::env::args().any(|a| a == "check");
    let rows = hotpath_scenarios();
    println!(
        "{:<42} {:>12} {:>12} {:>14} {:>16} {:>12} {:>14} {:>13}",
        "scenario",
        "wall_ms",
        "delivered",
        "allocs/deliv",
        "alloc_kb/deliv",
        "ctl/deliv",
        "packets/deliv",
        "events/deliv"
    );
    for row in &rows {
        println!(
            "{:<42} {:>12.2} {:>12} {:>14.3} {:>16.3} {:>12.4} {:>14.4} {:>13.4}",
            row.name,
            row.wall_ms,
            row.delivered,
            row.allocs_per_delivery,
            row.alloc_bytes_per_delivery / 1024.0,
            row.control_per_delivery,
            row.packets_per_delivery,
            row.events_per_delivery
        );
    }
    let failures = if check { failures(&rows) } else { Vec::new() };
    if check && failures.is_empty() {
        println!("hot-path audit clean ({} scenarios)", rows.len());
    }
    println!("{}", json_line(&rows));
    if !failures.is_empty() {
        eprintln!("hot-path audit FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, packets: f64, events: f64) -> HotpathRow {
        HotpathRow {
            name: name.into(),
            wall_ms: 12.0,
            delivered: 1000,
            allocs_per_delivery: 0.073,
            alloc_bytes_per_delivery: 166.0,
            control_per_delivery: 0.0377,
            packets_per_delivery: packets,
            events_per_delivery: events,
        }
    }

    #[test]
    fn json_line_renders_every_row() {
        let line = json_line(&[
            row("flagship", 1.7926, 1.4378),
            row("flagship", 1.7926, 1.4378),
        ]);
        assert!(line.starts_with("[{\"name\": \"flagship\", \"wall_ms\": 12.00"));
        assert!(line.contains("\"allocs_per_delivery\": 0.073"));
        assert!(line.contains(
            "\"control_per_delivery\": 0.0377, \"packets_per_delivery\": 1.7926, \
             \"events_per_delivery\": 1.4378}, {"
        ));
        assert!(line.ends_with("}]") && !line.contains('\n'));
    }

    #[test]
    fn check_fails_a_value_over_its_ceiling_and_a_missing_scenario() {
        let flagship = row("ringnet_128_walkers_one_sim_second", 1.7438, 1.3479);
        let rings_4 = row("multigroup_throughput_rings_4", 3.3508, 2.9072);
        assert!(failures(&[flagship.clone(), rings_4.clone()]).is_empty());
        let over = row("ringnet_128_walkers_one_sim_second", 1.9226, 1.3479);
        assert_eq!(failures(&[over, rings_4.clone()]).len(), 1);
        // An MH that acks on every ack tick, and one that wakes on every
        // ack tick, as measured before each half of that change.
        let every_ack_tick = row("ringnet_128_walkers_one_sim_second", 1.7838, 1.4246);
        assert_eq!(failures(&[every_ack_tick, rings_4.clone()]).len(), 2);
        let waking = row("ringnet_128_walkers_one_sim_second", 1.7438, 1.3871);
        assert_eq!(failures(&[waking, rings_4.clone()]).len(), 1);
        let every_ack_tick = row("multigroup_throughput_rings_4", 3.3674, 2.9403);
        assert_eq!(failures(&[flagship.clone(), every_ack_tick]).len(), 2);
        let waking = row("multigroup_throughput_rings_4", 3.3508, 2.9238);
        assert_eq!(failures(&[flagship.clone(), waking]).len(), 1);
        let ag_probing = HotpathRow {
            control_per_delivery: 0.0456,
            ..flagship.clone()
        };
        assert_eq!(failures(&[ag_probing, rings_4.clone()]).len(), 1);
        let closing_hop_acked = HotpathRow {
            control_per_delivery: 0.0397,
            ..flagship.clone()
        };
        assert_eq!(failures(&[closing_hop_acked, rings_4.clone()]).len(), 1);
        // The R=4 regressions measured on its 2 s cut, as counts over the
        // drained row's 48 000 deliveries: 312 closing-hop probes
        // (0.0646 − 0.0596 of 62 400) and 1 498 per-bucket allocations
        // (0.108 − 0.084 of 62 400).
        let closing_hop_probed = HotpathRow {
            control_per_delivery: 0.0816 + 312.0 / 48_000.0,
            ..rings_4.clone()
        };
        assert_eq!(failures(&[flagship.clone(), closing_hop_probed]).len(), 1);
        let per_bucket_buffers = HotpathRow {
            allocs_per_delivery: 0.114,
            ..flagship.clone()
        };
        assert_eq!(failures(&[per_bucket_buffers, rings_4.clone()]).len(), 1);
        let per_bucket_buffers = HotpathRow {
            allocs_per_delivery: 0.103 + 1_498.0 / 48_000.0,
            ..rings_4.clone()
        };
        assert_eq!(failures(&[flagship.clone(), per_bucket_buffers]).len(), 1);
        let every_tick = row("ringnet_128_walkers_one_sim_second", 1.7438, 1.7711);
        assert_eq!(failures(&[every_tick, rings_4]).len(), 1, "idle wakes");
        assert_eq!(failures(&[flagship]).len(), 1, "rings_4 was not measured");
    }
}
