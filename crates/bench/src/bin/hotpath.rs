//! Hot-path audit: wall time, allocations *and* control messages per
//! simulated delivery for the fabric's two flagship workloads, plus a CI
//! assertion mode.
//!
//! ```text
//! cargo run --release -p ringnet-bench --bin hotpath            # report
//! cargo run --release -p ringnet-bench --bin hotpath -- check   # CI gate
//! ```
//!
//! `check` asserts `allocs_per_delivery`, `control_per_delivery` and
//! `packets_per_delivery` stay within the pinned golden tolerances below,
//! so an allocation regression on the sim path, or a control plane or a
//! radio hop that starts talking more, fails the build even when wall time
//! is too noisy to trip anything.

use ringnet_bench::alloc::CountingAlloc;
use ringnet_bench::suites::hotpath_scenarios;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Pinned golden ceilings for `allocs_per_delivery` (calls, not bytes).
/// Measured after the copy-free fabric work: 0.119 (128-walker second,
/// down from 1.562) and 0.336 (multigroup R=4, down from 3.323); then
/// 0.117 and 0.138 once the Order-Assignment tick kept its merge buffer
/// (per-hop control framing and its burst pool included); then 0.112 and
/// 0.111 with event-driven Order-Assignment (no merge buffer at all, no
/// funnel batch `Vec`, and no NACK/retransmit pairs on a loss-free ring).
/// Regenerate with `hotpath` after deliberate changes; keep a comfortable
/// margin (~30%) over the measured value so noise never trips the gate,
/// while a restored per-delivery clone or a new per-event allocation —
/// always ≥ 1.0 per delivery — still does.
const GOLDEN_MAX_ALLOCS_PER_DELIVERY: &[(&str, f64)] = &[
    ("ringnet_128_walkers_one_sim_second", 0.15),
    ("multigroup_throughput_rings_4", 0.15),
];

/// Pinned golden ceilings for `control_per_delivery` (wired-core control
/// messages). A deterministic count, so the margin is thin (~5 %):
/// measured 0.0607 and 0.1376 with one cumulative ack per hop, sent when
/// its front has moved (were 0.0758 and 0.4462 while every hop acknowledged
/// on the `ack_every` clock, ordered stream and every pre-order stream
/// alike); then 0.0456 and 0.0722 once traffic answers the liveness
/// probes (no ring heartbeat where the token answered, no parent heartbeat
/// where the parent's frames did).
const GOLDEN_MAX_CONTROL_PER_DELIVERY: &[(&str, f64)] = &[
    ("ringnet_128_walkers_one_sim_second", 0.048),
    ("multigroup_throughput_rings_4", 0.076),
];

/// Pinned golden ceilings for `packets_per_delivery`: every wire packet,
/// wireless hop included, a frame or burst counting once. Deterministic,
/// so the margin is thin (~2 %): measured 1.7926 and 3.3789 once an MH's
/// ack became its liveness beacon (were 1.9226 and 3.3890 while every MH
/// also sent a heartbeat its AP answered), so a second MH ↔ AP exchange
/// coming back trips it.
const GOLDEN_MAX_PACKETS_PER_DELIVERY: &[(&str, f64)] = &[
    ("ringnet_128_walkers_one_sim_second", 1.83),
    ("multigroup_throughput_rings_4", 3.45),
];

fn main() {
    let check = std::env::args().any(|a| a == "check");
    let rows = hotpath_scenarios();
    println!(
        "{:<42} {:>12} {:>12} {:>14} {:>16} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "scenario",
        "wall_ms",
        "delivered",
        "allocs/deliv",
        "alloc_kb/deliv",
        "sim_p50_ms",
        "sim_p999_ms",
        "nacks/deliv",
        "ctl/deliv",
        "packets/deliv"
    );
    let mut failures = Vec::new();
    for row in &rows {
        println!(
            "{:<42} {:>12.2} {:>12} {:>14.3} {:>16.3} {:>12.3} {:>12.3} {:>12.4} {:>12.4} {:>14.4}",
            row.name,
            row.wall_ms,
            row.delivered,
            row.allocs_per_delivery,
            row.alloc_bytes_per_delivery / 1024.0,
            row.latency_p50_ms,
            row.latency_p999_ms,
            row.nacks_per_delivery,
            row.control_per_delivery,
            row.packets_per_delivery
        );
        if check {
            let gates = [
                (
                    "allocs",
                    row.allocs_per_delivery,
                    GOLDEN_MAX_ALLOCS_PER_DELIVERY,
                ),
                (
                    "control messages",
                    row.control_per_delivery,
                    GOLDEN_MAX_CONTROL_PER_DELIVERY,
                ),
                (
                    "wire packets",
                    row.packets_per_delivery,
                    GOLDEN_MAX_PACKETS_PER_DELIVERY,
                ),
            ];
            for (what, got, ceilings) in gates {
                if let Some(&(_, max)) = ceilings.iter().find(|(n, _)| *n == row.name) {
                    if got > max {
                        failures.push(format!(
                            "{}: {got:.4} {what}/delivery exceeds the pinned ceiling {max:.4}",
                            row.name
                        ));
                    }
                }
            }
        }
    }
    if check {
        for &(name, _) in GOLDEN_MAX_ALLOCS_PER_DELIVERY {
            if !rows.iter().any(|r| r.name == name) {
                failures.push(format!("pinned scenario {name} was not measured"));
            }
        }
        if !failures.is_empty() {
            eprintln!("hot-path audit FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("hot-path audit clean ({} scenarios)", rows.len());
    }
}
