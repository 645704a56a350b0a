//! Hot-path audit: wall time, allocations, control messages and wire
//! packets per simulated delivery for the fabric's two flagship workloads,
//! plus a CI assertion mode.
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
//!
//! In both modes the last line of standard output is the rows as one JSON
//! array: the `hotpath` block of a `BENCH_ringnet.json` entry.

use harness::report::json;
use ringnet_bench::alloc::CountingAlloc;
use ringnet_bench::suites::{hotpath_scenarios, HotpathRow};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What `check` gates, in the order of each scenario's ceilings.
const GATED: [&str; 3] = ["allocs", "control messages", "wire packets"];

/// Pinned golden ceilings per scenario, per delivery: allocator calls,
/// wired-core control messages, wire packets.
///
/// * **Allocations** (calls, not bytes). Measured after the copy-free
///   fabric work: 0.119 (128-walker second, down from 1.562) and 0.336
///   (multigroup R=4, down from 3.323); then 0.117 and 0.138 once the
///   Order-Assignment tick kept its merge buffer (per-hop control framing
///   and its burst pool included); then 0.112 and 0.111 with event-driven
///   Order-Assignment (no merge buffer at all, no funnel batch `Vec`, and
///   no NACK/retransmit pairs on a loss-free ring). Keep a comfortable
///   margin (~30%) over the measured value so noise never trips the gate,
///   while a restored per-delivery clone or a new per-event allocation —
///   always ≥ 1.0 per delivery — still does.
/// * **Control messages.** A deterministic count, so the margin is thin
///   (~5 %): measured 0.0607 and 0.1376 with one cumulative ack per hop,
///   sent when its front has moved (were 0.0758 and 0.4462 while every hop
///   acknowledged on the `ack_every` clock, ordered stream and every
///   pre-order stream alike); then 0.0456 and 0.0722 once traffic answers
///   the liveness probes (no ring heartbeat where the token answered, no
///   parent heartbeat where the parent's frames did).
/// * **Wire packets**, wireless hop included, a frame or burst counting
///   once. Deterministic, so the margin is thin (~2 %): measured 1.7926
///   and 3.3789 once an MH's ack became its liveness beacon (were 1.9226
///   and 3.3890 while every MH also sent a heartbeat its AP answered), so
///   a second MH ↔ AP exchange coming back trips it.
///
/// Regenerate with `hotpath` after deliberate changes.
const CEILINGS: &[(&str, [f64; 3])] = &[
    ("ringnet_128_walkers_one_sim_second", [0.15, 0.048, 1.83]),
    ("multigroup_throughput_rings_4", [0.15, 0.076, 3.45]),
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
                 \"control_per_delivery\": {:.4}, \"packets_per_delivery\": {:.4}}}",
                json::string(&h.name),
                h.wall_ms,
                h.delivered,
                h.allocs_per_delivery,
                h.alloc_bytes_per_delivery,
                h.control_per_delivery,
                h.packets_per_delivery,
            )
        })
        .collect();
    format!("[{}]", objects.join(", "))
}

fn main() {
    let check = std::env::args().any(|a| a == "check");
    let rows = hotpath_scenarios();
    println!(
        "{:<42} {:>12} {:>12} {:>14} {:>16} {:>12} {:>14}",
        "scenario",
        "wall_ms",
        "delivered",
        "allocs/deliv",
        "alloc_kb/deliv",
        "ctl/deliv",
        "packets/deliv"
    );
    for row in &rows {
        println!(
            "{:<42} {:>12.2} {:>12} {:>14.3} {:>16.3} {:>12.4} {:>14.4}",
            row.name,
            row.wall_ms,
            row.delivered,
            row.allocs_per_delivery,
            row.alloc_bytes_per_delivery / 1024.0,
            row.control_per_delivery,
            row.packets_per_delivery
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

    fn row(name: &str, packets: f64) -> HotpathRow {
        HotpathRow {
            name: name.into(),
            wall_ms: 12.0,
            delivered: 1000,
            allocs_per_delivery: 0.119,
            alloc_bytes_per_delivery: 166.0,
            control_per_delivery: 0.0456,
            packets_per_delivery: packets,
        }
    }

    #[test]
    fn json_line_renders_every_row() {
        let line = json_line(&[row("flagship", 1.7926), row("flagship", 1.7926)]);
        assert!(line.starts_with("[{\"name\": \"flagship\", \"wall_ms\": 12.00"));
        assert!(line.contains("\"allocs_per_delivery\": 0.119"));
        assert!(
            line.contains("\"control_per_delivery\": 0.0456, \"packets_per_delivery\": 1.7926}, {")
        );
        assert!(line.ends_with("}]") && !line.contains('\n'));
    }

    #[test]
    fn check_fails_a_value_over_its_ceiling_and_a_missing_scenario() {
        let flagship = row("ringnet_128_walkers_one_sim_second", 1.7926);
        let rings_4 = row("multigroup_throughput_rings_4", 3.3789);
        assert!(failures(&[flagship.clone(), rings_4.clone()]).is_empty());
        let over = row("ringnet_128_walkers_one_sim_second", 1.9226);
        assert_eq!(failures(&[over, rings_4]).len(), 1);
        assert_eq!(failures(&[flagship]).len(), 1, "rings_4 was not measured");
    }
}
