//! Per-phase telemetry summary for one chaos seed.
//!
//! ```text
//! phase_metrics [--seed K] [--quick | --stress | --massive]
//! ```
//!
//! Generates seed `K`'s scenario (default 0) in the chosen tier space,
//! forces the deterministic telemetry layer on, runs it on the ringnet
//! backend, and prints a Markdown table aggregating the harvested
//! metrics by protocol phase — the table EXPERIMENTS.md embeds. Being a
//! pure function of `(tier, seed)`, the output is reproducible
//! byte for byte.

use chaos::{generate, ChaosConfig, SoakTier};
use ringnet_core::driver::MulticastSim;
use ringnet_core::telemetry::{metric, FixedHistogram};
use ringnet_core::{RingNetSim, TelemetryReport};

fn usage() -> ! {
    eprintln!("usage: phase_metrics [--seed K] [--quick | --stress | --massive]");
    std::process::exit(2)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000_000.0)
}

fn hist_row(label: &str, h: &FixedHistogram) -> String {
    if h.count == 0 {
        return format!("| {label} | 0 | – | – | – |");
    }
    format!(
        "| {label} | {} | {} | {} | {} |",
        h.count,
        fmt_ms(h.mean_ns()),
        fmt_ms(h.min_ns),
        fmt_ms(h.max_ns)
    )
}

fn counter_rows(t: &TelemetryReport, rows: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (label, name) in rows {
        out.push_str(&format!("| {label} | {} |\n", t.total_counter(name)));
    }
    out
}

fn main() {
    let mut seed: u64 = 0;
    let mut tier = SoakTier::Default;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let num = |it: &mut std::slice::Iter<'_, String>| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--seed" => seed = num(&mut it),
            "--quick" => tier = SoakTier::Quick,
            "--stress" => tier = SoakTier::Stress,
            "--massive" => tier = SoakTier::Massive,
            _ => usage(),
        }
    }

    let mut cfg = ChaosConfig::tier(tier);
    cfg.telemetry = true;
    let sc = generate(&cfg, seed);
    let report = RingNetSim::run_scenario(&sc, seed);
    let t = report
        .telemetry
        .expect("telemetry enabled on the generated scenario");

    println!(
        "## Per-phase telemetry — seed {seed}{}, {} node recorder(s)\n",
        match tier {
            SoakTier::Quick => " (quick)",
            SoakTier::Default => "",
            SoakTier::Stress => " (stress)",
            SoakTier::Massive => " (massive)",
        },
        t.nodes.len()
    );

    println!("| phase latency | samples | mean ms | min ms | max ms |");
    println!("|---|---:|---:|---:|---:|");
    println!(
        "{}",
        hist_row(
            "token rotation",
            &t.merged_histogram(metric::TOKEN_ROTATION_NS)
        )
    );
    println!(
        "{}",
        hist_row(
            "GSN assign → delivery",
            &t.merged_histogram(metric::GSN_DELIVERY_LAG_NS)
        )
    );
    println!(
        "{}",
        hist_row(
            "rejoin handshake",
            &t.merged_histogram(metric::REJOIN_HANDSHAKE_NS)
        )
    );
    println!(
        "{}",
        hist_row(
            "merge handshake",
            &t.merged_histogram(metric::MERGE_HANDSHAKE_NS)
        )
    );

    println!("\n| phase counter | total |");
    println!("|---|---:|");
    print!(
        "{}",
        counter_rows(
            &t,
            &[
                ("token passes", metric::TOKEN_PASSES),
                ("GSNs assigned", metric::GSN_ASSIGNED),
                ("regen rounds originated", metric::REGEN_ORIGINATED),
                ("regen tokens adopted", metric::REGEN_ADOPTED),
                ("regen rounds destroyed", metric::REGEN_DESTROYED),
                ("regen rounds ceded", metric::REGEN_CEDED),
                ("stale tokens destroyed", metric::STALE_TOKENS_DESTROYED),
                ("epoch bumps (regen)", metric::EPOCH_BUMPS_REGEN),
                ("epoch bumps (rejoin seed)", metric::EPOCH_BUMPS_REJOIN_SEED),
                ("epoch bumps (merge seed)", metric::EPOCH_BUMPS_MERGE_SEED),
                ("heartbeat suspicions", metric::HB_SUSPECTS),
                ("heartbeat refutations", metric::HB_REFUTES),
                ("ring repairs", metric::RING_REPAIRS),
                ("partition fences", metric::PARTITION_FENCES),
                ("ring merges", metric::MERGES),
                ("rejoin requests", metric::REJOIN_REQUESTS),
                ("rejoins granted", metric::REJOINS_GRANTED),
                ("NACKs sent", metric::NACKS_SENT),
                ("pre-order NACKs sent", metric::PREORDER_NACKS_SENT),
                ("retransmissions served", metric::RETRANSMISSIONS_SERVED),
            ]
        )
    );
}
