//! Lossy wireless: the best-effort local-scope retransmission scheme
//! (§4.2.3) under a bursty Gilbert–Elliott channel. Shows delivery ratio
//! and latency as the channel degrades, with the NACK budget on and off —
//! one `Scenario` per (channel, budget) cell.
//!
//! ```text
//! cargo run --release --example lossy_wireless
//! ```

use ringnet_repro::core::driver::{CoreShape, MulticastSim, ScenarioBuilder};
use ringnet_repro::core::{ProtocolConfig, RingNetSim};
use ringnet_repro::simnet::{LatencyModel, LinkProfile, LossModel, SimDuration, SimTime};

fn run(loss: LossModel, budget: u8) -> (f64, f64, u64) {
    let wireless = LinkProfile {
        latency: LatencyModel::Jittered {
            base: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(2),
        },
        loss,
    };
    let duration = SimTime::from_secs(8);
    let scenario = ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(2)
        .sources(2)
        .poisson(100.0)
        .window(SimTime::ZERO, Some(duration - SimDuration::from_secs(1)))
        .config(ProtocolConfig::default().with_nack_budget(budget))
        .wireless(wireless)
        .shape(CoreShape::Hierarchy {
            brs: 3,
            rings: 2,
            ags_per_ring: 2,
        })
        .duration(duration)
        .build();
    let report = RingNetSim::run_scenario(&scenario, 99);
    let m = &report.metrics;
    (
        m.delivery_ratio(),
        m.e2e_latency.quantile(0.99) as f64 / 1e6,
        m.duplicates,
    )
}

fn main() {
    println!("Poisson 2×100 msg/s, 8 MHs, Gilbert–Elliott bursty wireless\n");
    println!(
        "{:>28} | {:>6} | {:>14} | {:>11} | {:>5}",
        "channel", "budget", "delivery ratio", "p99 lat ms", "dups"
    );
    let channels: [(&str, LossModel); 3] = [
        ("clean (no loss)", LossModel::Perfect),
        ("bernoulli 10%", LossModel::Bernoulli(0.10)),
        ("bursty (GE, ~12% avg)", LossModel::lossy_wireless()),
    ];
    for (name, loss) in channels {
        for budget in [0u8, 5] {
            let (ratio, p99, dups) = run(loss.clone(), budget);
            println!(
                "{:>28} | {:>6} | {:>14.4} | {:>11.1} | {:>5}",
                name, budget, ratio, p99, dups
            );
        }
    }
    println!("\nbudget 5 ≈ full recovery at the cost of tail latency; budget 0 ≈ raw channel");
}
