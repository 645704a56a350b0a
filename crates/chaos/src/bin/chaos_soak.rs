//! Property-based chaos soak over the `MulticastSim` backends.
//!
//! ```text
//! chaos_soak [--seeds N] [--start S] [--seed K] [--backends a,b,c]
//!            [--quick | --stress | --massive] [--telemetry]
//!            [--no-shrink] [--equivalence N]
//! ```
//!
//! * `--seeds N` — soak seeds `start..start+N` (default 50, start 0).
//! * `--seed K` — reproduce a single seed verbosely (prints the scenario).
//! * `--backends` — comma-separated subset (default: all six).
//! * `--quick` — the CI-sized generator space (smaller worlds/runs).
//! * `--stress` — the opt-in production-scale space (tens of attachments,
//!   hundreds of walkers). Not run in CI.
//! * `--massive` — the scale space (thousands of walkers). The CI smoke
//!   pairs it with `--backends ringnet`.
//! * `--telemetry` — enable the deterministic telemetry layer on every
//!   generated scenario. On a violation the shrunk reproduction is
//!   re-run with per-node flight recorders and the postmortem is written
//!   to `flight_recorder_<backend>_<seed>.json` (this happens on failure
//!   even without the flag — the flag additionally proves the soak stays
//!   clean *with* the recorders on).
//! * `--no-shrink` — skip minimization on failure.
//! * `--equivalence N` — additionally run the cross-backend delivery-set
//!   equivalence audit over `start..start+N`: each seed's world stripped
//!   to loss-free links and an empty fault schedule must produce
//!   *identical* per-walker delivered-message sets on every backend.
//!   Pass `--seeds 0` to run only the equivalence audit.
//!
//! The summary ends with the totals the CI steps pin, then, per backend,
//! the NE skips of a `(group, GSN)` some walker delivered (skips of data
//! that was not gone) and the forced token losses with the mean and
//! longest time to the next regeneration.
//!
//! Exit status: 0 when every audited run is clean, 1 on the first
//! violation or delivery-set mismatch (after printing the reproduction).

use chaos::{
    check_equivalence, generate, soak_seed, Backend, ChaosConfig, SoakTier, TokenRecovery,
};

fn usage() -> ! {
    eprintln!(
        "usage: chaos_soak [--seeds N] [--start S] [--seed K] \
         [--backends a,b,c] [--quick | --stress | --massive] \
         [--telemetry] [--no-shrink] [--equivalence N]"
    );
    std::process::exit(2)
}

fn main() {
    let mut seeds: u64 = 50;
    let mut start: u64 = 0;
    let mut single: Option<u64> = None;
    let mut backends: Vec<Backend> = Backend::ALL.to_vec();
    let mut tier = SoakTier::Default;
    let mut shrink = true;
    let mut equivalence: u64 = 0;
    let mut telemetry = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let num = |it: &mut std::slice::Iter<'_, String>| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--seeds" => seeds = num(&mut it),
            "--start" => start = num(&mut it),
            "--seed" => single = Some(num(&mut it)),
            "--quick" => tier = SoakTier::Quick,
            "--stress" => tier = SoakTier::Stress,
            "--massive" => tier = SoakTier::Massive,
            "--telemetry" => telemetry = true,
            "--no-shrink" => shrink = false,
            "--equivalence" => equivalence = num(&mut it),
            "--backends" => {
                let list = it.next().unwrap_or_else(|| usage());
                backends = list
                    .split(',')
                    .map(|s| Backend::parse(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            _ => usage(),
        }
    }

    let mut cfg = ChaosConfig::tier(tier);
    cfg.telemetry = telemetry;

    let range: Vec<u64> = match single {
        Some(k) => {
            let sc = generate(&cfg, k);
            println!("seed {k} scenario:\n{sc:#?}\n");
            vec![k]
        }
        None => (start..start + seeds).collect(),
    };

    let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    println!(
        "chaos soak: {} seed(s) × [{}]{}",
        range.len(),
        names.join(", "),
        match tier {
            SoakTier::Quick => " (quick space)",
            SoakTier::Default => "",
            SoakTier::Stress => " (stress space)",
            SoakTier::Massive => " (massive space)",
        }
    );

    let mut total_deliveries = 0u64;
    let mut total_skips = 0u64;
    let mut elsewhere = vec![0u64; backends.len()];
    let mut recovery = vec![TokenRecovery::default(); backends.len()];
    let mut runs = 0usize;
    for (i, &seed) in range.iter().enumerate() {
        match soak_seed(&cfg, seed, &backends, shrink) {
            Ok(outcomes) => {
                let sums = elsewhere.iter_mut().zip(&mut recovery);
                for (o, (n, r)) in outcomes.iter().zip(sums) {
                    total_deliveries += o.deliveries;
                    total_skips += o.skips;
                    *n += o.ne_skips_delivered_elsewhere;
                    r.add(&o.token_recovery);
                    runs += 1;
                }
                if single.is_some() {
                    for o in &outcomes {
                        println!(
                            "  {:<10} clean ({} deliveries, {} skips, {} NE skips delivered elsewhere)",
                            o.backend.name(),
                            o.deliveries,
                            o.skips,
                            o.ne_skips_delivered_elsewhere
                        );
                    }
                } else if (i + 1) % 25 == 0 || i + 1 == range.len() {
                    println!(
                        "  {}/{} seeds clean ({} runs, {} deliveries audited)",
                        i + 1,
                        range.len(),
                        runs,
                        total_deliveries
                    );
                }
            }
            Err(failure) => {
                eprintln!(
                    "\nVIOLATION on {} at seed {}:\n  {}\n",
                    failure.backend.name(),
                    failure.seed,
                    failure.violation
                );
                eprintln!(
                    "shrunk reproduction ({} of {} events kept):\n{:#?}",
                    failure.shrunk_events, failure.original_events, failure.shrunk
                );
                match chaos::write_dump(&failure) {
                    Ok(name) => eprintln!("\nflight-recorder postmortem: {name}"),
                    Err(e) => eprintln!("\nflight-recorder postmortem failed: {e}"),
                }
                eprintln!(
                    "\nreproduce with: chaos_soak --seed {} --backends {}{}{}",
                    failure.seed,
                    failure.backend.name(),
                    match tier {
                        SoakTier::Quick => " --quick",
                        SoakTier::Default => "",
                        SoakTier::Stress => " --stress",
                        SoakTier::Massive => " --massive",
                    },
                    if telemetry { " --telemetry" } else { "" }
                );
                std::process::exit(1);
            }
        }
    }
    println!(
        "OK: {} runs clean — {} deliveries and {} skips audited, zero violations",
        runs, total_deliveries, total_skips
    );
    let per_backend: Vec<String> = (names.iter().zip(&elsewhere))
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!(
        "NE skips of a GSN some walker delivered: {}",
        per_backend.join(", ")
    );
    let per_backend: Vec<String> = (names.iter().zip(&recovery))
        .map(|(name, r)| {
            let gaps = match r.mean_gap() {
                Some(mean) => format!(", mean {mean}, max {}", r.max_gap),
                None => String::new(),
            };
            format!(
                "{name} {} dropped{gaps}, {} unpaired, {} in multi-group worlds",
                r.recovered + r.unpaired + r.multi_group,
                r.unpaired,
                r.multi_group
            )
        })
        .collect();
    println!(
        "token drops and drop → regeneration gaps (single-group worlds): {}",
        per_backend.join("; ")
    );

    if equivalence > 0 {
        println!(
            "equivalence audit: {equivalence} loss-free seed(s) × [{}]",
            names.join(", ")
        );
        let mut compared = 0u64;
        for seed in start..start + equivalence {
            match check_equivalence(&cfg, seed, &backends) {
                Ok(n) => compared += n,
                Err(f) => {
                    eprintln!(
                        "\nDELIVERY-SET MISMATCH at seed {}: {} vs {} — {}",
                        f.seed,
                        f.baseline.name(),
                        f.backend.name(),
                        f.detail
                    );
                    std::process::exit(1);
                }
            }
        }
        println!("OK: delivery sets identical across backends ({compared} deliveries compared)");
    }
}
