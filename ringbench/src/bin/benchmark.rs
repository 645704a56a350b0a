//! The benchmark's command line. The driver runs
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and reads the last line of standard output. For people there are also
//! `list`, `suite` (a set of runs over seeds, with its spread table) and
//! `compare A.json B.json`; see the README.

use std::path::PathBuf;
use std::process::ExitCode;

use ringbench::catalog::{END_TO_END, PER_LAYER};
use ringbench::compare::{compare, parse_run, read_set, result_line, spread_table, write_set};
use ringbench::measure::{end_to_end, per_layer, rss_probe, Options};
use ringbench::workloads::{self, Workload, WORKLOADS};

// Counts allocator calls for `alloc.*`; two relaxed atomic adds per call,
// the same on both sides of any comparison.
#[global_allocator]
static ALLOC: ringnet_bench::alloc::CountingAlloc = ringnet_bench::alloc::CountingAlloc;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  benchmark list
  benchmark suite --out <file> [--seeds <a,b,..>] [--seconds <s>] [--trace <0|1>] [--quick]
  benchmark compare <A.json> <B.json>";

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot read {v:?}")))
            .transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })
}

fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = workload_named(args.value("--workload").ok_or("--workload is required")?)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(workloads::TUNING_SEED);
    let trace: u8 = args.parsed("--trace")?.unwrap_or(0);
    let exe = this_exe()?;
    let opts = Options {
        seconds: args.parsed("--seconds")?.unwrap_or(10.0),
        quick: args.flag("--quick"),
        // Traces go next to the executable, inside the build directory.
        trace_dir: exe.parent().map(|dir| dir.join("ringbench-trace")),
        exe,
    };
    let (mut out, defs) = match trace {
        0 => (end_to_end(workload, seed, &opts), &END_TO_END[..]),
        1 => (per_layer(workload, seed, &opts), &PER_LAYER[..]),
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    println!(
        "workload {} seed {seed} trace {trace}: {}",
        workload.name, workload.sizes
    );
    for note in &out.notes {
        println!("{note}");
    }
    for def in defs {
        match out.metrics.iter().find(|(name, _)| *name == def.name) {
            Some((_, value)) if value.is_finite() => {
                let bound = def
                    .bound
                    .map_or(String::new(), |b| format!(", bound {:.1}%", b * 100.0));
                println!(
                    "{:<46} {value:>18.6} {:<10} ({} is better{bound})",
                    def.name,
                    def.unit,
                    def.better.as_str()
                );
            }
            Some((_, value)) => out.problems.push(format!("{} is {value}", def.name)),
            None => out.problems.push(format!("{} was not measured", def.name)),
        }
    }
    out.metrics.retain(|(_, v)| v.is_finite());
    println!("ops_attempted {} ops_failed {}", out.attempted, out.failed);
    for p in &out.problems {
        println!("NOT CORRECT: {p}");
    }
    println!("{}", result_line(&out));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() {
    println!(
        "workloads (tuning seed {}, held-out seed {}):",
        workloads::TUNING_SEED,
        workloads::HELD_OUT_SEED
    );
    for w in &WORKLOADS {
        println!("  {}\n    why: {}\n    sizes: {}", w.name, w.why, w.sizes);
        let ladder: Vec<String> = w.ladder.iter().map(|f| format!("x{f:.2}")).collect();
        println!(
            "    capacity ladder {}; a rung passes with at most {} of owed deliveries missing and p999 <= {} ms",
            ladder.join(" "),
            w.rung_max_undelivered,
            w.latency_limit_ms
        );
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &END_TO_END {
        println!(
            "  {:<30} {:<10} {:<6} bound {:>5.1}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!(
            "  {:<46} {:<6} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

/// Run every workload once per seed, each run a fresh process as the
/// driver makes them, workloads interleaved so that a slow phase of the
/// host falls on all of them alike.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let out_path = PathBuf::from(args.value("--out").ok_or("suite: --out is required")?);
    let seeds: Vec<u64> = match args.value("--seeds") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds: cannot read {s:?}"))
            })
            .collect::<Result<_, _>>()?,
        None => (1..=10).collect(),
    };
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(10.0);
    let trace: u8 = args.parsed("--trace")?.unwrap_or(0);
    let exe = this_exe()?;
    let mut runs = Vec::new();
    for &seed in &seeds {
        for w in &WORKLOADS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ]);
            if args.flag("--quick") {
                cmd.arg("--quick");
            }
            let started = std::time::Instant::now();
            let output = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let run = parse_run(w.name, seed, trace, line)
                .map_err(|e| format!("{} seed {seed}: {e}\n{stdout}", w.name))?;
            eprintln!(
                "{} seed {seed}: {} in {:.1} s",
                w.name,
                if run.correct {
                    "correct"
                } else {
                    "NOT CORRECT"
                },
                started.elapsed().as_secs_f64()
            );
            runs.push((run, line.to_string()));
        }
    }
    std::fs::write(&out_path, write_set(&runs))
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    let runs: Vec<_> = runs.into_iter().map(|(run, _)| run).collect();
    print!("{}", spread_table(&runs));
    let incorrect = runs.iter().filter(|r| !r.correct).count();
    println!(
        "{} run(s), {incorrect} not correct; set written to {}",
        runs.len(),
        out_path.display()
    );
    Ok(if incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| read_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let c = compare(&read(a)?, &read(b)?);
    print!("{}", c.table);
    println!(
        "{} regression(s), {} unresolved, failures {}",
        c.regressions,
        c.unresolved,
        if c.more_failures {
            "went up"
        } else {
            "did not go up"
        }
    );
    Ok(if c.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("rss-probe") => (|| {
            let workload = workload_named(argv.get(1).ok_or(USAGE)?)?;
            let seed = argv.get(2).and_then(|s| s.parse().ok()).ok_or(USAGE)?;
            println!("{}", rss_probe(workload, seed)?);
            Ok(ExitCode::SUCCESS)
        })(),
        Some("suite") => suite(&Args(argv[1..].to_vec())),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some(first) if first.starts_with("--") => run(&Args(argv)),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
