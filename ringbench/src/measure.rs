//! The measurement passes behind `benchmark --workload … --trace 0|1`.
//!
//! `--trace 0` ([`end_to_end`]): one audited rep (retained journal, every
//! check, the sim-clock metrics), the capacity ladder, a child process for
//! peak memory, then timed reps for `--seconds` with tracing and telemetry
//! off. `--trace 1` ([`per_layer`]): one audited rep under the span
//! recorder with telemetry on and the run driven in 100 ms simulated
//! slices, then configurations of the same worlds timed round-robin for
//! `--seconds` (their differences are the overheads of journal retention,
//! telemetry and tracing), then direct calls into single layers.
//!
//! Every layer number is taken from outside: by timing or counting around
//! calls into that layer's public functions.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ringnet_core::driver::{hierarchy_core, ringnet_spec, MulticastSim, RunMetrics};
use ringnet_core::telemetry::metric as tm;
use ringnet_core::{metrics, RingNetSim, TelemetryReport};
use simnet::{SimDuration, SimStats, SimTime};

use crate::hosttime::{fast, peak_rss_mb, quartiles};
use crate::layers;
use crate::simstats::{audit_world, check_world, exact_quantile, world_stats, Verdict, WorldStats};
use crate::trace::Tracer;
use crate::workloads::{Workload, World};

/// Simulated time per `core.engine.run_slice` span.
pub const SLICE: SimDuration = SimDuration::from_millis(100);

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Host seconds to spend in the timed section.
    pub seconds: f64,
    /// Smoke mode: first ladder rung only, pairwise check only on small
    /// worlds, one sample of every side measurement.
    pub quick: bool,
    /// Where `--trace 1` writes `trace_<workload>.jsonl` (None = nowhere).
    pub trace_dir: Option<PathBuf>,
    /// The `benchmark` executable, started afresh for the memory probe.
    pub exe: PathBuf,
}

/// What one invocation found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations checked: owed deliveries of every rep run.
    pub attempted: u64,
    /// Operations whose outcome the protocol does not allow.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why the run is not correct (empty = correct).
    pub problems: Vec<String>,
    /// Lines for the human reading the output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// No failed operation and no safety problem.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// One audited world: everything the sim-clock metrics are made of.
#[derive(Debug, Clone)]
struct WorldRun {
    /// Journal statistics.
    pub stats: WorldStats,
    /// The correctness check.
    pub verdict: Verdict,
    /// Transport counters.
    pub sim: SimStats,
    /// The library's own summary of the run.
    pub metrics: RunMetrics,
    /// Harvested telemetry, when the world ran with it on.
    pub telemetry: Option<TelemetryReport>,
    /// Violations the chaos auditor counted (0 on a correct run).
    pub audit_violations: u64,
    /// The world's aggregate offered load.
    pub offered: f64,
}

/// Build a world's simulation and schedule its events.
fn built(world: &World) -> RingNetSim {
    let mut sim = <RingNetSim as MulticastSim>::build(&world.scenario, world.run_seed);
    for ev in &world.scenario.events {
        MulticastSim::schedule(&mut sim, *ev);
    }
    sim
}

/// Run to `end` in [`SLICE`] steps, one span each carrying the `SimStats`
/// delta of the slice.
fn run_sliced(sim: &mut RingNetSim, end: SimTime, tracer: &mut Tracer) {
    let mut until = SimTime::ZERO;
    while until < end {
        until = (until + SLICE).min(end);
        tracer.span("core.engine.run_slice", |t| {
            let before = sim.stats();
            sim.run_until(until);
            let after = sim.stats();
            t.count("events", after.events - before.events);
            t.count("packets_sent", after.packets_sent - before.packets_sent);
            t.count("timers_fired", after.timers_fired - before.timers_fired);
        });
    }
}

/// Build, run and tear down one world under the span recorder, then check
/// its retained journal. `sliced` drives the run in [`SLICE`] steps, one
/// span each carrying the `SimStats` delta.
fn audited_world(world: &World, tracer: &mut Tracer, sliced: bool, pairwise: bool) -> WorldRun {
    let sc = &world.scenario;
    assert!(sc.retain_journal, "an audited world retains its journal");
    let mut sim = tracer.span("core.driver.build", |_| {
        <RingNetSim as MulticastSim>::build(sc, world.run_seed)
    });
    tracer.span("core.driver.schedule", |_| {
        for ev in &sc.events {
            MulticastSim::schedule(&mut sim, *ev);
        }
    });
    tracer.span("core.engine.run", |t| {
        if sliced {
            run_sliced(&mut sim, sc.duration, t);
        } else {
            sim.run_until(sc.duration);
        }
    });
    let report = tracer.span("core.driver.finish", |_| {
        <RingNetSim as MulticastSim>::finish(sim)
    });
    // The metrics layer on its own: the same accumulator the streaming
    // path feeds online, here fed the retained journal in one batch.
    tracer.span("core.metrics.observe_journal", |_| {
        let mut acc = metrics::MetricsAccumulator::new(hierarchy_core(&ringnet_spec(sc)));
        acc.observe_journal(&report.journal);
        std::hint::black_box(acc.finish().delivered);
    });
    let audit = tracer.span("chaos.audit.observe_journal", |_| {
        audit_world(world, &report.journal)
    });
    let stats = tracer.span("bench.sim_metrics", |_| {
        world_stats(&report.journal, world.sources_stop, sc.duration)
    });
    let verdict = tracer.span("bench.check", |_| {
        check_world(world, &report, &stats, &audit, pairwise)
    });
    WorldRun {
        stats,
        verdict,
        sim: report.stats,
        metrics: report.metrics,
        telemetry: report.telemetry,
        audit_violations: audit.violations,
        offered: world.offered_msgs_per_sim_s(),
    }
}

/// The audited runs of one rep, pooled.
#[derive(Debug, Clone)]
struct Pooled {
    /// One entry per world.
    pub runs: Vec<WorldRun>,
    /// Every delivery latency of the rep, sorted, nanoseconds.
    pub latencies_ns: Vec<u64>,
}

impl Pooled {
    fn new(mut runs: Vec<WorldRun>) -> Pooled {
        let mut latencies_ns: Vec<u64> = Vec::new();
        for r in &mut runs {
            latencies_ns.append(&mut r.stats.latencies_ns);
        }
        latencies_ns.sort_unstable();
        Pooled { runs, latencies_ns }
    }

    fn sum(&self, f: impl Fn(&WorldRun) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    /// Application deliveries.
    pub fn delivered(&self) -> u64 {
        self.sum(|r| r.stats.delivered)
    }

    /// Owed deliveries.
    pub fn owed(&self) -> u64 {
        self.sum(|r| r.verdict.owed)
    }

    /// Owed deliveries that did not happen, as a share.
    pub fn undelivered_share(&self) -> f64 {
        self.sum(|r| r.verdict.not_delivered) as f64 / self.owed().max(1) as f64
    }

    /// Exact latency quantile in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        exact_quantile(&self.latencies_ns, q) as f64 / 1e6
    }

    /// Safety problems of every world, prefixed with the world's index.
    pub fn problems(&self) -> Vec<String> {
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                r.verdict
                    .problems
                    .iter()
                    .map(move |p| format!("world {i}: {p}"))
            })
            .collect()
    }

    /// Mean aggregate offered load per world.
    pub fn offered(&self) -> f64 {
        self.runs.iter().map(|r| r.offered).sum::<f64>() / self.runs.len() as f64
    }

    fn telemetry_counter(&self, name: &str) -> u64 {
        self.sum(|r| r.telemetry.as_ref().map_or(0, |t| t.total_counter(name)))
    }

    /// Mean of a telemetry histogram over every node of every world, ms.
    fn telemetry_mean_ms(&self, name: &str) -> f64 {
        let (mut sum, mut count) = (0u128, 0u64);
        for t in self.runs.iter().filter_map(|r| r.telemetry.as_ref()) {
            let h = t.merged_histogram(name);
            sum += h.sum_ns as u128;
            count += h.count;
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e6
        }
    }
}

fn audited_rep(
    worlds: &[World],
    tracer: &mut Tracer,
    sliced: bool,
    pairwise: impl Fn(&World) -> bool,
) -> Pooled {
    Pooled::new(
        worlds
            .iter()
            .map(|w| audited_world(&w.retained(), tracer, sliced, pairwise(w)))
            .collect(),
    )
}

/// Wall times and delivery count of one untraced world.
struct TimedWorld {
    setup_s: f64,
    run_s: f64,
    delivered: u64,
}

/// One world exactly as a user pays for it: inputs from the seed, build,
/// schedule (set-up); run, finish, and on a retained journal the auditor
/// pass a soak runs (run). Telemetry and tracing are off.
fn timed_world(workload: &Workload, seed: u64, index: usize) -> TimedWorld {
    let t0 = Instant::now();
    let world = workload.world(seed, index);
    let sc = &world.scenario;
    let mut sim = built(&world);
    let t1 = Instant::now();
    sim.run_until(sc.duration);
    let report = <RingNetSim as MulticastSim>::finish(sim);
    let delivered = if sc.retain_journal {
        audit_world(&world, &report.journal).deliveries
    } else {
        report.metrics.delivered
    };
    let t2 = Instant::now();
    TimedWorld {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        delivered: std::hint::black_box(delivered),
    }
}

/// Run exactly one rep the timed way and print this process's peak
/// resident set. The parent reads the number from a fresh child so that
/// nothing else the benchmark does is counted.
pub fn rss_probe(workload: &Workload, seed: u64) -> Result<f64, String> {
    for i in 0..workload.worlds() {
        timed_world(workload, seed, i);
    }
    peak_rss_mb()
}

fn rss_of_child(exe: &Path, workload: &Workload, seed: u64) -> Result<f64, String> {
    let out = std::process::Command::new(exe)
        .args(["rss-probe", workload.name, &seed.to_string()])
        .output()
        .map_err(|e| format!("rss probe did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("rss probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("rss probe printed no number: {e}"))
}

/// The quadratic pairwise check runs on every world except, in quick
/// mode, the big ones; the auditor's own agreement checks always run.
fn pairwise_for(opts: &Options) -> impl Fn(&World) -> bool + '_ {
    |w| !opts.quick || w.scenario.walkers.len() <= 256
}

/// The `--trace 0` pass.
pub fn end_to_end(workload: &Workload, seed: u64, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let worlds = workload.generate(seed);

    // Audited rep: correctness and every sim-clock metric. It also warms
    // the allocator and caches before anything is timed.
    let base = audited_rep(&worlds, &mut Tracer::new(), false, pairwise_for(opts));
    let delivered = base.delivered();
    out.attempted = base.owed();
    out.failed = base.sum(|r| r.verdict.failed);
    out.problems = base.problems();
    if delivered == 0 {
        out.problems.push("nothing was delivered".into());
        return out;
    }

    // Capacity ladder, ascending, stop at the first rung that fails.
    let base_rate = base.offered();
    let mut capacity = 0.0;
    let mut censored = true;
    let rungs = if opts.quick {
        &workload.ladder[..1]
    } else {
        workload.ladder
    };
    for &factor in rungs {
        let rung_worlds: Vec<World> = worlds.iter().map(|w| w.rung(factor)).collect();
        let rung = audited_rep(&rung_worlds, &mut Tracer::new(), false, |_| false);
        // Total order must hold at any load; only deliveries may be lost.
        out.problems.extend(
            rung.problems()
                .into_iter()
                .map(|p| format!("rung x{factor:.2}: {p}")),
        );
        let p999 = if rung.latencies_ns.is_empty() {
            f64::INFINITY
        } else {
            rung.latency_ms(0.999)
        };
        let pass = rung.undelivered_share() <= workload.rung_max_undelivered
            && p999 <= workload.latency_limit_ms;
        out.notes.push(format!(
            "rung x{factor:.2}: offered {:.0} msg/sim-s, undelivered share {:.5} (limit {}), p999 {p999:.3} ms (limit {} ms): {}",
            base_rate * factor,
            rung.undelivered_share(),
            workload.rung_max_undelivered,
            workload.latency_limit_ms,
            if pass { "pass" } else { "fail" }
        ));
        if !pass {
            censored = false;
            break;
        }
        capacity = base_rate * factor;
    }
    if capacity == 0.0 {
        out.problems
            .push("the base-rate rung of the capacity ladder failed".into());
    }
    if censored {
        out.notes
            .push("capacity is censored: the top rung passed".into());
    }

    let rss = match rss_of_child(&opts.exe, workload, seed) {
        Ok(mb) => mb,
        Err(e) => {
            out.problems.push(e);
            0.0
        }
    };

    // Timed reps, worlds round-robin, until the time is spent.
    let n = workload.worlds();
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut run: Vec<Vec<f64>> = vec![Vec::new(); n];
    let started = Instant::now();
    let mut cycles = 0u64;
    while cycles < 2 || started.elapsed().as_secs_f64() < opts.seconds {
        for i in 0..n {
            let t = timed_world(workload, seed, i);
            setup[i].push(t.setup_s);
            run[i].push(t.run_s);
            let expected = base.runs[i].stats.delivered;
            out.attempted += base.runs[i].verdict.owed;
            if t.delivered != expected {
                out.failed += t.delivered.abs_diff(expected);
                out.problems.push(format!(
                    "world {i}, cycle {cycles}: {} deliveries, the audited rep made {expected}",
                    t.delivered
                ));
            }
        }
        cycles += 1;
    }
    let setup_s: f64 = setup.iter().map(|s| fast(s)).sum();
    let run_s: f64 = run.iter().map(|s| fast(s)).sum();
    let rep_times: Vec<f64> = (0..cycles as usize)
        .map(|c| run.iter().map(|s| s[c]).sum())
        .collect();
    let (q1, med, q3) = quartiles(&rep_times);
    out.notes.push(format!(
        "{cycles} timed reps of {n} world(s): run wall per rep fast-quarter {run_s:.4} s, median {med:.4} s, quartiles {q1:.4}-{q3:.4} s; {delivered} deliveries per rep"
    ));
    out.notes.push(format!(
        "latency samples {}; sources are an open loop on the simulated clock (CBR/Poisson schedules independent of delivery), so generator lateness is 0 by construction",
        base.latencies_ns.len()
    ));

    out.put("setup_s", setup_s);
    out.put("deliveries_per_host_s", delivered as f64 / run_s);
    out.put("peak_rss_mb", rss);
    out.put("sim_latency_p50_ms", base.latency_ms(0.5));
    out.put("sim_latency_p999_ms", base.latency_ms(0.999));
    out.put("sim_capacity_msgs_per_sim_s", capacity);
    out.put("delivered_share", 1.0 - base.undelivered_share());
    out.put(
        "wire_packets_per_delivery",
        base.sum(|r| r.sim.packets_sent) as f64 / delivered as f64,
    );
    out.put(
        "core_control_per_delivery",
        base.sum(|r| r.metrics.wired_core_control_sent) as f64 / delivered as f64,
    );
    out.put(
        "sim_order_stall_ms",
        base.sum(|r| r.stats.order_stall_ns) as f64 / n as f64 / 1e6,
    );
    out
}

/// One configuration of the worlds, timed around `run_until` + `finish`.
#[derive(Debug, Clone, Copy)]
struct Config {
    retain: bool,
    telemetry: bool,
    sliced: bool,
    shards: usize,
}

const PLAIN: Config = Config {
    retain: false,
    telemetry: false,
    sliced: false,
    shards: 1,
};

/// Run wall seconds, deliveries and events of one rep under `cfg`.
fn config_rep(worlds: &[World], cfg: Config) -> (f64, u64, u64) {
    let (mut secs, mut delivered, mut events) = (0.0, 0, 0);
    for world in worlds {
        let mut world = world.clone();
        world.scenario.retain_journal = cfg.retain;
        world.scenario.cfg.telemetry = cfg.telemetry;
        world.scenario.shards = cfg.shards;
        let mut sim = built(&world);
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        if cfg.sliced {
            run_sliced(&mut sim, world.scenario.duration, &mut tracer);
        } else {
            sim.run_until(world.scenario.duration);
        }
        let report = <RingNetSim as MulticastSim>::finish(sim);
        secs += t0.elapsed().as_secs_f64();
        delivered += report.metrics.delivered;
        events += report.stats.events;
        std::hint::black_box((&report.journal, tracer.spans().len()));
    }
    (secs, delivered, events)
}

/// The `--trace 1` pass.
pub fn per_layer(workload: &Workload, seed: u64, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    // The traced rep: telemetry on, run in slices, every boundary a span.
    let mut tracer = Tracer::new();
    let n = workload.worlds();
    let worlds: Vec<World> = (0..n)
        .map(|i| tracer.span("bench.generate", |_| workload.world(seed, i)))
        .collect();
    let traced_worlds: Vec<World> = worlds
        .iter()
        .map(|w| {
            let mut w = w.clone();
            w.scenario.cfg.telemetry = true;
            w
        })
        .collect();
    let base = audited_rep(&traced_worlds, &mut tracer, true, pairwise_for(opts));
    let delivered = base.delivered();
    out.attempted = base.owed();
    out.failed = base.sum(|r| r.verdict.failed);
    out.problems = base.problems();
    if delivered == 0 {
        out.problems.push("nothing was delivered".into());
        return out;
    }
    let per_delivery = |x: u64| x as f64 / delivered as f64;
    let total = tracer.total_ns();
    let span_ms = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let run_ns = span_ms("core.engine.run") * 1e6;
    let slices: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.engine.run_slice")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let slice_cover = slices.iter().sum::<f64>() * 1e6 / run_ns;
    if slice_cover < 0.95 {
        out.problems.push(format!(
            "run_slice spans cover only {:.1}% of core.engine.run",
            slice_cover * 100.0
        ));
    }
    let (_, slice_p50, _) = quartiles(&slices);
    let events = base.sum(|r| r.sim.events);
    let entries = base.sum(|r| r.stats.entries);
    let mut order_waits: Vec<u64> = base
        .runs
        .iter()
        .flat_map(|r| r.stats.order_waits_ns.iter().copied())
        .collect();
    order_waits.sort_unstable();

    out.put("simnet.events_per_delivery", per_delivery(events));
    out.put(
        "simnet.timers_per_delivery",
        per_delivery(base.sum(|r| r.sim.timers_fired)),
    );
    out.put("simnet.host_ns_per_event", run_ns / events as f64);
    out.put(
        "simnet.packets_lost_share",
        base.sum(|r| r.sim.packets_lost) as f64 / base.sum(|r| r.sim.packets_sent) as f64,
    );
    out.put("simnet.slice_host_ms_p50", slice_p50);
    out.put(
        "simnet.slice_host_ms_max",
        slices.iter().copied().fold(0.0, f64::max),
    );
    out.put("simnet.journal.entries_per_delivery", per_delivery(entries));
    out.put("core.driver.build_ms", span_ms("core.driver.build"));
    out.put("core.driver.finish_ms", span_ms("core.driver.finish"));
    let token_passes = base.telemetry_counter(tm::TOKEN_PASSES);
    out.put(
        "core.ordering.token_passes_per_delivery",
        per_delivery(token_passes),
    );
    out.put(
        "core.ordering.gsn_per_token_pass",
        base.telemetry_counter(tm::GSN_ASSIGNED) as f64 / token_passes.max(1) as f64,
    );
    out.put(
        "core.ordering.token_rotation_ms_mean",
        base.telemetry_mean_ms(tm::TOKEN_ROTATION_NS),
    );
    out.put(
        "core.ordering.order_wait_ms_p50",
        exact_quantile(&order_waits, 0.5) as f64 / 1e6,
    );
    let peak = |f: fn(&WorldRun) -> u32| base.runs.iter().map(f).max().unwrap_or(0) as f64;
    out.put("core.ordering.wq_peak", peak(|r| r.metrics.wq_peak));
    out.put(
        "core.forwarding.delivery_lag_ms_mean",
        base.telemetry_mean_ms(tm::GSN_DELIVERY_LAG_NS),
    );
    out.put("core.forwarding.mq_peak", peak(|r| r.metrics.mq_peak));
    let core_data = base.sum(|r| r.metrics.wired_core_data_sent);
    out.put(
        "core.forwarding.wired_copies_per_msg",
        core_data as f64 / base.sum(|r| r.stats.source_msgs) as f64,
    );
    out.put(
        "core.forwarding.busiest_core_share",
        base.sum(|r| r.metrics.busiest_core_msgs) as f64 / core_data.max(1) as f64,
    );
    out.put(
        "core.retransmit.nacks_per_delivery",
        per_delivery(
            base.telemetry_counter(tm::NACKS_SENT)
                + base.telemetry_counter(tm::PREORDER_NACKS_SENT),
        ),
    );
    out.put(
        "core.retransmit.retransmissions_per_delivery",
        per_delivery(base.telemetry_counter(tm::RETRANSMISSIONS_SERVED)),
    );
    out.put(
        "core.retransmit.duplicates_per_delivery",
        per_delivery(base.sum(|r| r.metrics.duplicates)),
    );
    out.put(
        "core.retransmit.skipped",
        base.sum(|r| r.stats.skipped) as f64,
    );
    out.put(
        "core.membership.regen_rounds",
        base.telemetry_counter(tm::REGEN_ORIGINATED) as f64,
    );
    out.put(
        "core.membership.epoch_bumps",
        (base.telemetry_counter(tm::EPOCH_BUMPS_REGEN)
            + base.telemetry_counter(tm::EPOCH_BUMPS_REJOIN_SEED)
            + base.telemetry_counter(tm::EPOCH_BUMPS_MERGE_SEED)) as f64,
    );
    out.put(
        "core.membership.hb_suspects",
        base.telemetry_counter(tm::HB_SUSPECTS) as f64,
    );
    out.put(
        "core.membership.ring_repairs",
        base.telemetry_counter(tm::RING_REPAIRS) as f64,
    );
    out.put(
        "core.membership.rejoin_handshake_ms_mean",
        base.telemetry_mean_ms(tm::REJOIN_HANDSHAKE_NS),
    );
    let handoffs = base.sum(|r| r.metrics.handoffs);
    out.put("core.mh.handoffs", handoffs as f64);
    out.put(
        "core.mh.tree_churn_per_handoff",
        if handoffs == 0 {
            0.0
        } else {
            base.sum(|r| r.stats.tree_churn) as f64 / handoffs as f64
        },
    );
    out.put(
        "core.metrics.ns_per_entry",
        span_ms("core.metrics.observe_journal") * 1e6 / entries as f64,
    );
    out.put(
        "chaos.audit.ns_per_entry",
        span_ms("chaos.audit.observe_journal") * 1e6 / entries as f64,
    );
    out.put(
        "chaos.audit.violations",
        base.sum(|r| r.audit_violations) as f64,
    );
    out.put(
        "bench.generate_us_per_world",
        span_ms("bench.generate") * 1e3 / n as f64,
    );

    // Configurations of the same worlds, round-robin, so that a slow phase
    // of the host falls on all of them alike.
    let configs = [
        PLAIN,
        Config {
            retain: true,
            ..PLAIN
        },
        Config {
            telemetry: true,
            ..PLAIN
        },
        Config {
            retain: true,
            telemetry: true,
            sliced: true,
            shards: 1,
        },
    ];
    // The configuration the end-to-end pass times: streaming or retained.
    let timed = usize::from(worlds[0].scenario.retain_journal);
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    config_rep(&worlds, PLAIN); // warm-up, discarded
    let ((_, plain_delivered, _), alloc) =
        ringnet_bench::alloc::measure(|| config_rep(&worlds, configs[timed]));
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds) {
        for (cfg, wall) in configs.iter().zip(&mut walls) {
            wall.push(config_rep(&worlds, *cfg).0);
        }
        rounds += 1;
    }
    let wall: Vec<f64> = walls.iter().map(|w| fast(w)).collect();
    let over = |a: f64, b: f64| (a - b) / b;
    out.put(
        "simnet.journal.retain_overhead_share",
        over(wall[1], wall[0]),
    );
    out.put("core.telemetry.overhead_share", over(wall[2], wall[0]));
    out.put("trace.overhead_share", over(wall[3], wall[timed]));
    out.put(
        "alloc.calls_per_delivery",
        alloc.calls as f64 / plain_delivered.max(1) as f64,
    );
    out.put(
        "alloc.bytes_per_delivery",
        alloc.bytes as f64 / plain_delivered.max(1) as f64,
    );
    out.notes.push(format!(
        "{rounds} rounds of {} configurations; run_slice spans cover {:.1}% of core.engine.run",
        configs.len(),
        slice_cover * 100.0
    ));

    // The sharded engine on the workload's biggest world, where it has the
    // best chance. Threaded, so noisy: reported, never gated.
    let biggest = worlds
        .iter()
        .max_by_key(|w| w.scenario.walkers.len())
        .expect("a workload has at least one world");
    let samples = if opts.quick { 1 } else { 2 };
    let best = |cfg: Config| {
        (0..samples)
            .map(|_| config_rep(std::slice::from_ref(biggest), cfg))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one sample")
    };
    let seq = best(PLAIN);
    let sharded = best(Config { shards: 2, ..PLAIN });
    // Shard counts are semantically equivalent, not byte-identical: each
    // shard draws losses from its own stream, so only a loss-free world
    // must deliver the same count.
    if biggest.owes_all && sharded.1 != seq.1 {
        out.problems.push(format!(
            "2 shards delivered {}, the sequential engine {}",
            sharded.1, seq.1
        ));
    }
    out.put("simnet.shard.speedup_2", seq.0 / sharded.0);
    out.put(
        "simnet.shard.extra_events_share",
        (sharded.2 as f64 - seq.2 as f64) / seq.2 as f64,
    );
    out.notes.push(format!(
        "shard speed-up measured on the {}-walker world with {} hardware thread(s)",
        biggest.scenario.walkers.len(),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));

    // Direct calls into single layers.
    let nodes = worlds
        .iter()
        .map(|w| w.scenario.attachments + w.scenario.walkers.len() + w.scenario.sources)
        .max()
        .unwrap_or(2);
    layers::direct(&mut out.metrics, nodes, seed, opts.quick);

    if let Some(dir) = &opts.trace_dir {
        let path = dir.join(format!("trace_{}.jsonl", workload.name));
        match tracer.write_jsonl(&path, workload.name) {
            Ok(()) => out
                .notes
                .push(format!("trace written to {}", path.display())),
            Err(e) => out.problems.push(format!("{}: {e}", path.display())),
        }
    }
    let own = tracer.self_ns();
    let all: u64 = own.values().sum();
    out.notes
        .push("self time of the traced rep by span:".into());
    for (name, ns) in &own {
        out.notes.push(format!(
            "  {name:<32} {:>9.2} ms {:>5.1}%",
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / all as f64
        ));
    }
    out
}
