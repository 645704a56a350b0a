//! Smoke tests of the benchmark itself, in quick mode: every name in
//! `/BENCHMARK.json` is emitted, the same seed repeats the simulated clock
//! bit for bit, another seed does not, the held-out seed is clean, and a
//! forged journal is caught.
//!
//! Run with `cargo test --release`; the worlds are the real ones.

use std::path::PathBuf;

use ringbench::catalog::{MetricDef, END_TO_END, PER_LAYER};
use ringbench::json::{self, Value};
use ringbench::measure::{end_to_end, per_layer, Options, Outcome};
use ringbench::simstats::{audit_world, check_world, world_stats};
use ringbench::workloads::{self, HELD_OUT_SEED, TUNING_SEED, WORKLOADS};
use ringnet_core::driver::MulticastSim;
use ringnet_core::{ProtoEvent, RingNetSim};

fn quick() -> Options {
    Options {
        seconds: 0.2,
        quick: true,
        trace_dir: None,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_benchmark")),
    }
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {v:?}"))
}

fn assert_defs(listed: &[Value], defs: &[MetricDef], keys: &[&str]) {
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        let have: Vec<&str> = entry.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(have, keys, "{}", def.name);
        assert_eq!(string(entry, "name"), def.name);
        assert_eq!(string(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(string(entry, "better"), def.better.as_str(), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_and_the_catalogue_say_the_same() {
    let m = manifest();
    let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = m
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["ringbench"]);
    let listed = m.get("workloads").unwrap().items();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(entry.members().len(), 2);
        assert_eq!(string(entry, "name"), w.name);
        assert_eq!(string(entry, "why"), w.why);
    }
    assert_defs(
        m.get("end_to_end").unwrap().items(),
        &END_TO_END,
        &["name", "unit", "better", "bound"],
    );
    assert_defs(
        m.get("per_layer").unwrap().items(),
        &PER_LAYER,
        &["name", "unit", "better"],
    );
    let seconds = m.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

fn assert_emits_all(out: &Outcome, defs: &[MetricDef], what: &str) {
    assert!(out.correct(), "{what}: {:?}", out.problems);
    assert!(out.attempted >= 1 && out.failed == 0);
    let mut names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
    assert!(
        out.metrics.iter().all(|(_, v)| v.is_finite()),
        "{what}: {:?}",
        out.metrics
    );
    names.sort_unstable();
    let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    want.sort_unstable();
    assert_eq!(names, want, "{what}");
}

#[test]
fn every_workload_emits_every_metric_and_is_clean_on_the_held_out_seed() {
    for w in &WORKLOADS {
        let e2e = end_to_end(w, HELD_OUT_SEED, &quick());
        assert_emits_all(&e2e, &END_TO_END, w.name);
        assert!(
            e2e.metrics.iter().all(|(_, v)| *v > 0.0),
            "{}: a metric is 0: {:?}",
            w.name,
            e2e.metrics
        );
        let layers = per_layer(w, HELD_OUT_SEED, &quick());
        assert_emits_all(&layers, &PER_LAYER, w.name);
        let get = |name: &str| layers.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        // The fault counters separate the fault mix from the static worlds.
        let faults = [
            "core.mh.handoffs",
            "core.membership.ring_repairs",
            "core.retransmit.skipped",
        ];
        for name in faults {
            assert_eq!(
                get(name) > 0.0,
                w.name == "chaos_stress_12",
                "{} {name}",
                w.name
            );
        }
        assert_eq!(get("chaos.audit.violations"), 0.0);
    }
}

fn sim_clock(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|(name, _)| {
            ringbench::catalog::find(name)
                .unwrap()
                .what
                .starts_with("sim:")
        })
        .map(|&(name, v)| (name, v.to_bits()))
        .collect()
}

#[test]
fn the_simulated_clock_repeats_for_a_seed_and_moves_with_it() {
    let w = workloads::find("rings8_ctrl").unwrap();
    let a = end_to_end(w, TUNING_SEED, &quick());
    let b = end_to_end(w, TUNING_SEED, &quick());
    let c = end_to_end(w, HELD_OUT_SEED, &quick());
    assert!(sim_clock(&a).len() >= 7);
    assert_eq!(sim_clock(&a), sim_clock(&b));
    assert_ne!(sim_clock(&a), sim_clock(&c));
    let la = per_layer(w, TUNING_SEED, &quick());
    let lb = per_layer(w, TUNING_SEED, &quick());
    assert!(sim_clock(&la).len() >= 25);
    assert_eq!(sim_clock(&la), sim_clock(&lb));
}

#[test]
fn a_forged_journal_fails_the_check() {
    let world = workloads::find("campus_128")
        .unwrap()
        .world(TUNING_SEED, 0)
        .rung(1.0);
    let mut report = RingNetSim::run_scenario(&world.scenario, world.run_seed);
    let check = |report: &ringnet_core::driver::RunReport| {
        let stats = world_stats(&report.journal, world.sources_stop, world.scenario.duration);
        let audit = audit_world(&world, &report.journal);
        check_world(&world, report, &stats, &audit, true)
    };
    let honest = check(&report);
    assert!(
        honest.problems.is_empty() && honest.failed == 0,
        "{honest:?}"
    );

    // Swap two deliveries of one walker: it now delivers out of order.
    let of_walker_0: Vec<usize> = report
        .journal
        .iter()
        .enumerate()
        .filter(|(_, (_, e))| matches!(e, ProtoEvent::MhDeliver { mh, .. } if mh.0 == 0))
        .map(|(i, _)| i)
        .take(2)
        .collect();
    let (i, j) = (of_walker_0[0], of_walker_0[1]);
    let (ei, ej) = (report.journal[i].1, report.journal[j].1);
    report.journal[i].1 = ej;
    report.journal[j].1 = ei;
    let forged = check(&report);
    assert!(!forged.problems.is_empty(), "the swap went unnoticed");

    // Drop one delivery: a loss-free world now owes one it did not make.
    report.journal[i].1 = ei;
    report.journal[j].1 = ej;
    report.journal.remove(j);
    let short = check(&report);
    assert!(short.failed >= 1 || !short.problems.is_empty(), "{short:?}");
}
