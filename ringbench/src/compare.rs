//! Sets of runs: the file `benchmark suite` writes, the spread table it
//! prints, and `benchmark compare A.json B.json`.
//!
//! `compare` is the A/A tool and what later change descriptions paste:
//! one row per (end-to-end metric, workload), the change of the median
//! against the bound the catalogue fixes, `unresolved` where the spread of
//! either side's runs is wider than the bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{self, Better, MetricDef};
use crate::hosttime::{quartiles, spread};
use crate::json::{self, Value};
use crate::measure::Outcome;
use crate::workloads::WORKLOADS;

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn result_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, value)) in out.metrics.iter().enumerate() {
        let unit = catalog::find(name).map_or("", |m| m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        );
    }
    s.push_str("}}");
    s
}

/// One run of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--trace`.
    pub trace: u8,
    /// Operations the run checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Whether the run's outputs were correct.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Read a run back from the line it printed.
pub fn parse_run(workload: &str, seed: u64, trace: u8, line: &str) -> Result<Run, String> {
    run_from(workload, seed, trace, &json::parse(line)?)
}

fn run_from(workload: &str, seed: u64, trace: u8, result: &Value) -> Result<Run, String> {
    let num = |key: &str| {
        result
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("result has no number {key}"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in result
        .get("metrics")
        .ok_or("result has no metrics")?
        .members()
    {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(Run {
        workload: workload.to_string(),
        seed,
        trace,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        correct: result.get("correct") == Some(&Value::Bool(true)),
        metrics,
    })
}

/// Serialise a set of runs (`benchmark suite --out`).
pub fn write_set(runs: &[(Run, String)]) -> String {
    let mut s = String::from("{\"runs\": [\n");
    for (i, (run, line)) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "  {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}{sep}",
            json::quote(&run.workload),
            run.seed,
            run.trace
        );
    }
    s.push_str("]}\n");
    s
}

/// Read a set of runs back.
pub fn read_set(text: &str) -> Result<Vec<Run>, String> {
    let doc = json::parse(text)?;
    let field = |item: &Value, key: &str| {
        item.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("run without {key}"))
    };
    doc.get("runs")
        .ok_or("no runs array")?
        .items()
        .iter()
        .map(|item| {
            let workload = item
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without workload")?;
            let result = item.get("result").ok_or("run without result")?;
            run_from(
                workload,
                field(item, "seed")? as u64,
                field(item, "trace")? as u8,
                result,
            )
        })
        .collect()
}

/// The values of one metric on one workload, in seed order.
fn series(runs: &[Run], workload: &str, metric: &str) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = runs
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).map(|&x| (r.seed, x)))
        .collect();
    v.sort_by_key(|&(seed, _)| seed);
    v
}

fn values(series: &[(u64, f64)]) -> Vec<f64> {
    series.iter().map(|&(_, x)| x).collect()
}

/// The spread table of one set: per (end-to-end metric, workload) the
/// median of the runs, the quartile distance as a share of it, and how
/// that compares with the metric's bound.
pub fn spread_table(runs: &[Run]) -> String {
    let mut s = format!(
        "{:<30} {:<16} {:>4} {:>16} {:>9} {:>7}  verdict\n",
        "metric", "workload", "runs", "median", "spread", "bound"
    );
    for m in &catalog::END_TO_END {
        for w in &WORKLOADS {
            let v = values(&series(runs, w.name, m.name));
            if v.is_empty() {
                continue;
            }
            let (_, median, _) = quartiles(&v);
            let sp = spread(&v);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if m.name == "setup_s" {
                "not gated"
            } else if sp > bound {
                "TOO WIDE"
            } else if sp > bound / 3.0 {
                "over a third of the bound"
            } else {
                "steady"
            };
            let _ = writeln!(
                s,
                "{:<30} {:<16} {:>4} {:>16.6} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                w.name,
                v.len(),
                median,
                sp * 100.0,
                bound * 100.0
            );
        }
    }
    s
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// worse direction (negative = better).
fn worsening(m: &MetricDef, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The outcome of comparing two sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The table, one row per (end-to-end metric, workload).
    pub table: String,
    /// Rows whose median worsened by more than the bound.
    pub regressions: usize,
    /// Rows whose spread exceeds the bound on either side.
    pub unresolved: usize,
    /// Whether B failed a larger share of its operations than A.
    pub more_failures: bool,
}

impl Comparison {
    /// Whether `compare` should exit 0.
    pub fn passed(&self) -> bool {
        self.regressions == 0 && !self.more_failures
    }
}

/// Compare set B against set A.
pub fn compare(a: &[Run], b: &[Run]) -> Comparison {
    let mut table = format!(
        "{:<30} {:<16} {:>15} {:>15} {:>9} {:>7} {:>8} {:>8}  verdict\n",
        "metric", "workload", "median A", "median B", "worse by", "bound", "spread A", "spread B"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for m in &catalog::END_TO_END {
        for w in &WORKLOADS {
            let (sa, sb) = (series(a, w.name, m.name), series(b, w.name, m.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (va, vb) = (values(&sa), values(&sb));
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            let (spa, spb) = (spread(&va), spread(&vb));
            let bound = m.bound.unwrap_or(0.0);
            let worse = worsening(m, ma, mb);
            let sim_clock = m.what.starts_with("sim:");
            let verdict = if worse > bound {
                regressions += 1;
                "REGRESSION"
            } else if m.name != "setup_s" && spa.max(spb) > bound {
                unresolved += 1;
                "unresolved"
            } else if sim_clock && sa == sb {
                "same, bit for bit"
            } else {
                "within bound"
            };
            let _ = writeln!(
                table,
                "{:<30} {:<16} {:>15.6} {:>15.6} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {verdict}",
                m.name,
                w.name,
                ma,
                mb,
                worse * 100.0,
                bound * 100.0,
                spa * 100.0,
                spb * 100.0
            );
        }
    }
    let share = |runs: &[Run]| {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        failed as f64 / attempted.max(1) as f64
    };
    let incorrect = |runs: &[Run]| runs.iter().filter(|r| !r.correct).count();
    let more_failures = share(b) > share(a) || incorrect(b) > incorrect(a);
    let _ = writeln!(
        table,
        "failed share: A {:.6} ({} incorrect run(s)), B {:.6} ({} incorrect run(s)){}",
        share(a),
        incorrect(a),
        share(b),
        incorrect(b),
        if more_failures { "  MORE FAILURES" } else { "" }
    );
    Comparison {
        table,
        regressions,
        unresolved,
        more_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rate: f64, p50: f64, failed: u64) -> Vec<Run> {
        (1..=5u64)
            .map(|seed| {
                let line = format!(
                    "{{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\"deliveries_per_host_s\": {{\"value\": {}, \"unit\": \"1/s\"}}, \"sim_latency_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}",
                    rate * (1.0 + seed as f64 / 1000.0)
                );
                parse_run("campus_128", seed, 0, &line).unwrap()
            })
            .collect()
    }

    #[test]
    fn a_set_written_is_the_set_read() {
        let out = Outcome {
            attempted: 9,
            failed: 0,
            metrics: vec![("setup_s", 0.001234567), ("delivered_share", 1.0)],
            ..Outcome::default()
        };
        let line = result_line(&out);
        let run = parse_run("metro_1k", 3, 0, &line).unwrap();
        assert!(run.correct);
        assert_eq!(run.metrics["setup_s"], 0.001234567);
        let text = write_set(&[(run.clone(), line)]);
        assert_eq!(read_set(&text).unwrap(), vec![run]);
    }

    #[test]
    fn same_sets_pass_and_a_slowdown_past_the_bound_does_not() {
        let a = set(1e6, 24.0, 0);
        let same = compare(&a, &a);
        assert!(same.passed(), "{}", same.table);
        assert!(same.table.contains("same, bit for bit"));
        // 20 % is the bound on deliveries_per_host_s: 10 % slower passes,
        // 25 % slower is a regression; 2 % is the bound on the p50.
        assert!(compare(&a, &set(0.9e6, 24.0, 0)).passed());
        let slow = compare(&a, &set(0.75e6, 24.0, 0));
        assert_eq!(slow.regressions, 1, "{}", slow.table);
        assert_eq!(compare(&a, &set(1e6, 24.6, 0)).regressions, 1);
        assert!(compare(&a, &set(2e6, 20.0, 0)).passed());
        let failing = compare(&a, &set(1e6, 24.0, 1));
        assert!(failing.more_failures && !failing.passed());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let mut noisy = set(1e6, 24.0, 0);
        for (i, r) in noisy.iter_mut().enumerate() {
            *r.metrics.get_mut("deliveries_per_host_s").unwrap() *= 1.0 + i as f64 * 0.2;
        }
        let c = compare(&noisy, &noisy);
        assert_eq!(c.unresolved, 1, "{}", c.table);
        assert!(spread_table(&noisy).contains("TOO WIDE"));
    }
}
