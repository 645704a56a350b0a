//! Simulated-clock statistics and the correctness check, both computed by
//! the benchmark from a run's retained journal and report.
//!
//! Latency quantiles here are exact order statistics over every matched
//! delivery — not `Histogram::quantile`, whose buckets are 1.6 % wide and
//! would hide a change smaller than that.

use std::collections::BTreeMap;

use chaos::{AuditReport, Auditor};
use ringnet_core::driver::RunReport;
use ringnet_core::{metrics, LocalSeq, NodeId, ProtoEvent};
use simnet::SimTime;

use crate::workloads::World;

/// What one world's journal says on the simulated clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldStats {
    /// Source send → application delivery, one sample per delivery matched
    /// by `(source, local_seq)`, nanoseconds, in journal order.
    pub latencies_ns: Vec<u64>,
    /// Source send → first `Ordered` record of the message, nanoseconds:
    /// the wait for a global sequence number.
    pub order_waits_ns: Vec<u64>,
    /// The longest such wait among messages sent while the sources were
    /// active. A message never ordered waited until teardown.
    pub order_stall_ns: u64,
    /// Application deliveries (`MhDeliver` records).
    pub delivered: u64,
    /// Deliveries given up as really lost (`MhSkip` records).
    pub skipped: u64,
    /// Messages the sources sent.
    pub source_msgs: u64,
    /// Graft and prune records (distribution-tree churn).
    pub tree_churn: u64,
    /// Journal entries.
    pub entries: u64,
}

/// Scan a retained journal once. `sources_stop` closes the window in which
/// a wait counts towards the stall; `end` is the teardown time.
pub fn world_stats(
    journal: &[(SimTime, ProtoEvent)],
    sources_stop: SimTime,
    end: SimTime,
) -> WorldStats {
    let mut s = WorldStats {
        entries: journal.len() as u64,
        ..WorldStats::default()
    };
    // Send time, and whether an `Ordered` record has been seen yet.
    let mut sent: BTreeMap<(NodeId, LocalSeq), (SimTime, bool)> = BTreeMap::new();
    for &(t, e) in journal {
        match e {
            ProtoEvent::SourceSend { source, local_seq } => {
                s.source_msgs += 1;
                sent.entry((source, local_seq)).or_insert((t, false));
            }
            ProtoEvent::Ordered {
                source, local_seq, ..
            } => {
                if let Some((t0, ordered)) = sent.get_mut(&(source, local_seq)) {
                    if !*ordered {
                        *ordered = true;
                        let wait = t.saturating_since(*t0).as_nanos();
                        s.order_waits_ns.push(wait);
                        if *t0 <= sources_stop {
                            s.order_stall_ns = s.order_stall_ns.max(wait);
                        }
                    }
                }
            }
            ProtoEvent::MhDeliver {
                source, local_seq, ..
            } => {
                s.delivered += 1;
                if let Some(&(t0, _)) = sent.get(&(source, local_seq)) {
                    s.latencies_ns.push(t.saturating_since(t0).as_nanos());
                }
            }
            ProtoEvent::MhSkip { .. } => s.skipped += 1,
            ProtoEvent::Grafted { .. } | ProtoEvent::Pruned { .. } => s.tree_churn += 1,
            _ => {}
        }
    }
    for &(t0, ordered) in sent.values() {
        if !ordered && t0 <= sources_stop {
            s.order_stall_ns = s.order_stall_ns.max(end.saturating_since(t0).as_nanos());
        }
    }
    s
}

/// The exact `q`-quantile of sorted samples by the nearest-rank rule.
/// Panics on an empty slice: every workload delivers.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The outcome of checking one world's run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Deliveries the world owed: on a static world every message to every
    /// walker, on a chaos world what the auditor saw delivered or skipped.
    /// These are the operations attempted.
    pub owed: u64,
    /// Owed deliveries that did not happen: missing on a static world,
    /// recorded as skipped on a chaos world.
    pub not_delivered: u64,
    /// Operations whose outcome the protocol does not allow: a delivery
    /// missing from a loss-free static world, or an auditor violation. A
    /// recorded skip under injected faults is an allowed outcome; it costs
    /// `delivered_share`, not correctness.
    pub failed: u64,
    /// Safety problems, in words (empty = none): auditor violations, order
    /// violations, pairwise disagreement, inconsistent counts.
    pub problems: Vec<String>,
}

/// Feed a retained journal through the chaos auditor with the world's checks.
pub fn audit_world(world: &World, journal: &[(SimTime, ProtoEvent)]) -> AuditReport {
    let mut auditor = Auditor::new(world.audit.clone());
    auditor.observe_journal(journal);
    auditor.finish(world.scenario.duration)
}

/// Check one finished run of `world`: auditor clean, no order violation,
/// report consistent with its journal, optionally direct pairwise agreement
/// (quadratic in walkers), and on a static world every owed delivery made.
pub fn check_world(
    world: &World,
    report: &RunReport,
    stats: &WorldStats,
    audit: &AuditReport,
    pairwise: bool,
) -> Verdict {
    let mut v = Verdict::default();
    if let Some(first) = &audit.first_violation {
        v.problems.push(format!(
            "auditor: {} violation(s), first {first}",
            audit.violations
        ));
    }
    if report.metrics.order_violations != 0 {
        v.problems.push(format!(
            "{} total-order violation(s)",
            report.metrics.order_violations
        ));
    }
    if pairwise && !metrics::pairwise_agreement(&report.journal) {
        v.problems
            .push("two walkers delivered a pair of messages in opposite orders".into());
    }
    // `RunMetrics.delivered` sums the walkers' final reports, which a
    // killed walker never files; it must match the journal only where no
    // walker dies.
    let report_agrees = !world.owes_all || report.metrics.delivered == stats.delivered;
    if audit.deliveries != stats.delivered || !report_agrees {
        v.problems.push(format!(
            "delivery counts disagree: report {}, auditor {}, journal {}",
            report.metrics.delivered, audit.deliveries, stats.delivered
        ));
    }
    if world.owes_all {
        v.owed = stats.source_msgs * world.scenario.walkers.len() as u64;
        v.not_delivered = v.owed.saturating_sub(stats.delivered);
        v.failed = v.not_delivered;
        if stats.delivered > v.owed {
            v.problems.push(format!(
                "{} deliveries for {} owed",
                stats.delivered, v.owed
            ));
        }
    } else {
        v.owed = audit.deliveries + audit.skips;
        v.not_delivered = audit.skips;
        v.failed = audit.violations;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringnet_core::{GlobalSeq, GroupId};

    #[test]
    fn quantile_is_the_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(exact_quantile(&v, 0.5), 500);
        assert_eq!(exact_quantile(&v, 0.999), 999);
        assert_eq!(exact_quantile(&v, 1.0), 1000);
        assert_eq!(exact_quantile(&[7], 0.5), 7);
    }

    #[test]
    fn stall_is_the_longest_wait_and_never_ordered_waits_until_teardown() {
        let send = |ms, seq| {
            (
                SimTime::from_millis(ms),
                ProtoEvent::SourceSend {
                    source: NodeId(9),
                    local_seq: LocalSeq(seq),
                },
            )
        };
        let ordered = |ms, seq| {
            (
                SimTime::from_millis(ms),
                ProtoEvent::Ordered {
                    group: GroupId(1),
                    node: NodeId(0),
                    source: NodeId(9),
                    local_seq: LocalSeq(seq),
                    gsn: GlobalSeq(seq),
                },
            )
        };
        // Message 1 waits 10 ms, message 2 waits 30 ms; message 3 is sent
        // after the sources' window closed, so its 60 ms do not count.
        let journal = vec![
            send(10, 1),
            ordered(20, 1),
            send(30, 2),
            ordered(60, 2),
            ordered(65, 2),
            send(120, 3),
            ordered(180, 3),
        ];
        let stop = SimTime::from_millis(100);
        let end = SimTime::from_millis(200);
        let s = world_stats(&journal, stop, end);
        assert_eq!(s.order_waits_ns, vec![10_000_000, 30_000_000, 60_000_000]);
        assert_eq!(s.order_stall_ns, 30_000_000);
        // A message never ordered has been waiting since it was sent.
        let mut lost = journal.clone();
        lost.insert(2, send(25, 4));
        assert_eq!(world_stats(&lost, stop, end).order_stall_ns, 175_000_000);
    }
}
