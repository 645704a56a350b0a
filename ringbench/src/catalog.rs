//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` repeats these; `tests/smoke.rs` keeps
//! the two in step.
//!
//! Two clocks, named in every metric. *Host* metrics are what the
//! simulator costs the people who run experiments and soaks. *Sim* metrics
//! (prefix `sim_`, or a count per delivery) are what the modelled protocol
//! does on the modelled network; for a fixed seed they repeat bit for bit,
//! so they compare two commits exactly.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is a regression.
    pub bound: Option<f64>,
    /// What is measured, and on which clock.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25,
        "host: generate the inputs from the seed, build every world and schedule its events; sum over worlds of the fast-quarter mean over reps"),
    e2e("deliveries_per_host_s", "1/s", Higher, 0.2,
        "host: application deliveries of one rep / sum over worlds of the fast-quarter mean of (run_until + finish [+ auditor pass on retained worlds]) wall time; tracing and telemetry off"),
    e2e("peak_rss_mb", "MB", Lower, 0.15,
        "host: VmHWM of a fresh child process that runs exactly one rep"),
    e2e("sim_latency_p50_ms", "ms", Lower, 0.02,
        "sim: source send to application delivery matched by (source, local_seq), exact median over every delivery of the audited rep"),
    e2e("sim_latency_p999_ms", "ms", Lower, 0.1,
        "sim: the same, exact 99.9th percentile (every workload has at least 200 samples beyond it)"),
    e2e("sim_capacity_msgs_per_sim_s", "msg/sim-s", Higher, 0.02,
        "sim: open-loop rate ladder; the highest aggregate source rate whose rung loses no more than the workload's share of owed deliveries and keeps the exact p999 under the workload's latency limit"),
    e2e("delivered_share", "ratio", Higher, 0.005,
        "sim: owed deliveries that happened / owed deliveries; 1 minus the failed share (missing on a static world, recorded as skipped on a chaos world)"),
    e2e("wire_packets_per_delivery", "ratio", Lower, 0.02,
        "sim: SimStats.packets_sent / deliveries"),
    e2e("core_control_per_delivery", "ratio", Lower, 0.02,
        "sim: RunMetrics.wired_core_control_sent / deliveries"),
    e2e("sim_order_stall_ms", "ms", Lower, 0.05,
        "sim: the longest any source message sent while sources were active waited for its global sequence number (never ordered = waited until teardown); mean over worlds"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 55] = [
    layer("simnet.events_per_delivery", "ratio", Lower, "sim: SimStats.events / deliveries"),
    layer("simnet.timers_per_delivery", "ratio", Lower, "sim: SimStats.timers_fired / deliveries"),
    layer("simnet.host_ns_per_event", "ns", Lower, "host: core.engine.run span time of the traced rep / events"),
    layer("simnet.packets_lost_share", "ratio", Lower, "sim: packets_lost / packets_sent"),
    layer("simnet.event.ns_per_op_d64", "ns", Lower, "host: EventQueue schedule/cancel/pop churn with 64 events in flight"),
    layer("simnet.event.ns_per_op_d4096", "ns", Lower, "host: the same with 4096 in flight"),
    layer("simnet.sim.bare_ns_per_event", "ns", Lower, "host: null-actor world of the workload's node count doing multicast fan-out and ping-pong: the floor under host_ns_per_event"),
    layer("simnet.link.ns_per_transmit", "ns", Lower, "host: LinkState::transmit, half wired, half Gilbert-Elliott wireless"),
    layer("simnet.slice_host_ms_p50", "ms", Lower, "host: median core.engine.run_slice span (100 ms of simulated time)"),
    layer("simnet.slice_host_ms_max", "ms", Lower, "host: slowest slice (fault bursts)"),
    layer("simnet.journal.entries_per_delivery", "ratio", Lower, "sim: retained journal entries / deliveries"),
    layer("simnet.journal.retain_overhead_share", "ratio", Lower, "host: (retained - streaming) / streaming run wall"),
    layer("simnet.shard.speedup_2", "ratio", Higher, "host: sequential / 2-shard run wall of the workload's biggest world (threaded, not gated)"),
    layer("simnet.shard.extra_events_share", "ratio", Lower, "sim: (2-shard events - sequential events) / sequential events"),
    layer("core.driver.build_ms", "ms", Lower, "host: core.driver.build spans of the traced rep"),
    layer("core.driver.finish_ms", "ms", Lower, "host: core.driver.finish spans of the traced rep"),
    layer("core.ordering.token_passes_per_delivery", "ratio", Lower, "sim: telemetry token_passes / deliveries"),
    layer("core.ordering.gsn_per_token_pass", "ratio", Higher, "sim: telemetry gsn_assigned / token_passes (operations per batch)"),
    layer("core.ordering.token_rotation_ms_mean", "ms", Lower, "sim: mean of telemetry token_rotation_ns"),
    layer("core.ordering.order_wait_ms_p50", "ms", Lower, "sim: source send to Ordered, exact median (the paper's T_order term)"),
    layer("core.ordering.wq_peak", "count", Lower, "sim: largest WQ occupancy of any entity"),
    layer("core.token.ns_per_rotation", "ns", Lower, "host: OrderingToken assign + complete_rotation, direct calls"),
    layer("core.wq.ns_per_msg", "ns", Lower, "host: WorkingQueue insert/order/gc per message, direct calls"),
    layer("core.forwarding.delivery_lag_ms_mean", "ms", Lower, "sim: mean of telemetry gsn_delivery_lag_ns"),
    layer("core.forwarding.mq_peak", "count", Lower, "sim: largest MQ occupancy of any entity"),
    layer("core.forwarding.wired_copies_per_msg", "ratio", Lower, "sim: wired-core data messages sent / source messages"),
    layer("core.forwarding.busiest_core_share", "ratio", Lower, "sim: data messages sent by the busiest core entity / all wired-core data messages"),
    layer("core.mq.ns_per_msg", "ns", Lower, "host: MessageQueue sliding-window insert/poll/gc per message, direct calls"),
    layer("core.wt.ns_per_ack", "ns", Lower, "host: WorkingTable ack + min_progress with 64 children, direct calls"),
    layer("core.retransmit.nacks_per_delivery", "ratio", Lower, "sim: telemetry nacks_sent + preorder_nacks_sent / deliveries"),
    layer("core.retransmit.retransmissions_per_delivery", "ratio", Lower, "sim: telemetry retransmissions_served / deliveries"),
    layer("core.retransmit.duplicates_per_delivery", "ratio", Lower, "sim: RunMetrics.duplicates / deliveries"),
    layer("core.retransmit.skipped", "count", Lower, "sim: MhSkip records"),
    layer("core.membership.regen_rounds", "count", Lower, "sim: telemetry regen_originated"),
    layer("core.membership.epoch_bumps", "count", Lower, "sim: telemetry epoch bumps (regen + rejoin seed + merge seed)"),
    layer("core.membership.hb_suspects", "count", Lower, "sim: telemetry hb_suspects"),
    layer("core.membership.ring_repairs", "count", Lower, "sim: telemetry ring_repairs"),
    layer("core.membership.rejoin_handshake_ms_mean", "ms", Lower, "sim: mean of telemetry rejoin_handshake_ns (0 when no rejoin happened)"),
    layer("core.mh.handoffs", "count", Lower, "sim: RunMetrics.handoffs"),
    layer("core.mh.tree_churn_per_handoff", "ratio", Lower, "sim: graft + prune records / handoffs (0 without handoffs)"),
    layer("core.fence.overlap_host_ratio", "ratio", Lower, "host: run wall per delivery of a 4-ring world whose sources each address two adjacent groups / the disjoint 4-ring split"),
    layer("core.fence.overlap_latency_p50_ms", "ms", Lower, "sim: exact median latency of that overlap world"),
    layer("core.metrics.ns_per_entry", "ns", Lower, "host: MetricsAccumulator::observe_journal over the retained journal"),
    layer("core.telemetry.overhead_share", "ratio", Lower, "host: (telemetry on - off) / off run wall"),
    layer("chaos.audit.ns_per_entry", "ns", Lower, "host: Auditor::observe_journal over the retained journal"),
    layer("chaos.audit.violations", "count", Lower, "sim: auditor violations (must be 0)"),
    layer("bench.generate_us_per_world", "us", Lower, "host: making one world's inputs from the seed"),
    layer("baselines.flat_ring.host_us_per_delivery", "us", Lower, "host: Backend::FlatRing on a 3 sim-s campus_128 world"),
    layer("baselines.tree.host_us_per_delivery", "us", Lower, "host: Backend::Tree, same world"),
    layer("baselines.tunnel.host_us_per_delivery", "us", Lower, "host: Backend::Tunnel, same world"),
    layer("baselines.relm.host_us_per_delivery", "us", Lower, "host: Backend::Relm, same world"),
    layer("baselines.unordered.host_us_per_delivery", "us", Lower, "host: Backend::Unordered, same world"),
    layer("alloc.calls_per_delivery", "ratio", Lower, "host: allocator calls of one untraced rep / deliveries"),
    layer("alloc.bytes_per_delivery", "B", Lower, "host: bytes requested by those calls / deliveries"),
    layer("trace.overhead_share", "ratio", Lower, "host: (traced configuration - timed configuration) / timed configuration run wall"),
];

/// Look a definition up by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
    }
}
