//! Determinism guarantees of the telemetry layer.
//!
//! The flight recorder and metrics registry are simulated-time-only
//! observers: enabling them must not perturb the protocol (journal
//! byte-identity), and their own output must be a pure function of
//! `(scenario, seed)`.

use ringnet_core::{
    MulticastSim, ProtoEvent, RingNetSim, Scenario, ScenarioBuilder, ScenarioEvent,
};
use simnet::{SimDuration, SimTime};

/// A small world with enough fault traffic to exercise every trace-record
/// kind: a kill + rejoin (RegenRound, EpochBump, RejoinHandshake), a ring
/// partition + heal (PartitionFence, Merge), a token drop, and a control
/// replay, over loss-free links so the message path consumes no RNG.
fn chaotic_scenario(telemetry: bool) -> Scenario {
    ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(2)
        .cbr(SimDuration::from_millis(20))
        .loss_free_wireless()
        .telemetry(telemetry)
        .events([
            ScenarioEvent::DropToken {
                at: SimTime::from_millis(400),
            },
            ScenarioEvent::KillCore {
                at: SimTime::from_millis(900),
                index: 1,
            },
            ScenarioEvent::RingRejoin {
                at: SimTime::from_millis(1600),
                index: 1,
            },
            ScenarioEvent::PartitionRing {
                at: SimTime::from_millis(2300),
                isolate: 0,
            },
            ScenarioEvent::HealRing {
                at: SimTime::from_millis(2900),
                isolate: 0,
            },
        ])
        .duration(SimTime::from_secs(4))
        .build()
}

// ------------------------------------------------ journal byte-identity

/// Enabling telemetry must not change a single journal entry: the
/// recorder observes protocol phases, it never participates in them.
#[test]
fn journal_is_byte_identical_with_telemetry_on_and_off() {
    for seed in [3, 41] {
        let off = RingNetSim::run_scenario(&chaotic_scenario(false), seed);
        let on = RingNetSim::run_scenario(&chaotic_scenario(true), seed);
        assert!(off.telemetry.is_none(), "telemetry off ⇒ no report");
        assert!(on.telemetry.is_some(), "telemetry on ⇒ report present");
        assert_eq!(
            off.journal, on.journal,
            "seed {seed}: telemetry perturbed the protocol journal"
        );
    }
}

// ------------------------------------------------ metrics pinned digests

/// FNV-1a over every node's counters and histograms of
/// `chaotic_scenario(true)`, rendered in `BTreeMap` order (trace
/// records excluded), per seed. ringbench's telemetry-derived per-layer
/// metrics (`core.ordering.token_*`, `core.forwarding.delivery_lag_ms_mean`,
/// `core.retransmit.*`, `core.membership.*`) are functions of these
/// numbers, so a change meant to be neutral leaves both constants alone.
/// Re-golden only when a change intends the metrics to move, and write
/// the reason beside the constant. The two seeds agree: this loss-free
/// world draws no randomness that reaches the protocol.
///
/// Re-goldened when an AG ring's acknowledged data began answering the
/// liveness probe to its next member (both were `0x50f1_8db1_0238_dbd1`):
/// only the two AGs' `control_sent.heartbeat` counters move (186 → 121
/// and 177 → 113 at seed 3).
///
/// Re-goldened when a lower ring's leader stopped acknowledging the
/// ring's last member, which keeps no `MQ` for it (both were
/// `0x979d_ec8f_283e_e722`): only the leader AG's `control_sent.data_ack`
/// moves (468 → 234), its acks to the parent BR alone.
///
/// Re-goldened when an AG ring's leader came to be watched by its next
/// member, whose data it is, instead of probed by the last member, to
/// which no traffic flows (both were `0x596c_083d_921c_7d39`): only the
/// two AGs' `control_sent.heartbeat` counters move (121 → 45 for the
/// leader AG 2, which answers fewer probes, and 113 → 36 for AG 3, which
/// probes its leader only in periods the leader sent it nothing).
///
/// Re-goldened when a quiet token came to be suspected after one
/// retry-chain window of 120 ms at the first ring member, checked every
/// hop tick, instead of after 400 ms on the heartbeat tick (both were
/// `0x6990_dca0_7d4b_9776`). The dropped token is regenerated at 0.535 s
/// instead of 0.860 s, so BR 0's longest rotation falls 460 → 150 ms and
/// the ring makes more passes (BR 0 430 → 463), with the token traffic
/// and acknowledgements that go with them. BR 0 also originates two
/// rounds nobody adopts (`regen_originated` 1 → 3): at 1.030 s into BR 1,
/// killed at 0.9 s and excised only at 1.050 s, and at 2.425 s across the
/// ring partition cut at 2.3 s and repaired at 2.450 s.
///
/// Re-goldened when a real liveness probe came to be confirmed on the hop
/// tick, a round trip and a hop tick after it went out, instead of on the
/// next heartbeat tick (both were `0xa046_d87e_e407_6420`). BR 1, killed
/// at 0.9 s, is excised at 0.945 s instead of 1.050 s, so BR 0's round of
/// 1.030 s no longer dies in it and is adopted; the partition is repaired
/// at 2.345 s instead of 2.450 s and BR 0 adopts its 2.425 s round too
/// (`regen_adopted` 1 → 3). The ring makes more passes (BR 0 463 → 472),
/// and BR 0 and BR 1 send a few probes fewer and more (114 → 113, 115 →
/// 118), the AGs fewer (23 → 18 and 19 → 15), the APs 4 → 3 each.
///
/// Re-goldened when a member with an unacknowledged token transfer came
/// to count as live and the quiet window shrank from the retry chain's
/// 120 ms to the ring's circle and a hop tick, 15 ms on these two BRs
/// (both were `0xffbc_c1a2_6e26_cccc`). The dropped token is regenerated
/// at 0.430 s instead of 0.535 s; BR 0, alone once it excises BR 1 at
/// 0.945 s and once the partition is repaired at 2.345 s, adopts its
/// round at once instead of at 1.030 s and 2.425 s. BR 0's longest
/// rotation falls 135 → 45 ms, its largest delivery lag 145 → 55 ms, and
/// the ring makes more passes (BR 0 472 → 517, BR 1 255 → 265). BR 1
/// originates one round, which BR 0 destroys (`regen_destroyed` 0 → 1).
/// BR 0 sends fewer probes (113 → 110), the AGs fewer (18 → 4 and
/// 15 → 8), the APs 3 → 0 or 2, and the AGs and APs about 10 acks fewer
/// each.
const METRICS_DIGESTS: [(u64, u64); 2] = [(3, 0xe856_f8ff_732b_1cb9), (41, 0xe856_f8ff_732b_1cb9)];

fn metrics_digest(report: &ringnet_core::TelemetryReport) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (id, dump) in &report.nodes {
        let _ = writeln!(text, "node {}", id.0);
        for (k, v) in &dump.metrics.counters {
            let _ = writeln!(text, "  {k} {v}");
        }
        for (k, h) in &dump.metrics.histograms {
            let _ = writeln!(
                text,
                "  {k} {} {} {} {} {:?}",
                h.count, h.sum_ns, h.min_ns, h.max_ns, h.buckets
            );
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn telemetry_metrics_are_pinned() {
    let mut moved = Vec::new();
    for (seed, pinned) in METRICS_DIGESTS {
        let report = RingNetSim::run_scenario(&chaotic_scenario(true), seed)
            .telemetry
            .expect("telemetry enabled");
        let got = metrics_digest(&report);
        if got != pinned {
            moved.push(format!("seed {seed}: {got:#018x} (pinned {pinned:#018x})"));
        }
    }
    assert!(moved.is_empty(), "telemetry metrics moved: {moved:?}");
}

// ------------------------------------------------- dump byte-identity

/// The serialised flight-recorder dump is a pure function of
/// `(scenario, seed)`: rerunning the identical world reproduces it byte
/// for byte.
#[test]
fn dump_is_byte_identical_across_reruns() {
    for seed in [11, 29] {
        let a = RingNetSim::run_scenario(&chaotic_scenario(true), seed);
        let b = RingNetSim::run_scenario(&chaotic_scenario(true), seed);
        let a = a.telemetry.expect("telemetry enabled").to_json();
        let b = b.telemetry.expect("telemetry enabled").to_json();
        assert_eq!(a, b, "seed {seed}: dump not reproducible");
    }
}

// --------------------------------------------------- report invariants

/// The report actually contains protocol-phase evidence for the chaos we
/// injected, and the fixed-depth recorder keeps all of it: the token pass
/// is journalled rather than traced, so the rare phases are never evicted.
#[test]
fn chaos_run_produces_phase_evidence_within_recorder_bounds() {
    let run = RingNetSim::run_scenario(&chaotic_scenario(true), 19);
    let report = run.telemetry.expect("enabled");
    assert!(
        report.total_counter("token_passes") > 0,
        "no token rotations observed"
    );
    assert!(
        report.total_counter("partition_fences") > 0,
        "PartitionRing left no fence evidence"
    );
    assert!(
        report.total_counter("merges") > 0,
        "HealRing left no merge evidence"
    );
    assert!(
        report.total_counter("rejoins_granted") > 0,
        "RingRejoin left no handshake evidence"
    );
    for (id, dump) in &report.nodes {
        assert!(
            dump.records.first().is_none_or(|e| e.seq == 0),
            "node {id:?}: the flight recorder evicted a record"
        );
    }
    let kinds: std::collections::BTreeSet<&'static str> = report
        .merged_trace()
        .iter()
        .map(|(_, e)| e.record.kind())
        .collect();
    for kind in [
        "regen_round",
        "epoch_bump",
        "rejoin_handshake",
        "partition_fence",
        "merge",
    ] {
        assert!(kinds.contains(kind), "no {kind} record in the trace");
    }
    assert!(
        run.journal
            .iter()
            .any(|(_, ev)| matches!(ev, ProtoEvent::TokenPass { .. })),
        "no TokenPass in the journal"
    );
}
