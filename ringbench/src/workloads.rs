//! The four workloads, and the only place benchmark inputs are made.
//!
//! A workload is a list of *worlds* — `(Scenario, run seed)` pairs — all
//! derived from `--seed`. The library only ever sees the generated
//! `Scenario`; nothing downstream knows a workload's name. One *rep* of a
//! workload runs every one of its worlds once.
//!
//! The shape and offered load of every world are fixed: they are what the
//! workload *is*, and a metric that moved with them could not be compared
//! between two seeds (pooled over 24 freshly generated stress worlds, the
//! median latency of ten seeds spread over 12 % and the 99.9th percentile
//! over 28 %). The seed drives what is random *inside* a world — every
//! loss, jitter and arrival draw of the run — and the phase of the
//! open-loop sources against the protocol's timers, within [`PHASE_SPAN`].

use chaos::{AuditConfig, Backend, ChaosConfig};
use ringnet_core::driver::Scenario;
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::GroupId;
use simnet::rng::splitmix64;
use simnet::{SimDuration, SimTime};

/// Generator seeds of the `chaos_stress_12` worlds: the first window of
/// twelve consecutive `ChaosConfig::stress()` seeds in which every fault
/// class of the generator occurs at least twice (core kill → restart →
/// rejoin 2, ring partition → heal 2, token drop 3, control replay 3, AP
/// crash → restart 5, wired-core partition 2, walker kill 3, Gilbert–
/// Elliott wireless 6, fenced multi-group sources 6; handoffs and late
/// joins in every world).
pub const CHAOS_GENERATOR_SEEDS: std::ops::Range<u64> = 97..109;

/// The sources' first transmission is delayed by a seed-derived offset
/// below this, so no two seeds give byte-identical sim metrics while the
/// phase against the 5 ms order-assignment timer moves by at most 2 %.
pub const PHASE_SPAN: SimDuration = SimDuration::from_micros(100);

/// Static sources stop this long before teardown, so that every message
/// sent at the base rate has time to reach every subscriber and a missing
/// delivery is a failure, not a truncation artefact.
pub const DRAIN: SimDuration = SimDuration::from_millis(500);

/// Length of one capacity-ladder rung on a static world, simulated.
pub const RUNG_DURATION: SimTime = SimTime::from_secs(3);

/// Seed the workloads were tuned on (sizes, latency limits, bounds).
pub const TUNING_SEED: u64 = 7;
/// Seed never used for tuning; `tests/smoke.rs` verifies it clean.
pub const HELD_OUT_SEED: u64 = 4242;

/// One entry of the workload catalogue. `name` and `why` are repeated in
/// `BENCHMARK.json`; the smoke test keeps the two in step.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: the layers it loads.
    pub why: &'static str,
    /// Sizes, for the catalogue printed by `benchmark list`.
    pub sizes: &'static str,
    /// Capacity ladder: multiples of the base aggregate source rate,
    /// ascending.
    pub ladder: &'static [f64],
    /// The p999 latency a capacity rung must meet: twice the base-rate
    /// p999 on the tuning seed, rounded up to 10 ms.
    pub latency_limit_ms: f64,
    /// Share of owed deliveries a capacity rung may miss and still pass.
    pub rung_max_undelivered: f64,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Campus,
    Rings,
    Metro,
    Chaos,
}

const SQRT2: f64 = std::f64::consts::SQRT_2;
const FULL_LADDER: &[f64] = &[1.0, SQRT2, 2.0, 2.0 * SQRT2, 4.0, 4.0 * SQRT2, 8.0];

/// The catalogue, in the order `BENCHMARK.json` lists it.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "campus_128",
        why: "Fan-out bound: 1 ordered message becomes 128 deliveries; simnet fan-out, forwarding, MQ, MH delivery and the metrics sink work, ordering idles. Bypass workload for control-plane changes.",
        sizes: "8x4 grid, 4 walkers/AP (128), 2 CBR sources x 200 msg/s, 1 group, loss-free 2 ms wireless, static, 10 sim-s, streaming journal",
        ladder: FULL_LADDER,
        latency_limit_ms: 80.0,
        rung_max_undelivered: 0.001,
        kind: Kind::Campus,
    },
    Workload {
        name: "rings8_ctrl",
        why: "Ordering/control-plane bound: 8 token rings, fan-out of 8, about 12x the core control messages per delivery of campus_128; mq_capacity 128 binds. The regime ring-control optimisations target.",
        sizes: "8 APs x 1 walker, 8 CBR sources x 500 msg/s round-robin over 8 disjoint groups, every walker subscribed to all, mq_capacity 128, full recording, 7 sim-s, streaming journal",
        ladder: FULL_LADDER,
        latency_limit_ms: 180.0,
        rung_max_undelivered: 0.001,
        kind: Kind::Rings,
    },
    Workload {
        name: "metro_1k",
        why: "Scale: 256 APs and 1024 walkers, deep event queue, working set past the caches the small worlds fit in; the same layers as campus_128 at 8x the width.",
        sizes: "16x16 grid, 4 walkers/AP (1024), 2 CBR sources x 100 msg/s, 1 group, loss-free, static, 3 sim-s, sequential engine, streaming journal",
        ladder: &[1.0, SQRT2, 2.0, 2.0 * SQRT2, 4.0],
        latency_limit_ms: 300.0,
        rung_max_undelivered: 0.001,
        kind: Kind::Metro,
    },
    Workload {
        name: "chaos_stress_12",
        why: "Fault mix: handoffs, bursty loss, token drops, core kill/rejoin, ring partitions, replays, late joins, fenced sources. Loads retransmit, membership, recovery, mh, fence, retained journal, auditor.",
        sizes: "12 fixed worlds of chaos::generate(ChaosConfig::stress()), 4-36 APs, 1-3 sources, 6-8 sim-s each, RingNet backend, retained journal, auditor pass inside the timed section",
        ladder: &[1.0, 2.0, 4.0],
        latency_limit_ms: 860.0,
        rung_max_undelivered: 0.01,
        kind: Kind::Chaos,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One simulated world of a workload: everything a backend needs.
#[derive(Debug, Clone)]
pub struct World {
    /// The generated scenario, journal retention as the timed path uses it.
    pub scenario: Scenario,
    /// Seed of the run itself.
    pub run_seed: u64,
    /// The checks this world's journal must pass.
    pub audit: AuditConfig,
    /// When the open-loop sources stop.
    pub sources_stop: SimTime,
    /// Whether every message owes a delivery to every walker (static,
    /// loss-free worlds). Chaos worlds owe only what the auditor sees.
    pub owes_all: bool,
}

impl World {
    /// The aggregate offered load of the world's open-loop sources.
    pub fn offered_msgs_per_sim_s(&self) -> f64 {
        self.scenario.sources as f64 * self.scenario.pattern.rate_per_sec()
    }

    /// This world with its journal retained, for a pass that reads it.
    pub fn retained(&self) -> World {
        let mut w = self.clone();
        w.scenario.retain_journal = true;
        w
    }

    /// One capacity-ladder rung: this world with its sources sped up by
    /// `factor` and its journal retained. A static world is cut to
    /// [`RUNG_DURATION`]; a chaos world keeps its length, because its
    /// fault schedule is laid out over the whole run.
    pub fn rung(&self, factor: f64) -> World {
        let mut w = self.retained();
        w.scenario.pattern = match w.scenario.pattern {
            TrafficPattern::Cbr { interval } => TrafficPattern::Cbr {
                interval: interval.mul_f64(1.0 / factor),
            },
            TrafficPattern::Poisson { rate } => TrafficPattern::Poisson {
                rate: rate * factor,
            },
        };
        if self.owes_all {
            w.scenario.duration = RUNG_DURATION;
            w.sources_stop = RUNG_DURATION - DRAIN;
            w.scenario.stop = Some(w.sources_stop);
        }
        w
    }
}

impl Workload {
    /// Worlds in one rep.
    pub fn worlds(&self) -> usize {
        match self.kind {
            Kind::Chaos => (CHAOS_GENERATOR_SEEDS.end - CHAOS_GENERATOR_SEEDS.start) as usize,
            _ => 1,
        }
    }

    /// Make world `index` of the workload from the seed. Same seed, same
    /// world; nothing else in the benchmark draws inputs.
    pub fn world(&self, seed: u64, index: usize) -> World {
        assert!(index < self.worlds(), "{} has no world {index}", self.name);
        let phase = SimDuration::from_nanos(splitmix64(seed) % PHASE_SPAN.as_nanos());
        let mut world = match self.kind {
            Kind::Chaos => {
                let cfg = ChaosConfig::stress();
                let scenario = chaos::generate(&cfg, CHAOS_GENERATOR_SEEDS.start + index as u64);
                World {
                    audit: Backend::RingNet.audit_config(&scenario, &cfg),
                    sources_stop: scenario.stop.unwrap_or(scenario.duration),
                    run_seed: splitmix64(seed ^ splitmix64(index as u64 + 1)),
                    scenario,
                    owes_all: false,
                }
            }
            kind => static_world(kind, seed),
        };
        world.scenario.start += phase;
        world
    }

    /// Every world of one rep.
    pub fn generate(&self, seed: u64) -> Vec<World> {
        (0..self.worlds()).map(|i| self.world(seed, i)).collect()
    }
}

fn static_world(kind: Kind, seed: u64) -> World {
    let b = Scenario::builder().loss_free_wireless();
    let (b, secs) = match kind {
        Kind::Campus => (
            b.grid(8, 4)
                .walkers_per_attachment(4)
                .sources(2)
                .cbr(SimDuration::from_millis(5)),
            10,
        ),
        Kind::Rings => (
            b.attachments(8)
                .walkers_per_attachment(1)
                .sources(8)
                .cbr(SimDuration::from_millis(2))
                .groups((1..=8).map(GroupId).collect()),
            7,
        ),
        Kind::Metro => (
            b.grid(16, 16)
                .walkers_per_attachment(4)
                .sources(2)
                .cbr(SimDuration::from_millis(10)),
            3,
        ),
        Kind::Chaos => unreachable!("chaos worlds come from the generator"),
    };
    let duration = SimTime::from_secs(secs);
    let sources_stop = duration - DRAIN;
    let mut scenario = b
        .window(SimTime::ZERO, Some(sources_stop))
        .duration(duration)
        .retain_journal(false)
        .build();
    if kind == Kind::Rings {
        scenario.cfg.mq_capacity = 128;
    }
    World {
        scenario,
        run_seed: seed,
        audit: AuditConfig::default(),
        sources_stop,
        owes_all: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = format!("{:?}", w.generate(TUNING_SEED));
            let b = format!("{:?}", w.generate(TUNING_SEED));
            let c = format!("{:?}", w.generate(HELD_OUT_SEED));
            assert_eq!(
                a, b,
                "{}: generation must be a function of the seed",
                w.name
            );
            assert_ne!(a, c, "{}: another seed must give other inputs", w.name);
        }
    }

    #[test]
    fn generated_worlds_are_valid_scenarios() {
        for w in &WORKLOADS {
            for world in w.generate(HELD_OUT_SEED) {
                assert_eq!(
                    world.scenario.validate(),
                    Vec::<String>::new(),
                    "{}",
                    w.name
                );
                assert!(world.sources_stop <= world.scenario.duration);
            }
        }
    }

    #[test]
    fn rung_scales_the_offered_load() {
        let w = &find("campus_128").unwrap().generate(1)[0];
        let r = w.rung(2.0);
        assert_eq!(r.offered_msgs_per_sim_s(), 2.0 * w.offered_msgs_per_sim_s());
        assert_eq!(r.scenario.duration, RUNG_DURATION);
        assert!(r.scenario.retain_journal && !w.scenario.retain_journal);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
