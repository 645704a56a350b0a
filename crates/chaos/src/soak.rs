//! The generate → run → audit → (on failure) shrink loop.
//!
//! A [`Backend`] names one of the six [`MulticastSim`] implementations;
//! [`soak_seed`] drives one generated scenario through a set of backends
//! and audits each run with the checks that backend actually promises
//! (see [`Backend::audit_config`]). On a violation, the scenario is
//! minimized with [`shrink`](crate::shrink::shrink) against the *same*
//! backend and violation kind before being reported.

use std::collections::BTreeSet;

use baselines::{FlatRingSim, RelmSim, TreeSim, TunnelSim, UnorderedSim};
use ringnet_core::driver::{MulticastSim, RunReport, Scenario, ScenarioEvent};
use ringnet_core::{GlobalSeq, GroupId, ProtoEvent, RingNetSim};
use simnet::{SimDuration, SimTime};

use crate::audit::{AuditConfig, AuditReport, Auditor, LivenessCheck, Violation};
use crate::gen::ChaosConfig;

/// One of the six `MulticastSim` backends, dispatchable by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's protocol on the BR/AG/AP hierarchy.
    RingNet,
    /// One flat logical ring over every station.
    FlatRing,
    /// Degenerate-ring (MIP-RS style) tree multicast.
    Tree,
    /// RingNet without total ordering (per-source FIFO only).
    Unordered,
    /// MIP-BT home-agent tunnelling.
    Tunnel,
    /// RelM-style centralized supervisor.
    Relm,
}

impl Backend {
    /// All six, in the order the conformance suite uses.
    pub const ALL: [Backend; 6] = [
        Backend::RingNet,
        Backend::FlatRing,
        Backend::Tree,
        Backend::Relm,
        Backend::Tunnel,
        Backend::Unordered,
    ];

    /// Stable name (CLI + reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::RingNet => "ringnet",
            Backend::FlatRing => "flat_ring",
            Backend::Tree => "tree",
            Backend::Unordered => "unordered",
            Backend::Tunnel => "tunnel",
            Backend::Relm => "relm",
        }
    }

    /// Parse a [`Backend::name`].
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Run one scenario end to end on this backend.
    pub fn run(self, sc: &Scenario, seed: u64) -> RunReport {
        match self {
            Backend::RingNet => RingNetSim::run_scenario(sc, seed),
            Backend::FlatRing => FlatRingSim::run_scenario(sc, seed),
            Backend::Tree => TreeSim::run_scenario(sc, seed),
            Backend::Unordered => UnorderedSim::run_scenario(sc, seed),
            Backend::Tunnel => TunnelSim::run_scenario(sc, seed),
            Backend::Relm => RelmSim::run_scenario(sc, seed),
        }
    }

    /// The audit this backend's promises support:
    ///
    /// * GSN checks for every backend: the unordered comparator orders
    ///   each stream as a group of its own, so its GSNs are per-stream
    ///   numbers the per-group checks hold it to;
    /// * gap-freedom only for the RingNet-engine family, the unordered
    ///   comparator included, which records per-GSN skips (tunnel/RelM
    ///   drop silently under loss);
    /// * liveness only for RingNet — the one backend that claims to
    ///   *recover* from the whole fault repertoire. `window` comes from
    ///   the chaos config; exemptions are derived from the scenario.
    ///   Minority-side silence under an **unhealed** ring partition is
    ///   liveness-exempt (which walkers sit on the minority side is a
    ///   backend-topology fact the scenario cannot name, so the exemption
    ///   is blanket); a *healed* partition exempts nobody — ordering must
    ///   resume for everyone after the merge;
    /// * post-recovery resumption for the ring backends (RingNet, flat
    ///   ring, tree): when the schedule contains a
    ///   [`ScenarioEvent::RingRejoin`] or a [`ScenarioEvent::HealRing`],
    ///   at least one application delivery must land at or after the last
    ///   such recovery point — the spliced/merged ring must demonstrably
    ///   keep ordering and delivering.
    pub fn audit_config(self, sc: &Scenario, cfg: &ChaosConfig) -> AuditConfig {
        let (gsn, gaps) = match self {
            Backend::RingNet | Backend::FlatRing | Backend::Tree | Backend::Unordered => {
                (true, true)
            }
            Backend::Tunnel | Backend::Relm => (true, false),
        };
        let liveness = match self {
            Backend::RingNet => Some(LivenessCheck {
                window: cfg.liveness_window,
                walkers: live_walkers(sc, cfg),
            }),
            _ => None,
        };
        let ordering_resumed_after = match self {
            Backend::RingNet | Backend::FlatRing | Backend::Tree => sc
                .events
                .iter()
                .filter_map(|e| match e {
                    ScenarioEvent::RingRejoin { at, .. } => Some(*at),
                    ScenarioEvent::HealRing { at, .. } => Some(*at),
                    _ => None,
                })
                .max(),
            _ => None,
        };
        AuditConfig {
            check_gsn_order: gsn,
            check_gap_freedom: gaps,
            liveness,
            ordering_resumed_after,
        }
    }
}

/// The walkers expected to still make progress at the end of the run:
/// everyone except crash-stopped walkers, late joiners that never (or too
/// late) join, walkers that can be stranded on an attachment that crashed
/// and never restarted — and, when the schedule leaves a ring partition
/// **unhealed**, everyone (the minority side legitimately stays silent,
/// and which walkers sit under it is backend topology the scenario cannot
/// name; the generator always schedules the heal, so generated worlds
/// never take this blanket exemption).
pub fn live_walkers(sc: &Scenario, cfg: &ChaosConfig) -> Vec<u32> {
    let unhealed_partition = sc.events.iter().any(|e| {
        matches!(*e, ScenarioEvent::PartitionRing { at, isolate }
                 if !sc.events.iter().any(|h| matches!(*h,
                     ScenarioEvent::HealRing { at: ha, isolate: hi }
                         if hi == isolate && ha >= at)))
    });
    if unhealed_partition {
        return Vec::new();
    }
    let mut exempt: BTreeSet<usize> = BTreeSet::new();
    let join_cutoff = sc.duration - (cfg.liveness_window + SimDuration::from_millis(500));
    for (w, initial) in sc.walkers.iter().enumerate() {
        if initial.is_none() {
            let joins_in_time = sc.events.iter().any(|e| {
                matches!(e, ScenarioEvent::Join { walker, at, .. }
                         if *walker == w && *at <= join_cutoff)
            });
            if !joins_in_time {
                exempt.insert(w);
            }
        }
    }
    for ev in &sc.events {
        if let ScenarioEvent::KillWalker { walker, .. } = ev {
            exempt.insert(*walker);
        }
    }
    // Attachments that crash and never restart strand their residents.
    for ev in &sc.events {
        let ScenarioEvent::ApCrash { at: crash, ap } = *ev else {
            continue;
        };
        let restarted = sc.events.iter().any(
            |e| matches!(e, ScenarioEvent::ApRestart { at, ap: r } if *r == ap && *at >= crash),
        );
        if restarted {
            continue;
        }
        for w in 0..sc.walkers.len() {
            if resides_at(sc, w, ap, crash) {
                exempt.insert(w);
            }
        }
    }
    (0..sc.walkers.len() as u32)
        .filter(|w| !exempt.contains(&(*w as usize)))
        .collect()
}

/// True when walker `w`'s scheduled attachment chain places it at
/// attachment `ap` at any time in `[from, duration]`: it is there at
/// `from`, or a later scheduled join/handoff moves it there.
fn resides_at(sc: &Scenario, w: usize, ap: usize, from: SimTime) -> bool {
    let mut chain: Vec<(SimTime, usize)> = Vec::new();
    if let Some(initial) = sc.walkers[w] {
        chain.push((SimTime::ZERO, initial));
    }
    chain.extend(sc.events.iter().filter_map(|e| match *e {
        ScenarioEvent::Join { at, walker, at_ap } if walker == w => Some((at, at_ap)),
        ScenarioEvent::Handoff { at, walker, to } if walker == w => Some((at, to)),
        _ => None,
    }));
    chain.sort_by_key(|(t, _)| *t);
    let at_from = chain
        .iter()
        .rev()
        .find(|(t, _)| *t <= from)
        .map(|(_, a)| *a);
    at_from == Some(ap)
        || chain
            .iter()
            .any(|(t, a)| *t > from && *t <= sc.duration && *a == ap)
}

/// Run one `(scenario, seed)` on one backend, then audit its retained
/// journal in one batch pass ([`Auditor::observe_journal`]). Returns the
/// audit report.
pub fn audit_scenario_run(
    sc: &Scenario,
    seed: u64,
    backend: Backend,
    cfg: &ChaosConfig,
) -> AuditReport {
    audit_run(sc, backend, cfg, &backend.run(sc, seed))
}

fn audit_run(sc: &Scenario, backend: Backend, cfg: &ChaosConfig, run: &RunReport) -> AuditReport {
    let mut auditor = Auditor::new(backend.audit_config(sc, cfg));
    auditor.observe_journal(&run.journal);
    auditor.finish(sc.duration)
}

/// The NE skips in `journal` of a `(group, GSN)` that some walker
/// delivered: skips of data that was not gone, which the protocol's
/// contract (delivered at one member, delivered at all) rules out. A
/// bookkeeping count beside the audit, not an [`AuditReport`] field.
pub fn ne_skips_delivered_elsewhere(journal: &[(SimTime, ProtoEvent)]) -> u64 {
    let delivered: BTreeSet<(GroupId, GlobalSeq)> = (journal.iter())
        .filter_map(|(_, e)| match *e {
            ProtoEvent::MhDeliver { group, gsn, .. } => Some((group, gsn)),
            _ => None,
        })
        .collect();
    let elsewhere = |(_, e): &&(SimTime, ProtoEvent)| match *e {
        ProtoEvent::NeSkip { group, gsn, .. } => delivered.contains(&(group, gsn)),
        _ => false,
    };
    journal.iter().filter(elsewhere).count() as u64
}

/// How a run recovered from its forced token losses
/// ([`ProtoEvent::TokenDropped`]): the time from each drop to the next
/// [`ProtoEvent::TokenRegenerated`], the span Token-Regeneration (§4.2.1)
/// left ordering stopped. Neither event names its group, and a world's
/// `DropToken` drops every group's token, so only a single-group run's
/// drops are paired; a run of several groups counts its drops apart. A
/// bookkeeping figure beside the audit, like
/// [`ne_skips_delivered_elsewhere`]; figures of several runs add up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenRecovery {
    /// Drops a regeneration followed.
    pub recovered: u64,
    /// Their summed drop → regeneration gaps.
    pub total_gap: SimDuration,
    /// Their longest gap.
    pub max_gap: SimDuration,
    /// Drops no regeneration followed before the run ended.
    pub unpaired: u64,
    /// Drops in runs of several groups, which are not paired: one group's
    /// regeneration would close another group's drop.
    pub multi_group: u64,
}

impl TokenRecovery {
    /// Measure one run's journal; `groups` is the number of groups the
    /// run ordered.
    pub fn of(journal: &[(SimTime, ProtoEvent)], groups: usize) -> Self {
        let mut r = TokenRecovery::default();
        if groups > 1 {
            let drops = journal
                .iter()
                .filter(|(_, e)| matches!(e, ProtoEvent::TokenDropped { .. }));
            r.multi_group = drops.count() as u64;
            return r;
        }
        let mut pending: Vec<SimTime> = Vec::new();
        for (t, e) in journal {
            match e {
                ProtoEvent::TokenDropped { .. } => pending.push(*t),
                ProtoEvent::TokenRegenerated { .. } => {
                    for dropped in pending.drain(..) {
                        let gap = t.saturating_since(dropped);
                        r.recovered += 1;
                        r.total_gap += gap;
                        r.max_gap = r.max_gap.max(gap);
                    }
                }
                _ => {}
            }
        }
        r.unpaired = pending.len() as u64;
        r
    }

    /// Fold in another run's figures.
    pub fn add(&mut self, other: &TokenRecovery) {
        self.recovered += other.recovered;
        self.total_gap += other.total_gap;
        self.max_gap = self.max_gap.max(other.max_gap);
        self.unpaired += other.unpaired;
        self.multi_group += other.multi_group;
    }

    /// The mean gap of the recovered drops; `None` when there are none.
    pub fn mean_gap(&self) -> Option<SimDuration> {
        (self.recovered > 0).then(|| self.total_gap / self.recovered)
    }
}

/// What one soaked seed produced on one backend.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Which backend ran.
    pub backend: Backend,
    /// Deliveries audited.
    pub deliveries: u64,
    /// Skips audited.
    pub skips: u64,
    /// NE skips of a GSN some walker delivered
    /// ([`ne_skips_delivered_elsewhere`]).
    pub ne_skips_delivered_elsewhere: u64,
    /// Forced token losses and their recovery ([`TokenRecovery`]).
    pub token_recovery: TokenRecovery,
}

/// A violating seed, with the minimized reproduction.
#[derive(Debug)]
pub struct SoakFailure {
    /// The backend that violated.
    pub backend: Backend,
    /// The generator seed (reproduce with `chaos_soak --seed N`).
    pub seed: u64,
    /// The first violation of the *original* scenario.
    pub violation: Violation,
    /// The shrunk scenario that still reproduces the violation kind.
    pub shrunk: Scenario,
    /// Events remaining after shrinking (of the original count).
    pub shrunk_events: usize,
    /// Events in the generated scenario.
    pub original_events: usize,
}

/// Generate the seed's scenario, run it on every requested backend, audit,
/// and on the first violation shrink and return the failure.
pub fn soak_seed(
    cfg: &ChaosConfig,
    seed: u64,
    backends: &[Backend],
    shrink_failures: bool,
) -> Result<Vec<SoakOutcome>, Box<SoakFailure>> {
    let sc = crate::gen::generate(cfg, seed);
    let mut outcomes = Vec::with_capacity(backends.len());
    for &backend in backends {
        let run = backend.run(&sc, seed);
        let report = audit_run(&sc, backend, cfg, &run);
        if let Some(violation) = report.first_violation {
            let kind = violation.kind;
            let shrunk = if shrink_failures {
                crate::shrink::shrink(&sc, |cand| {
                    audit_scenario_run(cand, seed, backend, cfg)
                        .first_violation
                        .is_some_and(|v| v.kind == kind)
                })
            } else {
                sc.clone()
            };
            return Err(Box::new(SoakFailure {
                backend,
                seed,
                violation,
                original_events: sc.events.len(),
                shrunk_events: shrunk.events.len(),
                shrunk,
            }));
        }
        outcomes.push(SoakOutcome {
            backend,
            deliveries: report.deliveries,
            skips: report.skips,
            ne_skips_delivered_elsewhere: ne_skips_delivered_elsewhere(&run.journal),
            token_recovery: TokenRecovery::of(&run.journal, sc.declared_groups().len()),
        });
    }
    Ok(outcomes)
}

// ------------------------------------------------------------ equivalence

/// The scenario used for the cross-backend delivery-set equivalence audit,
/// derived from the same generator seed: identical world shape and walker
/// population, but **loss-free** wireless, **no** scheduled events,
/// always-active attachments, a single CBR source, and a source window
/// that closes two simulated seconds before teardown so every backend
/// fully drains. In such a world all six backends promise the same thing —
/// every walker receives every message — so their delivered-message sets
/// must be *identical*, not merely clean.
pub fn equivalence_scenario(cfg: &ChaosConfig, seed: u64) -> Scenario {
    let mut sc = crate::gen::generate(cfg, seed);
    sc.events.clear();
    // Late joiners are placed from the start (the static backends would
    // place them differently otherwise).
    sc.walkers = sc.walkers.iter().map(|w| Some(w.unwrap_or(0))).collect();
    // One source: the single-ingest backends (tunnel, RelM) clamp source
    // counts, which would make multi-source delivery sets incomparable.
    sc.sources = 1;
    // CBR only: Poisson draws come from per-backend RNG streams, so the
    // sent set itself would differ across backends.
    if let ringnet_core::TrafficPattern::Poisson { .. } = sc.pattern {
        sc.pattern = ringnet_core::TrafficPattern::Cbr {
            interval: simnet::SimDuration::from_millis(10),
        };
    }
    sc.links.wireless = simnet::LinkProfile::wired(SimDuration::from_millis(2));
    // Group structure collapses to the single shared group: the
    // equivalence audit compares all six backends, and only the ring
    // family implements per-group delivery — "every walker receives every
    // message" is only the common promise in a one-group world.
    sc.groups.clear();
    sc.subscriptions.clear();
    sc.source_groups.clear();
    sc.aps_always_active = true;
    sc.start = SimTime::from_millis(200);
    sc.stop = Some(sc.duration - SimDuration::from_secs(2));
    sc.limit = None;
    sc.retain_journal = true;
    debug_assert!(sc.validate().is_empty(), "{:?}", sc.validate());
    sc
}

/// Per-walker delivered-message sets of one run: walker →
/// `{(source rank, local_seq)}`. Source node ids differ per backend, so
/// they are normalized to their rank among the sources observed.
pub fn delivery_sets(
    report: &RunReport,
) -> std::collections::BTreeMap<u32, BTreeSet<(usize, u64)>> {
    let mut source_ids: BTreeSet<ringnet_core::NodeId> = BTreeSet::new();
    for (_, e) in &report.journal {
        if let ProtoEvent::MhDeliver { source, .. } = e {
            source_ids.insert(*source);
        }
    }
    let rank: std::collections::BTreeMap<_, _> = source_ids
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i))
        .collect();
    let mut sets: std::collections::BTreeMap<u32, BTreeSet<(usize, u64)>> = Default::default();
    for (_, e) in &report.journal {
        if let ProtoEvent::MhDeliver {
            mh,
            source,
            local_seq,
            ..
        } = e
        {
            sets.entry(mh.0)
                .or_default()
                .insert((rank[source], local_seq.0));
        }
    }
    sets
}

/// A cross-backend delivery-set mismatch on a loss-free, fault-free world.
#[derive(Debug)]
pub struct EquivalenceFailure {
    /// The generator seed the world was derived from.
    pub seed: u64,
    /// The reference backend (first in the requested list).
    pub baseline: Backend,
    /// The backend whose delivery sets diverged.
    pub backend: Backend,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// Run the seed's loss-free world on every requested backend and compare
/// the per-walker delivered-message sets against the first backend's.
/// Returns the number of deliveries compared on success.
pub fn check_equivalence(
    cfg: &ChaosConfig,
    seed: u64,
    backends: &[Backend],
) -> Result<u64, Box<EquivalenceFailure>> {
    let sc = equivalence_scenario(cfg, seed);
    let baseline = backends[0];
    let reference = delivery_sets(&baseline.run(&sc, seed));
    let mut compared: u64 = reference.values().map(|s| s.len() as u64).sum();
    for &backend in &backends[1..] {
        let sets = delivery_sets(&backend.run(&sc, seed));
        compared += sets.values().map(|s| s.len() as u64).sum::<u64>();
        if sets == reference {
            continue;
        }
        // Pin down the first divergent walker for the report.
        let detail = reference
            .keys()
            .chain(sets.keys())
            .find(|w| reference.get(w) != sets.get(w))
            .map(|w| {
                let a = reference.get(w).map_or(0, |s| s.len());
                let b = sets.get(w).map_or(0, |s| s.len());
                format!(
                    "walker {w}: {} delivered {a} distinct messages, {} delivered {b}",
                    baseline.name(),
                    backend.name()
                )
            })
            .unwrap_or_else(|| "walker sets differ".into());
        return Err(Box::new(EquivalenceFailure {
            seed,
            baseline,
            backend,
            detail,
        }));
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_walker_derivation() {
        let cfg = ChaosConfig::default();
        let mut sc = ringnet_core::driver::ScenarioBuilder::new()
            .attachments(3)
            .walkers(vec![Some(0), Some(1), Some(2), None])
            .duration(SimTime::from_secs(6))
            .build();
        // Walker 3 never joins → exempt. Walker 1 killed → exempt.
        sc.events.push(ScenarioEvent::KillWalker {
            at: SimTime::from_secs(2),
            walker: 1,
        });
        assert_eq!(live_walkers(&sc, &cfg), vec![0, 2]);
        // Walker 2 rides out the run on attachment 2; crash it for good.
        sc.events.push(ScenarioEvent::ApCrash {
            at: SimTime::from_secs(3),
            ap: 2,
        });
        assert_eq!(live_walkers(&sc, &cfg), vec![0]);
        // A restart un-strands it.
        sc.events.push(ScenarioEvent::ApRestart {
            at: SimTime::from_secs(4),
            ap: 2,
        });
        assert_eq!(live_walkers(&sc, &cfg), vec![0, 2]);
    }

    #[test]
    fn multi_group_worlds_audit_clean_and_exercise_the_fence() {
        // Generated multi-group worlds (subscription sets, overlapping
        // fence-routed sources, mobility, AP faults) must audit clean on
        // both ring backends, and the cross-group agreement check must
        // actually have fenced messages to chew on.
        let cfg = ChaosConfig::quick();
        let mut seen_multi = 0usize;
        let mut crossed = 0usize;
        for seed in 0..24 {
            let sc = crate::gen::generate(&cfg, seed);
            if sc.declared_groups().len() < 2 {
                continue;
            }
            seen_multi += 1;
            for backend in [Backend::RingNet, Backend::FlatRing] {
                let report = backend.run(&sc, seed);
                let mut auditor = Auditor::new(backend.audit_config(&sc, &cfg));
                auditor.observe_journal(&report.journal);
                let r = auditor.finish(sc.duration);
                assert!(
                    r.is_clean(),
                    "backend {} seed {seed}: {}",
                    backend.name(),
                    r.first_violation.unwrap()
                );
                crossed += r.cross_group_messages;
            }
        }
        assert!(
            seen_multi >= 4,
            "multi-group worlds generated: {seen_multi}"
        );
        assert!(crossed > 0, "no fence-routed messages were audited");
    }

    #[test]
    fn token_recovery_pairs_each_drop_with_the_next_regeneration() {
        use ringnet_core::{Epoch, NodeId};
        let ms = SimTime::from_millis;
        let dropped = |t| {
            let e = ProtoEvent::TokenDropped {
                node: NodeId(1),
                epoch: Epoch(0),
            };
            (ms(t), e)
        };
        let regenerated = |t| {
            let e = ProtoEvent::TokenRegenerated {
                node: NodeId(0),
                epoch: Epoch(1),
                next_gsn: GlobalSeq(7),
            };
            (ms(t), e)
        };
        let skip = |t| {
            let e = ProtoEvent::NeSkip {
                group: GroupId(1),
                node: NodeId(2),
                gsn: GlobalSeq(3),
            };
            (ms(t), e)
        };
        // A regeneration with no drop before it (a ring repair's) pairs
        // with nothing; two drops before one regeneration both pair with
        // it; the last drop is never followed.
        let journal = [
            regenerated(100),
            dropped(1_000),
            skip(1_050),
            regenerated(1_130),
            dropped(2_000),
            dropped(2_010),
            regenerated(2_150),
            dropped(3_000),
        ];
        let r = TokenRecovery::of(&journal, 1);
        let want = TokenRecovery {
            recovered: 3,
            total_gap: SimDuration::from_millis(130 + 150 + 140),
            max_gap: SimDuration::from_millis(150),
            unpaired: 1,
            multi_group: 0,
        };
        assert_eq!(r, want);
        assert_eq!(r.mean_gap(), Some(SimDuration::from_millis(140)));
        // The same journal from a run of two groups: the 2 000 and 2 010 ms
        // drops may be the two groups' tokens, which the one regeneration
        // at 2 150 ms cannot both answer, so no drop is paired.
        let two = TokenRecovery::of(&journal, 2);
        let want = TokenRecovery {
            multi_group: 4,
            ..TokenRecovery::default()
        };
        assert_eq!(two, want);
        assert_eq!(two.mean_gap(), None);
        let mut sum = TokenRecovery::default();
        assert_eq!(sum.mean_gap(), None);
        sum.add(&r);
        sum.add(&TokenRecovery::of(&journal[..4], 1));
        sum.add(&two);
        assert_eq!((sum.recovered, sum.unpaired, sum.multi_group), (4, 1, 4));
        assert_eq!(sum.max_gap, SimDuration::from_millis(150));
        assert_eq!(TokenRecovery::of(&[], 1), TokenRecovery::default());
    }

    #[test]
    fn handoff_into_dead_ap_strands() {
        let cfg = ChaosConfig::default();
        let mut sc = ringnet_core::driver::ScenarioBuilder::new()
            .attachments(3)
            .walkers(vec![Some(0)])
            .duration(SimTime::from_secs(6))
            .build();
        sc.events.push(ScenarioEvent::ApCrash {
            at: SimTime::from_secs(2),
            ap: 1,
        });
        assert_eq!(live_walkers(&sc, &cfg), vec![0], "not resident at 1");
        sc.events.push(ScenarioEvent::Handoff {
            at: SimTime::from_secs(3),
            walker: 0,
            to: 1,
        });
        assert!(live_walkers(&sc, &cfg).is_empty(), "walks into the outage");
    }
}
