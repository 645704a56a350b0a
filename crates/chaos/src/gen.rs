//! Seeded random scenario generation.
//!
//! [`generate`] samples a *valid* [`Scenario`] from a bounded parameter
//! space: world shape (chain or grid), walker population (including late
//! joiners), traffic pattern, wireless link profile (up to Gilbert–Elliott
//! bursty loss), a handoff schedule, and a fault schedule drawn from the
//! full repertoire — including kill → restart → **ring rejoin** cycles on
//! wired-core entities. The construction is deliberately conservative
//! about *recoverability*: every AP crash gets a matching restart, every
//! partition a matching heal, no source-bearing core entity is killed, and
//! fault times leave room for recovery before the end of the run — so a
//! clean protocol produces a clean audit, and an auditor violation means a
//! protocol bug, not an impossible world.
//!
//! Four [`SoakTier`]s bound the space: `Quick` (CI-sized), `Default`, the
//! opt-in `Stress` tier (tens of attachments, hundreds of walkers — the
//! ROADMAP's production-scale worlds), and the `Massive` tier (thousands
//! of walkers), selected via [`ChaosConfig::tier`].
//!
//! Determinism: the scenario is a pure function of `(ChaosConfig, seed)`.

use ringnet_core::driver::{ReplayKind, Scenario, ScenarioBuilder, ScenarioEvent};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::GroupId;
use simnet::{LinkProfile, LossModel, SimDuration, SimRng, SimTime};

/// The four sizes of generated world, selected via [`ChaosConfig::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakTier {
    /// CI-sized: small worlds, short runs, full fault mix.
    Quick,
    /// The standard soak space.
    Default,
    /// Opt-in production-scale worlds: tens of attachments, hundreds of
    /// walkers. Not run in CI (wall-time); `chaos_soak --stress`.
    Stress,
    /// Scale proof: thousands of walkers (5k–12k) on wide attachment
    /// chains (`chaos_soak --massive`). Trades the fault repertoire for raw
    /// scale — runs are fault-free mobility worlds whose whole point is
    /// that the engine keeps every audit promise at populations the other
    /// soak tiers never reach.
    Massive,
}

/// Bounds and toggles of the scenario space.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Largest attachment-point count (chains and grids both honour it).
    pub max_attachments: usize,
    /// Smallest attachment-point count (grid shapes are skipped when they
    /// cannot reach it — the massive tier uses this to guarantee scale).
    pub min_attachments: usize,
    /// Largest initial walkers-per-attachment count.
    pub max_walkers_per_attachment: usize,
    /// Smallest initial walkers-per-attachment count.
    pub min_walkers_per_attachment: usize,
    /// Force CBR traffic (the massive tier bounds its event volume this
    /// way; Poisson rates are unbounded enough to blow up 10k-walker runs).
    pub force_cbr: bool,
    /// Largest source count (clamped to the attachment count).
    pub max_sources: usize,
    /// Shortest run.
    pub min_duration: SimDuration,
    /// Longest run.
    pub max_duration: SimDuration,
    /// Sample lossy wireless profiles (Bernoulli, Gilbert–Elliott).
    pub allow_lossy_wireless: bool,
    /// Schedule random handoffs.
    pub allow_mobility: bool,
    /// Add late-joining walkers.
    pub allow_late_joins: bool,
    /// Schedule walker crash-stops.
    pub allow_walker_kills: bool,
    /// Schedule wired-core crash-stops (never a source-bearing entity).
    pub allow_core_kills: bool,
    /// Pair a wired-core kill with a restart + ring-rejoin
    /// ([`ScenarioEvent::RingRejoin`]): the killed BR/AG comes back and is
    /// spliced into its repaired ring at a token boundary.
    pub allow_core_rejoin: bool,
    /// Schedule AP crash + restart pairs.
    pub allow_ap_crash_restart: bool,
    /// Schedule wired-core partition + heal pairs.
    pub allow_partitions: bool,
    /// Schedule *ordering-ring* partition + heal pairs
    /// ([`ScenarioEvent::PartitionRing`]): a sourceless top-ring member is
    /// isolated from its ring peers, must fence itself via the epoch
    /// layer's primary-component rule, and merge back after the
    /// always-scheduled heal. Only generated in single-source worlds —
    /// the one shape where the isolated member is sourceless on *every*
    /// backend, so a partitioned minority that (correctly) assigns
    /// nothing is also the world's ground truth. Mutually exclusive with
    /// core kills in one scenario (a killed majority would leave no
    /// primary component to keep the GSN stream alive).
    pub allow_ring_partition: bool,
    /// Schedule Byzantine-ish control replays
    /// ([`ScenarioEvent::ReplayControl`]): duplicated, delayed
    /// Token / RingFail / RejoinGrant copies the lifecycle idempotency and
    /// epoch fence must absorb.
    pub allow_control_replay: bool,
    /// Schedule forced token loss.
    pub allow_token_drop: bool,
    /// Generate multi-group worlds: 2..=[`ChaosConfig::max_groups`]
    /// declared groups (one token ring each), per-walker subscription
    /// sets, and per-source target sets — including overlapping ≥ 2-group
    /// targets that route through the cross-group fence. Multi-group
    /// worlds keep the mobility / AP-fault mix but suppress the wired-core
    /// fault repertoire (kills, rejoins, partitions, control replays,
    /// token drops): those events address one shared ring's index space,
    /// and on a fleet of rings each ring owns its own recovery story.
    pub allow_multi_group: bool,
    /// Largest declared group count of a multi-group world (also bounded
    /// by the attachment count — the flat ring hosts one ring per group
    /// over its stations).
    pub max_groups: usize,
    /// The liveness window the soak audits with; fault times stay clear of
    /// the last `liveness_window + 1s` of the run so recovery can complete.
    pub liveness_window: SimDuration,
    /// Enable the deterministic telemetry layer
    /// ([`ProtocolConfig::telemetry`](ringnet_core::ProtocolConfig)) on
    /// every generated scenario, so a violating run carries per-node
    /// flight recorders for the postmortem dump. Off by default: telemetry
    /// never changes a journal, but the soak's job is to prove that, not
    /// assume it.
    pub telemetry: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            max_attachments: 9,
            min_attachments: 2,
            max_walkers_per_attachment: 2,
            min_walkers_per_attachment: 1,
            force_cbr: false,
            max_sources: 3,
            min_duration: SimDuration::from_secs(5),
            max_duration: SimDuration::from_secs(7),
            allow_lossy_wireless: true,
            allow_mobility: true,
            allow_late_joins: true,
            allow_walker_kills: true,
            allow_core_kills: true,
            allow_core_rejoin: true,
            allow_ap_crash_restart: true,
            allow_partitions: true,
            allow_ring_partition: true,
            allow_control_replay: true,
            allow_token_drop: true,
            allow_multi_group: true,
            max_groups: 4,
            liveness_window: SimDuration::from_secs(2),
            telemetry: false,
        }
    }
}

impl ChaosConfig {
    /// A CI-sized space: smaller worlds, shorter runs, same fault mix.
    pub fn quick() -> Self {
        ChaosConfig {
            max_attachments: 6,
            max_walkers_per_attachment: 1,
            max_sources: 2,
            min_duration: SimDuration::from_millis(4_500),
            max_duration: SimDuration::from_millis(5_500),
            ..ChaosConfig::default()
        }
    }

    /// The opt-in production-scale space (ROADMAP: "tens of attachments,
    /// hundreds of walkers"): grids up to 6×6, up to six walkers per
    /// attachment plus late joiners, same full fault mix.
    pub fn stress() -> Self {
        ChaosConfig {
            max_attachments: 36,
            max_walkers_per_attachment: 6,
            max_sources: 3,
            min_duration: SimDuration::from_secs(6),
            max_duration: SimDuration::from_secs(8),
            ..ChaosConfig::default()
        }
    }

    /// The scale space ([`SoakTier::Massive`]): chains of 64–80
    /// attachments carrying 100–160 walkers each (≈6.5k–12.8k walkers),
    /// CBR-only traffic, and a run too short for the fault scheduler to
    /// fit a recoverable fault — the tier proves scale, the other tiers
    /// prove faults.
    pub fn massive() -> Self {
        ChaosConfig {
            max_attachments: 80,
            min_attachments: 64,
            max_walkers_per_attachment: 160,
            min_walkers_per_attachment: 100,
            force_cbr: true,
            max_sources: 2,
            min_duration: SimDuration::from_secs(3),
            max_duration: SimDuration::from_millis(3_500),
            allow_lossy_wireless: false,
            allow_late_joins: false,
            // The massive tier proves raw scale; group structure is the
            // other tiers' job.
            allow_multi_group: false,
            ..ChaosConfig::default()
        }
    }

    /// The config for one [`SoakTier`].
    pub fn tier(tier: SoakTier) -> Self {
        match tier {
            SoakTier::Quick => ChaosConfig::quick(),
            SoakTier::Default => ChaosConfig::default(),
            SoakTier::Stress => ChaosConfig::stress(),
            SoakTier::Massive => ChaosConfig::massive(),
        }
    }

    /// The wired-core sizes every KillCore-implementing backend would build
    /// for this scenario shape: `(ringnet_brs, min core length)`. KillCore
    /// and PartitionCore indices must stay below the minimum so one
    /// scenario drives every backend without panicking.
    fn core_bounds(attachments: usize, sources: usize) -> (usize, usize) {
        let brs = sources.max(2);
        let ringnet = brs + attachments.div_ceil(4).max(2);
        let tree = 1 + attachments.div_ceil(2).max(1);
        let flat = attachments;
        (brs, ringnet.min(tree).min(flat))
    }
}

fn ms(rng: &mut SimRng, lo: SimDuration, hi: SimDuration) -> SimTime {
    let lo = lo.as_nanos() / 1_000_000;
    let hi = hi.as_nanos() / 1_000_000;
    SimTime::from_millis(rng.range_u64(lo, hi.max(lo + 1)))
}

fn wireless_profile(rng: &mut SimRng, allow_lossy: bool) -> LinkProfile {
    let choice = rng.index(if allow_lossy { 4 } else { 2 });
    match choice {
        0 => LinkProfile::wired(SimDuration::from_millis(2)),
        1 => LinkProfile::wireless(
            SimDuration::from_millis(1 + rng.range_u64(0, 2)),
            SimDuration::from_millis(rng.range_u64(0, 3)),
            0.0,
        ),
        2 => LinkProfile::wireless(
            SimDuration::from_millis(2),
            SimDuration::from_millis(1),
            rng.range_f64(0.002, 0.03),
        ),
        _ => LinkProfile::wired(SimDuration::from_millis(2)).with_loss(LossModel::lossy_wireless()),
    }
}

/// Sample one valid scenario. Panics only on a generator bug (the built
/// scenario is validated).
pub fn generate(cfg: &ChaosConfig, seed: u64) -> Scenario {
    let mut rng = SimRng::derive(seed, 0xC4A0_5EED);
    let duration_d = SimDuration::from_nanos(
        rng.range_u64(cfg.min_duration.as_nanos(), cfg.max_duration.as_nanos() + 1),
    );
    let duration = SimTime::ZERO + duration_d;
    // Faults must finish recovering before the closing liveness window.
    let fault_hi = duration_d.saturating_sub(cfg.liveness_window + SimDuration::from_secs(1));
    let fault_lo = SimDuration::from_millis(800);
    let can_fault = fault_hi > SimDuration::from_millis(1_500);

    // ---- world shape --------------------------------------------------
    let mut b = ScenarioBuilder::new();
    // Grid side bounds scale with the tier: up to 3 for the small
    // spaces (unchanged sampling), up to 6 for the stress tier. Grids
    // that cannot reach the tier's attachment floor are skipped.
    let side_cap = if cfg.max_attachments >= 16 { 6 } else { 3 };
    let attachments;
    if rng.chance(0.4) && side_cap * side_cap >= cfg.min_attachments {
        let cols = 2 + rng.index(side_cap - 1); // 2..=side_cap
                                                // Rows clamped so cols × rows honours max_attachments.
        let max_rows = (cfg.max_attachments.max(2) / cols).clamp(1, side_cap);
        let rows = 1 + rng.index(max_rows);
        attachments = cols * rows;
        b = b.grid(cols, rows);
    } else {
        let lo = cfg.min_attachments.max(2);
        let hi = cfg.max_attachments.max(lo);
        attachments = lo + rng.index(hi - lo + 1);
        b = b.attachments(attachments);
    }
    let sources = (1 + rng.index(cfg.max_sources.max(1))).min(attachments);
    let (_brs, core_len) = ChaosConfig::core_bounds(attachments, sources);

    // ---- population ---------------------------------------------------
    let mut placements: Vec<Option<usize>> = Vec::new();
    let wpa_lo = cfg.min_walkers_per_attachment.max(1);
    let wpa_hi = cfg.max_walkers_per_attachment.max(wpa_lo);
    for a in 0..attachments {
        for _ in 0..wpa_lo + rng.index(wpa_hi - wpa_lo + 1) {
            placements.push(Some(a));
        }
    }
    let late_joiners = if cfg.allow_late_joins {
        rng.index(3) // 0..=2
    } else {
        0
    };
    for _ in 0..late_joiners {
        placements.push(None);
    }
    let walkers = placements.len();

    // ---- groups -------------------------------------------------------
    // A multi-group world declares 2..=max_groups groups. Every source
    // targets either one group or an overlapping set of ≥ 2 (the
    // cross-group fence path); source 0 is biased toward overlap so the
    // fence is exercised in most multi-group worlds. Every walker
    // subscription intersects the sourced groups, so liveness still means
    // something for every audited walker.
    let group_cap = cfg.max_groups.min(attachments);
    let multi_group = cfg.allow_multi_group && group_cap >= 2 && rng.chance(0.45);
    let n_groups = if multi_group {
        2 + rng.index(group_cap - 1)
    } else {
        1
    };
    let declared: Vec<GroupId> = (1..=n_groups as u32).map(GroupId).collect();
    let mut source_groups: Vec<Vec<GroupId>> = Vec::new();
    let mut subscriptions: Vec<Vec<GroupId>> = Vec::new();
    if multi_group {
        for i in 0..sources {
            let fenced = rng.chance(if i == 0 { 0.8 } else { 0.35 });
            let mut set: Vec<GroupId> = if fenced {
                declared
                    .iter()
                    .copied()
                    .filter(|_| rng.chance(0.5))
                    .collect()
            } else {
                vec![declared[i % n_groups]]
            };
            while fenced && set.len() < 2 {
                let g = declared[rng.index(n_groups)];
                if !set.contains(&g) {
                    set.push(g);
                }
            }
            set.sort_unstable();
            source_groups.push(set);
        }
        let sourced: Vec<GroupId> = {
            let mut s: Vec<GroupId> = source_groups.iter().flatten().copied().collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for _ in 0..walkers {
            let mut subs: Vec<GroupId> = if rng.chance(0.4) {
                declared.clone()
            } else {
                declared
                    .iter()
                    .copied()
                    .filter(|_| rng.chance(0.5))
                    .collect()
            };
            if !subs.iter().any(|g| sourced.contains(g)) {
                subs.push(sourced[rng.index(sourced.len())]);
            }
            subs.sort_unstable();
            subs.dedup();
            subscriptions.push(subs);
        }
    }

    // ---- traffic ------------------------------------------------------
    let pattern = if rng.chance(0.7) || cfg.force_cbr {
        TrafficPattern::Cbr {
            interval: SimDuration::from_millis(5 + rng.range_u64(0, 21)),
        }
    } else {
        TrafficPattern::Poisson {
            rate: rng.range_f64(40.0, 160.0),
        }
    };
    let start = SimTime::from_millis(100 + rng.range_u64(0, 200));

    // ---- events -------------------------------------------------------
    let mut events: Vec<ScenarioEvent> = Vec::new();
    // Late joins: in the first half so joiners are audit-worthy by the end.
    let join_hi = duration_d / 2;
    for w in walkers - late_joiners..walkers {
        events.push(ScenarioEvent::Join {
            at: ms(&mut rng, SimDuration::from_millis(300), join_hi),
            walker: w,
            at_ap: rng.index(attachments),
        });
    }
    // Handoffs: walk each mover's attachment chain so every hop goes to a
    // *different* attachment (same-attachment handoffs are no-ops).
    if cfg.allow_mobility && attachments >= 2 {
        let handoff_hi = duration_d.saturating_sub(SimDuration::from_secs(1));
        for (w, placement) in placements.iter().enumerate().take(walkers - late_joiners) {
            let hops = rng.index(4); // 0..=3
            if hops == 0 {
                continue;
            }
            let mut times: Vec<SimTime> = (0..hops)
                .map(|_| ms(&mut rng, SimDuration::from_millis(400), handoff_hi))
                .collect();
            times.sort_unstable();
            let mut current = placement.expect("initial walkers are placed");
            for at in times {
                let mut to = rng.index(attachments);
                if to == current {
                    to = (to + 1) % attachments;
                }
                events.push(ScenarioEvent::Handoff { at, walker: w, to });
                current = to;
            }
        }
    }
    // Faults. Heavy faults (core kill, partition, token drop) are capped at
    // two per scenario so recoveries do not pile past the closing window.
    let mut heavy = 0;
    if can_fault {
        let fault_time = |rng: &mut SimRng| ms(rng, fault_lo, fault_hi);
        if cfg.allow_walker_kills && walkers > 2 && rng.chance(0.25) {
            events.push(ScenarioEvent::KillWalker {
                at: fault_time(&mut rng),
                walker: rng.index(walkers - late_joiners),
            });
        }
        if cfg.allow_ap_crash_restart && rng.chance(0.35) {
            let ap = rng.index(attachments);
            let crash = fault_time(&mut rng);
            let latest = duration - (cfg.liveness_window + SimDuration::from_millis(500));
            let restart =
                (crash + SimDuration::from_millis(300 + rng.range_u64(0, 900))).min(latest);
            events.push(ScenarioEvent::ApCrash { at: crash, ap });
            events.push(ScenarioEvent::ApRestart {
                at: restart.max(crash),
                ap,
            });
        }
        // Ordering-ring partition with a guaranteed heal: isolate the
        // sourceless BR (core index 1 — the only index that is past every
        // source yet on the top ring of every backend, which exists
        // exactly in single-source worlds). The minority side must fence
        // itself via the primary-component rule, assign nothing while
        // fenced, and merge back after the heal. Exclusive with core
        // kills: a kill on top of a partition could leave no primary
        // component at all.
        let mut ring_partitioned = false;
        if cfg.allow_ring_partition && !multi_group && sources == 1 && rng.chance(0.3) {
            let down = fault_time(&mut rng);
            let latest = duration - (cfg.liveness_window + SimDuration::from_millis(500));
            let heal = (down + SimDuration::from_millis(400 + rng.range_u64(0, 1_100))).min(latest);
            events.push(ScenarioEvent::PartitionRing {
                at: down,
                isolate: 1,
            });
            events.push(ScenarioEvent::HealRing {
                at: heal.max(down),
                isolate: 1,
            });
            ring_partitioned = true;
            heavy += 1;
        }
        if cfg.allow_core_kills
            && !multi_group
            && !ring_partitioned
            && core_len > sources + 1
            && rng.chance(0.3)
        {
            // Never a source-bearing entity (indices < sources in every
            // KillCore-implementing backend).
            let index = sources + rng.index(core_len - sources);
            let kill_at = fault_time(&mut rng);
            events.push(ScenarioEvent::KillCore { at: kill_at, index });
            heavy += 1;
            if cfg.allow_control_replay && rng.chance(0.4) {
                // A delayed duplicate of the RingFail broadcast lands while
                // the victim is still down (strictly before any rejoin —
                // the idempotent excision must absorb it).
                events.push(ScenarioEvent::ReplayControl {
                    at: kill_at + SimDuration::from_millis(100 + rng.range_u64(0, 150)),
                    kind: ReplayKind::RingFail,
                    index,
                });
            }
            if cfg.allow_core_rejoin && rng.chance(0.6) {
                // Kill → restart → rejoin: the entity comes back (possibly
                // before its ring even noticed the crash) and must splice
                // into the repaired ring without forking GSN assignment.
                let latest = duration - (cfg.liveness_window + SimDuration::from_millis(500));
                let rejoin =
                    (kill_at + SimDuration::from_millis(300 + rng.range_u64(0, 1_200))).min(latest);
                let rejoin = rejoin.max(kill_at);
                events.push(ScenarioEvent::RingRejoin { at: rejoin, index });
                if cfg.allow_control_replay && rng.chance(0.4) {
                    // A delayed duplicate of the grant broadcast reaches
                    // the peers after the splice settled.
                    let grant_replay = (rejoin
                        + SimDuration::from_millis(300 + rng.range_u64(0, 500)))
                    .min(duration - cfg.liveness_window);
                    events.push(ScenarioEvent::ReplayControl {
                        at: grant_replay.max(rejoin),
                        kind: ReplayKind::RejoinGrant,
                        index,
                    });
                }
            }
        }
        if cfg.allow_control_replay && !multi_group && rng.chance(0.25) {
            // A duplicated, delayed copy of an ordering-token pass: core
            // entity 0 re-sends its kept snapshot; the receiver's epoch
            // fence must suppress whichever copy arrives second.
            events.push(ScenarioEvent::ReplayControl {
                at: fault_time(&mut rng),
                kind: ReplayKind::Token,
                index: 0,
            });
        }
        if cfg.allow_partitions && !multi_group && heavy < 2 && rng.chance(0.3) {
            // One endpoint below the RingNet BR tier, one in the AG tier —
            // never a top-ring pair (a partitioned ordering ring is a
            // split-brain world no total-order protocol can win).
            let brs = sources.max(2);
            if core_len > brs {
                let a = rng.index(brs);
                let b = brs + rng.index(core_len - brs);
                let down = fault_time(&mut rng);
                let latest = duration - cfg.liveness_window;
                let heal =
                    (down + SimDuration::from_millis(300 + rng.range_u64(0, 700))).min(latest);
                events.push(ScenarioEvent::PartitionCore { at: down, a, b });
                events.push(ScenarioEvent::HealCore {
                    at: heal.max(down),
                    a,
                    b,
                });
                heavy += 1;
            }
        }
        if cfg.allow_token_drop && !multi_group && heavy < 2 && rng.chance(0.3) {
            events.push(ScenarioEvent::DropToken {
                at: fault_time(&mut rng),
            });
        }
    }
    events.sort_by_key(|e| e.at());

    if multi_group {
        b = b
            .groups(declared)
            .subscriptions(subscriptions)
            .source_groups(source_groups);
    }
    let sc = b
        .walkers(placements)
        .sources(sources)
        .telemetry(cfg.telemetry)
        .pattern(pattern)
        .window(start, None)
        .wireless(wireless_profile(&mut rng, cfg.allow_lossy_wireless))
        .aps_always_active(rng.chance(0.5))
        .events(events)
        .duration(duration)
        .build();
    debug_assert!(sc.validate().is_empty());
    sc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid_and_deterministic() {
        let cfg = ChaosConfig::default();
        for seed in 0..64 {
            let sc = generate(&cfg, seed);
            assert!(sc.validate().is_empty(), "seed {seed}: {:?}", sc.validate());
            let again = generate(&cfg, seed);
            assert_eq!(sc.events, again.events, "seed {seed} not deterministic");
            assert_eq!(sc.walkers, again.walkers);
        }
    }

    #[test]
    fn space_is_actually_explored() {
        let cfg = ChaosConfig::default();
        let mut saw_grid = false;
        let mut saw_fault = false;
        let mut saw_joiner = false;
        let mut saw_lossy = false;
        let mut saw_rejoin = false;
        let mut saw_ring_partition = false;
        let mut saw_replay = [false; 3];
        for seed in 0..192 {
            let sc = generate(&cfg, seed);
            saw_grid |= sc.grid_cols.is_some();
            saw_joiner |= sc.walkers.iter().any(|w| w.is_none());
            saw_fault |= sc.events.iter().any(|e| {
                !matches!(
                    e,
                    ScenarioEvent::Handoff { .. } | ScenarioEvent::Join { .. }
                )
            });
            saw_lossy |= sc.links.wireless.loss.steady_state_loss() > 0.0;
            // Every rejoin follows a kill of the same core index.
            for ev in &sc.events {
                match *ev {
                    ScenarioEvent::RingRejoin { at, index } => {
                        saw_rejoin = true;
                        assert!(
                            sc.events.iter().any(|e| matches!(e,
                                ScenarioEvent::KillCore { at: k, index: i }
                                    if *i == index && *k <= at)),
                            "seed {seed}: rejoin without a preceding kill"
                        );
                    }
                    ScenarioEvent::PartitionRing { at, isolate } => {
                        saw_ring_partition = true;
                        assert_eq!(sc.sources, 1, "ring partitions only in 1-source worlds");
                        assert!(
                            sc.events.iter().any(|e| matches!(e,
                                ScenarioEvent::HealRing { at: h, isolate: i }
                                    if *i == isolate && *h >= at)),
                            "seed {seed}: ring partition without a heal"
                        );
                        assert!(
                            !sc.events
                                .iter()
                                .any(|e| matches!(e, ScenarioEvent::KillCore { .. })),
                            "seed {seed}: ring partition mixed with core kills"
                        );
                    }
                    ScenarioEvent::ReplayControl { kind, .. } => {
                        saw_replay[match kind {
                            ringnet_core::driver::ReplayKind::Token => 0,
                            ringnet_core::driver::ReplayKind::RingFail => 1,
                            ringnet_core::driver::ReplayKind::RejoinGrant => 2,
                        }] = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_grid && saw_fault && saw_joiner && saw_lossy && saw_rejoin);
        assert!(saw_ring_partition, "ring partitions are generated");
        assert!(
            saw_replay.iter().all(|&s| s),
            "all three control-replay kinds are generated: {saw_replay:?}"
        );
    }

    #[test]
    fn multi_group_worlds_are_generated_with_overlap() {
        let cfg = ChaosConfig::quick();
        let total = 192;
        let mut multi = 0usize;
        let mut overlap = 0usize;
        for seed in 0..total as u64 {
            let sc = generate(&cfg, seed);
            assert!(sc.validate().is_empty(), "seed {seed}: {:?}", sc.validate());
            let declared = sc.declared_groups();
            if declared.len() < 2 {
                continue;
            }
            multi += 1;
            // The wired-core fault repertoire is suppressed on the fleet
            // of rings; the mobility/AP mix is not.
            assert!(
                !sc.events.iter().any(|e| matches!(
                    e,
                    ScenarioEvent::KillCore { .. }
                        | ScenarioEvent::RingRejoin { .. }
                        | ScenarioEvent::PartitionCore { .. }
                        | ScenarioEvent::HealCore { .. }
                        | ScenarioEvent::PartitionRing { .. }
                        | ScenarioEvent::HealRing { .. }
                        | ScenarioEvent::ReplayControl { .. }
                        | ScenarioEvent::DropToken { .. }
                )),
                "seed {seed}: core fault in a multi-group world"
            );
            if (0..sc.sources).any(|i| sc.source_groups_of(i).len() >= 2) {
                overlap += 1;
            }
            // Every walker subscribes to at least one sourced group.
            let sourced: Vec<GroupId> = (0..sc.sources)
                .flat_map(|i| sc.source_groups_of(i))
                .collect();
            for w in 0..sc.walkers.len() {
                assert!(
                    sc.subscriptions_of(w).iter().any(|g| sourced.contains(g)),
                    "seed {seed}: walker {w} subscribes to no sourced group"
                );
            }
        }
        assert!(
            multi * 3 >= total,
            "multi-group worlds are a third of the space (saw {multi}/{total})"
        );
        assert!(
            overlap * 4 >= total,
            "overlapping sources in ≥ 25% of worlds (saw {overlap}/{total})"
        );
    }

    #[test]
    fn stress_tier_reaches_production_scale() {
        let cfg = ChaosConfig::tier(SoakTier::Stress);
        let mut max_attachments = 0;
        let mut max_walkers = 0;
        for seed in 0..64 {
            let sc = generate(&cfg, seed);
            assert!(sc.validate().is_empty(), "seed {seed}: {:?}", sc.validate());
            max_attachments = max_attachments.max(sc.attachments);
            max_walkers = max_walkers.max(sc.walkers.len());
        }
        assert!(
            max_attachments >= 20,
            "tens of attachments (saw {max_attachments})"
        );
        assert!(
            max_walkers >= 100,
            "hundreds of walkers (saw {max_walkers})"
        );
    }

    #[test]
    fn massive_tier_reaches_scale() {
        let cfg = ChaosConfig::tier(SoakTier::Massive);
        for seed in 0..8 {
            let sc = generate(&cfg, seed);
            assert!(sc.validate().is_empty(), "seed {seed}: {:?}", sc.validate());
            assert!(
                sc.walkers.len() >= 5_000,
                "seed {seed}: massive worlds carry thousands of walkers (saw {})",
                sc.walkers.len()
            );
            assert!(
                matches!(sc.pattern, TrafficPattern::Cbr { .. }),
                "massive traffic is CBR-bounded"
            );
        }
    }

    #[test]
    fn toggles_suppress_their_faults() {
        let cfg = ChaosConfig {
            allow_mobility: false,
            allow_late_joins: false,
            allow_walker_kills: false,
            allow_core_kills: false,
            allow_core_rejoin: false,
            allow_ap_crash_restart: false,
            allow_partitions: false,
            allow_ring_partition: false,
            allow_control_replay: false,
            allow_token_drop: false,
            ..ChaosConfig::default()
        };
        for seed in 0..32 {
            let sc = generate(&cfg, seed);
            assert!(sc.events.is_empty(), "seed {seed}: {:?}", sc.events);
        }
    }
}
