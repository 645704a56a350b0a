//! Journal byte-identity: the regression oracle of the copy-free fabric.
//!
//! The payload-handle swap and the batched fan-out (PR 10) are allowed to
//! change *how* messages move, never *what* the protocol does — the
//! journal is the arbiter. The pins:
//!
//! * every backend (RingNet + the five baselines) replays byte-identically
//!   for a fixed `(scenario, seed)`;
//! * the RingNet journal digest is **pinned as a golden constant** per
//!   seed, so a fabric change that perturbs so much as one journal byte
//!   fails here, not in a downstream experiment;
//! * telemetry on/off leaves the digest untouched, and is harvested by all
//!   three RingNet-engine backends;
//! * two loss-free **multi-group** worlds are pinned by an *instant-
//!   canonical* digest (entries sorted within equal timestamps), which a
//!   change may leave alone while permuting what independent ring states do
//!   at one simulated instant — and by their transport counters
//!   ([`SimStats`]), which see how sends are batched onto the wire;
//! * two generated **fault** worlds pin the token-retry, regeneration,
//!   heartbeat, ring-repair and reservation paths on the three backends
//!   that run the ordering core, which a loss-free static world never
//!   enters. They too are pinned instant-canonical: moving when an entity
//!   wakes permutes what happens within one instant, which is not
//!   behaviour — and since each link draws its losses from a stream of its
//!   own, the permutation re-rolls no loss either;
//! * one small hand-scheduled RingNet world adds the faults those two do
//!   not draw — a walker crash and a replay of each control kind — so
//!   every `ScenarioEvent` arm is pinned by some digest;
//! * one small two-group world hands off, kills and crash-restarts nodes
//!   that hold a protocol state per group, which pins how an entity-wide
//!   stimulus reaches each of a node's states;
//! * each world has one journal digest, and the run's end-of-run counters
//!   ([`RunReport::finals`]) are pinned apart, per world, in
//!   `COUNTERS_DIGESTS`. A control-plane change that only stops sending
//!   redundant control moves `COUNTERS_DIGESTS` and nothing else: that
//!   constant is its claim, and the journal digests are its proof that no
//!   protocol decision or instant moved.
//!
//! The digest is FNV-1a over the `Debug` rendering of every `(time,
//! event)` entry — stable, dependency-free, and sensitive to field order,
//! values and entry count alike.

use ringnet_repro::baselines::{FlatRingSim, RelmSim, TreeSim, TunnelSim, UnorderedSim};
use ringnet_repro::chaos::{generate, ChaosConfig};
use ringnet_repro::core::driver::{
    ringnet_spec, CoreShape, MulticastSim, ReplayKind, RunReport, Scenario, ScenarioBuilder,
    ScenarioEvent,
};
use ringnet_repro::core::{GroupId, Guid, ProtoEvent, RingNetSim};
use ringnet_repro::simnet::{LinkProfile, SimDuration, SimStats, SimTime};

/// FNV-1a over rendered journal lines.
fn fnv1a<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.into_iter().flat_map(|l| l.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rendered(report: &RunReport) -> Vec<String> {
    report
        .journal
        .iter()
        .map(|(t, e)| format!("{t:?}|{e:?}\n"))
        .collect()
}

/// FNV-1a over the debug rendering of the journal.
fn digest(report: &RunReport) -> u64 {
    fnv1a(&rendered(report))
}

/// FNV-1a over a canonical rendering of the run's end-of-run counters: one
/// line per entity record, then one per walker record, each sorted by
/// `(group, id)`. Built from the field values, so it does not depend on
/// where the counters are carried.
fn counters_digest(report: &RunReport) -> u64 {
    let finals = &report.finals;
    let ne = finals.ne.iter().map(|(&(group, node), f)| {
        format!(
            "ne {} {} {} {} {} {} {} {} {}\n",
            group.0,
            node.0,
            f.wq_peak,
            f.mq_peak,
            f.mq_overflow,
            f.wq_overflow,
            f.control_sent,
            f.data_sent,
            f.retransmissions
        )
    });
    let mh = finals.mh.iter().map(|(&(group, guid), c)| {
        format!(
            "mh {} {} {} {} {} {}\n",
            group.0, guid.0, c.delivered, c.skipped, c.duplicates, c.handoffs
        )
    });
    let lines: Vec<String> = ne.chain(mh).collect();
    fnv1a(&lines)
}

/// Check `report` against the pinned counters digest of the world `name`.
fn assert_counters(name: &str, report: &RunReport) {
    let want = COUNTERS_DIGESTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name}: no pinned counters digest"))
        .1;
    let got = counters_digest(report);
    assert_eq!(
        got, want,
        "{name}: counters digest {got:#018x} != pinned {want:#018x}"
    );
}

/// The digest of the journal with the entries of each simulated instant
/// sorted: what happened at every instant, not the order the simulator
/// happened to emit it in.
fn instant_canonical_digest(report: &RunReport) -> u64 {
    let mut lines = rendered(report);
    let mut start = 0;
    for i in 1..=lines.len() {
        if i == lines.len() || report.journal[i].0 != report.journal[start].0 {
            lines[start..i].sort_unstable();
            start = i;
        }
    }
    fnv1a(&lines)
}

/// The shared world: 4 attachment points, 2 walkers each, one 50 msg/s
/// source capped at 15 messages, loss-free wireless (the fabric's batched
/// fan-out is fully exercised: all copies of a multicast arrive at the
/// same instant).
fn scenario() -> Scenario {
    ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(2)
        .sources(1)
        .cbr(SimDuration::from_millis(20))
        .window(SimTime::from_millis(200), None)
        .message_limit(15)
        .loss_free_wireless()
        .duration(SimTime::from_secs(4))
        .build()
}

/// Every backend: identical journal bytes on a rerun. (Seed does not
/// enter this assertion: on a loss-free static world the message path
/// consumes no RNG, so the journal is seed-independent by design — the
/// digest's sensitivity is proven separately below.)
#[test]
fn all_six_backends_replay_byte_identically() {
    fn pin<S: MulticastSim>(name: &str) {
        let sc = scenario();
        let a = S::run_scenario(&sc, 3);
        let b = S::run_scenario(&sc, 3);
        assert!(!a.journal.is_empty(), "{name}: empty journal");
        assert_eq!(digest(&a), digest(&b), "{name}: rerun diverged");
    }
    pin::<RingNetSim>("ringnet");
    pin::<FlatRingSim>("flat_ring");
    pin::<TreeSim>("tree");
    pin::<TunnelSim>("tunnel");
    pin::<RelmSim>("relm");
    pin::<UnorderedSim>("unordered");
}

/// The digest is not vacuous: one message more moves it.
#[test]
fn digest_is_sensitive_to_protocol_behaviour() {
    let base = digest(&RingNetSim::run_scenario(&scenario(), 3));
    let mut shorter = scenario();
    shorter.limit = Some(14);
    let moved = digest(&RingNetSim::run_scenario(&shorter, 3));
    assert_ne!(base, moved, "digest ignored a missing message");
}

/// Golden RingNet journal digests per seed. These pin the exact bytes the
/// copy-free fabric produces; any change to payload handling, fan-out
/// batching or event ordering that perturbs the journal must be a
/// deliberate, reviewed regeneration of this table.
///
/// The digest is identical across seeds (loss-free static world: no RNG
/// on the message path).
///
/// The sharded engine's rows are gone with it (they were
/// `0x22496d5643703c83` at 2 shards and `0x02d16a4c51f09e23` at 4); the
/// sequential rows are unedited.
///
/// Regenerated on purpose by PR 13 (event-driven Order-Assignment; were
/// `0xe4ff35a26108900b` / `0x08fa27c3d642e6cd` / `0xac198b4fc327e74f` at
/// 1 / 2 / 4 shards): a top-ring node now copies `WQ`→`MQ` the instant the
/// token arrives instead of at its next τ tick, so every `MhDeliver` below
/// a non-assigner BR is stamped up to 5 ms earlier. Timestamps aside the
/// journal is the same 1306 entries, but for three buffer samples of that
/// BR that now find the `WQ` entry already copied and collected; the
/// baselines that do not run the ordering core keep their digests
/// ([`GOLDEN_BASELINE_DIGESTS`]).
///
/// Regenerated on purpose by PR 16 (one acknowledgement per hop, sent when
/// it says something; were `0xf7bdc4b72d1280c2` / `0x612d053ebf5863e0` /
/// `0x3ff785848332de1a`): the journal is the same 1306 entries at the same
/// instants — every `Ordered`, `MhDeliver` and `TokenPass` line is
/// untouched — but the eight `NeFinal.control_sent` totals fall (BR 1:
/// 1739 → 959; no `PreOrderAck`, no `DataAck` repeating an unmoved front)
/// and three buffer samples of BR 1 read `mq: 1` where they read 2, its
/// next node's front now arriving with the `TokenAck` instead of up to an
/// ack period later.
///
/// Regenerated on purpose by PR 20 (the buffer sampler is deleted; were
/// `0x3857e7b21e881b30` / `0xceea1d6757523dce` / `0x4bd7d6e89ea972ac`): the
/// journal is the parent's minus its periodic buffer-occupancy samples and
/// nothing else. The commit before the deletion pinned, on the code that
/// still sampled, the digest of each journal with those lines filtered
/// out; these are those numbers, unedited — here, for tree and flat ring in
/// [`GOLDEN_BASELINE_DIGESTS`] and for both worlds of
/// [`GOLDEN_MULTIGROUP_INSTANT_DIGESTS`].
///
/// Regenerated on purpose when traffic began answering the liveness probes
/// (were `0x5f716a80ccb773f6` / `0x9ad98c13b58fbb02` /
/// `0x22f04e617383adce`): only `NeFinal.control_sent` moves — probes
/// answered by the token or by parent traffic are no longer sent. The
/// digests of the journal without its `NeFinal` lines, pinned before that
/// change, were unedited.
///
/// Regenerated on purpose when the MH's ack became its liveness beacon
/// (were `0x80013ded941225c1` / `0xd20f73c3a2b41b35` /
/// `0x0dece3d470a5ac35`): only the APs' `NeFinal.control_sent` moves, because
/// MHs no longer send heartbeats and the APs' `HeartbeatAck`s to them are
/// gone. The `NeFinal`-free digests were unedited.
///
/// Regenerated on purpose when the end-of-run counters left the journal
/// (`NeFinal` and `MhFinal` became [`RunReport::finals`]; were
/// `0x41427e7200ac0bf3` / `0x853f4326a21c7cc7` / `0x9c8cc95ff4fcf343`, and
/// `0x05b0428dd0253ee7` / `0x42a4f2748c684f93` / `0x0d3cadc326e5a2b3`
/// without `NeFinal`): these are the digests of the parent's journals
/// without either kind, pinned on the parent's code first, unedited. The
/// same holds for every table below; the counters moved to
/// [`COUNTERS_DIGESTS`], pinned on the parent's code too.
const GOLDEN_RINGNET_DIGESTS: &[(u64, u64)] = &[(3, 0x6441e89724e24997), (7, 0x6441e89724e24997)];

#[test]
fn ringnet_journal_digest_is_pinned_per_seed() {
    for &(seed, want) in GOLDEN_RINGNET_DIGESTS {
        let report = RingNetSim::run_scenario(&scenario(), seed);
        assert_counters("ringnet", &report);
        let got = digest(&report);
        assert_eq!(
            got, want,
            "seed {seed}: journal digest {got:#018x} != pinned \
             {want:#018x} — the fabric changed observable protocol behaviour"
        );
    }
}

/// A named backend and its pinned journal digest.
type PinnedBackend = (&'static str, fn(&Scenario, u64) -> RunReport, u64);

/// Golden journal digests of the five baselines on the shared world. They
/// are the blast-radius proof of a change to
/// the RingNet ordering core: tree (rings of one — the assigner always
/// copied at once), tunnel, RelM and unordered share no Order-Assignment
/// code and must not move when the RingNet table above is regenerated.
/// The flat ring *is* that core on one ring of stations
/// (`NeState::new_flat_station`), so it moves with it: PR 13 took it from
/// `0x3ac175ebc4d719b3` to the value below, the other four stayed.
///
/// PR 16 thinned the wired core's acknowledgements, which tree and flat
/// ring — both `NeState` — send too; tunnel, RelM and unordered do not
/// and are unedited. Tree (was `0x4ff1ebcb601b887c`): six lower
/// `NeFinal.control_sent` totals, nothing else. Flat ring (was
/// `0x2e98bbc2be9658e4`): four lower totals, and nine buffer samples —
/// `mq` one lower where the next station's front came with its
/// `TokenAck`, `wq` one higher where an ordered entry now waits for the
/// next station's *front* to pass it instead of for its receipt.
///
/// PR 20 deleted the buffer sampler, which tree and flat ring ran too
/// (were `0x4f814fd936443788` and `0x0dfa10a39093bdd5`): both are the
/// parent's journal without its buffer samples, pinned on the
/// parent's code first (see [`GOLDEN_RINGNET_DIGESTS`]); tunnel, RelM and
/// unordered never sampled and are unedited.
///
/// Tree and flat ring were regenerated on purpose when traffic began
/// answering the liveness probes (were `0x5d3272b45b1d02a8` and
/// `0xf91887f50c5ae64a`): only `NeFinal.control_sent` moves — probes
/// answered by the token or by parent traffic are no longer sent. Their
/// filtered digests, and every tunnel, RelM and unordered digest, are
/// unedited.
///
/// Tree and flat ring were regenerated on purpose again when the MH's ack
/// became its liveness beacon (were `0x53346a9978302a22` and
/// `0xd28bb03ee739618e`): only `NeFinal.control_sent` moves, because the
/// attachment entities no longer answer MH heartbeats. Their filtered
/// digests, and every tunnel, RelM and unordered digest, are unedited: those
/// three comparators run no MH state machine.
///
/// All five were regenerated on purpose when the counters left the journal
/// (were `0xf99ddde3a97ad106`, `0xd4bbe549bdbfc71e`, `0x16a8b07b65d6e1f7`,
/// `0xd6a391e31fb9eb62` and `0x878f0228f1205ce4`): each is the parent's
/// journal without its `NeFinal` and `MhFinal` lines, pinned on the
/// parent's code first (see [`GOLDEN_RINGNET_DIGESTS`]).
///
/// PR 15 rebuilt `unordered` from RingNet's own `HierarchySpec`, so its
/// tree hops now follow `links.br_ag` / `links.ag_ap` / `links.source`
/// (the private assembly it replaced wired both tree hops with
/// `links.ag_ring` and hard-coded the source link). That was expected to
/// re-golden this row; it did not, and the number is the parent's: the
/// default plan's 3 ms + 1 ms equals the old 2 ms + 2 ms, the source link
/// is 100 µs either way, and the journal stamps a message only where it
/// enters (`SourceSend`) and where it is delivered (`MhDeliver`), never
/// per hop. `tests/comparator_parity.rs` is where the difference shows;
/// [`GOLDEN_UNORDERED_UNIFORM_LINKS`] is the world where there is none.
const GOLDEN_BASELINE_DIGESTS: &[PinnedBackend] = &[
    ("flat_ring", FlatRingSim::run_scenario, 0x780ecdc2a8d71df9),
    ("tree", TreeSim::run_scenario, 0x4bf74a1cf7a8ad68),
    ("tunnel", TunnelSim::run_scenario, 0xea35a38f592845bc),
    ("relm", RelmSim::run_scenario, 0x4a4046fc05f8e694),
    ("unordered", UnorderedSim::run_scenario, 0x3ec1ca97be402ddc),
];

#[test]
fn baseline_journal_digests_are_pinned() {
    for &(name, run, want) in GOLDEN_BASELINE_DIGESTS {
        let report = run(&scenario(), 3);
        assert_counters(name, &report);
        let got = digest(&report);
        assert_eq!(
            got, want,
            "{name}: journal digest {got:#018x} != pinned {want:#018x}"
        );
    }
}

/// The unordered comparator on a world where every way of wiring the tree
/// coincides: `CoreShape::Auto` (one AG ring under BR 0, APs round-robin)
/// and one latency for `ag_ring`, `br_ag` and `ag_ap`, with the default
/// 100 µs source link. Pinned on the private assembly `UnorderedSim` used
/// to own, before it was folded onto `HierarchySpec` (PR 15): that fold is
/// behaviour-neutral wherever the old assembly's link drift did not bite,
/// and this number proves it. (It equalled the default-plan pin in
/// [`GOLDEN_BASELINE_DIGESTS`] while the counters were journal lines: the
/// old assembly read only `ag_ring`.) It is the digest of the journal as it
/// read then, counter lines included ([`as_once_journalled`]).
const GOLDEN_UNORDERED_UNIFORM_LINKS: u64 = 0x878f0228f1205ce4;

/// The rendered journal as it read while the end-of-run counters were
/// journal lines: the run's own entries, then — at the teardown instant
/// `at`, in address order — one `NeFinal` line per entity and one
/// `MhFinal` line per walker. Exact for worlds whose entity ids ascend with
/// their addresses and whose walkers follow every entity.
fn as_once_journalled(report: &RunReport, at: SimTime) -> Vec<String> {
    let finals = &report.finals;
    let ne = finals.ne.iter().map(|(&(group, node), f)| {
        format!(
            "{at:?}|NeFinal {{ group: {group:?}, node: {node:?}, wq_peak: {}, mq_peak: {}, \
             mq_overflow: {}, wq_overflow: {}, control_sent: {}, data_sent: {}, \
             retransmissions: {} }}\n",
            f.wq_peak,
            f.mq_peak,
            f.mq_overflow,
            f.wq_overflow,
            f.control_sent,
            f.data_sent,
            f.retransmissions
        )
    });
    let mh = finals.mh.iter().map(|(&(group, mh), c)| {
        format!(
            "{at:?}|MhFinal {{ group: {group:?}, mh: {mh:?}, delivered: {}, skipped: {}, \
             duplicates: {}, handoffs: {} }}\n",
            c.delivered, c.skipped, c.duplicates, c.handoffs
        )
    });
    rendered(report).into_iter().chain(ne).chain(mh).collect()
}

#[test]
fn unordered_digest_on_uniform_tree_links_is_pinned() {
    let mut sc = scenario();
    sc.links.br_ag = sc.links.ag_ring.clone();
    sc.links.ag_ap = sc.links.ag_ring.clone();
    assert_eq!(
        sc.links.source,
        LinkProfile::wired(SimDuration::from_micros(100))
    );
    let got = fnv1a(&as_once_journalled(
        &UnorderedSim::run_scenario(&sc, 3),
        sc.duration,
    ));
    assert_eq!(
        got, GOLDEN_UNORDERED_UNIFORM_LINKS,
        "unordered on uniform tree links: journal digest {got:#018x} != pinned \
         {GOLDEN_UNORDERED_UNIFORM_LINKS:#018x}"
    );
}

/// Telemetry is a pure observer: enabling it must not move one journal
/// byte.
#[test]
fn telemetry_on_off_digest_identical() {
    for seed in [3u64, 7] {
        let off = scenario();
        let mut on = off.clone();
        on.cfg.telemetry = true;
        let d_off = digest(&RingNetSim::run_scenario(&off, seed));
        let d_on = digest(&RingNetSim::run_scenario(&on, seed));
        assert_eq!(d_off, d_on, "seed {seed}: telemetry moved the journal");
    }
}

/// Every backend that *is* the RingNet engine harvests telemetry through
/// the one teardown: on, the report carries it; either way the journal is
/// the same bytes.
#[test]
fn telemetry_is_harvested_and_journal_invisible_on_every_engine_backend() {
    fn check<S: MulticastSim>(name: &str) {
        let off = scenario();
        let mut on = off.clone();
        on.cfg.telemetry = true;
        let r_off = S::run_scenario(&off, 3);
        let r_on = S::run_scenario(&on, 3);
        assert!(r_off.telemetry.is_none(), "{name}: telemetry off");
        let telemetry = r_on.telemetry.as_ref();
        assert!(
            telemetry.is_some_and(|t| !t.nodes.is_empty()),
            "{name}: telemetry on but nothing harvested"
        );
        assert_eq!(
            digest(&r_off),
            digest(&r_on),
            "{name}: telemetry moved the journal"
        );
    }
    check::<RingNetSim>("ringnet");
    check::<TreeSim>("tree");
    check::<FlatRingSim>("flat_ring");
}

/// Eight disjoint token rings over one physical core: the benchmark's
/// `rings8_ctrl` shape (8 sources x 500 msg/s round-robin over 8 groups,
/// every walker subscribed to all, `mq_capacity` 128), cut to 600 ms.
fn rings8_world() -> Scenario {
    let mut sc = ScenarioBuilder::new()
        .attachments(8)
        .walkers_per_attachment(1)
        .sources(8)
        .cbr(SimDuration::from_millis(2))
        .groups((1..=8).map(GroupId).collect())
        .window(SimTime::ZERO, Some(SimTime::from_millis(400)))
        .loss_free_wireless()
        .duration(SimTime::from_millis(600))
        .build();
    sc.cfg.mq_capacity = 128;
    sc
}

/// The overlap-heavy fence world of `crates/bench/src/suites.rs`: four
/// rings, every source addressing two adjacent groups, so every message is
/// serialised by the cross-group fence and ordered on two rings.
fn fence_overlap_world() -> Scenario {
    let rings = 4u32;
    let mut sc = ScenarioBuilder::new()
        .attachments(8)
        .walkers_per_attachment(1)
        .sources(8)
        .cbr(SimDuration::from_millis(2))
        .groups((1..=rings).map(GroupId).collect())
        .source_groups(
            (0..8u32)
                .map(|i| vec![GroupId(i % rings + 1), GroupId((i + 1) % rings + 1)])
                .collect(),
        )
        .window(SimTime::ZERO, Some(SimTime::from_millis(400)))
        .loss_free_wireless()
        .duration(SimTime::from_millis(600))
        .build();
    sc.cfg.mq_capacity = 128;
    sc
}

/// A named world and its pinned instant-canonical digest.
type PinnedWorld = (&'static str, fn() -> Scenario, u64);

/// Golden instant-canonical digests of the two multi-group worlds. Ring
/// states of different groups share a node but not a bit of protocol
/// state, so what they do within one simulated instant may be permuted by
/// a transport change without changing what the protocol did; anything
/// else moves these numbers.
///
/// Regenerated on purpose by PR 13 with [`GOLDEN_RINGNET_DIGESTS`], for
/// the same reason (were `0xc3eab3f309e6a5f4` and `0xc0fa607a8473d82e`):
/// `MhDeliver` timestamps move up to 5 ms earlier on every ring, funnel-
/// assigned fence traffic included.
///
/// Regenerated on purpose by PR 16 with [`GOLDEN_RINGNET_DIGESTS`] (were
/// `0x5aebfa588d3066d6` and `0x230bc6a18ff6ffd3`), for the same two
/// reasons and no third: `NeFinal.control_sent` falls on every ring state
/// and buffer samples read the buffers a retention rule later or an ack
/// earlier. That no ordering or delivery instant moved on the 8-ring world
/// is pinned separately, on the parent's code, by
/// `rings8_acknowledgements_move_no_ordering_or_delivery_instant`
/// (`crates/core/tests/engine_scenarios.rs`).
///
/// Regenerated on purpose by PR 20 with [`GOLDEN_RINGNET_DIGESTS`] (were
/// `0x1af850cf6660cd08` and `0xcd5ea6d697928f14`): the parent's journals
/// without their buffer samples, pinned on the parent's code first.
///
/// Regenerated on purpose when traffic began answering the liveness probes
/// (were `0x51493dd324f62014` and `0xb8cf9ff157cb4b92`): only
/// `NeFinal.control_sent` moves — probes answered by the token or by parent
/// traffic are no longer sent. The `NeFinal`-free digests were unedited.
///
/// Regenerated on purpose when the MH's ack became its liveness beacon
/// (were `0xd39a955894fd4f10` and `0x7ba518d2e5619cab`): only the APs'
/// `NeFinal.control_sent` moves, because their `HeartbeatAck`s to MHs are
/// gone. The `NeFinal`-free digests were unedited.
///
/// Regenerated on purpose when the counters left the journal (were
/// `0x5bd14950fcd9cc30` and `0x6d2b021c351e98cb`): the parent's
/// instant-canonical digests without `NeFinal` or `MhFinal` lines, pinned on
/// its code first (see [`GOLDEN_RINGNET_DIGESTS`]).
///
/// Regenerated on purpose when each group's AG ring came to hang from the
/// BR that assigns its GSNs instead of from BR 0 (were `0xe44d0f40f7de67be`
/// and `0x7111693f926c725a`): the leaders graft under other BRs, and the
/// deliveries of every group whose GSNs used to cross top-ring hops to BR
/// 0 come that much earlier. On the 8-ring world of
/// `RINGS8_ORDER_AND_DELIVERY` not one `Ordered` entry moved (checked
/// against the parent's journal).
const GOLDEN_MULTIGROUP_INSTANT_DIGESTS: &[PinnedWorld] = &[
    ("rings8", rings8_world, 0x62c8460ba3dc0aed),
    ("fence_overlap_4", fence_overlap_world, 0xeb8a96888f93e76d),
];

/// The transport counters of a loss-free world: nothing dropped.
const fn loss_free(events: u64, sent: u64, delivered: u64, timers: u64) -> SimStats {
    SimStats {
        events,
        packets_sent: sent,
        packets_delivered: delivered,
        packets_lost: 0,
        packets_no_route: 0,
        packets_link_down: 0,
        timers_fired: timers,
    }
}

/// Golden transport counters of the two multi-group worlds, run seed 7.
/// The instant-canonical digests cannot see how sends are batched onto the
/// wire — one multicast, one frame or one send per destination record the
/// same journal — but `packets_sent` and `events` can.
///
/// The sharded engine's rows are gone with it (they differed only in
/// `events`: 45 626 for `rings8` and 85 186 for `fence_overlap_4` at 2
/// shards); the sequential rows are unedited.
///
/// `fence_overlap_4` was regenerated on purpose at both shard counts when
/// an AG ring's acknowledged data began answering the liveness probe to
/// its next member: 8 fewer `Heartbeat` and `HeartbeatAck` packets, and
/// the 8 events that delivered them (were 72 625 / 85 425 events, 87 399
/// packets sent and 87 361 delivered). In `rings8` the heartbeats left
/// share frames with other control, so its packets do not move.
///
/// Both worlds were regenerated on purpose at both shard counts when a
/// lower ring's leader stopped acknowledging the ring's last member: 52
/// (`rings8`) and 40 (`fence_overlap_4`) fewer `DataAck` packets, and the
/// events that delivered them (were 39 571 / 45 971 events, 44 747 sent
/// and 44 707 delivered; 72 617 / 85 417, 87 391 and 87 353).
///
/// Both were regenerated on purpose at both shard counts when an AG
/// ring's leader came to be watched by its next member instead of probed
/// by its last: 18 (`rings8`) and 16 (`fence_overlap_4`) fewer packets
/// sent, heartbeat frames the leaders' data now stands in for, and the
/// events that delivered them (were 39 519 / 45 919 events, 44 695 sent
/// and 44 655 delivered; 72 578 / 85 378, 87 351 and 87 314).
///
/// Both were regenerated on purpose at both shard counts when each group's
/// AG ring came to hang from the BR that assigns its GSNs: the same data
/// messages (40 000 and 84 600) in 274 (`rings8`) and 171
/// (`fence_overlap_4`) fewer packets, and the events that delivered them
/// (were 39 502 / 45 902 events, 44 677 sent and 44 638 delivered;
/// 72 563 / 85 363, 87 335 and 87 299).
const GOLDEN_MULTIGROUP_SIM_STATS: &[(&str, SimStats)] = &[
    ("rings8", loss_free(39_226, 44_403, 44_362, 4_464)),
    ("fence_overlap_4", loss_free(72_386, 87_164, 87_122, 4_464)),
];

fn pinned_stats(name: &str) -> SimStats {
    let pin = GOLDEN_MULTIGROUP_SIM_STATS
        .iter()
        .find(|&&(n, _)| n == name);
    pin.unwrap_or_else(|| panic!("{name}: no pinned transport counters"))
        .1
}

#[test]
fn multigroup_instant_canonical_digest_is_pinned() {
    for &(name, world, want) in GOLDEN_MULTIGROUP_INSTANT_DIGESTS {
        let report = RingNetSim::run_scenario(&world(), 7);
        assert!(report.metrics.delivered > 10_000, "{name}: world too quiet");
        assert_counters(name, &report);
        assert_eq!(
            report.stats,
            pinned_stats(name),
            "{name}: transport counters moved"
        );
        let got = instant_canonical_digest(&report);
        assert_eq!(
            got, want,
            "{name}: instant-canonical digest {got:#018x} != pinned \
             {want:#018x} — something other than the order of same-instant entries moved"
        );
    }
}

/// World `generator_seed` of `chaos::generate(ChaosConfig::stress())`, as
/// the benchmark's `chaos_stress_12` draws it.
fn stress_world(generator_seed: u64) -> Scenario {
    generate(&ChaosConfig::stress(), generator_seed)
}

/// Golden instant-canonical digests, run seed 7, of two `chaos_stress_12`
/// worlds on the three backends that run the ordering core. Both worlds have lossy
/// wireless; world 98 partitions the ordering ring and a wired-core link
/// and crashes an AP, world 104 drops the token and kills a BR that later
/// rejoins. Between them they take token retransmission and give-up,
/// regeneration after a quiet token, heartbeat excision, `WQ` repair and
/// reservation expiry — every path the protocol's fixed periods and
/// budgets govern, none of which the loss-free worlds above enter. On the
/// code that pinned them, a 1 s reservation TTL, a token retry budget of
/// 2, a 150 ms token-quiet period, 2 heartbeat misses, a 40 ms heartbeat,
/// a 4 ms hop tick or a 64-slot `WQ` each moves at least one of these
/// numbers.
///
/// The raw digests were regenerated on purpose when traffic began
/// answering the liveness probes (were `0x13bec29128208e91`,
/// `0x35b0a773ac20d60c`, `0xc7508b9a77973eb3` for world 98 and
/// `0x6ae17f413079962a`, `0xf67b1ba53f1af437`, `0x2d3a043927c9f20c` for
/// world 104): only `NeFinal.control_sent` moves — probes answered by the
/// token or by parent traffic are no longer sent. Every excision, failover
/// and regeneration happens at the same instant, as the unedited filtered
/// digests show.
///
/// Both columns were regenerated on purpose when the MH's ack became its
/// liveness beacon (raw were `0x13c1bcc3544f7ac3`, `0x7e9889dc5043e1dd`,
/// `0xdbe941a0e5ce573e` and filtered `0x728df9325a7f8147`,
/// `0xb91f36e05f6e50a4`, `0xf592a9a14da790c9` for world 98; raw
/// `0xaad32f0a27f7dda3`, `0x8b8726738a589ad4`, `0x078027925f90b3bf` and
/// filtered `0x4b1ab0c67e688407`, `0x3f09838ef2a5dc5f`, `0x8f36ea6c97f06c08`
/// for world 104): both worlds have lossy wireless, whose loss draws come
/// from the one world RNG, and the MH heartbeats and their acks no longer
/// draw from it, so every later wireless loss falls on a different packet.
///
/// Regenerated on purpose when the counters left the journal (were
/// `0x579203e8f0d3b35b`, `0x304f6fae46371a43`, `0x218c2a056295ef52` for
/// world 98 and `0xf5da9d6b11914f5d`, `0x95be5b1c2a303aa9`,
/// `0x0f53cda049f30e83` for world 104): each is the parent's journal
/// without its `NeFinal` and `MhFinal` lines, pinned on the parent's code
/// first (see [`GOLDEN_RINGNET_DIGESTS`]).
///
/// Since then they pin the *instant-canonical* digest, as the multi-group
/// worlds do (were `0x6a2b24f09400fd3e`, `0x469ee8a5e60adb95`,
/// `0x6d49f80ae9e99a3d` for world 98 and `0xdf24510ef4e78399`,
/// `0x87bde6a1cddccfb1`, `0xe84fa5192fdebece` for world 104, raw): a change
/// that moves when an entity wakes reorders independent work within one
/// simulated instant, and that is not behaviour. These values were pinned
/// on the code that still journalled them raw.
///
/// Regenerated on purpose when each directed link got its own loss and
/// jitter stream (were `0xd910dfd8ace8f4da`, `0xefd41b71400e809b`,
/// `0x55c63139393d32a5` for world 98 and `0x3f057d83e111996d`,
/// `0x91249890169ddc01`, `0xfd2724241f686312` for world 104): both worlds
/// have lossy wireless, and its draws no longer come from the one world
/// stream, so the losses fall on other packets. Every loss-free pin in this
/// file is unedited.
///
/// World 104's ringnet digest was regenerated on purpose when an AG
/// ring's acknowledged data began answering the liveness probe to its
/// next member (was `0xbbf40054b4efac03`). AG 5 dies at 3.059 s; the data
/// AG 4 forwarded after the 3.050 s tick asked a probe nobody answered,
/// so AG 4 excises it at 3.200 s, not 3.250 s. AG 5's APs graft onto AG 6
/// at 3.251 s as before, but AG 6 has by then collected GSNs 363–387, so
/// each AP skips them (ROADMAP item 5). World 98's digests, like every
/// other in this file, are unedited.
///
/// World 98's ringnet digest was regenerated on purpose when
/// `AG_RING_CAP` went from 11 to 4 (was `0x3c822d691cf9ed30`): its 6 AGs
/// form two rings of 3, the second led by AG 5 under BR 1. The wired-core
/// cut BR 1 – AG 5 at 0.838 s sends AG 5 to BR 0 at 1.003 s, which fetches
/// the range AG 5 lacks from BR 1 (`fetch_collected`), so that ring skips
/// nothing; the ring partition at 2.146 s then finds BR 1 childless.
/// 111 198 deliveries and 373 skips become 111 238 and 364. Its counters
/// moved with it. World 104 lays out one ring at either cap.
const GOLDEN_FAULT_PATH_DIGESTS: &[(u64, [PinnedBackend; 3])] = &[
    (
        98,
        [
            ("ringnet", RingNetSim::run_scenario, 0x4d7b1185e8ab265b),
            ("flat_ring", FlatRingSim::run_scenario, 0xa4119feec6fc1a91),
            ("tree", TreeSim::run_scenario, 0x804650773babdd0e),
        ],
    ),
    (
        104,
        [
            ("ringnet", RingNetSim::run_scenario, 0x325b5841035f4b97),
            ("flat_ring", FlatRingSim::run_scenario, 0x19a62160c24bad09),
            ("tree", TreeSim::run_scenario, 0x1c9b0771228c5611),
        ],
    ),
];

#[test]
fn fault_path_journal_digests_are_pinned() {
    let worlds: Vec<Scenario> = GOLDEN_FAULT_PATH_DIGESTS
        .iter()
        .map(|&(generator_seed, _)| stress_world(generator_seed))
        .collect();
    // Between them, the stress worlds and the replay world schedule every
    // kind of fault, so each arm that maps a `ScenarioEvent` onto the
    // engine is pinned by at least one digest.
    let replay = replay_world();
    let pinned: Vec<&Scenario> = worlds.iter().chain([&replay]).collect();
    let drew =
        |fault: fn(&ScenarioEvent) -> bool| pinned.iter().any(|sc| sc.events.iter().any(fault));
    assert!(worlds
        .iter()
        .all(|sc| sc.links.wireless.loss.steady_state_loss() > 0.0));
    assert!(drew(|e| matches!(e, ScenarioEvent::Handoff { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::Join { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::KillCore { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::KillWalker { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::ApCrash { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::ApRestart { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::PartitionCore { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::HealCore { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::DropToken { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::RingRejoin { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::PartitionRing { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::HealRing { .. })));
    for kind in [
        ReplayKind::Token,
        ReplayKind::RingFail,
        ReplayKind::RejoinGrant,
    ] {
        assert!(pinned.iter().any(|sc| sc
            .events
            .iter()
            .any(|e| matches!(e, ScenarioEvent::ReplayControl { kind: k, .. } if *k == kind))));
    }
    for (sc, &(generator_seed, ref backends)) in worlds.iter().zip(GOLDEN_FAULT_PATH_DIGESTS) {
        for &(name, run, want) in backends {
            let report = run(sc, 7);
            assert_counters(&format!("stress_{generator_seed}/{name}"), &report);
            let got = instant_canonical_digest(&report);
            assert_eq!(
                got, want,
                "stress world {generator_seed}, {name}: instant-canonical digest {got:#018x} != \
                 pinned {want:#018x}"
            );
        }
    }
}

/// A small loss-free RingNet world scheduling the faults the stress worlds
/// above do not draw: a walker crash, and one replay of each
/// [`ReplayKind`] — a token pass by BR 0, the `RingFail` broadcast about
/// BR 2 just after it dies (before its ring has convicted it), and the
/// `RejoinGrant` about it after it has restarted. (A BR's core index is its
/// id.) Each of these events moves the pinned numbers: dropping any one of
/// them, or killing another walker, changes the counters digest.
fn replay_world() -> Scenario {
    let ms = SimTime::from_millis;
    let replay = |at, kind, index| ScenarioEvent::ReplayControl { at, kind, index };
    ScenarioBuilder::new()
        .shape(CoreShape::Hierarchy {
            brs: 3,
            rings: 2,
            ags_per_ring: 2,
        })
        .attachments(4)
        .walkers_per_attachment(2)
        .sources(2)
        .cbr(SimDuration::from_millis(20))
        .window(ms(100), Some(SimTime::from_secs(2)))
        .loss_free_wireless()
        .events([
            replay(ms(300), ReplayKind::Token, 0),
            ScenarioEvent::KillWalker {
                at: ms(400),
                walker: 5,
            },
            ScenarioEvent::KillCore {
                at: ms(500),
                index: 2,
            },
            replay(ms(520), ReplayKind::RingFail, 2),
            ScenarioEvent::RingRejoin {
                at: ms(1000),
                index: 2,
            },
            replay(ms(1400), ReplayKind::RejoinGrant, 2),
        ])
        .duration(SimTime::from_secs(3))
        .build()
}

/// Golden instant-canonical digest of [`replay_world`], run seed 7.
const GOLDEN_REPLAY_WORLD_DIGEST: u64 = 0xc51bfeaf5b745ad8;

#[test]
fn replay_world_digest_is_pinned() {
    let report = RingNetSim::run_scenario(&replay_world(), 7);
    assert_eq!(report.metrics.order_violations, 0);
    assert!(report.metrics.delivered > 500, "replay world too quiet");
    let rejoined =
        |e: &ProtoEvent| matches!(e, ProtoEvent::RingRejoined { member, .. } if member.0 == 2);
    assert!(report.journal.iter().any(|(_, e)| rejoined(e)));
    assert_counters("replay", &report);
    let got = instant_canonical_digest(&report);
    assert_eq!(
        got, GOLDEN_REPLAY_WORLD_DIGEST,
        "replay world: instant-canonical digest {got:#018x} != pinned \
         {GOLDEN_REPLAY_WORLD_DIGEST:#018x}"
    );
}

/// A loss-free two-group world whose faults reach the nodes that hold a
/// protocol state per group: walker 1, subscribed to both groups, is handed
/// off to attachment 3 and later killed, and attachment 2 crashes and
/// restarts. The chaos generator keeps core faults out of multi-group
/// worlds, so no other pin sends a crash or a restart to a multi-group node.
fn multigroup_fault_world() -> Scenario {
    let ms = SimTime::from_millis;
    ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(2)
        .sources(2)
        .cbr(SimDuration::from_millis(10))
        .groups(vec![GroupId(1), GroupId(2)])
        .window(ms(100), Some(SimTime::from_secs(2)))
        .loss_free_wireless()
        .events([
            ScenarioEvent::Handoff {
                at: ms(400),
                walker: 1,
                to: 3,
            },
            ScenarioEvent::ApCrash { at: ms(600), ap: 2 },
            ScenarioEvent::KillWalker {
                at: ms(900),
                walker: 1,
            },
            ScenarioEvent::ApRestart {
                at: ms(1200),
                ap: 2,
            },
        ])
        .duration(SimTime::from_secs(3))
        .build()
}

/// Golden instant-canonical digest of [`multigroup_fault_world`], run
/// seed 7. Regenerated on purpose (was `0x2d461edd6502739a`) when each
/// group's AG ring came to hang from the BR that assigns its GSNs: group
/// 2's source enters at BR 1, so group 2's ring leader grafts there.
const GOLDEN_MULTIGROUP_FAULT_DIGEST: u64 = 0x3d32e9de30ee74cd;

#[test]
fn multigroup_fault_world_is_pinned() {
    let sc = multigroup_fault_world();
    let groups = [GroupId(1), GroupId(2)];
    let report = RingNetSim::run_scenario(&sc, 7);
    assert_eq!(report.metrics.order_violations, 0);
    let finals = &report.finals;
    // The handoff and the kill reached both of the walker's states, the
    // restart both of the AP's: a dead state hands over no counters.
    let (walker, ap) = (Guid(1), ringnet_spec(&sc).aps[2].id);
    for g in groups {
        let handed_off = |e: &ProtoEvent| matches!(e, ProtoEvent::HandoffRegistered { group, mh, .. } if (*group, *mh) == (g, walker));
        assert!(
            report.journal.iter().any(|(_, e)| handed_off(e)),
            "{g}: no handoff"
        );
        assert!(
            !finals.mh.contains_key(&(g, walker)),
            "{g}: killed walker reports"
        );
        assert!(finals.ne.contains_key(&(g, ap)), "{g}: restarted AP silent");
    }
    assert_eq!(finals.mh.len(), 2 * (sc.walkers.len() - 1));
    assert_counters("multigroup_faults", &report);
    let got = instant_canonical_digest(&report);
    assert_eq!(
        got, GOLDEN_MULTIGROUP_FAULT_DIGEST,
        "multi-group fault world: instant-canonical digest {got:#018x} != pinned \
         {GOLDEN_MULTIGROUP_FAULT_DIGEST:#018x}"
    );
}

/// The run's end-of-run counters per world ([`counters_digest`]): per
/// entity its buffer peaks and overflows, control, data and
/// retransmissions sent; per walker its deliveries, skips, duplicates and
/// handoffs. The same at every seed the tables above run.
/// A change meant to alter only what entities count — a control-plane
/// change that stops sending redundant control — moves these numbers and
/// leaves every journal digest above alone.
///
/// The six `stress_*` entries were regenerated on purpose with
/// [`GOLDEN_FAULT_PATH_DIGESTS`], for its reason — each link draws from a
/// stream of its own, so the lossy worlds lose other packets (were
/// `0x86a1aed497686dd7`, `0x88df540fef7b65b4`, `0xec7c54b5f5043ffe`,
/// `0x4cf4d2da82865660`, `0xcc92c807b88a0abd`, `0x55f2c2c6d4f1406d`). The
/// loss-free worlds' entries are unedited.
///
/// Seven entries were regenerated on purpose when an AG ring's
/// acknowledged data began answering the liveness probe to its next
/// member, so an AG whose forwarded data was acked since the last tick
/// sends no `Heartbeat`: `ringnet` (was `0x941013fa2d99d667`), `rings8`
/// (`0x08a625ce682d7ff7`), `fence_overlap_4` (`0x0b153e6b5ccf7b02`),
/// `replay` (`0x8bfa7c7bdba06657`), `multigroup_faults`
/// (`0x2609c57cf3034b74`), `stress_98/ringnet` (`0x79bb8e2e2a29cc9c`) and
/// `stress_104/ringnet` (`0x37fa7ef4ccad38d5`). In all but the last only
/// the AGs' `control_sent` moves, and every journal digest of those
/// worlds is unedited. In world 104 a dead AG is also excised a period
/// earlier, so its APs skip what their new parent had already collected,
/// and data sent, retransmissions and walker deliveries, skips and
/// duplicates move too (see [`GOLDEN_FAULT_PATH_DIGESTS`]).
///
/// The same seven were regenerated on purpose again when a lower ring's
/// leader stopped acknowledging the ring's last member, which keeps no
/// `MQ` for it (`RingState::prev_keeps_mq_for`): `ringnet` (was
/// `0x84879fac4d459ace`), `rings8` (`0x847b669e94ff8957`),
/// `fence_overlap_4` (`0x7f604b58dcff2d16`), `replay`
/// (`0x0967709d9e6d8c48`), `multigroup_faults` (`0x40858cb024b56604`),
/// `stress_98/ringnet` (`0xc442d7247713aaba`) and `stress_104/ringnet`
/// (`0x8c96e913c863736a`). Only each AG-ring leader's `control_sent`
/// moves (`ringnet` 443 → 358), and every journal digest is unedited.
///
/// The same seven were regenerated on purpose once more when an AG ring's
/// leader came to be watched by its next member, which its data answers
/// for, instead of probed by the last member, to which no traffic flows:
/// `ringnet` (was `0xe140169ca568301b`), `rings8` (`0xaba4d471e1518707`),
/// `fence_overlap_4` (`0x72fcbb28bcdb3a78`), `replay`
/// (`0x4b9615a68f0da0da`), `multigroup_faults` (`0xbf39dd07b0a45764`),
/// `stress_98/ringnet` (`0x24e545eab1fbe23e`) and `stress_104/ringnet`
/// (`0x4472ddc4c15a1081`). Only AGs' `control_sent` moves (`ringnet`
/// 358 → 281 and 319 → 241), and every journal digest is unedited.
///
/// The three multi-group entries were regenerated on purpose when each
/// group's AG ring came to hang from the BR that assigns its GSNs, with
/// their journal digests: `rings8` (was `0x86aebc0bd7f668cb`),
/// `fence_overlap_4` (`0x3491f03461feb6be`) and `multigroup_faults`
/// (`0x94112236e9073df8`). Control moves between BRs and in total
/// (`rings8` 3 820 → 3 806, `fence_overlap_4` 1 887 → 1 942); data sent
/// does not (40 000 and 84 600). Every single-group entry is unedited.
///
/// Three were regenerated on purpose when a top-ring node came to keep its
/// `MQ` at an excised next's last ack for one failover window: `replay`
/// (was `0x13c5d7dc232878da`), `stress_98/ringnet` (`0xb1c12492a50695b2`)
/// and `stress_98/flat_ring` (`0x57021a22ddb85d9b`). Only the `mq_peak` of
/// the node that excised moves (`replay` BR 1 7 → 28, after BR 2 dies;
/// `stress_98` BR 0 29 → 70 and station 0 57 → 76, after the ring
/// partition), nothing it sent, and every journal digest is unedited.
/// `stress_98/ringnet` moved again, with its journal digest, when
/// `AG_RING_CAP` went from 11 to 4 (was `0x413456770874a8e0`): see
/// `GOLDEN_FAULT_PATH_DIGESTS`.
const COUNTERS_DIGESTS: &[(&str, u64)] = &[
    ("ringnet", 0x984ac802a4482d50),
    ("flat_ring", 0x0c77671a3b244c94),
    ("tree", 0xe2ed3e8295e4bb49),
    ("tunnel", 0xba214e70c3848020),
    ("relm", 0x4e1ef2ebb1bd2ec1),
    ("unordered", 0x2a90bd5584387025),
    ("rings8", 0x7c16bc1f31773d75),
    ("fence_overlap_4", 0x94d8112f58af1932),
    ("stress_98/ringnet", 0x08d5234aa21d09fc),
    ("stress_98/flat_ring", 0x58b9cf209e12a060),
    ("stress_98/tree", 0xad515566f3f86c48),
    ("stress_104/ringnet", 0x27a1c6e086d476f6),
    ("stress_104/flat_ring", 0x0006eba39f524c9b),
    ("stress_104/tree", 0xe097d5f8cefe8208),
    ("replay", 0xcdc8436411e95a05),
    ("multigroup_faults", 0xb67c9fa12431fa39),
];
