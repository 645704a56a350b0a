//! Journal byte-identity: the regression oracle of the copy-free fabric.
//!
//! The payload-handle swap and the batched fan-out (PR 10) are allowed to
//! change *how* messages move, never *what* the protocol does — the
//! journal is the arbiter. The pins:
//!
//! * every backend (RingNet + the five baselines) replays byte-identically
//!   for a fixed `(scenario, seed)`;
//! * the RingNet journal digest is **pinned as a golden constant** per
//!   `(seed, shard count)`, so a fabric change that perturbs so much as
//!   one journal byte fails here, not in a downstream experiment;
//! * telemetry on/off leaves the digest untouched, sequential and sharded,
//!   and is harvested by all three RingNet-engine backends;
//! * two loss-free **multi-group** worlds are pinned by an *instant-
//!   canonical* digest (entries sorted within equal timestamps), which a
//!   change may leave alone while permuting what independent ring states do
//!   at one simulated instant — and which is therefore the same number at
//!   every shard count;
//! * two generated **fault** worlds pin the token-retry, regeneration,
//!   heartbeat, ring-repair and reservation paths on the three backends
//!   that run the ordering core, which a loss-free static world never
//!   enters;
//! * beside each raw digest of a backend that emits `NeFinal` records sits
//!   the digest of the same journal without them, so a change meant to
//!   alter only the per-entity control totals shows that nothing else
//!   moved.
//!
//! The digest is FNV-1a over the `Debug` rendering of every `(time,
//! event)` entry — stable, dependency-free, and sensitive to field order,
//! values and entry count alike.

use ringnet_repro::baselines::{FlatRingSim, RelmSim, TreeSim, TunnelSim, UnorderedSim};
use ringnet_repro::chaos::{generate, ChaosConfig};
use ringnet_repro::core::driver::{
    MulticastSim, RunReport, Scenario, ScenarioBuilder, ScenarioEvent,
};
use ringnet_repro::core::{GroupId, ProtoEvent, RingNetSim};
use ringnet_repro::simnet::{LinkProfile, SimDuration, SimTime};

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

/// The report without its `NeFinal` lines: every protocol decision and
/// instant, with the per-entity control, data and buffer totals set aside.
/// A change that only stops sending redundant control moves `NeFinal`
/// alone, and these digests stay put through it.
fn without_ne_final(mut report: RunReport) -> RunReport {
    report
        .journal
        .retain(|(_, e)| !matches!(e, ProtoEvent::NeFinal { .. }));
    report
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

/// Golden RingNet journal digests per `(seed, shards)`. These pin the
/// exact bytes the copy-free fabric produces; any change to payload
/// handling, fan-out batching or event ordering that perturbs the journal
/// must be a deliberate, reviewed regeneration of this table.
///
/// The digest is identical across seeds (loss-free static world: no RNG
/// on the message path) but differs across shard counts — sharding
/// reorders journal *emission* across concurrently-draining shards while
/// preserving each node's event sequence (the semantic equivalence pinned
/// by `crates/core/tests/telemetry_determinism.rs`). The contract is
/// byte-identity per `(seed, shard count)`, exactly as recorded here.
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
/// The last column is the digest of the same journal without its `NeFinal`
/// lines ([`without_ne_final`]).
///
/// Regenerated on purpose when traffic began answering the liveness probes
/// (were `0x5f716a80ccb773f6` / `0x9ad98c13b58fbb02` /
/// `0x22f04e617383adce`): only `NeFinal.control_sent` moves — probes
/// answered by the token or by parent traffic are no longer sent. The
/// filtered column, pinned before that change, is unedited.
///
/// Regenerated on purpose when the MH's ack became its liveness beacon
/// (were `0x80013ded941225c1` / `0xd20f73c3a2b41b35` /
/// `0x0dece3d470a5ac35`): only the APs' `NeFinal.control_sent` moves, because
/// MHs no longer send heartbeats and the APs' `HeartbeatAck`s to them are
/// gone. The filtered column is unedited.
const GOLDEN_RINGNET_DIGESTS: &[(u64, usize, u64, u64)] = &[
    (3, 1, 0x41427e7200ac0bf3, 0x05b0428dd0253ee7),
    (3, 2, 0x853f4326a21c7cc7, 0x42a4f2748c684f93),
    (3, 4, 0x9c8cc95ff4fcf343, 0x0d3cadc326e5a2b3),
    (7, 1, 0x41427e7200ac0bf3, 0x05b0428dd0253ee7),
    (7, 2, 0x853f4326a21c7cc7, 0x42a4f2748c684f93),
    (7, 4, 0x9c8cc95ff4fcf343, 0x0d3cadc326e5a2b3),
];

#[test]
fn ringnet_journal_digest_is_pinned_per_seed_and_shard_count() {
    for &(seed, shards, want, want_filtered) in GOLDEN_RINGNET_DIGESTS {
        let mut sc = scenario();
        sc.shards = shards;
        let report = RingNetSim::run_scenario(&sc, seed);
        let got = digest(&report);
        assert_eq!(
            got, want,
            "seed {seed}, {shards} shard(s): journal digest {got:#018x} != pinned \
             {want:#018x} — the fabric changed observable protocol behaviour"
        );
        let got = digest(&without_ne_final(report));
        assert_eq!(
            got, want_filtered,
            "seed {seed}, {shards} shard(s): digest without NeFinal {got:#018x} != pinned \
             {want_filtered:#018x}"
        );
    }
}

/// A named backend, its pinned digest, and the digest of the same journal
/// without its `NeFinal` lines.
type PinnedBackend = (&'static str, fn(&Scenario, u64) -> RunReport, u64, u64);

/// Golden journal digests of the five baselines on the shared world, the
/// same at 1 and 2 shards. They are the blast-radius proof of a change to
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
    (
        "flat_ring",
        FlatRingSim::run_scenario,
        0xf99ddde3a97ad106,
        0x4a0128b014d717a9,
    ),
    (
        "tree",
        TreeSim::run_scenario,
        0xd4bbe549bdbfc71e,
        0xc7ac251c3bcb2018,
    ),
    (
        "tunnel",
        TunnelSim::run_scenario,
        0x16a8b07b65d6e1f7,
        0x0a0a2f2a9e7526cc,
    ),
    (
        "relm",
        RelmSim::run_scenario,
        0xd6a391e31fb9eb62,
        0x2a3da80a58821584,
    ),
    (
        "unordered",
        UnorderedSim::run_scenario,
        0x878f0228f1205ce4,
        0x112754a74641bbec,
    ),
];

#[test]
fn baseline_journal_digests_are_pinned() {
    for &(name, run, want, want_filtered) in GOLDEN_BASELINE_DIGESTS {
        for shards in [1usize, 2] {
            let mut sc = scenario();
            sc.shards = shards;
            let report = run(&sc, 3);
            let got = digest(&report);
            assert_eq!(
                got, want,
                "{name}, {shards} shard(s): journal digest {got:#018x} != pinned {want:#018x}"
            );
            let got = digest(&without_ne_final(report));
            assert_eq!(
                got, want_filtered,
                "{name}, {shards} shard(s): digest without NeFinal {got:#018x} != pinned \
                 {want_filtered:#018x}"
            );
        }
    }
}

/// The unordered comparator on a world where every way of wiring the tree
/// coincides: `CoreShape::Auto` (one AG ring under BR 0, APs round-robin)
/// and one latency for `ag_ring`, `br_ag` and `ag_ap`, with the default
/// 100 µs source link. Pinned on the private assembly `UnorderedSim` used
/// to own, before it was folded onto `HierarchySpec` (PR 15): that fold is
/// behaviour-neutral wherever the old assembly's link drift did not bite,
/// and this number proves it. (It equals the default-plan pin in
/// [`GOLDEN_BASELINE_DIGESTS`]: the old assembly read only `ag_ring`.)
const GOLDEN_UNORDERED_UNIFORM_LINKS: u64 = 0x878f0228f1205ce4;

#[test]
fn unordered_digest_on_uniform_tree_links_is_pinned() {
    let mut sc = scenario();
    sc.links.br_ag = sc.links.ag_ring.clone();
    sc.links.ag_ap = sc.links.ag_ring.clone();
    assert_eq!(
        sc.links.source,
        LinkProfile::wired(SimDuration::from_micros(100))
    );
    let got = digest(&UnorderedSim::run_scenario(&sc, 3));
    assert_eq!(
        got, GOLDEN_UNORDERED_UNIFORM_LINKS,
        "unordered on uniform tree links: journal digest {got:#018x} != pinned \
         {GOLDEN_UNORDERED_UNIFORM_LINKS:#018x}"
    );
}

/// Telemetry is a pure observer: enabling it must not move one journal
/// byte, sequential or sharded.
#[test]
fn telemetry_on_off_digest_identical_sequential_and_sharded() {
    for shards in [1usize, 2] {
        for seed in [3u64, 7] {
            let mut off = scenario();
            off.shards = shards;
            let mut on = off.clone();
            on.cfg.telemetry = true;
            let d_off = digest(&RingNetSim::run_scenario(&off, seed));
            let d_on = digest(&RingNetSim::run_scenario(&on, seed));
            assert_eq!(
                d_off, d_on,
                "seed {seed}, {shards} shard(s): telemetry moved the journal"
            );
        }
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

/// A named world, its pinned digest, and the digest of the same journal
/// without its `NeFinal` lines.
type PinnedWorld = (&'static str, fn() -> Scenario, u64, u64);

/// Golden instant-canonical digests of the two multi-group worlds. Ring
/// states of different groups share a node but not a bit of protocol
/// state, so what they do within one simulated instant may be permuted by
/// a transport change (and is, between shard counts) without changing
/// what the protocol did; anything else moves these numbers.
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
/// traffic are no longer sent. The filtered column is unedited.
///
/// Regenerated on purpose when the MH's ack became its liveness beacon
/// (were `0xd39a955894fd4f10` and `0x7ba518d2e5619cab`): only the APs'
/// `NeFinal.control_sent` moves, because their `HeartbeatAck`s to MHs are
/// gone. The filtered column is unedited.
const GOLDEN_MULTIGROUP_INSTANT_DIGESTS: &[PinnedWorld] = &[
    (
        "rings8",
        rings8_world,
        0x5bd14950fcd9cc30,
        0xebfd2d04015e1bde,
    ),
    (
        "fence_overlap_4",
        fence_overlap_world,
        0x6d2b021c351e98cb,
        0x42dd9360ca5174ea,
    ),
];

#[test]
fn multigroup_instant_canonical_digest_is_pinned_at_one_and_two_shards() {
    for &(name, world, want, want_filtered) in GOLDEN_MULTIGROUP_INSTANT_DIGESTS {
        for shards in [1usize, 2] {
            let mut sc = world();
            sc.shards = shards;
            let report = RingNetSim::run_scenario(&sc, 7);
            assert!(report.metrics.delivered > 10_000, "{name}: world too quiet");
            let got = instant_canonical_digest(&report);
            assert_eq!(
                got, want,
                "{name}, {shards} shard(s): instant-canonical digest {got:#018x} != pinned \
                 {want:#018x} — something other than the order of same-instant entries moved"
            );
            let got = instant_canonical_digest(&without_ne_final(report));
            assert_eq!(
                got, want_filtered,
                "{name}, {shards} shard(s): instant-canonical digest without NeFinal \
                 {got:#018x} != pinned {want_filtered:#018x}"
            );
        }
    }
}

/// World `generator_seed` of `chaos::generate(ChaosConfig::stress())`, as
/// the benchmark's `chaos_stress_12` draws it, run on one shard.
fn stress_world(generator_seed: u64) -> Scenario {
    let mut sc = generate(&ChaosConfig::stress(), generator_seed);
    sc.shards = 1;
    sc
}

/// Golden raw digests, run seed 7, of two `chaos_stress_12` worlds on the
/// three backends that run the ordering core. Both worlds have lossy
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
const GOLDEN_FAULT_PATH_DIGESTS: &[(u64, [PinnedBackend; 3])] = &[
    (
        98,
        [
            (
                "ringnet",
                RingNetSim::run_scenario,
                0x579203e8f0d3b35b,
                0x989d6e14d0d72959,
            ),
            (
                "flat_ring",
                FlatRingSim::run_scenario,
                0x304f6fae46371a43,
                0x49732b6fa9571540,
            ),
            (
                "tree",
                TreeSim::run_scenario,
                0x218c2a056295ef52,
                0x8cab72015accc0ad,
            ),
        ],
    ),
    (
        104,
        [
            (
                "ringnet",
                RingNetSim::run_scenario,
                0xf5da9d6b11914f5d,
                0x7d1f9939d7b56307,
            ),
            (
                "flat_ring",
                FlatRingSim::run_scenario,
                0x95be5b1c2a303aa9,
                0x28e2c2015a1e68e4,
            ),
            (
                "tree",
                TreeSim::run_scenario,
                0x0f53cda049f30e83,
                0x7407411f556ecb1d,
            ),
        ],
    ),
];

#[test]
fn fault_path_journal_digests_are_pinned() {
    let worlds: Vec<Scenario> = GOLDEN_FAULT_PATH_DIGESTS
        .iter()
        .map(|&(generator_seed, _)| stress_world(generator_seed))
        .collect();
    let drew =
        |fault: fn(&ScenarioEvent) -> bool| worlds.iter().any(|sc| sc.events.iter().any(fault));
    assert!(worlds
        .iter()
        .all(|sc| sc.links.wireless.loss.steady_state_loss() > 0.0));
    assert!(drew(|e| matches!(e, ScenarioEvent::DropToken { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::KillCore { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::RingRejoin { .. })));
    assert!(drew(|e| matches!(e, ScenarioEvent::PartitionRing { .. })));
    for (sc, &(generator_seed, ref backends)) in worlds.iter().zip(GOLDEN_FAULT_PATH_DIGESTS) {
        for &(name, run, want, want_filtered) in backends {
            let report = run(sc, 7);
            let got = digest(&report);
            assert_eq!(
                got, want,
                "stress world {generator_seed}, {name}: journal digest {got:#018x} != pinned \
                 {want:#018x}"
            );
            let got = digest(&without_ne_final(report));
            assert_eq!(
                got, want_filtered,
                "stress world {generator_seed}, {name}: digest without NeFinal {got:#018x} != \
                 pinned {want_filtered:#018x}"
            );
        }
    }
}
