//! Fixture corpus: for every rule family, one file that must trip the
//! rule and one that must come back clean. The fixtures live under
//! `fixtures/` and are linted in-memory through [`ringlint::lint_text`],
//! attributed to a plausible workspace location.

use ringlint::workspace::crate_spec;
use ringlint::{lint_text, Finding};

/// Fake `ringnet_core` module universe for the facade rule: the real
/// facade modules plus two protocol internals.
fn core_modules() -> Vec<String> {
    [
        "driver",
        "engine",
        "hierarchy",
        "metrics",
        "ordering",
        "recovery",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn lint_as(lib: &str, text: &str) -> Vec<Finding> {
    let krate = crate_spec(lib).expect("fixture names a workspace crate");
    lint_text(krate, "crates/core/src/fixture.rs", text, &core_modules())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn epoch_fixture_pair() {
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/epoch_violating.rs"),
    );
    assert_eq!(
        bad.len(),
        5,
        "construction, 2 comparisons, assignment, .0 peel: {bad:?}"
    );
    assert!(rules_of(&bad).iter().all(|r| *r == "epoch-fence"));
    let clean = lint_as("ringnet_core", include_str!("../fixtures/epoch_clean.rs"));
    let epoch_only: Vec<_> = clean.iter().filter(|f| f.rule == "epoch-fence").collect();
    assert!(
        epoch_only.is_empty(),
        "clean fixture flagged: {epoch_only:?}"
    );
}

#[test]
fn fence_fixture_pair() {
    // The cross-group fence (PR 9) is the second place epoch ordering
    // could plausibly creep back in outside ring_epoch: a sequencer that
    // gates dispatches on token epochs, mints a "fence epoch" at merge,
    // or folds the epoch integer into its channel sequence. The
    // violating fixture builds exactly that rogue fence and every site
    // trips `epoch-fence`; the clean fixture is the delegating shape
    // `core::fence` actually uses (own counters, opaque Epoch carry,
    // admission through EpochFence) and needs no suppression.
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/fence_violating.rs"),
    );
    assert_eq!(
        bad.len(),
        5,
        "mint, gate cmp, reversed cmp, restamp, chan-seq peel: {bad:?}"
    );
    assert!(rules_of(&bad).iter().all(|r| *r == "epoch-fence"));
    let clean = lint_as("ringnet_core", include_str!("../fixtures/fence_clean.rs"));
    assert!(clean.is_empty(), "delegating fence flagged: {clean:?}");
}

#[test]
fn epoch_rule_silent_inside_ring_epoch() {
    let krate = crate_spec("ringnet_core").unwrap();
    let bad = include_str!("../fixtures/epoch_violating.rs");
    let inside = lint_text(krate, "crates/core/src/ring_epoch.rs", bad, &core_modules());
    assert!(
        inside.iter().all(|f| f.rule != "epoch-fence"),
        "ring_epoch.rs is the fence's home and may order epochs: {inside:?}"
    );
}

#[test]
fn lifecycle_fixture_pair() {
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/lifecycle_violating.rs"),
    );
    let lc: Vec<_> = bad
        .iter()
        .filter(|f| f.rule == "lifecycle-confinement")
        .collect();
    assert_eq!(lc.len(), 2, "state assignment + struct literal: {lc:?}");
    let clean = lint_as(
        "ringnet_core",
        include_str!("../fixtures/lifecycle_clean.rs"),
    );
    assert!(
        clean.iter().all(|f| f.rule != "lifecycle-confinement"),
        "reads, match arms and impl blocks are legal: {clean:?}"
    );
}

#[test]
fn hot_clone_fixture_pair() {
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/hot_clone_violating.rs"),
    );
    assert_eq!(
        bad.len(),
        5,
        "per-recipient, field Msg, token, chained Option, generic M: {bad:?}"
    );
    assert!(rules_of(&bad).iter().all(|r| *r == "hot-clone"));
    let clean = lint_as(
        "ringnet_core",
        include_str!("../fixtures/hot_clone_clean.rs"),
    );
    assert!(
        clean.is_empty(),
        "handles, moves, copy_from, audited allow: {clean:?}"
    );
}

#[test]
fn determinism_fixture_pair() {
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/determinism_violating.rs"),
    );
    let det: Vec<_> = bad.iter().filter(|f| f.rule == "determinism").collect();
    assert_eq!(
        det.len(),
        6,
        "2×Instant, HashMap, sleep, for-in, .keys(): {det:?}"
    );
    let clean = lint_as(
        "ringnet_core",
        include_str!("../fixtures/determinism_clean.rs"),
    );
    assert!(
        clean.is_empty(),
        "audited allow + BTree iteration: {clean:?}"
    );
}

#[test]
fn determinism_shard_fixture_pair() {
    // The shard-worker module pattern (a parallel event-queue engine):
    // drain workers are legal exactly when every merge point imposes a
    // total order and the window protocol runs on virtual time.
    let bad = lint_as(
        "simnet",
        include_str!("../fixtures/determinism_shard_violating.rs"),
    );
    let det: Vec<_> = bad.iter().filter(|f| f.rule == "determinism").collect();
    assert_eq!(
        det.len(),
        6,
        "2×Instant, HashMap, .values(), for-in, sleep: {det:?}"
    );
    let clean = lint_as(
        "simnet",
        include_str!("../fixtures/determinism_shard_clean.rs"),
    );
    assert!(
        clean.is_empty(),
        "mpsc fan-out + scoped threads + sorted merge are legal: {clean:?}"
    );
}

#[test]
fn telemetry_fixture_pair() {
    // The observability layer is the newest place wall-clock time and
    // hash containers sneak into the sim path: a recorder stamping
    // `Instant::now()` or dumping a HashMap would make every flight
    // recorder a per-run lottery. The violating fixture builds exactly
    // that recorder; the clean one is the shape `core::telemetry`
    // actually uses (SimTime + BTreeMap + bounded VecDeque) and needs no
    // suppression at all.
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/telemetry_violating.rs"),
    );
    let det: Vec<_> = bad.iter().filter(|f| f.rule == "determinism").collect();
    assert_eq!(
        det.len(),
        7,
        "3×Instant (use, field, now()), HashMap, sleep, for-in, .values(): {det:?}"
    );
    let clean = lint_as(
        "ringnet_core",
        include_str!("../fixtures/telemetry_clean.rs"),
    );
    assert!(
        clean.is_empty(),
        "SimTime + ordered containers need no allows: {clean:?}"
    );
}

#[test]
fn determinism_rule_ignores_non_sim_crates() {
    let krate = crate_spec("harness").unwrap();
    let bad = include_str!("../fixtures/determinism_violating.rs");
    let findings = lint_text(krate, "crates/harness/src/fixture.rs", bad, &core_modules());
    assert!(
        findings.iter().all(|f| f.rule != "determinism"),
        "harness is off the deterministic sim path: {findings:?}"
    );
}

#[test]
fn panics_fixture_pair() {
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/panics_violating.rs"),
    );
    let p: Vec<_> = bad
        .iter()
        .filter(|f| f.rule == "panic-discipline")
        .collect();
    assert_eq!(p.len(), 2, "bare unwrap + empty expect: {p:?}");
    let clean = lint_as("ringnet_core", include_str!("../fixtures/panics_clean.rs"));
    assert!(
        clean.is_empty(),
        "descriptive expect, unwrap_or, and #[cfg(test)] unwrap are legal: {clean:?}"
    );
}

#[test]
fn layering_fixture_pair() {
    let krate = crate_spec("baselines").unwrap();
    let bad = lint_text(
        krate,
        "crates/baselines/src/fixture.rs",
        include_str!("../fixtures/layering_violating.rs"),
        &core_modules(),
    );
    let lay: Vec<_> = bad.iter().filter(|f| f.rule == "layering").collect();
    assert_eq!(
        lay.len(),
        3,
        "harness dep + ordering use + recovery inline path: {lay:?}"
    );
    assert!(lay.iter().any(|f| f.msg.contains("harness")));
    assert!(lay.iter().any(|f| f.msg.contains("ordering")));
    assert!(lay.iter().any(|f| f.msg.contains("recovery")));
    let clean = lint_text(
        krate,
        "crates/baselines/src/fixture.rs",
        include_str!("../fixtures/layering_clean.rs"),
        &core_modules(),
    );
    assert!(
        clean.is_empty(),
        "facade + root re-exports are legal: {clean:?}"
    );
}

#[test]
fn suppression_fixture_pair() {
    let bad = lint_as(
        "ringnet_core",
        include_str!("../fixtures/suppression_violating.rs"),
    );
    let sup: Vec<_> = bad.iter().filter(|f| f.rule == "suppression").collect();
    assert_eq!(
        sup.len(),
        2,
        "missing justification + unknown rule: {sup:?}"
    );
    // An unjustified allow is inert: the finding it meant to cover still
    // reports, alongside the meta-finding about the allow itself.
    assert!(bad.iter().any(|f| f.rule == "determinism"), "{bad:?}");
    let clean = lint_as(
        "ringnet_core",
        include_str!("../fixtures/suppression_clean.rs"),
    );
    assert!(clean.is_empty(), "justified allow is clean: {clean:?}");
}

#[test]
fn every_rule_family_has_a_fixture_demonstration() {
    // The registry and this corpus must not drift apart.
    let demonstrated = [
        "epoch-fence",
        "lifecycle-confinement",
        "determinism",
        "hot-clone",
        "panic-discipline",
        "layering",
        "suppression",
    ];
    for rule in ringlint::RULES {
        assert!(
            demonstrated.contains(&rule.id),
            "rule `{}` has no fixture pair — add one",
            rule.id
        );
    }
    assert!(ringlint::RULES.len() >= 5);
}
