//! The live-workspace golden test: the real tree must lint clean, and
//! the audited-suppression count must not grow unnoticed.

use std::path::Path;

/// Total audited `ringlint: allow` comments in the workspace today.
/// Raising this number is an explicit, reviewed decision: every new
/// suppression is a hole in an architectural invariant and needs a
/// written audit in the justification text.
///
/// 1 → 10 (PR 10): the `hot-clone` rule lands with nine audited clone
/// sites — the only places the copy-free fabric still copies a payload,
/// each justified in place: the three batched-Fan unpack points (simnet
/// `sim.rs` ×2, `shard.rs`; per-batch split, last recipient moves), the
/// multicast same-arrival-run split and the cross-shard hand-off
/// (`sim.rs`), the NE flush local/wire split (`engine.rs` ×2), and the
/// per-token-pass / cold-start / recovery token clones (`ordering.rs` ×2,
/// `recovery.rs`). None is per-delivery.
///
/// 10 → 9 (PR 12): `Sim::step` and the sharded drain loop share one event
/// dispatch (`World::dispatch`), so the Fan unpack point exists once.
///
/// 9 → 7: the NE flush loops a self-addressed fence message back before it
/// batches a multicast run, so no message is both sent and looped back and
/// its local/wire split (`engine.rs` ×2) is gone.
const GOLDEN_SUPPRESSION_TOTAL: usize = 7;

fn workspace_root() -> &'static Path {
    // ringlint lives at <root>/crates/ringlint.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_lints_clean() {
    let report = ringlint::lint_workspace(workspace_root()).expect("workspace sources readable");
    assert!(
        report.files_scanned > 50,
        "scan found only {} files — workspace layout changed?",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.msg))
        .collect();
    assert!(
        rendered.is_empty(),
        "unsuppressed architectural violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn suppression_count_is_pinned() {
    let report = ringlint::lint_workspace(workspace_root()).expect("workspace sources readable");
    let total: usize = report.suppression_counts.values().sum();
    let breakdown: Vec<String> = report
        .suppression_counts
        .iter()
        .map(|(r, n)| format!("  {r}: {n}"))
        .collect();
    assert_eq!(
        total,
        GOLDEN_SUPPRESSION_TOTAL,
        "audited-suppression total changed (golden {GOLDEN_SUPPRESSION_TOTAL}, now {total}):\n\
         {}\nif the new suppression is a deliberate, audited decision, update \
         GOLDEN_SUPPRESSION_TOTAL in this test",
        breakdown.join("\n")
    );
    // Per-rule breakdown: the metrics.rs FxMap audit, plus the six
    // audited copy sites of the copy-free fabric (see the doc comment on
    // GOLDEN_SUPPRESSION_TOTAL).
    assert_eq!(report.suppression_counts.get("determinism"), Some(&1));
    assert_eq!(report.suppression_counts.get("hot-clone"), Some(&6));
}
