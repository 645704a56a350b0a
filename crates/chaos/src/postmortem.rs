//! Flight-recorder postmortems for soak violations.
//!
//! When the auditor convicts a `(backend, seed)`, the shrunk reproduction
//! is re-run with the telemetry layer forced on and every harvested
//! flight recorder is serialised next to the violation into one
//! self-contained JSON document. Enabling telemetry cannot perturb the
//! run — journal byte-identity is a tested invariant — so the re-run *is*
//! the convicted run, now with per-node protocol-phase evidence attached.
//!
//! The document is hand-rolled JSON (the workspace takes no serialisation
//! dependency) with a stable field order, so two postmortems of the same
//! `(backend, seed, shrunk scenario)` are byte-identical.

use ringnet_core::driver::Scenario;

use crate::audit::{Violation, ViolationKind};
use crate::soak::SoakFailure;

/// Stable machine-readable name for a [`ViolationKind`] (the `Display`
/// impl is prose for humans).
pub fn kind_slug(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::OrderInversion => "order_inversion",
        ViolationKind::DuplicateDelivery => "duplicate_delivery",
        ViolationKind::DuplicateAssignment => "duplicate_assignment",
        ViolationKind::AssignmentMismatch => "assignment_mismatch",
        ViolationKind::FifoViolation => "fifo_violation",
        ViolationKind::GsnGap => "gsn_gap",
        ViolationKind::CrossGroupOrder => "cross_group_order",
        ViolationKind::Silence => "silence",
        ViolationKind::OrderingStalled => "ordering_stalled",
    }
}

/// Escape a string for embedding in a JSON document.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serialise one postmortem: the violation, the conviction context, and
/// the flight recorders of the telemetry-instrumented re-run of `sc`
/// (normally [`SoakFailure::shrunk`]). `"telemetry"` is `null` when the
/// backend does not harvest recorders (every non-ringnet baseline).
pub fn dump_json(backend_name: &str, seed: u64, violation: &Violation, sc: &Scenario) -> String {
    let mut sc = sc.clone();
    sc.cfg.telemetry = true;
    let backend = crate::soak::Backend::parse(backend_name)
        .unwrap_or_else(|| panic!("unknown backend {backend_name:?}"));
    let report = backend.run(&sc, seed);

    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\": \"ringnet-flight-recorder/1\", ");
    out.push_str(&format!("\"backend\": \"{backend_name}\", "));
    out.push_str(&format!("\"seed\": {seed}, "));
    out.push_str("\"violation\": {");
    out.push_str(&format!("\"at_ns\": {}, ", violation.at.as_nanos()));
    out.push_str(&format!("\"kind\": \"{}\", ", kind_slug(violation.kind)));
    out.push_str("\"detail\": \"");
    escape_json(&violation.detail, &mut out);
    out.push_str("\"}, ");
    out.push_str("\"telemetry\": ");
    match &report.telemetry {
        Some(t) => out.push_str(&t.to_json()),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// [`dump_json`] for a [`SoakFailure`], re-running the shrunk scenario.
pub fn failure_dump(failure: &SoakFailure) -> String {
    dump_json(
        failure.backend.name(),
        failure.seed,
        &failure.violation,
        &failure.shrunk,
    )
}

/// Write a failure's postmortem to `flight_recorder_<backend>_<seed>.json`
/// in the working directory and return the file name.
pub fn write_dump(failure: &SoakFailure) -> std::io::Result<String> {
    let name = format!(
        "flight_recorder_{}_{}.json",
        failure.backend.name(),
        failure.seed
    );
    std::fs::write(&name, failure_dump(failure))?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringnet_core::driver::ScenarioBuilder;
    use simnet::{SimDuration, SimTime};

    /// Minimal structural JSON validator: enough to prove the hand-rolled
    /// document nests and quotes correctly without a parser dependency.
    fn assert_parseable(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth, 0, "unbalanced braces");
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    fn fabricated_failure() -> (String, u64, Violation, ringnet_core::driver::Scenario) {
        // A real (clean) world — the violation is fabricated, which is
        // exactly the mutation-test posture: prove the postmortem pipeline
        // produces a parseable dump carrying phase evidence, independent
        // of whether the protocol actually failed.
        let sc = ScenarioBuilder::new()
            .attachments(3)
            .walkers_per_attachment(1)
            .sources(1)
            .cbr(SimDuration::from_millis(25))
            .loss_free_wireless()
            .duration(SimTime::from_secs(2))
            .build();
        let violation = Violation {
            at: SimTime::from_millis(1_234),
            kind: ViolationKind::OrderInversion,
            detail: "walker 0 delivered gsn 7 after 9 (\"quoted\"\nnewline)".into(),
        };
        ("ringnet".into(), 42, violation, sc)
    }

    #[test]
    fn dump_is_parseable_and_carries_flight_recorders() {
        let (backend, seed, violation, sc) = fabricated_failure();
        let dump = dump_json(&backend, seed, &violation, &sc);
        assert_parseable(&dump);
        assert!(dump.contains("\"schema\": \"ringnet-flight-recorder/1\""));
        assert!(dump.contains("\"kind\": \"order_inversion\""));
        assert!(dump.contains("\"at_ns\": 1234000000"));
        // The detail survived escaping.
        assert!(dump.contains("\\\"quoted\\\"\\nnewline"));
        // The ringnet re-run harvested real telemetry, not a null
        // placeholder: the token-pass counter (present only once bumped) is
        // in the document.
        assert!(!dump.contains("\"telemetry\": null"));
        assert!(dump.contains("\"token_passes\": "));
    }

    #[test]
    fn dump_is_deterministic() {
        let (backend, seed, violation, sc) = fabricated_failure();
        let a = dump_json(&backend, seed, &violation, &sc);
        let b = dump_json(&backend, seed, &violation, &sc);
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_backends_dump_null_telemetry() {
        let (_, seed, violation, sc) = fabricated_failure();
        let dump = dump_json("tunnel", seed, &violation, &sc);
        assert_parseable(&dump);
        assert!(dump.contains("\"telemetry\": null"));
    }
}
