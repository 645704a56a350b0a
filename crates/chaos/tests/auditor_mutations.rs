//! Mutation tests for the auditor: corrupt a known-good journal in a
//! targeted way and assert the corruption is caught. This is the test of
//! the *tester* — an auditor that would wave a corrupted journal through
//! proves nothing about the clean ones.
//!
//! [`AUDIT_DIGESTS`] pins the whole [`AuditReport`] of every journal here,
//! of two generated fault worlds and of eight quick soak seeds, so a
//! change to how the auditor stores its state can be shown not to change
//! a single word it reports.

use chaos::{
    audit_scenario_run, generate, AuditConfig, AuditReport, Auditor, Backend, ChaosConfig,
    ViolationKind,
};
use ringnet_core::driver::{MulticastSim, Scenario, ScenarioBuilder, ScenarioEvent};
use ringnet_core::{ProtoEvent, RingNetSim};
use simnet::{SimDuration, SimTime};

type Journal = Vec<(SimTime, ProtoEvent)>;

/// One journal and the audit a test runs over it.
struct Case {
    journal: Journal,
    cfg: AuditConfig,
    end: SimTime,
}

impl Case {
    /// A journal audited with every safety check, closed at 3 s.
    fn full(journal: Journal) -> Case {
        Case {
            journal,
            cfg: AuditConfig::default(),
            end: SimTime::from_secs(3),
        }
    }

    fn report(&self) -> AuditReport {
        let mut a = Auditor::new(self.cfg.clone());
        a.observe_journal(&self.journal);
        a.finish(self.end)
    }

    fn first_kind(&self) -> Option<ViolationKind> {
        self.report().first_violation.map(|v| v.kind)
    }
}

/// A clean journal from a healthy multi-walker run.
fn good_journal() -> Journal {
    let sc = ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(2)
        .cbr(SimDuration::from_millis(10))
        .message_limit(40)
        .loss_free_wireless()
        .duration(SimTime::from_secs(3))
        .build();
    RingNetSim::run_scenario(&sc, 99).journal
}

/// Indices of the deliveries of one fixed walker.
fn delivery_indices(journal: &Journal, walker: u32) -> Vec<usize> {
    journal
        .iter()
        .enumerate()
        .filter_map(|(i, (_, e))| match e {
            ProtoEvent::MhDeliver { mh, .. } if mh.0 == walker => Some(i),
            _ => None,
        })
        .collect()
}

/// The first `Ordered` record and its index.
fn first_ordered(journal: &Journal) -> (usize, ProtoEvent) {
    journal
        .iter()
        .enumerate()
        .find_map(|(i, (_, e))| match e {
            ProtoEvent::Ordered { .. } => Some((i, *e)),
            _ => None,
        })
        .expect("journal has Ordered records")
}

/// Swap the GSNs of two deliveries of walker 0 (keeping times/places): the
/// earlier position now jumps ahead, the later one goes backwards.
fn swapped_gsns() -> Case {
    let mut j = good_journal();
    let d = delivery_indices(&j, 0);
    let (a, b) = (d[5], d[9]);
    let ga = j[a].1;
    let gb = j[b].1;
    let (ProtoEvent::MhDeliver { gsn: gsn_a, .. }, ProtoEvent::MhDeliver { gsn: gsn_b, .. }) =
        (ga, gb)
    else {
        unreachable!()
    };
    let swap = |e: &mut ProtoEvent, g| {
        if let ProtoEvent::MhDeliver { gsn, .. } = e {
            *gsn = g;
        }
    };
    swap(&mut j[a].1, gsn_b);
    swap(&mut j[b].1, gsn_a);
    Case::full(j)
}

fn dropped_delivery() -> Case {
    let mut j = good_journal();
    let d = delivery_indices(&j, 1);
    j.remove(d[7]);
    Case::full(j)
}

fn duplicated_gsn() -> Case {
    let mut j = good_journal();
    let d = delivery_indices(&j, 2);
    let dup = j[d[3]];
    j.insert(d[3] + 1, dup);
    Case::full(j)
}

/// One walker's delivery of a GSN claims a different (source, seq) than
/// everyone else's — the members no longer agree what the GSN means.
fn relabelled_message() -> Case {
    let mut j = good_journal();
    let d = delivery_indices(&j, 3);
    if let ProtoEvent::MhDeliver { local_seq, .. } = &mut j[d[4]].1 {
        local_seq.0 += 1000;
    }
    Case::full(j)
}

/// A second ordering node claims the same GSN for its own message.
fn duplicated_assignment() -> Case {
    let mut j = good_journal();
    let (i, mut ordered) = first_ordered(&j);
    if let ProtoEvent::Ordered {
        node, local_seq, ..
    } = &mut ordered
    {
        node.0 += 1;
        local_seq.0 += 500;
    }
    let t = j[i].0;
    j.insert(i + 1, (t, ordered));
    Case::full(j)
}

/// A partition → heal world on one source.
fn partition_heal_world() -> Scenario {
    let mut sc = ScenarioBuilder::new()
        .attachments(4)
        .walkers_per_attachment(1)
        .sources(1)
        .cbr(SimDuration::from_millis(10))
        .loss_free_wireless()
        .duration(SimTime::from_secs(8))
        .build();
    sc.events = vec![
        ScenarioEvent::PartitionRing {
            at: SimTime::from_secs(2),
            isolate: 1,
        },
        ScenarioEvent::HealRing {
            at: SimTime::from_millis(3_500),
            isolate: 1,
        },
    ];
    sc
}

/// The partition → heal world's journal, with a forged minority-side
/// assignment: an existing GSN re-issued from the fenced node for a
/// different message, mid-partition, audited with the heal-aware config.
fn forged_minority_side_gsn() -> Case {
    let sc = partition_heal_world();
    let mut j = Backend::RingNet.run(&sc, 51).journal;
    let (i, mut forged) = first_ordered(&j);
    if let ProtoEvent::Ordered {
        node, local_seq, ..
    } = &mut forged
    {
        node.0 += 1; // "the minority node"
        local_seq.0 += 9_000; // a different message
    }
    j.insert(i + 1, (SimTime::from_millis(2_800), forged));
    Case {
        journal: j,
        cfg: Backend::RingNet.audit_config(&sc, &ChaosConfig::default()),
        end: sc.duration,
    }
}

/// Two deliveries of walker 0 trade places, audited the way the unordered
/// backend is: per-stream FIFO only.
fn reordered_stream_without_gsn_checks() -> Case {
    let mut j = good_journal();
    let d = delivery_indices(&j, 0);
    let late = j[d[9]].1;
    let early = j[d[5]].1;
    j[d[5]].1 = late;
    j[d[9]].1 = early;
    Case {
        journal: j,
        cfg: AuditConfig {
            check_gsn_order: false,
            check_gap_freedom: false,
            liveness: None,
            ordering_resumed_after: None,
        },
        end: SimTime::from_secs(3),
    }
}

#[test]
fn clean_journal_passes() {
    let j = good_journal();
    assert!(j.len() > 100, "need a substantial journal");
    assert_eq!(Case::full(j).first_kind(), None);
}

#[test]
fn swapped_gsns_are_caught() {
    let kind = swapped_gsns().first_kind().expect("swap must be detected");
    assert!(
        matches!(kind, ViolationKind::GsnGap | ViolationKind::OrderInversion),
        "unexpected kind {kind:?}"
    );
}

#[test]
fn dropped_delivery_is_caught() {
    assert_eq!(dropped_delivery().first_kind(), Some(ViolationKind::GsnGap));
}

#[test]
fn duplicated_gsn_is_caught() {
    assert_eq!(
        duplicated_gsn().first_kind(),
        Some(ViolationKind::DuplicateDelivery)
    );
}

#[test]
fn relabelled_message_is_caught() {
    assert_eq!(
        relabelled_message().first_kind(),
        Some(ViolationKind::AssignmentMismatch)
    );
}

#[test]
fn duplicated_assignment_is_caught() {
    assert_eq!(
        duplicated_assignment().first_kind(),
        Some(ViolationKind::DuplicateAssignment)
    );
}

#[test]
fn forged_minority_side_gsn_is_still_flagged() {
    // The partition exemptions are *liveness-only*: a journal from a
    // partition→heal run in which the fenced minority node "somehow"
    // assigned a GSN the primary also assigned must still trip the safety
    // checks — even with the heal-aware audit configuration installed.
    let sc = partition_heal_world();
    // The genuine run is clean under the heal-aware config.
    let clean = audit_scenario_run(&sc, 51, Backend::RingNet, &ChaosConfig::default());
    assert!(clean.is_clean(), "{:?}", clean.first_violation);
    assert_eq!(
        forged_minority_side_gsn().first_kind(),
        Some(ViolationKind::DuplicateAssignment),
        "a forged minority-side GSN must be flagged despite partition exemptions"
    );
}

#[test]
fn reordered_stream_without_gsn_checks_is_caught() {
    // The unordered-backend configuration still pins per-stream FIFO.
    assert_eq!(
        reordered_stream_without_gsn_checks().first_kind(),
        Some(ViolationKind::FifoViolation)
    );
}

// ---------------------------------------------------------------- pins

/// FNV-1a over the `Debug` rendering of a report: every counter, and the
/// first violation's time, kind and detail text.
fn digest(report: &AuditReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{report:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every pinned report, by name.
fn pinned_reports() -> Vec<(String, AuditReport)> {
    let mut out: Vec<(String, AuditReport)> = [
        ("clean", Case::full(good_journal())),
        ("swapped_gsns", swapped_gsns()),
        ("dropped_delivery", dropped_delivery()),
        ("duplicated_gsn", duplicated_gsn()),
        ("relabelled_message", relabelled_message()),
        ("duplicated_assignment", duplicated_assignment()),
        ("forged_minority_side_gsn", forged_minority_side_gsn()),
        (
            "reordered_stream_without_gsn_checks",
            reordered_stream_without_gsn_checks(),
        ),
    ]
    .into_iter()
    .map(|(name, case)| (format!("mutation/{name}"), case.report()))
    .collect();
    // `chaos_stress_12` worlds 98 and 104 at run seed 7, as
    // `tests/journal_byte_identity.rs` pins their journals.
    let stress = ChaosConfig::stress();
    for world in [98, 104] {
        let sc = generate(&stress, world);
        for backend in [Backend::RingNet, Backend::FlatRing, Backend::Tree] {
            out.push((
                format!("stress_{world}/{}", backend.name()),
                audit_scenario_run(&sc, 7, backend, &stress),
            ));
        }
    }
    // Quick soak seeds, audited exactly as `soak_seed` audits them.
    let quick = ChaosConfig::quick();
    for seed in 0..8 {
        let sc = generate(&quick, seed);
        for backend in Backend::ALL {
            out.push((
                format!("quick_{seed}/{}", backend.name()),
                audit_scenario_run(&sc, seed, backend, &quick),
            ));
        }
    }
    out
}

/// [`digest`] of each report of [`pinned_reports`], pinned on the
/// `BTreeMap`-keyed auditor before its state moved to dense tables.
///
/// `stress_104/ringnet` was re-pinned when an AG ring's acknowledged data
/// began answering the liveness probe to its next member (was
/// `0xeac3bf5547992394`): the dead AG is excised a heartbeat period
/// earlier, its orphaned APs graft onto a neighbour that has already
/// collected the gap, and they skip it — 48 231 deliveries and 85 skips
/// become 47 811 and 506, still with no violation.
///
/// `quick_0/ringnet` and `quick_3/ringnet`, multi-group worlds, were
/// re-pinned when each group's AG ring came to hang from the BR that
/// assigns its GSNs (were `0x642e78092b071a3b` and
/// `0x025e214218bc2451`): 5 499 deliveries and 9 skips become 5 516 and 8,
/// and 3 833 deliveries become 3 834, still with no violation.
///
/// `stress_98/ringnet` was re-pinned when `AG_RING_CAP` went from 11 to 4
/// (was `0xd651c73e4da15921`): the world's 6 AGs form two rings, the
/// second under BR 1, and 111 198 deliveries and 373 skips become 111 238
/// and 364, still with no violation.
const AUDIT_DIGESTS: &[(&str, u64)] = &[
    ("mutation/clean", 0x600a3739ec7b607f),
    ("mutation/swapped_gsns", 0x2bd90b057eee2a0c),
    ("mutation/dropped_delivery", 0x154a47b51c3cda43),
    ("mutation/duplicated_gsn", 0x8de0cc55347011ce),
    ("mutation/relabelled_message", 0x4dd93c9cf7ffdc15),
    ("mutation/duplicated_assignment", 0x7f2b4d18f33ff6a4),
    ("mutation/forged_minority_side_gsn", 0xe7c09cb91785cefb),
    (
        "mutation/reordered_stream_without_gsn_checks",
        0xaf5e5dd27142dcca,
    ),
    ("stress_98/ringnet", 0xee00540b52570580),
    ("stress_98/flat_ring", 0x741a05e3f259c5d9),
    ("stress_98/tree", 0x519eb1cd8bd866ca),
    ("stress_104/ringnet", 0xfbe646f4cef152f5),
    ("stress_104/flat_ring", 0xfab47cc8e209496b),
    ("stress_104/tree", 0xb68b9db482ae1fa0),
    ("quick_0/ringnet", 0x82a6f0c266da149e),
    ("quick_0/flat_ring", 0x93417addd34767b1),
    ("quick_0/tree", 0x677fd0258484bd26),
    ("quick_0/relm", 0x6b1c490d7b23ea45),
    ("quick_0/tunnel", 0xc7c27dd7ca0b0552),
    ("quick_0/unordered", 0x90a8fb3fedfa2a7e),
    ("quick_1/ringnet", 0x1f59d09be8eb6d67),
    ("quick_1/flat_ring", 0x4de7252d9a73d00e),
    ("quick_1/tree", 0x5702dff907ba3747),
    ("quick_1/relm", 0x6bc7bc3d45d11539),
    ("quick_1/tunnel", 0x6a9305db6adce82d),
    ("quick_1/unordered", 0xbec991dd63a67ce4),
    ("quick_2/ringnet", 0xa382a3ae0b726352),
    ("quick_2/flat_ring", 0xa73a306c0233ec99),
    ("quick_2/tree", 0x493fce5094f9270b),
    ("quick_2/relm", 0x26b61ee5c5da8edb),
    ("quick_2/tunnel", 0xd553534156138df0),
    ("quick_2/unordered", 0x26b61ee5c5da8edb),
    ("quick_3/ringnet", 0xda52a61dfcbeece4),
    ("quick_3/flat_ring", 0xb4986a39ad91bd30),
    ("quick_3/tree", 0x360edfdda7b85ff0),
    ("quick_3/relm", 0x6a8d89c1565f79b6),
    ("quick_3/tunnel", 0xadaca5f6b01d6ad7),
    ("quick_3/unordered", 0xed46231e5b5b8eb4),
    ("quick_4/ringnet", 0xea213a7769c7f8eb),
    ("quick_4/flat_ring", 0x851e8fc598362822),
    ("quick_4/tree", 0x602265ebf04241d3),
    ("quick_4/relm", 0xd500043e1ed8c35c),
    ("quick_4/tunnel", 0xc3151b25a4c1df91),
    ("quick_4/unordered", 0xc207bfe61c1fa7a8),
    ("quick_5/ringnet", 0xa143d14fea75534d),
    ("quick_5/flat_ring", 0xa143d14fea75534d),
    ("quick_5/tree", 0x905d0d38654a61f3),
    ("quick_5/relm", 0x97e3c3519db78cd3),
    ("quick_5/tunnel", 0x87a720dc18221bd0),
    ("quick_5/unordered", 0x392f600d80ecf5c6),
    ("quick_6/ringnet", 0x47c694f9c2491827),
    ("quick_6/flat_ring", 0xcecea406e089b92e),
    ("quick_6/tree", 0x47c694f9c2491827),
    ("quick_6/relm", 0x47c694f9c2491827),
    ("quick_6/tunnel", 0x7fe245ffefee8cf0),
    ("quick_6/unordered", 0x47c694f9c2491827),
    ("quick_7/ringnet", 0xcd094f28c6203b56),
    ("quick_7/flat_ring", 0xbf64311ddc54c730),
    ("quick_7/tree", 0xc5f2a937e174a319),
    ("quick_7/relm", 0xbf64311ddc54c730),
    ("quick_7/tunnel", 0xb5dd40acdd637154),
    ("quick_7/unordered", 0x9b42c0d214f35eb9),
];

#[test]
fn audit_reports_are_pinned() {
    let reports = pinned_reports();
    let mut moved = Vec::new();
    for (name, report) in &reports {
        let got = digest(report);
        match AUDIT_DIGESTS.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => moved.push(format!(
                "{name}: {got:#018x} (pinned {want:#018x}) {report:?}"
            )),
            None => moved.push(format!("{name}: {got:#018x} is not pinned")),
        }
    }
    assert_eq!(reports.len(), AUDIT_DIGESTS.len(), "one pin per report");
    assert!(
        moved.is_empty(),
        "audit reports moved:\n{}",
        moved.join("\n")
    );
}
