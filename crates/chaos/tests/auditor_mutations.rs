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

/// Two deliveries of walker 0 trade places, audited with the GSN checks
/// and gap-freedom off: per-stream FIFO only.
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
    // With the GSN checks off, per-stream FIFO still catches it.
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
///
/// Five were re-pinned when a quiet token came to be suspected after one
/// retry-chain window of 120 ms at the first ring member, checked every
/// hop tick (was 400 ms, checked every heartbeat), still with no
/// violation. In world 104 the `DropToken` is regenerated 310 ms sooner
/// on ringnet (`stress_104/ringnet`, was `0xfbe646f4cef152f5`: 47 811
/// deliveries and 506 skips become 47 901 and 431) and 325 ms sooner on
/// the flat ring (`stress_104/flat_ring`, was `0xfab47cc8e209496b`: 47 385
/// and 867 become 47 320 and 837). In world 98 station 0 of the flat ring
/// is quiet past the window when the ring partition is repaired, so its
/// round wins the arbitration and the token is regenerated at 2.420 s
/// instead of 2.415 s (`stress_98/flat_ring`, was `0x741a05e3f259c5d9`:
/// 108 507 and 230 become 108 448 and 264). Quick seed 2 regenerates its
/// dropped token 305 ms sooner on ringnet and 315 ms sooner on the flat
/// ring, and with the token's rotation shifted the last message lands
/// before the end at fewer walkers (`quick_2/ringnet`, was `0xa382a3ae0b726352`: 4 535 → 4 531
/// deliveries; `quick_2/flat_ring`, was `0xa73a306c0233ec99`: 4 538 →
/// 4 528; no skips either way).
///
/// Four were re-pinned when a real liveness probe came to be confirmed on
/// the hop tick, a round trip and a hop tick after it went out, instead of
/// on the next heartbeat tick, still with no violation. World 98's BR 1 –
/// AG 5 cut sends AG 5 to BR 0 at 0.933 s instead of 1.003 s, and its ring
/// partition is repaired at 2.195 s instead of 2.300 s
/// (`stress_98/ringnet`, was `0xee00540b52570580`: 111 238 deliveries and
/// 364 skips become 111 236 and 363). On its flat ring the isolated
/// station 1 convicts its unreachable nexts one every 50 ms instead of
/// every 200 ms, so it fences itself as a minority at 2.745 s and merges
/// back at 2.860 s, where it stayed unfenced until the heal
/// (`stress_98/flat_ring`, was `0xf132a98385c7a9d0`: 108 448 and 264
/// become 110 458 and 555). World 104's dead AG 5 is excised at 3.120 s
/// instead of 3.200 s, and its APs graft onto AG 6 at 3.171 s instead of
/// 3.251 s, before AG 6 has collected as much (`stress_104/ringnet`, was
/// `0xd0bbc243af7e324c`: 47 901 and 431 become 48 061 and 272). Its flat
/// ring excises the dead station 5 at 3.145 s instead of 3.250 s, inside
/// the retry chain of the token in flight to it, which is re-aimed and
/// never lost: the second regeneration (3.405 s) is gone
/// (`stress_104/flat_ring`, was `0x1b7ead1f05ed9ef7`: 47 320 and 837
/// become 47 298 and 842). Its tree keeps its report: node 5's two
/// children, whose one candidate parent it is, would only graft back onto
/// it, so their probes to it stay a period apart.
///
/// Five were re-pinned when a member with an unacknowledged token transfer
/// came to count as live and the quiet window shrank from the retry
/// chain's 120 ms to the ring's circle and a hop tick, still with no
/// violation. World 98's BR 0, left alone by the ring partition, adopts
/// its round at the 2.195 s repair instead of 2.275 s
/// (`stress_98/ringnet`, was `0x92af19d83d742aad`: 111 236 deliveries and
/// 363 skips become 111 237 and 365). World 104's `DropToken` is
/// regenerated at 2.455 s instead of 2.555 s on ringnet
/// (`stress_104/ringnet`, was `0x3d8c1c94da96eacb`: 48 061 and 272 become
/// 48 261 and 82) and at 2.570 s instead of 2.605 s on the flat ring
/// (`stress_104/flat_ring`, was `0x578d11bde0102f97`: 47 298 and 842
/// become 47 317 and 818). Quick seed 2 regenerates its dropped token at
/// 1.450 s instead of 1.555 s on ringnet (`quick_2/ringnet`, was
/// `0xfd7daa6d76a8b8ee`: 4 531 → 4 535 deliveries, no skips) and at
/// 1.480 s instead of 1.565 s on the flat ring (`quick_2/flat_ring`, was
/// `0xa762ca5836e38178`: 4 528 deliveries and no skips become 4 532 and
/// 3: with the rotation shifted, walker 5 skips GSNs 372–374 at
/// 3.275 s, which the earlier code delivered to it at 3.241 s).
///
/// Eleven were re-pinned when an MH came to ack only when its front moved,
/// or every second ack tick as its liveness beacon, still with no
/// violation. Each is a world whose radio loses packets, where the loss
/// of each uplink is drawn per packet offered: an uplink that restates
/// fewer fronts loses other NACKs and acks, and other gaps are served,
/// asked again or skipped. Deliveries and skips move `stress_98/ringnet`
/// (was `0xfae235be540d4e8e`) 111 237 / 365 → 111 249 / 346,
/// `stress_98/flat_ring` (`0xf3a1b870c446f9c5`) 110 458 / 555 → 110 474 /
/// 529, `stress_98/tree` (`0x519eb1cd8bd866ca`) 111 248 / 352 → 111 231 /
/// 375, `stress_104/ringnet` (`0x927bf8ee4e0f356e`) 48 261 / 82 → 48 280 /
/// 63, `stress_104/flat_ring` (`0xed16bcd1f925bab8`) 47 317 / 818 →
/// 47 310 / 833, `stress_104/tree` (`0xb68b9db482ae1fa0`) 15 978 / 159 →
/// 15 969 / 168, `quick_0/ringnet` (`0x82a6f0c266da149e`) 5 516 / 8 →
/// 5 512 / 14, `quick_0/flat_ring` (`0x93417addd34767b1`) 5 472 / 11 →
/// 5 474 / 14, `quick_0/tree` (`0x677fd0258484bd26`) 3 678 / 8 → 3 679 /
/// 8, `quick_7/ringnet` (`0xcd094f28c6203b56`) 900 / 3 → 896 / 7 and
/// `quick_7/flat_ring` (`0xbf64311ddc54c730`) 1 038 / 0 → 1 036 / 2. The
/// lossy quick seeds 4 and 5 and every loss-free world keep their reports.
///
/// Three were regenerated on purpose when the unordered comparator came
/// to run on the RingNet engine, each with its deliveries: `quick_0`
/// (was `0x90a8fb3fedfa2a7e`) 3 678 → 3 681, `quick_5`
/// (`0x392f600d80ecf5c6`) 765 → 764 and `quick_7` (`0x9b42c0d214f35eb9`)
/// 1 033 → 1 032. These are the worlds with a lossy radio: the engine's
/// MHs ack and NACK on the engine's schedule, not the old comparator's,
/// and their APs repair on it, so each radio link's per-packet loss draws
/// fall on other packets and other messages end up lost for good. No violation either way; the
/// comparator's skips are not audited (no GSN checks).
///
/// Six tree reports were re-pinned when a static ring of one came to
/// number each own-source message as it arrives instead of at its next
/// hop tick, still with no violation: the tree's root assigns each GSN up
/// to a hop tick sooner. Deliveries and skips move `stress_98/tree` (was
/// `0x3dddb0ed29ede063`) 111 231 / 375 → 111 336 / 343 and
/// `stress_104/tree` (`0xf7f9632404ef29ba`) 15 969 / 168 → 15 971 / 163,
/// where more GSNs are numbered during a router's outage and its children
/// skip others; `quick_0/tree` (`0x51d91892b58330c5`) 3 679 / 8 →
/// 3 683 / 7, with one more message numbered before the end and the lossy
/// radio's draws on other packets; `quick_1/tree` (`0x5702dff907ba3747`)
/// 1 814 → 1 822 deliveries, the last message reaching all eight walkers
/// before the end; `quick_3/tree` (`0x360edfdda7b85ff0`) 2 514 → 2 512,
/// where the two late joiners each start one message later, since their
/// AP's front at the join is one message further on; and `quick_5/tree`
/// (`0x905d0d38654a61f3`) 382 / 2 → 383 / 1.
///
/// Three unordered reports were re-pinned when the comparator came to be
/// audited like the other engine backends, with GSN checks and
/// gap-freedom: each stream is a group of its own, so its skips are per-GSN
/// skips, counted now. Deliveries are unedited and the skips go from 0 to
/// 6 in `quick_0` (was `0xbb96ec29e72e5eee`), 1 in `quick_5`
/// (`0x0db2e961809b8ffd`) and 5 in `quick_7` (`0xc19fbc27b3c8b926`), the
/// worlds with a lossy radio, with no violation.
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
    ("stress_98/ringnet", 0x78014a26f7d97bb4),
    ("stress_98/flat_ring", 0xe57548d28a3f8f76),
    ("stress_98/tree", 0x3aaeb9d5264a52ba),
    ("stress_104/ringnet", 0x5274f612457ce22c),
    ("stress_104/flat_ring", 0x8ba4b989d61f2106),
    ("stress_104/tree", 0xad98ce76129e33fa),
    ("quick_0/ringnet", 0xce57007b2f7a0287),
    ("quick_0/flat_ring", 0x5ea57a84d14e4044),
    ("quick_0/tree", 0x9a7028e3f95fe489),
    ("quick_0/relm", 0x6b1c490d7b23ea45),
    ("quick_0/tunnel", 0xc7c27dd7ca0b0552),
    ("quick_0/unordered", 0xac4d25c14f23f9e8),
    ("quick_1/ringnet", 0x1f59d09be8eb6d67),
    ("quick_1/flat_ring", 0x4de7252d9a73d00e),
    ("quick_1/tree", 0xb075facda0f2d876),
    ("quick_1/relm", 0x6bc7bc3d45d11539),
    ("quick_1/tunnel", 0x6a9305db6adce82d),
    ("quick_1/unordered", 0xbec991dd63a67ce4),
    ("quick_2/ringnet", 0xa382a3ae0b726352),
    ("quick_2/flat_ring", 0xb983a8bc3444843e),
    ("quick_2/tree", 0x493fce5094f9270b),
    ("quick_2/relm", 0x26b61ee5c5da8edb),
    ("quick_2/tunnel", 0xd553534156138df0),
    ("quick_2/unordered", 0x26b61ee5c5da8edb),
    ("quick_3/ringnet", 0xda52a61dfcbeece4),
    ("quick_3/flat_ring", 0xb4986a39ad91bd30),
    ("quick_3/tree", 0x7c41b7a83167d972),
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
    ("quick_5/tree", 0xb245670fbb849399),
    ("quick_5/relm", 0x97e3c3519db78cd3),
    ("quick_5/tunnel", 0x87a720dc18221bd0),
    ("quick_5/unordered", 0x56a5e697c09e33d2),
    ("quick_6/ringnet", 0x47c694f9c2491827),
    ("quick_6/flat_ring", 0xcecea406e089b92e),
    ("quick_6/tree", 0x47c694f9c2491827),
    ("quick_6/relm", 0x47c694f9c2491827),
    ("quick_6/tunnel", 0x7fe245ffefee8cf0),
    ("quick_6/unordered", 0x47c694f9c2491827),
    ("quick_7/ringnet", 0x9f67a99b62c7b286),
    ("quick_7/flat_ring", 0xd86a847080000180),
    ("quick_7/tree", 0xc5f2a937e174a319),
    ("quick_7/relm", 0xbf64311ddc54c730),
    ("quick_7/tunnel", 0xb5dd40acdd637154),
    ("quick_7/unordered", 0xf8e599e64a46de31),
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
