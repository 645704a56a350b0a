//! The auditor against a reference model: the `BTreeMap`-keyed auditor
//! its dense tables replaced, kept here verbatim, must produce the same
//! [`AuditReport`] on seeded random journals under every [`AuditConfig`].
//!
//! The journals are drawn to reach the edges of the dense layout: GSN 0
//! and `u64::MAX`, GSN jumps just short of, at and far past the dense
//! slack, `Guid(u32::MAX)` and other walker ids far apart, fence-virtual
//! sources (`0xFFFF_0000 +`), a message ordered twice in one group, rings
//! that order shared messages in different relative orders, and forged
//! deliveries, skips and assignments at a tunable rate.

use chaos::{AuditConfig, AuditReport, Auditor, LivenessCheck};
use ringnet_core::{GlobalSeq, GroupId, Guid, LocalSeq, NodeId, ProtoEvent};
use simnet::{SimDuration, SimRng, SimTime};

mod reference_auditor;

type Journal = Vec<(SimTime, ProtoEvent)>;

const GROUPS: [GroupId; 4] = [GroupId(1), GroupId(2), GroupId(7), GroupId(u32::MAX)];
const WALKERS: [Guid; 7] = [
    Guid(0),
    Guid(1),
    Guid(2),
    Guid(4_100),
    Guid(9_000),
    Guid(1 << 20),
    Guid(u32::MAX),
];
const SOURCES: [NodeId; 6] = [
    NodeId(0),
    NodeId(3),
    NodeId(4_200),
    NodeId(0xFFFF_0001),
    NodeId(0xFFFF_0002),
    NodeId(u32::MAX),
];
const NODES: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(0xFFFF_0001)];
/// Where a group's GSNs start: the usual 1, the dense end's own edge,
/// past the slack, and close enough to `u64::MAX` to reach it.
const GSN_BASES: [u64; 6] = [1, 1, 0, 4_095, 50_000, u64::MAX - 60];
/// Forged GSN jumps: within, at and past the dense slack.
const GSN_JUMPS: [u64; 5] = [2, 4_095, 4_096, 4_097, 1 << 40];

/// Pick one element of a non-empty slice.
fn pick<T: Copy>(rng: &mut SimRng, of: &[T]) -> T {
    of[rng.index(of.len())]
}

/// A few distinct elements of `of`, in random order.
fn some_of<T: Copy>(rng: &mut SimRng, of: &[T], most: usize) -> Vec<T> {
    let mut pool = of.to_vec();
    let n = 1 + rng.index(most.min(pool.len()));
    (0..n)
        .map(|_| pool.swap_remove(rng.index(pool.len())))
        .collect()
}

/// One generated world: a few rings ordering a few sources' messages, a
/// few walkers delivering and skipping along each ring's log, and forged
/// records at rate `fault`.
struct World {
    rng: SimRng,
    fault: f64,
    groups: Vec<GroupId>,
    walkers: Vec<Guid>,
    sources: Vec<NodeId>,
    /// Per group: the next GSN it assigns, the messages waiting for it and
    /// the `(gsn, source, seq)` log it has assigned.
    next_gsn: Vec<u64>,
    pending: Vec<Vec<(NodeId, LocalSeq)>>,
    log: Vec<Vec<(GlobalSeq, NodeId, LocalSeq)>>,
    /// Per source its next sequence number.
    next_seq: Vec<u64>,
    /// Per (walker, group) its position in the group's log.
    cursor: Vec<Vec<Option<usize>>>,
    t: u64,
    journal: Journal,
}

impl World {
    fn new(case: u64) -> World {
        let mut rng = SimRng::derive(0xA0D1_7E57, case);
        let fault = pick(&mut rng, &[0.0, 0.01, 0.05, 0.2, 0.6]);
        let groups = some_of(&mut rng, &GROUPS, GROUPS.len());
        let walkers = some_of(&mut rng, &WALKERS, 4);
        let sources = some_of(&mut rng, &SOURCES, 4);
        let next_gsn = groups.iter().map(|_| pick(&mut rng, &GSN_BASES)).collect();
        World {
            fault,
            pending: vec![Vec::new(); groups.len()],
            log: vec![Vec::new(); groups.len()],
            next_seq: vec![1; sources.len()],
            cursor: vec![vec![None; groups.len()]; walkers.len()],
            next_gsn,
            groups,
            walkers,
            sources,
            rng,
            t: 0,
            journal: Vec::new(),
        }
    }

    fn forge(&mut self) -> bool {
        self.rng.chance(self.fault)
    }

    fn push(&mut self, e: ProtoEvent) {
        self.journal.push((SimTime::from_millis(self.t), e));
    }

    /// A source sends: the message waits to be ordered in one or more
    /// groups. A forged send re-uses an old sequence number.
    fn send(&mut self) {
        let s = self.rng.index(self.sources.len());
        let source = self.sources[s];
        let seq = if self.forge() && self.next_seq[s] > 1 {
            self.rng.range_u64(1, self.next_seq[s])
        } else {
            self.next_seq[s] += 1;
            self.next_seq[s] - 1
        };
        self.push(ProtoEvent::SourceSend {
            source,
            local_seq: LocalSeq(seq),
        });
        let groups = self.groups.len();
        for g in some_of(&mut self.rng, &(0..groups).collect::<Vec<_>>(), 3) {
            self.pending[g].push((source, LocalSeq(seq)));
        }
    }

    /// One ring orders its oldest waiting message (a forged ring takes any
    /// waiting message, so shared messages can swap across rings).
    fn order(&mut self) {
        let g = self.rng.index(self.groups.len());
        if self.pending[g].is_empty() {
            return;
        }
        let i = if self.forge() {
            self.rng.index(self.pending[g].len())
        } else {
            0
        };
        let (source, local_seq) = self.pending[g].remove(i);
        let group = self.groups[g];
        let times = if self.forge() { 2 } else { 1 };
        for _ in 0..times {
            let gsn = if self.forge() {
                match self.rng.index(4) {
                    0 => 0,
                    1 => u64::MAX,
                    // Re-assign a GSN this ring already gave out.
                    2 => self.log[g].last().map_or(0, |e| e.0 .0),
                    _ => self.next_gsn[g].saturating_add(pick(&mut self.rng, &GSN_JUMPS)),
                }
            } else {
                self.next_gsn[g]
            };
            self.next_gsn[g] = gsn.saturating_add(1);
            self.log[g].push((GlobalSeq(gsn), source, local_seq));
            let node = pick(&mut self.rng, &NODES);
            self.push(ProtoEvent::Ordered {
                group,
                node,
                source,
                local_seq,
                gsn: GlobalSeq(gsn),
            });
        }
    }

    /// A walker takes its next step along one group's log: deliver or
    /// skip it, or (forged) deliver something else.
    fn walk(&mut self) {
        let w = self.rng.index(self.walkers.len());
        let g = self.rng.index(self.groups.len());
        let (mh, group) = (self.walkers[w], self.groups[g]);
        let len = self.log[g].len();
        // A walker joins anywhere near the log's front.
        let pos = *self.cursor[w][g].get_or_insert(len.saturating_sub(self.rng.index(3)));
        if self.forge() {
            let gsn = GlobalSeq(match self.rng.index(3) {
                0 => 0,
                1 => u64::MAX,
                _ => self.rng.range_u64(0, 8_300),
            });
            if self.rng.chance(0.5) || len == 0 {
                self.push(ProtoEvent::MhSkip { group, mh, gsn });
            } else {
                let (_, source, local_seq) = self.log[g][self.rng.index(len)];
                let local_seq = LocalSeq(local_seq.0 + self.rng.range_u64(0, 2));
                self.push(ProtoEvent::MhDeliver {
                    group,
                    mh,
                    gsn,
                    source,
                    local_seq,
                });
            }
            return;
        }
        if pos >= len {
            return;
        }
        self.cursor[w][g] = Some(pos + 1);
        let (gsn, source, local_seq) = self.log[g][pos];
        if self.rng.chance(0.15) {
            self.push(ProtoEvent::MhSkip { group, mh, gsn });
        } else {
            self.push(ProtoEvent::MhDeliver {
                group,
                mh,
                gsn,
                source,
                local_seq,
            });
        }
    }

    /// A journal of about `steps` records.
    fn journal(mut self, steps: usize) -> Journal {
        for _ in 0..steps {
            self.t += self.rng.range_u64(0, 4);
            match self.rng.index(10) {
                0 | 1 => self.send(),
                2..=4 => self.order(),
                _ => self.walk(),
            }
        }
        self.journal
    }
}

/// Every combination of the four checks, with liveness and the
/// resumption point drawn for this journal.
fn configs(rng: &mut SimRng, end: u64) -> Vec<AuditConfig> {
    let mut out = Vec::new();
    for gsn in [false, true] {
        for gaps in [false, true] {
            for live in [false, true] {
                for resumed in [false, true] {
                    out.push(AuditConfig {
                        check_gsn_order: gsn,
                        check_gap_freedom: gaps,
                        liveness: live.then(|| LivenessCheck {
                            window: SimDuration::from_millis(rng.range_u64(0, end / 2 + 2)),
                            // Some seen walkers and one never seen.
                            walkers: [0, 2, 9_000, 77, u32::MAX]
                                .into_iter()
                                .filter(|_| rng.chance(0.7))
                                .collect(),
                        }),
                        ordering_resumed_after: resumed
                            .then(|| SimTime::from_millis(rng.range_u64(0, end + 2))),
                    });
                }
            }
        }
    }
    out
}

fn audited(cfg: &AuditConfig, journal: &Journal, end: SimTime) -> AuditReport {
    let mut a = Auditor::new(cfg.clone());
    a.observe_journal(journal);
    a.finish(end)
}

fn audited_by_reference(cfg: &AuditConfig, journal: &Journal, end: SimTime) -> AuditReport {
    let mut a = reference_auditor::Auditor::new(cfg.clone());
    a.observe_journal(journal);
    a.finish(end)
}

/// Audit `cases` random journals under every configuration with both
/// auditors; returns how many reports had a violation (so a caller can
/// see the journals reach the violation paths, not only clean ones).
fn agree_on(cases: u64) -> usize {
    let mut violating = 0;
    for case in 0..cases {
        let mut world = World::new(case);
        let steps = 40 + world.rng.index(260);
        let mut rng = SimRng::derive(0x000C_0F16, case);
        let journal = world.journal(steps);
        let last = journal.last().map_or(0, |(t, _)| t.as_millis());
        let end = SimTime::from_millis(last + rng.range_u64(0, 50));
        for cfg in configs(&mut rng, last) {
            let got = format!("{:?}", audited(&cfg, &journal, end));
            let want = format!("{:?}", audited_by_reference(&cfg, &journal, end));
            assert_eq!(got, want, "case {case}, {cfg:?}");
            violating += usize::from(got.contains("first_violation: Some"));
        }
    }
    violating
}

#[test]
fn dense_auditor_matches_the_reference_model() {
    let violating = agree_on(120);
    let reports = 120 * 16;
    assert!(
        violating > reports / 10 && violating < reports * 9 / 10,
        "{violating} of {reports} reports violate: the journals should mix clean and broken"
    );
}

/// The same check over 50× the journals; run in release mode.
#[test]
#[ignore = "long: 6 000 journals, run with --release -- --ignored"]
fn dense_auditor_matches_the_reference_model_at_length() {
    agree_on(120 * 50);
}
