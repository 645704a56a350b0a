//! Randomized property tests on the core data structures' invariants.
//!
//! Dependency-free property testing: each test draws many random cases from
//! a seeded [`SimRng`] stream, so failures are reproducible by seed and the
//! suite needs no external framework.

use ringnet_repro::core::{
    DeliverItem, GlobalSeq, LocalRange, LocalSeq, MessageQueue, MsgData, NodeId, OrderingToken,
    PayloadId, WorkingQueue,
};
use ringnet_repro::simnet::{Histogram, SimRng};

fn data(i: u64) -> MsgData {
    MsgData {
        source: NodeId(0),
        local_seq: LocalSeq(i),
        ordering_node: NodeId(0),
        payload: PayloadId(i),
    }
}

/// Whatever the arrival order and duplication pattern, the MessageQueue
/// delivers each sequence number at most once, in strictly increasing
/// order, with no number invented.
#[test]
fn mq_delivers_unique_increasing() {
    let mut rng = SimRng::from_seed(0xA1);
    for case in 0..64 {
        let len = rng.range_u64(1, 300) as usize;
        let arrivals: Vec<u64> = (0..len).map(|_| rng.range_u64(1, 200)).collect();
        let mut q = MessageQueue::new(512);
        let mut delivered = Vec::new();
        for &g in &arrivals {
            q.insert(GlobalSeq(g), data(g));
            for item in q.poll_deliverable() {
                match item {
                    DeliverItem::Deliver(gsn, d) => {
                        assert_eq!(d.payload, PayloadId(gsn.0), "case {case}");
                        delivered.push(gsn.0);
                    }
                    DeliverItem::Skip(_) => panic!("case {case}: no loss induced"),
                }
            }
        }
        // Strictly increasing ⇒ unique.
        assert!(delivered.windows(2).all(|w| w[0] < w[1]), "case {case}");
        // Everything delivered was offered.
        for g in &delivered {
            assert!(arrivals.contains(g), "case {case}: invented {g}");
        }
        // The contiguous prefix of offered numbers must have been delivered.
        let mut offered: Vec<u64> = arrivals.clone();
        offered.sort_unstable();
        offered.dedup();
        let mut expect = 1;
        for &g in &offered {
            if g == expect {
                expect += 1
            } else {
                break;
            }
        }
        assert_eq!(
            delivered.iter().filter(|&&g| g < expect).count() as u64,
            expect - 1,
            "case {case}"
        );
    }
}

/// Random interleavings of inserts, NACK rounds and GC never violate
/// front/rear/valid-front ordering or capacity.
#[test]
fn mq_pointer_invariants() {
    let mut rng = SimRng::from_seed(0xA2);
    for case in 0..64 {
        let capacity = 64;
        let mut q = MessageQueue::new(capacity);
        let ops = rng.range_u64(1, 200);
        for _ in 0..ops {
            let op = rng.range_u64(0, 4);
            let v = rng.range_u64(1, 100);
            match op {
                0 => {
                    let _ = q.insert(GlobalSeq(v), data(v));
                }
                1 => {
                    q.poll_deliverable();
                }
                2 => {
                    q.collect_nacks(2);
                }
                _ => {
                    q.gc_to(GlobalSeq(v));
                }
            }
            assert!(q.occupancy() <= capacity, "case {case}");
            assert!(
                q.valid_front() <= q.front().next().max(q.valid_front()),
                "case {case}"
            );
            assert!(q.front() <= q.rear().max(q.front()), "case {case}");
            assert!(q.peak_occupancy() >= q.occupancy(), "case {case}");
        }
    }
}

/// Order-Assignment via the token maps local ranges onto disjoint,
/// contiguous global ranges regardless of how assignments interleave.
#[test]
fn token_ranges_are_disjoint_and_contiguous() {
    let mut rng = SimRng::from_seed(0xA3);
    for case in 0..64 {
        let count = rng.range_u64(1, 40) as usize;
        let sizes: Vec<u64> = (0..count).map(|_| rng.range_u64(1, 50)).collect();
        let mut t = OrderingToken::new(ringnet_repro::core::GroupId(1), NodeId(0));
        let mut next_ls = [1u64; 8];
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let node = NodeId((i % 8) as u32);
            let lo = next_ls[i % 8];
            let hi = lo + len - 1;
            next_ls[i % 8] = hi + 1;
            let min_gs = t.assign(node, node, LocalRange::new(LocalSeq(lo), LocalSeq(hi)));
            covered.push((min_gs.0, min_gs.0 + len - 1));
        }
        // Contiguous overall: ranges tile [1, total] exactly.
        covered.sort_unstable();
        let mut expect = 1;
        for (lo, hi) in covered {
            assert_eq!(lo, expect, "case {case}: gap or overlap in assignment");
            expect = hi + 1;
        }
        assert_eq!(expect, t.next_gsn.0, "case {case}");
    }
}

/// WQ ordering: take_orderable assigns gsn = min_gs + (ls - range.min)
/// for exactly the present, uncopied entries — never twice.
#[test]
fn wq_assigns_each_entry_once() {
    let mut rng = SimRng::from_seed(0xA4);
    for case in 0..64 {
        let count = rng.range_u64(1, 40);
        let present: std::collections::BTreeSet<u64> =
            (0..count).map(|_| rng.range_u64(1, 64)).collect();
        let mut wq = WorkingQueue::new(256);
        for &ls in &present {
            wq.insert(NodeId(1), LocalSeq(ls), PayloadId(ls));
        }
        let range = LocalRange::new(LocalSeq(1), LocalSeq(64));
        let first = wq.take_orderable(NodeId(1), NodeId(1), range, GlobalSeq(100));
        assert_eq!(first.len(), present.len(), "case {case}");
        for (gsn, d) in &first {
            assert_eq!(gsn.0, 100 + d.local_seq.0 - 1, "case {case}");
        }
        let second = wq.take_orderable(NodeId(1), NodeId(1), range, GlobalSeq(100));
        assert!(second.is_empty(), "case {case}: double assignment");
    }
}

/// Histogram quantiles are within bucket resolution of a naive exact
/// computation.
#[test]
fn histogram_matches_naive_quantiles() {
    let mut rng = SimRng::from_seed(0xA5);
    for case in 0..64 {
        let len = rng.range_u64(10, 500) as usize;
        let mut xs: Vec<u64> = (0..len).map(|_| rng.range_u64(1, 1_000_000)).collect();
        let mut h = Histogram::new();
        for &x in &xs {
            h.add(x);
        }
        xs.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let idx = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
            let exact = xs[idx] as f64;
            let approx = h.quantile(q) as f64;
            // Log-bucket resolution ~3% plus one-sample slack at the edges.
            assert!(
                approx <= exact * 1.001 + 1.0,
                "case {case} q{q}: approx {approx} exact {exact}"
            );
            let lower_neighbour = if idx == 0 { 0.0 } else { xs[idx - 1] as f64 };
            assert!(
                approx >= lower_neighbour * 0.96 - 1.0,
                "case {case} q{q}: approx {approx} below neighbourhood {lower_neighbour}"
            );
        }
        assert_eq!(h.quantile(1.0), *xs.last().unwrap(), "case {case}");
    }
}

/// The queue's really-lost path: with budget 0, every gap becomes Lost
/// and delivery skips it — the stream never deadlocks.
#[test]
fn mq_never_deadlocks_under_loss() {
    let mut rng = SimRng::from_seed(0xA7);
    for case in 0..64 {
        let count = rng.range_u64(1, 60);
        let arrivals: std::collections::BTreeSet<u64> =
            (0..count).map(|_| rng.range_u64(1, 100)).collect();
        let mut q = MessageQueue::new(256);
        for &g in &arrivals {
            q.insert(GlobalSeq(g), data(g));
        }
        // One NACK round with zero budget declares every hole lost.
        q.collect_nacks(0);
        let items = q.poll_deliverable();
        let max = *arrivals.iter().max().unwrap();
        // Everything up to the max arrival is now either delivered or
        // skipped; the front reached the rear.
        assert_eq!(items.len() as u64, max, "case {case}");
        assert_eq!(q.front(), GlobalSeq(max), "case {case}");
    }
}
