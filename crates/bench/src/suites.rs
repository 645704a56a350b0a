//! What the bench crate measures: the data-structure loops the `benchmark`
//! package (`ringbench/`) reads for its `core.{token,wq,mq,wt}` metrics,
//! and the two flagship workloads of the `hotpath` audit.

use std::hint::black_box;

use ringnet_core::driver::{MulticastSim, Scenario};
use ringnet_core::{
    GlobalSeq, GroupId, LocalRange, LocalSeq, MessageQueue, MsgData, NodeId, OrderingToken,
    PayloadId, RingNetSim, WorkingQueue, WorkingTable,
};
use simnet::{SimDuration, SimTime};

use crate::micro::Runner;

fn data(i: u64) -> MsgData {
    MsgData {
        source: NodeId(0),
        local_seq: LocalSeq(i),
        ordering_node: NodeId(0),
        payload: PayloadId(i),
    }
}

/// Microbenchmarks of the paper's data structures (§4.1): `MQ`, `WQ`, the
/// ordering token and the working table — the per-message hot paths of
/// every simulated entity.
pub fn datastructures(r: &mut Runner) {
    const N: u64 = 1024;

    r.bench("mq", "steady_state_window", || {
        // The realistic pattern: insert, deliver, ack, GC — a sliding window.
        let mut q = MessageQueue::new(64);
        for i in 1..=N {
            q.insert(GlobalSeq(i), data(i));
            q.poll_deliverable();
            if i % 8 == 0 {
                q.gc_to(GlobalSeq(i - 4));
            }
        }
        black_box(q.occupancy())
    });

    r.bench("wq", "insert_order_gc", || {
        let mut wq = WorkingQueue::new(N as usize + 1);
        for i in 1..=N {
            wq.insert(NodeId(0), LocalSeq(i), PayloadId(i));
        }
        let out = wq.take_orderable(
            NodeId(0),
            NodeId(0),
            LocalRange::new(LocalSeq(1), LocalSeq(N)),
            GlobalSeq(1),
        );
        // The next ring node's front has passed everything just ordered.
        wq.gc(GlobalSeq(N));
        black_box(out.len())
    });

    r.bench("token", "assign_rotate_prune", || {
        let mut t = OrderingToken::new(GroupId(1), NodeId(0));
        for round in 0..64u64 {
            let base = round * 16 + 1;
            t.assign(
                NodeId((round % 4) as u32),
                NodeId((round % 4) as u32),
                LocalRange::new(LocalSeq(base), LocalSeq(base + 15)),
            );
            t.complete_rotation();
        }
        black_box(t.next_gsn)
    });

    r.bench("working_table", "ack_min_progress_64_children", || {
        let mut wt = WorkingTable::new();
        for i in 0..64u32 {
            wt.register(NodeId(i), GlobalSeq::ZERO);
        }
        for x in 1..=256u64 {
            wt.ack(NodeId((x % 64) as u32), GlobalSeq(x));
            black_box(wt.min_progress());
        }
        black_box(wt.min_progress())
    });
}

/// One hot-path audit row: wall time, allocator activity and wire work
/// per delivery.
#[derive(Debug, Clone, Default)]
pub struct HotpathRow {
    /// Scenario name; `hotpath -- check` pins its ceilings by this name.
    pub name: String,
    /// Wall-clock milliseconds for one run (best of three).
    pub wall_ms: f64,
    /// Messages delivered by the run.
    pub delivered: u64,
    /// Allocator calls per delivered message (minimum over the runs —
    /// warm-up noise like lazily grown buffers only inflates early runs).
    pub allocs_per_delivery: f64,
    /// Allocator bytes per delivered message (same minimum).
    pub alloc_bytes_per_delivery: f64,
    /// Wired-core control messages sent per delivered message (gated).
    pub control_per_delivery: f64,
    /// Wire packets of every kind and hop, wireless included, per delivered
    /// message; a frame or burst is one packet (gated).
    pub packets_per_delivery: f64,
    /// Simulator events — packets, timers and controls alike — per
    /// delivered message (gated).
    pub events_per_delivery: f64,
}

/// The fabric's flagship workloads, each run three times for wall time,
/// allocations (via [`crate::alloc`]; those columns read zero unless the
/// calling binary installed [`crate::alloc::CountingAlloc`] as its global
/// allocator) and the control and packet counts of the same runs.
pub fn hotpath_scenarios() -> Vec<HotpathRow> {
    // One simulated second of an 8×4 cell grid with 4 walkers per cell —
    // 128 walkers — and two 200 msg/s sources.
    let walkers_128 = Scenario::builder()
        .grid(8, 4)
        .walkers_per_attachment(4)
        .sources(2)
        .cbr(SimDuration::from_millis(5))
        .message_limit(150)
        .loss_free_wireless()
        .duration(SimTime::from_secs(1))
        .build();

    // 8 CBR sources × 500 msg/s split across 4 disjoint rings, with
    // `mq_capacity` shrunk to 128 so the per-ring buffer budget binds. The
    // sources stop 500 ms before the end, so every message is delivered
    // by then and the per-delivery ratios divide by a count that nothing
    // in flight at the cut moves.
    let rings = 4u32;
    let mut multigroup = Scenario::builder()
        .attachments(8)
        .walkers_per_attachment(1)
        .sources(8)
        .cbr(SimDuration::from_millis(2))
        .window(SimTime::ZERO, Some(SimTime::from_millis(1_500)))
        .loss_free_wireless()
        .duration(SimTime::from_secs(2))
        .groups((1..=rings).map(GroupId).collect())
        .build();
    multigroup.cfg.mq_capacity = 128;
    multigroup.cfg = multigroup.cfg.quiet();
    multigroup.retain_journal = false;

    let cases = [
        ("ringnet_128_walkers_one_sim_second", walkers_128),
        ("multigroup_throughput_rings_4", multigroup),
    ];
    let mut rows = Vec::new();
    for (name, sc) in cases {
        let mut best_ms = f64::INFINITY;
        let mut best_allocs = u64::MAX;
        let mut best_bytes = u64::MAX;
        let mut last = None;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let (rep, d) = crate::alloc::measure(|| RingNetSim::run_scenario(&sc, 7));
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            best_allocs = best_allocs.min(d.calls);
            best_bytes = best_bytes.min(d.bytes);
            last = Some(rep);
        }
        // The runs are deterministic: the last one's counts are every run's.
        let rep = last.expect("three runs were made");
        let delivered = rep.metrics.delivered;
        assert!(delivered > 0, "{name} delivered nothing");
        let per_delivery = |n: u64| n as f64 / delivered as f64;
        rows.push(HotpathRow {
            name: name.to_string(),
            wall_ms: best_ms,
            delivered,
            allocs_per_delivery: per_delivery(best_allocs),
            alloc_bytes_per_delivery: per_delivery(best_bytes),
            control_per_delivery: per_delivery(rep.metrics.wired_core_control_sent),
            packets_per_delivery: per_delivery(rep.stats.packets_sent),
            events_per_delivery: per_delivery(rep.stats.events),
        });
    }
    rows
}
