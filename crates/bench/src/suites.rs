//! The benchmark suites, shared by the `cargo bench` targets and the
//! `bench_report` binary that emits `BENCH_ringnet.json`.

use std::hint::black_box;

use ringnet_core::driver::{hierarchy_core, ringnet_spec, MulticastSim, Scenario};
use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::{
    metrics, GlobalSeq, GroupId, HierarchyBuilder, LocalRange, LocalSeq, MessageQueue, MsgData,
    NodeId, OrderingToken, PayloadId, RingNetSim, WorkingQueue, WorkingTable,
};
use simnet::{Actor, Ctx, EventQueue, LinkProfile, NodeAddr, Sim, SimDuration, SimTime};

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
/// ordering token, the working table, and the measurement histogram.
/// These are the per-message hot paths of every simulated entity.
pub fn datastructures(r: &mut Runner) {
    const N: u64 = 1024;

    r.bench("mq", "insert_poll_inorder", Some(N), || {
        let mut q = MessageQueue::new(N as usize + 1);
        for i in 1..=N {
            q.insert(GlobalSeq(i), data(i));
        }
        black_box(q.poll_deliverable().len())
    });

    r.bench("mq", "insert_poll_reversed", Some(N), || {
        let mut q = MessageQueue::new(N as usize + 1);
        for i in (1..=N).rev() {
            q.insert(GlobalSeq(i), data(i));
        }
        black_box(q.poll_deliverable().len())
    });

    r.bench("mq", "steady_state_window", Some(N), || {
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

    r.bench("wq", "insert_order_gc", Some(N), || {
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

    r.bench("token", "assign_rotate_prune", None, || {
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

    r.bench(
        "working_table",
        "ack_min_progress_64_children",
        None,
        || {
            let mut wt = WorkingTable::new();
            for i in 0..64u32 {
                wt.register(NodeId(i), GlobalSeq::ZERO);
            }
            for x in 1..=256u64 {
                wt.ack(NodeId((x % 64) as u32), GlobalSeq(x));
                black_box(wt.min_progress());
            }
            black_box(wt.min_progress())
        },
    );

    r.bench("histogram", "add_and_quantile", Some(4096), || {
        let mut h = simnet::Histogram::new();
        let mut v = 1u64;
        for _ in 0..4096 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.add(v >> 40);
        }
        black_box((h.quantile(0.5), h.quantile(0.99)))
    });

    // The pending-event set under the dominant simulation pattern: a
    // steady-state churn of short-delay timers/packets with a sprinkle of
    // far-future entries and cancellations (the two-level calendar queue's
    // target workload).
    r.bench("eventq", "short_delay_churn", Some(N), || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = 0u64;
        let mut pending = std::collections::VecDeque::new();
        for i in 0..N {
            // ~64 in flight: link-latency (1–10 ms) and timer (5 ms) scale.
            let delay = 1_000_000 + (i % 16) * 550_000;
            pending.push_back(q.schedule(SimTime::from_nanos(now + delay), i));
            if i % 7 == 0 {
                q.schedule(SimTime::from_nanos(now + 500_000_000), i); // far
            }
            if i % 11 == 0 {
                if let Some(h) = pending.pop_front() {
                    q.cancel(h);
                }
            }
            if i >= 64 {
                if let Some((t, _)) = q.pop() {
                    now = t.as_nanos();
                }
            }
        }
        while q.pop().is_some() {}
        black_box(now)
    });
}

/// Minimal two-node ping-pong: measures pure event-loop + link overhead.
struct Ping {
    peer: Option<NodeAddr>,
    budget: u32,
}

impl Actor<u32, ()> for Ping {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
        if let Some(p) = self.peer {
            ctx.send(p, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, ()>, from: NodeAddr, msg: u32) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(from, msg + 1);
        }
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, u32, ()>, _: u64) {}
}

/// Simulator and whole-protocol benchmarks: raw event throughput of the
/// discrete-event core, and end-to-end RingNet simulation cost per
/// delivered message (the number that bounds every experiment's wall time).
pub fn simulation(r: &mut Runner) {
    const HOPS: u32 = 20_000;
    r.bench("simnet", "ping_pong_events", Some(HOPS as u64), || {
        let mut sim: Sim<u32, ()> = Sim::with_options(1, false, |_| 0);
        let a = sim.add_node(Box::new(Ping {
            peer: None,
            budget: HOPS / 2,
        }));
        let b2 = sim.add_node(Box::new(Ping {
            peer: Some(a),
            budget: HOPS / 2,
        }));
        sim.world()
            .topo
            .connect_duplex(a, b2, LinkProfile::wired(SimDuration::from_micros(10)));
        sim.run_to_quiescence(1_000_000);
        black_box(sim.stats().packets_delivered)
    });

    // One simulated second of the Figure-1 topology at 100 msg/s.
    r.bench("ringnet", "figure1_one_sim_second", None, || {
        let spec = HierarchyBuilder::new(GroupId(1))
            .source_pattern(TrafficPattern::Cbr {
                interval: SimDuration::from_millis(10),
            })
            .config(ringnet_core::ProtocolConfig::default().quiet())
            .build();
        let mut net = RingNetSim::build(spec, 7);
        net.run_until(SimTime::from_secs(1));
        black_box(net.stats().events)
    });

    r.bench("ringnet", "figure1_build", None, || {
        let spec = HierarchyBuilder::new(GroupId(1)).build();
        black_box(RingNetSim::build(spec, 7).now())
    });
}

/// The full-sweep deployment: a 8×4 cell grid with 4 walkers per cell —
/// 128 walkers, >10× the Figure-1 deployment — and two 200 msg/s sources,
/// sized so one run's journal lands in the hundreds of thousands of
/// entries.
fn full_sweep_scenario() -> Scenario {
    Scenario::builder()
        .grid(8, 4)
        .walkers_per_attachment(4)
        .sources(2)
        .cbr(SimDuration::from_millis(5))
        .message_limit(600)
        .loss_free_wireless()
        .duration(SimTime::from_secs(4))
        .build()
}

/// Full-sweep-scale benchmarks: `RunReport` construction over a journal in
/// the hundreds of thousands of entries (the single-pass
/// `MetricsAccumulator`), plus the end-to-end cost of a
/// simulated second at 128 walkers, with and without journal retention.
pub fn full_sweep(r: &mut Runner) {
    let sc = full_sweep_scenario();
    let core = hierarchy_core(&ringnet_spec(&sc));
    let report = RingNetSim::run_scenario(&sc, 11);
    let journal = report.journal;
    let entries = journal.len() as u64;
    assert!(
        entries > 100_000,
        "full-sweep journal must be at 100k+ entries, got {entries}"
    );

    r.bench("full_sweep", "report_single_pass", Some(entries), || {
        let mut acc = metrics::MetricsAccumulator::new(core.clone());
        acc.observe_journal(&journal);
        black_box(acc.finish().delivered)
    });

    let mut one_sec = full_sweep_scenario();
    one_sec.duration = SimTime::from_secs(1);
    one_sec.limit = Some(150);

    r.bench(
        "full_sweep",
        "ringnet_128_walkers_one_sim_second",
        None,
        || black_box(RingNetSim::run_scenario(&one_sec, 7).metrics.delivered),
    );

    // Telemetry overhead: the identical 128-walker simulated second with
    // the flight recorder and metrics registry on. The delta against
    // `ringnet_128_walkers_one_sim_second` is the whole cost of the
    // telemetry layer; the disabled path is the row above — every
    // telemetry call starts with an `if !self.on` return, so "off" must
    // stay indistinguishable from the pre-telemetry engine.
    let mut with_telemetry = one_sec.clone();
    with_telemetry.cfg.telemetry = true;
    r.bench("full_sweep", "telemetry_overhead", None, || {
        let rep = RingNetSim::run_scenario(&with_telemetry, 7);
        assert!(rep.telemetry.is_some());
        black_box(rep.metrics.delivered)
    });

    let mut streaming = one_sec.clone();
    streaming.retain_journal = false;
    r.bench(
        "full_sweep",
        "ringnet_128_walkers_one_sim_second_streaming",
        None,
        || {
            let rep = RingNetSim::run_scenario(&streaming, 7);
            assert!(rep.journal.is_empty());
            black_box(rep.metrics.delivered)
        },
    );

    // Parallel-simulation scaling: one simulated second of a 1024-walker
    // world (16×16 cells × 4 walkers, two 100 msg/s sources) at 1/2/4/8
    // event-queue shards. `elements = 1` simulated second turns the JSON
    // `throughput_per_sec` into sim-seconds-per-wall-second — the scaling
    // figure EXPERIMENTS.md quotes. Speedup is bounded by the host's core
    // count; the shard protocol itself is exercised identically either way.
    let mut shard_world = Scenario::builder()
        .grid(16, 16)
        .walkers_per_attachment(4)
        .sources(2)
        .cbr(SimDuration::from_millis(10))
        .message_limit(80)
        .loss_free_wireless()
        .duration(SimTime::from_secs(1))
        .build();
    shard_world.retain_journal = false;
    for shards in [1usize, 2, 4, 8] {
        let mut sc = shard_world.clone();
        sc.shards = shards;
        r.bench(
            "full_sweep",
            &format!("sim_rate_1k_walkers_shards_{shards}"),
            Some(1),
            || black_box(RingNetSim::run_scenario(&sc, 7).metrics.delivered),
        );
    }

    // Multi-group ring sharding: the same fixed aggregate offered load
    // (8 CBR sources × 500 msg/s = 4 000 msg/s) split across R disjoint
    // per-group token rings, with `mq_capacity` shrunk to 128 so a single
    // ring's delivery pipeline saturates and the per-ring buffer budget is
    // what binds. Sources round-robin onto the declared groups (the
    // scenario default) and every walker subscribes to every group, so the
    // potential delivery set is identical at every R. `elements` records
    // the messages actually delivered in the fixed 2-simulated-second
    // window — the aggregate *sim-time* delivered throughput the scaling
    // table in EXPERIMENTS.md quotes. The saturated single ring collapses
    // under NACK-recovery churn while two rings already carry the full
    // load, so R=4 clears the required ≥ 3× over R=1 with a wide margin.
    let multigroup_scenario = |rings: u32| {
        let mut sc = Scenario::builder()
            .attachments(8)
            .walkers_per_attachment(1)
            .sources(8)
            .cbr(SimDuration::from_millis(2))
            .loss_free_wireless()
            .duration(SimTime::from_secs(2))
            .groups((1..=rings).map(GroupId).collect())
            .build();
        sc.cfg.mq_capacity = 128;
        sc.cfg = sc.cfg.quiet();
        sc.retain_journal = false;
        sc
    };
    let mut delivered_at_rings = std::collections::BTreeMap::new();
    let mut sent_at_rings = std::collections::BTreeMap::new();
    let mut control_at_rings = std::collections::BTreeMap::new();
    for rings in [1u32, 2, 4, 8] {
        let sc = multigroup_scenario(rings);
        let probe = RingNetSim::run_scenario(&sc, 7);
        let delivered = probe.metrics.delivered;
        delivered_at_rings.insert(rings, delivered);
        sent_at_rings.insert(rings, probe.stats.packets_sent);
        control_at_rings.insert(rings, probe.metrics.wired_core_control_sent);
        r.bench(
            "full_sweep",
            &format!("multigroup_throughput_rings_{rings}"),
            Some(delivered),
            || {
                let rep = RingNetSim::run_scenario(&sc, 7);
                assert_eq!(rep.metrics.delivered, delivered, "run not deterministic");
                black_box(rep.metrics.delivered)
            },
        );
    }
    assert!(
        delivered_at_rings[&4] >= 3 * delivered_at_rings[&1],
        "4 rings must deliver ≥ 3× a saturated single ring at fixed offered \
         load (got {} vs {})",
        delivered_at_rings[&4],
        delivered_at_rings[&1]
    );

    // Per-ring control cost (EXPERIMENTS.md "What is left of the 8-ring
    // wall"). At fixed offered load, app deliveries plateau once two rings
    // carry the load, while every extra ring keeps its own token
    // circulating and its own acknowledgements flowing. Per-hop control
    // framing puts everything one node says to one neighbour at one
    // instant into one wire packet, so that chatter no longer costs a
    // packet per ring: wire packets per delivery must not grow from 2 to 8
    // rings. This row pins the wire-packet throughput of the 8-ring run,
    // and the assertions pin the plateau and the scaling.
    {
        let sc = multigroup_scenario(8);
        let sent = sent_at_rings[&8];
        r.bench(
            "full_sweep",
            "multigroup_wire_packets_rings_8",
            Some(sent),
            || {
                let rep = RingNetSim::run_scenario(&sc, 7);
                assert_eq!(rep.stats.packets_sent, sent, "run not deterministic");
                black_box(rep.stats.packets_sent)
            },
        );
        assert!(
            delivered_at_rings[&8] < delivered_at_rings[&2] + delivered_at_rings[&2] / 10,
            "delivery plateau: 8 rings were expected to deliver within 10% of 2 rings \
             at fixed offered load (got {} vs {})",
            delivered_at_rings[&8],
            delivered_at_rings[&2]
        );
        let per_delivery =
            |rings: u32| sent_at_rings[&rings] as f64 / delivered_at_rings[&rings] as f64;
        assert!(
            per_delivery(8) <= 1.05 * per_delivery(2),
            "control scaling: wire packets per delivery at 8 rings must stay within 5% \
             of 2 rings at fixed offered load (got {:.3} vs {:.3})",
            per_delivery(8),
            per_delivery(2)
        );

        // The logical side of the same cost: wired-core control messages
        // per delivery. Every ring hop used to acknowledge on a clock, once
        // for the ordered stream and once per pre-order stream (0.75 per
        // delivery here); one cumulative ack per hop, sent when its front
        // has moved and riding the `TokenAck` on the ring, leaves the token
        // and the heartbeats as what eight rings cost.
        let control = control_at_rings[&8];
        r.bench(
            "full_sweep",
            "multigroup_control_per_delivery_rings_8",
            Some(control),
            || {
                let rep = RingNetSim::run_scenario(&sc, 7);
                assert_eq!(rep.metrics.wired_core_control_sent, control);
                black_box(rep.metrics.wired_core_control_sent)
            },
        );
        let control_per_delivery = control as f64 / delivered_at_rings[&8] as f64;
        assert!(
            control_per_delivery <= 0.40,
            "8 rings cost {control_per_delivery:.3} core control messages per delivery"
        );
    }

    // Overlap-heavy variant: same aggregate offered load on 4 rings, but
    // every source targets *two* adjacent groups, so every message routes
    // through the cross-group fence sequencer and is ordered on two rings
    // (potential deliveries double: each walker receives the message once
    // per subscribed ring). The row tracks what fencing everything costs
    // relative to the disjoint R=4 split.
    let overlap_heavy = {
        let rings = 4u32;
        let mut sc = Scenario::builder()
            .attachments(8)
            .walkers_per_attachment(1)
            .sources(8)
            .cbr(SimDuration::from_millis(2))
            .loss_free_wireless()
            .duration(SimTime::from_secs(2))
            .groups((1..=rings).map(GroupId).collect())
            .source_groups(
                (0..8u32)
                    .map(|i| vec![GroupId(i % rings + 1), GroupId((i + 1) % rings + 1)])
                    .collect(),
            )
            .build();
        sc.cfg.mq_capacity = 128;
        sc.cfg = sc.cfg.quiet();
        sc.retain_journal = false;
        sc
    };
    let overlap_delivered = RingNetSim::run_scenario(&overlap_heavy, 7)
        .metrics
        .delivered;
    r.bench(
        "full_sweep",
        "multigroup_throughput_overlap_heavy",
        Some(overlap_delivered),
        || {
            let rep = RingNetSim::run_scenario(&overlap_heavy, 7);
            assert_eq!(rep.metrics.delivered, overlap_delivered);
            black_box(rep.metrics.delivered)
        },
    );
}

/// One hot-path audit row: wall time and allocator activity per delivery.
#[derive(Debug, Clone, Default)]
pub struct HotpathRow {
    /// Scenario name (matches the `full_sweep` bench row of the same name).
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
    /// Median end-to-end delivery latency on the *simulated* clock, ms
    /// (bucketed histogram, ≤ 1.6 % low). With the next two fields this
    /// is the part of a row that does not depend on the host.
    pub latency_p50_ms: f64,
    /// 99.9th-percentile sim-clock delivery latency, ms.
    pub latency_p999_ms: f64,
    /// `DataNack` gap requests sent per delivered message, counted by a
    /// separate telemetry-on run (zero on a loss-free world).
    pub nacks_per_delivery: f64,
    /// Wired-core control messages sent per delivered message — like the
    /// latency columns a deterministic count, so `hotpath -- check` gates it.
    pub control_per_delivery: f64,
    /// Wire packets of every kind and hop, wireless included, per delivered
    /// message (a frame or burst is one packet); gated like the control
    /// count.
    pub packets_per_delivery: f64,
}

/// The fabric's flagship workloads, measured for wall time *and*
/// allocations per delivery (via [`crate::alloc`]; the allocation columns
/// read zero unless the calling binary installed
/// [`crate::alloc::CountingAlloc`] as its global allocator), plus the
/// sim-clock latency and NACK rate of the same runs. Used by the
/// `hotpath` binary (report + CI gate) and `bench_report` (the `hotpath`
/// section of `BENCH_ringnet.json`).
pub fn hotpath_scenarios() -> Vec<HotpathRow> {
    let mut one_sec = full_sweep_scenario();
    one_sec.duration = SimTime::from_secs(1);
    one_sec.limit = Some(150);

    let rings = 4u32;
    let mut multigroup = Scenario::builder()
        .attachments(8)
        .walkers_per_attachment(1)
        .sources(8)
        .cbr(SimDuration::from_millis(2))
        .loss_free_wireless()
        .duration(SimTime::from_secs(2))
        .groups((1..=rings).map(GroupId).collect())
        .build();
    multigroup.cfg.mq_capacity = 128;
    multigroup.cfg = multigroup.cfg.quiet();
    multigroup.retain_journal = false;

    let cases = [
        ("ringnet_128_walkers_one_sim_second", one_sec),
        ("multigroup_throughput_rings_4", multigroup),
    ];
    let mut rows = Vec::new();
    for (name, sc) in cases {
        let mut best_ms = f64::INFINITY;
        let mut best_allocs = u64::MAX;
        let mut best_bytes = u64::MAX;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let (_, d) = crate::alloc::measure(|| RingNetSim::run_scenario(&sc, 7));
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            best_allocs = best_allocs.min(d.calls);
            best_bytes = best_bytes.min(d.bytes);
        }
        // The sim-clock columns: the same run, observed (telemetry and
        // per-delivery records change nothing the protocol does, so these
        // are the timed runs' own numbers).
        let mut observed = sc.clone();
        observed.cfg.telemetry = true;
        observed.cfg.record_mh_deliveries = true;
        let rep = RingNetSim::run_scenario(&observed, 7);
        let delivered = rep.metrics.delivered;
        assert!(delivered > 0, "{name} delivered nothing");
        let latency_ms = |q: f64| rep.metrics.e2e_latency.quantile(q) as f64 / 1e6;
        let nacks = rep
            .telemetry
            .as_ref()
            .expect("telemetry was switched on")
            .total_counter(ringnet_core::telemetry::metric::NACKS_SENT);
        rows.push(HotpathRow {
            name: name.to_string(),
            wall_ms: best_ms,
            delivered,
            allocs_per_delivery: best_allocs as f64 / delivered as f64,
            alloc_bytes_per_delivery: best_bytes as f64 / delivered as f64,
            latency_p50_ms: latency_ms(0.5),
            latency_p999_ms: latency_ms(0.999),
            nacks_per_delivery: nacks as f64 / delivered as f64,
            control_per_delivery: rep.metrics.wired_core_control_sent as f64 / delivered as f64,
            packets_per_delivery: rep.stats.packets_sent as f64 / delivered as f64,
        });
    }
    rows
}

/// One bench per paper table/figure (DESIGN.md §4): each runs the
/// corresponding experiment in quick mode, so the suite both exercises
/// every reproduction path end-to-end and tracks its wall-time cost.
pub fn experiments(r: &mut Runner) {
    use harness::experiments as exp;
    use harness::Table;
    type Case = (&'static str, fn(bool) -> Table);
    let cases: Vec<Case> = vec![
        ("f1_hierarchy", exp::f1::run),
        ("t1_throughput", exp::t1::run),
        ("t2_latency_bound", exp::t2::run),
        ("t3_buffer_bound", exp::t3::run),
        ("e1_vs_flat_ring", exp::e1::run),
        ("e2_handoff_disruption", exp::e2::run),
        ("e3_token_recovery", exp::e3::run),
        ("e4_ordering_penalty", exp::e4::run),
        ("e5_reliability_vs_loss", exp::e5::run),
        ("e6_mobility_cost", exp::e6::run),
        ("e7_token_rotation", exp::e7::run),
        ("e8_load_concentration", exp::e8::run),
        ("a1_ablations", exp::a1::run),
    ];
    for (name, run) in cases {
        r.bench("experiments_quick", name, None, || {
            let table = run(true);
            assert!(!table.rows.is_empty());
            black_box(table.rows.len())
        });
    }
}
