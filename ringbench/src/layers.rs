//! Direct calls into single layers: the floor each layer sets under the
//! whole-world numbers. None of them depends on the workload's traffic;
//! only the bare simulator is sized by the workload's node count.

use std::hint::black_box;
use std::time::Instant;

use chaos::Backend;
use ringnet_bench::micro::Runner;
use ringnet_core::driver::{MulticastSim, Scenario};
use ringnet_core::{GroupId, RingNetSim};
use simnet::link::LinkState;
use simnet::{
    Actor, Ctx, EventQueue, LinkProfile, LossModel, NodeAddr, Sim, SimDuration, SimRng, SimTime,
};

use crate::simstats::{exact_quantile, world_stats};
use crate::workloads;

/// Fastest of `samples` runs of `f`, in nanoseconds.
fn best_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Schedule/cancel/pop churn with `depth` events in flight: link-latency
/// and timer scale delays, a sprinkle of far-future entries, one cancel
/// per eleven schedules. Returns nanoseconds per queue operation.
fn event_queue_ns_per_op(depth: u64, samples: usize) -> f64 {
    const ROUNDS: u64 = 200_000;
    let mut ops = 0u64;
    let ns = best_ns(samples, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = 0u64;
        ops = 0;
        for i in 0..depth {
            q.schedule(SimTime::from_nanos(1_000_000 + (i % 16) * 550_000), i);
        }
        for i in 0..ROUNDS {
            let delay = if i % 7 == 0 {
                500_000_000
            } else {
                1_000_000 + (i % 16) * 550_000
            };
            let h = q.schedule(SimTime::from_nanos(now + delay), i);
            ops += 1;
            if i % 11 == 0 {
                q.cancel(h);
                q.schedule(SimTime::from_nanos(now + delay), i);
                ops += 2;
            }
            if let Some((t, _)) = q.pop() {
                now = t.as_nanos();
                ops += 1;
            }
        }
        black_box(now);
    });
    ns / ops as f64
}

/// A hub that multicasts to every leaf on a 1 ms timer; leaves answer.
struct Hub {
    leaves: Vec<NodeAddr>,
    ticks: u32,
}

struct Leaf;

impl Actor<u32, ()> for Hub {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, u32, ()>, _: NodeAddr, _: u32) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, ()>, _: u64) {
        ctx.multicast(&self.leaves, self.ticks);
        if self.ticks > 0 {
            self.ticks -= 1;
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

impl Actor<u32, ()> for Leaf {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, ()>, from: NodeAddr, msg: u32) {
        ctx.send(from, msg);
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, u32, ()>, _: u64) {}
}

/// The simulator with nothing to simulate: `nodes` null actors doing
/// multicast fan-out and ping-pong. Returns nanoseconds per event.
fn bare_sim_ns_per_event(nodes: usize, samples: usize) -> f64 {
    let ticks = (400_000 / nodes.max(1)).max(10) as u32;
    let mut events = 0u64;
    let ns = best_ns(samples, || {
        let mut sim: Sim<u32, ()> = Sim::with_options(1, false, |_| 64);
        let leaves: Vec<NodeAddr> = (0..nodes).map(|_| sim.add_node(Box::new(Leaf))).collect();
        let hub = sim.add_node(Box::new(Hub {
            leaves: leaves.clone(),
            ticks,
        }));
        for &leaf in &leaves {
            sim.world().topo.connect_duplex(
                hub,
                leaf,
                LinkProfile::wired(SimDuration::from_micros(200)),
            );
        }
        sim.run_to_quiescence(u64::MAX);
        events = sim.stats().events;
    });
    ns / events as f64
}

/// `LinkState::transmit`, half on a wired link, half on Gilbert–Elliott
/// wireless. Returns nanoseconds per call.
fn link_ns_per_transmit(samples: usize) -> f64 {
    const CALLS: u64 = 400_000;
    let wire = LinkProfile::wired(SimDuration::from_millis(2));
    let ns = best_ns(samples, || {
        let mut rng = SimRng::from_seed(1);
        let mut wired = LinkState::new(wire.clone());
        let mut lossy = LinkState::new(wire.clone().with_loss(LossModel::lossy_wireless()));
        for i in 0..CALLS / 2 {
            let now = SimTime::from_micros(i * 10);
            black_box(wired.transmit(now, 512, &mut rng));
            black_box(lossy.transmit(now, 512, &mut rng));
        }
    });
    ns / CALLS as f64
}

/// The four-ring world of the repository's `multigroup_throughput_*`
/// rows, with recording on so latency exists. `overlap` makes every source
/// address two adjacent groups, so every message crosses the fence.
fn four_ring_world(overlap: bool) -> Scenario {
    let rings = 4u32;
    let mut b = Scenario::builder()
        .attachments(8)
        .walkers_per_attachment(1)
        .sources(8)
        .cbr(SimDuration::from_millis(2))
        .loss_free_wireless()
        .duration(SimTime::from_secs(2))
        .groups((1..=rings).map(GroupId).collect());
    if overlap {
        b = b.source_groups(
            (0..8u32)
                .map(|i| vec![GroupId(i % rings + 1), GroupId((i + 1) % rings + 1)])
                .collect(),
        );
    }
    let mut sc = b.build();
    sc.cfg.mq_capacity = 128;
    sc
}

/// Host seconds per delivery and exact median latency of one world.
fn host_per_delivery(sc: &Scenario, seed: u64, samples: usize) -> (f64, f64) {
    let mut per_delivery = f64::INFINITY;
    let mut p50_ms = 0.0;
    for _ in 0..samples {
        let t0 = Instant::now();
        let report = RingNetSim::run_scenario(sc, seed);
        let secs = t0.elapsed().as_secs_f64();
        let mut stats = world_stats(&report.journal, sc.duration, sc.duration);
        assert!(stats.delivered > 0, "the fence world delivered nothing");
        per_delivery = per_delivery.min(secs / stats.delivered as f64);
        stats.latencies_ns.sort_unstable();
        p50_ms = exact_quantile(&stats.latencies_ns, 0.5) as f64 / 1e6;
    }
    (per_delivery, p50_ms)
}

/// Measure every direct-call metric and append it to `metrics`.
pub fn direct(metrics: &mut Vec<(&'static str, f64)>, nodes: usize, seed: u64, quick: bool) {
    let samples = if quick { 1 } else { 5 };
    metrics.push((
        "simnet.event.ns_per_op_d64",
        event_queue_ns_per_op(64, samples),
    ));
    metrics.push((
        "simnet.event.ns_per_op_d4096",
        event_queue_ns_per_op(4096, samples),
    ));
    metrics.push((
        "simnet.sim.bare_ns_per_event",
        bare_sim_ns_per_event(nodes, samples),
    ));
    metrics.push(("simnet.link.ns_per_transmit", link_ns_per_transmit(samples)));

    // The repository's own data-structure loops; best sample of each.
    let mut runner = Runner::new().samples(if quick { 2 } else { 20 }).quiet();
    ringnet_bench::suites::datastructures(&mut runner);
    let row = |group: &str, name: &str, per_iter: f64| {
        let r = runner
            .results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .unwrap_or_else(|| {
                panic!("ringnet_bench::suites::datastructures has no row {group}/{name}")
            });
        r.min_ns / per_iter
    };
    metrics.push((
        "core.token.ns_per_rotation",
        row("token", "assign_rotate_prune", 64.0),
    ));
    metrics.push(("core.wq.ns_per_msg", row("wq", "insert_order_gc", 1024.0)));
    metrics.push((
        "core.mq.ns_per_msg",
        row("mq", "steady_state_window", 1024.0),
    ));
    metrics.push((
        "core.wt.ns_per_ack",
        row("working_table", "ack_min_progress_64_children", 256.0),
    ));

    let fence_samples = if quick { 1 } else { 3 };
    let (disjoint, _) = host_per_delivery(&four_ring_world(false), seed, fence_samples);
    let (overlap, overlap_p50) = host_per_delivery(&four_ring_world(true), seed, fence_samples);
    metrics.push(("core.fence.overlap_host_ratio", overlap / disjoint));
    metrics.push(("core.fence.overlap_latency_p50_ms", overlap_p50));

    // The five baselines on a 3 sim-s cut of the campus world, one run each.
    let campus = workloads::find("campus_128")
        .expect("campus_128 is in the catalogue")
        .world(seed, 0)
        .rung(1.0);
    for (name, backend) in [
        (
            "baselines.flat_ring.host_us_per_delivery",
            Backend::FlatRing,
        ),
        ("baselines.tree.host_us_per_delivery", Backend::Tree),
        ("baselines.tunnel.host_us_per_delivery", Backend::Tunnel),
        ("baselines.relm.host_us_per_delivery", Backend::Relm),
        (
            "baselines.unordered.host_us_per_delivery",
            Backend::Unordered,
        ),
    ] {
        let t0 = Instant::now();
        let report = backend.run(&campus.scenario, campus.run_seed);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        metrics.push((name, us / report.metrics.delivered.max(1) as f64));
    }
}
