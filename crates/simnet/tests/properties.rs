//! Randomized property tests of the simulator substrate's invariants,
//! driven by seeded [`SimRng`] streams (dependency-free, reproducible by
//! seed).

use std::collections::{BTreeMap, BTreeSet};

use simnet::event::EventQueue;
use simnet::link::{LinkProfile, LinkState, LossModel, TxOutcome};
use simnet::topo::link_stream;
use simnet::{Actor, Ctx, NodeAddr, Sim, SimDuration, SimRng, SimStats, SimTime, Topology};

/// The event queue is a stable priority queue: pops come out in
/// non-decreasing time order, and equal times preserve insertion order.
#[test]
fn event_queue_is_stable_priority() {
    let mut rng = SimRng::from_seed(0xB1);
    for case in 0..64 {
        let len = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.range_u64(0, 50)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(x) = q.pop() {
            popped.push(x);
        }
        assert_eq!(popped.len(), times.len(), "case {case}");
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time order violated");
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "case {case}: FIFO violated within a timestamp"
                );
            }
        }
    }
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn event_queue_cancellation_exact() {
    let mut rng = SimRng::from_seed(0xB2);
    for case in 0..64 {
        let n = rng.range_u64(1, 100) as usize;
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..n)
            .map(|i| q.schedule(SimTime::from_millis(i as u64), i))
            .collect();
        let mut kept = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            if cancel_mask[i] {
                assert!(q.cancel(h), "case {case}");
            } else {
                kept.push(i);
            }
        }
        assert_eq!(q.len(), kept.len(), "case {case}");
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, kept, "case {case}");
    }
}

/// Bernoulli loss converges to its parameter (law of large numbers with
/// a generous tolerance; deterministic per seed).
#[test]
fn bernoulli_loss_calibrated() {
    let mut rng = SimRng::from_seed(0xB3);
    for case in 0..24 {
        let p = rng.range_f64(0.05, 0.95);
        let seed = rng.range_u64(0, 1000);
        let mut link = LinkState::new(
            LinkProfile::wired(SimDuration::from_millis(1)).with_loss(LossModel::Bernoulli(p)),
        );
        let mut draw = SimRng::from_seed(seed);
        let n = 4000u32;
        let mut lost = 0u32;
        for _ in 0..n {
            if matches!(link.transmit(SimTime::ZERO, 64, &mut draw), TxOutcome::Lost) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - p).abs() < 0.06, "case {case}: rate {rate} vs p {p}");
    }
}

/// Gilbert–Elliott steady-state matches the closed form.
#[test]
fn gilbert_elliott_steady_state() {
    let mut rng = SimRng::from_seed(0xB4);
    for case in 0..16 {
        let p_gb = rng.range_f64(0.01, 0.5);
        let p_bg = rng.range_f64(0.01, 0.5);
        let seed = rng.range_u64(0, 100);
        let model = LossModel::GilbertElliott {
            p_good_to_bad: p_gb,
            p_bad_to_good: p_bg,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let expected = model.steady_state_loss();
        let mut link =
            LinkState::new(LinkProfile::wired(SimDuration::from_millis(1)).with_loss(model));
        let mut draw = SimRng::from_seed(seed);
        let n = 30_000u32;
        let mut lost = 0u32;
        for _ in 0..n {
            if matches!(link.transmit(SimTime::ZERO, 64, &mut draw), TxOutcome::Lost) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - expected).abs() < 0.05,
            "case {case}: rate {rate} vs steady {expected}"
        );
    }
}

/// Deterministic replay: the same seed yields the same draw sequence
/// across all SimRng draw kinds.
#[test]
fn rng_streams_replay() {
    let mut rng = SimRng::from_seed(0xB6);
    for _ in 0..32 {
        let seed = rng.next_u64();
        let stream = rng.next_u64();
        let mut a = SimRng::derive(seed, stream);
        let mut b = SimRng::derive(seed, stream);
        for i in 0..50u64 {
            match i % 4 {
                0 => assert_eq!(a.unit().to_bits(), b.unit().to_bits()),
                1 => assert_eq!(a.range_u64(0, 1000), b.range_u64(0, 1000)),
                2 => assert_eq!(a.chance(0.37), b.chance(0.37)),
                _ => assert_eq!(a.exponential(2.5).to_bits(), b.exponential(2.5).to_bits()),
            }
        }
    }
}

/// Records every packet it receives as `(receiver, message)`.
struct Recorder;

impl Actor<u32, (NodeAddr, u32)> for Recorder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>, _: NodeAddr, msg: u32) {
        ctx.record((ctx.me(), msg));
    }
}

/// Each link draws from its own stream: interleaving the sends on two lossy,
/// jittered links in any order — within one instant or across several —
/// leaves what each link delivers, and when, unchanged.
#[test]
fn interleaving_sends_across_links_leaves_each_links_outcomes_alone() {
    let mut rng = SimRng::from_seed(0xB8);
    for case in 0..32u64 {
        let seed = rng.next_u64();
        let counts = [rng.range_u64(1, 40), rng.range_u64(1, 40)];
        // When each link's k-th send leaves, in milliseconds: all at once,
        // or spread out over a per-link schedule.
        let spread: Vec<Vec<u64>> = counts
            .iter()
            .map(|&n| {
                let mut at = 0;
                (0..n)
                    .map(|_| {
                        at += rng.range_u64(0, 3);
                        at
                    })
                    .collect()
            })
            .collect();
        let at_once: Vec<Vec<u64>> = counts.iter().map(|&n| vec![0; n as usize]).collect();
        // Random interleavings: which link each successive send goes to.
        let orders: Vec<Vec<usize>> = (0..4)
            .map(|_| {
                let mut left = counts;
                std::iter::from_fn(|| {
                    let link = match left {
                        [0, 0] => return None,
                        [0, _] => 1,
                        [_, 0] => 0,
                        _ => rng.index(2),
                    };
                    left[link] -= 1;
                    Some(link)
                })
                .collect()
            })
            .collect();
        let run = |order: &[usize], times: &[Vec<u64>]| {
            let mut sim: Sim<u32, (NodeAddr, u32)> = Sim::new(seed);
            let [a, b, c, d] = [(); 4].map(|_| sim.add_node(Box::new(Recorder)));
            let jittered = LinkProfile::wireless(
                SimDuration::from_millis(1),
                SimDuration::from_millis(3),
                0.3,
            );
            let bursty = jittered.clone().with_loss(LossModel::lossy_wireless());
            sim.world().topo.connect_duplex(a, b, jittered);
            sim.world().topo.connect_duplex(c, d, bursty);
            let ends = [(a, b), (c, d)];
            let mut sent = [0usize; 2];
            for &link in order {
                let k = sent[link];
                sent[link] += 1;
                let (src, dst) = ends[link];
                let msg = (link * 1000 + k) as u32;
                sim.world()
                    .schedule_control(SimTime::from_millis(times[link][k]), move |w| {
                        w.send(src, dst, msg)
                    });
            }
            sim.run_until(SimTime::from_secs(1));
            let (records, stats, ()) = sim.finish();
            let heard = |who: NodeAddr| -> Vec<(SimTime, u32)> {
                records
                    .iter()
                    .filter(|(_, (me, _))| *me == who)
                    .map(|&(t, (_, m))| (t, m))
                    .collect()
            };
            (heard(b), heard(d), stats.packets_lost)
        };
        for times in [&at_once, &spread] {
            let reference = run(&orders[0], times);
            assert!(
                reference.0.len() + reference.1.len() > 0,
                "case {case}: nothing arrived"
            );
            for order in &orders[1..] {
                assert_eq!(run(order, times), reference, "case {case}");
            }
        }
    }
}

/// Reference model for the two-level calendar queue: a flat list scanned
/// for the `(time, seq)` minimum, with explicit cancellation. Slow but
/// obviously correct.
struct ModelQueue {
    pending: Vec<(SimTime, u64, u64)>, // (time, seq, payload)
    next_seq: u64,
}

impl ModelQueue {
    fn new() -> Self {
        ModelQueue {
            pending: Vec::new(),
            next_seq: 0,
        }
    }
    fn schedule(&mut self, time: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((time, seq, payload));
        seq
    }
    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let i = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)?;
        let (t, _, p) = self.pending.swap_remove(i);
        Some((t, p))
    }
}

/// Randomized interleavings of `schedule`/`cancel`/`pop` agree with the
/// reference model — including insertion-order tie-breaks, zero delays,
/// same-time bursts, sub-bucket jitter, cross-bucket delays and far-future
/// entries that exercise calendar migration and window jumps. This is the
/// determinism contract `simnet::sim` (and every journal in the workspace)
/// rests on.
#[test]
fn event_queue_matches_reference_model() {
    let mut rng = SimRng::from_seed(0xB7);
    for case in 0..40 {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::new();
        let mut live: Vec<(simnet::event::EventHandle, u64)> = Vec::new(); // (handle, model seq)
        let mut now = SimTime::ZERO;
        let mut next_payload = 0u64;
        let ops = rng.range_u64(50, 1200);
        for op in 0..ops {
            match rng.index(10) {
                // Schedule (heaviest weight, mixed delay regimes).
                0..=4 => {
                    let delay = match rng.index(6) {
                        0 => 0,                                // same instant
                        1 => rng.range_u64(0, 1 << 10),        // sub-bucket jitter
                        2 => rng.range_u64(0, 1 << 20),        // ≈ bucket width
                        3 => rng.range_u64(0, 20_000_000),     // a few buckets
                        4 => rng.range_u64(0, 200_000_000),    // near-horizon
                        _ => rng.range_u64(0, 30_000_000_000), // far heap
                    };
                    let t = SimTime::from_nanos(now.as_nanos() + delay);
                    let p = next_payload;
                    next_payload += 1;
                    let h = q.schedule(t, p);
                    let seq = model.schedule(t, p);
                    live.push((h, seq));
                }
                // Same-time burst (tie-break stress).
                5 => {
                    let t = SimTime::from_nanos(now.as_nanos() + rng.range_u64(0, 1 << 21));
                    for _ in 0..rng.range_u64(2, 8) {
                        let p = next_payload;
                        next_payload += 1;
                        let h = q.schedule(t, p);
                        let seq = model.schedule(t, p);
                        live.push((h, seq));
                    }
                }
                // Cancel a random pending entry (and sometimes re-cancel).
                6 | 7 => {
                    if !live.is_empty() {
                        let i = rng.index(live.len());
                        let (h, seq) = live.swap_remove(i);
                        assert_eq!(q.cancel(h), model.cancel(seq), "case {case} op {op}");
                        if rng.chance(0.2) {
                            assert!(!q.cancel(h), "case {case} op {op}: double cancel");
                        }
                    }
                }
                // Pop.
                _ => {
                    let got = q.pop();
                    let want = model.pop();
                    assert_eq!(got, want, "case {case} op {op}");
                    if let Some((t, p)) = got {
                        assert!(t >= now, "case {case}: time went backwards");
                        now = t;
                        // Every schedule advances payload and model seq in
                        // lockstep, so the popped payload IS its model seq.
                        live.retain(|&(_, s)| s != p);
                    }
                }
            }
            assert_eq!(q.len(), model.pending.len(), "case {case} op {op}");
        }
        // Drain both completely: the full remaining order must agree.
        loop {
            let got = q.pop();
            let want = model.pop();
            assert_eq!(got, want, "case {case} drain");
            if got.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
    }
}

/// Sweeps that each land a 1 000-key same-instant burst in a fresh bucket,
/// among scattered schedules, cancellations and pops, agree with the
/// reference model: a bucket that takes over a drained bucket's buffer
/// orders its keys as one that grew its own.
#[test]
fn event_queue_matches_reference_model_across_burst_sweeps() {
    let mut rng = SimRng::from_seed(0xB8);
    let sweep_ns = 256u64 << 19; // the calendar's horizon
    let mut q = EventQueue::new();
    let mut model = ModelQueue::new();
    let mut live: Vec<(simnet::event::EventHandle, u64)> = Vec::new();
    let mut now = SimTime::ZERO;
    // The payload is the model's seq, so a handle and its model entry agree.
    let schedule = |q: &mut EventQueue<u64>, model: &mut ModelQueue, t| {
        let h = q.schedule(t, model.next_seq);
        (h, model.schedule(t, model.next_seq))
    };
    for sweep in 0..10 {
        let burst = SimTime::from_nanos(now.as_nanos() + rng.range_u64(0, sweep_ns));
        for _ in 0..1_000 {
            live.push(schedule(&mut q, &mut model, burst));
        }
        for op in 0..400 {
            if rng.chance(0.5) {
                let t = SimTime::from_nanos(now.as_nanos() + rng.range_u64(0, sweep_ns));
                live.push(schedule(&mut q, &mut model, t));
            }
            if rng.chance(0.1) && !live.is_empty() {
                let (h, seq) = live.swap_remove(rng.index(live.len()));
                assert_eq!(q.cancel(h), model.cancel(seq), "sweep {sweep} op {op}");
            }
            let got = q.pop();
            assert_eq!(got, model.pop(), "sweep {sweep} op {op}");
            if let Some((t, _)) = got {
                now = t;
            }
        }
        loop {
            let got = q.pop();
            assert_eq!(got, model.pop(), "sweep {sweep} drain");
            let Some((t, _)) = got else { break };
            now = t;
        }
        live.clear();
    }
}

/// What one gossip receiver journals per arriving message: `(me, from, msg)`.
type Heard = (NodeAddr, NodeAddr, u64);

/// Every millisecond, says a random run of 0–4 numbered messages to each
/// peer — framed as one burst per peer, or as per-message sends. The draws
/// come from the node's own stream, so both modes say the same things.
struct Gossip {
    peers: Vec<NodeAddr>,
    rounds: u32,
    burst: bool,
    draw: SimRng,
    next: u64,
    buf: Vec<u64>,
}

impl Actor<u64, Heard> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, Heard>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u64, Heard>, from: NodeAddr, msg: u64) {
        ctx.record((ctx.me(), from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64, Heard>, _: u64) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        for i in 0..self.peers.len() {
            for _ in 0..self.draw.index(5) {
                self.buf.push(self.next);
                self.next += 1;
            }
            if self.burst {
                ctx.send_burst(self.peers[i], &mut self.buf);
            } else {
                for msg in self.buf.drain(..) {
                    ctx.send(self.peers[i], msg);
                }
            }
        }
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
}

const GOSSIPERS: u32 = 6;

fn gossiper(case: u64, me: u32, burst: bool) -> Box<Gossip> {
    Box::new(Gossip {
        peers: (0..GOSSIPERS).filter(|&p| p != me).map(NodeAddr).collect(),
        rounds: 40,
        burst,
        draw: SimRng::derive(case, me as u64),
        next: me as u64 * 1_000_000,
        buf: Vec::new(),
    })
}

/// A full mesh whose link delays differ per pair but draw nothing.
fn gossip_delay(a: u32, b: u32) -> LinkProfile {
    LinkProfile::wired(SimDuration::from_micros(300 + 170 * ((a + b) % 4) as u64))
}

fn gossip(case: u64, burst: bool) -> (Vec<(SimTime, Heard)>, SimStats) {
    let mut sim: Sim<u64, Heard> = Sim::new(case);
    for me in 0..GOSSIPERS {
        sim.add_node(gossiper(case, me, burst));
    }
    for a in 0..GOSSIPERS {
        for b in a + 1..GOSSIPERS {
            let profile = gossip_delay(a, b);
            sim.world()
                .topo
                .connect_duplex(NodeAddr(a), NodeAddr(b), profile);
        }
    }
    sim.run_until(SimTime::from_secs(1));
    let (records, stats, ()) = sim.finish();
    (records, stats)
}

/// On links that draw nothing, a burst is indistinguishable from the
/// per-message sends it frames — same arrival times, same order, hence the
/// same journal — while costing one wire packet and one event per run.
#[test]
fn bursts_match_per_message_sends() {
    for case in 0..12u64 {
        let (sent_journal, sent) = gossip(case, false);
        let (burst_journal, burst) = gossip(case, true);
        assert!(sent_journal.len() > 500, "case {case}: world too quiet");
        assert_eq!(burst_journal, sent_journal, "case {case}");
        assert!(burst.packets_sent < sent.packets_sent, "case {case}");
        assert_eq!(burst.packets_sent, burst.packets_delivered, "case {case}");
        assert_eq!(
            sent.events - burst.events,
            sent.packets_sent - burst.packets_sent,
            "case {case}: one event saved per framed-away packet"
        );
    }
}

/// One directed link of the topology reference model: its profile, a
/// standalone [`LinkState`] and the draw stream of its connection.
struct ModelLink {
    profile: LinkProfile,
    state: LinkState,
    draws: SimRng,
}

/// A few profiles that disagree on every packet: fixed and jittered delay,
/// Bernoulli and bursty loss.
fn model_profiles() -> Vec<LinkProfile> {
    let ms = SimDuration::from_millis;
    vec![
        LinkProfile::wired(ms(1)),
        LinkProfile::wireless(ms(2), ms(5), 0.2),
        LinkProfile::wireless(ms(1), ms(3), 0.0).with_loss(LossModel::lossy_wireless()),
        LinkProfile::wireless(ms(3), ms(1), 0.1),
    ]
}

/// Random connects, disconnects, reconnects, up/down toggles and sends
/// agree with a reference `BTreeMap<(src, dst), _>` of standalone links,
/// each drawing from the stream of its pair's connection count: the same
/// outcomes and arrival times (hence the same draws), the same `iter()`
/// order and profiles, the same `neighbours()` order. A topology whose
/// destination array fell out of step with its links would hand a packet
/// to another link's channel, profile and stream.
#[test]
fn topology_matches_reference_model() {
    let mut rng = SimRng::from_seed(0xB9);
    let profiles = model_profiles();
    let mut outcomes: BTreeMap<&str, u32> = BTreeMap::new();
    for case in 0..40 {
        let mut topo = Topology::default();
        let mut model: BTreeMap<(NodeAddr, NodeAddr), ModelLink> = BTreeMap::new();
        let mut down: BTreeSet<(NodeAddr, NodeAddr)> = BTreeSet::new();
        let mut connections: BTreeMap<(NodeAddr, NodeAddr), u64> = BTreeMap::new();
        let nodes = rng.range_u64(2, 12) as u32;
        let mut now = SimTime::ZERO;
        for op in 0..rng.range_u64(50, 600) {
            let a = NodeAddr(rng.index(nodes as usize) as u32);
            let b = NodeAddr(rng.index(nodes as usize) as u32);
            match rng.index(10) {
                0..=1 => {
                    let profile = &profiles[rng.index(profiles.len())];
                    topo.connect_duplex(a, b, profile.clone());
                    for pair in [(a, b), (b, a)] {
                        let nth = connections.entry(pair).or_insert(0);
                        let link = ModelLink {
                            profile: profile.clone(),
                            state: LinkState::new(profile.clone()),
                            draws: link_stream(0, pair.0, pair.1, *nth),
                        };
                        *nth += 1;
                        model.insert(pair, link);
                        down.remove(&pair);
                    }
                }
                2 => {
                    topo.disconnect_duplex(a, b);
                    for pair in [(a, b), (b, a)] {
                        model.remove(&pair);
                        down.remove(&pair);
                    }
                }
                3 => {
                    let up = rng.chance(0.5);
                    let exists = model.contains_key(&(a, b));
                    assert_eq!(topo.set_link_up(a, b, up), exists, "case {case} op {op}");
                    if exists && up {
                        down.remove(&(a, b));
                    } else if exists {
                        down.insert((a, b));
                    }
                }
                _ => {
                    now += SimDuration::from_micros(rng.range_u64(0, 4000));
                    let want = model.get_mut(&(a, b)).map(|l| {
                        if down.contains(&(a, b)) {
                            TxOutcome::Down
                        } else {
                            l.state.transmit(now, 0, &mut l.draws)
                        }
                    });
                    assert_eq!(topo.transmit(a, b, now), want, "case {case} op {op}");
                    let kind = match want {
                        Some(TxOutcome::Deliver(_)) => "deliver",
                        Some(TxOutcome::Lost) => "lost",
                        Some(TxOutcome::Down) => "down",
                        None => "no link",
                    };
                    *outcomes.entry(kind).or_default() += 1;
                }
            }
            assert_eq!(
                topo.has_link(a, b),
                model.contains_key(&(a, b)),
                "case {case} op {op}"
            );
        }
        let links: Vec<_> = topo.iter().map(|(s, d, p)| (s, d, p.clone())).collect();
        let want: Vec<_> = model
            .iter()
            .map(|(&(s, d), l)| (s, d, l.profile.clone()))
            .collect();
        assert_eq!(links, want, "case {case}: iter()");
        for n in 0..nodes {
            let got: Vec<_> = topo.neighbours(NodeAddr(n)).collect();
            let want: Vec<_> = model.keys().filter(|k| k.0 .0 == n).map(|k| k.1).collect();
            assert_eq!(got, want, "case {case}: neighbours of {n}");
        }
    }
    for kind in ["deliver", "lost", "down", "no link"] {
        assert!(
            outcomes.get(kind) > Some(&20),
            "{kind} too rare: {outcomes:?}"
        );
    }
}
