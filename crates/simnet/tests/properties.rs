//! Randomized property tests of the simulator substrate's invariants,
//! driven by seeded [`SimRng`] streams (dependency-free, reproducible by
//! seed).

use simnet::event::EventQueue;
use simnet::link::{LinkProfile, LinkState, LossModel, TxOutcome};
use simnet::{Actor, Ctx, NodeAddr, ShardedSim, Sim, SimDuration, SimRng, SimStats, SimTime};

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

fn gossip_sequential(case: u64, burst: bool) -> (Vec<(SimTime, Heard)>, SimStats) {
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
    sim.finish()
}

fn gossip_two_shards(case: u64) -> (Vec<(SimTime, Heard)>, SimStats) {
    let shard_of = (0..GOSSIPERS).map(|n| n % 2).collect();
    let mut sim: ShardedSim<u64, Heard> = ShardedSim::new(case, 2, shard_of, true, |_| 0);
    for me in 0..GOSSIPERS {
        sim.add_node(gossiper(case, me, true));
    }
    for a in 0..GOSSIPERS {
        for b in a + 1..GOSSIPERS {
            sim.connect_duplex(NodeAddr(a), NodeAddr(b), gossip_delay(a, b));
        }
    }
    sim.run_until(SimTime::from_secs(1));
    sim.finish()
}

/// On links that draw nothing, a burst is indistinguishable from the
/// per-message sends it frames — same arrival times, same order, hence the
/// same journal — while costing one wire packet and one event per run;
/// and a 2-shard run of the burst world does exactly the sequential run's
/// work, every `(sender, receiver)` pair hearing the same sequence.
#[test]
fn bursts_match_per_message_sends_sequential_and_sharded() {
    for case in 0..12u64 {
        let (sent_journal, sent) = gossip_sequential(case, false);
        let (burst_journal, burst) = gossip_sequential(case, true);
        assert!(sent_journal.len() > 500, "case {case}: world too quiet");
        assert_eq!(burst_journal, sent_journal, "case {case}");
        assert!(burst.packets_sent < sent.packets_sent, "case {case}");
        assert_eq!(burst.packets_sent, burst.packets_delivered, "case {case}");
        assert_eq!(
            sent.events - burst.events,
            sent.packets_sent - burst.packets_sent,
            "case {case}: one event saved per framed-away packet"
        );

        let (sharded_journal, sharded) = gossip_two_shards(case);
        assert_eq!(sharded, burst, "case {case}: stats differ across engines");
        let per_pair = |journal: &[(SimTime, Heard)]| {
            let mut j = journal.to_vec();
            j.sort_by_key(|&(_, (me, from, _))| (me, from)); // stable: keeps each pair's order
            j
        };
        assert_eq!(
            per_pair(&sharded_journal),
            per_pair(&burst_journal),
            "case {case}"
        );
    }
}
