//! The discrete-event simulator.
//!
//! A [`Sim`] owns a set of [`Actor`]s (protocol endpoints), a [`Topology`] of
//! lossy/delaying links, a deterministic event queue and an RNG stream. It is
//! generic over the wire-message type `M` and the journal-record type `R`
//! that actors emit for offline analysis (deliveries, handoffs, …).
//!
//! Determinism contract: with equal `(actors, topology, seed, schedule of
//! control events)`, two runs produce byte-identical journals. Ties in the
//! event queue resolve by insertion order. Everything stochastic draws from
//! a stream derived from the seed: each directed link draws its loss and
//! jitter from a stream of its own ([`Topology`]), and actors draw from the
//! world stream ([`Ctx::rng`]). So a link's outcomes depend only on the
//! packets offered to that link, in order: moving an unrelated send, or
//! reordering work within one instant, changes no other link's draws.

use crate::event::EventQueue;
use crate::link::{LinkProfile, TxOutcome};
use crate::rng::SimRng;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};
use crate::topo::{NodeAddr, Topology};

/// A protocol endpoint living at one [`NodeAddr`]. `F` is the harvest its
/// simulator hands back at the end ([`Sim::finish`]): what every actor
/// leaves behind when it stops. Actors with nothing to leave use `()`.
pub trait Actor<M, R, F = ()> {
    /// Called once when the simulation starts (in address order).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M, R>) {}
    /// Called when a packet addressed to this node arrives.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, M, R>, from: NodeAddr, msg: M);
    /// Called when a burst arrives: everything `from` said to this node at
    /// one instant, framed as one wire packet ([`World::send_burst`]), in
    /// emission order. The default handles the members one by one; an
    /// actor that batches its own output overrides it to answer once.
    fn on_burst(&mut self, ctx: &mut Ctx<'_, M, R>, from: NodeAddr, msgs: std::vec::Drain<'_, M>) {
        for msg in msgs {
            self.on_packet(ctx, from, msg);
        }
    }
    /// Called when a timer set by this node fires. `tag` is the value passed
    /// to [`Ctx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, R>, _tag: u64) {}
    /// Called once when the simulation is finished (in address order),
    /// after the last event it ran: the place to write end-of-run state
    /// into the run's harvest `out`, which [`Sim::finish`] returns.
    fn on_stop(&mut self, _out: &mut F) {}
}

/// Aggregate transport counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed by the main loop.
    pub events: u64,
    /// Packets offered to links (a burst is one packet).
    pub packets_sent: u64,
    /// Packets that arrived at their destination actor.
    pub packets_delivered: u64,
    /// Packets dropped by loss models.
    pub packets_lost: u64,
    /// Packets dropped because no link existed for `(src, dst)`.
    pub packets_no_route: u64,
    /// Packets dropped on administratively-down links (partitions).
    pub packets_link_down: u64,
    /// Timers fired.
    pub timers_fired: u64,
}

/// Time-stamped record sink. Actors append protocol-level observations that
/// the measurement layer reads back after the run — or consumes *online*
/// through an attached streaming sink, in which case retaining the record
/// `Vec` is optional (big sweeps run with retention off and never
/// materialize the journal).
pub struct Journal<R> {
    retain: bool,
    records: Vec<(SimTime, R)>,
    sinks: Vec<JournalSink<R>>,
}

/// A streaming journal observer (see [`Journal::set_sink`]).
pub(crate) type JournalSink<R> = Box<dyn FnMut(SimTime, &R)>;

impl<R> Journal<R> {
    /// An empty journal that retains what it is given.
    pub(crate) fn new() -> Self {
        Journal {
            retain: true,
            records: Vec::new(),
            sinks: Vec::new(),
        }
    }

    /// Append a record: feed the streaming sinks (if any), then retain the
    /// record (if retention is on). A no-op when neither is configured.
    #[inline]
    pub fn record(&mut self, now: SimTime, rec: R) {
        for sink in &mut self.sinks {
            sink(now, &rec);
        }
        if self.retain {
            self.records.push((now, rec));
        }
    }

    /// Turn record retention on or off (already-retained records stay).
    pub fn set_retention(&mut self, retain: bool) {
        self.retain = retain;
    }

    /// Attach a streaming observer called with every record as it is
    /// emitted, before (and independent of) retention, replacing any
    /// previously attached observers. Use [`Journal::add_sink`] to attach
    /// several independent observers (e.g. streaming metrics *and* an
    /// online auditor).
    pub fn set_sink(&mut self, sink: impl FnMut(SimTime, &R) + 'static) {
        self.sinks.clear();
        self.sinks.push(Box::new(sink));
    }

    /// Attach an additional streaming observer without disturbing the ones
    /// already installed. Observers run in attachment order.
    pub fn add_sink(&mut self, sink: impl FnMut(SimTime, &R) + 'static) {
        self.sinks.push(Box::new(sink));
    }

    /// Pre-size the retained-record storage (no-op when retention is off).
    pub fn reserve(&mut self, records: usize) {
        if self.retain {
            self.records.reserve(records);
        }
    }

    /// All records in emission order.
    pub fn records(&self) -> &[(SimTime, R)] {
        &self.records
    }

    /// Consume the journal, yielding its records.
    pub(crate) fn into_records(self) -> Vec<(SimTime, R)> {
        self.records
    }
}

/// A deferred closure run over the world (scenario control events).
pub(crate) type ControlFn<M, R> = Box<dyn FnOnce(&mut World<M, R>)>;

pub(crate) enum Ev<M, R> {
    Packet {
        src: NodeAddr,
        dst: NodeAddr,
        msg: M,
    },
    /// A batched multicast fan-out: one queue event standing for a run of
    /// copies that all arrive at the same instant. The payload and the
    /// ordered recipient list are interned in the world's fan pool and
    /// referenced by slot; the run is unpacked sequentially at pop time.
    /// Order-equivalent to per-copy events: same-time events pop in
    /// insertion order, and the copies were inserted consecutively, so
    /// delivering the run back-to-back reproduces the exact interleaving —
    /// while costing one queue round-trip instead of k.
    Fan {
        src: NodeAddr,
        slot: u32,
    },
    /// The transpose of a fan: one wire packet carrying a run of messages
    /// from one sender to one receiver ([`World::send_burst`]). The
    /// receiver and the ordered run are interned in the world's burst pool
    /// and the run is handed to [`Actor::on_burst`] whole.
    Burst {
        src: NodeAddr,
        slot: u32,
    },
    Timer {
        node: NodeAddr,
        tag: u64,
    },
    Control(ControlFn<M, R>),
}

/// Interned runs behind the batched events, one slot per pending event: a
/// head plus an ordered run — a fan's payload and its recipients
/// ([`Ev::Fan`]), or a burst's receiver and its messages ([`Ev::Burst`]).
/// (Interned rather than carried in the event so that [`Ev`] stays as
/// small as a plain packet.) The run buffers are recycled, so the
/// steady-state hot path allocates nothing.
struct RunPool<H, T> {
    slots: Slab<(H, Vec<T>)>,
    /// Retained-capacity run buffers awaiting reuse.
    spare: Vec<Vec<T>>,
}

impl<H, T> RunPool<H, T> {
    fn new() -> Self {
        RunPool {
            slots: Slab::new(),
            spare: Vec::new(),
        }
    }

    fn put(&mut self, head: H, items: impl IntoIterator<Item = T>) -> u32 {
        let mut run = self.spare.pop().unwrap_or_default();
        run.extend(items);
        self.slots.insert((head, run))
    }

    fn take(&mut self, slot: u32) -> (H, Vec<T>) {
        self.slots.remove(slot)
    }

    fn recycle(&mut self, mut run: Vec<T>) {
        run.clear();
        self.spare.push(run);
    }
}

/// Everything in the simulation except the actors themselves. Actors receive
/// `&mut World` through [`Ctx`] while the actor is temporarily detached, so
/// no aliasing is possible.
pub struct World<M, R> {
    now: SimTime,
    queue: EventQueue<Ev<M, R>>,
    /// Pending fan-outs: payload + recipient run (see [`Ev::Fan`]).
    fans: RunPool<M, NodeAddr>,
    /// Pending bursts: receiver + message run (see [`Ev::Burst`]).
    bursts: RunPool<NodeAddr, M>,
    /// Reused scratch buffer for multicast delivery planning.
    mc_buf: Vec<(NodeAddr, SimTime)>,
    /// The link table. Public so control events and scenario code can rewire
    /// the network mid-run (handoffs, failures).
    pub topo: Topology,
    /// The actors' RNG stream ([`Ctx::rng`]; e.g. Poisson sources). Links
    /// never draw from it: each owns a stream of its own.
    pub rng: SimRng,
    /// The protocol-event journal.
    pub journal: Journal<R>,
    /// Transport counters.
    pub stats: SimStats,
}

impl<M, R> World<M, R> {
    /// A world whose actors and links draw from streams of the run seed
    /// `seed`.
    fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            fans: RunPool::new(),
            bursts: RunPool::new(),
            mc_buf: Vec::new(),
            topo: Topology::with_seed(seed),
            rng: SimRng::from_seed(seed),
            journal: Journal::new(),
            stats: SimStats::default(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Offer one wire packet to the `src → dst` link, applying loss and
    /// latency: its arrival time if it gets through, else `None` with the
    /// drop counted ([`SimStats::packets_no_route`] when there is no link,
    /// exactly like a black-holed IP packet).
    fn offer(&mut self, src: NodeAddr, dst: NodeAddr) -> Option<SimTime> {
        self.stats.packets_sent += 1;
        let counter = match self.topo.transmit(src, dst, self.now) {
            Some(TxOutcome::Deliver(at)) => return Some(at),
            Some(TxOutcome::Lost) => &mut self.stats.packets_lost,
            Some(TxOutcome::Down) => &mut self.stats.packets_link_down,
            None => &mut self.stats.packets_no_route,
        };
        *counter += 1;
        None
    }

    /// Transmit `msg` from `src` to `dst` over the configured link, applying
    /// its loss and latency; a packet the link drops, or that has no link,
    /// is counted in [`SimStats`] and silently gone.
    pub fn send(&mut self, src: NodeAddr, dst: NodeAddr, msg: M) {
        if let Some(at) = self.offer(src, dst) {
            self.queue.schedule(at, Ev::Packet { src, dst, msg });
        }
    }

    /// Transmit everything in `msgs` (drained, in order) from `src` to
    /// `dst` as **one wire packet**: one [`SimStats::packets_sent`], one
    /// offer to the link, hence one loss and one latency draw — the burst
    /// arrives whole, through [`Actor::on_burst`], or not at all — and one
    /// queue event. On a link that draws nothing every member arrives
    /// exactly when, and in the order, per-message [`World::send`]s would
    /// have delivered it. A run of one *is* a [`World::send`]; an empty run
    /// sends nothing.
    pub fn send_burst(&mut self, src: NodeAddr, dst: NodeAddr, msgs: &mut Vec<M>) {
        if msgs.len() < 2 {
            if let Some(msg) = msgs.pop() {
                self.send(src, dst, msg);
            }
            return;
        }
        let Some(at) = self.offer(src, dst) else {
            msgs.clear();
            return;
        };
        let slot = self.bursts.put(dst, msgs.drain(..));
        self.queue.schedule(at, Ev::Burst { src, slot });
    }

    /// Pre-size the pending-event slab for roughly `additional` more
    /// concurrent events (builders that know the workload scale call this
    /// so the hot path never grows the slab).
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Inject a packet that arrives at `dst` after `delay`, bypassing links.
    /// Used by scenario code to model out-of-band stimuli (e.g. an MH's radio
    /// detecting a new AP).
    pub fn inject(&mut self, src: NodeAddr, dst: NodeAddr, msg: M, delay: SimDuration) {
        self.queue
            .schedule(self.now + delay, Ev::Packet { src, dst, msg });
    }

    /// Set a timer for `node` firing after `delay` with the given tag.
    pub fn set_timer(&mut self, node: NodeAddr, delay: SimDuration, tag: u64) {
        self.queue
            .schedule(self.now + delay, Ev::Timer { node, tag });
    }

    /// Transmit one `msg` from `src` to every destination in `dsts`,
    /// applying each link's loss and latency independently —
    /// byte-for-byte equivalent to calling [`World::send`] once per
    /// destination (same RNG draw order, same tie-break order), but the
    /// payload is interned once and shared by all pending copies instead
    /// of being cloned per hop.
    pub fn multicast(&mut self, src: NodeAddr, dsts: &[NodeAddr], msg: M)
    where
        M: Clone,
    {
        let mut deliveries = std::mem::take(&mut self.mc_buf);
        deliveries.clear();
        for &dst in dsts {
            if let Some(at) = self.offer(src, dst) {
                deliveries.push((dst, at));
            }
        }
        // Group consecutive copies that arrive at the same instant into one
        // batched Fan event each; runs of length 1 (distinct arrival times)
        // stay plain packets. Per-run events keep the exact (time, seq)
        // order the per-copy schedule would have produced: runs at distinct
        // times sort by time, and within a run the recipient list preserves
        // insertion order. One payload clone per extra run — the same n−1
        // worst case as before, and zero in the common all-same-time case.
        let mut msg = Some(msg);
        let mut i = 0;
        while i < deliveries.len() {
            let (dst, at) = deliveries[i];
            let mut j = i + 1;
            while j < deliveries.len() && deliveries[j].1 == at {
                j += 1;
            }
            let m = if j == deliveries.len() {
                msg.take().expect("one payload per multicast")
            } else {
                // ringlint: allow(hot-clone) — audited: one clone per same-arrival-
                // time *run* (not per recipient); the final run takes the payload
                // by move above, so a loss-free fan-out clones zero times.
                msg.as_ref().expect("one payload per multicast").clone()
            };
            if j - i == 1 {
                self.queue.schedule(at, Ev::Packet { src, dst, msg: m });
            } else {
                let slot = self
                    .fans
                    .put(m, deliveries[i..j].iter().map(|&(dst, _)| dst));
                self.queue.schedule(at, Ev::Fan { src, slot });
            }
            i = j;
        }
        self.mc_buf = deliveries;
    }

    /// Schedule a control closure to run over the world at `at`.
    pub fn schedule_control(&mut self, at: SimTime, f: impl FnOnce(&mut World<M, R>) + 'static) {
        let at = if at < self.now { self.now } else { at };
        self.queue.schedule(at, Ev::Control(Box::new(f)));
    }
}

impl<M: Clone, R> World<M, R> {
    /// Advance the clock to `time` and hand `ev` to the actor it concerns —
    /// the one place an event meets its actor, shared by [`Sim::step`] and
    /// [`Sim::run_until`]. `actors` is indexed by address; an absent entry
    /// (the address never existed) drops the event.
    fn dispatch<F>(&mut self, actors: &mut [Slot<M, R, F>], time: SimTime, ev: Ev<M, R>) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.stats.events += 1;
        match ev {
            Ev::Packet { src, dst, msg } => {
                self.deliver(actors, dst, |a, ctx| a.on_packet(ctx, src, msg));
            }
            Ev::Fan { src, slot } => {
                let (msg, dsts) = self.fans.take(slot);
                if let Some((&last, rest)) = dsts.split_last() {
                    for &dst in rest {
                        // ringlint: allow(hot-clone) — audited: the unpack point of
                        // a batched Fan event; each recipient's actor takes
                        // ownership, the last one receives the original by move.
                        self.deliver(actors, dst, |a, ctx| a.on_packet(ctx, src, msg.clone()));
                    }
                    self.deliver(actors, last, |a, ctx| a.on_packet(ctx, src, msg));
                }
                self.fans.recycle(dsts);
            }
            Ev::Burst { src, slot } => {
                let (dst, mut run) = self.bursts.take(slot);
                self.deliver(actors, dst, |a, ctx| a.on_burst(ctx, src, run.drain(..)));
                self.bursts.recycle(run);
            }
            Ev::Timer { node, tag } => {
                if let Some(mut actor) = actors.get_mut(node.index()).and_then(Option::take) {
                    self.stats.timers_fired += 1;
                    actor.on_timer(&mut Ctx::new(self, node), tag);
                    actors[node.index()] = Some(actor);
                }
            }
            Ev::Control(f) => f(self),
        }
    }

    /// Run `arrive` on the actor at `dst`, detached from `actors` for the
    /// duration so it can borrow the world; counts one delivered packet.
    fn deliver<F>(
        &mut self,
        actors: &mut [Slot<M, R, F>],
        dst: NodeAddr,
        arrive: impl FnOnce(&mut dyn Actor<M, R, F>, &mut Ctx<'_, M, R>),
    ) {
        if let Some(mut actor) = actors.get_mut(dst.index()).and_then(Option::take) {
            self.stats.packets_delivered += 1;
            arrive(&mut *actor, &mut Ctx::new(self, dst));
            actors[dst.index()] = Some(actor);
        }
    }
}

/// The view an [`Actor`] callback receives: the world plus its own address.
pub struct Ctx<'a, M, R> {
    world: &'a mut World<M, R>,
    me: NodeAddr,
}

impl<'a, M, R> Ctx<'a, M, R> {
    pub(crate) fn new(world: &'a mut World<M, R>, me: NodeAddr) -> Self {
        Ctx { world, me }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// This actor's own address.
    #[inline]
    pub fn me(&self) -> NodeAddr {
        self.me
    }

    /// Send `msg` to `dst` over the configured link.
    #[inline]
    pub fn send(&mut self, dst: NodeAddr, msg: M) {
        self.world.send(self.me, dst, msg);
    }

    /// Send everything in `msgs` (drained, in order) to `dst` as one wire
    /// packet (see [`World::send_burst`]).
    #[inline]
    pub fn send_burst(&mut self, dst: NodeAddr, msgs: &mut Vec<M>) {
        self.world.send_burst(self.me, dst, msgs);
    }

    /// Send one `msg` to every destination in `dsts` (see
    /// [`World::multicast`]: equivalent to per-destination sends, but the
    /// payload is interned once instead of cloned per hop).
    #[inline]
    pub fn multicast(&mut self, dsts: &[NodeAddr], msg: M)
    where
        M: Clone,
    {
        self.world.multicast(self.me, dsts, msg);
    }

    /// Set a timer on this node.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.world.set_timer(self.me, delay, tag);
    }

    /// Append a journal record at the current time.
    #[inline]
    pub fn record(&mut self, rec: R) {
        let now = self.world.now;
        self.world.journal.record(now, rec);
    }

    /// The actors' RNG stream (links draw from their own).
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    /// Install a duplex link between this node and `peer` (e.g. a wireless
    /// association created during handoff).
    pub fn connect_duplex(&mut self, peer: NodeAddr, profile: LinkProfile) {
        self.world.topo.connect_duplex(self.me, peer, profile);
    }

    /// Remove both link directions between this node and `peer`.
    pub fn disconnect_duplex(&mut self, peer: NodeAddr) {
        self.world.topo.disconnect_duplex(self.me, peer);
    }
}

/// An actor's place in the address table: empty while the actor is
/// detached to run an event.
type Slot<M, R, F> = Option<Box<dyn Actor<M, R, F>>>;

/// The simulator: actors plus world plus the main loop. `F` is the
/// harvest its actors stop into (see [`Sim::finish`]).
pub struct Sim<M, R, F = ()> {
    actors: Vec<Slot<M, R, F>>,
    world: World<M, R>,
    started: bool,
}

impl<M, R, F> Sim<M, R, F> {
    /// Create a simulator whose actors and links draw from streams of the
    /// run seed `seed`, with journal retention on.
    pub fn new(seed: u64) -> Self {
        Sim {
            actors: Vec::new(),
            world: World::new(seed),
            started: false,
        }
    }

    /// [`Sim::new`] with journal retention set to `journal`. `_sizer` is
    /// ignored (a link has no bandwidth); only the benchmark still calls
    /// this.
    pub fn with_options(seed: u64, journal: bool, _sizer: fn(&M) -> usize) -> Self {
        let mut sim = Self::new(seed);
        sim.world.journal.set_retention(journal);
        sim
    }

    /// Add an actor; returns its address.
    pub fn add_node(&mut self, actor: Box<dyn Actor<M, R, F>>) -> NodeAddr {
        let addr = NodeAddr(self.actors.len() as u32);
        self.actors.push(Some(actor));
        addr
    }

    /// Access the world (topology, journal, stats, scheduling).
    pub fn world(&mut self) -> &mut World<M, R> {
        &mut self.world
    }

    /// Read-only stats snapshot.
    pub fn stats(&self) -> SimStats {
        self.world.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The journal of protocol records.
    pub fn journal(&self) -> &Journal<R> {
        &self.world.journal
    }

    /// Consume the simulator: stop every actor into one harvest, starting
    /// from `F::default()` ([`Actor::on_stop`], in address order; no event
    /// runs after the last `run_until`), then yield the journal records,
    /// the final stats and the harvest.
    pub fn finish(mut self) -> (Vec<(SimTime, R)>, SimStats, F)
    where
        F: Default,
    {
        let mut harvest = F::default();
        for actor in self.actors.iter_mut().flatten() {
            actor.on_stop(&mut harvest);
        }
        let stats = self.world.stats;
        (self.world.journal.into_records(), stats, harvest)
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            let mut actor = self.actors[i].take().expect("actor detached");
            let mut ctx = Ctx {
                world: &mut self.world,
                me: NodeAddr(i as u32),
            };
            actor.on_start(&mut ctx);
            self.actors[i] = Some(actor);
        }
    }

    /// Process a single event. Returns `false` when the queue is exhausted.
    /// (`M: Clone` because a multicast payload is interned once and cloned
    /// only as its pending copies surface — see [`World::multicast`].)
    pub fn step(&mut self) -> bool
    where
        M: Clone,
    {
        self.start_if_needed();
        let Some((time, ev)) = self.world.queue.pop() else {
            return false;
        };
        self.world.dispatch(&mut self.actors, time, ev);
        true
    }

    /// Run until the queue empties or simulated time would exceed `until`.
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime)
    where
        M: Clone,
    {
        self.start_if_needed();
        while let Some((time, ev)) = self.world.queue.pop_through(until) {
            self.world.dispatch(&mut self.actors, time, ev);
        }
        if self.world.now < until {
            self.world.now = until;
        }
    }

    /// Run until the event queue is exhausted, up to `max_events` (guards
    /// against protocol livelock in tests).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool
    where
        M: Clone,
    {
        self.start_if_needed();
        let budget_end = self.world.stats.events + max_events;
        while self.world.stats.events < budget_end {
            if !self.step() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Ping-pong actor: replies to every packet until a hop budget runs out.
    struct PingPong {
        peer: Option<NodeAddr>,
        hops_left: u32,
        received: u32,
    }

    impl Actor<u32, (NodeAddr, u32)> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>, from: NodeAddr, msg: u32) {
            self.received += 1;
            ctx.record((ctx.me(), msg));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send(from, msg + 1);
            }
        }
    }

    fn duplex(sim: &mut Sim<u32, (NodeAddr, u32)>, a: NodeAddr, b: NodeAddr, ms: u64) {
        sim.world()
            .topo
            .connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(ms)));
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = Sim::new(1);
        let a = sim.add_node(Box::new(PingPong {
            peer: None,
            hops_left: 5,
            received: 0,
        }));
        let b = sim.add_node(Box::new(PingPong {
            peer: Some(a),
            hops_left: 5,
            received: 0,
        }));
        duplex(&mut sim, a, b, 10);
        assert!(sim.run_to_quiescence(1_000));
        // b sends at t=0; messages bounce 10 ms apart; 11 arrivals total
        // (msg 0..=10, budget 5+5 replies + initial).
        let (records, stats, ()) = sim.finish();
        assert_eq!(records.len(), 11);
        assert_eq!(stats.packets_delivered, 11);
        // First arrival at a at 10 ms, alternating thereafter.
        assert_eq!(records[0].0, SimTime::from_millis(10));
        let seqs: Vec<u32> = records.iter().map(|(_, (_, m))| *m).collect();
        assert_eq!(seqs, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_replay() {
        fn run(seed: u64) -> Vec<(SimTime, (NodeAddr, u32))> {
            let mut sim = Sim::new(seed);
            let a = sim.add_node(Box::new(PingPong {
                peer: None,
                hops_left: 50,
                received: 0,
            }));
            let b = sim.add_node(Box::new(PingPong {
                peer: Some(a),
                hops_left: 50,
                received: 0,
            }));
            sim.world().topo.connect_duplex(
                a,
                b,
                LinkProfile::wireless(
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(4),
                    0.2,
                ),
            );
            sim.run_to_quiescence(10_000);
            let (records, _, ()) = sim.finish();
            records
        }
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor<(), u64> for TimerActor {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, (), u64>, _: NodeAddr, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, (), u64>, tag: u64) {
                self.fired.push(tag);
                ctx.record(tag);
            }
        }
        let mut sim = Sim::new(0);
        sim.add_node(Box::new(TimerActor { fired: vec![] }));
        assert!(sim.run_to_quiescence(100));
        let (records, stats, ()) = sim.finish();
        assert_eq!(
            records.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(stats.timers_fired, 3);
    }

    #[test]
    fn no_route_counts() {
        struct Sender {
            dst: NodeAddr,
        }
        impl Actor<u32, ()> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
                ctx.send(self.dst, 9);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, u32, ()>, _: NodeAddr, _: u32) {}
        }
        let mut sim: Sim<u32, ()> = Sim::new(0);
        let a = sim.add_node(Box::new(Sender { dst: NodeAddr(1) }));
        let _b = sim.add_node(Box::new(Sender { dst: a }));
        // No links installed: both sends blackhole.
        assert!(sim.run_to_quiescence(10));
        assert_eq!(sim.stats().packets_no_route, 2);
        assert_eq!(sim.stats().packets_delivered, 0);
    }

    #[test]
    fn control_events_rewire_topology() {
        struct Echo;
        impl Actor<u32, u32> for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u32>, _: NodeAddr, msg: u32) {
                ctx.record(msg);
            }
        }
        let mut sim: Sim<u32, u32> = Sim::new(0);
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        // At t=5ms install the link, then inject a packet from a to b.
        sim.world()
            .schedule_control(SimTime::from_millis(5), move |w| {
                w.topo
                    .connect(a, b, LinkProfile::wired(SimDuration::from_millis(1)));
                w.send(a, b, 77);
            });
        sim.run_until(SimTime::from_secs(1));
        let (records, _, ()) = sim.finish();
        assert_eq!(records, vec![(SimTime::from_millis(6), 77)]);
    }

    #[test]
    fn finish_stops_each_actor_once_in_address_order_and_runs_nothing_more() {
        struct Stopper {
            me: u32,
        }
        impl Actor<u32, u32, Vec<u32>> for Stopper {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u32>, _: NodeAddr, msg: u32) {
                ctx.record(msg);
            }
            fn on_stop(&mut self, stopped: &mut Vec<u32>) {
                stopped.push(self.me);
            }
        }
        let mut sim: Sim<u32, u32, Vec<u32>> = Sim::new(0);
        for me in 0..3 {
            sim.add_node(Box::new(Stopper { me }));
        }
        // One packet lands at the end of the run, one a nanosecond past it.
        let end = SimTime::from_millis(10);
        let hair = SimDuration::from_nanos(1);
        sim.world().schedule_control(SimTime::ZERO, move |w| {
            w.inject(NodeAddr(0), NodeAddr(1), 1, end - SimTime::ZERO);
            w.inject(NodeAddr(0), NodeAddr(2), 2, end - SimTime::ZERO + hair);
        });
        sim.run_until(end);
        let before = sim.stats();
        let (records, stats, stopped) = sim.finish();
        assert_eq!(stopped, vec![0, 1, 2]);
        assert_eq!(records, vec![(end, 1)], "the late packet never lands");
        assert_eq!(stats, before);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Sim<(), ()> = Sim::new(0);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn multicast_matches_per_destination_sends() {
        struct Echo;
        impl Actor<u32, (NodeAddr, u32)> for Echo {
            fn on_packet(
                &mut self,
                ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>,
                _: NodeAddr,
                msg: u32,
            ) {
                ctx.record((ctx.me(), msg));
            }
        }
        type Arrivals = Vec<(SimTime, (NodeAddr, u32))>;
        fn run(fan_out: bool) -> (Arrivals, SimStats) {
            let mut sim: Sim<u32, (NodeAddr, u32)> = Sim::new(3);
            let src = sim.add_node(Box::new(Echo));
            let dsts: Vec<NodeAddr> = (0..4).map(|_| sim.add_node(Box::new(Echo))).collect();
            for &d in &dsts {
                // Lossy links so the RNG draw order matters.
                sim.world().topo.connect(
                    src,
                    d,
                    LinkProfile::wireless(
                        SimDuration::from_millis(1),
                        SimDuration::from_millis(2),
                        0.3,
                    ),
                );
            }
            sim.world().schedule_control(SimTime::ZERO, move |w| {
                if fan_out {
                    w.multicast(src, &dsts, 7);
                } else {
                    for &d in &dsts {
                        w.send(src, d, 7);
                    }
                }
            });
            sim.run_until(SimTime::from_secs(1));
            let (records, stats, ()) = sim.finish();
            (records, stats)
        }
        assert_eq!(run(true), run(false));
    }

    /// Records every arriving message; re-bursts a burst back to its sender
    /// while the hop budget lasts.
    struct BurstEcho {
        hops_left: u32,
        buf: Vec<u32>,
    }

    impl Actor<u32, u32> for BurstEcho {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u32>, _: NodeAddr, msg: u32) {
            ctx.record(msg);
        }
        fn on_burst(
            &mut self,
            ctx: &mut Ctx<'_, u32, u32>,
            from: NodeAddr,
            msgs: std::vec::Drain<'_, u32>,
        ) {
            for msg in msgs {
                ctx.record(msg);
                self.buf.push(msg + 1);
            }
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send_burst(from, &mut self.buf);
            }
            self.buf.clear();
        }
    }

    fn burst_pair(hops: u32, profile: LinkProfile) -> (Sim<u32, u32>, NodeAddr, NodeAddr) {
        let mut sim: Sim<u32, u32> = Sim::new(5);
        let mut node = || {
            sim.add_node(Box::new(BurstEcho {
                hops_left: hops,
                buf: Vec::new(),
            }))
        };
        let (a, b) = (node(), node());
        sim.world().topo.connect_duplex(a, b, profile);
        (sim, a, b)
    }

    #[test]
    fn burst_of_one_is_a_send() {
        // Jittered and lossy, so the RNG draws would expose any difference.
        let noisy = || {
            LinkProfile::wireless(
                SimDuration::from_millis(1),
                SimDuration::from_millis(3),
                0.3,
            )
        };
        let run = |burst: bool| {
            let (mut sim, a, b) = burst_pair(0, noisy());
            sim.world().schedule_control(SimTime::ZERO, move |w| {
                for msg in 0..20 {
                    if burst {
                        w.send_burst(a, b, &mut vec![msg]);
                    } else {
                        w.send(a, b, msg);
                    }
                }
                w.send_burst(a, b, &mut Vec::new()); // an empty run is nothing
            });
            sim.run_until(SimTime::from_secs(1));
            sim.finish()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn dropped_burst_is_dropped_whole_and_counted_once() {
        let wired = LinkProfile::wired(SimDuration::from_millis(1));
        let cases = [
            (
                wired.clone().with_loss(crate::LossModel::Bernoulli(1.0)),
                true,
            ),
            (wired, false),
        ];
        for (profile, up) in cases {
            let (mut sim, a, b) = burst_pair(0, profile);
            sim.world().topo.set_duplex_up(a, b, up);
            let mut msgs = vec![1, 2, 3];
            sim.world().send_burst(a, b, &mut msgs);
            assert!(msgs.is_empty(), "a dropped burst is still consumed");
            sim.run_until(SimTime::from_secs(1));
            let (records, stats, ()) = sim.finish();
            assert!(records.is_empty(), "no member of a dropped burst arrives");
            assert_eq!(stats.packets_sent, 1);
            assert_eq!(stats.packets_delivered, 0);
            assert_eq!(
                (stats.packets_lost, stats.packets_link_down),
                (up as u64, !up as u64)
            );
        }
    }

    #[test]
    fn burst_pool_does_not_grow_under_steady_churn() {
        let (mut sim, a, b) = burst_pair(u32::MAX, LinkProfile::wired(SimDuration::from_millis(1)));
        // Four bursts in flight at any time, bouncing forever.
        for base in [0, 100, 200, 300] {
            sim.world()
                .send_burst(a, b, &mut vec![base, base + 1, base + 2]);
        }
        let pool = |sim: &Sim<u32, u32>| {
            let spare = &sim.world.bursts.spare;
            (spare.len(), spare.iter().map(Vec::capacity).sum::<usize>())
        };
        sim.run_until(SimTime::from_millis(50));
        let warm = pool(&sim);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(pool(&sim), warm, "steady churn must recycle, not grow");
        assert!(sim.stats().packets_delivered > 10_000);
    }

    #[test]
    fn downed_links_blackhole_and_count() {
        struct Echo;
        impl Actor<u32, u32> for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u32>, _: NodeAddr, msg: u32) {
                ctx.record(msg);
            }
        }
        let mut sim: Sim<u32, u32> = Sim::new(0);
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        sim.world()
            .topo
            .connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(1)));
        // Partition at t=0, heal at t=10ms; sends at 5ms (down) and 20ms (up).
        sim.world().schedule_control(SimTime::ZERO, move |w| {
            w.topo.set_duplex_up(a, b, false);
        });
        sim.world()
            .schedule_control(SimTime::from_millis(5), move |w| {
                w.send(a, b, 1);
            });
        sim.world()
            .schedule_control(SimTime::from_millis(10), move |w| {
                w.topo.set_duplex_up(a, b, true);
            });
        sim.world()
            .schedule_control(SimTime::from_millis(20), move |w| {
                w.send(a, b, 2);
            });
        sim.run_until(SimTime::from_secs(1));
        let (records, stats, ()) = sim.finish();
        assert_eq!(records, vec![(SimTime::from_millis(21), 2)]);
        assert_eq!(stats.packets_link_down, 1);
        assert_eq!(stats.packets_delivered, 1);
    }

    #[test]
    fn multiple_sinks_all_observe() {
        struct Emitter;
        impl Actor<(), u32> for Emitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u32>) {
                ctx.record(7);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, (), u32>, _: NodeAddr, _: ()) {}
        }
        let first = Rc::new(RefCell::new(Vec::new()));
        let second = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<(), u32> = Sim::new(0);
        sim.add_node(Box::new(Emitter));
        let s1 = Rc::clone(&first);
        let s2 = Rc::clone(&second);
        sim.world()
            .journal
            .add_sink(move |_, r| s1.borrow_mut().push(*r));
        sim.world()
            .journal
            .add_sink(move |_, r| s2.borrow_mut().push(*r));
        sim.run_until(SimTime::from_millis(1));
        let (records, _, ()) = sim.finish();
        assert_eq!(records.len(), 1, "retention stays on alongside sinks");
        assert_eq!(*first.borrow(), vec![7]);
        assert_eq!(*second.borrow(), vec![7]);
    }

    #[test]
    fn journal_sink_observes_without_retention() {
        struct Emitter;
        impl Actor<(), u32> for Emitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u32>) {
                ctx.record(1);
                ctx.record(2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, (), u32>, _: NodeAddr, _: ()) {}
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<(), u32> = Sim::new(0);
        sim.add_node(Box::new(Emitter));
        let sink_seen = Rc::clone(&seen);
        sim.world().journal.set_retention(false);
        sim.world()
            .journal
            .set_sink(move |t, r| sink_seen.borrow_mut().push((t, *r)));
        sim.run_until(SimTime::from_millis(1));
        let (records, _, ()) = sim.finish();
        assert!(records.is_empty(), "retention off keeps nothing");
        assert_eq!(
            *seen.borrow(),
            vec![(SimTime::ZERO, 1), (SimTime::ZERO, 2)],
            "sink observed every record in order"
        );
    }
}
