//! The discrete-event simulator.
//!
//! A [`Sim`] owns a set of [`Actor`]s (protocol endpoints), a [`Topology`] of
//! lossy/delaying links, a deterministic event queue and an RNG stream. It is
//! generic over the wire-message type `M` and the journal-record type `R`
//! that actors emit for offline analysis (deliveries, handoffs, …).
//!
//! Determinism contract: with equal `(actors, topology, seed, schedule of
//! control events)`, two runs produce byte-identical journals. Everything
//! stochastic draws from the single per-simulation [`SimRng`]; ties in the
//! event queue resolve by insertion order.

use crate::event::{EventHandle, EventQueue};
use crate::link::{LinkProfile, TxOutcome};
use crate::rng::SimRng;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};
use crate::topo::{NodeAddr, Topology};

/// A protocol endpoint living at one [`NodeAddr`].
pub trait Actor<M, R> {
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
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M, R>, tag: u64);
}

/// Handle to a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(EventHandle);

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
    /// Packets dropped by full bandwidth queues.
    pub packets_queue_dropped: u64,
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
pub type JournalSink<R> = Box<dyn FnMut(SimTime, &R) + Send>;

impl<R> Journal<R> {
    pub(crate) fn new(retain: bool) -> Self {
        Journal {
            retain,
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
    pub fn set_sink(&mut self, sink: impl FnMut(SimTime, &R) + Send + 'static) {
        self.sinks.clear();
        self.sinks.push(Box::new(sink));
    }

    /// Attach an additional streaming observer without disturbing the ones
    /// already installed. Observers run in attachment order.
    pub fn add_sink(&mut self, sink: impl FnMut(SimTime, &R) + Send + 'static) {
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

    /// Drain the retained records in emission order, keeping the buffer's
    /// capacity. The sharded runtime uses this to move each window's
    /// per-shard records into the merged master journal.
    pub(crate) fn drain_records(&mut self) -> std::vec::Drain<'_, (SimTime, R)> {
        self.records.drain(..)
    }

    /// Consume the journal, yielding its records.
    pub fn into_records(self) -> Vec<(SimTime, R)> {
        self.records
    }
}

/// A deferred closure run over the world (scenario control events).
pub(crate) type ControlFn<M, R> = Box<dyn FnOnce(&mut World<M, R>) + Send>;

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

/// Cross-shard routing state carried by a shard's [`World`] (`None` in
/// sequential simulations). Deliveries whose destination lives on another
/// shard are diverted to the outbox instead of the local event queue; the
/// sharded coordinator drains outboxes at every window barrier and merges
/// them into the destination shards by `(time, src_shard, seq)`.
pub(crate) struct ShardRoute<M> {
    /// This world's shard id.
    pub(crate) my_shard: u32,
    /// Global node → owning shard (shared, immutable for the run).
    pub(crate) shard_of: std::sync::Arc<Vec<u32>>,
    /// Deliveries bound for other shards, accumulated during one window.
    pub(crate) outbox: Vec<Outgoing<M>>,
    /// Monotonic per-shard send counter (cross-shard tie-break).
    pub(crate) seq: u64,
}

/// One cross-shard delivery: already past the link models, just waiting to
/// be admitted into the destination shard's queue at the next barrier.
pub(crate) struct Outgoing<M> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) src: NodeAddr,
    pub(crate) dst: NodeAddr,
    pub(crate) load: Load<M>,
}

/// What one wire packet carries across a shard boundary: a message, or a
/// burst's run (owned — the burst pools are shard-local).
pub(crate) enum Load<M> {
    One(M),
    Run(Vec<M>),
}

impl<M> ShardRoute<M> {
    #[inline]
    fn is_remote(&self, dst: NodeAddr) -> bool {
        self.shard_of
            .get(dst.index())
            .is_some_and(|&s| s != self.my_shard)
    }

    #[inline]
    fn push(&mut self, at: SimTime, src: NodeAddr, dst: NodeAddr, load: Load<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.outbox.push(Outgoing {
            at,
            seq,
            src,
            dst,
            load,
        });
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
    /// Cross-shard routing (sharded runs only, see [`ShardRoute`]).
    route: Option<Box<ShardRoute<M>>>,
    /// The link table. Public so control events and scenario code can rewire
    /// the network mid-run (handoffs, failures).
    pub topo: Topology,
    /// The per-simulation RNG stream.
    pub rng: SimRng,
    /// The protocol-event journal.
    pub journal: Journal<R>,
    /// Transport counters.
    pub stats: SimStats,
    /// Per-packet wire size charged to bandwidth models, by message.
    sizer: fn(&M) -> usize,
}

impl<M, R> World<M, R> {
    pub(crate) fn new_inner(rng: SimRng, journal: bool, sizer: fn(&M) -> usize) -> Self {
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            fans: RunPool::new(),
            bursts: RunPool::new(),
            mc_buf: Vec::new(),
            route: None,
            topo: Topology::new(),
            rng,
            journal: Journal::new(journal),
            stats: SimStats::default(),
            sizer,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attach cross-shard routing (sharded runs only).
    pub(crate) fn set_route(&mut self, my_shard: u32, shard_of: std::sync::Arc<Vec<u32>>) {
        self.route = Some(Box::new(ShardRoute {
            my_shard,
            shard_of,
            outbox: Vec::new(),
            seq: 0,
        }));
    }

    /// Move out the cross-shard deliveries accumulated this window.
    pub(crate) fn take_outbox(&mut self, into: &mut Vec<Outgoing<M>>) {
        if let Some(route) = &mut self.route {
            into.append(&mut route.outbox);
        }
    }

    /// Earliest pending local event, if any.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pop the earliest local event if it is due strictly before `bound`
    /// (sharded drain loop).
    pub(crate) fn pop_event_below(&mut self, bound: SimTime) -> Option<(SimTime, Ev<M, R>)> {
        if self.queue.peek_time()? < bound {
            self.queue.pop()
        } else {
            None
        }
    }

    /// Force the local clock (window barriers in sharded runs).
    pub(crate) fn set_now(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "shard clock went backwards");
        self.now = now;
    }

    /// Schedule an already-transmitted packet at its arrival time (cross-
    /// shard admission; bypasses the link models, which already ran on the
    /// sending shard).
    pub(crate) fn admit(&mut self, at: SimTime, src: NodeAddr, dst: NodeAddr, load: Load<M>) {
        let ev = match load {
            Load::One(msg) => Ev::Packet { src, dst, msg },
            Load::Run(run) => {
                let slot = self.bursts.put(dst, run);
                Ev::Burst { src, slot }
            }
        };
        self.queue.schedule(at, ev);
    }

    /// The cross-shard route, when `dst` lives on another shard.
    fn remote(&mut self, dst: NodeAddr) -> Option<&mut ShardRoute<M>> {
        self.route.as_deref_mut().filter(|r| r.is_remote(dst))
    }

    /// Offer one wire packet of `size` bytes to the `src → dst` link,
    /// applying bandwidth, loss and latency: its arrival time if it gets
    /// through, otherwise `None` with the drop counted. Packets without a
    /// link are counted in [`SimStats::packets_no_route`] (an unreachable
    /// destination, exactly like a black-holed IP packet).
    fn offer(&mut self, src: NodeAddr, dst: NodeAddr, size: usize) -> Option<SimTime> {
        self.stats.packets_sent += 1;
        let Some(link) = self.topo.link_mut(src, dst) else {
            self.stats.packets_no_route += 1;
            return None;
        };
        match link.transmit(self.now, size, &mut self.rng) {
            TxOutcome::Deliver(at) => return Some(at),
            TxOutcome::Lost => self.stats.packets_lost += 1,
            TxOutcome::QueueDrop => self.stats.packets_queue_dropped += 1,
            TxOutcome::Down => self.stats.packets_link_down += 1,
        }
        None
    }

    /// Schedule `msg`'s arrival at `dst`, here or on the shard owning it.
    fn land(&mut self, at: SimTime, src: NodeAddr, dst: NodeAddr, msg: M) {
        match self.remote(dst) {
            Some(route) => route.push(at, src, dst, Load::One(msg)),
            None => {
                self.queue.schedule(at, Ev::Packet { src, dst, msg });
            }
        }
    }

    /// Transmit `msg` from `src` to `dst` over the configured link, applying
    /// bandwidth, loss and latency; a packet the link drops, or that has no
    /// link, is counted in [`SimStats`] and silently gone.
    pub fn send(&mut self, src: NodeAddr, dst: NodeAddr, msg: M) {
        let size = (self.sizer)(&msg);
        if let Some(at) = self.offer(src, dst, size) {
            self.land(at, src, dst, msg);
        }
    }

    /// Transmit everything in `msgs` (drained, in order) from `src` to
    /// `dst` as **one wire packet**: one [`SimStats::packets_sent`], one
    /// offer to the link charged the sum of the members' sizes, hence one
    /// loss and one latency draw — the burst arrives whole, through
    /// [`Actor::on_burst`], or not at all — and one queue event. On a link
    /// that draws nothing every member arrives exactly when, and in the
    /// order, per-message [`World::send`]s would have delivered it. A run
    /// of one *is* a [`World::send`]; an empty run sends nothing.
    pub fn send_burst(&mut self, src: NodeAddr, dst: NodeAddr, msgs: &mut Vec<M>) {
        if msgs.len() < 2 {
            if let Some(msg) = msgs.pop() {
                self.send(src, dst, msg);
            }
            return;
        }
        let size = msgs.iter().map(self.sizer).sum();
        let Some(at) = self.offer(src, dst, size) else {
            msgs.clear();
            return;
        };
        match self.remote(dst) {
            Some(route) => route.push(at, src, dst, Load::Run(std::mem::take(msgs))),
            None => {
                let slot = self.bursts.put(dst, msgs.drain(..));
                self.queue.schedule(at, Ev::Burst { src, slot });
            }
        }
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
        self.land(self.now + delay, src, dst, msg);
    }

    /// Set a timer for `node` firing after `delay` with the given tag.
    pub fn set_timer(&mut self, node: NodeAddr, delay: SimDuration, tag: u64) -> TimerHandle {
        TimerHandle(
            self.queue
                .schedule(self.now + delay, Ev::Timer { node, tag }),
        )
    }

    /// Cancel a pending timer. Returns `true` if it had not fired yet.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.queue.cancel(handle.0)
    }

    /// Transmit one `msg` from `src` to every destination in `dsts`,
    /// applying each link's bandwidth, loss and latency independently —
    /// byte-for-byte equivalent to calling [`World::send`] once per
    /// destination (same RNG draw order, same tie-break order), but the
    /// payload is interned once and shared by all pending copies instead
    /// of being cloned per hop.
    pub fn multicast(&mut self, src: NodeAddr, dsts: &[NodeAddr], msg: M)
    where
        M: Clone,
    {
        let size = (self.sizer)(&msg);
        let mut deliveries = std::mem::take(&mut self.mc_buf);
        deliveries.clear();
        for &dst in dsts {
            if let Some(at) = self.offer(src, dst, size) {
                deliveries.push((dst, at));
            }
        }
        // Cross-shard copies leave through the outbox (cloned per copy —
        // the shared pool is shard-local); local copies keep the interned
        // fan-out representation.
        if let Some(route) = &mut self.route {
            if deliveries.iter().any(|&(dst, _)| route.is_remote(dst)) {
                let mut kept = 0usize;
                for i in 0..deliveries.len() {
                    let (dst, at) = deliveries[i];
                    if route.is_remote(dst) {
                        // ringlint: allow(hot-clone) — audited: cross-shard hand-off;
                        // the remote shard's inbox must own its copy, and only
                        // remote recipients (a minority of a fan-out) pay it.
                        route.push(at, src, dst, Load::One(msg.clone()));
                    } else {
                        deliveries[kept] = (dst, at);
                        kept += 1;
                    }
                }
                deliveries.truncate(kept);
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
    pub fn schedule_control(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut World<M, R>) + Send + 'static,
    ) {
        let at = if at < self.now { self.now } else { at };
        self.queue.schedule(at, Ev::Control(Box::new(f)));
    }
}

impl<M: Clone, R> World<M, R> {
    /// Advance the clock to `time` and hand `ev` to the actor it concerns —
    /// the one place an event meets its actor, shared by [`Sim::step`] and
    /// the sharded drain loop. `actors` is indexed by address; an absent
    /// entry (the address never existed, or lives on another shard) drops
    /// the event.
    pub(crate) fn dispatch<A: Actor<M, R> + ?Sized>(
        &mut self,
        actors: &mut [Option<Box<A>>],
        time: SimTime,
        ev: Ev<M, R>,
    ) {
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
    fn deliver<A: ?Sized>(
        &mut self,
        actors: &mut [Option<Box<A>>],
        dst: NodeAddr,
        arrive: impl FnOnce(&mut A, &mut Ctx<'_, M, R>),
    ) {
        if let Some(mut actor) = actors.get_mut(dst.index()).and_then(Option::take) {
            self.stats.packets_delivered += 1;
            arrive(&mut actor, &mut Ctx::new(self, dst));
            actors[dst.index()] = Some(actor);
        }
    }
}

/// The network-mutation surface scenario control closures run against.
///
/// Implemented by the sequential [`World`] and by the sharded runtime's
/// barrier-time view ([`crate::shard::NetView`]), so one control body —
/// handoffs, joins, partitions, fault injection — drives either execution
/// mode without caring which is underneath.
pub trait NetOps<M> {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Inject a packet arriving at `dst` after `delay`, bypassing links.
    fn inject(&mut self, src: NodeAddr, dst: NodeAddr, msg: M, delay: SimDuration);
    /// Install a duplex link between `a` and `b`.
    fn connect_duplex(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile);
    /// Remove both link directions between `a` and `b`.
    fn disconnect_duplex(&mut self, a: NodeAddr, b: NodeAddr);
    /// Set the administrative up/down state of the directed link
    /// `src → dst`. Returns `true` when the link exists.
    fn set_link_up(&mut self, src: NodeAddr, dst: NodeAddr, up: bool) -> bool;
    /// Set the administrative up/down state of both directions. Returns
    /// `true` when either direction exists.
    fn set_duplex_up(&mut self, a: NodeAddr, b: NodeAddr, up: bool) -> bool {
        let fwd = self.set_link_up(a, b, up);
        let rev = self.set_link_up(b, a, up);
        fwd || rev
    }
    /// True when the directed link `src → dst` exists.
    fn has_link(&self, src: NodeAddr, dst: NodeAddr) -> bool;
    /// `src`'s outgoing neighbours, in address order.
    fn neighbours_of(&self, src: NodeAddr) -> Vec<NodeAddr>;
}

impl<M, R> NetOps<M> for World<M, R> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn inject(&mut self, src: NodeAddr, dst: NodeAddr, msg: M, delay: SimDuration) {
        World::inject(self, src, dst, msg, delay);
    }

    fn connect_duplex(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.topo.connect_duplex(a, b, profile);
    }

    fn disconnect_duplex(&mut self, a: NodeAddr, b: NodeAddr) {
        self.topo.disconnect_duplex(a, b);
    }

    fn set_link_up(&mut self, src: NodeAddr, dst: NodeAddr, up: bool) -> bool {
        self.topo.set_link_up(src, dst, up)
    }

    fn has_link(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        self.topo.has_link(src, dst)
    }

    fn neighbours_of(&self, src: NodeAddr) -> Vec<NodeAddr> {
        self.topo.neighbours(src).collect()
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
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerHandle {
        self.world.set_timer(self.me, delay, tag)
    }

    /// Cancel a pending timer.
    #[inline]
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.world.cancel_timer(handle)
    }

    /// Append a journal record at the current time.
    #[inline]
    pub fn record(&mut self, rec: R) {
        let now = self.world.now;
        self.world.journal.record(now, rec);
    }

    /// The per-simulation RNG.
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

/// The simulator: actors plus world plus the main loop.
pub struct Sim<M, R> {
    actors: Vec<Option<Box<dyn Actor<M, R>>>>,
    world: World<M, R>,
    started: bool,
}

impl<M, R> Sim<M, R> {
    /// Create a simulator with journalling enabled and default packet size 0.
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, true, |_| 0)
    }

    /// Create with explicit journalling flag and a wire-size function used to
    /// charge bandwidth models.
    pub fn with_options(seed: u64, journal: bool, sizer: fn(&M) -> usize) -> Self {
        Sim {
            actors: Vec::new(),
            world: World::new_inner(SimRng::from_seed(seed), journal, sizer),
            started: false,
        }
    }

    /// Add an actor; returns its address.
    pub fn add_node(&mut self, actor: Box<dyn Actor<M, R>>) -> NodeAddr {
        let addr = NodeAddr(self.actors.len() as u32);
        self.actors.push(Some(actor));
        addr
    }

    /// Number of actors.
    pub fn node_count(&self) -> usize {
        self.actors.len()
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

    /// Consume the simulator, yielding the journal records and final stats.
    pub fn finish(self) -> (Vec<(SimTime, R)>, SimStats) {
        let stats = self.world.stats;
        (self.world.journal.into_records(), stats)
    }

    /// Borrow an actor by address (e.g. to inspect its final state).
    ///
    /// Panics if called while that actor is executing (impossible from
    /// outside the run loop).
    pub fn actor(&self, addr: NodeAddr) -> &dyn Actor<M, R> {
        self.actors[addr.index()]
            .as_deref()
            .expect("actor detached")
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
        loop {
            match self.world.queue.peek_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
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
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>, _tag: u64) {}
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
        let (records, stats) = sim.finish();
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
            let (records, _) = sim.finish();
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
                let h = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(h);
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
        let (records, stats) = sim.finish();
        assert_eq!(
            records.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(stats.timers_fired, 2);
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
            fn on_timer(&mut self, _: &mut Ctx<'_, u32, ()>, _: u64) {}
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
            fn on_timer(&mut self, _: &mut Ctx<'_, u32, u32>, _: u64) {}
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
        let (records, _) = sim.finish();
        assert_eq!(records, vec![(SimTime::from_millis(6), 77)]);
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
            fn on_timer(&mut self, _: &mut Ctx<'_, u32, (NodeAddr, u32)>, _: u64) {}
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
            sim.finish()
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
        fn on_timer(&mut self, _: &mut Ctx<'_, u32, u32>, _: u64) {}
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
            let (records, stats) = sim.finish();
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
            fn on_timer(&mut self, _: &mut Ctx<'_, u32, u32>, _: u64) {}
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
        let (records, stats) = sim.finish();
        assert_eq!(records, vec![(SimTime::from_millis(21), 2)]);
        assert_eq!(stats.packets_link_down, 1);
        assert_eq!(stats.packets_delivered, 1);
    }

    #[test]
    fn multiple_sinks_all_observe() {
        use std::sync::{Arc, Mutex};
        struct Emitter;
        impl Actor<(), u32> for Emitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u32>) {
                ctx.record(7);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, (), u32>, _: NodeAddr, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, (), u32>, _: u64) {}
        }
        let first = Arc::new(Mutex::new(Vec::new()));
        let second = Arc::new(Mutex::new(Vec::new()));
        let mut sim: Sim<(), u32> = Sim::new(0);
        sim.add_node(Box::new(Emitter));
        let s1 = Arc::clone(&first);
        let s2 = Arc::clone(&second);
        sim.world()
            .journal
            .add_sink(move |_, r| s1.lock().unwrap().push(*r));
        sim.world()
            .journal
            .add_sink(move |_, r| s2.lock().unwrap().push(*r));
        sim.run_until(SimTime::from_millis(1));
        let (records, _) = sim.finish();
        assert_eq!(records.len(), 1, "retention stays on alongside sinks");
        assert_eq!(*first.lock().unwrap(), vec![7]);
        assert_eq!(*second.lock().unwrap(), vec![7]);
    }

    #[test]
    fn journal_sink_observes_without_retention() {
        use std::sync::{Arc, Mutex};
        struct Emitter;
        impl Actor<(), u32> for Emitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u32>) {
                ctx.record(1);
                ctx.record(2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, (), u32>, _: NodeAddr, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, (), u32>, _: u64) {}
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sim: Sim<(), u32> = Sim::new(0);
        sim.add_node(Box::new(Emitter));
        let sink_seen = Arc::clone(&seen);
        sim.world().journal.set_retention(false);
        sim.world()
            .journal
            .set_sink(move |t, r| sink_seen.lock().unwrap().push((t, *r)));
        sim.run_until(SimTime::from_millis(1));
        let (records, _) = sim.finish();
        assert!(records.is_empty(), "retention off keeps nothing");
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(SimTime::ZERO, 1), (SimTime::ZERO, 2)],
            "sink observed every record in order"
        );
    }
}
