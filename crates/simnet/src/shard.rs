//! Conservative parallel simulation: a world sharded into independently
//! drained event queues with null-message-style lookahead.
//!
//! A [`ShardedSim`] partitions the node population into shards (the caller
//! supplies the node → shard map; the engine shards per attachment
//! subtree). Each shard owns its actors, its own two-level calendar queue,
//! its own RNG stream, and the *outgoing* half of every link whose source
//! it owns. Intra-shard traffic never synchronizes; cross-shard deliveries
//! leave through a per-shard outbox and are admitted into the destination
//! shard at the next window barrier, merged by `(time, src_shard, seq)`.
//!
//! The run loop is a sequence of bulk-synchronous windows. With `M` the
//! earliest pending event across shards, `L` the **lookahead** (the
//! minimum of `min_delay` over every cross-shard link), and `Tc` the next
//! scheduled control time, every shard may safely drain all events
//! strictly below `W = min(M + L, Tc, until + 1ns)`: an event processed in
//! the window has time `t ≥ M`, so any cross-shard delivery it causes
//! arrives at `t + d ≥ M + L ≥ W` — never inside the window being drained.
//! Scenario controls run coordinator-side at window barriers against a
//! [`NetView`] spanning every shard, so one control body (written against
//! [`NetOps`]) drives sequential and sharded execution alike.
//!
//! Determinism contract: **byte-identical journals per `(seed, shard
//! count)`** — worker-thread count never affects results, because shards
//! drain independently and every merge point (cross-shard admission,
//! journal interleaving, control order) is sorted by a total order.
//! Across *different* shard counts the journals interleave differently and
//! per-shard RNG streams diverge, so equivalence is semantic (identical
//! per-walker delivery sets on loss-free fixed-latency worlds), not
//! byte-level.

use std::sync::mpsc;
use std::sync::Arc;

use crate::link::LinkProfile;
use crate::rng::SimRng;
use crate::sim::{Actor, Ctx, Journal, Load, NetOps, Outgoing, SimStats, World};
use crate::time::{SimDuration, SimTime};
use crate::topo::NodeAddr;

/// One shard: the actors it owns plus its private [`World`]. The actor
/// vector is indexed by *global* node id (`None` for nodes owned
/// elsewhere), so addresses mean the same thing on every shard.
struct Shard<M, R> {
    actors: Vec<Option<Box<dyn Actor<M, R> + Send>>>,
    world: World<M, R>,
}

impl<M: Clone, R> Shard<M, R> {
    /// Drain every local event strictly below `w_end` (the window bound).
    fn drain_below(&mut self, w_end: SimTime) {
        while let Some((time, ev)) = self.world.pop_event_below(w_end) {
            self.world.dispatch(&mut self.actors, time, ev);
        }
    }
}

/// The boxed body of a scheduled coordinator-side control closure.
type ControlBody<M, R> = Box<dyn for<'a> FnOnce(&mut NetView<'a, M, R>) + Send>;

/// A scheduled coordinator-side control closure.
struct Control<M, R> {
    at: SimTime,
    seq: u64,
    f: ControlBody<M, R>,
}

/// The barrier-time view a sharded control closure runs against: it can
/// inject packets and rewire links on *any* shard, because every shard is
/// parked at the barrier while controls run. Implements [`NetOps`], the
/// same surface the sequential [`World`] offers control bodies.
pub struct NetView<'a, M, R> {
    now: SimTime,
    cells: &'a mut [Option<Shard<M, R>>],
    shard_of: &'a [u32],
    topo_dirty: &'a mut bool,
}

impl<M, R> NetView<'_, M, R> {
    fn owner(&self, node: NodeAddr) -> usize {
        self.shard_of.get(node.index()).copied().unwrap_or(0) as usize
    }

    fn world(&mut self, shard: usize) -> &mut World<M, R> {
        &mut self.cells[shard]
            .as_mut()
            .expect("shard checked in while a control ran")
            .world
    }

    fn world_ref(&self, shard: usize) -> &World<M, R> {
        &self.cells[shard]
            .as_ref()
            .expect("shard checked in while a control ran")
            .world
    }
}

impl<M, R> NetOps<M> for NetView<'_, M, R> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn inject(&mut self, src: NodeAddr, dst: NodeAddr, msg: M, delay: SimDuration) {
        let at = self.now + delay;
        let owner = self.owner(dst);
        self.world(owner).admit(at, src, dst, Load::One(msg));
    }

    fn connect_duplex(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        let (oa, ob) = (self.owner(a), self.owner(b));
        self.world(oa).topo.connect(a, b, profile.clone());
        self.world(ob).topo.connect(b, a, profile);
        *self.topo_dirty = true;
    }

    fn disconnect_duplex(&mut self, a: NodeAddr, b: NodeAddr) {
        let (oa, ob) = (self.owner(a), self.owner(b));
        self.world(oa).topo.disconnect(a, b);
        self.world(ob).topo.disconnect(b, a);
        *self.topo_dirty = true;
    }

    fn set_link_up(&mut self, src: NodeAddr, dst: NodeAddr, up: bool) -> bool {
        let owner = self.owner(src);
        self.world(owner).topo.set_link_up(src, dst, up)
    }

    fn has_link(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        self.world_ref(self.owner(src)).topo.has_link(src, dst)
    }

    fn neighbours_of(&self, src: NodeAddr) -> Vec<NodeAddr> {
        self.world_ref(self.owner(src))
            .topo
            .neighbours(src)
            .collect()
    }
}

/// A unit of window work shipped to a worker thread.
struct Job<M, R> {
    idx: usize,
    shard: Shard<M, R>,
    w_end: SimTime,
}

/// The per-`run_until` worker pool: shards travel to workers and back
/// through channels each window, so the coordinator regains full ownership
/// at every barrier.
struct Pool<M, R> {
    senders: Vec<mpsc::Sender<Job<M, R>>>,
    ret: mpsc::Receiver<(usize, Shard<M, R>)>,
}

/// A sharded discrete-event simulator (see the module docs for the window
/// protocol and the determinism contract).
pub struct ShardedSim<M, R> {
    cells: Vec<Option<Shard<M, R>>>,
    shard_of: Arc<Vec<u32>>,
    /// Master journal: carries retention policy and streaming sinks; fed
    /// from the per-window merge of the shard journals.
    journal: Journal<R>,
    controls: Vec<Control<M, R>>,
    ctl_seq: u64,
    now: SimTime,
    /// `min(min_delay)` over cross-shard links; `None` when no cross-shard
    /// link exists (shards are then mutually invisible and drain freely).
    lookahead: Option<SimDuration>,
    lookahead_dirty: bool,
    workers: usize,
    started: bool,
    n_nodes: usize,
    merge_buf: Vec<(SimTime, u32, u32, R)>,
    admit_buf: Vec<Outgoing<M>>,
}

impl<M, R> ShardedSim<M, R> {
    /// Create a sharded simulator. `shard_of` maps every node that will be
    /// added (in [`ShardedSim::add_node`] order) to its owning shard, and
    /// must only name shards below `shards`. Each shard draws from its own
    /// RNG stream derived from `(seed, shard id)`.
    pub fn new(
        seed: u64,
        shards: usize,
        shard_of: Vec<u32>,
        journal: bool,
        sizer: fn(&M) -> usize,
    ) -> Self {
        assert!(shards >= 1, "a sharded sim needs at least one shard");
        assert!(
            shard_of.iter().all(|&s| (s as usize) < shards),
            "shard map names a shard >= the shard count {shards}"
        );
        let cells = (0..shards)
            .map(|s| {
                Some(Shard {
                    actors: Vec::new(),
                    // Shard journals are window buffers: always retained,
                    // drained into the master at every barrier.
                    world: World::new_inner(SimRng::derive(seed, s as u64), true, sizer),
                })
            })
            .collect();
        ShardedSim {
            cells,
            shard_of: Arc::new(shard_of),
            journal: Journal::new(journal),
            controls: Vec::new(),
            ctl_seq: 0,
            now: SimTime::ZERO,
            lookahead: None,
            lookahead_dirty: true,
            workers: 0,
            started: false,
            n_nodes: 0,
            merge_buf: Vec::new(),
            admit_buf: Vec::new(),
        }
    }

    /// Worker threads used to drain windows: `0` (the default) picks the
    /// machine's available parallelism, clamped to the shard count. The
    /// choice never affects results — only wall-clock time.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Add an actor at the next global address; it lives on the shard the
    /// shard map assigns to that address.
    pub fn add_node(&mut self, actor: Box<dyn Actor<M, R> + Send>) -> NodeAddr {
        let idx = self.n_nodes;
        assert!(
            idx < self.shard_of.len(),
            "node {idx} added past the shard map (covers {} nodes)",
            self.shard_of.len()
        );
        let owner = self.shard_of[idx] as usize;
        for cell in &mut self.cells {
            cell.as_mut()
                .expect("shard checked in between runs")
                .actors
                .push(None);
        }
        self.cells[owner]
            .as_mut()
            .expect("shard checked in between runs")
            .actors[idx] = Some(actor);
        self.n_nodes += 1;
        NodeAddr(idx as u32)
    }

    /// Install a directed link `src → dst`; it lives in `src`'s shard.
    pub(crate) fn connect(&mut self, src: NodeAddr, dst: NodeAddr, profile: LinkProfile) {
        let owner = self.shard_of.get(src.index()).copied().unwrap_or(0) as usize;
        self.cells[owner]
            .as_mut()
            .expect("shard checked in between runs")
            .world
            .topo
            .connect(src, dst, profile);
        self.lookahead_dirty = true;
    }

    /// Install the same profile in both directions.
    pub fn connect_duplex(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.connect(a, b, profile.clone());
        self.connect(b, a, profile);
    }

    /// Pre-size the pending-event storage, split across shards.
    pub fn reserve_events(&mut self, additional: usize) {
        let per = additional / self.cells.len() + 1;
        for cell in &mut self.cells {
            cell.as_mut()
                .expect("shard checked in between runs")
                .world
                .reserve_events(per);
        }
    }

    /// The master journal (retention policy, streaming sinks, merged
    /// records).
    pub fn journal_mut(&mut self) -> &mut Journal<R> {
        &mut self.journal
    }

    /// Read access to the master journal.
    pub fn journal(&self) -> &Journal<R> {
        &self.journal
    }

    /// Current simulated time (the last completed barrier).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current conservative lookahead, if any cross-shard link exists.
    pub fn lookahead(&mut self) -> Option<SimDuration> {
        if self.lookahead_dirty {
            self.recompute_lookahead();
        }
        self.lookahead
    }

    /// Aggregate transport counters over every shard.
    pub fn stats(&self) -> SimStats {
        let mut sum = SimStats::default();
        for cell in &self.cells {
            let s = cell
                .as_ref()
                .expect("shard checked in between runs")
                .world
                .stats;
            sum.events += s.events;
            sum.packets_sent += s.packets_sent;
            sum.packets_delivered += s.packets_delivered;
            sum.packets_lost += s.packets_lost;
            sum.packets_no_route += s.packets_no_route;
            sum.packets_queue_dropped += s.packets_queue_dropped;
            sum.packets_link_down += s.packets_link_down;
            sum.timers_fired += s.timers_fired;
        }
        sum
    }

    /// Schedule a control closure at `at` (clamped to the current barrier).
    /// Controls run coordinator-side at window barriers, in scheduling
    /// order among equal times, against a [`NetView`] spanning all shards.
    pub fn schedule_control(
        &mut self,
        at: SimTime,
        f: impl for<'a> FnOnce(&mut NetView<'a, M, R>) + Send + 'static,
    ) {
        let at = if at < self.now { self.now } else { at };
        let seq = self.ctl_seq;
        self.ctl_seq += 1;
        self.controls.push(Control {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Consume the simulator, yielding the merged journal records and the
    /// aggregate stats.
    pub fn finish(self) -> (Vec<(SimTime, R)>, SimStats) {
        let stats = self.stats();
        (self.journal.into_records(), stats)
    }

    fn recompute_lookahead(&mut self) {
        self.lookahead_dirty = false;
        let mut lookahead: Option<SimDuration> = None;
        for (s, cell) in self.cells.iter().enumerate() {
            let world = &cell.as_ref().expect("shard checked in between runs").world;
            for (src, dst, link) in world.topo.iter() {
                let ds = self.shard_of.get(dst.index()).copied().unwrap_or(s as u32);
                if ds as usize == s {
                    continue;
                }
                let d = link.profile().latency.min_delay();
                assert!(
                    !d.is_zero(),
                    "cross-shard link {src:?} → {dst:?} has zero minimum latency; \
                     conservative sharded execution requires a nonzero delay on \
                     every cross-shard edge"
                );
                lookahead = Some(lookahead.map_or(d, |l| l.min(d)));
            }
        }
        self.lookahead = lookahead;
    }

    /// Move every shard outbox into the destination queues, merged by
    /// `(arrival time, src shard, send seq)` — the cross-shard admission
    /// order that makes the interleave deterministic.
    fn admit_outboxes(&mut self) {
        let mut buf = std::mem::take(&mut self.admit_buf);
        for cell in &mut self.cells {
            cell.as_mut()
                .expect("shard checked in between runs")
                .world
                .take_outbox(&mut buf);
        }
        if buf.is_empty() {
            self.admit_buf = buf;
            return;
        }
        let shard_of = Arc::clone(&self.shard_of);
        let src_shard = |o: &Outgoing<M>| shard_of.get(o.src.index()).copied().unwrap_or(0);
        buf.sort_unstable_by_key(|o| (o.at, src_shard(o), o.seq));
        for o in buf.drain(..) {
            let owner = self.shard_of.get(o.dst.index()).copied().unwrap_or(0) as usize;
            self.cells[owner]
                .as_mut()
                .expect("shard checked in between runs")
                .world
                .admit(o.at, o.src, o.dst, o.load);
        }
        self.admit_buf = buf;
    }

    /// Drain each shard's journal buffer into the master, interleaved by
    /// `(time, shard, emission order)` — globally time-nondecreasing
    /// because window `k` records all precede the window-`k` barrier.
    fn merge_window_journals(&mut self) {
        let mut buf = std::mem::take(&mut self.merge_buf);
        for (s, cell) in self.cells.iter_mut().enumerate() {
            let world = &mut cell.as_mut().expect("shard checked in between runs").world;
            for (pos, (t, rec)) in world.journal.drain_records().enumerate() {
                buf.push((t, s as u32, pos as u32, rec));
            }
        }
        buf.sort_unstable_by_key(|&(t, s, pos, _)| (t, s, pos));
        for (t, _, _, rec) in buf.drain(..) {
            self.journal.record(t, rec);
        }
        self.merge_buf = buf;
    }

    fn run_controls_at(&mut self, at: SimTime) {
        let mut due: Vec<Control<M, R>> = Vec::new();
        let mut i = 0;
        while i < self.controls.len() {
            if self.controls[i].at == at {
                due.push(self.controls.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_unstable_by_key(|c| c.seq);
        for cell in &mut self.cells {
            cell.as_mut()
                .expect("shard checked in between runs")
                .world
                .set_now(at);
        }
        let mut dirty = false;
        {
            let mut view = NetView {
                now: at,
                cells: &mut self.cells,
                shard_of: &self.shard_of,
                topo_dirty: &mut dirty,
            };
            for ctl in due {
                (ctl.f)(&mut view);
            }
        }
        if dirty {
            self.lookahead_dirty = true;
        }
    }
}

impl<M: Clone + Send, R: Send> ShardedSim<M, R> {
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Wire each shard's cross-shard routing now that the population is
        // final, then run on_start in global address order.
        for (s, cell) in self.cells.iter_mut().enumerate() {
            cell.as_mut()
                .expect("shard checked in between runs")
                .world
                .set_route(s as u32, Arc::clone(&self.shard_of));
        }
        for i in 0..self.n_nodes {
            let owner = self.shard_of[i] as usize;
            let cell = self.cells[owner]
                .as_mut()
                .expect("shard checked in between runs");
            let Some(mut actor) = cell.actors[i].take() else {
                continue;
            };
            let mut ctx = Ctx::new(&mut cell.world, NodeAddr(i as u32));
            actor.on_start(&mut ctx);
            cell.actors[i] = Some(actor);
        }
    }

    /// Run until every event and control at or before `until` has been
    /// processed, then advance the clock to `until` (mirrors
    /// [`crate::Sim::run_until`]).
    pub fn run_until(&mut self, until: SimTime) {
        self.start_if_needed();
        if until < self.now {
            return;
        }
        let effective = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        let effective = effective.min(self.cells.len());
        if effective <= 1 {
            self.window_loop(until, None);
        } else {
            let (ret_tx, ret_rx) = mpsc::channel();
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..effective).map(|_| mpsc::channel::<Job<M, R>>()).unzip();
            std::thread::scope(|scope| {
                for rx in receivers {
                    let ret = ret_tx.clone();
                    scope.spawn(move || {
                        while let Ok(mut job) = rx.recv() {
                            job.shard.drain_below(job.w_end);
                            if ret.send((job.idx, job.shard)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(ret_tx);
                let pool = Pool {
                    senders,
                    ret: ret_rx,
                };
                self.window_loop(until, Some(&pool));
                // Dropping the pool's senders ends the worker loops.
            });
        }
        for cell in &mut self.cells {
            let world = &mut cell.as_mut().expect("shard checked in between runs").world;
            if world.now() < until {
                world.set_now(until);
            }
        }
        self.now = until;
    }

    fn window_loop(&mut self, until: SimTime, pool: Option<&Pool<M, R>>) {
        let one = SimDuration::from_nanos(1);
        // Exclusive drain bound covering events at exactly `until`.
        let cap = until + one;
        loop {
            self.admit_outboxes();
            if self.lookahead_dirty {
                self.recompute_lookahead();
            }
            let mut earliest: Option<SimTime> = None;
            for cell in &mut self.cells {
                let world = &mut cell.as_mut().expect("shard checked in between runs").world;
                if let Some(t) = world.next_event_time() {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
            }
            let next_control = self.controls.iter().map(|c| c.at).min();
            let next = match (earliest, next_control) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > until {
                break;
            }
            let mut w_end = cap;
            if let (Some(m), Some(lookahead)) = (earliest, self.lookahead) {
                let horizon = m + lookahead;
                if horizon < w_end {
                    w_end = horizon;
                }
            }
            if let Some(tc) = next_control {
                if tc < w_end {
                    w_end = tc;
                }
            }
            self.drain_all(w_end, pool);
            if next_control == Some(w_end) && w_end <= until {
                self.run_controls_at(w_end);
            }
            self.merge_window_journals();
        }
    }

    fn drain_all(&mut self, w_end: SimTime, pool: Option<&Pool<M, R>>) {
        match pool {
            None => {
                for cell in &mut self.cells {
                    cell.as_mut()
                        .expect("shard checked in between runs")
                        .drain_below(w_end);
                }
            }
            Some(pool) => {
                let mut in_flight = 0usize;
                for (i, slot) in self.cells.iter_mut().enumerate() {
                    let busy = slot
                        .as_mut()
                        .expect("shard checked in between runs")
                        .world
                        .next_event_time()
                        .is_some_and(|t| t < w_end);
                    if !busy {
                        continue; // nothing in this window: skip the round trip
                    }
                    let shard = slot.take().expect("shard presence checked above");
                    pool.senders[in_flight % pool.senders.len()]
                        .send(Job {
                            idx: i,
                            shard,
                            w_end,
                        })
                        .expect("worker thread alive for the whole run");
                    in_flight += 1;
                }
                for _ in 0..in_flight {
                    let (idx, shard) = pool
                        .ret
                        .recv()
                        .expect("worker thread alive for the whole run");
                    self.cells[idx] = Some(shard);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::time::{SimDuration, SimTime};

    /// Deterministic chatter: every received packet is recorded and
    /// re-sent to the peer until a hop budget runs out.
    struct Relay {
        peer: Option<NodeAddr>,
        hops_left: u32,
    }

    impl Actor<u32, (NodeAddr, u32)> for Relay {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, (NodeAddr, u32)>, from: NodeAddr, msg: u32) {
            ctx.record((ctx.me(), msg));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32, (NodeAddr, u32)>, _: u64) {}
    }

    fn relay(peer: Option<NodeAddr>, hops: u32) -> Box<Relay> {
        Box::new(Relay {
            peer,
            hops_left: hops,
        })
    }

    type Records = Vec<(SimTime, (NodeAddr, u32))>;

    /// Two nodes ping-ponging across a 3 ms fixed-latency link. With fixed
    /// latencies the RNG never fires, so the sequential and the sharded
    /// run must produce the *same* journal, not merely equivalent ones.
    fn sequential_run() -> (Records, SimStats) {
        let mut sim: Sim<u32, (NodeAddr, u32)> = Sim::new(42);
        let a = sim.add_node(relay(None, 10));
        let b = sim.add_node(relay(Some(a), 10));
        sim.world()
            .topo
            .connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(3)));
        sim.run_until(SimTime::from_secs(1));
        sim.finish()
    }

    fn sharded_run(workers: usize) -> (Records, SimStats) {
        let mut sim: ShardedSim<u32, (NodeAddr, u32)> =
            ShardedSim::new(42, 2, vec![0, 1], true, |_| 0);
        sim.set_workers(workers);
        let a = sim.add_node(relay(None, 10));
        let b = sim.add_node(relay(Some(a), 10));
        sim.connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(3)));
        sim.run_until(SimTime::from_secs(1));
        sim.finish()
    }

    #[test]
    fn cross_shard_chatter_matches_sequential() {
        let (seq_records, seq_stats) = sequential_run();
        let (sh_records, sh_stats) = sharded_run(1);
        assert_eq!(seq_records, sh_records);
        assert_eq!(seq_stats.packets_delivered, sh_stats.packets_delivered);
        assert_eq!(seq_stats.packets_sent, sh_stats.packets_sent);
    }

    #[test]
    fn worker_count_never_changes_results() {
        let base = sharded_run(1);
        assert_eq!(base, sharded_run(2));
        assert_eq!(base, sharded_run(8));
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        assert_eq!(sharded_run(2), sharded_run(2));
    }

    #[test]
    fn controls_rewire_any_shard_at_barriers() {
        struct Echo;
        impl Actor<u32, u32> for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, u32>, _: NodeAddr, msg: u32) {
                ctx.record(msg);
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, u32, u32>, _: u64) {}
        }
        let mut sim: ShardedSim<u32, u32> = ShardedSim::new(7, 2, vec![0, 1], true, |_| 0);
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        // The link appears mid-run via a control, then a packet crosses it.
        sim.schedule_control(SimTime::from_millis(5), move |v| {
            v.connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(2)));
            v.inject(a, b, 99, SimDuration::ZERO);
        });
        sim.run_until(SimTime::from_secs(1));
        let (records, _) = sim.finish();
        assert_eq!(records, vec![(SimTime::from_millis(5), 99)]);
    }

    #[test]
    #[should_panic(expected = "zero minimum latency")]
    fn zero_latency_cross_shard_link_is_rejected() {
        let mut sim: ShardedSim<u32, (NodeAddr, u32)> =
            ShardedSim::new(1, 2, vec![0, 1], false, |_| 0);
        let a = sim.add_node(relay(None, 0));
        let b = sim.add_node(relay(Some(a), 0));
        sim.connect_duplex(a, b, LinkProfile::wired(SimDuration::ZERO));
        sim.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn single_shard_behaves_like_sim() {
        let mut sim: ShardedSim<u32, (NodeAddr, u32)> =
            ShardedSim::new(42, 1, vec![0, 0], true, |_| 0);
        let a = sim.add_node(relay(None, 10));
        let b = sim.add_node(relay(Some(a), 10));
        sim.connect_duplex(a, b, LinkProfile::wired(SimDuration::from_millis(3)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.now(), SimTime::from_secs(1));
        let (records, _) = sim.finish();
        assert_eq!(records, sequential_run().0);
    }
}
