//! The simulation engine: [`RingNetSim::for_scenario`], its one
//! constructor, instantiates a [`HierarchySpec`] as a `simnet` simulation,
//! and [`MulticastSim`] drives it — every [`ScenarioEvent`] (handoffs,
//! failures, late joins, partitions, replays) becomes one scheduled control
//! closure, and [`MulticastSim::finish`] ends the run with each actor
//! writing its end-of-run counters into the [`Harvest`] the simulator
//! hands back ([`Actor::on_stop`]). The traffic [`Source`] and the harvest
//! are the ones every other backend uses too.
//!
//! All protocol logic lives in the sans-IO state machines; the actors here
//! only translate [`Action`]s into simulator calls and drive the timers: an
//! NE's two periodic chains, and an MH's one pending wake at the hop tick
//! its state names ([`MhState::next_deadline`]). Address translation
//! between protocol identities ([`NodeId`]/[`Guid`]) and simulator
//! addresses ([`NodeAddr`]) goes through one immutable [`AddrMap`] shared
//! by every actor.

use std::rc::Rc;

use simnet::{Actor, Ctx, NodeAddr, Sim, SimDuration, SimStats, SimTime, World};

use crate::actions::{Action, Outbox};
use crate::config::{HEARTBEAT_PERIOD, HOP_TICK};
use crate::driver::{
    hierarchy_core, ringnet_spec, MulticastSim, ReplayKind, Reporting, RunReport, Scenario,
    ScenarioEvent,
};
use crate::events::ProtoEvent;
use crate::hierarchy::{
    attachment_entity, spec_core_order, Entity, HierarchySpec, SourceSpec, TrafficPattern,
};
use crate::ids::{Endpoint, GlobalSeq, GroupId, Guid, LocalSeq, NodeId, PayloadId};
use crate::metrics::Harvest;
use crate::mh::MhState;
use crate::msg::Msg;
use crate::node::NeState;
use crate::telemetry::{NodeDump, TelemetryReport};

/// Timer tags shared by all actors.
const TAG_HOP: u64 = 2;
const TAG_HEARTBEAT: u64 = 3;

/// Identity ↔ address translation, built once per simulation.
///
/// Lookups run once per sent action (`resolve`) and once per delivered
/// packet (`endpoint_of`), so each direction is a dense table indexed by
/// id. A spec numbers its NEs and walkers densely from 0
/// ([`HierarchySpec::validate`] holds every id below the entity count), so
/// each table is as long as the largest id it holds.
#[derive(Debug, Default)]
pub struct AddrMap {
    ne: Vec<Option<NodeAddr>>,
    mh: Vec<Option<NodeAddr>>,
    rev: Vec<Option<Endpoint>>,
}

impl AddrMap {
    /// The address table of `spec`: the entity at position `i` of
    /// [`HierarchySpec::entities`] lives at `NodeAddr(i)` (sources hold an
    /// address but no protocol identity).
    pub fn for_spec(spec: &HierarchySpec) -> AddrMap {
        let mut map = AddrMap::default();
        for (i, entity) in spec.entities().enumerate() {
            let ep = match entity {
                Entity::Source(_) => continue,
                Entity::Mh(mh) => Endpoint::Mh(mh.guid),
                Entity::Br(id) | Entity::Ag(id, _) => Endpoint::Ne(id),
                Entity::Ap(ap) => Endpoint::Ne(ap.id),
            };
            map.insert(ep, NodeAddr(i as u32));
        }
        map
    }

    /// Register an endpoint's address.
    fn insert(&mut self, ep: Endpoint, addr: NodeAddr) {
        fn set<T>(table: &mut Vec<Option<T>>, i: usize, v: T) {
            if i >= table.len() {
                table.resize_with(i + 1, || None);
            }
            table[i] = Some(v);
        }
        match ep {
            Endpoint::Ne(id) => set(&mut self.ne, id.0 as usize, addr),
            Endpoint::Mh(guid) => set(&mut self.mh, guid.0 as usize, addr),
        }
        set(&mut self.rev, addr.index(), ep);
    }

    /// Address of a network entity.
    #[inline]
    pub fn ne(&self, id: NodeId) -> Option<NodeAddr> {
        self.ne.get(id.0 as usize).copied().flatten()
    }

    /// Address of a mobile host.
    #[inline]
    pub fn mh(&self, guid: Guid) -> Option<NodeAddr> {
        self.mh.get(guid.0 as usize).copied().flatten()
    }

    /// Resolve any endpoint.
    #[inline]
    pub(crate) fn resolve(&self, ep: Endpoint) -> Option<NodeAddr> {
        match ep {
            Endpoint::Ne(n) => self.ne(n),
            Endpoint::Mh(g) => self.mh(g),
        }
    }

    /// Reverse lookup; unknown addresses (e.g. source generators) map to a
    /// sentinel NE identity that no real entity uses.
    #[inline]
    pub fn endpoint_of(&self, addr: NodeAddr) -> Endpoint {
        let hit = self.rev.get(addr.index()).copied().flatten();
        hit.unwrap_or(Endpoint::Ne(NodeId(u32::MAX)))
    }
}

// ---------------------------------------------------------------- actors

/// Whether a message may legally address the emitting node itself: only
/// the fence paths do (a sequencer co-located with an addressed group's
/// funnel). There is no self-link in the mesh, so the actor re-dispatches
/// these locally instead of handing them to the transport.
fn is_fence_msg(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::FenceIngress { .. } | Msg::FenceDispatch { .. } | Msg::FencePreOrder { .. }
    )
}

/// Per-hop control framing: the control-plane sends (`!carries_payload()`)
/// of one handler invocation are held back, in emission order, and leave
/// as **one wire packet per neighbour** ([`Ctx::send_burst`]) — eight ring
/// states acknowledging the same next hop at the same instant share a
/// packet instead of sending eight. Nothing is ever delayed: held sends go
/// out before the handler returns, and ahead of any payload bound for the
/// same neighbour, so every `(sender, receiver)` pair keeps its FIFO order.
#[derive(Default)]
struct Framer {
    /// Held sends, in emission order.
    held: Vec<(NodeAddr, Msg)>,
    /// Reused buffer for the run being framed.
    run: Vec<Msg>,
}

impl Framer {
    /// Whether flushing `out` needs a framer at all: only when it has two
    /// control-plane sends that could share a packet. The common flush has
    /// one or none, and then sends it directly without touching the
    /// framer (which lives boxed, off the actor's hot cache lines).
    fn worth_it(out: &Outbox) -> bool {
        let mut control = out
            .iter()
            .filter(|a| matches!(a, Action::Send { msg, .. } if !msg.carries_payload()));
        control.nth(1).is_some()
    }

    /// Frame and send what is held for `dst` (a run of one is a plain
    /// send), keeping the rest held in order.
    fn release_to(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, dst: NodeAddr) {
        let members = self.held.extract_if(.., |(d, _)| *d == dst);
        self.run.extend(members.map(|(_, msg)| msg));
        ctx.send_burst(dst, &mut self.run);
    }

    /// Release the held sends bound for any of `dsts`: a payload is about
    /// to follow them there.
    fn release_ahead_of(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, dsts: &[NodeAddr]) {
        if self.held.is_empty() {
            return; // `dsts` can be a wide fan-out
        }
        for &dst in dsts {
            if self.held.iter().any(|(d, _)| *d == dst) {
                self.release_to(ctx, dst);
            }
        }
    }

    /// Release everything held, one frame per neighbour in order of first
    /// appearance.
    fn release_all(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        while let Some(&(dst, _)) = self.held.first() {
            self.release_to(ctx, dst);
        }
    }
}

/// Hand one inbound message to `f` with each of a node's per-group states
/// it is for (`group` reads a state's group): an entity-wide stimulus
/// ([`Msg::stimulus_for`]) is for every state, rewritten for its group,
/// anything else for the state owning its group stamp. A state ignores a
/// stimulus its kind has no use for.
fn route<S>(states: &mut [S], group: fn(&S) -> GroupId, msg: Msg, mut f: impl FnMut(&mut S, Msg)) {
    let stamp = msg.group();
    if msg.stimulus_for(stamp).is_some() {
        for st in states {
            let g = group(st);
            f(st, msg.stimulus_for(g).expect("a stimulus for every group"));
        }
    } else if let Some(st) = states.iter_mut().find(|s| group(s) == stamp) {
        f(st, msg);
    }
}

struct NeActor {
    /// One protocol state per declared group, in ascending group order —
    /// exactly one in single-group worlds. All states share the physical
    /// node's identity and address; inbound traffic dispatches on its
    /// group stamp, entity-wide faults fan out to every state.
    states: Vec<NeState>,
    map: Rc<AddrMap>,
    out: Outbox,
    /// Reused destination buffer for fan-out batching.
    dst_buf: Vec<NodeAddr>,
    /// Control-plane sends awaiting per-hop framing.
    framer: Box<Framer>,
    /// Whether the state at each position originates its group's token.
    originate: Vec<bool>,
    /// Crash-restart generation, encoded into every periodic-timer tag
    /// (`base | gen << 3`). Pending pre-crash timers survive in the event
    /// queue across a revival; their stale generation makes them fall dead
    /// instead of rescheduling a duplicate tick chain.
    timer_gen: u64,
}

impl NeActor {
    fn new(states: Vec<NeState>, map: Rc<AddrMap>, originate: Vec<bool>) -> Self {
        NeActor {
            states,
            map,
            out: Vec::with_capacity(32),
            dst_buf: Vec::new(),
            framer: Box::default(),
            originate,
            timer_gen: 0,
        }
    }

    fn my_id(&self) -> NodeId {
        self.states[0].id
    }

    fn any_alive(&self) -> bool {
        self.states.iter().any(|s| s.alive)
    }

    fn tag(&self, base: u64) -> u64 {
        base | (self.timer_gen << 3)
    }

    /// Arm the periodic tick chains (start-up and crash-restart revival).
    /// One chain per node, not per group: each tick walks every state.
    fn arm_periodic(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        ctx.set_timer(HOP_TICK, self.tag(TAG_HOP));
        ctx.set_timer(HEARTBEAT_PERIOD, self.tag(TAG_HEARTBEAT));
    }

    fn deliver(&mut self, now: SimTime, from_ep: Endpoint, msg: Msg) {
        let out = &mut self.out;
        let on_msg = |st: &mut NeState, m| st.on_msg(now, from_ep, m, out);
        route(&mut self.states, |s| s.group, msg, on_msg);
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let me = Endpoint::Ne(self.my_id());
        // Once a round engages the framer, later loopback rounds stay
        // behind what it holds.
        let mut framing = false;
        loop {
            let mut dsts = std::mem::take(&mut self.dst_buf);
            let mut loopback: Vec<Msg> = Vec::new();
            framing = framing || Framer::worth_it(&self.out);
            let mut it = self.out.drain(..).peekable();
            while let Some(action) = it.next() {
                match action {
                    Action::Record(ev) => ctx.record(ev),
                    Action::Send { to, msg } if to == me && is_fence_msg(&msg) => {
                        loopback.push(msg);
                    }
                    Action::Send { to, msg } if framing && !msg.carries_payload() => {
                        if let Some(addr) = self.map.resolve(to) {
                            self.framer.held.push((addr, msg));
                        }
                    }
                    Action::Send { to, msg } => {
                        dsts.clear();
                        dsts.extend(self.map.resolve(to));
                        // A delivery fan-out (ring + children + attached MHs)
                        // emits consecutive sends of the same message; batch
                        // the run into one interned multicast so the payload
                        // is stored once instead of cloned per hop. A send to
                        // this node itself ends the run: it loops back.
                        while let Some(Action::Send { to, msg: next }) = it.peek() {
                            if *next != msg || *to == me {
                                break;
                            }
                            let Some(Action::Send { to, .. }) = it.next() else {
                                unreachable!("peeked a send");
                            };
                            dsts.extend(self.map.resolve(to));
                        }
                        if framing {
                            self.framer.release_ahead_of(ctx, &dsts);
                        }
                        match dsts.as_slice() {
                            [] => {}
                            [one] => ctx.send(*one, msg),
                            many => ctx.multicast(many, msg),
                        }
                    }
                }
            }
            drop(it);
            self.dst_buf = dsts;
            if loopback.is_empty() {
                break;
            }
            // Self-addressed fence traffic (sequencer and funnel on the
            // same node): re-dispatch at the same sim time, then drain
            // whatever that produced. Bounded — a funnel on a ring of one
            // self-acks instead of self-sending.
            let now = ctx.now();
            for msg in loopback {
                self.deliver(now, me, msg);
            }
        }
        if framing {
            self.framer.release_all(ctx);
        }
    }
}

impl Actor<Msg, ProtoEvent, Harvest> for NeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let now = ctx.now();
        self.arm_periodic(ctx);
        for i in 0..self.states.len() {
            if self.originate[i] {
                self.states[i].originate_token(now, &mut self.out);
            }
            // Ring leaders acquire their parent; active APs graft.
            self.states[i].after_ring_change(now, &mut self.out);
            self.states[i].ensure_active_grafted(now, &mut self.out);
        }
        self.flush(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, from: NodeAddr, msg: Msg) {
        let from_ep = self.map.endpoint_of(from);
        let now = ctx.now();
        let was_alive = self.any_alive();
        self.deliver(now, from_ep, msg);
        if !was_alive && self.any_alive() {
            // Crash-restart revival: the periodic timers died with the
            // entity (dead entities stop rescheduling); re-arm them under
            // a new generation so pre-crash pending timers fall dead
            // instead of doubling the tick chains.
            self.timer_gen += 1;
            self.arm_periodic(ctx);
        }
        self.flush(ctx);
    }

    /// A neighbour's control frame: every member goes to its group state,
    /// then one flush — so the answers share a frame on the way back too.
    /// (Frames carry protocol control only, never the engine stimuli
    /// `on_packet` special-cases.)
    fn on_burst(
        &mut self,
        ctx: &mut Ctx<'_, Msg, ProtoEvent>,
        from: NodeAddr,
        msgs: std::vec::Drain<'_, Msg>,
    ) {
        let from_ep = self.map.endpoint_of(from);
        let now = ctx.now();
        for msg in msgs {
            self.deliver(now, from_ep, msg);
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, tag: u64) {
        if (tag >> 3) != self.timer_gen {
            return; // stale chain from before a crash-restart
        }
        if !self.any_alive() {
            return; // dead entities stop rescheduling
        }
        let now = ctx.now();
        match tag & 0x7 {
            TAG_HOP => {
                for st in &mut self.states {
                    if st.alive {
                        st.tick_hop(now, &mut self.out);
                    }
                }
                ctx.set_timer(HOP_TICK, self.tag(TAG_HOP));
            }
            TAG_HEARTBEAT => {
                for st in &mut self.states {
                    if st.alive {
                        st.tick_heartbeat(now, &mut self.out);
                    }
                }
                ctx.set_timer(HEARTBEAT_PERIOD, self.tag(TAG_HEARTBEAT));
            }
            _ => {}
        }
        self.flush(ctx);
    }

    /// Hand over every live state's counters, and the merged telemetry of
    /// every state, dead ones included — a crashed node's flight recorder
    /// is exactly the postmortem evidence wanted.
    fn on_stop(&mut self, out: &mut Harvest) {
        for st in &self.states {
            if let Some(counts) = st.finals() {
                out.ne(st.group, st.id, counts);
            }
        }
        let dumps: Vec<_> = self
            .states
            .iter()
            .filter_map(|s| s.telemetry.dump())
            .collect();
        if let Some(dump) = NodeDump::merge(dumps) {
            out.telemetry(self.my_id(), dump);
        }
    }
}

struct MhActor {
    /// One protocol state per subscribed group, in ascending group order —
    /// exactly one for single-subscription walkers.
    states: Vec<MhState>,
    map: Rc<AddrMap>,
    out: Outbox,
    /// Sends awaiting per-hop framing (an MH emits control only).
    framer: Box<Framer>,
    initial_ap: Option<NodeId>,
    /// Where the hop-tick grid starts: tick `k` is at `origin + k · HOP_TICK`.
    origin: SimTime,
    /// The grid index of the one pending wake.
    wake: u64,
    /// Generation of the pending wake, encoded into its timer tag
    /// (`TAG_HOP | gen << 3`) as in `NeActor::timer_gen`: a superseded wake
    /// still fires, carrying an older generation, and falls dead.
    timer_gen: u64,
}

impl MhActor {
    fn new(states: Vec<MhState>, map: Rc<AddrMap>, initial_ap: Option<NodeId>) -> Self {
        MhActor {
            states,
            map,
            out: Vec::with_capacity(16),
            framer: Box::default(),
            initial_ap,
            origin: SimTime::ZERO,
            wake: 0,
            timer_gen: 0,
        }
    }

    /// The instant of grid tick `tick`.
    fn tick_time(&self, tick: u64) -> SimTime {
        self.origin + HOP_TICK * tick
    }

    /// The earliest tick any live state has work at; `None` once every
    /// state is dead, which ends the wakes.
    fn next_deadline(&self) -> Option<u64> {
        let live = self.states.iter().filter(|s| s.alive);
        live.map(MhState::next_deadline).min()
    }

    /// Arm the one pending wake at grid tick `tick`, superseding any other.
    fn arm(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, tick: u64) {
        self.timer_gen += 1;
        self.wake = tick;
        let delay = self.tick_time(tick).saturating_since(ctx.now());
        ctx.set_timer(delay, TAG_HOP | (self.timer_gen << 3));
    }

    /// Run the pending wake's tick on every live state, then arm the next
    /// tick any of them has work at.
    fn tick(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let tick = self.wake;
        for st in &mut self.states {
            if st.alive {
                st.tick_hop(tick, &mut self.out);
            }
        }
        if let Some(next) = self.next_deadline() {
            self.arm(ctx, next);
        }
    }

    /// A packet arriving at the very instant of the pending wake: in an
    /// every-tick chain that tick, armed a tick earlier, would run first,
    /// so it does here too, sending on its own.
    fn tick_if_due(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        if self.tick_time(self.wake) == ctx.now() {
            self.tick(ctx);
            self.flush(ctx);
        }
    }

    /// After a packet: if it opened a gap while the MH sleeps towards a
    /// later tick, pull the wake in to the first grid tick strictly after
    /// now. Every link plan delivers to an MH in under a hop tick, so a
    /// tick the MH skipped would have run before this packet and seen no
    /// gap; the first tick that can see it is the next one.
    fn pull_in(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        if !self.states.iter().any(|s| s.alive && s.chasing_gap()) {
            return;
        }
        let since = ctx.now().saturating_since(self.origin).as_nanos();
        let next = since / HOP_TICK.as_nanos() + 1;
        if self.wake > next {
            self.arm(ctx, next);
        }
    }

    fn deliver(&mut self, now: SimTime, from_ep: Endpoint, msg: Msg) {
        let out = &mut self.out;
        let on_msg = |st: &mut MhState, m| st.on_msg(now, from_ep, m, out);
        route(&mut self.states, |s| s.group, msg, on_msg);
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let framing = Framer::worth_it(&self.out);
        for action in self.out.drain(..) {
            match action {
                Action::Send { to, msg } => match self.map.resolve(to) {
                    Some(addr) if framing => self.framer.held.push((addr, msg)),
                    Some(addr) => ctx.send(addr, msg),
                    None => {}
                },
                Action::Record(ev) => ctx.record(ev),
            }
        }
        if framing {
            self.framer.release_all(ctx);
        }
    }
}

impl Actor<Msg, ProtoEvent, Harvest> for MhActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let now = ctx.now();
        self.origin = now;
        if let Some(first) = self.next_deadline() {
            self.arm(ctx, first);
        }
        if let Some(ap) = self.initial_ap {
            for st in &mut self.states {
                st.join(now, ap, &mut self.out);
            }
        }
        self.flush(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, from: NodeAddr, msg: Msg) {
        let from_ep = self.map.endpoint_of(from);
        let now = ctx.now();
        self.tick_if_due(ctx);
        self.deliver(now, from_ep, msg);
        self.pull_in(ctx);
        self.flush(ctx);
    }

    fn on_burst(
        &mut self,
        ctx: &mut Ctx<'_, Msg, ProtoEvent>,
        from: NodeAddr,
        msgs: std::vec::Drain<'_, Msg>,
    ) {
        let from_ep = self.map.endpoint_of(from);
        let now = ctx.now();
        self.tick_if_due(ctx);
        for msg in msgs {
            self.deliver(now, from_ep, msg);
        }
        self.pull_in(ctx);
        self.flush(ctx);
    }

    /// The MH's one pending wake, on the hop-tick grid: a tick with work —
    /// an ack (its liveness beacon) or a NACK budget step — never a tick
    /// that would do nothing. A superseded wake falls dead, and once every
    /// state is dead no wake is armed again.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, tag: u64) {
        if (tag >> 3) != self.timer_gen {
            return;
        }
        self.tick(ctx);
        self.flush(ctx);
    }

    /// Hand over every live state's counters.
    fn on_stop(&mut self, out: &mut Harvest) {
        for st in &self.states {
            if let Some(counts) = st.finals() {
                out.mh(st.group, st.guid, counts);
            }
        }
    }
}

/// The traffic source every backend runs: from its spec's `start` it sends
/// `make(1)`, `make(2)`, … to `target`, spaced by the spec's pattern (a
/// fixed interval, or exponential gaps drawn from the world stream), until
/// the spec's `stop` or `limit`. A backend supplies only the `seq → message`
/// constructor of its wire format.
pub struct Source<F> {
    spec: SourceSpec,
    target: NodeAddr,
    /// Messages sent so far.
    seq: u64,
    make: F,
}

impl<F> Source<F> {
    /// The source `spec` describes, sending to `target`.
    pub fn new(spec: SourceSpec, target: NodeAddr, make: F) -> Self {
        Source {
            spec,
            target,
            seq: 0,
            make,
        }
    }
}

impl<M, F: Fn(u64) -> M, H> Actor<M, ProtoEvent, H> for Source<F> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, ProtoEvent>) {
        let delay = self.spec.start.saturating_since(ctx.now());
        ctx.set_timer(delay, 0);
    }

    fn on_packet(&mut self, _: &mut Ctx<'_, M, ProtoEvent>, _: NodeAddr, _: M) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M, ProtoEvent>, _tag: u64) {
        let SourceSpec { limit, stop, .. } = self.spec;
        if limit.is_some_and(|l| self.seq >= l) || stop.is_some_and(|s| ctx.now() >= s) {
            return;
        }
        self.seq += 1;
        ctx.send(self.target, (self.make)(self.seq));
        let delay = match self.spec.pattern {
            TrafficPattern::Cbr { interval } => interval,
            TrafficPattern::Poisson { rate } => {
                SimDuration::from_secs_f64(ctx.rng().exponential(rate))
            }
        };
        ctx.set_timer(delay, 0);
    }
}

// ------------------------------------------------------- build machinery

/// Build the address map, actors and topology of `spec` into `sim`.
/// Which entities exist, in which address order, and how they are linked
/// is the spec's decision ([`HierarchySpec::entities`],
/// [`HierarchySpec::wiring`]); this only gives each entity its actor.
fn assemble(spec: &HierarchySpec, sim: &mut Sim<Msg, ProtoEvent, Harvest>) -> Rc<AddrMap> {
    let map = Rc::new(AddrMap::for_spec(spec));

    // Multi-group specs instantiate one protocol state per declared group
    // on every physical node: one ordering ring per group over the same
    // top-ring mesh, each group's token starting at its funnel, with the
    // home (lowest) group's funnel hosting the global fence sequencer.
    let cfg = &spec.cfg;
    let groups = spec.effective_groups();
    let multi = groups.len() > 1;
    let funnels = spec.funnels();
    let home = groups[0];
    // Station shape: the top ring is the whole deployment, so its members
    // are hybrid stations that also serve MHs.
    let stations = spec.is_station_shape();
    let ne_actor = |states: Vec<NeState>, originate: Vec<bool>| {
        Box::new(NeActor::new(states, Rc::clone(&map), originate))
    };
    for (i, entity) in spec.entities().enumerate() {
        let actor: Box<dyn Actor<Msg, ProtoEvent, Harvest>> = match entity {
            Entity::Br(br) => {
                let mut states = Vec::with_capacity(groups.len());
                for &(g, _) in &funnels {
                    let ring = spec.top_ring.clone();
                    let mut st = if stations {
                        NeState::new_flat_station(g, br, ring, cfg.clone())
                    } else {
                        NeState::new_br(g, br, ring, true, cfg.clone())
                    };
                    if multi {
                        st.cross_fence =
                            Some(crate::fence::CrossGroupFence::new(g, funnels.clone()));
                    }
                    states.push(st);
                }
                let originate = funnels.iter().map(|&(_, origin)| origin == br).collect();
                ne_actor(states, originate)
            }
            Entity::Ag(ag, ring) => {
                // Each group's tree is rooted where its GSNs are assigned:
                // the ring's parent candidates turn by the group's entry BR,
                // so no GSN crosses top-ring hops before it can descend.
                let state = |&(g, funnel)| {
                    let members = ring.members.clone();
                    let parents = spec.parents_rooted_at(ring, g, funnel);
                    NeState::new_ag(g, ag, members, parents, cfg.clone())
                };
                ne_actor(
                    funnels.iter().map(state).collect(),
                    vec![false; groups.len()],
                )
            }
            Entity::Ap(ap) => {
                let state = |&g| {
                    let (parents, nbs) = (ap.parent_candidates.clone(), ap.neighbours.clone());
                    NeState::new_ap(g, ap.id, parents, ap.always_active, nbs, cfg.clone())
                };
                ne_actor(
                    groups.iter().map(state).collect(),
                    vec![false; groups.len()],
                )
            }
            // One addressed group sends plain `SourceData`; two or more
            // submit through the cross-group fence as `FenceIngress` for the
            // source's whole lifetime (one logical channel per source).
            Entity::Source(src) => {
                let (targets, origin) = (spec.source_groups_of(src), src.corresponding);
                let make = move |seq| {
                    let (local_seq, payload) = (LocalSeq(seq), PayloadId(seq));
                    match targets[..] {
                        [group] => Msg::SourceData {
                            group,
                            local_seq,
                            payload,
                        },
                        _ => Msg::FenceIngress {
                            group: home,
                            origin,
                            local_seq,
                            payload,
                            targets: targets.clone(),
                        },
                    }
                };
                let target = map.ne(origin).expect("validated");
                Box::new(Source::new(src.clone(), target, make))
            }
            Entity::Mh(mh) => Box::new(MhActor::new(
                (spec.subscriptions_of(mh).into_iter())
                    .map(|g| MhState::new(g, mh.guid, cfg.clone()))
                    .collect(),
                Rc::clone(&map),
                mh.initial_ap,
            )),
        };
        let addr = sim.add_node(actor);
        debug_assert_eq!(addr.index(), i, "creation order is address order");
    }
    // Spec validation admitted only declared entities, so every id the
    // wiring rule names is in the address map.
    let ne = |id| map.ne(id).expect("validated spec wires a declared NE");
    for (a, b, profile) in spec.wiring(ne) {
        sim.world().topo.connect_duplex(a, b, profile.clone());
    }

    // Pre-size the pending-event slab from the deployment scale so the
    // hot path starts steady-state (≈ a few in-flight events per link
    // plus the periodic timers).
    sim.world().reserve_events(spec.entities().count() * 8);

    map
}

// ------------------------------------------------------------- the engine

/// A built RingNet simulation: the RingNet [`MulticastSim`] backend.
pub struct RingNetSim {
    sim: Sim<Msg, ProtoEvent, Harvest>,
    /// Identity ↔ address translation.
    pub addrs: Rc<AddrMap>,
    /// The spec this simulation was built from.
    pub spec: HierarchySpec,
    /// Report assembly: the metrics sink on the journal, set up per the
    /// scenario's retention mode.
    reporting: Reporting,
}

impl RingNetSim {
    /// The one constructor behind every RingNet-engine backend (RingNet,
    /// tree, flat ring): instantiate `spec` with the given seed and set the
    /// journal up per `scenario`'s retention mode. Torn down by
    /// [`MulticastSim::finish`]. Panics on an invalid spec (use
    /// [`HierarchySpec::validate`] first for graceful handling).
    pub fn for_scenario(spec: HierarchySpec, scenario: &Scenario, seed: u64) -> Self {
        let problems = spec.validate();
        assert!(problems.is_empty(), "invalid spec: {problems:?}");
        // Journalling stays on even in quiet configs: the experiment layer
        // always reads the low-volume records (Ordered, handoffs); the
        // config flags gate only the per-delivery firehose.
        let mut sim = Sim::new(seed);
        let addrs = assemble(&spec, &mut sim);
        let reporting =
            Reporting::install_journal(&mut sim.world().journal, scenario, hierarchy_core(&spec));
        RingNetSim {
            sim,
            addrs,
            spec,
            reporting,
        }
    }

    /// Transport-level statistics.
    pub fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// The journal receiving this run's protocol events.
    pub fn journal_mut(&mut self) -> &mut simnet::Journal<ProtoEvent> {
        &mut self.sim.world().journal
    }

    /// Schedule a control closure at `at` — the body of every
    /// [`ScenarioEvent`] that [`MulticastSim::schedule`] maps, and the hook
    /// for faults no event names (cutting a single link, say).
    pub fn schedule_control(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut World<Msg, ProtoEvent>) + 'static,
    ) {
        self.sim.world().schedule_control(at, f);
    }

    /// The address of a network entity the spec declares.
    fn ne_addr(&self, id: NodeId) -> NodeAddr {
        self.addrs
            .ne(id)
            .expect("every declared entity has an address")
    }

    /// Schedule an engine stimulus — a kill, a restart or a token drop — at
    /// `at`: each of `targets` injects it into itself.
    fn stimulate(&mut self, at: SimTime, targets: Vec<NodeAddr>, stimulus: fn(GroupId) -> Msg) {
        let group = self.spec.group;
        self.schedule_control(at, move |w| {
            for addr in targets {
                w.inject(addr, addr, stimulus(group), SimDuration::ZERO);
            }
        });
    }

    /// Schedule every direct link between `member` and each of `peers` to
    /// go administratively down (`up = false`) or come back up at `at`. A
    /// pair without a direct link is a no-op.
    fn set_links(&mut self, at: SimTime, member: NodeAddr, peers: Vec<NodeAddr>, up: bool) {
        self.schedule_control(at, move |w| {
            for peer in peers {
                w.topo.set_duplex_up(member, peer, up);
            }
        });
    }

    /// The addresses of the static ring peers of `member`: its fellow
    /// top-ring members when it is a BR, the other members of its AG ring
    /// otherwise.
    fn ring_peers_of(&self, member: NodeId) -> Vec<NodeAddr> {
        let ring: &[NodeId] = if self.spec.top_ring.contains(&member) {
            &self.spec.top_ring
        } else {
            self.spec
                .ag_rings
                .iter()
                .find(|r| r.members.contains(&member))
                .map(|r| r.members.as_slice())
                .unwrap_or(&[])
        };
        let peers = ring.iter().filter(|&&m| m != member);
        peers.map(|&m| self.ne_addr(m)).collect()
    }
}

// ------------------------------------------------- RingNetSim as backend

/// The `index`-th wired-core entity of `spec` (BRs, then AGs): a BR's index
/// is its id. Panics, naming `event`, when out of range.
fn core_entity(spec: &HierarchySpec, index: usize, event: &ScenarioEvent) -> NodeId {
    let core = spec_core_order(spec);
    let n = core.len();
    *core
        .get(index)
        .unwrap_or_else(|| panic!("{event:?}: index out of range ({n} core entities)"))
}

impl MulticastSim for RingNetSim {
    fn build(scenario: &Scenario, seed: u64) -> Self {
        RingNetSim::for_scenario(ringnet_spec(scenario), scenario, seed)
    }

    fn schedule(&mut self, event: ScenarioEvent) {
        let group = self.spec.group;
        let walker = |w: usize| {
            let mh = self.addrs.mh(Guid(w as u32));
            mh.unwrap_or_else(|| panic!("{event:?}: walker {w} does not exist"))
        };
        let member = |index| core_entity(&self.spec, index, &event);
        let core = |index| self.ne_addr(member(index));
        let attachment = |k, what| attachment_entity(&self.spec, k, what);
        match event {
            // The radio detaches from the current AP and attaches to the
            // new one; the MH is stimulated to re-register.
            ScenarioEvent::Handoff { at, walker: w, to } => {
                let new_ap = attachment(to, "Handoff");
                let (mh, ap) = (walker(w), self.ne_addr(new_ap));
                let wireless = self.spec.links.wireless.clone();
                self.schedule_control(at, move |net| {
                    for old in net.topo.neighbours(mh).collect::<Vec<_>>() {
                        net.topo.disconnect_duplex(mh, old);
                    }
                    net.topo.connect_duplex(mh, ap, wireless);
                    net.inject(ap, mh, Msg::HandoffTo { group, new_ap }, SimDuration::ZERO);
                });
            }
            // A walker built with no initial AP joins the group late.
            ScenarioEvent::Join {
                at,
                walker: w,
                at_ap,
            } => {
                let ap_id = attachment(at_ap, "Join");
                let (mh, ap) = (walker(w), self.ne_addr(ap_id));
                let wireless = self.spec.links.wireless.clone();
                self.schedule_control(at, move |net| {
                    if !net.topo.has_link(mh, ap) {
                        net.topo.connect_duplex(mh, ap, wireless);
                    }
                    net.inject(ap, mh, Msg::JoinCmd { group, ap: ap_id }, SimDuration::ZERO);
                });
            }
            ScenarioEvent::KillCore { at, index } => {
                self.stimulate(at, vec![core(index)], |group| Msg::Kill { group });
            }
            ScenarioEvent::KillWalker { at, walker: w } => {
                self.stimulate(at, vec![walker(w)], |group| Msg::Kill { group });
            }
            ScenarioEvent::ApCrash { at, ap } => {
                let ap = self.ne_addr(attachment(ap, "ApCrash"));
                self.stimulate(at, vec![ap], |group| Msg::Kill { group });
            }
            // A restarted AP re-grafts on demand; a restarted BR/AG re-enters
            // its repaired ring via the rejoin handshake.
            ScenarioEvent::ApRestart { at, ap } => {
                let ap = self.ne_addr(attachment(ap, "ApRestart"));
                self.stimulate(at, vec![ap], |group| Msg::Restart { group });
            }
            ScenarioEvent::RingRejoin { at, index } => {
                self.stimulate(at, vec![core(index)], |group| Msg::Restart { group });
            }
            ScenarioEvent::PartitionCore { at, a, b } | ScenarioEvent::HealCore { at, a, b } => {
                let up = matches!(event, ScenarioEvent::HealCore { .. });
                self.set_links(at, core(a), vec![core(b)], up);
            }
            // Every top-ring node is armed to black-hole the next
            // current-epoch token it receives: the first transfer after
            // `at` vanishes, and Token-Regeneration must recover.
            ScenarioEvent::DropToken { at } => {
                let ring = self.spec.top_ring.iter().map(|&n| self.ne_addr(n));
                self.stimulate(at, ring.collect(), |group| Msg::DropToken { group });
            }
            // A ring-of-one member has no ring links: a no-op there.
            ScenarioEvent::PartitionRing { at, isolate }
            | ScenarioEvent::HealRing { at, isolate } => {
                let up = matches!(event, ScenarioEvent::HealRing { .. });
                let peers = self.ring_peers_of(member(isolate));
                self.set_links(at, core(isolate), peers, up);
            }
            // A duplicated, delayed copy of a control message concerning
            // the member: the token re-sent by the member itself, the
            // broadcasts re-delivered to its ring peers.
            ScenarioEvent::ReplayControl { at, kind, index } => {
                let (member, from) = (member(index), core(index));
                let (dsts, copy): (Vec<NodeAddr>, fn(GroupId, NodeId) -> Msg) = match kind {
                    ReplayKind::Token => (vec![from], |group, _| Msg::ReplayToken { group }),
                    ReplayKind::RingFail => (self.ring_peers_of(member), |group, failed| {
                        Msg::RingFail { group, failed }
                    }),
                    ReplayKind::RejoinGrant => (self.ring_peers_of(member), |group, member| {
                        Msg::RejoinGrant {
                            group,
                            member,
                            front: GlobalSeq::ZERO,
                            pass: None,
                        }
                    }),
                };
                self.schedule_control(at, move |net| {
                    for dst in dsts {
                        net.inject(from, dst, copy(group, member), SimDuration::ZERO);
                    }
                });
            }
        }
    }

    fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Stop the simulation — every NE and MH actor writes its counters (and
    /// telemetry) into the harvest from [`Actor::on_stop`] — and assemble
    /// the report.
    fn finish(self) -> RunReport {
        let (journal, stats, Harvest { finals, dumps }) = self.sim.finish();
        let mut report = self.reporting.finish(journal, stats, finals);
        report.telemetry = (self.spec.cfg.telemetry).then_some(TelemetryReport { nodes: dumps });
        report
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use simnet::LinkProfile;

    use super::*;
    use crate::config::ProtocolConfig;
    use crate::driver::{CoreShape, ScenarioBuilder};

    fn small() -> Scenario {
        ScenarioBuilder::new()
            .attachments(4)
            .shape(CoreShape::Hierarchy {
                brs: 3,
                rings: 2,
                ags_per_ring: 2,
            })
            .sources(2)
            .cbr(SimDuration::from_millis(20))
            .message_limit(10)
            .build()
    }

    /// The small world.
    fn small_world(seed: u64) -> RingNetSim {
        let sc = small();
        RingNetSim::for_scenario(ringnet_spec(&sc), &sc, seed)
    }

    /// The attachment index and id of the spec's last AP.
    fn last_ap(spec: &HierarchySpec) -> (usize, NodeId) {
        (spec.aps.len() - 1, spec.aps.last().expect("APs").id)
    }

    #[test]
    fn build_and_run_small_network() {
        let mut net = small_world(42);
        net.run_until(SimTime::from_secs(3));
        let RunReport {
            journal,
            stats,
            finals,
            ..
        } = net.finish();
        assert!(stats.packets_delivered > 0);
        // Every source message got ordered exactly once.
        let ordered: Vec<_> = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::Ordered { .. }))
            .collect();
        assert_eq!(ordered.len(), 20, "2 sources × 10 messages ordered");
        // Every MH delivered all 20 messages, in global-sequence order.
        let mut per_mh: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for (_, e) in &journal {
            if let ProtoEvent::MhDeliver { mh, gsn, .. } = e {
                per_mh.entry(mh.0).or_default().push(gsn.0);
            }
        }
        assert_eq!(per_mh.len(), 4, "all 4 MHs delivered something");
        for (mh, gsns) in &per_mh {
            assert_eq!(gsns.len(), 20, "mh{mh} delivered all messages: {gsns:?}");
            let mut sorted = gsns.clone();
            sorted.sort_unstable();
            assert_eq!(*gsns, sorted, "mh{mh} delivered in order");
        }
        // Final stats harvested from every entity and MH.
        assert_eq!(finals.ne.len(), 3 + 4 + 4);
        assert_eq!(finals.mh.len(), 4);
    }

    /// The report carries the transport stats of the last event the run
    /// processed: stopping the actors runs no event of its own.
    #[test]
    fn report_stats_are_the_stats_before_finish() {
        let sc = ScenarioBuilder::new()
            .attachments(4)
            .sources(2)
            .cbr(SimDuration::from_millis(20))
            .message_limit(10)
            .event(ScenarioEvent::KillWalker {
                at: SimTime::from_secs(1),
                walker: 1,
            })
            .duration(SimTime::from_secs(2))
            .build();
        let mut net = RingNetSim::for_scenario(ringnet_spec(&sc), &sc, 7);
        for &ev in &sc.events {
            net.schedule(ev);
        }
        net.run_until(sc.duration);
        let before = net.stats();
        let report = net.finish();
        assert!(before.events > 0);
        assert_eq!(report.stats, before);
        assert_eq!(report.finals.mh.len(), 3, "the dead walker reports nothing");
    }

    #[test]
    #[should_panic(expected = "index out of range (7 core entities)")]
    fn an_out_of_range_core_index_panics_naming_the_event() {
        let mut net = small_world(1);
        let at = SimTime::from_secs(1);
        net.schedule(ScenarioEvent::RingRejoin { at, index: 7 });
    }

    #[test]
    fn default_plan_world_shares_at_most_six_profiles() {
        // The topology interns profiles: links of one plan entry share one
        // table slot, so distinct references count the slots in use.
        let mut net = small_world(42);
        let mut slots: Vec<*const LinkProfile> = Vec::new();
        let mut links = 0;
        for (_, _, profile) in net.sim.world().topo.iter() {
            links += 1;
            if !slots.contains(&std::ptr::from_ref(profile)) {
                slots.push(profile);
            }
        }
        assert!(links > 20, "{links} links");
        assert!(slots.len() <= 6, "{} profiles interned", slots.len());
    }

    #[test]
    fn deterministic_replay() {
        fn run(seed: u64) -> Vec<(SimTime, ProtoEvent)> {
            let mut net = small_world(seed);
            net.run_until(SimTime::from_secs(2));
            net.finish().journal
        }
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same journal");
    }

    #[test]
    fn handoff_scenario_delivers_everything() {
        let mut net = small_world(3);
        // Move MH 0 from its AP to the other ring's AP at t = 1s.
        let (to, target_ap) = last_ap(&net.spec);
        net.schedule(ScenarioEvent::Handoff {
            at: SimTime::from_secs(1),
            walker: 0,
            to,
        });
        net.run_until(SimTime::from_secs(4));
        let journal = net.finish().journal;
        let registered = journal.iter().any(|(_, e)| {
            matches!(e, ProtoEvent::HandoffRegistered { mh: Guid(0), ap, .. } if *ap == target_ap)
        });
        assert!(registered, "handoff registration recorded");
        let delivered: Vec<u64> = journal
            .iter()
            .filter_map(|(_, e)| match e {
                ProtoEvent::MhDeliver {
                    mh: Guid(0), gsn, ..
                } => Some(gsn.0),
                _ => None,
            })
            .collect();
        assert_eq!(
            delivered.len(),
            20,
            "no message lost across the handoff: {delivered:?}"
        );
    }

    #[test]
    fn kill_mid_ring_heals_and_continues() {
        let sc = small();
        let mut spec = ringnet_spec(&sc);
        // Unlimited source so traffic spans the failure.
        for s in &mut spec.sources {
            s.limit = Some(100);
        }
        let victim = spec.top_ring[2]; // not the token origin (leader 0)
        let mut net = RingNetSim::for_scenario(spec, &sc, 5);
        net.schedule(ScenarioEvent::KillCore {
            at: SimTime::from_secs(1),
            index: 2,
        });
        net.run_until(SimTime::from_secs(6));
        let journal = net.finish().journal;
        // Ring repair observed.
        assert!(journal.iter().any(
            |(_, e)| matches!(e, ProtoEvent::RingRepaired { failed, .. } if *failed == victim)
        ));
        // Ordering continued after the failure: late Ordered events exist.
        let last_ordered = journal
            .iter()
            .filter(|(_, e)| matches!(e, ProtoEvent::Ordered { .. }))
            .map(|(t, _)| *t)
            .max()
            .unwrap();
        assert!(
            last_ordered > SimTime::from_secs(1),
            "ordering survived the failure"
        );
    }

    /// An AP stand-in: records every ack and NACK an MH sends it, stamped
    /// with the instant it was sent (the uplink is a fixed 1 ms).
    struct AckProbe(Rc<RefCell<Vec<(SimTime, Msg)>>>);

    const UPLINK: SimDuration = SimDuration::from_millis(1);

    impl Actor<Msg, ProtoEvent, Harvest> for AckProbe {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, _: NodeAddr, msg: Msg) {
            if matches!(msg, Msg::DataNack { .. } | Msg::DataAck { .. }) {
                self.0.borrow_mut().push((ctx.now() - UPLINK, msg));
            }
        }
    }

    fn data_msg(gsn: u64) -> Msg {
        Msg::Data {
            group: GroupId(1),
            gsn: GlobalSeq(gsn),
            data: crate::mq::MsgData {
                source: NodeId(0),
                local_seq: LocalSeq(gsn),
                ordering_node: NodeId(0),
                payload: PayloadId(gsn),
            },
        }
    }

    /// An MH that wakes only when it has work sends every ack and NACK at
    /// the instant an MH ticking every hop tick would. The script opens
    /// gaps between ack ticks, fills them, lets one run out its NACK budget,
    /// and lands packets exactly on grid instants — one sent before the
    /// gap that pulls the wake in to that very instant. The reference is
    /// the state machine ticked on every grid tick, with a packet due at a
    /// tick's own instant handled after the tick, as the every-tick chain
    /// (armed a tick earlier) orders it.
    #[test]
    fn a_sleeping_mh_acks_and_nacks_at_the_every_tick_instants() {
        let ms = SimTime::from_millis;
        // (when the stimulus is scheduled, its delay, the GSN it carries)
        let script: Vec<(SimTime, SimDuration, u64)> = vec![
            (ms(3), SimDuration::ZERO, 1),
            (ms(4), SimDuration::ZERO, 2),
            (ms(12), SimDuration::ZERO, 4), // gap at 3, between ack ticks
            (ms(26), SimDuration::ZERO, 3),
            (ms(40), SimDuration::ZERO, 6), // on the ack tick's instant
            (ms(47), SimDuration::ZERO, 5),
            // GSN 7 is sent at 50 ms and lands at 55 ms; GSN 8 opens its
            // gap at 52 ms and pulls the wake in to 55 ms, behind it.
            (ms(50), SimDuration::from_millis(5), 7),
            (ms(52), SimDuration::ZERO, 8),
            (ms(58), SimDuration::ZERO, 9),
            (ms(71), SimDuration::ZERO, 11), // 10 is never filled
        ];
        let ticks = 40u64;
        let cfg = ProtocolConfig::default();
        let (ap_id, guid) = (NodeId(1), Guid(1));

        // The reference: every tick runs.
        let mut reference = Vec::new();
        let mut mh = MhState::new(GroupId(1), guid, cfg.clone());
        let mut out = Vec::new();
        mh.join(SimTime::ZERO, ap_id, &mut out);
        out.clear();
        let mut arrivals: Vec<(SimTime, u64)> =
            script.iter().map(|&(at, d, gsn)| (at + d, gsn)).collect();
        arrivals.sort();
        let mut next = arrivals.iter().peekable();
        for k in 1..=ticks {
            let at = SimTime::ZERO + HOP_TICK * k;
            while let Some(&&(t, gsn)) = next.peek() {
                if t >= at {
                    break;
                }
                mh.on_msg(t, Endpoint::Ne(ap_id), data_msg(gsn), &mut out);
                next.next();
            }
            mh.tick_hop(k, &mut out);
            for action in out.drain(..) {
                if let Action::Send { msg, .. } = action {
                    reference.push((at, msg));
                }
            }
        }
        assert!(reference
            .iter()
            .any(|(_, m)| matches!(m, Msg::DataNack { .. })));

        // The engine: one pending wake.
        let mut sim: Sim<Msg, ProtoEvent, Harvest> = Sim::new(3);
        let heard = Rc::new(RefCell::new(Vec::new()));
        let mut map = AddrMap::default();
        map.insert(Endpoint::Ne(ap_id), NodeAddr(0));
        map.insert(Endpoint::Mh(guid), NodeAddr(1));
        let ap = sim.add_node(Box::new(AckProbe(Rc::clone(&heard))));
        let mh = sim.add_node(Box::new(MhActor::new(
            vec![MhState::new(GroupId(1), guid, cfg)],
            Rc::new(map),
            Some(ap_id),
        )));
        sim.world()
            .topo
            .connect_duplex(ap, mh, LinkProfile::wired(UPLINK));
        for (at, delay, gsn) in script {
            sim.world().schedule_control(at, move |w| {
                w.inject(ap, mh, data_msg(gsn), delay);
            });
        }
        sim.run_until(SimTime::ZERO + HOP_TICK * ticks + UPLINK);
        let stats = sim.stats();
        assert_eq!(*heard.borrow(), reference);
        assert!(
            stats.timers_fired < ticks,
            "the MH slept through idle ticks ({} wakes)",
            stats.timers_fired
        );
    }
}
