//! The simulation engine: instantiates a [`HierarchySpec`] as a `simnet`
//! simulation and provides the scenario API (handoffs, failures, late
//! joins, the teardown harvest).
//!
//! All protocol logic lives in the sans-IO state machines; the actors here
//! only translate [`Action`]s into simulator calls and drive the periodic
//! timers. Address translation between protocol identities
//! ([`NodeId`]/[`Guid`]) and simulator addresses ([`NodeAddr`]) goes through
//! one immutable [`AddrMap`] shared by every actor.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use simnet::{
    Actor, Ctx, LinkProfile, NetOps, NodeAddr, ShardedSim, Sim, SimDuration, SimStats, SimTime,
};

use crate::actions::{Action, Outbox};
use crate::config::{HEARTBEAT_PERIOD, HOP_TICK};
use crate::events::ProtoEvent;
use crate::hierarchy::{Entity, HierarchySpec, TrafficPattern};
use crate::ids::{Endpoint, GroupId, Guid, LocalSeq, NodeId, PayloadId};
use crate::metrics::Finals;
use crate::mh::MhState;
use crate::msg::Msg;
use crate::node::NeState;
use crate::telemetry::NodeDump;

/// Timer tags shared by all actors.
const TAG_HOP: u64 = 2;
const TAG_HEARTBEAT: u64 = 3;
const TAG_SOURCE: u64 = 5;

/// Identity ↔ address translation, built once per simulation.
///
/// Lookups run once per sent action (`resolve`) and once per delivered
/// packet (`endpoint_of`), so each direction keeps a dense index-by-id
/// fast path next to the ordered map; ids of 2¹⁶ and beyond (none in
/// practice — builders assign small contiguous ids) fall back to the map.
#[derive(Debug, Default)]
pub struct AddrMap {
    ne: std::collections::BTreeMap<NodeId, NodeAddr>,
    mh: std::collections::BTreeMap<Guid, NodeAddr>,
    rev: std::collections::BTreeMap<NodeAddr, Endpoint>,
    ne_dense: Vec<Option<NodeAddr>>,
    mh_dense: Vec<Option<NodeAddr>>,
    rev_dense: Vec<Option<Endpoint>>,
}

impl AddrMap {
    /// Ids below this get a dense-index slot; larger ones stay map-only.
    const DENSE_LIMIT: usize = 1 << 16;

    fn set_dense<T: Copy>(dense: &mut Vec<Option<T>>, i: usize, v: T) {
        if i < Self::DENSE_LIMIT {
            if i >= dense.len() {
                dense.resize(i + 1, None);
            }
            dense[i] = Some(v);
        }
    }

    /// The address table of `spec`: the entity at position `i` of
    /// [`HierarchySpec::entities`] lives at `NodeAddr(i)` (sources hold an
    /// address but no protocol identity).
    pub fn for_spec(spec: &HierarchySpec) -> AddrMap {
        let mut map = AddrMap::default();
        for (i, entity) in spec.entities().enumerate() {
            let addr = NodeAddr(i as u32);
            match entity {
                Entity::Source(_) => {}
                Entity::Mh(mh) => map.insert_mh(mh.guid, addr),
                Entity::Br(id) | Entity::Ag(id, _) => map.insert_ne(id, addr),
                Entity::Ap(ap) => map.insert_ne(ap.id, addr),
            }
        }
        map
    }

    /// Register a network entity's address.
    fn insert_ne(&mut self, id: NodeId, addr: NodeAddr) {
        self.ne.insert(id, addr);
        self.rev.insert(addr, Endpoint::Ne(id));
        Self::set_dense(&mut self.ne_dense, id.0 as usize, addr);
        Self::set_dense(&mut self.rev_dense, addr.index(), Endpoint::Ne(id));
    }

    /// Register a mobile host's address.
    fn insert_mh(&mut self, guid: Guid, addr: NodeAddr) {
        self.mh.insert(guid, addr);
        self.rev.insert(addr, Endpoint::Mh(guid));
        Self::set_dense(&mut self.mh_dense, guid.0 as usize, addr);
        Self::set_dense(&mut self.rev_dense, addr.index(), Endpoint::Mh(guid));
    }

    /// Address of a network entity.
    #[inline]
    pub fn ne(&self, id: NodeId) -> Option<NodeAddr> {
        let i = id.0 as usize;
        if i < self.ne_dense.len() {
            self.ne_dense[i]
        } else {
            self.ne.get(&id).copied()
        }
    }

    /// Address of a mobile host.
    #[inline]
    pub fn mh(&self, guid: Guid) -> Option<NodeAddr> {
        let i = guid.0 as usize;
        if i < self.mh_dense.len() {
            self.mh_dense[i]
        } else {
            self.mh.get(&guid).copied()
        }
    }

    /// Resolve any endpoint.
    #[inline]
    pub fn resolve(&self, ep: Endpoint) -> Option<NodeAddr> {
        match ep {
            Endpoint::Ne(n) => self.ne(n),
            Endpoint::Mh(g) => self.mh(g),
        }
    }

    /// Reverse lookup; unknown addresses (e.g. source generators) map to a
    /// sentinel NE identity that no real entity uses.
    #[inline]
    pub fn endpoint_of(&self, addr: NodeAddr) -> Endpoint {
        let i = addr.index();
        let hit = if i < self.rev_dense.len() {
            self.rev_dense[i]
        } else {
            self.rev.get(&addr).copied()
        };
        hit.unwrap_or(Endpoint::Ne(NodeId(u32::MAX)))
    }
}

/// Wire-size model handed to `simnet` (charged against bandwidth models;
/// a burst is charged the sum over its members). The one place the
/// application payload size lives: a fixed 512 bytes per payload-bearing
/// message.
fn wire_size(msg: &Msg) -> usize {
    msg.base_wire_size() + if msg.carries_payload() { 512 } else { 0 }
}

// --------------------------------------------------------------- harvest

/// What the teardown [`Msg::FlushStats`] sweep collects from every actor:
/// each live state's end-of-run counters, and — with telemetry on — each
/// NE's merged telemetry dump. Both maps are keyed, so the order in which
/// actors (and shards) reach the sink cannot affect the result.
#[derive(Debug, Default)]
pub(crate) struct Harvest {
    pub(crate) finals: Finals,
    pub(crate) telemetry: BTreeMap<NodeId, NodeDump>,
}

/// The harvest, shared by the simulation and every NE and MH actor.
pub(crate) type HarvestSink = Arc<Mutex<Harvest>>;

pub(crate) fn lock(sink: &HarvestSink) -> std::sync::MutexGuard<'_, Harvest> {
    sink.lock().expect("harvest sink poisoned")
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

struct NeActor {
    /// One protocol state per declared group, in ascending group order —
    /// exactly one in single-group worlds. All states share the physical
    /// node's identity and address; inbound traffic dispatches on its
    /// group stamp, entity-wide faults fan out to every state.
    states: Vec<NeState>,
    map: Arc<AddrMap>,
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
    /// Where the teardown `FlushStats` sweep leaves this node's counters
    /// and telemetry.
    harvest: HarvestSink,
}

impl NeActor {
    fn new(
        states: Vec<NeState>,
        map: Arc<AddrMap>,
        originate: Vec<bool>,
        harvest: HarvestSink,
    ) -> Self {
        NeActor {
            states,
            map,
            out: Vec::with_capacity(32),
            dst_buf: Vec::new(),
            framer: Box::default(),
            originate,
            timer_gen: 0,
            harvest,
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

    /// Route one inbound message: entity-wide faults fan out to every
    /// group state (rewritten to each state's group); everything else
    /// dispatches to the state owning its group stamp.
    fn deliver(&mut self, now: SimTime, from_ep: Endpoint, msg: Msg) {
        let out = &mut self.out;
        match msg {
            Msg::Kill { .. } => {
                for st in &mut self.states {
                    let g = st.group;
                    st.on_msg(now, from_ep, Msg::Kill { group: g }, out);
                }
            }
            Msg::Restart { .. } => {
                for st in &mut self.states {
                    let g = st.group;
                    st.on_msg(now, from_ep, Msg::Restart { group: g }, out);
                }
            }
            _ => {
                let g = msg.group();
                if let Some(st) = self.states.iter_mut().find(|s| s.group == g) {
                    st.on_msg(now, from_ep, msg, out);
                }
            }
        }
    }

    /// The teardown probe: hand over every live state's counters, and the
    /// merged telemetry of every state, dead ones included — a crashed
    /// node's flight recorder is exactly the postmortem evidence wanted.
    fn harvest(&self) {
        let mut harvest = lock(&self.harvest);
        for st in &self.states {
            if let Some(finals) = st.finals() {
                harvest.finals.ne.insert((st.group, st.id), finals);
            }
        }
        let dumps: Vec<_> = self
            .states
            .iter()
            .filter_map(|s| s.telemetry.dump())
            .collect();
        if let Some(dump) = NodeDump::merge(dumps) {
            harvest.telemetry.insert(self.my_id(), dump);
        }
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
                    Action::Send { to, msg } if framing && !msg.carries_payload() => {
                        if let Some(addr) = self.map.resolve(to) {
                            self.framer.held.push((addr, msg));
                        }
                    }
                    Action::Send { to, msg } => {
                        dsts.clear();
                        let mut local = to == me && is_fence_msg(&msg);
                        if !local {
                            if let Some(addr) = self.map.resolve(to) {
                                dsts.push(addr);
                            }
                        }
                        // A delivery fan-out (ring + children + attached MHs)
                        // emits consecutive sends of the same message; batch
                        // the run into one interned multicast so the payload
                        // is stored once instead of cloned per hop.
                        while let Some(Action::Send { msg: next, .. }) = it.peek() {
                            if *next != msg {
                                break;
                            }
                            let Some(Action::Send { to, .. }) = it.next() else {
                                unreachable!("peeked a send");
                            };
                            if to == me && is_fence_msg(&msg) {
                                local = true;
                            } else if let Some(addr) = self.map.resolve(to) {
                                dsts.push(addr);
                            }
                        }
                        if framing {
                            self.framer.release_ahead_of(ctx, &dsts);
                        }
                        if local {
                            match dsts.as_slice() {
                                [] => {}
                                // ringlint: allow(hot-clone) — audited: one clone per flushed
                                // message that also loops back locally, not per recipient; the
                                // wire copy moves and the original stays for local dispatch.
                                [one] => ctx.send(*one, msg.clone()),
                                // ringlint: allow(hot-clone) — audited: same split as above;
                                // multicast interns the payload once for all recipients.
                                many => ctx.multicast(many, msg.clone()),
                            }
                            loopback.push(msg);
                        } else {
                            match dsts.as_slice() {
                                [] => {}
                                [one] => ctx.send(*one, msg),
                                many => ctx.multicast(many, msg),
                            }
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

impl Actor<Msg, ProtoEvent> for NeActor {
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
        if let Msg::FlushStats { .. } = msg {
            self.harvest();
            return;
        }
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
}

struct MhActor {
    /// One protocol state per subscribed group, in ascending group order —
    /// exactly one for single-subscription walkers.
    states: Vec<MhState>,
    map: Arc<AddrMap>,
    out: Outbox,
    /// Sends awaiting per-hop framing (an MH emits control only).
    framer: Box<Framer>,
    initial_ap: Option<NodeId>,
    /// Where the teardown `FlushStats` sweep leaves the live states'
    /// counters.
    harvest: HarvestSink,
}

impl MhActor {
    fn any_alive(&self) -> bool {
        self.states.iter().any(|s| s.alive)
    }

    /// Route one inbound message: radio-level commands concern the whole
    /// host and fan out to every subscription state (rewritten to each
    /// state's group); per-group traffic dispatches on its group stamp.
    fn deliver(&mut self, now: SimTime, from_ep: Endpoint, msg: Msg) {
        let out = &mut self.out;
        match msg {
            Msg::Kill { .. } => {
                for st in &mut self.states {
                    let g = st.group;
                    st.on_msg(now, from_ep, Msg::Kill { group: g }, out);
                }
            }
            Msg::HandoffTo { new_ap, .. } => {
                for st in &mut self.states {
                    let g = st.group;
                    st.on_msg(now, from_ep, Msg::HandoffTo { group: g, new_ap }, out);
                }
            }
            Msg::JoinCmd { ap, .. } => {
                for st in &mut self.states {
                    let g = st.group;
                    st.on_msg(now, from_ep, Msg::JoinCmd { group: g, ap }, out);
                }
            }
            _ => {
                let g = msg.group();
                if let Some(st) = self.states.iter_mut().find(|s| s.group == g) {
                    st.on_msg(now, from_ep, msg, out);
                }
            }
        }
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

impl Actor<Msg, ProtoEvent> for MhActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let now = ctx.now();
        ctx.set_timer(HOP_TICK, TAG_HOP);
        if let Some(ap) = self.initial_ap {
            for st in &mut self.states {
                st.join(now, ap, &mut self.out);
            }
        }
        self.flush(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, from: NodeAddr, msg: Msg) {
        if let Msg::FlushStats { .. } = msg {
            // The teardown probe: hand over every live state's counters.
            let mut harvest = lock(&self.harvest);
            for st in &self.states {
                if let Some(counters) = st.finals() {
                    harvest.finals.mh.insert((st.group, st.guid), counters);
                }
            }
            return;
        }
        let from_ep = self.map.endpoint_of(from);
        let now = ctx.now();
        self.deliver(now, from_ep, msg);
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
        for msg in msgs {
            self.deliver(now, from_ep, msg);
        }
        self.flush(ctx);
    }

    /// The hop tick, an MH's only timer chain (its ack is its liveness
    /// beacon).
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, _tag: u64) {
        if !self.any_alive() {
            return;
        }
        let now = ctx.now();
        for st in &mut self.states {
            if st.alive {
                st.tick_hop(now, &mut self.out);
            }
        }
        ctx.set_timer(HOP_TICK, TAG_HOP);
        self.flush(ctx);
    }
}

struct SourceActor {
    /// Addressed groups, ascending, non-empty. One group sends plain
    /// [`Msg::SourceData`]; two or more submit through the cross-group
    /// fence as [`Msg::FenceIngress`] for the whole lifetime of the
    /// source (one logical channel per source).
    targets: Vec<GroupId>,
    /// The fence home group (lowest declared group of the scenario).
    home: GroupId,
    /// The source's corresponding BR — its message identity node.
    corresponding: NodeId,
    target: NodeAddr,
    pattern: TrafficPattern,
    start: SimTime,
    stop: Option<SimTime>,
    limit: Option<u64>,
    next_ls: LocalSeq,
    sent: u64,
}

impl SourceActor {
    fn schedule_next(&self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let delay = match self.pattern {
            TrafficPattern::Cbr { interval } => interval,
            TrafficPattern::Poisson { rate } => {
                if rate <= 0.0 {
                    return;
                }
                SimDuration::from_secs_f64(ctx.rng().exponential(rate))
            }
        };
        ctx.set_timer(delay, TAG_SOURCE);
    }
}

impl Actor<Msg, ProtoEvent> for SourceActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>) {
        let delay = self.start.saturating_since(ctx.now());
        ctx.set_timer(delay, TAG_SOURCE);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, Msg, ProtoEvent>, _from: NodeAddr, _msg: Msg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, ProtoEvent>, tag: u64) {
        if tag != TAG_SOURCE {
            return;
        }
        if let Some(limit) = self.limit {
            if self.sent >= limit {
                return;
            }
        }
        if let Some(stop) = self.stop {
            if ctx.now() >= stop {
                return;
            }
        }
        let ls = self.next_ls;
        self.next_ls = ls.next();
        self.sent += 1;
        let msg = if self.targets.len() == 1 {
            Msg::SourceData {
                group: self.targets[0],
                local_seq: ls,
                payload: PayloadId(ls.0),
            }
        } else {
            Msg::FenceIngress {
                group: self.home,
                origin: self.corresponding,
                local_seq: ls,
                payload: PayloadId(ls.0),
                targets: self.targets.clone(),
            }
        };
        ctx.send(self.target, msg);
        self.schedule_next(ctx);
    }
}

// ------------------------------------------------------- build machinery

/// The construction surface shared by the sequential [`Sim`] and the
/// sharded [`ShardedSim`]: one `assemble` body builds either, so the two
/// execution modes can never drift apart structurally.
trait Assemble {
    fn add(&mut self, actor: Box<dyn Actor<Msg, ProtoEvent> + Send>) -> NodeAddr;
    fn link(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile);
    fn reserve(&mut self, additional: usize);
}

impl Assemble for Sim<Msg, ProtoEvent> {
    fn add(&mut self, actor: Box<dyn Actor<Msg, ProtoEvent> + Send>) -> NodeAddr {
        self.add_node(actor)
    }
    fn link(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.world().topo.connect_duplex(a, b, profile);
    }
    fn reserve(&mut self, additional: usize) {
        self.world().reserve_events(additional);
    }
}

impl Assemble for ShardedSim<Msg, ProtoEvent> {
    fn add(&mut self, actor: Box<dyn Actor<Msg, ProtoEvent> + Send>) -> NodeAddr {
        self.add_node(actor)
    }
    fn link(&mut self, a: NodeAddr, b: NodeAddr, profile: LinkProfile) {
        self.connect_duplex(a, b, profile);
    }
    fn reserve(&mut self, additional: usize) {
        self.reserve_events(additional);
    }
}

/// The shard ownership map for `spec`, indexed by creation order
/// ([`HierarchySpec::entities`]). The wired core (BRs + AGs) and the sources
/// live on shard 0; APs split into `shards` contiguous blocks of attachment
/// subtrees; each MH lives with its initial AP (late joiners on shard 0).
fn shard_map(spec: &HierarchySpec, shards: usize) -> Vec<u32> {
    let n_aps = spec.aps.len();
    assert!(
        shards <= n_aps,
        "{shards} shards requested but the world has only {n_aps} attachment subtrees"
    );
    let ap_shard: std::collections::BTreeMap<NodeId, u32> = (spec.aps.iter().enumerate())
        .map(|(i, ap)| (ap.id, (i * shards / n_aps) as u32))
        .collect();
    let shard_of = |ap: NodeId| ap_shard.get(&ap).copied().unwrap_or(0);
    spec.entities()
        .map(|entity| match entity {
            Entity::Ap(ap) => shard_of(ap.id),
            Entity::Mh(mh) => mh.initial_ap.map_or(0, shard_of),
            Entity::Br(_) | Entity::Ag(..) | Entity::Source(_) => 0,
        })
        .collect()
}

/// Build the address map, actors and topology of `spec` into `net` —
/// the one construction body behind both execution modes. Which entities
/// exist, in which address order, and how they are linked is the spec's
/// decision ([`HierarchySpec::entities`], [`HierarchySpec::wiring`]); this
/// only gives each entity its actor.
fn assemble(spec: &HierarchySpec, net: &mut impl Assemble, harvest: &HarvestSink) -> Arc<AddrMap> {
    let map = Arc::new(AddrMap::for_spec(spec));

    // Multi-group specs instantiate one protocol state per declared group
    // on every physical node: one ordering ring per group over the same
    // top-ring mesh. Each group's token originates at
    // `sorted_brs[group_index % n_brs]` so the per-ring assignment load
    // spreads over the BRs; the same placement doubles as the group's
    // fence funnel, with the home (lowest) group's origin hosting the
    // global fence sequencer.
    let cfg = &spec.cfg;
    let groups = spec.effective_groups();
    let multi = groups.len() > 1;
    let sorted_brs = {
        let mut v = spec.top_ring.clone();
        v.sort_unstable();
        v
    };
    let funnels: Vec<(GroupId, NodeId)> = groups
        .iter()
        .enumerate()
        .map(|(i, &g)| (g, sorted_brs[i % sorted_brs.len()]))
        .collect();
    let home = groups[0];
    // Station shape: the top ring is the whole deployment, so its members
    // are hybrid stations that also serve MHs.
    let stations = spec.is_station_shape();
    let ne_actor = |states: Vec<NeState>, originate: Vec<bool>| {
        Box::new(NeActor::new(
            states,
            Arc::clone(&map),
            originate,
            Arc::clone(harvest),
        ))
    };
    for (i, entity) in spec.entities().enumerate() {
        let actor: Box<dyn Actor<Msg, ProtoEvent> + Send> = match entity {
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
                let state = |&g| {
                    let (members, parents) = (ring.members.clone(), ring.parent_candidates.clone());
                    NeState::new_ag(g, ag, members, parents, cfg.clone())
                };
                ne_actor(
                    groups.iter().map(state).collect(),
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
            Entity::Source(src) => Box::new(SourceActor {
                targets: spec.source_groups_of(src),
                home,
                corresponding: src.corresponding,
                target: map.ne(src.corresponding).expect("validated"),
                pattern: src.pattern,
                start: src.start,
                stop: src.stop,
                limit: src.limit,
                next_ls: LocalSeq::FIRST,
                sent: 0,
            }),
            Entity::Mh(mh) => Box::new(MhActor {
                states: (spec.subscriptions_of(mh).into_iter())
                    .map(|g| MhState::new(g, mh.guid, cfg.clone()))
                    .collect(),
                map: Arc::clone(&map),
                out: Vec::with_capacity(16),
                framer: Box::default(),
                initial_ap: mh.initial_ap,
                harvest: Arc::clone(harvest),
            }),
        };
        let addr = net.add(actor);
        debug_assert_eq!(addr.index(), i, "creation order is address order");
    }
    // Spec validation admitted only declared entities, so every id the
    // wiring rule names is in the address map.
    let ne = |id| map.ne(id).expect("validated spec wires a declared NE");
    for (a, b, profile) in spec.wiring(ne) {
        net.link(a, b, profile.clone());
    }

    // Pre-size the pending-event slab from the deployment scale so the
    // hot path starts steady-state (≈ a few in-flight events per link
    // plus the periodic timers).
    net.reserve(spec.entities().count() * 8);

    map
}

// ------------------------------------------------------------- the engine

/// The one simulator a [`RingNetSim`] drives. Both kinds are built by the
/// same [`assemble`] body and steered through [`NetOps`] controls.
// One value per run: the variants' size gap costs nothing, a `Box` would
// only add a hop in front of the sequential simulator.
#[allow(clippy::large_enum_variant)]
enum Net {
    Seq(Sim<Msg, ProtoEvent>),
    Sharded(ShardedSim<Msg, ProtoEvent>),
}

/// A built RingNet simulation plus its scenario API.
pub struct RingNetSim {
    net: Net,
    /// Identity ↔ address translation.
    pub addrs: Arc<AddrMap>,
    /// The spec this simulation was built from.
    pub spec: HierarchySpec,
    /// Report assembly, installed by the scenario constructor
    /// ([`RingNetSim::for_scenario`]) that [`crate::driver::MulticastSim`]
    /// builds through.
    pub(crate) reporting: Option<crate::driver::Reporting>,
    /// The teardown harvest shared with every NE and MH actor, filled
    /// during [`Self::finish`]'s `FlushStats` sweep.
    pub(crate) harvest: HarvestSink,
    /// Node → shard placement for the telemetry report (empty in the
    /// sequential build: everything on shard 0).
    pub(crate) telemetry_shards: std::collections::BTreeMap<NodeId, u32>,
}

impl RingNetSim {
    /// Instantiate `spec` with the given seed on the sequential simulator.
    /// Panics on an invalid spec (use [`HierarchySpec::validate`] first for
    /// graceful handling).
    pub fn build(spec: HierarchySpec, seed: u64) -> Self {
        Self::build_sharded(spec, seed, 1, 0)
    }

    /// Instantiate `spec` as a conservatively parallel world of `shards`
    /// event-queue shards (one per attachment-subtree block; the wired
    /// core rides on shard 0 — see [`simnet::shard`] for the window
    /// protocol); `shards <= 1` is the sequential build. `workers` caps
    /// the drain threads (`0` = available parallelism); it affects
    /// wall-clock only, never results. Journals are byte-identical per
    /// `(seed, shards)`, and semantically equivalent to the sequential
    /// build.
    pub(crate) fn build_sharded(
        spec: HierarchySpec,
        seed: u64,
        shards: usize,
        workers: usize,
    ) -> Self {
        let problems = spec.validate();
        assert!(problems.is_empty(), "invalid spec: {problems:?}");
        let harvest = HarvestSink::default();
        let mut telemetry_shards = std::collections::BTreeMap::new();
        // Journalling stays on even in quiet configs: the experiment layer
        // always reads the low-volume records (Ordered, handoffs); the
        // config flags gate only the per-delivery firehose.
        let (net, addrs) = if shards <= 1 {
            let mut sim = Sim::with_options(seed, true, wire_size);
            let addrs = assemble(&spec, &mut sim, &harvest);
            (Net::Seq(sim), addrs)
        } else {
            let sm = shard_map(&spec, shards);
            let mut sim = ShardedSim::new(seed, shards, sm.clone(), true, wire_size);
            sim.set_workers(workers);
            let addrs = assemble(&spec, &mut sim, &harvest);
            // Record the NE → shard placement for the telemetry report (only
            // NEs carry telemetry): the shard map is indexed by creation order.
            if spec.cfg.telemetry {
                let placed = spec.entities().zip(&sm);
                telemetry_shards.extend(placed.filter_map(|(e, &shard)| Some((e.ne_id()?, shard))));
            }
            (Net::Sharded(sim), addrs)
        };
        RingNetSim {
            net,
            addrs,
            spec,
            reporting: None,
            harvest,
            telemetry_shards,
        }
    }

    /// Cap the sharded drain threads (`0` = available parallelism). A
    /// wall-clock knob only: results are worker-count-independent. No-op
    /// on a sequential build.
    pub fn set_workers(&mut self, workers: usize) {
        if let Net::Sharded(s) = &mut self.net {
            s.set_workers(workers);
        }
    }

    /// Run until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        match &mut self.net {
            Net::Seq(s) => s.run_until(t),
            Net::Sharded(s) => s.run_until(t),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match &self.net {
            Net::Seq(s) => s.now(),
            Net::Sharded(s) => s.now(),
        }
    }

    /// Transport-level statistics (aggregated over shards when sharded).
    pub fn stats(&self) -> SimStats {
        match &self.net {
            Net::Seq(s) => s.stats(),
            Net::Sharded(s) => s.stats(),
        }
    }

    /// The journal receiving this run's protocol events (the master,
    /// merge-fed journal in sharded mode).
    pub fn journal_mut(&mut self) -> &mut simnet::Journal<ProtoEvent> {
        match &mut self.net {
            Net::Seq(s) => &mut s.world().journal,
            Net::Sharded(s) => s.journal_mut(),
        }
    }

    /// Schedule a control closure at `at` — the body of every `schedule_*`
    /// below, and the hook for faults they do not cover. One closure
    /// written against [`NetOps`] drives both execution modes (sequential
    /// controls run in event order; sharded controls run coordinator-side
    /// at a window barrier spanning every shard).
    pub fn schedule_control(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut dyn NetOps<Msg>) + Send + 'static,
    ) {
        match &mut self.net {
            Net::Seq(s) => s.world().schedule_control(at, move |w| f(w)),
            Net::Sharded(s) => s.schedule_control(at, move |v| f(v)),
        }
    }

    /// Schedule an MH handoff at `at`: the radio detaches from the current
    /// AP, attaches to `new_ap`, and the MH is stimulated to re-register.
    pub fn schedule_handoff(&mut self, at: SimTime, guid: Guid, new_ap: NodeId) {
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        let wireless = self.spec.links.wireless.clone();
        self.schedule_control(at, move |w| {
            let Some(mh_addr) = map.mh(guid) else { return };
            let Some(ap_addr) = map.ne(new_ap) else {
                return;
            };
            let old: Vec<NodeAddr> = w.neighbours_of(mh_addr);
            for o in old {
                w.disconnect_duplex(mh_addr, o);
            }
            w.connect_duplex(mh_addr, ap_addr, wireless.clone());
            w.inject(
                ap_addr,
                mh_addr,
                Msg::HandoffTo { group, new_ap },
                SimDuration::ZERO,
            );
        });
    }

    /// Schedule a late group join at `at` for an MH built with
    /// `initial_ap: None`.
    pub(crate) fn schedule_join(&mut self, at: SimTime, guid: Guid, ap: NodeId) {
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        let wireless = self.spec.links.wireless.clone();
        self.schedule_control(at, move |w| {
            let (Some(mh_addr), Some(ap_addr)) = (map.mh(guid), map.ne(ap)) else {
                return;
            };
            if !w.has_link(mh_addr, ap_addr) {
                w.connect_duplex(mh_addr, ap_addr, wireless.clone());
            }
            w.inject(
                ap_addr,
                mh_addr,
                Msg::JoinCmd { group, ap },
                SimDuration::ZERO,
            );
        });
    }

    /// Schedule a crash-stop failure of a network entity at `at`.
    pub fn schedule_kill_ne(&mut self, at: SimTime, node: NodeId) {
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        self.schedule_control(at, move |w| {
            if let Some(addr) = map.ne(node) {
                w.inject(addr, addr, Msg::Kill { group }, SimDuration::ZERO);
            }
        });
    }

    /// Schedule a restart of a crashed entity at `at` (see
    /// [`crate::node::NeState::restart`]): a restarted AP re-grafts on
    /// demand; a restarted BR/AG re-enters its repaired ring via the
    /// rejoin handshake.
    pub fn schedule_restart_ne(&mut self, at: SimTime, node: NodeId) {
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        self.schedule_control(at, move |w| {
            if let Some(addr) = map.ne(node) {
                w.inject(addr, addr, Msg::Restart { group }, SimDuration::ZERO);
            }
        });
    }

    /// Schedule an administrative up/down change of every direct link
    /// between two entities at `at` (wired partition / heal fault
    /// injection). Pairs without a direct link are a no-op.
    pub fn schedule_link_state(&mut self, at: SimTime, a: NodeId, b: NodeId, up: bool) {
        let map = Arc::clone(&self.addrs);
        self.schedule_control(at, move |w| {
            if let (Some(aa), Some(ba)) = (map.ne(a), map.ne(b)) {
                w.set_duplex_up(aa, ba, up);
            }
        });
    }

    /// The static ring peers of `member`: its fellow top-ring members when
    /// it is a BR, the other members of its AG ring otherwise.
    fn ring_peers_of(&self, member: NodeId) -> Vec<NodeId> {
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
        ring.iter().copied().filter(|&m| m != member).collect()
    }

    /// Schedule a ring partition (or its heal) at `at`: every direct link
    /// between `member` and the other members of its logical ring goes
    /// administratively down (`up = false`) or comes back (`up = true`).
    /// A ring-of-one member has no ring links, so this is a no-op there.
    pub(crate) fn schedule_ring_isolation(&mut self, at: SimTime, member: NodeId, up: bool) {
        let map = Arc::clone(&self.addrs);
        let peers = self.ring_peers_of(member);
        self.schedule_control(at, move |w| {
            let Some(ma) = map.ne(member) else { return };
            for pa in peers.into_iter().filter_map(|p| map.ne(p)) {
                w.set_duplex_up(ma, pa, up);
            }
        });
    }

    /// Schedule a Byzantine-ish control replay at `at` (see
    /// [`crate::driver::ReplayKind`]): a duplicated, delayed copy of a
    /// Token / RingFail / RejoinGrant concerning `member` is re-injected —
    /// the token by the member itself, the broadcasts to its ring peers.
    pub(crate) fn schedule_control_replay(
        &mut self,
        at: SimTime,
        kind: crate::driver::ReplayKind,
        member: NodeId,
    ) {
        use crate::driver::ReplayKind;
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        let peers = self.ring_peers_of(member);
        self.schedule_control(at, move |w| {
            let Some(ma) = map.ne(member) else { return };
            let peers: Vec<NodeAddr> = peers.into_iter().filter_map(|p| map.ne(p)).collect();
            let (dsts, copy): (Vec<NodeAddr>, fn(GroupId, NodeId) -> Msg) = match kind {
                // The member re-sends its kept snapshot — a delayed
                // duplicate of a pass it already forwarded.
                ReplayKind::Token => (vec![ma], |group, _| Msg::ReplayToken { group }),
                ReplayKind::RingFail => (peers, |group, failed| Msg::RingFail { group, failed }),
                ReplayKind::RejoinGrant => (peers, |group, member| Msg::RejoinGrant {
                    group,
                    member,
                    front: crate::ids::GlobalSeq::ZERO,
                    pass: None,
                }),
            };
            for dst in dsts {
                w.inject(ma, dst, copy(group, member), SimDuration::ZERO);
            }
        });
    }

    /// Schedule forced token loss at `at`: every top-ring node is armed to
    /// black-hole the next current-epoch token it receives (the first
    /// transfer after `at` vanishes; Token-Regeneration must recover).
    pub(crate) fn schedule_token_drop(&mut self, at: SimTime) {
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        let ring = self.spec.top_ring.clone();
        self.schedule_control(at, move |w| {
            for &node in &ring {
                if let Some(addr) = map.ne(node) {
                    w.inject(addr, addr, Msg::DropToken { group }, SimDuration::ZERO);
                }
            }
        });
    }

    /// Schedule a crash-stop failure of a mobile host at `at`.
    pub fn schedule_kill_mh(&mut self, at: SimTime, guid: Guid) {
        let map = Arc::clone(&self.addrs);
        let group = self.spec.group;
        self.schedule_control(at, move |w| {
            if let Some(addr) = map.mh(guid) {
                w.inject(addr, addr, Msg::Kill { group }, SimDuration::ZERO);
            }
        });
    }

    /// Send every entity and MH the teardown probe, drain just those
    /// events, and return `(journal, transport stats, end-of-run counters)`.
    pub fn finish(self) -> (Vec<(SimTime, ProtoEvent)>, SimStats, Finals) {
        let group = self.spec.group;
        let flush_targets: Vec<NodeAddr> = self.addrs.rev.keys().copied().collect();
        let (journal, stats) = match self.net {
            Net::Seq(mut s) => {
                let w = s.world();
                for addr in flush_targets {
                    w.inject(addr, addr, Msg::FlushStats { group }, SimDuration::ZERO);
                }
                // Drain only the flush events: advance a hair past `now`.
                let t = s.now() + SimDuration::from_nanos(1);
                s.run_until(t);
                s.finish()
            }
            Net::Sharded(mut s) => {
                // Flush via a barrier control so every shard observes it at
                // the same window edge, then drain a hair past `now`.
                let at = s.now();
                s.schedule_control(at, move |v| {
                    for addr in flush_targets {
                        v.inject(addr, addr, Msg::FlushStats { group }, SimDuration::ZERO);
                    }
                });
                s.run_until(at + SimDuration::from_nanos(1));
                s.finish()
            }
        };
        let finals = std::mem::take(&mut lock(&self.harvest).finals);
        (journal, stats, finals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyBuilder;

    fn small_spec() -> HierarchySpec {
        HierarchyBuilder::new(GroupId(1))
            .brs(3)
            .ag_rings(2, 2)
            .aps_per_ag(1)
            .mhs_per_ap(1)
            .sources(2)
            .source_pattern(TrafficPattern::Cbr {
                interval: SimDuration::from_millis(20),
            })
            .source_limit(10)
            .build()
    }

    #[test]
    fn build_and_run_small_network() {
        let mut net = RingNetSim::build(small_spec(), 42);
        net.run_until(SimTime::from_secs(3));
        let (journal, stats, finals) = net.finish();
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

    #[test]
    fn deterministic_replay() {
        fn run(seed: u64) -> Vec<(SimTime, ProtoEvent)> {
            let mut net = RingNetSim::build(small_spec(), seed);
            net.run_until(SimTime::from_secs(2));
            net.finish().0
        }
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same journal");
    }

    #[test]
    fn handoff_scenario_delivers_everything() {
        let mut net = RingNetSim::build(small_spec(), 3);
        // Move MH 0 from its AP to the other ring's AP at t = 1s.
        let target_ap = net.spec.aps.last().unwrap().id;
        net.schedule_handoff(SimTime::from_secs(1), Guid(0), target_ap);
        net.run_until(SimTime::from_secs(4));
        let (journal, ..) = net.finish();
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
        let mut spec = small_spec();
        // Unlimited source so traffic spans the failure.
        for s in &mut spec.sources {
            s.limit = Some(100);
        }
        let victim = spec.top_ring[2]; // not the token origin (leader 0)
        let mut net = RingNetSim::build(spec, 5);
        net.schedule_kill_ne(SimTime::from_secs(1), victim);
        net.run_until(SimTime::from_secs(6));
        let (journal, ..) = net.finish();
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

    /// Per-MH delivered GSN sequences — the semantic equivalence surface
    /// across execution modes (event interleaving may differ between shard
    /// counts, but every walker must see the same ordered stream).
    fn delivery_sets(
        journal: &[(SimTime, ProtoEvent)],
    ) -> std::collections::BTreeMap<u32, Vec<u64>> {
        let mut per_mh: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for (_, e) in journal {
            if let ProtoEvent::MhDeliver { mh, gsn, .. } = e {
                per_mh.entry(mh.0).or_default().push(gsn.0);
            }
        }
        per_mh
    }

    #[test]
    fn sharded_build_matches_sequential_deliveries() {
        let mut seq = RingNetSim::build(small_spec(), 42);
        seq.run_until(SimTime::from_secs(3));
        let (seq_journal, ..) = seq.finish();

        let mut par = RingNetSim::build_sharded(small_spec(), 42, 2, 1);
        par.run_until(SimTime::from_secs(3));
        let (par_journal, par_stats, _) = par.finish();

        assert!(par_stats.packets_delivered > 0);
        assert_eq!(
            delivery_sets(&seq_journal),
            delivery_sets(&par_journal),
            "sharded world delivers the same ordered stream to every walker"
        );
    }

    #[test]
    fn sharded_journal_is_byte_identical_per_shard_count() {
        fn run(workers: usize) -> Vec<(SimTime, ProtoEvent)> {
            let mut net = RingNetSim::build_sharded(small_spec(), 9, 2, workers);
            net.run_until(SimTime::from_secs(2));
            net.finish().0
        }
        let a = run(1);
        let b = run(1);
        let c = run(4);
        assert_eq!(a, b, "same (seed, shards) ⇒ same journal");
        assert_eq!(a, c, "worker count never changes results");
    }

    #[test]
    fn sharded_handoff_crosses_shards() {
        let mut net = RingNetSim::build_sharded(small_spec(), 3, 2, 0);
        // The last AP lives in the last shard block; MH 0 starts in the
        // first, so this handoff rewires a cross-shard wireless link via
        // the barrier-side NetView.
        let target_ap = net.spec.aps.last().unwrap().id;
        net.schedule_handoff(SimTime::from_secs(1), Guid(0), target_ap);
        net.run_until(SimTime::from_secs(4));
        let (journal, ..) = net.finish();
        let registered = journal.iter().any(|(_, e)| {
            matches!(e, ProtoEvent::HandoffRegistered { mh: Guid(0), ap, .. } if *ap == target_ap)
        });
        assert!(registered, "cross-shard handoff registration recorded");
        let delivered = delivery_sets(&journal).remove(&0).unwrap_or_default();
        assert_eq!(
            delivered.len(),
            20,
            "no message lost across the sharded handoff: {delivered:?}"
        );
    }

    #[test]
    fn shard_map_partitions_by_attachment_block() {
        let spec = small_spec();
        let map = shard_map(&spec, 2);
        let n_core =
            spec.top_ring.len() + spec.ag_rings.iter().map(|r| r.members.len()).sum::<usize>();
        assert!(map[..n_core].iter().all(|&s| s == 0), "core rides shard 0");
        assert_eq!(
            map.len(),
            n_core + spec.aps.len() + spec.sources.len() + spec.mhs.len()
        );
        let used: std::collections::BTreeSet<u32> = map.iter().copied().collect();
        assert_eq!(used.len(), 2, "both shards own at least one node");
    }

    #[test]
    #[should_panic(expected = "attachment subtrees")]
    fn shard_map_rejects_more_shards_than_aps() {
        let spec = small_spec();
        shard_map(&spec, 64);
    }
}
