//! Protocol-conformance tests driving the sans-IO state machines directly
//! through a tiny instant-delivery router — no simulator, no timers except
//! the ones the test fires explicitly. This pins down the *message-level*
//! behaviour of the algorithms: what is sent, to whom, in which order.

use std::collections::{BTreeMap, VecDeque};

use ringnet_core::{
    Action, Endpoint, GlobalSeq, GroupId, Guid, LocalSeq, MhState, Msg, NeState, NodeId, PayloadId,
    ProtoEvent, ProtocolConfig,
};
use simnet::{SimDuration, SimTime};

const G: GroupId = GroupId(1);

/// An instant, lossless router between state machines.
///
/// Data and control messages deliver instantly; **token transfers are
/// paced** (held in a side queue, advanced one hop per [`Net::pump_token`]
/// call). Without pacing an instant network would rotate the token
/// infinitely fast — a regime no real link allows.
struct Net {
    nes: BTreeMap<NodeId, NeState>,
    mhs: BTreeMap<Guid, MhState>,
    queue: VecDeque<(Endpoint, Endpoint, Msg)>, // (from, to, msg)
    token_pending: VecDeque<(Endpoint, Endpoint, Msg)>,
    pub records: Vec<ProtoEvent>,
    now: SimTime,
}

impl Net {
    fn new() -> Self {
        Net {
            nes: BTreeMap::new(),
            mhs: BTreeMap::new(),
            queue: VecDeque::new(),
            token_pending: VecDeque::new(),
            records: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn add_ne(&mut self, ne: NeState) {
        self.nes.insert(ne.id, ne);
    }

    fn add_mh(&mut self, mh: MhState) {
        self.mhs.insert(mh.guid, mh);
    }

    fn absorb(&mut self, from: Endpoint, out: Vec<Action>) {
        for a in out {
            match a {
                Action::Send { to, msg } => self.queue.push_back((from, to, msg)),
                Action::Record(ev) => self.records.push(ev),
            }
        }
    }

    /// Deliver queued messages (and their cascades) to quiescence. Token
    /// transfers are parked in the side queue instead of being delivered —
    /// [`Net::pump_token`] advances them one hop at a time.
    fn settle(&mut self) {
        let mut hops = 0;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            hops += 1;
            assert!(hops < 100_000, "protocol livelock");
            if matches!(msg, Msg::Token(_)) {
                self.token_pending.push_back((from, to, msg));
                continue;
            }
            let mut out = Vec::new();
            match to {
                Endpoint::Ne(id) => {
                    if let Some(ne) = self.nes.get_mut(&id) {
                        ne.on_msg(self.now, from, msg, &mut out);
                    }
                }
                Endpoint::Mh(g) => {
                    if let Some(mh) = self.mhs.get_mut(&g) {
                        mh.on_msg(self.now, from, msg, &mut out);
                    }
                }
            }
            self.absorb(to, out);
        }
    }

    /// Advance up to `hops` parked token transfers (one link hop each).
    fn pump_token(&mut self, hops: usize) {
        for _ in 0..hops {
            let Some((from, to, msg)) = self.token_pending.pop_front() else {
                return;
            };
            let mut out = Vec::new();
            if let Endpoint::Ne(id) = to {
                if let Some(ne) = self.nes.get_mut(&id) {
                    ne.on_msg(self.now, from, msg, &mut out);
                }
            }
            self.absorb(to, out);
            self.settle();
        }
    }

    fn tick_all(&mut self, advance: SimDuration) {
        self.now += advance;
        let ids: Vec<NodeId> = self.nes.keys().copied().collect();
        for id in ids {
            let mut out = Vec::new();
            let now = self.now;
            self.nes.get_mut(&id).unwrap().tick_hop(now, &mut out);
            self.absorb(Endpoint::Ne(id), out);
        }
        let gs: Vec<Guid> = self.mhs.keys().copied().collect();
        for g in gs {
            let mut out = Vec::new();
            let now = self.now;
            self.mhs.get_mut(&g).unwrap().tick_hop(now, &mut out);
            self.absorb(Endpoint::Mh(g), out);
        }
        self.settle();
    }

    /// Run the heartbeat tick of every NE at the current time.
    fn tick_heartbeats(&mut self) {
        let ids: Vec<NodeId> = self.nes.keys().copied().collect();
        for id in ids {
            let mut out = Vec::new();
            let now = self.now;
            self.nes.get_mut(&id).unwrap().tick_heartbeat(now, &mut out);
            self.absorb(Endpoint::Ne(id), out);
        }
        self.settle();
    }

    /// Let `ms` pass the way the engine's timers would: a hop tick every
    /// 5 ms, a heartbeat tick every 50 ms.
    fn run_ms(&mut self, ms: u64) {
        let period = SimDuration::from_millis(50).as_nanos();
        for _ in 0..ms / 5 {
            self.tick_all(SimDuration::from_millis(5));
            let elapsed = self.now.saturating_since(SimTime::ZERO).as_nanos();
            if elapsed.is_multiple_of(period) {
                self.tick_heartbeats();
            }
        }
    }

    /// Hand `msg` to `to` as if `from` had sent it, and let the cascade
    /// settle.
    fn inject(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        let mut out = Vec::new();
        let now = self.now;
        self.nes
            .get_mut(&to)
            .unwrap()
            .on_msg(now, Endpoint::Ne(from), msg, &mut out);
        self.absorb(Endpoint::Ne(to), out);
        self.settle();
    }

    fn source_send(&mut self, br: NodeId, ls: u64) {
        let mut out = Vec::new();
        let msg = Msg::SourceData {
            group: G,
            local_seq: LocalSeq(ls),
            payload: PayloadId(ls),
        };
        let now = self.now;
        self.nes
            .get_mut(&br)
            .unwrap()
            .on_msg(now, Endpoint::Ne(NodeId(u32::MAX)), msg, &mut out);
        self.absorb(Endpoint::Ne(br), out);
        self.settle();
    }
}

/// Two-BR top ring with one AP under BR0 and one MH.
fn two_node_world() -> Net {
    let cfg = ProtocolConfig::default();
    let ring = vec![NodeId(0), NodeId(1)];
    let mut net = Net::new();
    let mut br0 = NeState::new_br(G, NodeId(0), ring.clone(), true, cfg.clone());
    let br1 = NeState::new_br(G, NodeId(1), ring, true, cfg.clone());
    // AP 10 under BR0 (grafted statically for the test).
    let mut ap = NeState::new_ap(G, NodeId(10), vec![NodeId(0)], true, vec![], cfg.clone());
    ap.parent = Some(NodeId(0));
    br0.children.insert(NodeId(10), SimTime::ZERO);
    br0.wt_children.register(NodeId(10), GlobalSeq::ZERO);
    let mut mh = MhState::new(G, Guid(7), cfg);
    let mut out = Vec::new();
    mh.join(SimTime::ZERO, NodeId(10), &mut out);
    net.add_ne(br0);
    net.add_ne(br1);
    net.add_ne(ap);
    net.add_mh(mh);
    net.absorb(Endpoint::Mh(Guid(7)), out);
    net.settle();
    net
}

#[test]
fn end_to_end_ordering_handshake() {
    let mut net = two_node_world();
    // Token starts at BR0 and circulates instantly.
    let mut out = Vec::new();
    {
        let now = net.now;
        net.nes
            .get_mut(&NodeId(0))
            .unwrap()
            .originate_token(now, &mut out);
    }
    net.absorb(Endpoint::Ne(NodeId(0)), out);
    net.settle();

    // Both sources inject one message each.
    net.source_send(NodeId(0), 1);
    net.source_send(NodeId(1), 1);

    // Paced rounds: the token advances one hop per hop tick, like a real
    // network where link latency and the tick are comparable.
    for _ in 0..12 {
        net.pump_token(1);
        net.tick_all(SimDuration::from_millis(5));
    }

    // Both messages ordered with unique, contiguous global numbers.
    let ordered: Vec<(NodeId, u64)> = net
        .records
        .iter()
        .filter_map(|e| match e {
            ProtoEvent::Ordered { node, gsn, .. } => Some((*node, gsn.0)),
            _ => None,
        })
        .collect();
    assert_eq!(ordered.len(), 2, "{ordered:?}");
    let mut gsns: Vec<u64> = ordered.iter().map(|(_, g)| *g).collect();
    gsns.sort_unstable();
    assert_eq!(gsns, vec![1, 2]);

    // The MH delivered both, in order.
    let delivered: Vec<u64> = net
        .records
        .iter()
        .filter_map(|e| match e {
            ProtoEvent::MhDeliver {
                mh: Guid(7), gsn, ..
            } => Some(gsn.0),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![1, 2]);
}

#[test]
fn pre_order_reaches_every_ring_node_exactly_once() {
    let cfg = ProtocolConfig::default();
    let ring: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut net = Net::new();
    for &id in &ring {
        net.add_ne(NeState::new_br(G, id, ring.clone(), true, cfg.clone()));
    }
    net.source_send(NodeId(0), 1);
    // Every node's WQ holds stream 0's message exactly once (dup counter 0).
    for &id in &ring {
        let ne = &net.nes[&id];
        assert!(
            ne.wq
                .as_ref()
                .unwrap()
                .get(NodeId(0), LocalSeq(1))
                .is_some(),
            "{id} missing the pre-order copy"
        );
        assert_eq!(ne.counters.duplicates, 0, "{id} got duplicates");
    }
}

#[test]
fn data_nack_repair_round_trip() {
    let cfg = ProtocolConfig::default();
    let mut net = Net::new();
    // Parent 0 with child 1 (plain tree, no rings).
    let mut parent = NeState::new_ap(G, NodeId(0), vec![], true, vec![], cfg.clone());
    parent.children.insert(NodeId(1), SimTime::ZERO);
    parent.wt_children.register(NodeId(1), GlobalSeq::ZERO);
    let mut child = NeState::new_ap(G, NodeId(1), vec![NodeId(0)], true, vec![], cfg.clone());
    child.parent = Some(NodeId(0));
    // Parent has gsn 1..3 in MQ; child somehow only got 3 (gap 1-2).
    let mk = |g: u64| ringnet_core::MsgData {
        source: NodeId(9),
        local_seq: LocalSeq(g),
        ordering_node: NodeId(9),
        payload: PayloadId(g),
    };
    for g in 1..=3 {
        parent.mq.insert(GlobalSeq(g), mk(g));
    }
    parent.mq.poll_deliverable();
    child.mq.insert(GlobalSeq(3), mk(3));
    net.add_ne(parent);
    net.add_ne(child);
    // One tick: the child NACKs {1,2} to the parent, the parent serves both,
    // the child's front advances to 3.
    net.tick_all(SimDuration::from_millis(5));
    let child = &net.nes[&NodeId(1)];
    assert_eq!(child.mq.front(), GlobalSeq(3));
    let parent = &net.nes[&NodeId(0)];
    assert_eq!(parent.counters.retransmissions, 2);
}

#[test]
fn handoff_between_aps_preserves_continuity() {
    let cfg = ProtocolConfig::default();
    let mut net = Net::new();
    let mk = |g: u64| ringnet_core::MsgData {
        source: NodeId(9),
        local_seq: LocalSeq(g),
        ordering_node: NodeId(9),
        payload: PayloadId(g),
    };
    // Two active APs, both already hold gsn 1..5.
    for ap_id in [10u32, 11] {
        let mut ap = NeState::new_ap(G, NodeId(ap_id), vec![], true, vec![], cfg.clone());
        for g in 1..=5 {
            ap.mq.insert(GlobalSeq(g), mk(g));
        }
        ap.mq.poll_deliverable();
        net.add_ne(ap);
    }
    // MH joins AP10 *after* those 5 messages — receives none of them.
    let mut mh = MhState::new(G, Guid(1), cfg);
    let mut out = Vec::new();
    mh.join(SimTime::ZERO, NodeId(10), &mut out);
    net.add_mh(mh);
    net.absorb(Endpoint::Mh(Guid(1)), out);
    net.settle();
    // AP10 receives gsn 6 → pushes it to the MH.
    {
        let mut out = Vec::new();
        let now = net.now;
        let ap = net.nes.get_mut(&NodeId(10)).unwrap();
        ap.on_msg(
            now,
            Endpoint::Ne(NodeId(0)),
            Msg::Data {
                group: G,
                gsn: GlobalSeq(6),
                data: mk(6),
            },
            &mut out,
        );
        net.absorb(Endpoint::Ne(NodeId(10)), out);
    }
    net.settle();
    // Handoff to AP11 (which also holds 6? no — it has only 1..5; give it 6..7).
    {
        let mut out = Vec::new();
        let now = net.now;
        let ap = net.nes.get_mut(&NodeId(11)).unwrap();
        for g in 6..=7 {
            ap.on_msg(
                now,
                Endpoint::Ne(NodeId(0)),
                Msg::Data {
                    group: G,
                    gsn: GlobalSeq(g),
                    data: mk(g),
                },
                &mut out,
            );
        }
        net.absorb(Endpoint::Ne(NodeId(11)), out);
    }
    {
        let mut out = Vec::new();
        let now = net.now;
        net.mhs.get_mut(&Guid(1)).unwrap().on_msg(
            now,
            Endpoint::Ne(NodeId(11)),
            Msg::HandoffTo {
                group: G,
                new_ap: NodeId(11),
            },
            &mut out,
        );
        net.absorb(Endpoint::Mh(Guid(1)), out);
    }
    net.settle();
    // The MH's stream: 6 at the old AP, 7 replayed by the new one — no gap,
    // no duplicate, no history.
    let delivered: Vec<u64> = net
        .records
        .iter()
        .filter_map(|e| match e {
            ProtoEvent::MhDeliver {
                mh: Guid(1), gsn, ..
            } => Some(gsn.0),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![6, 7]);
    let mh = &net.mhs[&Guid(1)];
    assert_eq!(mh.counters.duplicates, 0);
    assert_eq!(mh.counters.handoffs, 1);
}

#[test]
fn token_survives_instant_two_node_circulation() {
    let mut net = two_node_world();
    let mut out = Vec::new();
    {
        let now = net.now;
        net.nes
            .get_mut(&NodeId(0))
            .unwrap()
            .originate_token(now, &mut out);
    }
    net.absorb(Endpoint::Ne(NodeId(0)), out);
    net.settle();
    // Advance the token several paced hops around the two-node ring.
    net.pump_token(6);
    let passes = net
        .records
        .iter()
        .filter(|e| matches!(e, ProtoEvent::TokenPass { .. }))
        .count();
    assert!(passes >= 2, "token circulated: {passes} passes");
    // After the acks settle, at most the last sender holds an inflight copy.
    let inflight: usize = net
        .nes
        .values()
        .filter(|ne| ne.ord.as_ref().is_some_and(|o| o.inflight.is_some()))
        .count();
    assert!(inflight <= 1, "inflight transfers: {inflight}");
}

#[test]
fn membership_counts_aggregate_to_top_leader() {
    let cfg = ProtocolConfig::default();
    let ring = vec![NodeId(0), NodeId(1)];
    let mut net = Net::new();
    net.add_ne(NeState::new_br(
        G,
        NodeId(0),
        ring.clone(),
        true,
        cfg.clone(),
    ));
    net.add_ne(NeState::new_br(G, NodeId(1), ring, true, cfg.clone()));
    let mut ap = NeState::new_ap(G, NodeId(10), vec![NodeId(1)], true, vec![], cfg.clone());
    ap.parent = Some(NodeId(1));
    net.add_ne(ap);
    // Three joins at the AP.
    for g in 0..3u32 {
        let mut mh = MhState::new(G, Guid(g), cfg.clone());
        let mut out = Vec::new();
        mh.join(net.now, NodeId(10), &mut out);
        net.add_mh(mh);
        net.absorb(Endpoint::Mh(Guid(g)), out);
    }
    net.settle();
    // Heartbeat ticks flush the batched deltas AP → BR1 → leader BR0.
    for _ in 0..3 {
        net.tick_heartbeats();
    }
    let count = net
        .records
        .iter()
        .rev()
        .find_map(|e| match e {
            ProtoEvent::MembershipCount {
                node: NodeId(0),
                members,
                ..
            } => Some(*members),
            _ => None,
        })
        .expect("top leader recorded the aggregate");
    assert_eq!(count, 3);
}

// ------------------------------------------------------------------------
// Acknowledgements are sent when they say something — so every path that
// makes a hop forget what it was told has to make the teller say it again,
// on a stream that will never move the front for it.

fn ordered(g: u64) -> Msg {
    Msg::Data {
        group: G,
        gsn: GlobalSeq(g),
        data: ringnet_core::MsgData {
            source: NodeId(9),
            local_seq: LocalSeq(g),
            ordering_node: NodeId(9),
            payload: PayloadId(g),
        },
    }
}

/// A non-top ring of AGs under the (absent) parent BR 1, its leader having
/// injected gs 1..=3, everybody having acknowledged them, and nothing
/// having been sent since: the idle stream.
fn idle_ag_ring(ids: &[u32]) -> Net {
    let ring: Vec<NodeId> = ids.iter().copied().map(NodeId).collect();
    let mut net = Net::new();
    for &id in &ring {
        let mut ag = NeState::new_ag(G, id, ring.clone(), vec![NodeId(1)], Default::default());
        ag.parent = (id == ring[0]).then_some(NodeId(1));
        net.add_ne(ag);
    }
    // Off the heartbeat's phase, so that a refresh of the unmoved front
    // (one heartbeat period after the first ack, and so on) never falls
    // on the ack tick that follows a heartbeat tick.
    net.run_ms(25);
    for g in 1..=3 {
        net.inject(NodeId(1), ring[0], ordered(g));
    }
    net.run_ms(100);
    for &id in &ring {
        assert_eq!(net.nes[&id].mq.front(), GlobalSeq(3));
        assert_eq!(acked_by_next(&net, id.0), GlobalSeq(3));
    }
    net
}

fn acked_by_next(net: &Net, id: u32) -> GlobalSeq {
    net.nes[&NodeId(id)].ring.as_ref().unwrap().next_acked_mq
}

#[test]
fn idle_ring_repair_has_the_new_next_restate_its_front() {
    let mut net = idle_ag_ring(&[10, 20, 30]);
    net.nes.get_mut(&NodeId(20)).unwrap().kill();
    // Hop ticks keep running while the heartbeat misses add up, so AG 30
    // goes on refreshing its (dead) previous node: silence is not what
    // makes it speak to its new one.
    while net.nes[&NodeId(10)].ring_next() == Some(NodeId(20)) {
        net.run_ms(5);
        assert!(net.now < SimTime::from_secs(1), "AG 20 never excised");
    }
    assert_eq!(
        acked_by_next(&net, 10),
        GlobalSeq::ZERO,
        "the repair starts the new next's progress over"
    );
    // One ack period later AG 30 has told its new previous node where it
    // stands, and AG 10 collects garbage again.
    net.run_ms(10);
    assert_eq!(acked_by_next(&net, 10), GlobalSeq(3));
    assert_eq!(net.nes[&NodeId(10)].mq.occupancy(), 1, "service tail only");
}

#[test]
fn idle_rejoin_has_both_neighbours_restate_their_fronts() {
    // A ring of two: across its crash AG 20 stays the only node AG 10 ever
    // acknowledges to, so nothing but the grant voids what AG 10 told it.
    let mut net = idle_ag_ring(&[10, 20]);
    net.nes.get_mut(&NodeId(20)).unwrap().kill();
    while net.nes[&NodeId(10)].ring_next() == Some(NodeId(20)) {
        net.run_ms(5);
        assert!(net.now < SimTime::from_secs(1), "AG 20 never excised");
    }
    net.inject(NodeId(20), NodeId(20), Msg::Restart { group: G });
    assert!(!net.nes[&NodeId(20)].is_rejoining(), "granted at once");
    assert_eq!(net.nes[&NodeId(20)].mq.front(), GlobalSeq(3), "resynced");
    assert_eq!(acked_by_next(&net, 10), GlobalSeq::ZERO);
    assert_eq!(acked_by_next(&net, 20), GlobalSeq::ZERO);
    net.run_ms(10);
    assert_eq!(acked_by_next(&net, 10), GlobalSeq(3), "the rejoiner spoke");
    assert_eq!(acked_by_next(&net, 20), GlobalSeq(3), "so did the granter");
}

#[test]
fn idle_child_failing_over_is_known_to_its_backup_parent() {
    let mut net = idle_ag_ring(&[20, 21]);
    let mut ap = NeState::new_ap(
        G,
        NodeId(99),
        vec![NodeId(20), NodeId(21)],
        true,
        vec![],
        Default::default(),
    );
    ap.mq.fast_forward(GlobalSeq(3));
    ap.parent = Some(NodeId(20));
    net.add_ne(ap);
    let graft = Msg::Graft {
        group: G,
        child: NodeId(99),
        resume_from: GlobalSeq(3),
        resync: false,
    };
    net.inject(NodeId(99), NodeId(20), graft);
    let progress =
        |net: &Net, parent: u32| net.nes[&NodeId(parent)].wt_children.progress(NodeId(99));
    assert_eq!(progress(&net, 20), Some(GlobalSeq(3)));
    assert_eq!(progress(&net, 21), None);
    net.nes.get_mut(&NodeId(20)).unwrap().kill();
    while net.nes[&NodeId(99)].parent == Some(NodeId(20)) {
        net.run_ms(5);
        assert!(net.now < SimTime::from_secs(1), "AP 99 never failed over");
    }
    net.run_ms(10);
    assert_eq!(progress(&net, 21), Some(GlobalSeq(3)));
    assert_eq!(net.nes[&NodeId(21)].mq.occupancy(), 1, "service tail only");
}

#[test]
fn lost_last_ack_of_a_finished_stream_heals_within_a_heartbeat_period() {
    let cfg = ProtocolConfig::default();
    let mut net = Net::new();
    let mut parent = NeState::new_ap(G, NodeId(0), vec![], true, vec![], cfg.clone());
    parent.children.insert(NodeId(1), SimTime::ZERO);
    parent.wt_children.register(NodeId(1), GlobalSeq::ZERO);
    let mut child = NeState::new_ap(G, NodeId(1), vec![NodeId(0)], true, vec![], cfg.clone());
    child.parent = Some(NodeId(0));
    child.ap.as_mut().unwrap().grafted = true;
    net.add_ne(parent);
    net.add_ne(child);
    for g in 1..=3 {
        net.inject(NodeId(9), NodeId(0), ordered(g));
    }
    assert_eq!(net.nes[&NodeId(1)].mq.front(), GlobalSeq(3));
    // The stream has finished. The child's one ack (second hop tick, 10 ms)
    // is lost on the wire: its output is dropped, not routed.
    for _ in 0..2 {
        net.now += SimDuration::from_millis(5);
        let now = net.now;
        let mut lost = Vec::new();
        net.nes
            .get_mut(&NodeId(1))
            .unwrap()
            .tick_hop(now, &mut lost);
        if now == SimTime::from_millis(10) {
            assert!(matches!(
                lost[..],
                [Action::Send {
                    msg: Msg::DataAck { .. },
                    ..
                }]
            ));
        }
    }
    let progress = |net: &Net| net.nes[&NodeId(0)].wt_children.progress(NodeId(1));
    // An unmoved front is not repeated on the ack ticks that follow…
    net.run_ms(45);
    assert_eq!(net.now, SimTime::from_millis(55));
    assert_eq!(progress(&net), Some(GlobalSeq::ZERO));
    assert_eq!(
        net.nes[&NodeId(0)].mq.occupancy(),
        3,
        "pinned by the lost ack"
    );
    // …but one heartbeat period after it was sent it is said again, and the
    // parent's MQ drains to its service tail.
    net.run_ms(5);
    assert_eq!(progress(&net), Some(GlobalSeq(3)));
    net.run_ms(5);
    assert_eq!(net.nes[&NodeId(0)].mq.occupancy(), 1);
}
