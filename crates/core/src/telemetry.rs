//! Deterministic, sim-time-only observability: per-node counters and
//! histograms, and a flight recorder of protocol-phase trace records.
//!
//! The recorder keeps the paper's rare phases (regeneration, epoch bumps,
//! rejoin, partition, merge), `RECORDER_DEPTH` per node. A token pass is
//! only counted and timed here: the journal's `ProtoEvent::TokenPass`
//! already records it, with the same fields at the same instant.
//!
//! Everything here is keyed by static names and ordered containers
//! (`BTreeMap`, `VecDeque`) so that dumps are byte-identical per seed.
//! No wall clocks: the only notion of time is [`simnet::SimTime`]. The layer
//! is a strict observer — enabling it must never perturb the protocol
//! journal, the RNG streams, or message traffic; `cfg.telemetry =
//! false` (the default) short-circuits every method to a no-op.
//!
//! Shape: each [`crate::node::NeState`] embeds a [`Telemetry`]; at
//! teardown the engine harvests a [`NodeDump`] per node, which the driver
//! wraps into the [`TelemetryReport`] surfaced on
//! [`crate::driver::RunReport`]. The merged trace interleaves per-node
//! recorders in `(time, node, seq)` order.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use simnet::SimTime;

use crate::config::ProtocolConfig;
use crate::ids::{Epoch, GlobalSeq, NodeId};

/// Static metric names — the full catalogue, one place.
pub mod metric {
    /// Histogram: sim-ns between consecutive token receipts at a node.
    pub const TOKEN_ROTATION_NS: &str = "token_rotation_ns";
    /// Histogram: sim-ns from GSN assignment to local delivery.
    pub const GSN_DELIVERY_LAG_NS: &str = "gsn_delivery_lag_ns";
    /// Histogram: sim-ns from first RejoinRequest to splice completion.
    pub const REJOIN_HANDSHAKE_NS: &str = "rejoin_handshake_ns";
    /// Histogram: sim-ns from heal evidence to merge completion.
    pub const MERGE_HANDSHAKE_NS: &str = "merge_handshake_ns";
    /// Counter: token receipts processed on the ordering ring.
    pub const TOKEN_PASSES: &str = "token_passes";
    /// Counter: GSNs this node assigned while holding the token.
    pub const GSN_ASSIGNED: &str = "gsn_assigned";
    /// Counter: Token-Regeneration rounds this node originated.
    pub const REGEN_ORIGINATED: &str = "regen_originated";
    /// Counter: regenerated tokens this node adopted.
    pub const REGEN_ADOPTED: &str = "regen_adopted";
    /// Counter: regen rounds destroyed at this node (arbitration/quiet).
    pub const REGEN_DESTROYED: &str = "regen_destroyed";
    /// Counter: regen rounds this node ceded to a lower-id originator.
    pub const REGEN_CEDED: &str = "regen_ceded";
    /// Counter: stale-epoch tokens destroyed by the fence.
    pub const STALE_TOKENS_DESTROYED: &str = "stale_tokens_destroyed";
    /// Counter: epoch bumps caused by token regeneration.
    pub const EPOCH_BUMPS_REGEN: &str = "epoch_bumps_regen";
    /// Counter: epoch adoptions seeded by a rejoin grant pass.
    pub const EPOCH_BUMPS_REJOIN_SEED: &str = "epoch_bumps_rejoin_seed";
    /// Counter: epoch adoptions seeded by a merge grant pass.
    pub const EPOCH_BUMPS_MERGE_SEED: &str = "epoch_bumps_merge_seed";
    /// Counter: heartbeat misses that moved the successor to Suspected.
    pub const HB_SUSPECTS: &str = "hb_suspects";
    /// Counter: suspicions refuted by a late heartbeat ack.
    pub const HB_REFUTES: &str = "hb_refutes";
    /// Counter: ring repairs (successor excised and bypassed).
    pub const RING_REPAIRS: &str = "ring_repairs";
    /// Counter: times this node fenced itself as a partition minority.
    pub const PARTITION_FENCES: &str = "partition_fences";
    /// Counter: completed ring merges at this node.
    pub const MERGES: &str = "merges";
    /// Counter: RejoinRequests sent (rejoin and merge handshakes).
    pub const REJOIN_REQUESTS: &str = "rejoin_requests";
    /// Counter: rejoin grants spliced into the ring by this node.
    pub const REJOINS_GRANTED: &str = "rejoins_granted";
    /// Counter: data-gap NACKs sent upstream.
    pub const NACKS_SENT: &str = "nacks_sent";
    /// Counter: pre-order NACKs sent toward the ordering ring.
    pub const PREORDER_NACKS_SENT: &str = "preorder_nacks_sent";
    /// Counter: retained copies re-sent in answer to a NACK.
    pub const RETRANSMISSIONS_SERVED: &str = "retransmissions_served";
    /// Counter: messages Order-Assignment copied `WQ`→`MQ` at the instant
    /// a token snapshot was installed (every loss-free delivery).
    pub const COPIED_ON_TOKEN: &str = "order_assign.copied_on_token";
    /// Counter: messages copied when a (fence) pre-order landed under an
    /// entry a kept snapshot already covered.
    pub const COPIED_ON_PREORDER: &str = "order_assign.copied_on_preorder";
    /// Counter: cumulative `DataAck`s sent (progress and refresh alike).
    /// With the five below, the split of an entity's `control_sent`
    /// ([`crate::metrics::NeFinal`]) by message kind (see
    /// `Msg::control_metric`).
    pub const CONTROL_SENT_DATA_ACK: &str = "control_sent.data_ack";
    /// Counter: `DataNack`s and `PreOrderNack`s sent.
    pub const CONTROL_SENT_NACK: &str = "control_sent.nack";
    /// Counter: ordering-token transfers sent (retries and replays too).
    pub const CONTROL_SENT_TOKEN: &str = "control_sent.token";
    /// Counter: `TokenAck`s sent.
    pub const CONTROL_SENT_TOKEN_ACK: &str = "control_sent.token_ack";
    /// Counter: `Heartbeat`s and `HeartbeatAck`s sent.
    pub const CONTROL_SENT_HEARTBEAT: &str = "control_sent.heartbeat";
    /// Counter: every other control message sent (tree, membership,
    /// mobility and token-recovery signalling).
    pub const CONTROL_SENT_OTHER: &str = "control_sent.other";
}

/// Fixed histogram bucket upper bounds, in sim-nanoseconds.
///
/// The ladder spans 50µs–250ms of simulated time — token rotations and
/// delivery lags in generated worlds live well inside it; anything
/// slower lands in the overflow bucket.
pub(crate) const BUCKET_BOUNDS_NS: [u64; 12] = [
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
];

/// A fixed-bucket histogram over sim-nanosecond observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    /// Per-bucket counts; the final slot is the overflow bucket.
    pub buckets: [u64; BUCKET_BOUNDS_NS.len() + 1],
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in sim-ns.
    pub sum_ns: u64,
    /// Smallest observation, in sim-ns (0 when empty).
    pub min_ns: u64,
    /// Largest observation, in sim-ns (0 when empty).
    pub max_ns: u64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        FixedHistogram {
            buckets: [0; BUCKET_BOUNDS_NS.len() + 1],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl FixedHistogram {
    /// Record one sim-ns observation.
    pub fn observe(&mut self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx] += 1;
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Mean observation in sim-ns, 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Fold another histogram's observations into this one.
    fn merge(&mut self, other: &FixedHistogram) {
        for (slot, add) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += add;
        }
        if other.count > 0 {
            if self.count == 0 || other.min_ns < self.min_ns {
                self.min_ns = other.min_ns;
            }
            self.max_ns = self.max_ns.max(other.max_ns);
            self.count += other.count;
            self.sum_ns += other.sum_ns;
        }
    }
}

/// Why an epoch advanced at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCause {
    /// A Token-Regeneration round minted the next epoch.
    Regenerated,
    /// A rejoin grant's epoch pass seeded a newer fence instance.
    RejoinSeed,
    /// A merge grant's epoch pass seeded a newer fence instance.
    MergeSeed,
}

impl EpochCause {
    /// Stable lower-case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            EpochCause::Regenerated => "regenerated",
            EpochCause::RejoinSeed => "rejoin_seed",
            EpochCause::MergeSeed => "merge_seed",
        }
    }
}

/// Outcome of a Token-Regeneration round as seen at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegenOutcome {
    /// This node started the round.
    Originated,
    /// The round's regenerated token was adopted here.
    Adopted,
    /// The round was destroyed here (quiet ring, fence, arbitration).
    Destroyed,
    /// This node ceded its own round to a lower-id originator.
    Ceded,
}

impl RegenOutcome {
    /// Stable lower-case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            RegenOutcome::Originated => "originated",
            RegenOutcome::Adopted => "adopted",
            RegenOutcome::Destroyed => "destroyed",
            RegenOutcome::Ceded => "ceded",
        }
    }
}

/// Stage of a RejoinRequest/RejoinGrant handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeStage {
    /// A RejoinRequest left this node.
    Requested,
    /// This node spliced the member in and broadcast the grant.
    Granted,
    /// The rejoining node finished its own splice.
    Completed,
}

impl HandshakeStage {
    /// Stable lower-case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            HandshakeStage::Requested => "requested",
            HandshakeStage::Granted => "granted",
            HandshakeStage::Completed => "completed",
        }
    }
}

/// One protocol-phase trace record. `Copy` and allocation-free so the
/// flight recorder stays cheap on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A Token-Regeneration round event.
    RegenRound {
        /// The round's originating node.
        origin: NodeId,
        /// What happened to the round at this node.
        outcome: RegenOutcome,
    },
    /// The node's observed epoch advanced.
    EpochBump {
        /// Why it advanced.
        cause: EpochCause,
        /// The new epoch.
        epoch: Epoch,
    },
    /// A rejoin handshake stage.
    RejoinHandshake {
        /// The member rejoining (for `Granted`) or this node itself.
        peer: NodeId,
        /// Which stage fired.
        stage: HandshakeStage,
    },
    /// This node fenced itself as a partition minority.
    PartitionFence {
        /// Best epoch known when the fence dropped.
        epoch: Epoch,
        /// Ring members still reachable on this side.
        in_ring: u32,
    },
    /// This node completed a ring merge.
    Merge {
        /// Epoch adopted from the majority side.
        epoch: Epoch,
        /// Queued pre-orders resubmitted after the splice.
        resubmitted: u64,
    },
}

impl TraceRecord {
    /// Stable snake-case type tag used in dumps.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::RegenRound { .. } => "regen_round",
            TraceRecord::EpochBump { .. } => "epoch_bump",
            TraceRecord::RejoinHandshake { .. } => "rejoin_handshake",
            TraceRecord::PartitionFence { .. } => "partition_fence",
            TraceRecord::Merge { .. } => "merge",
        }
    }

    fn write_fields(&self, out: &mut String) {
        match *self {
            TraceRecord::RegenRound { origin, outcome } => {
                let _ = write!(
                    out,
                    ",\"origin\":{},\"outcome\":\"{}\"",
                    origin.0,
                    outcome.name()
                );
            }
            TraceRecord::EpochBump { cause, epoch } => {
                let _ = write!(out, ",\"cause\":\"{}\",\"epoch\":{}", cause.name(), epoch.0);
            }
            TraceRecord::RejoinHandshake { peer, stage } => {
                let _ = write!(out, ",\"peer\":{},\"stage\":\"{}\"", peer.0, stage.name());
            }
            TraceRecord::PartitionFence { epoch, in_ring } => {
                let _ = write!(out, ",\"epoch\":{},\"in_ring\":{}", epoch.0, in_ring);
            }
            TraceRecord::Merge { epoch, resubmitted } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{},\"resubmitted\":{}",
                    epoch.0, resubmitted
                );
            }
        }
    }
}

/// A trace record stamped with sim time and a per-node sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Sim time the record was emitted.
    pub at: SimTime,
    /// Per-node monotone sequence number (total count, not recorder
    /// position — survives ring-buffer eviction).
    pub seq: u64,
    /// The record itself.
    pub record: TraceRecord,
}

/// Per-node metrics registry: counters and fixed-bucket histograms keyed
/// by static names in sorted order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Monotone counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Sim-ns histograms.
    pub histograms: BTreeMap<&'static str, FixedHistogram>,
}

impl NodeMetrics {
    /// Add `n` to a counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Record a sim-ns observation into a histogram.
    pub fn observe(&mut self, name: &'static str, ns: u64) {
        self.histograms.entry(name).or_default().observe(ns);
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Cap on in-flight GSN-assignment batches tracked for delivery lag.
/// Older batches are dropped (their lag goes unobserved) rather than
/// letting a stalled delivery path grow the window without bound.
const PENDING_GSN_CAP: usize = 64;

/// Flight-recorder depth: the trace records each node retains. Only rare
/// phases are traced, so a chaos world's whole history fits.
pub(crate) const RECORDER_DEPTH: usize = 256;

/// Per-node telemetry: metrics registry plus a flight recorder of the
/// last `RECORDER_DEPTH` trace records.
///
/// Embedded in every `NeState`; every method no-ops when the
/// `ProtocolConfig::telemetry` toggle is off, so the disabled path
/// costs one branch per site and allocates nothing. `Default` is the
/// disabled one.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    on: bool,
    seq: u64,
    records: VecDeque<TraceEntry>,
    metrics: NodeMetrics,
    last_token_pass: Option<SimTime>,
    rejoin_started: Option<SimTime>,
    merge_started: Option<SimTime>,
    pending_gsns: VecDeque<(GlobalSeq, u64, SimTime)>,
}

impl Telemetry {
    /// Build from the protocol config (disabled unless `cfg.telemetry`).
    pub(crate) fn from_cfg(cfg: &ProtocolConfig) -> Self {
        Telemetry {
            on: cfg.telemetry,
            seq: 0,
            records: VecDeque::new(),
            metrics: NodeMetrics::default(),
            last_token_pass: None,
            rejoin_started: None,
            merge_started: None,
            pending_gsns: VecDeque::new(),
        }
    }

    /// Push a trace record into the flight recorder.
    pub(crate) fn trace(&mut self, at: SimTime, record: TraceRecord) {
        if !self.on {
            return;
        }
        if self.records.len() == RECORDER_DEPTH {
            self.records.pop_front();
        }
        self.records.push_back(TraceEntry {
            at,
            seq: self.seq,
            record,
        });
        self.seq += 1;
    }

    /// Bump a counter by 1.
    pub fn count(&mut self, name: &'static str) {
        if self.on {
            self.metrics.add(name, 1);
        }
    }

    /// Bump a counter by `n`.
    pub(crate) fn count_n(&mut self, name: &'static str, n: u64) {
        if self.on {
            self.metrics.add(name, n);
        }
    }

    /// Token processed: rotation-latency histogram and pass counter. The
    /// pass itself is journalled (`ProtoEvent::TokenPass`), not traced.
    pub(crate) fn token_pass(&mut self, now: SimTime) {
        if !self.on {
            return;
        }
        self.metrics.add(metric::TOKEN_PASSES, 1);
        if let Some(prev) = self.last_token_pass {
            self.metrics.observe(
                metric::TOKEN_ROTATION_NS,
                now.saturating_since(prev).as_nanos(),
            );
        }
        self.last_token_pass = Some(now);
    }

    /// A batch of `len` GSNs starting at `first` was assigned here;
    /// remember the assignment time for the delivery-lag histogram.
    pub fn gsn_assigned(&mut self, now: SimTime, first: GlobalSeq, len: u64) {
        if !self.on || len == 0 {
            return;
        }
        self.metrics.add(metric::GSN_ASSIGNED, len);
        if self.pending_gsns.len() == PENDING_GSN_CAP {
            self.pending_gsns.pop_front();
        }
        self.pending_gsns.push_back((first, len, now));
    }

    /// Local delivery advanced to `front` (next undelivered GSN):
    /// observe assignment→delivery lag for every batch now fully
    /// delivered.
    pub(crate) fn delivered_up_to(&mut self, now: SimTime, front: GlobalSeq) {
        if !self.on {
            return;
        }
        while let Some(&(first, len, at)) = self.pending_gsns.front() {
            if first.0 + len <= front.0 {
                self.metrics.observe(
                    metric::GSN_DELIVERY_LAG_NS,
                    now.saturating_since(at).as_nanos(),
                );
                self.pending_gsns.pop_front();
            } else {
                break;
            }
        }
    }

    /// A RejoinRequest left this node (starts the handshake span on
    /// first send; merge retries reuse the open span).
    pub(crate) fn rejoin_requested(&mut self, now: SimTime, peer: NodeId) {
        if !self.on {
            return;
        }
        self.metrics.add(metric::REJOIN_REQUESTS, 1);
        if self.rejoin_started.is_none() {
            self.rejoin_started = Some(now);
        }
        self.trace(
            now,
            TraceRecord::RejoinHandshake {
                peer,
                stage: HandshakeStage::Requested,
            },
        );
    }

    /// This node spliced `member` into the ring and broadcast a grant.
    pub(crate) fn rejoin_granted(&mut self, now: SimTime, member: NodeId) {
        if !self.on {
            return;
        }
        self.metrics.add(metric::REJOINS_GRANTED, 1);
        self.trace(
            now,
            TraceRecord::RejoinHandshake {
                peer: member,
                stage: HandshakeStage::Granted,
            },
        );
    }

    /// This node completed its own rejoin splice: close the handshake
    /// span into the rejoin-duration histogram.
    pub(crate) fn rejoin_completed(&mut self, now: SimTime, me: NodeId) {
        if !self.on {
            return;
        }
        if let Some(t0) = self.rejoin_started.take() {
            self.metrics.observe(
                metric::REJOIN_HANDSHAKE_NS,
                now.saturating_since(t0).as_nanos(),
            );
        }
        self.trace(
            now,
            TraceRecord::RejoinHandshake {
                peer: me,
                stage: HandshakeStage::Completed,
            },
        );
    }

    /// Heal evidence arrived: open the merge span (first evidence wins).
    pub(crate) fn merge_started(&mut self, now: SimTime) {
        if self.on && self.merge_started.is_none() {
            self.merge_started = Some(now);
        }
    }

    /// This node completed a ring merge: close the merge span and emit
    /// the `Merge` trace record.
    pub(crate) fn merge_completed(&mut self, now: SimTime, epoch: Epoch, resubmitted: u64) {
        if !self.on {
            return;
        }
        self.metrics.add(metric::MERGES, 1);
        if let Some(t0) = self.merge_started.take() {
            self.metrics.observe(
                metric::MERGE_HANDSHAKE_NS,
                now.saturating_since(t0).as_nanos(),
            );
        }
        self.rejoin_started = None;
        self.trace(now, TraceRecord::Merge { epoch, resubmitted });
    }

    /// A regen-round event: per-outcome counter plus trace record.
    pub(crate) fn regen(&mut self, now: SimTime, origin: NodeId, outcome: RegenOutcome) {
        if !self.on {
            return;
        }
        let name = match outcome {
            RegenOutcome::Originated => metric::REGEN_ORIGINATED,
            RegenOutcome::Adopted => metric::REGEN_ADOPTED,
            RegenOutcome::Destroyed => metric::REGEN_DESTROYED,
            RegenOutcome::Ceded => metric::REGEN_CEDED,
        };
        self.metrics.add(name, 1);
        self.trace(now, TraceRecord::RegenRound { origin, outcome });
    }

    /// The observed epoch advanced: per-cause counter and an `EpochBump`
    /// trace record.
    pub(crate) fn epoch_bump(&mut self, now: SimTime, cause: EpochCause, epoch: Epoch) {
        if !self.on {
            return;
        }
        let name = match cause {
            EpochCause::Regenerated => metric::EPOCH_BUMPS_REGEN,
            EpochCause::RejoinSeed => metric::EPOCH_BUMPS_REJOIN_SEED,
            EpochCause::MergeSeed => metric::EPOCH_BUMPS_MERGE_SEED,
        };
        self.metrics.add(name, 1);
        self.trace(now, TraceRecord::EpochBump { cause, epoch });
    }

    /// This node fenced itself: counter plus `PartitionFence` record.
    pub(crate) fn partition_fenced(&mut self, now: SimTime, epoch: Epoch, in_ring: u32) {
        if !self.on {
            return;
        }
        self.metrics.add(metric::PARTITION_FENCES, 1);
        self.trace(now, TraceRecord::PartitionFence { epoch, in_ring });
    }

    /// Snapshot for the teardown harvest; `None` when disabled.
    pub(crate) fn dump(&self) -> Option<NodeDump> {
        if !self.on {
            return None;
        }
        Some(NodeDump {
            metrics: self.metrics.clone(),
            records: self.records.iter().copied().collect(),
        })
    }
}

/// One node's harvested telemetry: full metrics plus the flight
/// recorder's surviving window of trace records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDump {
    /// The node's metrics registry at teardown.
    pub metrics: NodeMetrics,
    /// Most recent trace records, oldest first, `seq` ascending.
    pub records: Vec<TraceEntry>,
}

impl NodeDump {
    /// Merge the per-group dumps of one physical node into a single
    /// node-level dump (multi-group engines run one recorder per group
    /// state but the harvest is keyed by `NodeId`). A single dump is
    /// returned unchanged — the single-group fast path stays
    /// byte-identical. Several dumps sum counters and histograms and
    /// interleave trace records by `(time, group position, seq)` under a
    /// fresh contiguous `seq` numbering.
    pub fn merge(dumps: Vec<NodeDump>) -> Option<NodeDump> {
        let mut it = dumps.into_iter();
        let first = it.next()?;
        let rest: Vec<NodeDump> = it.collect();
        if rest.is_empty() {
            return Some(first);
        }
        let mut metrics = first.metrics;
        let mut tagged: Vec<(SimTime, usize, u64, TraceRecord)> = first
            .records
            .iter()
            .map(|e| (e.at, 0usize, e.seq, e.record))
            .collect();
        for (gi, d) in rest.into_iter().enumerate() {
            for (k, v) in d.metrics.counters {
                *metrics.counters.entry(k).or_insert(0) += v;
            }
            for (k, h) in d.metrics.histograms {
                metrics.histograms.entry(k).or_default().merge(&h);
            }
            for e in d.records {
                tagged.push((e.at, gi + 1, e.seq, e.record));
            }
        }
        tagged.sort_by_key(|&(at, gi, seq, _)| (at, gi, seq));
        let records = tagged
            .into_iter()
            .enumerate()
            .map(|(i, (at, _, _, record))| TraceEntry {
                at,
                seq: i as u64,
                record,
            })
            .collect();
        Some(NodeDump { metrics, records })
    }
}

/// The report-level view: per-node dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Dump per node, in `NodeId` order.
    pub nodes: BTreeMap<NodeId, NodeDump>,
}

impl TelemetryReport {
    /// Every node's trace records merged in `(time, node, seq)` order.
    pub fn merged_trace(&self) -> Vec<(NodeId, TraceEntry)> {
        let mut all: Vec<(NodeId, TraceEntry)> = Vec::new();
        for (&node, dump) in &self.nodes {
            for &entry in &dump.records {
                all.push((node, entry));
            }
        }
        all.sort_by_key(|&(node, e)| (e.at, node.0, e.seq));
        all
    }

    /// Sum of one counter across all nodes.
    pub fn total_counter(&self, name: &str) -> u64 {
        self.nodes.values().map(|d| d.metrics.counter(name)).sum()
    }

    /// Merge every node's copy of one histogram.
    pub fn merged_histogram(&self, name: &str) -> FixedHistogram {
        let mut out = FixedHistogram::default();
        for d in self.nodes.values() {
            if let Some(h) = d.metrics.histograms.get(name) {
                out.merge(h);
            }
        }
        out
    }

    /// Hand-rolled JSON dump (core carries no serializer and must not
    /// depend on the harness crate). Every key is a static identifier
    /// and every value numeric or a static tag, so no escaping is
    /// needed; output is byte-deterministic because every container is
    /// ordered.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"nodes\": [");
        let mut first_node = true;
        for (&node, dump) in &self.nodes {
            if !first_node {
                s.push(',');
            }
            first_node = false;
            let _ = write!(s, "\n    {{\"id\": {}, ", node.0);
            write_metrics(&mut s, &dump.metrics);
            s.push_str(", \"records\": [");
            let mut first_rec = true;
            for entry in &dump.records {
                if !first_rec {
                    s.push(',');
                }
                first_rec = false;
                s.push_str("\n      ");
                write_entry(&mut s, None, entry);
            }
            if !dump.records.is_empty() {
                s.push_str("\n    ");
            }
            s.push_str("]}");
        }
        s.push_str("\n  ],\n  \"trace\": [");
        let merged = self.merged_trace();
        let mut first = true;
        for (node, entry) in &merged {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n    ");
            write_entry(&mut s, Some(*node), entry);
        }
        if !merged.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn write_metrics(s: &mut String, m: &NodeMetrics) {
    s.push_str("\"counters\": {");
    let mut first = true;
    for (k, v) in &m.counters {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "\"{k}\": {v}");
    }
    s.push_str("}, \"histograms\": {");
    first = true;
    for (k, h) in &m.histograms {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(
            s,
            "\"{k}\": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"buckets\": [",
            h.count, h.sum_ns, h.min_ns, h.max_ns
        );
        let mut first_b = true;
        for b in &h.buckets {
            if !first_b {
                s.push(',');
            }
            first_b = false;
            let _ = write!(s, "{b}");
        }
        s.push_str("]}");
    }
    s.push('}');
}

fn write_entry(s: &mut String, node: Option<NodeId>, entry: &TraceEntry) {
    s.push('{');
    if let Some(node) = node {
        let _ = write!(
            s,
            "\"t_ns\": {}, \"node\": {}, ",
            entry.at.as_nanos(),
            node.0
        );
    } else {
        let _ = write!(s, "\"t_ns\": {}, ", entry.at.as_nanos());
    }
    let _ = write!(
        s,
        "\"seq\": {}, \"type\": \"{}\"",
        entry.seq,
        entry.record.kind()
    );
    entry.record.write_fields(s);
    s.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> Telemetry {
        let cfg = ProtocolConfig {
            telemetry: true,
            ..ProtocolConfig::default()
        };
        Telemetry::from_cfg(&cfg)
    }

    #[test]
    fn disabled_telemetry_records_nothing_and_dumps_none() {
        let mut t = Telemetry::from_cfg(&ProtocolConfig::default());
        t.token_pass(SimTime::ZERO);
        t.count(metric::NACKS_SENT);
        assert!(t.dump().is_none());
    }

    #[test]
    fn flight_recorder_is_bounded_but_seq_keeps_counting() {
        let mut t = on();
        for i in 0..(RECORDER_DEPTH + 6) as u64 {
            t.trace(
                SimTime::from_nanos(i),
                TraceRecord::RegenRound {
                    origin: NodeId(1),
                    outcome: RegenOutcome::Originated,
                },
            );
        }
        let dump = t.dump().expect("enabled telemetry dumps");
        assert_eq!(dump.records.len(), RECORDER_DEPTH);
        assert_eq!(dump.records[0].seq, 6);
        assert_eq!(
            dump.records[RECORDER_DEPTH - 1].seq,
            (RECORDER_DEPTH + 5) as u64
        );
    }

    #[test]
    fn token_pass_observes_rotation_latency_between_receipts() {
        let mut t = on();
        t.token_pass(SimTime::from_nanos(1_000));
        t.token_pass(SimTime::from_nanos(61_000));
        let dump = t.dump().expect("enabled");
        let h = &dump.metrics.histograms[metric::TOKEN_ROTATION_NS];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_ns, 60_000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        // 60µs lands in the second bucket (50µs < x ≤ 100µs).
        assert_eq!(h.buckets[1], 1);
        assert_eq!(dump.metrics.counter(metric::TOKEN_PASSES), 2);
    }

    #[test]
    fn delivery_lag_closes_only_fully_delivered_batches() {
        let mut t = on();
        t.gsn_assigned(SimTime::from_nanos(10), GlobalSeq(0), 3);
        t.gsn_assigned(SimTime::from_nanos(20), GlobalSeq(3), 2);
        t.delivered_up_to(SimTime::from_nanos(100), GlobalSeq(3));
        let h1 = t.dump().expect("enabled").metrics.histograms[metric::GSN_DELIVERY_LAG_NS].clone();
        assert_eq!(h1.count, 1);
        assert_eq!(h1.sum_ns, 90);
        t.delivered_up_to(SimTime::from_nanos(120), GlobalSeq(5));
        let h2 = t.dump().expect("enabled").metrics.histograms[metric::GSN_DELIVERY_LAG_NS].clone();
        assert_eq!(h2.count, 2);
        assert_eq!(h2.sum_ns, 90 + 100);
    }

    #[test]
    fn histogram_overflow_bucket_catches_slow_observations() {
        let mut h = FixedHistogram::default();
        h.observe(300_000_000);
        h.observe(1);
        assert_eq!(h.buckets[BUCKET_BOUNDS_NS.len()], 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.min_ns, 1);
        assert_eq!(h.max_ns, 300_000_000);
        assert_eq!(h.mean_ns(), 150_000_000);
    }

    #[test]
    fn merged_trace_orders_by_time_node_seq() {
        let regen = |origin, outcome| TraceRecord::RegenRound {
            origin: NodeId(origin),
            outcome,
        };
        let at = SimTime::from_nanos;
        let mut a = on();
        a.trace(at(5), regen(2, RegenOutcome::Originated));
        a.trace(at(5), regen(2, RegenOutcome::Destroyed));
        let mut b = on();
        b.trace(at(5), regen(1, RegenOutcome::Destroyed));
        b.trace(at(2), regen(1, RegenOutcome::Adopted));
        let mut nodes = BTreeMap::new();
        nodes.insert(NodeId(2), a.dump().expect("enabled"));
        nodes.insert(NodeId(1), b.dump().expect("enabled"));
        let merged = TelemetryReport { nodes }.merged_trace();
        // Time first, then the node id at one instant, then each node's
        // own sequence.
        let order: Vec<(u64, u32, u64)> = (merged.iter())
            .map(|(node, e)| (e.at.as_nanos(), node.0, e.seq))
            .collect();
        assert_eq!(order, vec![(2, 1, 1), (5, 1, 0), (5, 2, 0), (5, 2, 1)]);
    }

    #[test]
    fn node_dump_merge_keeps_single_dump_untouched_and_sums_multi() {
        let mut a = on();
        a.token_pass(SimTime::from_nanos(1_000));
        a.token_pass(SimTime::from_nanos(3_000));
        a.partition_fenced(SimTime::from_nanos(1_000), Epoch(3), 2);
        let da = a.dump().expect("enabled");
        assert_eq!(
            NodeDump::merge(vec![da.clone()]),
            Some(da.clone()),
            "single-group fast path is the identity"
        );

        let mut b = on();
        b.token_pass(SimTime::from_nanos(500));
        b.token_pass(SimTime::from_nanos(1_500));
        b.partition_fenced(SimTime::from_nanos(500), Epoch(1), 2);
        b.partition_fenced(SimTime::from_nanos(1_500), Epoch(1), 2);
        let merged = NodeDump::merge(vec![da, b.dump().expect("enabled")]).expect("non-empty");
        assert_eq!(merged.metrics.counter(metric::TOKEN_PASSES), 4);
        // Histograms fold: a 2µs rotation at one group, 1µs at the other.
        let h = &merged.metrics.histograms[metric::TOKEN_ROTATION_NS];
        assert_eq!(
            (h.count, h.sum_ns, h.min_ns, h.max_ns),
            (2, 3_000, 1_000, 2_000)
        );
        // Records interleave by time and renumber contiguously.
        let times: Vec<u64> = merged.records.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![500, 1_000, 1_500]);
        let seqs: Vec<u64> = merged.records.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(NodeDump::merge(Vec::new()), None);
    }

    #[test]
    fn json_dump_is_deterministic_and_balanced() {
        let mut t = on();
        t.token_pass(SimTime::from_nanos(1_000));
        t.partition_fenced(SimTime::from_nanos(2_000), Epoch(2), 3);
        let report = TelemetryReport {
            nodes: [(NodeId(10), t.dump().expect("enabled"))].into(),
        };
        let j1 = report.to_json();
        let j2 = report.clone().to_json();
        assert_eq!(j1, j2);
        assert_eq!(
            j1.matches('{').count(),
            j1.matches('}').count(),
            "balanced braces:\n{j1}"
        );
        assert!(j1.contains("\"type\": \"partition_fence\""));
        assert!(j1.contains("\"token_passes\": 1"));
    }
}
