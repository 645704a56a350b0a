//! Protocol parameters.
//!
//! One [`ProtocolConfig`] is shared by every entity in a simulation. A
//! field exists where a caller varies it — an experiment, the benchmark,
//! a bench suite or the soak — and nowhere else: a setting that only ever
//! holds one value is a named constant below, so a reader meets the value
//! itself instead of a knob that never turns. The values follow the
//! paper's assumptions (§5): a wired core with millisecond-scale one-way
//! delays and small bounded retry budgets for the best-effort local-scope
//! retransmission scheme (§4.2.3).
//!
//! | constant | value | governs | paper |
//! |---|---|---|---|
//! | [`HOP_TICK`] | 5 ms | NACKs, ACKs, token retry and quiet checks | §4.2.3, §4.2.1 |
//! | [`HEARTBEAT_PERIOD`] | 50 ms | ring, parent/child and AG-ring leader liveness probes: the first miss | §3 |
//! | `HEARTBEAT_MISSES` | 3 | probes missed before a neighbour is dead | §3 |
//! | `probe_confirm_after` | 15 ms on a 5 ms link, derived | a real probe unanswered this long is a miss, checked every hop tick: the probed link's round trip and a hop tick | §3 |
//! | `FAILOVER_WINDOW` | 250 ms | an excised BR's last ack pins its ring predecessor's `MQ`: covers a fenced BR's children missing it | §3 |
//! | `TOKEN_RETRY_AFTER` | 30 ms | reliable token transfer: resend timeout | §4.2.1 |
//! | `TOKEN_RETRY_BUDGET` | 3 | sends of one token pass before giving up | §4.2.1 |
//! | `token_quiet_window` | 25 ms on four 5 ms hops, derived | "Message-Ordering runs well" window of Token-Regeneration, unless a transfer is unacknowledged: one circle of the ring and a hop tick | §4.2.1 |
//! | `WQ_CAPACITY` | 4096 | slots of each per-source `WQ` queue | §4.1 |
//! | `RESERVATION_TTL` | 2 s | life of a reservation-only AP's path | §3 |
//! | [`AG_RING_CAP`] | 4 | AGs per ring in the automatic layout | §5, Theorem 5.1 |
//!
//! The two-version token snapshot of §4.1, the WTSNP retention of
//! `token::WTSNP_RETAIN_ROTATIONS` (see [`crate::token`]) and the
//! flight-recorder depth, `telemetry::RECORDER_DEPTH` (see
//! [`crate::telemetry`]), are fixed the same way. The paper's
//! Order-Assignment period `τ` (§4.2.1) is not among them: the `WQ`→`MQ`
//! copy runs on the events that enable it ([`crate::ordering`]), which is
//! the paper's scan at `τ = 0`.

use simnet::SimDuration;

/// Period of the hop-maintenance tick driving retransmission requests
/// (NACKs), cumulative ACKs, token retransfer checks, the check for a
/// quiet token and the confirmation of an unanswered liveness probe.
pub const HOP_TICK: SimDuration = SimDuration::from_millis(5);

/// Heartbeat period for ring-neighbour and parent/child liveness: where
/// traffic has not answered for a neighbour within a period, the period
/// tick probes it, and the hop tick confirms the probe
/// ([`crate::membership`]).
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(50);

/// Declare a neighbour dead after missing this many heartbeats.
pub(crate) const HEARTBEAT_MISSES: u8 = 3;

/// How long a top-ring node keeps its `MQ` at the last ack of an excised
/// next: one period for the excised BR to fence itself, then the time its
/// children take to miss it and graft onto a BR of the primary component,
/// which serves their resume point. A child convicts a silent parent
/// within two periods and `HEARTBEAT_MISSES` confirmations of its probes
/// and a link delay ([`crate::membership`]): 148 ms over the default 3 ms
/// `br_ag` link, so with the fencing period 198 ms of the window's 250 ms.
/// The window keeps the `HEARTBEAT_MISSES + 2` periods it was derived from
/// when a child needed up to `HEARTBEAT_MISSES + 1` periods, which now
/// leave a margin; shrinking it to the faster detection is a change of its
/// own, since it trades retention for the failover skips it prevents.
///
/// It covers the children while the link delay and the three
/// confirmations fit in two periods, which holds over a `br_ag` link of at
/// most 10 ms (a 25 ms confirmation). `HierarchySpec::validate` accepts
/// `br_ag` links up to the token retry period; over one of 29 ms a child
/// needs 324 ms, 374 ms with the fencing period, and one that grafts
/// after the window has closed skips what its new parent collected
/// meanwhile.
pub(crate) const FAILOVER_WINDOW: SimDuration =
    SimDuration::from_nanos(HEARTBEAT_PERIOD.as_nanos() * (HEARTBEAT_MISSES as u64 + 2));

/// How long a real liveness probe over a link whose one-way delay is at
/// most `hop` may go unanswered before the hop tick counts it missed: the
/// probe's round trip and one hop tick more, so an answer in flight is
/// never a miss (the answer is sent on arrival; the check runs on the hop
/// grid). 15 ms over a 5 ms top-ring link. The engine holds one per probed
/// scope on each entity's state, from the spec's link plan.
pub(crate) fn probe_confirm_after(hop: SimDuration) -> SimDuration {
    hop * 2 + HOP_TICK
}

/// Retransfer timeout for the ordering token: if the next node has not
/// acknowledged within this time, the token is resent.
pub(crate) const TOKEN_RETRY_AFTER: SimDuration = SimDuration::from_millis(30);

/// Give up resending the token after this many sends (the membership
/// layer's Token-Loss path then takes over). The sender gives up a retry
/// period after its last send, and `HierarchySpec::validate` holds
/// top-ring links below that period, so every copy of a transfer that
/// gave up has landed or died ([`crate::recovery`]).
pub(crate) const TOKEN_RETRY_BUDGET: u8 = 3;

/// Capacity of each per-source queue inside a top-ring node's `WQ`.
pub(crate) const WQ_CAPACITY: usize = 4096;

/// How long a reservation-only AP keeps receiving the group without any
/// attached member before pruning itself from the tree.
pub(crate) const RESERVATION_TTL: SimDuration = SimDuration::from_secs(2);

/// Most AGs in one AG ring of the automatic layout
/// ([`CoreShape::Auto`](crate::driver::CoreShape::Auto)), which splits more
/// AGs into the fewest rings of balanced size under the BR ring (Figure 1).
/// A message crosses `cap − 1` AG-ring hops after the ring's leader:
/// Theorem 5.1's ring term of `T_deliver`. The rule the cap follows: a
/// ring's worst circulation, 3 hops of 2 ms, is about one 5 ms top-ring
/// hop, so the ring term never outweighs a hop of the ordering ring. A
/// ring costs no probe stream of its own: the leader's next member watches
/// the leader through the data it receives, and the last member does not
/// probe it. A ring whose leader hangs from a BR that a ring partition
/// isolates fails over to the primary side, which serves its resume point
/// (`FAILOVER_WINDOW`).
pub const AG_RING_CAP: usize = 4;

/// The quiet window of a top ring of `members` whose links take at most
/// `hop` one way: the ring's longest circle and a hop tick more. A
/// top-ring node that has seen no token for this long and holds no
/// unacknowledged transfer of its own considers the Message-Ordering
/// algorithm "not running well" (Token-Regeneration, §4.2.1). A round then
/// returns to its origin inside the window, which the argument in
/// [`crate::recovery`] needs, and a live token that no transfer holds up
/// circles no slower than a round, so it never looks lost. The `k`-th
/// top-ring member suspects a lost token after `1 + k` windows without
/// one, checked every hop tick (`token_quiet_fallback`). Four 5 ms hops
/// wait 25 ms; a flat ring of 36 stations waits 185 ms.
pub(crate) fn token_quiet_window(members: usize, hop: SimDuration) -> SimDuration {
    hop * members as u64 + HOP_TICK
}

/// The tunables of the RingNet multicast protocol that some caller varies.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// How many hop ticks a missing message may stay `Waiting` before each
    /// NACK, i.e. NACKs are sent every [`HOP_TICK`] while waiting.
    /// After `nack_budget` NACKs the message is declared *really lost*:
    /// `Received = false`, `Waiting = false`, and per the paper it is then
    /// considered delivered (skipped).
    pub nack_budget: u8,
    /// The ACK batching period, in hop ticks: on every `ack_every`-th tick
    /// an NE tells each upstream hop its delivery front *if the front has
    /// moved past what that hop was last told* (by a `DataAck`, or by the
    /// `TokenAck` that carries the same front on the top ring). An unmoved
    /// front is restated only to a hop that has heard nothing for a whole
    /// [`HEARTBEAT_PERIOD`], so a lost ACK still heals. An MH's ack is also
    /// its liveness beacon: it restates an unmoved front every second such
    /// tick, so the period may not exceed [`HEARTBEAT_PERIOD`].
    pub ack_every: u8,
    /// Capacity `MaxNo` of each entity's `MQ` (slots).
    pub mq_capacity: usize,
    /// Journal per-MH application deliveries (can dominate journal volume).
    pub record_mh_deliveries: bool,
    /// Multicast path reservation radius for smooth handoff (§3): when an MH
    /// attaches to an AP, APs within this many neighbour hops are asked to
    /// pre-join the distribution (0 disables reservation).
    pub reservation_radius: u8,
    /// Enable the deterministic telemetry layer: per-node metrics,
    /// protocol-phase trace records and the flight recorder
    /// ([`crate::telemetry`]). Off by default; disabled it costs one
    /// branch per instrumentation site and never perturbs the journal.
    pub telemetry: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            nack_budget: 5,
            ack_every: 2,
            mq_capacity: 4096,
            record_mh_deliveries: true,
            reservation_radius: 1,
            telemetry: false,
        }
    }
}

impl ProtocolConfig {
    /// A configuration for large benchmark runs: per-MH deliveries, which
    /// dominate journal volume, are not journalled.
    pub fn quiet(mut self) -> Self {
        self.record_mh_deliveries = false;
        self
    }

    /// Builder-style override of the NACK retry budget.
    pub fn with_nack_budget(mut self, budget: u8) -> Self {
        self.nack_budget = budget;
        self
    }

    /// Builder-style override of the reservation radius.
    pub fn with_reservation_radius(mut self, radius: u8) -> Self {
        self.reservation_radius = radius;
        self
    }

    /// Validate invariants that the protocol relies on. Returns a list of
    /// human-readable problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.mq_capacity == 0 {
            problems.push("mq_capacity must be positive".into());
        }
        if self.ack_every == 0 {
            problems.push("ack_every must be positive".into());
        }
        if HOP_TICK * self.ack_every as u64 > HEARTBEAT_PERIOD {
            problems.push("ack_every × HOP_TICK must not exceed HEARTBEAT_PERIOD".into());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ProtocolConfig::default().validate().is_empty());
    }

    #[test]
    fn quiet_disables_journalling() {
        let c = ProtocolConfig::default().quiet();
        assert!(!c.record_mh_deliveries);
    }

    #[test]
    fn builders_override() {
        let c = ProtocolConfig::default()
            .with_nack_budget(2)
            .with_reservation_radius(3);
        assert_eq!(c.nack_budget, 2);
        assert_eq!(c.reservation_radius, 3);
    }

    #[test]
    fn validation_catches_zeroes() {
        let c = ProtocolConfig {
            mq_capacity: 0,
            ack_every: 0,
            ..ProtocolConfig::default()
        };
        let problems = c.validate();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn validation_rejects_an_ack_period_past_the_heartbeat_period() {
        let with = |ack_every| ProtocolConfig {
            ack_every,
            ..ProtocolConfig::default()
        };
        let problems = with(11).validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("ack_every"));
        assert!(with(10).validate().is_empty());
    }

    #[test]
    fn the_quiet_window_is_the_rings_circle_and_a_hop_tick() {
        let hop = SimDuration::from_millis(5);
        assert_eq!(token_quiet_window(1, hop), SimDuration::from_millis(10));
        assert_eq!(token_quiet_window(4, hop), SimDuration::from_millis(25));
        assert_eq!(token_quiet_window(24, hop), SimDuration::from_millis(125));
        assert_eq!(token_quiet_window(36, hop), SimDuration::from_millis(185));
    }
}
