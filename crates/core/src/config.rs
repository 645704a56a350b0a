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
//! | [`HOP_TICK`] | 5 ms | NACKs, ACKs, token retry checks | §4.2.3 |
//! | [`HEARTBEAT_PERIOD`] | 50 ms | ring and parent/child liveness probes | §3 |
//! | `HEARTBEAT_MISSES` | 3 | probes missed before a neighbour is dead | §3 |
//! | `TOKEN_RETRY_AFTER` | 30 ms | reliable token transfer: resend timeout | §4.2.1 |
//! | `TOKEN_RETRY_BUDGET` | 3 | sends of one token pass before giving up | §4.2.1 |
//! | `TOKEN_QUIET_AFTER` | 200 ms | "Message-Ordering runs well" window of Token-Regeneration | §4.2.1 |
//! | `WQ_CAPACITY` | 4096 | slots of each per-source `WQ` queue | §4.1 |
//! | `RESERVATION_TTL` | 2 s | life of a reservation-only AP's path | §3 |
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
/// (NACKs), cumulative ACKs and token retransfer checks.
pub const HOP_TICK: SimDuration = SimDuration::from_millis(5);

/// Heartbeat period for ring-neighbour and parent/child liveness.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(50);

/// Declare a neighbour dead after missing this many heartbeats.
pub(crate) const HEARTBEAT_MISSES: u8 = 3;

/// Retransfer timeout for the ordering token: if the next node has not
/// acknowledged within this time, the token is resent.
pub(crate) const TOKEN_RETRY_AFTER: SimDuration = SimDuration::from_millis(30);

/// Give up resending the token after this many sends (the membership
/// layer's Token-Loss path then takes over).
pub(crate) const TOKEN_RETRY_BUDGET: u8 = 3;

/// If no token has been seen for this long, a top-ring node considers the
/// Message-Ordering algorithm "not running well" (used by the
/// Token-Regeneration algorithm, §4.2.1).
pub(crate) const TOKEN_QUIET_AFTER: SimDuration = SimDuration::from_millis(200);

/// Capacity of each per-source queue inside a top-ring node's `WQ`.
pub(crate) const WQ_CAPACITY: usize = 4096;

/// How long a reservation-only AP keeps receiving the group without any
/// attached member before pruning itself from the tree.
pub(crate) const RESERVATION_TTL: SimDuration = SimDuration::from_secs(2);

// A token pass's whole retransmission chain ends before a quiet token may
// be regenerated, so a regenerated lineage never races a retry of the one
// it replaces.
const _: () = assert!(
    TOKEN_RETRY_AFTER.as_nanos() * (TOKEN_RETRY_BUDGET as u64) < TOKEN_QUIET_AFTER.as_nanos()
);

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
    /// [`HEARTBEAT_PERIOD`], so a lost ACK still heals. An MH acks its AP on
    /// every such tick, moved or not: its ack doubles as its liveness
    /// beacon, so the period may not exceed [`HEARTBEAT_PERIOD`].
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
}
