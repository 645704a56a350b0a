//! Protocol parameters.
//!
//! One [`ProtocolConfig`] is shared by every entity in a simulation. The
//! defaults follow the paper's assumptions (§5): a wired core with
//! millisecond-scale one-way delays and small bounded retry budgets for the
//! best-effort local-scope retransmission scheme (§4.2.3). The paper's
//! Order-Assignment period `τ` (§4.2.1) is not among them: the `WQ`→`MQ`
//! copy runs on the events that enable it ([`crate::ordering`]), which is
//! the paper's scan at `τ = 0`.

use simnet::SimDuration;

/// All tunables of the RingNet multicast protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Period of the hop-maintenance tick driving retransmission requests
    /// (NACKs), cumulative ACKs and token retransfer checks.
    pub hop_tick: SimDuration,
    /// How many hop ticks a missing message may stay `Waiting` before each
    /// NACK, i.e. NACKs are sent every `hop_tick` while waiting.
    /// After `nack_budget` NACKs the message is declared *really lost*:
    /// `Received = false`, `Waiting = false`, and per the paper it is then
    /// considered delivered (skipped).
    pub nack_budget: u8,
    /// The ACK batching period, in hop ticks: on every `ack_every`-th tick
    /// an entity tells each upstream hop its delivery front *if the front
    /// has moved past what that hop was last told* (by a `DataAck`, or by
    /// the `TokenAck` that carries the same front on the top ring). An
    /// unmoved front is restated only to a hop that has heard nothing for
    /// a whole `heartbeat_period`, so a lost ACK still heals.
    pub ack_every: u8,
    /// Capacity `MaxNo` of each entity's `MQ` (slots).
    pub mq_capacity: usize,
    /// Capacity of each per-source queue inside a top-ring node's `WQ`.
    pub wq_capacity: usize,
    /// Retransfer timeout for the ordering token: if the next node has not
    /// acknowledged within this time, the token is resent.
    pub token_retry_after: SimDuration,
    /// Give up resending the token after this many attempts (the membership
    /// layer's Token-Loss path then takes over).
    pub token_retry_budget: u8,
    /// Heartbeat period for ring-neighbour and parent/child liveness.
    pub heartbeat_period: SimDuration,
    /// Declare a neighbour dead after missing this many heartbeats.
    pub heartbeat_misses: u8,
    /// If no token has been seen for this long, a top-ring node considers
    /// the Message-Ordering algorithm "not running well" (used by the
    /// Token-Regeneration algorithm, §4.2.1).
    pub token_quiet_after: SimDuration,
    /// Journal per-MH application deliveries (can dominate journal volume).
    pub record_mh_deliveries: bool,
    /// Multicast path reservation radius for smooth handoff (§3): when an MH
    /// attaches to an AP, APs within this many neighbour hops are asked to
    /// pre-join the distribution (0 disables reservation).
    pub reservation_radius: u8,
    /// How long a reservation-only AP keeps receiving the group without any
    /// attached member before pruning itself from the tree.
    pub reservation_ttl: SimDuration,
    /// How many token rotations a WTSNP entry is retained after assignment
    /// (§4.1 leaves the policy open; 2 guarantees every node sees the entry
    /// via either its new or old kept token — ablation knob A1).
    pub wtsnp_retain_rotations: u64,
    /// Keep `OldOrderingToken` in addition to `NewOrderingToken` (§4.1's
    /// two-version scheme; disabling it is ablation knob A1).
    pub keep_old_token: bool,
    /// Enable the deterministic telemetry layer: per-node metrics,
    /// protocol-phase trace records and the flight recorder
    /// ([`crate::telemetry`]). Off by default; disabled it costs one
    /// branch per instrumentation site and never perturbs the journal.
    pub telemetry: bool,
    /// Flight-recorder depth: how many recent trace records each node
    /// retains. Must be positive.
    pub telemetry_capacity: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            hop_tick: SimDuration::from_millis(5),
            nack_budget: 5,
            ack_every: 2,
            mq_capacity: 4096,
            wq_capacity: 4096,
            token_retry_after: SimDuration::from_millis(30),
            token_retry_budget: 3,
            heartbeat_period: SimDuration::from_millis(50),
            heartbeat_misses: 3,
            token_quiet_after: SimDuration::from_millis(200),
            record_mh_deliveries: true,
            reservation_radius: 1,
            reservation_ttl: SimDuration::from_secs(2),
            wtsnp_retain_rotations: 2,
            keep_old_token: true,
            telemetry: false,
            telemetry_capacity: 256,
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
        if self.hop_tick.is_zero() {
            problems.push("hop_tick must be positive".into());
        }
        if self.mq_capacity == 0 {
            problems.push("mq_capacity must be positive".into());
        }
        if self.wq_capacity == 0 {
            problems.push("wq_capacity must be positive".into());
        }
        if self.ack_every == 0 {
            problems.push("ack_every must be positive".into());
        }
        if self.token_retry_after.is_zero() {
            problems.push("token_retry_after must be positive".into());
        }
        if self.heartbeat_period.is_zero() {
            problems.push("heartbeat_period must be positive".into());
        }
        if self.heartbeat_misses == 0 {
            problems.push("heartbeat_misses must be positive".into());
        }
        if self.token_quiet_after < self.token_retry_after {
            problems.push("token_quiet_after should exceed token_retry_after".into());
        }
        if self.wtsnp_retain_rotations == 0 {
            problems.push("wtsnp_retain_rotations must be positive".into());
        }
        if self.telemetry_capacity == 0 {
            problems.push("telemetry_capacity must be positive".into());
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
            hop_tick: SimDuration::ZERO,
            mq_capacity: 0,
            ack_every: 0,
            ..ProtocolConfig::default()
        };
        let problems = c.validate();
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn validation_rejects_zero_telemetry_capacity() {
        let c = ProtocolConfig {
            telemetry_capacity: 0,
            ..ProtocolConfig::default()
        };
        let problems = c.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("telemetry_capacity"));
    }

    #[test]
    fn validation_checks_token_quiet_consistency() {
        let c = ProtocolConfig {
            token_quiet_after: SimDuration::from_millis(1),
            ..ProtocolConfig::default()
        };
        assert_eq!(c.validate().len(), 1);
    }
}
