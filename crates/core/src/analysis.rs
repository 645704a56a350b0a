//! Analytical model of Theorem 5.1 (§5).
//!
//! The paper proves that, versus the same protocol without ordering, the
//! totally-ordered protocol achieves the same throughput `s·λ` with bounded
//! latency and buffers:
//!
//! * any message is ordered, forwarded and copied into every top-ring `MQ`
//!   within `max(T_order, T_transmit) + τ`;
//! * end-to-end latency is bounded by `max(T_order, T_transmit) + τ +
//!   T_deliver`;
//! * `|WQ| ≤ s·λ·(max(T_order, T_transmit) + τ)` and `|MQ| ≤ s·λ·T_order`.
//!
//! [`TheoremInputs`] captures the free variables; [`bounds`] evaluates the
//! closed forms so experiments can compare measurements against the model.
//! The paper's bounds exclude retransmission and token-processing overhead
//! (stated explicitly in §5); the experiment harness therefore compares
//! against loss-free runs and reports the ratio.
//!
//! The `τ` term is the paper's: it assumes Order-Assignment runs on a timer
//! of period `τ`. This implementation has no such timer — the copy runs at
//! the instant a token snapshot arrives and at the instant a late pre-order
//! lands under one (see [`crate::ordering`]) — so it runs at `τ = 0`, and
//! experiment T2 evaluates the bounds there. [`TheoremInputs::tau`] stays
//! because it is the paper's symbol in the paper's formula, not a setting
//! of this system.

use simnet::SimDuration;

/// Free variables of Theorem 5.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremInputs {
    /// `r` — nodes on the top logical ring (≥ 2).
    pub ring_size: usize,
    /// `s` — number of multicast sources (≤ r).
    pub sources: usize,
    /// `λ` — per-source send rate, messages per second.
    pub rate_per_sec: f64,
    /// One-way latency of a top-ring link (upper bound when jittered).
    pub ring_hop: SimDuration,
    /// `τ` — the paper's Order-Assignment timer period (zero for this
    /// implementation; see the module docs).
    pub tau: SimDuration,
    /// `T_deliver` — maximal time for an ordered message to reach and be
    /// acknowledged by the deepest entity below a top-ring node.
    pub t_deliver: SimDuration,
}

/// Closed-form outputs of Theorem 5.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremBounds {
    /// `T_order` — maximal token round-trip around the top ring.
    pub t_order: SimDuration,
    /// `T_transmit` — maximal forwarding round-trip of a message along the
    /// top ring (it stops one hop before its origin).
    pub t_transmit: SimDuration,
    /// `max(T_order, T_transmit) + τ` — bound on time from reception at the
    /// corresponding node to presence in every top-ring `MQ`.
    pub copy_bound: SimDuration,
    /// `max(T_order, T_transmit) + τ + T_deliver` — end-to-end latency bound.
    pub latency_bound: SimDuration,
    /// `T_order + T_transmit + τ + T_deliver` — the *corrected* worst-case
    /// bound (see below). The paper's proof overlaps the wait for the token
    /// with the propagation of the assignment: that holds when a message
    /// arrives just before the token, but in the worst phase the message
    /// waits a full rotation (`T_order`) to be assigned and the WTSNP entry
    /// then needs up to `T_transmit` more to reach the last ring node.
    /// Empirically (experiment T2) worst-case latencies exceed the paper's
    /// bound and respect this one.
    pub latency_bound_worst: SimDuration,
    /// `s·λ·(max(T_order, T_transmit) + τ)` — `WQ` size bound (messages).
    pub wq_bound: f64,
    /// `s·λ·T_order` — `MQ` size bound (messages).
    pub mq_bound: f64,
    /// `s·λ` — throughput (messages/second), identical with and without
    /// ordering.
    pub throughput: f64,
}

/// Evaluate Theorem 5.1's closed forms.
pub fn bounds(inp: &TheoremInputs) -> TheoremBounds {
    assert!(inp.ring_size >= 1, "ring must have at least one node");
    assert!(
        inp.sources <= inp.ring_size,
        "the paper assumes s ≤ r (one source per top-ring node)"
    );
    let r = inp.ring_size as u64;
    // Token round-trip: r hops (it returns to its starting node).
    let t_order = inp.ring_hop * r;
    // A message circulates r−1 hops (stops before its corresponding node).
    let t_transmit = inp.ring_hop * r.saturating_sub(1);
    let copy_bound = t_order.max(t_transmit) + inp.tau;
    let latency_bound = copy_bound + inp.t_deliver;
    let latency_bound_worst = t_order + t_transmit + inp.tau + inp.t_deliver;
    let s_lambda = inp.sources as f64 * inp.rate_per_sec;
    TheoremBounds {
        t_order,
        t_transmit,
        copy_bound,
        latency_bound,
        latency_bound_worst,
        wq_bound: s_lambda * copy_bound.as_secs_f64(),
        mq_bound: s_lambda * t_order.as_secs_f64(),
        throughput: s_lambda,
    }
}

/// Slack factor applied when empirically checking the theorem's buffer
/// bounds: the analysis ignores ACK batching, retransmission retention and
/// hop-tick discretisation, each of which adds at most small-constant
/// multiples of a tick to residence times. Experiments check
/// `measured ≤ factor × bound + additive` and report the raw ratio too.
pub const EMPIRICAL_SLACK_FACTOR: f64 = 4.0;
/// Additive slack (messages) for near-zero analytic bounds.
pub const EMPIRICAL_SLACK_MESSAGES: f64 = 16.0;

/// True when an empirical buffer peak is consistent with an analytic bound
/// under the documented slack.
pub fn within_buffer_bound(measured: f64, bound: f64) -> bool {
    measured <= EMPIRICAL_SLACK_FACTOR * bound + EMPIRICAL_SLACK_MESSAGES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> TheoremInputs {
        TheoremInputs {
            ring_size: 4,
            sources: 2,
            rate_per_sec: 100.0,
            ring_hop: SimDuration::from_millis(5),
            tau: SimDuration::from_millis(5),
            t_deliver: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn closed_forms() {
        let b = bounds(&inputs());
        assert_eq!(b.t_order, SimDuration::from_millis(20));
        assert_eq!(b.t_transmit, SimDuration::from_millis(15));
        assert_eq!(b.copy_bound, SimDuration::from_millis(25));
        assert_eq!(b.latency_bound, SimDuration::from_millis(35));
        assert_eq!(b.latency_bound_worst, SimDuration::from_millis(50));
        assert!(b.latency_bound_worst >= b.latency_bound);
        assert!((b.throughput - 200.0).abs() < 1e-9);
        // 200 msg/s × 25 ms = 5 messages.
        assert!((b.wq_bound - 5.0).abs() < 1e-9);
        // 200 msg/s × 20 ms = 4 messages.
        assert!((b.mq_bound - 4.0).abs() < 1e-9);
    }

    #[test]
    fn t_order_dominates_t_transmit() {
        // By construction T_order = r·hop > (r−1)·hop = T_transmit.
        for r in 2..10 {
            let mut inp = inputs();
            inp.ring_size = r;
            inp.sources = 1;
            let b = bounds(&inp);
            assert!(b.t_order > b.t_transmit);
            assert_eq!(b.copy_bound, b.t_order + inp.tau);
        }
    }

    #[test]
    fn bounds_scale_linearly_with_rate() {
        let b1 = bounds(&inputs());
        let mut inp2 = inputs();
        inp2.rate_per_sec *= 3.0;
        let b2 = bounds(&inp2);
        assert!((b2.wq_bound - 3.0 * b1.wq_bound).abs() < 1e-9);
        assert!((b2.mq_bound - 3.0 * b1.mq_bound).abs() < 1e-9);
        assert!((b2.throughput - 3.0 * b1.throughput).abs() < 1e-9);
        // Latency bound is rate-independent.
        assert_eq!(b1.latency_bound, b2.latency_bound);
    }

    #[test]
    fn slack_check() {
        assert!(within_buffer_bound(10.0, 5.0));
        assert!(
            within_buffer_bound(15.0, 0.0),
            "additive slack covers tiny bounds"
        );
        assert!(!within_buffer_bound(1000.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "s ≤ r")]
    fn more_sources_than_ring_nodes_panics() {
        let mut inp = inputs();
        inp.sources = 10;
        bounds(&inp);
    }
}
