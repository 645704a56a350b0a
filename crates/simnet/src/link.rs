//! Link models: latency, loss, and bandwidth.
//!
//! A [`LinkProfile`] bundles the three orthogonal aspects of a
//! point-to-point channel. Profiles are pure descriptions. The mutable part
//! of a link — Gilbert–Elliott memory, the up flag, the serializer's
//! horizon and queue — is a 16-byte `Channel`, and `Channel::transmit` is
//! the one place the link physics runs, under a profile passed in.
//!
//! Two forms hold a channel. Inside a simulation the
//! [`Topology`](crate::topo::Topology) stores it in a 56-byte entry per
//! directed link and keeps the few distinct profiles a world installs
//! in one table, shared by index. [`LinkState`] is the standalone form: a
//! profile and its channel together, for code that models one link by
//! itself (calibration tests, micro-benchmarks).
//!
//! Every transmit takes the stream it draws loss and jitter from. In a
//! simulation that is the link's own stream, which the topology keeps
//! beside the channel, so one link's outcomes never depend on traffic over
//! another.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Propagation-delay model for a link.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Constant one-way delay.
    Fixed(SimDuration),
    /// Uniform delay in `[base, base + jitter]`.
    Jittered {
        /// Minimum one-way delay.
        base: SimDuration,
        /// Additional uniform jitter bound.
        jitter: SimDuration,
    },
}

impl LatencyModel {
    /// Draw the propagation delay for one packet.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Jittered { base, jitter } => {
                if jitter.is_zero() {
                    *base
                } else {
                    *base + SimDuration::from_nanos(rng.range_u64(0, jitter.as_nanos() + 1))
                }
            }
        }
    }

    /// Upper bound of the delay this model can produce.
    #[inline]
    pub fn max_delay(&self) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Jittered { base, jitter } => *base + *jitter,
        }
    }

    /// Lower bound of the delay this model can produce — the conservative
    /// lookahead a sharded run may claim across a link with this profile.
    #[inline]
    pub fn min_delay(&self) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Jittered { base, .. } => *base,
        }
    }
}

/// Packet-loss model for a link.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// No loss ever (typical for the wired core in the paper's setting).
    Perfect,
    /// Independent per-packet loss with probability `p`.
    Bernoulli(f64),
    /// Two-state Gilbert–Elliott bursty-loss model, the standard abstraction
    /// for high-BER wireless channels: the channel flips between a Good and a
    /// Bad state with the given per-packet transition probabilities, and each
    /// state has its own loss probability.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_good_to_bad: f64,
        /// P(Bad → Good) per packet.
        p_bad_to_good: f64,
        /// Loss probability while in Good.
        loss_good: f64,
        /// Loss probability while in Bad.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A typical lossy wireless profile: 1% background loss with bursts of
    /// ~10 packets at 50% loss. Convenience used by tests and examples.
    pub fn lossy_wireless() -> Self {
        LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.1,
            loss_good: 0.01,
            loss_bad: 0.5,
        }
    }

    /// Steady-state average loss rate of the model.
    pub fn steady_state_loss(&self) -> f64 {
        match *self {
            LossModel::Perfect => 0.0,
            LossModel::Bernoulli(p) => p.clamp(0.0, 1.0),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// Bandwidth model: packets serialize one at a time onto the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthModel {
    /// Infinite capacity: no serialization delay, no queueing.
    Unlimited,
    /// Finite rate in bits per second with a bounded FIFO. Packets that
    /// would exceed `queue_limit` outstanding transmissions are dropped
    /// (tail drop).
    Limited {
        /// Serialization rate in bits/second.
        bits_per_sec: u64,
        /// Maximum queued-but-unsent packets before tail drop.
        queue_limit: usize,
    },
}

/// Complete description of a unidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Propagation-delay model.
    pub latency: LatencyModel,
    /// Loss model.
    pub loss: LossModel,
    /// Bandwidth / queueing model.
    pub bandwidth: BandwidthModel,
}

impl LinkProfile {
    /// A perfect link with a fixed delay — the default wired-core profile.
    pub fn wired(delay: SimDuration) -> Self {
        LinkProfile {
            latency: LatencyModel::Fixed(delay),
            loss: LossModel::Perfect,
            bandwidth: BandwidthModel::Unlimited,
        }
    }

    /// A jittered, Bernoulli-lossy link — the default wireless profile.
    pub fn wireless(base: SimDuration, jitter: SimDuration, loss: f64) -> Self {
        LinkProfile {
            latency: LatencyModel::Jittered { base, jitter },
            loss: LossModel::Bernoulli(loss),
            bandwidth: BandwidthModel::Unlimited,
        }
    }

    /// Replace the loss model (builder style).
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Packet will arrive at the receiver at the contained time.
    Deliver(SimTime),
    /// Packet was lost in flight (loss model).
    Lost,
    /// Packet was dropped before transmission (full bandwidth queue).
    QueueDrop,
    /// Packet was dropped because the link is administratively down
    /// (partition fault injection).
    Down,
}

/// The mutable half of a link: Gilbert–Elliott memory, the administrative
/// up flag, and the serializer's horizon and queue. It transmits under a
/// profile held elsewhere — beside it in a [`LinkState`], or in the
/// topology's shared table. 16 bytes.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    /// Earliest time the serializer can start on the next packet.
    tx_free_at: SimTime,
    /// Packets currently waiting for the serializer (only for `Limited`).
    queued: u32,
    /// Gilbert–Elliott state: in the bursty high-loss state.
    bad: bool,
    /// Administrative up/down state: a downed link drops every packet
    /// without consuming serializer time or advancing the loss channel
    /// (the cable is unplugged, not noisy). Scenario fault injection
    /// (wired-core partitions) toggles this; channel memory and transmit
    /// horizon survive a down/up cycle.
    up: bool,
}

impl Channel {
    /// A fresh, up channel in the Good state with an idle serializer.
    pub(crate) fn new() -> Self {
        Channel {
            tx_free_at: SimTime::ZERO,
            queued: 0,
            bad: false,
            up: true,
        }
    }

    /// Bring the link administratively down (every packet drops) or back
    /// up; nothing else changes.
    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Advance the Gilbert–Elliott channel one step and return whether the
    /// current packet is lost.
    #[inline]
    fn draw_loss(&mut self, loss: &LossModel, rng: &mut SimRng) -> bool {
        match *loss {
            LossModel::Perfect => false,
            LossModel::Bernoulli(p) => rng.chance(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.bad {
                    p_bad_to_good
                } else {
                    p_good_to_bad
                };
                if rng.chance(flip) {
                    self.bad = !self.bad;
                }
                rng.chance(if self.bad { loss_bad } else { loss_good })
            }
        }
    }

    /// Offer one packet of `size_bytes` to a link described by `profile`
    /// at time `now`, drawing loss and jitter from `rng` (see
    /// [`LinkState::transmit`]).
    #[inline]
    pub(crate) fn transmit(
        &mut self,
        profile: &LinkProfile,
        now: SimTime,
        size_bytes: usize,
        rng: &mut SimRng,
    ) -> TxOutcome {
        if !self.up {
            return TxOutcome::Down;
        }
        let depart = match profile.bandwidth {
            BandwidthModel::Unlimited => now,
            BandwidthModel::Limited {
                bits_per_sec,
                queue_limit,
            } => {
                // Reconcile queue occupancy with the transmit horizon.
                if self.tx_free_at <= now {
                    self.queued = 0;
                }
                if self.queued as usize >= queue_limit {
                    return TxOutcome::QueueDrop;
                }
                let start = self.tx_free_at.max(now);
                let ser_ns =
                    (size_bytes as u64 * 8).saturating_mul(1_000_000_000) / bits_per_sec.max(1);
                let done = start + SimDuration::from_nanos(ser_ns);
                self.tx_free_at = done;
                self.queued += 1;
                done
            }
        };
        if self.draw_loss(&profile.loss, rng) {
            return TxOutcome::Lost;
        }
        TxOutcome::Deliver(depart + profile.latency.sample(rng))
    }
}

/// A standalone link: a profile and the channel it drives. Inside a
/// simulation the topology stores the channel alone and shares the
/// profile; this form serves code that models one link by itself.
#[derive(Debug, Clone)]
pub struct LinkState {
    profile: LinkProfile,
    channel: Channel,
}

impl LinkState {
    /// Create runtime state for a profile.
    pub fn new(profile: LinkProfile) -> Self {
        LinkState {
            profile,
            channel: Channel::new(),
        }
    }

    /// Offer one packet of `size_bytes` to the link at time `now`.
    ///
    /// Models, in order: bandwidth queueing (serialization, tail drop), then
    /// loss, then propagation delay. A lost packet still consumed serializer
    /// time — it was transmitted, just not received.
    pub fn transmit(&mut self, now: SimTime, size_bytes: usize, rng: &mut SimRng) -> TxOutcome {
        self.channel.transmit(&self.profile, now, size_bytes, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed(0xDEAD)
    }

    #[test]
    fn fixed_latency_is_exact() {
        let mut link = LinkState::new(LinkProfile::wired(SimDuration::from_millis(5)));
        let mut r = rng();
        match link.transmit(SimTime::from_secs(1), 100, &mut r) {
            TxOutcome::Deliver(t) => {
                assert_eq!(t, SimTime::from_secs(1) + SimDuration::from_millis(5))
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn jitter_within_bounds() {
        let profile = LinkProfile {
            latency: LatencyModel::Jittered {
                base: SimDuration::from_millis(2),
                jitter: SimDuration::from_millis(3),
            },
            loss: LossModel::Perfect,
            bandwidth: BandwidthModel::Unlimited,
        };
        let mut link = LinkState::new(profile);
        let mut r = rng();
        for _ in 0..500 {
            match link.transmit(SimTime::ZERO, 64, &mut r) {
                TxOutcome::Deliver(t) => {
                    assert!(t >= SimTime::from_millis(2));
                    assert!(t <= SimTime::from_millis(5));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bernoulli_loss_rate() {
        let mut link = LinkState::new(
            LinkProfile::wired(SimDuration::from_millis(1)).with_loss(LossModel::Bernoulli(0.25)),
        );
        let mut r = rng();
        let n = 20_000;
        let mut lost = 0;
        for _ in 0..n {
            if matches!(link.transmit(SimTime::ZERO, 64, &mut r), TxOutcome::Lost) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_matches_steady_state() {
        let model = LossModel::lossy_wireless();
        let expected = model.steady_state_loss();
        let mut link =
            LinkState::new(LinkProfile::wired(SimDuration::from_millis(1)).with_loss(model));
        let mut r = rng();
        let n = 100_000;
        let mut lost = 0u64;
        for _ in 0..n {
            if matches!(link.transmit(SimTime::ZERO, 64, &mut r), TxOutcome::Lost) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - expected).abs() < 0.02,
            "measured {rate}, steady-state {expected}"
        );
    }

    #[test]
    fn bandwidth_serializes_packets() {
        // 8000 bits/s → a 100-byte (800-bit) packet takes 100 ms to serialize.
        let profile = LinkProfile {
            bandwidth: BandwidthModel::Limited {
                bits_per_sec: 8_000,
                queue_limit: 16,
            },
            ..LinkProfile::wired(SimDuration::ZERO)
        };
        let mut link = LinkState::new(profile);
        let mut r = rng();
        let t0 = SimTime::ZERO;
        let first = link.transmit(t0, 100, &mut r);
        let second = link.transmit(t0, 100, &mut r);
        assert_eq!(first, TxOutcome::Deliver(SimTime::from_millis(100)));
        assert_eq!(second, TxOutcome::Deliver(SimTime::from_millis(200)));
    }

    #[test]
    fn bandwidth_queue_tail_drops() {
        let profile = LinkProfile {
            bandwidth: BandwidthModel::Limited {
                bits_per_sec: 8_000,
                queue_limit: 2,
            },
            ..LinkProfile::wired(SimDuration::ZERO)
        };
        let mut link = LinkState::new(profile);
        let mut r = rng();
        assert!(matches!(
            link.transmit(SimTime::ZERO, 100, &mut r),
            TxOutcome::Deliver(_)
        ));
        assert!(matches!(
            link.transmit(SimTime::ZERO, 100, &mut r),
            TxOutcome::Deliver(_)
        ));
        assert_eq!(
            link.transmit(SimTime::ZERO, 100, &mut r),
            TxOutcome::QueueDrop
        );
        // After the horizon passes the queue drains and transmission resumes.
        let later = SimTime::from_secs(1);
        assert!(matches!(
            link.transmit(later, 100, &mut r),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn downed_link_drops_everything_until_up() {
        let profile = LinkProfile::wired(SimDuration::from_millis(1));
        let mut channel = Channel::new();
        let mut r = rng();
        channel.set_up(false);
        for _ in 0..3 {
            assert_eq!(
                channel.transmit(&profile, SimTime::ZERO, 64, &mut r),
                TxOutcome::Down
            );
        }
        channel.set_up(true);
        assert!(matches!(
            channel.transmit(&profile, SimTime::ZERO, 64, &mut r),
            TxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn channel_is_small() {
        // The topology stores one per directed link, beside a 32-byte draw
        // stream, in less than a cache line.
        assert_eq!(std::mem::size_of::<Channel>(), 16);
    }

    #[test]
    fn steady_state_loss_formula() {
        assert_eq!(LossModel::Perfect.steady_state_loss(), 0.0);
        assert_eq!(LossModel::Bernoulli(0.1).steady_state_loss(), 0.1);
        let ge = LossModel::GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.1,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!((ge.steady_state_loss() - 0.5).abs() < 1e-12);
    }
}
