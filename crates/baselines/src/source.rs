//! The traffic source of the baselines that speak their own message type
//! (tunnel, RelM, unordered): one start/stop/limit timer loop, parameterised
//! by the `seq → message` constructor.

use ringnet_core::hierarchy::TrafficPattern;
use ringnet_core::ProtoEvent;
use simnet::{Actor, Ctx, NodeAddr, SimDuration, SimTime};

/// Sends `make(1)`, `make(2)`, … to `target` from `start`, spaced by
/// `pattern`, until `stop` or `limit` messages.
pub(crate) struct Source<M> {
    pub target: NodeAddr,
    pub pattern: TrafficPattern,
    pub start: SimTime,
    pub stop: Option<SimTime>,
    pub limit: Option<u64>,
    /// Messages sent so far (construct with 0).
    pub seq: u64,
    pub make: fn(u64) -> M,
}

impl<M> Actor<M, ProtoEvent> for Source<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, ProtoEvent>) {
        let delay = self.start.saturating_since(ctx.now());
        ctx.set_timer(delay, 0);
    }

    fn on_packet(&mut self, _: &mut Ctx<'_, M, ProtoEvent>, _: NodeAddr, _: M) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M, ProtoEvent>, _tag: u64) {
        if self.limit.is_some_and(|l| self.seq >= l) || self.stop.is_some_and(|s| ctx.now() >= s) {
            return;
        }
        self.seq += 1;
        ctx.send(self.target, (self.make)(self.seq));
        let delay = match self.pattern {
            TrafficPattern::Cbr { interval } => interval,
            TrafficPattern::Poisson { rate } => {
                SimDuration::from_secs_f64(ctx.rng().exponential(rate))
            }
        };
        ctx.set_timer(delay, 0);
    }
}
