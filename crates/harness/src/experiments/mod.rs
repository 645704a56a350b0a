//! The experiment suite: one module per table/figure of EXPERIMENTS.md.
//!
//! Every experiment exposes `run(quick) -> Table`; `quick = true` shrinks
//! sweeps and durations for CI/unit tests, `quick = false` is what the
//! `experiments` binary and the criterion benches execute. The experiment
//! ids match DESIGN.md §4:
//!
//! | id | artefact |
//! |----|----------|
//! | F1 | Figure 1 (hierarchy construction) |
//! | T1 | Theorem 5.1 — throughput |
//! | T2 | Theorem 5.1 — latency bound |
//! | T3 | Theorem 5.1 — buffer bounds |
//! | E1 | vs flat logical ring |
//! | E2 | handoff disruption / path reservation |
//! | E3 | token-loss recovery |
//! | E4 | ordering latency penalty (Remark 3) |
//! | E5 | reliability vs wireless loss |
//! | E6 | mobility cost vs tree / tunnel |
//! | E7 | token rotation vs ring size |
//! | E8 | load concentration vs RelM supervisor host |
//! | A1 | ablations (WTSNP retention, old token, ACK batching) |

pub mod a1;
pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod f1;
pub mod t1;
pub mod t2;
pub mod t3;

use ringnet_core::hierarchy::LinkPlan;
use ringnet_core::metrics::Finals;
use ringnet_core::{HierarchySpec, ProtoEvent, RingNetSim};
use simnet::{LinkProfile, SimDuration, SimTime};

use crate::report::Table;

/// Run every experiment, returning the tables in document order.
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        f1::run(quick),
        t1::run(quick),
        t2::run(quick),
        t3::run(quick),
        e1::run(quick),
        e2::run(quick),
        e3::run(quick),
        e4::run(quick),
        e5::run(quick),
        e6::run(quick),
        e7::run(quick),
        e8::run(quick),
        a1::run(quick),
    ]
}

/// A link plan with loss-free wireless — used wherever Theorem 5.1's
/// "without retransmission" assumption applies.
pub fn loss_free_links() -> LinkPlan {
    LinkPlan {
        wireless: LinkProfile::wired(SimDuration::from_millis(2)),
        ..LinkPlan::default()
    }
}

/// Build, run for `duration`, tear down and return the journal with the
/// end-of-run counters.
pub fn run_spec(
    spec: HierarchySpec,
    seed: u64,
    duration: SimTime,
) -> (Vec<(SimTime, ProtoEvent)>, Finals) {
    let mut net = RingNetSim::build(spec, seed);
    net.run_until(duration);
    let (journal, _, finals) = net.finish();
    (journal, finals)
}

/// Analytic `T_deliver` for a builder-shaped hierarchy: the worst-case time
/// for an ordered message to travel BR → AG leader → around the AG ring →
/// AP → MH under `links` (upper-bounding jitter).
pub fn analytic_t_deliver(links: &LinkPlan, ags_per_ring: usize) -> SimDuration {
    let ring_hops = ags_per_ring.saturating_sub(1) as u64;
    links.br_ag.latency.max_delay()
        + links.ag_ring.latency.max_delay() * ring_hops
        + links.ag_ap.latency.max_delay()
        + links.wireless.latency.max_delay()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_deliver_accounts_for_every_scope() {
        let links = LinkPlan::default();
        // 3 + 2×2 + 1 + 3 = 11 ms for a 3-AG ring with default links.
        let t = analytic_t_deliver(&links, 3);
        assert_eq!(t, SimDuration::from_millis(11));
        // Single-AG rings skip the ring circulation.
        let t1 = analytic_t_deliver(&links, 1);
        assert_eq!(t1, SimDuration::from_millis(7));
    }
}
