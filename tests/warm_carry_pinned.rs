//! Pinned work of the Dinic engine's warm carry (tier-1).
//!
//! A forced-`Flow` WAP solver carries its max flow from probe to probe: it
//! clamps each job's source edge to the new demand, cancels the overflow
//! along the job's own `job → cell → sink` paths and resumes Dinic from
//! what is left. The energies and the work counters below were recorded
//! for two BAL ladder solves; a change to the carry's order or arithmetic
//! moves at least one of them. This test sits in its own binary so no other
//! test shares its probe session.

use ssp_migratory::bal::{try_bal_with_wap_strategy, ProbeStrategy};
use ssp_migratory::wap::{Wap, WapKernel};
use ssp_model::{Budget, Instance};
use ssp_workloads::{families, subseed};

/// Energy bits, then `flow_computations`, `maxflow.warm_reuse`,
/// `maxflow.dinic.cancel_paths`, `maxflow.dinic.augmentations` and
/// `maxflow.dinic.phases`.
type Pinned = (u64, [u64; 5]);

fn forced_flow_ladder(instance: &Instance) -> Pinned {
    let session = ssp_probe::Session::begin().expect("no other session in this binary");
    let (mut wap, intervals) = Wap::from_instance(instance);
    wap.set_kernel(WapKernel::Flow);
    let sol = try_bal_with_wap_strategy(
        instance,
        wap,
        intervals,
        Budget::unlimited(),
        ProbeStrategy::Ladder,
    )
    .expect("BAL is total on generated instances");
    let trace = session.end();
    (
        sol.energy.to_bits(),
        [
            sol.flow_computations as u64,
            trace.counter("maxflow.warm_reuse"),
            trace.counter("maxflow.dinic.cancel_paths"),
            trace.counter("maxflow.dinic.augmentations"),
            trace.counter("maxflow.dinic.phases"),
        ],
    )
}

#[test]
fn forced_flow_ladder_reports_the_pinned_work() {
    let general = families::general(100, 4, 2.0).gen(subseed(1, 0));
    assert_eq!(
        forced_flow_ladder(&general),
        (0x4052164ffec63f47, [21, 3, 110, 11_299, 73]),
        "general(100, 4, 2.0)"
    );
    let crossing = families::crossing(200, 4, 2.0, subseed(3, 0));
    assert_eq!(
        forced_flow_ladder(&crossing),
        (0x40582451f8bccfef, [7, 3, 556, 4_825, 61]),
        "crossing(200, 4, 2.0)"
    );
}
