//! Pinned work of the Dinic engine's warm carry (tier-1).
//!
//! A forced-`Flow` WAP solver carries its max flow from solve to solve: it
//! clamps each job's source edge to the new demand, cancels the overflow
//! along the job's own `job → cell → sink` paths and resumes Dinic from
//! what is left. `bounded::min_peak_speed` drives that carry through a
//! uniform-speed bisection. The test below drives a forced-`Flow` solver
//! through the same kind of bisection, a ladder of demand scales from half
//! the largest density (no speed below that density fits its job) to twice
//! the all-machines density bound, and pins the threshold it finds with the
//! work counters. A change to the carry's order or arithmetic moves at
//! least one of them. This test sits in its own binary so no other test
//! shares its probe session.

use ssp_migratory::wap::{Wap, WapKernel};
use ssp_model::numeric::{bisect_threshold, BINARY_SEARCH_REL_WIDTH};
use ssp_model::Instance;
use ssp_workloads::{families, subseed};

/// Threshold bits, then the solves, `maxflow.warm_reuse`,
/// `maxflow.dinic.cancel_paths`, `maxflow.dinic.augmentations` and
/// `maxflow.dinic.phases`.
type Pinned = (u64, [u64; 5]);

fn forced_flow_bisection(instance: &Instance) -> Pinned {
    let (mut wap, _) = Wap::from_instance(instance);
    wap.set_kernel(WapKernel::Flow);
    let peak = instance.max_density();
    let total: f64 = instance.jobs().iter().map(|j| j.density()).sum();
    let (lo, hi) = (
        0.5 * peak,
        2.0 * peak.max(total / instance.machines() as f64),
    );
    let session = ssp_probe::Session::begin().expect("no other session in this binary");
    let mut solver = wap.solver();
    let (mut p, mut solves) = (vec![0.0; instance.len()], 0u64);
    let (_, v) = bisect_threshold(lo, hi, BINARY_SEARCH_REL_WIDTH, |v| {
        for (pi, job) in p.iter_mut().zip(instance.jobs()) {
            *pi = job.work / v;
        }
        solves += 1;
        solver.solve(&p);
        solver.feasible()
    });
    let trace = session.end();
    (
        v.to_bits(),
        [
            solves,
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
        forced_flow_bisection(&general),
        (0x3fe9_b75c_bfd0_f9ae, [46, 45, 3_373, 3_720, 30]),
        "general(100, 4, 2.0)"
    );
    let crossing = families::crossing(200, 4, 2.0, subseed(3, 0));
    assert_eq!(
        forced_flow_bisection(&crossing),
        (0x3fd5_d949_a960_d8c0, [47, 46, 3_580, 9_607, 278]),
        "crossing(200, 4, 2.0)"
    );
}
