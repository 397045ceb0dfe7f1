//! The history-independence wall (tier-1): a BAL answer depends on its
//! instance and on nothing that ran before it.
//!
//! The census's 72 instances are solved in order, then again in reverse
//! order with other WAP work between the solves: `min_peak_speed`, a
//! whole-WAP solve and the harness's certified bound on each instance. The
//! two passes must give the same speeds, allotments, energies, classes and
//! flow counts, bit for bit. The harness's bound must equal, bit for bit,
//! `min(energy, validated energy of the schedule)` of a separate solve whose
//! KKT certificate passes — the rule a traced sysbench replay enforces on
//! every request. The test sits in its own binary, beside the census, so
//! its solves never run inside the census's probe session.

mod census;

use census::instance;
use ssp_migratory::bal::{try_bal, BalSolution};
use ssp_migratory::bounded::min_peak_speed;
use ssp_migratory::kkt::certify;
use ssp_migratory::wap::Wap;
use ssp_model::numeric::Tol;
use ssp_model::schedule::ValidationOptions;
use ssp_model::{Budget, Instance};

/// A solve's answer as bits: speeds, allotments, energy, the classes with
/// their speeds and saturated intervals, and the flow count.
#[derive(Debug, PartialEq)]
struct Answer {
    speeds: Vec<u64>,
    allotments: Vec<Vec<(usize, u64)>>,
    energy: u64,
    classes: Vec<(Vec<usize>, u64, Vec<usize>)>,
    flow_computations: usize,
}

fn answer(sol: &BalSolution) -> Answer {
    Answer {
        speeds: sol.speeds.speeds().iter().map(|s| s.to_bits()).collect(),
        allotments: sol
            .allotments
            .iter()
            .map(|a| a.iter().map(|&(j, t)| (j, t.to_bits())).collect())
            .collect(),
        energy: sol.energy.to_bits(),
        classes: sol
            .rounds
            .iter()
            .map(|r| (r.jobs.clone(), r.speed.to_bits(), r.saturated.clone()))
            .collect(),
        flow_computations: sol.flow_computations,
    }
}

fn solve(instance: &Instance) -> BalSolution {
    try_bal(instance, Budget::unlimited()).expect("BAL is total on generated instances")
}

/// The certified bound's rule applied to one solve: its energy or the
/// validated energy of its schedule, whichever is smaller, once its KKT
/// certificate passes.
fn bound_of(instance: &Instance, sol: &BalSolution) -> f64 {
    certify(instance, sol, Tol::rel(1e-6)).expect("the KKT certificate passes");
    let stats = sol
        .schedule(instance)
        .validate(instance, ValidationOptions::default())
        .expect("BAL's schedule validates");
    sol.energy.min(stats.energy)
}

#[test]
fn bal_answers_do_not_depend_on_earlier_solves() {
    let instances: Vec<(String, Instance)> = census::keys()
        .into_iter()
        .map(|(family, n, seed)| {
            (
                format!("{family} n={n} seed={seed}"),
                instance(family, n, seed),
            )
        })
        .collect();
    let first: Vec<(Answer, f64)> = instances
        .iter()
        .map(|(_, instance)| {
            let sol = solve(instance);
            (answer(&sol), bound_of(instance, &sol))
        })
        .collect();
    for ((key, instance), (expected, bound)) in instances.iter().zip(&first).rev() {
        let peak = min_peak_speed(instance);
        assert!(peak > 0.0 && peak.is_finite(), "{key}: peak speed {peak}");
        let (wap, _) = Wap::from_instance(instance);
        let demands: Vec<f64> = instance.jobs().iter().map(|j| j.work / peak).collect();
        assert!(
            wap.solve(&demands).feasible(),
            "{key}: infeasible at the peak speed"
        );
        let harness = ssp_harness::certified_lower_bound(instance, Budget::unlimited()).0;
        assert_eq!(
            harness.map(f64::to_bits),
            Some(bound.to_bits()),
            "{key}: the harness's bound"
        );
        assert_eq!(
            &answer(&solve(instance)),
            expected,
            "{key}: the second pass"
        );
    }
}
