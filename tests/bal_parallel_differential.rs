//! Differential test wall for BAL's decomposition (tier-1).
//!
//! BAL finds the migratory optimum by decomposition: one max flow per split
//! and each class's speed in closed form (`ssp_migratory::bal`). The
//! differential oracle below is the textbook peeling BAL instead: every
//! round bisects the smallest uniform speed at which the remaining jobs fit
//! and classifies them by the canonical cut just below it. The two must
//! find the same speed classes, with energies within 1e-9 relative, on the
//! six instance families and on every valid instance of the fault
//! gauntlet; on the families BAL's explicit schedule must also validate at
//! the energy it reports. A further wall pins that BAL's speeds do not
//! depend on α, bit for bit: the optimum is the lexicographically optimal
//! base of the WAP's polymatroid whatever α is, and the decomposition never
//! reads it. The peak-speed wall requires `bounded::min_peak_speed` to be
//! the speed of BAL's fastest class, and the smallest uniform speed at
//! which the WAP fits. The last checks that no span of a solve leaves the
//! calling thread.

use ssp_harness::fault::FaultPlan;
use ssp_migratory::bal::{try_bal, BalSolution};
use ssp_migratory::bounded::min_peak_speed;
use ssp_migratory::kkt::certify;
use ssp_migratory::wap::{Wap, WapKernel, WapSolver};
use ssp_model::numeric::{bisect_threshold, Tol, BINARY_SEARCH_REL_WIDTH};
use ssp_model::par::set_thread_override;
use ssp_model::resource::Budget;
use ssp_model::{Instance, SpeedAssignment};
use ssp_probe::SpanRec;
use ssp_workloads::{families, subseed};
use std::collections::HashMap;

/// The differential oracle: plain peeling-bisection BAL. Each round
/// bisects the smallest uniform speed `v` at which the remaining jobs fit
/// to within 1e-12 of their demand,
/// takes the remaining jobs on the source side of the canonical cut at
/// `v·(1 − 1e-9)` as its class (the densest job when that cut is empty),
/// closes the intervals on that side and takes one processor share
/// `|I_j|` per class job from every other interval of its window. Returns
/// the classes in peeling order, each ascending, and every job's speed;
/// `None` when no finite speed fits or a remaining job has no open
/// interval left.
fn oracle(instance: &Instance) -> Option<(Vec<Vec<usize>>, Vec<f64>)> {
    let (mut wap, intervals) = Wap::from_instance(instance);
    let n = instance.len();
    let (mut speeds, mut classes) = (vec![0.0; n], Vec::new());
    let mut remaining = vec![true; n];
    // Feasible when the flow routes all but 1e-12 of the demand: the
    // solver's own 1e-9 verdict would let the bisection settle that much
    // below a class whose demand is a small share of the total.
    let solve = |solver: &mut WapSolver, remaining: &[bool], v: f64| {
        let p: Vec<f64> = (0..n)
            .map(|i| {
                if remaining[i] {
                    instance.job(i).work / v
                } else {
                    0.0
                }
            })
            .collect();
        let demand: f64 = p.iter().sum();
        solver.solve(&p) >= demand * (1.0 - 1e-12)
    };
    while remaining.contains(&true) {
        let live = || (0..n).filter(|&i| remaining[i]);
        if live().any(|i| wap.open_time_of(i) <= 0.0) {
            return None; // peeling rounded a job's last interval away
        }
        let density = |i: usize| instance.job(i).work / wap.open_time_of(i);
        let densest = live().max_by(|&a, &b| density(a).total_cmp(&density(b)))?;
        let (lo, mut hi) = (density(densest), density(densest));
        let mut solver = wap.solver();
        while !solve(&mut solver, &remaining, hi) {
            hi *= 2.0;
            if !hi.is_finite() {
                return None;
            }
        }
        let (_, v) = bisect_threshold(lo, hi, BINARY_SEARCH_REL_WIDTH, |v| {
            solve(&mut solver, &remaining, v)
        });
        solve(&mut solver, &remaining, v * (1.0 - 1e-9));
        let (job_side, cell_side) = solver.cut_sides();
        let mut class: Vec<usize> = (0..n).filter(|&i| remaining[i] && job_side[i]).collect();
        if class.is_empty() {
            class.push(densest);
        }
        for (j, _) in cell_side.iter().enumerate().filter(|&(_, &cut)| cut) {
            wap.set_capacity(j, 0.0);
        }
        for &i in &class {
            remaining[i] = false;
            speeds[i] = v;
            for &j in intervals.intervals_of(i) {
                if wap.capacity(j) > 0.0 {
                    wap.set_capacity(j, (wap.capacity(j) - intervals.length(j)).max(0.0));
                }
            }
        }
        classes.push(class);
    }
    Some((classes, speeds))
}

/// BAL's answer beside the oracle's on one instance, when both find one:
/// BAL's solution, the oracle's classes and the oracle's energy. Where BAL
/// reports a numeric error, the oracle must find no finite energy either;
/// where only the oracle fails, BAL's answer must pass the KKT certificate
/// and validate. Both cases return `None`.
fn beside_oracle(name: &str, instance: &Instance) -> Option<(BalSolution, Vec<Vec<usize>>, f64)> {
    let expected = oracle(instance).map(|(classes, speeds)| {
        let energy = SpeedAssignment::new(speeds).energy(instance);
        (classes, energy)
    });
    let sol = match try_bal(instance, Budget::unlimited()) {
        Ok(sol) => sol,
        Err(e) => {
            if let Some((_, energy)) = expected {
                assert!(
                    !energy.is_finite(),
                    "{name}: BAL failed ({e}) where the oracle has energy {energy}"
                );
            }
            return None;
        }
    };
    let Some((classes, energy)) = expected else {
        certify(instance, &sol, Tol::rel(1e-6))
            .unwrap_or_else(|e| panic!("{name}: BAL alone answers, uncertified: {e}"));
        sol.schedule(instance)
            .validate(instance, Default::default())
            .unwrap_or_else(|e| panic!("{name}: BAL alone answers, invalid: {e}"));
        return None;
    };
    Some((sol, classes, energy))
}

/// BAL's classes must be the oracle's, in the same order.
fn assert_same_classes(name: &str, sol: &BalSolution, classes: &[Vec<usize>]) {
    let found: Vec<Vec<usize>> = sol.rounds.iter().map(|r| r.jobs.clone()).collect();
    assert_eq!(found, classes, "{name}: speed classes");
}

/// BAL's energy must be the oracle's within 1e-9 relative (both infinite
/// counts as equal).
fn assert_same_energy(name: &str, sol: &BalSolution, energy: f64) {
    if energy != sol.energy {
        let rel = (energy - sol.energy).abs() / energy.abs().max(sol.energy.abs());
        assert!(
            rel <= 1e-9,
            "{name}: energy {} vs oracle {energy}",
            sol.energy
        );
    }
}

fn family(name: &str, n: usize, m: usize, alpha: f64, seed: u64) -> Instance {
    match name {
        "general" => families::general(n, m, alpha).gen(seed),
        "unit_arbitrary" => families::unit_arbitrary(n, m, alpha).gen(seed),
        "weighted_agreeable" => families::weighted_agreeable(n, m, alpha).gen(seed),
        "bursty" => families::bursty(n, m, alpha).gen(seed),
        "laminar_nested" => families::laminar_nested(n, m, alpha, seed),
        "crossing" => families::crossing(n, m, alpha, seed),
        _ => unreachable!("unknown family {name}"),
    }
}

const FAMILIES: [&str; 6] = [
    "general",
    "unit_arbitrary",
    "weighted_agreeable",
    "bursty",
    "laminar_nested",
    "crossing",
];

/// Six families, n ∈ {8, 30}, three seeds each.
fn family_instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for name in FAMILIES {
        for n in [8, 30] {
            for k in 0..3 {
                let instance = family(name, n, 3, 2.0, subseed(0xBA1, k));
                out.push((format!("{name} n={n} seed {k}"), instance));
            }
        }
    }
    out
}

#[test]
fn decomposition_classifies_like_the_bisection_oracle() {
    for (name, instance) in family_instances() {
        let (sol, classes, _) = beside_oracle(&name, &instance)
            .unwrap_or_else(|| panic!("{name}: BAL and the oracle must both answer"));
        assert_same_classes(&name, &sol, &classes);
    }
}

/// Energies agree with the oracle's, and BAL's explicit schedule validates
/// at the energy BAL reports.
#[test]
fn decomposition_agrees_with_the_bisection_oracle_on_energy() {
    for (name, instance) in family_instances() {
        let (sol, _, energy) = beside_oracle(&name, &instance)
            .unwrap_or_else(|| panic!("{name}: BAL and the oracle must both answer"));
        assert_same_energy(&name, &sol, energy);
        let stats = sol
            .schedule(&instance)
            .validate(&instance, Default::default())
            .unwrap_or_else(|e| panic!("{name}: schedule failed validation: {e}"));
        assert!(
            (stats.energy - sol.energy).abs() <= 1e-6 * sol.energy,
            "{name}: schedule energy {} vs solver energy {}",
            stats.energy,
            sol.energy
        );
    }
}

#[test]
fn decomposition_matches_the_oracle_on_the_fault_gauntlet() {
    let plan = FaultPlan::new(0xFA17);
    let mut valid = 0;
    for index in 0..220 {
        let case = plan.case(index);
        if let Ok(instance) = &case.instance {
            valid += 1;
            let name = format!("case {index} ({})", case.fault);
            if let Some((sol, classes, energy)) = beside_oracle(&name, instance) {
                assert_same_classes(&name, &sol, &classes);
                assert_same_energy(&name, &sol, energy);
            }
        }
    }
    assert!(valid > 50, "only {valid} valid gauntlet instances");
}

/// Does every job fit at uniform speed `v`? Decided by a forced-`Flow`
/// WAP, so the sweep under test elsewhere plays no part.
fn fits_at(instance: &Instance, v: f64) -> bool {
    let (mut wap, _) = Wap::from_instance(instance);
    wap.set_kernel(WapKernel::Flow);
    let p: Vec<f64> = instance.jobs().iter().map(|j| j.work / v).collect();
    wap.solve(&p).feasible()
}

/// `min_peak_speed` on an instance BAL solved: the speed of BAL's fastest
/// class within 1e-12 relative, at which every job fits. Returns it.
fn assert_peak_is_the_fastest_class(name: &str, instance: &Instance, sol: &BalSolution) -> f64 {
    let v = min_peak_speed(instance);
    let fastest = sol.rounds[0].speed;
    assert!(
        (v - fastest).abs() <= 1e-12 * fastest,
        "{name}: peak speed {v} vs BAL's fastest class {fastest}"
    );
    assert!(fits_at(instance, v), "{name}: the jobs do not fit at {v}");
    v
}

/// The peak speed is BAL's fastest class, no job's density exceeds it, and
/// it is the smallest uniform speed at which the jobs fit: 1e-6 below it
/// they do not.
#[test]
fn peak_speed_is_the_fastest_class() {
    for (name, instance) in family_instances() {
        let sol = try_bal(&instance, Budget::unlimited())
            .unwrap_or_else(|e| panic!("{name}: BAL failed: {e}"));
        let v = assert_peak_is_the_fastest_class(&name, &instance, &sol);
        assert!(
            v >= instance.max_density(),
            "{name}: peak {v} below a density"
        );
        assert!(
            !fits_at(&instance, v * (1.0 - 1e-6)),
            "{name}: the jobs fit below the peak {v}"
        );
    }
}

/// On every valid gauntlet instance BAL answers, the peak speed is BAL's
/// fastest class and the jobs fit at it. Nothing is asserted below it: on
/// windows a sliver wide, a 1e-6 cut in one job's demand falls inside the
/// feasibility tolerance of 1e-9 of the total demand.
#[test]
fn peak_speed_is_the_fastest_class_on_the_fault_gauntlet() {
    let plan = FaultPlan::new(0xFA17);
    let mut checked = 0;
    for index in 0..220 {
        let case = plan.case(index);
        let Ok(instance) = &case.instance else {
            continue;
        };
        let Ok(sol) = try_bal(instance, Budget::unlimited()) else {
            continue;
        };
        let name = format!("case {index} ({})", case.fault);
        if sol.rounds.is_empty() {
            assert_eq!(min_peak_speed(instance), 0.0, "{name}: no jobs");
            continue;
        }
        assert_peak_is_the_fastest_class(&name, instance, &sol);
        checked += 1;
    }
    assert!(checked > 50, "only {checked} gauntlet instances checked");
}

/// The decomposition never reads α: speeds are the same bits at every α.
#[test]
fn speeds_do_not_depend_on_alpha() {
    for name in FAMILIES {
        let base = family(name, 40, 4, 2.0, subseed(0xA1FA, 0));
        let speeds = |alpha: f64| -> Vec<u64> {
            let instance = Instance::new(base.jobs().to_vec(), base.machines(), alpha).unwrap();
            let sol = try_bal(&instance, Budget::unlimited()).expect("BAL answers");
            sol.speeds.speeds().iter().map(|s| s.to_bits()).collect()
        };
        let at_two = speeds(2.0);
        for alpha in [1.3, 2.5, 3.0] {
            assert_eq!(speeds(alpha), at_two, "{name}: speeds at alpha {alpha}");
        }
    }
}

/// Two inputs on which an earlier BAL fanned its speed search out onto
/// worker threads, with the energy bits of the decomposition.
fn former_fan_out_inputs() -> Vec<(&'static str, Instance, u64)> {
    vec![
        (
            "weighted",
            families::weighted_agreeable(20, 4, 2.0).gen(subseed(1, 2)),
            0x4025f30726a3d8f6,
        ),
        (
            "bursty n=60",
            families::bursty(60, 3, 2.0).gen(0xC0FFEE),
            0x4049e15e02e268c7,
        ),
    ]
}

/// No BAL solve starts a thread: with the width pinned at 8, every span in
/// a solve's subtree carries the thread of the span the test opened around
/// it. The subtree, not the whole trace, because other tests in this binary
/// run BAL concurrently.
#[test]
fn bal_never_leaves_the_calling_thread() {
    let session =
        ssp_probe::Session::begin().expect("no other test in this binary opens a probe session");
    let prev = set_thread_override(Some(8));
    let energies: Vec<_> = former_fan_out_inputs()
        .into_iter()
        .map(|(name, instance, bits)| {
            let _root = ssp_probe::span("test.bal_on_one_thread");
            let sol = try_bal(&instance, Budget::unlimited()).expect("feasible instance");
            (name, sol.energy, bits)
        })
        .collect();
    set_thread_override(prev);
    let trace = session.end();

    for (name, energy, bits) in energies {
        assert_eq!(energy.to_bits(), bits, "{name}: energy {energy} moved");
    }
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for span in &trace.spans {
        children.entry(span.parent).or_default().push(span);
    }
    let roots: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "test.bal_on_one_thread")
        .collect();
    assert_eq!(roots.len(), 2, "one root span per input");
    for root in roots {
        let mut stack = vec![root.id];
        let mut bal_spans = 0;
        while let Some(id) = stack.pop() {
            for &child in children.get(&id).into_iter().flatten() {
                assert_eq!(
                    child.thread, root.thread,
                    "span {} ran on thread {}, the solve on {}",
                    child.name, child.thread, root.thread
                );
                bal_spans += usize::from(child.name == "bal");
                stack.push(child.id);
            }
        }
        assert_eq!(bal_spans, 1, "the root must enclose exactly one BAL solve");
    }
}
