//! Integration tests for the extension features, exercised through the
//! facade crate: discrete DVFS quantization, bounded speed + throughput,
//! timeline decomposition, local search, the exact solvers, and the
//! flow-time objective — all composed with the audited validator.

use speedscale::core::assignment::{assignment_energy, assignment_schedule};
use speedscale::core::decompose::exact_decomposed;
use speedscale::core::exact::exact_nonmigratory;
use speedscale::core::local_search::{improve, LocalSearchOptions};
use speedscale::core::rr::rr_assignment;
use speedscale::core::throughput::{max_throughput_exact, max_throughput_greedy};
use speedscale::migratory::bal::bal;
use speedscale::migratory::bounded::{bal_bounded, min_peak_speed};
use speedscale::model::quantize::{quantize_speeds, SpeedLevels};
use speedscale::workloads::{families, subseed};

/// Quantizing any optimal schedule onto its own speed range stays feasible
/// and costs a bounded, grid-shrinking overhead.
#[test]
fn quantization_composes_with_all_schedulers() {
    let inst = families::general(20, 3, 2.2).gen(41);
    for schedule in [
        bal(&inst).schedule(&inst),
        assignment_schedule(&inst, &rr_assignment(&inst)),
    ] {
        let smin = schedule
            .segments()
            .iter()
            .map(|s| s.speed)
            .fold(f64::INFINITY, f64::min);
        let smax = schedule
            .segments()
            .iter()
            .map(|s| s.speed)
            .fold(0.0f64, f64::max)
            * (1.0 + 1e-9);
        let mut prev = f64::INFINITY;
        for levels in [2usize, 4, 16] {
            let grid = SpeedLevels::geometric(smin, smax, levels).unwrap();
            let q = quantize_speeds(&schedule, &grid).unwrap();
            let stats = q.validate(&inst, Default::default()).unwrap();
            let overhead = stats.energy / schedule.energy(inst.alpha());
            assert!(overhead >= 1.0 - 1e-9);
            assert!(
                overhead <= prev + 1e-9,
                "overhead must shrink with finer grids"
            );
            prev = overhead;
        }
    }
}

/// The bounded-speed oracle, throughput search and the unbounded optimum
/// tell one consistent story.
#[test]
fn bounded_speed_story_is_consistent() {
    let inst = families::unit_arbitrary(12, 2, 2.0).gen(17);
    let peak = min_peak_speed(&inst);
    // Above the peak: feasible, full throughput, capped == unbounded.
    let above = peak * 1.01;
    assert!(bal_bounded(&inst, above).is_some());
    assert_eq!(max_throughput_greedy(&inst, above).throughput(), 12);
    // Below the peak: infeasible as a whole, but some subset fits.
    let below = peak * 0.7;
    assert!(bal_bounded(&inst, below).is_none());
    let g = max_throughput_greedy(&inst, below);
    let e = max_throughput_exact(&inst, below);
    assert!(g.throughput() < 12);
    assert!(g.throughput() <= e.throughput());
    assert!(e.throughput() < 12);
    // The admitted subset is genuinely schedulable under the cap.
    let sub = inst.subset(&e.admitted);
    let capped = bal_bounded(&sub, below * (1.0 + 1e-9));
    assert!(
        capped.is_some(),
        "exact throughput subset must fit under the cap"
    );
}

/// Decomposed exact and monolithic exact agree.
#[test]
fn three_exact_solvers_agree() {
    use speedscale::workloads::{ArrivalDist, Spec, WindowDist, WorkDist};
    let spec = Spec::new(10, 2, 2.0)
        .arrivals(ArrivalDist::Bursty {
            burst: 5,
            gap: 50.0,
        })
        .work(WorkDist::Uniform { min: 0.5, max: 2.0 })
        .window(WindowDist::LaxityFactor { min: 1.2, max: 2.5 });
    for seed in [1u64, 2] {
        let inst = spec.gen(subseed(0xE8, seed));
        let mono = exact_nonmigratory(&inst).energy;
        let deco = exact_decomposed(&inst).energy;
        assert!((mono - deco).abs() <= 1e-9 * mono);
    }
}

/// Local search composes: seeding with any constructive policy, the result
/// stays sandwiched between the migratory LB and the seed's energy, and the
/// improved assignment's schedule validates.
#[test]
fn local_search_composes_with_policies() {
    let inst = families::weighted_agreeable(16, 3, 2.5).gen(23);
    let lb = bal(&inst).energy;
    let seed = rr_assignment(&inst);
    let seed_energy = assignment_energy(&inst, &seed);
    let res = improve(&inst, &seed, LocalSearchOptions::default());
    assert!(res.energy >= lb * (1.0 - 1e-6));
    assert!(res.energy <= seed_energy * (1.0 + 1e-9));
    let schedule = assignment_schedule(&inst, &res.assignment);
    schedule
        .validate(
            &inst,
            speedscale::model::schedule::ValidationOptions::non_migratory(),
        )
        .unwrap();
}

/// Flow-time API composes with the model validator end to end.
#[test]
fn flowtime_schedules_validate() {
    use speedscale::single::flowtime::{flow_plus_energy, min_flow_time_budget};
    let releases: Vec<f64> = (0..20)
        .map(|k| k as f64 * 0.4 + (k % 4) as f64 * 0.05)
        .collect();
    for alpha in [1.5, 2.0, 3.0] {
        let a = flow_plus_energy(&releases, alpha, 1.0);
        let s = a.schedule(0);
        let inst = a.as_instance(1, alpha);
        s.validate(
            &inst,
            speedscale::model::schedule::ValidationOptions::non_migratory(),
        )
        .unwrap();
        let b = min_flow_time_budget(&releases, alpha, a.energy);
        // Re-solving with a's energy as the budget cannot do worse than a.
        assert!(b.total_flow <= a.total_flow * (1.0 + 1e-6));
    }
}

/// The non-migratory budgeted-makespan solver sandwiches correctly against
/// MBAL across a budget sweep.
#[test]
fn budgeted_makespan_sandwich_sweep() {
    use speedscale::core::budget::{makespan_under_budget, InnerSolver};
    use speedscale::migratory::mbal::mbal;
    use speedscale::model::{Instance, Job};
    // Deadline-free variant (clamp_deadlines only tightens, never loosens).
    let base = families::general(8, 2, 2.0).gen(33);
    let jobs: Vec<Job> = base
        .jobs()
        .iter()
        .map(|j| Job::new(j.id.0, j.work, j.release, 1e7))
        .collect();
    let inst = Instance::new(jobs, 2, 2.0).unwrap();
    for factor in [0.5, 1.0, 2.0] {
        let budget = inst.total_work() * factor;
        let mig = mbal(&inst, budget).unwrap().makespan;
        let exact = makespan_under_budget(&inst, budget, InnerSolver::Exact)
            .unwrap()
            .makespan;
        let greedy = makespan_under_budget(&inst, budget, InnerSolver::Greedy)
            .unwrap()
            .makespan;
        assert!(mig <= exact * (1.0 + 1e-6), "factor {factor}");
        assert!(exact <= greedy * (1.0 + 1e-6), "factor {factor}");
    }
}

/// SWF import feeds every downstream consumer.
#[test]
fn swf_chain_to_solvers() {
    use speedscale::workloads::{parse_swf, SwfOptions};
    let trace = "\
; tiny trace
1 0   0 50 2 -1 -1 2 120 -1 1 1 1 1 1 1 -1 -1
2 10  0 30 1 -1 -1 1  90 -1 1 1 1 1 1 1 -1 -1
3 500 0 40 2 -1 -1 2 100 -1 1 1 1 1 1 1 -1 -1
4 510 0 20 1 -1 -1 1  -1 -1 1 1 1 1 1 1 -1 -1
";
    let (inst, report) = parse_swf(
        trace,
        SwfOptions {
            machines: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.imported, 4);
    let lb = bal(&inst).energy;
    let exact = exact_decomposed(&inst).energy;
    assert!(exact >= lb * (1.0 - 1e-6));
    let peak = min_peak_speed(&inst);
    assert!(peak > 0.0);
    assert_eq!(max_throughput_greedy(&inst, peak * 1.01).throughput(), 4);
}
