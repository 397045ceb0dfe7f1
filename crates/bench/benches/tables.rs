//! One benchmark per reproduced table/figure (see `EXPERIMENTS.md`): each
//! target times the computational kernel that regenerates the artifact.

use ssp_bench::harness::{BenchmarkId, Criterion};
use ssp_bench::{criterion_group, fixture, trajectory};
use ssp_core::assignment::assignment_energy;
use ssp_core::classified::classified_assignment;
use ssp_core::classified::classified_assignment_with_base;
use ssp_core::exact::exact_nonmigratory;
use ssp_core::hardness::crossing;
use ssp_core::online::{avr_m_energy, oa_m};
use ssp_core::relax::relax_round;
use ssp_core::relax::{round_relaxation, RoundingOrder};
use ssp_core::rr::rr_assignment;
use ssp_core::throughput::max_throughput_greedy;
use ssp_migratory::bal::bal;
use ssp_migratory::bounded::min_peak_speed;
use ssp_migratory::kkt::certify;
use ssp_migratory::mbal::mbal;
use ssp_model::numeric::Tol;
use ssp_model::quantize::{quantize_speeds, SpeedLevels};
use ssp_single::flowtime::min_flow_time_budget;
use std::hint::black_box;

/// Table 1 — RR + per-machine YDS (the optimal algorithm) and the exact
/// solver it is checked against.
fn exp1_rr_optimal(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp1_rr_optimal");
    let small = fixture("unit_agreeable", 10, 2, 2.0);
    g.bench_function("exact_n10_m2", |b| {
        b.iter(|| black_box(exact_nonmigratory(&small).energy))
    });
    let big = fixture("unit_agreeable", 200, 4, 2.0);
    g.bench_function("rr_yds_n200_m4", |b| {
        b.iter(|| black_box(assignment_energy(&big, &rr_assignment(&big))))
    });
    g.finish();
}

/// Table 2 — exact branch-and-bound on the hardness gadgets.
fn exp2_hardness(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp2_hardness");
    for n in [7usize, 9, 11] {
        let inst = crossing(n, 2, 2.0);
        g.bench_with_input(BenchmarkId::new("exact_crossing", n), &inst, |b, inst| {
            b.iter(|| black_box(exact_nonmigratory(inst).nodes))
        });
    }
    g.finish();
}

/// Table 3 / Figure 1 — RelaxRound on unit-work arbitrary-deadline inputs.
fn exp3_unit_approx(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp3_unit_approx");
    for m in [2usize, 8] {
        let inst = fixture("unit_arbitrary", 100, m, 2.0);
        g.bench_with_input(BenchmarkId::new("relax_round_n100", m), &inst, |b, inst| {
            b.iter(|| black_box(assignment_energy(inst, &relax_round(inst))))
        });
    }
    g.finish();
}

/// Table 4 / Figure 2 — ClassifiedRR on agreeable heterogeneous works.
fn exp4_agreeable_approx(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp4_agreeable_approx");
    for m in [2usize, 8] {
        let inst = fixture("weighted_agreeable", 100, m, 2.0);
        g.bench_with_input(BenchmarkId::new("classified_n100", m), &inst, |b, inst| {
            b.iter(|| black_box(assignment_energy(inst, &classified_assignment(inst))))
        });
    }
    g.finish();
}

/// Table 5 — the migration-gap kernel: exact non-migratory vs BAL.
fn exp5_migration_gap(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp5_migration_gap");
    let inst = fixture("general", 9, 3, 2.0);
    g.bench_function("exact_vs_bal_n9_m3", |b| {
        b.iter(|| {
            let gap = exact_nonmigratory(&inst).energy / bal(&inst).energy;
            black_box(gap)
        })
    });
    g.finish();
}

/// Figure 4 — one MBAL budget probe (outer binary search over BAL).
fn exp7_mbal(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp7_mbal");
    g.sample_size(10);
    // Deadline-free variant of the fixture (the budget, not deadlines, must
    // be the binding constraint).
    let base = fixture("bursty", 16, 2, 2.5);
    let jobs: Vec<ssp_model::Job> = base
        .jobs()
        .iter()
        .map(|j| ssp_model::Job::new(j.id.0, j.work, j.release, 1e7))
        .collect();
    let inst = ssp_model::Instance::new(jobs, 2, 2.5).unwrap();
    let budget = inst.total_work() * 2.0;
    g.bench_function("mbal_n16_m2", |b| {
        b.iter(|| black_box(mbal(&inst, budget).unwrap().makespan))
    });
    g.finish();
}

/// Table 6 — the online algorithms.
fn exp8_online(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp8_online");
    let inst = fixture("bursty", 48, 4, 2.0);
    g.bench_function("avr_m_n48_m4", |b| {
        b.iter(|| black_box(avr_m_energy(&inst)))
    });
    g.sample_size(10);
    g.bench_function("oa_m_n48_m4", |b| {
        b.iter(|| black_box(oa_m(&inst).energy(2.0)))
    });
    g.finish();
}

/// Table 7 — BAL plus its KKT certificate.
fn exp9_certify(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp9_certify");
    let inst = fixture("general", 30, 3, 2.0);
    g.bench_function("bal_plus_kkt_n30_m3", |b| {
        b.iter(|| {
            let sol = bal(&inst);
            certify(&inst, &sol, Tol::rel(1e-6)).unwrap();
            black_box(sol.energy)
        })
    });
    g.finish();
}

/// Table 8 — the ablation kernels (alternative rounding order and class
/// base, same fixtures as EXP-3/4).
fn exp10_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp10_ablations");
    let unit = fixture("unit_arbitrary", 80, 4, 2.5);
    g.bench_function("relax_lpt_n80", |b| {
        b.iter(|| {
            black_box(assignment_energy(
                &unit,
                &round_relaxation(&unit, &bal(&unit).speeds, RoundingOrder::LongestRelaxedTime),
            ))
        })
    });
    let weighted = fixture("weighted_agreeable", 80, 4, 2.5);
    g.bench_function("classified_base8_n80", |b| {
        b.iter(|| {
            black_box(assignment_energy(
                &weighted,
                &classified_assignment_with_base(&weighted, 8.0),
            ))
        })
    });
    g.finish();
}

/// Table 9 — discrete-DVFS quantization of a BAL schedule.
fn exp11_quantize(c: &mut Criterion) {
    let inst = fixture("general", 40, 3, 2.5);
    let sol = bal(&inst);
    let schedule = sol.schedule(&inst);
    let levels = SpeedLevels::geometric(
        sol.speeds.min_speed(),
        sol.speeds.max_speed() * (1.0 + 1e-9),
        8,
    )
    .unwrap();
    c.bench_function("exp11_quantize_n40_8levels", |b| {
        b.iter(|| black_box(quantize_speeds(&schedule, &levels).unwrap().energy(2.5)))
    });
}

/// Table 10 — throughput under a speed cap (greedy admission).
fn exp12_throughput(c: &mut Criterion) {
    let inst = fixture("unit_arbitrary", 14, 2, 2.0);
    let cap = min_peak_speed(&inst) * 0.6;
    c.bench_function("exp12_greedy_throughput_n14", |b| {
        b.iter(|| black_box(max_throughput_greedy(&inst, cap).throughput()))
    });
}

/// Figure 5 — the flow-time budget DP (including the lambda bisection).
fn exp13_flowtime(c: &mut Criterion) {
    let releases: Vec<f64> = (0..40)
        .map(|k| k as f64 * 0.8 + (k % 3) as f64 * 0.1)
        .collect();
    c.bench_function("exp13_flow_budget_n40", |b| {
        b.iter(|| black_box(min_flow_time_budget(&releases, 2.0, 60.0).total_flow))
    });
}

criterion_group!(
    tables,
    exp1_rr_optimal,
    exp2_hardness,
    exp3_unit_approx,
    exp4_agreeable_approx,
    exp5_migration_gap,
    exp7_mbal,
    exp8_online,
    exp9_certify,
    exp10_ablations,
    exp11_quantize,
    exp12_throughput,
    exp13_flowtime
);
fn main() {
    let mut c = Criterion::from_args();
    tables(&mut c);
    c.final_summary();
    trajectory::emit(|| c.artifact("tables", 2.0), |family, n| c.trace(family, n));
}
