//! Ladder vs bisection speed search inside the migratory BAL solver, across
//! the families that stress the per-round critical-speed search differently:
//! `general` (heterogeneous works, nested windows — many rounds), `laminar_nested`
//! (deep containment — many rounds with small remaining sets), and `crossing`
//! (staircase overlap — few rounds over wide alive sets).
//!
//! Two outputs, mirroring `yds_kernel`:
//!
//! * harness timing lines (`cargo bench -p ssp-bench --bench bal_kernel`),
//!   one benchmark per (family, n, strategy);
//! * a machine-readable artifact: set `SSP_BENCH_JSON=<path>` in measurement
//!   mode and a self-timed sweep (median of several reps, plus the
//!   `flow_computations` probe count per strategy) is written as JSON. The
//!   committed `BENCH_bal.json` at the repo root is produced this way;
//!   `SSP_BENCH_HISTORY=<path>` additionally appends the cells to the
//!   `BENCH_history.jsonl` trajectory (see `ssp_bench::trajectory::emit`).
//!
//! Each cell also carries a kernel column (`ladder_dinic_ms` /
//! `kernel_speedup`): the same ladder run with the WAP interval sweep
//! disabled (`WapKernel::Flow`), isolating the structure-aware fast path's
//! contribution from the ladder's probe-count savings. The two kernels must
//! agree on the final energy to the bit — asserted on every cell.

use ssp_bench::artifact::{Artifact, CellBuilder};
use ssp_bench::harness::{trace_once, BenchmarkId, Criterion};
use ssp_bench::{fixture, trajectory};
use ssp_migratory::bal::{try_bal_with_wap_strategy, BalSolution, ProbeStrategy};
use ssp_migratory::wap::{Wap, WapKernel};
use ssp_model::{Budget, Instance};
use ssp_workloads::families;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 4] = [50, 200, 800, 1600];
const FAMILIES: [&str; 3] = ["general", "laminar_nested", "crossing"];
const MACHINES: usize = 4;
const ALPHA: f64 = 2.0;

fn family_instance(family: &str, n: usize) -> Instance {
    match family {
        "general" => fixture("general", n, MACHINES, ALPHA),
        "laminar_nested" => families::laminar_nested(n, MACHINES, ALPHA, 0x9D5 + n as u64),
        "crossing" => families::crossing(n, MACHINES, ALPHA, 0xC0 + n as u64),
        _ => unreachable!("unknown family {family}"),
    }
}

/// One end-to-end solve (WAP construction included) under `strategy`,
/// with the WAP feasibility kernel pinned to `kernel`.
fn solve_with_kernel(
    instance: &Instance,
    strategy: ProbeStrategy,
    kernel: WapKernel,
) -> BalSolution {
    let (mut wap, intervals) = Wap::from_instance(instance);
    wap.set_kernel(kernel);
    try_bal_with_wap_strategy(instance, wap, intervals, Budget::unlimited(), strategy)
        .expect("BAL is total on feasible instances")
}

/// One end-to-end solve under the default (`Auto`) kernel dispatch.
fn solve(instance: &Instance, strategy: ProbeStrategy) -> BalSolution {
    solve_with_kernel(instance, strategy, WapKernel::Auto)
}

fn kernels(c: &mut Criterion) {
    for family in FAMILIES {
        let mut g = c.benchmark_group(format!("bal_kernel_{family}"));
        for n in [50, 200] {
            let instance = family_instance(family, n);
            g.bench_with_input(BenchmarkId::new("ladder", n), &instance, |b, inst| {
                b.iter(|| black_box(solve(inst, ProbeStrategy::Ladder).energy))
            });
            g.bench_with_input(BenchmarkId::new("bisection", n), &instance, |b, inst| {
                b.iter(|| black_box(solve(inst, ProbeStrategy::Bisection).energy))
            });
        }
        g.finish();
    }
}

/// One self-timed cell: median wall time and the flow-probe count.
fn timed_cell(instance: &Instance, strategy: ProbeStrategy, kernel: WapKernel) -> (f64, u64) {
    // Median of an odd number of reps; the large cells run once or thrice —
    // BAL at n=1600 is seconds, not microseconds.
    let reps = (2_000_000 / (instance.len() * instance.len())).clamp(3, 21) | 1;
    let mut probes = 0u64;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let sol = solve_with_kernel(instance, strategy, kernel);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            probes = sol.flow_computations as u64;
            black_box(sol.energy);
            ms
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[reps / 2], probes)
}

/// Run the self-timed sweep and collect the cells of the JSON artifact.
fn sweep_artifact() -> Artifact {
    let mut cells = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            let instance = family_instance(family, n);
            let (ladder_ms, ladder_probes) =
                timed_cell(&instance, ProbeStrategy::Ladder, WapKernel::Auto);
            let (bisect_ms, bisect_probes) =
                timed_cell(&instance, ProbeStrategy::Bisection, WapKernel::Auto);
            // The kernel column: the same ladder run with the interval sweep
            // disabled (generic flow engine only), so the fast path's
            // contribution is visible separately from the ladder's probe
            // savings.
            let (ladder_dinic_ms, _) =
                timed_cell(&instance, ProbeStrategy::Ladder, WapKernel::Flow);
            let ladder_e = solve(&instance, ProbeStrategy::Ladder).energy;
            let bisect_e = solve(&instance, ProbeStrategy::Bisection).energy;
            let dinic_e =
                solve_with_kernel(&instance, ProbeStrategy::Ladder, WapKernel::Flow).energy;
            eprintln!(
                "bal_kernel {family} n={n}: ladder {ladder_ms:.2}ms/{ladder_probes} probes \
                 (dinic-only {ladder_dinic_ms:.2}ms), bisect {bisect_ms:.2}ms/{bisect_probes} probes"
            );
            let rel = (ladder_e - bisect_e).abs() / bisect_e.abs().max(1e-300);
            // Both strategies stop inside the probe classifier's 1e-9
            // feasibility tolerance, so their critical speeds (and energies)
            // agree to ~alpha * 1e-9 relative, not bit-for-bit.
            assert!(
                rel <= 1e-8,
                "strategy energy mismatch on {family} n={n}: ladder={ladder_e} bisect={bisect_e}"
            );
            // Kernel choice, by contrast, must be invisible: both kernels
            // classify every probe identically (the sweep's certificate and
            // cut sides are canonical), so the energies agree to the bit.
            assert_eq!(
                ladder_e.to_bits(),
                dinic_e.to_bits(),
                "kernel energy mismatch on {family} n={n}: sweep={ladder_e} dinic={dinic_e}"
            );
            cells.push(
                CellBuilder::new(family, n)
                    .metric_ms("ladder_ms", ladder_ms)
                    .metric_ms("bisect_ms", bisect_ms)
                    .metric_ms("ladder_dinic_ms", ladder_dinic_ms)
                    .num("speedup", bisect_ms / ladder_ms, 2)
                    .num("kernel_speedup", ladder_dinic_ms / ladder_ms, 2)
                    .int("ladder_probes", ladder_probes)
                    .int("bisect_probes", bisect_probes)
                    .num("energy", ladder_e, 6)
                    .render(),
            );
        }
    }
    Artifact {
        bench: "bal_kernel".to_string(),
        alpha: ALPHA,
        unit: "ms_median".to_string(),
        cells,
    }
}

fn main() {
    let mut c = Criterion::from_args();
    kernels(&mut c);
    c.final_summary();
    // A regressed cell re-runs once per strategy/kernel variant under a
    // probe session, so the attached trace splits "more flow probes" from
    // "slower probes".
    trajectory::emit(sweep_artifact, |family, n| {
        let instance = family_instance(family, n);
        trace_once(&mut || {
            black_box(solve(&instance, ProbeStrategy::Ladder).energy);
            black_box(solve(&instance, ProbeStrategy::Bisection).energy);
            black_box(solve_with_kernel(&instance, ProbeStrategy::Ladder, WapKernel::Flow).energy);
        })
    });
}
