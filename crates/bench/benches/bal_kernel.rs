//! The migratory BAL solver end to end, under each WAP kernel, across the
//! families that stress its decomposition differently: `general`
//! (heterogeneous works, nested windows — many splits over wide nodes),
//! `laminar_nested` (deep containment — mostly one-job classes peeled one
//! split at a time) and `crossing` (staircase overlap — few classes over
//! wide alive sets).
//!
//! Two outputs, mirroring `yds_kernel`:
//!
//! * harness timing lines (`cargo bench -p ssp-bench --bench bal_kernel`),
//!   one benchmark per (family, n, kernel);
//! * a machine-readable artifact: set `SSP_BENCH_JSON=<path>` in measurement
//!   mode and a self-timed sweep (median of several reps) is written as
//!   JSON. The committed `BENCH_bal.json` at the repo root is produced this
//!   way; `SSP_BENCH_HISTORY=<path>` additionally appends the cells to the
//!   `BENCH_history.jsonl` trajectory (see `ssp_bench::trajectory::emit`).
//!
//! Each cell times BAL under the default kernel dispatch (`bal_ms`:
//! the interval sweep, falling back to Dinic where it declines) and with
//! the sweep disabled (`bal_dinic_ms`, `WapKernel::Flow`), so
//! `kernel_speedup` isolates the structure-aware fast path's contribution;
//! `flow_calls` is the solve's max-flow count, one per decomposition node
//! of two or more jobs. The two kernels must agree on the final energy to
//! the bit — asserted on every cell.

use ssp_bench::artifact::{Artifact, CellBuilder};
use ssp_bench::harness::{trace_once, BenchmarkId, Criterion};
use ssp_bench::{fixture, trajectory};
use ssp_migratory::bal::{try_bal_with_wap, BalSolution};
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

/// One end-to-end solve (WAP construction included) with the WAP
/// feasibility kernel pinned to `kernel`.
fn solve(instance: &Instance, kernel: WapKernel) -> BalSolution {
    let (mut wap, intervals) = Wap::from_instance(instance);
    wap.set_kernel(kernel);
    try_bal_with_wap(instance, wap, intervals, Budget::unlimited())
        .expect("BAL is total on feasible instances")
}

fn kernels(c: &mut Criterion) {
    for family in FAMILIES {
        let mut g = c.benchmark_group(format!("bal_kernel_{family}"));
        for n in [50, 200] {
            let instance = family_instance(family, n);
            g.bench_with_input(BenchmarkId::new("auto", n), &instance, |b, inst| {
                b.iter(|| black_box(solve(inst, WapKernel::Auto).energy))
            });
            g.bench_with_input(BenchmarkId::new("dinic", n), &instance, |b, inst| {
                b.iter(|| black_box(solve(inst, WapKernel::Flow).energy))
            });
        }
        g.finish();
    }
}

/// One self-timed cell: median wall time, the max-flow count and the
/// energy.
fn timed_cell(instance: &Instance, kernel: WapKernel) -> (f64, u64, f64) {
    // Median of an odd number of reps; the large cells run once or thrice —
    // BAL at n=1600 is hundreds of milliseconds, not microseconds.
    let reps = (2_000_000 / (instance.len() * instance.len())).clamp(3, 21) | 1;
    let (mut flows, mut energy) = (0u64, 0.0);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let sol = solve(instance, kernel);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            flows = sol.flow_computations as u64;
            energy = black_box(sol.energy);
            ms
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[reps / 2], flows, energy)
}

/// Run the self-timed sweep and collect the cells of the JSON artifact.
fn sweep_artifact() -> Artifact {
    let mut cells = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            let instance = family_instance(family, n);
            let (bal_ms, flow_calls, energy) = timed_cell(&instance, WapKernel::Auto);
            let (bal_dinic_ms, _, dinic_energy) = timed_cell(&instance, WapKernel::Flow);
            eprintln!(
                "bal_kernel {family} n={n}: {bal_ms:.2}ms, {flow_calls} flows \
                 (dinic-only {bal_dinic_ms:.2}ms)"
            );
            // Kernel choice must be invisible: both kernels find the same
            // canonical cuts (the sweep's certificate and cut sides are
            // canonical), so every class and its closed-form speed agree,
            // and the energies agree to the bit.
            assert_eq!(
                energy.to_bits(),
                dinic_energy.to_bits(),
                "kernel energy mismatch on {family} n={n}: sweep={energy} dinic={dinic_energy}"
            );
            cells.push(
                CellBuilder::new(family, n)
                    .metric_ms("bal_ms", bal_ms)
                    .metric_ms("bal_dinic_ms", bal_dinic_ms)
                    .num("kernel_speedup", bal_dinic_ms / bal_ms, 2)
                    .int("flow_calls", flow_calls)
                    .num("energy", energy, 6)
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
    // A regressed cell re-runs once per kernel under a probe session, so
    // the attached trace splits "more max flows" from "slower max flows".
    trajectory::emit(sweep_artifact, |family, n| {
        let instance = family_instance(family, n);
        trace_once(&mut || {
            black_box(solve(&instance, WapKernel::Auto).energy);
            black_box(solve(&instance, WapKernel::Flow).energy);
        })
    });
}
