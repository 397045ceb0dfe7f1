//! Old vs new single-processor YDS kernel across the instance families
//! that stress it differently: `weighted_agreeable` (few peels, long
//! critical intervals), `laminar_nested` (deep containment — the
//! worst case for the quadratic reference), and `crossing` (staircase
//! overlap, many same-density near-ties).
//!
//! Two outputs:
//!
//! * the usual harness timing lines (`cargo bench -p ssp-bench --bench
//!   yds_kernel`), one benchmark per (family, n, kernel);
//! * a machine-readable artifact: set `SSP_BENCH_JSON=<path>` in
//!   measurement mode and a self-timed sweep (median of several reps,
//!   plus `yds.peels` / `yds.candidates` deltas per kernel) is written
//!   as JSON to `<path>`. The committed `BENCH_yds.json` at the repo
//!   root is produced this way. Additionally setting
//!   `SSP_BENCH_HISTORY=<path>` appends the same cells as one
//!   `bench_run` line (tagged with the git revision) to the trajectory
//!   file — the input of `speedscale bench report` (see
//!   `ssp_bench::trajectory::emit`).

use ssp_bench::artifact::{Artifact, CellBuilder};
use ssp_bench::harness::{trace_once, BenchmarkId, Criterion};
use ssp_bench::{fixture, trajectory};
use ssp_model::Job;
use ssp_single::yds::{yds, yds_reference};
use ssp_workloads::families;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 4] = [50, 200, 800, 1600];
const FAMILIES: [&str; 3] = ["agreeable", "laminar_nested", "crossing"];

/// Single-machine job list for one (family, n) cell. Families that only
/// exist as direct `Instance` constructors are called as such; the
/// agreeable family goes through the shared deterministic fixture.
fn family_jobs(family: &str, n: usize) -> Vec<Job> {
    match family {
        "agreeable" => fixture("weighted_agreeable", n, 1, 2.0).jobs().to_vec(),
        "laminar_nested" => families::laminar_nested(n, 1, 2.0, 0x9D5 + n as u64)
            .jobs()
            .to_vec(),
        "crossing" => families::crossing(n, 1, 2.0, 0xC0 + n as u64)
            .jobs()
            .to_vec(),
        _ => unreachable!("unknown family {family}"),
    }
}

fn kernels(c: &mut Criterion) {
    for family in FAMILIES {
        let mut g = c.benchmark_group(format!("yds_kernel_{family}"));
        for n in SIZES {
            let jobs = family_jobs(family, n);
            g.bench_with_input(BenchmarkId::new("fast", n), &jobs, |b, jobs| {
                b.iter(|| black_box(yds(jobs, 2.0).energy))
            });
            g.bench_with_input(BenchmarkId::new("reference", n), &jobs, |b, jobs| {
                b.iter(|| black_box(yds_reference(jobs, 2.0).energy))
            });
        }
        g.finish();
    }
}

/// One self-timed cell of the JSON artifact.
fn timed_cell(
    jobs: &[Job],
    kernel: fn(&[Job], f64) -> ssp_single::yds::YdsSolution,
) -> (f64, u64, u64) {
    // Median of an odd number of reps; large instances get fewer reps so
    // the quadratic reference keeps the sweep under a minute.
    let reps = (400_000 / (jobs.len() * jobs.len())).clamp(3, 51) | 1;
    let p0 = ssp_probe::counter_value("yds.peels");
    let c0 = ssp_probe::counter_value("yds.candidates");
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(jobs, 2.0).energy);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let peels = (ssp_probe::counter_value("yds.peels") - p0) / reps as u64;
    let cand = (ssp_probe::counter_value("yds.candidates") - c0) / reps as u64;
    (times[reps / 2], peels, cand)
}

/// Run the self-timed sweep and collect the cells of the JSON artifact.
fn sweep_artifact() -> Artifact {
    let session = ssp_probe::Session::begin();
    let mut cells = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            let jobs = family_jobs(family, n);
            let (fast_ms, fast_peels, fast_cand) = timed_cell(&jobs, yds);
            let (ref_ms, ref_peels, ref_cand) = timed_cell(&jobs, yds_reference);
            let fast_e = yds(&jobs, 2.0).energy;
            let ref_e = yds_reference(&jobs, 2.0).energy;
            assert_eq!(
                fast_e.to_bits(),
                ref_e.to_bits(),
                "kernel energy mismatch on {family} n={n}"
            );
            cells.push(
                CellBuilder::new(family, n)
                    .metric_ms("fast_ms", fast_ms)
                    .metric_ms("ref_ms", ref_ms)
                    .num("speedup", ref_ms / fast_ms, 2)
                    .int("peels", ref_peels.max(fast_peels))
                    .int("fast_candidates", fast_cand)
                    .int("ref_candidates", ref_cand)
                    .num("energy", fast_e, 6)
                    .render(),
            );
        }
    }
    if let Some(s) = session {
        let _ = s.end();
    }
    Artifact {
        bench: "yds_kernel".to_string(),
        alpha: 2.0,
        unit: "ms_median".to_string(),
        cells,
    }
}

fn main() {
    let mut c = Criterion::from_args();
    kernels(&mut c);
    c.final_summary();
    // A regressed cell gets one untimed probe re-run of both kernels, so
    // the attached trace splits "more peels" from "slower peels".
    trajectory::emit(sweep_artifact, |family, n| {
        let jobs = family_jobs(family, n);
        trace_once(&mut || {
            black_box(yds(&jobs, 2.0).energy);
            black_box(yds_reference(&jobs, 2.0).energy);
        })
    });
}
