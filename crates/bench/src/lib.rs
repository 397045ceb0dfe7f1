//! # ssp-bench
//!
//! Benchmarks for the reproduction, built on the in-repo Criterion-style
//! timing shim in [`harness`] (the workspace carries no external
//! dependencies so it builds offline). Each bench target regenerates the
//! computational kernel behind one `EXPERIMENTS.md` artifact:
//!
//! | bench target | artifact | kernel |
//! |--------------|----------|--------|
//! | `tables` / `exp1_rr_optimal` | Table 1 | RR assignment + per-machine YDS and the exact solver |
//! | `tables` / `exp2_hardness` | Table 2 | exact branch-and-bound on the gadgets |
//! | `tables` / `exp3_unit_approx` | Table 3 / Fig 1 | RelaxRound (BAL relaxation + rounding) |
//! | `tables` / `exp4_agreeable_approx` | Table 4 / Fig 2 | ClassifiedRR |
//! | `tables` / `exp5_migration_gap` | Table 5 | exact vs BAL on small instances |
//! | `scaling` / `bal_n*`, `rr_yds_n*` | Figure 3 | BAL and RR-YDS as `n` doubles |
//! | `tables` / `exp7_mbal` | Figure 4 | MBAL budget probe |
//! | `tables` / `exp8_online` | Table 6 | AVR-m and OA-m |
//! | `tables` / `exp9_certify` | Table 7 | BAL + KKT certificate |
//! | `micro` / * | — | max-flow, YDS, interval decomposition primitives |
//!
//! The targets live under `benches/`. This library crate hosts their
//! shared fixtures and the bench-data layer around them: the artifact
//! writer ([`artifact`]), the one reader of what it writes ([`benchdata`],
//! also behind `speedscale bench-diff`), the trajectory verdict and report
//! ([`benchreport`], behind `speedscale bench report`), and the in-run
//! check and artifact emission every measured bench ends with
//! ([`trajectory`]).
//!
//! Passing `--probe` after `--bench` (or setting `SSP_BENCH_PROBE=1`)
//! attaches `ssp-probe` counter deltas to each benchmark: one extra
//! untimed iteration runs inside a probe session and its solver counters
//! (max-flow runs, pushes/relabels, bisection steps, …) print under the
//! timing line, so a slower number can be split into "more work" vs
//! "slower work" without re-running anything. See `docs/OBSERVABILITY.md`
//! at the repository root.

#![warn(missing_docs)]

pub mod artifact;
pub mod benchdata;
pub mod benchreport;
pub mod harness;
pub mod trajectory;

use ssp_model::Instance;
use ssp_workloads::{families, subseed};

/// Deterministic fixture instances so Criterion compares like with like
/// across runs.
pub fn fixture(family: &str, n: usize, m: usize, alpha: f64) -> Instance {
    let spec = match family {
        "unit_agreeable" => families::unit_agreeable(n, m, alpha),
        "unit_arbitrary" => families::unit_arbitrary(n, m, alpha),
        "weighted_agreeable" => families::weighted_agreeable(n, m, alpha),
        "bursty" => families::bursty(n, m, alpha),
        _ => families::general(n, m, alpha),
    };
    spec.gen(subseed(0xBE9C, n as u64 * 31 + m as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(
            fixture("general", 20, 2, 2.0),
            fixture("general", 20, 2, 2.0)
        );
        assert_eq!(fixture("bursty", 10, 4, 2.0).len(), 10);
    }
}
