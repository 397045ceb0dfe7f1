//! EXP-3 — "Table 3 / Figure 1": approximation quality in the unit-work
//! arbitrary-deadline regime against the paper's `2(2-1/m)^α` factor (R2).
//!
//! Ratios are measured against the **certified migratory lower bound** (BAL;
//! migration only helps), so every reported ratio *upper-bounds* the true
//! approximation ratio. The reproduction claim is shape-level: all ratios
//! `>= 1`, all far below the analytic bound, RelaxRound competitive with the
//! best baseline, and the bound column growing in both `m` and `α` while the
//! measured ratios stay flat — i.e. the analysis, not the algorithm, carries
//! the `m`/`α` dependence.

use crate::par::par_map;
use crate::table::{max, mean, Table};
use crate::RunCfg;
use ssp_core::list::{least_loaded, marginal_energy_greedy};
use ssp_core::relax::{round_relaxation, RoundingOrder};
use ssp_core::rr::rr_assignment;
use ssp_migratory::bal::bal;
use ssp_workloads::{families, subseed};

/// Run EXP-3.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Table 3 — unit works, arbitrary windows: energy ratio to migratory LB",
        &[
            "m",
            "alpha",
            "bound 2(2-1/m)^a",
            "RelaxRound mean",
            "RelaxRound max",
            "RR mean",
            "LeastLoaded mean",
            "Greedy mean",
        ],
    );
    let n = cfg.pick(100usize, 24);
    let seeds = cfg.pick(10usize, 2);
    let ms: Vec<usize> = cfg.pick(vec![2, 4, 8, 16], vec![2, 4]);
    let alphas: Vec<f64> = cfg.pick(vec![1.5, 2.0, 2.5, 3.0], vec![2.0, 3.0]);
    for &m in &ms {
        for &alpha in &alphas {
            let items: Vec<u64> = (0..seeds as u64).collect();
            let rows = par_map(items, |&s| {
                let inst = families::unit_arbitrary(n, m, alpha).gen(subseed(
                    cfg.seed ^ 0x31,
                    s * 31 + m as u64 * 7 + (alpha * 10.0) as u64,
                ));
                let sol = bal(&inst);
                let lb = sol.energy;
                let order = RoundingOrder::EarliestDeadline;
                (
                    super::ratio_of(&inst, &round_relaxation(&inst, &sol.speeds, order), lb),
                    super::ratio_of(&inst, &rr_assignment(&inst), lb),
                    super::ratio_of(&inst, &least_loaded(&inst), lb),
                    super::ratio_of(&inst, &marginal_energy_greedy(&inst), lb),
                )
            });
            let relax: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let rr: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let ll: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let greedy: Vec<f64> = rows.iter().map(|r| r.3).collect();
            let bound = super::bound_r2(m, alpha);
            assert!(
                relax.iter().all(|&r| r >= 1.0 - 1e-6),
                "ratio below 1 — the lower bound is not a lower bound?"
            );
            assert!(
                max(&relax) <= bound,
                "RelaxRound exceeded the paper factor: {} > {bound} (m={m}, alpha={alpha})",
                max(&relax)
            );
            t.push(vec![
                m.into(),
                alpha.into(),
                bound.into(),
                mean(&relax).into(),
                max(&relax).into(),
                mean(&rr).into(),
                mean(&ll).into(),
                mean(&greedy).into(),
            ]);
        }
    }
    vec![t]
}
