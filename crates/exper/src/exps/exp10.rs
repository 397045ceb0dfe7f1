//! EXP-10 — "Table 8": ablations of the design choices called out in
//! DESIGN.md.
//!
//! 1. **Rounding order** inside RelaxRound (the `(2−1/m)` list step): EDF
//!    (default) vs release order vs longest-relaxed-time-first.
//! 2. **Classification base** inside ClassifiedRR: base 2 (the paper's
//!    power-of-two classes) vs finer (1.3) and coarser (8, 1e9 ≈ plain RR)
//!    classes.
//!
//! Ratios against the migratory lower bound, as in EXP-3/4.

use crate::par::par_map;
use crate::table::{max, mean, Table};
use crate::RunCfg;
use ssp_core::classified::classified_assignment_with_base;
use ssp_core::relax::{round_relaxation, RoundingOrder};
use ssp_migratory::bal::bal;
use ssp_workloads::{families, subseed};

/// Run EXP-10.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let n = cfg.pick(80usize, 16);
    let seeds = cfg.pick(12usize, 2);
    let (m, alpha) = (4usize, 2.5f64);

    // Ablation 1: rounding order (unit arbitrary — the R2 regime).
    let mut t1 = Table::new(
        "Table 8a — RelaxRound rounding-order ablation (unit arbitrary, m=4, alpha=2.5)",
        &["order", "mean ratio", "max ratio"],
    );
    for (name, order) in [
        (
            "earliest-deadline (default)",
            RoundingOrder::EarliestDeadline,
        ),
        ("release order", RoundingOrder::Release),
        (
            "longest-relaxed-time first",
            RoundingOrder::LongestRelaxedTime,
        ),
    ] {
        let items: Vec<u64> = (0..seeds as u64).collect();
        let ratios = par_map(items, |&s| {
            let inst = families::unit_arbitrary(n, m, alpha).gen(subseed(cfg.seed ^ 0x10A, s));
            let sol = bal(&inst);
            super::ratio_of(
                &inst,
                &round_relaxation(&inst, &sol.speeds, order),
                sol.energy,
            )
        });
        assert!(ratios.iter().all(|&r| r >= 1.0 - 1e-6));
        t1.push(vec![name.into(), mean(&ratios).into(), max(&ratios).into()]);
    }

    // Ablation 2: classification base (weighted agreeable — the R3 regime).
    let mut t2 = Table::new(
        "Table 8b — ClassifiedRR class-base ablation (weighted agreeable, m=4, alpha=2.5)",
        &["class base", "mean ratio", "max ratio"],
    );
    for (name, base) in [
        ("1.3 (fine classes)", 1.3),
        ("2 (paper's choice)", 2.0),
        ("8 (coarse classes)", 8.0),
        ("1e9 (single class = plain RR)", 1e9),
    ] {
        let items: Vec<u64> = (0..seeds as u64).collect();
        let ratios = par_map(items, |&s| {
            let inst = families::weighted_agreeable(n, m, alpha).gen(subseed(cfg.seed ^ 0x10B, s));
            let lb = bal(&inst).energy;
            super::ratio_of(&inst, &classified_assignment_with_base(&inst, base), lb)
        });
        assert!(ratios.iter().all(|&r| r >= 1.0 - 1e-6));
        t2.push(vec![name.into(), mean(&ratios).into(), max(&ratios).into()]);
    }

    vec![t1, t2]
}
