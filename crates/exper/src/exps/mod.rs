//! Experiment runners, one module per `EXPERIMENTS.md` artifact.

pub mod exp1;
pub mod exp10;
pub mod exp11;
pub mod exp12;
pub mod exp13;
pub mod exp14;
pub mod exp15;
pub mod exp17;
pub mod exp19;
pub mod exp2;
pub mod exp20;
pub mod exp21;
pub mod exp22;
pub mod exp24;
pub mod exp25;
pub mod exp3;
pub mod exp4;
pub mod exp5;
pub mod exp6;
pub mod exp7;
pub mod exp8;
pub mod exp9;

use ssp_core::assignment::{assignment_energy, Assignment};
use ssp_model::Instance;

/// Energy ratio of an assignment against a reference energy.
pub(crate) fn ratio_of(instance: &Instance, assignment: &Assignment, reference: f64) -> f64 {
    assignment_energy(instance, assignment) / reference
}

/// The paper's R2 approximation factor.
pub(crate) fn bound_r2(m: usize, alpha: f64) -> f64 {
    2.0 * (2.0 - 1.0 / m as f64).powf(alpha)
}

/// The paper's R3 approximation factor.
pub(crate) fn bound_r3(alpha: f64) -> f64 {
    alpha.powf(alpha) * 2.0f64.powf(4.0 * alpha)
}

#[cfg(test)]
mod smoke {
    //! Every experiment must run to completion in quick mode and produce
    //! non-empty tables. (Correctness of the numbers is asserted inside the
    //! individual runners and in the crates' own tests.)
    use crate::{registry, RunCfg};

    #[test]
    fn all_experiments_run_in_quick_mode() {
        let cfg = RunCfg::quick();
        for exp in registry() {
            let tables = (exp.run)(&cfg);
            assert!(!tables.is_empty(), "{} produced no tables", exp.id);
            for t in &tables {
                assert!(!t.rows.is_empty(), "{}: table '{}' empty", exp.id, t.title);
                // Emitters must not panic.
                let _ = t.to_markdown();
                let _ = t.to_csv();
            }
        }
    }
}
