//! # ssp-exper
//!
//! The experiment harness: every table and figure in `EXPERIMENTS.md` is
//! regenerated by a runner in [`exps`]. The target paper is a theory paper
//! (no systems evaluation), so the experiments are *claim-driven*: each of
//! its results (R1 optimality, R2 hardness + approximation, R3
//! approximation, plus the polynomial-complexity and extension claims)
//! becomes a measured table against the certified migratory lower bound
//! and/or the exact exponential solver.
//!
//! Structure:
//! * [`table`] — lightweight result tables with Markdown and CSV emitters.
//! * [`par`] — a scoped-thread parallel map for seed/parameter sweeps (no
//!   external thread-pool dependency; plain `std::thread::scope`).
//! * [`exps`] — one module per experiment, all driven by a [`RunCfg`].
//!
//! Binary: `cargo run --release -p ssp-exper -- <exp1|...|exp25|all|list>
//! [--quick] [--seed N] [--csv DIR]`. The binary wraps each experiment in
//! an `ssp-probe` session and reports per-experiment wall time and solver
//! counters as a final `telemetry` table (`timings.csv` under `--csv`).

#![warn(missing_docs)]

pub mod exps;
pub mod par;
pub mod table;

pub use table::Table;

/// Configuration shared by all experiment runners.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Reduced sizes/seed counts for CI and tests.
    pub quick: bool,
    /// Master seed; every instance seed is derived via `subseed`.
    pub seed: u64,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            quick: false,
            seed: 0xC0FFEE,
        }
    }
}

impl RunCfg {
    /// Quick configuration (used by tests).
    pub fn quick() -> Self {
        RunCfg {
            quick: true,
            ..Default::default()
        }
    }

    /// Pick between a full and a quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// An experiment: a stable id (`exp1`…), the claim it reproduces, and its
/// runner.
pub struct Experiment {
    /// Stable identifier (`exp1`..`exp20`; `exp16` is the fault-injection
    /// gauntlet in the harness test suite, so it has no registry entry).
    pub id: &'static str,
    /// What it reproduces, one line.
    pub title: &'static str,
    /// The runner producing one or more result tables.
    pub run: fn(&RunCfg) -> Vec<Table>,
}

/// The registry, in `EXPERIMENTS.md` order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "exp1",
            title: "R1: round-robin optimality on unit-work agreeable instances",
            run: exps::exp1::run,
        },
        Experiment {
            id: "exp2",
            title: "R2a: NP-hardness regime — exact-search growth and heuristic gaps",
            run: exps::exp2::run,
        },
        Experiment {
            id: "exp3",
            title: "R2b: unit-work arbitrary-deadline approximation vs 2(2-1/m)^alpha",
            run: exps::exp3::run,
        },
        Experiment {
            id: "exp4",
            title: "R3: agreeable arbitrary-work approximation vs alpha^alpha 2^{4 alpha}",
            run: exps::exp4::run,
        },
        Experiment {
            id: "exp5",
            title: "Context: the value of migration (non-migratory OPT vs migratory OPT)",
            run: exps::exp5::run,
        },
        Experiment {
            id: "exp6",
            title: "Complexity: runtime and flow-count scaling of BAL and RR-YDS",
            run: exps::exp6::run,
        },
        Experiment {
            id: "exp7",
            title: "Extension: energy-budget makespan Pareto frontier (MBAL)",
            run: exps::exp7::run,
        },
        Experiment {
            id: "exp8",
            title: "Online baselines: AVR-m and OA-m competitive ratios",
            run: exps::exp8::run,
        },
        Experiment {
            id: "exp9",
            title: "Certificates: KKT optimality checks and cross-validation",
            run: exps::exp9::run,
        },
        Experiment {
            id: "exp10",
            title: "Ablations: RelaxRound rounding order; ClassifiedRR class base",
            run: exps::exp10::run,
        },
        Experiment {
            id: "exp11",
            title: "Extension: discrete DVFS levels — two-level-mixing overhead",
            run: exps::exp11::run,
        },
        Experiment {
            id: "exp12",
            title: "Extension: bounded maximum speed — throughput under a cap",
            run: exps::exp12::run,
        },
        Experiment {
            id: "exp13",
            title: "Multicriteria context: flow-time vs energy Pareto frontier",
            run: exps::exp13::run,
        },
        Experiment {
            id: "exp14",
            title: "Adversarial online: AVR on the geometric release cascade",
            run: exps::exp14::run,
        },
        Experiment {
            id: "exp15",
            title: "Extension: maintenance windows — energy premium of downtime",
            run: exps::exp15::run,
        },
        // exp16 is the fault-injection gauntlet; it lives in the harness
        // test suite (see EXPERIMENTS.md), not the registry.
        Experiment {
            id: "exp17",
            title: "Probe overhead: enabled vs disabled sessions on BAL and Dinic",
            run: exps::exp17::run,
        },
        Experiment {
            id: "exp18",
            title: "Warm-start parametric max-flow: cold vs warm bisection work",
            run: exps::exp18::run,
        },
        Experiment {
            id: "exp19",
            title: "Oracle-backed local search: reference peel vs YdsEval transcripts",
            run: exps::exp19::run,
        },
        Experiment {
            id: "exp20",
            title: "Histogram coherence and allocation attribution across all layers",
            run: exps::exp20::run,
        },
        Experiment {
            id: "exp21",
            title: "Soak/chaos: the solve service under mixed hostile traffic",
            run: exps::exp21::run,
        },
        Experiment {
            id: "exp22",
            title: "Online arrivals: streaming dispatch at scale + empirical competitive ratios",
            run: exps::exp22::run,
        },
        Experiment {
            id: "exp24",
            title: "WAP kernel dispatch: sweep fast path vs generic flow",
            run: exps::exp24::run,
        },
        Experiment {
            id: "exp25",
            title: "Perf trajectory: history-calibrated bands + attached trace diffs",
            run: exps::exp25::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let reg = registry();
        // exp16 (the fault-injection gauntlet) runs under `cargo test`, not
        // the registry, and exp23 is retired, so the ids are exp1..exp15,
        // exp17..exp22, exp24 and exp25.
        let ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        let expected: Vec<String> = (1..=15)
            .map(|k| format!("exp{k}"))
            .chain([
                "exp17".to_string(),
                "exp18".to_string(),
                "exp19".to_string(),
                "exp20".to_string(),
                "exp21".to_string(),
                "exp22".to_string(),
                "exp24".to_string(),
                "exp25".to_string(),
            ])
            .collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn cfg_pick() {
        assert_eq!(RunCfg::quick().pick(100, 5), 5);
        assert_eq!(RunCfg::default().pick(100, 5), 100);
    }
}
