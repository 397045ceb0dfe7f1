//! # ssp-single
//!
//! Single-processor speed scaling. These algorithms are *substrates* for the
//! multiprocessor results: every non-migratory algorithm in the target paper
//! first partitions jobs among machines and then runs the optimal
//! single-processor algorithm on each machine.
//!
//! * [`mod@yds`] — the optimal offline algorithm of Yao, Demers and Shenker
//!   (FOCS'95): repeated peeling of maximum-intensity *critical intervals*.
//! * [`edf`] — preemptive earliest-deadline-first execution of jobs with
//!   fixed processing times; the standard way to materialize an explicit
//!   schedule once speeds are known.
//! * [`avr`] — the Average Rate online heuristic (each job runs at its
//!   density over its whole span), `α^α 2^(α-1)`-competitive.
//! * [`oa`] — the Optimal Available online algorithm (re-plan optimally at
//!   every event), `α^α`-competitive.
//!
//! All entry points take a job slice plus `alpha` (the machine count of an
//! [`ssp_model::Instance`] is irrelevant on one processor) and produce
//! [`ssp_model::Schedule`]s on a caller-chosen machine index so multiprocessor
//! drivers can place per-machine schedules side by side.

#![warn(missing_docs)]

pub mod avr;
pub mod edf;
pub mod flowtime;
pub mod oa;
pub mod yds;

pub use avr::{avr_energy, avr_schedule};
pub use edf::{edf_feasible, edf_schedule};
pub use flowtime::{
    flow_plus_energy, min_flow_time_budget, weighted_flow_plus_energy, FlowtimeSolution,
};
pub use oa::oa_schedule;
pub use yds::{try_yds_schedule, yds, yds_schedule, YdsSolution};

#[cfg(test)]
mod ordering_tests {
    //! Online-vs-offline sanity: OA and AVR are incomparable with each other,
    //! but both are lower-bounded by YDS and upper-bounded by their
    //! competitive factors. Checked by seeded property cases on random
    //! workloads.
    use crate::{avr_energy, oa_schedule, yds};
    use ssp_model::Job;
    use ssp_prng::{check, Rng};

    fn random_jobs(seeds: &[(f64, f64, f64)]) -> Vec<Job> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &(w, r, len))| Job::new(i as u32, 0.1 + w, r, r + 0.1 + len))
            .collect()
    }

    /// OPT <= OA-energy <= alpha^alpha * OPT and
    /// OPT <= AVR-energy <= alpha^alpha 2^(alpha-1) * OPT.
    #[test]
    fn online_algorithms_within_competitive_bounds() {
        check::cases(48, 0x0A_41, |rng| {
            let seeds: Vec<(f64, f64, f64)> = check::vec_of(rng, 1..10, |r| {
                (
                    r.gen_range(0.0f64..4.0),
                    r.gen_range(0.0f64..10.0),
                    r.gen_range(0.0f64..5.0),
                )
            });
            let alpha = rng.gen_range(1.3f64..3.0);
            let jobs = random_jobs(&seeds);
            let opt = yds(&jobs, alpha).energy;
            let oa = oa_schedule(&jobs, alpha, 0).energy(alpha);
            let avr = avr_energy(&jobs, alpha);
            assert!(opt <= oa * (1.0 + 1e-6) + 1e-9, "OA {oa} below OPT {opt}");
            assert!(
                opt <= avr * (1.0 + 1e-6) + 1e-9,
                "AVR {avr} below OPT {opt}"
            );
            let oa_bound = alpha.powf(alpha);
            let avr_bound = alpha.powf(alpha) * 2.0f64.powf(alpha - 1.0);
            assert!(
                oa <= oa_bound * opt * (1.0 + 1e-6) + 1e-9,
                "OA {oa} exceeds {oa_bound} * OPT {opt}"
            );
            assert!(
                avr <= avr_bound * opt * (1.0 + 1e-6) + 1e-9,
                "AVR {avr} exceeds {avr_bound} * OPT {opt}"
            );
        });
    }
}
