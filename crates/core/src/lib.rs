//! # ssp-core
//!
//! The target paper's contribution: **non-migratory** multiprocessor speed
//! scaling. Jobs have works, release dates and deadlines; each job must run
//! entirely on one of `m` identical speed-scalable processors (preemption on
//! that processor is allowed); minimize total energy under power `s^α`.
//!
//! Because for a *fixed* job→machine assignment the machines decouple and the
//! single-processor optimum (YDS) is known, every algorithm here is an
//! assignment policy followed by per-machine YDS:
//!
//! | module | algorithm | regime | guarantee |
//! |--------|-----------|--------|-----------|
//! | [`rr`] | sorted round-robin | unit works + agreeable deadlines | **optimal** (paper R1) |
//! | [`relax`] | migratory relaxation + list rounding | unit works, arbitrary windows | `2(2-1/m)^α`-approx regime (paper R2; NP-hard) |
//! | [`classified`] | power-of-two work classes, RR per class | arbitrary works + agreeable deadlines | `α^α 2^{4α}`-approx regime (paper R3) |
//! | [`list`] | least-loaded / EDF list baselines | any | heuristics for comparison |
//! | [`exact`] | assignment enumeration (restricted growth) + pruning | any, `n ≲ 12` | optimal (exponential) |
//! | [`hardness`] | adversarial gadget families | unit works, arbitrary windows | stress instances for the NP-hard regime |
//! | [`online`] | AVR/OA lifted to `m` machines | online | baselines (migratory online) |
//!
//! The approximation-factor *measurements* (against the certified migratory
//! lower bound from `ssp-migratory`) are produced by the `ssp-exper` harness;
//! see `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod assignment;
pub mod budget;
pub mod classified;
pub mod decompose;
pub mod eval;
pub mod exact;
pub mod hardness;
pub mod list;
pub mod local_search;
pub mod online;
pub mod relax;
pub mod rr;
pub mod throughput;

pub use assignment::{assignment_energy, assignment_schedule, try_assignment_schedule, Assignment};
pub use budget::{makespan_under_budget, InnerSolver};
pub use classified::classified_rr;
pub use decompose::{decompose, exact_decomposed};
pub use eval::{Candidate, LiveEval, YdsEval};
pub use exact::exact_nonmigratory;
pub use list::{least_loaded, marginal_energy_greedy};
pub use local_search::{improve, LocalSearchOptions};
pub use online::dispatch_oa_nonmigratory;
pub use relax::relax_round;
pub use rr::{rr_assignment, rr_yds};
pub use throughput::{max_throughput_exact, max_throughput_greedy};
