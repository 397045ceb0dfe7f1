//! # speedscale
//!
//! Facade crate for the *Speed Scaling on Parallel Processors* reproduction:
//! energy-minimal deadline scheduling on `m` identical variable-speed
//! processors with power function `s^alpha`.
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`model`] — jobs, instances, schedules, validation, energy accounting.
//! * [`maxflow`] — the Dinic max-flow / min-cut engine used by feasibility
//!   tests and the migratory optimum.
//! * [`single`] — single-processor algorithms (YDS, AVR, OA, BKP).
//! * [`migratory`] — the migratory optimum (BAL), the makespan-under-budget
//!   extension (MBAL), and the KKT optimality certificate.
//! * [`core`] — the paper's non-migratory algorithms: optimal round-robin for
//!   unit agreeable instances, approximation algorithms, exact solver and
//!   NP-hardness gadgets.
//! * [`workloads`] — seeded workload generators.
//! * [`exper`] — the experiment harness regenerating every table/figure of
//!   `EXPERIMENTS.md`.
//! * [`prng`] — dependency-free seeded randomness (the workspace's `rand`
//!   replacement, so everything builds offline).
//! * [`probe`] — zero-dependency observability: phase spans, counters and
//!   JSONL telemetry traces (see `docs/OBSERVABILITY.md`).
//! * [`harness`] — the panic-free solve harness: typed [`model::SolveError`]s,
//!   the degradation chain, fault injection, and certified lower bounds.
//!
//! ## Quickstart
//!
//! ```rust
//! use speedscale::model::{Instance, Job};
//! use speedscale::core::rr::rr_yds;
//! use speedscale::model::schedule::ValidationOptions;
//!
//! // Four unit jobs with agreeable deadlines on two processors, alpha = 2.
//! let inst = Instance::new(
//!     vec![
//!         Job::new(0, 1.0, 0.0, 2.0),
//!         Job::new(1, 1.0, 0.5, 2.5),
//!         Job::new(2, 1.0, 1.0, 3.0),
//!         Job::new(3, 1.0, 1.5, 3.5),
//!     ],
//!     2,
//!     2.0,
//! )
//! .unwrap();
//!
//! // Round-robin + YDS is *optimal* on unit-work agreeable instances.
//! let schedule = rr_yds(&inst);
//! let stats = schedule.validate(&inst, ValidationOptions::non_migratory()).unwrap();
//! assert!(stats.energy > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use ssp_core as core;
pub use ssp_exper as exper;
pub use ssp_harness as harness;
pub use ssp_maxflow as maxflow;
pub use ssp_migratory as migratory;
pub use ssp_model as model;
pub use ssp_prng as prng;
pub use ssp_probe as probe;
pub use ssp_single as single;
pub use ssp_workloads as workloads;
