//! # ssp-migratory
//!
//! The **migratory** multiprocessor speed-scaling optimum and its supporting
//! machinery. In the migratory model a preempted job may resume on any
//! processor (never running on two at once); the optimal energy is therefore
//! a *lower bound* on the non-migratory optimum studied by the target paper,
//! and this crate is the workspace's certified lower-bound oracle.
//!
//! Contents:
//!
//! * [`wap`] — the *Work Assignment Problem*: given per-job time demands and
//!   per-interval processor-time capacities, decide feasibility by a max-flow
//!   on the three-layer network `source → jobs → intervals → sink`, and read
//!   back per-interval time allotments.
//! * [`mcnaughton`] — McNaughton's wrap-around rule, which turns per-interval
//!   allotments into an explicit schedule with at most `m_j` processors and
//!   no parallel self-execution.
//! * [`mod@bal`] — the optimal algorithm: peel *critical speeds* one binary
//!   search at a time, identifying critical jobs and saturated intervals from
//!   a minimum cut (residual reachability) of the slightly-infeasible flow
//!   network.
//! * [`kkt`] — a machine-checkable optimality certificate: the KKT conditions
//!   of the convex program are necessary **and sufficient**, so a schedule
//!   that passes [`kkt::certify`] is optimal (up to numeric tolerance).
//! * [`mod@mbal`] — the extension minimizing makespan under an energy budget by
//!   an outer binary search over a common deadline.
//!
//! ```rust
//! use ssp_model::{Instance, Job};
//! use ssp_migratory::bal::bal;
//!
//! let inst = Instance::new(
//!     vec![Job::new(0, 4.0, 0.0, 2.0), Job::new(1, 1.0, 0.0, 2.0)],
//!     2,
//!     2.0,
//! ).unwrap();
//! let sol = bal(&inst);
//! // Certified optimal energy for the migratory relaxation:
//! assert!(sol.energy > 0.0);
//! let schedule = sol.schedule(&inst);
//! schedule.validate(&inst, Default::default()).unwrap();
//! ```

#![warn(missing_docs)]

pub mod bal;
pub mod bounded;
pub mod downtime;
pub mod kkt;
pub mod mbal;
pub mod mcnaughton;
pub mod wap;

pub use bal::{bal, BalSolution};
pub use bounded::{bal_bounded, min_peak_speed};
pub use downtime::{bal_with_downtime, Downtime};
pub use kkt::{certify, KktViolation};
pub use mbal::{mbal, MbalSolution};
pub use wap::{schedule_with_processing_times, Wap};
