//! # ssp-model
//!
//! Shared data model for *speed scaling on parallel processors*:
//!
//! * [`Job`], [`Instance`] — the input side: jobs with works, release dates and
//!   deadlines, to be run on `m` identical variable-speed processors with power
//!   function `P(s) = s^alpha`.
//! * [`interval`] — the canonical decomposition of the time axis at release
//!   dates / deadlines, and alive-set bookkeeping (`A(j)` in the papers).
//! * [`Schedule`] — the output side: explicit per-processor segments with
//!   speeds, plus an audited validator ([`Schedule::validate`]) and energy
//!   accounting.
//! * [`SpeedAssignment`] — the intermediate object most algorithms produce
//!   first (a constant speed per job; in every optimal schedule each job runs
//!   at one constant speed, by convexity of `s^alpha`).
//! * [`numeric`] — the single place where floating-point tolerances live.
//! * [`resource`] — iteration/deadline budgets ([`Budget`]/[`Meter`]) so the
//!   iterative solvers stay total, and [`SolveError`] in [`error`] as the
//!   workspace-wide typed failure for any solve attempt.
//! * [`io`] — a small line-oriented text format for instances so that
//!   examples/CLI can save and load workloads without extra dependencies.
//! * [`arrival`] — the same text format read/written as a release-ordered
//!   *stream* (O(1) memory), the input side of the online engine.
//!
//! Every algorithm crate in the workspace (single-processor YDS/AVR/OA, the
//! migratory BAL solver, the non-migratory SPAA'07 algorithms) consumes and
//! produces these types, so that *validity* and *energy* are always judged by
//! one implementation.

#![warn(missing_docs)]

pub mod analysis;
pub mod arrival;
pub mod error;
pub mod instance;
pub mod interval;
pub mod io;
pub mod job;
pub mod numeric;
pub mod par;
pub mod quantize;
pub mod render;
pub mod resource;
pub mod schedule;
pub mod speed;
pub mod svg;

pub use arrival::{ArrivalReader, ArrivalWriter, TraceHeader};
pub use error::{ModelError, SolveError, ValidationError};
pub use instance::Instance;
pub use interval::{IntervalSet, Timeline};
pub use job::{Job, JobId};
pub use resource::{Budget, Meter};
pub use schedule::{Schedule, ScheduleStats, Segment};
pub use speed::SpeedAssignment;

/// Time instants and durations. All quantities in the model are `f64`; see
/// [`numeric`] for the comparison policy.
pub type Time = f64;

#[cfg(test)]
mod lib_tests {
    //! Cross-module smoke tests; the real suites live next to each module.
    use crate::{Instance, Job};

    #[test]
    fn facade_types_compose() {
        let inst = Instance::new(
            vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 2.0, 0.0, 2.0)],
            2,
            2.0,
        )
        .unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.machines(), 2);
    }
}
