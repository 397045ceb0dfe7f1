//! Error types for model construction and schedule validation.

use std::fmt;

/// Errors raised while *constructing* model objects (instances, jobs,
/// schedules) from raw data.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ModelError {
    /// A job's work was not strictly positive.
    NonPositiveWork { job: u32, work: f64 },
    /// A job's deadline was not strictly after its release date.
    EmptyWindow {
        job: u32,
        release: f64,
        deadline: f64,
    },
    /// A time/work field was NaN or infinite.
    NotFinite {
        job: u32,
        field: &'static str,
        value: f64,
    },
    /// Two jobs share an id.
    DuplicateJobId { job: u32 },
    /// The machine count was zero.
    NoMachines,
    /// The power exponent `alpha` was not > 1.
    BadAlpha { alpha: f64 },
    /// The instance has no jobs where at least one is required.
    Empty,
    /// Parse failure in the text instance format.
    Parse { line: usize, message: String },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NonPositiveWork { job, work } => {
                write!(f, "job {job}: work must be > 0, got {work}")
            }
            ModelError::EmptyWindow {
                job,
                release,
                deadline,
            } => {
                write!(
                    f,
                    "job {job}: deadline {deadline} must exceed release {release}"
                )
            }
            ModelError::NotFinite { job, field, value } => {
                write!(f, "job {job}: {field} must be finite, got {value}")
            }
            ModelError::DuplicateJobId { job } => write!(f, "duplicate job id {job}"),
            ModelError::NoMachines => write!(f, "instance needs at least one machine"),
            ModelError::BadAlpha { alpha } => {
                write!(f, "power exponent alpha must be > 1, got {alpha}")
            }
            ModelError::Empty => write!(f, "instance has no jobs"),
            ModelError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Violations found by [`crate::Schedule::validate`]. The validator reports the
/// *first* violation it finds per category, with enough context to debug the
/// producing algorithm.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ValidationError {
    /// A segment refers to a job id not present in the instance.
    UnknownJob { job: u32 },
    /// A segment refers to a machine index `>= m`.
    BadMachine { machine: usize, machines: usize },
    /// A segment has `end <= start`.
    EmptySegment { job: u32, start: f64, end: f64 },
    /// A segment has nonpositive or non-finite speed.
    BadSpeed { job: u32, speed: f64 },
    /// A segment runs outside the job's `[release, deadline]` window.
    OutsideWindow {
        job: u32,
        start: f64,
        end: f64,
        release: f64,
        deadline: f64,
    },
    /// Two segments overlap on the same machine.
    MachineOverlap {
        machine: usize,
        job_a: u32,
        job_b: u32,
        at: f64,
    },
    /// Two segments of the same job overlap in time (parallel self-execution),
    /// possibly on different machines.
    SelfOverlap { job: u32, at: f64 },
    /// Total processed work of a job differs from its required work.
    WorkMismatch {
        job: u32,
        scheduled: f64,
        required: f64,
    },
    /// A job declared non-migratory constraints runs on several machines.
    Migrated {
        job: u32,
        machine_a: usize,
        machine_b: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownJob { job } => {
                write!(f, "segment references unknown job {job}")
            }
            ValidationError::BadMachine { machine, machines } => {
                write!(
                    f,
                    "segment on machine {machine} but instance has {machines}"
                )
            }
            ValidationError::EmptySegment { job, start, end } => {
                write!(f, "job {job}: empty segment [{start}, {end}]")
            }
            ValidationError::BadSpeed { job, speed } => {
                write!(f, "job {job}: bad speed {speed}")
            }
            ValidationError::OutsideWindow {
                job,
                start,
                end,
                release,
                deadline,
            } => write!(
                f,
                "job {job}: segment [{start}, {end}] outside window [{release}, {deadline}]"
            ),
            ValidationError::MachineOverlap {
                machine,
                job_a,
                job_b,
                at,
            } => write!(
                f,
                "machine {machine}: jobs {job_a} and {job_b} overlap at time {at}"
            ),
            ValidationError::SelfOverlap { job, at } => {
                write!(
                    f,
                    "job {job} runs on two machines simultaneously at time {at}"
                )
            }
            ValidationError::WorkMismatch {
                job,
                scheduled,
                required,
            } => write!(
                f,
                "job {job}: scheduled work {scheduled} != required {required}"
            ),
            ValidationError::Migrated {
                job,
                machine_a,
                machine_b,
            } => write!(
                f,
                "job {job} migrates between machines {machine_a} and {machine_b}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// The total error type of a solve attempt: every way any algorithm in the
/// workspace can fail to deliver a valid schedule, as data instead of a
/// panic. Produced by the fallible solver entry points and by the solve
/// harness; a solver that cannot finish returns one of these rather than
/// aborting the process. Running out of a [`crate::resource::Budget`] is
/// not a failure: the solver returns its best-so-far result with a marker.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The instance violates a precondition of the requested algorithm
    /// (e.g. RR requires unit works and agreeable deadlines).
    Precondition {
        /// The algorithm whose precondition failed.
        algorithm: &'static str,
        /// Which precondition failed.
        message: String,
    },
    /// A numeric procedure lost its invariants (empty bisection bracket,
    /// non-finite intermediate value, flow shortfall beyond tolerance).
    Numeric {
        /// What went numerically wrong.
        message: String,
    },
    /// The algorithm panicked and the panic was caught at the harness
    /// boundary. Always a bug in the solver, but reported, not fatal.
    InternalPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The instance itself is malformed ([`ModelError`]).
    Model(ModelError),
    /// The solver returned a schedule that failed post-validation
    /// ([`ValidationError`]).
    InvalidSchedule(ValidationError),
    /// The requested algorithm name is not registered.
    UnknownAlgorithm {
        /// The unrecognized name.
        name: String,
    },
}

impl SolveError {
    /// Short stable machine-readable tag for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::Precondition { .. } => "precondition",
            SolveError::Numeric { .. } => "numeric",
            SolveError::InternalPanic { .. } => "internal-panic",
            SolveError::Model(_) => "model",
            SolveError::InvalidSchedule(_) => "invalid-schedule",
            SolveError::UnknownAlgorithm { .. } => "unknown-algorithm",
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Precondition { algorithm, message } => {
                write!(f, "{algorithm} precondition violated: {message}")
            }
            SolveError::Numeric { message } => write!(f, "numeric failure: {message}"),
            SolveError::InternalPanic { message } => {
                write!(f, "solver panicked: {message}")
            }
            SolveError::Model(e) => write!(f, "invalid instance: {e}"),
            SolveError::InvalidSchedule(e) => {
                write!(f, "solver produced an invalid schedule: {e}")
            }
            SolveError::UnknownAlgorithm { name } => write!(f, "unknown algorithm '{name}'"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Model(e) => Some(e),
            SolveError::InvalidSchedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SolveError {
    fn from(e: ModelError) -> Self {
        SolveError::Model(e)
    }
}

impl From<ValidationError> for SolveError {
    fn from(e: ValidationError) -> Self {
        SolveError::InvalidSchedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::EmptyWindow {
            job: 7,
            release: 3.0,
            deadline: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("job 7") && s.contains('3') && s.contains('2'));

        let v = ValidationError::WorkMismatch {
            job: 1,
            scheduled: 0.5,
            required: 1.0,
        };
        assert!(v.to_string().contains("0.5"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ModelError::NoMachines, ModelError::NoMachines);
        assert_ne!(
            ValidationError::UnknownJob { job: 1 },
            ValidationError::UnknownJob { job: 2 }
        );
    }

    #[test]
    fn solve_error_kinds_and_sources() {
        let e = SolveError::from(ModelError::NoMachines);
        assert_eq!(e.kind(), "model");
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("at least one machine"));

        let v = SolveError::from(ValidationError::UnknownJob { job: 3 });
        assert_eq!(v.kind(), "invalid-schedule");
        assert!(v.to_string().contains("job 3"));
    }
}
