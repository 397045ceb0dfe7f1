//! Resource budgets and cooperative cancellation for iterative solvers.
//!
//! The expensive loops in the workspace — BAL's critical-speed peeling, the
//! bisections in [`crate::numeric`], the assignment local search — must stay
//! total even on adversarial inputs. A [`Budget`] caps how much work such a
//! loop may do (iteration count, wall-clock time, or both); a [`Meter`] is
//! the running counter a loop charges as it goes. Exhaustion is *not* an
//! error by itself: loops are expected to stop charging, keep their best
//! feasible answer so far, and report the exhaustion upward (typically as a
//! [`crate::error::SolveError::BudgetExhausted`] marker or a flag on the
//! result), so a capped run still yields a valid, merely suboptimal result.
//!
//! Long-running callers (the `ssp serve` daemon, one-shot solves with
//! `--timeout-ms`) additionally need *external* interruption: a [`Budget`]
//! can carry an absolute [`Budget::deadline`] (shared across every solver
//! phase of one request, unlike the per-meter `max_time`) and a
//! [`CancelToken`] flipped from another thread. Both are checked by every
//! [`Meter::charge`], so any budget-aware loop doubles as a cooperative
//! cancellation checkpoint; exhaustion reports as the `"deadline"` /
//! `"cancelled"` resources and follows the same best-so-far contract.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative cancellation flag. Cheap to clone (one `Arc`) and
/// cheap to poll (one relaxed atomic load); once cancelled it stays
/// cancelled. Attach it to a [`Budget`] so every metered loop observes it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Caps on the work an iterative solver may perform. `None` means
/// unlimited in that dimension.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum number of charged iterations.
    pub max_iterations: Option<u64>,
    /// Maximum wall-clock time from the first charge.
    pub max_time: Option<Duration>,
    /// Absolute wall-clock deadline. Unlike `max_time` (which is relative to
    /// each meter's first charge) a deadline is shared by every meter derived
    /// from the budget, so one per-request deadline bounds a whole chain of
    /// solver phases.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, polled on every charge.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No caps: meters never exhaust.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Cap iterations only.
    pub fn iterations(n: u64) -> Self {
        Budget {
            max_iterations: Some(n),
            ..Budget::default()
        }
    }

    /// Cap wall-clock time only.
    pub fn time(d: Duration) -> Self {
        Budget {
            max_time: Some(d),
            ..Budget::default()
        }
    }

    /// Add/replace a wall-clock cap on an existing budget.
    pub fn with_time(self, d: Duration) -> Self {
        Budget {
            max_time: Some(d),
            ..self
        }
    }

    /// Add/replace an absolute deadline on an existing budget.
    pub fn with_deadline(self, at: Instant) -> Self {
        Budget {
            deadline: Some(at),
            ..self
        }
    }

    /// Attach a cancellation token to an existing budget.
    pub fn with_cancel(self, token: CancelToken) -> Self {
        Budget {
            cancel: Some(token),
            ..self
        }
    }

    /// Start metering against this budget.
    pub fn meter(&self) -> Meter {
        Meter {
            budget: self.clone(),
            start: Instant::now(),
            used: 0,
            exhausted: None,
        }
    }

    /// Time remaining until the absolute deadline, if one is set.
    /// `Some(Duration::ZERO)` once the deadline has passed.
    pub fn headroom(&self) -> Option<Duration> {
        self.deadline
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// Running consumption against a [`Budget`]. Cheap to charge: the clock is
/// only consulted when a time cap is set.
#[derive(Debug, Clone)]
pub struct Meter {
    budget: Budget,
    start: Instant,
    used: u64,
    exhausted: Option<&'static str>,
}

impl Meter {
    /// Charge one iteration. Returns `true` while budget remains; once it
    /// returns `false` it keeps returning `false` (exhaustion latches).
    pub fn tick(&mut self) -> bool {
        self.charge(1)
    }

    /// Charge `n` iterations at once.
    pub fn charge(&mut self, n: u64) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        self.used = self.used.saturating_add(n);
        if let Some(cap) = self.budget.max_iterations {
            if self.used > cap {
                self.exhausted = Some("iterations");
                return false;
            }
        }
        if let Some(token) = &self.budget.cancel {
            if token.is_cancelled() {
                self.exhausted = Some("cancelled");
                return false;
            }
        }
        if let Some(cap) = self.budget.max_time {
            if self.start.elapsed() > cap {
                self.exhausted = Some("time");
                return false;
            }
        }
        if let Some(at) = self.budget.deadline {
            if Instant::now() > at {
                self.exhausted = Some("deadline");
                return false;
            }
        }
        true
    }

    /// Which budget ran out, if any (`"iterations"`, `"time"`,
    /// `"deadline"`, or `"cancelled"`).
    pub fn exhausted(&self) -> Option<&'static str> {
        self.exhausted
    }

    /// Iterations charged so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Convert an exhausted meter into the standard error marker;
    /// `context` says where the budget ran out and what was salvaged.
    pub fn exhaustion_error(&self, context: &str) -> Option<crate::error::SolveError> {
        self.exhausted
            .map(|resource| crate::error::SolveError::BudgetExhausted {
                resource,
                message: format!("{context} (after {} iterations)", self.used),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut m = Budget::unlimited().meter();
        for _ in 0..10_000 {
            assert!(m.tick());
        }
        assert_eq!(m.exhausted(), None);
        assert_eq!(m.used(), 10_000);
    }

    #[test]
    fn iteration_cap_latches() {
        let mut m = Budget::iterations(3).meter();
        assert!(m.tick());
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick(), "fourth tick must exceed a cap of 3");
        assert!(!m.tick(), "exhaustion must latch");
        assert_eq!(m.exhausted(), Some("iterations"));
        let err = m.exhaustion_error("probe").unwrap();
        assert_eq!(err.kind(), "budget-exhausted");
        assert!(err.to_string().contains("probe"));
    }

    #[test]
    fn time_cap_trips() {
        let mut m = Budget::time(Duration::ZERO).meter();
        std::thread::sleep(Duration::from_millis(1));
        assert!(!m.tick());
        assert_eq!(m.exhausted(), Some("time"));
    }

    #[test]
    fn bulk_charge_counts() {
        let mut m = Budget::iterations(10).meter();
        assert!(m.charge(10));
        assert!(!m.charge(1));
        assert_eq!(m.used(), 11);
    }

    #[test]
    fn cancel_token_trips_meter() {
        let token = CancelToken::new();
        let mut m = Budget::unlimited().with_cancel(token.clone()).meter();
        assert!(m.tick());
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(!m.tick());
        assert_eq!(m.exhausted(), Some("cancelled"));
        assert!(!m.tick(), "cancellation must latch");
        let err = m.exhaustion_error("bisection").unwrap();
        assert_eq!(err.kind(), "budget-exhausted");
    }

    #[test]
    fn past_deadline_trips_meter() {
        let now = Instant::now();
        let mut m = Budget::unlimited().with_deadline(now).meter();
        std::thread::sleep(Duration::from_millis(1));
        assert!(!m.tick());
        assert_eq!(m.exhausted(), Some("deadline"));
    }

    #[test]
    fn future_deadline_leaves_headroom() {
        let b = Budget::unlimited().with_deadline(Instant::now() + Duration::from_secs(60));
        let h = b.headroom().unwrap();
        assert!(h > Duration::from_secs(50));
        assert_eq!(Budget::unlimited().headroom(), None);
        let mut m = b.meter();
        for _ in 0..100 {
            assert!(m.tick());
        }
    }
}
