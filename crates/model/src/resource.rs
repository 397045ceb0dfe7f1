//! Resource budgets for iterative solvers.
//!
//! The expensive loops in the workspace — BAL's critical-speed peeling, the
//! bisections in [`crate::numeric`], the assignment local search — must stay
//! total even on adversarial inputs. A [`Budget`] caps how much work such a
//! loop may do: an iteration count, an absolute deadline, or both. A
//! [`Meter`] is the running counter a loop charges as it goes. Exhaustion is
//! *not* an error: loops stop charging, keep their best feasible answer so
//! far, and report which budget ran out (`"iterations"` or `"deadline"`) as
//! a marker on the result, so a capped run still yields a valid, merely
//! suboptimal result.
//!
//! The deadline is what long-running callers set (the `ssp serve` daemon,
//! one-shot solves with `--timeout-ms`). It is absolute, so every meter
//! derived from one budget shares it and one per-request deadline bounds a
//! whole chain of solver phases.

use std::time::Instant;

/// Caps on the work an iterative solver may perform. `None` means
/// unlimited in that dimension.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum number of charged iterations.
    pub max_iterations: Option<u64>,
    /// Absolute wall-clock deadline, shared by every meter derived from
    /// the budget.
    pub deadline: Option<Instant>,
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

    /// Add/replace an absolute deadline on an existing budget.
    pub fn with_deadline(self, at: Instant) -> Self {
        Budget {
            deadline: Some(at),
            ..self
        }
    }

    /// Start metering against this budget.
    pub fn meter(&self) -> Meter {
        Meter {
            budget: self.clone(),
            used: 0,
            exhausted: None,
        }
    }
}

/// Running consumption against a [`Budget`]. Cheap to charge: the clock is
/// only consulted when a deadline is set.
#[derive(Debug, Clone)]
pub struct Meter {
    budget: Budget,
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
        if let Some(at) = self.budget.deadline {
            if Instant::now() > at {
                self.exhausted = Some("deadline");
                return false;
            }
        }
        true
    }

    /// Which budget ran out, if any (`"iterations"` or `"deadline"`).
    pub fn exhausted(&self) -> Option<&'static str> {
        self.exhausted
    }

    /// Iterations charged so far.
    pub fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
    }

    #[test]
    fn bulk_charge_counts() {
        let mut m = Budget::iterations(10).meter();
        assert!(m.charge(10));
        assert!(!m.charge(1));
        assert_eq!(m.used(), 11);
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
        let mut m = b.meter();
        for _ in 0..100 {
            assert!(m.tick());
        }
        assert_eq!(m.exhausted(), None);
    }
}
