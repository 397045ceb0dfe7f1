//! Deadline threading for a request's solver budget.
//!
//! Every request makes one attempt: each solve is a deterministic function
//! of its input, so a failure would repeat bit for bit on a second try.
//! The module holds only [`deadline_budget`]; it keeps its name because
//! callers import that function from `ssp_serve::retry`.

use ssp_model::resource::Budget;
use std::time::{Duration, Instant};

/// The absolute deadline implied by a timeout from `start`, already
/// threaded into `budget`. Returns the budget with deadline set (when a
/// timeout applies) and the deadline itself.
pub fn deadline_budget(
    budget: Budget,
    start: Instant,
    timeout: Option<Duration>,
) -> (Budget, Option<Instant>) {
    match timeout {
        Some(t) => {
            let at = start + t;
            (budget.with_deadline(at), Some(at))
        }
        None => (budget, None),
    }
}
