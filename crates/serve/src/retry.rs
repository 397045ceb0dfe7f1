//! Bounded retry with exponential backoff and seeded jitter.
//!
//! The harness already turns every failure into typed data; this module
//! decides which of those failures are worth a second attempt. None of the
//! solver's own are: every solve is a deterministic function of its input,
//! so a caught panic, a numeric blow-up or a precondition violation repeats
//! bit for bit on a retry, and deadline/cancellation exhaustion means the
//! time is already gone. The only failures retried are the synthetic
//! transients of [`RetryPolicy::inject_transient`], which exercise the loop.
//!
//! Backoff doubles from [`RetryPolicy::base_backoff`] up to
//! [`RetryPolicy::max_backoff`] with multiplicative jitter in `[0.5, 1.0)`
//! drawn from the workspace PRNG, so a burst of poisoned requests
//! desynchronizes instead of hammering in lockstep. The jitter stream is
//! seeded per call site, which keeps service runs reproducible — the same
//! seed and request order replay the same sleeps.
//!
//! For deterministic tests (and the `--inject-transient` CLI flag) the
//! policy can synthesize failures: the first
//! [`RetryPolicy::inject_transient`] attempts fail with a typed
//! [`SolveError::Numeric`] before the solver even runs.

use ssp_model::resource::Budget;
use ssp_model::SolveError;
use ssp_prng::rngs::StdRng;
use ssp_prng::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Retry configuration; one per service (per-request override on the count).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 = at most one attempt).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Fail this many leading attempts with a synthetic transient error
    /// (testing hook; 0 in production).
    pub inject_transient: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0x5E12E,
            inject_transient: 0,
        }
    }
}

/// Outcome of [`run_with_retry`].
pub struct RetryOutcome<T> {
    /// The last attempt's result.
    pub result: Result<T, SolveError>,
    /// How many retries were spent (0 = first attempt settled it).
    pub retries: u32,
}

/// Drive `attempt` through the policy. `deadline` bounds the whole loop:
/// no retry is launched (nor slept for) once it would start past the
/// deadline — the last failure is returned instead. Each successful result
/// and each failure of `attempt` is final; each injected failure costs one
/// retry plus a jittered backoff sleep.
pub fn run_with_retry<T>(
    policy: &RetryPolicy,
    max_retries: u32,
    deadline: Option<Instant>,
    mut attempt: impl FnMut(u32) -> Result<T, SolveError>,
) -> RetryOutcome<T> {
    let mut rng = StdRng::seed_from_u64(policy.jitter_seed);
    let mut retries = 0u32;
    loop {
        let attempt_no = retries;
        let injected = attempt_no < policy.inject_transient;
        let result = if injected {
            Err(SolveError::Numeric {
                message: format!("injected transient failure (attempt {attempt_no})"),
            })
        } else {
            attempt(attempt_no)
        };
        let err = match result {
            Ok(value) => {
                return RetryOutcome {
                    result: Ok(value),
                    retries,
                }
            }
            Err(e) => e,
        };
        let give_up = retries >= max_retries || !injected;
        if give_up {
            return RetryOutcome {
                result: Err(err),
                retries,
            };
        }
        let pause = backoff(policy, retries, &mut rng);
        if let Some(at) = deadline {
            // Sleeping through the deadline would turn a salvageable typed
            // failure into a guaranteed deadline failure; stop here.
            if Instant::now() + pause >= at {
                return RetryOutcome {
                    result: Err(err),
                    retries,
                };
            }
        }
        ssp_probe::counter!("serve.retry");
        std::thread::sleep(pause);
        retries += 1;
    }
}

/// The `attempt`-th backoff: `base · 2^attempt`, capped, jittered by a
/// factor in `[0.5, 1.0)`.
fn backoff(policy: &RetryPolicy, attempt: u32, rng: &mut StdRng) -> Duration {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << attempt.min(16))
        .min(policy.max_backoff);
    exp.mul_f64(rng.gen_range(0.5..1.0))
}

/// Convenience: the absolute deadline implied by a timeout from `start`,
/// already threaded into `budget`. Returns the budget with deadline set
/// (when a timeout applies) and the deadline itself.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy(inject: u32) -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(400),
            inject_transient: inject,
            ..Default::default()
        }
    }

    #[test]
    fn first_success_spends_no_retries() {
        let out = run_with_retry(&quick_policy(0), 3, None, |_| Ok(42));
        assert_eq!(out.result.unwrap(), 42);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn injected_transients_are_retried_through() {
        let out = run_with_retry(&quick_policy(2), 3, None, |a| {
            assert!(a >= 2, "attempts 0,1 must be injected failures");
            Ok(a)
        });
        assert_eq!(out.result.unwrap(), 2);
        assert_eq!(out.retries, 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut calls = 0u32;
        let out = run_with_retry(&quick_policy(10), 2, None, |_| {
            calls += 1;
            Ok(())
        });
        assert_eq!(calls, 0, "1 attempt + 2 retries, all injected failures");
        assert_eq!(out.retries, 2);
        match out.result {
            Err(SolveError::Numeric { message }) => {
                assert!(message.contains("attempt 2"), "{message}")
            }
            other => panic!("expected the third injected failure, got {other:?}"),
        }
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let mut calls = 0u32;
        let out = run_with_retry(&quick_policy(0), 5, None, |_| {
            calls += 1;
            Err::<(), _>(SolveError::UnknownAlgorithm { name: "x".into() })
        });
        assert_eq!(calls, 1);
        assert_eq!(out.retries, 0);
        assert!(out.result.is_err());
    }

    #[test]
    fn deadline_stops_the_retry_loop() {
        let deadline = Instant::now(); // already expired
        let mut calls = 0u32;
        let out = run_with_retry(&quick_policy(1), 5, Some(deadline), |_| {
            calls += 1;
            Ok(())
        });
        assert_eq!(calls, 0, "no retry may start past the deadline");
        assert_eq!(out.retries, 0);
        assert!(matches!(out.result, Err(SolveError::Numeric { .. })));
    }

    /// Only injected failures are transient: each of the solver's own error
    /// kinds settles on the first attempt, while the same budget retries
    /// injected ones through.
    #[test]
    fn transience_classification() {
        let real = [
            SolveError::InternalPanic {
                message: "p".into(),
            },
            SolveError::Numeric {
                message: "n".into(),
            },
            SolveError::Infeasible {
                message: "i".into(),
            },
            SolveError::BudgetExhausted {
                resource: "deadline",
                message: "d".into(),
            },
            SolveError::Precondition {
                algorithm: "exact",
                message: "n too big".into(),
            },
        ];
        for error in real {
            let mut calls = 0u32;
            let out = run_with_retry(&quick_policy(0), 5, None, |_| {
                calls += 1;
                Err::<(), _>(error.clone())
            });
            assert_eq!((calls, out.retries), (1, 0), "{error:?} was retried");
            assert_eq!(out.result.unwrap_err(), error);
        }
        let out = run_with_retry(&quick_policy(3), 5, None, Ok);
        assert_eq!((out.result.unwrap(), out.retries), (3, 3));
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(10),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 0..8 {
            let b = backoff(&p, attempt, &mut rng);
            let cap = Duration::from_millis(4)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(10));
            assert!(b >= cap.mul_f64(0.5) && b < cap, "attempt {attempt}: {b:?}");
        }
        // Same seed → same sleep schedule (reproducible service runs).
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for attempt in 0..4 {
            assert_eq!(backoff(&p, attempt, &mut a), backoff(&p, attempt, &mut b));
        }
    }
}
