//! The solve service: a fixed worker pool behind a bounded admission queue.
//!
//! Transport-agnostic by design — [`Server::submit`] takes a raw request
//! line and a sink closure, so stdin, a Unix socket, and in-process tests
//! (EXP-21, the chaos suite) all drive the same code path. The contract:
//!
//! * **Every admitted request gets exactly one response line**, success or
//!   typed error, even across worker panics and shutdown. Rejected
//!   requests get their typed response synchronously at submit time.
//! * **Admission control**: the queue is bounded; beyond
//!   [`ServeOptions::queue_cap`] a request is rejected immediately with
//!   `kind:"overload"` rather than queued into a latency cliff.
//! * **Deadlines**: a per-request timeout becomes an absolute deadline
//!   measured from *admission* (queue wait counts — that is the latency
//!   the client sees), threaded into the solver [`Budget`] so BAL
//!   bisection and local-search loops observe it cooperatively.
//! * **Load shedding**: when the queue is deep or deadline headroom is
//!   thin at dequeue, the service steps the request down its degradation
//!   chain to round-robin — cheap, total, still validated against the
//!   certified lower bound when one is computed. Such responses carry
//!   `degraded:true` and the reason.
//! * **Isolation**: each request runs behind its own `catch_unwind` (on
//!   top of the harness' own boundary), so one poisoned request can never
//!   take down the daemon or starve the pool.
//! * **Shutdown drains**: after [`Server::shutdown`] no new work is
//!   admitted, but everything already queued is solved and answered
//!   before the workers exit.
//!
//! One probe session (owned by whoever starts the daemon) aggregates the
//! whole run; workers attach their spans under the caller's open span via
//! [`ssp_probe::Session::parent_handle`] and feed the `serve.*` counters
//! and histograms listed in `docs/OBSERVABILITY.md`.

use crate::fingerprint::{CachedResult, Fingerprint, ResultCache};
use crate::protocol::{self, CacheDisposition, OkResponse, Request};
use crate::retry;
use ssp_harness::{boundary, solve_traced, Algo, SolveOptions};
use ssp_model::resource::Budget;
use ssp_model::SolveError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads solving requests.
    pub workers: usize,
    /// Maximum queued (admitted, not yet started) requests; submissions
    /// beyond this are rejected with `kind:"overload"`.
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own
    /// `timeout_ms`; `None` = no default deadline.
    pub default_timeout: Option<Duration>,
    /// Fingerprint-cache capacity (entries); 0 disables the cache.
    pub cache_cap: usize,
    /// Queue depth at dequeue at/above which the request is shed to the
    /// cheap end of its degradation chain.
    pub shed_watermark: usize,
    /// Minimum deadline headroom at dequeue; below it the request is shed
    /// rather than started on an algorithm it can no longer afford.
    pub min_headroom: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_cap: 64,
            default_timeout: None,
            cache_cap: 256,
            shed_watermark: 48,
            min_headroom: Duration::from_millis(5),
        }
    }
}

/// Where responses go. Called exactly once per admitted request, and once
/// per rejected request (synchronously, from the submitting thread). Must
/// be cheap-ish and must not panic; a panicking sink is caught and counted
/// but its response line is lost.
pub type Sink = Arc<dyn Fn(&str) + Send + Sync>;

/// Monotonic service counters, exposed for tests and EXP-21 so invariants
/// can be asserted without a probe session.
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the counter names
pub struct StatsSnapshot {
    pub submitted: u64,
    pub rejected: u64,
    pub ok: u64,
    pub errors: u64,
    pub panics: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shed: u64,
    pub degraded: u64,
}

impl StatsSnapshot {
    /// Responses emitted for admitted requests (success + typed error).
    pub fn completed(&self) -> u64 {
        self.ok + self.errors
    }
}

struct Work {
    line: String,
    sink: Sink,
    admitted: Instant,
}

struct Shared {
    opts: ServeOptions,
    queue: Mutex<VecDeque<Work>>,
    cond: Condvar,
    cache: Mutex<ResultCache>,
    draining: AtomicBool,
    stats: Stats,
}

impl Shared {
    // Panics while holding these locks are already caught per-request; a
    // poisoned mutex here would only turn one caught panic into a daemon
    // death, so recover the data instead.
    fn queue_lock(&self) -> MutexGuard<'_, VecDeque<Work>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
    fn cache_lock(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The running service. Dropping it without [`Server::shutdown`] drains
/// and joins the workers too (shutdown is idempotent).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn the worker pool. Call with a probe span open to group worker
    /// spans under it (see module docs); works fine without one.
    pub fn start(opts: ServeOptions) -> Server {
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultCache::new(opts.cache_cap)),
            opts,
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            draining: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let parent = ssp_probe::Session::parent_handle();
        let workers = (0..shared.opts.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ssp-serve-{i}"))
                    .spawn(move || worker_loop(&shared, parent))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Submit one raw request line. Admission control runs synchronously:
    /// the return value says whether the request was queued (`true`) or
    /// rejected with a typed response already sent to `sink` (`false`).
    pub fn submit(&self, line: &str, sink: Sink) -> bool {
        submit_line(&self.shared, line, sink)
    }

    /// A clonable, submit-only handle for transport threads (a stdin loop,
    /// socket connections). Admission control and rejection behavior are
    /// identical to [`Server::submit`]; the handle cannot shut the service
    /// down, so ownership of drain/join stays with the thread holding the
    /// `Server`.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop admitting, solve everything already queued, join the workers.
    /// Idempotent. Every request admitted before this call still gets its
    /// response before `shutdown` returns.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.cond.notify_all();
        for w in self.workers.drain(..) {
            // A worker that somehow panicked outside all catch boundaries
            // still must not abort shutdown of the rest.
            let _ = w.join();
        }
    }

    /// Current queue depth (admitted, not yet dequeued).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_lock().len()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            ok: s.ok.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            panics: s.panics.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Submit-only handle; see [`Server::handle`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Same contract as [`Server::submit`].
    pub fn submit(&self, line: &str, sink: Sink) -> bool {
        submit_line(&self.shared, line, sink)
    }
}

fn submit_line(shared: &Shared, line: &str, sink: Sink) -> bool {
    shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
    if shared.draining.load(Ordering::Acquire) {
        return reject(shared, line, &sink, "shutdown", "service is shutting down");
    }
    let mut queue = shared.queue_lock();
    let depth = queue.len();
    if depth >= shared.opts.queue_cap {
        drop(queue);
        return reject(
            shared,
            line,
            &sink,
            "overload",
            &format!("queue full ({} requests)", shared.opts.queue_cap),
        );
    }
    queue.push_back(Work {
        line: line.to_string(),
        sink,
        admitted: Instant::now(),
    });
    ssp_probe::histogram!("serve.queue_depth", (depth + 1) as u64);
    drop(queue);
    shared.cond.notify_one();
    true
}

fn reject(shared: &Shared, line: &str, sink: &Sink, kind: &str, message: &str) -> bool {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    ssp_probe::counter!("serve.reject");
    let id = protocol::salvage_id(line);
    deliver(shared, sink, &protocol::error_line(&id, kind, message));
    false
}

/// Hand one response line to a sink, surviving a panicking sink.
fn deliver(shared: &Shared, sink: &Sink, line: &str) {
    if catch_unwind(AssertUnwindSafe(|| sink(line))).is_err() {
        shared.stats.panics.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Shared, parent: ssp_probe::ParentHandle) {
    let _adopt = ssp_probe::Session::adopt_parent(parent);
    loop {
        let (work, depth_behind) = {
            let mut queue = shared.queue_lock();
            loop {
                if let Some(work) = queue.pop_front() {
                    break (work, queue.len());
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.cond.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Per-request isolation: nothing a request does may escape this
        // frame. The harness catches solver panics; this catches panics in
        // the service layer itself (parsing, cache, serialization).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            process(shared, &work, depth_behind);
        }));
        if outcome.is_err() {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            ssp_probe::counter!("serve.panic");
            let id = protocol::salvage_id(&work.line);
            deliver(
                shared,
                &work.sink,
                &protocol::error_line(&id, "internal-panic", "request processing panicked"),
            );
        }
    }
}

/// Map a terminal solve error to the response `kind`. Deadline and
/// cancellation exhaustion get first-class kinds; everything else keeps
/// its [`SolveError::kind`] tag.
fn error_kind(error: &SolveError) -> &'static str {
    match error {
        SolveError::BudgetExhausted {
            resource: "deadline",
            ..
        } => "deadline",
        SolveError::BudgetExhausted {
            resource: "cancelled",
            ..
        } => "cancelled",
        other => other.kind(),
    }
}

/// What a solve settles on.
struct Accepted {
    algorithm: Algo,
    energy: f64,
    lower_bound: Option<f64>,
    lb_ratio: Option<f64>,
    fell_back: bool,
    budget_exhausted: Option<&'static str>,
}

fn process(shared: &Shared, work: &Work, depth_behind: usize) {
    let _span = ssp_probe::span("serve.request");
    let opts = &shared.opts;
    let finish = |ok: bool| {
        ssp_probe::histogram!(
            "serve.request_us",
            work.admitted.elapsed().as_micros() as u64
        );
        if ok {
            shared.stats.ok.fetch_add(1, Ordering::Relaxed);
            ssp_probe::counter!("serve.ok");
        } else {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            ssp_probe::counter!("serve.error");
        }
    };

    let req = match protocol::parse_request(&work.line) {
        Ok(req) => req,
        Err(rej) => {
            deliver(
                shared,
                &work.sink,
                &protocol::error_line(&rej.id, rej.kind, &rej.message),
            );
            finish(false);
            return;
        }
    };

    let timeout = req.timeout.or(opts.default_timeout);
    let (budget, deadline) = retry::deadline_budget(Budget::unlimited(), work.admitted, timeout);

    // Load shedding: a deep queue or thin headroom means the requested
    // algorithm can no longer be afforded; step straight to the cheap,
    // total end of its degradation chain instead of timing out.
    let shed_reason = if depth_behind >= opts.shed_watermark {
        Some("load")
    } else if deadline
        .is_some_and(|at| at.saturating_duration_since(Instant::now()) < opts.min_headroom)
    {
        Some("deadline-pressure")
    } else {
        None
    };
    let effective_algo = match shed_reason {
        Some(_) if req.algo != Algo::Rr => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            ssp_probe::counter!("serve.shed");
            Algo::Rr
        }
        _ => req.algo,
    };
    let shed = effective_algo != req.algo;

    let fp = Fingerprint::of(&req.instance);
    if opts.cache_cap > 0 {
        if let Some(hit) = shared.cache_lock().get(&fp, effective_algo) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            if shed {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            }
            ssp_probe::counter!("serve.cache_hit");
            let response = OkResponse {
                id: req.id.clone(),
                algorithm: effective_algo,
                requested: req.algo,
                energy: hit.energy,
                lower_bound: hit.lower_bound,
                lb_ratio: hit.lb_ratio,
                degraded: shed,
                degrade_reason: shed_reason.filter(|_| shed),
                budget_exhausted: None,
                cache: CacheDisposition::Hit,
                retries: 0,
                wall_us: work.admitted.elapsed().as_micros() as u64,
            };
            deliver(shared, &work.sink, &response.to_line());
            finish(true);
            return;
        }
        shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        ssp_probe::counter!("serve.cache_miss");
    }

    let solve_opts = SolveOptions {
        budget,
        degrade: !req.no_fallback,
        ..SolveOptions::default()
    };

    match solve_once(&req, effective_algo, &solve_opts) {
        // A schedule can be valid yet have an energy past f64 range
        // (overflow-scale adversarial instances). JSON cannot carry ±inf
        // and a certified bound is meaningless there, so answer with a
        // typed error instead of an `ok` whose energy reads as null.
        Ok(accepted) if !accepted.energy.is_finite() => {
            deliver(
                shared,
                &work.sink,
                &protocol::error_line(
                    &req.id,
                    "numeric",
                    "schedule energy is not finite (instance outside representable range)",
                ),
            );
            finish(false);
        }
        Ok(accepted) => {
            let degraded = shed || accepted.fell_back;
            if degraded {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            }
            // Cache only full-fidelity results: the algorithm asked of the
            // solver actually answered, with its budget intact, so a later
            // hit is indistinguishable from a fresh solve.
            if opts.cache_cap > 0 && !accepted.fell_back && accepted.budget_exhausted.is_none() {
                shared.cache_lock().insert(
                    fp,
                    effective_algo,
                    CachedResult {
                        energy: accepted.energy,
                        lower_bound: accepted.lower_bound,
                        lb_ratio: accepted.lb_ratio,
                    },
                );
            }
            let response = OkResponse {
                id: req.id.clone(),
                algorithm: accepted.algorithm,
                requested: req.algo,
                energy: accepted.energy,
                lower_bound: accepted.lower_bound,
                lb_ratio: accepted.lb_ratio,
                degraded,
                degrade_reason: if shed {
                    shed_reason
                } else if accepted.fell_back {
                    Some("fallback")
                } else {
                    None
                },
                budget_exhausted: accepted.budget_exhausted,
                cache: if opts.cache_cap > 0 {
                    CacheDisposition::Miss
                } else {
                    CacheDisposition::Bypass
                },
                retries: 0,
                wall_us: work.admitted.elapsed().as_micros() as u64,
            };
            deliver(shared, &work.sink, &response.to_line());
            finish(true);
        }
        Err(error) => {
            deliver(
                shared,
                &work.sink,
                &protocol::error_line(&req.id, error_kind(&error), &error.to_string()),
            );
            finish(false);
        }
    }
}

/// One solve through the harness, folded to `Result`. `solve_traced`
/// self-degrades to an untraced solve while the daemon's own session holds
/// the probes, so counters/histograms fired by the solvers land in the
/// daemon trace. The extra `boundary::catch` seals the service against
/// panics in report handling itself.
fn solve_once(
    req: &Request,
    algo: Algo,
    solve_opts: &SolveOptions,
) -> Result<Accepted, SolveError> {
    boundary::catch(|| {
        let report = solve_traced(&req.instance, algo, solve_opts);
        match report.outcome {
            Some(outcome) => Ok(Accepted {
                algorithm: outcome.algorithm,
                energy: outcome.stats.energy,
                lower_bound: report.lower_bound,
                lb_ratio: outcome.lb_ratio,
                fell_back: outcome.algorithm != algo,
                budget_exhausted: outcome.budget_exhausted,
            }),
            None => Err(report
                .attempts
                .iter()
                .rev()
                .find_map(|a| a.error.clone())
                .unwrap_or(SolveError::Numeric {
                    message: "solve returned neither outcome nor error".into(),
                })),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_probe::json;
    use std::sync::Mutex as StdMutex;

    fn collecting_sink() -> (Sink, Arc<StdMutex<Vec<String>>>) {
        let lines = Arc::new(StdMutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: Sink = Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_string());
        });
        (sink, lines)
    }

    fn request_line(id: &str, algo: &str, njobs: usize) -> String {
        let jobs: Vec<String> = (0..njobs)
            .map(|i| format!("[{i},{}.5,{}.0,{}.0]", 1 + i % 3, i, i + 3))
            .collect();
        format!(
            r#"{{"id":"{id}","algo":"{algo}","instance":{{"machines":2,"alpha":2.0,"jobs":[{}]}}}}"#,
            jobs.join(",")
        )
    }

    fn drain(server: &mut Server) {
        server.shutdown();
    }

    #[test]
    fn solves_and_answers_every_admitted_request() {
        let mut server = Server::start(ServeOptions {
            workers: 2,
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        for i in 0..8 {
            let algo = ["rr", "bal", "greedy", "least-loaded"][i % 4];
            assert!(server.submit(&request_line(&format!("r{i}"), algo, 4), Arc::clone(&sink)));
        }
        drain(&mut server);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 8);
        for line in lines.iter() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("status").unwrap().as_str(), Some("ok"), "{line}");
            let ratio = v.get("lb_ratio").unwrap().as_f64().unwrap();
            assert!(ratio >= 1.0 - 1e-9, "{line}");
        }
        assert_eq!(server.stats().ok, 8);
        assert_eq!(server.stats().panics, 0);
    }

    #[test]
    fn an_empty_instance_answers_positive_zero_energy() {
        let mut server = Server::start(ServeOptions {
            workers: 1,
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        assert!(server.submit(&request_line("empty", "rr", 0), sink));
        drain(&mut server);
        let lines = lines.lock().unwrap();
        assert!(lines[0].contains(r#""energy":0"#), "{}", lines[0]);
    }

    #[test]
    fn overload_rejects_with_a_typed_response() {
        // No workers draining fast enough: 1 worker, tiny queue, slow-ish
        // jobs; overflow must reject synchronously.
        let mut server = Server::start(ServeOptions {
            workers: 1,
            queue_cap: 2,
            shed_watermark: usize::MAX,
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        let mut rejected = 0;
        for i in 0..40 {
            if !server.submit(&request_line(&format!("r{i}"), "bal", 6), Arc::clone(&sink)) {
                rejected += 1;
            }
        }
        drain(&mut server);
        assert!(
            rejected > 0,
            "40 submissions into a 2-deep queue must overflow"
        );
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 40, "every request answered, accepted or not");
        let overloads = lines
            .iter()
            .filter(|l| l.contains(r#""kind":"overload""#))
            .count();
        assert_eq!(overloads, rejected);
        assert_eq!(server.stats().rejected, rejected as u64);
    }

    #[test]
    fn submissions_after_shutdown_get_typed_rejections() {
        let mut server = Server::start(ServeOptions::default());
        let (sink, lines) = collecting_sink();
        server.shutdown();
        assert!(!server.submit(&request_line("late", "rr", 2), sink));
        let lines = lines.lock().unwrap();
        assert!(lines[0].contains(r#""kind":"shutdown""#));
    }

    #[test]
    fn malformed_requests_get_typed_errors_not_dead_workers() {
        let mut server = Server::start(ServeOptions {
            workers: 1,
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        server.submit("{definitely not json", Arc::clone(&sink));
        server.submit(
            r#"{"id":"bad-algo","algo":"nope","instance":"machines 1\nalpha 2\n"}"#,
            Arc::clone(&sink),
        );
        server.submit(&request_line("good", "rr", 3), Arc::clone(&sink));
        drain(&mut server);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().any(|l| l.contains(r#""kind":"parse""#)));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""kind":"unknown-algorithm""#)));
        assert!(lines.iter().any(|l| l.contains(r#""status":"ok""#)));
    }

    #[test]
    fn repeated_instances_hit_the_cache_with_identical_certified_numbers() {
        let mut server = Server::start(ServeOptions {
            workers: 1,
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        for i in 0..3 {
            server.submit(&request_line(&format!("c{i}"), "bal", 5), Arc::clone(&sink));
        }
        drain(&mut server);
        let lines = lines.lock().unwrap();
        let parsed: Vec<_> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
        let hits = parsed
            .iter()
            .filter(|v| v.get("cache").unwrap().as_str() == Some("hit"))
            .count();
        assert_eq!(hits, 2, "2nd and 3rd identical requests must hit");
        let energies: Vec<u64> = parsed
            .iter()
            .map(|v| v.get("energy").unwrap().as_f64().unwrap().to_bits())
            .collect();
        assert!(energies.windows(2).all(|w| w[0] == w[1]), "bit-identical");
        assert_eq!(server.stats().cache_hits, 2);
    }

    #[test]
    fn zero_timeout_is_a_deadline_failure_or_degraded_success_never_a_hang() {
        let mut server = Server::start(ServeOptions {
            workers: 1,
            min_headroom: Duration::ZERO, // disable shedding: exercise the deadline path
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        let line = r#"{"id":"t0","algo":"bal","timeout_ms":0,"no_fallback":true,"instance":{"machines":2,"alpha":2.0,"jobs":[[0,1.5,0.0,2.0],[1,1.0,0.5,3.0]]}}"#;
        server.submit(line, Arc::clone(&sink));
        drain(&mut server);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let v = json::parse(&lines[0]).unwrap();
        // BAL's meter trips on "deadline"; it salvages a valid best-so-far
        // schedule (reported exhausted) or fails typed — both acceptable,
        // hanging or panicking is not.
        match v.get("status").unwrap().as_str().unwrap() {
            "ok" => assert_eq!(
                v.get("budget_exhausted").unwrap().as_str(),
                Some("deadline")
            ),
            "error" => assert_eq!(v.get("kind").unwrap().as_str(), Some("deadline")),
            other => panic!("unexpected status {other}"),
        }
    }

    #[test]
    fn deep_queue_sheds_to_rr_with_degraded_marker() {
        let mut server = Server::start(ServeOptions {
            workers: 1,
            queue_cap: 64,
            shed_watermark: 1, // anything with a queue behind it sheds
            ..Default::default()
        });
        let (sink, lines) = collecting_sink();
        for i in 0..6 {
            server.submit(&request_line(&format!("s{i}"), "bal", 4), Arc::clone(&sink));
        }
        drain(&mut server);
        let lines = lines.lock().unwrap();
        let shed: Vec<_> = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .filter(|v| v.get("degrade_reason").unwrap().as_str() == Some("load"))
            .collect();
        assert!(
            !shed.is_empty(),
            "with a 1-deep watermark some requests must shed"
        );
        for v in &shed {
            assert_eq!(v.get("algorithm").unwrap().as_str(), Some("rr"));
            assert_eq!(v.get("requested").unwrap().as_str(), Some("bal"));
            assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
            // Degraded responses still answer with a certified bound met.
            let ratio = v.get("lb_ratio").unwrap().as_f64().unwrap();
            assert!(ratio >= 1.0 - 1e-9);
        }
        assert!(server.stats().shed > 0);
    }

    #[test]
    fn a_panicking_sink_cannot_kill_the_pool() {
        let mut server = Server::start(ServeOptions {
            workers: 1,
            ..Default::default()
        });
        let bomb: Sink = Arc::new(|_line: &str| panic!("sink bomb"));
        server.submit(&request_line("boom", "rr", 2), bomb);
        let (sink, lines) = collecting_sink();
        server.submit(&request_line("after", "rr", 2), Arc::clone(&sink));
        drain(&mut server);
        assert_eq!(
            lines.lock().unwrap().len(),
            1,
            "pool survived the sink bomb"
        );
        assert!(server.stats().panics > 0);
    }
}
