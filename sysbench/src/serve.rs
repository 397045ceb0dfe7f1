//! `serve-mixed`: JSONL traffic into an in-process `ssp_serve::Server`, the
//! service behind `speedscale serve`.
//!
//! One client on the main thread sends a request, waits for its response
//! and sends the next: a closed loop with one request in flight, so each
//! latency is the request path itself (hand-over to the worker, parse,
//! fingerprint, cache, a solve on a miss, encoding), never a queue of other
//! requests. The server runs one worker with the BAL ladder pinned to one
//! thread, so at most two threads are busy.
//!
//! Requests mix four instance families, n ∈ {20, 50, 100} and four
//! algorithms; 30% repeat an (instance, algorithm) pair of the previous 64
//! requests, so the fingerprint cache answers them and the request path
//! itself carries the cost.
//!
//! Not an open loop: one was measured first, a request due every 1/215 s
//! and timed from when it was due. Queueing amplifies every change in
//! service time, the host's noise included, and its p50 and p95 moved 5–9%
//! between seeds even normalized, against 2–4% for the same requests' own
//! times: no bound of 10% holds such a metric.

use crate::ledger::{ratio, Ledger, TraceFiles};
use crate::report::RunResult;
use crate::solve::{check_bound, trace_unit};
use crate::stats::{self, Digest, Latency};
use crate::yardstick::{Readings, Yardstick, PERIOD};
use crate::Config;
use ssp_harness::{Algo, SolveOptions};
use ssp_model::resource::Budget;
use ssp_model::Instance;
use ssp_probe::span;
use ssp_serve::json::{self, Json};
use ssp_serve::protocol::CacheDisposition;
use ssp_serve::retry::deadline_budget;
use ssp_serve::{parse_request, CachedResult, Fingerprint, OkResponse, ResultCache};
use ssp_serve::{ServeOptions, Server, Sink, StatsSnapshot};
use ssp_workloads::{families, subseed};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MACHINES: usize = 4;
const ALPHA: f64 = 2.0;
const FAMILIES: [&str; 4] = ["general", "unit-arbitrary", "weighted-agreeable", "bursty"];
/// Sizes of fresh requests, in turn: 3 : 2 : 1. An n = 100 request takes
/// the worker 3× an n = 50 one and 12× an n = 20 one; in equal shares the
/// n = 100 requests held the worker 70% of the time, and a run sent 30%
/// fewer requests, so its percentiles moved more from seed to seed.
const SIZES: [usize; 6] = [20, 20, 20, 50, 50, 100];
const SMOKE_SIZES: [usize; 6] = [10, 10, 10, 20, 20, 50];
const ALGOS: [Algo; 4] = [Algo::Rr, Algo::Classified, Algo::Relax, Algo::Bal];
/// Requests in ten that repeat an earlier (instance, algorithm) pair.
const REPEAT_TENTHS: u64 = 3;
/// How far back a repeat may reach, in requests.
const REPEAT_WINDOW: u64 = 64;
const TIMEOUT_MS: u64 = 2000;
/// Requests a run sends per second of `--seconds`: about what the machine
/// the bounds were set on answered in a second of wall time, so the pass
/// fills the run.
const REQUESTS_PER_SECOND: usize = 450;
const SMOKE_REQUESTS: usize = 300;
/// Longest wait for a response.
const DRAIN: Duration = Duration::from_secs(20);
/// Longest the worker spins for its next request ([`Spin`]).
const SPIN_LIMIT: Duration = Duration::from_millis(100);

/// One request line and the (instance, algorithm) pair it carries.
struct Req {
    line: String,
    pair: usize,
}

fn instance(family: &str, n: usize, seed: u64) -> Instance {
    let spec = match family {
        "general" => families::general(n, MACHINES, ALPHA),
        "unit-arbitrary" => families::unit_arbitrary(n, MACHINES, ALPHA),
        "weighted-agreeable" => families::weighted_agreeable(n, MACHINES, ALPHA),
        _ => families::bursty(n, MACHINES, ALPHA),
    };
    spec.gen(seed)
}

/// The structured JSON form of an instance.
fn instance_json(inst: &Instance) -> Json {
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| {
            Json::Arr(vec![
                Json::Num(f64::from(j.id.0)),
                Json::Num(j.work),
                Json::Num(j.release),
                Json::Num(j.deadline),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("machines".into(), Json::Num(inst.machines() as f64)),
        ("alpha".into(), Json::Num(inst.alpha())),
        ("jobs".into(), Json::Arr(jobs)),
    ])
}

fn request_line(id: &str, algo: Algo, instance: &Json) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Str(id.into())),
        ("algo".into(), Json::Str(algo.name().into())),
        ("timeout_ms".into(), Json::Num(TIMEOUT_MS as f64)),
        ("instance".into(), instance.clone()),
    ])
    .to_string_compact()
}

/// `count` requests with ids `r0`, `r1`, …: fresh pairs, or repeats of a
/// pair among the previous [`REPEAT_WINDOW`] requests.
///
/// The shape of the traffic is fixed and only the instances come from the
/// seed: three requests in ten repeat an earlier pair, and fresh requests
/// walk every (family, n, algorithm) combination in turn. Service times
/// are heavy-tailed across combinations, so a mix drawn at random would
/// move every metric from seed to seed more than any change worth seeing.
fn traffic(seed: u64, count: usize, sizes: [usize; 6]) -> Vec<Req> {
    let mut pairs: Vec<(Algo, Json)> = Vec::new();
    let mut reqs: Vec<Req> = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let pair = if i > 0 && i % 10 < REPEAT_TENTHS {
            // A stride coprime to the window spreads repeats over it.
            let back = 1 + (i * 29) % REPEAT_WINDOW.min(i);
            reqs[(i - back) as usize].pair
        } else {
            let combo = pairs.len();
            let family = FAMILIES[combo % FAMILIES.len()];
            let n = sizes[(combo / FAMILIES.len()) % sizes.len()];
            let algo = ALGOS[(combo / (FAMILIES.len() * sizes.len())) % ALGOS.len()];
            pairs.push((algo, instance_json(&instance(family, n, subseed(seed, i)))));
            combo
        };
        let (algo, inst) = &pairs[pair];
        reqs.push(Req {
            line: request_line(&format!("r{i}"), *algo, inst),
            pair,
        });
    }
    reqs
}

/// A response line, when the server handed it over, and the yardstick
/// reading the worker took right after.
struct Response {
    at: Instant,
    line: String,
    reading: Option<f64>,
}

/// Keeps the worker from going idle between requests.
///
/// On the VM the bounds were set on, waking an idle thread takes from tens
/// of microseconds to milliseconds, with the neighbours' load, and no
/// yardstick sees it: an open loop's p50 moved between 1.1 and 5.7 ms from
/// run to run. So after handing over a response the worker waits in the
/// sink, spinning, until the next request is queued, and the client spins
/// for each response. Neither thread sleeps while the traffic runs.
#[derive(Debug, Default)]
struct Spin {
    /// Requests submitted and not yet answered.
    outstanding: AtomicUsize,
    /// The traffic is over: the worker may sleep again.
    done: AtomicBool,
}

impl Spin {
    /// Spin until a request is queued or the traffic is over, at most
    /// [`SPIN_LIMIT`].
    fn wait_for_work(&self) {
        let start = Instant::now();
        while self.outstanding.load(Ordering::Acquire) == 0
            && !self.done.load(Ordering::Acquire)
            && start.elapsed() < SPIN_LIMIT
        {
            std::hint::spin_loop();
        }
    }
}

/// Ends the worker's spinning when dropped, before the server it belongs
/// to shuts down.
struct StopSpin(Arc<Spin>);

impl Drop for StopSpin {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::Release);
    }
}

/// The sink: it stamps each response with the instant it was handed over.
/// On the worker's thread it then reads the yardstick, when [`PERIOD`] has
/// passed since its last reading, sends the response with the reading, and
/// spins until the next request is queued ([`Spin`]). The client sends the
/// next request only once the response has arrived, so a reading always
/// falls between two requests, never inside one. The server also calls the
/// sink on the submitting thread, to reject a request; that thread neither
/// reads nor spins.
fn sink(spin: Arc<Spin>) -> (Sink, Receiver<Response>) {
    let (tx, rx) = mpsc::channel();
    let submitter = std::thread::current().id();
    let stick = Mutex::new((Yardstick::default(), None::<Instant>));
    let sink: Sink = Arc::new(move |line: &str| {
        let at = Instant::now();
        spin.outstanding.fetch_sub(1, Ordering::AcqRel);
        let on_worker = std::thread::current().id() != submitter;
        let reading = if on_worker {
            // One worker: the lock is never contended, and a poisoned one
            // still holds a usable yardstick.
            let mut guard = stick.lock().unwrap_or_else(|e| e.into_inner());
            let (stick, last) = &mut *guard;
            last.is_none_or(|l| at.duration_since(l) >= PERIOD)
                .then(|| {
                    *last = Some(at);
                    stick.measure()
                })
        } else {
            None
        };
        // The receiver outlives every send of the pass.
        let _ = tx.send(Response {
            at,
            line: line.to_string(),
            reading,
        });
        if on_worker {
            spin.wait_for_work();
        }
    });
    (sink, rx)
}

/// A running server, the sink its responses go to, and where they arrive.
struct Serving {
    // Dropped first: the worker stops spinning, so the server can join it.
    spin: StopSpin,
    server: Server,
    sink: Sink,
    rx: Receiver<Response>,
    /// The reading the worker took after the warm-up request.
    first_reading: f64,
}

impl Serving {
    /// Submit one request line.
    fn submit(&self, line: &str) {
        self.spin.0.outstanding.fetch_add(1, Ordering::AcqRel);
        // A rejected request gets its response through the sink too.
        self.server.submit(line, Arc::clone(&self.sink));
    }

    /// The next response, spinning until it comes; `None` when [`DRAIN`]
    /// passes without one.
    fn response(&self) -> Option<Response> {
        let start = Instant::now();
        loop {
            match self.rx.try_recv() {
                Ok(r) => return Some(r),
                Err(TryRecvError::Empty) if start.elapsed() < DRAIN => std::hint::spin_loop(),
                Err(_) => return None,
            }
        }
    }
}

/// Generate and serialize the traffic, start the server, and answer one
/// warm-up request outside the timed set, the same in every run so set-up
/// time does not move with the seed.
fn setup(cfg: &Config) -> Result<(Vec<Req>, Serving), String> {
    let (count, sizes) = if cfg.smoke {
        (SMOKE_REQUESTS, SMOKE_SIZES)
    } else {
        (REQUESTS_PER_SECOND * cfg.seconds.as_secs() as usize, SIZES)
    };
    let reqs = traffic(cfg.seed, count, sizes);
    let spin = Arc::new(Spin::default());
    let (sink, rx) = sink(Arc::clone(&spin));
    let mut serving = Serving {
        spin: StopSpin(spin),
        server: Server::start(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        }),
        sink,
        rx,
        first_reading: 0.0,
    };
    let warm = instance(FAMILIES[0], sizes[0], subseed(0, u64::MAX));
    serving.submit(&request_line("warm-up", Algo::Rr, &instance_json(&warm)));
    let answer = serving.response().ok_or("warm-up request unanswered")?;
    // The worker reads the yardstick after its first response.
    serving.first_reading = answer.reading.ok_or("warm-up request rejected")?;
    Ok((reqs, serving))
}

/// What one pass over the traffic observed, its answers checked.
struct Pass<'a> {
    /// Latency of each request sent, in ms: as measured, and normalized by
    /// the worker's readings; infinite for a failed request.
    raw: Vec<f64>,
    normalized: Vec<f64>,
    stats: StatsSnapshot,
    checker: Checker<'a>,
}

/// One pass: each request sent once the one before it was answered, until
/// all are sent or `guard` passes; then shutdown.
fn pass<'a>(s: Serving, reqs: &'a [Req], guard: Duration, out: &mut RunResult) -> Pass<'a> {
    let mut checker = Checker::new(reqs);
    let mut raw = Vec::with_capacity(reqs.len());
    let mut normalized = Readings::new(s.first_reading);
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        if start.elapsed() > guard {
            out.note(format!("stopped after {i} requests, past the time guard"));
            break;
        }
        out.attempted += 1;
        let sent = Instant::now();
        s.submit(&req.line);
        let Some(r) = s.response() else {
            out.fail(format!("request {i}: no response"));
            break;
        };
        checker.take(out, &r.line);
        let ms = match checker.answers[i] {
            Some(_) => stats::ms(r.at.saturating_duration_since(sent)),
            None => f64::INFINITY,
        };
        raw.push(ms);
        normalized.push(ms);
        if let Some(reading) = r.reading {
            normalized.reading(reading);
        }
    }
    let Serving {
        spin, mut server, ..
    } = s;
    // The worker stops spinning, so the shutdown can join it.
    drop(spin);
    server.shutdown();
    Pass {
        raw,
        normalized: normalized.finish(),
        stats: server.stats(),
        checker,
    }
}

/// A checked `ok` response.
#[derive(Debug, Clone, Copy)]
struct Answer {
    energy: f64,
    lower_bound: f64,
    degraded: bool,
}

/// Matches responses to requests and checks every answer.
struct Checker<'a> {
    reqs: &'a [Req],
    answered: Vec<bool>,
    answers: Vec<Option<Answer>>,
    /// First full-fidelity answer per pair: later ones, cache hits or
    /// fresh solves, must repeat it bit for bit.
    by_pair: HashMap<usize, (u64, u64)>,
}

impl<'a> Checker<'a> {
    fn new(reqs: &'a [Req]) -> Self {
        Checker {
            reqs,
            answered: vec![false; reqs.len()],
            answers: vec![None; reqs.len()],
            by_pair: HashMap::new(),
        }
    }

    /// Check one response line.
    fn take(&mut self, out: &mut RunResult, line: &str) {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return out.wrong(format!("malformed response {line}: {e}")),
        };
        let index = v
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < self.reqs.len());
        let Some(i) = index else {
            return out.wrong(format!("response to no request: {line}"));
        };
        if std::mem::replace(&mut self.answered[i], true) {
            return out.wrong(format!("second response to request {i}: {line}"));
        }
        match self.answer(&v, self.reqs[i].pair) {
            Ok(a) => {
                if a.degraded {
                    out.degraded += 1;
                }
                self.answers[i] = Some(a);
            }
            Err(Ok(why)) => out.fail(format!("request {i}: {why}")),
            Err(Err(why)) => out.wrong(format!("request {i}: {why}")),
        }
    }

    /// `Err(Ok(_))` for a failed request, `Err(Err(_))` for a wrong answer.
    fn answer(&mut self, v: &Json, pair: usize) -> Result<Answer, Result<String, String>> {
        let field = |k: &str| v.get(k);
        match field("status").and_then(Json::as_str) {
            Some("ok") => {}
            Some("error") => {
                let kind = field("kind").and_then(Json::as_str).unwrap_or("?");
                let message = field("message").and_then(Json::as_str).unwrap_or("");
                return Err(Ok(format!("error {kind}: {message}")));
            }
            _ => return Err(Err("response without a status".into())),
        }
        let energy = field("energy")
            .and_then(Json::as_f64)
            .ok_or_else(|| Err("ok response without an energy".to_string()))?;
        let lower_bound = field("lower_bound")
            .and_then(Json::as_f64)
            .ok_or_else(|| Ok("no certified lower bound".to_string()))?;
        check_bound(energy, lower_bound).map_err(Err)?;
        let degraded = field("degraded")
            .and_then(Json::as_bool)
            .ok_or_else(|| Err("ok response without 'degraded'".to_string()))?;
        if !degraded {
            let bits = (energy.to_bits(), lower_bound.to_bits());
            let first = *self.by_pair.entry(pair).or_insert(bits);
            if first != bits {
                return Err(Err(format!(
                    "energy {energy} / bound {lower_bound} differs from an earlier answer \
                     to the same request ({} / {})",
                    f64::from_bits(first.0),
                    f64::from_bits(first.1)
                )));
            }
        }
        Ok(Answer {
            energy,
            lower_bound,
            degraded,
        })
    }
}

/// Run `serve-mixed`.
pub fn run(cfg: &Config) -> RunResult {
    let previous = ssp_model::par::set_thread_override(Some(1));
    let mut out = RunResult::default();
    if let Err(e) = run_pinned(cfg, &mut out) {
        // The server never answered its warm-up: nothing was measured.
        out.attempted += 1;
        out.wrong(e);
    }
    ssp_model::par::set_thread_override(previous);
    out
}

/// One pass over the traffic against a fresh server. A traced run sends
/// the first half of the traffic in half the time, then replays what it
/// sent layer by layer.
fn run_pinned(cfg: &Config, out: &mut RunResult) -> Result<(), String> {
    let (ready, setup_s) = stats::timed_setup(stats::SETUPS, || setup(cfg));
    let (reqs, serving) = ready?;
    let (reqs, guard) = if cfg.trace {
        (&reqs[..reqs.len() / 2], cfg.guard() / 2)
    } else {
        (&reqs[..], cfg.guard())
    };
    let pass = pass(serving, reqs, guard, out);
    let mut digest = Digest::default();
    for a in pass.checker.answers.iter().flatten() {
        if !a.degraded {
            digest.eat(a.energy);
            digest.eat(a.lower_bound);
        }
    }
    out.digest = Some(digest);
    let server = pass.stats;
    out.note(format!(
        "server: {} cache hits, {} misses, {} shed, {} rejected",
        server.cache_hits, server.cache_misses, server.shed, server.rejected
    ));

    if cfg.trace {
        replay(&reqs[..pass.raw.len()], &pass.checker.answers, cfg, out);
        out.set(
            "serve.cache_hit_ratio",
            ratio(server.cache_hits, server.cache_misses),
        );
        out.set("serve.shed", server.shed as f64);
        out.set("serve.rejected", server.rejected as f64);
        return Ok(());
    }

    let raw_rate = stats::rate(&pass.raw);
    out.as_measured(&Latency::of(pass.raw), raw_rate);
    let throughput = stats::rate(&pass.normalized);
    out.e2e(setup_s, &Latency::of(pass.normalized), throughput);
    Ok(())
}

/// The server's request path taken apart into the public call of each
/// layer, each under a span: parse, fingerprint, cache lookup, solve and
/// cache insert on a miss, response encoding. Returns `(energy, bound)`.
fn serve_by_layer(line: &str, cache: &mut ResultCache) -> Result<(f64, f64), String> {
    let admitted = Instant::now();
    let req = {
        let _s = span("serve.parse");
        parse_request(line)
    }
    .map_err(|r| format!("{}: {}", r.kind, r.message))?;
    let fp = {
        let _s = span("serve.fingerprint");
        Fingerprint::of(&req.instance)
    };
    let hit = {
        let _s = span("serve.cache");
        cache.get(&fp, req.algo)
    };
    let (result, disposition) = match hit {
        Some(hit) => (hit, CacheDisposition::Hit),
        None => {
            let (budget, _) = deadline_budget(Budget::unlimited(), admitted, req.timeout);
            let opts = SolveOptions {
                budget,
                ..SolveOptions::default()
            };
            let report = {
                let _s = span("serve.solve");
                ssp_harness::solve(&req.instance, req.algo, &opts)
            };
            let outcome = report
                .outcome
                .filter(|o| o.algorithm == req.algo && o.budget_exhausted.is_none())
                .ok_or("the requested algorithm did not answer in full")?;
            let result = CachedResult {
                energy: outcome.stats.energy,
                lower_bound: report.lower_bound,
                lb_ratio: outcome.lb_ratio,
            };
            {
                let _s = span("serve.cache");
                cache.insert(fp, req.algo, result.clone());
            }
            (result, CacheDisposition::Miss)
        }
    };
    let _line = {
        let _s = span("serve.encode");
        OkResponse {
            id: req.id,
            algorithm: req.algo,
            requested: req.algo,
            energy: result.energy,
            lower_bound: result.lower_bound,
            lb_ratio: result.lb_ratio,
            degraded: false,
            degrade_reason: None,
            budget_exhausted: None,
            cache: disposition,
            retries: 0,
            wall_us: admitted.elapsed().as_micros() as u64,
        }
        .to_line()
    };
    let lb = result.lower_bound.ok_or("no certified lower bound")?;
    Ok((result.energy, lb))
}

/// What the replay of one request shows.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The untraced and traced replays agree, and with the server's answer
    /// when that was a full-fidelity one.
    Agrees,
    /// Nothing to compare: neither replay answered in full, and neither did
    /// the server (it failed the request, fell back or ran out of budget;
    /// the pass counted that).
    Skip,
    /// The replay disagrees with itself or with the server.
    Wrong(String),
}

/// Judge one request's untraced and traced replays against the server's
/// answer, `None` when the server failed the request.
fn verdict(
    untraced: Result<(f64, f64), String>,
    traced: Result<(f64, f64), String>,
    served: Option<Answer>,
) -> Verdict {
    let bits = |(e, b): (f64, f64)| (e.to_bits(), b.to_bits());
    let full = served.filter(|s| !s.degraded);
    match (untraced, traced) {
        (Ok(a), Ok(b)) if bits(a) == bits(b) => match full {
            Some(s) if bits((s.energy, s.lower_bound)) != bits(a) => Verdict::Wrong(format!(
                "gave {a:?}, the server ({}, {})",
                s.energy, s.lower_bound
            )),
            _ => Verdict::Agrees,
        },
        (Err(_), Err(_)) if full.is_none() => Verdict::Skip,
        (a, b) => Verdict::Wrong(format!("untraced {a:?}, traced {b:?}")),
    }
}

/// `--trace`: replay the requests the pass sent, in order, each once
/// untraced and once traced (two caches, so both see the same hits), and
/// check the replay against the server's answer bit for bit.
fn replay(reqs: &[Req], served: &[Option<Answer>], cfg: &Config, out: &mut RunResult) {
    let start = Instant::now();
    let limit = cfg.seconds / 2;
    let cap = ServeOptions::default().cache_cap;
    let (mut plain, mut traced_cache) = (ResultCache::new(cap), ResultCache::new(cap));
    let mut ledger = Ledger::default();
    let mut files = TraceFiles::new(&cfg.run_name(), 16);
    for (i, req) in reqs.iter().enumerate() {
        if start.elapsed() >= limit {
            break;
        }
        let t = Instant::now();
        let untraced = serve_by_layer(&req.line, &mut plain);
        let untraced_wall = t.elapsed();
        let (traced, trace, traced_wall) =
            trace_unit(|| serve_by_layer(&req.line, &mut traced_cache));
        match verdict(untraced, traced, served[i]) {
            Verdict::Agrees => {}
            Verdict::Skip => continue,
            Verdict::Wrong(why) => {
                out.wrong(format!("replay of request {i}: {why}"));
                continue;
            }
        }
        ledger.absorb(&trace, 1);
        ledger.untraced_ns += untraced_wall.as_nanos() as u64;
        ledger.traced_ns += traced_wall.as_nanos() as u64;
        if let Err(e) = files.keep(i, &trace) {
            out.wrong(e);
        }
    }
    out.layers(&ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_worker_reads_the_yardstick_before_handing_over_the_response() {
        let spin = Arc::new(Spin {
            outstanding: AtomicUsize::new(3),
            done: AtomicBool::new(true),
        });
        let (sink, rx) = sink(spin);
        let worker = Arc::clone(&sink);
        std::thread::spawn(move || {
            worker("a");
            worker("b");
        })
        .join()
        .expect("the sink does not panic");
        let (a, b) = (rx.recv().unwrap(), rx.recv().unwrap());
        // The worker's first response carries a reading, taken after the
        // response was stamped and before it was handed over: the next
        // response is stamped after the reading ended.
        let reading = a.reading.expect("a reading after the first response");
        assert!(stats::ms(b.at - a.at) >= reading);
        if b.at - a.at < PERIOD {
            assert!(b.reading.is_none());
        }
        // A rejection, answered on the submitting thread, takes no reading.
        sink("c");
        let c = rx.recv().unwrap();
        assert_eq!((c.line.as_str(), c.reading), ("c", None));
    }

    #[test]
    fn replay_verdicts() {
        let full = Answer {
            energy: 2.0,
            lower_bound: 1.0,
            degraded: false,
        };
        let degraded = Answer {
            degraded: true,
            ..full
        };
        let err = || Err::<(f64, f64), _>("did not answer in full".to_string());
        // The server degraded the request (fell back, or ran out of
        // budget), and the replay cannot answer it in full either.
        assert_eq!(verdict(err(), err(), Some(degraded)), Verdict::Skip);
        assert_eq!(verdict(err(), err(), None), Verdict::Skip);
        // The server answered in full; the replay must too, and the same.
        assert!(matches!(
            verdict(err(), err(), Some(full)),
            Verdict::Wrong(_)
        ));
        assert_eq!(
            verdict(Ok((2.0, 1.0)), Ok((2.0, 1.0)), Some(full)),
            Verdict::Agrees
        );
        assert!(matches!(
            verdict(Ok((3.0, 1.0)), Ok((3.0, 1.0)), Some(full)),
            Verdict::Wrong(_)
        ));
        // A degraded answer is not compared with a full replay; the two
        // replays still must agree.
        assert_eq!(
            verdict(Ok((3.0, 1.0)), Ok((3.0, 1.0)), Some(degraded)),
            Verdict::Agrees
        );
        assert!(matches!(
            verdict(Ok((2.0, 1.0)), Ok((2.5, 1.0)), Some(degraded)),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            verdict(Ok((2.0, 1.0)), err(), None),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn traffic_is_seeded_and_repeats_about_30_percent() {
        let a = traffic(5, 400, SMOKE_SIZES);
        let b = traffic(5, 400, SMOKE_SIZES);
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        let repeats = a
            .iter()
            .enumerate()
            .filter(|(i, r)| a[..*i].iter().any(|p| p.pair == r.pair))
            .count();
        assert!((80..160).contains(&repeats), "{repeats} repeats of 400");
        for r in &a {
            let req = parse_request(&r.line).expect("generated lines parse");
            assert_eq!(req.timeout, Some(Duration::from_millis(TIMEOUT_MS)));
        }
        assert_ne!(traffic(6, 1, SMOKE_SIZES)[0].line, a[0].line);
    }
}
