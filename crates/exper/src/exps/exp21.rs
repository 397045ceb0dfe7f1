//! EXP-21 — service soak/chaos: the `ssp serve` stack under sustained
//! mixed-family load with corrupted instances in the stream.
//!
//! Drives thousands of requests (5000 full, 250 quick) from several
//! submitter threads through an in-process [`ssp_serve::Server`] — the same
//! code path the daemon serves over stdin and its Unix socket. The traffic
//! is hostile on purpose:
//!
//! * instances drawn from a finite pool of mixed workload families, so the
//!   fingerprint cache sees genuine repeated traffic;
//! * ~2% corrupted instances from the harness [`FaultPlan`]
//!   (NaN/inf fields, inverted windows, zero machines, mangled text …);
//! * a slice of requests carries near-zero deadlines, exercising
//!   cooperative cancellation and deadline shedding;
//! * admission control stays bounded — submitters observe rejects and
//!   back off, like a real client.
//!
//! Acceptance (asserted, not just reported): zero panics escape the
//! per-request isolation; every submission gets exactly one well-formed
//! response; every response that carries a certified bound — including
//! degraded and cache-hit responses — satisfies `energy >= (1-1e-9)·LB`;
//! the cache hit-rate is nonzero. The report includes solves/sec and
//! p50/p99 request latency from the `serve.request_us` histogram.

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_harness::fault::FaultPlan;
use ssp_probe::json::{self, Json};
use ssp_serve::{ServeOptions, Server};
use ssp_workloads::{families, subseed};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Build one request line with the instance as embedded `.ssp` text.
fn request_line(id: &str, algo: &str, instance_text: &str, timeout_ms: Option<f64>) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("algo".to_string(), Json::Str(algo.to_string())),
        ("instance".to_string(), Json::Str(instance_text.to_string())),
    ];
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms".to_string(), Json::Num(ms)));
    }
    Json::Obj(fields).to_string_compact()
}

/// Run EXP-21.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let total = cfg.pick(5000, 250);
    let submitters = cfg.pick(4, 2);
    let workers = cfg.pick(8, 4);

    // A finite instance pool: repeated traffic is what gives the
    // fingerprint cache something to do.
    let pool_size = cfg.pick(48, 12);
    let pool: Vec<String> = (0..pool_size)
        .map(|k| {
            let s = subseed(cfg.seed ^ 0x21, k as u64);
            let inst = match k % 4 {
                0 => families::general(8, 2, 2.0).gen(s),
                1 => families::bursty(10, 3, 2.5).gen(s),
                2 => families::unit_arbitrary(6, 2, 2.0).gen(s),
                _ => families::weighted_agreeable(7, 2, 3.0).gen(s),
            };
            ssp_model::io::emit(&inst)
        })
        .collect();
    let plan = FaultPlan::new(cfg.seed ^ 0xFA);
    let algos = ["bal", "rr", "local", "greedy", "least-loaded", "avr", "oa"];

    let session = ssp_probe::Session::begin()
        .expect("exp21 needs the probe idle (the runner owns its session)");
    let span = ssp_probe::span("exp21.soak");
    let mut server = Server::start(ServeOptions {
        workers,
        queue_cap: 256,
        shed_watermark: 192,
        default_timeout: Some(Duration::from_secs(5)),
        cache_cap: 512,
        ..Default::default()
    });

    let responses: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::with_capacity(total)));
    let backoffs = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..submitters {
            let handle = server.handle();
            let sink_lines = Arc::clone(&responses);
            let pool = &pool;
            let backoffs = &backoffs;
            scope.spawn(move || {
                let sink: ssp_serve::Sink = Arc::new(move |line: &str| {
                    sink_lines.lock().unwrap().push(line.to_string());
                });
                for i in (worker..total).step_by(submitters) {
                    let line = if i % 50 == 7 {
                        // ~2% corrupted/adversarial instances.
                        let case = plan.case(i / 50);
                        request_line(
                            &format!("q{i}-fault-{}", case.fault),
                            algos[i % algos.len()],
                            &case.text,
                            None,
                        )
                    } else {
                        let text = &pool[(i * 31 + 7) % pool.len()];
                        // A slice of near-zero deadlines keeps the
                        // cancellation/shedding path hot.
                        let timeout = match i % 17 {
                            0 => Some(1.0),
                            1 => Some(4.0),
                            _ => None,
                        };
                        request_line(&format!("q{i}"), algos[i % algos.len()], text, timeout)
                    };
                    if !handle.submit(&line, Arc::clone(&sink)) {
                        // Overload or shutdown: the reject is already
                        // answered; a real client backs off.
                        backoffs.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(500));
                    }
                }
            });
        }
    });
    server.shutdown();
    let elapsed = t0.elapsed();
    drop(span);
    let stats = server.stats();
    let trace = session.end();
    trace.validate().expect("exp21 trace must be well-formed");

    // -- acceptance: no escapes, one well-formed response per submission --
    assert_eq!(stats.panics, 0, "a panic escaped isolation: {stats:?}");
    assert_eq!(stats.submitted, total as u64);
    let responses = responses.lock().unwrap();
    assert_eq!(
        responses.len(),
        total,
        "every submission must be answered exactly once"
    );
    let (mut ok, mut errors, mut hits, mut degraded_ok, mut bounded) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for line in responses.iter() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("malformed response {line}: {e}"));
        assert!(v.get("id").is_some_and(|s| s.as_str().is_some()), "{line}");
        match v.get("status").and_then(|s| s.as_str()) {
            Some("ok") => {
                ok += 1;
                let energy = v.get("energy").and_then(|x| x.as_f64()).expect("energy");
                assert!(energy.is_finite() && energy >= 0.0, "{line}");
                let degraded = v.get("degraded").and_then(|d| d.as_bool()) == Some(true);
                if degraded {
                    degraded_ok += 1;
                }
                if v.get("cache").and_then(|c| c.as_str()) == Some("hit") {
                    hits += 1;
                }
                // Every certified bound met — degraded and cache-hit
                // responses included. (No bound is emitted when the lower
                // bound itself was cancelled by a tight deadline.)
                if let Some(ratio) = v.get("lb_ratio").and_then(|x| x.as_f64()) {
                    bounded += 1;
                    assert!(ratio >= 1.0 - 1e-9, "certified bound violated: {line}");
                }
            }
            Some("error") => {
                errors += 1;
                assert!(
                    v.get("kind").is_some_and(|k| k.as_str().is_some()),
                    "{line}"
                );
            }
            other => panic!("bad status {other:?} in {line}"),
        }
    }
    assert_eq!(ok, stats.ok);
    assert_eq!(errors, stats.errors + stats.rejected);
    assert_eq!(hits, stats.cache_hits, "cache-marked responses match stats");
    assert!(stats.cache_hits > 0, "repeated traffic must hit the cache");
    assert!(bounded > 0, "certified bounds must be exercised");

    let admitted = total as u64 - stats.rejected;
    let solves_per_sec = stats.completed() as f64 / elapsed.as_secs_f64();
    let hit_rate = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;

    let mut t = Table::new(
        "EXP-21 — service soak: mixed families, ~2% corrupted, tight deadlines",
        &["metric", "value"],
    );
    let rows: Vec<(&str, Cell)> = vec![
        ("requests submitted", Cell::Int(total as i64)),
        ("admitted", Cell::Int(admitted as i64)),
        (
            "rejected (admission control)",
            Cell::Int(stats.rejected as i64),
        ),
        (
            "submitter backoffs",
            Cell::Int(backoffs.load(Ordering::Relaxed) as i64),
        ),
        ("ok", Cell::Int(stats.ok as i64)),
        ("typed errors", Cell::Int(stats.errors as i64)),
        ("panics escaping isolation", Cell::Int(stats.panics as i64)),
        ("cache hits", Cell::Int(stats.cache_hits as i64)),
        ("cache hit-rate", Cell::Num(hit_rate, 3)),
        ("shed (load/deadline)", Cell::Int(stats.shed as i64)),
        ("degraded ok responses", Cell::Int(degraded_ok as i64)),
        ("responses with certified bound", Cell::Int(bounded as i64)),
        ("wall time s", Cell::Num(elapsed.as_secs_f64(), 2)),
        ("solves/sec", Cell::Num(solves_per_sec, 1)),
    ];
    for (k, v) in rows {
        t.push(vec![Cell::Text(k.to_string()), v]);
    }

    let mut lat = Table::new(
        "EXP-21 — request latency from the serve.request_us histogram",
        &[
            "histogram",
            "count",
            "p50 us",
            "p90 us",
            "p99 us",
            "max us",
            "mean us",
        ],
    );
    for name in ["serve.request_us", "serve.queue_depth"] {
        if let Some(h) = trace.hist(name) {
            lat.push(vec![
                Cell::Text(name.to_string()),
                Cell::Int(h.count as i64),
                Cell::Int(h.p50() as i64),
                Cell::Int(h.p90() as i64),
                Cell::Int(h.p99() as i64),
                Cell::Int(h.max as i64),
                Cell::Num(h.mean(), 1),
            ]);
        }
    }
    assert!(
        trace.hist("serve.request_us").is_some(),
        "latency histogram must have samples"
    );
    vec![t, lat]
}
