//! Chaos suite: the daemon must survive a sustained stream of hostile
//! traffic — corrupted instances from the harness [`FaultPlan`], raw
//! garbage, unknown algorithms, zero deadlines — with **zero daemon
//! deaths** and **exactly one well-formed response per submission**.
//!
//! This is the in-process half of the robustness acceptance; EXP-21 runs
//! the same service at soak scale with latency reporting, and CI's
//! serve-smoke drives the real binary over a Unix socket.

use ssp_harness::fault::{FaultPlan, FAULT_KINDS};
use ssp_probe::json::{self, Json};
use ssp_serve::{ServeOptions, Server, Sink};
use ssp_workloads::families;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn collecting_sink() -> (Sink, Arc<Mutex<Vec<String>>>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    let sink: Sink = Arc::new(move |line: &str| {
        sink_lines.lock().unwrap().push(line.to_string());
    });
    (sink, lines)
}

/// Build a request line with the instance embedded as `.ssp` text (the
/// same shape `serve-drive` and the CI smoke send).
fn request(id: &str, algo: &str, instance_text: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("algo".to_string(), Json::Str(algo.to_string())),
        ("instance".to_string(), Json::Str(instance_text.to_string())),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v.clone()));
    }
    Json::Obj(fields).to_string_compact()
}

#[test]
fn two_hundred_hostile_requests_cannot_kill_the_daemon() {
    const TOTAL: usize = 240;
    let mut server = Server::start(ServeOptions {
        workers: 4,
        queue_cap: TOTAL, // chaos here targets the solve path, not admission
        shed_watermark: usize::MAX,
        default_timeout: Some(Duration::from_secs(5)),
        ..Default::default()
    });
    let (sink, lines) = collecting_sink();

    let plan = FaultPlan::new(0xC4A05);
    let algos = ["bal", "rr", "local", "greedy", "least-loaded", "avr", "oa"];
    let mut submitted = 0usize;
    let mut fault_cases = 0usize;
    let mut expected_ids = Vec::new();
    for i in 0..TOTAL {
        let line = match i % 6 {
            // Corrupted / adversarial instances, cycling all fault kinds.
            0 | 1 => {
                let case = plan.case(fault_cases);
                fault_cases += 1;
                let id = format!("fault-{i}-{}", case.fault);
                expected_ids.push(id.clone());
                request(&id, algos[i % algos.len()], &case.text, &[])
            }
            // Raw garbage: not JSON at all, or JSON of the wrong shape.
            2 if i % 12 == 2 => "}{ not json at all".to_string(),
            2 => r#"[1,2,3]"#.to_string(),
            // Unknown algorithm on a valid instance.
            3 => {
                let inst = families::general(5, 2, 2.0).gen(i as u64);
                let id = format!("badalgo-{i}");
                expected_ids.push(id.clone());
                request(&id, "frobnicate", &ssp_model::io::emit(&inst), &[])
            }
            // Valid requests, some with hostile deadlines/no_fallback.
            _ => {
                let inst = families::bursty(7, 2, 2.5).gen(i as u64);
                let id = format!("ok-{i}");
                expected_ids.push(id.clone());
                let extra: Vec<(&str, Json)> = match i % 5 {
                    0 => vec![
                        ("timeout_ms", Json::Num(0.0)),
                        ("no_fallback", Json::Bool(true)),
                    ],
                    1 => vec![("timeout_ms", Json::Num(1.0))],
                    _ => vec![],
                };
                request(
                    &id,
                    algos[i % algos.len()],
                    &ssp_model::io::emit(&inst),
                    &extra,
                )
            }
        };
        server.submit(&line, Arc::clone(&sink));
        submitted += 1;
    }
    assert!(submitted >= 200, "chaos volume floor");
    // The fault menu is cycled by case index, so this covers every kind.
    assert!(fault_cases >= FAULT_KINDS, "fault menu fully cycled");

    server.shutdown();
    let stats = server.stats();

    // Zero daemon deaths: shutdown returned, workers joined, and no panic
    // ever escaped per-request isolation.
    assert_eq!(stats.panics, 0, "no panics even under chaos: {stats:?}");
    assert_eq!(stats.submitted, TOTAL as u64);
    assert_eq!(stats.rejected, 0, "queue was sized for the whole stream");
    assert_eq!(
        stats.completed(),
        TOTAL as u64,
        "every admitted request completed: {stats:?}"
    );

    // Every response is well-formed: parseable JSON, a status, an id; typed
    // errors carry a kind, successes carry finite energy.
    let lines = lines.lock().unwrap();
    assert_eq!(lines.len(), TOTAL, "exactly one response per submission");
    let mut seen_ids = Vec::new();
    for line in lines.iter() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("malformed response {line}: {e}"));
        let id = v.get("id").and_then(|s| s.as_str()).expect("id present");
        match v.get("status").and_then(|s| s.as_str()) {
            Some("ok") => {
                let energy = v
                    .get("energy")
                    .and_then(|x| x.as_f64())
                    .unwrap_or_else(|| panic!("no finite energy in {line}"));
                assert!(energy.is_finite() && energy >= 0.0, "{line}");
                if let Some(ratio) = v.get("lb_ratio").and_then(|x| x.as_f64()) {
                    assert!(ratio >= 1.0 - 1e-9, "bound violated: {line}");
                }
            }
            Some("error") => {
                let kind = v.get("kind").and_then(|s| s.as_str()).expect("kind");
                assert!(!kind.is_empty(), "{line}");
                assert!(v.get("message").is_some(), "{line}");
            }
            other => panic!("bad status {other:?} in {line}"),
        }
        if !id.is_empty() {
            seen_ids.push(id.to_string());
        }
    }
    // Ids round-trip: every well-formed request's id appears exactly once.
    seen_ids.sort();
    expected_ids.sort();
    for id in &expected_ids {
        assert!(
            seen_ids.binary_search(id).is_ok(),
            "request {id} never answered"
        );
    }
}

/// Construction faults must come back as typed `model` errors carrying the
/// salvaged request id — the parse boundary, not the solver, rejects them.
#[test]
fn construction_faults_are_typed_model_errors() {
    let mut server = Server::start(ServeOptions {
        workers: 2,
        ..Default::default()
    });
    let (sink, lines) = collecting_sink();
    let plan = FaultPlan::new(7);
    let mut bad = 0usize;
    for case in plan.cases(FAULT_KINDS) {
        if case.instance.is_err() {
            bad += 1;
            server.submit(
                &request(&format!("c{}", case.index), "rr", &case.text, &[]),
                Arc::clone(&sink),
            );
        }
    }
    assert!(bad > 0, "the menu contains construction faults");
    server.shutdown();
    let lines = lines.lock().unwrap();
    assert_eq!(lines.len(), bad);
    for line in lines.iter() {
        let v = json::parse(line).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"), "{line}");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("model"), "{line}");
        assert!(
            v.get("id").unwrap().as_str().unwrap().starts_with('c'),
            "{line}"
        );
    }
    assert_eq!(server.stats().panics, 0);
}
