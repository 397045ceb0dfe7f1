//! The `ssp serve` wire protocol: one JSON object per line, in and out.
//!
//! A request names an algorithm and carries an instance, either structured
//! (`{"machines":2,"alpha":2.0,"jobs":[[id,work,release,deadline],…]}`) or
//! as an embedded `.ssp` text document (the same format `ssp solve` reads
//! from disk). Every response — success or failure — echoes the request
//! `id` so clients can pipeline: responses come back in completion order,
//! not submission order.
//!
//! Failures are *typed*: `status:"error"` plus a stable `kind` drawn from
//! the [`ssp_model::SolveError`] kinds extended with the service-level
//! `"parse"`, `"overload"`, and `"shutdown"`. A malformed request can never
//! produce a malformed response — the error path re-serializes through the
//! same writer as the success path. See `docs/SERVE.md` for the full field
//! tables.

use ssp_harness::Algo;
use ssp_model::{io, Instance};
use ssp_probe::json::{self, Json};
use std::time::Duration;

/// A parsed, validated solve request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    /// The requested algorithm.
    pub algo: Algo,
    /// The instance to solve.
    pub instance: Instance,
    /// Per-request deadline, measured from admission; `None` = server
    /// default.
    pub timeout: Option<Duration>,
    /// Disable the harness degradation chain for this request (the
    /// requested algorithm either succeeds or the request fails typed).
    pub no_fallback: bool,
}

/// A typed request-rejection: stable kind + human-readable message.
#[derive(Debug, Clone)]
pub struct Reject {
    /// Best-effort request id salvaged from the raw line ("" when even the
    /// id could not be recovered).
    pub id: String,
    /// Stable machine-readable failure class (`"parse"`, `"model"`,
    /// `"unknown-algorithm"`, …).
    pub kind: &'static str,
    /// What went wrong.
    pub message: String,
}

/// Where the result came from, reported on every success response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the fingerprint cache without solving.
    Hit,
    /// Solved; the result was considered for caching.
    Miss,
    /// Solved; caching was disabled or the result was ineligible.
    Bypass,
}

impl CacheDisposition {
    fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
        }
    }
}

/// Everything a success response carries.
#[derive(Debug, Clone)]
pub struct OkResponse {
    /// Echoed request id.
    pub id: String,
    /// Algorithm whose schedule was accepted.
    pub algorithm: Algo,
    /// Algorithm the client asked for.
    pub requested: Algo,
    /// Validated schedule energy.
    pub energy: f64,
    /// Certified BAL/KKT lower bound, when computed.
    pub lower_bound: Option<f64>,
    /// `energy / lower_bound`, when a bound exists.
    pub lb_ratio: Option<f64>,
    /// True when the service did not deliver the requested algorithm at
    /// full fidelity: load shedding picked a cheaper algorithm up front,
    /// or the harness fell back along its chain.
    pub degraded: bool,
    /// Why the response is degraded (`"load"`, `"deadline-pressure"`,
    /// `"fallback"`), when it is.
    pub degrade_reason: Option<&'static str>,
    /// Budget-exhaustion marker from the winning solver (`"iterations"`,
    /// `"time"`, `"deadline"`, `"cancelled"`), if it stopped early with a
    /// valid best-so-far schedule.
    pub budget_exhausted: Option<&'static str>,
    /// Cache disposition for this response.
    pub cache: CacheDisposition,
    /// Always 0: every request makes one attempt. The field keeps the
    /// response schema (`"retries":0`) stable for existing clients.
    pub retries: u32,
    /// Wall-clock admission→response latency in microseconds.
    pub wall_us: u64,
}

impl OkResponse {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("status".to_string(), Json::Str("ok".into())),
            (
                "algorithm".to_string(),
                Json::Str(self.algorithm.name().into()),
            ),
            (
                "requested".to_string(),
                Json::Str(self.requested.name().into()),
            ),
            ("energy".to_string(), Json::Num(self.energy)),
            (
                "lower_bound".to_string(),
                self.lower_bound.map_or(Json::Null, Json::Num),
            ),
            (
                "lb_ratio".to_string(),
                self.lb_ratio.map_or(Json::Null, Json::Num),
            ),
            ("degraded".to_string(), Json::Bool(self.degraded)),
            (
                "degrade_reason".to_string(),
                self.degrade_reason
                    .map_or(Json::Null, |r| Json::Str(r.into())),
            ),
            (
                "budget_exhausted".to_string(),
                self.budget_exhausted
                    .map_or(Json::Null, |r| Json::Str(r.into())),
            ),
            ("cache".to_string(), Json::Str(self.cache.name().into())),
            ("retries".to_string(), Json::Num(self.retries as f64)),
            ("wall_us".to_string(), Json::Num(self.wall_us as f64)),
        ];
        fields.shrink_to_fit();
        Json::Obj(fields).to_string_compact()
    }
}

/// Serialize a typed error response to one JSONL line (no newline).
pub fn error_line(id: &str, kind: &str, message: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("status".to_string(), Json::Str("error".into())),
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("message".to_string(), Json::Str(message.to_string())),
    ])
    .to_string_compact()
}

/// Best-effort id extraction from a raw request line, so even unparseable
/// requests get a correlatable error response.
pub fn salvage_id(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(|s| s.as_str().map(String::from)))
        .unwrap_or_default()
}

/// Parse and validate one request line.
pub fn parse_request(line: &str) -> Result<Request, Reject> {
    let reject = |id: &str, kind: &'static str, message: String| Reject {
        id: id.to_string(),
        kind,
        message,
    };
    let root = json::parse(line).map_err(|e| reject("", "parse", format!("bad JSON: {e}")))?;
    if !matches!(root, Json::Obj(_)) {
        return Err(reject("", "parse", "request must be a JSON object".into()));
    }
    let id = root
        .get("id")
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string();
    let algo_name = match root.get("algo") {
        None => "bal",
        Some(v) => v
            .as_str()
            .ok_or_else(|| reject(&id, "parse", "'algo' must be a string".into()))?,
    };
    let algo =
        Algo::from_name(algo_name).map_err(|e| reject(&id, "unknown-algorithm", e.to_string()))?;
    let timeout = match root.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            reject(
                &id,
                "parse",
                "'timeout_ms' must be a non-negative integer".into(),
            )
        })?)),
    };
    let no_fallback = match root.get("no_fallback") {
        None | Some(Json::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| reject(&id, "parse", "'no_fallback' must be a boolean".into()))?,
    };
    let instance = match root.get("instance") {
        None => return Err(reject(&id, "parse", "missing 'instance'".into())),
        Some(Json::Str(text)) => {
            io::parse(text).map_err(|e| reject(&id, "model", e.to_string()))?
        }
        Some(obj @ Json::Obj(_)) => {
            parse_structured_instance(obj).map_err(|(kind, msg)| reject(&id, kind, msg))?
        }
        Some(_) => {
            return Err(reject(
                &id,
                "parse",
                "'instance' must be an object or an .ssp text string".into(),
            ))
        }
    };
    Ok(Request {
        id,
        algo,
        instance,
        timeout,
        no_fallback,
    })
}

/// Cap on jobs per request: admission control against memory bombs. One
/// request is one instance, and nothing in the workspace solves 10^6-job
/// instances interactively.
pub const MAX_REQUEST_JOBS: usize = 100_000;

fn parse_structured_instance(obj: &Json) -> Result<Instance, (&'static str, String)> {
    let machines = obj.get("machines").and_then(|v| v.as_u64()).ok_or((
        "parse",
        "'instance.machines' must be a positive integer".to_string(),
    ))?;
    let alpha = obj
        .get("alpha")
        .and_then(|v| v.as_f64())
        .ok_or(("parse", "'instance.alpha' must be a number".to_string()))?;
    let jobs_json = obj
        .get("jobs")
        .and_then(|v| v.as_arr())
        .ok_or(("parse", "'instance.jobs' must be an array".to_string()))?;
    if jobs_json.len() > MAX_REQUEST_JOBS {
        return Err((
            "parse",
            format!(
                "{} jobs exceeds the per-request cap {MAX_REQUEST_JOBS}",
                jobs_json.len()
            ),
        ));
    }
    let mut jobs = Vec::with_capacity(jobs_json.len());
    for (i, j) in jobs_json.iter().enumerate() {
        let tuple = j.as_arr().filter(|t| t.len() == 4).ok_or((
            "parse",
            format!("job {i} must be [id, work, release, deadline]"),
        ))?;
        let id = tuple[0]
            .as_u64()
            .filter(|&v| v <= u32::MAX as u64)
            .ok_or(("parse", format!("job {i}: id must be a u32")))?;
        let nums: Vec<f64> = tuple[1..]
            .iter()
            .map(|v| v.as_f64())
            .collect::<Option<_>>()
            .ok_or((
                "parse",
                format!("job {i}: work/release/deadline must be numbers"),
            ))?;
        jobs.push(ssp_model::Job::new(id as u32, nums[0], nums[1], nums[2]));
    }
    Instance::new(jobs, machines as usize, alpha).map_err(|e| ("model", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line carries `retries`, which is not a request key: like any
    /// unknown key it is ignored, so clients that still send it keep
    /// working.
    #[test]
    fn parses_a_structured_request() {
        let line = r#"{"id":"r1","algo":"bal","timeout_ms":250,"retries":2,
            "instance":{"machines":2,"alpha":2.0,"jobs":[[0,1.5,0.0,2.0],[1,1.0,0.5,3.0]]}}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.algo, Algo::Bal);
        assert_eq!(req.timeout, Some(Duration::from_millis(250)));
        assert!(!req.no_fallback);
        assert_eq!(req.instance.len(), 2);
        assert_eq!(req.instance.machines(), 2);
    }

    #[test]
    fn parses_an_ssp_text_instance() {
        let text = "machines 2\nalpha 2.0\njob 0 1.5 0.0 2.0\njob 1 1.0 0.5 3.0\n";
        let line = Json::Obj(vec![
            ("id".into(), Json::Str("t".into())),
            ("algo".into(), Json::Str("rr".into())),
            ("instance".into(), Json::Str(text.into())),
        ])
        .to_string_compact();
        let req = parse_request(&line).unwrap();
        assert_eq!(req.algo, Algo::Rr);
        assert_eq!(req.instance.len(), 2);
    }

    #[test]
    fn defaults_algo_to_bal() {
        let line = r#"{"id":"d","instance":{"machines":1,"alpha":2,"jobs":[[0,1,0,1]]}}"#;
        assert_eq!(parse_request(line).unwrap().algo, Algo::Bal);
    }

    #[test]
    fn rejections_are_typed_and_keep_the_id() {
        let cases: &[(&str, &str)] = &[
            ("not json at all", "parse"),
            ("[1,2,3]", "parse"),
            (
                r#"{"id":"x","algo":7,"instance":{"machines":1,"alpha":2,"jobs":[]}}"#,
                "parse",
            ),
            (
                r#"{"id":"x","algo":"nope","instance":{"machines":1,"alpha":2,"jobs":[]}}"#,
                "unknown-algorithm",
            ),
            (r#"{"id":"x"}"#, "parse"),
            (
                r#"{"id":"x","instance":{"machines":0,"alpha":2,"jobs":[]}}"#,
                "model",
            ),
            (
                r#"{"id":"x","instance":{"machines":1,"alpha":2,"jobs":[[0,-1,0,1]]}}"#,
                "model",
            ),
            (
                r#"{"id":"x","instance":{"machines":1,"alpha":2,"jobs":[[0,1,2,1]]}}"#,
                "model",
            ),
            (r#"{"id":"x","instance":"machines zero"}"#, "model"),
            (r#"{"id":"x","instance":7}"#, "parse"),
            (
                r#"{"id":"x","timeout_ms":-5,"instance":{"machines":1,"alpha":2,"jobs":[]}}"#,
                "parse",
            ),
        ];
        for (line, kind) in cases {
            let rej = parse_request(line).unwrap_err();
            assert_eq!(rej.kind, *kind, "{line}");
            if line.contains("\"id\":\"x\"") {
                assert_eq!(rej.id, "x", "{line}");
            }
        }
    }

    #[test]
    fn salvages_ids_from_broken_requests() {
        assert_eq!(salvage_id(r#"{"id":"q9","instance":7}"#), "q9");
        assert_eq!(salvage_id("garbage"), "");
    }

    #[test]
    fn responses_are_parseable_json_with_stable_fields() {
        let ok = OkResponse {
            id: "a\"b".into(),
            algorithm: Algo::Rr,
            requested: Algo::Bal,
            energy: 12.5,
            lower_bound: Some(12.0),
            lb_ratio: Some(12.5 / 12.0),
            degraded: true,
            degrade_reason: Some("load"),
            budget_exhausted: None,
            cache: CacheDisposition::Miss,
            retries: 0,
            wall_us: 420,
        };
        let v = json::parse(&ok.to_line()).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("rr"));
        assert_eq!(v.get("requested").unwrap().as_str(), Some("bal"));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("degrade_reason").unwrap().as_str(), Some("load"));
        assert_eq!(v.get("budget_exhausted"), Some(&Json::Null));
        assert_eq!(v.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(v.get("retries").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("wall_us").unwrap().as_u64(), Some(420));

        let err = error_line("x", "overload", "queue full (64)");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("overload"));
    }
}
