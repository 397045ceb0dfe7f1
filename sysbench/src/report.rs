//! What one workload run reports: the metric tables, the tally of failed
//! and wrong operations, and the printed and machine-readable forms.

use crate::ledger::{ratio, Ledger, UNIT};
use crate::stats::{self, Digest, Latency};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload untraced: `(name, unit)`.
/// BENCHMARK.json lists the same names with their regression bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("success_rate", "fraction"),
    ("full_fidelity_rate", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload under `--trace`. Times are
/// means per traced unit (a request, or a pushed job), and only of layers
/// every workload reaches; a layer only some workloads reach is given as its
/// share of the units' time (`_share`, its ms are that × `bench.unit_ms`),
/// or as a count or ratio, and reads 0 where the workload does not reach it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.unit_ms", "ms"),
    ("bench.coverage_min", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
    ("migratory.bal_ms", "ms"),
    ("migratory.bal_share", "fraction"),
    ("migratory.kkt_share", "fraction"),
    ("wap.sweep_ms", "ms"),
    ("wap.fallback_ms", "ms"),
    ("wap.fast_path_ratio", "fraction"),
    ("wap.sweep_skip", "count"),
    ("bal.rounds", "count"),
    ("bal.flow_calls", "count"),
    ("maxflow.dinic.augmentations", "count"),
    ("maxflow.rebuild", "count"),
    ("maxflow.warm_reuse_ratio", "fraction"),
    ("core.assign_share", "fraction"),
    ("single.yds_share", "fraction"),
    ("yds.peels", "count"),
    ("model.validate_share", "fraction"),
    ("serve.parse_share", "fraction"),
    ("serve.fingerprint_share", "fraction"),
    ("serve.cache_share", "fraction"),
    ("serve.solve_share", "fraction"),
    ("serve.encode_share", "fraction"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("online.lb_share", "fraction"),
    ("online.replans", "count"),
    ("online.compactions", "count"),
    ("eval.live_hit_ratio", "fraction"),
];

/// Problems printed in full per run; the rest are only counted.
const SHOWN_PROBLEMS: u64 = 10;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: requests, or pushed jobs.
    pub attempted: u64,
    /// Operations that failed: typed errors, rejections, unanswered
    /// requests, answers without a certified lower bound.
    pub failed: u64,
    /// Answers that are wrong: an invalid schedule, energy below the
    /// certified bound, a layer replay that disagrees with the entry point.
    pub wrong: u64,
    /// Answers that fell back to a cheaper algorithm or were shed.
    pub degraded: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// The timing metrics as measured, before the yardstick normalized
    /// them: printed and written to `--out`, not reported as metrics.
    pub measured: Vec<(&'static str, f64)>,
    /// Lines printed with the metrics (sample counts, context).
    pub notes: Vec<String>,
    /// Digest of the run's deterministic answers.
    pub digest: Option<Digest>,
}

impl RunResult {
    /// Count a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problem("failed", why);
    }

    /// Count a wrong answer.
    pub fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.problem("WRONG", why);
    }

    fn problem(&self, kind: &str, why: String) {
        if self.failed + self.wrong <= SHOWN_PROBLEMS {
            eprintln!("{kind}: {why}");
        }
    }

    /// Add a note printed with the metrics.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every answer checked out.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// The end-to-end metrics every workload derives the same way.
    /// `latency` is in ms; `throughput` in operations per second.
    pub fn e2e(&mut self, setup_s: f64, latency: &Latency, throughput: f64) {
        let attempted = self.attempted.max(1) as f64;
        self.note(format!("latency: {}", latency.note()));
        self.set("setup_s", setup_s);
        self.set("latency_p50_ms", latency.p50);
        self.set("latency_p90_ms", latency.tail);
        self.set("throughput_ops_s", throughput);
        self.set(
            "success_rate",
            1.0 - (self.failed + self.wrong) as f64 / attempted,
        );
        self.set("full_fidelity_rate", 1.0 - self.degraded as f64 / attempted);
        match stats::peak_rss_mb() {
            Ok(mb) => self.set("peak_rss_mb", mb),
            Err(e) => self.wrong(e),
        }
    }

    /// Record the run's latency and throughput as measured.
    pub fn as_measured(&mut self, latency: &Latency, throughput: f64) {
        self.measured = vec![
            ("latency_p50_ms", latency.p50),
            ("latency_p90_ms", latency.tail),
            ("throughput_ops_s", throughput),
        ];
    }

    /// Zero every per-layer metric, then fill those the ledger of traced
    /// units gives. Workloads set their own layer's metrics afterwards.
    pub fn layers(&mut self, l: &Ledger) {
        for (name, _) in PER_LAYER {
            self.set(name, 0.0);
        }
        if l.units == 0 {
            return;
        }
        self.note(format!("traced units: {}", l.units));
        let unit_ms = l.incl_ms(UNIT);
        let share = |ms: f64| if unit_ms > 0.0 { ms / unit_ms } else { 0.0 };
        self.set("bench.unit_ms", l.per_unit(unit_ms));
        self.set("bench.coverage_min", l.min_coverage);
        self.set(
            "bench.trace_overhead_frac",
            l.traced_ns as f64 / l.untraced_ns.max(1) as f64 - 1.0,
        );
        self.set(
            "migratory.bal_ms",
            l.per_unit(layer_ms(l, "migratory.bal", "bal")),
        );
        // Every BAL solve counts toward the share, through the program's
        // own `bal` span: the lower bound's, and a relax request's second
        // BAL inside `core.assign`.
        self.set("migratory.bal_share", share(l.incl_ms("bal")));
        self.set(
            "migratory.kkt_share",
            share(layer_ms(l, "migratory.kkt", "kkt.certify")),
        );
        self.set("wap.sweep_ms", l.per_unit(l.self_ms("wap.sweep")));
        self.set(
            "wap.fallback_ms",
            l.per_unit(l.self_ms("wap.fallback_build") + l.self_ms("wap.fallback_solve")),
        );
        self.set(
            "wap.fast_path_ratio",
            ratio(l.counter("wap.fast_path"), l.counter("wap.fast_fallback")),
        );
        self.set(
            "maxflow.warm_reuse_ratio",
            ratio(
                l.counter("maxflow.warm_reuse"),
                l.counter("maxflow.rebuild"),
            ),
        );
        for name in [
            "wap.sweep_skip",
            "bal.rounds",
            "bal.flow_calls",
            "maxflow.dinic.augmentations",
            "maxflow.rebuild",
            "yds.peels",
            "online.replans",
            "online.compactions",
        ] {
            self.set(name, l.per_unit(l.counter(name) as f64));
        }
        self.set(
            "model.validate_share",
            share(layer_ms(l, "model.validate", "validate")),
        );
        for (metric, span) in [
            ("core.assign_share", "core.assign"),
            ("single.yds_share", "single.yds"),
            ("serve.parse_share", "serve.parse"),
            ("serve.fingerprint_share", "serve.fingerprint"),
            ("serve.cache_share", "serve.cache"),
            ("serve.solve_share", "serve.solve"),
            ("serve.encode_share", "serve.encode"),
            ("online.lb_share", "online.compact"),
        ] {
            self.set(metric, share(l.incl_ms(span)));
        }
        self.set(
            "eval.live_hit_ratio",
            ratio(l.counter("eval.live_hit"), l.counter("eval.live_miss")),
        );
    }

    /// The metric table this run reports: per-layer when traced,
    /// end-to-end otherwise.
    pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable report: notes, one line per metric, the checks.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        if !self.measured.is_empty() {
            let measured: Vec<String> = self
                .measured
                .iter()
                .map(|(name, v)| format!("{name} {v:.6}"))
                .collect();
            let _ = writeln!(out, "  as measured: {}", measured.join(", "));
        }
        for (name, unit) in Self::table(trace) {
            let _ = writeln!(out, "  {name:<30} {:>14.6} {unit}", self.value(name));
        }
        if let Some(d) = &self.digest {
            let _ = writeln!(out, "  energy_digest {}", d.hex());
        }
        let _ = writeln!(
            out,
            "  checks: {} attempted, {} failed, {} wrong, {} degraded",
            self.attempted, self.failed, self.wrong, self.degraded
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of the run's table with its unit.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::table(trace)
            .iter()
            .map(|(name, unit)| {
                format!(
                    r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                    json_num(self.value(name))
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed + self.wrong,
            metrics.join(",")
        )
    }

    /// The `--out` line: the run's settings, its metrics by name, the
    /// timings as measured, and the digest.
    pub fn out_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        let values = |table: &[(&str, &str)]| -> String {
            table
                .iter()
                .map(|(name, _)| format!(r#""{name}":{}"#, json_num(self.value(name))))
                .collect::<Vec<_>>()
                .join(",")
        };
        let measured = self
            .measured
            .iter()
            .map(|(name, v)| format!(r#""{name}":{}"#, json_num(*v)))
            .collect::<Vec<_>>()
            .join(",");
        let (metrics, layers) = if trace {
            (String::new(), values(PER_LAYER))
        } else {
            (values(END_TO_END), String::new())
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let digest = self
            .digest
            .as_ref()
            .map_or("null".to_string(), |d| format!(r#""{}""#, d.hex()));
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"nproc":{nproc},"trace":{trace},"correct":{},"metrics":{{{metrics}}},"as_measured":{{{measured}}},"layers":{{{layers}}},"energy_digest":{digest}}}"#,
            self.correct()
        )
    }

    fn value(&self, name: &str) -> f64 {
        // Only a run that went wrong before measuring leaves a metric unset
        // (the smoke test checks every workload sets every one); it reads
        // NaN, never a plausible 0.
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Inclusive time of the benchmark's own span `bench` where the workload
/// opens one around the layer's public call, else of the program's span
/// `program` for the same work (serve and stream reach the layer only
/// through the program).
fn layer_ms(l: &Ledger, bench: &str, program: &str) -> f64 {
    if l.span_count(bench) > 0 {
        l.incl_ms(bench)
    } else {
        l.incl_ms(program)
    }
}

/// A JSON number. JSON has no infinity or NaN; a latency of a failed
/// request, or a metric a wrong run never measured, is reported as the
/// largest finite value, which misses every limit too.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_serve::json::{self, Json};

    fn filled(trace: bool) -> RunResult {
        let mut r = RunResult {
            attempted: 4,
            ..Default::default()
        };
        for (i, (name, _)) in RunResult::table(trace).iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        for trace in [false, true] {
            let v = json::parse(&filled(trace).json(trace)).expect("valid JSON");
            let Json::Obj(fields) = &v else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = v.get("metrics") else {
                panic!("metrics is not an object")
            };
            assert_eq!(metrics.len(), RunResult::table(trace).len());
            for (name, unit) in RunResult::table(trace) {
                let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            }
        }
    }

    #[test]
    fn infinite_latencies_stay_valid_json() {
        let mut r = filled(false);
        r.set("latency_p90_ms", f64::INFINITY);
        let v = json::parse(&r.json(false)).expect("valid JSON");
        let tail = v
            .get("metrics")
            .and_then(|m| m.get("latency_p90_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(tail, Some(f64::MAX));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let v = json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = v
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }

    #[test]
    fn out_line_carries_settings_metrics_and_digest() {
        let mut untraced = filled(false);
        untraced.as_measured(&Latency::of(vec![2.0, 4.0]), 3.0);
        let v = json::parse(&untraced.out_line("solve-general", 1, false)).expect("valid JSON");
        let measured = v.get("as_measured").expect("as_measured");
        assert_eq!(
            measured.get("latency_p50_ms").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            measured.get("throughput_ops_s").and_then(Json::as_f64),
            Some(3.0)
        );
        assert!(untraced
            .render(false)
            .contains("as measured: latency_p50_ms 2.0"));

        let mut r = filled(true);
        r.digest = Some(Digest::default());
        let v = json::parse(&r.out_line("serve-mixed", 7, true)).expect("valid JSON");
        assert_eq!(
            v.get("workload").and_then(Json::as_str),
            Some("serve-mixed")
        );
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
        assert!(v.get("nproc").and_then(Json::as_u64).is_some());
        assert_eq!(v.get("metrics"), Some(&Json::Obj(vec![])));
        assert!(v
            .get("layers")
            .and_then(|l| l.get("wap.fast_path_ratio"))
            .is_some());
        assert!(v.get("energy_digest").and_then(Json::as_str).is_some());
    }
}
