//! Sample statistics and process measurements shared by every workload.

use crate::yardstick::Normalizer;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`th percentile among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// How many samples lie beyond the nearest-rank `pct`th percentile. A tail
/// percentile is only worth reporting with at least ten samples beyond it.
pub fn beyond(n: usize, pct: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The reported tail percentile. A run of any workload leaves over two
/// hundred samples beyond it; the note warns when a run leaves fewer than
/// ten. Over ten seeds of solve-general, p99 moved 7.4% (quartile distance
/// over the median), p95 4.5% and p90 3.5%: instances differ most in their
/// slowest requests.
pub const TAIL_PCT: u32 = 90;

/// Median and [`TAIL_PCT`]th percentile of a latency sample.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median, in the sample's unit.
    pub p50: f64,
    /// The tail percentile.
    pub tail: f64,
}

impl Latency {
    /// Summarize `samples` (any order). Failed operations belong in the
    /// sample as `f64::INFINITY`: they miss every latency limit.
    pub fn of(mut samples: Vec<f64>) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency {
            n: samples.len(),
            p50: percentile(&samples, 50),
            tail: percentile(&samples, TAIL_PCT),
        }
    }

    /// Human-readable sample note, e.g. `p90 of 9000 samples (900 beyond)`.
    pub fn note(&self) -> String {
        let beyond = beyond(self.n, TAIL_PCT);
        let warn = if beyond < 10 {
            " — fewer than 10 beyond, tail is noisy"
        } else {
            ""
        };
        format!("p{TAIL_PCT} of {} samples ({beyond} beyond){warn}", self.n)
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations per second of busy time, over the operations that completed
/// (finite times, in ms).
pub fn rate(times_ms: &[f64]) -> f64 {
    let done = times_ms.iter().filter(|t| t.is_finite());
    let busy_s = done.clone().sum::<f64>() / 1e3;
    if busy_s > 0.0 {
        done.count() as f64 / busy_s
    } else {
        0.0
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// Set-ups per run; `setup_s` is the median of their normalized times.
/// With seven, and with eleven, `setup_s` of a solve workload moved up to
/// 11% from seed to seed.
pub const SETUPS: usize = 21;

/// Run `setup` `times` times and return the last result with the median
/// set-up time in seconds, normalized by the yardstick. Each earlier
/// result is dropped before the next set-up starts, so peak memory holds
/// one copy.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut norm = Normalizer::start();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let end = Instant::now();
        norm.push(ms(end - t), end);
    }
    (
        last.expect("at least one set-up"),
        median(&norm.finish()) / 1e3,
    )
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over 64-bit words: the run's `energy_digest`, identical across
/// runs exactly when the digested answers are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one value's bits in.
    pub fn eat(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Hex form for printing.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 99), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
        // Rank is ceil(p·n/100) in integers, never a float that rounds
        // the wrong way: p90 of 100 samples is the 90th, not the 91st.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&h, 90), 90.0);
        assert_eq!(percentile(&h, 99), 99.0);
    }

    #[test]
    fn samples_beyond_the_reported_percentile() {
        // The reported tail needs at least ten samples beyond it: p90 is
        // good from 100 samples, p95 from 200, p99 from 1000.
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(117, 90), 11);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(beyond(0, 99), 0);
        assert_eq!(beyond(100, TAIL_PCT), 10);
        assert!(Latency::of(vec![1.0; 99]).note().contains("noisy"));
        assert!(!Latency::of(vec![1.0; 100]).note().contains("noisy"));
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        let mut v = vec![1.0; 89];
        v.extend([f64::INFINITY; 11]);
        let l = Latency::of(v);
        assert_eq!(l.p50, 1.0);
        assert!(l.tail.is_infinite());
    }

    #[test]
    fn rate_counts_completed_operations_over_their_busy_time() {
        assert_eq!(rate(&[250.0, 750.0, f64::INFINITY]), 2.0);
        assert_eq!(rate(&[f64::INFINITY]), 0.0);
    }

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status =
            "Name:\tsysbench\nVmPeak:\t  123456 kB\nVmHWM:\t   45678 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(45678));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }

    #[test]
    fn setup_reports_the_median_and_keeps_the_last_result() {
        let mut calls = 0;
        let (last, secs) = timed_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (3, 3));
        assert!(secs >= 0.0);
    }

    #[test]
    fn digest_tracks_bits() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.eat(1.0);
        b.eat(1.0);
        assert_eq!(a.hex(), b.hex());
        b.eat(0.0);
        a.eat(-0.0);
        assert_ne!(a.hex(), b.hex());
    }
}
