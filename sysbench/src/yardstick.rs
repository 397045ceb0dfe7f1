//! A fixed CPU task of the benchmark's own, timed next to the program to
//! tell how fast the machine runs right now.
//!
//! On a shared host, other tenants slow each of its CPUs in episodes that
//! last from a second to over a minute, by up to 1.8× (measured on the
//! 2-core machine the bounds in BENCHMARK.json were set on), and the two
//! CPUs slow independently. No statistic over one 20 s run removes an
//! episode that covers the whole run. The yardstick does: it sorts a copy
//! of the same pseudo-random integers every time, a branchy, cache-resident
//! task that slows down with the solver, so `ms × REFERENCE_MS /
//! yardstick_ms` is the time the operation would have taken on the
//! uncontended reference machine. Ten seeds of serve-mixed, run twice,
//! moved the median request's time 25% between the two runs of a seed as
//! measured, and 2% normalized.
//!
//! A change to the program does not move the yardstick, so it shows in
//! full. Readings run between operations, never inside one, on the thread
//! that ran them (the CPUs slow independently); the task allocates nothing,
//! and each reading is the fastest of [`REPEATS`] sorts: the first refills
//! the caches the program evicted, so a program that uses more cache or
//! memory bandwidth does not slow the reading (the
//! `a_slower_program_is_not_normalized_away` test checks both).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Integers sorted per timing: about 0.3 ms of work.
const LEN: usize = 16_384;
/// Timings per reading; the reading is their minimum, which drops an
/// interrupt landing in one of them.
const REPEATS: usize = 3;
/// The yardstick's time on the reference machine, uncontended, in ms.
pub const REFERENCE_MS: f64 = 0.25;
/// Least time between two readings: they cost about 2% of the run, and a
/// slowdown episode lasts far longer.
pub const PERIOD: Duration = Duration::from_millis(50);

/// The task and its scratch space.
pub struct Yardstick {
    data: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Yardstick {
            data,
            scratch: Vec::with_capacity(LEN),
        }
    }
}

impl Yardstick {
    /// Time the task now, in ms.
    pub fn measure(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPEATS {
            let t = Instant::now();
            self.scratch.clear();
            self.scratch.extend_from_slice(black_box(&self.data));
            self.scratch.sort_unstable();
            black_box(&self.scratch);
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    }
}

/// `ms` as it would read on the reference machine, given the yardstick
/// read `yardstick_ms` around the operation.
pub fn normalize(ms: f64, yardstick_ms: f64) -> f64 {
    ms * REFERENCE_MS / yardstick_ms
}

/// Normalizes the times of a sequence of operations by the yardstick
/// readings taken between them: each operation by the mean of the readings
/// just before and just after its stretch of operations.
pub struct Readings {
    last: f64,
    pending: Vec<f64>,
    done: Vec<f64>,
}

impl Readings {
    /// Start from the reading `first`, taken before the first operation.
    pub fn new(first: f64) -> Self {
        Readings {
            last: first,
            pending: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Record an operation that took `ms`; infinite for a failed one.
    pub fn push(&mut self, ms: f64) {
        self.pending.push(ms);
    }

    /// A reading taken after the operations pushed so far.
    pub fn reading(&mut self, ms: f64) {
        let around = (self.last + ms) / 2.0;
        self.done
            .extend(self.pending.drain(..).map(|t| normalize(t, around)));
        self.last = ms;
    }

    /// The normalized times, in push order; operations after the last
    /// reading are normalized by it.
    pub fn finish(mut self) -> Vec<f64> {
        self.reading(self.last);
        self.done
    }
}

/// [`Readings`] for operations run on the calling thread, which reads the
/// yardstick itself between operations, at most every [`PERIOD`].
pub struct Normalizer {
    stick: Yardstick,
    last_at: Instant,
    readings: Readings,
}

impl Normalizer {
    /// Take the first reading.
    pub fn start() -> Self {
        let mut stick = Yardstick::default();
        let first = stick.measure();
        Normalizer {
            stick,
            last_at: Instant::now(),
            readings: Readings::new(first),
        }
    }

    /// Record an operation that took `ms` and ended at `end`; infinite for
    /// a failed one. Reads the yardstick when [`PERIOD`] has passed.
    pub fn push(&mut self, ms: f64, end: Instant) {
        self.readings.push(ms);
        if end.duration_since(self.last_at) >= PERIOD {
            self.readings.reading(self.stick.measure());
            self.last_at = Instant::now();
        }
    }

    /// Take the last reading; the normalized times, in push order.
    pub fn finish(mut self) -> Vec<f64> {
        if !self.readings.pending.is_empty() {
            self.readings.reading(self.stick.measure());
        }
        self.readings.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_positive_time_and_normalizes_by_it() {
        let mut y = Yardstick::default();
        assert!(y.measure() > 0.0);
        assert_eq!(normalize(10.0, REFERENCE_MS), 10.0);
        assert_eq!(normalize(10.0, 2.0 * REFERENCE_MS), 5.0);
        // The scratch copy is sorted; the data itself never changes.
        let before = y.data.clone();
        y.measure();
        assert_eq!(y.data, before);
        assert!(y.scratch.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_slower_program_is_not_normalized_away() {
        // Stand-ins for the program before and after a change that makes
        // it slower: work on 32 kB that stays in cache; and the same work
        // followed by a pass over 16 MB, which evicts the yardstick's data
        // before every reading it precedes, and a burst of allocations.
        let small: Vec<u64> = (0..4096).collect();
        let big: Vec<u64> = (0..2u64 << 20).collect();
        let op = |slower: bool| {
            let t = Instant::now();
            let mut a = 0u64;
            for _ in 0..256 {
                a = black_box(&small).iter().fold(a, |a, &x| a.wrapping_add(x));
            }
            if slower {
                a = big.iter().fold(a, |a, &x| a.wrapping_add(x));
                let held: Vec<String> = (0..2000).map(|k| k.to_string()).collect();
                a = a.wrapping_add(black_box(held).len() as u64);
            }
            black_box(a);
            let end = Instant::now();
            (crate::stats::ms(end - t), end)
        };
        let (mut before, mut after) = (Normalizer::start(), Normalizer::start());
        let (mut raw_before, mut raw_after) = (Vec::new(), Vec::new());
        // Interleaved, so the host's own slowdowns hit both alike.
        for _ in 0..300 {
            let (ms, end) = op(false);
            raw_before.push(ms);
            before.push(ms, end);
            let (ms, end) = op(true);
            raw_after.push(ms);
            after.push(ms, end);
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let raw = median(raw_after) / median(raw_before);
        let normalized = median(after.finish()) / median(before.finish());
        assert!(raw > 1.5, "the slower program takes {raw}× as long");
        assert!(
            (normalized / raw - 1.0).abs() < 0.15,
            "as measured {raw}×, normalized {normalized}×"
        );
    }

    #[test]
    fn readings_normalize_each_stretch_by_the_readings_around_it() {
        let mut r = Readings::new(REFERENCE_MS);
        r.push(1.0);
        r.push(f64::INFINITY);
        // The machine slowed to half speed during the first stretch.
        r.reading(3.0 * REFERENCE_MS);
        r.push(4.0);
        let v = r.finish();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 0.5);
        assert!(v[1].is_infinite());
        // After the last reading: normalized by it alone.
        assert!((v[2] - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalizer_keeps_order_and_failures() {
        let mut n = Normalizer::start();
        let start = Instant::now();
        n.push(1.0, start);
        n.push(f64::INFINITY, start);
        // Far past the period: the first three are normalized together.
        n.push(3.0, start + 2 * PERIOD);
        n.push(4.0, start + 2 * PERIOD);
        let v = n.finish();
        assert_eq!(v.len(), 4);
        assert!(v[1].is_infinite());
        assert!(v[0] > 0.0 && v[2] > v[0] && v[3] > 0.0);
        assert!((v[2] / v[0] - 3.0).abs() < 1e-12);
    }
}
