//! # ssp-probe — zero-dependency solver observability
//!
//! The solver stack (max-flow engines, BAL peeling, assignment local search)
//! is instrumented with three kinds of probes:
//!
//! * **Spans** — hierarchical phase timers. [`span("bal")`](span) returns a
//!   guard; the time between creation and drop is recorded together with the
//!   enclosing span (tracked per thread), so a solve yields a tree of phases.
//! * **Counters** — named monotonic `u64`s declared at the probe site with
//!   the [`counter!`] macro. Hot loops accumulate into a local variable and
//!   flush once per call, so the per-event cost is an ordinary register
//!   increment.
//! * **Histograms** — named log2-bucketed distributions declared with the
//!   [`histogram!`] macro (65 fixed buckets: value 0, then one bucket per
//!   power of two). Sites can batch (`histogram!(name, value, count)`), and
//!   quantiles (p50/p90/p99) are derived on read-back from the captured
//!   [`HistRec`].
//!
//! All of them are **near-zero overhead when disabled**: every probe site
//! first performs a relaxed load of one global [`AtomicBool`] and returns
//! immediately when no telemetry session is active. This is the shipping
//! default; EXP-17 measures the residual cost on the BAL and Dinic kernels
//! at well under the 2% acceptance threshold.
//!
//! ## Allocation attribution (`probe-alloc`)
//!
//! With the off-by-default `probe-alloc` feature, the crate installs a
//! counting global allocator that charges every allocation to the innermost
//! open span on the allocating thread. Each captured span then carries
//! `alloc_bytes`/`alloc_count` *self* totals (allocations made by the phase
//! itself, not by its children), and the session totals surface as the
//! `alloc.bytes`/`alloc.count` counters. The feature adds a thread-local
//! lookup to every allocation in the process, so it is for profiling runs
//! only — see `docs/OBSERVABILITY.md` for the overhead caveats.
//!
//! ## Cross-thread span trees
//!
//! Parent tracking is per-thread, so a span opened on a fresh worker thread
//! is a disconnected root by default. Workers that logically belong to a
//! phase on the spawning thread can adopt it explicitly:
//! [`Session::parent_handle`] captures the caller's innermost span, and
//! [`Session::adopt_parent`] installs it as the worker's parent for the
//! lifetime of the returned guard. The caller must keep its span open until
//! the workers finish (scoped threads à la `par_map` guarantee this).
//!
//! ## Sessions
//!
//! Recording is scoped by a [`Session`]: [`Session::begin`] claims the
//! (process-global) probe state, zeroes all counters, and enables the
//! probes; [`Session::end`] disables them and returns the captured
//! [`Trace`]. Only one session can be active at a time — `begin` returns
//! `None` if another session holds the probes, so library code can degrade
//! gracefully instead of blocking.
//!
//! ```
//! let session = ssp_probe::Session::begin().expect("no other session");
//! {
//!     let _solve = ssp_probe::span("solve");
//!     let _inner = ssp_probe::span("inner");
//!     ssp_probe::counter!("demo.events", 3);
//! }
//! let trace = session.end();
//! assert_eq!(trace.counter("demo.events"), 3);
//! assert!(trace.to_jsonl().contains("\"name\":\"inner\""));
//! ```
//!
//! The captured [`Trace`] serializes to JSONL ([`Trace::to_jsonl`]), parses
//! back ([`Trace::parse`]), renders a human-readable phase table
//! ([`Trace::phase_table`]) and self-checks its structure
//! ([`Trace::validate`]). See `docs/OBSERVABILITY.md` for the schema and an
//! annotated example.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

#[cfg(feature = "probe-alloc")]
mod alloc;
pub mod calib;
pub mod json;
mod trace;

pub use trace::{bucket_of, bucket_upper, diff, HistRec, SpanRec, Trace, HIST_BUCKETS};

/// Fast-path gate. Relaxed loads of this flag are the only cost probes pay
/// when no session is active.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Exclusive claim on the probe state; distinct from `ENABLED` so that
/// `Session::begin` can reset buffers *before* events start flowing.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Bumped on every session begin/end; span guards remember the generation
/// they were created under and drop their record silently if the session
/// changed underneath them (e.g. a guard held across `Session::end`).
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Span ids are unique within the process, never reused across sessions, so
/// a span whose parent was opened under an earlier session can only point
/// at a missing id (re-rooted at `Session::end`), never at an unrelated
/// span of the current one; 0 means "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread labels for the trace (1, 2, 3, … in first-probe order).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost open span on this thread (0 = none): the parent for new spans.
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
    /// Cached dense label for this thread (0 = not yet assigned).
    static THREAD_LABEL: Cell<u64> = const { Cell::new(0) };
}

struct RawSpan {
    id: u64,
    parent: u64,
    thread: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    alloc_bytes: u64,
    alloc_count: u64,
}

struct Global {
    spans: Mutex<Vec<RawSpan>>,
    counters: Mutex<Vec<&'static CounterCell>>,
    hists: Mutex<Vec<&'static HistogramCell>>,
    epoch: Mutex<Option<Instant>>,
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(Vec::new()),
        hists: Mutex::new(Vec::new()),
        epoch: Mutex::new(None),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Probe state is plain data; a panic while holding the lock cannot leave
    // it logically corrupt, so poisoning is not meaningful here.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn thread_label() -> u64 {
    THREAD_LABEL.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Are probes currently recording? Exposed so callers can skip building
/// expensive probe-only arguments.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Current in-session total of counter `name`, summed across macro sites.
/// Returns 0 when no session is active (or the counter has not fired yet).
/// Lets callers measure counter *deltas* around a region without ending the
/// session — e.g. per-repetition solver work inside a larger experiment.
pub fn counter_value(name: &str) -> u64 {
    if !enabled() {
        return 0;
    }
    lock(&global().counters)
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value.load(Ordering::Relaxed))
        .sum()
}

/// Current in-session sample count of histogram `name`, summed across macro
/// sites. Returns 0 when no session is active. The histogram analogue of
/// [`counter_value`].
pub fn histogram_count(name: &str) -> u64 {
    if !enabled() {
        return 0;
    }
    lock(&global().hists)
        .iter()
        .filter(|h| h.name == name)
        .map(|h| h.count.load(Ordering::Relaxed))
        .sum()
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Storage behind one [`counter!`] site: a `static` cell created by the
/// macro, registered with the session registry on first use so that
/// [`Session::begin`] can zero it and [`Session::end`] can snapshot it.
pub struct CounterCell {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl CounterCell {
    /// Create a cell. Intended for use by the [`counter!`] macro; the cell
    /// must be a `static` so registration by reference is sound.
    pub const fn new(name: &'static str) -> Self {
        CounterCell {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n` to the counter if a session is recording; a relaxed load and
    /// a branch otherwise.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        self.record(n);
    }

    #[cold]
    fn register(&'static self) {
        let mut list = lock(&global().counters);
        // Double-check under the lock: another thread may have registered
        // this cell between our relaxed check and acquiring the lock.
        if !self.registered.load(Ordering::Relaxed) {
            list.push(self);
            self.registered.store(true, Ordering::Release);
        }
    }

    fn record(&'static self, n: u64) {
        if !self.registered.load(Ordering::Acquire) {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }
}

/// Bump a named monotonic counter: `counter!("bal.flow_calls")` adds 1,
/// `counter!("maxflow.dinic.phases", phases)` adds an accumulated total. The
/// name must be a string literal (it keys the counter in the trace). When no
/// session is active this compiles to a relaxed atomic load and a branch.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $n:expr) => {{
        static CELL: $crate::CounterCell = $crate::CounterCell::new($name);
        CELL.add($n as u64);
    }};
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Storage behind one [`histogram!`] site: [`HIST_BUCKETS`] log2 buckets
/// plus count/sum/max, all relaxed atomics. Like [`CounterCell`], the cell
/// is a `static` created by the macro and lazily registered so sessions can
/// zero it on begin and snapshot it on end.
pub struct HistogramCell {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl HistogramCell {
    /// Create a cell. Intended for use by the [`histogram!`] macro; the
    /// cell must be a `static` so registration by reference is sound.
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // template for array init
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistogramCell {
            name,
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record `count` observations of `value` if a session is recording; a
    /// relaxed load and a branch otherwise.
    #[inline]
    pub fn record(&'static self, value: u64, count: u64) {
        if !ENABLED.load(Ordering::Relaxed) || count == 0 {
            return;
        }
        self.record_slow(value, count);
    }

    #[cold]
    fn register(&'static self) {
        let mut list = lock(&global().hists);
        if !self.registered.load(Ordering::Relaxed) {
            list.push(self);
            self.registered.store(true, Ordering::Release);
        }
    }

    fn record_slow(&'static self, value: u64, count: u64) {
        if !self.registered.load(Ordering::Acquire) {
            self.register();
        }
        self.buckets[bucket_of(value)].fetch_add(count, Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(count), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Record a value into a named log2 histogram:
/// `histogram!("maxflow.dinic.path_len", len)` records one observation,
/// `histogram!("maxflow.dinic.path_len", len, n)` records `n` observations
/// of the same value (the batched form hot loops use — e.g. one record per
/// Dinic phase covering every augmentation in it). The name must be a
/// string literal. When no session is active this compiles to a relaxed
/// atomic load and a branch.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram!($name, $value, 1u64)
    };
    ($name:expr, $value:expr, $count:expr) => {{
        static CELL: $crate::HistogramCell = $crate::HistogramCell::new($name);
        CELL.record($value as u64, $count as u64);
    }};
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII timer for one phase. Created by [`span`]; the phase ends when the
/// guard drops. Guards nest: spans opened while this guard is alive (on the
/// same thread) become its children in the trace.
#[must_use = "the span ends when the guard drops; bind it with `let _g = ...`"]
pub struct SpanGuard {
    /// `None` when probes were disabled at creation (the common case).
    rec: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    generation: u64,
    /// The enclosing span's paused allocation totals, restored on drop.
    #[cfg(feature = "probe-alloc")]
    saved_alloc: (u64, u64),
}

/// Open a phase span named `name`. Near-free when no session is active.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { rec: None };
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_PARENT.with(|c| {
        let p = c.get();
        c.set(id);
        p
    });
    SpanGuard {
        rec: Some(OpenSpan {
            id,
            parent,
            name,
            start: Instant::now(),
            generation,
            #[cfg(feature = "probe-alloc")]
            saved_alloc: alloc::enter_span(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.rec.take() else {
            return;
        };
        CURRENT_PARENT.with(|c| c.set(open.parent));
        // Always read our self-allocation and resume the parent's totals,
        // even if the record below is discarded — the thread-local must
        // stay balanced.
        #[cfg(feature = "probe-alloc")]
        let (alloc_bytes, alloc_count) = alloc::exit_span(open.saved_alloc);
        #[cfg(not(feature = "probe-alloc"))]
        let (alloc_bytes, alloc_count) = (0u64, 0u64);
        // Discard the record if the session ended (or a new one began)
        // while the guard was open — its epoch no longer matches.
        if ENABLED.load(Ordering::Relaxed) && GENERATION.load(Ordering::Relaxed) == open.generation
        {
            let end = Instant::now();
            lock(&global().spans).push(RawSpan {
                id: open.id,
                parent: open.parent,
                thread: thread_label(),
                name: open.name,
                start: open.start,
                end,
                alloc_bytes,
                alloc_count,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Exclusive recording session. See the crate docs for the lifecycle.
pub struct Session {
    finished: bool,
}

impl Session {
    /// Claim the probes and start recording. Returns `None` if another
    /// session is already active (callers should degrade to an untraced
    /// run, not block).
    pub fn begin() -> Option<Session> {
        if ACTIVE
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        let g = global();
        lock(&g.spans).clear();
        for cell in lock(&g.counters).iter() {
            cell.value.store(0, Ordering::Relaxed);
        }
        for cell in lock(&g.hists).iter() {
            cell.zero();
        }
        *lock(&g.epoch) = Some(Instant::now());
        GENERATION.fetch_add(1, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Release);
        Some(Session { finished: false })
    }

    /// Stop recording and return the captured trace. Spans still open on
    /// any thread are dropped silently (their guards notice the generation
    /// change); spans they enclosed that had already closed are kept and
    /// re-rooted as top-level spans, so the trace always passes
    /// [`Trace::validate`]. Counters keep their totals up to this instant.
    pub fn end(mut self) -> Trace {
        self.finished = true;
        finish_session()
    }

    /// Capture the calling thread's innermost open span as a handle a
    /// worker thread can adopt with [`Session::adopt_parent`]. Cheap; safe
    /// to call with no session active (the handle is then inert).
    pub fn parent_handle() -> ParentHandle {
        if !ENABLED.load(Ordering::Relaxed) {
            return ParentHandle {
                parent: 0,
                generation: 0,
            };
        }
        ParentHandle {
            parent: CURRENT_PARENT.with(|c| c.get()),
            generation: GENERATION.load(Ordering::Relaxed),
        }
    }

    /// Attach this thread's spans to the span captured in `handle` for the
    /// lifetime of the returned guard: spans opened while the guard is
    /// alive (and no other span is open on this thread) become children of
    /// the handle's span instead of disconnected roots.
    ///
    /// Semantics and caveats:
    /// * A no-op if the handle is inert (captured with no session, or with
    ///   no span open), or if the session changed since capture — the
    ///   generation check makes stale handles harmless.
    /// * The *capturing* thread must keep the handle's span open until the
    ///   adopting thread drops the guard, or the trace will fail
    ///   containment validation. `par_map` satisfies this structurally:
    ///   scoped workers are joined before the caller's span can close.
    /// * Adoption nests: dropping the guard restores whatever parent was
    ///   current on this thread before.
    pub fn adopt_parent(handle: ParentHandle) -> AdoptGuard {
        if handle.parent == 0
            || !ENABLED.load(Ordering::Relaxed)
            || GENERATION.load(Ordering::Relaxed) != handle.generation
        {
            return AdoptGuard { prev: None };
        }
        let prev = CURRENT_PARENT.with(|c| c.replace(handle.parent));
        AdoptGuard { prev: Some(prev) }
    }
}

/// A cross-thread reference to one open span, produced by
/// [`Session::parent_handle`] and consumed by [`Session::adopt_parent`].
/// Copyable so it can be captured by many worker closures.
#[derive(Debug, Clone, Copy)]
pub struct ParentHandle {
    /// Span id to adopt (0 = inert handle).
    parent: u64,
    /// Session generation at capture time; adoption is refused if it moved.
    generation: u64,
}

/// RAII scope for [`Session::adopt_parent`]: restores the thread's previous
/// parent span on drop.
#[must_use = "adoption ends when the guard drops; bind it with `let _g = ...`"]
pub struct AdoptGuard {
    /// The parent to restore, or `None` when adoption was refused.
    prev: Option<u64>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT_PARENT.with(|c| c.set(prev));
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            let _ = finish_session();
        }
    }
}

fn finish_session() -> Trace {
    ENABLED.store(false, Ordering::Release);
    GENERATION.fetch_add(1, Ordering::Relaxed);
    let g = global();
    let epoch = lock(&g.epoch).take().unwrap_or_else(Instant::now);
    let mut raw = std::mem::take(&mut *lock(&g.spans));
    raw.sort_by_key(|s| (s.start, s.id));
    // A span still open now is never recorded; re-root the closed spans it
    // enclosed (on its own thread, or adopted by workers) so no record
    // references a missing parent. Their own subtrees stay intact.
    let recorded: std::collections::HashSet<u64> = raw.iter().map(|s| s.id).collect();
    for s in &mut raw {
        if !recorded.contains(&s.parent) {
            s.parent = 0;
        }
    }
    // With probe-alloc enabled, surface the session-wide allocation totals
    // (sum of per-span self-allocations) as ordinary counters.
    let (mut alloc_bytes_total, mut alloc_count_total) = (0u64, 0u64);
    let spans: Vec<SpanRec> = raw
        .into_iter()
        .map(|s| {
            alloc_bytes_total += s.alloc_bytes;
            alloc_count_total += s.alloc_count;
            SpanRec {
                id: s.id,
                parent: s.parent,
                thread: s.thread,
                name: s.name.to_string(),
                start_ns: s.start.saturating_duration_since(epoch).as_nanos() as u64,
                end_ns: s.end.saturating_duration_since(epoch).as_nanos() as u64,
                alloc_bytes: s.alloc_bytes,
                alloc_count: s.alloc_count,
            }
        })
        .collect();
    // Distinct macro sites may share a counter name; merge them.
    let mut totals: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for c in lock(&g.counters).iter() {
        let v = c.value.load(Ordering::Relaxed);
        if v > 0 {
            *totals.entry(c.name).or_insert(0) += v;
        }
    }
    if alloc_count_total > 0 {
        *totals.entry("alloc.bytes").or_insert(0) += alloc_bytes_total;
        *totals.entry("alloc.count").or_insert(0) += alloc_count_total;
    }
    let counters: Vec<(String, u64)> = totals
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
    // Same for histograms: merge same-name sites bucket-wise.
    let mut hist_totals: std::collections::BTreeMap<&'static str, HistRec> =
        std::collections::BTreeMap::new();
    for h in lock(&g.hists).iter() {
        let count = h.count.load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        let rec = hist_totals
            .entry(h.name)
            .or_insert_with(|| HistRec::new(h.name));
        rec.count += count;
        rec.sum = rec.sum.saturating_add(h.sum.load(Ordering::Relaxed));
        rec.max = rec.max.max(h.max.load(Ordering::Relaxed));
        for (i, b) in h.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                rec.add_bucket(i as u8, v);
            }
        }
    }
    let hists: Vec<HistRec> = hist_totals.into_values().collect();
    ACTIVE.store(false, Ordering::Release);
    Trace {
        spans,
        counters,
        hists,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are process-global; tests that open one must serialize.
    pub(crate) fn session_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_are_noops() {
        let _l = session_lock();
        counter!("test.noop", 5);
        let _g = span("test.noop.span");
        drop(_g);
        let session = Session::begin().unwrap();
        let trace = session.end();
        assert_eq!(trace.counter("test.noop"), 0);
        assert!(!trace.spans.iter().any(|s| s.name == "test.noop.span"));
    }

    #[test]
    fn session_is_exclusive() {
        let _l = session_lock();
        let first = Session::begin().unwrap();
        assert!(Session::begin().is_none(), "second session must be refused");
        drop(first); // abandoned without end(): Drop must release the claim
        let second = Session::begin().unwrap();
        second.end();
    }

    #[test]
    fn spans_nest_and_counters_total() {
        let _l = session_lock();
        let session = Session::begin().unwrap();
        {
            let _outer = span("outer");
            counter!("test.nest.events", 2);
            {
                let _inner = span("inner");
                counter!("test.nest.events", 3);
            }
            let _sibling = span("sibling");
        }
        let trace = session.end();
        trace.validate().expect("trace must be well-formed");
        assert_eq!(trace.counter("test.nest.events"), 5);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = trace.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn counters_reset_between_sessions() {
        let _l = session_lock();
        let s1 = Session::begin().unwrap();
        counter!("test.reset", 7);
        assert_eq!(s1.end().counter("test.reset"), 7);
        let s2 = Session::begin().unwrap();
        counter!("test.reset", 1);
        assert_eq!(s2.end().counter("test.reset"), 1);
    }

    #[test]
    fn cross_thread_spans_record() {
        let _l = session_lock();
        let session = Session::begin().unwrap();
        {
            let _main = span("main_phase");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _w = span("worker");
                        counter!("test.threads.work", 1);
                    });
                }
            });
        }
        let trace = session.end();
        trace.validate().expect("well-formed");
        let workers: Vec<_> = trace.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        // Worker spans start on fresh threads: they are roots, not children
        // of `main_phase` (parent tracking is per-thread).
        assert!(workers.iter().all(|w| w.parent == 0));
        assert_eq!(trace.counter("test.threads.work"), 2);
    }

    #[test]
    fn histograms_record_merge_and_reset() {
        let _l = session_lock();
        let s1 = Session::begin().unwrap();
        histogram!("test.hist", 0);
        histogram!("test.hist", 1);
        histogram!("test.hist", 5, 3); // batched form
        let t1 = s1.end();
        let h = t1.hist("test.hist").expect("recorded");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 16);
        assert_eq!(h.max, 5);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 3)]);
        assert!(h.p50() <= h.p99() && h.p99() <= h.max);
        t1.validate().expect("well-formed");
        // Zeroed between sessions, like counters.
        let s2 = Session::begin().unwrap();
        let t2 = s2.end();
        assert!(t2.hist("test.hist").is_none());
        // And a no-op with no session at all.
        histogram!("test.hist", 99);
        let s3 = Session::begin().unwrap();
        assert!(s3.end().hist("test.hist").is_none());
    }

    #[test]
    fn histogram_count_reads_in_session_totals() {
        let _l = session_lock();
        assert_eq!(histogram_count("test.hist.live"), 0);
        let session = Session::begin().unwrap();
        histogram!("test.hist.live", 7, 4);
        assert_eq!(histogram_count("test.hist.live"), 4);
        session.end();
        assert_eq!(histogram_count("test.hist.live"), 0);
    }

    #[test]
    fn adopt_parent_attaches_worker_spans() {
        let _l = session_lock();
        let session = Session::begin().unwrap();
        {
            let _main = span("main_phase");
            let handle = Session::parent_handle();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _adopt = Session::adopt_parent(handle);
                    let _w = span("adopted_worker");
                });
                scope.spawn(|| {
                    let _w = span("orphan_worker");
                });
            });
        }
        let trace = session.end();
        trace.validate().expect("well-formed");
        let main = trace.spans.iter().find(|s| s.name == "main_phase").unwrap();
        let adopted = trace
            .spans
            .iter()
            .find(|s| s.name == "adopted_worker")
            .unwrap();
        let orphan = trace
            .spans
            .iter()
            .find(|s| s.name == "orphan_worker")
            .unwrap();
        assert_eq!(adopted.parent, main.id, "adopted span joins the tree");
        assert_eq!(orphan.parent, 0, "non-adopting worker stays a root");
    }

    #[test]
    fn stale_or_inert_parent_handles_are_refused() {
        let _l = session_lock();
        // No session: the handle is inert and adoption is a no-op.
        let inert = Session::parent_handle();
        drop(Session::adopt_parent(inert));
        // A handle from a previous session generation must be refused.
        let s1 = Session::begin().unwrap();
        let outer = span("outer");
        let stale = Session::parent_handle();
        drop(outer);
        s1.end();
        let s2 = Session::begin().unwrap();
        {
            let _adopt = Session::adopt_parent(stale);
            let _sp = span("after_stale");
        }
        let t2 = s2.end();
        let sp = t2.spans.iter().find(|s| s.name == "after_stale").unwrap();
        assert_eq!(sp.parent, 0, "stale handle must not re-parent");
    }

    #[cfg(feature = "probe-alloc")]
    #[test]
    fn alloc_attributed_to_innermost_span() {
        let _l = session_lock();
        let session = Session::begin().unwrap();
        {
            let _outer = span("alloc_outer");
            let outer_buf: Vec<u8> = Vec::with_capacity(512);
            {
                let _inner = span("alloc_inner");
                let inner_buf: Vec<u8> = Vec::with_capacity(4096);
                drop(inner_buf);
            }
            drop(outer_buf);
        }
        let trace = session.end();
        let outer = trace
            .spans
            .iter()
            .find(|s| s.name == "alloc_outer")
            .unwrap();
        let inner = trace
            .spans
            .iter()
            .find(|s| s.name == "alloc_inner")
            .unwrap();
        assert!(inner.alloc_bytes >= 4096, "inner charged its own buffer");
        assert!(
            outer.alloc_bytes >= 512 && outer.alloc_bytes < 4096,
            "outer charged only its own buffer (self, not children): {}",
            outer.alloc_bytes
        );
        assert!(inner.alloc_count >= 1 && outer.alloc_count >= 1);
        assert_eq!(
            trace.counter("alloc.bytes"),
            trace.spans.iter().map(|s| s.alloc_bytes).sum::<u64>()
        );
        assert!(trace.counter("alloc.count") >= 2);
    }

    /// A second thread opens span P, opens and closes a child C, and the
    /// main thread ends the session while P is still open: the trace drops
    /// P, keeps C as a root, and validates.
    #[test]
    fn closed_children_of_spans_open_at_end_are_re_rooted() {
        use std::sync::mpsc::channel;
        let _l = session_lock();
        let session = Session::begin().unwrap();
        let (closed_tx, closed_rx) = channel();
        let (ended_tx, ended_rx) = channel::<()>();
        let trace = std::thread::scope(|scope| {
            scope.spawn(move || {
                let _parent = span("parent_open");
                {
                    let _child = span("child_closed");
                    let _grandchild = span("grandchild_closed");
                }
                closed_tx.send(()).unwrap();
                ended_rx.recv().unwrap(); // hold P open across end()
            });
            closed_rx.recv().unwrap();
            let trace = session.end();
            ended_tx.send(()).unwrap();
            trace
        });
        trace.validate().expect("trace with a span open at end()");
        assert!(trace.spans.iter().all(|s| s.name != "parent_open"));
        let child = trace
            .spans
            .iter()
            .find(|s| s.name == "child_closed")
            .unwrap();
        let grandchild = trace
            .spans
            .iter()
            .find(|s| s.name == "grandchild_closed")
            .unwrap();
        assert_eq!(child.parent, 0, "orphaned child becomes a root");
        assert_eq!(grandchild.parent, child.id, "its subtree stays intact");
    }

    /// A span opened under one session and still open in the next leaves
    /// its later children pointing at an id the new session never records;
    /// they are re-rooted too.
    #[test]
    fn children_of_a_previous_sessions_span_are_re_rooted() {
        let _l = session_lock();
        let s1 = Session::begin().unwrap();
        let stale = span("stale_parent");
        s1.end();
        let s2 = Session::begin().unwrap();
        {
            // Ids are never reissued, so `filler` cannot take the stale
            // span's id and end up as its own parent.
            let _filler = span("filler");
            let _late = span("late_child");
        }
        drop(stale);
        let trace = s2.end();
        trace.validate().expect("well-formed");
        let filler = trace.spans.iter().find(|s| s.name == "filler").unwrap();
        assert_eq!(filler.parent, 0);
    }

    #[test]
    fn guard_held_across_end_is_dropped_silently() {
        let _l = session_lock();
        let session = Session::begin().unwrap();
        let straggler = span("straggler");
        let trace = session.end();
        drop(straggler); // must not record into a dead (or future) session
        assert!(trace.spans.iter().all(|s| s.name != "straggler"));
        let next = Session::begin().unwrap();
        let trace2 = next.end();
        assert!(trace2.spans.is_empty());
    }
}
