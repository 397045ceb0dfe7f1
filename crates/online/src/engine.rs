//! The streaming arrival engine: dispatch, simulate, compact, bound.
//!
//! [`StreamEngine`] consumes a release-ordered job stream one arrival at a
//! time. Each [`StreamEngine::push`]:
//!
//! 1. validates the arrival (same per-job invariants as the trace reader);
//! 2. advances every machine's incremental simulator to the release
//!    instant and prunes expired jobs from the live windows;
//! 3. runs the dispatch [`Policy`] over the live state and hands the job
//!    to the chosen machine irrevocably;
//! 4. feeds the sliding-window compactor.
//!
//! **Compaction invariant.** All per-machine simulators are event-local
//! (see [`crate::machine`]): their future behavior depends only on the
//! live window, so expired state can be folded away without changing a
//! single bit of the remaining computation. The engine exploits this in
//! one place — the lower-bound chunk buffer — and the invariant is what
//! the property test `compaction_prop.rs` pins down: a compacted run and
//! an uncompacted replay produce bit-identical dispatch sequences, live
//! windows, and energies.
//!
//! **Chunked certified lower bound.** For any partition of the stream's
//! jobs into chunks, `Σ_chunks OPT_migratory(chunk) ≤ OPT_migratory(all)`:
//! restricting a feasible schedule of the whole stream to one chunk's jobs
//! yields a feasible schedule of that chunk, so each chunk's optimum is at
//! most its restriction's energy, and the restrictions' energies sum to
//! the whole schedule's. Every energy the engine reports is a feasible
//! m-machine schedule of all jobs, hence `energy ≥ OPT ≥ Σ chunk bounds`
//! and the reported ratio is a genuine (empirical) competitive ratio
//! against the certified migratory optimum of
//! [Angel–Bampis–Kacem–Letsios]. Chunks are cut at *natural split points*
//! (the release has passed every seen deadline — the live window is
//! provably empty, so the decomposition is exact and the per-chunk BAL
//! bound is the chunk's true optimum) and, when a window refuses to close,
//! force-cut at `window_cap` jobs (still a valid partition bound, merely
//! looser). Chunks larger than `bal_cap` are bounded by the pooled
//! single-machine relaxation `YDS₁(chunk)/m^{α−1}` instead of BAL
//! (`OPT_m ≥ ∫(Σs_i)^α/m^{α−1} ≥ YDS₁/m^{α−1}` by the power-mean
//! inequality), keeping the oracle's cost bounded per job.
//!
//! Probe surface: counters `online.arrivals`, `online.events`,
//! `online.replans`, `online.compactions`, `online.compactions_forced`,
//! `online.density_fallback`; histograms `online.window_jobs` (live jobs
//! at each arrival) and `online.recompute_frac` (percent, recorded once at
//! [`StreamEngine::finish`]); span `online.compact` around each chunk
//! flush. See docs/OBSERVABILITY.md.

use crate::dispatch::Policy;
use crate::machine::{AvrMachine, OaMachine, Sched};
use ssp_core::LiveEval;
use ssp_migratory::bal::try_bal;
use ssp_model::arrival::validate_arrival;
use ssp_model::numeric::pow_alpha;
use ssp_model::resource::Budget;
use ssp_model::{Instance, Job, ModelError, SolveError};
use ssp_single::yds::yds;

/// Which per-machine online scheduler the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Optimal Available (`α^α`-competitive per machine).
    Oa,
    /// Average Rate (`α^α·2^{α−1}`-competitive per machine).
    Avr,
}

impl SchedulerKind {
    /// Parse a CLI name: `oa` or `avr`.
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        match name {
            "oa" => Some(SchedulerKind::Oa),
            "avr" => Some(SchedulerKind::Avr),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Oa => "oa",
            SchedulerKind::Avr => "avr",
        }
    }
}

/// Lower-bound oracle mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbMode {
    /// No lower bound: the chunk buffer stays empty (compaction split
    /// points are still detected and counted).
    Off,
    /// Chunked certified bound: BAL per chunk up to `bal_cap` jobs, the
    /// pooled `YDS₁/m^{α−1}` relaxation beyond.
    Chunked {
        /// Largest chunk solved exactly with BAL.
        bal_cap: usize,
    },
}

/// Engine configuration. Build with [`EngineOptions::new`] and the fluent
/// setters.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Machine count.
    pub machines: usize,
    /// Power exponent.
    pub alpha: f64,
    /// Dispatch policy.
    pub policy: Policy,
    /// Per-machine scheduler.
    pub scheduler: SchedulerKind,
    /// Forced-compaction threshold: the lower-bound chunk buffer is
    /// flushed when it reaches this many jobs even without a natural
    /// split point, bounding live memory.
    pub window_cap: usize,
    /// Total-live-jobs cap above which the density-aware policy stops
    /// pricing marginal YDS energies and falls back to overlapped-density
    /// counting.
    pub price_cap: usize,
    /// Lower-bound oracle mode.
    pub lower_bound: LbMode,
}

impl EngineOptions {
    /// Defaults: OA scheduler, round-robin dispatch, `window_cap` 4096,
    /// `price_cap` 96, chunked lower bound with `bal_cap` 192.
    pub fn new(machines: usize, alpha: f64) -> Self {
        EngineOptions {
            machines,
            alpha,
            policy: Policy::RoundRobin,
            scheduler: SchedulerKind::Oa,
            window_cap: 4096,
            price_cap: 96,
            lower_bound: LbMode::Chunked { bal_cap: 192 },
        }
    }

    /// Set the dispatch policy.
    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }

    /// Set the per-machine scheduler.
    pub fn scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Set the forced-compaction threshold.
    pub fn window_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "window cap must be positive");
        self.window_cap = cap;
        self
    }

    /// Set the density-pricing cap.
    pub fn price_cap(mut self, cap: usize) -> Self {
        self.price_cap = cap;
        self
    }

    /// Set the lower-bound mode.
    pub fn lower_bound(mut self, lb: LbMode) -> Self {
        self.lower_bound = lb;
        self
    }
}

/// What a finished stream run reports. All counts are engine-local (the
/// probe counters aggregate across engines in a session).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Jobs pushed.
    pub arrivals: u64,
    /// Machine count.
    pub machines: usize,
    /// Power exponent.
    pub alpha: f64,
    /// Dispatch policy the run used.
    pub policy: Policy,
    /// Per-machine scheduler the run used.
    pub scheduler: SchedulerKind,
    /// Total energy of the dispatched schedule (exact profile integral).
    pub energy: f64,
    /// Per-machine energies (`Σ = energy` up to summation order).
    pub machine_energy: Vec<f64>,
    /// Chunked certified migratory lower bound, if the oracle was on.
    pub lower_bound: Option<f64>,
    /// Peak live jobs across all machines, sampled at arrivals.
    pub peak_live: usize,
    /// Peak lower-bound chunk buffer length (bounded by `window_cap`).
    pub peak_chunk: usize,
    /// Natural compaction splits (live window provably empty).
    pub compactions: u64,
    /// Forced compactions (chunk buffer hit `window_cap`).
    pub forced_compactions: u64,
    /// OA prefix-scan replans across all machines.
    pub replans: u64,
    /// Machine-events processed (advance visits + arrivals).
    pub machine_events: u64,
    /// Density-aware decisions that fell back to overlap counting.
    pub density_fallbacks: u64,
}

impl StreamReport {
    /// Empirical competitive ratio `energy / lower_bound`, when the bound
    /// exists and is positive.
    pub fn ratio(&self) -> Option<f64> {
        match self.lower_bound {
            Some(lb) if lb > 0.0 => Some(self.energy / lb),
            _ => None,
        }
    }

    /// Fraction of machine-events that required a full prefix replan — the
    /// naive engine replans at every one of them, the incremental engine
    /// only at a machine's own arrivals and completions.
    pub fn recompute_frac(&self) -> f64 {
        if self.machine_events == 0 {
            0.0
        } else {
            self.replans as f64 / self.machine_events as f64
        }
    }
}

/// Chunk accumulator for the certified lower bound (see module docs).
struct ChunkLb {
    jobs: Vec<Job>,
    machines: usize,
    alpha: f64,
    bal_cap: usize,
    sum: f64,
}

impl ChunkLb {
    /// Add the buffered chunk's bound to the sum. A chunk BAL cannot solve
    /// (e.g. a window so narrow that its speed bound overflows) is a typed
    /// [`SolveError`], never a panic.
    fn flush(&mut self) -> Result<(), SolveError> {
        if self.jobs.is_empty() {
            return Ok(());
        }
        let _span = ssp_probe::span("online.compact");
        let lb = if self.jobs.len() <= self.bal_cap {
            let chunk = Instance::new(std::mem::take(&mut self.jobs), self.machines, self.alpha)?;
            self.jobs = Vec::with_capacity(chunk.len());
            try_bal(&chunk, Budget::unlimited())?.energy
        } else {
            let pooled = yds(&self.jobs, self.alpha).energy;
            self.jobs.clear();
            pooled / pow_alpha(self.machines as f64, self.alpha - 1.0)
        };
        self.sum += lb;
        Ok(())
    }
}

/// The streaming arrival engine. See the module docs for the full story.
pub struct StreamEngine {
    opts: EngineOptions,
    scheds: Vec<Sched>,
    /// Unexpired original jobs per machine (the dispatch live windows).
    windows: Vec<Vec<Job>>,
    live_eval: LiveEval,
    lb: Option<ChunkLb>,
    /// Jobs buffered since the last flush, whether or not the oracle
    /// stores them (drives forced compaction).
    chunk_len: usize,
    rr_next: usize,
    last_release: f64,
    /// Max deadline over every job ever pushed — a release at or past it
    /// proves the live window empty (natural split point).
    max_deadline: f64,
    arrivals: u64,
    peak_live: usize,
    peak_chunk: usize,
    compactions: u64,
    forced_compactions: u64,
    machine_events: u64,
    density_fallbacks: u64,
}

impl StreamEngine {
    /// Build an engine. Fails like [`Instance::new`] on a zero machine
    /// count or `alpha ≤ 1`.
    pub fn new(opts: EngineOptions) -> Result<Self, ModelError> {
        if opts.machines == 0 {
            return Err(ModelError::NoMachines);
        }
        if !opts.alpha.is_finite() || opts.alpha <= 1.0 {
            return Err(ModelError::BadAlpha { alpha: opts.alpha });
        }
        let scheds = (0..opts.machines)
            .map(|_| match opts.scheduler {
                SchedulerKind::Oa => Sched::Oa(OaMachine::new(opts.alpha)),
                SchedulerKind::Avr => Sched::Avr(AvrMachine::new(opts.alpha)),
            })
            .collect();
        let lb = match opts.lower_bound {
            LbMode::Off => None,
            LbMode::Chunked { bal_cap } => Some(ChunkLb {
                jobs: Vec::new(),
                machines: opts.machines,
                alpha: opts.alpha,
                bal_cap,
                sum: 0.0,
            }),
        };
        Ok(StreamEngine {
            windows: vec![Vec::new(); opts.machines],
            scheds,
            live_eval: LiveEval::new(opts.alpha),
            lb,
            chunk_len: 0,
            rr_next: 0,
            last_release: f64::NEG_INFINITY,
            max_deadline: f64::NEG_INFINITY,
            arrivals: 0,
            peak_live: 0,
            peak_chunk: 0,
            compactions: 0,
            forced_compactions: 0,
            machine_events: 0,
            density_fallbacks: 0,
            opts,
        })
    }

    /// Absorb one arrival and return the machine it was dispatched to.
    /// Jobs must satisfy the trace contract (valid fields, non-decreasing
    /// releases); the engine is total — a bad job is a typed error, not a
    /// panic, and leaves the engine state unchanged. The arrival may also
    /// close a lower-bound chunk that BAL cannot bound; that is a typed
    /// [`SolveError`] as well, after which the run has no certified bound
    /// and the engine should be dropped.
    pub fn push(&mut self, job: Job) -> Result<usize, SolveError> {
        validate_arrival(&job, self.last_release)?;
        ssp_probe::counter!("online.arrivals");
        self.arrivals += 1;
        self.last_release = job.release;

        // Compaction first: a natural split needs no look at the live
        // state (the release outruns every seen deadline), a forced one
        // bounds the chunk buffer.
        if self.chunk_len > 0 && job.release >= self.max_deadline {
            self.compact()?;
            ssp_probe::counter!("online.compactions");
            self.compactions += 1;
        } else if self.chunk_len >= self.opts.window_cap {
            self.compact()?;
            ssp_probe::counter!("online.compactions_forced");
            self.forced_compactions += 1;
        }

        // Advance every machine to the release instant and prune the
        // dispatch windows of expired jobs.
        for p in 0..self.opts.machines {
            self.scheds[p].advance(job.release);
            self.windows[p].retain(|j| j.deadline > job.release);
            self.machine_events += 1;
            ssp_probe::counter!("online.events");
        }

        let p = self.pick(&job);
        self.scheds[p].arrive(&job);
        self.machine_events += 1;
        ssp_probe::counter!("online.events");
        self.windows[p].push(job);
        if let Some(lb) = &mut self.lb {
            lb.jobs.push(job);
        }
        self.chunk_len += 1;
        self.peak_chunk = self.peak_chunk.max(self.chunk_len);
        self.max_deadline = self.max_deadline.max(job.deadline);

        let live: usize = self.windows.iter().map(Vec::len).sum();
        self.peak_live = self.peak_live.max(live);
        ssp_probe::histogram!("online.window_jobs", live as u64);
        Ok(p)
    }

    fn compact(&mut self) -> Result<(), SolveError> {
        if let Some(lb) = &mut self.lb {
            lb.flush()?;
        }
        self.chunk_len = 0;
        Ok(())
    }

    /// The dispatch decision. Reads only live state; deterministic.
    fn pick(&mut self, job: &Job) -> usize {
        let m = self.opts.machines;
        match self.opts.policy {
            Policy::RoundRobin => {
                let p = self.rr_next;
                self.rr_next = (self.rr_next + 1) % m;
                p
            }
            Policy::LoadAware => {
                let mut best = (0usize, f64::INFINITY);
                for (p, s) in self.scheds.iter().enumerate() {
                    let load = s.load();
                    if load < best.1 {
                        best = (p, load);
                    }
                }
                best.0
            }
            Policy::DensityAware => {
                let live: usize = self.windows.iter().map(Vec::len).sum();
                let mut best = (0usize, f64::INFINITY);
                if live <= self.opts.price_cap {
                    for (p, w) in self.windows.iter().enumerate() {
                        let marginal = self.live_eval.marginal(w, job);
                        if marginal < best.1 {
                            best = (p, marginal);
                        }
                    }
                } else {
                    ssp_probe::counter!("online.density_fallback");
                    self.density_fallbacks += 1;
                    for (p, w) in self.windows.iter().enumerate() {
                        let overlap: f64 = w
                            .iter()
                            .filter(|j| j.release < job.deadline && j.deadline > job.release)
                            .map(Job::density)
                            .sum();
                        if overlap < best.1 {
                            best = (p, overlap);
                        }
                    }
                }
                best.0
            }
        }
    }

    /// Total live (unexpired) jobs across all machines right now.
    pub fn live_jobs(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Machine `p`'s live window (unexpired dispatched jobs, arrival
    /// order) — what the density-aware policy prices. Exposed so the
    /// compaction property test can compare live state bit for bit.
    pub fn live_window(&self, p: usize) -> &[Job] {
        &self.windows[p]
    }

    /// Drain every machine (simulate to the last deadline), flush the
    /// final chunk, and report.
    pub fn finish(mut self) -> Result<StreamReport, SolveError> {
        for s in &mut self.scheds {
            s.advance(f64::INFINITY);
        }
        self.compact()?;
        let machine_energy: Vec<f64> = self.scheds.iter().map(Sched::energy).collect();
        let energy: f64 = machine_energy.iter().sum();
        let replans: u64 = self.scheds.iter().map(Sched::replans).sum();
        let report = StreamReport {
            arrivals: self.arrivals,
            machines: self.opts.machines,
            alpha: self.opts.alpha,
            policy: self.opts.policy,
            scheduler: self.opts.scheduler,
            energy,
            machine_energy,
            lower_bound: self.lb.as_ref().map(|lb| lb.sum),
            peak_live: self.peak_live,
            peak_chunk: self.peak_chunk,
            compactions: self.compactions,
            forced_compactions: self.forced_compactions,
            replans,
            machine_events: self.machine_events,
            density_fallbacks: self.density_fallbacks,
        };
        ssp_probe::histogram!(
            "online.recompute_frac",
            (report.recompute_frac() * 100.0).round() as u64
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_single::oa::oa_schedule;
    use ssp_workloads::{families, stream_family};

    fn run_stream(name: &str, n: usize, policy: Policy, scheduler: SchedulerKind) -> StreamReport {
        let spec = stream_family(name, 3, 2.0).unwrap();
        let mut engine = StreamEngine::new(
            EngineOptions::new(3, 2.0)
                .policy(policy)
                .scheduler(scheduler),
        )
        .unwrap();
        for job in spec.jobs(42).take(n) {
            engine.push(job).unwrap();
        }
        engine.finish().unwrap()
    }

    #[test]
    fn every_policy_and_scheduler_beats_the_certified_bound() {
        for policy in Policy::ALL {
            for scheduler in [SchedulerKind::Oa, SchedulerKind::Avr] {
                let r = run_stream("bursty", 300, policy, scheduler);
                assert_eq!(r.arrivals, 300);
                let ratio = r.ratio().expect("lower bound is on by default");
                assert!(
                    ratio >= 1.0 - 1e-6,
                    "{policy}/{} ratio {ratio} < 1",
                    scheduler.name()
                );
                assert!(ratio < 50.0, "{policy} ratio {ratio} looks broken");
                assert!(r.compactions > 0, "bursty stream must split naturally");
                assert!(r.peak_live < 300, "window never compacted");
            }
        }
    }

    #[test]
    fn round_robin_cycles() {
        let spec = stream_family("poisson", 4, 2.0).unwrap();
        let mut engine = StreamEngine::new(EngineOptions::new(4, 2.0)).unwrap();
        for (k, job) in spec.jobs(1).take(16).enumerate() {
            assert_eq!(engine.push(job).unwrap(), k % 4);
        }
    }

    #[test]
    fn engine_matches_offline_oa_on_one_machine() {
        // One machine: dispatch is trivial and the engine IS single-
        // processor OA — its exact energy must match the offline reference.
        let spec = stream_family("poisson", 1, 2.0).unwrap();
        let jobs: Vec<Job> = spec.jobs(9).take(120).collect();
        let mut engine = StreamEngine::new(EngineOptions::new(1, 2.0)).unwrap();
        for job in &jobs {
            engine.push(*job).unwrap();
        }
        let r = engine.finish().unwrap();
        let reference = oa_schedule(&jobs, 2.0, 0).energy(2.0);
        assert!(
            (r.energy - reference).abs() <= 1e-9 * reference,
            "{} vs {reference}",
            r.energy
        );
    }

    #[test]
    fn forced_compaction_kicks_in_when_windows_refuse_to_close() {
        let spec = stream_family("heavy", 2, 2.0).unwrap();
        let mut engine = StreamEngine::new(EngineOptions::new(2, 2.0).window_cap(64)).unwrap();
        for job in spec.jobs(5).take(2000) {
            engine.push(job).unwrap();
        }
        let r = engine.finish().unwrap();
        assert!(r.forced_compactions > 0, "heavy stream never hit the cap");
        assert!(r.peak_chunk <= 64);
        assert!(r.ratio().unwrap() >= 1.0 - 1e-6);
    }

    #[test]
    fn bad_arrivals_are_typed_errors_and_leave_state_intact() {
        let mut engine = StreamEngine::new(EngineOptions::new(2, 2.0)).unwrap();
        engine.push(Job::new(0, 1.0, 5.0, 7.0)).unwrap();
        // Out of order.
        assert!(engine.push(Job::new(1, 1.0, 4.0, 9.0)).is_err());
        // Invalid fields.
        assert!(engine.push(Job::new(2, -1.0, 6.0, 9.0)).is_err());
        assert!(engine.push(Job::new(3, 1.0, 6.0, 6.0)).is_err());
        assert!(engine.push(Job::new(4, f64::NAN, 6.0, 9.0)).is_err());
        // The good job still finishes cleanly.
        let r = engine.finish().unwrap();
        assert_eq!(r.arrivals, 1);
        assert!(r.energy > 0.0);
    }

    #[test]
    fn a_chunk_bal_cannot_bound_is_a_typed_error() {
        // A 1e-300-wide window of work 1e300 overflows the chunk's initial
        // speed bound; the final flush must report it, not panic.
        let mut engine = StreamEngine::new(EngineOptions::new(2, 2.0)).unwrap();
        engine.push(Job::new(0, 1e300, 0.0, 1e-300)).unwrap();
        engine.push(Job::new(1, 1.0, 0.0, 2.0)).unwrap();
        let err = engine.finish().unwrap_err();
        assert_eq!(err.kind(), "numeric", "{err}");
    }

    #[test]
    fn density_policy_spreads_simultaneous_tight_jobs() {
        let mut engine =
            StreamEngine::new(EngineOptions::new(2, 2.0).policy(Policy::DensityAware)).unwrap();
        let a = engine.push(Job::new(0, 1.0, 0.0, 1.0)).unwrap();
        let b = engine.push(Job::new(1, 1.0, 0.0, 1.0)).unwrap();
        assert_ne!(a, b, "identical tight jobs must land on distinct machines");
        let r = engine.finish().unwrap();
        // Each runs alone at speed 1 under OA: energy 2 at alpha 2 — optimal.
        assert!((r.energy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_policy_balances_an_adversarial_rr_stream() {
        // Alternating heavy/light jobs: round-robin piles all heavy work
        // onto machine 0, load-aware interleaves. Both stay feasible; the
        // load-aware energy must not exceed round-robin's.
        let mk = |k: u32| {
            let heavy = k.is_multiple_of(2);
            let t = f64::from(k / 2) * 4.0;
            Job::new(
                k,
                if heavy { 8.0 } else { 1.0 },
                t,
                t + if heavy { 16.0 } else { 4.0 },
            )
        };
        let run = |policy| {
            let mut e = StreamEngine::new(EngineOptions::new(2, 2.0).policy(policy)).unwrap();
            for k in 0..40 {
                e.push(mk(k)).unwrap();
            }
            e.finish().unwrap().energy
        };
        assert!(run(Policy::LoadAware) <= run(Policy::RoundRobin) * (1.0 + 1e-9));
    }

    #[test]
    fn lb_off_still_detects_splits_with_empty_buffers() {
        let spec = stream_family("bursty", 2, 2.0).unwrap();
        let mut engine =
            StreamEngine::new(EngineOptions::new(2, 2.0).lower_bound(LbMode::Off)).unwrap();
        for job in spec.jobs(13).take(400) {
            engine.push(job).unwrap();
        }
        let r = engine.finish().unwrap();
        assert!(r.lower_bound.is_none());
        assert!(r.compactions > 0);
        assert!(r.peak_chunk <= 4096);
    }

    #[test]
    fn avr_engine_on_one_machine_matches_reference_energy() {
        let inst = families::general(60, 1, 2.2).gen(17);
        let mut jobs = inst.jobs().to_vec();
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release).then(a.id.cmp(&b.id)));
        let mut engine =
            StreamEngine::new(EngineOptions::new(1, 2.2).scheduler(SchedulerKind::Avr)).unwrap();
        for job in &jobs {
            engine.push(*job).unwrap();
        }
        let r = engine.finish().unwrap();
        let reference = ssp_single::avr::avr_energy(&jobs, 2.2);
        assert!((r.energy - reference).abs() <= 1e-9 * reference);
    }
}
