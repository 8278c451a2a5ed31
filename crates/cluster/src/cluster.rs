//! The cluster simulation: N GPUs, one deterministic event clock.
//!
//! # Model
//!
//! * Each GPU is a byte-granular reservation ledger. A job holds one
//!   reservation *per replica* (granted at admission) for its entire
//!   stay; there is no mid-run growth, because Capuchin's plan keeps the
//!   footprint under the granted budget.
//! * A job with `gpus = k > 1` is a data-parallel **gang**: `k` replicas,
//!   each training `batch / k` samples, admitted to `k` GPUs atomically —
//!   all or none, never a partial gang. Admission measures the
//!   *per-replica* footprint (weights + activations at the replica
//!   batch) once and every replica gets the same grant. The gang iterates
//!   in lockstep: one barrier per iteration boundary, where gradients are
//!   allreduced before the next iteration starts.
//! * Job execution is replayed, not re-simulated: admission validates the
//!   granted budget with a real engine run and the cluster replays the
//!   recorded per-iteration wall times (and swap-byte volumes) on its own
//!   clock. When a job's validation run is shorter than the job, the
//!   final (steady-state) iteration repeats. An empty validation trace is
//!   a failed validation — replaying it would fabricate zero-time
//!   iterations.
//! * Co-located jobs slow each other down: an iteration in flight while
//!   `k` jobs are resident on the GPU progresses at `1/k` of its recorded
//!   pace (compute is time-sliced, memory is partitioned). A gang's
//!   factor is the *maximum* over its GPUs — the lockstep barrier waits
//!   for the slowest replica. Residency changes *re-price* every
//!   in-flight iteration: progress accrued so far is banked at the old
//!   factor and the remainder is rescaled to the new one, so bursty
//!   arrivals are charged honestly.
//! * With [`ClusterConfig::interconnect`] set, all cluster copy traffic
//!   routes over a shared fabric ([`capuchin_sim::Interconnect`]) instead
//!   of private per-job lanes: the *per-tensor transfer timeline* each
//!   iteration recorded during validation, gang gradient allreduces (ring
//!   schedule, `2·(k−1)/k × gradient bytes` per replica), and
//!   checkpoint/restore copies. Concurrent transfers queue on the
//!   finite-bandwidth links and stretch co-resident iterations. Swap
//!   replay re-issues each recorded transfer at its in-iteration offset
//!   and charges only the *deduplicated queueing delay* (the validated
//!   wall already contains the wire time, paid once on a private lane),
//!   so a job's `comm_delay` decomposes exactly into its per-tensor
//!   transfer records; a stretched prefetch accumulates a feedback lead
//!   that pulls its next replay earlier (the §4.4 in-trigger loop at
//!   cluster level). Allreduce — absent from single-GPU validation —
//!   charges its full span at the barrier.
//! * With [`ClusterConfig::preemption`] on, a high-effective-priority
//!   arrival that fits nowhere may preempt the lowest-priority resident
//!   job: the victim's state is checkpointed to the host (a copy of its
//!   whole reservation, from every replica), its reservations are
//!   released, and it re-enters the queue to resume later from the saved
//!   iteration (restore pays the host-to-device copy). Gangs are
//!   preempted whole or not at all — evicting one replica would stall the
//!   lockstep barrier forever. The interrupted iteration is discarded: a
//!   resumed job replays its recorded iterations from the saved cursor.
//! * With [`ClusterConfig::elastic`] on, a waiting [`JobSpec::elastic`] job
//!   that fits nowhere at its full batch is admitted at a *reduced* batch:
//!   the cluster bisects the halving ladder ([`capuchin::elastic_batches`],
//!   floored at a quarter of the batch) for the largest batch some gang
//!   subset can host right now, reusing the footprint/validation caches
//!   keyed by replica batch. A reduced job trains *more iterations* so that
//!   total samples trained is preserved exactly (the final iteration
//!   carries a partial batch when the ladder does not divide evenly). At
//!   every completed-iteration boundary a reduced job checks whether freed
//!   headroom lets it re-grow toward the full batch; a re-grown job is
//!   re-validated at the new batch, and the cluster charges the same
//!   device-to-host checkpoint plus host-to-device restore copies
//!   preemption models.
//! * Footprint measurement happens off the critical path (think: a
//!   profiling sidecar), so admission consumes no simulated time.
//!
//! # Determinism and gang atomicity
//!
//! Events are ordered by `(time, class, submission sequence)` — the
//! class ranks arrivals ahead of scheduled events at the same instant,
//! which makes the ordering independent of *when* a job was submitted:
//! the online API ([`Cluster::submit`]) interleaves a late submission
//! exactly where the batch loop (which pushes every arrival before any
//! scheduled event exists) would have processed it. All caches are
//! `BTreeMap`s; the waiting queue is a `BTreeMap` keyed by a monotone
//! entry sequence — queue-entry order (arrival, or checkpoint completion
//! for preempted jobs) with O(log n) keyed removal. Re-pricing and
//! preemption supersede scheduled iteration ends via a per-job epoch
//! counter — stale events are skipped on pop, never mutated in place.
//! Two runs over the same workload produce byte-identical stats JSON.
//!
//! Gang reservation cannot deadlock: the strategy returns the *complete*
//! GPU set for one job and the single-threaded event loop grants every
//! member in the same step. No gang ever holds a partial reservation
//! while waiting for the rest, so there is no hold-and-wait cycle — the
//! classic sort-by-gang-then-release protocol degenerates to a single
//! atomic grant.

use capuchin_sim::{Duration, Time};

use crate::admission::AdmissionCache;
pub use crate::config::{ClusterConfig, ClusterConfigBuilder, ConfigError};
use crate::inference::{request_arrived, schedule_next_request};
use crate::job::JobSpec;
use crate::predict::FootprintPredictor;
use crate::session::{settle_comm, EventKind, JobRun, Phase, Session};
use crate::stats::{
    ClusterStats, ClusterTransfer, GpuStats, JobEvent, JobEventKind, JobOutcome, JobStats,
    JobStatus, STATS_SCHEMA_VERSION,
};

/// Handle for a submitted job: its submission index, stable for the
/// lifetime of the run and equal to the index of the job's entry in
/// [`ClusterStats::jobs`].
pub type JobId = usize;

/// Why [`Cluster::cancel`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelError {
    /// No job with this id was ever submitted.
    UnknownJob(JobId),
    /// The job already reached a terminal state (completed, rejected,
    /// aborted, or cancelled); there is nothing left to cancel.
    Terminal(JobId),
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::UnknownJob(id) => write!(f, "job {id} was never submitted"),
            CancelError::Terminal(id) => {
                write!(f, "job {id} already reached a terminal state")
            }
        }
    }
}

impl std::error::Error for CancelError {}

/// The cluster scheduler.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    /// The admission controller and its shape-keyed caches. Like the
    /// predictor they survive [`Cluster::reset`].
    pub(crate) cache: AdmissionCache,
    /// Footprint regression store fed by completed measured runs. Like
    /// the admission caches it survives [`Cluster::reset`], which is what
    /// lets a `capuchin-serve` daemon warm it across online submissions —
    /// the longer the daemon lives, the more admissions are free.
    pub(crate) predictor: FootprintPredictor,
    /// Live run state for the online API (and the batch wrappers).
    session: Session,
}

impl Cluster {
    /// Creates a cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let cache = AdmissionCache::new(cfg.admission, cfg.spec.clone(), cfg.validate_iters);
        let session = Session::new(&cfg);
        Cluster {
            cfg,
            cache,
            predictor: FootprintPredictor::new(),
            session,
        }
    }

    /// Memoized validation entries currently held. Diagnostic hook:
    /// heuristic-class admissions must leave this cache cold, so an
    /// all-`dtr` workload reports zero here.
    pub fn validation_cache_len(&self) -> usize {
        self.cache.validations.len()
    }

    /// Total validation engine runs the admission controller has
    /// performed over this cluster's lifetime (all sessions — the
    /// caches, like the controller, survive [`Cluster::reset`]).
    pub fn validation_runs(&self) -> u64 {
        self.cache.admission.validation_runs()
    }

    /// The footprint regression store (read-only). Like the admission
    /// caches it survives [`Cluster::reset`] — a serve daemon's predictor
    /// keeps warming across submissions for its whole lifetime.
    pub fn predictor(&self) -> &FootprintPredictor {
        &self.predictor
    }

    /// Predicted admissions this session (warm predictor keys).
    pub fn predictor_hits(&self) -> u64 {
        self.session.predictor_hits
    }

    /// Predictable arrivals that fell back to measured admission this
    /// session (cold predictor keys).
    pub fn predictor_misses(&self) -> u64 {
        self.session.predictor_misses
    }

    /// Work counters of this session's settle passes (see
    /// [`crate::strategy::SettleCounters`]); [`Cluster::reset`] zeroes them.
    pub fn settle_counters(&self) -> crate::strategy::SettleCounters {
        self.session.counters
    }

    /// Runs the workload to completion and returns the stats.
    ///
    /// A thin wrapper over the online core: [`Cluster::reset`], then
    /// [`Cluster::submit`] for every spec, then [`Cluster::drain`]. The
    /// stats JSON is byte-identical to driving the incremental API over
    /// the same submission sequence.
    pub fn run(&mut self, specs: &[JobSpec]) -> ClusterStats {
        self.run_traced(specs).0
    }

    /// Runs the workload and additionally returns the unified transfer
    /// trace: every replayed per-tensor swap, gang allreduce, and
    /// checkpoint/restore copy resolved on the shared fabric, in
    /// settlement order. Empty when the interconnect model is off. The
    /// trace is a side-channel — [`ClusterStats`] (and its JSON) is
    /// identical to what [`Cluster::run`] returns.
    pub fn run_traced(&mut self, specs: &[JobSpec]) -> (ClusterStats, Vec<ClusterTransfer>) {
        self.reset();
        for spec in specs {
            self.submit(spec);
        }
        self.drain();
        let transfers = std::mem::take(&mut self.session.transfers);
        (self.stats(), transfers)
    }

    /// Discards all run state (jobs, clock, heap, side-channel logs) and
    /// starts a fresh session on the same configuration. The admission
    /// caches are kept — they memoize pure functions of the spec, so
    /// reuse cannot perturb determinism.
    pub fn reset(&mut self) {
        self.session = Session::new(&self.cfg);
    }

    /// The simulation clock: the last processed event time or the last
    /// [`Cluster::advance_to`] deadline, whichever is later.
    pub fn now(&self) -> Time {
        self.session.now
    }

    /// Submits one job to the online core and returns its handle.
    ///
    /// The job's [`JobSpec::arrival_time`] is honoured while it is still
    /// in the future; an arrival the clock has already passed is clamped
    /// to [`Cluster::now`] — the cluster cannot admit in the past.
    /// Nothing is processed here: the arrival itself (admission
    /// measuring, placement) happens when the clock reaches it via
    /// [`Cluster::step`], [`Cluster::advance_to`] or [`Cluster::drain`].
    pub fn submit(&mut self, spec: &JobSpec) -> JobId {
        let s = &mut self.session;
        let id = s.jobs.len();
        let mut run = JobRun::new(spec, id);
        if self.cfg.elastic && spec.elastic && run.serving.is_none() {
            run.elastic = Some(Default::default());
        }
        if run.arrival < s.now {
            run.arrival = s.now;
            run.queued_at = s.now;
        }
        let arrival = run.arrival;
        s.jobs.push(run);
        s.emit(id, arrival, JobEventKind::Submitted);
        s.heap.push(arrival, EventKind::Arrive, id, 0);
        id
    }

    /// Cancels a job. A never-admitted queued job simply leaves the
    /// waiting queue — it held no reservation, so nothing is refunded; a
    /// resident (or mid-checkpoint-copy) job releases every replica's
    /// reservation immediately and its in-flight events are invalidated.
    /// Either way the job's outcome becomes [`JobOutcome::Cancelled`] —
    /// distinct from `Rejected` (admission never refused it) and
    /// `Aborted` (its replay state never became unusable).
    ///
    /// # Errors
    ///
    /// [`CancelError::UnknownJob`] for an id [`Cluster::submit`] never
    /// returned; [`CancelError::Terminal`] when the job already
    /// completed, was rejected, aborted, or cancelled.
    pub fn cancel(&mut self, id: JobId) -> Result<(), CancelError> {
        match self.session.jobs.get(id).map(JobRun::state) {
            None => return Err(CancelError::UnknownJob(id)),
            Some(state) if state.is_terminal() => return Err(CancelError::Terminal(id)),
            Some(_) => {}
        }
        let mut s = std::mem::take(&mut self.session);
        let now = s.now;
        // A queued job holds nothing and refunds nothing; a resident (or
        // mid-checkpoint-copy) job's whole gang releases right away — a
        // checkpoint copy in flight is moot, the job is going away.
        s.finish(id, now, JobOutcome::Cancelled);
        // Freed memory — or a freed queue slot ahead of other waiters —
        // may unblock placements immediately.
        self.settle(&mut s, now);
        self.session = s;
        Ok(())
    }

    /// A live snapshot of one job, or `None` for an id never submitted.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let j = self.session.jobs.get(id)?;
        Some(JobStatus {
            id: id as u64,
            name: j.spec.name.clone(),
            state: j.state(),
            iters_done: j.iters_done,
            samples_done: j.samples_done,
            samples_total: j.samples_total,
            cur_batch: j.cur_batch,
            replicas: j.width(),
            gpus: j.gpus_held.clone(),
            reserved_bytes: if j.gpus_held.is_empty() {
                0
            } else {
                j.reserved
            },
            preemptions: j.preemptions,
            rebatches: j.elastic.as_ref().map_or(0, |e| e.rebatches),
            admission_source: j.source_name().to_owned(),
        })
    }

    /// Drains the lifecycle event log accumulated since the last call
    /// (or [`Cluster::reset`]): every submit, reject, admit, iteration,
    /// preempt, resume, rebatch, complete, abort and cancel transition,
    /// in occurrence order. A pure side-channel — reading or ignoring it
    /// cannot change the stats.
    pub fn take_events(&mut self) -> Vec<JobEvent> {
        std::mem::take(&mut self.session.events)
    }

    /// Drains the unified transfer trace accumulated since the last call
    /// (or [`Cluster::reset`]) — the same records [`Cluster::run_traced`]
    /// returns, exposed incrementally for streaming consumers. Empty
    /// with the interconnect model off.
    pub fn take_transfers(&mut self) -> Vec<ClusterTransfer> {
        std::mem::take(&mut self.session.transfers)
    }

    /// Whether any live (non-superseded) event is still scheduled.
    pub fn has_work(&self) -> bool {
        let s = &self.session;
        s.heap.iter().any(|e| !e.is_stale(&s.jobs[e.job]))
    }

    /// Processes the next event, skipping superseded ones: dispatches
    /// its state transition, then runs one settle pass (placement, the
    /// elastic second pass, preemption) — exactly one turn of the batch
    /// loop. Returns whether an event was processed; `false` means the
    /// cluster is idle.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// Advances the clock to `deadline`, processing every event at or
    /// before it, and returns whether live events remain beyond it.
    /// Events strictly after the deadline are untouched, so a later
    /// [`Cluster::submit`] whose arrival lands before them still
    /// interleaves exactly as a batch run would have ordered it.
    pub fn advance_to(&mut self, deadline: Time) -> bool {
        while self.step_bounded(Some(deadline)) {}
        if self.session.now < deadline {
            self.session.now = deadline;
        }
        self.has_work()
    }

    /// Runs the event loop to idle: every submitted job reaches a
    /// terminal state or starves waiting.
    pub fn drain(&mut self) {
        while self.step() {}
    }

    fn step_bounded(&mut self, deadline: Option<Time>) -> bool {
        let mut s = std::mem::take(&mut self.session);
        let mut processed = false;
        while let Some(e) = s.heap.peek() {
            if e.is_stale(&s.jobs[e.job]) {
                // Superseded by a re-pricing, preemption, abort or
                // cancel: drop it without touching the clock.
                s.heap.pop();
                continue;
            }
            let now = e.at;
            if deadline.is_some_and(|d| now > d) {
                break;
            }
            s.heap.pop();
            s.now = now;
            self.dispatch(&mut s, e.job, e.kind, now);
            self.settle(&mut s, now);
            processed = true;
            break;
        }
        self.session = s;
        processed
    }

    /// One event's state transition; the settle pass (placement and
    /// friends) runs separately after every dispatch. Class-specific
    /// transitions live with their class: [`crate::inference`],
    /// [`crate::elastic`], [`crate::predicted`].
    fn dispatch(&mut self, s: &mut Session, job: usize, kind: EventKind, now: Time) {
        match kind {
            EventKind::Arrive => {
                // Bad gang widths are rejected at parse time
                // ([`crate::JobSpec::validate`]); specs built in code get
                // the same verdict here instead of a late panic.
                let width = s.jobs[job].spec.gpus;
                let admissible = width != 0 && width <= self.cfg.gpus && {
                    self.arrival_budgets(s, job);
                    // An elastic job whose full-batch minimum exceeds a
                    // bare GPU is still admissible if the ladder's floor
                    // batch fits one.
                    let j = &s.jobs[job];
                    let admissible = j.needs.min <= self.cfg.spec.memory_bytes
                        || (j.elastic.is_some() && self.ladder_floor_fits(&j.spec));
                    self.cache.charge(&mut s.jobs[job].admission_validations);
                    admissible
                };
                if !admissible {
                    // Admission-time OOM: no bare GPU can host a replica
                    // at any allowed batch.
                    s.finish(job, now, JobOutcome::Rejected);
                } else {
                    s.enqueue(job);
                    // A serving job's request-arrival process starts with
                    // it: each arrival schedules its successor.
                    schedule_next_request(s, job, now);
                }
            }
            EventKind::IterEnd => {
                // Compute done. The iteration is complete only after
                // the boundary communication (replayed swap traffic
                // queueing, then the gang's gradient allreduce)
                // drains on the shared fabric.
                s.jobs[job].phase = Phase::Barrier;
                let comm_end =
                    settle_comm(&mut s.jobs[job], now, s.fabric.as_mut(), &mut s.transfers);
                if comm_end > now {
                    let j = &mut s.jobs[job];
                    j.epoch += 1;
                    s.heap.push(comm_end, EventKind::Comm, job, j.epoch);
                } else {
                    self.complete_iteration(s, job, now);
                }
            }
            EventKind::Comm => self.complete_iteration(s, job, now),
            EventKind::Request => request_arrived(s, job, now),
            EventKind::Regrow => self.finish_rebatch(s, job, now),
            EventKind::Preempt => {
                // Checkpoint copy drained: release every replica's
                // reservation and put the victim back in the queue,
                // resumable. The reduced-batch clock pauses while the
                // job sits on the host.
                let j = &mut s.jobs[job];
                j.close_reduced(now);
                j.queued_at = now;
                let preempted = Phase::Preempted { since: now };
                s.release_gang(job, now, preempted, JobEventKind::Preempted);
                // All earlier queue entries have queued_at <= now, so
                // appending preserves queue-entry order.
                s.enqueue(job);
            }
            EventKind::Resume => {
                // Restore copy drained: the job continues from its
                // checkpointed cursor.
                let j = &mut s.jobs[job];
                if let Phase::Preempted { since } = j.phase {
                    j.resume_latency += now.saturating_since(since);
                }
                // A job resuming below its requested batch reopens its
                // reduced-batch window.
                if j.cur_batch < j.spec.batch.max(1) {
                    if let Some(e) = &mut j.elastic {
                        e.reduced_since = Some(now);
                    }
                }
                s.emit(job, now, JobEventKind::Resumed);
                s.start_iter(job, now);
            }
            EventKind::Remeasure => self.remeasure(s, job, now),
        }
    }

    /// Marks the in-flight iteration complete (compute and boundary
    /// communication both drained). A serving round completes its
    /// requests ([`Cluster::complete_round`]); a training iteration
    /// advances the samples cursor by the current batch (clamped — the
    /// final iteration carries a partial batch), finishing the job —
    /// releasing every replica's reservation — or changing an elastic
    /// job's batch, or scheduling the next iteration.
    fn complete_iteration(&mut self, s: &mut Session, job: usize, now: Time) {
        if s.jobs[job].serving.is_some() {
            self.complete_round(s, job, now);
            return;
        }
        // A predicted grant is checked against measured truth at its
        // first completed boundary; an under-shoot discards this
        // iteration and checkpoint-preempts into measured re-admission.
        if self.verify_prediction(s, job, now) {
            return;
        }
        let j = &mut s.jobs[job];
        j.bank_iteration();
        let step = (j.cur_batch as u64).min(j.samples_total.saturating_sub(j.samples_done));
        j.samples_done += step;
        let (iter, samples_done) = (j.iters_done, j.samples_done);
        let done = j.samples_done >= j.samples_total;
        s.emit(job, now, JobEventKind::IterationDone { iter, samples_done });
        if done {
            s.finish(job, now, JobOutcome::Completed);
            // A measured completion is ground truth: warm the predictor
            // so the next arrival of this family admits for free.
            self.feed_predictor(s, job);
            return;
        }
        if self.elastic_boundary(s, job, now) {
            return;
        }
        s.start_iter(job, now);
    }

    /// Snapshots whole-run statistics at the current instant — callable
    /// mid-run (jobs still queued or resident simply have no completion
    /// to report yet) and after [`Cluster::drain`], where it renders the
    /// exact JSON the old batch loop produced. Non-destructive: the run
    /// can continue after a snapshot.
    pub fn stats(&self) -> ClusterStats {
        let s = &self.session;
        let jobs = &s.jobs;
        let start = jobs.iter().map(|j| j.arrival).min().unwrap_or(Time::ZERO);
        let end = jobs
            .iter()
            .filter_map(|j| j.finished_at)
            .max()
            .unwrap_or(start);
        let makespan = end.saturating_since(start);
        let job_stats: Vec<JobStats> = jobs
            .iter()
            .map(|j| {
                let (serving, elastic) = (j.serving.as_ref(), j.elastic.as_ref());
                let prediction = j.prediction.as_ref();
                let jct = j
                    .finished_at
                    .map(|f| f.saturating_since(j.arrival))
                    .unwrap_or(Duration::ZERO);
                JobStats {
                    name: j.spec.name.clone(),
                    model: j.spec.model.name().to_owned(),
                    batch: j.spec.batch,
                    policy: j.spec.policy.name().to_owned(),
                    outcome: j.phase.outcome(),
                    replicas: j.spec.gpus,
                    gpus_used: j.gpus_held.clone(),
                    shrunk: j.shrunk,
                    reserved_bytes: j.reserved,
                    footprint_bytes: j.footprint,
                    arrival: j.arrival.saturating_since(Time::ZERO),
                    queueing_delay: j
                        .admitted_at
                        .map(|a| a.saturating_since(j.arrival))
                        .unwrap_or(Duration::ZERO),
                    jct,
                    // Over the iterations actually run: an elastic job
                    // that shrank trains more (cheaper) iterations, and
                    // the mean reflects that. Identical to `spec.iters`
                    // for rigid jobs.
                    mean_iter: match (j.admitted_at, j.finished_at) {
                        (Some(a), Some(f)) if j.iters_done > 0 => {
                            Duration::from_nanos(f.saturating_since(a).as_nanos() / j.iters_done)
                        }
                        _ => Duration::ZERO,
                    },
                    preemptions: j.preemptions,
                    wasted_work: j.wasted_work,
                    resume_latency: j.resume_latency,
                    checkpoint_overhead: j.checkpoint_overhead,
                    allreduce_time: j.allreduce_time,
                    comm_delay: j.comm_delay,
                    rebatches: elastic.map_or(0, |e| e.rebatches),
                    elastic_time_at_reduced_batch: elastic
                        .map_or(Duration::ZERO, |e| e.reduced_time),
                    samples_preserved: j.samples_done,
                    requests_served: serving.map_or(0, |sv| sv.served),
                    slo_misses: serving.map_or(0, |sv| sv.slo_misses),
                    p50_latency: serving.map_or(Duration::ZERO, |sv| sv.latency(50)),
                    p99_latency: serving.map_or(Duration::ZERO, |sv| sv.latency(99)),
                    burst_shrinks: elastic.map_or(0, |e| e.burst_shrinks),
                    recompute_time: j.recompute_time,
                    evictions: j.evictions,
                    admission_validations: j.admission_validations,
                    admission_source: j.source_name().to_owned(),
                    predicted_bytes: prediction.map_or(0, |p| p.padded_full),
                    prediction_error_permille: prediction.map_or(0, |p| p.error_permille),
                    mispredict_recoveries: prediction.map_or(0, |p| p.recoveries),
                }
            })
            .collect();
        let count = |outcome| job_stats.iter().filter(|j| j.outcome == outcome).count();
        let completed: Vec<&JobStats> = job_stats
            .iter()
            .filter(|j| j.outcome == JobOutcome::Completed)
            .collect();
        let mean = |of: fn(&JobStats) -> Duration| -> Duration {
            // u128 accumulation: a u64-nanos sum can overflow on long
            // runs with many samples.
            let total: u128 = completed.iter().map(|&j| of(j).as_nanos() as u128).sum();
            Duration::from_nanos(total.checked_div(completed.len() as u128).unwrap_or(0) as u64)
        };
        // `samples_preserved` equals `batch × iters` for every completed
        // job, elastic or not: re-batching preserves the sample count
        // exactly. Summed in integers; the one float conversion happens at
        // the throughput division below so no per-job precision is lost.
        let total_samples: u64 = completed.iter().map(|j| j.samples_preserved).sum();
        let total_requests: u64 = job_stats.iter().map(|j| j.requests_served).sum();
        let total_misses: u64 = job_stats.iter().map(|j| j.slo_misses).sum();
        let makespan_ns = makespan.as_nanos();
        let per_gpu: Vec<GpuStats> = s
            .gpus
            .iter()
            .enumerate()
            .map(|(idx, g)| {
                // The byte-time integral, extended to the makespan end
                // without mutating the ledger (`reserve_to` would).
                let (capacity, reserved) = (s.pool.capacity(idx), s.pool.reserved(idx));
                let byte_ns = g.byte_ns
                    + reserved as u128 * end.saturating_since(g.last_touch).as_nanos() as u128;
                GpuStats {
                    gpu: idx,
                    capacity,
                    peak_reserved_bytes: g.peak,
                    mean_utilization: if makespan_ns == 0 {
                        0.0
                    } else {
                        byte_ns as f64 / (capacity as f64 * makespan_ns as f64)
                    },
                    jobs_hosted: g.hosted,
                }
            })
            .collect();
        ClusterStats {
            schema_version: STATS_SCHEMA_VERSION,
            gpus: self.cfg.gpus,
            admission: self.cfg.admission.name().to_owned(),
            strategy: self.cfg.strategy.name().to_owned(),
            submitted: jobs.len(),
            completed: completed.len(),
            cancelled: count(JobOutcome::Cancelled),
            oom_rejections: count(JobOutcome::Rejected),
            midrun_oom_aborts: count(JobOutcome::Aborted),
            preemptions: jobs.iter().map(|j| j.preemptions as usize).sum(),
            rebatches: job_stats.iter().map(|j| j.rebatches as usize).sum(),
            requests_served: total_requests,
            slo_misses: total_misses,
            // Attainment in integer permille; an all-training run (no
            // requests) reports a vacuous 1000.
            slo_attainment_permille: ((total_requests - total_misses) * 1000)
                .checked_div(total_requests)
                .unwrap_or(1000),
            burst_shrinks: job_stats.iter().map(|j| j.burst_shrinks).sum(),
            burst_cycles: s.burst_cycles,
            mispredict_recoveries: job_stats.iter().map(|j| j.mispredict_recoveries).sum(),
            predictor_hits: s.predictor_hits,
            predictor_misses: s.predictor_misses,
            makespan,
            aggregate_samples_per_sec: if makespan.as_secs_f64() == 0.0 {
                0.0
            } else {
                total_samples as f64 / makespan.as_secs_f64()
            },
            mean_queueing_delay: mean(|j| j.queueing_delay),
            mean_jct: mean(|j| j.jct),
            interconnect: s
                .fabric
                .as_ref()
                .map_or_else(|| "off".to_owned(), |f| f.spec().name.clone()),
            links: s
                .fabric
                .as_ref()
                .map(|f| f.link_stats())
                .unwrap_or_default(),
            per_gpu,
            jobs: job_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use capuchin_sim::{DeviceSpec, InterconnectSpec};

    use super::*;
    use crate::admission::{AdmissionMode, ReplayIter};
    use crate::job::{synthetic_jobs, JobPolicy};
    use crate::session::{EmptyWalls, GpuState};
    use crate::stats::JobState;
    use crate::strategy::StrategyKind;

    fn small_workload() -> Vec<JobSpec> {
        vec![
            JobSpec {
                name: "a".into(),
                model: capuchin_models::ModelKind::Vgg16,
                batch: 16,
                gpus: 1,
                policy: JobPolicy::Capuchin,
                iters: 3,
                priority: 0,
                arrival_time: 0.0,
                elastic: false,
                ..JobSpec::default()
            },
            JobSpec {
                name: "b".into(),
                model: capuchin_models::ModelKind::ResNet50,
                batch: 16,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 3,
                priority: 1,
                arrival_time: 0.1,
                elastic: false,
                ..JobSpec::default()
            },
        ]
    }

    #[test]
    fn small_workload_completes_on_one_gpu() {
        let cfg = ClusterConfig::builder().gpus(1).build().unwrap();
        let stats = Cluster::new(cfg).run(&small_workload());
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.oom_rejections, 0);
        assert_eq!(stats.midrun_oom_aborts, 0);
        assert_eq!(stats.preemptions, 0);
        assert!(stats.makespan > Duration::ZERO);
        assert!(stats.aggregate_samples_per_sec > 0.0);
        assert!(stats.per_gpu[0].peak_reserved_bytes > 0);
        assert!(stats.per_gpu[0].mean_utilization > 0.0);
        assert_eq!(stats.interconnect, "off");
        assert!(stats.links.is_empty());
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let jobs = synthetic_jobs(6, 1, 0.5);
        let a = Cluster::new(ClusterConfig::default()).run(&jobs).to_json();
        let b = Cluster::new(ClusterConfig::default()).run(&jobs).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn tf_ori_rejects_what_capuchin_shrinks() {
        // VGG16 @ 320 (ideal peak ≈ 19 GiB) oversubscribes a bare 16 GiB
        // device.
        let big = vec![JobSpec {
            name: "big".into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 320,
            gpus: 1,
            policy: JobPolicy::Capuchin,
            iters: 3,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        }];
        let tf = Cluster::new(
            ClusterConfig::builder()
                .gpus(1)
                .admission(AdmissionMode::TfOri)
                .build()
                .unwrap(),
        )
        .run(&big);
        assert_eq!(tf.oom_rejections, 1, "{}", tf.to_json());
        let cap = Cluster::new(
            ClusterConfig::builder()
                .gpus(1)
                .admission(AdmissionMode::Capuchin)
                .build()
                .unwrap(),
        )
        .run(&big);
        assert_eq!(cap.completed, 1, "{}", cap.to_json());
        assert!(cap.jobs[0].shrunk);
        assert!(cap.jobs[0].reserved_bytes < cap.jobs[0].footprint_bytes);
    }

    /// A gang splits its batch: admission measures the per-replica
    /// footprint, all replicas are placed atomically, and the gang
    /// completes with allreduce time visible when a fabric is modelled.
    #[test]
    fn gang_places_all_replicas_atomically() {
        let gang = vec![JobSpec {
            name: "gang".into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 64,
            gpus: 2,
            policy: JobPolicy::TfOri,
            iters: 3,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        }];
        let stats = Cluster::new(
            ClusterConfig::builder()
                .gpus(2)
                .interconnect(Some(InterconnectSpec::pcie_shared()))
                .build()
                .unwrap(),
        )
        .run(&gang);
        assert_eq!(stats.completed, 1, "{}", stats.to_json());
        let j = &stats.jobs[0];
        assert_eq!(j.replicas, 2);
        assert_eq!(j.gpus_used, vec![0, 1]);
        assert!(j.allreduce_time > Duration::ZERO);
        // Both devices hosted one replica with the same reservation.
        assert_eq!(stats.per_gpu[0].peak_reserved_bytes, j.reserved_bytes);
        assert_eq!(stats.per_gpu[1].peak_reserved_bytes, j.reserved_bytes);
        // The host link carried the allreduce traffic.
        assert!(stats.links[0].bytes > 0);
    }

    /// A gang wider than the cluster is rejected defensively at arrival
    /// (parse-time validation already catches it for workload files).
    #[test]
    fn oversized_gang_is_rejected_not_panicked() {
        let wide = vec![JobSpec {
            name: "wide".into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 64,
            gpus: 4,
            policy: JobPolicy::TfOri,
            iters: 2,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        }];
        let stats = Cluster::new(ClusterConfig::builder().gpus(2).build().unwrap()).run(&wide);
        assert_eq!(stats.oom_rejections, 1);
        assert_eq!(stats.jobs[0].outcome, JobOutcome::Rejected);
        assert!(stats.jobs[0].gpus_used.is_empty());
    }

    /// With the interconnect modelled, two co-resident shrunk jobs (both
    /// replaying swap traffic over the one host link) finish later than
    /// with private lanes; an unconstrained fabric reproduces the private
    /// timings exactly.
    #[test]
    fn shared_fabric_stretches_swapping_neighbours() {
        let swapper = |name: &str| JobSpec {
            name: name.into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 320,
            gpus: 1,
            policy: JobPolicy::Capuchin,
            iters: 3,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        };
        let jobs = vec![swapper("s0"), swapper("s1")];
        let cfg = |ic: Option<InterconnectSpec>| {
            ClusterConfig::builder()
                .gpus(2)
                .interconnect(ic)
                .build()
                .unwrap()
        };
        let off = Cluster::new(cfg(None)).run(&jobs);
        let on = Cluster::new(cfg(Some(InterconnectSpec::pcie_shared()))).run(&jobs);
        let free = Cluster::new(cfg(Some(InterconnectSpec::unconstrained()))).run(&jobs);
        assert_eq!(off.completed, 2);
        assert_eq!(on.completed, 2);
        // Both jobs swap; their replayed traffic shares one link, so at
        // least one queues behind the other.
        let total_delay: Duration = on.jobs.iter().map(|j| j.comm_delay).sum();
        assert!(total_delay > Duration::ZERO, "{}", on.to_json());
        assert!(on.makespan > off.makespan);
        // The no-contention limit matches the unmodelled fabric.
        for (a, b) in off.jobs.iter().zip(free.jobs.iter()) {
            assert_eq!(a.jct, b.jct, "{}: jct drifted", a.name);
            assert_eq!(a.queueing_delay, b.queueing_delay);
            assert_eq!(a.mean_iter, b.mean_iter);
        }
        assert_eq!(off.makespan, free.makespan);
    }

    /// Two staggered jobs must slow each other for exactly the overlap:
    /// the first job's in-flight iteration is re-priced when the second
    /// arrives mid-iteration, so neither keeps a stale 1× wall.
    #[test]
    fn staggered_jobs_reprice_in_flight_iterations() {
        let solo = |arrival: f64, name: &str| JobSpec {
            name: name.into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 16,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 4,
            priority: 0,
            arrival_time: arrival,
            elastic: false,
            ..JobSpec::default()
        };
        let baseline = Cluster::new(ClusterConfig::builder().gpus(1).build().unwrap())
            .run(&[solo(0.0, "alone")]);
        let solo_jct = baseline.jobs[0].jct;
        assert!(solo_jct > Duration::ZERO);
        // Stagger the second arrival into the middle of the first job's
        // run (well past admission, well before completion).
        let stagger = solo_jct.as_secs_f64() * 0.4;
        let both = Cluster::new(ClusterConfig::builder().gpus(1).build().unwrap())
            .run(&[solo(0.0, "first"), solo(stagger, "second")]);
        assert_eq!(both.completed, 2, "{}", both.to_json());
        let first = &both.jobs[0];
        let second = &both.jobs[1];
        // Both must be slower than solo: the first pays 2× for its tail
        // (including the re-priced in-flight iteration), the second pays
        // 2× until the first finishes.
        assert!(
            first.jct > solo_jct,
            "first job untouched by contention: {:?} vs solo {:?}",
            first.jct,
            solo_jct
        );
        assert!(
            second.jct > solo_jct,
            "second job untouched by contention: {:?} vs solo {:?}",
            second.jct,
            solo_jct
        );
        // And the overlap is bounded: neither can be slower than a full
        // 2× of the whole solo run.
        assert!(first.jct < solo_jct.mul_f64(2.0));
    }

    /// The re-pricing itself, in isolation: a job mid-iteration at 1×
    /// whose GPU gains a neighbour must finish that iteration later than
    /// scheduled, by the remaining fraction at 2×.
    #[test]
    fn reprice_splits_iteration_at_residency_change() {
        let mut jobs = vec![JobRun::new(
            &JobSpec {
                name: "j".into(),
                model: capuchin_models::ModelKind::ResNet50,
                batch: 1,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 1,
                priority: 0,
                arrival_time: 0.0,
                elastic: false,
                ..JobSpec::default()
            },
            0,
        )];
        jobs[0].gpus_held = vec![0];
        jobs[0].replay = Arc::new(vec![ReplayIter {
            wall: Duration::from_millis(100),
            swap_bytes: 0,
            recompute_time: Duration::ZERO,
            evictions: 0,
            transfers: vec![],
        }]);
        let mut gpus = vec![GpuState::default()];
        gpus[0].resident.push(0);
        let mut s = Session::default();
        s.jobs = jobs;
        s.gpus = gpus;
        s.schedule_iter(0, Time::ZERO).unwrap();
        let e = s.heap.peek().unwrap();
        assert_eq!(e.at.as_nanos(), Duration::from_millis(100).as_nanos());
        assert_eq!(e.epoch, s.jobs[0].epoch);
        // A neighbour joins at t = 40 ms: 60 ms of base wall remain, now
        // at 2× -> new end at 40 + 120 = 160 ms.
        s.gpus[0].resident.push(1);
        s.jobs.push(JobRun::new(&s.jobs[0].spec.clone(), 1));
        let at = Time::ZERO + Duration::from_millis(40);
        s.reprice(&[0], at);
        let newest = s
            .heap
            .iter()
            .find(|e| e.job == 0 && e.epoch == s.jobs[0].epoch)
            .expect("re-priced event exists");
        assert_eq!(newest.at.as_nanos(), Duration::from_millis(160).as_nanos());
    }

    /// Empty replay traces are rejected: `schedule_iter` refuses to
    /// fabricate zero-time iterations.
    #[test]
    fn schedule_iter_rejects_empty_walls() {
        let mut jobs = vec![JobRun::new(
            &JobSpec {
                name: "a".into(),
                ..JobSpec::default()
            },
            0,
        )];
        jobs[0].gpus_held = vec![0];
        let mut s = Session::default();
        s.jobs = jobs;
        s.gpus = vec![GpuState::default()];
        assert_eq!(s.schedule_iter(0, Time::ZERO), Err(EmptyWalls));
        assert!(s.heap.peek().is_none());
    }

    /// On a contended single GPU, best-fit with preemption starts a
    /// high-priority arrival before the resident low-priority job
    /// finishes; the victim checkpoints out, resumes, and completes with
    /// the PCIe checkpoint/restore time visible in its JCT.
    #[test]
    fn preemption_starts_high_priority_before_low_finishes() {
        let low = JobSpec {
            name: "low-long".into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 48,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 40,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        };
        let high = JobSpec {
            name: "high-short".into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 48,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 4,
            priority: 8,
            arrival_time: 0.5,
            elastic: false,
            ..JobSpec::default()
        };
        let cfg = |preemption: bool| {
            ClusterConfig::builder()
                .gpus(1)
                .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
                .strategy(StrategyKind::BestFit)
                .preemption(preemption)
                .build()
                .unwrap()
        };
        // Sanity: the two jobs cannot co-reside (each needs > half).
        let off = Cluster::new(cfg(false)).run(&[low.clone(), high.clone()]);
        assert_eq!(off.completed, 2);
        assert_eq!(off.preemptions, 0);
        let high_off = &off.jobs[1];
        let on = Cluster::new(cfg(true)).run(&[low, high]);
        assert_eq!(on.completed, 2, "{}", on.to_json());
        assert!(on.preemptions >= 1, "{}", on.to_json());
        let low_on = &on.jobs[0];
        let high_on = &on.jobs[1];
        // The high-priority job started before the low one finished:
        // without preemption it had to queue behind the whole run.
        assert!(
            high_on.queueing_delay < high_off.queueing_delay,
            "preemption did not shorten the high-priority queueing delay: {:?} vs {:?}",
            high_on.queueing_delay,
            high_off.queueing_delay
        );
        assert!(high_on.jct < high_off.jct);
        // The victim was preempted, resumed, completed — and paid for it.
        assert_eq!(low_on.outcome, JobOutcome::Completed);
        assert!(low_on.preemptions >= 1);
        assert!(low_on.checkpoint_overhead > Duration::ZERO);
        assert!(low_on.resume_latency > Duration::ZERO);
        assert!(low_on.wasted_work > Duration::ZERO);
        assert!(
            low_on.jct > off.jobs[0].jct + low_on.checkpoint_overhead,
            "checkpoint/restore time must be visible in the victim's JCT"
        );
    }

    /// `--preemption off` never preempts, regardless of priorities.
    #[test]
    fn preemption_off_never_preempts() {
        let jobs = synthetic_jobs(8, 3, 0.2);
        let stats = Cluster::new(
            ClusterConfig::builder()
                .gpus(2)
                .strategy(StrategyKind::BestFit)
                .preemption(false)
                .build()
                .unwrap(),
        )
        .run(&jobs);
        assert_eq!(stats.preemptions, 0);
        assert!(stats.jobs.iter().all(|j| j.preemptions == 0));
    }

    /// The builder refuses out-of-range knobs with typed errors instead of
    /// letting a bad configuration reach the event loop.
    #[test]
    fn builder_rejects_bad_knobs() {
        assert_eq!(
            ClusterConfig::builder().gpus(0).build().unwrap_err(),
            ConfigError::NoGpus
        );
        assert_eq!(
            ClusterConfig::builder()
                .validate_iters(1)
                .build()
                .unwrap_err(),
            ConfigError::TooFewValidateIters(1)
        );
        assert_eq!(
            ClusterConfig::builder().min_samples(0).build().unwrap_err(),
            ConfigError::BadMinSamples(0)
        );
        let msg = ConfigError::TooFewValidateIters(1).to_string();
        assert!(msg.contains("at least 2 iterations"), "{msg}");
        assert!(ClusterConfig::builder()
            .predictive(true)
            .min_samples(1)
            .build()
            .is_ok());
    }

    /// An elastic job that cannot fit at its full batch next to a resident
    /// job is admitted at a bisected smaller batch — starting earlier than
    /// the rigid run — and re-grows to the full batch when the neighbour
    /// finishes, with total samples trained preserved exactly.
    #[test]
    fn elastic_job_shrinks_to_start_earlier_then_regrows() {
        let resident = JobSpec {
            name: "resident".into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 128,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 4,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            ..JobSpec::default()
        };
        let grower = JobSpec {
            name: "grower".into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 256,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 8,
            priority: 0,
            arrival_time: 0.05,
            elastic: true,
            ..JobSpec::default()
        };
        let cfg = |elastic: bool| {
            ClusterConfig::builder()
                .gpus(1)
                .admission(AdmissionMode::TfOri)
                .elastic(elastic)
                .build()
                .unwrap()
        };
        // Rigid baseline: the big job queues behind the whole resident run.
        let rigid = Cluster::new(cfg(false)).run(&[resident.clone(), grower.clone()]);
        assert_eq!(rigid.completed, 2, "{}", rigid.to_json());
        assert_eq!(rigid.rebatches, 0);

        let elastic = Cluster::new(cfg(true)).run(&[resident, grower]);
        assert_eq!(elastic.completed, 2, "{}", elastic.to_json());
        assert_eq!(elastic.midrun_oom_aborts, 0);
        let g = &elastic.jobs[1];
        assert_eq!(g.outcome, JobOutcome::Completed);
        assert_eq!(
            g.rebatches,
            2,
            "shrink at admission + one regrow: {}",
            elastic.to_json()
        );
        assert_eq!(g.samples_preserved, 256 * 8);
        assert!(g.elastic_time_at_reduced_batch > Duration::ZERO);
        assert!(
            g.checkpoint_overhead > Duration::ZERO,
            "regrow checkpoint/restore copies must be charged"
        );
        assert!(
            g.queueing_delay < rigid.jobs[1].queueing_delay,
            "elastic admission must start the job earlier: {:?} vs {:?}",
            g.queueing_delay,
            rigid.jobs[1].queueing_delay
        );
        // The resident job is untouched by its neighbour's elasticity.
        assert_eq!(elastic.jobs[0].rebatches, 0);
        assert_eq!(elastic.jobs[0].samples_preserved, 128 * 4);
        // No over-commit at any instant, even through the regrow window.
        assert!(elastic.per_gpu[0].peak_reserved_bytes <= elastic.per_gpu[0].capacity);
        assert_eq!(elastic.rebatches, 2);
    }

    /// With elastic re-batching enabled but no `elastic` jobs in the
    /// workload, the stats are byte-identical to an elastic-off run: the
    /// second admission pass never touches rigid jobs.
    #[test]
    fn elastic_flag_is_inert_without_elastic_jobs() {
        let jobs = synthetic_jobs(5, 2, 0.3);
        let cfg = |elastic: bool| {
            ClusterConfig::builder()
                .gpus(2)
                .elastic(elastic)
                .build()
                .unwrap()
        };
        let off = Cluster::new(cfg(false)).run(&jobs).to_json();
        let on = Cluster::new(cfg(true)).run(&jobs).to_json();
        assert_eq!(off, on);
    }

    /// With predictive admission *off* (the default) the new knobs are
    /// provably inert: same-seed stats JSON is byte-identical to a
    /// default-config run, with every predictor counter zero and every
    /// measured job reporting `measured` provenance.
    #[test]
    fn predictive_off_is_byte_identical_to_default() {
        let jobs = synthetic_jobs(5, 4, 0.3);
        let base = Cluster::new(ClusterConfig::builder().gpus(2).build().unwrap()).run(&jobs);
        let off = Cluster::new(
            ClusterConfig::builder()
                .gpus(2)
                .predictive(false)
                .min_samples(7)
                .build()
                .unwrap(),
        )
        .run(&jobs);
        assert_eq!(base.to_json(), off.to_json());
        assert_eq!(off.predictor_hits, 0);
        assert_eq!(off.predictor_misses, 0);
        assert_eq!(off.mispredict_recoveries, 0);
        for j in &off.jobs {
            assert_ne!(j.admission_source, "predicted", "{}", j.name);
            assert_eq!(j.predicted_bytes, 0);
        }
    }

    /// The warm-key guarantee: once a completed measured run has fed the
    /// predictor, the next arrival of the same `(model, policy, class)`
    /// family is admitted on the prediction with **zero** validation
    /// engine runs charged — and completes without a mid-run OOM abort.
    #[test]
    fn warm_key_predicted_admission_charges_zero_validations() {
        let family = |name: &str, arrival: f64| JobSpec {
            name: name.into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch: 16,
            gpus: 1,
            policy: JobPolicy::Capuchin,
            iters: 3,
            priority: 0,
            arrival_time: arrival,
            elastic: false,
            ..JobSpec::default()
        };
        // The second arrival lands well after the first completes, so
        // its key is warm.
        let jobs = vec![family("cold", 0.0), family("warm", 120.0)];
        let cfg = ClusterConfig::builder()
            .gpus(1)
            .predictive(true)
            .min_samples(1)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(cfg);
        let stats = cluster.run(&jobs);
        assert_eq!(stats.completed, 2, "{}", stats.to_json());
        assert_eq!(stats.midrun_oom_aborts, 0);
        assert_eq!(stats.predictor_misses, 1);
        assert_eq!(stats.predictor_hits, 1);
        let cold = &stats.jobs[0];
        assert_eq!(cold.admission_source, "measured");
        assert!(cold.admission_validations > 0, "cold run must validate");
        let warm = &stats.jobs[1];
        assert_eq!(warm.admission_source, "predicted", "{}", stats.to_json());
        assert_eq!(
            warm.admission_validations, 0,
            "warm-key admission must charge zero engine runs"
        );
        assert!(warm.predicted_bytes > 0);
        assert_eq!(warm.mispredict_recoveries, 0, "same-shape prediction holds");
        // Attribution stays complete with the predicted path in play.
        let billed: u64 = stats.jobs.iter().map(|j| j.admission_validations).sum();
        assert_eq!(billed, cluster.validation_runs());

        // The store survives `reset` (how a serve daemon warms across
        // online submissions): a second same-workload run on the same
        // cluster admits *both* jobs predicted, charging nothing.
        let again = cluster.run(&jobs);
        assert_eq!(again.completed, 2);
        assert_eq!(again.predictor_hits, 2);
        assert_eq!(again.predictor_misses, 0);
        for j in &again.jobs {
            assert_eq!(j.admission_source, "predicted", "{}", j.name);
            assert_eq!(j.admission_validations, 0);
        }
    }

    /// The fallback ladder's bottom rung: a prediction extrapolated to an
    /// unseen (larger) batch under-shoots under TfOri admission, is
    /// caught at the first completed-iteration boundary, and the job is
    /// checkpoint-preempted into a measured re-admission — completing
    /// without over-commit instead of aborting.
    #[test]
    fn undershooting_prediction_recovers_via_remeasure() {
        let job = |name: &str, batch: usize, arrival: f64| JobSpec {
            name: name.into(),
            model: capuchin_models::ModelKind::Vgg16,
            batch,
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 3,
            priority: 0,
            arrival_time: arrival,
            elastic: false,
            ..JobSpec::default()
        };
        // One sample at batch 16 fits a flat line; predicting batch 48
        // from it under-shoots the true footprint by far more than the
        // 15% safety margin covers.
        let jobs = vec![job("seed", 16, 0.0), job("big", 48, 120.0)];
        let cfg = ClusterConfig::builder()
            .gpus(1)
            .admission(AdmissionMode::TfOri)
            .predictive(true)
            .min_samples(1)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(cfg);
        let stats = cluster.run(&jobs);
        assert_eq!(stats.completed, 2, "{}", stats.to_json());
        assert_eq!(stats.midrun_oom_aborts, 0);
        assert_eq!(stats.predictor_hits, 1);
        let big = &stats.jobs[1];
        assert_eq!(
            big.mispredict_recoveries,
            1,
            "under-shoot must trigger exactly one recovery: {}",
            stats.to_json()
        );
        assert_eq!(stats.mispredict_recoveries, 1);
        // Re-admission downgraded the provenance to the measured truth
        // and billed the re-measurement to the mispredicting job.
        assert_eq!(big.admission_source, "measured");
        assert!(big.admission_validations > 0);
        assert!(big.prediction_error_permille > 150, "error beyond margin");
        assert!(big.preemptions >= 1, "recovery rides the preemption path");
        assert!(big.checkpoint_overhead > Duration::ZERO);
        // No over-commit at any instant, recovery window included.
        for g in &stats.per_gpu {
            assert!(g.peak_reserved_bytes <= g.capacity);
        }
        let billed: u64 = stats.jobs.iter().map(|j| j.admission_validations).sum();
        assert_eq!(billed, cluster.validation_runs());
    }

    /// Request arrivals ignore epochs; only a terminal job silences them.
    /// Cancelling a resident inference job while arrivals are still
    /// scheduled must drop them all: the clock goes idle (`has_work`
    /// agrees with `step`), no request arrives after the cancel, served
    /// counts freeze, and a co-resident training job still completes.
    #[test]
    fn cancelled_inference_silences_its_scheduled_requests() {
        let train = JobSpec {
            name: "train".into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 16,
            policy: JobPolicy::TfOri,
            iters: 200,
            ..JobSpec::default()
        };
        let serve = JobSpec {
            name: "serve".into(),
            model: capuchin_models::ModelKind::ResNet50,
            batch: 16,
            policy: JobPolicy::TfOri,
            ..JobSpec::default()
        }
        .into_inference(4.0, 250.0, 400, 64 << 20, 2);
        let cfg = ClusterConfig::builder()
            .gpus(1)
            .admission(AdmissionMode::TfOri)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(cfg);
        let t = cluster.submit(&train);
        let inf = cluster.submit(&serve);
        assert!(cluster.advance_to(Time::ZERO + Duration::from_secs_f64(2.0)));
        let status = |c: &Cluster, id| c.status(id).unwrap().state;
        assert_eq!(status(&cluster, inf), JobState::Running);
        assert_eq!(status(&cluster, t), JobState::Running);
        let served = cluster.stats().jobs[inf].requests_served;
        assert!(served > 0 && served < serve.requests, "served {served}");
        cluster.take_events();
        cluster.cancel(inf).unwrap();
        let far = Time::ZERO + Duration::from_secs_f64(1e6);
        assert!(
            !cluster.advance_to(far),
            "stale request arrivals kept the clock busy"
        );
        assert!(!cluster.has_work());
        assert!(!cluster.step());
        let events = cluster.take_events();
        let cancelled = events
            .iter()
            .position(|e| e.job == inf as u64 && e.kind == JobEventKind::Cancelled)
            .expect("cancel is logged");
        assert!(
            !events[cancelled..]
                .iter()
                .any(|e| e.job == inf as u64 && e.kind == JobEventKind::RequestArrived),
            "a request arrived after the cancel"
        );
        let stats = cluster.stats();
        assert_eq!(stats.jobs[inf].requests_served, served);
        assert_eq!(stats.jobs[inf].outcome, JobOutcome::Cancelled);
        assert_eq!(stats.jobs[t].outcome, JobOutcome::Completed);
    }
}
