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
//!   lockstep barrier forever. The interrupted iteration is discarded and
//!   redone on resume — the same boundary semantics as
//!   [`capuchin_executor::Engine::snapshot`].
//! * With [`ClusterConfig::elastic`] on, a waiting [`JobSpec::elastic`]
//!   job that fits nowhere at its full batch is admitted at a *reduced*
//!   batch: the cluster bisects the halving ladder
//!   ([`capuchin::elastic_batches`], floored at
//!   [`ClusterConfig::min_batch_fraction`]) for the largest batch some
//!   gang subset can host right now, reusing the footprint/validation
//!   caches keyed by replica batch. A reduced job trains *more
//!   iterations* so that total samples trained is preserved exactly
//!   (the final iteration carries a partial batch when the ladder does
//!   not divide evenly). At every completed-iteration boundary a reduced
//!   job checks whether freed headroom lets it re-grow toward the full
//!   batch; growing re-plans the engine at the new batch
//!   ([`capuchin_executor::Engine::restore_rebatched`]'s semantics), so
//!   the cluster charges the same device-to-host checkpoint plus
//!   host-to-device restore copies preemption models.
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use capuchin::{bisect_batch, elastic_batches, measure_footprint, measure_forward_footprint};
use capuchin_models::ModelKind;
use capuchin_sim::{
    CopyDir, DeviceSpec, Duration, Interconnect, InterconnectSpec, Time, TransferModel,
};

use crate::admission::{
    min_feasible_budget, Admission, AdmissionMode, AdmissionSource, JobNeeds, ReplayIter,
    ReplayTransfer,
};
use crate::headroom::GpuPool;
use crate::job::{JobClass, JobSpec, SplitMix64};
use crate::policy::CostClass;
use crate::predict::{key_of, FootprintPredictor, FootprintSample, PredictedFootprint};
use crate::stats::{
    ClusterStats, ClusterTransfer, GpuStats, JobEvent, JobEventKind, JobOutcome, JobState,
    JobStats, JobStatus, STATS_SCHEMA_VERSION,
};
use crate::strategy::{
    aging_permille, effective_priority_permille, slo_boost_permille, CandidateJob, StrategyKind,
};

/// Cluster shape and scheduling knobs.
///
/// Construct with [`ClusterConfig::builder`] (which validates every knob
/// and returns [`ConfigError`] on nonsense) or take
/// [`ClusterConfig::default`]. The struct is `#[non_exhaustive]`, so
/// downstream crates cannot assemble it field-by-field and silently skip
/// validation when a new knob appears.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterConfig {
    /// Number of identical GPUs.
    pub gpus: usize,
    /// Device model for every GPU.
    pub spec: DeviceSpec,
    /// Admission mode.
    pub admission: AdmissionMode,
    /// Placement strategy.
    pub strategy: StrategyKind,
    /// Priority-aging rate for best-fit placement (points per waiting
    /// second).
    pub aging_rate: f64,
    /// Engine iterations per admission validation run (clamped to the
    /// job's own iteration count; at least 2 so Capuchin completes
    /// measured execution).
    pub validate_iters: u64,
    /// Allow checkpoint-preemption: a waiting job whose effective
    /// priority exceeds a resident job's static priority may evict it
    /// through a host-side checkpoint when no GPU set has headroom.
    pub preemption: bool,
    /// Shared-interconnect model. `None` keeps the legacy behavior —
    /// every job owns a private PCIe lane, copies never contend, and
    /// allreduce is free — and reproduces pre-interconnect timings
    /// exactly.
    pub interconnect: Option<InterconnectSpec>,
    /// Elastic re-batching: admit a waiting [`JobSpec::elastic`] job at a
    /// reduced batch when nothing fits at the full batch, and re-grow
    /// resident reduced jobs at completed-iteration boundaries when
    /// headroom frees up. Total samples trained is always preserved — the
    /// iteration count extends to cover `batch × iters` samples.
    pub elastic: bool,
    /// Floor of the elastic batch ladder as a fraction of the requested
    /// batch, in `(0, 1]`: `0.25` means a job never shrinks below a
    /// quarter of its submitted batch. Ignored with `elastic` off.
    pub min_batch_fraction: f64,
    /// SLO-aware scheduling: boost a waiting inference job's effective
    /// priority by the fraction of its latency SLO the oldest pending
    /// request has burned ([`crate::strategy::slo_boost_permille`]), in
    /// placement ranking and preemption alike. `false` is the SLO-blind
    /// baseline the `mixed` scenario of `cluster_bench` compares against;
    /// it changes nothing for training-only workloads (their boost is
    /// always 0).
    pub slo_aware: bool,
    /// Predictive admission: once a `(model family, policy, class)` key
    /// has [`ClusterConfig::min_samples`] completed measured runs, admit
    /// on the regression store's prediction scaled by
    /// [`ClusterConfig::safety_margin_permille`] — zero measuring and
    /// zero validation-engine runs. Cold keys fall back to measured
    /// admission (and their completions warm the store); an
    /// under-shooting prediction is caught at the job's first completed
    /// iteration boundary and recovered by checkpoint-preempting the job
    /// back through the measured path. Off by default; with it off, no
    /// predictor code path runs and stats are byte-identical to the
    /// pre-predictor scheduler.
    pub predictive: bool,
    /// Multiplier applied to predicted *budget* targets (full and
    /// minimum reservation), in permille: 1150 reserves 15% above the
    /// raw prediction. Must be in `[1000, 10000]` — a prediction is
    /// never scaled down. Ignored with `predictive` off.
    pub safety_margin_permille: u64,
    /// Completed measured runs a predictor key needs before its
    /// predictions are served (at least 1). Ignored with `predictive`
    /// off.
    pub min_samples: u64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            gpus: 4,
            spec: DeviceSpec::p100_pcie3(),
            admission: AdmissionMode::Capuchin,
            strategy: StrategyKind::FifoFirstFit,
            aging_rate: 0.1,
            validate_iters: 6,
            preemption: false,
            interconnect: None,
            elastic: false,
            min_batch_fraction: 0.25,
            slo_aware: true,
            predictive: false,
            safety_margin_permille: 1150,
            min_samples: 3,
        }
    }
}

impl ClusterConfig {
    /// Starts a builder seeded with the default configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: ClusterConfig::default(),
        }
    }
}

/// Why [`ClusterConfigBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A cluster needs at least one GPU.
    NoGpus,
    /// The priority-aging rate must be finite and non-negative.
    BadAgingRate(f64),
    /// Validation runs need at least 2 iterations: Capuchin must complete
    /// measured execution before a guided iteration exists to record.
    TooFewValidateIters(u64),
    /// The elastic batch floor must be a fraction in `(0, 1]`.
    BadBatchFraction(f64),
    /// The prediction safety margin must be in `[1000, 10000]` permille —
    /// predicted budgets are padded, never shaved.
    BadSafetyMargin(u64),
    /// The predictor needs at least one completed sample per key before
    /// it can fit anything.
    BadMinSamples(u64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoGpus => write!(f, "cluster needs at least 1 GPU"),
            ConfigError::BadAgingRate(r) => {
                write!(f, "aging rate {r} must be finite and >= 0")
            }
            ConfigError::TooFewValidateIters(n) => write!(
                f,
                "validation needs at least 2 iterations, got {n} \
                 (Capuchin records guided iterations only after measured execution)"
            ),
            ConfigError::BadBatchFraction(frac) => {
                write!(f, "min batch fraction {frac} must be in (0, 1]")
            }
            ConfigError::BadSafetyMargin(m) => write!(
                f,
                "safety margin {m} permille must be in [1000, 10000] \
                 (predictions are padded, never shaved)"
            ),
            ConfigError::BadMinSamples(n) => {
                write!(f, "predictor min samples {n} must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ClusterConfig`]; every setter overrides one
/// default, and [`ClusterConfigBuilder::build`] checks the whole
/// combination at once.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Number of identical GPUs.
    pub fn gpus(mut self, gpus: usize) -> Self {
        self.cfg.gpus = gpus;
        self
    }

    /// Device model for every GPU.
    pub fn spec(mut self, spec: DeviceSpec) -> Self {
        self.cfg.spec = spec;
        self
    }

    /// Admission mode.
    pub fn admission(mut self, admission: AdmissionMode) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Placement strategy.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Priority-aging rate for best-fit placement.
    pub fn aging_rate(mut self, aging_rate: f64) -> Self {
        self.cfg.aging_rate = aging_rate;
        self
    }

    /// Engine iterations per admission validation run.
    pub fn validate_iters(mut self, validate_iters: u64) -> Self {
        self.cfg.validate_iters = validate_iters;
        self
    }

    /// Allow checkpoint-preemption.
    pub fn preemption(mut self, preemption: bool) -> Self {
        self.cfg.preemption = preemption;
        self
    }

    /// Shared-interconnect model (`None` = private lanes).
    pub fn interconnect(mut self, interconnect: Option<InterconnectSpec>) -> Self {
        self.cfg.interconnect = interconnect;
        self
    }

    /// Elastic re-batching on/off.
    pub fn elastic(mut self, elastic: bool) -> Self {
        self.cfg.elastic = elastic;
        self
    }

    /// Floor of the elastic batch ladder, as a fraction in `(0, 1]`.
    pub fn min_batch_fraction(mut self, min_batch_fraction: f64) -> Self {
        self.cfg.min_batch_fraction = min_batch_fraction;
        self
    }

    /// SLO-aware scheduling on/off (`false` = SLO-blind baseline).
    pub fn slo_aware(mut self, slo_aware: bool) -> Self {
        self.cfg.slo_aware = slo_aware;
        self
    }

    /// Predictive admission on/off.
    pub fn predictive(mut self, predictive: bool) -> Self {
        self.cfg.predictive = predictive;
        self
    }

    /// Safety margin applied to predicted budgets, in permille
    /// (`[1000, 10000]`).
    pub fn safety_margin_permille(mut self, safety_margin_permille: u64) -> Self {
        self.cfg.safety_margin_permille = safety_margin_permille;
        self
    }

    /// Completed samples a predictor key needs before predictions are
    /// served (at least 1).
    pub fn min_samples(mut self, min_samples: u64) -> Self {
        self.cfg.min_samples = min_samples;
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first out-of-range knob.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.gpus == 0 {
            return Err(ConfigError::NoGpus);
        }
        if !cfg.aging_rate.is_finite() || cfg.aging_rate < 0.0 {
            return Err(ConfigError::BadAgingRate(cfg.aging_rate));
        }
        if cfg.validate_iters < 2 {
            return Err(ConfigError::TooFewValidateIters(cfg.validate_iters));
        }
        if !cfg.min_batch_fraction.is_finite()
            || cfg.min_batch_fraction <= 0.0
            || cfg.min_batch_fraction > 1.0
        {
            return Err(ConfigError::BadBatchFraction(cfg.min_batch_fraction));
        }
        if !(1000..=10000).contains(&cfg.safety_margin_permille) {
            return Err(ConfigError::BadSafetyMargin(cfg.safety_margin_permille));
        }
        if cfg.min_samples == 0 {
            return Err(ConfigError::BadMinSamples(cfg.min_samples));
        }
        Ok(cfg)
    }
}

/// An in-flight elastic batch change: decided at a completed-iteration
/// boundary, applied when the checkpoint + restore copies drain
/// ([`EventKind::Regrow`]). The new reservation is claimed immediately so
/// the copy window cannot over-commit; the replay swap happens at the
/// event.
#[derive(Debug)]
struct Regrow {
    /// The new global batch.
    batch: usize,
    /// Whether the new grant is below the new batch's ideal peak.
    shrunk: bool,
    /// Validated replay trace at the new batch and grant.
    replay: Arc<Vec<ReplayIter>>,
}

/// Where a job is in its lifecycle. Each variant is one legal state;
/// DESIGN.md §8 tabulates the public [`JobState`]/[`JobOutcome`] each
/// maps to and the events legal in each.
#[derive(Debug)]
enum Phase {
    /// Submitted and waiting for its arrival to process, or waiting for
    /// placement.
    Queued,
    /// Resident with an iteration's compute (or a serving round) in
    /// flight: [`EventKind::IterEnd`] is scheduled.
    Running,
    /// Resident with no compute in flight: the iteration-boundary
    /// communication drains ([`EventKind::Comm`]), or an idle serving job
    /// waits for requests.
    Barrier,
    /// A whole-gang device-to-host checkpoint copy drains
    /// ([`EventKind::Preempt`], or [`EventKind::Remeasure`] after a
    /// mispredict).
    Checkpointing,
    /// Checkpointed to the host at `since`: queued to resume, or resident
    /// again while the restore copy drains ([`EventKind::Resume`]). The
    /// checkpoint is the job's own replay cursor (iterations, samples,
    /// batch, replay trace and per-replica reservation), which nothing
    /// touches in this phase, so resume regrants `reserved` verbatim
    /// with no re-validation.
    Preempted { since: Time },
    /// An elastic batch change's copies drain ([`EventKind::Regrow`]).
    Regrowing(Regrow),
    /// Terminal: completed, rejected, aborted or cancelled.
    Done(JobOutcome),
}

impl Phase {
    /// The stats outcome: terminal phases report their own, checkpointed
    /// jobs are `Preempted`, and anything else still live is `Starved`.
    fn outcome(&self) -> JobOutcome {
        match self {
            Phase::Done(outcome) => *outcome,
            Phase::Checkpointing | Phase::Preempted { .. } => JobOutcome::Preempted,
            _ => JobOutcome::Starved,
        }
    }
}

/// Per-job simulation state.
#[derive(Debug)]
struct JobRun {
    spec: JobSpec,
    arrival: Time,
    /// When the job (re-)entered the waiting queue: arrival for fresh
    /// jobs, checkpoint completion for preempted ones. Priority aging and
    /// FIFO order run from here, so a preempted job does not return with
    /// an inflated age and immediately reclaim its slot.
    queued_at: Time,
    needs: JobNeeds,
    footprint: u64,
    /// Gradient bytes per replica (the model's weight bytes), allreduced
    /// at every gang barrier.
    grad_bytes: u64,
    /// Largest budget a validation run failed at, keyed by the global
    /// batch it was attempted at (elastic jobs validate at several
    /// batches); never retried at or below the recorded budget.
    failed: BTreeMap<usize, u64>,
    phase: Phase,
    /// GPUs currently held — the whole gang, in placement order. Kept
    /// after completion for stats; cleared on preemption and abort.
    /// Always empty or exactly `spec.gpus` long: grants are atomic.
    gpus_held: Vec<usize>,
    /// Per-replica reservation (same bytes on every held GPU).
    reserved: u64,
    shrunk: bool,
    admitted_at: Option<Time>,
    /// Completion instant (the phase says whether the job is done).
    finished_at: Option<Time>,
    replay: Arc<Vec<ReplayIter>>,
    iters_done: u64,
    /// Key of this job's entry in [`Session::pending`] while queued.
    queue_key: Option<u64>,
    /// Cached minimum of `needs.min` over the job's whole elastic ladder:
    /// when even this exceeds the best headroom anywhere, the elastic
    /// pass skips the job without probing a single rung.
    ladder_floor_min: Option<u64>,
    /// Global batch currently in effect: `spec.batch` unless elastic
    /// re-batching reduced it (and has not yet grown it back).
    cur_batch: usize,
    /// Samples the job must train in total: `spec.batch × spec.iters`.
    /// Elastic batch changes never alter this — only how many iterations
    /// it takes.
    samples_total: u64,
    /// Samples trained so far (each completed iteration advances by
    /// `cur_batch`, clamped so the final iteration carries a partial
    /// batch when the ladder does not divide evenly).
    samples_done: u64,
    /// Elastic batch changes: the admission-time shrink plus every mid-run
    /// re-grow (or re-shrink on resume).
    rebatches: u64,
    /// When the current reduced-batch period started; `None` while the
    /// job runs at its full batch (or is checkpointed out — the clock
    /// pauses during preemption).
    reduced_since: Option<Time>,
    /// Accumulated wall time spent training below the requested batch.
    elastic_reduced_time: Duration,
    /// Bumped whenever scheduled events for this job become stale
    /// (re-pricing, preemption, abort); events carry the epoch they were
    /// scheduled under and are skipped on mismatch.
    epoch: u64,
    /// Base (1×) wall of the in-flight iteration.
    iter_wall: Duration,
    /// Contention factor in effect since `iter_priced_at`.
    iter_k: f64,
    /// When the in-flight iteration started (for wasted-work accounting).
    iter_started: Time,
    /// Last re-pricing instant.
    iter_priced_at: Time,
    /// Fraction of the base wall completed as of `iter_priced_at`.
    iter_progress: f64,
    preemptions: u64,
    wasted_work: Duration,
    resume_latency: Duration,
    /// Total checkpoint + restore copy time charged to the job.
    checkpoint_overhead: Duration,
    /// Total allreduce time charged at gang barriers.
    allreduce_time: Duration,
    /// Queueing delay behind other jobs' traffic on the shared fabric.
    comm_delay: Duration,
    /// Per-label feedback lead for replayed prefetches (paper §4.4 during
    /// guided replay): a prefetch that came back stretched on the shared
    /// fabric wants the lane `lead` earlier on later iterations. Ordered
    /// for deterministic iteration.
    lead: BTreeMap<String, Duration>,
    /// Inference: deterministic per-job generator for request
    /// inter-arrival jitter, seeded from the submission index.
    req_rng: SplitMix64,
    /// Inference: request arrivals scheduled so far (arrival `i` schedules
    /// arrival `i + 1` until `spec.requests` have been generated).
    req_scheduled: u64,
    /// Inference: arrival instants of requests waiting to enter a serving
    /// round, oldest first.
    req_queue: VecDeque<Time>,
    /// Inference: arrival instants of the requests in the in-flight
    /// serving round (each holds `kv_bytes_per_request` on every held
    /// GPU until the round drains).
    inflight: Vec<Time>,
    /// Inference: the round concurrency the admission grant priced in —
    /// `min(max_inflight, (grant − base budget) / kv)`. Serving itself is
    /// gated on live headroom up to `max_inflight`, so memory freed after
    /// admission raises the achievable concurrency past this license.
    lic_inflight: usize,
    /// Inference: base needs (forward-only, before KV pricing), cached at
    /// arrival so admission can recover the KV-free budget split.
    base_needs: JobNeeds,
    /// Inference: per-request served latencies in integer nanoseconds,
    /// accumulated for the percentile stats (sorted only at stats time).
    latencies: Vec<u64>,
    /// Inference: requests served so far.
    requests_served: u64,
    /// Inference: served requests that exceeded the SLO.
    slo_misses: u64,
    /// Inference: the SLO in integer nanoseconds (0 for training).
    slo_ns: u64,
    /// Kernel time spent regenerating released tensors, summed over the
    /// replay iterations consumed (integer nanoseconds inside
    /// [`Duration`]; floats only appear at serialization).
    recompute_time: Duration,
    /// Reactive evictions summed over the replay iterations consumed.
    evictions: u64,
    /// Validation engine runs this job triggered at admission (cache
    /// hits charge nothing; heuristic-class policies stay at zero by
    /// construction).
    admission_validations: u64,
    /// Training: mid-run shrinks performed to absorb an inference burst.
    burst_shrinks: u64,
    /// Training: currently running reduced specifically for a burst; the
    /// next re-grow closes the cycle.
    shrunk_for_burst: bool,
    /// Training: a burst-absorption shrink decided by the scheduler,
    /// applied at the job's next completed-iteration boundary (target
    /// global batch, one ladder rung below the current one).
    pending_shrink: Option<usize>,
    /// Where this job's current admission budgets came from. Flips back
    /// to `Measured` when a mispredict recovery re-admits the job, or
    /// when the elastic pass re-derives (and engine-validates) budgets
    /// at a reduced batch.
    admission_source: AdmissionSource,
    /// Margin-padded predicted full reservation (the budget the job was
    /// actually admitted on); 0 for non-predicted admissions.
    predicted_bytes: u64,
    /// Raw (pre-margin) predicted full reservation, kept for the
    /// first-boundary error measurement; 0 for non-predicted admissions.
    predicted_raw_full: u64,
    /// `|raw prediction − measured truth| × 1000 / truth` for the full
    /// reservation, recorded when the first-boundary check runs.
    prediction_error_permille: u64,
    /// Times an under-shooting prediction forced a checkpoint-preempt
    /// and measured re-admission.
    mispredict_recoveries: u64,
    /// The first-boundary truth check already ran (predicted admissions
    /// run it exactly once).
    mispredict_checked: bool,
}

impl JobRun {
    fn new(spec: &JobSpec, id: usize) -> JobRun {
        let arrival = Time::ZERO + Duration::from_secs_f64(spec.arrival_time.max(0.0));
        let samples_total = if spec.is_inference() {
            spec.requests
        } else {
            (spec.batch.max(1) as u64).saturating_mul(spec.iters)
        };
        JobRun {
            slo_ns: spec.slo_nanos(),
            spec: spec.clone(),
            arrival,
            queued_at: arrival,
            needs: JobNeeds { full: 0, min: 0 },
            footprint: 0,
            grad_bytes: 0,
            failed: BTreeMap::new(),
            phase: Phase::Queued,
            gpus_held: Vec::new(),
            reserved: 0,
            shrunk: false,
            admitted_at: None,
            finished_at: None,
            replay: Arc::new(Vec::new()),
            iters_done: 0,
            queue_key: None,
            ladder_floor_min: None,
            cur_batch: spec.batch.max(1),
            samples_total,
            samples_done: 0,
            rebatches: 0,
            reduced_since: None,
            elastic_reduced_time: Duration::ZERO,
            epoch: 0,
            iter_wall: Duration::ZERO,
            iter_k: 1.0,
            iter_started: Time::ZERO,
            iter_priced_at: Time::ZERO,
            iter_progress: 0.0,
            preemptions: 0,
            wasted_work: Duration::ZERO,
            resume_latency: Duration::ZERO,
            checkpoint_overhead: Duration::ZERO,
            allreduce_time: Duration::ZERO,
            comm_delay: Duration::ZERO,
            lead: BTreeMap::new(),
            // Mixing in a large odd constant decorrelates consecutive
            // submission indices through splitmix's finalizer.
            req_rng: SplitMix64::new((id as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5EED),
            req_scheduled: 0,
            req_queue: VecDeque::new(),
            inflight: Vec::new(),
            lic_inflight: 0,
            base_needs: JobNeeds { full: 0, min: 0 },
            latencies: Vec::new(),
            requests_served: 0,
            slo_misses: 0,
            recompute_time: Duration::ZERO,
            evictions: 0,
            admission_validations: 0,
            burst_shrinks: 0,
            shrunk_for_burst: false,
            pending_shrink: None,
            admission_source: AdmissionSource::Measured,
            predicted_bytes: 0,
            predicted_raw_full: 0,
            prediction_error_permille: 0,
            mispredict_recoveries: 0,
            mispredict_checked: false,
        }
    }

    /// The gang width (defensively at least 1).
    fn width(&self) -> usize {
        self.spec.gpus.max(1)
    }

    /// The strategy's view of this waiting job. A checkpointed job asks
    /// for exactly its validated reservation back — no re-validation, no
    /// shrink search.
    fn candidate(&self, idx: usize) -> CandidateJob {
        let (full_need, min_need, failed_budget) = match self.phase {
            Phase::Preempted { .. } => (self.reserved, self.reserved, None),
            _ => (
                self.needs.full,
                self.needs.min,
                self.failed.get(&self.spec.batch).copied(),
            ),
        };
        CandidateJob {
            job: idx,
            arrival: self.queued_at,
            priority: self.spec.priority,
            gpus: self.width(),
            full_need,
            min_need,
            failed_budget,
            boost_permille: 0,
        }
    }

    /// The live [`JobState`]: the terminal and checkpointed states come
    /// from [`Phase::outcome`]; a live job is `Running` while it holds
    /// its gang and `Queued` otherwise.
    fn state(&self) -> JobState {
        match self.phase.outcome() {
            JobOutcome::Completed => JobState::Completed,
            JobOutcome::Rejected => JobState::Rejected,
            JobOutcome::Aborted => JobState::Aborted,
            JobOutcome::Cancelled => JobState::Cancelled,
            JobOutcome::Preempted => JobState::Preempted,
            JobOutcome::Starved if self.gpus_held.is_empty() => JobState::Queued,
            JobOutcome::Starved => JobState::Running,
        }
    }

    /// Records the admission budgets derived from a measuring run (or a
    /// prediction). Inference prices a full round's KV state on top of
    /// the forward-only base: `full` asks for the licensed concurrency's
    /// worth, `min` for at least one request's slot — a grant anywhere
    /// in between licenses proportionally fewer concurrent requests
    /// (never zero). No backward pass means no gradients, so inference
    /// skips the gang allreduce through the `grad_bytes > 0` gate.
    fn set_needs(&mut self, est: &EstimateSummary, base: JobNeeds) {
        let spec = &self.spec;
        self.needs = if spec.is_inference() {
            JobNeeds {
                full: base.full.saturating_add(spec.kv_round_bytes()),
                min: base.min.saturating_add(spec.kv_bytes_per_request),
            }
        } else {
            base
        };
        self.grad_bytes = if spec.is_inference() {
            0
        } else {
            est.weight_bytes
        };
        self.base_needs = base;
        self.footprint = est.ideal_peak;
    }

    /// Never retries a validation at or below `grant` for `batch`.
    fn record_failed(&mut self, batch: usize, grant: u64) {
        let e = self.failed.entry(batch).or_insert(grant);
        *e = (*e).max(grant);
    }

    /// Closes the reduced-batch window, if one is open.
    fn close_reduced(&mut self, now: Time) {
        if let Some(since) = self.reduced_since.take() {
            self.elastic_reduced_time += now.saturating_since(since);
        }
    }

    /// Banks the consumed replay iteration's memory-management costs and
    /// advances the iteration cursor (the same replay index
    /// [`Session::schedule_iter`] read when the iteration started).
    fn bank_iteration(&mut self) {
        if let Some(it) = self.replay.get(self.replay_idx()) {
            self.recompute_time += it.recompute_time;
            self.evictions += it.evictions;
        }
        self.iters_done += 1;
    }

    /// The replay index of the current iteration: the validation run's
    /// final (steady-state) iteration repeats past its length.
    fn replay_idx(&self) -> usize {
        (self.iters_done as usize).min(self.replay.len().saturating_sub(1))
    }

    /// SLO-slack priority boost of a *waiting* inference job, from the
    /// age of its oldest pending request. 0 for training jobs, under
    /// SLO-blind scheduling, and while no request waits — so it can never
    /// perturb a training-only run. The boost is read at settle/preempt
    /// time (not baked into the queue), so it grows as requests age
    /// without re-keying anything.
    fn slo_boost(&self, now: Time, slo_aware: bool) -> u64 {
        if !slo_aware || self.slo_ns == 0 {
            return 0;
        }
        match self.req_queue.front() {
            Some(&t) => slo_boost_permille(self.slo_ns, now.saturating_since(t).as_nanos()),
            None => 0,
        }
    }
}

/// Per-GPU reservation ledger with a byte-time integral for utilization.
#[derive(Debug)]
struct GpuState {
    capacity: u64,
    reserved: u64,
    resident: Vec<usize>,
    peak: u64,
    byte_ns: u128,
    last_touch: Time,
    hosted: usize,
}

impl GpuState {
    fn new(capacity: u64) -> GpuState {
        GpuState {
            capacity,
            reserved: 0,
            resident: Vec::new(),
            peak: 0,
            byte_ns: 0,
            last_touch: Time::ZERO,
            hosted: 0,
        }
    }

    /// Accumulates the byte-time integral up to `now`.
    fn touch(&mut self, now: Time) {
        let span = now.saturating_since(self.last_touch).as_nanos() as u128;
        self.byte_ns += self.reserved as u128 * span;
        self.last_touch = now;
    }
}

/// Removes `job` from a GPU's resident list by position (one find + one
/// shift instead of a full `retain` rewrite). Order is preserved —
/// re-pricing iterates residents in placement order, and reordering them
/// would drift event sequence numbers and the stats JSON.
fn remove_resident(g: &mut GpuState, job: usize) {
    if let Some(pos) = g.resident.iter().position(|&r| r == job) {
        g.resident.remove(pos);
    }
}

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// The job's submission time came up: admission, then the queue.
    Arrive,
    /// An iteration's (or serving round's) compute drained.
    IterEnd,
    /// A preemption's device-to-host checkpoint copy drained: release the
    /// reservations and re-enqueue the victim.
    Preempt,
    /// A resume's host-to-device restore copy drained: the job starts
    /// iterating again from its saved cursor.
    Resume,
    /// The iteration-boundary communication (swap-replay queueing and/or
    /// the gang's gradient allreduce) drained: the iteration is truly
    /// complete.
    Comm,
    /// An elastic batch change's checkpoint + restore copies drained: the
    /// new replay takes effect and the job iterates at the new batch.
    Regrow,
    /// An inference request arrived. Carries epoch 0: request arrivals
    /// are an external process, like submissions.
    Request,
    /// A mispredict recovery's device-to-host checkpoint copy drained:
    /// the job's predicted grant under-shot the verified truth, so it
    /// drops its predicted state entirely and re-enters the queue with
    /// measured budgets (unlike `Preempt`, no checkpoint is kept —
    /// resuming one would regrant the insufficient budget verbatim).
    Remeasure,
}

/// One scheduled event, ordered by `(time, class, sequence)`. The class
/// ranks arrivals (0) ahead of scheduled events (1) at the same instant,
/// so an online [`Cluster::submit`] — whose arrival necessarily draws a
/// later sequence number than events already in flight — processes
/// exactly where the batch loop (which pushes every arrival before any
/// scheduled event exists) would have ordered it. The sequence number is
/// unique, so the order is total; the epoch invalidates events
/// superseded by re-pricing or preemption.
#[derive(Debug, Clone, Copy)]
struct Event {
    at: Time,
    seq: u64,
    epoch: u64,
    job: usize,
    kind: EventKind,
}

// Events are copied on every heap sift: keep them at 40 bytes.
const _: () = assert!(std::mem::size_of::<Event>() <= 40);

impl Event {
    fn key(&self) -> (Time, bool, u64) {
        (self.at, self.kind != EventKind::Arrive, self.seq)
    }

    /// Whether the event was superseded before it fired — the one
    /// staleness rule. Arrivals and request arrivals are an external
    /// process, so epoch bumps (re-pricing, preemption) must not drop
    /// them: only a terminal job silences them. Every other event is
    /// stale once the job's epoch moved past the one it was scheduled
    /// under.
    fn is_stale(&self, j: &JobRun) -> bool {
        match self.kind {
            EventKind::Arrive | EventKind::Request => matches!(j.phase, Phase::Done(_)),
            _ => self.epoch != j.epoch,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The pending events as a min-heap, plus the sequence counter that
/// numbers them.
#[derive(Debug, Default)]
struct EventHeap {
    seq: u64,
    heap: BinaryHeap<Reverse<Event>>,
}

impl EventHeap {
    fn push(&mut self, at: Time, kind: EventKind, job: usize, epoch: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event {
            at,
            seq,
            epoch,
            job,
            kind,
        }));
    }

    fn peek(&self) -> Option<Event> {
        self.heap.peek().map(|e| e.0)
    }

    fn pop(&mut self) {
        self.heap.pop();
    }

    fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter().map(|e| &e.0)
    }
}

/// A job's replay trace is empty — replaying it would fabricate zero-time
/// iterations (and an infinitely fast job).
#[derive(Debug, PartialEq, Eq)]
struct EmptyWalls;

/// Validation-cache key: `(model, replica batch, budget, policy, shrunk,
/// iters, forward-only)`. Keyed by the *replica* batch, so a 4-GPU gang
/// at batch 128 shares the cache entry with a single-GPU job at batch 32;
/// the trailing flag separates inference validations (which run the
/// forward prefix only) from training ones at the same shape. The model
/// is the interned [`ModelKind`] — probing the cache allocates nothing.
type ValidationKey = (ModelKind, usize, u64, &'static str, bool, u64, bool);

/// The slice of a measuring run the scheduler keeps per `(model, replica
/// batch)`: the two footprint numbers stats report. The full
/// [`capuchin::FootprintEstimate`] drags the whole measured access
/// profile along and is dropped once admission needs are derived.
#[derive(Debug, Clone, Copy)]
struct EstimateSummary {
    /// Peak live memory an unlimited device holds.
    ideal_peak: u64,
    /// Persistent weight bytes (the gang's gradient payload).
    weight_bytes: u64,
    /// Wall time of the unconstrained measuring iteration — the base an
    /// unvalidated (heuristic-class) admission synthesizes its replay
    /// from.
    iter_wall: Duration,
}

impl From<PredictedFootprint> for EstimateSummary {
    fn from(p: PredictedFootprint) -> EstimateSummary {
        EstimateSummary {
            ideal_peak: p.ideal_peak,
            weight_bytes: p.weight_bytes,
            iter_wall: p.iter_wall,
        }
    }
}

/// Measured truth for mispredict verification, cached per `(model,
/// replica batch, forward-only)` shape: one unconstrained measuring run
/// plus planner math — **no validation engine runs**, which is what
/// keeps the warm-key zero-validation guarantee intact even while every
/// predicted admission is checked.
#[derive(Debug, Clone, Copy)]
struct VerifiedTruth {
    /// Peak live memory of the unconstrained measuring run.
    ideal_peak: u64,
    /// Smallest planner-feasible budget ([`min_feasible_budget`]) — the
    /// floor a shrunk Capuchin grant must clear.
    min_plan: u64,
}

/// What the footprint predictor said about one predictable arrival.
enum PredictorOutcome {
    /// Warm key: the arrival was admitted on the prediction.
    Hit,
    /// Cold key: the arrival fell back to measured admission.
    Miss,
    /// The predictor was not consulted (predictive off, heuristic-class
    /// policy, or a non-predictable registry row).
    NotConsulted,
}

/// Provenance half of an admission decision, bundled with the budgets by
/// [`Cluster::admission_estimate`] — the internal mirror of the public
/// [`AdmissionDecision`] before validation charging is known.
struct AdmissionDecisionParts {
    /// Where the budgets came from.
    source: AdmissionSource,
    /// Hit/miss accounting for the cluster-level predictor counters.
    outcome: PredictorOutcome,
    /// Pre-margin predicted full need (0 unless `source` is
    /// [`AdmissionSource::Predicted`]) — kept for
    /// `prediction_error_permille`, which scores the regression, not the
    /// safety padding.
    raw_full: u64,
}

/// Memoization key for one elastic-ladder placement probe: `(gang width,
/// full need, min need, failed budget)` — every input of a
/// single-candidate [`crate::PlacementStrategy::pick`] besides the pool
/// state itself, which is pinned by [`GpuPool::generation`].
type LadderKey = (usize, u64, u64, Option<u64>);

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

/// All mutable state of one simulation run: the event heap and clock,
/// per-job and per-GPU state, the waiting queue, and the side-channel
/// logs. [`Cluster::reset`] swaps in a fresh one; the admission caches
/// live on [`Cluster`] itself and survive across runs (they memoize pure
/// functions of the spec, so reuse cannot perturb determinism). The
/// all-empty default is also the placeholder `std::mem::take` leaves
/// behind while the event loop works on the real session; API callers
/// never observe it.
#[derive(Debug, Default)]
struct Session {
    heap: EventHeap,
    jobs: Vec<JobRun>,
    gpus: Vec<GpuState>,
    fabric: Option<Interconnect>,
    /// Headroom index mirroring `gpus[i].reserved`; every reservation
    /// change goes through [`Session::reserve_on`]/[`Session::release_on`]
    /// so the two can never disagree.
    pool: GpuPool,
    /// Waiting queue in queue-entry order (arrival, or checkpoint
    /// completion for preempted jobs), keyed by a monotone entry
    /// sequence for O(log n) keyed removal.
    pending: BTreeMap<u64, usize>,
    /// Next queue-entry key.
    queue_seq: u64,
    /// Bumped on every queue mutation (entry, removal, or a failed-budget
    /// record that changes a waiting candidate).
    queue_gen: u64,
    /// Waiting candidates indexed by `(fit threshold, queue key)`
    /// (candidates whose threshold is `None` can never fit and are
    /// excluded). Two roles: its first key is the queue's *fit floor* —
    /// while every device's headroom sits below it, the placement pass
    /// provably picks nothing and settle skips it in O(1) — and for
    /// order-insensitive strategies a range query feeds `pick` exactly
    /// the candidates whose threshold clears the best headroom, instead
    /// of scanning the whole backlog per probe.
    by_threshold: BTreeMap<(u64, u64), usize>,
    /// Waiting elastic jobs (no checkpoint) in queue-entry order — the
    /// elastic pass walks this instead of filtering the whole queue.
    pending_elastic: BTreeMap<u64, usize>,
    /// Multiset of known ladder floors ([`JobRun::ladder_floor_min`])
    /// over the waiting elastic jobs: the elastic-pass analogue of
    /// `fit_thresholds` (no rung of any waiting ladder fits below its
    /// floor, so the pass skips in O(1) while headroom stays under the
    /// smallest floor).
    elastic_floors: BTreeMap<u64, usize>,
    /// Waiting elastic jobs whose ladder floor is not yet measured; the
    /// elastic pass cannot be skipped while any remain.
    elastic_unfloored: usize,
    /// `(pool generation, queue generation)` at the end of the last
    /// settle pass. While both are unchanged, re-running placement and
    /// the elastic pass provably picks nothing (a `None` pick depends
    /// only on queue contents and headroom, never on the clock), so
    /// settle skips them.
    settled_at: Option<(u64, u64)>,
    /// Pool generation [`Session::ladder_probes`] is valid at.
    ladder_gen: u64,
    /// Memoized elastic-ladder placement probes: two waiting jobs with
    /// the same replica needs share one strategy probe per generation.
    ladder_probes: BTreeMap<LadderKey, Option<Vec<usize>>>,
    /// Jobs currently holding reservations — the preemption victim scan
    /// iterates this instead of every job ever submitted.
    resident_jobs: BTreeSet<usize>,
    /// Jobs with a preemption checkpoint copy in flight (the old
    /// `any(|j| j.preempting)` scan, maintained incrementally).
    preempting: usize,
    /// Unified transfer trace (the [`Cluster::run_traced`] side-channel),
    /// drained by [`Cluster::take_transfers`].
    transfers: Vec<ClusterTransfer>,
    /// Lifecycle event log in occurrence order (the `capuchin-serve`
    /// side-channel), drained by [`Cluster::take_events`].
    events: Vec<JobEvent>,
    /// The clock: the last processed event time or the last
    /// [`Cluster::advance_to`] deadline, whichever is later. Online
    /// submissions arriving "in the past" are clamped to it.
    now: Time,
    /// Any inference job was ever submitted this session. While false,
    /// the settle pass skips the inference serving loop entirely — a
    /// training-only run executes the exact pre-inference code path.
    has_inference: bool,
    /// Completed burst-absorption cycles: a training job shrank to
    /// absorb an inference burst and later re-grew (cluster-wide).
    burst_cycles: u64,
    /// Predicted admissions this session: arrivals whose budgets came
    /// from a warm predictor key (predictive mode only).
    predictor_hits: u64,
    /// Predictable arrivals that fell back to measured admission because
    /// their key was still cold (predictive mode only).
    predictor_misses: u64,
}

impl Session {
    fn new(cfg: &ClusterConfig) -> Session {
        let fabric = cfg
            .interconnect
            .clone()
            .map(|spec| Interconnect::new(spec, cfg.gpus));
        let domain_of: Vec<usize> = match &fabric {
            Some(f) => (0..cfg.gpus).map(|g| f.spec().domain_of(g)).collect(),
            // Without a fabric every device is its own link domain.
            None => (0..cfg.gpus).collect(),
        };
        Session {
            gpus: (0..cfg.gpus)
                .map(|_| GpuState::new(cfg.spec.memory_bytes))
                .collect(),
            pool: GpuPool::new(vec![cfg.spec.memory_bytes; cfg.gpus], domain_of),
            fabric,
            ..Session::default()
        }
    }

    /// Appends a job to the waiting queue, in queue-entry order. The fit
    /// floor and elastic bookkeeping pick the job up here; any later
    /// change to its candidate (a failed-budget record) or its ladder
    /// floor adjusts the multisets at the mutation site, so the state
    /// removed by [`Session::dequeue`] always matches what was inserted.
    fn enqueue(&mut self, job: usize) {
        let key = self.queue_seq;
        self.queue_seq += 1;
        let j = &self.jobs[job];
        let threshold = j.candidate(job).fit_threshold();
        // Inference jobs never re-batch (parse-time validation rejects
        // the combination; code-built specs get the same verdict here).
        let elastic =
            j.spec.elastic && !j.spec.is_inference() && !matches!(j.phase, Phase::Preempted { .. });
        let floor = j.ladder_floor_min;
        self.jobs[job].queue_key = Some(key);
        self.pending.insert(key, job);
        if let Some(t) = threshold {
            self.by_threshold.insert((t, key), job);
        }
        if elastic {
            self.pending_elastic.insert(key, job);
            match floor {
                Some(f) => multiset_add(&mut self.elastic_floors, f),
                None => self.elastic_unfloored += 1,
            }
        }
        self.queue_gen += 1;
    }

    /// Removes a job from the waiting queue by its stored key — O(log n)
    /// instead of a retain scan.
    fn dequeue(&mut self, job: usize) {
        if let Some(key) = self.jobs[job].queue_key.take() {
            self.pending.remove(&key);
            let j = &self.jobs[job];
            if let Some(t) = j.candidate(job).fit_threshold() {
                self.by_threshold.remove(&(t, key));
            }
            if self.pending_elastic.remove(&key).is_some() {
                match j.ladder_floor_min {
                    Some(f) => multiset_sub(&mut self.elastic_floors, f),
                    None => self.elastic_unfloored -= 1,
                }
            }
            self.queue_gen += 1;
        }
    }

    /// Adds `bytes` to `gpu`'s reservation, keeping [`GpuState`] (stats
    /// truth) and [`GpuPool`] (placement index) in lock-step.
    fn reserve_on(&mut self, gpu: usize, bytes: u64, now: Time) {
        let g = &mut self.gpus[gpu];
        g.touch(now);
        g.reserved += bytes;
        g.peak = g.peak.max(g.reserved);
        self.pool.set_reserved(gpu, g.reserved);
    }

    /// Releases `bytes` from `gpu`'s reservation, mirrored into the pool.
    fn release_on(&mut self, gpu: usize, bytes: u64, now: Time) {
        let g = &mut self.gpus[gpu];
        g.touch(now);
        g.reserved -= bytes;
        self.pool.set_reserved(gpu, g.reserved);
    }

    /// Moves every replica of `job`'s gang to a `bytes` reservation.
    fn resize(&mut self, job: usize, bytes: u64, now: Time) {
        let old = self.jobs[job].reserved;
        for i in 0..self.jobs[job].gpus_held.len() {
            let gpu = self.jobs[job].gpus_held[i];
            if bytes >= old {
                self.reserve_on(gpu, bytes - old, now);
            } else {
                self.release_on(gpu, old - bytes, now);
            }
        }
        self.jobs[job].reserved = bytes;
    }

    /// Appends a lifecycle event to the side-channel log.
    fn emit(&mut self, job: usize, t: Time, kind: JobEventKind) {
        self.events.push(JobEvent {
            t,
            job: job as u64,
            name: self.jobs[job].spec.name.clone(),
            kind,
        });
    }

    /// Copies `bytes` per replica of `job`'s gang between device and host,
    /// starting at `want`, and returns when the copy drains. On a shared
    /// fabric every replica's bytes serialize on the host link (behind
    /// any traffic in flight) and the copy is recorded as a transfer
    /// named `label`; with private lanes the replicas copy in parallel.
    fn host_copy(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        want: Time,
        bytes: u64,
        dir: CopyDir,
        label: &str,
    ) -> Time {
        let Some(fabric) = self.fabric.as_mut() else {
            return want + dev.copy_time(bytes, dir);
        };
        let j = &self.jobs[job];
        let bytes = bytes * j.gpus_held.len().max(1) as u64;
        let tr = fabric.host_transfer(want, bytes);
        self.transfers.push(ClusterTransfer {
            job: j.spec.name.clone(),
            iter: u64::MAX,
            label: label.to_owned(),
            link: "host".to_owned(),
            dir,
            bytes,
            want,
            start: tr.start,
            end: tr.end,
            wait: tr.start.saturating_since(want),
            charge: Duration::ZERO,
            lead: Duration::ZERO,
        });
        tr.end
    }

    /// Takes `job` off the queue and grants it its whole gang in one step
    /// — `bytes` on every member. The strategy names the complete GPU set
    /// and every member is reserved here, so no job ever holds a partial
    /// gang (the no-deadlock invariant).
    fn grant(&mut self, job: usize, gang: &[usize], bytes: u64, now: Time) {
        self.dequeue(job);
        let j = &mut self.jobs[job];
        j.gpus_held = gang.to_vec();
        j.reserved = bytes;
        self.resident_jobs.insert(job);
        for &gpu in gang {
            self.reserve_on(gpu, bytes, now);
            let g = &mut self.gpus[gpu];
            g.resident.push(job);
            g.hosted += 1;
        }
    }

    /// Grants a waiting job its gang at global batch `batch` and starts
    /// it: training iterates at once, while a serving job idles until the
    /// serving loop opens its first round over the accumulated backlog.
    fn admit(&mut self, job: usize, gang: &[usize], bytes: u64, batch: usize, now: Time) {
        self.grant(job, gang, bytes, now);
        self.jobs[job].admitted_at = Some(now);
        let gpus = gang.to_vec();
        let admitted = JobEventKind::Admitted {
            gpus,
            batch,
            reserved: bytes,
        };
        self.emit(job, now, admitted);
        if self.jobs[job].spec.is_inference() {
            self.jobs[job].phase = Phase::Barrier;
        } else if !self.start_iter(job, now) {
            return;
        }
        self.reprice(gang, now);
    }

    /// Moves `job` to `next`, releasing every replica's reservation and
    /// logging `kind`; each device the gang left re-prices its remaining
    /// residents. A completed job keeps its GPU list for stats.
    fn release_gang(&mut self, job: usize, now: Time, next: Phase, kind: JobEventKind) {
        let j = &mut self.jobs[job];
        if matches!(std::mem::replace(&mut j.phase, next), Phase::Checkpointing) {
            self.preempting -= 1;
        }
        let held = std::mem::take(&mut j.gpus_held);
        let reserved = j.reserved;
        self.resident_jobs.remove(&job);
        for &gpu in &held {
            self.release_on(gpu, reserved, now);
            remove_resident(&mut self.gpus[gpu], job);
        }
        self.emit(job, now, kind);
        self.reprice(&held, now);
        if matches!(self.jobs[job].phase, Phase::Done(JobOutcome::Completed)) {
            self.jobs[job].gpus_held = held;
        }
    }

    /// Ends `job` with `outcome`: it leaves the queue, its reduced-batch
    /// window closes, every scheduled event dies by the epoch bump (its
    /// arrivals by the terminal phase), and whatever gang it holds is
    /// released.
    fn finish(&mut self, job: usize, now: Time, outcome: JobOutcome) {
        self.dequeue(job);
        let j = &mut self.jobs[job];
        j.close_reduced(now);
        j.epoch += 1;
        let kind = match outcome {
            JobOutcome::Completed => {
                j.finished_at = Some(now);
                JobEventKind::Completed
            }
            JobOutcome::Rejected => JobEventKind::Rejected,
            JobOutcome::Cancelled => JobEventKind::Cancelled,
            _ => JobEventKind::Aborted,
        };
        self.release_gang(job, now, Phase::Done(outcome), kind);
    }

    /// Starts checkpointing `job`'s whole gang to the host; `kind` fires
    /// when the copy drains. Checkpoints capture completed-iteration
    /// boundaries only, so the iteration under way (or, after a
    /// mispredict, the one that exposed it) is wasted work.
    fn start_checkpoint(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        now: Time,
        label: &str,
        kind: EventKind,
    ) {
        let reserved = self.jobs[job].reserved;
        let end = self.host_copy(dev, job, now, reserved, CopyDir::DeviceToHost, label);
        let j = &mut self.jobs[job];
        j.wasted_work += now.saturating_since(j.iter_started);
        j.preemptions += 1;
        j.checkpoint_overhead += end.saturating_since(now);
        j.phase = Phase::Checkpointing;
        j.epoch += 1;
        self.preempting += 1;
        self.heap.push(end, kind, job, j.epoch);
    }

    /// Schedules the end of `job`'s next iteration's compute: recorded
    /// wall time (the validation run's final wall repeats past its
    /// length) scaled by the gang's contention factor. Re-pricing adjusts
    /// the end later if residency changes mid-iteration; boundary
    /// communication is charged separately when the compute drains.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyWalls`] when the job has no replay trace — admission
    /// rejects such traces, so this is a defence, not a path.
    fn schedule_iter(&mut self, job: usize, now: Time) -> Result<(), EmptyWalls> {
        assert!(
            !self.jobs[job].gpus_held.is_empty(),
            "scheduled job holds a gang"
        );
        let k = contention_factor(&self.jobs, &self.gpus, job);
        let j = &mut self.jobs[job];
        let Some(it) = j.replay.get(j.replay_idx()) else {
            return Err(EmptyWalls);
        };
        j.iter_wall = it.wall;
        j.iter_k = k;
        j.iter_progress = 0.0;
        j.iter_started = now;
        j.iter_priced_at = now;
        j.phase = Phase::Running;
        let end = now + j.iter_wall.mul_f64(k);
        self.heap.push(end, EventKind::IterEnd, job, j.epoch);
        Ok(())
    }

    /// Starts `job`'s next iteration, aborting the job mid-run when its
    /// replay trace is empty. Returns whether the iteration started.
    fn start_iter(&mut self, job: usize, now: Time) -> bool {
        let started = self.schedule_iter(job, now).is_ok();
        if !started {
            self.finish(job, now, JobOutcome::Aborted);
        }
        started
    }

    /// Re-prices every in-flight iteration on `gpus` after their resident
    /// sets changed at `now`: progress accrued under the old contention
    /// factor is banked, the remainder is rescaled to the new factor, and
    /// a fresh iteration-end event supersedes the stale one (epoch bump).
    /// A gang's factor spans all its GPUs, so a residency change on one
    /// device re-prices gang-mates whose other devices are untouched.
    fn reprice(&mut self, gpus: &[usize], now: Time) {
        let Session {
            jobs,
            gpus: devices,
            heap,
            ..
        } = self;
        for &gpu in gpus {
            for &r in &devices[gpu].resident {
                let k = contention_factor(jobs, devices, r);
                let j = &mut jobs[r];
                if !matches!(j.phase, Phase::Running) || j.iter_k == k {
                    continue;
                }
                let base = j.iter_wall.as_nanos() as f64;
                if base > 0.0 {
                    let elapsed = now.saturating_since(j.iter_priced_at).as_nanos() as f64;
                    j.iter_progress = (j.iter_progress + elapsed / (j.iter_k * base)).min(1.0);
                } else {
                    j.iter_progress = 1.0;
                }
                j.iter_k = k;
                j.iter_priced_at = now;
                let remaining =
                    Duration::from_nanos(((1.0 - j.iter_progress) * k * base).round() as u64);
                j.epoch += 1;
                heap.push(now + remaining, EventKind::IterEnd, r, j.epoch);
            }
        }
    }
}

/// Adds one occurrence of `v` to a threshold multiset.
fn multiset_add(set: &mut BTreeMap<u64, usize>, v: u64) {
    *set.entry(v).or_insert(0) += 1;
}

/// Drops one occurrence of `v`. The entry disappears at zero so
/// `first_key_value` stays the true minimum.
fn multiset_sub(set: &mut BTreeMap<u64, usize>, v: u64) {
    match set.get_mut(&v) {
        Some(c) if *c > 1 => *c -= 1,
        _ => {
            set.remove(&v);
        }
    }
}

/// The cluster scheduler.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    admission: Admission,
    /// Measured footprints and derived admission budgets keyed by
    /// `(model kind, replica batch)` — jobs (and gang replicas) sharing a
    /// per-replica workload share one measuring run and one bisection.
    /// The interned [`ModelKind`] key avoids a `String` clone per probe,
    /// and only the [`EstimateSummary`] slice of the measuring run is
    /// retained — the full profile would otherwise be cloned on every
    /// cache hit (once per arrival and elastic probe). The trailing flag
    /// is the policy's admission cost class (`true` = heuristic):
    /// heuristic needs skip the measured bisection, so the two classes
    /// derive different budgets from the same measuring run.
    estimates: BTreeMap<(ModelKind, usize, bool), (EstimateSummary, JobNeeds)>,
    /// Forward-only (inference) footprints and budgets, keyed like
    /// [`Cluster::estimates`] but measured over the graph's forward
    /// prefix — a separate map because the same `(model, replica batch)`
    /// has a strictly smaller serving footprint than its training twin.
    forward_estimates: BTreeMap<(ModelKind, usize, bool), (EstimateSummary, JobNeeds)>,
    /// Built training graphs keyed by `(model kind, replica batch)`.
    /// Validation runs at distinct byte budgets can't share a cache
    /// entry, but they all replan over the same graph — rebuilding it
    /// per run used to dominate Capuchin-admission wall time. Bounded by
    /// the workload's shape menu, which synthetic generators keep small.
    models: BTreeMap<(ModelKind, usize), capuchin_models::Model>,
    /// Validation outcomes: `Some` holds the per-iteration replay trace
    /// (shared, not cloned, with every admission that hits the cache),
    /// `None` records a failed run.
    validations: BTreeMap<ValidationKey, Option<Arc<Vec<ReplayIter>>>>,
    /// Validation engine runs already attributed to some job — the
    /// cursor [`Cluster::charge_admission`] advances against the
    /// controller's monotone [`Admission::validation_runs`] counter.
    charged_runs: u64,
    /// Footprint regression store fed by completed measured runs. Like
    /// the estimate caches it survives [`Cluster::reset`], which is what
    /// lets a `capuchin-serve` daemon warm it across online submissions —
    /// the longer the daemon lives, the more admissions are free.
    predictor: FootprintPredictor,
    /// Measured truth for mispredict verification, keyed by `(model,
    /// replica batch, forward-only)` and shared by every predicted job of
    /// the same shape. Populated without validation engine runs.
    truths: BTreeMap<(ModelKind, usize, bool), VerifiedTruth>,
    /// Live run state for the online API (and the batch wrappers).
    session: Session,
}

impl Cluster {
    /// Creates a cluster.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let mut admission = Admission::new(cfg.admission);
        admission.validate_iters = cfg.validate_iters.max(2);
        let session = Session::new(&cfg);
        Cluster {
            cfg,
            admission,
            estimates: BTreeMap::new(),
            forward_estimates: BTreeMap::new(),
            models: BTreeMap::new(),
            validations: BTreeMap::new(),
            charged_runs: 0,
            predictor: FootprintPredictor::new(),
            truths: BTreeMap::new(),
            session,
        }
    }

    /// Attributes every validation engine run performed since the last
    /// charge to `j` — called after each admission-driven block
    /// (`estimate_at` / `validated_replay` clusters), so per-job
    /// `admission_validations` sums exactly to the controller's total.
    /// Cache-hit admissions charge nothing; heuristic-class policies
    /// never run a validation engine and stay at zero.
    fn charge_admission(&mut self, j: &mut JobRun) {
        let total = self.admission.validation_runs();
        j.admission_validations += total - self.charged_runs;
        self.charged_runs = total;
    }

    /// Memoized validation entries currently held. Diagnostic hook:
    /// heuristic-class admissions must leave this cache cold, so an
    /// all-`dtr` workload reports zero here.
    pub fn validation_cache_len(&self) -> usize {
        self.validations.len()
    }

    /// Total validation engine runs the admission controller has
    /// performed over this cluster's lifetime (all sessions — the
    /// caches, like the controller, survive [`Cluster::reset`]).
    pub fn validation_runs(&self) -> u64 {
        self.admission.validation_runs()
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

    /// Measures the per-replica footprint at global batch `batch`:
    /// weights plus activations at the replica slice (`batch / gpus`).
    /// Elastic probes at reduced batches share the same cache — keyed by
    /// the replica batch, so a 4-GPU gang elastically reduced to batch
    /// 128 reuses the single-GPU batch-32 measuring run.
    fn estimate_at(&mut self, spec: &JobSpec, batch: usize) -> (EstimateSummary, JobNeeds) {
        let rb = spec.replica_batch_at(batch);
        let heuristic = spec.policy.descriptor().cost_class == CostClass::Heuristic;
        let key = (spec.model, rb, heuristic);
        let forward = spec.is_inference();
        let cache = if forward {
            &mut self.forward_estimates
        } else {
            &mut self.estimates
        };
        if let Some(cached) = cache.get(&key) {
            return *cached;
        }
        let model = self
            .models
            .entry((spec.model, rb))
            .or_insert_with(|| spec.model.build(rb));
        // Inference jobs never run the backward pass: measure (and derive
        // needs from) the forward prefix, whose peak is strictly smaller.
        let (est, needs) = if forward {
            let est = measure_forward_footprint(&model.graph, &self.cfg.spec)
                .expect("unconstrained measuring run cannot OOM");
            // Forward-only budgets are verified by measured execution —
            // proportional slack alone undershoots when weights dominate
            // the peak (see `Admission::forward_needs`) — except for
            // heuristic-class policies, which pad a step instead of
            // probing with engine runs.
            let needs = if heuristic {
                self.admission.heuristic_forward_needs(&est)
            } else {
                let fwd = model.graph.forward_prefix();
                self.admission.forward_needs(&fwd, &est, spec.policy)
            };
            (est, needs)
        } else {
            let est = measure_footprint(&model.graph, &self.cfg.spec)
                .expect("unconstrained measuring run cannot OOM");
            let needs = if heuristic {
                self.admission.heuristic_needs(&est)
            } else {
                self.admission.needs(&model.graph, &est)
            };
            (est, needs)
        };
        let summary = EstimateSummary {
            ideal_peak: est.ideal_peak,
            weight_bytes: est.weight_bytes,
            iter_wall: est.iter_wall,
        };
        let cache = if forward {
            &mut self.forward_estimates
        } else {
            &mut self.estimates
        };
        cache.insert(key, (summary, needs));
        (summary, needs)
    }

    /// Admission-time budget derivation, provenance included — the entry
    /// point [`EventKind::Arrive`] dispatches instead of calling
    /// [`Cluster::estimate_at`] directly.
    ///
    /// Heuristic-class policies estimate exactly as before. For
    /// measured-class (predictable) policies with predictive mode on,
    /// the regression store is consulted first: a warm key admits on
    /// `prediction × safety margin` — zero measuring and zero validation
    /// engine runs, even when the estimate cache happens to hold the
    /// shape (the warm-key guarantee is keyed on the *family*, not the
    /// batch) — and a cold key falls back to measured estimation, whose
    /// completion later feeds the store. With predictive off this is
    /// exactly the old two-provenance pipeline.
    fn admission_estimate(
        &mut self,
        spec: &JobSpec,
    ) -> (EstimateSummary, JobNeeds, AdmissionDecisionParts) {
        let descriptor = spec.policy.descriptor();
        let heuristic = descriptor.cost_class == CostClass::Heuristic;
        let consult = !heuristic && self.cfg.predictive && descriptor.predictable;
        if let Some(raw) = consult.then(|| self.predict(spec)).flatten() {
            let margin = self.cfg.safety_margin_permille;
            let padded = raw.with_margin(margin);
            let needs = JobNeeds {
                full: padded.full,
                min: match self.admission.mode {
                    // TfOri admission never shrinks: min == full,
                    // exactly like the measured path.
                    AdmissionMode::TfOri => padded.full,
                    AdmissionMode::Capuchin => padded.min,
                },
            };
            let parts = AdmissionDecisionParts {
                source: AdmissionSource::Predicted {
                    margin_permille: margin,
                },
                outcome: PredictorOutcome::Hit,
                raw_full: raw.full,
            };
            return (padded.into(), needs, parts);
        }
        let (est, needs) = self.estimate_at(spec, spec.batch);
        let (source, outcome) = match (heuristic, consult) {
            (true, _) => (AdmissionSource::Heuristic, PredictorOutcome::NotConsulted),
            (false, true) => (AdmissionSource::Measured, PredictorOutcome::Miss),
            (false, false) => (AdmissionSource::Measured, PredictorOutcome::NotConsulted),
        };
        let parts = AdmissionDecisionParts {
            source,
            outcome,
            raw_full: 0,
        };
        (est, needs, parts)
    }

    /// The regression store's raw (pre-margin) footprint for `spec`'s
    /// family at its replica batch; `None` while the key is cold.
    fn predict(&self, spec: &JobSpec) -> Option<PredictedFootprint> {
        let rb = spec.predict_features().replica_batch();
        self.predictor
            .predict(&key_of(spec), rb, self.cfg.min_samples)
    }

    fn validated_replay(
        &mut self,
        spec: &JobSpec,
        batch: usize,
        budget: u64,
        shrunk: bool,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        // Heuristic-class policies are never validated by an engine run:
        // their replay is synthesized from the cached footprint estimate
        // and the validation cache stays cold.
        if spec.policy.descriptor().cost_class == CostClass::Heuristic {
            return self.heuristic_replay(spec, batch, budget);
        }
        let rb = spec.replica_batch_at(batch);
        // Inference validates at least 2 engine iterations regardless of
        // `spec.iters` (which inference specs leave at 1): Capuchin needs
        // a measured iteration before a guided one exists to record.
        let iters = spec.iters.min(self.cfg.validate_iters).max(2);
        let forward = spec.is_inference();
        let key = (
            spec.model,
            rb,
            budget,
            spec.policy.name(),
            shrunk,
            iters,
            forward,
        );
        if let Some(cached) = self.validations.get(&key) {
            return cached.clone();
        }
        let model = self
            .models
            .entry((spec.model, rb))
            .or_insert_with(|| spec.model.build(rb));
        // Inference jobs validate the forward prefix only — the budget
        // they are granted never has to fit a backward pass.
        let validated = if forward {
            let fwd = model.graph.forward_prefix();
            self.admission
                .validate(&fwd, &self.cfg.spec, budget, spec.policy, shrunk, iters)
        } else {
            self.admission.validate(
                &model.graph,
                &self.cfg.spec,
                budget,
                spec.policy,
                shrunk,
                iters,
            )
        };
        let replay = validated
            .ok()
            // An empty trace is a failed validation, not a fast job.
            .filter(|replay| !replay.is_empty())
            .map(Arc::new);
        self.validations.insert(key, replay.clone());
        replay
    }

    /// Synthesizes the replay trace an unvalidated (heuristic-class)
    /// admission hands the clock: the unconstrained measuring iteration's
    /// wall, stretched by a paging round-trip of the budget deficit.
    ///
    /// The model is deliberately conservative — the online policy pages
    /// (or regenerates, usually cheaper) the bytes that no longer fit,
    /// priced here as one D2H + H2D round trip of the deficit per
    /// iteration on the device's own transfer model; the synthetic
    /// transfer pair makes that traffic contend on a shared fabric like
    /// validated swap timelines do. Below the slack-padded weight floor
    /// even an online policy cannot run (weights are unevictable), so
    /// the grant is refused like a failed validation — without an engine
    /// run and without touching the validation cache.
    fn heuristic_replay(
        &mut self,
        spec: &JobSpec,
        batch: usize,
        budget: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        let (est, _) = self.estimate_at(spec, batch);
        let iters = spec.iters.min(self.cfg.validate_iters).max(2);
        self.synthesize_replay(spec.policy.name(), &est, budget, iters)
    }

    /// Synthesizes the replay trace a predicted admission hands the
    /// clock, from the regression store alone — the predicted analogue of
    /// [`Cluster::heuristic_replay`], sharing its deficit-paging model
    /// via [`Cluster::synthesize_replay`]. No measuring run, no
    /// validation engine run: that absence *is* the warm-key guarantee.
    /// `None` when the key went cold (impossible once warm — the store
    /// only grows) or the budget sits below the predicted weight floor.
    fn predicted_replay(&self, spec: &JobSpec, budget: u64) -> Option<Arc<Vec<ReplayIter>>> {
        let est = self
            .predict(spec)?
            .with_margin(self.cfg.safety_margin_permille)
            .into();
        let iters = spec.iters.min(self.cfg.validate_iters).max(2);
        self.synthesize_replay(spec.policy.name(), &est, budget, iters)
    }

    /// The shared deficit-paging replay model behind
    /// [`Cluster::heuristic_replay`] and [`Cluster::predicted_replay`]:
    /// the (estimated or predicted) unconstrained iteration wall,
    /// stretched by one D2H + H2D round trip of whatever slice of the
    /// slack-padded peak the budget cannot hold.
    fn synthesize_replay(
        &self,
        policy_name: &str,
        est: &EstimateSummary,
        budget: u64,
        iters: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        if budget < crate::admission::with_slack(est.weight_bytes) {
            return None;
        }
        let deficit = crate::admission::with_slack(est.ideal_peak).saturating_sub(budget);
        let iter = if deficit == 0 {
            ReplayIter {
                wall: est.iter_wall,
                swap_bytes: 0,
                recompute_time: Duration::ZERO,
                evictions: 0,
                transfers: Vec::new(),
            }
        } else {
            let transfers = TransferModel::for_device(&self.cfg.spec);
            let out = transfers.time(deficit, CopyDir::DeviceToHost);
            let back = transfers.time(deficit, CopyDir::HostToDevice);
            ReplayIter {
                wall: est.iter_wall + out + back,
                swap_bytes: deficit.saturating_mul(2),
                recompute_time: Duration::ZERO,
                evictions: 1,
                transfers: vec![
                    ReplayTransfer {
                        label: format!("evict:{policy_name}"),
                        bytes: deficit,
                        dir: CopyDir::DeviceToHost,
                        offset: Duration::ZERO,
                    },
                    ReplayTransfer {
                        label: format!("refill:{policy_name}"),
                        bytes: deficit,
                        dir: CopyDir::HostToDevice,
                        offset: out,
                    },
                ],
            }
        };
        Some(Arc::new(vec![iter; iters as usize]))
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
        if spec.is_inference() {
            s.has_inference = true;
        }
        let mut run = JobRun::new(spec, id);
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
            rebatches: j.rebatches,
            admission_source: j.admission_source.name().to_owned(),
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

    /// One event's state transition — the match-arm body of the old
    /// batch loop. The settle pass (placement and friends) runs
    /// separately after every dispatch.
    fn dispatch(&mut self, s: &mut Session, job: usize, kind: EventKind, now: Time) {
        match kind {
            EventKind::Arrive => {
                // Bad gang widths are rejected at parse time
                // ([`JobSpec::validate`]); specs built in code get the
                // same verdict here instead of a late panic.
                let spec = s.jobs[job].spec.clone();
                let admissible = spec.gpus != 0 && spec.gpus <= self.cfg.gpus && {
                    let (est, base, decision) = self.admission_estimate(&spec);
                    match decision.outcome {
                        PredictorOutcome::Hit => s.predictor_hits += 1,
                        PredictorOutcome::Miss => s.predictor_misses += 1,
                        PredictorOutcome::NotConsulted => {}
                    }
                    let j = &mut s.jobs[job];
                    j.admission_source = decision.source;
                    if let AdmissionSource::Predicted { .. } = decision.source {
                        j.predicted_bytes = base.full;
                        j.predicted_raw_full = decision.raw_full;
                    }
                    j.set_needs(&est, base);
                    // An elastic job whose full-batch minimum exceeds
                    // a bare GPU is still admissible if the ladder's
                    // floor batch fits one.
                    let capacity = self.cfg.spec.memory_bytes;
                    let admissible = j.needs.min <= capacity
                        || (self.cfg.elastic && spec.elastic && !spec.is_inference() && {
                            let floor = *elastic_batches(spec.batch, self.cfg.min_batch_fraction)
                                .last()
                                .expect("ladder is never empty");
                            self.estimate_at(&spec, floor).1.min <= capacity
                        });
                    self.charge_admission(&mut s.jobs[job]);
                    admissible
                };
                if !admissible {
                    // Admission-time OOM: no bare GPU can host a replica
                    // at any allowed batch.
                    s.finish(job, now, JobOutcome::Rejected);
                } else {
                    s.enqueue(job);
                    if spec.is_inference() {
                        // The request-arrival process starts with the
                        // job: each arrival schedules its successor.
                        self.schedule_next_request(s, job, now);
                    }
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
            EventKind::Comm => {
                self.complete_iteration(s, job, now);
            }
            EventKind::Request => {
                // A request joins the job's queue and the arrival
                // process self-perpetuates. Serving is *not* attempted
                // here: the settle pass that follows every dispatch
                // runs the serving loop, so the request is picked up in
                // the same instant if the job is resident and idle.
                s.jobs[job].req_queue.push_back(now);
                s.emit(job, now, JobEventKind::RequestArrived);
                self.schedule_next_request(s, job, now);
            }
            EventKind::Regrow => {
                // The batch-change copies drained: swap in the new
                // replay and continue from the same samples cursor at
                // the new batch.
                let j = &mut s.jobs[job];
                let Phase::Regrowing(rg) = std::mem::replace(&mut j.phase, Phase::Barrier) else {
                    unreachable!("a live regrow event belongs to a regrowing job")
                };
                let grew = rg.batch > j.cur_batch;
                j.cur_batch = rg.batch;
                j.shrunk = rg.shrunk;
                j.replay = rg.replay;
                if rg.batch >= j.spec.batch {
                    // Back at the requested batch: close the
                    // reduced-time window.
                    j.close_reduced(now);
                } else if j.reduced_since.is_none() {
                    // A downward change (burst absorption) opens it.
                    j.reduced_since = Some(now);
                }
                // Any re-growth after a burst-absorption shrink closes
                // the cycle: the burst drained and the trained batch
                // recovered.
                if grew && j.shrunk_for_burst {
                    j.shrunk_for_burst = false;
                    s.burst_cycles += 1;
                }
                s.emit(job, now, JobEventKind::Rebatched { batch: rg.batch });
                s.start_iter(job, now);
            }
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
                if j.cur_batch < j.spec.batch.max(1) {
                    j.reduced_since = Some(now);
                }
                s.emit(job, now, JobEventKind::Resumed);
                s.start_iter(job, now);
            }
            EventKind::Remeasure => {
                // Mispredict checkpoint copy drained: the predicted
                // grant is surrendered wholesale and the job re-enters
                // admission on the measured path.
                s.jobs[job].queued_at = now;
                s.release_gang(job, now, Phase::Queued, JobEventKind::Preempted);
                let spec = s.jobs[job].spec.clone();
                let (est, base) = self.estimate_at(&spec, spec.batch);
                // The re-measurement's engine runs bill the job whose
                // prediction forced them, not whoever admits next.
                self.charge_admission(&mut s.jobs[job]);
                let j = &mut s.jobs[job];
                j.admission_source = AdmissionSource::Measured;
                j.set_needs(&est, base);
                if j.needs.min <= self.cfg.spec.memory_bytes {
                    s.enqueue(job);
                } else {
                    // The measured truth does not fit a bare GPU: the
                    // prediction admitted an impossible job. Abort it —
                    // this is the one mispredict outcome that cannot be
                    // recovered by re-queueing.
                    s.finish(job, now, JobOutcome::Aborted);
                }
            }
        }
    }

    /// One settle pass after a state change: (re-)place waiting jobs,
    /// then the elastic second pass, then consider one preemption — the
    /// tail of the old batch loop body, behaviour-identical. Runs after
    /// every dispatched event and after a [`Cluster::cancel`].
    fn settle(&mut self, s: &mut Session, now: Time) {
        // The strategies are stateless values, so rebuilding one per
        // pass is free — and keeps `self` unborrowed for the admission
        // caches the passes consult.
        let strategy = self.cfg.strategy.build(self.cfg.aging_rate);
        // A `None` pick depends only on queue contents and pool headroom,
        // never on the clock, so while both generations are unchanged the
        // placement and elastic passes provably find nothing — skip them.
        // (Preemption *is* clock-dependent through priority aging and
        // runs below regardless.)
        let settled = s.settled_at == Some((s.pool.generation(), s.queue_gen));
        // (Re-)place waiting jobs after every state change. Gang
        // grants are atomic: the strategy names the complete GPU set
        // and every member is reserved in this same loop step, so no
        // job ever holds a partial gang (the no-deadlock invariant).
        loop {
            // O(1) hopeless check: when the pass is already settled, or
            // the queue's fit floor sits above the best headroom
            // anywhere, every candidate's threshold fails on every
            // device — `pick` is provably `None` for any strategy, so
            // skip the queue scan entirely. Re-checked per iteration
            // because each admission shrinks headroom.
            let cap = s.pool.max_headroom();
            let floor = s.by_threshold.first_key_value().map(|(&(t, _), _)| t);
            if settled || floor.is_none_or(|t| t > cap) {
                break;
            }
            let picked = {
                let jobs = &s.jobs;
                let slo_aware = self.cfg.slo_aware;
                // The SLO boost is stamped at read time, not baked into
                // the queue: it grows as pending requests age without
                // re-keying anything, and is identically 0 for training
                // jobs and under SLO-blind scheduling.
                let stamped = |j: usize| {
                    let mut c = jobs[j].candidate(j);
                    c.boost_permille = jobs[j].slo_boost(now, slo_aware);
                    c
                };
                if strategy.order_insensitive() {
                    // Feed only the candidates whose threshold clears
                    // some device — a threshold-index range instead of
                    // the whole backlog. Sound because the strategy
                    // declared its pick invariant to candidate order and
                    // to dropping never-placeable candidates.
                    let mut queue = s
                        .by_threshold
                        .range(..=(cap, u64::MAX))
                        .map(|(_, &j)| stamped(j));
                    strategy.pick(&mut queue, &s.pool, now)
                } else {
                    let mut queue = s.pending.values().map(|&j| stamped(j));
                    strategy.pick(&mut queue, &s.pool, now)
                }
            };
            let Some((job, gang)) = picked else {
                break;
            };
            assert_eq!(
                gang.len(),
                s.jobs[job].width(),
                "strategy returned a partial gang"
            );
            if let Phase::Preempted { .. } = s.jobs[job].phase {
                // Resume placement: regrant the checkpointed budget on
                // every replica and charge the host-to-device restore
                // copy before the first resumed iteration.
                let grant = s.jobs[job].reserved;
                s.grant(job, &gang, grant, now);
                let dir = CopyDir::HostToDevice;
                let end = s.host_copy(&self.cfg.spec, job, now, grant, dir, "restore");
                let j = &mut s.jobs[job];
                j.checkpoint_overhead += end.saturating_since(now);
                j.epoch += 1;
                s.heap.push(end, EventKind::Resume, job, j.epoch);
                s.reprice(&gang, now);
                continue;
            }
            // Every replica gets the same grant: the tightest member
            // of the gang caps it (replicas run one validated replay).
            let headroom = gang
                .iter()
                .map(|&g| s.pool.headroom(g))
                .min()
                .expect("gang is non-empty");
            let grant = headroom.min(s.jobs[job].needs.full);
            let spec = s.jobs[job].spec.clone();
            // For inference the validated budget is the forward-only
            // base slice of the grant; the remainder is the KV pool,
            // licensing the round concurrency. Training validates the
            // whole grant (`budget == grant`, `lic` unused).
            let (budget, shrunk, lic) = if spec.is_inference() {
                let base = s.jobs[job].base_needs;
                let kv = spec.kv_bytes_per_request;
                let max_in = spec.max_inflight.max(1);
                let b = grant
                    .saturating_sub(spec.kv_round_bytes())
                    .max(base.min)
                    .min(base.full);
                // ≥ 1 when kv > 0: the published `min` priced one
                // request's slot on top of the base minimum, and the
                // strategy never grants below `min`.
                let lic = match grant.saturating_sub(b).checked_div(kv) {
                    Some(slots) => ((slots.max(1)) as usize).min(max_in),
                    None => max_in,
                };
                (b, b < base.full, lic)
            } else {
                (grant, grant < s.jobs[job].needs.full, 0)
            };
            // A predicted admission synthesizes its replay from the
            // regression store — no engine run. Everything else (measured
            // and heuristic provenance alike) goes through
            // `validated_replay`, which internally routes heuristic-class
            // policies to their own synthetic path.
            let predicted = matches!(
                s.jobs[job].admission_source,
                AdmissionSource::Predicted { .. }
            );
            let validated = if predicted {
                self.predicted_replay(&spec, budget)
            } else {
                self.validated_replay(&spec, spec.batch, budget, shrunk)
            };
            self.charge_admission(&mut s.jobs[job]);
            match validated {
                Some(replay) => {
                    let j = &mut s.jobs[job];
                    j.shrunk = shrunk;
                    j.replay = replay;
                    j.lic_inflight = lic;
                    s.admit(job, &gang, budget, spec.batch, now);
                }
                None => {
                    // The budget looked plannable but the engine run
                    // failed; never retry at or below it. The record
                    // changes this waiting candidate's fit threshold,
                    // so the queue generation must move and the fit
                    // floor re-files the candidate under its new value.
                    let old = s.jobs[job].candidate(job).fit_threshold();
                    let j = &mut s.jobs[job];
                    j.record_failed(j.spec.batch, grant);
                    let key = j.queue_key.expect("picked candidate is queued");
                    let new = s.jobs[job].candidate(job).fit_threshold();
                    if old != new {
                        if let Some(t) = old {
                            s.by_threshold.remove(&(t, key));
                        }
                        if let Some(t) = new {
                            s.by_threshold.insert((t, key), job);
                        }
                    }
                    s.queue_gen += 1;
                }
            }
        }
        // Elastic second pass: the strategy just said nothing fits at
        // the full batch, so trade batch for an earlier start. For
        // each waiting elastic job (queue-entry order), bisect the
        // halving ladder for the largest reduced batch some gang
        // subset can host right now and admit there; the iteration
        // count extends so total samples trained is preserved.
        // O(1) elastic gate, mirroring the placement fit floor: no rung
        // of any waiting ladder fits below the smallest known floor, so
        // while headroom stays under it (and every floor is known) the
        // whole pass is provably a no-op.
        let elastic_live = s.elastic_unfloored > 0
            || s.elastic_floors
                .first_key_value()
                .is_some_and(|(&f, _)| f <= s.pool.max_headroom());
        if !settled && self.cfg.elastic && elastic_live {
            let waiting: Vec<usize> = s.pending_elastic.values().copied().collect();
            for job in waiting {
                // Admissions earlier in this pass moved the pool
                // generation, so the memo check lives inside the loop.
                if s.ladder_gen != s.pool.generation() {
                    s.ladder_probes.clear();
                    s.ladder_gen = s.pool.generation();
                }
                let ladder = elastic_batches(s.jobs[job].spec.batch, self.cfg.min_batch_fraction);
                if ladder.len() < 2 {
                    // The fraction allows no shrinking — ever. File the
                    // job under an unreachable floor so the gate above
                    // can still close.
                    if s.jobs[job].ladder_floor_min.is_none() {
                        s.jobs[job].ladder_floor_min = Some(u64::MAX);
                        s.elastic_unfloored -= 1;
                        multiset_add(&mut s.elastic_floors, u64::MAX);
                    }
                    continue;
                }
                // Cheap reject before any probe: if even the smallest
                // rung's minimum exceeds the best headroom anywhere, no
                // rung can fit (every rung's fit threshold is at least
                // its own minimum, which is at least the ladder floor).
                let floor_min = match s.jobs[job].ladder_floor_min {
                    Some(v) => v,
                    None => {
                        let spec = s.jobs[job].spec.clone();
                        let v = ladder
                            .iter()
                            .map(|&b| self.estimate_at(&spec, b).1.min)
                            .min()
                            .expect("ladder is never empty");
                        s.jobs[job].ladder_floor_min = Some(v);
                        s.elastic_unfloored -= 1;
                        multiset_add(&mut s.elastic_floors, v);
                        v
                    }
                };
                self.charge_admission(&mut s.jobs[job]);
                if floor_min > s.pool.max_headroom() {
                    continue;
                }
                let mut picks: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                // ladder[0] is the full batch the strategy already
                // refused this instant; only reduced candidates.
                let (jobs, pool, probes) = (&s.jobs, &s.pool, &mut s.ladder_probes);
                let chosen = bisect_batch(&ladder[1..], |b| {
                    let needs = self.estimate_at(&jobs[job].spec, b).1;
                    let fb = jobs[job].failed.get(&b).copied();
                    // Two waiting jobs with the same shape share one
                    // probe per pool generation: a single-candidate pick
                    // depends only on (width, needs, failed budget) and
                    // the pool — never on identity, arrival or priority.
                    let key: LadderKey = (jobs[job].width(), needs.full, needs.min, fb);
                    let gang = match probes.get(&key) {
                        Some(cached) => cached.clone(),
                        None => {
                            let cand = CandidateJob {
                                job,
                                arrival: jobs[job].queued_at,
                                priority: jobs[job].spec.priority,
                                gpus: jobs[job].width(),
                                full_need: needs.full,
                                min_need: needs.min,
                                failed_budget: fb,
                                // Single-candidate probe: the boost only
                                // breaks ties between candidates.
                                boost_permille: 0,
                            };
                            let picked = strategy
                                .pick(&mut std::iter::once(cand), pool, now)
                                .map(|(_, gang)| gang);
                            probes.insert(key, picked.clone());
                            picked
                        }
                    };
                    match gang {
                        Some(gang) => {
                            picks.insert(b, gang);
                            true
                        }
                        None => false,
                    }
                });
                self.charge_admission(&mut s.jobs[job]);
                let Some(batch) = chosen else { continue };
                let gang = picks.remove(&batch).expect("chosen batch was probed");
                let needs = self.estimate_at(&s.jobs[job].spec, batch).1;
                let headroom = gang
                    .iter()
                    .map(|&g| s.pool.headroom(g))
                    .min()
                    .expect("gang is non-empty");
                let grant = headroom.min(needs.full);
                let shrunk = grant < needs.full;
                let spec = s.jobs[job].spec.clone();
                let validated = self.validated_replay(&spec, batch, grant, shrunk);
                self.charge_admission(&mut s.jobs[job]);
                match validated {
                    Some(replay) => {
                        let j = &mut s.jobs[job];
                        // The reduced-batch grant was engine-validated,
                        // whatever the arrival-time provenance said:
                        // record the stronger guarantee and skip
                        // mispredict verification.
                        j.admission_source = AdmissionSource::Measured;
                        j.shrunk = shrunk;
                        j.replay = replay;
                        j.cur_batch = batch;
                        j.rebatches += 1;
                        j.reduced_since = Some(now);
                        s.admit(job, &gang, grant, batch, now);
                    }
                    // The failed record restricts this job's future
                    // ladder probes — the queue generation moves so the
                    // next settle retries it.
                    None => {
                        s.jobs[job].record_failed(batch, grant);
                        s.queue_gen += 1;
                    }
                }
            }
        }
        if !settled {
            s.settled_at = Some((s.pool.generation(), s.queue_gen));
        }
        // Serving loop: every resident inference job with an idle engine
        // and a backlog opens a round now. Runs on every settle, *after*
        // the settled snapshot — request arrivals touch neither queue
        // nor pool, so the settled-skip above would otherwise starve
        // them, and any KV reservation made here moves the pool
        // generation so the next settle re-places honestly. Skipped
        // entirely (flag check only) for training-only sessions.
        if s.has_inference {
            let resident: Vec<usize> = s.resident_jobs.iter().copied().collect();
            for job in resident {
                if s.jobs[job].spec.is_inference() {
                    self.try_serve(s, job, now);
                }
            }
        }
        // Nothing placeable: consider evicting a low-priority resident
        // through a host checkpoint. One preemption in flight at a time
        // keeps victim selection honest about headroom. Aging makes the
        // victim choice clock-dependent, so this pass never skips.
        if self.cfg.preemption && s.preempting == 0 {
            if let Some(victim) = pick_preemption(s, now, self.cfg.aging_rate, self.cfg.slo_aware) {
                // The whole gang checkpoints or none: every replica's
                // reservation is copied out.
                s.start_checkpoint(
                    &self.cfg.spec,
                    victim,
                    now,
                    "checkpoint",
                    EventKind::Preempt,
                );
            }
        }
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
        let completed: Vec<&JobRun> = jobs.iter().filter(|j| j.finished_at.is_some()).collect();
        // `samples_done` equals `batch × iters` for every completed job,
        // elastic or not: re-batching preserves the sample count exactly.
        // Summed in integers; the one float conversion happens at the
        // throughput division below so no per-job precision is lost.
        let total_samples: u64 = completed.iter().map(|j| j.samples_done).sum();
        let total_requests: u64 = jobs.iter().map(|j| j.requests_served).sum();
        let total_misses: u64 = jobs.iter().map(|j| j.slo_misses).sum();
        let mean = |durs: Vec<Duration>| -> Duration {
            if durs.is_empty() {
                return Duration::ZERO;
            }
            // u128 accumulation: a u64-nanos sum can overflow on long
            // runs with many samples.
            let total: u128 = durs.iter().map(|d| d.as_nanos() as u128).sum();
            Duration::from_nanos((total / durs.len() as u128) as u64)
        };
        let mean_queueing_delay = mean(
            completed
                .iter()
                .map(|j| {
                    j.admitted_at
                        .expect("completed job was admitted")
                        .saturating_since(j.arrival)
                })
                .collect(),
        );
        let mean_jct = mean(
            completed
                .iter()
                .map(|j| j.finished_at.expect("filtered").saturating_since(j.arrival))
                .collect(),
        );
        let job_stats: Vec<JobStats> = jobs
            .iter()
            .map(|j| {
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
                    rebatches: j.rebatches,
                    elastic_time_at_reduced_batch: j.elastic_reduced_time,
                    samples_preserved: j.samples_done,
                    requests_served: j.requests_served,
                    slo_misses: j.slo_misses,
                    p50_latency: latency_percentile(&j.latencies, 50),
                    p99_latency: latency_percentile(&j.latencies, 99),
                    burst_shrinks: j.burst_shrinks,
                    recompute_time: j.recompute_time,
                    evictions: j.evictions,
                    admission_validations: j.admission_validations,
                    admission_source: j.admission_source.name().to_owned(),
                    predicted_bytes: j.predicted_bytes,
                    prediction_error_permille: j.prediction_error_permille,
                    mispredict_recoveries: j.mispredict_recoveries,
                }
            })
            .collect();
        let count = |outcome| jobs.iter().filter(|j| j.phase.outcome() == outcome).count();
        let makespan_ns = makespan.as_nanos();
        let per_gpu: Vec<GpuStats> = s
            .gpus
            .iter()
            .enumerate()
            .map(|(idx, g)| {
                // The byte-time integral, extended to the makespan end
                // without mutating the ledger (`touch` would).
                let byte_ns = g.byte_ns
                    + g.reserved as u128 * end.saturating_since(g.last_touch).as_nanos() as u128;
                GpuStats {
                    gpu: idx,
                    capacity: g.capacity,
                    peak_reserved_bytes: g.peak,
                    mean_utilization: if makespan_ns == 0 {
                        0.0
                    } else {
                        byte_ns as f64 / (g.capacity as f64 * makespan_ns as f64)
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
            rebatches: jobs.iter().map(|j| j.rebatches as usize).sum(),
            requests_served: total_requests,
            slo_misses: total_misses,
            // Attainment in integer permille; an all-training run (no
            // requests) reports a vacuous 1000.
            slo_attainment_permille: ((total_requests - total_misses) * 1000)
                .checked_div(total_requests)
                .unwrap_or(1000),
            burst_shrinks: jobs.iter().map(|j| j.burst_shrinks).sum(),
            burst_cycles: s.burst_cycles,
            mispredict_recoveries: jobs.iter().map(|j| j.mispredict_recoveries).sum(),
            predictor_hits: s.predictor_hits,
            predictor_misses: s.predictor_misses,
            makespan,
            aggregate_samples_per_sec: if makespan.as_secs_f64() == 0.0 {
                0.0
            } else {
                total_samples as f64 / makespan.as_secs_f64()
            },
            mean_queueing_delay,
            mean_jct,
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

/// Per-iteration feedback step for replayed swap-ins: a stretched
/// host-to-device transfer moves its want `lead_step × service time`
/// earlier on later iterations — the same §4.4 constant the single-GPU
/// policy uses.
fn lead_step() -> f64 {
    capuchin::CapuchinConfig::default().lead_step
}

/// Routes the just-finished iteration's boundary traffic over the shared
/// fabric and returns when it drains (`now` with no fabric, or nothing to
/// move).
///
/// Two charges, in order:
///
/// 1. **Per-tensor swap replay** — the iteration's recorded transfer
///    timeline is re-issued on the host link, each transfer at its
///    recorded in-iteration offset (every replica's bytes coalesced per
///    tensor). Only the *deduplicated queueing charge* accumulates into
///    `comm_delay` ([`capuchin_sim::Lane::admit_charged`]): the validated
///    wall already contains the wire time, paid once on a private lane,
///    and the dedup keeps one busy period from being billed to every
///    waiter — so per-link charges can never exceed the link's wall-clock
///    occupancy, and per-job `comm_delay` is exactly the sum of its
///    transfer records' charges.
///
///    A stretched host-to-device swap replay (a prefetch, or an
///    on-demand swap-in — the ultimate late prefetch) feeds the §4.4
///    loop during guided replay: its accumulated `lead` pulls the want
///    earlier on the next iteration (a 5%-of-service step per late
///    arrival), which is the cluster-level mirror of the engine's
///    in-trigger feedback.
/// 2. **Gradient allreduce** — for gangs, the ring allreduce
///    (`2·(k−1)/k × gradient bytes` per replica) runs after the swap
///    traffic clears. Validation is single-GPU so no part of this is in
///    the wall: the full span is charged at the barrier.
fn settle_comm(
    j: &mut JobRun,
    now: Time,
    fabric: Option<&mut Interconnect>,
    sink: &mut Vec<ClusterTransfer>,
) -> Time {
    let Some(fabric) = fabric else {
        return now;
    };
    let k = j.gpus_held.len().max(1);
    let iter = j.iters_done;
    let mut charged = Duration::ZERO;
    if let Some(it) = j.replay.get(j.replay_idx()) {
        // Replay the recorded timeline inside the just-finished
        // iteration's span: offsets are relative to the (uncontended)
        // iteration start, and contention only stretches the span, so
        // every want lands at or before `now`. Wants are kept monotonic —
        // the lane is FIFO and the records are in submission order.
        let mut prev_want = j.iter_started;
        for rec in &it.transfers {
            let lead = j.lead.get(&rec.label).copied().unwrap_or(Duration::ZERO);
            let want = (j.iter_started + rec.offset.saturating_sub(lead)).max(prev_want);
            prev_want = want;
            let bytes = rec.bytes * k as u64;
            let (tr, charge) = fabric.host_admit(want, bytes);
            charged += charge;
            let wait = tr.start.saturating_since(want);
            if wait > Duration::ZERO && rec.dir == CopyDir::HostToDevice {
                // A stretched swap-in — whether the engine had already
                // converted it to a prefetch or it was still on-demand —
                // means the bytes arrived late; pull its in-trigger
                // earlier next iteration (§4.4 feedback).
                let step = tr.end.saturating_since(tr.start).mul_f64(lead_step());
                *j.lead.entry(rec.label.clone()).or_insert(Duration::ZERO) += step;
            }
            sink.push(ClusterTransfer {
                job: j.spec.name.clone(),
                iter,
                label: rec.label.clone(),
                link: "host".to_owned(),
                dir: rec.dir,
                bytes,
                want,
                start: tr.start,
                end: tr.end,
                wait,
                charge,
                lead,
            });
        }
        j.comm_delay += charged;
    }
    let mut comm_end = now + charged;
    if k >= 2 && j.grad_bytes > 0 {
        let route = fabric.allreduce_route(&j.gpus_held);
        let ar = fabric.allreduce(comm_end, &j.gpus_held, j.grad_bytes);
        let per_replica = fabric.spec().allreduce_bytes(j.grad_bytes, k);
        let bytes = if route == "host" {
            per_replica * k as u64
        } else {
            per_replica
        };
        sink.push(ClusterTransfer {
            job: j.spec.name.clone(),
            iter,
            label: "allreduce".to_owned(),
            link: route,
            dir: CopyDir::DeviceToHost,
            bytes,
            want: comm_end,
            start: ar.start,
            end: ar.end,
            wait: ar.start.saturating_since(comm_end),
            charge: Duration::ZERO,
            lead: Duration::ZERO,
        });
        j.allreduce_time += ar.end.saturating_since(comm_end);
        comm_end = ar.end;
    }
    comm_end
}

impl Cluster {
    /// Measured truth for mispredict verification, memoized per `(model,
    /// replica batch, forward-only)`: one unconstrained measuring run
    /// plus planner math ([`min_feasible_budget`]) — **zero validation
    /// engine runs**, so checking predictions never erodes the warm-key
    /// guarantee.
    fn verify_truth(&mut self, spec: &JobSpec) -> VerifiedTruth {
        let rb = spec.replica_batch();
        let forward = spec.is_inference();
        let key = (spec.model, rb, forward);
        if let Some(&t) = self.truths.get(&key) {
            return t;
        }
        let model = self
            .models
            .entry((spec.model, rb))
            .or_insert_with(|| spec.model.build(rb));
        let est = if forward {
            measure_forward_footprint(&model.graph, &self.cfg.spec)
        } else {
            measure_footprint(&model.graph, &self.cfg.spec)
        }
        .expect("unconstrained measuring run cannot OOM");
        let t = VerifiedTruth {
            ideal_peak: est.ideal_peak,
            min_plan: min_feasible_budget(&est, &self.admission.planner),
        };
        self.truths.insert(key, t);
        t
    }

    /// Checks a predicted admission against measured truth at the job's
    /// first completed iteration (or serving round) boundary — the
    /// bottom rung of the fallback ladder. A prediction that *held*
    /// (the grant clears what the truth actually requires) just records
    /// its error score. An under-shoot triggers checkpoint-preemption
    /// recovery: the boundary iteration is discarded as wasted work, the
    /// state is copied to the host, and [`EventKind::Remeasure`] re-enters
    /// admission on the measured path. Returns whether a recovery is now
    /// in flight (the caller must return without banking progress).
    fn verify_prediction(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        if !self.cfg.predictive
            || s.jobs[job].mispredict_checked
            || !matches!(
                s.jobs[job].admission_source,
                AdmissionSource::Predicted { .. }
            )
        {
            return false;
        }
        s.jobs[job].mispredict_checked = true;
        let spec = s.jobs[job].spec.clone();
        let truth = self.verify_truth(&spec);
        let true_full = crate::admission::with_slack(truth.ideal_peak);
        // Score the regression itself (pre-margin) — the safety padding
        // is the knob, not the model.
        if true_full > 0 {
            let diff = s.jobs[job].predicted_raw_full.abs_diff(true_full) as u128;
            s.jobs[job].prediction_error_permille = ((diff * 1000) / true_full as u128) as u64;
        }
        // What the grant actually had to clear: TfOri runs unmanaged at
        // the slack-padded peak; Capuchin only needs the smallest
        // planner-feasible budget.
        let required = match self.admission.mode {
            AdmissionMode::TfOri => true_full,
            AdmissionMode::Capuchin => truth.min_plan.min(true_full),
        };
        // A serving round's KV slots ride on top of the forward base the
        // truth describes; compare the base slice of the reservation.
        let kv_held = if spec.is_inference() {
            spec.kv_bytes_per_request
                .saturating_mul(s.jobs[job].inflight.len() as u64)
        } else {
            0
        };
        if s.jobs[job].reserved.saturating_sub(kv_held) >= required {
            return false;
        }
        // Under-shoot: no feasible plan fits the grant. Recover.
        s.jobs[job].mispredict_recoveries += 1;
        if spec.is_inference() {
            // Give the round's requests back to the queue in arrival
            // order and return their KV slots before checkpointing.
            let j = &mut s.jobs[job];
            let kv = (spec.kv_bytes_per_request).saturating_mul(j.inflight.len() as u64);
            while let Some(t0) = j.inflight.pop() {
                j.req_queue.push_front(t0);
            }
            if kv > 0 {
                s.resize(job, s.jobs[job].reserved - kv, now);
            }
        }
        s.jobs[job].close_reduced(now);
        let label = "mispredict-checkpoint";
        s.start_checkpoint(&self.cfg.spec, job, now, label, EventKind::Remeasure);
        true
    }

    /// Feeds a completed measured admission's shape into the regression
    /// store. Only measured-provenance completions qualify — predicted
    /// admissions would re-feed the predictor its own output, and
    /// heuristic budgets were never validated. The cached estimate entry
    /// is the ground truth being recorded, so a missing entry (possible
    /// after an elastic job finished at a reduced batch) just skips.
    fn feed_predictor(&mut self, s: &Session, job: usize) {
        if !self.cfg.predictive {
            return;
        }
        let j = &s.jobs[job];
        let spec = &j.spec;
        if !spec.policy.descriptor().predictable
            || !matches!(j.admission_source, AdmissionSource::Measured)
        {
            return;
        }
        let rb = spec.replica_batch();
        let heuristic = false;
        let key = (spec.model, rb, heuristic);
        let cache = if spec.is_inference() {
            &self.forward_estimates
        } else {
            &self.estimates
        };
        let Some(&(est, needs)) = cache.get(&key) else {
            return;
        };
        self.predictor.observe(
            key_of(spec),
            FootprintSample {
                replica_batch: rb as u64,
                full: needs.full,
                min: needs.min,
                ideal_peak: est.ideal_peak,
                weight_bytes: est.weight_bytes,
                iter_wall: est.iter_wall,
            },
        );
    }

    /// Marks the in-flight iteration complete (compute and boundary
    /// communication both drained): advances the samples cursor by the
    /// current batch (clamped — the final iteration carries a partial
    /// batch), finishing the job — releasing every replica's
    /// reservation — or re-growing an elastically reduced batch, or
    /// scheduling the next iteration.
    fn complete_iteration(&mut self, s: &mut Session, job: usize, now: Time) {
        if s.jobs[job].spec.is_inference() {
            // A serving round ended; its requests complete together.
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
        // A burst-absorption shrink decided by the serving loop applies
        // at this boundary, ahead of any re-grow attempt.
        if self.cfg.elastic && s.jobs[job].pending_shrink.is_some() && self.try_shrink(s, job, now)
        {
            return;
        }
        // A reduced elastic job checks for freed headroom at every
        // completed-iteration boundary — the only instants a batch change
        // is sound (the engine snapshot cursor is at a boundary).
        if self.cfg.elastic
            && s.jobs[job].spec.elastic
            && s.jobs[job].cur_batch < s.jobs[job].spec.batch.max(1)
            && self.try_regrow(s, job, now)
        {
            return;
        }
        s.start_iter(job, now);
    }

    /// Tries to grow `job`'s batch back toward the requested size using
    /// headroom on the GPUs it already holds (growth happens in place —
    /// the gang keeps its devices). Bisects the ladder candidates above
    /// the current batch and hands the winner to [`Cluster::rebatch`].
    /// Returns whether a re-grow is now in flight (the caller must not
    /// schedule the next iteration).
    fn try_regrow(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let cur = s.jobs[job].cur_batch;
        let above: Vec<usize> =
            elastic_batches(s.jobs[job].spec.batch, self.cfg.min_batch_fraction)
                .into_iter()
                .filter(|&b| b > cur)
                .collect();
        if above.is_empty() {
            return false;
        }
        // Headroom on each held device with this job's own reservation
        // returned; the gang's tightest member caps the grant.
        let old = s.jobs[job].reserved;
        let free = s.jobs[job]
            .gpus_held
            .iter()
            .map(|&g| s.gpus[g].capacity.saturating_sub(s.gpus[g].reserved) + old)
            .min()
            .expect("resident job holds its gang");
        let jobs = &s.jobs;
        let chosen = bisect_batch(&above, |b| {
            let needs = self.estimate_at(&jobs[job].spec, b).1;
            free >= needs.min
                && jobs[job]
                    .failed
                    .get(&b)
                    .is_none_or(|&fb| free.min(needs.full) > fb)
        });
        self.charge_admission(&mut s.jobs[job]);
        let Some(batch) = chosen else { return false };
        let needs = self.estimate_at(&s.jobs[job].spec, batch).1;
        let labels = ["regrow-checkpoint", "regrow-restore"];
        self.rebatch(s, job, now, batch, free.min(needs.full), needs.full, labels)
    }

    /// The shared tail of an elastic batch change (a re-grow or a burst
    /// shrink) to `batch` at a `grant` reservation below a `full` need:
    /// validate the new replay — a failure is recorded and the job keeps
    /// its batch — then upgrade a predicted provenance to the stronger
    /// measured guarantee, charge the batch change like a preemption
    /// round-trip (device-to-host of the old reservation, then
    /// host-to-device of the new, on every replica — re-planning at a new
    /// batch goes through the same snapshot/restore path preemption uses,
    /// [`capuchin_executor::Engine::restore_rebatched`]), and claim the
    /// new reservation immediately: no placement decided during the copy
    /// window can over-commit a grown batch, and a shrink's freed bytes
    /// are claimable by the blocked burst in this very settle pass. The
    /// new replay takes effect at [`EventKind::Regrow`]. Returns whether
    /// the change is in flight.
    #[allow(clippy::too_many_arguments)]
    fn rebatch(
        &mut self,
        s: &mut Session,
        job: usize,
        now: Time,
        batch: usize,
        grant: u64,
        full: u64,
        labels: [&str; 2],
    ) -> bool {
        let shrunk = grant < full;
        let spec = s.jobs[job].spec.clone();
        let validated = self.validated_replay(&spec, batch, grant, shrunk);
        self.charge_admission(&mut s.jobs[job]);
        let Some(replay) = validated else {
            s.jobs[job].record_failed(batch, grant);
            return false;
        };
        s.jobs[job].admission_source = AdmissionSource::Measured;
        let dev = &self.cfg.spec;
        let old = s.jobs[job].reserved;
        let out = s.host_copy(dev, job, now, old, CopyDir::DeviceToHost, labels[0]);
        let end = s.host_copy(dev, job, out, grant, CopyDir::HostToDevice, labels[1]);
        s.resize(job, grant, now);
        let j = &mut s.jobs[job];
        j.checkpoint_overhead += end.saturating_since(now);
        j.rebatches += 1;
        j.phase = Phase::Regrowing(Regrow {
            batch,
            shrunk,
            replay,
        });
        j.epoch += 1;
        s.heap.push(end, EventKind::Regrow, job, j.epoch);
        true
    }

    /// Schedules `job`'s next request arrival, until `spec.requests`
    /// have been generated. Inter-arrival gaps are exponential around
    /// `1 / request_rate`, drawn from the job's own deterministic
    /// generator — the arrival process is a property of the workload,
    /// never of scheduling decisions, so request events carry epoch 0
    /// and ignore epoch bumps entirely.
    fn schedule_next_request(&mut self, s: &mut Session, job: usize, now: Time) {
        let j = &mut s.jobs[job];
        if j.req_scheduled >= j.spec.requests {
            return;
        }
        j.req_scheduled += 1;
        // Clamp the unit draw away from 0 so the log stays finite; the
        // rate was validated positive at parse time (code-built specs
        // defensively floor it here too).
        let u = j.req_rng.unit_f64().max(1e-12);
        let rate = j.spec.request_rate.max(1e-9);
        let gap = Duration::from_secs_f64(-u.ln() / rate);
        s.heap.push(now + gap, EventKind::Request, job, 0);
    }

    /// Opens a serving round for a resident, idle inference job: up to
    /// `max_inflight` requests move from the queue into the round, each
    /// reserving its KV state on every held replica for the round's
    /// duration. Live headroom gates every slot — the admission-time
    /// license ([`JobRun::lic_inflight`]) priced the grant, but memory
    /// freed since (completions, elastic shrinks) raises the achievable
    /// concurrency without re-admission. A KV-blocked backlog asks an
    /// elastic training neighbour to shrink ([`Cluster::absorb_burst`]).
    fn try_serve(&mut self, s: &mut Session, job: usize, now: Time) {
        {
            let j = &s.jobs[job];
            if !j.spec.is_inference()
                || !matches!(j.phase, Phase::Barrier)
                || !j.inflight.is_empty()
                || j.req_queue.is_empty()
            {
                return;
            }
        }
        let kv = s.jobs[job].spec.kv_bytes_per_request;
        let lic = s.jobs[job].spec.max_inflight.max(1);
        let mut admitted = 0usize;
        while admitted < lic && !s.jobs[job].req_queue.is_empty() {
            if kv > 0 {
                // Every replica mirrors the KV state, so the tightest
                // held device gates each admission individually — the
                // round never over-commits by a single request.
                let held = &s.jobs[job].gpus_held;
                if !held.iter().all(|&g| s.pool.headroom(g) >= kv) {
                    break;
                }
                s.resize(job, s.jobs[job].reserved + kv, now);
            }
            let j = &mut s.jobs[job];
            let t0 = j
                .req_queue
                .pop_front()
                .expect("loop condition checked non-empty");
            j.inflight.push(t0);
            admitted += 1;
        }
        if admitted > 0 && !s.start_iter(job, now) {
            return;
        }
        if admitted < lic && !s.jobs[job].req_queue.is_empty() {
            self.absorb_burst(s, job);
        }
    }

    /// Marks an inference serving round complete: every in-flight
    /// request is served at this instant — its latency recorded in
    /// integer nanoseconds and judged against the SLO — and its KV
    /// reservation released. The job then either completes (all
    /// requests served) or immediately opens the next round over the
    /// queued backlog.
    fn complete_round(&mut self, s: &mut Session, job: usize, now: Time) {
        // Same first-boundary check as training: an under-shot predicted
        // grant requeues the round's requests and re-enters admission on
        // the measured path before anything is banked.
        if self.verify_prediction(s, job, now) {
            return;
        }
        let j = &mut s.jobs[job];
        j.bank_iteration();
        let served = std::mem::take(&mut j.inflight);
        let n = served.len() as u64;
        j.requests_served += n;
        // One "sample" per request keeps the existing progress and
        // throughput accounting meaningful for serving jobs.
        j.samples_done = j.requests_served;
        let (iter, samples_done) = (j.iters_done, j.samples_done);
        let slo_ns = j.slo_ns;
        s.emit(job, now, JobEventKind::IterationDone { iter, samples_done });
        for &t0 in &served {
            let lat = now.saturating_since(t0);
            s.jobs[job].latencies.push(lat.as_nanos());
            s.emit(job, now, JobEventKind::RequestServed { latency: lat });
            if slo_ns > 0 && lat.as_nanos() > slo_ns {
                s.jobs[job].slo_misses += 1;
                s.emit(job, now, JobEventKind::SloMissed { latency: lat });
            }
        }
        // The round's KV state drains with it.
        let kv = s.jobs[job].spec.kv_bytes_per_request.saturating_mul(n);
        if kv > 0 {
            s.resize(job, s.jobs[job].reserved - kv, now);
        }
        if s.jobs[job].requests_served >= s.jobs[job].spec.requests {
            s.finish(job, now, JobOutcome::Completed);
            self.feed_predictor(s, job);
            return;
        }
        // Backlog waiting: the next round opens in the same instant.
        self.try_serve(s, job, now);
    }

    /// Finds an elastic training neighbour to shrink one ladder rung so
    /// `job`'s KV-blocked backlog can be served. The victim must hold
    /// *every* deficient device (a gang re-batches whole), have a rung
    /// left below its current batch, and no batch change already in
    /// flight; the lowest-priority such resident is asked. The shrink
    /// itself is deferred to the victim's next completed-iteration
    /// boundary — the only instant a batch change is sound.
    fn absorb_burst(&mut self, s: &mut Session, job: usize) {
        if !self.cfg.elastic {
            return;
        }
        let kv = s.jobs[job].spec.kv_bytes_per_request;
        if kv == 0 {
            return;
        }
        let deficient: Vec<usize> = s.jobs[job]
            .gpus_held
            .iter()
            .copied()
            .filter(|&g| s.pool.headroom(g) < kv)
            .collect();
        if deficient.is_empty() {
            return;
        }
        let candidates: Vec<usize> = {
            let jobs = &s.jobs;
            let mut v: Vec<usize> = s
                .resident_jobs
                .iter()
                .copied()
                .filter(|&v| {
                    let t = &jobs[v];
                    t.spec.class == JobClass::Training
                        && t.spec.elastic
                        && !matches!(t.phase, Phase::Checkpointing | Phase::Regrowing(_))
                        && t.pending_shrink.is_none()
                        && deficient.iter().all(|d| t.gpus_held.contains(d))
                })
                .collect();
            v.sort_by_key(|&c| (jobs[c].spec.priority, c));
            v
        };
        for v in candidates {
            let ladder = elastic_batches(s.jobs[v].spec.batch, self.cfg.min_batch_fraction);
            let cur = s.jobs[v].cur_batch;
            // The ladder is descending: the first rung under the current
            // batch is the smallest shrink that frees any memory.
            if let Some(target) = ladder.into_iter().find(|&b| b < cur) {
                s.jobs[v].pending_shrink = Some(target);
                return;
            }
        }
    }

    /// Applies a pending burst-absorption shrink at `job`'s completed-
    /// iteration boundary: re-validates at the reduced batch, releases
    /// the freed bytes immediately (the burst claims them during the
    /// copy window), and charges the same checkpoint/restore round-trip
    /// a re-grow pays. Returns whether a batch change is now in flight
    /// (the caller must not schedule the next iteration).
    fn try_shrink(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let Some(target) = s.jobs[job].pending_shrink.take() else {
            return false;
        };
        if target >= s.jobs[job].cur_batch {
            return false;
        }
        let needs = self.estimate_at(&s.jobs[job].spec, target).1;
        self.charge_admission(&mut s.jobs[job]);
        let old = s.jobs[job].reserved;
        let grant = old.min(needs.full);
        if grant < needs.min {
            return false;
        }
        let labels = ["shrink-checkpoint", "shrink-restore"];
        if !self.rebatch(s, job, now, target, grant, needs.full, labels) {
            return false;
        }
        let j = &mut s.jobs[job];
        j.burst_shrinks += 1;
        j.shrunk_for_burst = true;
        true
    }
}

/// Nearest-rank percentile over integer-nanosecond latency samples —
/// `sorted[(len − 1) × p / 100]`. All accumulation stays in u64 space;
/// the one Duration conversion happens here, at stats assembly.
fn latency_percentile(ns: &[u64], p: u64) -> Duration {
    if ns.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as u64 * p / 100) as usize;
    Duration::from_nanos(sorted[idx])
}

/// The contention factor a job experiences: the maximum resident count
/// over the GPUs its gang holds. The lockstep barrier waits for the
/// slowest replica, so the most crowded device paces the whole gang.
fn contention_factor(jobs: &[JobRun], gpus: &[GpuState], job: usize) -> f64 {
    jobs[job]
        .gpus_held
        .iter()
        .map(|&g| gpus[g].resident.len())
        .max()
        .unwrap_or(1)
        .max(1) as f64
}

/// Selects a preemption victim, or `None` when preemption cannot help.
///
/// For each *fresh* waiting job (checkpointed jobs queue for natural
/// space — letting them preempt would ping-pong), in descending effective
/// priority (`priority + aging_rate × wait`): if its gang fits nowhere
/// as-is, look for the lowest-static-priority iterating resident whose
/// eviction would open enough headroom for the waiter's full gang width,
/// with the victim's priority strictly below the waiter's effective
/// priority. A victim gang is evicted whole — releasing its reservation
/// on *every* device it holds — or not at all.
fn pick_preemption(s: &Session, now: Time, aging_rate: f64, slo_aware: bool) -> Option<usize> {
    let jobs = &s.jobs;
    let ap = aging_permille(aging_rate);
    let eff = |priority: u32, since: Time| {
        effective_priority_permille(priority, ap, now.saturating_since(since))
    };
    // A waiter's urgency includes its SLO boost: a latency job with
    // requests burning slack can evict where its static priority alone
    // could not. 0 for training waiters and under SLO-blind scheduling.
    let eff_of = |p: usize| {
        eff(jobs[p].spec.priority, jobs[p].queued_at) + jobs[p].slo_boost(now, slo_aware) as u128
    };
    // Would evicting `victim` open enough devices for waiter `jp`'s full
    // gang? The fit predicate is monotone in headroom (a per-waiter
    // threshold, see [`CandidateJob::fit_threshold`]), so the base count
    // is one index probe; the victim's held devices — the only ones whose
    // headroom the eviction changes, disjoint from the base count since
    // they sit below the threshold — are then credited individually.
    let gang_fits = |jp: &JobRun, victim: Option<usize>| {
        let cand = jp.candidate(0);
        let Some(t) = cand.fit_threshold() else {
            // A failed budget at or above the full need: no headroom,
            // freed or not, can ever satisfy this waiter.
            return false;
        };
        let width = jp.width();
        let base = s.pool.count_at_least(t, width);
        if base >= width {
            return true;
        }
        let Some(v) = victim else { return false };
        let vres = jobs[v].reserved;
        let credited = jobs[v]
            .gpus_held
            .iter()
            .filter(|&&g| {
                let h = s.pool.headroom(g);
                h < t && h + vres >= t
            })
            .count();
        base + credited >= width
    };
    let mut waiters: Vec<usize> = s
        .pending
        .values()
        .copied()
        .filter(|&p| !matches!(jobs[p].phase, Phase::Preempted { .. }))
        .collect();
    waiters.sort_by_cached_key(|&a| {
        (
            Reverse(eff_of(a)),
            Reverse(jobs[a].spec.priority),
            jobs[a].queued_at.as_nanos(),
            a,
        )
    });
    for &p in &waiters {
        let jp = &jobs[p];
        let ep = eff_of(p);
        if gang_fits(jp, None) {
            // Placeable without violence; the strategy just chose not to
            // (e.g. FIFO head-of-line). Preemption is not the tool.
            continue;
        }
        // Inference residents are never victims: checkpoint-preempting a
        // serving job mid-request would strand its in-flight latencies
        // behind a host round-trip the SLO never priced.
        let mut victims: Vec<usize> = s
            .resident_jobs
            .iter()
            .copied()
            .filter(|&v| jobs[v].spec.class == JobClass::Training)
            .filter(|&v| matches!(jobs[v].phase, Phase::Running))
            .filter(|&v| (jobs[v].spec.priority as u128) * 1000 < ep)
            .collect();
        victims.sort_by_key(|&v| (jobs[v].spec.priority, v));
        for &v in &victims {
            if gang_fits(jp, Some(v)) {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{synthetic_jobs, JobPolicy};

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
        let mut gpus = vec![GpuState::new(1 << 30)];
        gpus[0].resident.push(0);
        let mut s = Session {
            jobs,
            gpus,
            ..Session::default()
        };
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
        let mut jobs = vec![JobRun::new(&small_workload()[0], 0)];
        jobs[0].gpus_held = vec![0];
        let mut s = Session {
            jobs,
            gpus: vec![GpuState::new(1 << 30)],
            ..Session::default()
        };
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
                .aging_rate(-0.5)
                .build()
                .unwrap_err(),
            ConfigError::BadAgingRate(-0.5)
        );
        assert!(matches!(
            ClusterConfig::builder()
                .aging_rate(f64::NAN)
                .build()
                .unwrap_err(),
            ConfigError::BadAgingRate(_)
        ));
        assert_eq!(
            ClusterConfig::builder()
                .validate_iters(1)
                .build()
                .unwrap_err(),
            ConfigError::TooFewValidateIters(1)
        );
        assert_eq!(
            ClusterConfig::builder()
                .min_batch_fraction(0.0)
                .build()
                .unwrap_err(),
            ConfigError::BadBatchFraction(0.0)
        );
        assert_eq!(
            ClusterConfig::builder()
                .min_batch_fraction(1.5)
                .build()
                .unwrap_err(),
            ConfigError::BadBatchFraction(1.5)
        );
        assert_eq!(
            ClusterConfig::builder()
                .safety_margin_permille(999)
                .build()
                .unwrap_err(),
            ConfigError::BadSafetyMargin(999)
        );
        assert_eq!(
            ClusterConfig::builder()
                .safety_margin_permille(10001)
                .build()
                .unwrap_err(),
            ConfigError::BadSafetyMargin(10001)
        );
        assert_eq!(
            ClusterConfig::builder().min_samples(0).build().unwrap_err(),
            ConfigError::BadMinSamples(0)
        );
        let msg = ConfigError::TooFewValidateIters(1).to_string();
        assert!(msg.contains("at least 2 iterations"), "{msg}");
        let msg = ConfigError::BadSafetyMargin(999).to_string();
        assert!(msg.contains("never shaved"), "{msg}");
        assert!(ClusterConfig::builder()
            .min_batch_fraction(1.0)
            .build()
            .is_ok());
        assert!(ClusterConfig::builder()
            .predictive(true)
            .safety_margin_permille(1000)
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
                .safety_margin_permille(2000)
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
