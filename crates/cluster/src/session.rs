//! The state of one simulation run: per-job records, per-GPU ledgers, the
//! event heap and the waiting queue, plus the mechanics every job class
//! shares — granting and releasing gangs, host copies, checkpoints,
//! iteration scheduling, re-pricing and boundary communication.
//!
//! A job's class-specific state lives beside its common record as an
//! `Option` that exists only for that class: [`Serving`] for inference,
//! [`ElasticState`] for elastic training, [`Prediction`] for predicted
//! admissions. DESIGN.md §8 tabulates when each is created.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::{Arc, LazyLock};

use capuchin_sim::{CopyDir, DeviceSpec, Duration, Interconnect, Time};

use crate::admission::{AdmissionSource, EstimateSummary, JobNeeds, ReplayIter};
use crate::config::ClusterConfig;
use crate::elastic::{ElasticState, Regrow};
use crate::headroom::GpuPool;
use crate::inference::Serving;
use crate::job::JobSpec;
use crate::predicted::Prediction;
use crate::stats::{ClusterTransfer, JobEvent, JobEventKind, JobOutcome, JobState};
use crate::strategy::{CandidateJob, SettleCounters};

/// Where a job is in its lifecycle. Each variant is one legal state;
/// DESIGN.md §8 tabulates the public [`JobState`]/[`JobOutcome`] each
/// maps to and the events legal in each.
#[derive(Debug, Default)]
pub(crate) enum Phase {
    /// Submitted and waiting for its arrival to process, or waiting for
    /// placement.
    #[default]
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
    pub(crate) fn outcome(&self) -> JobOutcome {
        match self {
            Phase::Done(outcome) => *outcome,
            Phase::Checkpointing | Phase::Preempted { .. } => JobOutcome::Preempted,
            _ => JobOutcome::Starved,
        }
    }
}

/// Per-job simulation state: the fields every job class uses, plus one
/// optional record per class-specific concern.
#[derive(Debug, Default)]
pub(crate) struct JobRun {
    pub(crate) spec: JobSpec,
    pub(crate) arrival: Time,
    /// When the job (re-)entered the waiting queue: arrival for fresh
    /// jobs, checkpoint completion for preempted ones. Priority aging and
    /// FIFO order run from here, so a preempted job does not return with
    /// an inflated age and immediately reclaim its slot.
    pub(crate) queued_at: Time,
    pub(crate) needs: JobNeeds,
    pub(crate) footprint: u64,
    /// Bytes each replica allreduces at a gang barrier: the model's
    /// weight bytes for training, 0 for forward-only serving (no
    /// backward pass, no gradients).
    pub(crate) grad_bytes: u64,
    /// Largest budget a validation run failed at, keyed by the global
    /// batch it was attempted at (elastic jobs validate at several
    /// batches); never retried at or below the recorded budget.
    pub(crate) failed: BTreeMap<usize, u64>,
    pub(crate) phase: Phase,
    /// GPUs currently held — the whole gang, in placement order. Kept
    /// after completion for stats; cleared on preemption and abort.
    /// Always empty or exactly `spec.gpus` long: grants are atomic.
    pub(crate) gpus_held: Vec<usize>,
    /// Per-replica reservation (same bytes on every held GPU).
    pub(crate) reserved: u64,
    pub(crate) shrunk: bool,
    pub(crate) admitted_at: Option<Time>,
    /// Completion instant (the phase says whether the job is done).
    pub(crate) finished_at: Option<Time>,
    pub(crate) replay: Arc<Vec<ReplayIter>>,
    pub(crate) iters_done: u64,
    /// Key of this job's entry in [`Session::pending`] while queued.
    pub(crate) queue_key: Option<u64>,
    /// Global batch currently in effect: `spec.batch` unless elastic
    /// re-batching reduced it (and has not yet grown it back).
    pub(crate) cur_batch: usize,
    /// Units of work the job must finish: `spec.batch × spec.iters`
    /// samples for training (elastic batch changes never alter this —
    /// only how many iterations it takes), `spec.requests` for serving.
    pub(crate) samples_total: u64,
    /// Units finished so far (each completed iteration advances by
    /// `cur_batch`, clamped so the final iteration carries a partial
    /// batch when the ladder does not divide evenly; one per served
    /// request).
    pub(crate) samples_done: u64,
    /// Bumped whenever scheduled events for this job become stale
    /// (re-pricing, preemption, abort); events carry the epoch they were
    /// scheduled under and are skipped on mismatch.
    pub(crate) epoch: u64,
    /// Base (1×) wall of the in-flight iteration.
    pub(crate) iter_wall: Duration,
    /// Contention factor in effect since `iter_priced_at`.
    pub(crate) iter_k: f64,
    /// When the in-flight iteration started (for wasted-work accounting).
    pub(crate) iter_started: Time,
    /// Last re-pricing instant.
    pub(crate) iter_priced_at: Time,
    /// Fraction of the base wall completed as of `iter_priced_at`.
    pub(crate) iter_progress: f64,
    pub(crate) preemptions: u64,
    pub(crate) wasted_work: Duration,
    pub(crate) resume_latency: Duration,
    /// Total checkpoint + restore copy time charged to the job.
    pub(crate) checkpoint_overhead: Duration,
    /// Total allreduce time charged at gang barriers.
    pub(crate) allreduce_time: Duration,
    /// Queueing delay behind other jobs' traffic on the shared fabric.
    pub(crate) comm_delay: Duration,
    /// Per-label feedback lead for replayed prefetches (paper §4.4 during
    /// guided replay): a prefetch that came back stretched on the shared
    /// fabric wants the lane `lead` earlier on later iterations. Keyed by
    /// the admission cache's interned label id.
    pub(crate) lead: HashMap<u32, Duration>,
    /// The spec name shared by this job's transfer records, made at its
    /// first record ([`JobRun::shared_name`]).
    pub(crate) shared_name: Option<Arc<str>>,
    /// Kernel time spent regenerating released tensors, summed over the
    /// replay iterations consumed (integer nanoseconds inside
    /// [`Duration`]; floats only appear at serialization).
    pub(crate) recompute_time: Duration,
    /// Reactive evictions summed over the replay iterations consumed.
    pub(crate) evictions: u64,
    /// Validation engine runs this job triggered at admission (cache
    /// hits charge nothing; heuristic-class policies stay at zero by
    /// construction).
    pub(crate) admission_validations: u64,
    /// Where this job's current admission budgets came from; `None`
    /// until its arrival derives them. Flips back to `Measured` when a
    /// mispredict recovery re-admits the job, or when an elastic batch
    /// change re-derives (and engine-validates) budgets.
    pub(crate) admission_source: Option<AdmissionSource>,
    /// Inference serving state; `Some` exactly for inference jobs.
    pub(crate) serving: Option<Serving>,
    /// Elastic re-batching state; `Some` for elastic training jobs on a
    /// cluster with elastic re-batching on.
    pub(crate) elastic: Option<ElasticState>,
    /// Predicted-admission record; `Some` once the job was admitted on a
    /// warm predictor key, kept after a recovery for the stats.
    pub(crate) prediction: Option<Prediction>,
}

impl JobRun {
    pub(crate) fn new(spec: &JobSpec, id: usize) -> JobRun {
        let arrival = Time::ZERO + Duration::from_secs_f64(spec.arrival_time.max(0.0));
        let serving = spec.is_inference().then(|| Serving::new(spec, id));
        let samples_total = if serving.is_some() {
            spec.requests
        } else {
            (spec.batch.max(1) as u64).saturating_mul(spec.iters)
        };
        JobRun {
            spec: spec.clone(),
            arrival,
            queued_at: arrival,
            cur_batch: spec.batch.max(1),
            samples_total,
            serving,
            ..JobRun::default()
        }
    }

    /// The job's name as its transfer records share it: one allocation
    /// per job, made at its first record so fabric-free runs never pay.
    pub(crate) fn shared_name(&mut self) -> Arc<str> {
        let spec = &self.spec;
        Arc::clone(
            self.shared_name
                .get_or_insert_with(|| Arc::from(spec.name.as_str())),
        )
    }

    /// Stats/wire name of the admission source; a job whose arrival has
    /// not been processed yet reports `measured`.
    pub(crate) fn source_name(&self) -> &'static str {
        self.admission_source
            .unwrap_or(AdmissionSource::Measured)
            .name()
    }

    /// The gang width (defensively at least 1).
    pub(crate) fn width(&self) -> usize {
        self.spec.gpus.max(1)
    }

    /// The placement view of this waiting job. A checkpointed job asks
    /// for exactly its validated reservation back — no re-validation, no
    /// shrink search.
    pub(crate) fn candidate(&self, idx: usize) -> CandidateJob {
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

    /// [`JobRun::candidate`] with its SLO boost stamped at `now`: 0 for
    /// everything but a serving job under SLO-aware scheduling
    /// ([`Serving::slo_boost`]). The boost is read at pick time, not
    /// baked into the queue: it grows as pending requests age without
    /// re-keying anything.
    pub(crate) fn stamped(&self, idx: usize, now: Time, slo_aware: bool) -> CandidateJob {
        let boost = match &self.serving {
            Some(sv) if slo_aware => sv.slo_boost(now),
            _ => 0,
        };
        CandidateJob {
            boost_permille: boost,
            ..self.candidate(idx)
        }
    }

    /// The live [`JobState`]: the terminal and checkpointed states come
    /// from [`Phase::outcome`]; a live job is `Running` while it holds
    /// its gang and `Queued` otherwise.
    pub(crate) fn state(&self) -> JobState {
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
    /// prediction). A serving job prices its KV state on top of the
    /// forward-only base ([`Serving::price`]) and allreduces nothing.
    pub(crate) fn set_needs(&mut self, est: &EstimateSummary, base: JobNeeds) {
        self.footprint = est.ideal_peak;
        match &mut self.serving {
            Some(sv) => {
                self.needs = sv.price(&self.spec, base);
                self.grad_bytes = 0;
            }
            None => {
                self.needs = base;
                self.grad_bytes = est.weight_bytes;
            }
        }
    }

    /// Never retries a validation at or below `grant` for `batch`.
    pub(crate) fn record_failed(&mut self, batch: usize, grant: u64) {
        let e = self.failed.entry(batch).or_insert(grant);
        *e = (*e).max(grant);
    }

    /// Closes the reduced-batch window, if one is open.
    pub(crate) fn close_reduced(&mut self, now: Time) {
        if let Some(e) = &mut self.elastic {
            e.close_reduced(now);
        }
    }

    /// Banks the consumed replay iteration's memory-management costs and
    /// advances the iteration cursor (the same replay index
    /// [`Session::schedule_iter`] read when the iteration started).
    pub(crate) fn bank_iteration(&mut self) {
        if let Some(it) = self.replay.get(self.replay_idx()) {
            self.recompute_time += it.recompute_time;
            self.evictions += it.evictions;
        }
        self.iters_done += 1;
    }

    /// The replay index of the current iteration: the validation run's
    /// final (steady-state) iteration repeats past its length.
    pub(crate) fn replay_idx(&self) -> usize {
        (self.iters_done as usize).min(self.replay.len().saturating_sub(1))
    }
}

/// Per-GPU residency and the stats the [`GpuPool`] ledger does not keep:
/// the peak reservation and a byte-time integral for utilization.
#[derive(Debug, Default)]
pub(crate) struct GpuState {
    pub(crate) resident: Vec<usize>,
    pub(crate) peak: u64,
    pub(crate) byte_ns: u128,
    pub(crate) last_touch: Time,
    pub(crate) hosted: usize,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
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
    /// re-enters the queue with measured budgets (unlike `Preempt`, no
    /// checkpoint is kept — resuming one would regrant the insufficient
    /// budget verbatim).
    Remeasure,
}

/// One scheduled event, ordered by `(time, class, sequence)` — the field
/// order, so the derived order is that key (the sequence number is
/// unique, so no later field is ever compared). The class ranks arrivals
/// (`late == false`) ahead of scheduled events at the same instant, so an
/// online [`crate::Cluster::submit`] — whose arrival necessarily draws a
/// later sequence number than events already in flight — processes
/// exactly where the batch loop (which pushes every arrival before any
/// scheduled event exists) would have ordered it. The epoch invalidates
/// events superseded by re-pricing or preemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    pub(crate) at: Time,
    late: bool,
    seq: u64,
    pub(crate) epoch: u64,
    pub(crate) job: usize,
    pub(crate) kind: EventKind,
}

// Events are copied on every heap sift: keep them at 40 bytes.
const _: () = assert!(std::mem::size_of::<Event>() <= 40);

impl Event {
    /// Whether the event was superseded before it fired — the one
    /// staleness rule. Arrivals and request arrivals are an external
    /// process, so epoch bumps (re-pricing, preemption) must not drop
    /// them: only a terminal job silences them. Every other event is
    /// stale once the job's epoch moved past the one it was scheduled
    /// under.
    pub(crate) fn is_stale(&self, j: &JobRun) -> bool {
        match self.kind {
            EventKind::Arrive | EventKind::Request => matches!(j.phase, Phase::Done(_)),
            _ => self.epoch != j.epoch,
        }
    }
}

/// The pending events as a min-heap, plus the sequence counter that
/// numbers them.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    seq: u64,
    heap: BinaryHeap<Reverse<Event>>,
}

impl EventHeap {
    pub(crate) fn push(&mut self, at: Time, kind: EventKind, job: usize, epoch: u64) {
        let seq = self.seq;
        self.seq += 1;
        let late = kind != EventKind::Arrive;
        let event = Event {
            at,
            late,
            seq,
            epoch,
            job,
            kind,
        };
        self.heap.push(Reverse(event));
    }

    pub(crate) fn peek(&self) -> Option<Event> {
        self.heap.peek().map(|e| e.0)
    }

    pub(crate) fn pop(&mut self) {
        self.heap.pop();
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter().map(|e| &e.0)
    }
}

/// A job's replay trace is empty — replaying it would fabricate zero-time
/// iterations (and an infinitely fast job).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct EmptyWalls;

/// All mutable state of one simulation run: the event heap and clock,
/// per-job and per-GPU state, the waiting queue, and the side-channel
/// logs. [`crate::Cluster::reset`] swaps in a fresh one; the admission
/// caches live on the cluster itself and survive across runs (they
/// memoize pure functions of the spec, so reuse cannot perturb
/// determinism). The all-empty default is also the placeholder
/// `std::mem::take` leaves behind while the event loop works on the real
/// session; API callers never observe it.
#[derive(Debug, Default)]
pub(crate) struct Session {
    pub(crate) heap: EventHeap,
    pub(crate) jobs: Vec<JobRun>,
    pub(crate) gpus: Vec<GpuState>,
    pub(crate) fabric: Option<Interconnect>,
    /// The per-GPU reservation ledger and its headroom index; every
    /// reservation change goes through [`Session::reserve_to`], which
    /// also banks the stats in `gpus`.
    pub(crate) pool: GpuPool,
    /// Waiting queue in queue-entry order (arrival, or checkpoint
    /// completion for preempted jobs), keyed by a monotone entry
    /// sequence for O(log n) keyed removal.
    pub(crate) pending: BTreeMap<u64, usize>,
    /// Next queue-entry key.
    queue_seq: u64,
    /// Bumped on every queue mutation (entry, removal, or a failed-budget
    /// record that changes a waiting candidate).
    pub(crate) queue_gen: u64,
    /// Waiting candidates indexed by `(fit threshold, queue key)`
    /// (candidates whose threshold is `None` can never fit and are
    /// excluded). Two roles: its first key is the queue's *fit floor* —
    /// while every device's headroom sits below it, the placement pass
    /// provably picks nothing and settle skips it in O(1) — and under
    /// best-fit a range query feeds `pick` exactly the candidates whose
    /// threshold clears the best headroom, instead of scanning the whole
    /// backlog per probe.
    pub(crate) by_threshold: BTreeMap<(u64, u64), usize>,
    /// Waiting elastic jobs (no checkpoint) in queue-entry order — the
    /// elastic pass walks this instead of filtering the whole queue.
    pub(crate) pending_elastic: BTreeMap<u64, usize>,
    /// Multiset of known ladder floors ([`ElasticState::ladder_floor_min`])
    /// over the waiting elastic jobs: the elastic-pass analogue of the
    /// fit floor (no rung of any waiting ladder fits below its floor, so
    /// the pass skips in O(1) while headroom stays under the smallest
    /// floor).
    pub(crate) elastic_floors: BTreeMap<u64, usize>,
    /// Waiting elastic jobs whose ladder floor is not yet measured; the
    /// elastic pass cannot be skipped while any remain.
    pub(crate) elastic_unfloored: usize,
    /// `(pool generation, queue generation)` at the end of the last
    /// settle pass. While both are unchanged, re-running placement and
    /// the elastic pass provably picks nothing (a `None` pick depends
    /// only on queue contents and headroom, never on the clock), so
    /// settle skips them.
    pub(crate) settled_at: Option<(u64, u64)>,
    /// Jobs currently holding reservations — the preemption victim scan
    /// iterates this instead of every job ever submitted.
    pub(crate) resident_jobs: BTreeSet<usize>,
    /// The resident serving jobs, a subset of `resident_jobs` kept at
    /// grant and release so the serving loop visits only them.
    pub(crate) serving_jobs: BTreeSet<usize>,
    /// Work counters of the settle passes.
    pub(crate) counters: SettleCounters,
    /// Jobs with a preemption checkpoint copy in flight (the old
    /// `any(|j| j.preempting)` scan, maintained incrementally).
    pub(crate) preempting: usize,
    /// Unified transfer trace (the [`crate::Cluster::run_traced`]
    /// side-channel), drained by [`crate::Cluster::take_transfers`].
    pub(crate) transfers: Vec<ClusterTransfer>,
    /// Lifecycle event log in occurrence order (the `capuchin-serve`
    /// side-channel), drained by [`crate::Cluster::take_events`].
    pub(crate) events: Vec<JobEvent>,
    /// The clock: the last processed event time or the last
    /// [`crate::Cluster::advance_to`] deadline, whichever is later.
    /// Online submissions arriving "in the past" are clamped to it.
    pub(crate) now: Time,
    /// Completed burst-absorption cycles: a training job shrank to
    /// absorb an inference burst and later re-grew (cluster-wide).
    pub(crate) burst_cycles: u64,
    /// Predicted admissions this session: arrivals whose budgets came
    /// from a warm predictor key (predictive mode only).
    pub(crate) predictor_hits: u64,
    /// Predictable arrivals that fell back to measured admission because
    /// their key was still cold (predictive mode only).
    pub(crate) predictor_misses: u64,
}

impl Session {
    pub(crate) fn new(cfg: &ClusterConfig) -> Session {
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
            gpus: (0..cfg.gpus).map(|_| GpuState::default()).collect(),
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
    pub(crate) fn enqueue(&mut self, job: usize) {
        let key = self.queue_seq;
        self.queue_seq += 1;
        let j = &self.jobs[job];
        let threshold = j.candidate(job).fit_threshold();
        // A checkpointed job resumes at its saved batch: no ladder.
        let floor = match (&j.elastic, &j.phase) {
            (Some(_), Phase::Preempted { .. }) | (None, _) => None,
            (Some(e), _) => Some(e.ladder_floor_min),
        };
        self.jobs[job].queue_key = Some(key);
        self.pending.insert(key, job);
        if let Some(t) = threshold {
            self.by_threshold.insert((t, key), job);
        }
        if let Some(floor) = floor {
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
    pub(crate) fn dequeue(&mut self, job: usize) {
        if let Some(key) = self.jobs[job].queue_key.take() {
            self.pending.remove(&key);
            let j = &self.jobs[job];
            if let Some(t) = j.candidate(job).fit_threshold() {
                self.by_threshold.remove(&(t, key));
            }
            if self.pending_elastic.remove(&key).is_some() {
                match j.elastic.as_ref().and_then(|e| e.ladder_floor_min) {
                    Some(f) => multiset_sub(&mut self.elastic_floors, f),
                    None => self.elastic_unfloored -= 1,
                }
            }
            self.queue_gen += 1;
        }
    }

    /// Sets `gpu`'s reservation to `reserved` bytes in the pool, banking
    /// the byte-time integral up to `now` at the old value and raising
    /// the peak.
    fn reserve_to(&mut self, gpu: usize, reserved: u64, now: Time) {
        let g = &mut self.gpus[gpu];
        let span = now.saturating_since(g.last_touch).as_nanos() as u128;
        g.byte_ns += self.pool.reserved(gpu) as u128 * span;
        g.last_touch = now;
        g.peak = g.peak.max(reserved);
        self.pool.set_reserved(gpu, reserved);
    }

    /// Moves every replica of `job`'s gang to a `bytes` reservation.
    pub(crate) fn resize(&mut self, job: usize, bytes: u64, now: Time) {
        let old = self.jobs[job].reserved;
        for i in 0..self.jobs[job].gpus_held.len() {
            let gpu = self.jobs[job].gpus_held[i];
            self.reserve_to(gpu, self.pool.reserved(gpu) - old + bytes, now);
        }
        self.jobs[job].reserved = bytes;
    }

    /// Appends a lifecycle event to the side-channel log.
    pub(crate) fn emit(&mut self, job: usize, t: Time, kind: JobEventKind) {
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
    pub(crate) fn host_copy(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        want: Time,
        bytes: u64,
        dir: CopyDir,
        label: &Arc<str>,
    ) -> Time {
        let Some(fabric) = self.fabric.as_mut() else {
            return want + dev.copy_time(bytes, dir);
        };
        let j = &mut self.jobs[job];
        let bytes = bytes * j.gpus_held.len().max(1) as u64;
        let tr = fabric.host_transfer(want, bytes);
        self.transfers.push(ClusterTransfer {
            job: j.shared_name(),
            iter: u64::MAX,
            label: Arc::clone(label),
            link: Arc::clone(fabric.host_name()),
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
    /// — `bytes` on every member. The pick names the complete GPU set
    /// and every member is reserved here, so no job ever holds a partial
    /// gang (the no-deadlock invariant).
    pub(crate) fn grant(&mut self, job: usize, gang: &[usize], bytes: u64, now: Time) {
        self.dequeue(job);
        let j = &mut self.jobs[job];
        j.gpus_held = gang.to_vec();
        j.reserved = bytes;
        self.resident_jobs.insert(job);
        if j.serving.is_some() {
            self.serving_jobs.insert(job);
        }
        for &gpu in gang {
            self.reserve_to(gpu, self.pool.reserved(gpu) + bytes, now);
            let g = &mut self.gpus[gpu];
            g.resident.push(job);
            g.hosted += 1;
        }
    }

    /// Grants a waiting job its gang at global batch `batch` and starts
    /// it: training iterates at once, while a serving job idles until the
    /// serving loop opens its first round over the accumulated backlog.
    pub(crate) fn admit(
        &mut self,
        job: usize,
        gang: &[usize],
        bytes: u64,
        batch: usize,
        now: Time,
    ) {
        self.grant(job, gang, bytes, now);
        self.jobs[job].admitted_at = Some(now);
        let gpus = gang.to_vec();
        let admitted = JobEventKind::Admitted {
            gpus,
            batch,
            reserved: bytes,
        };
        self.emit(job, now, admitted);
        if self.jobs[job].serving.is_some() {
            self.jobs[job].phase = Phase::Barrier;
        } else if !self.start_iter(job, now) {
            return;
        }
        self.reprice(gang, now);
    }

    /// Moves `job` to `next`, releasing every replica's reservation and
    /// logging `kind`; each device the gang left re-prices its remaining
    /// residents. A completed job keeps its GPU list for stats.
    pub(crate) fn release_gang(&mut self, job: usize, now: Time, next: Phase, kind: JobEventKind) {
        let j = &mut self.jobs[job];
        if matches!(std::mem::replace(&mut j.phase, next), Phase::Checkpointing) {
            self.preempting -= 1;
        }
        let held = std::mem::take(&mut j.gpus_held);
        let reserved = j.reserved;
        self.resident_jobs.remove(&job);
        self.serving_jobs.remove(&job);
        for &gpu in &held {
            self.reserve_to(gpu, self.pool.reserved(gpu) - reserved, now);
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
    pub(crate) fn finish(&mut self, job: usize, now: Time, outcome: JobOutcome) {
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
    pub(crate) fn start_checkpoint(
        &mut self,
        dev: &DeviceSpec,
        job: usize,
        now: Time,
        label: &Arc<str>,
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
    pub(crate) fn schedule_iter(&mut self, job: usize, now: Time) -> Result<(), EmptyWalls> {
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
    pub(crate) fn start_iter(&mut self, job: usize, now: Time) -> bool {
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
    pub(crate) fn reprice(&mut self, gpus: &[usize], now: Time) {
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

    /// Records a failed validation at `grant` for a *queued* job at
    /// `batch`. The queue generation moves so the next settle retries the
    /// job; a record at the requested batch changes the waiting
    /// candidate's fit threshold, and the fit floor re-files it.
    pub(crate) fn record_queued_failure(&mut self, job: usize, batch: usize, grant: u64) {
        let old = self.jobs[job].candidate(job).fit_threshold();
        let j = &mut self.jobs[job];
        j.record_failed(batch, grant);
        let key = j.queue_key.expect("picked candidate is queued");
        let new = self.jobs[job].candidate(job).fit_threshold();
        if old != new {
            if let Some(t) = old {
                self.by_threshold.remove(&(t, key));
            }
            if let Some(t) = new {
                self.by_threshold.insert((t, key), job);
            }
        }
        self.queue_gen += 1;
    }
}

/// Adds one occurrence of `v` to a threshold multiset.
pub(crate) fn multiset_add(set: &mut BTreeMap<u64, usize>, v: u64) {
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

/// Labels of the cluster's own fabric traffic — gang allreduces and the
/// checkpoint/restore copies of preemption, elastic re-batching and
/// mispredict recovery — each made once per process, so a transfer
/// record clones a pointer instead of copying the text.
pub(crate) mod copy_label {
    use super::{Arc, LazyLock};

    macro_rules! shared {
        ($($name:ident = $text:literal),* $(,)?) => {$(
            pub(crate) static $name: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from($text));
        )*};
    }

    shared! {
        ALLREDUCE = "allreduce",
        CHECKPOINT = "checkpoint",
        RESTORE = "restore",
        MISPREDICT_CHECKPOINT = "mispredict-checkpoint",
        REGROW_CHECKPOINT = "regrow-checkpoint",
        REGROW_RESTORE = "regrow-restore",
        SHRINK_CHECKPOINT = "shrink-checkpoint",
        SHRINK_RESTORE = "shrink-restore",
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
pub(crate) fn settle_comm(
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
    // A handle of its own, so the job stays writable while its replay
    // is read (the lead and the lazily made shared name).
    let replay = Arc::clone(&j.replay);
    if let Some(it) = replay.get(j.replay_idx()) {
        // Replay the recorded timeline inside the just-finished
        // iteration's span: offsets are relative to the (uncontended)
        // iteration start, and contention only stretches the span, so
        // every want lands at or before `now`. Wants are kept monotonic —
        // the lane is FIFO and the records are in submission order.
        let mut prev_want = j.iter_started;
        for rec in &it.transfers {
            let lead = j.lead.get(&rec.label_id).copied().unwrap_or(Duration::ZERO);
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
                *j.lead.entry(rec.label_id).or_insert(Duration::ZERO) += step;
            }
            sink.push(ClusterTransfer {
                job: j.shared_name(),
                iter,
                label: Arc::clone(&rec.label),
                link: Arc::clone(fabric.host_name()),
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
        let route = Arc::clone(fabric.allreduce_route(&j.gpus_held));
        let ar = fabric.allreduce(comm_end, &j.gpus_held, j.grad_bytes);
        let per_replica = fabric.spec().allreduce_bytes(j.grad_bytes, k);
        let bytes = if Arc::ptr_eq(&route, fabric.host_name()) {
            per_replica * k as u64
        } else {
            per_replica
        };
        sink.push(ClusterTransfer {
            job: j.shared_name(),
            iter,
            label: Arc::clone(&copy_label::ALLREDUCE),
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
