//! Cluster run statistics, serialized to JSON for reports and benches.
//!
//! Everything here is `Vec`-based and insertion-ordered so that the same
//! simulation always renders byte-identical JSON.

use std::sync::Arc;

use capuchin_sim::{CopyDir, Duration, LinkStats, Time};
use serde::{Deserialize, Serialize};

/// Version stamp of the stats JSON schema, serialized as the first field
/// of [`ClusterStats`] so protocol clients can detect drift before
/// interpreting anything else.
///
/// History: version 1 is the implicit, unversioned schema of the first
/// five PRs; version 2 added this field itself, the
/// [`JobOutcome::Cancelled`] outcome, and the [`ClusterStats::cancelled`]
/// counter, and nothing else; version 3 added the mixed-workload fields —
/// per-job [`JobStats::requests_served`] / [`JobStats::slo_misses`] /
/// [`JobStats::p50_latency`] / [`JobStats::p99_latency`] /
/// [`JobStats::burst_shrinks`] and cluster-wide
/// [`ClusterStats::requests_served`] / [`ClusterStats::slo_misses`] /
/// [`ClusterStats::slo_attainment_permille`] /
/// [`ClusterStats::burst_shrinks`] / [`ClusterStats::burst_cycles`];
/// version 4 added the per-job memory-management cost counters —
/// [`JobStats::recompute_time`] / [`JobStats::evictions`] /
/// [`JobStats::admission_validations`] — and nothing else;
/// version 5 added the predictive-admission fields — per-job
/// [`JobStats::admission_source`] / [`JobStats::predicted_bytes`] /
/// [`JobStats::prediction_error_permille`] /
/// [`JobStats::mispredict_recoveries`], cluster-wide
/// [`ClusterStats::mispredict_recoveries`] /
/// [`ClusterStats::predictor_hits`] / [`ClusterStats::predictor_misses`],
/// and the [`JobStatus::admission_source`] live field — and nothing else.
/// Bump it whenever
/// a field is added, removed, renamed, or its meaning changes — the serve
/// smoke test pins the daemon and the client to the same number.
pub const STATS_SCHEMA_VERSION: u32 = 5;

/// One entry of the cluster's unified transfer trace: a replayed swap
/// transfer, a gang allreduce, or a checkpoint/restore copy, resolved on
/// a shared fabric lane. Returned by [`crate::Cluster::run_traced`] as a
/// side-channel — it is *not* part of [`ClusterStats`], so the stats JSON
/// stays byte-identical to fabric-free runs.
///
/// The three names are shared, not owned: a job's name is made once per
/// job, a lane's once per fabric, and a replayed label once per distinct
/// text in the admission cache, so taking a record allocates nothing.
/// They serialize exactly as strings do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTransfer {
    /// Job the traffic belongs to (spec name).
    pub job: Arc<str>,
    /// Iteration index the traffic settled at (`u64::MAX` for
    /// checkpoint/restore copies, which happen between iterations).
    pub iter: u64,
    /// What moved: the engine's per-tensor label (`prefetch:<t>`,
    /// `swapout:<t>`, …) for replayed swaps, `allreduce`, `checkpoint`, or
    /// `restore`.
    pub label: Arc<str>,
    /// Fabric lane that served the transfer (`host` or `peer<d>`).
    pub link: Arc<str>,
    /// Transfer direction.
    pub dir: CopyDir,
    /// Payload size (all replicas' bytes).
    pub bytes: u64,
    /// Instant the transfer wanted the lane (its replayed submission
    /// time, minus any accumulated feedback lead).
    pub want: Time,
    /// First byte on the wire.
    pub start: Time,
    /// Last byte delivered.
    pub end: Time,
    /// Time spent queued behind other traffic (`start − want`).
    pub wait: Duration,
    /// Contribution to the job's `comm_delay` (deduplicated against other
    /// waiters in the same busy period; zero for allreduce and
    /// checkpoint/restore copies, which are charged to their own
    /// counters).
    pub charge: Duration,
    /// Feedback lead applied to this transfer's want (paper §4.4: a
    /// stretched prefetch moves its in-trigger earlier on later
    /// iterations).
    pub lead: Duration,
}

impl ClusterTransfer {
    /// Stretch factor: observed latency (want → end) over pure wire time.
    /// `1.0` means the transfer never waited.
    pub fn stretch(&self) -> f64 {
        let service = self.end.saturating_since(self.start).as_secs_f64();
        if service == 0.0 {
            return 1.0;
        }
        self.end.saturating_since(self.want).as_secs_f64() / service
    }
}

/// How one job's stay in the cluster ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Rejected at admission: even the minimum budget exceeds a bare GPU.
    Rejected,
    /// Still waiting when the simulation drained (validation kept failing
    /// or no strategy pick ever materialized).
    Starved,
    /// Checkpointed out by a preemption and never resumed before the
    /// simulation drained; its state is still resumable on the host.
    Preempted,
    /// Aborted mid-run: the replay state became unusable (an empty wall
    /// trace slipped past admission). Counted in `midrun_oom_aborts`.
    Aborted,
    /// Cancelled through the online API ([`crate::Cluster::cancel`])
    /// before it could complete. A never-admitted queued job that is
    /// cancelled refunds nothing — it held no reservation to begin with —
    /// and is *not* a rejection (admission never refused it) nor an abort
    /// (its replay state never became unusable).
    Cancelled,
}

/// A job's position in its lifecycle, as reported by
/// [`crate::Cluster::status`]. Unlike [`JobOutcome`] — which is derived
/// once, at stats time, and has a `Starved` catch-all for jobs the run
/// left behind — this is a live view that changes as events process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting for placement (or for its arrival time to come up).
    Queued,
    /// Holding its gang and iterating.
    Running,
    /// Checkpointed to the host (or mid-checkpoint-copy), resumable.
    Preempted,
    /// Ran to completion.
    Completed,
    /// Refused at admission.
    Rejected,
    /// Evicted mid-run with unusable replay state.
    Aborted,
    /// Cancelled through the online API.
    Cancelled,
}

impl JobState {
    /// Whether the job can make no further progress (terminal states
    /// reject [`crate::Cluster::cancel`]).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Rejected | JobState::Aborted | JobState::Cancelled
        )
    }
}

/// Live per-job snapshot returned by [`crate::Cluster::status`]: enough
/// for a wire client to render progress without waiting for final stats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// Submission index (the [`crate::JobId`] value).
    pub id: u64,
    /// Job name from the spec.
    pub name: String,
    /// Lifecycle position right now.
    pub state: JobState,
    /// Completed iterations.
    pub iters_done: u64,
    /// Samples trained so far.
    pub samples_done: u64,
    /// Samples the job must train in total (`batch × iters`).
    pub samples_total: u64,
    /// Global batch currently in effect (elastic jobs may run reduced).
    pub cur_batch: usize,
    /// Gang width from the spec.
    pub replicas: usize,
    /// GPUs currently held (empty while queued or checkpointed).
    pub gpus: Vec<usize>,
    /// Per-replica reservation in bytes (zero while queued).
    pub reserved_bytes: u64,
    /// Checkpoint-preemptions suffered so far.
    pub preemptions: u64,
    /// Elastic batch changes so far.
    pub rebatches: u64,
    /// Where the job's admission budgets came from
    /// ([`crate::AdmissionSource::name`]): `measured`, `heuristic`, or
    /// `predicted`.
    pub admission_source: String,
}

/// One lifecycle transition, recorded by the online core in occurrence
/// order. The log is a side-channel like the transfer trace — it never
/// feeds back into [`ClusterStats`], so the stats JSON stays
/// byte-identical whether or not anyone reads it. `capuchin-serve`
/// streams these to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Instant on the simulated clock the transition happened.
    pub t: Time,
    /// Submission index of the job.
    pub job: u64,
    /// Job name from the spec (denormalized so stream consumers need no
    /// id → name lookup).
    pub name: String,
    /// What happened.
    pub kind: JobEventKind,
}

/// The lifecycle transitions the online core records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEventKind {
    /// The job entered the cluster ([`crate::Cluster::submit`]).
    Submitted,
    /// Admission refused the job (no bare GPU can host a replica).
    Rejected,
    /// Placement granted the job its gang.
    Admitted {
        /// GPUs granted, in placement order.
        gpus: Vec<usize>,
        /// Global batch admitted at (may be elastically reduced).
        batch: usize,
        /// Per-replica reservation in bytes.
        reserved: u64,
    },
    /// An iteration's compute and boundary communication both drained.
    IterationDone {
        /// Completed-iteration count after this one.
        iter: u64,
        /// Samples trained so far.
        samples_done: u64,
    },
    /// The job's checkpoint copy drained; it is back in the queue.
    Preempted,
    /// The job's restore copy drained; it iterates again.
    Resumed,
    /// An elastic batch change took effect.
    Rebatched {
        /// The new global batch.
        batch: usize,
    },
    /// An inference request arrived and joined the job's request queue.
    RequestArrived,
    /// An inference request was served at a round boundary.
    RequestServed {
        /// Arrival-to-served latency on the simulated clock.
        latency: Duration,
    },
    /// A served request's latency exceeded the job's SLO (always preceded
    /// by the matching [`JobEventKind::RequestServed`]).
    SloMissed {
        /// Arrival-to-served latency on the simulated clock.
        latency: Duration,
    },
    /// The job trained all its samples.
    Completed,
    /// The job was evicted mid-run with unusable replay state.
    Aborted,
    /// The job was cancelled through the online API.
    Cancelled,
}

impl JobEventKind {
    /// Lowercase wire name, stable across schema versions.
    pub fn name(&self) -> &'static str {
        match self {
            JobEventKind::Submitted => "submitted",
            JobEventKind::Rejected => "rejected",
            JobEventKind::Admitted { .. } => "admitted",
            JobEventKind::IterationDone { .. } => "iteration",
            JobEventKind::Preempted => "preempted",
            JobEventKind::Resumed => "resumed",
            JobEventKind::Rebatched { .. } => "rebatched",
            JobEventKind::RequestArrived => "request_arrived",
            JobEventKind::RequestServed { .. } => "request_served",
            JobEventKind::SloMissed { .. } => "slo_missed",
            JobEventKind::Completed => "completed",
            JobEventKind::Aborted => "aborted",
            JobEventKind::Cancelled => "cancelled",
        }
    }
}

/// Per-job accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStats {
    /// Job name from the spec.
    pub name: String,
    /// Model name.
    pub model: String,
    /// Mini-batch size.
    pub batch: usize,
    /// Requested policy name.
    pub policy: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Data-parallel replicas the spec asked for (1 = single-device).
    pub replicas: usize,
    /// GPUs the job last held — the full gang, in placement order; empty
    /// if it never placed. Always 0 or exactly `replicas` entries: gangs
    /// are granted all-or-nothing.
    pub gpus_used: Vec<usize>,
    /// Whether admission granted less than the ideal peak (a Capuchin
    /// plan shrank the footprint to fit).
    pub shrunk: bool,
    /// Bytes reserved on the device for the job's lifetime.
    pub reserved_bytes: u64,
    /// Ideal-peak footprint from the measured iteration.
    pub footprint_bytes: u64,
    /// Arrival on the simulated clock.
    pub arrival: Duration,
    /// Arrival → placement delay (zero for rejected jobs).
    pub queueing_delay: Duration,
    /// Arrival → completion (job completion time; zero for rejected jobs).
    pub jct: Duration,
    /// Mean per-iteration wall time actually experienced on the cluster,
    /// including contention slowdown.
    pub mean_iter: Duration,
    /// Times this job was checkpoint-preempted.
    pub preemptions: u64,
    /// In-flight iteration time discarded by preemptions (checkpoints
    /// capture completed-iteration boundaries only).
    pub wasted_work: Duration,
    /// Total checkpoint-completion → resumed-iteration-start time.
    pub resume_latency: Duration,
    /// PCIe checkpoint (device-to-host) + restore (host-to-device) copy
    /// time charged to this job's clock.
    pub checkpoint_overhead: Duration,
    /// Total gradient-allreduce time charged at iteration barriers (zero
    /// for single-GPU jobs and with the interconnect model off).
    pub allreduce_time: Duration,
    /// Extra delay from queueing behind other jobs' traffic on the shared
    /// interconnect (swap-replay and checkpoint queueing; zero with the
    /// interconnect model off).
    pub comm_delay: Duration,
    /// Elastic batch changes (shrinks at admission plus every mid-run
    /// shrink or re-grow). Zero for rigid jobs and with elastic
    /// re-batching off.
    pub rebatches: u64,
    /// Wall time the job spent training below its requested batch size.
    pub elastic_time_at_reduced_batch: Duration,
    /// Training samples actually processed. For every completed job —
    /// elastic or not — this equals `batch × iters` from the spec: elastic
    /// re-batching extends the iteration count so total samples trained is
    /// preserved exactly.
    pub samples_preserved: u64,
    /// Inference requests served (zero for training jobs).
    pub requests_served: u64,
    /// Served requests whose arrival-to-served latency exceeded the SLO.
    pub slo_misses: u64,
    /// Median request latency (nearest-rank over integer nanoseconds;
    /// zero when no requests were served).
    pub p50_latency: Duration,
    /// 99th-percentile request latency (nearest-rank over integer
    /// nanoseconds; zero when no requests were served).
    pub p99_latency: Duration,
    /// Times this *training* job shrank its batch mid-run specifically to
    /// absorb an inference KV burst (a subset of `rebatches`).
    pub burst_shrinks: u64,
    /// Kernel time spent regenerating released tensors, summed over the
    /// replay iterations the job consumed (accumulated as integer
    /// nanoseconds; rendered as seconds only at serialization).
    pub recompute_time: Duration,
    /// Reactive (allocation-pressure) evictions summed over the replay
    /// iterations the job consumed.
    pub evictions: u64,
    /// Validation engine runs this job's admission triggered. Cache-hit
    /// admissions charge nothing; heuristic-class policies (e.g. `dtr`)
    /// are zero by construction, and so are warm-key predicted
    /// admissions — unless a mispredict forced a measured re-admission,
    /// whose runs bill this job (keeping the per-job sum equal to the
    /// controller total).
    pub admission_validations: u64,
    /// Where the admission budgets came from
    /// ([`crate::AdmissionSource::name`]): `measured`, `heuristic`, or
    /// `predicted`. A predicted job that was re-admitted after a
    /// mispredict (or engine-validated by an elastic batch change)
    /// reports the stronger `measured` provenance it ended with.
    pub admission_source: String,
    /// Margin-padded predicted full reservation the job was admitted on
    /// (zero unless admitted `predicted`).
    pub predicted_bytes: u64,
    /// Regression error at first verification:
    /// `|raw prediction − measured full| × 1000 / measured full`, before
    /// the safety margin (zero for unverified or non-predicted jobs).
    pub prediction_error_permille: u64,
    /// Checkpoint-preemption recoveries forced by an under-shooting
    /// prediction (a subset of `preemptions`).
    pub mispredict_recoveries: u64,
}

/// Per-GPU accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuStats {
    /// Device index.
    pub gpu: usize,
    /// Total device memory.
    pub capacity: u64,
    /// Highest concurrent reservation observed.
    pub peak_reserved_bytes: u64,
    /// Time-weighted mean of reserved/capacity over the makespan.
    pub mean_utilization: f64,
    /// Jobs that ran (to completion) on this device.
    pub jobs_hosted: usize,
}

/// Whole-run accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Stats schema version, always [`STATS_SCHEMA_VERSION`]. First field
    /// so clients can check it before interpreting the rest.
    pub schema_version: u32,
    /// Number of simulated GPUs.
    pub gpus: usize,
    /// Admission mode name.
    pub admission: String,
    /// Placement strategy name.
    pub strategy: String,
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs cancelled through [`crate::Cluster::cancel`] before reaching
    /// any other terminal state.
    pub cancelled: usize,
    /// Admission-time OOM rejections.
    pub oom_rejections: usize,
    /// Jobs that aborted mid-run (unusable replay state). Validation at
    /// the granted budget plus empty-trace rejection makes this zero in
    /// practice; counted from actual outcomes to keep the claim honest.
    pub midrun_oom_aborts: usize,
    /// Total checkpoint-preemptions across all jobs.
    pub preemptions: usize,
    /// Total elastic batch changes across all jobs (see
    /// [`JobStats::rebatches`]).
    pub rebatches: usize,
    /// Total inference requests served across all jobs.
    pub requests_served: u64,
    /// Total served requests that missed their SLO.
    pub slo_misses: u64,
    /// SLO attainment in permille fixed point:
    /// `(requests_served − slo_misses) × 1000 / requests_served`,
    /// computed in exact integer arithmetic; 1000 when no requests were
    /// served (vacuously attained).
    pub slo_attainment_permille: u64,
    /// Total burst-absorption shrinks across all training jobs (see
    /// [`JobStats::burst_shrinks`]).
    pub burst_shrinks: u64,
    /// Completed burst-absorption cycles: a training job that shrank for
    /// an inference burst later re-grew its batch after the burst
    /// drained.
    pub burst_cycles: u64,
    /// Total mispredict-forced recoveries across all jobs (see
    /// [`JobStats::mispredict_recoveries`]).
    pub mispredict_recoveries: u64,
    /// Predictable arrivals admitted on a warm predictor key — with zero
    /// validation engine runs. Always zero with predictive mode off.
    pub predictor_hits: u64,
    /// Predictable arrivals whose key was cold (fell back to measured
    /// admission, which later feeds the store). Always zero with
    /// predictive mode off.
    pub predictor_misses: u64,
    /// First arrival → last completion.
    pub makespan: Duration,
    /// Total training samples processed divided by the makespan.
    pub aggregate_samples_per_sec: f64,
    /// Mean queueing delay over completed jobs.
    pub mean_queueing_delay: Duration,
    /// Mean job completion time over completed jobs.
    pub mean_jct: Duration,
    /// Interconnect model name (`off` when traffic is not modelled).
    pub interconnect: String,
    /// Per-link traffic accounting (empty with the interconnect off).
    pub links: Vec<LinkStats>,
    /// Per-device accounting, indexed by GPU.
    pub per_gpu: Vec<GpuStats>,
    /// Per-job accounting, in submission order.
    pub jobs: Vec<JobStats>,
}

impl ClusterStats {
    /// Renders the stats as pretty JSON (deterministic byte-for-byte for
    /// identical runs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("cluster stats serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_render_deterministically() {
        let stats = ClusterStats {
            schema_version: STATS_SCHEMA_VERSION,
            gpus: 2,
            admission: "capuchin-admission".into(),
            strategy: "best-fit".into(),
            submitted: 1,
            completed: 1,
            cancelled: 0,
            oom_rejections: 0,
            midrun_oom_aborts: 0,
            preemptions: 0,
            rebatches: 2,
            requests_served: 0,
            slo_misses: 0,
            slo_attainment_permille: 1000,
            burst_shrinks: 0,
            burst_cycles: 0,
            mispredict_recoveries: 0,
            predictor_hits: 2,
            predictor_misses: 1,
            makespan: Duration::from_millis(12),
            aggregate_samples_per_sec: 1234.5,
            mean_queueing_delay: Duration::from_micros(3),
            mean_jct: Duration::from_millis(12),
            interconnect: "pcie-shared".into(),
            links: vec![LinkStats {
                link: "host".into(),
                busy: Duration::from_millis(2),
                bytes: 1 << 30,
                transfers: 9,
            }],
            per_gpu: vec![GpuStats {
                gpu: 0,
                capacity: 16 << 30,
                peak_reserved_bytes: 8 << 30,
                mean_utilization: 0.5,
                jobs_hosted: 1,
            }],
            jobs: vec![JobStats {
                name: "job00".into(),
                model: "vgg16".into(),
                batch: 32,
                policy: "capuchin".into(),
                outcome: JobOutcome::Completed,
                replicas: 1,
                gpus_used: vec![0],
                shrunk: true,
                reserved_bytes: 8 << 30,
                footprint_bytes: 10 << 30,
                arrival: Duration::ZERO,
                queueing_delay: Duration::from_micros(3),
                jct: Duration::from_millis(12),
                mean_iter: Duration::from_millis(4),
                preemptions: 1,
                wasted_work: Duration::from_millis(1),
                resume_latency: Duration::from_millis(2),
                checkpoint_overhead: Duration::from_micros(700),
                allreduce_time: Duration::ZERO,
                comm_delay: Duration::from_micros(40),
                rebatches: 2,
                elastic_time_at_reduced_batch: Duration::from_millis(6),
                samples_preserved: 32 * 3,
                requests_served: 0,
                slo_misses: 0,
                p50_latency: Duration::ZERO,
                p99_latency: Duration::ZERO,
                burst_shrinks: 0,
                recompute_time: Duration::from_millis(5),
                evictions: 3,
                admission_validations: 7,
                admission_source: "predicted".into(),
                predicted_bytes: 9 << 30,
                prediction_error_permille: 12,
                mispredict_recoveries: 0,
            }],
        };
        let a = stats.to_json();
        let b = stats.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"oom_rejections\": 0"), "{a}");
        assert!(a.contains("\"admission_validations\": 7"), "{a}");
        assert!(a.contains("\"admission_source\": \"predicted\""), "{a}");
        assert!(a.contains("\"predictor_hits\": 2"), "{a}");
    }
}
