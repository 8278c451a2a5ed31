//! # capuchin-cluster — memory-aware multi-job GPU cluster scheduling
//!
//! Capuchin (Peng et al., ASPLOS 2020) manages one job's memory on one
//! GPU. This crate asks the cluster-level question: if the scheduler
//! *knows* a job's footprint can be shrunk by swap/recompute plans, how
//! many more jobs fit on a fleet of GPUs?
//!
//! Three layers:
//!
//! * **Admission** ([`Admission`]) — before placement, each job runs one
//!   measured iteration on an unconstrained simulated device
//!   ([`capuchin::measure_footprint`]); the controller derives the ideal
//!   peak (`full`) and, under [`AdmissionMode::Capuchin`], the smallest
//!   plannable budget (`min`). Jobs whose `min` exceeds a bare GPU are
//!   rejected (admission-time OOM); shrunk admissions are re-validated by
//!   an actual engine run at the granted budget, which is what makes
//!   mid-run OOM aborts impossible for admitted jobs.
//! * **Placement** ([`PlacementStrategy`]) — pluggable ordering of the
//!   waiting queue against per-GPU headroom: strict [`FifoFirstFit`] and
//!   [`BestFit`] memory bin-packing with priority aging. A job with
//!   [`JobSpec::gpus`]` = k > 1` is a data-parallel *gang*: admission
//!   measures the per-replica footprint (at batch `batch / k`) and the
//!   strategy names a complete `k`-GPU subset, granted atomically — all
//!   or none, preferring one link domain so the gang's gradient allreduce
//!   rides a private peer lane.
//! * **Simulation** ([`Cluster`]) — one deterministic event clock replays
//!   validated per-iteration wall times with a contention model that
//!   re-prices in-flight iterations at every residency change, and
//!   produces [`ClusterStats`] (queueing delay, JCT, rejections,
//!   makespan, aggregate samples/sec, per-GPU utilization, per-link
//!   traffic) whose JSON is byte-identical across same-workload runs.
//!   With [`ClusterConfig::interconnect`] set, all copy traffic — the
//!   per-tensor swap timeline each job recorded during validation, gang
//!   allreduces
//!   (`2·(k−1)/k ×` gradient bytes per replica, ring schedule), and
//!   checkpoint/restore copies — routes over a shared finite-bandwidth
//!   fabric ([`capuchin_sim::Interconnect`]), so concurrent transfers
//!   queue and stretch co-resident iterations instead of overlapping for
//!   free. With [`ClusterConfig::preemption`] on, a
//!   high-effective-priority arrival that fits nowhere
//!   checkpoint-preempts the lowest-priority resident job (a gang is
//!   evicted whole or not at all) — its replay state is copied to the
//!   host, its reservations are released, and it resumes later from the
//!   saved iteration (the cluster-level mirror of
//!   [`capuchin_executor::Engine::snapshot`]). With
//!   [`ClusterConfig::elastic`] on, a job marked [`JobSpec::elastic`] that
//!   fits nowhere at its full batch is admitted at a reduced batch
//!   (bisected down a halving ladder, floored at
//!   [`ClusterConfig::min_batch_fraction`]) with its iteration count
//!   extended so total samples trained is preserved exactly, and re-grows
//!   toward the full batch at completed-iteration boundaries when
//!   headroom frees up — paying the same checkpoint/restore copy costs
//!   preemption models.
//!
//! The simulation core is **online**: [`Cluster::submit`],
//! [`Cluster::cancel`], [`Cluster::step`]/[`Cluster::advance_to`],
//! [`Cluster::status`] and [`Cluster::drain`] let a driver feed jobs in
//! over time and observe lifecycle events ([`JobEvent`]) as they happen —
//! `capuchin-serve` builds a streaming TCP daemon on exactly this API.
//! [`Cluster::run`]/[`Cluster::run_traced`] are thin batch wrappers
//! (submit everything, drain to idle) and produce byte-identical JSON to
//! any interleaving of the online calls with the same submission
//! sequence.
//!
//! Configurations are built with [`ClusterConfig::builder`], which
//! validates every knob up front ([`ConfigError`]):
//!
//! ```
//! use capuchin_cluster::{synthetic_jobs, Cluster, ClusterConfig};
//!
//! let cfg = ClusterConfig::builder()
//!     .gpus(2)
//!     .elastic(true)
//!     .min_batch_fraction(0.25)
//!     .build()
//!     .unwrap();
//! let jobs = synthetic_jobs(3, 1, 0.5);
//! let stats = Cluster::new(cfg).run(&jobs);
//! assert_eq!(stats.submitted, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cluster;
mod config;
mod elastic;
pub mod headroom;
mod inference;
pub mod job;
pub mod parse;
pub mod policy;
pub mod predict;
mod predicted;
mod session;
mod settle;
pub mod stats;
pub mod strategy;

pub use crate::admission::{
    min_feasible_budget, Admission, AdmissionMode, AdmissionSource, JobNeeds, ReplayIter,
    ReplayTransfer,
};
pub use crate::cluster::{
    CancelError, Cluster, ClusterConfig, ClusterConfigBuilder, ConfigError, JobId,
};
pub use crate::headroom::GpuPool;
pub use crate::job::{
    load_jobs, parse_memory, synthetic_jobs, synthetic_mixed_jobs, JobFileError, JobPolicy,
    JobSpec, PredictFeatures,
};
pub use crate::parse::{parse_on_off, ParseEnumError};
pub use crate::policy::{CostClass, PolicyDescriptor, REGISTRY};
pub use crate::predict::{FootprintPredictor, FootprintSample, PredictKey, PredictedFootprint};
pub use crate::stats::{
    ClusterStats, ClusterTransfer, GpuStats, JobEvent, JobEventKind, JobOutcome, JobState,
    JobStats, JobStatus, STATS_SCHEMA_VERSION,
};
pub use crate::strategy::{
    aging_permille, effective_priority_permille, threshold_fits, BestFit, CandidateJob,
    FifoFirstFit, FitsFn, GpuView, PlacementStrategy, StrategyKind,
};
