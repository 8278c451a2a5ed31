//! Job descriptions: the unit of work the cluster schedules.

use capuchin_models::ModelKind;
use serde::{Deserialize, Serialize};

use crate::parse::ParseEnumError;

/// The memory policy a job requests for its own execution. Jobs admitted
/// *shrunk* run under the plan-capable policy their registry row's
/// `shrunk_runs_as` names (a plan is what makes the smaller budget
/// viable). Per-policy facts — spellings, admission cost class,
/// constructors — live in [`crate::policy::REGISTRY`]; this enum only
/// enumerates the variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobPolicy {
    /// Framework-default behavior: no memory management, OOM on overflow.
    TfOri,
    /// Capuchin's swap/recompute management (measured, planned).
    Capuchin,
    /// Dynamic Tensor Rematerialization: online evict-by-`h-DTR`, no
    /// measured iteration — admitted on the footprint estimate alone.
    Dtr,
    /// DELTA-style planning: Capuchin's measured profile with swap and
    /// recompute candidates interleaved by priced cost instead of
    /// swaps-first.
    Delta,
}

impl JobPolicy {
    /// Accepted [`std::str::FromStr`] spellings, derived from the
    /// registry (canonical spelling first within each policy).
    pub const ACCEPTED: &'static [&'static str] = &crate::policy::ACCEPTED_SPELLINGS;

    /// CLI/stats name (the registry row's canonical spelling).
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }
}

impl std::fmt::Display for JobPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for JobPolicy {
    type Err = ParseEnumError;

    fn from_str(s: &str) -> Result<JobPolicy, ParseEnumError> {
        crate::policy::REGISTRY
            .iter()
            .find(|d| d.accepted.contains(&s))
            .map(|d| d.policy)
            .ok_or_else(|| ParseEnumError::unknown("job policy", s, Self::ACCEPTED))
    }
}

// Hand-written (the derive would only accept variant names): job files
// written before the registry existed spell policies as the wire variant
// name (`"TfOri"`), new files may use the canonical CLI spelling
// (`"tf-ori"`) — both parse arms come from the registry.
impl serde::Deserialize for JobPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a string for `JobPolicy`"))?;
        crate::policy::REGISTRY
            .iter()
            .find(|d| d.wire == s || d.accepted.contains(&s))
            .map(|d| d.policy)
            .ok_or_else(|| serde::Error::custom("unknown or malformed variant of `JobPolicy`"))
    }
}

/// What kind of work a job is: throughput-oriented training or
/// latency-sensitive inference serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobClass {
    /// Forward + backward, a fixed iteration count, throughput-metric.
    /// Workload files written before job classes existed parse as this.
    Training,
    /// Forward-only serving: a request-arrival process instead of fixed
    /// iterations, a per-request latency SLO, and KV-cache-like state
    /// that grows with concurrent in-flight requests.
    Inference,
}

impl JobClass {
    /// CLI/stats name.
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Training => "training",
            JobClass::Inference => "inference",
        }
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One training job submitted to the cluster.
///
/// `gpus > 1` makes the job a data-parallel *gang*: `gpus` replicas, each
/// training the per-replica slice `batch / gpus` of the mini-batch, are
/// admitted to `gpus` devices atomically (all or none) and synchronize
/// gradients with a ring allreduce at every iteration boundary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Display name, unique per workload.
    pub name: String,
    /// Which model to train.
    pub model: ModelKind,
    /// Global mini-batch size (split evenly across the gang's replicas).
    pub batch: usize,
    /// Data-parallel replicas: the number of GPUs the job needs at once.
    /// 1 is an ordinary single-device job.
    pub gpus: usize,
    /// Requested execution policy.
    pub policy: JobPolicy,
    /// Training iterations to run.
    pub iters: u64,
    /// Scheduling priority (higher = more urgent; best-fit placement
    /// ages it while the job waits).
    pub priority: u32,
    /// Submission time in seconds on the simulated cluster clock.
    pub arrival_time: f64,
    /// Whether the cluster may elastically re-batch this job: admit it at
    /// a reduced batch when the full batch fits nowhere (extending its
    /// iteration count so total samples trained is preserved) and re-grow
    /// the batch when headroom frees up. Takes effect only when the
    /// cluster itself runs with elastic re-batching enabled. Workload
    /// files written before this field existed parse as `false`.
    pub elastic: bool,
    /// Job class. Workload files written before inference jobs existed
    /// parse as [`JobClass::Training`].
    pub class: JobClass,
    /// Inference only: mean request arrival rate in requests per second
    /// (arrivals are Poisson with deterministic seeded jitter). Ignored
    /// for training jobs.
    pub request_rate: f64,
    /// Inference only: per-request latency SLO in milliseconds, measured
    /// arrival-to-served on the simulated clock. Ignored for training.
    pub slo_ms: f64,
    /// Inference only: total requests the job serves before completing
    /// (the inference analogue of `iters`). Ignored for training.
    pub requests: u64,
    /// Inference only: KV-cache-like bytes reserved per in-flight request
    /// on every device the job holds; grows and shrinks with concurrency
    /// and is priced through admission so the headroom index always sees
    /// it. Ignored for training.
    pub kv_bytes_per_request: u64,
    /// Inference only: the most requests the job will batch into one
    /// serving round (and thus the most KV growth admission prices).
    /// Clamped to at least 1 at runtime. Ignored for training.
    pub max_inflight: usize,
}

/// A neutral single-GPU training job — the base for struct-update
/// construction in tests and code-built workloads, mirroring the
/// parse-time defaults of the optional fields.
impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            name: String::new(),
            model: ModelKind::Vgg16,
            batch: 1,
            gpus: 1,
            policy: JobPolicy::Capuchin,
            iters: 1,
            priority: 0,
            arrival_time: 0.0,
            elastic: false,
            class: JobClass::Training,
            request_rate: 0.0,
            slo_ms: 0.0,
            requests: 0,
            kv_bytes_per_request: 0,
            max_inflight: 4,
        }
    }
}

impl JobSpec {
    /// The latest accepted `arrival_time`, in seconds (about 31.7 years).
    /// The nanosecond clock saturates near 1.8 × 10¹⁰ s, so a later
    /// arrival would leave no room for the job's own iterations.
    pub const MAX_ARRIVAL_S: f64 = 1e9;

    /// The mini-batch slice each replica trains: `batch / gpus`, rounded
    /// up and never below 1.
    pub fn replica_batch(&self) -> usize {
        self.batch.div_ceil(self.gpus.max(1)).max(1)
    }

    /// The per-replica slice of an elastically reduced global batch `b`.
    pub fn replica_batch_at(&self, b: usize) -> usize {
        b.div_ceil(self.gpus.max(1)).max(1)
    }

    /// Marks the job elastic (builder-style, for workloads written in
    /// code).
    pub fn with_elastic(mut self) -> JobSpec {
        self.elastic = true;
        self
    }

    /// Whether this is an inference-serving job.
    pub fn is_inference(&self) -> bool {
        self.class == JobClass::Inference
    }

    /// The KV bytes one fully licensed serving round can pin per replica:
    /// `max_inflight × kv_bytes_per_request`, the exact structural term
    /// admission adds on top of the base forward needs. Zero for
    /// training jobs.
    pub fn kv_round_bytes(&self) -> u64 {
        if !self.is_inference() {
            return 0;
        }
        (self.max_inflight.max(1) as u64).saturating_mul(self.kv_bytes_per_request)
    }

    /// The SLO in integer nanoseconds (0 for training jobs or a
    /// non-positive/non-finite `slo_ms`); all latency comparisons happen
    /// in this integer space.
    pub fn slo_nanos(&self) -> u64 {
        if self.class != JobClass::Inference || !self.slo_ms.is_finite() || self.slo_ms <= 0.0 {
            return 0;
        }
        (self.slo_ms * 1_000_000.0) as u64
    }

    /// Converts the job into an inference job (builder-style, for
    /// workloads written in code): forward-only serving of `requests`
    /// Poisson arrivals at `request_rate` req/s under an `slo_ms`
    /// millisecond latency SLO, with `kv_bytes_per_request` of growing
    /// KV state and at most `max_inflight` requests per serving round.
    pub fn into_inference(
        mut self,
        request_rate: f64,
        slo_ms: f64,
        requests: u64,
        kv_bytes_per_request: u64,
        max_inflight: usize,
    ) -> JobSpec {
        self.class = JobClass::Inference;
        self.elastic = false;
        self.request_rate = request_rate;
        self.slo_ms = slo_ms;
        self.requests = requests;
        self.kv_bytes_per_request = kv_bytes_per_request;
        self.max_inflight = max_inflight;
        self
    }

    /// Checks that the spec could ever be scheduled on a cluster of
    /// `cluster_gpus` devices whose widest interconnect link domain spans
    /// `link_domain_gpus` devices (pass `cluster_gpus` for a flat
    /// interconnect; it only constrains inference gangs). Every input
    /// boundary — job files, wire submissions — runs this one validator.
    ///
    /// # Errors
    ///
    /// [`JobFileError::BadArrival`] / [`JobFileError::ZeroBatch`] /
    /// [`JobFileError::ZeroIters`] for a job with no place on the clock or
    /// no work to do, [`JobFileError::ZeroGpus`] /
    /// [`JobFileError::GangTooLarge`] for gang sizes that could never be
    /// placed,
    /// [`JobFileError::ElasticFloorTooSmall`] for elastic gangs whose batch
    /// floor would drive the per-replica batch below 1, and
    /// [`JobFileError::BadSlo`] / [`JobFileError::BadRequestRate`] /
    /// [`JobFileError::ZeroRequests`] / [`JobFileError::ElasticInference`] /
    /// [`JobFileError::InferenceGangTooWide`] for inference jobs whose
    /// arrival process, SLO, or gang shape could never be served (all
    /// caught here instead of surfacing as a late scheduler panic).
    pub fn validate(
        &self,
        cluster_gpus: usize,
        link_domain_gpus: usize,
    ) -> Result<(), JobFileError> {
        if !(0.0..=JobSpec::MAX_ARRIVAL_S).contains(&self.arrival_time) {
            return Err(JobFileError::BadArrival {
                job: self.name.clone(),
                arrival_time: self.arrival_time,
            });
        }
        if self.batch == 0 {
            return Err(JobFileError::ZeroBatch {
                job: self.name.clone(),
            });
        }
        if self.iters == 0 {
            return Err(JobFileError::ZeroIters {
                job: self.name.clone(),
            });
        }
        if self.gpus == 0 {
            return Err(JobFileError::ZeroGpus {
                job: self.name.clone(),
            });
        }
        if self.gpus > cluster_gpus {
            return Err(JobFileError::GangTooLarge {
                job: self.name.clone(),
                gpus: self.gpus,
                cluster: cluster_gpus,
            });
        }
        if self.elastic {
            let floor = *capuchin::elastic_batches(self.batch)
                .last()
                .expect("ladder is never empty");
            if floor < self.gpus {
                return Err(JobFileError::ElasticFloorTooSmall {
                    job: self.name.clone(),
                    floor,
                    gpus: self.gpus,
                });
            }
        }
        if self.is_inference() {
            if !self.slo_ms.is_finite() || self.slo_ms <= 0.0 {
                return Err(JobFileError::BadSlo {
                    job: self.name.clone(),
                    slo_ms: self.slo_ms,
                });
            }
            if !self.request_rate.is_finite() || self.request_rate <= 0.0 {
                return Err(JobFileError::BadRequestRate {
                    job: self.name.clone(),
                    rate: self.request_rate,
                });
            }
            if self.requests == 0 {
                return Err(JobFileError::ZeroRequests {
                    job: self.name.clone(),
                });
            }
            if self.elastic {
                return Err(JobFileError::ElasticInference {
                    job: self.name.clone(),
                });
            }
            if self.gpus > link_domain_gpus {
                return Err(JobFileError::InferenceGangTooWide {
                    job: self.name.clone(),
                    gpus: self.gpus,
                    domain: link_domain_gpus,
                });
            }
        }
        Ok(())
    }
}

// Hand-written so `gpus` defaults to 1, `elastic` to false, and the
// inference fields to training-shaped defaults: workload files written
// before gangs, elastic re-batching, or job classes existed omit the
// keys and must keep parsing byte-identically. (The vendored serde
// derive has no `#[serde(default)]`.)
impl serde::Deserialize for JobSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::de::field;
        Ok(JobSpec {
            name: String::from_value(field(v, "name")?)?,
            model: ModelKind::from_value(field(v, "model")?)?,
            batch: usize::from_value(field(v, "batch")?)?,
            gpus: match v.get("gpus") {
                Some(g) => usize::from_value(g)?,
                None => 1,
            },
            policy: JobPolicy::from_value(field(v, "policy")?)?,
            iters: u64::from_value(field(v, "iters")?)?,
            priority: u32::from_value(field(v, "priority")?)?,
            arrival_time: f64::from_value(field(v, "arrival_time")?)?,
            elastic: match v.get("elastic") {
                Some(e) => bool::from_value(e)?,
                None => false,
            },
            class: match v.get("class") {
                Some(c) => JobClass::from_value(c)?,
                None => JobClass::Training,
            },
            request_rate: match v.get("request_rate") {
                Some(r) => f64::from_value(r)?,
                None => 0.0,
            },
            slo_ms: match v.get("slo_ms") {
                Some(s) => f64::from_value(s)?,
                None => 0.0,
            },
            requests: match v.get("requests") {
                Some(r) => u64::from_value(r)?,
                None => 0,
            },
            kv_bytes_per_request: match v.get("kv_bytes_per_request") {
                Some(k) => u64::from_value(k)?,
                None => 0,
            },
            max_inflight: match v.get("max_inflight") {
                Some(m) => usize::from_value(m)?,
                None => 4,
            },
        })
    }
}

/// Why a workload file was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFileError {
    /// The file is not a JSON array of job objects.
    Parse(String),
    /// The file parsed but contains no jobs.
    Empty,
    /// A job's arrival time is negative, not finite, or past
    /// [`JobSpec::MAX_ARRIVAL_S`]: the simulated clock starts at zero and
    /// cannot schedule an instant beyond its range.
    BadArrival {
        /// Name of the offending job.
        job: String,
        /// The rejected arrival time, in seconds.
        arrival_time: f64,
    },
    /// A job asked for a batch of zero samples: it has nothing to train
    /// or serve.
    ZeroBatch {
        /// Name of the offending job.
        job: String,
    },
    /// A job asked for zero iterations: it would count as completed
    /// without ever running.
    ZeroIters {
        /// Name of the offending job.
        job: String,
    },
    /// A job asked for zero GPUs — a gang of nothing can never run.
    ZeroGpus {
        /// Name of the offending job.
        job: String,
    },
    /// A job's gang is wider than the cluster and could never be placed.
    GangTooLarge {
        /// Name of the offending job.
        job: String,
        /// GPUs the job asked for.
        gpus: usize,
        /// GPUs the cluster has.
        cluster: usize,
    },
    /// An elastic gang's batch floor (a quarter of the batch) is
    /// narrower than the gang itself, which would drive the per-replica
    /// batch below one sample — the replica clamp would then silently
    /// train *more* samples than the job asked for.
    ElasticFloorTooSmall {
        /// Name of the offending job.
        job: String,
        /// The elastic batch floor (`batch.div_ceil(4)`).
        floor: usize,
        /// Replicas the floor must still cover with ≥ 1 sample each.
        gpus: usize,
    },
    /// An inference job's latency SLO is zero, negative, or not finite —
    /// every request would count as missed (or none could ever miss).
    BadSlo {
        /// Name of the offending job.
        job: String,
        /// The rejected SLO value, in milliseconds.
        slo_ms: f64,
    },
    /// An inference job's request rate is zero, negative, or not finite —
    /// no arrival process can be derived from it.
    BadRequestRate {
        /// Name of the offending job.
        job: String,
        /// The rejected rate, in requests per second.
        rate: f64,
    },
    /// An inference job asked to serve zero requests: it would hold its
    /// reservation forever without ever completing.
    ZeroRequests {
        /// Name of the offending job.
        job: String,
    },
    /// A job asked for both `"class": "Inference"` and `"elastic": true`.
    /// Inference jobs absorb load through KV concurrency, not batch
    /// re-sizing; the elastic ladder only applies to training.
    ElasticInference {
        /// Name of the offending job.
        job: String,
    },
    /// An inference gang is wider than one interconnect link domain.
    /// Serving rounds synchronize across the gang every round, so
    /// crossing a domain boundary would put the inter-domain hop on every
    /// request's critical path.
    InferenceGangTooWide {
        /// Name of the offending job.
        job: String,
        /// GPUs the job asked for.
        gpus: usize,
        /// Widest link domain the cluster offers.
        domain: usize,
    },
}

impl std::fmt::Display for JobFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFileError::Parse(msg) => write!(f, "invalid job file: {msg}"),
            JobFileError::Empty => write!(f, "job file contains no jobs"),
            JobFileError::BadArrival { job, arrival_time } => write!(
                f,
                "job `{job}`: arrival_time must be a number of seconds from 0 \
                 to {}, got {arrival_time}",
                JobSpec::MAX_ARRIVAL_S
            ),
            JobFileError::ZeroBatch { job } => {
                write!(
                    f,
                    "job `{job}` requests batch 0; a job needs at least 1 sample"
                )
            }
            JobFileError::ZeroIters { job } => {
                write!(
                    f,
                    "job `{job}` requests 0 iterations; a job needs at least 1"
                )
            }
            JobFileError::ZeroGpus { job } => {
                write!(f, "job `{job}` requests 0 GPUs; a gang needs at least 1")
            }
            JobFileError::GangTooLarge { job, gpus, cluster } => write!(
                f,
                "job `{job}` requests a {gpus}-GPU gang but the cluster has only {cluster} GPUs"
            ),
            JobFileError::ElasticFloorTooSmall { job, floor, gpus } => write!(
                f,
                "elastic job `{job}`: the minimum-batch floor {floor} cannot cover \
                 {gpus} replicas with at least 1 sample each (the floor is a quarter \
                 of the batch: raise the batch or shrink the gang)"
            ),
            JobFileError::BadSlo { job, slo_ms } => write!(
                f,
                "inference job `{job}`: slo_ms must be a positive finite number of \
                 milliseconds, got {slo_ms}"
            ),
            JobFileError::BadRequestRate { job, rate } => write!(
                f,
                "inference job `{job}`: request_rate must be a positive finite number \
                 of requests per second, got {rate}"
            ),
            JobFileError::ZeroRequests { job } => write!(
                f,
                "inference job `{job}`: requests must be at least 1 (the job \
                 completes after serving them all)"
            ),
            JobFileError::ElasticInference { job } => write!(
                f,
                "inference job `{job}` cannot be elastic: set \"elastic\": false \
                 (inference absorbs load through max_inflight concurrency, not \
                 batch re-sizing)"
            ),
            JobFileError::InferenceGangTooWide { job, gpus, domain } => write!(
                f,
                "inference job `{job}` requests a {gpus}-GPU gang but the widest \
                 interconnect link domain has {domain} GPUs; inference gangs must \
                 fit one domain so no request crosses the inter-domain hop"
            ),
        }
    }
}

impl std::error::Error for JobFileError {}

/// Parses a workload file — a JSON array of [`JobSpec`] objects — and
/// validates every spec with [`JobSpec::validate`]. A missing `"gpus"`
/// key means a single-GPU job; a missing `"elastic"` key means a rigid
/// one; a missing `"class"` key means a training job, so pre-existing
/// workload files keep parsing byte-identically.
///
/// # Errors
///
/// [`JobFileError::Parse`] on malformed JSON or a bad job shape,
/// [`JobFileError::Empty`] on an empty array, and the first
/// [`JobSpec::validate`] error of any spec.
pub fn load_jobs(
    json: &str,
    cluster_gpus: usize,
    link_domain_gpus: usize,
) -> Result<Vec<JobSpec>, JobFileError> {
    let jobs: Vec<JobSpec> =
        serde_json::from_str(json).map_err(|e| JobFileError::Parse(e.to_string()))?;
    if jobs.is_empty() {
        return Err(JobFileError::Empty);
    }
    for job in &jobs {
        job.validate(cluster_gpus, link_domain_gpus)?;
    }
    Ok(jobs)
}

/// Parses a human-style memory size: `16GiB`, `800 MiB`, `64KiB`, `2gb`,
/// or raw bytes. Binary suffixes (KiB/MiB/GiB) are powers of 1024;
/// decimal suffixes (kb/mb/gb) are powers of 1000. Case-insensitive,
/// embedded whitespace tolerated.
///
/// # Errors
///
/// Returns a message naming the offending input when it is not a
/// positive size.
pub fn parse_memory(s: &str) -> Result<u64, String> {
    let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    let lower = compact.to_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("gib") {
        (n, 1u64 << 30)
    } else if let Some(n) = lower.strip_suffix("mib") {
        (n, 1u64 << 20)
    } else if let Some(n) = lower.strip_suffix("kib") {
        (n, 1u64 << 10)
    } else if let Some(n) = lower.strip_suffix("gb") {
        (n, 1_000_000_000)
    } else if let Some(n) = lower.strip_suffix("mb") {
        (n, 1_000_000)
    } else if let Some(n) = lower.strip_suffix("kb") {
        (n, 1_000)
    } else {
        (lower.as_str(), 1)
    };
    let v: f64 = num.parse().map_err(|_| {
        format!(
            "invalid memory size `{s}` (expected e.g. 16GiB, 800 MiB, 64KiB, 2gb, or raw bytes)"
        )
    })?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("memory size `{s}` must be a positive number"));
    }
    Ok((v * mult as f64) as u64)
}

/// A deterministic splitmix64 generator for synthetic workloads.
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The synthetic workload menu: mixes comfortable footprints with jobs
/// that oversubscribe a 16 GiB device (which tf-ori admission must
/// reject but Capuchin admission can shrink).
const MENU: &[(ModelKind, &[usize])] = &[
    (ModelKind::Vgg16, &[64, 128, 208, 256, 320]),
    (ModelKind::ResNet50, &[32, 64, 128, 256]),
    (ModelKind::InceptionV3, &[32, 64, 128]),
    (ModelKind::DenseNet121, &[32, 64]),
];

/// Generates `n` jobs with Poisson arrivals (inverse-CDF exponential
/// inter-arrival times, mean `mean_interarrival_secs`) from a fixed seed.
/// Identical `(n, seed, mean)` always produce an identical workload.
pub fn synthetic_jobs(n: usize, seed: u64, mean_interarrival_secs: f64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut clock = 0.0f64;
    (0..n)
        .map(|i| {
            // Exponential inter-arrival via inverse CDF; clamp the unit
            // sample away from 0 so ln() stays finite.
            let u = rng.unit_f64().max(1e-12);
            clock += -u.ln() * mean_interarrival_secs;
            let (model, batches) = MENU[rng.below(MENU.len() as u64) as usize];
            let batch = batches[rng.below(batches.len() as u64) as usize];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: if rng.below(5) == 0 {
                    JobPolicy::TfOri
                } else {
                    JobPolicy::Capuchin
                },
                iters: 3 + rng.below(6),
                priority: rng.below(3) as u32,
                arrival_time: clock,
                elastic: false,
                class: JobClass::Training,
                request_rate: 0.0,
                slo_ms: 0.0,
                requests: 0,
                kv_bytes_per_request: 0,
                max_inflight: 4,
            }
        })
        .collect()
}

/// The mixed-workload batch menu for scale benchmarking. Deliberately
/// small: gang widths halve a large global batch back onto the same
/// per-replica batches the singles use, so admission measuring collapses
/// onto a handful of cached `(model, replica batch)` runs even at 100k
/// jobs.
const MIXED_BATCHES: &[usize] = &[32, 64, 128];

/// Models drawn by [`synthetic_mixed_jobs`] — the cheaper half of the
/// paper's zoo, keeping one-time graph builds small next to the
/// scheduling work a scale run is meant to measure.
const MIXED_MODELS: &[ModelKind] = &[
    ModelKind::Vgg16,
    ModelKind::ResNet50,
    ModelKind::InceptionV3,
    ModelKind::DenseNet121,
];

/// Generates `n` jobs of mixed shape for scale benchmarking: roughly 70%
/// rigid single-GPU jobs, 15% data-parallel gangs (width 2, or 4 when the
/// cluster has at least 4 devices), and 15% elastic single-GPU jobs, with
/// Poisson arrivals at mean `mean_interarrival_secs` and priorities 0–3.
/// Mostly `tf-ori` policy with a Capuchin minority, mirroring a fleet
/// where a few jobs opt into memory management. Identical
/// `(n, cluster_gpus, seed, mean)` always produce an identical workload;
/// every gang fits a `cluster_gpus`-wide cluster.
pub fn synthetic_mixed_jobs(
    n: usize,
    cluster_gpus: usize,
    seed: u64,
    mean_interarrival_secs: f64,
) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut clock = 0.0f64;
    (0..n)
        .map(|i| {
            let u = rng.unit_f64().max(1e-12);
            clock += -u.ln() * mean_interarrival_secs;
            let model = MIXED_MODELS[rng.below(MIXED_MODELS.len() as u64) as usize];
            let class = rng.below(100);
            let (gpus, batch, elastic) = if class < 70 || cluster_gpus < 2 {
                (1, MIXED_BATCHES[rng.below(3) as usize], false)
            } else if class < 85 {
                // Gangs: width 2 at global batch 64/128 (replica batch
                // 32/64), width 4 at 128 (replica batch 32).
                if cluster_gpus >= 4 && rng.below(2) == 0 {
                    (4, 128, false)
                } else {
                    (2, if rng.below(2) == 0 { 64 } else { 128 }, false)
                }
            } else {
                // Elastic singles at the top batch: the halving ladder
                // lands back on the smaller menu batches.
                (1, 128, true)
            };
            JobSpec {
                name: format!("mix{i:05}"),
                model,
                batch,
                gpus,
                policy: if rng.below(5) == 0 {
                    JobPolicy::Capuchin
                } else {
                    JobPolicy::TfOri
                },
                iters: 6 + rng.below(5),
                priority: rng.below(4) as u32,
                arrival_time: clock,
                elastic,
                class: JobClass::Training,
                request_rate: 0.0,
                slo_ms: 0.0,
                requests: 0,
                kv_bytes_per_request: 0,
                max_inflight: 4,
            }
        })
        .collect()
}

/// Inference batch/model menu: small replica batches so forward-only
/// footprints stay modest and the KV growth is what exercises headroom.
const INFER_MODELS: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet50, 32),
    (ModelKind::InceptionV3, 32),
    (ModelKind::DenseNet121, 32),
];

/// Generates `n` inference-serving jobs with Poisson job arrivals (mean
/// `mean_interarrival_secs`) from a fixed seed. Each job serves a burst
/// of requests at `request_rate` req/s under a few-hundred-millisecond
/// SLO, holding KV-cache state per in-flight request. Identical
/// `(n, seed, mean, request_rate)` always produce an identical workload;
/// every job is a single-GPU job so it fits any link domain.
pub fn synthetic_inference_jobs(
    n: usize,
    seed: u64,
    mean_interarrival_secs: f64,
    request_rate: f64,
) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut clock = 0.0f64;
    (0..n)
        .map(|i| {
            let u = rng.unit_f64().max(1e-12);
            clock += -u.ln() * mean_interarrival_secs;
            let (model, batch) = INFER_MODELS[rng.below(INFER_MODELS.len() as u64) as usize];
            JobSpec {
                name: format!("inf{i:03}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::Capuchin,
                iters: 1,
                priority: 1 + rng.below(2) as u32,
                arrival_time: clock,
                elastic: false,
                class: JobClass::Inference,
                request_rate,
                slo_ms: 200.0 + 100.0 * rng.below(4) as f64,
                requests: 24 + rng.below(25),
                kv_bytes_per_request: (192 + 64 * rng.below(4)) << 20,
                max_inflight: 2 + rng.below(3) as usize,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sizes_parse() {
        assert_eq!(parse_memory("16GiB"), Ok(16 << 30));
        assert_eq!(parse_memory("16 GiB"), Ok(16 << 30));
        assert_eq!(parse_memory("800MiB"), Ok(800 << 20));
        assert_eq!(parse_memory("64KiB"), Ok(64 << 10));
        assert_eq!(parse_memory("2gb"), Ok(2_000_000_000));
        assert_eq!(parse_memory("1 kb"), Ok(1_000));
        assert_eq!(parse_memory("12345"), Ok(12_345));
        assert_eq!(parse_memory("1.5GiB"), Ok(3 << 29));
    }

    #[test]
    fn memory_size_errors_name_the_input() {
        let err = parse_memory("lots").unwrap_err();
        assert!(err.contains("`lots`"), "{err}");
        assert!(parse_memory("-5GiB").is_err());
        assert!(parse_memory("0").is_err());
        assert!(parse_memory("").is_err());
    }

    #[test]
    fn synthetic_workloads_are_deterministic() {
        let a = synthetic_jobs(16, 1, 2.0);
        let b = synthetic_jobs(16, 1, 2.0);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // Arrivals are sorted and strictly advancing.
        for w in a.windows(2) {
            assert!(w[0].arrival_time <= w[1].arrival_time);
        }
        // A different seed gives a different workload.
        let c = synthetic_jobs(16, 2, 2.0);
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    #[test]
    fn mixed_workloads_are_deterministic_and_well_shaped() {
        let a = synthetic_mixed_jobs(300, 8, 3, 0.5);
        let b = synthetic_mixed_jobs(300, 8, 3, 0.5);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        for w in a.windows(2) {
            assert!(w[0].arrival_time <= w[1].arrival_time);
        }
        // All three classes appear, every gang fits the cluster, and the
        // shape menu stays small (the scale bench depends on admission
        // caching collapsing the distinct (model, replica batch) pairs).
        assert!(a.iter().any(|j| j.gpus > 1));
        assert!(a.iter().any(|j| j.elastic));
        assert!(a.iter().any(|j| j.gpus == 1 && !j.elastic));
        assert!(a.iter().all(|j| j.gpus >= 1 && j.gpus <= 8));
        assert!(a.iter().all(|j| j.iters >= 6));
        let shapes: std::collections::BTreeSet<_> =
            a.iter().map(|j| (j.model, j.replica_batch())).collect();
        assert!(shapes.len() <= MIXED_MODELS.len() * MIXED_BATCHES.len());
        // A 1-GPU cluster degrades to singles only.
        assert!(synthetic_mixed_jobs(100, 1, 3, 0.5)
            .iter()
            .all(|j| j.gpus == 1));
    }

    #[test]
    fn job_files_round_trip() {
        let jobs = synthetic_jobs(4, 7, 1.0);
        let json = serde_json::to_string_pretty(&jobs).unwrap();
        let back = load_jobs(&json, 4, 4).unwrap();
        assert_eq!(
            serde_json::to_string(&jobs).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        assert_eq!(load_jobs("[]", 4, 4), Err(JobFileError::Empty));
        assert!(matches!(
            load_jobs("not json", 4, 4),
            Err(JobFileError::Parse(_))
        ));
    }

    #[test]
    fn missing_gpus_key_means_single_gpu() {
        // A pre-gang workload file: no "gpus" key anywhere.
        let json = r#"[{
            "name": "legacy", "model": "ResNet50", "batch": 64,
            "policy": "Capuchin", "iters": 3, "priority": 0,
            "arrival_time": 0.0
        }]"#;
        let jobs = load_jobs(json, 2, 2).unwrap();
        assert_eq!(jobs[0].gpus, 1);
        assert_eq!(jobs[0].replica_batch(), 64);
        // ...and no "elastic" key means a rigid job.
        assert!(!jobs[0].elastic);
        // ...and no "class" key means a training job with inert
        // inference fields.
        assert_eq!(jobs[0].class, JobClass::Training);
        assert!(!jobs[0].is_inference());
        assert_eq!(jobs[0].slo_nanos(), 0);
    }

    #[test]
    fn jobs_without_a_time_or_work_are_rejected() {
        let spec = |arrival: &str, batch: usize, iters: u64| {
            format!(
                r#"[{{"name": "j", "model": "Vgg16", "batch": {batch},
                     "policy": "TfOri", "iters": {iters}, "priority": 0,
                     "arrival_time": {arrival}}}]"#
            )
        };
        assert!(matches!(
            load_jobs(&spec("1e400", 8, 1), 4, 4),
            Err(JobFileError::BadArrival { arrival_time, .. }) if arrival_time.is_infinite()
        ));
        // Past the clock's range: the nanosecond clock would saturate.
        let err = load_jobs(&spec("1e12", 8, 1), 4, 4).unwrap_err();
        assert_eq!(
            err,
            JobFileError::BadArrival {
                job: "j".into(),
                arrival_time: 1e12
            }
        );
        assert!(err.to_string().contains("from 0 to 1000000000"), "{err}");
        assert!(load_jobs(&spec("1e9", 8, 1), 4, 4).is_ok());
        assert_eq!(
            load_jobs(&spec("-3.0", 8, 1), 4, 4),
            Err(JobFileError::BadArrival {
                job: "j".into(),
                arrival_time: -3.0
            })
        );
        assert_eq!(
            load_jobs(&spec("0.0", 0, 1), 4, 4),
            Err(JobFileError::ZeroBatch { job: "j".into() })
        );
        assert_eq!(
            load_jobs(&spec("0.0", 8, 0), 4, 4),
            Err(JobFileError::ZeroIters { job: "j".into() })
        );
        assert!(load_jobs(&spec("0.0", 1, 1), 4, 4).is_ok());
    }

    #[test]
    fn bad_gang_sizes_are_rejected_at_parse_time() {
        let gang = |gpus: usize| {
            format!(
                r#"[{{"name": "g", "model": "Vgg16", "batch": 128, "gpus": {gpus},
                     "policy": "Capuchin", "iters": 2, "priority": 0,
                     "arrival_time": 0.0}}]"#
            )
        };
        assert_eq!(
            load_jobs(&gang(0), 4, 4),
            Err(JobFileError::ZeroGpus { job: "g".into() })
        );
        assert_eq!(
            load_jobs(&gang(8), 4, 4),
            Err(JobFileError::GangTooLarge {
                job: "g".into(),
                gpus: 8,
                cluster: 4
            })
        );
        let err = load_jobs(&gang(8), 4, 4).unwrap_err().to_string();
        assert!(
            err.contains("8-GPU gang") && err.contains("4 GPUs"),
            "{err}"
        );
        assert_eq!(load_jobs(&gang(4), 4, 4).unwrap()[0].gpus, 4);
    }

    #[test]
    fn elastic_jobs_parse_and_bad_floors_are_rejected() {
        let elastic = |batch: usize, gpus: usize| {
            format!(
                r#"[{{"name": "e", "model": "Vgg16", "batch": {batch}, "gpus": {gpus},
                     "policy": "Capuchin", "iters": 2, "priority": 0,
                     "arrival_time": 0.0, "elastic": true}}]"#
            )
        };
        let jobs = load_jobs(&elastic(128, 4), 4, 4).unwrap();
        assert!(jobs[0].elastic);
        assert_eq!(jobs[0].replica_batch_at(32), 8);
        // floor = 8.div_ceil(4) = 2 < 4 replicas: caught at parse time.
        let err = load_jobs(&elastic(8, 4), 4, 4).unwrap_err();
        assert_eq!(
            err,
            JobFileError::ElasticFloorTooSmall {
                job: "e".into(),
                floor: 2,
                gpus: 4
            }
        );
        assert!(err.to_string().contains("a quarter of the batch"), "{err}");
        // The same shape is fine when rigid: the floor never applies.
        let rigid = elastic(8, 4).replace(r#""elastic": true"#, r#""elastic": false"#);
        assert!(load_jobs(&rigid, 4, 4).is_ok());
    }

    #[test]
    fn inference_jobs_parse_and_bad_shapes_are_rejected() {
        let infer = |extra: &str| {
            format!(
                r#"[{{"name": "s", "model": "ResNet50", "batch": 32,
                     "policy": "Capuchin", "iters": 1, "priority": 1,
                     "arrival_time": 0.0, "class": "Inference",
                     "request_rate": 10.0, "slo_ms": 250.0,
                     "requests": 40, "kv_bytes_per_request": 268435456
                     {extra}}}]"#
            )
        };
        let jobs = load_jobs(&infer(""), 4, 2).unwrap();
        assert!(jobs[0].is_inference());
        assert_eq!(jobs[0].slo_nanos(), 250_000_000);
        assert_eq!(jobs[0].max_inflight, 4); // defaulted
                                             // Overrides of keys already in the base document are spelled as
                                             // replacements (the parser keeps the first occurrence of a key).
        let with = |key: &str, val: &str| {
            let base = infer("");
            let start = base.find(&format!("\"{key}\"")).expect("key present");
            let end = base[start..]
                .find([',', '}'])
                .map(|i| start + i)
                .expect("value terminator");
            format!("{}\"{key}\": {val}{}", &base[..start], &base[end..])
        };
        assert_eq!(
            load_jobs(&with("slo_ms", "0.0"), 4, 2),
            Err(JobFileError::BadSlo {
                job: "s".into(),
                slo_ms: 0.0
            })
        );
        assert!(matches!(
            load_jobs(&with("slo_ms", "-5.0"), 4, 2),
            Err(JobFileError::BadSlo { .. })
        ));
        assert_eq!(
            load_jobs(&with("request_rate", "0.0"), 4, 2),
            Err(JobFileError::BadRequestRate {
                job: "s".into(),
                rate: 0.0
            })
        );
        assert_eq!(
            load_jobs(&with("requests", "0"), 4, 2),
            Err(JobFileError::ZeroRequests { job: "s".into() })
        );
        assert_eq!(
            load_jobs(&infer(r#", "elastic": true"#), 4, 2),
            Err(JobFileError::ElasticInference { job: "s".into() })
        );
        // A 4-wide inference gang is fine on a flat 4-GPU cluster but not
        // when the widest link domain holds only 2 devices.
        assert_eq!(
            load_jobs(&infer(r#", "gpus": 4"#), 4, 2),
            Err(JobFileError::InferenceGangTooWide {
                job: "s".into(),
                gpus: 4,
                domain: 2
            })
        );
        assert!(load_jobs(&infer(r#", "gpus": 4"#), 4, 4).is_ok());
        // The same width is fine for training: only inference rounds put
        // the inter-domain hop on a latency-critical path.
        let training = infer(r#", "gpus": 4"#).replace(r#""class": "Inference","#, "");
        assert!(load_jobs(&training, 4, 2).is_ok());
        // Every error message names the job and the accepted shape.
        for bad in [
            with("slo_ms", "0.0"),
            with("request_rate", "0.0"),
            with("requests", "0"),
            infer(r#", "elastic": true"#),
            infer(r#", "gpus": 4"#),
        ] {
            let msg = load_jobs(&bad, 4, 2).unwrap_err().to_string();
            assert!(msg.contains("`s`"), "{msg}");
        }
    }

    #[test]
    fn synthetic_inference_workloads_are_deterministic_and_valid() {
        let a = synthetic_inference_jobs(12, 9, 1.0, 8.0);
        let b = synthetic_inference_jobs(12, 9, 1.0, 8.0);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert!(a.iter().all(|j| j.is_inference()));
        // The generated workload round-trips through the strict parser.
        let json = serde_json::to_string(&a).unwrap();
        assert!(load_jobs(&json, 4, 1).is_ok());
        for w in a.windows(2) {
            assert!(w[0].arrival_time <= w[1].arrival_time);
        }
    }

    #[test]
    fn policy_round_trips_through_fromstr_and_display() {
        for d in crate::policy::REGISTRY {
            let p = d.policy;
            assert_eq!(p.to_string().parse::<JobPolicy>(), Ok(p));
            assert!(JobPolicy::ACCEPTED.contains(&p.name()));
            for spelling in d.accepted {
                assert_eq!(spelling.parse::<JobPolicy>(), Ok(p));
            }
        }
        let err = "keras".parse::<JobPolicy>().unwrap_err();
        assert!(
            err.to_string().contains("tf-ori, capuchin, dtr, delta"),
            "{err}"
        );
    }

    #[test]
    fn policy_round_trips_through_job_file_wire_and_canonical_spellings() {
        for d in crate::policy::REGISTRY {
            // Serialize still emits the wire variant name…
            let json = serde_json::to_string(&d.policy).unwrap();
            assert_eq!(json, format!("{:?}", d.wire));
            // …and job-file parsing accepts both the wire name and the
            // canonical CLI spelling.
            for spelling in [d.wire, d.name] {
                let v = serde_json::from_str(&format!("{spelling:?}")).unwrap();
                assert_eq!(JobPolicy::from_value(&v).unwrap(), d.policy);
            }
        }
        let bad = serde_json::from_str("\"keras\"").unwrap();
        assert!(JobPolicy::from_value(&bad).is_err());
    }

    #[test]
    fn replica_batch_splits_evenly_and_rounds_up() {
        let mut spec = synthetic_jobs(1, 1, 1.0).remove(0);
        spec.batch = 128;
        spec.gpus = 4;
        assert_eq!(spec.replica_batch(), 32);
        spec.gpus = 3;
        assert_eq!(spec.replica_batch(), 43);
        spec.batch = 1;
        spec.gpus = 4;
        assert_eq!(spec.replica_batch(), 1);
    }
}
