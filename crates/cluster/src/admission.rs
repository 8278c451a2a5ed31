//! Memory-aware admission control.
//!
//! Before a job touches a GPU, the controller runs one measured iteration
//! on an unconstrained simulated device ([`capuchin::measure_footprint`])
//! and derives two numbers:
//!
//! * `full` — the ideal live-memory peak: what the job needs to run with
//!   no memory management at all;
//! * `min` — the smallest budget the Policy Maker can plan the job into.
//!   Under [`AdmissionMode::TfOri`] no shrinking exists, so `min == full`.
//!
//! A job is *rejected* (admission-time OOM) when even `min` exceeds a
//! bare GPU's capacity. Otherwise it waits until some GPU has at least
//! `min` bytes of headroom; the reservation granted is
//! `min(headroom, full)` and any shrunk admission is re-validated by an
//! actual engine run at the granted budget — which is what guarantees
//! admitted jobs never abort mid-run.
//!
//! # Cost model
//!
//! The cluster measures each shape once: `AdmissionCache` keeps one
//! `Record` per shape (the measuring run's summary and the mode's floor),
//! from which heuristic budgets, measured budgets and the mispredict
//! check of predicted admissions are all derived.
//!
//! Every [`Admission::validate`] call is a *real engine run* — milliseconds
//! of planner + executor work, not a table lookup. The cluster memoizes
//! results in the same cache by `(shape, budget, policy, shrunk, iters)`,
//! so under
//! tf-ori admission (grants always equal `full`) a whole workload's
//! validations collapse onto its shape menu. Under Capuchin admission the
//! grant is `min(headroom, full)` — an arbitrary byte value — so every
//! distinct shrunk grant is a cache miss that pays a full validation run.
//! That cost is the paper's measured-validation guarantee, inherent
//! per-job simulation payload rather than scheduler overhead; the `scale`
//! scenario of `cluster_bench` therefore clocks the scheduler under tf-ori
//! admission and leaves per-budget validation cost to the admission
//! scenarios. See `DESIGN.md` §13 for the memoization keys.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

pub use capuchin::min_feasible_budget;
use capuchin::{measure_footprint, FootprintEstimate, PlannerConfig};
use capuchin_executor::{Engine, EngineConfig, ExecError, RunStats};
use capuchin_graph::Graph;
use capuchin_models::ModelKind;
use capuchin_sim::{CopyDir, DeviceSpec, Duration, TransferModel};

use crate::job::{JobPolicy, JobSpec};
use crate::parse::ParseEnumError;
use crate::policy::CostClass;
use crate::predict::PredictedFootprint;

/// How the controller predicts a job's device-memory need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Framework-default admission: a job needs its full ideal peak, and
    /// anything larger than the device is rejected outright.
    TfOri,
    /// Capuchin admission: the Policy Maker may shrink the footprint, so
    /// the job only needs the smallest budget a feasible plan covers.
    Capuchin,
}

impl AdmissionMode {
    /// Accepted [`std::str::FromStr`] spellings, canonical first.
    pub const ACCEPTED: &'static [&'static str] = &[
        "tf-ori",
        "capuchin",
        "tf-ori-admission",
        "capuchin-admission",
    ];

    /// CLI/stats name.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionMode::TfOri => "tf-ori-admission",
            AdmissionMode::Capuchin => "capuchin-admission",
        }
    }
}

impl std::fmt::Display for AdmissionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AdmissionMode {
    type Err = ParseEnumError;

    fn from_str(s: &str) -> Result<AdmissionMode, ParseEnumError> {
        match s {
            "tf-ori" | "tf-ori-admission" => Ok(AdmissionMode::TfOri),
            "capuchin" | "capuchin-admission" => Ok(AdmissionMode::Capuchin),
            other => Err(ParseEnumError::unknown(
                "admission mode",
                other,
                Self::ACCEPTED,
            )),
        }
    }
}

/// One recorded transfer of a validated iteration, replayed by the
/// cluster at per-tensor granularity: which tensor moved (`label`), how
/// much, which direction, and *when inside the iteration* it was
/// submitted (`offset` from the iteration's start). The cluster re-issues
/// each transfer on the shared host link at `iteration_start + offset`,
/// so co-resident jobs' prefetches contend with allreduce and checkpoint
/// copies and an individual late prefetch is visible to the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayTransfer {
    /// Request label from the engine (`prefetch:<t>`, `swapout:<t>`,
    /// `swapin:<t>`, `evict:<t>`), shared by every replay that moves the
    /// same tensor the same way.
    pub label: Arc<str>,
    /// The label's interned id: within one [`Admission`] controller,
    /// equal ids mean equal label text. It keys a job's feedback lead.
    pub label_id: u32,
    /// Payload size.
    pub bytes: u64,
    /// Transfer direction.
    pub dir: CopyDir,
    /// Submission instant relative to the iteration's start.
    pub offset: Duration,
}

/// Interned transfer labels: each distinct text gets a dense `u32` id
/// and one shared name, so a replay names a transfer without copying its
/// text. The cluster's admission controller holds one table, which makes
/// ids stable across every replay it builds — a re-validated or
/// re-batched job keeps the feedback leads its labels accumulated.
#[derive(Debug, Clone, Default)]
pub(crate) struct Labels {
    ids: HashMap<Arc<str>, u32>,
}

impl Labels {
    /// The id and shared name of `text`, made on first sight.
    pub(crate) fn intern(&mut self, text: &str) -> (u32, Arc<str>) {
        if let Some((name, &id)) = self.ids.get_key_value(text) {
            return (id, Arc::clone(name));
        }
        let id = u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct labels");
        let name: Arc<str> = Arc::from(text);
        self.ids.insert(Arc::clone(&name), id);
        (id, name)
    }
}

/// One validated iteration the cluster replays on its clock: how long the
/// iteration took on a private device, and the per-tensor swap timeline it
/// recorded while doing so. The cluster re-routes those transfers over the
/// *shared* host link, so one job's swap traffic delays another's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayIter {
    /// Wall time of the iteration on an uncontended device (swap transfer
    /// time already included — the engine overlaps and stalls for it).
    pub wall: Duration,
    /// Swap traffic (D2H evictions + H2D prefetches) the iteration moved.
    /// Always equals the sum of `transfers[..].bytes`.
    pub swap_bytes: u64,
    /// Kernel time spent regenerating released tensors (recompute-plan
    /// entries and on-demand lineage replay) during the iteration.
    pub recompute_time: Duration,
    /// Tensors evicted reactively under allocation pressure (the engine's
    /// passive-mode evictions, not planned proactive swaps).
    pub evictions: u64,
    /// The iteration's recorded transfer timeline, in submission order.
    pub transfers: Vec<ReplayTransfer>,
}

/// The two budgets admission derives from a measured footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobNeeds {
    /// Full reservation: the measured ideal peak plus a small allocator
    /// slack, avoiding all management overhead.
    pub full: u64,
    /// Smallest budget a validation run succeeded at (`== full` under
    /// tf-ori).
    pub min: u64,
}

/// Allocator slack added to the ideal peak: free-list fragmentation means
/// a run needs slightly more than its live-byte peak (measured: ~2% for
/// VGG16; 1/32 ≈ 3.1% keeps a margin).
pub(crate) fn with_slack(peak: u64) -> u64 {
    peak + peak / 32
}

/// Where an admission decision's budgets came from. The pipeline has
/// three provenances, in descending cost:
///
/// * [`Measured`](AdmissionSource::Measured) — a real measuring run plus
///   (under Capuchin admission) a bisection of validation engine runs;
/// * [`Heuristic`](AdmissionSource::Heuristic) — a measuring run plus
///   pure planner math, no validation engines
///   ([`CostClass::Heuristic`](crate::policy::CostClass) policies);
/// * [`Predicted`](AdmissionSource::Predicted) — no engine work at all:
///   the [`cluster::predict`](crate::predict) regression store answered
///   from prior completed runs, padded by the configured safety margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionSource {
    /// Budgets derived from a measured footprint and engine-validated
    /// bisection — the pre-predictor default for measured-class policies.
    Measured,
    /// Budgets derived from the footprint estimate and planner math only
    /// (heuristic-class policies such as DTR).
    Heuristic,
    /// Budgets predicted by the regression store from prior completed
    /// runs, padded by the configured safety margin: zero measuring and
    /// zero validation engine runs.
    Predicted,
}

impl AdmissionSource {
    /// Stats/wire name (`"measured"`, `"heuristic"`, `"predicted"`).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionSource::Measured => "measured",
            AdmissionSource::Heuristic => "heuristic",
            AdmissionSource::Predicted => "predicted",
        }
    }
}

impl std::fmt::Display for AdmissionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The admission controller: mode plus the planner configuration used for
/// shrink queries and validation runs.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Prediction mode.
    pub mode: AdmissionMode,
    /// Policy Maker configuration for shrink feasibility.
    pub planner: PlannerConfig,
    /// Engine iterations per validation/bisection run (at least 2 so
    /// Capuchin completes measured execution and runs guided iterations).
    pub validate_iters: u64,
    /// Validation engine runs performed (successful or not) — the real
    /// admission cost the per-job `admission_validations` stat attributes.
    runs: Cell<u64>,
    /// Labels of every replay this controller built, validated or
    /// synthesized.
    labels: RefCell<Labels>,
}

impl Admission {
    /// Creates a controller with the default planner configuration.
    pub fn new(mode: AdmissionMode) -> Admission {
        Admission {
            mode,
            planner: PlannerConfig::default(),
            validate_iters: 4,
            runs: Cell::new(0),
            labels: RefCell::default(),
        }
    }

    /// Total validation engine runs this controller has performed.
    /// Monotone; the cluster samples it around admission calls to
    /// attribute per-job validation counts.
    pub fn validation_runs(&self) -> u64 {
        self.runs.get()
    }

    /// Derives the admission budgets for a measured job. Under Capuchin
    /// admission, `min` is found by bisecting *actual engine runs* — the
    /// Policy Maker's feasibility verdict brackets the search from below,
    /// but measured execution is the ground truth (plans are optimistic
    /// about fragmentation and transient working sets).
    pub fn needs(&self, graph: &Graph, est: &FootprintEstimate) -> JobNeeds {
        // A training shape runs no probe, so any policy serves here.
        let engine = Some((graph, &est.spec, JobPolicy::Capuchin));
        self.derive(&self.record(est), false, engine)
    }

    /// Derives admission budgets for a forward-only (inference) graph.
    ///
    /// The forward peak is dominated by persistent weights, so the
    /// proportional slack that comfortably covers training transients can
    /// undershoot a single conv output here — and the cluster caps grants
    /// at `full`, so an over-tight `full` would fail validation forever.
    /// Measured execution is the ground truth (the same doctrine as
    /// [`Admission::needs`]): escalate `full` until a keep-everything
    /// engine run actually completes. The probe policy comes from the job
    /// policy's registry row — unmanaged execution ([`JobPolicy::TfOri`])
    /// is the stricter probe, so a budget it survives also runs under any
    /// managed policy.
    pub fn forward_needs(
        &self,
        graph: &Graph,
        est: &FootprintEstimate,
        policy: JobPolicy,
    ) -> JobNeeds {
        self.derive(&self.record(est), true, Some((graph, &est.spec, policy)))
    }

    /// Derives admission budgets for a [`crate::policy::CostClass::Heuristic`]
    /// policy *without any validation engine run*: `full` is the
    /// slack-padded measured peak and `min` is the Policy Maker's pure
    /// feasibility bisection ([`min_feasible_budget`] — planner math, no
    /// engine). The policy regenerates or pages on demand at whatever
    /// budget it is granted; checkpoint-preemption is the backstop if the
    /// estimate was optimistic.
    pub fn heuristic_needs(&self, est: &FootprintEstimate) -> JobNeeds {
        self.derive(&self.record(est), false, None)
    }

    /// Heuristic counterpart of [`Admission::forward_needs`]: instead of
    /// probing with engine runs, pads `full` by one escalation step (the
    /// same step the measured path would take) so the
    /// weights-dominated forward peak keeps transient headroom.
    pub fn heuristic_forward_needs(&self, est: &FootprintEstimate) -> JobNeeds {
        self.derive(&self.record(est), true, None)
    }

    /// The smallest budget this mode lets a job shrink to, given the
    /// smallest one a plan covers: `plan()` under Capuchin admission, and
    /// `u64::MAX` — never below `full`, no planner pass — under tf-ori.
    /// The one place admission reads its mode.
    pub(crate) fn floor(&self, plan: impl FnOnce() -> u64) -> u64 {
        match self.mode {
            AdmissionMode::TfOri => u64::MAX,
            AdmissionMode::Capuchin => plan(),
        }
    }

    /// The admission record of one measuring run: its summary and floor.
    fn record(&self, est: &FootprintEstimate) -> Record {
        Record {
            summary: EstimateSummary::from(est),
            floor: self.floor(|| min_feasible_budget(est, &self.planner)),
            measured: None,
        }
    }

    /// Derives a shape's budgets from its record. `engine` is `None` for
    /// a heuristic-class policy: planner math only, `min` is the floor.
    /// For a measured-class one it names the graph, device and job policy
    /// of the engine runs: a forward-only `full` escalates until a probe
    /// run completes, then `min` bisects Capuchin validation runs between
    /// the floor and the padded peak.
    fn derive(
        &self,
        rec: &Record,
        forward: bool,
        engine: Option<(&Graph, &DeviceSpec, JobPolicy)>,
    ) -> JobNeeds {
        let est = &rec.summary;
        let step = (est.ideal_peak / 16).max(32 << 20);
        let padded = with_slack(est.ideal_peak);
        let Some((graph, spec, policy)) = engine else {
            let full = padded.saturating_add(if forward { step } else { 0 });
            let min = rec.floor.min(full);
            return JobNeeds { full, min };
        };
        let runs_at = |budget, policy, shrunk, iters| {
            self.run(graph, spec, budget, policy, shrunk, iters).is_ok()
        };
        let mut full = padded;
        // A forward-only `full` escalates until a probe run completes.
        // Bounded: the transient working set of one forward pass is a
        // handful of activations, far below 64 steps' worth.
        let probe = policy.descriptor().probe;
        for _ in 0..64 {
            if !forward || runs_at(full, probe, false, 2) {
                break;
            }
            full = full.saturating_add(step);
        }
        if rec.floor >= full {
            return JobNeeds { full, min: full };
        }
        let validates_at = |budget| runs_at(budget, JobPolicy::Capuchin, true, self.validate_iters);
        let (mut lo, mut hi) = (rec.floor, padded);
        if !validates_at(hi) {
            // Even the slack-padded peak fails; let the cluster's
            // failed-budget escalation find a workable grant.
        } else if validates_at(lo) {
            hi = lo;
        } else {
            let transient = est.ideal_peak.saturating_sub(est.weight_bytes);
            let granularity = (transient / 32).max(16 << 20);
            while hi.saturating_sub(lo) > granularity {
                let mid = lo + (hi - lo) / 2;
                if validates_at(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        JobNeeds {
            full,
            min: hi.min(full),
        }
    }

    /// Validates an admission decision by actually running `iters`
    /// iterations of the job at the granted budget, returning the
    /// per-iteration wall times and swap-byte volumes the cluster replays
    /// on its clock.
    ///
    /// Shrunk admissions run under the plan-capable policy the job
    /// policy's registry row names (`shrunk_runs_as` — a plan is what
    /// makes the budget viable); as-is admissions run the job's own
    /// requested policy. Both constructors come from the registry.
    ///
    /// The replay's labels are interned in this controller's table, so
    /// their ids are stable across every run it performs.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`ExecError`] (typically OOM) when the budget
    /// turns out to be insufficient; the caller must not admit at this
    /// budget. Zero-iteration requests fail with
    /// [`ExecError::NoIterations`] — an empty wall trace would replay as
    /// zero-time iterations.
    pub fn validate(
        &self,
        graph: &Graph,
        spec: &DeviceSpec,
        budget: u64,
        policy: JobPolicy,
        shrunk: bool,
        iters: u64,
    ) -> Result<Vec<ReplayIter>, ExecError> {
        let (eng, stats) = self.run(graph, spec, budget, policy, shrunk, iters)?;
        let mut labels = self.labels.borrow_mut();
        Ok(stats
            .iters
            .iter()
            .zip(eng.iter_transfers())
            .map(|(it, recs)| ReplayIter {
                wall: it.wall(),
                swap_bytes: it.swap_out_bytes + it.swap_in_bytes,
                recompute_time: it.recompute_time,
                evictions: it.passive_evictions,
                transfers: recs
                    .iter()
                    .map(|rec| {
                        let (label_id, label) = labels.intern(&rec.label);
                        ReplayTransfer {
                            label,
                            label_id,
                            bytes: rec.bytes,
                            dir: rec.dir,
                            offset: rec.queued.saturating_since(it.started_at),
                        }
                    })
                    .collect(),
            })
            .collect())
    }

    /// The engine run behind [`Admission::validate`]. The budget probes
    /// call it directly: they only ask whether the run completes, so
    /// they build no replay and intern no labels.
    fn run<'g>(
        &self,
        graph: &'g Graph,
        spec: &DeviceSpec,
        budget: u64,
        policy: JobPolicy,
        shrunk: bool,
        iters: u64,
    ) -> Result<(Engine<'g>, RunStats), ExecError> {
        if iters == 0 {
            return Err(ExecError::NoIterations);
        }
        let cfg = EngineConfig::for_device(spec.clone().with_memory(budget));
        let run_as = if shrunk {
            policy.descriptor().shrunk_runs_as
        } else {
            policy
        };
        let policy = run_as.descriptor().build();
        let mut eng = Engine::new(graph, cfg, policy);
        self.runs.set(self.runs.get() + 1);
        let stats = eng.run(iters)?;
        Ok((eng, stats))
    }
}

/// The shape an admission measurement depends on: model, replica batch,
/// and whether the job runs the forward pass only. Every admission cache
/// is keyed by it, so a 4-GPU gang at batch 128 shares entries with a
/// single-GPU job at batch 32, while a serving job — whose footprint is
/// strictly smaller than its training twin's — gets its own. The model
/// is the interned [`ModelKind`], so probing a cache allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Shape {
    model: ModelKind,
    replica_batch: usize,
    forward: bool,
}

impl Shape {
    /// `spec`'s shape at global batch `batch`.
    pub(crate) fn of(spec: &JobSpec, batch: usize) -> Shape {
        Shape {
            model: spec.model,
            replica_batch: spec.replica_batch_at(batch),
            forward: spec.is_inference(),
        }
    }
}

/// The slice of a measuring run the scheduler keeps per shape: the two
/// footprint numbers stats report plus the unconstrained iteration wall.
/// The full [`FootprintEstimate`] drags the whole measured access profile
/// along and is dropped once admission needs are derived.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EstimateSummary {
    /// Peak live memory an unlimited device holds.
    pub(crate) ideal_peak: u64,
    /// Persistent weight bytes (the gang's gradient payload).
    pub(crate) weight_bytes: u64,
    /// Wall time of the unconstrained measuring iteration — the base an
    /// unvalidated (heuristic-class or predicted) admission synthesizes
    /// its replay from.
    pub(crate) iter_wall: Duration,
}

impl From<&FootprintEstimate> for EstimateSummary {
    fn from(est: &FootprintEstimate) -> EstimateSummary {
        EstimateSummary {
            ideal_peak: est.ideal_peak,
            weight_bytes: est.weight_bytes,
            iter_wall: est.iter_wall,
        }
    }
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

/// What admission keeps of one measuring run of a shape. Every budget
/// derivation and the mispredict check read it, so a shape is measured
/// once whatever cost class asks and however many predictions it checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// The measuring run's footprint numbers.
    pub(crate) summary: EstimateSummary,
    /// The smallest budget admission may shrink the shape to
    /// ([`Admission::floor`]): [`min_feasible_budget`] under Capuchin
    /// admission, `u64::MAX` under tf-ori.
    pub(crate) floor: u64,
    /// Budgets of a measured-class policy, derived by engine runs the
    /// first time one asks. Heuristic budgets are plain arithmetic on the
    /// record and are not kept.
    measured: Option<JobNeeds>,
}

/// Validation-cache key: `(shape, budget, policy, shrunk, iters)`.
type ValidationKey = (Shape, u64, &'static str, bool, u64);

/// The cluster's admission controller plus every cache over it, all
/// keyed by [`Shape`]. The caches memoize pure functions of the spec, so
/// they survive [`crate::Cluster::reset`] without perturbing
/// determinism.
#[derive(Debug)]
pub(crate) struct AdmissionCache {
    pub(crate) admission: Admission,
    device: DeviceSpec,
    /// Built graphs. Validation runs at distinct byte budgets can't share
    /// a cache entry, but they all replan over the same graph — rebuilding
    /// it per run used to dominate Capuchin-admission wall time. Bounded
    /// by the workload's shape menu, which synthetic generators keep
    /// small.
    models: BTreeMap<Shape, Graph>,
    /// One admission record per measured shape.
    records: BTreeMap<Shape, Record>,
    /// Validation outcomes: `Some` holds the per-iteration replay trace
    /// (shared, not cloned, with every admission that hits the cache),
    /// `None` records a failed run.
    pub(crate) validations: BTreeMap<ValidationKey, Option<Arc<Vec<ReplayIter>>>>,
    /// Validation engine runs already attributed to some job — the
    /// cursor [`AdmissionCache::charge`] advances against the
    /// controller's monotone [`Admission::validation_runs`] counter.
    charged_runs: u64,
}

/// The graph `shape` runs, built on first use: the training graph, or
/// its forward prefix for a serving job (no backward pass to fit).
fn graph_of(models: &mut BTreeMap<Shape, Graph>, shape: Shape) -> &Graph {
    models.entry(shape).or_insert_with(|| {
        let graph = shape.model.build(shape.replica_batch).graph;
        if shape.forward {
            graph.forward_prefix()
        } else {
            graph
        }
    })
}

impl AdmissionCache {
    pub(crate) fn new(mode: AdmissionMode, device: DeviceSpec, validate_iters: u64) -> Self {
        let mut admission = Admission::new(mode);
        admission.validate_iters = validate_iters.max(2);
        AdmissionCache {
            admission,
            device,
            models: BTreeMap::new(),
            records: BTreeMap::new(),
            validations: BTreeMap::new(),
            charged_runs: 0,
        }
    }

    /// Attributes every validation engine run performed since the last
    /// charge to one job's `counter` — called after each admission-driven
    /// block, so per-job counts sum exactly to the controller's total.
    /// Cache-hit admissions charge nothing; heuristic-class policies
    /// never run a validation engine and stay at zero.
    pub(crate) fn charge(&mut self, counter: &mut u64) {
        let total = self.admission.validation_runs();
        *counter += total - self.charged_runs;
        self.charged_runs = total;
    }

    /// The admission record of `spec`'s shape at global batch `batch`,
    /// taken from one measuring run on first use of the shape.
    pub(crate) fn record(&mut self, spec: &JobSpec, batch: usize) -> Record {
        let shape = Shape::of(spec, batch);
        if let Some(&rec) = self.records.get(&shape) {
            return rec;
        }
        let graph = graph_of(&mut self.models, shape);
        let est =
            measure_footprint(graph, &self.device).expect("unconstrained measuring run cannot OOM");
        let rec = self.admission.record(&est);
        self.records.insert(shape, rec);
        rec
    }

    /// Footprint and budgets of `spec` at global batch `batch` under its
    /// policy's cost class. Elastic probes at reduced batches share
    /// records through the replica batch in the shape.
    pub(crate) fn estimate(&mut self, spec: &JobSpec, batch: usize) -> (EstimateSummary, JobNeeds) {
        let rec = self.record(spec, batch);
        let shape = Shape::of(spec, batch);
        let needs = if spec.policy.descriptor().cost_class == CostClass::Heuristic {
            self.admission.derive(&rec, shape.forward, None)
        } else if let Some(needs) = rec.measured {
            needs
        } else {
            let engine = (graph_of(&mut self.models, shape), &self.device, spec.policy);
            let needs = self.admission.derive(&rec, shape.forward, Some(engine));
            self.records.get_mut(&shape).expect("recorded").measured = Some(needs);
            needs
        };
        (rec.summary, needs)
    }

    /// The measured (not heuristic) estimate of `spec` at its requested
    /// batch, if one was ever taken.
    pub(crate) fn measured(&self, spec: &JobSpec) -> Option<(EstimateSummary, JobNeeds)> {
        let rec = self.records.get(&Shape::of(spec, spec.batch))?;
        Some((rec.summary, rec.measured?))
    }

    /// The replay trace `spec` runs at global batch `batch` under a
    /// `budget` grant: a memoized validation engine run, or for a
    /// heuristic-class policy a trace synthesized from the footprint
    /// estimate ([`AdmissionCache::synthesize_replay`]) that leaves the
    /// validation cache cold. `None` when the budget cannot run.
    pub(crate) fn validated_replay(
        &mut self,
        spec: &JobSpec,
        batch: usize,
        budget: u64,
        shrunk: bool,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        if spec.policy.descriptor().cost_class == CostClass::Heuristic {
            let est = self.record(spec, batch).summary;
            return self.synthesize_replay(spec, &est, budget);
        }
        // The spec's own count capped at the validation length, and at
        // least 2: Capuchin needs a measured iteration before a guided one
        // exists to record (serving specs leave `iters` at 1).
        let iters = spec.iters.min(self.admission.validate_iters).max(2);
        let shape = Shape::of(spec, batch);
        let key = (shape, budget, spec.policy.name(), shrunk, iters);
        if let Some(cached) = self.validations.get(&key) {
            return cached.clone();
        }
        let graph = graph_of(&mut self.models, shape);
        let replay = self
            .admission
            .validate(graph, &self.device, budget, spec.policy, shrunk, iters)
            .ok()
            // An empty trace is a failed validation, not a fast job.
            .filter(|replay| !replay.is_empty())
            .map(Arc::new);
        self.validations.insert(key, replay.clone());
        replay
    }

    /// Synthesizes the replay trace an unvalidated (heuristic-class or
    /// predicted) admission hands the clock: the estimated unconstrained
    /// iteration wall, stretched by a paging round-trip of the budget
    /// deficit.
    ///
    /// The model is deliberately conservative — the online policy pages
    /// (or regenerates, usually cheaper) the bytes that no longer fit,
    /// priced here as one D2H + H2D round trip of the deficit per
    /// iteration on the device's own transfer model; the synthetic
    /// transfer pair makes that traffic contend on a shared fabric like
    /// validated swap timelines do. Below the slack-padded weight floor
    /// even an online policy cannot run (weights are unevictable), so
    /// the grant is refused like a failed validation — without an engine
    /// run and without touching the validation cache. Every synthetic
    /// iteration is the same, and a replay repeats its last iteration
    /// ([`crate::session::JobRun::replay_idx`]), so the trace holds one.
    pub(crate) fn synthesize_replay(
        &self,
        spec: &JobSpec,
        est: &EstimateSummary,
        budget: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        if budget < with_slack(est.weight_bytes) {
            return None;
        }
        let deficit = with_slack(est.ideal_peak).saturating_sub(budget);
        let iter = if deficit == 0 {
            ReplayIter {
                wall: est.iter_wall,
                swap_bytes: 0,
                recompute_time: Duration::ZERO,
                evictions: 0,
                transfers: Vec::new(),
            }
        } else {
            let policy_name = spec.policy.name();
            let mut labels = self.admission.labels.borrow_mut();
            let (evict_id, evict) = labels.intern(&format!("evict:{policy_name}"));
            let (refill_id, refill) = labels.intern(&format!("refill:{policy_name}"));
            let transfers = TransferModel::for_device(&self.device);
            let out = transfers.time(deficit, CopyDir::DeviceToHost);
            let back = transfers.time(deficit, CopyDir::HostToDevice);
            ReplayIter {
                wall: est.iter_wall + out + back,
                swap_bytes: deficit.saturating_mul(2),
                recompute_time: Duration::ZERO,
                evictions: 1,
                transfers: vec![
                    ReplayTransfer {
                        label: evict,
                        label_id: evict_id,
                        bytes: deficit,
                        dir: CopyDir::DeviceToHost,
                        offset: Duration::ZERO,
                    },
                    ReplayTransfer {
                        label: refill,
                        label_id: refill_id,
                        bytes: deficit,
                        dir: CopyDir::HostToDevice,
                        offset: out,
                    },
                ],
            }
        };
        Some(Arc::new(vec![iter]))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::stats::ClusterTransfer;
    use capuchin::{measure_footprint, shrink_feasibility};
    use capuchin_models::ModelKind;

    #[test]
    fn capuchin_needs_less_than_tf_ori() {
        let model = ModelKind::Vgg16.build(32);
        let est = measure_footprint(&model.graph, &DeviceSpec::p100_pcie3()).unwrap();
        let tf = Admission::new(AdmissionMode::TfOri).needs(&model.graph, &est);
        let cap = Admission::new(AdmissionMode::Capuchin).needs(&model.graph, &est);
        assert!(tf.full >= est.ideal_peak);
        assert_eq!(tf.min, tf.full);
        assert_eq!(cap.full, tf.full);
        assert!(cap.min < cap.full, "{cap:?}");
        assert!(cap.min > est.weight_bytes, "{cap:?}");
        // The planner agrees a plan exists at the measured minimum.
        let check = shrink_feasibility(&est, cap.min, &PlannerConfig::default());
        assert!(check.feasible);
    }

    /// The cache's budgets for a shape, under either cost class, equal
    /// the public derivations on a fresh measuring run, engine runs
    /// included; and a heuristic estimate, a measured estimate and the
    /// mispredict check of one shape share one record, so one measuring
    /// run.
    #[test]
    fn one_record_per_shape_serves_both_classes_and_the_mispredict_check() {
        let device = DeviceSpec::p100_pcie3();
        for mode in [AdmissionMode::TfOri, AdmissionMode::Capuchin] {
            let mut cache = AdmissionCache::new(mode, device.clone(), 4);
            let mut fresh = Admission::new(mode);
            fresh.validate_iters = 4;
            for (shapes, forward) in [(1, false), (2, true)] {
                let mut spec = JobSpec {
                    model: ModelKind::ResNet50,
                    batch: 4,
                    iters: 4,
                    ..JobSpec::default()
                };
                if forward {
                    spec = spec.into_inference(40.0, 400.0, 4, 0, 1);
                }
                let mut models = BTreeMap::new();
                let graph = graph_of(&mut models, Shape::of(&spec, spec.batch));
                let est = measure_footprint(graph, &device).unwrap();
                let (heuristic, measured) = if forward {
                    let policy = JobPolicy::Capuchin;
                    let measured = fresh.forward_needs(graph, &est, policy);
                    (fresh.heuristic_forward_needs(&est), measured)
                } else {
                    (fresh.heuristic_needs(&est), fresh.needs(graph, &est))
                };
                let dtr = JobSpec {
                    policy: JobPolicy::Dtr,
                    ..spec.clone()
                };
                let capuchin = JobSpec {
                    policy: JobPolicy::Capuchin,
                    ..spec
                };
                let runs = cache.admission.validation_runs();
                assert_eq!(cache.estimate(&dtr, dtr.batch).1, heuristic, "{mode}");
                assert_eq!(cache.admission.validation_runs(), runs, "heuristic is free");
                assert_eq!(cache.records.len(), shapes, "{mode}");
                assert!(cache.measured(&capuchin).is_none(), "no measured ask yet");
                let (summary, needs) = cache.estimate(&capuchin, capuchin.batch);
                assert_eq!(needs, measured, "{mode} forward {forward}");
                assert_eq!(summary.ideal_peak, est.ideal_peak);
                let kept = cache.measured(&capuchin).map(|(_, needs)| needs);
                assert_eq!(kept, Some(needs));
                // The mispredict check reads the same record.
                let rec = cache.record(&capuchin, capuchin.batch);
                let floor = fresh.floor(|| min_feasible_budget(&est, &fresh.planner));
                assert_eq!(rec.floor, floor, "{mode}");
                assert_eq!(cache.records.len(), shapes, "one record per shape");
                assert_eq!(cache.models.len(), shapes, "one graph per shape");
            }
            assert_eq!(
                cache.admission.validation_runs(),
                fresh.validation_runs(),
                "{mode}: the same engine runs"
            );
        }
    }

    #[test]
    fn admission_mode_round_trips_through_fromstr_and_display() {
        for m in [AdmissionMode::TfOri, AdmissionMode::Capuchin] {
            assert_eq!(m.to_string().parse::<AdmissionMode>(), Ok(m));
        }
        // Short CLI spellings also parse.
        assert_eq!("tf-ori".parse(), Ok(AdmissionMode::TfOri));
        assert_eq!("capuchin".parse(), Ok(AdmissionMode::Capuchin));
        let err = "strict".parse::<AdmissionMode>().unwrap_err();
        assert!(err.to_string().contains("tf-ori, capuchin"), "{err}");
    }

    #[test]
    fn zero_iteration_validation_is_rejected() {
        let model = ModelKind::ResNet50.build(8);
        let adm = Admission::new(AdmissionMode::Capuchin);
        assert!(matches!(
            adm.validate(
                &model.graph,
                &DeviceSpec::p100_pcie3(),
                4 << 30,
                JobPolicy::Capuchin,
                false,
                0
            ),
            Err(ExecError::NoIterations)
        ));
    }

    #[test]
    fn heuristic_needs_run_no_validation_engines() {
        let model = ModelKind::Vgg16.build(32);
        let spec = DeviceSpec::p100_pcie3();
        let est = measure_footprint(&model.graph, &spec).unwrap();
        let adm = Admission::new(AdmissionMode::Capuchin);
        let needs = adm.heuristic_needs(&est);
        let fwd = adm.heuristic_forward_needs(&est);
        assert_eq!(adm.validation_runs(), 0, "heuristic admission is free");
        assert!(needs.min <= needs.full);
        assert!(needs.min > est.weight_bytes);
        assert!(fwd.full > needs.full, "forward heuristic pads a step");
        // The measured path, by contrast, pays engine runs.
        let measured = adm.needs(&model.graph, &est);
        assert!(adm.validation_runs() > 0);
        assert_eq!(needs.full, measured.full, "same slack-padded peak");
    }

    #[test]
    fn validation_succeeds_at_min_budget_and_fails_below_weights() {
        let model = ModelKind::Vgg16.build(32);
        let spec = DeviceSpec::p100_pcie3();
        let adm = Admission::new(AdmissionMode::Capuchin);
        let est = measure_footprint(&model.graph, &spec).unwrap();
        let needs = adm.needs(&model.graph, &est);
        // The measured minimum is validated by construction: an actual
        // engine run completes at that budget.
        let replay = adm
            .validate(&model.graph, &spec, needs.min, JobPolicy::Capuchin, true, 4)
            .unwrap();
        assert_eq!(replay.len(), 4);
        assert!(replay.iter().all(|it| it.wall > Duration::ZERO));
        // A shrunk run must actually swap: the replayed traffic is what
        // the cluster routes over the shared host link.
        assert!(replay.iter().any(|it| it.swap_bytes > 0), "{replay:?}");
        // Far below the weight floor even Capuchin cannot run.
        assert!(adm
            .validate(
                &model.graph,
                &spec,
                est.weight_bytes / 2,
                JobPolicy::Capuchin,
                true,
                2
            )
            .is_err());
    }

    /// Every `(text, id, shared name)` triple of `replays`' transfers.
    fn labels_of(replays: &[&Arc<Vec<ReplayIter>>]) -> BTreeMap<Arc<str>, (u32, usize)> {
        let mut seen = BTreeMap::new();
        for rec in replays
            .iter()
            .flat_map(|r| r.iter())
            .flat_map(|it| &it.transfers)
        {
            let entry = (rec.label_id, Arc::as_ptr(&rec.label) as *const u8 as usize);
            assert_eq!(
                *seen.entry(Arc::clone(&rec.label)).or_insert(entry),
                entry,
                "{} got two ids or two allocations",
                rec.label
            );
        }
        seen
    }

    #[test]
    fn label_ids_are_stable_across_budgets_and_batches() {
        let mut cache = AdmissionCache::new(AdmissionMode::Capuchin, DeviceSpec::p100_pcie3(), 4);
        let spec = JobSpec {
            model: ModelKind::Vgg16,
            batch: 320,
            policy: JobPolicy::Capuchin,
            iters: 4,
            ..JobSpec::default()
        };
        let mut replay_at = |batch: usize, mid: bool| {
            let needs = cache.estimate(&spec, batch).1;
            assert!(needs.min < needs.full, "batch {batch} must oversubscribe");
            let budget = if mid {
                needs.min + (needs.full - needs.min) / 2
            } else {
                needs.min
            };
            cache
                .validated_replay(&spec, batch, budget, true)
                .expect("a budget at or above the measured minimum runs")
        };
        let tight = replay_at(320, false);
        let roomy = replay_at(320, true);
        // An elastic re-batch re-validates at a smaller replica batch.
        let halved = replay_at(160, false);
        let all = labels_of(&[&tight, &roomy, &halved]);
        let ids: BTreeSet<u32> = all.values().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), all.len(), "distinct texts share an id");
        for (a, b) in [(&tight, &roomy), (&tight, &halved)] {
            let (a, b) = (labels_of(&[a]), labels_of(&[b]));
            assert!(
                a.keys().any(|text| b.contains_key(text)),
                "the two replays must move a common tensor"
            );
        }
    }

    /// The feedback lead a stretched prefetch accumulates survives an
    /// elastic re-validation: the re-built replay names its tensors by
    /// the same ids, so the first record of a label after the re-batch
    /// starts from the lead the label had reached before it.
    #[test]
    fn an_elastic_job_keeps_its_lead_across_revalidation() {
        use crate::job::{synthetic_inference_jobs, synthetic_mixed_jobs};
        use crate::Cluster;
        use capuchin_sim::InterconnectSpec;

        let mut jobs = synthetic_mixed_jobs(8, 2, 5, 0.3);
        for mut inf in synthetic_inference_jobs(2, 5, 0.5, 12.0) {
            inf.kv_bytes_per_request = 512 << 20;
            inf.arrival_time += 0.5;
            jobs.push(inf);
        }
        let cfg = crate::ClusterConfig::builder()
            .gpus(2)
            .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
            .elastic(true)
            .slo_aware(true)
            .interconnect(InterconnectSpec::parse("pcie").expect("pcie spec"))
            .build()
            .expect("cluster config");
        let (_, trace) = Cluster::new(cfg).run_traced(&jobs);
        let mut kept = 0;
        for (at, copy) in trace.iter().enumerate() {
            if !copy.label.ends_with("-restore") {
                continue;
            }
            let job = |t: &&ClusterTransfer| t.job == copy.job;
            let mut before: BTreeMap<&str, Duration> = BTreeMap::new();
            for t in trace[..at].iter().filter(job) {
                before.insert(&t.label, t.lead);
            }
            let mut after = BTreeSet::new();
            for t in trace[at..].iter().filter(job) {
                if let Some(&lead) = before.get(&*t.label) {
                    if lead > Duration::ZERO && after.insert(&*t.label) {
                        assert!(t.lead >= lead, "{}: {} lost its lead", t.job, t.label);
                        kept += 1;
                    }
                }
            }
        }
        assert!(kept > 0, "no lead crossed a re-batch");
    }
}
