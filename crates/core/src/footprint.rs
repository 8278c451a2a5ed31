//! Footprint prediction and plan feasibility for admission control.
//!
//! A cluster scheduler admitting a training job needs two answers before
//! committing device memory (paper §4.2's measured execution, repurposed
//! at admission time):
//!
//! 1. *How much device memory will this job want?* — answered by running
//!    one measured iteration on an effectively unlimited device and
//!    reading the ideal live-memory peak.
//! 2. *Can Capuchin shrink it into a smaller budget, and at what cost?* —
//!    answered by asking the Policy Maker for a plan against the candidate
//!    budget and checking whether the planned saving covers the gap.

use capuchin_executor::{Engine, EngineConfig, ExecError};
use capuchin_graph::Graph;
use capuchin_sim::{DeviceSpec, Duration};

use crate::capuchin::Capuchin;
use crate::measure::MeasuredProfile;
use crate::plan::Plan;
use crate::planner::{make_plan, saving_curve, scaled_saving, PlannerConfig, SAVINGS_MARGIN};

/// Memory capacity used for the unconstrained measuring run: large enough
/// that no workload in this repository ever pages.
const UNLIMITED: u64 = 1 << 40;

/// What one measured iteration on an unlimited device revealed about a
/// job's memory appetite.
#[derive(Debug, Clone)]
pub struct FootprintEstimate {
    /// Device the measurement ran against (with its real capacity; only
    /// the capacity was overridden during measuring).
    pub spec: DeviceSpec,
    /// Peak live memory an unlimited device holds — the footprint the job
    /// needs to run without any memory management.
    pub ideal_peak: u64,
    /// Bytes of persistent weights: the un-shrinkable floor, pinned on
    /// the device for the whole job.
    pub weight_bytes: u64,
    /// Wall time of the measured (unconstrained) iteration.
    pub iter_wall: Duration,
    /// The full measured profile, reusable for shrink queries.
    pub profile: MeasuredProfile,
}

impl FootprintEstimate {
    /// Transient bytes of the measured peak: everything above the
    /// persistent-weight floor. This is the batch-scaled part of the
    /// footprint — activations, gradients, workspaces — and therefore
    /// the quantity a footprint predictor's batch coefficient tracks;
    /// the weight floor is batch-invariant.
    pub fn transient_bytes(&self) -> u64 {
        self.ideal_peak.saturating_sub(self.weight_bytes)
    }
}

/// The Policy Maker's verdict on fitting a job into a byte budget.
#[derive(Debug, Clone)]
pub struct ShrinkPlan {
    /// Bytes the plan must save for the job to fit the budget.
    pub required_saving: u64,
    /// Whether the planned saving covers the requirement.
    pub feasible: bool,
    /// Predicted per-iteration overhead: exposed transfer time of
    /// negative-FT swaps plus recomputation kernel time.
    pub predicted_overhead: Duration,
    /// The plan itself (empty when no saving is required).
    pub plan: Plan,
}

/// Measures a job's memory footprint by running warm-up plus one measured
/// iteration against `spec` with capacity overridden to be unlimited.
///
/// # Errors
///
/// Returns [`ExecError`] if the measuring run itself fails (it cannot
/// OOM, so any error indicates a malformed graph).
pub fn measure_footprint(graph: &Graph, spec: &DeviceSpec) -> Result<FootprintEstimate, ExecError> {
    let cfg = EngineConfig {
        spec: spec.clone().with_memory(UNLIMITED),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(graph, cfg, Box::new(Capuchin::new()));
    // Iteration 0 materializes weights; iteration 1 is measured execution.
    let stats = eng.run(2)?;
    let iter_wall = stats
        .try_last()
        .map(|it| it.wall())
        .unwrap_or(Duration::ZERO);
    let profile = eng
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<Capuchin>())
        .expect("engine was constructed with the Capuchin policy")
        .profile()
        .clone();
    let weight_bytes = profile
        .info
        .values()
        .filter(|i| i.persistent)
        .map(|i| i.size)
        .sum();
    Ok(FootprintEstimate {
        spec: spec.clone(),
        ideal_peak: profile.ideal_peak,
        weight_bytes,
        iter_wall,
        profile,
    })
}

/// Measures the *forward-only* footprint of a training graph — the
/// memory appetite of an inference job serving the same model. The
/// backward pass is dropped via [`Graph::forward_prefix`] before
/// measuring, so the estimate carries no gradient or backward-workspace
/// bytes; the caller layers request-scaled KV state on top of this base.
///
/// # Errors
///
/// Returns [`ExecError`] if the measuring run itself fails (it cannot
/// OOM, so any error indicates a malformed graph).
pub fn measure_forward_footprint(
    graph: &Graph,
    spec: &DeviceSpec,
) -> Result<FootprintEstimate, ExecError> {
    measure_footprint(&graph.forward_prefix(), spec)
}

/// Candidate batches for elastic re-batching, descending: the full batch,
/// its half, and the floor of a quarter of the batch rounded up
/// (`batch.div_ceil(4)`), each only when it lies strictly below the one
/// before. Quantizing to this ladder keeps a job at three distinct
/// footprint measurements at most instead of one per integer batch.
pub fn elastic_batches(batch: usize) -> Vec<usize> {
    let batch = batch.max(1);
    let floor = batch.div_ceil(4);
    let mut ladder = vec![batch];
    if batch / 2 > floor {
        ladder.push(batch / 2);
    }
    if batch > floor {
        ladder.push(floor);
    }
    ladder
}

/// Bisects the largest candidate batch for which `fits` holds, assuming
/// the predicate is monotone (a batch that fits implies every smaller
/// candidate fits — footprints grow with batch). `candidates` must be
/// sorted descending, as [`elastic_batches`] produces them. Probes
/// `O(log n)` candidates, which matters because each probe is a measured
/// engine run at that batch.
pub fn bisect_batch(candidates: &[usize], mut fits: impl FnMut(usize) -> bool) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    // Invariant: everything before `lo` is known not to fit; everything
    // from `hi` on is unknown-or-fitting only once proven. Find the first
    // (largest) fitting index by bisection on the monotone boundary.
    let (mut lo, mut hi) = (0usize, candidates.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(candidates[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    candidates.get(lo).copied()
}

/// Asks the Policy Maker whether `budget` bytes suffice for the measured
/// job, and at what predicted overhead.
pub fn shrink_feasibility(est: &FootprintEstimate, budget: u64, cfg: &PlannerConfig) -> ShrinkPlan {
    let required_saving = est.ideal_peak.saturating_sub(budget);
    if required_saving == 0 {
        return ShrinkPlan {
            required_saving: 0,
            feasible: true,
            predicted_overhead: Duration::ZERO,
            plan: Plan::default(),
        };
    }
    // Persistent weights cannot be shrunk away; below that floor (plus a
    // sliver of working memory) no plan helps.
    if budget <= est.weight_bytes {
        return ShrinkPlan {
            required_saving,
            feasible: false,
            predicted_overhead: Duration::ZERO,
            plan: Plan::default(),
        };
    }
    let mut profile = est.profile.clone();
    profile.required_saving = required_saving;
    let spec = est.spec.clone().with_memory(budget);
    let plan = make_plan(&profile, &spec, cfg);
    let feasible = plan.planned_saving >= required_saving;
    let exposed_ns: u64 = plan
        .swaps
        .values()
        .map(|s| u64::try_from(-s.ft_ns).unwrap_or(0))
        .sum();
    let recompute: Duration = plan
        .recompute_keys
        .iter()
        .filter_map(|k| profile.info.get(k))
        .map(|i| i.op_duration)
        .sum();
    ShrinkPlan {
        required_saving,
        feasible,
        predicted_overhead: Duration::from_nanos(exposed_ns) + recompute,
        plan,
    }
}

/// Every budget's [`shrink_feasibility`] verdict from one planning pass.
///
/// A budget only sets the planner's saving target, and the plan for a
/// smaller target is a prefix of the plan for a larger one, so one
/// unbounded planning pass tells what saving each target's plan
/// promises. [`FeasibilityCurve::feasible`] then answers any budget by a
/// binary search, with exactly `shrink_feasibility`'s verdict.
#[derive(Debug, Clone)]
pub(crate) struct FeasibilityCurve {
    ideal_peak: u64,
    weight_bytes: u64,
    /// Cumulative planned saving after each confirmation, non-decreasing.
    curve: Vec<u64>,
}

impl FeasibilityCurve {
    /// Plans `est` once under `cfg`.
    pub(crate) fn new(est: &FootprintEstimate, cfg: &PlannerConfig) -> FeasibilityCurve {
        FeasibilityCurve {
            ideal_peak: est.ideal_peak,
            weight_bytes: est.weight_bytes,
            curve: saving_curve(&est.profile, &est.spec, cfg),
        }
    }

    /// Whether a plan covers the saving `budget` requires — the
    /// [`ShrinkPlan::feasible`] of `shrink_feasibility(est, budget, cfg)`.
    pub(crate) fn feasible(&self, budget: u64) -> bool {
        let required = self.ideal_peak.saturating_sub(budget);
        if required == 0 {
            return true;
        }
        if budget <= self.weight_bytes {
            return false;
        }
        let target = scaled_saving(required, SAVINGS_MARGIN);
        if target <= 0 {
            return false; // the planner returns an empty plan
        }
        // The target's plan stops at the first confirmation reaching it,
        // or runs out of candidates.
        let stop = self.curve.partition_point(|&c| i128::from(c) < target);
        let planned = self
            .curve
            .get(stop)
            .or(self.curve.last())
            .copied()
            .unwrap_or(0);
        planned >= required
    }
}

/// Finds the smallest budget (to within ~1/64 of the transient footprint,
/// floor 1 MiB) for which the Policy Maker produces a feasible plan, by
/// bisecting [`shrink_feasibility`]'s verdict between the weight floor and
/// the ideal peak. One planning pass answers every probe: the plan for
/// a smaller saving target is a prefix of the plan for a larger one.
pub fn min_feasible_budget(est: &FootprintEstimate, cfg: &PlannerConfig) -> u64 {
    let transient = est.transient_bytes();
    if transient == 0 {
        return est.ideal_peak;
    }
    let curve = FeasibilityCurve::new(est, cfg);
    let granularity = (transient / 64).max(1 << 20);
    // Invariant: `hi` is always feasible (the peak trivially is); `lo`
    // (the weight floor) never is.
    let mut lo = est.weight_bytes;
    let mut hi = est.ideal_peak;
    while hi.saturating_sub(lo) > granularity {
        let mid = lo + (hi - lo) / 2;
        if curve.feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use capuchin_models::ModelKind;

    #[test]
    fn footprint_matches_unconstrained_run() {
        let model = ModelKind::Vgg16.build(16);
        let est = measure_footprint(&model.graph, &DeviceSpec::p100_pcie3()).unwrap();
        assert!(est.ideal_peak > est.weight_bytes, "{est:?}");
        assert!(est.iter_wall > Duration::ZERO);
        // A budget at the ideal peak needs no plan.
        let fit = shrink_feasibility(&est, est.ideal_peak, &PlannerConfig::default());
        assert!(fit.feasible);
        assert!(fit.plan.is_empty());
    }

    #[test]
    fn forward_footprint_is_strictly_smaller() {
        let model = ModelKind::Vgg16.build(16);
        let spec = DeviceSpec::p100_pcie3();
        let full = measure_footprint(&model.graph, &spec).unwrap();
        let fwd = measure_forward_footprint(&model.graph, &spec).unwrap();
        // Same weights, but no gradients or backward workspace — the
        // forward-only peak sits strictly below the training peak.
        assert_eq!(fwd.weight_bytes, full.weight_bytes);
        assert!(fwd.ideal_peak < full.ideal_peak, "{fwd:?} vs {full:?}");
        assert!(fwd.iter_wall > Duration::ZERO);
        assert!(fwd.iter_wall < full.iter_wall);
    }

    #[test]
    fn elastic_ladder_halves_down_to_the_floor() {
        assert_eq!(elastic_batches(256), vec![256, 128, 64]);
        assert_eq!(elastic_batches(48), vec![48, 24, 12]);
        assert_eq!(elastic_batches(5), vec![5, 2]);
        // The floor never drops below 1 and the ladder never goes above
        // the batch.
        assert_eq!(elastic_batches(3), vec![3, 1]);
        assert_eq!(elastic_batches(1), vec![1]);
        assert_eq!(elastic_batches(0), vec![1]);
        // The floor is the quarter of the batch rounded up, and the ladder
        // is the halving ladder down to it, for every batch.
        for batch in 1..=4096usize {
            let floor = (batch as f64 * 0.25).ceil() as usize;
            let mut halving = vec![batch];
            let mut b = batch / 2;
            while b > floor {
                halving.push(b);
                b /= 2;
            }
            if *halving.last().unwrap() > floor {
                halving.push(floor);
            }
            assert_eq!(elastic_batches(batch), halving, "batch {batch}");
        }
    }

    #[test]
    fn bisect_batch_finds_largest_fitting_candidate() {
        let ladder = [256usize, 128, 64, 52];
        assert_eq!(bisect_batch(&ladder, |b| b <= 300), Some(256));
        assert_eq!(bisect_batch(&ladder, |b| b <= 128), Some(128));
        assert_eq!(bisect_batch(&ladder, |b| b <= 60), Some(52));
        assert_eq!(bisect_batch(&ladder, |_| false), None);
        assert_eq!(bisect_batch(&[], |_| true), None);
        // Probe count stays logarithmic: each probe is an engine run.
        let mut probes = 0;
        bisect_batch(&ladder, |b| {
            probes += 1;
            b <= 64
        });
        assert!(probes <= 3, "{probes} probes for 4 candidates");
    }

    #[test]
    fn shrink_is_feasible_at_mild_pressure_not_below_weights() {
        let model = ModelKind::Vgg16.build(16);
        let est = measure_footprint(&model.graph, &DeviceSpec::p100_pcie3()).unwrap();
        // 90% of the transient footprint: Capuchin shrinks this easily.
        let transient = est.ideal_peak - est.weight_bytes;
        let mild = est.weight_bytes + transient * 9 / 10;
        let shrunk = shrink_feasibility(&est, mild, &PlannerConfig::default());
        assert!(shrunk.feasible, "{shrunk:?}");
        assert!(!shrunk.plan.is_empty());
        // At or below the weight floor nothing helps.
        let hopeless = shrink_feasibility(&est, est.weight_bytes, &PlannerConfig::default());
        assert!(!hopeless.feasible);
    }
}
