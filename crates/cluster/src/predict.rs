//! Footprint prediction: admission without a measured iteration.
//!
//! Every measured admission pays at least one real measuring run
//! (`capuchin::measure_footprint`) and — under Capuchin admission — a
//! bisection of validation engine runs. The per-shape caches collapse
//! that cost *within* a shape, but a cold shape always pays, and the
//! online daemon (`capuchin-serve`) sees a stream of cold shapes. This
//! module learns from completed runs instead: a deterministic,
//! integer-arithmetic regression store keyed on
//! `(model family, policy, class)` that fits per-feature byte
//! coefficients from measured needs, so a warm key admits on
//! `prediction × safety_margin` with **zero** engine work (following
//! "Accurate GPU Memory Prediction for Deep Learning Jobs through
//! Dynamic Analysis", arXiv:2504.03887).
//!
//! # Features and coefficients
//!
//! A job's admission features are its [`crate::JobSpec`]'s `batch`,
//! `gpus` and `kv_bytes_per_request`. Two of the three coefficients
//! are *structural* — exact by construction, nothing to fit:
//!
//! * **gpus** — a data-parallel gang splits the batch evenly and every
//!   replica's footprint is identical, so the gpus coefficient is the
//!   exact per-replica-batch fold `replica_batch = ceil(batch / gpus)`;
//! * **kv_bytes_per_request** — serving-round KV state is priced
//!   structurally at admission (`max_inflight × kv` on top of the base
//!   forward needs), so its coefficient is exactly 1 byte per licensed
//!   byte.
//!
//! That leaves the **batch** coefficient, the one that actually varies
//! by model family: each target (full need, min need, ideal peak,
//! weight floor, iteration wall) is fitted as an integer least-squares
//! line over `(replica_batch → target)` samples. Weights come out with
//! slope ≈ 0 (batch-invariant floor); transients come out with the
//! per-sample activation cost ([`FootprintEstimate::transient_bytes`]
//! divided by batch is the quantity the slope estimates).
//!
//! # Determinism
//!
//! All sums and the closed-form slope/intercept solution are exact
//! integer arithmetic (`u128`/`i128` accumulators, round-to-nearest
//! division) — same observation sequence ⇒ bit-identical coefficients
//! on every platform. No floats anywhere in the fit or the prediction.
//!
//! # Fallback ladder
//!
//! A prediction is a bet, so the cluster backs it with a ladder:
//! cold key → measured admission (and the completion feeds this store);
//! warm key → predicted admission, *verified against the true profile
//! at the job's first iteration boundary* (the first real iteration
//! exposes the true footprint in a live system — the reconciliation
//! measuring run stands in for that observation and is **not** a
//! validation engine run); under-shoot → checkpoint-preempt the job and
//! re-admit it through the measured path (`mispredict_recoveries`).
//! Over-shoot merely wastes the margin. The store deliberately dares to
//! extrapolate beyond the observed batch range — the recovery ladder is
//! what makes that safe.

use std::collections::BTreeMap;

use capuchin::FootprintEstimate;
use capuchin_models::ModelKind;
use capuchin_sim::Duration;

use crate::job::{JobClass, JobPolicy, JobSpec};

/// A predictor key: model family, policy spelling, and whether the job
/// is inference-class (forward-only footprints differ from training
/// footprints of the same model, and needs differ per policy class).
pub type PredictKey = (ModelKind, &'static str, bool);

/// The predictor key for a job spec.
pub fn key_of(spec: &JobSpec) -> PredictKey {
    (
        spec.model,
        spec.policy.descriptor().name,
        spec.class == JobClass::Inference,
    )
}

/// The predictor key for explicit parts (used by tests and tools).
pub fn key_for(model: ModelKind, policy: JobPolicy, class: JobClass) -> PredictKey {
    (
        model,
        policy.descriptor().name,
        class == JobClass::Inference,
    )
}

/// One completed run's measured ground truth, fed to the store.
#[derive(Debug, Clone, Copy)]
pub struct FootprintSample {
    /// Per-replica batch the run was measured at.
    pub replica_batch: u64,
    /// Measured full reservation (slack-padded ideal peak).
    pub full: u64,
    /// Measured/derived minimum feasible reservation.
    pub min: u64,
    /// Measured ideal live-memory peak.
    pub ideal_peak: u64,
    /// Measured persistent-weight floor.
    pub weight_bytes: u64,
    /// Measured uncontended iteration wall time.
    pub iter_wall: Duration,
}

/// A warm key's answer: the same shape of numbers a measuring run would
/// produce, derived purely from the fitted coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedFootprint {
    /// Predicted full reservation.
    pub full: u64,
    /// Predicted minimum reservation (clamped into `1..=full`).
    pub min: u64,
    /// Predicted ideal peak.
    pub ideal_peak: u64,
    /// Predicted persistent-weight floor (clamped to `<= ideal_peak`).
    pub weight_bytes: u64,
    /// Predicted iteration wall (floored at 1 ns — a zero-time
    /// iteration would collapse the replay clock).
    pub iter_wall: Duration,
}

impl PredictedFootprint {
    /// Scales the *budget* targets (`full`, `min`) by a safety margin in
    /// permille (1150 ⇒ +15%), in u128 arithmetic. The physical targets
    /// (peak, weights, wall) are left untouched — the margin is slack on
    /// the reservation, not a claim that the model grew.
    pub fn with_margin(self, permille: u64) -> PredictedFootprint {
        let scale = |v: u64| -> u64 {
            let scaled = (v as u128).saturating_mul(permille as u128) / 1000;
            u64::try_from(scaled).unwrap_or(u64::MAX)
        };
        PredictedFootprint {
            full: scale(self.full),
            min: scale(self.min).min(scale(self.full)),
            ..self
        }
    }
}

/// Indices into a key's per-target accumulator array.
const T_FULL: usize = 0;
const T_MIN: usize = 1;
const T_PEAK: usize = 2;
const T_WEIGHT: usize = 3;
const T_WALL: usize = 4;
const TARGETS: usize = 5;

/// Running sums for one regression target (`y` against the shared `x`).
#[derive(Debug, Clone, Copy, Default)]
struct LinSums {
    sum_y: u128,
    sum_xy: u128,
}

/// Per-key accumulators: shared feature sums plus one [`LinSums`] per
/// target. Closed-form least squares needs only these five numbers per
/// target, so observation is O(1) and the store never holds raw samples.
#[derive(Debug, Clone, Copy, Default)]
struct KeyFit {
    n: u64,
    sum_x: u128,
    sum_xx: u128,
    targets: [LinSums; TARGETS],
}

/// Round-to-nearest signed integer division (ties away from zero).
/// Plain `/` truncates toward zero, which would bias every fitted
/// coefficient low; admission budgets care about that bias.
fn round_div(num: i128, den: i128) -> i128 {
    debug_assert!(den != 0);
    let q = num / den;
    let r = num % den;
    if 2 * r.abs() >= den.abs() {
        q + if (num < 0) == (den < 0) { 1 } else { -1 }
    } else {
        q
    }
}

impl KeyFit {
    fn observe(&mut self, x: u64, ys: [u64; TARGETS]) {
        self.n += 1;
        self.sum_x += x as u128;
        self.sum_xx += (x as u128) * (x as u128);
        for (t, y) in ys.into_iter().enumerate() {
            self.targets[t].sum_y += y as u128;
            self.targets[t].sum_xy += (x as u128) * (y as u128);
        }
    }

    /// Least-squares `(intercept, slope)` for target `t`. With a single
    /// distinct `x` the slope denominator is zero: the fit degenerates
    /// to a flat line at the mean (the only unbiased answer available).
    fn fit(&self, t: usize) -> (i128, i128) {
        let n = self.n as i128;
        let sx = self.sum_x as i128;
        let sxx = self.sum_xx as i128;
        let sy = self.targets[t].sum_y as i128;
        let sxy = self.targets[t].sum_xy as i128;
        let den = n * sxx - sx * sx;
        let slope = if den == 0 {
            0
        } else {
            round_div(n * sxy - sx * sy, den)
        };
        let intercept = round_div(sy - slope * sx, n);
        (intercept, slope)
    }

    fn predict_target(&self, t: usize, x: u64) -> u64 {
        let (a, b) = self.fit(t);
        let y = a + b * (x as i128);
        u64::try_from(y.max(0)).unwrap_or(u64::MAX)
    }
}

/// The regression store. Lives on the [`Cluster`](crate::Cluster)
/// alongside the estimate caches and — like them — survives
/// [`reset`](crate::Cluster::reset), so predictor state persists across
/// online submissions for the lifetime of a `capuchin-serve` daemon:
/// the longer the daemon runs, the more admissions are free.
#[derive(Debug, Clone, Default)]
pub struct FootprintPredictor {
    keys: BTreeMap<PredictKey, KeyFit>,
    observed: u64,
}

impl FootprintPredictor {
    /// Creates an empty (all-cold) store.
    pub fn new() -> FootprintPredictor {
        FootprintPredictor::default()
    }

    /// Feeds one completed run's measured ground truth into the key's
    /// accumulators. O(log keys) + O(1); never discards history.
    pub fn observe(&mut self, key: PredictKey, sample: FootprintSample) {
        self.observed += 1;
        self.keys.entry(key).or_default().observe(
            sample.replica_batch,
            [
                sample.full,
                sample.min,
                sample.ideal_peak,
                sample.weight_bytes,
                sample.iter_wall.as_nanos(),
            ],
        );
    }

    /// Samples observed for `key` (0 when the key is unknown).
    pub fn samples(&self, key: &PredictKey) -> u64 {
        self.keys.get(key).map_or(0, |k| k.n)
    }

    /// Distinct keys with at least one observation.
    pub fn keys(&self) -> usize {
        self.keys.len()
    }

    /// Total observations ever fed, across all keys.
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// Predicts the footprint of `key` at `replica_batch`, or `None`
    /// while the key is cold (fewer than `min_samples` observations).
    /// The raw prediction carries no safety margin — callers layer
    /// [`PredictedFootprint::with_margin`] on top.
    pub fn predict(
        &self,
        key: &PredictKey,
        replica_batch: u64,
        min_samples: u64,
    ) -> Option<PredictedFootprint> {
        let fit = self.keys.get(key)?;
        if fit.n < min_samples.max(1) {
            return None;
        }
        let weight_raw = fit.predict_target(T_WEIGHT, replica_batch);
        let ideal_peak = fit.predict_target(T_PEAK, replica_batch).max(weight_raw);
        let full = fit.predict_target(T_FULL, replica_batch).max(weight_raw);
        let min = fit.predict_target(T_MIN, replica_batch).clamp(1, full);
        Some(PredictedFootprint {
            full,
            min,
            ideal_peak,
            weight_bytes: weight_raw.min(ideal_peak),
            iter_wall: Duration::from_nanos(fit.predict_target(T_WALL, replica_batch).max(1)),
        })
    }
}

/// A measured estimate plus derived needs, repackaged as the sample the
/// store consumes (the glue the cluster uses when a measured run
/// completes).
pub fn sample_from(
    est: &FootprintEstimate,
    full: u64,
    min: u64,
    replica_batch: u64,
) -> FootprintSample {
    FootprintSample {
        replica_batch,
        full,
        min,
        ideal_peak: est.ideal_peak,
        weight_bytes: est.weight_bytes,
        iter_wall: est.iter_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: PredictKey = (ModelKind::ResNet50, "capuchin", false);

    fn linear_sample(x: u64) -> FootprintSample {
        // Exact lines: full = 1000 + 70x, min = 400 + 30x, peak = 900 +
        // 65x, weights flat 400, wall = 50 + 3x ns.
        FootprintSample {
            replica_batch: x,
            full: 1000 + 70 * x,
            min: 400 + 30 * x,
            ideal_peak: 900 + 65 * x,
            weight_bytes: 400,
            iter_wall: Duration::from_nanos(50 + 3 * x),
        }
    }

    #[test]
    fn exact_linear_data_is_recovered_and_extrapolated() {
        let mut p = FootprintPredictor::new();
        for x in [8, 16, 32] {
            p.observe(KEY, linear_sample(x));
        }
        let got = p.predict(&KEY, 64, 3).expect("warm key");
        assert_eq!(got.full, 1000 + 70 * 64);
        assert_eq!(got.min, 400 + 30 * 64);
        assert_eq!(got.ideal_peak, 900 + 65 * 64);
        assert_eq!(got.weight_bytes, 400, "flat target fits slope 0");
        assert_eq!(got.iter_wall, Duration::from_nanos(50 + 3 * 64));
    }

    #[test]
    fn cold_keys_and_under_sampled_keys_return_none() {
        let mut p = FootprintPredictor::new();
        assert!(p.predict(&KEY, 16, 1).is_none(), "unknown key");
        p.observe(KEY, linear_sample(16));
        p.observe(KEY, linear_sample(32));
        assert!(p.predict(&KEY, 16, 3).is_none(), "below min_samples");
        assert!(p.predict(&KEY, 16, 2).is_some());
        // min_samples of 0 still requires one observation.
        let other = (ModelKind::Vgg16, "capuchin", false);
        assert!(p.predict(&other, 16, 0).is_none());
        assert_eq!(p.samples(&KEY), 2);
        assert_eq!(p.keys(), 1);
        assert_eq!(p.observations(), 2);
    }

    #[test]
    fn single_batch_keys_predict_the_mean_flat() {
        let mut p = FootprintPredictor::new();
        p.observe(KEY, linear_sample(16));
        p.observe(KEY, linear_sample(16));
        let at_16 = p.predict(&KEY, 16, 2).unwrap();
        let at_128 = p.predict(&KEY, 128, 2).unwrap();
        // Degenerate fit: slope 0, so the batch-128 "prediction" is the
        // batch-16 mean — a deliberate under-shoot the recovery ladder
        // (not the fit) is responsible for surviving.
        assert_eq!(at_16.full, linear_sample(16).full);
        assert_eq!(at_128.full, at_16.full);
    }

    #[test]
    fn margin_scales_budgets_only_in_integer_permille() {
        let raw = PredictedFootprint {
            full: 1000,
            min: 500,
            ideal_peak: 970,
            weight_bytes: 400,
            iter_wall: Duration::from_nanos(77),
        };
        let padded = raw.with_margin(1150);
        assert_eq!(padded.full, 1150);
        assert_eq!(padded.min, 575);
        assert_eq!(padded.ideal_peak, 970, "physical targets untouched");
        assert_eq!(padded.weight_bytes, 400);
        assert_eq!(padded.iter_wall, raw.iter_wall);
        // A margin of exactly 1000 is the identity.
        assert_eq!(raw.with_margin(1000), raw);
    }

    #[test]
    fn fits_are_deterministic_across_instances() {
        let feed = |p: &mut FootprintPredictor| {
            for x in [4, 8, 12, 24, 48] {
                p.observe(KEY, linear_sample(x));
            }
        };
        let (mut a, mut b) = (FootprintPredictor::new(), FootprintPredictor::new());
        feed(&mut a);
        feed(&mut b);
        for rb in [1u64, 7, 100, 4096] {
            assert_eq!(a.predict(&KEY, rb, 5), b.predict(&KEY, rb, 5));
        }
    }

    #[test]
    fn round_div_rounds_to_nearest() {
        assert_eq!(round_div(7, 2), 4);
        assert_eq!(round_div(-7, 2), -4);
        assert_eq!(round_div(6, 4), 2);
        assert_eq!(round_div(5, 4), 1);
        assert_eq!(round_div(10, 5), 2);
        assert_eq!(round_div(-10, 4), -3);
    }
}
