//! Predicted admission: the per-job [`Prediction`] record and the
//! decisions only predicted jobs make. Arrival consults the footprint
//! regression store (Shi & Elkhatib's dynamic-analysis predictor,
//! PAPERS.md) before measuring; a warm key admits on `prediction ×
//! safety margin` with zero measuring and zero validation engine runs.
//! The first completed boundary checks the grant against measured truth,
//! and an under-shoot is recovered by checkpointing the job back through
//! measured admission. Measured completions feed the store.

use std::sync::Arc;

use capuchin_sim::Time;

use crate::admission::{with_slack, AdmissionSource, EstimateSummary, JobNeeds, ReplayIter};
use crate::cluster::Cluster;
use crate::job::JobSpec;
use crate::policy::CostClass;
use crate::predict::{key_of, FootprintSample, PredictedFootprint};
use crate::session::copy_label::MISPREDICT_CHECKPOINT;
use crate::session::{EventKind, Phase, Session};
use crate::stats::{JobEventKind, JobOutcome};

/// The padding on predicted budget targets, in permille: 1150 reserves
/// 15 % above the raw prediction, so a prediction is never shaved.
const SAFETY_MARGIN_PERMILLE: u64 = 1150;

/// Per-job record of a predicted admission, created at arrival when the
/// predictor's key was warm. It outlives a recovery: the stats report
/// what was predicted and how far off it was.
#[derive(Debug, Default)]
pub(crate) struct Prediction {
    /// Margin-padded predicted full reservation — the budget the job was
    /// actually admitted on.
    pub(crate) padded_full: u64,
    /// Raw (pre-margin) predicted full reservation: the error score
    /// rates the regression, not the safety padding.
    raw_full: u64,
    /// `|raw prediction − measured truth| × 1000 / truth` for the full
    /// reservation, recorded when the first-boundary check runs.
    pub(crate) error_permille: u64,
    /// Times an under-shooting prediction forced a checkpoint-preempt and
    /// measured re-admission.
    pub(crate) recoveries: u64,
    /// The first-boundary truth check already ran (it runs once).
    checked: bool,
}

impl Cluster {
    /// Derives a newly arrived job's admission budgets, provenance
    /// included, and counts predictor hits and misses.
    ///
    /// Heuristic-class policies estimate from a measuring run. For
    /// measured-class (predictable) policies with predictive mode on, the
    /// regression store is consulted first: a warm key admits on
    /// `prediction × safety margin` — even when the estimate cache
    /// happens to hold the shape (the warm-key guarantee is keyed on the
    /// *family*, not the batch) — and a cold key falls back to measured
    /// estimation, whose completion later feeds the store.
    pub(crate) fn arrival_budgets(&mut self, s: &mut Session, job: usize) {
        let spec = &s.jobs[job].spec;
        let descriptor = spec.policy.descriptor();
        let heuristic = descriptor.cost_class == CostClass::Heuristic;
        let consult = !heuristic && self.cfg.predictive && descriptor.predictable;
        let raw = if consult { self.predict(spec) } else { None };
        let (est, base, source, prediction) = match raw {
            Some(raw) => {
                let padded = raw.with_margin(SAFETY_MARGIN_PERMILLE);
                // The measured path's rule: tf-ori admission never shrinks.
                let base = JobNeeds {
                    full: padded.full,
                    min: self.cache.admission.floor(|| padded.min).min(padded.full),
                };
                let prediction = Prediction {
                    padded_full: base.full,
                    raw_full: raw.full,
                    ..Prediction::default()
                };
                let source = AdmissionSource::Predicted;
                (padded.into(), base, source, Some(prediction))
            }
            None => {
                let (est, base) = self.cache.estimate(spec, spec.batch);
                let source = if heuristic {
                    AdmissionSource::Heuristic
                } else {
                    AdmissionSource::Measured
                };
                (est, base, source, None)
            }
        };
        if consult {
            match prediction {
                Some(_) => s.predictor_hits += 1,
                None => s.predictor_misses += 1,
            }
        }
        let j = &mut s.jobs[job];
        j.admission_source = Some(source);
        j.prediction = prediction;
        j.set_needs(&est, base);
    }

    /// The regression store's raw (pre-margin) footprint for `spec`'s
    /// family at its replica batch; `None` while the key is cold.
    fn predict(&self, spec: &JobSpec) -> Option<PredictedFootprint> {
        let rb = spec.replica_batch() as u64;
        self.predictor
            .predict(&key_of(spec), rb, self.cfg.min_samples)
    }

    /// Synthesizes the replay trace a predicted admission hands the
    /// clock, from the regression store alone — the same deficit-paging
    /// model heuristic admissions use
    /// ([`crate::admission::AdmissionCache::synthesize_replay`]). No
    /// measuring run, no validation engine run: that absence *is* the
    /// warm-key guarantee. `None` when the key went cold (impossible once
    /// warm — the store only grows) or the budget sits below the
    /// predicted weight floor.
    pub(crate) fn predicted_replay(
        &self,
        spec: &JobSpec,
        budget: u64,
    ) -> Option<Arc<Vec<ReplayIter>>> {
        let est: EstimateSummary = self
            .predict(spec)?
            .with_margin(SAFETY_MARGIN_PERMILLE)
            .into();
        self.cache.synthesize_replay(spec, &est, budget)
    }

    /// Checks a predicted admission against measured truth at the job's
    /// first completed iteration (or serving round) boundary — the
    /// bottom rung of the fallback ladder. A prediction that *held* (the
    /// grant clears what the truth actually requires) just records its
    /// error score. An under-shoot triggers checkpoint-preemption
    /// recovery: the boundary iteration is discarded as wasted work, the
    /// state is copied to the host, and [`EventKind::Remeasure`]
    /// re-enters admission on the measured path. Returns whether a
    /// recovery is now in flight (the caller must return without banking
    /// progress).
    pub(crate) fn verify_prediction(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let j = &s.jobs[job];
        match &j.prediction {
            Some(p) if !p.checked && j.admission_source == Some(AdmissionSource::Predicted) => {}
            _ => return false,
        }
        // The shape's measuring run, shared with its measured and
        // heuristic budgets: planner math only, no validation engine run.
        let truth = self.cache.record(&j.spec, j.spec.batch);
        let true_full = with_slack(truth.summary.ideal_peak);
        // What the grant actually had to clear: the smallest budget the
        // admission mode shrinks to (none under tf-ori: the padded peak).
        let required = truth.floor.min(true_full);
        // A serving round's KV slots ride on top of the forward base the
        // truth describes; compare the base slice of the reservation.
        let kv_held = j.serving.as_ref().map_or(0, |sv| {
            j.spec
                .kv_bytes_per_request
                .saturating_mul(sv.inflight.len() as u64)
        });
        let holds = j.reserved.saturating_sub(kv_held) >= required;
        let j = &mut s.jobs[job];
        let p = j.prediction.as_mut().expect("checked above");
        p.checked = true;
        // Score the regression itself (pre-margin) — the safety padding
        // is the knob, not the model.
        if true_full > 0 {
            let diff = p.raw_full.abs_diff(true_full) as u128;
            p.error_permille = ((diff * 1000) / true_full as u128) as u64;
        }
        if holds {
            return false;
        }
        // Under-shoot: no feasible plan fits the grant. Recover, first
        // giving a serving round's requests back to the queue in arrival
        // order and returning their KV slots.
        p.recoveries += 1;
        if let Some(sv) = &mut j.serving {
            while let Some(t0) = sv.inflight.pop() {
                sv.queue.push_front(t0);
            }
        }
        if kv_held > 0 {
            s.resize(job, s.jobs[job].reserved - kv_held, now);
        }
        s.jobs[job].close_reduced(now);
        let label = &MISPREDICT_CHECKPOINT;
        s.start_checkpoint(&self.cfg.spec, job, now, label, EventKind::Remeasure);
        true
    }

    /// A mispredict recovery's checkpoint copy drained: the predicted
    /// grant is surrendered wholesale and the job re-enters admission on
    /// the measured path.
    pub(crate) fn remeasure(&mut self, s: &mut Session, job: usize, now: Time) {
        s.jobs[job].queued_at = now;
        s.release_gang(job, now, Phase::Queued, JobEventKind::Preempted);
        let spec = &s.jobs[job].spec;
        let (est, base) = self.cache.estimate(spec, spec.batch);
        // The re-measurement's engine runs bill the job whose prediction
        // forced them, not whoever admits next.
        self.cache.charge(&mut s.jobs[job].admission_validations);
        let j = &mut s.jobs[job];
        j.admission_source = Some(AdmissionSource::Measured);
        j.set_needs(&est, base);
        if j.needs.min <= self.cfg.spec.memory_bytes {
            s.enqueue(job);
        } else {
            // The measured truth does not fit a bare GPU: the prediction
            // admitted an impossible job. Abort it — this is the one
            // mispredict outcome that cannot be recovered by re-queueing.
            s.finish(job, now, JobOutcome::Aborted);
        }
    }

    /// Feeds a completed measured admission's shape into the regression
    /// store. Only measured-provenance completions qualify — predicted
    /// admissions would re-feed the predictor its own output, and
    /// heuristic budgets were never validated. The cached estimate entry
    /// is the ground truth being recorded, so a missing entry (possible
    /// after an elastic job finished at a reduced batch) just skips.
    pub(crate) fn feed_predictor(&mut self, s: &Session, job: usize) {
        let spec = &s.jobs[job].spec;
        if !self.cfg.predictive
            || !spec.policy.descriptor().predictable
            || !matches!(
                s.jobs[job].admission_source,
                Some(AdmissionSource::Measured)
            )
        {
            return;
        }
        let Some((est, needs)) = self.cache.measured(spec) else {
            return;
        };
        self.predictor.observe(
            key_of(spec),
            FootprintSample {
                replica_batch: spec.replica_batch() as u64,
                full: needs.full,
                min: needs.min,
                ideal_peak: est.ideal_peak,
                weight_bytes: est.weight_bytes,
                iter_wall: est.iter_wall,
            },
        );
    }
}
