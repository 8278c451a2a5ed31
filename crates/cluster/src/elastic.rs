//! Elastic re-batching: the per-job [`ElasticState`] and the decisions
//! only elastic training jobs make — admission at a reduced batch when
//! nothing fits at the full one, re-growing at completed-iteration
//! boundaries, and shrinking one ladder rung to absorb an inference
//! burst. Every batch change keeps the samples trained exact.

use std::sync::Arc;

use capuchin::{bisect_batch, elastic_batches};
use capuchin_sim::{CopyDir, Duration, Time};

use crate::admission::{AdmissionSource, ReplayIter};
use crate::cluster::Cluster;
use crate::job::JobSpec;
use crate::session::copy_label::{
    REGROW_CHECKPOINT, REGROW_RESTORE, SHRINK_CHECKPOINT, SHRINK_RESTORE,
};
use crate::session::{multiset_add, EventKind, Phase, Session};
use crate::stats::JobEventKind;
use crate::strategy::CandidateJob;

/// Per-job state of an elastic training job, created at submission when
/// the job is marked elastic and the cluster re-batches.
#[derive(Debug, Default)]
pub(crate) struct ElasticState {
    /// Cached minimum of `needs.min` over the job's whole ladder: when
    /// even this exceeds the best headroom anywhere, the elastic pass
    /// skips the job without probing a single rung.
    pub(crate) ladder_floor_min: Option<u64>,
    /// Batch changes: the admission-time shrink plus every mid-run
    /// re-grow (or burst shrink).
    pub(crate) rebatches: u64,
    /// When the current reduced-batch period started; `None` while the
    /// job runs at its full batch (or is checkpointed out — the clock
    /// pauses during preemption).
    pub(crate) reduced_since: Option<Time>,
    /// Accumulated wall time spent training below the requested batch.
    pub(crate) reduced_time: Duration,
    /// Mid-run shrinks performed to absorb an inference burst.
    pub(crate) burst_shrinks: u64,
    /// Currently running reduced specifically for a burst; the next
    /// re-grow closes the cycle.
    shrunk_for_burst: bool,
    /// A burst-absorption shrink decided by the serving loop, applied at
    /// the job's next completed-iteration boundary (target global batch,
    /// one ladder rung below the current one).
    pending_shrink: Option<usize>,
}

impl ElasticState {
    /// Closes the reduced-batch window, if one is open.
    pub(crate) fn close_reduced(&mut self, now: Time) {
        if let Some(since) = self.reduced_since.take() {
            self.reduced_time += now.saturating_since(since);
        }
    }
}

/// An in-flight elastic batch change: decided at a completed-iteration
/// boundary, applied when the checkpoint + restore copies drain
/// ([`EventKind::Regrow`]). The new reservation is claimed immediately so
/// the copy window cannot over-commit; the replay swap happens at the
/// event.
#[derive(Debug)]
pub(crate) struct Regrow {
    /// The new global batch.
    batch: usize,
    /// Whether the new grant is below the new batch's ideal peak.
    shrunk: bool,
    /// Validated replay trace at the new batch and grant.
    replay: Arc<Vec<ReplayIter>>,
}

/// The elastic job's state; panics for any other class.
fn elastic(s: &mut Session, job: usize) -> &mut ElasticState {
    s.jobs[job].elastic.as_mut().expect("elastic job")
}

impl Cluster {
    /// Whether the ladder's floor batch of `spec` fits a bare GPU — what
    /// keeps an elastic job admissible when its full-batch minimum does
    /// not.
    pub(crate) fn ladder_floor_fits(&mut self, spec: &JobSpec) -> bool {
        let ladder = elastic_batches(spec.batch);
        let floor = *ladder.last().expect("ladder is never empty");
        self.cache.estimate(spec, floor).1.min <= self.cfg.spec.memory_bytes
    }

    /// The elastic second pass of a settle: placement just said nothing
    /// fits at the full batch, so trade batch for an earlier start. For
    /// each waiting elastic job (queue-entry order), bisect the halving
    /// ladder for the largest reduced batch some gang subset can host
    /// right now and admit there through the shared grant path
    /// ([`Cluster::admit_on`]); the iteration count extends so total
    /// samples trained is preserved.
    pub(crate) fn elastic_pass(&mut self, s: &mut Session, now: Time) {
        let kind = self.cfg.strategy;
        // O(1) gate, mirroring the placement fit floor: no rung of any
        // waiting ladder fits below the smallest known floor, so while
        // headroom stays under it (and every floor is known) the whole
        // pass is provably a no-op.
        let live = s.elastic_unfloored > 0
            || s.elastic_floors
                .first_key_value()
                .is_some_and(|(&f, _)| f <= s.pool.max_headroom());
        if !live {
            return;
        }
        let waiting: Vec<usize> = s.pending_elastic.values().copied().collect();
        for job in waiting {
            let ladder = elastic_batches(s.jobs[job].spec.batch);
            if ladder.len() < 2 {
                // A batch of 1 cannot shrink — ever. File the job
                // under an unreachable floor so the gate above can still
                // close.
                if elastic(s, job).ladder_floor_min.is_none() {
                    elastic(s, job).ladder_floor_min = Some(u64::MAX);
                    s.elastic_unfloored -= 1;
                    multiset_add(&mut s.elastic_floors, u64::MAX);
                }
                continue;
            }
            // Cheap reject before any probe: if even the smallest rung's
            // minimum exceeds the best headroom anywhere, no rung can fit
            // (every rung's fit threshold is at least its own minimum,
            // which is at least the ladder floor).
            let floor_min = match elastic(s, job).ladder_floor_min {
                Some(v) => v,
                None => {
                    let spec = &s.jobs[job].spec;
                    let v = ladder
                        .iter()
                        .map(|&b| self.cache.estimate(spec, b).1.min)
                        .min()
                        .expect("ladder is never empty");
                    elastic(s, job).ladder_floor_min = Some(v);
                    s.elastic_unfloored -= 1;
                    multiset_add(&mut s.elastic_floors, v);
                    v
                }
            };
            self.cache.charge(&mut s.jobs[job].admission_validations);
            if floor_min > s.pool.max_headroom() {
                continue;
            }
            // ladder[0] is the full batch placement already refused this
            // instant; only reduced candidates. A rung fits exactly when
            // its gang exists ([`CandidateJob::fits`]), so the bisection
            // probes device counts and the gang search runs once, on the
            // chosen rung.
            let j = &s.jobs[job];
            let mut rung = |b: usize| {
                let needs = self.cache.estimate(&j.spec, b).1;
                CandidateJob {
                    full_need: needs.full,
                    min_need: needs.min,
                    failed_budget: j.failed.get(&b).copied(),
                    ..j.candidate(job)
                }
            };
            let chosen = bisect_batch(&ladder[1..], |b| rung(b).fits(&s.pool));
            let chosen = chosen.map(|b| (b, rung(b)));
            self.cache.charge(&mut s.jobs[job].admission_validations);
            let Some((batch, c)) = chosen else { continue };
            let gang = kind.gang(&c, &s.pool).expect("the chosen rung fits");
            if self.admit_on(s, job, &gang, batch, c.full_need, now) {
                // The reduced-batch grant was engine-validated, whatever
                // the arrival-time provenance said: record the stronger
                // guarantee and skip mispredict verification.
                let j = &mut s.jobs[job];
                j.admission_source = Some(AdmissionSource::Measured);
                j.cur_batch = batch;
                let e = elastic(s, job);
                e.rebatches += 1;
                e.reduced_since = Some(now);
            }
        }
    }

    /// An elastic job's completed-iteration boundary — the only instants
    /// a batch change is sound (the replay cursor is at a boundary): a
    /// burst-absorption shrink decided by the serving loop applies first,
    /// else a reduced job checks for freed headroom to re-grow. Returns whether a batch change is now in flight (the
    /// caller must not schedule the next iteration).
    pub(crate) fn elastic_boundary(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let Some(e) = &s.jobs[job].elastic else {
            return false;
        };
        if e.pending_shrink.is_some() && self.try_shrink(s, job, now) {
            return true;
        }
        s.jobs[job].cur_batch < s.jobs[job].spec.batch.max(1) && self.try_regrow(s, job, now)
    }

    /// Tries to grow `job`'s batch back toward the requested size using
    /// headroom on the GPUs it already holds (growth happens in place —
    /// the gang keeps its devices). Bisects the ladder candidates above
    /// the current batch and hands the winner to [`Cluster::rebatch`].
    fn try_regrow(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let j = &s.jobs[job];
        let above: Vec<usize> = elastic_batches(j.spec.batch)
            .into_iter()
            .filter(|&b| b > j.cur_batch)
            .collect();
        if above.is_empty() {
            return false;
        }
        // Headroom on each held device with this job's own reservation
        // returned; the gang's tightest member caps the grant.
        let free = j
            .gpus_held
            .iter()
            .map(|&g| s.pool.headroom(g) + j.reserved)
            .min()
            .expect("resident job holds its gang");
        let chosen = bisect_batch(&above, |b| {
            let needs = self.cache.estimate(&j.spec, b).1;
            free >= needs.min && j.failed.get(&b).is_none_or(|&fb| free.min(needs.full) > fb)
        });
        self.cache.charge(&mut s.jobs[job].admission_validations);
        let Some(batch) = chosen else { return false };
        let needs = self.cache.estimate(&s.jobs[job].spec, batch).1;
        let labels = [&*REGROW_CHECKPOINT, &*REGROW_RESTORE];
        self.rebatch(s, job, now, batch, free.min(needs.full), needs.full, labels)
    }

    /// Applies a pending burst-absorption shrink at `job`'s completed-
    /// iteration boundary: re-validates at the reduced batch, releases
    /// the freed bytes immediately (the burst claims them during the
    /// copy window), and charges the same checkpoint/restore round-trip
    /// a re-grow pays.
    fn try_shrink(&mut self, s: &mut Session, job: usize, now: Time) -> bool {
        let Some(target) = elastic(s, job).pending_shrink.take() else {
            return false;
        };
        if target >= s.jobs[job].cur_batch {
            return false;
        }
        let needs = self.cache.estimate(&s.jobs[job].spec, target).1;
        self.cache.charge(&mut s.jobs[job].admission_validations);
        let grant = s.jobs[job].reserved.min(needs.full);
        if grant < needs.min {
            return false;
        }
        let labels = [&*SHRINK_CHECKPOINT, &*SHRINK_RESTORE];
        if !self.rebatch(s, job, now, target, grant, needs.full, labels) {
            return false;
        }
        let e = elastic(s, job);
        e.burst_shrinks += 1;
        e.shrunk_for_burst = true;
        true
    }

    /// The shared tail of an elastic batch change (a re-grow or a burst
    /// shrink) to `batch` at a `grant` reservation below a `full` need:
    /// validate the new replay — a failure is recorded and the job keeps
    /// its batch — then upgrade a predicted provenance to the stronger
    /// measured guarantee, charge the batch change like a preemption
    /// round-trip (device-to-host of the old reservation, then
    /// host-to-device of the new, on every replica), and claim the new
    /// reservation immediately: no placement decided during the copy
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
        labels: [&Arc<str>; 2],
    ) -> bool {
        let shrunk = grant < full;
        let validated = self
            .cache
            .validated_replay(&s.jobs[job].spec, batch, grant, shrunk);
        self.cache.charge(&mut s.jobs[job].admission_validations);
        let Some(replay) = validated else {
            s.jobs[job].record_failed(batch, grant);
            return false;
        };
        s.jobs[job].admission_source = Some(AdmissionSource::Measured);
        let dev = &self.cfg.spec;
        let old = s.jobs[job].reserved;
        let out = s.host_copy(dev, job, now, old, CopyDir::DeviceToHost, labels[0]);
        let end = s.host_copy(dev, job, out, grant, CopyDir::HostToDevice, labels[1]);
        s.resize(job, grant, now);
        elastic(s, job).rebatches += 1;
        let j = &mut s.jobs[job];
        j.checkpoint_overhead += end.saturating_since(now);
        j.phase = Phase::Regrowing(Regrow {
            batch,
            shrunk,
            replay,
        });
        j.epoch += 1;
        s.heap.push(end, EventKind::Regrow, job, j.epoch);
        true
    }

    /// The batch-change copies drained ([`EventKind::Regrow`]): swap in
    /// the new replay and continue from the same samples cursor at the
    /// new batch.
    pub(crate) fn finish_rebatch(&self, s: &mut Session, job: usize, now: Time) {
        let j = &mut s.jobs[job];
        let Phase::Regrowing(rg) = std::mem::replace(&mut j.phase, Phase::Barrier) else {
            unreachable!("a live regrow event belongs to a regrowing job")
        };
        let grew = rg.batch > j.cur_batch;
        j.cur_batch = rg.batch;
        j.shrunk = rg.shrunk;
        j.replay = rg.replay;
        let e = j.elastic.as_mut().expect("regrowing job is elastic");
        if rg.batch >= j.spec.batch {
            // Back at the requested batch: close the reduced-time window.
            e.close_reduced(now);
        } else if e.reduced_since.is_none() {
            // A downward change (burst absorption) opens it.
            e.reduced_since = Some(now);
        }
        // Any re-growth after a burst-absorption shrink closes the cycle:
        // the burst drained and the trained batch recovered.
        if grew && e.shrunk_for_burst {
            e.shrunk_for_burst = false;
            s.burst_cycles += 1;
        }
        s.emit(job, now, JobEventKind::Rebatched { batch: rg.batch });
        s.start_iter(job, now);
    }

    /// Finds an elastic training neighbour to shrink one ladder rung so
    /// `job`'s KV-blocked backlog can be served. The victim must hold
    /// *every* deficient device (a gang re-batches whole), have a rung
    /// left below its current batch, and no batch change already in
    /// flight; the lowest-priority such resident is asked. The shrink
    /// itself is deferred to the victim's next completed-iteration
    /// boundary — the only instant a batch change is sound.
    pub(crate) fn absorb_burst(&self, s: &mut Session, job: usize) {
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
        let jobs = &s.jobs;
        let mut candidates: Vec<usize> = s
            .resident_jobs
            .iter()
            .copied()
            .filter(|&v| {
                let t = &jobs[v];
                t.elastic
                    .as_ref()
                    .is_some_and(|e| e.pending_shrink.is_none())
                    && !matches!(t.phase, Phase::Checkpointing | Phase::Regrowing(_))
                    && deficient.iter().all(|d| t.gpus_held.contains(d))
            })
            .collect();
        candidates.sort_by_key(|&c| (jobs[c].spec.priority, c));
        for v in candidates {
            let ladder = elastic_batches(s.jobs[v].spec.batch);
            let cur = s.jobs[v].cur_batch;
            // The ladder is descending: the first rung under the current
            // batch is the smallest shrink that frees any memory.
            if let Some(target) = ladder.into_iter().find(|&b| b < cur) {
                elastic(s, v).pending_shrink = Some(target);
                return;
            }
        }
    }
}
