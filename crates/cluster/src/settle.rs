//! The settle pass that runs after every dispatched event: place waiting
//! jobs, then the elastic second pass, then open serving rounds, then
//! consider one checkpoint-preemption.

use capuchin_sim::{CopyDir, Time};

use crate::admission::AdmissionSource;
use crate::cluster::Cluster;
use crate::session::copy_label::{CHECKPOINT, RESTORE};
use crate::session::{EventKind, Phase, Session};
use crate::strategy::{pick_victim, ResidentView, StrategyKind};

impl Cluster {
    /// One settle pass after a state change — runs after every
    /// dispatched event and after a [`Cluster::cancel`].
    pub(crate) fn settle(&mut self, s: &mut Session, now: Time) {
        // A `None` pick depends only on queue contents and pool headroom,
        // never on the clock, so while both generations are unchanged the
        // placement and elastic passes provably find nothing — skip them.
        // (Preemption *is* clock-dependent through priority aging and
        // runs below regardless.)
        if s.settled_at != Some((s.pool.generation(), s.queue_gen)) {
            self.place(s, now);
            if self.cfg.elastic {
                self.elastic_pass(s, now);
            }
            s.settled_at = Some((s.pool.generation(), s.queue_gen));
        }
        // Serving loop: every resident inference job with an idle engine
        // and a backlog opens a round now. Runs on every settle, *after*
        // the settled snapshot — request arrivals touch neither queue
        // nor pool, so the settled-skip above would otherwise starve
        // them, and any KV reservation made here moves the pool
        // generation so the next settle re-places honestly. Visits the
        // serving residents in job order; a round that aborts its own
        // job drops it from the set, so the walk resumes past it.
        let mut next = s.serving_jobs.first().copied();
        while let Some(job) = next {
            self.try_serve(s, job, now);
            next = s.serving_jobs.range(job + 1..).next().copied();
        }
        // Nothing placeable: consider evicting a low-priority resident
        // through a host checkpoint. One preemption in flight at a time
        // keeps victim selection honest about headroom. Aging makes the
        // victim choice clock-dependent, so this pass never skips.
        if self.cfg.preemption && s.preempting == 0 {
            let (jobs, slo_aware) = (&s.jobs, self.cfg.slo_aware);
            let waiters = s.pending.values().copied();
            let waiters = waiters
                .filter(|&p| !matches!(jobs[p].phase, Phase::Preempted { .. }))
                .map(|p| jobs[p].stamped(p, now, slo_aware));
            let residents = s.resident_jobs.iter().copied();
            let residents = residents
                .filter(|&v| jobs[v].serving.is_none() && matches!(jobs[v].phase, Phase::Running))
                .map(|v| ResidentView {
                    job: v,
                    priority: jobs[v].spec.priority,
                    reserved: jobs[v].reserved,
                    gpus: &jobs[v].gpus_held,
                });
            let work = &mut s.counters;
            if let Some(victim) = pick_victim(waiters, residents, &s.pool, now, work) {
                // The whole gang checkpoints or none: every replica's
                // reservation is copied out.
                let dev = &self.cfg.spec;
                s.start_checkpoint(dev, victim, now, &CHECKPOINT, EventKind::Preempt);
            }
        }
    }

    /// (Re-)places waiting jobs at their full batch. Gang grants are
    /// atomic: the pick names the complete GPU set and every member is
    /// reserved in this same loop step, so no job ever holds a partial
    /// gang (the no-deadlock invariant).
    fn place(&mut self, s: &mut Session, now: Time) {
        let (kind, slo_aware) = (self.cfg.strategy, self.cfg.slo_aware);
        loop {
            // O(1) hopeless check: when the queue's fit floor sits above
            // the best headroom anywhere, every candidate's threshold
            // fails on every device — `pick` is provably `None` for
            // either strategy, so skip the queue scan entirely. Re-checked
            // per iteration because each admission shrinks headroom.
            let cap = s.pool.max_headroom();
            let floor = s.by_threshold.first_key_value().map(|(&(t, _), _)| t);
            if floor.is_none_or(|t| t > cap) {
                break;
            }
            let stamped = |&j: &usize| s.jobs[j].stamped(j, now, slo_aware);
            let work = &mut s.counters;
            let picked = if kind == StrategyKind::FifoFirstFit {
                // Head-of-line blocking: only the oldest waiter counts.
                let head = s.pending.values().next().map(stamped);
                kind.pick(head, &s.pool, now, work)
            } else {
                // Best-fit's pick ignores candidate order and candidates
                // that fit nowhere, so a threshold-index range feeds it
                // only those whose threshold clears some device.
                let eligible = s.by_threshold.range(..=(cap, u64::MAX)).map(|(_, j)| j);
                kind.pick(eligible.map(stamped), &s.pool, now, work)
            };
            let Some((job, gang)) = picked else {
                break;
            };
            assert_eq!(
                gang.len(),
                s.jobs[job].width(),
                "pick returned a partial gang"
            );
            if let Phase::Preempted { .. } = s.jobs[job].phase {
                // Resume placement: regrant the checkpointed budget on
                // every replica and charge the host-to-device restore
                // copy before the first resumed iteration.
                let grant = s.jobs[job].reserved;
                s.grant(job, &gang, grant, now);
                let dir = CopyDir::HostToDevice;
                let end = s.host_copy(&self.cfg.spec, job, now, grant, dir, &RESTORE);
                let j = &mut s.jobs[job];
                j.checkpoint_overhead += end.saturating_since(now);
                j.epoch += 1;
                s.heap.push(end, EventKind::Resume, job, j.epoch);
                s.reprice(&gang, now);
                continue;
            }
            let (batch, full) = (s.jobs[job].spec.batch, s.jobs[job].needs.full);
            self.admit_on(s, job, &gang, batch, full, now);
        }
    }

    /// Admits waiting `job` on `gang` at global batch `batch`, whose
    /// ideal per-replica peak is `full` — the one grant path of placement
    /// and the elastic pass. Every replica gets the same grant,
    /// `min(headroom, full)` on the gang's tightest member (replicas run
    /// one validated replay). The grant is validated, then the job starts;
    /// a failed validation is recorded so the budget is never retried at
    /// or below it. Returns whether the job was admitted.
    pub(crate) fn admit_on(
        &mut self,
        s: &mut Session,
        job: usize,
        gang: &[usize],
        batch: usize,
        full: u64,
        now: Time,
    ) -> bool {
        let headroom = gang
            .iter()
            .map(|&g| s.pool.headroom(g))
            .min()
            .expect("gang is non-empty");
        let grant = headroom.min(full);
        let j = &s.jobs[job];
        // A serving job validates only the forward-only base slice of
        // the grant; the remainder is its KV pool. Training validates
        // the whole grant.
        let (budget, shrunk) = match &j.serving {
            Some(sv) => sv.base_budget(&j.spec, grant),
            None => (grant, grant < full),
        };
        // A predicted admission synthesizes its replay from the
        // regression store — no engine run — at the requested batch only.
        // Everything else (measured and heuristic provenance alike, and
        // every reduced elastic batch) goes through the admission cache,
        // which routes heuristic-class policies to their own synthetic
        // path.
        let validated = match j.admission_source {
            Some(AdmissionSource::Predicted) if batch == j.spec.batch => {
                self.predicted_replay(&j.spec, budget)
            }
            _ => self.cache.validated_replay(&j.spec, batch, budget, shrunk),
        };
        self.cache.charge(&mut s.jobs[job].admission_validations);
        let Some(replay) = validated else {
            s.record_queued_failure(job, batch, grant);
            return false;
        };
        let j = &mut s.jobs[job];
        j.shrunk = shrunk;
        j.replay = replay;
        s.admit(job, gang, budget, batch, now);
        true
    }
}
