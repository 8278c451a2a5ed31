//! The settle pass that runs after every dispatched event: place waiting
//! jobs, then the elastic second pass, then open serving rounds, then
//! consider one checkpoint-preemption.

use std::cmp::Reverse;

use capuchin_sim::{CopyDir, Time};

use crate::admission::AdmissionSource;
use crate::cluster::Cluster;
use crate::session::copy_label::{CHECKPOINT, RESTORE};
use crate::session::{EventKind, JobRun, Phase, Session};
use crate::strategy::{aging_permille, effective_priority_permille, PlacementStrategy};

impl Cluster {
    /// One settle pass after a state change — runs after every
    /// dispatched event and after a [`Cluster::cancel`].
    pub(crate) fn settle(&mut self, s: &mut Session, now: Time) {
        // The strategies are stateless values, so rebuilding one per
        // pass is free — and keeps `self` unborrowed for the admission
        // caches the passes consult.
        let strategy = self.cfg.strategy.build(self.cfg.aging_rate);
        // A `None` pick depends only on queue contents and pool headroom,
        // never on the clock, so while both generations are unchanged the
        // placement and elastic passes provably find nothing — skip them.
        // (Preemption *is* clock-dependent through priority aging and
        // runs below regardless.)
        if s.settled_at != Some((s.pool.generation(), s.queue_gen)) {
            self.place(s, now, strategy.as_ref());
            if self.cfg.elastic {
                self.elastic_pass(s, now, strategy.as_ref());
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
            if let Some(victim) = pick_preemption(s, now, self.cfg.aging_rate, self.cfg.slo_aware) {
                // The whole gang checkpoints or none: every replica's
                // reservation is copied out.
                let dev = &self.cfg.spec;
                s.start_checkpoint(dev, victim, now, &CHECKPOINT, EventKind::Preempt);
            }
        }
    }

    /// (Re-)places waiting jobs at their full batch. Gang grants are
    /// atomic: the strategy names the complete GPU set and every member
    /// is reserved in this same loop step, so no job ever holds a partial
    /// gang (the no-deadlock invariant).
    fn place(&mut self, s: &mut Session, now: Time, strategy: &dyn PlacementStrategy) {
        loop {
            // O(1) hopeless check: when the queue's fit floor sits above
            // the best headroom anywhere, every candidate's threshold
            // fails on every device — `pick` is provably `None` for any
            // strategy, so skip the queue scan entirely. Re-checked per
            // iteration because each admission shrinks headroom.
            let cap = s.pool.max_headroom();
            let floor = s.by_threshold.first_key_value().map(|(&(t, _), _)| t);
            if floor.is_none_or(|t| t > cap) {
                break;
            }
            let picked = {
                let jobs = &s.jobs;
                let slo_aware = self.cfg.slo_aware;
                // The SLO boost is stamped at read time, not baked into
                // the queue: it grows as pending requests age without
                // re-keying anything, and is identically 0 for training
                // jobs and under SLO-blind scheduling.
                let stamped = |j: usize| {
                    let mut c = jobs[j].candidate(j);
                    c.boost_permille = jobs[j].slo_boost(now, slo_aware);
                    c
                };
                if strategy.order_insensitive() {
                    // Feed only the candidates whose threshold clears
                    // some device — a threshold-index range instead of
                    // the whole backlog. Sound because the strategy
                    // declared its pick invariant to candidate order and
                    // to dropping never-placeable candidates.
                    let mut queue = s
                        .by_threshold
                        .range(..=(cap, u64::MAX))
                        .map(|(_, &j)| stamped(j));
                    strategy.pick(&mut queue, &s.pool, now)
                } else {
                    let mut queue = s.pending.values().map(|&j| stamped(j));
                    strategy.pick(&mut queue, &s.pool, now)
                }
            };
            let Some((job, gang)) = picked else {
                break;
            };
            assert_eq!(
                gang.len(),
                s.jobs[job].width(),
                "strategy returned a partial gang"
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
            // Every replica gets the same grant: the tightest member of
            // the gang caps it (replicas run one validated replay).
            let headroom = gang
                .iter()
                .map(|&g| s.pool.headroom(g))
                .min()
                .expect("gang is non-empty");
            let j = &s.jobs[job];
            let grant = headroom.min(j.needs.full);
            // A serving job validates only the forward-only base slice of
            // the grant; the remainder is its KV pool. Training validates
            // the whole grant.
            let (budget, shrunk) = match &j.serving {
                Some(sv) => sv.base_budget(&j.spec, grant),
                None => (grant, grant < j.needs.full),
            };
            // A predicted admission synthesizes its replay from the
            // regression store — no engine run. Everything else (measured
            // and heuristic provenance alike) goes through the admission
            // cache, which routes heuristic-class policies to their own
            // synthetic path.
            let validated = match j.admission_source {
                Some(AdmissionSource::Predicted { .. }) => self.predicted_replay(&j.spec, budget),
                _ => self
                    .cache
                    .validated_replay(&j.spec, j.spec.batch, budget, shrunk),
            };
            self.cache.charge(&mut s.jobs[job].admission_validations);
            match validated {
                Some(replay) => {
                    let j = &mut s.jobs[job];
                    j.shrunk = shrunk;
                    j.replay = replay;
                    let batch = j.spec.batch;
                    s.admit(job, &gang, budget, batch, now);
                }
                // The budget looked plannable but the engine run failed;
                // never retry at or below it.
                None => s.record_queued_failure(job, grant),
            }
        }
    }
}

/// Selects a preemption victim, or `None` when preemption cannot help.
///
/// For each *fresh* waiting job (checkpointed jobs queue for natural
/// space — letting them preempt would ping-pong), in descending effective
/// priority (`priority + aging_rate × wait`): if its gang fits nowhere
/// as-is, look for the lowest-static-priority iterating resident whose
/// eviction would open enough headroom for the waiter's full gang width,
/// with the victim's priority strictly below the waiter's effective
/// priority. A victim gang is evicted whole — releasing its reservation
/// on *every* device it holds — or not at all.
fn pick_preemption(s: &Session, now: Time, aging_rate: f64, slo_aware: bool) -> Option<usize> {
    let jobs = &s.jobs;
    let ap = aging_permille(aging_rate);
    let eff = |priority: u32, since: Time| {
        effective_priority_permille(priority, ap, now.saturating_since(since))
    };
    // A waiter's urgency includes its SLO boost: a latency job with
    // requests burning slack can evict where its static priority alone
    // could not. 0 for training waiters and under SLO-blind scheduling.
    let eff_of = |p: usize| {
        eff(jobs[p].spec.priority, jobs[p].queued_at) + jobs[p].slo_boost(now, slo_aware) as u128
    };
    // Would evicting `victim` open enough devices for waiter `jp`'s full
    // gang? The fit predicate is monotone in headroom (a per-waiter
    // threshold, see [`crate::CandidateJob::fit_threshold`]), so the base
    // count is one index probe; the victim's held devices — the only
    // ones whose headroom the eviction changes, disjoint from the base
    // count since they sit below the threshold — are then credited
    // individually.
    let gang_fits = |jp: &JobRun, victim: Option<usize>| {
        let cand = jp.candidate(0);
        let Some(t) = cand.fit_threshold() else {
            // A failed budget at or above the full need: no headroom,
            // freed or not, can ever satisfy this waiter.
            return false;
        };
        let width = jp.width();
        let base = s.pool.count_at_least(t, width);
        if base >= width {
            return true;
        }
        let Some(v) = victim else { return false };
        let vres = jobs[v].reserved;
        let credited = jobs[v]
            .gpus_held
            .iter()
            .filter(|&&g| {
                let h = s.pool.headroom(g);
                h < t && h + vres >= t
            })
            .count();
        base + credited >= width
    };
    let mut waiters: Vec<usize> = s
        .pending
        .values()
        .copied()
        .filter(|&p| !matches!(jobs[p].phase, Phase::Preempted { .. }))
        .collect();
    waiters.sort_by_cached_key(|&a| {
        (
            Reverse(eff_of(a)),
            Reverse(jobs[a].spec.priority),
            jobs[a].queued_at.as_nanos(),
            a,
        )
    });
    for &p in &waiters {
        let jp = &jobs[p];
        let ep = eff_of(p);
        if gang_fits(jp, None) {
            // Placeable without violence; the strategy just chose not to
            // (e.g. FIFO head-of-line). Preemption is not the tool.
            continue;
        }
        // Serving residents are never victims: checkpoint-preempting a
        // serving job mid-request would strand its in-flight latencies
        // behind a host round-trip the SLO never priced.
        let mut victims: Vec<usize> = s
            .resident_jobs
            .iter()
            .copied()
            .filter(|&v| jobs[v].serving.is_none())
            .filter(|&v| matches!(jobs[v].phase, Phase::Running))
            .filter(|&v| (jobs[v].spec.priority as u128) * 1000 < ep)
            .collect();
        victims.sort_by_key(|&v| (jobs[v].spec.priority, v));
        for &v in &victims {
            if gang_fits(jp, Some(v)) {
                return Some(v);
            }
        }
    }
    None
}
