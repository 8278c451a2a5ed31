//! Inference serving: the per-job [`Serving`] state and the decisions
//! only serving jobs make — KV pricing at admission, the request-arrival
//! process, opening serving rounds on live headroom, and completing them
//! against the latency SLO. The multi-workload setting follows TENSILE
//! (PAPERS.md): serving jobs hold forward-only budgets plus per-request
//! KV state next to training jobs on the same GPUs.

use std::collections::VecDeque;

use capuchin_sim::{Duration, Time};

use crate::admission::JobNeeds;
use crate::cluster::Cluster;
use crate::job::{JobSpec, SplitMix64};
use crate::session::{EventKind, Phase, Session};
use crate::stats::{JobEventKind, JobOutcome};
use crate::strategy::slo_boost_permille;

/// Per-job state of an inference job, created with the job at submission.
#[derive(Debug, Default)]
pub(crate) struct Serving {
    /// Deterministic generator for request inter-arrival jitter, seeded
    /// from the submission index.
    rng: SplitMix64,
    /// Request arrivals scheduled so far (arrival `i` schedules arrival
    /// `i + 1` until `spec.requests` have been generated).
    scheduled: u64,
    /// Arrival instants of requests waiting to enter a serving round,
    /// oldest first.
    pub(crate) queue: VecDeque<Time>,
    /// Arrival instants of the requests in the in-flight serving round
    /// (each holds `kv_bytes_per_request` on every held GPU until the
    /// round drains).
    pub(crate) inflight: Vec<Time>,
    /// Base needs (forward-only, before KV pricing), kept so placement
    /// can recover the KV-free budget split of a grant.
    base: JobNeeds,
    /// Per-request served latencies in integer nanoseconds, accumulated
    /// for the percentile stats (sorted only at stats time).
    latencies: Vec<u64>,
    /// Requests served so far.
    pub(crate) served: u64,
    /// Served requests that exceeded the SLO.
    pub(crate) slo_misses: u64,
    /// The SLO in integer nanoseconds (0 = none).
    slo_ns: u64,
}

impl Serving {
    pub(crate) fn new(spec: &JobSpec, id: usize) -> Serving {
        Serving {
            // Mixing in a large odd constant decorrelates consecutive
            // submission indices through splitmix's finalizer.
            rng: SplitMix64::new((id as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5EED),
            slo_ns: spec.slo_nanos(),
            ..Serving::default()
        }
    }

    /// Prices a full round's KV state on top of the forward-only `base`:
    /// `full` asks for the licensed concurrency's worth, `min` for at
    /// least one request's slot — a grant anywhere in between licenses
    /// proportionally fewer concurrent requests (never zero).
    pub(crate) fn price(&mut self, spec: &JobSpec, base: JobNeeds) -> JobNeeds {
        self.base = base;
        JobNeeds {
            full: base.full.saturating_add(spec.kv_round_bytes()),
            min: base.min.saturating_add(spec.kv_bytes_per_request),
        }
    }

    /// The validated slice of a `grant`: the forward-only base budget,
    /// with the remainder left to the KV pool, and whether that budget is
    /// shrunk below the base's full need.
    pub(crate) fn base_budget(&self, spec: &JobSpec, grant: u64) -> (u64, bool) {
        let b = grant
            .saturating_sub(spec.kv_round_bytes())
            .max(self.base.min)
            .min(self.base.full);
        (b, b < self.base.full)
    }

    /// SLO-slack priority boost from the age of the oldest pending
    /// request; 0 with no SLO or no request waiting. Read at
    /// settle/preempt time (not baked into the queue), so it grows as
    /// requests age without re-keying anything.
    pub(crate) fn slo_boost(&self, now: Time) -> u64 {
        match self.queue.front() {
            Some(&t) if self.slo_ns > 0 => {
                slo_boost_permille(self.slo_ns, now.saturating_since(t).as_nanos())
            }
            _ => 0,
        }
    }

    /// Nearest-rank latency percentile `p` over the served requests.
    pub(crate) fn latency(&self, p: u64) -> Duration {
        latency_percentile(&self.latencies, p)
    }
}

/// Schedules `job`'s next request arrival, until `spec.requests` have
/// been generated. Inter-arrival gaps are exponential around
/// `1 / request_rate`, drawn from the job's own deterministic generator —
/// the arrival process is a property of the workload, never of
/// scheduling decisions, so request events carry epoch 0 and ignore
/// epoch bumps entirely.
pub(crate) fn schedule_next_request(s: &mut Session, job: usize, now: Time) {
    let j = &mut s.jobs[job];
    let Some(sv) = &mut j.serving else { return };
    if sv.scheduled >= j.spec.requests {
        return;
    }
    sv.scheduled += 1;
    // Clamp the unit draw away from 0 so the log stays finite; the rate
    // was validated positive at parse time (code-built specs defensively
    // floor it here too).
    let u = sv.rng.unit_f64().max(1e-12);
    let rate = j.spec.request_rate.max(1e-9);
    let gap = Duration::from_secs_f64(-u.ln() / rate);
    s.heap.push(now + gap, EventKind::Request, job, 0);
}

/// A request joins `job`'s queue and the arrival process self-perpetuates.
/// Serving is *not* attempted here: the settle pass that follows every
/// dispatch runs the serving loop, so the request is picked up in the
/// same instant if the job is resident and idle.
pub(crate) fn request_arrived(s: &mut Session, job: usize, now: Time) {
    if let Some(sv) = &mut s.jobs[job].serving {
        sv.queue.push_back(now);
    }
    s.emit(job, now, JobEventKind::RequestArrived);
    schedule_next_request(s, job, now);
}

/// The serving job's state; panics for any other class.
fn serving(s: &mut Session, job: usize) -> &mut Serving {
    s.jobs[job].serving.as_mut().expect("serving job")
}

impl Cluster {
    /// Opens a serving round for a resident, idle inference job: up to
    /// `max_inflight` requests move from the queue into the round, each
    /// reserving its KV state on every held replica for the round's
    /// duration. Live headroom gates every slot, so memory freed since
    /// admission (completions, elastic shrinks) raises the achievable
    /// concurrency without re-admission. A KV-blocked backlog asks an
    /// elastic training neighbour to shrink ([`Cluster::absorb_burst`]).
    pub(crate) fn try_serve(&self, s: &mut Session, job: usize, now: Time) {
        let j = &s.jobs[job];
        match &j.serving {
            Some(sv)
                if matches!(j.phase, Phase::Barrier)
                    && sv.inflight.is_empty()
                    && !sv.queue.is_empty() => {}
            _ => return,
        }
        let kv = j.spec.kv_bytes_per_request;
        let lic = j.spec.max_inflight.max(1);
        let mut admitted = 0usize;
        while admitted < lic && !serving(s, job).queue.is_empty() {
            if kv > 0 {
                // Every replica mirrors the KV state, so the tightest
                // held device gates each admission individually — the
                // round never over-commits by a single request.
                let held = &s.jobs[job].gpus_held;
                if !held.iter().all(|&g| s.pool.headroom(g) >= kv) {
                    break;
                }
                s.resize(job, s.jobs[job].reserved + kv, now);
            }
            let sv = serving(s, job);
            let t0 = sv
                .queue
                .pop_front()
                .expect("loop condition checked non-empty");
            sv.inflight.push(t0);
            admitted += 1;
        }
        if admitted > 0 && !s.start_iter(job, now) {
            return;
        }
        if admitted < lic && !serving(s, job).queue.is_empty() {
            self.absorb_burst(s, job);
        }
    }

    /// Marks an inference serving round complete: every in-flight
    /// request is served at this instant — its latency recorded in
    /// integer nanoseconds and judged against the SLO — and its KV
    /// reservation released. The job then either completes (all
    /// requests served) or immediately opens the next round over the
    /// queued backlog.
    pub(crate) fn complete_round(&mut self, s: &mut Session, job: usize, now: Time) {
        // Same first-boundary check as training: an under-shot predicted
        // grant requeues the round's requests and re-enters admission on
        // the measured path before anything is banked.
        if self.verify_prediction(s, job, now) {
            return;
        }
        let j = &mut s.jobs[job];
        j.bank_iteration();
        let sv = j.serving.as_mut().expect("serving job");
        let served = std::mem::take(&mut sv.inflight);
        sv.served += served.len() as u64;
        let slo_ns = sv.slo_ns;
        // One "sample" per request keeps the existing progress and
        // throughput accounting meaningful for serving jobs.
        j.samples_done = sv.served;
        let (iter, samples_done) = (j.iters_done, j.samples_done);
        s.emit(job, now, JobEventKind::IterationDone { iter, samples_done });
        for &t0 in &served {
            let lat = now.saturating_since(t0);
            serving(s, job).latencies.push(lat.as_nanos());
            s.emit(job, now, JobEventKind::RequestServed { latency: lat });
            if slo_ns > 0 && lat.as_nanos() > slo_ns {
                serving(s, job).slo_misses += 1;
                s.emit(job, now, JobEventKind::SloMissed { latency: lat });
            }
        }
        // The round's KV state drains with it.
        let kv = s.jobs[job]
            .spec
            .kv_bytes_per_request
            .saturating_mul(served.len() as u64);
        if kv > 0 {
            s.resize(job, s.jobs[job].reserved - kv, now);
        }
        if serving(s, job).served >= s.jobs[job].spec.requests {
            s.finish(job, now, JobOutcome::Completed);
            self.feed_predictor(s, job);
            return;
        }
        // Backlog waiting: the next round opens in the same instant.
        self.try_serve(s, job, now);
    }
}

/// Nearest-rank percentile over integer-nanosecond latency samples —
/// `sorted[(len − 1) × p / 100]`. All accumulation stays in u64 space;
/// the one Duration conversion happens here, at stats assembly.
fn latency_percentile(ns: &[u64], p: u64) -> Duration {
    if ns.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as u64 * p / 100) as usize;
    Duration::from_nanos(sorted[idx])
}
