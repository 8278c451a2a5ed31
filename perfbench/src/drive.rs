//! Driving a [`Cluster`] through one pass over a job stream, with the
//! side-channels drained at a fixed cadence and every call spanned.
//!
//! Events and transfers are taken after every `step` (and after every
//! `advance_to`), the cadence the serve daemon's pump uses; the cadence is
//! part of each workload's definition because it changes drain time.

use std::time::Instant;

use capuchin_cluster::{Cluster, ClusterStats, JobEventKind, JobOutcome, JobSpec};
use capuchin_sim::{Duration, Time};

use crate::measure::{digest, Checks};
use crate::trace::Tracer;

/// The simulation's deterministic outputs for one pass. Two passes over
/// the same stream must agree on all of them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// FNV-1a digest of the stats JSON.
    pub stats_digest: String,
    /// `step` calls that processed an event (0 for an online pass, whose
    /// clock also moves inside `advance_to`).
    pub steps: u64,
    /// Lifecycle events taken from the side-channel.
    pub events: u64,
    /// Transfer records taken from the side-channel.
    pub transfers: u64,
    /// Validation engine runs this pass added.
    pub validation_runs: u64,
    /// Predicted admissions.
    pub predictor_hits: u64,
    /// Predictable arrivals that fell back to measured admission.
    pub predictor_misses: u64,
    /// Checkpoint preemptions.
    pub preemptions: u64,
    /// Elastic batch changes.
    pub rebatches: u64,
    /// Under-shooting predictions recovered by re-measurement.
    pub mispredict_recoveries: u64,
}

impl Counts {
    /// The counts as determinism-record fields.
    pub fn fields(&self) -> Vec<(&'static str, serde::Value)> {
        use serde::Value::{Str, UInt};
        vec![
            ("stats_fnv64", Str(self.stats_digest.clone())),
            ("steps", UInt(self.steps)),
            ("events", UInt(self.events)),
            ("transfers", UInt(self.transfers)),
            ("validation_runs", UInt(self.validation_runs)),
            ("predictor_hits", UInt(self.predictor_hits)),
            ("predictor_misses", UInt(self.predictor_misses)),
            ("preemptions", UInt(self.preemptions)),
            ("rebatches", UInt(self.rebatches)),
            ("mispredict_recoveries", UInt(self.mispredict_recoveries)),
        ]
    }
}

/// Host times one pass records, in ms.
#[derive(Debug, Default)]
pub struct PassTimes {
    /// Each operation: a `step` (batch pass) or an `advance_to` (online).
    pub ops: Vec<f64>,
    /// Consecutive laps that together span the pass's wall time: the
    /// reset, each job's submission (with its `advance_to` when online),
    /// each `step` with its side-channel drain, and the stats JSON.
    pub laps: Vec<f64>,
}

/// Pushes the time since the last lap onto `laps`, in ms.
fn lap(mark: &mut Instant, laps: &mut Vec<f64>) {
    let now = Instant::now();
    laps.push((now - *mark).as_secs_f64() * 1e3);
    *mark = now;
}

/// One pass: submit → drive to idle → stats JSON.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds from the first submit to the rendered stats JSON.
    pub wall_s: f64,
    /// The final stats.
    pub stats: ClusterStats,
    /// Rendered stats JSON length in bytes.
    pub json_bytes: usize,
    /// Deterministic outputs.
    pub counts: Counts,
}

/// Span name of a step, bucketed by the first event it emitted.
fn step_bucket(first: Option<&JobEventKind>) -> &'static str {
    match first {
        None | Some(JobEventKind::Submitted) => "cluster.step.none",
        Some(JobEventKind::Admitted { .. } | JobEventKind::Rejected) => "cluster.step.admitted",
        Some(JobEventKind::IterationDone { .. }) => "cluster.step.iteration",
        Some(JobEventKind::Completed | JobEventKind::Aborted | JobEventKind::Cancelled) => {
            "cluster.step.completed"
        }
        Some(JobEventKind::Preempted) => "cluster.step.preempted",
        Some(JobEventKind::Resumed) => "cluster.step.resumed",
        Some(JobEventKind::Rebatched { .. }) => "cluster.step.rebatched",
        Some(
            JobEventKind::RequestArrived
            | JobEventKind::RequestServed { .. }
            | JobEventKind::SloMissed { .. },
        ) => "cluster.step.request",
    }
}

/// The step buckets, in report order.
pub const STEP_BUCKETS: &[&str] = &[
    "admitted",
    "iteration",
    "completed",
    "preempted",
    "resumed",
    "rebatched",
    "request",
    "none",
];

fn seconds(s: f64) -> Time {
    Time::ZERO + Duration::from_secs_f64(s)
}

/// Takes both side-channels; returns `(first event kind bucket, events,
/// transfers)`.
fn take_side_channels(cluster: &mut Cluster, tr: &mut Tracer) -> (&'static str, u64, u64) {
    let events = tr.time("cluster.take_events", 0, || cluster.take_events());
    let transfers = tr.time("cluster.take_transfers", 0, || cluster.take_transfers());
    (
        step_bucket(events.first().map(|e| &e.kind)),
        events.len() as u64,
        transfers.len() as u64,
    )
}

/// Runs one pass over `specs` on `cluster` (after resetting its run
/// state; admission caches survive). A batch pass submits everything and
/// then steps to idle, timing each `step` into `times.ops`; an online
/// pass submits each job and advances the clock to its arrival, timing
/// each `advance_to` into `times.ops`, then steps to idle.
pub fn pass(
    cluster: &mut Cluster,
    specs: &[JobSpec],
    online: bool,
    tr: &mut Tracer,
    times: &mut PassTimes,
) -> Pass {
    let runs_before = cluster.validation_runs();
    let root = tr.enter("bench.pass", 0);
    let start = Instant::now();
    let mut mark = start;
    cluster.reset();
    lap(&mut mark, &mut times.laps);
    let mut counts = Counts::default();
    for spec in specs {
        let id = tr.time("cluster.submit", 0, || cluster.submit(spec)) as u64;
        if online {
            let open = tr.enter("cluster.advance_to", id);
            let t = Instant::now();
            cluster.advance_to(seconds(spec.arrival_time));
            times.ops.push(t.elapsed().as_secs_f64() * 1e3);
            tr.exit(open);
            let (_, events, transfers) = take_side_channels(cluster, tr);
            counts.events += events;
            counts.transfers += transfers;
        }
        lap(&mut mark, &mut times.laps);
    }
    loop {
        let open = tr.enter("cluster.step.none", 0);
        let t = Instant::now();
        let progressed = cluster.step();
        let took = t.elapsed();
        let (bucket, events, transfers) = take_side_channels(cluster, tr);
        tr.exit_as(open, bucket);
        lap(&mut mark, &mut times.laps);
        if !progressed {
            break;
        }
        if !online {
            times.ops.push(took.as_secs_f64() * 1e3);
            counts.steps += 1;
        }
        counts.events += events;
        counts.transfers += transfers;
    }
    let stats = tr.time("stats.snapshot", 0, || cluster.stats());
    let json = tr.time("stats.to_json", 0, || stats.to_json());
    lap(&mut mark, &mut times.laps);
    let wall_s = (mark - start).as_secs_f64();
    tr.exit(root);
    counts.stats_digest = digest(json.as_bytes());
    counts.validation_runs = cluster.validation_runs() - runs_before;
    counts.predictor_hits = stats.predictor_hits;
    counts.predictor_misses = stats.predictor_misses;
    counts.preemptions = stats.preemptions as u64;
    counts.rebatches = stats.rebatches as u64;
    counts.mispredict_recoveries = stats.mispredict_recoveries;
    Pass {
        wall_s,
        json_bytes: json.len(),
        stats,
        counts,
    }
}

/// Output checks of one pass: every job completed, per-job validation
/// charges sum to the controller's delta, and — against `reference` —
/// the same simulation output.
pub fn check(p: &Pass, reference: Option<&Counts>, checks: &mut Checks) {
    let not_done = p
        .stats
        .jobs
        .iter()
        .filter(|j| j.outcome != JobOutcome::Completed)
        .count() as u64;
    checks.ops(p.stats.jobs.len() as u64, not_done, || {
        format!("{not_done} of {} jobs did not complete", p.stats.jobs.len())
    });
    let charged: u64 = p.stats.jobs.iter().map(|j| j.admission_validations).sum();
    checks.op(charged == p.counts.validation_runs, || {
        format!(
            "per-job admission_validations sum to {charged}, controller ran {}",
            p.counts.validation_runs
        )
    });
    if let Some(r) = reference {
        checks.op(p.counts == *r, || {
            format!("pass disagrees with the reference: {:?} vs {r:?}", p.counts)
        });
    }
}
