//! The cluster-level exhibits as one scenario table.
//!
//! Each [`Scenario`] names a set of cluster runs ([`Case`]s: a
//! configuration plus a workload, at full or smoke size) and an invariant
//! function over their outcomes. [`Scenario::execute`] runs every case
//! submit → idle on the online core, applies the universal invariants to
//! each run (zero mid-run OOM aborts; all-or-nothing gangs on distinct
//! GPUs), then the scenario's own, and returns one uniform [`Row`] per
//! run. The `cluster_bench` binary drives the table: a full run writes
//! `results/BENCH_cluster.json`, and `--smoke` holds the smoke rows to
//! the committed ones through [`GATES`].

use std::time::{Duration as Wall, Instant};

use capuchin_cluster::strategy::SettleCounters;
use capuchin_cluster::JobPolicy::{Capuchin, TfOri};
use capuchin_cluster::{
    synthetic_jobs, synthetic_mixed_jobs, AdmissionMode, Cluster, ClusterConfig,
    ClusterConfigBuilder, ClusterStats, ClusterTransfer, CostClass, JobOutcome, JobSpec, JobStats,
    StrategyKind, REGISTRY,
};
use capuchin_models::ModelKind::{DenseNet121, InceptionV3, ResNet50, Vgg16};
use capuchin_sim::{DeviceSpec, Duration, InterconnectSpec};
use serde::{Deserialize, Serialize};

use crate::cluster_job as job;

/// Where a full run writes its rows and `--smoke` reads the committed ones.
pub const ARTIFACT: &str = "results/BENCH_cluster.json";

/// One cluster run of a scenario.
pub struct Case {
    /// Row label, unique within the scenario.
    pub label: String,
    /// Configuration of a fresh cluster, or `None` to run on the previous
    /// case's cluster (its admission caches and predictor survive).
    pub cfg: Option<ClusterConfig>,
    /// Builds the submitted workload, just before the case runs, so a
    /// large workload is not resident while earlier cases run.
    pub jobs: Box<dyn FnOnce() -> Vec<JobSpec>>,
}

/// A case's outcome, as the invariant functions see it.
pub struct Run {
    /// The case's label.
    pub label: String,
    /// The submitted workload.
    pub jobs: Vec<JobSpec>,
    /// Final stats of the run.
    pub stats: ClusterStats,
    /// The unified per-tensor transfer trace (empty with the fabric off).
    pub trace: Vec<ClusterTransfer>,
    /// Lifecycle events the run emitted.
    pub events: u64,
    /// Validation-engine runs this case added to the controller total.
    pub validation_runs: u64,
    /// Settle work counters of the run.
    pub settle: SettleCounters,
    /// Host wall clock from the first submit to idle.
    pub wall: Wall,
    /// Process peak RSS (`VmHWM`) at idle, in KiB (0 off Linux).
    pub peak_rss_kib: u64,
    /// Host measurements of a warm run (see [`Scenario::host`]).
    pub host: Option<HostRun>,
}

/// What a warm run measures beyond the drain itself.
pub struct HostRun {
    /// Wall clock of the untimed cold run that warmed the caches.
    pub warmup: Wall,
    /// Wall clock of rendering the final stats JSON.
    pub to_json: Wall,
    /// Length of that JSON, in bytes.
    pub json_bytes: usize,
}

/// A named set of cluster runs and the claims they must hold.
pub struct Scenario {
    /// Name, as `--only` takes it.
    pub name: &'static str,
    /// The cases at full size, or at smoke size when the flag is set.
    /// Every smoke label is also a full-size label.
    pub cases: fn(smoke: bool) -> Vec<Case>,
    /// Scenario-specific invariants; panics on a violation.
    pub check: fn(&[Run]),
    /// Whether rows record host measurements: each case first runs cold
    /// and untimed to warm the admission caches, then the timed run
    /// repeats it on the reset cluster, and the row adds the warm-up
    /// time, peak RSS and the stats JSON render time and size. `VmHWM`
    /// is a process-wide high-water mark, so only `scale` records it: it
    /// runs first, checks each run alone and drops it before the next is
    /// built, and its rows grow.
    pub host: bool,
}

/// One uniform artifact row. Every field but the last six is
/// simulation-side and byte-reproducible; the settle work counters are
/// recorded on `scale` rows only.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Scenario name.
    pub scenario: String,
    /// Case label.
    pub label: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Admission-time OOM rejections.
    pub rejections: usize,
    /// Checkpoint-preemptions.
    pub preemptions: usize,
    /// Elastic batch changes.
    pub rebatches: usize,
    /// Simulated makespan.
    pub makespan_ns: u64,
    /// Training samples per simulated second.
    pub samples_per_s: f64,
    /// Lifecycle events emitted.
    pub events: u64,
    /// Validation-engine runs charged.
    pub validation_runs: u64,
    /// SLO attainment, permille.
    pub attainment_permille: u64,
    /// Completed burst-absorption cycles.
    pub burst_cycles: u64,
    /// Mean queueing delay over the jobs.
    pub mean_queue_ns: u64,
    /// Mean job completion time.
    pub mean_jct_ns: u64,
    /// Longest completion time among completed jobs of the highest
    /// submitted priority (the urgent class of `preemption`).
    pub top_priority_max_jct_ns: u64,
    /// Checkpoint/restore copy time summed over the jobs.
    pub checkpoint_overhead_ns: u64,
    /// Training time spent below the requested batch, summed over the jobs.
    pub reduced_batch_ns: u64,
    /// Worst per-job p99 request latency (inference jobs).
    pub worst_p99_ns: u64,
    /// Admissions granted from the footprint predictor.
    pub predictor_hits: u64,
    /// Admissions the predictor could not serve.
    pub predictor_misses: u64,
    /// Placement picks ([`SettleCounters::picks`]).
    pub picks: Option<u64>,
    /// Candidates those picks read ([`SettleCounters::candidates`]).
    pub candidates: Option<u64>,
    /// Preemption victim searches ([`SettleCounters::preemption_checks`]).
    pub preemption_checks: Option<u64>,
    /// Waiters those searches examined ([`SettleCounters::waiters`]).
    pub waiters: Option<u64>,
    /// Victims probed ([`SettleCounters::victim_probes`]).
    pub victim_probes: Option<u64>,
    /// Host wall clock, first submit → idle.
    pub wall_s: f64,
    /// Host wall clock per submitted job.
    pub us_per_job: f64,
    /// Process peak RSS (`VmHWM`) at the end of the run, read before the
    /// stats are rendered; on `scale` rows only.
    pub peak_rss_kib: Option<u64>,
    /// Host wall clock of the untimed cold run before the timed one, on
    /// `scale` rows only.
    pub warmup_s: Option<f64>,
    /// Host wall clock of `stats().to_json()` after the drain, on
    /// `scale` rows only.
    pub to_json_ms: Option<f64>,
    /// Length of that stats JSON, on `scale` rows only.
    pub json_bytes: Option<u64>,
}

impl Row {
    fn new(scenario: &str, run: &Run) -> Row {
        let s = &run.stats;
        let sum = |f: fn(&JobStats) -> Duration| s.jobs.iter().map(f).sum::<Duration>().as_nanos();
        let top = run.jobs.iter().map(|j| j.priority).max();
        let settle = |f: fn(&SettleCounters) -> u64| run.host.as_ref().map(|_| f(&run.settle));
        let urgent =
            s.jobs.iter().zip(&run.jobs).filter(|(j, spec)| {
                j.outcome == JobOutcome::Completed && Some(spec.priority) == top
            });
        Row {
            scenario: scenario.to_owned(),
            label: run.label.clone(),
            jobs: run.jobs.len(),
            completed: s.completed,
            rejections: s.oom_rejections,
            preemptions: s.preemptions,
            rebatches: s.rebatches,
            makespan_ns: s.makespan.as_nanos(),
            samples_per_s: s.aggregate_samples_per_sec,
            events: run.events,
            validation_runs: run.validation_runs,
            attainment_permille: s.slo_attainment_permille,
            burst_cycles: s.burst_cycles,
            mean_queue_ns: s.mean_queueing_delay.as_nanos(),
            mean_jct_ns: s.mean_jct.as_nanos(),
            top_priority_max_jct_ns: urgent.map(|(j, _)| j.jct.as_nanos()).max().unwrap_or(0),
            checkpoint_overhead_ns: sum(|j| j.checkpoint_overhead),
            reduced_batch_ns: sum(|j| j.elastic_time_at_reduced_batch),
            worst_p99_ns: s
                .jobs
                .iter()
                .map(|j| j.p99_latency.as_nanos())
                .max()
                .unwrap_or(0),
            predictor_hits: s.predictor_hits,
            predictor_misses: s.predictor_misses,
            picks: settle(|c| c.picks),
            candidates: settle(|c| c.candidates),
            preemption_checks: settle(|c| c.preemption_checks),
            waiters: settle(|c| c.waiters),
            victim_probes: settle(|c| c.victim_probes),
            wall_s: run.wall.as_secs_f64(),
            us_per_job: run.wall.as_secs_f64() * 1e6 / run.jobs.len() as f64,
            peak_rss_kib: run.host.as_ref().map(|_| run.peak_rss_kib),
            warmup_s: run.host.as_ref().map(|h| h.warmup.as_secs_f64()),
            to_json_ms: run.host.as_ref().map(|h| h.to_json.as_secs_f64() * 1e3),
            json_bytes: run.host.as_ref().map(|h| h.json_bytes as u64),
        }
    }
}

/// Peak resident set size in KiB from `/proc/self/status` (0 off Linux).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

impl Scenario {
    /// Runs every case, checks the universal and the scenario invariants,
    /// and returns one row per case.
    pub fn execute(&self, smoke: bool) -> Vec<Row> {
        let mut cluster: Option<Cluster> = None;
        let (mut runs, mut rows) = (Vec::new(), Vec::new());
        for case in (self.cases)(smoke) {
            if let Some(cfg) = case.cfg {
                cluster = Some(Cluster::new(cfg));
            }
            let cluster = cluster.as_mut().expect("first case has a config");
            let jobs = (case.jobs)();
            let run = if self.host {
                run_warm(cluster, case.label, jobs)
            } else {
                run_case(cluster, case.label, jobs)
            };
            universal(&run);
            rows.push(Row::new(self.name, &run));
            if self.host {
                (self.check)(std::slice::from_ref(&run));
            } else {
                runs.push(run);
            }
        }
        if !self.host {
            (self.check)(&runs);
        }
        rows
    }
}

/// Submit → idle on a reset session, draining the side channels every
/// 65,536 steps so their buffers stay off the peak RSS.
fn run_case(cluster: &mut Cluster, label: String, jobs: Vec<JobSpec>) -> Run {
    cluster.reset();
    let before = cluster.validation_runs();
    let start = Instant::now();
    for spec in &jobs {
        cluster.submit(spec);
    }
    let (mut events, mut trace, mut steps) = (0u64, Vec::new(), 0u64);
    while cluster.step() {
        steps += 1;
        if steps.is_multiple_of(65_536) {
            events += cluster.take_events().len() as u64;
            trace.append(&mut cluster.take_transfers());
        }
    }
    events += cluster.take_events().len() as u64;
    trace.append(&mut cluster.take_transfers());
    let wall = start.elapsed();
    Run {
        label,
        jobs,
        stats: cluster.stats(),
        trace,
        events,
        validation_runs: cluster.validation_runs() - before,
        settle: cluster.settle_counters(),
        wall,
        peak_rss_kib: peak_rss_kib(),
        host: None,
    }
}

/// A host-measured run: an untimed cold run of the workload warms the
/// admission caches, the timed run repeats it on the reset cluster and
/// must need no validation, and its stats are rendered after the peak
/// RSS was read.
fn run_warm(cluster: &mut Cluster, label: String, jobs: Vec<JobSpec>) -> Run {
    let (label, jobs, warmup) = {
        let cold = run_case(cluster, label, jobs);
        (cold.label, cold.jobs, cold.wall)
    };
    let mut run = run_case(cluster, label, jobs);
    assert_eq!(
        run.validation_runs, 0,
        "{}: the timed run validated on warm caches",
        run.label
    );
    let start = Instant::now();
    let json = run.stats.to_json();
    run.host = Some(HostRun {
        warmup,
        to_json: start.elapsed(),
        json_bytes: json.len(),
    });
    run
}

/// Invariants of every run: admitted jobs never abort mid-run, and every
/// job holds its whole gang on distinct GPUs or nothing.
fn universal(run: &Run) {
    let label = &run.label;
    assert_eq!(run.stats.midrun_oom_aborts, 0, "{label}: mid-run abort");
    for j in &run.stats.jobs {
        let mut distinct = j.gpus_used.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            j.gpus_used.is_empty()
                || (j.gpus_used.len() == j.replicas && distinct.len() == j.replicas),
            "{label}: {} holds a partial gang {:?}",
            j.name,
            j.gpus_used
        );
    }
}

/// Which way a gated column improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better: the measured value may be at most `bound` × the
    /// committed one.
    Lower,
    /// Larger is better: `bound` × the measured value must reach the
    /// committed one.
    Higher,
}

/// A smoke gate: one column of one row against its committed value.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Scenario of the row.
    pub scenario: &'static str,
    /// Label of the row.
    pub label: &'static str,
    /// Name of the gated [`Row`] field, for messages.
    pub column: &'static str,
    /// Reads the gated field.
    pub value: fn(&Row) -> f64,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed factor of regression (1 = none).
    pub bound: f64,
}

/// The smoke gates: the scale row's warm host time per job within 2×
/// (machines differ; asymptotic regressions do not hide inside 2×; the
/// cold warm-up is reported apart, so its noise stays out), warm predicted
/// admission charging no more validation runs than committed (0), the
/// contended mixed row's SLO attainment at the committed floor, and the
/// scale row's dispatched events and settle candidates read at most the
/// committed counts. The two counts are exact for a fixed seed, so they
/// catch a scheduling-work regression whatever the host load; a missing
/// count reads as NaN and fails.
pub const GATES: &[Gate] = &[
    Gate {
        scenario: "scale",
        label: "smoke",
        column: "us_per_job",
        value: |r| r.us_per_job,
        better: Better::Lower,
        bound: 2.0,
    },
    Gate {
        scenario: "predict",
        label: "smoke/warm",
        column: "validation_runs",
        value: |r| r.validation_runs as f64,
        better: Better::Lower,
        bound: 1.0,
    },
    Gate {
        scenario: "mixed",
        label: "aware@12",
        column: "attainment_permille",
        value: |r| r.attainment_permille as f64,
        better: Better::Higher,
        bound: 1.0,
    },
    Gate {
        scenario: "scale",
        label: "smoke",
        column: "events",
        value: |r| r.events as f64,
        better: Better::Lower,
        bound: 1.0,
    },
    Gate {
        scenario: "scale",
        label: "smoke",
        column: "candidates",
        value: |r| r.candidates.map_or(f64::NAN, |c| c as f64),
        better: Better::Lower,
        bound: 1.0,
    },
];

impl Gate {
    /// Compares the measured row against the committed one. A missing
    /// row on either side fails: the gate never passes for want of a
    /// baseline.
    ///
    /// # Errors
    ///
    /// A message naming the gate and both values when the measured value
    /// regressed beyond the bound, or which row was missing.
    pub fn check(&self, committed: &[Row], measured: &[Row]) -> Result<String, String> {
        let name = format!("{}/{} {}", self.scenario, self.label, self.column);
        let value = |rows: &[Row]| {
            rows.iter()
                .find(|r| r.scenario == self.scenario && r.label == self.label)
                .map(self.value)
        };
        let got = value(measured).ok_or_else(|| format!("{name}: no measured row"))?;
        let base = value(committed).ok_or_else(|| format!("{name}: no committed row"))?;
        let ok = match self.better {
            Better::Lower => got <= base * self.bound,
            Better::Higher => got * self.bound >= base,
        };
        let msg = format!("{name}: {got} vs committed {base} (bound {}x)", self.bound);
        if ok {
            Ok(msg)
        } else {
            Err(msg)
        }
    }
}

/// The scenario table, in run order: `scale` first so its peak RSS is its
/// own.
pub const TABLE: &[Scenario] = &[
    Scenario::new("scale", scale, check_scale, true),
    Scenario::new("throughput", throughput, check_throughput, false),
    Scenario::new("preemption", preemption, check_preemption, false),
    Scenario::new("elastic", elastic, check_elastic, false),
    Scenario::new("gang", gang, check_gang, false),
    Scenario::new("transfer", transfer, check_transfer, false),
    Scenario::new("mixed", mixed, check_mixed, false),
    Scenario::new("policy", policy, check_policy, false),
    Scenario::new("predict", predict, check_predict, false),
];

impl Scenario {
    const fn new(
        name: &'static str,
        cases: fn(bool) -> Vec<Case>,
        check: fn(&[Run]),
        host: bool,
    ) -> Scenario {
        Scenario {
            name,
            cases,
            check,
            host,
        }
    }
}

fn case(label: impl Into<String>, cfg: ClusterConfigBuilder, jobs: &[JobSpec]) -> Case {
    let jobs = jobs.to_vec();
    lazy(label, Some(cfg), move || jobs)
}

fn lazy(
    label: impl Into<String>,
    cfg: Option<ClusterConfigBuilder>,
    jobs: impl FnOnce() -> Vec<JobSpec> + 'static,
) -> Case {
    Case {
        label: label.into(),
        cfg: cfg.map(|c| c.build().expect("valid scenario config")),
        jobs: Box::new(jobs),
    }
}

fn get<'a>(runs: &'a [Run], label: &str) -> &'a Run {
    let run = runs.iter().find(|r| r.label == label);
    run.unwrap_or_else(|| panic!("no run labelled {label}"))
}

/// Admission on 16 mixed jobs / 4 GPUs: 12 comfortable synthetic jobs
/// plus four whose ideal peak (≈19 GiB) exceeds a bare 16 GiB device, so
/// tf-ori admission must reject them and Capuchin admission shrinks them.
fn throughput(_smoke: bool) -> Vec<Case> {
    let mut jobs = synthetic_jobs(16, 7, 1.5);
    let big = [
        (2, Vgg16, 320),
        (6, ResNet50, 256),
        (9, Vgg16, 320),
        (13, ResNet50, 256),
    ];
    for (slot, model, batch) in big {
        let j = &mut jobs[slot];
        (j.model, j.batch, j.policy, j.iters) = (model, batch, Capuchin, 3);
    }
    let modes = [
        ("tf-ori", AdmissionMode::TfOri),
        ("capuchin", AdmissionMode::Capuchin),
    ];
    let cfg = |a| {
        ClusterConfig::builder()
            .gpus(4)
            .admission(a)
            .strategy(StrategyKind::BestFit)
    };
    modes.map(|(label, a)| case(label, cfg(a), &jobs)).into()
}

fn check_throughput(runs: &[Run]) {
    let (tf, cap) = (&get(runs, "tf-ori").stats, &get(runs, "capuchin").stats);
    assert!(
        cap.completed >= tf.completed,
        "capuchin admission completed less"
    );
}

/// Priority inversion on 2 × 6 GiB GPUs: long low-priority VGG16 jobs
/// occupy every device, then short priority-8 jobs arrive behind them.
fn preemption(_smoke: bool) -> Vec<Case> {
    let mut jobs = Vec::new();
    for (i, arrival) in [0.0, 0.1, 0.2].into_iter().enumerate() {
        jobs.push(job(&format!("low{i}"), Vgg16, 48, 1, TfOri, 30, 0, arrival));
    }
    for (i, arrival) in [0.5, 0.6, 0.7].into_iter().enumerate() {
        jobs.push(job(&format!("high{i}"), Vgg16, 48, 1, TfOri, 4, 8, arrival));
    }
    let cfg = |on| {
        ClusterConfig::builder()
            .gpus(2)
            .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
            .admission(AdmissionMode::TfOri)
            .strategy(StrategyKind::BestFit)
            .preemption(on)
    };
    vec![case("off", cfg(false), &jobs), case("on", cfg(true), &jobs)]
}

fn check_preemption(runs: &[Run]) {
    let high_max = |r: &Run| {
        let high = r.stats.jobs.iter().filter(|j| j.name.starts_with("high"));
        high.map(|j| j.jct).max().unwrap_or(Duration::ZERO)
    };
    let (off, on) = (get(runs, "off"), get(runs, "on"));
    assert!(
        off.stats.completed == 6 && on.stats.completed == 6,
        "a job never completed"
    );
    assert_eq!(off.stats.preemptions, 0, "preemption off preempted");
    assert!(on.stats.preemptions >= 1, "the inversion must preempt");
    assert!(
        high_max(on) < high_max(off),
        "the high-priority tail did not shrink"
    );
    for j in on.stats.jobs.iter().filter(|j| j.preemptions > 0) {
        assert!(
            j.outcome == JobOutcome::Completed
                && j.checkpoint_overhead > Duration::ZERO
                && j.resume_latency > Duration::ZERO,
            "victim {} must complete with its checkpoint and resume cost visible",
            j.name
        );
    }
}

/// Batch traded for earlier starts: medium VGG16 residents fill the GPUs,
/// then full-device arrivals come in elastic (and one rigid control). The
/// `smoke/` shape is the minimal shrink → regrow cycle on one GPU.
fn elastic(_smoke: bool) -> Vec<Case> {
    let full = vec![
        job("res0", Vgg16, 128, 1, TfOri, 6, 0, 0.0),
        job("res1", Vgg16, 128, 1, TfOri, 6, 0, 0.05),
        job("big0", Vgg16, 256, 1, TfOri, 8, 0, 0.20).with_elastic(),
        job("big1", Vgg16, 256, 1, TfOri, 8, 0, 0.25).with_elastic(),
        job("rigid", Vgg16, 256, 1, TfOri, 4, 0, 0.30),
    ];
    let small = vec![
        job("res0", Vgg16, 128, 1, TfOri, 4, 0, 0.0),
        job("big0", Vgg16, 256, 1, TfOri, 8, 0, 0.05).with_elastic(),
    ];
    let mut cases = Vec::new();
    for (shape, gpus, jobs) in [("", 2, full), ("smoke/", 1, small)] {
        for (mode, on) in [("rigid", false), ("elastic", true)] {
            let cfg = ClusterConfig::builder()
                .gpus(gpus)
                .admission(AdmissionMode::TfOri)
                .elastic(on);
            cases.push(case(format!("{shape}{mode}"), cfg, &jobs));
        }
    }
    cases
}

fn check_elastic(runs: &[Run]) {
    let done = |j: &JobStats| j.outcome == JobOutcome::Completed;
    for shape in ["", "smoke/"] {
        let rigid = get(runs, &format!("{shape}rigid"));
        let elastic = get(runs, &format!("{shape}elastic"));
        for r in [rigid, elastic] {
            for (j, spec) in r.stats.jobs.iter().zip(&r.jobs) {
                let exact = j.samples_preserved == spec.batch as u64 * spec.iters;
                assert!(!done(j) || exact, "{}: {} lost samples", r.label, j.name);
            }
        }
        let (rs, es) = (&rigid.stats, &elastic.stats);
        assert!(
            es.completed >= rs.completed,
            "{shape}: elastic lost completions"
        );
        let pairs = rs.jobs.iter().zip(&es.jobs);
        let earlier =
            pairs.filter(|(r, e)| done(r) && done(e) && e.queueing_delay < r.queueing_delay);
        assert!(earlier.count() >= 1, "{shape}: no job started earlier");
        assert_eq!(rs.rebatches, 0, "{shape}: elastic off must never re-batch");
        let cycled = es.jobs.iter().any(|j| j.rebatches >= 2);
        assert!(cycled, "{shape}: no job shrank at admission and re-grew");
    }
}

/// Mixed 1/2/4-GPU jobs on 8 GPUs, both admission modes, interconnect
/// off vs PCIe + peer lanes in 4-GPU domains; the `2gpu/` pair is a
/// one-single-one-gang miniature on the shared PCIe fabric.
fn gang(_smoke: bool) -> Vec<Case> {
    let full = vec![
        job("single-r50", ResNet50, 64, 1, TfOri, 6, 0, 0.0),
        job("single-dense", DenseNet121, 32, 1, TfOri, 6, 0, 0.05),
        job("single-inc", InceptionV3, 32, 1, TfOri, 6, 1, 0.10),
        job("single-vgg-big", Vgg16, 320, 1, Capuchin, 3, 0, 0.15),
        job("single-r50-big", ResNet50, 256, 1, Capuchin, 3, 0, 0.20),
        job("gang2-r50", ResNet50, 128, 2, TfOri, 5, 1, 0.25),
        job("gang2-vgg", Vgg16, 96, 2, TfOri, 5, 0, 0.30),
        job("gang2-dense", DenseNet121, 64, 2, TfOri, 5, 2, 0.35),
        job("gang4-r50", ResNet50, 256, 4, TfOri, 4, 1, 0.40),
        job("gang4-inc", InceptionV3, 128, 4, TfOri, 4, 0, 0.45),
    ];
    let mini = vec![
        job("single", ResNet50, 16, 1, TfOri, 3, 0, 0.0),
        job("gang2", ResNet50, 32, 2, TfOri, 3, 0, 0.05),
    ];
    let (tf, cap) = (AdmissionMode::TfOri, AdmissionMode::Capuchin);
    let (peer4, pcie) = (
        InterconnectSpec::pcie_peer_domains(4),
        InterconnectSpec::pcie_shared(),
    );
    let shapes = [
        ("tf-ori", 8, tf, peer4.clone(), &full),
        ("capuchin", 8, cap, peer4, &full),
        ("2gpu", 2, cap, pcie, &mini),
    ];
    let mut cases = Vec::new();
    for (name, gpus, admission, fabric, jobs) in shapes {
        for (mode, fabric) in [("off", None), ("on", Some(fabric))] {
            let cfg = ClusterConfig::builder()
                .gpus(gpus)
                .admission(admission)
                .strategy(StrategyKind::BestFit)
                .interconnect(fabric);
            cases.push(case(format!("{name}/{mode}"), cfg, jobs));
        }
    }
    cases
}

fn check_gang(runs: &[Run]) {
    let comm = |s: &ClusterStats| -> Duration {
        s.jobs.iter().map(|j| j.allreduce_time + j.comm_delay).sum()
    };
    for (shape, strict) in [("tf-ori", true), ("capuchin", true), ("2gpu", false)] {
        let off = &get(runs, &format!("{shape}/off")).stats;
        let on = &get(runs, &format!("{shape}/on")).stats;
        for j in on.jobs.iter().filter(|j| j.replicas > 1) {
            let paid = j.outcome != JobOutcome::Completed || j.allreduce_time > Duration::ZERO;
            assert!(paid, "{shape}: completed gang {} paid no allreduce", j.name);
        }
        let bytes: u64 = on.links.iter().map(|l| l.bytes).sum();
        assert!(bytes > 0, "{shape}: the fabric carried no bytes");
        assert_eq!(
            comm(off),
            Duration::ZERO,
            "{shape}: fabric-off communication"
        );
        assert!(
            comm(on) > Duration::ZERO,
            "{shape}: free fabric-on communication"
        );
        let stretched = on.makespan > off.makespan || (!strict && on.makespan == off.makespan);
        assert!(stretched, "{shape}: contention must stretch the makespan");
        let same = on
            .jobs
            .iter()
            .zip(&off.jobs)
            .all(|(a, b)| a.outcome == b.outcome);
        assert!(
            same && on.completed == off.completed && on.oom_rejections == off.oom_rejections,
            "{shape}: the fabric changed an admission outcome"
        );
    }
    for label in ["capuchin/off", "capuchin/on", "2gpu/off", "2gpu/on"] {
        let s = &get(runs, label).stats;
        assert_eq!(
            s.completed, s.submitted,
            "{label}: capuchin must complete all"
        );
    }
    let tf = &get(runs, "tf-ori/off").stats;
    assert!(tf.oom_rejections >= 2, "tf-ori must reject the big singles");
}

/// Two heavyweight swapping singles and a 2-GPU gang on one host link:
/// fabric off, unconstrained, and shared PCIe.
fn transfer(_smoke: bool) -> Vec<Case> {
    let jobs = [
        job("swap-vgg", Vgg16, 320, 1, Capuchin, 4, 0, 0.0),
        job("swap-r50", ResNet50, 256, 1, Capuchin, 4, 0, 0.05),
        job("gang2-r50", ResNet50, 64, 2, TfOri, 4, 0, 0.10),
    ];
    let fabrics = [
        ("off", None),
        ("unconstrained", Some(InterconnectSpec::unconstrained())),
        ("pcie", Some(InterconnectSpec::pcie_shared())),
    ];
    let cfg = |fabric| {
        ClusterConfig::builder()
            .gpus(4)
            .admission(AdmissionMode::Capuchin)
            .strategy(StrategyKind::BestFit)
            .interconnect(fabric)
    };
    fabrics.map(|(label, f)| case(label, cfg(f), &jobs)).into()
}

fn check_transfer(runs: &[Run]) {
    let (off, free, pcie) = (
        get(runs, "off"),
        get(runs, "unconstrained"),
        get(runs, "pcie"),
    );
    for r in [off, free, pcie] {
        let s = &r.stats;
        assert_eq!(
            s.completed, s.submitted,
            "{}: a job never completed",
            r.label
        );
    }
    assert!(
        off.trace.is_empty(),
        "fabric off must leave no transfer records"
    );
    let jobs_json = |r: &Run| serde_json::to_string(&r.stats.jobs).expect("serialize");
    assert_eq!(
        jobs_json(off),
        jobs_json(free),
        "unconstrained must equal off"
    );
    let charged = |keep: &dyn Fn(&ClusterTransfer) -> bool| -> Duration {
        pcie.trace
            .iter()
            .filter(|t| keep(t))
            .map(|t| t.charge)
            .sum()
    };
    for j in &pcie.stats.jobs {
        assert_eq!(
            charged(&|t| *t.job == *j.name),
            j.comm_delay,
            "{}: charges",
            j.name
        );
    }
    for l in &pcie.stats.links {
        assert!(
            charged(&|t| *t.link == *l.link) <= l.busy,
            "{}: over-charged",
            l.link
        );
    }
    assert!(
        charged(&|_| true) > Duration::ZERO,
        "co-resident swappers must contend"
    );
    let stretched = pcie.trace.iter().any(|t| {
        (t.label.starts_with("prefetch:") || t.label.starts_with("swapin:"))
            && t.wait > Duration::ZERO
    });
    assert!(
        stretched,
        "the shared link must stretch a prefetch or swap-in"
    );
    let lead = pcie.trace.iter().any(|t| t.lead > Duration::ZERO);
    assert!(lead, "contention must fire the §4.4 feedback lead");
}

/// Offered per-job request rates of the mixed sweep, req/s.
const LOADS: [u64; 3] = [4, 12, 24];

/// A backlog of elastic training jobs at priority 1 that fills 2 × 4 GiB
/// GPUs, plus two inference jobs at priority 0 arriving into it; three
/// modes per load: SLO-aware, SLO-blind, and rigid (no elastic escape).
fn mixed(_smoke: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    for rate in LOADS {
        let train = |i: usize| {
            job(
                &format!("train{i}"),
                Vgg16,
                32,
                1,
                TfOri,
                6,
                1,
                0.05 * i as f64,
            )
        };
        let serve = |i: usize| {
            job(
                &format!("serve{i}"),
                ResNet50,
                32,
                1,
                TfOri,
                1,
                0,
                0.2 + 0.1 * i as f64,
            )
        };
        let mut jobs: Vec<JobSpec> = (0..6).map(|i| train(i).with_elastic()).collect();
        for i in 0..2 {
            jobs.push(serve(i).into_inference(rate as f64, 400.0, rate * 4, 768 << 20, 6));
        }
        for mode in ["aware", "blind", "rigid"] {
            let cfg = ClusterConfig::builder()
                .gpus(2)
                .spec(DeviceSpec::p100_pcie3().with_memory(4 << 30))
                .strategy(StrategyKind::BestFit)
                .admission(AdmissionMode::TfOri)
                .preemption(true)
                .elastic(mode != "rigid")
                .slo_aware(mode == "aware");
            cases.push(case(format!("{mode}@{rate}"), cfg, &jobs));
        }
    }
    cases
}

fn check_mixed(runs: &[Run]) {
    let trained = |r: &Run| {
        let done = r.stats.jobs.iter().zip(&r.jobs);
        done.filter(|(j, s)| !s.is_inference() && j.outcome == JobOutcome::Completed)
            .count()
    };
    for rate in LOADS {
        let aware = get(runs, &format!("aware@{rate}"));
        let blind = get(runs, &format!("blind@{rate}"));
        let rigid = get(runs, &format!("rigid@{rate}"));
        let a = aware.stats.slo_attainment_permille;
        let b = blind.stats.slo_attainment_permille;
        assert!(
            a > b || (a == b && rate != 12),
            "@{rate}: aware {a}‰ vs blind {b}‰"
        );
        assert!(
            trained(aware) >= trained(rigid),
            "@{rate}: training starved"
        );
    }
    let cycles = get(runs, "aware@12").stats.burst_cycles;
    assert!(cycles >= 1, "the smoke row closed no burst cycle");
}

/// The policy matrix: every registry policy over the whole synthetic
/// workload, on the default cluster (4 GPUs, Capuchin admission,
/// FIFO-first-fit), with the fabric off and on shared PCIe. `tight8`
/// (6 GiB GPUs) sits below the menu's big-batch peaks.
fn policy(smoke: bool) -> Vec<Case> {
    let shapes: &[(&str, usize, u64, u64)] =
        &[("synthetic10", 10, 7, 16 << 30), ("tight8", 8, 3, 6 << 30)];
    let shapes = if smoke { &shapes[1..] } else { shapes };
    let fabrics = [
        ("off", None),
        ("pcie", Some(InterconnectSpec::pcie_shared())),
    ];
    let mut cases = Vec::new();
    for &(name, n, seed, memory) in shapes {
        for (fabric, spec) in &fabrics {
            for d in REGISTRY {
                let mut jobs = synthetic_jobs(n, seed, 2.0);
                jobs.iter_mut().for_each(|j| j.policy = d.policy);
                let cfg = ClusterConfig::builder()
                    .spec(DeviceSpec::p100_pcie3().with_memory(memory))
                    .interconnect(spec.clone());
                cases.push(case(format!("{name}/{fabric}/{}", d.name), cfg, &jobs));
            }
        }
    }
    cases
}

fn check_policy(runs: &[Run]) {
    for d in REGISTRY {
        let suffix = format!("/{}", d.name);
        let mine = || runs.iter().filter(|r| r.label.ends_with(&suffix));
        let works = mine().any(|r| r.label.contains("/off/") && r.stats.completed > 0);
        assert!(works, "policy {} completed no jobs", d.name);
        let ok = match d.cost_class {
            CostClass::Heuristic => mine().all(|r| r.validation_runs == 0),
            CostClass::Measured => mine().any(|r| r.validation_runs > 0),
        };
        assert!(
            ok,
            "{} policy {} charged the wrong validations",
            d.cost_class.name(),
            d.name
        );
    }
    let samples = |p: &str| {
        get(runs, &format!("tight8/pcie/{p}"))
            .stats
            .aggregate_samples_per_sec
    };
    let (cap, delta) = (samples("capuchin"), samples("delta"));
    assert!(
        delta >= cap,
        "delta {delta:.1} < capuchin {cap:.1} samples/s on PCIe"
    );
}

/// Predictive admission: one cluster takes a cold stream (every key
/// unseen: measured admission), then a warm one of the same families at
/// fitted and in-between batches (predicted admission).
fn predict(smoke: bool) -> Vec<Case> {
    let sizes: &[(&str, usize, usize)] = &[("smoke", 64, 400), ("large", 1024, 4_000)];
    let sizes = if smoke { &sizes[..1] } else { sizes };
    let stream = |n: usize, batches: &[usize], tag: &str| -> Vec<JobSpec> {
        let models = [ResNet50, DenseNet121];
        let one = |i: usize| {
            let batch = batches[(i / 2) % batches.len()];
            job(
                &format!("{tag}{i:05}"),
                models[i % 2],
                batch,
                1,
                Capuchin,
                2,
                0,
                i as f64 * 0.05,
            )
        };
        (0..n).map(one).collect()
    };
    let mut cases = Vec::new();
    for &(name, gpus, n) in sizes {
        let cfg = ClusterConfig::builder()
            .gpus(gpus)
            .admission(AdmissionMode::Capuchin)
            .strategy(StrategyKind::FifoFirstFit)
            .predictive(true);
        cases.push(case(
            format!("{name}/cold"),
            cfg,
            &stream(n, &[16, 32, 48], "cold"),
        ));
        let warm = stream(n, &[16, 24, 32, 40, 48], "warm");
        cases.push(lazy(format!("{name}/warm"), None, move || warm));
    }
    cases
}

fn check_predict(runs: &[Run]) {
    for r in runs {
        assert_eq!(
            r.stats.completed,
            r.jobs.len(),
            "{}: stranded work",
            r.label
        );
    }
    for pair in runs.chunks(2) {
        let [cold, warm] = pair else {
            panic!("predict runs come in cold/warm pairs")
        };
        assert!(
            warm.stats.predictor_hits > 0,
            "{}: keys never warmed",
            warm.label
        );
        let saved = warm.validation_runs < cold.validation_runs;
        assert!(saved, "{}: the predictor bought nothing", warm.label);
    }
}

/// Scheduler scale on the synthetic mixed workload (rigid singles, gangs,
/// elastic jobs): `smoke` 64 GPUs / 2k jobs, `medium` 256 / 20k with
/// best-fit + preemption + elastic, `large` 1024 / 100k. Admission is
/// tf-ori and the fabric off, so the clock measures scheduling rather
/// than per-budget validation or per-tensor replay.
fn scale(smoke: bool) -> Vec<Case> {
    let rows: &[(&str, usize, usize, u64, f64, bool)] = &[
        ("smoke", 64, 2_000, 7, 0.02, false),
        ("medium", 256, 20_000, 11, 0.006, true),
        ("large", 1024, 100_000, 13, 0.0015, false),
    ];
    let rows = if smoke { &rows[..1] } else { rows };
    let case = |&(name, gpus, n, seed, interarrival, busy): &(_, _, _, _, _, bool)| {
        let strategy = [StrategyKind::FifoFirstFit, StrategyKind::BestFit][busy as usize];
        let cfg = ClusterConfig::builder()
            .gpus(gpus)
            .strategy(strategy)
            .admission(AdmissionMode::TfOri)
            .preemption(busy)
            .elastic(busy);
        lazy(name, Some(cfg), move || {
            synthetic_mixed_jobs(n, gpus, seed, interarrival)
        })
    };
    rows.iter().map(case).collect()
}

fn check_scale(runs: &[Run]) {
    for r in runs {
        assert!(r.stats.completed > r.jobs.len() / 2, "{}: starved", r.label);
    }
    if let Some(large) = runs.iter().find(|r| r.label == "large") {
        assert!(
            large.wall < Wall::from_secs(10),
            "large row took {:?}",
            large.wall
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(gate: &Gate, value: f64) -> Row {
        let mut row = Row {
            scenario: gate.scenario.into(),
            label: gate.label.into(),
            ..Row::default()
        };
        (row.us_per_job, row.validation_runs, row.attainment_permille) =
            (value, value as u64, value as u64);
        (row.events, row.candidates) = (value as u64, Some(value as u64));
        row
    }

    /// Lower is better, within 2×.
    const SLOW: Gate = GATES[0];
    /// Higher is better, no slack.
    const FLOOR: Gate = GATES[2];

    #[test]
    fn a_missing_row_fails_the_gate() {
        let measured = [row(&SLOW, 10.0)];
        assert!(SLOW.check(&[], &measured).is_err());
        assert!(SLOW.check(&[row(&FLOOR, 10.0)], &measured).is_err());
        assert!(SLOW.check(&measured, &[]).is_err());
    }

    #[test]
    fn a_worse_value_beyond_the_bound_fails_the_gate() {
        let committed = [row(&SLOW, 10.0)];
        assert!(SLOW.check(&committed, &[row(&SLOW, 20.5)]).is_err());
        assert!(SLOW.check(&committed, &[row(&SLOW, 19.5)]).is_ok());
        let floor = [row(&FLOOR, 354.0)];
        assert!(FLOOR.check(&floor, &[row(&FLOOR, 353.0)]).is_err());
        assert!(FLOOR.check(&floor, &[row(&FLOOR, 400.0)]).is_ok());
    }

    #[test]
    fn an_equal_value_passes_the_gate() {
        for gate in GATES {
            let rows = [row(gate, 354.0)];
            assert!(gate.check(&rows, &rows).is_ok(), "{gate:?}");
        }
    }

    #[test]
    fn gates_name_smoke_rows_of_the_table() {
        for g in GATES {
            let sc = TABLE
                .iter()
                .find(|s| s.name == g.scenario)
                .expect("scenario");
            let labels: Vec<String> = (sc.cases)(true).into_iter().map(|c| c.label).collect();
            assert!(
                labels.iter().any(|l| l == g.label),
                "{g:?} gates no smoke row"
            );
        }
    }
}
