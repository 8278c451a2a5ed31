//! The repository benchmark: four workloads over the library crates,
//! timed from outside through their public functions.
//!
//! ```text
//! perfbench --workload <fleet|admit|swap|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run sets up (generating its inputs from the seed), measures for
//! `--seconds`, checks its outputs, prints a `determinism` line (stats
//! digest and deterministic counts) and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes its spans under `traces/`. A failed output check exits 1.
//! `METRICS.md` documents the workloads and what each metric should move.

mod drive;
mod gen;
mod layers;
mod measure;
mod replay;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, ClusterStats, JobSpec, StrategyKind,
};
use capuchin_sim::InterconnectSpec;
use serde::Value;

use crate::drive::{check, pass, Counts, Pass, PassTimes};
use crate::layers::Layered;
use crate::measure::{median, peak_rss_mib, BestTimes, Checks, Report};
use crate::trace::{write_spans, Summary, Tracer};

/// Reads the counting allocator's running totals `(allocations, bytes)`.
pub type AllocCounter = fn() -> (u64, u64);

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch use of the online core: submit all, step to idle, stats JSON.
    Fleet,
    /// Online admission: cold families in set-up, then returning jobs
    /// through `submit` and `advance_to`.
    Admit,
    /// Oversubscribed Capuchin training over a shared PCIe fabric.
    Swap,
    /// The TCP daemon driven over loopback.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "fleet" => Some(Workload::Fleet),
            "admit" => Some(Workload::Admit),
            "swap" => Some(Workload::Swap),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Admit => "admit",
            Workload::Swap => "swap",
            Workload::Serve => "serve",
        }
    }

    /// The cluster configuration the workload runs.
    pub fn config(self) -> ClusterConfig {
        let b = ClusterConfig::builder();
        let b = match self {
            Workload::Fleet => b
                .gpus(gen::FLEET_GPUS)
                .admission(AdmissionMode::TfOri)
                .strategy(StrategyKind::BestFit)
                .preemption(true)
                .elastic(true)
                .slo_aware(true),
            Workload::Admit => b
                .gpus(gen::ADMIT_GPUS)
                .admission(AdmissionMode::Capuchin)
                .predictive(true),
            Workload::Swap => b
                .gpus(gen::SWAP_GPUS)
                .admission(AdmissionMode::Capuchin)
                .interconnect(Some(InterconnectSpec::pcie_shared())),
            Workload::Serve => b.gpus(gen::SERVE_GPUS).admission(AdmissionMode::TfOri),
        };
        b.build().expect("workload configs are valid")
    }

    /// The workload's job stream for `seed`.
    pub fn specs(self, seed: u64) -> Vec<JobSpec> {
        match self {
            Workload::Fleet => gen::fleet(seed),
            Workload::Admit => gen::admit(seed),
            Workload::Swap => gen::swap(seed),
            Workload::Serve => gen::serve(seed),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fleet|admit|swap|serve> --seed <n> \
                     --seconds <n> --trace <0|1>";

impl Args {
    /// Parses `--workload --seed --seconds --trace`; all four are required.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                    });
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        match (workload, seed, seconds, trace) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
                workload,
                seed,
                seconds,
                trace,
            }),
            _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
        }
    }
}

/// Entry point shared by both binaries. `alloc` is `Some` only in the
/// traced binary, whose global allocator counts.
pub fn main_with(alloc: Option<AllocCounter>) -> ! {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace && alloc.is_none() {
        eprintln!("error: --trace 1 runs the perfbench-traced binary\n{USAGE}");
        std::process::exit(2);
    }
    let report = match args.workload {
        Workload::Serve => serve::run(args, alloc),
        w => run_cluster(w, args, alloc),
    };
    let correct = report.print(args.workload.name(), args.seed);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Set-ups per untraced run, at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Seconds an untraced run sets up for, at least. Short set-ups repeat
/// until then, so that their median spans more than a moment of the
/// host's load.
const SETUP_MIN_S: f64 = 6.0;

/// The tail percentile of the workload's operation latency: the highest
/// with at least ten of a pass's operations beyond it.
pub fn tail_percentile(w: Workload) -> f64 {
    match w {
        Workload::Serve => 80.0,
        _ => 99.0,
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.json", w.name()))
}

/// Determinism fields shared by every workload: the measured passes'
/// counts and the simulated throughput and mean JCT of their stats.
pub fn determinism(r: &mut Report, counts: &Counts, stats: &ClusterStats) {
    for (k, v) in counts.fields() {
        r.det(k, v);
    }
    r.det(
        "sim_samples_per_s",
        Value::Float(stats.aggregate_samples_per_sec),
    );
    r.det("sim_jct_mean_s", Value::Float(stats.mean_jct.as_secs_f64()));
}

fn link_busy_ratio(p: &Pass) -> f64 {
    let span = p.stats.makespan.as_secs_f64() * p.stats.links.len() as f64;
    if span <= 0.0 {
        return 0.0;
    }
    p.stats
        .links
        .iter()
        .map(|l| l.busy.as_secs_f64())
        .sum::<f64>()
        / span
}

/// A cluster workload after set-up.
struct Prepared {
    specs: Vec<JobSpec>,
    /// `admit` drives passes online (`submit`, then `advance_to`).
    online: bool,
    /// The cluster the passes run on, its caches warmed by set-up.
    cluster: Cluster,
    /// The set-up's reference pass.
    reference: Pass,
}

impl Prepared {
    /// Set-up of a cluster workload: generate the stream, build the
    /// config, and run one batch pass on the cluster the passes will
    /// use, which warms its admission caches. `fleet` and `swap` warm on
    /// their own stream; `admit` on its cold families (`admit_families`),
    /// which also warms the predictor its passes admit from.
    fn new(w: Workload, seed: u64, checks: &mut Checks) -> Prepared {
        let specs = w.specs(seed);
        let online = w == Workload::Admit;
        let warmup = if online {
            gen::admit_families(seed)
        } else {
            specs.clone()
        };
        let mut cluster = Cluster::new(w.config());
        let reference = pass(
            &mut cluster,
            &warmup,
            false,
            &mut Tracer::new(false),
            &mut PassTimes::default(),
        );
        check(&reference, None, checks);
        Prepared {
            specs,
            online,
            cluster,
            reference,
        }
    }

    /// One measured pass, checked against `expected`, which the first
    /// pass sets: warm passes charge no validations, so their stats
    /// differ from the cold set-up pass.
    fn pass(
        &mut self,
        tr: &mut Tracer,
        times: &mut PassTimes,
        expected: &mut Option<Counts>,
        checks: &mut Checks,
    ) -> Pass {
        let p = pass(&mut self.cluster, &self.specs, self.online, tr, times);
        check(&p, expected.as_ref(), checks);
        expected.get_or_insert_with(|| p.counts.clone());
        p
    }
}

/// Runs a workload's set-up `SETUP_REPEATS` times and for at least
/// `SETUP_MIN_S` seconds (once in a traced run), checking that every repeat reproduces the first one's reference
/// counts. Returns the last set-up and the seconds each one took.
pub fn set_up<T>(
    trace: bool,
    checks: &mut Checks,
    mut once: impl FnMut(&mut Checks) -> T,
    reference: impl Fn(&T) -> &Counts,
) -> (T, Vec<f64>) {
    let (repeats, min_s) = if trace {
        (1, 0.0)
    } else {
        (SETUP_REPEATS, SETUP_MIN_S)
    };
    let mut times: Vec<f64> = Vec::new();
    let mut last: Option<T> = None;
    while times.len() < repeats || times.iter().sum::<f64>() < min_s {
        let start = Instant::now();
        let t = once(checks);
        times.push(start.elapsed().as_secs_f64());
        eprintln!(
            "set-up {}: {:.4} s",
            times.len() - 1,
            times[times.len() - 1]
        );
        if let Some(prev) = &last {
            checks.op(reference(&t) == reference(prev), || {
                "repeated set-ups disagree".to_owned()
            });
        }
        last = Some(t);
    }
    (last.expect("at least one set-up"), times)
}

/// Alternates one untraced and one traced pass on the same inputs,
/// toggling `tr`, until `seconds` is spent (at least one pair).
/// `pass(tr, traced)` runs one and returns its wall seconds. Returns the
/// median untraced and traced pass times in ms, and the median
/// allocations and bytes allocated per untraced pass.
pub fn traced_pairs(
    tr: &mut Tracer,
    seconds: Duration,
    alloc: AllocCounter,
    mut pass: impl FnMut(&mut Tracer, bool) -> f64,
) -> ((f64, f64), (f64, f64)) {
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut allocs, mut bytes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < seconds {
        tr.set_on(false);
        let before = alloc();
        plain_ms.push(pass(tr, false) * 1e3);
        let after = alloc();
        allocs.push((after.0 - before.0) as f64);
        bytes.push((after.1 - before.1) as f64);
        tr.set_on(true);
        traced_ms.push(pass(tr, true) * 1e3);
    }
    (
        (median(&mut plain_ms), median(&mut traced_ms)),
        (median(&mut allocs), median(&mut bytes)),
    )
}

/// Runs `fleet`, `admit` or `swap`.
fn run_cluster(w: Workload, args: Args, alloc: Option<AllocCounter>) -> Report {
    let mut r = Report::default();
    let (mut prep, mut setup_s) = set_up(
        args.trace,
        &mut r.checks,
        |checks| Prepared::new(w, args.seed, checks),
        |p| &p.reference.counts,
    );
    let mut expected = None;
    let jobs = prep.specs.len() as f64;

    if !args.trace {
        let (mut ops, mut laps) = (BestTimes::default(), BestTimes::default());
        let mut times = PassTimes::default();
        let mut tr = Tracer::new(false);
        let mut passes = 0u64;
        let mut last = None;
        let start = Instant::now();
        while passes < 2 || start.elapsed() < args.seconds {
            let p = prep.pass(&mut tr, &mut times, &mut expected, &mut r.checks);
            let ops_aligned = ops.end_pass(&mut times.ops);
            let laps_aligned = laps.end_pass(&mut times.laps);
            r.checks.op(ops_aligned && laps_aligned, || {
                "a pass performed different operations".to_owned()
            });
            eprintln!("pass {passes}: {:.3} s", p.wall_s);
            passes += 1;
            last = Some(p);
        }
        let tail = ops.percentile(tail_percentile(w));
        eprintln!("op tail (p{}): {tail} ms", tail_percentile(w));
        r.metric("setup_s", median(&mut setup_s), "s");
        r.metric("jobs_per_s", jobs / (laps.total() / 1e3), "1/s");
        r.metric("op_ms_p50", ops.percentile(50.0), "ms");
        r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        let last = last.expect("a pass ran");
        determinism(&mut r, &last.counts, &last.stats);
        r.det("passes", Value::UInt(passes));
        r.det("op_samples", Value::UInt(ops.count));
        r.det("op_tail_percentile", Value::Float(tail_percentile(w)));
        return r;
    }

    let alloc = alloc.expect("traced runs count allocations");
    let mut tr = Tracer::new(true);
    let mut l = Layered {
        jobs: prep.specs.len() as u64,
        ..Layered::default()
    };
    let root = tr.enter("bench.replay", 0);
    l.engine = replay::admission_chain(&prep.specs, &w.config(), &mut tr);
    tr.exit(root);
    let replay_spans = tr.take();
    l.replay = Summary::of(&replay_spans);

    let mut ops = BestTimes::default();
    let mut times = PassTimes::default();
    let mut last = None;
    let (pass_ms, alloc) = traced_pairs(&mut tr, args.seconds, alloc, |tr, traced| {
        let p = prep.pass(tr, &mut times, &mut expected, &mut r.checks);
        times.laps.clear();
        if !traced {
            let aligned = ops.end_pass(&mut times.ops);
            r.checks.op(aligned, || {
                "a pass performed different operations".to_owned()
            });
        } else {
            times.ops.clear();
            let spans = tr.take();
            if l.traced_reps == 0 {
                save_spans(w, args.seed, &replay_spans, &spans);
            }
            l.reps.merge(&Summary::of(&spans));
            l.traced_reps += 1;
            l.steps = p.counts.steps;
            l.events = p.counts.events;
            l.transfers = p.counts.transfers;
            l.validation_runs = p.counts.validation_runs;
            l.predictor = (p.counts.predictor_hits, p.counts.predictor_misses);
            l.mispredicts = p.counts.mispredict_recoveries;
            l.json_bytes = p.json_bytes as u64;
            l.link_busy_ratio = link_busy_ratio(&p);
            l.sim_samples_per_s = p.stats.aggregate_samples_per_sec;
            l.sim_jct_mean_s = p.stats.mean_jct.as_secs_f64();
            l.cache_entries = prep.cluster.validation_cache_len() as u64;
        }
        let wall_s = p.wall_s;
        last = Some(p);
        wall_s
    });
    (l.pass_ms, l.alloc, l.op_tail_ms) = (pass_ms, alloc, ops.percentile(tail_percentile(w)));
    l.emit(&mut r);
    let last = last.expect("a pass ran");
    determinism(&mut r, &last.counts, &last.stats);
    r.det("traced_passes", Value::UInt(l.traced_reps));
    r
}

/// Writes the replay region's spans followed by one traced pass's.
pub fn save_spans(w: Workload, seed: u64, replay: &[trace::Span], pass: &[trace::Span]) {
    let offset = u32::try_from(replay.len()).expect("fewer than 4G spans");
    let mut all = replay.to_vec();
    all.extend(pass.iter().cloned().map(|mut s| {
        if s.parent != u32::MAX {
            s.parent += offset;
        }
        s
    }));
    let path = trace_path(w, seed);
    match write_spans(&path, &all) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}
