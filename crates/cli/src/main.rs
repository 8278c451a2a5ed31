//! `capuchin-cli` — run any workload under any memory policy on the
//! simulated GPU, from the command line.
//!
//! ```text
//! capuchin-cli models
//! capuchin-cli run --model resnet50 --batch 300 --policy capuchin
//! capuchin-cli run --model bert --batch 256 --memory 16GiB --iters 10
//! capuchin-cli max-batch --model resnet50 --policy capuchin
//! capuchin-cli plan --model resnet50 --batch 300
//! capuchin-cli cluster --gpus 4 --synthetic 16 --seed 1
//! capuchin-cli serve --addr 127.0.0.1:7070 --clock virtual --gpus 4
//! ```

use std::collections::HashMap;

use capuchin::Capuchin;
use capuchin_baselines::{CheckpointMode, GradientCheckpointing, LruSwap, Vdnn};
use capuchin_cluster::{
    load_jobs, synthetic_jobs, synthetic_mixed_jobs, Cluster, ClusterConfig, JobPolicy,
    ParseEnumError,
};
use capuchin_executor::{Engine, EngineConfig, ExecMode, MemoryPolicy};
use capuchin_graph::Graph;
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;

const USAGE: &str = "\
capuchin-cli — tensor-based GPU memory management, simulated

USAGE:
    capuchin-cli models
    capuchin-cli run       --model <m> --batch <n> [--policy <p>] [--memory <bytes|GiB>]
                           [--iters <n>] [--eager]
    capuchin-cli max-batch --model <m> [--policy <p>] [--memory ...] [--eager]
    capuchin-cli plan      --model <m> --batch <n> [--memory ...]
    capuchin-cli cluster   (--jobs <file> | --synthetic <n> | --mixed <n>)
                           [--seed <s>] [--mean-interarrival <secs>]
                           [--gpus <n>] [--memory ...] [--admission tf-ori|capuchin]
                           [--strategy fifo|best-fit] [--aging-rate <r>]
                           [--preemption on|off] [--interconnect off|pcie|peer<k>]
                           [--elastic on|off] [--min-batch-frac <f>]
                           [--slo-aware on|off] [--predictive on|off]
                           [--safety-margin <permille>] [--min-samples <n>]
                           [--out <file>] [--transfer-trace <file>]
    capuchin-cli serve     [--addr <host:port>] [--clock virtual|wall]
                           [--gpus <n>] [--memory ...] [--admission ...]
                           [--strategy ...] [--aging-rate <r>]
                           [--preemption on|off] [--interconnect ...]
                           [--elastic on|off] [--min-batch-frac <f>]
                           [--slo-aware on|off] [--predictive on|off]
                           [--safety-margin <permille>] [--min-samples <n>]

MODELS:    vgg16 resnet50 resnet152 inceptionv3 inceptionv4 densenet bert
POLICIES:  tf-ori capuchin (default) dtr delta — cluster job-file policies,
           dispatched through the policy registry — plus the single-run
           baselines vdnn openai-memory openai-speed lru
MEMORY:    e.g. 16GiB, 800 MiB, 64KiB, or raw bytes (default 16GiB per GPU)
CLUSTER:   schedules a multi-job workload over N simulated GPUs and prints
           cluster-stats JSON (deterministic for a fixed workload/seed).
           A job's \"gpus\" field (default 1) makes it a data-parallel gang
           placed all-or-nothing; --interconnect routes swap, allreduce
           and checkpoint traffic over a shared PCIe link (peer<k> adds
           peer lanes over domains of k GPUs, e.g. peer4).
           --transfer-trace writes the unified per-tensor transfer
           timeline (one JSON record per replayed swap, allreduce, or
           checkpoint/restore copy) without changing the stats JSON.
           --mixed generates a scale-bench workload (rigid singles,
           gangs, and elastic jobs mixed; gangs sized to the cluster).
           --elastic on lets jobs marked \"elastic\": true in the file
           start at a reduced batch when the cluster is full (floored at
           --min-batch-frac of the requested batch, default 0.25) and
           re-grow when headroom frees; total samples trained per job is
           preserved exactly.
           A job with \"class\": \"inference\" serves requests instead of
           training: it needs \"request_rate\" (req/s, > 0), \"slo_ms\"
           (> 0) and \"requests\" (> 0), plus optional
           \"kv_bytes_per_request\" and \"max_inflight\"; it cannot be
           elastic, and its gang cannot exceed one link domain.
           --slo-aware off disables the latency-SLO priority boost
           (the SLO-blind baseline; default on)
           --predictive on admits returning (model, policy, class)
           families from a fitted footprint predictor instead of a
           measured iteration: once a key has --min-samples completed
           runs (default 3), later arrivals are granted the predicted
           footprint padded by --safety-margin (permille, default 1150
           = +15%) and charge zero validation-engine runs; a prediction
           caught under-shooting at an iteration boundary is recovered
           by checkpoint-preemption and measured re-admission.
SERVE:     runs the same scheduler as a long-lived daemon speaking
           line-delimited JSON over TCP (submit/cancel/status/stats/
           subscribe/drain/shutdown). --addr defaults to 127.0.0.1:7070
           (port 0 = ephemeral, printed on the `listening on` line);
           --clock virtual (default) keeps runs byte-reproducible,
           --clock wall paces the event clock against real time.
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// A command-line value the CLI could not act on. Every variant renders
/// through [`fail`], which prints the usage block and exits with a
/// non-zero status — bad input is a diagnostic, never a panic.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// `--model` named something that is not in the menu.
    UnknownModel(ParseEnumError),
    /// `--memory` (or a job-file size) was not a positive size.
    BadMemory(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownModel(e) => write!(f, "{e}"),
            CliError::BadMemory(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Accepted `--model` spellings, in menu order.
const MODEL_NAMES: &[&str] = &[
    "vgg16",
    "resnet50",
    "resnet152",
    "inceptionv3",
    "inceptionv4",
    "densenet",
    "bert",
];

/// Single-run-only baseline spellings: policies the cluster job files do
/// not accept (they have no admission story) but the `run`/`max-batch`
/// subcommands expose for §6 comparisons.
const BASELINE_POLICY_NAMES: &[&str] = &["vdnn", "openai-memory", "openai-speed", "lru"];

/// Accepted `--policy` spellings: every registry policy (the spellings
/// come from `capuchin_cluster::REGISTRY` via [`JobPolicy::ACCEPTED`])
/// followed by the single-run baselines.
const POLICY_NAMES_ARR: [&str; JobPolicy::ACCEPTED.len() + BASELINE_POLICY_NAMES.len()] = {
    let mut out = [""; JobPolicy::ACCEPTED.len() + BASELINE_POLICY_NAMES.len()];
    let mut i = 0;
    while i < JobPolicy::ACCEPTED.len() {
        out[i] = JobPolicy::ACCEPTED[i];
        i += 1;
    }
    let mut j = 0;
    while j < BASELINE_POLICY_NAMES.len() {
        out[i + j] = BASELINE_POLICY_NAMES[j];
        j += 1;
    }
    out
};
const POLICY_NAMES: &[&str] = &POLICY_NAMES_ARR;

fn parse_model(s: &str) -> Result<ModelKind, CliError> {
    Ok(match s.to_lowercase().as_str() {
        "vgg16" => ModelKind::Vgg16,
        "resnet50" => ModelKind::ResNet50,
        "resnet152" => ModelKind::ResNet152,
        "inceptionv3" => ModelKind::InceptionV3,
        "inceptionv4" => ModelKind::InceptionV4,
        "densenet" => ModelKind::DenseNet121,
        "bert" => ModelKind::BertBase,
        other => {
            return Err(CliError::UnknownModel(ParseEnumError::unknown(
                "model",
                other,
                MODEL_NAMES,
            )))
        }
    })
}

fn make_policy(name: &str, graph: &Graph, spec: &DeviceSpec) -> Box<dyn MemoryPolicy> {
    // Registry policies (tf-ori, capuchin, dtr, delta, …) dispatch through
    // their descriptor — the CLI adds no policy knowledge of its own.
    if let Ok(p) = name.parse::<JobPolicy>() {
        return p.descriptor().build(spec.memory_bytes, spec);
    }
    // Single-run baselines live outside the cluster registry: they have
    // no admission story, so job files reject them, but `run`/`max-batch`
    // still expose them for §6 comparisons.
    match name {
        "vdnn" => Box::new(Vdnn::from_graph(graph)),
        "openai-memory" => Box::new(GradientCheckpointing::from_graph(
            graph,
            CheckpointMode::Memory,
        )),
        "openai-speed" => Box::new(GradientCheckpointing::from_graph(
            graph,
            CheckpointMode::Speed,
        )),
        "lru" => Box::new(LruSwap::new()),
        other => fail(&ParseEnumError::unknown("policy", other, POLICY_NAMES).to_string()),
    }
}

/// One shared size parser for every subcommand — the real implementation
/// lives in `capuchin_cluster::parse_memory` (KiB/MiB/GiB + kb/mb/gb +
/// raw bytes, embedded whitespace tolerated).
fn parse_memory(s: &str) -> Result<u64, CliError> {
    capuchin_cluster::parse_memory(s).map_err(CliError::BadMemory)
}

struct Args {
    flags: HashMap<String, String>,
    eager: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = HashMap::new();
        let mut eager = false;
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--eager" {
                eager = true;
            } else if let Some(key) = a.strip_prefix("--") {
                let val = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("missing value for --{key}")));
                flags.insert(key.to_owned(), val.clone());
            } else {
                fail(&format!("unexpected argument `{a}`"));
            }
        }
        Args { flags, eager }
    }

    fn model(&self) -> ModelKind {
        parse_model(
            self.flags
                .get("model")
                .unwrap_or_else(|| fail("--model is required")),
        )
        .unwrap_or_else(|e| fail(&e.to_string()))
    }

    fn policy_name(&self) -> &str {
        self.flags
            .get("policy")
            .map(String::as_str)
            .unwrap_or("capuchin")
    }

    fn memory(&self) -> u64 {
        self.flags
            .get("memory")
            .map(|s| parse_memory(s).unwrap_or_else(|e| fail(&e.to_string())))
            .unwrap_or(16 << 30)
    }

    fn batch(&self) -> usize {
        self.flags
            .get("batch")
            .unwrap_or_else(|| fail("--batch is required"))
            .parse()
            .unwrap_or_else(|_| fail("--batch must be an integer"))
    }

    fn iters(&self) -> u64 {
        self.flags
            .get("iters")
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| fail("--iters must be an integer"))
            })
            .unwrap_or(8)
    }

    fn config(&self) -> EngineConfig {
        EngineConfig {
            spec: DeviceSpec::p100_pcie3().with_memory(self.memory()),
            mode: if self.eager {
                ExecMode::eager_default()
            } else {
                ExecMode::Graph
            },
            ..EngineConfig::default()
        }
    }

    /// Rejects flags the subcommand does not read: a typo like
    /// `--preempt on` must exit with usage, not silently run with the
    /// flag's default.
    fn expect_only(&self, allowed: &[&str]) {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        if let Some(first) = unknown.first() {
            let accepted: Vec<String> = allowed.iter().map(|a| format!("--{a}")).collect();
            fail(&format!(
                "unknown flag `--{first}` for this command (accepted: {})",
                accepted.join(", ")
            ));
        }
    }
}

fn cmd_models() {
    println!(
        "{:<14} {:>10} {:>9} {:>14} {:>16}",
        "model", "ops", "values", "parameters", "activations@b32"
    );
    for kind in ModelKind::ALL {
        let m = kind.build(32);
        println!(
            "{:<14} {:>10} {:>9} {:>14} {:>13.2} GiB",
            kind.name(),
            m.graph.op_count(),
            m.graph.value_count(),
            m.graph.param_count(),
            m.graph.activation_bytes() as f64 / (1 << 30) as f64,
        );
    }
}

fn cmd_run(args: &Args) {
    args.expect_only(&["model", "batch", "policy", "memory", "iters"]);
    let kind = args.model();
    let batch = args.batch();
    let model = kind.build(batch);
    let cfg = args.config();
    let policy = make_policy(args.policy_name(), &model.graph, &cfg.spec);
    println!(
        "{} @ batch {batch} under {} ({:.1} GiB device{})",
        kind.name(),
        args.policy_name(),
        args.memory() as f64 / (1 << 30) as f64,
        if args.eager { ", eager" } else { "" },
    );
    let mut eng = Engine::new(&model.graph, cfg, policy);
    match eng.run(args.iters()) {
        Ok(stats) => {
            println!(
                "{:>5} {:>10} {:>12} {:>10} {:>9} {:>9} {:>10}",
                "iter", "wall", "throughput", "swap-out", "recomp", "passive", "stall"
            );
            for it in &stats.iters {
                println!(
                    "{:>5} {:>8.1}ms {:>10.1}/s {:>7.2}GiB {:>9} {:>9} {:>8.1}ms",
                    it.iter,
                    it.wall().as_millis_f64(),
                    batch as f64 / it.wall().as_secs_f64(),
                    it.swap_out_bytes as f64 / (1 << 30) as f64,
                    it.recompute_kernels,
                    it.passive_evictions,
                    it.stall_time.as_millis_f64(),
                );
            }
            match stats.try_last() {
                Some(last) => println!(
                    "\nsteady state: {:.1} samples/sec, peak memory {:.2} GiB",
                    batch as f64 / last.wall().as_secs_f64(),
                    last.peak_mem as f64 / (1 << 30) as f64,
                ),
                None => {
                    eprintln!("run recorded no iterations (--iters 0?)");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_max_batch(args: &Args) {
    args.expect_only(&["model", "policy", "memory"]);
    let kind = args.model();
    let cfg = args.config();
    let policy_name = args.policy_name().to_owned();
    // Plan-capable policies (capuchin, delta) need enough iterations for
    // the measured pass plus planned steady state; unmanaged and online
    // policies settle in three.
    let probe_iters = if matches!(policy_name.as_str(), "capuchin" | "delta") {
        8
    } else {
        3
    };
    let fits = |b: usize| -> bool {
        let model = kind.build(b);
        let policy = make_policy(&policy_name, &model.graph, &cfg.spec);
        Engine::new(&model.graph, cfg.clone(), policy)
            .run(probe_iters)
            .is_ok()
    };
    let (mut lo, mut hi) = (0usize, 8usize);
    while fits(hi) {
        lo = hi;
        hi *= 2;
    }
    if lo == 0 {
        println!(
            "{} cannot run even at batch 8 under {policy_name}",
            kind.name()
        );
        return;
    }
    while hi - lo > (lo / 64).max(1) {
        let mid = (lo + hi) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    println!("{} maximum batch under {policy_name}: {lo}", kind.name());
}

fn cmd_plan(args: &Args) {
    args.expect_only(&["model", "batch", "memory"]);
    let kind = args.model();
    let batch = args.batch();
    let model = kind.build(batch);
    let mut eng = Engine::new(&model.graph, args.config(), Box::new(Capuchin::new()));
    if let Err(e) = eng.run(3) {
        eprintln!("measured execution failed: {e}");
        std::process::exit(1);
    }
    let cap = eng
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<Capuchin>())
        .expect("capuchin policy");
    let profile = cap.profile();
    let plan = cap.plan();
    println!("{} @ batch {batch}:", kind.name());
    println!(
        "  measured: {} accesses over {} tensors; ideal peak {:.2} GiB; required saving {:.2} GiB",
        profile.seq.len(),
        profile.accesses_of.len(),
        profile.ideal_peak as f64 / (1 << 30) as f64,
        profile.required_saving as f64 / (1 << 30) as f64,
    );
    println!("  plan: {}", plan.summary());
    let mut swaps: Vec<_> = plan.swaps.iter().collect();
    swaps.sort_by_key(|(_, e)| std::cmp::Reverse(e.ft_ns));
    println!("  top swaps by Free Time:");
    for (key, entry) in swaps.into_iter().take(10) {
        let info = &profile.info[key];
        println!(
            "    {:<42} {:>8.1} MiB  FT {:>9.2} ms  evict@{} back@{}",
            info.name,
            info.size as f64 / (1 << 20) as f64,
            entry.ft_ns as f64 / 1e6,
            entry.evicted_count,
            entry.back_count,
        );
    }
}

fn cmd_cluster(args: &Args) {
    const JOB_FLAGS: &[&str] = &[
        "jobs",
        "synthetic",
        "mixed",
        "seed",
        "mean-interarrival",
        "transfer-trace",
        "out",
    ];
    let accepted: Vec<&str> = ClusterConfig::FLAGS
        .iter()
        .chain(JOB_FLAGS)
        .copied()
        .collect();
    args.expect_only(&accepted);
    // The cluster shape first: job files are validated against its size,
    // elastic floor and link-domain width.
    let cfg = ClusterConfig::from_flags(&args.flags).unwrap_or_else(|e| fail(&e));
    let jobs = if let Some(path) = args.flags.get("jobs") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read job file `{path}`: {e}")));
        load_jobs(
            &text,
            cfg.gpus,
            cfg.min_batch_fraction,
            cfg.link_domain_gpus(),
        )
        .unwrap_or_else(|e| fail(&e.to_string()))
    } else if args.flags.contains_key("synthetic") || args.flags.contains_key("mixed") {
        let (key, mixed) = if args.flags.contains_key("mixed") {
            ("mixed", true)
        } else {
            ("synthetic", false)
        };
        let n: usize = args.flags[key]
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key} must be a job count")));
        let seed: u64 = args
            .flags
            .get("seed")
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| fail("--seed must be an integer"))
            })
            .unwrap_or(1);
        let mean: f64 = args
            .flags
            .get("mean-interarrival")
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| fail("--mean-interarrival must be seconds"))
            })
            .unwrap_or(2.0);
        if mixed {
            synthetic_mixed_jobs(n, cfg.gpus, seed, mean)
        } else {
            synthetic_jobs(n, seed, mean)
        }
    } else {
        fail("cluster needs --jobs <file>, --synthetic <n>, or --mixed <n>")
    };
    let on_off = |on: bool| if on { "on" } else { "off" };
    eprintln!(
        "scheduling {} jobs on {} × {:.1} GiB GPUs \
         ({}, {}, preemption {}, elastic {}, interconnect {})",
        jobs.len(),
        cfg.gpus,
        cfg.spec.memory_bytes as f64 / (1 << 30) as f64,
        cfg.admission,
        cfg.strategy,
        on_off(cfg.preemption),
        on_off(cfg.elastic),
        cfg.interconnect
            .as_ref()
            .map_or("off", |spec| spec.name.as_str()),
    );
    let (stats, transfers) = Cluster::new(cfg).run_traced(&jobs);
    eprintln!(
        "completed {}/{} (rejected {}), makespan {:.2}s, {:.1} samples/sec aggregate",
        stats.completed,
        stats.submitted,
        stats.oom_rejections,
        stats.makespan.as_secs_f64(),
        stats.aggregate_samples_per_sec,
    );
    if let Some(path) = args.flags.get("transfer-trace") {
        let json = serde_json::to_string_pretty(&transfers).expect("transfer trace serialize");
        std::fs::write(path, &json)
            .unwrap_or_else(|e| fail(&format!("cannot write `{path}`: {e}")));
        eprintln!(
            "wrote {} per-tensor transfer record(s) to {path}",
            transfers.len()
        );
    }
    let json = stats.to_json();
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| fail(&format!("cannot write `{path}`: {e}")));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

fn cmd_serve(args: &Args) {
    // `from_flags` rejects unknown keys itself — one accepted-flag list
    // shared with the standalone `capuchin-serve` binary.
    let cfg = capuchin_serve::ServeConfig::from_flags(&args.flags)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let clock = cfg.clock;
    let handle = capuchin_serve::serve(cfg).unwrap_or_else(|e| fail(&format!("cannot bind: {e}")));
    println!("listening on {} (clock {})", handle.addr(), clock.name());
    handle.wait();
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("models") => cmd_models(),
        Some("run") => cmd_run(&Args::parse(&argv[1..])),
        Some("max-batch") => cmd_max_batch(&Args::parse(&argv[1..])),
        Some("plan") => cmd_plan(&Args::parse(&argv[1..])),
        Some("cluster") => cmd_cluster(&Args::parse(&argv[1..])),
        Some("serve") => cmd_serve(&Args::parse(&argv[1..])),
        Some("--help") | Some("-h") | None => println!("{USAGE}"),
        Some(other) => fail(&format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sizes_parse() {
        assert_eq!(parse_memory("16GiB").unwrap(), 16 << 30);
        assert_eq!(parse_memory("16 GiB").unwrap(), 16 << 30);
        assert_eq!(parse_memory("800MiB").unwrap(), 800 << 20);
        assert_eq!(parse_memory("64KiB").unwrap(), 64 << 10);
        assert_eq!(parse_memory("2gb").unwrap(), 2_000_000_000);
        assert_eq!(parse_memory("12345").unwrap(), 12_345);
        assert_eq!(parse_memory("1.5GiB").unwrap(), 3 << 29);
    }

    /// Bad `--model` / `--memory` values surface as typed errors whose
    /// rendering names the offending input and the accepted spellings —
    /// the old code paths died inside the parser instead.
    #[test]
    fn bad_model_and_memory_are_typed_errors() {
        let e = parse_model("resnet9000").unwrap_err();
        assert!(matches!(e, CliError::UnknownModel(_)));
        let msg = e.to_string();
        assert!(msg.contains("`resnet9000`"), "{msg}");
        assert!(msg.contains("expected one of"), "{msg}");
        assert!(msg.contains("vgg16"), "{msg}");

        let e = parse_memory("chunky").unwrap_err();
        assert!(matches!(e, CliError::BadMemory(_)));
        assert!(e.to_string().contains("chunky"), "{e}");

        assert_eq!(parse_model("ResNet50").unwrap(), ModelKind::ResNet50);
    }

    #[test]
    fn args_parse_flags_and_eager() {
        let raw: Vec<String> = ["--model", "resnet50", "--batch", "32", "--eager"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw);
        assert!(args.eager);
        assert_eq!(args.batch(), 32);
        assert_eq!(args.policy_name(), "capuchin");
        assert_eq!(args.memory(), 16 << 30);
    }
}
