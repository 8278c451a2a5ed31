//! Ablation studies for the design choices DESIGN.md calls out — the
//! paper's §5.3 optimizations plus this reproduction's own additions.
//!
//! Sections (pass a name to run one, or nothing for all):
//!   decoupled    — decoupled computation/swap vs vDNN-style coupling
//!   lane         — lane-aware vs naive in-trigger placement (+feedback)
//!   collective   — collective recomputation on/off across budgets
//!   feedback     — feedback step-size sweep (naive triggers)
//!   passive      — Capuchin vs computation-oblivious LRU paging
//!   checkpoints  — count-based vs byte-balanced checkpoint selection
//!
//! The cluster-level policy matrix (every registry policy over every
//! fabric and workload shape) is the `policy` scenario of `cluster_bench`.

use capuchin::{Capuchin, CapuchinConfig};
use capuchin_baselines::{CheckpointMode, GradientCheckpointing, LruSwap};
use capuchin_bench::write_artifact;
use capuchin_executor::{Engine, EngineConfig, MemoryPolicy, TfOri};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;
use serde::Serialize;

#[derive(Serialize)]
struct Result {
    study: &'static str,
    config: String,
    model: &'static str,
    batch: usize,
    budget_mb: u64,
    throughput: Option<f64>,
    stall_ms: Option<f64>,
}

fn run(
    kind: ModelKind,
    batch: usize,
    budget_mb: u64,
    policy: Box<dyn MemoryPolicy>,
    iters: u64,
) -> (Option<f64>, Option<f64>) {
    let model = kind.build(batch);
    let cfg = EngineConfig {
        spec: DeviceSpec::p100_pcie3().with_memory(budget_mb << 20),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&model.graph, cfg, policy);
    match eng.run(iters) {
        Ok(stats) => match stats.try_last() {
            Some(last) => (
                Some(batch as f64 / last.wall().as_secs_f64()),
                Some(last.stall_time.as_millis_f64()),
            ),
            None => (None, None),
        },
        Err(_) => (None, None),
    }
}

fn fmt(v: Option<f64>) -> String {
    v.map(|t| format!("{t:.1}")).unwrap_or_else(|| "OOM".into())
}

const SECTIONS: [&str; 6] = [
    "decoupled",
    "lane",
    "collective",
    "feedback",
    "passive",
    "checkpoints",
];

fn main() {
    // `all_experiments --quick` forwards `--quick`; every section is
    // already quick, so it runs them all.
    let which = std::env::args().nth(1).filter(|a| a != "--quick");
    if which.as_deref().is_some_and(|w| !SECTIONS.contains(&w)) {
        eprintln!("usage: ablations [{}]", SECTIONS.join("|"));
        std::process::exit(2);
    }
    let all = which.is_none();
    let is = |name: &str| all || which.as_deref() == Some(name);
    let mut results = Vec::new();

    if is("decoupled") {
        println!("## decoupled computation/swap (ResNet-50 @ 300, 16 GiB)");
        for (label, coupled) in [
            ("decoupled (paper §5.3)", false),
            ("coupled (vDNN-style)", true),
        ] {
            let cfg = CapuchinConfig {
                coupled_swap: coupled,
                ..CapuchinConfig::swap_only()
            };
            let (t, s) = run(
                ModelKind::ResNet50,
                300,
                16 << 10,
                Box::new(Capuchin::with_config(cfg)),
                10,
            );
            println!("  {label:<26} {:>8} img/s  stall {:>8} ms", fmt(t), fmt(s));
            results.push(Result {
                study: "decoupled",
                config: label.into(),
                model: "ResNet-50",
                batch: 300,
                budget_mb: 16 << 10,
                throughput: t,
                stall_ms: s,
            });
        }
    }

    if is("lane") {
        println!("## in-trigger placement (InceptionV3 @ 300, 16 GiB)");
        for (label, lane, fa) in [
            ("naive, no feedback", false, false),
            ("naive + feedback (paper)", false, true),
            ("lane-aware (ours)", true, true),
        ] {
            let mut cfg = CapuchinConfig {
                feedback: fa,
                ..CapuchinConfig::swap_only()
            };
            cfg.planner.lane_aware = lane;
            let (t, s) = run(
                ModelKind::InceptionV3,
                300,
                16 << 10,
                Box::new(Capuchin::with_config(cfg)),
                14,
            );
            println!("  {label:<26} {:>8} img/s  stall {:>8} ms", fmt(t), fmt(s));
            results.push(Result {
                study: "lane",
                config: label.into(),
                model: "InceptionV3",
                batch: 300,
                budget_mb: 16 << 10,
                throughput: t,
                stall_ms: s,
            });
        }
    }

    if is("collective") {
        println!("## collective recomputation (ResNet-50 @ 48, shrinking budget)");
        for budget_mb in [2600u64, 2200, 1800] {
            for (label, cr) in [("CR on", true), ("CR off", false)] {
                let cfg = CapuchinConfig {
                    collective: cr,
                    ..CapuchinConfig::recompute_only()
                };
                let (t, s) = run(
                    ModelKind::ResNet50,
                    48,
                    budget_mb,
                    Box::new(Capuchin::with_config(cfg)),
                    10,
                );
                println!(
                    "  {budget_mb:>5} MiB  {label:<8} {:>8} img/s  stall {:>8} ms",
                    fmt(t),
                    fmt(s)
                );
                results.push(Result {
                    study: "collective",
                    config: format!("{label}@{budget_mb}MiB"),
                    model: "ResNet-50",
                    batch: 48,
                    budget_mb,
                    throughput: t,
                    stall_ms: s,
                });
            }
        }
    }

    if is("feedback") {
        println!("## feedback step size (InceptionV3 @ 260, naive triggers)");
        for step in [0.01f64, 0.05, 0.20] {
            let mut cfg = CapuchinConfig {
                lead_step: step,
                ..CapuchinConfig::swap_only()
            };
            cfg.planner.lane_aware = false;
            let (t, s) = run(
                ModelKind::InceptionV3,
                260,
                16 << 10,
                Box::new(Capuchin::with_config(cfg)),
                16,
            );
            println!(
                "  step {step:<5} {:>8} img/s  stall {:>8} ms",
                fmt(t),
                fmt(s)
            );
            results.push(Result {
                study: "feedback",
                config: format!("step={step}"),
                model: "InceptionV3",
                batch: 260,
                budget_mb: 16 << 10,
                throughput: t,
                stall_ms: s,
            });
        }
    }

    if is("passive") {
        println!("## computation-aware vs oblivious paging (ResNet-50 @ 400, 16 GiB)");
        let cases: Vec<(&str, Box<dyn MemoryPolicy>)> = vec![
            ("LRU on-demand paging", Box::new(LruSwap::new())),
            ("Capuchin", Box::new(Capuchin::new())),
        ];
        for (label, policy) in cases {
            let (t, s) = run(ModelKind::ResNet50, 400, 16 << 10, policy, 10);
            println!("  {label:<26} {:>8} img/s  stall {:>8} ms", fmt(t), fmt(s));
            results.push(Result {
                study: "passive",
                config: label.into(),
                model: "ResNet-50",
                batch: 400,
                budget_mb: 16 << 10,
                throughput: t,
                stall_ms: s,
            });
        }
    }

    if is("checkpoints") {
        println!("## checkpoint selection (ResNet-50 @ 500, 16 GiB)");
        let model = ModelKind::ResNet50.build(2);
        for (label, mode) in [
            ("count-based sqrt(n) (tool)", CheckpointMode::Memory),
            ("byte-balanced (ours)", CheckpointMode::MemoryBalanced),
        ] {
            let p = GradientCheckpointing::from_graph(&model.graph, mode);
            let info = format!(
                "{} checkpoints / {} released",
                p.checkpoints(),
                p.released()
            );
            let (t, s) = run(
                ModelKind::ResNet50,
                500,
                16 << 10,
                Box::new(GradientCheckpointing::from_graph(
                    &ModelKind::ResNet50.build(500).graph,
                    mode,
                )),
                3,
            );
            println!(
                "  {label:<28} {info:<28} {:>8} img/s  stall {:>8} ms",
                fmt(t),
                fmt(s)
            );
            results.push(Result {
                study: "checkpoints",
                config: label.into(),
                model: "ResNet-50",
                batch: 500,
                budget_mb: 16 << 10,
                throughput: t,
                stall_ms: s,
            });
        }
        // And their effect on tf-ori for scale.
        let (t, s) = run(
            ModelKind::ResNet50,
            500,
            16 << 10,
            Box::new(TfOri::new()),
            2,
        );
        println!(
            "  (tf-ori reference)           {:>37} img/s  stall {:>8} ms",
            fmt(t),
            fmt(s)
        );
    }

    #[derive(Serialize)]
    struct Artifact {
        engine: Vec<Result>,
    }
    write_artifact("ablations", &Artifact { engine: results });
}
