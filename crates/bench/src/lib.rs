//! # capuchin-bench — the experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper's
//! evaluation (§6): system/policy factories, one engine-run helper,
//! maximum-batch-size search, and JSON artifact emission. The paper's
//! exhibits are one [`exhibit`] table driven by the `exhibit` binary (see
//! `DESIGN.md` for the experiment index); the cluster-level exhibits are
//! one [`scenario`] table driven by the `cluster_bench` binary.

#![warn(missing_docs)]

pub mod exhibit;
pub mod scenario;

use std::path::Path;

use capuchin::{Capuchin, CapuchinConfig};
use capuchin_baselines::{CheckpointMode, GradientCheckpointing, LruSwap, Vdnn};
use capuchin_cluster::{JobPolicy, JobSpec};
use capuchin_executor::{Engine, EngineConfig, ExecMode, IterStats, MemoryPolicy};
use capuchin_graph::Graph;
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, Duration};
use serde::Serialize;

/// The systems compared in the paper's evaluation, and the policies the
/// command line runs beside them: one row of the system table each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Original TensorFlow (no memory management).
    TfOri,
    /// vDNN layer-wise offload.
    Vdnn,
    /// OpenAI gradient-checkpointing, memory mode.
    OpenAiMemory,
    /// OpenAI gradient-checkpointing, speed mode.
    OpenAiSpeed,
    /// Capuchin (full hybrid policy).
    Capuchin,
    /// Capuchin restricted to swapping (Fig. 8a breakdowns).
    CapuchinSwapOnly,
    /// Capuchin restricted to recomputation (Fig. 8b breakdowns).
    CapuchinRecomputeOnly,
    /// Dynamic Tensor Rematerialization (arXiv:2006.09616).
    Dtr,
    /// Capuchin's planner under DELTA's swap/recompute choice
    /// (arXiv:2203.15980).
    Delta,
    /// On-demand LRU paging.
    Lru,
}

/// One system: how it is spelled, shown, warmed and built.
struct Row {
    system: System,
    /// Accepted spellings, canonical first.
    accepted: &'static [&'static str],
    /// Display name used in tables.
    name: &'static str,
    /// Iterations to the steady state (Capuchin's planners need the
    /// measured iteration plus refinement rounds).
    warm_iters: u64,
    /// CNN-specific (vDNN; paper: "not available on BERT").
    cnn_only: bool,
    /// The policy for a graph; systems with a cluster-registry row build
    /// through it.
    build: fn(&Graph) -> Box<dyn MemoryPolicy>,
}

/// The system table, in [`System`] variant order.
const ROWS: &[Row] = &[
    Row {
        system: System::TfOri,
        accepted: &["tf-ori"],
        name: "TF-ori",
        warm_iters: 3,
        cnn_only: false,
        build: |_| JobPolicy::TfOri.descriptor().build(),
    },
    Row {
        system: System::Vdnn,
        accepted: &["vdnn"],
        name: "vDNN",
        warm_iters: 3,
        cnn_only: true,
        build: |g| Box::new(Vdnn::from_graph(g)),
    },
    Row {
        system: System::OpenAiMemory,
        accepted: &["openai-memory", "openai-m"],
        name: "OpenAI-M",
        warm_iters: 3,
        cnn_only: false,
        build: |g| checkpointing(g, CheckpointMode::Memory),
    },
    Row {
        system: System::OpenAiSpeed,
        accepted: &["openai-speed", "openai-s"],
        name: "OpenAI-S",
        warm_iters: 3,
        cnn_only: false,
        build: |g| checkpointing(g, CheckpointMode::Speed),
    },
    Row {
        system: System::Capuchin,
        accepted: &["capuchin"],
        name: "Capuchin",
        warm_iters: 10,
        cnn_only: false,
        build: |_| JobPolicy::Capuchin.descriptor().build(),
    },
    Row {
        system: System::CapuchinSwapOnly,
        accepted: &["capuchin-swap"],
        name: "Capuchin(swap)",
        warm_iters: 10,
        cnn_only: false,
        build: |_| Box::new(Capuchin::with_config(CapuchinConfig::swap_only())),
    },
    Row {
        system: System::CapuchinRecomputeOnly,
        accepted: &["capuchin-recompute"],
        name: "Capuchin(recompute)",
        warm_iters: 10,
        cnn_only: false,
        build: |_| Box::new(Capuchin::with_config(CapuchinConfig::recompute_only())),
    },
    Row {
        system: System::Dtr,
        accepted: &["dtr"],
        name: "DTR",
        warm_iters: 3,
        cnn_only: false,
        build: |_| JobPolicy::Dtr.descriptor().build(),
    },
    Row {
        system: System::Delta,
        accepted: &["delta"],
        name: "DELTA",
        warm_iters: 10,
        cnn_only: false,
        build: |_| JobPolicy::Delta.descriptor().build(),
    },
    Row {
        system: System::Lru,
        accepted: &["lru"],
        name: "LRU",
        warm_iters: 3,
        cnn_only: false,
        build: |_| Box::new(LruSwap::new()),
    },
];

/// Gradient checkpointing in `mode`, configured from `graph`.
pub(crate) fn checkpointing(graph: &Graph, mode: CheckpointMode) -> Box<dyn MemoryPolicy> {
    Box::new(GradientCheckpointing::from_graph(graph, mode))
}

impl System {
    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// Every system, in table order.
    pub fn all() -> impl Iterator<Item = System> {
        ROWS.iter().map(|row| row.system)
    }

    /// Accepted command-line spellings, canonical first.
    pub fn accepted(self) -> &'static [&'static str] {
        self.row().accepted
    }

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Instantiates the policy for a graph.
    pub fn policy(self, graph: &Graph) -> Box<dyn MemoryPolicy> {
        (self.row().build)(graph)
    }

    /// Iterations needed for the system's steady state.
    pub fn warm_iters(self) -> u64 {
        self.row().warm_iters
    }

    /// Whether the system can train `kind` at all: vDNN is CNN-specific.
    pub fn supports(self, kind: ModelKind) -> bool {
        !(self.row().cnn_only && kind == ModelKind::BertBase)
    }
}

impl std::str::FromStr for System {
    type Err = String;

    /// Parses any accepted spelling; the error lists them all.
    fn from_str(s: &str) -> Result<System, String> {
        let found = System::all().find(|system| system.accepted().contains(&s));
        found.ok_or_else(|| {
            let all: Vec<&str> = ROWS.iter().flat_map(|row| row.accepted).copied().collect();
            format!("unknown policy `{s}` (expected one of: {})", all.join(", "))
        })
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Harness-wide run configuration.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Device spec (defaults to the paper's 16 GB P100).
    pub spec: DeviceSpec,
    /// Graph or eager execution.
    pub mode: ExecMode,
    /// Host-side charge per recorded tensor access (zero except in the
    /// §6.3.2 overhead exhibit).
    pub tracking_overhead: Duration,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench {
            spec: DeviceSpec::p100_pcie3(),
            mode: ExecMode::Graph,
            tracking_overhead: Duration::ZERO,
        }
    }
}

impl Bench {
    /// The eager-mode harness (Table 3 / Fig. 10).
    pub fn eager() -> Bench {
        Bench {
            mode: ExecMode::eager_default(),
            ..Bench::default()
        }
    }

    /// Runs `policy` on `graph` for `iters` iterations, on the harness
    /// device or on one with `budget` bytes of memory when given.
    ///
    /// Returns the final iteration, the steady-state sample every exhibit
    /// reports, or `None` on OOM.
    pub fn run(
        &self,
        graph: &Graph,
        policy: Box<dyn MemoryPolicy>,
        budget: Option<u64>,
        iters: u64,
    ) -> Option<IterStats> {
        let mut cfg = self.config();
        if let Some(bytes) = budget {
            cfg.spec = cfg.spec.with_memory(bytes);
        }
        Engine::new(graph, cfg, policy).run(iters).ok()?.iters.pop()
    }

    /// The engine configuration of a run on the harness device.
    pub fn config(&self) -> EngineConfig {
        EngineConfig {
            spec: self.spec.clone(),
            mode: self.mode,
            tracking_overhead: self.tracking_overhead,
            ..EngineConfig::default()
        }
    }

    /// Steady-state training speed in samples/second, or `None` on OOM.
    pub fn throughput(&self, kind: ModelKind, batch: usize, system: System) -> Option<f64> {
        let model = kind.build(batch);
        let last = self.run(
            &model.graph,
            system.policy(&model.graph),
            None,
            system.warm_iters(),
        )?;
        Some(samples_per_s(batch, &last))
    }

    /// Whether `system` completes training at `batch`.
    pub fn fits(&self, kind: ModelKind, batch: usize, system: System) -> bool {
        self.throughput(kind, batch, system).is_some()
    }

    /// Maximum batch size: exponential probe from `seed`, then binary
    /// search to a granularity of ~1.5%.
    pub fn max_batch(&self, kind: ModelKind, system: System, seed: usize) -> usize {
        let mut lo = 0usize; // known-good
        let mut probe = seed.max(2);
        loop {
            if self.fits(kind, probe, system) {
                lo = probe;
                probe *= 2;
            } else {
                break;
            }
        }
        let mut hi = probe; // known-bad
        if lo == 0 {
            // The seed itself failed: search downwards.
            while probe > 1 {
                probe /= 2;
                if self.fits(kind, probe, system) {
                    lo = probe;
                    break;
                }
            }
            if lo == 0 {
                return 0;
            }
            hi = lo * 2;
        }
        let granularity = (lo / 64).max(2);
        while hi - lo > granularity {
            let mid = (lo + hi) / 2;
            if self.fits(kind, mid, system) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Fragmentation makes fit non-monotonic in rare pockets; probe a
        // few more steps upward so an isolated failure does not understate
        // the maximum.
        let mut best = lo;
        let mut b = lo + granularity;
        let mut misses = 0;
        while misses < 5 {
            if self.fits(kind, b, system) {
                best = b;
                misses = 0;
            } else {
                misses += 1;
            }
            b += granularity;
        }
        best
    }
}

/// Builds one cluster [`JobSpec`] — the shared job-mix vocabulary of the
/// cluster scenarios and `serve_smoke`, so workloads read as one-line rows
/// instead of struct literals.
#[allow(clippy::too_many_arguments)]
pub fn cluster_job(
    name: &str,
    model: ModelKind,
    batch: usize,
    gpus: usize,
    policy: JobPolicy,
    iters: u64,
    priority: u32,
    arrival_time: f64,
) -> JobSpec {
    JobSpec {
        name: name.to_owned(),
        model,
        batch,
        gpus,
        policy,
        iters,
        priority,
        arrival_time,
        elastic: false,
        ..JobSpec::default()
    }
}

/// Training speed of one iteration at `batch`, in samples/second.
pub fn samples_per_s(batch: usize, iter: &IterStats) -> f64 {
    batch as f64 / iter.wall().as_secs_f64()
}

/// Renders an artifact as the pretty JSON every `results/*.json` holds.
pub fn artifact_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable artifact")
}

/// Writes a rendered artifact to `results/<name>.json` so figures can be
/// regenerated without re-running the sweep. Exits on failure: a check
/// that diffs `results/` must not pass on an artifact never written.
pub fn write_artifact(name: &str, json: &str) {
    let path = Path::new("results").join(format!("{name}.json"));
    let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json));
    if let Err(e) = written {
        eprintln!("[artifact] cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("[artifact] wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_fits_agree() {
        let bench = Bench::default();
        assert!(bench.fits(ModelKind::ResNet50, 32, System::TfOri));
        let tput = bench.throughput(ModelKind::ResNet50, 32, System::TfOri);
        assert!(tput.expect("fits") > 10.0);
    }

    #[test]
    fn max_batch_search_brackets_correctly() {
        // Tiny device for a fast search.
        let bench = Bench {
            spec: DeviceSpec::p100_pcie3().with_memory(2 << 30),
            ..Bench::default()
        };
        let max = bench.max_batch(ModelKind::ResNet50, System::TfOri, 8);
        assert!(max > 0);
        assert!(bench.fits(ModelKind::ResNet50, max, System::TfOri));
        assert!(!bench.fits(ModelKind::ResNet50, max * 2, System::TfOri));
    }

    #[test]
    fn all_systems_instantiate() {
        let model = ModelKind::ResNet50.build(4);
        for system in System::all() {
            let policy = system.policy(&model.graph);
            assert!(!policy.name().is_empty());
        }
    }

    /// The rows sit in variant order, every spelling names one system,
    /// and each spelling parses back to its row.
    #[test]
    fn rows_are_in_variant_order_and_spellings_are_unique() {
        let mut spellings = Vec::new();
        for (i, system) in System::all().enumerate() {
            assert_eq!(system as usize, i, "{system} out of order");
            for &s in system.accepted() {
                assert_eq!(s.parse::<System>(), Ok(system));
                spellings.push(s);
            }
        }
        assert_eq!(System::all().count(), System::Lru as usize + 1);
        let n = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), n, "duplicate spelling");
        let err = "tf-new".parse::<System>().unwrap_err();
        assert!(
            err.contains("`tf-new`") && err.contains("openai-m"),
            "{err}"
        );
    }

    /// Registry policies spell themselves as the cluster registry does.
    #[test]
    fn registry_systems_share_the_registry_spellings() {
        for &spelling in JobPolicy::ACCEPTED {
            let system: System = spelling.parse().expect("registry spelling");
            let policy = system.policy(&ModelKind::ResNet50.build(4).graph);
            assert_eq!(
                policy.name(),
                spelling.parse::<JobPolicy>().unwrap().descriptor().name
            );
        }
    }
}
