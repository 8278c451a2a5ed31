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
use capuchin_baselines::{CheckpointMode, GradientCheckpointing, TfOri, Vdnn};
use capuchin_cluster::{JobPolicy, JobSpec};
use capuchin_executor::{Engine, EngineConfig, ExecMode, IterStats, MemoryPolicy};
use capuchin_graph::Graph;
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, Duration};
use serde::Serialize;

/// The systems compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
}

impl System {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            System::TfOri => "TF-ori",
            System::Vdnn => "vDNN",
            System::OpenAiMemory => "OpenAI-M",
            System::OpenAiSpeed => "OpenAI-S",
            System::Capuchin => "Capuchin",
            System::CapuchinSwapOnly => "Capuchin(swap)",
            System::CapuchinRecomputeOnly => "Capuchin(recompute)",
        }
    }

    /// Instantiates the policy for a graph.
    pub fn policy(self, graph: &Graph) -> Box<dyn MemoryPolicy> {
        match self {
            System::TfOri => Box::new(TfOri::new()),
            System::Vdnn => Box::new(Vdnn::from_graph(graph)),
            System::OpenAiMemory => Box::new(GradientCheckpointing::from_graph(
                graph,
                CheckpointMode::Memory,
            )),
            System::OpenAiSpeed => Box::new(GradientCheckpointing::from_graph(
                graph,
                CheckpointMode::Speed,
            )),
            System::Capuchin => Box::new(Capuchin::new()),
            System::CapuchinSwapOnly => {
                Box::new(Capuchin::with_config(CapuchinConfig::swap_only()))
            }
            System::CapuchinRecomputeOnly => {
                Box::new(Capuchin::with_config(CapuchinConfig::recompute_only()))
            }
        }
    }

    /// Iterations needed for the system's steady state (Capuchin needs the
    /// measured iteration plus refinement rounds).
    pub fn warm_iters(self) -> u64 {
        match self {
            System::Capuchin | System::CapuchinSwapOnly | System::CapuchinRecomputeOnly => 10,
            _ => 3,
        }
    }

    /// Whether the system can train `kind` at all: vDNN is CNN-specific
    /// (paper: "not available on BERT").
    pub fn supports(self, kind: ModelKind) -> bool {
        !(self == System::Vdnn && kind == ModelKind::BertBase)
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
        let cfg = EngineConfig {
            spec: match budget {
                Some(bytes) => self.spec.clone().with_memory(bytes),
                None => self.spec.clone(),
            },
            mode: self.mode,
            tracking_overhead: self.tracking_overhead,
            ..EngineConfig::default()
        };
        Engine::new(graph, cfg, policy).run(iters).ok()?.iters.pop()
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
        for system in [
            System::TfOri,
            System::Vdnn,
            System::OpenAiMemory,
            System::OpenAiSpeed,
            System::Capuchin,
            System::CapuchinSwapOnly,
            System::CapuchinRecomputeOnly,
        ] {
            let policy = system.policy(&model.graph);
            assert!(!policy.name().is_empty());
        }
    }
}
