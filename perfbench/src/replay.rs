//! Replays a stream's admission keys through the public chain the
//! cluster runs internally — `ModelKind::build` → `measure_footprint` →
//! `Admission::needs` → `min_feasible_budget` → `Admission::validate` →
//! `FootprintPredictor::predict` — so the time a cold arrival spends
//! inside `Cluster` can be attributed to layers. Traced runs only.

use std::collections::BTreeSet;

use capuchin::{measure_footprint, measure_forward_footprint};
use capuchin_cluster::job::JobClass;
use capuchin_cluster::predict::{key_for, sample_from};
use capuchin_cluster::{
    min_feasible_budget, Admission, ClusterConfig, CostClass, FootprintPredictor, JobPolicy,
    JobSpec,
};

use crate::trace::Tracer;

/// Simulated engine figures summed over every replayed validation
/// iteration (the paper's Fig. 8 quantities).
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineSims {
    /// Validation iterations replayed.
    pub iters: u64,
    /// Simulated iteration time, ns.
    pub sim_ns: u64,
    /// Bytes swapped out plus in.
    pub swap_bytes: u64,
    /// Simulated recomputation time, ns.
    pub recompute_ns: u64,
    /// Passive evictions.
    pub evictions: u64,
}

/// The admission keys of a stream: `(model, replica batch, policy,
/// inference, validation iterations)`, in a fixed order.
fn keys(
    specs: &[JobSpec],
    cfg: &ClusterConfig,
) -> BTreeSet<(capuchin_models::ModelKind, usize, &'static str, bool, u64)> {
    specs
        .iter()
        .map(|s| {
            (
                s.model,
                s.replica_batch(),
                s.policy.name(),
                s.is_inference(),
                s.iters.min(cfg.validate_iters).max(2),
            )
        })
        .collect()
}

/// Replays every distinct admission key of `specs` under `cfg`'s
/// admission mode, recording one span per call.
pub fn admission_chain(specs: &[JobSpec], cfg: &ClusterConfig, tr: &mut Tracer) -> EngineSims {
    let mut admission = Admission::new(cfg.admission);
    admission.validate_iters = cfg.validate_iters.max(2);
    let mut predictor = FootprintPredictor::new();
    let mut sims = EngineSims::default();
    for (i, (model_kind, rb, policy_name, inference, iters)) in
        keys(specs, cfg).into_iter().enumerate()
    {
        let id = i as u64;
        let policy: JobPolicy = policy_name.parse().expect("registry names parse");
        let heuristic = policy.descriptor().cost_class == CostClass::Heuristic;
        let model = tr.time("models.build", id, || model_kind.build(rb));
        let forward = inference.then(|| model.graph.forward_prefix());
        let graph = forward.as_ref().unwrap_or(&model.graph);
        let est = tr
            .time("core.measure", id, || {
                if inference {
                    measure_forward_footprint(&model.graph, &cfg.spec)
                } else {
                    measure_footprint(&model.graph, &cfg.spec)
                }
            })
            .expect("unconstrained measuring run cannot OOM");
        let needs = tr.time("admission.needs", id, || match (heuristic, inference) {
            (true, false) => admission.heuristic_needs(&est),
            (true, true) => admission.heuristic_forward_needs(&est),
            (false, false) => admission.needs(graph, &est),
            (false, true) => admission.forward_needs(graph, &est, policy),
        });
        std::hint::black_box(tr.time("core.plan", id, || {
            min_feasible_budget(&est, &admission.planner)
        }));
        // Heuristic-class policies are never validated by an engine run.
        if !heuristic {
            let shrunk = needs.min < needs.full;
            let replay = tr.time("admission.validate", id, || {
                admission.validate(graph, &cfg.spec, needs.min, policy, shrunk, iters)
            });
            for it in replay.iter().flatten() {
                sims.iters += 1;
                sims.sim_ns += it.wall.as_nanos();
                sims.swap_bytes += it.swap_bytes;
                sims.recompute_ns += it.recompute_time.as_nanos();
                sims.evictions += it.evictions;
            }
        }
        if policy.descriptor().predictable {
            let class = if inference {
                JobClass::Inference
            } else {
                JobClass::Training
            };
            let key = key_for(model_kind, policy, class);
            predictor.observe(key, sample_from(&est, needs.full, needs.min, rb as u64));
            std::hint::black_box(tr.time("predict.predict", id, || {
                predictor.predict(&key, rb as u64, 1)
            }));
        }
    }
    sims
}
