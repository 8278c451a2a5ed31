//! Dynamic Tensor Rematerialization (arXiv:2006.09616): a fully online
//! eviction policy that needs **no measured iteration and no plan**.
//!
//! When an allocation fails, DTR scores every evictable resident tensor
//! with the paper's `h-DTR` heuristic
//!
//! ```text
//! h(t) = cost(t) / (staleness(t) × size(t))
//! ```
//!
//! and evicts the lowest-scoring tensor first: cheap to regenerate,
//! untouched for a long time, and freeing many bytes. Recomputable
//! tensors are *released* (regenerated on demand by the executor's
//! lineage replay — the rematerialization that gives DTR its name);
//! tensors with no lineage (graph inputs) fall back to a synchronous
//! swap, priced as their PCIe transfer so the heuristic stays
//! cost-comparable across both eviction kinds.
//!
//! Because nothing is measured or planned, a scheduler can admit a DTR
//! job without running a validation iteration — the `Heuristic`
//! admission cost class of `capuchin-cluster`'s policy registry.

use capuchin_executor::{Engine, MemoryPolicy};
use capuchin_graph::{kernel_cost, OpId};
use capuchin_sim::{CopyDir, TransferModel};
use capuchin_tensor::{TensorKey, TensorStatus};

/// Online evict-by-heuristic rematerialization (DTR).
///
/// # Examples
///
/// ```
/// use capuchin_baselines::DtrPolicy;
/// use capuchin_executor::{Engine, EngineConfig};
/// use capuchin_models::ModelKind;
///
/// let model = ModelKind::ResNet50.build(4);
/// let mut engine = Engine::new(&model.graph, EngineConfig::default(), Box::new(DtrPolicy::new()));
/// engine.run(2).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DtrPolicy;

impl DtrPolicy {
    /// Creates the policy.
    pub fn new() -> DtrPolicy {
        DtrPolicy
    }
}

/// Permille-scaled `h-DTR` score in pure integer math: score rises with
/// regeneration cost and falls with staleness and size, so evicting the
/// minimum drops the least valuable resident bytes. `u128` keeps the
/// product exact for multi-GiB tensors and hour-long staleness.
fn h_dtr(cost_ns: u64, staleness_ns: u64, size: u64) -> u128 {
    u128::from(cost_ns) * 1_000_000 / (u128::from(staleness_ns.max(1)) * u128::from(size.max(1)))
}

impl MemoryPolicy for DtrPolicy {
    fn name(&self) -> &str {
        "dtr"
    }

    fn on_alloc_failure(&mut self, engine: &mut Engine<'_>, need: u64) -> bool {
        let now = engine.now();
        let spec = engine.spec().clone();
        let transfers = TransferModel::for_device(&spec);
        // Score every evictable resident: regeneration cost is the
        // producing kernel's duration for recomputable tensors and the
        // D2H+H2D round trip for swap-only ones, so both eviction kinds
        // compete in one ranking.
        let mut candidates: Vec<(u128, TensorKey, bool)> = engine
            .registry()
            .iter()
            .filter(|t| {
                t.status == TensorStatus::In
                    && !t.meta.persistent
                    && t.device.is_some()
                    && !engine.pinned().contains(&t.key())
            })
            .map(|t| {
                let size = t.size_bytes();
                let recompute = t.meta.recomputable && t.meta.op.is_some();
                let cost_ns = if recompute {
                    let op = engine.graph().op(OpId(t.meta.op.expect("checked").0));
                    kernel_cost(engine.graph(), op)
                        .duration_on(&spec)
                        .as_nanos()
                } else {
                    (transfers.time(size, CopyDir::DeviceToHost)
                        + transfers.time(size, CopyDir::HostToDevice))
                    .as_nanos()
                };
                let staleness = now.saturating_since(t.last_access).as_nanos();
                (h_dtr(cost_ns, staleness, size), t.key(), recompute)
            })
            .collect();
        // Lowest h first; key tie-break keeps the order byte-stable.
        candidates.sort_by_key(|&(h, key, _)| (h, key));
        let mut any = false;
        for (_, key, recompute) in candidates {
            let evicted = if recompute {
                let released = engine.release_for_recompute_at(key, now);
                if released {
                    // Make the freed bytes visible to the pending
                    // allocation immediately.
                    engine.process_matured_frees();
                }
                released
            } else {
                engine.swap_out_sync(key)
            };
            if evicted {
                any = true;
                if engine.device().can_alloc(need) {
                    return true;
                }
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capuchin_executor::{EngineConfig, TfOri};
    use capuchin_models::ModelKind;
    use capuchin_sim::DeviceSpec;

    #[test]
    fn rematerializes_where_tf_ori_dies() {
        let model = ModelKind::ResNet50.build(16);
        let cfg = EngineConfig {
            spec: DeviceSpec::p100_pcie3().with_memory(900 << 20),
            ..EngineConfig::default()
        };
        let mut tf = Engine::new(&model.graph, cfg.clone(), Box::new(TfOri::new()));
        assert!(tf.run(1).is_err());
        let mut dtr = Engine::new(&model.graph, cfg, Box::new(DtrPolicy::new()));
        let stats = dtr.run(2).expect("DTR rescues the run");
        let it = stats.try_last().expect("run produced iterations");
        // Rematerialization, not paging: recompute kernels ran.
        assert!(it.recompute_kernels > 0, "{it:?}");
    }

    #[test]
    fn cheaper_than_oblivious_paging_under_pressure() {
        let model = ModelKind::ResNet50.build(16);
        let cfg = EngineConfig {
            spec: DeviceSpec::p100_pcie3().with_memory(900 << 20),
            ..EngineConfig::default()
        };
        let mut dtr = Engine::new(&model.graph, cfg.clone(), Box::new(DtrPolicy::new()));
        let dtr_it = dtr.run(2).unwrap().try_last().unwrap().clone();
        let mut lru = Engine::new(&model.graph, cfg, Box::new(crate::LruSwap::new()));
        let lru_it = lru.run(2).unwrap().try_last().unwrap().clone();
        // Regenerating cheap activations beats paging them over PCIe.
        assert!(
            dtr_it.wall() < lru_it.wall(),
            "dtr {:?} vs lru {:?}",
            dtr_it.wall(),
            lru_it.wall()
        );
    }

    #[test]
    fn no_interference_when_memory_suffices() {
        let model = ModelKind::ResNet50.build(8);
        let mut eng = Engine::new(
            &model.graph,
            EngineConfig::default(),
            Box::new(DtrPolicy::new()),
        );
        let stats = eng.run(2).unwrap();
        let it = stats.try_last().expect("run produced iterations");
        assert_eq!(it.passive_evictions, 0);
        assert_eq!(it.recompute_kernels, 0);
    }

    #[test]
    fn h_dtr_prefers_cheap_stale_large() {
        // Higher cost → higher score (kept); more staleness or size →
        // lower score (evicted first).
        assert!(h_dtr(1_000, 100, 10) < h_dtr(2_000, 100, 10));
        assert!(h_dtr(1_000, 200, 10) < h_dtr(1_000, 100, 10));
        assert!(h_dtr(1_000, 100, 20) < h_dtr(1_000, 100, 10));
        // Zero staleness/size must not divide by zero.
        assert!(h_dtr(1, 0, 0) > 0);
    }
}
