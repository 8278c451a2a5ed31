//! On-demand LRU paging — the "virtualized GPU memory" class of related
//! work the paper's §7 discusses (\[7\] GeePS, \[21\]): treat host memory as
//! backing store and page tensors in and out on demand, with no awareness
//! of the training computation.
//!
//! This is essentially Capuchin's passive mode running forever — no
//! measured execution, no plan, no recomputation — and it exists here to
//! quantify the paper's claim that computation-oblivious swapping
//! "delivers poor performance due to the large overhead of on-demand data
//! transfer".

use capuchin_executor::{Engine, MemoryPolicy};
use capuchin_sim::Time;
use capuchin_tensor::{TensorKey, TensorStatus};

/// Computation-oblivious on-demand paging with LRU victim selection.
///
/// # Examples
///
/// ```
/// use capuchin_baselines::LruSwap;
/// use capuchin_executor::{Engine, EngineConfig};
/// use capuchin_models::ModelKind;
///
/// let model = ModelKind::ResNet50.build(4);
/// let mut engine = Engine::new(&model.graph, EngineConfig::default(), Box::new(LruSwap::new()));
/// engine.run(2).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LruSwap;

impl LruSwap {
    /// Creates the pager.
    pub fn new() -> LruSwap {
        LruSwap
    }
}

impl MemoryPolicy for LruSwap {
    fn name(&self) -> &str {
        "lru-swap"
    }

    fn on_alloc_failure(&mut self, engine: &mut Engine<'_>, need: u64) -> bool {
        // Strict LRU over resident tensors, evicted synchronously —
        // on-demand paging with no overlap, like OS-style virtual memory.
        let mut candidates: Vec<(Time, TensorKey)> = engine
            .registry()
            .iter()
            .filter(|t| {
                t.status == TensorStatus::In
                    && !t.meta.persistent
                    && t.device.is_some()
                    && !engine.pinned().contains(&t.key())
            })
            .map(|t| (t.last_access, t.key()))
            .collect();
        candidates.sort();
        let mut any = false;
        for (_, key) in candidates {
            if engine.swap_out_sync(key) {
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
    fn pages_where_tf_ori_dies_but_pays_for_it() {
        let model = ModelKind::ResNet50.build(16);
        let cfg = EngineConfig {
            spec: DeviceSpec::p100_pcie3().with_memory(900 << 20),
            ..EngineConfig::default()
        };
        let mut tf = Engine::new(&model.graph, cfg.clone(), Box::new(TfOri::new()));
        assert!(tf.run(1).is_err());
        let mut lru = Engine::new(&model.graph, cfg.clone(), Box::new(LruSwap::new()));
        let stats = lru.run(2).expect("paging rescues the run");
        let it = stats.try_last().expect("run produced iterations");
        assert!(it.passive_evictions > 0);
        // On-demand transfers are fully exposed: the stall is substantial.
        assert!(it.stall_time.as_secs_f64() > 0.05 * it.wall().as_secs_f64());
    }

    #[test]
    fn no_interference_when_memory_suffices() {
        let model = ModelKind::ResNet50.build(8);
        let mut eng = Engine::new(
            &model.graph,
            EngineConfig::default(),
            Box::new(LruSwap::new()),
        );
        let stats = eng.run(2).unwrap();
        let it = stats.try_last().expect("run produced iterations");
        assert_eq!(it.passive_evictions, 0);
    }
}
