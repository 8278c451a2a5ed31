//! Tests for the engine's policy-facing services: prefetch cancellation,
//! revival, arrived-prefetch promotion, allocation hints, eager-mode
//! reference holding, diagnostics, and the tracking-overhead model.

use capuchin_executor::{AccessEvent, Engine, EngineConfig, ExecMode, MemoryPolicy, TfOri};
use capuchin_graph::{build_backward, Graph, ValueId};
use capuchin_sim::{DeviceSpec, Duration};
use capuchin_tensor::{AccessKind, DType, Shape, TensorKey, TensorStatus};

fn tiny_cnn() -> Graph {
    let mut g = Graph::new("tiny");
    let x = g.input("x", Shape::nchw(4, 3, 16, 16), DType::F32);
    let labels = g.input("labels", Shape::vector(4), DType::I32);
    let c = g.conv2d("conv1", x, 8, 3, 1, 1);
    let b = g.batch_norm("bn1", c);
    let r = g.relu("relu1", b);
    let p = g.max_pool("pool1", r, 2, 2, 0);
    let gap = g.global_avg_pool("gap", p);
    let fc = g.dense("fc", gap, 10);
    let loss = g.softmax_cross_entropy("loss", fc, labels);
    build_backward(&mut g, loss);
    g
}

fn value_named(g: &Graph, name: &str) -> ValueId {
    g.values()
        .iter()
        .find(|v| v.name == name)
        .expect("value")
        .id
}

/// Swap out at produce, prefetch at the next access of a *different*
/// tensor, then cancel the prefetch immediately: the tensor must revert to
/// `Out` with its host copy intact, and the back-access must recover it on
/// demand.
struct CancelProbe {
    target: TensorKey,
    cancelled: bool,
}

impl MemoryPolicy for CancelProbe {
    fn name(&self) -> &str {
        "cancel-probe"
    }
    fn post_access(&mut self, eng: &mut Engine<'_>, ev: &AccessEvent) {
        if ev.key == self.target && ev.kind == AccessKind::Produce {
            assert!(eng.swap_out_async(self.target, ev.end));
        }
        // At some later access, prefetch then immediately cancel.
        if !self.cancelled
            && ev.key != self.target
            && eng
                .registry()
                .get(self.target)
                .map(|t| t.status == TensorStatus::Out)
                .unwrap_or(false)
        {
            assert!(eng.swap_in_async(self.target, ev.start).unwrap());
            let st = eng.registry().get(self.target).unwrap().status;
            assert_eq!(st, TensorStatus::SwappingIn);
            assert!(eng.cancel_swap_in(self.target));
            let t = eng.registry().get(self.target).unwrap();
            assert_eq!(t.status, TensorStatus::Out);
            assert!(t.host.is_some(), "host copy must survive cancellation");
            assert!(t.device.is_none(), "device buffer must be released");
            self.cancelled = true;
        }
    }
}

#[test]
fn cancelled_prefetch_recovers_on_demand() {
    let g = tiny_cnn();
    let relu = Engine::key_of(value_named(&g, "relu1/out"));
    let mut eng = Engine::new(
        &g,
        EngineConfig::default(),
        Box::new(CancelProbe {
            target: relu,
            cancelled: false,
        }),
    );
    let stats = eng.run(2).expect("cancellation is recoverable");
    // The back-access paged it in on demand after the cancel.
    assert!(stats.iters[1].swap_in_bytes > 0);
}

#[test]
fn cancel_refuses_non_swapping_tensors() {
    struct P {
        key: TensorKey,
    }
    impl MemoryPolicy for P {
        fn name(&self) -> &str {
            "p"
        }
        fn post_access(&mut self, eng: &mut Engine<'_>, ev: &AccessEvent) {
            if ev.key == self.key && ev.kind == AccessKind::Produce {
                assert!(!eng.cancel_swap_in(self.key), "nothing to cancel");
            }
        }
    }
    let g = tiny_cnn();
    let relu = Engine::key_of(value_named(&g, "relu1/out"));
    let mut eng = Engine::new(&g, EngineConfig::default(), Box::new(P { key: relu }));
    eng.run(1).unwrap();
}

#[test]
fn tracking_overhead_scales_iteration_time() {
    let g = tiny_cnn();
    let base = {
        let mut eng = Engine::new(&g, EngineConfig::default(), Box::new(TfOri::new()));
        eng.run(2).unwrap().iters[1].wall()
    };
    let cfg = EngineConfig {
        tracking_overhead: Duration::from_micros(50),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&g, cfg, Box::new(TfOri::new()));
    let tracked = eng.run(2).unwrap().iters[1].wall();
    assert!(
        tracked > base,
        "tracking must cost time: {tracked} vs {base}"
    );
    // Roughly accesses * 50us.
    let accesses = eng.iter_stats().accesses;
    let delta = tracked.as_micros_f64() - base.as_micros_f64();
    let expected = accesses as f64 * 50.0;
    assert!(
        (delta - expected).abs() < expected * 0.2,
        "delta {delta:.0}us vs expected {expected:.0}us"
    );
}

#[test]
fn eager_holds_forward_dead_activations() {
    let g = tiny_cnn();
    let cfg = EngineConfig {
        mode: ExecMode::eager_default(),
        ..EngineConfig::default()
    };
    // bn1/out dies in forward (relu reads it; its grad reads conv out) —
    // under eager it must stay resident (interpreter-held) through the
    // whole iteration, raising the peak.
    let eager_peak = {
        let mut eng = Engine::new(&g, cfg, Box::new(TfOri::new()));
        eng.run(2).unwrap().iters[1].peak_mem
    };
    let graph_peak = {
        let mut eng = Engine::new(&g, EngineConfig::default(), Box::new(TfOri::new()));
        eng.run(2).unwrap().iters[1].peak_mem
    };
    assert!(
        eager_peak > graph_peak,
        "eager {eager_peak} must exceed graph {graph_peak}"
    );
}

#[test]
fn eager_held_tensors_refuse_eviction() {
    struct TryEvictHeld;
    impl MemoryPolicy for TryEvictHeld {
        fn name(&self) -> &str {
            "try-evict-held"
        }
        fn post_access(&mut self, eng: &mut Engine<'_>, ev: &AccessEvent) {
            // Find any interp-held resident tensor and confirm services
            // refuse it.
            let held: Vec<TensorKey> = eng
                .registry()
                .iter()
                .filter(|t| t.device.is_some() && eng.is_interp_held(t.key()))
                .map(|t| t.key())
                .collect();
            for key in held {
                assert!(!eng.swap_out_async(key, ev.end));
                assert!(!eng.release_for_recompute_at(key, ev.end));
            }
        }
    }
    let g = tiny_cnn();
    let cfg = EngineConfig {
        mode: ExecMode::eager_default(),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&g, cfg, Box::new(TryEvictHeld));
    eng.run(2).unwrap();
}

#[test]
fn key_value_roundtrip() {
    let g = tiny_cnn();
    for v in g.values() {
        assert_eq!(Engine::value_of(Engine::key_of(v.id)), v.id);
    }
}

#[test]
fn eager_dispatch_overhead_binds_small_kernels() {
    // With tiny kernels, eager iteration time approaches
    // ops * dispatch_overhead.
    let g = tiny_cnn();
    let slow_dispatch = EngineConfig {
        mode: ExecMode::Eager {
            dispatch_overhead: Duration::from_millis(1),
        },
        spec: DeviceSpec::p100_pcie3(),
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&g, slow_dispatch, Box::new(TfOri::new()));
    let stats = eng.run(2).unwrap();
    let wall = stats.iters[1].wall().as_millis_f64();
    let kernels = stats.iters[1].kernels as f64;
    assert!(
        wall >= kernels * 1.0 * 0.9,
        "dispatch-bound: {wall:.1}ms for {kernels} kernels"
    );
}

#[test]
fn iteration_stats_are_internally_consistent() {
    let g = tiny_cnn();
    let mut eng = Engine::new(&g, EngineConfig::default(), Box::new(TfOri::new()));
    let stats = eng.run(3).unwrap();
    for it in &stats.iters {
        assert!(it.ended_at >= it.started_at);
        assert!(it.kernels > 0);
        assert!(it.accesses >= it.kernels, "every kernel touches tensors");
        assert_eq!(it.swap_out_bytes, 0);
        assert_eq!(it.stall_time.as_nanos(), 0);
        assert!(it.peak_mem > 0);
    }
    // Wall time never shorter than total kernel work / (any overlap):
    // with one compute stream, wall >= sum of kernel durations is not
    // directly exposed, but wall must exceed zero and grow with batch.
    assert!(stats.iters[1].wall() > Duration::ZERO);
}
