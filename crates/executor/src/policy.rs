//! The memory-policy hook interface.
//!
//! Capuchin needs exactly two integration points in a framework (paper
//! §5.1): instrumented tensor accesses in the *Executor* and
//! `SwapOut`/`SwapIn` in the *Allocator*. [`MemoryPolicy`] is that surface:
//! the engine reports accesses and allocation failures; the policy reacts
//! by invoking the engine's swap/release services
//! ([`Engine::swap_out_async`](crate::Engine::swap_out_async) and
//! friends). The original TensorFlow behaviour, vDNN, gradient
//! checkpointing, and Capuchin itself are all implementations of this one
//! trait.

use capuchin_graph::OpId;
use capuchin_sim::Time;
use capuchin_tensor::{AccessKind, TensorKey};

use crate::engine::Engine;

/// One instrumented tensor access, reported to the policy after the owning
/// kernel has been scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Which tensor.
    pub key: TensorKey,
    /// The tensor's access counter after this access (1 = produce).
    pub count: u32,
    /// Read or produce.
    pub kind: AccessKind,
    /// Kernel start on the GPU timeline (the access timestamp).
    pub start: Time,
    /// Kernel end; eviction of this tensor must not take effect earlier.
    pub end: Time,
    /// The op performing the access.
    pub op: OpId,
}

/// A pluggable GPU memory-management policy.
///
/// All methods have no-op defaults so a policy only implements the hooks it
/// needs; the no-op policy *is* original TensorFlow ([`TfOri`]).
pub trait MemoryPolicy {
    /// Short policy name for diagnostics and error messages.
    fn name(&self) -> &str;

    /// Downcast support for harnesses that inspect policy state (plans,
    /// profiles) after a run.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// A tensor access was recorded and its kernel scheduled. The policy
    /// may trigger proactive evictions or prefetches via the engine's
    /// services.
    fn post_access(&mut self, engine: &mut Engine<'_>, event: &AccessEvent) {
        let _ = (engine, event);
    }

    /// An output allocation of `need` bytes failed even after draining
    /// matured frees and synchronizing on pending swap-outs. Return `true`
    /// if the policy freed (or scheduled to free) memory and the engine
    /// should retry, `false` to declare the run out of memory.
    fn on_alloc_failure(&mut self, engine: &mut Engine<'_>, need: u64) -> bool {
        let _ = (engine, need);
        false
    }

    /// A new iteration is about to execute.
    fn on_iteration_start(&mut self, engine: &mut Engine<'_>, iter: u64) {
        let _ = (engine, iter);
    }

    /// An iteration finished; the engine's access log for the iteration is
    /// still available.
    fn on_iteration_end(&mut self, engine: &mut Engine<'_>, iter: u64) {
        let _ = (engine, iter);
    }

    /// During a recomputation that regenerates intermediate tensor `key`
    /// on the way to `target`: should the engine keep it resident
    /// ("collective recomputation", paper §5.3) rather than dropping it
    /// again right after use?
    fn keep_recompute_intermediate(
        &mut self,
        engine: &Engine<'_>,
        key: TensorKey,
        target: TensorKey,
    ) -> bool {
        let _ = (engine, key, target);
        false
    }
}

/// Original TensorFlow: no memory management beyond the allocator. Any
/// allocation failure is fatal, which defines the TF-ori maximum batch
/// size in Tables 2 and 3.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfOri;

impl TfOri {
    /// Creates the no-op policy.
    pub fn new() -> TfOri {
        TfOri
    }
}

impl MemoryPolicy for TfOri {
    fn name(&self) -> &str {
        "tf-ori"
    }
}
