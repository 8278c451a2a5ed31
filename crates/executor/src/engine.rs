//! The dataflow execution engine.
//!
//! [`Engine`] runs a training graph against the simulated GPU, one
//! iteration at a time, mediating every byte of device memory through the
//! BFC allocator and every tensor access through the active
//! [`MemoryPolicy`]. It provides the two framework services the paper
//! requires (§5.1): instrumented tensor accesses with lineage (the
//! *Executor* side) and `SwapOut`/`SwapIn` (the *Allocator* side), plus
//! on-the-fly lineage-based recomputation.
//!
//! Timing discipline: the engine's notion of "now" is the compute stream's
//! `busy_until`. Proactive swap-outs free memory via *deferred frees* that
//! mature when the copy completes on the copy-out stream; an allocation
//! that fails first drains matured frees, then synchronizes the compute
//! stream to the earliest pending free ("delay sync when OOM", Fig. 7),
//! and only then consults the policy.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

use capuchin_graph::{
    kernel_cost, pick_conv_algo, Graph, Op, OpId, OpKind, Phase, ValueId, ValueKind,
};
use capuchin_mem::{Allocation, DeviceAllocator, HostAllocId, HostPool};
use capuchin_sim::{
    CopyDir, DeviceSpec, Duration, Event, Gpu, Time, Trace, TransferRecord, TransferRequest,
};
use capuchin_tensor::{
    sig, AccessKind, OpHandle, TensorAccess, TensorKey, TensorMeta, TensorRegistry, TensorStatus,
};

use crate::error::ExecError;
use crate::policy::{AccessEvent, MemoryPolicy};
use crate::stats::{IterStats, RunStats};

/// How the framework schedules ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Declarative graph execution: the host enqueues kernels ahead of the
    /// device with negligible per-op cost, and graph-level optimizations
    /// (in-place gradient buffers) are applied.
    Graph,
    /// Imperative eager execution: each op pays a host dispatch overhead
    /// (Python interpretation, kernel selection) and no graph-level
    /// optimizations apply — in particular, intermediate activations whose
    /// last computational use has passed remain referenced by interpreter
    /// locals and the gradient tape until the training step returns, so
    /// their memory is unreclaimable mid-iteration (the reason TF eager
    /// fits far smaller batches, paper §6.4.1).
    Eager {
        /// Host-side cost to dispatch one op.
        dispatch_overhead: Duration,
    },
}

impl ExecMode {
    /// Eager mode with a representative 25 µs per-op dispatch cost.
    pub fn eager_default() -> ExecMode {
        ExecMode::Eager {
            dispatch_overhead: Duration::from_micros(25),
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated device.
    pub spec: DeviceSpec,
    /// Graph or eager scheduling.
    pub mode: ExecMode,
    /// Record a full kernel/copy timeline.
    pub trace: bool,
    /// Override the in-place gradient-buffer optimization (defaults to on
    /// in graph mode, off in eager mode, matching TF).
    pub inplace_grad: Option<bool>,
    /// Host-side bookkeeping cost charged per recorded tensor access,
    /// modeling the runtime-tracking overhead of an active memory manager
    /// (paper §6.3.2 measures <1% in graph mode, 1.5–2.5% in eager mode).
    pub tracking_overhead: Duration,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            spec: DeviceSpec::p100_pcie3(),
            mode: ExecMode::Graph,
            trace: false,
            inplace_grad: None,
            tracking_overhead: Duration::ZERO,
        }
    }
}

impl EngineConfig {
    /// Default configuration against an explicit device — the common
    /// setup for callers (benchmarks, the cluster scheduler) that build
    /// many engines over the same device description.
    pub fn for_device(spec: DeviceSpec) -> EngineConfig {
        EngineConfig {
            spec,
            ..EngineConfig::default()
        }
    }
}

/// A deferred memory action, executed when the simulation clock passes
/// its maturity time.
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // "Free" is the operation, not noise
enum Deferred {
    /// Release a tensor's device memory and move it to `to`
    /// (`Out` after a swap-out, `Recompute` for releases and dead frees).
    FreeTensor {
        key: TensorKey,
        to: TensorStatus,
        epoch: u64,
        also_host: bool,
    },
    /// Release a convolution workspace.
    FreeWorkspace(Allocation),
    /// Release a host staging buffer.
    FreeHost(HostAllocId),
    /// Release a tensor's host staging buffer once its swap-in completes —
    /// guarded by the tensor's free epoch so a cancelled prefetch keeps
    /// its host copy.
    FreeTensorHost { key: TensorKey, epoch: u64 },
}

#[derive(Debug)]
struct PendingFree {
    at: Time,
    seq: u64,
    action: Deferred,
}

impl PartialEq for PendingFree {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingFree {}
impl PartialOrd for PendingFree {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingFree {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The training executor.
///
/// # Examples
///
/// ```
/// use capuchin_executor::{Engine, EngineConfig, TfOri};
/// use capuchin_graph::Graph;
/// use capuchin_tensor::{DType, Shape};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new("mlp");
/// let x = g.input("x", Shape::matrix(8, 32), DType::F32);
/// let labels = g.input("labels", Shape::vector(8), DType::I32);
/// let h = g.dense("fc1", x, 64);
/// let h = g.relu("relu", h);
/// let logits = g.dense("fc2", h, 10);
/// let loss = g.softmax_cross_entropy("loss", logits, labels);
/// capuchin_graph::build_backward(&mut g, loss);
///
/// let mut engine = Engine::new(&g, EngineConfig::default(), Box::new(TfOri::new()));
/// let stats = engine.run(3)?;
/// assert_eq!(stats.iters.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Engine<'g> {
    graph: &'g Graph,
    spec: DeviceSpec,
    mode: ExecMode,
    inplace_grad: bool,
    tracking_overhead: Duration,

    gpu: Gpu,
    dev: DeviceAllocator,
    host: HostPool,
    reg: TensorRegistry,
    policy: Option<Box<dyn MemoryPolicy>>,

    remaining_uses: Vec<u32>,
    pending: BinaryHeap<Reverse<PendingFree>>,
    /// Per-tensor free epochs, indexed by key (absent = 0): a deferred
    /// free carries the epoch it was scheduled at and is void once the
    /// tensor's epoch moves on.
    free_epoch: Vec<u64>,
    pinned: Vec<TensorKey>,

    access_log: Vec<TensorAccess>,

    host_clock: Time,
    stall_cum: Duration,
    swapin_waits: BTreeMap<TensorKey, Duration>,
    iter_transfers: Vec<Vec<TransferRecord>>,
    in_alloc_failure: bool,
    /// The op being issued, and the one whose allocation set this
    /// iteration's peak (named in [`IterStats::peak_op`] at iteration
    /// end).
    current_op: Option<OpId>,
    peak_op: Option<OpId>,
    op_seq: u64,
    /// Dead tensors whose buffers the interpreter still references (eager
    /// mode): unevictable and unreclaimable until the iteration ends.
    interp_held: std::collections::HashSet<TensorKey>,
    /// Tensors placed at the top of the arena: in eager mode, the
    /// forward-only intermediates that will sit unreclaimable until the
    /// step ends, kept out of the main pool so it stays coalescible.
    alloc_top_hints: std::collections::HashSet<TensorKey>,
    in_recompute: u32,
    seq: u64,
    iter: u64,
    iter_next: u64,
    weights_done: bool,
    iter_stats: IterStats,
}

impl std::fmt::Debug for dyn MemoryPolicy + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryPolicy({})", self.name())
    }
}

/// Host staging pool capacity in bytes.
const HOST_CAPACITY: u64 = 256 << 30;

impl<'g> Engine<'g> {
    /// Creates an engine for `graph` with the given device and policy.
    pub fn new(graph: &'g Graph, cfg: EngineConfig, policy: Box<dyn MemoryPolicy>) -> Engine<'g> {
        let mut gpu = Gpu::new(cfg.spec.clone());
        if cfg.trace {
            gpu.enable_trace();
        }
        let inplace_default = matches!(cfg.mode, ExecMode::Graph);
        // Eager mode: activations never read by the backward pass will sit
        // interpreter-held and unreclaimable until the step ends; placing
        // them at the top of the arena keeps the reusable pool coalescible
        // (real allocators segregate pools the same way).
        let mut alloc_top_hints = std::collections::HashSet::new();
        let mut reserved = 0u64;
        if matches!(cfg.mode, ExecMode::Eager { .. }) {
            for v in graph.values() {
                if v.kind == ValueKind::Activation
                    && !graph
                        .consumers(v.id)
                        .iter()
                        .any(|&o| graph.phase(o) == Phase::Backward)
                {
                    alloc_top_hints.insert(Self::key_of(v.id));
                    reserved +=
                        v.size_bytes().div_ceil(capuchin_mem::ALIGNMENT) * capuchin_mem::ALIGNMENT;
                }
            }
            // Cap the reservation so a pathological graph cannot starve
            // the working pool entirely.
            reserved = reserved.min(cfg.spec.memory_bytes * 9 / 10);
        }
        Engine {
            graph,
            spec: cfg.spec.clone(),
            mode: cfg.mode,
            inplace_grad: cfg.inplace_grad.unwrap_or(inplace_default),
            tracking_overhead: cfg.tracking_overhead,
            gpu,
            dev: DeviceAllocator::with_reserved(cfg.spec.memory_bytes, reserved),
            host: HostPool::new(HOST_CAPACITY),
            reg: TensorRegistry::new(),
            policy: Some(policy),
            remaining_uses: Vec::new(),
            pending: BinaryHeap::new(),
            free_epoch: Vec::new(),
            pinned: Vec::new(),
            access_log: Vec::new(),
            host_clock: Time::ZERO,
            stall_cum: Duration::ZERO,
            swapin_waits: BTreeMap::new(),
            iter_transfers: Vec::new(),
            in_alloc_failure: false,
            current_op: None,
            peak_op: None,
            op_seq: 0,
            interp_held: std::collections::HashSet::new(),
            alloc_top_hints,
            in_recompute: 0,
            seq: 0,
            iter: 0,
            iter_next: 0,
            weights_done: false,
            iter_stats: IterStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors (also the policy-facing read API)
    // ------------------------------------------------------------------

    /// The graph being executed.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current GPU-timeline time (compute stream head).
    pub fn now(&self) -> Time {
        self.gpu.compute().busy_until()
    }

    /// The device allocator (read-only).
    pub fn device(&self) -> &DeviceAllocator {
        &self.dev
    }

    /// The live tensor registry.
    pub fn registry(&self) -> &TensorRegistry {
        &self.reg
    }

    /// The current iteration's access log so far.
    pub fn access_log(&self) -> &[TensorAccess] {
        &self.access_log
    }

    /// Tensors pinned by the op currently being issued; the policy must
    /// not evict these.
    pub fn pinned(&self) -> &[TensorKey] {
        &self.pinned
    }

    /// Statistics of the in-progress iteration.
    pub fn iter_stats(&self) -> &IterStats {
        &self.iter_stats
    }

    /// Cumulative memory-management stall so far (whole run).
    pub fn stall_total(&self) -> Duration {
        self.stall_cum
    }

    /// Per-tensor wait time charged to late prefetches this iteration —
    /// the feedback signal for in-trigger adjustment. Ordered (`BTreeMap`)
    /// so downstream consumers serialize deterministically.
    pub fn swapin_waits(&self) -> &BTreeMap<TensorKey, Duration> {
        &self.swapin_waits
    }

    /// The unified per-transfer timeline of each completed iteration:
    /// `iter_transfers()[i]` holds every [`TransferRecord`] (swap-outs,
    /// evictions, prefetches, on-demand swap-ins) iteration `i` submitted,
    /// in submission order. The cluster replays these through the shared
    /// fabric at per-tensor granularity.
    pub fn iter_transfers(&self) -> &[Vec<TransferRecord>] {
        &self.iter_transfers
    }

    /// Takes the recorded timeline trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.gpu.take_trace()
    }

    /// Whether the eager interpreter still references this (dead) tensor.
    pub fn is_interp_held(&self, key: TensorKey) -> bool {
        self.interp_held.contains(&key)
    }

    /// The active policy (for post-run inspection via
    /// [`MemoryPolicy::as_any`]).
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside a policy callback.
    pub fn policy(&self) -> &dyn MemoryPolicy {
        self.policy.as_deref().expect("policy checked out")
    }

    /// Maps a graph value to its stable tensor key.
    pub fn key_of(v: ValueId) -> TensorKey {
        TensorKey(u64::from(v.0))
    }

    /// Maps a tensor key back to its graph value.
    pub fn value_of(key: TensorKey) -> ValueId {
        ValueId(key.0 as u32)
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Executes `iterations` training iterations.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Oom`] when memory runs out and the policy
    /// cannot recover — this is the condition that defines the maximum
    /// batch size in the paper's Tables 2 and 3.
    pub fn run(&mut self, iterations: u64) -> Result<RunStats, ExecError> {
        let mut stats = RunStats {
            iters: Vec::with_capacity(iterations as usize),
            batch: 0,
        };
        for _ in 0..iterations {
            let i = self.iter_next;
            self.exec_iteration(i)?;
            self.iter_next += 1;
            stats.iters.push(self.iter_stats.clone());
        }
        Ok(stats)
    }

    fn exec_iteration(&mut self, iter: u64) -> Result<(), ExecError> {
        self.iter = iter;
        let started_at = self.gpu.quiescent_at();
        // Inter-iteration synchronization: the session waits for all
        // outstanding work before returning the step.
        self.gpu.sync_compute_until(started_at);
        self.drain_matured(started_at);
        self.host_clock = self.host_clock.max(started_at);

        self.iter_stats = IterStats {
            iter,
            started_at,
            peak_mem: self.dev.in_use(),
            ..IterStats::default()
        };
        self.peak_op = None;
        // Transfers left behind by an iteration that failed part-way
        // belong to no iteration's stats; drop them so each entry of
        // `iter_transfers` matches its iteration's swap bytes.
        self.gpu.drain_transfers();
        self.access_log.clear();
        self.swapin_waits.clear();
        self.reg.reset_access_counts();
        self.remaining_uses = self
            .graph
            .values()
            .iter()
            .map(|v| self.graph.consumers(v.id).len() as u32)
            .collect();

        self.with_policy(|policy, eng| policy.on_iteration_start(eng, iter));

        // Variables are initialized before training begins (TF runs the
        // variable-init graph first): materialize all weights up-front so
        // they sit compactly at the bottom of the arena instead of
        // fragmenting it mid-iteration. They persist afterwards.
        let graph = self.graph;
        let is_weight = |op_id: OpId| matches!(graph.op(op_id).kind, OpKind::Weight);
        if !self.weights_done {
            for op_id in graph.schedule().filter(|&o| is_weight(o)) {
                self.exec_op(op_id)?;
            }
            self.weights_done = true;
        }
        for op_id in graph.schedule().filter(|&o| !is_weight(o)) {
            self.exec_op(op_id)?;
        }

        // End of iteration: drain everything and drop non-persistent state.
        let ended_at = self.gpu.quiescent_at();
        self.gpu.sync_compute_until(ended_at);
        self.drain_matured(ended_at);
        self.iter_stats.ended_at = ended_at;
        if let Some(op) = self.peak_op {
            self.iter_stats.peak_op = self.graph.op(op).name.clone();
        }

        self.with_policy(|policy, eng| policy.on_iteration_end(eng, iter));

        self.interp_held.clear();
        self.sweep_iteration_state();
        let transfers = self.gpu.drain_transfers();
        self.iter_transfers.push(transfers);
        Ok(())
    }

    /// Frees all non-persistent tensors and verifies accounting.
    fn sweep_iteration_state(&mut self) {
        let keys: Vec<TensorKey> = self.reg.iter().map(|t| t.key()).collect();
        for key in keys {
            let t = self.reg.get_mut(key).expect("key just listed");
            if t.meta.persistent {
                continue;
            }
            if let Some(alloc) = t.device.take() {
                self.dev.free(alloc).expect("live allocation");
            }
            if let Some(buf) = t.host.take() {
                self.host.free(buf);
            }
        }
        self.reg.retain_persistent();
        self.free_epoch.clear();
        let resident: u64 = self
            .reg
            .iter()
            .filter_map(|t| t.device.as_ref().map(|a| a.size()))
            .sum();
        debug_assert_eq!(
            self.dev.in_use(),
            resident,
            "device accounting mismatch at iteration end"
        );
        debug_assert_eq!(self.host.in_use(), 0, "host staging leak at iteration end");
    }

    // ------------------------------------------------------------------
    // Op execution
    // ------------------------------------------------------------------

    fn exec_op(&mut self, op_id: OpId) -> Result<(), ExecError> {
        let graph = self.graph;
        let op = graph.op(op_id);
        self.current_op = Some(op_id);
        self.pinned.clear();
        self.pinned
            .extend(op.inputs.iter().map(|&v| Self::key_of(v)));
        self.pinned
            .extend(op.outputs.iter().map(|&v| Self::key_of(v)));

        // 1. Bring inputs on-device (may swap in or recompute).
        let mut deps = Event::COMPLETED;
        for &v in &op.inputs {
            let ev = self.ensure_resident(v)?;
            deps = deps.join(ev);
        }

        // 2. Convolution algorithm choice under current free memory.
        self.drain_matured(self.now());
        let mut speed = 1.0;
        let mut workspace = None;
        if matches!(
            op.kind,
            OpKind::Conv2d(_) | OpKind::Conv2dBackpropInput(_) | OpKind::Conv2dBackpropFilter(_)
        ) {
            let algo = pick_conv_algo(graph, op, self.dev.largest_free());
            if algo.workspace_bytes == 0 {
                speed = algo.speed_factor;
            } else if let Ok(ws) = self.dev.alloc(algo.workspace_bytes) {
                self.note_peak();
                workspace = Some(ws);
                speed = algo.speed_factor;
            }
        }

        // 3. Allocate outputs, possibly reusing a dying gradient buffer.
        let inplace_src = self.inplace_candidate(op);
        let mut out_allocs = Vec::with_capacity(op.outputs.len());
        for (i, &out) in op.outputs.iter().enumerate() {
            let size = self.graph.value(out).size_bytes();
            if i == 0 {
                if let Some(src) = inplace_src {
                    let src_t = self.reg.get_mut(Self::key_of(src)).expect("inplace source");
                    let alloc = src_t.device.take().expect("inplace source resident");
                    src_t.status = TensorStatus::Recompute;
                    out_allocs.push(alloc);
                    continue;
                }
            }
            if self.alloc_top_hints.contains(&Self::key_of(out)) {
                self.drain_matured(self.now());
                if let Ok(a) = self.dev.alloc_high(size) {
                    self.note_peak();
                    out_allocs.push(a);
                    continue;
                }
                // Reserved pool exhausted: fall through to the main pool.
            }
            out_allocs.push(self.alloc_device(size, &op.name, true)?);
        }

        // 4. Schedule the kernel.
        let cost = kernel_cost(graph, op);
        let mut dur = cost.duration_on(&self.spec).mul_f64(speed);
        // Tracking instrumentation sits on the launch critical path: each
        // recorded access charges its bookkeeping to the kernel.
        if self.tracking_overhead > Duration::ZERO {
            let accesses = (op.inputs.len() + op.outputs.len()) as f64;
            dur += self.tracking_overhead.mul_f64(accesses);
        }
        let mut earliest = deps.time();
        if let ExecMode::Eager {
            dispatch_overhead, ..
        } = self.mode
        {
            self.host_clock += dispatch_overhead;
            earliest = earliest.max(self.host_clock);
        }
        let enq = self
            .gpu
            .launch_kernel_raw(&op.name, dur, Event::at(earliest));
        self.iter_stats.kernels += 1;

        // 5. Record input accesses (at kernel start), then output produces
        //    (at kernel end), firing the policy after each.
        for &v in &op.inputs {
            let ev =
                self.record_access(Self::key_of(v), AccessKind::Read, enq.start, enq.end, op_id);
            self.fire_post_access(ev);
        }
        let input_sigs: Vec<u64> = op
            .inputs
            .iter()
            .map(|&v| self.reg.get(Self::key_of(v)).expect("input live").signature)
            .collect();
        for (i, (&out, alloc)) in op.outputs.iter().zip(out_allocs).enumerate() {
            let signature = sig::op(op.kind.tag(), op.kind.attr_hash(), i, &input_sigs);
            let t = self.materialize(out, op, signature);
            t.device = Some(alloc);
            t.status = TensorStatus::In;
            t.ready_at = enq.end;
            let ev = self.record_access(
                Self::key_of(out),
                AccessKind::Produce,
                enq.end,
                enq.end,
                op_id,
            );
            self.fire_post_access(ev);
        }

        // 6. ApplyGradient mutates its weight in place.
        if matches!(op.kind, OpKind::ApplyGradient) {
            let w = self
                .reg
                .get_mut(Self::key_of(op.inputs[0]))
                .expect("weight live");
            w.signature = sig::op("apply_gradient", 0, 0, &input_sigs);
        }

        // 7. Workspace and dead-tensor releases mature at kernel end.
        if let Some(ws) = workspace {
            self.schedule(enq.end, Deferred::FreeWorkspace(ws));
        }
        self.decrement_uses(op, enq.end);
        Ok(())
    }

    fn decrement_uses(&mut self, op: &Op, at: Time) {
        for &v in &op.inputs {
            let uses = &mut self.remaining_uses[v.0 as usize];
            *uses = uses.saturating_sub(1);
        }
        // A value is dead once no scheduled op will read it again.
        self.op_seq += 1;
        let eager = matches!(self.mode, ExecMode::Eager { .. });
        for &v in op.inputs.iter().chain(op.outputs.iter()) {
            if self.remaining_uses[v.0 as usize] == 0 {
                let key = Self::key_of(v);
                let Some(t) = self.reg.get(key) else { continue };
                if t.meta.persistent || !t.on_device() && t.host.is_none() {
                    continue;
                }
                // Eager: an activation whose last use is *within the
                // forward pass* (e.g. a pre-activation BN output) is still
                // referenced by interpreter locals until the step returns,
                // so its buffer cannot be reclaimed or swapped. Tensors
                // dying in the backward pass are released by autograd as
                // usual.
                if eager
                    && self.graph.value(v).kind == ValueKind::Activation
                    && self.graph.phase(op.id) == Phase::Forward
                {
                    self.interp_held.insert(key);
                    continue;
                }
                let epoch = self.bump_epoch(key);
                self.schedule(
                    at,
                    Deferred::FreeTensor {
                        key,
                        to: TensorStatus::Recompute,
                        epoch,
                        also_host: true,
                    },
                );
            }
        }
    }

    /// Detects an in-place opportunity: a backward elementwise op whose
    /// incoming-gradient operand dies at this op can write its output into
    /// that operand's buffer (TF's graph-mode buffer forwarding).
    fn inplace_candidate(&self, op: &Op) -> Option<ValueId> {
        if !self.inplace_grad || self.graph.phase(op.id) != Phase::Backward {
            return None;
        }
        let dy_index = match op.kind {
            OpKind::ReluGrad | OpKind::SoftmaxGrad | OpKind::GeluGrad => 1,
            OpKind::DropoutGrad { .. } | OpKind::ScalarMul { .. } | OpKind::AddN => 0,
            _ => return None,
        };
        let src = *op.inputs.get(dy_index)?;
        let out = *op.outputs.first()?;
        if self.graph.value(src).size_bytes() != self.graph.value(out).size_bytes() {
            return None;
        }
        if self.remaining_uses[src.0 as usize] != 1 {
            return None;
        }
        let t = self.reg.get(Self::key_of(src))?;
        if t.meta.persistent
            || t.status != TensorStatus::In
            || t.device.is_none()
            || t.host.is_some()
        {
            return None;
        }
        Some(src)
    }

    fn materialize(&mut self, v: ValueId, op: &Op, signature: u64) -> &mut capuchin_tensor::Tensor {
        let key = Self::key_of(v);
        let value = self.graph.value(v);
        // Leaf signatures: inputs differ per iteration (a fresh batch),
        // weights are seeded once and evolve through ApplyGradient.
        let signature = match op.kind {
            OpKind::Input => sig::leaf(&value.name, self.iter),
            OpKind::Weight => sig::leaf(&value.name, 0),
            _ => signature,
        };
        if self.reg.get(key).is_some() {
            // Re-produced (fresh iteration for inputs): refresh signature.
            let t = self.reg.get_mut(key).expect("just checked");
            t.signature = signature;
            return t;
        }
        let meta = TensorMeta {
            key,
            name: value.name.clone(),
            shape: value.shape.clone(),
            dtype: value.dtype,
            inputs: op.inputs.iter().map(|&i| Self::key_of(i)).collect(),
            op: Some(OpHandle(op.id.0)),
            op_name: op.name.clone(),
            persistent: value.kind == ValueKind::Weight,
            // Only forward-pass tensors may be regenerated by lineage
            // replay: weights are updated in place during the backward
            // pass, so replaying a backward op later can observe updated
            // weights and produce *different* data (our content signatures
            // catch exactly this). Forward activations are always replayed
            // before the weights they depend on are updated.
            recomputable: !op.kind.is_source() && self.graph.phase(op.id) == Phase::Forward,
        };
        self.reg.insert_new(meta, signature)
    }

    // ------------------------------------------------------------------
    // Residency
    // ------------------------------------------------------------------

    /// Guarantees `v` is (or will be) on-device, returning the event after
    /// which its contents are valid.
    fn ensure_resident(&mut self, v: ValueId) -> Result<Event, ExecError> {
        let key = Self::key_of(v);
        let status = {
            let t = self
                .reg
                .get(key)
                .unwrap_or_else(|| panic!("{} consumed before produced", self.graph.value(v).name));
            t.status
        };
        match status {
            TensorStatus::In | TensorStatus::SwappingOut => {
                let t = self.reg.get(key).expect("status just read");
                Ok(Event::at(t.ready_at))
            }
            TensorStatus::SwappingIn => {
                let ready = self.reg.get(key).expect("status just read").ready_at;
                let wait = ready.saturating_since(self.now());
                self.note_stall(wait);
                self.iter_stats.stall_swapin += wait;
                if wait > Duration::ZERO {
                    // Feedback signal: the prefetch was too late (paper
                    // §4.4, feedback-driven adjustment of the in-trigger).
                    let w = self.swapin_waits.entry(key).or_insert(Duration::ZERO);
                    *w += wait;
                }
                let t = self.reg.get_mut(key).expect("status just read");
                t.status = TensorStatus::In;
                Ok(Event::at(ready))
            }
            TensorStatus::Out => {
                // Access failure: on-demand swap-in, fully exposed.
                let size = self.reg.get(key).expect("status just read").size_bytes();
                let alloc = self.alloc_device(size, "swap-in", true)?;
                let now = self.now();
                let name = self.reg.get(key).expect("live").meta.name.clone();
                // On-demand: the blocked kernel needs the bytes *now*, so
                // the deadline is the submission instant itself.
                let copy = self.gpu.submit_transfer(TransferRequest {
                    label: format!("swapin:{name}"),
                    bytes: size,
                    dir: CopyDir::HostToDevice,
                    earliest: now,
                    deadline: Some(now),
                });
                self.iter_stats.swap_in_bytes += size;
                self.note_stall(copy.end.saturating_since(now));
                self.iter_stats.stall_swapin += copy.end.saturating_since(now);
                let epoch = self.bump_epoch(key);
                let t = self.reg.get_mut(key).expect("live");
                t.device = Some(alloc);
                t.status = TensorStatus::In;
                t.ready_at = copy.end;
                debug_assert!(t.host.is_some(), "swapped-out tensor has host copy");
                self.schedule(copy.end, Deferred::FreeTensorHost { key, epoch });
                Ok(Event::at(copy.end))
            }
            TensorStatus::Recompute => self.recompute(v),
        }
    }

    /// Regenerates `v` by replaying its producing op, recursively
    /// regenerating missing lineage inputs (paper §5.1: "on-the-fly
    /// lineage-based recomputation").
    fn recompute(&mut self, v: ValueId) -> Result<Event, ExecError> {
        let key = Self::key_of(v);
        {
            let t = self.reg.get(key).expect("recompute target registered");
            if !t.meta.recomputable {
                return Err(ExecError::RecomputeSourceLost {
                    tensor: t.meta.name.clone(),
                });
            }
        }
        let graph = self.graph;
        let op = graph.op(graph.value(v).producer);
        self.in_recompute += 1;
        let result = self.recompute_inner(v, op);
        self.in_recompute -= 1;
        result
    }

    fn recompute_inner(&mut self, v: ValueId, op: &Op) -> Result<Event, ExecError> {
        // Which inputs get regenerated as part of this recomputation
        // (collective-recomputation bookkeeping).
        let mut regenerated = Vec::new();
        let mut deps = Event::COMPLETED;
        for &inp in &op.inputs {
            let was_missing = self
                .reg
                .get(Self::key_of(inp))
                .map(|t| t.status == TensorStatus::Recompute)
                .unwrap_or(false);
            let ev = self.ensure_resident(inp)?;
            deps = deps.join(ev);
            if was_missing {
                regenerated.push(inp);
            }
        }

        // Allocate the target (and scratch for dead sibling outputs).
        let mut scratch = Vec::new();
        let mut target_alloc = None;
        for &out in &op.outputs {
            let okey = Self::key_of(out);
            if out == v {
                let size = self.graph.value(out).size_bytes();
                target_alloc = Some(self.alloc_device(size, "recompute", true)?);
            } else {
                let resident = self.reg.get(okey).map(|t| t.on_device()).unwrap_or(false);
                if !resident {
                    let size = self.graph.value(out).size_bytes();
                    scratch.push(self.alloc_device(size, "recompute-scratch", true)?);
                }
            }
        }

        let cost = kernel_cost(self.graph, op);
        let algo = pick_conv_algo(self.graph, op, self.dev.largest_free());
        let speed = if algo.workspace_bytes == 0 || self.dev.can_alloc(algo.workspace_bytes) {
            algo.speed_factor
        } else {
            1.0
        };
        let dur = cost.duration_on(&self.spec).mul_f64(speed);
        let enq = self
            .gpu
            .launch_kernel_raw(&format!("recompute:{}", op.name), dur, deps);
        self.iter_stats.kernels += 1;
        self.iter_stats.recompute_kernels += 1;
        self.iter_stats.recompute_time += dur;

        // Verify lineage replay reproduces identical contents.
        let input_sigs: Vec<u64> = op
            .inputs
            .iter()
            .map(|&i| self.reg.get(Self::key_of(i)).expect("input live").signature)
            .collect();
        let idx = op
            .outputs
            .iter()
            .position(|&o| o == v)
            .expect("target is output");
        let new_sig = sig::op(op.kind.tag(), op.kind.attr_hash(), idx, &input_sigs);
        let t = self.reg.get_mut(Self::key_of(v)).expect("target live");
        assert_eq!(
            new_sig, t.signature,
            "recomputation produced different contents for {}",
            t.meta.name
        );
        t.device = Some(target_alloc.expect("allocated above"));
        t.status = TensorStatus::In;
        t.ready_at = enq.end;

        for alloc in scratch {
            self.schedule(enq.end, Deferred::FreeWorkspace(alloc));
        }

        // Collective recomputation: keep regenerated intermediates the
        // policy asks for; release the rest at kernel end.
        let target_key = Self::key_of(v);
        for inp in regenerated {
            let ikey = Self::key_of(inp);
            let keep = self.with_policy(|policy, eng| {
                policy.keep_recompute_intermediate(eng, ikey, target_key)
            });
            if !keep {
                let epoch = self.bump_epoch(ikey);
                self.schedule(
                    enq.end,
                    Deferred::FreeTensor {
                        key: ikey,
                        to: TensorStatus::Recompute,
                        epoch,
                        also_host: false,
                    },
                );
            }
        }
        Ok(Event::at(enq.end))
    }

    // ------------------------------------------------------------------
    // Allocator front-end with deferred frees and policy recovery
    // ------------------------------------------------------------------

    fn alloc_device(
        &mut self,
        size: u64,
        what: &str,
        use_policy: bool,
    ) -> Result<Allocation, ExecError> {
        for _attempt in 0..100_000 {
            self.drain_matured(self.now());
            if let Ok(a) = self.dev.alloc(size) {
                self.note_peak();
                return Ok(a);
            }
            // Delay-sync: wait for the earliest pending device-freeing
            // action, then retry ("only synchronize the earliest
            // unfinished swapping-out when OOM occurs", §5.3).
            if let Some(t) = self.earliest_device_free() {
                let before = self.now();
                self.gpu.sync_compute_until(t);
                self.note_stall(self.now().saturating_since(before));
                self.iter_stats.stall_oom_sync += self.now().saturating_since(before);
                continue;
            }
            if use_policy {
                self.in_alloc_failure = true;
                let freed = self.with_policy(|policy, eng| policy.on_alloc_failure(eng, size));
                self.in_alloc_failure = false;
                if freed {
                    continue;
                }
            }
            break;
        }
        let source = self.dev.alloc(size).expect_err("allocation known to fail");
        let policy_name = self
            .policy
            .as_ref()
            .map(|p| p.name().to_owned())
            .unwrap_or_else(|| "<reentrant>".to_owned());
        Err(ExecError::Oom {
            op: what.to_owned(),
            policy: policy_name,
            source,
        })
    }

    fn earliest_device_free(&self) -> Option<Time> {
        // The heap is ordered, but entries may be host-only; scan lazily.
        self.pending
            .iter()
            .filter(|Reverse(p)| match &p.action {
                Deferred::FreeHost(_) | Deferred::FreeTensorHost { .. } => false,
                Deferred::FreeTensor { key, epoch, .. } => {
                    self.epoch_of(*key) == *epoch
                        && self
                            .reg
                            .get(*key)
                            .map(|t| t.device.is_some())
                            .unwrap_or(false)
                }
                Deferred::FreeWorkspace(_) => true,
            })
            .map(|Reverse(p)| p.at)
            .min()
    }

    fn schedule(&mut self, at: Time, action: Deferred) {
        self.seq += 1;
        self.pending.push(Reverse(PendingFree {
            at,
            seq: self.seq,
            action,
        }));
    }

    fn epoch_of(&self, key: TensorKey) -> u64 {
        self.free_epoch.get(key.0 as usize).copied().unwrap_or(0)
    }

    fn bump_epoch(&mut self, key: TensorKey) -> u64 {
        let slot = key.0 as usize;
        if slot >= self.free_epoch.len() {
            self.free_epoch.resize(slot + 1, 0);
        }
        self.free_epoch[slot] += 1;
        self.free_epoch[slot]
    }

    fn drain_matured(&mut self, now: Time) {
        while let Some(Reverse(head)) = self.pending.peek() {
            if head.at > now {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            match p.action {
                Deferred::FreeWorkspace(alloc) => {
                    self.dev.free(alloc).expect("workspace live");
                }
                Deferred::FreeHost(buf) => {
                    self.host.free(buf);
                }
                Deferred::FreeTensorHost { key, epoch } => {
                    if self.epoch_of(key) != epoch {
                        continue; // prefetch was cancelled: keep the copy
                    }
                    if let Some(t) = self.reg.get_mut(key) {
                        if let Some(buf) = t.host.take() {
                            self.host.free(buf);
                        }
                    }
                }
                Deferred::FreeTensor {
                    key,
                    to,
                    epoch,
                    also_host,
                } => {
                    if self.epoch_of(key) != epoch {
                        continue; // revived or superseded
                    }
                    let Some(t) = self.reg.get_mut(key) else {
                        continue;
                    };
                    if let Some(alloc) = t.device.take() {
                        self.dev.free(alloc).expect("tensor allocation live");
                    }
                    t.status = to;
                    if also_host {
                        if let Some(buf) = t.host.take() {
                            self.host.free(buf);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Policy-facing swap / release services (the Allocator extensions)
    // ------------------------------------------------------------------

    /// Proactively evicts `key`: starts an asynchronous device→host copy
    /// no earlier than `after`, releasing device memory when it completes
    /// (decoupled computation and swapping, paper §5.3).
    ///
    /// Returns `false` if the tensor is not currently evictable.
    pub fn swap_out_async(&mut self, key: TensorKey, after: Time) -> bool {
        if self.interp_held.contains(&key) {
            return false;
        }
        self.promote_if_arrived(key);
        let Some(t) = self.reg.get(key) else {
            return false;
        };
        if t.status != TensorStatus::In || t.meta.persistent || t.device.is_none() {
            return false;
        }
        let size = t.size_bytes();
        let ready = t.ready_at;
        let name = t.meta.name.clone();
        // Reuse an existing staging buffer (e.g. from a cancelled
        // prefetch) rather than leaking it.
        let buf = match t.host {
            Some(buf) => buf,
            None => match self.host.alloc(size) {
                Ok(buf) => buf,
                Err(_) => return false,
            },
        };
        let copy = self.gpu.submit_transfer(TransferRequest {
            label: format!("swapout:{name}"),
            bytes: size,
            dir: CopyDir::DeviceToHost,
            earliest: after.max(ready),
            deadline: None,
        });
        self.iter_stats.swap_out_bytes += size;
        let epoch = self.bump_epoch(key);
        let t = self.reg.get_mut(key).expect("checked live");
        t.status = TensorStatus::SwappingOut;
        t.host = Some(buf);
        t.swapout_done_at = Some(copy.end);
        self.schedule(
            copy.end,
            Deferred::FreeTensor {
                key,
                to: TensorStatus::Out,
                epoch,
                also_host: false,
            },
        );
        true
    }

    /// Synchronously evicts `key` (passive mode / measured execution):
    /// the compute stream blocks until the copy-out completes and the
    /// memory is free. Returns `false` if the tensor is not evictable or
    /// is pinned by the op being issued.
    pub fn swap_out_sync(&mut self, key: TensorKey) -> bool {
        let now = self.now();
        self.swap_out_coupled(key, now)
    }

    /// vDNN-style coupled offload: the copy-out may overlap the layer's
    /// own computation (it starts as soon as the tensor is ready and the
    /// lane is free, no earlier than `earliest`), but the compute stream
    /// then *synchronizes on its completion* — the next layer cannot start
    /// until the transfer finishes (paper Fig. 1/Fig. 7 left).
    pub fn swap_out_coupled(&mut self, key: TensorKey, earliest: Time) -> bool {
        if self.interp_held.contains(&key) {
            return false;
        }
        if self.in_alloc_failure && self.pinned.contains(&key) {
            return false;
        }
        self.promote_if_arrived(key);
        let Some(t) = self.reg.get(key) else {
            return false;
        };
        if t.status != TensorStatus::In || t.meta.persistent || t.device.is_none() {
            return false;
        }
        let size = t.size_bytes();
        let ready = t.ready_at;
        let name = t.meta.name.clone();
        let buf = match t.host {
            Some(buf) => buf,
            None => match self.host.alloc(size) {
                Ok(buf) => buf,
                Err(_) => return false,
            },
        };
        let start = earliest.max(ready);
        // Coupled offload: compute blocks on completion, so the transfer
        // is due the moment it can start.
        let copy = self.gpu.submit_transfer(TransferRequest {
            label: format!("evict:{name}"),
            bytes: size,
            dir: CopyDir::DeviceToHost,
            earliest: start,
            deadline: Some(start),
        });
        let before = self.now();
        self.gpu.sync_compute_until(copy.end);
        self.note_stall(self.now().saturating_since(before));
        self.iter_stats.swap_out_bytes += size;
        self.iter_stats.passive_evictions += 1;
        self.iter_stats.passive_evict_bytes += size;
        self.bump_epoch(key); // invalidate any outstanding frees
        let t = self.reg.get_mut(key).expect("checked live");
        let alloc = t.device.take().expect("checked device");
        t.status = TensorStatus::Out;
        t.host = Some(buf);
        self.dev.free(alloc).expect("tensor allocation live");
        true
    }

    /// Starts an asynchronous prefetch (swap-in) of `key`, no earlier than
    /// `earliest`. If the tensor is still swapping out, it is *revived* in
    /// place (the device copy is still valid) at zero cost.
    ///
    /// Returns `Ok(false)` if the tensor needs no prefetch (already
    /// resident or never swapped).
    ///
    /// # Errors
    ///
    /// Propagates allocation failure for the device buffer; the caller
    /// (the policy) decides how to recover.
    pub fn swap_in_async(&mut self, key: TensorKey, earliest: Time) -> Result<bool, ExecError> {
        let Some(t) = self.reg.get(key) else {
            return Ok(false);
        };
        match t.status {
            TensorStatus::SwappingOut => {
                // Revive: cancel the pending free, keep the host copy cost.
                self.bump_epoch(key);
                let done = self
                    .reg
                    .get(key)
                    .expect("live")
                    .swapout_done_at
                    .unwrap_or(earliest);
                let t = self.reg.get_mut(key).expect("live");
                t.status = TensorStatus::In;
                let buf = t.host.take();
                t.swapout_done_at = None;
                if let Some(buf) = buf {
                    self.schedule(done, Deferred::FreeHost(buf));
                }
                Ok(true)
            }
            TensorStatus::Out => {
                let size = self.reg.get(key).expect("live").size_bytes();
                let alloc = self.alloc_device(size, "prefetch", false)?;
                let name = self.reg.get(key).expect("live").meta.name.clone();
                let copy = self.gpu.submit_transfer(TransferRequest {
                    label: format!("prefetch:{name}"),
                    bytes: size,
                    dir: CopyDir::HostToDevice,
                    earliest,
                    deadline: None,
                });
                self.iter_stats.swap_in_bytes += size;
                let epoch = self.bump_epoch(key);
                let t = self.reg.get_mut(key).expect("live");
                t.device = Some(alloc);
                t.status = TensorStatus::SwappingIn;
                t.ready_at = copy.end;
                debug_assert!(t.host.is_some(), "out tensor has host copy");
                self.schedule(copy.end, Deferred::FreeTensorHost { key, epoch });
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Processes all deferred frees that have matured by the current
    /// simulation time (policies call this after immediate releases).
    pub fn process_matured_frees(&mut self) {
        self.drain_matured(self.now());
    }

    /// Completes a finished prefetch's state transition: a tensor whose
    /// copy-in has finished but which has not been read yet is effectively
    /// resident. Lazily promoting it makes it visible to eviction.
    fn promote_if_arrived(&mut self, key: TensorKey) {
        let now = self.now();
        if let Some(t) = self.reg.get_mut(key) {
            if t.status == TensorStatus::SwappingIn && t.ready_at <= now {
                t.status = TensorStatus::In;
            }
        }
    }

    /// Cancels an in-flight prefetch: the device buffer is released
    /// immediately and the tensor reverts to `Out`, keeping its host copy.
    /// A later access pages it back in on demand. Used by passive mode to
    /// un-wedge fragmentation caused by prefetch allocations.
    ///
    /// Returns `false` if the tensor is not in a cancellable state.
    pub fn cancel_swap_in(&mut self, key: TensorKey) -> bool {
        if self.in_alloc_failure && self.pinned.contains(&key) {
            return false;
        }
        let Some(t) = self.reg.get(key) else {
            return false;
        };
        if t.status != TensorStatus::SwappingIn || t.host.is_none() {
            return false;
        }
        self.bump_epoch(key); // voids the scheduled host-buffer free
        let t = self.reg.get_mut(key).expect("checked live");
        t.status = TensorStatus::Out;
        if let Some(alloc) = t.device.take() {
            self.dev.free(alloc).expect("prefetch allocation live");
        }
        true
    }

    /// Schedules `key` to be dropped for later recomputation, effective at
    /// `at` (typically the end of the access that made it evictable).
    ///
    /// Returns `false` if the tensor cannot be released.
    pub fn release_for_recompute_at(&mut self, key: TensorKey, at: Time) -> bool {
        if self.interp_held.contains(&key) {
            return false;
        }
        self.promote_if_arrived(key);
        let Some(t) = self.reg.get(key) else {
            return false;
        };
        if t.status != TensorStatus::In
            || t.meta.persistent
            || !t.meta.recomputable
            || t.device.is_none()
        {
            return false;
        }
        let epoch = self.bump_epoch(key);
        self.schedule(
            at,
            Deferred::FreeTensor {
                key,
                to: TensorStatus::Recompute,
                epoch,
                also_host: false,
            },
        );
        true
    }

    // ------------------------------------------------------------------
    // Bookkeeping helpers
    // ------------------------------------------------------------------

    fn record_access(
        &mut self,
        key: TensorKey,
        kind: AccessKind,
        start: Time,
        end: Time,
        op: OpId,
    ) -> AccessEvent {
        let t = self.reg.get_mut(key).expect("accessed tensor live");
        t.access_count += 1;
        t.last_access = start;
        let count = t.access_count;
        if self.in_recompute == 0 {
            self.access_log.push(TensorAccess {
                key,
                count,
                time: start,
                kind,
            });
            self.iter_stats.accesses += 1;
        }
        AccessEvent {
            key,
            count,
            kind,
            start,
            end,
            op,
        }
    }

    fn fire_post_access(&mut self, ev: AccessEvent) {
        if self.in_recompute > 0 {
            return; // internal accesses do not drive the policy
        }
        self.with_policy(|policy, eng| policy.post_access(eng, &ev));
    }

    fn with_policy<R>(
        &mut self,
        f: impl FnOnce(&mut Box<dyn MemoryPolicy>, &mut Engine<'g>) -> R,
    ) -> R
    where
        R: Default,
    {
        match self.policy.take() {
            Some(mut policy) => {
                let r = f(&mut policy, self);
                self.policy = Some(policy);
                r
            }
            None => R::default(), // re-entrant policy call: no-op
        }
    }

    fn note_stall(&mut self, d: Duration) {
        self.stall_cum += d;
        self.iter_stats.stall_time += d;
    }

    fn note_peak(&mut self) {
        if self.dev.in_use() > self.iter_stats.peak_mem {
            self.iter_stats.peak_mem = self.dev.in_use();
            self.peak_op = self.current_op;
        }
    }
}
