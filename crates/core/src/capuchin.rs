//! The Capuchin memory policy: passive mode, measured execution, policy
//! making, and guided execution with feedback.
//!
//! Lifecycle over training iterations (paper §4.2):
//!
//! * **iteration 0** — warm-up: weights materialize; passive mode handles
//!   any OOM (on-demand synchronous eviction, Fig. 6);
//! * **iteration 1** — *measured execution*: still passive, but every
//!   tensor access is recorded with ideal timestamps and lineage;
//! * **end of iteration 1** — the Policy Maker turns the profile into a
//!   [`Plan`] (FT-ranked swaps, then the hybrid swap/recompute phase);
//! * **iterations 2+** — *guided execution*: accesses matching the plan
//!   trigger proactive eviction, prefetch (in-triggers), or release-for-
//!   recompute; passive mode remains as a safety net, and feedback
//!   (late-prefetch waits, residual passive evictions) refines the plan
//!   between iterations.

use capuchin_executor::{AccessEvent, Engine, MemoryPolicy};
use capuchin_sim::Duration;
use capuchin_tensor::TensorKey;

use crate::measure::MeasuredProfile;
use crate::plan::{EvictMethod, Plan};
use crate::planner::{install_in_trigger, make_plan, schedule_in_triggers, PlannerConfig};

/// The iteration that runs measured execution: iteration 0 materializes
/// the weights, so the first steady-state iteration is measured.
const MEASURE_ITERATION: u64 = 1;

/// Keep a collective-recompute intermediate only while at least this
/// fraction of device memory is free.
const KEEP_RESERVE: f64 = 0.05;

/// Capuchin configuration; the switches correspond to the paper's
/// breakdown experiments (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapuchinConfig {
    /// Policy Maker switches: swap and recompute evictions, lane-aware
    /// in-trigger placement, DELTA-style joint ordering. With
    /// [`PlannerConfig::delta_interleave`] the policy reports itself as
    /// `delta`: same measured/guided lifecycle, different Policy Maker
    /// ordering.
    pub planner: PlannerConfig,
    /// Feedback-driven in-trigger adjustment (FA in Fig. 8a).
    pub feedback: bool,
    /// Ablation: couple planned evictions to computation (synchronize the
    /// compute stream on each copy-out, vDNN-style) instead of the
    /// decoupled delay-sync-at-OOM of §5.3.
    pub coupled_swap: bool,
    /// Collective recomputation (CR in Fig. 8b).
    pub collective: bool,
    /// Fraction of the swap time by which a late prefetch is moved
    /// earlier per feedback round (the paper uses 5%).
    pub lead_step: f64,
}

impl Default for CapuchinConfig {
    fn default() -> CapuchinConfig {
        CapuchinConfig {
            planner: PlannerConfig::default(),
            feedback: true,
            coupled_swap: false,
            collective: true,
            lead_step: 0.05,
        }
    }
}

impl CapuchinConfig {
    /// Swap-only configuration (Fig. 8a's "ATP+DS" variants).
    pub fn swap_only() -> CapuchinConfig {
        CapuchinConfig::with_planner(PlannerConfig {
            enable_recompute: false,
            ..PlannerConfig::default()
        })
    }

    /// Recompute-only configuration (Fig. 8b's "ATP" variants).
    pub fn recompute_only() -> CapuchinConfig {
        CapuchinConfig::with_planner(PlannerConfig {
            enable_swap: false,
            ..PlannerConfig::default()
        })
    }

    /// DELTA-style configuration (arXiv:2203.15980): identical lifecycle,
    /// but the Policy Maker interleaves swap and recompute candidates by
    /// priced overhead per byte instead of taking zero-overhead swaps
    /// first.
    pub fn delta() -> CapuchinConfig {
        CapuchinConfig::with_planner(PlannerConfig {
            delta_interleave: true,
            ..PlannerConfig::default()
        })
    }

    fn with_planner(planner: PlannerConfig) -> CapuchinConfig {
        CapuchinConfig {
            planner,
            ..CapuchinConfig::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Passive,
    Measuring,
    Guided,
}

/// The Capuchin memory manager.
///
/// # Examples
///
/// ```
/// use capuchin::Capuchin;
/// use capuchin_executor::{Engine, EngineConfig};
/// use capuchin_models::ModelKind;
/// use capuchin_sim::DeviceSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ModelKind::ResNet50.build(8);
/// let cfg = EngineConfig {
///     spec: DeviceSpec::p100_pcie3().with_memory(600 << 20),
///     ..EngineConfig::default()
/// };
/// let mut engine = Engine::new(&model.graph, cfg, Box::new(Capuchin::new()));
/// engine.run(4)?; // would OOM under TfOri at this memory budget
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Capuchin {
    cfg: CapuchinConfig,
    mode: Option<Mode>,
    profile: MeasuredProfile,
    plan: Plan,
    /// Extra saving demanded by refinement rounds (bytes passively
    /// evicted during guided execution).
    extra_saving: u64,
    /// Bounded number of re-planning rounds.
    replans: u32,
    /// Residual passive-eviction bytes observed under the current plan.
    last_residual: Option<u64>,
    /// Set when refinement has converged (or been reverted); no more
    /// re-planning.
    refinement_done: bool,
    /// Wall time of the measured (passive) iteration — the bar any plan
    /// must beat.
    measured_wall: Option<Duration>,
    /// Best guided iteration of the refinement rounds: (wall, plan).
    best: Option<(Duration, Plan)>,
}

impl Capuchin {
    /// Creates Capuchin with default configuration.
    pub fn new() -> Capuchin {
        Capuchin::with_config(CapuchinConfig::default())
    }

    /// Creates the DELTA variant ([`CapuchinConfig::delta`]): the same
    /// measured/guided lifecycle with the jointly-ordered Policy Maker.
    pub fn delta() -> Capuchin {
        Capuchin::with_config(CapuchinConfig::delta())
    }

    /// Stats/cache name: `delta` when the joint ordering is active, else
    /// `capuchin` — the two produce different plans and must never share
    /// a validation-cache entry.
    fn policy_name(&self) -> &'static str {
        if self.cfg.planner.delta_interleave {
            "delta"
        } else {
            "capuchin"
        }
    }

    /// Creates Capuchin with an explicit configuration.
    pub fn with_config(cfg: CapuchinConfig) -> Capuchin {
        Capuchin {
            cfg,
            ..Capuchin::default()
        }
    }

    /// The current plan (empty before measured execution completes).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The measured profile (empty before measured execution).
    pub fn profile(&self) -> &MeasuredProfile {
        &self.profile
    }

    /// Passive mode (paper Fig. 6): on OOM, walk the tensor access list
    /// from the beginning and synchronously evict unpinned tensors until
    /// the allocation can succeed.
    fn passive_evict(&self, engine: &mut Engine<'_>, need: u64) -> bool {
        // First try an approximate-size match (paper Fig. 6: "look for one
        // or multiple tensors with an approximate size"): evicting a single
        // resident tensor at least as large as the request frees one
        // *contiguous* hole the allocation is guaranteed to fit in, which
        // defeats fragmentation that piecemeal eviction cannot.
        let size_match = engine
            .registry()
            .iter()
            .filter(|t| {
                t.status == capuchin_tensor::TensorStatus::In
                    && !t.meta.persistent
                    && t.device.is_some()
                    && t.size_bytes() >= need
                    && !engine.pinned().contains(&t.key())
            })
            .min_by_key(|t| (t.size_bytes(), t.key()))
            .map(|t| t.key());
        if let Some(key) = size_match {
            if self.evict_one(engine, key) && engine.device().can_alloc(need) {
                return true;
            }
        }
        // The access list oldest-first, each tensor once (evicting never
        // appends to the list).
        let mut evicted_any = false;
        let mut seen = vec![false; engine.graph().values().len()];
        for i in 0..engine.access_log().len() {
            let key = engine.access_log()[i].key;
            let first = !std::mem::replace(&mut seen[Engine::value_of(key).0 as usize], true);
            if !first || engine.pinned().contains(&key) {
                continue;
            }
            let evicted = self.evict_one(engine, key);
            if evicted {
                evicted_any = true;
                if engine.device().can_alloc(need) {
                    return true;
                }
            }
        }
        // Fragmentation defence: everything from the access list is gone
        // but no hole is big enough. Grow the largest free region by
        // evicting the allocations adjacent to it until the request fits.
        while engine.device().free_total() >= need && !engine.device().can_alloc(need) {
            if !self.grow_largest_hole(engine) {
                break;
            }
            evicted_any = true;
            if engine.device().can_alloc(need) {
                return true;
            }
        }
        evicted_any
    }

    /// Evicts one tensor bordering a free region so the region coalesces
    /// outward, trying regions largest-first. Returns `false` when no
    /// region has an evictable neighbour.
    fn grow_largest_hole(&self, engine: &mut Engine<'_>) -> bool {
        for (offset, size) in engine.device().free_regions() {
            let neighbors = [
                engine.device().neighbor_at(offset + size),
                engine.device().neighbor_before(offset),
            ];
            for id in neighbors.into_iter().flatten() {
                let key = engine
                    .registry()
                    .iter()
                    .find(|t| t.device.map(|a| a.id() == id).unwrap_or(false))
                    .map(|t| t.key());
                if let Some(key) = key {
                    if engine.pinned().contains(&key) {
                        continue;
                    }
                    if self.evict_one(engine, key) || engine.cancel_swap_in(key) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Evicts one tensor: recompute-planned tensors (e.g. collectively-kept
    /// intermediates) are released for free — the dynamic "otherwise, its
    /// memory will be released" of §5.3 — while everything else pays for a
    /// synchronous PCIe copy.
    fn evict_one(&self, engine: &mut Engine<'_>, key: TensorKey) -> bool {
        if self.plan.recompute_keys.contains(&key) {
            let now = engine.now();
            let released = engine.release_for_recompute_at(key, now);
            if released {
                engine.process_matured_frees();
            }
            released
        } else {
            engine.swap_out_sync(key)
        }
    }
}

impl MemoryPolicy for Capuchin {
    fn name(&self) -> &str {
        self.policy_name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_iteration_start(&mut self, _engine: &mut Engine<'_>, iter: u64) {
        self.mode = Some(if iter < MEASURE_ITERATION {
            Mode::Passive
        } else if iter == MEASURE_ITERATION {
            self.profile.clear();
            Mode::Measuring
        } else {
            Mode::Guided
        });
    }

    fn post_access(&mut self, engine: &mut Engine<'_>, ev: &AccessEvent) {
        match self.mode {
            Some(Mode::Measuring) => self.profile.record(engine, ev),
            Some(Mode::Guided) => {
                // Planned eviction at this exact (tensor, count) access?
                match self.plan.evictions.get(&(ev.key, ev.count)) {
                    Some(EvictMethod::Swap) => {
                        if self.cfg.coupled_swap {
                            engine.swap_out_coupled(ev.key, ev.end);
                        } else {
                            engine.swap_out_async(ev.key, ev.end);
                        }
                    }
                    Some(EvictMethod::Recompute) => {
                        engine.release_for_recompute_at(ev.key, ev.end);
                    }
                    None => {}
                }
                // Prefetches triggered by this access.
                if let Some(targets) = self.plan.in_triggers.get(&(ev.key, ev.count)).cloned() {
                    for target in targets {
                        // A failed prefetch is recovered by passive mode at
                        // the back-access; never fatal here.
                        match engine.swap_in_async(target, ev.start) {
                            Ok(_) | Err(_) => {}
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_alloc_failure(&mut self, engine: &mut Engine<'_>, need: u64) -> bool {
        self.passive_evict(engine, need)
    }

    fn on_iteration_end(&mut self, engine: &mut Engine<'_>, _iter: u64) {
        match self.mode {
            Some(Mode::Measuring) => {
                self.profile.finalize(engine);
                self.plan = make_plan(&self.profile, engine.spec(), &self.cfg.planner);
                self.measured_wall = Some(engine.iter_stats().wall());
            }
            Some(Mode::Guided) => {
                // Feedback 1: prefetches that arrived late move their
                // in-trigger earlier by `lead_step` of the swap time.
                if self.cfg.feedback {
                    // `swapin_waits` is a BTreeMap, so iteration order is
                    // already deterministic (sorted by key).
                    let late: Vec<TensorKey> = engine
                        .swapin_waits()
                        .keys()
                        .copied()
                        .filter(|k| self.plan.swaps.contains_key(k))
                        .collect();
                    for key in late {
                        let step = self.plan.swaps[&key]
                            .swap_in_time
                            .mul_f64(self.cfg.lead_step);
                        let lead = self.plan.lead.entry(key).or_insert(Duration::ZERO);
                        *lead += step;
                        install_in_trigger(&mut self.plan, &self.profile, key);
                    }
                }
                // Feedback 2: residual passive evictions mean the plan
                // saves too little; demand more and re-plan — hill-climbing
                // with revert, so an over-correction that makes the
                // residual *grow* is rolled back instead of compounding.
                if !self.refinement_done {
                    let residual = engine.iter_stats().passive_evict_bytes;
                    let wall = engine.iter_stats().wall();
                    // Track the best plan seen so far by wall time.
                    if self.best.as_ref().map(|(w, _)| wall < *w).unwrap_or(true) {
                        self.best = Some((wall, self.plan.clone()));
                    }
                    let worse_residual =
                        matches!(self.last_residual, Some(prev) if residual >= prev);
                    if residual == 0 || self.replans >= 8 || worse_residual {
                        // Converged (or no longer improving): settle on the
                        // best plan observed. If even that never beat plain
                        // passive mode, run passive (empty plan).
                        self.refinement_done = true;
                        if let Some((best_wall, plan)) = self.best.take() {
                            if self.measured_wall.map(|m| best_wall < m).unwrap_or(true) {
                                self.plan = plan;
                            } else {
                                self.plan = Plan::default();
                            }
                        }
                    } else {
                        self.last_residual = Some(residual);
                        // Clamped step: a huge residual (fragmentation
                        // thrash) must not blow the target up in one jump.
                        let step = residual.min((self.profile.required_saving / 4).max(1 << 28));
                        self.extra_saving += step;
                        self.replans += 1;
                        let mut profile = self.profile.clone();
                        profile.required_saving += self.extra_saving;
                        let lead = std::mem::take(&mut self.plan.lead);
                        self.plan = make_plan(&profile, engine.spec(), &self.cfg.planner);
                        self.plan.lead = lead;
                        schedule_in_triggers(&mut self.plan, &self.profile);
                    }
                }
            }
            _ => {}
        }
    }

    fn keep_recompute_intermediate(
        &mut self,
        engine: &Engine<'_>,
        key: TensorKey,
        _target: TensorKey,
    ) -> bool {
        if !self.cfg.collective || !self.plan.recompute_keys.contains(&key) {
            return false;
        }
        // Keep only while memory is comfortable (paper §5.3: "T2 will be
        // still kept if the memory is enough; otherwise released").
        let reserve = (engine.spec().memory_bytes as f64 * KEEP_RESERVE) as u64;
        engine.device().free_total() >= reserve
    }
}
