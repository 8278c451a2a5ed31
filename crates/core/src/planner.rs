//! The Policy Maker: turns a measured profile into a guided-execution plan.
//!
//! Implements the paper's §4.5 selection procedure:
//!
//! 1. **Candidates** — tensors accessed more than once whose reuse interval
//!    overlaps the peak-memory period.
//! 2. **Swap phase** — rank candidate access pairs by *Free Time*
//!    `FT = SwapInStartTime − SwapOutEndTime` (Eq. 1) and take zero-overhead
//!    swaps (FT ≥ 0) from the top until the required saving is met.
//! 3. **Hybrid phase** (Algorithm 1) — for the remainder, compare each
//!    candidate's residual swap overhead (−FT) against its recomputation
//!    overhead and pick the cheaper, maintaining the *Memory Saving Per
//!    Second* bookkeeping of Algorithm 2: once a tensor is confirmed for
//!    recomputation it disappears as a recompute *source* for every other
//!    candidate, lengthening their chains (the `srcs`/`rp_time`/`ext_time`
//!    updates).
//! 4. **In-triggers** — for each swap, walk the measured access sequence
//!    backwards from the back-access to the latest access that precedes
//!    `back_access_time − SwapInTime − lead` (§4.4); that access becomes
//!    the prefetch trigger.
//!
//! Selection only ever adds to the plan, and a saving target only decides
//! when it stops: a plan for a smaller target is a prefix of the plan for
//! a larger one. [`saving_curve`] exploits that to answer every budget of
//! a feasibility search from one planning pass.

use std::collections::{HashMap, HashSet};

use capuchin_sim::{CopyDir, DeviceSpec, Duration, Time, TransferModel};
use capuchin_tensor::TensorKey;

use crate::measure::MeasuredProfile;
use crate::plan::{EvictMethod, Plan, SwapEntry};

/// Headroom multiplier on the measured required saving: a plan aims 5%
/// past what passive mode had to evict.
pub(crate) const SAVINGS_MARGIN: f64 = 1.05;

/// Planner knobs (ablation switches for the Fig. 8 breakdowns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Allow swap evictions.
    pub enable_swap: bool,
    /// Lane-aware in-trigger placement (see [`Plan::lane_aware`]).
    pub lane_aware: bool,
    /// Allow recomputation evictions.
    pub enable_recompute: bool,
    /// DELTA-style candidate ordering (arXiv:2203.15980): instead of the
    /// paper's swaps-first two-phase selection, every step picks the
    /// globally cheapest remaining candidate by priced overhead per byte
    /// saved — swap and recompute candidates interleave in one ranking.
    /// Costs come from the same [`TransferModel`] either way, so the two
    /// orderings differ only when PCIe congestion (lane violations) makes
    /// the greedy swaps-first order pay for transfers a joint ordering
    /// would have recomputed around.
    pub delta_interleave: bool,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            enable_swap: true,
            lane_aware: true,
            enable_recompute: true,
            delta_interleave: false,
        }
    }
}

#[derive(Debug, Clone)]
struct Candidate {
    key: TensorKey,
    evicted_count: u32,
    back_count: u32,
    size: u64,
    /// Free Time in signed nanoseconds (negative = exposed transfer).
    ft_ns: i64,
    /// The swap's place in the PCIe lane schedules.
    lane: LaneItem,
    /// Recompute bookkeeping (Algorithm 2 state; the sources live in
    /// [`Pool`]).
    rp_time: Duration,
    ext_time: Duration,
    recomputable: bool,
}

impl Candidate {
    /// Chains lengthen with every confirmation (Algorithm 2), so on deep
    /// networks the bookkeeping can exceed `u64` nanoseconds; it
    /// saturates, which prices such a chain as never worth replaying.
    fn recompute_overhead(&self) -> Duration {
        self.rp_time.saturating_add(self.ext_time)
    }

    /// Exposed transfer time of a swap (−FT, or zero).
    fn exposed(&self) -> Duration {
        Duration::from_nanos((-self.ft_ns).max(0) as u64)
    }
}

/// Builds a plan from the measured profile.
pub fn make_plan(profile: &MeasuredProfile, spec: &DeviceSpec, cfg: &PlannerConfig) -> Plan {
    let mut plan = Plan {
        lane_aware: cfg.lane_aware,
        ..Plan::default()
    };
    let needed = scaled_saving(profile.required_saving, SAVINGS_MARGIN);
    if needed <= 0 {
        return plan; // nothing to do: no triggers either
    }
    select(profile, spec, cfg, needed, &mut plan, &mut Vec::new());
    schedule_in_triggers(&mut plan, profile);
    plan
}

/// The plan's cumulative `planned_saving` after each confirmation of one
/// selection pass with an unbounded saving target. Selection with a
/// finite target `n` confirms exactly the prefix of this run up to the
/// first entry `≥ n` (Phase 1 stops accepting and Phase 2 or the DELTA
/// loop stop once the target is met), so that entry — or the last one,
/// when none reaches `n` — is the saving [`make_plan`] would promise.
/// `profile.required_saving` is ignored.
pub(crate) fn saving_curve(
    profile: &MeasuredProfile,
    spec: &DeviceSpec,
    cfg: &PlannerConfig,
) -> Vec<u64> {
    let mut curve = Vec::new();
    select(
        profile,
        spec,
        cfg,
        i128::MAX,
        &mut Plan::default(),
        &mut curve,
    );
    curve
}

/// Candidate selection for a saving target of `needed` bytes, appending
/// the plan's `planned_saving` to `curve` after every confirmation.
fn select(
    profile: &MeasuredProfile,
    spec: &DeviceSpec,
    cfg: &PlannerConfig,
    mut needed: i128,
    plan: &mut Plan,
    curve: &mut Vec<u64>,
) {
    // Swap costs come from the same TransferModel the engine's lanes
    // execute with — the planner holds no private bandwidth constants, so
    // single-GPU and cluster runs price a swap identically.
    let model = TransferModel::for_device(spec);
    let candidates = candidates(profile, &model);

    if cfg.delta_interleave {
        delta_select(plan, profile, cfg, candidates, needed, curve);
        return;
    }

    // ------------------------------------------------------------------
    // Phase 1: zero-overhead swaps from the top of the FT ranking —
    // accepted only while the *lane schedule* stays feasible, i.e. every
    // prefetch can still complete before its back-access without starting
    // before its own eviction copy has finished. This is the paper's
    // "swap is the first choice until we cannot choose an in-trigger to
    // perfectly hide the prefetching overhead" (§4.5), with the exclusive
    // per-direction PCIe lane made explicit.
    // ------------------------------------------------------------------
    let mut lanes = Lanes::default();
    let mut rest = Vec::new();
    for cand in candidates {
        if cfg.enable_swap
            && cand.ft_ns >= 0
            && needed > 0
            && lanes.price(&cand.lane) == Duration::ZERO
        {
            needed -= cand.size as i128;
            lanes.accept(cand.lane);
            confirm_swap(plan, &cand);
            curve.push(plan.planned_saving);
        } else {
            rest.push(cand);
        }
    }
    if needed <= 0 || rest.is_empty() {
        return;
    }

    // ------------------------------------------------------------------
    // Phase 2: hybrid (Algorithm 1) with recompute-source bookkeeping
    // (Algorithm 2), over the remaining candidates in FT order. Recompute
    // chains start out assuming every still-unchosen candidate is
    // resident.
    // ------------------------------------------------------------------
    let mut pool = Pool::new(profile, rest);
    for head in 0..pool.cands.len() {
        if needed <= 0 {
            break;
        }
        pool.state[head] = State::Done;
        let cand = &pool.cands[head];
        let swap_over = if cfg.enable_swap {
            // Residual swap overhead: any exposed transfer time (−FT)
            // plus the lane-schedule violation the swap would introduce.
            Some(cand.exposed() + lanes.price(&cand.lane))
        } else {
            None
        };
        let rec_over = if cfg.enable_recompute && cand.recomputable {
            Some(cand.recompute_overhead())
        } else {
            None
        };
        match (swap_over, rec_over) {
            (None, None) => continue,
            (s, Some(r)) if s.is_none_or(|s| r <= s) => {
                needed -= cand.size as i128;
                pool.confirm_recompute(plan, head);
            }
            _ => {
                needed -= cand.size as i128;
                lanes.accept(cand.lane);
                confirm_swap(plan, cand);
            }
        }
        curve.push(plan.planned_saving);
    }
}

/// Candidate generation: the best-FT access pair per tensor, restricted
/// to pairs overlapping the peak window, ranked by FT descending; ties by
/// size descending (bigger saving first), then by key for full
/// determinism.
fn candidates(profile: &MeasuredProfile, model: &TransferModel) -> Vec<Candidate> {
    let mut keys: Vec<TensorKey> = profile
        .accesses_of
        .iter()
        .filter(|(k, ids)| !profile.info[k].persistent && ids.len() >= 2)
        .map(|(&k, _)| k)
        .collect();
    keys.sort_unstable();
    let mut candidates: Vec<Candidate> = Vec::new();
    for key in keys {
        let info = &profile.info[&key];
        let out_time = model.time(info.size, CopyDir::DeviceToHost);
        let in_time = model.time(info.size, CopyDir::HostToDevice);
        let mut best: Option<Candidate> = None;
        for w in profile.accesses_of[&key].windows(2) {
            let (a, b) = (&profile.seq[w[0]], &profile.seq[w[1]]);
            let (t1_end, t2_start) = (a.end, b.time);
            if !profile.overlaps_peak(t1_end, t2_start) {
                continue;
            }
            // FT = (back_access − SwapInTime) − (evicted_access + SwapOutTime).
            let ft_ns = t2_start.as_nanos() as i64
                - in_time.as_nanos() as i64
                - (t1_end.as_nanos() as i64 + out_time.as_nanos() as i64);
            if best.as_ref().is_none_or(|b| ft_ns > b.ft_ns) {
                best = Some(Candidate {
                    key,
                    evicted_count: a.count,
                    back_count: b.count,
                    size: info.size,
                    ft_ns,
                    lane: LaneItem {
                        key,
                        t1_end,
                        t2_start,
                        out_time,
                        in_time,
                    },
                    rp_time: Duration::ZERO,
                    ext_time: Duration::ZERO,
                    recomputable: info.recomputable,
                });
            }
        }
        candidates.extend(best);
    }
    candidates.sort_by(|a, b| {
        b.ft_ns
            .cmp(&a.ft_ns)
            .then(b.size.cmp(&a.size))
            .then(a.key.cmp(&b.key))
    });
    candidates
}

/// DELTA-style joint selection (arXiv:2203.15980): one ranking instead of
/// the paper's two phases. Every step re-prices each remaining candidate —
/// the cheaper of its residual swap overhead (exposed transfer plus the
/// lane violation it would add to the already-accepted schedule) and its
/// recompute chain — and confirms the candidate with the lowest overhead
/// per byte saved. Re-pricing each round is what makes the ordering
/// *joint*: as the PCIe lanes congest, swap overheads grow and the
/// selection shifts to recomputation for exactly the tensors whose
/// transfers no longer hide, instead of committing to every zero-FT swap
/// up front. All arithmetic is integer (nanoseconds, permille-scaled per
/// byte) with size/key tie-breaks, so the plan is byte-deterministic.
fn delta_select(
    plan: &mut Plan,
    profile: &MeasuredProfile,
    cfg: &PlannerConfig,
    candidates: Vec<Candidate>,
    mut needed: i128,
    curve: &mut Vec<u64>,
) {
    // No swaps-first phase shrinks the pool, so recompute chains are
    // initialized over the full candidate set (Algorithm 2 still adjusts
    // them as tensors are confirmed).
    let mut pool = Pool::new(profile, candidates);
    let mut lanes = Lanes::default();
    let mut live: Vec<usize> = (0..pool.cands.len()).collect();
    while needed > 0 && !live.is_empty() {
        let mut best: Option<(u128, u64, TensorKey, usize, bool)> = None;
        for (pos, &idx) in live.iter().enumerate() {
            let cand = &pool.cands[idx];
            let swap_over = if cfg.enable_swap {
                Some(cand.exposed() + lanes.price(&cand.lane))
            } else {
                None
            };
            let rec_over = if cfg.enable_recompute && cand.recomputable {
                Some(cand.recompute_overhead())
            } else {
                None
            };
            // Ties prefer recomputation, matching the hybrid phase.
            let (cost, use_swap) = match (swap_over, rec_over) {
                (None, None) => continue,
                (Some(s), None) => (s, true),
                (None, Some(r)) => (r, false),
                (Some(s), Some(r)) => {
                    if r <= s {
                        (r, false)
                    } else {
                        (s, true)
                    }
                }
            };
            let per_byte = cost.as_nanos() as u128 * 1_000 / u128::from(cand.size.max(1));
            let better = match &best {
                None => true,
                Some((bpb, bsize, bkey, _, _)) => {
                    (per_byte, std::cmp::Reverse(cand.size), cand.key)
                        < (*bpb, std::cmp::Reverse(*bsize), *bkey)
                }
            };
            if better {
                best = Some((per_byte, cand.size, cand.key, pos, use_swap));
            }
        }
        let Some((_, _, _, pos, use_swap)) = best else {
            break; // nothing selectable remains (all disabled/unrecomputable)
        };
        let idx = live.swap_remove(pos);
        pool.state[idx] = State::Done;
        needed -= pool.cands[idx].size as i128;
        if use_swap {
            lanes.accept(pool.cands[idx].lane);
            confirm_swap(plan, &pool.cands[idx]);
        } else {
            pool.confirm_recompute(plan, idx);
        }
        curve.push(plan.planned_saving);
    }
}

/// Headroom-scaled saving target, `required × margin`, in exact
/// fixed-point (permille) integer math with a u128 intermediate. The old
/// `(required as f64 * margin) as i64` silently lost precision above
/// 2^53 bytes and saturated near `i64::MAX` for extreme budgets.
pub(crate) fn scaled_saving(required: u64, margin: f64) -> i128 {
    let permille = (margin * 1000.0).round().max(0.0) as u128;
    let scaled = (required as u128).saturating_mul(permille) / 1000;
    i128::try_from(scaled).unwrap_or(i128::MAX)
}

/// One swap in the tentative PCIe lane schedule.
#[derive(Debug, Clone, Copy)]
struct LaneItem {
    key: TensorKey,
    /// Eviction copy may start here (end of the evicted-access kernel).
    t1_end: Time,
    /// Prefetch must complete here (start of the back-access kernel).
    t2_start: Time,
    out_time: Duration,
    in_time: Duration,
}

/// An accepted swap with its place in both lane schedules.
#[derive(Debug, Clone, Copy)]
struct LaneSlot {
    item: LaneItem,
    /// End of its eviction copy on the device-to-host lane.
    ready: Time,
    /// Start of its prefetch on the host-to-device lane.
    start: Time,
    /// `ready` as moved by the candidate being priced, valid while
    /// `stamp` equals [`Lanes::stamp`].
    moved_ready: Time,
    stamp: u64,
}

/// The accepted swaps' PCIe schedules, kept sorted in both directions so
/// pricing one more swap walks only the stretch it disturbs.
///
/// The device-to-host lane is FIFO in eviction order, `(t1_end, key)`;
/// the host-to-device lane is the latest feasible schedule laid out
/// backwards, in `(Reverse(t2_start), key)` order. Key tie-breaks
/// throughout (DESIGN §6): equal-timestamp candidates must schedule
/// identically across runs. Inserting a swap can only delay later
/// evictions and pull earlier prefetches forward, and each walk stops
/// at the first slot the insertion leaves in place, because everything
/// past it is then unchanged too.
#[derive(Debug, Default)]
struct Lanes {
    slots: Vec<LaneSlot>,
    /// Slot indices in device-to-host order.
    by_out: Vec<usize>,
    /// Slot indices in host-to-device order.
    by_in: Vec<usize>,
    /// Worst violation of the accepted schedule.
    worst: Duration,
    stamp: u64,
}

impl Lanes {
    fn out_pos(&self, c: &LaneItem) -> usize {
        self.by_out.partition_point(|&s| {
            let i = &self.slots[s].item;
            (i.t1_end, i.key) < (c.t1_end, c.key)
        })
    }

    fn in_pos(&self, c: &LaneItem) -> usize {
        self.by_in.partition_point(|&s| {
            let i = &self.slots[s].item;
            (std::cmp::Reverse(i.t2_start), i.key) < (std::cmp::Reverse(c.t2_start), c.key)
        })
    }

    /// The worst amount by which some prefetch of `accepted ∪ {c}` must
    /// start before its data has even finished swapping out (zero =
    /// perfectly hideable). Allocation-free.
    fn price(&mut self, c: &LaneItem) -> Duration {
        self.stamp += 1;
        let stamp = self.stamp;
        // Every accepted slot's violation can only grow, so the accepted
        // schedule's worst is a floor; only disturbed slots can raise it.
        let mut worst = self.worst;

        let p = self.out_pos(c);
        let mut lane = p
            .checked_sub(1)
            .map_or(Time::ZERO, |j| self.slots[self.by_out[j]].ready);
        let c_ready = c.t1_end.max(lane) + c.out_time;
        lane = c_ready;
        for &s in &self.by_out[p..] {
            let slot = &mut self.slots[s];
            let ready = slot.item.t1_end.max(lane) + slot.item.out_time;
            if ready == slot.ready {
                break;
            }
            slot.moved_ready = ready;
            slot.stamp = stamp;
            if ready > slot.start {
                worst = worst.max(ready - slot.start);
            }
            lane = ready;
        }

        let q = self.in_pos(c);
        let latest_end = q.checked_sub(1).map_or(c.t2_start, |j| {
            c.t2_start.min(self.slots[self.by_in[j]].start)
        });
        let c_start = latest_end.saturating_sub(c.in_time);
        if c_ready > c_start {
            worst = worst.max(c_ready - c_start);
        }
        let mut lane_free = c_start;
        for &s in &self.by_in[q..] {
            let slot = &self.slots[s];
            let start = slot
                .item
                .t2_start
                .min(lane_free)
                .saturating_sub(slot.item.in_time);
            if start == slot.start {
                break;
            }
            let ready = if slot.stamp == stamp {
                slot.moved_ready
            } else {
                slot.ready
            };
            if ready > start {
                worst = worst.max(ready - start);
            }
            lane_free = start;
        }
        worst
    }

    /// Adds `item` to the accepted schedule.
    fn accept(&mut self, item: LaneItem) {
        self.worst = self.price(&item);
        let (p, q) = (self.out_pos(&item), self.in_pos(&item));
        let new = self.slots.len();
        self.slots.push(LaneSlot {
            item,
            ready: Time::ZERO,
            start: Time::ZERO,
            moved_ready: Time::ZERO,
            stamp: 0,
        });
        self.by_out.insert(p, new);
        self.by_in.insert(q, new);
        let mut lane = p
            .checked_sub(1)
            .map_or(Time::ZERO, |j| self.slots[self.by_out[j]].ready);
        for &s in &self.by_out[p..] {
            let slot = &mut self.slots[s];
            let ready = slot.item.t1_end.max(lane) + slot.item.out_time;
            if s != new && ready == slot.ready {
                break;
            }
            slot.ready = ready;
            lane = ready;
        }
        let mut lane_free = q.checked_sub(1).map(|j| self.slots[self.by_in[j]].start);
        for &s in &self.by_in[q..] {
            let slot = &mut self.slots[s];
            let latest_end = lane_free.map_or(slot.item.t2_start, |t| slot.item.t2_start.min(t));
            let start = latest_end.saturating_sub(slot.item.in_time);
            if s != new && start == slot.start {
                break;
            }
            slot.start = start;
            lane_free = Some(start);
        }
    }
}

fn confirm_swap(plan: &mut Plan, cand: &Candidate) {
    let in_time = cand.lane.in_time;
    plan.evictions
        .insert((cand.key, cand.evicted_count), EvictMethod::Swap);
    plan.swaps.insert(
        cand.key,
        SwapEntry {
            evicted_count: cand.evicted_count,
            back_count: cand.back_count,
            back_time: cand.lane.t2_start,
            swap_in_time: in_time,
            planned_start: cand.lane.t2_start.saturating_sub(in_time),
            ft_ns: cand.ft_ns,
        },
    );
    plan.planned_saving += cand.size;
    plan.swap_saving += cand.size;
}

/// Computes lane-aware prefetch start times and (re)installs every
/// in-trigger. Prefetches share the host-to-device lane exclusively, so
/// they are laid out backwards from the latest back-access: each transfer
/// must finish before both its own back-access and the next transfer's
/// start.
pub fn schedule_in_triggers(plan: &mut Plan, profile: &MeasuredProfile) {
    let mut order: Vec<TensorKey> = plan.swaps.keys().copied().collect();
    order.sort_by_key(|k| (std::cmp::Reverse(plan.swaps[k].back_time), *k));
    let mut lane_free: Option<Time> = None;
    for key in order {
        let entry = plan.swaps.get_mut(&key).expect("key from plan");
        let latest_end = match lane_free {
            Some(t) if plan.lane_aware => entry.back_time.min(t),
            _ => entry.back_time,
        };
        entry.planned_start = latest_end.saturating_sub(entry.swap_in_time);
        lane_free = Some(entry.planned_start);
    }
    let mut keys: Vec<TensorKey> = plan.swaps.keys().copied().collect();
    keys.sort();
    // Every swap's trigger is re-placed below, so drop the old ones in one
    // pass rather than one pass per swap.
    let swaps = &plan.swaps;
    for targets in plan.in_triggers.values_mut() {
        targets.retain(|t| !swaps.contains_key(t));
    }
    plan.in_triggers.retain(|_, v| !v.is_empty());
    for key in keys {
        place_in_trigger(plan, profile, key);
    }
}

/// (Re)installs the prefetch trigger for a swapped tensor, honouring its
/// accumulated feedback lead.
pub fn install_in_trigger(plan: &mut Plan, profile: &MeasuredProfile, key: TensorKey) {
    // Remove any previous trigger pointing at `key`.
    for targets in plan.in_triggers.values_mut() {
        targets.retain(|&t| t != key);
    }
    plan.in_triggers.retain(|_, v| !v.is_empty());
    place_in_trigger(plan, profile, key);
}

/// Installs the prefetch trigger of a swapped tensor that has none.
fn place_in_trigger(plan: &mut Plan, profile: &MeasuredProfile, key: TensorKey) {
    let entry = &plan.swaps[&key];
    let lead = plan.lead.get(&key).copied().unwrap_or(Duration::ZERO);
    let target_time = entry.planned_start.saturating_sub(lead);

    // Latest access that (a) precedes the target time and (b) follows the
    // tensor's own evicted-access.
    let evicted_idx = profile.accesses_of[&key]
        .iter()
        .map(|&i| &profile.seq[i])
        .position(|a| a.count == entry.evicted_count)
        .map(|pos| profile.accesses_of[&key][pos])
        .unwrap_or(0);
    let mut chosen: Option<(TensorKey, u32)> = None;
    for a in &profile.seq[evicted_idx + 1..] {
        if a.time > target_time {
            break;
        }
        if a.key == key {
            continue;
        }
        chosen = Some((a.key, a.count));
    }
    if let Some(trigger) = chosen {
        plan.in_triggers.entry(trigger).or_default().push(key);
    }
    // No valid trigger: the back-access will page the tensor in on demand.
}

/// Where a Phase 2 (or DELTA) candidate stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not yet chosen or passed over.
    Queued,
    /// Confirmed for recomputation: still tracked, because its own chain
    /// lengthens when one of its sources is confirmed too.
    Recomputed,
    /// Swapped or passed over: out of the bookkeeping.
    Done,
}

/// A square bit matrix over the candidate index, one row per candidate.
#[derive(Debug)]
struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> BitMatrix {
        let words = n.div_ceil(64);
        BitMatrix {
            words,
            bits: vec![0; words * n],
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] |= 1 << (j % 64);
    }

    fn clear(&mut self, i: usize, j: usize) {
        self.bits[i * self.words + j / 64] &= !(1 << (j % 64));
    }
}

/// Calls `f` with the index of every set bit of `row`, in ascending order.
fn for_each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The hybrid phase's candidates with their Algorithm 2 state. A
/// candidate's recompute sources are a bitset over the candidate index;
/// the reverse index (`holders`) lists whose sources hold a candidate,
/// so confirming one touches only the candidates whose chains it
/// changes.
#[derive(Debug)]
struct Pool {
    /// In FT order.
    cands: Vec<Candidate>,
    state: Vec<State>,
    /// Row `i`: the candidates that `i`'s recomputation assumes resident.
    srcs: BitMatrix,
    /// Row `s`: the candidates whose sources hold `s`.
    holders: BitMatrix,
    /// The candidates confirmed for recomputation.
    recomputed: Vec<u64>,
    /// Copies of the confirmed candidate's rows while others change.
    scratch_srcs: Vec<u64>,
    scratch_holders: Vec<u64>,
}

impl Pool {
    /// Initializes every recompute chain assuming all of `cands` are
    /// resident.
    fn new(profile: &MeasuredProfile, mut cands: Vec<Candidate>) -> Pool {
        let n = cands.len();
        let index: HashMap<TensorKey, usize> =
            cands.iter().enumerate().map(|(i, c)| (c.key, i)).collect();
        let mut srcs = BitMatrix::new(n);
        let mut holders = BitMatrix::new(n);
        for (i, cand) in cands.iter_mut().enumerate() {
            match init_recompute(profile, cand, &index) {
                Some((sources, time)) => {
                    for s in sources {
                        srcs.set(i, s);
                        holders.set(s, i);
                    }
                    cand.rp_time = time;
                }
                None => cand.recomputable = false,
            }
        }
        let words = srcs.words;
        Pool {
            cands,
            state: vec![State::Queued; n],
            srcs,
            holders,
            recomputed: vec![0; words],
            scratch_srcs: vec![0; words],
            scratch_holders: vec![0; words],
        }
    }

    /// Confirms candidate `c` for recomputation and applies Algorithm 2:
    /// `c` stops being a valid source, so every chain that read it now
    /// reads `c`'s own sources instead and grows by `c`'s replay time.
    fn confirm_recompute(&mut self, plan: &mut Plan, c: usize) {
        let cand = &self.cands[c];
        plan.evictions
            .insert((cand.key, cand.evicted_count), EvictMethod::Recompute);
        plan.recompute_keys.insert(cand.key);
        plan.planned_saving += cand.size;
        plan.recompute_saving += cand.size;
        let c_rp = cand.rp_time;

        let mut scratch_srcs = std::mem::take(&mut self.scratch_srcs);
        let mut scratch_holders = std::mem::take(&mut self.scratch_holders);
        scratch_srcs.copy_from_slice(self.srcs.row(c));
        scratch_holders.copy_from_slice(self.holders.row(c));

        // Earlier recomputations that read `c` now replay it too.
        let mut ext_ct: u32 = 1;
        for_each_bit(&scratch_holders, |o| {
            if self.state[o] == State::Recomputed {
                self.replace_source(o, c, &scratch_srcs);
                ext_ct += 1;
            }
        });
        self.state[c] = State::Recomputed;
        self.recomputed[c / 64] |= 1 << (c % 64);

        for_each_bit(&scratch_holders, |o| {
            if self.state[o] != State::Queued {
                return;
            }
            self.replace_source(o, c, &scratch_srcs);
            let holders = self.holders.row(o);
            let ext_ct: u64 = holders
                .iter()
                .zip(&self.recomputed)
                .map(|(h, r)| u64::from((h & r).count_ones()))
                .sum();
            let other = &mut self.cands[o];
            other.rp_time = other.rp_time.saturating_add(c_rp);
            other.ext_time = Duration::from_nanos(other.rp_time.as_nanos().saturating_mul(ext_ct));
        });
        // Candidates `c` reads are now replayed once per dependent chain.
        for_each_bit(&scratch_srcs, |o| {
            if self.state[o] == State::Queued {
                let other = &mut self.cands[o];
                other.ext_time = other.rp_time.mul_f64(f64::from(ext_ct));
            }
        });
        self.scratch_srcs = scratch_srcs;
        self.scratch_holders = scratch_holders;
    }

    /// Replaces source `c` of candidate `o` by `c`'s sources `with`.
    fn replace_source(&mut self, o: usize, c: usize, with: &[u64]) {
        self.srcs.clear(o, c);
        self.holders.clear(c, o);
        let words = self.srcs.words;
        for (w, &add) in with.iter().enumerate() {
            let row = &mut self.srcs.bits[o * words + w];
            let new = add & !*row;
            *row |= new;
            for_each_bit(&[new], |b| self.holders.set(w * 64 + b, o));
        }
    }
}

/// Walks the lineage of `cand` to find its recompute sources (as indices
/// into `candidates`) and replay time, treating persistent tensors,
/// tensors still alive at the back-access, and other candidates as
/// available (§4.4).
fn init_recompute(
    profile: &MeasuredProfile,
    cand: &Candidate,
    candidates: &HashMap<TensorKey, usize>,
) -> Option<(Vec<usize>, Duration)> {
    let mut srcs = Vec::new();
    let mut time = Duration::ZERO;
    let mut stack = vec![cand.key];
    let mut visited = HashSet::new();
    while let Some(v) = stack.pop() {
        if !visited.insert(v) {
            continue;
        }
        let info = profile.info.get(&v)?;
        if v != cand.key {
            if info.persistent {
                continue;
            }
            // A lineage node helps only while it is still live at the
            // back-access; a dead node — even another candidate — must be
            // replayed (the runtime walks through dead intermediates too).
            if info.last_access > cand.lane.t2_start {
                if let Some(&i) = candidates.get(&v) {
                    srcs.push(i); // assumed in memory (Algorithm 2 adjusts)
                }
                continue;
            }
        }
        if !info.recomputable {
            return None; // chain bottoms out at a graph input
        }
        time += info.op_duration;
        stack.extend(&info.inputs);
    }
    Some((srcs, time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{MeasuredAccess, TensorInfo};
    use capuchin_graph::OpId;
    use capuchin_tensor::AccessKind;

    const MB: u64 = 1 << 20;

    /// One synthetic tensor: (key, size, inputs, op_duration_us,
    /// access_times_us).
    type TensorRow<'a> = (u64, u64, &'a [u64], u64, &'a [u64]);

    /// Builds a synthetic measured profile.
    fn profile(tensors: &[TensorRow<'_>], required_saving: u64) -> MeasuredProfile {
        let mut p = MeasuredProfile::default();
        let mut events: Vec<(u64, TensorKey, u32)> = Vec::new();
        for &(id, size, inputs, op_us, times) in tensors {
            let key = TensorKey(id);
            p.info.insert(
                key,
                TensorInfo {
                    size,
                    inputs: inputs.iter().map(|&i| TensorKey(i)).collect(),
                    recomputable: true,
                    persistent: false,
                    op_duration: Duration::from_micros(op_us),
                    last_access: Time::from_micros(*times.last().unwrap()),
                    name: format!("t{id}"),
                },
            );
            for (i, &t) in times.iter().enumerate() {
                events.push((t, key, i as u32 + 1));
            }
        }
        events.sort();
        for (t, key, count) in events {
            let idx = p.seq.len();
            p.seq.push(MeasuredAccess {
                key,
                count,
                kind: if count == 1 {
                    AccessKind::Produce
                } else {
                    AccessKind::Read
                },
                op: OpId(0),
                time: Time::from_micros(t),
                end: Time::from_micros(t),
                mem_in_use: 100,
            });
            p.accesses_of.entry(key).or_default().push(idx);
        }
        p.required_saving = required_saving;
        p.peak_mem = 100;
        // Whole iteration counts as peak so every pair qualifies.
        p.peak_window = (Time::ZERO, Time::from_micros(10_000_000));
        p
    }

    /// The required saving whose [`SAVINGS_MARGIN`] headroom makes the
    /// planner's target exactly `target` bytes.
    fn before_margin(target: u64) -> u64 {
        let required = (target * 20).div_ceil(21);
        assert_eq!(scaled_saving(required, SAVINGS_MARGIN), i128::from(target));
        required
    }

    fn spec() -> DeviceSpec {
        // Round numbers: 10 GB/s both directions, no copy overhead.
        DeviceSpec {
            pcie_d2h_bw: 10.0e9,
            pcie_h2d_bw: 10.0e9,
            copy_overhead: Duration::ZERO,
            ..DeviceSpec::p100_pcie3()
        }
    }

    #[test]
    fn empty_plan_when_nothing_required() {
        let p = profile(&[(1, 64 * MB, &[], 100, &[0, 900_000])], 0);
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn phase1_prefers_longest_free_time() {
        // Both 64 MiB (swap ~6.4 ms each way); t1 has a 900 ms gap
        // (FT >> 0), t2 a 14 ms gap (FT barely > 0 = 1.2ms).
        let p = profile(
            &[
                (1, 64 * MB, &[], 100, &[0, 900_000]),
                (2, 64 * MB, &[], 100, &[1_000, 15_000]),
            ],
            before_margin(64 * MB),
        );
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert_eq!(plan.swaps.len(), 1);
        assert!(plan.swaps.contains_key(&TensorKey(1)), "{plan:?}");
        assert_eq!(
            plan.evictions[&(TensorKey(1), 1)],
            crate::plan::EvictMethod::Swap
        );
    }

    #[test]
    fn scaled_saving_is_exact_at_extreme_budgets() {
        // Multi-TiB: exact permille arithmetic, no f64 rounding.
        let four_tib = 4u64 << 40;
        assert_eq!(
            scaled_saving(four_tib, 1.05),
            four_tib as i128 * 1050 / 1000
        );
        // Above 2^53 bytes the old f64 product dropped the low bits
        // entirely (here: the +12345).
        let huge = (1u64 << 60) + 12345;
        assert_eq!(scaled_saving(huge, 1.0), huge as i128);
        assert!((huge as f64) as u64 != huge, "f64 cannot represent this");
        // Near u64::MAX the old cast saturated at i64::MAX; the u128
        // intermediate keeps the true value.
        assert_eq!(
            scaled_saving(u64::MAX, 2.0),
            (u64::MAX as u128 * 2000 / 1000) as i128
        );
        assert!(scaled_saving(u64::MAX, 2.0) > i64::MAX as i128);
        // Degenerate margins clamp to zero instead of wrapping.
        assert_eq!(scaled_saving(u64::MAX, -1.0), 0);
        assert_eq!(scaled_saving(u64::MAX, f64::NAN), 0);
    }

    #[test]
    fn multi_tib_required_saving_plans_every_candidate() {
        // A saving target far beyond what the candidates can cover must
        // consume the whole ranking without wrapping into "satisfied".
        let p = profile(
            &[
                (1, 64 * MB, &[], 100, &[0, 900_000]),
                (2, 64 * MB, &[], 100, &[1_000, 800_000]),
            ],
            4 << 40,
        );
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert_eq!(plan.planned_saving, 128 * MB, "{plan:?}");
    }

    #[test]
    fn equal_timestamp_lane_items_order_by_key() {
        // Two identical-size items with identical timestamps: the lane
        // verdict must not depend on insertion order.
        let mk = |id: u64| LaneItem {
            key: TensorKey(id),
            t1_end: Time::from_micros(100),
            t2_start: Time::from_micros(50_000),
            out_time: Duration::from_micros(6_400),
            in_time: Duration::from_micros(6_400),
        };
        let (a, b) = (mk(1), mk(2));
        assert_eq!(lane_violation(&[a], &b), lane_violation(&[b], &a));
        let mut ab = Lanes::default();
        ab.accept(a);
        let mut ba = Lanes::default();
        ba.accept(b);
        assert_eq!(ab.price(&b), ba.price(&a));
        assert_eq!(ab.price(&b), lane_violation(&[a], &b));
    }

    /// The lane pricing [`Lanes`] replaced, kept as the differential
    /// reference: simulates both PCIe directions for `accepted ∪ {cand}`
    /// from scratch and returns the worst amount by which some prefetch
    /// must start before its data has finished swapping out.
    fn lane_violation(accepted: &[LaneItem], cand: &LaneItem) -> Duration {
        let mut items: Vec<LaneItem> = accepted.to_vec();
        items.push(*cand);
        let mut out_end: std::collections::BTreeMap<TensorKey, Time> = Default::default();
        items.sort_by_key(|i| (i.t1_end, i.key));
        let mut lane = Time::ZERO;
        for i in &items {
            let start = i.t1_end.max(lane);
            lane = start + i.out_time;
            out_end.insert(i.key, lane);
        }
        items.sort_by_key(|i| (std::cmp::Reverse(i.t2_start), i.key));
        let mut worst = Duration::ZERO;
        let mut lane_free: Option<Time> = None;
        for i in &items {
            let latest_end = match lane_free {
                Some(t) => i.t2_start.min(t),
                None => i.t2_start,
            };
            let start = latest_end.saturating_sub(i.in_time);
            let ready = out_end[&i.key];
            if ready > start {
                worst = worst.max(ready - start);
            }
            lane_free = Some(start);
        }
        worst
    }

    /// splitmix64, for building random inputs from one proptest seed.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A lane item on a coarse grid, so equal `t1_end`s, equal
    /// `t2_start`s and equal transfer times are common.
    fn grid_item(rng: &mut u64, key: u64) -> LaneItem {
        let t1 = mix(rng) % 6 * 1_000;
        let gap = 1 + mix(rng) % 8;
        LaneItem {
            key: TensorKey(key),
            t1_end: Time::from_micros(t1),
            t2_start: Time::from_micros(t1 + gap * 1_000),
            out_time: Duration::from_micros((1 + mix(rng) % 3) * 500),
            in_time: Duration::from_micros((1 + mix(rng) % 3) * 500),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Incremental lane pricing agrees with the from-scratch
        /// reference on every candidate, as the accepted set grows past
        /// violations and through equal-timestamp ties.
        #[test]
        fn incremental_lane_pricing_matches_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = seed;
            let n = 1 + mix(&mut rng) % 40;
            // Shuffled keys, so key order and acceptance order differ.
            let mut keys: Vec<u64> = (0..n + 8).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, (mix(&mut rng) % (i as u64 + 1)) as usize);
            }
            let mut lanes = Lanes::default();
            let mut accepted: Vec<LaneItem> = Vec::new();
            for &key in &keys[..n as usize] {
                let item = grid_item(&mut rng, key);
                for &probe in &keys[n as usize..] {
                    let probe = grid_item(&mut rng, probe);
                    proptest::prop_assert_eq!(lanes.price(&probe), lane_violation(&accepted, &probe));
                }
                proptest::prop_assert_eq!(lanes.price(&item), lane_violation(&accepted, &item));
                lanes.accept(item);
                accepted.push(item);
            }
        }

        /// One planning pass answers every budget exactly as re-planning
        /// per budget does, and the bisection over it lands on the same
        /// budget, on random lineage profiles under all four planner
        /// configurations.
        #[test]
        fn one_pass_feasibility_matches_per_budget_planning(seed in proptest::prelude::any::<u64>()) {
            let mut rng = seed;
            let est = random_estimate(&mut rng);
            for cfg in test_configs() {
                let curve = crate::footprint::FeasibilityCurve::new(&est, &cfg);
                for _ in 0..24 {
                    let budget = mix(&mut rng) % (est.ideal_peak + est.ideal_peak / 8);
                    let want = crate::footprint::shrink_feasibility(&est, budget, &cfg).feasible;
                    proptest::prop_assert_eq!(curve.feasible(budget), want);
                }
                proptest::prop_assert_eq!(
                    crate::footprint::min_feasible_budget(&est, &cfg),
                    bisect_shrink_feasibility(&est, &cfg)
                );
            }
        }
    }

    #[test]
    fn one_pass_min_feasible_budget_matches_bisection_on_the_zoo() {
        for model in capuchin_models::ModelKind::ALL {
            let graph = model.build(8).graph;
            let est = crate::footprint::measure_footprint(&graph, &DeviceSpec::p100_pcie3())
                .expect("unconstrained run");
            for cfg in test_configs() {
                assert_eq!(
                    crate::footprint::min_feasible_budget(&est, &cfg),
                    bisect_shrink_feasibility(&est, &cfg),
                    "{} under {cfg:?}",
                    model.name()
                );
            }
        }
    }

    /// The paper's default, DELTA, swap-only and recompute-only.
    fn test_configs() -> [PlannerConfig; 4] {
        let base = PlannerConfig::default();
        [
            base,
            PlannerConfig {
                delta_interleave: true,
                ..base
            },
            PlannerConfig {
                enable_recompute: false,
                ..base
            },
            PlannerConfig {
                enable_swap: false,
                ..base
            },
        ]
    }

    /// The `min_feasible_budget` search that re-planned per probe, kept
    /// as the differential reference.
    fn bisect_shrink_feasibility(
        est: &crate::footprint::FootprintEstimate,
        cfg: &PlannerConfig,
    ) -> u64 {
        let transient = est.transient_bytes();
        if transient == 0 {
            return est.ideal_peak;
        }
        let granularity = (transient / 64).max(1 << 20);
        let mut lo = est.weight_bytes;
        let mut hi = est.ideal_peak;
        while hi.saturating_sub(lo) > granularity {
            let mid = lo + (hi - lo) / 2;
            if crate::footprint::shrink_feasibility(est, mid, cfg).feasible {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// A random lineage profile: up to 24 tensors, each reading up to two
    /// earlier ones, with two to four accesses; a few are persistent
    /// weights and a few cannot be recomputed.
    fn random_estimate(rng: &mut u64) -> crate::footprint::FootprintEstimate {
        let n = 2 + mix(rng) % 23;
        // (key, size, inputs, op_duration_us, access_times_us), owned.
        type Row = (u64, u64, Vec<u64>, u64, Vec<u64>);
        let mut rows: Vec<Row> = Vec::new();
        for id in 0..n {
            let size = (1 + mix(rng) % 64) * MB;
            let inputs: Vec<u64> = (0..mix(rng) % 3)
                .filter(|_| id > 0)
                .map(|_| mix(rng) % id)
                .collect();
            let op_us = 10 + mix(rng) % 5_000;
            let mut times: Vec<u64> = (0..2 + mix(rng) % 3)
                .map(|_| mix(rng) % 50 * 1_000)
                .collect();
            times.sort_unstable();
            times.dedup();
            if times.len() < 2 {
                times.push(times[0] + 500);
            }
            rows.push((id, size, inputs, op_us, times));
        }
        let table: Vec<TensorRow<'_>> = rows
            .iter()
            .map(|(id, size, inputs, op_us, times)| (*id, *size, &inputs[..], *op_us, &times[..]))
            .collect();
        let mut p = profile(&table, 0);
        let mut weight_bytes = 0;
        for (id, size, ..) in &rows {
            let info = p.info.get_mut(&TensorKey(*id)).expect("row");
            match mix(rng) % 8 {
                0 => {
                    info.persistent = true;
                    weight_bytes += size;
                }
                1 => info.recomputable = false,
                _ => {}
            }
        }
        let ideal_peak = rows.iter().map(|r| r.1).sum();
        crate::footprint::FootprintEstimate {
            spec: spec(),
            ideal_peak,
            weight_bytes,
            iter_wall: Duration::ZERO,
            profile: p,
        }
    }

    #[test]
    fn pairs_outside_peak_window_are_not_candidates() {
        let mut p = profile(&[(1, 64 * MB, &[], 100, &[0, 900_000])], 64 * MB);
        // Peak window far away from the tensor's interval.
        p.peak_window = (Time::from_micros(2_000_000), Time::from_micros(3_000_000));
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn hybrid_picks_recompute_when_swap_exposed_and_replay_cheap() {
        // 256 MiB tensor with only a 10 ms gap: swap needs ~51 ms of
        // transfer, FT ≈ -41 ms. Recomputing costs 200 us. The hybrid
        // phase must choose recomputation.
        let p = profile(
            &[
                (0, MB, &[], 50, &[0, 9_000_000]), // alive parent (source)
                (1, 256 * MB, &[0], 200, &[1_000, 11_000]),
            ],
            256 * MB,
        );
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert!(plan.recompute_keys.contains(&TensorKey(1)), "{plan:?}");
        assert_eq!(plan.recompute_saving, 256 * MB);
    }

    #[test]
    fn hybrid_picks_swap_when_recompute_costlier() {
        // Same exposed tensor, but replaying it costs 80 ms > 41 ms of
        // exposed swap time: swap wins.
        let p = profile(
            &[
                (0, MB, &[], 50, &[0, 9_000_000]),
                (1, 256 * MB, &[0], 80_000, &[1_000, 11_000]),
            ],
            256 * MB,
        );
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert!(plan.swaps.contains_key(&TensorKey(1)), "{plan:?}");
        assert!(plan.recompute_keys.is_empty());
    }

    #[test]
    fn recompute_only_config_never_swaps() {
        let p = profile(
            &[
                (0, MB, &[], 50, &[0, 9_000_000]),
                (1, 64 * MB, &[0], 100, &[1_000, 900_000]),
            ],
            64 * MB,
        );
        let cfg = PlannerConfig {
            enable_swap: false,
            ..PlannerConfig::default()
        };
        let plan = make_plan(&p, &spec(), &cfg);
        assert!(plan.swaps.is_empty());
        assert!(plan.recompute_keys.contains(&TensorKey(1)));
    }

    #[test]
    fn algorithm2_source_update_lengthens_dependent_chains() {
        // Paper's example: lineage T1 -> T2 -> T3 -> T4, all short-gap so
        // swap is hopeless; T3 dies early (last access before the others'
        // back-accesses), so T4's initial sources are {T2} and T2's {T1}.
        // Savings require all three of T1, T2, T4; after T2 is confirmed
        // for recomputation it stops being a source, so T4's chain grows.
        let p = profile(
            &[
                (1, 512 * MB, &[], 1_000, &[0, 20_000]),
                (2, 512 * MB, &[1], 1_000, &[1_000, 21_000]),
                (3, 8 * MB, &[2], 10, &[2_000, 3_000]), // dead early
                (4, 512 * MB, &[3], 1_000, &[3_000, 22_000]),
            ],
            before_margin(3 * 512 * MB),
        );
        let cfg = PlannerConfig {
            enable_swap: false,
            ..PlannerConfig::default()
        };
        let plan = make_plan(&p, &spec(), &cfg);
        // All three big tensors must be recompute-planned.
        for id in [1u64, 2, 4] {
            assert!(
                plan.recompute_keys.contains(&TensorKey(id)),
                "t{id} missing from {plan:?}"
            );
        }
        // t3 (highest FT, tiny) may legitimately be chosen as well.
        assert!(plan.recompute_saving >= 3 * 512 * MB);
    }

    #[test]
    fn in_trigger_lands_before_swap_in_start() {
        // Tensor 1 swapped with back-access at 900 ms, swap-in ~6.5 ms.
        // Accesses of tensor 2 at 100..800 ms provide trigger points.
        let p = profile(
            &[
                (1, 64 * MB, &[], 100, &[0, 900_000]),
                (
                    2,
                    MB,
                    &[],
                    10,
                    &[100_000, 300_000, 600_000, 880_000, 899_000],
                ),
            ],
            64 * MB,
        );
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        let (trigger, targets) = plan
            .in_triggers
            .iter()
            .find(|(_, v)| v.contains(&TensorKey(1)))
            .expect("in-trigger installed");
        assert_eq!(targets, &vec![TensorKey(1)]);
        // The latest access before 900ms - 6.5ms(swap) is t2's 880ms one
        // (count 4).
        assert_eq!(*trigger, (TensorKey(2), 4));
    }

    #[test]
    fn feedback_lead_moves_trigger_earlier() {
        let p = profile(
            &[
                (1, 64 * MB, &[], 100, &[0, 900_000]),
                (
                    2,
                    MB,
                    &[],
                    10,
                    &[100_000, 300_000, 600_000, 880_000, 899_000],
                ),
            ],
            64 * MB,
        );
        let mut plan = make_plan(&p, &spec(), &PlannerConfig::default());
        // A huge lead pushes the trigger to an earlier access of t2.
        plan.lead.insert(TensorKey(1), Duration::from_millis(500));
        install_in_trigger(&mut plan, &p, TensorKey(1));
        let (trigger, _) = plan
            .in_triggers
            .iter()
            .find(|(_, v)| v.contains(&TensorKey(1)))
            .expect("in-trigger installed");
        assert_eq!(*trigger, (TensorKey(2), 2), "moved to the 300 ms access");
    }

    #[test]
    fn delta_picks_recompute_when_exposed_swap_costlier() {
        // Same scenario as the hybrid test: 256 MiB with a 10 ms gap
        // (exposed swap ≈ 41 ms) against a 200 us replay. The joint
        // ordering must reach the same verdict as the hybrid phase.
        let p = profile(
            &[
                (0, MB, &[], 50, &[0, 9_000_000]),
                (1, 256 * MB, &[0], 200, &[1_000, 11_000]),
            ],
            256 * MB,
        );
        let cfg = PlannerConfig {
            delta_interleave: true,
            ..PlannerConfig::default()
        };
        let plan = make_plan(&p, &spec(), &cfg);
        assert!(plan.recompute_keys.contains(&TensorKey(1)), "{plan:?}");
        assert_eq!(plan.recompute_saving, 256 * MB);
    }

    #[test]
    fn delta_keeps_free_swaps_when_lane_is_idle() {
        // A 900 ms reuse gap hides the 64 MiB transfer entirely (cost 0
        // per byte); replaying it costs 80 ms. Uncontended, the joint
        // ordering agrees with swaps-first.
        let p = profile(
            &[
                (0, MB, &[], 50, &[0, 9_000_000]),
                (1, 64 * MB, &[0], 80_000, &[1_000, 900_000]),
            ],
            64 * MB,
        );
        let cfg = PlannerConfig {
            delta_interleave: true,
            ..PlannerConfig::default()
        };
        let plan = make_plan(&p, &spec(), &cfg);
        assert!(plan.swaps.contains_key(&TensorKey(1)), "{plan:?}");
        assert!(plan.recompute_keys.is_empty());
    }

    #[test]
    fn delta_diverges_from_swaps_first_under_lane_saturation() {
        // Three 256 MiB tensors with back-accesses packed into an 80 ms
        // window: each swap alone has FT > 0 (gap ≈ 60 ms vs ≈ 54 ms of
        // transfer), but the shared PCIe lanes cannot carry all three
        // (25.6 ms per direction each), so later prefetches violate the
        // lane schedule. A 500 us replay is far cheaper than the
        // violation. Swaps-first commits the zero-violation prefix
        // greedily; the joint ordering recomputes the congested tensors
        // instead.
        let p = profile(
            &[
                (0, MB, &[], 50, &[0, 9_000_000]), // alive source
                (1, 256 * MB, &[0], 500, &[1_000, 60_000]),
                (2, 256 * MB, &[0], 500, &[2_000, 70_000]),
                (3, 256 * MB, &[0], 500, &[3_000, 80_000]),
            ],
            3 * 256 * MB,
        );
        let base = make_plan(&p, &spec(), &PlannerConfig::default());
        let delta = make_plan(
            &p,
            &spec(),
            &PlannerConfig {
                delta_interleave: true,
                ..PlannerConfig::default()
            },
        );
        // Both orderings must cover the saving.
        assert!(base.planned_saving >= 3 * 256 * MB, "{base:?}");
        assert!(delta.planned_saving >= 3 * 256 * MB, "{delta:?}");
        // The orderings choose different swap/recompute splits: FT-ranked
        // head-of-line processing keeps the *longest-gap* congested swap,
        // the joint ordering keeps whichever swap is cheapest per byte
        // after the lane fills.
        let base_swapped: Vec<TensorKey> = base.swaps.keys().copied().collect();
        let delta_swapped: Vec<TensorKey> = delta.swaps.keys().copied().collect();
        assert_ne!(
            base_swapped, delta_swapped,
            "orderings agreed despite saturation: {delta:?}"
        );
        // Determinism: planning twice yields the identical plan.
        let again = make_plan(
            &p,
            &spec(),
            &PlannerConfig {
                delta_interleave: true,
                ..PlannerConfig::default()
            },
        );
        assert_eq!(delta.swaps, again.swaps);
        assert_eq!(delta.recompute_keys, again.recompute_keys);
    }

    #[test]
    fn non_recomputable_chain_falls_back_to_swap() {
        // Tensor whose lineage bottoms at a non-recomputable input.
        let mut p = profile(
            &[
                (0, MB, &[], 50, &[0, 2_000]), // dies before back-access
                (1, 256 * MB, &[0], 200, &[1_000, 11_000]),
            ],
            256 * MB,
        );
        p.info.get_mut(&TensorKey(0)).unwrap().recomputable = false;
        let plan = make_plan(&p, &spec(), &PlannerConfig::default());
        assert!(plan.swaps.contains_key(&TensorKey(1)), "{plan:?}");
        assert!(plan.recompute_keys.is_empty());
    }
}
