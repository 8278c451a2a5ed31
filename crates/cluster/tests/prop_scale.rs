//! Scale-path invariants: the incremental headroom index and the indexed
//! placement picks must be *byte-identical* to a brute-force re-scan, on
//! arbitrary reservation histories. The re-scan lives here, not in the
//! library: [`pick_brute`] is the pre-index placement algorithm over a
//! materialized [`GpuView`] slice.
//!
//! 1. **Index = scan** — after any interleaving of reserve / partial
//!    release / full release (preempt) / regrow mutations, every
//!    [`GpuPool`] query (max, first-at-least, count-at-least, domain
//!    search) answers exactly what a linear scan answers.
//! 2. **Pick = brute pick** — for arbitrary candidate sets (singles and
//!    gangs, random priorities, arrivals and failed budgets) both
//!    strategies return the same `(job, gang)` through the indexed
//!    [`StrategyKind::pick`] as through [`pick_brute`], and the
//!    per-candidate [`StrategyKind::gang`] the elastic pass probes with
//!    matches a one-candidate brute pick.
//! 3. **Eligible-subset feed** — the cluster feeds best-fit only the
//!    candidates whose fit threshold clears the best headroom (a
//!    threshold-index range). Feeding that subset, in threshold order,
//!    must reproduce the full-queue pick exactly.
//! 4. **Same-seed determinism at scale** — a 64-GPU / 2k-job mixed
//!    workload over every scheduling feature produces byte-identical
//!    stats JSON and identical settle work counters run to run.
//! 5. **Victim = brute victim** — [`pick_victim`] names the same resident
//!    as [`victim_brute`], the pre-index preemption choice that ranks
//!    every waiter, then filters and sorts the residents per waiter and
//!    counts fitting devices by scanning.
//!
//! The hand-written cases below pin the strategies' semantics through
//! [`pick_both`], which runs both paths and asserts they agree.

use capuchin_cluster::strategy::{pick_victim, slo_boost_permille, ResidentView, SettleCounters};
use capuchin_cluster::{
    AdmissionMode, CandidateJob, Cluster, ClusterConfig, GpuPool, StrategyKind,
};
use capuchin_sim::Time;
use proptest::prelude::*;

/// A GPU as the brute-force reference path sees it.
#[derive(Debug, Clone, Copy)]
struct GpuView {
    /// Device index.
    idx: usize,
    /// Link domain the device belongs to.
    domain: usize,
    /// Total device memory.
    capacity: u64,
    /// Bytes currently reserved by resident jobs.
    reserved: u64,
}

impl GpuView {
    /// Unreserved bytes.
    fn headroom(&self) -> u64 {
        self.capacity.saturating_sub(self.reserved)
    }
}

/// Placement test the brute-force reference path uses: can one replica of
/// this job be admitted to this GPU right now?
type FitsFn<'a> = dyn Fn(&CandidateJob, &GpuView) -> bool + 'a;

/// The cluster's canonical fit predicate, phrased over a [`GpuView`]:
/// headroom clears [`CandidateJob::fit_threshold`].
fn threshold_fits(cand: &CandidateJob, gpu: &GpuView) -> bool {
    cand.fit_threshold().is_some_and(|t| gpu.headroom() >= t)
}

/// Materializes the brute-force [`GpuView`] slice of a pool.
fn views(pool: &GpuPool) -> Vec<GpuView> {
    (0..pool.len())
        .map(|idx| GpuView {
            idx,
            domain: pool.domain_of(idx),
            capacity: pool.capacity(idx),
            reserved: pool.reserved(idx),
        })
        .collect()
}

/// Leftover headroom after granting `min(headroom, full_need)`.
fn leftover(headroom: u64, full_need: u64) -> u64 {
    headroom - headroom.min(full_need)
}

/// The reference effective priority plus SLO boost, in permille: 0.1
/// points per second waited, as rate × wait over nanoseconds in u128 —
/// written apart from the library's one-division form so the diffs below
/// compare two implementations.
fn brute_priority(c: &CandidateJob, now: Time) -> u128 {
    let ns = now.saturating_since(c.arrival).as_nanos() as u128;
    c.priority as u128 * 1000 + 100 * ns / 1_000_000_000 + c.boost_permille as u128
}

/// Best-fit candidates sorted by descending effective priority.
fn ranked(pending: &[CandidateJob], now: Time) -> Vec<CandidateJob> {
    let mut order: Vec<CandidateJob> = pending.to_vec();
    order.sort_by(|a, b| {
        brute_priority(b, now)
            .cmp(&brute_priority(a, now))
            .then(b.priority.cmp(&a.priority))
            .then(a.arrival.cmp(&b.arrival))
            .then(a.job.cmp(&b.job))
    });
    order
}

/// The pre-index placement: re-scans every GPU per probe.
fn pick_brute(
    kind: StrategyKind,
    pending: &[CandidateJob],
    gpus: &[GpuView],
    now: Time,
    fits: &FitsFn<'_>,
) -> Option<(usize, Vec<usize>)> {
    if kind == StrategyKind::FifoFirstFit {
        let head = pending.first()?;
        let take: Vec<usize> = gpus
            .iter()
            .filter(|g| fits(head, g))
            .take(head.gpus.max(1))
            .map(|g| g.idx)
            .collect();
        return (take.len() == head.gpus.max(1)).then_some((head.job, take));
    }
    for cand in ranked(pending, now) {
        let k = cand.gpus.max(1);
        let mut fitting: Vec<&GpuView> = gpus.iter().filter(|g| fits(&cand, g)).collect();
        if fitting.len() < k {
            continue;
        }
        // Tightest-first within equal domains: best-fit per device.
        fitting.sort_by_key(|g| (leftover(g.headroom(), cand.full_need), g.idx));
        // Prefer a gang entirely inside one link domain. Among domains
        // wide enough, take the one whose k tightest GPUs leave the least
        // total headroom (ties: lowest domain).
        let mut domains: Vec<usize> = fitting.iter().map(|g| g.domain).collect();
        domains.sort_unstable();
        domains.dedup();
        let best_domain = domains
            .into_iter()
            .filter_map(|d| {
                let members: Vec<&&GpuView> =
                    fitting.iter().filter(|g| g.domain == d).take(k).collect();
                (members.len() == k).then(|| {
                    let total: u64 = members
                        .iter()
                        .map(|g| leftover(g.headroom(), cand.full_need))
                        .sum();
                    (total, d, members.iter().map(|g| g.idx).collect::<Vec<_>>())
                })
            })
            .min_by_key(|(total, d, _)| (*total, *d));
        if let Some((_, _, idxs)) = best_domain {
            return Some((cand.job, idxs));
        }
        // No single domain is wide enough: tightest k GPUs anywhere.
        return Some((cand.job, fitting[..k].iter().map(|g| g.idx).collect()));
    }
    None
}

/// A resident the brute-force victim reference may evict.
#[derive(Debug, Clone)]
struct Resident {
    job: usize,
    priority: u32,
    reserved: u64,
    /// Distinct devices the resident holds.
    gpus: Vec<usize>,
}

/// The pre-index preemption choice: rank every waiter; for each one that
/// fits nowhere as-is, filter the residents its effective priority
/// outranks, sort them by `(priority, job)` and take the first whose
/// eviction opens its full gang, counting fitting devices by scanning.
fn victim_brute(
    waiters: &[CandidateJob],
    residents: &[Resident],
    gpus: &[GpuView],
    now: Time,
) -> Option<usize> {
    let fits = |w: &CandidateJob, freed: Option<&Resident>| {
        let Some(t) = w.fit_threshold() else {
            return false;
        };
        let credit = |g: &GpuView| match freed {
            Some(v) if v.gpus.contains(&g.idx) => v.reserved,
            _ => 0,
        };
        let count = gpus
            .iter()
            .filter(|g| g.headroom() + credit(g) >= t)
            .count();
        count >= w.gpus.max(1)
    };
    for w in ranked(waiters, now) {
        if fits(&w, None) {
            continue;
        }
        let ep = brute_priority(&w, now);
        let mut victims: Vec<&Resident> = residents
            .iter()
            .filter(|v| (v.priority as u128) * 1000 < ep)
            .collect();
        victims.sort_by_key(|v| (v.priority, v.job));
        if let Some(v) = victims.into_iter().find(|v| fits(&w, Some(v))) {
            return Some(v.job);
        }
    }
    None
}

/// Candidate knobs: `(priority, arrival slot, gang width, full-need
/// eighths, min-need eighths, failed-budget eighths)`. Arrival slots are
/// 2.5 s apart, so at 0.1 points per second an earlier arrival can
/// outrank up to 1.75 points of static priority. Eighths are scaled
/// against the capacity menu below so thresholds land on, above and below
/// real headroom values.
type CandKnobs = (u32, u64, usize, u8, u8, Option<u8>);

const CAPS: &[u64] = &[64, 96, 128];

fn candidates_from(knobs: &[CandKnobs]) -> Vec<CandidateJob> {
    knobs
        .iter()
        .enumerate()
        .map(|(i, &(priority, slot, gpus, full8, min8, failed8))| {
            let full_need = 16 * full8 as u64;
            CandidateJob {
                gpus,
                // The cluster invariant: min never exceeds full.
                min_need: (16 * min8 as u64).min(full_need),
                failed_budget: failed8.map(|f| 16 * f as u64),
                ..cand(i, slot * 2_500_000, priority, full_need)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_queries_and_picks_match_brute_scan(
        shape in prop::collection::vec((0usize..CAPS.len(), 0usize..4), 1..20),
        // Each mutation is (device, new reservation in eighths of its
        // capacity): `0/8` is a full release (the preemption / completion
        // shape), climbing values are regrows, descending values are
        // partial releases — together an arbitrary interleaving.
        muts in prop::collection::vec((0usize..32, 0u8..9), 0..40),
        knobs in prop::collection::vec(
            // The last knob folds `Option` into an integer (0 = no
            // failed budget) — the vendored proptest has no option
            // combinator.
            (0u32..4, 0u64..8, 1usize..5, 0u8..9, 0u8..9, (0u8..10).prop_map(|v| v.checked_sub(1))),
            0..8,
        ),
        now_slot in 0u64..16,
    ) {
        let caps: Vec<u64> = shape.iter().map(|&(c, _)| CAPS[c]).collect();
        let domains: Vec<usize> = shape.iter().map(|&(_, d)| d).collect();
        let mut pool = GpuPool::new(caps.clone(), domains.clone());
        let mut shadow: Vec<u64> = vec![0; caps.len()];

        // (1) Replay the mutation history, diffing every query against
        // the shadow scan after each step.
        for &(g, eighths) in &muts {
            let g = g % caps.len();
            let reserved = caps[g] * eighths as u64 / 8;
            shadow[g] = reserved;
            pool.set_reserved(g, reserved);

            let head = |g: usize| caps[g] - shadow[g];
            let brute_max = (0..caps.len()).map(head).max().unwrap_or(0);
            prop_assert_eq!(pool.max_headroom(), brute_max);
            for t in [0u64, 1, 16, 48, 64, 96, 128, 129] {
                let fitting: Vec<usize> = (0..caps.len()).filter(|&i| head(i) >= t).collect();
                prop_assert_eq!(
                    pool.first_at_least(0, t),
                    fitting.first().copied(),
                    "first_at_least(0, {})", t
                );
                for limit in [0usize, 1, 2, caps.len() + 1] {
                    prop_assert_eq!(
                        pool.count_at_least(t, limit),
                        fitting.len().min(limit),
                        "count_at_least({}, {})", t, limit
                    );
                }
                let ndomains = domains.iter().max().map_or(0, |&d| d + 1);
                let brute_dom = (0..ndomains)
                    .find(|&d| (0..caps.len()).any(|i| domains[i] == d && head(i) >= t));
                prop_assert_eq!(
                    pool.next_domain_at_least(0, t),
                    brute_dom,
                    "next_domain_at_least(0, {})", t
                );
            }
        }

        // (2) Indexed pick == brute pick, for both strategies, on the
        // final pool state.
        let pending = candidates_from(&knobs);
        let views = views(&pool);
        let now = Time::from_micros(now_slot * 5_000_000);
        for kind in [StrategyKind::FifoFirstFit, StrategyKind::BestFit] {
            let mut work = SettleCounters::default();
            let indexed = kind.pick(pending.iter().copied(), &pool, now, &mut work);
            // FIFO reads the head only; best-fit reads every candidate once.
            let read = if kind == StrategyKind::BestFit { pending.len() } else { pending.len().min(1) };
            prop_assert_eq!((work.picks, work.candidates), (1, read as u64));
            let brute = pick_brute(kind, &pending, &views, now, &threshold_fits);
            prop_assert_eq!(
                indexed.clone(), brute,
                "{}: indexed pick diverged from brute scan", kind
            );
            // Picks are pure: the same inputs reproduce the same answer
            // (what makes the cluster's generation-keyed memoization of
            // ladder gang probes sound).
            let again = kind.pick(pending.iter().copied(), &pool, now, &mut work);
            prop_assert_eq!(indexed, again, "{}: pick is not a pure function", kind);
            // The gang chooser alone is a one-candidate pick, and it
            // finds a gang exactly when the one-probe fit test says so.
            for c in &pending {
                let brute = pick_brute(kind, &[*c], &views, now, &threshold_fits);
                prop_assert_eq!(c.fits(&pool), brute.is_some());
                prop_assert_eq!(kind.gang(c, &pool).map(|g| (c.job, g)), brute);
            }
        }

        // (3) The eligible-subset feed: exactly what the cluster's
        // threshold index hands best-fit — only candidates whose
        // threshold clears the best headroom, ordered by (threshold,
        // queue position) instead of queue position.
        let best = StrategyKind::BestFit;
        let cap = pool.max_headroom();
        let mut eligible: Vec<(u64, usize)> = pending
            .iter()
            .filter_map(|c| c.fit_threshold().filter(|&t| t <= cap).map(|t| (t, c.job)))
            .collect();
        eligible.sort_unstable();
        let mut work = SettleCounters::default();
        let full = best.pick(pending.iter().copied(), &pool, now, &mut work);
        let subset = best.pick(eligible.iter().map(|&(_, j)| pending[j]), &pool, now, &mut work);
        prop_assert_eq!(full, subset, "eligible-subset pick diverged from full-queue pick");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (5) The victim choice equals the brute-force reference on
    /// arbitrary pools, waiters (SLO boosts included) and residents.
    #[test]
    fn victim_choice_matches_sort_every_waiter_reference(
        shape in prop::collection::vec((0usize..CAPS.len(), 0usize..4, 0u8..9), 1..12),
        knobs in prop::collection::vec(
            (0u32..4, 0u64..8, 1usize..5, 0u8..9, 0u8..9, (0u8..10).prop_map(|v| v.checked_sub(1))),
            0..8,
        ),
        boosts in prop::collection::vec(prop_oneof![Just(0u64), 0u64..2001], 8..9),
        // (priority, reserved eighths, held devices before dedup)
        held in prop::collection::vec(
            (0u32..5, 0u8..9, prop::collection::vec(0usize..16, 1..4)),
            0..8,
        ),
        now_slot in 0u64..16,
    ) {
        let caps: Vec<u64> = shape.iter().map(|&(c, _, _)| CAPS[c]).collect();
        let mut pool = GpuPool::new(caps.clone(), shape.iter().map(|&(_, d, _)| d).collect());
        for (g, &(_, _, eighths)) in shape.iter().enumerate() {
            pool.set_reserved(g, caps[g] * eighths as u64 / 8);
        }
        let mut waiters = candidates_from(&knobs);
        for (w, &b) in waiters.iter_mut().zip(&boosts) {
            w.boost_permille = b;
        }
        let residents: Vec<Resident> = held
            .iter()
            .enumerate()
            .map(|(i, (priority, eighths, devs))| {
                let mut gpus: Vec<usize> = devs.iter().map(|&g| g % caps.len()).collect();
                gpus.sort_unstable();
                gpus.dedup();
                Resident { job: 100 + i, priority: *priority, reserved: 16 * *eighths as u64, gpus }
            })
            .collect();
        let now = Time::from_micros(now_slot * 5_000_000);
        // Residents arrive in reverse job order: the choice must not
        // depend on it.
        let views_of = residents.iter().rev().map(|r| ResidentView {
            job: r.job,
            priority: r.priority,
            reserved: r.reserved,
            gpus: &r.gpus,
        });
        let mut work = SettleCounters::default();
        let got = pick_victim(waiters.iter().copied(), views_of, &pool, now, &mut work);
        let want = victim_brute(&waiters, &residents, &views(&pool), now);
        prop_assert_eq!(got, want);
        prop_assert_eq!(work.preemption_checks, 1);
        prop_assert!(work.waiters <= waiters.len() as u64);
    }
}

/// (4) Same-seed determinism at the smoke scenario's scale, with every
/// scheduling feature on: the settle fast paths (fit floor, threshold
/// index, ladder memo) must not perturb a single byte of the stats JSON.
#[test]
fn same_seed_mixed_scale_run_is_byte_identical() {
    let jobs = capuchin_cluster::synthetic_mixed_jobs(2_000, 64, 7, 0.02);
    let cfg = || {
        ClusterConfig::builder()
            .gpus(64)
            .strategy(StrategyKind::BestFit)
            .admission(AdmissionMode::TfOri)
            .preemption(true)
            .elastic(true)
            .build()
            .expect("valid scale config")
    };
    let (mut ca, mut cb) = (Cluster::new(cfg()), Cluster::new(cfg()));
    let (a, b) = (ca.run(&jobs), cb.run(&jobs));
    assert_eq!(a.to_json(), b.to_json());
    // The settle work counters are as deterministic as the stats.
    let work = ca.settle_counters();
    assert_eq!(work, cb.settle_counters());
    assert!(work.picks > 0 && work.candidates >= work.picks, "{work:?}");
    assert!(work.preemption_checks > 0, "{work:?}");
    assert!(
        a.jobs.len() == 2_000,
        "every submitted job must appear in the stats"
    );
}

const FIFO: StrategyKind = StrategyKind::FifoFirstFit;
const BEST: StrategyKind = StrategyKind::BestFit;
const T0: Time = Time::ZERO;

fn cand(job: usize, arrival_us: u64, priority: u32, need: u64) -> CandidateJob {
    CandidateJob {
        job,
        arrival: Time::from_micros(arrival_us),
        priority,
        gpus: 1,
        full_need: need,
        min_need: need,
        failed_budget: None,
        boost_permille: 0,
    }
}

fn gang(job: usize, gpus: usize, need: u64) -> CandidateJob {
    CandidateJob {
        gpus,
        ..cand(job, 0, 0, need)
    }
}

fn gpu(idx: usize, capacity: u64, reserved: u64) -> GpuView {
    GpuView {
        idx,
        domain: idx,
        capacity,
        reserved,
    }
}

fn pool_of(gpus: &[GpuView]) -> GpuPool {
    let mut p = GpuPool::new(
        gpus.iter().map(|g| g.capacity).collect(),
        gpus.iter().map(|g| g.domain).collect(),
    );
    for g in gpus {
        p.set_reserved(g.idx, g.reserved);
    }
    p
}

/// Runs the indexed pick and asserts it matches the brute reference.
fn pick_both(
    kind: StrategyKind,
    pending: &[CandidateJob],
    gpus: &[GpuView],
    now: Time,
) -> Option<(usize, Vec<usize>)> {
    let pool = pool_of(gpus);
    let work = &mut SettleCounters::default();
    let indexed = kind.pick(pending.iter().copied(), &pool, now, work);
    let brute = pick_brute(kind, pending, gpus, now, &threshold_fits);
    assert_eq!(indexed, brute, "indexed pick diverged from brute scan");
    indexed
}

#[test]
fn fifo_blocks_behind_head_of_line() {
    let pending = [cand(0, 0, 0, 100), cand(1, 1, 5, 10)];
    let gpus = [gpu(0, 50, 0)];
    // Head needs 100, only 50 free: FIFO waits even though job 1 fits.
    assert_eq!(pick_both(FIFO, &pending, &gpus, T0), None);
    let roomy = [gpu(0, 40, 0), gpu(1, 200, 0)];
    assert_eq!(pick_both(FIFO, &pending, &roomy, T0), Some((0, vec![1])));
}

#[test]
fn fifo_gang_waits_for_full_width() {
    let pending = [gang(0, 2, 100)];
    // Only one GPU fits: the gang blocks rather than taking half.
    let tight = [gpu(0, 150, 0), gpu(1, 50, 0)];
    assert_eq!(pick_both(FIFO, &pending, &tight, T0), None);
    let roomy = [gpu(0, 150, 0), gpu(1, 50, 0), gpu(2, 150, 0)];
    assert_eq!(pick_both(FIFO, &pending, &roomy, T0), Some((0, vec![0, 2])));
}

#[test]
fn best_fit_minimizes_leftover_and_respects_priority() {
    let pending = [cand(0, 0, 0, 100), cand(1, 1, 5, 10)];
    let gpus = [gpu(0, 50, 0), gpu(1, 12, 0)];
    // Priority 5 job goes first, onto the tighter GPU (leftover 2 beats
    // leftover 40).
    assert_eq!(pick_both(BEST, &pending, &gpus, T0), Some((1, vec![1])));
}

#[test]
fn best_fit_prefers_same_domain_gangs() {
    let pending = [gang(0, 2, 100)];
    // Domain 0 = {0, 1}, domain 1 = {2, 3}. GPUs 1 and 2 are the two
    // tightest, but they span domains; GPUs 2 and 3 share domain 1.
    let mk = |idx, domain, cap| GpuView {
        idx,
        domain,
        capacity: cap,
        reserved: 0,
    };
    let gpus = [mk(0, 0, 400), mk(1, 0, 110), mk(2, 1, 105), mk(3, 1, 300)];
    assert_eq!(pick_both(BEST, &pending, &gpus, T0), Some((0, vec![2, 3])));
    // When no domain holds the full width, fall back to the tightest GPUs
    // anywhere.
    let split = [mk(0, 0, 110), mk(1, 1, 105), mk(2, 2, 300)];
    assert_eq!(pick_both(BEST, &pending, &split, T0), Some((0, vec![1, 0])));
}

#[test]
fn failed_budget_blocks_and_unblocks_through_threshold() {
    // Validation failed at 40 with full need 100: only headroom > 40
    // qualifies, and a failure at or above full need blocks entirely.
    let mut c = cand(0, 0, 0, 100);
    c.min_need = 30;
    c.failed_budget = Some(40);
    assert_eq!(c.fit_threshold(), Some(41));
    let gpus = [gpu(0, 40, 0), gpu(1, 41, 0)];
    assert_eq!(pick_both(FIFO, &[c], &gpus, T0), Some((0, vec![1])));
    c.failed_budget = Some(100);
    assert_eq!(c.fit_threshold(), None);
    assert_eq!(pick_both(FIFO, &[c], &gpus, T0), None);
}

#[test]
fn aging_protects_old_jobs_from_fresh_urgent_arrivals() {
    // A priority-0 job waiting since t=0 against a priority-3 job arriving
    // now, at 0.1 points per second.
    let at = |secs: u64| Time::from_micros(secs * 1_000_000);
    let pending = |secs: u64| [cand(0, 0, 0, 10), cand(1, secs * 1_000_000, 3, 10)];
    let gpus = [gpu(0, 10, 0)];
    // 25 s of waiting (2500 permille) fall short of the newcomer's
    // 3-point edge...
    assert_eq!(
        pick_both(BEST, &pending(25), &gpus, at(25)),
        Some((1, vec![0]))
    );
    // ...40 s (4000 permille) outweigh it.
    assert_eq!(
        pick_both(BEST, &pending(40), &gpus, at(40)),
        Some((0, vec![0]))
    );
}

#[test]
fn slo_boost_outranks_equal_priority_and_is_capped() {
    // No SLO or no waiting request: no boost.
    assert_eq!(slo_boost_permille(0, 1_000_000), 0);
    assert_eq!(slo_boost_permille(1_000_000, 0), 0);
    // Half the SLO burned = half a priority point; fully burned = one.
    assert_eq!(slo_boost_permille(200_000_000, 100_000_000), 500);
    assert_eq!(slo_boost_permille(200_000_000, 200_000_000), 1000);
    // Capped at two points even when hopelessly late, and exact in u128
    // at extreme waits.
    assert_eq!(slo_boost_permille(1, u64::MAX), 2000);
    // A boosted candidate outranks an equal-priority unboosted one on
    // both placement paths...
    let mut boosted = cand(0, 0, 1, 10);
    boosted.boost_permille = 500;
    let pending = [cand(1, 0, 1, 10), boosted];
    let gpus = [gpu(0, 10, 0)];
    assert_eq!(pick_both(BEST, &pending, &gpus, T0), Some((0, vec![0])));
    // ...but never outranks strictly higher static priority by more than
    // its capped two points.
    let urgent = [cand(1, 0, 4, 10), boosted];
    assert_eq!(pick_both(BEST, &urgent, &gpus, T0), Some((1, vec![0])));
}

/// Runs [`pick_victim`] and asserts it matches [`victim_brute`].
fn victim_both(
    waiters: &[CandidateJob],
    residents: &[Resident],
    gpus: &[GpuView],
    now: Time,
) -> Option<usize> {
    let views = residents.iter().map(|r| ResidentView {
        job: r.job,
        priority: r.priority,
        reserved: r.reserved,
        gpus: &r.gpus,
    });
    let mut work = SettleCounters::default();
    let pool = pool_of(gpus);
    let got = pick_victim(waiters.iter().copied(), views, &pool, now, &mut work);
    assert_eq!(got, victim_brute(waiters, residents, gpus, now));
    got
}

#[test]
fn a_victim_needs_strictly_lower_priority_and_must_open_the_gang() {
    let resident = |job, priority, gpus: &[usize]| Resident {
        job,
        priority,
        reserved: 60,
        gpus: gpus.to_vec(),
    };
    // Two full 64-byte devices; the waiter needs 50 on each of two.
    let gpus = [gpu(0, 64, 60), gpu(1, 64, 60)];
    let waiter = [gang(0, 2, 50)];
    // Equal priority is never evicted; one device freed is not a gang.
    let equal = [resident(10, 0, &[0, 1])];
    assert_eq!(victim_both(&waiter, &equal, &gpus, T0), None);
    let half = [resident(11, 0, &[0])];
    let urgent = [CandidateJob {
        priority: 1,
        ..waiter[0]
    }];
    assert_eq!(victim_both(&urgent, &half, &gpus, T0), None);
    // A whole-gang victim of lower priority opens both devices; among
    // equal priorities the lower job index goes first.
    let both = [resident(13, 0, &[0, 1]), resident(12, 0, &[0, 1])];
    assert_eq!(victim_both(&urgent, &both, &gpus, T0), Some(12));
    // A waiter that fits as-is evicts nobody.
    let roomy = [gpu(0, 64, 0), gpu(1, 64, 0)];
    assert_eq!(victim_both(&urgent, &both, &roomy, T0), None);
}
