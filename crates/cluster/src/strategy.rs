//! Placement: which waiting job goes next, and onto which GPUs; and
//! preemption: which resident a waiter may evict.
//!
//! [`StrategyKind::pick`] looks at waiting candidates and the per-GPU
//! headroom and names the next placement: a job plus the full set of
//! GPUs its gang occupies — or `None` when nothing placeable exists. The
//! cluster core owns admission and reservation bookkeeping; placement
//! only orders the search. Returning the whole GPU set at once is what
//! makes gang reservation atomic: the cluster grants every listed GPU in
//! one step of its single-threaded event loop, so a gang can never hold a
//! partial reservation that deadlocks against another job.
//!
//! Picks probe the [`GpuPool`] headroom index (O(log gpus) per device
//! query) and read candidates once from an iterator: best-fit is one
//! scan for the highest-ranked candidate whose gang exists, and the gang
//! search runs on that winner only. [`StrategyKind::gang`] is the
//! per-candidate half, which the elastic pass calls directly for its
//! ladder probes. [`pick_victim`] is the preemption pass's choice, over
//! the same rank order. `prop_scale` diffs both strategies and the victim
//! choice against brute-force re-scans kept in that test.

use std::cmp::Reverse;

use capuchin_sim::{Duration, Time};

use crate::headroom::GpuPool;

/// A waiting job as the strategy sees it.
#[derive(Debug, Clone, Copy)]
pub struct CandidateJob {
    /// Job index in the cluster's submission order.
    pub job: usize,
    /// When the job arrived (for FIFO order and priority aging).
    pub arrival: Time,
    /// Static priority from the job spec.
    pub priority: u32,
    /// GPUs the gang needs at once (1 for a single-device job).
    pub gpus: usize,
    /// Ideal-peak reservation *per replica* (no management overhead).
    pub full_need: u64,
    /// Smallest admissible per-replica reservation (equals `full_need`
    /// under tf-ori admission).
    pub min_need: u64,
    /// Largest budget at which a validation run has already failed; the
    /// cluster refuses to retry at or below it.
    pub failed_budget: Option<u64>,
    /// SLO-slack boost in permille priority points (see
    /// [`slo_boost_permille`]); 0 for training jobs and under SLO-blind
    /// scheduling. Added on top of the aged effective priority.
    pub boost_permille: u64,
}

impl CandidateJob {
    /// Minimum headroom a GPU must expose for one replica of this job, or
    /// `None` when no headroom suffices (a validation already failed at or
    /// above `full_need`, so every grant the cluster could make —
    /// `min(headroom, full_need)` — is refused).
    ///
    /// The cluster's fit predicate is `headroom >= min_need` and
    /// `min(headroom, full_need) > failed_budget`; both clauses are
    /// monotone in headroom, which is what lets the [`GpuPool`] index
    /// answer placement with threshold queries instead of per-GPU scans.
    pub fn fit_threshold(&self) -> Option<u64> {
        match self.failed_budget {
            Some(fb) if fb >= self.full_need => None,
            Some(fb) => Some(self.min_need.max(fb + 1)),
            None => Some(self.min_need),
        }
    }

    /// Whether `pool` has this job's gang width of devices clearing its
    /// fit threshold: exactly when either strategy's
    /// [`StrategyKind::gang`] exists, since best-fit falls back to
    /// devices across domains. One index probe, no gang search.
    pub fn fits(&self, pool: &GpuPool) -> bool {
        let k = self.gpus.max(1);
        matches!(self.fit_threshold(), Some(t) if pool.count_at_least(t, k) >= k)
    }

    /// Rank key of a waiting job, compared descending: effective priority
    /// (aged since `arrival`, see [`effective_priority_permille`]) plus the
    /// SLO boost, then raw priority, then earlier queue entry, then lower
    /// job index. The job index breaks every tie, so the order is total.
    /// Both best-fit placement and the preemption pass's waiter order use
    /// it.
    pub(crate) fn rank(&self, now: Time) -> RankKey {
        let waited = now.saturating_since(self.arrival);
        (
            effective_priority_permille(self.priority, waited) + self.boost_permille,
            self.priority,
            Reverse(self.arrival.as_nanos()),
            Reverse(self.job),
        )
    }
}

/// See [`CandidateJob::rank`].
pub(crate) type RankKey = (u64, u32, Reverse<u64>, Reverse<usize>);

/// Waiting time that ages a job by one permille of a priority point:
/// 10 ms, so priorities age by 0.1 points per second waited.
const AGING_NS_PER_PERMILLE: u64 = 10_000_000;

/// Effective priority in permille fixed point: `priority × 1000` plus one
/// permille per 10 ms waited, in exact integer arithmetic so comparisons
/// are total and platform-independent. It fits in u64 for every priority
/// and wait: at most `u32::MAX × 1000 + u64::MAX / 10⁷`, below 2⁴³.
pub fn effective_priority_permille(priority: u32, waited: Duration) -> u64 {
    priority as u64 * 1000 + waited.as_nanos() / AGING_NS_PER_PERMILLE
}

/// SLO-slack priority boost in permille fixed point: the fraction of its
/// latency SLO the oldest pending request has already burned, capped at
/// two full priority points. `boost = min(waited × 1000 / slo, 2000)`,
/// computed exactly over integer nanoseconds in u128 — so an inference
/// job whose oldest request has consumed its whole SLO outranks a
/// same-priority training job by one point, and the cap keeps a deeply
/// late job from starving everything above it forever (aging still
/// resolves those). Returns 0 when `slo_ns` is 0 (training jobs) or no
/// request waits.
pub fn slo_boost_permille(slo_ns: u64, oldest_wait_ns: u64) -> u64 {
    if slo_ns == 0 || oldest_wait_ns == 0 {
        return 0;
    }
    ((oldest_wait_ns as u128 * 1000 / slo_ns as u128).min(2000)) as u64
}

/// Placement strategy: which waiting job goes next, and onto which GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Strict arrival order with head-of-line blocking: only the oldest
    /// waiting job is considered, placed on the first GPUs it fits (index
    /// order). A gang waits until its full width fits at once.
    FifoFirstFit,
    /// Best-fit memory bin-packing with priority aging: waiting jobs are
    /// tried by descending aged priority plus SLO boost (ties broken by
    /// raw priority, then arrival, then submission order), and each is
    /// placed on the fitting GPU subset that leaves the least leftover
    /// headroom. Gangs prefer a subset inside one link domain — a
    /// same-domain gang allreduces over its private peer lane instead of
    /// loading the shared host link — falling back to the tightest
    /// cross-domain subset when no single domain has the width.
    BestFit,
}

impl StrategyKind {
    /// Accepted [`std::str::FromStr`] spellings, canonical first.
    pub const ACCEPTED: &'static [&'static str] =
        &["fifo", "best-fit", "fifo-first-fit", "bestfit"];

    /// CLI/stats name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::FifoFirstFit => "fifo-first-fit",
            StrategyKind::BestFit => "best-fit",
        }
    }

    /// Picks the next placement among `cands`: `(job, gpus)` with exactly
    /// the job's gang width of distinct fitting GPUs, or `None` to wait.
    /// The cluster reserves every returned GPU atomically — all or none.
    /// `work` counts the pick and the candidates it read.
    ///
    /// FIFO reads only the first candidate, so a long backlog costs
    /// nothing to probe. Best-fit scans the candidates once for the
    /// highest-ranked one (see [`StrategyKind::BestFit`]; priorities age
    /// by 0.1 points per second waited) whose gang exists
    /// ([`CandidateJob::fits`]). The device count is probed only for a
    /// candidate that outranks the best so far, and the gang search runs
    /// once, on the winner. The job index breaks every tie, so the pick depends
    /// neither on candidate order nor on candidates that fit nowhere
    /// being left out.
    pub fn pick(
        self,
        cands: impl IntoIterator<Item = CandidateJob>,
        pool: &GpuPool,
        now: Time,
        work: &mut SettleCounters,
    ) -> Option<(usize, Vec<usize>)> {
        work.picks += 1;
        let mut cands = cands.into_iter().inspect(|_| work.candidates += 1);
        if self == StrategyKind::FifoFirstFit {
            let head = cands.next()?;
            return Some((head.job, self.gang(&head, pool)?));
        }
        let mut best: Option<(RankKey, CandidateJob)> = None;
        for c in cands {
            let key = c.rank(now);
            if best.as_ref().is_none_or(|(b, _)| key > *b) && c.fits(pool) {
                best = Some((key, c));
            }
        }
        best.and_then(|(_, c)| Some((c.job, self.gang(&c, pool)?)))
    }

    /// The GPUs this strategy gives `cand` on the current pool, or `None`
    /// when fewer than its gang width clear its fit threshold: FIFO takes
    /// the first fitting devices by index ([`GpuPool::first_fit`]),
    /// best-fit the tightest same-domain set, else the tightest devices
    /// across domains. A function of the pool and the candidate's width
    /// and needs only — never of its identity, arrival or priority.
    pub fn gang(self, cand: &CandidateJob, pool: &GpuPool) -> Option<Vec<usize>> {
        let threshold = cand.fit_threshold()?;
        let k = cand.gpus.max(1);
        match self {
            StrategyKind::FifoFirstFit => pool.first_fit(threshold, k),
            StrategyKind::BestFit => tightest_gang(pool, threshold, k, cand.full_need),
        }
    }
}

/// Leftover headroom after granting `min(headroom, full_need)`.
fn leftover(headroom: u64, full_need: u64) -> u64 {
    headroom - headroom.min(full_need)
}

/// Best-fit's gang: enumerate fitting GPUs domain by domain, skipping
/// domains whose best device falls short. Each domain's `k` tightest
/// members compete for the same-domain preference (least total leftover,
/// ties to the lowest domain); all fitting devices feed the cross-domain
/// fallback.
fn tightest_gang(pool: &GpuPool, threshold: u64, k: usize, full_need: u64) -> Option<Vec<usize>> {
    let mut fitting: Vec<(u64, usize)> = Vec::new();
    let mut best: Option<(u64, usize, Vec<usize>)> = None;
    let mut next = 0;
    while let Some(d) = pool.next_domain_at_least(next, threshold) {
        next = d + 1;
        let mut members: Vec<(u64, usize)> = pool
            .domain_members(d)
            .iter()
            .filter_map(|&g| {
                let h = pool.headroom(g);
                (h >= threshold).then(|| (leftover(h, full_need), g))
            })
            .collect();
        members.sort_unstable();
        if members.len() >= k {
            let total: u64 = members[..k].iter().map(|&(l, _)| l).sum();
            if best
                .as_ref()
                .is_none_or(|&(bt, bd, _)| (total, d) < (bt, bd))
            {
                best = Some((total, d, members[..k].iter().map(|&(_, g)| g).collect()));
            }
        }
        fitting.append(&mut members);
    }
    if let Some((_, _, idxs)) = best {
        return Some(idxs);
    }
    // No single domain is wide enough: tightest k anywhere.
    (fitting.len() >= k).then(|| {
        fitting.sort_unstable();
        fitting[..k].iter().map(|&(_, g)| g).collect()
    })
}

/// A running, non-serving resident as the preemption pass sees it.
#[derive(Debug, Clone, Copy)]
pub struct ResidentView<'a> {
    /// Job index in the cluster's submission order.
    pub job: usize,
    /// Static priority from the job spec.
    pub priority: u32,
    /// Per-replica reservation its eviction frees on every held device.
    pub reserved: u64,
    /// The devices its gang holds.
    pub gpus: &'a [usize],
}

/// Integer work counters of the settle passes, summed over a session.
/// They count what the passes examined, not time, so same-seed runs read
/// the same. They stay out of [`crate::ClusterStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SettleCounters {
    /// Placement picks made.
    pub picks: u64,
    /// Waiting candidates those picks read.
    pub candidates: u64,
    /// Preemption victim searches ([`pick_victim`] calls).
    pub preemption_checks: u64,
    /// Waiters those searches examined.
    pub waiters: u64,
    /// Victims probed against a waiter's gang.
    pub victim_probes: u64,
}

/// Selects a preemption victim, or `None` when preemption cannot help.
///
/// `waiters` are the fresh waiting jobs (a checkpointed job queues for
/// natural space; letting it preempt would ping-pong), `residents` the
/// running, non-serving residents (checkpointing a serving job
/// mid-request would strand its in-flight latencies). For each waiter,
/// in the order [`StrategyKind::BestFit`] tries them (SLO boost included):
/// if its gang fits nowhere as-is, the lowest-static-priority resident
/// (ties to the lower job index) whose eviction would open enough
/// devices for the waiter's full gang wins, provided its priority × 1000
/// sits strictly below the waiter's effective priority. A victim gang is
/// evicted whole or not at all.
///
/// Residents are read only once a waiter needs a victim, and sorted once
/// by `(priority, job)`; each waiter walks the prefix its effective
/// priority admits. The fit predicate is monotone in headroom, so a
/// waiter's base count is one index probe, and a victim's held devices,
/// the only ones its eviction changes (all below the threshold, so
/// disjoint from the base count), are credited one by one.
pub fn pick_victim<'a>(
    waiters: impl IntoIterator<Item = CandidateJob>,
    residents: impl IntoIterator<Item = ResidentView<'a>>,
    pool: &GpuPool,
    now: Time,
    work: &mut SettleCounters,
) -> Option<usize> {
    work.preemption_checks += 1;
    let ranked = |c: CandidateJob| (c.rank(now), c);
    let mut waiters: Vec<_> = waiters.into_iter().map(ranked).collect();
    waiters.sort_unstable_by_key(|&(key, _)| Reverse(key));
    let (mut residents, mut victims) = (Some(residents), Vec::new());
    for ((ep, ..), w) in waiters {
        work.waiters += 1;
        // A failed budget at or above the full need: no headroom, freed
        // or not, can ever satisfy this waiter.
        let Some(t) = w.fit_threshold() else { continue };
        let width = w.gpus.max(1);
        let base = pool.count_at_least(t, width);
        if base >= width {
            // Placeable without violence; the pick just chose not to
            // (e.g. FIFO head-of-line). Preemption is not the tool.
            continue;
        }
        if let Some(r) = residents.take() {
            victims.extend(r);
            victims.sort_unstable_by_key(|v: &ResidentView| (v.priority, v.job));
        }
        let outranked = |v: &&ResidentView| v.priority as u64 * 1000 < ep;
        for v in victims.iter().take_while(outranked) {
            work.victim_probes += 1;
            // Held devices just below the threshold that the eviction lifts.
            let up = t.saturating_sub(v.reserved)..t;
            let freed = v.gpus.iter().filter(|&&g| up.contains(&pool.headroom(g)));
            if base + freed.count() >= width {
                return Some(v.job);
            }
        }
    }
    None
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = crate::parse::ParseEnumError;

    fn from_str(s: &str) -> Result<StrategyKind, crate::parse::ParseEnumError> {
        match s {
            "fifo" | "fifo-first-fit" => Ok(StrategyKind::FifoFirstFit),
            "best-fit" | "bestfit" => Ok(StrategyKind::BestFit),
            other => Err(crate::parse::ParseEnumError::unknown(
                "placement strategy",
                other,
                Self::ACCEPTED,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kind_round_trips_through_fromstr_and_display() {
        for k in [StrategyKind::FifoFirstFit, StrategyKind::BestFit] {
            assert_eq!(k.to_string().parse::<StrategyKind>(), Ok(k));
        }
        assert_eq!("fifo".parse(), Ok(StrategyKind::FifoFirstFit));
        assert_eq!("bestfit".parse(), Ok(StrategyKind::BestFit));
        let err = "random".parse::<StrategyKind>().unwrap_err();
        assert!(err.to_string().contains("fifo, best-fit"), "{err}");
    }

    #[test]
    fn effective_priority_is_exact_integer_permille() {
        // 0.1/s aging over 6 seconds = 600 permille, computed exactly.
        assert_eq!(
            effective_priority_permille(2, Duration::from_micros(6_000_000)),
            2_600
        );
        // Sub-permille remainders truncate deterministically.
        assert_eq!(effective_priority_permille(0, Duration::from_nanos(19)), 0);
        // The largest priority and wait still fit in u64.
        assert_eq!(
            effective_priority_permille(u32::MAX, Duration::from_nanos(u64::MAX)),
            u32::MAX as u64 * 1000 + u64::MAX / 10_000_000
        );
    }

    /// The one division by 10 ms equals the rate-times-wait formula at
    /// 0.1 points per second (`100 × ns / 10⁹`, in u128) exactly, on both
    /// sides of every 10 ms step and at the longest wait.
    #[test]
    fn aging_one_division_equals_the_rate_times_wait_formula() {
        let u128_formula = |p: u32, ns: u64| p as u128 * 1000 + 100 * ns as u128 / 1_000_000_000;
        let mut waits = vec![0, 1, u64::MAX - 1, u64::MAX];
        for steps in [1u64, 2, 7, 100, 6_000, 1 << 40, u64::MAX / 10_000_000] {
            let at = steps * 10_000_000;
            waits.extend([at - 1, at, at.saturating_add(1)]);
        }
        for ns in waits {
            for p in [0u32, 3, u32::MAX] {
                assert_eq!(
                    effective_priority_permille(p, Duration::from_nanos(ns)) as u128,
                    u128_formula(p, ns),
                    "priority {p}, waited {ns} ns"
                );
            }
        }
    }
}
