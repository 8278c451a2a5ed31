//! Placement: which waiting job goes next, and onto which GPUs.
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
//! query) and read candidates lazily from an iterator.
//! [`StrategyKind::gang`] is the per-candidate half, which the elastic
//! pass calls directly for its ladder probes. `prop_scale` diffs both
//! strategies against a brute-force re-scan kept in that test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

    /// Rank key of a waiting job, compared descending: effective priority
    /// (aged by `aging_permille` per second since `arrival`) plus the SLO
    /// boost, then raw priority, then earlier queue entry, then lower job
    /// index. The job index breaks every tie, so the order is total. Both
    /// best-fit placement and the preemption pass's waiter order use it.
    pub(crate) fn rank(&self, now: Time, aging_permille: u64) -> RankKey {
        let waited = now.saturating_since(self.arrival);
        let eff = effective_priority_permille(self.priority, aging_permille, waited);
        (
            eff + self.boost_permille as u128,
            self.priority,
            Reverse(self.arrival.as_nanos()),
            Reverse(self.job),
        )
    }
}

/// See [`CandidateJob::rank`].
pub(crate) type RankKey = (u128, u32, Reverse<u64>, Reverse<usize>);

/// Permille fixed-point aging rate: `0.1` points/second becomes `100`.
/// Mirrors the planner's permille margin scaling so effective priorities
/// compare in exact integer arithmetic on every platform.
pub fn aging_permille(aging_rate: f64) -> u64 {
    (aging_rate * 1000.0).round().max(0.0) as u64
}

/// Effective priority in permille fixed point:
/// `priority × 1000 + aging_permille × waited_seconds`, computed exactly
/// over nanoseconds in u128 so comparisons are total and
/// platform-independent (the old `f64` compare could tie-break
/// differently across platforms once waits grew large).
pub fn effective_priority_permille(priority: u32, aging_permille: u64, waited: Duration) -> u128 {
    let aged = (aging_permille as u128).saturating_mul(waited.as_nanos() as u128) / 1_000_000_000;
    (priority as u128) * 1000 + aged
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
    ///
    /// FIFO reads only the first candidate, so a long backlog costs
    /// nothing to probe. Best-fit drops the candidates whose threshold
    /// clears no device, then pops the rest lazily from a heap in rank
    /// order (see [`StrategyKind::BestFit`]; priorities age by
    /// `aging_permille` per second waited) until one gets a gang. The job
    /// index breaks every tie, so its pick depends neither on candidate
    /// order nor on candidates that fit nowhere being left out.
    pub fn pick(
        self,
        cands: impl IntoIterator<Item = CandidateJob>,
        pool: &GpuPool,
        now: Time,
        aging_permille: u64,
    ) -> Option<(usize, Vec<usize>)> {
        let mut cands = cands.into_iter();
        if self == StrategyKind::FifoFirstFit {
            let head = cands.next()?;
            return Some((head.job, self.gang(&head, pool)?));
        }
        // Rank keys are computed once and popped lazily, so the common
        // cases are cheap: a no-fit probe is one scan with no sort, and a
        // first-candidate hit is a heapify plus a single pop.
        let cap = pool.max_headroom();
        let eligible: Vec<CandidateJob> = cands
            .filter(|c| c.fit_threshold().is_some_and(|t| t <= cap))
            .collect();
        let mut ranked: BinaryHeap<(RankKey, usize)> = eligible
            .iter()
            .enumerate()
            .map(|(i, c)| (c.rank(now, aging_permille), i))
            .collect();
        while let Some((_, i)) = ranked.pop() {
            if let Some(gang) = self.gang(&eligible[i], pool) {
                return Some((eligible[i].job, gang));
            }
        }
        None
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
        assert_eq!(aging_permille(0.1), 100);
        assert_eq!(
            effective_priority_permille(2, 100, Duration::from_micros(6_000_000)),
            2_600
        );
        // Sub-permille remainders truncate deterministically.
        assert_eq!(
            effective_priority_permille(0, 100, Duration::from_nanos(19)),
            0
        );
        // Extreme waits stay exact in u128 instead of losing precision.
        assert_eq!(
            effective_priority_permille(u32::MAX, u64::MAX, Duration::from_nanos(u64::MAX)),
            u32::MAX as u128 * 1000 + (u64::MAX as u128 * u64::MAX as u128) / 1_000_000_000
        );
    }
}
