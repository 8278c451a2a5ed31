//! Incremental free-headroom index over the cluster's GPUs.
//!
//! Placement probes used to re-scan every GPU on every scheduling pass —
//! O(gpus) per probe, fatal at the 1k-GPU / 100k-job target. [`GpuPool`]
//! keeps per-device headroom under two max segment trees (one over device
//! index, one over link domains) that are updated in O(log n) whenever a
//! reservation changes, so a strategy can answer "first device with at
//! least T bytes free", "how many devices clear T (up to a limit)", and
//! "next domain holding a device that clears T" without touching devices
//! that cannot fit. A generation counter increments on every mutation and
//! keys the settle pass's skip: a `None` pick stays `None` exactly as
//! long as the generation (and the queue) is unchanged.
//!
//! The index answers the same fit question a per-GPU scan asks, because
//! the cluster's fit predicate is monotone in headroom: a job fits a GPU
//! iff `headroom >= T` for a per-job threshold `T` (see
//! [`crate::CandidateJob::fit_threshold`]). The pool is also the one
//! reservation ledger: per-GPU stats read capacity and reservation here.
//! `prop_scale` keeps the index honest by diffing its queries and picks
//! against a brute-force scan on arbitrary reserve/release interleavings.

/// Iterative max segment tree over a fixed-length array of `u64`.
///
/// Leaves live at `tree[size..size + len]`; missing leaves (when `len` is
/// not a power of two) read as 0, which is safe because headroom is
/// non-negative and queries search for values `>= T` with `T >= 1`
/// (a threshold of 0 is answered without the tree).
#[derive(Debug, Clone)]
struct MaxTree {
    len: usize,
    size: usize,
    tree: Vec<u64>,
}

impl MaxTree {
    fn new(values: &[u64]) -> MaxTree {
        let len = values.len();
        let size = len.next_power_of_two().max(1);
        let mut tree = vec![0u64; 2 * size];
        tree[size..size + len].copy_from_slice(values);
        for i in (1..size).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        MaxTree { len, size, tree }
    }

    fn get(&self, i: usize) -> u64 {
        self.tree[self.size + i]
    }

    fn set(&mut self, i: usize, v: u64) {
        let mut n = self.size + i;
        self.tree[n] = v;
        while n > 1 {
            n /= 2;
            self.tree[n] = self.tree[2 * n].max(self.tree[2 * n + 1]);
        }
    }

    fn max(&self) -> u64 {
        self.tree[1]
    }

    /// Smallest index `>= from` whose value is `>= min`, by descending
    /// from the root and pruning subtrees that end before `from` or whose
    /// max falls short. O(log² n) worst case, O(log n) typical.
    fn first_at_least(&self, from: usize, min: u64) -> Option<usize> {
        if from >= self.len || self.tree[1] < min {
            return None;
        }
        self.descend(1, 0, self.size, from, min)
    }

    fn descend(&self, node: usize, lo: usize, hi: usize, from: usize, min: u64) -> Option<usize> {
        if hi <= from || self.tree[node] < min {
            return None;
        }
        if node >= self.size {
            return (node - self.size < self.len).then_some(node - self.size);
        }
        let mid = (lo + hi) / 2;
        self.descend(2 * node, lo, mid, from, min)
            .or_else(|| self.descend(2 * node + 1, mid, hi, from, min))
    }

    /// Number of values `>= min`, stopping early once `limit` are found.
    fn count_at_least(&self, min: u64, limit: usize) -> usize {
        if limit == 0 {
            return 0;
        }
        let mut count = 0;
        self.count_descend(1, min, limit, &mut count);
        count
    }

    fn count_descend(&self, node: usize, min: u64, limit: usize, count: &mut usize) {
        if *count >= limit || self.tree[node] < min {
            return;
        }
        if node >= self.size {
            if node - self.size < self.len {
                *count += 1;
            }
            return;
        }
        self.count_descend(2 * node, min, limit, count);
        self.count_descend(2 * node + 1, min, limit, count);
    }
}

/// Reservation-aware headroom index over every GPU in the cluster.
///
/// The cluster core routes every reservation change (grant, release,
/// regrow, preemption) through [`GpuPool::set_reserved`]; strategies and
/// the elastic pass then query headroom in O(log n) instead of scanning.
#[derive(Debug, Clone, Default)]
pub struct GpuPool {
    capacity: Vec<u64>,
    reserved: Vec<u64>,
    domain_of: Vec<usize>,
    /// Domain id -> member GPU indices, ascending.
    members: Vec<Vec<usize>>,
    /// Max headroom per GPU index.
    by_gpu: MaxTree,
    /// Max headroom per domain (max over the domain's members).
    by_domain: MaxTree,
    generation: u64,
}

impl Default for MaxTree {
    fn default() -> MaxTree {
        MaxTree::new(&[])
    }
}

impl GpuPool {
    /// Builds the index for devices with the given capacities, where
    /// `domain_of[i]` names the link domain of device `i`. Domain ids must
    /// be dense (`0..max+1`); with no interconnect model every device is
    /// its own domain.
    pub fn new(capacity: Vec<u64>, domain_of: Vec<usize>) -> GpuPool {
        assert_eq!(capacity.len(), domain_of.len());
        let domains = domain_of.iter().map(|&d| d + 1).max().unwrap_or(0);
        let mut members = vec![Vec::new(); domains];
        for (gpu, &d) in domain_of.iter().enumerate() {
            members[d].push(gpu);
        }
        let by_gpu = MaxTree::new(&capacity);
        let by_domain = MaxTree::new(
            &members
                .iter()
                .map(|m| m.iter().map(|&g| capacity[g]).max().unwrap_or(0))
                .collect::<Vec<_>>(),
        );
        GpuPool {
            reserved: vec![0; capacity.len()],
            capacity,
            domain_of,
            members,
            by_gpu,
            by_domain,
            generation: 0,
        }
    }

    /// Number of devices indexed.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// True when the pool indexes no devices.
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Monotone counter bumped on every reservation change. Cached probe
    /// results keyed by this value stay valid until it moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total memory of device `gpu`.
    pub fn capacity(&self, gpu: usize) -> u64 {
        self.capacity[gpu]
    }

    /// Bytes currently reserved on device `gpu`.
    pub fn reserved(&self, gpu: usize) -> u64 {
        self.reserved[gpu]
    }

    /// Current headroom of device `gpu`.
    pub fn headroom(&self, gpu: usize) -> u64 {
        self.by_gpu.get(gpu)
    }

    /// Largest headroom on any device (0 when empty).
    pub fn max_headroom(&self) -> u64 {
        self.by_gpu.max()
    }

    /// Link domain of device `gpu`.
    pub fn domain_of(&self, gpu: usize) -> usize {
        self.domain_of[gpu]
    }

    /// Member devices of `domain`, ascending by index.
    pub fn domain_members(&self, domain: usize) -> &[usize] {
        &self.members[domain]
    }

    /// Updates device `gpu` to `reserved` bytes and bumps the generation.
    pub fn set_reserved(&mut self, gpu: usize, reserved: u64) {
        debug_assert!(reserved <= self.capacity[gpu], "over-reserved GPU {gpu}");
        self.reserved[gpu] = reserved;
        self.by_gpu
            .set(gpu, self.capacity[gpu].saturating_sub(reserved));
        let d = self.domain_of[gpu];
        let dmax = self.members[d].iter().map(|&g| self.by_gpu.get(g)).max();
        self.by_domain.set(d, dmax.unwrap_or(0));
        self.generation += 1;
    }

    /// First `width` devices (ascending index) whose headroom clears
    /// `threshold`, or `None` if fewer exist. This is exactly the
    /// first-fit scan, done as `width` tree descents.
    pub fn first_fit(&self, threshold: u64, width: usize) -> Option<Vec<usize>> {
        let width = width.max(1);
        let mut take = Vec::with_capacity(width);
        let mut from = 0;
        while take.len() < width {
            let g = self.first_at_least(from, threshold)?;
            take.push(g);
            from = g + 1;
        }
        Some(take)
    }

    /// Smallest device index `>= from` with headroom `>= threshold`.
    pub fn first_at_least(&self, from: usize, threshold: u64) -> Option<usize> {
        if threshold == 0 {
            return (from < self.len()).then_some(from);
        }
        self.by_gpu.first_at_least(from, threshold)
    }

    /// Number of devices with headroom `>= threshold`, counting at most
    /// `limit` before stopping.
    pub fn count_at_least(&self, threshold: u64, limit: usize) -> usize {
        if threshold == 0 {
            return self.len().min(limit);
        }
        self.by_gpu.count_at_least(threshold, limit)
    }

    /// Smallest domain id `>= from` holding at least one device with
    /// headroom `>= threshold`.
    pub fn next_domain_at_least(&self, from: usize, threshold: u64) -> Option<usize> {
        if threshold == 0 {
            // Zero headroom is always cleared, but only by a domain that
            // actually holds a device (ids need not all be populated).
            return (from..self.members.len()).find(|&d| !self.members[d].is_empty());
        }
        self.by_domain.first_at_least(from, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(caps: &[u64], domains: &[usize]) -> GpuPool {
        GpuPool::new(caps.to_vec(), domains.to_vec())
    }

    #[test]
    fn queries_match_linear_scan_after_updates() {
        let mut p = pool(&[100, 60, 80, 40, 90], &[0, 0, 1, 1, 2]);
        p.set_reserved(0, 70); // headroom 30
        p.set_reserved(2, 80); // headroom 0
        p.set_reserved(4, 15); // headroom 75
        let head = [30, 60, 0, 40, 75];
        assert_eq!(p.max_headroom(), 75);
        for t in [0u64, 1, 30, 31, 40, 60, 61, 75, 76, 200] {
            let brute: Vec<usize> = (0..5).filter(|&g| head[g] >= t).collect();
            assert_eq!(p.first_at_least(0, t), brute.first().copied(), "t={t}");
            for limit in 0..=6 {
                assert_eq!(
                    p.count_at_least(t, limit),
                    brute.len().min(limit),
                    "t={t} limit={limit}"
                );
            }
            let brute_dom: Vec<usize> = (0..3)
                .filter(|&d| p.domain_members(d).iter().any(|&g| head[g] >= t))
                .collect();
            assert_eq!(p.next_domain_at_least(0, t), brute_dom.first().copied());
        }
        assert_eq!(p.first_fit(40, 2), Some(vec![1, 3]));
        assert_eq!(p.first_fit(61, 2), None);
        assert_eq!(p.first_fit(0, 5), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn generation_moves_on_every_mutation() {
        let mut p = pool(&[10, 10], &[0, 1]);
        let g0 = p.generation();
        p.set_reserved(0, 5);
        assert_ne!(p.generation(), g0);
        let g1 = p.generation();
        p.set_reserved(0, 5); // same value still invalidates
        assert_ne!(p.generation(), g1);
    }

    /// The per-device ledger reads back what was reserved.
    #[test]
    fn views_round_trip_reservations() {
        let mut p = pool(&[32, 16], &[0, 0]);
        p.set_reserved(1, 9);
        assert_eq!((p.capacity(1), p.reserved(1), p.headroom(1)), (16, 9, 7));
        assert_eq!(p.domain_of(0), 0);
    }

    #[test]
    fn empty_pool_is_inert() {
        let p = GpuPool::new(Vec::new(), Vec::new());
        assert!(p.is_empty());
        assert_eq!(p.max_headroom(), 0);
        assert_eq!(p.first_at_least(0, 1), None);
        assert_eq!(p.first_fit(0, 1), None);
        assert_eq!(p.count_at_least(0, 3), 0);
    }
}
