//! Best-fit-with-coalescing device allocator.
//!
//! TensorFlow manages GPU memory with its BFC ("best-fit with coalescing")
//! allocator layered over `cudaMalloc`; Capuchin extends that allocator with
//! `SwapOut`/`SwapIn` entry points (paper §5.1). This module reimplements
//! the allocator core: aligned chunks carved from one arena, a size-ordered
//! free index for best-fit search, chunk splitting, and eager coalescing of
//! free neighbours. Fragmentation therefore behaves like the real thing,
//! which matters for the maximum-batch-size experiments (Tables 2 and 3).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Allocation granularity; TF's BFC allocator uses 256-byte alignment.
pub const ALIGNMENT: u64 = 256;

/// Unique identity of one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AllocId(u64);

impl fmt::Display for AllocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc#{}", self.0)
    }
}

/// A live region of device memory.
///
/// The token is `Copy`; the allocator validates it on [`DeviceAllocator::free`],
/// so a stale or forged token is rejected rather than corrupting the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Allocation {
    id: AllocId,
    offset: u64,
    size: u64,
}

impl Allocation {
    /// Identity of the allocation.
    pub fn id(&self) -> AllocId {
        self.id
    }

    /// Byte offset of the region within the arena.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Size of the region in bytes (rounded up to [`ALIGNMENT`]).
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OomError {
    /// Bytes requested (after alignment rounding).
    pub requested: u64,
    /// Total free bytes in the arena at the time of failure.
    pub free_total: u64,
    /// Largest contiguous free region; `requested > largest_free` means the
    /// failure may be due to fragmentation rather than sheer occupancy.
    pub largest_free: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B, {} B free ({} B largest contiguous)",
            self.requested, self.free_total, self.largest_free
        )
    }
}

impl std::error::Error for OomError {}

/// Why a free failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidAllocation {
    id: AllocId,
}

impl fmt::Display for InvalidAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is not a live allocation", self.id)
    }
}

impl std::error::Error for InvalidAllocation {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Free,
    InUse(AllocId),
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    size: u64,
    state: ChunkState,
}

/// Allocator statistics, cheap to copy out for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceMemStats {
    /// Bytes currently allocated.
    pub in_use: u64,
    /// High-water mark of `in_use` over the allocator's lifetime.
    pub peak_in_use: u64,
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Number of allocation attempts that returned [`OomError`].
    pub failed_allocs: u64,
}

/// A best-fit-with-coalescing arena allocator over a fixed-size device memory.
///
/// # Examples
///
/// ```
/// use capuchin_mem::DeviceAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = DeviceAllocator::new(1 << 20);
/// let a = dev.alloc(1000)?;
/// let b = dev.alloc(2000)?;
/// dev.free(a)?;
/// assert!(dev.free_total() > 0);
/// dev.free(b)?;
/// assert_eq!(dev.in_use(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeviceAllocator {
    capacity: u64,
    /// Offsets at or above this boundary form the *reserved region* served
    /// only by [`DeviceAllocator::alloc_high`]; chunks never coalesce
    /// across it. Defaults to `capacity` (no reservation).
    boundary: u64,
    chunks: BTreeMap<u64, Chunk>,
    /// Free chunks indexed by `(size, offset)` for best-fit retrieval.
    free_index: BTreeSet<(u64, u64)>,
    next_id: u64,
    stats: DeviceMemStats,
}

impl DeviceAllocator {
    /// Creates an allocator over `capacity` bytes of device memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> DeviceAllocator {
        DeviceAllocator::with_reserved(capacity, 0)
    }

    /// Creates an allocator whose top `reserved` bytes form a segregated
    /// pool served only by [`DeviceAllocator::alloc_high`] — the classic
    /// pool-separation defence against fragmentation from long-lived
    /// buffers. `reserved` is clamped to the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_reserved(capacity: u64, reserved: u64) -> DeviceAllocator {
        assert!(capacity > 0, "device capacity must be non-zero");
        let capacity = capacity / ALIGNMENT * ALIGNMENT;
        let reserved = (reserved.min(capacity)).div_ceil(ALIGNMENT) * ALIGNMENT;
        let boundary = capacity - reserved;
        let mut chunks = BTreeMap::new();
        let mut free_index = BTreeSet::new();
        if boundary > 0 {
            chunks.insert(
                0,
                Chunk {
                    size: boundary,
                    state: ChunkState::Free,
                },
            );
            free_index.insert((boundary, 0));
        }
        if reserved > 0 {
            chunks.insert(
                boundary,
                Chunk {
                    size: reserved,
                    state: ChunkState::Free,
                },
            );
            free_index.insert((reserved, boundary));
        }
        DeviceAllocator {
            capacity,
            boundary,
            chunks,
            free_index,
            next_id: 0,
            stats: DeviceMemStats::default(),
        }
    }

    /// Total arena size in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.stats.in_use
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_total(&self) -> u64 {
        self.capacity - self.stats.in_use
    }

    /// Largest contiguous free region [`DeviceAllocator::alloc`] may
    /// serve, i.e. the largest request that can currently succeed. The
    /// reserved region is left out: only `alloc_high` draws on it.
    pub fn largest_free(&self) -> u64 {
        self.free_index
            .iter()
            .rev()
            .find(|&&(_, o)| o < self.boundary)
            .map_or(0, |&(s, _)| s)
    }

    /// All free regions as `(offset, size)`, largest first.
    pub fn free_regions(&self) -> Vec<(u64, u64)> {
        self.free_index.iter().rev().map(|&(s, o)| (o, s)).collect()
    }

    /// The id of the in-use allocation immediately preceding `offset`, if
    /// any (used for eviction-driven hole growing).
    pub fn neighbor_before(&self, offset: u64) -> Option<AllocId> {
        let (_, chunk) = self.chunks.range(..offset).next_back()?;
        match chunk.state {
            ChunkState::InUse(id) => Some(id),
            ChunkState::Free => None,
        }
    }

    /// The id of the in-use allocation starting exactly at `offset`, if
    /// any.
    pub fn neighbor_at(&self, offset: u64) -> Option<AllocId> {
        match self.chunks.get(&offset)?.state {
            ChunkState::InUse(id) => Some(id),
            ChunkState::Free => None,
        }
    }

    /// Snapshot of lifetime statistics.
    pub fn stats(&self) -> DeviceMemStats {
        self.stats
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        (self.stats.allocs - self.stats.frees) as usize
    }

    /// Whether a request of `size` bytes would succeed right now.
    pub fn can_alloc(&self, size: u64) -> bool {
        align_up(size) <= self.largest_free()
    }

    /// Allocates `size` bytes (rounded up to [`ALIGNMENT`]).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when no contiguous free chunk can hold the
    /// request; the error reports total and largest-contiguous free space so
    /// callers can distinguish fragmentation from exhaustion.
    pub fn alloc(&mut self, size: u64) -> Result<Allocation, OomError> {
        self.alloc_inner(size, false)
    }

    /// Allocates from the *top* of the arena (highest-offset fitting chunk,
    /// carved from its high end). Callers use this to segregate
    /// short-lived or unreclaimable buffers away from the main pool,
    /// mirroring how caching allocators separate pools to curb
    /// fragmentation.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] like [`DeviceAllocator::alloc`].
    pub fn alloc_high(&mut self, size: u64) -> Result<Allocation, OomError> {
        self.alloc_inner(size, true)
    }

    fn alloc_inner(&mut self, size: u64, high: bool) -> Result<Allocation, OomError> {
        let size = align_up(size);
        let found = if high {
            // Highest-offset fitting chunk within the reserved region (or
            // anywhere when no region is reserved).
            self.free_index
                .iter()
                .filter(|&&(s, o)| {
                    s >= size && (self.boundary == self.capacity || o >= self.boundary)
                })
                .max_by_key(|&&(_, o)| o)
                .copied()
        } else {
            // Best fit among low-region chunks.
            self.free_index
                .range((size, 0)..)
                .find(|&&(_, o)| o < self.boundary || self.boundary == self.capacity)
                .copied()
        };
        let Some((chunk_size, offset)) = found else {
            self.stats.failed_allocs += 1;
            return Err(OomError {
                requested: size,
                free_total: self.free_total(),
                largest_free: self.largest_free(),
            });
        };
        self.free_index.remove(&(chunk_size, offset));
        let id = AllocId(self.next_id);
        self.next_id += 1;
        // Split the chunk if the remainder is at least one alignment unit;
        // high allocations carve from the top so the remainder stays low.
        let remainder = chunk_size - size;
        if remainder >= ALIGNMENT {
            let (used_off, free_off) = if high {
                (offset + remainder, offset)
            } else {
                (offset, offset + size)
            };
            self.chunks.insert(
                used_off,
                Chunk {
                    size,
                    state: ChunkState::InUse(id),
                },
            );
            self.chunks.insert(
                free_off,
                Chunk {
                    size: remainder,
                    state: ChunkState::Free,
                },
            );
            self.free_index.insert((remainder, free_off));
            let offset = used_off;
            let granted = self.chunks[&offset].size;
            self.stats.in_use += granted;
            self.stats.peak_in_use = self.stats.peak_in_use.max(self.stats.in_use);
            self.stats.allocs += 1;
            return Ok(Allocation {
                id,
                offset,
                size: granted,
            });
        } else {
            // Hand out the whole chunk (includes any sub-alignment slack).
            self.chunks.insert(
                offset,
                Chunk {
                    size: chunk_size,
                    state: ChunkState::InUse(id),
                },
            );
        }
        let granted = self.chunks[&offset].size;
        self.stats.in_use += granted;
        self.stats.peak_in_use = self.stats.peak_in_use.max(self.stats.in_use);
        self.stats.allocs += 1;
        Ok(Allocation {
            id,
            offset,
            size: granted,
        })
    }

    /// Releases an allocation, coalescing with free neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidAllocation`] if the token does not refer to a live
    /// allocation (e.g. double free).
    pub fn free(&mut self, alloc: Allocation) -> Result<(), InvalidAllocation> {
        // A token is live exactly when the chunk at its offset is in use
        // under its id: ids are never reused.
        let offset = alloc.offset;
        let chunk = match self.chunks.get(&offset) {
            Some(&chunk) if chunk.state == ChunkState::InUse(alloc.id) => chunk,
            _ => return Err(InvalidAllocation { id: alloc.id }),
        };
        self.stats.in_use -= chunk.size;
        self.stats.frees += 1;

        let mut merged_offset = offset;
        let mut merged_size = chunk.size;

        // Coalesce with the previous chunk if free (never across the
        // reserved-region boundary).
        if let Some((&prev_off, &prev)) = self.chunks.range(..offset).next_back() {
            if prev.state == ChunkState::Free
                && prev_off + prev.size == offset
                && offset != self.boundary
            {
                self.free_index.remove(&(prev.size, prev_off));
                self.chunks.remove(&prev_off);
                merged_offset = prev_off;
                merged_size += prev.size;
            }
        }
        // Coalesce with the next chunk if free (never across the boundary).
        let next_off = offset + chunk.size;
        if let Some(&next) = self.chunks.get(&next_off) {
            if next.state == ChunkState::Free && next_off != self.boundary {
                self.free_index.remove(&(next.size, next_off));
                self.chunks.remove(&next_off);
                merged_size += next.size;
            }
        }

        self.chunks.remove(&offset);
        self.chunks.insert(
            merged_offset,
            Chunk {
                size: merged_size,
                state: ChunkState::Free,
            },
        );
        self.free_index.insert((merged_size, merged_offset));
        Ok(())
    }

    /// Verifies internal invariants; used by tests and `debug_assert!`s.
    ///
    /// Checks that chunks tile the arena exactly, that no two free chunks
    /// are adjacent (coalescing is eager), and that the free index matches
    /// the chunk table.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut cursor = 0;
        let mut prev_free = false;
        let mut free_total = 0;
        let mut live = 0;
        for (&off, chunk) in &self.chunks {
            if off != cursor {
                return Err(format!("gap or overlap at offset {off}, expected {cursor}"));
            }
            cursor += chunk.size;
            match chunk.state {
                ChunkState::Free => {
                    if prev_free && off != self.boundary {
                        return Err(format!("adjacent free chunks at offset {off}"));
                    }
                    if !self.free_index.contains(&(chunk.size, off)) {
                        return Err(format!("free chunk at {off} missing from index"));
                    }
                    free_total += chunk.size;
                    prev_free = true;
                }
                ChunkState::InUse(_) => {
                    live += 1;
                    prev_free = false;
                }
            }
        }
        if cursor != self.capacity {
            return Err(format!("chunks cover {cursor} B of {} B", self.capacity));
        }
        if self.free_index.len()
            != self
                .chunks
                .values()
                .filter(|c| c.state == ChunkState::Free)
                .count()
        {
            return Err("free index size mismatch".to_owned());
        }
        if live != self.live_count() {
            return Err(format!(
                "{live} in-use chunks, stats count {} live allocations",
                self.live_count()
            ));
        }
        if free_total != self.free_total() {
            return Err(format!(
                "free accounting mismatch: chunks say {free_total}, stats say {}",
                self.free_total()
            ));
        }
        Ok(())
    }
}

fn align_up(size: u64) -> u64 {
    size.max(1).div_ceil(ALIGNMENT) * ALIGNMENT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_to_alignment() {
        let mut dev = DeviceAllocator::new(1 << 20);
        let a = dev.alloc(1).unwrap();
        assert_eq!(a.size(), ALIGNMENT);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn zero_sized_alloc_gets_one_unit() {
        let mut dev = DeviceAllocator::new(1 << 20);
        let a = dev.alloc(0).unwrap();
        assert_eq!(a.size(), ALIGNMENT);
    }

    #[test]
    fn exhaustion_returns_oom_with_diagnostics() {
        let mut dev = DeviceAllocator::new(4096);
        let _a = dev.alloc(4096).unwrap();
        let err = dev.alloc(256).unwrap_err();
        assert_eq!(err.free_total, 0);
        assert_eq!(err.largest_free, 0);
        assert_eq!(dev.stats().failed_allocs, 1);
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let mut dev = DeviceAllocator::new(4096);
        let a = dev.alloc(4096).unwrap();
        dev.free(a).unwrap();
        let b = dev.alloc(4096).unwrap();
        assert_eq!(b.offset(), 0);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn double_free_is_rejected() {
        let mut dev = DeviceAllocator::new(4096);
        let a = dev.alloc(256).unwrap();
        dev.free(a).unwrap();
        assert!(dev.free(a).is_err());
    }

    #[test]
    fn best_fit_prefers_smallest_suitable_chunk() {
        let mut dev = DeviceAllocator::new(1 << 20);
        // Carve out [big free][used][small free][used] pattern.
        let a = dev.alloc(8192).unwrap(); // will become big free
        let keep1 = dev.alloc(256).unwrap();
        let b = dev.alloc(512).unwrap(); // will become small free
        let _keep2 = dev.alloc(256).unwrap();
        dev.free(a).unwrap();
        dev.free(b).unwrap();
        dev.check_invariants().unwrap();
        // A 512-byte request should land in the small hole, not the big one.
        let c = dev.alloc(512).unwrap();
        assert_eq!(c.offset(), keep1.offset() + keep1.size());
    }

    #[test]
    fn coalescing_merges_both_neighbours() {
        let mut dev = DeviceAllocator::new(4096);
        let a = dev.alloc(1024).unwrap();
        let b = dev.alloc(1024).unwrap();
        let c = dev.alloc(1024).unwrap();
        dev.free(a).unwrap();
        dev.free(c).unwrap();
        dev.free(b).unwrap(); // merges with both sides + tail
        dev.check_invariants().unwrap();
        assert_eq!(dev.largest_free(), dev.capacity());
        let whole = dev.alloc(4096).unwrap();
        assert_eq!(whole.offset(), 0);
    }

    #[test]
    fn fragmentation_visible_in_oom_error() {
        let mut dev = DeviceAllocator::new(4096);
        let a = dev.alloc(1024).unwrap();
        let _b = dev.alloc(1024).unwrap();
        let c = dev.alloc(1024).unwrap();
        let _d = dev.alloc(1024).unwrap();
        dev.free(a).unwrap();
        dev.free(c).unwrap();
        // 2048 free but split into two 1024 holes.
        let err = dev.alloc(2048).unwrap_err();
        assert_eq!(err.free_total, 2048);
        assert_eq!(err.largest_free, 1024);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut dev = DeviceAllocator::new(1 << 20);
        let a = dev.alloc(4096).unwrap();
        let b = dev.alloc(4096).unwrap();
        dev.free(a).unwrap();
        dev.free(b).unwrap();
        assert_eq!(dev.stats().peak_in_use, 8192);
        assert_eq!(dev.in_use(), 0);
    }

    #[test]
    fn exact_fit_takes_whole_chunk_without_split() {
        let mut dev = DeviceAllocator::new(4096);
        // 3968 rounds up to 4096, consuming the arena exactly — no split.
        let a = dev.alloc(4096 - 128).unwrap();
        assert_eq!(a.size(), 4096);
        assert_eq!(dev.largest_free(), 0);
        dev.check_invariants().unwrap();
        dev.free(a).unwrap();
        // A request leaving a >= ALIGNMENT remainder does split.
        let b = dev.alloc(3840).unwrap();
        assert_eq!(b.size(), 3840);
        assert_eq!(dev.largest_free(), 256);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn can_alloc_matches_alloc_outcome() {
        let fresh = DeviceAllocator::new(4096);
        let mut half = DeviceAllocator::new(4096);
        let _a = half.alloc(2048).unwrap();
        // The reserved top pool (3 KiB) is the largest free region, but
        // only `alloc_high` may use it.
        let reserved = DeviceAllocator::with_reserved(4096, 3072);
        for (dev, size, fits) in [
            (&fresh, 4096, true),
            (&half, 4096, false),
            (&half, 2048, true),
            (&reserved, 2048, false),
            (&reserved, 1024, true),
        ] {
            assert_eq!(dev.can_alloc(size), fits, "can_alloc({size})");
            assert_eq!(dev.clone().alloc(size).is_ok(), fits, "alloc({size})");
        }
    }
}

#[cfg(test)]
mod high_alloc_tests {
    use super::*;

    #[test]
    fn alloc_high_takes_top_of_arena() {
        let mut dev = DeviceAllocator::new(1 << 20);
        let low = dev.alloc(4096).unwrap();
        let high = dev.alloc_high(4096).unwrap();
        assert_eq!(low.offset(), 0);
        assert_eq!(high.offset() + high.size(), dev.capacity());
        dev.check_invariants().unwrap();
        dev.free(low).unwrap();
        dev.free(high).unwrap();
        assert_eq!(dev.largest_free(), dev.capacity());
    }

    #[test]
    fn segregation_prevents_interleaving_fragmentation() {
        // Alternate long-lived (high) and churning (low) allocations; the
        // churners coalesce into one hole because the long-lived ones are
        // clustered at the top.
        let mut dev = DeviceAllocator::new(1 << 20);
        let mut churn = Vec::new();
        let mut pinned = Vec::new();
        for _ in 0..16 {
            churn.push(dev.alloc(8192).unwrap());
            pinned.push(dev.alloc_high(8192).unwrap());
        }
        for a in churn {
            dev.free(a).unwrap();
        }
        dev.check_invariants().unwrap();
        // All churned space is one contiguous region.
        assert_eq!(dev.largest_free(), dev.capacity() - 16 * 8192);
    }
}
