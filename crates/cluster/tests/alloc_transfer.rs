//! Allocation gate for the per-tensor swap replay.
//!
//! A warm drain of an oversubscribed Capuchin fleet on a shared PCIe
//! fabric must make fewer heap allocations than it takes transfer
//! records: a replayed record shares its job, label and lane names with
//! every other record of the same job, tensor and lane instead of
//! copying them. The gate counts allocations, not time, so host noise
//! cannot flake it. The file holds one test, so no other test thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use capuchin_cluster::{Cluster, ClusterConfig, JobPolicy, JobSpec};
use capuchin_models::ModelKind;
use capuchin_sim::InterconnectSpec;

/// Forwards to the system allocator and counts allocations.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic and publishes no other data (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Shapes whose ideal peak exceeds the default 16 GB P100, so Capuchin
/// admission shrinks every job and its replay swaps.
const MENU: &[(ModelKind, usize)] = &[(ModelKind::Vgg16, 320), (ModelKind::ResNet50, 256)];

fn fleet() -> Vec<JobSpec> {
    (0..8)
        .map(|i| {
            let (model, batch) = MENU[i % MENU.len()];
            JobSpec {
                name: format!("swap{i}"),
                model,
                batch,
                policy: JobPolicy::Capuchin,
                iters: 8,
                arrival_time: i as f64 * 0.1,
                ..JobSpec::default()
            }
        })
        .collect()
}

#[test]
fn warm_swap_replay_allocates_less_than_one_per_transfer_record() {
    let cfg = ClusterConfig::builder()
        .gpus(2)
        .interconnect(Some(InterconnectSpec::pcie_shared()))
        .build()
        .expect("valid config");
    let mut cluster = Cluster::new(cfg);
    let jobs = fleet();
    // Cold pass: admission measures and validates every shape once.
    let (cold, _) = cluster.run_traced(&jobs);
    assert_eq!(cold.completed, jobs.len(), "every job must complete");

    cluster.reset();
    let before = ALLOCS.load(Ordering::Relaxed);
    for spec in &jobs {
        cluster.submit(spec);
    }
    cluster.drain();
    let records = cluster.take_transfers();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let replayed = records.iter().filter(|t| t.iter != u64::MAX).count();
    assert!(replayed > 1_000, "the fleet must swap: {replayed} records");
    assert!(
        allocs < records.len() as u64,
        "{allocs} allocations for {} transfer records",
        records.len()
    );
}
