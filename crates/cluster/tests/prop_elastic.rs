//! Elastic re-batching invariants (the property-level counterpart of the
//! `elastic` scenario of `cluster_bench`):
//!
//! 1. **No over-commit** — with elastic re-batching on and any mix of
//!    elastic and rigid jobs, the sum of reservations on a GPU never
//!    exceeds its capacity at any simulated instant, including through
//!    re-grow checkpoint/restore copy windows (the new reservation is
//!    claimed before the copy starts).
//! 2. **Exact sample preservation** — every completed job, elastic or
//!    not, processed exactly `batch × iters` training samples: shrinking
//!    the batch extends the iteration count, and the final reduced-batch
//!    iteration is partial when the remainder demands it.
//! 3. **Rigid jobs are untouchable** — a job not marked `elastic` never
//!    re-batches, under any configuration.
//! 4. **The flag alone is inert** — with no elastic jobs in the
//!    workload, an elastic-on run is byte-identical to an elastic-off
//!    run: the second admission pass and the re-grow check change
//!    nothing unless a job opted in.
//! 5. **Determinism** — elastic runs of the same workload are
//!    byte-identical.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobOutcome, JobPolicy, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;
use proptest::prelude::*;

/// Small-footprint menu so each case's measuring runs stay fast; batches
/// are chosen against sub-sized devices (1–2 GiB) so elastic jobs really
/// do arrive into clusters with no full-batch headroom.
const MENU: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet50, 16),
    (ModelKind::DenseNet121, 16),
    (ModelKind::ResNet50, 32),
];

fn jobs_from(picks: Vec<(usize, u64, u64, bool)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, slot, elastic))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 1 + iters,
                priority: 0,
                arrival_time: slot as f64 * 0.05,
                elastic,
                ..JobSpec::default()
            }
        })
        .collect()
}

fn cfg(gpus: usize, capacity: u64, elastic: bool, capuchin: bool) -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(gpus)
        .spec(DeviceSpec::p100_pcie3().with_memory(capacity))
        .admission(if capuchin {
            AdmissionMode::Capuchin
        } else {
            AdmissionMode::TfOri
        })
        .strategy(StrategyKind::FifoFirstFit)
        .validate_iters(3)
        .elastic(elastic)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (1) + (2) + (3) + (5) under a random mix of elastic and rigid
    /// jobs on undersized devices.
    #[test]
    fn elastic_preserves_samples_and_never_overcommits(
        picks in prop::collection::vec(
            (0usize..3, 0u64..3, 0u64..8, prop_oneof![Just(true), Just(false)]),
            1..5,
        ),
        gpus in 1usize..3,
        capacity_gib_halves in 2u64..5, // 1.0, 1.5, 2.0 GiB
        capuchin_admission in prop_oneof![Just(true), Just(false)],
    ) {
        let jobs = jobs_from(picks);
        let capacity = capacity_gib_halves << 29;
        let a = Cluster::new(cfg(gpus, capacity, true, capuchin_admission)).run(&jobs);
        let b = Cluster::new(cfg(gpus, capacity, true, capuchin_admission)).run(&jobs);

        // (5) Determinism: byte-identical stats JSON.
        prop_assert_eq!(a.to_json(), b.to_json());

        // (1) No over-commit at any simulated instant, on any GPU.
        for g in &a.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        // Elastic admission must never create mid-run aborts: shrunk
        // batches are re-validated exactly like full ones.
        prop_assert_eq!(a.midrun_oom_aborts, 0);

        for (j, spec) in a.jobs.iter().zip(jobs.iter()) {
            // (2) Exact sample preservation for every completed job.
            if j.outcome == JobOutcome::Completed {
                prop_assert_eq!(
                    j.samples_preserved,
                    spec.batch as u64 * spec.iters,
                    "{}: trained a different sample count than the spec asked",
                    &j.name
                );
            }
            // (3) Rigid jobs never re-batch.
            if !spec.elastic {
                prop_assert_eq!(j.rebatches, 0, "{}: rigid job re-batched", &j.name);
            }
        }
    }

    /// (4) With no elastic jobs in the workload, turning the cluster
    /// flag on changes nothing — byte for byte.
    #[test]
    fn elastic_flag_is_inert_without_elastic_jobs(
        picks in prop::collection::vec(
            (0usize..3, 0u64..3, 0u64..8, Just(false)),
            1..5,
        ),
        gpus in 1usize..3,
        capacity_gib_halves in 2u64..5,
        capuchin_admission in prop_oneof![Just(true), Just(false)],
    ) {
        let jobs = jobs_from(picks);
        let capacity = capacity_gib_halves << 29;
        let off = Cluster::new(cfg(gpus, capacity, false, capuchin_admission)).run(&jobs);
        let on = Cluster::new(cfg(gpus, capacity, true, capuchin_admission)).run(&jobs);
        prop_assert_eq!(off.to_json(), on.to_json());
        prop_assert_eq!(on.rebatches, 0);
    }
}
