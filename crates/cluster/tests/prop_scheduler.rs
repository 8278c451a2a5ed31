//! Scheduler safety and determinism properties (mirrors
//! `crates/core/tests/determinism.rs` at the cluster level):
//!
//! 1. **No over-commit** — under any job set, strategy, and admission
//!    mode, the sum of reservations on a GPU never exceeds its capacity
//!    at any simulated instant (the per-GPU peak is tracked at every
//!    reservation change, so `peak ≤ capacity` is exactly that claim).
//! 2. **Determinism** — two runs of the same workload under the same
//!    configuration produce byte-identical cluster-stats JSON.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobOutcome, JobPolicy, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;
use proptest::prelude::*;

/// Small-footprint menu so each case's measuring runs stay fast; batches
/// are chosen against sub-sized devices (1–2 GiB) so all admission paths
/// (as-is, shrunk, rejected) appear across the sample space.
const MENU: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet50, 16),
    (ModelKind::DenseNet121, 16),
    (ModelKind::ResNet50, 32),
];

fn jobs_from(picks: Vec<(usize, u64, u32, u64, bool)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, priority, slot, cap))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: if cap {
                    JobPolicy::Capuchin
                } else {
                    JobPolicy::TfOri
                },
                iters: 1 + iters,
                priority,
                arrival_time: slot as f64 * 0.05,
                elastic: false,
                ..JobSpec::default()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn never_overcommits_and_is_deterministic(
        picks in prop::collection::vec(
            (0usize..3, 0u64..3, 0u32..3, 0u64..8, prop_oneof![Just(true), Just(false)]),
            1..5,
        ),
        gpus in 1usize..3,
        capacity_gib_halves in 2u64..5, // 1.0, 1.5, 2.0 GiB
        fifo in prop_oneof![Just(true), Just(false)],
        capuchin_admission in prop_oneof![Just(true), Just(false)],
    ) {
        let jobs = jobs_from(picks);
        let cfg = || {
            ClusterConfig::builder()
                .gpus(gpus)
                .spec(DeviceSpec::p100_pcie3().with_memory(capacity_gib_halves << 29))
                .admission(if capuchin_admission {
                    AdmissionMode::Capuchin
                } else {
                    AdmissionMode::TfOri
                })
                .strategy(if fifo {
                    StrategyKind::FifoFirstFit
                } else {
                    StrategyKind::BestFit
                })
                .validate_iters(3)
                .build()
                .expect("valid config")
        };
        let a = Cluster::new(cfg()).run(&jobs);
        let b = Cluster::new(cfg()).run(&jobs);

        // (b) Determinism: byte-identical stats JSON.
        prop_assert_eq!(a.to_json(), b.to_json());

        // (a) No over-commit at any simulated instant, on any GPU.
        for g in &a.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        // Sanity: admitted jobs never abort mid-run, every job has an
        // outcome, and reservations stay within one device.
        prop_assert_eq!(a.midrun_oom_aborts, 0);
        prop_assert_eq!(a.submitted, jobs.len());
        let completed = a.jobs.iter().filter(|j| j.outcome == JobOutcome::Completed).count();
        prop_assert_eq!(completed, a.completed);
        for j in &a.jobs {
            prop_assert!(j.reserved_bytes <= capacity_gib_halves << 29);
            if j.outcome == JobOutcome::Rejected {
                prop_assert!(j.gpus_used.is_empty());
            }
        }
    }
}
