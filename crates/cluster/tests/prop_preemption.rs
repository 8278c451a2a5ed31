//! Checkpoint-preemption invariants (a resumed job replays its recorded
//! iterations from the saved cursor):
//!
//! 1. **No over-commit** — with preemption enabled, the sum of
//!    reservations on a GPU never exceeds its capacity at any simulated
//!    instant, even while checkpoint/restore copies are in flight.
//! 2. **Determinism** — preemption-enabled runs are byte-identical for
//!    the same workload.
//! 3. **Conservative fallback** — when no preemption fires, the
//!    preemption-enabled run is byte-identical to the disabled one; and
//!    the disabled run never preempts.
//! 4. **Resume completeness** — a preempted job either resumed and
//!    completed or is still checkpoint-resumable at drain (never aborted,
//!    never silently starved), and every preemption's PCIe
//!    checkpoint/restore cost is visible in its accounting.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobOutcome, JobPolicy, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, Duration};
use proptest::prelude::*;

/// Small-footprint menu so measuring/validation runs stay fast; devices
/// are sized (1–1.5 GiB) so only one job fits at a time and priority
/// inversions force preemption decisions.
const MENU: &[(ModelKind, usize)] = &[(ModelKind::ResNet50, 16), (ModelKind::DenseNet121, 16)];

fn jobs_from(picks: Vec<(usize, u64, u32, u64)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, priority, slot))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 1 + iters,
                priority,
                arrival_time: slot as f64 * 0.07,
                elastic: false,
                ..JobSpec::default()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn preemption_is_safe_deterministic_and_resumable(
        picks in prop::collection::vec(
            (0usize..2, 1u64..6, 0u32..8, 0u64..8),
            2..5,
        ),
        gpus in 1usize..3,
        capacity_gib_halves in 2u64..4, // 1.0, 1.5 GiB
    ) {
        let jobs = jobs_from(picks);
        let cfg = |preemption: bool| {
            ClusterConfig::builder()
                .gpus(gpus)
                .spec(DeviceSpec::p100_pcie3().with_memory(capacity_gib_halves << 29))
                .admission(AdmissionMode::TfOri)
                .strategy(StrategyKind::BestFit)
                .validate_iters(3)
                .preemption(preemption)
                .build()
                .expect("valid config")
        };
        let on = Cluster::new(cfg(true)).run(&jobs);
        let on_again = Cluster::new(cfg(true)).run(&jobs);
        let off = Cluster::new(cfg(false)).run(&jobs);

        // (2) Determinism with preemption enabled.
        prop_assert_eq!(on.to_json(), on_again.to_json());

        // (1) No over-commit at any simulated instant, on any GPU.
        for g in &on.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        // (3) Disabled runs never preempt; and when the enabled run never
        // needed to preempt either, the two are byte-identical.
        prop_assert_eq!(off.preemptions, 0);
        prop_assert!(off.jobs.iter().all(|j| j.preemptions == 0));
        if on.preemptions == 0 {
            prop_assert_eq!(on.to_json(), off.to_json());
        }

        // Admission decisions are orthogonal to preemption: the measured
        // footprints and the rejection set must match exactly.
        for (a, b) in on.jobs.iter().zip(off.jobs.iter()) {
            prop_assert_eq!(a.footprint_bytes, b.footprint_bytes);
            prop_assert_eq!(
                a.outcome == JobOutcome::Rejected,
                b.outcome == JobOutcome::Rejected
            );
        }

        // (4) Preempted jobs resume and complete (or stay resumable);
        // the checkpoint/restore PCIe time is accounted on their clock.
        prop_assert_eq!(on.midrun_oom_aborts, 0);
        for j in &on.jobs {
            if j.preemptions == 0 {
                prop_assert_eq!(j.wasted_work, Duration::ZERO);
                prop_assert_eq!(j.checkpoint_overhead, Duration::ZERO);
                continue;
            }
            prop_assert!(j.checkpoint_overhead > Duration::ZERO);
            match j.outcome {
                JobOutcome::Completed => {
                    prop_assert!(j.resume_latency > Duration::ZERO);
                }
                JobOutcome::Preempted => {} // drained while checkpointed
                other => prop_assert!(
                    false,
                    "preempted job {} ended {:?}; must complete or stay resumable",
                    j.name, other
                ),
            }
        }
    }
}
