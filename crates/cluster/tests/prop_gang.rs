//! Gang-scheduling and interconnect invariants:
//!
//! 1. **All-or-nothing gangs** — a job either holds its full gang width
//!    (distinct GPUs) or nothing; no partial gang is ever visible in the
//!    final stats, and per-GPU reservation peaks never exceed capacity
//!    at any simulated instant (reservations are granted atomically by
//!    the single-threaded event loop).
//! 2. **No reservation deadlock** — every run terminates with every job
//!    in a terminal outcome: Completed, or Rejected (gang wider than the
//!    cluster, or a per-replica minimum wider than a device). With
//!    preemption off and validated replays, nothing is Aborted, Starved
//!    or stuck Preempted.
//! 3. **Determinism** — same workload, same configuration → byte-identical
//!    cluster-stats JSON, gangs and fabric included.
//! 4. **No-contention limit** — an [`InterconnectSpec::unconstrained`]
//!    fabric (infinite bandwidth, zero overhead) reproduces the
//!    interconnect-off timings exactly, job by job: the fabric model adds
//!    nothing but the queueing it exists to model.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobOutcome, JobPolicy, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, InterconnectSpec};
use proptest::prelude::*;

/// Small-footprint menu so each case's measuring runs stay fast. Gang
/// widths up to 4 against 2–3 GPU clusters exercise both placement and
/// the too-wide rejection path.
const MENU: &[(ModelKind, usize)] = &[(ModelKind::ResNet50, 16), (ModelKind::DenseNet121, 16)];

fn jobs_from(picks: Vec<(usize, u64, u32, u64, usize)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, priority, slot, gang))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: gang,
                policy: JobPolicy::TfOri,
                iters: 2 + iters,
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
    fn gangs_are_atomic_deadlock_free_and_deterministic(
        picks in prop::collection::vec(
            (0usize..2, 0u64..3, 0u32..3, 0u64..6, 1usize..5),
            1..5,
        ),
        gpus in 2usize..4,
        fifo in prop_oneof![Just(true), Just(false)],
        shared_fabric in prop_oneof![Just(true), Just(false)],
    ) {
        let jobs = jobs_from(picks);
        let cfg = |ic: Option<InterconnectSpec>| {
            ClusterConfig::builder()
                .gpus(gpus)
                .spec(DeviceSpec::p100_pcie3().with_memory(3 << 29)) // 1.5 GiB
                .admission(AdmissionMode::TfOri)
                .strategy(if fifo {
                    StrategyKind::FifoFirstFit
                } else {
                    StrategyKind::BestFit
                })
                .validate_iters(3)
                .interconnect(ic)
                .build()
                .expect("valid config")
        };
        let fabric = shared_fabric.then(InterconnectSpec::pcie_shared);
        let a = Cluster::new(cfg(fabric.clone())).run(&jobs);
        let b = Cluster::new(cfg(fabric)).run(&jobs);

        // (3) Determinism: byte-identical stats JSON.
        prop_assert_eq!(a.to_json(), b.to_json());

        // (1) All-or-nothing gangs on distinct devices; no over-commit.
        for j in &a.jobs {
            prop_assert!(
                j.gpus_used.is_empty() || j.gpus_used.len() == j.replicas,
                "{} holds a partial gang: {:?} of {}",
                j.name, j.gpus_used, j.replicas
            );
            let mut distinct = j.gpus_used.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), j.gpus_used.len(), "duplicate GPU in a gang");
        }
        for g in &a.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        // (2) Termination in a terminal outcome; too-wide gangs rejected.
        prop_assert_eq!(a.midrun_oom_aborts, 0);
        for (j, spec) in a.jobs.iter().zip(jobs.iter()) {
            prop_assert!(
                matches!(j.outcome, JobOutcome::Completed | JobOutcome::Rejected),
                "{} ended {:?}; gang scheduling must terminate every job",
                j.name, j.outcome
            );
            if spec.gpus > gpus {
                prop_assert_eq!(j.outcome, JobOutcome::Rejected, "{}", &j.name);
            }
        }
    }

    /// (4) The unconstrained fabric is the identity: routing traffic over
    /// infinite bandwidth must reproduce the interconnect-off timings
    /// exactly for every job — singles and gangs alike.
    #[test]
    fn unconstrained_fabric_reproduces_off_timings(
        picks in prop::collection::vec(
            (0usize..2, 0u64..3, 0u32..3, 0u64..6, 1usize..3),
            1..4,
        ),
        fifo in prop_oneof![Just(true), Just(false)],
    ) {
        let jobs = jobs_from(picks);
        let cfg = |ic: Option<InterconnectSpec>| {
            ClusterConfig::builder()
                .gpus(2)
                .spec(DeviceSpec::p100_pcie3().with_memory(3 << 29))
                .admission(AdmissionMode::TfOri)
                .strategy(if fifo {
                    StrategyKind::FifoFirstFit
                } else {
                    StrategyKind::BestFit
                })
                .validate_iters(3)
                .interconnect(ic)
                .build()
                .expect("valid config")
        };
        let off = Cluster::new(cfg(None)).run(&jobs);
        let free = Cluster::new(cfg(Some(InterconnectSpec::unconstrained()))).run(&jobs);
        prop_assert_eq!(off.makespan, free.makespan);
        for (a, b) in off.jobs.iter().zip(free.jobs.iter()) {
            prop_assert_eq!(&a.outcome, &b.outcome, "{}: outcome drifted", &a.name);
            prop_assert_eq!(a.jct, b.jct, "{}: jct drifted", &a.name);
            prop_assert_eq!(a.queueing_delay, b.queueing_delay, "{}", &a.name);
            prop_assert_eq!(a.mean_iter, b.mean_iter, "{}", &a.name);
            prop_assert_eq!(&a.gpus_used, &b.gpus_used, "{}: placement drifted", &a.name);
        }
    }
}
