//! Mixed-workload (training + inference) invariants — the property-level
//! counterpart of the `mixed` scenario of `cluster_bench`:
//!
//! 1. **No over-commit through KV growth** — per-request KV reservations
//!    climb and drain with every serving round, through burst-absorption
//!    shrinks and re-grows; the sum of reservations on a GPU never
//!    exceeds its capacity at any simulated instant.
//! 2. **Inference is never checkpoint-preempted mid-request** — the
//!    preemption picker only ever victimizes training jobs, under any
//!    priority mix and any SLO-awareness setting.
//! 3. **Training-only workloads are untouched** — with no inference job
//!    submitted, SLO-aware scheduling is byte-identical to SLO-blind:
//!    the boost is identically zero and the serving loop never runs.
//! 4. **Determinism** — mixed runs of the same workload are
//!    byte-identical, across the SLO-aware and SLO-blind settings alike.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobOutcome, JobPolicy, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;
use proptest::prelude::*;

/// Small-footprint menu so each case's measuring runs stay fast; devices
/// are undersized (2–3 GiB) so KV growth genuinely competes with
/// training reservations for headroom.
const MENU: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet50, 16),
    (ModelKind::DenseNet121, 16),
    (ModelKind::ResNet50, 32),
];

/// Training picks: `(menu, iters, arrival slot, elastic)`.
fn training_from(picks: Vec<(usize, u64, u64, bool)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, slot, elastic))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("train{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 1 + iters,
                priority: 1,
                arrival_time: slot as f64 * 0.05,
                elastic,
                ..JobSpec::default()
            }
        })
        .collect()
}

/// Inference picks: `(menu, rate step, slot, requests, kv eighth-GiB,
/// max inflight)`.
fn inference_from(picks: Vec<(usize, u64, u64, u64, u64, usize)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, rate, slot, requests, kv8, inflight))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("serve{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: JobPolicy::TfOri,
                iters: 1,
                priority: 0,
                arrival_time: 0.1 + slot as f64 * 0.05,
                elastic: false,
                ..JobSpec::default()
            }
            .into_inference(
                2.0 + rate as f64 * 4.0,
                250.0,
                4 + requests,
                (1 + kv8) << 27, // 128 MiB – 512 MiB per request
                1 + inflight,
            )
        })
        .collect()
}

fn cfg(gpus: usize, capacity: u64, slo_aware: bool, elastic: bool) -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(gpus)
        .spec(DeviceSpec::p100_pcie3().with_memory(capacity))
        .admission(AdmissionMode::TfOri)
        .strategy(StrategyKind::BestFit)
        .validate_iters(3)
        .preemption(true)
        .elastic(elastic)
        .slo_aware(slo_aware)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (1) + (2) + (4) under a random mix of training (elastic and
    /// rigid) and inference jobs on undersized devices, with and without
    /// SLO-awareness.
    #[test]
    fn mixed_runs_never_overcommit_and_never_preempt_inference(
        training in prop::collection::vec(
            (0usize..3, 0u64..3, 0u64..8, prop_oneof![Just(true), Just(false)]),
            1..4,
        ),
        inference in prop::collection::vec(
            (0usize..3, 0u64..3, 0u64..8, 0u64..12, 0u64..4, 0usize..4),
            1..3,
        ),
        gpus in 1usize..3,
        capacity_gib_quarters in 8u64..13, // 2.0 – 3.0 GiB
        slo_aware in prop_oneof![Just(true), Just(false)],
    ) {
        let mut jobs = training_from(training);
        jobs.extend(inference_from(inference));
        let capacity = capacity_gib_quarters << 28;
        let a = Cluster::new(cfg(gpus, capacity, slo_aware, true)).run(&jobs);
        let b = Cluster::new(cfg(gpus, capacity, slo_aware, true)).run(&jobs);

        // (4) Determinism: byte-identical stats JSON.
        prop_assert_eq!(a.to_json(), b.to_json());

        // (1) No over-commit at any simulated instant, on any GPU —
        // including through KV climbs and burst-absorption windows.
        for g in &a.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        for (j, spec) in a.jobs.iter().zip(jobs.iter()) {
            if !spec.is_inference() {
                continue;
            }
            // (2) Inference is never checkpoint-preempted.
            prop_assert_eq!(
                j.preemptions, 0,
                "{}: inference job was checkpoint-preempted", &j.name
            );
            // Inference never re-batches either: the ladder is a
            // training-only mechanism.
            prop_assert_eq!(j.rebatches, 0, "{}: inference job re-batched", &j.name);
            // A completed serving job served its whole request budget,
            // and every served request has a recorded latency.
            if j.outcome == JobOutcome::Completed {
                prop_assert_eq!(j.requests_served, spec.requests, "{}", &j.name);
                prop_assert!(j.slo_misses <= j.requests_served, "{}", &j.name);
            }
        }
    }

    /// (3) With no inference job in the workload, the SLO-aware flag is
    /// inert: byte-for-byte identical stats, zero request counters.
    #[test]
    fn slo_awareness_is_inert_without_inference_jobs(
        training in prop::collection::vec(
            (0usize..3, 0u64..3, 0u64..8, prop_oneof![Just(true), Just(false)]),
            1..5,
        ),
        gpus in 1usize..3,
        capacity_gib_quarters in 8u64..13,
        elastic in prop_oneof![Just(true), Just(false)],
    ) {
        let jobs = training_from(training);
        let capacity = capacity_gib_quarters << 28;
        let aware = Cluster::new(cfg(gpus, capacity, true, elastic)).run(&jobs);
        let blind = Cluster::new(cfg(gpus, capacity, false, elastic)).run(&jobs);
        prop_assert_eq!(aware.to_json(), blind.to_json());
        prop_assert_eq!(aware.requests_served, 0);
        prop_assert_eq!(aware.slo_misses, 0);
        prop_assert_eq!(aware.slo_attainment_permille, 1000);
        prop_assert_eq!(aware.burst_shrinks, 0);
        prop_assert_eq!(aware.burst_cycles, 0);
    }
}
