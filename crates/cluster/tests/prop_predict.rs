//! Predictive-admission properties (the safety story of the footprint
//! predictor PR):
//!
//! 1. **No over-commit, even under-shooting** — warm-key jobs admitted
//!    from a fitted prediction (including flat fits queried far from the
//!    fitted batch, which under-shoot badly under tf-ori admission)
//!    never push any GPU past capacity at any simulated instant.
//! 2. **Mispredictions recover** — a job whose prediction is caught
//!    under-shooting at an iteration boundary is checkpoint-preempted,
//!    re-admitted with measured needs, and still completes; its
//!    provenance flips to `measured` and the re-measurement runs are
//!    billed to it.
//! 3. **Warm keys are validation-free** — any job that finishes with
//!    `predicted` provenance was charged zero validation-engine runs,
//!    and per-job `admission_validations` still sums to the controller
//!    total.
//! 4. **`predictive off` is inert** — same seed, predictor disabled
//!    (whatever the margin/min-samples knobs say) ⇒ stats JSON
//!    byte-identical to the default builder's, and the predictor
//!    counters stay zero.

use capuchin_cluster::{
    synthetic_jobs, AdmissionMode, Cluster, ClusterConfig, JobPolicy, JobSpec, StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;
use proptest::prelude::*;

/// One (model, policy, class) family per case so keys actually go warm;
/// the batch menu spans 3× so flat single-sample fits queried at the far
/// end under-shoot past the +15% safety margin under tf-ori admission.
const BATCHES: &[usize] = &[16, 32, 48];

fn family_jobs(picks: &[(usize, u64, u32)]) -> Vec<JobSpec> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &(batch, iters, priority))| JobSpec {
            name: format!("fam{i:02}"),
            model: ModelKind::ResNet50,
            batch: BATCHES[batch % BATCHES.len()],
            gpus: 1,
            policy: JobPolicy::TfOri,
            iters: 1 + iters,
            priority,
            // Wide spacing: early jobs complete (feeding the predictor)
            // before later arrivals query it, so warm-key admissions
            // actually occur across the sample space.
            arrival_time: i as f64 * 400.0,
            elastic: false,
            ..JobSpec::default()
        })
        .collect()
}

fn predictive_cluster(gpus: usize, capacity: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(gpus)
        .spec(DeviceSpec::p100_pcie3().with_memory(capacity))
        // tf-ori admission requires the slack-padded true peak, so a
        // flat fit queried at 3× the fitted batch is guaranteed to
        // under-shoot — the recovery path is exercised, not just coded.
        .admission(AdmissionMode::TfOri)
        .strategy(StrategyKind::FifoFirstFit)
        .predictive(true)
        .min_samples(1)
        .build()
        .expect("cluster config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn predicted_admissions_never_overcommit_and_recover(
        picks in prop::collection::vec((0usize..3, 0u64..3, 0u32..3), 2..5),
        gpus in 1usize..3,
    ) {
        let jobs = family_jobs(&picks);
        let mut cluster = Cluster::new(predictive_cluster(gpus, 16 << 30));
        let stats = cluster.run(&jobs);

        // (1) No over-commit at any simulated instant, on any GPU, even
        // when a warm-key grant came from an under-shooting prediction.
        for g in &stats.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        // (2) Capacity is generous (16 GiB), so every job — mispredicted
        // or not — must run to completion; recovery never strands a job.
        prop_assert_eq!(stats.completed, stats.submitted, "a job failed to complete");
        for j in &stats.jobs {
            if j.mispredict_recoveries > 0 {
                prop_assert_eq!(
                    j.admission_source.as_str(), "measured",
                    "job {} recovered but kept predicted provenance", j.name
                );
                prop_assert!(
                    j.admission_validations > 0,
                    "job {} re-measured for free", j.name
                );
                prop_assert!(
                    j.prediction_error_permille > 0,
                    "job {} recovered from a zero-error prediction", j.name
                );
            }
        }

        // (3) Warm-key grants that held are validation-free, and every
        // engine run the controller performed is billed to exactly one
        // job — the predictor cannot leak unattributed measurements.
        for j in &stats.jobs {
            if j.admission_source == "predicted" {
                prop_assert_eq!(
                    j.admission_validations, 0,
                    "predicted job {} charged a validation run", j.name
                );
                prop_assert!(j.predicted_bytes > 0, "predicted job {} granted 0 bytes", j.name);
            }
        }
        let billed: u64 = stats.jobs.iter().map(|j| j.admission_validations).sum();
        prop_assert_eq!(
            billed, cluster.validation_runs(),
            "per-job admission_validations must sum to the controller total"
        );

        // The first arrival always finds a cold key; later same-batch or
        // warm-key arrivals must have consulted the predictor.
        prop_assert!(stats.predictor_misses >= 1, "seed arrival never missed");
        prop_assert_eq!(
            stats.predictor_hits + stats.predictor_misses,
            stats.submitted as u64,
            "every arrival of a predictable measured policy consults the predictor"
        );

        // Determinism: same workload, same config ⇒ byte-identical JSON.
        let again = Cluster::new(predictive_cluster(gpus, 16 << 30)).run(&jobs);
        prop_assert_eq!(stats.to_json(), again.to_json());
    }

    #[test]
    fn predictive_off_is_inert_whatever_the_knobs_say(
        n in 2usize..6,
        seed in 0u64..4,
        min_samples in 1u64..8,
    ) {
        // (4) With the predictor disabled, the sample knob is dead
        // weight: stats are byte-identical to the default
        // builder's on the same seed, and no predictor counter moves.
        let jobs = synthetic_jobs(n, seed, 1.0);
        let base = ClusterConfig::builder()
            .gpus(2)
            .build()
            .expect("base config");
        let off = ClusterConfig::builder()
            .gpus(2)
            .predictive(false)
            .min_samples(min_samples)
            .build()
            .expect("off config");
        let want = Cluster::new(base).run(&jobs);
        let got = Cluster::new(off).run(&jobs);
        prop_assert_eq!(want.to_json(), got.to_json());
        prop_assert_eq!(got.predictor_hits, 0);
        prop_assert_eq!(got.predictor_misses, 0);
        prop_assert_eq!(got.mispredict_recoveries, 0);
    }
}
