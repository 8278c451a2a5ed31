//! Policy-registry properties (the safety story of the descriptor
//! dispatch PR):
//!
//! 1. **No over-commit, any policy mix** — a workload mixing every
//!    registry policy (tf-ori, capuchin, dtr, delta) on one cluster
//!    never reserves past a GPU's capacity at any simulated instant.
//! 2. **Heuristic admission is measurement-free** — an all-DTR workload
//!    leaves the validation cache cold and charges zero validation runs
//!    to every job: heuristic-class policies admit from the footprint
//!    estimate alone.
//! 3. **Determinism** — same seed, same config ⇒ byte-identical stats
//!    JSON, for any policy mix.
//! 4. **Legacy byte-identity** — the tf-ori/capuchin workloads the
//!    pre-registry scheduler ran produce byte-identical stats today
//!    (fixtures captured from the release binary one commit before the
//!    registry landed; only the schema version and the three counters
//!    this PR added are stripped before comparing).

use capuchin_cluster::{
    synthetic_jobs, AdmissionMode, Cluster, ClusterConfig, ClusterStats, CostClass, JobPolicy,
    JobSpec, StrategyKind, REGISTRY,
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

fn jobs_from(picks: Vec<(usize, u64, u32, u64, usize)>) -> Vec<JobSpec> {
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (menu, iters, priority, slot, policy))| {
            let (model, batch) = MENU[menu % MENU.len()];
            JobSpec {
                name: format!("job{i:02}"),
                model,
                batch,
                gpus: 1,
                policy: REGISTRY[policy % REGISTRY.len()].policy,
                iters: 1 + iters,
                priority,
                arrival_time: slot as f64 * 0.05,
                elastic: false,
                ..JobSpec::default()
            }
        })
        .collect()
}

fn small_cluster(gpus: usize, capacity: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(gpus)
        .spec(DeviceSpec::p100_pcie3().with_memory(capacity))
        .admission(AdmissionMode::Capuchin)
        .strategy(StrategyKind::FifoFirstFit)
        .build()
        .expect("cluster config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mixed_policy_workloads_never_overcommit_and_are_deterministic(
        picks in prop::collection::vec(
            (0usize..3, 0u64..3, 0u32..3, 0u64..8, 0usize..4),
            1..5,
        ),
        gpus in 1usize..3,
        capacity_gib_halves in 2u64..5, // 1.0, 1.5, 2.0 GiB
    ) {
        let jobs = jobs_from(picks);
        let capacity = capacity_gib_halves << 29;
        let mut cluster = Cluster::new(small_cluster(gpus, capacity));
        let stats = cluster.run(&jobs);

        // (1) No over-commit at any simulated instant, on any GPU,
        // whatever the policy mix — heuristic grants included.
        for g in &stats.per_gpu {
            prop_assert!(
                g.peak_reserved_bytes <= g.capacity,
                "gpu {} over-committed: peak {} > capacity {}",
                g.gpu, g.peak_reserved_bytes, g.capacity
            );
        }

        // (2b) Validation attribution is complete: every engine run the
        // controller performed is billed to exactly one job.
        let billed: u64 = stats.jobs.iter().map(|j| j.admission_validations).sum();
        prop_assert_eq!(
            billed, cluster.validation_runs(),
            "per-job admission_validations must sum to the controller total"
        );

        // (3) Same workload, same config: byte-identical stats.
        let again = Cluster::new(small_cluster(gpus, capacity)).run(&jobs);
        prop_assert_eq!(stats.to_json(), again.to_json());
    }

    #[test]
    fn heuristic_policies_admit_without_measured_validation(
        picks in prop::collection::vec(
            (0usize..3, 0u64..3, 0u32..3, 0u64..8, 0usize..4),
            1..4,
        ),
        gpus in 1usize..3,
    ) {
        // Same workload shape, every job forced onto the heuristic-class
        // policy (DTR). Validation replay must never run: the cache
        // stays cold and no job is charged a validation.
        let mut jobs = jobs_from(picks);
        for j in &mut jobs {
            j.policy = JobPolicy::Dtr;
        }
        prop_assert_eq!(
            JobPolicy::Dtr.descriptor().cost_class,
            CostClass::Heuristic
        );
        let mut cluster = Cluster::new(small_cluster(gpus, 3 << 29));
        let stats = cluster.run(&jobs);
        prop_assert_eq!(cluster.validation_cache_len(), 0, "validation cache warmed");
        prop_assert_eq!(cluster.validation_runs(), 0, "validation engine ran");
        for j in &stats.jobs {
            prop_assert_eq!(
                j.admission_validations, 0,
                "job {} charged a measured validation", j.name
            );
        }
    }
}

/// Strips `keys` from every object in the tree, recursively.
fn strip_keys(v: &mut serde_json::Value, keys: &[&str]) {
    match v {
        serde_json::Value::Object(entries) => {
            entries.retain(|(k, _)| !keys.contains(&k.as_str()));
            for (_, val) in entries.iter_mut() {
                strip_keys(val, keys);
            }
        }
        serde_json::Value::Array(items) => {
            for item in items.iter_mut() {
                strip_keys(item, keys);
            }
        }
        _ => {}
    }
}

/// (4) Byte-identity with the pre-registry scheduler, modulo the fields
/// this PR introduced (stripped from both sides symmetrically).
fn assert_matches_fixture(fixture: &str, stats: &ClusterStats) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
    let stripped = [
        "schema_version",
        "recompute_time",
        "evictions",
        "admission_validations",
        // Schema-5 predictive-admission fields. All are identically
        // zero / "measured" in these predictive-off runs, but the
        // fixtures predate the fields entirely.
        "admission_source",
        "predicted_bytes",
        "prediction_error_permille",
        "mispredict_recoveries",
        "predictor_hits",
        "predictor_misses",
    ];
    let mut want: serde_json::Value = serde_json::from_str(&want).expect("fixture parses");
    let mut got: serde_json::Value = serde_json::from_str(&stats.to_json()).expect("stats parse");
    strip_keys(&mut want, &stripped);
    strip_keys(&mut got, &stripped);
    assert!(
        got == want,
        "same-seed run diverged from pre-registry fixture {fixture}"
    );
}

#[test]
fn legacy_workload_matches_prerefactor_fixture() {
    // `capuchin-cli cluster --synthetic 10 --seed 7 --gpus 4` defaults.
    let jobs = synthetic_jobs(10, 7, 2.0);
    let cfg = ClusterConfig::builder()
        .gpus(4)
        .spec(DeviceSpec::p100_pcie3().with_memory(16 << 30))
        .admission(AdmissionMode::Capuchin)
        .strategy(StrategyKind::FifoFirstFit)
        .build()
        .expect("cluster config");
    let stats = Cluster::new(cfg).run(&jobs);
    assert_matches_fixture("prerefactor_synthetic10_seed7.json", &stats);
}

#[test]
fn legacy_pcie_workload_matches_prerefactor_fixture() {
    // Same, with `--preemption on --elastic on --interconnect pcie`.
    let jobs = synthetic_jobs(8, 3, 2.0);
    let cfg = ClusterConfig::builder()
        .gpus(4)
        .spec(DeviceSpec::p100_pcie3().with_memory(16 << 30))
        .admission(AdmissionMode::Capuchin)
        .strategy(StrategyKind::FifoFirstFit)
        .preemption(true)
        .elastic(true)
        .interconnect(capuchin_sim::InterconnectSpec::parse("pcie").expect("pcie spec"))
        .build()
        .expect("cluster config");
    let stats = Cluster::new(cfg).run(&jobs);
    assert_matches_fixture("prerefactor_synthetic8_seed3_pcie.json", &stats);
}
