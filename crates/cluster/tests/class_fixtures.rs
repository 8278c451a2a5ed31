//! Byte-identity fixtures for the job-class paths the training-only
//! `prerefactor_*` fixtures never reach: inference serving with burst
//! absorption, predictive admission with a mispredict recovery, and
//! best-fit preemption next to elastic re-batching.
//!
//! Each fixture pins the full stats JSON plus the count and a 64-bit
//! FNV-1a digest of the rendered lifecycle event log
//! ([`Cluster::take_events`]) and of the transfer trace. Every run also
//! asserts that it actually took its class path, so a fixture can never
//! silently pin a run that skipped the code it guards.

use capuchin_cluster::job::synthetic_inference_jobs;
use capuchin_cluster::{
    synthetic_mixed_jobs, AdmissionMode, Cluster, ClusterConfig, ClusterStats, JobPolicy, JobSpec,
    StrategyKind,
};
use capuchin_models::ModelKind;
use capuchin_sim::{DeviceSpec, InterconnectSpec};

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `{"count":n,"fnv64":"…"}` over one JSON line per record.
fn digest<T: serde::Serialize>(records: &[T]) -> String {
    let mut text = String::new();
    for r in records {
        text.push_str(&serde_json::to_string(r).expect("record serializes"));
        text.push('\n');
    }
    format!(
        "{{\"count\":{},\"fnv64\":\"{:016x}\"}}",
        records.len(),
        fnv64(text.as_bytes())
    )
}

/// Runs `jobs` and renders the fixture text: the event and transfer
/// digests, then the stats JSON verbatim.
fn render(cfg: ClusterConfig, jobs: &[JobSpec]) -> (ClusterStats, String) {
    let mut cluster = Cluster::new(cfg);
    let (stats, transfers) = cluster.run_traced(jobs);
    let events = cluster.take_events();
    let text = format!(
        "{{\"events\":{},\"transfers\":{},\"stats\":{}}}\n",
        digest(&events),
        digest(&transfers),
        stats.to_json()
    );
    (stats, text)
}

fn assert_matches(fixture: &str, text: &str) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
    assert!(want == text, "run diverged from fixture {fixture}:\n{text}");
}

/// (a) Mixed training fleet plus two inference jobs on a shared PCIe
/// fabric, elastic and SLO-aware: serving rounds, KV growth and the
/// burst shrink of an elastic training neighbour.
#[test]
fn mixed_serving_with_burst_absorption_matches_fixture() {
    let mut jobs = synthetic_mixed_jobs(8, 2, 5, 0.3);
    for mut inf in synthetic_inference_jobs(2, 5, 0.5, 12.0) {
        inf.kv_bytes_per_request = 512 << 20;
        inf.arrival_time += 0.5;
        jobs.push(inf);
    }
    let cfg = ClusterConfig::builder()
        .gpus(2)
        .spec(DeviceSpec::p100_pcie3().with_memory(6 << 30))
        .elastic(true)
        .slo_aware(true)
        .interconnect(InterconnectSpec::parse("pcie").expect("pcie spec"))
        .build()
        .expect("cluster config");
    let (stats, text) = render(cfg, &jobs);
    assert!(
        stats.burst_shrinks > 0,
        "no burst shrink: {}",
        stats.to_json()
    );
    assert!(stats.requests_served > 0, "nothing served");
    assert_matches("class_mixed_serving_pcie.json", &text);
}

/// (b) Predictive admission: a batch-16 run warms the predictor, and
/// the batch-48 arrival it extrapolates to under-shoots, is caught at
/// its first boundary and recovers through measured re-admission; the
/// shared fabric records the recovery's checkpoint copy.
#[test]
fn predicted_admission_with_one_recovery_matches_fixture() {
    let job = |name: &str, batch: usize, arrival: f64| JobSpec {
        name: name.into(),
        model: ModelKind::Vgg16,
        batch,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters: 3,
        priority: 0,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    };
    let jobs = [job("seed", 16, 0.0), job("big", 48, 120.0)];
    let cfg = ClusterConfig::builder()
        .gpus(1)
        .admission(AdmissionMode::TfOri)
        .predictive(true)
        .min_samples(1)
        .interconnect(InterconnectSpec::parse("pcie").expect("pcie spec"))
        .build()
        .expect("cluster config");
    let (stats, text) = render(cfg, &jobs);
    assert_eq!(stats.mispredict_recoveries, 1, "{}", stats.to_json());
    assert_eq!(stats.predictor_hits, 1);
    assert_matches("class_predicted_recovery.json", &text);
}

/// (c) Best-fit with checkpoint-preemption and elastic re-batching on a
/// tight two-GPU cluster, checkpoint and re-batch copies on the fabric.
#[test]
fn best_fit_preemption_with_elastic_matches_fixture() {
    let jobs = synthetic_mixed_jobs(6, 2, 1, 0.3);
    let cfg = ClusterConfig::builder()
        .gpus(2)
        .spec(DeviceSpec::p100_pcie3().with_memory(4 << 30))
        .strategy(StrategyKind::BestFit)
        .preemption(true)
        .elastic(true)
        .interconnect(InterconnectSpec::parse("pcie").expect("pcie spec"))
        .build()
        .expect("cluster config");
    let (stats, text) = render(cfg, &jobs);
    assert!(stats.preemptions > 0, "no preemption: {}", stats.to_json());
    assert!(stats.rebatches > 0, "no rebatch: {}", stats.to_json());
    assert_matches("class_bestfit_preempt_elastic.json", &text);
}
