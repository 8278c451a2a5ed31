//! Byte-identity pins for the Policy Maker and the admission budgets
//! derived from it.
//!
//! Every plan the planner makes for the model zoo, at three budgets per
//! model and under four planner configurations (the paper's default, the
//! DELTA joint ordering, swap-only and recompute-only), is reduced to a
//! canonical text and pinned by its 64-bit FNV-1a digest, together with
//! the planned savings and the smallest planner-feasible budget. The
//! admission half pins `Admission::needs` (engine-validated) and the
//! heuristic needs for the twelve shapes the `admit` benchmark workload
//! admits cold: four CNNs at batches 16, 32 and 48.
//!
//! A speed-up of the planner or of the validation engine must leave
//! every line of `fixtures/plans.txt` and `fixtures/admission.txt`
//! unchanged. On a mismatch a test prints the full table it computed.

use std::fmt::Write as _;

use capuchin::{
    measure_footprint, shrink_feasibility, EvictMethod, FootprintEstimate, Plan, PlannerConfig,
};
use capuchin_cluster::{min_feasible_budget, Admission, AdmissionMode};
use capuchin_models::ModelKind;
use capuchin_sim::DeviceSpec;

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of a plan, in key order (the plan's maps are unordered).
fn canonical(plan: &Plan) -> String {
    let mut text = String::new();
    let mut evictions: Vec<_> = plan.evictions.iter().collect();
    evictions.sort_by_key(|(k, _)| **k);
    for ((key, count), method) in evictions {
        let m = match method {
            EvictMethod::Swap => "swap",
            EvictMethod::Recompute => "recompute",
        };
        writeln!(text, "evict {} {count} {m}", key.0).unwrap();
    }
    let mut swaps: Vec<_> = plan.swaps.iter().collect();
    swaps.sort_by_key(|(k, _)| **k);
    for (key, s) in swaps {
        writeln!(
            text,
            "swap {} {} {} {} {} {} {}",
            key.0,
            s.evicted_count,
            s.back_count,
            s.back_time.as_nanos(),
            s.swap_in_time.as_nanos(),
            s.planned_start.as_nanos(),
            s.ft_ns
        )
        .unwrap();
    }
    let mut triggers: Vec<_> = plan.in_triggers.iter().collect();
    triggers.sort_by_key(|(k, _)| **k);
    for ((key, count), targets) in triggers {
        let targets: Vec<u64> = targets.iter().map(|t| t.0).collect();
        writeln!(text, "trigger {} {count} {targets:?}", key.0).unwrap();
    }
    let mut lead: Vec<_> = plan.lead.iter().collect();
    lead.sort_by_key(|(k, _)| **k);
    for (key, d) in lead {
        writeln!(text, "lead {} {}", key.0, d.as_nanos()).unwrap();
    }
    let mut recompute: Vec<u64> = plan.recompute_keys.iter().map(|k| k.0).collect();
    recompute.sort_unstable();
    writeln!(text, "recompute {recompute:?}").unwrap();
    writeln!(
        text,
        "saving {} {} {} {}",
        plan.planned_saving, plan.swap_saving, plan.recompute_saving, plan.lane_aware
    )
    .unwrap();
    text
}

fn configs() -> [(&'static str, PlannerConfig); 4] {
    let base = PlannerConfig::default();
    [
        ("default", base),
        (
            "delta",
            PlannerConfig {
                delta_interleave: true,
                ..base
            },
        ),
        (
            "swap-only",
            PlannerConfig {
                enable_recompute: false,
                ..base
            },
        ),
        (
            "recompute-only",
            PlannerConfig {
                enable_swap: false,
                ..base
            },
        ),
    ]
}

fn estimate(model: ModelKind, batch: usize) -> FootprintEstimate {
    let graph = model.build(batch).graph;
    measure_footprint(&graph, &DeviceSpec::p100_pcie3()).expect("unconstrained run")
}

fn assert_matches(fixture: &str, text: &str) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
    for (i, (w, t)) in want.lines().zip(text.lines()).enumerate() {
        assert!(
            w == t,
            "line {} diverged:\n want {w}\n  got {t}\n{text}",
            i + 1
        );
    }
    assert!(want == text, "fixture length diverged:\n{text}");
}

#[test]
fn zoo_plans_are_pinned() {
    let mut text = String::new();
    // Plans: the whole zoo, three budgets between the weight floor and
    // the ideal peak, four planner configurations.
    for model in ModelKind::ALL {
        let est = estimate(model, 8);
        writeln!(
            text,
            "{} b8 peak {} weights {}",
            model.name(),
            est.ideal_peak,
            est.weight_bytes
        )
        .unwrap();
        let transient = est.transient_bytes();
        for (name, cfg) in configs() {
            for quarter in [3u64, 2, 1] {
                let budget = est.weight_bytes + transient * quarter / 4;
                let shrunk = shrink_feasibility(&est, budget, &cfg);
                let plan = canonical(&shrunk.plan);
                writeln!(
                    text,
                    "  {name} q{quarter} budget {budget} feasible {} overhead {} evictions {} fnv {:016x}",
                    shrunk.feasible,
                    shrunk.predicted_overhead.as_nanos(),
                    shrunk.plan.len(),
                    fnv64(plan.as_bytes())
                )
                .unwrap();
            }
            writeln!(
                text,
                "  {name} min_feasible {}",
                min_feasible_budget(&est, &cfg)
            )
            .unwrap();
        }
    }
    assert_matches("plans.txt", &text);
}

#[test]
fn admit_shape_budgets_are_pinned() {
    let mut text = String::new();
    for model in [
        ModelKind::ResNet50,
        ModelKind::DenseNet121,
        ModelKind::InceptionV3,
        ModelKind::Vgg16,
    ] {
        for batch in [16usize, 32, 48] {
            let graph = model.build(batch).graph;
            let est = measure_footprint(&graph, &DeviceSpec::p100_pcie3()).expect("unconstrained");
            let admission = Admission::new(AdmissionMode::Capuchin);
            let needs = admission.needs(&graph, &est);
            let heuristic = admission.heuristic_needs(&est);
            writeln!(
                text,
                "admit {} b{batch} full {} min {} heuristic_min {} min_feasible {} validations {}",
                model.name(),
                needs.full,
                needs.min,
                heuristic.min,
                min_feasible_budget(&est, &admission.planner),
                admission.validation_runs()
            )
            .unwrap();
        }
    }
    assert_matches("admission.txt", &text);
}
