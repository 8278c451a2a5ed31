//! §6.3.2 "Runtime overhead" — the cost of Capuchin's access tracking when
//! memory management is inactive (batch fits comfortably).
//!
//! Paper: <1% at TF-ori's max batch (average 0.36%) in graph mode;
//! 1.5%/2.5% in eager mode (ResNet-50/DenseNet), where sequential op
//! processing makes the tracker's locking visible.
//!
//! Tracking cost is modeled as a fixed per-access host-side charge (the
//! `RecordTensorAccess` instrumentation + tensor-access-list lock), set to
//! 2 µs per access in graph mode and 4 µs in eager mode (Python
//! interpreter in the loop).

use capuchin::Capuchin;
use capuchin_bench::{final_iter, write_artifact};
use capuchin_executor::{Engine, EngineConfig, ExecMode, TfOri};
use capuchin_models::ModelKind;
use capuchin_sim::Duration;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: &'static str,
    mode: &'static str,
    batch: usize,
    overhead_pct: f64,
}

fn overhead(kind: ModelKind, batch: usize, mode: ExecMode, per_access: Duration) -> f64 {
    let model = kind.build(batch);
    let base_cfg = EngineConfig {
        mode,
        ..EngineConfig::default()
    };
    let mut base = Engine::new(&model.graph, base_cfg.clone(), Box::new(TfOri::new()));
    let base_stats = base.run(3).expect("fits");
    let b = final_iter(&base_stats).wall();
    let cap_cfg = EngineConfig {
        tracking_overhead: per_access,
        ..base_cfg
    };
    let mut cap = Engine::new(&model.graph, cap_cfg, Box::new(Capuchin::new()));
    let cap_stats = cap.run(3).expect("fits");
    let c = final_iter(&cap_stats).wall();
    100.0 * (c.as_secs_f64() / b.as_secs_f64() - 1.0)
}

fn main() {
    println!("Runtime tracking overhead at TF-ori max batch (paper: graph <1%, eager 1.5-2.5%)");
    let mut rows = Vec::new();
    let graph_cases = [
        (ModelKind::Vgg16, 208),
        (ModelKind::ResNet50, 190),
        (ModelKind::ResNet152, 86),
        (ModelKind::InceptionV3, 160),
        (ModelKind::InceptionV4, 88),
        (ModelKind::BertBase, 64),
    ];
    let mut sum = 0.0;
    for (kind, batch) in graph_cases {
        let pct = overhead(kind, batch, ExecMode::Graph, Duration::from_micros(2));
        println!(
            "  graph  {:<12} b={batch:<4} overhead = {pct:.2}%",
            kind.name()
        );
        sum += pct;
        rows.push(Row {
            model: kind.name(),
            mode: "graph",
            batch,
            overhead_pct: pct,
        });
    }
    println!(
        "  graph average: {:.2}%   (paper: 0.36%)",
        sum / graph_cases.len() as f64
    );
    for (kind, batch) in [(ModelKind::ResNet50, 116), (ModelKind::DenseNet121, 70)] {
        let pct = overhead(
            kind,
            batch,
            ExecMode::eager_default(),
            Duration::from_micros(4),
        );
        println!(
            "  eager  {:<12} b={batch:<4} overhead = {pct:.2}%   (paper: 1.5-2.5%)",
            kind.name()
        );
        rows.push(Row {
            model: kind.name(),
            mode: "eager",
            batch,
            overhead_pct: pct,
        });
    }
    write_artifact("overhead_tracking", &rows);
}
