//! Figure 8(a) — Swap mechanism breakdown on InceptionV3.
//!
//! Paper: at batch 200, access-time-based profiling + decoupled swap
//! (ATP+DS) beats vDNN by 73.9%, and feedback adjustment (FA) adds 21.9%;
//! at vDNN's max batch 400, total data transfer dwarfs compute and the
//! improvement shrinks to 5.5%.

use capuchin::{Capuchin, CapuchinConfig};
use capuchin_baselines::Vdnn;
use capuchin_bench::write_artifact;
use capuchin_executor::{Engine, EngineConfig, MemoryPolicy};
use capuchin_models::ModelKind;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    batch: usize,
    system: String,
    throughput: Option<f64>,
}

fn run(batch: usize, policy: Box<dyn MemoryPolicy>, iters: u64) -> Option<f64> {
    let model = ModelKind::InceptionV3.build(batch);
    let mut eng = Engine::new(&model.graph, EngineConfig::default(), policy);
    let stats = eng.run(iters).ok()?;
    Some(batch as f64 / stats.try_last()?.wall().as_secs_f64())
}

fn main() {
    println!("Fig. 8(a) — swap breakdown on InceptionV3 (images/sec)");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12}",
        "batch", "vDNN", "ATP+DS", "ATP+DS+FA", "+lane-aware"
    );
    let mut points = Vec::new();
    for batch in [200usize, 400] {
        let model = ModelKind::InceptionV3.build(batch);
        let vdnn = run(batch, Box::new(Vdnn::from_graph(&model.graph)), 3);
        // The paper's ATP+DS: naive per-tensor in-trigger estimate, no FA.
        let mut naive_fa = CapuchinConfig::swap_only();
        naive_fa.planner.lane_aware = false;
        let naive = CapuchinConfig {
            feedback: false,
            ..naive_fa
        };
        let atp_ds = run(batch, Box::new(Capuchin::with_config(naive)), 10);
        // + feedback adjustment (the paper's full swap mechanism).
        let atp_ds_fa = run(batch, Box::new(Capuchin::with_config(naive_fa)), 16);
        // Our refinement: lane-aware placement (default configuration).
        let lane = run(
            batch,
            Box::new(Capuchin::with_config(CapuchinConfig::swap_only())),
            10,
        );
        let fmt = |v: Option<f64>| v.map(|t| format!("{t:.1}")).unwrap_or_else(|| "-".into());
        println!(
            "{batch:<8} {:>10} {:>10} {:>12} {:>12}",
            fmt(vdnn),
            fmt(atp_ds),
            fmt(atp_ds_fa),
            fmt(lane)
        );
        for (name, v) in [
            ("vDNN", vdnn),
            ("ATP+DS", atp_ds),
            ("ATP+DS+FA", atp_ds_fa),
            ("ATP+DS+lane", lane),
        ] {
            points.push(Point {
                batch,
                system: name.to_owned(),
                throughput: v,
            });
        }
        if let (Some(v), Some(a), Some(f)) = (vdnn, atp_ds, atp_ds_fa) {
            println!(
                "  ATP+DS vs vDNN: {:+.1}%   (paper @200: +73.9%)   FA on top: {:+.1}%   (paper @200: +21.9%)",
                100.0 * (a / v - 1.0),
                100.0 * (f / a - 1.0)
            );
        }
    }
    write_artifact("fig8a_swap_breakdown", &points);
}
