//! The paper's evaluation (§6) as one exhibit table.
//!
//! Each [`Exhibit`] reproduces one table or figure: it runs its sweep,
//! prints a human-readable table next to the paper's numbers, and renders
//! its whole artifact, which [`Exhibit::execute`] writes to
//! `results/<name>.json` only once the exhibit has finished. Every
//! exhibit is deterministic, so a rerun rewrites its JSON byte for byte.
//! The `exhibit` binary drives the table: `exhibit <name>` runs one entry,
//! `exhibit --all` runs them all in order.

use std::collections::HashMap;

use capuchin::{Capuchin, CapuchinConfig};
use capuchin_baselines::CheckpointMode;
use capuchin_executor::{Engine, EngineConfig, MemoryPolicy};
use capuchin_graph::{OpKind, Phase};
use capuchin_models::Model;
use capuchin_models::ModelKind::{
    self, BertBase, DenseNet121, InceptionV3, InceptionV4, ResNet152, ResNet50, Vgg16,
};
use capuchin_sim::{CopyDir, Duration, TraceKind};
use capuchin_tensor::TensorKey;
use serde::Serialize;

use crate::{artifact_json, checkpointing, samples_per_s, write_artifact, Bench, System};

/// One table or figure of the paper's evaluation.
pub struct Exhibit {
    /// Name, as the `exhibit` binary takes it; also the stem of the
    /// artifact under `results/`.
    pub name: &'static str,
    /// Runs the exhibit, printing its table, and renders its artifact.
    run: fn() -> String,
}

impl Exhibit {
    /// Runs the exhibit and writes its artifact to `results/<name>.json`.
    pub fn execute(&self) {
        write_artifact(self.name, &(self.run)());
    }
}

/// Every exhibit, in the order `exhibit --all` runs them.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "fig1_vdnn_sync",
        run: fig1_vdnn_sync,
    },
    Exhibit {
        name: "fig2_conv_times",
        run: fig2_conv_times,
    },
    Exhibit {
        name: "fig3_access_pattern",
        run: fig3_access_pattern,
    },
    Exhibit {
        name: "table2_max_batch",
        run: table2_max_batch,
    },
    Exhibit {
        name: "fig8a_swap_breakdown",
        run: fig8a_swap_breakdown,
    },
    Exhibit {
        name: "fig8b_recompute_breakdown",
        run: fig8b_recompute_breakdown,
    },
    Exhibit {
        name: "fig9_perf_graph",
        run: fig9_perf_graph,
    },
    Exhibit {
        name: "overhead_tracking",
        run: overhead_tracking,
    },
    Exhibit {
        name: "table3_eager_max_batch",
        run: table3_eager_max_batch,
    },
    Exhibit {
        name: "fig10_perf_eager",
        run: fig10_perf_eager,
    },
    Exhibit {
        name: "ablations",
        run: ablations,
    },
];

/// The systems Table 2 and Fig. 9 compare in graph mode: TF-ori first and
/// Capuchin last, as [`max_batch_rows`] requires.
const GRAPH_MODE: [System; 5] = [
    System::TfOri,
    System::Vdnn,
    System::OpenAiMemory,
    System::OpenAiSpeed,
    System::Capuchin,
];

/// A table cell for a measurement; `-` where the run went OOM.
fn cell<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

/// A throughput or time cell, to one decimal.
fn cell1(v: Option<f64>) -> String {
    cell(v.map(|v| format!("{v:.1}")))
}

/// Prints one table row: a 12-wide label, then 10-wide cells.
fn print_row(label: &str, cells: impl IntoIterator<Item = String>) {
    let cells: String = cells.into_iter().map(|c| format!(" {c:>10}")).collect();
    println!("{label:<12}{cells}");
}

/// Figure 1 — vDNN's synchronization overhead on Vgg16.
///
/// The paper profiles vDNN on Vgg16 (batch 230, P100, PCIe 3.0 ×16) and
/// shows the largest tensor's swap-out/in each taking >3× the overlapped
/// layer's compute time, for a total performance loss of 41.3%. This
/// traces the same configuration and reports the largest swap against the
/// layer it tried to hide under, and the end-to-end loss versus TF-ori.
fn fig1_vdnn_sync() -> String {
    #[derive(Serialize)]
    struct Fig1 {
        batch: usize,
        largest_swap_ms: f64,
        overlapped_layer_ms: f64,
        swap_to_layer_ratio: f64,
        vdnn_iter_ms: f64,
        tf_iter_ms: f64,
        performance_loss_pct: f64,
        paper_ratio: &'static str,
        paper_loss_pct: f64,
    }

    let batch = 230;
    let model = Vgg16.build(batch);

    // TF-ori cannot run batch 230 (the paper's point); take its per-sample
    // speed at its comfort zone, batch 208, as the baseline.
    let tf_model = Vgg16.build(208);
    let tf_policy = System::TfOri.policy(&tf_model.graph);
    let tf_iter = Bench::default()
        .run(&tf_model.graph, tf_policy, None, 3)
        .expect("VGG16 @208 fits TF-ori");
    let tf_tput = samples_per_s(208, &tf_iter);

    let cfg = EngineConfig {
        trace: true,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&model.graph, cfg, System::Vdnn.policy(&model.graph));
    let stats = eng.run(2).expect("vDNN runs VGG16 @230");
    let vdnn_iter = stats.try_last().expect("two iterations ran");
    let trace = eng.take_trace().expect("trace enabled");

    // Largest swap-out and the kernel that runs concurrently with it.
    let largest = trace
        .of_kind(TraceKind::SwapOut)
        .max_by_key(|e| e.duration())
        .expect("vDNN swapped something");
    let overlapped = trace
        .of_kind(TraceKind::Kernel)
        .filter(|k| k.start <= largest.end && k.end >= largest.start)
        .max_by_key(|k| k.duration())
        .expect("a kernel overlaps the swap");

    // The paper compares the *round trip* ("the time of swapping out/in
    // are more than 3x as much as the overlapped layer's execution time").
    let in_time = eng.spec().copy_time(
        model
            .graph
            .values()
            .iter()
            .find(|v| largest.label.contains(&v.name))
            .map(|v| v.size_bytes())
            .unwrap_or(0),
        CopyDir::HostToDevice,
    );
    let ratio = (largest.duration().as_secs_f64() + in_time.as_secs_f64())
        / overlapped.duration().as_secs_f64();
    let vdnn_tput = samples_per_s(batch, vdnn_iter);
    let loss = 100.0 * (1.0 - vdnn_tput / tf_tput);

    println!("Fig. 1 — vDNN synchronization overhead on Vgg16 (batch {batch})");
    println!(
        "largest swap-out: {} ({})",
        largest.duration(),
        largest.label
    );
    println!(
        "overlapped layer: {} ({})",
        overlapped.duration(),
        overlapped.label
    );
    println!("swap/layer ratio: {ratio:.1}x   (paper: >3x)");
    println!(
        "vDNN {vdnn_tput:.1} img/s @230 vs TF-ori {tf_tput:.1} img/s @208 -> loss {loss:.1}%   (paper: 41.3%)"
    );

    artifact_json(&Fig1 {
        batch,
        largest_swap_ms: largest.duration().as_millis_f64(),
        overlapped_layer_ms: overlapped.duration().as_millis_f64(),
        swap_to_layer_ratio: ratio,
        vdnn_iter_ms: vdnn_iter.wall().as_millis_f64(),
        tf_iter_ms: tf_iter.wall().as_millis_f64(),
        performance_loss_pct: loss,
        paper_ratio: ">3x",
        paper_loss_pct: 41.3,
    })
}

/// Figure 2 — Execution-time variation of InceptionV3's convolution layers.
///
/// The paper measures all 94 convolution layers of InceptionV3 on a P100
/// and finds a 37× spread (474 µs – 17,727 µs), with 95.7% of layers under
/// 3 ms — the observation that invalidates "convolution = expensive"
/// static heuristics.
fn fig2_conv_times() -> String {
    #[derive(Serialize)]
    struct Fig2 {
        batch: usize,
        conv_layers: usize,
        min_us: f64,
        max_us: f64,
        spread: f64,
        under_3ms_pct: f64,
        times_us: Vec<f64>,
    }

    let batch = 64; // the paper does not state the profiled batch; 64 reproduces the distribution
    let model = InceptionV3.build(batch);
    let cfg = EngineConfig {
        trace: true,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&model.graph, cfg, System::TfOri.policy(&model.graph));
    eng.run(2).expect("InceptionV3 fits at TF-ori max batch");
    let trace = eng.take_trace().expect("trace enabled");

    // Forward convolution kernel durations, in layer order.
    let times: Vec<f64> = model
        .graph
        .ops()
        .iter()
        .filter(|op| {
            matches!(op.kind, OpKind::Conv2d(_)) && model.graph.phase(op.id) == Phase::Forward
        })
        .filter_map(|op| {
            trace
                .of_kind(TraceKind::Kernel)
                .filter(|k| k.label == op.name)
                .last()
        })
        .map(|k| k.duration().as_micros_f64())
        .collect();

    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0, f64::max);
    let under = times.iter().filter(|&&t| t < 3_000.0).count();
    let pct = 100.0 * under as f64 / times.len() as f64;

    println!("Fig. 2 — InceptionV3 convolution layer times (batch {batch})");
    println!("layers: {}   (paper: 94)", times.len());
    println!("min: {min:.0} us   (paper: 474 us)");
    println!("max: {max:.0} us   (paper: 17,727 us)");
    println!("spread: {:.0}x   (paper: 37x)", max / min);
    println!("under 3 ms: {pct:.1}%   (paper: 95.7%)");
    println!("\nlayer#  time(us)");
    for (i, t) in times.iter().enumerate() {
        println!("{i:>6}  {t:>9.0}");
    }

    artifact_json(&Fig2 {
        batch,
        conv_layers: times.len(),
        min_us: min,
        max_us: max,
        spread: max / min,
        under_3ms_pct: pct,
        times_us: times,
    })
}

/// Figure 3 — Regularity of tensor accesses across iterations.
///
/// The paper profiles three ResNet-50 tensors at iterations 5, 10, and 15
/// and shows fixed access counts and near-identical relative timestamps
/// (variance < 1 ms) — the property that makes measured-execution-based
/// planning valid.
fn fig3_access_pattern() -> String {
    #[derive(Serialize)]
    struct TensorSeries {
        tensor: String,
        accesses: usize,
        /// Relative timestamps (ms) per profiled iteration.
        times_ms: Vec<Vec<f64>>,
        max_variance_ms: f64,
    }

    let model = ResNet50.build(190);
    let policy = System::TfOri.policy(&model.graph);
    let mut eng = Engine::new(&model.graph, EngineConfig::default(), policy);

    // Profile iterations 5, 10, 15 as in the paper.
    let mut profiles: Vec<HashMap<TensorKey, Vec<f64>>> = Vec::new();
    for iter in 0..16u64 {
        eng.run(1).expect("fits at TF max batch");
        if matches!(iter, 5 | 10 | 15) {
            let start = eng.iter_stats().started_at;
            let mut per_tensor: HashMap<TensorKey, Vec<f64>> = HashMap::new();
            for a in eng.access_log() {
                per_tensor
                    .entry(a.key)
                    .or_default()
                    .push(a.time.saturating_since(start).as_millis_f64());
            }
            profiles.push(per_tensor);
        }
    }

    // Pick T1 with 4 accesses and T2, T3 with 6, as in the paper.
    let pick = |want: usize, skip: &[TensorKey]| -> Option<TensorKey> {
        let mut keys: Vec<_> = profiles[0]
            .iter()
            .filter(|(k, v)| v.len() == want && !skip.contains(k))
            .map(|(&k, _)| k)
            .collect();
        keys.sort();
        // A mid-network tensor is more illustrative than the stem.
        keys.get(keys.len() / 2).copied()
    };
    let t1 = pick(4, &[]).expect("a 4-access tensor exists");
    let t2 = pick(6, &[]).expect("a 6-access tensor exists");
    let t3 = pick(6, &[t2]).expect("another 6-access tensor exists");

    println!("Fig. 3 — ResNet-50 tensor access timeline at iterations 5/10/15 (batch 190)");
    let mut series = Vec::new();
    for key in [t1, t2, t3] {
        let name = model.graph.value(Engine::value_of(key)).name.clone();
        let times: Vec<Vec<f64>> = profiles.iter().map(|p| p[&key].clone()).collect();
        // Max across accesses of the spread across iterations.
        let accesses = times[0].len();
        let mut max_var: f64 = 0.0;
        for i in 0..accesses {
            let vals: Vec<f64> = times.iter().map(|t| t[i]).collect();
            let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - vals.iter().cloned().fold(f64::INFINITY, f64::min);
            max_var = max_var.max(spread);
        }
        println!(
            "{name}: {accesses} accesses, times (iter 5) = {:?} ms, cross-iteration variance = {max_var:.3} ms (paper: <1 ms)",
            times[0].iter().map(|t| (t * 10.0).round() / 10.0).collect::<Vec<_>>()
        );
        assert!(
            times[0] == times[1] && times[1] == times[2],
            "the simulator is deterministic: identical timelines expected"
        );
        series.push(TensorSeries {
            tensor: name,
            accesses,
            times_ms: times,
            max_variance_ms: max_var,
        });
    }
    println!("\naccess patterns are exactly repeated across iterations — the paper's premise holds by construction in steady state");
    artifact_json(&series)
}

/// Table 2 / Table 3: the maximum batch size of each of `systems` (TF-ori
/// first, Capuchin last) per model, printed one row per model with
/// Capuchin's ratio to TF-ori and, when other systems sit between, to the
/// best of them. TF-ori's search starts from the paper's value `seed`;
/// its maximum seeds the others' searches. `None` where a system does
/// not support the model.
fn max_batch_rows(
    bench: &Bench,
    workloads: &[(ModelKind, usize)],
    systems: &[System],
) -> Vec<Vec<Option<usize>>> {
    let others = &systems[1..systems.len() - 1];
    let mut header: Vec<String> = systems.iter().map(|s| s.name().to_owned()).collect();
    header.push("Cap/TF".into());
    if !others.is_empty() {
        header.push("Cap/2nd".into());
    }
    print_row("Model", header);
    let (mut ratio_tf_sum, mut ratio_2nd_sum) = (0.0, 0.0);
    let mut rows = Vec::new();
    for &(kind, seed) in workloads {
        let tf = bench.max_batch(kind, System::TfOri, seed);
        let max: Vec<Option<usize>> = systems
            .iter()
            .map(|&s| match s {
                System::TfOri => Some(tf),
                s if s.supports(kind) => Some(bench.max_batch(kind, s, tf.max(2))),
                _ => None,
            })
            .collect();
        let cap = max.last().copied().flatten().unwrap_or(0) as f64;
        let second = max[1..max.len() - 1].iter().flatten().max().copied();
        let r_tf = cap / tf.max(1) as f64;
        let r_2nd = cap / second.unwrap_or(0).max(1) as f64;
        ratio_tf_sum += r_tf;
        ratio_2nd_sum += r_2nd;
        let mut cells: Vec<String> = max.iter().map(|&m| cell(m)).collect();
        cells.push(format!("{r_tf:.2}x"));
        if !others.is_empty() {
            cells.push(format!("{r_2nd:.2}x"));
        }
        print_row(kind.name(), cells);
        rows.push(max);
    }
    let n = workloads.len() as f64;
    print!("average Capuchin/TF-ori = {:.2}x", ratio_tf_sum / n);
    if !others.is_empty() {
        print!(", Capuchin/2nd-best = {:.2}x", ratio_2nd_sum / n);
    }
    println!();
    rows
}

/// Table 2 — Maximum batch size in graph mode.
///
/// Paper (16 GB P100):
///
/// | Model        | TF-ori | vDNN | OpenAI | Capuchin |
/// |--------------|-------:|-----:|-------:|---------:|
/// | Vgg16        |    228 |  272 |    260 |      350 |
/// | ResNet-50    |    190 |  520 |    540 |     1014 |
/// | ResNet-152   |     86 |  330 |    440 |      798 |
/// | InceptionV3  |    160 |  400 |    400 |      716 |
/// | InceptionV4  |     88 |  220 |    220 |      468 |
/// | BERT         |     64 |    – |    210 |      450 |
///
/// ("OpenAI" is the better of its two modes; vDNN is CNN-only.)
fn table2_max_batch() -> String {
    #[derive(Serialize)]
    struct Row {
        model: &'static str,
        tf_ori: usize,
        vdnn: Option<usize>,
        openai_memory: usize,
        openai_speed: usize,
        capuchin: usize,
    }

    println!("Table 2: maximum batch size, graph mode (simulated 16 GB P100)");
    let workloads = [
        (Vgg16, 228),
        (ResNet50, 190),
        (ResNet152, 86),
        (InceptionV3, 160),
        (InceptionV4, 88),
        (BertBase, 64),
    ];
    let max = max_batch_rows(&Bench::default(), &workloads, &GRAPH_MODE);
    println!("(paper: Capuchin/TF-ori 5.49x, Capuchin/2nd-best 1.84x)");
    let rows: Vec<Row> = workloads
        .iter()
        .zip(max)
        .map(|(&(kind, _), m)| Row {
            model: kind.name(),
            tf_ori: m[0].unwrap_or(0),
            vdnn: m[1],
            openai_memory: m[2].unwrap_or(0),
            openai_speed: m[3].unwrap_or(0),
            capuchin: m[4].unwrap_or(0),
        })
        .collect();
    artifact_json(&rows)
}

/// Table 3 — Maximum batch size in eager mode.
///
/// Paper: ResNet-50 122 (TF) vs 300 (Capuchin, 2.46x); DenseNet 70 vs 190
/// (2.71x). No other system supports eager mode ("no other works are
/// capable of optimizing memory in this mode").
fn table3_eager_max_batch() -> String {
    #[derive(Serialize)]
    struct Row {
        model: &'static str,
        tf_ori: usize,
        capuchin: usize,
    }

    println!("Table 3: maximum batch size, eager mode");
    let workloads = [(ResNet50, 122), (DenseNet121, 70)];
    let max = max_batch_rows(
        &Bench::eager(),
        &workloads,
        &[System::TfOri, System::Capuchin],
    );
    println!("(paper: ResNet-50 122 -> 300 = 2.46x; DenseNet 70 -> 190 = 2.71x)");
    let rows: Vec<Row> = workloads
        .iter()
        .zip(max)
        .map(|(&(kind, _), m)| Row {
            model: kind.name(),
            tf_ori: m[0].unwrap_or(0),
            capuchin: m[1].unwrap_or(0),
        })
        .collect();
    artifact_json(&rows)
}

/// One bar of a Fig. 8 breakdown.
#[derive(Serialize)]
struct Breakdown {
    batch: usize,
    system: &'static str,
    throughput: Option<f64>,
}

/// One x-point of a Fig. 8 breakdown: the throughput of each labelled
/// policy on `model` after its iteration count (`None` = OOM), printed as
/// one row and appended to `bars`.
fn breakdown(
    model: &Model,
    cases: Vec<(&'static str, Box<dyn MemoryPolicy>, u64)>,
    bars: &mut Vec<Breakdown>,
) -> Vec<Option<f64>> {
    let bench = Bench::default();
    let tputs: Vec<Option<f64>> = cases
        .into_iter()
        .map(|(system, policy, iters)| {
            let last = bench.run(&model.graph, policy, None, iters);
            let throughput = last.map(|it| samples_per_s(model.batch, &it));
            bars.push(Breakdown {
                batch: model.batch,
                system,
                throughput,
            });
            throughput
        })
        .collect();
    print_row(&model.batch.to_string(), tputs.iter().map(|&t| cell1(t)));
    tputs
}

/// Figure 8(a) — Swap mechanism breakdown on InceptionV3.
///
/// Paper: at batch 200, access-time-based profiling + decoupled swap
/// (ATP+DS) beats vDNN by 73.9%, and feedback adjustment (FA) adds 21.9%;
/// at vDNN's max batch 400, total data transfer dwarfs compute and the
/// improvement shrinks to 5.5%.
fn fig8a_swap_breakdown() -> String {
    println!("Fig. 8(a) — swap breakdown on InceptionV3 (images/sec)");
    print_row(
        "batch",
        ["vDNN", "ATP+DS", "ATP+DS+FA", "ATP+DS+lane"].map(String::from),
    );
    let mut bars = Vec::new();
    for batch in [200usize, 400] {
        let model = InceptionV3.build(batch);
        // The paper's ATP+DS: naive per-tensor in-trigger estimate, no FA.
        let mut naive_fa = CapuchinConfig::swap_only();
        naive_fa.planner.lane_aware = false;
        let naive = CapuchinConfig {
            feedback: false,
            ..naive_fa
        };
        let cases: Vec<(_, Box<dyn MemoryPolicy>, _)> = vec![
            ("vDNN", System::Vdnn.policy(&model.graph), 3),
            ("ATP+DS", Box::new(Capuchin::with_config(naive)), 10),
            // + feedback adjustment (the paper's full swap mechanism).
            ("ATP+DS+FA", Box::new(Capuchin::with_config(naive_fa)), 16),
            // Our refinement: lane-aware placement (default configuration).
            (
                "ATP+DS+lane",
                System::CapuchinSwapOnly.policy(&model.graph),
                10,
            ),
        ];
        if let [Some(v), Some(a), Some(f), _] = breakdown(&model, cases, &mut bars)[..] {
            println!(
                "  ATP+DS vs vDNN: {:+.1}%   (paper @200: +73.9%)   FA on top: {:+.1}%   (paper @200: +21.9%)",
                100.0 * (a / v - 1.0),
                100.0 * (f / a - 1.0)
            );
        }
    }
    artifact_json(&bars)
}

/// Figure 8(b) — Recomputation mechanism breakdown on ResNet-50.
///
/// Paper: at OpenAI-S's max batch (300), Capuchin's measured-cost
/// recomputation (ATP) beats OpenAI-S by 37.9% — and OpenAI-S actually
/// runs *slower* than OpenAI-M by 8.3%, demonstrating that layer-type
/// heuristics misfire. At OpenAI-M's max batch (540), ATP wins 10.7% and
/// collective recomputation (CR) adds another 7.1%.
fn fig8b_recompute_breakdown() -> String {
    let bench = Bench::default();
    // The paper's two x-points are the two modes' maximum batch sizes.
    let b_speed = bench.max_batch(ResNet50, System::OpenAiSpeed, 190);
    let b_mem = bench.max_batch(ResNet50, System::OpenAiMemory, 190);
    println!(
        "Fig. 8(b) — recompute breakdown on ResNet-50 (images/sec)\n\
         OpenAI-S max batch = {b_speed} (paper: 300), OpenAI-M max batch = {b_mem} (paper: 540)\n"
    );
    print_row(
        "batch",
        ["OpenAI-S", "OpenAI-M", "ATP", "ATP+CR"].map(String::from),
    );
    let mut bars = Vec::new();
    for batch in [b_speed, b_mem] {
        let model = ResNet50.build(batch);
        let atp = CapuchinConfig {
            collective: false,
            ..CapuchinConfig::recompute_only()
        };
        let g = &model.graph;
        let cases: Vec<(_, Box<dyn MemoryPolicy>, _)> = vec![
            ("OpenAI-S", System::OpenAiSpeed.policy(g), 3),
            ("OpenAI-M", System::OpenAiMemory.policy(g), 3),
            ("ATP", Box::new(Capuchin::with_config(atp)), 10),
            ("ATP+CR", System::CapuchinRecomputeOnly.policy(g), 10),
        ];
        breakdown(&model, cases, &mut bars);
    }
    artifact_json(&bars)
}

/// Fig. 9 / Fig. 10: the throughput of each of `systems` over each
/// model's batch sweep `(first, step, count)`, one table per model.
fn throughput_sweep(
    title: &str,
    bench: &Bench,
    sweeps: &[(ModelKind, usize, usize, usize)],
    systems: &[System],
) -> String {
    #[derive(Serialize)]
    struct Point {
        model: &'static str,
        system: &'static str,
        batch: usize,
        /// samples/second; `None` = OOM at this batch.
        throughput: Option<f64>,
    }

    let mut points = Vec::new();
    for &(kind, first, step, count) in sweeps {
        let batches: Vec<usize> = (0..count).map(|i| first + i * step).collect();
        println!("\n{title} — {} (samples/sec; '-' = OOM)", kind.name());
        print_row("batch", batches.iter().map(|b| b.to_string()));
        for &system in systems.iter().filter(|s| s.supports(kind)) {
            let tputs: Vec<Option<f64>> = batches
                .iter()
                .map(|&b| bench.throughput(kind, b, system))
                .collect();
            print_row(system.name(), tputs.iter().map(|&t| cell1(t)));
            points.extend(batches.iter().zip(tputs).map(|(&batch, throughput)| Point {
                model: kind.name(),
                system: system.name(),
                batch,
                throughput,
            }));
        }
    }
    artifact_json(&points)
}

/// Figure 9 — Training speed vs batch size, graph mode, for all six
/// workloads under TF-ori, vDNN, OpenAI (both modes), and Capuchin.
///
/// Paper highlights to reproduce in shape: Capuchin tracks TF-ori until
/// TF-ori's limit and degrades gracefully beyond it (<3% loss at +20%
/// batch); vDNN loses up to 70–74% on the ResNets; OpenAI sits between;
/// systems disappear from the series once they exceed their maximum batch.
fn fig9_perf_graph() -> String {
    // Batch sweeps mirroring the paper's x-axes.
    let sweeps = [
        (Vgg16, 200, 10, 9),       // 200..280
        (ResNet50, 140, 70, 9),    // 140..700
        (InceptionV3, 110, 60, 9), // 110..590
        (ResNet152, 50, 65, 9),    // 50..570
        (InceptionV4, 60, 40, 9),  // 60..380
        (BertBase, 40, 40, 9),     // 40..360
    ];
    throughput_sweep("Fig. 9", &Bench::default(), &sweeps, &GRAPH_MODE)
}

/// Figure 10 — Training speed vs batch size in eager mode.
///
/// Paper: ResNet-50 degrades 23.1% while batch grows 83.6%; DenseNet
/// *speeds up* with batch because rising GPU utilization outweighs
/// recomputation overhead.
fn fig10_perf_eager() -> String {
    let sweeps = [(ResNet50, 90, 20, 9), (DenseNet121, 50, 15, 8)];
    let systems = [System::TfOri, System::Capuchin];
    throughput_sweep("Fig. 10 eager mode", &Bench::eager(), &sweeps, &systems)
}

/// §6.3.2 "Runtime overhead" — the cost of Capuchin's access tracking when
/// memory management is inactive (batch fits comfortably).
///
/// Paper: <1% at TF-ori's max batch (average 0.36%) in graph mode;
/// 1.5%/2.5% in eager mode (ResNet-50/DenseNet), where sequential op
/// processing makes the tracker's locking visible.
///
/// Tracking cost is modeled as a fixed per-access host-side charge (the
/// `RecordTensorAccess` instrumentation + tensor-access-list lock), set to
/// 2 µs per access in graph mode and 4 µs in eager mode (Python
/// interpreter in the loop).
fn overhead_tracking() -> String {
    #[derive(Serialize)]
    struct Row {
        model: &'static str,
        mode: &'static str,
        batch: usize,
        overhead_pct: f64,
    }

    println!("Runtime tracking overhead at TF-ori max batch (paper: graph <1%, eager 1.5-2.5%)");
    let graph: &[(ModelKind, usize)] = &[
        (Vgg16, 208),
        (ResNet50, 190),
        (ResNet152, 86),
        (InceptionV3, 160),
        (InceptionV4, 88),
        (BertBase, 64),
    ];
    let eager: &[(ModelKind, usize)] = &[(ResNet50, 116), (DenseNet121, 70)];
    let mut rows = Vec::new();
    for (mode, bench, per_access_us, cases) in [
        ("graph", Bench::default(), 2, graph),
        ("eager", Bench::eager(), 4, eager),
    ] {
        let tracked = Bench {
            tracking_overhead: Duration::from_micros(per_access_us),
            ..bench.clone()
        };
        for &(kind, batch) in cases {
            let model = kind.build(batch);
            let wall = |bench: &Bench, system: System| {
                let policy = system.policy(&model.graph);
                let last = bench.run(&model.graph, policy, None, 3).expect("fits");
                last.wall().as_secs_f64()
            };
            let base = wall(&bench, System::TfOri);
            let pct = 100.0 * (wall(&tracked, System::Capuchin) / base - 1.0);
            println!(
                "  {mode}  {:<12} b={batch:<4} overhead = {pct:.2}%",
                kind.name()
            );
            rows.push(Row {
                model: kind.name(),
                mode,
                batch,
                overhead_pct: pct,
            });
        }
    }
    let graph_sum: f64 = rows.iter().take(graph.len()).map(|r| r.overhead_pct).sum();
    println!(
        "  graph average: {:.2}%   (paper: 0.36%)",
        graph_sum / graph.len() as f64
    );
    artifact_json(&rows)
}

/// Ablation studies for the design choices DESIGN.md calls out — the
/// paper's §5.3 optimizations plus this reproduction's own additions:
///
/// - `decoupled`: decoupled computation/swap vs vDNN-style coupling;
/// - `lane`: lane-aware vs naive in-trigger placement (+feedback);
/// - `collective`: collective recomputation on/off across budgets;
/// - `feedback`: feedback step-size sweep (naive triggers);
/// - `passive`: Capuchin vs computation-oblivious LRU paging;
/// - `checkpoints`: count-based vs byte-balanced checkpoint selection.
///
/// The cluster-level policy matrix (every registry policy over every
/// fabric and workload shape) is the `policy` scenario of `cluster_bench`.
fn ablations() -> String {
    #[derive(Serialize)]
    struct Ablation {
        study: &'static str,
        config: String,
        model: &'static str,
        batch: usize,
        budget_mb: u64,
        throughput: Option<f64>,
        stall_ms: Option<f64>,
    }
    #[derive(Serialize)]
    struct Artifact {
        engine: Vec<Ablation>,
    }

    /// A study's runs: `(config label, device budget in MiB, policy)`.
    type Runs = Vec<(String, u64, Box<dyn MemoryPolicy>)>;

    const FULL_MB: u64 = 16 << 10;
    let capuchin = |cfg| -> Box<dyn MemoryPolicy> { Box::new(Capuchin::with_config(cfg)) };
    let decoupled = [
        ("decoupled (paper §5.3)", false),
        ("coupled (vDNN-style)", true),
    ]
    .map(|(label, coupled)| {
        let cfg = CapuchinConfig {
            coupled_swap: coupled,
            ..CapuchinConfig::swap_only()
        };
        (label.to_owned(), FULL_MB, capuchin(cfg))
    });
    let lane = [
        ("naive, no feedback", false, false),
        ("naive + feedback (paper)", false, true),
        ("lane-aware (ours)", true, true),
    ]
    .map(|(label, lane, fa)| {
        let mut cfg = CapuchinConfig {
            feedback: fa,
            ..CapuchinConfig::swap_only()
        };
        cfg.planner.lane_aware = lane;
        (label.to_owned(), FULL_MB, capuchin(cfg))
    });
    let collective = [2600u64, 2200, 1800].into_iter().flat_map(|budget_mb| {
        [("CR on", true), ("CR off", false)].map(|(label, cr)| {
            let cfg = CapuchinConfig {
                collective: cr,
                ..CapuchinConfig::recompute_only()
            };
            (format!("{label}@{budget_mb}MiB"), budget_mb, capuchin(cfg))
        })
    });
    let feedback = [0.01f64, 0.05, 0.20].map(|step| {
        let mut cfg = CapuchinConfig {
            lead_step: step,
            ..CapuchinConfig::swap_only()
        };
        cfg.planner.lane_aware = false;
        (format!("step={step}"), FULL_MB, capuchin(cfg))
    });
    let resnet500 = ResNet50.build(500);
    // LRU and Capuchin configure themselves from the engine, not the graph.
    let passive = [
        ("LRU on-demand paging", System::Lru),
        ("Capuchin", System::Capuchin),
    ]
    .map(|(label, system)| (label.to_owned(), FULL_MB, system.policy(&resnet500.graph)));
    let checkpoints = [
        ("count-based sqrt(n) (tool)", CheckpointMode::Memory),
        ("byte-balanced (ours)", CheckpointMode::MemoryBalanced),
    ]
    .map(|(label, mode)| {
        let policy = checkpointing(&resnet500.graph, mode);
        (label.to_owned(), FULL_MB, policy)
    });
    // Each study's runs share a model, a batch and an iteration count.
    let studies: [(_, _, _, _, Runs); 6] = [
        ("decoupled", ResNet50, 300, 10, decoupled.into()),
        ("lane", InceptionV3, 300, 14, lane.into()),
        ("collective", ResNet50, 48, 10, collective.collect()),
        ("feedback", InceptionV3, 260, 16, feedback.into()),
        ("passive", ResNet50, 400, 10, passive.into()),
        ("checkpoints", ResNet50, 500, 3, checkpoints.into()),
    ];

    let bench = Bench::default();
    let mut engine = Vec::new();
    for (name, kind, batch, iters, runs) in studies {
        for (config, budget_mb, policy) in runs {
            let model = kind.build(batch);
            let last = bench.run(&model.graph, policy, Some(budget_mb << 20), iters);
            let throughput = last.as_ref().map(|it| samples_per_s(batch, it));
            let stall_ms = last.map(|it| it.stall_time.as_millis_f64());
            println!(
                "  {name:<11} {config:<26} {:<11} @{batch:<3} {budget_mb:>5} MiB {:>8} img/s  stall {:>8} ms",
                kind.name(),
                cell1(throughput),
                cell1(stall_ms)
            );
            engine.push(Ablation {
                study: name,
                config,
                model: kind.name(),
                batch,
                budget_mb,
                throughput,
                stall_ms,
            });
        }
    }
    artifact_json(&Artifact { engine })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_table_is_the_one_list_of_exhibits() {
        let names: BTreeSet<&str> = EXHIBITS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXHIBITS.len(), "exhibit names are unique");

        // Every committed paper artifact has an entry, and every entry a
        // committed artifact; the cluster and serve artifacts have their
        // own drivers.
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(&results)
            .expect("results/ is committed")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| {
                p.file_stem()
                    .expect("a stem")
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|stem| stem != "BENCH_cluster" && stem != "serve_smoke")
            .collect();
        let names: BTreeSet<String> = names.into_iter().map(String::from).collect();
        assert_eq!(committed, names);
    }
}
