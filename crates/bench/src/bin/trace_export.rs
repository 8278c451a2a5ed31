//! Export a simulated timeline as a Chrome trace (`chrome://tracing` /
//! Perfetto) for visual inspection of overlap, stalls, and swap traffic.
//!
//! ```sh
//! cargo run --release -p capuchin-bench --bin trace_export -- [model] [batch] [system]
//! # e.g.
//! cargo run --release -p capuchin-bench --bin trace_export -- resnet50 300 capuchin
//! ```
//!
//! The model defaults to `resnet50`, the batch to 300 and the system to
//! `capuchin`; the systems are `capuchin_bench::System`'s spellings. An
//! unknown model or system, a system that does not support the model, a
//! batch that is not a positive integer, or a fourth argument prints
//! usage and exits 2. A batch that does not fit prints the engine's
//! error and exits 1.
//!
//! Writes `results/trace_<model>_<batch>_<system>.json` with two process
//! groups:
//!
//! * **pid 1 — streams**: the engine's execution trace (kernels on the
//!   compute stream, swap copies and stalls on the two copy streams), one
//!   track per stream;
//! * **pid 2 — transfers**: the unified per-tensor transfer timeline from
//!   the device's [`capuchin_sim::TransferEngine`], one track per lane
//!   (`copy-out`, `copy-in`). Each record renders its queueing delay
//!   (`wait:<label>`) and wire time (`<label>`) as separate slices, so a
//!   stretched prefetch is visible as a wait slice in front of its copy.
//!
//! `--smoke` runs a miniature export to a temp directory and re-parses
//! the emitted JSON as the typed event list, proving the artifact stays
//! loadable; `scripts/check.sh` uses it.

use capuchin_bench::System;
use capuchin_executor::{Engine, EngineConfig, ExecError};
use capuchin_models::ModelKind;
use capuchin_sim::{StreamKind, TraceKind, TransferRecord};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u32,
}

/// Names the bad argument, prints usage and exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("trace_export: {problem}");
    eprintln!("usage: trace_export [model] [batch] [system] | trace_export --smoke");
    eprintln!("  models:  {}", ModelKind::CLI_NAMES.join(" "));
    let systems: Vec<String> = System::all().map(|s| s.accepted().join("|")).collect();
    eprintln!("  systems: {}", systems.join(" "));
    std::process::exit(2);
}

/// Track index within the transfer process group (pid 2).
fn lane_tid(link: &str) -> u32 {
    match link {
        "copy-out" => 1,
        "copy-in" => 2,
        _ => 3,
    }
}

/// The two slices of one transfer record: its queueing delay (if any)
/// and its time on the wire.
fn transfer_events(rec: &TransferRecord) -> Vec<ChromeEvent> {
    let tid = lane_tid(&rec.link);
    let mut out = Vec::new();
    if rec.wait() > capuchin_sim::Duration::ZERO {
        out.push(ChromeEvent {
            name: format!("wait:{}", rec.label),
            cat: "transfer-wait".to_owned(),
            ph: "X".to_owned(),
            ts: rec.queued.as_micros_f64(),
            dur: rec.wait().as_micros_f64(),
            pid: 2,
            tid,
        });
    }
    out.push(ChromeEvent {
        name: rec.label.clone(),
        cat: if rec.late() {
            "transfer-late".to_owned()
        } else {
            "transfer".to_owned()
        },
        ph: "X".to_owned(),
        ts: rec.start.as_micros_f64(),
        dur: rec.service().as_micros_f64(),
        pid: 2,
        tid,
    });
    out
}

/// Runs `system` on `kind`/`batch` and renders the combined stream +
/// transfer timeline; the engine's error when the batch does not fit.
fn export(kind: ModelKind, batch: usize, system: System) -> Result<Vec<ChromeEvent>, ExecError> {
    let model = kind.build(batch);
    let cfg = EngineConfig {
        trace: true,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(&model.graph, cfg, system.policy(&model.graph));
    eng.run(system.warm_iters())?;

    let mut events: Vec<ChromeEvent> = eng
        .take_trace()
        .expect("trace enabled")
        .events()
        .iter()
        .map(|e| ChromeEvent {
            name: e.label.clone(),
            cat: match e.kind {
                TraceKind::Kernel => "kernel",
                TraceKind::SwapOut => "swap-out",
                TraceKind::SwapIn => "swap-in",
                TraceKind::Stall => "stall",
            }
            .to_owned(),
            ph: "X".to_owned(),
            ts: e.start.as_micros_f64(),
            dur: e.duration().as_micros_f64(),
            pid: 1,
            tid: match e.stream {
                StreamKind::Compute => 1,
                StreamKind::CopyOut => 2,
                StreamKind::CopyIn => 3,
            },
        })
        .collect();
    for per_iter in eng.iter_transfers() {
        for rec in per_iter {
            events.extend(transfer_events(rec));
        }
    }
    Ok(events)
}

/// Miniature export into a temp file, re-parsed as the typed event list:
/// the emitted JSON must stay loadable.
fn smoke() {
    let events = export(ModelKind::ResNet50, 280, System::Capuchin).expect("smoke batch fits");
    let json = serde_json::to_string(&events).expect("serialize");
    let path = std::env::temp_dir().join("capuchin_trace_smoke.json");
    std::fs::write(&path, &json).expect("write smoke trace");
    let raw = std::fs::read_to_string(&path).expect("read smoke trace");
    let parsed: Vec<ChromeEvent> = serde_json::from_str(&raw).expect("emitted trace must parse");
    assert_eq!(parsed.len(), events.len());
    assert!(
        parsed
            .iter()
            .any(|e| e.pid == 2 && e.cat.starts_with("transfer")),
        "smoke trace must contain unified transfer-timeline events"
    );
    assert!(
        parsed.iter().any(|e| e.pid == 1 && e.cat == "kernel"),
        "smoke trace must contain compute-stream events"
    );
    let _ = std::fs::remove_file(&path);
    println!(
        "trace smoke ok: {} events round-tripped ({} transfer slices)",
        parsed.len(),
        parsed.iter().filter(|e| e.pid == 2).count(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if args.len() > 4 {
        usage(&format!("unexpected argument `{}`", args[4]));
    }
    let model_name = args.get(1).map_or("resnet50", String::as_str);
    let kind = ModelKind::from_cli_name(model_name)
        .unwrap_or_else(|| usage(&format!("unknown model `{model_name}`")));
    let batch = match args.get(2) {
        None => 300,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&b: &usize| b > 0)
            .unwrap_or_else(|| usage(&format!("batch `{s}` is not a positive integer"))),
    };
    let system_name = args.get(3).map_or("capuchin", String::as_str);
    let system: System = system_name.parse().unwrap_or_else(|e: String| usage(&e));
    if !system.supports(kind) {
        usage(&format!("{system} does not support {kind} (CNN-only)"));
    }

    let events = export(kind, batch, system).unwrap_or_else(|e| {
        eprintln!("trace_export: {kind} at batch {batch} under {system}: {e}");
        std::process::exit(1);
    });
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/trace_{model_name}_{batch}_{system}.json");
    std::fs::write(&path, serde_json::to_string(&events).expect("serialize")).expect("write");
    println!(
        "wrote {path} ({} events, {} transfer slices) — open in chrome://tracing or ui.perfetto.dev",
        events.len(),
        events.iter().filter(|e| e.pid == 2).count(),
    );
}
