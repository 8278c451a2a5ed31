//! Cluster-level exhibits: admission throughput, checkpoint-preemption,
//! elastic re-batching, gang scheduling, the per-tensor transfer layer,
//! the mixed training/inference frontier, the policy matrix, predictive
//! admission and scheduler scale — one scenario table
//! (`capuchin_bench::scenario`), one binary, one artifact.
//!
//! ```sh
//! cargo run --release -p capuchin-bench --bin cluster_bench                # full, writes results/BENCH_cluster.json
//! cargo run --release -p capuchin-bench --bin cluster_bench -- --smoke     # smoke sizes + committed-row gates
//! cargo run --release -p capuchin-bench --bin cluster_bench -- --only gang # one scenario
//! ```
//!
//! Every run checks the universal and the scenario invariants. A full run
//! replaces the rows of the scenarios it ran in the artifact and keeps
//! the others; `--smoke` writes nothing and fails when a gated column
//! regressed beyond its bound, or when its committed row is missing.

use capuchin_bench::scenario::{Row, ARTIFACT, GATES, TABLE};
use capuchin_bench::{artifact_json, write_artifact};

fn usage() -> ! {
    let names: Vec<&str> = TABLE.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: cluster_bench [--smoke] [--only <{}>]",
        names.join("|")
    );
    std::process::exit(2);
}

fn committed() -> Vec<Row> {
    let text = std::fs::read_to_string(ARTIFACT).map_err(|e| e.to_string());
    let rows = text.and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()));
    rows.unwrap_or_else(|e| {
        eprintln!("no committed rows in {ARTIFACT}: {e}");
        Vec::new()
    })
}

fn main() {
    let (mut smoke, mut only) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--only" => only = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let scenarios: Vec<_> = TABLE
        .iter()
        .filter(|s| only.as_deref().is_none_or(|o| o == s.name))
        .collect();
    if scenarios.is_empty() {
        usage();
    }

    println!(
        "scenario   label                      completed  rej  pre  reb  makespan samples/s   events   val  slo‰   cyc     wall    us/job"
    );
    let mut rows = Vec::new();
    for sc in &scenarios {
        for r in sc.execute(smoke) {
            println!(
                "{:<10} {:<24} {:>6}/{:<4} {:>4} {:>4} {:>4} {:>8.2}s {:>9.1} {:>8} {:>5} {:>5} {:>5} {:>7.3}s {:>9.1}",
                r.scenario, r.label, r.completed, r.jobs, r.rejections, r.preemptions,
                r.rebatches, r.makespan_ns as f64 / 1e9, r.samples_per_s, r.events,
                r.validation_runs, r.attainment_permille, r.burst_cycles, r.wall_s, r.us_per_job,
            );
            if let (Some(warmup), Some(ms), Some(bytes)) = (r.warmup_s, r.to_json_ms, r.json_bytes)
            {
                println!(
                    "{:<35} cold warm-up {warmup:.3}s, stats JSON {ms:.1} ms for {bytes} B",
                    ""
                );
            }
            if let (Some(p), Some(c), Some(pc), Some(w), Some(v)) = (
                r.picks,
                r.candidates,
                r.preemption_checks,
                r.waiters,
                r.victim_probes,
            ) {
                println!(
                    "{:<35} settle: {p} picks read {c} candidates, {pc} preemption checks read {w} waiters and probed {v} victims",
                    ""
                );
            }
            rows.push(r);
        }
        eprintln!("[{}] invariants hold", sc.name);
    }

    if smoke {
        let committed = committed();
        let mut failed = false;
        for gate in GATES
            .iter()
            .filter(|g| scenarios.iter().any(|s| s.name == g.scenario))
        {
            match gate.check(&committed, &rows) {
                Ok(msg) => eprintln!("[gate] ok: {msg}"),
                Err(msg) => {
                    eprintln!("[gate] FAILED: {msg}");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    let mut all: Vec<Row> = committed()
        .into_iter()
        .filter(|r| scenarios.iter().all(|s| s.name != r.scenario))
        .chain(rows)
        .collect();
    all.sort_by_key(|r| TABLE.iter().position(|s| s.name == r.scenario));
    write_artifact("BENCH_cluster", &artifact_json(&all));
}
