//! The per-layer figures of a traced run, emitted under one fixed list of
//! names for every workload (0 where a workload never calls the layer).

use crate::drive::STEP_BUCKETS;
use crate::measure::Report;
use crate::replay::EngineSims;
use crate::trace::Summary;

/// Wire figures of the `serve` workload.
#[derive(Debug, Default, Clone)]
pub struct WireLayer {
    /// Median round trip per op, ms: submit, status, stats, drain.
    pub rtt_ms: [f64; 4],
    /// Requests per host second over a session.
    pub ops_per_s: f64,
    /// Mean `protocol::parse_request` time per request line, µs.
    pub parse_request_us: f64,
    /// Mean `serde_json::from_str` time per `stats`/`drain` reply, ms.
    pub reply_parse_ms: f64,
    /// Mean reply size over every request, bytes.
    pub reply_bytes: f64,
    /// Stream event lines received over events produced.
    pub delivered_ratio: f64,
    /// Stream lines the daemon dropped (the ratio's base).
    pub dropped: f64,
}

/// Everything a traced run measured.
#[derive(Debug, Default)]
pub struct Layered {
    /// The admission-chain replay region.
    pub replay: Summary,
    /// Simulated engine figures of the replayed validations.
    pub engine: EngineSims,
    /// Traced passes (or sessions), merged.
    pub reps: Summary,
    /// Traced passes merged into `reps`.
    pub traced_reps: u64,
    /// Jobs per pass.
    pub jobs: u64,
    /// Steps per pass.
    pub steps: u64,
    /// Lifecycle events per pass.
    pub events: u64,
    /// Transfer records per pass.
    pub transfers: u64,
    /// Validation engine runs per pass.
    pub validation_runs: u64,
    /// Validation cache entries after a pass.
    pub cache_entries: u64,
    /// Predictor hits and misses per pass.
    pub predictor: (u64, u64),
    /// Mispredict recoveries per pass.
    pub mispredicts: u64,
    /// Stats JSON bytes.
    pub json_bytes: u64,
    /// Summed link busy time over links × makespan.
    pub link_busy_ratio: f64,
    /// Simulated aggregate samples per second.
    pub sim_samples_per_s: f64,
    /// Simulated mean job completion time, s.
    pub sim_jct_mean_s: f64,
    /// Wire figures (`serve` only).
    pub wire: WireLayer,
    /// Allocations and bytes allocated per untraced pass.
    pub alloc: (f64, f64),
    /// Median untraced and traced pass wall time, ms.
    pub pass_ms: (f64, f64),
    /// Tail of the workload's operations' best latencies over the
    /// untraced passes, ms (the percentile `tail_percentile` names).
    pub op_tail_ms: f64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn per(x: f64, base: f64) -> f64 {
    if base > 0.0 {
        x / base
    } else {
        0.0
    }
}

/// Layers whose self time is reported, in order.
pub const LAYERS: &[&str] = &[
    "bench",
    "models",
    "core",
    "admission",
    "predict",
    "protocol",
    "cluster",
    "stats",
    "serve",
];

impl Layered {
    /// Emits every per-layer metric.
    pub fn emit(&self, r: &mut Report) {
        let rp = &self.replay;
        r.metric("models.build_ms", ms(rp.mean_ns("models.build")), "ms");
        r.metric("core.measure_ms", ms(rp.mean_ns("core.measure")), "ms");
        r.metric("core.plan_us", us(rp.mean_ns("core.plan")), "us");
        r.metric(
            "admission.needs_ms",
            ms(rp.mean_ns("admission.needs")),
            "ms",
        );
        r.metric(
            "admission.validate_ms",
            ms(rp.mean_ns("admission.validate")),
            "ms",
        );
        let validate_ns = rp.mean_ns("admission.validate") * rp.calls("admission.validate") as f64;
        let it = self.engine.iters as f64;
        r.metric("executor.iter_ms", ms(per(validate_ns, it)), "ms");
        r.metric(
            "executor.sim_iter_ms",
            ms(per(self.engine.sim_ns as f64, it)),
            "ms",
        );
        r.metric(
            "executor.swap_bytes",
            per(self.engine.swap_bytes as f64, it),
            "B",
        );
        r.metric(
            "executor.recompute_ms",
            ms(per(self.engine.recompute_ns as f64, it)),
            "ms",
        );
        r.metric(
            "executor.evictions",
            per(self.engine.evictions as f64, it),
            "count",
        );
        r.metric(
            "predict.predict_us",
            us(rp.mean_ns("predict.predict")),
            "us",
        );

        let (hits, misses) = self.predictor;
        let lookups = (hits + misses) as f64;
        r.metric(
            "admission.validation_runs",
            self.validation_runs as f64,
            "count",
        );
        r.metric(
            "admission.cache_entries",
            self.cache_entries as f64,
            "count",
        );
        r.metric("predict.hit_ratio", per(hits as f64, lookups), "ratio");
        r.metric("predict.hits", hits as f64, "count");
        r.metric("predict.misses", misses as f64, "count");
        r.metric(
            "predict.mispredict_recoveries",
            self.mispredicts as f64,
            "count",
        );

        let reps = &self.reps;
        let jobs = self.jobs as f64;
        r.metric(
            "cluster.submit_us",
            us(reps.mean_ns("cluster.submit")),
            "us",
        );
        r.metric(
            "cluster.advance_to_us",
            us(reps.mean_ns("cluster.advance_to")),
            "us",
        );
        for bucket in STEP_BUCKETS {
            let name = format!("cluster.step.{bucket}");
            r.metric(
                format!("cluster.step_us.{bucket}"),
                us(reps.mean_ns(&name)),
                "us",
            );
        }
        r.metric(
            "cluster.steps_per_job",
            per(self.steps as f64, jobs),
            "count",
        );
        r.metric(
            "cluster.events_per_job",
            per(self.events as f64, jobs),
            "count",
        );
        r.metric(
            "cluster.take_transfers_us",
            us(reps.mean_ns("cluster.take_transfers")),
            "us",
        );
        r.metric(
            "sim.transfers_per_job",
            per(self.transfers as f64, jobs),
            "count",
        );
        r.metric("sim.link_busy_ratio", self.link_busy_ratio, "ratio");
        r.metric("sim.samples_per_s", self.sim_samples_per_s, "1/s");
        r.metric("sim.jct_mean_s", self.sim_jct_mean_s, "s");
        r.metric(
            "stats.snapshot_ms",
            ms(reps.mean_ns("stats.snapshot")),
            "ms",
        );
        r.metric("stats.to_json_ms", ms(reps.mean_ns("stats.to_json")), "ms");
        r.metric("stats.json_bytes", self.json_bytes as f64, "B");

        let w = &self.wire;
        for (op, rtt) in ["submit", "status", "stats", "drain"].iter().zip(w.rtt_ms) {
            r.metric(format!("serve.rtt_ms.{op}"), rtt, "ms");
        }
        r.metric("serve.ops_per_s", w.ops_per_s, "1/s");
        r.metric("protocol.parse_request_us", w.parse_request_us, "us");
        r.metric("serve.reply_parse_ms", w.reply_parse_ms, "ms");
        r.metric("serve.reply_bytes", w.reply_bytes, "B");
        r.metric("serve.delivered_ratio", w.delivered_ratio, "ratio");
        r.metric("serve.dropped", w.dropped, "count");

        r.metric("op.tail_ms", self.op_tail_ms, "ms");
        r.metric("alloc.per_job", per(self.alloc.0, jobs), "count");
        r.metric("alloc.bytes_per_job", per(self.alloc.1, jobs), "B");

        // Self time per layer: the timed passes (per pass) plus the
        // replay region (once). Summed with the bench's own self time
        // they equal `trace.pass_ms + trace.replay_ms`.
        let n = self.traced_reps.max(1) as f64;
        for layer in LAYERS {
            let ns = reps.layer_self_ns(layer) as f64 / n + rp.layer_self_ns(layer) as f64;
            r.metric(format!("self_ms.{layer}"), ms(ns), "ms");
        }
        let pass_ns = reps.root_ns as f64 / n;
        r.metric("trace.pass_ms", ms(pass_ns), "ms");
        r.metric("trace.replay_ms", ms(rp.root_ns as f64), "ms");
        let bench_ns = reps.layer_self_ns("bench") as f64 / n;
        r.metric(
            "trace.accounted_ratio",
            per(pass_ns - bench_ns, pass_ns),
            "ratio",
        );
        r.metric("trace.overhead_ms", self.pass_ms.1 - self.pass_ms.0, "ms");
        r.metric(
            "trace.overhead_ratio",
            per(self.pass_ms.1 - self.pass_ms.0, self.pass_ms.0),
            "ratio",
        );
    }
}
