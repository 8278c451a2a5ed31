//! Serve smoke — the daemon's end-to-end contract, over a real TCP
//! socket: a mixed workload submitted on the wire, one job's lifecycle
//! stream consumed by a deliberately throttled subscriber (so the
//! bounded queue's coalesced `dropped` markers are exercised), a
//! graceful `drain`, and final stats that must be **byte-identical** to
//! `Cluster::run` on the same config + submission sequence. Also
//! bump-checks both schema versions: every wire line must carry
//! `capuchin_serve::WIRE_SCHEMA_VERSION` and the stats payload
//! `capuchin_cluster::STATS_SCHEMA_VERSION`.
//!
//! By default the daemon is spawned in-process on an ephemeral port
//! (still real TCP). `--connect <addr>` drives an externally started
//! daemon instead — it must run with `--clock virtual --gpus 2
//! --admission tf-ori --elastic on` so the locally computed batch
//! baseline matches.

use capuchin_bench::{artifact_json, cluster_job as job, write_artifact};
use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobEventKind, JobSpec, STATS_SCHEMA_VERSION,
};
use capuchin_models::ModelKind;
use capuchin_serve::client::{request, Client};
use capuchin_serve::{serve, ClockMode, ServeConfig, WIRE_SCHEMA_VERSION};
use serde::{Serialize, Value};

/// The mixed workload: two cheap residents, a two-GPU gang, an elastic
/// full-device job, a many-iteration job whose per-iteration events
/// swamp the throttled subscriber's 4-slot queue, and an inference job
/// whose request lifecycle must flow through the same bounded queues.
fn workload() -> Vec<JobSpec> {
    use capuchin_cluster::JobPolicy::TfOri;
    use ModelKind::Vgg16;
    vec![
        job("res0", Vgg16, 64, 1, TfOri, 3, 0, 0.0),
        job("busy", Vgg16, 32, 1, TfOri, 24, 0, 0.05),
        job("gang", Vgg16, 64, 2, TfOri, 3, 0, 0.10),
        job("big", Vgg16, 256, 1, TfOri, 4, 0, 0.15).with_elastic(),
        job("infer", Vgg16, 8, 1, TfOri, 1, 2, 0.20).into_inference(40.0, 400.0, 12, 64 << 20, 4),
    ]
}

/// Index of the subscribed job in [`workload`] (= its submission id).
const BUSY: u64 = 1;

/// Index of the inference job in [`workload`] (= its submission id).
const INFER: u64 = 4;

fn cfg() -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(2)
        .admission(AdmissionMode::TfOri)
        .elastic(true)
        .build()
        .expect("valid config")
}

#[derive(Serialize)]
struct Summary {
    wire_schema: u32,
    stats_schema: u32,
    jobs_submitted: usize,
    completed: u64,
    busy_events: u64,
    request_lines: usize,
    served_lines: usize,
    stats_bytes: usize,
}

fn check_wire_version(line: &Value) {
    assert_eq!(
        line.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(WIRE_SCHEMA_VERSION)),
        "wire schema drift: {line:?}"
    );
}

fn ok(reply: &Value) -> &Value {
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "request failed: {reply:?}"
    );
    check_wire_version(reply);
    reply
}

fn main() {
    // Pin the wire schema: v3 added `admission_source` to status
    // replies. Any further protocol change must bump the constant *and*
    // this pin.
    assert_eq!(
        WIRE_SCHEMA_VERSION, 3,
        "wire schema bumped without re-pinning"
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    let connect = match args.as_slice() {
        [] => None,
        [flag, addr] if flag == "--connect" => Some(addr.clone()),
        _ => {
            eprintln!("usage: serve_smoke [--connect <addr>]");
            std::process::exit(2);
        }
    };

    // The baseline the daemon must reproduce byte-for-byte, and the busy
    // job's lifecycle events its stream must account for: all but
    // `Submitted`, which the daemon publishes before anyone subscribes.
    let specs = workload();
    let mut batch = Cluster::new(cfg());
    let expected = batch.run(&specs).to_json();
    let busy_expected = batch
        .take_events()
        .iter()
        .filter(|e| e.job == BUSY && e.kind != JobEventKind::Submitted)
        .count() as u64;

    // In-process daemon on an ephemeral port unless --connect was given.
    let (addr, handle) = match &connect {
        Some(addr) => (addr.clone(), None),
        None => {
            let handle = serve(ServeConfig {
                cluster: cfg(),
                clock: ClockMode::Virtual,
                addr: "127.0.0.1:0".into(),
            })
            .expect("bind ephemeral port");
            (handle.addr().to_string(), Some(handle))
        }
    };

    let mut control = Client::connect(&*addr).expect("connect control");
    for (i, spec) in specs.iter().enumerate() {
        let reply = control
            .request(&request(
                "submit",
                vec![("spec".to_owned(), spec.to_value())],
            ))
            .expect("submit");
        assert_eq!(
            ok(&reply).get("job").and_then(Value::as_u64),
            Some(i as u64),
            "submission ids are the submission order"
        );
    }

    // Throttled subscriber: a 4-line queue drained at ≥2 ms per line
    // cannot keep up with a drain that retires dozens of events at
    // simulation speed — the daemon must drop-and-coalesce, never stall.
    let mut sub = Client::connect(&*addr).expect("connect subscriber");
    let reply = sub
        .request(&request(
            "subscribe",
            vec![
                ("job".to_owned(), Value::UInt(BUSY)),
                ("queue".to_owned(), Value::UInt(4)),
                ("pace_us".to_owned(), Value::UInt(2000)),
            ],
        ))
        .expect("subscribe");
    ok(&reply);

    // Unthrottled subscriber on the inference job: its request lifecycle
    // records ride the same bounded stream queues as training events.
    let mut infer_sub = Client::connect(&*addr).expect("connect inference subscriber");
    let reply = infer_sub
        .request(&request(
            "subscribe",
            vec![("job".to_owned(), Value::UInt(INFER))],
        ))
        .expect("subscribe inference");
    ok(&reply);

    let drained = control.request(&request("drain", vec![])).expect("drain");
    let stats = ok(&drained)
        .get("stats")
        .expect("drain reply carries stats");
    assert_eq!(
        stats.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(STATS_SCHEMA_VERSION)),
        "stats schema drift"
    );
    let rendered = serde_json::to_string_pretty(stats).expect("render stats");
    assert_eq!(
        rendered, expected,
        "daemon stats differ from the batch run on the same submission sequence"
    );
    let completed = stats
        .get("completed")
        .and_then(Value::as_u64)
        .expect("completed count");
    assert_eq!(completed, specs.len() as u64, "all jobs complete");

    ok(&control
        .request(&request("shutdown", vec![]))
        .expect("shutdown"));

    // Drain the subscriber stream to EOF: only the busy job's events,
    // plus at least one coalesced backpressure marker.
    let mut event_lines = 0u64;
    let mut dropped_total = 0u64;
    while let Some(line) = sub.recv().expect("stream") {
        check_wire_version(&line);
        match line.get("stream").and_then(Value::as_str) {
            Some("dropped") => {
                dropped_total += line
                    .get("dropped")
                    .and_then(Value::as_u64)
                    .expect("dropped count");
            }
            Some("event") => {
                assert_eq!(line.get("job").and_then(Value::as_u64), Some(BUSY));
                event_lines += 1;
            }
            other => panic!("unexpected stream tag {other:?} in {line:?}"),
        }
    }
    assert!(
        dropped_total > 0,
        "throttled subscriber saw no backpressure marker over {event_lines} events"
    );
    // How many events arrive depends on the subscriber's wall-clock
    // pacing; their sum with the dropped count does not: every event is
    // either delivered or counted.
    let busy_events = event_lines + dropped_total;
    assert_eq!(
        busy_events, busy_expected,
        "busy stream accounts for {busy_events} event(s), the batch run emitted {busy_expected}"
    );

    // The inference stream must carry the request lifecycle: arrivals and
    // serves for every request, with integer latency micros on serves.
    let mut request_lines = 0usize;
    let mut served_lines = 0usize;
    while let Some(line) = infer_sub.recv().expect("inference stream") {
        check_wire_version(&line);
        assert_eq!(
            line.get("stream").and_then(Value::as_str),
            Some("event"),
            "the unthrottled inference stream dropped or mixed in a line: {line:?}"
        );
        assert_eq!(line.get("job").and_then(Value::as_u64), Some(INFER));
        match line.get("kind").and_then(Value::as_str) {
            Some("request_arrived") => request_lines += 1,
            Some("request_served") | Some("slo_missed") => {
                served_lines += 1;
                assert!(
                    line.get("latency_us").and_then(Value::as_u64).is_some(),
                    "request record without integer latency: {line:?}"
                );
            }
            _ => {}
        }
    }
    assert!(
        request_lines > 0 && served_lines > 0,
        "inference stream carried {request_lines} arrival(s) and {served_lines} serve(s)"
    );

    if let Some(handle) = handle {
        handle.wait();
    }

    let summary = Summary {
        wire_schema: WIRE_SCHEMA_VERSION,
        stats_schema: STATS_SCHEMA_VERSION,
        jobs_submitted: specs.len(),
        completed,
        busy_events,
        request_lines,
        served_lines,
        stats_bytes: rendered.len(),
    };
    println!(
        "serve smoke OK: {} jobs over TCP, {} event line(s) + {} dropped \
         (coalesced) = {} busy event(s), {} request arrival(s) / {} \
         serve(s) streamed, stats byte-identical to the batch run ({} bytes)",
        summary.jobs_submitted,
        event_lines,
        dropped_total,
        summary.busy_events,
        summary.request_lines,
        summary.served_lines,
        summary.stats_bytes,
    );
    if connect.is_none() {
        write_artifact("serve_smoke", &artifact_json(&summary));
    }
}
