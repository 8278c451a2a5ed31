//! The `serve` workload: `capuchin-serve` started in-process with the
//! virtual clock and driven over loopback TCP through
//! `capuchin_serve::Client`.
//!
//! A session starts a daemon and opens two connections: a subscriber
//! (one thread, reading the event stream to EOF) and a closed-loop
//! control connection that submits every job, asks the status of an
//! earlier job after each submit, asks for `stats` every
//! [`STATS_EVERY`] submits, then `drain`s and shuts the daemon down.
//! Sessions repeat until the measuring time is spent.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use capuchin_cluster::{Cluster, ClusterConfig, JobSpec};
use capuchin_serve::client::{request, Client};
use capuchin_serve::protocol::parse_request;
use capuchin_serve::{serve as start_daemon, ClockMode, ServeConfig};
use serde::{Serialize, Value};

use crate::drive::{check, Counts, Pass};
use crate::layers::Layered;
use crate::measure::{best, digest, median, peak_rss_mib, BestTimes, Checks, Report};
use crate::trace::{Summary, Tracer};
use crate::{
    determinism, replay, save_spans, set_up, tail_percentile, traced_pairs, AllocCounter, Args,
    Workload,
};

/// Wire schema every reply and stream line must carry.
const WIRE_SCHEMA: u64 = 3;

/// A request whose reply takes longer than this counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// A `stats` request follows every this many submits.
const STATS_EVERY: usize = 12;

/// Control ops, in the order their round trips are reported.
const OPS: &[&str] = &["submit", "status", "stats", "drain", "shutdown"];

/// What one session measured.
#[derive(Debug, Default)]
struct Session {
    /// Host seconds from the first submit to the parsed drain reply.
    wall_s: f64,
    /// Requests sent on the control connection.
    requests: u64,
    /// `(op index, round trip ms)` per request.
    rtts: Vec<(usize, f64)>,
    /// Request lines as sent (traced sessions only).
    lines: Vec<String>,
    /// Rendered replies (traced sessions only).
    replies: Vec<(usize, String)>,
    /// Event lines the subscriber received.
    stream_events: u64,
    /// Stream lines the daemon reported dropped.
    dropped: u64,
}

fn schema_ok(v: &Value) -> bool {
    v.get("schema_version").and_then(Value::as_u64) == Some(WIRE_SCHEMA)
}

/// Reads the stream to EOF: `(event lines, dropped lines, bad lines)`.
fn subscriber(addr: SocketAddr, ready: mpsc::Sender<bool>) -> (u64, u64, u64) {
    let Ok(mut client) = Client::connect(addr) else {
        let _ = ready.send(false);
        return (0, 0, 1);
    };
    let subscribed = client
        .request(&request("subscribe", vec![]))
        .is_ok_and(|r| schema_ok(&r) && r.get("ok").and_then(Value::as_bool) == Some(true));
    let _ = ready.send(subscribed);
    let (mut events, mut dropped, mut bad) = (0, 0, u64::from(!subscribed));
    loop {
        match client.recv() {
            Ok(Some(line)) if schema_ok(&line) => {
                match line.get("stream").and_then(Value::as_str) {
                    Some("event") => events += 1,
                    Some("dropped") => {
                        dropped += line.get("dropped").and_then(Value::as_u64).unwrap_or(0);
                    }
                    _ => bad += 1,
                }
            }
            Ok(Some(_)) | Err(_) => bad += 1,
            Ok(None) => break,
        }
    }
    (events, dropped, bad)
}

/// One control request: timed, spanned, checked (`ok:true`, wire schema
/// 3, within [`REQUEST_TIMEOUT`]).
struct Control<'a> {
    client: Client,
    tr: &'a mut Tracer,
    checks: &'a mut Checks,
    out: &'a mut Session,
}

impl Control<'_> {
    fn call(&mut self, op: usize, fields: Vec<(String, Value)>) -> Option<Value> {
        const SPANS: [&str; 5] = [
            "serve.submit",
            "serve.status",
            "serve.stats",
            "serve.drain",
            "serve.shutdown",
        ];
        let msg = request(OPS[op], fields);
        let open = self.tr.enter(SPANS[op], self.out.requests);
        let start = Instant::now();
        let reply = self.client.request(&msg);
        let rtt = start.elapsed();
        self.tr.exit(open);
        self.out.requests += 1;
        self.out.rtts.push((op, rtt.as_secs_f64() * 1e3));
        if self.tr.on() {
            self.out
                .lines
                .push(serde_json::to_string(&msg).expect("render request"));
            if let Ok(v) = &reply {
                let text = serde_json::to_string(v).expect("render reply");
                self.out.replies.push((op, text));
            }
        }
        let ok = match &reply {
            Ok(v) => schema_ok(v) && v.get("ok").and_then(Value::as_bool) == Some(true),
            Err(_) => false,
        };
        self.checks.op(ok && rtt <= REQUEST_TIMEOUT, || {
            format!("{} request failed after {rtt:?}: {reply:?}", OPS[op])
        });
        reply.ok()
    }
}

/// Runs one session against a fresh daemon.
fn session(
    cfg: &ClusterConfig,
    specs: &[JobSpec],
    expected: &str,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Session {
    let mut out = Session::default();
    let handle = start_daemon(ServeConfig {
        cluster: cfg.clone(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot start the daemon: {e}");
        std::process::exit(1);
    });
    let addr = handle.addr();
    let (stream_events, dropped, bad) = std::thread::scope(|scope| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let sub = scope.spawn(move || subscriber(addr, ready_tx));
        let subscribed = ready_rx.recv().unwrap_or(false);
        checks.op(subscribed, || "subscribe failed".to_owned());
        let client = Client::connect(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot connect to the daemon: {e}");
            std::process::exit(1);
        });
        let root = tr.enter("bench.session", 0);
        let start = Instant::now();
        let mut ctl = Control {
            client,
            tr,
            checks,
            out: &mut out,
        };
        for (i, spec) in specs.iter().enumerate() {
            let reply = ctl.call(0, vec![("spec".to_owned(), spec.to_value())]);
            let id = reply
                .as_ref()
                .and_then(|r| r.get("job"))
                .and_then(Value::as_u64);
            ctl.checks.op(id == Some(i as u64), || {
                format!("submit {i} answered job id {id:?}")
            });
            ctl.call(1, vec![("job".to_owned(), Value::UInt(i as u64 / 2))]);
            if (i + 1) % STATS_EVERY == 0 {
                ctl.call(2, vec![]);
            }
        }
        let drained = ctl.call(3, vec![]);
        let wall_s = start.elapsed().as_secs_f64();
        let rendered = drained
            .as_ref()
            .and_then(|r| r.get("stats"))
            .map(|s| serde_json::to_string_pretty(s).expect("render stats"));
        ctl.checks.op(rendered.as_deref() == Some(expected), || {
            "drain stats differ from Cluster::run on the same submissions".to_owned()
        });
        ctl.call(4, vec![]);
        ctl.out.wall_s = wall_s;
        ctl.tr.exit(root);
        sub.join().expect("subscriber thread panicked")
    });
    handle.wait();
    checks.op(bad == 0, || format!("{bad} bad stream line(s)"));
    out.stream_events = stream_events;
    out.dropped = dropped;
    out
}

/// Runs `Cluster::run` on a fresh cluster: the batch result the daemon's
/// `drain` must reproduce byte for byte.
fn batch_reference(cfg: &ClusterConfig, specs: &[JobSpec]) -> (Pass, String) {
    let start = Instant::now();
    let mut cluster = Cluster::new(cfg.clone());
    let (stats, transfers) = cluster.run_traced(specs);
    let json = stats.to_json();
    let counts = Counts {
        stats_digest: digest(json.as_bytes()),
        steps: 0,
        events: cluster.take_events().len() as u64,
        transfers: transfers.len() as u64,
        validation_runs: cluster.validation_runs(),
        predictor_hits: stats.predictor_hits,
        predictor_misses: stats.predictor_misses,
        preemptions: stats.preemptions as u64,
        rebatches: stats.rebatches as u64,
        mispredict_recoveries: stats.mispredict_recoveries,
    };
    let p = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        json_bytes: json.len(),
        stats,
        counts,
    };
    (p, json)
}

/// Runs the `serve` workload.
pub fn run(args: Args, alloc: Option<AllocCounter>) -> Report {
    let w = Workload::Serve;
    let mut r = Report::default();
    let (prepared, mut setup_s) = set_up(
        args.trace,
        &mut r.checks,
        |checks| {
            let specs = w.specs(args.seed);
            let cfg = w.config();
            let (reference, expected) = batch_reference(&cfg, &specs);
            check(&reference, None, checks);
            (specs, cfg, reference, expected)
        },
        |p| &p.2.counts,
    );
    let (specs, cfg, reference, expected) = prepared;
    let jobs = specs.len() as f64;

    if !args.trace {
        let mut tr = Tracer::new(false);
        let (mut rtts, mut jobs_per_s) = (BestTimes::default(), Vec::new());
        let start = Instant::now();
        while jobs_per_s.len() < 2 || start.elapsed() < args.seconds {
            let s = session(&cfg, &specs, &expected, &mut tr, &mut r.checks);
            eprintln!("session {}: {:.3} s", jobs_per_s.len(), s.wall_s);
            let aligned = rtts.end_pass(&mut s.rtts.iter().map(|&(_, ms)| ms).collect());
            r.checks
                .op(aligned, || "a session made different requests".to_owned());
            jobs_per_s.push(jobs / s.wall_s);
        }
        let tail = rtts.percentile(tail_percentile(w));
        eprintln!("op tail (p{}): {tail} ms", tail_percentile(w));
        r.metric("setup_s", median(&mut setup_s), "s");
        r.metric("jobs_per_s", best(&jobs_per_s), "1/s");
        r.metric("op_ms_p50", rtts.percentile(50.0), "ms");
        r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        determinism(&mut r, &reference.counts, &reference.stats);
        r.det("sessions", Value::UInt(jobs_per_s.len() as u64));
        r.det("op_samples", Value::UInt(rtts.count));
        r.det("op_tail_percentile", Value::Float(tail_percentile(w)));
        return r;
    }

    let alloc = alloc.expect("traced runs count allocations");
    let mut tr = Tracer::new(true);
    let mut l = Layered {
        jobs: specs.len() as u64,
        ..Layered::default()
    };
    let root = tr.enter("bench.replay", 0);
    l.engine = replay::admission_chain(&specs, &cfg, &mut tr);
    tr.exit(root);
    let mut replay_spans = tr.take();

    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); OPS.len()];
    let (mut requests, mut request_s) = (0u64, 0.0f64);
    let (mut lines, mut replies) = (Vec::new(), Vec::new());
    let (mut delivered, mut dropped) = (Vec::new(), Vec::new());
    let mut rtts = BestTimes::default();
    let (pass_ms, alloc) = traced_pairs(&mut tr, args.seconds, alloc, |tr, traced| {
        let s = session(&cfg, &specs, &expected, tr, &mut r.checks);
        if !traced {
            let aligned = rtts.end_pass(&mut s.rtts.iter().map(|&(_, ms)| ms).collect());
            r.checks
                .op(aligned, || "a session made different requests".to_owned());
        }
        for &(op, ms) in &s.rtts {
            per_op[op].push(ms);
            request_s += ms / 1e3;
        }
        requests += s.requests;
        delivered.push(s.stream_events as f64 / reference.counts.events.max(1) as f64);
        dropped.push(s.dropped as f64);
        if traced {
            let spans = tr.take();
            if l.traced_reps == 0 {
                lines = s.lines;
                replies = s.replies;
                save_spans(w, args.seed, &replay_spans, &spans);
            }
            l.reps.merge(&Summary::of(&spans));
            l.traced_reps += 1;
        }
        s.wall_s
    });
    (l.pass_ms, l.alloc, l.op_tail_ms) = (pass_ms, alloc, rtts.percentile(tail_percentile(w)));

    // Client-side replays of the wire's parse work, on the first traced
    // session's request lines and replies.
    let root = tr.enter("bench.replay", 0);
    for (i, line) in lines.iter().enumerate() {
        let parsed = tr.time("protocol.parse_request", i as u64, || parse_request(line));
        r.checks.op(parsed.is_ok(), || {
            format!("request line does not parse: {line}")
        });
    }
    let mut reply_bytes = 0usize;
    for (i, (op, text)) in replies.iter().enumerate() {
        reply_bytes += text.len();
        if OPS[*op] == "stats" || OPS[*op] == "drain" {
            let v = tr.time("serve.reply_parse", i as u64, || {
                serde_json::from_str::<Value>(text)
            });
            r.checks
                .op(v.is_ok(), || "reply does not re-parse".to_owned());
        }
    }
    tr.exit(root);
    replay_spans.extend(tr.take());
    l.replay = Summary::of(&replay_spans);

    let wire = &mut l.wire;
    for (slot, samples) in wire.rtt_ms.iter_mut().zip(per_op.iter_mut()) {
        *slot = median(samples);
    }
    wire.ops_per_s = requests as f64 / request_s.max(f64::MIN_POSITIVE);
    wire.parse_request_us = l.replay.mean_ns("protocol.parse_request") / 1e3;
    wire.reply_parse_ms = l.replay.mean_ns("serve.reply_parse") / 1e6;
    wire.reply_bytes = reply_bytes as f64 / replies.len().max(1) as f64;
    wire.delivered_ratio = median(&mut delivered);
    wire.dropped = median(&mut dropped);
    l.events = reference.counts.events;
    l.validation_runs = reference.counts.validation_runs;
    l.json_bytes = reference.json_bytes as u64;
    l.sim_samples_per_s = reference.stats.aggregate_samples_per_sec;
    l.sim_jct_mean_s = reference.stats.mean_jct.as_secs_f64();
    l.emit(&mut r);
    determinism(&mut r, &reference.counts, &reference.stats);
    r.det("traced_sessions", Value::UInt(l.traced_reps));
    r
}
