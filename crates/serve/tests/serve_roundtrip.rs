//! End-to-end daemon tests over a real TCP socket: submissions, status,
//! streaming, drain byte-identity against the batch run, cancel errors,
//! and the wall clock's liveness.

use capuchin_cluster::{
    AdmissionMode, Cluster, ClusterConfig, JobPolicy, JobSpec, STATS_SCHEMA_VERSION,
};
use capuchin_models::ModelKind;
use capuchin_serve::client::{request, Client};
use capuchin_serve::{serve, ClockMode, ServeConfig, WIRE_SCHEMA_VERSION};
use serde::Value;

fn job(name: &str, batch: usize, iters: u64, arrival: f64) -> JobSpec {
    JobSpec {
        name: name.to_owned(),
        model: ModelKind::Vgg16,
        batch,
        gpus: 1,
        policy: JobPolicy::TfOri,
        iters,
        priority: 0,
        arrival_time: arrival,
        elastic: false,
        ..JobSpec::default()
    }
}

fn cfg() -> ClusterConfig {
    ClusterConfig::builder()
        .gpus(1)
        .admission(AdmissionMode::TfOri)
        .build()
        .expect("valid config")
}

fn workload() -> Vec<JobSpec> {
    vec![job("alpha", 32, 3, 0.0), job("beta", 32, 2, 0.5)]
}

fn submit(control: &mut Client, spec: &JobSpec) -> u64 {
    use serde::Serialize as _;
    let reply = control
        .request(&request(
            "submit",
            vec![("spec".to_owned(), spec.to_value())],
        ))
        .expect("submit");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    reply.get("job").and_then(Value::as_u64).expect("job id")
}

fn wire_version_of(v: &Value) -> Option<u64> {
    v.get("schema_version").and_then(Value::as_u64)
}

#[test]
fn virtual_clock_drain_matches_batch_run_byte_for_byte() {
    let expected = Cluster::new(cfg()).run(&workload()).to_json();

    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let addr = handle.addr();

    let mut control = Client::connect(addr).expect("connect control");
    let mut ids = Vec::new();
    for spec in workload() {
        ids.push(submit(&mut control, &spec));
    }
    assert_eq!(ids, vec![0, 1]);

    // Live status before any time passed: both jobs queued.
    let st = control
        .request(&request("status", vec![("job".to_owned(), Value::UInt(0))]))
        .expect("status");
    assert_eq!(wire_version_of(&st), Some(u64::from(WIRE_SCHEMA_VERSION)));
    let state = st
        .get("status")
        .and_then(|s| s.get("state"))
        .and_then(Value::as_str)
        .map(str::to_owned);
    assert_eq!(state.as_deref(), Some("Queued"), "{st:?}");

    // A subscriber on its own connection watches job 0 retire.
    let mut sub = Client::connect(addr).expect("connect subscriber");
    let reply = sub
        .request(&request(
            "subscribe",
            vec![("job".to_owned(), Value::UInt(0))],
        ))
        .expect("subscribe");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );

    let drained = control.request(&request("drain", vec![])).expect("drain");
    assert_eq!(
        drained.get("ok").and_then(Value::as_bool),
        Some(true),
        "{drained:?}"
    );
    let stats = drained.get("stats").expect("drain carries stats");
    assert_eq!(
        stats.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(STATS_SCHEMA_VERSION))
    );
    // The byte-identity contract: re-rendering the wire stats tree as
    // pretty JSON reproduces the batch run's `to_json` exactly.
    assert_eq!(serde_json::to_string_pretty(stats).unwrap(), expected);

    // Admission is closed after drain.
    let refused = control
        .request(&request(
            "submit",
            vec![(
                "spec".to_owned(),
                serde::Serialize::to_value(&job("late", 32, 1, 0.0)),
            )],
        ))
        .expect("refused submit");
    assert_eq!(refused.get("ok").and_then(Value::as_bool), Some(false));

    let bye = control
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));

    // Shutdown closes the subscriber; its stream is complete up to EOF
    // and scoped to job 0.
    let mut kinds = Vec::new();
    while let Some(line) = sub.recv().expect("stream") {
        assert_eq!(wire_version_of(&line), Some(u64::from(WIRE_SCHEMA_VERSION)));
        assert_eq!(line.get("stream").and_then(Value::as_str), Some("event"));
        assert_eq!(line.get("job").and_then(Value::as_u64), Some(0));
        kinds.push(
            line.get("kind")
                .and_then(Value::as_str)
                .expect("kind")
                .to_owned(),
        );
    }
    // The stream starts at subscription time: the `submitted` events
    // fired (and were pumped) before this subscriber existed, so the
    // first record it sees is the drain-time admission.
    assert_eq!(kinds.first().map(String::as_str), Some("admitted"));
    assert_eq!(kinds.last().map(String::as_str), Some("completed"));
    assert!(kinds.iter().any(|k| k == "iteration"), "{kinds:?}");

    handle.wait();
}

#[test]
fn errors_are_replies_not_disconnects() {
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut control = Client::connect(handle.addr()).expect("connect");

    // Unknown job: cancel and status both answer with ok:false.
    for op in ["cancel", "status"] {
        let reply = control
            .request(&request(op, vec![("job".to_owned(), Value::UInt(42))]))
            .expect(op);
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(false),
            "{reply:?}"
        );
        assert!(
            reply
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains("never submitted")),
            "{reply:?}"
        );
    }

    // A malformed request (valid JSON, no `op`) is answered locally and
    // the connection survives to serve the next request.
    let reply = control
        .request(&Value::Str("not an object".into()))
        .expect("parse-error reply");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));

    // The id token is echoed verbatim.
    let reply = control
        .request(&request(
            "stats",
            vec![("id".to_owned(), Value::Str("tok".into()))],
        ))
        .expect("stats");
    assert_eq!(reply.get("id").and_then(Value::as_str), Some("tok"));

    // Specs a job file would reject are refused at submit with the
    // validator's message, and the connection keeps serving.
    use serde::Serialize as _;
    let silent = job("silent", 32, 1, 0.0).into_inference(0.0, 250.0, 4, 0, 1);
    let gangless = JobSpec {
        gpus: 0,
        ..job("gangless", 32, 1, 0.0)
    };
    for (spec, needle) in [(silent, "request_rate"), (gangless, "0 GPUs")] {
        let reply = control
            .request(&request(
                "submit",
                vec![("spec".to_owned(), spec.to_value())],
            ))
            .expect("submit reply");
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(false),
            "{reply:?}"
        );
        assert!(
            reply
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains(needle)),
            "{reply:?}"
        );
    }
    let stats = control.request(&request("stats", vec![])).expect("stats");
    let submitted = stats
        .get("stats")
        .and_then(|s| s.get("submitted"))
        .and_then(Value::as_u64);
    assert_eq!(submitted, Some(0), "refused specs were submitted");

    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn overlong_request_line_is_refused_then_disconnected() {
    use std::io::{BufRead, BufReader, Read, Write};
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Virtual,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    // More than the 1 MiB line bound, and never a newline.
    raw.write_all(&vec![b'x'; (1 << 20) + (64 << 10)])
        .expect("send");
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    let reply: Value = serde_json::from_str(line.trim()).expect("reply is JSON");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(false),
        "{reply:?}"
    );
    assert!(
        reply
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "{reply:?}"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean EOF");
    assert!(rest.is_empty(), "data after the error reply");
    drop(reader);

    // The daemon itself keeps serving fresh connections.
    let mut control = Client::connect(handle.addr()).expect("reconnect");
    let reply = control.request(&request("stats", vec![])).expect("stats");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn wall_clock_daemon_still_drains_to_completion() {
    let handle = serve(ServeConfig {
        cluster: cfg(),
        clock: ClockMode::Wall,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind");
    let mut control = Client::connect(handle.addr()).expect("connect");
    submit(&mut control, &job("solo", 32, 1, 0.0));
    // Drain fast-forwards the event clock past the wall, so this is
    // deterministic even under a wall pacer.
    let drained = control.request(&request("drain", vec![])).expect("drain");
    let completed = drained
        .get("stats")
        .and_then(|s| s.get("completed"))
        .and_then(Value::as_u64);
    assert_eq!(completed, Some(1), "{drained:?}");
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn from_flags_rejects_unknown_flags() {
    let mut flags = std::collections::HashMap::new();
    flags.insert("gpus".to_owned(), "2".to_owned());
    flags.insert("preempt".to_owned(), "on".to_owned()); // typo of --preemption
    let err = ServeConfig::from_flags(&flags).unwrap_err();
    assert!(err.contains("--preempt"), "{err}");
    assert!(err.contains("--preemption"), "accepted list missing: {err}");
    flags.remove("preempt");
    assert!(ServeConfig::from_flags(&flags).is_ok());
    // The daemon takes every cluster flag the CLI takes.
    flags.insert("slo-aware".to_owned(), "off".to_owned());
    let cfg = ServeConfig::from_flags(&flags).expect("--slo-aware is accepted");
    assert!(!cfg.cluster.slo_aware);
    assert_eq!(cfg.cluster.gpus, 2);
    // The aging rate is a constant, not a flag.
    flags.insert("aging-rate".to_owned(), "1.0".to_owned());
    let err = ServeConfig::from_flags(&flags).unwrap_err();
    assert!(err.contains("unknown flag `--aging-rate`"), "{err}");
}

fn start(clock: ClockMode) -> capuchin_serve::ServerHandle {
    serve(ServeConfig {
        cluster: cfg(),
        clock,
        addr: "127.0.0.1:0".into(),
    })
    .expect("bind")
}

#[test]
fn sequential_requests_do_not_stall_on_the_wire() {
    let handle = start(ClockMode::Virtual);
    let mut control = Client::connect(handle.addr()).expect("connect");
    let job = submit(&mut control, &job("solo", 32, 1, 0.0));
    // A line split over two writes waits out the peer's delayed ACK
    // (~40 ms each way), so 50 round trips would take seconds.
    let start = std::time::Instant::now();
    for _ in 0..50 {
        let reply = control
            .request(&request(
                "status",
                vec![("job".to_owned(), Value::UInt(job))],
            ))
            .expect("status");
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{reply:?}"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 status round trips took {elapsed:?}"
    );
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn near_limit_request_line_is_answered_promptly() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start(ClockMode::Virtual);
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    // Just under the 1 MiB line bound, nearly all of it one string.
    let token = "x".repeat((1 << 20) - 64);
    let msg = request("stats", vec![("id".to_owned(), Value::Str(token.clone()))]);
    let mut line = serde_json::to_string(&msg).expect("render");
    assert!(line.len() < 1 << 20, "{} bytes", line.len());
    line.push('\n');
    let start = std::time::Instant::now();
    raw.write_all(line.as_bytes()).expect("send");
    let mut reader = BufReader::new(raw);
    let mut text = String::new();
    reader
        .read_line(&mut text)
        .expect("reply within the timeout");
    let elapsed = start.elapsed();
    let reply: Value = serde_json::from_str(text.trim()).expect("reply is JSON");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{:?}",
        reply.get("error")
    );
    assert!(reply.get("id").and_then(Value::as_str) == Some(token.as_str()));
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "reply took {elapsed:?}"
    );

    // The daemon keeps serving.
    let mut control = Client::connect(handle.addr()).expect("connect");
    let reply = control.request(&request("stats", vec![])).expect("stats");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}

#[test]
fn shutdown_joins_the_daemon_with_an_idle_connection_open() {
    use std::io::Read;
    let handle = start(ClockMode::Virtual);
    let mut idle = std::net::TcpStream::connect(handle.addr()).expect("connect idle");
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut control = Client::connect(handle.addr()).expect("connect control");
    let bye = control
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("wait() returned with an idle connection open");

    let mut rest = Vec::new();
    let n = idle.read_to_end(&mut rest).expect("idle client reads EOF");
    assert_eq!(n, 0, "idle client got {rest:?}");
}

#[test]
fn shutdown_is_not_held_up_by_a_client_that_never_reads() {
    use std::io::Write;
    let handle = start(ClockMode::Virtual);
    // Replies that echo a ~1 MiB id, far more than the loopback socket
    // buffers hold, so the daemon's writer blocks on this client.
    let token = "x".repeat((1 << 20) - 64);
    let msg = request("stats", vec![("id".to_owned(), Value::Str(token))]);
    let mut line = serde_json::to_string(&msg).expect("render");
    line.push('\n');
    let mut mute = std::net::TcpStream::connect(handle.addr()).expect("connect");
    for _ in 0..32 {
        mute.write_all(line.as_bytes()).expect("send");
    }
    // Sent on the same connection, so the scheduler handles it after
    // every reply above is queued behind the blocked writer.
    mute.write_all(b"{\"op\":\"shutdown\"}\n").expect("send");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.wait();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("wait() returned with a non-reading client connected");
    drop(mute);
}

#[test]
fn specs_without_a_time_or_work_are_refused_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start(ClockMode::Virtual);
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut ask = |line: String| -> Value {
        raw.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        serde_json::from_str(reply.trim()).expect("reply is JSON")
    };
    // Raw lines: an arrival of 1e400 parses to +inf, which no typed
    // client can render.
    let submit = |arrival: &str, batch: usize, iters: u64| {
        format!(
            r#"{{"op":"submit","spec":{{"name":"bad","model":"Vgg16","batch":{batch},"policy":"TfOri","iters":{iters},"priority":0,"arrival_time":{arrival}}}}}"#
        )
    };
    for (line, needle) in [
        (submit("1e400", 32, 1), "arrival_time"),
        (submit("-3.0", 32, 1), "arrival_time"),
        // Past the nanosecond clock's range.
        (submit("1e12", 32, 1), "from 0 to 1000000000"),
        (submit("0.0", 0, 1), "batch 0"),
        (submit("0.0", 32, 0), "0 iterations"),
    ] {
        let reply = ask(line);
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(false),
            "{reply:?}"
        );
        assert!(
            reply
                .get("error")
                .and_then(Value::as_str)
                .is_some_and(|e| e.contains(needle)),
            "{reply:?}"
        );
    }
    let reply = ask(submit("0.0", 32, 1));
    assert_eq!(
        reply.get("job").and_then(Value::as_u64),
        Some(0),
        "{reply:?}"
    );
    let drained = ask(r#"{"op":"drain"}"#.to_owned());
    let stats = drained.get("stats").expect("drain reply carries stats");
    assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(1));
    ask(r#"{"op":"shutdown"}"#.to_owned());
    handle.wait();
}

#[test]
fn deeply_nested_line_is_refused_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Write};
    let handle = start(ClockMode::Virtual);
    let mut control = Client::connect(handle.addr()).expect("connect control");
    let job = submit(&mut control, &job("solo", 32, 1, 0.0));

    // 40 KB, well under the line bound, and 20,000 levels deep: parsed
    // without a depth bound, it overflows the reader thread's stack and
    // aborts the whole daemon.
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    let line = format!("{}{}\n", "[".repeat(20_000), "]".repeat(20_000));
    raw.write_all(line.as_bytes()).expect("send");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    let reply: Value = serde_json::from_str(reply.trim()).expect("reply is JSON");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(false),
        "{reply:?}"
    );
    assert!(
        reply
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("bad JSON") && e.contains("recursion limit")),
        "{reply:?}"
    );

    let status = control
        .request(&request(
            "status",
            vec![("job".to_owned(), Value::UInt(job))],
        ))
        .expect("status after the nested line");
    assert_eq!(
        status.get("ok").and_then(Value::as_bool),
        Some(true),
        "{status:?}"
    );
    let _ = control.request(&request("shutdown", vec![]));
    handle.wait();
}
