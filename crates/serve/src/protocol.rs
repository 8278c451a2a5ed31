//! The line-delimited JSON wire protocol.
//!
//! Every message — request, reply, or stream record — is one JSON object
//! on one line, and every server-sent message leads with
//! `"schema_version":` [`WIRE_SCHEMA_VERSION`] so clients can detect
//! drift before interpreting anything else.
//!
//! Requests carry an `"op"` and an optional `"id"` the server echoes
//! back, so clients can correlate replies without assuming ordering:
//!
//! ```json
//! {"op":"submit","spec":{...job spec...},"id":1}
//! {"op":"cancel","job":3}
//! {"op":"status","job":3}
//! {"op":"stats"}
//! {"op":"subscribe","job":0,"transfers":true,"queue":64,"pace_us":0}
//! {"op":"drain"}
//! {"op":"shutdown"}
//! ```
//!
//! Replies are `{"schema_version":1,"reply":"<op>","id":...,"ok":true,
//! ...}` or the same shape with `"ok":false,"error":"..."`. Stream
//! records (only on subscribed connections) are tagged with `"stream"`:
//! `"event"` for job lifecycle transitions, `"transfer"` for the
//! per-tensor transfer timeline, and `"dropped"` for the coalesced
//! backpressure marker.

use capuchin_cluster::{ClusterTransfer, JobEvent, JobEventKind, JobSpec};
use serde::{Deserialize as _, Serialize, Value, Writer};

/// Version stamp carried by every wire message. Independent of the stats
/// schema ([`capuchin_cluster::STATS_SCHEMA_VERSION`]), which versions
/// the payload of `stats`/`drain` replies: version 1 is the protocol as
/// introduced; version 2 adds the inference stream records
/// (`request_arrived`, `request_served`, `slo_missed`, the latter two
/// carrying an integer `latency_us`); version 3 adds the
/// `admission_source` field to `status` replies (the typed
/// [`capuchin_cluster::AdmissionSource`] provenance: `measured`,
/// `heuristic`, or `predicted`). Bump on any change to request or
/// reply shapes.
pub const WIRE_SCHEMA_VERSION: u32 = 3;

/// Default bound on a subscriber's stream queue (messages, not bytes).
pub const DEFAULT_EVENT_QUEUE: usize = 256;

/// A parsed request: the operation plus the client's correlation id, if
/// it sent one (echoed verbatim in the reply).
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Client correlation token (`"id"`), echoed back in the reply.
    pub id: Option<Value>,
    /// The operation to perform.
    pub op: Op,
}

/// The operations the daemon accepts.
#[derive(Debug, Clone)]
pub enum Op {
    /// Submit one job; replies with its `job` id.
    Submit {
        /// The job to submit (same schema as a workload-file entry).
        spec: JobSpec,
    },
    /// Cancel a submitted job by id.
    Cancel {
        /// Id returned by a previous `submit`.
        job: u64,
    },
    /// Report a job's live lifecycle snapshot.
    Status {
        /// Id returned by a previous `submit`.
        job: u64,
    },
    /// Snapshot whole-run statistics at the current instant.
    Stats,
    /// Turn this connection into a stream subscriber.
    Subscribe(SubscribeOpts),
    /// Stop admission, run residents to completion, reply with final
    /// stats.
    Drain,
    /// Reply, then stop the daemon.
    Shutdown,
}

/// Options of a `subscribe` request.
#[derive(Debug, Clone)]
pub struct SubscribeOpts {
    /// Only stream events for this job (default: all jobs).
    pub job: Option<u64>,
    /// Also stream per-tensor transfer records (default: false).
    pub transfers: bool,
    /// Stream queue bound for this connection (default
    /// [`DEFAULT_EVENT_QUEUE`], floored at 1). Replies are exempt.
    pub queue: usize,
    /// Artificial delay the writer sleeps after each line, in
    /// microseconds (default 0). Exists so tests can throttle a consumer
    /// deterministically and observe the backpressure path.
    pub pace_us: u64,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown `op`, or missing/ill-typed operation fields.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = v.get("id").cloned();
    let op_name = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing string field `op`")?;
    let op = match op_name {
        "submit" => {
            let spec = v.get("spec").ok_or("submit: missing field `spec`")?;
            let spec = JobSpec::from_value(spec).map_err(|e| format!("submit: bad spec: {e}"))?;
            Op::Submit { spec }
        }
        "cancel" => Op::Cancel {
            job: job_field(&v, "cancel")?,
        },
        "status" => Op::Status {
            job: job_field(&v, "status")?,
        },
        "stats" => Op::Stats,
        "subscribe" => Op::Subscribe(SubscribeOpts {
            job: match v.get("job") {
                Some(j) => Some(
                    j.as_u64()
                        .ok_or("subscribe: `job` must be a non-negative integer")?,
                ),
                None => None,
            },
            transfers: match v.get("transfers") {
                Some(t) => t
                    .as_bool()
                    .ok_or("subscribe: `transfers` must be a boolean")?,
                None => false,
            },
            queue: match v.get("queue") {
                Some(q) => usize::try_from(
                    q.as_u64()
                        .ok_or("subscribe: `queue` must be a positive integer")?,
                )
                .map_err(|_| "subscribe: `queue` out of range")?
                .max(1),
                None => DEFAULT_EVENT_QUEUE,
            },
            pace_us: match v.get("pace_us") {
                Some(p) => p
                    .as_u64()
                    .ok_or("subscribe: `pace_us` must be a non-negative integer")?,
                None => 0,
            },
        }),
        "drain" => Op::Drain,
        "shutdown" => Op::Shutdown,
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok(Envelope { id, op })
}

fn job_field(v: &Value, op: &str) -> Result<u64, String> {
    v.get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{op}: missing non-negative integer field `job`"))
}

/// Opens a server-sent line: `{"schema_version":N,"<tag>":"<name>"`.
fn open(tag: &str, name: &str) -> Writer {
    let mut w = Writer::compact();
    w.begin_object();
    w.key("schema_version");
    w.u64(u64::from(WIRE_SCHEMA_VERSION));
    w.key(tag);
    w.str(name);
    w
}

fn close(mut w: Writer) -> String {
    w.end_object();
    w.into_string()
}

fn reply(op: &str, id: &Option<Value>, ok: bool, extra: &[(&str, &dyn Serialize)]) -> String {
    let mut w = open("reply", op);
    if let Some(id) = id {
        w.key("id");
        id.serialize(&mut w);
    }
    w.key("ok");
    w.bool(ok);
    for (key, value) in extra {
        w.key(key);
        value.serialize(&mut w);
    }
    close(w)
}

/// Renders a success reply for `op`, with `extra` fields appended after
/// `ok`.
pub fn reply_ok(op: &str, id: &Option<Value>, extra: &[(&str, &dyn Serialize)]) -> String {
    reply(op, id, true, extra)
}

/// Renders an error reply for `op`.
pub fn reply_err(op: &str, id: &Option<Value>, error: &str) -> String {
    reply(op, id, false, &[("error", &error)])
}

/// Renders one lifecycle event as a stream record: the
/// [`JobEventKind`] is flattened to its lowercase wire name plus the
/// kind's own fields, so consumers switch on a single `"kind"` string.
pub fn event_line(e: &JobEvent) -> String {
    let mut w = open("stream", "event");
    w.key("t");
    w.u64(e.t.as_nanos());
    w.key("job");
    w.u64(e.job);
    w.key("name");
    w.str(&e.name);
    w.key("kind");
    w.str(e.kind.name());
    match &e.kind {
        JobEventKind::Admitted {
            gpus,
            batch,
            reserved,
        } => {
            w.key("gpus");
            gpus.serialize(&mut w);
            w.key("batch");
            batch.serialize(&mut w);
            w.key("reserved");
            w.u64(*reserved);
        }
        JobEventKind::IterationDone { iter, samples_done } => {
            w.key("iter");
            w.u64(*iter);
            w.key("samples_done");
            w.u64(*samples_done);
        }
        JobEventKind::Rebatched { batch } => {
            w.key("batch");
            batch.serialize(&mut w);
        }
        JobEventKind::RequestServed { latency } | JobEventKind::SloMissed { latency } => {
            // Integer division keeps the accumulator-to-wire path in u64.
            w.key("latency_us");
            w.u64(latency.as_nanos() / 1_000);
        }
        _ => {}
    }
    close(w)
}

/// Renders one per-tensor transfer record as a stream record (the
/// [`ClusterTransfer`] fields, inlined).
pub fn transfer_line(t: &ClusterTransfer) -> String {
    let mut w = open("stream", "transfer");
    w.flatten(t);
    close(w)
}

/// Renders the coalesced backpressure marker: `n` stream records were
/// dropped on this connection since the last one it received.
pub fn dropped_line(n: u64) -> String {
    let mut w = open("stream", "dropped");
    w.key("dropped");
    w.u64(n);
    close(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capuchin_sim::Time;

    #[test]
    fn requests_parse_and_report_errors() {
        let env = parse_request(r#"{"op":"status","job":3,"id":7}"#).unwrap();
        assert!(matches!(env.op, Op::Status { job: 3 }));
        assert_eq!(env.id, Some(Value::Int(7)));

        let env = parse_request(r#"{"op":"subscribe"}"#).unwrap();
        match env.op {
            Op::Subscribe(o) => {
                assert_eq!(o.job, None);
                assert!(!o.transfers);
                assert_eq!(o.queue, DEFAULT_EVENT_QUEUE);
                assert_eq!(o.pace_us, 0);
            }
            other => panic!("parsed {other:?}"),
        }

        assert!(parse_request("not json").unwrap_err().contains("bad JSON"));
        assert!(parse_request(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request(r#"{"op":"cancel"}"#)
            .unwrap_err()
            .contains("`job`"));
    }

    #[test]
    fn submit_accepts_every_registry_policy_spelling() {
        // The daemon adds no policy parsing of its own: a `submit` goes
        // through `JobSpec::from_value`, so every spelling the policy
        // registry accepts works over the wire — including policies
        // added after this test was written.
        for d in capuchin_cluster::REGISTRY {
            for spelling in d.accepted {
                let line = format!(
                    r#"{{"op":"submit","spec":{{"name":"j","model":"ResNet50",
                        "batch":64,"policy":"{spelling}","iters":2,
                        "priority":0,"arrival_time":0.0}}}}"#
                );
                let env = parse_request(&line).unwrap();
                match env.op {
                    Op::Submit { spec } => assert_eq!(spec.policy, d.policy),
                    other => panic!("parsed {other:?}"),
                }
            }
        }
        let bad = r#"{"op":"submit","spec":{"name":"j","model":"ResNet50",
            "batch":64,"policy":"keras","iters":2,"priority":0,
            "arrival_time":0.0}}"#;
        assert!(parse_request(bad).unwrap_err().contains("bad spec"));
    }

    #[test]
    fn every_line_leads_with_the_wire_schema_version() {
        let prefix = format!("{{\"schema_version\":{WIRE_SCHEMA_VERSION},");
        let event = JobEvent {
            t: Time::ZERO,
            job: 0,
            name: "j".into(),
            kind: JobEventKind::Completed,
        };
        for line in [
            reply_ok("stats", &None, &[]),
            reply_err("cancel", &Some(Value::Int(1)), "nope"),
            event_line(&event),
            dropped_line(4),
        ] {
            assert!(line.starts_with(&prefix), "{line}");
            assert!(!line.contains('\n'), "{line}");
        }
    }

    #[test]
    fn transfer_lines_inline_the_record_after_the_envelope() {
        use capuchin_sim::{CopyDir, Duration};
        let t = ClusterTransfer {
            job: "j\"1".into(),
            iter: u64::MAX,
            label: "prefetch:conv1".into(),
            link: "host".into(),
            dir: CopyDir::HostToDevice,
            bytes: 1 << 20,
            want: Time::from_micros(5),
            start: Time::from_micros(7),
            end: Time::from_micros(9),
            wait: Duration::from_nanos(2_000),
            charge: Duration::ZERO,
            lead: Duration::from_nanos(3),
        };
        let record = serde_json::to_string(&t).unwrap();
        assert_eq!(
            transfer_line(&t),
            format!(
                "{{\"schema_version\":{WIRE_SCHEMA_VERSION},\"stream\":\"transfer\",{}",
                &record[1..]
            )
        );
    }

    #[test]
    fn event_kinds_flatten_their_fields() {
        let line = event_line(&JobEvent {
            t: Time::ZERO,
            job: 2,
            name: "gang".into(),
            kind: JobEventKind::Admitted {
                gpus: vec![0, 1],
                batch: 64,
                reserved: 1 << 20,
            },
        });
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("admitted"));
        assert_eq!(v.get("batch").and_then(Value::as_u64), Some(64));
        assert_eq!(
            v.get("gpus").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn inference_events_carry_integer_latency_micros() {
        use capuchin_sim::Duration;
        let at = |kind| JobEvent {
            t: Time::from_micros(10),
            job: 5,
            name: "s".into(),
            kind,
        };
        let arrived = event_line(&at(JobEventKind::RequestArrived));
        let v: Value = serde_json::from_str(&arrived).unwrap();
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some("request_arrived")
        );
        assert!(v.get("latency_us").is_none());

        for (kind, name) in [
            (
                JobEventKind::RequestServed {
                    latency: Duration::from_nanos(1_234_567),
                },
                "request_served",
            ),
            (
                JobEventKind::SloMissed {
                    latency: Duration::from_nanos(1_234_567),
                },
                "slo_missed",
            ),
        ] {
            let line = event_line(&at(kind));
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("kind").and_then(Value::as_str), Some(name));
            // 1_234_567 ns floors to 1_234 µs — integer all the way.
            assert_eq!(v.get("latency_us").and_then(Value::as_u64), Some(1_234));
        }
    }
}
