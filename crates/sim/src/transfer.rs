//! The unified transfer layer: every modelled byte of data movement —
//! engine swap-out/swap-in/prefetch copies, cluster swap replay,
//! ring-allreduce shares, and checkpoint/restore images — is priced by one
//! [`TransferModel`] and serialized through one lane type ([`Lane`]).
//!
//! Before this layer existed the same bandwidth math lived in three
//! places: the per-GPU copy streams (`stream.rs` + `DeviceSpec::
//! copy_time`), the cluster links (`interconnect.rs`), and a private PCIe
//! constant inside the planner's Free-Time computation. They now all
//! resolve to [`wire_time`], so single-GPU and cluster runs price a swap
//! identically.
//!
//! Three pieces:
//!
//! * [`TransferModel`] — the analytic cost model (per-direction bandwidth
//!   plus a fixed DMA setup latency), buildable from a [`DeviceSpec`];
//! * [`Lane`] — one FIFO pipe with finite bandwidth. A transfer admitted
//!   while the lane is busy *queues* (starts at `busy_until`) instead of
//!   overlapping for free. Lanes also implement the *deduplicated
//!   contention charge* ([`Lane::admit_charged`]): the portion of a
//!   transfer's wait not already charged to an earlier transfer in the
//!   same busy period, so the total charged delay on a lane can never
//!   exceed its wall-clock occupancy;
//! * [`TransferEngine`] — a per-device pair of lanes (device→host,
//!   host→device) that accepts typed [`TransferRequest`]s and records a
//!   per-transfer timeline ([`TransferRecord`]: queued → start → end,
//!   stretch factor) for the trace exporters.
//!
//! Determinism: lanes hold only watermarks and counters, and every
//! admission resolves immediately into `(start, end)` times, so a fixed
//! request sequence always yields identical timings.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::gpu::{CopyDir, DeviceSpec};
use crate::time::{Duration, Time};

/// THE bandwidth formula: time for `bytes` over a pipe of `bw` bytes/s
/// with a fixed per-transfer setup latency. Every modelled transfer —
/// engine copy, planner estimate, cluster link — resolves to this one
/// function.
pub fn wire_time(bytes: u64, bw: f64, overhead: Duration) -> Duration {
    overhead + Duration::from_secs_f64(bytes as f64 / bw)
}

/// Analytic transfer-cost model: per-direction PCIe bandwidth plus DMA
/// setup latency. The planner prices Free-Time with it, the engine's
/// copy lanes execute with it, and [`DeviceSpec::copy_time`] delegates
/// to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Effective device-to-host bandwidth in bytes/s.
    pub d2h_bw: f64,
    /// Effective host-to-device bandwidth in bytes/s.
    pub h2d_bw: f64,
    /// Fixed DMA setup latency charged once per transfer.
    pub overhead: Duration,
}

impl TransferModel {
    /// The transfer model of a device description.
    pub fn for_device(spec: &DeviceSpec) -> TransferModel {
        TransferModel {
            d2h_bw: spec.pcie_d2h_bw,
            h2d_bw: spec.pcie_h2d_bw,
            overhead: spec.copy_overhead,
        }
    }

    /// Bandwidth in direction `dir`.
    pub fn bandwidth(&self, dir: CopyDir) -> f64 {
        match dir {
            CopyDir::DeviceToHost => self.d2h_bw,
            CopyDir::HostToDevice => self.h2d_bw,
        }
    }

    /// Service time for `bytes` in direction `dir` (queueing excluded).
    pub fn time(&self, bytes: u64, dir: CopyDir) -> Duration {
        wire_time(bytes, self.bandwidth(dir), self.overhead)
    }
}

/// A typed request for one data movement, submitted to the shared layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRequest {
    /// What is moving — `<kind>:<tensor name>` for engine traffic (e.g.
    /// `prefetch:conv3.out`), a plain kind for cluster traffic.
    pub label: String,
    /// Payload size.
    pub bytes: u64,
    /// Transfer direction.
    pub dir: CopyDir,
    /// Earliest instant the transfer may start (data dependency).
    pub earliest: Time,
    /// Instant the consumer needs the data by, when known (a prefetch's
    /// back-access, an on-demand swap-in's blocked kernel). `None` for
    /// movement nothing is waiting on.
    pub deadline: Option<Time>,
}

/// A completed lane reservation: when the transfer started (after
/// queueing behind earlier traffic) and when its last byte lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// First byte on the wire (`>=` the enqueue instant).
    pub start: Time,
    /// Last byte delivered.
    pub end: Time,
}

/// One entry of the unified per-transfer timeline: the full
/// queued → start → end history of a single movement on a named lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Request label (`<kind>:<tensor name>`).
    pub label: String,
    /// Lane that served the transfer (`copy-out` / `copy-in` on a device;
    /// `host` / `peer<d>` on a cluster fabric).
    pub link: String,
    /// Transfer direction.
    pub dir: CopyDir,
    /// Payload size.
    pub bytes: u64,
    /// Instant the request was submitted (its `earliest`).
    pub queued: Time,
    /// First byte on the wire.
    pub start: Time,
    /// Last byte delivered.
    pub end: Time,
    /// The request's deadline, if one was known.
    pub deadline: Option<Time>,
}

impl TransferRecord {
    /// Time spent queued behind earlier traffic on the lane.
    pub fn wait(&self) -> Duration {
        self.start.saturating_since(self.queued)
    }

    /// Pure wire time.
    pub fn service(&self) -> Duration {
        self.end.saturating_since(self.start)
    }

    /// Stretch factor: observed latency (queued → end) over pure service
    /// time. `1.0` means the transfer never waited.
    pub fn stretch(&self) -> f64 {
        let service = self.service().as_secs_f64();
        if service == 0.0 {
            return 1.0;
        }
        self.end.saturating_since(self.queued).as_secs_f64() / service
    }

    /// Whether the transfer finished after its deadline.
    pub fn late(&self) -> bool {
        self.deadline.is_some_and(|d| self.end > d)
    }
}

/// One FIFO pipe with finite bandwidth.
///
/// A lane is the minimal serialization model: it remembers only when its
/// current traffic drains (`busy_until`). A transfer admitted before that
/// instant starts exactly at it — traffic queues, it never overlaps.
/// Zero-byte transfers are free; zero-*duration* transfers (an
/// unconstrained fabric) are counted but occupy nothing, so they can
/// never make later traffic wait.
#[derive(Debug, Clone)]
pub struct Lane {
    name: Arc<str>,
    bw: f64,
    overhead: Duration,
    busy_until: Time,
    busy: Duration,
    bytes: u64,
    transfers: u64,
    /// High-water mark of contention already charged ([`Lane::
    /// admit_charged`]): waits are billed only for the part of the busy
    /// period no earlier transfer was billed for.
    charged_until: Time,
    /// Start of the busy period currently draining at `busy_until`. The
    /// lane has been continuously occupied over
    /// `[period_start, busy_until)`; anything earlier was idle and must
    /// never be billed as contention.
    period_start: Time,
}

impl Lane {
    /// Creates an idle lane with the given bandwidth and per-transfer
    /// setup latency.
    pub fn new(name: impl Into<Arc<str>>, bw: f64, overhead: Duration) -> Lane {
        Lane {
            name: name.into(),
            bw,
            overhead,
            busy_until: Time::ZERO,
            busy: Duration::ZERO,
            bytes: 0,
            transfers: 0,
            charged_until: Time::ZERO,
            period_start: Time::ZERO,
        }
    }

    /// The lane's name (`copy-out`, `host`, `peer0`, …) as one shared
    /// allocation: a trace record labels its lane by cloning the pointer,
    /// not by copying the text.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Reserves the lane for `bytes` starting no earlier than `want`.
    pub fn admit(&mut self, want: Time, bytes: u64) -> Transfer {
        if bytes == 0 {
            return Transfer {
                start: want,
                end: want,
            };
        }
        let dur = wire_time(bytes, self.bw, self.overhead);
        if dur == Duration::ZERO {
            // Instantaneous (unconstrained) service: counted, but it
            // occupies nothing and must never queue later traffic.
            self.transfers += 1;
            self.bytes += bytes;
            return Transfer {
                start: want,
                end: want,
            };
        }
        if want > self.busy_until {
            // The lane is idle at `want`: a new busy period begins here.
            self.period_start = want;
        }
        let start = want.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy += dur;
        self.bytes += bytes;
        self.transfers += 1;
        Transfer { start, end }
    }

    /// [`admit`](Lane::admit), plus the *deduplicated contention charge*:
    /// the portion of this transfer's wait that (a) fell inside the busy
    /// period it queued behind and (b) no earlier transfer on this lane
    /// has been charged for.
    ///
    /// Charges are clamped twice. `charged_until` keeps the billed
    /// intervals disjoint across transfers. `period_start` discards the
    /// idle prefix of a retroactive wait: replayed wants can land before
    /// the current busy period even began, and time the lane spent idle
    /// is not contention. Together they make the sum of charges over a
    /// lane's lifetime the measure of a union of sub-intervals of its
    /// service time, which can never exceed
    /// [`busy_time`](Lane::busy_time). That is the no-double-charging
    /// invariant the cluster's per-tensor replay depends on
    /// (property-tested in `cluster/tests/prop_transfer.rs`).
    pub fn admit_charged(&mut self, want: Time, bytes: u64) -> (Transfer, Duration) {
        let tr = self.admit(want, bytes);
        let billed_from = want.max(self.charged_until).max(self.period_start);
        let charge = tr.start.saturating_since(billed_from);
        self.charged_until = self.charged_until.max(tr.start);
        (tr, charge)
    }

    /// Instant the lane's queued traffic drains.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Total time the lane has spent moving bytes.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Number of non-empty transfers served.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// The lane's accounting in serializable form.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            link: self.name.to_string(),
            busy: self.busy,
            bytes: self.bytes,
            transfers: self.transfers,
        }
    }

    /// Returns the lane to idle, keeping its name and bandwidth.
    pub fn reset(&mut self) {
        self.busy_until = Time::ZERO;
        self.busy = Duration::ZERO;
        self.bytes = 0;
        self.transfers = 0;
        self.charged_until = Time::ZERO;
        self.period_start = Time::ZERO;
    }
}

/// Accounting for one lane, serialized into cluster stats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStats {
    /// Lane name (`host` or `peer<domain>`).
    pub link: String,
    /// Total time the lane spent moving bytes.
    pub busy: Duration,
    /// Total bytes moved.
    pub bytes: u64,
    /// Non-empty transfers served.
    pub transfers: u64,
}

/// The per-device transfer engine: one exclusive lane per PCIe direction
/// (pinned-memory transfers occupy their direction's lane exclusively,
/// paper §4.4), accepting typed [`TransferRequest`]s and recording the
/// unified per-transfer timeline.
#[derive(Debug)]
pub struct TransferEngine {
    d2h: Lane,
    h2d: Lane,
    records: Vec<TransferRecord>,
}

impl TransferEngine {
    /// Builds the engine for a device description.
    pub fn for_device(spec: &DeviceSpec) -> TransferEngine {
        let model = TransferModel::for_device(spec);
        TransferEngine {
            d2h: Lane::new("copy-out", model.d2h_bw, model.overhead),
            h2d: Lane::new("copy-in", model.h2d_bw, model.overhead),
            records: Vec::new(),
        }
    }

    /// Admits a request on its direction's lane and records it in the
    /// transfer timeline.
    pub fn submit(&mut self, req: TransferRequest) -> Transfer {
        let lane = match req.dir {
            CopyDir::DeviceToHost => &mut self.d2h,
            CopyDir::HostToDevice => &mut self.h2d,
        };
        let tr = lane.admit(req.earliest, req.bytes);
        self.records.push(TransferRecord {
            label: req.label,
            link: lane.name.to_string(),
            dir: req.dir,
            bytes: req.bytes,
            queued: req.earliest,
            start: tr.start,
            end: tr.end,
            deadline: req.deadline,
        });
        tr
    }

    /// The lane serving direction `dir`.
    pub fn lane(&self, dir: CopyDir) -> &Lane {
        match dir {
            CopyDir::DeviceToHost => &self.d2h,
            CopyDir::HostToDevice => &self.h2d,
        }
    }

    /// Instant both lanes are drained.
    pub fn quiescent_at(&self) -> Time {
        self.d2h.busy_until().max(self.h2d.busy_until())
    }

    /// Takes the transfer timeline accumulated since the last drain.
    pub fn drain_records(&mut self) -> Vec<TransferRecord> {
        std::mem::take(&mut self.records)
    }

    /// Returns both lanes to idle and clears the timeline.
    pub fn reset(&mut self) {
        self.d2h.reset();
        self.h2d.reset();
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(bw: f64) -> Lane {
        Lane::new("test", bw, Duration::ZERO)
    }

    #[test]
    fn model_matches_device_spec_pricing() {
        let spec = DeviceSpec::p100_pcie3();
        let model = TransferModel::for_device(&spec);
        for dir in [CopyDir::DeviceToHost, CopyDir::HostToDevice] {
            assert_eq!(model.time(1 << 30, dir), spec.copy_time(1 << 30, dir));
        }
    }

    #[test]
    fn admissions_queue_fifo() {
        // 1e9 B/s: 1 MB takes 1 ms.
        let mut l = lane(1e9);
        let a = l.admit(Time::ZERO, 1_000_000);
        assert_eq!(a.end, Time::ZERO + Duration::from_millis(1));
        let b = l.admit(Time::ZERO + Duration::from_micros(200), 1_000_000);
        assert_eq!(b.start, a.end);
        assert_eq!(l.busy_time(), Duration::from_millis(2));
    }

    #[test]
    fn charges_are_deduplicated_across_waiters() {
        // Four transfers of 1 ms each, all wanting t = 0. Naive wait
        // accounting would bill 1 + 2 + 3 = 6 ms; the deduplicated charge
        // bills each slice of the busy period once: 1 + 1 + 1 = 3 ms.
        let mut l = lane(1e9);
        let mut total = Duration::ZERO;
        for _ in 0..4 {
            let (_, charge) = l.admit_charged(Time::ZERO, 1_000_000);
            total += charge;
        }
        assert_eq!(total, Duration::from_millis(3));
        assert!(total <= l.busy_time());
    }

    #[test]
    fn charge_never_exceeds_occupancy() {
        let mut l = Lane::new("test", 2e9, Duration::from_micros(3));
        let mut total = Duration::ZERO;
        for i in 0..50u64 {
            // Irregular wants, some in the past relative to the queue.
            let want = Time::from_micros(i * 37 % 211);
            let (_, charge) = l.admit_charged(want, 100_000 + i * 7919);
            total += charge;
        }
        assert!(
            total <= l.busy_time(),
            "charged {total:?} > occupancy {:?}",
            l.busy_time()
        );
    }

    #[test]
    fn idle_time_is_never_billed_as_contention() {
        // One transfer occupies [10 ms, 11 ms). A retroactive want at
        // t = 2 ms queues behind it (start = 11 ms), but the lane was
        // idle over [2 ms, 10 ms) — only the 1 ms inside the busy period
        // is contention.
        let mut l = lane(1e9);
        let first = l.admit(Time::ZERO + Duration::from_millis(10), 1_000_000);
        assert_eq!(first.start, Time::ZERO + Duration::from_millis(10));
        let (tr, charge) = l.admit_charged(Time::ZERO + Duration::from_millis(2), 1_000_000);
        assert_eq!(tr.start, Time::ZERO + Duration::from_millis(11));
        assert_eq!(charge, Duration::from_millis(1));
        assert!(charge <= l.busy_time());
    }

    #[test]
    fn unconstrained_service_never_queues() {
        let mut l = Lane::new("test", f64::INFINITY, Duration::ZERO);
        l.admit(Time::from_micros(10), u64::MAX / 2);
        // An *earlier* want must not queue behind the later zero-duration
        // transfer above.
        let (tr, charge) = l.admit_charged(Time::from_micros(5), 1 << 40);
        assert_eq!(tr.start, Time::from_micros(5));
        assert_eq!(tr.end, Time::from_micros(5));
        assert_eq!(charge, Duration::ZERO);
        assert_eq!(l.transfer_count(), 2);
    }

    #[test]
    fn zero_bytes_are_free_and_uncounted() {
        let mut l = lane(1e9);
        l.admit(Time::ZERO, 1_000_000);
        let free = l.admit(Time::ZERO, 0);
        assert_eq!(free.start, Time::ZERO);
        assert_eq!(free.end, Time::ZERO);
        assert_eq!(l.transfer_count(), 1);
    }

    #[test]
    fn engine_records_the_timeline() {
        let mut te = TransferEngine::for_device(&DeviceSpec::p100_pcie3());
        te.submit(TransferRequest {
            label: "swapout:a".into(),
            bytes: 1 << 20,
            dir: CopyDir::DeviceToHost,
            earliest: Time::ZERO,
            deadline: None,
        });
        te.submit(TransferRequest {
            label: "prefetch:a".into(),
            bytes: 1 << 20,
            dir: CopyDir::HostToDevice,
            earliest: Time::ZERO,
            deadline: Some(Time::from_micros(1)),
        });
        let recs = te.drain_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].link, "copy-out");
        assert_eq!(recs[1].link, "copy-in");
        assert!(recs[1].late(), "1 µs deadline must be missed");
        assert!((recs[0].stretch() - 1.0).abs() < 1e-9);
        assert!(te.drain_records().is_empty(), "drain takes the log");
        // Opposite directions run on independent lanes: both start at 0.
        assert_eq!(recs[0].start, recs[1].start);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = TransferRecord {
            label: "swapin:x".into(),
            link: "copy-in".into(),
            dir: CopyDir::HostToDevice,
            bytes: 42,
            queued: Time::from_micros(1),
            start: Time::from_micros(2),
            end: Time::from_micros(5),
            deadline: None,
        };
        let json = serde_json::to_string(&rec).expect("serialize");
        let back: TransferRecord = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rec);
        assert_eq!(back.wait(), Duration::from_micros(1));
    }
}
