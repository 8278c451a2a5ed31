//! The simulated accelerator device.
//!
//! [`Gpu`] bundles the three hardware queues (compute, copy-out, copy-in)
//! with a [`DeviceSpec`] describing capacity and bandwidths, and converts
//! analytic kernel costs ([`KernelCost`]) and transfer sizes into durations.
//!
//! The default spec models the paper's testbed: an NVIDIA Tesla P100
//! (16 GB HBM2) behind PCIe 3.0 ×16 (§6.1). The paper measures ~12 GB/s of
//! effective pinned-memory bandwidth and notes device-to-host runs slightly
//! faster than host-to-device (§6.2: 25 GB took 1.97 s out, 2.60 s in).

use serde::{Deserialize, Serialize};

use crate::stream::{Enqueued, Event, Stream, StreamKind};
use crate::time::{Duration, Time};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::transfer::{
    Lane, Transfer, TransferEngine, TransferModel, TransferRecord, TransferRequest,
};

/// Direction of a PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopyDir {
    /// Device-to-host (swap-out / eviction).
    DeviceToHost,
    /// Host-to-device (swap-in / prefetch).
    HostToDevice,
}

/// Static description of the simulated device and its interconnect.
///
/// # Examples
///
/// ```
/// use capuchin_sim::DeviceSpec;
///
/// let p100 = DeviceSpec::p100_pcie3();
/// assert_eq!(p100.memory_bytes, 16 * (1 << 30));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// On-board memory capacity in bytes.
    pub memory_bytes: u64,
    /// Peak fp32 throughput in FLOP/s.
    pub flops_per_sec: f64,
    /// On-board memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Effective device-to-host PCIe bandwidth in bytes/s.
    pub pcie_d2h_bw: f64,
    /// Effective host-to-device PCIe bandwidth in bytes/s.
    pub pcie_h2d_bw: f64,
    /// Fixed kernel launch overhead added to every kernel.
    pub launch_overhead: Duration,
    /// Fixed DMA setup latency added to every transfer.
    pub copy_overhead: Duration,
}

impl DeviceSpec {
    /// The paper's evaluation device: Tesla P100 16 GB behind PCIe 3.0 ×16.
    ///
    /// Bandwidth asymmetry follows the paper's §6.2 measurement (25 GB in
    /// 1.97 s out / 2.60 s in ⇒ ≈12.7 GB/s D2H, ≈9.6 GB/s H2D).
    pub fn p100_pcie3() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla P100-PCIE-16GB".to_owned(),
            memory_bytes: 16 * (1 << 30),
            // 9.3 TFLOPS peak fp32.
            flops_per_sec: 9.3e12,
            // 732 GB/s HBM2.
            mem_bw: 732.0e9,
            pcie_d2h_bw: 12.7e9,
            pcie_h2d_bw: 9.6e9,
            launch_overhead: Duration::from_micros(5),
            copy_overhead: Duration::from_micros(10),
        }
    }

    /// A reduced-memory variant, handy for tests that want OOM pressure at
    /// small batch sizes.
    pub fn with_memory(mut self, bytes: u64) -> DeviceSpec {
        self.memory_bytes = bytes;
        self
    }

    /// Time to move `bytes` over PCIe in direction `dir`, including the
    /// DMA setup latency — delegates to the unified [`TransferModel`] so
    /// every consumer prices transfers identically.
    pub fn copy_time(&self, bytes: u64, dir: CopyDir) -> Duration {
        TransferModel::for_device(self).time(bytes, dir)
    }
}

impl Default for DeviceSpec {
    fn default() -> DeviceSpec {
        DeviceSpec::p100_pcie3()
    }
}

/// Analytic cost of one kernel.
///
/// A kernel is modeled roofline-style: its duration is the larger of its
/// compute time (`flops / throughput / efficiency`) and its memory time
/// (`bytes / bandwidth`), plus a fixed launch overhead. `efficiency`
/// captures how far a given operation falls short of peak FLOP/s (e.g.
/// convolutions sustain a much larger fraction of peak than elementwise
/// ops).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read + written from device memory.
    pub bytes: f64,
    /// Fraction of peak FLOP/s this kernel sustains, in `(0, 1]`.
    pub efficiency: f64,
}

impl KernelCost {
    /// A kernel dominated by arithmetic.
    pub fn compute_bound(flops: f64, efficiency: f64) -> KernelCost {
        KernelCost {
            flops,
            bytes: 0.0,
            efficiency,
        }
    }

    /// A kernel dominated by memory traffic.
    pub fn memory_bound(bytes: f64) -> KernelCost {
        KernelCost {
            flops: 0.0,
            bytes,
            efficiency: 1.0,
        }
    }

    /// Duration of this kernel on `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn duration_on(&self, spec: &DeviceSpec) -> Duration {
        assert!(
            self.efficiency > 0.0 && self.efficiency <= 1.0,
            "kernel efficiency must be in (0, 1], got {}",
            self.efficiency
        );
        let compute_s = self.flops / (spec.flops_per_sec * self.efficiency);
        let memory_s = self.bytes / spec.mem_bw;
        spec.launch_overhead + Duration::from_secs_f64(compute_s.max(memory_s))
    }
}

/// The simulated GPU: spec + three streams + optional timeline trace.
///
/// # Examples
///
/// ```
/// use capuchin_sim::{CopyDir, DeviceSpec, Event, Gpu, KernelCost, TransferRequest};
///
/// let mut gpu = Gpu::new(DeviceSpec::p100_pcie3());
/// let k = gpu.launch_kernel("conv", KernelCost::compute_bound(1e9, 0.5), Event::COMPLETED);
/// let c = gpu.submit_transfer(TransferRequest {
///     label: "swap-out".to_owned(),
///     bytes: 1 << 20,
///     dir: CopyDir::DeviceToHost,
///     earliest: k.done.time(),
///     deadline: None,
/// });
/// assert!(c.start >= k.end);
/// ```
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    compute: Stream,
    transfers: TransferEngine,
    trace: Option<Trace>,
}

impl Gpu {
    /// Creates an idle device with the given spec.
    pub fn new(spec: DeviceSpec) -> Gpu {
        let transfers = TransferEngine::for_device(&spec);
        Gpu {
            spec,
            compute: Stream::new(StreamKind::Compute),
            transfers,
            trace: None,
        }
    }

    /// Starts recording a timeline trace of every kernel and copy.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// Stops tracing and returns the recorded timeline, if any.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The compute stream.
    pub fn compute(&self) -> &Stream {
        &self.compute
    }

    /// The copy-out (device-to-host) lane.
    pub fn copy_out(&self) -> &Lane {
        self.transfers.lane(CopyDir::DeviceToHost)
    }

    /// The copy-in (host-to-device) lane.
    pub fn copy_in(&self) -> &Lane {
        self.transfers.lane(CopyDir::HostToDevice)
    }

    /// Instant at which the compute stream and both copy lanes are
    /// drained.
    pub fn quiescent_at(&self) -> Time {
        self.compute.busy_until().max(self.transfers.quiescent_at())
    }

    /// Enqueues a kernel on the compute stream after `after` completes.
    pub fn launch_kernel(&mut self, label: &str, cost: KernelCost, after: Event) -> Enqueued {
        let dur = cost.duration_on(&self.spec);
        let enq = self.compute.enqueue(after, dur);
        self.record(TraceKind::Kernel, StreamKind::Compute, label, enq);
        enq
    }

    /// Enqueues a kernel whose duration was computed externally.
    pub fn launch_kernel_raw(&mut self, label: &str, dur: Duration, after: Event) -> Enqueued {
        let enq = self.compute.enqueue(after, dur);
        self.record(TraceKind::Kernel, StreamKind::Compute, label, enq);
        enq
    }

    /// Submits a typed transfer request to the device's transfer engine.
    ///
    /// Pinned-memory transfers occupy their direction's lane exclusively
    /// (paper §4.4), which the per-direction FIFO [`Lane`] models. The
    /// transfer is recorded both in the kernel/copy trace (when enabled)
    /// and in the unified per-transfer timeline
    /// ([`drain_transfers`](Gpu::drain_transfers)).
    pub fn submit_transfer(&mut self, req: TransferRequest) -> Transfer {
        let (kind, stream_kind) = match req.dir {
            CopyDir::DeviceToHost => (TraceKind::SwapOut, StreamKind::CopyOut),
            CopyDir::HostToDevice => (TraceKind::SwapIn, StreamKind::CopyIn),
        };
        // The label is copied only when a kernel/copy trace wants it.
        let label = self.trace.is_some().then(|| req.label.clone());
        let tr = self.transfers.submit(req);
        if let (Some(trace), Some(label)) = (&mut self.trace, label) {
            trace.push(TraceEvent {
                kind,
                stream: stream_kind,
                label,
                start: tr.start,
                end: tr.end,
            });
        }
        tr
    }

    /// Takes the per-transfer timeline accumulated since the last drain.
    pub fn drain_transfers(&mut self) -> Vec<TransferRecord> {
        self.transfers.drain_records()
    }

    /// Blocks the compute stream until `t` (an explicit synchronization).
    pub fn sync_compute_until(&mut self, t: Time) {
        if t > self.compute.busy_until() {
            let stall_start = self.compute.busy_until();
            self.compute.wait_until(t);
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent {
                    kind: TraceKind::Stall,
                    stream: StreamKind::Compute,
                    label: "sync".to_owned(),
                    start: stall_start,
                    end: t,
                });
            }
        }
    }

    /// Resets the compute stream and both copy lanes to idle and clears
    /// any trace, keeping the spec.
    pub fn reset(&mut self) {
        self.compute.reset();
        self.transfers.reset();
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
    }

    fn record(&mut self, kind: TraceKind, stream: StreamKind, label: &str, enq: Enqueued) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                kind,
                stream,
                label: label.to_owned(),
                start: enq.start,
                end: enq.end,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untimed copy request of `bytes` that may start at `earliest`.
    fn copy(bytes: u64, dir: CopyDir, earliest: Time) -> TransferRequest {
        TransferRequest {
            label: "c".to_owned(),
            bytes,
            dir,
            earliest,
            deadline: None,
        }
    }

    fn small_spec() -> DeviceSpec {
        DeviceSpec {
            name: "test".into(),
            memory_bytes: 1 << 30,
            flops_per_sec: 1e12,
            mem_bw: 1e11,
            pcie_d2h_bw: 1e10,
            pcie_h2d_bw: 1e10,
            launch_overhead: Duration::ZERO,
            copy_overhead: Duration::ZERO,
        }
    }

    #[test]
    fn kernel_roofline_compute_bound() {
        // 1e9 flops at 1e12 flop/s, eff 1.0 => 1 ms.
        let d = KernelCost::compute_bound(1e9, 1.0).duration_on(&small_spec());
        assert_eq!(d, Duration::from_millis(1));
    }

    #[test]
    fn kernel_roofline_memory_bound() {
        // 1e8 bytes at 1e11 B/s => 1 ms, dominating tiny flops.
        let cost = KernelCost {
            flops: 1.0,
            bytes: 1e8,
            efficiency: 1.0,
        };
        assert_eq!(cost.duration_on(&small_spec()), Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_panics() {
        let _ = KernelCost::compute_bound(1.0, 0.0).duration_on(&small_spec());
    }

    #[test]
    fn copy_time_uses_direction_bandwidth() {
        let spec = DeviceSpec::p100_pcie3();
        let out = spec.copy_time(1 << 30, CopyDir::DeviceToHost);
        let inn = spec.copy_time(1 << 30, CopyDir::HostToDevice);
        assert!(out < inn, "D2H should be faster than H2D on this spec");
    }

    #[test]
    fn copies_overlap_compute() {
        let mut gpu = Gpu::new(small_spec());
        let k = gpu.launch_kernel("k", KernelCost::compute_bound(1e9, 1.0), Event::COMPLETED);
        // Independent copy starts immediately, overlapping the kernel.
        let c = gpu.submit_transfer(copy(10_000_000, CopyDir::DeviceToHost, Time::ZERO));
        assert_eq!(c.start, Time::ZERO);
        assert_eq!(k.start, Time::ZERO);
        assert_eq!(gpu.quiescent_at(), k.end.max(c.end));
    }

    #[test]
    fn dependent_copy_waits_for_kernel() {
        let mut gpu = Gpu::new(small_spec());
        let k = gpu.launch_kernel("k", KernelCost::compute_bound(1e9, 1.0), Event::COMPLETED);
        let c = gpu.submit_transfer(copy(1, CopyDir::DeviceToHost, k.done.time()));
        assert_eq!(c.start, k.end);
    }

    #[test]
    fn trace_records_all_ops() {
        let mut gpu = Gpu::new(small_spec());
        gpu.enable_trace();
        gpu.launch_kernel("k", KernelCost::compute_bound(1e6, 1.0), Event::COMPLETED);
        gpu.submit_transfer(copy(1024, CopyDir::HostToDevice, Time::ZERO));
        let trace = gpu.take_trace().expect("trace enabled");
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.events()[0].kind, TraceKind::Kernel);
        assert_eq!(trace.events()[1].kind, TraceKind::SwapIn);
    }

    #[test]
    fn sync_compute_records_stall() {
        let mut gpu = Gpu::new(small_spec());
        gpu.enable_trace();
        gpu.sync_compute_until(Time::from_micros(42));
        assert_eq!(gpu.compute().busy_until(), Time::from_micros(42));
        let trace = gpu.take_trace().unwrap();
        assert_eq!(trace.events()[0].kind, TraceKind::Stall);
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut gpu = Gpu::new(small_spec());
        gpu.launch_kernel("k", KernelCost::compute_bound(1e9, 1.0), Event::COMPLETED);
        gpu.reset();
        assert_eq!(gpu.quiescent_at(), Time::ZERO);
    }
}
