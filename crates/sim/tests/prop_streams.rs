//! Property tests for stream/event semantics: arbitrary enqueue
//! interleavings must preserve FIFO order, busy-time accounting, and
//! cross-stream dependency causality.

use capuchin_sim::{
    CopyDir, DeviceSpec, Duration, Event, Gpu, KernelCost, Stream, StreamKind, Time,
    TransferRequest,
};
use proptest::prelude::*;

proptest! {
    /// FIFO: on one stream, each op starts no earlier than the previous
    /// op's end, and busy_total equals the sum of durations.
    #[test]
    fn stream_fifo_and_accounting(durs in prop::collection::vec(0u64..10_000, 1..100),
                                  deps in prop::collection::vec(0u64..50_000, 1..100)) {
        let mut s = Stream::new(StreamKind::Compute);
        let mut prev_end = Time::ZERO;
        let mut total = Duration::ZERO;
        for (d, dep) in durs.iter().zip(deps.iter()) {
            let enq = s.enqueue(Event::at(Time::from_nanos(*dep)), Duration::from_nanos(*d));
            prop_assert!(enq.start >= prev_end, "FIFO violated");
            prop_assert!(enq.start >= Time::from_nanos(*dep), "dependency violated");
            prop_assert_eq!(enq.end, enq.start + Duration::from_nanos(*d));
            prev_end = enq.end;
            total += Duration::from_nanos(*d);
        }
        prop_assert_eq!(s.busy_total(), total);
        prop_assert_eq!(s.busy_until(), prev_end);
    }

    /// Cross-stream: a copy that depends on a kernel never starts before
    /// the kernel ends, while independent copies overlap freely.
    #[test]
    fn copies_respect_kernel_dependencies(flops in prop::collection::vec(1.0e6f64..1.0e10, 1..30),
                                          bytes in prop::collection::vec(1u64..(64 << 20), 1..30)) {
        let mut gpu = Gpu::new(DeviceSpec::p100_pcie3());
        let mut last_kernel = Event::COMPLETED;
        for (f, b) in flops.iter().zip(bytes.iter()) {
            let k = gpu.launch_kernel("k", KernelCost::compute_bound(*f, 0.5), last_kernel);
            let c = gpu.submit_transfer(TransferRequest {
                label: "c".to_owned(),
                bytes: *b,
                dir: CopyDir::DeviceToHost,
                earliest: k.done.time(),
                deadline: None,
            });
            prop_assert!(c.start >= k.end, "dependent copy started early");
            last_kernel = k.done;
        }
        // The device quiesces at the max of all stream ends.
        let q = gpu.quiescent_at();
        prop_assert!(q >= gpu.compute().busy_until());
        prop_assert!(q >= gpu.copy_out().busy_until());
    }

    /// Transfer time is monotone in size and symmetric per direction.
    #[test]
    fn copy_time_monotone(a in 1u64..(1 << 30), b in 1u64..(1 << 30)) {
        let spec = DeviceSpec::p100_pcie3();
        let (small, large) = (a.min(b), a.max(b));
        for dir in [CopyDir::DeviceToHost, CopyDir::HostToDevice] {
            prop_assert!(spec.copy_time(small, dir) <= spec.copy_time(large, dir));
        }
    }

    /// Kernel durations respect the roofline: duration >= both the pure
    /// compute bound and the pure memory bound.
    #[test]
    fn kernel_roofline_lower_bounds(flops in 0.0f64..1e12, bytes in 0.0f64..1e10,
                                    eff in 0.05f64..1.0) {
        let spec = DeviceSpec::p100_pcie3();
        let cost = KernelCost { flops, bytes, efficiency: eff };
        let d = cost.duration_on(&spec).as_secs_f64();
        let compute = flops / (spec.flops_per_sec * eff);
        let memory = bytes / spec.mem_bw;
        prop_assert!(d + 1e-9 >= compute.max(memory));
    }
}
