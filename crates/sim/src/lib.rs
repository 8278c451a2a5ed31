//! # capuchin-sim — a discrete-event GPU for memory-management research
//!
//! This crate stands in for the physical NVIDIA P100 + CUDA runtime used by
//! the Capuchin paper (Peng et al., ASPLOS 2020). It models exactly the
//! hardware behaviours the paper's experiments depend on:
//!
//! * a single in-order **compute stream** executing kernels,
//! * a unified **transfer layer** ([`TransferEngine`]) with one exclusive
//!   lane per PCIe direction, as pinned-memory DMA holds its direction
//!   exclusively — the same [`Lane`] type also models cluster links,
//! * **events** for cross-stream dependencies (the CUDA event mechanism the
//!   real implementation uses for asynchronous, delayed swaps — paper §5.4),
//! * an analytic roofline **kernel cost model** and one shared PCIe
//!   **transfer model** ([`TransferModel`]).
//!
//! Time advances only when work is enqueued; because durations are known
//! analytically, every enqueue resolves immediately into `(start, end)`
//! times and the whole simulation is deterministic.
//!
//! ## Example
//!
//! ```
//! use capuchin_sim::{CopyDir, DeviceSpec, Event, Gpu, KernelCost, Time, TransferRequest};
//!
//! let mut gpu = Gpu::new(DeviceSpec::p100_pcie3());
//! // A convolution-sized kernel...
//! let conv = gpu.launch_kernel("conv", KernelCost::compute_bound(2.0e10, 0.55), Event::COMPLETED);
//! // ...overlapped with an eviction of a 256 MiB tensor.
//! let swap = gpu.submit_transfer(TransferRequest {
//!     label: "evict".to_owned(),
//!     bytes: 256 << 20,
//!     dir: CopyDir::DeviceToHost,
//!     earliest: Time::ZERO,
//!     deadline: None,
//! });
//! // The next kernel needs the conv output only:
//! let next = gpu.launch_kernel("relu", KernelCost::memory_bound(1.0e8), conv.done);
//! assert!(next.start >= conv.end);
//! assert!(swap.start < conv.end, "swap overlapped with compute");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gpu;
mod interconnect;
mod stream;
mod time;
mod trace;
mod transfer;

pub use gpu::{CopyDir, DeviceSpec, Gpu, KernelCost};
pub use interconnect::{Interconnect, InterconnectSpec};
pub use stream::{Enqueued, Event, Stream, StreamKind};
pub use time::{Duration, Time};
pub use trace::{Trace, TraceEvent, TraceKind};
pub use transfer::{
    wire_time, Lane, LinkStats, Transfer, TransferEngine, TransferModel, TransferRecord,
    TransferRequest,
};
