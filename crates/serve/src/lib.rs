//! # capuchin-serve — a streaming scheduler daemon over the online core
//!
//! [`Cluster`](capuchin_cluster::Cluster) became an *online* simulator in
//! this crate's companion refactor: jobs can be submitted, cancelled, and
//! observed while the event clock advances incrementally. This crate puts
//! a process boundary around that API — a long-running daemon speaking
//! line-delimited JSON over TCP (`std::net` only; the build is offline),
//! so external tooling can feed a Capuchin-managed cluster the way
//! TENSILE-style dynamic multi-workload settings assume.
//!
//! One request per line, one JSON object per reply; every wire message
//! carries [`WIRE_SCHEMA_VERSION`]. Operations: `submit`, `cancel`,
//! `status`, `stats`, `subscribe`, `drain`, `shutdown` (see
//! [`protocol`]). `subscribe` streams per-job lifecycle events and the
//! per-tensor transfer timeline through a bounded per-client queue with
//! explicit backpressure: a slow consumer loses stream messages, which
//! are coalesced into a single `{"stream":"dropped","dropped":n}` marker
//! — the scheduler thread never blocks on a socket.
//!
//! Two clocks ([`ClockMode`]):
//!
//! * **virtual** (default) — the simulated clock only advances inside
//!   `drain`, so a fixed submission sequence produces stats JSON
//!   byte-identical to [`Cluster::run`](capuchin_cluster::Cluster::run)
//!   on the same specs. This is what the smoke test pins.
//! * **wall** — the daemon paces the event clock against real elapsed
//!   time, admitting and completing jobs as wall time passes.
//!
//! ```no_run
//! use capuchin_cluster::ClusterConfig;
//! use capuchin_serve::{serve, ClockMode, ServeConfig};
//!
//! let handle = serve(ServeConfig {
//!     cluster: ClusterConfig::builder().gpus(2).build().unwrap(),
//!     clock: ClockMode::Virtual,
//!     addr: "127.0.0.1:0".into(),
//! })
//! .unwrap();
//! println!("listening on {}", handle.addr());
//! handle.wait();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use crate::client::Client;
pub use crate::protocol::WIRE_SCHEMA_VERSION;
pub use crate::server::{serve, ClockMode, ServeConfig, ServerHandle, USAGE};
