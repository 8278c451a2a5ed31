//! # capuchin — tensor-based GPU memory management
//!
//! Reproduction of the core contribution of *"Capuchin: Tensor-based GPU
//! Memory Management for Deep Learning"* (Peng et al., ASPLOS 2020): a
//! memory manager that reduces the training footprint via tensor
//! eviction/prefetching and recomputation, driven entirely by the dynamic
//! tensor access pattern observed at runtime — no computation-graph
//! analysis, no layer-type heuristics.
//!
//! The pieces:
//!
//! * [`MeasuredProfile`] — the Tensor Access Tracker's record of one
//!   passive-mode iteration (ideal timestamps, lineage, memory profile);
//! * [`make_plan`] — the Policy Maker: Free-Time-ranked swap selection,
//!   then the hybrid swap/recompute phase with Memory-Saving-Per-Second
//!   bookkeeping (Algorithms 1 and 2);
//! * [`Capuchin`] — the [`MemoryPolicy`](capuchin_executor::MemoryPolicy)
//!   implementation orchestrating passive → measured → guided execution
//!   with feedback-driven refinement.
//!
//! ```
//! use capuchin::{Capuchin, CapuchinConfig};
//!
//! // Swap-only and recompute-only variants power the paper's Fig. 8
//! // breakdowns; the default enables the full hybrid policy.
//! let full = Capuchin::new();
//! let swap_only = Capuchin::with_config(CapuchinConfig::swap_only());
//! assert_eq!(full.plan().len(), 0); // no plan before measured execution
//! # let _ = (swap_only,);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capuchin;
mod footprint;
mod measure;
mod plan;
mod planner;

pub use crate::capuchin::{Capuchin, CapuchinConfig};
pub use crate::footprint::{
    bisect_batch, elastic_batches, measure_footprint, measure_forward_footprint,
    min_feasible_budget, shrink_feasibility, FootprintEstimate, ShrinkPlan,
};
pub use crate::measure::{MeasuredAccess, MeasuredProfile, TensorInfo};
pub use crate::plan::{EvictMethod, Plan, SwapEntry};
pub use crate::planner::{make_plan, PlannerConfig};
