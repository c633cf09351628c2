//! # spdkfac-sim
//!
//! A discrete-event simulator of the paper's 64-GPU testbed (Table I):
//! RTX 2080 Ti nodes on 100 Gb/s InfiniBand running PyTorch + Horovod.
//!
//! The simulator is the substitution for the hardware gate (DESIGN.md §1):
//! every wall-clock experiment in the paper (Fig. 2, Table III, Fig. 9–13)
//! is regenerated by lowering the *real* iteration graph
//! ([`spdkfac_core::iteration`]) of the *real* fusion plans
//! ([`spdkfac_core::fusion`]) and placements ([`spdkfac_core::placement`])
//! onto a simulated cluster whose cost models are exactly the ones the
//! paper itself fits and publishes:
//!
//! - per-layer compute times from FLOPs ÷ effective throughput,
//! - all-reduce / broadcast times from the α-β model (Eq. 14 / Eq. 27),
//! - matrix-inversion times from the exponential model (Eq. 26).
//!
//! ## Execution model
//!
//! - One **compute stream** per GPU: tasks execute in issue order
//!   (CUDA-stream semantics).
//! - One shared **network resource**: collectives execute in issue order and
//!   never overlap each other, but freely overlap compute — the
//!   Horovod single-background-thread model (DESIGN.md §4).
//! - Data-parallel symmetry: the symmetric phases (forward, backward,
//!   factor computation) are scheduled once on a representative stream;
//!   the inverse phase, where the placement makes GPUs genuinely differ,
//!   is scheduled per GPU.
//!
//! # Example
//!
//! ```
//! use spdkfac_sim::{simulate_iteration, Algo, SimConfig};
//! use spdkfac_models::resnet50;
//!
//! let cfg = SimConfig::paper_testbed(64);
//! let spd = simulate_iteration(&resnet50(), &cfg, Algo::SpdKfac);
//! let d = simulate_iteration(&resnet50(), &cfg, Algo::DKfac);
//! assert!(spd.total < d.total); // Table III: SP₁ > 1
//! ```

pub mod hardware;
pub mod net;
pub mod report;
pub mod sched;
pub mod schedule;
pub mod trace;

pub use hardware::HardwareProfile;
pub use net::{HierSpec, HierarchicalModel, NetTopology, NetworkModel, SerializedQueue};
pub use report::{Breakdown, SimReport};
pub use sched::{policy_registry, HeftPolicy, MemoryAwarePolicy, TopologyAwarePolicy};
pub use schedule::{
    simulate_amortized_iteration, simulate_drift_replay, simulate_graph, simulate_inverse_phase,
    simulate_iteration, simulate_iteration_planned, Algo, DriftReplay, FactorCommMode,
    GradFusionMode, SimConfig,
};
pub use trace::to_chrome_trace;
