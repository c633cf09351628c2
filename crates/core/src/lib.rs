//! # spdkfac-core
//!
//! The paper's contribution, implemented as a reusable library:
//!
//! - [`factors`]: running Kronecker-factor statistics `A_{l-1}`, `G_l`
//!   (Eq. 7/8) with Tikhonov damping (Eq. 12) and SPD inversion.
//! - [`precond`]: gradient preconditioning `G⁻¹ ∇W A⁻¹` (Eq. 11).
//! - [`perf`]: the paper's performance models — α-β collective costs
//!   (Eq. 14/27) and the exponential inversion-cost model (Eq. 26) — plus
//!   least-squares fitters (the Fig. 7/8 methodology).
//! - [`fusion`]: pipelining of factor communication with **dynamic tensor
//!   fusion** (§IV-A, Eq. 15) and the three baselines of Fig. 10.
//! - [`graph`]: the task-graph engine that prices every schedule, the
//!   simulator's and the fusion planner's.
//! - [`iteration`]: **one iteration as a value** — the task graph of
//!   Fig. 1/4 (passes, statistics, fused all-reduces, inversions, CT
//!   broadcasts, preconditioning, update), built once per plan by a pure
//!   function and executed by the [`distributed`] workers and lowered by the
//!   simulator.
//! - [`placement`]: **load-balancing placement** of the `2L` matrix
//!   inversions (Algorithm 1) with CT/NCT classification, plus the
//!   Seq-Dist (Eq. 22) and Non-Dist baselines of Fig. 12.
//! - [`optimizer`]: a single-process [`optimizer::KfacOptimizer`] — the
//!   "one extra line of code" API of §V.
//! - [`calibrate`]: **online cost-model calibration** — measured span
//!   durations re-fit the α-β / exponential models at runtime into a
//!   [`runtime::Costs`] record, with residual and drift metrics.
//! - [`runtime`]: **planning** — one [`runtime::Planner`] whose pure
//!   `plan(&Costs, prev)` makes every [`runtime::PlanEpoch`] of a run (the
//!   starting plan, the first measured one, every re-plan), the `Costs`
//!   record with its agreement encoding (one averaging all-reduce at an
//!   inter-iteration barrier), and the barrier-synchronized
//!   [`runtime::ReplanController`] that swaps the active epoch (SPMD-safe:
//!   collectives are tagged with their plan generation).
//! - [`distributed`]: multi-worker trainers running real collectives:
//!   [`distributed::Algorithm::DKfac`], [`distributed::Algorithm::MpdKfac`]
//!   and [`distributed::Algorithm::SpdKfac`], which produce numerically
//!   identical parameter trajectories (§VI: "our proposed algorithms are
//!   systemic optimizations without affecting the numerical results").
//!
//! # Example: single-process K-FAC
//!
//! ```
//! use spdkfac_core::optimizer::{KfacConfig, KfacOptimizer};
//! use spdkfac_nn::data::gaussian_blobs;
//! use spdkfac_nn::loss::softmax_cross_entropy;
//! use spdkfac_nn::models::mlp;
//!
//! let mut net = mlp(&[4, 16, 3], 1);
//! let mut opt = KfacOptimizer::new(&net, KfacConfig { lr: 0.05, ..KfacConfig::default() });
//! let data = gaussian_blobs(3, 4, 20, 0.3, 2);
//! let (x, y) = data.batch(0, 60);
//! for _ in 0..20 {
//!     let out = net.forward(&x, true);           // capture K-FAC statistics
//!     let (_, grad) = softmax_cross_entropy(&out, &y);
//!     net.backward(&grad);
//!     opt.step(&mut net);                        // precondition + update
//! }
//! ```

pub mod calibrate;
pub mod distributed;
pub mod elastic;
pub mod error;
pub mod factors;
pub mod fusion;
pub mod graph;
pub mod iteration;
pub mod optimizer;
pub mod perf;
pub mod placement;
pub mod precond;
pub mod runtime;

pub use error::KfacError;
pub use fusion::FusionStrategy;
pub use placement::PlacementStrategy;
