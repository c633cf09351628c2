//! Memory gate of a training session, in a process of its own (a counting
//! global allocator that also tracks frees): a 2-rank SPD-KFAC session at
//! the benchmark's shape holds, at its live-heap peak, the state its shapes
//! imply and at most [`SLACK`] more — and at zero momentum that state has
//! no velocity (DESIGN §2.6 "Buffers").

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak, reset_peak, CountingAlloc, ALLOCATED};
use spdkfac::collectives::{Backend, CommGroup};
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::FusionStrategy;
use spdkfac::nn::data::{gaussian_blobs, Dataset};
use spdkfac::nn::models::deep_mlp;
use spdkfac::nn::Sequential;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, Once};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The benchmark's ranks, batch, model and data (`benchmark/src/catalog.rs`)
/// and its set-up pass's iterations.
const WORLD: usize = 2;
const BATCH: usize = 32;
const ITERS: usize = 2;

fn model() -> Sequential {
    deep_mlp(32, 256, 4, 10, 1)
}

fn data() -> Dataset {
    gaussian_blobs(10, 32, 256, 0.3, 1)
}

/// What a session holds besides its state, both ranks: the GEMM packs, the
/// Gramian and solve scratch, the layers' activations and deltas, the
/// plans and graphs, the comm threads' queues: 3.0–3.8 MB measured. A
/// velocity (3.3 MB) on top of that fails the gate.
const SLACK: usize = 5_000_000;

/// Sessions measure one at a time: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn config(momentum: f64) -> DistributedConfig {
    // `spd_loopback`'s trainer configuration.
    let mut cfg = DistributedConfig::new(WORLD, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.02;
    cfg.kfac.momentum = momentum;
    cfg.fusion = FusionStrategy::Optimal;
    cfg
}

/// Bytes of the state a session of `cfg` on `net` has to hold, both ranks:
/// parameters, gradients, a velocity with momentum, one `n × n` square
/// per Kronecker factor (the running factor above the diagonal, its `L` on
/// and below it) plus an `n`-vector (the running factor's diagonal), and
/// the factor messages of an iteration, one packed statistic per factor.
/// Gradient messages travel in the gradients, and CT payloads in the
/// buffers of factor messages that have landed.
fn implied_state(cfg: &DistributedConfig, net: &Sequential) -> usize {
    let params = net.num_params();
    let dims = net.kfac_dims().into_iter().flat_map(|(a, g)| [a, g]);
    let packed: usize = dims.clone().map(|d| d * (d + 1) / 2).sum();
    let squares: usize = dims.map(|d| d * d + d).sum();
    let velocity = if cfg.kfac.momentum != 0.0 { params } else { 0 };
    (params + params + velocity + squares + packed) * 8 * WORLD
}

/// One in-process session: its live-heap high-water above what was live
/// when it started, and the bytes it allocated.
fn session(cfg: &DistributedConfig, data: &Dataset) -> (usize, usize) {
    static WARM: Once = Once::new();
    // As the benchmark runs: single-threaded kernels. Process-wide state
    // made on first use (the kernel pool, the flight ring) is not the
    // session's: one warm-up session makes it.
    WARM.call_once(|| {
        std::env::set_var("SPDKFAC_THREADS", "1");
        run(cfg, data);
    });
    let base = reset_peak();
    let allocated = ALLOCATED.load(Ordering::SeqCst);
    run(cfg, data);
    (peak() - base, ALLOCATED.load(Ordering::SeqCst) - allocated)
}

fn run(cfg: &DistributedConfig, data: &Dataset) {
    let endpoints = CommGroup::builder()
        .world_size(WORLD)
        .backend(Backend::Local)
        .build()
        .expect("local group")
        .into_endpoints();
    std::thread::scope(|s| {
        for comm in endpoints {
            s.spawn(move || {
                TrainSession::builder(cfg.clone())
                    .endpoint(comm)
                    .run(&model, data, ITERS, BATCH)
                    .expect("in-process run");
            });
        }
    });
}

#[test]
fn a_session_holds_its_state_and_little_else() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, data) = (config(0.0), data());
    let (high_water, _) = session(&cfg, &data);
    let state = implied_state(&cfg, &model());
    eprintln!("high-water {high_water} B, implied state {state} B");
    assert!(
        high_water <= state + SLACK,
        "a session's live heap peaked at {high_water} B: {} B over its {state} B of state, \
         more than the {SLACK} B allowed",
        high_water - state.min(high_water)
    );
}

#[test]
fn zero_momentum_allocates_no_velocity() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let data = data();
    let velocity = model().num_params() * 8 * WORLD;
    // A plan fixed from the start: what a session allocates then does not
    // depend on measured times.
    let allocated = |momentum| {
        let mut cfg = config(momentum);
        cfg.fusion = FusionStrategy::LayerWise;
        session(&cfg, &data).1
    };
    let (without, with) = (allocated(0.0), allocated(0.9));
    eprintln!("allocated at μ = 0: {without} B, at μ = 0.9: {with} B");
    // Run to run, a session's allocations vary by ≈ 0.2 MB.
    let extra = with as f64 - without as f64;
    assert!(
        (extra - velocity as f64).abs() <= 0.25 * velocity as f64,
        "μ = 0.9 allocates {extra} B more than μ = 0, not one velocity ({velocity} B)"
    );
}
