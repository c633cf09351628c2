//! Memory probe of a training session: what one session holds at its
//! live-heap peak against the state its shapes imply, and what a steady
//! iteration costs in heap allocations and minor page faults, for each
//! trainer at the benchmark's model and batch.
//!
//! ```text
//! cargo run --release --example iteration_memory
//! ```
//!
//! **Session table.** The first thing the program runs is one 2-rank
//! SPD-KFAC session as `kfac-bench`'s `spd_loopback` set-up pass runs it
//! (TCP over 127.0.0.1, 2 iterations, a fresh process: `peak_rss_mb` is
//! that pass's VmHWM). It prints the session's live-heap high-water —
//! every thread's allocations minus its frees, above what was live when
//! the session started (the dataset is the caller's) — beside the state
//! the shapes imply: parameters, gradients, a velocity when the momentum
//! is not 0, the factor squares (each `n × n` square holds a running
//! factor above its diagonal and its `L` on and below it, plus an
//! `n`-vector for the running factor's diagonal) and the factor messages
//! of an iteration, one packed statistic per factor (gradient messages
//! travel in the gradients, CT payloads in the buffers of factor messages
//! that have landed). The difference is what the session holds that is
//! not state.
//!
//! **Iteration table.** Per algorithm, 2-rank in-process sessions (each
//! rank on a thread of this program, its collectives on the group's own
//! comm threads) run a warm-up session, then 2 and then 12 iterations; the
//! difference of the two, divided by 10, is what one steady iteration
//! costs — set-up, the first iterations and the teardown cancel. Each cell
//! is the median of five such pairs (the fault count is the noisy one).
//! Allocations are counted on the rank threads only, summed over both
//! ranks; faults are the whole process's (`/proc/self/stat` field 10, `n/a`
//! off Linux).
//!
//! Only the public trainer API is used, so the file compiles unchanged on
//! older commits (EXPERIMENTS "Allocation-free iteration" and "Session
//! memory" have both sides).

use spdkfac::collectives::tcp::RendezvousServer;
use spdkfac::collectives::{Backend, CommGroup, TcpConfig};
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::AlphaBetaModel;
use spdkfac::core::FusionStrategy;
use spdkfac::nn::data::{gaussian_blobs, Dataset};
use spdkfac::nn::models::deep_mlp;
use spdkfac::nn::Sequential;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The benchmark's ranks, batch and model width (`benchmark/src/catalog.rs`).
const WORLD: usize = 2;
const BATCH: usize = 32;
const HIDDEN: usize = 256;
/// Iterations of the benchmark's set-up pass.
const SETUP_ITERS: usize = 2;
const SHORT: usize = 2;
const LONG: usize = 12;
/// Short/long pairs per algorithm; the table holds their medians.
const REPEATS: usize = 5;

thread_local! {
    /// Set on the rank threads: only their allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// `[>= 4 KiB, >= 128 KiB, bytes]` allocated on the rank threads.
static TALLY: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
/// Bytes allocated and not yet freed, on every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest [`LIVE`] since [`Counting::reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            TALLY[0].fetch_add(u64::from(size >= 4 << 10), Ordering::Relaxed);
            TALLY[1].fetch_add(u64::from(size >= 128 << 10), Ordering::Relaxed);
            TALLY[2].fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Starts a high-water measurement: returns the bytes live now.
    fn reset_peak() -> usize {
        let live = LIVE.load(Ordering::SeqCst);
        PEAK.store(live, Ordering::SeqCst);
        live
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the tally is plain
// atomics and a const thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        Self::grow(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        Self::grow(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        Self::grow(new_size);
        Self::shrink(layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::shrink(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Minor faults of this process so far, when the OS reports them.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces;
    // field 10 (minflt) is the eighth of them.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// What one session cost: `[>= 4 KiB, >= 128 KiB, bytes]` and the faults.
fn session(cfg: &DistributedConfig, data: &Dataset, iters: usize) -> ([u64; 3], Option<u64>) {
    let endpoints = CommGroup::builder()
        .world_size(WORLD)
        .backend(Backend::Local)
        .wire_policy(cfg.wire)
        .build()
        .expect("local group")
        .into_endpoints();
    let before = TALLY.each_ref().map(|c| c.load(Ordering::SeqCst));
    let faults = minor_faults();
    std::thread::scope(|s| {
        for comm in endpoints {
            s.spawn(move || {
                COUNTED.with(|c| c.set(true));
                TrainSession::builder(cfg.clone())
                    .endpoint(comm)
                    .run(&model, data, iters, BATCH)
                    .expect("in-process run");
                COUNTED.with(|c| c.set(false));
            });
        }
    });
    let after = TALLY.each_ref().map(|c| c.load(Ordering::SeqCst));
    let faults = minor_faults().zip(faults).map(|(b, a)| b - a);
    (std::array::from_fn(|i| after[i] - before[i]), faults)
}

fn model() -> Sequential {
    deep_mlp(32, HIDDEN, 4, 10, 1)
}

/// The benchmark's configuration of `algorithm`: `spd_loopback`'s for
/// SPD-KFAC without `comm_model`, the paced f64 workloads' with it.
fn config(algorithm: Algorithm, comm_model: Option<AlphaBetaModel>) -> DistributedConfig {
    let mut cfg = DistributedConfig::new(WORLD, algorithm);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.02;
    cfg.kfac.momentum = 0.0;
    cfg.fusion = FusionStrategy::Optimal;
    if let Some(model) = comm_model {
        cfg.comm_model = model;
    }
    cfg
}

/// Bytes of the state a session of `cfg` on `net` has to hold, both ranks:
/// `[parameters, gradients, velocity, factor squares, messages]`.
fn implied_state(cfg: &DistributedConfig, net: &Sequential) -> [usize; 5] {
    let params = net.num_params();
    let dims = net.kfac_dims().into_iter().flat_map(|(a, g)| [a, g]);
    let packed: usize = dims.clone().map(|d| d * (d + 1) / 2).sum();
    let squares: usize = dims.map(|d| d * d + d).sum();
    let velocity = if cfg.kfac.momentum != 0.0 { params } else { 0 };
    [params, params, velocity, squares, packed].map(|n| n * 8 * WORLD)
}

/// One `spd_loopback` set-up pass: 2 ranks joined over 127.0.0.1.
/// Returns the live-heap high-water above what was live at its start.
fn loopback_session(cfg: &DistributedConfig, data: &Dataset) -> usize {
    let addr = RendezvousServer::spawn("127.0.0.1:0", WORLD)
        .expect("bind rendezvous")
        .to_string();
    let base = Counting::reset_peak();
    std::thread::scope(|s| {
        for rank in 0..WORLD {
            let addr = &addr;
            s.spawn(move || {
                let mut tcp = TcpConfig::new(addr).with_rank(rank);
                tcp.host_rendezvous = false;
                let comm = CommGroup::builder()
                    .world_size(WORLD)
                    .wire_policy(cfg.wire)
                    .backend(Backend::Tcp(tcp))
                    .build()
                    .expect("join")
                    .into_single();
                TrainSession::builder(cfg.clone())
                    .endpoint(comm)
                    .run(&model, data, SETUP_ITERS, BATCH)
                    .expect("loopback run");
            });
        }
    });
    PEAK.load(Ordering::SeqCst) - base
}

fn session_table(data: &Dataset) {
    let cfg = config(Algorithm::SpdKfac, None);
    let high_water = loopback_session(&cfg, data);
    let state = implied_state(&cfg, &model());
    let total: usize = state.iter().sum();
    let mb = |bytes: usize| bytes as f64 / 1e6;
    println!("One 2-rank SPD-KFAC session at the benchmark's shape, both ranks (MB):");
    println!();
    println!("| live-heap high-water | state the shapes imply | not state |");
    println!("|---|---|---|");
    println!(
        "| {:.2} | {:.2} | {:.2} |",
        mb(high_water),
        mb(total),
        mb(high_water) - mb(total)
    );
    println!();
    println!("| state | MB |");
    println!("|---|---|");
    let owners = [
        "parameters",
        "gradients",
        "velocity",
        "factor squares (running factor + `L`)",
        "factor messages (packed statistics)",
    ];
    for (owner, bytes) in owners.iter().zip(state) {
        println!("| {owner} | {:.2} |", mb(bytes));
    }
    println!();
}

fn main() {
    // As the benchmark runs: single-threaded kernels.
    std::env::set_var("SPDKFAC_THREADS", "1");
    let data = gaussian_blobs(10, 32, 256, 0.3, 1);
    session_table(&data);
    println!(
        "| algorithm | allocs >= 4 KiB / iter | allocs >= 128 KiB / iter | MB allocated / iter | minor faults / iter |"
    );
    println!("|---|---|---|---|---|");
    for algorithm in [
        Algorithm::SSgd,
        Algorithm::DKfac,
        Algorithm::MpdKfac,
        Algorithm::SpdKfac,
    ] {
        // The benchmark's paced f64 configuration (`dkfac_slow_net`, …).
        let cfg = config(algorithm, Some(AlphaBetaModel::new(1e-4, 64.0 / 0.2e9)));
        session(&cfg, &data, SHORT);
        let steady = |long: u64, short: u64| (long as f64 - short as f64) / (LONG - SHORT) as f64;
        // Per pair: `[>= 4 KiB, >= 128 KiB, bytes]` and the faults.
        let (mut allocs, mut faults) = (Vec::new(), Vec::new());
        for _ in 0..REPEATS {
            let (short, short_faults) = session(&cfg, &data, SHORT);
            let (long, long_faults) = session(&cfg, &data, LONG);
            allocs.push([0, 1, 2].map(|i| steady(long[i], short[i])));
            faults.push(long_faults.zip(short_faults).map(|(l, s)| steady(l, s)));
        }
        let allocs = [0, 1, 2].map(|i| median(allocs.iter().map(|a| a[i]).collect()));
        let faults = faults
            .into_iter()
            .collect::<Option<Vec<f64>>>()
            .map_or("n/a".into(), |f| format!("{:.1}", median(f)));
        println!(
            "| {algorithm:?} | {:.1} | {:.1} | {:.2} | {faults} |",
            allocs[0],
            allocs[1],
            allocs[2] / 1e6
        );
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}
