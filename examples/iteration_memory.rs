//! Memory probe of a steady training iteration: heap allocations on the
//! rank threads and process minor page faults, per iteration, for each
//! trainer at the benchmark's model and batch.
//!
//! ```text
//! cargo run --release --example iteration_memory
//! ```
//!
//! Per algorithm, 2-rank in-process sessions (each rank on a thread of this
//! program, its collectives on the group's own comm threads) run a warm-up
//! session, then 2 and then 12 iterations; the difference of the two,
//! divided by 10, is what one steady iteration costs — set-up, the first
//! iterations and the teardown cancel. Each cell is the median of five such
//! pairs (the fault count is the noisy one). Allocations are counted on the rank
//! threads only, summed over both ranks; faults are the whole process's
//! (`/proc/self/stat` field 10, `n/a` off Linux). Only the public trainer
//! API is used, so the file compiles unchanged on older commits (EXPERIMENTS
//! "Allocation-free iteration" has both sides).

use spdkfac::collectives::{Backend, CommGroup};
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::AlphaBetaModel;
use spdkfac::core::FusionStrategy;
use spdkfac::nn::data::{gaussian_blobs, Dataset};
use spdkfac::nn::models::deep_mlp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark's ranks, batch and model width (`benchmark/src/catalog.rs`).
const WORLD: usize = 2;
const BATCH: usize = 32;
const HIDDEN: usize = 256;
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

struct Counting;

impl Counting {
    fn note(size: usize) {
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            TALLY[0].fetch_add(u64::from(size >= 4 << 10), Ordering::Relaxed);
            TALLY[1].fetch_add(u64::from(size >= 128 << 10), Ordering::Relaxed);
            TALLY[2].fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the tally is plain
// atomics and a const thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
                    .run(&|| deep_mlp(32, HIDDEN, 4, 10, 1), data, iters, BATCH)
                    .expect("in-process run");
                COUNTED.with(|c| c.set(false));
            });
        }
    });
    let after = TALLY.each_ref().map(|c| c.load(Ordering::SeqCst));
    let faults = minor_faults().zip(faults).map(|(b, a)| b - a);
    (std::array::from_fn(|i| after[i] - before[i]), faults)
}

fn main() {
    // As the benchmark runs: single-threaded kernels.
    std::env::set_var("SPDKFAC_THREADS", "1");
    let data = gaussian_blobs(10, 32, 256, 0.3, 1);
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
        let mut cfg = DistributedConfig::new(WORLD, algorithm);
        cfg.kfac.damping = 0.1;
        cfg.kfac.lr = 0.02;
        cfg.kfac.momentum = 0.0;
        cfg.fusion = FusionStrategy::Optimal;
        cfg.comm_model = AlphaBetaModel::new(1e-4, 64.0 / 0.2e9);
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
