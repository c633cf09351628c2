//! Observability: instrumentation overhead of the recorder on the real
//! trainers.
//!
//! Runs the same SPD-KFAC training twice — a bare `TrainSession` vs one
//! with a recorder attached — several times each, and reports the median
//! wall-clock per iteration. The span path is a handful of `Instant` reads
//! and one uncontended mutex push per span, so the overhead should stay
//! within a few percent (the acceptance bar is 5%).
//!
//! The bare arm attaches no recorder — there is nothing else to switch
//! off: the flight recorder (`spdkfac_obs::flight`) keeps only heartbeat
//! atomics of its own, and everything span-shaped goes through the
//! recorder's lanes exactly once. The instrumented arm must hold one comm
//! span per executed collective and have dropped nothing, or the timing
//! compares less work than it claims.
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin obs_overhead
//! ```

use spdkfac_bench::{header, note};
use spdkfac_core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac_nn::data::gaussian_blobs;
use spdkfac_nn::models::deep_mlp;
use spdkfac_obs::Recorder;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let world = 2;
    let iters = 12;
    let reps = 5;
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 42);
    let build = || deep_mlp(8, 24, 8, 3, 5);

    header("Observability: recorder overhead on real SPD-KFAC training");

    let mut bare = Vec::with_capacity(reps);
    let mut instrumented = Vec::with_capacity(reps);
    let mut dropped = 0u64;
    let (mut comm_spans, mut collectives) = (0u64, 0u64);
    // Interleave the two variants so thermal / scheduler drift hits both.
    for _ in 0..reps {
        let t = Instant::now();
        let _ = TrainSession::builder(cfg.clone())
            .run(&build, &data, iters, 4)
            .expect("local run");
        bare.push(t.elapsed().as_secs_f64());

        let rec = Arc::new(Recorder::new(2 * world));
        let t = Instant::now();
        let run = TrainSession::builder(cfg.clone())
            .recorder(Arc::clone(&rec))
            .run(&build, &data, iters, 4)
            .expect("local run");
        instrumented.push(t.elapsed().as_secs_f64());
        dropped += rec.dropped();
        collectives += run.collective_ops;
        comm_spans += rec.spans().iter().filter(|s| s.meta.seq.is_some()).count() as u64;
    }
    bare.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    instrumented.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let bare_med = bare[reps / 2];
    let inst_med = instrumented[reps / 2];
    let overhead = (inst_med / bare_med - 1.0) * 100.0;

    note(&format!(
        "bare:        median {:.4}s over {reps} reps ({iters} iters, {world} ranks)",
        bare_med
    ));
    note(&format!("instrumented: median {:.4}s", inst_med));
    note(&format!("overhead: {overhead:+.2}% (acceptance bar: 5%)"));
    note(&format!("dropped spans: {dropped} (acceptance bar: 0)"));
    note(&format!(
        "comm spans: {comm_spans} recorded for {collectives} executed collectives (must be equal)"
    ));
    if comm_spans != collectives {
        note("WARNING: the recorder does not hold exactly one span per collective");
        std::process::exit(1);
    }
    if dropped > 0 {
        // A timing comparison against a recorder that silently lost spans
        // measures less work than it claims — treat drops as a failure.
        note("WARNING: recorder dropped spans — the overhead number is not trustworthy");
        std::process::exit(1);
    }
    if overhead > 5.0 {
        note("WARNING: overhead above the 5% bar — investigate before trusting traces");
        std::process::exit(1);
    }
}
