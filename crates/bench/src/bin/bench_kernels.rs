//! Kernel throughput: the level-3 core vs the serial seed kernels.
//!
//! Times GEMM, SYRK (`XᵀX`) and the blocked Cholesky SPD inverse at
//! K-FAC-relevant dimensions against their oracles (`matmul_reference`,
//! `gramian_reference`, `cholesky_unblocked` + `inverse_unblocked`, called
//! directly), plus one full real 4-rank SPD-KFAC trainer iteration.
//! Results go to `BENCH_kernels.json` at the repo root, self-validated
//! through the shared JSON checker.
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin bench_kernels            # full sweep
//! cargo run --release -p spdkfac-bench --bin bench_kernels -- --smoke # CI schema check
//! cargo run --release -p spdkfac-bench --bin bench_kernels -- --out /tmp/k.json
//! ```

use spdkfac_bench::{header, note};
use spdkfac_core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac_nn::data::gaussian_blobs;
use spdkfac_nn::models::deep_mlp;
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::{chol, gemm, pool, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Largest dimension at which the serial reference is still timed; above
/// this only the optimized kernels run (the reference would dominate the
/// bench's wall-clock without adding information).
const MAX_REFERENCE_DIM: usize = 1024;

struct KernelRow {
    kernel: &'static str,
    dim: usize,
    reps: usize,
    optimized_s: f64,
    reference_s: Option<f64>,
}

impl KernelRow {
    fn speedup(&self) -> Option<f64> {
        self.reference_s.map(|r| r / self.optimized_s)
    }
}

/// Best-of-`reps` wall time of `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn reps_for(dim: usize) -> usize {
    match dim {
        0..=256 => 5,
        257..=1024 => 3,
        _ => 1,
    }
}

/// Times one kernel and (size permitting) its oracle.
fn bench_pair(
    kernel: &'static str,
    dim: usize,
    optimized: impl FnMut(),
    reference: impl FnMut(),
) -> KernelRow {
    let reps = reps_for(dim);
    let optimized_s = best_of(reps, optimized);
    let reference_s = (dim <= MAX_REFERENCE_DIM).then(|| best_of(reps, reference));
    KernelRow {
        kernel,
        dim,
        reps,
        optimized_s,
        reference_s,
    }
}

fn bench_kernels(dims: &[usize]) -> Vec<KernelRow> {
    let mut rng = MatrixRng::new(7);
    let mut rows = Vec::new();
    for &d in dims {
        let a = rng.uniform_matrix(d, d, -1.0, 1.0);
        let b = rng.uniform_matrix(d, d, -1.0, 1.0);
        rows.push(bench_pair(
            "gemm",
            d,
            || {
                black_box(black_box(&a).matmul(black_box(&b)));
            },
            || {
                black_box(gemm::matmul_reference(d, d, d, a.as_slice(), b.as_slice()));
            },
        ));
        note(&row_line(rows.last().expect("row")));

        // SYRK input: 2d × d activation-style matrix.
        let x = rng.uniform_matrix(2 * d, d, -1.0, 1.0);
        rows.push(bench_pair(
            "syrk",
            d,
            || {
                black_box(black_box(&x).gramian());
            },
            || {
                black_box(gemm::gramian_reference(2 * d, d, x.as_slice()));
            },
        ));
        note(&row_line(rows.last().expect("row")));

        let spd = x.gramian_scaled(2.0 * d as f64).damped(0.5);
        let unblocked = |a: &Matrix| chol::cholesky_unblocked(a).map(|ch| ch.inverse_unblocked());
        rows.push(bench_pair(
            "cholesky_inverse",
            d,
            || {
                black_box(chol::spd_inverse(black_box(&spd)).expect("SPD"));
            },
            || {
                black_box(unblocked(black_box(&spd)).expect("SPD"));
            },
        ));
        note(&row_line(rows.last().expect("row")));
    }
    rows
}

/// Per-iteration wall time of the real multi-threaded SPD-KFAC trainer.
fn trainer_seconds_per_iter(world: usize, hidden: usize, depth: usize, iters: usize) -> f64 {
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.01;
    cfg.kfac.inv_update_freq = 1; // invert every iteration: the timed config
    let d_in = hidden / 2;
    let data = gaussian_blobs(4, d_in, 16 * world, 0.3, 42);
    let build = move || deep_mlp(d_in, hidden, depth, 4, 5);
    let t = Instant::now();
    let _ = black_box(
        TrainSession::builder(cfg)
            .run(&build, &data, iters, 16)
            .expect("local run"),
    );
    t.elapsed().as_secs_f64() / iters as f64
}

fn row_line(r: &KernelRow) -> String {
    match (r.reference_s, r.speedup()) {
        (Some(rs), Some(sp)) => format!(
            "{:<17} d={:<5} optimized {:>9.6}s  reference {:>9.6}s  speedup {:>5.2}x",
            r.kernel, r.dim, r.optimized_s, rs, sp
        ),
        _ => format!(
            "{:<17} d={:<5} optimized {:>9.6}s  (reference skipped above d={MAX_REFERENCE_DIM})",
            r.kernel, r.dim, r.optimized_s
        ),
    }
}

fn json_f64(v: f64) -> String {
    // JSON forbids NaN/Inf; clamp to null (never expected here).
    if v.is_finite() {
        format!("{v:.9}")
    } else {
        "null".into()
    }
}

fn render_json(
    smoke: bool,
    rows: &[KernelRow],
    world: usize,
    trainer_iters: usize,
    optimized_iter_s: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"spdkfac-bench-kernels-v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"threads\": {},\n", pool::threads()));
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let refs = r.reference_s.map_or("null".to_string(), json_f64);
        let speedup = r.speedup().map_or("null".to_string(), json_f64);
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"dim\": {}, \"reps\": {}, \"optimized_s\": {}, \"reference_s\": {}, \"speedup\": {}}}{}\n",
            r.kernel,
            r.dim,
            r.reps,
            json_f64(r.optimized_s),
            refs,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"trainer\": {{\"algo\": \"spdkfac\", \"world\": {}, \"iters\": {}, \"optimized_s_per_iter\": {}}}\n",
        world,
        trainer_iters,
        json_f64(optimized_iter_s)
    ));
    out.push('}');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR")));

    let dims: &[usize] = if smoke {
        &[8, 32]
    } else {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    };
    header(&format!(
        "Kernel throughput (pool threads = {}, {} mode)",
        pool::threads(),
        if smoke { "smoke" } else { "full" }
    ));
    let rows = bench_kernels(dims);

    let (world, hidden, depth, iters) = if smoke { (2, 16, 2, 1) } else { (4, 256, 6, 3) };
    header(&format!(
        "Real {world}-rank SPD-KFAC trainer, {iters} iteration(s)"
    ));
    let optimized_iter_s = trainer_seconds_per_iter(world, hidden, depth, iters);
    note(&format!("{optimized_iter_s:.4}s/iter"));

    let json = render_json(smoke, &rows, world, iters, optimized_iter_s);
    if let Err(e) = spdkfac_obs::validate_json(&json) {
        eprintln!("bench_kernels: generated invalid JSON: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).expect("failed to write BENCH_kernels.json");
    note(&format!("wrote {} bytes to {out_path}", json.len()));
}
