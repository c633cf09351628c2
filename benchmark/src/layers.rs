//! Per-layer micro-benchmarks: each layer's public entry points timed
//! from outside, at the shapes the workload model gives them. Every
//! number is the median of at least [`CALLS`] timed calls after warm-up.

use crate::catalog::{build_model, make_dataset, BATCH, HIDDEN, WORKLOADS, WORLD};
use crate::run::{connect, main_span};
use crate::stats::median;
use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::wire::{self, WireFormat};
use spdkfac_collectives::{WirePolicy, WorkerComm};
use spdkfac_core::fusion::{self, FactorPipeline};
use spdkfac_core::optimizer::KfacOptimizer;
use spdkfac_core::placement::{self, LbpWeight};
use spdkfac_core::FusionStrategy;
use spdkfac_nn::loss::softmax_cross_entropy;
use spdkfac_obs::{Phase, Recorder};
use spdkfac_sim::{simulate_iteration, Algo, SimConfig};
use spdkfac_tensor::{chol, Matrix};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed calls per metric.
const CALLS: usize = 30;
/// Untimed calls before them.
const WARMUP: usize = 3;
/// Factor dimension of the workload model's hidden layers (bias column).
const D: usize = HIDDEN + 1;
/// Payload sizes (elements) of the ring metrics and the names they report
/// under.
const RING_SIZES: [(usize, &str, &str); 3] = [
    (
        1 << 10,
        "collectives.allreduce_s.1k",
        "collectives.broadcast_s.1k",
    ),
    (
        1 << 16,
        "collectives.allreduce_s.64k",
        "collectives.broadcast_s.64k",
    ),
    (
        1 << 20,
        "collectives.allreduce_s.1m",
        "collectives.broadcast_s.1m",
    ),
];
/// Elements per codec call: 1 MiB of logical f64 payload.
const CODEC_ELEMS: usize = 1 << 17;
/// Top-k keep ratio, the one `bench_wire` trains with.
const TOPK_RATIO: f64 = 0.25;

type Metrics = Vec<(&'static str, f64)>;

/// Median seconds of `f` over [`CALLS`] calls after [`WARMUP`].
fn time_calls(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(CALLS);
    for i in 0..WARMUP + CALLS {
        let t0 = Instant::now();
        f();
        if i >= WARMUP {
            samples.push(t0.elapsed().as_secs_f64());
        }
    }
    median(&samples)
}

/// A deterministic dense matrix with entries in `[-0.5, 0.5)`.
fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

fn tensor(seed: u64) -> Metrics {
    let (a, b) = (dense(D, D, seed), dense(D, D, seed + 1));
    let gemm = time_calls(|| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    // A batch of gradients against a weight-shaped operand.
    let (x, w) = (dense(BATCH, D, seed + 2), dense(HIDDEN, D, seed + 3));
    let gemm_nt = time_calls(|| {
        black_box(black_box(&x).matmul_nt(black_box(&w)));
    });
    // Factor construction: A = aᵀa over one batch of activations.
    let syrk = time_calls(|| {
        black_box(black_box(&x).gramian());
    });
    let spd = x.gramian().damped(0.1);
    let inverse = time_calls(|| {
        black_box(chol::spd_inverse(black_box(&spd)).expect("damped Gramian is SPD"));
    });
    let d = D as f64;
    vec![
        ("tensor.gemm_gflops", 2.0 * d * d * d / gemm / 1e9),
        (
            "tensor.gemm_nt_gflops",
            2.0 * (BATCH * HIDDEN) as f64 * d / gemm_nt / 1e9,
        ),
        // Useful FLOPs of the symmetric product (upper triangle only).
        (
            "tensor.syrk_gflops",
            BATCH as f64 * d * (d + 1.0) / syrk / 1e9,
        ),
        ("tensor.chol_inverse_s", inverse),
    ]
}

/// One worker, no communication: forward, backward and the K-FAC step of
/// the workload model on one batch — the world-1 floor of an iteration.
fn single_worker(seed: u64) -> Metrics {
    let mut net = build_model(seed);
    let mut opt = KfacOptimizer::new(&net, WORKLOADS[0].config().kfac);
    let (x, y) = make_dataset(seed).batch(0, BATCH);
    let (mut fwd, mut bwd, mut step, mut total) = (vec![], vec![], vec![], vec![]);
    for i in 0..WARMUP + CALLS {
        let t0 = Instant::now();
        let out = net.forward(&x, true);
        let t1 = Instant::now();
        let (_, grad) = softmax_cross_entropy(&out, &y);
        let t2 = Instant::now();
        black_box(net.backward(&grad));
        let t3 = Instant::now();
        opt.step(&mut net).expect("damped factors invert");
        let t4 = Instant::now();
        if i >= WARMUP {
            fwd.push((t1 - t0).as_secs_f64());
            bwd.push((t3 - t2).as_secs_f64());
            step.push((t4 - t3).as_secs_f64());
            total.push((t4 - t0).as_secs_f64());
        }
    }
    vec![
        ("nn.forward_s", median(&fwd)),
        ("nn.backward_s", median(&bwd)),
        ("core.kfac_step_s", median(&step)),
        ("core.single_worker_iter_s", median(&total)),
    ]
}

fn planners(seed: u64) -> Metrics {
    let cfg = WORKLOADS[0].config();
    let dims = build_model(seed).kfac_dims();
    // Ten factors in communication order, one becoming ready per ms.
    let sizes: Vec<usize> = dims
        .iter()
        .flat_map(|&(a, g)| [a * (a + 1) / 2, g * (g + 1) / 2])
        .collect();
    let ready: Vec<f64> = (0..sizes.len()).map(|i| i as f64 * 1e-3).collect();
    let pipe = FactorPipeline::new(ready, sizes).expect("ready times increase");
    // Planner calls take microseconds: time them a hundred at a time.
    const REPEAT: usize = 100;
    let plan = time_calls(|| {
        for _ in 0..REPEAT {
            black_box(fusion::plan(
                black_box(&pipe),
                &cfg.comm_model,
                FusionStrategy::Optimal,
            ));
        }
    });
    let inv_dims: Vec<usize> = dims.iter().flat_map(|&(a, g)| [a, g]).collect();
    let lbp = |world: usize| {
        time_calls(|| {
            for _ in 0..REPEAT {
                black_box(placement::lbp(
                    black_box(&inv_dims),
                    world,
                    &cfg.comp_model,
                    &cfg.comm_model,
                    LbpWeight::default(),
                ));
            }
        }) / REPEAT as f64
    };
    vec![
        ("core.fusion_plan_s", plan / REPEAT as f64),
        ("core.lbp_place_s.w2", lbp(WORLD)),
        ("core.lbp_place_s.w64", lbp(64)),
    ]
}

fn codec(seed: u64) -> Metrics {
    let data = dense(1, CODEC_ELEMS, seed).into_vec();
    let mb = (CODEC_ELEMS * 8) as f64 / 1e6;
    let formats = [
        (
            WireFormat::F32,
            "collectives.encode_s_per_mb.f32",
            "collectives.decode_s_per_mb.f32",
        ),
        (
            WireFormat::F16,
            "collectives.encode_s_per_mb.f16",
            "collectives.decode_s_per_mb.f16",
        ),
        (
            WireFormat::TopK { ratio: TOPK_RATIO },
            "collectives.encode_s_per_mb.topk",
            "collectives.decode_s_per_mb.topk",
        ),
    ];
    let mut out = Metrics::new();
    for (fmt, enc_name, dec_name) in formats {
        let (mut enc, mut dec) = (vec![], vec![]);
        let mut residual = Vec::new();
        for i in 0..WARMUP + CALLS {
            let mut input = data.clone();
            let t0 = Instant::now();
            // Top-k sparsifies upstream of `encode`, on the comm thread;
            // that selection is the expensive half of its encode cost.
            if let WireFormat::TopK { ratio } = fmt {
                wire::sparsify_with_residual(&mut input, ratio, &mut residual);
            }
            let (payload, _) = wire::encode(fmt, input);
            let t1 = Instant::now();
            black_box(wire::decode_ref(black_box(&payload)));
            let t2 = Instant::now();
            if i >= WARMUP {
                enc.push((t1 - t0).as_secs_f64());
                dec.push((t2 - t1).as_secs_f64());
            }
        }
        out.push((enc_name, median(&enc) / mb));
        out.push((dec_name, median(&dec) / mb));
    }
    out
}

/// Forms a 2-rank TCP group and hands each rank's endpoint to `f` on its
/// own thread; returns what the threads return, by rank.
fn with_tcp_group<T: Send>(f: impl Fn(WorkerComm) -> T + Sync) -> Vec<T> {
    let addr = RendezvousServer::spawn("127.0.0.1:0", WORLD)
        .expect("rendezvous binds")
        .to_string();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let (addr, f) = (&addr, &f);
                s.spawn(move || {
                    let comm = connect(addr, rank, WirePolicy::default()).expect("TCP group forms");
                    f(comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// The collective script both ranks execute in lock-step; rank 0's
/// timings are the ones reported.
fn ring_script(comm: WorkerComm) -> Metrics {
    let mut out = Metrics::new();
    let mut fit = Vec::new();
    for (elems, allreduce, broadcast) in RING_SIZES {
        let mut buf = vec![1.0 + comm.rank() as f64; elems];
        let t = time_calls(|| comm.allreduce_avg(&mut buf));
        out.push((allreduce, t));
        fit.push((elems, t));
        // A broadcast returns at the root once the bytes are handed to the
        // socket; sending one each way makes every call wait for the peer
        // to have received the previous one. One way = half the pair.
        let t = time_calls(|| {
            comm.broadcast(&mut buf, 0);
            comm.broadcast(&mut buf, 1);
        });
        out.push((broadcast, t / 2.0));
    }
    // Eq. 14's α + β·m through the smallest and the largest payload. (A
    // least-squares line over all three is pulled below zero at m = 0 by
    // the cache-bound 1m point.)
    let ((m0, t0), (m1, t1)) = (fit[0], fit[fit.len() - 1]);
    let beta = (t1 - t0) / (m1 - m0) as f64;
    out.push(("collectives.allreduce_alpha_s", t0 - beta * m0 as f64));
    out.push(("collectives.allreduce_gbps", 64.0 / beta / 1e9));
    // Submission to completion of the smallest op through the comm thread.
    let t = time_calls(|| {
        black_box(
            comm.allreduce_avg_async(vec![1.0])
                .wait()
                .expect("loopback all-reduce"),
        );
    });
    out.push(("collectives.async_roundtrip_s", t));
    out
}

fn collectives() -> Metrics {
    let mut out = with_tcp_group(ring_script).swap_remove(0);
    // Rendezvous + ring wiring, from binding the server to both endpoints
    // being usable; tearing the group down is not timed.
    let mut samples = Vec::with_capacity(CALLS);
    for i in 0..WARMUP + CALLS {
        let t0 = Instant::now();
        let group = with_tcp_group(|comm| comm);
        if i >= WARMUP {
            samples.push(t0.elapsed().as_secs_f64());
        }
        drop(group);
    }
    out.push(("collectives.connect_s", median(&samples)));
    out
}

fn obs() -> Metrics {
    const SPANS: usize = 10_000;
    let rec = Recorder::with_capacity(1, SPANS);
    let t = time_calls(|| {
        for _ in 0..SPANS {
            drop(black_box(rec.span(0, Phase::FfBp)));
        }
    });
    vec![("obs.span_record_ns", t / SPANS as f64 * 1e9)]
}

fn sim() -> Metrics {
    let (model, cfg) = (spdkfac_models::resnet50(), SimConfig::paper_testbed(64));
    let t = time_calls(|| {
        black_box(simulate_iteration(black_box(&model), &cfg, Algo::SpdKfac));
    });
    vec![("sim.iteration_s", t)]
}

/// Runs every micro-benchmark (pacing must be off) and returns the
/// metrics by name. With `trace`, each group gets a harness span.
pub fn measure(seed: u64, trace: Option<&Arc<Recorder>>) -> Metrics {
    let mut out = Metrics::new();
    let mut group = |label: &'static str, f: &dyn Fn() -> Metrics| {
        let _g = main_span(trace, label);
        out.extend(f());
    };
    group("bench tensor", &|| tensor(seed));
    group("bench nn+core", &|| single_worker(seed));
    group("bench planners", &|| planners(seed));
    group("bench codec", &|| codec(seed));
    group("bench collectives", &collectives);
    group("bench obs", &obs);
    group("bench sim", &sim);
    out
}
