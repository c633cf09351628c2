//! Cross-crate integration of the TCP ring backend with the real trainers:
//! an SPD-KFAC run whose ranks are connected by 127.0.0.1 sockets produces
//! the same per-iteration losses as the in-process run (< 1e-12), and the
//! observability pipeline — spans, causal matching, critical-path
//! attribution — works unchanged on the TCP run's spans.
//!
//! Each rank runs an endpoint-mode `TrainSession` on its own thread over its own socket
//! pair, which is exactly the code path `spdkfac_node` executes per
//! process; only the rendezvous host differs (the test, not rank 0).
//!
//! Also here, because tier-1 runs this crate's tests: messages far larger
//! than the socket buffers cross the TCP ring and match the in-process
//! backend bit for bit.

mod common;

use spdkfac::collectives::tcp::RendezvousServer;
use spdkfac::collectives::{Backend, CommGroup, TcpConfig, WirePolicy, WorkerComm};
use spdkfac::core::distributed::{Algorithm, DistributedConfig, RunResult, TrainSession};
use spdkfac::nn::data::{gaussian_blobs, Dataset};
use spdkfac::nn::models::deep_mlp;
use spdkfac::obs::{CriticalReport, Recorder, TrackLayout};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ITERS: usize = 6;
const BATCH: usize = 4;

/// The deterministic workload the observability suite uses, so results are
/// comparable across the test corpus.
fn workload(world: usize) -> (DistributedConfig, Dataset) {
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    (cfg, gaussian_blobs(3, 8, 8 * world, 0.3, 42))
}

/// Runs `world` TCP ranks (threads over loopback sockets) through the full
/// SPD-KFAC training loop; returns rank 0's result, the recorder, and the
/// wall time of the training section.
fn train_over_tcp(world: usize, rec: Option<&Arc<Recorder>>) -> (RunResult, f64) {
    let addr = RendezvousServer::spawn("127.0.0.1:0", world)
        .expect("bind rendezvous")
        .to_string();
    let (cfg, data) = workload(world);
    let mut rank0: Option<RunResult> = None;
    let t0 = Instant::now();
    let mut wall = 0.0;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for rank in 0..world {
            let addr = addr.clone();
            let cfg = cfg.clone();
            let data = &data;
            let rec = rec.map(Arc::clone);
            handles.push(s.spawn(move || {
                let mut tcp = TcpConfig::new(addr).with_rank(rank);
                tcp.host_rendezvous = false; // the test hosts it
                let comm = CommGroup::builder()
                    .world_size(world)
                    .backend(Backend::Tcp(tcp))
                    .build()
                    .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"))
                    .into_single();
                let mut session = TrainSession::builder(cfg.clone()).endpoint(comm);
                if let Some(r) = rec {
                    session = session.recorder(r);
                }
                session
                    .run(&|| deep_mlp(8, 24, 8, 3, 5), data, ITERS, BATCH)
                    .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            let r = h.join().expect("tcp rank panicked");
            if rank == 0 {
                rank0 = Some(r);
            }
        }
        wall = t0.elapsed().as_secs_f64();
    });
    (rank0.expect("rank 0 result"), wall)
}

#[test]
fn tcp_run_matches_in_process_losses() {
    // Acceptance: a 4-rank SPD-KFAC run over TCP sockets and the 4-thread
    // in-process run produce identical per-iteration losses (< 1e-12 —
    // in practice the difference is fp-reordering noise at machine
    // epsilon, since the ring hop sequence is identical).
    let world = 4;
    let (tcp_result, _) = train_over_tcp(world, None);
    let (cfg, data) = workload(world);
    let local = TrainSession::builder(cfg)
        .run(&|| deep_mlp(8, 24, 8, 3, 5), &data, ITERS, BATCH)
        .expect("local run");
    assert_eq!(tcp_result.losses.len(), local.losses.len());
    for (i, (t, l)) in tcp_result.losses.iter().zip(&local.losses).enumerate() {
        assert!(
            (t - l).abs() < 1e-12,
            "iteration {i}: tcp loss {t:.17e} vs local {l:.17e}"
        );
    }
    // The runs moved real data: the final parameters exist and traffic was
    // counted on the TCP side too (per-process counters).
    assert!(!tcp_result.final_params.is_empty());
    assert!(tcp_result.traffic_elements > 0);
}

#[test]
fn critical_path_analyzer_covers_tcp_run() {
    // Acceptance: the obs critical-path analyzer works unchanged on spans
    // recorded from a TCP-backed run — the phase/seq/generation stamping
    // that lets it match the k-th collective across ranks is backend
    // independent — and attributes ≥ 95% of the training wall time.
    let world = 4;
    let rec = Arc::new(Recorder::new(2 * world));
    let (_, wall) = train_over_tcp(world, Some(&rec));
    let spans = rec.spans();
    assert!(!spans.is_empty(), "no spans recorded over TCP");
    let report = CriticalReport::from_spans(&spans, &TrackLayout::trainer(world));
    let span_wall = report.wall();
    assert!(span_wall > 0.0);
    assert!(
        span_wall <= wall,
        "span window {span_wall:.6}s exceeds measured wall {wall:.6}s"
    );
    assert_eq!(report.ranks.len(), world);
    assert!(
        report.path_total() >= 0.95 * span_wall,
        "critical path covers {:.6}s of {span_wall:.6}s",
        report.path_total()
    );
    assert!(
        report.num_groups > 0,
        "no cross-rank collective groups matched"
    );
    // Every rank's attribution partitions the window, as on the local
    // backend.
    for r in &report.ranks {
        assert!(
            (r.total() - span_wall).abs() <= 0.05 * span_wall,
            "rank {}: categories sum {:.6}s vs wall {span_wall:.6}s",
            r.rank,
            r.total()
        );
    }
}

/// Runs `op` on every rank of a `world`-rank group — over TCP with 5 s
/// frame timeouts, or in process — and returns the per-rank outputs.
fn large_message_run(
    world: usize,
    over_tcp: bool,
    op: impl Fn(&WorkerComm, Vec<f64>) -> Vec<f64> + Sync,
) -> Vec<Vec<f64>> {
    /// 4M doubles: a 16 MB chunk per direction on two ranks, far beyond
    /// what a socket pair buffers.
    const ELEMS: usize = 4 << 20;
    let short_timeouts = |tcp: &mut TcpConfig| {
        tcp.read_timeout = Some(Duration::from_secs(5));
        tcp.write_timeout = Some(Duration::from_secs(5));
    };
    common::spmd(
        world,
        over_tcp,
        WirePolicy::default(),
        short_timeouts,
        |comm| {
            let data = (0..ELEMS)
                .map(|i| ((i * 2_654_435_761 + comm.rank() * 97) % 1_000_003) as f64 * 1e-3 - 500.0)
                .collect();
            op(comm, data)
        },
    )
}

fn assert_bits_equal(tcp: &[Vec<f64>], local: &[Vec<f64>]) {
    assert_eq!(tcp.len(), local.len());
    for (rank, (t, l)) in tcp.iter().zip(local).enumerate() {
        assert_eq!(t.len(), l.len(), "rank {rank}");
        if let Some(i) = (0..t.len()).find(|&i| t[i].to_bits() != l[i].to_bits()) {
            panic!(
                "rank {rank} element {i}: tcp {:e} vs local {:e}",
                t[i], l[i]
            );
        }
    }
}

#[test]
fn large_allreduce_crosses_tcp_without_deadlock() {
    // Regression: with send-everything-then-receive hops both ranks of a
    // 2-rank ring blocked in `write_all` once a chunk outgrew the socket
    // buffers (2M doubles already did) and died on the write timeout.
    let op = |comm: &WorkerComm, data: Vec<f64>| {
        comm.allreduce_sum_async(data)
            .wait()
            .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()))
    };
    let tcp = large_message_run(2, true, op);
    let local = large_message_run(2, false, op);
    assert_bits_equal(&tcp, &local);
    assert_eq!(tcp[0], tcp[1]);
}

#[test]
fn large_broadcast_crosses_a_three_rank_tcp_ring() {
    let op = |comm: &WorkerComm, mut data: Vec<f64>| {
        if comm.rank() != 1 {
            data.fill(0.0);
        }
        comm.broadcast_async(data, 1)
            .wait()
            .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()))
    };
    let tcp = large_message_run(3, true, op);
    let local = large_message_run(3, false, op);
    assert_bits_equal(&tcp, &local);
    assert_eq!(tcp[0], tcp[1]);
    assert_eq!(tcp[0], tcp[2]);
}
