//! Fusion-plan probe: which Eq. 15 plans the benchmark's paced SPD-KFAC
//! workloads install, session by session.
//!
//! ```text
//! cargo run --release --example fusion_plans -- [SESSIONS] [WIRE] [GBPS]
//! cargo run --release --example fusion_plans -- 30 f16 0.2   # spd_slow_net_f16
//! cargo run --release --example fusion_plans -- 30 f64 0.2   # spd_slow_net
//! cargo run --release --example fusion_plans -- 30 f64 0     # spd_loopback
//! ```
//!
//! Each session is what one set-up pass of the benchmark runs: a fresh
//! rendezvous, two ranks over TCP loopback (paced at `GBPS` Gbit/s, `0` for
//! the raw link), the benchmark's model, batch and configuration, three
//! iterations, with a recorder attached. The plan is cut from the first
//! iteration's measured times, so it varies from session to session; the
//! probe prints the histogram of rank 0's `fusion/{a,g}/messages` gauges over
//! `SESSIONS` sessions (default 30, `f16`, `0.2`) and the median of the
//! planner's predicted `fusion/g/exposed_tail_s` — the compute it models
//! after the last byte lands (`n/a` where the planner does not publish it).
//! Only the public API is used, so the file compiles unchanged on older
//! commits.

use spdkfac::collectives::tcp::RendezvousServer;
use spdkfac::collectives::{Backend, CommGroup, TcpConfig, WirePolicy, PACE_ENV};
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::AlphaBetaModel;
use spdkfac::core::FusionStrategy;
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;
use spdkfac::obs::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The benchmark's ranks, batch and model width (`benchmark/src/catalog.rs`).
const WORLD: usize = 2;
const BATCH: usize = 32;
const HIDDEN: usize = 256;
const ITERS: usize = 3;

/// The benchmark's configuration of an SPD-KFAC workload.
fn config(wire: WirePolicy, gbps: f64) -> DistributedConfig {
    let mut cfg = DistributedConfig::new(WORLD, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.02;
    cfg.kfac.momentum = 0.0;
    cfg.fusion = FusionStrategy::Optimal;
    cfg.wire = wire;
    if gbps > 0.0 {
        // One f64 element is 64 bits on the paced line, at the factor
        // format's share of its bytes.
        let beta = 64.0 / (gbps * 1e9) * wire.factor.bytes_per_elem() / 8.0;
        cfg.comm_model = AlphaBetaModel::new(1e-4, beta);
    }
    cfg
}

/// One session; returns rank 0's `(A messages, G messages, exposed tail)`.
fn session(cfg: &DistributedConfig, seed: u64) -> (f64, f64, Option<f64>) {
    let addr = RendezvousServer::spawn("127.0.0.1:0", WORLD)
        .expect("rendezvous")
        .to_string();
    let data = gaussian_blobs(10, 32, 256, 0.3, seed);
    let rec = Arc::new(Recorder::with_capacity(2 * WORLD, 4096));
    std::thread::scope(|s| {
        for rank in 0..WORLD {
            let (addr, data, rec) = (&addr, &data, Arc::clone(&rec));
            s.spawn(move || {
                let mut tcp = TcpConfig::new(addr).with_rank(rank);
                tcp.host_rendezvous = false;
                let comm = CommGroup::builder()
                    .world_size(WORLD)
                    .wire_policy(cfg.wire)
                    .backend(Backend::Tcp(tcp))
                    .build()
                    .map(CommGroup::into_single)
                    .expect("join the group");
                TrainSession::builder(cfg.clone())
                    .endpoint(comm)
                    .recorder(rec)
                    .run(&|| deep_mlp(32, HIDDEN, 4, 10, seed), data, ITERS, BATCH)
                    .expect("session");
            });
        }
    });
    let gauges = rec.metrics().snapshot().gauges;
    (
        gauges["fusion/a/messages"],
        gauges["fusion/g/messages"],
        gauges.get("fusion/g/exposed_tail_s").copied(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).cloned().unwrap_or(default.into());
    let sessions: usize = arg(0, "30").parse().expect("SESSIONS is a count");
    let spec = arg(1, "f16");
    let wire = WirePolicy::parse(&spec).expect("WIRE is a wire policy");
    let gbps: f64 = arg(2, "0.2").parse().expect("GBPS is a rate");
    // As the benchmark runs: single-threaded kernels, the pace read once.
    std::env::set_var("SPDKFAC_THREADS", "1");
    if gbps > 0.0 {
        std::env::set_var(PACE_ENV, gbps.to_string());
    } else {
        std::env::remove_var(PACE_ENV);
    }
    let cfg = config(wire, gbps);
    let (mut plans, mut exposed) = (BTreeMap::new(), Vec::new());
    for seed in 1..=sessions as u64 {
        let (a, g, tail) = session(&cfg, seed);
        *plans.entry(format!("{a}/{g}")).or_insert(0) += 1;
        exposed.extend(tail);
    }
    println!("# {sessions} sessions x {ITERS} iterations, wire {spec}, pace {gbps} Gbit/s");
    println!("| A/G messages | sessions |");
    println!("|---|---|");
    for (plan, n) in &plans {
        println!("| {plan} | {n} |");
    }
    exposed.sort_by(f64::total_cmp);
    match exposed.get(exposed.len() / 2) {
        Some(median) => println!(
            "median fusion/g/exposed_tail_s: {:.3} ms over {} sessions",
            median * 1e3,
            exposed.len()
        ),
        None => println!("median fusion/g/exposed_tail_s: n/a"),
    }
}
