//! Observability: a measured iteration and the simulator's prediction of
//! the *same schedule*, side by side.
//!
//! Runs the real multi-threaded trainers (D-KFAC and SPD-KFAC) under a
//! [`Recorder`] and builds the measured [`IterationBreakdown`] from the
//! spans. The simulated rows come from [`simulate_graph`] on the iteration
//! graph those runs executed — same layer shapes, same plan, the trainer's
//! `DataDeps` dependencies — so both columns describe one schedule, are
//! literally the same type, and come out of the same attribution code. The
//! graph's collectives are printed beside the ones rank 0's comm thread
//! recorded. Also exports the measured SPD-KFAC timeline as Chrome-trace
//! JSON through the one shared serializer.
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin obs_real_vs_sim -- 4 /tmp/real.json
//! ```

use spdkfac_bench::{header, note};
use spdkfac_core::distributed::{iteration_graph, Algorithm, DistributedConfig, TrainSession};
use spdkfac_core::iteration::IterationGraph;
use spdkfac_core::runtime::{Costs, Planner};
use spdkfac_core::FusionStrategy;
use spdkfac_models::{LayerSpec, ModelProfile};
use spdkfac_nn::data::gaussian_blobs;
use spdkfac_nn::models::deep_mlp;
use spdkfac_nn::Sequential;
use spdkfac_obs::summary::render_summary;
use spdkfac_obs::{chrome_trace, IterationBreakdown, Recorder, TrackLayout};
use spdkfac_sim::{simulate_graph, SimConfig};
use std::sync::Arc;

const ITERS: usize = 8;
const BATCH: usize = 4;

fn build() -> Sequential {
    deep_mlp(8, 24, 8, 3, 5)
}

fn config(world: usize, algorithm: Algorithm) -> DistributedConfig {
    let mut cfg = DistributedConfig::new(world, algorithm);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    // One message per factor: the plan the run agrees on after its first
    // iteration is then the one it starts with, whatever it measures, so
    // the executed graph is known here without instrumenting the run.
    cfg.fusion = FusionStrategy::LayerWise;
    cfg
}

fn real_breakdown(cfg: &DistributedConfig) -> (Arc<Recorder>, IterationBreakdown) {
    let world = cfg.world;
    let rec = Arc::new(Recorder::new(2 * world));
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 42);
    let _ = TrainSession::builder(cfg.clone())
        .recorder(Arc::clone(&rec))
        .run(&build, &data, ITERS, BATCH)
        .expect("local run");
    let mut b = IterationBreakdown::from_recorder(&rec, world);
    b.scale(1.0 / ITERS as f64); // per-iteration average
    (rec, b)
}

/// Prints the graph's collectives beside what rank 0's comm thread
/// recorded in the run's last iteration.
fn print_collectives(name: &str, graph: &IterationGraph, rec: &Recorder, world: usize) {
    let planned = graph.collectives();
    let spans = rec.spans();
    let mut recorded: Vec<_> = spans
        .iter()
        .filter(|s| s.track == world && s.phase.is_comm())
        .collect();
    recorded.sort_by_key(|s| s.meta.seq);
    assert_eq!(recorded.len(), ITERS * planned.len(), "{name}: op count");
    let last = recorded[(ITERS - 1) * planned.len()..].iter();
    let comm = "a comm span carries its edge and size";
    let last: Vec<_> = last
        .map(|s| (s.phase, s.meta.edge.expect(comm), s.meta.size.expect(comm)))
        .collect();
    for (k, (planned, recorded)) in planned.iter().zip(&last).enumerate() {
        let ((phase, edge, elems), (r_phase, r_edge, r_elems)) = (planned, recorded);
        println!("{name},{k},{phase},{edge:?},{elems},{r_phase},{r_edge:?},{r_elems}");
    }
    assert_eq!(planned, last, "{name}: the graph vs the comm thread");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let world: usize = args
        .next()
        .map(|s| s.parse().expect("world must be an integer"))
        .unwrap_or(4);
    let trace_path = args.next();
    assert!(world >= 1, "world must be at least 1, got {world}");

    header(&format!(
        "Observability: measured ({world}-rank real trainers, per-iteration avg) vs the same schedule simulated"
    ));

    let net = build();
    let specs = net.kfac_dims().into_iter().enumerate();
    let specs = specs.map(|(i, (a, g))| LayerSpec::linear(format!("fc{i}"), a, g));
    let model = ModelProfile::new("deep_mlp", specs.collect(), BATCH);
    let sim_cfg = SimConfig::paper_testbed(world);

    println!("source,algo,{}", IterationBreakdown::csv_header());
    let mut runs = Vec::new();
    for (name, algorithm) in [("dkfac", Algorithm::DKfac), ("spdkfac", Algorithm::SpdKfac)] {
        let cfg = config(world, algorithm);
        let (rec, real) = real_breakdown(&cfg);
        println!("measured,{name},{}", real.csv_row());
        // What every iteration of that run executed (inverses are
        // refreshed each iteration).
        let plan = Planner::new(&cfg, &net.kfac_dims(), world).plan(&Costs::default(), None);
        let graph = iteration_graph(&cfg, &net, &plan, true);
        let sim = simulate_graph(&graph, &model, &sim_cfg);
        println!("simulated,{name},{}", sim.breakdown.csv_row());
        runs.push((name, graph, rec, real));
    }
    note(
        "absolute times are not comparable: the simulated rows price the schedule with the \
         paper's GPU-testbed models, the measured rows ran it on this CPU",
    );
    let (d_real, s_real) = (&runs[0].3, &runs[1].3);
    note(&format!(
        "measured exposed comm: dkfac {:.6}s vs spdkfac {:.6}s per iteration",
        d_real.exposed_comm(),
        s_real.exposed_comm()
    ));
    note(&format!(
        "measured factor_comm (non-overlapped): dkfac {:.6}s vs spdkfac {:.6}s",
        d_real.factor_comm, s_real.factor_comm
    ));

    header("Collectives of one iteration: the graph vs rank 0's comm thread");
    println!("algo,k,phase,edge,elements,recorded_phase,recorded_edge,recorded_elements");
    for (name, graph, rec, _) in &runs {
        print_collectives(name, graph, rec, world);
    }

    let spd_rec = &runs[1].2;
    header("SPD-KFAC measured run summary");
    print!("{}", render_summary(spd_rec, &TrackLayout::trainer(world)));

    if let Some(path) = trace_path {
        let json = chrome_trace(&spd_rec.spans(), &TrackLayout::trainer(world));
        spdkfac_obs::validate_json(&json).expect("trace must be valid JSON");
        std::fs::write(&path, &json).expect("failed to write trace file");
        note(&format!(
            "wrote measured SPD-KFAC trace ({} bytes) to {path}; open https://ui.perfetto.dev",
            json.len()
        ));
    }
}
