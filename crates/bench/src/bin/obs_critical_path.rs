//! Observability: "why was this iteration slow?" — cross-rank critical-path
//! reports for a *real* SPD-KFAC run and a *simulated* one, from the same
//! analysis code.
//!
//! Runs the real multi-threaded SPD-KFAC trainer under a [`Recorder`],
//! builds the causal event graph (program order + collective edges), walks
//! the critical path, and prints the wall-time attribution. Then runs the
//! identical analysis on a simulated iteration's spans — the point of the
//! shared span type is that neither side gets its own analyzer.
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin obs_critical_path -- \
//!     4 [--csv out.csv] [--json out.json] [--sim-json out.json] \
//!     [--trace out.trace.json]
//! ```
//!
//! `--csv` writes the per-rank attribution (shared formatter with
//! `summary::render_summary_csv`), `--json` the machine-readable report of
//! the *measured* run, `--sim-json` the same report for the *simulated*
//! iteration (bit-for-bit deterministic — CI `cmp`s it against the
//! committed `BENCH_critical_path.json`),
//! `--trace` a Perfetto timeline with the critical path as an extra
//! highlighted track.

use spdkfac_bench::{header, note};
use spdkfac_core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac_core::graph::to_obs_spans;
use spdkfac_models::resnet50;
use spdkfac_nn::data::gaussian_blobs;
use spdkfac_nn::models::deep_mlp;
use spdkfac_obs::summary::render_summary_csv;
use spdkfac_obs::{CriticalReport, Recorder, TrackLayout};
use spdkfac_sim::{simulate_iteration, Algo, SimConfig};
use std::sync::Arc;

fn main() {
    let mut world = 4usize;
    let mut csv_path = None;
    let mut json_path = None;
    let mut sim_json_path = None;
    let mut trace_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => csv_path = Some(args.next().expect("--csv needs a path")),
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--sim-json" => sim_json_path = Some(args.next().expect("--sim-json needs a path")),
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            other => world = other.parse().expect("world must be an integer"),
        }
    }
    assert!(world >= 1, "world must be at least 1, got {world}");
    let iters = 6;

    header(&format!(
        "Critical path: measured {world}-rank SPD-KFAC run ({iters} iterations)"
    ));
    let rec = Arc::new(Recorder::new(2 * world));
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 42);
    let _ = TrainSession::builder(cfg)
        .recorder(Arc::clone(&rec))
        .run(&|| deep_mlp(8, 24, 8, 3, 5), &data, iters, 4)
        .expect("local run");

    let spans = rec.spans();
    let real = CriticalReport::from_spans(&spans, &TrackLayout::trainer(world));
    print!("{}", real.render_text());
    note(&format!(
        "path covers {:.1}% of wall time",
        100.0 * real.path_total() / real.wall().max(f64::MIN_POSITIVE)
    ));

    if let Some(path) = &csv_path {
        let mut csv = render_summary_csv(&rec, &TrackLayout::trainer(world));
        csv.push('\n');
        csv.push_str(&real.rank_csv());
        std::fs::write(path, &csv).expect("failed to write CSV");
        note(&format!("wrote phase + rank-attribution CSV to {path}"));
    }
    if let Some(path) = &json_path {
        let json = real.to_json();
        spdkfac_obs::validate_json(&json).expect("report must be valid JSON");
        std::fs::write(path, &json).expect("failed to write JSON report");
        note(&format!("wrote critical-path JSON to {path}"));
    }
    if let Some(path) = &trace_path {
        let json = real.highlighted_trace(&spans);
        spdkfac_obs::validate_json(&json).expect("trace must be valid JSON");
        std::fs::write(path, &json).expect("failed to write trace");
        note(&format!(
            "wrote highlighted Perfetto trace to {path}; open https://ui.perfetto.dev"
        ));
    }

    header(&format!(
        "Critical path: simulated SPD-KFAC iteration (paper testbed, {world} GPUs)"
    ));
    let sim = simulate_iteration(&resnet50(), &SimConfig::paper_testbed(world), Algo::SpdKfac);
    let sim_spans = to_obs_spans(&sim.spans);
    let max_track = sim_spans.iter().map(|s| s.track).max().unwrap_or(world);
    let sim_report =
        CriticalReport::from_spans(&sim_spans, &TrackLayout::simulator(world, max_track));
    print!("{}", sim_report.render_text());
    note(&format!(
        "same analyzer, simulated input: path covers {:.1}% of wall time",
        100.0 * sim_report.path_total() / sim_report.wall().max(f64::MIN_POSITIVE)
    ));
    if let Some(path) = &sim_json_path {
        let json = sim_report.to_json();
        spdkfac_obs::validate_json(&json).expect("report must be valid JSON");
        std::fs::write(path, &json).expect("failed to write JSON report");
        note(&format!("wrote simulated critical-path JSON to {path}"));
    }
}
