//! Cross-crate integration: the unified instrumentation layer observing the
//! real trainers — measured breakdowns account for wall time, and the
//! exported Chrome trace is valid Perfetto-loadable JSON with one row per
//! rank plus one per phase category. (That SPD-KFAC overlaps what D-KFAC
//! serializes is checked on recorded structure in `tests/overlap.rs`.)

use spdkfac::core::calibrate::Calibrator;
use spdkfac::core::distributed::{Algorithm, DistributedConfig, TrainSession};
use spdkfac::core::perf::ExpInverseModel;
use spdkfac::core::runtime::{Costs, Planner};
use spdkfac::nn::data::gaussian_blobs;
use spdkfac::nn::models::deep_mlp;
use spdkfac::obs::{
    chrome_trace, validate_json, CriticalReport, IterationBreakdown, Phase, Recorder, TrackLayout,
};
use std::sync::Arc;
use std::time::Instant;

fn run_with_recorder(
    world: usize,
    algorithm: Algorithm,
    iters: usize,
) -> (Arc<Recorder>, IterationBreakdown, f64) {
    let rec = Arc::new(Recorder::new(2 * world));
    let mut cfg = DistributedConfig::new(world, algorithm);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 42);
    let t = Instant::now();
    let _ = TrainSession::builder(cfg)
        .recorder(Arc::clone(&rec))
        .run(&|| deep_mlp(8, 24, 8, 3, 5), &data, iters, 4)
        .expect("local run");
    let wall = t.elapsed().as_secs_f64();
    let b = IterationBreakdown::from_recorder(&rec, world);
    (rec, b, wall)
}

#[test]
fn measured_breakdown_accounts_for_wall_time() {
    let (_, b, wall) = run_with_recorder(2, Algorithm::SpdKfac, 8);
    // The breakdown covers first-span-start..last-span-end, which sits
    // strictly inside the train() wall time (setup/teardown excluded) but
    // must account for the bulk of it.
    assert!(b.total() > 0.0);
    assert!(
        b.total() <= wall,
        "breakdown {:.6}s exceeds wall {:.6}s",
        b.total(),
        wall
    );
    assert!(
        b.total() > 0.2 * wall,
        "breakdown {:.6}s misses most of wall {:.6}s",
        b.total(),
        wall
    );
    // All major phases of an SPD-KFAC iteration were observed.
    assert!(b.ff_bp > 0.0, "no FF&BP time attributed");
    assert!(b.inverse_comp > 0.0, "no inversion time attributed");
}

#[test]
fn exported_trace_is_valid_perfetto_json_with_expected_rows() {
    let world = 4;
    let (rec, _, _) = run_with_recorder(world, Algorithm::SpdKfac, 4);
    let layout = TrackLayout::trainer(world);
    let json = chrome_trace(&rec.spans(), &layout);
    validate_json(&json).expect("trace must be valid JSON");

    // One metadata row per rank compute stream, per rank comm thread, and
    // per phase category.
    for r in 0..world {
        assert!(
            json.contains(&format!("\"rank{r}\"")),
            "missing rank{r} row"
        );
        assert!(
            json.contains(&format!("\"rank{r} comm\"")),
            "missing rank{r} comm row"
        );
    }
    for p in Phase::ALL {
        assert!(
            json.contains(&format!("\"phase:{}\"", p.name())),
            "missing phase row {}",
            p.name()
        );
    }
    let meta = json.matches("\"ph\":\"M\"").count();
    assert_eq!(meta, 2 * world + Phase::ALL.len());
    assert!(
        json.matches("\"ph\":\"X\"").count() > 0,
        "no slices exported"
    );
}

#[test]
fn critical_path_attributes_iteration_wall_time() {
    // The acceptance bar of the causal analysis: on a real 4-rank SPD-KFAC
    // run the four attribution categories must sum to within 5% of the
    // measured iteration span on every rank (they are constructed as an
    // exact partition, so this holds with margin), and the critical path
    // itself must tile ≥95% of the window.
    let world = 4;
    let (rec, _, _) = run_with_recorder(world, Algorithm::SpdKfac, 6);
    let spans = rec.spans();
    let report = CriticalReport::from_spans(&spans, &TrackLayout::trainer(world));
    let wall = report.wall();
    assert!(wall > 0.0);
    assert_eq!(report.ranks.len(), world);
    for r in &report.ranks {
        let covered = r.total();
        assert!(
            (covered - wall).abs() <= 0.05 * wall,
            "rank {}: categories sum {:.6}s vs wall {:.6}s",
            r.rank,
            covered,
            wall
        );
        assert!(r.compute > 0.0, "rank {} attributed no compute", r.rank);
    }
    assert!(
        report.path_total() >= 0.95 * wall,
        "critical path covers {:.6}s of {:.6}s wall",
        report.path_total(),
        wall
    );
    // Collective groups were matched across ranks via span metadata.
    assert!(report.num_groups > 0, "no cross-rank collective groups");

    // The machine-readable and highlighted-trace exports stay valid, and
    // the trace lands at a stable path CI uploads as a workflow artifact.
    validate_json(&report.to_json()).expect("report JSON");
    let trace = report.highlighted_trace(&spans);
    validate_json(&trace).expect("highlighted trace JSON");
    assert!(trace.contains("critical path"), "missing highlighted track");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("observability_critical_trace.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create target dir");
    }
    std::fs::write(&out, &trace).expect("write trace artifact");
}

#[test]
fn same_critical_analysis_runs_on_simulator_traces() {
    // The analyzer must not care whether spans came from threads or from
    // the discrete-event simulator: metadata-free simulator spans with the
    // shared-network track convention go through the identical code path.
    use spdkfac::core::graph::to_obs_spans;
    use spdkfac::models::resnet50;
    use spdkfac::sim::{simulate_iteration, Algo, SimConfig};
    let world = 4;
    let sim = simulate_iteration(&resnet50(), &SimConfig::paper_testbed(world), Algo::SpdKfac);
    let spans = to_obs_spans(&sim.spans);
    let max_track = spans.iter().map(|s| s.track).max().expect("sim spans");
    let report = CriticalReport::from_spans(&spans, &TrackLayout::simulator(world, max_track));
    let wall = report.wall();
    assert!(wall > 0.0);
    assert_eq!(report.ranks.len(), world);
    for r in &report.ranks {
        assert!(
            (r.total() - wall).abs() <= 0.05 * wall,
            "rank {}: categories sum {:.6}s vs wall {:.6}s",
            r.rank,
            r.total(),
            wall
        );
    }
    assert!(report.path_total() >= 0.95 * wall);
    validate_json(&report.to_json()).expect("sim report JSON");
}

#[test]
fn drift_detector_flags_miscalibrated_inverse_model_only() {
    // Calibration closes the loop from measured spans back to the planning
    // models. A trainer planned with a wildly mis-calibrated inversion
    // model must produce ≥1 NCT/CT flip in the counterfactual re-plan; a
    // well-calibrated baseline (the refit of the very same samples) must
    // produce none.
    let world = 4;
    let (rec, _, _) = run_with_recorder(world, Algorithm::SpdKfac, 6);
    let cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    let dims = deep_mlp(8, 24, 8, 3, 5).kfac_dims();
    assert!(!dims.is_empty());
    // What a run configured with `cfg` stands on, and what it would stand
    // on had it known `refit`.
    let plans = |cfg: &DistributedConfig, refit: &Costs| {
        let planner = Planner::new(cfg, &dims, world);
        (
            planner.plan(&Costs::default(), None),
            planner.plan(refit, None),
        )
    };

    // Two opposite mis-calibrations bracket the measured truth: one
    // baseline thinks inversion is ~1e9x cheaper than modelled (classifies
    // everything NCT), the other ~1e9x costlier (everything CT). The refit
    // classification is a concrete NCT/CT assignment, so at least one of
    // the two baselines must disagree on at least one tensor.
    let mut flips = 0usize;
    for scale in [1e-9, 1e9] {
        let mut mis = cfg.clone();
        mis.comp_model = ExpInverseModel::new(cfg.comp_model.alpha * scale, cfg.comp_model.beta);
        let mut cal = Calibrator::new(mis.comp_model, mis.comm_model);
        assert!(cal.ingest_recorder(&rec) > 0, "no calibration samples");
        cal.refit();
        assert!(cal.models().inverse.is_some(), "inverse refit missing");
        let (standing, candidate) = plans(&mis, cal.models());
        let (standing, candidate) = (standing.placement, candidate.placement);
        flips += (0..2 * dims.len())
            .filter(|&t| standing.is_nct(t) != candidate.is_nct(t))
            .count();
    }
    assert!(flips >= 1, "mis-calibrated baselines produced no NCT flip");

    // Well-calibrated control: a calibrator whose baselines *are* the refit
    // of the same samples re-plans identically — zero flips.
    let mut seed = Calibrator::new(cfg.comp_model, cfg.comm_model);
    seed.ingest_recorder(&rec);
    let models = seed.refit();
    let mut calibrated = cfg.clone();
    calibrated.comp_model = models.inverse.expect("inverse refit");
    calibrated.comm_model = models.broadcast.unwrap_or(cfg.comm_model);
    let mut well = Calibrator::new(calibrated.comp_model, calibrated.comm_model);
    well.ingest_recorder(&rec);
    let refit = well.refit().clone();
    let (standing, candidate) = plans(&calibrated, &refit);
    assert_eq!(
        candidate, standing,
        "a well-calibrated run would re-plan differently"
    );
    let max_d = dims.iter().map(|&(a, g)| a.max(g)).max().expect("layers");
    assert_eq!(
        calibrated
            .comp_model
            .nct_threshold(&calibrated.comm_model, max_d),
        refit
            .inverse
            .expect("inverse refit")
            .nct_threshold(&refit.broadcast.unwrap_or(cfg.comm_model), max_d)
    );

    // Calibration health is exported through the shared metrics registry.
    well.publish_metrics(rec.metrics());
    let snap = rec.metrics().snapshot();
    assert!(snap.gauges.contains_key("calib/inverse/residual"));
    assert!(snap.gauges["calib/inverse/samples"] > 0.0);
    assert!(snap.histograms.contains_key("calib/inverse/drift"));
}
