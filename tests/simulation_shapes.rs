//! Cross-crate integration: the simulated experiments reproduce the paper's
//! qualitative results end-to-end (the acceptance criteria of DESIGN.md §3).

use spdkfac::core::fusion::FusionStrategy;
use spdkfac::core::placement::PlacementStrategy;
use spdkfac::models::{densenet201, paper_models, resnet50};
use spdkfac::sim::{simulate_inverse_phase, simulate_iteration, Algo, FactorCommMode, SimConfig};

fn cfg() -> SimConfig {
    SimConfig::paper_testbed(64)
}

#[test]
fn table3_spd_wins_everywhere() {
    for m in paper_models() {
        let d = simulate_iteration(&m, &cfg(), Algo::DKfac).total;
        let mpd = simulate_iteration(&m, &cfg(), Algo::MpdKfac).total;
        let spd = simulate_iteration(&m, &cfg(), Algo::SpdKfac).total;
        // SP1 within a generous band around the paper's 10–35%.
        let sp1 = d / spd;
        let sp2 = mpd / spd;
        assert!(sp1 > 1.05, "{}: SP1 {sp1:.2}", m.name());
        assert!(sp1 < 1.70, "{}: SP1 {sp1:.2} implausibly high", m.name());
        assert!(sp2 > 1.05, "{}: SP2 {sp2:.2}", m.name());
    }
}

#[test]
fn densenet_is_the_mpd_pathology() {
    // The paper's most distinctive crossover: model-parallel inversion
    // *hurts* on DenseNet-201.
    let m = densenet201();
    let d = simulate_iteration(&m, &cfg(), Algo::DKfac).total;
    let mpd = simulate_iteration(&m, &cfg(), Algo::MpdKfac).total;
    assert!(mpd > d);
    // And inside the inverse phase, Seq-Dist loses to Non-Dist.
    let dims = m.all_factor_dims();
    let non = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::NonDist).total;
    let seq = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::SeqDist).total;
    assert!(seq > non);
}

#[test]
fn lbp_gain_is_in_the_published_band() {
    // Fig. 12: 10–62% improvement over the best existing solution.
    for m in paper_models() {
        let dims = m.all_factor_dims();
        let non = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::NonDist).total;
        let seq = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::SeqDist).total;
        let lbp = simulate_inverse_phase(&dims, &cfg(), PlacementStrategy::default()).total;
        let gain = 1.0 - lbp / non.min(seq);
        assert!(
            (0.02..=0.65).contains(&gain),
            "{}: LBP gain {:.0}% outside band",
            m.name(),
            gain * 100.0
        );
    }
}

#[test]
fn pipelining_hides_at_least_half_of_naive_exposure() {
    // Fig. 10: "our pipelining method can hide 50%-84% more communication
    // overheads ... than the overlapping solution from [20, 22]".
    for m in paper_models() {
        let mut naive_cfg = cfg();
        naive_cfg.factor_mode = Some(FactorCommMode::Naive);
        let naive = simulate_iteration(&m, &naive_cfg, Algo::SpdKfac)
            .breakdown
            .factor_comm;
        let otf = simulate_iteration(&m, &cfg(), Algo::SpdKfac)
            .breakdown
            .factor_comm;
        assert!(
            otf < 0.7 * naive,
            "{}: OTF {otf:.4} vs Naive {naive:.4} — expected ≥30% more hidden",
            m.name()
        );
    }
}

#[test]
fn ablation_monotonicity() {
    // Fig. 13: each optimization alone helps; both together help most.
    for m in paper_models() {
        let run = |pipe: bool, lbp: bool| {
            let mut c = cfg();
            c.factor_mode = Some(if pipe {
                FactorCommMode::Pipelined(FusionStrategy::Optimal)
            } else {
                FactorCommMode::Bulk
            });
            c.placement = Some(
                if lbp {
                    PlacementStrategy::default()
                } else {
                    PlacementStrategy::NonDist
                }
                .into(),
            );
            simulate_iteration(&m, &c, Algo::SpdKfac).total
        };
        let t00 = run(false, false);
        let t10 = run(true, false);
        let t01 = run(false, true);
        let t11 = run(true, true);
        assert!(t10 < t00, "{}: pipelining alone should help", m.name());
        assert!(t01 < t00, "{}: LBP alone should help", m.name());
        assert!(
            t11 < t10 && t11 < t01,
            "{}: combined should be best",
            m.name()
        );
    }
}

#[test]
fn scaling_more_gpus_increase_kfac_comm_pressure() {
    // At small world sizes the comm problem shrinks; SPD's advantage over
    // D-KFAC grows with scale (the paper's motivation for 64 GPUs).
    let m = resnet50();
    let mut prev_gain = 0.0;
    for world in [4usize, 16, 64] {
        let c = SimConfig::paper_testbed(world);
        let d = simulate_iteration(&m, &c, Algo::DKfac).total;
        let spd = simulate_iteration(&m, &c, Algo::SpdKfac).total;
        let gain = d / spd;
        assert!(
            gain >= prev_gain * 0.95,
            "world={world}: gain {gain:.2} collapsed from {prev_gain:.2}"
        );
        prev_gain = gain;
    }
}
