//! Placement explorer: what Algorithm 1 (LBP) decides for a real model.
//!
//! Run with (model name optional: resnet50 | resnet152 | densenet201 |
//! inceptionv4; default resnet50):
//!
//! ```text
//! cargo run --release --example placement_explorer -- densenet201
//! ```
//!
//! Shows the CT/NCT classification (Fig. 11's threshold in action), the
//! per-GPU load balance, and the modelled inverse-phase times of the three
//! placement strategies (Fig. 12).

use spdkfac::core::placement::{place, PlacementStrategy, TensorAssignment};
use spdkfac::models::{densenet201, inceptionv4, resnet152, resnet50, ModelProfile};
use spdkfac::sim::{simulate_inverse_phase, SimConfig};

fn pick_model(name: &str) -> ModelProfile {
    match name {
        "resnet50" => resnet50(),
        "resnet152" => resnet152(),
        "densenet201" => densenet201(),
        "inceptionv4" => inceptionv4(),
        other => panic!("unknown model {other}; use resnet50|resnet152|densenet201|inceptionv4"),
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "resnet50".into());
    let m = pick_model(&name);
    let world = 64;
    let cfg = SimConfig::paper_testbed(world);
    let dims = m.all_factor_dims();
    let plc = place(
        &dims,
        world,
        &cfg.hw.inverse,
        &cfg.hw.bcast,
        PlacementStrategy::default(),
    );

    let ncts: Vec<usize> = (0..dims.len()).filter(|&i| plc.is_nct(i)).collect();
    println!(
        "{}: {} factor tensors on {world} GPUs — {} NCT (replicated), {} CT (distributed + broadcast)",
        m.name(),
        dims.len(),
        ncts.len(),
        dims.len() - ncts.len()
    );
    let max_nct = ncts.iter().map(|&i| dims[i]).max().unwrap_or(0);
    println!("largest NCT dimension: {max_nct} (the Fig. 11 crossover in action)");

    // Per-GPU CT load.
    let mut loads = vec![(0usize, 0.0f64); world];
    for (i, a) in plc.assignments().iter().enumerate() {
        if let TensorAssignment::Gpu(p) = a {
            loads[*p].0 += 1;
            loads[*p].1 += cfg.hw.inverse_time(dims[i]);
        }
    }
    let busiest = loads
        .iter()
        .cloned()
        .fold((0, 0.0f64), |acc, l| if l.1 > acc.1 { l } else { acc });
    let idle = loads.iter().filter(|l| l.0 == 0).count();
    println!(
        "busiest GPU: {} CTs, {:.2} ms of inversions; {} GPUs carry no CT",
        busiest.0,
        busiest.1 * 1e3,
        idle
    );

    println!("\ninverse-phase wall-clock (simulated):");
    for (label, strategy) in [
        ("Non-Dist", PlacementStrategy::NonDist),
        ("Seq-Dist", PlacementStrategy::SeqDist),
        ("LBP", PlacementStrategy::default()),
    ] {
        let r = simulate_inverse_phase(&dims, &cfg, strategy);
        println!("  {label:<9} {:.4}s", r.total);
    }
}
