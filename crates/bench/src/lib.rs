//! # spdkfac-bench
//!
//! The experiment harness of the reproduction. Every paper table / figure
//! and extension study is one entry of [`experiments::FIGURES`], run by name
//! through the `repro` binary (see DESIGN.md §3 for the index); the other
//! binaries drive the real trainers (TCP launcher, wire / scale sweeps,
//! observability gates), [`fault`] holds the transport decorators the TCP
//! launcher injects failures with, and `benches/` holds Criterion micro-benchmarks of
//! the real CPU kernels (Cholesky inversion, factor construction, ring
//! collectives, fusion/placement planning).
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p spdkfac-bench --bin repro -- table3
//! ```

pub mod experiments;
pub mod fault;
pub mod traces;

use spdkfac_sim::SimReport;

/// Paper reference values for Table III (seconds per iteration).
pub const PAPER_TABLE3: [(&str, f64, f64, f64); 4] = [
    ("ResNet-50", 0.8525, 0.7635, 0.6755),
    ("ResNet-152", 1.5807, 1.3933, 1.1689),
    ("DenseNet-201", 1.4964, 1.5340, 1.3615),
    ("Inception-v4", 1.1857, 1.1473, 0.9907),
];

/// Formats a breakdown as the standard one-line summary used by the
/// experiments.
pub fn breakdown_line(r: &SimReport) -> String {
    let b = &r.breakdown;
    format!(
        "total={:7.4}s  ff_bp={:6.4} grad={:6.4} fcomp={:6.4} fcomm={:6.4} icomp={:6.4} icomm={:6.4} other={:6.4} idle={:6.4}",
        r.total, b.ff_bp, b.grad_comm, b.factor_comp, b.factor_comm, b.inverse_comp, b.inverse_comm, b.other, b.idle
    )
}

/// Prints a section header in the shared experiment-output style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `key: value` note line.
pub fn note(text: &str) {
    println!("  {text}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_models::resnet50;
    use spdkfac_sim::{simulate_iteration, Algo, SimConfig};

    #[test]
    fn breakdown_line_is_complete() {
        let r = simulate_iteration(&resnet50(), &SimConfig::paper_testbed(64), Algo::DKfac);
        let line = breakdown_line(&r);
        for key in ["total=", "ff_bp=", "fcomm=", "icomp="] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn paper_table3_speedups_in_published_range() {
        for (name, d, mpd, spd) in PAPER_TABLE3 {
            let sp1 = d / spd;
            let sp2 = mpd / spd;
            assert!((1.05..=1.40).contains(&sp1), "{name}: SP1 {sp1}");
            assert!((1.05..=1.25).contains(&sp2), "{name}: SP2 {sp2}");
        }
    }
}
