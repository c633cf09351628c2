//! Breakdown accounting: attributing every instant of the iteration to a
//! category, reproducing the stacked-bar semantics of Fig. 2 / Fig. 9.
//!
//! The attribution itself lives in [`spdkfac_obs::attribute`] — the same
//! covering rules score simulated schedules and measured recordings, and
//! [`Breakdown`] *is* [`spdkfac_obs::IterationBreakdown`], so a simulated
//! and a measured iteration compare field-for-field. Rules, in precedence
//! order over each elementary interval:
//!
//! 1. the representative GPU's compute stream is busy → that task's tag;
//! 2. any other GPU computes (only the inverse phase schedules there) → that
//!    task's tag;
//! 3. the network is busy → that task's tag (this is exactly the
//!    **non-overlapped** communication time: comm hidden behind compute is
//!    attributed to the compute);
//! 4. nothing is busy → idle.

use spdkfac_core::graph::{to_obs_spans, TaskSpan};

/// Per-category seconds of one simulated iteration; categories sum to
/// [`SimReport::total`]. Alias of the shared
/// [`spdkfac_obs::IterationBreakdown`].
pub type Breakdown = spdkfac_obs::IterationBreakdown;

/// Result of simulating one training iteration.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Iteration wall-clock time.
    pub total: f64,
    /// Category attribution (sums to `total`).
    pub breakdown: Breakdown,
    /// The raw task schedule, for traces and plots.
    pub spans: Vec<TaskSpan>,
}

/// Builds a report from a simulated schedule.
///
/// Resources `0..num_gpus` are compute streams (resource 0 is the
/// representative GPU); every resource `>= num_gpus` is a network link
/// (one shared link under the serialized model, one per root under the
/// per-root-parallel model).
pub fn attribute(spans: Vec<TaskSpan>, num_gpus: usize) -> SimReport {
    let total = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    let mut breakdown = spdkfac_obs::attribute(&to_obs_spans(&spans), num_gpus);
    // The shared attribution measures from the earliest span start; the
    // simulator's clock starts at t = 0, so any lead-in is idle time.
    let origin = spans
        .iter()
        .filter(|s| s.end > s.start)
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    if origin.is_finite() && origin > 0.0 {
        breakdown.idle += origin;
    }
    SimReport {
        total,
        breakdown,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_core::graph::{TaskGraph, TaskSpan};
    use spdkfac_obs::Phase;

    #[test]
    fn breakdown_sums_to_total() {
        let mut g = TaskGraph::new(2);
        let a = g.push(0, 1.0, &[], Phase::FfBp);
        g.push(1, 3.0, &[a], Phase::GradComm);
        let r = attribute(g.simulate(), 1);
        assert!((r.breakdown.total() - r.total).abs() < 1e-12);
        assert_eq!(r.total, 4.0);
    }

    #[test]
    fn hidden_comm_attributed_to_compute() {
        // Comm runs 0..2 entirely under compute 0..3 ⇒ zero non-overlapped
        // comm time.
        let mut g = TaskGraph::new(2);
        g.push(0, 3.0, &[], Phase::FfBp);
        g.push(1, 2.0, &[], Phase::FactorComm);
        let r = attribute(g.simulate(), 1);
        assert_eq!(r.breakdown.factor_comm, 0.0);
        assert_eq!(r.breakdown.ff_bp, 3.0);
    }

    #[test]
    fn exposed_comm_counts() {
        let mut g = TaskGraph::new(2);
        let a = g.push(0, 1.0, &[], Phase::FfBp);
        g.push(1, 2.0, &[a], Phase::FactorComm);
        let r = attribute(g.simulate(), 1);
        assert_eq!(r.breakdown.ff_bp, 1.0);
        assert_eq!(r.breakdown.factor_comm, 2.0);
    }

    #[test]
    fn other_gpu_inverse_compute_counts_when_gpu0_idle() {
        // GPU 1 (resource 1) inverts while GPU 0 idles; network silent.
        let mut g = TaskGraph::new(3);
        g.push(1, 2.0, &[], Phase::InverseComp);
        let r = attribute(g.simulate(), 2);
        assert_eq!(r.breakdown.inverse_comp, 2.0);
        assert_eq!(r.breakdown.idle, 0.0);
    }

    #[test]
    fn gaps_become_idle() {
        let mut g = TaskGraph::new(2);
        let a = g.push(1, 1.0, &[], Phase::GradComm);
        let _b = g.push(0, 1.0, &[a], Phase::FfBp);
        let r = attribute(g.simulate(), 1);
        assert_eq!(r.breakdown.idle, 0.0); // comm covers 0..1, compute 1..2
        assert_eq!(r.total, 2.0);
    }

    #[test]
    fn empty_schedule() {
        let g = TaskGraph::new(2);
        let r = attribute(g.simulate(), 1);
        assert_eq!(r.total, 0.0);
        assert_eq!(r.breakdown.total(), 0.0);
    }

    #[test]
    fn delayed_start_counts_as_idle() {
        // A schedule whose first task starts after t = 0 keeps breakdown
        // totalling to the wall time (lead-in attributed as idle).
        let spans = vec![TaskSpan {
            start: 2.0,
            end: 3.0,
            resource: 0,
            phase: Phase::FfBp,
            meta: spdkfac_obs::SpanMeta::default(),
        }];
        let r = attribute(spans, 1);
        assert_eq!(r.total, 3.0);
        assert_eq!(r.breakdown.idle, 2.0);
        assert!((r.breakdown.total() - r.total).abs() < 1e-12);
    }
}
