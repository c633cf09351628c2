//! Per-phase attribution of one iteration — the Fig. 2 / Fig. 9 stacked
//! bars — shared by the simulator and the real trainers.
//!
//! Attribution rules, in precedence order over each elementary interval:
//!
//! 1. the primary compute track (track 0) is busy → that span's phase
//!    (innermost span wins when spans nest);
//! 2. any other compute track is busy (only the inverse phase schedules
//!    there) → that span's phase;
//! 3. a network/communication track is busy → that span's phase — this is
//!    exactly the **non-overlapped** communication time, because comm hidden
//!    behind compute was already attributed to the compute;
//! 4. nothing is busy → idle.

use crate::phase::Phase;
use crate::recorder::{Recorder, Span};

/// Seconds attributed to each category over one iteration; the categories
/// sum to the iteration wall time (see [`IterationBreakdown::total`]).
///
/// Built from a simulated schedule (`spdkfac_sim::report::attribute`) or
/// from measured spans ([`IterationBreakdown::from_recorder`]) — same type,
/// so measured and simulated runs compare field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationBreakdown {
    /// Feed-forward + backward compute.
    pub ff_bp: f64,
    /// Non-overlapped gradient all-reduce time.
    pub grad_comm: f64,
    /// Kronecker-factor construction compute.
    pub factor_comp: f64,
    /// Non-overlapped factor all-reduce time.
    pub factor_comm: f64,
    /// Matrix-inversion compute.
    pub inverse_comp: f64,
    /// Non-overlapped inverse broadcast time.
    pub inverse_comm: f64,
    /// Preconditioning / update compute.
    pub other: f64,
    /// Dead time (scheduling gaps).
    pub idle: f64,
}

impl IterationBreakdown {
    /// Sum of all categories (= iteration time).
    pub fn total(&self) -> f64 {
        self.ff_bp
            + self.grad_comm
            + self.factor_comp
            + self.factor_comm
            + self.inverse_comp
            + self.inverse_comm
            + self.other
            + self.idle
    }

    /// Mutable slot for `phase`.
    pub fn slot(&mut self, phase: Phase) -> &mut f64 {
        match phase {
            Phase::FfBp => &mut self.ff_bp,
            Phase::GradComm => &mut self.grad_comm,
            Phase::FactorComp => &mut self.factor_comp,
            Phase::FactorComm => &mut self.factor_comm,
            Phase::InverseComp => &mut self.inverse_comp,
            Phase::InverseComm => &mut self.inverse_comm,
            Phase::Update => &mut self.other,
        }
    }

    /// Adds `secs` to `phase`'s slot.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        *self.slot(phase) += secs;
    }

    /// Value of `phase`'s slot.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::FfBp => self.ff_bp,
            Phase::GradComm => self.grad_comm,
            Phase::FactorComp => self.factor_comp,
            Phase::FactorComm => self.factor_comm,
            Phase::InverseComp => self.inverse_comp,
            Phase::InverseComm => self.inverse_comm,
            Phase::Update => self.other,
        }
    }

    /// Total non-overlapped communication time (grad + factor + inverse).
    pub fn exposed_comm(&self) -> f64 {
        self.grad_comm + self.factor_comm + self.inverse_comm
    }

    /// Per-element sum: `self + rhs` (for averaging over iterations).
    pub fn accumulate(&mut self, rhs: &IterationBreakdown) {
        for p in Phase::ALL {
            self.add(p, rhs.get(p));
        }
        self.idle += rhs.idle;
    }

    /// Divides every slot by `n` (averaging companion to `accumulate`).
    pub fn scale(&mut self, inv_n: f64) {
        for p in Phase::ALL {
            *self.slot(p) *= inv_n;
        }
        self.idle *= inv_n;
    }

    /// CSV header matching [`IterationBreakdown::csv_row`], in the column
    /// order `bench::experiments` writes its breakdown tables.
    pub fn csv_header() -> &'static str {
        "ff_bp,grad_comm,factor_comp,factor_comm,inverse_comp,inverse_comm,other,idle,total"
    }

    /// One CSV data row (seconds, 6 decimal places).
    pub fn csv_row(&self) -> String {
        format!(
            "{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
            self.ff_bp,
            self.grad_comm,
            self.factor_comp,
            self.factor_comm,
            self.inverse_comp,
            self.inverse_comm,
            self.other,
            self.idle,
            self.total()
        )
    }

    /// Builds the breakdown from everything a recorder captured.
    ///
    /// `num_compute` is the number of compute tracks: tracks
    /// `0..num_compute` are compute streams (track 0 is the representative
    /// rank), tracks `>= num_compute` are communication/network tracks.
    pub fn from_recorder(rec: &Recorder, num_compute: usize) -> IterationBreakdown {
        attribute(&rec.spans(), num_compute)
    }
}

/// Attributes `spans` to categories under the precedence rules above.
///
/// Time is measured from the earliest span start to the latest span end, so
/// recordings whose epoch predates the iteration (the live trainers) and
/// schedules that start at t=0 (the simulator) both work.
pub fn attribute(spans: &[Span], num_compute: usize) -> IterationBreakdown {
    let mut breakdown = IterationBreakdown::default();
    let valid: Vec<&Span> = spans.iter().filter(|s| s.end > s.start).collect();
    if valid.is_empty() {
        return breakdown;
    }
    let origin = valid.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);

    // Elementary intervals from all span endpoints.
    let mut points: Vec<f64> = Vec::with_capacity(valid.len() * 2);
    for s in &valid {
        points.push(s.start);
        points.push(s.end);
    }
    points.push(origin);
    points.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    points.dedup();

    let primary: Vec<&Span> = valid.iter().filter(|s| s.track == 0).copied().collect();
    let other_compute: Vec<&Span> = valid
        .iter()
        .filter(|s| s.track != 0 && s.track < num_compute)
        .copied()
        .collect();
    let network: Vec<&Span> = valid
        .iter()
        .filter(|s| s.track >= num_compute)
        .copied()
        .collect();

    // Innermost-wins: among covering spans, the latest-started one is the
    // innermost for properly nested spans (a real trainer may open an
    // iteration-wide span around finer phase spans).
    let covering = |set: &[&Span], t: f64| -> Option<Phase> {
        set.iter()
            .filter(|s| s.start <= t && t < s.end)
            .max_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"))
            .map(|s| s.phase)
    };

    for w in points.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 <= t0 {
            continue;
        }
        let mid = 0.5 * (t0 + t1);
        let len = t1 - t0;
        let phase = covering(&primary, mid)
            .or_else(|| covering(&other_compute, mid))
            .or_else(|| covering(&network, mid));
        match phase {
            Some(p) => breakdown.add(p, len),
            None => breakdown.idle += len,
        }
    }
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(track: usize, phase: Phase, start: f64, end: f64) -> Span {
        Span::new(track, phase, start, end)
    }

    #[test]
    fn empty_is_zero() {
        let b = attribute(&[], 1);
        assert_eq!(b.total(), 0.0);
    }

    #[test]
    fn hidden_comm_attributed_to_compute() {
        // Comm runs 0..2 entirely under compute 0..3 ⇒ zero exposed comm.
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 3.0),
            sp(1, Phase::FactorComm, 0.0, 2.0),
        ];
        let b = attribute(&spans, 1);
        assert_eq!(b.factor_comm, 0.0);
        assert_eq!(b.ff_bp, 3.0);
        assert_eq!(b.exposed_comm(), 0.0);
    }

    #[test]
    fn exposed_comm_counts() {
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 1.0),
            sp(1, Phase::FactorComm, 1.0, 3.0),
        ];
        let b = attribute(&spans, 1);
        assert_eq!(b.ff_bp, 1.0);
        assert_eq!(b.factor_comm, 2.0);
        assert!((b.total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nonzero_origin_handled() {
        // Real recordings start long after the recorder epoch; time before
        // the first span must not be counted as idle.
        let spans = vec![
            sp(0, Phase::FfBp, 100.0, 101.0),
            sp(1, Phase::GradComm, 101.0, 101.5),
        ];
        let b = attribute(&spans, 1);
        assert!((b.total() - 1.5).abs() < 1e-12);
        assert_eq!(b.idle, 0.0);
    }

    #[test]
    fn innermost_span_wins_on_primary_track() {
        // An outer iteration-wide Update span wrapping an inner FF&BP span:
        // the inner one attributes.
        let spans = vec![sp(0, Phase::Update, 0.0, 4.0), sp(0, Phase::FfBp, 1.0, 3.0)];
        let b = attribute(&spans, 1);
        assert_eq!(b.ff_bp, 2.0);
        assert_eq!(b.other, 2.0);
    }

    #[test]
    fn other_compute_covers_when_primary_idle() {
        let spans = vec![sp(1, Phase::InverseComp, 0.0, 2.0)];
        let b = attribute(&spans, 2);
        assert_eq!(b.inverse_comp, 2.0);
        assert_eq!(b.idle, 0.0);
    }

    #[test]
    fn gaps_become_idle() {
        let spans = vec![sp(0, Phase::FfBp, 0.0, 1.0), sp(0, Phase::Update, 2.0, 3.0)];
        let b = attribute(&spans, 1);
        assert_eq!(b.idle, 1.0);
        assert!((b.total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn csv_row_has_header_arity() {
        let b = IterationBreakdown::default();
        assert_eq!(
            b.csv_row().split(',').count(),
            IterationBreakdown::csv_header().split(',').count()
        );
    }

    #[test]
    fn accumulate_and_scale() {
        let mut acc = IterationBreakdown::default();
        let mut one = IterationBreakdown::default();
        one.add(Phase::FfBp, 2.0);
        one.idle = 1.0;
        acc.accumulate(&one);
        acc.accumulate(&one);
        acc.scale(0.5);
        assert_eq!(acc.ff_bp, 2.0);
        assert_eq!(acc.idle, 1.0);
    }
}
