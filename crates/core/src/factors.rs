//! Running Kronecker-factor statistics and their damped Cholesky factors.

use crate::error::{FactorSide, KfacError};
use spdkfac_nn::KfacCapture;
use spdkfac_tensor::{chol, Matrix, SymPacked};

/// Per-layer Kronecker-factor state: exponential moving averages of
/// `A = E[a aᵀ]` and `G = E[ĝ ĝᵀ]` plus the Cholesky factors `L` of their
/// damped forms, `L Lᵀ = F + γI`, in the solve form the preconditioner
/// reads ([`chol::cholesky_in_place`]). "Inverting" a factor (Eq. 12)
/// means computing its `L`: the inverse itself is never formed.
#[derive(Debug, Clone)]
pub struct FactorState {
    layer: usize,
    a: Option<Matrix>,
    g: Option<Matrix>,
    a_chol: Option<Matrix>,
    g_chol: Option<Matrix>,
}

impl FactorState {
    /// Creates empty state for preconditionable layer `layer`.
    pub fn new(layer: usize) -> Self {
        FactorState {
            layer,
            a: None,
            g: None,
            a_chol: None,
            g_chol: None,
        }
    }

    /// The layer index this state belongs to.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Folds a fresh capture into the running averages with decay
    /// `stat_decay` (first update installs the statistics directly).
    pub fn update_from_capture(&mut self, cap: &KfacCapture, stat_decay: f64) {
        self.update_factors(cap.factor_a(), cap.factor_g(), stat_decay);
    }

    /// Folds externally-computed (e.g. all-reduced) factor matrices into the
    /// running averages.
    pub fn update_factors(&mut self, a_new: Matrix, g_new: Matrix, stat_decay: f64) {
        self.update_a(a_new, stat_decay);
        self.update_g(g_new, stat_decay);
    }

    /// Folds a fresh `A` factor alone (the forward-pass side of the SPD
    /// pipeline, where `A` and `G` arrive in different passes).
    pub fn update_a(&mut self, a_new: Matrix, stat_decay: f64) {
        match &mut self.a {
            Some(a) => a.ema_update(stat_decay, &a_new),
            None => self.a = Some(a_new),
        }
    }

    /// Folds a fresh `G` factor alone (the backward-pass side).
    pub fn update_g(&mut self, g_new: Matrix, stat_decay: f64) {
        match &mut self.g {
            Some(g) => g.ema_update(stat_decay, &g_new),
            None => self.g = Some(g_new),
        }
    }

    /// Current running factor `A`, if any update has happened.
    pub fn factor_a(&self) -> Option<&Matrix> {
        self.a.as_ref()
    }

    /// Current running factor `G`, if any update has happened.
    pub fn factor_g(&self) -> Option<&Matrix> {
        self.g.as_ref()
    }

    /// The damped input factor `A + γI` ready for inversion (Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn damped_a(&self, gamma: f64) -> Matrix {
        self.a.as_ref().expect("no A statistics yet").damped(gamma)
    }

    /// The damped output factor `G + γI` ready for inversion (Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn damped_g(&self, gamma: f64) -> Matrix {
        self.g.as_ref().expect("no G statistics yet").damped(gamma)
    }

    /// Recomputes both damped factors' `L` locally.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::FactorInversion`] when a damped factor is not
    /// positive definite (damping too small); both `L` are then cleared.
    pub fn refresh_inverses(&mut self, gamma: f64) -> Result<(), KfacError> {
        let done = self
            .invert(FactorSide::A, gamma)
            .and_then(|()| self.invert(FactorSide::G, gamma));
        if done.is_err() {
            (self.a_chol, self.g_chol) = (None, None);
        }
        done
    }

    /// The running factor of `side` and its `L`.
    fn side_mut(&mut self, side: FactorSide) -> (&mut Option<Matrix>, &mut Option<Matrix>) {
        match side {
            FactorSide::A => (&mut self.a, &mut self.a_chol),
            FactorSide::G => (&mut self.g, &mut self.g_chol),
        }
    }

    /// Folds an aggregated statistic of `side`, given as its packed
    /// triangle (its slice of a factor message), into the running average
    /// in place; the first one is installed as it is.
    pub fn update_packed(&mut self, side: FactorSide, dim: usize, packed: &[f64], stat_decay: f64) {
        match self.side_mut(side).0 {
            Some(f) => f.ema_update_packed(stat_decay, packed),
            slot => *slot = Some(SymPacked::unpack(dim, packed)),
        }
    }

    /// "Inverts" the damped factor of `side` (Eq. 12): factors `F + γI`
    /// into its `L`, in `L`'s storage, which only the first call
    /// allocates.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::FactorInversion`] when the damped factor is not
    /// positive definite; the `L` of `side` is then cleared.
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn invert(&mut self, side: FactorSide, gamma: f64) -> Result<(), KfacError> {
        let layer = self.layer;
        let (factor, slot) = self.side_mut(side);
        let l = slot.get_or_insert_with(|| Matrix::zeros(0, 0));
        factor
            .as_ref()
            .expect("no statistics yet")
            .damped_into(gamma, l);
        chol::cholesky_in_place(l).map_err(|source| {
            *slot = None;
            KfacError::FactorInversion {
                layer,
                factor: side,
                source,
            }
        })
    }

    /// Packs the `L` of `side` into its wire form, `dst` (a broadcast's
    /// payload): its lower triangle ([`chol::pack_factor_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `side` has no `L` yet.
    pub fn pack_chol_into(&self, side: FactorSide, dst: &mut [f64]) {
        let l = match side {
            FactorSide::A => &self.a_chol,
            FactorSide::G => &self.g_chol,
        };
        chol::pack_factor_into(l.as_ref().expect("factored"), dst);
    }

    /// Installs an externally-computed `L` of `side` from its packed wire
    /// form (a broadcast's payload), in its storage.
    pub fn set_chol_packed(&mut self, side: FactorSide, dim: usize, packed: &[f64]) {
        let l = self.side_mut(side).1;
        chol::unpack_factor_into(dim, packed, l.get_or_insert_with(|| Matrix::zeros(0, 0)));
    }

    /// Installs an externally-computed `L` of the damped `A`, in solve form.
    pub fn set_a_chol(&mut self, l: Matrix) {
        self.a_chol = Some(l);
    }

    /// Installs an externally-computed `L` of the damped `G`, in solve form.
    pub fn set_g_chol(&mut self, l: Matrix) {
        self.g_chol = Some(l);
    }

    /// Current `L` of the damped `A` in solve form, if computed.
    pub fn a_chol(&self) -> Option<&Matrix> {
        self.a_chol.as_ref()
    }

    /// Current `L` of the damped `G` in solve form, if computed.
    pub fn g_chol(&self) -> Option<&Matrix> {
        self.g_chol.as_ref()
    }

    /// Packs the running factors for the wire (`A` then `G`), as the factor
    /// all-reduce does.
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn packed_factors(&self) -> (SymPacked, SymPacked) {
        (
            SymPacked::from_matrix(self.a.as_ref().expect("no A statistics yet")),
            SymPacked::from_matrix(self.g.as_ref().expect("no G statistics yet")),
        )
    }

    /// Overwrites the running factors from packed wire buffers (the receive
    /// side of the factor all-reduce).
    pub fn set_factors_from_packed(&mut self, a: &SymPacked, g: &SymPacked) {
        self.a = Some(a.to_matrix());
        self.g = Some(g.to_matrix());
    }
}

/// Computes the local `A` factor from captured input rows:
/// `A = aᵀa / rows` (Eq. 7 averaged over batch × spatial positions).
pub fn local_factor_a(a_rows: &Matrix) -> Matrix {
    let mut a = Matrix::zeros(0, 0);
    local_factor_a_into(a_rows, &mut a);
    a
}

/// [`local_factor_a`] into `out`, its storage reused.
pub fn local_factor_a_into(a_rows: &Matrix, out: &mut Matrix) {
    a_rows.gramian_scaled_into(a_rows.rows() as f64, out);
}

/// Computes the local `G` factor from captured (mean-reduced) output-gradient
/// rows: `G = N²/rows · gᵀg` (Eq. 8 with per-sample rescaling, see
/// `spdkfac_nn::KfacCapture::factor_g`).
pub fn local_factor_g(g_rows: &Matrix, batch: usize) -> Matrix {
    let mut g = Matrix::zeros(0, 0);
    local_factor_g_into(g_rows, batch, &mut g);
    g
}

/// [`local_factor_g`] into `out`, its storage reused.
pub fn local_factor_g_into(g_rows: &Matrix, batch: usize, out: &mut Matrix) {
    let n = batch as f64;
    g_rows.gramian_scaled_into(g_rows.rows() as f64 / (n * n), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_tensor::rng::MatrixRng;

    fn capture(seed: u64) -> KfacCapture {
        let mut rng = MatrixRng::new(seed);
        KfacCapture {
            a_rows: rng.gaussian_matrix(16, 4),
            g_rows: rng.gaussian_matrix(16, 3),
            batch: 16,
        }
    }

    #[test]
    fn first_update_installs_factors() {
        let mut st = FactorState::new(0);
        let cap = capture(1);
        st.update_from_capture(&cap, 0.95);
        assert!(st.factor_a().unwrap().max_abs_diff(&cap.factor_a()) < 1e-15);
        assert!(st.factor_g().unwrap().max_abs_diff(&cap.factor_g()) < 1e-15);
    }

    #[test]
    fn ema_blends_second_update() {
        let mut st = FactorState::new(0);
        let c1 = capture(1);
        let c2 = capture(2);
        st.update_from_capture(&c1, 0.9);
        st.update_from_capture(&c2, 0.9);
        let mut expect = c1.factor_a().clone();
        expect.ema_update(0.9, &c2.factor_a());
        assert!(st.factor_a().unwrap().max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn inverses_satisfy_identity() {
        let mut st = FactorState::new(2);
        st.update_from_capture(&capture(3), 0.95);
        st.refresh_inverses(0.1).unwrap();
        // (F + γI) · L⁻ᵀL⁻¹ = I, applied through the solves.
        for (damped, l) in [
            (st.damped_a(0.1), st.a_chol().unwrap()),
            (st.damped_g(0.1), st.g_chol().unwrap()),
        ] {
            let (mut x, mut y) = (Matrix::identity(damped.rows()), Matrix::zeros(0, 0));
            chol::solve_into(l, chol::Side::Left, false, &mut x, &mut y);
            chol::solve_into(l, chol::Side::Left, true, &mut y, &mut x);
            let prod = damped.matmul(&x);
            assert!(prod.max_abs_diff(&Matrix::identity(damped.rows())) < 1e-8);
        }
    }

    #[test]
    fn inversion_error_names_layer() {
        let mut st = FactorState::new(7);
        // Rank-deficient A with zero damping fails.
        let cap = KfacCapture {
            a_rows: Matrix::from_rows(&[&[1.0, 2.0]]),
            g_rows: Matrix::from_rows(&[&[1.0]]),
            batch: 1,
        };
        st.update_from_capture(&cap, 0.95);
        let err = st.refresh_inverses(0.0).unwrap_err();
        match err {
            KfacError::FactorInversion { layer, .. } => assert_eq!(layer, 7),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn local_factor_helpers_match_capture_methods() {
        let cap = capture(9);
        assert!(local_factor_a(&cap.a_rows).max_abs_diff(&cap.factor_a()) < 1e-14);
        assert!(local_factor_g(&cap.g_rows, cap.batch).max_abs_diff(&cap.factor_g()) < 1e-14);
    }

    #[test]
    fn packed_roundtrip_preserves_factors() {
        let mut st = FactorState::new(0);
        st.update_from_capture(&capture(5), 0.95);
        let (pa, pg) = st.packed_factors();
        let mut st2 = FactorState::new(0);
        st2.set_factors_from_packed(&pa, &pg);
        assert!(st2.factor_a().unwrap().max_abs_diff(st.factor_a().unwrap()) < 1e-15);
        assert!(st2.factor_g().unwrap().max_abs_diff(st.factor_g().unwrap()) < 1e-15);
    }
}
