//! Running Kronecker-factor statistics and their damped Cholesky factors.

use crate::error::{FactorSide, KfacError};
use spdkfac_nn::KfacCapture;
use spdkfac_tensor::sym::packed_len;
use spdkfac_tensor::{chol, Matrix, SymPacked};

/// Per-layer Kronecker-factor state: exponential moving averages of
/// `A = E[a aᵀ]` and `G = E[ĝ ĝᵀ]`, kept as the packed upper triangles
/// the factor all-reduce delivers (§V-B), plus the Cholesky factors `L` of
/// their damped forms, `L Lᵀ = F + γI`, in the solve form the
/// preconditioner reads ([`chol::cholesky_in_place`]). "Inverting" a
/// factor (Eq. 12) means computing its `L`: the inverse itself is never
/// formed, and a running factor is expanded only into `L`'s storage.
#[derive(Debug, Clone)]
pub struct FactorState {
    layer: usize,
    a: Option<SymPacked>,
    g: Option<SymPacked>,
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
    /// `stat_decay` (first update installs the statistics directly),
    /// through the packed statistic and fold the distributed trainer runs.
    pub fn update_from_capture(&mut self, cap: &KfacCapture, stat_decay: f64) {
        let (da, dg) = cap.dims();
        let (mut scratch, mut stat) = (Matrix::zeros(0, 0), vec![0.0; packed_len(da)]);
        local_factor_a_into(&cap.a_rows, &mut scratch, &mut stat);
        self.update_packed(FactorSide::A, da, &stat, stat_decay);
        stat.resize(packed_len(dg), 0.0);
        local_factor_g_into(&cap.g_rows, cap.batch, &mut scratch, &mut stat);
        self.update_packed(FactorSide::G, dg, &stat, stat_decay);
    }

    /// Current running factor `A`, if any update has happened.
    pub fn factor_a(&self) -> Option<&SymPacked> {
        self.a.as_ref()
    }

    /// Current running factor `G`, if any update has happened.
    pub fn factor_g(&self) -> Option<&SymPacked> {
        self.g.as_ref()
    }

    /// The damped input factor `A + γI`, expanded (Eq. 12) — the oracle the
    /// tests check `L` against.
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    #[cfg(test)]
    pub fn damped_a(&self, gamma: f64) -> Matrix {
        damped(self.a.as_ref().expect("no A statistics yet"), gamma)
    }

    /// The damped output factor `G + γI`, expanded (Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    #[cfg(test)]
    pub fn damped_g(&self, gamma: f64) -> Matrix {
        damped(self.g.as_ref().expect("no G statistics yet"), gamma)
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
    fn side_mut(&mut self, side: FactorSide) -> (&mut Option<SymPacked>, &mut Option<Matrix>) {
        match side {
            FactorSide::A => (&mut self.a, &mut self.a_chol),
            FactorSide::G => (&mut self.g, &mut self.g_chol),
        }
    }

    /// Folds an aggregated statistic of `side`, given as its packed
    /// triangle (its slice of a factor message), into the running average
    /// in one contiguous pass; the first one is installed as it is.
    pub fn update_packed(&mut self, side: FactorSide, dim: usize, packed: &[f64], stat_decay: f64) {
        match self.side_mut(side).0 {
            Some(f) => f.ema_update(stat_decay, packed),
            slot => *slot = Some(SymPacked::from_vec(dim, packed.to_vec())),
        }
    }

    /// "Inverts" the damped factor of `side` (Eq. 12): expands `F + γI`
    /// into `L`'s storage, which only the first call allocates, and
    /// factors it there.
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
}

/// `F + γI` of a packed running factor, expanded.
#[cfg(test)]
fn damped(f: &SymPacked, gamma: f64) -> Matrix {
    let mut m = Matrix::zeros(0, 0);
    f.damped_into(gamma, &mut m);
    m
}

/// The local `A` statistic `aᵀa / rows` (Eq. 7 averaged over batch ×
/// spatial positions) from captured input rows, packed into `dst` (e.g.
/// its slice of a factor message), with `scratch` as the product's
/// workspace ([`Matrix::gramian_packed_into`]).
pub fn local_factor_a_into(a_rows: &Matrix, scratch: &mut Matrix, dst: &mut [f64]) {
    a_rows.gramian_packed_into(a_rows.rows() as f64, scratch, dst);
}

/// The local `G` statistic `N²/rows · gᵀg` (Eq. 8 with per-sample
/// rescaling, see `spdkfac_nn::KfacCapture::factor_g`) from captured
/// (mean-reduced) output-gradient rows, packed into `dst` as
/// [`local_factor_a_into`] does.
pub fn local_factor_g_into(g_rows: &Matrix, batch: usize, scratch: &mut Matrix, dst: &mut [f64]) {
    let n = batch as f64;
    g_rows.gramian_packed_into(g_rows.rows() as f64 / (n * n), scratch, dst);
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn first_update_installs_factors() {
        let mut st = FactorState::new(0);
        let cap = capture(1);
        st.update_from_capture(&cap, 0.95);
        assert_eq!(
            st.factor_a(),
            Some(&SymPacked::from_matrix(&cap.factor_a()))
        );
        assert_eq!(
            st.factor_g(),
            Some(&SymPacked::from_matrix(&cap.factor_g()))
        );
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
        assert_eq!(st.factor_a().unwrap().to_matrix(), expect);
    }

    #[test]
    fn k_packed_statistics_factor_to_the_dense_paths_bits() {
        // The oracle is the dense path the running factors used to take: a
        // mirrored, scaled Gramian, folded by `Matrix::ema_update`, damped
        // by `Matrix::damped_into`, factored in place.
        let mut rng = MatrixRng::new(41);
        let (rows, da, dg, batch, decay, gamma) = (9, 70, 33, 3, 0.9, 0.05);
        let n = batch as f64;
        let mut st = FactorState::new(0);
        let (mut dense_a, mut dense_g) = (None::<Matrix>, None::<Matrix>);
        let fold = |running: &mut Option<Matrix>, fresh: Matrix| match running {
            Some(f) => f.ema_update(decay, &fresh),
            None => *running = Some(fresh),
        };
        let mut scratch = Matrix::zeros(0, 0);
        let (mut sa, mut sg) = (vec![0.0; packed_len(da)], vec![0.0; packed_len(dg)]);
        for _ in 0..5 {
            let (xa, xg) = (rng.gaussian_matrix(rows, da), rng.gaussian_matrix(rows, dg));
            local_factor_a_into(&xa, &mut scratch, &mut sa);
            st.update_packed(FactorSide::A, da, &sa, decay);
            local_factor_g_into(&xg, batch, &mut scratch, &mut sg);
            st.update_packed(FactorSide::G, dg, &sg, decay);
            fold(&mut dense_a, xa.gramian_scaled(rows as f64));
            fold(&mut dense_g, xg.gramian_scaled(rows as f64 / (n * n)));
        }
        st.refresh_inverses(gamma).unwrap();
        for (got, dense) in [(st.a_chol(), dense_a), (st.g_chol(), dense_g)] {
            let mut l = Matrix::zeros(0, 0);
            dense.unwrap().damped_into(gamma, &mut l);
            chol::cholesky_in_place(&mut l).unwrap();
            assert_eq!(bits(got.unwrap().as_slice()), bits(l.as_slice()));
        }
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
        let (da, dg) = cap.dims();
        let mut scratch = Matrix::zeros(0, 0);
        let (mut a, mut g) = (vec![0.0; packed_len(da)], vec![0.0; packed_len(dg)]);
        local_factor_a_into(&cap.a_rows, &mut scratch, &mut a);
        local_factor_g_into(&cap.g_rows, cap.batch, &mut scratch, &mut g);
        assert_eq!(
            bits(&a),
            bits(SymPacked::from_matrix(&cap.factor_a()).as_slice())
        );
        assert_eq!(
            bits(&g),
            bits(SymPacked::from_matrix(&cap.factor_g()).as_slice())
        );
    }
}
