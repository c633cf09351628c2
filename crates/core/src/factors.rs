//! Running Kronecker-factor statistics and their damped Cholesky factors.

use crate::error::{FactorSide, KfacError};
use spdkfac_nn::KfacCapture;
use spdkfac_tensor::gemm::mirror_upper;
use spdkfac_tensor::matrix::ema;
use spdkfac_tensor::sym::packed_len;
use spdkfac_tensor::{chol, Matrix, SymPacked, TensorError};

/// Per-layer Kronecker-factor state: exponential moving averages of
/// `A = E[a aᵀ]` and `G = E[ĝ ĝᵀ]`, folded from the packed triangles the
/// factor all-reduce delivers (§V-B), plus the Cholesky factors `L` of
/// their damped forms, `L Lᵀ = F + γI`, in the solve form the
/// preconditioner reads ([`chol::cholesky_in_place`]). "Inverting" a
/// factor (Eq. 12) means computing its `L`: the inverse itself is never
/// formed. Each factor and its `L` share one `n × n` square: the
/// running factor above the diagonal, `L` on and below it.
#[derive(Debug, Clone)]
pub struct FactorState {
    layer: usize,
    a: Factor,
    g: Factor,
}

/// One Kronecker factor in one `n × n` square. The strict upper triangle
/// holds the running average `F` (its diagonal sits in `diag`), and the
/// lower triangle `L` of `F + γI` in solve form. POTRF references only
/// the lower triangle ([`chol`] module docs), so the two halves never
/// overwrite each other: a fold between refreshes keeps `L`, and a
/// broadcast `L` keeps `F`. A refresh mirrors `F` onto the lower triangle,
/// puts `diag + γ` on the diagonal and factors there.
#[derive(Debug, Clone)]
struct Factor {
    square: Matrix,
    diag: Vec<f64>,
    /// The upper triangle and `diag` hold `F`.
    averaged: bool,
    /// The lower triangle holds `L`.
    factored: bool,
}

impl Factor {
    fn new() -> Factor {
        Factor {
            square: Matrix::zeros(0, 0),
            diag: Vec::new(),
            averaged: false,
            factored: false,
        }
    }

    /// The square at `dim`, allocated on first use.
    fn sized(&mut self, dim: usize) -> &mut Factor {
        if self.square.shape() != (dim, dim) {
            *self = Factor {
                square: Matrix::zeros(dim, dim),
                diag: vec![0.0; dim],
                ..Factor::new()
            };
        }
        self
    }

    /// Folds packed row `i` into `diag[i]` and row `i` of the square right
    /// of the diagonal, each element as [`Matrix::ema_update`] folds it;
    /// the first statistic is installed as it is.
    fn fold(&mut self, dim: usize, packed: &[f64], decay: f64) {
        assert_eq!(
            packed.len(),
            packed_len(dim),
            "a statistic of dim {dim} is {} elements",
            packed.len()
        );
        let Factor {
            square,
            diag,
            averaged,
            ..
        } = self.sized(dim);
        let (mut rest, rows) = (packed, square.as_mut_slice().chunks_exact_mut(dim.max(1)));
        for (i, (row, d)) in rows.zip(diag).enumerate() {
            let (head, tail) = rest.split_at(dim - i);
            rest = tail;
            let (upper, off) = (&mut row[i + 1..], &head[1..]);
            if *averaged {
                *d = ema(decay, *d, head[0]);
                for (f, &p) in upper.iter_mut().zip(off) {
                    *f = ema(decay, *f, p);
                }
            } else {
                *d = head[0];
                upper.copy_from_slice(off);
            }
        }
        *averaged = true;
    }

    /// `F + γI` expanded over the lower triangle, then POTRF there.
    fn invert(&mut self, gamma: f64) -> Result<(), TensorError> {
        assert!(self.averaged, "no statistics yet");
        let n = self.diag.len();
        let w = self.square.as_mut_slice();
        mirror_upper(w, n);
        for (i, &d) in self.diag.iter().enumerate() {
            w[i * n + i] = d + gamma;
        }
        let done = chol::cholesky_in_place(&mut self.square);
        self.factored = done.is_ok();
        done
    }

    /// `F`, packed, if it has been installed.
    fn running(&self) -> Option<SymPacked> {
        let n = self.diag.len();
        self.averaged.then(|| {
            let mut packed = Vec::with_capacity(packed_len(n));
            for (i, row) in self.square.as_slice().chunks_exact(n.max(1)).enumerate() {
                packed.push(self.diag[i]);
                packed.extend_from_slice(&row[i + 1..]);
            }
            SymPacked::from_vec(n, packed)
        })
    }

    fn chol(&self) -> Option<&Matrix> {
        self.factored.then_some(&self.square)
    }
}

impl FactorState {
    /// Creates empty state for preconditionable layer `layer`.
    pub fn new(layer: usize) -> Self {
        FactorState {
            layer,
            a: Factor::new(),
            g: Factor::new(),
        }
    }

    /// The layer index this state belongs to.
    pub fn layer(&self) -> usize {
        self.layer
    }

    fn side(&self, side: FactorSide) -> &Factor {
        match side {
            FactorSide::A => &self.a,
            FactorSide::G => &self.g,
        }
    }

    fn side_mut(&mut self, side: FactorSide) -> &mut Factor {
        match side {
            FactorSide::A => &mut self.a,
            FactorSide::G => &mut self.g,
        }
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

    /// A packed copy of the running factor of `side`, if any update has
    /// happened.
    pub fn running_factor(&self, side: FactorSide) -> Option<SymPacked> {
        self.side(side).running()
    }

    /// The damped factor `F + γI` of `side`, expanded (Eq. 12) — the
    /// oracle the tests check `L` against.
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    #[cfg(test)]
    pub fn damped(&self, side: FactorSide, gamma: f64) -> Matrix {
        let f = self.running_factor(side).expect("no statistics yet");
        let mut m = f.to_matrix();
        m.add_scaled_identity(gamma);
        m
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
            (self.a.factored, self.g.factored) = (false, false);
        }
        done
    }

    /// Folds an aggregated statistic of `side`, given as its packed
    /// triangle (its slice of a factor message), into the running average
    /// in one contiguous pass over the upper triangle of the factor's
    /// square; the first one is installed as it is. `L` is not touched.
    pub fn update_packed(&mut self, side: FactorSide, dim: usize, packed: &[f64], stat_decay: f64) {
        self.side_mut(side).fold(dim, packed, stat_decay);
    }

    /// "Inverts" the damped factor of `side` (Eq. 12): mirrors `F` onto
    /// the lower triangle of its square, damps the diagonal and factors
    /// there. `F` is not touched.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::FactorInversion`] when the damped factor is not
    /// positive definite; `side` then has no `L`.
    ///
    /// # Panics
    ///
    /// Panics if no statistics have been accumulated yet.
    pub fn invert(&mut self, side: FactorSide, gamma: f64) -> Result<(), KfacError> {
        let layer = self.layer;
        self.side_mut(side)
            .invert(gamma)
            .map_err(|source| KfacError::FactorInversion {
                layer,
                factor: side,
                source,
            })
    }

    /// Packs the `L` of `side` into its wire form, `dst` (a broadcast's
    /// payload): its lower triangle ([`chol::pack_factor_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `side` has no `L` yet.
    pub fn pack_chol_into(&self, side: FactorSide, dst: &mut [f64]) {
        chol::pack_factor_into(self.chol(side).expect("factored"), dst);
    }

    /// Installs an externally-computed `L` of `side` from its packed wire
    /// form (a broadcast's payload) over the lower triangle of its square.
    pub fn set_chol_packed(&mut self, side: FactorSide, dim: usize, packed: &[f64]) {
        let f = self.side_mut(side).sized(dim);
        chol::unpack_factor_into(dim, packed, &mut f.square);
        f.factored = true;
    }

    /// Installs an externally-computed `L` of `side`, in solve form: the
    /// lower triangle of `l` (square) over that of the factor's square.
    pub fn set_chol(&mut self, side: FactorSide, l: &Matrix) {
        let n = l.rows();
        assert!(l.is_square(), "an L is square, not {:?}", l.shape());
        let f = self.side_mut(side).sized(n);
        let rows = f.square.as_mut_slice().chunks_exact_mut(n.max(1));
        for (i, (dst, src)) in rows.zip(l.as_slice().chunks_exact(n.max(1))).enumerate() {
            dst[..=i].copy_from_slice(&src[..=i]);
        }
        f.factored = true;
    }

    /// The square whose lower triangle is `L` of the damped factor of
    /// `side` in solve form, once computed. Its strict upper triangle
    /// holds the running factor: read the lower triangle only, as
    /// [`chol::solve_into`] does.
    pub fn chol(&self, side: FactorSide) -> Option<&Matrix> {
        self.side(side).chol()
    }
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

    /// Bits of the lower triangle of the square `m`, row by row.
    fn lower_bits(m: &Matrix) -> Vec<u64> {
        let mut packed = vec![0.0; packed_len(m.rows())];
        chol::pack_factor_into(m, &mut packed);
        bits(&packed)
    }

    #[test]
    fn first_update_installs_factors() {
        let mut st = FactorState::new(0);
        let cap = capture(1);
        st.update_from_capture(&cap, 0.95);
        assert_eq!(
            st.running_factor(FactorSide::A),
            Some(SymPacked::from_matrix(&cap.factor_a()))
        );
        assert_eq!(
            st.running_factor(FactorSide::G),
            Some(SymPacked::from_matrix(&cap.factor_g()))
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
        let got = st.running_factor(FactorSide::A).unwrap().to_matrix();
        assert_eq!(bits(got.as_slice()), bits(expect.as_slice()));
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
        for (side, dense) in [(FactorSide::A, dense_a), (FactorSide::G, dense_g)] {
            let mut l = Matrix::zeros(0, 0);
            dense.unwrap().damped_into(gamma, &mut l);
            chol::cholesky_in_place(&mut l).unwrap();
            assert_eq!(lower_bits(st.chol(side).unwrap()), lower_bits(&l));
        }
    }

    /// The packed-`F` + dense-`L` layout the square replaces, kept as its
    /// oracle: `F` folded element by element in its packed triangle, `L`
    /// expanded from it into a square of its own and factored there.
    #[derive(Default)]
    struct Oracle {
        f: Vec<f64>,
        l: Option<Matrix>,
    }

    impl Oracle {
        fn fold(&mut self, packed: &[f64], decay: f64) {
            if self.f.is_empty() {
                self.f = packed.to_vec();
            } else {
                for (f, &p) in self.f.iter_mut().zip(packed) {
                    *f = ema(decay, *f, p);
                }
            }
        }

        fn invert(&mut self, dim: usize, gamma: f64) -> bool {
            let mut l = SymPacked::unpack(dim, &self.f);
            l.add_scaled_identity(gamma);
            self.l = chol::cholesky_in_place(&mut l).ok().map(|()| l);
            self.l.is_some()
        }
    }

    /// Fold, refresh and precondition over seven iterations, refreshing
    /// every one and every third, with a broadcast `L` installed between
    /// refreshes and a failed inversion the next refresh recovers from:
    /// `F`, `L` and the directions are the oracle's to the bit throughout.
    #[test]
    fn the_factor_square_tracks_the_packed_f_and_dense_l_oracle_bit_for_bit() {
        use crate::precond::{precondition_bias, precondition_weight};
        use spdkfac_tensor::kron::precondition_gradient_chol_in_place;
        // A spans two solve blocks, so POTRF joins through its scratch.
        let (da, dg, rows, decay) = (130, 33, 40, 0.9);
        for freq in [1, 3] {
            let mut rng = MatrixRng::new(70 + freq as u64);
            let mut st = FactorState::new(0);
            let mut oracle: [Oracle; 2] = Default::default();
            let mut scratch = Matrix::zeros(0, 0);
            let sides = [(FactorSide::A, da), (FactorSide::G, dg)];
            for it in 0..7 {
                for (k, (side, dim)) in sides.into_iter().enumerate() {
                    let mut stat = vec![0.0; packed_len(dim)];
                    local_factor_a_into(&rng.gaussian_matrix(rows, dim), &mut scratch, &mut stat);
                    st.update_packed(side, dim, &stat, decay);
                    oracle[k].fold(&stat, decay);
                }
                if it % freq == 0 {
                    // A damping that fails at the first pivot, once.
                    let gamma = if it == 3 { -1e3 } else { 0.01 };
                    let done = st.refresh_inverses(gamma).is_ok();
                    let want = oracle[0].invert(da, gamma) && oracle[1].invert(dg, gamma);
                    if !want {
                        oracle[0].l = None;
                        oracle[1].l = None;
                    }
                    assert_eq!(done, want, "freq {freq} iteration {it}");
                }
                if it == 1 {
                    // `G`'s owner broadcast an `L` of its own.
                    let mut l = rng.spd_matrix(dg, 0.5);
                    chol::cholesky_in_place(&mut l).unwrap();
                    let mut wire = vec![0.0; packed_len(dg)];
                    chol::pack_factor_into(&l, &mut wire);
                    st.set_chol_packed(FactorSide::G, dg, &wire);
                    oracle[1].l = Some(l);
                }
                for (k, (side, dim)) in sides.into_iter().enumerate() {
                    let got = st.running_factor(side).unwrap();
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&oracle[k].f),
                        "freq {freq} it {it} F"
                    );
                    assert_eq!(got.dim(), dim);
                    assert_eq!(
                        st.chol(side).map(lower_bits),
                        oracle[k].l.as_ref().map(lower_bits),
                        "freq {freq} it {it} L"
                    );
                }
                let (grad, bias) = (rng.gaussian_matrix(dg, da), rng.gaussian_matrix(dg, 1));
                let (mut want, mut want_b) = (grad.clone(), bias.clone());
                if let [Oracle { l: Some(la), .. }, Oracle { l: Some(lg), .. }] = &oracle {
                    precondition_gradient_chol_in_place(&mut want, la, lg, &mut scratch);
                    chol::solve_into(lg, chol::Side::Left, false, &mut want_b, &mut scratch);
                    chol::solve_into(lg, chol::Side::Left, true, &mut scratch, &mut want_b);
                }
                let got = precondition_weight(&st, &grad);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "freq {freq} it {it}"
                );
                let got = precondition_bias(&st, &bias);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want_b.as_slice()),
                    "freq {freq} it {it}"
                );
            }
        }
    }

    #[test]
    fn inverses_satisfy_identity() {
        let mut st = FactorState::new(2);
        st.update_from_capture(&capture(3), 0.95);
        st.refresh_inverses(0.1).unwrap();
        // (F + γI) · L⁻ᵀL⁻¹ = I, applied through the solves.
        for side in [FactorSide::A, FactorSide::G] {
            let (damped, l) = (st.damped(side, 0.1), st.chol(side).unwrap());
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
        assert!(st.chol(FactorSide::A).is_none() && st.chol(FactorSide::G).is_none());
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
