//! Elastic-runtime state handoff: a bit-exact, flat-`f64` checkpoint of one
//! rank's full training state, and the policy knobs of the elastic driver.
//!
//! ## Why a flat `f64` vector
//!
//! The handoff travels over the *existing* collectives (a broadcast from the
//! surviving rank 0 after each membership-epoch transition), whose payload
//! type is `Vec<f64>`. Packing into `f64` keeps the transfer on the exact
//! code path every other byte of training data takes — timeouts, wire
//! accounting, flight-recorder spans all included — at zero new transport
//! surface. All counts and dimensions are small integers, which `f64`
//! represents exactly (< 2⁵³), and payload values are `f64` already, so the
//! round-trip is **bit-exact** (proptest-asserted, NaN payloads included).
//!
//! ## SPMD safety across epochs
//!
//! K-FAC's factor state is *replicated* on every rank (factors are
//! all-reduced, their Cholesky factors broadcast), so any survivor holds the full
//! authoritative state. After a resize, rank 0 of the new epoch broadcasts
//! this checkpoint and **every** rank — survivor or joiner — restores from
//! it. Survivors don't strictly need the data, but restoring everyone from
//! one buffer re-establishes bit-identical replicas by construction, which
//! is what makes the next epoch's collectives SPMD-safe (DESIGN §2.15).

use crate::error::FactorSide;
use crate::factors::FactorState;
use spdkfac_collectives::TcpConfig;
use spdkfac_nn::optim::Sgd;
use spdkfac_nn::Sequential;
use spdkfac_tensor::{Matrix, SymPacked};
use std::fmt;

/// The `"ELCK"` tag above the version byte of [`PACK_MAGIC`].
const PACK_TAG: u64 = 0x0045_4C43_4B00;

/// The format version this build packs and unpacks. Version 1 held the
/// damped inverses in a factor's slots, version 2 the running factors as
/// dense matrices and version 3 an EKFAC section after the factors; version
/// 4 held the Cholesky factors with 24-wide inverted diagonal blocks.
/// Version 5 holds the running factors as their packed triangles and the
/// Cholesky factors of their damped forms in solve form at
/// [`spdkfac_tensor::chol::SOLVE_NB`], and nothing after them, so no older
/// stream may be installed.
const PACK_VERSION: u64 = 5;

/// Schema tag leading every packed checkpoint (`"ELCK"` + version).
const PACK_MAGIC: f64 = (PACK_TAG | PACK_VERSION) as f64;

/// Why [`TrainCheckpoint::unpack`] refused a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// A checkpoint of another format version (e.g. version 1, whose
    /// factor slots hold inverses where this one expects `L`, version 2,
    /// whose running factors are dense where this one expects packed
    /// triangles, version 3, which carries an EKFAC section, or version 4,
    /// whose `L` has other inverted diagonal blocks).
    Version {
        /// The version the buffer was packed with.
        found: u64,
        /// The version this build reads.
        expected: u64,
    },
    /// Not a well-formed checkpoint: the first structural violation (bad
    /// magic, truncated section, absurd count, trailing values).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Version { found, expected } => {
                write!(f, "checkpoint format version {found}, expected {expected}")
            }
            CheckpointError::Malformed(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<String> for CheckpointError {
    fn from(what: String) -> Self {
        CheckpointError::Malformed(what)
    }
}

/// One preconditionable layer's factor snapshot inside a
/// [`TrainCheckpoint`]: the EMA factors and the Cholesky factors of their
/// damped forms, each absent until the training loop first produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorCheckpoint {
    /// Network layer index this state belongs to.
    pub layer: usize,
    /// Running `A` EMA, as its packed triangle.
    pub a: Option<SymPacked>,
    /// Running `G` EMA, as its packed triangle.
    pub g: Option<SymPacked>,
    /// `L` of the damped `A`, in solve form
    /// ([`spdkfac_tensor::chol::cholesky_in_place`]).
    pub a_chol: Option<Matrix>,
    /// `L` of the damped `G`, in solve form.
    pub g_chol: Option<Matrix>,
}

impl FactorCheckpoint {
    /// Snapshots one layer's [`FactorState`]: each running factor packed
    /// out of the upper triangle of its square, each `L` out of the lower
    /// one, with a zero upper triangle.
    pub fn capture(st: &FactorState) -> FactorCheckpoint {
        let l = |side| {
            let sq: &Matrix = st.chol(side)?;
            let lower = |i, j| if j <= i { sq[(i, j)] } else { 0.0 };
            Some(Matrix::from_fn(sq.rows(), sq.cols(), lower))
        };
        FactorCheckpoint {
            layer: st.layer(),
            a: st.running_factor(FactorSide::A),
            g: st.running_factor(FactorSide::G),
            a_chol: l(FactorSide::A),
            g_chol: l(FactorSide::G),
        }
    }

    /// Rebuilds a [`FactorState`] holding exactly this snapshot: both
    /// halves of each factor's square written back.
    ///
    /// # Panics
    ///
    /// Panics if an `L` is not square or not its factor's size: the two
    /// share one square.
    pub fn restore(&self) -> FactorState {
        let mut st = FactorState::new(self.layer);
        let sides = [
            (FactorSide::A, &self.a, &self.a_chol),
            (FactorSide::G, &self.g, &self.g_chol),
        ];
        for (side, f, l) in sides {
            // The first update installs the factor as it is (no EMA blend).
            if let Some(f) = f {
                st.update_packed(side, f.dim(), f.as_slice(), 0.0);
            }
            if let Some(l) = l {
                let dim = f.as_ref().map_or(l.rows(), SymPacked::dim);
                assert_eq!(l.shape(), (dim, dim), "layer {}: L of {side:?}", self.layer);
                st.set_chol(side, l);
            }
        }
        st
    }
}

/// Complete optimizer + factor state of one rank at an iteration boundary —
/// everything a fresh process needs to continue the run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Next iteration to execute (all prior iterations are complete).
    pub iter: usize,
    /// Globally-averaged losses of the completed iterations.
    pub losses: Vec<f64>,
    /// Flattened model parameters ([`Sequential::flat_params`] order).
    pub params: Vec<f64>,
    /// SGD momentum buffers (positional; empty before the first step).
    pub velocity: Vec<Matrix>,
    /// Per-preconditionable-layer factor state, layer order.
    pub factors: Vec<FactorCheckpoint>,
}

impl TrainCheckpoint {
    /// Snapshots a rank's live training state. `states` are the trainer's
    /// factor states; `net`/`sgd` contribute parameters and momentum.
    pub fn capture(
        iter: usize,
        losses: &[f64],
        net: &Sequential,
        sgd: &Sgd,
        states: &[FactorState],
    ) -> TrainCheckpoint {
        TrainCheckpoint {
            iter,
            losses: losses.to_vec(),
            params: net.flat_params(),
            velocity: sgd.velocity().to_vec(),
            factors: states.iter().map(FactorCheckpoint::capture).collect(),
        }
    }

    /// Serializes to the flat `f64` wire vector. Inverse of
    /// [`TrainCheckpoint::unpack`]; bit-exact round trip.
    pub fn pack(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(64 + self.params.len() + self.losses.len());
        out.push(PACK_MAGIC);
        out.push(self.iter as f64);
        pack_vec(&mut out, &self.losses);
        pack_vec(&mut out, &self.params);
        out.push(self.velocity.len() as f64);
        for m in &self.velocity {
            pack_matrix(&mut out, m);
        }
        out.push(self.factors.len() as f64);
        for f in &self.factors {
            out.push(f.layer as f64);
            pack_opt_packed(&mut out, f.a.as_ref());
            pack_opt_packed(&mut out, f.g.as_ref());
            pack_opt_matrix(&mut out, f.a_chol.as_ref());
            pack_opt_matrix(&mut out, f.g_chol.as_ref());
        }
        out
    }

    /// Deserializes a [`TrainCheckpoint::pack`] vector.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Version`] for a checkpoint of another format
    /// version, [`CheckpointError::Malformed`] with the first structural
    /// violation otherwise — either of which on the elastic path means the
    /// joiner must abort.
    pub fn unpack(data: &[f64]) -> Result<TrainCheckpoint, CheckpointError> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.f64()?;
        if magic.to_bits() != PACK_MAGIC.to_bits() {
            let tag = magic as u64;
            return Err(if tag & !0xFF == PACK_TAG && tag as f64 == magic {
                CheckpointError::Version {
                    found: tag & 0xFF,
                    expected: PACK_VERSION,
                }
            } else {
                format!("checkpoint magic mismatch: {magic}").into()
            });
        }
        let iter = r.count("iter")?;
        let losses = r.vec("losses")?;
        let params = r.vec("params")?;
        let nv = r.count("velocity count")?;
        let mut velocity = Vec::with_capacity(r.capped(nv));
        for _ in 0..nv {
            velocity.push(r.matrix("velocity")?);
        }
        let nf = r.count("factor count")?;
        let mut factors = Vec::with_capacity(r.capped(nf));
        for _ in 0..nf {
            factors.push(FactorCheckpoint {
                layer: r.count("factor layer")?,
                a: r.opt_packed("factor A")?,
                g: r.opt_packed("factor G")?,
                a_chol: r.opt_matrix("factor L_A")?,
                g_chol: r.opt_matrix("factor L_G")?,
            });
        }
        if r.pos != data.len() {
            return Err(format!("checkpoint has {} trailing values", data.len() - r.pos).into());
        }
        Ok(TrainCheckpoint {
            iter,
            losses,
            params,
            velocity,
            factors,
        })
    }
}

/// The zeroed buffer a handoff receiver lands a checkpoint of `len`
/// values in, `len` being the length the sender broadcast first.
///
/// # Errors
///
/// [`CheckpointError::Malformed`] when `len` is not a count a checkpoint
/// can have (not finite, not integral, negative or absurdly large) or the
/// buffer cannot be allocated — never a panic or an abort.
pub(crate) fn handoff_buffer(len: f64) -> Result<Vec<f64>, CheckpointError> {
    let len = Reader {
        data: &[len],
        pos: 0,
    }
    .count("length")?;
    let mut buf = Vec::new();
    buf.try_reserve_exact(len)
        .map_err(|e| format!("checkpoint of {len} values: {e}"))?;
    buf.resize(len, 0.0);
    Ok(buf)
}

fn pack_vec(out: &mut Vec<f64>, v: &[f64]) {
    out.push(v.len() as f64);
    out.extend_from_slice(v);
}

fn pack_matrix(out: &mut Vec<f64>, m: &Matrix) {
    out.push(m.rows() as f64);
    out.push(m.cols() as f64);
    out.extend_from_slice(m.as_slice());
}

fn pack_opt_packed(out: &mut Vec<f64>, p: Option<&SymPacked>) {
    match p {
        None => out.push(0.0),
        Some(p) => {
            out.push(1.0);
            out.push(p.dim() as f64);
            out.extend_from_slice(p.as_slice());
        }
    }
}

fn pack_opt_matrix(out: &mut Vec<f64>, m: Option<&Matrix>) {
    match m {
        None => out.push(0.0),
        Some(m) => {
            out.push(1.0);
            pack_matrix(out, m);
        }
    }
}

struct Reader<'a> {
    data: &'a [f64],
    pos: usize,
}

/// Sections are length-prefixed with exact small integers; anything else in
/// a count slot means a torn or foreign buffer.
const MAX_COUNT: f64 = (1u64 << 40) as f64;

impl Reader<'_> {
    fn f64(&mut self) -> Result<f64, String> {
        let v = self
            .data
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("checkpoint truncated at {}", self.pos))?;
        self.pos += 1;
        Ok(v)
    }

    fn count(&mut self, what: &str) -> Result<usize, String> {
        let v = self.f64()?;
        if !(0.0..MAX_COUNT).contains(&v) || v.fract() != 0.0 {
            return Err(format!("checkpoint {what} of {v} is not a count"));
        }
        Ok(v as usize)
    }

    /// A pre-allocation for `n` sections: every section takes at least one
    /// value, so a count the rest of the stream cannot back reserves no more
    /// than that rest.
    fn capped(&self, n: usize) -> usize {
        n.min(self.data.len() - self.pos)
    }

    fn tag(&mut self, what: &str) -> Result<bool, String> {
        let v = self.f64()?;
        if v == 0.0 {
            Ok(false)
        } else if v == 1.0 {
            Ok(true)
        } else {
            Err(format!("checkpoint {what} of {v} is not 0/1"))
        }
    }

    fn slice(&mut self, n: usize, what: &str) -> Result<&[f64], String> {
        if n > self.data.len() - self.pos {
            return Err(format!("checkpoint {what} truncated"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn vec(&mut self, what: &str) -> Result<Vec<f64>, String> {
        let n = self.count(what)?;
        Ok(self.slice(n, what)?.to_vec())
    }

    fn matrix(&mut self, what: &str) -> Result<Matrix, String> {
        let rows = self.count(what)?;
        let cols = self.count(what)?;
        let n = rows
            .checked_mul(cols)
            .ok_or(format!("checkpoint {what} too large"))?;
        let data = self.slice(n, what)?.to_vec();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn opt_packed(&mut self, what: &str) -> Result<Option<SymPacked>, String> {
        if !self.tag(what)? {
            return Ok(None);
        }
        let dim = self.count(what)?;
        let n = dim
            .checked_mul(dim + 1)
            .ok_or(format!("checkpoint {what} too large"))?
            / 2;
        Ok(Some(SymPacked::from_vec(
            dim,
            self.slice(n, what)?.to_vec(),
        )))
    }

    fn opt_matrix(&mut self, what: &str) -> Result<Option<Matrix>, String> {
        Ok(match self.tag(what)? {
            false => None,
            true => Some(self.matrix(what)?),
        })
    }
}

/// One stable-membership interval of an elastic run: the world held `world`
/// ranks from iteration `from_iter` until the next span (or the end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipSpan {
    /// Membership epoch of this interval.
    pub epoch: u64,
    /// World size during the interval.
    pub world: usize,
    /// First iteration executed under this epoch.
    pub from_iter: usize,
}

/// Elastic-driver knobs for a [`TrainSession`](crate::distributed::TrainSession).
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// The long-lived rendezvous to join
    /// ([`spdkfac_collectives::tcp::RendezvousServer::serve`]), the rank to
    /// claim as a founder ([`TcpConfig::rank`]; `None` = arrival order,
    /// ignored on rejoin, where survivor order rules) and the ring wiring
    /// parameters.
    pub tcp: TcpConfig,
    /// Poll the rendezvous for pending joiners every this many iterations
    /// (rank 0 only; the verdict rides the loss all-reduce so every rank
    /// agrees). 0 disables planned grows — only failures trigger resizes.
    pub poll_every: usize,
    /// Abort after this many membership epochs (runaway churn guard).
    pub max_epochs: u64,
    /// Stop (with an error) rather than continue below this world size.
    pub min_world: usize,
    /// Leave the group voluntarily after completing this iteration count:
    /// the worker drops its endpoint and returns without rejoining. The
    /// graceful half of fault injection — peers observe it exactly like a
    /// crash. `None` = run to completion.
    pub leave_after: Option<usize>,
}

impl ElasticPolicy {
    /// Defaults: poll every iteration, 16 epochs max, shrink floor 1.
    pub fn new(tcp: TcpConfig) -> ElasticPolicy {
        ElasticPolicy {
            tcp,
            poll_every: 1,
            max_epochs: 16,
            min_world: 1,
            leave_after: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn mat_bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
        (m.rows(), m.cols(), bits(m.as_slice()))
    }

    fn packed_bits(p: &SymPacked) -> (usize, Vec<u64>) {
        (p.dim(), bits(p.as_slice()))
    }

    /// Structural + bit equality (PartialEq would reject NaN payloads).
    fn assert_bit_eq(a: &TrainCheckpoint, b: &TrainCheckpoint) {
        assert_eq!(a.iter, b.iter);
        assert_eq!(bits(&a.losses), bits(&b.losses));
        assert_eq!(bits(&a.params), bits(&b.params));
        assert_eq!(a.velocity.len(), b.velocity.len());
        for (x, y) in a.velocity.iter().zip(&b.velocity) {
            assert_eq!(mat_bits(x), mat_bits(y));
        }
        assert_eq!(a.factors.len(), b.factors.len());
        for (x, y) in a.factors.iter().zip(&b.factors) {
            assert_eq!(x.layer, y.layer);
            for (px, py) in [(&x.a, &y.a), (&x.g, &y.g)] {
                assert_eq!(px.as_ref().map(packed_bits), py.as_ref().map(packed_bits));
            }
            for (mx, my) in [(&x.a_chol, &y.a_chol), (&x.g_chol, &y.g_chol)] {
                assert_eq!(mx.as_ref().map(mat_bits), my.as_ref().map(mat_bits));
            }
        }
    }

    /// Any f64, including ±∞, NaN and subnormals — payload slots must carry
    /// all of them verbatim.
    fn any_f64() -> impl Strategy<Value = f64> {
        (0u64..4, -1e300f64..1e300).prop_map(|(k, v)| match k {
            0 => v,
            1 => f64::NAN,
            2 => f64::INFINITY * v.signum(),
            _ => v * 1e-310, // subnormal territory
        })
    }

    fn any_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..max_dim + 1, 1..max_dim + 1).prop_flat_map(|(r, c)| {
            pvec(any_f64(), r * c).prop_map(move |d| Matrix::from_vec(r, c, d))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn pack_unpack_is_bit_exact(
            iter in 0usize..1_000_000,
            losses in pvec(any_f64(), 0..20),
            params in pvec(any_f64(), 0..200),
            velocity in pvec(any_matrix(5), 0..4),
            layers in pvec((0usize..32, 0u8..16), 0..4),
        ) {
            let factors: Vec<FactorCheckpoint> = layers
                .iter()
                .map(|&(layer, mask)| FactorCheckpoint {
                    layer,
                    a: (mask & 1 != 0).then(|| SymPacked::from_vec(2, vec![1.0, f64::NAN, -0.0])),
                    g: (mask & 2 != 0).then(|| SymPacked::from_vec(1, vec![5.0])),
                    a_chol: (mask & 4 != 0).then(|| Matrix::from_vec(2, 2, vec![0.5; 4])),
                    g_chol: (mask & 8 != 0).then(|| Matrix::from_vec(3, 3, vec![0.25; 9])),
                })
                .collect();
            let ckpt = TrainCheckpoint {
                iter,
                losses,
                params,
                velocity,
                factors,
            };
            let packed = ckpt.pack();
            let back = TrainCheckpoint::unpack(&packed).expect("round trip");
            assert_bit_eq(&ckpt, &back);
        }
    }

    #[test]
    fn unpack_rejects_garbage_and_truncation() {
        assert!(TrainCheckpoint::unpack(&[]).is_err());
        assert!(TrainCheckpoint::unpack(&[1.0, 2.0, 3.0]).is_err());
        let mut good = TrainCheckpoint {
            iter: 3,
            losses: vec![0.5],
            params: vec![1.0, 2.0],
            velocity: vec![],
            factors: vec![],
        }
        .pack();
        // Truncation and trailing garbage both fail loudly.
        assert!(TrainCheckpoint::unpack(&good[..good.len() - 1]).is_err());
        good.push(0.0);
        assert!(TrainCheckpoint::unpack(&good).is_err());
    }

    #[test]
    fn a_checkpoint_packs_a_velocity_only_with_momentum() {
        for (momentum, matrices) in [(0.0, 0), (0.9, 10)] {
            // Five layers: ten parameters.
            let mut net = spdkfac_nn::models::deep_mlp(4, 6, 4, 3, 1);
            let mut sgd = Sgd::new(0.1, momentum, 0.0);
            sgd.step(&mut net.parameters_mut());
            let ckpt = TrainCheckpoint::capture(1, &[0.5], &net, &sgd, &[]);
            let wire = ckpt.pack();
            // Magic, iter, losses, params, then the velocity count.
            let count = 2 + (1 + 1) + (1 + net.num_params());
            assert_eq!(wire[count], matrices as f64, "μ {momentum}");
            let back = TrainCheckpoint::unpack(&wire).expect("a packed checkpoint unpacks");
            assert_bit_eq(&ckpt, &back);
            assert_eq!(back.velocity.len(), matrices, "μ {momentum}");
            let mut restored = Sgd::new(0.1, momentum, 0.0);
            restored.set_velocity(back.velocity);
            assert_eq!(restored.velocity().len(), matrices, "μ {momentum}");
        }
    }

    /// A one-layer checkpoint holding a running factor and an `L`.
    fn one_layer_checkpoint() -> TrainCheckpoint {
        let mut st = FactorState::new(0);
        st.update_packed(FactorSide::A, 2, &[2.0, 0.1, 3.0], 0.9);
        st.set_chol(FactorSide::A, &Matrix::identity(2));
        TrainCheckpoint {
            iter: 1,
            losses: vec![0.5],
            params: vec![1.0],
            velocity: vec![],
            factors: vec![FactorCheckpoint::capture(&st)],
        }
    }

    #[test]
    fn unpack_refuses_a_version_1_stream() {
        // Version 1 put inverses in the factor slots; read as `L` they
        // would precondition with garbage, so the whole stream is refused.
        let mut old = one_layer_checkpoint().pack();
        assert!(TrainCheckpoint::unpack(&old).is_ok());
        old[0] = 0x0045_4C43_4B01_u64 as f64;
        assert_eq!(
            TrainCheckpoint::unpack(&old),
            Err(CheckpointError::Version {
                found: 1,
                expected: 5
            })
        );
        // Anything else in the magic slot is malformed, not a version.
        old[0] = 0.5;
        assert!(matches!(
            TrainCheckpoint::unpack(&old),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn a_version_5_round_trip_is_bit_exact_and_versions_2_to_4_are_refused() {
        let ckpt = one_layer_checkpoint();
        let mut packed = ckpt.pack();
        assert_bit_eq(&ckpt, &TrainCheckpoint::unpack(&packed).unwrap());
        // Version 2 held the running factors dense, version 3 carried an
        // EKFAC section after them and version 4's `L` inverted other
        // diagonal blocks (read as this solve form it would precondition
        // with garbage): all are refused by version before any of it is
        // read.
        for found in [2, 3, 4] {
            packed[0] = (0x0045_4C43_4B00_u64 | found) as f64;
            assert_eq!(
                TrainCheckpoint::unpack(&packed),
                Err(CheckpointError::Version { found, expected: 5 })
            );
        }
    }

    #[test]
    fn a_restored_checkpoint_preconditions_to_the_same_bits_across_solve_blocks() {
        use spdkfac_tensor::chol::SOLVE_NB;
        use spdkfac_tensor::rng::MatrixRng;
        // 257 spans three inverted blocks of the solve form.
        let d = 257;
        assert!(d > 2 * SOLVE_NB);
        let mut rng = MatrixRng::new(5);
        let mut st = FactorState::new(0);
        for side in [FactorSide::A, FactorSide::G] {
            let f = SymPacked::from_matrix(&rng.spd_matrix(d, 0.1));
            st.update_packed(side, d, f.as_slice(), 0.9);
            st.invert(side, 0.01).expect("damped factor is SPD");
        }
        let ckpt = TrainCheckpoint {
            iter: 3,
            losses: vec![],
            params: vec![],
            velocity: vec![],
            factors: vec![FactorCheckpoint::capture(&st)],
        };
        let back = TrainCheckpoint::unpack(&ckpt.pack()).expect("a v5 stream");
        let restored = back.factors[0].restore();
        let (grad, bias) = (rng.gaussian_matrix(d, d), rng.gaussian_matrix(d, 1));
        let directions = |s: &FactorState| {
            [
                crate::precond::precondition_weight(s, &grad),
                crate::precond::precondition_bias(s, &bias),
            ]
        };
        for (x, y) in directions(&st).iter().zip(&directions(&restored)) {
            assert_eq!(mat_bits(x), mat_bits(y));
        }
    }

    #[test]
    fn a_hostile_velocity_count_is_malformed_not_an_allocation() {
        // Magic, iter 0, no losses, no params, then 2³⁹ velocity matrices:
        // reserving that many up front would abort the process.
        let stream = [PACK_MAGIC, 0.0, 0.0, 0.0, (1u64 << 39) as f64];
        assert!(matches!(
            TrainCheckpoint::unpack(&stream),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn a_hostile_factor_count_is_malformed_not_an_allocation() {
        let stream = [PACK_MAGIC, 0.0, 0.0, 0.0, 0.0, (1u64 << 39) as f64];
        assert!(matches!(
            TrainCheckpoint::unpack(&stream),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn unpack_refuses_a_triangle_too_large_to_count() {
        let mut packed = one_layer_checkpoint().pack();
        // The `A` slot: [.., layer, tag 1, dim 2, 3 values, ..].
        let at = packed
            .windows(5)
            .position(|w| w == [0.0, 1.0, 2.0, 2.0, 0.1])
            .expect("factor A slot");
        packed[at + 2] = (1u64 << 39) as f64;
        assert!(matches!(
            TrainCheckpoint::unpack(&packed),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn a_handoff_length_must_be_a_count() {
        assert_eq!(handoff_buffer(3.0), Ok(vec![0.0; 3]));
        for len in [f64::NAN, f64::INFINITY, -1.0, 2.5, (1u64 << 40) as f64] {
            assert!(
                matches!(handoff_buffer(len), Err(CheckpointError::Malformed(_))),
                "{len}"
            );
        }
    }

    #[test]
    fn factor_checkpoint_round_trips_through_factor_state() {
        let mut st = FactorState::new(4);
        st.update_packed(FactorSide::A, 2, &[2.0, 0.1, 3.0], 0.9);
        st.update_packed(FactorSide::G, 1, &[7.0], 0.9);
        st.set_chol(
            FactorSide::A,
            &Matrix::from_vec(2, 2, vec![0.5, 0.0, 0.0, 0.5]),
        );
        let snap = FactorCheckpoint::capture(&st);
        let back = snap.restore();
        assert_eq!(back.layer(), 4);
        for side in [FactorSide::A, FactorSide::G] {
            assert_eq!(back.running_factor(side), st.running_factor(side));
        }
        assert_eq!(
            back.chol(FactorSide::A).unwrap().as_slice(),
            st.chol(FactorSide::A).unwrap().as_slice()
        );
        assert!(back.chol(FactorSide::G).is_none());
    }

    /// A live state's checkpoint survives pack, unpack, restore and a
    /// second capture byte for byte, and the restored squares are the live
    /// ones to the bit: `F` above the diagonal, `L` on and below it.
    #[test]
    fn capture_pack_unpack_restore_capture_is_byte_identical() {
        use spdkfac_tensor::rng::MatrixRng;
        let mut rng = MatrixRng::new(8);
        let mut st = FactorState::new(3);
        for (side, d) in [(FactorSide::A, 130), (FactorSide::G, 17)] {
            for _ in 0..2 {
                let f = SymPacked::from_matrix(&rng.spd_matrix(d, 0.1));
                st.update_packed(side, d, f.as_slice(), 0.9);
            }
            st.invert(side, 0.01).expect("damped factor is SPD");
        }
        let ckpt = |st: &FactorState| TrainCheckpoint {
            iter: 2,
            losses: vec![0.5],
            params: vec![1.0],
            velocity: vec![],
            factors: vec![FactorCheckpoint::capture(st)],
        };
        let wire = ckpt(&st).pack();
        let restored = TrainCheckpoint::unpack(&wire).expect("a v5 stream").factors[0].restore();
        let again = ckpt(&restored).pack();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert!(bits(&wire) == bits(&again));
        for side in [FactorSide::A, FactorSide::G] {
            let (live, back) = (st.chol(side).unwrap(), restored.chol(side).unwrap());
            assert_eq!(mat_bits(live), mat_bits(back), "{side:?}");
        }
        // The packed `L` has a zero upper triangle, as it always had.
        let l = ckpt(&st).factors[0].a_chol.clone().unwrap();
        assert!((0..130).all(|i| l.row(i)[i + 1..].iter().all(|&v| v.to_bits() == 0)));
    }
}
