//! Wire-format codecs for the ring collectives.
//!
//! Every payload a ring collective puts on the wire passes through this
//! module: the comm thread picks a [`WireFormat`] per operation (via
//! [`WirePolicy`]) and the ring endpoint runs the codec slice by slice
//! between its reusable send/receive buffers and the caller's `f64`s.
//!
//! - **Dense formats** (f64 / f32 / f16) are slice-to-slice kernels:
//!   [`encode_into`] writes wire bytes and reports the max absolute rounding
//!   error it introduced, [`decode_into`] / [`decode_add`] / [`decode`] land
//!   wire bytes in place (store, reduce, or store-scaled). f32 and f16 have
//!   an F16C/AVX2 path behind a runtime probe; the software converters
//!   ([`f32_to_f16_bits`], [`f16_bits_to_f32`], round-to-nearest-even) are
//!   the fallback and the oracle — both paths produce the same bytes.
//! - **Top-k** ([`WireFormat::TopK`]) is a codec only, never a ring
//!   format: [`encode`] / [`decode_ref`] take it, the ring and
//!   [`WirePolicy`] refuse it. Its bodies are self-describing and encoded
//!   and decoded whole: index/value pairs of what
//!   [`sparsify_with_residual`] kept (the dropped mass moves, bit-exactly,
//!   into a residual for the next same-shape buffer), or dense f32 when
//!   that is smaller. The decoder rejects any body that contradicts its
//!   own header or the expected length.
//!
//! [`encode`] / [`decode_ref`] wrap the same kernels over fresh allocations
//! for callers outside the ring (benchmarks, tests).

use std::time::Instant;

/// Element encoding used on the wire for one collective operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFormat {
    /// Bit-exact f64 pass-through (8 bytes/element, zero codec cost).
    F64,
    /// IEEE single precision (4 bytes/element).
    F32,
    /// IEEE half precision, software-converted with round-to-nearest-even
    /// (2 bytes/element).
    F16,
    /// Top-k sparsification: the `ratio` fraction of largest-|v| elements
    /// as (u32 index, f32 value) pairs, the rest moved into a residual by
    /// [`sparsify_with_residual`]. A codec only ([`encode`] /
    /// [`decode_ref`]): the ring and [`WirePolicy`] refuse it.
    TopK {
        /// Fraction of elements kept, in `(0, 1]`.
        ratio: f64,
    },
}

impl WireFormat {
    /// Expected wire bytes per logical element (top-k is the asymptotic
    /// index+value cost; the codec picks a dense fallback when cheaper).
    pub fn bytes_per_elem(&self) -> f64 {
        match self {
            WireFormat::F64 => 8.0,
            WireFormat::F32 => 4.0,
            WireFormat::F16 => 2.0,
            WireFormat::TopK { ratio } => (ratio * 8.0).min(4.0),
        }
    }

    /// `true` when encode/decode reproduces the input bit-for-bit.
    pub fn is_lossless(&self) -> bool {
        matches!(self, WireFormat::F64)
    }

    /// Parses a ring format: `"f64" | "f32" | "f16"`.
    pub fn parse(s: &str) -> Result<WireFormat, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f64" | "fp64" => Ok(WireFormat::F64),
            "f32" | "fp32" => Ok(WireFormat::F32),
            "f16" | "fp16" => Ok(WireFormat::F16),
            _ => Err(format!("unknown wire format {s:?} (expected f64|f32|f16)")),
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFormat::F64 => f.write_str("f64"),
            WireFormat::F32 => f.write_str("f32"),
            WireFormat::F16 => f.write_str("f16"),
            WireFormat::TopK { ratio } => write!(f, "topk:{ratio}"),
        }
    }
}

/// Per-operation wire-format policy, keyed by what the collective moves.
///
/// `control` covers everything that is not gradient, factor, or broadcast
/// traffic — loss agreement all-reduces, re-plan barriers, calibration
/// votes — and defaults to (and should stay) [`WireFormat::F64`]: those
/// payloads are tiny and correctness-critical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePolicy {
    /// Gradient all-reduce traffic ([`Phase::GradComm`](spdkfac_obs::Phase)).
    pub grad: WireFormat,
    /// Kronecker-factor all-reduce traffic (`Phase::FactorComm`).
    pub factor: WireFormat,
    /// Broadcast traffic (inverse-result fan-out), any phase.
    pub broadcast: WireFormat,
    /// Control-plane traffic (barriers, agreement reductions, loss).
    pub control: WireFormat,
}

impl Default for WirePolicy {
    fn default() -> Self {
        WirePolicy {
            grad: WireFormat::F64,
            factor: WireFormat::F64,
            broadcast: WireFormat::F64,
            control: WireFormat::F64,
        }
    }
}

impl WirePolicy {
    /// One format for gradients, factors, and broadcasts; control stays
    /// f64.
    pub fn uniform(f: WireFormat) -> Self {
        WirePolicy {
            grad: f,
            factor: f,
            broadcast: f,
            control: WireFormat::F64,
        }
    }

    /// Parses either a single format (`"f16"`, applied via [`uniform`]) or
    /// a comma-separated key=value list, e.g.
    /// `"grad=f16,factor=f32,broadcast=f32"`. Unmentioned keys keep their
    /// defaults.
    ///
    /// [`uniform`]: WirePolicy::uniform
    pub fn parse(s: &str) -> Result<WirePolicy, String> {
        if !s.contains('=') {
            return Ok(WirePolicy::uniform(WireFormat::parse(s)?));
        }
        let mut policy = WirePolicy::default();
        for part in s.split(',') {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad wire policy entry {part:?} (expected key=format)"))?;
            let fmt = WireFormat::parse(val)?;
            match key.trim() {
                "grad" => policy.grad = fmt,
                "factor" => policy.factor = fmt,
                "broadcast" | "bcast" => policy.broadcast = fmt,
                "control" => policy.control = fmt,
                other => {
                    return Err(format!(
                        "unknown wire policy key {other:?} (grad|factor|broadcast|control)"
                    ))
                }
            }
        }
        Ok(policy)
    }

    /// `true` when every op class is bit-exact f64.
    pub fn is_lossless(&self) -> bool {
        self.grad.is_lossless()
            && self.factor.is_lossless()
            && self.broadcast.is_lossless()
            && self.control.is_lossless()
    }

    /// The format a collective of `kind` submitted under `phase` travels
    /// in.
    pub fn format_for(&self, phase: spdkfac_obs::Phase, kind: crate::stats::OpKind) -> WireFormat {
        use crate::stats::OpKind;
        use spdkfac_obs::Phase;
        match kind {
            OpKind::Broadcast => self.broadcast,
            _ => match phase {
                Phase::GradComm => self.grad,
                Phase::FactorComm => self.factor,
                _ => self.control,
            },
        }
    }
}

impl WireFormat {
    /// Frame tag naming the body encoding (0 = f64, 1 = f32, 2 = f16,
    /// 3 = top-k).
    pub fn tag(&self) -> u8 {
        match self {
            WireFormat::F64 => 0,
            WireFormat::F32 => 1,
            WireFormat::F16 => 2,
            WireFormat::TopK { .. } => 3,
        }
    }

    /// Wire bytes per element of the dense formats, the ones the ring
    /// streams; `None` for top-k, whose self-describing bodies only
    /// [`encode`] / [`decode_ref`] take.
    pub fn dense_elem_bytes(&self) -> Option<usize> {
        match self {
            WireFormat::F64 => Some(8),
            WireFormat::F32 => Some(4),
            WireFormat::F16 => Some(2),
            WireFormat::TopK { .. } => None,
        }
    }
}

/// How decoded values land in their destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sink {
    /// `dst = v`.
    Store,
    /// `dst += v` (the reducing hops).
    Add,
    /// `dst = v * s` (an averaging all-reduce's final pass).
    Scaled(f64),
}

impl Sink {
    #[inline(always)]
    fn land(self, d: &mut f64, v: f64) {
        match self {
            Sink::Store => *d = v,
            Sink::Add => *d += v,
            Sink::Scaled(s) => *d = v * s,
        }
    }
}

/// The slice kernels take dense formats only; top-k bodies go through
/// [`encode`] / [`decode_ref`].
const DENSE_ONLY: &str = "slice kernel called with a self-describing format";

/// Encodes `src` into `dst` in a dense format and returns the max absolute
/// rounding error introduced. `dst.len()` must be `src.len()` times the
/// format's element size. Uses the F16C/AVX2 path when the CPU has it; the
/// scalar converters are the fallback and produce the same bytes.
pub fn encode_into(fmt: WireFormat, src: &[f64], dst: &mut [u8]) -> f64 {
    let eb = fmt.dense_elem_bytes().expect(DENSE_ONLY);
    assert_eq!(dst.len(), src.len() * eb, "encode_into: length mismatch");
    match fmt {
        WireFormat::F64 => {
            for (d, x) in dst.chunks_exact_mut(8).zip(src) {
                d.copy_from_slice(&x.to_le_bytes());
            }
            0.0
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available` verified AVX2 + F16C; lengths asserted above.
        WireFormat::F32 if simd::available() => unsafe { simd::encode_f32(src, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        WireFormat::F16 if simd::available() => unsafe { simd::encode_f16(src, dst) },
        WireFormat::F32 => encode_f32_scalar(src, dst),
        _ => encode_f16_scalar(src, dst),
    }
}

fn encode_f32_scalar(src: &[f64], dst: &mut [u8]) -> f64 {
    let mut err = 0.0f64;
    for (d, &x) in dst.chunks_exact_mut(4).zip(src) {
        let f = x as f32;
        d.copy_from_slice(&f.to_le_bytes());
        err = max_ignoring_nan(err, (x - f as f64).abs());
    }
    err
}

fn encode_f16_scalar(src: &[f64], dst: &mut [u8]) -> f64 {
    let mut err = 0.0f64;
    for (d, &x) in dst.chunks_exact_mut(2).zip(src) {
        let h = f32_to_f16_bits(x as f32);
        d.copy_from_slice(&h.to_le_bytes());
        err = max_ignoring_nan(err, (x - f16_bits_to_f32(h) as f64).abs());
    }
    err
}

#[inline(always)]
fn max_ignoring_nan(acc: f64, v: f64) -> f64 {
    if v > acc {
        v
    } else {
        acc
    }
}

/// `dst = decode(src)` for a dense format.
pub fn decode_into(fmt: WireFormat, src: &[u8], dst: &mut [f64]) {
    decode(fmt, src, dst, Sink::Store);
}

/// `dst += decode(src)` for a dense format — the reducing hop, straight
/// from the receive buffer.
pub fn decode_add(fmt: WireFormat, src: &[u8], dst: &mut [f64]) {
    decode(fmt, src, dst, Sink::Add);
}

/// Decodes a dense slice and lands it through `sink`. `src.len()` must be
/// `dst.len()` times the format's element size.
pub fn decode(fmt: WireFormat, src: &[u8], dst: &mut [f64], sink: Sink) {
    let eb = fmt.dense_elem_bytes().expect(DENSE_ONLY);
    assert_eq!(src.len(), dst.len() * eb, "decode: length mismatch");
    match fmt {
        WireFormat::F64 => {
            for (d, c) in dst.iter_mut().zip(src.chunks_exact(8)) {
                sink.land(d, f64::from_le_bytes(c.try_into().expect("8-byte chunk")));
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available` verified AVX2 + F16C; lengths asserted above.
        WireFormat::F32 if simd::available() => unsafe { simd::decode_f32(src, dst, sink) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        WireFormat::F16 if simd::available() => unsafe { simd::decode_f16(src, dst, sink) },
        WireFormat::F32 => decode_f32_scalar(src, dst, sink),
        _ => decode_f16_scalar(src, dst, sink),
    }
}

fn decode_f32_scalar(src: &[u8], dst: &mut [f64], sink: Sink) {
    for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
        sink.land(
            d,
            f32::from_le_bytes(c.try_into().expect("4-byte chunk")) as f64,
        );
    }
}

fn decode_f16_scalar(src: &[u8], dst: &mut [f64], sink: Sink) {
    for (d, c) in dst.iter_mut().zip(src.chunks_exact(2)) {
        let h = u16::from_le_bytes(c.try_into().expect("2-byte chunk"));
        sink.land(d, f16_bits_to_f32(h) as f64);
    }
}

/// F16C/AVX2 slice kernels behind a one-time CPUID probe (the dispatch
/// `tensor::gemm` uses). Each converts the bulk in vectors and hands the
/// tail — and any vector holding a NaN, whose payload the hardware
/// converter treats differently — to the scalar converters, so the bytes
/// are the scalar path's bytes.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::Sink;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// One-time CPUID probe for the F16C + AVX2 path.
    pub fn available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c"))
    }

    /// `max(|x - back|, acc)` per lane. `_mm256_max_pd` returns its second
    /// operand when the first is NaN (inf − inf), which is how the scalar
    /// `if err > acc` treats it.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn abs_err(x: __m256d, back: __m256d, acc: __m256d) -> __m256d {
        let sign = _mm256_set1_pd(-0.0);
        _mm256_max_pd(_mm256_andnot_pd(sign, _mm256_sub_pd(x, back)), acc)
    }

    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn hmax(v: __m256d, tail: f64) -> f64 {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` holds exactly the four doubles stored.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), v) };
        lanes
            .iter()
            .fold(tail, |a, &b| super::max_ignoring_nan(a, b))
    }

    /// # Safety
    /// `d` must be valid for reading and writing four `f64`s.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn land(sink: Sink, d: *mut f64, v: __m256d) {
        // SAFETY: the caller guarantees `d[..4]`.
        unsafe {
            let out = match sink {
                Sink::Store => v,
                Sink::Add => _mm256_add_pd(_mm256_loadu_pd(d), v),
                Sink::Scaled(s) => _mm256_mul_pd(v, _mm256_set1_pd(s)),
            };
            _mm256_storeu_pd(d, out);
        }
    }

    /// # Safety
    /// Caller must have verified [`available`]; `dst.len() == 4 * src.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn encode_f32(src: &[f64], dst: &mut [u8]) -> f64 {
        let body = src.len() / 4 * 4;
        let mut err = _mm256_setzero_pd();
        for i in (0..body).step_by(4) {
            // SAFETY: `i + 4 <= src.len()` and `4 * (i + 4) <= dst.len()`.
            unsafe {
                let x = _mm256_loadu_pd(src.as_ptr().add(i));
                let f = _mm256_cvtpd_ps(x);
                _mm_storeu_ps(dst.as_mut_ptr().add(4 * i).cast(), f);
                err = abs_err(x, _mm256_cvtps_pd(f), err);
            }
        }
        let tail = super::encode_f32_scalar(&src[body..], &mut dst[4 * body..]);
        hmax(err, tail)
    }

    /// # Safety
    /// Caller must have verified [`available`]; `dst.len() == 2 * src.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn encode_f16(src: &[f64], dst: &mut [u8]) -> f64 {
        let body = src.len() / 8 * 8;
        let mut err = _mm256_setzero_pd();
        let mut scalar_err = 0.0f64;
        for i in (0..body).step_by(8) {
            // SAFETY: `i + 8 <= src.len()`.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_pd(src.as_ptr().add(i)),
                    _mm256_loadu_pd(src.as_ptr().add(i + 4)),
                )
            };
            let nan = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_UNORD_Q>(lo, lo),
                _mm256_cmp_pd::<_CMP_UNORD_Q>(hi, hi),
            );
            if _mm256_movemask_pd(nan) != 0 {
                // VCVTPS2PH truncates a NaN payload; the software converter
                // also sets its low bit. Keep the software bytes.
                let e = super::encode_f16_scalar(&src[i..i + 8], &mut dst[2 * i..2 * i + 16]);
                scalar_err = super::max_ignoring_nan(scalar_err, e);
                continue;
            }
            let f = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(f);
            // SAFETY: `2 * (i + 8) <= dst.len()`.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().add(2 * i).cast(), h) };
            let back = _mm256_cvtph_ps(h);
            err = abs_err(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(back)), err);
            err = abs_err(hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(back)), err);
        }
        let tail = super::encode_f16_scalar(&src[body..], &mut dst[2 * body..]);
        hmax(err, super::max_ignoring_nan(scalar_err, tail))
    }

    /// # Safety
    /// Caller must have verified [`available`]; `src.len() == 4 * dst.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn decode_f32(src: &[u8], dst: &mut [f64], sink: Sink) {
        let body = dst.len() / 4 * 4;
        for i in (0..body).step_by(4) {
            // SAFETY: `4 * (i + 4) <= src.len()` and `i + 4 <= dst.len()`.
            unsafe {
                let f = _mm_loadu_ps(src.as_ptr().add(4 * i).cast());
                land(sink, dst.as_mut_ptr().add(i), _mm256_cvtps_pd(f));
            }
        }
        super::decode_f32_scalar(&src[4 * body..], &mut dst[body..], sink);
    }

    /// # Safety
    /// Caller must have verified [`available`]; `src.len() == 2 * dst.len()`.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn decode_f16(src: &[u8], dst: &mut [f64], sink: Sink) {
        let body = dst.len() / 8 * 8;
        for i in (0..body).step_by(8) {
            // SAFETY: `2 * (i + 8) <= src.len()` and `i + 8 <= dst.len()`.
            unsafe {
                let f = _mm256_cvtph_ps(_mm_loadu_si128(src.as_ptr().add(2 * i).cast()));
                let d = dst.as_mut_ptr().add(i);
                land(sink, d, _mm256_cvtps_pd(_mm256_castps256_ps128(f)));
                land(
                    sink,
                    d.add(4),
                    _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(f)),
                );
            }
        }
        super::decode_f16_scalar(&src[2 * body..], &mut dst[body..], sink);
    }
}

/// Kind byte + u32 length/dimension that open every self-describing body.
const BODY_HEADER: usize = 5;

fn push_body_header(out: &mut Vec<u8>, kind: u8, n: usize) {
    out.clear();
    out.push(kind);
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Appends `data` to `out` through a dense slice kernel.
fn push_dense(fmt: WireFormat, data: &[f64], out: &mut Vec<u8>) -> f64 {
    let at = out.len();
    out.resize(at + data.len() * fmt.dense_elem_bytes().expect("dense"), 0);
    encode_into(fmt, data, &mut out[at..])
}

/// Encodes a whole top-k body into `out`, reusing its capacity; returns
/// the max absolute rounding error.
///
/// Sparsification already happened upstream ([`sparsify_with_residual`]):
/// the body serialises whatever zeros/non-zeros it is handed, as
/// index/value pairs only when they are smaller than a dense f32 body.
fn encode_body(fmt: WireFormat, data: &[f64], out: &mut Vec<u8>) -> f64 {
    assert!(
        matches!(fmt, WireFormat::TopK { .. }),
        "{fmt} bodies stream through the slice kernels"
    );
    let len = data.len();
    let nnz = data.iter().filter(|v| **v != 0.0).count();
    // Sparse body: 8 bytes/non-zero vs. 4 bytes/element dense.
    if 8 * nnz >= 4 * len {
        push_body_header(out, 0, len);
        return push_dense(WireFormat::F32, data, out);
    }
    push_body_header(out, 1, len);
    out.extend_from_slice(&(nnz as u32).to_le_bytes());
    let mut err = 0.0f64;
    for (i, &x) in data.iter().enumerate() {
        if x != 0.0 {
            let f = x as f32;
            err = max_ignoring_nan(err, (x - f as f64).abs());
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&f.to_le_bytes());
        }
    }
    err
}

/// Logical element count a self-describing body claims to carry.
fn body_elems(fmt: WireFormat, body: &[u8]) -> Result<usize, String> {
    if body.len() < BODY_HEADER {
        return Err(format!("{fmt} body of {} bytes has no header", body.len()));
    }
    match body[0] {
        0 | 1 => Ok(u32::from_le_bytes(body[1..5].try_into().expect("4-byte len")) as usize),
        kind => Err(format!("unknown {fmt} body kind {kind}")),
    }
}

/// Decodes a whole self-describing body into `out` (resized to the
/// body's logical length, capacity reused). `expect` is the element count
/// the receiver knows the hop carries. A body that contradicts its own
/// header or that expectation — wrong size, index out of range, unknown
/// kind — is an error, never a panic or an allocation sized by an unbacked
/// length.
fn decode_body(
    fmt: WireFormat,
    body: &[u8],
    expect: usize,
    out: &mut Vec<f64>,
) -> Result<(), String> {
    let len = body_elems(fmt, body)?;
    if len != expect {
        return Err(format!(
            "{fmt} body carries {len} elements, hop expects {expect}"
        ));
    }
    let payload = &body[BODY_HEADER..];
    let want = |bytes: usize, what: &str| {
        (payload.len() == bytes).then_some(()).ok_or_else(|| {
            format!(
                "{fmt} {what} body holds {} bytes, header implies {bytes}",
                payload.len()
            )
        })
    };
    out.clear();
    match body[0] {
        0 => {
            want(len.saturating_mul(4), "dense")?;
            out.resize(len, 0.0);
            decode_into(WireFormat::F32, payload, out);
        }
        _ => {
            // Pairs do not back `len`; the hop's own expectation does.
            let Some((count, pairs)) = payload.split_first_chunk::<4>() else {
                return Err(format!("{fmt} sparse body has no pair count"));
            };
            let nnz = u32::from_le_bytes(*count) as usize;
            if pairs.len() != nnz.saturating_mul(8) {
                return Err(format!(
                    "{fmt} sparse body holds {} bytes, header implies {nnz} pairs",
                    pairs.len()
                ));
            }
            out.resize(len, 0.0);
            for pair in pairs.chunks_exact(8) {
                let idx = u32::from_le_bytes(pair[..4].try_into().expect("idx")) as usize;
                let val = f32::from_le_bytes(pair[4..].try_into().expect("val"));
                *out.get_mut(idx)
                    .ok_or_else(|| format!("sparse index {idx} out of range {len}"))? = val as f64;
            }
        }
    }
    Ok(())
}

/// One encoded chunk body with the format and element count that a frame
/// header and the receiver's expectation would carry — what [`encode`]
/// returns and [`decode_ref`] reads.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePayload {
    fmt: WireFormat,
    elems: usize,
    body: Vec<u8>,
}

impl WirePayload {
    /// Logical element count carried by this payload.
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// Actual bytes this payload occupies on the wire (body only).
    pub fn wire_bytes(&self) -> usize {
        self.body.len()
    }

    /// Frame tag of the body encoding (see [`WireFormat::tag`]).
    pub fn tag(&self) -> u8 {
        self.fmt.tag()
    }
}

/// Codec-side cost and error of one [`encode`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecStats {
    /// CPU seconds spent converting.
    pub secs: f64,
    /// Max absolute error vs. the input introduced by this encode.
    pub max_abs_err: f64,
}

/// Encodes a whole buffer in `fmt` — [`encode_into`], or the top-k body
/// codec — over a fresh allocation, for callers outside the ring's buffers.
pub fn encode(fmt: WireFormat, data: Vec<f64>) -> (WirePayload, CodecStats) {
    let t0 = Instant::now();
    let mut body = Vec::new();
    let max_abs_err = match fmt.dense_elem_bytes() {
        Some(_) => push_dense(fmt, &data, &mut body),
        None => encode_body(fmt, &data, &mut body),
    };
    let payload = WirePayload {
        fmt,
        elems: data.len(),
        body,
    };
    let secs = t0.elapsed().as_secs_f64();
    (payload, CodecStats { secs, max_abs_err })
}

/// Decodes a payload produced by [`encode`]; returns the values and the
/// codec seconds spent.
pub fn decode_ref(payload: &WirePayload) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut out = vec![0.0; payload.elems];
    match payload.fmt.dense_elem_bytes() {
        Some(_) => decode_into(payload.fmt, &payload.body, &mut out),
        None => decode_body(payload.fmt, &payload.body, payload.elems, &mut out)
            .expect("payload produced by wire::encode"),
    }
    (out, t0.elapsed().as_secs_f64())
}

/// Moves all but the top `ratio` fraction (by |value|) of `data + residual`
/// into `residual`, leaving the kept values (bit-exact sums) in `data`.
///
/// Conservation is exact by construction: each element ends up wholly in
/// `data` or wholly in `residual`, so `data[i] + residual[i]` equals the
/// pre-call `input[i] + residual[i]` bit-for-bit. Returns the number of
/// elements kept.
pub fn sparsify_with_residual(data: &mut [f64], ratio: f64, residual: &mut Vec<f64>) -> usize {
    let len = data.len();
    if residual.len() != len {
        residual.clear();
        residual.resize(len, 0.0);
    }
    for (d, r) in data.iter_mut().zip(residual.iter()) {
        *d += *r;
    }
    // At least one element is kept — of a buffer that has one.
    let k = ((ratio * len as f64).ceil() as usize).clamp(1, len.max(1));
    if k >= len {
        residual.iter_mut().for_each(|r| *r = 0.0);
        return len;
    }
    let mut order: Vec<usize> = (0..len).collect();
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        data[b]
            .abs()
            .partial_cmp(&data[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut keep = vec![false; len];
    for &i in &order[..k] {
        keep[i] = true;
    }
    for i in 0..len {
        if keep[i] {
            residual[i] = 0.0;
        } else {
            residual[i] = data[i];
            data[i] = 0.0;
        }
    }
    k
}

/// Converts an f32 to IEEE binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN (keep NaN payload non-zero).
        let payload = if man != 0 {
            ((man >> 13) as u16) | 1
        } else {
            0
        };
        return sign | 0x7c00 | payload;
    }
    let e = exp - 112; // re-bias: 127 -> 15
    if e >= 0x1f {
        return sign | 0x7c00; // overflow -> inf
    }
    if e <= 0 {
        // Subnormal half (or zero): shift the full significand (with its
        // implicit bit) into the 10-bit field, rounding to nearest even.
        if e < -10 {
            return sign; // underflows to zero even after rounding
        }
        let full = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let mut h = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half_ulp = 1u32 << (shift - 1);
        if rem > half_ulp || (rem == half_ulp && h & 1 == 1) {
            h += 1;
        }
        return sign | h as u16;
    }
    // Normal half. The rounding increment may carry through the mantissa
    // into the exponent (and to infinity) — doing the arithmetic in u32
    // before narrowing makes that carry correct by construction.
    let mut h = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
        h += 1;
    }
    sign | h as u16
}

/// Converts IEEE binary16 bits to an f32 (exact — every half is an f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0 {
        // Zero or subnormal: value is man * 2^-24.
        let mag = man as f32 * (1.0 / 16_777_216.0);
        return if sign != 0 { -mag } else { mag };
    }
    if exp == 0x1f {
        let bits = sign | 0x7f80_0000 | (man << 13);
        return f32::from_bits(bits);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip_is_bit_exact_and_free() {
        let data = vec![1.0, -2.5, 3.7e-300, f64::MAX, 0.0];
        let (payload, cs) = encode(WireFormat::F64, data.clone());
        assert_eq!(cs.max_abs_err, 0.0);
        assert_eq!(payload.wire_bytes(), data.len() * 8);
        assert_eq!(payload.elems(), data.len());
        let (back, _) = decode_ref(&payload);
        assert_eq!(back, data);
    }

    #[test]
    fn f32_round_trip_matches_hardware_cast() {
        let data = vec![1.0, -0.333_333_333_333, 1e20, 1e-20, 0.125];
        let (payload, cs) = encode(WireFormat::F32, data.clone());
        assert_eq!(payload.wire_bytes(), data.len() * 4);
        let (back, _) = decode_ref(&payload);
        for (x, y) in data.iter().zip(back.iter()) {
            assert_eq!(*y, (*x as f32) as f64);
        }
        // Worst case is 1e20: half an f32 ulp at that magnitude.
        assert!(
            cs.max_abs_err <= 1e20 * 2f64.powi(-24),
            "{}",
            cs.max_abs_err
        );
    }

    #[test]
    fn f16_conversion_handles_edge_cases() {
        // Exact small values survive.
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25] {
            let h = f32_to_f16_bits(v);
            assert_eq!(f16_bits_to_f32(h), v, "value {v}");
        }
        // Overflow saturates to infinity.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e9)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e9)), f32::NEG_INFINITY);
        // Tiny values flush to (signed) zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-12)), 0.0);
        // Subnormal halves round-trip: 2^-24 is the smallest positive half.
        let tiny = 1.0 / 16_777_216.0;
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tiny)), tiny);
        // NaN stays NaN.
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Round-to-nearest-even at the mantissa boundary: 2049 is exactly
        // between 2048 and 2050 in f16 and must round to the even 2048.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2049.0)), 2048.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2051.0)), 2052.0);
    }

    #[test]
    fn f16_relative_error_is_bounded() {
        // Max RNE relative error for normal halves is 2^-11.
        let data: Vec<f64> = (1..200).map(|i| (i as f64) * 0.137 - 13.0).collect();
        let (payload, cs) = encode(WireFormat::F16, data.clone());
        assert_eq!(payload.wire_bytes(), data.len() * 2);
        let (back, _) = decode_ref(&payload);
        let mut worst = 0.0f64;
        for (x, y) in data.iter().zip(back.iter()) {
            assert!((x - y).abs() <= x.abs() / 2048.0, "{x} -> {y}");
            worst = worst.max((x - y).abs());
        }
        // The encoder reports exactly the error the decoder will see.
        assert_eq!(cs.max_abs_err, worst);
    }

    #[test]
    fn sparsify_conserves_mass_bit_exactly() {
        let input = vec![0.5, -3.0, 0.125, 2.0, -0.0625, 1.0, 0.25, -4.0];
        let mut data = input.clone();
        let mut residual = vec![0.0; input.len()];
        let kept = sparsify_with_residual(&mut data, 0.25, &mut residual);
        assert_eq!(kept, 2);
        assert_eq!(data.iter().filter(|v| **v != 0.0).count(), 2);
        // Largest magnitudes kept: -4.0 and -3.0.
        assert_eq!(data[7], -4.0);
        assert_eq!(data[1], -3.0);
        for i in 0..input.len() {
            assert_eq!(data[i] + residual[i], input[i], "slot {i}");
        }
        // Second round: residual folds back in.
        let round2 = vec![0.0; input.len()];
        let mut data2 = round2.clone();
        let kept2 = sparsify_with_residual(&mut data2, 0.25, &mut residual);
        assert_eq!(kept2, 2);
        for i in 0..input.len() {
            let drained = data2[i] != 0.0;
            if drained {
                assert_eq!(residual[i], 0.0);
            }
        }
        // 2.0 and 1.0 are now the largest remaining.
        assert_eq!(data2[3], 2.0);
        assert_eq!(data2[5], 1.0);
        // An empty buffer (a zero-length all-reduce) keeps nothing.
        let mut empty = Vec::new();
        assert_eq!(sparsify_with_residual(&mut empty, 0.25, &mut residual), 0);
        assert!(residual.is_empty());
    }

    #[test]
    fn sparse_payload_round_trips_and_degrades_to_dense() {
        // Mostly-zero vector: sparse body.
        let mut sparse_vec = vec![0.0f64; 64];
        sparse_vec[3] = 1.5;
        sparse_vec[60] = -2.25;
        let (payload, _) = encode(WireFormat::TopK { ratio: 0.05 }, sparse_vec.clone());
        assert!(payload.wire_bytes() < 64 * 4, "sparse should beat dense");
        assert_eq!(payload.elems(), 64);
        let (back, _) = decode_ref(&payload);
        assert_eq!(back, sparse_vec);
        // Dense vector: codec must fall back to the dense f32 body.
        let dense_vec: Vec<f64> = (0..64).map(|i| i as f64 + 0.5).collect();
        let (payload, _) = encode(WireFormat::TopK { ratio: 0.05 }, dense_vec.clone());
        assert_eq!(payload.wire_bytes(), 5 + 64 * 4);
        let (back, _) = decode_ref(&payload);
        for (x, y) in dense_vec.iter().zip(back.iter()) {
            assert_eq!(*y, (*x as f32) as f64);
        }
    }

    #[test]
    fn wire_bytes_shrink_with_the_format() {
        // A gradient-like payload: dense, mixed signs and magnitudes.
        let n = 1000;
        let data: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * 1e-3)
            .collect();
        let bytes = |fmt| encode(fmt, data.clone()).0.wire_bytes();
        let (w64, w32, w16) = (
            bytes(WireFormat::F64),
            bytes(WireFormat::F32),
            bytes(WireFormat::F16),
        );
        // The f64 pass-through puts exactly the logical bytes on the wire,
        // and every narrower format strictly fewer.
        assert_eq!((w64, w32, w16), (8 * n, 4 * n, 2 * n));
        // Top-k at 1 % after sparsification: a header, a pair count and
        // one (index, value) pair per kept element.
        let mut sparse = data.clone();
        let kept = sparsify_with_residual(&mut sparse, 0.01, &mut Vec::new());
        let mut body = Vec::new();
        encode_body(WireFormat::TopK { ratio: 0.01 }, &sparse, &mut body);
        assert_eq!(body.len(), 9 + 8 * kept);
        assert!(body.len() < w16, "top-k {} vs f16 {w16}", body.len());
    }

    #[test]
    fn malformed_bodies_are_errors_not_panics() {
        let topk = WireFormat::TopK { ratio: 0.25 };
        let mut out = Vec::new();
        // A sparse body whose index points past its own length.
        let mut v = vec![0.0f64; 16];
        v[3] = 1.0;
        let (good, _) = encode(topk, v);
        let mut body = good.body.clone();
        assert_eq!(body[0], 1, "sparse kind");
        body[9..13].copy_from_slice(&99u32.to_le_bytes());
        let err = decode_body(topk, &body, 16, &mut out).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // The hop's own expectation wins over the body's header.
        assert!(decode_body(topk, &good.body, 17, &mut out).is_err());
        // A length field the payload cannot back, an unknown kind, a
        // missing header, a torn pair.
        let mut huge = good.body.clone();
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_body(topk, &huge, 16, &mut out).is_err());
        let mut kind = good.body.clone();
        kind[0] = 7;
        assert!(decode_body(topk, &kind, 16, &mut out).is_err());
        assert!(decode_body(topk, &good.body[..3], 16, &mut out).is_err());
        assert!(decode_body(topk, &good.body[..good.body.len() - 1], 16, &mut out).is_err());
        // And the intact body still decodes.
        decode_body(topk, &good.body, 16, &mut out).expect("intact body");
        assert_eq!(out[3], 1.0);
    }

    #[test]
    fn policy_parsing_and_selection() {
        use crate::stats::OpKind;
        use spdkfac_obs::Phase;
        let p = WirePolicy::parse("f16").expect("uniform");
        assert_eq!(p.grad, WireFormat::F16);
        assert_eq!(p.factor, WireFormat::F16);
        assert_eq!(p.broadcast, WireFormat::F16);
        assert_eq!(p.control, WireFormat::F64);
        assert_eq!(
            p.format_for(Phase::GradComm, OpKind::AllReduce),
            WireFormat::F16
        );
        assert_eq!(
            p.format_for(Phase::Update, OpKind::AllReduce),
            WireFormat::F64
        );
        assert_eq!(
            p.format_for(Phase::InverseComm, OpKind::Broadcast),
            WireFormat::F16
        );

        let p = WirePolicy::parse("grad=f16,factor=f32").expect("kv");
        assert_eq!(p.grad, WireFormat::F16);
        assert_eq!(p.factor, WireFormat::F32);
        assert_eq!(p.broadcast, WireFormat::F64);
        assert_eq!(
            p.format_for(Phase::FactorComm, OpKind::AllReduce),
            WireFormat::F32
        );
        assert_eq!(
            p.format_for(Phase::InverseComm, OpKind::Broadcast),
            WireFormat::F64
        );
        assert!(!p.is_lossless());
        assert!(WirePolicy::default().is_lossless());

        assert!(WireFormat::parse("f8").is_err());
        assert!(WireFormat::parse("topk:1.5").is_err());
        assert!(WirePolicy::parse("grads=f16").is_err());
    }

    #[test]
    fn policy_parse_refuses_top_k() {
        // Top-k is a codec, not a ring format: no policy spec names it.
        for spec in ["topk:0.1", "grad=topk:0.25"] {
            let err = WirePolicy::parse(spec).unwrap_err();
            assert!(err.contains("f64|f32|f16"), "{spec}: {err}");
        }
    }
}
