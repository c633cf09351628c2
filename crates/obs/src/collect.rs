//! Cross-rank telemetry collection: clock models, the span-batch wire
//! codec, and the rank-0 collector state that merges every rank's spans
//! onto one clock.
//!
//! A multi-process run (TCP backend, `spdkfac_node`) records spans against
//! *per-process* [`Recorder`](crate::Recorder) epochs, which are mutually
//! meaningless: rank 3's `t = 0.125 s` says nothing about rank 0's. This
//! module provides the pieces that turn those per-process timelines into
//! the one coherent trace the in-process trainer already produces:
//!
//! - [`ClockSample`] / [`ClockEstimator`] / [`ClockModel`]: NTP-style
//!   offset estimation. Each rank ping-pongs the collector (`t0` send,
//!   `t1` server receive, `t2` server reply, `t3` receive), yielding
//!   offset `((t1−t0)+(t2−t3))/2` with uncertainty bounded by half the
//!   round-trip time. Repeated exchanges feed a weighted least-squares
//!   fit of offset *and* linear drift, so long runs stay aligned even
//!   when the clocks tick at slightly different rates.
//! - [`Frame`] and its codec: the length-prefixed little-endian frames the
//!   side telemetry channel speaks (hello, ping/pong, span batches, bye).
//!   The transport itself lives in `spdkfac-collectives::telemetry`; the
//!   codec is here so it can be unit-tested without sockets and shared by
//!   both endpoints.
//! - [`CollectorState`]: per-rank bounded span windows. Batches are
//!   rebased onto the collector clock *at ingest* via the sender's
//!   current [`ClockModel`], so memory stays O(window) — the collector
//!   never holds a rank's raw timeline, only the newest
//!   `capacity` rebased spans per rank plus eviction counters.
//! - [`comm_edge_violations`]: the merge-quality check — after rebasing,
//!   matched collective spans must be causally consistent (no member of a
//!   join completing before the last participant arrives). Unrebased
//!   multi-process spans fail this loudly; it is the acceptance gate for
//!   the clock sync.
//!
//! The merged output of [`CollectorState::merged_spans`] keeps the tracks
//! of [`TrackLayout::trainer`], so the causal / critical-path / Chrome-trace
//! exporters read it unchanged.

use crate::critical::CriticalReport;
use crate::phase::Phase;
use crate::recorder::{CollEdge, Span, SpanMeta};
use crate::ring::Ring;
use crate::table::Table;
use crate::trace::TrackLayout;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Error, ErrorKind, Read, Result as IoResult, Write};

// ---------------------------------------------------------------------------
// Clock offset + drift estimation
// ---------------------------------------------------------------------------

/// One NTP-style ping-pong measurement between a rank and the collector.
///
/// All four timestamps are epoch-relative seconds: `t0`/`t3` on the
/// *local* (rank) clock, `t1`/`t2` on the *remote* (collector) clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSample {
    /// Midpoint of the exchange on the local clock, `(t0 + t3) / 2`.
    pub local_mid: f64,
    /// Estimated collector-minus-local offset, `((t1−t0)+(t2−t3))/2`.
    pub offset: f64,
    /// Error bound on `offset`: half the round trip net of server hold
    /// time, `((t3−t0)−(t2−t1))/2`. The true offset lies within
    /// `offset ± uncertainty` for any split of the path delay.
    pub uncertainty: f64,
}

impl ClockSample {
    /// Builds a sample from the four exchange timestamps.
    pub fn from_exchange(t0: f64, t1: f64, t2: f64, t3: f64) -> ClockSample {
        ClockSample {
            local_mid: 0.5 * (t0 + t3),
            offset: 0.5 * ((t1 - t0) + (t2 - t3)),
            uncertainty: (0.5 * ((t3 - t0) - (t2 - t1))).max(0.0),
        }
    }
}

/// A fitted local→collector clock mapping with a bounded error estimate.
///
/// `collector_time ≈ local_time + offset + drift · (local_time −
/// reference)`; see [`ClockModel::rebase`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Offset (seconds) at the reference instant.
    pub offset: f64,
    /// Linear drift (seconds of offset per local second; ~1e-6 = 1 ppm).
    pub drift: f64,
    /// Local-clock instant the offset is anchored at.
    pub reference: f64,
    /// Error bound: within the fitted window the rebasing error is no
    /// larger than this (tightest sample uncertainty + worst residual).
    pub uncertainty: f64,
}

impl ClockModel {
    /// The identity mapping (the collector's own spans need no rebasing).
    pub fn identity() -> ClockModel {
        ClockModel {
            offset: 0.0,
            drift: 0.0,
            reference: 0.0,
            uncertainty: 0.0,
        }
    }

    /// Maps a local-clock time onto the collector clock.
    pub fn rebase(&self, t: f64) -> f64 {
        t + self.offset + self.drift * (t - self.reference)
    }

    /// The instantaneous offset at local time `t`.
    pub fn offset_at(&self, t: f64) -> f64 {
        self.offset + self.drift * (t - self.reference)
    }
}

/// Minimum sample count and local-time spread before the estimator trusts
/// a drift (slope) term; below either bound it fits offset only.
const DRIFT_MIN_SAMPLES: usize = 8;
const DRIFT_MIN_SPREAD: f64 = 0.5;

/// Accumulates [`ClockSample`]s and fits a [`ClockModel`].
///
/// Samples with an uncertainty more than 3× the tightest observed are
/// discarded from the fit (the NTP trick: short round trips bound the
/// offset best), and the sample window is capped so long runs hold O(1)
/// memory.
#[derive(Debug)]
pub struct ClockEstimator {
    samples: Ring<ClockSample>,
}

impl Default for ClockEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockEstimator {
    /// An empty estimator with the default sample window (1024).
    pub fn new() -> ClockEstimator {
        ClockEstimator {
            samples: Ring::new(1024),
        }
    }

    /// Records one exchange, evicting the oldest past the window.
    pub fn add(&mut self, sample: ClockSample) {
        self.samples.push(sample);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no exchange has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Fits offset (and, with enough temporal spread, drift) by weighted
    /// least squares over the quality-filtered samples. `None` until the
    /// first sample arrives.
    pub fn fit(&self) -> Option<ClockModel> {
        if self.samples.is_empty() {
            return None;
        }
        let min_u = self
            .samples
            .iter()
            .map(|s| s.uncertainty)
            .fold(f64::INFINITY, f64::min);
        let used: Vec<&ClockSample> = self
            .samples
            .iter()
            .filter(|s| s.uncertainty <= 3.0 * min_u + 1e-9)
            .collect();
        let wsum: f64 = used.iter().map(|s| weight(s)).sum();
        let reference = used.iter().map(|s| weight(s) * s.local_mid).sum::<f64>() / wsum;
        let mean_offset = used.iter().map(|s| weight(s) * s.offset).sum::<f64>() / wsum;
        let spread = used
            .iter()
            .map(|s| s.local_mid)
            .fold(f64::NEG_INFINITY, f64::max)
            - used
                .iter()
                .map(|s| s.local_mid)
                .fold(f64::INFINITY, f64::min);
        let drift = if used.len() >= DRIFT_MIN_SAMPLES && spread >= DRIFT_MIN_SPREAD {
            let num: f64 = used
                .iter()
                .map(|s| weight(s) * (s.local_mid - reference) * (s.offset - mean_offset))
                .sum();
            let den: f64 = used
                .iter()
                .map(|s| weight(s) * (s.local_mid - reference).powi(2))
                .sum();
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        } else {
            0.0
        };
        let max_resid = used
            .iter()
            .map(|s| (s.offset - (mean_offset + drift * (s.local_mid - reference))).abs())
            .fold(0.0, f64::max);
        Some(ClockModel {
            offset: mean_offset,
            drift,
            reference,
            uncertainty: min_u + max_resid,
        })
    }
}

fn weight(s: &ClockSample) -> f64 {
    1.0 / (s.uncertainty + 1e-9).powi(2)
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Telemetry channel magic, the third protocol of the family
/// (`"SPDKFAC3"`; rendezvous uses `…1`/`…2`).
pub const TELEMETRY_MAGIC: u64 = 0x5350_444b_4641_4333;

/// Upper bound on one frame's payload (spans in a batch are bounded by the
/// recorder ring capacity, so real batches stay far below this).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const MAX_LABEL_BYTES: usize = 4096;

/// One span batch: the sender's current clock model rides along so the
/// collector can rebase at ingest without tracking estimator state.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Sending rank.
    pub rank: u32,
    /// The sender's fitted local→collector clock mapping.
    pub model: ClockModel,
    /// Cumulative recorder ring-overflow drop count on the sender.
    pub dropped: u64,
    /// The spans, stamped on the *sender's* clock.
    pub spans: Vec<Span>,
}

/// One telemetry channel message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client introduction after connecting; binds the connection to
    /// `rank`.
    Hello {
        /// Sending rank.
        rank: u32,
        /// Group size the sender believes in (the collector drops a client
        /// whose `world` differs from its own).
        world: u32,
    },
    /// Clock probe: `t0` is the client's send time on its own clock.
    Ping {
        /// Client send timestamp.
        t0: f64,
    },
    /// Clock probe reply: the echoed `t0` plus the server's receive and
    /// send timestamps on the collector clock.
    Pong {
        /// Echoed client send timestamp.
        t0: f64,
        /// Server receive timestamp.
        t1: f64,
        /// Server reply timestamp.
        t2: f64,
    },
    /// A span batch.
    Batch(Batch),
    /// Clean end-of-stream from a rank.
    Bye {
        /// Departing rank.
        rank: u32,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_span(buf: &mut Vec<u8>, s: &Span) {
    put_u32(buf, s.track as u32);
    buf.push(s.phase.index() as u8);
    put_f64(buf, s.start);
    put_f64(buf, s.end);
    let (edge, root) = match s.meta.edge {
        None => (0u8, 0u32),
        Some(CollEdge::Join) => (1, 0),
        Some(CollEdge::FanOut { root }) => (2, root as u32),
    };
    buf.push(edge);
    put_u32(buf, root);
    let mut flags = 0u8;
    if s.meta.seq.is_some() {
        flags |= 1;
    }
    if s.meta.size.is_some() {
        flags |= 2;
    }
    if s.meta.generation.is_some() {
        flags |= 4;
    }
    if s.meta.wire_bytes.is_some() {
        flags |= 8;
    }
    if s.meta.codec_secs.is_some() {
        flags |= 16;
    }
    buf.push(flags);
    if let Some(v) = s.meta.seq {
        put_u64(buf, v);
    }
    if let Some(v) = s.meta.size {
        put_u64(buf, v as u64);
    }
    if let Some(v) = s.meta.generation {
        put_u64(buf, v);
    }
    if let Some(v) = s.meta.wire_bytes {
        put_u64(buf, v);
    }
    if let Some(v) = s.meta.codec_secs {
        put_f64(buf, v);
    }
    // Cut an over-long label at a character boundary: a split multi-byte
    // character would make the decoder reject the whole batch.
    let mut take = s.label.len().min(MAX_LABEL_BYTES);
    while !s.label.is_char_boundary(take) {
        take -= 1;
    }
    put_u16(buf, take as u16);
    buf.extend_from_slice(&s.label.as_bytes()[..take]);
}

/// Serialises one frame (length prefix included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::new();
    match frame {
        Frame::Hello { rank, world } => {
            body.push(1);
            put_u32(&mut body, *rank);
            put_u32(&mut body, *world);
        }
        Frame::Ping { t0 } => {
            body.push(2);
            put_f64(&mut body, *t0);
        }
        Frame::Pong { t0, t1, t2 } => {
            body.push(3);
            put_f64(&mut body, *t0);
            put_f64(&mut body, *t1);
            put_f64(&mut body, *t2);
        }
        Frame::Batch(b) => {
            body.push(4);
            put_u32(&mut body, b.rank);
            put_f64(&mut body, b.model.offset);
            put_f64(&mut body, b.model.drift);
            put_f64(&mut body, b.model.reference);
            put_f64(&mut body, b.model.uncertainty);
            put_u64(&mut body, b.dropped);
            put_u32(&mut body, b.spans.len() as u32);
            for s in &b.spans {
                encode_span(&mut body, s);
            }
        }
        Frame::Bye { rank } => {
            body.push(5);
            put_u32(&mut body, *rank);
        }
    }
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    out
}

/// Writes one frame (no flush; the caller owns buffering policy).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> IoResult<()> {
    w.write_all(&encode_frame(frame))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> IoResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "telemetry frame truncated",
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> IoResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> IoResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> IoResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> IoResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> IoResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

fn bad(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

fn decode_span(c: &mut Cursor<'_>) -> IoResult<Span> {
    let track = c.u32()? as usize;
    let phase =
        Phase::from_index(c.u8()? as usize).ok_or_else(|| bad("span with unknown phase index"))?;
    let start = c.f64()?;
    let end = c.f64()?;
    let edge_kind = c.u8()?;
    let root = c.u32()? as usize;
    let edge = match (edge_kind, root) {
        (0, 0) => None,
        (1, 0) => Some(CollEdge::Join),
        (2, root) => Some(CollEdge::FanOut { root }),
        (0 | 1, r) => return Err(bad(format!("span with root {r} on a rootless edge"))),
        (k, _) => return Err(bad(format!("span with unknown edge kind {k}"))),
    };
    let flags = c.u8()?;
    if flags >= 32 {
        return Err(bad(format!("span with unknown flag bits {flags:#04x}")));
    }
    let seq = (flags & 1 != 0).then(|| c.u64()).transpose()?;
    let size = (flags & 2 != 0)
        .then(|| c.u64())
        .transpose()?
        .map(|v| v as usize);
    let generation = (flags & 4 != 0).then(|| c.u64()).transpose()?;
    let wire_bytes = (flags & 8 != 0).then(|| c.u64()).transpose()?;
    let codec_secs = (flags & 16 != 0).then(|| c.f64()).transpose()?;
    let label_len = c.u16()? as usize;
    if label_len > MAX_LABEL_BYTES {
        return Err(bad(format!("span label of {label_len} bytes")));
    }
    let label = String::from_utf8(c.take(label_len)?.to_vec())
        .map_err(|e| bad(format!("span label not UTF-8: {e}")))?;
    Ok(Span {
        track,
        phase,
        label: Cow::Owned(label),
        start,
        end,
        meta: SpanMeta {
            edge,
            seq,
            size,
            generation,
            wire_bytes,
            codec_secs,
        },
    })
}

/// Reads one frame. `UnexpectedEof` on a cleanly closed stream before the
/// length prefix; `InvalidData` on malformed payloads.
pub fn read_frame(r: &mut impl Read) -> IoResult<Frame> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(bad(format!("telemetry frame of {len} bytes")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut c = Cursor { buf: &body, pos: 0 };
    let frame = match c.u8()? {
        1 => Frame::Hello {
            rank: c.u32()?,
            world: c.u32()?,
        },
        2 => Frame::Ping { t0: c.f64()? },
        3 => Frame::Pong {
            t0: c.f64()?,
            t1: c.f64()?,
            t2: c.f64()?,
        },
        4 => {
            let rank = c.u32()?;
            let model = ClockModel {
                offset: c.f64()?,
                drift: c.f64()?,
                reference: c.f64()?,
                uncertainty: c.f64()?,
            };
            let dropped = c.u64()?;
            let n = c.u32()? as usize;
            let mut spans = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                spans.push(decode_span(&mut c)?);
            }
            Frame::Batch(Batch {
                rank,
                model,
                dropped,
                spans,
            })
        }
        5 => Frame::Bye { rank: c.u32()? },
        k => return Err(bad(format!("unknown telemetry frame kind {k}"))),
    };
    if c.pos != body.len() {
        return Err(bad("telemetry frame with trailing bytes"));
    }
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Collector state: per-rank bounded windows, merge, live monitor
// ---------------------------------------------------------------------------

/// Default per-rank span window the collector retains (matches the
/// recorder's per-track ring, so end-of-run merges are lossless whenever
/// the sender's own rings were).
pub const DEFAULT_WINDOW_CAPACITY: usize = 131_072;

/// Drift magnitude (s/s) past which the live monitor raises a flag.
pub const DRIFT_FLAG_THRESHOLD: f64 = 200e-6;

/// Seconds since a rank's last batch past which the live monitor flags it
/// stale.
pub const STALE_FLAG_THRESHOLD: f64 = 5.0;

#[derive(Debug)]
struct RankWindow {
    /// Rebased spans; what the ring overwrites is the eviction count.
    spans: Ring<Span>,
    model: ClockModel,
    dropped: u64,
    batches: u64,
    last_seen: f64,
    connected: bool,
    done: bool,
}

impl RankWindow {
    fn new(capacity: usize) -> RankWindow {
        RankWindow {
            spans: Ring::new(capacity),
            model: ClockModel::identity(),
            dropped: 0,
            batches: 0,
            last_seen: 0.0,
            connected: false,
            done: false,
        }
    }
}

/// The rank-0 collector's aggregate view: one bounded, clock-rebased span
/// window per rank plus connection and drop bookkeeping.
///
/// All methods take `&mut self` / `&self`; the telemetry server wraps the
/// state in a mutex and feeds it from per-connection reader threads.
#[derive(Debug)]
pub struct CollectorState {
    world: usize,
    windows: Vec<RankWindow>,
}

impl CollectorState {
    /// A collector for `world` ranks holding at most `capacity` spans per
    /// rank (0 selects [`DEFAULT_WINDOW_CAPACITY`]).
    pub fn new(world: usize, capacity: usize) -> CollectorState {
        assert!(world > 0, "collector for a zero-rank group");
        let capacity = if capacity == 0 {
            DEFAULT_WINDOW_CAPACITY
        } else {
            capacity
        };
        CollectorState {
            world,
            windows: (0..world).map(|_| RankWindow::new(capacity)).collect(),
        }
    }

    /// Group size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Marks `rank` connected.
    pub fn hello(&mut self, rank: usize) {
        if let Some(w) = self.windows.get_mut(rank) {
            w.connected = true;
        }
    }

    /// Marks `rank` cleanly finished.
    pub fn bye(&mut self, rank: usize) {
        if let Some(w) = self.windows.get_mut(rank) {
            w.done = true;
        }
    }

    /// Ingests one batch from `rank`: every span is rebased onto the
    /// collector clock through `model` *now*, then appended to the rank's
    /// bounded window (oldest spans evicted, counted). `now` is the
    /// collector-clock arrival time, kept for staleness flags.
    pub fn ingest(
        &mut self,
        rank: usize,
        model: ClockModel,
        dropped: u64,
        spans: Vec<Span>,
        now: f64,
    ) {
        let Some(w) = self.windows.get_mut(rank) else {
            return;
        };
        w.connected = true;
        w.model = model;
        w.dropped = dropped;
        w.batches += 1;
        w.last_seen = now;
        for mut s in spans {
            s.start = model.rebase(s.start);
            s.end = model.rebase(s.end);
            w.spans.push(s);
        }
    }

    /// All retained spans of every rank, rebased, in the recorder's
    /// `(track, start)` order — directly consumable by the causal graph,
    /// critical-path analyzer, and Chrome-trace serializer.
    pub fn merged_spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .windows
            .iter()
            .flat_map(|w| w.spans.iter().cloned())
            .collect();
        out.sort_by(Span::by_track_then_start);
        out
    }

    /// `true` once every rank sent its `Bye`.
    pub fn all_done(&self) -> bool {
        self.windows.iter().all(|w| w.done)
    }

    /// Ranks that have connected so far.
    pub fn connected(&self) -> usize {
        self.windows.iter().filter(|w| w.connected).count()
    }

    /// Sum of the senders' recorder ring-overflow drops (latest reports).
    pub fn remote_dropped(&self) -> u64 {
        self.windows.iter().map(|w| w.dropped).sum()
    }

    /// Spans evicted from the collector-side windows (bounded-memory
    /// trade-off; non-zero means the merged trace is a suffix window).
    pub fn evicted(&self) -> u64 {
        self.windows.iter().map(|w| w.spans.dropped()).sum()
    }

    /// The clock model `rank`'s last batch carried.
    pub fn clock_model(&self, rank: usize) -> ClockModel {
        self.windows
            .get(rank)
            .map(|w| w.model)
            .unwrap_or_else(ClockModel::identity)
    }

    /// Worst reported rebasing uncertainty across ranks — the tolerance
    /// cross-rank edge checks should allow.
    pub fn max_uncertainty(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.model.uncertainty)
            .fold(0.0, f64::max)
    }

    /// Renders the live dashboard: run progress (iterations, plan
    /// generation), per-rank clock state, span counts, and the
    /// exposed-communication / idle shares of the current window.
    ///
    /// `now` is the collector clock (for staleness flags).
    pub fn monitor_text(&self, now: f64) -> String {
        let spans = self.merged_spans();
        let mut out = format!(
            "== live telemetry (t={now:.1}s, {}/{} ranks connected) ==\n",
            self.connected(),
            self.world
        );
        if spans.is_empty() {
            out.push_str("waiting for span batches...\n");
            return out;
        }
        let t0 = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let t1 = spans
            .iter()
            .map(|s| s.end)
            .fold(f64::NEG_INFINITY, f64::max);
        // Iteration markers: the trainer labels each iteration's update
        // span `iter<N>` on the compute track.
        let iterations = (0..self.world)
            .map(|r| {
                spans
                    .iter()
                    .filter(|s| s.track == r && s.label.starts_with("iter"))
                    .count()
            })
            .max()
            .unwrap_or(0);
        let generation = spans
            .iter()
            .filter_map(|s| s.meta.generation)
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "window [{t0:.3}s, {t1:.3}s]  spans {}  iterations {iterations}  plan generation {generation}\n",
            spans.len()
        ));
        let report = CriticalReport::from_spans(&spans, &TrackLayout::trainer(self.world));
        let wall = report.wall().max(f64::MIN_POSITIVE);
        let mut t = Table::new([
            "rank", "spans", "offset", "drift", "±unc", "exposed", "idle", "flags",
        ]);
        for (r, w) in self.windows.iter().enumerate() {
            let att = report.ranks.iter().find(|a| a.rank == r);
            let share = |v: f64| format!("{:.1}%", 100.0 * v / wall);
            let mut flags = Vec::new();
            if !w.connected {
                flags.push("waiting");
            } else if w.done {
                flags.push("done");
            } else if w.batches > 0 && now - w.last_seen > STALE_FLAG_THRESHOLD {
                flags.push("stale");
            }
            if w.model.drift.abs() > DRIFT_FLAG_THRESHOLD {
                flags.push("drift");
            }
            if w.dropped > 0 {
                flags.push("drops");
            }
            if w.spans.dropped() > 0 {
                flags.push("window");
            }
            t.push_row([
                r.to_string(),
                w.spans.len().to_string(),
                format!("{:+.6}s", w.model.offset_at(now)),
                format!("{:+.1}ppm", w.model.drift * 1e6),
                format!("{:.0}us", w.model.uncertainty * 1e6),
                att.map(|a| share(a.exposed)).unwrap_or_default(),
                att.map(|a| share(a.idle)).unwrap_or_default(),
                flags.join(","),
            ]);
        }
        out.push_str(&t.render_text());
        out
    }
}

// ---------------------------------------------------------------------------
// Merge-quality check
// ---------------------------------------------------------------------------

/// Checks the merged trace's cross-rank collective edges for causal
/// consistency: within each `(generation, seq)` group, no participant may
/// complete before the arrival that determines the op (the last member
/// for joins, the root for fan-outs). `tol`
/// absorbs clock-rebasing error — pass the summed/worst model
/// uncertainty plus a small slack.
///
/// Returns human-readable violations (empty = consistent). Unrebased
/// multi-process spans — each rank on its own epoch — fail this check
/// loudly, which is exactly the point: it is the acceptance gate that the
/// clock sync actually worked (no negative-latency communication edges).
pub fn comm_edge_violations(spans: &[Span], layout: &TrackLayout, tol: f64) -> Vec<String> {
    let mut groups: BTreeMap<(u64, u64), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if !layout.is_comm(s.track) {
            continue;
        }
        let (Some(seq), Some(_)) = (s.meta.seq, s.meta.edge) else {
            continue;
        };
        groups
            .entry((s.meta.generation_or_zero(), seq))
            .or_default()
            .push(s);
    }
    let mut out = Vec::new();
    for ((gen, seq), members) in &groups {
        if members.len() < 2 {
            continue;
        }
        let edge = members[0].meta.edge.expect("comm span carries an edge");
        let max_start = members
            .iter()
            .map(|s| s.start)
            .fold(f64::NEG_INFINITY, f64::max);
        let describe = |m: &Span, lag: f64, what: &str| {
            format!(
                "gen {gen} seq {seq} {} on track {}: {what} by {:.6}s (tol {:.6}s)",
                m.display_name(),
                m.track,
                lag,
                tol
            )
        };
        match edge {
            CollEdge::Join => {
                for m in members {
                    if m.end + tol < max_start {
                        out.push(describe(
                            m,
                            max_start - m.end,
                            "completes before last arrival",
                        ));
                    }
                }
            }
            CollEdge::FanOut { root } => {
                if let Some(r) = members
                    .iter()
                    .find(|s| layout.rank_of(s.track) == Some(root))
                {
                    for m in members {
                        if m.end + tol < r.start {
                            out.push(describe(
                                m,
                                r.start - m.end,
                                "completes before root submits",
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalGraph;

    // Deterministic xorshift for jittered-delay simulations (no external
    // RNG dependency, reproducible across runs).
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    #[test]
    fn sample_from_symmetric_exchange_is_exact() {
        // Symmetric 1 ms path, server 10 s ahead: offset recovered exactly,
        // uncertainty equals the one-way delay.
        let s = ClockSample::from_exchange(5.0, 15.001, 15.002, 5.003);
        assert!((s.offset - 10.0).abs() < 1e-12, "offset {}", s.offset);
        assert!((s.uncertainty - 0.001).abs() < 1e-12);
        assert!((s.local_mid - 5.0015).abs() < 1e-12);
    }

    /// Simulates `rounds` ping-pong exchanges against a server whose clock
    /// is `server = local * (1 + drift) + skew`, with asymmetric jittered
    /// path delays up to `max_delay`, spread over `window` seconds.
    fn simulate(
        skew: f64,
        drift: f64,
        rounds: usize,
        window: f64,
        max_delay: f64,
        seed: u64,
    ) -> ClockEstimator {
        let mut est = ClockEstimator::new();
        let mut rng = Lcg(seed);
        let server = |t: f64| t * (1.0 + drift) + skew;
        for i in 0..rounds {
            let t0 = window * (i as f64) / (rounds as f64);
            let up = max_delay * (0.2 + 0.8 * rng.next_f64());
            let hold = max_delay * 0.1;
            let down = max_delay * (0.2 + 0.8 * rng.next_f64());
            let t1 = server(t0 + up);
            let t2 = server(t0 + up + hold);
            let t3 = t0 + up + hold + down;
            est.add(ClockSample::from_exchange(t0, t1, t2, t3));
        }
        est
    }

    #[test]
    fn fixed_skew_recovered_within_uncertainty() {
        let skew = 3.25;
        let est = simulate(skew, 0.0, 40, 2.0, 200e-6, 7);
        let m = est.fit().expect("samples present");
        assert!(m.uncertainty > 0.0 && m.uncertainty < 500e-6);
        // True offset is constant; the model must match everywhere in the
        // window to within its own reported bound.
        for t in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let err = (m.rebase(t) - (t + skew)).abs();
            assert!(
                err <= m.uncertainty,
                "t={t}: err {err} > reported uncertainty {}",
                m.uncertainty
            );
        }
    }

    #[test]
    fn linear_drift_recovered_within_uncertainty() {
        // 100 ppm drift over a 10 s window moves the offset by 1 ms —
        // 10× the path jitter, so an offset-only fit would be out of
        // bounds at the window edges.
        let (skew, drift) = (-1.75, 100e-6);
        let est = simulate(skew, drift, 100, 10.0, 100e-6, 42);
        let m = est.fit().expect("samples present");
        assert!(
            (m.drift - drift).abs() < 30e-6,
            "fitted drift {} vs true {drift}",
            m.drift
        );
        for t in [0.0, 2.5, 5.0, 7.5, 10.0] {
            let truth = t * (1.0 + drift) + skew;
            let err = (m.rebase(t) - truth).abs();
            assert!(
                err <= m.uncertainty,
                "t={t}: err {err} > reported uncertainty {}",
                m.uncertainty
            );
        }
    }

    #[test]
    fn estimator_is_bounded_and_filters_noisy_samples() {
        let mut est = ClockEstimator {
            samples: Ring::new(8),
        };
        // One tight sample among noisy ones: the fit must stay near the
        // tight sample's offset, not the noisy mean.
        for i in 0..20 {
            let noisy = ClockSample {
                local_mid: i as f64 * 0.01,
                offset: 5.0 + 0.5,
                uncertainty: 1.0,
            };
            est.add(noisy);
        }
        assert_eq!(est.len(), 8);
        est.add(ClockSample {
            local_mid: 0.25,
            offset: 5.0,
            uncertainty: 1e-4,
        });
        let m = est.fit().expect("fit");
        assert!((m.offset - 5.0).abs() < 1e-6, "offset {}", m.offset);
    }

    #[test]
    fn empty_estimator_fits_nothing() {
        assert!(ClockEstimator::new().fit().is_none());
        assert!(ClockEstimator::new().is_empty());
    }

    fn comm_span(track: usize, start: f64, end: f64, seq: u64, edge: CollEdge) -> Span {
        Span {
            track,
            phase: Phase::FactorComm,
            label: Cow::Borrowed("allreduce"),
            start,
            end,
            meta: SpanMeta {
                edge: Some(edge),
                seq: Some(seq),
                size: Some(64),
                generation: Some(0),
                wire_bytes: Some(64 * 8),
                codec_secs: None,
            },
        }
    }

    fn compute_span(track: usize, start: f64, end: f64) -> Span {
        Span::new(track, Phase::FfBp, start, end)
    }

    /// Two-rank trainer-layout timeline (tracks 0,1 compute; 2,3 comm)
    /// with two join collectives, on a single coherent clock.
    fn coherent_two_rank_spans() -> Vec<Span> {
        vec![
            compute_span(0, 0.0, 1.0),
            compute_span(1, 0.0, 1.2),
            comm_span(2, 1.0, 1.5, 0, CollEdge::Join),
            comm_span(3, 1.2, 1.5, 0, CollEdge::Join),
            compute_span(0, 1.5, 2.0),
            compute_span(1, 1.5, 2.1),
            comm_span(2, 2.0, 2.4, 1, CollEdge::Join),
            comm_span(3, 2.1, 2.4, 1, CollEdge::Join),
        ]
    }

    /// Shifts rank 1's tracks (compute 1, comm 3) by `delta` — the
    /// per-process-epoch situation before rebasing.
    fn skew_rank1(spans: &[Span], delta: f64) -> Vec<Span> {
        spans
            .iter()
            .cloned()
            .map(|mut s| {
                if s.track == 1 || s.track == 3 {
                    s.start += delta;
                    s.end += delta;
                }
                s
            })
            .collect()
    }

    #[test]
    fn edge_check_catches_unrebased_clocks_and_passes_rebased_ones() {
        let layout = TrackLayout::trainer(2);
        let coherent = coherent_two_rank_spans();
        assert!(comm_edge_violations(&coherent, &layout, 1e-6).is_empty());
        // Rank 1's epoch is 2 s behind: its join members now "complete"
        // long before rank 0 submits — a negative-latency comm edge.
        let skewed = skew_rank1(&coherent, -2.0);
        assert!(!comm_edge_violations(&skewed, &layout, 1e-6).is_empty());
    }

    #[test]
    fn causal_matching_is_exact_after_rebasing() {
        let layout = TrackLayout::trainer(2);
        let coherent = coherent_two_rank_spans();
        let reference = CausalGraph::build(&coherent, &layout);

        // Skew rank 1 by -2 s, then rebase its spans through a collector
        // window with the matching clock model (offset +2 s).
        let skewed = skew_rank1(&coherent, -2.0);
        let mut state = CollectorState::new(2, 0);
        let model1 = ClockModel {
            offset: 2.0,
            drift: 0.0,
            reference: 0.0,
            uncertainty: 1e-6,
        };
        let (rank0, rank1): (Vec<Span>, Vec<Span>) = skewed
            .into_iter()
            .partition(|s| s.track == 0 || s.track == 2);
        state.ingest(0, ClockModel::identity(), 0, rank0, 0.0);
        state.ingest(1, model1, 0, rank1, 0.0);
        let merged = state.merged_spans();
        let rebuilt = CausalGraph::build(&merged, &layout);

        // Group structure identical: same groups, same membership sizes.
        assert_eq!(rebuilt.num_groups(), reference.num_groups());
        for seq in 0..2u64 {
            assert_eq!(
                rebuilt.group(0, seq).len(),
                reference.group(0, seq).len(),
                "seq {seq}"
            );
        }
        // Rebased span times match the coherent original to fp precision.
        let mut coherent = coherent;
        coherent.sort_by(Span::by_track_then_start);
        assert_eq!(merged.len(), coherent.len());
        for (m, c) in merged.iter().zip(coherent.iter()) {
            assert_eq!(m.track, c.track);
            assert!((m.start - c.start).abs() < 1e-12);
            assert!((m.end - c.end).abs() < 1e-12);
        }
        // And the rebased trace passes the edge-consistency gate.
        assert!(comm_edge_violations(&merged, &layout, 1e-6).is_empty());
    }

    #[test]
    fn collector_windows_are_bounded() {
        let mut state = CollectorState::new(1, 4);
        for i in 0..10 {
            state.ingest(
                0,
                ClockModel::identity(),
                0,
                vec![compute_span(0, i as f64, i as f64 + 0.5)],
                i as f64,
            );
        }
        let merged = state.merged_spans();
        assert_eq!(merged.len(), 4);
        assert_eq!(state.evicted(), 6);
        // Newest spans survive.
        assert!(merged.iter().all(|s| s.start >= 6.0));
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello { rank: 3, world: 4 },
            Frame::Ping { t0: 1.25 },
            Frame::Pong {
                t0: 1.25,
                t1: 9.5,
                t2: 9.5001,
            },
            Frame::Batch(Batch {
                rank: 2,
                model: ClockModel {
                    offset: -0.5,
                    drift: 1e-5,
                    reference: 3.0,
                    uncertainty: 2e-4,
                },
                dropped: 7,
                spans: vec![
                    compute_span(0, 0.0, 1.0),
                    comm_span(2, 1.0, 1.5, 9, CollEdge::FanOut { root: 1 }),
                    Span {
                        track: 1,
                        phase: Phase::Update,
                        label: Cow::Borrowed("iter3"),
                        start: 2.0,
                        end: 2.5,
                        meta: SpanMeta::default(),
                    },
                ],
            }),
            Frame::Bye { rank: 2 },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            let got = read_frame(&mut r).unwrap();
            assert_eq!(&got, f);
        }
        assert!(r.is_empty());
        // A cleanly closed stream reads as UnexpectedEof.
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            ErrorKind::UnexpectedEof
        );

        // An over-long label whose byte cap falls inside a multi-byte
        // character is cut at the character boundary before it; the batch
        // still decodes.
        let mut long = compute_span(0, 0.0, 1.0);
        long.label = Cow::Owned("a".repeat(MAX_LABEL_BYTES - 1) + "é");
        let wire = encode_frame(&Frame::Batch(Batch {
            rank: 0,
            model: ClockModel::identity(),
            dropped: 0,
            spans: vec![long],
        }));
        let Frame::Batch(back) = read_frame(&mut &wire[..]).expect("batch decodes") else {
            panic!("not a batch");
        };
        assert_eq!(back.spans[0].label, "a".repeat(MAX_LABEL_BYTES - 1));
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping { t0: 4.0 }).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(read_frame(&mut &wire[..]).is_err());

        // Unknown frame kind.
        let mut bogus = Vec::new();
        put_u32(&mut bogus, 1);
        bogus.push(99);
        assert_eq!(
            read_frame(&mut &bogus[..]).unwrap_err().kind(),
            ErrorKind::InvalidData
        );

        // Oversized length prefix.
        let mut huge = Vec::new();
        put_u32(&mut huge, (MAX_FRAME_BYTES + 1) as u32);
        assert!(read_frame(&mut &huge[..]).is_err());

        // A span whose edge tag names no collective edge (1 = join and
        // 2 = fan-out are the only ones).
        let mut wire = encode_frame(&Frame::Batch(Batch {
            rank: 0,
            model: ClockModel::identity(),
            dropped: 0,
            spans: vec![comm_span(2, 1.0, 1.5, 9, CollEdge::FanOut { root: 1 })],
        }));
        // Length prefix, kind, rank, clock model, dropped count and span
        // count; then the span's track, phase, start and end.
        let edge_at = 4 + 1 + 4 + 4 * 8 + 8 + 4 + 4 + 1 + 2 * 8;
        assert_eq!(wire[edge_at], 2, "the fan-out tag");
        wire[edge_at] = 3;
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown edge kind 3"), "{err}");
    }

    #[test]
    fn monitor_renders_ranks_and_flags() {
        let mut state = CollectorState::new(2, 0);
        state.hello(0);
        state.ingest(
            0,
            ClockModel::identity(),
            0,
            vec![
                compute_span(0, 0.0, 1.0),
                Span {
                    track: 0,
                    phase: Phase::Update,
                    label: Cow::Borrowed("iter0"),
                    start: 1.5,
                    end: 1.6,
                    meta: SpanMeta::default(),
                },
            ],
            1.0,
        );
        let drifty = ClockModel {
            offset: 0.01,
            drift: 300e-6,
            reference: 0.0,
            uncertainty: 5e-5,
        };
        state.ingest(1, drifty, 3, vec![compute_span(1, 0.0, 1.1)], 1.0);
        let text = state.monitor_text(1.5);
        assert!(text.contains("2/2 ranks connected"), "{text}");
        assert!(text.contains("iterations 1"), "{text}");
        assert!(text.contains("drift"), "{text}");
        assert!(text.contains("drops"), "{text}");

        let empty = CollectorState::new(1, 0).monitor_text(0.0);
        assert!(empty.contains("waiting for span batches"));
    }

    #[test]
    fn monitor_flags_missing_and_stale_ranks() {
        let mut state = CollectorState::new(3, 0);
        // Rank 0 streams normally; rank 1 streamed once, long ago; rank 2
        // never connected at all.
        state.hello(0);
        state.hello(1);
        state.ingest(
            0,
            ClockModel::identity(),
            0,
            vec![compute_span(0, 9.5, 9.9)],
            10.0,
        );
        state.ingest(
            1,
            ClockModel::identity(),
            0,
            vec![compute_span(1, 0.0, 0.5)],
            1.0,
        );
        let text = state.monitor_text(10.0);
        assert!(text.contains("2/3 ranks connected"), "{text}");
        // Rank 1's last batch is 9 s old (> the 5 s staleness threshold).
        let rank1 = text
            .lines()
            .find(|l| l.trim_start().starts_with('1'))
            .unwrap();
        assert!(rank1.contains("stale"), "rank 1 row: {rank1}");
        // Rank 2 never said hello: still waiting.
        let rank2 = text
            .lines()
            .find(|l| l.trim_start().starts_with('2'))
            .unwrap();
        assert!(rank2.contains("waiting"), "rank 2 row: {rank2}");
        // The healthy rank carries neither flag.
        let rank0 = text
            .lines()
            .find(|l| l.trim_start().starts_with('0'))
            .unwrap();
        assert!(
            !rank0.contains("stale") && !rank0.contains("waiting"),
            "rank 0 row: {rank0}"
        );
    }
}
