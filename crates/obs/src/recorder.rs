//! Lock-cheap span recording with per-track ring buffers.

use crate::metrics::MetricsRegistry;
use crate::phase::Phase;
use crate::ring::Ring;
use std::borrow::Cow;
use std::sync::Mutex;
use std::time::Instant;

/// Cross-rank causal role of a collective-operation span.
///
/// The causal graph builder ([`crate::causal`]) uses this to draw edges
/// between ranks: a [`CollEdge::Join`] op cannot finish anywhere before the
/// last participant arrives, and a [`CollEdge::FanOut`] op makes every peer
/// wait on the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollEdge {
    /// Symmetric join (all-reduce, barrier): every participant blocks on
    /// the last arrival.
    Join,
    /// Root-to-peers fan-out (broadcast).
    FanOut {
        /// Rank holding the source data.
        root: usize,
    },
}

/// Optional analysis metadata attached to a [`Span`].
///
/// All fields default to `None`; plain compute spans carry an empty meta.
/// Collective spans recorded by the communication threads fill all three so
/// the causal builder can match the k-th collective on one rank with the
/// k-th on every other (the SPMD submission contract guarantees they are
/// the same operation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanMeta {
    /// Cross-rank causal role, for collective-operation spans.
    pub edge: Option<CollEdge>,
    /// Per-track collective submission sequence number; the k-th collective
    /// submitted on each rank's comm thread shares `seq == k`.
    pub seq: Option<u64>,
    /// Problem size: wire elements for collectives, matrix dimension for
    /// inversions. Consumed by online cost-model calibration.
    pub size: Option<usize>,
    /// Plan generation the operation executed under. The adaptive runtime
    /// (`spdkfac_core::runtime`) bumps the generation at every re-plan barrier, so
    /// the k-th-collective SPMD matching in [`crate::causal`] must pair
    /// spans per `(generation, seq)` — a re-plan changes the number and
    /// order of collectives, making a global `seq` ambiguous across the
    /// swap. `None` is treated as generation 0 (static-plan runs).
    pub generation: Option<u64>,
    /// Actual post-encoding bytes this rank sent for the operation
    /// (`size * 8` under the f64 pass-through wire format, less under
    /// compressed formats). Consumed by wire-aware cost-model calibration.
    pub wire_bytes: Option<u64>,
    /// CPU seconds this rank spent encoding/decoding wire payloads for the
    /// operation. Zero-cost under the f64 pass-through.
    pub codec_secs: Option<f64>,
}

impl SpanMeta {
    /// Meta carrying only a problem size (e.g. a sized compute span).
    pub fn sized(size: usize) -> Self {
        SpanMeta {
            size: Some(size),
            ..SpanMeta::default()
        }
    }

    /// The plan generation, with `None` mapped to generation 0.
    pub fn generation_or_zero(&self) -> u64 {
        self.generation.unwrap_or(0)
    }
}

/// One recorded timeline slice, in seconds since the recorder's epoch.
///
/// This is the *shared* span type: the simulator converts its `TaskSpan`s
/// into it for export, and the real trainers record it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The row this span occupies (a rank's compute stream, a rank's
    /// communication thread, or a simulated resource).
    pub track: usize,
    /// Task category.
    pub phase: Phase,
    /// Slice name for the trace; empty means "use the phase name".
    pub label: Cow<'static, str>,
    /// Start time (seconds since epoch).
    pub start: f64,
    /// End time (seconds since epoch).
    pub end: f64,
    /// Optional causal/sizing metadata (empty for plain compute spans).
    pub meta: SpanMeta,
}

impl Span {
    /// A plain span: no label (the phase names it), no metadata.
    pub fn new(track: usize, phase: Phase, start: f64, end: f64) -> Span {
        Span {
            track,
            phase,
            label: Cow::Borrowed(""),
            start,
            end,
            meta: SpanMeta::default(),
        }
    }

    /// Slice duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// `(track, start)` order — the order every drain and merge returns
    /// spans in (ties keep their input order under a stable sort).
    pub(crate) fn by_track_then_start(a: &Span, b: &Span) -> std::cmp::Ordering {
        a.track
            .cmp(&b.track)
            .then_with(|| a.start.total_cmp(&b.start))
    }

    /// The name exporters should show.
    pub fn display_name(&self) -> &str {
        if self.label.is_empty() {
            self.phase.name()
        } else {
            &self.label
        }
    }
}

/// Span recorder shared by every instrumented thread of a run.
///
/// Each track's [`Ring`] sits behind its own mutex; with the one-thread-
/// per-track discipline the trainers use (track `r` = rank `r`'s compute
/// stream, track `world + r` = rank `r`'s communication thread) those
/// mutexes are never contended, so recording costs two `Instant::now()`
/// calls and an uncontended lock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    lanes: Vec<Mutex<Ring<Span>>>,
    metrics: MetricsRegistry,
}

/// Default per-track ring capacity (spans).
pub const DEFAULT_TRACK_CAPACITY: usize = 65_536;

impl Recorder {
    /// Creates a recorder with `tracks` rows and the default ring capacity.
    pub fn new(tracks: usize) -> Self {
        Self::with_capacity(tracks, DEFAULT_TRACK_CAPACITY)
    }

    /// Creates a recorder with `tracks` rows of `capacity` spans each.
    pub fn with_capacity(tracks: usize, capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            lanes: (0..tracks)
                .map(|_| Mutex::new(Ring::new(capacity)))
                .collect(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Seconds elapsed since the recorder's epoch (monotonic).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The recorder's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Opens a phase span on `track`; the span is recorded when the guard
    /// drops (or [`SpanGuard::finish`] is called).
    pub fn span(&self, track: usize, phase: Phase) -> SpanGuard<'_> {
        self.span_labeled(track, phase, Cow::Borrowed(""))
    }

    /// Opens a named span on `track`.
    pub fn span_labeled(
        &self,
        track: usize,
        phase: Phase,
        label: impl Into<Cow<'static, str>>,
    ) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            track,
            phase,
            label: Some(label.into()),
            start: self.now(),
            meta: SpanMeta::default(),
        }
    }

    /// Records a span measured by the caller (e.g. the collectives'
    /// communication threads time operations themselves).
    ///
    /// Out-of-range tracks and non-positive durations are dropped silently —
    /// instrumentation must never fail the instrumented code.
    pub fn record(&self, span: Span) {
        if span.end <= span.start {
            return;
        }
        if let Some(lane) = self.lanes.get(span.track) {
            lane.lock().expect("recorder lane poisoned").push(span);
        }
    }

    /// Clones the spans of every lane from the write index `from` picks for
    /// it, into `(track, start)` order — the one read path under
    /// [`Recorder::spans`], [`Recorder::flush_since`] and
    /// [`Recorder::newest`].
    fn drain(&self, mut from: impl FnMut(usize, &Ring<Span>) -> u64) -> Vec<Span> {
        let mut out = Vec::new();
        for (track, lane) in self.lanes.iter().enumerate() {
            let ring = lane.lock().expect("recorder lane poisoned");
            out.extend(ring.since(from(track, &ring)).cloned());
        }
        out.sort_by(Span::by_track_then_start);
        out
    }

    /// All recorded spans in deterministic `(track, start-time)` order.
    ///
    /// The sort is part of the API contract: exporters and the causal-graph
    /// builder rely on per-track program order and must not depend on ring-
    /// buffer drain order (which would differ after wrap-around). Ties on
    /// start time keep recording order (stable sort). Dropped-by-ring-
    /// overflow spans are simply absent; see [`Recorder::dropped`].
    pub fn spans(&self) -> Vec<Span> {
        self.drain(|_, _| 0)
    }

    /// Creates a flush cursor positioned at "nothing flushed yet".
    ///
    /// Pair with [`Recorder::flush_since`] for incremental, non-destructive
    /// reads: the re-plan barrier's calibrator polls new spans without
    /// clearing the rings (end-of-run exporters and the per-rank documents
    /// keep seeing the full window).
    pub fn flush_cursor(&self) -> FlushCursor {
        FlushCursor {
            per_track: vec![0; self.lanes.len()],
        }
    }

    /// Returns every span recorded since the cursor's last flush and
    /// advances the cursor, in the same `(track, start)` order as
    /// [`Recorder::spans`].
    ///
    /// The cursor holds each lane's write index, so a flush visits only the
    /// new slots and yields every span exactly once whatever its timestamps
    /// — a span whose recording was delayed past a later-ending one is new
    /// when it is written, not when it ended. Spans evicted by ring
    /// overflow between flushes are simply absent; see
    /// [`Recorder::dropped`].
    pub fn flush_since(&self, cursor: &mut FlushCursor) -> Vec<Span> {
        self.drain(|track, ring| match cursor.per_track.get_mut(track) {
            Some(mark) => std::mem::replace(mark, ring.written()),
            None => 0,
        })
    }

    /// The newest `n` (or fewer) spans by end time, oldest first: the
    /// window a post-mortem dump carries. Reads at most `n` slots per lane.
    pub fn newest(&self, n: usize) -> Vec<Span> {
        let mut out = self.drain(|_, ring| ring.written().saturating_sub(n as u64));
        out.sort_by(|a, b| a.end.total_cmp(&b.end));
        out.drain(..out.len().saturating_sub(n));
        out
    }

    /// Total spans dropped by ring overflow, across all tracks.
    pub fn dropped(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("recorder lane poisoned").dropped())
            .sum()
    }
}

/// Per-track write indices for incremental span flushing; see
/// [`Recorder::flush_cursor`] / [`Recorder::flush_since`].
#[derive(Debug, Clone)]
pub struct FlushCursor {
    per_track: Vec<u64>,
}

/// RAII timer: records a [`Span`] from construction to drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    track: usize,
    phase: Phase,
    label: Option<Cow<'static, str>>,
    start: f64,
    meta: SpanMeta,
}

impl SpanGuard<'_> {
    /// Ends the span now (equivalent to dropping the guard).
    pub fn finish(self) {}

    /// Start time of the span (seconds since the recorder epoch).
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Attaches a problem size (matrix dim, element count) to the span, so
    /// online calibration can pair the measured duration with its input.
    pub fn sized(mut self, size: usize) -> Self {
        self.meta.size = Some(size);
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let label = self.label.take().unwrap_or(Cow::Borrowed(""));
        self.recorder.record(Span {
            track: self.track,
            phase: self.phase,
            label,
            start: self.start,
            end: self.recorder.now(),
            meta: self.meta,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop() {
        let rec = Recorder::new(1);
        {
            let _g = rec.span(0, Phase::FfBp);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].duration() >= 0.001);
        assert_eq!(spans[0].display_name(), "FF&BP");
    }

    #[test]
    fn labeled_spans_keep_their_name() {
        let rec = Recorder::new(1);
        rec.span_labeled(0, Phase::FactorComm, "bucket0").finish();
        assert_eq!(rec.spans()[0].display_name(), "bucket0");
    }

    #[test]
    fn out_of_range_track_is_dropped() {
        let rec = Recorder::new(1);
        rec.span(7, Phase::Update).finish();
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn ring_overflow_keeps_newest() {
        let rec = Recorder::with_capacity(1, 4);
        for i in 0..10 {
            rec.record(Span {
                track: 0,
                phase: Phase::Update,
                label: Cow::Borrowed(""),
                start: i as f64,
                end: i as f64 + 0.5,
                meta: SpanMeta::default(),
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(rec.dropped(), 6);
        // Newest four, still in order.
        let starts: Vec<f64> = spans.iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let rec = Recorder::new(1);
        rec.record(Span {
            track: 0,
            phase: Phase::Update,
            label: Cow::Borrowed(""),
            start: 1.0,
            end: 1.0,
            meta: SpanMeta::default(),
        });
        assert!(rec.spans().is_empty());
    }

    fn raw(track: usize, start: f64, end: f64) -> Span {
        Span::new(track, Phase::Update, start, end)
    }

    #[test]
    fn spans_are_sorted_by_track_then_start() {
        let rec = Recorder::new(3);
        // Record deliberately out of start order and across tracks.
        rec.record(raw(2, 5.0, 6.0));
        rec.record(raw(0, 3.0, 4.0));
        rec.record(raw(0, 1.0, 2.0));
        rec.record(raw(1, 0.5, 0.9));
        let keys: Vec<(usize, f64)> = rec.spans().iter().map(|s| (s.track, s.start)).collect();
        assert_eq!(keys, vec![(0, 1.0), (0, 3.0), (1, 0.5), (2, 5.0)]);
    }

    #[test]
    fn spans_order_is_deterministic_after_ring_wraparound() {
        // After wrap-around the ring's physical drain order starts mid-
        // buffer; the (track, start) contract must hide that.
        let rec = Recorder::with_capacity(1, 4);
        for i in 0..7 {
            rec.record(raw(0, i as f64, i as f64 + 0.5));
        }
        let starts: Vec<f64> = rec.spans().iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn dropped_counter_tracks_capacity_pressure() {
        let rec = Recorder::with_capacity(2, 8);
        // 50 guard-recorded spans per track against capacity 8.
        for _ in 0..50 {
            rec.span(0, Phase::FfBp).finish();
            rec.span(1, Phase::GradComm).finish();
        }
        assert_eq!(rec.spans().len(), 16);
        assert_eq!(rec.dropped(), 2 * (50 - 8));
    }

    #[test]
    fn sized_guard_carries_meta() {
        let rec = Recorder::new(1);
        rec.span(0, Phase::InverseComp).sized(128).finish();
        let spans = rec.spans();
        assert_eq!(spans[0].meta.size, Some(128));
        assert_eq!(spans[0].meta.edge, None);
    }

    #[test]
    fn flush_since_yields_each_span_exactly_once() {
        let rec = Recorder::new(2);
        let mut cur = rec.flush_cursor();
        rec.record(raw(0, 0.0, 1.0));
        rec.record(raw(1, 0.5, 1.5));
        let first = rec.flush_since(&mut cur);
        assert_eq!(first.len(), 2);
        // No new spans: a second flush is empty.
        assert!(rec.flush_since(&mut cur).is_empty());
        // New spans after the watermark are picked up; old ones are not
        // re-delivered even though spans() still holds them.
        rec.record(raw(0, 2.0, 3.0));
        let second = rec.flush_since(&mut cur);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].start, 2.0);
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn flush_cursor_is_per_track() {
        // A late span on track 1 with an earlier end than track 0's
        // watermark must still be delivered (per-track cut, not global).
        let rec = Recorder::new(2);
        let mut cur = rec.flush_cursor();
        rec.record(raw(0, 0.0, 10.0));
        assert_eq!(rec.flush_since(&mut cur).len(), 1);
        rec.record(raw(1, 0.0, 1.0));
        let got = rec.flush_since(&mut cur);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].track, 1);
    }

    #[test]
    fn flush_survives_ring_wraparound() {
        let rec = Recorder::with_capacity(1, 4);
        let mut cur = rec.flush_cursor();
        rec.record(raw(0, 0.0, 1.0));
        assert_eq!(rec.flush_since(&mut cur).len(), 1);
        for i in 1..10 {
            rec.record(raw(0, i as f64, i as f64 + 0.5));
        }
        // Only the surviving ring contents past the watermark arrive.
        let got = rec.flush_since(&mut cur);
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|s| s.end > 1.0));
        assert_eq!(rec.dropped(), 6);
    }

    #[test]
    fn newest_is_the_latest_ending_spans_across_tracks() {
        let rec = Recorder::new(2);
        for i in 0..6 {
            rec.record(raw(i % 2, i as f64, i as f64 + 0.5));
        }
        let ends: Vec<f64> = rec.newest(3).iter().map(|s| s.end).collect();
        assert_eq!(ends, vec![3.5, 4.5, 5.5]);
        assert_eq!(rec.newest(100).len(), 6);
    }

    #[test]
    fn concurrent_tracks_do_not_interfere() {
        let rec = Recorder::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    for _ in 0..100 {
                        rec.span(t, Phase::FactorComp).finish();
                    }
                });
            }
        });
        assert_eq!(rec.spans().len(), 400);
    }
}
