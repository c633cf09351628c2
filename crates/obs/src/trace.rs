//! The one Chrome-trace serializer.
//!
//! Both the simulator (`spdkfac_sim::trace::to_chrome_trace`) and the real
//! trainers (`spdkfac_core::distributed::TrainSession` +
//! [`TrackLayout::trainer`]) funnel their spans through [`chrome_trace`],
//! so the JSON shape — metadata `thread_name` rows, `"X"` complete slices
//! with microsecond `ts`/`dur` — exists in exactly one place. Load the
//! output at <https://ui.perfetto.dev> or `chrome://tracing`.

use crate::critical::union;
use crate::json::JsonWriter;
use crate::phase::Phase;
use crate::recorder::Span;

/// What a track represents; controls naming and grouping only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// A rank's compute stream.
    Compute,
    /// A rank's communication thread.
    Comm,
    /// A simulated shared network row or per-root link.
    Network,
}

/// The one statement of what every track is: its display name and its
/// [`TrackKind`], from which the analysis reads the owning rank.
///
/// A `Compute` row belongs to the rank equal to its position among the
/// `Compute` rows, a `Comm` row to the rank equal to its position among the
/// `Comm` rows; `Network` rows, and any track past the end of the layout,
/// are shared by every rank. The layout also says whether to synthesize one
/// aggregate row per [`Phase`] category.
#[derive(Debug, Clone, Default)]
pub struct TrackLayout {
    names: Vec<String>,
    kinds: Vec<TrackKind>,
    /// Owning rank per track (`None` = shared).
    ranks: Vec<Option<usize>>,
    phase_rows: bool,
}

impl TrackLayout {
    /// An empty layout; add rows with [`TrackLayout::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a track, returning its id.
    pub fn push(&mut self, name: impl Into<String>, kind: TrackKind) -> usize {
        let rank =
            (kind != TrackKind::Network).then(|| self.kinds.iter().filter(|&&k| k == kind).count());
        self.names.push(name.into());
        self.kinds.push(kind);
        self.ranks.push(rank);
        self.names.len() - 1
    }

    /// The simulator's layout: `gpu0..` below `network_resource`, `network`
    /// at it, `link0..` above it, covering tracks `0..=max_track`.
    pub fn simulator(network_resource: usize, max_track: usize) -> Self {
        let mut layout = TrackLayout::new();
        for res in 0..=max_track.max(network_resource) {
            if res < network_resource {
                layout.push(format!("gpu{res}"), TrackKind::Compute);
            } else if res == network_resource {
                layout.push("network", TrackKind::Network);
            } else {
                layout.push(
                    format!("link{}", res - network_resource - 1),
                    TrackKind::Network,
                );
            }
        }
        layout
    }

    /// The live trainers' layout: one compute row per rank (`rank{r}`,
    /// tracks `0..world`) then one communication row per rank
    /// (`rank{r} comm`, tracks `world..2*world`), with per-phase aggregate
    /// rows enabled.
    pub fn trainer(world: usize) -> Self {
        let mut layout = TrackLayout::new();
        for r in 0..world {
            layout.push(format!("rank{r}"), TrackKind::Compute);
        }
        for r in 0..world {
            layout.push(format!("rank{r} comm"), TrackKind::Comm);
        }
        layout.phase_rows = true;
        layout
    }

    /// Enables/disables the synthesized one-row-per-phase-category view.
    pub fn with_phase_rows(mut self, on: bool) -> Self {
        self.phase_rows = on;
        self
    }

    /// Number of real (non-synthesized) tracks.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the layout has no tracks.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of ranks that own a track.
    pub fn num_ranks(&self) -> usize {
        self.ranks
            .iter()
            .flatten()
            .map(|r| r + 1)
            .max()
            .unwrap_or(0)
    }

    /// Name of track `track` (`track{n}` fallback past the end).
    pub fn name(&self, track: usize) -> String {
        self.names
            .get(track)
            .cloned()
            .unwrap_or_else(|| format!("track{track}"))
    }

    /// Kind of track `track` (`Network`, i.e. shared, past the end).
    pub fn kind(&self, track: usize) -> TrackKind {
        self.kinds.get(track).copied().unwrap_or(TrackKind::Network)
    }

    /// The rank owning `track`; `None` for a shared track.
    pub fn rank_of(&self, track: usize) -> Option<usize> {
        self.ranks.get(track).copied().flatten()
    }

    /// `true` when `track` carries communication (rank-private or shared).
    pub fn is_comm(&self, track: usize) -> bool {
        self.kind(track) != TrackKind::Compute
    }
}

fn write_meta(w: &mut JsonWriter<'_>, tid: usize, label: &str) {
    w.object(|w| {
        w.key("name").str("thread_name").key("ph").str("M");
        w.key("pid").int(0).key("tid").int(tid as u64);
        w.key("args").object(|w| {
            w.key("name").str(label);
        });
    });
}

fn write_slice(w: &mut JsonWriter<'_>, name: &str, ts_us: f64, dur_us: f64, tid: usize) {
    w.object(|w| {
        w.key("name").str(name).key("ph").str("X");
        w.key("ts").fixed(ts_us, 3).key("dur").fixed(dur_us, 3);
        w.key("pid").int(0).key("tid").int(tid as u64);
    });
}

/// One Chrome-trace flow arrow (a `ph:"s"` → `ph:"f"` pair) between two
/// slice-bound points. Times are in seconds on the same epoch as the spans
/// passed to [`chrome_trace_with_flows`]; each endpoint must fall *inside*
/// a slice on its track for Perfetto to anchor the arrow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowArrow {
    /// Track the arrow leaves from.
    pub from_track: usize,
    /// Departure time (seconds).
    pub from_ts: f64,
    /// Track the arrow lands on.
    pub to_track: usize,
    /// Arrival time (seconds).
    pub to_ts: f64,
}

fn write_flow(w: &mut JsonWriter<'_>, name: &str, id: usize, arrow: &FlowArrow, origin: f64) {
    // bp:"e" binds the finish to the slice *enclosing* ts, not the next
    // slice boundary — the arrow lands on the consuming slice itself.
    let ends = [
        ("s", arrow.from_ts, arrow.from_track),
        ("f", arrow.to_ts, arrow.to_track),
    ];
    for (ph, ts, track) in ends {
        w.object(|w| {
            w.key("name").str(name).key("cat").str("crit");
            w.key("ph").str(ph);
            if ph == "f" {
                w.key("bp").str("e");
            }
            w.key("id").int(id as u64);
            w.key("ts").fixed((ts - origin) * 1e6, 3);
            w.key("pid").int(0).key("tid").int(track as u64);
        });
    }
}

/// Serializes `spans` as a Chrome Tracing JSON document.
///
/// Emits one `thread_name` metadata row per layout track, then one `"X"`
/// complete-slice event per positive-length span (timestamps normalized to
/// the earliest span start, microseconds, 3 decimals). When the layout has
/// phase rows enabled, appends one extra row per [`Phase`] category showing
/// the union of that phase's activity across all tracks — the at-a-glance
/// "is factor comm hidden behind FF&BP?" view.
pub fn chrome_trace(spans: &[Span], layout: &TrackLayout) -> String {
    chrome_trace_with_flows(spans, layout, &[])
}

/// [`chrome_trace`] plus flow arrows: each [`FlowArrow`] becomes a
/// `ph:"s"`/`ph:"f"` event pair sharing an id, rendered by Perfetto as an
/// arrow between the slices enclosing the two endpoints. Used by
/// [`crate::CriticalReport::highlighted_trace`] to draw the dependency
/// chain between consecutive critical-path segments.
pub fn chrome_trace_with_flows(
    spans: &[Span],
    layout: &TrackLayout,
    flows: &[FlowArrow],
) -> String {
    let origin = spans
        .iter()
        .filter(|s| s.end > s.start)
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    let origin = if origin.is_finite() { origin } else { 0.0 };

    let mut out = String::new();
    let events = |w: &mut JsonWriter<'_>| {
        for tid in 0..layout.len() {
            write_meta(w, tid, &layout.name(tid));
        }
        if layout.phase_rows {
            for p in Phase::ALL {
                let row = layout.len() + p.index();
                write_meta(w, row, &format!("phase:{}", p.name()));
            }
        }
        for s in spans {
            if s.end <= s.start {
                continue; // zero-length slices clutter the view
            }
            let (ts, dur) = ((s.start - origin) * 1e6, (s.end - s.start) * 1e6);
            write_slice(w, s.display_name(), ts, dur, s.track);
        }
        if layout.phase_rows {
            for p in Phase::ALL {
                let merged = union(
                    spans
                        .iter()
                        .filter(|s| s.phase == p && s.end > s.start)
                        .map(|s| (s.start, s.end))
                        .collect(),
                );
                for (s, e) in merged {
                    let row = layout.len() + p.index();
                    write_slice(w, p.name(), (s - origin) * 1e6, (e - s) * 1e6, row);
                }
            }
        }
        for (id, arrow) in flows.iter().enumerate() {
            write_flow(w, "critical path", id, arrow, origin);
        }
    };
    JsonWriter::new(&mut out).object(|w| {
        w.key("traceEvents").array(events);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use std::borrow::Cow;

    fn sp(track: usize, phase: Phase, start: f64, end: f64) -> Span {
        Span::new(track, phase, start, end)
    }

    #[test]
    fn simulator_layout_names() {
        let l = TrackLayout::simulator(2, 3);
        assert_eq!(l.name(0), "gpu0");
        assert_eq!(l.name(1), "gpu1");
        assert_eq!(l.name(2), "network");
        assert_eq!(l.name(3), "link0");
        assert_eq!(l.kind(2), TrackKind::Network);
    }

    #[test]
    fn trace_shape_and_validity() {
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 1.0),
            sp(2, Phase::FactorComm, 0.5, 1.5),
            sp(0, Phase::Update, 1.0, 1.0), // zero-length, skipped
        ];
        let json = chrome_trace(&spans, &TrackLayout::simulator(2, 2));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"gpu0\""));
        assert!(json.contains("\"network\""));
        validate_json(&json).expect("valid JSON");
    }

    #[test]
    fn labels_are_escaped() {
        let spans = vec![Span {
            track: 0,
            phase: Phase::Update,
            label: Cow::Borrowed("layer \"fc\"\n"),
            start: 0.0,
            end: 1.0,
            meta: crate::recorder::SpanMeta::default(),
        }];
        let mut layout = TrackLayout::new();
        layout.push("gpu\"0\"", TrackKind::Compute);
        let json = chrome_trace(&spans, &layout);
        validate_json(&json).expect("escaped labels must stay valid JSON");
        assert!(json.contains("layer \\\"fc\\\"\\n"));
    }

    #[test]
    fn phase_rows_are_synthesized() {
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 1.0),
            sp(1, Phase::FfBp, 0.5, 1.5),
            sp(2, Phase::FactorComm, 0.2, 0.8),
        ];
        let layout = TrackLayout::trainer(1); // tracks: rank0, rank0 comm
        let json = chrome_trace(&spans, &layout);
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("phase:FF&BP"));
        assert!(json.contains("phase:FactorComm"));
        // FfBp union 0..1.5 merges to ONE slice on the phase row: 2 raw FfBp
        // slices + 1 merged + 1 FactorComm raw + 1 merged = 5 X events.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
    }

    #[test]
    fn timestamps_normalized_to_first_span() {
        let spans = vec![sp(0, Phase::FfBp, 100.0, 100.5)];
        let json = chrome_trace(&spans, &TrackLayout::simulator(1, 1));
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":500000.000"));
    }

    #[test]
    fn merge_intervals_unions() {
        let m = union(vec![(2.0, 3.0), (0.0, 1.0), (0.5, 2.5)]);
        assert_eq!(m, vec![(0.0, 3.0)]);
    }

    #[test]
    fn flow_arrows_emit_paired_s_f_events() {
        let spans = vec![
            sp(0, Phase::FfBp, 1.0, 2.0),
            sp(1, Phase::FactorComm, 2.0, 3.0),
        ];
        let flows = vec![FlowArrow {
            from_track: 0,
            from_ts: 1.9,
            to_track: 1,
            to_ts: 2.1,
        }];
        let json = chrome_trace_with_flows(&spans, &TrackLayout::simulator(2, 2), &flows);
        validate_json(&json).expect("valid JSON");
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"bp\":\"e\""));
        // Both endpoints share the flow id and are normalized to the span
        // origin (1.0 s): departure at 0.9 s = 900000 µs.
        assert_eq!(json.matches("\"id\":0").count(), 2);
        assert!(json.contains("\"ts\":900000.000"));
        assert!(json.contains("\"ts\":1100000.000"));
    }

    #[test]
    fn chrome_trace_without_flows_has_none() {
        let spans = vec![sp(0, Phase::FfBp, 0.0, 1.0)];
        let json = chrome_trace(&spans, &TrackLayout::simulator(1, 1));
        assert!(!json.contains("\"ph\":\"s\""));
        assert!(!json.contains("\"ph\":\"f\""));
    }
}
