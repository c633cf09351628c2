//! Per-iteration critical-path extraction and "why was this slow" report.
//!
//! Built on [`crate::causal::CausalGraph`]: starting from the last-ending
//! span, the analysis walks causal predecessors backwards — resolving each
//! collective to its cross-rank straggler — until it reaches the window
//! start, yielding a contiguous chain of segments that *explains* the
//! iteration's wall time. Alongside the path, wall time is attributed per
//! rank as an exact partition into `compute / comm-overlapped /
//! comm-exposed / idle` (the four sum to the window by construction), and
//! per phase along the path.
//!
//! The same code runs on live-trainer recordings (rich [`crate::SpanMeta`]
//! from the collectives) and on converted simulator schedules (no metadata;
//! pure timing inference) — that symmetry is what makes measured-vs-
//! simulated attribution tables meaningful.

use crate::causal::{CausalGraph, EPS};
use crate::json::escape_json;
use crate::phase::Phase;
use crate::recorder::{Span, SpanMeta};
use crate::table::{fmt_secs, Table};
use crate::trace::{chrome_trace_with_flows, FlowArrow, TrackKind, TrackLayout};
use std::borrow::Cow;

/// What one critical-path segment was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A compute-stream span.
    Compute,
    /// A communication span (rank-private comm thread or shared network).
    Comm,
    /// No recorded activity explains this stretch — an idle/straggler gap.
    Idle,
}

impl SegmentKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Comm => "comm",
            SegmentKind::Idle => "idle",
        }
    }
}

/// One stretch of the critical path.
#[derive(Debug, Clone)]
pub struct CritSegment {
    /// Segment start (seconds, recorder epoch).
    pub start: f64,
    /// Segment end.
    pub end: f64,
    /// Activity class.
    pub kind: SegmentKind,
    /// Rank the segment ran on (`None` for shared-network rows / unknown).
    pub rank: Option<usize>,
    /// Phase of the underlying span (`None` for idle gaps).
    pub phase: Option<Phase>,
    /// Display label of the underlying span (empty for idle gaps).
    pub label: String,
}

impl CritSegment {
    /// Segment duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Exact per-rank partition of the analysis window.
///
/// `compute + overlapped + exposed + idle == window` by construction:
/// overlapped is `|compute ∩ comm|`, compute is `|compute \ comm|`,
/// exposed is `|comm \ compute|`, idle is the remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankAttribution {
    /// Rank index.
    pub rank: usize,
    /// Seconds of compute not covered by communication.
    pub compute: f64,
    /// Seconds where compute and communication overlap (hidden comm).
    pub overlapped: f64,
    /// Seconds of communication not hidden behind compute (exposed).
    pub exposed: f64,
    /// Seconds with no recorded activity (waiting on a straggler).
    pub idle: f64,
}

impl RankAttribution {
    /// Sum of the four categories (equals the analysis window).
    pub fn total(&self) -> f64 {
        self.compute + self.overlapped + self.exposed + self.idle
    }
}

/// The full critical-path analysis result.
#[derive(Debug, Clone)]
pub struct CriticalReport {
    /// `(start, end)` of the analysis window.
    pub window: (f64, f64),
    /// The critical path, earliest segment first; contiguous over the
    /// window.
    pub segments: Vec<CritSegment>,
    /// Per-rank exact attribution (see [`RankAttribution`]).
    pub ranks: Vec<RankAttribution>,
    /// Critical-path seconds per phase (indexed by [`Phase::index`]).
    pub phase_path: [f64; Phase::ALL.len()],
    /// Critical-path seconds spent idle (straggler gaps).
    pub idle_path: f64,
    /// Cross-rank collective groups matched via span metadata.
    pub num_groups: usize,
    /// The track layout the analysis read ranks from.
    layout: TrackLayout,
}

impl CriticalReport {
    /// Runs the analysis over an assembled causal graph.
    pub fn analyze(graph: &CausalGraph) -> Self {
        let (t0, t1) = graph.window();
        let segments = walk_path(graph);
        let ranks = attribute_ranks(graph);
        let mut phase_path = [0.0; Phase::ALL.len()];
        let mut idle_path = 0.0;
        for seg in &segments {
            match seg.phase {
                Some(p) => phase_path[p.index()] += seg.duration(),
                None => idle_path += seg.duration(),
            }
        }
        CriticalReport {
            window: (t0, t1),
            segments,
            ranks,
            phase_path,
            idle_path,
            num_groups: graph.num_groups(),
            layout: graph.layout().clone(),
        }
    }

    /// Convenience: build the graph and analyze in one call.
    pub fn from_spans(spans: &[Span], layout: &TrackLayout) -> Self {
        Self::analyze(&CausalGraph::build(spans, layout))
    }

    /// Wall time of the analysis window.
    pub fn wall(&self) -> f64 {
        self.window.1 - self.window.0
    }

    /// Total length of the critical path (≈ wall; gaps are explicit idle
    /// segments, so the path tiles the window).
    pub fn path_total(&self) -> f64 {
        self.segments.iter().map(CritSegment::duration).sum()
    }

    /// Per-rank attribution as a [`Table`] (shared text/CSV formatter).
    pub fn rank_table(&self) -> Table {
        let mut t = Table::new([
            "rank",
            "compute",
            "overlapped",
            "exposed",
            "idle",
            "total",
            "idle%",
        ]);
        for r in &self.ranks {
            let total = r.total();
            let idle_pct = if total > 0.0 {
                100.0 * r.idle / total
            } else {
                0.0
            };
            t.push_row([
                format!("rank{}", r.rank),
                fmt_secs(r.compute),
                fmt_secs(r.overlapped),
                fmt_secs(r.exposed),
                fmt_secs(r.idle),
                fmt_secs(total),
                format!("{idle_pct:.1}%"),
            ]);
        }
        t
    }

    /// Critical-path time per phase as a [`Table`].
    pub fn phase_table(&self) -> Table {
        let mut t = Table::new(["phase", "critical", "share"]);
        let wall = self.wall().max(f64::MIN_POSITIVE);
        for p in Phase::ALL {
            let v = self.phase_path[p.index()];
            t.push_row([
                p.name().to_string(),
                fmt_secs(v),
                format!("{:.1}%", 100.0 * v / wall),
            ]);
        }
        t.push_row([
            "idle".to_string(),
            fmt_secs(self.idle_path),
            format!("{:.1}%", 100.0 * self.idle_path / wall),
        ]);
        t
    }

    /// The "why was this iteration slow" text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== critical path ==\nwall {}  path {}  segments {}  collective groups {}\n\n",
            fmt_secs(self.wall()),
            fmt_secs(self.path_total()),
            self.segments.len(),
            self.num_groups
        ));
        out.push_str("-- per-rank attribution (exact partition) --\n");
        out.push_str(&self.rank_table().render_text());
        out.push_str("\n-- critical-path time by phase --\n");
        out.push_str(&self.phase_table().render_text());

        // The heaviest path segments name the iteration's bottleneck.
        let mut heavy: Vec<&CritSegment> = self.segments.iter().collect();
        heavy.sort_by(|a, b| b.duration().total_cmp(&a.duration()));
        out.push_str("\n-- heaviest path segments --\n");
        let mut t = Table::new(["what", "rank", "kind", "start", "dur"]);
        for seg in heavy.iter().take(8) {
            let what = if seg.label.is_empty() {
                seg.phase.map(|p| p.name()).unwrap_or("idle").to_string()
            } else {
                seg.label.clone()
            };
            t.push_row([
                what,
                seg.rank.map(|r| format!("rank{r}")).unwrap_or_default(),
                seg.kind.name().to_string(),
                format!("{:.6}", seg.start - self.window.0),
                fmt_secs(seg.duration()),
            ]);
        }
        out.push_str(&t.render_text());
        out
    }

    /// Per-rank attribution as CSV (same rows as [`Self::rank_table`] but
    /// in raw seconds for machine consumption).
    pub fn rank_csv(&self) -> String {
        let mut t = Table::new([
            "rank",
            "compute_s",
            "overlapped_s",
            "exposed_s",
            "idle_s",
            "total_s",
        ]);
        for r in &self.ranks {
            t.push_row([
                r.rank.to_string(),
                format!("{:.9}", r.compute),
                format!("{:.9}", r.overlapped),
                format!("{:.9}", r.exposed),
                format!("{:.9}", r.idle),
                format!("{:.9}", r.total()),
            ]);
        }
        t.render_csv()
    }

    /// The analysis as a JSON document (validated shape; no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"spdkfac-critical-path-v1\",\n");
        out.push_str(&format!(
            "  \"wall_s\": {:.9},\n  \"path_s\": {:.9},\n  \"num_groups\": {},\n",
            self.wall(),
            self.path_total(),
            self.num_groups
        ));
        out.push_str("  \"ranks\": [");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rank\": {}, \"compute_s\": {:.9}, \"overlapped_s\": {:.9}, \"exposed_s\": {:.9}, \"idle_s\": {:.9}}}",
                r.rank, r.compute, r.overlapped, r.exposed, r.idle
            ));
        }
        out.push_str("\n  ],\n  \"phase_path_s\": {");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {:.9}",
                escape_json(p.name()),
                self.phase_path[p.index()]
            ));
        }
        out.push_str(&format!(",\n    \"idle\": {:.9}\n  }},\n", self.idle_path));
        out.push_str("  \"segments\": [");
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"start_s\": {:.9}, \"end_s\": {:.9}, \"kind\": \"{}\", \"rank\": {}, \"phase\": \"{}\", \"label\": \"{}\"}}",
                s.start - self.window.0,
                s.end - self.window.0,
                s.kind.name(),
                s.rank.map(|r| r.to_string()).unwrap_or("null".into()),
                s.phase.map(|p| escape_json(p.name())).unwrap_or_default(),
                escape_json(&s.label)
            ));
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Chrome-trace JSON of `spans` with one extra highlighted row carrying
    /// the critical path — load in Perfetto and the bottleneck chain reads
    /// left to right, with flow arrows (`ph:"s"`/`ph:"f"`) drawing the
    /// dependency hand-off between consecutive path segments. The rows are
    /// the layout the report was built with; phase aggregate rows are
    /// disabled so the synthetic row does not distort them.
    pub fn highlighted_trace(&self, spans: &[Span]) -> String {
        let mut layout = self.layout.clone().with_phase_rows(false);
        let crit_track = layout.push("critical path", TrackKind::Compute);
        let mut all: Vec<Span> = spans.to_vec();
        let mut crit_segs: Vec<&CritSegment> = Vec::new();
        for seg in &self.segments {
            if seg.duration() <= 0.0 {
                continue;
            }
            let label = match seg.kind {
                SegmentKind::Idle => Cow::Borrowed("idle (straggler)"),
                _ => {
                    let what = if seg.label.is_empty() {
                        seg.phase.map(|p| p.name()).unwrap_or("span")
                    } else {
                        &seg.label
                    };
                    Cow::Owned(match seg.rank {
                        Some(r) => format!("crit: {what} @rank{r}"),
                        None => format!("crit: {what}"),
                    })
                }
            };
            all.push(Span {
                track: crit_track,
                phase: seg.phase.unwrap_or(Phase::Update),
                label,
                start: seg.start,
                end: seg.end,
                meta: SpanMeta::default(),
            });
            crit_segs.push(seg);
        }
        // Flow arrows between consecutive segments: depart just inside the
        // producing slice, land just inside the consuming one (endpoints on
        // a slice boundary would anchor ambiguously in Perfetto).
        let mut flows = Vec::new();
        for pair in crit_segs.windows(2) {
            let nudge_a = (pair[0].duration() * 1e-3).min(5e-7);
            let nudge_b = (pair[1].duration() * 1e-3).min(5e-7);
            flows.push(FlowArrow {
                from_track: crit_track,
                from_ts: pair[0].end - nudge_a,
                to_track: crit_track,
                to_ts: pair[1].start + nudge_b,
            });
        }
        chrome_trace_with_flows(&all, &layout, &flows)
    }
}

/// Walks causal predecessors from the last-ending span back to the window
/// start; emits explicit idle segments for unexplained gaps so the path
/// tiles the window.
fn walk_path(graph: &CausalGraph) -> Vec<CritSegment> {
    let spans = graph.spans();
    let layout = graph.layout();
    let Some(mut cur) = graph.last_span() else {
        return Vec::new();
    };
    let (t0, _) = graph.window();
    let mut cursor = spans[cur].end;
    let mut segments = Vec::new();
    // Termination backstop: cursor is non-increasing and each hop moves to
    // a strictly earlier start, but cap the walk anyway.
    let max_hops = 2 * spans.len() + 4;
    for _ in 0..max_hops {
        // Resolve collective stragglers across ranks.
        cur = graph.determining_member(cur);
        let s = &spans[cur];
        let seg_start = s.start.min(cursor);
        if cursor - seg_start > 0.0 {
            segments.push(CritSegment {
                start: seg_start,
                end: cursor,
                kind: if layout.is_comm(s.track) {
                    SegmentKind::Comm
                } else {
                    SegmentKind::Compute
                },
                rank: layout.rank_of(s.track),
                phase: Some(s.phase),
                label: s.display_name().to_string(),
            });
        }
        cursor = seg_start;
        if cursor <= t0 + EPS {
            break;
        }
        match graph.predecessor(cur) {
            Some(p) => {
                let pe = spans[p].end.min(cursor);
                if cursor - pe > EPS {
                    // Nothing on this rank explains the gap: idle, waiting
                    // on a straggler elsewhere.
                    segments.push(CritSegment {
                        start: pe,
                        end: cursor,
                        kind: SegmentKind::Idle,
                        rank: layout.rank_of(s.track),
                        phase: None,
                        label: String::new(),
                    });
                }
                cursor = pe;
                cur = p;
            }
            None => {
                if cursor - t0 > EPS {
                    segments.push(CritSegment {
                        start: t0,
                        end: cursor,
                        kind: SegmentKind::Idle,
                        rank: layout.rank_of(s.track),
                        phase: None,
                        label: String::new(),
                    });
                }
                break;
            }
        }
    }
    segments.reverse();
    segments
}

/// Merged union of `(start, end)` intervals (inputs need not be sorted) —
/// also the per-phase aggregate rows of [`crate::trace`] and the comm-busy
/// time of [`crate::summary`].
pub(crate) fn union(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Intersection of two merged interval lists.
fn intersect(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

pub(crate) fn total_len(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Exact per-rank partition of the window into compute / overlapped /
/// exposed / idle. Shared-comm tracks (the simulator's network) count as
/// communication for *every* rank — exposed network time is exposed to
/// each GPU that is not computing under it.
fn attribute_ranks(graph: &CausalGraph) -> Vec<RankAttribution> {
    let (t0, t1) = graph.window();
    let wall = t1 - t0;
    let layout = graph.layout();
    let spans = graph.spans();
    let mut out = Vec::with_capacity(layout.num_ranks());
    for rank in 0..layout.num_ranks() {
        let clip = |s: &Span| (s.start.max(t0), s.end.min(t1));
        let compute_iv = union(
            spans
                .iter()
                .filter(|s| !layout.is_comm(s.track) && layout.rank_of(s.track) == Some(rank))
                .map(clip)
                .collect(),
        );
        let comm_iv = union(
            spans
                .iter()
                .filter(|s| {
                    layout.is_comm(s.track) && layout.rank_of(s.track).is_none_or(|r| r == rank)
                })
                .map(clip)
                .collect(),
        );
        let overlapped = total_len(&intersect(&compute_iv, &comm_iv));
        let compute = total_len(&compute_iv) - overlapped;
        let exposed = total_len(&comm_iv) - overlapped;
        let idle = (wall - compute - overlapped - exposed).max(0.0);
        out.push(RankAttribution {
            rank,
            compute,
            overlapped,
            exposed,
            idle,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use crate::recorder::CollEdge;

    fn sp(track: usize, phase: Phase, start: f64, end: f64) -> Span {
        Span::new(track, phase, start, end)
    }

    fn coll(track: usize, start: f64, end: f64, seq: u64, edge: CollEdge) -> Span {
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
                ..SpanMeta::default()
            },
        }
    }

    /// Two ranks; rank 1 computes longer, all-reduce joins them, update
    /// follows. Critical path must route through rank 1 (the straggler).
    fn straggler_spans() -> Vec<Span> {
        vec![
            sp(0, Phase::FfBp, 0.0, 1.0),
            sp(1, Phase::FfBp, 0.0, 2.0),
            coll(2, 1.0, 3.0, 0, CollEdge::Join),
            coll(3, 2.0, 3.0, 0, CollEdge::Join),
            sp(0, Phase::Update, 3.0, 3.5),
            sp(1, Phase::Update, 3.0, 3.5),
        ]
    }

    #[test]
    fn path_routes_through_straggler_and_tiles_window() {
        let rep = CriticalReport::from_spans(&straggler_spans(), &TrackLayout::trainer(2));
        assert!((rep.wall() - 3.5).abs() < 1e-12);
        // The path tiles the window exactly: FfBp(rank1) 0..2, comm 2..3,
        // update 3..3.5.
        assert!((rep.path_total() - rep.wall()).abs() < 1e-9);
        assert_eq!(rep.segments.len(), 3);
        assert_eq!(rep.segments[0].rank, Some(1));
        assert_eq!(rep.segments[0].kind, SegmentKind::Compute);
        assert_eq!(rep.segments[1].kind, SegmentKind::Comm);
        // Comm segment starts at the straggler's arrival, not rank 0's.
        assert!((rep.segments[1].start - 2.0).abs() < 1e-12);
        assert!((rep.phase_path[Phase::FfBp.index()] - 2.0).abs() < 1e-12);
        assert!((rep.phase_path[Phase::FactorComm.index()] - 1.0).abs() < 1e-12);
        assert!(rep.idle_path.abs() < 1e-12);
    }

    #[test]
    fn rank_attribution_is_exact_partition() {
        let rep = CriticalReport::from_spans(&straggler_spans(), &TrackLayout::trainer(2));
        for r in &rep.ranks {
            assert!(
                (r.total() - rep.wall()).abs() < 1e-9,
                "rank {} partition {} != wall {}",
                r.rank,
                r.total(),
                rep.wall()
            );
        }
        // Rank 0: compute 1.5 (FfBp 1 + update .5), comm exposed: op ran
        // 1..3 on its comm track, compute busy 0..1 and 3..3.5 → exposed 2.
        let r0 = rep.ranks[0];
        assert!((r0.compute - 1.5).abs() < 1e-12);
        assert!((r0.exposed - 2.0).abs() < 1e-12);
        assert!(r0.idle.abs() < 1e-12);
        // Rank 1: FfBp 0..2 overlaps nothing; comm 2..3 exposed.
        let r1 = rep.ranks[1];
        assert!((r1.compute - 2.5).abs() < 1e-12);
        assert!((r1.exposed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_becomes_explicit_segment() {
        // One rank, a gap between two compute spans.
        let spans = vec![sp(0, Phase::FfBp, 0.0, 1.0), sp(0, Phase::Update, 2.0, 3.0)];
        let rep = CriticalReport::from_spans(&spans, &TrackLayout::trainer(1));
        assert_eq!(rep.segments.len(), 3);
        assert_eq!(rep.segments[1].kind, SegmentKind::Idle);
        assert!((rep.idle_path - 1.0).abs() < 1e-12);
        assert!((rep.path_total() - rep.wall()).abs() < 1e-9);
    }

    #[test]
    fn runs_on_metadata_free_simulator_layout() {
        // gpu0, gpu1 compute; track 2 = shared network. No metadata.
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 1.0),
            sp(1, Phase::FfBp, 0.0, 1.5),
            sp(2, Phase::FactorComm, 1.5, 2.5),
            sp(0, Phase::Update, 2.5, 3.0),
            sp(1, Phase::Update, 2.5, 3.0),
        ];
        let rep = CriticalReport::from_spans(&spans, &TrackLayout::simulator(2, 2));
        assert!((rep.path_total() - rep.wall()).abs() < 1e-9);
        assert_eq!(rep.num_groups, 0);
        // Network time 1.5..2.5 is exposed to both ranks.
        for r in &rep.ranks {
            assert!((r.exposed - 1.0).abs() < 1e-12, "rank {}", r.rank);
            assert!((r.total() - rep.wall()).abs() < 1e-9);
        }
    }

    #[test]
    fn report_outputs_are_well_formed() {
        let rep = CriticalReport::from_spans(&straggler_spans(), &TrackLayout::trainer(2));
        let text = rep.render_text();
        assert!(text.contains("critical path"));
        assert!(text.contains("rank0"));
        assert!(text.contains("rank1"));
        assert!(text.contains("FF&BP"));
        let csv = rep.rank_csv();
        assert!(csv.starts_with("rank,compute_s,overlapped_s,exposed_s,idle_s,total_s\n"));
        assert_eq!(csv.lines().count(), 3);
        let json = rep.to_json();
        validate_json(&json).expect("report JSON must be valid");
        assert!(json.contains("spdkfac-critical-path-v1"));
    }

    #[test]
    fn highlighted_trace_adds_critical_row() {
        let spans = straggler_spans();
        let rep = CriticalReport::from_spans(&spans, &TrackLayout::trainer(2));
        let json = rep.highlighted_trace(&spans);
        validate_json(&json).expect("highlighted trace must be valid JSON");
        assert!(json.contains("critical path"));
        assert!(json.contains("crit: "));
        // Phase aggregate rows are disabled in the highlighted view.
        assert!(!json.contains("phase:FF&BP"));
        // Flow arrows between the 3 consecutive path segments: 2 s/f pairs.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 2);
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let rep = CriticalReport::from_spans(&[], &TrackLayout::trainer(2));
        assert_eq!(rep.segments.len(), 0);
        assert_eq!(rep.wall(), 0.0);
        for r in &rep.ranks {
            assert_eq!(r.total(), 0.0);
        }
    }
}
