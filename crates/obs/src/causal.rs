//! Cross-rank causal event graph over recorded spans.
//!
//! The paper's timeline arguments (Fig. 1/4: factor communication hides
//! behind FF&BP; Fig. 12: inversions balance across GPUs) are claims about
//! *causality*, not just about busy time. This module assembles the
//! per-track span streams of a [`crate::Recorder`] (or a converted
//! simulator schedule) into a causal graph:
//!
//! - **intra-rank program order**: consecutive spans on one rank's tracks,
//!   plus the submission edge from a rank's compute stream into its
//!   communication thread;
//! - **cross-rank collective edges**: the k-th collective submitted on
//!   every rank's communication thread is the same logical operation (SPMD
//!   submission contract), so spans sharing [`SpanMeta::seq`](crate::SpanMeta::seq) form a group
//!   whose completion is gated by the group's *straggler* — the last
//!   arrival for a join (all-reduce), the root for a fan-out (broadcast).
//!
//! Simulator traces carry no metadata and put all communication on shared
//! network tracks; the graph degrades gracefully to pure timing inference
//! (latest span ending at-or-before a start is its cause), so the same
//! analysis — [`crate::critical`] — runs unchanged on both.

use crate::recorder::{CollEdge, Span};
use crate::trace::TrackLayout;
use std::collections::BTreeMap;

/// Start-time slack below which two events are considered causally
/// back-to-back (also absorbs f64 rounding of `Instant` differences).
pub(crate) const EPS: f64 = 5e-6;

/// The assembled causal graph: spans in deterministic order, a track index,
/// and cross-rank collective groups keyed by plan generation and submission
/// sequence number.
///
/// Keying by `(generation, seq)` rather than `seq` alone keeps the SPMD
/// k-th-collective matching sound across an adaptive re-plan
/// (`core::runtime`): a plan swap changes the number and order of
/// collectives, so a global sequence number would pair unrelated operations
/// across the generation boundary. Spans without a generation stamp map to
/// generation 0.
#[derive(Debug)]
pub struct CausalGraph {
    spans: Vec<Span>,
    layout: TrackLayout,
    /// Per-track span indices, ordered by start time.
    by_track: BTreeMap<usize, Vec<usize>>,
    /// Collective groups: (generation, seq) → member span indices (one per
    /// rank).
    groups: BTreeMap<(u64, u64), Vec<usize>>,
    window: (f64, f64),
}

impl CausalGraph {
    /// Builds the graph from spans (any order; they are re-sorted to the
    /// `(track, start)` contract) and the layout that says which rank owns
    /// each track.
    pub fn build(spans: &[Span], layout: &TrackLayout) -> Self {
        let mut spans: Vec<Span> = spans.iter().filter(|s| s.end > s.start).cloned().collect();
        spans.sort_by(|a, b| {
            a.track
                .cmp(&b.track)
                .then_with(|| a.start.total_cmp(&b.start))
        });
        let mut by_track: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, s) in spans.iter().enumerate() {
            by_track.entry(s.track).or_default().push(i);
            if let Some(seq) = s.meta.seq {
                groups
                    .entry((s.meta.generation_or_zero(), seq))
                    .or_default()
                    .push(i);
            }
            t0 = t0.min(s.start);
            t1 = t1.max(s.end);
        }
        if !t0.is_finite() {
            t0 = 0.0;
            t1 = 0.0;
        }
        CausalGraph {
            spans,
            layout: layout.clone(),
            by_track,
            groups,
            window: (t0, t1),
        }
    }

    /// The graph's spans, `(track, start)`-sorted.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The track layout the graph was built with.
    pub fn layout(&self) -> &TrackLayout {
        &self.layout
    }

    /// `(earliest start, latest end)` over all spans.
    pub fn window(&self) -> (f64, f64) {
        self.window
    }

    /// Number of matched cross-rank collective groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Iterates the matched collective groups as
    /// `((generation, seq), member span indices)`, in key order.
    pub fn groups(&self) -> impl Iterator<Item = ((u64, u64), &[usize])> {
        self.groups.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Member span indices of the collective group with plan generation
    /// `generation` and sequence `seq` (unstamped spans live in
    /// generation 0).
    pub fn group(&self, generation: u64, seq: u64) -> &[usize] {
        self.groups
            .get(&(generation, seq))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Resolves a collective span to the group member that *determined* its
    /// completion: the last-arriving member for a join, the root
    /// (if later than `idx` itself) for a fan-out. Non-collective spans and
    /// unmatched groups resolve to `idx` itself.
    pub fn determining_member(&self, idx: usize) -> usize {
        let s = &self.spans[idx];
        let (Some(seq), Some(edge)) = (s.meta.seq, s.meta.edge) else {
            return idx;
        };
        let members = self.group(s.meta.generation_or_zero(), seq);
        if members.len() < 2 {
            return idx;
        }
        match edge {
            CollEdge::Join => *members
                .iter()
                .max_by(|&&a, &&b| self.spans[a].start.total_cmp(&self.spans[b].start))
                .expect("non-empty group"),
            CollEdge::FanOut { root } => {
                // Peers cannot receive before the root arrives; the root's
                // own start is gated by its rank-local predecessor.
                let root_member = members
                    .iter()
                    .copied()
                    .find(|&m| self.layout.rank_of(self.spans[m].track) == Some(root));
                match root_member {
                    Some(m) if self.spans[m].start > s.start => m,
                    _ => idx,
                }
            }
        }
    }

    /// The span that caused `idx` to start when it did, per this order:
    ///
    /// 1. for a communication span: the rank's compute span *containing*
    ///    the start (the op was submitted from inside it);
    /// 2. otherwise: the latest span on the same rank's tracks ending
    ///    at-or-before the start (for shared-comm spans: any track).
    ///
    /// Returns `None` at the start of the window (nothing earlier on the
    /// rank). The returned predecessor always starts strictly earlier, so
    /// walking predecessors terminates.
    pub fn predecessor(&self, idx: usize) -> Option<usize> {
        let s = &self.spans[idx];
        let rank = self.layout.rank_of(s.track);
        // A rank-private span can be caused by its own rank's tracks or by
        // any shared communication resource (the simulator's network row);
        // shared-comm spans can be caused by anything.
        let candidate_tracks: Vec<usize> = self
            .by_track
            .keys()
            .copied()
            .filter(|&t| match rank {
                Some(r) => self.layout.rank_of(t).is_none_or(|x| x == r),
                None => true,
            })
            .collect();

        // Submission edge: a comm op starts inside the compute span that
        // submitted it.
        if self.layout.is_comm(s.track) {
            let mut containing: Option<usize> = None;
            for &t in &candidate_tracks {
                if self.layout.is_comm(t) {
                    continue;
                }
                for &i in &self.by_track[&t] {
                    let q = &self.spans[i];
                    if q.start >= s.start {
                        break;
                    }
                    if q.end >= s.start - EPS
                        && containing.is_none_or(|c| q.start > self.spans[c].start)
                    {
                        containing = Some(i);
                    }
                }
            }
            if let Some(c) = containing {
                return Some(c);
            }
        }

        // Timing inference: latest end at-or-before the start.
        let mut best: Option<usize> = None;
        for &t in &candidate_tracks {
            for &i in &self.by_track[&t] {
                let q = &self.spans[i];
                if q.start >= s.start || i == idx {
                    continue;
                }
                if q.end <= s.start + EPS && best.is_none_or(|b| q.end > self.spans[b].end) {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// Index of the last-ending span (the iteration's final event), if any.
    pub fn last_span(&self) -> Option<usize> {
        (0..self.spans.len()).max_by(|&a, &b| self.spans[a].end.total_cmp(&self.spans[b].end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::recorder::SpanMeta;
    use crate::trace::TrackKind;

    fn sp(track: usize, phase: Phase, start: f64, end: f64, meta: SpanMeta) -> Span {
        Span {
            meta,
            ..Span::new(track, phase, start, end)
        }
    }

    fn coll(track: usize, start: f64, end: f64, seq: u64, edge: CollEdge) -> Span {
        sp(
            track,
            Phase::FactorComm,
            start,
            end,
            SpanMeta {
                edge: Some(edge),
                seq: Some(seq),
                size: Some(100),
                ..SpanMeta::default()
            },
        )
    }

    #[test]
    fn rank_map_conventions() {
        let m = TrackLayout::trainer(3);
        assert_eq!(m.num_ranks(), 3);
        assert_eq!((m.kind(1), m.rank_of(1)), (TrackKind::Compute, Some(1)));
        assert_eq!((m.kind(4), m.rank_of(4)), (TrackKind::Comm, Some(1)));
        assert!(m.is_comm(4));
        assert!(!m.is_comm(1));

        let s = TrackLayout::simulator(2, 3);
        assert_eq!(s.num_ranks(), 2);
        assert_eq!((s.kind(0), s.rank_of(0)), (TrackKind::Compute, Some(0)));
        assert_eq!((s.kind(2), s.rank_of(2)), (TrackKind::Network, None));
        assert_eq!((s.kind(3), s.rank_of(3)), (TrackKind::Network, None));
        assert!(s.is_comm(2));
        // Tracks past the end are shared and never panic.
        assert_eq!((s.kind(99), s.rank_of(99)), (TrackKind::Network, None));
    }

    #[test]
    fn groups_match_by_seq_across_ranks() {
        let spans = vec![
            coll(2, 1.0, 2.0, 0, CollEdge::Join),
            coll(3, 1.5, 2.0, 0, CollEdge::Join),
            coll(2, 3.0, 4.0, 1, CollEdge::Join),
            coll(3, 3.0, 4.0, 1, CollEdge::Join),
        ];
        let g = CausalGraph::build(&spans, &TrackLayout::trainer(2));
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.group(0, 0).len(), 2);
    }

    #[test]
    fn groups_split_at_generation_boundary() {
        // Two collectives share seq 0 but ran under different plan
        // generations (a re-plan happened between them): they must not be
        // matched as one cross-rank group.
        let mut a = coll(2, 1.0, 2.0, 0, CollEdge::Join);
        let mut b = coll(3, 1.5, 2.0, 0, CollEdge::Join);
        a.meta.generation = Some(0);
        b.meta.generation = Some(0);
        let mut c = coll(2, 3.0, 4.0, 0, CollEdge::Join);
        let mut d = coll(3, 3.2, 4.0, 0, CollEdge::Join);
        c.meta.generation = Some(1);
        d.meta.generation = Some(1);
        let g = CausalGraph::build(&[a, b, c, d], &TrackLayout::trainer(2));
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.group(0, 0).len(), 2);
        assert_eq!(g.group(1, 0).len(), 2);
        // Unstamped meta lands in generation 0.
        assert_eq!(SpanMeta::default().generation_or_zero(), 0);
        // Straggler resolution stays within the generation.
        let late0 = g.spans().iter().position(|s| s.start == 1.5).expect("span");
        let early0 = g.spans().iter().position(|s| s.start == 1.0).expect("span");
        assert_eq!(g.determining_member(early0), late0);
        let late1 = g.spans().iter().position(|s| s.start == 3.2).expect("span");
        let early1 = g.spans().iter().position(|s| s.start == 3.0).expect("span");
        assert_eq!(g.determining_member(early1), late1);
    }

    #[test]
    fn join_straggler_is_latest_arrival() {
        // Rank 1's member arrives at 1.5 — it determined completion.
        let spans = vec![
            coll(2, 1.0, 2.0, 0, CollEdge::Join),
            coll(3, 1.5, 2.0, 0, CollEdge::Join),
        ];
        let g = CausalGraph::build(&spans, &TrackLayout::trainer(2));
        let early = g.spans().iter().position(|s| s.start == 1.0).expect("span");
        let late = g.spans().iter().position(|s| s.start == 1.5).expect("span");
        assert_eq!(g.determining_member(early), late);
        assert_eq!(g.determining_member(late), late);
    }

    #[test]
    fn fanout_straggler_is_root() {
        // Broadcast from root 1; root arrives late at 1.8.
        let spans = vec![
            coll(2, 1.0, 2.0, 0, CollEdge::FanOut { root: 1 }),
            coll(3, 1.8, 2.0, 0, CollEdge::FanOut { root: 1 }),
        ];
        let g = CausalGraph::build(&spans, &TrackLayout::trainer(2));
        let peer = g.spans().iter().position(|s| s.start == 1.0).expect("span");
        let root = g.spans().iter().position(|s| s.start == 1.8).expect("span");
        assert_eq!(g.determining_member(peer), root);
        // The root itself is gated by its rank-local predecessor, not the
        // group.
        assert_eq!(g.determining_member(root), root);
    }

    #[test]
    fn comm_span_predecessor_is_submitting_compute_span() {
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 3.0, SpanMeta::default()),
            coll(2, 1.0, 2.0, 0, CollEdge::Join),
        ];
        let g = CausalGraph::build(&spans, &TrackLayout::trainer(2));
        let comm = g.spans().iter().position(|s| s.track == 2).expect("span");
        let ffbp = g.spans().iter().position(|s| s.track == 0).expect("span");
        assert_eq!(g.predecessor(comm), Some(ffbp));
    }

    #[test]
    fn compute_span_predecessor_is_latest_end_before_start() {
        // Compute resumes at 2.0 right when the comm op ends (a wait).
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 1.0, SpanMeta::default()),
            coll(2, 1.0, 2.0, 0, CollEdge::Join),
            sp(0, Phase::Update, 2.0, 2.5, SpanMeta::default()),
        ];
        let g = CausalGraph::build(&spans, &TrackLayout::trainer(2));
        let upd = g
            .spans()
            .iter()
            .position(|s| s.phase == Phase::Update)
            .expect("span");
        let comm = g.spans().iter().position(|s| s.track == 2).expect("span");
        assert_eq!(g.predecessor(upd), Some(comm));
    }

    #[test]
    fn window_start_has_no_predecessor() {
        let spans = vec![sp(0, Phase::FfBp, 0.0, 1.0, SpanMeta::default())];
        let g = CausalGraph::build(&spans, &TrackLayout::trainer(1));
        assert_eq!(g.predecessor(0), None);
        assert_eq!(g.last_span(), Some(0));
        assert_eq!(g.window(), (0.0, 1.0));
    }

    #[test]
    fn metadata_free_sim_spans_still_build() {
        // Simulator spans: no meta at all, comm on a shared network row.
        let spans = vec![
            sp(0, Phase::FfBp, 0.0, 1.0, SpanMeta::default()),
            sp(1, Phase::FfBp, 0.0, 1.2, SpanMeta::default()),
            sp(2, Phase::FactorComm, 1.2, 2.0, SpanMeta::default()),
        ];
        let g = CausalGraph::build(&spans, &TrackLayout::simulator(2, 2));
        assert_eq!(g.num_groups(), 0);
        let comm = g.spans().iter().position(|s| s.track == 2).expect("span");
        // Timing inference: the network op started when gpu1 finished.
        let gpu1 = g.spans().iter().position(|s| s.track == 1).expect("span");
        assert_eq!(g.predecessor(comm), Some(gpu1));
        assert_eq!(g.determining_member(comm), comm);
    }
}
