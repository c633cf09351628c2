//! One-screen human-readable summary of a recorded run.
//!
//! The phase table is built through the shared [`Table`] formatter — the
//! same one the critical-path report uses — so text and CSV renderings of
//! both stay in one code path.

use crate::breakdown::{attribute, IterationBreakdown};
use crate::critical::{total_len, union};
use crate::metrics::MetricsSnapshot;
use crate::phase::Phase;
use crate::recorder::{Recorder, Span};
use crate::table::{fmt_secs, Table};
use crate::trace::{TrackKind, TrackLayout};

/// Union length of the given `(start, end)` intervals.
fn union_len(iv: Vec<(f64, f64)>) -> f64 {
    total_len(&union(iv))
}

/// Per-rank phase breakdowns, when the layout gives the ranks their own
/// communication rows (the trainer's). Each rank's spans are remapped onto
/// a private (compute, comm) pair and attributed independently.
fn per_rank_breakdowns(spans: &[Span], layout: &TrackLayout) -> Vec<IterationBreakdown> {
    let has_comm_rows = (0..layout.len()).any(|t| layout.kind(t) == TrackKind::Comm);
    if !has_comm_rows || layout.num_ranks() < 2 {
        return Vec::new();
    }
    (0..layout.num_ranks())
        .map(|r| {
            let rank_spans: Vec<Span> = spans
                .iter()
                .filter(|s| layout.rank_of(s.track) == Some(r))
                .map(|s| {
                    let mut s = s.clone();
                    s.track = usize::from(layout.is_comm(s.track));
                    s
                })
                .collect();
            attribute(&rank_spans, 1)
        })
        .collect()
}

/// The whole-run breakdown under [`attribute`]'s convention: the layout's
/// compute rows come first.
fn run_breakdown(spans: &[Span], layout: &TrackLayout) -> IterationBreakdown {
    let num_compute = (0..layout.len()).filter(|&t| !layout.is_comm(t)).count();
    attribute(spans, num_compute)
}

/// The per-phase table: total, share, and one column per rank (when the
/// layout gives ranks their own comm rows). `raw_secs` switches the cells
/// from human units to plain seconds for CSV consumption.
fn phase_table(
    spans: &[Span],
    breakdown: &IterationBreakdown,
    layout: &TrackLayout,
    raw_secs: bool,
) -> Table {
    let ranks = per_rank_breakdowns(spans, layout);
    let mut headers = vec!["phase".to_string(), "time".to_string(), "share".to_string()];
    for r in 0..ranks.len() {
        headers.push(format!("rank{r}"));
    }
    let mut t = Table::new(headers);
    let total = breakdown.total();
    let fmt = |v: f64| {
        if raw_secs {
            format!("{v:.9}")
        } else {
            fmt_secs(v)
        }
    };
    let share = |v: f64| {
        if total > 0.0 {
            format!("{:.1}%", 100.0 * v / total)
        } else {
            "0.0%".to_string()
        }
    };
    for p in Phase::ALL {
        let v = breakdown.get(p);
        let mut row = vec![p.name().to_string(), fmt(v), share(v)];
        for rb in &ranks {
            row.push(fmt(rb.get(p)));
        }
        t.push_row(row);
    }
    let mut idle_row = vec![
        "idle".to_string(),
        fmt(breakdown.idle),
        share(breakdown.idle),
    ];
    for rb in &ranks {
        idle_row.push(fmt(rb.idle));
    }
    t.push_row(idle_row);
    let mut total_row = vec!["total".to_string(), fmt(total), String::new()];
    for rb in &ranks {
        total_row.push(fmt(rb.total()));
    }
    t.push_row(total_row);
    t
}

/// Renders the per-phase totals (with per-rank columns under the trainer
/// layout), the communication overlap ratio, and a p50/p95/p99 latency
/// table for every histogram the recorder's metrics registry holds (the
/// collectives register one per op kind).
///
/// `layout` says what the recorder's tracks are; its compute rows come
/// first, as [`attribute`] expects.
pub fn render_summary(rec: &Recorder, layout: &TrackLayout) -> String {
    let spans = rec.spans();
    let breakdown = run_breakdown(&spans, layout);
    let snapshot = rec.metrics().snapshot();
    render_summary_parts(
        &spans,
        layout,
        &breakdown,
        &spans_comm_busy(&spans),
        &snapshot,
        rec.dropped(),
    )
}

/// The phase table as CSV (raw seconds), sharing rows and per-rank columns
/// with [`render_summary`]; pairs with `CriticalReport::rank_csv` for the
/// `--csv` paths of the observability bins. A trailing `dropped_spans` row
/// carries the recorder's ring-overflow count so downstream tooling can
/// tell a complete export from a truncated one.
pub fn render_summary_csv(rec: &Recorder, layout: &TrackLayout) -> String {
    let spans = rec.spans();
    let breakdown = run_breakdown(&spans, layout);
    let mut t = phase_table(&spans, &breakdown, layout, true);
    t.push_row(["dropped_spans".to_string(), rec.dropped().to_string()]);
    t.render_csv()
}

/// Busy (union) seconds of communication activity, per the whole run —
/// the denominator of the overlap ratio.
fn spans_comm_busy(spans: &[Span]) -> f64 {
    union_len(
        spans
            .iter()
            .filter(|s| s.phase.is_comm() && s.end > s.start)
            .map(|s| (s.start, s.end))
            .collect(),
    )
}

fn render_summary_parts(
    spans: &[Span],
    layout: &TrackLayout,
    breakdown: &IterationBreakdown,
    comm_busy: &f64,
    snapshot: &MetricsSnapshot,
    dropped: u64,
) -> String {
    let mut out = String::new();
    out.push_str("== phase breakdown (non-overlapped attribution) ==\n");
    out.push_str(&phase_table(spans, breakdown, layout, false).render_text());

    let exposed = breakdown.exposed_comm();
    let overlap = if *comm_busy > 0.0 {
        (1.0 - exposed / comm_busy).clamp(0.0, 1.0)
    } else {
        0.0
    };
    out.push_str(&format!(
        "comm: busy {} exposed {} overlap {:.1}%\n",
        fmt_secs(*comm_busy),
        fmt_secs(exposed),
        100.0 * overlap
    ));
    if dropped > 0 {
        out.push_str(&format!(
            "warning: {dropped} spans dropped (ring overflow)\n"
        ));
    }

    if !snapshot.histograms.is_empty() {
        out.push_str("\n== latency histograms ==\n");
        let mut t = Table::new(["name", "count", "mean", "p50", "p95", "p99"]);
        for (name, h) in &snapshot.histograms {
            t.push_row([
                name.clone(),
                h.count.to_string(),
                fmt_secs(h.mean()),
                fmt_secs(h.p50()),
                fmt_secs(h.p95()),
                fmt_secs(h.p99()),
            ]);
        }
        out.push_str(&t.render_text());
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n== counters ==\n");
        for (name, v) in &snapshot.counters {
            out.push_str(&format!("{name:<28} {v:>12}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("\n== gauges ==\n");
        for (name, v) in &snapshot.gauges {
            out.push_str(&format!("{name:<28} {v:>12.4}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_len_merges() {
        assert_eq!(union_len(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]), 3.0);
        assert_eq!(union_len(vec![]), 0.0);
    }

    fn sp(track: usize, phase: Phase, start: f64, end: f64) -> Span {
        Span::new(track, phase, start, end)
    }

    #[test]
    fn summary_mentions_every_phase_and_overlap() {
        let rec = Recorder::new(2);
        rec.record(sp(0, Phase::FfBp, 0.0, 1.0));
        rec.record(sp(1, Phase::FactorComm, 0.0, 0.5));
        rec.metrics().histogram("coll/allreduce/secs").observe(0.5);
        rec.metrics().counter("coll/allreduce/ops").inc();
        let s = render_summary(&rec, &TrackLayout::trainer(1));
        for p in Phase::ALL {
            assert!(s.contains(p.name()), "missing {}", p.name());
        }
        // FactorComm fully hidden behind FfBp → 100% overlap.
        assert!(s.contains("overlap 100.0%"), "summary was:\n{s}");
        assert!(s.contains("coll/allreduce/secs"));
        assert!(s.contains("coll/allreduce/ops"));
    }

    #[test]
    fn trainer_layout_gains_per_rank_columns() {
        // Two ranks (4 tracks): rank 1's FF&BP is twice as long.
        let rec = Recorder::new(4);
        rec.record(sp(0, Phase::FfBp, 0.0, 1.0));
        rec.record(sp(1, Phase::FfBp, 0.0, 2.0));
        rec.record(sp(2, Phase::FactorComm, 1.0, 1.5));
        rec.record(sp(3, Phase::FactorComm, 2.0, 2.5));
        let layout = TrackLayout::trainer(2);
        let s = render_summary(&rec, &layout);
        assert!(s.contains("rank0"), "summary was:\n{s}");
        assert!(s.contains("rank1"));

        let csv = render_summary_csv(&rec, &layout);
        let header = csv.lines().next().expect("header");
        assert_eq!(header, "phase,time,share,rank0,rank1");
        let ffbp = csv
            .lines()
            .find(|l| l.starts_with("FF&BP"))
            .expect("FF&BP row");
        let cells: Vec<&str> = ffbp.split(',').collect();
        // rank0 attributed 1s of FF&BP, rank1 2s.
        assert!((cells[3].parse::<f64>().expect("num") - 1.0).abs() < 1e-9);
        assert!((cells[4].parse::<f64>().expect("num") - 2.0).abs() < 1e-9);
        // Nothing dropped here — the counter row still surfaces the zero.
        assert_eq!(
            csv.lines().last().expect("dropped row"),
            "dropped_spans,0,,,"
        );
    }

    #[test]
    fn csv_surfaces_nonzero_drop_counts() {
        let rec = Recorder::with_capacity(2, 2);
        for i in 0..5 {
            rec.record(sp(0, Phase::FfBp, i as f64, i as f64 + 0.5));
        }
        assert!(rec.dropped() > 0);
        let csv = render_summary_csv(&rec, &TrackLayout::trainer(1));
        let last = csv.lines().last().expect("dropped row");
        assert_eq!(last, format!("dropped_spans,{},", rec.dropped()));
    }

    #[test]
    fn non_trainer_layouts_omit_rank_columns() {
        // Two compute rows and a shared network row: no rank owns a comm row.
        let rec = Recorder::new(3);
        rec.record(sp(0, Phase::FfBp, 0.0, 1.0));
        let csv = render_summary_csv(&rec, &TrackLayout::simulator(2, 2));
        assert_eq!(csv.lines().next().expect("header"), "phase,time,share");
    }
}
