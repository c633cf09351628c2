//! The trace directory of a multi-process run: per-rank documents in, one
//! merged trace and critical-path report out.
//!
//! Every `spdkfac_node run` rank writes `trace.rank{N}.json` on a clean
//! exit and `postmortem.rank{N}.json` on a failure, both in the one schema
//! of `spdkfac_obs::flight`. [`read_rank_docs`] is the one reader of
//! either set; [`merge`] is the one merge, called by the `spawn-local`
//! parent after its children exit and by `spdkfac_postmortem` on a
//! directory of hand-launched ranks.

use spdkfac_collectives::tcp::MAX_WORLD;
use spdkfac_obs::collect::{align, comm_edge_violations};
use spdkfac_obs::flight::{parse_document, RankDoc};
use spdkfac_obs::{CriticalReport, TrackLayout};

/// Minimum fraction of wall time the merged critical path must cover —
/// below this the merge lost whole stretches of the run.
pub const COVERAGE_MIN: f64 = 0.95;

/// Floor on the clock tolerance used for cross-rank edge checks (loopback
/// uncertainties are sub-100 µs; scheduling noise still deserves slack).
const EDGE_TOL_FLOOR: f64 = 1e-4;

/// Reads every `DIR/{stem}.rank*.json` (`stem` is `trace` or
/// `postmortem`), in rank order. Refuses a document `parse_document`
/// refuses (a `world` of 0, `rank >= world`, …), a `world` above
/// [`MAX_WORLD`] (the bound the rendezvous enforces), documents that
/// disagree on `world`, and two documents of one rank.
pub fn read_rank_docs(dir: &str, stem: &str) -> Result<Vec<RankDoc>, String> {
    let prefix = format!("{stem}.rank");
    let mut docs: Vec<RankDoc> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read trace directory {dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("read {dir}: {e}"))?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !name.starts_with(&prefix) || !name.ends_with(".json") {
            continue;
        }
        let path = path.display().to_string();
        let body = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = parse_document(&body).map_err(|e| format!("{path}: {e}"))?;
        if doc.world > MAX_WORLD {
            return Err(format!("{path}: world {} exceeds {MAX_WORLD}", doc.world));
        }
        if let Some(other) = docs.iter().find(|d| d.world != doc.world) {
            return Err(format!(
                "{path}: world {}, but rank {} wrote world {}",
                doc.world, other.rank, other.world
            ));
        }
        if docs.iter().any(|d| d.rank == doc.rank) {
            return Err(format!("{path}: a second document of rank {}", doc.rank));
        }
        docs.push(doc);
    }
    docs.sort_by_key(|d| d.rank);
    Ok(docs)
}

/// Merges one run's trace files onto the reference rank's clock (see
/// `spdkfac_obs::collect::align`), writes `DIR/merged_trace.json` (the
/// Chrome trace with the critical path highlighted), `critical_path.json`
/// and `critical_path.txt`, and enforces the gates: critical-path coverage
/// of at least [`COVERAGE_MIN`], and no cross-rank comm edge inconsistent
/// at `max(2 × worst clock uncertainty, EDGE_TOL_FLOOR)`. Each rank's
/// fitted clock is printed on stderr.
pub fn merge(dir: &str, docs: &[RankDoc]) -> Result<(), String> {
    let world = docs
        .first()
        .ok_or_else(|| format!("no trace.rank*.json in {dir} to merge"))?
        .world;
    let aligned = align(docs);
    for c in &aligned.clocks {
        eprintln!(
            "trace merge: rank {} clock offset {:+.6}s ± {:.0}us, drift {:+.1}ppm, {} collective pairs",
            c.rank,
            c.model.offset,
            c.model.uncertainty * 1e6,
            c.model.drift * 1e6,
            c.pairs
        );
        if c.rank != aligned.reference && c.pairs == 0 {
            eprintln!(
                "trace merge: rank {} shares no collective with rank {}; its spans stay on its own clock",
                c.rank, aligned.reference
            );
        }
    }
    let layout = TrackLayout::trainer(world);
    let report = CriticalReport::from_spans(&aligned.spans, &layout);
    let coverage = if report.wall() > 0.0 {
        report.path_total() / report.wall()
    } else {
        0.0
    };
    // Rebasing error bounds are per rank; a cross-rank comparison can be
    // off by both ends' bounds, plus a floor for scheduling noise.
    let tol = (2.0 * aligned.max_uncertainty()).max(EDGE_TOL_FLOOR);
    let violations = comm_edge_violations(&aligned.spans, &layout, tol);
    eprintln!(
        "trace merge: {} spans from {}/{world} ranks, critical-path coverage {:.1}%, \
         clock tolerance {:.0}us, ring drops {}",
        aligned.spans.len(),
        docs.len(),
        100.0 * coverage,
        tol * 1e6,
        docs.iter().map(|d| d.dropped).sum::<u64>(),
    );

    let write = |name: &str, body: String| -> Result<(), String> {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))
    };
    write(
        "merged_trace.json",
        report.highlighted_trace(&aligned.spans),
    )?;
    write("critical_path.json", report.to_json())?;
    write("critical_path.txt", report.render_text())?;
    eprintln!("trace merge: artifacts written to {dir}/");

    if !violations.is_empty() {
        for v in violations.iter().take(5) {
            eprintln!("trace merge: causal violation: {v}");
        }
        return Err(format!(
            "{} cross-rank comm edge(s) inconsistent after clock alignment",
            violations.len()
        ));
    }
    if coverage < COVERAGE_MIN {
        return Err(format!(
            "merged critical-path coverage {:.1}% is below the {:.0}% gate",
            100.0 * coverage,
            100.0 * COVERAGE_MIN
        ));
    }
    Ok(())
}
