//! `spdkfac_postmortem` — reads a trace directory after the run.
//!
//! Every rank of an `spdkfac_node run` group started with `--trace-dir DIR`
//! leaves one document there, in the one schema of `spdkfac_obs::flight`:
//! `trace.rank{N}.json` on a clean exit, `postmortem.rank{N}.json` (the
//! newest spans of its recorder, the first transport failure its comm
//! thread saw, a heartbeat snapshot) when it failed. This tool reads
//! whatever the directory holds, every file through the one reader
//! (`spdkfac_bench::traces::read_rank_docs`):
//!
//! - **Trace files** are merged exactly as the `spawn-local` parent merges
//!   them (`spdkfac_bench::traces::merge`: `merged_trace.json`,
//!   `critical_path.json`, `critical_path.txt`, and the coverage and
//!   comm-edge gates). This is the merge of hand-launched `run` ranks.
//! - **Dumps** answer the forensic questions:
//!   - **Who died?** Ranks in `0..world` with no dump are presumed killed
//!     (a dump means the process lived long enough to notice the failure).
//!   - **What broke first?** Every dump's pinned failure is rebased onto
//!     the reference rank's clock, fitted from the collectives the dumps
//!     share (`spdkfac_obs::collect::align`); the earliest one names the
//!     first failing collective — op kind, plan generation, and submission
//!     sequence number — and the rank that observed it.
//!   - **What was everyone doing?** A per-rank table of last iteration,
//!     phase, and generation at dump time, plus a merged Chrome trace
//!     (`postmortem_trace.json`) of the final window across all surviving
//!     ranks, on one rebased timeline.
//!
//!   Output: `DIR/postmortem_timeline.json` (schema
//!   `spdkfac-postmortem-timeline-v1`) for the CI assertions, then a human
//!   timeline on stdout. Both files are written before anything is
//!   printed, and a reader that closes stdout early (`| head`) ends the
//!   printing, not the run: the exit status stays 0.
//!
//! usage: `spdkfac_postmortem DIR [--out FILE]`

use spdkfac_bench::traces::{merge, read_rank_docs};
use spdkfac_obs::collect::{align, RankClock};
use spdkfac_obs::flight::{FailureInfo, RankDoc};
use spdkfac_obs::json::JsonWriter;
use spdkfac_obs::{chrome_trace, TrackLayout};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;

/// Schema tag of the merged timeline document.
const TIMELINE_SCHEMA: &str = "spdkfac-postmortem-timeline-v1";

/// The earliest pinned failure: its rebased time, the rank that saw it.
type First<'a> = (f64, usize, &'a FailureInfo);

fn render_timeline(
    world: usize,
    killed: &[usize],
    first: Option<First<'_>>,
    dumps: &[RankDoc],
    clocks: &[RankClock],
) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).object(|w| {
        w.key("schema").str(TIMELINE_SCHEMA);
        w.key("world").int(world as u64);
        w.key("killed").array(|w| {
            for r in killed {
                w.int(*r as u64);
            }
        });
        w.key("first_failure");
        match first {
            None => w.null(),
            Some((t, rank, f)) => w.object(|w| {
                w.key("t").fixed(t, 9).key("rank").int(rank as u64);
                w.key("op").str(&f.op).key("seq").int(f.seq);
                w.key("generation").int(f.generation);
                w.key("phase")
                    .str(f.phase.name())
                    .key("error")
                    .str(&f.error);
            }),
        };
        w.key("ranks").array(|w| {
            for (d, c) in dumps.iter().zip(clocks) {
                w.object(|w| {
                    w.key("rank").int(d.rank as u64);
                    w.key("reason").str(&d.reason);
                    w.key("iteration").int(d.iteration);
                    w.key("phase").str(&d.phase);
                    w.key("generation").int(d.generation);
                    w.key("clock_offset").fixed(c.model.offset, 9);
                    w.key("dumped_at").fixed(c.model.rebase(d.wall_now), 9);
                });
            }
        });
    });
    out
}

fn run(dir: &str, out_path: Option<&str>) -> Result<(), String> {
    let traces = read_rank_docs(dir, "trace")?;
    if !traces.is_empty() {
        merge(dir, &traces)?;
    }
    let mut dumps = read_rank_docs(dir, "postmortem")?;
    if dumps.is_empty() {
        if traces.is_empty() {
            return Err(format!(
                "no trace.rank*.json or postmortem.rank*.json in {dir} — nothing to merge"
            ));
        }
        return Ok(());
    }
    let world = dumps[0].world;
    let killed: Vec<usize> = (0..world)
        .filter(|r| dumps.iter().all(|d| d.rank != *r))
        .collect();
    // The span of each dump's pinned failing collective is relabeled.
    for d in &mut dumps {
        let Some(f) = &d.failure else { continue };
        for s in &mut d.spans {
            if s.meta.seq == Some(f.seq) && s.meta.generation == Some(f.generation) {
                s.label = Cow::Owned(format!("FAILED {}", s.display_name()));
            }
        }
    }
    let aligned = align(&dumps);

    // The earliest rebased failure across all survivors is the forensic
    // anchor: the collective during which the ring first broke. A failure
    // pinned with no recorder attached has no time: it never wins.
    let first: Option<First<'_>> = dumps
        .iter()
        .zip(&aligned.clocks)
        .filter_map(|(d, c)| {
            let f = d.failure.as_ref()?;
            Some((f.t.map_or(f64::INFINITY, |t| c.model.rebase(t)), d.rank, f))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0));

    // Merged Chrome trace of the final window, all ranks on one timeline.
    let trace = chrome_trace(&aligned.spans, &TrackLayout::trainer(world));
    let trace_path = format!("{dir}/postmortem_trace.json");
    std::fs::write(&trace_path, trace).map_err(|e| format!("write {trace_path}: {e}"))?;

    let timeline = render_timeline(world, &killed, first, &dumps, &aligned.clocks);
    let timeline_path = out_path
        .map(str::to_string)
        .unwrap_or_else(|| format!("{dir}/postmortem_timeline.json"));
    std::fs::write(&timeline_path, timeline).map_err(|e| format!("write {timeline_path}: {e}"))?;

    // Writing to a `String` cannot fail.
    let mut report = String::new();
    let _ = writeln!(
        report,
        "post-mortem: {}/{world} ranks left dumps in {dir}",
        dumps.len()
    );
    if killed.is_empty() {
        let _ = writeln!(
            report,
            "  no missing ranks — every rank survived long enough to dump"
        );
    } else {
        let names: Vec<String> = killed.iter().map(|r| format!("rank {r}")).collect();
        let _ = writeln!(
            report,
            "  presumed dead (no dump written): {} — a killed process cannot dump",
            names.join(", ")
        );
    }
    let _ = match first {
        Some((t, rank, f)) => writeln!(
            report,
            "  first failure: t={t:.6}s on rank {rank}: {} seq {} gen {} (phase {})\n    {}",
            f.op,
            f.seq,
            f.generation,
            f.phase.name(),
            f.error
        ),
        None => writeln!(
            report,
            "  no rank recorded a collective failure (clean shutdown dumps?)"
        ),
    };
    let _ = writeln!(report, "  last known state per surviving rank:");
    for d in &dumps {
        let _ = writeln!(
            report,
            "    rank {}: iteration {}, phase {}, generation {} — {}",
            d.rank, d.iteration, d.phase, d.generation, d.reason
        );
    }
    let _ = writeln!(
        report,
        "  wrote {timeline_path} and {trace_path} ({} spans merged)",
        aligned.spans.len()
    );
    print_report(&report)
}

/// Prints `report` on stdout. A reader that closed the pipe early (`|
/// head`) has seen what it wanted: that is not an error.
fn print_report(report: &str) -> Result<(), String> {
    let mut out = io::stdout().lock();
    match out.write_all(report.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = None;
    let mut out = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                out = argv.get(i).cloned();
                if out.is_none() {
                    eprintln!("--out requires a path");
                    return ExitCode::from(2);
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: spdkfac_postmortem DIR [--out FILE]");
                return ExitCode::from(2);
            }
            other if dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(dir) = dir else {
        eprintln!("usage: spdkfac_postmortem DIR [--out FILE]");
        return ExitCode::from(2);
    };
    match run(&dir, out.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
