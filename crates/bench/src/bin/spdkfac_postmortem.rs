//! `spdkfac_postmortem` — merges per-rank flight-recorder dumps into one
//! failure timeline.
//!
//! When a rank of a multi-process run dies (killed, OOM, panic), the
//! surviving ranks each write `postmortem.rank{N}.json` into the trace
//! directory: the newest spans of their recorder, the first transport
//! failure their comm thread saw, a heartbeat snapshot, and the clock model
//! their telemetry session agreed on (`DESIGN.md` "Event pipeline"). This
//! tool reads
//! whatever dumps survived and answers the forensic questions:
//!
//! - **Who died?** Ranks in `0..world` with no dump are presumed killed
//!   (a dump means the process lived long enough to notice the failure).
//! - **What broke first?** Every dump's pinned failure is rebased onto the
//!   collector clock via its stored clock model; the earliest one names the
//!   first failing collective — op kind, plan generation, and submission
//!   sequence number — and the rank that observed it.
//! - **What was everyone doing?** A per-rank table of last iteration,
//!   phase, and generation at dump time, plus a merged Chrome trace
//!   (`postmortem_trace.json`) of the final window across all surviving
//!   ranks, on one rebased timeline.
//!
//! Output: a human timeline on stdout, and
//! `DIR/postmortem_timeline.json` (schema
//! `spdkfac-postmortem-timeline-v1`) for the CI assertions.
//!
//! usage: `spdkfac_postmortem DIR [--out FILE]`

use spdkfac_obs::collect::ClockModel;
use spdkfac_obs::flight::{parse_span, POSTMORTEM_SCHEMA};
use spdkfac_obs::json::JsonWriter;
use spdkfac_obs::{chrome_trace, parse_json, JsonValue, Span, TrackLayout};
use std::borrow::Cow;
use std::process::ExitCode;

/// Schema tag of the merged timeline document.
const TIMELINE_SCHEMA: &str = "spdkfac-postmortem-timeline-v1";

/// One parsed per-rank dump.
struct Dump {
    rank: usize,
    world: usize,
    reason: String,
    wall_now: f64,
    iteration: u64,
    phase: String,
    generation: u64,
    clock: ClockModel,
    failure: Option<Failure>,
    spans: Vec<Span>,
}

#[derive(Clone)]
struct Failure {
    /// Rebased (collector-clock) failure time.
    t: f64,
    rank: usize,
    op: String,
    seq: u64,
    generation: u64,
    phase: String,
    error: String,
}

fn get_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key).and_then(|x| x.as_str())
}

/// Parses one `postmortem.rank{N}.json` document. Spans keep the track
/// they were recorded on (the trainer layout) and come back rebased onto
/// the collector clock via the dump's stored clock model; the span of the
/// pinned failing collective is relabeled `FAILED <op>`.
fn parse_dump(body: &str, path: &str) -> Result<Dump, String> {
    let doc = parse_json(body).map_err(|e| format!("{path}: {e}"))?;
    match get_str(&doc, "schema") {
        Some(POSTMORTEM_SCHEMA) => {}
        other => return Err(format!("{path}: unexpected schema {other:?}")),
    }
    let rank = get_f64(&doc, "rank").ok_or_else(|| format!("{path}: missing rank"))? as usize;
    let world = get_f64(&doc, "world").ok_or_else(|| format!("{path}: missing world"))? as usize;
    let reason = get_str(&doc, "reason").unwrap_or("unknown").to_string();
    let hb = doc
        .get("heartbeat")
        .ok_or_else(|| format!("{path}: missing heartbeat"))?;
    // Rank 0 hosts the collector, so its clock *is* the reference and its
    // dump stores no model (`null`); identity is exact there, and the best
    // available guess for ranks that died before clock sync completed.
    let clock = match doc.get("clock") {
        Some(c @ JsonValue::Object(_)) => ClockModel {
            offset: get_f64(c, "offset").unwrap_or(0.0),
            drift: get_f64(c, "drift").unwrap_or(0.0),
            reference: get_f64(c, "reference").unwrap_or(0.0),
            uncertainty: get_f64(c, "uncertainty").unwrap_or(0.0),
        },
        _ => ClockModel::identity(),
    };
    let failure = match doc.get("failure") {
        Some(f @ JsonValue::Object(_)) => Some(Failure {
            // A failure pinned with no recorder attached has no time
            // (`null`): it must never win "earliest".
            t: clock.rebase(get_f64(f, "t").unwrap_or(f64::INFINITY)),
            rank,
            op: get_str(f, "op").unwrap_or("?").to_string(),
            seq: get_f64(f, "seq").unwrap_or(0.0) as u64,
            generation: get_f64(f, "generation").unwrap_or(0.0) as u64,
            phase: get_str(f, "phase").unwrap_or("?").to_string(),
            error: get_str(f, "error").unwrap_or("").to_string(),
        }),
        _ => None,
    };
    let mut spans = Vec::new();
    if let Some(JsonValue::Array(dumped)) = doc.get("spans") {
        for v in dumped {
            let mut span = parse_span(v).ok_or_else(|| format!("{path}: malformed span"))?;
            span.start = clock.rebase(span.start);
            span.end = clock.rebase(span.end);
            let failed = failure.as_ref().is_some_and(|f| {
                span.meta.seq == Some(f.seq) && span.meta.generation == Some(f.generation)
            });
            if failed {
                span.label = Cow::Owned(format!("FAILED {}", span.display_name()));
            }
            spans.push(span);
        }
    }
    Ok(Dump {
        rank,
        world,
        reason,
        wall_now: clock.rebase(get_f64(&doc, "wall_now").unwrap_or(0.0)),
        iteration: get_f64(hb, "iteration").unwrap_or(0.0) as u64,
        phase: get_str(hb, "phase").unwrap_or("?").to_string(),
        generation: get_f64(hb, "generation").unwrap_or(0.0) as u64,
        clock,
        failure,
        spans,
    })
}

fn render_timeline(
    world: usize,
    killed: &[usize],
    first: &Option<Failure>,
    dumps: &[Dump],
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
            Some(f) => w.object(|w| {
                w.key("t").fixed(f.t, 9).key("rank").int(f.rank as u64);
                w.key("op").str(&f.op).key("seq").int(f.seq);
                w.key("generation").int(f.generation);
                w.key("phase").str(&f.phase).key("error").str(&f.error);
            }),
        };
        w.key("ranks").array(|w| {
            for d in dumps {
                w.object(|w| {
                    w.key("rank").int(d.rank as u64);
                    w.key("reason").str(&d.reason);
                    w.key("iteration").int(d.iteration);
                    w.key("phase").str(&d.phase);
                    w.key("generation").int(d.generation);
                    w.key("clock_offset").fixed(d.clock.offset, 9);
                    w.key("dumped_at").fixed(d.wall_now, 9);
                });
            }
        });
    });
    out
}

fn run(dir: &str, out_path: Option<&str>) -> Result<(), String> {
    let mut dumps = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read trace directory {dir}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {dir}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("postmortem.rank") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        dumps.push(parse_dump(&body, &path.display().to_string())?);
    }
    if dumps.is_empty() {
        return Err(format!(
            "no postmortem.rank*.json dumps in {dir} — nothing to merge"
        ));
    }
    dumps.sort_by_key(|d| d.rank);
    let world = dumps.iter().map(|d| d.world).max().unwrap_or(0);
    let present: Vec<usize> = dumps.iter().map(|d| d.rank).collect();
    let killed: Vec<usize> = (0..world).filter(|r| !present.contains(r)).collect();

    // The earliest rebased failure across all survivors is the forensic
    // anchor: the collective during which the ring first broke.
    let first: Option<Failure> = dumps
        .iter()
        .filter_map(|d| d.failure.clone())
        .min_by(|a, b| a.t.total_cmp(&b.t));

    println!(
        "post-mortem: {}/{world} ranks left dumps in {dir}",
        dumps.len()
    );
    if killed.is_empty() {
        println!("  no missing ranks — every rank survived long enough to dump");
    } else {
        let names: Vec<String> = killed.iter().map(|r| format!("rank {r}")).collect();
        println!(
            "  presumed dead (no dump written): {} — a killed process cannot dump",
            names.join(", ")
        );
    }
    match &first {
        Some(f) => {
            println!(
                "  first failure: t={:.6}s on rank {}: {} seq {} gen {} (phase {})",
                f.t, f.rank, f.op, f.seq, f.generation, f.phase
            );
            println!("    {}", f.error);
        }
        None => println!("  no rank recorded a collective failure (clean shutdown dumps?)"),
    }
    println!("  last known state per surviving rank:");
    for d in &dumps {
        println!(
            "    rank {}: iteration {}, phase {}, generation {} — {}",
            d.rank, d.iteration, d.phase, d.generation, d.reason
        );
    }

    // Merged Chrome trace of the final window, all ranks on one timeline.
    let mut spans: Vec<Span> = dumps.iter().flat_map(|d| d.spans.iter().cloned()).collect();
    spans.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .expect("span times are finite")
    });
    let layout = TrackLayout::trainer(world);
    let trace = chrome_trace(&spans, &layout);
    let trace_path = format!("{dir}/postmortem_trace.json");
    std::fs::write(&trace_path, trace).map_err(|e| format!("write {trace_path}: {e}"))?;

    let timeline = render_timeline(world, &killed, &first, &dumps);
    let timeline_path = out_path
        .map(str::to_string)
        .unwrap_or_else(|| format!("{dir}/postmortem_timeline.json"));
    std::fs::write(&timeline_path, timeline).map_err(|e| format!("write {timeline_path}: {e}"))?;
    println!(
        "  wrote {timeline_path} and {trace_path} ({} spans merged)",
        spans.len()
    );
    Ok(())
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
