//! The per-rank document: one writer and one reader for the clean trace
//! file and the post-mortem dump.
//!
//! Every rank of a multi-process run records spans against its own
//! [`Recorder`] epoch. This module writes them to disk in one schema
//! ([`POSTMORTEM_SCHEMA`]) and reads them back ([`parse_document`]); an
//! offline merge ([`crate::collect::align`]) puts the ranks on one clock
//! after the run. Two files, one format:
//!
//! - **Trace file** ([`FlightRecorder::write_trace`]): on a clean exit,
//!   `<trace-dir>/trace.rank{N}.json` carries every span the recorder holds.
//! - **Dump** ([`FlightRecorder::dump`]): when things go wrong (comm-thread
//!   poisoning, panic hook, launcher teardown), only the first request
//!   writes `<trace-dir>/postmortem.rank{N}.json` with the newest
//!   [`DUMP_WINDOW`] spans.
//!
//! Both carry what is *not* a span:
//!
//! 1. **Heartbeat atomics** (iteration, loss, phase, generation, membership
//!    epoch): written lock-free by the trainer and the comm thread, read
//!    only when a document is rendered (its `heartbeat` object).
//! 2. **First failure wins.** The first recorded comm failure is the one a
//!    post-mortem cares about (later errors are cascade noise). It is
//!    pinned with or without a recorder attached, and stamped on the
//!    attached recorder's clock, the clock every other time in the
//!    document is on.
//!
//! The `clock` key is always `null`: the merge fits each rank's clock from
//! the collectives the spans already record.

use crate::json::{parse_json, JsonValue, JsonWriter};
use crate::metrics::MetricsSnapshot;
use crate::phase::Phase;
use crate::recorder::{CollEdge, Recorder, Span, SpanMeta};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// Spans a dump carries: the newest this many of the attached recorder.
pub const DUMP_WINDOW: usize = 4096;

/// Schema of the per-rank document, trace file and dump alike (bumped on
/// breaking layout changes).
pub const POSTMORTEM_SCHEMA: &str = "spdkfac-postmortem-v2";

/// The first comm failure observed by this rank — the forensic anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureInfo {
    /// Detection time on the attached recorder's clock (`None` when the
    /// failure was pinned with no recorder attached).
    pub t: Option<f64>,
    /// Op kind name of the failing collective.
    pub op: String,
    /// Per-rank sequence number of the failing collective.
    pub seq: u64,
    /// Plan generation the op ran under.
    pub generation: u64,
    /// Pipeline phase that submitted it.
    pub phase: Phase,
    /// The transport error.
    pub error: String,
}

/// Heartbeat atomics + first failure + dump machinery. One per process via
/// [`global`]; constructible directly for tests.
#[derive(Debug)]
pub struct FlightRecorder {
    failure: Mutex<Option<FailureInfo>>,
    /// `usize::MAX` until [`FlightRecorder::configure`] runs.
    rank: AtomicUsize,
    world: AtomicUsize,
    trace_dir: Mutex<Option<String>>,
    generation: AtomicU64,
    member_epoch: AtomicU64,
    iteration: AtomicU64,
    loss_bits: AtomicU64,
    phase_idx: AtomicUsize,
    recorder: Mutex<Option<Arc<Recorder>>>,
    dumped: AtomicBool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A fresh, unconfigured recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            failure: Mutex::new(None),
            rank: AtomicUsize::new(usize::MAX),
            world: AtomicUsize::new(0),
            trace_dir: Mutex::new(None),
            generation: AtomicU64::new(0),
            member_epoch: AtomicU64::new(0),
            iteration: AtomicU64::new(0),
            loss_bits: AtomicU64::new(f64::NAN.to_bits()),
            phase_idx: AtomicUsize::new(Phase::Update.index()),
            recorder: Mutex::new(None),
            dumped: AtomicBool::new(false),
        }
    }

    /// Identifies this process's rank/world and, optionally, the directory
    /// post-mortem dumps go to (no dump is written without one).
    pub fn configure(&self, rank: usize, world: usize, trace_dir: Option<&str>) {
        self.rank.store(rank, Ordering::Relaxed);
        self.world.store(world, Ordering::Relaxed);
        *self.trace_dir.lock().expect("flight trace_dir poisoned") =
            trace_dir.map(|s| s.to_string());
    }

    /// This process's configured rank (`None` before [`configure`]).
    ///
    /// [`configure`]: FlightRecorder::configure
    pub fn rank(&self) -> Option<usize> {
        match self.rank.load(Ordering::Relaxed) {
            usize::MAX => None,
            r => Some(r),
        }
    }

    /// Attaches the span [`Recorder`]: its clock stamps failures and dumps,
    /// its lanes are the dump's span window, its metrics the dump's
    /// snapshot.
    pub fn set_recorder(&self, rec: Arc<Recorder>) {
        *self.recorder.lock().expect("flight recorder poisoned") = Some(rec);
    }

    fn recorder(&self) -> Option<Arc<Recorder>> {
        self.recorder
            .lock()
            .expect("flight recorder poisoned")
            .clone()
    }

    /// Updates the current plan generation (the dump's heartbeat).
    pub fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// Updates the elastic membership epoch (the dump's heartbeat; stays 0
    /// on fixed-world runs).
    pub fn set_member_epoch(&self, epoch: u64) {
        self.member_epoch.store(epoch, Ordering::Relaxed);
    }

    /// Updates the current pipeline phase (the dump's heartbeat).
    pub fn set_phase(&self, phase: Phase) {
        self.phase_idx.store(phase.index(), Ordering::Relaxed);
    }

    /// Records a completed training iteration (the dump's heartbeat).
    pub fn record_iteration(&self, iteration: u64, loss: f64) {
        self.iteration.store(iteration, Ordering::Relaxed);
        self.loss_bits.store(loss.to_bits(), Ordering::Relaxed);
    }

    /// Pins a failed collective as the forensic anchor if it is the first
    /// failure this process has seen. Works with no recorder attached (the
    /// time is then unknown) — a failure is never droppable.
    pub fn note_comm_failure(
        &self,
        op: &str,
        seq: u64,
        generation: u64,
        phase: Phase,
        error: &str,
    ) {
        let t = self.recorder().map(|r| r.now());
        let mut slot = self.failure.lock().expect("flight failure poisoned");
        if slot.is_none() {
            *slot = Some(FailureInfo {
                t,
                op: op.to_string(),
                seq,
                generation,
                phase,
                error: error.to_string(),
            });
        }
    }

    /// The first failure recorded, if any.
    pub fn failure(&self) -> Option<FailureInfo> {
        self.failure
            .lock()
            .expect("flight failure poisoned")
            .clone()
    }

    /// Serializes the post-mortem document: the newest [`DUMP_WINDOW`]
    /// spans (always available, even without a trace dir — [`dump`] is the
    /// file-writing wrapper).
    ///
    /// [`dump`]: FlightRecorder::dump
    pub fn render_json(&self, reason: &str) -> String {
        let spans = self
            .recorder()
            .map_or(Vec::new(), |r| r.newest(DUMP_WINDOW));
        self.render(reason, &spans)
    }

    fn render(&self, reason: &str, spans: &[Span]) -> String {
        let rec = self.recorder();
        let failure = self.failure();
        let mut out = String::with_capacity(4096 + spans.len() * 160);
        JsonWriter::new(&mut out).object(|w| {
            w.key("schema").str(POSTMORTEM_SCHEMA).key("rank");
            match self.rank() {
                Some(r) => w.int(r as u64),
                None => w.null(),
            };
            w.key("world")
                .int(self.world.load(Ordering::Relaxed) as u64);
            w.key("reason").str(reason);
            w.key("wall_now")
                .num(rec.as_ref().map_or(f64::NAN, |r| r.now()));
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            w.key("heartbeat").object(|w| {
                w.key("iteration").int(load(&self.iteration));
                w.key("loss").num(f64::from_bits(load(&self.loss_bits)));
                let phase = Phase::from_index(self.phase_idx.load(Ordering::Relaxed));
                w.key("phase").str(phase.unwrap_or(Phase::Update).name());
                w.key("generation").int(load(&self.generation));
                w.key("epoch").int(load(&self.member_epoch));
                w.key("rss_bytes").int(rss_bytes());
            });
            w.key("clock").null();
            w.key("failure");
            match &failure {
                None => w.null(),
                Some(f) => w.object(|w| {
                    w.key("t").num(f.t.unwrap_or(f64::NAN));
                    w.key("op").str(&f.op);
                    w.key("seq").int(f.seq);
                    w.key("generation").int(f.generation);
                    w.key("phase").str(f.phase.name());
                    w.key("error").str(&f.error);
                }),
            };
            w.key("dropped")
                .int(rec.as_ref().map_or(0, |r| r.dropped()));
            w.key("spans").array(|w| {
                for s in spans {
                    write_span(w, s);
                }
            });
            w.key("metrics");
            match rec.as_ref().map(|r| r.metrics().snapshot()) {
                None => {
                    w.null();
                }
                Some(m) => write_metrics(w, &m),
            }
        });
        out
    }

    /// Writes the post-mortem document to
    /// `<trace-dir>/postmortem.rank{N}.json`. Only the **first** call
    /// writes (panic hook, poison path, and teardown may race); returns the
    /// path on the write, `None` when no trace dir is configured, the
    /// recorder has no rank yet, or a dump already happened.
    pub fn dump(&self, reason: &str) -> Option<String> {
        let (dir, rank) = (self.trace_dir()?, self.rank()?);
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        let path = format!("{dir}/postmortem.rank{rank}.json");
        match write_file(&dir, &path, self.render_json(reason)) {
            Ok(()) => {
                eprintln!("rank {rank}: post-mortem window written to {path}");
                Some(path)
            }
            Err(e) => {
                eprintln!("rank {rank}: {e}");
                None
            }
        }
    }

    /// Writes the clean-exit trace file `<trace-dir>/trace.rank{N}.json`:
    /// the dump's document with every span the recorder holds. Returns its
    /// path.
    pub fn write_trace(&self) -> Result<String, String> {
        let (Some(dir), Some(rank)) = (self.trace_dir(), self.rank()) else {
            return Err("a trace file needs a rank and a trace directory".into());
        };
        let spans = self.recorder().map_or(Vec::new(), |r| r.spans());
        let path = format!("{dir}/trace.rank{rank}.json");
        write_file(&dir, &path, self.render("clean exit", &spans))?;
        Ok(path)
    }

    fn trace_dir(&self) -> Option<String> {
        self.trace_dir
            .lock()
            .expect("flight trace_dir poisoned")
            .clone()
    }
}

fn write_file(dir: &str, path: &str, body: String) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, body))
        .map_err(|e| format!("write {path}: {e}"))
}

/// One per-rank document read back by [`parse_document`]. Every time in
/// it is still on the writing rank's recorder clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankDoc {
    /// The writing rank.
    pub rank: usize,
    /// The group size it ran in.
    pub world: usize,
    /// Why it was written (`"clean exit"` for a trace file).
    pub reason: String,
    /// When it was rendered.
    pub wall_now: f64,
    /// The heartbeat's last completed iteration.
    pub iteration: u64,
    /// The heartbeat's pipeline phase name.
    pub phase: String,
    /// The heartbeat's plan generation.
    pub generation: u64,
    /// The pinned first failure.
    pub failure: Option<FailureInfo>,
    /// Spans the recorder's rings overwrote.
    pub dropped: u64,
    /// The spans, with every [`SpanMeta`] field they were written with.
    pub spans: Vec<Span>,
}

/// A non-negative integral JSON number (`null` and absent are `None`).
fn count(v: &JsonValue, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// Reads one per-rank document (trace file or dump). Refuses another
/// schema, a `rank` or `world` that is not a count, a `world` of 0,
/// `rank >= world`, and a malformed failure or span.
pub fn parse_document(body: &str) -> Result<RankDoc, String> {
    let doc = parse_json(body)?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(POSTMORTEM_SCHEMA) => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let (Some(rank), Some(world)) = (count(&doc, "rank"), count(&doc, "world")) else {
        return Err("rank and world must be counts".into());
    };
    if rank >= world {
        return Err(format!("rank {rank} is outside a world of {world}"));
    }
    let hb = doc.get("heartbeat").ok_or("missing heartbeat")?;
    let failure = match doc.get("failure") {
        None | Some(JsonValue::Null) => None,
        Some(f) => Some(parse_failure(f).ok_or("malformed failure")?),
    };
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_array)
        .ok_or("missing spans")?
        .iter()
        .map(|v| parse_span(v).ok_or("malformed span"))
        .collect::<Result<_, _>>()?;
    Ok(RankDoc {
        rank: rank as usize,
        world: world as usize,
        reason: text(&doc, "reason").unwrap_or_else(|| "unknown".into()),
        wall_now: doc
            .get("wall_now")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        iteration: count(hb, "iteration").unwrap_or(0),
        phase: text(hb, "phase").unwrap_or_else(|| "?".into()),
        generation: count(hb, "generation").unwrap_or(0),
        failure,
        dropped: count(&doc, "dropped").unwrap_or(0),
        spans,
    })
}

fn text(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(String::from)
}

/// The document's `failure` object (`t` is `null` when no recorder was
/// attached).
fn parse_failure(f: &JsonValue) -> Option<FailureInfo> {
    Some(FailureInfo {
        t: f.get("t")?.as_f64(),
        op: text(f, "op")?,
        seq: count(f, "seq")?,
        generation: count(f, "generation")?,
        phase: phase_named(f.get("phase")?.as_str()?)?,
        error: text(f, "error")?,
    })
}

fn phase_named(name: &str) -> Option<Phase> {
    Phase::ALL.iter().copied().find(|p| p.name() == name)
}

/// One span of a document: times on the writing rank's recorder clock,
/// every [`SpanMeta`] field that is set. [`parse_span`] is the inverse.
pub fn write_span(w: &mut JsonWriter<'_>, s: &Span) {
    w.object(|w| {
        w.key("track").int(s.track as u64);
        w.key("phase").str(s.phase.name());
        w.key("label").str(&s.label);
        w.key("t").num(s.start).key("end").num(s.end);
        match s.meta.edge {
            None => {}
            Some(CollEdge::Join) => {
                w.key("edge").str("join");
            }
            Some(CollEdge::FanOut { root }) => {
                w.key("edge").str("fanout").key("root").int(root as u64);
            }
        }
        let ints = [
            ("seq", s.meta.seq),
            ("size", s.meta.size.map(|n| n as u64)),
            ("generation", s.meta.generation),
            ("wire_bytes", s.meta.wire_bytes),
        ];
        for (key, v) in ints {
            if let Some(v) = v {
                w.key(key).int(v);
            }
        }
        if let Some(v) = s.meta.codec_secs {
            w.key("codec_secs").num(v);
        }
    });
}

/// Reads back one element of a document's `spans` array (`None` when a
/// required field is missing or malformed — a time that is not finite, an
/// `edge` that names no [`CollEdge`], or a fan-out without its `root`,
/// included).
pub fn parse_span(v: &JsonValue) -> Option<Span> {
    let num = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .filter(|n| n.is_finite())
    };
    let name = v.get("phase")?.as_str()?;
    let edge = match v.get("edge") {
        None => None,
        Some(edge) => Some(match edge.as_str()? {
            "join" => CollEdge::Join,
            "fanout" => CollEdge::FanOut {
                root: num("root")? as usize,
            },
            _ => return None,
        }),
    };
    Some(Span {
        track: num("track")? as usize,
        phase: phase_named(name)?,
        label: Cow::Owned(v.get("label")?.as_str()?.to_string()),
        start: num("t")?,
        end: num("end")?,
        meta: SpanMeta {
            edge,
            seq: num("seq").map(|n| n as u64),
            size: num("size").map(|n| n as usize),
            generation: num("generation").map(|n| n as u64),
            wire_bytes: num("wire_bytes").map(|n| n as u64),
            codec_secs: num("codec_secs"),
        },
    })
}

fn write_metrics(w: &mut JsonWriter<'_>, m: &MetricsSnapshot) {
    w.object(|w| {
        w.key("counters").object(|w| {
            for (k, v) in &m.counters {
                w.key(k).int(*v);
            }
        });
        w.key("gauges").object(|w| {
            for (k, v) in &m.gauges {
                w.key(k).num(*v);
            }
        });
        w.key("histograms").object(|w| {
            for (k, h) in &m.histograms {
                w.key(k).object(|w| {
                    w.key("count").int(h.count).key("sum").num(h.sum);
                    w.key("p50").num(h.p50()).key("p95").num(h.p95());
                    w.key("p99").num(h.p99());
                });
            }
        });
    });
}

/// Resident set size of this process in bytes (0 where `/proc` is absent).
fn rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
            if let Some(resident) = statm.split_whitespace().nth(1) {
                if let Ok(pages) = resident.parse::<u64>() {
                    return pages * 4096;
                }
            }
        }
    }
    0
}

/// The process-global flight recorder (lazily created).
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::new)
}

/// Installs a chaining panic hook that dumps the global recorder's window
/// before the default handler runs. Idempotent; a no-op dump when no trace
/// dir is configured.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            let reason = match info.location() {
                Some(loc) => format!("panic at {}:{}: {msg}", loc.file(), loc.line()),
                None => format!("panic: {msg}"),
            };
            global().dump(&reason);
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn comm_span(start: f64, end: f64, seq: u64) -> Span {
        Span {
            track: 5,
            phase: Phase::GradComm,
            label: Cow::Borrowed("allreduce"),
            start,
            end,
            meta: SpanMeta {
                edge: Some(CollEdge::FanOut { root: 1 }),
                seq: Some(seq),
                size: Some(100),
                generation: Some(1),
                wire_bytes: Some(800),
                codec_secs: Some(0.0),
            },
        }
    }

    fn dumped_spans(doc: &JsonValue) -> Vec<Span> {
        let spans = doc.get("spans").and_then(|s| s.as_array()).expect("spans");
        spans
            .iter()
            .map(|s| parse_span(s).expect("span parses"))
            .collect()
    }

    #[test]
    fn a_span_with_an_unknown_edge_or_a_rootless_fan_out_is_malformed() {
        // The edge a dumped span parses to; `None` when the span is refused.
        let edge = |tail: &str| {
            let doc = format!(
                r#"{{"track": 5, "phase": "GradComm", "label": "x", "t": 0.5, "end": 0.75{tail}}}"#
            );
            parse_span(&parse_json(&doc).expect("valid JSON")).map(|s| s.meta.edge)
        };
        assert_eq!(edge(""), Some(None));
        assert_eq!(edge(r#", "edge": "join""#), Some(Some(CollEdge::Join)));
        let fan_out = Some(Some(CollEdge::FanOut { root: 2 }));
        assert_eq!(edge(r#", "edge": "fanout", "root": 2"#), fan_out);
        for bad in [
            r#", "edge": "fanin", "root": 0"#,
            r#", "edge": "bogus""#,
            r#", "edge": "fanout""#,
            r#", "edge": 1"#,
        ] {
            assert_eq!(edge(bad), None, "{bad}");
        }
    }

    #[test]
    fn first_failure_wins() {
        // No recorder attached: still pinned, time unknown.
        let fr = FlightRecorder::new();
        fr.note_comm_failure("allreduce", 7, 2, Phase::GradComm, "boom");
        fr.set_recorder(Arc::new(Recorder::new(1)));
        fr.note_comm_failure("broadcast", 8, 2, Phase::InverseComm, "cascade");
        let f = fr.failure().expect("failure pinned");
        assert_eq!((f.op.as_str(), f.seq, f.generation), ("allreduce", 7, 2));
        assert_eq!((f.phase, f.t), (Phase::GradComm, None));
    }

    #[test]
    fn heartbeat_reflects_latest_state() {
        let fr = FlightRecorder::new();
        assert_eq!(fr.rank(), None);
        fr.configure(3, 4, None);
        fr.record_iteration(12, 0.75);
        fr.set_phase(Phase::InverseComp);
        fr.set_generation(4);
        fr.set_member_epoch(2);
        assert_eq!(fr.rank(), Some(3));
        let doc = parse_json(&fr.render_json("heartbeat")).expect("valid JSON");
        let hb = doc.get("heartbeat").expect("heartbeat object");
        let num = |key: &str| hb.get(key).and_then(JsonValue::as_f64);
        assert_eq!((num("iteration"), num("loss")), (Some(12.0), Some(0.75)));
        assert_eq!(
            hb.get("phase").and_then(JsonValue::as_str),
            Some(Phase::InverseComp.name())
        );
        assert_eq!((num("generation"), num("epoch")), (Some(4.0), Some(2.0)));
        assert!(num("rss_bytes").is_some());
    }

    #[test]
    fn render_json_is_valid_and_complete() {
        let fr = FlightRecorder::new();
        fr.configure(1, 4, None);
        let rec = Arc::new(Recorder::new(8));
        fr.set_recorder(Arc::clone(&rec));
        fr.record_iteration(3, f64::NAN); // non-finite must dump as null
        rec.span_labeled(1, Phase::Update, "iter3").finish();
        rec.record(comm_span(0.2, 0.25, 5));
        rec.metrics().counter("coll/allreduce/ops").inc();
        fr.note_comm_failure("broadcast", 6, 1, Phase::InverseComm, "peer \"gone\"");
        let doc = fr.render_json("test reason");
        let v = parse_json(&doc).expect("postmortem dump must be valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(v.get("rank").and_then(|r| r.as_f64()), Some(1.0));
        assert_eq!(v.get("world").and_then(|w| w.as_f64()), Some(4.0));
        let hb = v.get("heartbeat").expect("heartbeat object");
        assert_eq!(hb.get("loss"), Some(&JsonValue::Null));
        let failure = v.get("failure").expect("failure object");
        assert_eq!(
            failure.get("op").and_then(|o| o.as_str()),
            Some("broadcast")
        );
        assert_eq!(failure.get("seq").and_then(|s| s.as_f64()), Some(6.0));
        assert_eq!(
            failure.get("error").and_then(|e| e.as_str()),
            Some("peer \"gone\"")
        );
        // Spans come back with every meta field they were recorded with.
        let spans = dumped_spans(&v);
        assert_eq!(spans.len(), 2);
        assert!(spans.contains(&comm_span(0.2, 0.25, 5)));
        assert_eq!(v.get("clock"), Some(&JsonValue::Null));
        let counters = v.get("metrics").and_then(|m| m.get("counters"));
        assert!(counters.and_then(|c| c.get("coll/allreduce/ops")).is_some());
    }

    #[test]
    fn one_clock_stamps_failures_spans_and_dumps() {
        // The flight recorder exists long before the span recorder; nothing
        // it writes may be timed from its own creation.
        let fr = FlightRecorder::new();
        fr.configure(0, 2, None);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let rec = Arc::new(Recorder::new(8));
        fr.set_recorder(Arc::clone(&rec));
        rec.span(0, Phase::FfBp).finish();
        rec.record(comm_span(rec.now(), rec.now() + 1e-3, 0));
        let before = rec.now();
        fr.note_comm_failure("allreduce", 1, 0, Phase::GradComm, "down");
        let doc = parse_json(&fr.render_json("clock test")).expect("valid JSON");
        let after = rec.now();
        let within = |t: f64| t >= before - 1e-3 && t <= after + 1e-3;
        let t = doc.get("failure").and_then(|f| f.get("t"));
        assert!(within(t.and_then(|t| t.as_f64()).expect("failure.t")));
        assert!(within(
            doc.get("wall_now").and_then(|t| t.as_f64()).expect("now")
        ));
        // Dumped span times are the recorder's, bit for bit.
        let mut recorded = rec.spans();
        recorded.sort_by(|a, b| a.end.total_cmp(&b.end));
        assert_eq!(dumped_spans(&doc), recorded);
    }

    #[test]
    fn dump_writes_once_to_trace_dir() {
        let dir = std::env::temp_dir().join(format!("spdkfac-flight-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new();
        // No rank/trace-dir yet: dump is a no-op.
        assert!(fr.dump("early").is_none());
        fr.configure(2, 4, Some(&dir_s));
        let path = fr.dump("test crash").expect("first dump writes");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(parse_json(&body).is_ok());
        assert!(path.ends_with("postmortem.rank2.json"));
        // Second dump is suppressed (first-wins).
        assert!(fr.dump("again").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_documents_round_trip() {
        let dir = std::env::temp_dir().join(format!("spdkfac-trace-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let fr = FlightRecorder::new();
        assert!(fr.write_trace().is_err(), "no rank or directory yet");
        fr.configure(1, 2, Some(&dir_s));
        let rec = Arc::new(Recorder::with_capacity(4, 8));
        fr.set_recorder(Arc::clone(&rec));
        fr.record_iteration(4, 0.5);
        // A trace carries every span the recorder holds.
        for i in 0..6 {
            rec.record(comm_span(i as f64, i as f64 + 0.5, i));
        }
        rec.span_labeled(1, Phase::Update, "iter4").finish();
        fr.note_comm_failure("broadcast", 3, 1, Phase::InverseComm, "peer gone");
        let path = fr.write_trace().expect("trace written");
        assert!(path.ends_with("trace.rank1.json"));
        let doc = parse_document(&std::fs::read_to_string(&path).unwrap()).expect("reads back");
        assert_eq!((doc.rank, doc.world, doc.iteration), (1, 2, 4));
        assert_eq!(doc.reason, "clean exit");
        assert_eq!(doc.failure, fr.failure());
        assert_eq!(doc.spans, rec.spans());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_document_no_rank_writes_is_refused() {
        let doc = |rank: &str, world: &str| {
            let fr = FlightRecorder::new();
            fr.configure(0, 2, None);
            fr.render_json("test")
                .replacen(r#""rank":0"#, &format!(r#""rank":{rank}"#), 1)
                .replacen(r#""world":2"#, &format!(r#""world":{world}"#), 1)
        };
        assert!(parse_document(&doc("0", "2")).is_ok());
        assert!(parse_document(&doc("1", "2")).is_ok());
        for (rank, world) in [
            ("0", "0"),
            ("2", "2"),
            ("5", "2"),
            ("0", "1.5"),
            ("0", "-1"),
            ("-1", "2"),
            ("null", "2"),
        ] {
            assert!(
                parse_document(&doc(rank, world)).is_err(),
                "rank {rank} of world {world}"
            );
        }
        let other = doc("0", "2").replace(POSTMORTEM_SCHEMA, "spdkfac-postmortem-v1");
        assert!(parse_document(&other).is_err());
    }
}
