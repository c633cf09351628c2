//! Always-on flight recorder and post-mortem dumps — the black box.
//!
//! The streaming telemetry pipeline ([`crate::collect`]) only produces its
//! merged artifacts on *clean* exits: a dead rank poisons the group and the
//! evidence of what happened — which collective, at which plan generation,
//! on which rank first — dies with the process. This module is the
//! complementary crash recorder: a process-global, fixed-capacity,
//! overwrite-oldest ring of recent events (spans, metric samples, comm
//! events) that is cheap enough to run unconditionally, plus a dump path
//! that serializes the window to `<trace-dir>/postmortem.rank{N}.json` when
//! things go wrong (panic hook, comm-thread poisoning, launcher teardown).
//!
//! Design constraints, in order:
//!
//! 1. **Always on.** No opt-in flag on the hot path; the `obs_overhead`
//!    bench gates the cost (< 5% wall-clock next to an uninstrumented run).
//! 2. **Bounded.** The ring never grows past its capacity; old events are
//!    overwritten and counted in [`FlightRecorder::dropped`].
//! 3. **Lock-light.** Heartbeat state (iteration, loss, phase, generation)
//!    lives in atomics read by the telemetry streamer without locking; the
//!    event ring takes one short mutex per event at collective/iteration
//!    granularity (hundreds of Hz, not per-element).
//! 4. **First failure wins.** The first recorded comm failure is the one a
//!    post-mortem cares about (later errors are cascade noise), and only
//!    the first dump request writes the file.
//!
//! The companion `spdkfac_postmortem` bin merges surviving ranks' dumps
//! using each dump's embedded [`ClockModel`] and reconstructs the failure
//! timeline.

use crate::collect::ClockModel;
use crate::metrics::MetricsSnapshot;
use crate::phase::Phase;
use crate::recorder::Recorder;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// Default event capacity of the global recorder's ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Dump-file schema identifier (bumped on breaking layout changes).
pub const POSTMORTEM_SCHEMA: &str = "spdkfac-postmortem-v1";

/// One event in the flight window. Times are seconds on the recorder's
/// local monotonic epoch ([`FlightRecorder::now`]); the post-mortem merger
/// rebases them through the dump's [`ClockModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A compute/communication timeline slice (one iteration, one phase
    /// section — coarse, not per-span-guard).
    Span {
        /// Start time.
        t: f64,
        /// End time.
        end: f64,
        /// Track in the [`crate::causal::RankMap::trainer`] convention.
        track: usize,
        /// Task category.
        phase: Phase,
        /// Human label (`iter3`, `allreduce`, …).
        label: String,
    },
    /// A point metric sample.
    Metric {
        /// Sample time.
        t: f64,
        /// Metric name.
        name: String,
        /// Sampled value.
        value: f64,
    },
    /// One collective executed (or failed) on the communication thread.
    Comm {
        /// Submit/start time.
        t: f64,
        /// Completion (or failure-detection) time.
        end: f64,
        /// Op kind name (`allreduce`, `broadcast`, …).
        op: String,
        /// Per-rank collective sequence number.
        seq: u64,
        /// Plan generation the op ran under.
        generation: u64,
        /// Pipeline phase that submitted the op.
        phase: Phase,
        /// Logical `f64` elements moved.
        elements: usize,
        /// `None` on success; the transport error string on failure.
        error: Option<String>,
    },
}

impl FlightEvent {
    /// The event's primary timestamp (start time for ranged events).
    pub fn time(&self) -> f64 {
        match self {
            FlightEvent::Span { t, .. }
            | FlightEvent::Metric { t, .. }
            | FlightEvent::Comm { t, .. } => *t,
        }
    }
}

/// The first comm failure observed by this rank — the forensic anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureInfo {
    /// Detection time ([`FlightRecorder::now`] epoch).
    pub t: f64,
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

/// Lock-free heartbeat snapshot for the live health plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatState {
    /// Last completed training iteration.
    pub iteration: u64,
    /// Last recorded loss (NaN until the first iteration completes).
    pub loss: f64,
    /// Current pipeline phase index ([`Phase::index`]).
    pub phase_idx: usize,
    /// Current plan generation.
    pub generation: u64,
    /// Membership epoch of the elastic runtime (0 on fixed-world runs).
    pub epoch: u64,
    /// Resident set size in bytes (0 where unsupported).
    pub rss_bytes: u64,
}

#[derive(Debug)]
struct Ring {
    events: Vec<FlightEvent>,
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            // Sized once: the ring is always on, and doubling its way up
            // would put a reallocation on the collective hot path.
            events: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            capacity,
        }
    }

    fn push(&mut self, e: FlightEvent) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn ordered(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

/// The flight recorder: bounded event ring + heartbeat atomics + first
/// failure + dump machinery. One per process via [`global`]; constructible
/// directly for tests.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    enabled: AtomicBool,
    ring: Mutex<Ring>,
    failure: Mutex<Option<FailureInfo>>,
    /// `usize::MAX` until [`FlightRecorder::configure`] runs.
    rank: AtomicUsize,
    world: AtomicUsize,
    trace_dir: Mutex<Option<String>>,
    generation: AtomicU64,
    /// Elastic membership epoch (distinct from `epoch: Instant`, the
    /// recorder's *time* origin).
    member_epoch: AtomicU64,
    iteration: AtomicU64,
    loss_bits: AtomicU64,
    phase_idx: AtomicUsize,
    recorder: Mutex<Option<Arc<Recorder>>>,
    clock: Mutex<Option<ClockModel>>,
    dumped: AtomicBool,
}

impl FlightRecorder {
    /// A fresh recorder with the given event-ring capacity.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder with zero capacity");
        FlightRecorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring::new(capacity)),
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
            clock: Mutex::new(None),
            dumped: AtomicBool::new(false),
        }
    }

    /// Seconds since this recorder's epoch (the timestamp base of every
    /// event it stores).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Enables or disables event recording (heartbeat atomics keep
    /// updating either way). Used by `obs_overhead` for the A/B gate.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
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

    /// Attaches the span [`Recorder`] whose metrics registry is snapshotted
    /// into dumps.
    pub fn set_recorder(&self, rec: Arc<Recorder>) {
        *self.recorder.lock().expect("flight recorder poisoned") = Some(rec);
    }

    /// Publishes the latest rank-0-relative clock model (from the telemetry
    /// ping exchange) so dump timestamps can be rebased post-mortem.
    pub fn set_clock_model(&self, model: ClockModel) {
        *self.clock.lock().expect("flight clock poisoned") = Some(model);
    }

    /// Updates the current plan generation (heartbeat + dump field).
    pub fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// The current plan generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Updates the elastic membership epoch (heartbeat + dump field;
    /// stays 0 on fixed-world runs).
    pub fn set_member_epoch(&self, epoch: u64) {
        self.member_epoch.store(epoch, Ordering::Relaxed);
    }

    /// The current elastic membership epoch.
    pub fn member_epoch(&self) -> u64 {
        self.member_epoch.load(Ordering::Relaxed)
    }

    /// Updates the current pipeline phase (heartbeat field; atomics only).
    pub fn set_phase(&self, phase: Phase) {
        self.phase_idx.store(phase.index(), Ordering::Relaxed);
    }

    /// Records a completed training iteration: heartbeat atomics plus a
    /// `train/loss` metric sample in the ring.
    pub fn record_iteration(&self, iteration: u64, loss: f64) {
        self.iteration.store(iteration, Ordering::Relaxed);
        self.loss_bits.store(loss.to_bits(), Ordering::Relaxed);
        self.record_metric("train/loss", loss);
    }

    /// Records a timeline slice.
    pub fn record_span(&self, track: usize, phase: Phase, label: &str, start: f64, end: f64) {
        if !self.is_enabled() {
            return;
        }
        self.push(FlightEvent::Span {
            t: start,
            end,
            track,
            phase,
            label: label.to_string(),
        });
    }

    /// Records a point metric sample at the current time.
    pub fn record_metric(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.push(FlightEvent::Metric {
            t: self.now(),
            name: name.to_string(),
            value,
        });
    }

    /// Records one executed collective (success path).
    #[allow(clippy::too_many_arguments)]
    pub fn record_comm(
        &self,
        op: &str,
        seq: u64,
        generation: u64,
        phase: Phase,
        elements: usize,
        start: f64,
        end: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(FlightEvent::Comm {
            t: start,
            end,
            op: op.to_string(),
            seq,
            generation,
            phase,
            elements,
            error: None,
        });
    }

    /// Records a failed collective and, if it is the first failure this
    /// process has seen, pins it as the forensic anchor. Recorded even when
    /// event recording is disabled — a failure is never droppable.
    pub fn note_comm_failure(
        &self,
        op: &str,
        seq: u64,
        generation: u64,
        phase: Phase,
        error: &str,
    ) {
        let t = self.now();
        self.push(FlightEvent::Comm {
            t,
            end: t,
            op: op.to_string(),
            seq,
            generation,
            phase,
            elements: 0,
            error: Some(error.to_string()),
        });
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

    /// Events overwritten since start (window overflow count).
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").dropped
    }

    /// The current window, oldest event first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().expect("flight ring poisoned").ordered()
    }

    /// Lock-free heartbeat snapshot (reads atomics plus `/proc` for RSS).
    pub fn heartbeat(&self) -> HeartbeatState {
        HeartbeatState {
            iteration: self.iteration.load(Ordering::Relaxed),
            loss: f64::from_bits(self.loss_bits.load(Ordering::Relaxed)),
            phase_idx: self.phase_idx.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
            epoch: self.member_epoch.load(Ordering::Relaxed),
            rss_bytes: rss_bytes(),
        }
    }

    fn push(&self, e: FlightEvent) {
        self.ring.lock().expect("flight ring poisoned").push(e);
    }

    /// Serializes the full post-mortem document (always available, even
    /// without a trace dir — [`dump`] is the file-writing wrapper).
    ///
    /// [`dump`]: FlightRecorder::dump
    pub fn render_json(&self, reason: &str) -> String {
        let rank = self.rank.load(Ordering::Relaxed);
        let world = self.world.load(Ordering::Relaxed);
        let hb = self.heartbeat();
        let clock = *self.clock.lock().expect("flight clock poisoned");
        let failure = self.failure();
        let (events, dropped) = {
            let ring = self.ring.lock().expect("flight ring poisoned");
            (ring.ordered(), ring.dropped)
        };
        let metrics = self
            .recorder
            .lock()
            .expect("flight recorder poisoned")
            .as_ref()
            .map(|r| r.metrics().snapshot());

        let mut out = String::with_capacity(4096 + events.len() * 96);
        out.push_str("{\"schema\":\"");
        out.push_str(POSTMORTEM_SCHEMA);
        out.push_str("\",\"rank\":");
        if rank == usize::MAX {
            out.push_str("null");
        } else {
            out.push_str(&rank.to_string());
        }
        out.push_str(",\"world\":");
        out.push_str(&world.to_string());
        out.push_str(",\"reason\":");
        json_str(&mut out, reason);
        out.push_str(",\"wall_now\":");
        json_num(&mut out, self.now());
        out.push_str(",\"heartbeat\":{\"iteration\":");
        out.push_str(&hb.iteration.to_string());
        out.push_str(",\"loss\":");
        json_num(&mut out, hb.loss);
        out.push_str(",\"phase\":");
        let phase_name = Phase::from_index(hb.phase_idx)
            .unwrap_or(Phase::Update)
            .name();
        json_str(&mut out, phase_name);
        out.push_str(",\"generation\":");
        out.push_str(&hb.generation.to_string());
        out.push_str(",\"epoch\":");
        out.push_str(&hb.epoch.to_string());
        out.push_str(",\"rss_bytes\":");
        out.push_str(&hb.rss_bytes.to_string());
        out.push_str("},\"clock\":");
        match clock {
            None => out.push_str("null"),
            Some(m) => {
                out.push_str("{\"offset\":");
                json_num(&mut out, m.offset);
                out.push_str(",\"drift\":");
                json_num(&mut out, m.drift);
                out.push_str(",\"reference\":");
                json_num(&mut out, m.reference);
                out.push_str(",\"uncertainty\":");
                json_num(&mut out, m.uncertainty);
                out.push('}');
            }
        }
        out.push_str(",\"failure\":");
        match &failure {
            None => out.push_str("null"),
            Some(f) => {
                out.push_str("{\"t\":");
                json_num(&mut out, f.t);
                out.push_str(",\"op\":");
                json_str(&mut out, &f.op);
                out.push_str(",\"seq\":");
                out.push_str(&f.seq.to_string());
                out.push_str(",\"generation\":");
                out.push_str(&f.generation.to_string());
                out.push_str(",\"phase\":");
                json_str(&mut out, f.phase.name());
                out.push_str(",\"error\":");
                json_str(&mut out, &f.error);
                out.push('}');
            }
        }
        out.push_str(",\"dropped\":");
        out.push_str(&dropped.to_string());
        out.push_str(",\"events\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_event(&mut out, e);
        }
        out.push_str("],\"metrics\":");
        match &metrics {
            None => out.push_str("null"),
            Some(m) => render_metrics(&mut out, m),
        }
        out.push('}');
        out
    }

    /// Writes the post-mortem document to
    /// `<trace-dir>/postmortem.rank{N}.json`. Only the **first** call
    /// writes (panic hook, poison path, and teardown may race); returns the
    /// path on the write, `None` when no trace dir is configured, the
    /// recorder has no rank yet, or a dump already happened.
    pub fn dump(&self, reason: &str) -> Option<String> {
        let rank = self.rank()?;
        let dir = self
            .trace_dir
            .lock()
            .expect("flight trace_dir poisoned")
            .clone()?;
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        let doc = self.render_json(reason);
        let path = format!("{dir}/postmortem.rank{rank}.json");
        let _ = std::fs::create_dir_all(&dir);
        match std::fs::write(&path, doc) {
            Ok(()) => {
                eprintln!("rank {rank}: post-mortem flight window written to {path}");
                Some(path)
            }
            Err(e) => {
                eprintln!("rank {rank}: post-mortem dump to {path} failed: {e}");
                None
            }
        }
    }
}

fn render_event(out: &mut String, e: &FlightEvent) {
    match e {
        FlightEvent::Span {
            t,
            end,
            track,
            phase,
            label,
        } => {
            out.push_str("{\"type\":\"span\",\"t\":");
            json_num(out, *t);
            out.push_str(",\"end\":");
            json_num(out, *end);
            out.push_str(",\"track\":");
            out.push_str(&track.to_string());
            out.push_str(",\"phase\":");
            json_str(out, phase.name());
            out.push_str(",\"label\":");
            json_str(out, label);
            out.push('}');
        }
        FlightEvent::Metric { t, name, value } => {
            out.push_str("{\"type\":\"metric\",\"t\":");
            json_num(out, *t);
            out.push_str(",\"name\":");
            json_str(out, name);
            out.push_str(",\"value\":");
            json_num(out, *value);
            out.push('}');
        }
        FlightEvent::Comm {
            t,
            end,
            op,
            seq,
            generation,
            phase,
            elements,
            error,
        } => {
            out.push_str("{\"type\":\"comm\",\"t\":");
            json_num(out, *t);
            out.push_str(",\"end\":");
            json_num(out, *end);
            out.push_str(",\"op\":");
            json_str(out, op);
            out.push_str(",\"seq\":");
            out.push_str(&seq.to_string());
            out.push_str(",\"generation\":");
            out.push_str(&generation.to_string());
            out.push_str(",\"phase\":");
            json_str(out, phase.name());
            out.push_str(",\"elements\":");
            out.push_str(&elements.to_string());
            out.push_str(",\"error\":");
            match error {
                None => out.push_str("null"),
                Some(msg) => json_str(out, msg),
            }
            out.push('}');
        }
    }
}

fn render_metrics(out: &mut String, m: &MetricsSnapshot) {
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in m.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, k);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in m.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, k);
        out.push(':');
        json_num(out, *v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in m.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, k);
        out.push_str(":{\"count\":");
        out.push_str(&h.count.to_string());
        out.push_str(",\"sum\":");
        json_num(out, h.sum);
        out.push_str(",\"p50\":");
        json_num(out, h.p50());
        out.push_str(",\"p95\":");
        json_num(out, h.p95());
        out.push_str(",\"p99\":");
        json_num(out, h.p99());
        out.push('}');
    }
    out.push_str("}}");
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    crate::json::escape_json_into(out, s);
    out.push('"');
}

/// JSON has no NaN/Infinity; non-finite samples dump as `null`.
fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Resident set size of this process in bytes (0 where `/proc` is absent).
pub fn rss_bytes() -> u64 {
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

/// The process-global flight recorder (lazily created, always enabled
/// until told otherwise).
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
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

    #[test]
    fn ring_overwrites_oldest_and_stays_ordered() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record_metric(&format!("m{i}"), i as f64);
        }
        let events = fr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let names: Vec<String> = events
            .iter()
            .map(|e| match e {
                FlightEvent::Metric { name, .. } => name.clone(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["m2", "m3", "m4"]);
        let times: Vec<f64> = events.iter().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn first_failure_wins() {
        let fr = FlightRecorder::new(16);
        fr.note_comm_failure("allreduce", 7, 2, Phase::GradComm, "boom");
        fr.note_comm_failure("broadcast", 8, 2, Phase::InverseComm, "cascade");
        let f = fr.failure().expect("failure pinned");
        assert_eq!(f.op, "allreduce");
        assert_eq!(f.seq, 7);
        assert_eq!(f.generation, 2);
        assert_eq!(f.phase, Phase::GradComm);
        // Both failures are still in the window as events.
        let comm_errors = fr
            .events()
            .iter()
            .filter(|e| matches!(e, FlightEvent::Comm { error: Some(_), .. }))
            .count();
        assert_eq!(comm_errors, 2);
    }

    #[test]
    fn disabled_recorder_drops_events_but_keeps_failures() {
        let fr = FlightRecorder::new(16);
        fr.set_enabled(false);
        fr.record_metric("m", 1.0);
        fr.record_span(0, Phase::FfBp, "iter0", 0.0, 1.0);
        fr.record_comm("allreduce", 1, 0, Phase::GradComm, 10, 0.0, 0.1);
        assert!(fr.events().is_empty());
        fr.note_comm_failure("gather", 3, 1, Phase::FactorComm, "down");
        assert_eq!(fr.events().len(), 1);
        assert!(fr.failure().is_some());
    }

    #[test]
    fn heartbeat_reflects_latest_state() {
        let fr = FlightRecorder::new(16);
        fr.record_iteration(12, 0.75);
        fr.set_phase(Phase::InverseComp);
        fr.set_generation(4);
        let hb = fr.heartbeat();
        assert_eq!(hb.iteration, 12);
        assert_eq!(hb.loss, 0.75);
        assert_eq!(hb.phase_idx, Phase::InverseComp.index());
        assert_eq!(hb.generation, 4);
    }

    #[test]
    fn render_json_is_valid_and_complete() {
        let fr = FlightRecorder::new(16);
        fr.configure(1, 4, None);
        fr.set_clock_model(ClockModel {
            offset: 0.5,
            drift: 1e-6,
            reference: 2.0,
            uncertainty: 1e-4,
        });
        fr.record_iteration(3, f64::NAN); // non-finite must dump as null
        fr.record_span(1, Phase::FfBp, "iter3", 0.1, 0.2);
        fr.record_comm("allreduce", 5, 1, Phase::GradComm, 100, 0.2, 0.25);
        fr.note_comm_failure("broadcast", 6, 1, Phase::InverseComm, "peer \"gone\"");
        let doc = fr.render_json("test reason");
        let v = parse_json(&doc).expect("postmortem dump must be valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(v.get("rank").and_then(|r| r.as_f64()), Some(1.0));
        assert_eq!(v.get("world").and_then(|w| w.as_f64()), Some(4.0));
        let failure = v.get("failure").expect("failure object");
        assert_eq!(
            failure.get("op").and_then(|o| o.as_str()),
            Some("broadcast")
        );
        assert_eq!(failure.get("seq").and_then(|s| s.as_f64()), Some(6.0));
        let events = v.get("events").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 4);
        let clock = v.get("clock").expect("clock model");
        assert_eq!(clock.get("offset").and_then(|o| o.as_f64()), Some(0.5));
    }

    #[test]
    fn dump_writes_once_to_trace_dir() {
        let dir = std::env::temp_dir().join(format!("spdkfac-flight-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(16);
        // No rank/trace-dir yet: dump is a no-op.
        assert!(fr.dump("early").is_none());
        fr.configure(2, 4, Some(&dir_s));
        fr.record_metric("m", 1.0);
        let path = fr.dump("test crash").expect("first dump writes");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(parse_json(&body).is_ok());
        assert!(path.ends_with("postmortem.rank2.json"));
        // Second dump is suppressed (first-wins).
        assert!(fr.dump("again").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
