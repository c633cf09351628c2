//! Segments, and the two kinds of run built from them.
//!
//! A *segment* is one complete 2-rank training session over TCP: a fresh
//! rendezvous server, two endpoints, `TrainSession::run` on both ranks.
//! The harness thread holds a barrier before the two `run` calls and after
//! them and reads the wall and process-CPU clocks at both, so a segment's
//! time is the trainers' time and nothing else. A run is many short
//! segments rather than one long session because the host changes speed in
//! phases that last from seconds to minutes: a run reports its fastest
//! segment, the one the host disturbed least (README, "Noise").

use crate::catalog::{
    build_model, make_dataset, MetricDef, Workload, BATCH, END_TO_END, PER_LAYER, WORLD,
};
use crate::layers;
use crate::report::RunOutput;
use crate::stats::{median, percentile, spread};
use crate::sysinfo::{self, CpuJiffies};
use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::{Backend, CommGroup, TcpConfig, WirePolicy, WorkerComm, PACE_ENV};
use spdkfac_core::distributed::{DistributedConfig, RunResult, TrainSession};
use spdkfac_nn::data::Dataset;
use spdkfac_obs::{
    attribute, chrome_trace, IterationBreakdown, Phase, Recorder, Span, SpanGuard, TrackKind,
    TrackLayout,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Set-up passes per run: at least [`SETUP_MIN_REPS`], then more until
/// [`SETUP_SECONDS`] are spent or [`SETUP_MAX_REPS`] are done, so that the
/// workloads whose pass is short (0.12 s un-paced) and therefore noisy get
/// more of them. `setup_s` is the median, as the contract asks.
pub const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;
/// Iterations the reference is trained for; a rank-run's loss is compared
/// at its last iteration or this one, whichever comes first.
const REFERENCE_ITERS: usize = 8;
/// Iterations of the warm-up segment inside each set-up pass: the first
/// (which plans fusion from measured ready times) and one steady one.
/// Short on purpose, so that `setup_s` is mostly dataset + rendezvous +
/// connect + model build + planning and moves when work is moved there.
pub const WARMUP_ITERS: usize = 2;
/// A run never reports from fewer timed segments than this.
pub const MIN_SEGMENTS: usize = 4;
/// Final-loss tolerance against the in-process f64 reference: lossless
/// wire formats reproduce it to rounding, lossy ones to `5e-2` (the bound
/// `bench_wire` and `spdkfac_node --smoke` use).
const LOSSLESS_TOL: f64 = 1e-9;
const LOSSY_TOL: f64 = 5e-2;
/// Steal above this share gets a warning (never a filter).
const STEAL_WARN: f64 = 0.05;

/// Recorder tracks of a traced run: the trainers' own layout first
/// (`rank r` compute on `r`, comm on `WORLD + r`), then the harness's.
const fn harness_rank_track(rank: usize) -> usize {
    2 * WORLD + rank
}
const HARNESS_MAIN_TRACK: usize = 3 * WORLD;
const NUM_TRACKS: usize = 3 * WORLD + 1;

/// Opens a harness span when tracing is on.
pub fn harness_span<'a>(
    trace: Option<&'a Arc<Recorder>>,
    track: usize,
    label: &'static str,
) -> Option<SpanGuard<'a>> {
    // The phase tag is required by `Span`; harness spans are told apart by
    // their label and their own tracks.
    trace.map(|r| r.span_labeled(track, Phase::Update, label))
}

/// As [`harness_span`], on the harness's main-thread track.
pub fn main_span<'a>(
    trace: Option<&'a Arc<Recorder>>,
    label: &'static str,
) -> Option<SpanGuard<'a>> {
    harness_span(trace, HARNESS_MAIN_TRACK, label)
}

/// One segment as measured.
pub struct Segment {
    pub iters: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Recorder times of the two barriers (traced segments only).
    pub window: Option<(f64, f64)>,
    /// Each rank's outcome; `Err` carries the failure as text.
    pub ranks: Vec<Result<RunResult, String>>,
}

impl Segment {
    fn wall_per_iter(&self) -> f64 {
        self.wall_s / self.iters as f64
    }
    fn cpu_per_iter(&self) -> f64 {
        self.cpu_s / self.iters as f64
    }
}

/// Joins the 2-rank TCP group hosted at `addr` as `rank`.
pub fn connect(addr: &str, rank: usize, wire: WirePolicy) -> Result<WorkerComm, String> {
    let mut tcp = TcpConfig::new(addr).with_rank(rank);
    tcp.host_rendezvous = false; // the harness hosts it
    CommGroup::builder()
        .world_size(WORLD)
        .wire_policy(wire)
        .backend(Backend::Tcp(tcp))
        .build()
        .map(CommGroup::into_single)
        .map_err(|e| format!("rank {rank} failed to join: {e}"))
}

/// Runs one segment of `iters` iterations. With `trace`, the trainers
/// record into it and the harness adds `connect` / `build` / `run` spans.
pub fn run_segment(
    cfg: &DistributedConfig,
    data: &Dataset,
    seed: u64,
    iters: usize,
    trace: Option<&Arc<Recorder>>,
) -> Segment {
    let _seg = main_span(trace, "segment");
    let addr = match RendezvousServer::spawn("127.0.0.1:0", WORLD) {
        Ok(a) => a.to_string(),
        Err(e) => {
            return Segment {
                iters,
                wall_s: f64::NAN,
                cpu_s: f64::NAN,
                window: None,
                ranks: (0..WORLD)
                    .map(|_| Err(format!("rendezvous: {e}")))
                    .collect(),
            }
        }
    };
    // The harness thread is the third party at both barriers.
    let barrier = Barrier::new(WORLD + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let (addr, barrier) = (&addr, &barrier);
                s.spawn(move || {
                    let track = harness_rank_track(rank);
                    let comm = {
                        let _g = harness_span(trace, track, "connect");
                        connect(addr, rank, cfg.wire)
                    };
                    barrier.wait();
                    let result = comm.and_then(|comm| {
                        let _g = harness_span(trace, track, "run");
                        let build = || {
                            let _g = harness_span(trace, track, "build");
                            build_model(seed)
                        };
                        let mut session = TrainSession::builder(cfg.clone()).endpoint(comm);
                        if let Some(rec) = trace {
                            session = session.recorder(Arc::clone(rec));
                        }
                        // Numeric failures panic inside the trainer; a
                        // panicking rank must still reach the barrier.
                        catch_unwind(AssertUnwindSafe(|| session.run(&build, data, iters, BATCH)))
                            .map_err(|_| format!("rank {rank} panicked"))?
                            .map_err(|e| format!("rank {rank}: {e}"))
                    });
                    barrier.wait();
                    result
                })
            })
            .collect();
        barrier.wait();
        let (t0, c0) = (Instant::now(), sysinfo::process_cpu_s());
        let r0 = trace.map(|r| r.now());
        barrier.wait();
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), sysinfo::process_cpu_s() - c0);
        let window = r0.zip(trace.map(|r| r.now()));
        Segment {
            iters,
            wall_s,
            cpu_s,
            window,
            ranks: handles
                .into_iter()
                .map(|h| h.join().expect("rank thread catches its own panics"))
                .collect(),
        }
    })
}

/// Counts rank-runs attempted and failed, and holds what later segments
/// are compared against.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The in-process f64 run of the same seed: loss per iteration.
    reference: Vec<f64>,
    loss_tol: f64,
    /// Wire bytes (both ranks) of the first timed segment.
    wire_bytes: Option<u64>,
    /// Collective operations (both ranks) of the first timed segment.
    pub ops: u64,
}

impl Tally {
    /// Trains the reference — same config, seed and data over the `Local`
    /// backend with the lossless wire — for [`REFERENCE_ITERS`] iterations.
    pub fn new(w: &Workload, data: &Dataset, seed: u64) -> Self {
        let mut cfg = w.config();
        let lossless = cfg.wire.is_lossless();
        cfg.wire = Default::default();
        // In-process endpoints read the pace too; the reference needs the
        // losses only. No other thread is alive to see the variable move.
        let pace = std::env::var(PACE_ENV).ok();
        std::env::remove_var(PACE_ENV);
        let reference = TrainSession::builder(cfg)
            .run(&|| build_model(seed), data, REFERENCE_ITERS, BATCH)
            .expect("local mode is infallible")
            .losses;
        if let Some(p) = pace {
            std::env::set_var(PACE_ENV, p);
        }
        Tally {
            attempted: 0,
            failed: 0,
            reference,
            loss_tol: if lossless { LOSSLESS_TOL } else { LOSSY_TOL },
            wire_bytes: None,
            ops: 0,
        }
    }

    /// Checks one segment; `timed` segments must also all move the same
    /// number of wire bytes. Problems are printed and counted.
    pub fn check(&mut self, label: &str, seg: &Segment, timed: bool) {
        self.attempted += seg.ranks.len() as u64;
        let mut bad = vec![false; seg.ranks.len()];
        let mut fail = |rank: usize, why: String| {
            println!("# FAIL {label} rank {rank}: {why}");
            bad[rank] = true;
        };
        for (rank, r) in seg.ranks.iter().enumerate() {
            match r {
                Err(e) => fail(rank, e.clone()),
                Ok(r) if r.losses.len() != seg.iters || r.losses.iter().any(|l| !l.is_finite()) => {
                    fail(rank, format!("bad losses: {:?}", r.losses))
                }
                Ok(r) => {
                    let (first, last) = (r.losses[0], r.losses[seg.iters - 1]);
                    let at = seg.iters.min(REFERENCE_ITERS) - 1;
                    let (loss, reference) = (r.losses[at], self.reference[at]);
                    if last >= first {
                        fail(rank, format!("loss did not decrease: {first} -> {last}"));
                    } else if (loss - reference).abs() > self.loss_tol {
                        fail(
                            rank,
                            format!("loss {loss} at iteration {at}, reference {reference}"),
                        );
                    }
                }
            }
        }
        let ok: Vec<&RunResult> = seg.ranks.iter().flatten().collect();
        if ok.len() == seg.ranks.len() {
            // Replicas stay bit-identical under every wire format.
            let same_bits = |a: &[f64], b: &[f64]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            for (rank, r) in ok.iter().enumerate().skip(1) {
                if !same_bits(&r.losses, &ok[0].losses)
                    || !same_bits(&r.final_params, &ok[0].final_params)
                {
                    fail(rank, "replica differs from rank 0".into());
                }
            }
            let wire: u64 = ok.iter().map(|r| r.traffic_wire_bytes).sum();
            if timed {
                match self.wire_bytes {
                    None => {
                        self.wire_bytes = Some(wire);
                        self.ops = ok.iter().map(|r| r.collective_ops).sum();
                    }
                    Some(expected) if expected != wire => {
                        fail(0, format!("wire bytes {wire}, earlier segments {expected}"))
                    }
                    Some(_) => {}
                }
            }
        }
        self.failed += bad.iter().filter(|b| **b).count() as u64;
    }

    /// Counts one whole-run condition as an operation that can fail.
    pub fn expect(&mut self, ok: bool, why: &str) {
        self.attempted += 1;
        if !ok {
            println!("# FAIL {why}");
            self.failed += 1;
        }
    }

    /// Wire megabytes per iteration, both ranks, of the timed segments.
    pub fn wire_mb_per_iter(&self, seg_iters: usize) -> f64 {
        self.wire_bytes.map_or(f64::NAN, |b| b as f64) / seg_iters as f64 / 1e6
    }
}

/// Host state at the start of a run, and the environment lines every run
/// prints first.
pub struct HostWatch {
    jiffies: CpuJiffies,
}

impl HostWatch {
    pub fn start(what: &str) -> Self {
        println!(
            "# {what}: nproc {} | {} | load1 {} | SPDKFAC_THREADS={} | {}={}",
            sysinfo::nproc(),
            sysinfo::cpu_model(),
            sysinfo::load_average().map_or("?".into(), |l| format!("{l:.2}")),
            std::env::var("SPDKFAC_THREADS").unwrap_or_else(|_| "unset".into()),
            PACE_ENV,
            std::env::var(PACE_ENV).unwrap_or_else(|_| "unset".into()),
        );
        HostWatch {
            jiffies: CpuJiffies::now(),
        }
    }

    /// Prints the steal share since `start` and warns when it is high.
    pub fn finish(&self) {
        let steal = CpuJiffies::now().steal_fraction_since(&self.jiffies);
        println!(
            "# host: guest steal {:.1}% over the run, load1 {}",
            steal * 100.0,
            sysinfo::load_average().map_or("?".into(), |l| format!("{l:.2}")),
        );
        if steal > STEAL_WARN {
            println!(
                "# WARNING: steal above {:.0}%: the hypervisor ran someone else; \
                 timings of this run are inflated (nothing was filtered)",
                STEAL_WARN * 100.0
            );
        }
    }
}

/// The smallest of `values`: a run's timing metrics are those of its
/// least-disturbed segment.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn print_segment_spread(name: &str, per_iter: &[f64]) {
    println!(
        "# segments {name}: {}",
        per_iter
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# segments {name}: n {} | min {:.6} | mean {:.6} | p50 {:.6} | p90 {:.6} | IQR/median {:.1}%",
        per_iter.len(),
        fastest(per_iter),
        per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        median(per_iter),
        percentile(per_iter, 90.0),
        spread(per_iter) * 100.0
    );
}

/// Sets the process environment a workload runs under. Must run before
/// the first endpoint or kernel call (both read their variable once).
pub fn prepare_env(w: &Workload) {
    std::env::set_var("SPDKFAC_THREADS", "1");
    match w.pace_gbps {
        Some(g) => std::env::set_var(PACE_ENV, g.to_string()),
        None => std::env::remove_var(PACE_ENV),
    }
}

/// One set-up pass: dataset, rendezvous + connect, model build and a
/// warm-up segment. Returns the dataset, the warm-up segment (to be
/// checked) and the pass's duration counted from `since`.
fn setup_pass(cfg: &DistributedConfig, seed: u64, since: Instant) -> (Dataset, Segment, f64) {
    let data = make_dataset(seed);
    let seg = run_segment(cfg, &data, seed, WARMUP_ITERS, None);
    let secs = since.elapsed().as_secs_f64();
    (data, seg, secs)
}

/// The end-to-end run (tracing off): the set-up passes, then
/// timed segments until `seconds` of segment time and `min_segments` are
/// both reached. `started` is when the process began, so the first pass
/// includes process start-up.
pub fn timed_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min_segments: usize,
    started: Instant,
) -> RunOutput {
    let host = HostWatch::start(&format!("run {} seed {seed} trace 0", w.name));
    println!("# {}: {}", w.name, w.why);
    let cfg = w.config();
    let (mut setups, mut warmups) = (Vec::new(), Vec::new());
    let (mut data, mut session_rss) = (None, None);
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let since = if setups.is_empty() {
            started
        } else {
            Instant::now()
        };
        let (d, seg, secs) = setup_pass(&cfg, seed, since);
        // The high-water mark of one fresh session in a fresh process:
        // later sessions add what the allocator kept of earlier ones.
        session_rss = session_rss.or_else(sysinfo::peak_rss_mb);
        setups.push(secs);
        warmups.push(seg);
        data = Some(d);
    }
    let data = data.expect("at least one set-up pass ran");
    println!(
        "# setup passes: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    // The reference run is the checker's cost, not the system's: it is
    // trained after set-up was timed and before the timed segments.
    let mut tally = Tally::new(w, &data, seed);
    for (rep, seg) in warmups.into_iter().enumerate() {
        tally.check(&format!("setup {rep}"), &seg, false);
    }

    // Per timed segment: wall and CPU seconds per iteration. The rank
    // results (two parameter vectors each) are dropped once checked.
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut wall = 0.0;
    while walls.len() < min_segments || wall < seconds {
        let seg = run_segment(&cfg, &data, seed, w.seg_iters, None);
        tally.check(&format!("segment {}", walls.len()), &seg, true);
        wall += seg.wall_s;
        walls.push(seg.wall_per_iter());
        cpus.push(seg.cpu_per_iter());
    }
    print_segment_spread("iter_wall_s", &walls);
    print_segment_spread("iter_cpu_s", &cpus);
    println!(
        "# VmHWM at exit {:.1} MB (grows with the number of sessions run; not a metric)",
        sysinfo::peak_rss_mb().unwrap_or(f64::NAN)
    );
    host.finish();

    let values = [
        fastest(&walls),
        fastest(&cpus),
        tally.wire_mb_per_iter(w.seg_iters),
        median(&setups),
        session_rss.unwrap_or(f64::NAN),
    ];
    let out = RunOutput::new(tally.attempted, tally.failed, &END_TO_END, &values);
    println!(
        "# {}: {} timed segments x {} iterations, {} rank-runs attempted, {} failed",
        w.name,
        walls.len(),
        w.seg_iters,
        out.attempted,
        out.failed
    );
    print_metrics(&out, &END_TO_END);
    out
}

/// Prints every metric of `out` (reported under `defs`) by name with its
/// unit and which direction is better.
pub fn print_metrics(out: &RunOutput, defs: &[MetricDef]) {
    for (m, d) in out.metrics.iter().zip(defs) {
        println!(
            "{:<36} {:>16.9} {:<8} ({} is better)",
            m.name,
            m.value,
            m.unit,
            d.better.as_str()
        );
    }
}

/// Rank `rank`'s spans of one segment, renumbered to the two-track layout
/// `attribute` partitions (compute = 0, comm = 1).
fn rank_spans(spans: &[Span], window: (f64, f64), rank: usize) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| s.start >= window.0 && s.start < window.1)
        .filter_map(|s| {
            let track = match s.track {
                t if t == rank => 0,
                t if t == WORLD + rank => 1,
                _ => return None,
            };
            Some(Span { track, ..s.clone() })
        })
        .collect()
}

/// The traced run (`--trace 1`): the same segments, alternately with and
/// without the recorder attached (A B B A, so a host phase hits both
/// sides), then the micro-benchmarks of [`layers`]. Reports every
/// per-layer metric; the spans are written as Chrome JSON at the end.
pub fn traced_run(w: &Workload, seed: u64, seconds: f64, started: Instant) -> RunOutput {
    let host = HostWatch::start(&format!("run {} seed {seed} trace 1", w.name));
    println!("# {}: {}", w.name, w.why);
    let cfg = w.config();
    let rec = Arc::new(Recorder::with_capacity(NUM_TRACKS, 1 << 20));
    let (data, warmup, _) = setup_pass(&cfg, seed, started);
    let mut tally = Tally::new(w, &data, seed);
    tally.check("setup", &warmup, false);
    drop(warmup);

    // [untraced, traced] sums of wall seconds and iterations.
    let (mut wall, mut iters) = ([0.0; 2], [0usize; 2]);
    let mut fastest_wall = [f64::INFINITY; 2];
    let mut windows = Vec::new();
    let (mut fusion_msgs, mut nct_tensors) = (Vec::new(), Vec::new());
    let mut k = 0;
    while k < MIN_SEGMENTS || wall[0] + wall[1] < seconds || k % 4 != 0 {
        let traced = matches!(k % 4, 1 | 2);
        let seg = run_segment(&cfg, &data, seed, w.seg_iters, traced.then_some(&rec));
        tally.check(&format!("segment {k}"), &seg, true);
        let side = usize::from(traced);
        wall[side] += seg.wall_s;
        iters[side] += seg.iters;
        fastest_wall[side] = fastest_wall[side].min(seg.wall_per_iter());
        if traced {
            // Rank 0 publishes the plan it runs as gauges, once per session.
            let m = rec.metrics();
            fusion_msgs
                .push(m.gauge("fusion/a/messages").get() + m.gauge("fusion/g/messages").get());
            nct_tensors.push(m.gauge("placement/nct").get());
            windows.push(seg.window.expect("traced segments carry a window"));
        }
        k += 1;
    }

    // Partition each rank's traced time into the paper's categories.
    let spans = rec.spans();
    let mut part = IterationBreakdown::default();
    for &window in &windows {
        for rank in 0..WORLD {
            part.accumulate(&attribute(&rank_spans(&spans, window, rank), 1));
        }
    }
    let rank_iters = (iters[1] * WORLD) as f64;
    let traced_iter_wall = wall[1] / iters[1] as f64;
    let coverage = part.total() / rank_iters / traced_iter_wall;
    // As for `iter_wall_s`: each side's least-disturbed segment.
    let overhead = fastest_wall[1] / fastest_wall[0] - 1.0;
    tally.expect(
        (0.95..=1.05).contains(&coverage),
        &format!("trace coverage {coverage:.4} outside [0.95, 1.05]"),
    );
    tally.expect(rec.dropped() == 0, "the recorder dropped spans");
    println!(
        "# traced {} segments: mean wall {traced_iter_wall:.6} s/iter traced vs {:.6} untraced \
         (fastest {:.6} vs {:.6}); partition sums to {:.6} s/iter ({:.1}% of traced wall)",
        windows.len(),
        wall[0] / iters[0] as f64,
        fastest_wall[1],
        fastest_wall[0],
        part.total() / rank_iters,
        coverage * 100.0
    );

    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("core.ff_bp_s", part.ff_bp / rank_iters),
        ("core.factor_comp_s", part.factor_comp / rank_iters),
        ("core.inverse_comp_s", part.inverse_comp / rank_iters),
        ("core.update_s", part.other / rank_iters),
        ("core.grad_comm_exposed_s", part.grad_comm / rank_iters),
        ("core.factor_comm_exposed_s", part.factor_comm / rank_iters),
        (
            "core.inverse_comm_exposed_s",
            part.inverse_comm / rank_iters,
        ),
        ("core.idle_s", part.idle / rank_iters),
        ("core.trace_coverage", coverage),
        ("core.fusion_msgs", median(&fusion_msgs)),
        ("core.nct_tensors", median(&nct_tensors)),
        (
            "collectives.ops_per_iter",
            tally.ops as f64 / w.seg_iters as f64,
        ),
        ("obs.trace_overhead_frac", overhead),
    ]);

    // The micro-benchmarks measure the layers themselves, not the emulated
    // network: no pacing. All rank threads have ended by now.
    std::env::remove_var(PACE_ENV);
    values.extend(layers::measure(seed, Some(&rec)));
    host.finish();

    write_trace(w, &rec);
    let ordered: Vec<f64> = PER_LAYER
        .iter()
        .map(|m| {
            *values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
        })
        .collect();
    let out = RunOutput::new(tally.attempted, tally.failed, &PER_LAYER, &ordered);
    print_metrics(&out, &PER_LAYER);
    out
}

/// Writes the run's spans as Chrome-trace JSON next to the executable
/// (inside the build directory, so the checkout stays clean).
fn write_trace(w: &Workload, rec: &Recorder) {
    let mut layout = TrackLayout::trainer(WORLD);
    for rank in 0..WORLD {
        layout.push(format!("harness rank{rank}"), TrackKind::Compute);
    }
    layout.push("harness main", TrackKind::Compute);
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
    else {
        println!("# trace not written: executable directory unknown");
        return;
    };
    let path = dir.join(format!("kfac-bench-trace-{}.json", w.name));
    let spans = rec.spans();
    match std::fs::write(&path, chrome_trace(&spans, &layout)) {
        Ok(()) => println!("# trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => println!("# trace not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two timed 2-iteration segments of the CPU-bound workload, end to
    /// end through the real TCP path, with every check on.
    #[test]
    fn spd_loopback_smoke() {
        let w = Workload {
            seg_iters: 2,
            ..*Workload::by_name("spd_loopback").expect("in catalog")
        };
        prepare_env(&w);
        let out = timed_run(&w, 7, 0.0, 2, Instant::now());
        assert!(out.correct, "{out:?}");
        assert!(out.attempted >= ((SETUP_MIN_REPS + 2) * WORLD) as u64);
        assert_eq!(out.failed, 0);
        for m in &END_TO_END {
            let v = out.get(m.name).expect("every end-to-end metric reported");
            assert!(v > 0.0, "{} = {v}", m.name);
        }
        RunOutput::parse(&out.to_json_line()).expect("result line parses");
    }
}
