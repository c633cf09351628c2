//! `spdkfac_node` — multi-process SPD-KFAC launcher over the TCP ring
//! backend.
//!
//! Each invocation is one rank of the group: it joins the rendezvous, forms
//! the TCP ring, and runs the *same* per-rank training loop (an
//! endpoint-mode `spdkfac_core::distributed::TrainSession`) the in-process
//! trainer runs on threads. Because every collective goes through the
//! transport-abstracted `WorkerComm` surface, a P-process run produces
//! bit-identical losses to a P-thread run.
//!
//! The first argument is a sub-command:
//!
//! - **`run`** — one rank, possibly on a different host per process:
//!   `spdkfac_node run --rank R --world P --rendezvous HOST:PORT`
//!   Rank 0 hosts the rendezvous server on the given address by default;
//!   pass `--external-rendezvous` if something else (e.g. the spawn-local
//!   parent) hosts it. With `--elastic` the rank joins a long-lived
//!   rendezvous instead and survives membership resizes (see below).
//! - **`spawn-local P`** — single command, P child processes on this
//!   machine: the parent hosts the rendezvous on an ephemeral 127.0.0.1
//!   port, launches P `run` children of itself, supervises them and
//!   aggregates rank 0's losses.
//! - **`smoke [P]`** (P defaults to 4) — spawn-local plus the parity gate:
//!   the identical workload re-runs on the in-process backend and the
//!   command fails (exit 1) unless every per-iteration loss matches to
//!   < 1e-12 — the CI acceptance gate for the transport abstraction.
//! - **`drift-demo`** — the straggler re-planning story (see below).
//!
//! ## Elastic membership (`--elastic`)
//!
//! With `--elastic` the parent tolerates deaths instead of failing on the
//! first one, and the children train through
//! `TrainSession::builder(cfg).elastic(..)`. When a rank dies mid-run the
//! survivors' collectives fail, every survivor re-registers with its old
//! (epoch, rank), and the rendezvous commits membership epoch e+1: the
//! survivors re-ranked densely, a fresh fusion/placement plan derived for
//! the smaller world, and the new rank 0 broadcasting its full training
//! checkpoint (parameters, momentum, factors, inverses, loss history) so
//! every member resumes from identical state. The parent supervises the
//! children: one dying with the kill-injection exit code (113,
//! `SPDKFAC_KILL`) is replaced — only after the shrunk epoch has
//! committed, so the contraction is observable — by a fresh joiner, which
//! rank 0's per-iteration rendezvous poll detects and absorbs at the next
//! epoch, growing the world back with the handed-off state.
//!
//! With `--trace-dir DIR` every member records spans across *all* its
//! epochs (a survivor's post-mortem dump is its recorder's newest spans);
//! the epoch-0 rank-0 child also writes `DIR/merged_trace.json` (one Chrome
//! trace covering every epoch, with `handoff-e<N>` spans marking the
//! transitions) and `DIR/resize_timeline.json`
//! (`spdkfac-resize-timeline-v1`: one entry per membership epoch with its
//! world size and starting iteration). After a kill the parent fails the
//! run unless the timeline shows exactly the expected shrink → regrow, the
//! merged trace spans both epochs and every surviving founder left a dump
//! with spans in it; `smoke --elastic` additionally
//! requires the final loss within [`LOSSY_LOSS_TOL`] of a never-resized
//! in-process baseline (a resize re-shards the batch, so bit-parity is
//! not defined across one).
//!
//! ## Wire formats (`--wire POLICY`)
//!
//! `--wire` selects the per-op-kind wire encoding of the collectives layer
//! (`spdkfac_collectives::wire`): a single format (`f64`, `f32`, `f16`)
//! applied uniformly, or a `grad=...,factor=...` key=value list. Every rank must receive the same policy (the spawn-local parent
//! forwards the flag). With a lossless policy the `smoke` gate keeps its
//! usual [`PARITY_TOL`] cross-backend bound. Lossy policies cannot be
//! gated that tightly across *separate runs*: the factor fusion plans are
//! re-derived per run from measured layer-ready times (Eq. 15), two runs
//! may group messages differently, and different ring chunk boundaries
//! round partial sums at different points — an ulp-level effect under f64
//! that the codec magnifies to visible loss deltas under f16. So lossy
//! smoke runs are instead gated against the in-process **f64** baseline:
//! every per-iteration loss must stay within [`LOSSY_LOSS_TOL`] of it —
//! the CI gate that compressed wire formats preserve convergence.
//!
//! ## Straggler drift demo (`drift-demo`)
//!
//! `drift-demo` runs the end-to-end adaptive re-planning story on one
//! machine: a 4-process spawn-local run in which rank 1's collectives are
//! slowed 25x for a mid-run window ([`DRIFT_SPEC`], injected
//! via `SPDKFAC_INJECT_DELAY`), while every rank runs with
//! `ReplanPolicy::OnDrift` (the parent passes its `run` children
//! `--drift-demo`). Rank 0 then asserts from its own recorder that (a)
//! the runtime actually swapped plans at least once
//! (`runtime/swaps` counter), (b) the straggler visibly slowed iterations
//! (peak windowed iteration time >= [`DRIFT_SLOWDOWN_MIN`]x the fastest
//! window), and (c) throughput recovered by the end of the run (tail
//! window <= [`DRIFT_RECOVERY_MAX`]x the peak). The merged
//! trace (`--trace-dir`, defaulted to a temp dir) makes the perturbation,
//! the re-plan barrier, and the recovery visible on one timeline.
//!
//! ## Traces (`--trace-dir DIR`)
//!
//! With `--trace-dir`, every rank records spans and, on a clean exit,
//! writes them to `DIR/trace.rank{N}.json` (on a failure it leaves
//! `DIR/postmortem.rank{N}.json` instead). Nothing streams during the run.
//! After the children exit, the parent merges the files: each rank's clock
//! is fitted to rank 0's from the collectives both recorded
//! (`spdkfac_bench::traces::merge`), and the merge writes the same unified
//! artifacts an in-process run produces:
//!
//! - `DIR/merged_trace.json` — one Chrome trace across all ranks, with the
//!   critical path highlighted;
//! - `DIR/critical_path.json` — the `spdkfac-critical-path-v1` report;
//! - `DIR/critical_path.txt` — the human-readable attribution.
//!
//! The merge *fails the run* (exit 1) if the merged trace's critical path
//! covers < 95% of wall or any cross-rank collective edge is causally
//! inconsistent after clock alignment (a negative-latency comm edge means
//! the alignment failed). Every rank needs the flag (the spawn-local
//! parent forwards it); for hand-launched `run` ranks,
//! `spdkfac_postmortem DIR` runs the same merge.
//!
//! The workload is the deterministic observability workload (deep MLP on
//! Gaussian blobs, SPD-KFAC), so runs are reproducible across modes.

use spdkfac_bench::traces::{merge, read_rank_docs, COVERAGE_MIN};
use spdkfac_bench::{header, note};
use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::transport::{INJECT_DELAY_ENV, INJECT_KILL_ENV, KILL_EXIT_CODE};
use spdkfac_collectives::{Backend, CommGroup, TcpConfig, WirePolicy};
use spdkfac_core::distributed::{Algorithm, DistributedConfig, RunResult, TrainSession};
use spdkfac_core::elastic::{ElasticPolicy, MembershipSpan};
use spdkfac_core::runtime::ReplanPolicy;
use spdkfac_nn::data::{gaussian_blobs, Dataset};
use spdkfac_nn::models::deep_mlp;
use spdkfac_nn::Sequential;
use spdkfac_obs::{chrome_trace, parse_json, JsonValue, Phase, Recorder, TrackLayout};
use std::process::{Child, Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loss agreement bound between the TCP and in-process backends under a
/// lossless wire policy. Not quite bit-exactness: each run re-derives its
/// fusion plans from measured layer-ready times, so two runs may group
/// factor messages differently and sum ring chunks in a different
/// rotation — an ulp-level difference under f64.
const PARITY_TOL: f64 = 1e-12;

/// Loss agreement bound between a lossy-wire run and the in-process f64
/// baseline of the same workload (per iteration, absolute). Documented in
/// DESIGN.md §2.12: f16 keeps ~3 decimal digits on gradients/factors whose
/// magnitudes stay O(1) in this workload, and K-FAC's damping + averaging
/// absorb the rounding, so losses track well inside 5e-2 over short runs.
const LOSSY_LOSS_TOL: f64 = 5e-2;

/// Drift-demo world size (4-rank ring: rank 1's straggling is felt by
/// every rank through ring neighbor waits).
const DRIFT_WORLD: usize = 4;

/// Drift-demo iteration count: long enough for the delay window to open,
/// the OnDrift hysteresis to trip, and a clean tail to recover in.
const DRIFT_ITERS: usize = 44;

/// Mid-run perturbation injected into every drift-demo child via
/// `SPDKFAC_INJECT_DELAY`: rank 1's collectives run 25x slower
/// from its 60th executed collective until its 150th — a straggler that
/// appears a few iterations in and disappears mid-run, bracketing the
/// re-plan the OnDrift policy must produce. The disarm point leaves a
/// wide post-recovery stretch (op counts per iteration vary a little
/// with the fusion plan, which derives from measured times), so the
/// tail window is sampled well clear of the straggler.
const DRIFT_SPEC: &str = "1:*:25.0@after60,1:*:1.0@after150";

/// OnDrift barrier cadence of the drift demo (iterations).
const DRIFT_CHECK_EVERY: usize = 2;

/// The straggler must slow the worst iteration window at least this much
/// over the fastest window, or the perturbation was not observable.
const DRIFT_SLOWDOWN_MIN: f64 = 2.0;

/// The tail iteration window must come back down to at most this fraction
/// of the peak window for the demo to count as "throughput recovered".
const DRIFT_RECOVERY_MAX: f64 = 0.6;

/// Sliding-window width (iterations) for the drift-demo throughput
/// statistics — wide enough to smooth scheduling noise on loopback.
const DRIFT_WINDOW: usize = 5;

/// Elastic rendezvous rejoin window: long enough for every survivor of a
/// loopback kill to re-register, short enough to keep the smoke fast.
const ELASTIC_REJOIN_WINDOW: Duration = Duration::from_secs(2);

/// How long the elastic parent waits for a membership epoch to commit
/// (shrink after a kill) before declaring the resize stuck.
const ELASTIC_EPOCH_TIMEOUT: Duration = Duration::from_secs(60);

/// Default iteration count of the elastic smoke: enough headroom after the
/// kill for the shrunk epoch to be detected, the replacement to register,
/// and a long world-regrown tail to converge in.
const ELASTIC_ITERS: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One rank of a group.
    Run,
    /// Parent of `world` local `run` children.
    SpawnLocal,
    /// `SpawnLocal` plus the loss-parity gate.
    Smoke,
    /// `SpawnLocal` under the scripted straggler.
    DriftDemo,
}

struct Args {
    mode: Mode,
    rank: Option<usize>,
    /// `run`: `--world`; parents: the positional child count.
    world: usize,
    rendezvous: String,
    external_rendezvous: bool,
    iters: Option<usize>,
    batch: usize,
    out: Option<String>,
    trace_dir: Option<String>,
    wire: Option<String>,
    /// This process is part of a drift demo (its parent, or a `run` child
    /// the parent passed `--drift-demo`).
    drift_demo: bool,
    elastic: bool,
}

impl Args {
    /// Effective iteration count: an explicit `--iters` wins, elastic runs
    /// default to [`ELASTIC_ITERS`], everything else to 5.
    fn iters(&self) -> usize {
        self.iters
            .unwrap_or(if self.elastic { ELASTIC_ITERS } else { 5 })
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: spdkfac_node run --rank R --world P --rendezvous HOST:PORT \
         [--external-rendezvous] [--elastic] [--drift-demo] [--out FILE] [common options]\n\
         \x20      spdkfac_node spawn-local P [--elastic] [common options]\n\
         \x20      spdkfac_node smoke [P] [--elastic] [common options]\n\
         \x20      spdkfac_node drift-demo [common options]\n\
         common options: [--iters N] [--batch B] [--wire POLICY] [--trace-dir DIR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first().map(String::as_str) {
        Some("run") => Mode::Run,
        Some("spawn-local") => Mode::SpawnLocal,
        Some("smoke") => Mode::Smoke,
        Some("drift-demo") => Mode::DriftDemo,
        _ => usage(),
    };
    let mut args = Args {
        mode,
        rank: None,
        world: 0,
        rendezvous: String::new(),
        external_rendezvous: false,
        iters: None,
        batch: 4,
        out: None,
        trace_dir: None,
        wire: None,
        drift_demo: mode == Mode::DriftDemo,
        elastic: false,
    };
    let mut i = 1;
    // The child count of a parent is positional.
    let positional = argv.get(1).and_then(|v| v.parse().ok());
    args.world = match (mode, positional) {
        (Mode::Run, _) => 0,
        (Mode::DriftDemo, _) => DRIFT_WORLD,
        (_, Some(world)) => {
            i += 1;
            world
        }
        (Mode::Smoke, None) => 4,
        (_, None) => usage(),
    };
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let run = mode == Mode::Run;
    while i < argv.len() {
        match argv[i].as_str() {
            "--rank" if run => args.rank = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--world" if run => args.world = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rendezvous" if run => args.rendezvous = value(&mut i),
            "--external-rendezvous" if run => args.external_rendezvous = true,
            "--out" if run => args.out = Some(value(&mut i)),
            "--drift-demo" if run => args.drift_demo = true,
            "--elastic" if mode != Mode::DriftDemo => args.elastic = true,
            "--iters" => args.iters = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--batch" => args.batch = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace-dir" => args.trace_dir = Some(value(&mut i)),
            "--wire" => args.wire = Some(value(&mut i)),
            other => {
                eprintln!("unknown argument for this sub-command: {other}");
                usage()
            }
        }
        i += 1;
    }
    if args.world == 0 || (run && args.rendezvous.is_empty()) {
        usage();
    }
    // The drift parent's rank-0 assertions need a long enough run, and
    // both it and the elastic parent assert on rank 0's trace artifacts.
    if mode == Mode::DriftDemo {
        args.iters = Some(args.iters().max(DRIFT_ITERS));
    }
    if !run && (args.drift_demo || args.elastic) && args.trace_dir.is_none() {
        let dir = std::env::temp_dir().join(format!("spdkfac_node_{}", std::process::id()));
        args.trace_dir = Some(dir.to_string_lossy().into_owned());
    }
    args
}

/// The deterministic workload shared by every mode (and by the
/// observability integration tests): all backends must see the exact same
/// model, data, and hyper-parameters for parity to be meaningful.
fn workload(world: usize) -> (DistributedConfig, Dataset) {
    let mut cfg = DistributedConfig::new(world, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    let data = gaussian_blobs(3, 8, 8 * world, 0.3, 42);
    (cfg, data)
}

fn build_model() -> Sequential {
    deep_mlp(8, 24, 8, 3, 5)
}

/// The drift demo trains a wider MLP: 96-wide hidden layers put the
/// inverse-placement decision (broadcast a computed inverse vs. invert
/// locally on every rank) near its cost boundary, so a 25x broadcast
/// slowdown genuinely flips the LBP plan — which is the whole point of
/// the demo. The tiny parity workload is insensitive: its inverses are so
/// cheap that local inversion wins at any realistic broadcast cost.
fn build_drift_model() -> Sequential {
    deep_mlp(8, 96, 8, 3, 5)
}

/// Applies the CLI overrides every rank must agree on: the wire policy and
/// the drift-demo re-plan policy. Called identically on every rank (and on
/// the parent's in-process smoke baseline) so the runs stay SPMD.
fn apply_overrides(cfg: &mut DistributedConfig, args: &Args) -> Result<(), String> {
    if let Some(spec) = &args.wire {
        cfg.wire = WirePolicy::parse(spec).map_err(|e| format!("--wire {spec}: {e}"))?;
    }
    if args.drift_demo {
        cfg.replan = ReplanPolicy::OnDrift {
            check_every: DRIFT_CHECK_EVERY,
            hysteresis: 1,
        };
    }
    Ok(())
}

/// Rank-0 drift-demo assertions, computed from this rank's own recorder:
/// the runtime swapped plans, the straggler visibly slowed the iteration
/// rate, and the rate recovered by the tail of the run. Iteration starts
/// are the forward-pass span starts (two `FfBp` spans per iteration on
/// the compute track: forward then backward).
fn assert_drift_demo(rec: &Recorder, iters: usize, ops: u64) -> Result<(), String> {
    let snap = rec.metrics().snapshot();
    let swaps = snap.counters.get("runtime/swaps").copied().unwrap_or(0);
    let mut starts: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.track == 0 && s.phase == Phase::FfBp)
        .map(|s| s.start)
        .collect();
    starts.sort_by(|a, b| a.partial_cmp(b).expect("span starts are finite"));
    if starts.len() != 2 * iters {
        return Err(format!(
            "drift demo: expected {} FfBp spans (forward + backward per iteration), found {}",
            2 * iters,
            starts.len()
        ));
    }
    let fwd: Vec<f64> = starts.iter().step_by(2).copied().collect();
    let durations: Vec<f64> = fwd.windows(2).map(|w| w[1] - w[0]).collect();
    if durations.len() < 2 * DRIFT_WINDOW {
        return Err("drift demo: too few iterations for windowed statistics".into());
    }
    let means: Vec<f64> = durations
        .windows(DRIFT_WINDOW)
        .map(|w| w.iter().sum::<f64>() / DRIFT_WINDOW as f64)
        .collect();
    let peak = means.iter().cloned().fold(f64::MIN, f64::max);
    let base = means.iter().cloned().fold(f64::MAX, f64::min);
    let tail = *means.last().expect("nonempty windows");
    eprintln!(
        "drift demo: swaps={swaps}, {ops} collectives executed, iteration-window means \
         (x{DRIFT_WINDOW}): base {:.2}ms, peak {:.2}ms ({:.1}x), tail {:.2}ms ({:.2} of peak)",
        base * 1e3,
        peak * 1e3,
        peak / base,
        tail * 1e3,
        tail / peak,
    );
    if swaps == 0 {
        return Err("drift demo: OnDrift never swapped a plan (runtime/swaps == 0)".into());
    }
    if peak < DRIFT_SLOWDOWN_MIN * base {
        return Err(format!(
            "drift demo: straggler not observable (peak window {:.2}ms < {DRIFT_SLOWDOWN_MIN}x \
             base {:.2}ms)",
            peak * 1e3,
            base * 1e3
        ));
    }
    if tail > DRIFT_RECOVERY_MAX * peak {
        return Err(format!(
            "drift demo: throughput did not recover (tail window {:.2}ms > {DRIFT_RECOVERY_MAX} \
             of peak {:.2}ms)",
            tail * 1e3,
            peak * 1e3
        ));
    }
    Ok(())
}

/// Joins the TCP group as one rank and runs the training loop.
fn run_rank(args: &Args) -> Result<RunResult, String> {
    let world = args.world;
    // Post-mortem forensics: configure the always-on flight recorder and
    // arm the panic hook before anything that can fail, so even a panic
    // during group formation leaves a dump behind.
    let flight = spdkfac_obs::flight::global();
    if let Some(rank) = args.rank {
        flight.configure(rank, world, args.trace_dir.as_deref());
    }
    spdkfac_obs::flight::install_panic_hook();
    let mut tcp = TcpConfig::new(args.rendezvous.clone());
    if let Some(rank) = args.rank {
        tcp = tcp.with_rank(rank);
    }
    if args.external_rendezvous {
        tcp.host_rendezvous = false;
    }

    // The recorder's epoch is this process's clock; 2 * world tracks
    // (compute r, comm world + r) — this rank uses only its own two, so the
    // merge is track-disjoint by construction.
    let rec = args
        .trace_dir
        .is_some()
        .then(|| Arc::new(Recorder::new(2 * world)));
    let (mut cfg, data) = workload(world);
    apply_overrides(&mut cfg, args)?;

    let comm = CommGroup::builder()
        .world_size(world)
        .wire_policy(cfg.wire)
        .backend(Backend::Tcp(tcp))
        .build()
        .map_err(|e| format!("failed to join TCP group: {e}"))?
        .into_single();
    let rank = comm.rank();
    // Re-configure with the joined rank: covers manual mode without an
    // explicit --rank, where the rendezvous assigned one.
    flight.configure(rank, world, args.trace_dir.as_deref());
    if let Some(rec) = &rec {
        flight.set_recorder(Arc::clone(rec));
    }

    let build: &(dyn Fn() -> Sequential + Sync) = if args.drift_demo {
        &build_drift_model
    } else {
        &build_model
    };
    let mut session = TrainSession::builder(cfg).endpoint(comm);
    if let Some(r) = &rec {
        session = session.recorder(Arc::clone(r));
    }
    // main() leaves the post-mortem dump for a failure.
    let result = session
        .run(build, &data, args.iters(), args.batch)
        .map_err(|e| format!("rank {rank}: training failed: {e}"))?;
    if rec.is_some() {
        flight.write_trace()?;
    }
    if args.drift_demo && rank == 0 {
        let rec = rec
            .as_ref()
            .ok_or("drift demo requires a recorder (--trace-dir)")?;
        assert_drift_demo(rec, args.iters(), result.collective_ops)?;
    }
    eprintln!(
        "rank {rank}/{world}: {} iterations done, final loss {:.6}",
        args.iters(),
        result.losses.last().copied().unwrap_or(f64::NAN)
    );
    Ok(result)
}

/// Writes per-iteration losses one per line. `Display` for `f64` is the
/// shortest representation that parses back to the identical bits, so the
/// file round-trip is lossless.
fn write_losses(path: &str, losses: &[f64]) -> Result<(), String> {
    let body: String = losses.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))
}

fn read_losses(path: &str) -> Result<Vec<f64>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))?
        .lines()
        .map(|l| l.trim().parse().map_err(|e| format!("parse {path}: {e}")))
        .collect()
}

/// One elastic member: joins the elastic rendezvous and trains across
/// membership epochs through `TrainSession::builder(cfg).elastic(..)`.
/// The epoch-0 rank-0 claimant records spans across every epoch it lives
/// through and leaves the resize timeline + merged trace behind.
fn run_elastic_rank(args: &Args) -> Result<RunResult, String> {
    let world = args.world;
    let flight = spdkfac_obs::flight::global();
    if let Some(claim) = args.rank {
        flight.configure(claim, world, args.trace_dir.as_deref());
    }
    spdkfac_obs::flight::install_panic_hook();

    let (mut cfg, data) = workload(world);
    apply_overrides(&mut cfg, args)?;
    let mut policy = ElasticPolicy::new(TcpConfig::new(args.rendezvous.clone()));
    policy.tcp.rank = args.rank;
    // The recorder outlives every epoch; per-epoch track registration
    // happens inside the trainer. 4x the initial world leaves headroom for
    // the comm tracks of epochs that grow past the founding size. Every
    // member records — a post-mortem dump is its recorder's newest spans —
    // but only the founding rank 0 writes the merged trace.
    let rec = args
        .trace_dir
        .is_some()
        .then(|| Arc::new(Recorder::new(4 * world)));
    if let Some(r) = &rec {
        flight.set_recorder(Arc::clone(r));
    }
    let mut session = TrainSession::builder(cfg).elastic(policy);
    if let Some(r) = &rec {
        session = session.recorder(Arc::clone(r));
    }
    let result = session
        .run(&build_model, &data, args.iters(), args.batch)
        .map_err(|e| format!("elastic member failed: {e}"))?;

    for span in &result.membership {
        eprintln!(
            "elastic member: epoch {} at world {} from iteration {}",
            span.epoch, span.world, span.from_iter
        );
    }
    if let (Some(dir), Some(rec), Some(0)) = (&args.trace_dir, &rec, args.rank) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        let trace = chrome_trace(&rec.spans(), &TrackLayout::trainer(world));
        let path = format!("{dir}/merged_trace.json");
        std::fs::write(&path, trace).map_err(|e| format!("write {path}: {e}"))?;
        let path = format!("{dir}/resize_timeline.json");
        std::fs::write(&path, render_timeline(&result.membership))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("elastic member: rank-0 trace + resize timeline written to {dir}/");
    }
    Ok(result)
}

/// The `spdkfac-resize-timeline-v1` document: one entry per membership
/// epoch this member lived through.
fn render_timeline(spans: &[MembershipSpan]) -> String {
    let mut body = String::from("{\"schema\":\"spdkfac-resize-timeline-v1\",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"epoch\":{},\"world\":{},\"from_iter\":{}}}",
            s.epoch, s.world, s.from_iter
        ));
    }
    body.push_str("]}");
    body
}

fn read_timeline(dir: &str) -> Result<Vec<MembershipSpan>, String> {
    let path = format!("{dir}/resize_timeline.json");
    let body = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse_json(&body).map_err(|e| format!("{path}: {e}"))?;
    let Some(JsonValue::Array(spans)) = doc.get("spans") else {
        return Err(format!("{path}: missing spans array"));
    };
    spans
        .iter()
        .map(|s| {
            let field = |k: &str| {
                s.get(k)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{path}: span missing {k:?}"))
            };
            Ok(MembershipSpan {
                epoch: field("epoch")? as u64,
                world: field("world")? as usize,
                from_iter: field("from_iter")? as usize,
            })
        })
        .collect()
}

/// The command line of one `run` child of this parent: the founder of
/// `rank`, or (`None`) a replacement joining a group that already runs.
fn child_command(
    args: &Args,
    addr: &str,
    rank: Option<usize>,
    out: &str,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--external-rendezvous", "--rendezvous", addr])
        .args(["--world", &args.world.to_string()])
        .args(["--iters", &args.iters().to_string()])
        .args(["--batch", &args.batch.to_string()]);
    match rank {
        Some(rank) => cmd.args(["--rank", &rank.to_string()]),
        // After the shrink it may be assigned the victim's old rank, so it
        // must not inherit the kill spec.
        None => cmd.env_remove(INJECT_KILL_ENV),
    };
    if rank == Some(0) {
        cmd.args(["--out", out]);
    }
    if args.elastic {
        cmd.arg("--elastic");
    }
    // Every rank needs the trace flag (it turns its recorder on).
    if let Some(dir) = &args.trace_dir {
        cmd.args(["--trace-dir", dir]);
    }
    if let Some(wire) = &args.wire {
        cmd.args(["--wire", wire]);
    }
    if args.drift_demo {
        // The perturbation rides the environment so the children's comm
        // threads pick it up at group formation; the flag itself selects
        // the OnDrift policy and the rank-0 assertions.
        cmd.arg("--drift-demo").env(INJECT_DELAY_ENV, DRIFT_SPEC);
    }
    Ok(cmd)
}

/// Hosts the rendezvous, launches one `run` child per founding rank and
/// supervises them to the end. Returns rank 0's losses and the founding
/// ranks whose kill was absorbed. A fixed world tolerates no death. An
/// elastic one replaces a child that died with the kill-injection exit code
/// ([`KILL_EXIT_CODE`]) by a fresh joiner — only once the shrunk epoch has
/// committed, so the world visibly contracts before it regrows.
fn spawn_local(args: &Args) -> Result<(Vec<f64>, Vec<usize>), String> {
    let handle = RendezvousServer::bind("127.0.0.1:0", args.world)
        .map_err(|e| format!("rendezvous bind: {e}"))?
        .with_rejoin_window(ELASTIC_REJOIN_WINDOW)
        .serve()
        .map_err(|e| format!("rendezvous spawn: {e}"))?;
    let addr = handle.addr().to_string();
    let out = std::env::temp_dir().join(format!("spdkfac_node_losses_{}.txt", std::process::id()));
    let out_str = out.to_string_lossy().into_owned();
    let launch = |rank: Option<usize>| -> Result<Child, String> {
        child_command(args, &addr, rank, &out_str)?
            .spawn()
            .map_err(|e| format!("spawn rank {rank:?}: {e}"))
    };

    // (founding rank, or `None` for a replacement joiner; the process)
    let mut children: Vec<(Option<usize>, Child)> = Vec::new();
    for rank in 0..args.world {
        children.push((Some(rank), launch(Some(rank))?));
    }
    let mut killed = Vec::new();
    let mut failures = Vec::new();
    while !children.is_empty() {
        std::thread::sleep(Duration::from_millis(30));
        let mut i = 0;
        while i < children.len() {
            let status = children[i]
                .1
                .try_wait()
                .map_err(|e| format!("wait {:?}: {e}", children[i].0))?;
            let Some(status) = status else {
                i += 1;
                continue;
            };
            let (founder, _) = children.remove(i);
            let label = founder.map_or("replacement".to_string(), |r| format!("rank {r}"));
            if status.success() {
                continue;
            }
            if !args.elastic || status.code() != Some(KILL_EXIT_CODE) {
                failures.push(format!("{label} exited with {status}"));
                continue;
            }
            killed.extend(founder);
            let target = handle.status().epoch + 1;
            eprintln!(
                "elastic: {label} was hard-killed (exit {KILL_EXIT_CODE}); waiting for \
                 epoch {target} to commit the shrink"
            );
            let deadline = Instant::now() + ELASTIC_EPOCH_TIMEOUT;
            while handle.status().epoch < target {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "elastic: epoch {target} never committed after the kill"
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let st = handle.status();
            eprintln!(
                "elastic: epoch {} committed at world {}; spawning a replacement joiner",
                st.epoch, st.world
            );
            children.push((None, launch(None)?));
        }
    }
    handle.stop();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let losses = read_losses(&out_str)?;
    let _ = std::fs::remove_file(&out);
    Ok((losses, killed))
}

/// Parent-side validation of the merged artifacts: both JSON files parse,
/// the critical-path report carries the expected schema and every rank,
/// and the coverage gate holds here too (belt and braces — the merge
/// already enforced it).
fn check_artifacts(dir: &str, world: usize) -> Result<(), String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(format!("{dir}/{name}"))
            .map_err(|e| format!("trace artifact {dir}/{name}: {e}"))
    };
    let trace = read("merged_trace.json")?;
    parse_json(&trace).map_err(|e| format!("merged_trace.json is not valid JSON: {e}"))?;

    let crit = read("critical_path.json")?;
    let crit = parse_json(&crit).map_err(|e| format!("critical_path.json: {e}"))?;
    let JsonValue::Object(fields) = &crit else {
        return Err("critical_path.json: not an object".into());
    };
    let get = |k: &str| -> Result<&JsonValue, String> {
        fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("critical_path.json: missing {k:?}"))
    };
    match get("schema")? {
        JsonValue::String(s) if s == "spdkfac-critical-path-v1" => {}
        other => return Err(format!("critical_path.json: bad schema {other:?}")),
    }
    let (JsonValue::Number(wall), JsonValue::Number(path)) = (get("wall_s")?, get("path_s")?)
    else {
        return Err("critical_path.json: wall_s/path_s not numbers".into());
    };
    if *wall <= 0.0 || path / wall < COVERAGE_MIN {
        return Err(format!(
            "critical_path.json: coverage {:.1}% below {:.0}%",
            100.0 * path / wall.max(f64::MIN_POSITIVE),
            100.0 * COVERAGE_MIN
        ));
    }
    let JsonValue::Array(ranks) = get("ranks")? else {
        return Err("critical_path.json: ranks not an array".into());
    };
    if ranks.len() != world {
        return Err(format!(
            "critical_path.json: {} rank attributions, expected {world}",
            ranks.len()
        ));
    }
    println!(
        "trace artifacts OK: merged trace + critical path cover all {world} ranks \
         (coverage {:.1}%)",
        100.0 * path / wall
    );
    Ok(())
}

/// Elastic parent, after a kill: the rank-0 timeline shrank and regrew
/// around it, the rank-0 trace spans the epochs, and every surviving
/// founder's comm thread left a post-mortem dump with spans in it.
fn check_resize(dir: &str, world: usize, killed: &[usize]) -> Result<(), String> {
    let timeline = read_timeline(dir)?;
    println!("membership timeline (rank 0):");
    println!("{:>6} {:>6} {:>10}", "epoch", "world", "from_iter");
    for s in &timeline {
        println!("{:>6} {:>6} {:>10}", s.epoch, s.world, s.from_iter);
    }
    if killed.is_empty() {
        return Ok(());
    }
    for rank in (0..world).filter(|r| !killed.contains(r)) {
        let path = format!("{dir}/postmortem.rank{rank}.json");
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("survivor dump {path}: {e}"))?;
        let doc = parse_json(&body).map_err(|e| format!("{path}: {e}"))?;
        match doc.get("spans") {
            Some(JsonValue::Array(spans)) if !spans.is_empty() => {}
            _ => return Err(format!("{path}: the dump carries no span window")),
        }
    }
    let killed = killed.len();
    let worlds: Vec<usize> = timeline.iter().map(|s| s.world).collect();
    let expected: Vec<usize> = std::iter::once(world)
        .chain((0..killed).flat_map(|_| [world - 1, world]))
        .collect();
    if worlds != expected {
        return Err(format!(
            "membership worlds {worlds:?} after {killed} kill(s); expected {expected:?} \
             (shrink then regrow around each kill)"
        ));
    }
    let trace = std::fs::read_to_string(format!("{dir}/merged_trace.json"))
        .map_err(|e| format!("rank-0 merged trace: {e}"))?;
    parse_json(&trace).map_err(|e| format!("merged_trace.json is not valid JSON: {e}"))?;
    if !trace.contains("handoff-e") {
        return Err(
            "merged trace has no state-handoff span — it does not cover the resized epochs".into(),
        );
    }
    println!(
        "resize OK: world {world} -> {} -> {world} around {killed} kill(s); rank-0 trace \
         covers all {} epochs (state handoffs marked)",
        world - 1,
        timeline.len()
    );
    Ok(())
}

/// The `smoke` gate: the same workload on the in-process backend.
///
/// - Lossless wire: every iteration within [`PARITY_TOL`].
/// - Lossy wire: separate runs may fuse factors differently (measured-time
///   plans, Eq. 15), which moves the codec's rounding points, so the gate
///   is a convergence bound — every iteration within [`LOSSY_LOSS_TOL`] of
///   the in-process **f64** run.
/// - Elastic: a resize re-shards the batch, so mid-run trajectories diverge
///   by design; the contract is the final loss, within [`LOSSY_LOSS_TOL`]
///   of the never-resized run.
fn smoke_gate(args: &Args, losses: &[f64]) -> Result<(), String> {
    let (mut cfg, data) = workload(args.world);
    apply_overrides(&mut cfg, args)?;
    let (what, tol) = match (args.elastic, cfg.wire.is_lossless()) {
        (true, _) => ("never-resized in-process", LOSSY_LOSS_TOL),
        (false, true) => ("in-process", PARITY_TOL),
        (false, false) => {
            cfg = workload(args.world).0;
            ("in-process f64", LOSSY_LOSS_TOL)
        }
    };
    note(&format!("re-running the workload as the {what} baseline"));
    let baseline = TrainSession::builder(cfg)
        .run(&build_model, &data, args.iters(), args.batch)
        .expect("in-process baseline")
        .losses;
    if losses.len() != baseline.len() {
        return Err(format!(
            "{} losses vs {} baseline losses",
            losses.len(),
            baseline.len()
        ));
    }
    let first = if args.elastic {
        losses.len().saturating_sub(1)
    } else {
        0
    };
    let mut worst = 0.0f64;
    for (i, (l, b)) in losses.iter().zip(&baseline).enumerate().skip(first) {
        let d = (l - b).abs();
        worst = worst.max(d);
        // A NaN delta must fail.
        if d.is_nan() || d >= tol {
            return Err(format!(
                "iteration {i}: loss {l:.17e} drifted {d:.3e} from the {what} baseline \
                 {b:.17e} (tolerance {tol:.0e})"
            ));
        }
    }
    println!(
        "smoke OK: {} iteration(s) within {tol:.0e} of the {what} baseline \
         (max |Δloss| = {worst:.3e})",
        losses.len() - first
    );
    Ok(())
}

/// `spawn-local` / `smoke` / `drift-demo`: run the children, then check
/// what the mode promises.
fn parent(args: &Args) -> Result<(), String> {
    let world = args.world;
    header(&format!(
        "spdkfac_node: {world}-process {}SPD-KFAC over TCP loopback",
        if args.elastic { "*elastic* " } else { "" }
    ));
    if let (Some(dir), false) = (&args.trace_dir, args.elastic) {
        // A trace file an earlier run left here would join this run's merge.
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("trace.rank") && name.ends_with(".json") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    let (losses, killed) = spawn_local(args)?;
    if args.elastic {
        let dir = args.trace_dir.as_deref().expect("defaulted by parse_args");
        check_resize(dir, world, &killed)?;
    } else {
        println!("{:>5} {:>22}", "iter", "loss (TCP, P procs)");
        for (i, l) in losses.iter().enumerate() {
            println!("{i:>5} {l:>22.15}");
        }
        if let Some(dir) = &args.trace_dir {
            let docs = read_rank_docs(dir, "trace")?;
            if docs.len() != world {
                return Err(format!(
                    "{}/{world} ranks left a trace file in {dir}",
                    docs.len()
                ));
            }
            merge(dir, &docs)?;
            check_artifacts(dir, world)?;
        }
    }
    match args.mode {
        Mode::Smoke => smoke_gate(args, &losses)?,
        // Rank 0 already asserted swaps + slowdown + recovery and exited
        // nonzero on failure; reaching here means they held.
        Mode::DriftDemo => println!(
            "drift demo OK: straggler injected ({DRIFT_SPEC}), OnDrift re-planned, \
             throughput recovered (see rank-0 stderr and the merged trace)"
        ),
        Mode::SpawnLocal | Mode::Run => {}
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.mode != Mode::Run {
        return match parent(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("FAIL: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.elastic {
        run_elastic_rank(&args)
    } else {
        run_rank(&args)
    };
    match outcome {
        Ok(result) => {
            if let Some(path) = &args.out {
                if let Err(e) = write_losses(path, &result.losses) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            // Non-panic failures (rendezvous errors, a trace file that
            // could not be written) still leave a post-mortem dump.
            let _ = spdkfac_obs::flight::global().dump(&format!("run failed: {e}"));
            ExitCode::FAILURE
        }
    }
}
