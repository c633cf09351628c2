//! Telemetry pipeline integration: the full cross-rank trace path over
//! real sockets — per-rank recorders with *deliberately skewed* epochs,
//! clock sync against rank 0, span streaming to the collector, rebasing
//! onto the collector clock, and the merged-trace invariants the
//! `spdkfac_node` gates rely on (critical-path coverage, causally
//! consistent comm edges, exact collective matching).
//!
//! The "ranks" here are threads of the test binary, but every byte — ring
//! collectives *and* telemetry — moves through real 127.0.0.1 sockets with
//! the exact framing a multi-process run uses. Each rank constructs its
//! recorder at a staggered time, so the per-process `Instant` epochs
//! genuinely differ by tens of milliseconds: without the NTP-style
//! rebasing, cross-rank collective edges would be off by ~1000x the
//! tolerance this test checks against.

use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::telemetry::{SpanStreamer, TelemetryServer};
use spdkfac_collectives::{Backend, CommGroup, TcpConfig};
use spdkfac_obs::collect::{comm_edge_violations, ClockModel};
use spdkfac_obs::{CausalGraph, CriticalReport, Phase, Recorder, TrackLayout};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Per-rank injected epoch stagger: rank r's recorder is born r * 40 ms
/// late, so its raw timestamps run ~r * 40 ms *behind* rank 0's.
const STAGGER: Duration = Duration::from_millis(40);

/// Iterations of (compute span, collective) each rank performs.
const ITERS: usize = 4;

/// What rank 0 extracts from the collector after the run.
struct MergedRun {
    merged: Vec<spdkfac_obs::Span>,
    offsets: Vec<f64>,
    max_uncertainty: f64,
    remote_dropped: u64,
}

fn rank_body(rank: usize, world: usize, addr: &str) -> Option<MergedRun> {
    // The injected skew: a recorder born later has an epoch that reads
    // *smaller* local times for the same instant.
    thread::sleep(STAGGER * rank as u32);
    let rec = Arc::new(Recorder::new(2 * world));

    let mut tcp = TcpConfig::new(addr.to_string()).with_rank(rank);
    tcp.host_rendezvous = false; // hosted by the test
    let mut server = None;
    if rank == 0 {
        let srv =
            TelemetryServer::spawn("127.0.0.1", world, Arc::clone(&rec)).expect("bind collector");
        tcp.aux_addr = Some(srv.local_addr().to_string());
        server = Some(srv);
    }
    let group = CommGroup::builder()
        .world_size(world)
        .backend(Backend::Tcp(tcp))
        .build()
        .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"));
    let aux = group.aux_addrs().to_vec();
    let comm = group.into_single();
    assert_eq!(comm.rank(), rank);
    comm.set_recorder(Arc::clone(&rec), world + rank);

    let mut streamer = None;
    if rank != 0 {
        let collector = aux.first().cloned().expect("aux table");
        assert!(!collector.is_empty(), "rank 0 advertised no collector");
        streamer = Some(
            SpanStreamer::spawn(&collector, rank, world, Arc::clone(&rec))
                .expect("connect collector"),
        );
    }

    for _ in 0..ITERS {
        {
            let _g = rec.span(rank, Phase::FfBp);
            thread::sleep(Duration::from_millis(2));
        }
        let mut buf = vec![(rank + 1) as f64; 64];
        comm.allreduce_sum(&mut buf);
        let mut b = vec![rank as f64; 16];
        comm.broadcast(&mut b, 0);
    }
    comm.barrier();

    if let Some(s) = streamer {
        s.finish().expect("final telemetry flush");
        return None;
    }

    // Rank 0: ingest its own recorder directly (its clock *is* the
    // collector clock), wait for the remote Byes, and read the merge out.
    let server = server.expect("rank 0 owns the collector");
    let state = server.state();
    {
        let mut st = state.lock().expect("collector state");
        st.hello(0);
        let spans = rec.spans();
        let now = rec.now();
        st.ingest(0, ClockModel::identity(), rec.dropped(), spans, now);
        st.bye(0);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if state.lock().expect("collector state").all_done() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let st = state.lock().expect("collector state");
    assert!(st.all_done(), "not every rank delivered its final flush");
    let run = MergedRun {
        merged: st.merged_spans(),
        offsets: (0..world).map(|r| st.clock_model(r).offset).collect(),
        max_uncertainty: st.max_uncertainty(),
        remote_dropped: st.remote_dropped(),
    };
    drop(st);
    server.shutdown();
    Some(run)
}

#[test]
fn skewed_ranks_merge_into_a_causally_consistent_trace() {
    let world = 3;
    let addr = RendezvousServer::spawn("127.0.0.1:0", world)
        .expect("bind rendezvous")
        .to_string();
    let mut merged_run = None;
    thread::scope(|s| {
        let mut handles = Vec::new();
        for rank in 0..world {
            let addr = addr.clone();
            handles.push(s.spawn(move || rank_body(rank, world, &addr)));
        }
        for h in handles {
            if let Some(run) = h.join().expect("rank thread panicked") {
                merged_run = Some(run);
            }
        }
    });
    let run = merged_run.expect("rank 0 produced the merge");
    assert_eq!(run.remote_dropped, 0, "recorder rings overflowed");

    // The estimated offsets must recover the injected epoch stagger: rank
    // r's epoch is ~r * 40 ms late, so rebasing must *add* ~r * 40 ms.
    // Scheduler noise on a loaded test box can stretch a sleep by tens of
    // ms, so only the ordering and rough magnitude are asserted.
    assert_eq!(run.offsets[0], 0.0);
    for r in 1..world {
        let expected = STAGGER.as_secs_f64() * r as f64;
        assert!(
            run.offsets[r] > 0.6 * expected,
            "rank {r}: offset {:.4}s does not reflect the injected {expected:.3}s stagger",
            run.offsets[r]
        );
    }

    // Every rank's tracks made it into the merge.
    for track in 0..2 * world {
        assert!(
            run.merged.iter().any(|sp| sp.track == track),
            "track {track} missing from the merged trace"
        );
    }

    // Collective matching is exact after rebasing: every (generation, seq)
    // group carries one comm span per rank.
    let layout = TrackLayout::trainer(world);
    let graph = CausalGraph::build(&run.merged, &layout);
    assert!(graph.num_groups() >= ITERS, "too few collective groups");
    for (key, members) in graph.groups() {
        assert_eq!(
            members.len(),
            world,
            "group {key:?} is missing ranks after the merge"
        );
    }

    // No negative-latency comm edges at a tolerance far below the skew.
    let tol = (2.0 * run.max_uncertainty).max(1e-4);
    assert!(
        tol < STAGGER.as_secs_f64() / 10.0,
        "clock uncertainty {tol:.4}s is too coarse for the test to mean anything"
    );
    let violations = comm_edge_violations(&run.merged, &layout, tol);
    assert!(
        violations.is_empty(),
        "causal violations after rebasing: {violations:?}"
    );

    // And the merged critical path covers (nearly) the whole wall — the
    // spdkfac_node acceptance gate.
    let report = CriticalReport::from_spans(&run.merged, &layout);
    let coverage = report.path_total() / report.wall();
    assert!(
        coverage >= 0.95,
        "critical-path coverage {:.1}% below 95%",
        100.0 * coverage
    );
}
