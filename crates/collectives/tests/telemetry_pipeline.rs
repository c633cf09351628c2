//! The per-rank trace path end to end: recorders with *deliberately
//! skewed* epochs on a real TCP ring, one trace file per rank, and the
//! offline merge that aligns them from the collectives they recorded —
//! with the invariants the `spdkfac_node` gates rely on (critical-path
//! coverage, causally consistent comm edges, exact collective matching).
//!
//! The "ranks" here are threads of the test binary, but every ring byte
//! moves through real 127.0.0.1 sockets, and every span through the file
//! format a multi-process run writes. Each rank constructs its recorder at
//! a staggered time, so the per-process `Instant` epochs genuinely differ
//! by tens of milliseconds: without rebasing, cross-rank collective edges
//! would be off by ~1000x the tolerance this test checks against.

use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::{Backend, CommGroup, TcpConfig};
use spdkfac_obs::collect::{align, comm_edge_violations};
use spdkfac_obs::flight::{parse_document, FlightRecorder};
use spdkfac_obs::{CausalGraph, CriticalReport, Phase, Recorder, TrackLayout};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Per-rank injected epoch stagger: rank r's recorder is born r * 40 ms
/// late, so its raw timestamps run ~r * 40 ms *behind* rank 0's.
const STAGGER: Duration = Duration::from_millis(40);

/// Iterations of (compute span, collective) each rank performs.
const ITERS: usize = 4;

/// One rank: trains, then writes `dir/trace.rank{rank}.json`.
fn rank_body(rank: usize, world: usize, addr: &str, dir: &str) {
    // The injected skew: a recorder born later has an epoch that reads
    // *smaller* local times for the same instant.
    thread::sleep(STAGGER * rank as u32);
    let rec = Arc::new(Recorder::new(2 * world));

    let mut tcp = TcpConfig::new(addr.to_string()).with_rank(rank);
    tcp.host_rendezvous = false; // hosted by the test
    let comm = CommGroup::builder()
        .world_size(world)
        .backend(Backend::Tcp(tcp))
        .build()
        .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"))
        .into_single();
    assert_eq!(comm.rank(), rank);
    comm.set_recorder(Arc::clone(&rec), world + rank);

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

    // One flight recorder per process in a real run; one per thread here.
    let flight = FlightRecorder::new();
    flight.configure(rank, world, Some(dir));
    flight.set_recorder(rec);
    flight.write_trace().expect("write the trace file");
}

#[test]
fn skewed_ranks_merge_into_a_causally_consistent_trace() {
    let world = 3;
    let dir = std::env::temp_dir().join(format!("spdkfac_trace_pipeline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();
    let addr = RendezvousServer::spawn("127.0.0.1:0", world)
        .expect("bind rendezvous")
        .to_string();
    thread::scope(|s| {
        for rank in 0..world {
            let (addr, dir) = (addr.clone(), dir.clone());
            s.spawn(move || rank_body(rank, world, &addr, &dir));
        }
    });
    let docs: Vec<_> = (0..world)
        .map(|r| {
            let body = std::fs::read_to_string(format!("{dir}/trace.rank{r}.json"))
                .expect("every rank wrote its trace file");
            parse_document(&body).expect("the trace file reads back")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        docs.iter().all(|d| d.dropped == 0),
        "recorder rings overflowed"
    );
    let run = align(&docs);

    // The fitted offsets must recover the injected epoch stagger: rank r's
    // epoch is ~r * 40 ms late, so rebasing must *add* ~r * 40 ms.
    // Scheduler noise on a loaded test box can stretch a sleep by tens of
    // ms, so only the ordering and rough magnitude are asserted.
    assert_eq!(run.reference, 0);
    assert_eq!(run.clocks[0].model.offset, 0.0);
    for r in 1..world {
        let expected = STAGGER.as_secs_f64() * r as f64;
        assert!(
            run.clocks[r].model.offset > 0.6 * expected,
            "rank {r}: offset {:.4}s does not reflect the injected {expected:.3}s stagger",
            run.clocks[r].model.offset
        );
    }

    // Every rank's tracks made it into the merge.
    for track in 0..2 * world {
        assert!(
            run.spans.iter().any(|sp| sp.track == track),
            "track {track} missing from the merged trace"
        );
    }

    // Collective matching is exact after rebasing: every (generation, seq)
    // group carries one comm span per rank.
    let layout = TrackLayout::trainer(world);
    let graph = CausalGraph::build(&run.spans, &layout);
    assert!(graph.num_groups() >= ITERS, "too few collective groups");
    for (key, members) in graph.groups() {
        assert_eq!(
            members.len(),
            world,
            "group {key:?} is missing ranks after the merge"
        );
    }

    // No negative-latency comm edges at a tolerance far below the skew.
    let tol = (2.0 * run.max_uncertainty()).max(1e-4);
    assert!(
        tol < STAGGER.as_secs_f64() / 10.0,
        "clock uncertainty {tol:.4}s is too coarse for the test to mean anything"
    );
    let violations = comm_edge_violations(&run.spans, &layout, tol);
    assert!(
        violations.is_empty(),
        "causal violations after rebasing: {violations:?}"
    );

    // And the merged critical path covers (nearly) the whole wall — the
    // spdkfac_node acceptance gate.
    let report = CriticalReport::from_spans(&run.spans, &layout);
    let coverage = report.path_total() / report.wall();
    assert!(
        coverage >= 0.95,
        "critical-path coverage {:.1}% below 95%",
        100.0 * coverage
    );
}
