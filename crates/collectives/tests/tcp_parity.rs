//! TCP backend integration: loopback parity with the in-process backend at
//! the collectives level, plus the fault modes the transport must surface —
//! connect retry while peers are still starting, and read timeouts when a
//! rank stalls mid-collective.
//!
//! The "processes" here are threads of the test binary, but every byte moves
//! through real 127.0.0.1 sockets with the exact framing, handshakes, and
//! timeout plumbing a multi-process run uses — only the rendezvous is hosted
//! by the test itself (on an ephemeral port) instead of by rank 0.

use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::{Backend, CommError, CommGroup, TcpConfig, WorkerComm};
use std::thread;
use std::time::Duration;

/// Builds a `world`-rank TCP group over 127.0.0.1 and runs `f(comm)` on a
/// thread per rank, collecting per-rank results in rank order.
fn run_tcp_spmd<T: Send + 'static>(
    world: usize,
    cfg_tweak: impl Fn(&mut TcpConfig) + Sync,
    f: impl Fn(&WorkerComm) -> T + Sync,
) -> Vec<T> {
    let addr = RendezvousServer::spawn("127.0.0.1:0", world)
        .expect("bind rendezvous")
        .to_string();
    let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
    thread::scope(|s| {
        let mut handles = Vec::new();
        for rank in 0..world {
            let addr = addr.clone();
            let f = &f;
            let cfg_tweak = &cfg_tweak;
            handles.push(s.spawn(move || {
                let mut tcp = TcpConfig::new(addr).with_rank(rank);
                tcp.host_rendezvous = false; // hosted by the test
                cfg_tweak(&mut tcp);
                let comm = CommGroup::builder()
                    .world_size(world)
                    .backend(Backend::Tcp(tcp))
                    .build()
                    .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"))
                    .into_single();
                assert_eq!(comm.rank(), rank);
                assert_eq!(comm.world_size(), world);
                f(&comm)
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            out[i] = Some(h.join().expect("tcp worker panicked"));
        }
    });
    out.into_iter().map(|v| v.unwrap()).collect()
}

/// The in-process reference: same SPMD closure on the local backend.
fn run_local_spmd<T: Send>(world: usize, f: impl Fn(&WorkerComm) -> T + Sync) -> Vec<T> {
    let endpoints = CommGroup::builder()
        .world_size(world)
        .backend(Backend::Local)
        .build()
        .expect("local backend is infallible")
        .into_endpoints();
    let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
    thread::scope(|s| {
        let mut handles = Vec::new();
        for comm in &endpoints {
            let f = &f;
            handles.push(s.spawn(move || f(comm)));
        }
        for (i, h) in handles.into_iter().enumerate() {
            out[i] = Some(h.join().expect("local worker panicked"));
        }
    });
    out.into_iter().map(|v| v.unwrap()).collect()
}

/// One deterministic round of every collective, sync and queued, returning
/// everything the rank observed so the two backends can be compared for
/// bit equality.
fn exercise_all_ops(comm: &WorkerComm) -> Vec<f64> {
    let rank = comm.rank();
    let world = comm.world_size();
    let mut observed = Vec::new();

    // Sum all-reduce over an awkward length (not divisible by world).
    let mut buf: Vec<f64> = (0..131)
        .map(|i| ((rank + 1) * (i + 3)) as f64 * 0.125)
        .collect();
    comm.allreduce_sum(&mut buf);
    observed.extend_from_slice(&buf);

    // Averaging all-reduce with negative and fractional payloads.
    let mut buf: Vec<f64> = (0..64)
        .map(|i| (i as f64 - 31.5) / (rank + 1) as f64)
        .collect();
    comm.allreduce_avg(&mut buf);
    observed.extend_from_slice(&buf);

    // Broadcast from a non-zero root.
    let root = 2 % world;
    let mut buf = if rank == root {
        (0..43).map(|i| (i as f64 * 0.7).cos()).collect()
    } else {
        vec![0.0; 43]
    };
    comm.broadcast(&mut buf, root);
    observed.extend_from_slice(&buf);

    // Async pipelining across the wire: queue several ops before waiting.
    let h1 = comm.allreduce_sum_async(vec![1.0 / 3.0; 57]);
    let h2 = comm.broadcast_async(vec![rank as f64 * 1.5 - 2.0; 19], world - 1);
    observed.extend_from_slice(&h1.wait_expect());
    observed.extend_from_slice(&h2.wait_expect());

    comm.barrier();
    observed
}

#[test]
fn four_rank_tcp_ring_is_bit_identical_to_local() {
    // The acceptance bar of the transport abstraction: the same hop
    // sequence runs over sockets or channels, so every f64 produced must be
    // *identical to the bit*, not merely close.
    let world = 4;
    let local = run_local_spmd(world, exercise_all_ops);
    let tcp = run_tcp_spmd(world, |_| {}, exercise_all_ops);
    for rank in 0..world {
        assert_eq!(
            local[rank].len(),
            tcp[rank].len(),
            "rank {rank}: result shapes differ"
        );
        for (i, (a, b)) in local[rank].iter().zip(&tcp[rank]).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "rank {rank}, element {i}: local {a:.17e} != tcp {b:.17e}"
            );
        }
    }
}

/// Three queued collectives over buffers of two-slice chunks: flat, or cut
/// into parts — one of them empty, one straddling a chunk edge, and a
/// single-part list.
fn queued_round(comm: &WorkerComm, parted: bool) -> Vec<f64> {
    let (rank, world) = (comm.rank(), comm.world_size());
    let len = 20_011;
    let flat: Vec<f64> = (0..len)
        .map(|i| ((i * 31 + rank * 7) % 97) as f64 / 7.0 - 3.0)
        .collect();
    if !parted {
        let sum = comm.allreduce_sum_async(flat.clone());
        let avg = comm.allreduce_avg_async(flat.clone());
        let bcast = comm.broadcast_async(flat, world - 1);
        return [sum, avg, bcast].map(|op| op.wait_expect()).concat();
    }
    let cuts = [0, 1, 1, 6_666, 6_672 + rank, 15_000, len];
    let split =
        |v: &[f64]| -> Vec<Vec<f64>> { cuts.windows(2).map(|w| v[w[0]..w[1]].to_vec()).collect() };
    let sum = comm.allreduce_sum_async(split(&flat));
    let avg = comm.allreduce_avg_async(vec![flat.clone()]);
    let bcast = comm.broadcast_async(split(&flat), world - 1);
    [sum, avg, bcast]
        .map(|op| op.wait_expect().concat())
        .concat()
}

#[test]
fn parts_over_tcp_are_the_flat_collectives_in_process_to_the_bit() {
    let world = 3;
    let local = run_local_spmd(world, |comm| queued_round(comm, false));
    let tcp = run_tcp_spmd(world, |_| {}, |comm| queued_round(comm, true));
    for rank in 0..world {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(local[rank].len(), 3 * 20_011);
        assert!(bits(&local[rank]) == bits(&tcp[rank]), "rank {rank}");
    }
}

#[test]
fn tcp_traffic_counters_match_ring_cost_per_process() {
    // On TCP each process counts its own rank's sends: one rank of a ring
    // all-reduce sends 2(P-1) chunks of ~n/P elements.
    let world = 4;
    let len = 1000usize;
    let sent = run_tcp_spmd(
        world,
        |_| {},
        move |comm| {
            let mut buf = vec![1.0; len];
            comm.allreduce_sum(&mut buf);
            comm.stats().elements_sent()
        },
    );
    let expected = (2 * (world - 1) * (len / world)) as u64;
    for (rank, s) in sent.into_iter().enumerate() {
        assert!(
            s >= expected && s <= expected + (2 * world) as u64,
            "rank {rank}: sent {s}, expected ≈{expected}"
        );
    }
}

#[test]
fn connect_retry_tolerates_late_rendezvous_and_late_peers() {
    // Peers of a real launch never start simultaneously. Here the
    // rendezvous server comes up ~300 ms after the first ranks start
    // dialling, and the ranks themselves are staggered — connect retry with
    // backoff must absorb both without surfacing an error.
    let world = 3;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener); // free the port for the late server (races are a
                    // re-bind away; an ephemeral port just freed is ours in
                    // practice on loopback)
    let server_addr = addr.clone();
    let server = thread::spawn(move || {
        thread::sleep(Duration::from_millis(300));
        RendezvousServer::spawn(&server_addr, world).expect("late rendezvous bind")
    });
    let mut out = vec![0.0f64; world];
    thread::scope(|s| {
        let mut handles = Vec::new();
        for rank in 0..world {
            let addr = addr.clone();
            handles.push(s.spawn(move || {
                // Stagger worker starts as well.
                thread::sleep(Duration::from_millis(60 * rank as u64));
                let mut tcp = TcpConfig::new(addr).with_rank(rank);
                tcp.host_rendezvous = false;
                let comm = CommGroup::builder()
                    .world_size(world)
                    .backend(Backend::Tcp(tcp))
                    .build()
                    .unwrap_or_else(|e| panic!("rank {rank} gave up retrying: {e}"))
                    .into_single();
                let mut buf = vec![(rank + 1) as f64];
                comm.allreduce_sum(&mut buf);
                buf[0]
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            out[i] = h.join().expect("late-start worker panicked");
        }
    });
    server.join().expect("server thread");
    assert!(
        out.iter().all(|&v| v == 6.0),
        "allreduce after retry: {out:?}"
    );
}

#[test]
fn stalled_peer_surfaces_recv_timeout_not_hang() {
    // Rank 1 joins the ring but never submits its side of the collective;
    // rank 0's receive must trip the configured read timeout and surface
    // CommError::Timeout through the async handle — and once the ring is
    // poisoned, subsequently queued ops fail fast with Disconnected.
    let world = 2;
    let addr = RendezvousServer::spawn("127.0.0.1:0", world)
        .expect("bind rendezvous")
        .to_string();
    let mk = |rank: usize, addr: &str| {
        let mut tcp = TcpConfig::new(addr.to_string()).with_rank(rank);
        tcp.host_rendezvous = false;
        tcp.read_timeout = Some(Duration::from_millis(150));
        CommGroup::builder()
            .world_size(world)
            .backend(Backend::Tcp(tcp))
            .build()
            .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"))
            .into_single()
    };
    thread::scope(|s| {
        let addr1 = addr.clone();
        let stalled = s.spawn(move || {
            let comm = mk(1, &addr1);
            // Stay connected but silent past rank 0's deadline.
            thread::sleep(Duration::from_millis(600));
            drop(comm);
        });
        let comm = mk(0, &addr);
        let h1 = comm.allreduce_sum_async(vec![1.0; 64]);
        let h2 = comm.allreduce_sum_async(vec![2.0; 64]);
        let err = h1.wait().expect_err("stalled peer must time the op out");
        assert!(
            err.is_timeout(),
            "expected Timeout from a silent peer, got: {err}"
        );
        let err2 = h2.wait().expect_err("queued op must fail fast");
        assert!(
            matches!(err2, CommError::Disconnected(_)) && err2.message().contains("failed earlier"),
            "expected poisoned-ring Disconnected, got: {err2}"
        );
        stalled.join().expect("stalled peer thread");
    });
}
