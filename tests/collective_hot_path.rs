//! Three properties of the collective hot path that need a process to
//! themselves — a counting global allocator and the `SPDKFAC_PACE_GBPS`
//! environment variable — hence this binary:
//!
//! - **Allocation gate.** Steady-state collectives over 2-rank TCP, queued
//!   behind one another, perform no heap allocation of 4 KiB or more,
//!   process-wide: every chunk, frame and codec buffer is reused.
//! - **Pacer faithfulness.** Under an emulated link rate, no rank finishes
//!   a collective — or a queue of them — before the serialised link would
//!   have carried its bytes (a one-sided bound: a slow host only makes it
//!   easier), on TCP and on the in-process backend; and the rate is read
//!   per group, not latched.
//! - **The link stays booked.** With a collective queued behind the running
//!   one, every hop after the first has its first slice booked before the
//!   hop begins — counted, not timed — whether the buffers are flat or
//!   lists of parts.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use common::spmd;
use counting_alloc::{CountingAlloc, ARMED, BIG, BIG_ALLOCS};
use spdkfac::collectives::{Buffer, PendingOp, WirePolicy, WorkerComm, PACE_ENV};
use spdkfac::obs::{Phase, Recorder};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The tests share the allocator counters and the environment.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_collectives_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var(PACE_ENV);
    const WARMUP: usize = 3;
    const ROUNDS: usize = 50;
    // Gradient all-reduces travel as f16, factor all-reduces, broadcasts
    // and the control message as f64: both codecs are on the path, and each
    // collective's first slice is staged by the one queued before it. The
    // gradient message is a 256 x 257 weight's and a bias's storage, as
    // the trainer lends it: a list of parts between two flat buffers.
    let policy = WirePolicy::parse("grad=f16").expect("policy");
    let sync = Barrier::new(2);
    spmd(
        2,
        true,
        policy,
        |_| {},
        |comm| {
            let mut factor: Vec<f64> = (0..66_049).map(|i| (i % 251) as f64 * 0.01 - 1.0).collect();
            let mut grad = vec![factor[..256 * 257].to_vec(), factor[256 * 257..].to_vec()];
            let mut inverse = vec![0.5; 33_025];
            let mut loss = vec![0.25];
            let mut round = |comm: &WorkerComm| {
                fn wait<B: Buffer>(comm: &WorkerComm, op: PendingOp<B>) -> B {
                    op.wait()
                        .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()))
                }
                // Re-submit the returned buffers, as the trainer does, and
                // queue the whole round before waiting on any of it.
                comm.set_phase(Phase::Update);
                let loss_op = comm.allreduce_avg_async(std::mem::take(&mut loss));
                comm.set_phase(Phase::FactorComm);
                let factor_op = comm.allreduce_avg_async(std::mem::take(&mut factor));
                comm.set_phase(Phase::GradComm);
                let grad_op = comm.allreduce_avg_async(std::mem::take(&mut grad));
                comm.set_phase(Phase::InverseComm);
                let inverse_op = comm.broadcast_async(std::mem::take(&mut inverse), 0);
                loss = wait(comm, loss_op);
                factor = wait(comm, factor_op);
                grad = wait(comm, grad_op);
                inverse = wait(comm, inverse_op);
            };
            for _ in 0..WARMUP {
                round(comm);
            }
            sync.wait();
            if comm.rank() == 0 {
                BIG_ALLOCS.store(0, Ordering::SeqCst);
                ARMED.store(true, Ordering::SeqCst);
            }
            sync.wait();
            for _ in 0..ROUNDS {
                round(comm);
            }
            sync.wait();
            if comm.rank() == 0 {
                ARMED.store(false, Ordering::SeqCst);
            }
            assert_eq!(grad.iter().map(Vec::len).collect::<Vec<_>>(), [65_792, 257]);
            assert_eq!(inverse.len(), 33_025);
        },
    );
    assert_eq!(
        BIG_ALLOCS.load(Ordering::SeqCst),
        0,
        "heap allocations of >= {BIG} bytes during {ROUNDS} steady-state rounds"
    );
}

/// One paced op on every rank: returns, per rank, the time from before the
/// ranks were released to the op's completion.
fn timed(world: usize, over_tcp: bool, op: impl Fn(&WorkerComm) + Sync) -> Vec<Duration> {
    let gate = Barrier::new(world);
    spmd(
        world,
        over_tcp,
        WirePolicy::default(),
        |_| {},
        |comm| {
            // Connection set-up and the first frames' buffer growth are not
            // what is timed.
            comm.barrier();
            // Read the clock *before* the gate: no rank can hand a byte to its
            // link before every rank has read its start time, so the elapsed
            // time can only over-state the op — the bound stays one-sided.
            let t0 = Instant::now();
            gate.wait();
            op(comm);
            t0.elapsed()
        },
    )
}

#[test]
fn pacer_never_delivers_ahead_of_the_emulated_link() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const GBPS: f64 = 0.05;
    let s_per_byte = 8.0 / (GBPS * 1e9);
    const ELEMS: usize = 20_000; // two slices per all-reduce chunk
    let link_time = |bytes: usize| Duration::from_secs_f64(bytes as f64 * s_per_byte);

    std::env::set_var(PACE_ENV, GBPS.to_string());
    for over_tcp in [true, false] {
        // All-reduce on two ranks: every rank's link carries 2(P-1)/P of
        // the buffer — `wire_bytes_sent`, where the counter is per rank.
        let elapsed = timed(2, over_tcp, |comm| {
            let before = comm.stats().wire_bytes_sent();
            let mut buf = vec![comm.rank() as f64 + 0.5; ELEMS];
            comm.allreduce_sum(&mut buf);
            assert!(buf.iter().all(|v| *v == 2.0));
            if over_tcp {
                let sent = comm.stats().wire_bytes_sent() - before;
                assert_eq!(sent as usize, ELEMS * 8);
            }
        });
        let floor = link_time(ELEMS * 8);
        for (rank, e) in elapsed.iter().enumerate() {
            assert!(
                *e >= floor,
                "tcp={over_tcp} all-reduce: rank {rank} finished in {e:?}, link needs {floor:?}"
            );
        }

        // Broadcast down a three-rank chain: nobody — not the root, whose
        // write used to return a frame-time early, and not a receiver —
        // is done before the root's link has carried the buffer once.
        let elapsed = timed(3, over_tcp, |comm| {
            let mut buf = vec![if comm.rank() == 1 { 7.0 } else { 0.0 }; ELEMS];
            comm.broadcast(&mut buf, 1);
            assert!(buf.iter().all(|v| *v == 7.0));
        });
        for (rank, e) in elapsed.iter().enumerate() {
            assert!(
                *e >= floor,
                "tcp={over_tcp} broadcast: rank {rank} finished in {e:?}, link needs {floor:?}"
            );
        }
    }

    // The rate is read when a group is built: one built after the variable
    // is gone books no link time at all.
    std::env::remove_var(PACE_ENV);
    for over_tcp in [true, false] {
        let rec = Arc::new(Recorder::new(4));
        spmd(
            2,
            over_tcp,
            WirePolicy::default(),
            |_| {},
            |comm| {
                comm.set_recorder(Arc::clone(&rec), 2 + comm.rank());
                let mut buf = vec![1.0; ELEMS];
                comm.allreduce_sum(&mut buf);
            },
        );
        let booked = &rec.metrics().snapshot().histograms["coll/link/booked_seconds"];
        assert_eq!(booked.count, 2, "tcp={over_tcp}: one entry per rank");
        assert_eq!(
            booked.sum, 0.0,
            "tcp={over_tcp}: an un-paced group booked link time"
        );
    }
}

#[test]
fn pacer_holds_a_queue_of_collectives_to_the_link_rate() {
    // The queued extension of the bound above: with every collective's
    // first slice booked while the one before it is still on the link, the
    // bookings must still chain — no rank is done before the link has
    // carried the bytes of the whole queue.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const GBPS: f64 = 0.05;
    let s_per_byte = 8.0 / (GBPS * 1e9);
    // One slice, two slices and three slices per all-reduce chunk.
    const QUEUE: [usize; 4] = [20_000, 1_500, 40_000, 9_000];

    std::env::set_var(PACE_ENV, GBPS.to_string());
    for over_tcp in [true, false] {
        let elapsed = timed(2, over_tcp, |comm| {
            let pending: Vec<_> = QUEUE
                .iter()
                .map(|&elems| comm.allreduce_sum_async(vec![comm.rank() as f64 + 0.5; elems]))
                .collect();
            for (op, &elems) in pending.into_iter().zip(&QUEUE) {
                let sum = op.wait().expect("all-reduce");
                assert!(sum.len() == elems && sum.iter().all(|v| *v == 2.0));
            }
        });
        // On two ranks every rank's link carries each buffer once.
        let bytes: usize = QUEUE.iter().map(|elems| elems * 8).sum();
        let floor = Duration::from_secs_f64(bytes as f64 * s_per_byte);
        for (rank, e) in elapsed.iter().enumerate() {
            assert!(
                *e >= floor,
                "tcp={over_tcp}: rank {rank} finished the queue in {e:?}, link needs {floor:?}"
            );
        }
    }
    std::env::remove_var(PACE_ENV);
}

#[test]
fn queued_hops_book_their_first_slice_while_the_link_is_busy() {
    // Two all-reduces of two-slice chunks, the second (a list of parts, one
    // of them across the chunk edge) queued behind the first, and a
    // broadcast from rank 0 behind both. A hop's first slice is "staged"
    // when it was encoded and booked before the hop began — that is, before
    // the previous hop released its last slice, while the link was still
    // carrying it. Of the four all-reduce hops a rank runs, all but the
    // very first must be: the all-gather step behind its reduce-scatter
    // step (the chunk it sends is the one that step receives), and the
    // queued collective behind the running one; so must the root's one
    // broadcast hop. The pace only makes sure each collective is queued
    // (microseconds after the first) long before the one ahead of it
    // reaches its last slice (tens of milliseconds in); nothing here is
    // timed.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WORLD: usize = 2;
    const ELEMS: usize = 20_000;
    const BCAST: usize = 3_000;
    std::env::set_var(PACE_ENV, "0.05");
    for over_tcp in [true, false] {
        let rec = Arc::new(Recorder::new(2 * WORLD));
        spmd(
            WORLD,
            over_tcp,
            WirePolicy::default(),
            |_| {},
            |comm| {
                comm.set_recorder(Arc::clone(&rec), WORLD + comm.rank());
                // Returns once this rank's comm thread is past the barrier's
                // last hop: nothing of what follows can be staged by it.
                comm.barrier();
                let first = comm.allreduce_sum_async(vec![1.0; ELEMS]);
                let parts = vec![vec![2.0; 7_000], Vec::new(), vec![2.0; ELEMS - 7_000]];
                let second = comm.allreduce_sum_async(parts);
                let third = comm.broadcast_async(vec![comm.rank() as f64; BCAST], 0);
                assert!(first.wait().expect("first").iter().all(|v| *v == 2.0));
                let second = second.wait().expect("second");
                assert!(second.concat().iter().all(|v| *v == 4.0));
                assert!(third.wait().expect("third").iter().all(|v| *v == 0.0));
            },
        );
        let metrics = rec.metrics().snapshot();
        assert_eq!(
            metrics.counters["coll/link/staged_hops"],
            (3 * WORLD + 1) as u64,
            "tcp={over_tcp}: hops with a first slice booked ahead, of {} after the first",
            3 * WORLD + 1
        );
        // The link's ledger has one entry per collective and rank (the
        // barrier's too: one element from each rank), and booked every byte
        // they sent.
        let booked = &metrics.histograms["coll/link/booked_seconds"];
        assert_eq!(booked.count, (4 * WORLD) as u64);
        let wire_s = (((2 * ELEMS + 1) * WORLD + BCAST) * 8) as f64 * 8.0 / 0.05e9;
        assert!(
            (booked.sum - wire_s).abs() < 1e-6 * wire_s,
            "tcp={over_tcp}: booked {} s for {wire_s} s of wire time",
            booked.sum
        );
    }
    std::env::remove_var(PACE_ENV);
}
