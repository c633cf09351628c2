//! Two properties of the collective hot path that need a process to
//! themselves — a counting global allocator and the `SPDKFAC_PACE_GBPS`
//! environment variable — hence this binary:
//!
//! - **Allocation gate.** Steady-state collectives over 2-rank TCP perform
//!   no heap allocation of 4 KiB or more, process-wide: every chunk, frame
//!   and codec buffer is reused.
//! - **Pacer faithfulness.** Under an emulated link rate, no rank finishes
//!   a collective before the serialised link would have carried its bytes
//!   (a one-sided bound: a slow host only makes it easier), on TCP and on
//!   the in-process backend; and the rate is read per group, not latched.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use common::spmd;
use counting_alloc::{CountingAlloc, ARMED, BIG, BIG_ALLOCS};
use spdkfac::collectives::{WirePolicy, WorkerComm, PACE_ENV};
use spdkfac::obs::Phase;
use std::sync::atomic::Ordering;
use std::sync::{Barrier, Mutex};
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
    // Gradient all-reduces travel as f16, factor all-reduces and
    // broadcasts as f64: both codecs are on the path.
    let policy = WirePolicy::parse("grad=f16").expect("policy");
    let sync = Barrier::new(2);
    spmd(
        2,
        true,
        policy,
        |_| {},
        |comm| {
            let mut grad: Vec<f64> = (0..66_049).map(|i| (i % 251) as f64 * 0.01 - 1.0).collect();
            let mut factor = grad.clone();
            let mut inverse = vec![0.5; 33_025];
            let mut round = |comm: &WorkerComm| {
                let wait = |op: spdkfac::collectives::PendingOp| {
                    op.wait()
                        .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()))
                        .data
                };
                // Re-submit the returned buffers, as the trainer does.
                comm.set_phase(Phase::GradComm);
                grad = wait(comm.allreduce_avg_async(std::mem::take(&mut grad)));
                comm.set_phase(Phase::FactorComm);
                factor = wait(comm.allreduce_avg_async(std::mem::take(&mut factor)));
                comm.set_phase(Phase::InverseComm);
                inverse = wait(comm.broadcast_async(std::mem::take(&mut inverse), 0));
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
            assert_eq!(grad.len(), 66_049);
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
    // is gone runs at loopback speed, orders of magnitude under the floor.
    std::env::remove_var(PACE_ENV);
    for over_tcp in [true, false] {
        let elapsed = timed(2, over_tcp, |comm| {
            let mut buf = vec![1.0; ELEMS];
            comm.allreduce_sum(&mut buf);
        });
        let floor = link_time(ELEMS * 8);
        for e in elapsed {
            assert!(e < floor, "tcp={over_tcp}: un-paced group took {e:?}");
        }
    }
}
