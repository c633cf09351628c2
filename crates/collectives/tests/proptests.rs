//! Property tests: the ring collectives agree with sequential references for
//! arbitrary world sizes, buffer lengths and payloads, and the wire codecs
//! respect their documented error bounds.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use spdkfac_collectives::tcp::RendezvousServer;
use spdkfac_collectives::wire::{decode_ref, encode, sparsify_with_residual};
use spdkfac_collectives::{
    Backend, CommGroup, PendingOp, TcpConfig, WireFormat, WirePolicy, WorkerComm,
};
use spdkfac_obs::Phase;
use std::thread;

fn run_spmd<T: Send>(world: usize, f: impl Fn(&WorkerComm) -> T + Sync) -> Vec<T> {
    run_spmd_wire(world, WirePolicy::default(), f)
}

fn run_spmd_wire<T: Send>(
    world: usize,
    wire: WirePolicy,
    f: impl Fn(&WorkerComm) -> T + Sync,
) -> Vec<T> {
    run_spmd_on(world, false, wire, f)
}

/// Runs `f(comm)` on a thread per rank of a fresh group: in process, or
/// over 127.0.0.1 sockets with the rendezvous hosted here.
fn run_spmd_on<T: Send>(
    world: usize,
    over_tcp: bool,
    wire: WirePolicy,
    f: impl Fn(&WorkerComm) -> T + Sync,
) -> Vec<T> {
    let builder = || CommGroup::builder().world_size(world).wire_policy(wire);
    let mut local = (!over_tcp).then(|| {
        let group = builder().build().expect("local backend is infallible");
        group.into_endpoints().into_iter()
    });
    // A one-rank group dials nobody.
    let addr = (over_tcp && world > 1).then(|| {
        RendezvousServer::spawn("127.0.0.1:0", world)
            .expect("bind rendezvous")
            .to_string()
    });
    thread::scope(|s| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let comm = local.as_mut().map(|eps| eps.next().expect("endpoint"));
                let (addr, f) = (addr.as_deref(), &f);
                s.spawn(move || {
                    let comm = comm.unwrap_or_else(|| {
                        let mut cfg = TcpConfig::new(addr.unwrap_or("127.0.0.1:1")).with_rank(rank);
                        cfg.host_rendezvous = false;
                        builder()
                            .backend(Backend::Tcp(cfg))
                            .build()
                            .unwrap_or_else(|e| panic!("rank {rank} failed to join: {e}"))
                            .into_single()
                    });
                    f(&comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// One collective of a queue: which, under which phase (hence format), of
/// which size.
#[derive(Debug, Clone, Copy)]
struct QueuedOp {
    /// 0/1 all-reduce avg/sum, 2 broadcast.
    kind: usize,
    phase: Phase,
    elems: usize,
    root: usize,
}

/// Wire policies that put a different format on consecutive phases: the
/// control phase stays f64 in all of them.
const MIXED_POLICIES: [&str; 3] = [
    "grad=topk:0.25,factor=f16",
    "grad=f16,factor=f32,broadcast=f16",
    "grad=f32,factor=f64,broadcast=f32",
];

/// Element counts from nothing through one element, a body under the split
/// floor, one of two slices, to chunks of several slices.
const QUEUED_ELEMS: [usize; 7] = [0, 1, 2, 700, 2_100, 9_000, 40_000];

fn queued_op() -> impl Strategy<Value = QueuedOp> {
    (0usize..3, 0usize..3, 0usize..QUEUED_ELEMS.len(), 0usize..5).prop_map(
        |(kind, phase, size, root)| QueuedOp {
            kind,
            phase: [Phase::GradComm, Phase::FactorComm, Phase::Update][phase],
            elems: QUEUED_ELEMS[size],
            root,
        },
    )
}

/// Submits `op` as the `k`-th collective of `comm`'s queue.
fn submit(comm: &WorkerComm, k: usize, op: QueuedOp) -> PendingOp {
    let (rank, world) = (comm.rank(), comm.world_size());
    let root = op.root % world;
    let values = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i % 89) as f64 - 44.0) * 0.37 * (rank + 1) as f64 + k as f64)
            .collect()
    };
    comm.set_phase(op.phase);
    match op.kind {
        0 => comm.allreduce_avg_async(values(op.elems)),
        1 => comm.allreduce_sum_async(values(op.elems)),
        _ => comm.broadcast_async(values(op.elems), root),
    }
}

/// Per rank, per collective: the bits of what it returned. `queued` submits
/// every collective before waiting on the first; otherwise each is waited
/// on before the next is submitted.
fn run_queue(
    world: usize,
    over_tcp: bool,
    policy: WirePolicy,
    ops: &[QueuedOp],
    queued: bool,
) -> Vec<Vec<Vec<u64>>> {
    let bits = |op: PendingOp| -> Vec<u64> {
        let out = op.wait().expect("collective");
        out.iter().map(|v| v.to_bits()).collect()
    };
    run_spmd_on(world, over_tcp, policy, |comm| {
        if queued {
            // Staggered, so that every rank but the last has its whole
            // queue in place while its first collective waits for a peer.
            thread::sleep(std::time::Duration::from_micros(300 * comm.rank() as u64));
            let pending: Vec<PendingOp> = ops
                .iter()
                .enumerate()
                .map(|(k, op)| submit(comm, k, *op))
                .collect();
            pending.into_iter().map(bits).collect()
        } else {
            ops.iter()
                .enumerate()
                .map(|(k, op)| bits(submit(comm, k, *op)))
                .collect()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The look-ahead cannot hand a slice to the wrong frame: a queue of
    /// collectives of mixed kind, format and size, all submitted before the
    /// first is waited on — so every one after the first has its first
    /// slice staged by the one before — returns what the same collectives
    /// return run one at a time.
    #[test]
    fn queued_collectives_equal_the_same_collectives_one_at_a_time(
        world in 1usize..6,
        backend in 0usize..2,
        policy in 0usize..MIXED_POLICIES.len(),
        ops in pvec(queued_op(), 2..7),
    ) {
        let policy = WirePolicy::parse(MIXED_POLICIES[policy]).expect("policy");
        let over_tcp = backend == 1;
        let together = run_queue(world, over_tcp, policy, &ops, true);
        let one_by_one = run_queue(world, over_tcp, policy, &ops, false);
        prop_assert_eq!(&together, &one_by_one);
        // Every rank receives the same.
        for (k, op) in ops.iter().enumerate() {
            for rank in 1..world {
                prop_assert_eq!(&together[rank][k], &together[0][k], "op {} {:?}", k, op);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_sum_matches_reference(
        world in 1usize..6,
        per_rank in pvec(pvec(-100.0f64..100.0, 0..40), 6),
    ) {
        // Truncate every rank's data to a common length.
        let len = per_rank.iter().take(world).map(|v| v.len()).min().unwrap_or(0);
        let inputs: Vec<Vec<f64>> = (0..world).map(|r| per_rank[r][..len].to_vec()).collect();
        let expected: Vec<f64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i]).sum())
            .collect();

        let inputs_ref = &inputs;
        let results = run_spmd(world, move |comm| {
            let mut buf = inputs_ref[comm.rank()].clone();
            comm.allreduce_sum(&mut buf);
            buf
        });
        for r in results {
            prop_assert_eq!(r.len(), expected.len());
            for (a, b) in r.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn broadcast_matches_root_payload(
        world in 1usize..6,
        root_data in pvec(-1e6f64..1e6, 1..30),
        root_choice in 0usize..6,
    ) {
        let root = root_choice % world;
        let root_data_ref = &root_data;
        let results = run_spmd(world, move |comm| {
            let mut buf = if comm.rank() == root {
                root_data_ref.clone()
            } else {
                vec![0.0; root_data_ref.len()]
            };
            comm.broadcast(&mut buf, root);
            buf
        });
        for r in results {
            prop_assert_eq!(&r, root_data_ref);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f64_wire_round_trip_is_bit_exact(
        data in pvec((0u64..u64::MAX).prop_map(f64::from_bits), 0..64),
    ) {
        // The passthrough format must preserve every bit pattern,
        // including NaNs, infinities and signed zeros — it is the
        // correctness baseline everything else is measured against.
        let (payload, stats) = encode(WireFormat::F64, data.clone());
        prop_assert_eq!(payload.wire_bytes(), data.len() * 8);
        prop_assert_eq!(stats.max_abs_err, 0.0);
        let (back, _) = decode_ref(&payload);
        prop_assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(data.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_wire_round_trip_is_within_half_ulp(data in pvec(-1e30f64..1e30, 0..64)) {
        let (payload, _) = encode(WireFormat::F32, data.clone());
        prop_assert_eq!(payload.wire_bytes(), data.len() * 4);
        let (back, _) = decode_ref(&payload);
        for (a, b) in back.iter().zip(data.iter()) {
            // Round-to-nearest f64 -> f32: relative error <= 2^-24.
            prop_assert!((a - b).abs() <= b.abs() * 2f64.powi(-24));
        }
    }

    #[test]
    fn f16_wire_round_trip_is_within_documented_bound(data in pvec(-6e4f64..6e4, 0..64)) {
        let (payload, _) = encode(WireFormat::F16, data.clone());
        prop_assert_eq!(payload.wire_bytes(), data.len() * 2);
        let (back, _) = decode_ref(&payload);
        for (a, b) in back.iter().zip(data.iter()) {
            // f64 -> f32 -> f16 double rounding: relative error <= 2^-11
            // in the normal range plus 2^-25 absolute for subnormals,
            // with a hair of slack for the intermediate f32 step.
            let bound = b.abs() * 1.01 * 2f64.powi(-11) + 2f64.powi(-24);
            prop_assert!(
                (a - b).abs() <= bound,
                "f16({}) -> {} err {} > bound {}", b, a, (a - b).abs(), bound
            );
        }
    }

    #[test]
    fn topk_sparsify_conserves_mass_bit_exactly(
        data in pvec(-1e3f64..1e3, 0..64),
        carried in pvec(-1e-1f64..1e-1, 0..64),
        ratio in 0.05f64..1.0,
    ) {
        // Error feedback invariant: every input coordinate ends up wholly
        // on the wire or wholly in the residual, so sent + carried equals
        // input + prior residual bit-for-bit — nothing is ever lost.
        let mut residual: Vec<f64> = carried.iter().take(data.len()).copied().collect();
        residual.resize(data.len(), 0.0);
        let folded: Vec<f64> = data
            .iter()
            .zip(residual.iter())
            .map(|(d, r)| d + r)
            .collect();
        let mut sent = data.clone();
        let kept = sparsify_with_residual(&mut sent, ratio, &mut residual);
        prop_assert!(kept <= data.len());
        for i in 0..data.len() {
            prop_assert!(sent[i] == 0.0 || residual[i] == 0.0);
            prop_assert_eq!((sent[i] + residual[i]).to_bits(), folded[i].to_bits());
        }
        // The sparse payload then carries each kept value at f32
        // precision and zeros exactly.
        let (payload, _) = encode(WireFormat::TopK { ratio }, sent.clone());
        let (back, _) = decode_ref(&payload);
        for (a, b) in back.iter().zip(sent.iter()) {
            prop_assert_eq!(a.to_bits(), ((*b as f32) as f64).to_bits());
        }
    }

    #[test]
    fn f16_policy_allreduce_stays_within_accumulated_bound(
        world in 1usize..5,
        per_rank in pvec(pvec(-100.0f64..100.0, 0..40), 5),
    ) {
        let len = per_rank.iter().take(world).map(|v| v.len()).min().unwrap_or(0);
        let inputs: Vec<Vec<f64>> = (0..world).map(|r| per_rank[r][..len].to_vec()).collect();
        let expected: Vec<f64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i]).sum())
            .collect();
        // Worst-case magnitude any partial sum can reach per coordinate.
        let abs_sum: Vec<f64> = (0..len)
            .map(|i| inputs.iter().map(|v| v[i].abs()).sum())
            .collect();

        let inputs_ref = &inputs;
        let results = run_spmd_wire(
            world,
            WirePolicy::uniform(WireFormat::F16),
            move |comm| {
                let mut buf = inputs_ref[comm.rank()].clone();
                comm.allreduce_sum(&mut buf);
                buf
            },
        );
        // Every hop of the reduce-scatter re-encodes a partial sum, and
        // the all-gather phase re-encodes once more: <= world + 1 roundings of
        // magnitude <= abs_sum each, 2^-11 relative per rounding.
        let first = &results[0];
        for r in &results {
            for ((a, b), m) in r.iter().zip(expected.iter()).zip(abs_sum.iter()) {
                let bound = (world as f64 + 1.0) * 1.01 * 2f64.powi(-11) * m + 1e-9;
                prop_assert!(
                    (a - b).abs() <= bound,
                    "allreduce f16 err {} > bound {}", (a - b).abs(), bound
                );
            }
            // All ranks must still agree bit-for-bit: lossy encoding
            // happens once per chunk at its origin, never per receiver.
            for (a, f) in r.iter().zip(first.iter()) {
                prop_assert_eq!(a.to_bits(), f.to_bits());
            }
        }
    }
}
