//! # spdkfac-collectives
//!
//! A transport-abstracted substitute for the NCCL/Horovod communication
//! stack the paper runs on: the two collectives its algorithms use — a real
//! **ring** all-reduce (reduce-scatter + all-gather phases) and a pipelined
//! broadcast — with Horovod-style asynchronous operation handles
//! (`hvd.allreduce_async_` → [`WorkerComm::allreduce_avg_async`]).
//!
//! ## Model
//!
//! - A [`CommGroup`] connects `P` ranks in a ring. With [`Backend::Local`]
//!   the ranks are worker *threads* of this process and the builder yields
//!   all `P` [`WorkerComm`] endpoints; with [`Backend::Tcp`] each rank is a
//!   separate OS *process* (joined via rendezvous, see [`tcp`]) and the
//!   builder yields this process's single endpoint. Each endpoint is owned
//!   by one worker (SPMD style, exactly like an MPI rank).
//! - The ring algorithms ([`ring`]) are both built from one streaming
//!   primitive, the *hop* — send at most one frame right, receive at most
//!   one left, bodies travelling in slices of at most 64 KiB through reusable
//!   buffers, the first slice of the next hop or of the next queued
//!   collective staged before the last one of this hop is released —
//!   written against the byte-stream [`Transport`] trait ([`transport`]),
//!   so the exact same algorithm code produces **bit-identical** results
//!   over in-process pipes or sockets.
//! - A wire-format codec ([`wire`]) runs inside the hop, slice by slice:
//!   payloads travel as raw f64, f32 or f16 (F16C/AVX2 where available),
//!   selected per operation kind via [`CommGroupBuilder::wire_policy`]. The
//!   codec also has a top-k body, which the ring does not carry; the
//!   benchmark times it through [`wire::encode`]. All ranks stay
//!   bit-identical under lossy formats (encode-once-at-origin relays).
//! - Each endpoint owns a background **communication thread**. Asynchronous
//!   operations are queued to it and executed strictly in submission order —
//!   the same single-queue serialisation Horovod applies, which is also how
//!   the simulator models the network (DESIGN.md §4).
//! - Collective calls must be made by **all ranks in the same order**
//!   (standard SPMD contract). The trainers in `spdkfac-core` guarantee this
//!   by deriving the order from the deterministic layer traversal.
//! - Transport failures (TCP timeouts, peer hangups) surface as
//!   [`CommError`] through [`PendingOp::wait`]'s [`OpResult`]; the
//!   synchronous wrappers panic instead (they are documented thin wrappers
//!   over `_async(..).wait()`).
//!
//! ## Why a real implementation
//!
//! The paper's headline claim that SPD-KFAC is *numerically identical* to
//! D-KFAC is only testable if the collectives actually move and reduce data.
//! The ring algorithms here are the textbook ones (Baidu-allreduce /
//! NCCL-style): reduce-scatter phase + all-gather phase, `2(P-1)/P · n`
//! elements on the wire per rank, which the traffic accounting tests verify.
//!
//! # Example
//!
//! ```
//! use spdkfac_collectives::{Backend, CommGroup};
//! use std::thread;
//!
//! let endpoints = CommGroup::builder()
//!     .world_size(4)
//!     .backend(Backend::Local)
//!     .build()
//!     .expect("local backend is infallible")
//!     .into_endpoints();
//! thread::scope(|s| {
//!     for comm in endpoints {
//!         s.spawn(move || {
//!             let mut buf = vec![comm.rank() as f64; 8];
//!             comm.allreduce_avg(&mut buf);
//!             // average of ranks 0..4 is 1.5
//!             assert!(buf.iter().all(|&v| (v - 1.5).abs() < 1e-12));
//!         });
//!     }
//! });
//! ```
//!
//! For the multi-process TCP form of the same program, see the
//! `spdkfac_node` launcher and [`tcp::TcpConfig`].

pub mod error;
pub mod group;
pub mod ring;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use group::{
    connect_elastic, Backend, CommGroup, CommGroupBuilder, ElasticEndpoint, OpResult, PendingOp,
    WorkerComm,
};

pub use error::CommError;
pub use ring::{OpCodecStats, PACE_ENV};
pub use stats::{OpKind, TrafficStats};
pub use tcp::{
    elastic_poll, env_token, ElasticStatus, Join, JoinIntent, RendezvousHandle, RendezvousServer,
    TcpConfig, TOKEN_ENV,
};
pub use transport::{DelayInjection, KillInjection, Transport, KILL_EXIT_CODE};
pub use wire::{WireFormat, WirePayload, WirePolicy};

/// The telemetry a group records, end to end: spans each rank records on
/// its own recorder clock, written as that rank's document and put on rank
/// 0's clock by the offline merge, which fits the offset from the
/// collective spans the ring recorded.
#[cfg(test)]
mod telemetry {
    #[cfg(test)]
    mod tests {
        use crate::{Backend, CommGroup};
        use spdkfac_obs::collect::align;
        use spdkfac_obs::flight::{parse_document, FlightRecorder};
        use spdkfac_obs::{Phase, Recorder};
        use std::sync::Arc;
        use std::thread;
        use std::time::Duration;

        #[test]
        fn client_syncs_clock_and_streams_batches() {
            // Rank 0's clock: a recorder whose epoch started measurably
            // earlier than rank 1's.
            let world = 2;
            let recs = {
                let rec0 = Arc::new(Recorder::new(2 * world));
                thread::sleep(Duration::from_millis(30));
                [rec0, Arc::new(Recorder::new(2 * world))]
            };
            let endpoints = CommGroup::builder()
                .world_size(world)
                .backend(Backend::Local)
                .build()
                .expect("local backend is infallible")
                .into_endpoints();
            thread::scope(|s| {
                for (comm, rec) in endpoints.into_iter().zip(&recs) {
                    s.spawn(move || {
                        comm.set_recorder(Arc::clone(rec), world + comm.rank());
                        for _ in 0..16 {
                            let mut buf = vec![comm.rank() as f64; 64];
                            comm.allreduce_sum(&mut buf);
                        }
                        comm.barrier();
                    });
                }
            });
            // The true offset is the epoch gap, measured here as the now()
            // difference at (nearly) the same wall instant.
            let truth = recs[0].now() - recs[1].now();

            // Rank 1 records one more span; the merge must hold it rebased.
            {
                let _g = recs[1].span(1, Phase::FfBp);
                thread::sleep(Duration::from_millis(2));
            }
            let local_start = recs[1]
                .spans()
                .into_iter()
                .find(|s| s.phase == Phase::FfBp)
                .expect("the compute span was recorded")
                .start;
            let docs: Vec<_> = recs
                .iter()
                .enumerate()
                .map(|(rank, rec)| {
                    let flight = FlightRecorder::new();
                    flight.configure(rank, world, None);
                    flight.set_recorder(Arc::clone(rec));
                    parse_document(&flight.render_json("clean exit"))
                        .expect("the rank's document reads back")
                })
                .collect();
            let run = align(&docs);

            assert_eq!(run.reference, 0);
            let model = run.clocks[1].model;
            assert!(run.clocks[1].pairs > 0, "no collective pair matched");
            assert!(
                (model.offset - truth).abs() < 0.01,
                "offset {} vs truth {truth}",
                model.offset
            );
            assert!(model.uncertainty > 0.0 && model.uncertainty < 0.01);

            let merged = run
                .spans
                .iter()
                .find(|s| s.track == 1 && s.phase == Phase::FfBp)
                .expect("rank 1's span reached the merge");
            assert!((merged.start - model.rebase(local_start)).abs() < 1e-12);
        }
    }
}
