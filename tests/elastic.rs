//! Cross-crate integration of the elastic runtime: a 4-rank SPD-KFAC run
//! loses a rank mid-training, shrinks to world 3 at the next barrier with
//! a state handoff, absorbs a fresh replacement back to world 4, and still
//! converges to the same loss (within 5e-2) as a never-resized baseline.
//!
//! The ranks are real TCP ring endpoints over loopback driven through
//! `TrainSession::builder(cfg).elastic(..)` — the exact code path
//! `spdkfac_node run --elastic` executes per process; only the process
//! boundary differs (threads here, so one test binary owns the whole
//! story).

use spdkfac::collectives::tcp::RendezvousServer;
use spdkfac::collectives::TcpConfig;
use spdkfac::core::distributed::{Algorithm, DistributedConfig, RunResult, TrainSession};
use spdkfac::core::elastic::ElasticPolicy;
use spdkfac::nn::data::{gaussian_blobs, Dataset};
use spdkfac::nn::models::deep_mlp;
use std::time::{Duration, Instant};

const WORLD: usize = 4;
/// Long enough that the replacement (which can only be spawned after the
/// shrink epoch commits) registers while the world-3 segment is still
/// running, so the regrow is always observable.
const ITERS: usize = 100;
const BATCH: usize = 4;
/// The victim leaves after this iteration: early enough to leave a long
/// three-epoch tail.
const LEAVE_AFTER: usize = 6;
/// End-state agreement bound vs. the never-resized baseline. Resizes
/// re-shard the batch, so trajectories diverge mid-run by design; the
/// contract is convergence parity, not bit parity.
const PARITY: f64 = 5e-2;

fn workload() -> (DistributedConfig, Dataset) {
    let mut cfg = DistributedConfig::new(WORLD, Algorithm::SpdKfac);
    cfg.kfac.damping = 0.1;
    cfg.kfac.lr = 0.05;
    cfg.kfac.momentum = 0.0;
    (cfg, gaussian_blobs(3, 8, 8 * WORLD, 0.3, 42))
}

#[test]
fn rank_death_shrinks_then_rejoin_regrows_with_loss_parity() {
    let server = RendezvousServer::bind("127.0.0.1:0", WORLD)
        .expect("bind elastic rendezvous")
        .with_rejoin_window(Duration::from_millis(800));
    let addr = server.local_addr().to_string();
    let handle = server.serve().expect("spawn elastic rendezvous");
    let (cfg, data) = workload();
    let build = || deep_mlp(8, 24, 8, 3, 5);

    let member = |claim: Option<usize>, leave_after: Option<usize>| -> RunResult {
        let mut policy = ElasticPolicy::new(TcpConfig::new(addr.clone()));
        policy.tcp.rank = claim;
        policy.leave_after = leave_after;
        TrainSession::builder(cfg.clone())
            .elastic(policy)
            .run(&build, &data, ITERS, BATCH)
            .unwrap_or_else(|e| panic!("elastic member (claim {claim:?}): {e}"))
    };

    let mut rank0: Option<RunResult> = None;
    std::thread::scope(|s| {
        let mut members = Vec::new();
        for rank in 0..WORLD {
            // Rank 2 "dies": it walks away after LEAVE_AFTER iterations and
            // its dropped sockets break the ring for everyone else — peers
            // observe a voluntary leave exactly like a crash.
            let leave = (rank == 2).then_some(LEAVE_AFTER);
            let m = &member;
            members.push((rank, s.spawn(move || m(Some(rank), leave))));
        }
        // The replacement may only appear after the shrink commits: a
        // joiner pending during the rejoin window would be absorbed into
        // the shrink epoch itself and the contraction would be invisible.
        let deadline = Instant::now() + Duration::from_secs(60);
        while handle.status().epoch < 1 {
            assert!(
                Instant::now() < deadline,
                "shrink epoch never committed after the victim left"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let m = &member;
        let replacement = s.spawn(move || m(None, None));
        for (rank, h) in members {
            let r = h.join().expect("member thread panicked");
            if rank == 0 {
                rank0 = Some(r);
            }
        }
        let rep = replacement.join().expect("replacement thread panicked");
        // The joiner entered at the regrown epoch with handed-off state:
        // its loss history includes iterations it never executed.
        assert_eq!(rep.losses.len(), ITERS, "replacement losses incomplete");
        assert!(
            rep.membership
                .first()
                .expect("replacement membership")
                .epoch
                >= 2,
            "replacement joined before the regrow epoch: {:?}",
            rep.membership
        );
    });
    handle.stop();

    let r0 = rank0.expect("rank 0 result");
    let worlds: Vec<usize> = r0.membership.iter().map(|m| m.world).collect();
    assert_eq!(
        worlds,
        vec![WORLD, WORLD - 1, WORLD],
        "membership must shrink then regrow: {:?}",
        r0.membership
    );
    let epochs: Vec<u64> = r0.membership.iter().map(|m| m.epoch).collect();
    assert_eq!(epochs, vec![0, 1, 2], "epochs must be monotonic");
    assert!(
        r0.membership[1].from_iter >= 1 && r0.membership[1].from_iter <= LEAVE_AFTER + 1,
        "shrink resumed at an impossible iteration: {:?}",
        r0.membership
    );
    assert_eq!(
        r0.losses.len(),
        ITERS,
        "resizes must not drop or duplicate iterations"
    );

    // Convergence parity against a fixed-membership world-4 baseline.
    let baseline = TrainSession::builder(cfg.clone())
        .run(&build, &data, ITERS, BATCH)
        .expect("fixed-membership baseline");
    // Before the first resize every iteration ran at world 4 on identical
    // state: losses agree to fp-reordering noise.
    for i in 0..r0.membership[1].from_iter {
        assert!(
            (r0.losses[i] - baseline.losses[i]).abs() < 1e-9,
            "pre-resize iteration {i}: elastic {} vs baseline {}",
            r0.losses[i],
            baseline.losses[i]
        );
    }
    let last = *r0.losses.last().expect("elastic losses");
    let base = *baseline.losses.last().expect("baseline losses");
    assert!(
        (last - base).abs() < PARITY,
        "final elastic loss {last} drifted from never-resized baseline {base}"
    );
}
