//! Harness shared by the integration tests that drive raw collectives:
//! one thread per rank of a fresh group, in process or over 127.0.0.1
//! sockets (the rendezvous hosted by the test, not by rank 0).

use spdkfac::collectives::tcp::RendezvousServer;
use spdkfac::collectives::{Backend, CommGroup, TcpConfig, WirePolicy, WorkerComm};

/// Runs `f(comm)` on a thread per rank of a fresh `world`-rank group and
/// returns the per-rank results. `tcp` adjusts each rank's socket
/// configuration when `over_tcp`.
pub fn spmd<T: Send>(
    world: usize,
    over_tcp: bool,
    policy: WirePolicy,
    tcp: impl Fn(&mut TcpConfig) + Sync,
    f: impl Fn(&WorkerComm) -> T + Sync,
) -> Vec<T> {
    let builder = || CommGroup::builder().world_size(world).wire_policy(policy);
    let mut local = (!over_tcp).then(|| {
        let group = builder().build().expect("local group");
        group.into_endpoints().into_iter()
    });
    let addr = over_tcp.then(|| {
        RendezvousServer::spawn("127.0.0.1:0", world)
            .expect("bind rendezvous")
            .to_string()
    });
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let comm = local.as_mut().map(|eps| eps.next().expect("endpoint"));
                let (addr, tcp, f) = (addr.as_deref(), &tcp, &f);
                s.spawn(move || {
                    let comm = comm.unwrap_or_else(|| {
                        let mut cfg = TcpConfig::new(addr.expect("tcp")).with_rank(rank);
                        cfg.host_rendezvous = false; // the test hosts it
                        tcp(&mut cfg);
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
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}
