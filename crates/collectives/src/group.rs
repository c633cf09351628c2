//! Worker endpoints, group construction, and the Horovod-style asynchronous
//! operation queue.
//!
//! Each rank's [`WorkerComm`] owns a background communication thread that
//! executes collectives in strict submission order over the ring. Submitting
//! returns a [`PendingOp`] handle immediately, so the worker thread can keep
//! computing while the collective runs — exactly the mechanism SPD-KFAC's
//! pipelining (§IV-A) relies on with `hvd.allreduce_async_`.
//!
//! ## Construction
//!
//! Groups are built through [`CommGroup::builder`]:
//!
//! - [`Backend::Local`] yields all `world` endpoints of an in-process group
//!   (threads over channels) — move one into each worker thread.
//! - [`Backend::Tcp`] joins a multi-process group and yields exactly one
//!   endpoint: this process's rank, connected to its ring neighbours over
//!   sockets (see [`crate::tcp`]).
//!
//! The endpoint API is identical on both backends, so the trainers in
//! `spdkfac-core` run unchanged across threads or processes.
//!
//! ## Buffers
//!
//! A collective consumes its buffer and hands it back through its
//! [`PendingOp`]: one flat `Vec<f64>`, or an ordered list of parts
//! (`Vec<Vec<f64>>`, see [`Buffer`]) that the ring reduces as their
//! concatenation — a gradient message travels in its parameters' own
//! storage, each part coming back averaged in place.
//!
//! ## Failure model
//!
//! Collectives return [`OpResult`] — `Ok` with the produced buffer, or a
//! [`CommError`] when the transport failed (TCP timeout, peer hangup). The
//! in-process backend maps to the infallible case: its errors only arise
//! from peer-thread panics. After a transport error the ring is broken;
//! the communication thread *poisons* itself and fails every subsequently
//! queued operation with a `Disconnected` error referencing the original
//! failure, so a stalled peer produces a clean error cascade instead of a
//! deadlock.
//!
//! ## Instrumentation
//!
//! Attach a [`Recorder`] with [`WorkerComm::set_recorder`] and every
//! collective executed by the communication thread is timed into a span on
//! that rank's communication track, tagged with the [`Phase`] the worker
//! declared via [`WorkerComm::set_phase`] at submission time (the phase
//! rides along with the queued request, so a worker can move on to the next
//! phase while earlier ops are still in flight). Per-op-kind latency
//! histograms (`coll/<kind>/secs`) and element counters live in the
//! recorder's metrics registry.

use crate::error::CommError;
use crate::ring::{Collective, Lookahead, OpCodecStats, Queued, RingEndpoint};
use crate::stats::{OpKind, TrafficStats};
use crate::tcp::{self, TcpConfig};
use crate::transport::{channel_ring, Transport};
use crate::wire::{WireFormat, WirePolicy};
use spdkfac_obs::{CollEdge, Phase, Recorder, Span, SpanMeta};
use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Result of a collective on a flat buffer: the produced buffer, or the
/// transport error that broke the ring.
pub type OpResult = Result<Vec<f64>, CommError>;

/// What the comm thread hands back: the buffer's parts.
type PartsResult = Result<Vec<Vec<f64>>, CommError>;

/// What a collective runs over: a flat buffer (`Vec<f64>`, travelling as
/// one part) or an ordered list of parts (`Vec<Vec<f64>>`) whose
/// concatenation the ring reduces or broadcasts. The split into parts is
/// local: ranks may cut the same buffer differently, and the frames and
/// results are those of the flat concatenation.
pub trait Buffer: Sized {
    /// The buffer as the parts the ring runs over.
    fn into_parts(self) -> Vec<Vec<f64>>;
    /// The buffer back from the parts [`Buffer::into_parts`] made.
    fn from_parts(parts: Vec<Vec<f64>>) -> Self;
}

impl Buffer for Vec<f64> {
    fn into_parts(self) -> Vec<Vec<f64>> {
        vec![self]
    }

    fn from_parts(parts: Vec<Vec<f64>>) -> Self {
        let [flat] = <[Vec<f64>; 1]>::try_from(parts).expect("a flat buffer is one part");
        flat
    }
}

impl Buffer for Vec<Vec<f64>> {
    fn into_parts(self) -> Vec<Vec<f64>> {
        self
    }

    fn from_parts(parts: Vec<Vec<f64>>) -> Self {
        parts
    }
}

/// Handle to an in-flight asynchronous collective over a `B`.
///
/// Dropping the handle without calling [`PendingOp::wait`] detaches the
/// operation; it still completes on the communication thread (all ranks must
/// run it for the group to stay in lock-step) — but its transport error, if
/// any, is silently lost, hence the `must_use` (detach explicitly with
/// `drop(..)` or `let _ = ..` when that is really intended).
#[derive(Debug)]
#[must_use = "dropping a PendingOp silently discards the collective's transport error"]
pub struct PendingOp<B = Vec<f64>> {
    reply: Receiver<PartsResult>,
    buffer: PhantomData<fn() -> B>,
}

fn thread_gone() -> CommError {
    CommError::Disconnected("communication thread terminated before op completed".into())
}

impl<B: Buffer> PendingOp<B> {
    /// Blocks until the collective finishes and returns its buffer.
    ///
    /// Transport failures — including a communication thread that died
    /// before completing the operation — surface as `Err`, never as a
    /// panic.
    #[must_use = "a dropped result hides a possible transport failure"]
    pub fn wait(self) -> Result<B, CommError> {
        self.reply
            .recv()
            .unwrap_or_else(|_| Err(thread_gone()))
            .map(B::from_parts)
    }

    /// [`PendingOp::wait`] for callers on the infallible in-process path:
    /// unwraps the output, panicking with the transport error otherwise.
    pub fn wait_expect(self) -> B {
        self.wait()
            .unwrap_or_else(|e| panic!("collective failed: {e}"))
    }

    /// Non-blocking completion check; returns the op's result when ready
    /// (which may itself be a transport error) or the handle to retry.
    #[must_use = "dropping the poll result loses both the handle and any transport error"]
    pub fn try_wait(self) -> Result<Result<B, CommError>, Self> {
        match self.reply.try_recv() {
            Ok(r) => Ok(r.map(B::from_parts)),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => Ok(Err(thread_gone())),
        }
    }
}

/// Cross-rank causal role of a collective, for the span metadata consumed
/// by the causal-graph builder.
fn edge(call: Collective) -> CollEdge {
    match call {
        Collective::Broadcast { root } => CollEdge::FanOut { root },
        Collective::AllReduceSum | Collective::AllReduceAvg => CollEdge::Join,
    }
}

/// One queued collective (the payload of a [`Request::Op`]): the parts of
/// the buffer it consumes and returns, and where the result goes.
#[derive(Debug)]
struct CollOp {
    call: Collective,
    data: Vec<Vec<f64>>,
    reply: Sender<PartsResult>,
}

#[derive(Debug)]
enum Request {
    /// A collective with what was captured at submission: the phase and
    /// plan generation in force, and the wire format the policy gives a
    /// collective of this kind in that phase — a property of the request,
    /// so a frame staged ahead of its collective travels under its own.
    Op {
        op: CollOp,
        phase: Phase,
        generation: u64,
        fmt: WireFormat,
    },
    SetRecorder {
        rec: Arc<Recorder>,
        track: usize,
    },
    Quit,
}

/// One rank's communicator endpoint.
///
/// Owned by exactly one worker thread. All collective methods must be called
/// by every rank of the group in the same order (SPMD contract).
#[derive(Debug)]
pub struct WorkerComm {
    rank: usize,
    world: usize,
    req_tx: Sender<Request>,
    stats: Arc<TrafficStats>,
    policy: WirePolicy,
    comm_phase: AtomicU8,
    plan_generation: AtomicU64,
    comm_thread: Option<JoinHandle<()>>,
}

impl WorkerComm {
    /// This rank's index in `0..world_size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Traffic counters: shared by the whole group on the in-process
    /// backend, per-process (this rank's sends only) on TCP. A comm thread
    /// counts an operation after handing its result over, so the group's
    /// totals are final only once every endpoint has been dropped — keep a
    /// clone of the handle to read them then.
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.stats
    }

    /// Attaches a recorder: every subsequent collective is timed into a
    /// span on `track` (by convention `world + rank`, one comm row per
    /// rank) and into per-op-kind histograms in the recorder's metrics.
    pub fn set_recorder(&self, rec: Arc<Recorder>, track: usize) {
        self.req_tx
            .send(Request::SetRecorder { rec, track })
            .expect("communication thread terminated");
    }

    /// Declares which [`Phase`] subsequently submitted collectives belong
    /// to. The phase is captured per-submission, so in-flight operations
    /// keep the phase they were submitted under.
    pub fn set_phase(&self, phase: Phase) {
        self.comm_phase
            .store(phase.index() as u8, Ordering::Relaxed);
        // Mirror into the flight recorder so a post-mortem dump reports
        // the phase this rank last entered.
        spdkfac_obs::flight::global().set_phase(phase);
    }

    /// The phase currently attached to new submissions.
    pub fn phase(&self) -> Phase {
        Phase::from_index(self.comm_phase.load(Ordering::Relaxed) as usize)
            .unwrap_or(Phase::GradComm)
    }

    /// Declares the plan generation subsequently submitted collectives run
    /// under. The adaptive runtime (`core::runtime`) bumps this at every
    /// re-plan barrier; like the phase, the generation is captured
    /// per-submission so in-flight operations keep the generation they were
    /// submitted under, and the causal analyzer can match the k-th
    /// collective of a generation across ranks even though a re-plan
    /// changed the global submission order.
    pub fn set_generation(&self, generation: u64) {
        self.plan_generation.store(generation, Ordering::Relaxed);
        // Mirror into the flight recorder so a post-mortem dump reports
        // the generation the rank last ran under.
        spdkfac_obs::flight::global().set_generation(generation);
    }

    /// The plan generation currently attached to new submissions.
    pub fn generation(&self) -> u64 {
        self.plan_generation.load(Ordering::Relaxed)
    }

    fn submit<B: Buffer>(&self, call: Collective, data: B) -> PendingOp<B> {
        let (reply, result) = channel();
        let phase = self.phase();
        let data = data.into_parts();
        self.req_tx
            .send(Request::Op {
                fmt: self.policy.format_for(phase, call.kind()),
                op: CollOp { call, data, reply },
                phase,
                generation: self.generation(),
            })
            .expect("communication thread terminated");
        PendingOp {
            reply: result,
            buffer: PhantomData,
        }
    }

    /// Asynchronous averaging all-reduce; consumes the buffer and returns a
    /// handle producing the averaged buffer.
    pub fn allreduce_avg_async<B: Buffer>(&self, data: B) -> PendingOp<B> {
        self.submit(Collective::AllReduceAvg, data)
    }

    /// Asynchronous summing all-reduce.
    pub fn allreduce_sum_async<B: Buffer>(&self, data: B) -> PendingOp<B> {
        self.submit(Collective::AllReduceSum, data)
    }

    /// Asynchronous broadcast from `root`; non-root payloads are replaced by
    /// the root's data (they must still be sized correctly).
    pub fn broadcast_async<B: Buffer>(&self, data: B, root: usize) -> PendingOp<B> {
        self.submit(Collective::Broadcast { root }, data)
    }

    /// Shared completion path of every synchronous wrapper: one span /
    /// stats / metadata code path with the async ops (the wrappers *are*
    /// the async submissions), panicking with rank context on transport
    /// failure — the documented contract of the synchronous surface.
    fn wait_sync(&self, op: PendingOp) -> Vec<f64> {
        op.wait().unwrap_or_else(|e| {
            panic!(
                "rank {}: synchronous collective failed: {e} \
                 (use the *_async variants to handle transport errors)",
                self.rank
            )
        })
    }

    /// Synchronous averaging all-reduce, in place.
    ///
    /// Thin wrapper over [`WorkerComm::allreduce_avg_async`]` + wait`;
    /// panics on transport failure (infallible on the in-process backend).
    pub fn allreduce_avg(&self, buf: &mut [f64]) {
        buf.copy_from_slice(&self.wait_sync(self.allreduce_avg_async(buf.to_vec())));
    }

    /// Synchronous summing all-reduce, in place (thin wrapper over the
    /// async variant; panics on transport failure).
    pub fn allreduce_sum(&self, buf: &mut [f64]) {
        buf.copy_from_slice(&self.wait_sync(self.allreduce_sum_async(buf.to_vec())));
    }

    /// Synchronous broadcast from `root`, in place (thin wrapper over the
    /// async variant; panics on transport failure).
    pub fn broadcast(&self, buf: &mut [f64], root: usize) {
        buf.copy_from_slice(&self.wait_sync(self.broadcast_async(buf.to_vec(), root)));
    }

    /// Blocks until every rank has reached the barrier.
    pub fn barrier(&self) {
        let mut one = [0.0f64];
        self.allreduce_sum(&mut one);
    }
}

impl Drop for WorkerComm {
    fn drop(&mut self) {
        // Ask the communication thread to exit after draining queued ops.
        let _ = self.req_tx.send(Request::Quit);
        if let Some(h) = self.comm_thread.take() {
            let _ = h.join();
        }
    }
}

/// Spawns a communication thread over `transport` and returns the worker
/// endpoint wired to it.
///
/// # Panics
///
/// Panics if `policy` names [`WireFormat::TopK`]: the ring streams f64 /
/// f32 / f16 frames only.
fn spawn_comm(
    rank: usize,
    world: usize,
    transport: Box<dyn Transport>,
    stats: Arc<TrafficStats>,
    policy: WirePolicy,
) -> WorkerComm {
    let formats = [policy.grad, policy.factor, policy.broadcast, policy.control];
    assert!(
        formats.iter().all(|f| f.dense_elem_bytes().is_some()),
        "wire policy {policy:?}: the ring streams f64 / f32 / f16 frames only"
    );
    let ring = RingEndpoint::new(rank, world, transport, Arc::clone(&stats));
    let (req_tx, req_rx) = channel::<Request>();
    let comm_thread = std::thread::Builder::new()
        .name(format!("spdkfac-comm-{rank}"))
        .spawn(move || comm_thread_main(ring, Inbox::new(req_rx)))
        .expect("failed to spawn communication thread");
    WorkerComm {
        rank,
        world,
        req_tx,
        stats,
        policy,
        comm_phase: AtomicU8::new(Phase::GradComm.index() as u8),
        plan_generation: AtomicU64::new(0),
        comm_thread: Some(comm_thread),
    }
}

/// One membership epoch's endpoint of a TCP group: the worker communicator
/// plus the epoch metadata the trainer needs to decide whether (and from
/// whom) to receive a state handoff.
///
/// Produced by [`connect_elastic`]. On a resize trigger the owner drops the
/// endpoint — tearing down the comm thread and its sockets, which is what
/// propagates the failure cascade to any peer still blocked in a collective
/// — and calls [`connect_elastic`] again with
/// [`JoinIntent::Rejoin`](crate::tcp::JoinIntent) to enter the next epoch.
#[derive(Debug)]
pub struct ElasticEndpoint {
    /// This epoch's communicator (rank/world are epoch-local).
    pub comm: WorkerComm,
    /// The membership epoch this endpoint belongs to.
    pub epoch: u64,
    /// The rank broadcasting authoritative training state this epoch;
    /// `None` only on a fresh epoch-0 start.
    pub state_source: Option<usize>,
}

/// Spawns the communication thread of a joined epoch.
fn endpoint(join: tcp::Join, policy: WirePolicy) -> ElasticEndpoint {
    let stats = Arc::new(TrafficStats::new());
    ElasticEndpoint {
        comm: spawn_comm(join.rank, join.world, join.transport, stats, policy),
        epoch: join.epoch,
        state_source: join.state_source,
    }
}

/// Joins (or rejoins) a TCP group through its rendezvous (see
/// [`tcp::join`]) and spawns the epoch's communication thread. The world
/// size is decided by the rendezvous, not the caller.
///
/// Unlike the poison-forever model of a fixed group (DESIGN §2.10), an
/// elastic trainer treats a failed collective as a resize signal: drop the
/// endpoint, rejoin, and resume from broadcast state in the next epoch.
pub fn connect_elastic(
    cfg: &TcpConfig,
    intent: &tcp::JoinIntent,
    policy: WirePolicy,
) -> Result<ElasticEndpoint, CommError> {
    Ok(endpoint(tcp::join(cfg, intent)?, policy))
}

/// [`Backend::Tcp`]: joins as a founder of a fixed `world`-rank group and
/// checks the three things a fixed world promises its caller. One rank
/// needs no sockets at all.
fn join_fixed(cfg: &TcpConfig, world: usize) -> Result<tcp::Join, CommError> {
    if world == 1 {
        return Ok(tcp::Join {
            epoch: 0,
            rank: cfg.rank.unwrap_or(0),
            world,
            state_source: None,
            transport: Box::new(channel_ring(1).remove(0)),
        });
    }
    if cfg.host_rendezvous {
        tcp::RendezvousServer::spawn(&cfg.rendezvous, world)?;
    }
    let join = tcp::join(cfg, &tcp::JoinIntent::Fresh)?;
    let broken = if join.world != world {
        format!(
            "server formed a {}-rank group, expected {world}",
            join.world
        )
    } else if cfg.rank.is_some_and(|claimed| claimed != join.rank) {
        format!("claimed {:?} but was assigned rank {}", cfg.rank, join.rank)
    } else if join.epoch != 0 || join.state_source.is_some() {
        format!(
            "assigned into epoch {} of a running elastic group; a fixed-world member \
             cannot take its state handoff",
            join.epoch
        )
    } else {
        return Ok(join);
    };
    Err(CommError::Rendezvous(broken))
}

/// Which transport a [`CommGroup`] runs over.
#[derive(Debug, Clone)]
pub enum Backend {
    /// In-process: all ranks are threads of this process, connected by
    /// channels. [`CommGroupBuilder::build`] is infallible and yields every
    /// endpoint.
    Local,
    /// Multi-process: this process joins a TCP ring via rendezvous (see
    /// [`crate::tcp`]); `build` performs the network handshake and yields
    /// one endpoint.
    Tcp(TcpConfig),
}

/// Builder for a [`CommGroup`]; see [`CommGroup::builder`].
#[derive(Debug, Clone)]
pub struct CommGroupBuilder {
    world: usize,
    backend: Backend,
    wire_policy: WirePolicy,
}

impl CommGroupBuilder {
    /// Number of ranks in the group (default 1).
    pub fn world_size(mut self, world: usize) -> Self {
        self.world = world;
        self
    }

    /// Transport backend (default [`Backend::Local`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Per-op-kind wire formats (default: bit-exact f64 everywhere). Every
    /// rank of a group must be built with the same policy — formats are
    /// resolved from the submission phase, which the SPMD contract already
    /// keeps identical across ranks.
    pub fn wire_policy(mut self, policy: WirePolicy) -> Self {
        self.wire_policy = policy;
        self
    }

    /// Constructs the group: spawns communication threads (and, for
    /// [`Backend::Tcp`], performs rendezvous and neighbour handshakes).
    ///
    /// Errors only on the TCP backend — connection timeouts, rendezvous
    /// protocol violations. The local backend is infallible.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero.
    pub fn build(self) -> Result<CommGroup, CommError> {
        assert!(self.world > 0, "CommGroup requires at least one rank");
        let world = self.world;
        let policy = self.wire_policy;
        match self.backend {
            Backend::Local => {
                let stats = Arc::new(TrafficStats::new());
                let endpoints = channel_ring(world)
                    .into_iter()
                    .enumerate()
                    .map(|(rank, t)| {
                        spawn_comm(rank, world, Box::new(t), Arc::clone(&stats), policy)
                    })
                    .collect();
                Ok(CommGroup { world, endpoints })
            }
            Backend::Tcp(cfg) => {
                let ep = endpoint(join_fixed(&cfg, world)?, policy);
                Ok(CommGroup {
                    world,
                    endpoints: vec![ep.comm],
                })
            }
        }
    }
}

/// A constructed communicator group: `world` endpoints for
/// [`Backend::Local`], exactly one (this process's rank) for
/// [`Backend::Tcp`].
///
/// See the [crate docs](crate) for the execution model and an example.
#[derive(Debug)]
pub struct CommGroup {
    world: usize,
    endpoints: Vec<WorkerComm>,
}

impl CommGroup {
    /// Starts building a group:
    /// `CommGroup::builder().world_size(n).backend(...).build()`.
    pub fn builder() -> CommGroupBuilder {
        CommGroupBuilder {
            world: 1,
            backend: Backend::Local,
            wire_policy: WirePolicy::default(),
        }
    }

    /// Number of ranks in the group (the global world size — not the
    /// number of endpoints this process holds).
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Consumes the group, yielding the endpoints this process holds in
    /// rank order (all ranks for local, one for TCP) to move into worker
    /// threads.
    pub fn into_endpoints(self) -> Vec<WorkerComm> {
        self.endpoints
    }

    /// Consumes a single-endpoint group (the TCP case), yielding its one
    /// endpoint.
    ///
    /// # Panics
    ///
    /// Panics if this process holds more than one endpoint.
    pub fn into_single(self) -> WorkerComm {
        assert_eq!(
            self.endpoints.len(),
            1,
            "into_single on a group with {} endpoints",
            self.endpoints.len()
        );
        self.endpoints.into_iter().next().expect("one endpoint")
    }
}

/// Telemetry state held by one communication thread once a recorder is
/// attached: cached per-op-kind metric handles plus the span track.
struct CommTelemetry {
    rec: Arc<Recorder>,
    track: usize,
    hists: Vec<Arc<spdkfac_obs::Histogram>>,
    op_counts: Vec<Arc<spdkfac_obs::Counter>>,
    elem_counts: Vec<Arc<spdkfac_obs::Counter>>,
    wire_byte_counts: Vec<Arc<spdkfac_obs::Counter>>,
    codec_secs_hist: Arc<spdkfac_obs::Histogram>,
    max_abs_err_hist: Arc<spdkfac_obs::Histogram>,
    /// Per collective, the seconds of emulated link it booked and the
    /// seconds the link sat drained while it was there to be sent: the
    /// histograms' sums are the running totals, and booked ÷ (booked +
    /// idle) is the link's utilisation. All zeros on an un-paced ring.
    link_booked_hist: Arc<spdkfac_obs::Histogram>,
    link_idle_hist: Arc<spdkfac_obs::Histogram>,
    /// Hops whose first slice was booked before the hop began.
    staged_hops: Arc<spdkfac_obs::Counter>,
}

impl CommTelemetry {
    fn new(rec: Arc<Recorder>, track: usize) -> Self {
        let m = rec.metrics();
        let hists = OpKind::ALL
            .iter()
            .map(|k| m.histogram(&format!("coll/{}/secs", k.name())))
            .collect();
        let op_counts = OpKind::ALL
            .iter()
            .map(|k| m.counter(&format!("coll/{}/ops", k.name())))
            .collect();
        let elem_counts = OpKind::ALL
            .iter()
            .map(|k| m.counter(&format!("coll/{}/elements", k.name())))
            .collect();
        let wire_byte_counts = OpKind::ALL
            .iter()
            .map(|k| m.counter(&format!("coll/{}/wire_bytes", k.name())))
            .collect();
        let codec_secs_hist = m.histogram("wire/codec_secs");
        let max_abs_err_hist = m.histogram("wire/max_abs_err");
        let link_booked_hist = m.histogram("coll/link/booked_seconds");
        let link_idle_hist = m.histogram("coll/link/idle_seconds");
        let staged_hops = m.counter("coll/link/staged_hops");
        CommTelemetry {
            rec,
            track,
            hists,
            op_counts,
            elem_counts,
            wire_byte_counts,
            codec_secs_hist,
            max_abs_err_hist,
            link_booked_hist,
            link_idle_hist,
            staged_hops,
        }
    }

    /// The one record of an executed collective. `seq` is its submission
    /// sequence number: the SPMD contract makes the k-th collective on
    /// every rank's comm thread the same logical op, so stamping it onto
    /// each span lets the causal builder match them across ranks without
    /// any wire protocol.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        kind: OpKind,
        elements: usize,
        edge: CollEdge,
        phase: Phase,
        generation: u64,
        seq: u64,
        start: f64,
        end: f64,
        codec: OpCodecStats,
        lossless: bool,
    ) {
        self.rec.record(Span {
            track: self.track,
            phase,
            label: Cow::Borrowed(kind.name()),
            start,
            end,
            meta: SpanMeta {
                edge: Some(edge),
                seq: Some(seq),
                size: Some(elements),
                generation: Some(generation),
                wire_bytes: Some(codec.wire_bytes),
                codec_secs: Some(codec.codec_secs),
            },
        });
        let i = kind.index();
        self.hists[i].observe(end - start);
        self.op_counts[i].inc();
        self.elem_counts[i].add(elements as u64);
        self.wire_byte_counts[i].add(codec.wire_bytes);
        self.link_booked_hist.observe(codec.link_booked_secs);
        self.link_idle_hist.observe(codec.link_idle_secs);
        self.staged_hops.add(codec.staged_hops);
        // Codec cost and rounding error are only meaningful (and non-zero)
        // for compressed formats; keep the f64 fast path out of the
        // distributions so they describe the codec, not the mix.
        if !lossless {
            self.codec_secs_hist.observe(codec.codec_secs);
            self.max_abs_err_hist.observe(codec.max_abs_err);
        }
    }
}

/// The comm thread's end of the request channel, with a one-request
/// look-ahead: the ring asks for the collective queued behind the running
/// one ([`Lookahead::peek`]) when it is about to release that one's last
/// slice, and stages the queued one's first slice behind it.
struct Inbox {
    requests: Receiver<Request>,
    /// The request after the running collective, once the ring has asked.
    peeked: Option<Request>,
}

impl Inbox {
    fn new(requests: Receiver<Request>) -> Self {
        Inbox {
            requests,
            peeked: None,
        }
    }

    /// The next request and whether the thread had to wait for it; `None`
    /// once every sender is gone.
    fn next(&mut self) -> Option<(Request, bool)> {
        if let Some(req) = self.peeked.take() {
            return Some((req, false));
        }
        let (req, waited) = match self.requests.try_recv() {
            Ok(req) => (req, false),
            Err(TryRecvError::Empty) => (self.requests.recv().ok()?, true),
            Err(TryRecvError::Disconnected) => return None,
        };
        Some((req, waited))
    }
}

impl Lookahead for Inbox {
    fn peek(&mut self) -> Option<Queued<'_>> {
        if self.peeked.is_none() {
            self.peeked = Some(self.requests.try_recv().ok()?);
        }
        match &mut self.peeked {
            Some(Request::Op { op, fmt, .. }) => Some(Queued {
                call: op.call,
                fmt: *fmt,
                data: &mut op.data,
            }),
            _ => None,
        }
    }
}

/// Runs one collective on the ring, returning the submitter's reply
/// channel and the un-sent result. The caller sends the reply *after*
/// recording the op's span — a waiter resumed by the reply may
/// immediately read the recorder (e.g. the trace file written right after
/// a barrier), and the span of the op that woke it must already be there.
fn execute(
    ring: &mut RingEndpoint,
    op: CollOp,
    fmt: WireFormat,
    ahead: &mut dyn Lookahead,
) -> (Sender<PartsResult>, PartsResult) {
    let CollOp {
        call,
        mut data,
        reply,
    } = op;
    let done = match call {
        Collective::AllReduceSum => ring.allreduce_sum(fmt, &mut data, ahead),
        Collective::AllReduceAvg => ring.allreduce_avg(fmt, &mut data, ahead),
        Collective::Broadcast { root } => ring.broadcast(fmt, &mut data, root, ahead),
    };
    (reply, done.map(|()| data))
}

fn comm_thread_main(mut ring: RingEndpoint, mut inbox: Inbox) {
    let mut telemetry: Option<CommTelemetry> = None;
    // Pins the first failure as the post-mortem anchor and dumps.
    let flight = spdkfac_obs::flight::global();
    // First transport failure observed; once set, the ring is broken and
    // every further op fails fast without touching the transport.
    let mut poison: Option<CommError> = None;
    // Collectives executed so far: the sequence number stamped on each
    // span, SPMD-identical because submission order is.
    let mut executed: u64 = 0;
    while let Some((req, waited)) = inbox.next() {
        match req {
            Request::Op {
                op,
                phase,
                generation,
                fmt,
            } => {
                if let Some(first) = &poison {
                    let _ = op.reply.send(Err(CommError::Disconnected(format!(
                        "collective skipped: ring transport failed earlier ({first})"
                    ))));
                    continue;
                }
                if waited {
                    ring.nothing_was_ready();
                }
                let kind = op.call.kind();
                let elements = op.data.iter().map(Vec::len).sum();
                let edge = edge(op.call);
                let seq = executed;
                executed += 1;
                let (reply, out) = match &telemetry {
                    Some(t) => {
                        let start = t.rec.now();
                        let (reply, out) = execute(&mut ring, op, fmt, &mut inbox);
                        let end = t.rec.now();
                        let codec = ring.take_codec();
                        t.record(
                            kind,
                            elements,
                            edge,
                            phase,
                            generation,
                            seq,
                            start,
                            end,
                            codec,
                            fmt.is_lossless(),
                        );
                        (reply, out)
                    }
                    None => {
                        let (reply, out) = execute(&mut ring, op, fmt, &mut inbox);
                        let _ = ring.take_codec();
                        (reply, out)
                    }
                };
                // Stamp the failing collective's identity onto the error:
                // the poisoning log line (and every queued op failed after
                // it) then names the broken edge without a trace.
                let out = out.map_err(|e| {
                    e.annotate(&format!(
                        "rank {} {} seq {seq} gen {generation}",
                        ring.rank,
                        kind.name()
                    ))
                });
                if let Err(e) = &out {
                    eprintln!(
                        "rank {}: collective failed, poisoning comm thread: {e}",
                        ring.rank
                    );
                    flight.note_comm_failure(kind.name(), seq, generation, phase, &e.to_string());
                    // Dump the post-mortem right here: the worker may panic
                    // (wait_sync) or hang on a later barrier, and the
                    // first-wins guard makes a later panic-hook dump a no-op
                    // anyway.
                    let _ = flight.dump(&format!("comm thread poisoned: {e}"));
                    poison = Some(e.clone());
                }
                let _ = reply.send(out);
            }
            Request::SetRecorder { rec, track } => {
                telemetry = Some(CommTelemetry::new(rec, track));
            }
            Request::Quit => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn local_endpoints(world: usize) -> Vec<WorkerComm> {
        policy_endpoints(world, WirePolicy::default())
    }

    /// Runs `f(comm)` on every rank of a fresh `world`-rank group and
    /// collects the per-rank return values in rank order.
    fn run_spmd<T: Send>(world: usize, f: impl Fn(&WorkerComm) -> T + Sync) -> Vec<T> {
        run_spmd_policy(world, WirePolicy::default(), f)
    }

    #[test]
    fn allreduce_sum_small_worlds() {
        for world in [1usize, 2, 3, 4, 7] {
            let results = run_spmd(world, |comm| {
                let mut buf: Vec<f64> = (0..10).map(|i| (comm.rank() * 10 + i) as f64).collect();
                comm.allreduce_sum(&mut buf);
                buf
            });
            let expected: Vec<f64> = (0..10)
                .map(|i| (0..world).map(|r| (r * 10 + i) as f64).sum())
                .collect();
            for r in &results {
                assert_eq!(r, &expected, "world={world}");
            }
        }
    }

    #[test]
    fn allreduce_avg_matches_mean() {
        let results = run_spmd(4, |comm| {
            let mut buf = vec![comm.rank() as f64; 5];
            comm.allreduce_avg(&mut buf);
            buf
        });
        for r in results {
            for v in r {
                assert!((v - 1.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn allreduce_handles_short_and_empty_buffers() {
        for len in [0usize, 1, 2, 3] {
            let results = run_spmd(4, move |comm| {
                let mut buf = vec![1.0 + comm.rank() as f64; len];
                comm.allreduce_sum(&mut buf);
                buf
            });
            for r in results {
                assert_eq!(r.len(), len);
                for v in r {
                    assert!((v - 10.0).abs() < 1e-12); // 1+2+3+4
                }
            }
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..4 {
            let results = run_spmd(4, move |comm| {
                let mut buf = if comm.rank() == root {
                    vec![42.0, 7.0, root as f64]
                } else {
                    vec![0.0; 3]
                };
                comm.broadcast(&mut buf, root);
                buf
            });
            for r in results {
                assert_eq!(r, vec![42.0, 7.0, root as f64], "root={root}");
            }
        }
    }

    #[test]
    fn async_ops_overlap_and_preserve_order() {
        let results = run_spmd(4, |comm| {
            // Queue three collectives back-to-back, then wait out of band.
            let h1 = comm.allreduce_sum_async(vec![1.0; 4]);
            let h2 = comm.allreduce_sum_async(vec![2.0; 4]);
            let h3 = comm.broadcast_async(
                if comm.rank() == 2 {
                    vec![9.0]
                } else {
                    vec![0.0]
                },
                2,
            );
            (h1.wait_expect(), h2.wait_expect(), h3.wait_expect())
        });
        for (a, b, c) in results {
            assert_eq!(a, vec![4.0; 4]);
            assert_eq!(b, vec![8.0; 4]);
            assert_eq!(c, vec![9.0]);
        }
    }

    #[test]
    fn barrier_completes() {
        run_spmd(5, |comm| comm.barrier());
    }

    #[test]
    fn traffic_matches_ring_cost() {
        let world = 4;
        let len = 1000usize;
        let rec = Arc::new(Recorder::new(2 * world));
        let endpoints = local_endpoints(world);
        let stats = Arc::clone(&endpoints[0].stats);
        thread::scope(|s| {
            for comm in &endpoints {
                comm.set_recorder(Arc::clone(&rec), world + comm.rank());
                s.spawn(move || {
                    let mut buf = vec![1.0; len];
                    comm.allreduce_sum(&mut buf);
                });
            }
        });
        drop(endpoints);
        // Ring all-reduce sends 2(P-1) chunks of ~len/P per rank.
        let expected = (2 * (world - 1) * world) as u64 * (len / world) as u64;
        let sent = stats.elements_sent();
        assert!(
            sent >= expected && sent <= expected + (2 * world * world) as u64,
            "sent={sent} expected≈{expected}"
        );
        assert_eq!(stats.ops_executed(), world as u64);
        // Default policy is the f64 pass-through: wire bytes == logical.
        assert_eq!(stats.wire_bytes_sent(), sent * 8);
        // The recorder's per-kind counters attribute all of it to the
        // all-reduce: one op and one buffer per rank, every wire byte.
        let counters = rec.metrics().snapshot().counters;
        assert_eq!(counters["coll/allreduce/ops"], world as u64);
        assert_eq!(counters["coll/allreduce/elements"], (world * len) as u64);
        assert_eq!(counters["coll/allreduce/wire_bytes"], sent * 8);
        assert_eq!(counters["coll/broadcast/ops"], 0);
    }

    fn policy_endpoints(world: usize, policy: WirePolicy) -> Vec<WorkerComm> {
        CommGroup::builder()
            .world_size(world)
            .backend(Backend::Local)
            .wire_policy(policy)
            .build()
            .expect("local build")
            .into_endpoints()
    }

    /// Like [`run_spmd`] but with an explicit wire policy on the group.
    fn run_spmd_policy<T: Send>(
        world: usize,
        policy: WirePolicy,
        f: impl Fn(&WorkerComm) -> T + Sync,
    ) -> Vec<T> {
        let endpoints = policy_endpoints(world, policy);
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        thread::scope(|s| {
            let mut handles = Vec::new();
            for comm in &endpoints {
                let f = &f;
                handles.push(s.spawn(move || f(comm)));
            }
            for (i, h) in handles.into_iter().enumerate() {
                out[i] = Some(h.join().expect("worker panicked"));
            }
        });
        out.into_iter().map(|v| v.unwrap()).collect()
    }

    #[test]
    fn f16_policy_is_rank_identical_and_close_to_f64() {
        let world = 4;
        let len = 33;
        let results = run_spmd_policy(world, WirePolicy::uniform(WireFormat::F16), |comm| {
            comm.set_phase(Phase::GradComm);
            let mut buf: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 0.37 - 3.0) * (comm.rank() as f64 + 1.0))
                .collect();
            comm.allreduce_sum(&mut buf);
            buf
        });
        // SPMD parity: every rank holds the bit-identical result even
        // though the wire was lossy.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        // And the lossy result stays within f16 relative tolerance of the
        // exact sum (1 + 2 + 3 + 4 = 10 x the base vector).
        for (i, v) in results[0].iter().enumerate() {
            let exact = (i as f64 * 0.37 - 3.0) * 10.0;
            let tol = 1e-2 * exact.abs().max(1.0);
            assert!((v - exact).abs() < tol, "i={i} got {v} want {exact}");
        }
    }

    #[test]
    fn f16_policy_halves_wire_bytes_quarter_actually() {
        // f16 packs 2 bytes per element vs 8 logical.
        let world = 2;
        let len = 64;
        let endpoints = policy_endpoints(world, WirePolicy::uniform(WireFormat::F16));
        let stats = Arc::clone(&endpoints[0].stats);
        thread::scope(|s| {
            for comm in &endpoints {
                s.spawn(move || {
                    comm.set_phase(Phase::GradComm);
                    let mut buf = vec![1.0; len];
                    comm.allreduce_sum(&mut buf);
                });
            }
        });
        let sent = stats.elements_sent();
        assert!(sent > 0);
        assert_eq!(stats.wire_bytes_sent(), sent * 2, "f16 is 2 B/element");
        drop(endpoints);
    }

    #[test]
    #[should_panic(expected = "the ring streams f64 / f32 / f16 frames only")]
    fn a_top_k_policy_is_refused() {
        let policy = WirePolicy {
            grad: WireFormat::TopK { ratio: 0.25 },
            ..WirePolicy::default()
        };
        policy_endpoints(2, policy);
    }

    #[test]
    fn control_phase_ops_stay_exact_under_lossy_policy() {
        // Inverse-phase collectives route through the control format (f64
        // pass-through) even when gradients and factors are compressed, so
        // they are bit-identical to a run under the default policy.
        let spmd = |comm: &WorkerComm| {
            comm.set_phase(Phase::InverseComm);
            let mut buf = vec![comm.rank() as f64 + 0.123456789012345; 7];
            comm.allreduce_sum(&mut buf);
            buf
        };
        let lossy = run_spmd_policy(3, WirePolicy::uniform(WireFormat::F16), spmd);
        let exact = run_spmd(3, spmd);
        assert_eq!(lossy, exact, "control ops must be bit-exact");
    }

    #[test]
    fn soak_many_outstanding_async_ops() {
        // Queue a long, mixed sequence of collectives before waiting on any
        // of them; the per-rank FIFO queues must drain in order without
        // deadlock and every result must be correct.
        let results = run_spmd(4, |comm| {
            let mut handles = Vec::new();
            for k in 0..50usize {
                match k % 3 {
                    0 => handles.push((k, comm.allreduce_sum_async(vec![k as f64; 16]))),
                    1 => handles.push((
                        k,
                        comm.broadcast_async(
                            if comm.rank() == k % 4 {
                                vec![k as f64; 8]
                            } else {
                                vec![0.0; 8]
                            },
                            k % 4,
                        ),
                    )),
                    _ => handles.push((k, comm.allreduce_avg_async(vec![comm.rank() as f64; 3]))),
                }
            }
            let mut ok = true;
            for (k, h) in handles {
                let out = h.wait_expect();
                match k % 3 {
                    0 => ok &= out == vec![4.0 * k as f64; 16],
                    1 => ok &= out == vec![k as f64; 8],
                    _ => ok &= out == vec![1.5; 3],
                }
            }
            ok
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn try_wait_eventually_succeeds() {
        let results = run_spmd(2, |comm| {
            let mut h = comm.allreduce_sum_async(vec![3.0; 2]);
            loop {
                match h.try_wait() {
                    Ok(r) => break r.expect("transport error"),
                    Err(again) => {
                        h = again;
                        std::thread::yield_now();
                    }
                }
            }
        });
        for r in results {
            assert_eq!(r, vec![6.0; 2]);
        }
    }

    #[test]
    fn builder_constructs_and_reports_world() {
        let g = CommGroup::builder().world_size(3).build().expect("local");
        assert_eq!(g.world_size(), 3);
        let eps = g.into_endpoints();
        assert_eq!(eps.len(), 3);
        for (i, e) in eps.iter().enumerate() {
            assert_eq!(e.rank(), i);
            assert_eq!(e.world_size(), 3);
        }
    }

    #[test]
    fn into_single_yields_the_lone_endpoint() {
        let comm = CommGroup::builder()
            .world_size(1)
            .build()
            .unwrap()
            .into_single();
        assert_eq!(comm.rank(), 0);
        comm.barrier();
    }

    #[test]
    fn poisoned_ring_fails_queued_ops_without_deadlock() {
        // Build a 2-rank group, then kill rank 1's endpoint (dropping it
        // sends Quit; its comm thread exits and its channels close). Rank
        // 0's next collective hits a Disconnected transport error, and every
        // op queued after it fails fast with the poisoned-ring error.
        let mut eps = local_endpoints(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        drop(e1);
        let h1 = e0.allreduce_sum_async(vec![1.0; 8]);
        let h2 = e0.allreduce_sum_async(vec![2.0; 8]);
        let err1 = h1.wait().expect_err("first op must fail");
        assert!(matches!(err1, CommError::Disconnected(_)), "{err1}");
        let err2 = h2.wait().expect_err("queued op must fail fast");
        assert!(
            err2.message().contains("failed earlier"),
            "queued op should reference the original failure: {err2}"
        );
    }

    #[test]
    fn recorder_captures_phase_tagged_op_spans() {
        let world = 2;
        let rec = Arc::new(Recorder::new(2 * world));
        let endpoints = local_endpoints(world);
        for comm in &endpoints {
            comm.set_recorder(Arc::clone(&rec), world + comm.rank());
        }
        thread::scope(|s| {
            for comm in &endpoints {
                let _ = &rec;
                s.spawn(move || {
                    comm.set_phase(Phase::FactorComm);
                    comm.allreduce_avg(&mut vec![1.0; 256]);
                    comm.set_phase(Phase::InverseComm);
                    comm.set_generation(3);
                    comm.broadcast(&mut vec![0.5; 64], 0);
                });
            }
        });
        drop(endpoints);
        let spans = rec.spans();
        // Two ops per rank, recorded on each rank's comm track.
        assert_eq!(spans.len(), 2 * world);
        for r in 0..world {
            let track_spans: Vec<_> = spans.iter().filter(|s| s.track == world + r).collect();
            assert_eq!(track_spans.len(), 2);
            assert_eq!(track_spans[0].phase, Phase::FactorComm);
            assert_eq!(track_spans[0].display_name(), "allreduce");
            assert_eq!(track_spans[1].phase, Phase::InverseComm);
            assert_eq!(track_spans[1].display_name(), "broadcast");
            // Causal metadata: the k-th op on every rank carries seq == k,
            // the op's edge kind, and the wire element count.
            assert_eq!(track_spans[0].meta.seq, Some(0));
            assert_eq!(track_spans[0].meta.edge, Some(CollEdge::Join));
            assert_eq!(track_spans[0].meta.size, Some(256));
            assert_eq!(track_spans[0].meta.generation, Some(0));
            // Default f64 pass-through: wire bytes == 8 B x elements this
            // rank put on the wire (2(P-1)/P x 256 = 256 for P = 2).
            assert_eq!(track_spans[0].meta.wire_bytes, Some(256 * 8));
            assert!(track_spans[0].meta.codec_secs.is_some());
            assert_eq!(track_spans[1].meta.seq, Some(1));
            assert_eq!(track_spans[1].meta.edge, Some(CollEdge::FanOut { root: 0 }));
            assert_eq!(track_spans[1].meta.size, Some(64));
            // set_generation is captured per-submission, like the phase.
            assert_eq!(track_spans[1].meta.generation, Some(3));
        }
        let snap = rec.metrics().snapshot();
        assert_eq!(snap.counters["coll/allreduce/ops"], world as u64);
        assert_eq!(snap.counters["coll/broadcast/ops"], world as u64);
        assert_eq!(snap.counters["coll/allreduce/elements"], 256 * world as u64);
        assert_eq!(snap.histograms["coll/allreduce/secs"].count, world as u64);
    }

    fn tcp_group(cfg: TcpConfig, world: usize) -> Result<CommGroup, CommError> {
        let backend = Backend::Tcp(cfg);
        CommGroup::builder()
            .world_size(world)
            .backend(backend)
            .build()
    }

    #[test]
    fn world_one_needs_no_sockets() {
        let cfg = TcpConfig::new("127.0.0.1:1"); // never dialled
        let comm = tcp_group(cfg, 1).unwrap().into_single();
        assert_eq!((comm.rank(), comm.world_size()), (0, 1));
        let mut buf = vec![3.0, 4.0];
        comm.allreduce_avg(&mut buf);
        assert_eq!(buf, [3.0, 4.0]);
    }

    #[test]
    fn fixed_world_member_refuses_an_epoch_of_a_running_elastic_group() {
        // A one-rank elastic group is running; a fixed-world launch of two
        // is pointed at its rendezvous by mistake and queues as a joiner.
        let handle = tcp::RendezvousServer::bind("127.0.0.1:0", 1)
            .unwrap()
            .serve()
            .unwrap();
        let cfg = TcpConfig::new(handle.addr().to_string());
        let founder = tcp::join(&cfg, &tcp::JoinIntent::Fresh).unwrap();
        assert_eq!((founder.epoch, founder.world), (0, 1));
        let stray = {
            let cfg = cfg.clone();
            thread::spawn(move || tcp_group(cfg, 2))
        };
        while tcp::elastic_poll(&cfg).unwrap().pending == 0 {
            thread::sleep(std::time::Duration::from_millis(1));
        }
        // The founder absorbs it: epoch 1 has the world the stray asked
        // for, but state it cannot take.
        let rejoin = tcp::JoinIntent::Rejoin {
            epoch: 0,
            old_rank: 0,
        };
        let grown = tcp::join(&cfg, &rejoin).unwrap();
        assert_eq!((grown.epoch, grown.world), (1, 2));
        match stray.join().unwrap() {
            Err(CommError::Rendezvous(msg)) => {
                assert!(msg.contains("running elastic group"), "{msg}")
            }
            other => panic!("expected a Rendezvous error, got {other:?}"),
        }
        handle.stop();
    }
}
