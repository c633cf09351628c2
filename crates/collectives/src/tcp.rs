//! Multi-process TCP ring transport and the rendezvous that forms it.
//!
//! This is the backend that lets the SPMD trainers in `spdkfac-core` run
//! unchanged across OS processes (one rank per process, `spdkfac_node`
//! launcher in `spdkfac-bench`): the ring algorithms see the exact same
//! [`Transport`] contract as the in-process channels, so a TCP run is
//! bit-identical to a thread run.
//!
//! ## Wire framing
//!
//! The socket is a plain byte stream ([`Transport`]); the ring endpoint
//! frames it. Each chunk is one [`FrameHeader`](crate::transport::FrameHeader)
//! (origin, format tag, body length) followed by the encoded body, written
//! in slices: the header leaves in the same vectored write as the first
//! slice (`TCP_NODELAY` set), reads go through a `BufReader` with
//! `read_exact` — partial reads cannot tear a frame — and the receiver
//! checks the header against what the hop must carry before it reads a
//! body byte (see [`crate::ring`]).
//!
//! ## Group formation
//!
//! One protocol forms every group (DESIGN §2.10 has the frame, state and
//! failure tables). A member [`join`]s by dialling the [`RendezvousServer`]
//! — hosted by rank 0 or by a launcher parent — with one little-endian
//! frame on its own connection, and blocks for the reply:
//!
//! | frame | magic | fields after the magic |
//! |---|---|---|
//! | `HELLO` | `SPDKFAC1` | token, `claim: i64` (−1 = any rank), ring listener address |
//! | `REJOIN` | `SPDKFAC3` | token, `epoch: u64`, `old_rank: u64`, ring listener address |
//! | `POLL` | `SPDKFAC4` | token |
//! | `REJECT` | `SPDKFAC5` | reason |
//! | `POLL_REPLY` | `SPDKFAC6` | `epoch: u64`, `world: u32`, `pending: u32` |
//! | `ASSIGNMENT` | `SPDKFAC7` | `epoch: u64`, `rank: u32`, `world: u32`, `state_source: i64` (−1 = none), `world` ring addresses |
//!
//! Strings are `u32` length (≤ 4096) + UTF-8. The token is the shared
//! secret of `SPDKFAC_TOKEN` (both sides empty disables the check).
//!
//! The server holds `HELLO`s until the founding world is complete and
//! assigns **epoch 0** (claims first, free ranks in arrival order).
//! [`RendezvousServer::spawn`] stops there — a fixed world is a group with
//! one epoch. [`RendezvousServer::serve`] keeps going: a `REJOIN` from a
//! member of the current epoch opens the rejoin window, the next epoch
//! forms when every member has reported or the window ends (absentees are
//! dead), survivors keep their order, queued `HELLO`s are appended, and
//! the new rank 0 is the state source. What the server decides lives in
//! the socket-free `membership` module; this file moves the bytes. A
//! connection that sends garbage, a wrong token, half a frame or nothing
//! costs only itself.
//!
//! With the assignment in hand each rank dials its **right** neighbour's
//! listener (retried with back-off — peers may still be starting), writes
//! a 16-byte `(epoch, rank)` handshake, and accepts one connection from
//! its **left** neighbour, validating both fields (the epoch keeps a stale
//! pre-resize dial out of a new epoch's ring). A one-rank epoch makes no
//! sockets (a one-rank [`channel_ring`]).
//!
//! Everything from the first dial to the last handshake byte is bounded by
//! one deadline, [`TcpConfig::handshake_timeout`] after [`join`] was
//! called, so a missing server or peer surfaces as [`CommError::Timeout`]
//! instead of a hang.

mod membership;

use crate::error::CommError;
use crate::transport::{channel_ring, Transport};
pub use membership::{ElasticStatus, MAX_WORLD};
use membership::{Membership, Registration, Reply};
use std::io::{BufReader, BufWriter, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HELLO_MAGIC: u64 = 0x5350_444b_4641_4331; // "SPDKFAC1"
const REJOIN_MAGIC: u64 = 0x5350_444b_4641_4333; // "SPDKFAC3"
const POLL_MAGIC: u64 = 0x5350_444b_4641_4334; // "SPDKFAC4"
const REJECT_MAGIC: u64 = 0x5350_444b_4641_4335; // "SPDKFAC5"
const POLL_REPLY_MAGIC: u64 = 0x5350_444b_4641_4336; // "SPDKFAC6"
const ASSIGNMENT_MAGIC: u64 = 0x5350_444b_4641_4337; // "SPDKFAC7"

/// Per-attempt dial timeout, and the back-off between attempts (doubling
/// from the first value to the second) while a peer is not listening yet.
const DIAL_ATTEMPT: Duration = Duration::from_secs(1);
const DIAL_BACKOFF: (Duration, Duration) = (Duration::from_millis(10), Duration::from_secs(1));
/// Sleep between polls of a non-blocking accept, doubling likewise.
const ACCEPT_BACKOFF: (Duration, Duration) = (Duration::from_micros(100), Duration::from_millis(2));
/// How long the server waits for an accepted connection's registration —
/// less while a rejoin window is open, which a silent dialer must not
/// outlast.
const REGISTRATION_TIMEOUT: Duration = Duration::from_secs(10);

/// Environment variable carrying the shared rendezvous secret. Every HELLO /
/// REJOIN / POLL frame carries the client's token; the server rejects
/// mismatches with a [`CommError::Rendezvous`] before any rank is assigned.
/// Unset (or empty) on both sides disables the check.
pub const TOKEN_ENV: &str = "SPDKFAC_TOKEN";

/// The ambient shared secret: `SPDKFAC_TOKEN`, or empty when unset.
pub fn env_token() -> String {
    std::env::var(TOKEN_ENV).unwrap_or_default()
}

/// Configuration of a TCP-backed group member.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Rendezvous server address (`host:port`). With
    /// [`TcpConfig::host_rendezvous`] set this rank binds and serves it;
    /// otherwise it dials it (with retry — the server may start late).
    pub rendezvous: String,
    /// Rank to claim as a founder; `None` lets the server assign one in
    /// arrival order. Ignored when joining a group that already runs.
    pub rank: Option<usize>,
    /// Host the rendezvous server from this process (conventionally rank
    /// 0, or a launcher parent that is not itself a rank). Read by
    /// [`Backend::Tcp`](crate::Backend), which knows the world to host.
    pub host_rendezvous: bool,
    /// Local IP the ring listener binds to (an ephemeral port is chosen).
    pub bind_ip: String,
    /// Overall deadline for group formation: rendezvous dial, assignment
    /// and neighbour handshake all end this long after [`join`] began.
    pub handshake_timeout: Duration,
    /// Socket read timeout for ring frames; `None` blocks forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for ring frames; `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Shared rendezvous secret sent with every HELLO / REJOIN / POLL.
    /// `None` falls back to [`env_token`] (`SPDKFAC_TOKEN`); the server
    /// rejects mismatches with [`CommError::Rendezvous`].
    pub token: Option<String>,
    /// Wraps the ring transport of every [`join`] (each membership epoch's
    /// ring gets a fresh wrapper): the seam where a launcher installs a
    /// decorator, such as a fault injector, under the ring algorithms.
    /// `None` (the default) hands the transport over as connected.
    pub wrap_transport: Option<WrapTransport>,
}

/// A transport decorator: takes a connected ring transport and returns the
/// one the ring algorithms run on ([`TcpConfig::wrap_transport`]).
pub type WrapTransport = fn(Box<dyn Transport>) -> Box<dyn Transport>;

impl TcpConfig {
    /// Defaults tuned for single-machine loopback rings: 30 s to form the
    /// group, 30 s frame timeouts.
    pub fn new(rendezvous: impl Into<String>) -> Self {
        TcpConfig {
            rendezvous: rendezvous.into(),
            rank: None,
            host_rendezvous: false,
            bind_ip: "127.0.0.1".into(),
            handshake_timeout: Duration::from_secs(30),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            token: None,
            wrap_transport: None,
        }
    }

    /// The token this member presents at the rendezvous: the explicit
    /// override, or the ambient `SPDKFAC_TOKEN`.
    pub fn effective_token(&self) -> String {
        self.token.clone().unwrap_or_else(env_token)
    }

    /// Claims an explicit rank (and hosts the rendezvous when it is 0 —
    /// the paper-style convention; clear [`TcpConfig::host_rendezvous`]
    /// afterwards if a separate launcher hosts it).
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self.host_rendezvous = rank == 0;
        self
    }
}

// ---------------------------------------------------------------------------
// Rendezvous field I/O
// ---------------------------------------------------------------------------

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_str(w: &mut impl Write, s: &str) -> std::io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn read_str(r: &mut impl Read) -> std::io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 4096 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("rendezvous string of {len} bytes exceeds protocol limit"),
        ));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes a rejection frame (magic + reason) to a client and flushes.
fn reject(stream: &mut TcpStream, reason: &str) -> std::io::Result<()> {
    write_u64(stream, REJECT_MAGIC)?;
    write_str(stream, reason)?;
    stream.flush()
}

/// A decoded `ASSIGNMENT` frame.
#[derive(Debug)]
struct Assignment {
    epoch: u64,
    rank: usize,
    state_source: Option<usize>,
    /// Ring listener addresses in rank order; its length is the world.
    peers: Vec<String>,
}

impl Assignment {
    fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        write_u64(w, ASSIGNMENT_MAGIC)?;
        write_u64(w, self.epoch)?;
        write_u32(w, self.rank as u32)?;
        write_u32(w, self.peers.len() as u32)?;
        write_u64(w, self.state_source.map_or(-1, |s| s as i64) as u64)?;
        for s in &self.peers {
            write_str(w, s)?;
        }
        w.flush()
    }

    /// Reads the server's answer to a registration. The three numbers are
    /// checked against each other and [`MAX_WORLD`] before anything is
    /// sized or indexed by them.
    fn read(r: &mut impl Read) -> Result<Assignment, CommError> {
        let io = |e| CommError::from_io("rendezvous assignment", e);
        let magic = read_u64(r).map_err(io)?;
        if magic == REJECT_MAGIC {
            let reason = read_str(r).unwrap_or_else(|_| "no reason given".into());
            return Err(CommError::Rendezvous(format!(
                "rendezvous rejected this member: {reason}"
            )));
        }
        if magic != ASSIGNMENT_MAGIC {
            return Err(CommError::Rendezvous(format!(
                "rendezvous assignment: bad magic {magic:#x}"
            )));
        }
        let epoch = read_u64(r).map_err(io)?;
        let rank = read_u32(r).map_err(io)? as usize;
        let world = read_u32(r).map_err(io)? as usize;
        let source = read_u64(r).map_err(io)? as i64;
        if world == 0 || world > MAX_WORLD || rank >= world || !(-1..world as i64).contains(&source)
        {
            return Err(CommError::Rendezvous(format!(
                "rendezvous assignment: rank {rank} of world {world} with state source \
                 {source} is no membership"
            )));
        }
        Ok(Assignment {
            epoch,
            rank,
            state_source: (source >= 0).then_some(source as usize),
            peers: (0..world)
                .map(|_| read_str(r))
                .collect::<Result<_, _>>()
                .map_err(io)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Rendezvous server
// ---------------------------------------------------------------------------

/// A member connection the server holds until its epoch forms.
#[derive(Debug)]
struct Held {
    stream: TcpStream,
    addr: String,
}

/// The rendezvous server: accepts registrations, lets the membership state
/// machine decide (see the [module docs](self)), and answers every member
/// of a formed epoch with the epoch's peer table.
#[derive(Debug)]
pub struct RendezvousServer {
    listener: TcpListener,
    world: usize,
    token: String,
    rejoin_window: Duration,
}

/// Handle to a serving [`RendezvousServer`]: the bound address, the live
/// [`ElasticStatus`] (shared with the serving thread) and a stop switch.
#[derive(Debug, Clone)]
pub struct RendezvousHandle {
    addr: SocketAddr,
    status: Arc<Mutex<ElasticStatus>>,
    stop: Arc<AtomicBool>,
}

impl RendezvousHandle {
    /// The rendezvous address members dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live status, updated before the members of a new epoch are answered.
    pub fn status(&self) -> ElasticStatus {
        *self.status.lock().expect("status writers do not panic")
    }

    /// Ends the serving thread and frees the port. The thread may be
    /// blocked in `accept`; a throw-away dial wakes it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, DIAL_ATTEMPT);
    }
}

impl RendezvousServer {
    /// Binds the rendezvous listener for a group founding at `world`
    /// ranks. The expected shared secret is the ambient `SPDKFAC_TOKEN`
    /// (override with [`RendezvousServer::with_token`]); the rejoin window
    /// defaults to 5 s.
    pub fn bind(addr: &str, world: usize) -> Result<Self, CommError> {
        assert!(
            (1..=MAX_WORLD).contains(&world),
            "rendezvous for a {world}-rank group"
        );
        let listener = TcpListener::bind(addr)
            .map_err(|e| CommError::from_io(&format!("bind rendezvous {addr}"), e))?;
        Ok(RendezvousServer {
            listener,
            world,
            token: env_token(),
            rejoin_window: Duration::from_secs(5),
        })
    }

    /// Overrides the expected shared secret (empty disables the check).
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// Overrides the transition window: after the first REJOIN of a
    /// transition, members have this long to report before being declared
    /// dead. Must exceed the members' frame read timeout, or a rank blocked
    /// in a collective when a peer dies can miss the window.
    pub fn with_rejoin_window(mut self, window: Duration) -> Self {
        self.rejoin_window = window;
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Binds `addr` and forms one fixed `world`-rank group on a background
    /// thread. Returns the bound address immediately; the thread exits and
    /// the port closes once the founders are answered.
    pub fn spawn(addr: &str, world: usize) -> Result<SocketAddr, CommError> {
        Ok(RendezvousServer::bind(addr, world)?.launch(true)?.addr)
    }

    /// Serves membership epochs on a background thread until
    /// [`RendezvousHandle::stop`] (or the process exits).
    pub fn serve(self) -> Result<RendezvousHandle, CommError> {
        self.launch(false)
    }

    fn launch(self, one_epoch: bool) -> Result<RendezvousHandle, CommError> {
        let handle = RendezvousHandle {
            addr: self.local_addr(),
            status: Arc::default(),
            stop: Arc::default(),
        };
        let mirror = handle.clone();
        std::thread::Builder::new()
            .name("spdkfac-rendezvous".into())
            .spawn(move || {
                if let Err(e) = self.run(one_epoch, &mirror) {
                    eprintln!("rendezvous server failed: {e}");
                }
            })
            .map_err(|e| CommError::Io(format!("spawn rendezvous thread: {e}")))?;
        Ok(handle)
    }

    /// accept → decode one frame → feed the state machine → write its
    /// replies. Blocks in `accept` unless a rejoin window is open.
    fn run(self, one_epoch: bool, handle: &RendezvousHandle) -> Result<(), CommError> {
        let mut group = Membership::new(self.world, self.rejoin_window, one_epoch);
        while !group.finished() {
            let accepted = match accept_until(&self.listener, group.deadline(), "a member") {
                Ok(stream) => Some(stream),
                Err(CommError::Timeout(_)) => None,
                Err(e) => return Err(e),
            };
            if handle.stop.load(Ordering::SeqCst) {
                break;
            }
            let arrival = accepted.and_then(|stream| self.registration(stream, group.deadline()));
            let replies = group.feed(arrival, Instant::now());
            // Before the replies: a member back from `join` never reads a
            // status older than its own epoch.
            *handle.status.lock().expect("status readers do not panic") = group.status();
            replies.into_iter().for_each(answer);
        }
        Ok(())
    }

    /// Reads one registration frame, giving up at the open rejoin window's
    /// `deadline` if that comes first. Anything but a well-formed,
    /// authorised frame ends that connection (with a `REJECT` where the
    /// peer may still be listening) and nothing else.
    fn registration(
        &self,
        mut stream: TcpStream,
        deadline: Option<Instant>,
    ) -> Option<(Held, Registration)> {
        let patience = deadline.map_or(REGISTRATION_TIMEOUT, time_left);
        stream
            .set_read_timeout(Some(patience.min(REGISTRATION_TIMEOUT)))
            .ok()?;
        let magic = read_u64(&mut stream).ok()?;
        if ![HELLO_MAGIC, REJOIN_MAGIC, POLL_MAGIC].contains(&magic) {
            let _ = reject(&mut stream, &format!("bad magic {magic:#x}"));
            return None;
        }
        if read_str(&mut stream).ok()? != self.token {
            eprintln!("rendezvous: rejecting a connection: bad token");
            let _ = reject(&mut stream, "rendezvous token mismatch");
            return None;
        }
        let registration = match magic {
            POLL_MAGIC => Registration::Poll,
            HELLO_MAGIC => {
                let claim = read_u64(&mut stream).ok()? as i64;
                Registration::Hello {
                    claim: (claim >= 0).then_some(claim as usize),
                }
            }
            _ => Registration::Rejoin {
                epoch: read_u64(&mut stream).ok()?,
                old_rank: read_u64(&mut stream).ok()? as usize,
            },
        };
        let addr = match registration {
            Registration::Poll => String::new(),
            _ => read_str(&mut stream).ok()?,
        };
        Some((Held { stream, addr }, registration))
    }
}

/// Writes one reply of the state machine. A write that fails is logged
/// and skipped — a member that died between registering and its answer is
/// shed by the next transition.
fn answer(reply: Reply<Held>) {
    match reply {
        Reply::Assign {
            epoch,
            state_source,
            members,
        } => {
            let mut frame = Assignment {
                epoch,
                rank: 0,
                state_source,
                peers: members.iter().map(|m| m.addr.clone()).collect(),
            };
            if epoch > 0 {
                eprintln!(
                    "rendezvous: epoch {epoch} formed at world {}",
                    members.len()
                );
            }
            for (rank, m) in members.iter().enumerate() {
                frame.rank = rank;
                if let Err(e) = frame.write(&mut BufWriter::new(&m.stream)) {
                    eprintln!("rendezvous: epoch {epoch} assignment to rank {rank} failed: {e}");
                }
            }
        }
        Reply::Reject { members, reason } => {
            eprintln!(
                "rendezvous: rejecting {} member(s): {reason}",
                members.len()
            );
            for mut m in members {
                let _ = reject(&mut m.stream, &reason);
            }
        }
        Reply::Status { to, status } => {
            let mut w = BufWriter::new(&to.stream);
            let _ = write_u64(&mut w, POLL_REPLY_MAGIC)
                .and_then(|()| write_u64(&mut w, status.epoch))
                .and_then(|()| write_u32(&mut w, status.world as u32))
                .and_then(|()| write_u32(&mut w, status.pending as u32))
                .and_then(|()| w.flush());
        }
    }
}

// ---------------------------------------------------------------------------
// Group member connection
// ---------------------------------------------------------------------------

fn resolve(addr: &str) -> Result<SocketAddr, CommError> {
    addr.to_socket_addrs()
        .map_err(|e| CommError::Io(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| CommError::Io(format!("resolve {addr}: no addresses")))
}

/// What is left until `deadline`, never zero (a zero socket timeout is an
/// error, not "no time").
fn time_left(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// Dials `addr` until it answers or `deadline` passes, backing off
/// between attempts — the peer (rendezvous server or ring neighbour) may
/// not be listening yet.
fn dial_until(addr: &str, deadline: Instant, what: &str) -> Result<TcpStream, CommError> {
    let target = resolve(addr)?;
    let mut nap = DIAL_BACKOFF.0;
    loop {
        let error = match TcpStream::connect_timeout(&target, time_left(deadline).min(DIAL_ATTEMPT))
        {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => e,
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(CommError::Timeout(format!(
                "connect to {what} {addr} failed until the formation deadline: {error}"
            )));
        }
        std::thread::sleep(nap.min(left));
        nap = (nap * 2).min(DIAL_BACKOFF.1);
    }
}

/// Accepts one connection: blocking without a deadline, else polling (with
/// back-off) until it.
fn accept_until(
    listener: &TcpListener,
    deadline: Option<Instant>,
    what: &str,
) -> Result<TcpStream, CommError> {
    listener
        .set_nonblocking(deadline.is_some())
        .map_err(|e| CommError::from_io("listener set_nonblocking", e))?;
    let mut nap = ACCEPT_BACKOFF.0;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| CommError::from_io("accepted stream set_blocking", e))?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let left = deadline.map_or(nap, |d| d.saturating_duration_since(Instant::now()));
                if left.is_zero() {
                    return Err(CommError::Timeout(format!("accept from {what} timed out")));
                }
                std::thread::sleep(nap.min(left));
                nap = (nap * 2).min(ACCEPT_BACKOFF.1);
            }
            Err(e) => return Err(CommError::from_io(&format!("accept from {what}"), e)),
        }
    }
}

/// The fully-connected TCP transport of one rank: a socket to the right
/// neighbour and a buffered reader from the left neighbour. Error contexts
/// carry the peer *rank*, precomputed at connect time, so a poisoning log
/// line names the broken ring edge without a trace.
#[derive(Debug)]
pub struct TcpTransport {
    to_right: TcpStream,
    from_left: BufReader<TcpStream>,
    send_ctx: String,
    recv_ctx: String,
}

/// `write_all` over two parts with one vectored write while both remain.
fn write_all_parts(w: &mut TcpStream, mut head: &[u8], mut body: &[u8]) -> std::io::Result<()> {
    while !head.is_empty() {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) if n < head.len() => head = &head[n..],
            Ok(n) => {
                body = &body[n - head.len()..];
                head = &[];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(body)
}

impl Transport for TcpTransport {
    fn send(&mut self, head: &[u8], body: &[u8]) -> Result<(), CommError> {
        write_all_parts(&mut self.to_right, head, body)
            .map_err(|e| CommError::from_io(&self.send_ctx, e))
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<(), CommError> {
        self.from_left
            .read_exact(buf)
            .map_err(|e| CommError::from_io(&self.recv_ctx, e))
    }
}

/// What a member tells the rendezvous when it (re-)connects.
#[derive(Debug, Clone)]
pub enum JoinIntent {
    /// First contact: a founder of epoch 0 (its [`TcpConfig::rank`] claim
    /// is honoured there), or a late joiner queued for the next epoch.
    Fresh,
    /// A member of membership epoch `epoch` reporting for the next epoch
    /// after a resize trigger (peer death or a pending joiner). Survivors
    /// keep their relative rank order; the lowest surviving old rank
    /// becomes the state source (new rank 0).
    Rejoin { epoch: u64, old_rank: usize },
}

/// The result of joining (or rejoining) a TCP group.
#[derive(Debug)]
pub struct Join {
    /// The membership epoch this assignment belongs to (monotonically
    /// increasing; 0 is the founding epoch).
    pub epoch: u64,
    /// The rank assigned within this epoch.
    pub rank: usize,
    /// World size of this epoch.
    pub world: usize,
    /// The rank holding authoritative training state for this epoch
    /// (rank 0 of every epoch after the founding one); `None` on a fresh
    /// start with no state to hand off.
    pub state_source: Option<usize>,
    /// The connected ring transport.
    pub transport: Box<dyn Transport>,
}

/// Polls the rendezvous without blocking group formation: returns the
/// current (epoch, world, pending-joiner count). Rank 0 calls this from
/// the training loop to detect planned grows.
pub fn elastic_poll(cfg: &TcpConfig) -> Result<ElasticStatus, CommError> {
    let deadline = Instant::now() + cfg.handshake_timeout;
    let mut s = dial_until(&cfg.rendezvous, deadline, "rendezvous server")?;
    let io = |e| CommError::from_io("rendezvous poll", e);
    s.set_read_timeout(Some(time_left(deadline))).map_err(io)?;
    write_u64(&mut s, POLL_MAGIC).map_err(io)?;
    write_str(&mut s, &cfg.effective_token()).map_err(io)?;
    let magic = read_u64(&mut s).map_err(io)?;
    if magic == REJECT_MAGIC {
        let reason = read_str(&mut s).unwrap_or_else(|_| "no reason given".into());
        return Err(CommError::Rendezvous(format!("poll rejected: {reason}")));
    }
    if magic != POLL_REPLY_MAGIC {
        return Err(CommError::Rendezvous(format!(
            "rendezvous poll: bad magic {magic:#x}"
        )));
    }
    Ok(ElasticStatus {
        epoch: read_u64(&mut s).map_err(io)?,
        world: read_u32(&mut s).map_err(io)? as usize,
        pending: read_u32(&mut s).map_err(io)? as usize,
    })
}

/// Joins (or rejoins) a TCP group: registers `intent` at the rendezvous,
/// blocks until the server forms the epoch this member belongs to, and
/// wires that epoch's ring, wrapped by [`TcpConfig::wrap_transport`] when
/// set. The server decides rank and world; a fixed-world caller checks
/// them ([`Backend::Tcp`](crate::Backend)).
pub fn join(cfg: &TcpConfig, intent: &JoinIntent) -> Result<Join, CommError> {
    let deadline = Instant::now() + cfg.handshake_timeout;

    // Ring listener first, so its address can be registered.
    let listener = TcpListener::bind((cfg.bind_ip.as_str(), 0))
        .map_err(|e| CommError::from_io(&format!("bind ring listener on {}", cfg.bind_ip), e))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| CommError::from_io("ring listener addr", e))?
        .to_string();

    let mut rdv = dial_until(&cfg.rendezvous, deadline, "rendezvous server")?;
    let register = |w: &mut BufWriter<&TcpStream>| {
        match *intent {
            JoinIntent::Fresh => {
                write_u64(w, HELLO_MAGIC)?;
                write_str(w, &cfg.effective_token())?;
                write_u64(w, cfg.rank.map_or(-1, |r| r as i64) as u64)?;
            }
            JoinIntent::Rejoin { epoch, old_rank } => {
                write_u64(w, REJOIN_MAGIC)?;
                write_str(w, &cfg.effective_token())?;
                write_u64(w, epoch)?;
                write_u64(w, old_rank as u64)?;
            }
        }
        write_str(w, &my_addr)?;
        w.flush()
    };
    rdv.set_read_timeout(Some(time_left(deadline)))
        .and_then(|()| register(&mut BufWriter::new(&rdv)))
        .map_err(|e| CommError::from_io("rendezvous registration", e))?;
    let assigned = Assignment::read(&mut rdv)?;
    drop(rdv);

    let world = assigned.peers.len();
    let transport: Box<dyn Transport> = if world == 1 {
        Box::new(channel_ring(1).remove(0))
    } else {
        wire_ring(cfg, &listener, deadline, &assigned)?
    };
    let transport = match cfg.wrap_transport {
        Some(wrap) => wrap(transport),
        None => transport,
    };
    Ok(Join {
        epoch: assigned.epoch,
        rank: assigned.rank,
        world,
        state_source: assigned.state_source,
        transport,
    })
}

/// Dials the right neighbour, accepts the left, and exchanges
/// `(epoch, rank)` handshakes. The epoch in the handshake keeps a stale
/// dial from a previous membership epoch from being mistaken for the
/// current left neighbour.
fn wire_ring(
    cfg: &TcpConfig,
    listener: &TcpListener,
    deadline: Instant,
    assigned: &Assignment,
) -> Result<Box<dyn Transport>, CommError> {
    let (rank, epoch, world) = (assigned.rank, assigned.epoch, assigned.peers.len());
    let right_rank = (rank + 1) % world;
    let left_rank = (rank + world - 1) % world;
    let mut right = dial_until(&assigned.peers[right_rank], deadline, "right neighbour")?;
    write_u64(&mut right, epoch)
        .and_then(|()| write_u64(&mut right, rank as u64))
        .and_then(|()| right.flush())
        .map_err(|e| CommError::from_io("handshake to right neighbour", e))?;
    let mut left = accept_until(listener, Some(deadline), "left neighbour")?;
    left.set_read_timeout(Some(time_left(deadline)))
        .map_err(|e| CommError::from_io("handshake set timeout", e))?;
    let peer_epoch = read_u64(&mut left).map_err(|e| CommError::from_io("left handshake", e))?;
    let who = read_u64(&mut left).map_err(|e| CommError::from_io("left handshake", e))? as usize;
    if peer_epoch != epoch || who != left_rank {
        return Err(CommError::Rendezvous(format!(
            "rank {rank} epoch {epoch}: expected left neighbour {left_rank}, \
             got rank {who} of epoch {peer_epoch}"
        )));
    }

    // Steady-state frame timeouts.
    right
        .set_write_timeout(cfg.write_timeout)
        .map_err(|e| CommError::from_io("set write timeout", e))?;
    left.set_read_timeout(cfg.read_timeout)
        .map_err(|e| CommError::from_io("set read timeout", e))?;
    Ok(Box::new(TcpTransport {
        to_right: right,
        from_left: BufReader::new(left),
        send_ctx: format!("send to right neighbour (rank {right_rank})"),
        recv_ctx: format!("recv from left neighbour (rank {left_rank})"),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRESH: &JoinIntent = &JoinIntent::Fresh;

    fn rejoin(epoch: u64, old_rank: usize) -> JoinIntent {
        JoinIntent::Rejoin { epoch, old_rank }
    }

    /// A raw `HELLO` on a fresh connection, as [`join`] writes it.
    fn hello(addr: SocketAddr, token: &str, claim: i64, ring: &str) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        write_u64(&mut s, HELLO_MAGIC).unwrap();
        write_str(&mut s, token).unwrap();
        write_u64(&mut s, claim as u64).unwrap();
        write_str(&mut s, ring).unwrap();
        s
    }

    /// Joins `n` claim-less members on threads and returns their joins.
    fn join_all(addr: &str, n: usize) -> Vec<Result<Join, CommError>> {
        let members: Vec<_> = (0..n)
            .map(|_| {
                let cfg = TcpConfig::new(addr);
                std::thread::spawn(move || join(&cfg, FRESH))
            })
            .collect();
        members.into_iter().map(|m| m.join().unwrap()).collect()
    }

    /// Dials until the port refuses: the listener is closed, so whatever
    /// owned it has returned.
    fn assert_port_closes(addr: SocketAddr) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
            assert!(Instant::now() < deadline, "{addr} still accepts");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn oversized_rendezvous_string_rejected() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 1 << 20).unwrap();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_str(&mut &buf[..]).is_err());
    }

    #[test]
    fn rendezvous_assigns_explicit_and_auto_ranks() {
        let addr = RendezvousServer::spawn("127.0.0.1:0", 3).unwrap();
        // The server decodes each registration as it accepts, so arrival
        // order is connect order. Claim rank 2 explicitly; the other two
        // fill 0 and 1 in arrival order.
        let sc = hello(addr, "", 2, "c:2");
        let sa = hello(addr, "", -1, "a:1");
        let sb = hello(addr, "", -1, "b:1");
        let [c, a, b] = [sc, sa, sb].map(|mut s| Assignment::read(&mut s).unwrap());
        assert_eq!((c.rank, a.rank, b.rank), (2, 0, 1));
        for got in [&a, &b, &c] {
            assert_eq!((got.epoch, got.state_source), (0, None));
            assert_eq!(got.peers, ["a:1", "b:1", "c:2"]);
        }
    }

    #[test]
    fn connect_forms_a_two_rank_ring() {
        let addr = RendezvousServer::spawn("127.0.0.1:0", 2)
            .unwrap()
            .to_string();
        let addr1 = addr.clone();
        let peer = std::thread::spawn(move || {
            let j = join(&TcpConfig::new(addr1), FRESH).unwrap();
            let (rank, mut t) = (j.rank, j.transport);
            // Echo service: receive four bytes, send them back doubled.
            let mut got = [0u8; 4];
            t.recv(&mut got).unwrap();
            t.send(&[], &got.map(|b| b * 2)).unwrap();
            rank
        });
        let j = join(&TcpConfig::new(addr), FRESH).unwrap();
        assert_eq!((j.epoch, j.world, j.state_source), (0, 2, None));
        let (rank, mut t) = (j.rank, j.transport);
        // Head and body parts arrive as one stream.
        t.send(&[1, 2], &[3, 4]).unwrap();
        let mut back = [0u8; 4];
        t.recv(&mut back).unwrap();
        assert_eq!(back, [2, 4, 6, 8]);
        assert_ne!(rank, peer.join().unwrap());
        assert!(format!("{t:?}").starts_with("TcpTransport"), "{t:?}");
    }

    #[test]
    fn join_hands_over_the_wrapped_transport() {
        #[derive(Debug)]
        struct Wrapped(Box<dyn Transport>);
        impl Transport for Wrapped {
            fn send(&mut self, head: &[u8], body: &[u8]) -> Result<(), CommError> {
                self.0.send(head, body)
            }
            fn recv(&mut self, buf: &mut [u8]) -> Result<(), CommError> {
                self.0.recv(buf)
            }
        }
        let addr = RendezvousServer::spawn("127.0.0.1:0", 1).unwrap();
        let mut cfg = TcpConfig::new(addr.to_string());
        cfg.wrap_transport = Some(|t| Box::new(Wrapped(t)));
        let j = join(&cfg, FRESH).unwrap();
        let t = format!("{:?}", j.transport);
        assert!(t.starts_with("Wrapped(ChannelTransport"), "{t}");
    }

    #[test]
    fn rendezvous_rejects_token_mismatch() {
        // A wrong token is refused with a Rendezvous error and does NOT
        // consume a world slot: the correctly-authed pair still forms.
        let handle = RendezvousServer::bind("127.0.0.1:0", 2)
            .unwrap()
            .with_token("sesame")
            .serve()
            .unwrap();
        let mut cfg = TcpConfig::new(handle.addr().to_string());
        cfg.token = Some("wrong".into());
        for refused in [
            join(&cfg, FRESH).map(|_| ()),
            elastic_poll(&cfg).map(|_| ()),
        ] {
            match refused {
                Err(CommError::Rendezvous(msg)) => {
                    assert!(msg.contains("token mismatch"), "unexpected reason: {msg}")
                }
                other => panic!("expected Rendezvous rejection, got {other:?}"),
            }
        }
        cfg.token = Some("sesame".into());
        let cfg1 = cfg.clone();
        let peer = std::thread::spawn(move || join(&cfg1, FRESH).unwrap().rank);
        let rank = join(&cfg, FRESH).unwrap().rank;
        assert_ne!(rank, peer.join().unwrap());
        assert_eq!(elastic_poll(&cfg).unwrap().world, 2);
        handle.stop();
    }

    #[test]
    fn stray_connections_cost_only_themselves() {
        // Fails at the parent commit: its fixed-world server ended the
        // whole formation on the first of these.
        let addr = RendezvousServer::spawn("127.0.0.1:0", 2).unwrap();
        let mut garbage = TcpStream::connect(addr).unwrap();
        write_u64(&mut garbage, 0xdead_beef).unwrap();
        match Assignment::read(&mut garbage) {
            Err(CommError::Rendezvous(msg)) => assert!(msg.contains("bad magic"), "{msg}"),
            other => panic!("garbage must be rejected, got {other:?}"),
        }
        let mut truncated = TcpStream::connect(addr).unwrap();
        write_u64(&mut truncated, HELLO_MAGIC).unwrap();
        truncated.write_all(&[3, 0]).unwrap(); // half a length prefix
        drop(truncated);
        drop(TcpStream::connect(addr).unwrap()); // connect-and-close
        let ranks: Vec<usize> = join_all(&addr.to_string(), 2)
            .into_iter()
            .map(|j| j.expect("a valid pair still forms").rank)
            .collect();
        assert!(ranks == [0, 1] || ranks == [1, 0], "{ranks:?}");
    }

    #[test]
    fn conflicting_founder_claims_reject_every_founder() {
        for (claims, world) in [([Some(1), None, Some(1)], 3), ([None, Some(3), None], 3)] {
            let addr = RendezvousServer::spawn("127.0.0.1:0", world)
                .unwrap()
                .to_string();
            let t0 = Instant::now();
            let founders: Vec<_> = claims
                .into_iter()
                .map(|claim| {
                    let mut cfg = TcpConfig::new(addr.clone());
                    cfg.rank = claim;
                    std::thread::spawn(move || join(&cfg, FRESH))
                })
                .collect();
            for f in founders {
                match f.join().unwrap() {
                    Err(CommError::Rendezvous(msg)) => {
                        assert!(msg.contains("rank claim"), "unexpected reason: {msg}")
                    }
                    other => panic!("expected every founder rejected, got {other:?}"),
                }
            }
            // One round trip, not a handshake timeout (30 s here).
            assert!(t0.elapsed() < Duration::from_secs(5));
        }
    }

    #[test]
    fn dead_rendezvous_times_out_at_the_formation_deadline() {
        // Fails at the parent commit: 101 dial attempts, ≈ 94 s.
        let mut cfg = TcpConfig::new("127.0.0.1:1"); // tcpmux: nobody listens
        cfg.handshake_timeout = Duration::from_millis(300);
        let t0 = Instant::now();
        for outcome in [
            join(&cfg, FRESH).map(|_| ()),
            elastic_poll(&cfg).map(|_| ()),
        ] {
            assert!(matches!(outcome, Err(CommError::Timeout(_))), "{outcome:?}");
        }
        let took = t0.elapsed();
        assert!(
            took >= Duration::from_millis(600) && took < Duration::from_secs(2),
            "two 300 ms deadlines took {took:?}"
        );
    }

    /// A scripted server: answers the first registration with `reply`
    /// verbatim and hangs up.
    fn scripted_server(reply: Vec<u8>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Drain the HELLO so the close is a FIN, not a reset.
            assert_eq!(read_u64(&mut s).unwrap(), HELLO_MAGIC);
            read_str(&mut s).unwrap();
            read_u64(&mut s).unwrap();
            read_str(&mut s).unwrap();
            s.write_all(&reply).unwrap();
        });
        addr
    }

    /// The fixed part of an assignment frame, then raw table bytes.
    fn assignment_bytes(rank: u32, world: u32, source: i64, tables: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        write_u64(&mut b, ASSIGNMENT_MAGIC).unwrap();
        write_u64(&mut b, 0).unwrap();
        write_u32(&mut b, rank).unwrap();
        write_u32(&mut b, world).unwrap();
        write_u64(&mut b, source as u64).unwrap();
        b.extend_from_slice(tables);
        b
    }

    #[test]
    fn malformed_assignments_are_typed_errors() {
        let mut reject_frame = Vec::new();
        write_u64(&mut reject_frame, REJECT_MAGIC).unwrap();
        write_str(&mut reject_frame, "not today").unwrap();
        let mut oversize = Vec::new();
        write_u32(&mut oversize, 4097).unwrap();
        oversize.resize(4 + 4097, b'a');
        type Check = fn(&CommError) -> bool;
        let rendezvous: Check = |e| matches!(e, CommError::Rendezvous(_));
        let io: Check = |e| matches!(e, CommError::Io(_));
        let hangup: Check = |e| matches!(e, CommError::Disconnected(_));
        let cases: Vec<(&str, Vec<u8>, Check)> = vec![
            // Panics at the parent commit (`% world` in `wire_ring`).
            ("world 0", assignment_bytes(0, 0, -1, &[]), rendezvous),
            (
                "world u32::MAX",
                assignment_bytes(0, u32::MAX, -1, &[]),
                rendezvous,
            ),
            (
                "world over the cap",
                assignment_bytes(0, MAX_WORLD as u32 + 1, -1, &[]),
                rendezvous,
            ),
            ("rank >= world", assignment_bytes(2, 2, -1, &[]), rendezvous),
            (
                "state source >= world",
                assignment_bytes(0, 2, 2, &[]),
                rendezvous,
            ),
            (
                "state source < -1",
                assignment_bytes(0, 2, -2, &[]),
                rendezvous,
            ),
            (
                "unknown magic",
                0x1234_u64.to_le_bytes().to_vec(),
                rendezvous,
            ),
            ("REJECT", reject_frame, |e| {
                e.message().contains("not today")
            }),
            ("empty reply", Vec::new(), hangup),
            (
                "truncated header",
                assignment_bytes(0, 2, -1, &[])[..20].to_vec(),
                hangup,
            ),
            (
                "truncated table",
                assignment_bytes(0, 2, -1, &[3, 0, 0, 0, b'a']),
                hangup,
            ),
            (
                "non-UTF-8 peer",
                assignment_bytes(0, 2, -1, &[2, 0, 0, 0, 0xff, 0xfe]),
                io,
            ),
            ("oversize peer", assignment_bytes(0, 2, -1, &oversize), io),
        ];
        for (name, reply, expected) in cases {
            let cfg = TcpConfig::new(scripted_server(reply));
            let err = join(&cfg, FRESH).expect_err(name);
            assert!(expected(&err), "{name}: {err:?}");
        }
    }

    #[test]
    fn assignment_frame_round_trips() {
        let sent = Assignment {
            epoch: 7,
            rank: 1,
            state_source: Some(0),
            peers: vec!["a:1".into(), "b:2".into()],
        };
        let mut bytes = Vec::new();
        sent.write(&mut bytes).unwrap();
        let got = Assignment::read(&mut &bytes[..]).unwrap();
        assert_eq!(
            (got.epoch, got.rank, got.state_source),
            (sent.epoch, sent.rank, sent.state_source)
        );
        assert_eq!(got.peers, sent.peers);
    }

    fn written(a: &Assignment) -> Vec<u8> {
        let mut bytes = Vec::new();
        a.write(&mut bytes).unwrap();
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn an_assignment_reads_back_only_as_the_bytes_it_was_read_from(
            epoch in 0u64..u64::MAX,
            world in 1usize..6,
            picks in (0usize..6, 0usize..7),
            addrs in proptest::collection::vec(proptest::collection::vec(0u8..128, 0..6), 6),
            at in 0.0f64..1.0,
            new_byte in 0u16..256,
            noise in proptest::collection::vec(0u16..256, 0..64),
        ) {
            let sent = Assignment {
                epoch,
                rank: picks.0 % world,
                state_source: picks.1.checked_sub(1).map(|s| s % world),
                peers: addrs[..world]
                    .iter()
                    .map(|a| a.iter().map(|&c| c as char).collect())
                    .collect(),
            };
            let wire = written(&sent);
            // The assignment read off the front of some bytes, and how many
            // it took.
            let decode = |bytes: &[u8]| {
                let mut rest = bytes;
                Assignment::read(&mut rest).ok().map(|a| (a, bytes.len() - rest.len()))
            };
            let (got, used) = decode(&wire).expect("a written assignment reads back");
            proptest::prop_assert_eq!(used, wire.len());
            proptest::prop_assert_eq!(
                (got.epoch, got.rank, got.state_source, &got.peers),
                (sent.epoch, sent.rank, sent.state_source, &sent.peers)
            );

            // One byte changed anywhere, or arbitrary bytes: refused, or
            // read as an assignment that writes back exactly the bytes read.
            let mut mutated = wire;
            let i = (at * mutated.len() as f64) as usize;
            mutated[i] = new_byte as u8;
            let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
            for bytes in [mutated, noise] {
                if let Some((a, used)) = decode(&bytes) {
                    proptest::prop_assert_eq!(written(&a), bytes[..used].to_vec());
                }
            }
        }
    }

    #[test]
    fn spawned_server_exits_and_frees_its_port_once_the_group_forms() {
        let addr = RendezvousServer::spawn("127.0.0.1:0", 2).unwrap();
        for j in join_all(&addr.to_string(), 2) {
            j.unwrap();
        }
        assert_port_closes(addr);
    }

    #[test]
    fn stop_ends_a_server_blocked_in_accept() {
        let handle = RendezvousServer::bind("127.0.0.1:0", 2)
            .unwrap()
            .serve()
            .unwrap();
        // Nobody ever dials: no window is open, so the thread sits in a
        // blocking accept.
        std::thread::sleep(Duration::from_millis(20));
        handle.stop();
        assert_port_closes(handle.addr());
    }

    #[test]
    fn a_silent_dialer_cannot_hold_a_rejoin_window_open() {
        // Fails at the parent commit: a connection that sends nothing kept
        // the accept loop in its registration read for a fixed 10 s,
        // however close the window's end was.
        let window = Duration::from_millis(300);
        let handle = RendezvousServer::bind("127.0.0.1:0", 2)
            .unwrap()
            .with_rejoin_window(window)
            .serve()
            .unwrap();
        let founders: Vec<Join> = join_all(&handle.addr().to_string(), 2)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let survivor = founders[1].rank;
        drop(founders);
        // Arrival order is connect order: the survivor's REJOIN opens the
        // window, the silent connection is accepted inside it.
        let t0 = Instant::now();
        let mut rejoining = TcpStream::connect(handle.addr()).unwrap();
        write_u64(&mut rejoining, REJOIN_MAGIC).unwrap();
        write_str(&mut rejoining, "").unwrap();
        write_u64(&mut rejoining, 0).unwrap();
        write_u64(&mut rejoining, survivor as u64).unwrap();
        write_str(&mut rejoining, "survivor:1").unwrap();
        let silent = TcpStream::connect(handle.addr()).unwrap();
        let assigned = Assignment::read(&mut rejoining).unwrap();
        let took = t0.elapsed();
        assert_eq!((assigned.epoch, assigned.rank), (1, 0));
        assert_eq!(assigned.peers, ["survivor:1"]);
        assert!(
            took >= window && took < window + Duration::from_secs(1),
            "a {window:?} window took {took:?}"
        );
        drop(silent);
        handle.stop();
    }

    #[test]
    fn elastic_epochs_form_shrink_and_grow() {
        let handle = RendezvousServer::bind("127.0.0.1:0", 2)
            .unwrap()
            .with_rejoin_window(Duration::from_millis(250))
            .serve()
            .unwrap();
        let addr = handle.addr().to_string();
        let cfg = TcpConfig::new(addr.clone());

        // Epoch 0: two founders, no state to hand off.
        let mut founders = join_all(&addr, 2).into_iter().map(Result::unwrap);
        let (j0, j1) = (founders.next().unwrap(), founders.next().unwrap());
        assert_eq!((j0.epoch, j0.world, j0.state_source), (0, 2, None));
        assert_eq!(j0.rank + j1.rank, 1);
        let status = |epoch, world, pending| ElasticStatus {
            epoch,
            world,
            pending,
        };
        assert_eq!(handle.status(), status(0, 2, 0));

        // One member "dies" (drops its transport); the other rejoins
        // alone. The window expires, forming a shrunk single-rank epoch 1
        // whose survivor is the state source.
        let survivor = j1.rank;
        drop((j0, j1));
        let t0 = Instant::now();
        let e1 = join(&cfg, &rejoin(0, survivor)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(250),
            "window cut short"
        );
        assert_eq!((e1.epoch, e1.rank, e1.world), (1, 0, 1));
        assert_eq!(e1.state_source, Some(0));
        assert!(
            format!("{:?}", e1.transport).starts_with("ChannelTransport"),
            "{:?}",
            e1.transport
        );
        assert_eq!(handle.status(), status(1, 1, 0));

        // A replacement HELLOs in: it queues as pending (visible to POLL),
        // and the survivor's next rejoin forms epoch 2 at world 2 — at
        // once, everyone reported — with the survivor as rank 0.
        let joiner = std::thread::spawn(move || join(&TcpConfig::new(addr), FRESH).unwrap());
        let deadline = Instant::now() + Duration::from_secs(5);
        while elastic_poll(&cfg).unwrap().pending == 0 {
            assert!(Instant::now() < deadline, "joiner never became pending");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(e1);
        let e2 = join(&cfg, &rejoin(1, 0)).unwrap();
        let joined = joiner.join().unwrap();
        assert_eq!((e2.epoch, e2.rank, e2.world), (2, 0, 2));
        assert_eq!((joined.epoch, joined.rank, joined.world), (2, 1, 2));
        assert_eq!((e2.state_source, joined.state_source), (Some(0), Some(0)));
        assert_eq!(handle.status(), status(2, 2, 0));

        // The epoch-2 ring actually carries bytes.
        let (mut ta, mut tb) = (e2.transport, joined.transport);
        let echo = std::thread::spawn(move || {
            let mut got = [0u8; 2];
            tb.recv(&mut got).unwrap();
            tb.send(&[], &got).unwrap();
        });
        ta.send(&[], &[7, 8]).unwrap();
        let mut back = [0u8; 2];
        ta.recv(&mut back).unwrap();
        assert_eq!(back, [7, 8]);
        echo.join().unwrap();
        handle.stop();
    }
}
