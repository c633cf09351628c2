//! Ring algorithms executed by each rank's communication thread.
//!
//! All algorithms here are written from the perspective of a single rank
//! that owns a point-to-point [`Transport`] to its ring neighbours (send
//! right, receive left). They are the two textbook NCCL-style ring
//! collectives the trainers run — all-reduce as reduce-scatter +
//! all-gather (`2(P-1)` chunk frames per rank) and broadcast as a
//! cut-through relay from the root — and both are sequences of calls to
//! one primitive, `RingEndpoint::hop`: *send at most one frame right and
//! receive at most one frame left, streaming both bodies in slices*
//! (near-equal pieces of at most [`SLICE_BYTES`]). Frames are fixed-width
//! (f64 / f32 / f16; a collective called with [`WireFormat::TopK`]
//! panics) and every frame a rank receives lands in a destination whose
//! length it knows, so each slice is encoded and decoded on its own. Per
//! slice the comm thread runs
//!
//! ```text
//!  encode i+1 ─▶ wait(link) ─▶ write i ─▶ read i ─▶ decode/reduce i
//!  (other send buf)           (send buf)   (recv buf)   (in place)
//! ```
//!
//! so sends and receives interleave — no rank has more than one slice in
//! flight per direction, which is what keeps an 8 MB chunk from wedging
//! every rank in `write` — and the codec work of one slice runs while the
//! (emulated) link carries the one before. "The next slice" does not stop
//! at the end of a frame: before a hop releases its *last* slice it stages
//! and books slice 0 of whatever this rank sends next — the next hop's
//! frame once the bytes it is made of have landed, or the first frame of
//! the collective queued behind this one ([`Lookahead`]) — so the
//! link stays booked across hops and across collectives. The broadcast's
//! chain relay runs the slot as read → write → decode from the same
//! receive buffer. All buffers belong to the endpoint and are reused: a
//! steady-state collective allocates nothing. DESIGN.md §2.10 has the full
//! picture.
//!
//! The same hop sequence runs whether the neighbours are threads (byte
//! pipes) or processes (TCP sockets), which is what makes the two backends
//! bit-identical. Transport failures and frames that contradict what a hop
//! must carry propagate as [`CommError`] instead of panicking.
//!
//! **Bit parity under lossy formats** rests on one rule: a value that must
//! be identical on all ranks is encoded once, by the rank that completes
//! it, and every rank — that one included — materialises it by decoding
//! those bytes. Hops that accumulate (the reduce-scatter phase) send
//! freshly encoded partial sums (`Tx::Fresh`); hops that replicate
//! (broadcast, the all-gather phase) forward the origin's bytes verbatim,
//! and the origin overwrites its own copy with its own decode
//! (`Tx::Replicated`).

use crate::error::CommError;
use crate::stats::{OpKind, TrafficStats};
use crate::transport::{FrameHeader, Transport, FRAME_HEADER_BYTES, SLICE_BYTES};
use crate::wire::{self, Sink, WireFormat};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire, codec and link accounting of one collective: everything booked,
/// encoded or sent *for* it since the last [`RingEndpoint::take_codec`],
/// including what the collective before it staged on its behalf.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCodecStats {
    /// Actual encoded bytes this endpoint put on the wire.
    pub wire_bytes: u64,
    /// CPU seconds spent encoding + decoding.
    pub codec_secs: f64,
    /// Max absolute rounding error introduced by encoding.
    pub max_abs_err: f64,
    /// Seconds of the emulated link this collective's slices booked (0
    /// when un-paced).
    pub link_booked_secs: f64,
    /// Seconds the emulated link sat drained before one of this
    /// collective's bookings although the collective was there to be sent
    /// (see [`RingEndpoint::nothing_was_ready`]).
    pub link_idle_secs: f64,
    /// Hops whose first slice was staged before the hop began.
    pub staged_hops: u64,
}

impl OpCodecStats {
    /// Adds what another hop staged on this collective's account.
    fn absorb(&mut self, staged: &OpCodecStats) {
        self.wire_bytes += staged.wire_bytes;
        self.codec_secs += staged.codec_secs;
        self.max_abs_err = self.max_abs_err.max(staged.max_abs_err);
        self.link_booked_secs += staged.link_booked_secs;
        self.link_idle_secs += staged.link_idle_secs;
        self.staged_hops += staged.staged_hops;
    }
}

/// Environment variable naming an emulated NIC rate in Gb/s, read when an
/// endpoint is built. When set, the endpoint's sends are released through
/// a serialised link of that rate, so loopback benchmarks become
/// bandwidth-bound like the paper's testbed.
pub const PACE_ENV: &str = "SPDKFAC_PACE_GBPS";

/// The emulated NIC of one endpoint: a serialised link of fixed rate.
///
/// A slice handed over at time `t` occupies the link from
/// `max(t, link_free)` for `bytes × s_per_byte` and is written to the real
/// transport only at the end of that interval. Invariant: **no byte is
/// readable by the peer before the serialised link would have finished
/// transmitting it, and no collective completes on any rank before that.**
/// A slice is booked only once it is encoded, never before `link_free`.
/// Reserving at hand-over and waiting at release is what lets the codec
/// work on the next slice overlap the link time of this one, the way a
/// NIC's send queue does; deadlines chain off `link_free`, not off "now",
/// so a late wake-up is not paid again by the slices queued behind it.
#[derive(Debug)]
struct Pacer {
    /// Seconds per wire byte (0 = un-paced).
    s_per_byte: f64,
    /// When the link finishes everything booked so far.
    link_free: Instant,
    /// Until when a drained link is not the transport's doing: the comm
    /// thread had nothing to send.
    excused: Instant,
}

impl Pacer {
    fn from_env() -> Pacer {
        let s_per_byte = std::env::var(PACE_ENV)
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|g| *g > 0.0)
            .map_or(0.0, |gbps| 8.0 / (gbps * 1e9));
        let now = Instant::now();
        Pacer {
            s_per_byte,
            link_free: now,
            excused: now,
        }
    }

    /// Books `bytes` on the link behind everything already booked, on
    /// `acct`'s account; returns when their last byte leaves it (`None`
    /// when un-paced).
    fn reserve(&mut self, bytes: usize, acct: &mut OpCodecStats) -> Option<Instant> {
        if self.s_per_byte == 0.0 {
            return None;
        }
        let now = Instant::now();
        let booked = Duration::from_secs_f64(bytes as f64 * self.s_per_byte);
        let drained = now.saturating_duration_since(self.link_free.max(self.excused));
        acct.link_idle_secs += drained.as_secs_f64();
        acct.link_booked_secs += booked.as_secs_f64();
        self.link_free = self.link_free.max(now) + booked;
        Some(self.link_free)
    }

    /// Blocks until a deadline returned by [`Pacer::reserve`] has passed.
    fn release_at(ready: Option<Instant>) {
        while let Some(left) = ready.and_then(|t| t.checked_duration_since(Instant::now())) {
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left);
        }
    }
}

/// What a rank puts on the wire during one [`RingEndpoint::hop`].
enum Tx<'a> {
    /// Freshly encoded values (accumulating hops).
    Fresh(&'a [f64]),
    /// Freshly encoded values that every rank must end up agreeing on: each
    /// slice is overwritten with its own decode, landed through the sink.
    Replicated(&'a mut [f64], Sink),
    /// The body kept by the previous hop, verbatim, under this origin.
    Carry { origin: usize },
    /// The frame this hop receives, header and all, slice by slice as it
    /// arrives (the broadcast's chain relay).
    Forward,
}

impl Tx<'_> {
    /// Element count of a frame this rank originates.
    fn fresh_elems(&self) -> usize {
        match self {
            Tx::Fresh(vals) => vals.len(),
            Tx::Replicated(vals, _) => vals.len(),
            Tx::Carry { .. } | Tx::Forward => 0,
        }
    }
}

/// What a rank takes off the wire during one [`RingEndpoint::hop`].
struct Rx<'a> {
    /// The origin the frame must name.
    origin: usize,
    /// Where the decoded values go: the frame must carry exactly as many.
    dst: &'a mut [f64],
    /// How they land there.
    sink: Sink,
}

/// The frame this rank sends *after* the current hop's, as far as the hop
/// can know it — what it stages slice 0 of before releasing its own last
/// slice (DESIGN.md §2.10, "The slot").
///
/// | next frame | slice 0 is final | staged |
/// |---|---|---|
/// | `Fresh` / `Replicated`: the next hop encodes what this one receives | once receive-slice 0 has landed (a hop of ≥ 2 slices) | encoded into the free `tx` half, booked |
/// | `Carry`: the next hop relays the body this one keeps | once receive-slice 0 has arrived | booked (the bytes stay where they are) |
/// | `Queued`: the first frame of the collective behind this one | it was submitted whole | encoded under *its* format into the free `tx` half, booked |
enum Then<'q> {
    /// Nothing this hop can stage.
    Nothing,
    /// The next hop sends what this one receives as [`Tx::Fresh`].
    Fresh,
    /// The next hop sends what this one receives as [`Tx::Replicated`].
    Replicated(Sink),
    /// The next hop sends the body this one receives as [`Tx::Carry`]:
    /// keep it.
    Carry,
    /// This is the collective's last hop on this rank.
    Queued(&'q mut dyn Lookahead),
}

impl<'q> Then<'q> {
    /// Hands the value over, leaving `Nothing` (for the one hop of a loop
    /// that gets it).
    fn take(&mut self) -> Then<'q> {
        std::mem::replace(self, Then::Nothing)
    }
}

/// The ring collectives, as a queued request names them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Collective {
    /// [`RingEndpoint::allreduce_sum`].
    AllReduceSum,
    /// [`RingEndpoint::allreduce_avg`].
    AllReduceAvg,
    /// [`RingEndpoint::broadcast`].
    Broadcast {
        /// The rank whose data every rank ends up with.
        root: usize,
    },
}

impl Collective {
    /// The traffic-accounting kind of the collective.
    pub fn kind(self) -> OpKind {
        match self {
            Collective::AllReduceSum | Collective::AllReduceAvg => OpKind::AllReduce,
            Collective::Broadcast { .. } => OpKind::Broadcast,
        }
    }
}

/// A collective waiting behind the running one: which it is, the format
/// it travels in, and the buffer it was submitted with.
pub struct Queued<'a> {
    /// The collective.
    pub call: Collective,
    /// Its wire format — a property of its frames, not of the endpoint.
    pub fmt: WireFormat,
    /// Its buffer, as [`RingEndpoint`]'s method of the same name takes it.
    pub data: &'a mut [f64],
}

/// The caller's queue of collectives, as far as the ring needs to see it.
pub trait Lookahead {
    /// The collective that runs next on this endpoint, if it is known by
    /// now. Asked at most once per collective, when its last hop is about
    /// to release its last slice; whatever is returned must be the next
    /// collective run, with that buffer.
    fn peek(&mut self) -> Option<Queued<'_>>;
}

/// Nothing is queued behind a collective run on its own.
#[derive(Debug)]
pub struct Idle;

impl Lookahead for Idle {
    fn peek(&mut self) -> Option<Queued<'_>> {
        None
    }
}

/// Smallest body cut in two: from here on a hop has a second slice, hence
/// a slice in flight while the next hop's first one is staged. A constant
/// like [`SLICE_BYTES`], and for its reason: sender and receiver derive the
/// cut from the body length alone.
const SPLIT_FLOOR_BYTES: usize = 16 * 1024;

/// Slices a `total`-byte body travels in: as few as keep each within
/// [`SLICE_BYTES`], two from [`SPLIT_FLOOR_BYTES`] up; an empty body still
/// has the one its header rides with.
fn slices(total: usize) -> usize {
    total
        .div_ceil(SLICE_BYTES)
        .max(1 + usize::from(total >= SPLIT_FLOOR_BYTES))
}

/// Byte range of slice `i` of a `total`-byte body: [`slices`] near-equal
/// pieces, every cut on an 8-byte boundary (a whole element in any dense
/// format), the last piece the shortest.
fn slice(i: usize, total: usize) -> Range<usize> {
    let n = slices(total);
    let cut = |k: usize| (k * total).div_ceil(n).next_multiple_of(8).min(total);
    cut(i)..cut(i + 1)
}

/// `buf[at..at + n]`, growing `buf` when needed (never shrinking: the
/// buffers settle at the largest slice or body they have carried).
fn window(buf: &mut Vec<u8>, at: usize, n: usize) -> &mut [u8] {
    if buf.len() < at + n {
        buf.resize(at + n, 0);
    }
    &mut buf[at..at + n]
}

/// Slice 0 of an outgoing frame, encoded where it will be sent from and
/// booked on the link — by the hop that sends the frame, or ahead of it by
/// the hop before.
#[derive(Debug)]
struct Staged {
    /// The frame's wire format.
    fmt: WireFormat,
    /// The frame's body length.
    total: usize,
    /// The `tx` half slice 0 sits in.
    half: usize,
    /// When the link releases slice 0.
    ready: Option<Instant>,
    /// What staging it cost and booked, when that is another collective's
    /// account than the one that was running.
    codec: OpCodecStats,
}

/// One rank's view of the ring: its identity, its transport to the
/// neighbours, and the shared traffic counters.
#[derive(Debug)]
pub struct RingEndpoint {
    /// This rank's index in `0..world`.
    pub rank: usize,
    /// Number of ranks in the ring.
    pub world: usize,
    /// Point-to-point link to the neighbours (send right / recv left).
    transport: Box<dyn Transport>,
    /// Shared traffic counters.
    pub stats: Arc<TrafficStats>,
    /// Accounting of the running collective since the last `take_codec`.
    codec: OpCodecStats,
    pacer: Pacer,
    /// Send staging: slice `i` of the outgoing body is encoded into
    /// `tx[(half + i) % 2]` while slice `i - 1` waits for the link in the
    /// other. The half the last slice does not use takes slice 0 of the
    /// frame after it.
    tx: [Vec<u8>; 2],
    half: usize,
    /// Slice 0 of the next outgoing frame, when the previous hop staged it.
    staged: Option<Staged>,
    /// Receive buffer: one slice of a body, or the whole of a body kept
    /// for relay.
    rx: Vec<u8>,
    /// Encoded body (and its element count) kept for [`Tx::Carry`].
    carry: Vec<u8>,
    carry_elems: usize,
}

impl RingEndpoint {
    /// Assembles an endpoint from its parts (pacing is read from
    /// [`PACE_ENV`]).
    pub fn new(
        rank: usize,
        world: usize,
        transport: Box<dyn Transport>,
        stats: Arc<TrafficStats>,
    ) -> Self {
        assert!(rank < world, "rank {rank} out of range for world {world}");
        RingEndpoint {
            rank,
            world,
            transport,
            stats,
            codec: OpCodecStats::default(),
            pacer: Pacer::from_env(),
            tx: [Vec::new(), Vec::new()],
            half: 0,
            staged: None,
            rx: Vec::new(),
            carry: Vec::new(),
            carry_elems: 0,
        }
    }

    /// The backend name of the underlying transport (`"channel"`, `"tcp"`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Drains the accounting of the collective that just ran. What it
    /// staged for its successor is not in it: that travels with the staged
    /// slice and is drained after the successor.
    pub fn take_codec(&mut self) -> OpCodecStats {
        std::mem::take(&mut self.codec)
    }

    /// The caller found its queue empty and waited for the collective it
    /// is about to run: the link having drained up to now is not counted
    /// as idle ([`OpCodecStats::link_idle_secs`]).
    pub fn nothing_was_ready(&mut self) {
        self.pacer.excused = Instant::now();
    }

    fn left(&self) -> usize {
        (self.rank + self.world - 1) % self.world
    }

    fn malformed(&self, why: impl std::fmt::Display) -> CommError {
        CommError::Io(format!("malformed frame from rank {}: {why}", self.left()))
    }

    fn note_codec(&mut self, since: Instant, err: f64) {
        self.codec.codec_secs += since.elapsed().as_secs_f64();
        self.codec.max_abs_err = self.codec.max_abs_err.max(err);
    }

    /// Makes slice `i` of a `total`-byte outgoing body whose slice 0 sits
    /// in `tx[half]` ready to write — for fresh values, encodes it into
    /// `tx[(half + i) % 2]` — and books it on the link. Returns when the
    /// link releases it.
    fn stage(
        &mut self,
        fmt: WireFormat,
        tx: &mut Tx<'_>,
        half: usize,
        i: usize,
        total: usize,
    ) -> Option<Instant> {
        let bytes = slice(i, total);
        if let Tx::Fresh(_) | Tx::Replicated(..) = tx {
            let eb = elem_bytes(fmt);
            let elems = bytes.start / eb..bytes.end / eb;
            let buf = window(&mut self.tx[(half + i) % 2], 0, bytes.len());
            let t0 = Instant::now();
            let err = match tx {
                Tx::Replicated(vals, sink) => {
                    let err = wire::encode_into(fmt, &vals[elems.clone()], buf);
                    // The lossless round trip is the identity.
                    if !(fmt.is_lossless() && *sink == Sink::Store) {
                        wire::decode(fmt, buf, &mut vals[elems], *sink);
                    }
                    err
                }
                Tx::Fresh(vals) => wire::encode_into(fmt, &vals[elems], buf),
                Tx::Carry { .. } | Tx::Forward => unreachable!("matched above"),
            };
            self.note_codec(t0, err);
        }
        self.pacer.reserve(bytes.len(), &mut self.codec)
    }

    /// Opens an outgoing frame from `tx[half]`: sizes it, stages slice 0
    /// and books it.
    fn open(&mut self, fmt: WireFormat, tx: &mut Tx<'_>, half: usize) -> Staged {
        let total = match tx {
            Tx::Carry { .. } => self.carry.len(),
            _ => tx.fresh_elems() * elem_bytes(fmt),
        };
        Staged {
            fmt,
            total,
            half,
            ready: self.stage(fmt, tx, half, 0, total),
            codec: OpCodecStats::default(),
        }
    }

    /// The frame a queued collective opens with on this rank, if its first
    /// hop sends one of its own.
    fn first_tx<'a>(&self, call: Collective, data: &'a mut [f64]) -> Option<Tx<'a>> {
        let (p, rank) = (self.world, self.rank);
        if p == 1 {
            return None;
        }
        match call {
            Collective::AllReduceSum | Collective::AllReduceAvg => {
                let data: &'a [f64] = data;
                Some(Tx::Fresh(&data[chunk_range(data.len(), p, rank)]))
            }
            Collective::Broadcast { root } => {
                (rank == root).then_some(Tx::Replicated(data, Sink::Store))
            }
        }
    }

    /// The look-ahead: called when everything the running hop sends has
    /// been staged, stages slice 0 of the frame this rank sends next (see
    /// [`Then`] for when that is possible) into `tx[half]`. `landed` counts
    /// the receive slices this hop has decoded so far.
    fn stage_next(
        &mut self,
        fmt: WireFormat,
        half: usize,
        then: &mut Then<'_>,
        rx: Option<&mut Rx<'_>>,
        landed: usize,
        in_total: usize,
    ) {
        self.staged = match then {
            Then::Nothing => None,
            Then::Queued(queue) => queue.peek().and_then(|next| {
                let mut tx = self.first_tx(next.call, next.data)?;
                // Encoded and booked on the queued collective's account.
                let running = std::mem::take(&mut self.codec);
                let mut staged = self.open(next.fmt, &mut tx, half);
                staged.codec = std::mem::replace(&mut self.codec, running);
                Some(staged)
            }),
            _ if landed == 0 => None,
            Then::Carry => Some(Staged {
                fmt,
                total: in_total,
                half,
                ready: self
                    .pacer
                    .reserve(slice(0, in_total).len(), &mut self.codec),
                codec: OpCodecStats::default(),
            }),
            Then::Fresh | Then::Replicated(_) => {
                let Some(rx) = rx else {
                    unreachable!("a hop re-sends only what it receives")
                };
                let mut tx = match then {
                    Then::Replicated(sink) => Tx::Replicated(&mut *rx.dst, *sink),
                    _ => Tx::Fresh(&*rx.dst),
                };
                Some(self.open(fmt, &mut tx, half))
            }
        };
    }

    /// Reads the next frame header and checks it against what the hop must
    /// carry — before a single body byte is read or buffered for. Returns
    /// the raw header and the body length.
    fn read_header(
        &mut self,
        fmt: WireFormat,
        rx: &Rx<'_>,
    ) -> Result<([u8; FRAME_HEADER_BYTES], usize), CommError> {
        let mut raw = [0u8; FRAME_HEADER_BYTES];
        self.transport.recv(&mut raw)?;
        let h = FrameHeader::from_bytes(&raw);
        if h.tag != fmt.tag() {
            return Err(self.malformed(format!("tag {} on a {fmt} hop", h.tag)));
        }
        if h.origin != rx.origin as u64 {
            return Err(self.malformed(format!(
                "origin {} where rank {} was due",
                h.origin, rx.origin
            )));
        }
        let elems = rx.dst.len();
        let n = elems * elem_bytes(fmt);
        if h.nbytes != n as u64 {
            return Err(self.malformed(format!(
                "{} body bytes on a {fmt} hop of {elems} elements",
                h.nbytes
            )));
        }
        Ok((raw, n))
    }

    /// The streaming primitive under every collective: sends at most one
    /// frame to the right neighbour and receives at most one from the left,
    /// both in slices of `fmt`, interleaved (see the module docs for the
    /// slot), then stages the first slice of `then`. A hop that fails
    /// discards whatever was staged.
    fn hop(
        &mut self,
        fmt: WireFormat,
        tx: Option<Tx<'_>>,
        rx: Option<Rx<'_>>,
        then: Then<'_>,
    ) -> Result<(), CommError> {
        let done = self.stream(fmt, tx, rx, then);
        if done.is_err() {
            self.staged = None;
        }
        done
    }

    fn stream(
        &mut self,
        fmt: WireFormat,
        mut tx: Option<Tx<'_>>,
        mut rx: Option<Rx<'_>>,
        mut then: Then<'_>,
    ) -> Result<(), CommError> {
        let eb = elem_bytes(fmt);
        let forward = matches!(tx, Some(Tx::Forward));
        debug_assert!(!forward || rx.is_some(), "forwarding needs a frame");
        let keep = matches!(then, Then::Carry);

        // The outgoing frame, unless it is the incoming one: its slice 0
        // was staged by the hop before this one, or is now.
        let (mut out_head, mut out_total, mut out_elems) = ([0u8; FRAME_HEADER_BYTES], 0, 0);
        let (mut ready, mut n_out) = (None, 0);
        if let Some(tx) = tx.as_mut().filter(|_| !forward) {
            let staged = match self.staged.take() {
                Some(ahead) => {
                    self.codec.absorb(&ahead.codec);
                    self.codec.staged_hops += 1;
                    ahead
                }
                None => self.open(fmt, tx, self.half),
            };
            let origin;
            (origin, out_elems) = match *tx {
                Tx::Carry { origin } => (origin, self.carry_elems),
                _ => (self.rank, tx.fresh_elems()),
            };
            let expected = match tx {
                Tx::Carry { .. } => self.carry.len(),
                _ => out_elems * eb,
            };
            assert!(
                staged.fmt == fmt && expected == staged.total,
                "rank {}: a {} frame of {} bytes was staged where a {fmt} frame of {expected} \
                 is sent",
                self.rank,
                staged.fmt,
                staged.total
            );
            (self.half, out_total, ready) = (staged.half, staged.total, staged.ready);
            n_out = slices(out_total);
            out_head = FrameHeader {
                origin: origin as u64,
                tag: fmt.tag(),
                nbytes: out_total as u64,
            }
            .to_bytes();
        } else {
            debug_assert!(self.staged.is_none(), "a staged frame nobody sends");
            if tx.is_none() {
                // Nothing of its own to send: nothing to wait for either.
                self.stage_next(fmt, self.half, &mut then, None, 0, 0);
            }
        }
        let (mut n_in, mut in_total) = (usize::from(rx.is_some()), 0);

        let mut i = 0;
        while i < n_out.max(n_in) {
            if let Some(tx) = tx.as_mut().filter(|_| !forward && i < n_out) {
                // The next slice — of this frame, or after its last slice
                // of whatever this rank sends next — is encoded and booked
                // before slice i is released: its codec time hides in link
                // time, and the link is never left to drain in between.
                let next = if i + 1 < n_out {
                    self.stage(fmt, tx, self.half, i + 1, out_total)
                } else {
                    let free = (self.half + n_out) % 2;
                    self.stage_next(fmt, free, &mut then, rx.as_mut(), i.min(n_in), in_total);
                    None
                };
                Pacer::release_at(ready);
                let body = match tx {
                    Tx::Carry { .. } => &self.carry[slice(i, out_total)],
                    _ => &self.tx[(self.half + i) % 2][..slice(i, out_total).len()],
                };
                let head = if i == 0 { &out_head[..] } else { &[] };
                self.transport.send(head, body)?;
                ready = next;
            }
            if let Some(rx) = rx.as_mut() {
                if i == 0 {
                    let (raw, n) = self.read_header(fmt, rx)?;
                    (in_total, n_in) = (n, slices(n));
                    if forward {
                        (out_head, out_total, n_out) = (raw, n, n_in);
                    }
                }
                if i < n_in {
                    let bytes = slice(i, in_total);
                    // A kept body accumulates; other slices reuse the front.
                    let at = if keep { bytes.start } else { 0 };
                    self.transport.recv(window(&mut self.rx, at, bytes.len()))?;
                    let released = forward
                        .then(|| self.pacer.reserve(bytes.len(), &mut self.codec))
                        .flatten();
                    let got = &self.rx[at..at + bytes.len()];
                    let t0 = Instant::now();
                    let elems = bytes.start / eb..bytes.end / eb;
                    wire::decode(fmt, got, &mut rx.dst[elems], rx.sink);
                    self.codec.codec_secs += t0.elapsed().as_secs_f64();
                    if forward {
                        if i + 1 == n_in {
                            // A relay sends from `rx`: both halves are free.
                            self.stage_next(fmt, self.half, &mut then, None, 0, 0);
                        }
                        Pacer::release_at(released);
                        let head = if i == 0 { &out_head[..] } else { &[] };
                        self.transport.send(head, &self.rx[at..at + bytes.len()])?;
                    }
                }
            }
            i += 1;
        }

        // The header check and the decode held the frame to this length.
        let in_elems = rx.map_or(0, |rx| rx.dst.len());
        if forward {
            out_elems = in_elems;
        }
        if keep {
            self.rx.truncate(in_total);
            std::mem::swap(&mut self.rx, &mut self.carry);
            self.carry_elems = in_elems;
        }
        if tx.is_some() {
            self.stats.record_message(out_elems, out_total as u64);
            self.codec.wire_bytes += out_total as u64;
        }
        Ok(())
    }

    /// In-place ring all-reduce (sum) over `buf`, travelling as `fmt`.
    ///
    /// After the call every rank holds the element-wise sum of all ranks'
    /// buffers — bit-identical across ranks even under lossy wire formats
    /// (module docs, "Bit parity"). All ranks must pass buffers of
    /// identical length. `ahead` is what the caller has queued behind this
    /// collective ([`Idle`]: nothing), here and in every method below.
    pub fn allreduce_sum(
        &mut self,
        fmt: WireFormat,
        buf: &mut [f64],
        ahead: &mut dyn Lookahead,
    ) -> Result<(), CommError> {
        self.allreduce(fmt, buf, Sink::Store, ahead)
    }

    /// In-place ring all-reduce (average): the `1/P` rides the final decode
    /// pass of every chunk instead of a sweep over the finished buffer.
    pub fn allreduce_avg(
        &mut self,
        fmt: WireFormat,
        buf: &mut [f64],
        ahead: &mut dyn Lookahead,
    ) -> Result<(), CommError> {
        self.allreduce(fmt, buf, Sink::Scaled(1.0 / self.world as f64), ahead)
    }

    /// Reduce-scatter steps: after step `s`, chunk `rank - s` has been
    /// forwarded; at the end, chunk `(rank + 1) % p` is fully reduced here.
    /// Partial sums change at every hop, so every hop sends fresh bytes —
    /// of the chunk the hop before it received. `last` is what follows the
    /// final step.
    fn reduce_scatter(
        &mut self,
        fmt: WireFormat,
        buf: &mut [f64],
        mut last: Then<'_>,
    ) -> Result<(), CommError> {
        let (p, left) = (self.world, self.left());
        for step in 0..p - 1 {
            let send = chunk_range(buf.len(), p, (self.rank + p - step) % p);
            let recv = chunk_range(buf.len(), p, (self.rank + p - step - 1) % p);
            let (send, recv) = disjoint(buf, send, recv);
            let rx = Rx {
                origin: left,
                dst: recv,
                sink: Sink::Add,
            };
            let then = if step + 2 < p {
                Then::Fresh
            } else {
                last.take()
            };
            self.hop(fmt, Some(Tx::Fresh(send)), Some(rx), then)?;
        }
        Ok(())
    }

    fn allreduce(
        &mut self,
        fmt: WireFormat,
        buf: &mut [f64],
        land: Sink,
        ahead: &mut dyn Lookahead,
    ) -> Result<(), CommError> {
        let (p, left) = (self.world, self.left());
        if p > 1 {
            self.reduce_scatter(fmt, buf, Then::Replicated(land))?;
            // All-gather the fully-reduced chunks: step 0 originates ours,
            // later steps forward what the previous step received.
            for step in 0..p - 1 {
                let send = chunk_range(buf.len(), p, (self.rank + 1 + p - step) % p);
                let recv = chunk_range(buf.len(), p, (self.rank + p - step) % p);
                let (send, recv) = disjoint(buf, send, recv);
                let tx = if step == 0 {
                    Tx::Replicated(send, land)
                } else {
                    Tx::Carry { origin: self.rank }
                };
                let rx = Rx {
                    origin: left,
                    dst: recv,
                    sink: land,
                };
                let then = if step + 2 < p {
                    Then::Carry
                } else {
                    Then::Queued(&mut *ahead)
                };
                self.hop(fmt, Some(tx), Some(rx), then)?;
            }
        }
        self.stats.record_op();
        Ok(())
    }

    /// Cut-through broadcast of `buf` from `root` to every rank: each relay
    /// forwards a slice as soon as it has read it.
    ///
    /// Non-root ranks overwrite `buf` with the root's data; under lossy
    /// formats all ranks, the root included, end bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `root >= world`.
    pub fn broadcast(
        &mut self,
        fmt: WireFormat,
        buf: &mut [f64],
        root: usize,
        ahead: &mut dyn Lookahead,
    ) -> Result<(), CommError> {
        assert!(root < self.world, "broadcast: root {root} out of range");
        if self.world > 1 {
            let (tx, rx) = if self.rank == root {
                (Some(Tx::Replicated(buf, Sink::Store)), None)
            } else {
                let last = (self.rank + 1) % self.world == root;
                let rx = Rx {
                    origin: root,
                    dst: buf,
                    sink: Sink::Store,
                };
                ((!last).then_some(Tx::Forward), Some(rx))
            };
            self.hop(fmt, tx, rx, Then::Queued(ahead))?;
        }
        self.stats.record_op();
        Ok(())
    }
}

/// Wire bytes per element of `fmt`: the ring streams fixed-width frames
/// only.
fn elem_bytes(fmt: WireFormat) -> usize {
    fmt.dense_elem_bytes()
        .unwrap_or_else(|| panic!("the ring streams f64 / f32 / f16 frames, not {fmt}"))
}

/// `buf[a]` and `buf[b]` at once, for two ranges that do not overlap.
fn disjoint(buf: &mut [f64], a: Range<usize>, b: Range<usize>) -> (&mut [f64], &mut [f64]) {
    if a.end <= b.start {
        let (lo, hi) = buf.split_at_mut(b.start);
        (&mut lo[a], &mut hi[..b.len()])
    } else {
        assert!(b.end <= a.start, "ring chunks {a:?} and {b:?} overlap");
        let (lo, hi) = buf.split_at_mut(a.start);
        (&mut hi[..a.len()], &mut lo[b])
    }
}

/// Range `i` of `len` elements split into `parts` contiguous,
/// maximally-equal ranges.
///
/// This is the single chunking rule of the crate: the ring algorithms, the
/// fusion planner's traffic model, and the tests all derive shard layouts
/// from it. Ranges are in *elements*, not bytes — wire encoding happens
/// after chunking, so chunk boundaries are format-independent.
pub fn chunk_range(len: usize, parts: usize, i: usize) -> Range<usize> {
    assert!(i < parts, "chunk_range: part {i} of {parts}");
    let (base, extra) = (len / parts, len % parts);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// All `parts` ranges of [`chunk_range`], in order.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "chunk_ranges: zero parts");
    (0..parts).map(|i| chunk_range(len, parts, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 5, 16, 17, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let rs = chunk_ranges(len, parts);
                assert_eq!(rs.len(), parts);
                assert_eq!(rs.first().unwrap().start, 0);
                assert_eq!(rs.last().unwrap().end, len);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Max size difference of 1.
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let (mn, mx) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn slices_cut_a_body_into_even_aligned_pieces() {
        let check = |total: usize| {
            let n = slices(total);
            let floor = 1 + usize::from(total >= SPLIT_FLOOR_BYTES);
            assert_eq!(n, total.div_ceil(SLICE_BYTES).max(floor), "{total}");
            let pieces: Vec<Range<usize>> = (0..n).map(|i| slice(i, total)).collect();
            // In order, nothing lost, nothing twice.
            assert_eq!((pieces[0].start, pieces[n - 1].end), (0, total), "{total}");
            for w in pieces.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{total}");
            }
            let longest = pieces.iter().map(|p| p.len()).max().expect("a piece");
            assert!(longest <= SLICE_BYTES, "{total}: a piece of {longest}");
            for p in &pieces {
                assert!(!p.is_empty() || total == 0, "{total}: {p:?}");
                // Every cut falls between elements of any dense format.
                assert!(
                    p.end % 8 == 0 || p.end == total,
                    "{total}: cut at {}",
                    p.end
                );
            }
            let short = pieces.iter().filter(|p| p.len() + 8 < longest).count();
            assert!(short <= 1, "{total}: {short} short pieces in {pieces:?}");
        };
        for total in [0, 1, 7, 8] {
            check(total);
        }
        for total in SPLIT_FLOOR_BYTES - 8..=SPLIT_FLOOR_BYTES + 8 {
            check(total);
        }
        for k in 1..=6 {
            for total in k * SLICE_BYTES - 8..=k * SLICE_BYTES + 8 {
                check(total);
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            check((state >> 33) as usize % (4 << 20));
        }
    }

    #[test]
    fn endpoint_surfaces_transport_failure() {
        // A 2-rank ring where the peer endpoint is dropped: the survivor's
        // collective must return Disconnected, not panic.
        let mut transports = crate::transport::channel_ring(2);
        let t1 = transports.pop().unwrap();
        let t0 = transports.pop().unwrap();
        drop(t1);
        let stats = Arc::new(TrafficStats::new());
        let mut ep = RingEndpoint::new(0, 2, Box::new(t0), stats);
        let mut buf = vec![1.0; 8];
        let err = ep
            .allreduce_sum(WireFormat::F64, &mut buf, &mut Idle)
            .unwrap_err();
        assert!(matches!(err, CommError::Disconnected(_)), "{err}");
    }

    /// Runs `body` on every rank of a `world`-sized channel ring.
    fn spmd<T: Send>(world: usize, body: impl Fn(&mut RingEndpoint) -> T + Sync) -> Vec<T> {
        let transports = crate::transport::channel_ring(world);
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (rank, (t, slot)) in transports.into_iter().zip(out.iter_mut()).enumerate() {
                let body = &body;
                scope.spawn(move || {
                    let stats = Arc::new(TrafficStats::new());
                    let mut ep = RingEndpoint::new(rank, world, Box::new(t), stats);
                    *slot = Some(body(&mut ep));
                });
            }
        });
        out.into_iter().map(|v| v.expect("rank result")).collect()
    }

    #[test]
    fn lossy_allreduce_is_bit_identical_across_ranks() {
        for fmt in [WireFormat::F32, WireFormat::F16] {
            let results = spmd(4, |ep| {
                let mut buf: Vec<f64> = (0..23)
                    .map(|i| (i as f64 + 1.3) * (ep.rank as f64 - 1.1))
                    .collect();
                ep.allreduce_sum(fmt, &mut buf, &mut Idle)
                    .expect("allreduce");
                buf
            });
            for r in &results[1..] {
                assert_eq!(r, &results[0], "ranks disagree under {fmt}");
            }
            // And close to the exact sum.
            let exact: Vec<f64> = (0..23)
                .map(|i| (0..4).map(|r| (i as f64 + 1.3) * (r as f64 - 1.1)).sum())
                .collect();
            let tol = if fmt == WireFormat::F16 { 0.2 } else { 1e-4 };
            for (got, want) in results[0].iter().zip(exact.iter()) {
                assert!((got - want).abs() <= tol, "{got} vs {want} under {fmt}");
            }
        }
    }

    #[test]
    fn lossy_broadcast_agrees_across_ranks() {
        let fmt = WireFormat::F16;
        let results = spmd(3, |ep| {
            let mut b: Vec<f64> = (0..17).map(|i| i as f64 * 0.31 - 2.0).collect();
            ep.broadcast(fmt, &mut b, 1, &mut Idle).expect("broadcast");
            b
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "ranks disagree");
        }
    }

    #[test]
    fn codec_accounting_tracks_wire_bytes() {
        let results = spmd(2, |ep| {
            let mut buf = vec![1.0; 16];
            ep.allreduce_sum(WireFormat::F16, &mut buf, &mut Idle)
                .expect("allreduce");
            let codec = ep.take_codec();
            let wire = ep.stats.wire_bytes_sent();
            let logical = ep.stats.bytes_sent();
            (codec, wire, logical)
        });
        for (codec, wire, logical) in results {
            // 2 messages of 8 elements at 2 bytes/elem.
            assert_eq!(wire, 32);
            assert_eq!(logical, 128);
            assert_eq!(codec.wire_bytes, 32);
            assert!(codec.codec_secs >= 0.0);
            // 1.0 and 2.0 are exact halves.
            assert_eq!(codec.max_abs_err, 0.0);
        }
    }

    /// A queue of collectives in front of one endpoint, as the comm thread
    /// holds it: `peek` exposes the head, the test pops it to run it.
    struct Script(std::collections::VecDeque<(Collective, WireFormat, Vec<f64>)>);

    impl Lookahead for Script {
        fn peek(&mut self) -> Option<Queued<'_>> {
            self.0.front_mut().map(|(call, fmt, data)| Queued {
                call: *call,
                fmt: *fmt,
                data,
            })
        }
    }

    #[test]
    fn a_frame_staged_ahead_travels_under_its_own_format_and_account() {
        // An f64 broadcast from rank 0, then an f16 all-reduce with chunks
        // of two slices, then an f32 broadcast from rank 1: the last hop of
        // each stages the first slice of the next that the rank sends,
        // under the next one's format.
        const ELEMS: usize = 24_000;
        let results = spmd(2, |ep| {
            let rank = ep.rank as f64;
            let mut script = Script(
                [
                    (
                        Collective::Broadcast { root: 0 },
                        WireFormat::F64,
                        vec![rank + 0.5; 5],
                    ),
                    (
                        Collective::AllReduceSum,
                        WireFormat::F16,
                        vec![rank + 1.0; ELEMS],
                    ),
                    (
                        Collective::Broadcast { root: 1 },
                        WireFormat::F32,
                        vec![rank + 0.25; 3],
                    ),
                ]
                .into(),
            );
            let mut accounts = Vec::new();
            let mut outputs = Vec::new();
            while let Some((call, fmt, mut data)) = script.0.pop_front() {
                match call {
                    Collective::Broadcast { root } => {
                        ep.broadcast(fmt, &mut data, root, &mut script).unwrap()
                    }
                    _ => ep.allreduce_sum(fmt, &mut data, &mut script).unwrap(),
                }
                accounts.push(ep.take_codec());
                outputs.push(data);
            }
            (accounts, outputs)
        });
        for (rank, (accounts, outputs)) in results.iter().enumerate() {
            assert_eq!(outputs[0], vec![0.5; 5]);
            assert_eq!(outputs[1], vec![3.0; ELEMS]);
            assert_eq!(outputs[2], vec![1.25; 3]);
            // Bytes are counted where they are sent, whoever staged them:
            // root 0's 5 doubles, one f16 chunk per all-reduce hop, root
            // 1's 3 floats.
            let sent: Vec<u64> = accounts.iter().map(|a| a.wire_bytes).collect();
            let (first, last) = if rank == 0 { (40, 0) } else { (0, 12) };
            assert_eq!(sent, [first, ELEMS as u64 * 2, last], "rank {rank}");
            // The first broadcast had nothing staged for it; both hops of
            // the all-reduce were (by the broadcast's only hop — also on
            // the rank that only receives it — and by its own first hop,
            // two slices long); the second broadcast's one hop was, on the
            // root that sends it, by the all-reduce's last hop.
            let staged: Vec<u64> = accounts.iter().map(|a| a.staged_hops).collect();
            assert_eq!(staged, [0, 2, rank as u64], "rank {rank}");
            // f64 travels bit-exactly, so no rounding error may have leaked
            // from the f16 slice the broadcast staged into its account.
            assert_eq!(accounts[0].max_abs_err, 0.0, "rank {rank}");
        }
    }

    #[test]
    fn a_failed_hop_discards_what_it_staged() {
        // Rank 0's peer hangs up after the all-reduce's first slice went
        // out: whatever rank 0 staged for the queued collective is dropped
        // with the failure.
        let mut transports = crate::transport::channel_ring(2);
        let t1 = transports.pop().unwrap();
        let t0 = transports.pop().unwrap();
        drop(t1);
        let mut ep = RingEndpoint::new(0, 2, Box::new(t0), Arc::new(TrafficStats::new()));
        let mut script = Script([(Collective::AllReduceSum, WireFormat::F64, vec![1.0; 8])].into());
        let mut buf = vec![1.0; 8];
        let err = ep
            .broadcast(WireFormat::F64, &mut buf, 0, &mut script)
            .unwrap_err();
        assert!(matches!(err, CommError::Disconnected(_)), "{err}");
        assert!(ep.staged.is_none());
    }
}
