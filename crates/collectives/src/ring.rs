//! Ring algorithms executed by each rank's communication thread.
//!
//! All algorithms here are written from the perspective of a single rank
//! that owns a point-to-point [`Transport`] to its ring neighbours (send
//! right, receive left). They are the textbook NCCL-style ring collectives
//! — all-reduce as reduce-scatter + all-gather (`2(P-1)` chunk frames per
//! rank), broadcast as a cut-through relay from the root, and the phases
//! and relays exposed individually — and every one of them is a sequence
//! of calls to one primitive, [`RingEndpoint::hop`]: *send at most one
//! frame right and receive at most one frame left, streaming both bodies
//! in [`SLICE_BYTES`] slices*. Per slice the comm thread runs
//!
//! ```text
//!  encode i+1 ─▶ wait(link) ─▶ write i ─▶ read i ─▶ decode/reduce i
//!  (send buf B)               (send buf A)  (recv buf)   (in place)
//! ```
//!
//! so sends and receives interleave — no rank has more than one slice in
//! flight per direction, which is what keeps an 8 MB chunk from wedging
//! every rank in `write` — and the codec work of one slice runs while the
//! (emulated) link carries the next. A chain relay (broadcast, gather)
//! runs the slot as read → write → decode from the same receive buffer.
//! All buffers belong to the endpoint and are reused: a steady-state
//! collective allocates nothing. DESIGN.md §2.10 has the full picture.
//!
//! The same hop sequence runs whether the neighbours are threads (byte
//! pipes) or processes (TCP sockets), which is what makes the two backends
//! bit-identical. Transport failures and frames that contradict what a hop
//! must carry propagate as [`CommError`] instead of panicking.
//!
//! **Bit parity under lossy formats** rests on one rule: a value that must
//! be identical on all ranks is encoded once, by the rank that completes
//! it, and every rank — that one included — materialises it by decoding
//! those bytes. Hops that accumulate (reduce-scatter, reduce) send freshly
//! encoded partial sums ([`Tx::Fresh`]); hops that replicate (broadcast,
//! all-gather, the all-gather phase of all-reduce) forward the origin's
//! bytes verbatim, and the origin overwrites its own copy with its own
//! decode ([`Tx::Replicated`]).

use crate::error::CommError;
use crate::stats::{OpKind, TrafficStats};
use crate::transport::{FrameHeader, Transport, FRAME_HEADER_BYTES, SLICE_BYTES};
use crate::wire::{self, Sink, WireFormat};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire/codec accounting for the collective(s) since the last
/// [`RingEndpoint::take_codec`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCodecStats {
    /// Actual encoded bytes this endpoint put on the wire.
    pub wire_bytes: u64,
    /// CPU seconds spent encoding + decoding.
    pub codec_secs: f64,
    /// Max absolute rounding error introduced by encoding.
    pub max_abs_err: f64,
}

/// Environment variable naming an emulated NIC rate in Gb/s, read when an
/// endpoint is built. When set, the endpoint's sends are released through
/// a [`Pacer`] so loopback benchmarks become bandwidth-bound like the
/// paper's testbed.
pub const PACE_ENV: &str = "SPDKFAC_PACE_GBPS";

/// The emulated NIC of one endpoint: a serialised link of fixed rate.
///
/// A slice handed over at time `t` occupies the link from
/// `max(t, link_free)` for `bytes × s_per_byte` and is written to the real
/// transport only at the end of that interval. Invariant: **no byte is
/// readable by the peer before the serialised link would have finished
/// transmitting it, and no collective completes on any rank before that.**
/// Reserving at hand-over and waiting at release is what lets the codec
/// work on slice *i+1* overlap the link time of slice *i*, the way a NIC's
/// send queue does; deadlines chain off `link_free`, not off "now", so a
/// late wake-up is not paid again by the slices queued behind it.
#[derive(Debug)]
struct Pacer {
    /// Seconds per wire byte (0 = un-paced).
    s_per_byte: f64,
    /// When the link finishes everything booked so far.
    link_free: Instant,
}

impl Pacer {
    fn from_env() -> Pacer {
        let s_per_byte = std::env::var(PACE_ENV)
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|g| *g > 0.0)
            .map_or(0.0, |gbps| 8.0 / (gbps * 1e9));
        Pacer {
            s_per_byte,
            link_free: Instant::now(),
        }
    }

    /// Books `bytes` on the link behind everything already booked; returns
    /// when their last byte leaves it (`None` when un-paced).
    fn reserve(&mut self, bytes: usize) -> Option<Instant> {
        if self.s_per_byte == 0.0 {
            return None;
        }
        let start = self.link_free.max(Instant::now());
        self.link_free = start + Duration::from_secs_f64(bytes as f64 * self.s_per_byte);
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
    /// Freshly encoded values (accumulating hops, gather shards).
    Fresh(&'a [f64]),
    /// Freshly encoded values that every rank must end up agreeing on: each
    /// slice is overwritten with its own decode, landed through the sink.
    Replicated(&'a mut [f64], Sink),
    /// The body kept by the previous hop, verbatim, under this origin.
    Carry { origin: usize },
    /// The frame this hop receives, header and all, slice by slice as it
    /// arrives (chain relays).
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
    /// Where the decoded values go.
    dst: Dst<'a>,
    /// How they land there.
    sink: Sink,
    /// Keep the encoded body for a [`Tx::Carry`] at the next hop.
    keep: bool,
}

impl<'a> Rx<'a> {
    fn new(origin: usize, dst: Dst<'a>, sink: Sink) -> Self {
        Rx {
            origin,
            dst,
            sink,
            keep: false,
        }
    }

    fn keep_if(self, keep: bool) -> Self {
        Rx { keep, ..self }
    }
}

enum Dst<'a> {
    /// A destination of known length: the frame must carry exactly that.
    Fixed(&'a mut [f64]),
    /// A shard whose length only the sender knows; appended as it arrives.
    Grow(&'a mut Vec<f64>),
    /// Nothing (a relay that only forwards).
    Discard,
}

/// Byte range of slice `i` of a `total`-byte body.
fn slice(i: usize, total: usize) -> Range<usize> {
    (i * SLICE_BYTES).min(total)..((i + 1) * SLICE_BYTES).min(total)
}

/// Slices a `total`-byte body travels in; an empty body still has the one
/// its header rides with.
fn slices(total: usize) -> usize {
    total.div_ceil(SLICE_BYTES).max(1)
}

/// `buf[at..at + n]`, growing `buf` when needed (never shrinking: the
/// buffers settle at the largest slice or body they have carried).
fn window(buf: &mut Vec<u8>, at: usize, n: usize) -> &mut [u8] {
    if buf.len() < at + n {
        buf.resize(at + n, 0);
    }
    &mut buf[at..at + n]
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
    /// Wire format applied to payloads this endpoint originates.
    fmt: WireFormat,
    /// Codec accounting since the last `take_codec`.
    codec: OpCodecStats,
    pacer: Pacer,
    /// Send staging: slice `i` of a dense body is encoded into `tx[i % 2]`
    /// while slice `i - 1` waits for the link in the other; a
    /// self-describing body sits whole in `tx[0]`.
    tx: [Vec<u8>; 2],
    /// Receive buffer: one slice of a dense body, or the whole of a body
    /// that is self-describing or kept for relay.
    rx: Vec<u8>,
    /// Encoded body (and its element count) kept for [`Tx::Carry`].
    carry: Vec<u8>,
    carry_elems: usize,
    /// Decoded self-describing body, before it lands.
    scratch: Vec<f64>,
}

impl RingEndpoint {
    /// Assembles an endpoint from its parts (wire format defaults to the
    /// bit-exact f64 pass-through; pacing is read from [`PACE_ENV`]).
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
            fmt: WireFormat::F64,
            codec: OpCodecStats::default(),
            pacer: Pacer::from_env(),
            tx: [Vec::new(), Vec::new()],
            rx: Vec::new(),
            carry: Vec::new(),
            carry_elems: 0,
            scratch: Vec::new(),
        }
    }

    /// The backend name of the underlying transport (`"channel"`, `"tcp"`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Sets the wire format for subsequently originated payloads.
    pub fn set_wire_format(&mut self, fmt: WireFormat) {
        self.fmt = fmt;
    }

    /// Drains the wire/codec accounting accumulated since the last call.
    pub fn take_codec(&mut self) -> OpCodecStats {
        std::mem::take(&mut self.codec)
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

    /// Encodes a whole self-describing body into `tx[0]` (adopting its
    /// decode for [`Tx::Replicated`]) and returns its length.
    fn encode_whole(&mut self, tx: &mut Tx<'_>) -> usize {
        let t0 = Instant::now();
        let err = match tx {
            Tx::Fresh(vals) => wire::encode_body(self.fmt, vals, &mut self.tx[0]),
            Tx::Replicated(vals, sink) => {
                let err = wire::encode_body(self.fmt, vals, &mut self.tx[0]);
                wire::decode_body(self.fmt, &self.tx[0], Some(vals.len()), &mut self.scratch)
                    .expect("own encoding decodes");
                sink.land_all(vals, &self.scratch);
                err
            }
            Tx::Carry { .. } | Tx::Forward => unreachable!("relays are never re-encoded"),
        };
        self.note_codec(t0, err);
        self.tx[0].len()
    }

    /// Makes slice `i` of a `total`-byte outgoing body ready to write —
    /// for fresh dense values, encodes it into `tx[i % 2]` — and books it
    /// on the link. Returns when the link releases it.
    fn stage(&mut self, tx: &mut Tx<'_>, i: usize, total: usize) -> Option<Instant> {
        let bytes = slice(i, total);
        if let (Some(eb), Tx::Fresh(_) | Tx::Replicated(..)) = (self.fmt.dense_elem_bytes(), &*tx) {
            let elems = bytes.start / eb..bytes.end / eb;
            let buf = window(&mut self.tx[i % 2], 0, bytes.len());
            let t0 = Instant::now();
            let err = match tx {
                Tx::Replicated(vals, sink) => {
                    let err = wire::encode_into(self.fmt, &vals[elems.clone()], buf);
                    // The lossless round trip is the identity.
                    if !(self.fmt.is_lossless() && *sink == Sink::Store) {
                        wire::decode(self.fmt, buf, &mut vals[elems], *sink);
                    }
                    err
                }
                Tx::Fresh(vals) => wire::encode_into(self.fmt, &vals[elems], buf),
                Tx::Carry { .. } | Tx::Forward => unreachable!("matched above"),
            };
            self.note_codec(t0, err);
        }
        self.pacer.reserve(bytes.len())
    }

    /// Reads the next frame header and checks it against what the hop must
    /// carry — before a single body byte is read or buffered for. Returns
    /// the raw header and the body length.
    fn read_header(&mut self, rx: &Rx<'_>) -> Result<([u8; FRAME_HEADER_BYTES], usize), CommError> {
        let mut raw = [0u8; FRAME_HEADER_BYTES];
        self.transport.recv(&mut raw)?;
        let h = FrameHeader::from_bytes(&raw);
        let fmt = self.fmt;
        if h.tag != fmt.tag() {
            return Err(self.malformed(format!("tag {} on a {fmt} hop", h.tag)));
        }
        if h.origin != rx.origin as u64 {
            return Err(self.malformed(format!(
                "origin {} where rank {} was due",
                h.origin, rx.origin
            )));
        }
        let ok = match (fmt.dense_elem_bytes(), &rx.dst) {
            (Some(eb), Dst::Fixed(d)) => h.nbytes == (d.len() * eb) as u64,
            (Some(eb), _) => h.nbytes.is_multiple_of(eb as u64),
            (None, Dst::Fixed(d)) => h.nbytes <= fmt.max_body_bytes(d.len()) as u64,
            (None, _) => true,
        };
        match usize::try_from(h.nbytes) {
            Ok(n) if ok => Ok((raw, n)),
            _ => Err(self.malformed(format!(
                "{} body bytes on a {fmt} hop{}",
                h.nbytes,
                match &rx.dst {
                    Dst::Fixed(d) => format!(" of {} elements", d.len()),
                    _ => String::new(),
                }
            ))),
        }
    }

    /// The streaming primitive under every collective: sends at most one
    /// frame to the right neighbour and receives at most one from the left,
    /// both in slices, interleaved (see the module docs for the slot).
    fn hop(
        &mut self,
        kind: OpKind,
        mut tx: Option<Tx<'_>>,
        mut rx: Option<Rx<'_>>,
    ) -> Result<(), CommError> {
        let fmt = self.fmt;
        let dense = fmt.dense_elem_bytes();
        let forward = matches!(tx, Some(Tx::Forward));
        debug_assert!(!forward || rx.is_some(), "forwarding needs a frame");

        // The outgoing frame, unless it is the incoming one.
        let (mut out_head, mut out_total, mut out_elems) = ([0u8; FRAME_HEADER_BYTES], 0, 0);
        let mut ready = None;
        if let Some(tx) = tx.as_mut().filter(|_| !forward) {
            let origin = if let Tx::Carry { origin } = *tx {
                (out_total, out_elems) = (self.carry.len(), self.carry_elems);
                origin
            } else {
                out_elems = tx.fresh_elems();
                out_total = match dense {
                    Some(eb) => out_elems * eb,
                    None => self.encode_whole(tx),
                };
                self.rank
            };
            out_head = FrameHeader {
                origin: origin as u64,
                tag: fmt.tag(),
                nbytes: out_total as u64,
            }
            .to_bytes();
            ready = self.stage(tx, 0, out_total);
        }
        let mut n_out = if tx.is_some() && !forward {
            slices(out_total)
        } else {
            0
        };
        let (mut n_in, mut in_total) = (usize::from(rx.is_some()), 0);

        let mut i = 0;
        while i < n_out.max(n_in) {
            if let Some(tx) = tx.as_mut().filter(|_| !forward && i < n_out) {
                // Slice i+1 is encoded and booked behind slice i before
                // slice i is released: its codec time hides in link time.
                let next = (i + 1 < n_out).then(|| self.stage(tx, i + 1, out_total));
                Pacer::release_at(ready);
                let body = match (&*tx, dense) {
                    (Tx::Carry { .. }, _) => &self.carry[slice(i, out_total)],
                    (_, Some(_)) => &self.tx[i % 2][..slice(i, out_total).len()],
                    (_, None) => &self.tx[0][slice(i, out_total)],
                };
                let head = if i == 0 { &out_head[..] } else { &[] };
                self.transport.send(head, body)?;
                ready = next.flatten();
            }
            if let Some(rx) = rx.as_mut() {
                if i == 0 {
                    let (raw, n) = self.read_header(rx)?;
                    (in_total, n_in) = (n, slices(n));
                    if forward {
                        (out_head, out_total, n_out) = (raw, n, n_in);
                    }
                }
                if i < n_in {
                    let bytes = slice(i, in_total);
                    // Whole bodies accumulate; dense slices reuse the front.
                    let at = if rx.keep || dense.is_none() {
                        bytes.start
                    } else {
                        0
                    };
                    self.transport.recv(window(&mut self.rx, at, bytes.len()))?;
                    let released = forward.then(|| self.pacer.reserve(bytes.len())).flatten();
                    let got = &self.rx[at..at + bytes.len()];
                    let t0 = Instant::now();
                    if let Some(eb) = dense {
                        let elems = bytes.start / eb..bytes.end / eb;
                        match &mut rx.dst {
                            Dst::Fixed(d) => wire::decode(fmt, got, &mut d[elems], rx.sink),
                            Dst::Grow(v) => {
                                let old = v.len();
                                v.resize(old + elems.len(), 0.0);
                                wire::decode(fmt, got, &mut v[old..], rx.sink);
                            }
                            Dst::Discard => {}
                        }
                    } else if i + 1 == n_in {
                        let body = &self.rx[..in_total];
                        let decoded = match &mut rx.dst {
                            Dst::Fixed(d) => {
                                wire::decode_body(fmt, body, Some(d.len()), &mut self.scratch)
                                    .map(|()| rx.sink.land_all(d, &self.scratch))
                            }
                            Dst::Grow(v) => wire::decode_body(fmt, body, None, &mut self.scratch)
                                .map(|()| v.extend_from_slice(&self.scratch)),
                            Dst::Discard => Ok(()),
                        };
                        if let Err(why) = decoded {
                            return Err(self.malformed(why));
                        }
                    }
                    self.codec.codec_secs += t0.elapsed().as_secs_f64();
                    if forward {
                        Pacer::release_at(released);
                        let head = if i == 0 { &out_head[..] } else { &[] };
                        self.transport.send(head, &self.rx[at..at + bytes.len()])?;
                    }
                }
            }
            i += 1;
        }

        let in_elems = match (dense, &rx) {
            (_, None) => 0,
            (Some(eb), _) => in_total / eb,
            (None, _) => {
                wire::body_elems(fmt, &self.rx[..in_total]).map_err(|why| self.malformed(why))?
            }
        };
        if forward {
            out_elems = in_elems;
        }
        if rx.is_some_and(|rx| rx.keep) {
            self.rx.truncate(in_total);
            std::mem::swap(&mut self.rx, &mut self.carry);
            self.carry_elems = in_elems;
        }
        if tx.is_some() {
            self.stats
                .record_message_kind(kind, out_elems, out_total as u64);
            self.codec.wire_bytes += out_total as u64;
        }
        Ok(())
    }

    /// In-place ring all-reduce (sum) over `buf`.
    ///
    /// After the call every rank holds the element-wise sum of all ranks'
    /// buffers — bit-identical across ranks even under lossy wire formats
    /// (module docs, "Bit parity"). All ranks must pass buffers of
    /// identical length.
    pub fn allreduce_sum(&mut self, buf: &mut [f64]) -> Result<(), CommError> {
        self.allreduce(buf, Sink::Store)
    }

    /// In-place ring all-reduce (average): the `1/P` rides the final decode
    /// pass of every chunk instead of a sweep over the finished buffer.
    pub fn allreduce_avg(&mut self, buf: &mut [f64]) -> Result<(), CommError> {
        self.allreduce(buf, Sink::Scaled(1.0 / self.world as f64))
    }

    /// Reduce-scatter steps: after step `s`, chunk `rank - s` has been
    /// forwarded; at the end, chunk `(rank + 1) % p` is fully reduced here.
    /// Partial sums change at every hop, so every hop sends fresh bytes.
    fn reduce_scatter(&mut self, kind: OpKind, buf: &mut [f64]) -> Result<(), CommError> {
        let (p, left) = (self.world, self.left());
        for step in 0..p - 1 {
            let send = chunk_range(buf.len(), p, (self.rank + p - step) % p);
            let recv = chunk_range(buf.len(), p, (self.rank + p - step - 1) % p);
            let (send, recv) = disjoint(buf, send, recv);
            let rx = Rx::new(left, Dst::Fixed(recv), Sink::Add);
            self.hop(kind, Some(Tx::Fresh(send)), Some(rx))?;
        }
        Ok(())
    }

    fn allreduce(&mut self, buf: &mut [f64], land: Sink) -> Result<(), CommError> {
        let (p, left) = (self.world, self.left());
        if p > 1 {
            self.reduce_scatter(OpKind::AllReduce, buf)?;
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
                let rx = Rx::new(left, Dst::Fixed(recv), land).keep_if(step + 2 < p);
                self.hop(OpKind::AllReduce, Some(tx), Some(rx))?;
            }
        }
        self.stats.record_op_kind(OpKind::AllReduce);
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
    pub fn broadcast(&mut self, buf: &mut [f64], root: usize) -> Result<(), CommError> {
        assert!(root < self.world, "broadcast: root {root} out of range");
        if self.world > 1 {
            let (tx, rx) = if self.rank == root {
                (Some(Tx::Replicated(buf, Sink::Store)), None)
            } else {
                let last = (self.rank + 1) % self.world == root;
                let rx = Rx::new(root, Dst::Fixed(buf), Sink::Store);
                ((!last).then_some(Tx::Forward), Some(rx))
            };
            self.hop(OpKind::Broadcast, tx, rx)?;
        }
        self.stats.record_op_kind(OpKind::Broadcast);
        Ok(())
    }

    /// Ring reduce-scatter (average), in place: returns the range of `buf`
    /// that now holds this rank's fully-reduced, averaged shard (the rest
    /// of `buf` holds partial sums).
    ///
    /// The shard assigned to rank `r` is chunk `(r + 1) % world` of the equal
    /// partition (the chunk the ring algorithm completes on rank `r`).
    pub fn reduce_scatter_avg(&mut self, buf: &mut [f64]) -> Result<Range<usize>, CommError> {
        let p = self.world;
        if p > 1 {
            self.reduce_scatter(OpKind::ReduceScatter, buf)?;
        }
        let own = chunk_range(buf.len(), p, (self.rank + 1) % p);
        let inv = 1.0 / p as f64;
        for v in &mut buf[own.clone()] {
            *v *= inv;
        }
        self.stats.record_op_kind(OpKind::ReduceScatter);
        Ok(own)
    }

    /// Ring reduce to `root`: after the call `root`'s buffer holds the
    /// element-wise sum; other ranks' buffers hold the partial sum they
    /// passed on. A relay around the ring ending at the root — each hop
    /// adds its local contribution, so each hop sends fresh bytes.
    ///
    /// # Panics
    ///
    /// Panics if `root >= world`.
    pub fn reduce_sum(&mut self, buf: &mut [f64], root: usize) -> Result<(), CommError> {
        assert!(root < self.world, "reduce: root {root} out of range");
        let p = self.world;
        if p > 1 {
            // The relay starts at the rank after the root.
            if self.rank != (root + 1) % p {
                let rx = Rx::new(self.left(), Dst::Fixed(buf), Sink::Add);
                self.hop(OpKind::Reduce, None, Some(rx))?;
            }
            if self.rank != root {
                self.hop(OpKind::Reduce, Some(Tx::Fresh(buf)), None)?;
            }
        }
        self.stats.record_op_kind(OpKind::Reduce);
        Ok(())
    }

    /// Ring gather to `root`: returns `Some(concatenation of all ranks'
    /// shards in rank order)` on the root, `None` elsewhere. Relays
    /// forward encoded shards verbatim (no mid-ring decode).
    ///
    /// # Panics
    ///
    /// Panics if `root >= world`.
    pub fn gather(&mut self, shard: &[f64], root: usize) -> Result<Option<Vec<f64>>, CommError> {
        assert!(root < self.world, "gather: root {root} out of range");
        let p = self.world;
        // Every non-root sends its own shard, then forwards everything its
        // left neighbour sends: that neighbour's shard first, then the ones
        // from further upstream in the order they were passed along.
        let rank = self.rank;
        let upstream = move |k: usize| (rank + p - 1 - k) % p;
        let mut gathered = None;
        if self.rank == root {
            let mut by_origin = vec![Vec::new(); p];
            by_origin[root] = shard.to_vec();
            for origin in (0..p - 1).map(upstream) {
                let rx = Rx::new(origin, Dst::Grow(&mut by_origin[origin]), Sink::Store);
                self.hop(OpKind::Gather, None, Some(rx))?;
            }
            gathered = Some(by_origin.concat());
        } else {
            self.hop(OpKind::Gather, Some(Tx::Fresh(shard)), None)?;
            let hops_to_root = (root + p - self.rank) % p;
            for origin in (0..p - 1 - hops_to_root).map(upstream) {
                let rx = Rx::new(origin, Dst::Discard, Sink::Store);
                self.hop(OpKind::Gather, Some(Tx::Forward), Some(rx))?;
            }
        }
        self.stats.record_op_kind(OpKind::Gather);
        Ok(gathered)
    }

    /// Ring all-gather of variable-length shards.
    ///
    /// Returns the concatenation of all ranks' shards in rank order,
    /// bit-identical on every rank.
    pub fn allgather(&mut self, shard: &[f64]) -> Result<Vec<f64>, CommError> {
        let p = self.world;
        let mut by_origin = vec![Vec::new(); p];
        let mut own = shard.to_vec();
        // Pass shards around the ring; at step s we forward what we received
        // at step s-1 (starting with our own shard).
        for step in 0..p - 1 {
            let sent = (self.rank + p - step) % p;
            let origin = (sent + p - 1) % p;
            let tx = if step == 0 {
                Tx::Replicated(&mut own, Sink::Store)
            } else {
                Tx::Carry { origin: sent }
            };
            let rx = Rx::new(origin, Dst::Grow(&mut by_origin[origin]), Sink::Store);
            self.hop(OpKind::AllGather, Some(tx), Some(rx.keep_if(step + 2 < p)))?;
        }
        by_origin[self.rank] = own;
        self.stats.record_op_kind(OpKind::AllGather);
        Ok(by_origin.concat())
    }
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
        let err = ep.allreduce_sum(&mut buf).unwrap_err();
        assert!(matches!(err, CommError::Disconnected(_)), "{err}");
    }

    /// Runs `body` on every rank of a `world`-sized channel ring.
    fn spmd<T: Send>(
        world: usize,
        fmt: WireFormat,
        body: impl Fn(&mut RingEndpoint) -> T + Sync,
    ) -> Vec<T> {
        let transports = crate::transport::channel_ring(world);
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (rank, (t, slot)) in transports.into_iter().zip(out.iter_mut()).enumerate() {
                let body = &body;
                scope.spawn(move || {
                    let stats = Arc::new(TrafficStats::new());
                    let mut ep = RingEndpoint::new(rank, world, Box::new(t), stats);
                    ep.set_wire_format(fmt);
                    *slot = Some(body(&mut ep));
                });
            }
        });
        out.into_iter().map(|v| v.expect("rank result")).collect()
    }

    #[test]
    fn lossy_allreduce_is_bit_identical_across_ranks() {
        for fmt in [WireFormat::F32, WireFormat::F16] {
            let results = spmd(4, fmt, |ep| {
                let mut buf: Vec<f64> = (0..23)
                    .map(|i| (i as f64 + 1.3) * (ep.rank as f64 - 1.1))
                    .collect();
                ep.allreduce_sum(&mut buf).expect("allreduce");
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
    fn lossy_broadcast_and_allgather_agree_across_ranks() {
        let results = spmd(3, WireFormat::F16, |ep| {
            let mut b: Vec<f64> = (0..17).map(|i| i as f64 * 0.31 - 2.0).collect();
            ep.broadcast(&mut b, 1).expect("broadcast");
            let shard = vec![ep.rank as f64 + 0.123; 5];
            let g = ep.allgather(&shard).expect("allgather");
            (b, g)
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "ranks disagree");
        }
    }

    #[test]
    fn codec_accounting_tracks_wire_bytes() {
        let results = spmd(2, WireFormat::F16, |ep| {
            let mut buf = vec![1.0; 16];
            ep.allreduce_sum(&mut buf).expect("allreduce");
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
}
