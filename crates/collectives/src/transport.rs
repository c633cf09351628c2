//! The point-to-point transport abstraction beneath the ring algorithms.
//!
//! Every collective in [`crate::ring`] is written against two primitives —
//! *write these bytes to my right neighbour* and *fill this buffer from my
//! left neighbour* — so the entire algorithm layer is generic over where
//! the bytes actually go. A transport is a reliable, ordered **byte
//! stream** per ring edge; framing ([`FrameHeader`]) and the
//! [`crate::wire`] codec run above it, in the ring endpoint, which is what
//! lets a chunk travel as slices. Two implementations ship:
//!
//! - [`ChannelTransport`]: the in-process backend. Neighbour ranks live on
//!   threads of the same process and each edge is a bounded in-memory byte
//!   pipe with the blocking behaviour of a socket. Infallible short of a
//!   peer thread dying.
//! - [`crate::tcp::TcpTransport`]: ranks are separate OS processes connected
//!   by TCP sockets with configurable read/write timeouts and connect
//!   retry — see [`crate::tcp`].
//!
//! The contract is deliberately minimal: a transport is owned by exactly one
//! communication thread (hence `&mut self` and `Send`, no `Sync`), buffers
//! at least [`SLICE_BYTES`] plus a header per edge (so every rank of a ring
//! can write one slice before any of them reads), and reports failures as
//! [`CommError`] rather than panicking — the asynchronous-handle layer
//! ([`crate::PendingOp`]) forwards them to the submitting worker.

use crate::error::CommError;
use crate::stats::OpKind;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Most wire bytes a slice of a streamed chunk body carries (the ring cuts a
/// body into the fewest near-equal slices that stay within it). One slice is
/// the unit of everything the hop pipelines: a blocking write, a blocking
/// read, a codec kernel call, a pacer reservation. 64 KiB keeps a slice (8k
/// doubles) inside L2 next to its destination, amortises the two syscalls
/// and the pacer wake-up over ~10 µs of copying, and is below what any
/// socket buffers per direction — the property that lets every rank write
/// before it reads without a large message wedging the ring.
pub const SLICE_BYTES: usize = 64 * 1024;

/// Size of an encoded [`FrameHeader`].
pub const FRAME_HEADER_BYTES: usize = 17;

/// The header that opens every chunk on the wire, all little-endian; the
/// body follows as `nbytes` encoded bytes, streamed in slices:
///
/// ```text
/// +---------------+----------+---------------+------------------------+
/// | origin: u64   | tag: u8  | nbytes: u64   | nbytes encoded payload |
/// +---------------+----------+---------------+------------------------+
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Rank whose data the frame carries.
    pub origin: u64,
    /// Body encoding ([`crate::wire::WireFormat::tag`]).
    pub tag: u8,
    /// Body length in bytes.
    pub nbytes: u64,
}

impl FrameHeader {
    /// Serialises the header.
    pub fn to_bytes(self) -> [u8; FRAME_HEADER_BYTES] {
        let mut b = [0u8; FRAME_HEADER_BYTES];
        b[..8].copy_from_slice(&self.origin.to_le_bytes());
        b[8] = self.tag;
        b[9..].copy_from_slice(&self.nbytes.to_le_bytes());
        b
    }

    /// Reads the fields back; whether they make sense for the hop is the
    /// receiver's check, made before it reads a body byte.
    pub fn from_bytes(b: &[u8; FRAME_HEADER_BYTES]) -> Self {
        FrameHeader {
            origin: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
            tag: b[8],
            nbytes: u64::from_le_bytes(b[9..].try_into().expect("8 bytes")),
        }
    }
}

/// A reliable, ordered byte stream from this rank to its ring neighbours:
/// `send` targets the right neighbour (`(rank + 1) % world`), `recv`
/// sources the left neighbour (`(rank + world - 1) % world`).
pub trait Transport: Send + std::fmt::Debug {
    /// Writes `head` then `body` to the right neighbour, in full. The two
    /// parts let a frame header ride in the same write as the first slice
    /// of its body without being copied in front of it.
    fn send(&mut self, head: &[u8], body: &[u8]) -> Result<(), CommError>;

    /// Fills `buf` from the left neighbour, blocking (subject to the
    /// backend's read timeout, if any) until every byte has arrived.
    fn recv(&mut self, buf: &mut [u8]) -> Result<(), CommError>;

    /// Short backend name for diagnostics (`"channel"`, `"tcp"`, …).
    fn kind(&self) -> &'static str;
}

/// Bytes one in-process ring edge buffers before its writer blocks.
const PIPE_BYTES: usize = 4 * SLICE_BYTES;

/// One direction of one in-process ring edge: a bounded byte queue with the
/// blocking semantics of a socket pair.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    moved: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    bytes: VecDeque<u8>,
    /// Either end was dropped.
    hung_up: bool,
}

fn disconnected(dir: &str) -> CommError {
    CommError::Disconnected(format!(
        "ring neighbour disconnected mid-collective ({dir})"
    ))
}

impl Pipe {
    fn write(&self, mut bytes: &[u8]) -> Result<(), CommError> {
        let mut st = self.state.lock().map_err(|_| disconnected("send"))?;
        while !bytes.is_empty() {
            if st.hung_up {
                return Err(disconnected("send"));
            }
            let n = bytes.len().min(PIPE_BYTES - st.bytes.len());
            if n == 0 {
                st = self.moved.wait(st).map_err(|_| disconnected("send"))?;
                continue;
            }
            st.bytes.extend(&bytes[..n]);
            bytes = &bytes[n..];
            self.moved.notify_all();
        }
        Ok(())
    }

    fn read(&self, buf: &mut [u8]) -> Result<(), CommError> {
        let mut st = self.state.lock().map_err(|_| disconnected("recv"))?;
        let mut filled = 0;
        while filled < buf.len() {
            if st.bytes.is_empty() {
                // Bytes written before a hang-up are still delivered.
                if st.hung_up {
                    return Err(disconnected("recv"));
                }
                st = self.moved.wait(st).map_err(|_| disconnected("recv"))?;
                continue;
            }
            let n = (buf.len() - filled).min(st.bytes.len());
            let (front, back) = st.bytes.as_slices();
            let nf = n.min(front.len());
            buf[filled..filled + nf].copy_from_slice(&front[..nf]);
            buf[filled + nf..filled + n].copy_from_slice(&back[..n - nf]);
            st.bytes.drain(..n);
            filled += n;
            self.moved.notify_all();
        }
        Ok(())
    }

    fn hang_up(&self) {
        // A poisoned lock means the peer died mid-transfer; it will see
        // the poison itself.
        if let Ok(mut st) = self.state.lock() {
            st.hung_up = true;
        }
        self.moved.notify_all();
    }
}

/// In-process transport: bounded byte pipes to/from neighbour threads.
#[derive(Debug)]
pub struct ChannelTransport {
    to_right: Arc<Pipe>,
    from_left: Arc<Pipe>,
}

impl Transport for ChannelTransport {
    fn send(&mut self, head: &[u8], body: &[u8]) -> Result<(), CommError> {
        self.to_right.write(head)?;
        self.to_right.write(body)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<(), CommError> {
        self.from_left.read(buf)
    }

    fn kind(&self) -> &'static str {
        "channel"
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.to_right.hang_up();
        self.from_left.hang_up();
    }
}

/// Builds the `world` channel transports of an in-process ring: edge `i`
/// connects rank `i`'s writer to rank `(i + 1) % world`'s reader. The
/// returned vector is indexed by rank. A one-rank ring is wired to itself
/// (the ring algorithms never touch the wire when `world == 1`, but a
/// well-formed transport keeps that invariant out of the type system).
pub fn channel_ring(world: usize) -> Vec<ChannelTransport> {
    assert!(world > 0, "channel_ring: zero-rank ring");
    let edges: Vec<Arc<Pipe>> = (0..world).map(|_| Arc::default()).collect();
    (0..world)
        .map(|rank| ChannelTransport {
            to_right: Arc::clone(&edges[rank]),
            from_left: Arc::clone(&edges[(rank + world - 1) % world]),
        })
        .collect()
}

/// Environment variable holding a [`DelayInjection`] spec.
pub const INJECT_DELAY_ENV: &str = "SPDKFAC_INJECT_DELAY";

#[derive(Debug, Clone, Copy, PartialEq)]
struct DelayRule {
    /// `None` = any rank (`*`).
    rank: Option<usize>,
    /// `None` = any op kind (`*`).
    op: Option<OpKind>,
    mult: f64,
    /// The rule only applies once the rank has executed at least this many
    /// collectives (0 = from the start).
    after: u64,
}

/// Fault-injection knob for straggler experiments: slows selected ranks'
/// collectives by a multiplier, so a real multi-rank run can demonstrate
/// the straggler in its merged trace and OnDrift re-planning end-to-end.
///
/// Spec grammar (env `SPDKFAC_INJECT_DELAY` or [`DelayInjection::parse`]):
/// comma-separated `rank:op:multiplier` rules, `*` wildcards for rank and
/// op, op names as in [`OpKind::name`] (`allreduce`, `broadcast`). The
/// multiplier may carry an `@afterN` suffix: the rule only activates once
/// the rank has executed `N` collectives, which lets one static spec
/// describe a *mid-run* perturbation (and, paired with a later `@after`
/// rule that resets to 1.0, a bounded delay window). The **last** matching
/// *active* rule wins, so broad defaults can precede narrow overrides:
///
/// ```text
/// SPDKFAC_INJECT_DELAY="*:*:1.0,2:allreduce:3.0"   # rank 2's all-reduces 3× slower
/// SPDKFAC_INJECT_DELAY="1:*:2.5"                   # rank 1 slow on everything
/// SPDKFAC_INJECT_DELAY="1:*:4.0@after60,1:*:1.0@after200"  # slow window [60, 200)
/// ```
///
/// The delay is applied on the communication thread *after* the collective
/// executes (the measured busy time is stretched by `mult − 1`), so peers
/// observe the straggler through genuinely later completion and the
/// straggler's own spans show the stretched duration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelayInjection {
    rules: Vec<DelayRule>,
}

impl DelayInjection {
    /// Reads the spec from `SPDKFAC_INJECT_DELAY`. `None` when unset or
    /// empty; a malformed spec panics (fail fast — a silently ignored
    /// injection would invalidate the experiment).
    pub fn from_env() -> Option<DelayInjection> {
        let spec = std::env::var(INJECT_DELAY_ENV).ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match DelayInjection::parse(&spec) {
            Ok(d) => Some(d),
            Err(e) => panic!("invalid {INJECT_DELAY_ENV} spec {spec:?}: {e}"),
        }
    }

    /// Parses a spec string (see the type docs for the grammar).
    pub fn parse(spec: &str) -> Result<DelayInjection, String> {
        let mut rules = Vec::new();
        for rule in spec.split(',') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            let parts: Vec<&str> = rule.split(':').collect();
            let [rank, op, mult] = parts[..] else {
                return Err(format!("rule {rule:?} is not rank:op:multiplier"));
            };
            let rank = match rank {
                "*" => None,
                r => Some(r.parse::<usize>().map_err(|e| format!("rank {r:?}: {e}"))?),
            };
            let op = match op {
                "*" => None,
                name => Some(
                    OpKind::ALL
                        .iter()
                        .copied()
                        .find(|k| k.name() == name)
                        .ok_or_else(|| format!("unknown op kind {name:?}"))?,
                ),
            };
            let (mult_str, after) = match mult.split_once('@') {
                None => (mult, 0u64),
                Some((m, suffix)) => {
                    let n = suffix
                        .strip_prefix("after")
                        .ok_or_else(|| format!("bad suffix {suffix:?} (expected afterN)"))?;
                    let after = n
                        .parse::<u64>()
                        .map_err(|e| format!("after-count {n:?}: {e}"))?;
                    (m, after)
                }
            };
            let mult = mult_str
                .parse::<f64>()
                .map_err(|e| format!("multiplier {mult_str:?}: {e}"))?;
            if !mult.is_finite() || mult < 1.0 {
                return Err(format!("multiplier {mult} must be finite and >= 1"));
            }
            rules.push(DelayRule {
                rank,
                op,
                mult,
                after,
            });
        }
        if rules.is_empty() {
            return Err("empty spec".into());
        }
        Ok(DelayInjection { rules })
    }

    /// The slowdown for `rank` executing `op` as its `executed`-th
    /// collective (last matching active rule wins; 1.0 = no delay).
    pub fn multiplier(&self, rank: usize, op: OpKind, executed: u64) -> f64 {
        self.rules
            .iter()
            .rev()
            .find(|r| {
                r.rank.is_none_or(|rr| rr == rank)
                    && r.op.is_none_or(|ro| ro == op)
                    && executed >= r.after
            })
            .map(|r| r.mult)
            .unwrap_or(1.0)
    }

    /// `true` when some op kind on `rank` is slowed at some point.
    pub fn affects(&self, rank: usize) -> bool {
        self.rules
            .iter()
            .any(|r| r.rank.is_none_or(|rr| rr == rank) && r.mult > 1.0)
    }
}

/// Environment variable holding a [`KillInjection`] spec.
pub const INJECT_KILL_ENV: &str = "SPDKFAC_KILL";

/// Exit code a kill-injected process dies with (distinguishable from
/// panics and clean failures in the launcher's failure report).
pub const KILL_EXIT_CODE: i32 = 113;

/// Fault-injection knob for failure-forensics experiments: hard-kills one
/// rank's process mid-run, as if the machine died. The communication
/// thread checks the trigger before each collective and calls
/// `process::exit` — no dump, no goodbye, sockets reset — so the surviving
/// ranks exercise the real poisoning + post-mortem path.
///
/// Spec grammar (env `SPDKFAC_KILL` or [`KillInjection::parse`]):
/// `rank:afterN` — rank `rank` dies just before executing its `N`-th
/// collective (0-based count of executed ops):
///
/// ```text
/// SPDKFAC_KILL="2:after40"   # rank 2 dies before its 40th collective
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillInjection {
    /// The rank to kill.
    pub rank: usize,
    /// Die just before executing this many-th collective.
    pub after: u64,
}

impl KillInjection {
    /// Reads the spec from `SPDKFAC_KILL`. `None` when unset or empty; a
    /// malformed spec panics (fail fast — a silently ignored injection
    /// would invalidate the experiment).
    pub fn from_env() -> Option<KillInjection> {
        let spec = std::env::var(INJECT_KILL_ENV).ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match KillInjection::parse(&spec) {
            Ok(k) => Some(k),
            Err(e) => panic!("invalid {INJECT_KILL_ENV} spec {spec:?}: {e}"),
        }
    }

    /// Parses a `rank:afterN` spec.
    pub fn parse(spec: &str) -> Result<KillInjection, String> {
        let (rank, suffix) = spec
            .trim()
            .split_once(':')
            .ok_or_else(|| format!("spec {spec:?} is not rank:afterN"))?;
        let rank = rank
            .parse::<usize>()
            .map_err(|e| format!("rank {rank:?}: {e}"))?;
        let n = suffix
            .strip_prefix("after")
            .ok_or_else(|| format!("bad suffix {suffix:?} (expected afterN)"))?;
        let after = n
            .parse::<u64>()
            .map_err(|e| format!("after-count {n:?}: {e}"))?;
        Ok(KillInjection { rank, after })
    }

    /// True when `rank` should die before executing its `executed`-th
    /// collective.
    pub fn fires(&self, rank: usize, executed: u64) -> bool {
        rank == self.rank && executed >= self.after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_round_trips() {
        let h = FrameHeader {
            origin: 3,
            tag: 2,
            nbytes: 1 << 33,
        };
        let b = h.to_bytes();
        assert_eq!(b.len(), FRAME_HEADER_BYTES);
        assert_eq!(FrameHeader::from_bytes(&b), h);
    }

    #[test]
    fn channel_ring_routes_right() {
        let mut ring = channel_ring(3);
        // Rank 0 sends; rank 1 (its right neighbour) receives head + body
        // as one stream.
        ring[0].send(&[1, 2], &[3]).unwrap();
        let mut got = [0u8; 3];
        ring[1].recv(&mut got).unwrap();
        assert_eq!(got, [1, 2, 3]);
        // Rank 2 sends; rank 0 receives (wrap-around edge).
        ring[2].send(&[], &[7]).unwrap();
        let mut got = [0u8; 1];
        ring[0].recv(&mut got).unwrap();
        assert_eq!(got, [7]);
        // A one-rank ring is wired to itself.
        let mut solo = channel_ring(1).pop().unwrap();
        solo.send(&[], &[9]).unwrap();
        solo.recv(&mut got).unwrap();
        assert_eq!(got, [9]);
    }

    #[test]
    fn channel_writer_blocks_at_capacity_and_resumes() {
        // More than the pipe holds: the writer must block until the reader
        // drains, and every byte must arrive in order.
        let mut ring = channel_ring(2);
        let mut rx = ring.pop().unwrap();
        let mut tx = ring.pop().unwrap();
        let data: Vec<u8> = (0..3 * PIPE_BYTES).map(|i| i as u8).collect();
        let want = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(&[], &data).unwrap());
            let mut got = vec![0u8; want.len()];
            rx.recv(&mut got).unwrap();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn channel_disconnect_is_an_error_not_a_panic() {
        let mut ring = channel_ring(2);
        let t1 = ring.pop().unwrap();
        drop(t1);
        let mut t0 = ring.pop().unwrap();
        assert!(matches!(
            t0.send(&[], &[0]),
            Err(CommError::Disconnected(_))
        ));
        assert!(matches!(
            t0.recv(&mut [0u8; 1]),
            Err(CommError::Disconnected(_))
        ));
    }

    #[test]
    fn delay_spec_parses_with_wildcards_and_last_match_wins() {
        let d = DelayInjection::parse("*:*:1.0, 2:allreduce:3.0, 3:broadcast:2.0").unwrap();
        assert_eq!(d.multiplier(2, OpKind::AllReduce, 0), 3.0);
        assert_eq!(d.multiplier(3, OpKind::Broadcast, 0), 2.0);
        assert_eq!(d.multiplier(2, OpKind::Broadcast, 0), 1.0);
        assert_eq!(d.multiplier(0, OpKind::AllReduce, 0), 1.0);
        assert!(d.affects(2));
        assert!(!d.affects(0));

        // Narrow rule first, broad override after: the broad one wins.
        let d = DelayInjection::parse("1:allreduce:4.0,1:*:1.5").unwrap();
        assert_eq!(d.multiplier(1, OpKind::AllReduce, 0), 1.5);

        assert!(DelayInjection::parse("").is_err());
        assert!(DelayInjection::parse("1:allreduce").is_err());
        assert!(DelayInjection::parse("x:*:2.0").is_err());
        assert!(DelayInjection::parse("1:frobnicate:2.0").is_err());
        // Only the collectives the ring runs have a name.
        let err = DelayInjection::parse("1:gather:2.0").unwrap_err();
        assert!(err.contains("unknown op kind"), "{err}");
        assert!(DelayInjection::parse("1:*:0.5").is_err());
        assert!(DelayInjection::parse("1:*:inf").is_err());
    }

    #[test]
    fn delay_windows_activate_after_a_count() {
        // A slow window [60, 200) on rank 1's collectives.
        let d = DelayInjection::parse("1:*:4.0@after60,1:*:1.0@after200").unwrap();
        assert_eq!(d.multiplier(1, OpKind::AllReduce, 0), 1.0);
        assert_eq!(d.multiplier(1, OpKind::AllReduce, 59), 1.0);
        assert_eq!(d.multiplier(1, OpKind::AllReduce, 60), 4.0);
        assert_eq!(d.multiplier(1, OpKind::AllReduce, 199), 4.0);
        assert_eq!(d.multiplier(1, OpKind::AllReduce, 200), 1.0);
        assert_eq!(d.multiplier(0, OpKind::AllReduce, 100), 1.0);
        assert!(d.affects(1));

        assert!(DelayInjection::parse("1:*:2.0@60").is_err());
        assert!(DelayInjection::parse("1:*:2.0@afterx").is_err());
    }

    #[test]
    fn kill_spec_parses_and_fires_at_the_count() {
        let k = KillInjection::parse("2:after40").unwrap();
        assert_eq!(k, KillInjection { rank: 2, after: 40 });
        assert!(!k.fires(2, 39));
        assert!(k.fires(2, 40));
        assert!(k.fires(2, 41));
        assert!(!k.fires(1, 100));
        // Immediate kill.
        let now = KillInjection::parse("0:after0").unwrap();
        assert!(now.fires(0, 0));

        assert!(KillInjection::parse("").is_err());
        assert!(KillInjection::parse("2").is_err());
        assert!(KillInjection::parse("x:after3").is_err());
        assert!(KillInjection::parse("2:40").is_err());
        assert!(KillInjection::parse("2:afterx").is_err());
    }
}
