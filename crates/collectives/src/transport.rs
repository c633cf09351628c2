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
//! A decorator that wraps a transport (the launcher's fault injectors) is
//! installed through [`crate::tcp::TcpConfig::wrap_transport`].
//!
//! The contract is deliberately minimal: a transport is owned by exactly one
//! communication thread (hence `&mut self` and `Send`, no `Sync`), buffers
//! at least [`SLICE_BYTES`] plus a header per edge (so every rank of a ring
//! can write one slice before any of them reads), and reports failures as
//! [`CommError`] rather than panicking — the asynchronous-handle layer
//! ([`crate::PendingOp`]) forwards them to the submitting worker.

use crate::error::CommError;
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
}
