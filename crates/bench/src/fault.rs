//! Fault injection for the multi-process launcher: [`Transport`]
//! decorators that `spdkfac_node` installs under the ring algorithms
//! through [`TcpConfig::wrap_transport`](spdkfac_collectives::TcpConfig::wrap_transport).
//! Production code keeps no injection path; a fault is a wrapper around the
//! connected transport, built from constants by the launcher.
//!
//! Both decorators count *frames*: the ring writes every frame header in
//! the same `send` as the first slice of its body and the later slices
//! with an empty head, so a `send` with a non-empty `head` opens a frame.
//! Every byte passes through unchanged.

use spdkfac_collectives::{CommError, Transport};
use std::ops::Range;
use std::time::Duration;

/// Exit code a killed process dies with, distinguishable from panics and
/// clean failures in the launcher's supervision.
pub const EXIT_KILLED: i32 = 113;

/// Hard-kills the process before it writes a chosen frame header, as if
/// the machine died: no dump, no goodbye, sockets reset, so the surviving
/// ranks exercise the real poisoning and post-mortem path.
#[derive(Debug)]
pub struct Kill {
    inner: Box<dyn Transport>,
    /// Frame headers written so far.
    written: u64,
    /// Headers written before the process dies.
    after: u64,
    /// What dying is (`process::exit` outside this module's tests).
    die: fn(u64) -> !,
}

fn exit(written: u64) -> ! {
    eprintln!("fault: killing this rank before frame header {written}");
    std::process::exit(EXIT_KILLED)
}

impl Kill {
    /// Writes `after` frame headers through `inner`, then exits with
    /// [`EXIT_KILLED`] when asked to write the next one.
    pub fn new(inner: Box<dyn Transport>, after: u64) -> Self {
        Kill {
            inner,
            written: 0,
            after,
            die: exit,
        }
    }
}

impl Transport for Kill {
    fn send(&mut self, head: &[u8], body: &[u8]) -> Result<(), CommError> {
        if !head.is_empty() {
            if self.written == self.after {
                (self.die)(self.written);
            }
            self.written += 1;
        }
        self.inner.send(head, body)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<(), CommError> {
        self.inner.recv(buf)
    }
}

/// A slow outgoing link for a window of frames: every slice this rank
/// sends while the frame it belongs to is inside the window is held for a
/// fixed delay before it is written. A fixed hold, not a multiple of the
/// measured call time: a receive wait includes the straggler's own earlier
/// holds coming back around the ring, so a proportional delay compounds.
#[derive(Debug)]
pub struct Straggler {
    inner: Box<dyn Transport>,
    /// Frame indices (0-based, in the order this rank writes their
    /// headers) whose slices are held.
    window: Range<u64>,
    hold: Duration,
    /// Index the next frame header gets.
    next: u64,
    /// The frame being sent is inside the window.
    holding: bool,
}

impl Straggler {
    /// Holds every slice of frames `window` for `hold` before `inner`
    /// writes it.
    pub fn new(inner: Box<dyn Transport>, window: Range<u64>, hold: Duration) -> Self {
        Straggler {
            inner,
            window,
            hold,
            next: 0,
            holding: false,
        }
    }
}

impl Transport for Straggler {
    fn send(&mut self, head: &[u8], body: &[u8]) -> Result<(), CommError> {
        if !head.is_empty() {
            self.holding = self.window.contains(&self.next);
            self.next += 1;
        }
        if self.holding {
            std::thread::sleep(self.hold);
        }
        self.inner.send(head, body)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<(), CommError> {
        self.inner.recv(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_collectives::transport::channel_ring;
    use std::time::Instant;

    /// A two-rank in-process ring: the decorated sender and its right
    /// neighbour.
    fn pair(
        wrap: impl FnOnce(Box<dyn Transport>) -> Box<dyn Transport>,
    ) -> [Box<dyn Transport>; 2] {
        let mut ring = channel_ring(2).into_iter();
        let tx = wrap(Box::new(ring.next().expect("rank 0")));
        [tx, Box::new(ring.next().expect("rank 1"))]
    }

    fn recv(t: &mut Box<dyn Transport>, n: usize) -> Vec<u8> {
        let mut got = vec![0u8; n];
        t.recv(&mut got).expect("bytes arrive");
        got
    }

    fn died(written: u64) -> ! {
        panic!("died before header {written}")
    }

    #[test]
    fn kill_dies_before_the_chosen_header_and_not_on_slices() {
        let [mut tx, mut rx] = pair(|t| {
            let mut k = Kill::new(t, 3);
            k.die = died;
            Box::new(k)
        });
        // Three frames of a header and two slices each pass, byte for byte;
        // the slices (empty head) do not count.
        for f in 0..3u8 {
            tx.send(&[f, f], &[10 + f]).unwrap();
            tx.send(&[], &[20 + f]).unwrap();
            assert_eq!(recv(&mut rx, 4), [f, f, 10 + f, 20 + f]);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = tx.send(&[3, 3], &[13]);
        }))
        .expect_err("the fourth header kills");
        assert_eq!(
            err.downcast_ref::<String>().unwrap(),
            "died before header 3"
        );
        // Nothing of the fourth frame reached the wire.
        drop(tx);
        assert!(matches!(
            rx.recv(&mut [0u8; 1]),
            Err(CommError::Disconnected(_))
        ));
    }

    #[test]
    fn straggler_holds_only_the_slices_of_frames_in_its_window() {
        let hold = Duration::from_millis(200);
        let [mut tx, mut rx] = pair(|t| Box::new(Straggler::new(t, 2..4, hold)));
        // Frames 0..5, frame 2 with a second slice: (frame, send, held).
        let sends: [(u8, &[u8], bool); 6] = [
            (0, &[0], false),
            (1, &[1], false),
            (2, &[2], true),
            (2, &[], true),
            (3, &[3], true),
            (4, &[4], false),
        ];
        for (frame, head, held) in sends {
            let t0 = Instant::now();
            tx.send(head, &[100 + frame]).unwrap();
            let took = t0.elapsed();
            assert_eq!(took >= hold, held, "frame {frame}: {took:?}");
            let mut want = head.to_vec();
            want.push(100 + frame);
            assert_eq!(recv(&mut rx, want.len()), want);
        }
        // Receives are never held.
        rx.send(&[9], &[8]).unwrap();
        let t0 = Instant::now();
        assert_eq!(recv(&mut tx, 2), [9, 8]);
        assert!(t0.elapsed() < hold);
    }
}
