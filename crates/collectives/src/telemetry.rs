//! The side telemetry channel: rank 0's collector service and the
//! per-rank span streamers that feed it.
//!
//! The protocol, clock math, and collector bookkeeping live in
//! `spdkfac_obs::collect` (pure, socket-free, unit-testable); this module
//! contributes the TCP endpoints:
//!
//! - [`TelemetryServer`] — bound by rank 0 *before* group formation so its
//!   address can ride the rendezvous aux table
//!   ([`crate::tcp::TcpConfig::aux_addr`]). One accept thread plus one
//!   reader thread per connected rank; `Ping`s are answered inline with
//!   the collector [`Recorder`]'s clock (`t1`/`t2`), batches are rebased
//!   and ingested into the shared [`CollectorState`]. Each connection is
//!   bound to the rank its `Hello` names: a client that names a different
//!   group size, an out-of-range rank, a second `Hello`, or a `Batch` /
//!   `Bye` for any rank but its own is dropped.
//! - [`SpanStreamer`] — a background thread draining a rank's
//!   [`Recorder`] through the incremental flush cursor every
//!   [`STREAM_INTERVAL`], re-pinging every [`RESYNC_INTERVAL`] so drift
//!   stays tracked on long runs, and sending a final flush plus `Bye` on
//!   shutdown. Its connection (`Hello`, NTP-style ping bursts feeding a
//!   [`ClockEstimator`], span batches stamped with the current
//!   [`ClockModel`]) is private to this module. Rank 0 runs the same loop
//!   ([`SpanStreamer::local`]) with the collector's own state as the sink
//!   instead of a socket.
//!
//! The channel is deliberately independent of the ring: telemetry loss or
//! latency can never corrupt training collectives, and the collector can
//! keep serving while ranks are busy inside a long all-reduce.

use spdkfac_obs::collect::{
    read_frame, write_frame, Batch, ClockEstimator, ClockModel, ClockSample, CollectorState, Frame,
};
use spdkfac_obs::{Recorder, Span};
use std::io::{BufReader, BufWriter, ErrorKind, Result as IoResult, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a [`SpanStreamer`] flushes newly completed spans.
pub const STREAM_INTERVAL: Duration = Duration::from_millis(50);

/// How often a [`SpanStreamer`] re-runs a ping burst to refresh its clock
/// model (drift tracking on long runs).
pub const RESYNC_INTERVAL: Duration = Duration::from_secs(2);

/// Exchanges per ping burst (the estimator keeps the tightest; more
/// exchanges shrink the uncertainty floor toward the true one-way delay).
pub const PING_BURST: usize = 8;

/// Live dashboard refresh period ([`SpanStreamer::local`] with `monitor`).
const MONITOR_INTERVAL: Duration = Duration::from_millis(500);

/// Reader-side poll timeout: how stale a blocking read may go before the
/// thread rechecks the stop flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(200);

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

// ---------------------------------------------------------------------------
// Server (rank 0)
// ---------------------------------------------------------------------------

/// Rank 0's collector service.
///
/// Bind it *before* building the comm group and advertise
/// [`TelemetryServer::local_addr`] through the rendezvous aux table; peers
/// then stream spans into the shared [`CollectorState`], which the live
/// monitor and end-of-run merge read under the mutex.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    state: Arc<Mutex<CollectorState>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `bind_ip` on an ephemeral port and starts the accept loop.
    /// `clock` is the collector-clock time source (rank 0's recorder —
    /// ping replies and ingest timestamps are stamped with its `now()`).
    pub fn spawn(bind_ip: &str, world: usize, clock: Arc<Recorder>) -> IoResult<TelemetryServer> {
        let listener = TcpListener::bind((bind_ip, 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(Mutex::new(CollectorState::new(world, 0)));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("spdkfac-telemetry-accept".into())
                .spawn(move || accept_loop(listener, state, clock, stop))?
        };
        Ok(TelemetryServer {
            addr,
            state,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound collector address (advertise this as the aux address).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared collector state (lock briefly; readers hold the merge).
    pub fn state(&self) -> Arc<Mutex<CollectorState>> {
        Arc::clone(&self.state)
    }

    /// Stops the accept loop and joins every reader thread. Connected
    /// clients should have sent `Bye` first ([`CollectorState::all_done`]);
    /// still-open streams are cut.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<Mutex<CollectorState>>,
    clock: Arc<Recorder>,
    stop: Arc<AtomicBool>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
                let state = Arc::clone(&state);
                let clock = Arc::clone(&clock);
                let stop = Arc::clone(&stop);
                if let Ok(h) = std::thread::Builder::new()
                    .name("spdkfac-telemetry-reader".into())
                    .spawn(move || reader_loop(stream, state, clock, stop))
                {
                    readers.push(h);
                }
            }
            Err(e) if is_poll_timeout(&e) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => break,
        }
    }
    for h in readers {
        let _ = h.join();
    }
}

/// Serves one client until it hangs up, breaks the protocol, or the
/// server stops. Returning drops the socket, which closes the connection.
fn reader_loop(
    stream: TcpStream,
    state: Arc<Mutex<CollectorState>>,
    clock: Arc<Recorder>,
    stop: Arc<AtomicBool>,
) {
    let mut writer = match stream.try_clone() {
        Ok(s) => BufWriter::new(s),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let world = state.lock().expect("collector state").world();
    // The rank this connection speaks for, fixed by its one `Hello`.
    let mut bound: Option<usize> = None;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) if is_poll_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return, // EOF or malformed stream: drop the client.
        };
        match frame {
            Frame::Hello { rank, world: w } => {
                let rank = rank as usize;
                if bound.is_some() || w as usize != world || rank >= world {
                    return;
                }
                bound = Some(rank);
                state.lock().expect("collector state").hello(rank);
            }
            Frame::Ping { t0 } => {
                // t1/t2 on the collector clock; answered inline so the
                // client's RTT bound stays tight.
                let t1 = clock.now();
                let t2 = clock.now();
                if write_frame(&mut writer, &Frame::Pong { t0, t1, t2 })
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return;
                }
            }
            Frame::Batch(b) => {
                let Some(rank) = bound.filter(|&r| r == b.rank as usize) else {
                    return;
                };
                let now = clock.now();
                state
                    .lock()
                    .expect("collector state")
                    .ingest(rank, b.model, b.dropped, b.spans, now);
            }
            Frame::Bye { rank } => {
                let Some(rank) = bound.filter(|&r| r == rank as usize) else {
                    return;
                };
                state.lock().expect("collector state").bye(rank);
            }
            Frame::Pong { .. } => return, // protocol violation
        }
    }
}

// ---------------------------------------------------------------------------
// Client (every rank != 0)
// ---------------------------------------------------------------------------

/// A rank's connection to the collector: clock sync + span batches.
#[derive(Debug)]
struct TelemetryClient {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    rank: usize,
    rec: Arc<Recorder>,
    estimator: ClockEstimator,
}

impl TelemetryClient {
    /// Connects, introduces itself, and runs the initial ping burst so a
    /// clock model exists before the first batch. `rec` is the rank's
    /// recorder — its epoch *is* the local clock being synchronized.
    fn connect(
        addr: &str,
        rank: usize,
        world: usize,
        rec: Arc<Recorder>,
    ) -> IoResult<TelemetryClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut client = TelemetryClient {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
            rank,
            rec,
            estimator: ClockEstimator::new(),
        };
        write_frame(
            &mut client.writer,
            &Frame::Hello {
                rank: rank as u32,
                world: world as u32,
            },
        )?;
        client.writer.flush()?;
        client.ping_burst(PING_BURST)?;
        Ok(client)
    }

    /// Runs `n` ping-pong exchanges, feeding the estimator.
    fn ping_burst(&mut self, n: usize) -> IoResult<()> {
        for _ in 0..n {
            let t0 = self.rec.now();
            write_frame(&mut self.writer, &Frame::Ping { t0 })?;
            self.writer.flush()?;
            match read_frame(&mut self.reader)? {
                Frame::Pong { t0: echoed, t1, t2 } => {
                    let t3 = self.rec.now();
                    if (echoed - t0).abs() < f64::EPSILON {
                        self.estimator
                            .add(ClockSample::from_exchange(t0, t1, t2, t3));
                    }
                }
                other => {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("expected Pong, got {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    /// The current fitted clock model (identity until the first pong).
    fn model(&self) -> ClockModel {
        self.estimator.fit().unwrap_or_else(ClockModel::identity)
    }

    /// Sends one span batch stamped with the current clock model.
    fn send_batch(&mut self, spans: Vec<Span>, dropped: u64) -> IoResult<()> {
        let batch = Frame::Batch(Batch {
            rank: self.rank as u32,
            model: self.model(),
            dropped,
            spans,
        });
        write_frame(&mut self.writer, &batch)?;
        self.writer.flush()
    }

    /// Sends the end-of-stream marker.
    fn bye(&mut self) -> IoResult<()> {
        write_frame(
            &mut self.writer,
            &Frame::Bye {
                rank: self.rank as u32,
            },
        )?;
        self.writer.flush()
    }
}

// ---------------------------------------------------------------------------
// Background streamer
// ---------------------------------------------------------------------------

/// Where a [`SpanStreamer`] delivers: the collector's socket, or — on the
/// rank that hosts the collector — its state directly (clock model =
/// identity: the collector clock *is* that rank's recorder).
enum Sink {
    Remote(TelemetryClient),
    Local {
        state: Arc<Mutex<CollectorState>>,
        /// Print the live dashboard to stderr every [`MONITOR_INTERVAL`].
        monitor: Option<Instant>,
    },
}

impl Sink {
    /// Delivers one tick of `rank`'s stream: the new spans and, on the last
    /// tick (`done`), the end-of-stream marker.
    fn deliver(
        &mut self,
        rec: &Recorder,
        rank: usize,
        spans: Vec<Span>,
        done: bool,
    ) -> IoResult<()> {
        match self {
            Sink::Remote(client) => {
                if !spans.is_empty() || done {
                    client.send_batch(spans, rec.dropped())?;
                }
                if done {
                    client.bye()?;
                }
            }
            Sink::Local { state, monitor } => {
                let now = rec.now();
                let mut st = state.lock().expect("collector state");
                st.ingest(rank, ClockModel::identity(), rec.dropped(), spans, now);
                if done {
                    st.bye(rank);
                }
                // Always leave one final dashboard behind — short runs can
                // finish inside the first refresh period.
                if monitor.is_some_and(|last| done || last.elapsed() >= MONITOR_INTERVAL) {
                    *monitor = Some(Instant::now());
                    eprintln!("{}", st.monitor_text(now));
                }
            }
        }
        Ok(())
    }
}

/// Streams a rank's recorder to the collector from a background thread:
/// incremental flushes every [`STREAM_INTERVAL`], clock re-sync every
/// [`RESYNC_INTERVAL`], final flush + `Bye` on [`SpanStreamer::finish`].
#[derive(Debug)]
pub struct SpanStreamer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<IoResult<()>>>,
}

impl SpanStreamer {
    /// Connects and starts streaming `rec`.
    pub fn spawn(
        addr: &str,
        rank: usize,
        world: usize,
        rec: Arc<Recorder>,
    ) -> IoResult<SpanStreamer> {
        let client = TelemetryClient::connect(addr, rank, world, Arc::clone(&rec))?;
        // Publish the synchronized clock model to the flight recorder so a
        // post-mortem dump can be rebased onto the collector clock even
        // though the merge pipeline never ran.
        spdkfac_obs::flight::global().set_clock_model(client.model());
        Self::start(Sink::Remote(client), rank, rec)
    }

    /// Streams `rec` — the recorder of the rank hosting `server`, whose
    /// clock is the collector clock — straight into the collector's state.
    /// With `monitor`, also prints the live dashboard to stderr.
    pub fn local(
        server: &TelemetryServer,
        rank: usize,
        rec: Arc<Recorder>,
        monitor: bool,
    ) -> IoResult<SpanStreamer> {
        server.state.lock().expect("collector state").hello(rank);
        let sink = Sink::Local {
            state: server.state(),
            monitor: monitor.then(Instant::now),
        };
        Self::start(sink, rank, rec)
    }

    fn start(mut sink: Sink, rank: usize, rec: Arc<Recorder>) -> IoResult<SpanStreamer> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let flight = spdkfac_obs::flight::global();
        let handle = std::thread::Builder::new()
            .name(format!("spdkfac-telemetry-stream-{rank}"))
            .spawn(move || {
                let mut cursor = rec.flush_cursor();
                let mut since_sync = Duration::ZERO;
                loop {
                    let done = stop2.load(Ordering::SeqCst);
                    let spans = rec.flush_since(&mut cursor);
                    sink.deliver(&rec, rank, spans, done)?;
                    if done {
                        return Ok(());
                    }
                    if since_sync >= RESYNC_INTERVAL {
                        since_sync = Duration::ZERO;
                        if let Sink::Remote(client) = &mut sink {
                            client.ping_burst(PING_BURST)?;
                            flight.set_clock_model(client.model());
                        }
                    }
                    std::thread::sleep(STREAM_INTERVAL);
                    since_sync += STREAM_INTERVAL;
                }
            })?;
        Ok(SpanStreamer {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the stream after one final flush and the `Bye` marker.
    pub fn finish(mut self) -> IoResult<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("telemetry streamer panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for SpanStreamer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_obs::Phase;

    #[test]
    fn client_syncs_clock_and_streams_batches() {
        // Server clock: a recorder whose epoch started measurably earlier.
        let server_rec = Arc::new(Recorder::new(1));
        std::thread::sleep(Duration::from_millis(30));
        let client_rec = Arc::new(Recorder::new(2));

        let server = TelemetryServer::spawn("127.0.0.1", 2, Arc::clone(&server_rec)).unwrap();
        let addr = server.local_addr().to_string();

        let mut client = TelemetryClient::connect(&addr, 1, 2, Arc::clone(&client_rec)).unwrap();
        let model = client.model();
        // The true offset is the epoch gap, measured here as the now()
        // difference at (nearly) the same wall instant.
        let truth = server_rec.now() - client_rec.now();
        assert!(
            (model.offset - truth).abs() < 0.01,
            "offset {} vs truth {truth}",
            model.offset
        );
        assert!(model.uncertainty > 0.0 && model.uncertainty < 0.01);

        // Stream a span; the collector must hold it rebased.
        {
            let _g = client_rec.span(0, Phase::FfBp);
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut cursor = client_rec.flush_cursor();
        let spans = client_rec.flush_since(&mut cursor);
        assert_eq!(spans.len(), 1);
        let local_start = spans[0].start;
        client.send_batch(spans, 0).unwrap();
        client.bye().unwrap();

        let state = server.state();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            {
                let st = state.lock().unwrap();
                if !st.merged_spans().is_empty() && st.clock_model(1).offset != 0.0 {
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "batch never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        let st = state.lock().unwrap();
        let merged = st.merged_spans();
        let rebased = st.clock_model(1).rebase(local_start);
        assert!((merged[0].start - rebased).abs() < 1e-12);
        drop(st);
        drop(server);
    }

    #[test]
    fn the_collector_drops_a_client_that_speaks_out_of_turn() {
        use spdkfac_obs::collect::encode_frame;
        use std::io::Read;

        let server_rec = Arc::new(Recorder::new(1));
        let server = TelemetryServer::spawn("127.0.0.1", 2, Arc::clone(&server_rec)).unwrap();
        let state = server.state();
        let hello = |rank, world| Frame::Hello { rank, world };
        let batch = |rank| {
            Frame::Batch(Batch {
                rank,
                model: ClockModel::identity(),
                dropped: 0,
                spans: vec![Span::new(rank as usize, Phase::FfBp, 0.0, 1.0)],
            })
        };
        // Each stream ends in a batch a collector that trusted every frame
        // would ingest.
        let cases = [
            ("another group size", vec![hello(1, 3), batch(1)]),
            ("a rank past the group", vec![hello(2, 2), batch(0)]),
            ("a second hello", vec![hello(1, 2), hello(0, 2), batch(0)]),
            ("a batch before hello", vec![batch(0)]),
            (
                "a bye before hello",
                vec![Frame::Bye { rank: 0 }, hello(0, 2), batch(0)],
            ),
            ("another rank's batch", vec![hello(1, 2), batch(0)]),
            (
                "another rank's bye",
                vec![hello(1, 2), Frame::Bye { rank: 0 }, batch(1)],
            ),
        ];
        for (what, frames) in cases {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
            stream.write_all(&wire).unwrap();
            // The server hangs up: EOF, or a reset if it left bytes unread.
            match stream.read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                other => panic!("{what}: the collector kept the client ({other:?})"),
            }
            let st = state.lock().unwrap();
            assert!(st.merged_spans().is_empty(), "{what}: a span landed");
        }

        // An honest client on the same server still lands its spans.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let wire: Vec<u8> = [hello(1, 2), batch(1)]
            .iter()
            .flat_map(encode_frame)
            .collect();
        stream.write_all(&wire).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while state.lock().unwrap().merged_spans().is_empty() {
            assert!(std::time::Instant::now() < deadline, "batch never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn streamer_flushes_and_says_bye() {
        let server_rec = Arc::new(Recorder::new(1));
        let client_rec = Arc::new(Recorder::new(2));
        let server = TelemetryServer::spawn("127.0.0.1", 1, Arc::clone(&server_rec)).unwrap();
        let addr = server.local_addr().to_string();

        let streamer = SpanStreamer::spawn(&addr, 0, 1, Arc::clone(&client_rec)).unwrap();
        for _ in 0..3 {
            let _g = client_rec.span(1, Phase::GradComm);
        }
        streamer.finish().unwrap();

        let state = server.state();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let st = state.lock().unwrap();
            if st.all_done() {
                assert_eq!(st.merged_spans().len(), 3);
                break;
            }
            drop(st);
            assert!(std::time::Instant::now() < deadline, "bye never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn local_streamer_feeds_the_collector_it_lives_with() {
        let rec = Arc::new(Recorder::new(2));
        let server = TelemetryServer::spawn("127.0.0.1", 1, Arc::clone(&rec)).unwrap();
        let streamer = SpanStreamer::local(&server, 0, Arc::clone(&rec), false).unwrap();
        for _ in 0..3 {
            let _g = rec.span(1, Phase::GradComm);
        }
        streamer.finish().unwrap();
        // No socket in between: the final flush has landed when finish returns.
        let st = server.state();
        let st = st.lock().unwrap();
        assert!(st.all_done());
        assert_eq!(st.merged_spans().len(), 3);
        assert_eq!(st.clock_model(0), ClockModel::identity());
    }
}
