//! Traffic accounting shared by all ranks of a group.

use std::sync::atomic::{AtomicU64, Ordering};

/// The collective operations the group can execute, for per-kind metrics
/// and latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Ring all-reduce (sum or average; both phases).
    AllReduce,
    /// Pipelined broadcast.
    Broadcast,
}

impl OpKind {
    /// Every kind, in display order.
    pub const ALL: [OpKind; 2] = [OpKind::AllReduce, OpKind::Broadcast];

    /// Stable lowercase name (used in metric names and trace labels).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::AllReduce => "allreduce",
            OpKind::Broadcast => "broadcast",
        }
    }

    /// Stable small index (the `ALL` position).
    pub fn index(self) -> usize {
        match self {
            OpKind::AllReduce => 0,
            OpKind::Broadcast => 1,
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cumulative wire-traffic counters for a communicator group.
///
/// On the local backend of a [`crate::CommGroup`] the counters are shared by
/// every rank and updated by the communication threads; on the TCP backend
/// each process counts only its own rank's sends. They let tests assert the
/// textbook ring
/// costs (`2(P-1)/P · n` elements per rank for an all-reduce) and let the
/// experiment harness report measured traffic alongside modelled traffic.
/// The per-kind breakdown lives in the recorder's metrics
/// (`coll/<kind>/{ops,elements,wire_bytes}`, see
/// [`WorkerComm::set_recorder`](crate::WorkerComm::set_recorder)).
///
/// Two byte views exist: *logical* bytes ([`TrafficStats::bytes_sent`],
/// 8 bytes per `f64` element, independent of encoding) and *wire* bytes
/// ([`TrafficStats::wire_bytes_sent`], the actual post-encoding payload
/// size recorded by the ring endpoint — equal to logical bytes under the
/// f64 pass-through, half/quarter under f32/f16).
#[derive(Debug, Default)]
pub struct TrafficStats {
    elements_sent: AtomicU64,
    messages_sent: AtomicU64,
    ops_executed: AtomicU64,
    wire_bytes_sent: AtomicU64,
}

impl TrafficStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one point-to-point message of `elements` logical `f64`s that
    /// occupied `wire_bytes` encoded bytes.
    pub fn record_message(&self, elements: usize, wire_bytes: u64) {
        self.elements_sent
            .fetch_add(elements as u64, Ordering::Relaxed);
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.wire_bytes_sent
            .fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Records completion of one collective operation on one rank.
    pub fn record_op(&self) {
        self.ops_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `f64` elements sent over all point-to-point edges.
    pub fn elements_sent(&self) -> u64 {
        self.elements_sent.load(Ordering::Relaxed)
    }

    /// Total point-to-point messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Total per-rank collective executions (a `P`-rank all-reduce counts `P`).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed.load(Ordering::Relaxed)
    }

    /// Total *logical* bytes sent: 8 bytes per element (the in-memory `f64`
    /// representation the ring moves), regardless of wire encoding.
    pub fn bytes_sent(&self) -> u64 {
        self.elements_sent() * 8
    }

    /// Total *wire* bytes actually sent after encoding (8 B/element under
    /// the default f64 pass-through, less under compressed formats).
    pub fn wire_bytes_sent(&self) -> u64 {
        self.wire_bytes_sent.load(Ordering::Relaxed)
    }

    /// Zeroes every counter; use between measured windows.
    pub fn reset(&self) {
        self.elements_sent.store(0, Ordering::Relaxed);
        self.messages_sent.store(0, Ordering::Relaxed);
        self.ops_executed.store(0, Ordering::Relaxed);
        self.wire_bytes_sent.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TrafficStats::new();
        s.record_message(10, 80);
        s.record_message(5, 40);
        s.record_op();
        assert_eq!(s.elements_sent(), 15);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.ops_executed(), 1);
        assert_eq!(s.bytes_sent(), 120);
        assert_eq!(s.wire_bytes_sent(), 120);
    }

    #[test]
    fn default_is_zero() {
        let s = TrafficStats::default();
        assert_eq!(s.elements_sent(), 0);
        assert_eq!(s.messages_sent(), 0);
        assert_eq!(s.ops_executed(), 0);
        assert_eq!(s.wire_bytes_sent(), 0);
    }

    #[test]
    fn wire_bytes_track_actual_encoding() {
        let s = TrafficStats::new();
        // 10 elements sent as f16: 20 wire bytes vs 80 logical.
        s.record_message(10, 20);
        assert_eq!(s.bytes_sent(), 80); // logical: f64 in memory
        assert_eq!(s.wire_bytes_sent(), 20); // actual encoded payload
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = TrafficStats::new();
        s.record_message(7, 56);
        s.record_op();
        s.reset();
        assert_eq!(s.elements_sent(), 0);
        assert_eq!(s.messages_sent(), 0);
        assert_eq!(s.ops_executed(), 0);
        assert_eq!(s.wire_bytes_sent(), 0);
    }

    #[test]
    fn opkind_index_matches_all() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
