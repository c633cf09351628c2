//! The one bounded store of the event pipeline.
//!
//! [`Ring`] keeps the newest `capacity` values pushed into it and counts
//! what it overwrote. Every push advances a monotone *write index*, so a
//! reader that remembers the index it stopped at ([`Ring::since`]) visits
//! exactly the values pushed after it — O(new), without copying or scanning
//! the retained window. [`crate::Recorder`] lanes and the clock
//! estimator's sample window ([`crate::collect::ClockEstimator`]) are this
//! type, and the per-rank documents read the recorder's lanes through it.

/// A fixed-capacity overwrite-oldest buffer with a monotone write index.
#[derive(Debug)]
pub struct Ring<T> {
    /// Value with write index `i` lives in slot `i % capacity` while it is
    /// retained. Grows on demand up to `capacity`; never beyond.
    slots: Vec<T>,
    capacity: usize,
    /// Values pushed since creation.
    written: u64,
    /// `written % capacity`, kept beside it so that neither a push — the
    /// recording hot path — nor a drain divides to find a slot.
    head: usize,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` values (at least one).
    pub fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::new(),
            capacity: capacity.max(1),
            written: 0,
            head: 0,
        }
    }

    /// Appends `value`, overwriting the oldest retained one when full.
    pub fn push(&mut self, value: T) {
        if self.slots.len() < self.capacity {
            self.slots.push(value);
        } else {
            self.slots[self.head] = value;
        }
        self.written += 1;
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// Values currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The write index: how many values were pushed so far. A reader that
    /// stores this after a [`Ring::since`] pass resumes exactly there.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Values overwritten before anyone could still read them
    /// (`pushes − capacity` once the ring has wrapped).
    pub fn dropped(&self) -> u64 {
        self.written - self.slots.len() as u64
    }

    /// The retained values with write index `>= cursor`, oldest first.
    /// Values evicted since `cursor` are simply absent (they are counted in
    /// [`Ring::dropped`]).
    pub fn since(&self, cursor: u64) -> impl Iterator<Item = &T> {
        let oldest = self.written - self.slots.len() as u64;
        let from = cursor.max(oldest);
        // Once full, the oldest value sits where the next push will land.
        let first = if self.slots.len() == self.capacity {
            self.head
        } else {
            0
        };
        let (newer, older) = self.slots.split_at(first);
        older.iter().chain(newer).skip((from - oldest) as usize)
    }

    /// Every retained value, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.since(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, Span};
    use crate::Phase;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        static CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// A value that counts how often a reader copied it out of a slot.
    #[derive(Debug, PartialEq)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of pushes and cursor drains against an exact
        /// model: first a bare ring (every retained value once, in write
        /// order; drop count; slots touched), then a multi-track recorder
        /// (`(track, start)` order per drain, late writers).
        #[test]
        fn cursor_yields_every_retained_value_exactly_once(
            capacity in 1usize..9,
            // Each step: push `n` values (0 = drain only), then maybe drain.
            steps in pvec((0usize..14, 0usize..2), 1..24),
            tracks in 1usize..4,
            // Recorder phase: (track pick, start, lateness) per record.
            records in pvec((0usize..4, 0u32..1000, 0u32..50), 1..60),
        ) {
            let mut ring = Ring::new(capacity);
            let (mut pushed, mut cursor) = (0u64, 0u64);
            for &(n, drain) in &steps {
                for _ in 0..n {
                    ring.push(Counted(pushed));
                    pushed += 1;
                }
                prop_assert_eq!(ring.dropped(), pushed.saturating_sub(capacity as u64));
                if drain == 1 {
                    let oldest = pushed - ring.len() as u64;
                    let expect: Vec<u64> = (cursor.max(oldest)..pushed).collect();
                    CLONES.with(|c| c.set(0));
                    let got: Vec<Counted> = ring.since(cursor).cloned().collect();
                    // A drain of k new values touches k slots.
                    prop_assert_eq!(CLONES.with(Cell::get), expect.len());
                    prop_assert_eq!(got.iter().map(|c| c.0).collect::<Vec<_>>(), expect);
                    cursor = ring.written();
                }
            }

            // The same cursor under the recorder: several tracks, spans
            // written in an order unrelated to their times (a late writer
            // records a span that ended before ones already flushed — what
            // a timestamp watermark would lose).
            let rec = Recorder::with_capacity(tracks, capacity);
            let mut cur = rec.flush_cursor();
            let mut written: Vec<Vec<f64>> = vec![Vec::new(); tracks]; // starts, write order
            let mut flushed = vec![0usize; tracks];
            for (i, &(t, start, late)) in records.iter().enumerate() {
                let start = f64::from(start) + i as f64 * 1e-3; // unique
                let end = start + 1.0 / (1.0 + f64::from(late));
                rec.record(Span::new(t % tracks, Phase::Update, start, end));
                written[t % tracks].push(start);
                if !(i + late as usize).is_multiple_of(3) {
                    continue;
                }
                let mut expect = Vec::new();
                for (t, w) in written.iter().enumerate() {
                    let retained = w.len().saturating_sub(capacity);
                    let mut new = w[flushed[t].max(retained)..].to_vec();
                    new.sort_by(f64::total_cmp);
                    expect.extend(new.into_iter().map(|s| (t, s)));
                    flushed[t] = w.len();
                }
                let got = rec.flush_since(&mut cur);
                let got: Vec<(usize, f64)> = got.iter().map(|s| (s.track, s.start)).collect();
                prop_assert_eq!(got, expect);
            }
            let evicted = |w: &Vec<f64>| w.len().saturating_sub(capacity) as u64;
            prop_assert_eq!(rec.dropped(), written.iter().map(evicted).sum::<u64>());
        }
    }
}
