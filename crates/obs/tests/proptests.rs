//! Property tests for the recorder under concurrent span recording: each
//! track is driven by its own thread (the trainers' one-thread-per-track
//! discipline), and the recorded spans must come back complete, in
//! monotonically non-decreasing order, and non-overlapping per track.
//!
//! And for the per-rank document reader: it never panics, and every span it
//! accepts re-renders and re-reads to itself, bit for bit.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use spdkfac_obs::flight::{parse_document, parse_span, write_span, FlightRecorder};
use spdkfac_obs::json::JsonWriter;
use spdkfac_obs::{attribute, parse_json, CollEdge, Phase, Recorder, Span, SpanMeta};
use std::borrow::Cow;
use std::sync::Arc;

fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// Spans with every edge kind and every subset of the optional fields.
fn span() -> impl Strategy<Value = Span> {
    (
        (0usize..16, 0..Phase::ALL.len(), 0.0f64..10.0, 0.0f64..1.0),
        (0u8..3, 0usize..8, 0u8..32, 0u64..u64::MAX),
        pvec(0u8..26, 0..7),
    )
        .prop_map(
            |((track, phase, start, len), (edge, root, fields, v), label)| Span {
                track,
                phase: Phase::ALL[phase],
                label: Cow::Owned(label.iter().map(|&c| (b'a' + c) as char).collect()),
                start,
                end: start + len,
                meta: SpanMeta {
                    edge: match edge {
                        0 => None,
                        1 => Some(CollEdge::Join),
                        _ => Some(CollEdge::FanOut { root }),
                    },
                    seq: (fields & 1 != 0).then_some(v),
                    size: (fields & 2 != 0).then_some((v >> 40) as usize),
                    generation: (fields & 4 != 0).then_some(v % 4),
                    wire_bytes: (fields & 8 != 0).then_some(v >> 8),
                    codec_secs: (fields & 16 != 0).then_some(start / 8.0),
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_tracks_record_ordered_disjoint_spans(
        per_track in pvec(1usize..12, 1..5),
        phase_pick in 0usize..7,
    ) {
        let tracks = per_track.len();
        let rec = Arc::new(Recorder::new(tracks));
        let phase = Phase::ALL[phase_pick % Phase::ALL.len()];
        std::thread::scope(|s| {
            for (track, &count) in per_track.iter().enumerate() {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..count {
                        // Alternate phases so the attribution below sees a mix.
                        let p = if i % 2 == 0 { phase } else { Phase::FfBp };
                        let g = rec.span(track, p);
                        // A spin ensures strictly positive duration without
                        // relying on sleep granularity.
                        let start = g.start();
                        while rec.now() <= start {
                            std::hint::spin_loop();
                        }
                        drop(g);
                    }
                });
            }
        });

        let spans = rec.spans();
        prop_assert_eq!(rec.dropped(), 0);
        prop_assert_eq!(spans.len(), per_track.iter().sum::<usize>());

        for (track, &count) in per_track.iter().enumerate() {
            let mine: Vec<_> = spans.iter().filter(|s| s.track == track).collect();
            prop_assert_eq!(mine.len(), count);
            for s in &mine {
                prop_assert!(s.end > s.start, "zero-length span survived");
            }
            // One thread per track opens spans sequentially: the ring must
            // return them in issue order, mutually disjoint.
            for w in mine.windows(2) {
                prop_assert!(w[1].start >= w[0].end - 1e-12,
                    "track {track}: span starting {} overlaps span ending {}",
                    w[1].start, w[0].end);
                prop_assert!(w[1].start >= w[0].start, "non-monotonic starts");
            }
        }

        // The attribution over any such recording accounts for the whole
        // observed interval: categories sum to last_end - first_start.
        let first = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let last = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
        let b = attribute(&spans, tracks);
        prop_assert!((b.total() - (last - first)).abs() < 1e-9,
            "breakdown {} vs extent {}", b.total(), last - first);
    }
}

/// Rank 1 of 2's document as [`FlightRecorder::render_json`] writes it,
/// and the spans it holds: `spans`, each moved onto one of the rank's two
/// tracks, in the document's order.
fn document(spans: &[Span], failure: bool) -> (String, Vec<Span>) {
    let fr = FlightRecorder::new();
    fr.configure(1, 2, None);
    let rec = Arc::new(Recorder::new(4));
    fr.set_recorder(Arc::clone(&rec));
    for s in spans {
        rec.record(Span {
            track: 1 + 2 * (s.track % 2),
            ..s.clone()
        });
    }
    if failure {
        fr.note_comm_failure("allreduce", 3, 1, Phase::GradComm, "peer gone");
    }
    (fr.render_json("test"), rec.newest(usize::MAX))
}

/// Bit-exact span equality (times by `to_bits`).
fn same_span(a: &Span, b: &Span) -> bool {
    let bits = |s: &Span| {
        (
            s.start.to_bits(),
            s.end.to_bits(),
            s.meta.codec_secs.map(f64::to_bits),
        )
    };
    bits(a) == bits(b)
        && (a.track, a.phase, &a.label) == (b.track, b.phase, &b.label)
        && (a.meta.edge, a.meta.seq, a.meta.size) == (b.meta.edge, b.meta.seq, b.meta.size)
        && (a.meta.generation, a.meta.wire_bytes) == (b.meta.generation, b.meta.wire_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_document_reader_accepts_only_spans_that_read_back_bit_for_bit(
        spans in pvec(span(), 0..4),
        failure in 0u8..2,
        at in 0.0f64..1.0,
        new_byte in byte(),
        noise in pvec(byte(), 0..96),
    ) {
        let (doc, held) = document(&spans, failure == 1);
        let read = parse_document(&doc).expect("a rendered document reads back");
        prop_assert_eq!(read.spans.len(), held.len());
        for (back, s) in read.spans.iter().zip(&held) {
            // Counts travel as JSON numbers: exact below 2^53.
            let exact = |v: Option<u64>| v.map(|n| n as f64 as u64);
            let s = Span {
                meta: SpanMeta {
                    seq: exact(s.meta.seq),
                    wire_bytes: exact(s.meta.wire_bytes),
                    ..s.meta
                },
                ..s.clone()
            };
            prop_assert!(same_span(back, &s), "{:?} read back as {:?}", s, back);
        }

        // The document itself, one byte changed anywhere, or arbitrary
        // bytes: refused, or read as spans that write and read back to
        // themselves.
        let mut mutated = doc.clone().into_bytes();
        let i = (at * mutated.len() as f64) as usize;
        mutated[i] = new_byte;
        for bytes in [doc.into_bytes(), mutated, noise] {
            let Ok(text) = String::from_utf8(bytes) else { continue };
            let _ = parse_json(&text);
            let Ok(read) = parse_document(&text) else { continue };
            prop_assert!(read.rank < read.world);
            let mut out = String::new();
            JsonWriter::new(&mut out).array(|w| {
                for s in &read.spans {
                    write_span(w, s);
                }
            });
            let again = parse_json(&out).expect("written spans are JSON");
            let again = again.as_array().expect("an array");
            prop_assert_eq!(again.len(), read.spans.len());
            for (v, s) in again.iter().zip(&read.spans) {
                let back = parse_span(v).expect("a written span reads back");
                prop_assert!(same_span(&back, s), "{:?} read back as {:?}", s, back);
            }
        }
    }
}
