//! Property tests for the recorder under concurrent span recording: each
//! track is driven by its own thread (the trainers' one-thread-per-track
//! discipline), and the recorded spans must come back complete, in
//! monotonically non-decreasing order, and non-overlapping per track.
//!
//! And for the telemetry frame decoder: it never panics, and every frame it
//! accepts is one the encoder would write, byte for byte.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use spdkfac_obs::collect::{encode_frame, read_frame, Batch, ClockModel, Frame};
use spdkfac_obs::{attribute, CollEdge, Phase, Recorder, Span, SpanMeta};
use std::borrow::Cow;
use std::sync::Arc;

fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

fn bits() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
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

/// Every frame kind, span batches weighted up: they hold most of the bytes
/// a decoder can misread.
fn frame() -> impl Strategy<Value = Frame> {
    (
        (0u8..10, 0u32..u32::MAX, 0u32..u32::MAX),
        (bits(), bits(), bits(), bits()),
        (0u64..u64::MAX, pvec(span(), 1..4)),
    )
        .prop_map(
            |((kind, a, b), (t0, t1, t2, t3), (dropped, spans))| match kind {
                0 => Frame::Hello { rank: a, world: b },
                1 => Frame::Ping { t0 },
                2 => Frame::Pong { t0, t1, t2 },
                3 => Frame::Bye { rank: a },
                _ => Frame::Batch(Batch {
                    rank: a,
                    model: ClockModel {
                        offset: t0,
                        drift: t1,
                        reference: t2,
                        uncertainty: t3,
                    },
                    dropped,
                    spans,
                }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_frame_decoder_accepts_only_what_the_encoder_writes(
        frame in frame(),
        at in 0.0f64..1.0,
        new_byte in byte(),
        noise in pvec(byte(), 0..96),
    ) {
        // The frame read off the front of some bytes, and how many it took.
        let decode = |bytes: &[u8]| {
            let mut rest = bytes;
            read_frame(&mut rest).ok().map(|f| (f, bytes.len() - rest.len()))
        };
        let wire = encode_frame(&frame);
        let (back, used) = decode(&wire).expect("an encoded frame decodes");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(encode_frame(&back), wire.clone());

        // One byte changed anywhere, or arbitrary bytes: refused, or read
        // as a frame that re-encodes to exactly the bytes consumed.
        let mut mutated = wire;
        let i = (at * mutated.len() as f64) as usize;
        mutated[i] = new_byte;
        for bytes in [mutated, noise] {
            if let Some((frame, used)) = decode(&bytes) {
                prop_assert_eq!(encode_frame(&frame), bytes[..used].to_vec());
            }
        }
    }

    #[test]
    fn frame_kind_6_is_unknown(
        pick in 0u8..2,
        heartbeat_sized in pvec(byte(), 53),
        any_size in pvec(byte(), 0..96),
    ) {
        let body = if pick == 0 { heartbeat_sized } else { any_size };
        // Kind 6 was the heartbeat; its 53-byte body is refused like any
        // other length.
        let mut wire = ((body.len() + 1) as u32).to_le_bytes().to_vec();
        wire.push(6);
        wire.extend_from_slice(&body);
        let err = read_frame(&mut &wire[..]).expect_err("kind 6 is not a frame");
        prop_assert!(err.to_string().contains("unknown telemetry frame kind 6"), "{}", err);
    }
}
