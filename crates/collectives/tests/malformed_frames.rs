//! Decoder hardening of the ring hop: a frame that contradicts what the hop
//! must carry — wrong length, tag or origin, a body that ends early —
//! surfaces as a typed [`CommError`] naming the peer, never a panic, a
//! silent short reduce, or an allocation sized by the corrupt field.
//!
//! Rank 1 of a 2-rank in-process ring is driven by hand through its raw
//! [`Transport`]; rank 0 is a real [`RingEndpoint`] running a collective.

use spdkfac_collectives::ring::{Idle, RingEndpoint};
use spdkfac_collectives::transport::{
    channel_ring, ChannelTransport, FrameHeader, Transport, SLICE_BYTES,
};
use spdkfac_collectives::wire::WireFormat;
use spdkfac_collectives::{CommError, TrafficStats};
use std::sync::Arc;

/// Rank 0's endpoint and rank 1's raw transport.
fn victim_and_peer() -> (RingEndpoint, ChannelTransport) {
    let mut ring = channel_ring(2);
    let peer = ring.pop().expect("rank 1");
    let t0 = ring.pop().expect("rank 0");
    let ep = RingEndpoint::new(0, 2, Box::new(t0), Arc::new(TrafficStats::new()));
    (ep, peer)
}

fn header(origin: u64, tag: u8, nbytes: u64) -> [u8; 17] {
    FrameHeader {
        origin,
        tag,
        nbytes,
    }
    .to_bytes()
}

/// Rank 0 receives a broadcast of `elems` elements from root 1 while the
/// peer writes `head` + `body` and (optionally) hangs up.
fn broadcast_against(
    fmt: WireFormat,
    elems: usize,
    head: [u8; 17],
    body: &[u8],
    hang_up: bool,
) -> Result<Vec<f64>, CommError> {
    let (mut ep, mut peer) = victim_and_peer();
    std::thread::scope(|s| {
        s.spawn(move || {
            // The victim may reject the header and drop its end first.
            let _ = peer.send(&head, body);
            if !hang_up {
                // Keep the edge open until the victim has decided.
                let _ = peer.recv(&mut [0u8; 1]);
            }
        });
        let mut buf = vec![0.0; elems];
        let r = ep.broadcast(fmt, &mut buf, 1, &mut Idle).map(|()| buf);
        drop(ep);
        r
    })
}

fn assert_malformed(r: Result<Vec<f64>, CommError>, needle: &str) {
    match r {
        Err(CommError::Io(msg)) => {
            assert!(
                msg.starts_with("malformed frame from rank 1"),
                "error must name the peer: {msg}"
            );
            assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
        }
        other => panic!("expected a malformed-frame error, got {other:?}"),
    }
}

#[test]
fn intact_frame_is_accepted() {
    // The harness itself: a well-formed hand-written frame decodes.
    let body: Vec<u8> = [1.5f64, -2.0, 0.25]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let got = broadcast_against(WireFormat::F64, 3, header(1, 0, 24), &body, false);
    assert_eq!(got.expect("well-formed"), vec![1.5, -2.0, 0.25]);
}

#[test]
fn oversized_length_is_rejected_before_any_body_byte() {
    // A corrupt length must not size a buffer (the parent aborted in
    // `vec![0u8; n]`) nor be waited for.
    for nbytes in [u64::MAX, 1 << 40, 32, 16] {
        let r = broadcast_against(WireFormat::F64, 3, header(1, 0, nbytes), &[0u8; 24], false);
        assert_malformed(r, "body bytes on a f64 hop of 3 elements");
    }
}

#[test]
fn wrong_tag_and_wrong_origin_are_rejected() {
    let r = broadcast_against(WireFormat::F64, 3, header(1, 2, 24), &[0u8; 24], false);
    assert_malformed(r, "tag 2 on a f64 hop");
    let r = broadcast_against(WireFormat::F16, 3, header(1, 9, 6), &[0u8; 6], false);
    assert_malformed(r, "tag 9");
    // Tag 3 named a self-describing top-k body and tag 4 a packed-symmetric
    // f16 one, formats the ring no longer carries: every hop refuses both.
    for fmt in [WireFormat::F64, WireFormat::F32, WireFormat::F16] {
        for tag in [3, 4] {
            let r = broadcast_against(fmt, 3, header(1, tag, 6), &[0u8; 6], false);
            assert_malformed(r, &format!("tag {tag} on a {fmt} hop"));
        }
    }
    let r = broadcast_against(WireFormat::F64, 3, header(0, 0, 24), &[0u8; 24], false);
    assert_malformed(r, "origin 0 where rank 1 was due");
}

#[test]
fn short_body_and_mid_slice_truncation_are_typed_errors() {
    // Header promises 24 bytes, peer sends 10 and dies.
    let r = broadcast_against(WireFormat::F64, 3, header(1, 0, 24), &[0u8; 10], true);
    assert!(matches!(r, Err(CommError::Disconnected(_))), "{r:?}");
    // A three-slice body that ends halfway through the second slice.
    let elems = 3 * SLICE_BYTES / 8;
    let body = vec![0u8; SLICE_BYTES + SLICE_BYTES / 2];
    let r = broadcast_against(
        WireFormat::F64,
        elems,
        header(1, 0, 3 * SLICE_BYTES as u64),
        &body,
        true,
    );
    assert!(matches!(r, Err(CommError::Disconnected(_))), "{r:?}");
    // A header torn in half.
    let (mut ep, mut peer) = victim_and_peer();
    peer.send(&[], &header(1, 0, 24)[..9])
        .expect("partial header");
    drop(peer);
    let err = ep
        .broadcast(WireFormat::F64, &mut [0.0; 3], 1, &mut Idle)
        .unwrap_err();
    assert!(matches!(err, CommError::Disconnected(_)), "{err}");
}

#[test]
fn reduce_hop_rejects_a_short_chunk_instead_of_reducing_a_prefix() {
    // The release-mode bug the `debug_assert_eq!(vals.len(), dst.len())`
    // hid: a 3-element frame on a 4-element reduce hop was zipped short.
    let (mut ep, mut peer) = victim_and_peer();
    std::thread::scope(|s| {
        s.spawn(move || {
            let _ = peer.send(&header(1, 0, 24), &[0u8; 24]);
            let _ = peer.recv(&mut [0u8; 1]);
        });
        let mut buf = vec![1.0; 8];
        let err = ep
            .allreduce_sum(WireFormat::F64, &mut buf, &mut Idle)
            .unwrap_err();
        assert!(
            err.message().starts_with("malformed frame from rank 1"),
            "{err}"
        );
        drop(ep);
    });
}
