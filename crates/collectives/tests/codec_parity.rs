//! Bit-identity of the dispatched slice kernels (F16C/AVX2 where the CPU
//! has it) against the scalar converters, called directly as the oracle:
//! whatever path `encode_into` / `decode` take on this machine, the bytes
//! and the values are the software converters' bytes and values. On a CPU
//! without the vector path both sides are the scalar code and the tests
//! hold trivially.

use spdkfac_collectives::wire::{
    decode, decode_add, decode_into, encode_into, f16_bits_to_f32, f32_to_f16_bits, Sink,
    WireFormat,
};

/// Deterministic 64-bit generator (SplitMix64).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inputs that sit on every boundary of the f64 → f32 → f16 conversion.
fn edge_cases() -> Vec<f64> {
    let mut v = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001), // signalling, minimal payload
        f64::from_bits(0xfff4_5678_9abc_def0), // negative, payload in every field
        f64::from_bits(0x7ff8_0000_2000_0000), // payload below the half mantissa
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest f64 subnormal
        65504.0,           // largest half
        65519.999,         // rounds down to it
        65520.0,           // tie: rounds to infinity
        65536.0,
        1e9,
        -1e9,
        f32::MAX as f64,
        f32::MAX as f64 * 1.000_000_1,           // overflows f32 first
        2f64.powi(-14),                          // smallest normal half
        2f64.powi(-14) * (1.0 - 2f64.powi(-11)), // just below: subnormal, rounds up to normal
        2f64.powi(-24),                          // smallest subnormal half
        2f64.powi(-25),                          // tie with zero: rounds to even (zero)
        2f64.powi(-25) * 1.000_001,              // just above the tie
        2f64.powi(-26),
        2f64.powi(-149), // smallest f32 subnormal
        2f64.powi(-150),
    ];
    // Ties-to-even across the mantissa: 2048 + k sits halfway between
    // halves for odd k, as does every subnormal half plus half a step.
    for k in 0..64 {
        v.push(2048.0 + k as f64);
        v.push(-(4096.0 + 2.0 * k as f64));
        v.push((k as f64 + 0.5) * 2f64.powi(-24));
        // Double rounding: a hair above/below the f16 tie that the f32 step
        // rounds onto it.
        v.push(2049.0 + 2f64.powi(-30));
        v.push(2049.0 - 2f64.powi(-30));
    }
    let flipped: Vec<f64> = v.iter().map(|x| -x).collect();
    v.extend(flipped);
    v
}

/// A million seeded doubles: raw bit patterns (mostly far outside half
/// range, many NaNs) interleaved with values spread over the half and f32
/// exponent ranges.
fn random_inputs() -> Vec<f64> {
    let mut s = 0x5eed_u64;
    (0..1_000_000)
        .map(|i| {
            let bits = next(&mut s);
            match i % 4 {
                0 => f64::from_bits(bits),
                1 => {
                    let exp = (bits % 48) as i32 - 30; // 2^-30 .. 2^17
                    let frac = (bits >> 11) as f64 / (1u64 << 53) as f64;
                    let mag = (1.0 + frac) * 2f64.powi(exp);
                    if bits & 1 == 0 {
                        mag
                    } else {
                        -mag
                    }
                }
                2 => f32::from_bits(bits as u32) as f64,
                _ => (bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
            }
        })
        .collect()
}

/// What the scalar encode loop reports: NaN differences never win.
fn oracle_err(acc: f64, x: f64, back: f64) -> f64 {
    let e = (x - back).abs();
    if e > acc {
        e
    } else {
        acc
    }
}

fn check_f16_encode(data: &[f64]) {
    let mut bytes = vec![0u8; data.len() * 2];
    let err = encode_into(WireFormat::F16, data, &mut bytes);
    let mut want_err = 0.0f64;
    for (i, (&x, got)) in data.iter().zip(bytes.chunks_exact(2)).enumerate() {
        let h = f32_to_f16_bits(x as f32);
        assert_eq!(
            u16::from_le_bytes([got[0], got[1]]),
            h,
            "element {i}: {x:e} ({:#018x})",
            x.to_bits()
        );
        want_err = oracle_err(want_err, x, f16_bits_to_f32(h) as f64);
    }
    assert_eq!(err.to_bits(), want_err.to_bits(), "max_abs_err");
}

fn check_f32_encode(data: &[f64]) {
    let mut bytes = vec![0u8; data.len() * 4];
    let err = encode_into(WireFormat::F32, data, &mut bytes);
    let mut want_err = 0.0f64;
    for (i, (&x, got)) in data.iter().zip(bytes.chunks_exact(4)).enumerate() {
        let f = x as f32;
        assert_eq!(
            got,
            f.to_le_bytes(),
            "element {i}: {x:e} ({:#018x})",
            x.to_bits()
        );
        want_err = oracle_err(want_err, x, f as f64);
    }
    assert_eq!(err.to_bits(), want_err.to_bits(), "max_abs_err");
}

#[test]
fn f16_encode_matches_the_software_converter_bit_for_bit() {
    let edges = edge_cases();
    // Every alignment of every edge case within a vector and the tail.
    for shift in 0..9 {
        let mut data = vec![0.25; shift];
        data.extend_from_slice(&edges);
        check_f16_encode(&data);
    }
    check_f16_encode(&random_inputs());
}

#[test]
fn f32_encode_matches_the_hardware_cast_bit_for_bit() {
    let edges = edge_cases();
    for shift in 0..5 {
        let mut data = vec![0.25; shift];
        data.extend_from_slice(&edges);
        check_f32_encode(&data);
    }
    check_f32_encode(&random_inputs());
}

/// Decodes `bytes` through all three sinks and compares each value's bits
/// with the scalar conversion `oracle(i)` landed the same way.
fn check_decode(fmt: WireFormat, bytes: &[u8], oracle: impl Fn(usize) -> f64) {
    let n = bytes.len() / fmt.dense_elem_bytes().expect("dense");
    let base: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 2.5).collect();
    let scale = 1.0 / 3.0;

    let mut stored = vec![0.0; n];
    decode_into(fmt, bytes, &mut stored);
    let mut added = base.clone();
    decode_add(fmt, bytes, &mut added);
    let mut scaled = vec![0.0; n];
    decode(fmt, bytes, &mut scaled, Sink::Scaled(scale));
    for i in 0..n {
        let v = oracle(i);
        assert_eq!(stored[i].to_bits(), v.to_bits(), "store, element {i}");
        // A NaN sum takes its payload from whichever operand the compiler
        // put first; every other sum is exact in its bits.
        let sum = base[i] + v;
        assert!(
            added[i].to_bits() == sum.to_bits() || (added[i].is_nan() && sum.is_nan()),
            "add, element {i}: {} vs {sum}",
            added[i]
        );
        let prod = v * scale;
        assert!(
            scaled[i].to_bits() == prod.to_bits() || (scaled[i].is_nan() && prod.is_nan()),
            "scale, element {i}"
        );
    }
}

#[test]
fn f16_decode_matches_the_software_converter_for_every_half() {
    // All 65,536 patterns, at every alignment within a vector.
    for shift in 0..8u32 {
        let halves: Vec<u16> = (0..=u16::MAX)
            .map(|h| h.wrapping_add(shift.wrapping_mul(0x2001) as u16))
            .skip(shift as usize)
            .collect();
        let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        check_decode(WireFormat::F16, &bytes, |i| {
            f16_bits_to_f32(halves[i]) as f64
        });
        if shift == 0 {
            assert_eq!(halves.len(), 1 << 16);
        }
    }
}

#[test]
fn f32_decode_matches_the_hardware_cast() {
    let mut s = 0xf32_u64;
    let mut words: Vec<u32> = (0..1_000_003).map(|_| next(&mut s) as u32).collect();
    // The boundaries a random draw will not hit.
    words.extend([
        0,
        0x8000_0000,
        1,
        0x007f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7f80_0001,
        0x7fc0_0000,
        0xffff_ffff,
    ]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    check_decode(WireFormat::F32, &bytes, |i| f32::from_bits(words[i]) as f64);
}

#[test]
fn f64_slices_are_a_bit_exact_pass_through() {
    let data = random_inputs();
    let data = &data[..10_001];
    let mut bytes = vec![0u8; data.len() * 8];
    assert_eq!(encode_into(WireFormat::F64, data, &mut bytes), 0.0);
    check_decode(WireFormat::F64, &bytes, |i| data[i]);
}
