//! Property tests for the acquisition wire format: arbitrary frames
//! round-trip, arbitrary corruption is detected, arbitrary garbage
//! never panics the decoder.

use p2auth_device::frame::{resync_offset, Frame, FrameError};
use p2auth_device::{Link, LinkConfig};
use p2auth_obs::persist::crc32;
use p2auth_rng::prop::prelude::*;

fn arb_samples() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1000.0_f32..1000.0, 0..200)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u8>(), any::<u32>(), arb_samples()).prop_map(|(channel, seq, samples)| Frame::Ppg {
            channel,
            seq,
            samples
        }),
        (0_u8..3, any::<u32>(), arb_samples()).prop_map(|(axis, seq, samples)| Frame::Accel {
            axis,
            seq,
            samples
        }),
        (any::<u8>(), 0_u8..10, any::<u64>()).prop_map(|(index, digit, t_phone_us)| Frame::Key {
            index,
            digit,
            t_phone_us
        }),
        (
            prop::collection::vec(any::<u32>(), 0..10),
            prop::collection::vec(any::<bool>(), 0..10),
            any::<bool>()
        )
            .prop_map(
                |(true_key_times, watch_hand, one_handed)| Frame::SessionEnd {
                    true_key_times,
                    watch_hand,
                    one_handed,
                }
            ),
    ]
}

proptest! {
    #[test]
    fn round_trip(frame in arb_frame()) {
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).expect("decode");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn single_byte_corruption_never_decodes_to_a_different_frame(
        frame in arb_frame(),
        pos_sel in any::<prop::sample::Index>(),
        bit in 0_u8..8,
    ) {
        let bytes = frame.encode().to_vec();
        let pos = pos_sel.index(bytes.len());
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 1 << bit;
        match Frame::decode(&corrupted) {
            // Either the corruption is detected...
            Err(_) => {}
            // ...or (CRC collision is practically impossible for a
            // single bit flip) the decode must not silently differ.
            Ok((f, _)) => prop_assert_eq!(f, frame),
        }
    }

    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn truncation_reported(frame in arb_frame(), cut_sel in any::<prop::sample::Index>()) {
        let bytes = frame.encode();
        let cut = cut_sel.index(bytes.len().max(1));
        if cut < bytes.len() {
            let detected = matches!(
                Frame::decode(&bytes[..cut]),
                Err(FrameError::Truncated) | Err(FrameError::Oversized { .. })
            );
            prop_assert!(detected);
        }
    }

    #[test]
    fn crc_detects_any_single_flip(data in prop::collection::vec(any::<u8>(), 1..64),
                                   pos_sel in any::<prop::sample::Index>(),
                                   bit in 0_u8..8) {
        let pos = pos_sel.index(data.len());
        let mut flipped = data.clone();
        flipped[pos] ^= 1 << bit;
        prop_assert_ne!(crc32(&data), crc32(&flipped));
    }

    #[test]
    fn resync_offset_always_advances_to_a_magic_or_the_end(
        bytes in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        let off = resync_offset(&bytes);
        prop_assert!(off >= 1, "must advance past the bad byte");
        prop_assert!(off <= bytes.len());
        for &b in &bytes[1..off] {
            prop_assert_ne!(b, 0xA5, "skipped a candidate magic");
        }
        if off < bytes.len() {
            prop_assert_eq!(bytes[off], 0xA5);
        }
    }

    #[test]
    fn garbage_prefix_is_skipped_by_resync(
        frame in arb_frame(),
        prefix in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A prefix free of the magic byte: a pure garbage burst before
        // a well-formed frame, as a corrupted link would produce.
        let prefix: Vec<u8> = prefix
            .into_iter()
            .map(|b| if b == 0xA5 { 0xA4 } else { b })
            .collect();
        let mut buf = prefix.clone();
        buf.extend_from_slice(&frame.encode());
        let mut at = 0;
        let mut recovered = None;
        while at < buf.len() {
            match Frame::decode(&buf[at..]) {
                Ok((f, used)) => {
                    recovered = Some((f, at));
                    at += used;
                }
                Err(e) if e.needs_more_data() => break,
                Err(_) => {
                    let off = resync_offset(&buf[at..]);
                    prop_assert!(off >= 1, "resync must advance");
                    at += off;
                }
            }
        }
        prop_assert_eq!(recovered, Some((frame, prefix.len())));
    }

    #[test]
    fn corrupted_stream_never_yields_phantom_frames(
        f1 in arb_frame(),
        f2 in arb_frame(),
        pos_sel in any::<prop::sample::Index>(),
        bit in 0_u8..8,
    ) {
        // Flip one bit inside the first of two back-to-back frames and
        // scan with the decode/resync loop: it must terminate without
        // panicking and never produce a frame that was never sent. (It
        // may legitimately stall on a length field that now points past
        // the buffer — a live host resolves that with a timeout.)
        let mut buf = f1.encode().to_vec();
        let cut = buf.len();
        buf.extend_from_slice(&f2.encode());
        let pos = pos_sel.index(cut);
        buf[pos] ^= 1 << bit;
        let mut at = 0;
        let mut decoded = Vec::new();
        while at < buf.len() {
            match Frame::decode(&buf[at..]) {
                Ok((f, used)) => {
                    prop_assert!(used >= 1);
                    decoded.push(f);
                    at += used;
                }
                Err(e) if e.needs_more_data() => break,
                Err(_) => {
                    let off = resync_offset(&buf[at..]);
                    prop_assert!(off >= 1 && off <= buf.len() - at);
                    at += off;
                }
            }
        }
        for f in decoded {
            prop_assert!(f == f1 || f == f2, "phantom frame decoded");
        }
    }

    #[test]
    fn link_is_fifo_for_any_send_pattern(
        sends in prop::collection::vec(0.0_f64..100.0, 1..50),
        seed in any::<u64>(),
    ) {
        let mut sorted = sends.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut link = Link::new(LinkConfig { seed, ..LinkConfig::default() });
        let mut prev = f64::NEG_INFINITY;
        for t in sorted {
            let a = link.deliver(t);
            prop_assert!(a >= prev);
            prop_assert!(a >= t);
            prev = a;
        }
    }
}
