//! Wire format of the acquisition link.
//!
//! Every packet is framed as:
//!
//! ```text
//! +------+------+-------------+---------------+-----------+
//! | 0xA5 | kind | len (u16 BE)| payload (len) | crc32 (BE)|
//! +------+------+-------------+---------------+-----------+
//! ```
//!
//! The CRC ([`p2auth_obs::persist::crc32`]) covers kind, length and
//! payload. Numeric fields are big-endian; samples travel as `f32`.

use p2auth_core::types::{ChannelInfo, Placement, Wavelength};
use p2auth_obs::persist::crc32;
use std::fmt;

/// Frame sync byte.
pub const MAGIC: u8 = 0xA5;

/// Maximum payload size (bounds allocation on decode).
pub const MAX_PAYLOAD: usize = 16 * 1024;

/// A packet of the acquisition protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session metadata, sent first.
    SessionStart {
        /// Subject identity (evaluation bookkeeping).
        user: u32,
        /// PPG sampling rate (Hz).
        sample_rate: f32,
        /// Channel descriptors.
        channels: Vec<ChannelInfo>,
        /// Accelerometer rate (Hz); 0 when absent.
        accel_rate: f32,
    },
    /// A block of PPG samples from one channel.
    Ppg {
        /// Channel index.
        channel: u8,
        /// Sequence number of this block within the channel.
        seq: u32,
        /// Samples.
        samples: Vec<f32>,
    },
    /// A block of accelerometer samples for one axis.
    Accel {
        /// Axis index (0 = x, 1 = y, 2 = z).
        axis: u8,
        /// Sequence number of this block within the axis.
        seq: u32,
        /// Samples.
        samples: Vec<f32>,
    },
    /// A keystroke event from the phone.
    Key {
        /// Keystroke ordinal within the entry.
        index: u8,
        /// Digit typed.
        digit: u8,
        /// Phone-clock timestamp (µs).
        t_phone_us: u64,
    },
    /// End of session, carrying the simulation ground truth the
    /// evaluation needs (a real deployment would omit this block).
    SessionEnd {
        /// Ground-truth keystroke sample indices.
        true_key_times: Vec<u32>,
        /// Which keystrokes the watch hand performed.
        watch_hand: Vec<bool>,
        /// Whether the entry was one-handed.
        one_handed: bool,
    },
}

/// Error decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes for a complete frame.
    Truncated,
    /// The first byte was not [`MAGIC`].
    BadMagic {
        /// The byte found.
        found: u8,
    },
    /// Unknown frame kind.
    UnknownKind {
        /// The kind byte found.
        kind: u8,
    },
    /// CRC mismatch.
    BadCrc,
    /// Payload malformed for its kind.
    BadPayload {
        /// Human-readable description.
        detail: String,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared length.
        len: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic { found } => write!(f, "bad magic byte {found:#04x}"),
            FrameError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            FrameError::BadCrc => write!(f, "crc mismatch"),
            FrameError::BadPayload { detail } => write!(f, "bad payload: {detail}"),
            FrameError::Oversized { len } => write!(f, "payload length {len} exceeds maximum"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether the decoder merely needs more bytes (`true`: the buffer
    /// ends inside what may still become a valid frame) or the stream
    /// is damaged at the current position and the reader must
    /// resynchronize by skipping ahead (`false`). Every [`FrameError`]
    /// is recoverable one way or the other — decoding never panics and
    /// never leaves the reader without a next step.
    pub fn needs_more_data(&self) -> bool {
        matches!(self, FrameError::Truncated)
    }
}

/// Distance to skip so that the next decode attempt starts at the next
/// candidate frame boundary: the index of the first [`MAGIC`] byte at
/// offset ≥ 1, or `buf.len()` when none remains (discard everything and
/// wait for fresh bytes). Returns 0 only for an empty buffer.
///
/// CRC protection makes a false boundary inside garbage overwhelmingly
/// likely to fail its own decode, after which the reader skips here
/// again — so repeated `decode` / `resync_offset` always reaches the
/// next genuine frame.
pub fn resync_offset(buf: &[u8]) -> usize {
    buf.iter()
        .skip(1)
        .position(|&b| b == MAGIC)
        .map_or(buf.len(), |i| i + 1)
}

const KIND_START: u8 = 1;
const KIND_PPG: u8 = 2;
const KIND_ACCEL: u8 = 3;
const KIND_KEY: u8 = 4;
const KIND_END: u8 = 5;

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::SessionStart { .. } => KIND_START,
            Frame::Ppg { .. } => KIND_PPG,
            Frame::Accel { .. } => KIND_ACCEL,
            Frame::Key { .. } => KIND_KEY,
            Frame::SessionEnd { .. } => KIND_END,
        }
    }

    /// Stable machine-readable name of the frame kind, used in
    /// telemetry events and logs.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::SessionStart { .. } => "session_start",
            Frame::Ppg { .. } => "ppg",
            Frame::Accel { .. } => "accel",
            Frame::Key { .. } => "key",
            Frame::SessionEnd { .. } => "session_end",
        }
    }

    /// Encodes the frame to bytes.
    ///
    /// # Panics
    ///
    /// Panics if the payload would exceed [`MAX_PAYLOAD`] (the device
    /// chunks sample blocks well below it).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "payload too large: {}",
            payload.len()
        );
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.push(MAGIC);
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out[1..]);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::SessionStart {
                user,
                sample_rate,
                channels,
                accel_rate,
            } => {
                p.extend_from_slice(&user.to_be_bytes());
                p.extend_from_slice(&sample_rate.to_be_bytes());
                p.extend_from_slice(&accel_rate.to_be_bytes());
                p.push(channels.len() as u8);
                for c in channels {
                    p.push(wavelength_code(c.wavelength));
                    p.push(placement_code(c.placement));
                }
            }
            Frame::Ppg {
                channel,
                seq,
                samples,
            } => {
                p.push(*channel);
                p.extend_from_slice(&seq.to_be_bytes());
                p.extend_from_slice(&(samples.len() as u16).to_be_bytes());
                for s in samples {
                    p.extend_from_slice(&s.to_be_bytes());
                }
            }
            Frame::Accel { axis, seq, samples } => {
                p.push(*axis);
                p.extend_from_slice(&seq.to_be_bytes());
                p.extend_from_slice(&(samples.len() as u16).to_be_bytes());
                for s in samples {
                    p.extend_from_slice(&s.to_be_bytes());
                }
            }
            Frame::Key {
                index,
                digit,
                t_phone_us,
            } => {
                p.push(*index);
                p.push(*digit);
                p.extend_from_slice(&t_phone_us.to_be_bytes());
            }
            Frame::SessionEnd {
                true_key_times,
                watch_hand,
                one_handed,
            } => {
                p.push(true_key_times.len() as u8);
                for t in true_key_times {
                    p.extend_from_slice(&t.to_be_bytes());
                }
                p.push(watch_hand.len() as u8);
                for w in watch_hand {
                    p.push(u8::from(*w));
                }
                p.push(u8::from(*one_handed));
            }
        }
        p
    }

    /// Decodes one frame from the front of `buf`, returning the frame
    /// and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on truncation, bad magic/kind/CRC or a
    /// malformed payload.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < 8 {
            return Err(FrameError::Truncated);
        }
        if buf[0] != MAGIC {
            return Err(FrameError::BadMagic { found: buf[0] });
        }
        let kind = buf[1];
        let len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        let total = 4 + len + 4;
        if buf.len() < total {
            return Err(FrameError::Truncated);
        }
        let crc_stored = u32::from_be_bytes([
            buf[total - 4],
            buf[total - 3],
            buf[total - 2],
            buf[total - 1],
        ]);
        if crc32(&buf[1..total - 4]) != crc_stored {
            return Err(FrameError::BadCrc);
        }
        let mut p = &buf[4..4 + len];
        let frame = Self::decode_payload(kind, &mut p)?;
        if !p.is_empty() {
            return Err(FrameError::BadPayload {
                detail: format!("{} trailing bytes", p.len()),
            });
        }
        Ok((frame, total))
    }

    fn decode_payload(kind: u8, p: &mut &[u8]) -> Result<Frame, FrameError> {
        let need = |p: &&[u8], n: usize| -> Result<(), FrameError> {
            if p.len() < n {
                Err(FrameError::BadPayload {
                    detail: format!("need {n} bytes, have {}", p.len()),
                })
            } else {
                Ok(())
            }
        };
        match kind {
            KIND_START => {
                need(p, 13)?;
                let user = u32::from_be_bytes(take(p));
                let sample_rate = f32::from_be_bytes(take(p));
                let accel_rate = f32::from_be_bytes(take(p));
                let n = byte(p) as usize;
                need(p, 2 * n)?;
                let mut channels = Vec::with_capacity(n);
                for _ in 0..n {
                    let w = wavelength_from(byte(p))?;
                    let pl = placement_from(byte(p))?;
                    channels.push(ChannelInfo {
                        wavelength: w,
                        placement: pl,
                    });
                }
                Ok(Frame::SessionStart {
                    user,
                    sample_rate,
                    channels,
                    accel_rate,
                })
            }
            KIND_PPG | KIND_ACCEL => {
                need(p, 7)?;
                let idx = byte(p);
                let seq = u32::from_be_bytes(take(p));
                let n = u16::from_be_bytes(take(p)) as usize;
                need(p, 4 * n)?;
                let samples = (0..n).map(|_| f32::from_be_bytes(take(p))).collect();
                if kind == KIND_PPG {
                    Ok(Frame::Ppg {
                        channel: idx,
                        seq,
                        samples,
                    })
                } else {
                    Ok(Frame::Accel {
                        axis: idx,
                        seq,
                        samples,
                    })
                }
            }
            KIND_KEY => {
                need(p, 10)?;
                let index = byte(p);
                let digit = byte(p);
                if digit > 9 {
                    return Err(FrameError::BadPayload {
                        detail: format!("digit {digit}"),
                    });
                }
                let t_phone_us = u64::from_be_bytes(take(p));
                Ok(Frame::Key {
                    index,
                    digit,
                    t_phone_us,
                })
            }
            KIND_END => {
                need(p, 1)?;
                let nt = byte(p) as usize;
                need(p, 4 * nt + 1)?;
                let true_key_times = (0..nt).map(|_| u32::from_be_bytes(take(p))).collect();
                let nw = byte(p) as usize;
                need(p, nw + 1)?;
                let watch_hand = (0..nw).map(|_| byte(p) != 0).collect();
                let one_handed = byte(p) != 0;
                Ok(Frame::SessionEnd {
                    true_key_times,
                    watch_hand,
                    one_handed,
                })
            }
            other => Err(FrameError::UnknownKind { kind: other }),
        }
    }
}

/// Splits the next `N` bytes off `p`. Callers check the length first,
/// so a short buffer here is a bug, not bad input.
fn take<const N: usize>(p: &mut &[u8]) -> [u8; N] {
    let (head, rest) = p.split_at(N);
    *p = rest;
    head.try_into().expect("length checked by the caller")
}

fn byte(p: &mut &[u8]) -> u8 {
    let [b] = take(p);
    b
}

fn wavelength_code(w: Wavelength) -> u8 {
    match w {
        Wavelength::Infrared => 0,
        Wavelength::Red => 1,
        Wavelength::Green => 2,
    }
}

fn wavelength_from(b: u8) -> Result<Wavelength, FrameError> {
    match b {
        0 => Ok(Wavelength::Infrared),
        1 => Ok(Wavelength::Red),
        2 => Ok(Wavelength::Green),
        _ => Err(FrameError::BadPayload {
            detail: format!("wavelength code {b}"),
        }),
    }
}

fn placement_code(p: Placement) -> u8 {
    match p {
        Placement::Radial => 0,
        Placement::Ulnar => 1,
        Placement::Dorsal => 2,
    }
}

fn placement_from(b: u8) -> Result<Placement, FrameError> {
    match b {
        0 => Ok(Placement::Radial),
        1 => Ok(Placement::Ulnar),
        2 => Ok(Placement::Dorsal),
        _ => Err(FrameError::BadPayload {
            detail: format!("placement code {b}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::SessionStart {
                user: 3,
                sample_rate: 100.0,
                channels: vec![
                    ChannelInfo {
                        wavelength: Wavelength::Infrared,
                        placement: Placement::Radial,
                    },
                    ChannelInfo {
                        wavelength: Wavelength::Red,
                        placement: Placement::Ulnar,
                    },
                ],
                accel_rate: 75.0,
            },
            Frame::Ppg {
                channel: 1,
                seq: 42,
                samples: vec![0.5, -1.25, 3.75],
            },
            Frame::Accel {
                axis: 2,
                seq: 7,
                samples: vec![9.81, 9.79],
            },
            Frame::Key {
                index: 0,
                digit: 6,
                t_phone_us: 1_234_567,
            },
            Frame::SessionEnd {
                true_key_times: vec![120, 230, 340, 450],
                watch_hand: vec![true, false, true, true],
                one_handed: false,
            },
        ]
    }

    #[test]
    fn round_trip_all_kinds() {
        for f in sample_frames() {
            let bytes = f.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            buf.extend_from_slice(&f.encode());
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < buf.len() {
            let (f, used) = Frame::decode(&buf[offset..]).unwrap();
            decoded.push(f);
            offset += used;
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn corruption_detected() {
        let f = Frame::Key {
            index: 1,
            digit: 2,
            t_phone_us: 99,
        };
        let mut bytes = f.encode().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadCrc) | Err(FrameError::BadPayload { .. })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let f = Frame::Key {
            index: 1,
            digit: 2,
            t_phone_us: 99,
        };
        let mut bytes = f.encode().to_vec();
        bytes[0] = 0x00;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic { found: 0 })
        ));
    }

    #[test]
    fn truncation_detected() {
        let f = Frame::Ppg {
            channel: 0,
            seq: 0,
            samples: vec![1.0; 8],
        };
        let bytes = f.encode();
        for cut in [0, 3, bytes.len() - 1] {
            assert_eq!(
                Frame::decode(&bytes[..cut]).unwrap_err(),
                FrameError::Truncated
            );
        }
    }

    #[test]
    fn invalid_digit_rejected() {
        // Hand-craft a Key frame with digit 11.
        let f = Frame::Key {
            index: 0,
            digit: 9,
            t_phone_us: 5,
        };
        let mut bytes = f.encode().to_vec();
        bytes[5] = 11; // digit byte within payload
                       // Recompute CRC so only the payload check fires.
        let len = bytes.len();
        let crc = crc32(&bytes[1..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadPayload { .. })
        ));
    }

    #[test]
    fn error_recoverability_classification() {
        assert!(FrameError::Truncated.needs_more_data());
        assert!(!FrameError::BadMagic { found: 0 }.needs_more_data());
        assert!(!FrameError::BadCrc.needs_more_data());
        assert!(!FrameError::Oversized { len: 70_000 }.needs_more_data());
    }

    #[test]
    fn resync_skips_to_next_magic() {
        assert_eq!(resync_offset(&[]), 0);
        assert_eq!(resync_offset(&[0x00, 0x01, MAGIC, 0x02]), 2);
        // The magic at offset 0 is the position being abandoned; only
        // later occurrences count.
        assert_eq!(resync_offset(&[MAGIC, 0x01, MAGIC]), 2);
        assert_eq!(resync_offset(&[0x00, 0x01, 0x02]), 3);
    }

    #[test]
    fn garbage_prefix_recovered_by_resync() {
        let frame = Frame::Key {
            index: 2,
            digit: 7,
            t_phone_us: 42,
        };
        let mut buf = vec![0x13, MAGIC, 0x00, 0xff, 0x7a];
        buf.extend_from_slice(&frame.encode());
        let mut offset = 0;
        let mut decoded = None;
        while offset < buf.len() {
            match Frame::decode(&buf[offset..]) {
                Ok((f, _)) => {
                    decoded = Some(f);
                    break;
                }
                Err(e) => {
                    assert!(!e.needs_more_data() || offset > 0, "whole buffer present");
                    let skip = resync_offset(&buf[offset..]);
                    assert!(skip >= 1);
                    offset += skip;
                }
            }
        }
        assert_eq!(decoded, Some(frame));
    }
}
