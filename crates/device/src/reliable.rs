//! Reliable transport over a [`FaultyLink`]: sequence numbers +
//! NACK-based retransmission on top of the CRC framing.
//!
//! The acquisition protocol of [`crate::frame`] is fire-and-forget; a
//! single dropped frame loses a PPG block (or worse, a key event) for
//! good. This module wraps every frame in an ARQ envelope carrying a
//! per-channel sequence number and runs a virtual-time event loop in
//! which the host detects sequence gaps and NACKs them over a reverse
//! link, and the device retransmits from its send buffer with bounded
//! retries. End-of-stream is announced with redundant `Fin` packets so
//! tail loss is also detected. Everything — fault draws, jitter,
//! backoff schedule — is deterministic from the link seeds, so a whole
//! degraded session can be replayed bit-for-bit.
//!
//! The protocol state machine is documented in `DESIGN.md`
//! ("Link fault model & recovery").

use crate::device::WearableDevice;
use crate::frame::{Frame, FrameError, MAX_PAYLOAD};
use crate::host::{AssembleError, HostAssembler, LinkQuality};
use crate::link::FaultyLink;
use p2auth_core::types::Recording;
use p2auth_obs::persist::{crc32, crc32_update};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Leading byte of every ARQ envelope (distinct from the frame magic
/// so raw-frame and ARQ streams cannot be confused).
pub const ARQ_MAGIC: u8 = 0xC3;

const TYPE_DATA: u8 = 1;
const TYPE_NACK: u8 = 2;
const TYPE_FIN: u8 = 3;

/// One ARQ envelope.
///
/// Wire format: `[0xC3][type u8][seq u32 BE][len u16 BE][body][crc32 BE]`
/// where the CRC covers type, seq, len and body. `Data` carries an
/// encoded [`Frame`] as body; `Nack` and `Fin` have empty bodies and
/// reuse the seq field for the requested sequence number and the total
/// packet count respectively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A data packet: frame `seq` of its channel.
    Data {
        /// Per-channel sequence number, starting at 0.
        seq: u32,
        /// The encoded inner [`Frame`].
        frame: Vec<u8>,
    },
    /// Host → device: "retransmit packet `seq`".
    Nack {
        /// The missing sequence number.
        seq: u32,
    },
    /// Device → host: "the channel carries `total` packets in all".
    Fin {
        /// Total number of data packets on this channel.
        total: u32,
    },
}

impl Packet {
    /// Encodes the envelope (magic, header, body, CRC).
    pub fn encode(&self) -> Vec<u8> {
        let (ty, seq, body): (u8, u32, &[u8]) = match self {
            Packet::Data { seq, frame } => (TYPE_DATA, *seq, frame.as_slice()),
            Packet::Nack { seq } => (TYPE_NACK, *seq, &[]),
            Packet::Fin { total } => (TYPE_FIN, *total, &[]),
        };
        assert!(body.len() <= u16::MAX as usize, "ARQ body too large");
        let mut out = Vec::with_capacity(body.len() + 12);
        out.push(ARQ_MAGIC);
        out.push(ty);
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
        out.extend_from_slice(body);
        let crc = crc32(&out[1..]);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Decodes one envelope from the front of `buf`, returning the
    /// packet and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] mirroring [`Frame::decode`]'s
    /// classification: [`FrameError::Truncated`] when more bytes may
    /// complete the packet, and a non-recoverable variant otherwise.
    pub fn decode(buf: &[u8]) -> Result<(Packet, usize), FrameError> {
        if buf.len() < 12 {
            return Err(FrameError::Truncated);
        }
        if buf[0] != ARQ_MAGIC {
            return Err(FrameError::BadMagic { found: buf[0] });
        }
        let ty = buf[1];
        let seq = u32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]);
        let len = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        // Inner frames are bounded by MAX_PAYLOAD plus framing overhead.
        if len > MAX_PAYLOAD + 16 {
            return Err(FrameError::Oversized { len });
        }
        let total = 8 + len + 4;
        if buf.len() < total {
            return Err(FrameError::Truncated);
        }
        let stored = u32::from_be_bytes([
            buf[total - 4],
            buf[total - 3],
            buf[total - 2],
            buf[total - 1],
        ]);
        if crc32(&buf[1..total - 4]) != stored {
            return Err(FrameError::BadCrc);
        }
        let body = &buf[8..8 + len];
        let pkt = match ty {
            TYPE_DATA => Packet::Data {
                seq,
                frame: body.to_vec(),
            },
            TYPE_NACK | TYPE_FIN if !body.is_empty() => {
                return Err(FrameError::BadPayload {
                    detail: format!("{} body bytes on control packet", body.len()),
                });
            }
            TYPE_NACK => Packet::Nack { seq },
            TYPE_FIN => Packet::Fin { total: seq },
            other => return Err(FrameError::UnknownKind { kind: other }),
        };
        Ok((pkt, total))
    }
}

/// Tuning knobs for the NACK/retransmission protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// Maximum retransmissions of any one packet by the device.
    pub max_retries: u32,
    /// Maximum NACKs the host sends for any one gap before giving up.
    pub max_nacks: u32,
    /// Delay from gap detection to the first NACK, in seconds.
    pub gap_nack_delay_s: f64,
    /// Base NACK retry backoff, in seconds (doubles per attempt).
    pub nack_backoff_s: f64,
    /// Redundant `Fin` copies announcing end-of-stream (tail-loss
    /// protection).
    pub fin_copies: u32,
    /// Spacing between `Fin` copies, in seconds.
    pub fin_spacing_s: f64,
    /// Host gives up on the session this long after the device's last
    /// scheduled send; in-flight events past the deadline are dropped.
    pub session_timeout_s: f64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            max_retries: 5,
            max_nacks: 5,
            gap_nack_delay_s: 0.02,
            nack_backoff_s: 0.12,
            fin_copies: 4,
            fin_spacing_s: 0.06,
            session_timeout_s: 5.0,
        }
    }
}

/// Counters and wire digests for one reliable transfer.
///
/// The digests fold every byte offered to the forward (device → host)
/// and reverse (host → device) links through CRC-32 in send order, so
/// two sessions with equal stats exchanged byte-identical traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Original data packets across both channels.
    pub data_packets: usize,
    /// Unique data packets that reached the host.
    pub delivered_unique: usize,
    /// Duplicate deliveries discarded by sequence number.
    pub duplicates: usize,
    /// Envelopes discarded for CRC/framing errors (either direction).
    pub corrupt_discarded: usize,
    /// Retransmissions performed by the device.
    pub retransmissions: usize,
    /// NACKs sent by the host.
    pub nacks_sent: usize,
    /// Gaps the host abandoned after `max_nacks` attempts.
    pub gaps_abandoned: usize,
    /// Events discarded past the session deadline.
    pub late_dropped: usize,
    /// NACK backoff timers scheduled by the host (one per NACK sent).
    pub backoff_waits: usize,
    /// Total backoff time scheduled, in microseconds (integer so the
    /// stats stay `Eq` and replay-comparable).
    pub backoff_wait_us: u64,
    /// Bytes offered to the forward links.
    pub forward_bytes: usize,
    /// CRC-32 over all bytes offered to the forward links, in order.
    pub forward_digest: u32,
    /// Bytes offered to the reverse links.
    pub reverse_bytes: usize,
    /// CRC-32 over all bytes offered to the reverse links, in order.
    pub reverse_digest: u32,
}

impl std::fmt::Display for TransferStats {
    /// One-line summary for bench tables and CI logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pkts {}/{} (dup {}, corrupt {}) retx {} nacks {} \
             (backoff {}x/{:.2}s) gaps {} late {} fwd {}B rev {}B",
            self.delivered_unique,
            self.data_packets,
            self.duplicates,
            self.corrupt_discarded,
            self.retransmissions,
            self.nacks_sent,
            self.backoff_waits,
            self.backoff_wait_us as f64 / 1e6,
            self.gaps_abandoned,
            self.late_dropped,
            self.forward_bytes,
            self.reverse_bytes,
        )
    }
}

/// Incremental CRC-32 over a byte stream ([`crc32_update`]).
#[derive(Debug, Clone, Copy)]
struct WireDigest {
    crc: u32,
    bytes: usize,
}

impl WireDigest {
    fn new() -> Self {
        Self {
            crc: 0xffff_ffff,
            bytes: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.bytes += data.len();
        self.crc = crc32_update(self.crc, data);
    }

    fn finish(&self) -> u32 {
        !self.crc
    }
}

/// Discrete-event kinds of the virtual-time loop. `ch` is 0 for the
/// data link, 1 for the key link.
#[derive(Debug)]
enum EvKind {
    /// Device sends original data packet `seq` on channel `ch`.
    Send { ch: usize, seq: u32 },
    /// Device sends one `Fin` copy on channel `ch`.
    SendFin { ch: usize },
    /// Envelope bytes arrive at the host.
    Deliver { ch: usize, bytes: Vec<u8> },
    /// Host re-checks gap `seq`; NACKs it if still missing.
    NackTimer { ch: usize, seq: u32, attempt: u32 },
    /// NACK bytes arrive back at the device.
    NackBack { ch: usize, bytes: Vec<u8> },
}

struct Ev {
    t: f64,
    tie: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.tie == other.tie
    }
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first,
        // FIFO among equal times.
        other
            .t
            .partial_cmp(&self.t)
            .expect("event times are finite")
            .then(other.tie.cmp(&self.tie))
    }
}

/// Per-channel receive state at the host.
#[derive(Default)]
struct RxState {
    got: BTreeSet<u32>,
    nack_started: BTreeSet<u32>,
    /// Every sequence number below this has been examined for gaps.
    scan_from: u32,
    max_seq: Option<u32>,
}

/// Transmits a recording over two faulty links (data + key channel)
/// with NACK-based recovery, returning the degraded-assembled
/// recording with its [`LinkQuality`] (coverage and gap counts), plus
/// transfer statistics.
///
/// Key events ride the phone link but get the same ARQ protection —
/// a lost key event is unrecoverable by gap filling (the typed PIN
/// cannot be reconstructed), so the key channel is where reliability
/// matters most. Reverse (NACK) links are derived deterministically
/// from the forward links via [`FaultyLink::reverse`], keeping the
/// whole exchange a pure function of the two link configurations.
///
/// # Errors
///
/// The first tuple element is `Err` when even degraded assembly cannot
/// produce a valid recording — e.g. the `SessionEnd` never arrived
/// within the timeout, or a key event was lost beyond recovery.
///
/// # Panics
///
/// Panics if `rec` fails [`Recording::validate`] (same contract as
/// [`WearableDevice::packetize`]).
pub fn transmit_reliable(
    rec: &Recording,
    device: &WearableDevice,
    data_link: &mut FaultyLink,
    key_link: &mut FaultyLink,
    config: &ReliableConfig,
) -> (
    Result<(Recording, LinkQuality), AssembleError>,
    TransferStats,
) {
    let _span = p2auth_obs::span!("device.reliable.transmit");
    // Pre-register the transfer counters so they appear in reports even
    // for sessions that never exercise the recovery machinery.
    p2auth_obs::counter!("device.reliable.packets_sent").add(0);
    p2auth_obs::counter!("device.reliable.retransmissions").add(0);
    p2auth_obs::counter!("device.reliable.nacks_sent").add(0);
    p2auth_obs::counter!("device.reliable.gaps_abandoned").add(0);
    p2auth_obs::counter!("device.reliable.corrupt_discarded").add(0);
    p2auth_obs::counter!("device.reliable.duplicates").add(0);
    p2auth_obs::counter!("device.reliable.late_dropped").add(0);
    data_link.start_session();
    key_link.start_session();
    let mut reverse = [data_link.reverse(), key_link.reverse()];
    let forward = [data_link, key_link];

    // Split the packet stream into the two ARQ channels; each gets its
    // own sequence space, in send order.
    let mut sends: [Vec<(f64, Vec<u8>)>; 2] = [Vec::new(), Vec::new()];
    for tf in device.packetize(rec) {
        let ch = usize::from(matches!(tf.frame, Frame::Key { .. }));
        let seq = sends[ch].len() as u32;
        let pkt = Packet::Data {
            seq,
            frame: tf.frame.encode(),
        }
        .encode();
        sends[ch].push((tf.send_time_s, pkt));
    }

    let mut stats = TransferStats {
        data_packets: sends[0].len() + sends[1].len(),
        ..TransferStats::default()
    };
    let mut fwd_digest = WireDigest::new();
    let mut rev_digest = WireDigest::new();

    let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
    let mut tie = 0_u64;
    let push = |heap: &mut BinaryHeap<Ev>, tie: &mut u64, t: f64, kind: EvKind| {
        heap.push(Ev { t, tie: *tie, kind });
        *tie += 1;
    };

    let mut last_send = 0.0_f64;
    for (ch, channel) in sends.iter().enumerate() {
        let mut ch_last = 0.0_f64;
        for (seq, &(t, _)) in channel.iter().enumerate() {
            push(
                &mut heap,
                &mut tie,
                t,
                EvKind::Send {
                    ch,
                    seq: seq as u32,
                },
            );
            ch_last = ch_last.max(t);
        }
        if !channel.is_empty() {
            for copy in 0..config.fin_copies {
                let t = ch_last + 0.01 + f64::from(copy) * config.fin_spacing_s;
                push(&mut heap, &mut tie, t, EvKind::SendFin { ch });
                last_send = last_send.max(t);
            }
        }
        last_send = last_send.max(ch_last);
    }
    let deadline = last_send + config.session_timeout_s;

    let mut retries: [Vec<u32>; 2] = [vec![0; sends[0].len()], vec![0; sends[1].len()]];
    let mut rx: [RxState; 2] = [RxState::default(), RxState::default()];
    let mut assembler = HostAssembler::new();
    let mut end_frame: Option<Frame> = None;

    while let Some(ev) = heap.pop() {
        if ev.t > deadline {
            stats.late_dropped += 1;
            continue;
        }
        match ev.kind {
            EvKind::Send { ch, seq } => {
                let bytes = sends[ch][seq as usize].1.clone();
                fwd_digest.update(&bytes);
                for (t_arr, payload) in forward[ch].send(ev.t, &bytes) {
                    push(
                        &mut heap,
                        &mut tie,
                        t_arr,
                        EvKind::Deliver { ch, bytes: payload },
                    );
                }
            }
            EvKind::SendFin { ch } => {
                let bytes = Packet::Fin {
                    total: sends[ch].len() as u32,
                }
                .encode();
                fwd_digest.update(&bytes);
                for (t_arr, payload) in forward[ch].send(ev.t, &bytes) {
                    push(
                        &mut heap,
                        &mut tie,
                        t_arr,
                        EvKind::Deliver { ch, bytes: payload },
                    );
                }
            }
            EvKind::Deliver { ch, bytes } => match Packet::decode(&bytes) {
                Err(_) => stats.corrupt_discarded += 1,
                Ok((Packet::Data { seq, frame }, _)) => {
                    let st = &mut rx[ch];
                    if !st.got.insert(seq) {
                        stats.duplicates += 1;
                        continue;
                    }
                    stats.delivered_unique += 1;
                    match Frame::decode(&frame) {
                        Ok((f, _)) => {
                            if matches!(f, Frame::SessionEnd { .. }) {
                                // Withheld until the loop drains:
                                // retransmitted blocks may still be in
                                // flight, and assembly is final.
                                end_frame = Some(f);
                            } else {
                                let fed = assembler.feed(f);
                                debug_assert!(fed.is_ok(), "non-final frames cannot fail");
                            }
                        }
                        // Envelope CRC passed but the inner frame is
                        // bad — only possible via a CRC collision.
                        // The seq is burnt; treat the content as lost.
                        Err(_) => stats.corrupt_discarded += 1,
                    }
                    // Gap detection: everything in [scan_from, seq)
                    // not yet received gets a NACK chain.
                    if st.max_seq.is_none_or(|m| seq > m) {
                        let mut gaps = Vec::new();
                        for g in st.scan_from..seq {
                            if !st.got.contains(&g) && st.nack_started.insert(g) {
                                gaps.push(g);
                            }
                        }
                        for g in gaps {
                            push(
                                &mut heap,
                                &mut tie,
                                ev.t + config.gap_nack_delay_s,
                                EvKind::NackTimer {
                                    ch,
                                    seq: g,
                                    attempt: 0,
                                },
                            );
                        }
                        st.scan_from = seq;
                        st.max_seq = Some(seq);
                    }
                }
                Ok((Packet::Fin { total }, _)) => {
                    let st = &mut rx[ch];
                    let mut gaps = Vec::new();
                    for g in 0..total {
                        if !st.got.contains(&g) && st.nack_started.insert(g) {
                            gaps.push(g);
                        }
                    }
                    for g in gaps {
                        push(
                            &mut heap,
                            &mut tie,
                            ev.t + config.gap_nack_delay_s,
                            EvKind::NackTimer {
                                ch,
                                seq: g,
                                attempt: 0,
                            },
                        );
                    }
                    st.scan_from = st.scan_from.max(total);
                }
                // A NACK on the forward direction is a corrupted or
                // misrouted envelope; drop it.
                Ok((Packet::Nack { .. }, _)) => stats.corrupt_discarded += 1,
            },
            EvKind::NackTimer { ch, seq, attempt } => {
                if rx[ch].got.contains(&seq) {
                    continue; // recovered
                }
                if attempt >= config.max_nacks {
                    stats.gaps_abandoned += 1;
                    p2auth_obs::event!("device.reliable", "gap_abandoned", ch = ch, seq = seq);
                    continue;
                }
                stats.nacks_sent += 1;
                p2auth_obs::event!(
                    "device.reliable",
                    "nack",
                    ch = ch,
                    seq = seq,
                    attempt = attempt
                );
                let bytes = Packet::Nack { seq }.encode();
                rev_digest.update(&bytes);
                for (t_arr, payload) in reverse[ch].send(ev.t, &bytes) {
                    push(
                        &mut heap,
                        &mut tie,
                        t_arr,
                        EvKind::NackBack { ch, bytes: payload },
                    );
                }
                let backoff = config.nack_backoff_s * f64::from(1_u32 << attempt.min(10));
                stats.backoff_waits += 1;
                stats.backoff_wait_us += (backoff * 1e6).round() as u64;
                push(
                    &mut heap,
                    &mut tie,
                    ev.t + backoff,
                    EvKind::NackTimer {
                        ch,
                        seq,
                        attempt: attempt + 1,
                    },
                );
            }
            EvKind::NackBack { ch, bytes } => match Packet::decode(&bytes) {
                Ok((Packet::Nack { seq }, _)) => {
                    let i = seq as usize;
                    if i < sends[ch].len() && retries[ch][i] < config.max_retries {
                        retries[ch][i] += 1;
                        stats.retransmissions += 1;
                        p2auth_obs::event!(
                            "device.reliable",
                            "retransmit",
                            ch = ch,
                            seq = seq,
                            retry = retries[ch][i],
                        );
                        let pkt = sends[ch][i].1.clone();
                        fwd_digest.update(&pkt);
                        for (t_arr, payload) in forward[ch].send(ev.t, &pkt) {
                            push(
                                &mut heap,
                                &mut tie,
                                t_arr,
                                EvKind::Deliver { ch, bytes: payload },
                            );
                        }
                    }
                }
                _ => stats.corrupt_discarded += 1,
            },
        }
    }

    stats.forward_bytes = fwd_digest.bytes;
    stats.forward_digest = fwd_digest.finish();
    stats.reverse_bytes = rev_digest.bytes;
    stats.reverse_digest = rev_digest.finish();

    p2auth_obs::counter!("device.reliable.packets_sent").add(stats.data_packets as u64);
    p2auth_obs::counter!("device.reliable.retransmissions").add(stats.retransmissions as u64);
    p2auth_obs::counter!("device.reliable.nacks_sent").add(stats.nacks_sent as u64);
    p2auth_obs::counter!("device.reliable.gaps_abandoned").add(stats.gaps_abandoned as u64);
    p2auth_obs::counter!("device.reliable.corrupt_discarded").add(stats.corrupt_discarded as u64);
    p2auth_obs::counter!("device.reliable.duplicates").add(stats.duplicates as u64);
    p2auth_obs::counter!("device.reliable.late_dropped").add(stats.late_dropped as u64);
    p2auth_obs::event!(
        "device.reliable",
        "transfer_done",
        delivered = stats.delivered_unique,
        total = stats.data_packets,
        retx = stats.retransmissions,
        nacks = stats.nacks_sent,
    );

    let result = match end_frame {
        Some(end) => assembler
            .feed_lossy(end)
            .expect("SessionEnd always finalizes"),
        None => Err(AssembleError::Incomplete {
            detail: format!(
                "no SessionEnd within timeout ({} of {} packets delivered)",
                stats.delivered_unique, stats.data_packets
            ),
        }),
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::link::{FaultConfig, LinkConfig};
    use p2auth_core::types::{
        AccelTrack, ChannelInfo, HandMode, Pin, Placement, UserId, Wavelength,
    };

    fn rec() -> Recording {
        let n = 600;
        let mk = |phase: f64| -> Vec<f64> {
            (0..n).map(|i| ((i as f64) * 0.07 + phase).sin()).collect()
        };
        Recording {
            user: UserId(5),
            sample_rate: 100.0,
            ppg: vec![mk(0.0), mk(0.5), mk(1.0), mk(1.5)],
            channels: vec![
                ChannelInfo {
                    wavelength: Wavelength::Infrared,
                    placement: Placement::Radial,
                },
                ChannelInfo {
                    wavelength: Wavelength::Red,
                    placement: Placement::Radial,
                },
                ChannelInfo {
                    wavelength: Wavelength::Infrared,
                    placement: Placement::Ulnar,
                },
                ChannelInfo {
                    wavelength: Wavelength::Red,
                    placement: Placement::Ulnar,
                },
            ],
            accel: Some(AccelTrack {
                sample_rate: 75.0,
                axes: [vec![0.1; 450], vec![0.2; 450], vec![9.8; 450]],
            }),
            pin_entered: Pin::new("1628").unwrap(),
            reported_key_times: vec![120, 230, 340, 450],
            true_key_times: vec![118, 232, 338, 452],
            watch_hand: vec![true; 4],
            hand_mode: HandMode::OneHanded,
        }
    }

    #[test]
    fn packet_round_trips() {
        let cases = vec![
            Packet::Data {
                seq: 7,
                frame: vec![1, 2, 3, 4, 5],
            },
            Packet::Nack { seq: 0 },
            Packet::Nack { seq: u32::MAX },
            Packet::Fin { total: 381 },
        ];
        for pkt in cases {
            let bytes = pkt.encode();
            let (back, used) = Packet::decode(&bytes).unwrap();
            assert_eq!(back, pkt);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn packet_corruption_is_detected() {
        let bytes = Packet::Data {
            seq: 3,
            frame: vec![9; 40],
        }
        .encode();
        for i in 1..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Packet::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn packet_decode_never_panics_on_truncation() {
        let bytes = Packet::Fin { total: 12 }.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Packet::decode(&bytes[..cut]), Err(FrameError::Truncated));
        }
    }

    #[test]
    fn perfect_channel_needs_no_recovery() {
        let original = rec();
        let dev = WearableDevice::new(VirtualClock::new(2.0, 50.0));
        let mut data = FaultyLink::perfect(LinkConfig::default());
        let mut keys = FaultyLink::perfect(LinkConfig {
            seed: 99,
            ..LinkConfig::default()
        });
        let (result, stats) = transmit_reliable(
            &original,
            &dev,
            &mut data,
            &mut keys,
            &ReliableConfig::default(),
        );
        let (rebuilt, quality) = result.unwrap();
        assert_eq!(quality.coverage, 1.0);
        assert_eq!(quality.gap_blocks, 0);
        assert_eq!(quality.received_blocks, quality.expected_blocks);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.nacks_sent, 0);
        assert_eq!(stats.gaps_abandoned, 0);
        assert_eq!(stats.backoff_waits, 0);
        assert_eq!(stats.backoff_wait_us, 0);
        assert_eq!(stats.delivered_unique, stats.data_packets);
        assert_eq!(rebuilt.user, original.user);
        assert_eq!(rebuilt.pin_entered, original.pin_entered);
        assert_eq!(rebuilt.num_samples(), original.num_samples());
        assert_eq!(rebuilt.validate(), Ok(()));
    }

    #[test]
    fn light_loss_is_fully_recovered() {
        let original = rec();
        let dev = WearableDevice::new(VirtualClock::new(2.0, 50.0));
        let mut data = FaultyLink::new(LinkConfig::default(), FaultConfig::lossy(0.02, 11));
        let mut keys = FaultyLink::new(
            LinkConfig {
                seed: 99,
                ..LinkConfig::default()
            },
            FaultConfig::lossy(0.02, 12),
        );
        let (result, stats) = transmit_reliable(
            &original,
            &dev,
            &mut data,
            &mut keys,
            &ReliableConfig::default(),
        );
        let (rebuilt, quality) = result.unwrap();
        let coverage = quality.coverage;
        assert!(coverage > 0.99, "coverage {coverage} after recovery");
        assert!(stats.nacks_sent > 0, "2% loss over ~380 packets must NACK");
        assert_eq!(stats.gaps_abandoned, 0);
        assert_eq!(
            stats.backoff_waits, stats.nacks_sent,
            "every NACK schedules exactly one backoff timer"
        );
        assert!(stats.backoff_wait_us > 0);
        // The Display impl is what fault_bench and CI logs print; it
        // must mention the headline counters.
        let line = stats.to_string();
        assert!(line.contains("retx") && line.contains("nacks") && line.contains("backoff"));
        assert_eq!(rebuilt.num_samples(), original.num_samples());
        assert_eq!(rebuilt.pin_entered, original.pin_entered);
        assert_eq!(rebuilt.validate(), Ok(()));
    }

    #[test]
    fn heavy_loss_degrades_but_does_not_crash() {
        let original = rec();
        let dev = WearableDevice::new(VirtualClock::new(2.0, 50.0));
        let faults = FaultConfig {
            corrupt_rate: 0.01,
            ..FaultConfig::lossy(0.15, 21)
        };
        let mut data = FaultyLink::new(LinkConfig::default(), faults);
        let mut keys = FaultyLink::new(
            LinkConfig {
                seed: 99,
                ..LinkConfig::default()
            },
            FaultConfig::lossy(0.15, 22),
        );
        let (result, stats) = transmit_reliable(
            &original,
            &dev,
            &mut data,
            &mut keys,
            &ReliableConfig::default(),
        );
        assert!(stats.retransmissions > 0);
        match result {
            Ok((rebuilt, quality)) => {
                assert!(quality.coverage > 0.5, "coverage {}", quality.coverage);
                assert_eq!(rebuilt.validate(), Ok(()));
            }
            // Permanent loss of a key event or the SessionEnd is a
            // legitimate outcome at 15% loss; it must be reported as
            // Incomplete, not a panic.
            Err(AssembleError::Incomplete { detail }) => assert!(!detail.is_empty()),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn reliable_transfer_replays_deterministically() {
        let original = rec();
        let dev = WearableDevice::new(VirtualClock::new(2.0, 50.0));
        let run = || {
            let mut data = FaultyLink::new(LinkConfig::default(), FaultConfig::lossy(0.05, 31));
            let mut keys = FaultyLink::new(
                LinkConfig {
                    seed: 99,
                    ..LinkConfig::default()
                },
                FaultConfig::lossy(0.05, 32),
            );
            transmit_reliable(
                &original,
                &dev,
                &mut data,
                &mut keys,
                &ReliableConfig::default(),
            )
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(s1, s2, "stats (incl. wire digests) must replay exactly");
        assert_eq!(r1.unwrap(), r2.unwrap());
    }
}
