//! The IPFIX-style export wire format.
//!
//! An export *message* carries a fixed header followed by a run of flow
//! records. Each record is a fixed 52-byte stats block — matching the
//! paper's "52 bytes per flow" (§5.1) — optionally followed by a
//! variable-length path attachment when the exporter knows the flow's
//! exact route (probes, INT, A2 traceroutes).
//!
//! Two header versions are in the field. v1 is the original 32-byte
//! header; v2 appends an agent-stamped `epoch_seq:u64` — the index of
//! the collector-agreed tumbling epoch the export belongs to — which
//! lets the collector pre-bucket records by epoch as it decodes and the
//! stream layer skip per-record window re-assignment on drain.
//! Negotiation is per-message and passive: each frame declares its
//! version, a v2 decoder accepts both, so v1 agents keep working against
//! a v2 collector unchanged.
//!
//! ```text
//! message   := header record*
//! header_v1 := magic:u32 version:u16 record_count:u16 msg_len:u32
//!              agent_id:u32 export_time_ms:u64 sequence:u64       (32 B)
//! header_v2 := header_v1 epoch_seq:u64                            (40 B)
//! record    := src:u32 dst:u32 sport:u16 dport:u16 proto:u8 flags:u8
//!              packets:u48 retrans:u48 bytes:u64 rtt_sum_us:u64
//!              rtt_count:u32 rtt_max_us:u32 reserved:u16          (52 B)
//! path      := len:u16 link:u32{len}       (present iff flags & HAS_PATH)
//! ```
//!
//! All integers are big-endian. `msg_len` is the total encoded size of the
//! message including the header, which makes stream framing trivial: a
//! decoder buffers bytes until `msg_len` are available.

use crate::flow::{FlowKey, FlowRecord, FlowStats, TrafficClass};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use flock_topology::{LinkId, NodeId};
use std::fmt;

/// Message magic: `"FLK1"`.
pub const MAGIC: u32 = 0x464c_4b31;
/// The original wire protocol version (no epoch hint).
pub const VERSION_V1: u16 = 1;
/// Current wire protocol version: v2, with the `epoch_seq` header field.
pub const VERSION: u16 = 2;
/// Size of the v1 message header in bytes.
pub const HEADER_LEN: usize = 32;
/// Size of the v2 message header in bytes (v1 plus `epoch_seq:u64`).
pub const HEADER_LEN_V2: usize = 40;
/// Size of the fixed flow-stats record in bytes.
pub const RECORD_LEN: usize = 52;

/// Header size for a given protocol version (panics on unknown versions;
/// decoders reject those before asking).
pub fn header_len(version: u16) -> usize {
    match version {
        VERSION_V1 => HEADER_LEN,
        VERSION => HEADER_LEN_V2,
        v => panic!("unknown wire version {v}"),
    }
}

/// Record flag: a path attachment follows the fixed record.
pub const FLAG_HAS_PATH: u8 = 0b0000_0001;
/// Record flag: the flow is an active probe.
pub const FLAG_PROBE: u8 = 0b0000_0010;

const MAX_PATH_LEN: usize = 64;
const MAX_RECORDS: usize = u16::MAX as usize;

/// Largest `msg_len` a header can legitimately declare: a full v2 header
/// plus `MAX_RECORDS` records each carrying a maximal path attachment.
/// Anything larger is corruption — the framing layer refuses to buffer
/// toward it and resyncs instead.
pub const MAX_MSG_LEN: usize = HEADER_LEN_V2 + MAX_RECORDS * (RECORD_LEN + 2 + MAX_PATH_LEN * 4);

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Magic bytes did not match.
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// Header-declared length is inconsistent with the decoded content.
    LengthMismatch {
        /// Length the header declared.
        declared: u32,
        /// Length actually consumed.
        consumed: u32,
    },
    /// A path attachment exceeded `MAX_PATH_LEN` entries.
    PathTooLong(u16),
    /// The message was truncated mid-record.
    Truncated,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::LengthMismatch { declared, consumed } => {
                write!(
                    f,
                    "length mismatch: declared {declared}, consumed {consumed}"
                )
            }
            WireError::PathTooLong(n) => write!(f, "path attachment too long: {n}"),
            WireError::Truncated => write!(f, "message truncated"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded export message.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportMessage {
    /// Identifier of the exporting agent.
    pub agent_id: u32,
    /// Export timestamp, milliseconds since an agent-chosen epoch.
    pub export_time_ms: u64,
    /// Per-agent message sequence number.
    pub sequence: u64,
    /// Agent-stamped epoch index (v2 frames only; `None` for v1).
    pub epoch_seq: Option<u64>,
    /// The flow records.
    pub records: Vec<FlowRecord>,
}

/// Encode a v1 export message (no epoch hint). Panics if more than
/// `u16::MAX` records are passed (the agent's exporter chunks before
/// calling this).
pub fn encode_message(
    agent_id: u32,
    export_time_ms: u64,
    sequence: u64,
    records: &[FlowRecord],
) -> Bytes {
    encode_message_impl(agent_id, export_time_ms, sequence, None, records)
}

/// Encode a v2 export message carrying the agent-stamped epoch index.
pub fn encode_message_v2(
    agent_id: u32,
    export_time_ms: u64,
    sequence: u64,
    epoch_seq: u64,
    records: &[FlowRecord],
) -> Bytes {
    encode_message_impl(agent_id, export_time_ms, sequence, Some(epoch_seq), records)
}

fn encode_message_impl(
    agent_id: u32,
    export_time_ms: u64,
    sequence: u64,
    epoch_seq: Option<u64>,
    records: &[FlowRecord],
) -> Bytes {
    assert!(
        records.len() <= MAX_RECORDS,
        "too many records in one message"
    );
    let header = if epoch_seq.is_some() {
        HEADER_LEN_V2
    } else {
        HEADER_LEN
    };
    let mut body = BytesMut::with_capacity(header + records.len() * (RECORD_LEN + 8));
    body.put_u32(MAGIC);
    body.put_u16(if epoch_seq.is_some() {
        VERSION
    } else {
        VERSION_V1
    });
    body.put_u16(records.len() as u16);
    body.put_u32(0); // msg_len backpatched below
    body.put_u32(agent_id);
    body.put_u64(export_time_ms);
    body.put_u64(sequence);
    if let Some(seq) = epoch_seq {
        body.put_u64(seq);
    }
    debug_assert_eq!(body.len(), header);

    for rec in records {
        encode_record(&mut body, rec);
    }
    let len = body.len() as u32;
    body[8..12].copy_from_slice(&len.to_be_bytes());
    body.freeze()
}

fn encode_record(out: &mut BytesMut, rec: &FlowRecord) {
    let mut flags = 0u8;
    if rec.path.is_some() {
        flags |= FLAG_HAS_PATH;
    }
    if rec.class == TrafficClass::Probe {
        flags |= FLAG_PROBE;
    }
    let start = out.len();
    out.put_u32(rec.key.src.0);
    out.put_u32(rec.key.dst.0);
    out.put_u16(rec.key.src_port);
    out.put_u16(rec.key.dst_port);
    out.put_u8(rec.key.proto);
    out.put_u8(flags);
    out.put_uint(rec.stats.packets.min((1 << 48) - 1), 6);
    out.put_uint(rec.stats.retransmissions.min((1 << 48) - 1), 6);
    out.put_u64(rec.stats.bytes);
    out.put_u64(rec.stats.rtt_sum_us);
    out.put_u32(rec.stats.rtt_count);
    out.put_u32(rec.stats.rtt_max_us);
    out.put_u16(0); // reserved
    debug_assert_eq!(out.len() - start, RECORD_LEN);

    if let Some(path) = &rec.path {
        assert!(path.len() <= MAX_PATH_LEN, "path longer than wire maximum");
        out.put_u16(path.len() as u16);
        for l in path {
            out.put_u32(l.0);
        }
    }
}

/// Decode one complete export message from `buf`.
///
/// `buf` must contain exactly one message (as framed by
/// [`StreamDecoder`] or a one-shot caller).
pub fn decode_message(mut buf: &[u8]) -> Result<ExportMessage, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let total = buf.len();
    let magic = buf.get_u32();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = buf.get_u16();
    if version != VERSION_V1 && version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let record_count = buf.get_u16() as usize;
    let msg_len = buf.get_u32();
    let agent_id = buf.get_u32();
    let export_time_ms = buf.get_u64();
    let sequence = buf.get_u64();
    let epoch_seq = if version == VERSION {
        if buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Some(buf.get_u64())
    } else {
        None
    };

    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        if buf.remaining() < RECORD_LEN {
            return Err(WireError::Truncated);
        }
        let src = NodeId(buf.get_u32());
        let dst = NodeId(buf.get_u32());
        let src_port = buf.get_u16();
        let dst_port = buf.get_u16();
        let proto = buf.get_u8();
        let flags = buf.get_u8();
        let packets = buf.get_uint(6);
        let retransmissions = buf.get_uint(6);
        let bytes = buf.get_u64();
        let rtt_sum_us = buf.get_u64();
        let rtt_count = buf.get_u32();
        let rtt_max_us = buf.get_u32();
        let _reserved = buf.get_u16();

        let path = if flags & FLAG_HAS_PATH != 0 {
            if buf.remaining() < 2 {
                return Err(WireError::Truncated);
            }
            let n = buf.get_u16();
            if n as usize > MAX_PATH_LEN {
                return Err(WireError::PathTooLong(n));
            }
            if buf.remaining() < n as usize * 4 {
                return Err(WireError::Truncated);
            }
            Some((0..n).map(|_| LinkId(buf.get_u32())).collect())
        } else {
            None
        };

        records.push(FlowRecord {
            key: FlowKey {
                src,
                dst,
                src_port,
                dst_port,
                proto,
            },
            stats: FlowStats {
                packets,
                retransmissions,
                bytes,
                rtt_sum_us,
                rtt_count,
                rtt_max_us,
            },
            class: if flags & FLAG_PROBE != 0 {
                TrafficClass::Probe
            } else {
                TrafficClass::Passive
            },
            path,
        });
    }
    let consumed = (total - buf.remaining()) as u32;
    if consumed != msg_len {
        return Err(WireError::LengthMismatch {
            declared: msg_len,
            consumed,
        });
    }
    Ok(ExportMessage {
        agent_id,
        export_time_ms,
        sequence,
        epoch_seq,
        records,
    })
}

/// Incremental stream decoder: feed arbitrary byte chunks, pop complete
/// messages. Used by the collector's per-connection readers.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Received bytes; the first `start` of them are already consumed.
    buf: Vec<u8>,
    /// Consumed frames are skipped by advancing this offset and compacted
    /// away on the next [`feed`](Self::feed), so decoding a chunk of many
    /// frames moves each byte once instead of once per frame ahead of it.
    start: usize,
}

impl StreamDecoder {
    /// Create an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// The buffered bytes not yet consumed.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Discard everything buffered and release the buffer.
    fn clear(&mut self) {
        *self = Self::default();
    }

    /// Pop the next complete message, if one is fully buffered.
    ///
    /// On a framing/decoding error the buffered data cannot be resynced
    /// (it is a TCP stream we no longer trust), so the decoder drains its
    /// buffer and surfaces the error; the collector drops the connection.
    pub fn next_message(&mut self) -> Result<Option<ExportMessage>, WireError> {
        let buf = self.pending();
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_be_bytes(buf[0..4].try_into().unwrap());
        if magic != MAGIC {
            self.clear();
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(buf[4..6].try_into().unwrap());
        if version != VERSION_V1 && version != VERSION {
            self.clear();
            return Err(WireError::BadVersion(version));
        }
        let msg_len = u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
        if msg_len < header_len(version) {
            self.clear();
            return Err(WireError::LengthMismatch {
                declared: msg_len as u32,
                consumed: header_len(version) as u32,
            });
        }
        if buf.len() < msg_len {
            return Ok(None);
        }
        let decoded = decode_message(&buf[..msg_len]);
        self.start += msg_len;
        match decoded {
            Ok(msg) => Ok(Some(msg)),
            Err(e) => {
                self.clear();
                Err(e)
            }
        }
    }

    /// Pop the next decode event without poisoning the stream.
    ///
    /// Unlike [`next_message`](Self::next_message), a malformed region of
    /// the stream does not discard everything buffered: a frame whose
    /// length field is trustworthy but whose content is not is dropped as
    /// a unit ([`DecodeStep::Quarantined`]), and garbage with no usable
    /// header is skipped byte-wise to the next plausible frame boundary
    /// ([`DecodeStep::Resynced`]). The caller decides when accumulated
    /// quarantine/resync volume crosses its kill threshold — teardown is
    /// a policy decision, not a framing side effect.
    pub fn next_step(&mut self) -> DecodeStep {
        let buf = self.pending();
        if buf.len() < HEADER_LEN {
            if buf.is_empty() {
                // At a frame boundary: an idle connection holds no buffer.
                self.clear();
            }
            return DecodeStep::NeedMore;
        }
        let magic = u32::from_be_bytes(buf[0..4].try_into().unwrap());
        if magic != MAGIC {
            return self.resync(WireError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(buf[4..6].try_into().unwrap());
        let msg_len = u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
        let known_version = version == VERSION_V1 || version == VERSION;
        // The declared length is only trusted inside sane bounds; an insane
        // length means the header itself is corrupt, so frame-skipping
        // would desynchronize us further — hunt for the next magic instead.
        let min_len = if known_version {
            header_len(version)
        } else {
            HEADER_LEN
        };
        if msg_len < min_len || msg_len > MAX_MSG_LEN {
            return self.resync(WireError::LengthMismatch {
                declared: msg_len as u32,
                consumed: min_len as u32,
            });
        }
        if buf.len() < msg_len {
            return DecodeStep::NeedMore;
        }
        if !known_version {
            // Length-framed but undecodable: drop exactly this frame and
            // keep the boundary for the next one.
            self.start += msg_len;
            return DecodeStep::Quarantined(WireError::BadVersion(version));
        }
        let decoded = decode_message(&buf[..msg_len]);
        self.start += msg_len;
        match decoded {
            Ok(msg) => DecodeStep::Message(msg),
            // The frame was consumed whole, so the stream position is
            // still aligned; only this message is lost.
            Err(e) => DecodeStep::Quarantined(e),
        }
    }

    /// Skip at least one byte, then scan for the next `MAGIC` occurrence.
    /// Keeps up to 3 tail bytes (a potential partial magic) buffered when
    /// no full match is found.
    fn resync(&mut self, cause: WireError) -> DecodeStep {
        let magic = MAGIC.to_be_bytes();
        let buf = self.pending();
        let dropped = match buf[1..].windows(4).position(|w| w == magic) {
            Some(i) => 1 + i,
            None => buf.len().saturating_sub(3).max(1),
        };
        self.start += dropped;
        DecodeStep::Resynced { dropped, cause }
    }

    /// Bytes currently buffered (for tests/diagnostics).
    pub fn buffered(&self) -> usize {
        self.pending().len()
    }
}

/// One step of fault-tolerant stream decoding ([`StreamDecoder::next_step`]).
///
/// `Quarantined` and `Resynced` are progress, not termination: the caller
/// should count them (per [`WireError`] cause) and keep stepping; the
/// stream stays usable unless the caller's own quarantine budget decides
/// otherwise.
#[derive(Debug)]
pub enum DecodeStep {
    /// A complete, valid message.
    Message(ExportMessage),
    /// Not enough buffered bytes for the next frame; feed more.
    NeedMore,
    /// A length-framed message failed decoding; the whole frame was
    /// discarded and the stream is still aligned on the next boundary.
    Quarantined(WireError),
    /// Garbage at the head of the stream: `dropped` bytes were skipped to
    /// the next plausible frame boundary (or to a 3-byte tail when no
    /// magic was found in the buffered window).
    Resynced {
        /// Bytes discarded while hunting for the next magic.
        dropped: usize,
        /// What made the head undecodable.
        cause: WireError,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FlowRecord> {
        vec![
            FlowRecord {
                key: FlowKey::tcp(NodeId(3), NodeId(9), 4001, 80),
                stats: FlowStats {
                    packets: 1234,
                    retransmissions: 7,
                    bytes: 1_850_000,
                    rtt_sum_us: 55_000,
                    rtt_count: 11,
                    rtt_max_us: 9_000,
                },
                class: TrafficClass::Passive,
                path: None,
            },
            FlowRecord {
                key: FlowKey::probe(NodeId(3), NodeId(40), 2),
                stats: FlowStats {
                    packets: 40,
                    retransmissions: 1,
                    bytes: 4_000,
                    rtt_sum_us: 2_000,
                    rtt_count: 39,
                    rtt_max_us: 80,
                },
                class: TrafficClass::Probe,
                path: Some(vec![
                    LinkId(0),
                    LinkId(8),
                    LinkId(22),
                    LinkId(23),
                    LinkId(9),
                    LinkId(1),
                ]),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let recs = sample_records();
        let bytes = encode_message(42, 1111, 5, &recs);
        let msg = decode_message(&bytes).unwrap();
        assert_eq!(msg.agent_id, 42);
        assert_eq!(msg.export_time_ms, 1111);
        assert_eq!(msg.sequence, 5);
        assert_eq!(msg.epoch_seq, None, "v1 frames carry no epoch hint");
        assert_eq!(msg.records, recs);
    }

    #[test]
    fn v2_roundtrip_carries_epoch_seq() {
        let recs = sample_records();
        let bytes = encode_message_v2(42, 61_500, 5, 2, &recs);
        let msg = decode_message(&bytes).unwrap();
        assert_eq!(msg.agent_id, 42);
        assert_eq!(msg.export_time_ms, 61_500);
        assert_eq!(msg.sequence, 5);
        assert_eq!(msg.epoch_seq, Some(2));
        assert_eq!(msg.records, recs);
    }

    #[test]
    fn v2_header_is_exactly_40_bytes() {
        let bytes = encode_message_v2(0, 0, 0, 7, &[]);
        assert_eq!(bytes.len(), HEADER_LEN_V2);
        assert_eq!(u16::from_be_bytes(bytes[4..6].try_into().unwrap()), VERSION);
    }

    #[test]
    fn stream_decoder_handles_mixed_versions() {
        let recs = sample_records();
        let mut all = Vec::new();
        all.extend_from_slice(&encode_message(1, 10, 0, &recs));
        all.extend_from_slice(&encode_message_v2(1, 1_500, 1, 1, &recs[..1]));
        all.extend_from_slice(&encode_message(1, 20, 2, &recs));

        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for chunk in all.chunks(11) {
            dec.feed(chunk);
            while let Some(msg) = dec.next_message().unwrap() {
                out.push(msg);
            }
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].epoch_seq, None);
        assert_eq!(out[1].epoch_seq, Some(1));
        assert_eq!(out[1].records.len(), 1);
        assert_eq!(out[2].epoch_seq, None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn stream_decoder_rejects_unknown_version_early() {
        let mut dec = StreamDecoder::new();
        let mut hdr = encode_message(1, 0, 0, &[]).to_vec();
        hdr[4..6].copy_from_slice(&9u16.to_be_bytes());
        dec.feed(&hdr);
        assert!(matches!(dec.next_message(), Err(WireError::BadVersion(9))));
        assert_eq!(dec.buffered(), 0, "poisoned buffer must be dropped");
    }

    #[test]
    fn record_is_exactly_52_bytes_without_path() {
        let recs = vec![FlowRecord {
            key: FlowKey::tcp(NodeId(0), NodeId(1), 1, 2),
            stats: FlowStats::default(),
            class: TrafficClass::Passive,
            path: None,
        }];
        let bytes = encode_message(0, 0, 0, &recs);
        assert_eq!(bytes.len(), HEADER_LEN + RECORD_LEN);
    }

    #[test]
    fn stream_decoder_reassembles_split_messages() {
        let recs = sample_records();
        let m1 = encode_message(1, 10, 0, &recs);
        let m2 = encode_message(1, 20, 1, &recs[..1]);
        let mut all = Vec::new();
        all.extend_from_slice(&m1);
        all.extend_from_slice(&m2);

        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        // Feed in awkward 7-byte chunks.
        for chunk in all.chunks(7) {
            dec.feed(chunk);
            while let Some(msg) = dec.next_message().unwrap() {
                out.push(msg);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sequence, 0);
        assert_eq!(out[1].sequence, 1);
        assert_eq!(out[1].records.len(), 1);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_step_decodes_many_frames_per_chunk_and_carries_the_tail() {
        let recs = sample_records();
        let mut all = Vec::new();
        for seq in 0..40u64 {
            all.extend_from_slice(&encode_message_v2(1, seq, seq, 0, &recs));
        }
        let frame_len = all.len() / 40;
        let mut dec = StreamDecoder::new();
        let mut seqs = Vec::new();
        // Each chunk holds two whole frames and half of the next one.
        for chunk in all.chunks(frame_len * 5 / 2) {
            dec.feed(chunk);
            loop {
                match dec.next_step() {
                    DecodeStep::Message(msg) => seqs.push(msg.sequence),
                    DecodeStep::NeedMore => break,
                    other => panic!("clean stream: {other:?}"),
                }
            }
            assert!(dec.buffered() < frame_len, "only a partial frame is left");
        }
        assert_eq!(seqs, (0..40).collect::<Vec<_>>());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut dec = StreamDecoder::new();
        dec.feed(&[0u8; HEADER_LEN]);
        assert!(matches!(dec.next_message(), Err(WireError::BadMagic(0))));
        assert_eq!(dec.buffered(), 0, "poisoned buffer must be dropped");
    }

    #[test]
    fn truncated_message_is_detected() {
        let recs = sample_records();
        let bytes = encode_message(42, 0, 0, &recs);
        // Chop the message: the one-shot decoder must not panic.
        for cut in [HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            let err = decode_message(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::LengthMismatch { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn version_check() {
        let recs = sample_records();
        let bytes = encode_message(42, 0, 0, &recs);
        let mut bad = bytes.to_vec();
        bad[4..6].copy_from_slice(&99u16.to_be_bytes());
        assert_eq!(decode_message(&bad), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn oversized_path_rejected_on_decode() {
        let recs = vec![FlowRecord {
            key: FlowKey::tcp(NodeId(0), NodeId(1), 1, 2),
            stats: FlowStats::default(),
            class: TrafficClass::Passive,
            path: Some(vec![LinkId(1); 4]),
        }];
        let bytes = encode_message(0, 0, 0, &recs);
        let mut bad = bytes.to_vec();
        // Overwrite the path length field with a huge value.
        let off = HEADER_LEN + RECORD_LEN;
        bad[off..off + 2].copy_from_slice(&1000u16.to_be_bytes());
        assert!(matches!(
            decode_message(&bad),
            Err(WireError::PathTooLong(1000)) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn next_step_resyncs_across_garbage() {
        let recs = sample_records();
        let good = encode_message_v2(7, 100, 0, 1, &recs);
        let mut all = Vec::new();
        all.extend_from_slice(&good);
        all.extend_from_slice(&[0xde; 57]); // garbage, no magic
        all.extend_from_slice(&good);

        let mut dec = StreamDecoder::new();
        dec.feed(&all);
        let mut msgs = 0;
        let mut resyncs = 0;
        let mut dropped = 0;
        loop {
            match dec.next_step() {
                DecodeStep::Message(_) => msgs += 1,
                DecodeStep::Resynced { dropped: d, cause } => {
                    assert!(matches!(cause, WireError::BadMagic(_)));
                    resyncs += 1;
                    dropped += d;
                }
                DecodeStep::Quarantined(e) => panic!("unexpected quarantine: {e}"),
                DecodeStep::NeedMore => break,
            }
        }
        assert_eq!(msgs, 2, "both framed messages survive the garbage");
        assert!(resyncs >= 1);
        assert_eq!(dropped, 57, "exactly the garbage bytes are dropped");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_step_quarantines_bad_frame_and_keeps_alignment() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        // Corrupt the path-length field of the second record so the frame
        // decodes inconsistently but the outer length framing is intact.
        let mut bad = good.to_vec();
        let off = HEADER_LEN + RECORD_LEN * 2; // m2's path-length field
        bad[off..off + 2].copy_from_slice(&1000u16.to_be_bytes());

        let mut dec = StreamDecoder::new();
        dec.feed(&bad);
        dec.feed(&good);
        match dec.next_step() {
            DecodeStep::Quarantined(_) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        match dec.next_step() {
            DecodeStep::Message(m) => assert_eq!(m.records, recs),
            other => panic!("expected the following message, got {other:?}"),
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn next_step_quarantines_unknown_version_by_frame() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        let mut bad = good.to_vec();
        bad[4..6].copy_from_slice(&9u16.to_be_bytes());

        let mut dec = StreamDecoder::new();
        dec.feed(&bad);
        dec.feed(&good);
        assert!(matches!(
            dec.next_step(),
            DecodeStep::Quarantined(WireError::BadVersion(9))
        ));
        assert!(matches!(dec.next_step(), DecodeStep::Message(_)));
    }

    #[test]
    fn next_step_resyncs_on_insane_length() {
        let recs = sample_records();
        let good = encode_message(7, 100, 0, &recs);
        let mut bad = good.to_vec();
        bad[8..12].copy_from_slice(&u32::MAX.to_be_bytes());

        let mut dec = StreamDecoder::new();
        dec.feed(&bad);
        dec.feed(&good);
        // The corrupt header is skipped via resync (possibly in several
        // hops), then the good message decodes.
        let mut saw_resync = false;
        loop {
            match dec.next_step() {
                DecodeStep::Resynced { cause, .. } => {
                    saw_resync = true;
                    assert!(matches!(
                        cause,
                        WireError::LengthMismatch { .. } | WireError::BadMagic(_)
                    ));
                }
                DecodeStep::Message(m) => {
                    assert_eq!(m.records, recs);
                    break;
                }
                DecodeStep::Quarantined(_) => {}
                DecodeStep::NeedMore => panic!("decoder stalled"),
            }
        }
        assert!(saw_resync);
    }

    #[test]
    fn u48_saturation() {
        let recs = vec![FlowRecord {
            key: FlowKey::tcp(NodeId(0), NodeId(1), 1, 2),
            stats: FlowStats {
                packets: u64::MAX,
                retransmissions: u64::MAX,
                ..Default::default()
            },
            class: TrafficClass::Passive,
            path: None,
        }];
        let bytes = encode_message(0, 0, 0, &recs);
        let msg = decode_message(&bytes).unwrap();
        assert_eq!(msg.records[0].stats.packets, (1 << 48) - 1);
    }
}
