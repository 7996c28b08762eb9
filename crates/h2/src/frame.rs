//! HTTP/2 frames and their binary codec.
//!
//! RFC 7540 §4 defines a 9-octet frame header (24-bit length, 8-bit type,
//! 8-bit flags, 31-bit stream id) followed by a type-specific payload. The
//! simulation exchanges frames between the browser model and simulated
//! servers; the codec keeps the wire format honest so the byte-overhead
//! accounting (and the ORIGIN-frame ablation) measures the real thing.
//!
//! The ORIGIN frame (RFC 8336) is included because the paper names it as the
//! mechanism servers *could* use to widen connection reuse — and notes that
//! Chromium does not implement it, which the browser model mirrors.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim_types::DomainName;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::stream::StreamId;

/// The registered HTTP/2 frame types (RFC 7540 §6, RFC 8336).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameType {
    /// DATA (0x0).
    Data,
    /// HEADERS (0x1).
    Headers,
    /// PRIORITY (0x2).
    Priority,
    /// RST_STREAM (0x3).
    RstStream,
    /// SETTINGS (0x4).
    Settings,
    /// PUSH_PROMISE (0x5).
    PushPromise,
    /// PING (0x6).
    Ping,
    /// GOAWAY (0x7).
    GoAway,
    /// WINDOW_UPDATE (0x8).
    WindowUpdate,
    /// CONTINUATION (0x9).
    Continuation,
    /// ORIGIN (0xC, RFC 8336).
    Origin,
}

impl FrameType {
    /// The wire identifier.
    pub const fn code(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::Priority => 0x2,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::PushPromise => 0x5,
            FrameType::Ping => 0x6,
            FrameType::GoAway => 0x7,
            FrameType::WindowUpdate => 0x8,
            FrameType::Continuation => 0x9,
            FrameType::Origin => 0xC,
        }
    }

    /// Map a wire identifier back to a frame type.
    pub const fn from_code(code: u8) -> Option<FrameType> {
        Some(match code {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            0x2 => FrameType::Priority,
            0x3 => FrameType::RstStream,
            0x4 => FrameType::Settings,
            0x5 => FrameType::PushPromise,
            0x6 => FrameType::Ping,
            0x7 => FrameType::GoAway,
            0x8 => FrameType::WindowUpdate,
            0x9 => FrameType::Continuation,
            0xC => FrameType::Origin,
            _ => return None,
        })
    }
}

/// The END_STREAM flag (DATA / HEADERS).
pub const FLAG_END_STREAM: u8 = 0x1;
/// The END_HEADERS flag (HEADERS / CONTINUATION).
pub const FLAG_END_HEADERS: u8 = 0x4;
/// The ACK flag (SETTINGS / PING).
pub const FLAG_ACK: u8 = 0x1;

/// One entry of an ORIGIN frame: an origin the server claims authority for.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OriginEntry {
    /// The authoritative origin, e.g. `https://images.example.com`.
    pub origin: String,
}

impl OriginEntry {
    /// An entry for an HTTPS origin on the default port.
    pub fn https(domain: &DomainName) -> Self {
        OriginEntry { origin: format!("https://{domain}") }
    }

    /// The domain part of the origin, if it parses.
    pub fn domain(&self) -> Option<DomainName> {
        let rest = self.origin.strip_prefix("https://").or_else(|| self.origin.strip_prefix("http://"))?;
        let host = rest.split([':', '/']).next().unwrap_or(rest);
        DomainName::parse(host).ok()
    }
}

impl fmt::Debug for OriginEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OriginEntry({})", self.origin)
    }
}

/// A decoded HTTP/2 frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// DATA carrying `len` payload octets (payload bytes themselves are not
    /// materialised — the simulation tracks sizes, not content).
    Data {
        /// Stream the data belongs to.
        stream: StreamId,
        /// Payload length in octets.
        len: u32,
        /// Whether END_STREAM is set.
        end_stream: bool,
    },
    /// HEADERS carrying an HPACK-encoded block.
    Headers {
        /// Stream the header block belongs to.
        stream: StreamId,
        /// The HPACK-encoded block.
        block: Vec<u8>,
        /// Whether END_STREAM is set.
        end_stream: bool,
    },
    /// RST_STREAM with an error code.
    RstStream {
        /// Stream being reset.
        stream: StreamId,
        /// RFC 7540 §7 error code.
        error_code: u32,
    },
    /// SETTINGS as (identifier, value) pairs; `ack` frames carry none.
    Settings {
        /// Whether this is an acknowledgement.
        ack: bool,
        /// Settings parameters.
        parameters: Vec<(u16, u32)>,
    },
    /// PING (optionally an ack).
    Ping {
        /// Whether this is an acknowledgement.
        ack: bool,
        /// Opaque payload.
        payload: u64,
    },
    /// GOAWAY announcing the last stream the sender will process.
    GoAway {
        /// Highest stream id the sender may still process.
        last_stream: StreamId,
        /// RFC 7540 §7 error code.
        error_code: u32,
    },
    /// WINDOW_UPDATE increasing a flow-control window.
    WindowUpdate {
        /// Stream (0 = connection level).
        stream: StreamId,
        /// Window size increment.
        increment: u32,
    },
    /// ORIGIN (RFC 8336) — only valid on stream 0, sent by servers.
    Origin {
        /// Origins the server claims authority for.
        origins: Vec<OriginEntry>,
    },
}

impl Frame {
    /// The type of this frame.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Data { .. } => FrameType::Data,
            Frame::Headers { .. } => FrameType::Headers,
            Frame::RstStream { .. } => FrameType::RstStream,
            Frame::Settings { .. } => FrameType::Settings,
            Frame::Ping { .. } => FrameType::Ping,
            Frame::GoAway { .. } => FrameType::GoAway,
            Frame::WindowUpdate { .. } => FrameType::WindowUpdate,
            Frame::Origin { .. } => FrameType::Origin,
        }
    }

    /// The stream the frame applies to (stream 0 for connection-level frames).
    pub fn stream_id(&self) -> StreamId {
        match self {
            Frame::Data { stream, .. }
            | Frame::Headers { stream, .. }
            | Frame::RstStream { stream, .. }
            | Frame::WindowUpdate { stream, .. } => *stream,
            Frame::Settings { .. } | Frame::Ping { .. } | Frame::GoAway { .. } | Frame::Origin { .. } => {
                StreamId::CONNECTION
            }
        }
    }

    /// Encode the frame into its RFC 7540 wire representation.
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        let mut flags: u8 = 0;
        match self {
            Frame::Data { len, end_stream, .. } => {
                // Payload content is synthetic: encode a zero-filled body of
                // the declared length, capped to keep traces small.
                let emit = (*len).min(16_384);
                payload.resize(emit as usize, 0);
                if *end_stream {
                    flags |= FLAG_END_STREAM;
                }
            }
            Frame::Headers { block, end_stream, .. } => {
                payload.extend_from_slice(block);
                flags |= FLAG_END_HEADERS;
                if *end_stream {
                    flags |= FLAG_END_STREAM;
                }
            }
            Frame::RstStream { error_code, .. } => payload.put_u32(*error_code),
            Frame::Settings { ack, parameters } => {
                if *ack {
                    flags |= FLAG_ACK;
                } else {
                    for (id, value) in parameters {
                        payload.put_u16(*id);
                        payload.put_u32(*value);
                    }
                }
            }
            Frame::Ping { ack, payload: data } => {
                if *ack {
                    flags |= FLAG_ACK;
                }
                payload.put_u64(*data);
            }
            Frame::GoAway { last_stream, error_code } => {
                payload.put_u32(last_stream.value());
                payload.put_u32(*error_code);
            }
            Frame::WindowUpdate { increment, .. } => payload.put_u32(*increment),
            Frame::Origin { origins } => {
                for entry in origins {
                    let ascii = entry.origin.as_bytes();
                    payload.put_u16(ascii.len() as u16);
                    payload.extend_from_slice(ascii);
                }
            }
        }
        let mut out = BytesMut::with_capacity(9 + payload.len());
        let len = payload.len() as u32;
        out.put_u8((len >> 16) as u8);
        out.put_u16((len & 0xFFFF) as u16);
        out.put_u8(self.frame_type().code());
        out.put_u8(flags);
        out.put_u32(self.stream_id().value() & 0x7FFF_FFFF);
        out.extend_from_slice(&payload);
        out.freeze()
    }

    /// Decode one frame from the front of `buf`, advancing it past the frame.
    pub fn decode(buf: &mut Bytes) -> Result<Frame, FrameDecodeError> {
        if buf.len() < 9 {
            return Err(FrameDecodeError::Truncated);
        }
        let len = ((buf[0] as usize) << 16) | ((buf[1] as usize) << 8) | buf[2] as usize;
        let type_code = buf[3];
        let flags = buf[4];
        let stream_raw =
            ((buf[5] as u32) << 24) | ((buf[6] as u32) << 16) | ((buf[7] as u32) << 8) | buf[8] as u32;
        let stream = StreamId::new(stream_raw & 0x7FFF_FFFF);
        if buf.len() < 9 + len {
            return Err(FrameDecodeError::Truncated);
        }
        buf.advance(9);
        let mut payload = buf.split_to(len);
        let frame_type = FrameType::from_code(type_code).ok_or(FrameDecodeError::UnknownType(type_code))?;
        let frame = match frame_type {
            FrameType::Data => {
                Frame::Data { stream, len: len as u32, end_stream: flags & FLAG_END_STREAM != 0 }
            }
            FrameType::Headers => {
                Frame::Headers { stream, block: payload.to_vec(), end_stream: flags & FLAG_END_STREAM != 0 }
            }
            FrameType::RstStream => {
                if payload.len() < 4 {
                    return Err(FrameDecodeError::BadPayload(frame_type));
                }
                Frame::RstStream { stream, error_code: payload.get_u32() }
            }
            FrameType::Settings => {
                if flags & FLAG_ACK != 0 {
                    Frame::Settings { ack: true, parameters: vec![] }
                } else {
                    if !payload.len().is_multiple_of(6) {
                        return Err(FrameDecodeError::BadPayload(frame_type));
                    }
                    let mut parameters = Vec::with_capacity(payload.len() / 6);
                    while payload.remaining() >= 6 {
                        parameters.push((payload.get_u16(), payload.get_u32()));
                    }
                    Frame::Settings { ack: false, parameters }
                }
            }
            FrameType::Ping => {
                if payload.len() < 8 {
                    return Err(FrameDecodeError::BadPayload(frame_type));
                }
                Frame::Ping { ack: flags & FLAG_ACK != 0, payload: payload.get_u64() }
            }
            FrameType::GoAway => {
                if payload.len() < 8 {
                    return Err(FrameDecodeError::BadPayload(frame_type));
                }
                Frame::GoAway {
                    last_stream: StreamId::new(payload.get_u32() & 0x7FFF_FFFF),
                    error_code: payload.get_u32(),
                }
            }
            FrameType::WindowUpdate => {
                if payload.len() < 4 {
                    return Err(FrameDecodeError::BadPayload(frame_type));
                }
                Frame::WindowUpdate { stream, increment: payload.get_u32() }
            }
            FrameType::Origin => {
                let mut origins = Vec::new();
                while payload.remaining() >= 2 {
                    let origin_len = payload.get_u16() as usize;
                    if payload.remaining() < origin_len {
                        return Err(FrameDecodeError::BadPayload(frame_type));
                    }
                    let ascii = payload.split_to(origin_len);
                    let origin = String::from_utf8(ascii.to_vec())
                        .map_err(|_| FrameDecodeError::BadPayload(frame_type))?;
                    origins.push(OriginEntry { origin });
                }
                Frame::Origin { origins }
            }
            FrameType::Priority | FrameType::PushPromise | FrameType::Continuation => {
                return Err(FrameDecodeError::Unsupported(frame_type));
            }
        };
        Ok(frame)
    }
}

/// Errors from [`Frame::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// The buffer does not hold a complete frame.
    Truncated,
    /// The frame type octet is not a registered type.
    UnknownType(u8),
    /// The payload does not match the frame type's layout.
    BadPayload(FrameType),
    /// A valid type the simulation does not exchange (PRIORITY,
    /// PUSH_PROMISE, CONTINUATION).
    Unsupported(FrameType),
}

impl fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameDecodeError::Truncated => write!(f, "truncated frame"),
            FrameDecodeError::UnknownType(code) => write!(f, "unknown frame type 0x{code:x}"),
            FrameDecodeError::BadPayload(t) => write!(f, "malformed payload for {t:?}"),
            FrameDecodeError::Unsupported(t) => write!(f, "unsupported frame type {t:?}"),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut wire = frame.encode();
        let decoded = Frame::decode(&mut wire).unwrap();
        assert!(wire.is_empty(), "decode must consume the whole frame");
        decoded
    }

    #[test]
    fn settings_roundtrip() {
        let frame = Frame::Settings { ack: false, parameters: vec![(0x3, 100), (0x4, 65_535)] };
        assert_eq!(roundtrip(frame.clone()), frame);
        let ack = Frame::Settings { ack: true, parameters: vec![] };
        assert_eq!(roundtrip(ack.clone()), ack);
    }

    #[test]
    fn headers_and_data_roundtrip() {
        let headers = Frame::Headers { stream: StreamId::new(1), block: vec![1, 2, 3], end_stream: false };
        assert_eq!(roundtrip(headers.clone()), headers);
        let data = Frame::Data { stream: StreamId::new(1), len: 1200, end_stream: true };
        assert_eq!(roundtrip(data.clone()), data);
    }

    #[test]
    fn goaway_rst_window_ping_roundtrip() {
        for frame in [
            Frame::GoAway { last_stream: StreamId::new(7), error_code: 0 },
            Frame::RstStream { stream: StreamId::new(5), error_code: 8 },
            Frame::WindowUpdate { stream: StreamId::CONNECTION, increment: 65_535 },
            Frame::Ping { ack: true, payload: 0xDEAD_BEEF },
        ] {
            assert_eq!(roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn origin_frame_roundtrip() {
        let frame = Frame::Origin {
            origins: vec![
                OriginEntry::https(&DomainName::literal("example.com")),
                OriginEntry::https(&DomainName::literal("img.example.com")),
            ],
        };
        let decoded = roundtrip(frame.clone());
        assert_eq!(decoded, frame);
        if let Frame::Origin { origins } = decoded {
            assert_eq!(origins[1].domain(), Some(DomainName::literal("img.example.com")));
        } else {
            unreachable!();
        }
    }

    #[test]
    fn origin_entries_with_misplaced_wildcards_have_no_domain() {
        let entry = |origin: &str| OriginEntry { origin: origin.to_string() };
        assert_eq!(entry("https://a*b.example.com").domain(), None);
        assert_eq!(entry("https://www.*.example.com:443").domain(), None);
        assert_eq!(entry("https://*.example.com").domain(), Some(DomainName::literal("*.example.com")));
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut empty = Bytes::from_static(b"\x00\x00");
        assert_eq!(Frame::decode(&mut empty), Err(FrameDecodeError::Truncated));
        // Unknown type 0xEE with empty payload.
        let mut unknown = Bytes::from_static(&[0, 0, 0, 0xEE, 0, 0, 0, 0, 0]);
        assert_eq!(Frame::decode(&mut unknown), Err(FrameDecodeError::UnknownType(0xEE)));
        // RST_STREAM with a short payload.
        let mut short = Bytes::from_static(&[0, 0, 2, 0x3, 0, 0, 0, 0, 1, 0, 0]);
        assert_eq!(Frame::decode(&mut short), Err(FrameDecodeError::BadPayload(FrameType::RstStream)));
    }

    #[test]
    fn frame_type_codes_are_bijective_for_known_types() {
        for t in [
            FrameType::Data,
            FrameType::Headers,
            FrameType::Priority,
            FrameType::RstStream,
            FrameType::Settings,
            FrameType::PushPromise,
            FrameType::Ping,
            FrameType::GoAway,
            FrameType::WindowUpdate,
            FrameType::Continuation,
            FrameType::Origin,
        ] {
            assert_eq!(FrameType::from_code(t.code()), Some(t));
        }
        assert_eq!(FrameType::from_code(0xAB), None);
    }

    #[test]
    fn stream_ids_are_preserved() {
        let frame = Frame::Headers { stream: StreamId::new(101), block: vec![], end_stream: true };
        assert_eq!(roundtrip(frame).stream_id(), StreamId::new(101));
        let conn_level = Frame::Settings { ack: false, parameters: vec![] };
        assert_eq!(conn_level.stream_id(), StreamId::CONNECTION);
    }
}
