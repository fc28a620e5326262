//! Length-prefixed wire protocol.
//!
//! Every message — request or response — travels as one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 payload.
//! Length-prefixing (rather than newline delimiting) keeps the reader
//! O(frame) and immune to payload contents; the [`MAX_FRAME`] cap bounds
//! what a malicious or broken client can make the server buffer before the
//! connection is rejected.
//!
//! Payloads are line-structured text:
//!
//! ```text
//! request:        <tenant>\n<transcript...>
//! ok response:    ok\n<sql>
//! error response: err\n<class>\n<message...>
//! ```
//!
//! The transcript (and the error message) may themselves contain newlines;
//! only the *first* one or two lines are structural. Decoding never panics:
//! every malformed input — oversized declared length, truncated stream,
//! invalid UTF-8, missing separator — maps onto a typed [`FrameError`] or
//! [`ProtocolError`], which the connection handler converts into an `err`
//! response (or a counted drop) instead of unwinding a thread.

use std::io::{Read, Write};

/// Largest accepted frame payload in bytes. Transcripts are spoken SQL — a
/// few hundred bytes — so 64 KiB leaves two orders of magnitude of headroom
/// while keeping a hostile length prefix from provoking a giant allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// Why a frame could not be read off the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The length the prefix declared.
        declared: usize,
    },
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// The underlying transport failed (reset, timeout, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared } => {
                write!(
                    f,
                    "frame declares {declared} bytes, above the {MAX_FRAME} cap"
                )
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Why a complete frame's payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The payload lacked the structural first line(s) for its type.
    Malformed {
        /// What was being decoded ("request" or "response").
        kind: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NotUtf8 => write!(f, "payload is not valid UTF-8"),
            ProtocolError::Malformed { kind } => write!(f, "malformed {kind} payload"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One transcription request: which tenant's engine to use, and the raw ASR
/// transcript to correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Tenant name; resolved against the server's registry.
    pub tenant: String,
    /// The spoken-SQL transcript to transcribe.
    pub transcript: String,
}

/// One transcription response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The top-ranked corrected SQL for the request's transcript.
    Ok {
        /// Rendered SQL of the best candidate.
        sql: String,
    },
    /// The request failed; `class` is a stable machine-readable name
    /// (the `SpeakQlError::class` taxonomy plus server-side classes like
    /// `unknown_tenant` and `protocol`).
    Err {
        /// Stable error class.
        class: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Write `payload` as one length-prefixed frame.
///
/// Prefix and payload go out in a single `write_all`, so on a socket the
/// frame leaves as one send. Two writes would let Nagle's algorithm hold
/// the payload until the peer ACKs the prefix, and a peer that delays its
/// ACK (~40 ms on Linux) stalls every round trip.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between requests); EOF mid-frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        // panic-safe: `filled < prefix.len()` is the loop condition.
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > MAX_FRAME {
        return Err(FrameError::Oversized { declared });
    }
    let mut payload = vec![0u8; declared];
    let mut filled = 0;
    while filled < declared {
        // panic-safe: `filled < declared == payload.len()` per the loop
        // condition.
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(req.tenant.len() + 1 + req.transcript.len());
    out.extend_from_slice(req.tenant.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(req.transcript.as_bytes());
    out
}

/// Decode a request frame payload. The tenant is the first line (and may
/// not itself contain a newline by construction); everything after the
/// first `\n` is the transcript verbatim.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let text = std::str::from_utf8(payload).map_err(|_| ProtocolError::NotUtf8)?;
    let (tenant, transcript) = text
        .split_once('\n')
        .ok_or(ProtocolError::Malformed { kind: "request" })?;
    if tenant.is_empty() {
        return Err(ProtocolError::Malformed { kind: "request" });
    }
    Ok(Request {
        tenant: tenant.to_string(),
        transcript: transcript.to_string(),
    })
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok { sql } => {
            let mut out = Vec::with_capacity(3 + sql.len());
            out.extend_from_slice(b"ok\n");
            out.extend_from_slice(sql.as_bytes());
            out
        }
        Response::Err { class, message } => {
            let mut out = Vec::with_capacity(4 + class.len() + 1 + message.len());
            out.extend_from_slice(b"err\n");
            out.extend_from_slice(class.as_bytes());
            out.push(b'\n');
            out.extend_from_slice(message.as_bytes());
            out
        }
    }
}

/// Decode a response frame payload (the client side of the protocol).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let text = std::str::from_utf8(payload).map_err(|_| ProtocolError::NotUtf8)?;
    let (tag, rest) = text
        .split_once('\n')
        .ok_or(ProtocolError::Malformed { kind: "response" })?;
    match tag {
        "ok" => Ok(Response::Ok {
            sql: rest.to_string(),
        }),
        "err" => {
            let (class, message) = rest
                .split_once('\n')
                .ok_or(ProtocolError::Malformed { kind: "response" })?;
            if class.is_empty() {
                return Err(ProtocolError::Malformed { kind: "response" });
            }
            Ok(Response::Err {
                class: class.to_string(),
                message: message.to_string(),
            })
        }
        _ => Err(ProtocolError::Malformed { kind: "response" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        assert!(
            write_frame(&mut wire, payload).is_ok(),
            "write to Vec cannot fail"
        );
        let mut r = wire.as_slice();
        let got = match read_frame(&mut r) {
            Ok(Some(got)) => got,
            other => panic!(
                "frame must parse and be present, got {:?}",
                other.map(|_| ())
            ),
        };
        assert!(r.is_empty(), "reader must consume exactly one frame");
        got
    }

    #[test]
    fn frame_roundtrip_preserves_bytes() {
        for payload in [&b""[..], b"hello", "sélect × fröm ütf8".as_bytes()] {
            assert_eq!(roundtrip_frame(payload), payload);
        }
    }

    /// A `Write` that records every call it receives.
    #[derive(Default)]
    struct CallLog {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_and_one_flush() {
        let max = vec![b'x'; MAX_FRAME];
        for payload in [&b""[..], b"employees\nselect salary from employees", &max] {
            let mut log = CallLog::default();
            assert!(write_frame(&mut log, payload).is_ok());
            let mut want = (payload.len() as u32).to_be_bytes().to_vec();
            want.extend_from_slice(payload);
            assert_eq!(log.writes.len(), 1, "{}-byte payload", payload.len());
            assert_eq!(log.writes[0], want, "{}-byte payload", payload.len());
            assert_eq!(log.flushes, 1, "{}-byte payload", payload.len());
        }
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn truncated_prefix_and_payload_are_typed() {
        let mut short: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut short), Err(FrameError::Truncated)));
        let mut cut: &[u8] = &[0, 0, 0, 9, b'a', b'b'];
        assert!(matches!(read_frame(&mut cut), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = wire.as_slice();
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized { declared }) if declared == u32::MAX as usize
        ));
    }

    #[test]
    fn request_roundtrip() {
        let req = Request {
            tenant: "employees".into(),
            transcript: "select name from employees\nwhere salary > 100".into(),
        };
        assert_eq!(decode_request(&encode_request(&req)), Ok(req));
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert_eq!(
            decode_request(b"no-newline"),
            Err(ProtocolError::Malformed { kind: "request" })
        );
        assert_eq!(
            decode_request(b"\ntranscript"),
            Err(ProtocolError::Malformed { kind: "request" })
        );
        assert_eq!(
            decode_request(&[0xFF, 0xFE, b'\n']),
            Err(ProtocolError::NotUtf8)
        );
    }

    #[test]
    fn response_roundtrip_both_arms() {
        for resp in [
            Response::Ok {
                sql: "SELECT name FROM employees".into(),
            },
            Response::Err {
                class: "overloaded".into(),
                message: "queue full\nretry later".into(),
            },
        ] {
            assert_eq!(decode_response(&encode_response(&resp)), Ok(resp));
        }
    }
}
