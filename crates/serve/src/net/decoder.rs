//! Incremental decoding of length-prefixed frames, with per-connection
//! wire-format negotiation.
//!
//! The outer framing (`proto.rs`) is one shape for both wire formats: a
//! 4-byte big-endian length followed by that many payload bytes. What the
//! payload *is* — UTF-8 JSON text or a binary GPSQ message (`wire.rs`) —
//! is negotiated by the first frame a connection sends: a payload opening
//! with the `GPSQ` magic makes the connection a binary session, anything
//! else a JSON session. The choice is sticky: every later frame must
//! match it, and a frame of the other format mid-session is a *framing*
//! error that closes the connection (the peer's encoder state is
//! evidently broken; there is no way to answer it in a format it will
//! parse).
//!
//! An event loop cannot block its way through a frame, so
//! [`FrameDecoder`] consumes whatever bytes the socket had — a frame
//! split at any byte boundary, several pipelined frames in one read — and
//! yields complete payloads as they close. The router feeds it the same
//! way (its front read bursts and its backend links), and the blocking
//! `Client` uses it too (`read_frame_payload` takes one frame at a time
//! out of its buffered reader), so "parses a torn length prefix
//! correctly" and "negotiates the format exactly once" are properties of
//! one implementation, tested once, at every split point.

use std::fmt;

use gps_types::binary::GPSQ_MAGIC;

/// What a connection's payloads are, decided by its first frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// UTF-8 JSON text payloads (the original protocol; the default).
    Json,
    /// GPSQ binary payloads (`gps_serve::wire`).
    Binary,
}

impl WireFormat {
    pub fn name(&self) -> &'static str {
        match self {
            WireFormat::Json => "json",
            WireFormat::Binary => "binary",
        }
    }
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<WireFormat, String> {
        match s {
            "json" => Ok(WireFormat::Json),
            "binary" => Ok(WireFormat::Binary),
            other => Err(format!("unknown wire format {other:?} (json|binary)")),
        }
    }
}

/// Why a byte stream stopped being decodable. All are *framing* errors:
/// the stream position (or the peer's encoder) can no longer be trusted
/// and the connection must close (contrast with well-framed garbage JSON,
/// which gets an error *reply*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The length prefix exceeds the frame size cap — attacker-controlled
    /// input must not size a buffer.
    Oversize(u32),
    /// A completed frame body in a JSON session is not UTF-8.
    Utf8,
    /// A completed frame does not match the session's negotiated wire
    /// format (a JSON frame mid-binary-session, or vice versa).
    Format,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Oversize(_) => write!(f, "frame exceeds size cap"),
            DecodeError::Utf8 => write!(f, "frame is not utf-8"),
            DecodeError::Format => write!(f, "frame does not match the negotiated wire format"),
        }
    }
}

impl std::error::Error for DecodeError {}

enum State {
    /// Collecting the 4-byte big-endian length prefix.
    Prefix { got: usize, bytes: [u8; 4] },
    /// Collecting `need` bytes of frame body.
    Body { need: usize, buf: Vec<u8> },
}

/// Push-based frame decoder; one per connection, state (including the
/// negotiated wire format) persists across reads.
pub struct FrameDecoder {
    max_frame: u32,
    state: State,
    format: Option<WireFormat>,
}

impl FrameDecoder {
    pub fn new(max_frame: u32) -> FrameDecoder {
        FrameDecoder {
            max_frame,
            state: State::Prefix {
                got: 0,
                bytes: [0; 4],
            },
            format: None,
        }
    }

    /// The wire format the first completed frame negotiated; `None` until
    /// then.
    pub fn format(&self) -> Option<WireFormat> {
        self.format
    }

    /// True when no partial frame is buffered — EOF here is a clean
    /// close, EOF anywhere else is a truncated frame.
    pub fn at_boundary(&self) -> bool {
        matches!(self.state, State::Prefix { got: 0, .. })
    }

    /// Negotiate on the first frame, enforce on every later one.
    fn check_format(&mut self, payload: &[u8]) -> Result<(), DecodeError> {
        let is_binary = payload.starts_with(&GPSQ_MAGIC);
        match self.format {
            None => {
                self.format = Some(if is_binary {
                    WireFormat::Binary
                } else {
                    WireFormat::Json
                });
            }
            Some(WireFormat::Binary) if !is_binary => return Err(DecodeError::Format),
            Some(WireFormat::Json) if is_binary => return Err(DecodeError::Format),
            Some(_) => {}
        }
        if self.format == Some(WireFormat::Json) && std::str::from_utf8(payload).is_err() {
            return Err(DecodeError::Utf8);
        }
        Ok(())
    }

    /// Consume a chunk, appending every frame it completes to `out` (a
    /// chunk may complete zero frames, or several). On error the decoder
    /// is poisoned garbage — the connection owning it must close.
    pub fn feed(&mut self, mut chunk: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), DecodeError> {
        while !chunk.is_empty() {
            if let Some(payload) = self.next_frame(&mut chunk)? {
                out.push(payload);
            }
        }
        Ok(())
    }

    /// Consume the front of `chunk` up to the end of the first frame it
    /// completes and return that payload, or `None` once the chunk runs
    /// out mid-frame. Whatever is left in `chunk` belongs to later frames,
    /// so a blocking reader (`read_frame_payload`) takes exactly one frame
    /// out of its buffer. Errors poison the decoder as in [`feed`](Self::feed).
    pub fn next_frame(&mut self, chunk: &mut &[u8]) -> Result<Option<Vec<u8>>, DecodeError> {
        while !chunk.is_empty() {
            match &mut self.state {
                State::Prefix { got, bytes } => {
                    let take = chunk.len().min(4 - *got);
                    bytes[*got..*got + take].copy_from_slice(&chunk[..take]);
                    *got += take;
                    *chunk = &chunk[take..];
                    if *got == 4 {
                        let len = u32::from_be_bytes(*bytes);
                        if len > self.max_frame {
                            return Err(DecodeError::Oversize(len));
                        }
                        if len == 0 {
                            // A zero-length frame closes immediately (its
                            // empty payload then fails JSON parsing, which
                            // is the *caller's* concern — framing is fine).
                            self.check_format(&[])?;
                            self.state = State::Prefix {
                                got: 0,
                                bytes: [0; 4],
                            };
                            return Ok(Some(Vec::new()));
                        }
                        // Capacity is capped below the declared length: a
                        // peer that *claims* a huge frame but never sends
                        // it must not reserve that memory (C10K × 16 MB
                        // claims would). The buffer grows with bytes
                        // actually received.
                        self.state = State::Body {
                            need: len as usize,
                            buf: Vec::with_capacity((len as usize).min(64 * 1024)),
                        };
                    }
                }
                State::Body { need, buf } => {
                    let take = chunk.len().min(*need - buf.len());
                    buf.extend_from_slice(&chunk[..take]);
                    *chunk = &chunk[take..];
                    if buf.len() == *need {
                        let payload = std::mem::take(buf);
                        self.state = State::Prefix {
                            got: 0,
                            bytes: [0; 4],
                        };
                        self.check_format(&payload)?;
                        return Ok(Some(payload));
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CAP: u32 = 1 << 20;

    fn encode(frames: &[&str]) -> Vec<u8> {
        encode_bytes(&frames.iter().map(|f| f.as_bytes()).collect::<Vec<_>>())
    }

    fn encode_bytes(frames: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for frame in frames {
            bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            bytes.extend_from_slice(frame);
        }
        bytes
    }

    /// A minimal well-formed-looking GPSQ payload: the magic plus filler.
    fn gpsq_payload(fill: &[u8]) -> Vec<u8> {
        let mut payload = GPSQ_MAGIC.to_vec();
        payload.extend_from_slice(fill);
        payload
    }

    fn decode_in_chunks(bytes: &[u8], chunk: usize) -> Vec<Vec<u8>> {
        let mut decoder = FrameDecoder::new(CAP);
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            decoder.feed(piece, &mut out).expect("well-formed stream");
        }
        assert!(decoder.at_boundary(), "stream ends on a frame boundary");
        out
    }

    /// The load-bearing adversarial property, exhaustively: a pipelined
    /// multi-frame stream split at *every* byte boundary decodes to the
    /// same frames — in both wire formats.
    #[test]
    fn every_split_point_yields_identical_frames() {
        let json_frames = ["{\"cmd\":\"ping\"}", "", "{\"id\":7}", "x"];
        let json_bytes = encode(&json_frames);
        let binary_payloads = [
            gpsq_payload(&[1, 2, 0]),
            gpsq_payload(&[]),
            gpsq_payload(&[0xFF; 9]),
        ];
        let binary_bytes = encode_bytes(
            &binary_payloads
                .iter()
                .map(|p| p.as_slice())
                .collect::<Vec<_>>(),
        );
        for (bytes, expected, format) in [
            (
                &json_bytes,
                json_frames
                    .iter()
                    .map(|s| s.as_bytes().to_vec())
                    .collect::<Vec<_>>(),
                WireFormat::Json,
            ),
            (&binary_bytes, binary_payloads.to_vec(), WireFormat::Binary),
        ] {
            for split in 0..=bytes.len() {
                let mut decoder = FrameDecoder::new(CAP);
                let mut out = Vec::new();
                decoder.feed(&bytes[..split], &mut out).unwrap();
                decoder.feed(&bytes[split..], &mut out).unwrap();
                assert_eq!(out, expected, "{format:?} split at byte {split}");
                assert_eq!(decoder.format(), Some(format));
            }
            // And one byte at a time — maximal TCP segmentation.
            assert_eq!(&decode_in_chunks(bytes, 1), &expected);
            // And all at once — maximal pipelining.
            assert_eq!(&decode_in_chunks(bytes, bytes.len()), &expected);
        }
    }

    #[test]
    fn first_frame_negotiates_the_session_format() {
        let mut decoder = FrameDecoder::new(CAP);
        assert_eq!(decoder.format(), None, "undecided before any frame");
        let mut out = Vec::new();
        decoder
            .feed(&encode_bytes(&[&gpsq_payload(&[2])]), &mut out)
            .unwrap();
        assert_eq!(decoder.format(), Some(WireFormat::Binary));

        let mut decoder = FrameDecoder::new(CAP);
        decoder.feed(&encode(&["{}"]), &mut out).unwrap();
        assert_eq!(decoder.format(), Some(WireFormat::Json));

        // The empty frame negotiates JSON (it cannot carry the magic).
        let mut decoder = FrameDecoder::new(CAP);
        decoder.feed(&encode(&[""]), &mut out).unwrap();
        assert_eq!(decoder.format(), Some(WireFormat::Json));
    }

    #[test]
    fn json_frame_mid_binary_session_is_a_framing_error() {
        let mut decoder = FrameDecoder::new(CAP);
        let mut out = Vec::new();
        let mut stream = encode_bytes(&[&gpsq_payload(&[2, 0]), &gpsq_payload(&[1])]);
        stream.extend_from_slice(&encode(&["{\"cmd\":\"ping\"}"]));
        // Whatever the chunking, the two binary frames come out and the
        // JSON intruder fails the moment its frame completes.
        for chunk in [1usize, 3, stream.len()] {
            let mut decoder2 = FrameDecoder::new(CAP);
            let mut out2 = Vec::new();
            let mut failed = false;
            for piece in stream.chunks(chunk) {
                if decoder2.feed(piece, &mut out2).is_err() {
                    failed = true;
                    break;
                }
            }
            assert!(failed, "chunk {chunk}: JSON mid-binary must break framing");
            assert_eq!(out2.len(), 2, "chunk {chunk}: prior frames were valid");
        }
        // And the error is the format error specifically.
        decoder
            .feed(&encode_bytes(&[&gpsq_payload(&[])]), &mut out)
            .unwrap();
        assert_eq!(
            decoder.feed(&encode(&["{}"]), &mut out).unwrap_err(),
            DecodeError::Format
        );
    }

    #[test]
    fn binary_frame_mid_json_session_is_a_framing_error() {
        let mut decoder = FrameDecoder::new(CAP);
        let mut out = Vec::new();
        decoder
            .feed(&encode(&["{\"cmd\":\"ping\"}"]), &mut out)
            .unwrap();
        assert_eq!(
            decoder
                .feed(&encode_bytes(&[&gpsq_payload(&[7])]), &mut out)
                .unwrap_err(),
            DecodeError::Format
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_at_the_prefix() {
        let mut decoder = FrameDecoder::new(CAP);
        let mut out = Vec::new();
        // Even delivered a byte at a time, the error fires the moment the
        // prefix completes — no body allocation happens.
        let prefix = (CAP + 1).to_be_bytes();
        for (i, &b) in prefix.iter().enumerate() {
            let result = decoder.feed(&[b], &mut out);
            if i < 3 {
                result.unwrap();
            } else {
                assert_eq!(result.unwrap_err(), DecodeError::Oversize(CAP + 1));
            }
        }
        assert!(out.is_empty());
    }

    #[test]
    fn non_utf8_body_is_a_framing_error_in_json_sessions_only() {
        let mut decoder = FrameDecoder::new(CAP);
        let mut out = Vec::new();
        // First frame: JSON session.
        decoder.feed(&encode(&["{}"]), &mut out).unwrap();
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decoder.feed(&bytes, &mut out).unwrap_err(),
            DecodeError::Utf8
        );
        // A binary session happily carries non-UTF-8 payload bytes.
        let mut decoder = FrameDecoder::new(CAP);
        let mut out = Vec::new();
        decoder
            .feed(&encode_bytes(&[&gpsq_payload(&[0xFF, 0xFE])]), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn next_frame_stops_at_the_frame_boundary() {
        let mut decoder = FrameDecoder::new(CAP);
        let bytes = encode(&["hello", "{}"]);
        // A torn prefix, then a torn body: nothing completes, every byte
        // is taken.
        let mut chunk = &bytes[..2];
        assert_eq!(decoder.next_frame(&mut chunk), Ok(None));
        assert!(chunk.is_empty());
        let mut chunk = &bytes[2..6];
        assert_eq!(decoder.next_frame(&mut chunk), Ok(None));
        assert!(chunk.is_empty() && !decoder.at_boundary());
        // The rest of the first frame plus all of the second: only the
        // first comes out, and the second is left untouched.
        let mut chunk = &bytes[6..];
        assert_eq!(decoder.next_frame(&mut chunk), Ok(Some(b"hello".to_vec())));
        assert_eq!(chunk, &bytes[9..]);
        assert!(decoder.at_boundary());
        assert_eq!(decoder.next_frame(&mut chunk), Ok(Some(b"{}".to_vec())));
        assert!(chunk.is_empty());
    }

    proptest! {
        /// Random frame sets under random chunkings always decode to the
        /// original frames, regardless of how the bytes were torn — for
        /// JSON payloads and GPSQ payloads alike.
        #[test]
        fn random_chunking_round_trips(
            lens in proptest::collection::vec(0usize..200, 1..8),
            chunk in 1usize..64,
            fill in any::<u8>(),
            binary in any::<bool>(),
        ) {
            let frames: Vec<Vec<u8>> = lens
                .iter()
                .map(|&n| {
                    if binary {
                        gpsq_payload(&vec![fill; n])
                    } else {
                        vec![b'a' + (fill % 26); n]
                    }
                })
                .collect();
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            let bytes = encode_bytes(&refs);
            prop_assert_eq!(&decode_in_chunks(&bytes, chunk), &frames);
        }

        /// Truncating a stream anywhere never yields a frame that wasn't
        /// fully delivered, and never errors (truncation is only
        /// detectable at EOF, which is the caller's signal). Mid-frame
        /// cuts are visible as "not at a boundary". Holds for binary
        /// sessions exactly as for JSON ones.
        #[test]
        fn truncation_never_invents_frames(cut in 0usize..64, binary in any::<bool>()) {
            let frames: Vec<Vec<u8>> = if binary {
                vec![gpsq_payload(&[2, 1, 0, 10, 0, 0, 1]), gpsq_payload(&[1])]
            } else {
                vec![b"{\"cmd\":\"stats\"}".to_vec(), b"0123456789".to_vec()]
            };
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            let bytes = encode_bytes(&refs);
            let cut = cut.min(bytes.len());
            let mut decoder = FrameDecoder::new(CAP);
            let mut out = Vec::new();
            decoder.feed(&bytes[..cut], &mut out).unwrap();
            // Only whole frames come out, in order.
            let frame_ends = [4 + frames[0].len(), bytes.len()];
            let whole = frame_ends.iter().filter(|&&end| cut >= end).count();
            prop_assert_eq!(out.len(), whole, "cut at {}", cut);
            for (produced, original) in out.iter().zip(frames.iter()) {
                prop_assert_eq!(produced, original);
            }
            prop_assert_eq!(
                decoder.at_boundary(),
                cut == 0 || frame_ends.contains(&cut),
                "cut at {}", cut
            );
        }
    }
}
