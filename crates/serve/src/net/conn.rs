//! Per-connection state for the event loops.
//!
//! A [`Conn`] owns one nonblocking socket and everything needed to resume
//! it mid-anything: the incremental frame decoder (reads can tear frames
//! at any byte) and the outbound buffer with explicit backpressure.
//! Requests are answered one at a time on the loop's thread, so replies
//! enter the outbound buffer in request order (the blocking `Client`
//! relies on it) with nothing to reorder.
//!
//! ## Bounds
//!
//! Everything a peer can grow is capped:
//!
//! - the *inbound* side buffers at most one frame (the decoder), itself
//!   capped at `MAX_FRAME_BYTES`;
//! - once more than [`WRITE_HIGH_WATER`] response bytes are queued on a
//!   connection, nothing more is answered or read until the peer drains:
//!   frames the current read burst already decoded park (bounded by the
//!   burst, [`READ_BUDGET`]) and the connection's read interest drops, so
//!   the kernel's receive buffer, and then the peer's congestion window,
//!   absorb the rest (TCP backpressure, not server memory). The outbound
//!   buffer therefore never holds more than the high-water mark plus one
//!   reply.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use super::decoder::{FrameDecoder, WireFormat};
use super::http::{HttpError, HttpParser, HttpRequest};
use super::poller::Interest;
use crate::proto::MAX_FRAME_BYTES;

/// Outbound bytes queued past which the connection stops answering and
/// reading requests until the peer drains.
pub(crate) const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Per-readiness-event read budget: a firehose connection yields to its
/// loop-mates after this many bytes (level-triggered polling re-reports
/// it immediately).
pub(crate) const READ_BUDGET: usize = 64 * 1024;

/// One complete inbound request, whichever protocol the connection
/// speaks: a length-prefixed frame payload (JSON or GPSQ) from the wire
/// listener, or a parsed HTTP request from the gateway listener.
pub(crate) enum Payload {
    Frame(Vec<u8>),
    /// Boxed so the frame variant — the high-rate path — stays small
    /// when payload vectors are drained and moved around.
    Http(Box<HttpRequest>),
    /// A fatal HTTP parse failure: answer with its status, then the
    /// connection closes (the read side is already marked broken).
    BadHttp(HttpError),
}

/// Which inbound parser a connection runs.
enum ConnProto {
    Frames(FrameDecoder),
    Http(HttpParser),
}

/// What one readable-event's worth of socket reading produced.
pub(crate) enum ReadOutcome {
    /// Keep serving (frames, if any, were appended to the caller's vec).
    Progress,
    /// Peer half-closed cleanly at a frame boundary; answer what's
    /// outstanding, flush, then close.
    PeerClosed,
    /// Framing is broken (torn EOF, oversized prefix, non-UTF-8, or a
    /// socket error): the stream position is untrustworthy. Frames
    /// decoded *before* the break are still valid and were appended.
    Broken,
}

pub(crate) struct Conn {
    pub stream: TcpStream,
    pub token: u64,
    proto: ConnProto,
    /// Reused frame-decoder output vec (drained into `Payload`s per read).
    frame_scratch: Vec<Vec<u8>>,
    /// Reused HTTP-parser output vec.
    http_scratch: Vec<HttpRequest>,
    /// Whether any response has reached the outbound buffer yet.
    answered: bool,
    /// Decoded request frames not yet answered. A read burst lands here
    /// and the event loop answers it front to back; one burst can decode
    /// thousands of tiny frames whose replies are not tiny, and bytes
    /// already read from the kernel cannot be pushed back — so once the
    /// outbound buffer is over [`WRITE_HIGH_WATER`] the rest of the burst
    /// stays parked (bounded by one read burst, because a connection with
    /// parked frames stops reading) until the socket drains.
    pub parked: VecDeque<Payload>,
    out: Vec<u8>,
    out_pos: usize,
    pub last_activity: Instant,
    /// The interest currently registered with the poller.
    pub registered: Interest,
    /// No further requests will be read (peer half-closed or framing
    /// broke); drain outstanding answers, then close.
    pub read_closed: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, token: u64) -> Conn {
        Conn::with_proto(
            stream,
            token,
            ConnProto::Frames(FrameDecoder::new(MAX_FRAME_BYTES)),
        )
    }

    /// A connection from the HTTP gateway listener: same state machine,
    /// HTTP parser in place of the frame decoder.
    pub fn new_http(stream: TcpStream, token: u64) -> Conn {
        Conn::with_proto(stream, token, ConnProto::Http(HttpParser::default()))
    }

    fn with_proto(stream: TcpStream, token: u64, proto: ConnProto) -> Conn {
        Conn {
            stream,
            token,
            proto,
            frame_scratch: Vec::new(),
            http_scratch: Vec::new(),
            answered: false,
            parked: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            registered: Interest::READ,
            read_closed: false,
        }
    }

    fn touch(&mut self) {
        self.last_activity = Instant::now();
    }

    /// The wire format this connection's first frame negotiated (frames
    /// only reach the caller after negotiation, so the JSON default is
    /// only ever seen by code paths with no frames at all). HTTP
    /// connections report JSON — their payloads never consult it.
    pub fn wire_format(&self) -> WireFormat {
        match &self.proto {
            ConnProto::Frames(decoder) => decoder.format().unwrap_or(WireFormat::Json),
            ConnProto::Http(_) => WireFormat::Json,
        }
    }

    /// Outbound bytes not yet accepted by the kernel.
    pub fn buffered(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Read until the socket runs dry (or the per-event budget / a pause
    /// condition is hit), feeding the connection's parser; completed
    /// requests are appended to `payloads`.
    pub fn read_ready(&mut self, scratch: &mut [u8], payloads: &mut Vec<Payload>) -> ReadOutcome {
        if self.read_closed {
            return ReadOutcome::Progress;
        }
        let mut budget = READ_BUDGET;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    let boundary = match &self.proto {
                        ConnProto::Frames(decoder) => decoder.at_boundary(),
                        ConnProto::Http(parser) => parser.at_boundary(),
                    };
                    return if boundary {
                        ReadOutcome::PeerClosed
                    } else {
                        // EOF inside a frame: truncation from a dead or
                        // broken peer.
                        ReadOutcome::Broken
                    };
                }
                Ok(n) => {
                    self.touch();
                    match &mut self.proto {
                        ConnProto::Frames(decoder) => {
                            let fed = decoder.feed(&scratch[..n], &mut self.frame_scratch);
                            payloads.extend(self.frame_scratch.drain(..).map(Payload::Frame));
                            if fed.is_err() {
                                return ReadOutcome::Broken;
                            }
                        }
                        ConnProto::Http(parser) => {
                            let fed = parser.feed(&scratch[..n], &mut self.http_scratch);
                            payloads.extend(
                                self.http_scratch
                                    .drain(..)
                                    .map(|request| Payload::Http(Box::new(request))),
                            );
                            if let Err(error) = fed {
                                // The error response is itself a payload:
                                // it is answered (in order) before the
                                // broken read side closes the conn.
                                payloads.push(Payload::BadHttp(error));
                                return ReadOutcome::Broken;
                            }
                        }
                    }
                    budget = budget.saturating_sub(n);
                    if budget == 0 || !self.wants().readable {
                        return ReadOutcome::Progress;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Broken,
            }
        }
    }

    /// Queue the next response. The caller *encodes* it, **directly
    /// into the connection's outbound buffer** — zero intermediate
    /// allocation per frame.
    pub fn enqueue_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(&mut self.out);
        self.answered = true;
    }

    /// Push buffered bytes into the socket until it would block or the
    /// buffer drains. `Err` means the connection is gone.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.touch();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Whether at least one response has been released to the outbound
    /// buffer — the drain sweep only closes connections that got their
    /// answer (a just-accepted health check must not be cut off before
    /// it even sends its request).
    pub fn answered_any(&self) -> bool {
        self.answered
    }

    /// Whether the next decoded request may be answered now (otherwise
    /// it parks until the peer reads what is already queued).
    pub fn writable_room(&self) -> bool {
        self.buffered() <= WRITE_HIGH_WATER
    }

    /// The interest this connection's state implies right now.
    pub fn wants(&self) -> Interest {
        Interest {
            readable: !self.read_closed && self.parked.is_empty() && self.writable_room(),
            writable: self.buffered() > 0,
        }
    }

    /// Everything accepted has been answered and flushed.
    pub fn drained(&self) -> bool {
        self.parked.is_empty() && self.buffered() == 0
    }

    /// No byte moved in either direction for `timeout` — the
    /// slowloris/dead-peer condition.
    pub fn idle_expired(&self, timeout: Duration, now: Instant) -> bool {
        now.duration_since(self.last_activity) >= timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn backpressure_pauses_reading() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, 1);
        assert!(conn.wants().readable);
        conn.enqueue_with(|out| out.resize(WRITE_HIGH_WATER + 1, 0));
        assert!(!conn.writable_room(), "new frames must park");
        assert!(!conn.wants().readable, "over the write high-water mark");
        assert!(conn.wants().writable);
        // Parked frames alone also pause reading (they must drain first).
        let (server3, _client3) = pair();
        let mut conn3 = Conn::new(server3, 3);
        conn3.parked.push_back(Payload::Frame(b"{}".to_vec()));
        assert!(!conn3.wants().readable, "parked frames pause reads");
        assert!(!conn3.drained(), "parked frames keep the conn alive");
    }

    #[test]
    fn responses_encode_straight_into_the_out_buffer() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, 1);
        assert!(!conn.answered_any());
        conn.enqueue_with(|out| {
            assert!(out.is_empty(), "handed the real out buffer at its tail");
            out.extend_from_slice(b"A");
        });
        assert_eq!(conn.buffered(), 1);
        conn.enqueue_with(|out| out.extend_from_slice(b"B"));
        assert_eq!(&conn.out, b"AB");
        assert!(conn.answered_any());
    }

    #[test]
    fn burst_replies_stay_buffered_until_the_single_flush() {
        use std::io::Read;
        let (server, mut client) = pair();
        client.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server, 1);
        for reply in [&b"one"[..], b"two", b"three"] {
            conn.enqueue_with(|out| out.extend_from_slice(reply));
        }
        assert_eq!(conn.buffered(), 11, "enqueueing writes nothing");
        let mut got = [0u8; 16];
        assert_eq!(
            client.read(&mut got).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "the peer has seen no byte yet"
        );
        conn.flush().unwrap();
        assert_eq!(conn.buffered(), 0);
        assert!(conn.drained());
        client.set_nonblocking(false).unwrap();
        client.read_exact(&mut got[..11]).unwrap();
        assert_eq!(&got[..11], b"onetwothree", "one write, request order");
    }
}
