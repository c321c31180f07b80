//! The connection engine: every socket `gps serve` holds is driven by
//! these event loops.
//!
//! Layout, bottom up:
//!
//! - `sys` — the raw readiness syscalls (`epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`, plus `poll(2)` as the portable
//!   fallback);
//! - `poller` — both backends behind one level-triggered interface,
//!   and the loopback-UDP `Waker` (the router's backend links wait on
//!   it too);
//! - `decoder` — incremental length-prefixed frame decoding (shared
//!   with the router and the blocking `Client`'s `read_frame_payload`);
//! - `conn` — the per-connection state machine: decoder, bounded write
//!   buffer, idle clock;
//! - this module — the accept/dispatch loop and N event-loop threads.
//!
//! ## Flow
//!
//! The accept thread hands each connection to an event loop round-robin
//! (after the `max_conns` gate). A loop owns its connections outright:
//! readable sockets are drained through the decoder; each complete frame
//! runs the shared request core (`proto::classify`) and is answered
//! right there, on the loop's thread — predicts included
//! (`proto::PredictWork::answer` runs the kernel in place) — straight
//! into the connection's write buffer. One thread answers a connection's
//! frames one at a time, so responses leave in request order (the
//! protocol is pipelined but ordered) by construction, and the replies
//! to one read burst leave in one `write(2)`. Writes are
//! buffered with backpressure (a slow reader pauses its own requests,
//! never the loop), and connections idle past `idle_timeout` are swept —
//! one slowloris cannot hold a thread, and ten thousand idle scanners
//! cost only their sockets and a few hundred bytes each.
//!
//! Deliberate tradeoff: everything runs inline on the event-loop thread,
//! briefly delaying that loop's other connections. A single predict is
//! a few hundred nanoseconds; the long requests are a 65,536-query
//! `batch` frame, which occupies its loop for the length of the batch
//! (tens of milliseconds), and the admin commands (`reload`/`load` do
//! snapshot disk I/O; the GPSB serving load they trigger is
//! sub-millisecond to low-millisecond, see the snapshot_load bench).
//! The first is bounded by `MAX_BATCH_QUERIES`, the second is a rare,
//! trusted-operator action.

mod conn;
mod decoder;
pub(crate) mod http;
pub(crate) mod poller;
mod sys;

pub use decoder::{DecodeError, FrameDecoder, WireFormat};

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::WireLabel;
use crate::proto;
use crate::server::PredictionServer;
use crate::transport::{event_loops, TransportConfig};
use conn::{Conn, Payload, ReadOutcome};
use poller::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};

/// Poller token of the wakeup socket (connection tokens count up from 0,
/// so they never collide).
const WAKE_TOKEN: u64 = u64::MAX;

/// The accept thread's handle to one event loop. Streams are tagged with
/// whether they came from the HTTP gateway listener.
struct LoopHandle {
    incoming: Arc<Mutex<Vec<(TcpStream, bool)>>>,
    waker: Waker,
}

struct EventLoop {
    server: Arc<PredictionServer>,
    poller: Poller,
    wake_rx: WakeReceiver,
    incoming: Arc<Mutex<Vec<(TcpStream, bool)>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    idle_timeout: Option<Duration>,
    scratch: Vec<u8>,
    frames: Vec<Payload>,
}

/// Accept loop(s) + N event-loop threads. Blocks forever. `listener`
/// serves the frame protocol, `http` the HTTP gateway (`--http-addr`);
/// connections from both multiplex onto the same loops.
pub(crate) fn serve_events(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    http: Option<TcpListener>,
    config: &TransportConfig,
) -> io::Result<()> {
    let loops = event_loops(std::thread::available_parallelism());
    let mut handles = Vec::with_capacity(loops);
    for index in 0..loops {
        let mut poller = Poller::new(config.poll_fallback)?;
        if index == 0 {
            eprintln!("event loops: {} backend, {loops} loop(s)", poller.backend());
        }
        let (waker, wake_rx) = wake_pair()?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READ)?;
        let incoming = Arc::new(Mutex::new(Vec::new()));
        let event_loop = EventLoop {
            server: server.clone(),
            poller,
            wake_rx,
            incoming: incoming.clone(),
            conns: HashMap::new(),
            next_token: 0,
            idle_timeout: config.idle_timeout,
            scratch: vec![0u8; 16 * 1024],
            frames: Vec::new(),
        };
        std::thread::Builder::new()
            .name(format!("gps-serve-loop-{index}"))
            .spawn(move || event_loop.run())
            .expect("spawn event loop");
        handles.push(LoopHandle { incoming, waker });
    }
    let handles = Arc::new(handles);
    let max_conns = config.max_conns_or_unlimited();
    if let Some(http) = http {
        let server = server.clone();
        let handles = handles.clone();
        std::thread::Builder::new()
            .name("gps-accept-http".to_string())
            .spawn(move || accept_into(server, http, handles, max_conns, true))
            .expect("spawn http accept thread");
    }
    accept_into(server, listener, handles, max_conns, false)
}

/// One listener's accept loop, handing connections to the event loops
/// round-robin. The `max_conns` gate is shared across listeners (both
/// count into the same connection gauges).
fn accept_into(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    handles: Arc<Vec<LoopHandle>>,
    max_conns: u64,
    is_http: bool,
) -> io::Result<()> {
    let mut next = 0usize;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if !server.server_stats().try_admit(max_conns, is_http) {
            continue; // dropping the stream closes it
        }
        let handle = &handles[next % handles.len()];
        next = next.wrapping_add(1);
        handle
            .incoming
            .lock()
            .expect("incoming lock")
            .push((stream, is_http));
        handle.waker.wake();
    }
    Ok(())
}

impl EventLoop {
    fn run(mut self) {
        // Sweep cadence: a fraction of the idle timeout, floored so a
        // tight timeout doesn't busy-poll and capped so expiry is prompt.
        let sweep_every = self
            .idle_timeout
            .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_millis(500)));
        let mut last_sweep = Instant::now();
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Bounded wait even without an idle timeout: a drain begun
            // on another loop's connection (or via HTTP) must be noticed
            // here too, not only when a socket happens to wake us.
            let wait = sweep_every.or(Some(Duration::from_millis(250)));
            if self.poller.wait(wait, &mut events).is_err() {
                // Transient poll failure: don't spin the CPU.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            for event in events.drain(..) {
                if event.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                self.handle_conn_event(event);
            }
            self.adopt_incoming();
            if let Some(every) = sweep_every {
                if last_sweep.elapsed() >= every {
                    last_sweep = Instant::now();
                    self.sweep_idle();
                }
            }
            if self.server.is_draining() {
                self.sweep_draining();
            }
        }
    }

    /// While the server drains, close every connection whose replies
    /// have fully flushed — queued replies still finish first,
    /// and a connection that has not yet been answered at all (e.g. a
    /// health check racing the drain) gets to ask its question.
    fn sweep_draining(&mut self) {
        let done: Vec<u64> = self
            .conns
            .values()
            .filter(|c| c.answered_any() && c.drained())
            .map(|c| c.token)
            .collect();
        for token in done {
            self.close(token, false);
        }
    }

    /// Register connections the accept threads handed over.
    fn adopt_incoming(&mut self) {
        let streams = std::mem::take(&mut *self.incoming.lock().expect("incoming lock"));
        for (stream, is_http) in streams {
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                self.count_closed();
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                self.count_closed();
                continue;
            }
            let conn = if is_http {
                Conn::new_http(stream, token)
            } else {
                Conn::new(stream, token)
            };
            self.conns.insert(token, conn);
        }
    }

    fn handle_conn_event(&mut self, event: Event) {
        if event.writable {
            let Some(conn) = self.conns.get_mut(&event.token) else {
                return; // closed earlier this pass
            };
            if conn.flush().is_err() {
                self.close(event.token, false);
                return;
            }
        }
        if event.readable || event.failed {
            let Some(conn) = self.conns.get_mut(&event.token) else {
                return;
            };
            let outcome = conn.read_ready(&mut self.scratch, &mut self.frames);
            // Frames decoded before any break are valid and are answered
            // by `after_progress`, behind whatever is still parked.
            conn.parked.extend(self.frames.drain(..));
            match outcome {
                ReadOutcome::Progress => {}
                ReadOutcome::PeerClosed | ReadOutcome::Broken => {
                    // Half-close, or framing broke: either way no further
                    // requests can be read, but requests already accepted
                    // (frames decoded before the break) still get their
                    // answers. `after_progress` closes once everything
                    // drains.
                    conn.read_closed = true;
                }
            }
        }
        self.after_progress(event.token);
    }

    /// One complete payload — a length-prefixed frame (either wire
    /// format) or a parsed HTTP request — from `token`.
    fn handle_request(&mut self, token: u64, payload: Payload) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let format = conn.wire_format();
        let started = Instant::now();
        let (wire, action) = match payload {
            Payload::Frame(bytes) => {
                let wire = match format {
                    WireFormat::Json => WireLabel::Json,
                    WireFormat::Binary => WireLabel::Gpsq,
                };
                (wire, proto::classify_payload(&self.server, format, &bytes))
            }
            Payload::Http(request) => {
                let keep_alive = request.keep_alive;
                match http::route(&self.server, &request) {
                    http::Routed::Raw {
                        status,
                        content_type,
                        body,
                    } => {
                        // `Connection: close` stops reads *before* the
                        // reply is queued, so `after_progress` closes the
                        // moment the response flushes.
                        if !keep_alive {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.read_closed = true;
                            }
                        }
                        self.complete_with(token, |_, out| {
                            http::append_response(
                                out,
                                status,
                                content_type,
                                body.as_bytes(),
                                keep_alive,
                            )
                        });
                        proto::record_admin(&self.server, WireLabel::Http, started);
                        return;
                    }
                    http::Routed::Command { text } => (
                        WireLabel::Http,
                        proto::classify_json(
                            &self.server,
                            &text,
                            proto::ReplyShape::Http { keep_alive },
                        ),
                    ),
                }
            }
            Payload::BadHttp(error) => {
                // The parser already broke the read side; answer with
                // the error page and close once it flushes.
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.read_closed = true;
                }
                self.complete_with(token, |_, out| http::append_error(out, &error));
                return;
            }
        };
        self.dispatch(token, wire, started, action);
    }

    /// Run one classified action and serialize its reply. `wire` and
    /// `started` feed the latency histograms and the query log.
    fn dispatch(
        &mut self,
        token: u64,
        wire: WireLabel,
        started: Instant,
        action: proto::FrameAction,
    ) {
        match action {
            proto::FrameAction::Ready(reply) => {
                if let proto::ReadyReply::Http {
                    keep_alive: false, ..
                } = &reply
                {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.read_closed = true;
                    }
                }
                self.complete_with(token, |_, out| proto::encode_ready(reply, out));
                proto::record_admin(&self.server, wire, started);
            }
            proto::FrameAction::Predict(work) => {
                self.mark_http_close(token, &work.ctx);
                self.complete_with(token, |server, out| work.answer(server, wire, started, out));
            }
        }
    }

    /// HTTP responses answering a `Connection: close` request stop the
    /// read side before the reply is queued, so `after_progress` closes
    /// the connection once the response flushes.
    fn mark_http_close(&mut self, token: u64, ctx: &proto::ReplyCtx) {
        if let proto::ReplyCtx::Http {
            keep_alive: false, ..
        } = ctx
        {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.read_closed = true;
            }
        }
    }

    /// Serialize a response into its connection's outbound buffer; the
    /// burst's single flush in `after_progress` sends it. The encoder
    /// runs against the buffer itself (`Conn::enqueue_with`) — the
    /// zero-intermediate-copy path the binary wire format is built around.
    fn complete_with(&mut self, token: u64, encode: impl FnOnce(&PredictionServer, &mut Vec<u8>)) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed answering an earlier frame of this burst
        };
        let server = &self.server;
        conn.enqueue_with(|out| encode(server, out));
    }

    /// Answer the connection's decoded frames in order and send the
    /// replies with one write when the burst is answered — a pipelined
    /// peer costs one `write(2)` per read burst, not one per reply. A
    /// burst can decode more frames than the write buffer has room to
    /// answer (bytes already read can't be pushed back to the kernel):
    /// over the high-water mark the socket first gets the chance to take
    /// what is queued, and if it cannot the rest stay parked until it
    /// drains. Then re-derive poller interest, and finish off
    /// connections that are fully drained after a half-close.
    fn after_progress(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.writable_room() {
                if let Some(payload) = conn.parked.pop_front() {
                    self.handle_request(token, payload);
                    continue;
                }
            }
            if conn.flush().is_err() {
                self.close(token, false);
                return;
            }
            // Whether frames stay parked is decided after the flush: a
            // peer that reads meanwhile makes room with no further event.
            if conn.parked.is_empty() || !conn.writable_room() {
                break;
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if (conn.read_closed || (self.server.is_draining() && conn.answered_any()))
            && conn.drained()
        {
            self.close(token, false);
            return;
        }
        let wants = conn.wants();
        if wants != conn.registered {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, wants).is_err() {
                self.close(token, false);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.registered = wants;
            }
        }
    }

    /// Close connections that idled out (no bytes for `idle_timeout` —
    /// the slowloris rule lives in [`Conn::idle_expired`]).
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .values()
            .filter(|c| c.idle_expired(timeout, now))
            .map(|c| c.token)
            .collect();
        for token in expired {
            self.close(token, true);
        }
    }

    fn close(&mut self, token: u64, timed_out: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        // Count before dropping: the drop sends the FIN, and a peer that
        // observes it may read the stats immediately — the counters must
        // already agree with what it just saw.
        let stats = self.server.server_stats();
        if timed_out {
            stats.conns_timed_out.fetch_add(1, Ordering::Relaxed);
        }
        stats.conns_closed.fetch_add(1, Ordering::Relaxed);
        drop(conn); // closes the socket
    }

    /// A connection that never became a `Conn` (registration failed) is
    /// still accounted: accepted was already counted by the accept
    /// thread.
    fn count_closed(&self) {
        self.server
            .server_stats()
            .conns_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}
