//! The connection engine: every socket `gps serve` and `gps route` hold
//! is driven by these event loops.
//!
//! Layout, bottom up:
//!
//! - `sys` — the raw readiness syscalls (`epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`);
//! - `poller` — level-triggered epoll behind a token interface, and
//!   the loopback-UDP `Waker` (the router's backend links wait on a
//!   `Poller` of their own);
//! - `decoder` — incremental length-prefixed frame decoding (shared
//!   with the router's backend links and the blocking `Client`'s
//!   `read_frame_payload`);
//! - `conn` — the per-connection state machine: decoder, bounded write
//!   buffer, idle clock;
//! - `http` — the bounded HTTP/1.1 parser and response writer both
//!   processes' HTTP sidelines share;
//! - this module — the accept threads, N event-loop threads, the
//!   connection accounting (`Connections`) and the `Service` seam:
//!   the server answers frame by frame, the router a burst at a time.
//!
//! ## Flow
//!
//! The accept threads hand each connection to an event loop round-robin
//! (after the `max_conns` and drain gate). A loop owns its connections
//! outright: readable sockets are drained through the decoder and each
//! complete request parks on its connection; the loop's `Service`
//! answers the parked requests right there, on the loop's thread — both
//! decode each frame with `proto::decode_request`; `gps serve` answers it
//! through `proto::answer` (which runs the kernel in place), `gps route`
//! forwards the whole burst through the loop's backend `Hop`, and both
//! frame every reply with `proto::encode_reply` — straight into the
//! connection's write buffer.
//! One thread answers a connection's requests in order, so responses
//! leave in request order (the protocol is pipelined but ordered) by
//! construction, and the replies to one read burst leave in one
//! `write(2)`. Writes are buffered with backpressure (a slow reader
//! pauses its own requests, never the loop), and connections idle past
//! `idle_timeout` are swept — one slowloris cannot hold a thread, and ten
//! thousand idle scanners cost only their sockets and a few hundred bytes
//! each.
//!
//! Deliberate tradeoff: everything runs inline on the event-loop thread,
//! briefly delaying that loop's other connections. A single predict is
//! a few hundred nanoseconds; the long requests are a 65,536-query
//! `batch` frame, which occupies its loop for the length of the batch
//! (tens of milliseconds), the admin commands (`reload`/`load` do
//! snapshot disk I/O; the GPSB serving load they trigger is
//! sub-millisecond to low-millisecond, see `gpsbench`'s
//! `snapshot_load_ms`), and
//! on the router a burst waiting on a stalled backend (at most one
//! `request_timeout`). The first is bounded by `MAX_BATCH_QUERIES`, the
//! second is a rare, trusted-operator action, the third ends once the
//! backend is marked down.
//!
//! The loops sit on Linux `epoll`; there is no other backend, so any
//! other target fails to build here.

#[cfg(not(any(target_os = "linux", target_os = "android")))]
compile_error!("gps-serve's event loops need epoll: build on Linux");

mod conn;
mod decoder;
pub(crate) mod http;
pub(crate) mod poller;
mod sys;

pub(crate) use conn::{Conn, Payload};
pub use decoder::{DecodeError, FrameDecoder, WireFormat};

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::{EndpointLabel, WireLabel};
use crate::proto::{self, ReplyCtx};
use crate::server::PredictionServer;
use crate::transport::{event_loops, TransportConfig};
use conn::ReadOutcome;
use poller::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};

/// Poller token of the wakeup socket (connection tokens count up from 0,
/// so they never collide).
const WAKE_TOKEN: u64 = u64::MAX;

/// Connection accounting and the drain flag of one process, shared by
/// its accept threads and event loops. `gps serve`'s `ServerStats` and
/// `gps route`'s `Core` each embed one.
#[derive(Debug, Default)]
pub(crate) struct Connections {
    /// Connections the accept threads admitted.
    pub accepted: AtomicU64,
    /// Connections fully closed (clean EOF, error, or timeout alike).
    pub closed: AtomicU64,
    /// Connections closed *because* they idled past the transport's idle
    /// timeout (also counted in `closed`).
    pub timed_out: AtomicU64,
    /// Connections dropped at accept: over `max_conns`, or a frame
    /// connection while draining (never counted in `accepted`).
    pub rejected: AtomicU64,
    /// Set by the `shutdown` admin command: the process stops admitting
    /// frame connections, finishes in-flight replies, and closes.
    draining: AtomicBool,
}

impl Connections {
    /// The accept-loop gate: under `max_conns` the connection is counted
    /// accepted and admitted; at or over it, the rejection is counted and
    /// the caller drops the socket.
    ///
    /// Several accept threads share the gate (the frame and the HTTP
    /// listener), so check and count are one compare-and-swap on
    /// `accepted`: of two threads that both see `max_conns - 1` active,
    /// one wins and the other re-checks against the winner's count.
    /// `closed` only grows, so a stale read of it can only reject a
    /// connection that would just have fit, never over-admit.
    ///
    /// While draining, frame connections are rejected but HTTP
    /// (`is_http`) connections still get in — a health checker must be
    /// able to read the 503 `"draining"` answer, and curling `/metrics`
    /// mid-drain is how an operator watches the drain finish.
    pub fn try_admit(&self, max_conns: u64, is_http: bool) -> bool {
        let admitted = (is_http || !self.is_draining())
            && self
                .accepted
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |accepted| {
                    let active = accepted.saturating_sub(self.closed.load(Ordering::Relaxed));
                    (active < max_conns).then_some(accepted + 1)
                })
                .is_ok();
        if !admitted {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Connections held right now: `accepted - closed`.
    pub fn active(&self) -> u64 {
        self.accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.closed.load(Ordering::Relaxed))
    }

    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Block until every connection has closed or `timeout` passes,
    /// checking every 20 ms; returns the connections still open (0 =
    /// drained).
    pub fn wait_drained(&self, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        while self.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.active()
    }
}

/// What the event loops serve: `gps serve`'s [`PredictionServer`] or
/// `gps route`'s `router::Core`. Calls are static — each process runs
/// its own monomorphized loop.
pub(crate) trait Service: Send + Sync + 'static {
    /// What one loop keeps between requests: nothing for the server, the
    /// loop's backend `Hop` for the router.
    type Loop: Send + 'static;

    fn conns(&self) -> &Connections;

    /// A new loop's state.
    fn open_loop(service: &Arc<Self>) -> io::Result<Self::Loop>;

    /// Answer `conn`'s parked requests into its outbound buffer, in
    /// order, while it has write room; the loop flushes.
    fn answer(&self, state: &mut Self::Loop, conn: &mut Conn);
}

/// `gps serve`: each parked request runs the shared request core on its
/// own, the replies queued one by one.
impl Service for PredictionServer {
    type Loop = ();

    fn conns(&self) -> &Connections {
        &self.server_stats().conns
    }

    fn open_loop(_: &Arc<Self>) -> io::Result<()> {
        Ok(())
    }

    fn answer(&self, _: &mut (), conn: &mut Conn) {
        while conn.writable_room() {
            let Some(payload) = conn.parked.pop_front() else {
                return;
            };
            answer_request(self, conn, payload);
        }
    }
}

/// One complete payload — a length-prefixed frame (either wire format)
/// or a parsed HTTP request — answered into `conn`'s outbound buffer.
/// An HTTP request without keep-alive stops the read side before the
/// reply is queued, so the loop closes the connection once the response
/// flushes.
fn answer_request(server: &PredictionServer, conn: &mut Conn, payload: Payload) {
    let started = Instant::now();
    let (wire, request) = match payload {
        Payload::Frame(bytes) => {
            let format = conn.wire_format();
            let wire = match format {
                WireFormat::Json => WireLabel::Json,
                WireFormat::Binary => WireLabel::Gpsq,
            };
            (wire, proto::decode_request(format, &bytes))
        }
        Payload::Http(request) => {
            let keep_alive = request.keep_alive;
            conn.read_closed |= !keep_alive;
            match http::route(server, &request) {
                http::Routed::Raw {
                    status,
                    content_type,
                    body,
                } => {
                    conn.enqueue_with(|out| {
                        http::append_response(
                            out,
                            status,
                            content_type,
                            body.as_bytes(),
                            keep_alive,
                        )
                    });
                    let admin = server
                        .server_stats()
                        .hists
                        .cell(WireLabel::Http, EndpointLabel::Admin);
                    admin.record(started.elapsed().as_nanos() as u64);
                    return;
                }
                http::Routed::Command(parsed) => (
                    WireLabel::Http,
                    proto::decode_json(parsed, |id| ReplyCtx::Http { id, keep_alive }),
                ),
            }
        }
        Payload::BadHttp(error) => {
            // The parser already broke the read side; answer with the
            // error page and close once it flushes.
            conn.read_closed = true;
            conn.enqueue_with(|out| http::append_error(out, &error));
            return;
        }
    };
    conn.enqueue_with(|out| proto::answer(server, wire, started, request, out));
}

/// The accept thread's handle to one event loop. Streams are tagged with
/// whether they came from the HTTP listener.
struct LoopHandle {
    incoming: Arc<Mutex<Vec<(TcpStream, bool)>>>,
    waker: Waker,
}

struct EventLoop<S: Service> {
    service: Arc<S>,
    state: S::Loop,
    poller: Poller,
    wake_rx: WakeReceiver,
    incoming: Arc<Mutex<Vec<(TcpStream, bool)>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    idle_timeout: Option<Duration>,
    scratch: Vec<u8>,
    frames: Vec<Payload>,
}

/// Start N event-loop threads and one accept thread per listener, then
/// return; they run until the process exits. `listener` serves the frame
/// protocol, `http` the HTTP sideline (`--http-addr`); connections from
/// both multiplex onto the same loops.
pub(crate) fn serve_events<S: Service>(
    service: Arc<S>,
    listener: TcpListener,
    http: Option<TcpListener>,
    config: &TransportConfig,
) -> io::Result<()> {
    let loops = event_loops(std::thread::available_parallelism());
    let mut handles = Vec::with_capacity(loops);
    for index in 0..loops {
        let mut poller = Poller::new()?;
        if index == 0 {
            eprintln!("event loops: epoll backend, {loops} loop(s)");
        }
        let (waker, wake_rx) = wake_pair()?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READ)?;
        let incoming = Arc::new(Mutex::new(Vec::new()));
        let event_loop = EventLoop {
            state: S::open_loop(&service)?,
            service: service.clone(),
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
    let accept = |listener: TcpListener, is_http: bool, name: &str| {
        let (service, handles) = (service.clone(), handles.clone());
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || accept_into(service, listener, handles, max_conns, is_http))
            .map(drop)
    };
    accept(listener, false, "gps-accept")?;
    if let Some(http) = http {
        accept(http, true, "gps-accept-http")?;
    }
    Ok(())
}

/// One listener's accept loop, handing connections to the event loops
/// round-robin. The `max_conns` gate is shared across listeners (both
/// count into the same connection gauges).
fn accept_into(
    service: Arc<impl Service>,
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
        if !service.conns().try_admit(max_conns, is_http) {
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

impl<S: Service> EventLoop<S> {
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
            if self.service.conns().is_draining() {
                self.sweep_draining();
            }
        }
    }

    /// While the process drains, close every connection whose replies
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

    /// Answer the connection's parked requests and send the replies with
    /// one write when the burst is answered — a pipelined peer costs one
    /// `write(2)` per read burst, not one per reply. A burst can decode
    /// more frames than the write buffer has room to answer (bytes
    /// already read can't be pushed back to the kernel): over the
    /// high-water mark the socket first gets the chance to take what is
    /// queued, and if it cannot the rest stay parked until it drains.
    /// Then re-derive poller interest, and finish off connections that
    /// are fully drained after a half-close.
    fn after_progress(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            self.service.answer(&mut self.state, conn);
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
        let draining = self.service.conns().is_draining();
        if (conn.read_closed || (draining && conn.answered_any())) && conn.drained() {
            self.close(token, false);
            return;
        }
        let wants = conn.wants();
        if wants != conn.registered {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, wants)
                .is_err()
            {
                self.close(token, false);
                return;
            }
            conn.registered = wants;
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
        let conns = self.service.conns();
        if timed_out {
            conns.timed_out.fetch_add(1, Ordering::Relaxed);
        }
        conns.closed.fetch_add(1, Ordering::Relaxed);
        drop(conn); // closes the socket
    }

    /// A connection that never became a `Conn` (registration failed) is
    /// still accounted: accepted was already counted by the accept
    /// thread.
    fn count_closed(&self) {
        self.service.conns().closed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racing_accept_threads_never_exceed_max_conns() {
        use std::sync::Barrier;
        const THREADS: u64 = 8;
        const ATTEMPTS: u64 = 150_000;
        const CAP: u64 = 3;
        // Every thread hammers the gate from the same starting line,
        // holding each slot it wins just long enough to look at the
        // gauge. `accepted` is read before `closed`, which
        // can only under-read what was active, so a reading over the cap
        // is a real over-admission.
        let stats = Connections::default();
        let barrier = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..ATTEMPTS {
                        if stats.try_admit(CAP, false) {
                            // Hold the slot a moment, so the gate spends
                            // the run one short of the cap — where a
                            // check-then-count gate lets two racers in.
                            for _ in 0..64 {
                                std::hint::spin_loop();
                            }
                            let accepted = stats.accepted.load(Ordering::SeqCst);
                            let closed = stats.closed.load(Ordering::SeqCst);
                            assert!(
                                accepted.saturating_sub(closed) <= CAP,
                                "conns_active over the cap"
                            );
                            stats.closed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        let accepted = stats.accepted.load(Ordering::Relaxed);
        assert_eq!(accepted, stats.closed.load(Ordering::Relaxed));
        assert_eq!(
            accepted + stats.rejected.load(Ordering::Relaxed),
            THREADS * ATTEMPTS,
            "every attempt is counted exactly once"
        );
    }
}
