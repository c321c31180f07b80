//! The GPSQ routing tier: a thin, model-free process that speaks the
//! full frame protocol (JSON and GPSQ alike) on its front listener and
//! forwards predict work to N `gps serve` backends over GPSQ links.
//!
//! Fault tolerance is the point — the paper's predictions only matter
//! while they keep flowing into a running scan, and a single `gps serve`
//! process is a single point of failure:
//!
//! - **Placement.** Queries are hashed by their IP's /16
//!   (`Core::owner_of`, a Fibonacci hash): a stateless spread that every
//!   router computes alike, splitting a batch into at most one part per
//!   backend. Backends keep no per-query state, so any of them can answer
//!   any query — which is what makes retrying on an alternate safe.
//! - **Health.** Each backend walks `Up` → `Suspect` → `Down` on
//!   failures, fed by a periodic `ping` prober and by link failures; a
//!   downed backend is retried after exponential backoff with
//!   deterministic jitter, and one success brings it back.
//! - **Retry.** A link fails on a connect error, I/O error, EOF, garbage
//!   frame, id mismatch, or no progress for
//!   [`RouterConfig::request_timeout`] while it owes replies; every part
//!   it had not answered moves to its next available backend — one retry
//!   per move, at most [`RouterConfig::max_retries`] per part. A
//!   backend's `ok:false` answer is deterministic: forwarded verbatim,
//!   never retried, and the link (still in step) is kept.
//! - **Shedding.** A part with no healthy backend left answers its frame
//!   with an explicit `overloaded` error instead of queueing or hanging;
//!   a batch is never answered partially.
//! - **Drain.** The `shutdown` admin command (wire or HTTP) flips
//!   `/healthz` to 503 `draining`, stops accepting frame connections,
//!   finishes in-flight replies, then closes.
//!
//! **Connections.** Front and HTTP sockets live on the event loops of
//! `crate::net`, the engine `gps serve` runs on: no thread per
//! connection, the same bounded write buffers, the same accept gate and
//! drain rule, the same HTTP parser and caps. The HTTP sideline answers
//! `GET /healthz`, `/metrics`, `/stats` and `POST /shutdown`, every reply
//! `connection: close`.
//!
//! **The hop.** There is one `Hop` per event loop. It forwards a read
//! burst, not a frame: every complete frame a front socket delivered
//! gets a reply slot, in request order; each single query and each
//! owner's part of a batch becomes one GPSQ request on that backend's
//! link (a nonblocking stream the loop owns); and one poller wait loop
//! writes and reads every link until nothing is owed. The backends
//! compute in parallel with no router thread per backend, and since
//! reads interleave with writes a large reply cannot wedge a link. Admin
//! frames run after the burst's predicts; all replies leave in one
//! write. The trade-off: a stalled backend holds that loop's other
//! connections for at most one `request_timeout` per burst until it is
//! marked `Down`, just as a 65,536-query batch holds a server loop.
//!
//! The router holds no model: it decodes every front frame with the
//! server's own `proto` decoder, so it refuses a malformed frame with the
//! same bytes, and every answer — computed by a backend, or by the router
//! for its own commands — becomes the same `proto::Reply` and is framed by
//! the server's one encoder, `proto::encode_reply`. A client cannot tell
//! the router from a plain `gps serve`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gps_types::Json;

use crate::artifact::{Query, Ranked};
use crate::net::http::{self, label_escape, write_family, HttpRequest};
use crate::net::poller::{Event, Interest, Poller};
use crate::net::{Conn, Connections, FrameDecoder, Payload, Service, WireFormat};
use crate::proto::{
    append_binary_frame, connect_timeout, decode_request, encode_reply, ok_response, Client, Reply,
    ReplyCtx, Request, MAX_FRAME_BYTES,
};
use crate::transport::TransportConfig;
use crate::wire;

/// Knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`), order fixed at start; the
    /// consistent hash maps /16s onto this list by index.
    pub backends: Vec<String>,
    /// Cadence of the active `ping` prober.
    pub probe_interval: Duration,
    /// How long a backend link that owes replies may go without a byte
    /// moving (and the bound on connecting it) before it fails and its
    /// unanswered parts move on. A stalled backend costs a read burst
    /// one such deadline, however many of its queries it held.
    pub request_timeout: Duration,
    /// Most times one request part moves off a failed backend to an
    /// alternate; each move is one retry.
    pub max_retries: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            backends: Vec::new(),
            probe_interval: Duration::from_millis(500),
            request_timeout: Duration::from_secs(2),
            max_retries: 1,
        }
    }
}

/// Base of the down-backend reconnect backoff; doubles per consecutive
/// failure up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(100);
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// The error message shed queries answer with (tests and operators grep
/// for the prefix).
pub const OVERLOADED: &str = "overloaded: no healthy backend";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Up,
    /// One recent failure: still routed to, but the next failure downs it.
    Suspect,
    Down,
}

impl Health {
    fn as_str(self) -> &'static str {
        match self {
            Health::Up => "up",
            Health::Suspect => "suspect",
            Health::Down => "down",
        }
    }
}

struct HealthMeta {
    health: Health,
    consecutive_failures: u32,
    /// While `Down`, routing skips this backend until the deadline (then
    /// one half-open attempt is allowed through).
    down_until: Option<Instant>,
}

struct BackendState {
    addr: String,
    meta: Mutex<HealthMeta>,
    /// Requests this backend answered successfully.
    forwarded: AtomicU64,
    /// Failures against this backend: links (timeouts, resets, garbage)
    /// and probes.
    errors: AtomicU64,
}

impl BackendState {
    fn new(addr: String) -> BackendState {
        BackendState {
            addr,
            meta: Mutex::new(HealthMeta {
                health: Health::Up,
                consecutive_failures: 0,
                down_until: None,
            }),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    fn health(&self) -> Health {
        self.meta.lock().expect("backend meta").health
    }

    /// Whether routing may try this backend right now. A `Down` backend
    /// becomes eligible again once its backoff deadline passes — the
    /// half-open probe that discovers recovery.
    fn available(&self) -> bool {
        let meta = self.meta.lock().expect("backend meta");
        match meta.health {
            Health::Up | Health::Suspect => true,
            Health::Down => meta.down_until.is_none_or(|until| Instant::now() >= until),
        }
    }

    fn record_ok(&self) {
        let mut meta = self.meta.lock().expect("backend meta");
        meta.health = Health::Up;
        meta.consecutive_failures = 0;
        meta.down_until = None;
    }

    /// One failed attempt: first failure suspects, the second downs with
    /// exponential backoff plus deterministic jitter (so a fleet of
    /// routers doesn't reconnect in lockstep).
    fn record_failure(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let mut meta = self.meta.lock().expect("backend meta");
        meta.consecutive_failures = meta.consecutive_failures.saturating_add(1);
        if meta.consecutive_failures == 1 {
            meta.health = Health::Suspect;
            return;
        }
        meta.health = Health::Down;
        let exp = meta.consecutive_failures.saturating_sub(2).min(16);
        let backoff = BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_CAP);
        // Jitter in [0, backoff/4), xorshifted from the address and the
        // failure count — deterministic, but different per backend and
        // per round.
        let mut seed = meta.consecutive_failures as u64 + 0x9E37_79B9_7F4A_7C15;
        for byte in self.addr.as_bytes() {
            seed = (seed ^ *byte as u64).wrapping_mul(0x100_0000_01B3);
        }
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let jitter_ns = backoff.as_nanos() as u64 / 4;
        let jitter = Duration::from_nanos(if jitter_ns == 0 { 0 } else { seed % jitter_ns });
        meta.down_until = Some(Instant::now() + backoff + jitter);
    }
}

/// Everything shared between the event loops, the prober, and the
/// handle.
pub(crate) struct Core {
    backends: Vec<BackendState>,
    config: RouterConfig,
    conns: Connections,
    stop: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    /// Request parts moved off a failed backend to an alternate.
    retries: AtomicU64,
    /// Frames answered `overloaded` because a part had no backend left.
    shed: AtomicU64,
}

impl Core {
    fn new(config: RouterConfig) -> Core {
        Core {
            backends: config
                .backends
                .iter()
                .map(|addr| BackendState::new(addr.clone()))
                .collect(),
            config,
            conns: Connections::default(),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Which backend owns an IP: a Fibonacci hash of its /16, so
    /// sequential /16s spread across backends and the owner depends on
    /// nothing but the query.
    fn owner_of(&self, ip: gps_types::Ip) -> usize {
        let slash16 = ip.0 >> 16;
        let h = (slash16 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.backends.len()
    }

    /// The `stats` reply. Carries a backend's top-level connection and
    /// request keys (`loadgen`'s connection monitor reads `conns_active`
    /// from either) plus a `"router"` section with the health picture.
    fn stats_json(&self) -> Json {
        let count = |counter: &AtomicU64| Json::Num(counter.load(Ordering::Relaxed) as f64);
        let mut backends = Vec::with_capacity(self.backends.len());
        for b in &self.backends {
            let mut entry = Json::obj();
            entry
                .set("addr", b.addr.as_str())
                .set("health", b.health().as_str())
                .set("up", b.health() != Health::Down)
                .set("forwarded", count(&b.forwarded))
                .set("errors", count(&b.errors));
            backends.push(entry);
        }
        let mut router = Json::obj();
        router
            .set("backends", backends)
            .set("retries_total", count(&self.retries))
            .set("shed_total", count(&self.shed))
            .set("draining", self.conns.is_draining());
        let mut json = Json::obj();
        json.set("version", env!("CARGO_PKG_VERSION"))
            .set("requests", count(&self.requests))
            .set("uptime_secs", self.started.elapsed().as_secs_f64())
            .set("conns_accepted", count(&self.conns.accepted))
            .set("conns_closed", count(&self.conns.closed))
            .set("conns_active", Json::Num(self.conns.active() as f64))
            .set("conns_rejected", count(&self.conns.rejected))
            .set("draining", self.conns.is_draining())
            .set("router", router);
        json
    }

    /// The Prometheus exposition of the router's counters and gauges.
    fn render_metrics(&self) -> String {
        let mut out = String::with_capacity(1024);
        let w = &mut out;
        let count = |counter: &AtomicU64| [("", counter.load(Ordering::Relaxed))];
        let help = "Requests the router answered.";
        let requests = count(&self.requests);
        write_family(w, "gps_router_requests_total", "counter", help, requests);
        let help = "Failed backend attempts retried elsewhere.";
        let retries = count(&self.retries);
        write_family(w, "gps_retries_total", "counter", help, retries);
        let help = "Queries answered `overloaded` (no healthy backend).";
        write_family(w, "gps_shed_total", "counter", help, count(&self.shed));
        let each = |value: fn(&BackendState) -> u64| {
            let label = |b: &BackendState| format!("backend=\"{}\"", label_escape(&b.addr));
            self.backends.iter().map(move |b| (label(b), value(b)))
        };
        let help = "Whether the router considers a backend healthy.";
        let up = each(|b| u64::from(b.health() != Health::Down));
        write_family(w, "gps_backend_up", "gauge", help, up);
        let help = "Requests each backend answered.";
        let forwarded = each(|b| b.forwarded.load(Ordering::Relaxed));
        write_family(w, "gps_backend_forwarded_total", "counter", help, forwarded);
        let help = "Failed attempts against each backend.";
        let errors = each(|b| b.errors.load(Ordering::Relaxed));
        write_family(w, "gps_backend_errors_total", "counter", help, errors);
        let help = "Whether the router is draining.";
        let draining = [("", u8::from(self.conns.is_draining()))];
        write_family(w, "gps_router_draining", "gauge", help, draining);
        out
    }
}

/// The backend order for a query owned by `owner`: the owner first, then
/// the rest round-robin — the deterministic alternate list retries walk.
fn candidates(owner: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| (owner + i) % n)
}

/// Bytes one `read(2)` takes from a backend link.
const READ_CHUNK: usize = 64 * 1024;

/// One front read burst on its way through the hop: a reply slot per
/// frame, in request order, and the backend parts its predicts split
/// into.
#[derive(Default)]
struct Burst {
    slots: Vec<Slot>,
    /// The predict frames, in slot order.
    routed: Vec<Routed>,
    parts: Vec<Part>,
}

/// How one front frame of a burst is answered.
enum Slot {
    /// Answered when decoded: malformed frames and pongs.
    Ready(ReplyCtx, Reply),
    /// Predict work, answered from the next entry of `Burst::routed`.
    Routed,
    /// A command the router answers itself, after the burst's predicts.
    Admin { ctx: ReplyCtx, cmd: String },
}

/// One predict frame in flight.
struct Routed {
    ctx: ReplyCtx,
    model: Option<String>,
    batch: bool,
    /// One ranking per query, in request order, filled as parts return.
    answers: Vec<Ranked>,
    /// Set when a part failed — a backend's error verbatim, or
    /// [`OVERLOADED`]; the first failure answers the whole frame.
    error: Option<String>,
}

/// One backend request: a single query, or one owner's share of a batch.
struct Part {
    /// Index into `Burst::routed`.
    routed: usize,
    /// Where each query's answer goes in the frame's `answers`.
    positions: Vec<usize>,
    queries: Vec<Query>,
    owner: usize,
    /// Position in `candidates(owner, n)` of the backend the part is on.
    step: usize,
    /// Moves off failed backends so far; each counted one retry.
    moves: usize,
}

impl Burst {
    /// Decode one front frame through the server's decoder into its
    /// reply slot (and, for a predict, its parts).
    fn push_frame(&mut self, core: &Core, format: WireFormat, payload: &[u8]) {
        match decode_request(format, payload) {
            Request::Ready(ctx, reply) => self.slots.push(Slot::Ready(ctx, reply)),
            Request::Predict {
                ctx,
                model,
                queries,
                batch,
            } => self.predict(core, ctx, model, queries, batch),
            Request::Command { ctx, cmd, .. } => self.slots.push(Slot::Admin { ctx, cmd }),
        }
    }

    /// Queue one predict frame: a single query is one part, a batch one
    /// part per owning backend.
    fn predict(
        &mut self,
        core: &Core,
        ctx: ReplyCtx,
        model: Option<String>,
        queries: Vec<Query>,
        batch: bool,
    ) {
        let routed = self.routed.len();
        let mut part_of: Vec<Option<usize>> = vec![None; core.backends.len()];
        let answers = vec![Vec::new(); queries.len()];
        for (position, query) in queries.into_iter().enumerate() {
            let owner = core.owner_of(query.ip);
            let p = *part_of[owner].get_or_insert_with(|| {
                self.parts.push(Part {
                    routed,
                    positions: Vec::new(),
                    queries: Vec::new(),
                    owner,
                    step: 0,
                    moves: 0,
                });
                self.parts.len() - 1
            });
            self.parts[p].positions.push(position);
            self.parts[p].queries.push(query);
        }
        self.routed.push(Routed {
            ctx,
            model,
            batch,
            answers,
            error: None,
        });
        self.slots.push(Slot::Routed);
    }
}

/// A backend link: one nonblocking GPSQ stream with its unsent requests,
/// its reply decoder, and the request ids it still owes, in order.
struct Link {
    stream: TcpStream,
    out: Vec<u8>,
    /// Bytes of `out` the kernel has taken.
    sent: usize,
    decoder: FrameDecoder,
    /// The parts sent and not yet answered, in send order — the order the
    /// backend answers in. A part's index in the burst is its request id:
    /// a part visits a backend at most once, and a link owes nothing
    /// between bursts.
    owed: VecDeque<usize>,
    /// When a byte last moved while the link owed replies.
    progress: Instant,
    /// Whether the poller watches the link for writability.
    watch_write: bool,
}

impl Link {
    /// Connect to backend `b` (within the request timeout) and register
    /// the link with `poller` under token `b`.
    fn connect(core: &Core, b: usize, poller: &mut Poller) -> io::Result<Link> {
        let stream = connect_timeout(core.backends[b].addr.as_str(), core.config.request_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), b as u64, Interest::READ)?;
        Ok(Link {
            stream,
            out: Vec::new(),
            sent: 0,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            owed: VecDeque::new(),
            progress: Instant::now(),
            watch_write: false,
        })
    }

    /// Queue part `p` as one GPSQ request.
    fn send(&mut self, p: usize, part: &Part, model: Option<&str>, batch: bool) {
        let id = p as u64;
        let encoded = append_binary_frame(&mut self.out, |w| {
            if batch {
                wire::encode_batch(Some(id), model, &part.queries, w);
            } else {
                wire::encode_predict(Some(id), model, &part.queries[0], w);
            }
        });
        // A part re-encodes a subset of a frame that fit the cap, and GPSQ
        // is never longer than the JSON it may have arrived as.
        assert!(encoded, "a part fits the frame cap its front frame fit");
        if self.owed.is_empty() {
            self.progress = Instant::now();
        }
        self.owed.push_back(p);
    }

    /// Write until the kernel stops taking bytes, then keep the poller's
    /// write interest in step with what is left; `Err` means the link is
    /// gone.
    fn flush(&mut self, poller: &mut Poller, token: usize) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent += n;
                    self.progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        let writable = self.sent < self.out.len();
        if writable != self.watch_write {
            let interest = Interest {
                writable,
                ..Interest::READ
            };
            poller.modify(self.stream.as_raw_fd(), token as u64, interest)?;
            self.watch_write = writable;
        }
        Ok(())
    }

    /// One read; the reply payloads it completes go to `replies`. EOF and
    /// undecodable bytes are errors, raised after the replies decoded
    /// before them.
    fn read(&mut self, chunk: &mut [u8], replies: &mut Vec<Vec<u8>>) -> io::Result<()> {
        match self.stream.read(chunk) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.progress = Instant::now();
                self.decoder
                    .feed(&chunk[..n], replies)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(()),
                _ => Err(e),
            },
        }
    }

    /// File each decoded reply against the request at the head of the
    /// owed queue. A reply to the wrong id, of the wrong kind or length,
    /// or to nothing at all is a protocol break: the caller fails the link.
    fn deliver(
        &mut self,
        backend: &BackendState,
        replies: &mut Vec<Vec<u8>>,
        burst: &mut Burst,
    ) -> io::Result<()> {
        let answered = !replies.is_empty();
        for payload in replies.drain(..) {
            let broken = || io::Error::new(io::ErrorKind::InvalidData, "reply out of step");
            let p = *self.owed.front().ok_or_else(broken)?;
            let id = p as u64;
            let part = &burst.parts[p];
            let routed = &mut burst.routed[part.routed];
            match wire::decode_response(&payload) {
                Ok(wire::Response::Predict { id: got, ranking })
                    if got == Some(id) && !routed.batch =>
                {
                    routed.answers[part.positions[0]] = ranking;
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                }
                Ok(wire::Response::Batch { id: got, rankings })
                    if got == Some(id)
                        && routed.batch
                        && rankings.len() == part.positions.len() =>
                {
                    for (&position, ranking) in part.positions.iter().zip(rankings) {
                        routed.answers[position] = ranking;
                    }
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                }
                // An application error is an *answer*: deterministic, and
                // the stream is still in step — forward it, keep the link.
                Ok(wire::Response::Error { id: got, message }) if got == Some(id) => {
                    routed.error.get_or_insert(message);
                }
                _ => return Err(broken()),
            }
            self.owed.pop_front();
        }
        if answered {
            backend.record_ok();
        }
        Ok(())
    }
}

/// One event loop's side of the hop: a link per backend (connected on
/// first use, dropped on failure) and the poller that drives them.
pub(crate) struct Hop {
    core: Arc<Core>,
    links: Vec<Option<Link>>,
    /// Backends whose link failed during the current burst: not tried
    /// again before the next one, so a dead or black-holed backend costs
    /// a burst one failure, not one per part.
    failed: Vec<bool>,
    poller: Poller,
    events: Vec<Event>,
    chunk: Vec<u8>,
    replies: Vec<Vec<u8>>,
}

impl Hop {
    fn new(core: &Arc<Core>) -> io::Result<Hop> {
        Ok(Hop {
            core: core.clone(),
            links: core.backends.iter().map(|_| None).collect(),
            failed: vec![false; core.backends.len()],
            poller: Poller::new()?,
            events: Vec::new(),
            chunk: vec![0u8; READ_CHUNK],
            replies: Vec::new(),
        })
    }

    /// Answer one read burst's frames into `out`, in request order:
    /// count them, route every predict, then run the admin commands, then
    /// encode.
    fn answer(&mut self, format: WireFormat, frames: &mut Vec<Vec<u8>>, out: &mut Vec<u8>) {
        self.core
            .requests
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        let mut burst = Burst::default();
        for payload in frames.drain(..) {
            burst.push_frame(&self.core, format, &payload);
        }
        self.exchange(&mut burst);
        let mut routed = burst.routed.into_iter();
        for slot in burst.slots {
            let (ctx, reply) = match slot {
                Slot::Ready(ctx, reply) => (ctx, reply),
                Slot::Routed => {
                    let frame = routed.next().expect("one routed entry per routed slot");
                    let reply = match frame.error {
                        Some(message) => Reply::Error(message),
                        None => Reply::Rankings {
                            answers: frame.answers,
                            batch: frame.batch,
                        },
                    };
                    (frame.ctx, reply)
                }
                Slot::Admin { ctx, cmd } => (ctx, admin_reply(&self.core, &cmd)),
            };
            encode_reply(&ctx, reply, out);
        }
    }

    /// Put every part of the burst on a backend link, then write and read
    /// the links until each part is answered or its frame shed. A link
    /// that fails hands its unanswered parts back for re-placement.
    fn exchange(&mut self, burst: &mut Burst) {
        let timeout = self.core.config.request_timeout;
        self.failed.fill(false);
        let mut queue: VecDeque<(usize, bool)> =
            (0..burst.parts.len()).map(|p| (p, false)).collect();
        loop {
            self.place(burst, &mut queue);
            let mut wait: Option<Duration> = None;
            for b in 0..self.links.len() {
                let Some(link) = self.links[b].as_mut().filter(|l| !l.owed.is_empty()) else {
                    continue;
                };
                let alive = link.flush(&mut self.poller, b);
                let left = timeout.saturating_sub(link.progress.elapsed());
                if alive.is_err() || left.is_zero() {
                    self.fail(b, &mut queue);
                } else {
                    wait = Some(wait.map_or(left, |w| w.min(left)));
                }
            }
            if !queue.is_empty() {
                continue;
            }
            let Some(wait) = wait else {
                return; // nothing owed on any link
            };
            if self.poller.wait(Some(wait), &mut self.events).is_err() {
                continue; // the deadlines above still bound the burst
            }
            for i in 0..self.events.len() {
                let event = self.events[i];
                let b = event.token as usize;
                let Some(link) = self.links[b].as_mut() else {
                    continue; // failed earlier in this pass
                };
                // A no-op unless requests are waiting for room.
                let mut result = link.flush(&mut self.poller, b);
                if result.is_ok() && (event.readable || event.failed) {
                    result = link.read(&mut self.chunk, &mut self.replies);
                    let delivered = link.deliver(&self.core.backends[b], &mut self.replies, burst);
                    result = result.and(delivered);
                }
                if result.is_err() {
                    self.fail(b, &mut queue);
                }
            }
        }
    }

    /// Put each queued part on the link of its first available candidate
    /// — after the backend it failed on, when `moving`. A part out of
    /// candidates or out of retries sheds its frame.
    fn place(&mut self, burst: &mut Burst, queue: &mut VecDeque<(usize, bool)>) {
        let core = Arc::clone(&self.core);
        let n = core.backends.len();
        while let Some((p, moving)) = queue.pop_front() {
            let part = &mut burst.parts[p];
            let routed = &mut burst.routed[part.routed];
            let from = part.step + usize::from(moving);
            let next = if moving && part.moves >= core.config.max_retries {
                None
            } else {
                candidates(part.owner, n)
                    .enumerate()
                    .skip(from)
                    .find(|&(_, b)| !self.failed[b] && core.backends[b].available())
            };
            let Some((step, b)) = next else {
                if routed.error.is_none() {
                    routed.error = Some(OVERLOADED.to_string());
                    core.shed.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            };
            part.step = step;
            if moving {
                part.moves += 1;
                core.retries.fetch_add(1, Ordering::Relaxed);
            }
            if self.links[b].is_none() {
                match Link::connect(&core, b, &mut self.poller) {
                    Ok(link) => self.links[b] = Some(link),
                    Err(_) => {
                        self.fail(b, queue);
                        queue.push_back((p, true));
                        continue;
                    }
                }
            }
            let link = self.links[b].as_mut().expect("link connected above");
            link.send(p, part, routed.model.as_deref(), routed.batch);
        }
    }

    /// Drop backend `b`'s link (never reuse a stream that failed), count
    /// the failure, and queue every part it still owed to move on.
    fn fail(&mut self, b: usize, queue: &mut VecDeque<(usize, bool)>) {
        if let Some(link) = self.links[b].take() {
            let _ = self.poller.deregister(link.stream.as_raw_fd());
            queue.extend(link.owed.into_iter().map(|p| (p, true)));
        }
        self.failed[b] = true;
        self.core.backends[b].record_failure();
    }
}

/// Answer one admin-shaped JSON command against the router itself;
/// commands it does not implement get an error naming the backends.
fn admin_reply(core: &Core, cmd: &str) -> Reply {
    let mut json = ok_response();
    match cmd {
        "stats" => {
            json.set("stats", core.stats_json());
        }
        "reset-stats" => {
            // Best effort onward: a measurement phase boundary wants the
            // whole tier zeroed; a dead backend just misses the reset. A
            // short-lived client per backend keeps the call out of the
            // links and out of the `forwarded` counts.
            for b in &core.backends {
                let timeout = core.config.request_timeout;
                if let Ok(mut client) = Client::connect_timeout(b.addr.as_str(), timeout) {
                    let _ = client.reset_stats();
                }
            }
            core.requests.store(0, Ordering::Relaxed);
            core.retries.store(0, Ordering::Relaxed);
            core.shed.store(0, Ordering::Relaxed);
            for b in &core.backends {
                b.forwarded.store(0, Ordering::Relaxed);
                b.errors.store(0, Ordering::Relaxed);
            }
        }
        "shutdown" => {
            core.conns.begin_drain();
            json.set("draining", true);
        }
        other => return Reply::Error(format!("cmd {other:?} is not routed (ask a backend)")),
    }
    Reply::Json(json)
}

/// `gps route` on the event loops: a frame connection's parked frames go
/// through the loop's `Hop` as one burst; an HTTP request gets its reply
/// and the connection closes.
impl Service for Core {
    type Loop = Hop;

    fn conns(&self) -> &Connections {
        &self.conns
    }

    fn open_loop(core: &Arc<Core>) -> io::Result<Hop> {
        Hop::new(core)
    }

    fn answer(&self, hop: &mut Hop, conn: &mut Conn) {
        if !conn.writable_room() {
            return;
        }
        let mut frames = Vec::with_capacity(conn.parked.len());
        while let Some(payload) = conn.parked.pop_front() {
            match payload {
                Payload::Frame(bytes) => frames.push(bytes),
                Payload::Http(request) => {
                    return close_with(conn, |out| http_reply(self, &request, out))
                }
                Payload::BadHttp(error) => {
                    return close_with(conn, |out| http::append_error(out, &error))
                }
            }
        }
        if !frames.is_empty() {
            let format = conn.wire_format();
            conn.enqueue_with(|out| hop.answer(format, &mut frames, out));
        }
    }
}

/// Queue an HTTP connection's last reply: every router reply is
/// `connection: close`, so nothing after the first request is read or
/// answered.
fn close_with(conn: &mut Conn, encode: impl FnOnce(&mut Vec<u8>)) {
    conn.parked.clear();
    conn.read_closed = true;
    conn.enqueue_with(encode);
}

/// The HTTP sideline's route table, for health checks and metrics.
fn http_reply(core: &Core, request: &HttpRequest, out: &mut Vec<u8>) {
    let (status, content_type, body) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") if core.conns.is_draining() => (503, "text/plain", "draining\n".into()),
        ("GET", "/healthz") => (200, "text/plain", "ok\n".into()),
        ("GET", "/metrics") => (200, "text/plain; version=0.0.4", core.render_metrics()),
        ("GET", "/stats") => {
            let mut text = String::new();
            core.stats_json().write(&mut text);
            text.push('\n');
            (200, "application/json", text)
        }
        ("POST", "/shutdown") => {
            core.conns.begin_drain();
            let body = "{\"ok\":true,\"draining\":true}\n";
            (200, "application/json", body.into())
        }
        (_, "/healthz" | "/metrics" | "/stats" | "/shutdown") => {
            (405, "text/plain", "method not allowed\n".into())
        }
        _ => (404, "text/plain", "not found\n".into()),
    };
    http::append_response(out, status, content_type, body.as_bytes(), false);
}

/// The active health prober: pings every backend each interval over
/// short-deadline connections, driving the same health state passive
/// errors feed. A downed backend's recovery is noticed within one
/// interval of it coming back.
fn probe_loop(core: &Core) {
    let mut clients: Vec<Option<Client>> = (0..core.backends.len()).map(|_| None).collect();
    let timeout = core.config.request_timeout.min(Duration::from_millis(500));
    while !core.stop.load(Ordering::Acquire) {
        for (idx, backend) in core.backends.iter().enumerate() {
            if clients[idx].is_none() {
                clients[idx] = Client::connect_timeout(backend.addr.as_str(), timeout).ok();
            }
            let ok = match clients[idx].as_mut() {
                None => false,
                Some(client) => client.ping().is_ok(),
            };
            if ok {
                backend.record_ok();
            } else {
                clients[idx] = None;
                backend.record_failure();
            }
        }
        std::thread::sleep(core.config.probe_interval);
    }
}

/// The router process entry point (also embeddable — tests start it
/// in-process).
pub struct Router;

/// A started router: its bound addresses plus drain control. Dropping
/// the handle stops the prober; the event loops and accept threads run
/// until the process exits (like the server's).
pub struct RouterHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
}

impl Router {
    /// Bind `addr` (and optionally `http_addr`) and serve the routing
    /// tier over `config.backends` on the `net` event loops, with
    /// [`TransportConfig::default`]. Returns once the listeners are
    /// bound; serving happens on background threads.
    pub fn start(
        addr: &str,
        http_addr: Option<&str>,
        config: RouterConfig,
    ) -> io::Result<RouterHandle> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one --backend",
            ));
        }
        let core = Arc::new(Core::new(config));
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let http = http_addr.map(TcpListener::bind).transpose()?;
        let http_bound = http.as_ref().map(TcpListener::local_addr).transpose()?;
        crate::net::serve_events(core.clone(), listener, http, &TransportConfig::default())?;
        let probe_core = core.clone();
        std::thread::Builder::new()
            .name("gps-route-probe".to_string())
            .spawn(move || probe_loop(&probe_core))
            .expect("spawn router probe thread");
        Ok(RouterHandle {
            core,
            addr: bound,
            http_addr: http_bound,
        })
    }
}

impl RouterHandle {
    /// The bound frame-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP sideline address, when one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Flip the router into drain (same as the `shutdown` command).
    pub fn begin_drain(&self) {
        self.core.conns.begin_drain();
    }

    pub fn is_draining(&self) -> bool {
        self.core.conns.is_draining()
    }

    /// Block until every connection, front and HTTP, has closed or
    /// `timeout` passes; returns the connections still open (0 =
    /// drained).
    pub fn wait_drained(&self, timeout: Duration) -> u64 {
        self.core.conns.wait_drained(timeout)
    }

    /// The router's `stats` payload (what the wire `stats` cmd returns).
    pub fn stats_json(&self) -> Json {
        self.core.stats_json()
    }

    /// Total retried attempts (the `gps_retries_total` counter).
    pub fn retries_total(&self) -> u64 {
        self.core.retries.load(Ordering::Relaxed)
    }

    /// Total shed queries (the `gps_shed_total` counter).
    pub fn shed_total(&self) -> u64 {
        self.core.shed.load(Ordering::Relaxed)
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.core.stop.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_types::Ip;

    fn test_core(addrs: &[&str]) -> Arc<Core> {
        Arc::new(Core::new(RouterConfig {
            backends: addrs.iter().map(|a| a.to_string()).collect(),
            ..RouterConfig::default()
        }))
    }

    #[test]
    fn owner_is_stable_and_subnet_aligned() {
        let core = test_core(&["a:1", "b:2", "c:3"]);
        for ip in [Ip::from_octets(10, 7, 3, 4), Ip::from_octets(198, 51, 0, 1)] {
            let owner = core.owner_of(ip);
            // Every IP of one /16 routes to the same backend.
            assert_eq!(owner, core.owner_of(Ip(ip.0 ^ 0xFFFF)));
            assert!(owner < 3);
        }
        // Different /16s spread (Fibonacci hashing): at least two owners
        // across a handful of subnets.
        let owners: std::collections::HashSet<usize> =
            (0u32..8).map(|n| core.owner_of(Ip(n << 16 | 1))).collect();
        assert!(owners.len() > 1);
    }

    #[test]
    fn health_walks_up_suspect_down_and_backs_off() {
        let b = BackendState::new("127.0.0.1:9".to_string());
        assert_eq!(b.health(), Health::Up);
        assert!(b.available());
        b.record_failure();
        assert_eq!(b.health(), Health::Suspect);
        assert!(b.available(), "one failure still routes");
        b.record_failure();
        assert_eq!(b.health(), Health::Down);
        assert!(!b.available(), "down enters backoff");
        assert_eq!(b.errors.load(Ordering::Relaxed), 2);
        b.record_ok();
        assert_eq!(b.health(), Health::Up);
        assert!(b.available());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = BackendState::new("127.0.0.1:9".to_string());
        let mut last = Duration::ZERO;
        for _ in 0..12 {
            b.record_failure();
        }
        {
            let meta = b.meta.lock().unwrap();
            if let Some(until) = meta.down_until {
                last = until.saturating_duration_since(Instant::now());
            }
        }
        // Cap plus at most 25% jitter.
        assert!(last <= BACKOFF_CAP + BACKOFF_CAP / 4 + Duration::from_millis(50));
        assert!(last >= BACKOFF_BASE);
    }

    #[test]
    fn half_open_after_backoff_expires() {
        let b = BackendState::new("127.0.0.1:9".to_string());
        b.record_failure();
        b.record_failure();
        assert!(!b.available());
        // Force the deadline into the past.
        b.meta.lock().unwrap().down_until = Some(Instant::now() - Duration::from_millis(1));
        assert!(b.available(), "expired backoff allows a half-open try");
        assert_eq!(b.health(), Health::Down, "still down until a success");
    }

    #[test]
    fn candidates_start_at_owner_and_wrap() {
        let order: Vec<usize> = candidates(2, 4).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn route_single_sheds_when_everything_is_down() {
        let core = test_core(&["127.0.0.1:1", "127.0.0.1:1"]);
        for b in &core.backends {
            b.record_failure();
            b.record_failure();
        }
        let mut hop = Hop::new(&core).expect("poller");
        let mut burst = Burst::default();
        let query = Query::new(Ip::from_octets(10, 0, 0, 1));
        burst.predict(
            &core,
            ReplyCtx::Binary { id: None },
            None,
            vec![query],
            false,
        );
        hop.exchange(&mut burst);
        assert_eq!(burst.routed[0].error.as_deref(), Some(OVERLOADED));
        assert_eq!(core.shed.load(Ordering::Relaxed), 1);
        assert_eq!(core.retries.load(Ordering::Relaxed), 0, "nothing was tried");
    }

    #[test]
    fn stats_json_carries_loadgen_keys_and_router_section() {
        let core = test_core(&["x:1"]);
        core.requests.store(5, Ordering::Relaxed);
        core.conns.accepted.store(3, Ordering::Relaxed);
        core.conns.closed.store(1, Ordering::Relaxed);
        let json = core.stats_json();
        assert_eq!(json.get("requests").and_then(Json::as_u64), Some(5));
        assert_eq!(json.get("conns_active").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("conns_rejected").and_then(Json::as_u64), Some(0));
        let router = json.get("router").expect("router section");
        assert_eq!(router.get("retries_total").and_then(Json::as_u64), Some(0));
        let backends = router.get("backends").and_then(Json::as_arr).unwrap();
        assert_eq!(backends.len(), 1);
        assert_eq!(backends[0].get("health").and_then(Json::as_str), Some("up"));
    }

    #[test]
    fn metrics_exposition_has_the_contract_series() {
        let core = test_core(&["b0:1", "b1:2"]);
        core.backends[1].record_failure();
        core.backends[1].record_failure();
        let text = core.render_metrics();
        assert!(text.contains("gps_retries_total 0"));
        assert!(text.contains("gps_shed_total 0"));
        assert!(text.contains("gps_backend_up{backend=\"b0:1\"} 1"));
        assert!(text.contains("gps_backend_up{backend=\"b1:2\"} 0"));
        assert!(text.contains("gps_router_draining 0"));
    }

    #[test]
    fn metrics_escape_backend_labels() {
        let text = test_core(&["a\"b\\c:1"]).render_metrics();
        for family in ["up", "forwarded_total", "errors_total"] {
            let series = format!("gps_backend_{family}{{backend=\"a\\\"b\\\\c:1\"}} ");
            assert!(text.contains(&series), "{series} missing from:\n{text}");
        }
    }
}
