//! The GPSQ routing tier: a thin, model-free process that speaks the
//! full frame protocol (JSON and GPSQ alike) on its front listener and
//! fans work out to N `gps serve` backends over pooled GPSQ clients.
//!
//! Fault tolerance is the point — the paper's predictions only matter
//! while they keep flowing into a running scan, and a single `gps serve`
//! process is a single point of failure:
//!
//! - **Placement.** Single queries are hashed by the query IP's /16
//!   (`Core::owner_of`, a Fibonacci hash): a stateless spread that every
//!   router instance computes alike, and that splits a batch into at
//!   most one sub-batch per backend. Backends keep no per-query state,
//!   so any of them can answer any query — which is what makes retrying
//!   on an alternate safe.
//! - **Health.** Every backend carries a health state (`Up` → `Suspect`
//!   → `Down`) driven by a periodic `ping` prober *and* passively by
//!   forwarding errors. A downed backend is retried after an exponential
//!   backoff with deterministic jitter; the first successful call (or
//!   probe) brings it back.
//! - **Retry.** Predict queries are idempotent, so a retryable failure
//!   (timeout, reset, garbage frame) is retried on the next healthy
//!   backend — bounded by [`RouterConfig::max_retries`]. Application
//!   errors from a backend (`ok:false`) are deterministic and forwarded
//!   verbatim, never retried.
//! - **Shedding.** When no healthy backend remains for a query, the
//!   router answers an explicit `overloaded` error instead of queueing
//!   or hanging — the scanner's loop stays latency-bounded.
//! - **Drain.** The `shutdown` admin command (wire or HTTP) flips
//!   `/healthz` to 503 `draining`, stops accepting connections,
//!   finishes in-flight replies, then closes.
//!
//! Batches are partitioned by owner and fanned out concurrently, one
//! sub-batch per owning backend, with the same per-group retry; a group
//! that exhausts its retries fails the whole frame with one error reply
//! (partial answers are never silently dropped).
//!
//! The router holds no model: every reply a client sees was computed by
//! a backend, re-framed through the same `proto` encoders the server
//! uses, so a client cannot tell the router from a plain `gps serve`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gps_types::Json;

use crate::artifact::{Query, Ranked};
use crate::net::{FrameDecoder, WireFormat};
use crate::proto::{
    encode_predict_reply, encode_ready, error_response, ok_response, query_from_json,
    read_frame_payload, ready_error, Client, ClientConfig, ClientError, ReadyReply, ReplyCtx,
    MAX_BATCH_QUERIES, MAX_FRAME_BYTES,
};
use crate::wire;

/// Knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`), order fixed at start; the
    /// consistent hash maps /16s onto this list by index.
    pub backends: Vec<String>,
    /// Cadence of the active `ping` prober.
    pub probe_interval: Duration,
    /// Per-attempt deadline on every backend call (connect, read, and
    /// write alike). A stalled backend surfaces as a retryable timeout
    /// within this bound.
    pub request_timeout: Duration,
    /// Most *additional* backends tried after the owner fails or is
    /// unavailable.
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
    /// Failed attempts against this backend (timeouts, resets, garbage).
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
        let jitter_ns = (backoff.as_nanos() as u64 / 4)
            .checked_rem(u64::MAX)
            .unwrap_or(0);
        let jitter = Duration::from_nanos(if jitter_ns == 0 { 0 } else { seed % jitter_ns });
        meta.down_until = Some(Instant::now() + backoff + jitter);
    }
}

/// Everything shared between connection threads, the prober, and the
/// handle.
struct Core {
    backends: Vec<BackendState>,
    config: RouterConfig,
    draining: AtomicBool,
    stop: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    /// Failed attempts that moved on to another backend.
    retries: AtomicU64,
    /// Queries answered `overloaded` because no backend was available.
    shed: AtomicU64,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    conns_rejected: AtomicU64,
}

impl Core {
    /// Which backend owns an IP: a Fibonacci hash of its /16, so
    /// sequential /16s spread across backends and the owner depends on
    /// nothing but the query.
    fn owner_of(&self, ip: gps_types::Ip) -> usize {
        let slash16 = ip.0 >> 16;
        let h = (slash16 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.backends.len()
    }

    fn backend_client_config(&self) -> ClientConfig {
        ClientConfig::timeouts(WireFormat::Binary, self.config.request_timeout)
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// The `stats` reply. Carries the top-level connection/request keys
    /// loadgen's external mode reads (so `--addr <router>` runs work
    /// unchanged) plus a `"router"` section with the health picture.
    fn stats_json(&self) -> Json {
        let mut backends = Vec::with_capacity(self.backends.len());
        for b in &self.backends {
            let mut entry = Json::obj();
            entry
                .set("addr", b.addr.as_str())
                .set("health", b.health().as_str())
                .set("up", b.health() != Health::Down)
                .set(
                    "forwarded",
                    Json::Num(b.forwarded.load(Ordering::Relaxed) as f64),
                )
                .set("errors", Json::Num(b.errors.load(Ordering::Relaxed) as f64));
            backends.push(entry);
        }
        let mut router = Json::obj();
        router
            .set("backends", backends)
            .set(
                "retries_total",
                Json::Num(self.retries.load(Ordering::Relaxed) as f64),
            )
            .set(
                "shed_total",
                Json::Num(self.shed.load(Ordering::Relaxed) as f64),
            )
            .set("draining", self.is_draining());
        let accepted = self.conns_accepted.load(Ordering::Relaxed);
        let closed = self.conns_closed.load(Ordering::Relaxed);
        let mut json = Json::obj();
        json.set("version", env!("CARGO_PKG_VERSION"))
            .set(
                "requests",
                Json::Num(self.requests.load(Ordering::Relaxed) as f64),
            )
            .set("uptime_secs", self.started.elapsed().as_secs_f64())
            .set("conns_accepted", Json::Num(accepted as f64))
            .set("conns_closed", Json::Num(closed as f64))
            .set(
                "conns_active",
                Json::Num(accepted.saturating_sub(closed) as f64),
            )
            .set(
                "conns_rejected",
                Json::Num(self.conns_rejected.load(Ordering::Relaxed) as f64),
            )
            .set("draining", self.is_draining())
            .set("router", router);
        json
    }

    /// The Prometheus exposition of the router's counters and gauges.
    fn render_metrics(&self) -> String {
        use std::fmt::Write as _;
        let mut w = String::with_capacity(1024);
        let _ = writeln!(
            w,
            "# HELP gps_router_requests_total Requests the router answered."
        );
        let _ = writeln!(w, "# TYPE gps_router_requests_total counter");
        let _ = writeln!(
            w,
            "gps_router_requests_total {}",
            self.requests.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            w,
            "# HELP gps_retries_total Failed backend attempts retried elsewhere."
        );
        let _ = writeln!(w, "# TYPE gps_retries_total counter");
        let _ = writeln!(
            w,
            "gps_retries_total {}",
            self.retries.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            w,
            "# HELP gps_shed_total Queries answered `overloaded` (no healthy backend)."
        );
        let _ = writeln!(w, "# TYPE gps_shed_total counter");
        let _ = writeln!(w, "gps_shed_total {}", self.shed.load(Ordering::Relaxed));
        let _ = writeln!(
            w,
            "# HELP gps_backend_up Whether the router considers a backend healthy."
        );
        let _ = writeln!(w, "# TYPE gps_backend_up gauge");
        for b in &self.backends {
            let up = u8::from(b.health() != Health::Down);
            let _ = writeln!(w, "gps_backend_up{{backend=\"{}\"}} {up}", b.addr);
        }
        let _ = writeln!(
            w,
            "# HELP gps_backend_forwarded_total Requests each backend answered."
        );
        let _ = writeln!(w, "# TYPE gps_backend_forwarded_total counter");
        for b in &self.backends {
            let _ = writeln!(
                w,
                "gps_backend_forwarded_total{{backend=\"{}\"}} {}",
                b.addr,
                b.forwarded.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            w,
            "# HELP gps_backend_errors_total Failed attempts against each backend."
        );
        let _ = writeln!(w, "# TYPE gps_backend_errors_total counter");
        for b in &self.backends {
            let _ = writeln!(
                w,
                "gps_backend_errors_total{{backend=\"{}\"}} {}",
                b.addr,
                b.errors.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            w,
            "# HELP gps_router_draining Whether the router is draining."
        );
        let _ = writeln!(w, "# TYPE gps_router_draining gauge");
        let _ = writeln!(w, "gps_router_draining {}", u8::from(self.is_draining()));
        w
    }
}

/// Why a routed call could not be answered with a ranking.
enum RouteError {
    /// Every eligible backend failed or was unavailable — answered as
    /// the explicit `overloaded` error.
    Overloaded,
    /// A backend understood the request and said no; forwarded verbatim.
    Server(String),
}

impl RouteError {
    fn message(self) -> String {
        match self {
            RouteError::Overloaded => OVERLOADED.to_string(),
            RouteError::Server(message) => message,
        }
    }
}

/// Per-connection pool of lazily connected backend clients. A client
/// that errors is dropped (never reused — the stream position is
/// untrustworthy) and reconnected on the next call.
struct BackendPool {
    clients: Vec<Option<Client>>,
}

impl BackendPool {
    fn new(n: usize) -> BackendPool {
        BackendPool {
            clients: (0..n).map(|_| None).collect(),
        }
    }
}

/// One attempt against backend `idx` through the pool: connect if
/// needed, run `call`, classify the outcome. On success the backend is
/// marked up; on a transport/protocol failure the client is dropped and
/// the backend penalized. `Err(Some(msg))` is a deterministic server
/// error (do not retry); `Err(None)` is a failed attempt (retry
/// elsewhere).
fn attempt<T>(
    core: &Core,
    slot: &mut Option<Client>,
    idx: usize,
    call: impl FnOnce(&mut Client) -> io::Result<T>,
) -> Result<T, Option<String>> {
    let backend = &core.backends[idx];
    if slot.is_none() {
        match Client::connect_config(backend.addr.as_str(), &core.backend_client_config()) {
            Ok(client) => *slot = Some(client),
            Err(_) => {
                backend.record_failure();
                return Err(None);
            }
        }
    }
    let client = slot.as_mut().expect("client just ensured");
    match call(client) {
        Ok(value) => {
            backend.record_ok();
            backend.forwarded.fetch_add(1, Ordering::Relaxed);
            Ok(value)
        }
        Err(e) => {
            *slot = None; // never reuse a stream that failed mid-call
            match ClientError::from_io(e) {
                // An application error is an *answer*: the backend is
                // healthy, the reply deterministic — forward it.
                ClientError::Server(message) => {
                    backend.record_ok();
                    Err(Some(message))
                }
                // Timeouts, resets, and garbage frames alike: penalize
                // and let the caller try another backend.
                ClientError::Retryable(_) | ClientError::Fatal(_) => {
                    backend.record_failure();
                    Err(None)
                }
            }
        }
    }
}

/// The backend order for a query owned by `owner`: the owner first, then
/// the rest round-robin — the deterministic alternate list retries walk.
fn candidates(owner: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| (owner + i) % n)
}

/// Route one single-query predict: the owner first, then up to
/// `max_retries` alternates, skipping backends in backoff.
fn route_single(
    core: &Core,
    pool: &mut BackendPool,
    model: Option<&str>,
    query: &Query,
) -> Result<Ranked, RouteError> {
    let owner = core.owner_of(query.ip);
    let mut attempts = 0usize;
    let budget = core.config.max_retries + 1;
    for idx in candidates(owner, core.backends.len()) {
        if attempts >= budget {
            break;
        }
        if !core.backends[idx].available() {
            continue;
        }
        if attempts > 0 {
            core.retries.fetch_add(1, Ordering::Relaxed);
        }
        attempts += 1;
        match attempt(core, &mut pool.clients[idx], idx, |c| {
            c.predict_on(model, query)
        }) {
            Ok(ranking) => return Ok(ranking),
            Err(Some(message)) => return Err(RouteError::Server(message)),
            Err(None) => continue,
        }
    }
    core.shed.fetch_add(1, Ordering::Relaxed);
    Err(RouteError::Overloaded)
}

/// Route one batch: partition by owner, fan the sub-batches out
/// concurrently (one thread per owning backend), then retry any failed
/// group sequentially on its alternates. Answers return in request
/// order; a group that exhausts retries fails the whole frame.
fn route_batch(
    core: &Core,
    pool: &mut BackendPool,
    model: Option<&str>,
    queries: &[Query],
) -> Result<Vec<Ranked>, RouteError> {
    let n = core.backends.len();
    let mut groups: HashMap<usize, (Vec<usize>, Vec<Query>)> = HashMap::new();
    for (idx, query) in queries.iter().enumerate() {
        let owner = core.owner_of(query.ip);
        let group = groups.entry(owner).or_default();
        group.0.push(idx);
        group.1.push(query.clone());
    }
    let mut results: Vec<Option<Ranked>> = vec![None; queries.len()];
    // First pass: every group against its owner, concurrently. Each
    // group borrows its owner's pool slot — owners are distinct by
    // construction, so the mutable borrows are disjoint.
    let mut failed: Vec<(usize, Vec<usize>, Vec<Query>)> = Vec::new();
    {
        /// One fanned-out group's result: original indices, the queries
        /// (kept for the retry pass), the owner, and the attempt outcome.
        type GroupOutcome = (
            Vec<usize>,
            Vec<Query>,
            usize,
            Result<Vec<Ranked>, Option<String>>,
        );
        let mut slots: HashMap<usize, &mut Option<Client>> =
            pool.clients.iter_mut().enumerate().collect();
        let mut outcomes: Vec<GroupOutcome> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (owner, (indices, group_queries)) in groups {
                let slot = slots.remove(&owner).expect("distinct owners");
                let core = &core;
                handles.push(scope.spawn(move || {
                    let outcome = if core.backends[owner].available() {
                        attempt(core, slot, owner, |c| {
                            c.predict_batch_on(model, &group_queries)
                        })
                    } else {
                        Err(None)
                    };
                    (indices, group_queries, owner, outcome)
                }));
            }
            for handle in handles {
                outcomes.push(handle.join().expect("batch fan-out thread"));
            }
        });
        for (indices, group_queries, owner, outcome) in outcomes {
            match outcome {
                Ok(rankings) if rankings.len() == indices.len() => {
                    for (slot_idx, ranking) in indices.iter().zip(rankings) {
                        results[*slot_idx] = Some(ranking);
                    }
                }
                Ok(_) => {
                    // A short reply is protocol breakage; retry the group.
                    failed.push((owner, indices, group_queries));
                }
                Err(Some(message)) => return Err(RouteError::Server(message)),
                Err(None) => failed.push((owner, indices, group_queries)),
            }
        }
    }
    // Retry pass: each failed group walks its alternates in order.
    for (owner, indices, group_queries) in failed {
        let mut answered = false;
        let mut attempts = 0usize;
        for idx in candidates(owner, n).skip(1) {
            if attempts >= core.config.max_retries {
                break;
            }
            if !core.backends[idx].available() {
                continue;
            }
            attempts += 1;
            core.retries.fetch_add(1, Ordering::Relaxed);
            match attempt(core, &mut pool.clients[idx], idx, |c| {
                c.predict_batch_on(model, &group_queries)
            }) {
                Ok(rankings) if rankings.len() == indices.len() => {
                    for (slot_idx, ranking) in indices.iter().zip(rankings) {
                        results[*slot_idx] = Some(ranking);
                    }
                    answered = true;
                    break;
                }
                Ok(_) | Err(None) => continue,
                Err(Some(message)) => return Err(RouteError::Server(message)),
            }
        }
        if !answered {
            core.shed.fetch_add(1, Ordering::Relaxed);
            return Err(RouteError::Overloaded);
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every query answered or frame errored"))
        .collect())
}

/// Handle one admin-shaped JSON command against the router itself.
/// Returns `None` for commands the router does not implement.
fn admin_response(core: &Core, pool: &mut BackendPool, cmd: &str) -> Option<Json> {
    match cmd {
        "ping" => {
            let mut json = ok_response();
            json.set("pong", true);
            Some(json)
        }
        "stats" => {
            let mut json = ok_response();
            json.set("stats", core.stats_json());
            Some(json)
        }
        "reset-stats" => {
            core.requests.store(0, Ordering::Relaxed);
            core.retries.store(0, Ordering::Relaxed);
            core.shed.store(0, Ordering::Relaxed);
            for b in &core.backends {
                b.forwarded.store(0, Ordering::Relaxed);
                b.errors.store(0, Ordering::Relaxed);
            }
            // Best effort onward: a loadgen phase boundary wants the
            // whole tier zeroed; a dead backend just misses the reset.
            for idx in 0..core.backends.len() {
                let _ = attempt(core, &mut pool.clients[idx], idx, |c| c.reset_stats());
            }
            Some(ok_response())
        }
        "shutdown" => {
            core.begin_drain();
            let mut json = ok_response();
            json.set("draining", true);
            Some(json)
        }
        _ => None,
    }
}

/// Classify-and-answer one JSON-semantics request against the router;
/// the router's analog of the server's `classify_json`.
fn handle_json(
    core: &Core,
    pool: &mut BackendPool,
    text: &str,
    ctx_of: impl Fn(Option<Json>) -> ReplyCtx,
    out: &mut Vec<u8>,
) {
    let request = match Json::parse(text) {
        Ok(json) => json,
        Err(e) => {
            encode_ready(ready_error(ctx_of(None), format!("bad json: {e}")), out);
            return;
        }
    };
    let id = request.get("id").cloned();
    let ctx = ctx_of(id);
    let cmd = match request.get("cmd").and_then(Json::as_str) {
        Some(cmd) => cmd.to_string(),
        None => {
            encode_ready(ready_error(ctx, "missing cmd".to_string()), out);
            return;
        }
    };
    let model = match request.get("model") {
        None => None,
        Some(Json::Str(id)) => Some(id.clone()),
        Some(_) => {
            encode_ready(ready_error(ctx, "model must be a string".to_string()), out);
            return;
        }
    };
    core.requests.fetch_add(1, Ordering::Relaxed);
    match cmd.as_str() {
        "predict" => match query_from_json(&request) {
            Ok(query) => match route_single(core, pool, model.as_deref(), &query) {
                Ok(ranking) => {
                    encode_predict_reply(&ctx, &[ranking], false, out);
                }
                Err(e) => encode_ready(ready_error(ctx, e.message()), out),
            },
            Err(e) => encode_ready(ready_error(ctx, e), out),
        },
        "batch" => {
            let items = match request.get("queries").and_then(Json::as_arr) {
                Some(items) if items.len() <= MAX_BATCH_QUERIES => items,
                Some(_) => {
                    encode_ready(ready_error(ctx, "batch too large".to_string()), out);
                    return;
                }
                None => {
                    encode_ready(ready_error(ctx, "missing queries".to_string()), out);
                    return;
                }
            };
            let mut queries = Vec::with_capacity(items.len());
            for item in items {
                match query_from_json(item) {
                    Ok(query) => queries.push(query),
                    Err(e) => {
                        encode_ready(ready_error(ctx, e), out);
                        return;
                    }
                }
            }
            match route_batch(core, pool, model.as_deref(), &queries) {
                Ok(rankings) => {
                    encode_predict_reply(&ctx, &rankings, true, out);
                }
                Err(e) => encode_ready(ready_error(ctx, e.message()), out),
            }
        }
        other => match admin_response(core, pool, other) {
            Some(response) => encode_ready(ready_of(ctx, response), out),
            None => encode_ready(
                ready_error(ctx, format!("cmd {other:?} is not routed (ask a backend)")),
                out,
            ),
        },
    }
}

/// Wrap a finished JSON response in the right envelope for `ctx`.
fn ready_of(ctx: ReplyCtx, response: Json) -> ReadyReply {
    match ctx {
        ReplyCtx::Json { id } => ReadyReply::Json { response, id },
        ReplyCtx::BinaryAdmin { id } => ReadyReply::BinaryAdmin { response, id },
        ReplyCtx::Http { id, keep_alive } => ReadyReply::Http {
            response,
            id,
            keep_alive,
        },
        // Native binary contexts never reach here (they answer through
        // `encode_predict_reply` or pong/error frames).
        ReplyCtx::Binary { id } => ReadyReply::BinaryError {
            id,
            message: "internal: JSON reply on a binary context".to_string(),
        },
    }
}

/// Serve one accepted front connection until EOF, framing error, or
/// drain: one blocking thread per front connection, with routing in
/// place of local predict work.
fn serve_front_connection(core: &Core, stream: TcpStream) -> io::Result<()> {
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut pool = BackendPool::new(core.backends.len());
    let mut out: Vec<u8> = Vec::new();
    loop {
        let payload = match read_frame_payload(&mut reader, &mut decoder) {
            Ok(Some(payload)) => payload,
            result => {
                if !out.is_empty() {
                    let _ = writer.write_all(&out);
                }
                return result.map(|_| ());
            }
        };
        let format = decoder.format().unwrap_or(WireFormat::Json);
        match format {
            WireFormat::Json => match std::str::from_utf8(&payload) {
                Ok(text) => {
                    handle_json(core, &mut pool, text, |id| ReplyCtx::Json { id }, &mut out)
                }
                Err(_) => encode_ready(
                    ReadyReply::Json {
                        response: error_response("bad json: frame is not utf-8"),
                        id: None,
                    },
                    &mut out,
                ),
            },
            WireFormat::Binary => match wire::decode_request(&payload) {
                Err(e) => encode_ready(
                    ReadyReply::BinaryError {
                        id: e.id,
                        message: e.message,
                    },
                    &mut out,
                ),
                Ok(wire::Request::Ping { id }) => {
                    core.requests.fetch_add(1, Ordering::Relaxed);
                    encode_ready(ReadyReply::Pong { id }, &mut out);
                }
                Ok(wire::Request::Predict { id, model, query }) => {
                    core.requests.fetch_add(1, Ordering::Relaxed);
                    let ctx = ReplyCtx::Binary { id };
                    match route_single(core, &mut pool, model.as_deref(), &query) {
                        Ok(ranking) => encode_predict_reply(&ctx, &[ranking], false, &mut out),
                        Err(e) => encode_ready(
                            ReadyReply::BinaryError {
                                id,
                                message: e.message(),
                            },
                            &mut out,
                        ),
                    }
                }
                Ok(wire::Request::Batch { id, model, queries }) => {
                    core.requests.fetch_add(1, Ordering::Relaxed);
                    let ctx = ReplyCtx::Binary { id };
                    match route_batch(core, &mut pool, model.as_deref(), &queries) {
                        Ok(rankings) => encode_predict_reply(&ctx, &rankings, true, &mut out),
                        Err(e) => encode_ready(
                            ReadyReply::BinaryError {
                                id,
                                message: e.message(),
                            },
                            &mut out,
                        ),
                    }
                }
                Ok(wire::Request::Admin { json }) => {
                    handle_json(
                        core,
                        &mut pool,
                        &json,
                        |id| ReplyCtx::BinaryAdmin { id },
                        &mut out,
                    );
                }
            },
        }
        // Flush replies as on the server: coalesce only while more
        // pipelined requests are already buffered.
        if reader.buffer().is_empty() || out.len() >= 64 * 1024 {
            writer.write_all(&out)?;
            out.clear();
        }
        if core.is_draining() && reader.buffer().is_empty() {
            if !out.is_empty() {
                writer.write_all(&out)?;
            }
            return Ok(());
        }
    }
}

/// Minimal blocking HTTP/1.1 sideline for health checks and metrics —
/// deliberately tiny (request line + headers, no keep-alive): its only
/// clients are probes and `curl`.
fn serve_http_connection(core: &Core, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 16 * 1024 {
            return write_http(&mut stream, 431, "text/plain", "headers too large\n");
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    match (method, path) {
        ("GET", "/healthz") => {
            if core.is_draining() {
                write_http(&mut stream, 503, "text/plain", "draining\n")
            } else {
                write_http(&mut stream, 200, "text/plain", "ok\n")
            }
        }
        ("GET", "/metrics") => write_http(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &core.render_metrics(),
        ),
        ("GET", "/stats") => {
            let mut text = String::new();
            core.stats_json().write(&mut text);
            text.push('\n');
            write_http(&mut stream, 200, "application/json", &text)
        }
        ("POST", "/shutdown") => {
            core.begin_drain();
            write_http(
                &mut stream,
                200,
                "application/json",
                "{\"ok\":true,\"draining\":true}\n",
            )
        }
        (_, "/healthz" | "/metrics" | "/stats" | "/shutdown") => {
            write_http(&mut stream, 405, "text/plain", "method not allowed\n")
        }
        _ => write_http(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn write_http(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// The active health prober: pings every backend each interval over
/// short-deadline connections, driving the same health state passive
/// errors feed. A downed backend's recovery is noticed within one
/// interval of it coming back.
fn probe_loop(core: &Core) {
    let mut clients: Vec<Option<Client>> = (0..core.backends.len()).map(|_| None).collect();
    let config = ClientConfig::timeouts(
        WireFormat::Binary,
        core.config.request_timeout.min(Duration::from_millis(500)),
    );
    while !core.stop.load(Ordering::Acquire) {
        for (idx, backend) in core.backends.iter().enumerate() {
            if clients[idx].is_none() {
                clients[idx] = Client::connect_config(backend.addr.as_str(), &config).ok();
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
/// the handle stops the prober; listener threads run until the process
/// exits (like the server's accept loops).
pub struct RouterHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
}

impl Router {
    /// Bind `addr` (and optionally `http_addr`) and serve the routing
    /// tier over `config.backends`. Returns once the listeners are
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
        let core = Arc::new(Core {
            backends: config
                .backends
                .iter()
                .map(|addr| BackendState::new(addr.clone()))
                .collect(),
            config,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
        });
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let accept_core = core.clone();
        std::thread::Builder::new()
            .name("gps-route-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    let stream = match stream {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if accept_core.is_draining() {
                        accept_core.conns_rejected.fetch_add(1, Ordering::Relaxed);
                        continue; // dropping the stream closes it
                    }
                    accept_core.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    let conn_core = accept_core.clone();
                    std::thread::Builder::new()
                        .name("gps-route-conn".to_string())
                        .spawn(move || {
                            let _ = stream.set_nodelay(true);
                            let _ = serve_front_connection(&conn_core, stream);
                            conn_core.conns_closed.fetch_add(1, Ordering::Relaxed);
                        })
                        .expect("spawn router connection thread");
                }
            })
            .expect("spawn router accept thread");
        let http_bound = match http_addr {
            None => None,
            Some(http_addr) => {
                let http_listener = TcpListener::bind(http_addr)?;
                let bound = http_listener.local_addr()?;
                let http_core = core.clone();
                std::thread::Builder::new()
                    .name("gps-route-http".to_string())
                    .spawn(move || {
                        for stream in http_listener.incoming() {
                            let stream = match stream {
                                Ok(s) => s,
                                Err(_) => continue,
                            };
                            // HTTP stays reachable during drain: health
                            // checkers must see the 503 and operators
                            // the drain finishing in /metrics.
                            let conn_core = http_core.clone();
                            std::thread::Builder::new()
                                .name("gps-route-http-conn".to_string())
                                .spawn(move || {
                                    let _ = serve_http_connection(&conn_core, stream);
                                })
                                .expect("spawn router http thread");
                        }
                    })
                    .expect("spawn router http accept thread");
                Some(bound)
            }
        };
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
        self.core.begin_drain();
    }

    pub fn is_draining(&self) -> bool {
        self.core.is_draining()
    }

    /// Front connections currently open.
    pub fn active_conns(&self) -> u64 {
        self.core
            .conns_accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.core.conns_closed.load(Ordering::Relaxed))
    }

    /// Block until every front connection has closed (drain complete) or
    /// `timeout` passes; `true` when fully drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.active_conns() == 0 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.active_conns() == 0
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

    fn test_core(addrs: &[&str]) -> Core {
        Core {
            backends: addrs
                .iter()
                .map(|a| BackendState::new(a.to_string()))
                .collect(),
            config: RouterConfig {
                backends: addrs.iter().map(|a| a.to_string()).collect(),
                ..RouterConfig::default()
            },
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
        }
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
        let mut pool = BackendPool::new(2);
        let query = Query::new(Ip::from_octets(10, 0, 0, 1));
        match route_single(&core, &mut pool, None, &query) {
            Err(RouteError::Overloaded) => {}
            _ => panic!("expected overloaded"),
        }
        assert_eq!(core.shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_json_carries_loadgen_keys_and_router_section() {
        let core = test_core(&["x:1"]);
        core.requests.store(5, Ordering::Relaxed);
        core.conns_accepted.store(3, Ordering::Relaxed);
        core.conns_closed.store(1, Ordering::Relaxed);
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
}
