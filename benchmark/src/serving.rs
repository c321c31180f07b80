//! The serving stack under load: GPSB bytes → model → `PredictionServer`
//! → loopback listener (→ router), closed-loop clients, and the oracle
//! check on what comes back.
//!
//! Everything is started with the shipping defaults (`ServeConfig` with
//! two shards, `TransportConfig::default()`, `RouterConfig::default()`),
//! so flipping a default in `crates/serve` is a measured change here.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gps_serve::{
    Client, PredictionServer, Router, RouterConfig, RouterHandle, ServeConfig, TransportConfig,
    WireFormat,
};

use crate::proc::{self, Diagnostics};
use crate::report::Samples;
use crate::stats::{median, percentile_sorted};
use crate::trace::{RequestTimes, Tracer};
use crate::world::{load_model, same_answer, Shape, Stream};

/// Requests each connection keeps in flight in single-query mode: the
/// server's own per-connection pipeline window.
pub const WINDOW: usize = 128;
/// Queries per `predict_batch` frame in batch mode.
pub const FRAME: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One query per frame, [`WINDOW`] frames in flight per connection.
    Single,
    /// [`FRAME`] queries per frame, one frame in flight per connection.
    Batch,
}

impl Mode {
    fn unit(self) -> usize {
        match self {
            Mode::Single => 1,
            Mode::Batch => FRAME,
        }
    }
}

/// What distinguishes the four serving workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    pub name: &'static str,
    pub shape: Shape,
    pub mode: Mode,
    /// Client threads = connections, before the cap at `nproc`.
    pub conns: usize,
    /// Through `Router::start` over two backends instead of direct.
    pub routed: bool,
}

pub const SERVING: [ServingSpec; 4] = [
    ServingSpec {
        name: "serve_hot",
        shape: Shape::Hot,
        mode: Mode::Single,
        conns: 2,
        routed: false,
    },
    ServingSpec {
        name: "serve_wide",
        shape: Shape::Wide,
        mode: Mode::Single,
        conns: 2,
        routed: false,
    },
    ServingSpec {
        name: "serve_batch",
        shape: Shape::Wide,
        mode: Mode::Batch,
        conns: 2,
        routed: false,
    },
    // One connection: the router's front is serial per connection, and
    // two connections measured bimodal between runs of one commit.
    ServingSpec {
        name: "routed",
        shape: Shape::Hot,
        mode: Mode::Single,
        conns: 1,
        routed: true,
    },
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a stack is put together; the workloads use [`StackConfig::shipping`]
/// and the ladder also varies transport and wire.
#[derive(Debug, Clone)]
pub struct StackConfig {
    pub transport: TransportConfig,
    pub wire: WireFormat,
    pub conns: usize,
    pub routed: bool,
}

impl StackConfig {
    /// The shipping transport and the GPSQ wire.
    pub fn shipping(conns: usize, routed: bool) -> StackConfig {
        StackConfig {
            transport: TransportConfig::default(),
            wire: WireFormat::Binary,
            conns,
            routed,
        }
    }
}

/// Which stream units a connection sends next: connection `i` of `n`
/// takes units `i, i+n, …` and wraps, so connections never share a query
/// and a stream replays identically for a seed.
#[derive(Debug, Clone)]
struct Cursor {
    next: usize,
    stride: usize,
    units: usize,
}

impl Cursor {
    fn advance(&mut self) -> usize {
        let unit = self.next;
        self.next += self.stride;
        if self.next >= self.units {
            self.next %= self.stride;
        }
        unit
    }
}

/// A running serving stack with its client connections.
pub struct Stack {
    pub servers: Vec<Arc<PredictionServer>>,
    /// What loading the model cost each backend: GPSB bytes to a
    /// query-ready model, in ms.
    pub load_ms: Vec<f64>,
    backends: Vec<SocketAddr>,
    pub router: Option<RouterHandle>,
    clients: Vec<Client>,
    cursors: Vec<Cursor>,
}

fn start_backend(
    bytes: &[u8],
    transport: &TransportConfig,
    tracer: &mut Tracer,
) -> Result<(Arc<PredictionServer>, SocketAddr, f64), String> {
    let (model, decode_s, from_snapshot_s) = load_model(bytes, tracer)?;
    let load_ms = (decode_s + from_snapshot_s) * 1e3;
    let (started, _) = tracer.timed("serve.server.start", |_| {
        let server = Arc::new(PredictionServer::start(
            model,
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let serving = server.clone();
        let config = transport.clone();
        // `serve` blocks in accept for the life of the process; the
        // thread is parked there once the stack is stopped.
        std::thread::Builder::new()
            .name("gpsbench-serve".to_string())
            .spawn(move || {
                let _ = gps_serve::serve(serving, listener, config);
            })
            .map_err(|e| format!("spawn serve thread: {e}"))?;
        Ok::<_, String>((server, addr, load_ms))
    });
    started
}

fn connect(addr: SocketAddr, wire: WireFormat) -> Result<Client, String> {
    let mut last = String::new();
    for _ in 0..50 {
        match Client::connect_with(addr, wire) {
            Ok(client) => return Ok(client),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(format!("connect to {addr}: {last}"))
}

impl Stack {
    /// Bytes to a listening stack with its connections open. The
    /// connections' cursors start `skip_units` into the stream: past what
    /// the warm-up pass replays, so that timed traffic meets the caches
    /// as steady-state traffic would, not as a repeat of the warm-up.
    pub fn start(
        bytes: &[u8],
        config: &StackConfig,
        stream_units: usize,
        skip_units: usize,
        tracer: &mut Tracer,
    ) -> Result<Stack, String> {
        let mut servers = Vec::new();
        let mut backends = Vec::new();
        let mut load_ms = Vec::new();
        for _ in 0..if config.routed { 2 } else { 1 } {
            let (server, addr, ms) = start_backend(bytes, &config.transport, tracer)?;
            servers.push(server);
            backends.push(addr);
            load_ms.push(ms);
        }
        let (router, addr) = if config.routed {
            let (router, _) = tracer.timed("serve.router.start", |_| {
                Router::start(
                    "127.0.0.1:0",
                    None,
                    RouterConfig {
                        backends: backends.iter().map(SocketAddr::to_string).collect(),
                        ..RouterConfig::default()
                    },
                )
            });
            let router = router.map_err(|e| format!("router start: {e}"))?;
            let addr = router.addr();
            (Some(router), addr)
        } else {
            (None, backends[0])
        };
        let mut stack = Stack {
            servers,
            load_ms,
            backends,
            router,
            clients: Vec::new(),
            cursors: Vec::new(),
        };
        for conn in 0..config.conns {
            stack.clients.push(connect(addr, config.wire)?);
            let skip = skip_units.next_multiple_of(config.conns) % stream_units.max(1);
            stack.cursors.push(Cursor {
                next: skip + conn,
                stride: config.conns,
                units: stream_units,
            });
        }
        Ok(stack)
    }

    /// Close the connections and drain the servers: connection threads
    /// end, shard workers and accept threads park.
    pub fn stop(mut self) {
        self.clients.clear();
        if let Some(router) = &self.router {
            router.begin_drain();
        }
        for &backend in &self.backends {
            if let Ok(mut admin) = Client::connect_with(backend, WireFormat::Binary) {
                let _ = admin.shutdown();
            }
        }
    }

    pub fn reset_stats(&self) {
        for server in &self.servers {
            server.reset_stats();
        }
    }

    /// Replay the first `count` queries on the first connection with
    /// every reply checked against the oracle.
    pub fn warm_up(&mut self, stream: &Stream, mode: Mode, count: usize) -> ConnOutcome {
        let units = warm_up_units(mode, count);
        let mut cursor = Cursor {
            next: 0,
            stride: 1,
            units,
        };
        let job = Job {
            stream,
            mode,
            stop: Stop::Units(units),
            trace_epoch: None,
        };
        drive(&mut self.clients[0], &mut cursor, &job)
    }

    /// Drive every connection for `secs` seconds from its cursor.
    pub fn load(
        &mut self,
        stream: &Stream,
        mode: Mode,
        secs: f64,
        trace_epoch: Option<Instant>,
    ) -> SegmentOutcome {
        let cpu_before = proc::cpu_seconds();
        let ctx_before = proc::voluntary_ctx_switches();
        let started = Instant::now();
        let job = Job {
            stream,
            mode,
            stop: Stop::At(started + Duration::from_secs_f64(secs)),
            trace_epoch,
        };
        let conns: Vec<ConnOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.cursors.iter_mut())
                .map(|(client, cursor)| {
                    let job = &job;
                    scope.spawn(move || drive(client, cursor, job))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_s = started.elapsed().as_secs_f64();
        let cpu_s = proc::cpu_seconds() - cpu_before;
        let ctx = proc::voluntary_ctx_switches().saturating_sub(ctx_before);
        let mut total = ConnOutcome::default();
        for conn in conns {
            total.absorb(conn);
        }
        SegmentOutcome {
            conns: total,
            elapsed_s,
            cpu_s,
            ctx,
        }
    }
}

enum Stop {
    At(Instant),
    Units(usize),
}

struct Job<'a> {
    stream: &'a Stream,
    mode: Mode,
    stop: Stop,
    /// When set, every request is stamped against this instant.
    trace_epoch: Option<Instant>,
}

/// What one connection did in one drive.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub first_fault: Option<String>,
    pub times: Vec<RequestTimes>,
}

impl ConnOutcome {
    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.first_fault.get_or_insert(why);
    }

    fn absorb(&mut self, other: ConnOutcome) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        if self.first_fault.is_none() {
            self.first_fault = other.first_fault;
        }
        self.times.extend(other.times);
    }

    /// Add what this drive attempted and failed to a workload's counts.
    pub fn report_into(&self, samples: &mut Samples, who: &str) {
        samples.attempted += self.attempted;
        match &self.first_fault {
            Some(fault) => samples.record(self.failed, format!("{who}: {fault}")),
            None => debug_assert_eq!(self.failed, 0),
        }
    }

    /// Compare the reply to query `index` with the oracle, bit for bit.
    fn check(&mut self, job: &Job, index: usize, got: &gps_serve::Ranked) {
        let want = &job.stream.expected[index];
        if same_answer(got, want) {
            self.completed += 1;
        } else {
            self.fail(
                1,
                format!(
                    "wrong answer for query {index} ({:?}): got {got:?}, want {want:?}",
                    job.stream.queries[index]
                ),
            );
        }
    }
}

pub struct SegmentOutcome {
    pub conns: ConnOutcome,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub ctx: u64,
}

fn drive(client: &mut Client, cursor: &mut Cursor, job: &Job) -> ConnOutcome {
    match job.mode {
        Mode::Single => drive_single(client, cursor, job),
        Mode::Batch => drive_batch(client, cursor, job),
    }
}

fn stamp(epoch: Option<Instant>) -> u64 {
    epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// Sliding window: send until [`WINDOW`] requests are in flight, then one
/// receive per send; replies come back in request order.
fn drive_single(client: &mut Client, cursor: &mut Cursor, job: &Job) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut inflight: VecDeque<(u64, usize, RequestTimes)> = VecDeque::with_capacity(WINDOW);
    let mut sent = 0usize;
    let epoch = job.trace_epoch;
    let receive = |out: &mut ConnOutcome,
                   inflight: &mut VecDeque<(u64, usize, RequestTimes)>,
                   client: &mut Client|
     -> bool {
        let (id, index, mut times) = inflight.pop_front().expect("a request is in flight");
        times.recv_start = stamp(epoch);
        match client.predict_recv(id) {
            Ok(ranked) => {
                times.recv_end = stamp(epoch);
                out.check(job, index, &ranked);
                if epoch.is_some() {
                    out.times.push(times);
                }
                true
            }
            Err(e) => {
                out.fail(1 + inflight.len() as u64, format!("receive failed: {e}"));
                false
            }
        }
    };
    loop {
        let done = match job.stop {
            Stop::Units(units) => sent >= units,
            // The clock is read once per 16 sends; a segment overshoots
            // by microseconds and is timed to its real end anyway.
            Stop::At(deadline) => sent.is_multiple_of(16) && Instant::now() >= deadline,
        };
        if done {
            break;
        }
        let index = cursor.advance();
        let mut times = RequestTimes {
            send_start: stamp(epoch),
            ..RequestTimes::default()
        };
        out.attempted += 1;
        match client.predict_send(None, &job.stream.queries[index]) {
            Ok(id) => {
                times.send_end = stamp(epoch);
                inflight.push_back((id, index, times));
                sent += 1;
            }
            Err(e) => {
                out.fail(1 + inflight.len() as u64, format!("send failed: {e}"));
                return out;
            }
        }
        if inflight.len() >= WINDOW && !receive(&mut out, &mut inflight, client) {
            return out;
        }
    }
    while !inflight.is_empty() {
        if !receive(&mut out, &mut inflight, client) {
            break;
        }
    }
    out
}

/// One [`FRAME`]-query frame in flight: send, wait, check, repeat.
fn drive_batch(client: &mut Client, cursor: &mut Cursor, job: &Job) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut sent = 0usize;
    loop {
        let done = match job.stop {
            Stop::Units(units) => sent >= units,
            Stop::At(deadline) => Instant::now() >= deadline,
        };
        if done {
            break;
        }
        let first = cursor.advance() * FRAME;
        let queries = &job.stream.queries[first..first + FRAME];
        let start = stamp(job.trace_epoch);
        out.attempted += FRAME as u64;
        sent += 1;
        match client.predict_batch(queries) {
            Ok(rankings) if rankings.len() == FRAME => {
                for (offset, ranked) in rankings.iter().enumerate() {
                    out.check(job, first + offset, ranked);
                }
                if job.trace_epoch.is_some() {
                    out.times.push(RequestTimes {
                        send_start: start,
                        send_end: start,
                        recv_start: start,
                        recv_end: stamp(job.trace_epoch),
                    });
                }
            }
            Ok(rankings) => out.fail(
                FRAME as u64,
                format!(
                    "batch reply holds {} rankings, want {FRAME}",
                    rankings.len()
                ),
            ),
            Err(e) => {
                out.fail(FRAME as u64, format!("batch failed: {e}"));
                break;
            }
        }
    }
    out
}

/// Units (queries or frames) a warm-up pass of `count` queries replays.
pub fn warm_up_units(mode: Mode, count: usize) -> usize {
    (count / mode.unit()).max(1)
}

/// Whole units of `mode` a stream holds (a trailing partial frame is
/// never sent).
pub fn stream_units(stream: &Stream, mode: Mode) -> usize {
    stream.queries.len() / mode.unit()
}

/// One serving workload: its stack, its stream, and what it measured.
pub struct Serving {
    pub spec: ServingSpec,
    bytes: Arc<Vec<u8>>,
    stream: Arc<Stream>,
    warmup_len: usize,
    segments_per_setup: usize,
    stack: Option<Stack>,
    /// Per segment; the speed is `qps`.
    diagnostics: Diagnostics,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    traced_requests: u64,
    next_request_id: u64,
    pub samples: Samples,
}

impl Serving {
    pub fn new(
        spec: ServingSpec,
        bytes: Arc<Vec<u8>>,
        stream: Arc<Stream>,
        warmup_len: usize,
        segments_per_setup: usize,
    ) -> Serving {
        Serving {
            spec,
            bytes,
            stream,
            warmup_len,
            segments_per_setup: segments_per_setup.max(1),
            stack: None,
            diagnostics: Diagnostics::default(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            traced_requests: 0,
            next_request_id: 0,
            samples: Samples::default(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// `setup_s`: GPSB bytes → server listening → connections open →
    /// warm-up pass answered and verified. Replaces the running stack.
    fn set_up(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        if let Some(old) = self.stack.take() {
            old.stop();
        }
        let conns = self.spec.conns.min(nproc()).max(1);
        let config = StackConfig::shipping(conns, self.spec.routed);
        let units = stream_units(&self.stream, self.spec.mode);
        let (built, secs) = tracer.timed("serving.setup", |t| {
            let skip = warm_up_units(self.spec.mode, self.warmup_len);
            let mut stack = Stack::start(&self.bytes, &config, units, skip, t)?;
            let (warm, _) = t.timed("serving.warm_up", |_| {
                stack.warm_up(&self.stream, self.spec.mode, self.warmup_len)
            });
            Ok::<_, String>((stack, warm))
        });
        let (stack, warm) = built?;
        warm.report_into(&mut self.samples, self.spec.name);
        // A serving workload times no snapshot load of its own: these are
        // the loads its set-ups make anyway.
        for &ms in &stack.load_ms {
            self.samples.push("snapshot_load_ms", ms);
        }
        self.stack = Some(stack);
        self.samples.push("setup_s", secs);
        Ok(())
    }

    /// One timed segment of closed-loop load. Every
    /// `segments_per_setup`-th segment starts on a stack set up afresh:
    /// that is where the `setup_s` samples come from, and it spreads a
    /// run's segments over several placements of the server's threads,
    /// which on a two-core host differ by more than 10 % in throughput.
    pub fn segment(&mut self, secs: f64, traced: bool, tracer: &mut Tracer) -> Result<(), String> {
        if self
            .samples
            .segments
            .is_multiple_of(self.segments_per_setup)
        {
            self.set_up(tracer)?;
        }
        let epoch = traced.then(|| tracer.epoch());
        let stack = self.stack.as_mut().expect("setup ran");
        let (outcome, _) = tracer.timed("serving.segment", |t| {
            let outcome = stack.load(&self.stream, self.spec.mode, secs, epoch);
            // A sample of this segment's requests goes to the trace file;
            // the percentiles below use every one of them.
            for times in outcome.conns.times.iter().take(2_000) {
                t.request(self.next_request_id, times);
                self.next_request_id += 1;
            }
            outcome
        });
        outcome.conns.report_into(&mut self.samples, self.spec.name);
        self.samples.segments += 1;
        let completed = outcome.conns.completed.max(1) as f64;
        let qps = outcome.conns.completed as f64 / outcome.elapsed_s;
        self.samples.push("qps", qps);
        self.samples
            .push("cpu_us_per_pred", outcome.cpu_s * 1e6 / completed);
        self.diagnostics.segment(
            qps,
            traced,
            outcome.cpu_s / outcome.elapsed_s,
            outcome.ctx as f64 / completed,
        );
        if traced && !outcome.conns.times.is_empty() {
            let mut latencies: Vec<u64> = outcome
                .conns
                .times
                .iter()
                .map(RequestTimes::latency_ns)
                .collect();
            latencies.sort_unstable();
            self.p50_us
                .push(percentile_sorted(&latencies, 0.50) as f64 / 1e3);
            self.p99_us
                .push(percentile_sorted(&latencies, 0.99) as f64 / 1e3);
            self.traced_requests += latencies.len() as u64;
        }
        Ok(())
    }

    /// The diagnostics of the traced pass.
    pub fn finish_layers(&mut self) {
        self.diagnostics.layers(&mut self.samples);
        let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        self.samples.layer("client.p50_us", or_zero(&self.p50_us));
        self.samples.layer("client.p99_us", or_zero(&self.p99_us));
        self.samples
            .layer("client.samples", self.traced_requests as f64);
    }

    pub fn stop(&mut self) {
        if let Some(stack) = self.stack.take() {
            stack.stop();
        }
    }

    pub fn ladder_input(&self) -> crate::ladder::LadderInput {
        crate::ladder::LadderInput {
            bytes: self.bytes.clone(),
            stream: self.stream.clone(),
            mode: self.spec.mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_partition_the_stream_and_wrap() {
        let mut a = Cursor {
            next: 0,
            stride: 2,
            units: 5,
        };
        let mut b = Cursor {
            next: 1,
            stride: 2,
            units: 5,
        };
        let take = |c: &mut Cursor| (0..6).map(|_| c.advance()).collect::<Vec<_>>();
        assert_eq!(take(&mut a), [0, 2, 4, 0, 2, 4]);
        assert_eq!(take(&mut b), [1, 3, 1, 3, 1, 3]);
        let mut solo = Cursor {
            next: 0,
            stride: 1,
            units: 3,
        };
        assert_eq!(take(&mut solo), [0, 1, 2, 0, 1, 2]);
    }
}
