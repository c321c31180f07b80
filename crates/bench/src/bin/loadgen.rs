//! Synthetic query-traffic generator for the prediction-serving subsystem.
//!
//! Trains one or more models on quick universes, stands up a
//! [`PredictionServer`] (a model registry when `--models > 1`), replays
//! deterministic query traffic from client threads, and reports sustained
//! throughput plus p50/p99 latency. Transports:
//!
//! - `engine` (default): clients call the in-process server API — the
//!   kernel plus the server's registry and counters, no wire;
//! - `--tcp`: clients speak the length-prefixed JSON frame protocol to a
//!   loopback listener — measures the full wire stack on the event
//!   loops.
//!
//! **Connection-scaling mode** (`--connections N`): open N persistent
//! connections (implies `--tcp`) and spread the request load across all
//! of them round-robin — most connections are idle at any instant, which
//! is exactly the C10K shape an LZR-style scanning fan-in produces. The
//! run reports the server-side live-connection count alongside latency,
//! so "sustains N concurrent connections at p99 X" is measured, not
//! assumed. With `--connections 0` (default) each client thread keeps one
//! connection busy, as before.
//!
//! With `--addr HOST:PORT` the traffic targets an **external** `gps
//! serve` process instead (no training, no in-process server; queries
//! use arbitrary deterministic IPs and the default model). CI's smoke
//! job uses this to drive a thousand connections against a real
//! `gps serve` while hot-reloading it.
//!
//! With `--models N` (N > 1) each request targets one of N registered
//! models (round-robin-ish by rng), each trained on its own universe and
//! queried with traffic anchored in that universe — the mixed-model
//! pattern a one-server-many-universes deployment sees. Per-model request
//! counts are reported at the end.
//!
//! Usage: `cargo run --release -p gps-bench --bin loadgen -- [options]`
//!
//! ```text
//! --clients N      concurrent client threads        (default 8)
//! --requests N     total requests                   (default 400000)
//! --batch N        queries per batch request, 0=single (default 0)
//! --subnets N      distinct query /16s per model    (default 64)
//! --models N       registered models, mixed traffic (default 1)
//! --tcp            use the TCP transport
//! --wire W         TCP wire format: json | binary | both (default json;
//!                  non-json implies --tcp; `both` replays the identical
//!                  traffic once per format and prints them side by side)
//! --pipeline K     single-query mode: keep K requests in flight per
//!                  thread (default 1 = classic closed loop; implies
//!                  --tcp; capped at 128)
//! --connections N  open-loop mode: hold N connections, spread load (implies --tcp)
//! --addr A         target an external server instead of self-hosting
//! --seed N         universe seed (model i uses seed+i) (default 77)
//! --json-out PATH  write a machine-readable report (per-wave throughput,
//!                  client percentiles, and the server-side latency
//!                  histogram with p50/p90/p99/p999) — the BENCH_N.json
//!                  artifact format
//! ```
//!
//! Before each wave the server's traffic counters and histograms are
//! zeroed via the `reset-stats` admin command (in-process or over the
//! wire), so a `--wire both` report carries one clean per-format
//! server-side latency distribution per wave; model generations are
//! untouched.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gps_core::{censys_dataset, run_gps, GpsConfig, ModelSnapshot};
use gps_serve::{
    PredictionServer, Query, ServableModel, ServeConfig, TransportConfig, WireFormat,
    DEFAULT_MODEL_ID,
};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::json::Json;
use gps_types::rng::Rng;
use gps_types::{HistogramSnapshot, Ip, JsonCodec};

struct Options {
    clients: usize,
    requests: u64,
    batch: usize,
    subnets: usize,
    models: usize,
    tcp: bool,
    wire: String,
    pipeline: usize,
    connections: usize,
    addr: Option<String>,
    seed: u64,
    json_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            clients: 8,
            requests: 400_000,
            batch: 0,
            subnets: 64,
            models: 1,
            tcp: false,
            wire: "json".to_string(),
            pipeline: 1,
            connections: 0,
            addr: None,
            seed: 77,
            json_out: None,
        }
    }
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--clients" => options.clients = num(&value("--clients")?)?,
            "--requests" => options.requests = num(&value("--requests")?)?,
            "--batch" => options.batch = num(&value("--batch")?)?,
            "--subnets" => options.subnets = num(&value("--subnets")?)?,
            "--models" => options.models = num(&value("--models")?)?,
            "--tcp" => options.tcp = true,
            "--wire" => options.wire = value("--wire")?,
            "--pipeline" => options.pipeline = num(&value("--pipeline")?)?,
            "--connections" => options.connections = num(&value("--connections")?)?,
            "--addr" => options.addr = Some(value("--addr")?),
            "--seed" => options.seed = num(&value("--seed")?)?,
            "--json-out" => options.json_out = Some(value("--json-out")?),
            "--help" | "-h" => {
                println!("see the module docs in crates/bench/src/bin/loadgen.rs");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if options.clients == 0 || options.requests == 0 || options.models == 0 {
        return Err("--clients, --requests and --models must be positive".to_string());
    }
    if options.connections > 0 || options.addr.is_some() {
        options.tcp = true;
    }
    if !matches!(options.wire.as_str(), "json" | "binary" | "both") {
        return Err(format!(
            "--wire: unknown wire format {:?} (json|binary|both)",
            options.wire
        ));
    }
    if options.wire != "json" {
        // The wire format only exists on the TCP path.
        options.tcp = true;
    }
    if options.pipeline == 0 {
        return Err("--pipeline must be at least 1".to_string());
    }
    if options.pipeline > 1 {
        options.tcp = true; // pipelining is a wire-level behavior
        if options.batch > 1 {
            return Err("--pipeline applies to single-query traffic (--batch 0)".to_string());
        }
        if options.pipeline > 128 {
            // A deeper window only queues in socket buffers and, once
            // replies outgrow them, measures the server's write
            // backpressure instead of its throughput.
            return Err("--pipeline is capped at 128".to_string());
        }
    }
    if options.addr.is_some() && options.models > 1 {
        return Err("--addr targets an external server; --models must stay 1".to_string());
    }
    Ok(options)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

/// One trained model plus the query anchors of its universe.
struct TrainedModel {
    id: String,
    model: Option<ServableModel>,
    /// Real host IPs: cold queries against them hit trained priors. The
    /// query mix draws random low bits within each anchor's /16.
    host_ips: Vec<u32>,
}

/// One batch-unit of client traffic: which model, which queries. Single
/// mode uses units of one query. Cloned per wire-format wave so `--wire
/// both` replays byte-for-byte identical traffic on each format.
#[derive(Clone)]
struct TrafficUnit {
    model: usize,
    queries: Vec<Query>,
}

/// Deterministic query mix over `subnets` distinct /16s of one model's
/// universe: 80% cold queries, 20% warm (one open port of evidence).
fn make_unit(anchors: &[Ip], count: usize, rng: &mut Rng) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let anchor = *rng.choose(anchors);
            // Same /16, random low bits.
            let ip = Ip((anchor.0 & 0xFFFF_0000) | (rng.next_u32() & 0xFFFF));
            let mut query = Query::new(ip);
            if rng.chance(0.2) {
                query = query.with_open([[80u16, 443, 22][rng.gen_range(3) as usize]]);
            }
            query.top = 8;
            query
        })
        .collect()
}

struct ClientReport {
    completed: u64,
    latencies_ns: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64
}

/// Connect with retries: a burst of thousands of connects can outrun the
/// accept loop's backlog. A server that stays unreachable aborts the
/// whole process (exit 2) — a panicking pool-builder thread would
/// otherwise leave everyone else parked on the start barrier forever.
fn connect_patiently(addr: SocketAddr, wire: WireFormat) -> gps_serve::Client {
    let mut delay = Duration::from_millis(5);
    for attempt in 0..40 {
        match gps_serve::Client::connect_with(addr, wire) {
            Ok(client) => return client,
            Err(e) if attempt == 39 => {
                eprintln!("error: connect to {addr}: {e}");
                std::process::exit(2);
            }
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    unreachable!()
}

/// What one measured wave (one wire format over the full traffic set)
/// produced.
struct WaveResult {
    wire: WireFormat,
    total: u64,
    elapsed: Duration,
    /// Sorted request/batch latencies, nanoseconds.
    latencies_ns: Vec<u64>,
    /// The server-side latency histogram for this wave's wire (empty in
    /// pure engine mode, which never crosses the wire).
    server_hist: HistogramSnapshot,
}

impl WaveResult {
    fn throughput(&self) -> f64 {
        self.total as f64 / self.elapsed.as_secs_f64()
    }
}

/// The histogram cell label a wire format records under server-side.
fn hist_label(wire: WireFormat) -> &'static str {
    match wire {
        WireFormat::Json => "json",
        WireFormat::Binary => "gpsq",
    }
}

/// Merge every histogram cell of `wire` out of a remote server's `stats`
/// reply (the `"hists"` map, keyed `"<wire>/<endpoint>"`).
fn remote_hist(control: &mut gps_serve::Client, wire: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    if let Ok(stats) = control.stats() {
        if let Some(Json::Obj(cells)) = stats.get("hists") {
            for (key, value) in cells {
                let of_wire =
                    key.starts_with(wire) && key.as_bytes().get(wire.len()) == Some(&b'/');
                if !of_wire {
                    continue;
                }
                if let Ok(snap) = HistogramSnapshot::from_json(value) {
                    merged.merge(&snap);
                }
            }
        }
    }
    merged
}

fn main() {
    let options = match parse_options() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let external: Option<SocketAddr> = options.addr.as_ref().map(|addr| {
        addr.parse()
            .unwrap_or_else(|e| panic!("--addr {addr}: {e}"))
    });

    // Train one model per universe (model i gets seed+i); external mode
    // queries whatever the remote server serves instead.
    let mut trained: Vec<TrainedModel> = Vec::with_capacity(options.models);
    if external.is_none() {
        for i in 0..options.models as u64 {
            let seed = options.seed + i;
            println!("training model on quick universe (seed {seed})...");
            let net = Internet::generate(&UniverseConfig::tiny(seed));
            let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
            let config = GpsConfig {
                seed_fraction: 0.05,
                step_prefix: 16,
                ..GpsConfig::default()
            };
            let run = run_gps(&net, &dataset, &config);
            let snapshot = ModelSnapshot::from_run(&run, &config, seed);
            println!(
                "  {} model keys, {} rules, {} priors",
                snapshot.manifest.distinct_keys,
                snapshot.manifest.num_rules,
                snapshot.manifest.num_priors
            );
            trained.push(TrainedModel {
                id: if options.models == 1 {
                    DEFAULT_MODEL_ID.to_string()
                } else {
                    format!("seed{seed}")
                },
                model: Some(ServableModel::from_snapshot(snapshot)),
                host_ips: net.host_ips().to_vec(),
            });
        }
    } else {
        // Anchors are arbitrary deterministic /16s; the remote model
        // answers whatever it answers (throughput/latency still count).
        let mut rng = Rng::new(options.seed);
        trained.push(TrainedModel {
            id: DEFAULT_MODEL_ID.to_string(),
            model: None,
            host_ips: (0..4096).map(|_| rng.next_u32()).collect(),
        });
    }

    let server: Option<Arc<PredictionServer>> = if external.is_none() {
        Some(Arc::new(
            PredictionServer::start_named(
                trained
                    .iter_mut()
                    .map(|t| (t.id.clone(), t.model.take().expect("trained once")))
                    .collect(),
                ServeConfig::default(),
            )
            .expect("registry starts"),
        ))
    } else {
        None
    };
    let ids: Vec<String> = trained.iter().map(|t| t.id.clone()).collect();
    // Single-model runs stay on the id-less fast path (pre-registry
    // numbers stay comparable); mixed runs address models by id.
    let id_of = |model: usize| -> Option<&str> {
        if options.models > 1 {
            Some(ids[model].as_str())
        } else {
            None
        }
    };

    // TCP transport: a loopback listener (or the external server's
    // address).
    let tcp_addr: Option<SocketAddr> = match (&server, external) {
        (_, Some(addr)) => Some(addr),
        (Some(server), None) if options.tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            let server = server.clone();
            std::thread::spawn(move || {
                gps_serve::serve(server, listener, TransportConfig::default())
            });
            Some(addr)
        }
        _ => None,
    };

    // Pre-generate per-client traffic so generation cost stays outside the
    // timed section. Each unit is one request (or one batch frame) against
    // one model, anchored in that model's universe.
    let per_client = (options.requests / options.clients as u64) as usize;
    let unit_size = options.batch.max(1);
    let mut rng = Rng::new(options.seed ^ 0x10AD);
    let anchors: Vec<Vec<Ip>> = trained
        .iter()
        .map(|t| {
            (0..options.subnets.max(1))
                .map(|_| Ip(t.host_ips[rng.gen_range(t.host_ips.len() as u64) as usize]))
                .collect()
        })
        .collect();
    let traffic: Vec<Vec<TrafficUnit>> = (0..options.clients)
        .map(|_| {
            let mut units = Vec::new();
            let mut generated = 0usize;
            while generated < per_client {
                let model = rng.gen_range(options.models as u64) as usize;
                let count = unit_size.min(per_client - generated);
                units.push(TrafficUnit {
                    model,
                    queries: make_unit(&anchors[model], count, &mut rng),
                });
                generated += count;
            }
            units
        })
        .collect();

    // Connection-scaling mode: every thread owns its share of the N
    // persistent connections and rotates its requests across them, so
    // at any instant (N - clients) connections sit idle on the server —
    // the many-mostly-idle-peers shape.
    let conns_per_thread: usize = if options.connections > 0 {
        let per = options.connections.div_ceil(options.clients);
        per.max(1)
    } else {
        0
    };

    // The wire formats this invocation measures; `--wire both` replays
    // the identical traffic once per format against the same server, so
    // the two throughputs in one report are directly comparable.
    let wires: Vec<WireFormat> = match options.wire.as_str() {
        "json" => vec![WireFormat::Json],
        "binary" => vec![WireFormat::Binary],
        _ => vec![WireFormat::Json, WireFormat::Binary],
    };

    // One measured wave: the full traffic set over every client thread,
    // all connections speaking `wire`.
    let run_wave = |wire: WireFormat| -> (Vec<ClientReport>, Duration, u64, u64) {
        let live_conns = std::sync::atomic::AtomicU64::new(0);
        // Sampled while traffic flows: the server-side live-connection
        // count (reading it after the clients hang up would report zero).
        let peak_conns = std::sync::atomic::AtomicU64::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        // Every thread finishes building its connection pool before any
        // thread sends its first timed request: the full connection count
        // is concurrently live for the whole measured window, and pool
        // setup stays outside the clock.
        let start_line = std::sync::Barrier::new(options.clients + 1);
        let (reports, elapsed): (Vec<ClientReport>, Duration) = std::thread::scope(|scope| {
            if options.connections > 0 {
                let server = server.clone();
                let done = &done;
                let peak_conns = &peak_conns;
                scope.spawn(move || {
                    let mut control = external.map(|addr| connect_patiently(addr, wire));
                    while !done.load(std::sync::atomic::Ordering::Acquire) {
                        let active = match (&server, &mut control) {
                            (Some(server), _) => server.stats().conns_active,
                            (None, Some(control)) => control
                                .stats()
                                .ok()
                                .and_then(|s| s.get("conns_active").and_then(|j| j.as_u64()))
                                .unwrap_or(0),
                            (None, None) => 0,
                        };
                        peak_conns.fetch_max(active, std::sync::atomic::Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(25));
                    }
                });
            }
            let handles: Vec<_> = traffic
                .iter()
                .map(|units| {
                    let units = units.clone();
                    let server = server.clone();
                    let batched = options.batch > 1;
                    let id_of = &id_of;
                    let live_conns = &live_conns;
                    let start_line = &start_line;
                    scope.spawn(move || {
                        let mut latencies_ns = Vec::with_capacity(units.len());
                        let mut completed = 0u64;
                        // One connection per thread, or this thread's
                        // slice of the connection pool.
                        let mut pool: Vec<gps_serve::Client> = match (tcp_addr, conns_per_thread) {
                            (Some(addr), 0) => vec![connect_patiently(addr, wire)],
                            (Some(addr), n) => {
                                let mut pool = Vec::with_capacity(n);
                                for _ in 0..n {
                                    pool.push(connect_patiently(addr, wire));
                                    live_conns.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                                pool
                            }
                            (None, _) => Vec::new(),
                        };
                        let mut next_conn = 0usize;
                        start_line.wait();
                        // Pipelined single-query mode: keep `depth`
                        // requests in flight per thread (the protocol
                        // answers in request order per connection, so
                        // receive in send order). Consecutive sends
                        // coalesce in the client's write buffer — the
                        // per-request syscall+wakeup cost the closed
                        // loop pays disappears, leaving the wire codec
                        // as the measured cost.
                        let depth = options.pipeline;
                        if depth > 1 && !pool.is_empty() {
                            let mut inflight: std::collections::VecDeque<(u64, Instant, usize)> =
                                std::collections::VecDeque::with_capacity(depth);
                            let finish =
                                |inflight: &mut std::collections::VecDeque<(u64, Instant, usize)>,
                                 pool: &mut Vec<gps_serve::Client>| {
                                    let (rid, t0, conn) =
                                        inflight.pop_front().expect("inflight nonempty");
                                    pool[conn].predict_recv(rid).expect("pipelined reply");
                                    t0.elapsed().as_nanos() as u64
                                };
                            for unit in units {
                                let id = id_of(unit.model);
                                let turn = next_conn;
                                next_conn = (next_conn + 1) % pool.len();
                                let t0 = Instant::now();
                                let rid = pool[turn]
                                    .predict_send(id, &unit.queries[0])
                                    .expect("pipelined send");
                                inflight.push_back((rid, t0, turn));
                                if inflight.len() >= depth {
                                    latencies_ns.push(finish(&mut inflight, &mut pool));
                                    completed += 1;
                                }
                            }
                            while !inflight.is_empty() {
                                latencies_ns.push(finish(&mut inflight, &mut pool));
                                completed += 1;
                            }
                            return ClientReport {
                                completed,
                                latencies_ns,
                            };
                        }
                        for unit in units {
                            let id = id_of(unit.model);
                            let t0 = Instant::now();
                            let answered = if pool.is_empty() {
                                let server = server.as_ref().expect("in-process mode");
                                if batched {
                                    match id {
                                        None => server.predict_batch(unit.queries).len() as u64,
                                        Some(id) => server
                                            .predict_batch_for(id, unit.queries)
                                            .expect("batch model")
                                            .len()
                                            as u64,
                                    }
                                } else {
                                    let n = unit.queries.len() as u64;
                                    for query in unit.queries {
                                        match id {
                                            None => {
                                                server.predict(query);
                                            }
                                            Some(id) => {
                                                server
                                                    .predict_for(id, query)
                                                    .expect("predict model");
                                            }
                                        }
                                    }
                                    n
                                }
                            } else {
                                let turn = next_conn;
                                next_conn = (next_conn + 1) % pool.len();
                                let client = &mut pool[turn];
                                if batched {
                                    client
                                        .predict_batch_on(id, &unit.queries)
                                        .expect("batch reply")
                                        .len() as u64
                                } else {
                                    for query in &unit.queries {
                                        client.predict_on(id, query).expect("predict reply");
                                    }
                                    unit.queries.len() as u64
                                }
                            };
                            latencies_ns.push(t0.elapsed().as_nanos() as u64);
                            completed += answered;
                        }
                        ClientReport {
                            completed,
                            latencies_ns,
                        }
                    })
                })
                .collect();
            start_line.wait(); // every pool is connected; the clock starts
            let started = Instant::now();
            let reports: Vec<ClientReport> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            let elapsed = started.elapsed();
            done.store(true, std::sync::atomic::Ordering::Release);
            (reports, elapsed)
        });
        let live = live_conns.load(std::sync::atomic::Ordering::Relaxed);
        let peak = peak_conns.load(std::sync::atomic::Ordering::Relaxed);
        (reports, elapsed, live, peak)
    };

    let unit = if options.batch > 1 {
        "batch"
    } else {
        "request"
    };
    let mut waves: Vec<WaveResult> = Vec::new();
    for &wire in &wires {
        println!(
            "replaying {} requests over {} clients ({} model(s), batch={}, transport={}{}{})...",
            per_client * options.clients,
            options.clients,
            options.models,
            options.batch,
            match (options.tcp, external) {
                (_, Some(_)) => "external".to_string(),
                (true, None) => "tcp".to_string(),
                (false, None) => "engine".to_string(),
            },
            if options.tcp {
                format!(", wire={}", wire.name())
            } else {
                String::new()
            },
            if options.connections > 0 {
                format!(", {} connections", options.connections)
            } else {
                String::new()
            },
        );
        if options.pipeline > 1 {
            println!("  (pipeline depth {} per thread)", options.pipeline);
        }
        // Zero counters + histograms before the wave (generations
        // survive), so the server-side distribution read afterwards
        // covers exactly this wave's traffic.
        match (&server, external) {
            (Some(server), _) => server.reset_stats(),
            (None, Some(addr)) => {
                let mut control = connect_patiently(addr, wire);
                if let Err(e) = control.reset_stats() {
                    eprintln!("warning: reset-stats on {addr}: {e}");
                }
            }
            (None, None) => unreachable!("either in-process or external"),
        }
        let (reports, elapsed, live, peak) = run_wave(wire);
        let total: u64 = reports.iter().map(|r| r.completed).sum();
        let mut latencies_ns: Vec<u64> = reports.into_iter().flat_map(|r| r.latencies_ns).collect();
        latencies_ns.sort_unstable();
        println!("results ({}):", wire.name());
        println!("  predictions:  {total} in {:.3}s", elapsed.as_secs_f64());
        println!(
            "  throughput:   {:.0} predictions/sec",
            total as f64 / elapsed.as_secs_f64()
        );
        println!(
            "  latency/{unit}: p50 {:.1}us  p99 {:.1}us  max {:.1}us",
            percentile(&latencies_ns, 0.50) / 1000.0,
            percentile(&latencies_ns, 0.99) / 1000.0,
            latencies_ns.last().copied().unwrap_or(0) as f64 / 1000.0,
        );
        if options.connections > 0 {
            println!(
                "  connections:  {live} opened and held for the whole run ({peak} live server-side at peak)",
            );
        }
        let server_hist = match (&server, external) {
            (Some(server), _) => server.stats().merged_hist(Some(hist_label(wire)), None),
            (None, Some(addr)) => {
                let mut control = connect_patiently(addr, wire);
                remote_hist(&mut control, hist_label(wire))
            }
            (None, None) => unreachable!("either in-process or external"),
        };
        if !server_hist.is_empty() {
            println!(
                "  server hist:  p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  p999 {:.1}us ({} samples)",
                server_hist.percentile(0.50) as f64 / 1000.0,
                server_hist.percentile(0.90) as f64 / 1000.0,
                server_hist.percentile(0.99) as f64 / 1000.0,
                server_hist.percentile(0.999) as f64 / 1000.0,
                server_hist.count,
            );
        }
        waves.push(WaveResult {
            wire,
            total,
            elapsed,
            latencies_ns,
            server_hist,
        });
    }

    // `--wire both`: the side-by-side comparison the two waves exist for.
    if waves.len() > 1 {
        println!("wire comparison (identical traffic, same server):");
        println!(
            "  {:<8} {:>16} {:>12} {:>12}",
            "wire", "throughput", "p50", "p99"
        );
        for wave in &waves {
            println!(
                "  {:<8} {:>12.0}/sec {:>10.1}us {:>10.1}us",
                wave.wire.name(),
                wave.throughput(),
                percentile(&wave.latencies_ns, 0.50) / 1000.0,
                percentile(&wave.latencies_ns, 0.99) / 1000.0,
            );
        }
        let json = &waves[0];
        let binary = &waves[1];
        println!(
            "  binary is {:.2}x json throughput ({} frames)",
            binary.throughput() / json.throughput().max(1e-9),
            unit,
        );
    }
    match (&server, external) {
        (Some(server), _) => {
            let stats = server.stats();
            println!(
                "  server:       {} served, mean service {:.1}us",
                stats.requests, stats.mean_latency_us,
            );
            if options.tcp {
                println!(
                    "  conns:        accepted {}, closed {}, timed out {}, rejected {}",
                    stats.conns_accepted,
                    stats.conns_closed,
                    stats.conns_timed_out,
                    stats.conns_rejected,
                );
            }
            if options.models > 1 {
                for model in &stats.models {
                    println!("  model {:<12} {} requests", model.id, model.requests);
                }
            }
        }
        (None, Some(addr)) => {
            // External server: read its counters over the wire (the last
            // wave's format works for admin like any other).
            let mut control = connect_patiently(addr, wires[wires.len() - 1]);
            match control.stats() {
                Ok(stats) => {
                    let num = |k: &str| stats.get(k).and_then(|j| j.as_u64()).unwrap_or(0);
                    println!(
                        "  remote server: {} requests served, {} conns active (accepted {}, closed {}, rejected {})",
                        num("requests"),
                        num("conns_active"),
                        num("conns_accepted"),
                        num("conns_closed"),
                        num("conns_rejected"),
                    );
                }
                Err(e) => println!("  remote server: stats unavailable ({e})"),
            }
        }
        (None, None) => unreachable!("either in-process or external"),
    }

    if let Some(path) = &options.json_out {
        let mut report = Json::obj();
        report
            .set(
                "command",
                std::env::args().collect::<Vec<_>>().join(" ").as_str(),
            )
            .set("clients", options.clients)
            .set("requests", Json::Num(options.requests as f64))
            .set("batch", options.batch)
            .set("pipeline", options.pipeline)
            .set(
                "transport",
                match (options.tcp, external) {
                    (_, Some(_)) => "external",
                    (true, None) => "tcp",
                    (false, None) => "engine",
                },
            );
        let runs: Vec<Json> = waves
            .iter()
            .map(|wave| {
                let mut run = Json::obj();
                run.set("wire", wave.wire.name())
                    .set("predictions", Json::Num(wave.total as f64))
                    .set("elapsed_secs", Json::Num(wave.elapsed.as_secs_f64()))
                    .set("throughput_per_sec", Json::Num(wave.throughput()));
                let mut client = Json::obj();
                for (name, p) in [
                    ("p50_us", 0.50),
                    ("p90_us", 0.90),
                    ("p99_us", 0.99),
                    ("p999_us", 0.999),
                ] {
                    client.set(name, Json::Num(percentile(&wave.latencies_ns, p) / 1000.0));
                }
                run.set("client_latency", client);
                // The authoritative quantiles: the server's own histogram
                // (includes its p50/p90/p99/p999 via `to_json`).
                if !wave.server_hist.is_empty() {
                    run.set("server_hist", wave.server_hist.to_json());
                }
                run
            })
            .collect();
        report.set("runs", runs);
        let mut text = String::new();
        report.write(&mut text);
        text.push('\n');
        match std::fs::write(path, text) {
            Ok(()) => println!("  report:       written to {path}"),
            Err(e) => {
                eprintln!("error: --json-out {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}
