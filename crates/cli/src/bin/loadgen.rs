//! Query-traffic driver for a live `gps serve` or `gps route` process.
//!
//! Replays deterministic GPSQ predict traffic from client threads against
//! `--addr` and reports throughput plus p50/p99 latency. The benchmark
//! (`benchmark/`, `gpsbench`) owns every pinned number; this driver exists
//! for the shape it cannot make yet: many mostly idle connections against
//! an external process, the LZR-style fan-in a scanning fleet produces.
//!
//! **Connection-scaling mode** (`--connections N`): the client threads open
//! N persistent connections between them, hold them for the whole run, and
//! rotate their requests across them. A monitor connection samples the
//! server's live-connection count while traffic flows, so the report says
//! how many connections the server really held at once.
//!
//! Usage: `loadgen --addr HOST:PORT [options]`
//!
//! ```text
//! --addr A         the server or router to drive (required)
//! --clients N      concurrent client threads                    (default 8)
//! --requests N     total queries                                (default 400000)
//! --batch N        queries per batch frame, 0 = single queries  (default 0)
//! --pipeline K     single queries in flight per thread, max 128 (default 1)
//! --connections N  connections held across all threads, 0 = one per thread
//! ```
//!
//! Exit status: 0 when every query is answered, 1 when one fails, 2 for a
//! bad flag or a server that stays unreachable.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gps_serve::{Client, Query};
use gps_types::rng::Rng;
use gps_types::Ip;

/// Seeds the query mix: every run replays the same traffic.
const SEED: u64 = 77;

/// Distinct /16s the query mix draws from.
const SUBNETS: usize = 64;

struct Options {
    addr: SocketAddr,
    clients: usize,
    requests: u64,
    batch: usize,
    pipeline: usize,
    connections: usize,
}

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--clients N] [--requests N] \
                     [--batch N] [--pipeline K] [--connections N]";

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut addr = None;
    let mut options = Options {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        clients: 8,
        requests: 400_000,
        batch: 0,
        pipeline: 1,
        connections: 0,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--addr" => addr = Some(num(&flag, &value()?)?),
            "--clients" => options.clients = num(&flag, &value()?)?,
            "--requests" => options.requests = num(&flag, &value()?)?,
            "--batch" => options.batch = num(&flag, &value()?)?,
            "--pipeline" => options.pipeline = num(&flag, &value()?)?,
            "--connections" => options.connections = num(&flag, &value()?)?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    options.addr = addr.ok_or("--addr is required")?;
    if options.clients == 0 || options.requests == 0 {
        return Err("--clients and --requests must be positive".to_string());
    }
    if !(1..=128).contains(&options.pipeline) {
        // A deeper window only queues in socket buffers and, once replies
        // outgrow them, measures the server's write backpressure.
        return Err("--pipeline must be between 1 and 128".to_string());
    }
    if options.pipeline > 1 && options.batch > 1 {
        return Err("--pipeline applies to single queries (--batch 0)".to_string());
    }
    Ok(options)
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// `total` split into `parts` shares that differ by at most one and sum
/// to exactly `total`.
fn split(total: u64, parts: usize) -> Vec<u64> {
    let parts = parts as u64;
    (0..parts)
        .map(|i| total / parts + u64::from(i < total % parts))
        .collect()
}

/// Each client thread's `(queries, connections)`. Both columns sum
/// exactly to the flags; with fewer connections than clients, only that
/// many threads run, so none holds an empty pool.
fn shares(options: &Options) -> Vec<(u64, usize)> {
    let threads = match options.connections {
        0 => options.clients,
        n => options.clients.min(n),
    };
    let conns = split(options.connections as u64, threads);
    split(options.requests, threads)
        .into_iter()
        .zip(conns)
        .map(|(queries, conns)| (queries, conns as usize))
        .collect()
}

/// Deterministic query mix: a random host in one of the anchor /16s,
/// 80 % cold, 20 % warm with one open port of evidence.
fn make_queries(anchors: &[u32], count: u64, rng: &mut Rng) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let ip = Ip((*rng.choose(anchors) & 0xFFFF_0000) | (rng.next_u32() & 0xFFFF));
            let mut query = Query::new(ip);
            if rng.chance(0.2) {
                query = query.with_open([[80u16, 443, 22][rng.gen_range(3) as usize]]);
            }
            query.top = 8;
            query
        })
        .collect()
}

/// Connect with retries: a burst of thousands of connects can outrun the
/// accept loop's backlog. A server that stays unreachable ends the whole
/// process (exit 2); a failed thread would otherwise leave the others
/// parked on the start barrier forever.
fn connect_patiently(addr: SocketAddr) -> Client {
    let mut delay = Duration::from_millis(5);
    for _ in 0..39 {
        match Client::connect(addr) {
            Ok(client) => return client,
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: connect to {addr}: {e}");
        std::process::exit(2);
    })
}

/// One client thread's run: its queries, split into frames, round-robin
/// over its connections, with up to `pipeline` singles in flight.
/// Returns the predictions answered and one latency per frame, in
/// nanoseconds.
fn drive(
    pool: &mut [Client],
    queries: &[Query],
    options: &Options,
) -> std::io::Result<(u64, Vec<u64>)> {
    let mut latencies = Vec::with_capacity(queries.len());
    let conns = pool.len();
    let mut turn = 0;
    let mut next_conn = || {
        turn = (turn + 1) % conns;
        turn
    };
    if options.batch > 1 {
        let mut answered = 0;
        for frame in queries.chunks(options.batch) {
            let t0 = Instant::now();
            answered += pool[next_conn()].predict_batch(frame)?.len() as u64;
            latencies.push(t0.elapsed().as_nanos() as u64);
        }
        return Ok((answered, latencies));
    }
    // Replies come back in request order per connection, so the window
    // receives in send order.
    let mut inflight: VecDeque<(u64, Instant, usize)> = VecDeque::with_capacity(options.pipeline);
    for query in queries {
        let conn = next_conn();
        let t0 = Instant::now();
        inflight.push_back((pool[conn].predict_send(None, query)?, t0, conn));
        if inflight.len() == options.pipeline {
            let (id, t0, conn) = inflight.pop_front().expect("window is full");
            pool[conn].predict_recv(id)?;
            latencies.push(t0.elapsed().as_nanos() as u64);
        }
    }
    for (id, t0, conn) in inflight {
        pool[conn].predict_recv(id)?;
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    Ok((queries.len() as u64, latencies))
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n - 1) as f64 * p).round() as usize] as f64 / 1000.0,
    }
}

fn main() {
    let options = parse_options(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let shares = shares(&options);
    // Generated before the clock starts, so generation cost stays out of
    // the timed section.
    let mut rng = Rng::new(SEED);
    let anchors: Vec<u32> = (0..SUBNETS).map(|_| rng.next_u32()).collect();
    let traffic: Vec<Vec<Query>> = shares
        .iter()
        .map(|&(queries, _)| make_queries(&anchors, queries, &mut rng))
        .collect();

    println!(
        "replaying {} queries over {} clients (batch={}, wire=gpsq{})...",
        options.requests,
        shares.len(),
        options.batch,
        match options.connections {
            0 => String::new(),
            n => format!(", {n} connections"),
        },
    );
    if options.pipeline > 1 {
        println!("  (pipeline depth {} per thread)", options.pipeline);
    }

    let peak = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Every pool is connected before the first timed query: the full
    // connection count is live for the whole measured window.
    let start_line = Barrier::new(shares.len() + 1);
    let (results, elapsed) = std::thread::scope(|scope| {
        if options.connections > 0 {
            // Sampled while traffic flows: after the clients hang up the
            // server would report zero.
            scope.spawn(|| {
                let mut monitor = connect_patiently(options.addr);
                while !done.load(Ordering::Acquire) {
                    let active = monitor
                        .stats()
                        .ok()
                        .and_then(|s| s.get("conns_active").and_then(|j| j.as_u64()));
                    peak.fetch_max(active.unwrap_or(0), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(25));
                }
            });
        }
        let handles: Vec<_> = shares
            .iter()
            .zip(&traffic)
            .map(|(&(_, conns), queries)| {
                let (options, start_line) = (&options, &start_line);
                scope.spawn(move || {
                    let mut pool: Vec<Client> = (0..conns.max(1))
                        .map(|_| connect_patiently(options.addr))
                        .collect();
                    start_line.wait();
                    drive(&mut pool, queries, options).unwrap_or_else(|e| {
                        eprintln!("error: query failed: {e}");
                        std::process::exit(1);
                    })
                })
            })
            .collect();
        start_line.wait();
        let started = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let elapsed = started.elapsed();
        done.store(true, Ordering::Release);
        (results, elapsed)
    });

    let answered: u64 = results.iter().map(|r| r.0).sum();
    let mut latencies: Vec<u64> = results.into_iter().flat_map(|r| r.1).collect();
    latencies.sort_unstable();
    let secs = elapsed.as_secs_f64();
    println!("results:");
    println!("  predictions:  {answered} in {secs:.3}s");
    println!(
        "  throughput:   {:.0} predictions/sec",
        answered as f64 / secs
    );
    println!(
        "  latency/{}: p50 {:.1}us  p99 {:.1}us  max {:.1}us",
        ["request", "batch"][usize::from(options.batch > 1)],
        percentile_us(&latencies, 0.50),
        percentile_us(&latencies, 0.99),
        percentile_us(&latencies, 1.0),
    );
    if options.connections > 0 {
        // Every thread opened its whole share before the clock started,
        // or the process has exited 2.
        println!(
            "  connections:  {} opened and held for the whole run ({} live server-side at peak)",
            options.connections,
            peak.load(Ordering::Relaxed),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_exactly_to_the_flags() {
        for (flags, threads) in [
            ("--clients 8 --connections 1001 --requests 60000", 8),
            ("--clients 8 --connections 4 --requests 10", 4),
            ("--clients 4 --requests 10", 4),
            ("--clients 3 --connections 64 --requests 2", 3),
        ] {
            let args = format!("--addr 127.0.0.1:1 {flags}");
            let options = parse_options(args.split_whitespace().map(String::from)).unwrap();
            let shares = shares(&options);
            let (queries, conns): (Vec<u64>, Vec<usize>) = shares.into_iter().unzip();
            assert_eq!(queries.len(), threads, "{flags}");
            assert_eq!(queries.iter().sum::<u64>(), options.requests, "{flags}");
            assert_eq!(conns.iter().sum::<usize>(), options.connections, "{flags}");
            assert!(queries.iter().max().unwrap() - queries.iter().min().unwrap() <= 1);
            assert!(conns.iter().max().unwrap() - conns.iter().min().unwrap() <= 1);
        }
        assert_eq!(split(10, 4), [3, 3, 2, 2]);
        assert_eq!(split(4, 8), [1, 1, 1, 1, 0, 0, 0, 0]);
    }
}
