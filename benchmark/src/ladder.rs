//! The layer ladder of the `--trace 1` run: the same query stream climbs
//! from the compiled kernel to the routed stack, one rung per layer, each
//! rung a timed loop of calls into that layer's public functions.
//!
//! ```text
//! serve.artifact.predict_ns      ServableModel::predict_with, reused scratch
//! server rung                    PredictionServer::predict in process, or
//!                                predict_batch per prediction on a batch
//!                                workload: the call its TCP rung ends in
//! serve.net  (TCP rung)          one connection, shipping transport, GPSQ
//! routed                         the same connection through the router
//! ```
//!
//! A rung's self time is its ns per prediction minus the rung below, so
//! `artifact + server.hop + net.self + router.hop` telescopes to the top
//! rung. A self time can be negative: a pipelined connection overlaps
//! work that the in-process loop below it does one call at a time.

use std::sync::Arc;
use std::time::Instant;

use gps_serve::proto::{query_to_json, ranked_from_json, ranked_to_json, read_frame, write_frame};
use gps_serve::{
    PredictScratch, PredictionServer, ServeConfig, StatsSnapshot, TransportConfig, WireFormat,
};

use crate::report::Samples;
use crate::serving::{stream_units, warm_up_units, Mode, Stack, StackConfig, FRAME};
use crate::trace::Tracer;
use crate::world::{load_model, same_answer, Stream};

/// What a ladder climbs on: a workload's model, stream and frame shape.
pub struct LadderInput {
    pub bytes: Arc<Vec<u8>>,
    pub stream: Arc<Stream>,
    pub mode: Mode,
}

/// Queries replayed before a rung is timed: fills both cache layers with
/// whatever the stream lets them hold.
const RUNG_WARMUP: usize = 2_000;

/// One in-process rung: run `step` over the stream, from past the
/// warm-up queries, until `secs` have passed (the clock is read every 64
/// steps). `step` returns how many predictions it made; the rung is its
/// ns per prediction.
fn rung(
    name: &str,
    secs: f64,
    stream_len: usize,
    tracer: &mut Tracer,
    mut step: impl FnMut(usize) -> usize,
) -> f64 {
    let (predictions, elapsed_s) = tracer.timed_n(name, |_| {
        let start = Instant::now();
        let mut predictions = 0u64;
        let mut index = RUNG_WARMUP % stream_len;
        let mut steps = 0u64;
        loop {
            let made = step(index);
            predictions += made as u64;
            index += made;
            // Always leave room for one whole batch frame.
            if index + FRAME > stream_len {
                index = 0;
            }
            steps += 1;
            if steps.is_multiple_of(64) && start.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        (predictions, predictions)
    });
    elapsed_s * 1e9 / predictions.max(1) as f64
}

fn server_layers(stats: &StatsSnapshot, samples: &mut Samples) {
    let requests = stats.requests.max(1) as f64;
    let shard_hits = stats.cache_hits.saturating_sub(stats.l1_hits);
    samples.layer("serve.server.l1_hit_ratio", stats.l1_hits as f64 / requests);
    samples.layer("serve.server.shard_hit_ratio", shard_hits as f64 / requests);
    samples.layer(
        "serve.server.miss_ratio",
        stats.cache_misses as f64 / requests,
    );
    // Queries that got past the L1 per shard-worker wakeup.
    let reached_shards = stats.requests.saturating_sub(stats.l1_hits) as f64;
    samples.layer(
        "serve.server.jobs_per_wakeup",
        if stats.batches == 0 {
            0.0
        } else {
            reached_shards / stats.batches as f64
        },
    );
    let hist = stats.merged_hist(None, None);
    samples.layer(
        "serve.server.hist_p50_us",
        hist.percentile(0.50) as f64 / 1e3,
    );
    samples.layer(
        "serve.server.hist_p99_us",
        hist.percentile(0.99) as f64 / 1e3,
    );
}

/// One TCP rung: a fresh stack, one connection, warm, then `secs` of the
/// workload's own frame shape. Returns ns per prediction and the stack
/// (still up) for its counters.
fn tcp_rung(
    input: &LadderInput,
    config: &StackConfig,
    secs: f64,
    name: &str,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(f64, Stack), String> {
    let units = stream_units(&input.stream, input.mode);
    let warm_up = RUNG_WARMUP.max(FRAME);
    let skip = warm_up_units(input.mode, warm_up);
    let mut stack = Stack::start(&input.bytes, config, units, skip, tracer)?;
    let warm = stack.warm_up(&input.stream, input.mode, warm_up);
    stack.reset_stats();
    let (outcome, _) = tracer.timed_n(name, |_| {
        let outcome = stack.load(&input.stream, input.mode, secs, None);
        let completed = outcome.conns.completed;
        (outcome, completed)
    });
    warm.report_into(samples, &format!("ladder {name} warm-up"));
    outcome
        .conns
        .report_into(samples, &format!("ladder {name}"));
    let ns = outcome.elapsed_s * 1e9 / outcome.conns.completed.max(1) as f64;
    Ok((ns, stack))
}

/// Climb the ladder and record every serve.* per-layer metric.
pub fn climb(
    input: &LadderInput,
    rung_secs: f64,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Result<(), String> {
    let stream = &*input.stream;
    let len = stream.queries.len();
    let mut wrong = 0u64;
    let mut checked = 0u64;

    // Rung 0: the compiled kernel behind `ServableModel`.
    let (model, _, _) = load_model(&input.bytes, tracer)?;
    let mut scratch = PredictScratch::default();
    let artifact = rung("serve.artifact.predict", rung_secs, len, tracer, |i| {
        let ranked = model.predict_with(&mut scratch, &stream.queries[i]);
        checked += 1;
        wrong += u64::from(!same_answer(&ranked, &stream.expected[i]));
        1
    });

    // Rung 1: the in-process server API, single and batch.
    let server = PredictionServer::start(
        model,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    );
    for query in stream.queries.iter().take(RUNG_WARMUP) {
        server.predict(query.clone());
    }
    let in_process = rung("serve.server.predict", rung_secs, len, tracer, |i| {
        let ranked = server.predict(stream.queries[i].clone());
        checked += 1;
        wrong += u64::from(!same_answer(&ranked, &stream.expected[i]));
        1
    });
    let batch = rung("serve.server.predict_batch", rung_secs, len, tracer, |i| {
        let answers = server.predict_batch(stream.queries[i..i + FRAME].to_vec());
        checked += 1;
        wrong +=
            u64::from(answers.len() != FRAME || !same_answer(&answers[0], &stream.expected[i]));
        FRAME
    });
    server.shutdown();

    // The framed-JSON codec with no socket: a request and its reply
    // through the four public codec functions and a byte buffer.
    let mut frame = Vec::with_capacity(1024);
    let json_codec = rung("serve.proto.json_codec", rung_secs, len, tracer, |i| {
        let mut ok = true;
        frame.clear();
        ok &= write_frame(&mut frame, &query_to_json(&stream.queries[i])).is_ok();
        ok &= matches!(read_frame(&mut frame.as_slice()), Ok(Some(_)));
        frame.clear();
        ok &= write_frame(&mut frame, &ranked_to_json(&stream.expected[i])).is_ok();
        let back = read_frame(&mut frame.as_slice())
            .ok()
            .flatten()
            .and_then(|json| ranked_from_json(&json).ok());
        checked += 1;
        wrong += u64::from(!ok || !back.is_some_and(|b| same_answer(&b, &stream.expected[i])));
        1
    });

    samples.attempted += checked;
    if wrong > 0 {
        samples.failed += wrong;
        samples.faults.push(format!(
            "ladder: {wrong} in-process answers differ from the oracle"
        ));
    }
    samples.layer("serve.artifact.predict_ns", artifact);
    samples.layer("serve.server.predict_ns", in_process);
    samples.layer("serve.server.batch_ns_per_pred", batch);
    // The rung a workload's frames end in: a batch workload's TCP rung
    // sits on `predict_batch`, not on 256 single calls.
    let server_rung = match input.mode {
        Mode::Single => in_process,
        Mode::Batch => batch,
    };
    samples.layer("serve.server.hop_ns", server_rung - artifact);
    samples.layer("serve.proto.json_codec_ns", json_codec);

    // The TCP rung proper: the shipping defaults, one connection.
    let shipping = StackConfig::shipping(1, false);
    let (direct_ns, stack) = tcp_rung(input, &shipping, rung_secs, "serve.net", tracer, samples)?;
    server_layers(&stack.servers[0].stats(), samples);
    stack.stop();
    samples.layer("serve.net.self_ns", direct_ns - server_rung);

    // Every transport × wire on the same traffic. A transport name that
    // no longer parses reads 0 here instead of failing the run.
    for (transport, wire, wire_name, metric) in [
        (
            "threads",
            WireFormat::Binary,
            "gpsq",
            "serve.net.threads.gpsq.ns_per_pred",
        ),
        (
            "threads",
            WireFormat::Json,
            "json",
            "serve.net.threads.json.ns_per_pred",
        ),
        (
            "events",
            WireFormat::Binary,
            "gpsq",
            "serve.net.events.gpsq.ns_per_pred",
        ),
        (
            "events",
            WireFormat::Json,
            "json",
            "serve.net.events.json.ns_per_pred",
        ),
    ] {
        let Ok(config) = TransportConfig::named(transport) else {
            eprintln!("ladder: transport {transport:?} no longer exists; {metric} reads 0");
            samples.layer(metric, 0.0);
            continue;
        };
        let config = StackConfig {
            transport: config,
            wire,
            ..shipping.clone()
        };
        let name = format!("serve.net.{transport}.{wire_name}");
        let (ns, stack) = tcp_rung(input, &config, rung_secs, &name, tracer, samples)?;
        stack.stop();
        samples.layer(metric, ns);
    }

    // Top rung: the same single connection through the router.
    let routed = StackConfig {
        routed: true,
        ..shipping
    };
    let (routed_ns, stack) = tcp_rung(input, &routed, rung_secs, "serve.router", tracer, samples)?;
    let router = stack.router.as_ref().expect("routed stack has a router");
    samples.layer("serve.router.hop_us", (routed_ns - direct_ns) / 1e3);
    samples.layer("serve.router.retries", router.retries_total() as f64);
    samples.layer("serve.router.shed", router.shed_total() as f64);
    // Busiest backend's share of forwarded queries over the fair share.
    let forwarded: Vec<f64> = stack
        .servers
        .iter()
        .map(|server| server.stats().requests as f64)
        .collect();
    let total: f64 = forwarded.iter().sum();
    samples.layer(
        "serve.router.forwarded_skew",
        if total == 0.0 {
            0.0
        } else {
            forwarded.iter().copied().fold(0.0, f64::max) * forwarded.len() as f64 / total
        },
    );
    stack.stop();
    Ok(())
}
