//! The runner: shared inputs once, every selected workload set up, then
//! interleaved rounds of one segment per workload, then (traced pass)
//! the per-layer numbers and the ladder.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gps_synthnet::Internet;

use crate::ladder;
use crate::offline::{self, Offline};
use crate::report::{self, RunInfo, Samples};
use crate::serving::{self, Serving, ServingSpec};
use crate::stats::{quartiles, spread};
use crate::trace::Tracer;
use crate::world::{self, DatasetKind, Quality, Scale, Shape, Stream};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    All,
    One(&'static str),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub selection: Selection,
    pub seed: u64,
    /// Timed seconds per workload and pass.
    pub seconds: f64,
    /// `None`: both passes (only with [`Selection::All`]); a gated run
    /// of one workload defaults to the untraced pass.
    pub trace: Option<bool>,
    pub out_dir: PathBuf,
    pub corrupt_expected: bool,
    pub scale: Scale,
    /// Segments per workload and pass; never fewer, whatever `seconds`.
    pub segments: usize,
    /// Times a set-up is repeated for the `setup_s` median. Five: three
    /// set-ups of 30-60 ms (serve_hot, serve_batch) differ by a factor of
    /// two within a run, and their median moved with them.
    pub setup_reps: usize,
    /// Seconds per ladder rung.
    pub rung_secs: f64,
}

impl Options {
    pub fn new(seed: u64) -> Options {
        Options {
            selection: Selection::All,
            seed,
            seconds: 10.0,
            trace: None,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            corrupt_expected: false,
            scale: Scale::full(),
            segments: 10,
            setup_reps: 5,
            rung_secs: 0.5,
        }
    }
}

/// What every serving workload shares: the model trained once, as GPSB
/// bytes, the two streams with their oracle, and the numbers training
/// itself produced.
struct Trained {
    bytes: Arc<Vec<u8>>,
    hot: Arc<Stream>,
    wide: Arc<Stream>,
    base: Samples,
}

fn train(
    net: &Internet,
    generate_s: &[f64],
    options: &Options,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Trained, String> {
    let scale = &options.scale;
    let config = world::gps_config(scale);
    let mut base = Samples::default();
    let (dataset, dataset_s) = tracer.timed("core.dataset.build", |_| {
        world::build_dataset(DatasetKind::Censys, net, scale)
    });
    base.layer("synthnet.generate_s", crate::stats::median(generate_s));
    base.layer("core.dataset.build_s", dataset_s);

    let pipeline = world::timed_pipeline(net, &dataset, &config, tracer);
    base.attempted += 1;
    let outside = world::found_outside_test(&pipeline.run, &dataset);
    if outside > 0 {
        base.fault(format!(
            "training: {outside} found services are not in the test side"
        ));
    }
    let trip = world::snapshot_trip(&pipeline.run, &config, tracer)?;
    // The gate wants every metric from every workload. A serving workload
    // measures no pipeline, so it passes on what its one training run
    // gave: the offline workloads are where these are sampled.
    base.push("pipeline_s", pipeline.wall_s);
    offline::push_quality(&mut base, &Quality::of(&pipeline.run), trip.bytes.len());
    base.push("snapshot_load_ms", trip.load_ms());
    if traced {
        offline::pipeline_layers(&pipeline.run, pipeline.wall_s, tracer, &mut base);
        offline::snapshot_layers(&trip, &mut base);
    }

    let pool = world::most_predicted_ports(&pipeline.run, scale.wide_port_pool);
    let stream = |shape| {
        let mut stream = world::build_stream(
            shape,
            &trip.model,
            net.host_ips(),
            &pool,
            scale,
            options.seed,
        );
        if options.corrupt_expected {
            corrupt(Arc::get_mut(&mut stream).expect("stream not shared yet"));
        }
        stream
    };
    Ok(Trained {
        hot: stream(Shape::Hot),
        wide: stream(Shape::Wide),
        bytes: Arc::new(trip.bytes),
        base,
    })
}

/// The `--corrupt-expected` hook: the oracle's answer to the first query
/// (part of every warm-up pass) is made wrong in its last bit, or given
/// an entry when it was empty.
fn corrupt(stream: &mut Stream) {
    match stream.expected[0].first_mut() {
        Some(entry) => entry.1 = f64::from_bits(entry.1.to_bits() ^ 1),
        None => stream.expected[0].push((gps_types::Port(1), 0.5)),
    }
}

enum Workload {
    Offline(Box<Offline>),
    Serving(Box<Serving>),
}

impl Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Offline(w) => w.name(),
            Workload::Serving(w) => w.name(),
        }
    }

    fn samples_mut(&mut self) -> &mut Samples {
        match self {
            Workload::Offline(w) => &mut w.samples,
            Workload::Serving(w) => &mut w.samples,
        }
    }
}

fn serving_spec(name: &str) -> Option<ServingSpec> {
    serving::SERVING.iter().copied().find(|s| s.name == name)
}

/// One pass (untraced or traced) over the named workloads.
fn pass(
    options: &Options,
    names: &[&'static str],
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, Samples)>, String> {
    let scale = options.scale;
    // Generating the universe is part of an offline workload's set-up, so
    // it is repeated like any set-up when one is selected.
    let generations = if names.iter().any(|n| serving_spec(n).is_none()) {
        options.setup_reps.max(1)
    } else {
        1
    };
    let mut generate_s = Vec::new();
    let mut net = None;
    for _ in 0..generations {
        let (universe, secs) =
            tracer.timed("synthnet.generate", |_| world::generate_universe(&scale));
        generate_s.push(secs);
        net = Some(universe);
    }
    let net = Arc::new(net.expect("at least one universe"));
    let pass_started = Instant::now();
    let progress = |what: &str| {
        eprintln!(
            "gpsbench: {:>7.2}s {what}",
            pass_started.elapsed().as_secs_f64()
        );
    };
    progress("universe generated");

    let trained = if names.iter().any(|n| serving_spec(n).is_some()) {
        Some(train(&net, &generate_s, options, traced, tracer)?)
    } else {
        None
    };

    progress("model trained, streams and oracle built");
    let mut workloads = Vec::new();
    for &name in names {
        let offline = offline::OFFLINE.iter().find(|(n, _)| *n == name);
        workloads.push(match (offline, serving_spec(name), &trained) {
            (Some(&(name, kind)), _, _) => {
                let mut offline = Offline::new(name, kind, net.clone(), scale);
                offline.corrupt_first = options.corrupt_expected;
                offline.setup(&generate_s, tracer);
                Workload::Offline(Box::new(offline))
            }
            (_, Some(spec), Some(trained)) => {
                let stream = match spec.shape {
                    Shape::Hot => trained.hot.clone(),
                    Shape::Wide => trained.wide.clone(),
                };
                let mut serving = Serving::new(
                    spec,
                    trained.bytes.clone(),
                    stream,
                    scale.warmup_len,
                    options.segments.div_ceil(options.setup_reps.max(1)),
                );
                serving.samples = trained.base.clone();
                Workload::Serving(Box::new(serving))
            }
            _ => return Err(format!("workload {name:?} has no implementation")),
        });
    }

    progress("workloads set up");
    let only_offline = workloads.iter().all(|w| matches!(w, Workload::Offline(_)));
    let segment_secs = options.seconds / options.segments as f64;
    let started = Instant::now();
    let mut round = 0usize;
    loop {
        // In the traced pass odd rounds record spans and even rounds do
        // not; the ratio between the two is the tracing overhead.
        let traced_round = traced && round % 2 == 1;
        for workload in &mut workloads {
            match workload {
                Workload::Offline(w) => w.segment(tracer)?,
                Workload::Serving(w) => w.segment(segment_secs, traced_round, tracer)?,
            }
        }
        round += 1;
        // A pipeline run cannot be made shorter, so offline workloads run
        // `segments` times whatever that takes, and on while time is left.
        let time_left = only_offline && started.elapsed().as_secs_f64() < options.seconds;
        if round >= options.segments && !time_left {
            break;
        }
    }

    progress("timed rounds done");
    if traced {
        for workload in &mut workloads {
            match workload {
                Workload::Offline(w) => w.finish_layers(tracer),
                Workload::Serving(w) => {
                    w.finish_layers();
                    let input = w.ladder_input();
                    tracer
                        .timed(&format!("ladder.{}", w.name()), |t| {
                            ladder::climb(&input, options.rung_secs, t, &mut w.samples)
                        })
                        .0?;
                }
            }
        }
    }
    for workload in &mut workloads {
        if let Workload::Serving(w) = workload {
            w.stop();
        }
    }
    progress("pass done");
    let results = workloads
        .iter_mut()
        .map(|w| (w.name(), std::mem::take(w.samples_mut())))
        .collect();
    // The inputs are hundreds of megabytes in small allocations; freeing
    // them one by one takes seconds that no later step needs.
    std::mem::forget((workloads, trained, net));
    Ok(results)
}

/// The commit the repository's `HEAD` names, found from this package's
/// own directory; "unknown" in a checkout that is not a git repository.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |file: &str| std::fs::read_to_string(git.join(file)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            // A packed ref has no file of its own: `<hash> <ref>` lines.
            read("packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_samples(name: &str, samples: &Samples, traced: bool, seed: u64) {
    println!(
        "== {name}  seed {seed}  trace {}  segments {} ==",
        u8::from(traced),
        samples.segments
    );
    if !traced {
        for metric in report::END_TO_END {
            let Some(values) = samples.end_to_end.get(metric.name) else {
                continue;
            };
            let (q1, med, q3) = quartiles(values);
            println!(
                "  {:<18} {:>16.6} {:<6} median of {:>3}: q1 {:<14.6} q3 {:<14.6} spread {:>5.1}%",
                metric.name,
                med,
                metric.unit,
                values.len(),
                q1,
                q3,
                spread(values) * 100.0,
            );
        }
    } else {
        for (metric, unit, _) in report::PER_LAYER {
            if let Some(value) = samples.per_layer.get(metric) {
                println!("  {metric:<38} {value:>18.6} {unit}");
            }
        }
        let layer = |name: &str| samples.per_layer.get(name).copied().unwrap_or(0.0);
        let rungs = [
            layer("serve.artifact.predict_ns"),
            layer("serve.server.hop_ns"),
            layer("serve.net.self_ns"),
            layer("serve.router.hop_us") * 1e3,
        ];
        // An offline workload climbs no ladder.
        if rungs[0] > 0.0 {
            println!(
            "  ladder self times: artifact {:.0} + server hop {:.0} + net {:.0} + router hop {:.0} = routed rung {:.0} ns per prediction",
            rungs[0],
            rungs[1],
            rungs[2],
            rungs[3],
            rungs.iter().sum::<f64>()
        );
        }
    }
    println!(
        "  {:<18} {:>16.6} {:<6} ({} failed of {} attempted)",
        report::FAIL_RATIO.name,
        samples.fail_ratio(),
        report::FAIL_RATIO.unit,
        samples.failed,
        samples.attempted
    );
    for fault in &samples.faults {
        println!("  FAULT {fault}");
    }
}

/// Where the traced pass spent its time, by span name.
fn print_span_totals(tracer: &Tracer) {
    println!("== spans: calls, total ms, self ms (total minus what child spans cover) ==");
    for (name, (calls, total_ns, self_ns)) in tracer.totals_by_name() {
        println!(
            "  {name:<34} {calls:>10} {:>12.3} {:>12.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run what the options ask for; `Ok(true)` when every answer was right.
pub fn run(options: &Options) -> Result<bool, String> {
    let names: Vec<&'static str> = match options.selection {
        Selection::All => report::WORKLOADS.iter().map(|(n, _)| *n).collect(),
        Selection::One(name) => vec![name],
    };
    // A run of all workloads does both passes unless told which one; a
    // gated run of one workload does exactly one.
    let passes: Vec<bool> = match (options.selection, options.trace) {
        (_, Some(traced)) => vec![traced],
        (Selection::All, None) => vec![false, true],
        (Selection::One(_), None) => vec![false],
    };
    let info = RunInfo {
        seed: options.seed,
        git_commit: git_commit(),
        nproc: serving::nproc(),
        run_seconds: options.seconds,
    };

    let mut merged: Vec<(&'static str, Samples)> = Vec::new();
    for &traced in &passes {
        let mut tracer = Tracer::new(traced);
        let results = tracer
            .timed("gpsbench.pass", |t| pass(options, &names, traced, t))
            .0?;
        if traced {
            write_file(&options.out_dir.join("trace.json"), &tracer.to_json())?;
            print_span_totals(&tracer);
        }
        for (name, samples) in results {
            print_samples(name, &samples, traced, options.seed);
            match merged.iter_mut().find(|(n, _)| *n == name) {
                // The traced pass adds its per-layer map (and its
                // failures) to the untraced pass's end-to-end samples.
                Some((_, first)) => {
                    first.per_layer = samples.per_layer;
                    first.attempted += samples.attempted;
                    first.failed += samples.failed;
                    first.faults.extend(samples.faults);
                }
                None => merged.push((name, samples)),
            }
        }
    }

    let rows: Vec<(&str, &Samples)> = merged.iter().map(|(n, s)| (*n, s)).collect();
    let document = report::result_document(&info, &rows);
    // The seed is in the name so that the runs of a set, each on its own
    // seed, can share a directory and be handed to `--compare` as one.
    let file = match options.selection {
        Selection::All => format!("gpsbench.seed{}.json", options.seed),
        Selection::One(name) => format!(
            "{name}.seed{}.trace{}.json",
            options.seed,
            u8::from(passes[0])
        ),
    };
    let path = options.out_dir.join(file);
    write_file(&path, &report::pretty(&document))?;

    match options.selection {
        // The gate reads the last line of a one-workload run.
        Selection::One(_) => println!("{}", report::result_line(&merged[0].1, passes[0])?),
        Selection::All => println!("result file: {}", path.display()),
    }
    Ok(merged.iter().all(|(_, samples)| samples.correct()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_types::Json;

    fn tiny(selection: Selection, trace: Option<bool>, dir: &str) -> Options {
        Options {
            selection,
            seconds: 0.4,
            trace,
            out_dir: std::env::temp_dir()
                .join(format!("gpsbench-test-{}-{dir}", std::process::id())),
            scale: Scale::tiny(),
            segments: 2,
            setup_reps: 2,
            rung_secs: 0.02,
            ..Options::new(5)
        }
    }

    fn read(options: &Options, file: &str) -> Json {
        let text = std::fs::read_to_string(options.out_dir.join(file)).expect(file);
        Json::parse(&text).expect("result file parses")
    }

    #[test]
    fn one_serving_workload_reports_every_end_to_end_metric() {
        let options = tiny(Selection::One("serve_hot"), Some(false), "hot");
        assert_eq!(run(&options), Ok(true));
        let doc = read(&options, "serve_hot.seed5.trace0.json");
        let workload = doc
            .get("workloads")
            .and_then(|w| w.get("serve_hot"))
            .unwrap();
        assert_eq!(workload.get("failed").and_then(Json::as_u64), Some(0));
        assert!(workload.get("attempted").and_then(Json::as_u64).unwrap() > 500);
        for metric in report::END_TO_END {
            let median = workload
                .get("end_to_end")
                .and_then(|e| e.get(metric.name))
                .and_then(|m| m.get("median"))
                .and_then(Json::as_f64);
            assert!(
                median.is_some_and(|m| m > 0.0),
                "{} = {median:?}",
                metric.name
            );
        }
        let _ = std::fs::remove_dir_all(&options.out_dir);
    }

    #[test]
    fn a_corrupted_oracle_fails_the_run() {
        for name in ["serve_batch", "routed", "offline_lzr"] {
            let mut options = tiny(Selection::One(name), Some(false), &format!("bad-{name}"));
            options.corrupt_expected = true;
            assert_eq!(run(&options), Ok(false), "{name}");
            let doc = read(&options, &format!("{name}.seed5.trace0.json"));
            let workload = doc.get("workloads").and_then(|w| w.get(name)).unwrap();
            assert!(workload.get("failed").and_then(Json::as_u64).unwrap() >= 1);
            assert_eq!(workload.get("correct").and_then(Json::as_bool), Some(false));
            let _ = std::fs::remove_dir_all(&options.out_dir);
        }
    }

    #[test]
    fn the_traced_pass_reports_every_per_layer_metric_and_a_trace_file() {
        for name in ["offline_censys", "serve_wide"] {
            let options = tiny(Selection::One(name), Some(true), &format!("trace-{name}"));
            assert_eq!(run(&options), Ok(true), "{name}");
            let doc = read(&options, &format!("{name}.seed5.trace1.json"));
            let layers = doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("per_layer"))
                .unwrap();
            for (metric, _, _) in report::PER_LAYER {
                assert!(layers.get(metric).is_some(), "{name}: {metric} missing");
            }
            let trace = read(&options, "trace.json");
            let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
            let has = |span: &str| {
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Json::as_str) == Some(span))
            };
            let expected: &[&str] = match name {
                "offline_censys" => &["core.pipeline.run_gps", "core.snapshot.decode"],
                _ => &["client.request", "serve.artifact.predict", "serve.router"],
            };
            for span in expected {
                assert!(has(span), "{name}: no {span} span");
            }
            let _ = std::fs::remove_dir_all(&options.out_dir);
        }
    }

    #[test]
    fn all_workloads_interleave_into_one_result_file() {
        let options = tiny(Selection::All, None, "all");
        assert_eq!(run(&options), Ok(true));
        let doc = read(&options, "gpsbench.seed5.json");
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(5));
        for (name, _) in report::WORKLOADS {
            let workload = doc.get("workloads").and_then(|w| w.get(name)).expect(name);
            assert!(workload.get("segments").and_then(Json::as_u64).unwrap() >= 2);
            let Some(Json::Obj(layers)) = workload.get("per_layer") else {
                panic!("{name}: no per-layer map")
            };
            assert_eq!(layers.len(), report::PER_LAYER.len(), "{name}");
        }
        // The same file compared with itself agrees everywhere.
        assert_eq!(
            report::compare(
                std::slice::from_ref(&doc),
                std::slice::from_ref(&doc),
                &mut String::new()
            ),
            Ok(false)
        );
        let _ = std::fs::remove_dir_all(&options.out_dir);
    }
}
