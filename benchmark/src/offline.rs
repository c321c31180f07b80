//! The two offline workloads: one `run_gps` call per segment on the
//! Censys-style or the LZR-style dataset, plus the snapshot trip a hot
//! reload would make with the result.

use std::sync::Arc;

use gps_core::compiled::CompiledRules;
use gps_core::{Dataset, FeatureRules, GpsConfig, GpsRun};
use gps_scan::ScanPhase;
use gps_synthnet::Internet;

use crate::proc::{self, Diagnostics};
use crate::report::{self, Samples};
use crate::stats::median;
use crate::trace::Tracer;
use crate::world::{
    self, build_dataset, found_outside_test, snapshot_trip, timed_load_ms, timed_pipeline,
    DatasetKind, PipelineRun, Quality, Scale, SnapshotTrip,
};

/// Snapshot loads timed after every run: the trip's own and two more, so
/// that the median rests on thirty samples spread over the run.
const LOADS_PER_SEGMENT: usize = 3;

/// The per-layer numbers one pipeline run yields, read off its public
/// result (`GpsRun`) and two calls timed again from outside.
pub fn pipeline_layers(run: &GpsRun, wall_s: f64, tracer: &mut Tracer, samples: &mut Samples) {
    for (name, phase) in [
        ("scan.probes.seed", ScanPhase::Seed),
        ("scan.probes.priors", ScanPhase::Priors),
        ("scan.probes.predict", ScanPhase::Predict),
    ] {
        samples.layer(name, run.ledger.probes(phase) as f64);
    }
    samples.layer("scan.bytes_total", run.ledger.total_bytes() as f64);
    let t = &run.timings;
    samples.layer("scan.modeled_s.seed", t.seed_scan.as_secs_f64());
    samples.layer("scan.modeled_s.priors", t.priors_scan.as_secs_f64());
    samples.layer("scan.modeled_s.predict", t.predict_scan.as_secs_f64());
    // What is left of the wall time once the measured compute phases are
    // taken out is the scan simulation (plus filtering and grouping).
    samples.layer(
        "scan.sim_s",
        (wall_s - t.compute_total().as_secs_f64()).max(0.0),
    );
    samples.layer("engine.rows", run.engine_ledger.rows_processed() as f64);
    samples.layer("engine.bytes", run.engine_ledger.bytes_processed() as f64);
    samples.layer("engine.queries", run.engine_ledger.queries() as f64);
    samples.layer("core.model.build_s", t.model_build.as_secs_f64());
    samples.layer("core.model.keys", run.model_stats.distinct_keys as f64);
    samples.layer("core.priors.build_s", t.priors_build.as_secs_f64());
    samples.layer("core.priors.tuples", run.priors_list.len() as f64);
    // `PhaseTimings::rules_build` covers rule building, compilation and
    // prediction expansion together. The first two are public functions,
    // so they are timed again here on the run's own model; expansion is
    // the remainder.
    let (rules, rules_build_s) = tracer.timed("core.predict.rules_build", |_| {
        FeatureRules::build(&run.model, &run.seed_host_records, run.min_prob_used)
    });
    let (compiled, compile_s) = tracer.timed("core.predict.compile", |_| {
        CompiledRules::from_rules(&rules)
    });
    std::hint::black_box(compiled);
    samples.layer("core.predict.rules_build_s", rules_build_s);
    samples.layer("core.predict.compile_s", compile_s);
    samples.layer(
        "core.predict.expand_s",
        (t.rules_build.as_secs_f64() - rules_build_s - compile_s).max(0.0),
    );
    samples.layer("core.predict.rules", run.rules.len() as f64);
    samples.layer("core.predict.predictions", run.predictions_total as f64);
}

pub fn snapshot_layers(trip: &SnapshotTrip, samples: &mut Samples) {
    samples.layer("core.snapshot.encode_ms", trip.encode_ms);
    samples.layer("core.snapshot.decode_ms", trip.decode_ms);
    samples.layer("serve.artifact.from_snapshot_ms", trip.from_snapshot_ms);
}

/// Push the quality numbers of a run as end-to-end samples.
pub fn push_quality(samples: &mut Samples, quality: &Quality, snapshot_bytes: usize) {
    samples.push("coverage", quality.coverage);
    samples.push("scan_units", quality.scan_units);
    samples.push("precision", quality.precision);
    samples.push("snapshot_bytes", snapshot_bytes as f64);
}

/// The two offline workloads and the dataset each scans.
pub const OFFLINE: [(&str, DatasetKind); 2] = [
    ("offline_censys", DatasetKind::Censys),
    ("offline_lzr", DatasetKind::Lzr),
];

pub struct Offline {
    name: &'static str,
    kind: DatasetKind,
    net: Arc<Internet>,
    scale: Scale,
    config: GpsConfig,
    dataset: Option<Dataset>,
    /// Quality of the first run; every later run must repeat it exactly.
    first: Option<(Quality, usize)>,
    last: Option<(PipelineRun, SnapshotTrip)>,
    /// Per run.
    diagnostics: Diagnostics,
    /// The `--corrupt-expected` hook: remember the first run's coverage
    /// wrong in its last bit, so every later run must be reported.
    pub corrupt_first: bool,
    pub samples: Samples,
}

impl Offline {
    pub fn new(name: &'static str, kind: DatasetKind, net: Arc<Internet>, scale: Scale) -> Offline {
        Offline {
            name,
            kind,
            net,
            scale,
            config: world::gps_config(&scale),
            dataset: None,
            first: None,
            last: None,
            diagnostics: Diagnostics::default(),
            corrupt_first: false,
            samples: Samples::default(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `setup_s`: generate the universe and build the dataset. The
    /// universe was generated once per entry of `generate_s`; the dataset
    /// is built as often.
    pub fn setup(&mut self, generate_s: &[f64], tracer: &mut Tracer) {
        let mut build_s = Vec::with_capacity(generate_s.len());
        for generate in generate_s {
            let (dataset, secs) = tracer.timed("core.dataset.build", |_| {
                build_dataset(self.kind, &self.net, &self.scale)
            });
            self.dataset = Some(dataset);
            build_s.push(secs);
            self.samples.push("setup_s", generate + secs);
        }
        self.samples
            .layer("synthnet.generate_s", median(generate_s));
        self.samples.layer("core.dataset.build_s", median(&build_s));
    }

    /// One pipeline run, checked, then its snapshot trip.
    pub fn segment(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let dataset = self.dataset.as_ref().expect("setup ran");
        let ctx_before = proc::voluntary_ctx_switches();
        let pipeline = timed_pipeline(&self.net, dataset, &self.config, tracer);
        let ctx = proc::voluntary_ctx_switches().saturating_sub(ctx_before);
        let trip = snapshot_trip(&pipeline.run, &self.config, tracer)?;

        let samples = &mut self.samples;
        samples.segments += 1;
        samples.attempted += 1;
        let outside = found_outside_test(&pipeline.run, dataset);
        if outside > 0 {
            samples.fault(format!(
                "{}: {outside} found services are not in the dataset's test side",
                self.name
            ));
        }
        let quality = Quality::of(&pipeline.run);
        if quality.predictions == 0 {
            samples.fault(format!("{}: the run emitted no prediction", self.name));
        }
        let outcome = (quality, trip.bytes.len());
        match self.first {
            None => {
                let mut first = outcome;
                if self.corrupt_first {
                    first.0.coverage = f64::from_bits(first.0.coverage.to_bits() ^ 1);
                }
                self.first = Some(first);
            }
            Some(first) if first != outcome => samples.fault(format!(
                "{}: run {} differs from the first run: {:?} vs {:?}",
                self.name, samples.segments, outcome, first
            )),
            Some(_) => {}
        }

        let predictions = quality.predictions.max(1) as f64;
        samples.push("pipeline_s", pipeline.wall_s);
        // The gate wants every metric from every workload. An offline
        // workload serves nothing, so its two serving metrics are the same
        // call seen per prediction: predictions emitted per second and CPU
        // per emitted prediction. They cost no measurement of their own.
        samples.push("qps", predictions / pipeline.wall_s);
        samples.push("cpu_us_per_pred", pipeline.cpu_s * 1e6 / predictions);
        samples.push("snapshot_load_ms", trip.load_ms());
        for _ in 1..LOADS_PER_SEGMENT {
            samples.push("snapshot_load_ms", timed_load_ms(&trip.bytes, tracer)?);
        }
        push_quality(samples, &quality, trip.bytes.len());
        // No span is recorded per prediction, so there is no traced kind
        // of segment and `trace.overhead_ratio` reads 1.
        self.diagnostics.segment(
            1.0 / pipeline.wall_s,
            false,
            pipeline.cpu_s / pipeline.wall_s,
            ctx as f64 / predictions,
        );
        self.last = Some((pipeline, trip));
        Ok(())
    }

    /// Per-layer numbers of the last run and the diagnostics over all
    /// runs. The serving ladder and the client's latency mean nothing
    /// here; the gate wants every name from every workload, so they read
    /// 0, which is how an absent layer reads everywhere.
    pub fn finish_layers(&mut self, tracer: &mut Tracer) {
        let (pipeline, trip) = self.last.as_ref().expect("a segment ran");
        pipeline_layers(&pipeline.run, pipeline.wall_s, tracer, &mut self.samples);
        snapshot_layers(trip, &mut self.samples);
        self.diagnostics.layers(&mut self.samples);
        for (name, _, _) in report::PER_LAYER {
            let serving_only = name.starts_with("serve.") || name.starts_with("client.");
            if serving_only && !self.samples.per_layer.contains_key(name) {
                self.samples.layer(name, 0.0);
            }
        }
    }
}
