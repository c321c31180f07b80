//! Metric and workload tables, the versioned result schema, and
//! `--compare`.
//!
//! The tables below are the single source of the names in
//! `BENCHMARK.json`; a unit test keeps the two in step.

use std::collections::BTreeMap;

use gps_types::Json;

use crate::stats::{median, quartiles, spread};

pub const SCHEMA_VERSION: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Exact: two runs of one commit must agree to the last bit, whatever
    /// `--seed` they were given (the world is pinned, `world::WORLD_SEED`).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The gated end-to-end metrics, every one reported by every workload.
/// Bounds come from the spreads measured on this host (README, "Bounds"):
/// every timing is at the cap the gate allows, every exact metric at 1 %.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("qps", "1/s", Better::Higher, 0.25, false),
    e2e("cpu_us_per_pred", "us", Better::Lower, 0.25, false),
    e2e("pipeline_s", "s", Better::Lower, 0.25, false),
    e2e("coverage", "ratio", Better::Higher, 0.01, true),
    e2e("scan_units", "scans", Better::Lower, 0.01, true),
    e2e("precision", "ratio", Better::Higher, 0.01, true),
    e2e("snapshot_load_ms", "ms", Better::Lower, 0.25, false),
    e2e("snapshot_bytes", "bytes", Better::Lower, 0.01, true),
];

/// The tenth end-to-end metric. It is 0 on a healthy run, and the gate
/// divides by medians, so it travels as the `failed`/`attempted` pair of
/// the result line instead of sitting in `BENCHMARK.json`; `--compare`
/// and the command's exit code enforce its bound of 0.
pub const FAIL_RATIO: EndToEnd = e2e("fail_ratio", "ratio", Better::Lower, 0.0, true);

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(std::iter::once(&FAIL_RATIO))
        .find(|m| m.name == name)
}

/// `(name, why)` of the six workloads.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "offline_censys",
        "run_gps on the Censys-style dataset: prediction expansion dominates; the paper's own metric lives here",
    ),
    (
        "offline_lzr",
        "run_gps on the all-port LZR sample: Appendix-B filter, group_by_host and model build dominate instead",
    ),
    (
        "serve_hot",
        "at most 128 distinct cache keys, 2 connections x window 128: transport, GPSQ codec and L1 probe do the work",
    ),
    (
        "serve_wide",
        "3-6 evidence ports per query, hit ratio 0: every query takes the shard hop and the kernel, caches show nothing",
    ),
    (
        "serve_batch",
        "wide traffic in predict_batch frames of 256: same server layer, fan-out and reassembly, transport amortised",
    ),
    (
        "routed",
        "hot traffic through the router over two backends, 1 connection: only the router hop differs from serve_hot",
    ),
];

/// `(name, unit, better)` of the per-layer metrics of the `--trace 1` run.
pub const PER_LAYER: [(&str, &str, Better); 52] = [
    ("synthnet.generate_s", "s", Better::Lower),
    ("core.dataset.build_s", "s", Better::Lower),
    ("scan.probes.seed", "count", Better::Lower),
    ("scan.probes.priors", "count", Better::Lower),
    ("scan.probes.predict", "count", Better::Lower),
    ("scan.bytes_total", "bytes", Better::Lower),
    ("scan.modeled_s.seed", "s", Better::Lower),
    ("scan.modeled_s.priors", "s", Better::Lower),
    ("scan.modeled_s.predict", "s", Better::Lower),
    ("scan.sim_s", "s", Better::Lower),
    ("engine.rows", "count", Better::Lower),
    ("engine.bytes", "bytes", Better::Lower),
    ("engine.queries", "count", Better::Lower),
    ("core.model.build_s", "s", Better::Lower),
    ("core.model.keys", "count", Better::Lower),
    ("core.priors.build_s", "s", Better::Lower),
    ("core.priors.tuples", "count", Better::Lower),
    ("core.predict.rules_build_s", "s", Better::Lower),
    ("core.predict.compile_s", "s", Better::Lower),
    ("core.predict.expand_s", "s", Better::Lower),
    ("core.predict.rules", "count", Better::Lower),
    ("core.predict.predictions", "count", Better::Higher),
    ("core.snapshot.encode_ms", "ms", Better::Lower),
    ("core.snapshot.decode_ms", "ms", Better::Lower),
    ("serve.artifact.from_snapshot_ms", "ms", Better::Lower),
    ("serve.artifact.predict_ns", "ns", Better::Lower),
    ("serve.server.predict_ns", "ns", Better::Lower),
    ("serve.server.batch_ns_per_pred", "ns", Better::Lower),
    ("serve.server.hop_ns", "ns", Better::Lower),
    ("serve.server.l1_hit_ratio", "ratio", Better::Higher),
    ("serve.server.shard_hit_ratio", "ratio", Better::Higher),
    ("serve.server.miss_ratio", "ratio", Better::Lower),
    ("serve.server.jobs_per_wakeup", "ratio", Better::Higher),
    ("serve.server.hist_p50_us", "us", Better::Lower),
    ("serve.server.hist_p99_us", "us", Better::Lower),
    ("serve.proto.json_codec_ns", "ns", Better::Lower),
    ("serve.net.self_ns", "ns", Better::Lower),
    ("serve.net.threads.gpsq.ns_per_pred", "ns", Better::Lower),
    ("serve.net.threads.json.ns_per_pred", "ns", Better::Lower),
    ("serve.net.events.gpsq.ns_per_pred", "ns", Better::Lower),
    ("serve.net.events.json.ns_per_pred", "ns", Better::Lower),
    ("serve.router.hop_us", "us", Better::Lower),
    ("serve.router.retries", "count", Better::Lower),
    ("serve.router.shed", "count", Better::Lower),
    ("serve.router.forwarded_skew", "ratio", Better::Lower),
    ("client.p50_us", "us", Better::Lower),
    ("client.p99_us", "us", Better::Lower),
    ("client.samples", "count", Better::Higher),
    ("proc.cores_busy", "cores", Better::Lower),
    ("proc.vol_ctx_per_pred", "ratio", Better::Lower),
    ("proc.peak_rss_mb", "MiB", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

/// What one workload produced in one pass: the samples of each end-to-end
/// metric (its value is their median), single values of each per-layer
/// metric, and the operation counts behind `fail_ratio`.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub end_to_end: BTreeMap<&'static str, Vec<f64>>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Timed segments (serving) or pipeline runs (offline) behind the
    /// medians.
    pub segments: usize,
    /// What went wrong, one line each; empty on a correct run.
    pub faults: Vec<String>,
}

impl Samples {
    /// One more sample of an end-to-end metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            end_to_end(name).is_some(),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.entry(name).or_default().push(value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            per_layer_unit(name).is_some(),
            "{name} is not a per-layer metric"
        );
        self.per_layer.insert(name, value);
    }

    /// One failed check.
    pub fn fault(&mut self, message: String) {
        self.record(1, message);
    }

    /// `count` failed operations with one line saying what went wrong
    /// (the first twenty lines are kept).
    pub fn record(&mut self, count: u64, message: String) {
        self.failed += count;
        if self.faults.len() < 20 {
            self.faults.push(message);
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The gated value of an end-to-end metric: the median of its samples;
    /// `None` while there is none.
    pub fn value_of(&self, metric: &EndToEnd) -> Option<f64> {
        let values = self.end_to_end.get(metric.name)?;
        (!values.is_empty()).then(|| median(values))
    }
}

/// The last stdout line of a gated run: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(samples: &Samples, traced: bool) -> Result<String, String> {
    let mut metrics = Json::obj();
    if traced {
        for (name, unit, _) in PER_LAYER {
            let value = samples
                .per_layer
                .get(name)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            metrics.set(name, metric_json(*value, unit));
        }
    } else {
        for metric in END_TO_END {
            let value = samples
                .value_of(&metric)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", metric.name))?;
            metrics.set(metric.name, metric_json(value, metric.unit));
        }
    }
    let mut line = Json::obj();
    line.set("correct", samples.correct())
        .set("attempted", Json::Num(samples.attempted as f64))
        .set("failed", Json::Num(samples.failed as f64))
        .set("metrics", metrics);
    Ok(line.to_string())
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut json = Json::obj();
    json.set("value", value).set("unit", unit);
    json
}

/// Identity of a run, written at the top of every result file.
pub struct RunInfo {
    pub seed: u64,
    pub git_commit: String,
    pub nproc: usize,
    pub run_seconds: f64,
}

/// The versioned result document: per workload, end-to-end medians with
/// quartiles and segment counts, and the per-layer map when traced.
pub fn result_document(info: &RunInfo, workloads: &[(&str, &Samples)]) -> Json {
    let mut by_workload = Json::obj();
    for (name, samples) in workloads {
        let mut end_to_end = Json::obj();
        for metric in END_TO_END {
            let Some(values) = samples.end_to_end.get(metric.name) else {
                continue;
            };
            if values.is_empty() {
                continue;
            }
            let (q1, med, q3) = quartiles(values);
            let mut entry = Json::obj();
            entry
                .set("unit", metric.unit)
                .set("median", med)
                .set("q1", q1)
                .set("q3", q3)
                .set("spread", spread(values))
                .set("n", values.len())
                .set(
                    "samples",
                    values.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                );
            end_to_end.set(metric.name, entry);
        }
        let mut fail = Json::obj();
        fail.set("unit", FAIL_RATIO.unit)
            .set("median", samples.fail_ratio())
            .set("q1", samples.fail_ratio())
            .set("q3", samples.fail_ratio())
            .set("spread", 0.0)
            .set("n", 1usize)
            .set("samples", vec![Json::Num(samples.fail_ratio())]);
        end_to_end.set(FAIL_RATIO.name, fail);
        let mut per_layer = Json::obj();
        for (metric, value) in &samples.per_layer {
            per_layer.set(
                metric,
                metric_json(*value, per_layer_unit(metric).unwrap_or("")),
            );
        }
        let mut entry = Json::obj();
        entry
            .set("segments", samples.segments)
            .set("attempted", Json::Num(samples.attempted as f64))
            .set("failed", Json::Num(samples.failed as f64))
            .set("correct", samples.correct())
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer);
        by_workload.set(name, entry);
    }
    let mut doc = Json::obj();
    doc.set("schema", SCHEMA_VERSION)
        .set("bench", "gpsbench")
        .set("seed", Json::Num(info.seed as f64))
        .set("git_commit", info.git_commit.as_str())
        .set("nproc", info.nproc)
        .set("run_seconds", info.run_seconds)
        .set("workloads", by_workload);
    doc
}

/// Serialize a result document for a committed file: one line per
/// metric, so that two baselines diff metric by metric.
pub fn pretty(json: &Json) -> String {
    fn write(json: &Json, depth: usize, out: &mut String) {
        match json {
            Json::Obj(fields) if fields.iter().any(|(_, v)| matches!(v, Json::Obj(_))) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(depth + 1));
                    Json::from(key.as_str()).write(out);
                    out.push_str(": ");
                    write(value, depth + 1, out);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            flat => flat.write(out),
        }
    }
    let mut out = String::new();
    write(json, 0, &mut out);
    out.push('\n');
    out
}

/// Why a name cannot be used in `BENCHMARK.json`, if it cannot.
#[cfg(test)]
fn name_fault(name: &str) -> Option<&'static str> {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    if name.is_empty() || name.len() > 64 {
        Some("must be 1 to 64 characters")
    } else if !name.chars().all(ok_char) {
        Some("must match [A-Za-z0-9_.-]+")
    } else if !name.starts_with(|c: char| c.is_ascii_alphanumeric()) {
        Some("must start with a letter or a digit")
    } else {
        None
    }
}

/// One row of `--compare`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// No worse than the bound, and the data can tell.
    Ok,
    /// One side's spread is wider than the bound and the two sides'
    /// values overlap: the comparison decides nothing.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
    /// An exact metric that differs between the runs of one side: the
    /// program does not repeat itself, so no value stands for the side.
    Unrepeatable,
}

impl Verdict {
    /// Whether `--compare` exits non-zero on it.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Unrepeatable)
    }
}

/// One side of a comparison for one workload × metric: the value of each
/// run of the set, and what its spread is judged on — the runs' values,
/// or the segment samples when the set is a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct SideMetric {
    pub runs: Vec<f64>,
    pub basis: Vec<f64>,
}

impl SideMetric {
    /// The set's value: the median of its runs' values, as the gate takes
    /// it.
    pub fn value(&self) -> f64 {
        median(&self.runs)
    }

    fn collect(docs: &[Json], workload: &str, metric: &str) -> Option<SideMetric> {
        let entries: Vec<&Json> = docs
            .iter()
            .filter_map(|doc| {
                doc.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)
            })
            .collect();
        let runs: Vec<f64> = entries
            .iter()
            .filter_map(|e| e.get("median").and_then(Json::as_f64))
            .collect();
        if runs.is_empty() {
            return None;
        }
        let basis = match entries.as_slice() {
            [single] => single
                .get("samples")
                .and_then(Json::as_arr)
                .map(|s| s.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_else(|| runs.clone()),
            _ => runs.clone(),
        };
        Some(SideMetric { runs, basis })
    }
}

/// Compare one metric of two sets of runs. `change` is `(b - a) / a`, so
/// its base is always set A. An exact metric must read the same, bit for
/// bit, within each side; between the sides it is judged like any other,
/// by direction and bound, so a commit that improves it is `Ok`.
pub fn judge(metric: &EndToEnd, a: &SideMetric, b: &SideMetric) -> (f64, Verdict) {
    let (value_a, value_b) = (a.value(), b.value());
    let change = if value_a == 0.0 {
        if value_b == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(value_b)
        }
    } else {
        (value_b - value_a) / value_a.abs()
    };
    let repeats = |side: &SideMetric| {
        let first = side.basis[0].to_bits();
        side.basis.iter().all(|v| v.to_bits() == first)
    };
    if metric.exact && !(repeats(a) && repeats(b)) {
        return (change, Verdict::Unrepeatable);
    }
    // `worse(x, y)`: y reads worse than x.
    let worse = |x: f64, y: f64| match metric.better {
        Better::Higher => y < x,
        Better::Lower => y > x,
    };
    let beyond_bound = match metric.better {
        Better::Higher => -change,
        Better::Lower => change,
    } > metric.bound;
    let wide = spread(&a.basis) > metric.bound || spread(&b.basis) > metric.bound;
    // Every sample of B on one side of every sample of A decides the
    // question even when the spreads are wide.
    let all_pairs = |test: &dyn Fn(f64, f64) -> bool| {
        a.basis.iter().all(|&x| b.basis.iter().all(|&y| test(x, y)))
    };
    let verdict = if beyond_bound {
        if !wide || all_pairs(&worse) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if !wide || all_pairs(&|x, y| !worse(x, y)) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    };
    (change, verdict)
}

/// `--compare A B`: each side a set of result documents (one per run).
/// Prints every workload × end-to-end metric and returns whether any
/// regressed.
pub fn compare(a: &[Json], b: &[Json], out: &mut String) -> Result<bool, String> {
    use std::fmt::Write as _;
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    for (label, docs) in [("A", a), ("B", b)] {
        for doc in docs {
            let schema = field(doc, "schema");
            if schema != Some(SCHEMA_VERSION as u64) {
                return Err(format!(
                    "{label}: schema {schema:?}, this build reads schema {SCHEMA_VERSION}"
                ));
            }
        }
        let mut commits: Vec<&str> = docs
            .iter()
            .map(|d| d.get("git_commit").and_then(Json::as_str).unwrap_or("?"))
            .collect();
        commits.sort_unstable();
        commits.dedup();
        let mut seeds: Vec<u64> = docs.iter().filter_map(|d| field(d, "seed")).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let _ = writeln!(
            out,
            "{label}: {} run file(s), commit {}, seeds {seeds:?}",
            docs.len(),
            commits.join(" ")
        );
    }
    // Run length sets the segment length and the core count the number of
    // connections: runs that differ in either measured different things.
    for key in ["run_seconds", "nproc"] {
        let mut values = a
            .iter()
            .chain(b)
            .map(|doc| doc.get(key).and_then(Json::as_f64));
        let first = values.next().flatten();
        if first.is_none() || values.any(|v| v != first) {
            return Err(format!(
                "the runs do not share one {key}: they cannot be compared"
            ));
        }
    }
    let _ = writeln!(
        out,
        "value = median over a set's runs; change = (B - A) / A"
    );
    let _ = writeln!(
        out,
        "{:<16} {:<18} {:>14} {:>7} {:>14} {:>7} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "spread", "B", "spread", "change", "bound"
    );
    let mut regressed = false;
    let mut rows = 0;
    for (workload, _) in WORKLOADS {
        for metric in END_TO_END.iter().chain(std::iter::once(&FAIL_RATIO)) {
            let (Some(side_a), Some(side_b)) = (
                SideMetric::collect(a, workload, metric.name),
                SideMetric::collect(b, workload, metric.name),
            ) else {
                continue;
            };
            let (change, verdict) = judge(metric, &side_a, &side_b);
            rows += 1;
            regressed |= verdict.fails();
            let _ = writeln!(
                out,
                "{:<16} {:<18} {:>14.6} {:>6.1}% {:>14.6} {:>6.1}% {:>+8.2}% {:>5.0}%  {}",
                workload,
                metric.name,
                side_a.value(),
                spread(&side_a.basis) * 100.0,
                side_b.value(),
                spread(&side_b.basis) * 100.0,
                change * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved =>
                        "unresolved (spread wider than the bound, values overlap)",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unrepeatable =>
                        "REGRESSION (exact metric differs between runs of one side)",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two sets share no workload with end-to-end metrics".to_string());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_legal_and_within_the_caps() {
        assert!(END_TO_END.len() < 16, "fail_ratio is the one more");
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain([FAIL_RATIO.name])
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert_eq!(name_fault(name), None, "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for metric in END_TO_END {
            assert!((0.0..=0.25).contains(&metric.bound), "{}", metric.name);
            assert!(metric.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound >= END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max)));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(name_fault(""), Some("must be 1 to 64 characters"));
        assert!(name_fault("a b").is_some());
        assert!(name_fault(".a").is_some());
        assert!(name_fault(&"x".repeat(65)).is_some());
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above (skipped when the crate is built away from the repo).
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text_of =
            |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text_of(json, "name"), name);
            assert_eq!(text_of(json, "why"), why);
        }
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(json, "name"), metric.name);
            assert_eq!(text_of(json, "unit"), metric.unit);
            assert_eq!(text_of(json, "better"), metric.better.as_str());
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(metric.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(json, "name"), name);
            assert_eq!(text_of(json, "unit"), unit);
            assert_eq!(text_of(json, "better"), better.as_str());
        }
        assert_eq!(list("paths"), vec![Json::from("benchmark")]);
    }

    fn side(runs: &[f64]) -> SideMetric {
        SideMetric {
            runs: runs.to_vec(),
            basis: runs.to_vec(),
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        // Local definitions: the verdicts must not move with the table.
        let qps = &e2e("qps", "1/s", Better::Higher, 0.10, false);
        let tight = |m: f64| side(&[m * 0.99, m, m * 1.01]);
        let loose = |m: f64| side(&[m * 0.7, m, m * 1.3]);
        // higher is better: -20 % is a regression, +20 % is not
        let (change, verdict) = judge(qps, &tight(100.0), &tight(80.0));
        assert!((change + 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(judge(qps, &tight(100.0), &tight(120.0)).1, Verdict::Ok);
        assert_eq!(judge(qps, &tight(100.0), &tight(95.0)).1, Verdict::Ok);
        // a spread wider than the bound with overlapping values decides
        // nothing, in either direction
        assert_eq!(
            judge(qps, &loose(100.0), &tight(95.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(qps, &loose(100.0), &tight(85.0)).1,
            Verdict::Unresolved
        );
        // ... unless every value of B sits on one side of every value of A
        assert_eq!(
            judge(qps, &loose(100.0), &loose(40.0)).1,
            Verdict::Regression
        );
        assert_eq!(judge(qps, &loose(100.0), &loose(200.0)).1, Verdict::Ok);
        // lower is better
        let setup = &e2e("setup_s", "s", Better::Lower, 0.25, false);
        assert_eq!(
            judge(setup, &tight(1.0), &tight(1.3)).1,
            Verdict::Regression
        );
        assert_eq!(judge(setup, &tight(1.0), &tight(0.5)).1, Verdict::Ok);
        // the set's value is the median of its runs
        assert_eq!(side(&[1.0, 9.0, 2.0]).value(), 2.0);
    }

    #[test]
    fn exact_metrics_repeat_within_a_side_and_may_improve_between_sides() {
        let coverage = &e2e("coverage", "ratio", Better::Higher, 0.01, true);
        let a = side(&[0.9312, 0.9312]);
        assert_eq!(judge(coverage, &a, &a).1, Verdict::Ok);
        // a side that does not repeat itself fails, whichever side it is
        let unsteady = side(&[0.9312, 0.9313]);
        assert_eq!(judge(coverage, &a, &unsteady).1, Verdict::Unrepeatable);
        assert_eq!(judge(coverage, &unsteady, &a).1, Verdict::Unrepeatable);
        assert!(Verdict::Unrepeatable.fails() && Verdict::Regression.fails());
        assert!(!Verdict::Ok.fails() && !Verdict::Unresolved.fails());
        // between the sides direction and bound decide: better is ok,
        // worse within the bound is ok, worse beyond it is a regression
        assert_eq!(judge(coverage, &a, &side(&[0.95, 0.95])).1, Verdict::Ok);
        assert_eq!(judge(coverage, &a, &side(&[0.93, 0.93])).1, Verdict::Ok);
        assert_eq!(
            judge(coverage, &a, &side(&[0.90, 0.90])).1,
            Verdict::Regression
        );
        let bytes = &e2e("snapshot_bytes", "bytes", Better::Lower, 0.01, true);
        assert_eq!(
            judge(bytes, &side(&[600.0]), &side(&[500.0])).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(bytes, &side(&[600.0]), &side(&[700.0])).1,
            Verdict::Regression
        );
        let fail = end_to_end("fail_ratio").unwrap();
        assert_eq!(
            judge(fail, &side(&[0.0]), &side(&[0.001])).1,
            Verdict::Regression
        );
        assert_eq!(judge(fail, &side(&[0.0]), &side(&[0.0])).1, Verdict::Ok);
        assert_eq!(judge(fail, &side(&[0.001]), &side(&[0.0])).1, Verdict::Ok);
    }

    #[test]
    fn documents_round_trip_through_compare() {
        let mut samples = Samples {
            attempted: 10,
            segments: 3,
            ..Samples::default()
        };
        for v in [100.0, 110.0, 105.0] {
            samples.push("qps", v);
        }
        samples.push("coverage", 0.93);
        let info = |seed, run_seconds| RunInfo {
            seed,
            git_commit: "abc".to_string(),
            nproc: 2,
            run_seconds,
        };
        let document = |samples: &Samples, seed| {
            let text = pretty(&result_document(
                &info(seed, 10.0),
                &[("serve_hot", samples)],
            ));
            Json::parse(&text).unwrap()
        };
        let text = pretty(&result_document(&info(5, 10.0), &[("serve_hot", &samples)]));
        assert!(text.lines().count() > 10, "{text}");
        assert!(
            text.contains("\n        \"qps\": {\"unit\":\"1/s\","),
            "{text}"
        );
        let a = document(&samples, 5);
        let mut out = String::new();
        let one = std::slice::from_ref(&a);
        assert_eq!(compare(one, one, &mut out), Ok(false));
        assert!(out.contains("serve_hot") && out.contains("qps") && out.contains("fail_ratio"));

        // A set of runs: the value is the median over the runs, and the
        // spread that resolves the verdict is the spread between them.
        let mut slow = samples.clone();
        *slow.end_to_end.get_mut("qps").unwrap() = vec![50.0, 51.0, 52.0];
        let set_a = [
            document(&samples, 5),
            document(&samples, 6),
            document(&samples, 7),
        ];
        let set_b = [document(&slow, 5), document(&slow, 6), document(&slow, 7)];
        let mut out = String::new();
        assert_eq!(compare(&set_a, &set_b, &mut out), Ok(true));
        assert!(
            out.contains("REGRESSION") && out.contains("3 run file(s)"),
            "{out}"
        );

        let mut failing = samples.clone();
        failing.fault("wrong answer".to_string());
        let c = document(&failing, 5);
        assert_eq!(compare(one, &[c], &mut String::new()), Ok(true));

        // an improved exact metric is not a regression
        let mut better = samples.clone();
        *better.end_to_end.get_mut("coverage").unwrap() = vec![0.95];
        let d = document(&better, 5);
        assert_eq!(compare(one, &[d], &mut String::new()), Ok(false));

        // runs of another length measured something else
        let longer = result_document(&info(5, 25.0), &[("serve_hot", &samples)]);
        let refused = compare(one, &[longer], &mut String::new());
        assert!(refused.is_err_and(|e| e.contains("run_seconds")));

        let Json::Obj(mut fields) = a.clone() else {
            panic!()
        };
        assert_eq!(fields[0].0, "schema");
        fields[0].1 = Json::from(2u32);
        assert!(compare(one, &[Json::Obj(fields)], &mut String::new()).is_err());
    }

    #[test]
    fn every_metric_reports_the_median_of_its_samples() {
        let mut samples = Samples::default();
        for v in [3.0, 1.0, 2.0, 10.0, 2.5] {
            samples.push("qps", v);
            samples.push("pipeline_s", v);
        }
        assert_eq!(samples.value_of(end_to_end("qps").unwrap()), Some(2.5));
        assert_eq!(
            samples.value_of(end_to_end("pipeline_s").unwrap()),
            Some(2.5)
        );
        assert_eq!(samples.value_of(end_to_end("setup_s").unwrap()), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut samples = Samples {
            attempted: 4,
            ..Samples::default()
        };
        assert!(
            result_line(&samples, false).is_err(),
            "missing metrics are an error"
        );
        for metric in END_TO_END {
            samples.push(metric.name, 1.5);
        }
        let line = Json::parse(&result_line(&samples, false).unwrap()).unwrap();
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(!line.to_string().contains('\n'));

        for (name, _, _) in PER_LAYER {
            samples.layer(name, 2.0);
        }
        let line = Json::parse(&result_line(&samples, true).unwrap()).unwrap();
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}
