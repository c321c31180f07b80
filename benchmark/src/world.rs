//! The inputs every workload is built from: the universe, the two
//! datasets, the trained model, and the pre-generated query streams with
//! their expected answers.
//!
//! The world — the universe and the two dataset splits — is pinned
//! ([`WORLD_SEED`]); `--seed` drives the traffic. Both other designs were
//! measured first and dropped. A universe per seed: at 32 blocks two
//! universes differ by 30 % in precision and 25 % in pipeline time. A
//! split per seed on one universe: ten seeds spread `pipeline_s` by
//! 14-24 % and predictions per second by 10-22 %, where ten runs of one
//! split spread them by 2.4 %. Either would have used up every bound
//! before the program under test changed at all (README, "Bounds").

use std::sync::Arc;

use gps_core::{censys_dataset, lzr_dataset, run_gps, Dataset, GpsConfig, GpsRun, ModelSnapshot};
use gps_serve::{PredictScratch, Query, Ranked, ServableModel};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::{Ip, Rng};

use crate::trace::Tracer;

/// Seed of the universe and the dataset splits every gated run uses.
pub const WORLD_SEED: u64 = 0x6B5;

/// The sizes of the inputs. `full` is what the benchmark runs; tests use
/// `tiny` so the whole harness runs in a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub num_slash16: u32,
    pub censys_top_ports: usize,
    pub seed_fraction: f64,
    pub lzr_sample: f64,
    pub lzr_seed_share: f64,
    /// Queries pre-generated per traffic shape.
    pub stream_len: usize,
    /// Leading queries of a stream replayed (and all verified) as the
    /// warm-up pass of a serving set-up.
    pub warmup_len: usize,
    /// Distinct evidence ports wide traffic draws from.
    pub wide_port_pool: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            num_slash16: 32,
            censys_top_ports: 2000,
            seed_fraction: 0.02,
            lzr_sample: 0.32,
            lzr_seed_share: 0.0625,
            stream_len: 200_000,
            warmup_len: 10_000,
            wide_port_pool: 200,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            num_slash16: 4,
            censys_top_ports: 200,
            seed_fraction: 0.05,
            lzr_sample: 0.3,
            lzr_seed_share: 0.5,
            stream_len: 4_000,
            warmup_len: 500,
            wide_port_pool: 50,
        }
    }
}

pub fn generate_universe(scale: &Scale) -> Internet {
    Internet::generate(&UniverseConfig {
        seed: WORLD_SEED,
        num_slash16: scale.num_slash16,
        ..UniverseConfig::default()
    })
}

pub fn gps_config(scale: &Scale) -> GpsConfig {
    GpsConfig {
        seed_fraction: scale.seed_fraction,
        step_prefix: 16,
        ..GpsConfig::default()
    }
}

/// Which §6.1 dataset an offline run scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    Censys,
    Lzr,
}

pub fn build_dataset(kind: DatasetKind, net: &Internet, scale: &Scale) -> Dataset {
    match kind {
        DatasetKind::Censys => censys_dataset(
            net,
            scale.censys_top_ports,
            scale.seed_fraction,
            0,
            WORLD_SEED ^ 0xDA7A,
        ),
        DatasetKind::Lzr => lzr_dataset(
            net,
            scale.lzr_sample,
            scale.lzr_seed_share,
            2,
            0,
            WORLD_SEED ^ 0x12E,
        ),
    }
}

/// The numbers of one pipeline run that are exact for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub coverage: f64,
    pub scan_units: f64,
    pub precision: f64,
    pub predictions: u64,
}

impl Quality {
    pub fn of(run: &GpsRun) -> Quality {
        Quality {
            coverage: run.fraction_of_services(),
            scan_units: run.total_scans(),
            precision: run.curve.last().precision,
            predictions: run.predictions_total as u64,
        }
    }
}

/// One timed `run_gps` call with the process CPU it used.
pub struct PipelineRun {
    pub run: GpsRun,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn timed_pipeline(
    net: &Internet,
    dataset: &Dataset,
    config: &GpsConfig,
    tracer: &mut Tracer,
) -> PipelineRun {
    let cpu_before = crate::proc::cpu_seconds();
    let (run, wall_s) = tracer.timed("core.pipeline.run_gps", |_| run_gps(net, dataset, config));
    PipelineRun {
        run,
        wall_s,
        cpu_s: crate::proc::cpu_seconds() - cpu_before,
    }
}

/// Every service a run found must be a test-side service of its dataset.
pub fn found_outside_test(run: &GpsRun, dataset: &Dataset) -> u64 {
    run.found.iter().filter(|key| !dataset.in_test(key)).count() as u64
}

/// A snapshot's trip through the GPSB container, timed per step.
pub struct SnapshotTrip {
    pub bytes: Vec<u8>,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub from_snapshot_ms: f64,
    pub model: ServableModel,
}

impl SnapshotTrip {
    /// What a hot reload costs: GPSB bytes to a query-ready model.
    pub fn load_ms(&self) -> f64 {
        self.decode_ms + self.from_snapshot_ms
    }
}

/// `GpsRun` → GPSB bytes → snapshot → query-ready model, the only way a
/// model reaches a server in this harness.
pub fn snapshot_trip(
    run: &GpsRun,
    config: &GpsConfig,
    tracer: &mut Tracer,
) -> Result<SnapshotTrip, String> {
    let (bytes, encode_s) = tracer.timed("core.snapshot.encode", |_| {
        ModelSnapshot::from_run(run, config, WORLD_SEED).to_binary_bytes()
    });
    let (model, decode_s, from_snapshot_s) = load_model(&bytes, tracer)?;
    Ok(SnapshotTrip {
        bytes,
        encode_ms: encode_s * 1e3,
        decode_ms: decode_s * 1e3,
        from_snapshot_ms: from_snapshot_s * 1e3,
        model,
    })
}

/// GPSB bytes → query-ready model; returns the decode and
/// `from_snapshot` seconds.
pub fn load_model(bytes: &[u8], tracer: &mut Tracer) -> Result<(ServableModel, f64, f64), String> {
    let (snapshot, decode_s) = tracer.timed("core.snapshot.decode", |_| {
        ModelSnapshot::from_binary_bytes(bytes)
    });
    let snapshot = snapshot.map_err(|e| format!("GPSB bytes did not load back: {e}"))?;
    let (model, from_snapshot_s) = tracer.timed("serve.artifact.from_snapshot", |_| {
        ServableModel::from_snapshot(snapshot)
    });
    Ok((model, decode_s, from_snapshot_s))
}

/// One `snapshot_load_ms` sample: GPSB bytes to a query-ready model.
pub fn timed_load_ms(bytes: &[u8], tracer: &mut Tracer) -> Result<f64, String> {
    let (_, decode_s, from_snapshot_s) = load_model(bytes, tracer)?;
    Ok((decode_s + from_snapshot_s) * 1e3)
}

/// The ports a run predicted most often, most-predicted first (ties by
/// port number, so the list is a pure function of the run).
pub fn most_predicted_ports(run: &GpsRun, count: usize) -> Vec<u16> {
    let mut ports: Vec<(u64, u16)> = run
        .predictions_per_port
        .iter()
        .map(|(&port, &n)| (n, port))
        .collect();
    ports.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ports
        .into_iter()
        .take(count)
        .map(|(_, port)| port)
        .collect()
}

/// The two traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// At most `blocks × 4` distinct cache keys: every query is an L1 hit
    /// once warm.
    Hot,
    /// 3–6 evidence ports per query out of a pool: far more distinct keys
    /// than both cache layers hold, so every query reaches the kernel.
    Wide,
}

/// Pre-generated queries with the answer the model must give to each.
pub struct Stream {
    pub queries: Vec<Query>,
    pub expected: Vec<Ranked>,
}

/// Answers per query every workload asks for.
pub const TOP: usize = 8;

/// Generate one traffic shape. IPs are uniform in the /16 of a random
/// host; `evidence_pool` is only read for [`Shape::Wide`].
pub fn generate_queries(
    shape: Shape,
    host_ips: &[u32],
    evidence_pool: &[u16],
    len: usize,
    seed: u64,
) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x7AFF1C);
    (0..len)
        .map(|_| {
            let anchor = *rng.choose(host_ips);
            let ip = Ip((anchor & 0xFFFF_0000) | (rng.next_u32() & 0xFFFF));
            // Both shapes draw the same IPs: the evidence draw below uses
            // a fork, so it never shifts the IP sequence.
            let mut evidence = rng.fork(ip.0 as u64);
            let mut query = Query::new(ip);
            query.top = TOP;
            match shape {
                Shape::Hot => {
                    if evidence.chance(0.2) {
                        query = query.with_open([[80u16, 443, 22][evidence.gen_range(3) as usize]]);
                    }
                }
                Shape::Wide => {
                    let want = (3 + evidence.gen_range(4) as usize).min(evidence_pool.len());
                    let mut open: Vec<u16> = evidence
                        .sample_indices(evidence_pool.len(), want)
                        .into_iter()
                        .map(|i| evidence_pool[i])
                        .collect();
                    open.sort_unstable();
                    query = query.with_open(open);
                }
            }
            query
        })
        .collect()
}

/// The oracle: what the model answers, query by query. Every 64th answer
/// comes from `ServableModel::predict`, which starts from fresh working
/// memory; the rest reuse one `PredictScratch`, because a fresh one costs
/// a megabyte of zeroed memory per warm query (8 s for a wide stream).
/// Served answers must equal both kinds bit for bit.
pub fn expected_answers(model: &ServableModel, queries: &[Query]) -> Vec<Ranked> {
    let mut scratch = PredictScratch::default();
    queries
        .iter()
        .enumerate()
        .map(|(index, query)| {
            if index % 64 == 0 {
                model.predict(query)
            } else {
                model.predict_with(&mut scratch, query)
            }
        })
        .collect()
}

pub fn build_stream(
    shape: Shape,
    model: &ServableModel,
    host_ips: &[u32],
    evidence_pool: &[u16],
    scale: &Scale,
    seed: u64,
) -> Arc<Stream> {
    let queries = generate_queries(shape, host_ips, evidence_pool, scale.stream_len, seed);
    let expected = expected_answers(model, &queries);
    Arc::new(Stream { queries, expected })
}

/// Bit-for-bit equality of two rankings: same ports in the same order,
/// same probability bits.
pub fn same_answer(got: &Ranked, want: &Ranked) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts() -> Vec<u32> {
        vec![0x0A01_0203, 0x0A02_0405, 0x0B03_0607]
    }

    #[test]
    fn a_seed_reproduces_byte_identical_traffic() {
        let pool: Vec<u16> = (1..=50).collect();
        for shape in [Shape::Hot, Shape::Wide] {
            let a = generate_queries(shape, &hosts(), &pool, 2000, 41);
            let b = generate_queries(shape, &hosts(), &pool, 2000, 41);
            let c = generate_queries(shape, &hosts(), &pool, 2000, 42);
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn shapes_share_ips_and_differ_in_evidence() {
        let pool: Vec<u16> = (1..=50).collect();
        let hot = generate_queries(Shape::Hot, &hosts(), &pool, 3000, 7);
        let wide = generate_queries(Shape::Wide, &hosts(), &pool, 3000, 7);
        assert!(hot.iter().zip(&wide).all(|(h, w)| h.ip == w.ip));
        let blocks: std::collections::HashSet<u32> = hot.iter().map(|q| q.ip.0 >> 16).collect();
        assert_eq!(blocks.len(), 3);
        let with_evidence = hot.iter().filter(|q| !q.open.is_empty()).count();
        assert!((400..800).contains(&with_evidence), "{with_evidence}");
        assert!(hot.iter().all(|q| q.open.len() <= 1 && q.top == TOP));
        // Hot traffic has at most blocks × (cold + 3 evidence ports) keys.
        let keys: std::collections::HashSet<(u32, Vec<u16>)> = hot
            .iter()
            .map(|q| (q.ip.0 >> 16, q.open.iter().map(|p| p.0).collect()))
            .collect();
        assert!(keys.len() <= 12);
        for q in &wide {
            assert!((3..=6).contains(&q.open.len()));
            assert!(
                q.open.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted, distinct"
            );
        }
        let wide_keys: std::collections::HashSet<(u32, Vec<u16>)> = wide
            .iter()
            .map(|q| (q.ip.0 >> 16, q.open.iter().map(|p| p.0).collect()))
            .collect();
        assert!(wide_keys.len() > 2900, "{}", wide_keys.len());
    }

    #[test]
    fn same_answer_compares_bits() {
        use gps_types::Port;
        let a: Ranked = vec![(Port(80), 0.5), (Port(22), 0.25)];
        assert!(same_answer(&a, &a.clone()));
        let mut b = a.clone();
        b[1].1 = f64::from_bits(b[1].1.to_bits() + 1);
        assert!(!same_answer(&a, &b));
        assert!(!same_answer(&a, &a[..1].to_vec()));
        let zero: Ranked = vec![(Port(1), 0.0)];
        let neg_zero: Ranked = vec![(Port(1), -0.0)];
        assert!(!same_answer(&zero, &neg_zero));
    }
}
