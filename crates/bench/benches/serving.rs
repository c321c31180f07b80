//! Benchmark: the prediction-serving subsystem.
//!
//! Measures the in-process server API: single-query latency (`predict`)
//! and batched throughput (`predict_batch`), both running the kernel on
//! the bench thread.

use criterion::{criterion_group, criterion_main, Criterion};
use gps_core::{censys_dataset, run_gps, GpsConfig, ModelSnapshot};
use gps_serve::{PredictionServer, Query, ServableModel, ServeConfig};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::rng::Rng;
use gps_types::Ip;

fn trained_snapshot() -> ModelSnapshot {
    let net = Internet::generate(&UniverseConfig::tiny(77));
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let config = GpsConfig {
        seed_fraction: 0.05,
        step_prefix: 16,
        ..GpsConfig::default()
    };
    let run = run_gps(&net, &dataset, &config);
    ModelSnapshot::from_run(&run, &config, 77)
}

fn queries(snapshot: &ModelSnapshot, count: usize) -> Vec<Query> {
    // Query IPs drawn from the trained priors subnets (64 distinct
    // subnets).
    let mut rng = Rng::new(0xBE7C);
    let subnets: Vec<u32> = snapshot
        .priors
        .iter()
        .take(64)
        .map(|e| e.subnet.base().0)
        .collect();
    (0..count)
        .map(|_| {
            let base = subnets[rng.gen_range(subnets.len() as u64) as usize];
            let mut query = Query::new(Ip(base | (rng.next_u32() & 0xFFFF)));
            if rng.chance(0.2) {
                query = query.with_open([443u16]);
            }
            query.top = 8;
            query
        })
        .collect()
}

fn bench_serving(c: &mut Criterion) {
    let snapshot = trained_snapshot();
    let workload = queries(&snapshot, 4096);

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    let server = PredictionServer::start(
        ServableModel::from_snapshot(snapshot),
        ServeConfig::default(),
    );
    group.throughput(criterion::Throughput::Elements(1));
    group.bench_function("single_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let query = workload[i % workload.len()].clone();
            i += 1;
            server.predict(query)
        });
    });
    group.throughput(criterion::Throughput::Elements(workload.len() as u64));
    group.bench_function("batched_4096", |b| {
        b.iter(|| server.predict_batch(workload.clone()))
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
