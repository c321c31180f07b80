//! Benchmark: GPSB snapshot load and encode time.
//!
//! The serving subsystem's restart/reload latency is dominated by parsing
//! the snapshot. This bench trains once on the quick universe, saves the
//! model, and measures `ModelSnapshot::load` — what `gps serve` and a hot
//! reload pay before `ServableModel::from_snapshot` — and
//! `to_binary_bytes`, what `gps export-model` pays after compiling the
//! rules once. The load decodes the RULE arena in bulk and re-validates
//! it; it compiles nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use gps_core::{censys_dataset, run_gps, GpsConfig, ModelSnapshot};
use gps_synthnet::{Internet, UniverseConfig};

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

fn bench_snapshot_load(c: &mut Criterion) {
    let snapshot = trained_snapshot();
    let path = std::env::temp_dir().join(format!("gps_bench_snapshot_{}.gpsb", std::process::id()));
    snapshot.save_binary(&path).expect("save");
    let size = std::fs::metadata(&path).expect("meta").len();
    eprintln!("snapshot size: {size} bytes");

    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(20);
    group.bench_function("load", |b| {
        b.iter(|| ModelSnapshot::load(&path).expect("load"))
    });
    group.bench_function("encode", |b| b.iter(|| snapshot.to_binary_bytes()));
    group.finish();

    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_snapshot_load);
criterion_main!(benches);
