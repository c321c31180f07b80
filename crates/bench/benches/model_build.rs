//! Benchmark: the conditional-probability model build (§5.2 / §6.5).
//!
//! This is the computation the paper runs on BigQuery in 13 minutes and on
//! one core in ~9 days: the pairwise co-occurrence matrix over the seed
//! set. We measure the one sequential fold at growing seed sizes — the
//! scaling behaviour behind Table 2's compute rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gps_core::{group_by_host, Interactions, NetFeature};
use gps_scan::{ScanConfig, ScanPhase, Scanner};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::Ip;

fn seed_hosts(net: &Internet, fraction: f64) -> Vec<gps_core::HostRecord> {
    let mut scanner = Scanner::new(net, ScanConfig::default());
    let take = (net.host_ips().len() as f64 * fraction) as usize;
    let ips: Vec<Ip> = net.host_ips().iter().take(take).map(|&ip| Ip(ip)).collect();
    let observations = scanner.scan_ip_set(ScanPhase::Seed, ips, &net.all_ports());
    let (observations, _) = gps_core::filter_pseudo_services(observations);
    group_by_host(
        &observations,
        &[NetFeature::Slash(16), NetFeature::Asn],
        &|ip| net.asn_of(ip).map(|a| a.0),
    )
}

fn bench_model_build(c: &mut Criterion) {
    let net = Internet::generate(&UniverseConfig::tiny(99));
    let mut group = c.benchmark_group("model_build");
    group.sample_size(10);

    for fraction in [0.05, 0.2, 0.5] {
        let hosts = seed_hosts(&net, fraction);
        group.throughput(criterion::Throughput::Elements(hosts.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("build", hosts.len()),
            &hosts,
            |b, hosts| b.iter(|| gps_core::CondModel::build(hosts, Interactions::ALL)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_model_build);
criterion_main!(benches);
