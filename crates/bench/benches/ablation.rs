//! Ablation bench: which of the four interaction classes (Eq. 4–7) costs
//! what to model, and what each buys in predictive coverage.
//!
//! DESIGN.md calls this design choice out: GPS "independently models
//! different interactions of the three primary feature categories" and
//! §6.6 shows all of them contribute selected rules. The bench measures the
//! model-build cost of each configuration; the companion numbers (rules
//! produced per configuration) are printed once at startup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gps_core::{group_by_host, FeatureRules, Interactions, NetFeature};
use gps_scan::{ScanConfig, ScanPhase, Scanner};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::Ip;

const CONFIGS: [(&str, Interactions); 4] = [
    (
        "eq4_transport",
        Interactions {
            transport: true,
            transport_app: false,
            transport_net: false,
            transport_app_net: false,
        },
    ),
    (
        "eq4+5_app",
        Interactions {
            transport: true,
            transport_app: true,
            transport_net: false,
            transport_app_net: false,
        },
    ),
    (
        "eq4+6_net",
        Interactions {
            transport: true,
            transport_app: false,
            transport_net: true,
            transport_app_net: false,
        },
    ),
    ("eq4..7_all", Interactions::ALL),
];

fn bench_ablation(c: &mut Criterion) {
    let net = Internet::generate(&UniverseConfig::tiny(107));
    let mut scanner = Scanner::new(&net, ScanConfig::default());
    let take = net.host_ips().len() / 5;
    let ips: Vec<Ip> = net.host_ips().iter().take(take).map(|&ip| Ip(ip)).collect();
    let observations = scanner.scan_ip_set(ScanPhase::Seed, ips, &net.all_ports());
    let (observations, _) = gps_core::filter_pseudo_services(observations);
    let hosts = group_by_host(
        &observations,
        &[NetFeature::Slash(16), NetFeature::Asn],
        &|ip| net.asn_of(ip).map(|a| a.0),
    );

    // One-time report: what each configuration yields.
    for (name, interactions) in CONFIGS {
        let (model, stats) = gps_core::CondModel::build(&hosts, interactions);
        let rules = FeatureRules::build(&model, &hosts, 1e-5);
        eprintln!(
            "[ablation] {name}: {} keys, {} co-occurrence entries, {} rules",
            stats.distinct_keys,
            stats.cooccur_entries,
            rules.len()
        );
    }

    let mut group = c.benchmark_group("interaction_ablation");
    group.sample_size(10);
    for (name, interactions) in CONFIGS {
        group.bench_with_input(BenchmarkId::new("build", name), &interactions, |b, &ix| {
            b.iter(|| gps_core::CondModel::build(&hosts, ix))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
