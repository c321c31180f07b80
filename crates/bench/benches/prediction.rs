//! Benchmark: rule construction and prediction matching (§5.4).
//!
//! The "Predicting Remaining Services" stage of Table 2: build the
//! most-predictive-features list from the seed, then match priors-scan
//! hosts against it to emit the predictions list.

use criterion::{criterion_group, criterion_main, Criterion};
use gps_core::{
    build_predictions, group_by_host, CompiledRules, FeatureRules, Interactions, NetFeature,
};
use gps_scan::{ScanConfig, ScanPhase, Scanner};
use gps_synthnet::{Internet, UniverseConfig};
use gps_types::{IntSet, Ip};

fn bench_prediction(c: &mut Criterion) {
    let net = Internet::generate(&UniverseConfig::tiny(101));
    let mut scanner = Scanner::new(&net, ScanConfig::default());
    let take = net.host_ips().len() / 5;
    let ips: Vec<Ip> = net.host_ips().iter().take(take).map(|&ip| Ip(ip)).collect();
    let observations = scanner.scan_ip_set(ScanPhase::Seed, ips, &net.all_ports());
    let (observations, _) = gps_core::filter_pseudo_services(observations);
    let net_features = [NetFeature::Slash(16), NetFeature::Asn];
    let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
    let hosts = group_by_host(&observations, &net_features, &asn_of);
    let (model, _) = gps_core::CondModel::build(&hosts, Interactions::ALL);

    // Priors-scan stand-in: the *next* 20% of hosts.
    let prior_ips: Vec<Ip> = net
        .host_ips()
        .iter()
        .skip(take)
        .take(take)
        .map(|&ip| Ip(ip))
        .collect();
    let prior_observations = scanner.scan_ip_set(ScanPhase::Priors, prior_ips, &net.all_ports());
    let prior_hosts = group_by_host(&prior_observations, &net_features, &asn_of);
    let known: IntSet<(u32, u16)> = observations.iter().map(|o| (o.ip.0, o.port.0)).collect();

    let mut group = c.benchmark_group("prediction");
    group.sample_size(10);
    group.bench_function("rules_build", |b| {
        b.iter(|| FeatureRules::build(&model, &hosts, 1e-5))
    });
    let rules = FeatureRules::build(&model, &hosts, 1e-5);
    let compiled = CompiledRules::from_rules(&rules);
    group.throughput(criterion::Throughput::Elements(prior_hosts.len() as u64));
    group.bench_function("match_priors_hosts", |b| {
        b.iter(|| build_predictions(&compiled, &prior_hosts, &known, usize::MAX))
    });
    group.finish();

    // The serving-side warm query: the same rules behind a
    // `ServableModel`, answered per query. `scratch_reuse` is the
    // server's path (one `PredictScratch` per serving thread);
    // `fresh_alloc` is what every query paid before — the per-query
    // `HashMap` was the hot-path allocation this pair exists to keep
    // honest.
    let servable = {
        use gps_core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
        gps_serve::ServableModel::from_snapshot(gps_core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 101,
                dataset_name: "bench".into(),
                step_prefix: 16,
                min_prob: 1e-5,
                interactions: Interactions::ALL,
                net_features: net_features.to_vec(),
                hosts_in: hosts.len(),
                distinct_keys: 0,
                cooccur_entries: 0,
                num_rules: rules.len(),
                num_priors: 0,
                checksum: 0,
            },
            rules: compiled,
            priors: Vec::new(),
        })
    };
    let queries: Vec<gps_serve::Query> = net
        .host_ips()
        .iter()
        .take(512)
        .enumerate()
        .map(|(i, &ip)| {
            let mut query = gps_serve::Query::new(Ip(ip))
                .with_open([[80u16, 443, 22][i % 3], [21u16, 8080, 53][i % 3]]);
            query.asn = net.asn_of(Ip(ip)).map(|a| a.0);
            query.top = 16;
            query
        })
        .collect();
    let mut group = c.benchmark_group("serve_warm_query");
    group.throughput(criterion::Throughput::Elements(queries.len() as u64));
    group.bench_function("fresh_alloc", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for query in &queries {
                answered += servable.predict(query).len();
            }
            answered
        })
    });
    group.bench_function("scratch_reuse", |b| {
        let mut scratch = gps_serve::PredictScratch::default();
        b.iter(|| {
            let mut answered = 0usize;
            for query in &queries {
                answered += servable.predict_with(&mut scratch, query).len();
            }
            answered
        })
    });
    group.finish();
}

criterion_group!(benches, bench_prediction);
criterion_main!(benches);
