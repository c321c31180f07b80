//! End-to-end integration: the full GPS pipeline against baselines on a
//! small universe.

use gps::prelude::*;

fn universe() -> Internet {
    Internet::generate(&UniverseConfig::tiny(1234))
}

fn quick_config() -> GpsConfig {
    GpsConfig {
        step_prefix: 16,
        curve_points: 32,
        ..GpsConfig::default()
    }
}

#[test]
fn gps_finds_majority_of_censys_services() {
    let net = universe();
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let run = run_gps(&net, &dataset, &quick_config());
    assert!(
        run.fraction_of_services() > 0.5,
        "GPS must find most services; got {:.3}",
        run.fraction_of_services()
    );
    // Everything it claims to have found is real and in the test set.
    for key in run.found.iter().take(500) {
        assert!(dataset.in_test(key));
        assert!(net.service(key.ip, key.port, 0).is_some());
    }
}

#[test]
fn gps_beats_exhaustive_at_equal_coverage() {
    let net = universe();
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let run = run_gps(&net, &dataset, &quick_config());
    let exhaustive = optimal_port_order_curve(&net, &dataset, usize::MAX);

    // At a mid-coverage point both systems reach, GPS must be cheaper.
    let target = (run.fraction_of_services() * 0.9).max(0.3);
    let gps_cost = run
        .curve
        .scans_to_reach_all(target)
        .expect("GPS reaches target");
    let ex_cost = exhaustive
        .scans_to_reach_all(target)
        .expect("exhaustive reaches target");
    assert!(
        gps_cost < ex_cost,
        "GPS ({gps_cost:.1}) must beat exhaustive ({ex_cost:.1}) at {target:.2} coverage"
    );
}

#[test]
fn oracle_dominates_gps_dominates_random() {
    let net = universe();
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let run = run_gps(&net, &dataset, &quick_config());
    let oracle = oracle_curve(&dataset, net.universe_size(), 16);
    let random = random_probe_curve(&dataset, net.universe_size(), net.port_space() as u64, 16);

    let target = (run.fraction_of_services() * 0.9).max(0.3);
    let gps_cost = run.curve.scans_to_reach_all(target).unwrap();
    let oracle_cost = oracle.scans_to_reach_all(target).unwrap();
    let random_cost = random.scans_to_reach_all(target).unwrap();
    assert!(oracle_cost < gps_cost, "oracle must dominate GPS");
    assert!(gps_cost < random_cost, "GPS must dominate random probing");
}

#[test]
fn lzr_workload_with_port_filter() {
    let net = universe();
    let dataset = lzr_dataset(&net, 0.4, 0.25, 2, 0, 3);
    // Every test port has >2 responsive IPs (the paper's filter).
    for (&port, &count) in dataset.test.per_port() {
        assert!(count > 2, "port {port} kept with {count} IPs");
    }
    let run = run_gps(&net, &dataset, &quick_config());
    assert!(
        run.fraction_of_services() > 0.3,
        "got {}",
        run.fraction_of_services()
    );
}

#[test]
fn budget_constrains_total_probes() {
    let net = universe();
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let free = run_gps(&net, &dataset, &quick_config());
    let seed_cost = free
        .ledger
        .full_scans_phase(ScanPhase::Seed, net.universe_size());
    let budget = seed_cost + (free.total_scans() - seed_cost) / 2.0;
    let capped = run_gps(
        &net,
        &dataset,
        &GpsConfig {
            budget_scans: Some(budget),
            ..quick_config()
        },
    );
    assert!(capped.truncated_by_budget);
    assert!(capped.total_scans() <= budget * 1.05 + 0.05);
    assert!(capped.found.len() <= free.found.len());
    assert!(
        capped.found.is_subset(&free.found),
        "budget must only remove discoveries"
    );
}

#[test]
fn runs_are_deterministic_across_repeats() {
    let net = universe();
    let dataset = censys_dataset(&net, 150, 0.05, 0, 2);
    let a = run_gps(&net, &dataset, &quick_config());
    let b = run_gps(&net, &dataset, &quick_config());
    assert_eq!(a.found, b.found);
    assert_eq!(a.predictions_total, b.predictions_total);
    assert_eq!(a.ledger.total_probes(), b.ledger.total_probes());
}

#[test]
fn discovery_curve_is_monotone() {
    let net = universe();
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let run = run_gps(&net, &dataset, &quick_config());
    let pts = &run.curve.points;
    assert!(pts.len() > 4);
    assert!(pts.windows(2).all(|w| w[0].scans <= w[1].scans + 1e-12));
    assert!(pts.windows(2).all(|w| w[0].found <= w[1].found));
    assert!(pts
        .windows(2)
        .all(|w| w[0].fraction_normalized <= w[1].fraction_normalized + 1e-12));
    for p in pts {
        assert!((0.0..=1.0).contains(&p.fraction_all));
        assert!((0.0..=1.0).contains(&p.fraction_normalized));
        assert!(p.precision >= 0.0);
    }
}

/// FNV-1a over each prediction's `(ip u32, port u16, prob bits u64)`,
/// little-endian.
fn predictions_digest(predictions: &[gps::core::Prediction]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in predictions {
        let bytes =
            p.ip.0
                .to_le_bytes()
                .into_iter()
                .chain(p.port.0.to_le_bytes())
                .chain(p.prob.to_bits().to_le_bytes());
        for byte in bytes {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The predictions list `run_gps` scanned, rebuilt from the run's public
/// parts: the priors scan is replayed over the entries the run scanned,
/// keeping each response the seed did not already see, and the run's own
/// rules expand the responsive hosts with the seed's services excluded.
fn replayed_predictions(
    net: &Internet,
    dataset: &Dataset,
    config: &GpsConfig,
    run: &GpsRun,
) -> Vec<gps::core::Prediction> {
    let mut scanner = Scanner::new(
        net,
        ScanConfig {
            day: dataset.day,
            ip_filter: dataset.visible_ips.clone(),
            port_filter: dataset.ports.clone(),
            ..ScanConfig::default()
        },
    );
    let mut seen: std::collections::HashSet<(u32, u16)> = run
        .seed_host_records
        .iter()
        .flat_map(|h| h.services.iter().map(move |s| (h.ip.0, s.port.0)))
        .collect();
    let mut prior_observations = Vec::new();
    for entry in &run.priors_list[..run.priors_scanned] {
        for obs in scanner.scan_subnet_port(ScanPhase::Priors, entry.subnet, entry.port) {
            if seen.insert((obs.ip.0, obs.port.0)) {
                prior_observations.push(obs);
            }
        }
    }
    let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
    let prior_hosts = gps::core::group_by_host(&prior_observations, &config.net_features, &asn_of);
    gps::core::build_predictions(
        &gps::core::CompiledRules::from_rules(&run.rules),
        &prior_hosts,
        &run.seed_host_records,
        config.max_predictions,
    )
}

/// Bit-identity pin of the whole pipeline on one Censys-style and one
/// LZR-style tiny run: the digest and length of the predictions list,
/// the found set's size, and the probes charged per phase. A change to the
/// scan chain, grouping, hashing or expansion that is meant to be
/// behaviour-preserving must leave every number here unchanged.
#[test]
fn run_gps_outputs_are_pinned() {
    let net = universe();
    let config = quick_config();
    // (name, dataset, digest, predictions, found, probes per ScanPhase::ALL)
    let cases = [
        (
            "censys",
            censys_dataset(&net, 200, 0.05, 0, 1),
            0xdbb6_8fa0_dd8e_2afau64,
            51_210usize,
            39_831usize,
            [2_630_954u64, 14_333_758, 51_428, 0],
        ),
        (
            "lzr",
            lzr_dataset(&net, 0.4, 0.25, 2, 0, 3),
            0xdcef_768d_ea1a_c3bc,
            17_354,
            12_480,
            [322_192_829, 13_899_099, 17_373, 0],
        ),
    ];
    for (name, dataset, digest, predictions, found, probes) in cases {
        let run = run_gps(&net, &dataset, &config);
        let replayed = replayed_predictions(&net, &dataset, &config, &run);
        assert_eq!(
            replayed.len(),
            run.predictions_total,
            "{name}: replay length"
        );
        assert_eq!(predictions_digest(&replayed), digest, "{name}: digest");
        assert_eq!(replayed.len(), predictions, "{name}: predictions");
        assert_eq!(run.found.len(), found, "{name}: found");
        let got_probes = ScanPhase::ALL.map(|phase| run.ledger.probes(phase));
        assert_eq!(got_probes, probes, "{name}: probes per phase");
    }
}

/// FNV-1a over every model key in sorted `CondKey` order, little-endian:
/// the key's class, anchor port, feature `(kind, Sym)` and network key
/// when it has them, then `hosts` and each `(target port, count)`. Lengths
/// precede each list.
fn model_digest(model: &gps::core::CondModel) -> u64 {
    use gps::core::{CondKey, NetKey};
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut keys: Vec<(&CondKey, &gps::core::KeyStats)> = model.iter().collect();
    keys.sort_unstable_by_key(|&(key, _)| *key);
    bytes(&(keys.len() as u64).to_le_bytes());
    for (key, stats) in keys {
        bytes(&[key.class()]);
        bytes(&key.port().0.to_le_bytes());
        if let Some(f) = key.app() {
            bytes(&[f.kind.index() as u8]);
            bytes(&f.value.0.to_le_bytes());
        }
        match key.net() {
            Some(NetKey::Slash(len, base)) => {
                bytes(&[0, len]);
                bytes(&base.to_le_bytes());
            }
            Some(NetKey::Asn(asn)) => {
                bytes(&[1]);
                bytes(&asn.to_le_bytes());
            }
            None => {}
        }
        bytes(&stats.hosts.to_le_bytes());
        bytes(&(stats.targets.len() as u64).to_le_bytes());
        for &(port, count) in &stats.targets {
            bytes(&port.0.to_le_bytes());
            bytes(&count.to_le_bytes());
        }
    }
    hash
}

/// Bit-identity pin of the co-occurrence model on the same two tiny runs
/// as [`run_gps_outputs_are_pinned`]: every key, including those below
/// the §5.4 cut that no rule keeps, plus the build's key and entry counts
/// and the engine ledger it charges.
#[test]
fn model_is_pinned() {
    let net = universe();
    let config = quick_config();
    // (name, dataset, digest, distinct_keys, cooccur_entries,
    //  ledger rows, bytes, queries)
    let cases = [
        (
            "censys",
            censys_dataset(&net, 200, 0.05, 0, 1),
            0x018d_7645_b9ae_3bcbu64,
            3_282usize,
            10_797u64,
            [3_406u64, 81_744, 1],
        ),
        (
            "lzr",
            lzr_dataset(&net, 0.4, 0.25, 2, 0, 3),
            0xf39f_9732_fe2b_d8bf,
            3_635,
            13_533,
            [6_458, 154_992, 1],
        ),
    ];
    for (name, dataset, digest, keys, entries, ledger) in cases {
        let run = run_gps(&net, &dataset, &config);
        assert_eq!(model_digest(&run.model), digest, "{name}: digest");
        assert_eq!(run.model.len(), keys, "{name}: model keys");
        assert_eq!(run.model_stats.distinct_keys, keys, "{name}: distinct_keys");
        assert_eq!(
            run.model_stats.cooccur_entries, entries,
            "{name}: cooccur_entries"
        );
        let got_ledger = [
            run.engine_ledger.rows_processed(),
            run.engine_ledger.bytes_processed(),
            run.engine_ledger.queries(),
        ];
        assert_eq!(got_ledger, ledger, "{name}: engine ledger");
    }
}

/// FNV-1a over a whole universe, little-endian: each host in address order
/// (ip, template, `ttl_base`, then per service its port, protocol,
/// placement, forwarded flag, ttl, `dies_day` and every feature's
/// `(kind, Sym)`), each middlebox, the resolved string of every `Sym`
/// seen, and the interner's size. Lengths precede each list.
fn universe_digest(net: &Internet) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut syms = std::collections::BTreeSet::new();
    h.bytes(&(net.host_ips().len() as u64).to_le_bytes());
    for &ip in net.host_ips() {
        let host = net.host(Ip(ip)).expect("listed host exists");
        h.bytes(&ip.to_le_bytes());
        h.bytes(&host.template.to_le_bytes());
        h.bytes(&[host.ttl_base]);
        h.bytes(&(host.services.len() as u64).to_le_bytes());
        for s in &host.services {
            h.bytes(&s.port.0.to_le_bytes());
            h.bytes(&[
                s.protocol.index() as u8,
                s.placement as u8,
                s.forwarded as u8,
                s.ttl,
            ]);
            h.bytes(&s.dies_day.to_le_bytes());
            h.bytes(&(s.features.len() as u64).to_le_bytes());
            for f in &s.features {
                h.bytes(&[f.kind.index() as u8]);
                h.bytes(&f.value.0.to_le_bytes());
                syms.insert(f.value);
            }
        }
    }
    h.bytes(&(net.pseudo_hosts().len() as u64).to_le_bytes());
    for p in net.pseudo_hosts() {
        h.bytes(&p.ip.0.to_le_bytes());
        h.bytes(&p.first_port.to_le_bytes());
        h.bytes(&p.last_port.to_le_bytes());
        h.bytes(&p.content.0.to_le_bytes());
        h.bytes(&[p.ttl]);
        syms.insert(p.content);
    }
    for sym in syms {
        let s = net.interner().resolve(sym);
        h.bytes(&sym.0.to_le_bytes());
        h.bytes(&(s.len() as u64).to_le_bytes());
        h.bytes(s.as_bytes());
    }
    h.bytes(&(net.interner().len() as u64).to_le_bytes());
    h.0
}

/// Bit-identity pin of universe generation on two tiny seeds: every host,
/// service, feature `Sym`, middlebox and interned string. A change to
/// generation that is meant to be behaviour-preserving must leave these
/// digests unchanged.
#[test]
fn universe_is_pinned() {
    for (seed, digest) in [
        (1234u64, 0xd606_7d59_c1c5_416fu64),
        (5, 0xf7c2_76a6_8060_43ab),
    ] {
        let net = Internet::generate(&UniverseConfig::tiny(seed));
        assert_eq!(universe_digest(&net), digest, "tiny({seed})");
    }
}

/// The benchmark's world (seed `0x6B5`, 32 /16s). Release-only: run with
/// `cargo test --release --test pipeline_end_to_end -- --ignored universe`.
#[test]
#[ignore]
fn gated_universe_is_pinned() {
    let net = Internet::generate(&UniverseConfig {
        seed: 0x6B5,
        num_slash16: 32,
        ..UniverseConfig::default()
    });
    assert_eq!(universe_digest(&net), 0x75a4_2aaf_c5cf_4d75);
}

/// The experiments' default universe (128 /16s). Release-only, like
/// [`gated_universe_is_pinned`].
#[test]
#[ignore]
fn standard_universe_is_pinned() {
    let net = Internet::generate(&UniverseConfig::standard(0xC0FFEE));
    assert_eq!(universe_digest(&net), 0xead3_0576_e76b_b704);
}

#[test]
fn predictions_never_reprobe_known_services() {
    let net = universe();
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let run = run_gps(&net, &dataset, &quick_config());
    // Found services (test side) must not include seed IPs.
    for key in &run.found {
        assert!(
            !dataset.seed_ips.contains(&key.ip.0),
            "seed host {key} counted as a discovery"
        );
    }
}
