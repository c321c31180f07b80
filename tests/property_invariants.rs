//! Property-based tests over the core data structures and invariants.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use gps::core::metrics::{CoverageTracker, GroundTruth};
use gps::core::{CondKey, CondModel, GpsConfig, Interactions, ModelSnapshot, NetFeature};
use gps::scan::{CyclicPermutation, ServiceObservation};
use gps::serve::{
    Client, PredictScratch, PredictionServer, Query, ReferenceModel, ServableModel, ServeConfig,
    TransportConfig, WireFormat,
};
use gps::types::rng::Rng;
use gps::types::testutil::serve_wires;
use gps::types::{Ip, Port, ServiceKey, Subnet, Sym};
use proptest::prelude::*;

fn arb_services(max: usize) -> impl Strategy<Value = Vec<(u32, u16)>> {
    proptest::collection::vec((0u32..50_000, 1u16..2000), 1..max)
}

proptest! {
    #[test]
    fn subnet_contains_its_members(ip in any::<u32>(), prefix in 0u8..=32) {
        let subnet = Subnet::of_ip(Ip(ip), prefix);
        prop_assert!(subnet.contains(Ip(ip)));
        prop_assert!(subnet.first() <= Ip(ip) && Ip(ip) <= subnet.last());
        // The base is masked.
        prop_assert_eq!(subnet.base().0 & !Subnet::mask(prefix), 0);
    }

    #[test]
    fn subnet_split_partitions(ip in any::<u32>(), prefix in 0u8..32) {
        let parent = Subnet::of_ip(Ip(ip), prefix);
        let (lo, hi) = parent.split().unwrap();
        prop_assert_eq!(lo.size() + hi.size(), parent.size());
        prop_assert!(parent.contains_subnet(lo) && parent.contains_subnet(hi));
        prop_assert!(!lo.contains_subnet(hi) && !hi.contains_subnet(lo));
        // Membership goes to exactly one child.
        prop_assert!(lo.contains(Ip(ip)) ^ hi.contains(Ip(ip)));
    }

    #[test]
    fn permutation_is_bijection(n in 1u64..5000, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let seen: HashSet<u64> = CyclicPermutation::new(n, &mut rng).collect();
        prop_assert_eq!(seen.len() as u64, n);
        prop_assert!(seen.iter().all(|&v| v < n));
    }

    #[test]
    fn coverage_metrics_bounded(services in arb_services(200), probes in 1u64..10_000) {
        let keys: Vec<ServiceKey> = services
            .iter()
            .map(|&(ip, port)| ServiceKey::new(Ip(ip), Port(port)))
            .collect();
        let ground = GroundTruth::from_services(keys.clone());
        let mut tracker = CoverageTracker::new(&ground);
        tracker.charge_probes(probes);
        // Record a prefix of the ground truth plus some junk.
        for key in keys.iter().take(keys.len() / 2) {
            tracker.record(*key);
        }
        tracker.record(ServiceKey::new(Ip(u32::MAX), Port(65535)));
        prop_assert!((0.0..=1.0).contains(&tracker.fraction_of_services()));
        prop_assert!((0.0..=1.0).contains(&tracker.normalized_fraction()));
        prop_assert!(tracker.precision() >= 0.0);
        prop_assert!(tracker.found_count() <= ground.total());
    }

    #[test]
    fn full_recording_reaches_exactly_one(services in arb_services(100)) {
        let keys: Vec<ServiceKey> = services
            .iter()
            .map(|&(ip, port)| ServiceKey::new(Ip(ip), Port(port)))
            .collect();
        let ground = GroundTruth::from_services(keys.clone());
        let mut tracker = CoverageTracker::new(&ground);
        for key in &keys {
            tracker.record(*key);
        }
        prop_assert!((tracker.fraction_of_services() - 1.0).abs() < 1e-9);
        prop_assert!((tracker.normalized_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_probabilities_are_probabilities(services in arb_services(120)) {
        // Build host records from random (ip, port) pairs.
        let observations: Vec<ServiceObservation> = services
            .iter()
            .map(|&(ip, port)| ServiceObservation {
                ip: Ip(ip % 500), // force co-located hosts
                port: Port(port),
                ttl: 64,
                protocol: gps::types::Protocol::Http,
                content: Sym(0),
                features: vec![],
            })
            .collect();
        let hosts = gps::core::group_by_host(
            &observations,
            &[NetFeature::Slash(16), NetFeature::Asn],
            &|_| Some(7),
        );
        let (model, stats) = CondModel::build(&hosts, Interactions::ALL);
        prop_assert_eq!(stats.hosts_in, hosts.len());
        for (key, key_stats) in model.iter() {
            prop_assert!(key_stats.hosts > 0);
            for &(port, count) in &key_stats.targets {
                prop_assert!(count <= key_stats.hosts, "P > 1 for {key:?}");
                let p = model.probability(key, port);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
        // Denominator consistency: hosts(Port(p)) equals the number of host
        // records with p open.
        for host in &hosts {
            for service in &host.services {
                let stats = model.stats(&CondKey::Port(service.port)).unwrap();
                let actual = hosts
                    .iter()
                    .filter(|h| h.services.iter().any(|s| s.port == service.port))
                    .count() as u32;
                prop_assert_eq!(stats.hosts, actual);
            }
        }
    }

    #[test]
    fn filter_is_idempotent(services in arb_services(150)) {
        let observations: Vec<ServiceObservation> = services
            .iter()
            .map(|&(ip, port)| ServiceObservation {
                ip: Ip(ip % 100),
                port: Port(port),
                ttl: 64,
                protocol: gps::types::Protocol::Http,
                content: Sym(ip % 13),
                features: vec![],
            })
            .collect();
        let (once, _) = gps::core::filter_pseudo_services(observations);
        let (twice, stats2) = gps::core::filter_pseudo_services(once.clone());
        prop_assert_eq!(once, twice);
        prop_assert_eq!(stats2.dropped_big_hosts, 0);
    }
}

/// A model trained once on the quick universe, served two ways: from
/// the in-memory artifact and from its GPSB bytes. Training and
/// (de)serialization dominate the cost, so property cases share them.
/// The GPSB bytes ride along for the decoder-rejection properties.
struct ServedArtifacts {
    original: ServableModel,
    /// Served straight from the GPSB bytes — the rule arena arrives
    /// through the RULE section's bulk load rather than being compiled
    /// in-process.
    via_gpsb: ServableModel,
    /// The pre-kernel HashMap implementation over the run's own rule
    /// map, the parity baseline.
    reference: ReferenceModel,
    gpsb_bytes: Vec<u8>,
}

fn served_artifacts() -> &'static ServedArtifacts {
    static ARTIFACTS: OnceLock<ServedArtifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let net = gps::synthnet::Internet::generate(&gps::synthnet::UniverseConfig::tiny(77));
        let dataset = gps::core::censys_dataset(&net, 200, 0.05, 0, 1);
        let config = GpsConfig {
            seed_fraction: 0.05,
            step_prefix: 16,
            ..GpsConfig::default()
        };
        let run = gps::core::run_gps(&net, &dataset, &config);
        let snapshot = ModelSnapshot::from_run(&run, &config, 77);
        let gpsb_bytes = snapshot.to_binary_bytes();
        let from_binary = ModelSnapshot::from_binary_bytes(&gpsb_bytes).expect("binary parses");
        assert_eq!(
            from_binary.to_binary_bytes(),
            gpsb_bytes,
            "save -> load -> save must be byte-identical"
        );
        ServedArtifacts {
            reference: ReferenceModel::new(&run.rules, &snapshot),
            original: ServableModel::from_snapshot(snapshot),
            via_gpsb: ServableModel::from_snapshot(from_binary),
            gpsb_bytes,
        }
    })
}

proptest! {
    /// Save → load of a trained snapshot reproduces identical `predict`
    /// output: for random IPs (cold and with random open-port evidence),
    /// the model served from the GPSB bytes answers exactly like the
    /// model served from the in-memory artifact. Probabilities are
    /// compared bit-exactly — the GPSB f64 bit patterns must round-trip.
    #[test]
    fn snapshot_round_trip_preserves_predictions(
        ips in proptest::collection::vec(any::<u32>(), 1000..1001),
        evidence_port in 1u16..2000,
    ) {
        let artifacts = served_artifacts();
        for (i, ip) in ips.into_iter().enumerate() {
            let mut query = Query::new(Ip(ip));
            query.top = 16;
            if i % 3 == 0 {
                query.open = vec![Port(evidence_port), Port(80)];
            }
            let expected = artifacts.original.predict(&query);
            prop_assert_eq!(&artifacts.via_gpsb.predict(&query), &expected);
        }
    }

    /// The compiled kernel is **bit-identical** to the HashMap reference
    /// path on random warm/cold query mixes: same ports in the same
    /// order, same f64 bit patterns — whether the compiled form was
    /// built in-process or bulk-loaded from the RULE section.
    #[test]
    fn compiled_kernel_matches_reference_bit_identical(
        ips in proptest::collection::vec(any::<u32>(), 200..201),
        open in proptest::collection::vec(1u16..2000, 0..6),
        asn_raw in 0u32..100,
        top in 0usize..20,
    ) {
        // Half the cases carry ASN evidence (the shim has no option::of).
        let asn = if asn_raw < 50 { Some(asn_raw) } else { None };
        let artifacts = served_artifacts();
        let mut scratch = PredictScratch::default();
        let mut best = std::collections::HashMap::new();
        for (i, ip) in ips.into_iter().enumerate() {
            let mut query = Query::new(Ip(ip));
            // Cycle evidence shapes so every case mixes cold and warm.
            if i % 3 != 0 {
                query.open = open.iter().map(|&p| Port(p)).collect();
            }
            query.asn = asn;
            query.top = top;
            let want: Vec<(u16, u64)> = artifacts
                .reference
                .predict_with(&mut best, &query)
                .iter()
                .map(|&(p, v)| (p.0, v.to_bits()))
                .collect();
            for model in [&artifacts.original, &artifacts.via_gpsb] {
                let got: Vec<(u16, u64)> = model
                    .predict_with(&mut scratch, &query)
                    .iter()
                    .map(|&(p, v)| (p.0, v.to_bits()))
                    .collect();
                prop_assert_eq!(&got, &want, "query {:?}", &query);
            }
        }
    }

    /// Any single corrupted byte in a GPSB snapshot makes the decoder
    /// refuse to load it — from bytes and from a file alike.
    #[test]
    fn gpsb_decoder_rejects_corrupted_sections(
        position in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let clean = &served_artifacts().gpsb_bytes;
        let position = (position % clean.len() as u64) as usize;
        let mut corrupt = clean.clone();
        corrupt[position] ^= flip;
        prop_assert!(
            ModelSnapshot::from_binary_bytes(&corrupt).is_err(),
            "flip {flip:#04x} at byte {position} must not load"
        );
        // `gps serve` sees the same corruption through a temp file.
        let path = std::env::temp_dir().join(format!(
            "gps_prop_corrupt_{}_{position}_{flip}.gpsb",
            std::process::id()
        ));
        std::fs::write(&path, &corrupt).expect("write corrupt file");
        let from_file = ModelSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(from_file.is_err(), "file load of flipped byte {position} must fail");
    }

    /// A truncated GPSB file never loads, whatever the cut point.
    #[test]
    fn gpsb_decoder_rejects_truncation(cut in any::<u64>()) {
        let clean = &served_artifacts().gpsb_bytes;
        let cut = (cut % clean.len() as u64) as usize;
        prop_assert!(
            ModelSnapshot::from_binary_bytes(&clean[..cut]).is_err(),
            "prefix of {cut} bytes must not load"
        );
    }

    /// Every front door answers with the model's own bits: the same
    /// random request served over every wire format
    /// yields a **bit-identical** `Ranked` — same ports in the same
    /// order, same probability bit patterns — to the trained artifact's
    /// direct `ServableModel::predict`, for cold and warm queries, single
    /// and batch shapes, an explicit `top` and the server's default.
    #[test]
    fn wire_formats_serve_bit_identical_predictions(
        ips in proptest::collection::vec(any::<u32>(), 24..25),
        evidence_port in 1u16..2000,
        asn in any::<bool>(),
    ) {
        let artifacts = served_artifacts();
        let mut queries = Vec::new();
        let mut expected = Vec::new();
        for (i, ip) in ips.into_iter().enumerate() {
            let mut query = Query::new(Ip(ip));
            // Every other query leaves `top` to the server's default.
            query.top = if i % 2 == 0 { 16 } else { 0 };
            if i % 3 == 0 {
                query.open = vec![Port(evidence_port), Port(80)];
            }
            if asn && i % 4 == 0 {
                query.asn = Some(u32::from(evidence_port));
            }
            let mut direct = query.clone();
            if direct.top == 0 {
                direct.top = ServeConfig::default().default_top;
            }
            expected.push(ranked_bits(&artifacts.original.predict(&direct)));
            queries.push(query);
        }
        for door in parity_doors() {
            let mut client = door.client.lock().expect("client lock");
            for (query, expected) in queries.iter().zip(&expected) {
                let served = client.predict(query).expect("predict");
                prop_assert_eq!(&ranked_bits(&served), expected, "{}: {:?}", door.wire, query);
            }
            // One batch frame carries the same queries.
            let batch = client.predict_batch(&queries).expect("batch");
            prop_assert_eq!(batch.len(), queries.len(), "{}: batch size", door.wire);
            for ((served, expected), query) in batch.iter().zip(&expected).zip(&queries) {
                prop_assert_eq!(
                    &ranked_bits(served),
                    expected,
                    "{}: batch {:?}",
                    door.wire,
                    query
                );
            }
        }
    }

    /// `ServableModel::predict_with` is a function of the evidence *set*:
    /// any permutation and any duplication of `open` gives the same bits.
    /// The warm fold takes a max per port and the ranking sorts by a
    /// total order, so nothing downstream needs the evidence canonical.
    #[test]
    fn predictions_ignore_evidence_order_and_duplicates(
        ip in any::<u32>(),
        open in proptest::collection::vec(1u16..2000, 1..7),
        shuffle_seed in any::<u64>(),
        asn_raw in 0u32..100,
        top in 0usize..20,
    ) {
        let artifacts = served_artifacts();
        let mut scratch = PredictScratch::default();
        // Known-predictive ports in the mix, so rules actually fire.
        let mut query = Query::new(Ip(ip)).with_open(open.iter().copied().chain([80, 443]));
        query.asn = (asn_raw < 50).then_some(asn_raw);
        query.top = top;
        let want = ranked_bits(&artifacts.original.predict_with(&mut scratch, &query));

        let mut rng = Rng::new(shuffle_seed);
        let mut mangled = query.clone();
        // Duplicate a random half of the evidence, then shuffle it all.
        for port in query.open.iter().filter(|_| rng.chance(0.5)) {
            mangled.open.push(*port);
        }
        for i in (1..mangled.open.len()).rev() {
            mangled.open.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        for model in [&artifacts.original, &artifacts.via_gpsb] {
            prop_assert_eq!(
                &ranked_bits(&model.predict_with(&mut scratch, &mangled)),
                &want,
                "evidence {:?} vs {:?}",
                &mangled.open,
                &query.open
            );
        }
    }

    /// Per-model isolation across reloads: with models A and B
    /// registered, hot-reloading A leaves every one of B's answers
    /// bit-identical to its pre-reload answer and to the direct artifact
    /// lookup, and leaves B's generation alone — while A's next answer
    /// already comes from its new model.
    #[test]
    fn reloading_one_model_leaves_other_models_answers_intact(
        ips in proptest::collection::vec(any::<u32>(), 40..41),
        evidence_port in 1u16..2000,
    ) {
        let artifacts = served_artifacts();
        let queries: Vec<Query> = ips
            .into_iter()
            .enumerate()
            .map(|(i, ip)| {
                let mut query = Query::new(Ip(ip));
                query.top = 16;
                if i % 3 == 0 {
                    query.open = vec![Port(evidence_port), Port(80)];
                }
                query
            })
            .collect();
        // B is the trained artifact (re-materialized from the shared GPSB
        // bytes — `ServableModel` is not Clone); A is a tiny hand-built
        // model that the reload visibly replaces.
        let model_b = ServableModel::from_snapshot(
            ModelSnapshot::from_binary_bytes(&artifacts.gpsb_bytes).expect("gpsb parses"),
        );
        let server = PredictionServer::start_named(
            vec![
                ("a".to_string(), tiny_model(443)),
                ("b".to_string(), model_b),
            ],
            ServeConfig::default(),
        )
        .expect("registry starts");
        let probe_a = || {
            server
                .predict_for("a", Query::new(Ip(1)).with_open([80]))
                .expect("model a")[0]
                .0
        };

        let before: Vec<_> = queries
            .iter()
            .map(|q| server.predict_for("b", q.clone()).expect("model b"))
            .collect();
        for (query, before) in queries.iter().zip(&before) {
            prop_assert_eq!(
                &ranked_bits(&artifacts.original.predict(query)),
                &ranked_bits(before),
                "served B equals the direct artifact lookup"
            );
        }
        prop_assert_eq!(probe_a(), Port(443));

        server
            .reload(Some("a"), tiny_model(8443))
            .expect("reload a");
        prop_assert_eq!(server.generation_of("a").unwrap(), 1);
        prop_assert_eq!(server.generation_of("b").unwrap(), 0);
        prop_assert_eq!(probe_a(), Port(8443), "A's next answer is its new model's");
        for (query, before) in queries.iter().zip(&before) {
            prop_assert_eq!(
                &ranked_bits(&server.predict_for("b", query.clone()).unwrap()),
                &ranked_bits(before),
                "B after A's reload, {:?}",
                query
            );
        }
        prop_assert_eq!(server.model_stats("b").unwrap().reloads, 0);
    }
}

/// A ranking as comparable bits: ports and `f64::to_bits`.
fn ranked_bits(ranked: &[(Port, f64)]) -> Vec<(u16, u64)> {
    ranked.iter().map(|&(p, v)| (p.0, v.to_bits())).collect()
}

/// One client on one wire format of the parity matrix.
struct ParityDoor {
    wire: &'static str,
    client: std::sync::Mutex<Client>,
}

/// One TCP server over the trained artifact, and one long-lived client
/// per wire format on it, shared across property cases (server +
/// connect setup would otherwise dominate the suite). Mutexed because
/// proptest runs cases sequentially but the statics outlive each case.
fn parity_doors() -> &'static [ParityDoor] {
    static DOORS: OnceLock<Vec<ParityDoor>> = OnceLock::new();
    DOORS.get_or_init(|| {
        let mut doors = Vec::new();
        let model = ServableModel::from_snapshot(
            ModelSnapshot::from_binary_bytes(&served_artifacts().gpsb_bytes).expect("gpsb parses"),
        );
        let server = Arc::new(PredictionServer::start(model, ServeConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || gps::serve::serve(server, listener, TransportConfig::default()));
        for wire in serve_wires() {
            let format = match wire {
                "binary" => WireFormat::Binary,
                _ => WireFormat::Json,
            };
            doors.push(ParityDoor {
                wire,
                client: std::sync::Mutex::new(
                    Client::connect_with(addr, format).expect("parity client"),
                ),
            });
        }
        doors
    })
}

/// A minimal distinguishable model for the registry property: one rule
/// (80 predicts `target`) and one priors entry.
fn tiny_model(target: u16) -> ServableModel {
    use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    let mut rules: std::collections::HashMap<CondKey, Vec<(Port, f64)>> =
        std::collections::HashMap::new();
    rules.insert(CondKey::Port(Port(80)), vec![(Port(target), 0.9)]);
    ServableModel::from_snapshot(ModelSnapshot {
        manifest: ModelManifest {
            format: (FORMAT_MAJOR, FORMAT_MINOR),
            universe_seed: 0,
            dataset_name: format!("tiny-{target}"),
            step_prefix: 16,
            min_prob: 1e-5,
            interactions: Interactions::ALL,
            net_features: vec![NetFeature::Slash(16)],
            hosts_in: 0,
            distinct_keys: 0,
            cooccur_entries: 0,
            num_rules: 1,
            num_priors: 1,
            checksum: 0,
        },
        rules: gps::core::CompiledRules::from_rules(&gps::core::FeatureRules::from_parts(rules)),
        priors: vec![gps::core::PriorsEntry {
            port: Port(22),
            subnet: Subnet::of_ip(Ip(0x0A00_0000), 16),
            coverage: 4,
        }],
    })
}

#[test]
fn interner_round_trips_arbitrary_strings() {
    // Deterministic exhaustive-ish check complements the proptest suite.
    let interner = gps::types::Interner::new();
    let strings: Vec<String> = (0..500).map(|i| format!("value-{i}-\u{1F980}")).collect();
    let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
    for (s, sym) in strings.iter().zip(&syms) {
        assert_eq!(&*interner.resolve(*sym), s.as_str());
    }
}

/// Compiled-vs-reference parity holds across *different* trained
/// universes, not just the shared fixture: each seed grows a distinct
/// rule/priors shape (different subnets, ASNs, port mixes), and the
/// kernel must stay bit-identical on all of them — including after a
/// GPSB round trip through the RULE section.
#[test]
fn compiled_kernel_parity_across_universes() {
    for seed in [3u64, 99, 2024] {
        let net = gps::synthnet::Internet::generate(&gps::synthnet::UniverseConfig::tiny(seed));
        let dataset = gps::core::censys_dataset(&net, 100, 0.05, 0, 1);
        let config = GpsConfig::default();
        let run = gps::core::run_gps(&net, &dataset, &config);
        let snapshot = ModelSnapshot::from_run(&run, &config, seed);
        let bytes = snapshot.to_binary_bytes();
        let from_gpsb = ModelSnapshot::from_binary_bytes(&bytes).expect("gpsb parses");
        let reference = ReferenceModel::new(&run.rules, &snapshot);
        let compiled = ServableModel::from_snapshot(snapshot);
        let via_gpsb = ServableModel::from_snapshot(from_gpsb);

        let mut scratch = PredictScratch::default();
        let mut best = std::collections::HashMap::new();
        let ips: Vec<Ip> = net
            .host_ips()
            .iter()
            .step_by(37)
            .map(|&ip| Ip(ip))
            .collect();
        for (i, &ip) in ips.iter().enumerate() {
            let mut query = Query::new(ip);
            match i % 3 {
                0 => {}
                1 => query.open = vec![Port(80)],
                _ => {
                    query.open = vec![Port(443), Port(22), Port(8080)];
                    query.asn = net.asn_of(ip).map(|a| a.0);
                }
            }
            query.top = 16;
            let want: Vec<(u16, u64)> = reference
                .predict_with(&mut best, &query)
                .iter()
                .map(|&(p, v)| (p.0, v.to_bits()))
                .collect();
            for model in [&compiled, &via_gpsb] {
                let got: Vec<(u16, u64)> = model
                    .predict_with(&mut scratch, &query)
                    .iter()
                    .map(|&(p, v)| (p.0, v.to_bits()))
                    .collect();
                assert_eq!(got, want, "seed {seed} query {query:?}");
            }
        }
    }
}

/// The offline expansion is pinned, element for element and bit for bit,
/// to the rule-map algorithm it replaced: on the same tiny universes,
/// `build_predictions` over the run's seed hosts equals a fold of
/// `FeatureRules::get` over every `service_keys` key into a
/// `(ip, port) -> prob` map, with open ports and an exclusion list (every
/// third pair the rules predict, as if another scan had already seen it)
/// excluded, sorted by `(prob desc, ip, port)` and capped.
#[test]
fn build_predictions_matches_rule_map_fold_across_universes() {
    use gps::core::{FeatureRules, HostRecord, Prediction};
    use std::collections::HashMap;

    fn oracle(
        rules: &FeatureRules,
        hosts: &[HostRecord],
        seen: &HashSet<(u32, u16)>,
        max_predictions: usize,
    ) -> Vec<Prediction> {
        let mut best: HashMap<(u32, u16), f64> = HashMap::new();
        for host in hosts {
            let open: HashSet<u16> = host.services.iter().map(|s| s.port.0).collect();
            for service in &host.services {
                gps::core::host::service_keys(service, &host.nets, Interactions::ALL, &mut |key| {
                    for &(port, prob) in rules.get(&key).unwrap_or_default() {
                        if open.contains(&port.0) || seen.contains(&(host.ip.0, port.0)) {
                            continue;
                        }
                        let slot = best.entry((host.ip.0, port.0)).or_insert(0.0);
                        if prob > *slot {
                            *slot = prob;
                        }
                    }
                });
            }
        }
        let mut predictions: Vec<Prediction> = best
            .into_iter()
            .map(|((ip, port), prob)| Prediction {
                ip: Ip(ip),
                port: Port(port),
                prob,
            })
            .collect();
        predictions.sort_by(|a, b| {
            b.prob
                .total_cmp(&a.prob)
                .then(a.ip.cmp(&b.ip))
                .then(a.port.cmp(&b.port))
        });
        predictions.truncate(max_predictions);
        predictions
    }

    fn bits(predictions: &[Prediction]) -> Vec<(u32, u16, u64)> {
        predictions
            .iter()
            .map(|p| (p.ip.0, p.port.0, p.prob.to_bits()))
            .collect()
    }

    for seed in [3u64, 99, 2024] {
        let net = gps::synthnet::Internet::generate(&gps::synthnet::UniverseConfig::tiny(seed));
        let dataset = gps::core::censys_dataset(&net, 100, 0.05, 0, 1);
        let run = gps::core::run_gps(&net, &dataset, &GpsConfig::default());
        let classes: std::collections::BTreeSet<u8> =
            run.rules.iter().map(|(key, _)| key.class()).collect();
        assert_eq!(
            classes.into_iter().collect::<Vec<_>>(),
            [4, 5, 6, 7],
            "seed {seed}: every key class must be exercised"
        );
        let compiled = gps::core::CompiledRules::from_rules(&run.rules);
        let hosts = &run.seed_host_records;
        let unexcluded = gps::core::build_predictions(&compiled, hosts, &[], usize::MAX);
        let template = hosts[0].services[0].clone();
        let seen_services: Vec<ServiceObservation> = unexcluded
            .iter()
            .step_by(3)
            .map(|p| ServiceObservation {
                ip: p.ip,
                port: p.port,
                ..template.clone()
            })
            .collect();
        let exclude = gps::core::group_by_host(&seen_services, &[], &|_| None);
        let seen: HashSet<(u32, u16)> = seen_services.iter().map(|s| (s.ip.0, s.port.0)).collect();
        assert!(!seen.is_empty(), "seed {seed}: nothing to exclude");
        for max_predictions in [usize::MAX, 100] {
            let got = gps::core::build_predictions(&compiled, hosts, &exclude, max_predictions);
            let want = oracle(&run.rules, hosts, &seen, max_predictions);
            assert!(!want.is_empty(), "seed {seed}: the oracle predicts nothing");
            assert_eq!(
                bits(&got),
                bits(&want),
                "seed {seed}, max {max_predictions}"
            );
            if max_predictions == usize::MAX {
                assert_eq!(
                    got.len(),
                    unexcluded.len() - seen.len(),
                    "seed {seed}: the exclusion removes exactly the pairs it names"
                );
            }
        }
    }
}
