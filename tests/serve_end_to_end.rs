//! End-to-end tests of the serving subsystem over **both wire
//! formats**: train on the quick universe, export a snapshot, reload it,
//! serve it over TCP on an ephemeral port, and hammer it from concurrent
//! protocol clients — asserting every answer equals the direct
//! rules/priors lookup on the loaded artifact.
//!
//! Each case trains its models **once** and serves them on the epoll
//! event loops, with clients speaking each wire format of
//! `gps_types::testutil::serve_wires` (length-prefixed JSON and GPSQ
//! binary), so "the formats answer identically" is the asserted
//! contract, not an assumption. Every run covers both formats.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use gps::core::model::NetKey;
use gps::core::{censys_dataset, run_gps, CondKey, GpsConfig, ModelSnapshot};
use gps::serve::{
    Client, PredictionServer, Query, ServableModel, ServeConfig, TransportConfig, WireFormat,
};
use gps::synthnet::{Internet, UniverseConfig};
use gps::types::rng::Rng;
use gps::types::testutil::{serve_wires, TestDir};
use gps::types::{Ip, Port, Subnet};

/// Connect a client speaking the named wire format (`serve_wires` names).
fn connect_wire(addr: SocketAddr, wire: &str) -> Client {
    Client::connect_with(addr, wire.parse::<WireFormat>().expect("known wire")).expect("connect")
}

/// The wire format thread `i` of a client pool speaks: cycles through the
/// active matrix so mixed-format traffic shares each server.
fn wire_of(i: u64) -> &'static str {
    let wires = serve_wires();
    wires[(i as usize) % wires.len()]
}

/// Serve `server` on an ephemeral port; returns the address to connect
/// to. (The serve loop blocks forever on its own thread, exactly as
/// `cmd_serve` runs it.)
fn spawn(server: Arc<PredictionServer>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || gps::serve::serve(server, listener, TransportConfig::default()));
    addr
}

fn train_and_export(dir: &TestDir) -> (Internet, ModelSnapshot, std::path::PathBuf) {
    let net = Internet::generate(&UniverseConfig::tiny(42));
    let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
    let config = GpsConfig {
        seed_fraction: 0.05,
        step_prefix: 16,
        ..GpsConfig::default()
    };
    let run = run_gps(&net, &dataset, &config);
    let snapshot = ModelSnapshot::from_run(&run, &config, 42);
    let path = dir.path("model.gpsb");
    snapshot.save_binary(&path).expect("export");
    (net, snapshot, path)
}

/// The expected warm answer, computed directly from the rules list: max
/// probability over the Eq. 4 key and every Eq. 6 slash key of the query
/// IP, open ports excluded — the reference the server must match.
fn direct_rules_lookup(snapshot: &ModelSnapshot, query: &Query) -> Vec<(Port, f64)> {
    let mut best: HashMap<Port, f64> = HashMap::new();
    let mut open = query.open.clone();
    open.sort_unstable();
    open.dedup();
    for &b in &open {
        let mut keys = vec![CondKey::Port(b)];
        for nf in &snapshot.manifest.net_features {
            if let gps::core::NetFeature::Slash(prefix) = nf {
                keys.push(CondKey::PortNet(
                    b,
                    NetKey::Slash(*prefix, Subnet::of_ip(query.ip, *prefix).base().0),
                ));
            }
        }
        for key in keys {
            for (port, prob) in snapshot.rules.get(&key).into_iter().flatten() {
                if open.contains(&port) {
                    continue;
                }
                let slot = best.entry(port).or_insert(0.0);
                if prob > *slot {
                    *slot = prob;
                }
            }
        }
    }
    let mut ranked: Vec<(Port, f64)> = best.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked.truncate(if query.top > 0 { query.top } else { 16 });
    ranked
}

#[test]
fn concurrent_tcp_clients_match_direct_lookups() {
    let dir = TestDir::new("serve-e2e");
    let (net, _snapshot, path) = train_and_export(&dir);

    // Reload from disk: the served artifact is the persisted one.
    let reference = Arc::new(ModelSnapshot::load(&path).expect("load reference copy"));
    let host_ips = Arc::new(net.host_ips().to_vec());

    let loaded = ModelSnapshot::load(&path).expect("load snapshot");
    assert_eq!(loaded.manifest, reference.manifest);
    let server = Arc::new(PredictionServer::start(
        ServableModel::from_snapshot(loaded),
        ServeConfig::default(),
    ));
    let addr = spawn(server.clone());

    let mut handles = Vec::new();
    for thread_id in 0..6u64 {
        let reference = reference.clone();
        let host_ips = host_ips.clone();
        handles.push(std::thread::spawn(move || {
            // Mixed-format pool: thread i speaks json or binary per
            // the active matrix, all against one server — equality
            // with the local artifact makes the formats bit-identical
            // to each other by transitivity.
            let mut client = connect_wire(addr, wire_of(thread_id));
            client.ping().expect("ping");
            let mut rng = Rng::new(0xE2E ^ thread_id);
            let local = ServableModel::from_snapshot((*reference).clone());
            for i in 0..150 {
                // Mix of real-universe IPs and arbitrary ones.
                let ip = if rng.chance(0.7) {
                    Ip(host_ips[rng.gen_range(host_ips.len() as u64) as usize])
                } else {
                    Ip(rng.next_u32())
                };
                let mut query = Query::new(ip);
                if i % 2 == 0 {
                    query.open = vec![Port(443), Port(80), Port(22)]
                        [..=(rng.gen_range(3) as usize)]
                        .to_vec();
                }
                query.top = 16;

                let served = client.predict(&query).expect("predict");
                // The wire answer equals the local artifact's answer...
                assert_eq!(served, local.predict(&query), "query {query:?}");
                // ...and warm answers equal the direct rules lookup.
                if !query.open.is_empty() {
                    assert_eq!(served, direct_rules_lookup(&reference, &query), "{query:?}");
                }
            }
            // Batch answers equal single answers, order preserved.
            let batch: Vec<Query> = (0..40)
                .map(|_| {
                    let ip = Ip(host_ips[rng.gen_range(host_ips.len() as u64) as usize]);
                    let mut q = Query::new(ip);
                    q.top = 8;
                    q
                })
                .collect();
            let answers = client.predict_batch(&batch).expect("batch");
            assert_eq!(answers.len(), batch.len());
            for (query, answer) in batch.iter().zip(&answers) {
                assert_eq!(*answer, local.predict(query));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }

    // The server really served this traffic.
    let stats = server.stats();
    assert!(stats.requests >= 6 * 190, "requests {}", stats.requests);
    assert_eq!(
        stats.models.iter().map(|m| m.requests).sum::<u64>(),
        stats.requests
    );
    assert_eq!(stats.conns_accepted, 6, "six clients connected");
}

/// Hot reload under fire: serve a GPSB binary snapshot over TCP, hammer
/// it from concurrent clients, swap in a *different* model via the
/// `reload` wire command mid-traffic, and require (a) zero failed
/// queries throughout, (b) a generation bump, and (c) post-reload
/// answers matching the new artifact.
#[test]
fn hot_reload_serves_new_model_with_zero_failed_queries() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let net_a = Internet::generate(&UniverseConfig::tiny(42));
    let dataset_a = censys_dataset(&net_a, 200, 0.05, 0, 1);
    let net_b = Internet::generate(&UniverseConfig::tiny(1234));
    let dataset_b = censys_dataset(&net_b, 200, 0.05, 0, 1);
    let config = GpsConfig {
        seed_fraction: 0.05,
        step_prefix: 16,
        ..GpsConfig::default()
    };
    let snapshot_a = ModelSnapshot::from_run(&run_gps(&net_a, &dataset_a, &config), &config, 42);
    let snapshot_b = ModelSnapshot::from_run(&run_gps(&net_b, &dataset_b, &config), &config, 1234);
    let dir = TestDir::new("serve-reload");
    let path_a = dir.path("a.gpsb");
    let path_b = dir.path("b.gpsb");
    snapshot_a.save_binary(&path_a).expect("export a");
    snapshot_b.save_binary(&path_b).expect("export b");

    // Reference answers computed directly from each artifact.
    let model_a = ServableModel::from_snapshot(snapshot_a.clone());
    let model_b = Arc::new(ServableModel::from_snapshot(snapshot_b.clone()));

    let server = PredictionServer::start(
        ServableModel::from_snapshot(ModelSnapshot::load(&path_a).expect("load a")),
        ServeConfig::default(),
    );
    server.set_model_path(None, &path_a).unwrap();
    let addr = spawn(Arc::new(server));

    let reloaded = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for thread_id in 0..6u64 {
        let reloaded = reloaded.clone();
        let model_b = model_b.clone();
        let host_ips = net_a.host_ips().to_vec();
        clients.push(std::thread::spawn(move || {
            let mut client = connect_wire(addr, wire_of(thread_id));
            let mut rng = Rng::new(0x5EED ^ thread_id);
            let mut answers_from_b = 0u32;
            let mut i = 0u32;
            // At least 400 queries, continuing (bounded) until this
            // thread has seen the swapped-in model answer at least
            // once — so "the swap was observed under traffic" is
            // asserted per-thread, not assumed from timing.
            while i < 400 || (answers_from_b == 0 && i < 5000) {
                let ip = if rng.chance(0.5) {
                    Ip(host_ips[rng.gen_range(host_ips.len() as u64) as usize])
                } else {
                    Ip(rng.next_u32())
                };
                let mut query = Query::new(ip);
                if i.is_multiple_of(2) {
                    query.open = vec![Port(443)];
                }
                query.top = 16;
                // THE zero-downtime requirement: every query, before,
                // during, and after the swap, must succeed.
                let served = client.predict(&query).expect("query must never fail");
                if reloaded.load(Ordering::Acquire) && served == model_b.predict(&query) {
                    answers_from_b += 1;
                }
                i += 1;
            }
            answers_from_b
        }));
    }

    // Let traffic build, then swap A -> B over the wire. The control
    // client takes the *last* wire of the matrix, so with binary
    // active the reload/manifest admin commands run through the GPSQ
    // admin envelope mid-fire.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut control = connect_wire(addr, serve_wires().last().unwrap());
    assert_eq!(
        control
            .manifest()
            .expect("manifest")
            .get("checksum")
            .and_then(|j| j.as_str()),
        Some(gps::types::json::u64_to_hex(snapshot_a.manifest.checksum).as_str())
    );
    let outcome = control
        .reload(None, Some(path_b.to_string_lossy().as_ref()))
        .expect("wire reload");
    assert_eq!(outcome.generation, 1);
    assert_eq!(
        outcome.checksum,
        gps::types::json::u64_to_hex(snapshot_b.manifest.checksum),
        "reload reply describes the published model"
    );
    reloaded.store(true, Ordering::Release);

    for handle in clients {
        let answers_from_b = handle.join().expect("client thread");
        assert!(
            answers_from_b > 0,
            "every client must observe the new model while traffic flows"
        );
    }

    // After the swap the served manifest and answers come from model B.
    let manifest = control.manifest().expect("manifest after reload");
    assert_eq!(
        manifest.get("checksum").and_then(|j| j.as_str()),
        Some(gps::types::json::u64_to_hex(snapshot_b.manifest.checksum).as_str()),
        "served manifest switched to model B"
    );
    let mut probe = Query::new(Ip(net_b.host_ips()[0]));
    probe.top = 16;
    assert_eq!(
        control.predict(&probe).expect("post-reload query"),
        model_b.predict(&probe),
        "post-reload answers come from the new artifact"
    );
    // A warm (rules-path) probe too.
    let mut warm = Query::new(Ip(net_b.host_ips()[0]));
    warm.open = vec![Port(443)];
    warm.top = 16;
    assert_eq!(
        control.predict(&warm).expect("post-reload warm query"),
        model_b.predict(&warm)
    );
    let stats = control.stats().expect("stats");
    assert_eq!(
        stats.get("generation").and_then(|j| j.as_u64()),
        Some(1),
        "stats report the bumped generation"
    );
    assert_eq!(stats.get("reloads").and_then(|j| j.as_u64()), Some(1));

    // Sanity: the swap was observable — the artifacts differ, and the
    // two reference models disagree on the probe.
    assert_ne!(
        snapshot_a.manifest.checksum, snapshot_b.manifest.checksum,
        "the two snapshots must differ"
    );
    assert_ne!(
        model_a.predict(&probe),
        model_b.predict(&probe),
        "the probe must distinguish the models"
    );
}

/// Multi-model serving end to end: one server holds two models trained on
/// different universes, one TCP connection queries both by id (answers
/// must match each artifact's direct predictions), the unknown-model
/// error path echoes the request id, and models can be loaded/unloaded
/// over the wire mid-connection.
#[test]
fn two_models_served_by_id_over_one_connection() {
    let config = GpsConfig {
        seed_fraction: 0.05,
        step_prefix: 16,
        ..GpsConfig::default()
    };
    let net_a = Internet::generate(&UniverseConfig::tiny(42));
    let net_b = Internet::generate(&UniverseConfig::tiny(1234));
    let snapshot_a = ModelSnapshot::from_run(
        &run_gps(&net_a, &censys_dataset(&net_a, 200, 0.05, 0, 1), &config),
        &config,
        42,
    );
    let snapshot_b = ModelSnapshot::from_run(
        &run_gps(&net_b, &censys_dataset(&net_b, 200, 0.05, 0, 1), &config),
        &config,
        1234,
    );
    let dir = TestDir::new("serve-multimodel");
    let path_b = dir.path("b.gpsb");
    snapshot_b.save_binary(&path_b).expect("export b");
    let model_a = ServableModel::from_snapshot(snapshot_a.clone());
    let model_b = ServableModel::from_snapshot(snapshot_b.clone());

    let server = PredictionServer::start_named(
        vec![
            (
                "alpha".to_string(),
                ServableModel::from_snapshot(snapshot_a.clone()),
            ),
            (
                "beta".to_string(),
                ServableModel::from_snapshot(snapshot_b.clone()),
            ),
        ],
        ServeConfig::default(),
    )
    .expect("registry starts");
    let addr = spawn(Arc::new(server));

    // The whole session — interleaved predicts by id, wire admin,
    // per-model stats — replays once per wire format against the
    // same server (the admin sequence restores registry state, so
    // iterations are independent).
    for wire in serve_wires() {
        let mut client = connect_wire(addr, wire);
        let mut rng = Rng::new(0xD0D0);
        let hosts_a = net_a.host_ips().to_vec();
        let hosts_b = net_b.host_ips().to_vec();
        for i in 0..120u32 {
            let (id, reference, hosts) = if i % 2 == 0 {
                ("alpha", &model_a, &hosts_a)
            } else {
                ("beta", &model_b, &hosts_b)
            };
            let ip = if rng.chance(0.6) {
                Ip(hosts[rng.gen_range(hosts.len() as u64) as usize])
            } else {
                Ip(rng.next_u32())
            };
            let mut query = Query::new(ip);
            if i % 3 == 0 {
                query.open = vec![Port(443)];
            }
            query.top = 16;
            // Interleaved on ONE connection: each id answers from its own
            // artifact, bit-identically.
            let served = client.predict_on(Some(id), &query).expect("predict by id");
            assert_eq!(served, reference.predict(&query), "model {id}, {query:?}");
            // An id-less frame means the default (first) model.
            if i % 10 == 0 {
                assert_eq!(
                    client.predict(&query).expect("default"),
                    model_a.predict(&query)
                );
            }
        }
        // Batches route by id too.
        let batch: Vec<Query> = (0..30)
            .map(|_| {
                let mut q = Query::new(Ip(hosts_b[rng.gen_range(hosts_b.len() as u64) as usize]));
                q.top = 8;
                q
            })
            .collect();
        for (query, answer) in batch.iter().zip(
            client
                .predict_batch_on(Some("beta"), &batch)
                .expect("batch"),
        ) {
            assert_eq!(answer, model_b.predict(query));
        }

        // Unknown model: an error *reply* (connection stays usable), and
        // the raw frame proves the request id is echoed on that error.
        {
            use gps::types::Json;
            let err = client
                .predict_on(Some("nope"), &Query::new(Ip(1)))
                .expect_err("unknown model must fail");
            assert!(err.to_string().contains("unknown model"), "{err}");
            let stream = std::net::TcpStream::connect(addr).expect("raw connect");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = std::io::BufWriter::new(stream);
            let mut raw = Json::obj();
            raw.set("cmd", "predict")
                .set("ip", "10.0.0.1")
                .set("model", "nope")
                .set("id", "req-77");
            gps::serve::proto::write_frame(&mut writer, &raw).expect("write");
            let response = gps::serve::proto::read_frame(&mut reader)
                .expect("read")
                .expect("frame");
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
            assert!(response
                .get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("unknown model")));
            assert_eq!(
                response.get("id").and_then(Json::as_str),
                Some("req-77"),
                "the unknown-model error must echo the request id"
            );
        }

        // Wire-level registry admin: load a third model, query it, unload
        // it.
        let names = |models: &[gps::types::Json]| -> Vec<String> {
            models
                .iter()
                .filter_map(|m| m.get("name").and_then(|j| j.as_str()).map(String::from))
                .collect()
        };
        assert_eq!(
            names(&client.list_models().expect("list")),
            ["alpha", "beta"]
        );
        client
            .load_model("gamma", path_b.to_string_lossy().as_ref())
            .expect("wire load");
        assert_eq!(
            names(&client.list_models().expect("list")),
            ["alpha", "beta", "gamma"]
        );
        let mut probe = Query::new(Ip(net_b.host_ips()[0]));
        probe.top = 16;
        assert_eq!(
            client.predict_on(Some("gamma"), &probe).expect("gamma"),
            model_b.predict(&probe)
        );
        assert!(
            client
                .load_model("gamma", path_b.to_string_lossy().as_ref())
                .is_err(),
            "double-load is an error"
        );
        assert!(client.unload_model("alpha").is_err(), "default is pinned");
        client.unload_model("gamma").expect("wire unload");
        assert!(client.predict_on(Some("gamma"), &probe).is_err());
        assert_eq!(
            names(&client.list_models().expect("list")),
            ["alpha", "beta"]
        );

        // Per-model stats reached the wire: both ids served traffic.
        let stats = client.stats().expect("stats");
        let models = stats.get("models").expect("per-model stats");
        for id in ["alpha", "beta"] {
            let requests = models
                .get(id)
                .and_then(|m| m.get("requests"))
                .and_then(|j| j.as_u64())
                .unwrap_or(0);
            assert!(
                requests > 0,
                "{wire}: model {id} shows its traffic: {requests}"
            );
        }
    }
}

/// The parity claim head-on: one server, one JSON client and one GPSQ
/// client, the same queries — every ranking must match **bit-exactly**
/// (ports and probability bit patterns), single and batch shapes, cold
/// and warm, and the manifest admin reply must agree through the admin
/// envelope. Runs regardless of the wire matrix (the cross-format
/// comparison is the point, so both formats always participate here).
#[test]
fn json_and_binary_clients_answer_bit_identically() {
    let dir = TestDir::new("serve-wire-parity");
    let (net, _snapshot, path) = train_and_export(&dir);
    let host_ips = net.host_ips().to_vec();

    let loaded = ModelSnapshot::load(&path).expect("load snapshot");
    let server = Arc::new(PredictionServer::start(
        ServableModel::from_snapshot(loaded),
        ServeConfig::default(),
    ));
    let addr = spawn(server);
    let mut json = Client::connect_with(addr, WireFormat::Json).expect("json client");
    let mut binary = Client::connect_with(addr, WireFormat::Binary).expect("binary client");
    json.ping().expect("json ping");
    binary.ping().expect("binary ping");

    let mut rng = Rng::new(0xB17);
    let mut queries = Vec::new();
    for i in 0..200u32 {
        let ip = if rng.chance(0.7) {
            Ip(host_ips[rng.gen_range(host_ips.len() as u64) as usize])
        } else {
            Ip(rng.next_u32())
        };
        let mut query = Query::new(ip);
        if i % 2 == 0 {
            query.open =
                vec![Port(443), Port(80), Port(22)][..=(rng.gen_range(3) as usize)].to_vec();
        }
        if i % 7 == 0 {
            query.asn = Some(rng.gen_range(100) as u32);
        }
        query.top = 16;
        let via_json = json.predict(&query).expect("json predict");
        let via_binary = binary.predict(&query).expect("binary predict");
        assert_eq!(via_json.len(), via_binary.len(), "{query:?}");
        for (a, b) in via_json.iter().zip(&via_binary) {
            assert_eq!(a.0, b.0, "ports agree for {query:?}");
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "probability bits agree for {query:?}"
            );
        }
        queries.push(query);
    }
    // Batch shape too, one frame each way.
    let batch_json = json.predict_batch(&queries).expect("json batch");
    let batch_binary = binary.predict_batch(&queries).expect("binary batch");
    assert_eq!(batch_json.len(), batch_binary.len());
    for (a, b) in batch_json.iter().zip(&batch_binary) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }
    // Admin parity through the envelope: identical manifest replies.
    assert_eq!(
        json.manifest().expect("json manifest"),
        binary.manifest().expect("binary manifest"),
        "manifest agrees across formats"
    );
    // Error parity: the unknown-model message is the same string.
    let json_err = json
        .predict_on(Some("nope"), &queries[0])
        .expect_err("unknown model");
    let binary_err = binary
        .predict_on(Some("nope"), &queries[0])
        .expect_err("unknown model");
    assert_eq!(
        json_err.to_string(),
        binary_err.to_string(),
        "error strings agree across formats"
    );
}

#[test]
fn server_survives_malformed_frames() {
    let dir = TestDir::new("serve-malformed");
    let (_net, snapshot, _path) = train_and_export(&dir);

    let server = Arc::new(PredictionServer::start(
        ServableModel::from_snapshot(snapshot.clone()),
        ServeConfig::default(),
    ));
    let addr = spawn(server.clone());

    // A client that sends garbage JSON gets an error response (not a
    // dropped connection), and bad requests don't poison later good
    // ones.
    use gps::types::Json;
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = std::io::BufWriter::new(stream);
    let mut bad = Json::obj();
    bad.set("cmd", "predict")
        .set("ip", "not-an-ip")
        .set("id", 7u32);
    gps::serve::proto::write_frame(&mut writer, &bad).expect("write");
    let response = gps::serve::proto::read_frame(&mut reader)
        .expect("read")
        .expect("frame");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(response.get("error").is_some());
    // Error frames echo the request id, so a pipelining client can
    // tell *which* request of a burst failed.
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));

    let mut unknown = Json::obj();
    unknown.set("cmd", "frobnicate").set("id", "req-xyz");
    gps::serve::proto::write_frame(&mut writer, &unknown).expect("write");
    let response = gps::serve::proto::read_frame(&mut reader)
        .expect("read")
        .expect("frame");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("id").and_then(Json::as_str),
        Some("req-xyz"),
        "non-numeric ids echo verbatim too"
    );

    // A well-framed frame whose payload is not JSON at all: the
    // server replies with an error instead of dropping the connection
    // (only framing-level breakage closes the stream).
    {
        use std::io::Write;
        let garbage = b"this is not json";
        writer
            .write_all(&(garbage.len() as u32).to_be_bytes())
            .expect("len");
        writer.write_all(garbage).expect("payload");
        writer.flush().expect("flush");
        let response = gps::serve::proto::read_frame(&mut reader)
            .expect("read")
            .expect("frame");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert!(response
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("bad json")));
    }

    let mut good = Json::obj();
    good.set("cmd", "ping");
    gps::serve::proto::write_frame(&mut writer, &good).expect("write");
    let response = gps::serve::proto::read_frame(&mut reader)
        .expect("read")
        .expect("frame");
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "good requests still answered after garbage"
    );
}
