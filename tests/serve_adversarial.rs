//! Adversarial-client tests for the serving event loops: slowloris
//! half-frames, byte-dribbled requests, pipelined bursts, oversized
//! length prefixes, trailing garbage, and connection caps.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gps::core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
use gps::core::{CompiledRules, FeatureRules, Interactions, NetFeature, PriorsEntry};
use gps::serve::proto::{read_frame, write_frame};
use gps::serve::{
    Client, PredictionServer, Query, Ranked, ServableModel, ServeConfig, TransportConfig,
    WireFormat,
};
use gps::types::testutil::DribbleProxy;
use gps::types::{Ip, Json, Port, Subnet};

/// Hand-rolled GPSQ frames for the raw-socket adversarial cases (the
/// real codec lives in `gps-serve`; encoding a ping by hand here keeps
/// the test independent of it — if the layout drifts, this breaks).
mod gpsq {
    /// LEB128, enough for test-sized values.
    fn varint(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn frame(payload: Vec<u8>) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// A length-prefixed GPSQ ping frame carrying `id`.
    pub fn ping_frame(id: u64) -> Vec<u8> {
        let mut payload = b"GPSQ".to_vec();
        payload.push(1); // version
        payload.push(1); // kind: ping
        payload.push(1); // flags: id present
        varint(id, &mut payload);
        frame(payload)
    }

    /// The id carried by a pong response payload (panics on anything
    /// else — these tests send only pings).
    pub fn pong_id(payload: &[u8]) -> u64 {
        assert_eq!(&payload[..4], b"GPSQ", "magic");
        assert_eq!(payload[4], 1, "version");
        assert_eq!(payload[5], 1, "kind: pong");
        assert_eq!(payload[6], 1, "flags: id");
        let mut value = 0u64;
        let mut shift = 0;
        for &byte in &payload[7..] {
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
        panic!("truncated varint id");
    }

    /// Read one length-prefixed payload off a blocking stream.
    pub fn read_payload(r: &mut impl std::io::Read) -> Vec<u8> {
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix).expect("length prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        r.read_exact(&mut payload).expect("payload");
        payload
    }

    // The request and reply kinds the router tests pipeline, on the
    // `gps_types::binary` primitives GPSQ is built from.
    use gps::serve::{Query, Ranked};
    use gps::types::binary::{ByteReader, ByteWriter};
    use gps::types::Port;

    fn header(kind: u8, id: Option<u64>, model: Option<&str>) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_bytes(b"GPSQ");
        w.put_u8(1); // version
        w.put_u8(kind);
        w.put_u8(u8::from(id.is_some()) | (u8::from(model.is_some()) << 1));
        if let Some(id) = id {
            w.put_varint(id);
        }
        if let Some(model) = model {
            w.put_str(model);
        }
        w
    }

    fn put_query(w: &mut ByteWriter, query: &Query) {
        w.put_u32(query.ip.0);
        w.put_u8(u8::from(query.asn.is_some()));
        if let Some(asn) = query.asn {
            w.put_varint(u64::from(asn));
        }
        w.put_varint(query.top as u64);
        w.put_port_deltas(query.open.iter().map(|p| p.0));
    }

    pub fn predict_frame(id: u64, model: Option<&str>, query: &Query) -> Vec<u8> {
        let mut w = header(2, Some(id), model);
        put_query(&mut w, query);
        frame(w.into_bytes())
    }

    pub fn batch_frame(id: u64, queries: &[Query]) -> Vec<u8> {
        let mut w = header(3, Some(id), None);
        w.put_varint(queries.len() as u64);
        for query in queries {
            put_query(&mut w, query);
        }
        frame(w.into_bytes())
    }

    /// A JSON admin command in the binary envelope.
    pub fn admin_frame(json: &str) -> Vec<u8> {
        let mut w = header(4, None, None);
        w.put_bytes(json.as_bytes());
        frame(w.into_bytes())
    }

    /// A request frame laid out field by field — any version, any kind,
    /// any body — for the malformed cases the real encoder cannot make.
    pub fn raw_frame(version: u8, kind: u8, id: Option<u64>, body: &[u8]) -> Vec<u8> {
        let mut payload = b"GPSQ".to_vec();
        payload.push(version);
        payload.push(kind);
        payload.push(u8::from(id.is_some()));
        if let Some(id) = id {
            varint(id, &mut payload);
        }
        payload.extend_from_slice(body);
        frame(payload)
    }

    /// A length-prefixed frame around arbitrary text.
    pub fn text_frame(text: &str) -> Vec<u8> {
        frame(text.as_bytes().to_vec())
    }

    /// One decoded reply; ids are the header's (admin replies carry
    /// theirs inside the JSON).
    #[derive(Debug)]
    pub enum Reply {
        Error(Option<u64>, String),
        Pong(Option<u64>),
        Predict(Option<u64>, Ranked),
        Batch(Option<u64>, Vec<Ranked>),
        Admin(String),
    }

    fn ranking(r: &mut ByteReader<'_>) -> Ranked {
        let ports = r.port_deltas().expect("ports");
        ports
            .into_iter()
            .map(|port| (Port(port), r.f64().expect("probability")))
            .collect()
    }

    pub fn decode(payload: &[u8]) -> Reply {
        let mut r = ByteReader::new(payload);
        assert_eq!(r.take(4).expect("magic"), b"GPSQ");
        assert_eq!(r.u8().expect("version"), 1);
        let kind = r.u8().expect("kind");
        let flags = r.u8().expect("flags");
        let id = (flags & 1 != 0).then(|| r.varint().expect("id"));
        match kind {
            0 => Reply::Error(id, r.str().expect("message").to_string()),
            1 => Reply::Pong(id),
            2 => Reply::Predict(id, ranking(&mut r)),
            3 => {
                let count = r.varint().expect("count");
                Reply::Batch(id, (0..count).map(|_| ranking(&mut r)).collect())
            }
            4 => Reply::Admin(
                std::str::from_utf8(r.take(r.remaining()).expect("rest"))
                    .expect("utf-8")
                    .to_string(),
            ),
            other => panic!("unknown reply kind {other}"),
        }
    }
}

/// A tiny hand-built model (no training): 80 predicts 443, one prior.
fn model() -> ServableModel {
    let mut rules: HashMap<gps::core::CondKey, Vec<(Port, f64)>> = HashMap::new();
    rules.insert(gps::core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
    let snapshot = gps::core::ModelSnapshot {
        manifest: ModelManifest {
            format: (FORMAT_MAJOR, FORMAT_MINOR),
            universe_seed: 0,
            dataset_name: "adversarial".into(),
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
        rules: CompiledRules::from_rules(&FeatureRules::from_parts(rules)),
        priors: vec![PriorsEntry {
            port: Port(22),
            subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
            coverage: 4,
        }],
    };
    ServableModel::from_snapshot(snapshot)
}

fn spawn(config: TransportConfig) -> (Arc<PredictionServer>, SocketAddr) {
    spawn_model(model(), config)
}

fn spawn_model(
    model: ServableModel,
    config: TransportConfig,
) -> (Arc<PredictionServer>, SocketAddr) {
    let server = Arc::new(PredictionServer::start(model, ServeConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    {
        let server = server.clone();
        std::thread::spawn(move || gps::serve::serve(server, listener, config));
    }
    (server, addr)
}

fn predict_frame(id: u64) -> Json {
    let mut frame = Json::obj();
    frame
        .set("cmd", "predict")
        .set("ip", "10.1.2.3")
        .set("open", vec![Json::Num(80.0)])
        .set("id", Json::Num(id as f64));
    frame
}

/// Wait until `stream` reports EOF/error (the server closed it), within
/// a deadline.
fn assert_closed_within(mut stream: TcpStream, deadline: Duration, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let start = Instant::now();
    let mut buf = [0u8; 64];
    while start.elapsed() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return, // FIN: server closed
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return, // RST counts as closed too
            Ok(_) => panic!("{what}: server sent bytes to a half-dead connection"),
        }
    }
    panic!("{what}: connection still open after {deadline:?}");
}

/// A slowloris peer sends half a frame and goes silent: the connection
/// must be dropped at the idle timeout — and a healthy neighbor on the
/// same server must never notice.
#[test]
fn slowloris_half_frame_is_dropped_without_stalling_neighbors() {
    let (server, addr) = spawn(TransportConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..TransportConfig::default()
    });

    // The slowloris: a 4-byte prefix claiming 100 bytes, then 3 bytes
    // of body, then silence.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris.write_all(&100u32.to_be_bytes()).expect("prefix");
    loris.write_all(b"{\"c").expect("partial body");

    // The healthy neighbor keeps querying the whole time.
    let healthy = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, WireFormat::Json).expect("healthy connect");
        let deadline = Instant::now() + Duration::from_millis(900);
        let mut served = 0u32;
        while Instant::now() < deadline {
            let ranked = client
                .predict(&Query::new(Ip::from_octets(10, 0, 0, 1)).with_open([80]))
                .expect("healthy queries must not stall");
            assert_eq!(ranked[0], (Port(443), 0.9));
            served += 1;
        }
        served
    });

    assert_closed_within(loris, Duration::from_secs(5), "slowloris");
    let served = healthy.join().expect("healthy client");
    assert!(
        served > 50,
        "neighbor should stream answers freely, served {served}"
    );
    // Poll the counters: the timed-out close is visible in stats.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().conns_timed_out == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert!(stats.conns_timed_out >= 1, "timeout counted, {stats:?}");
}

/// A burst of pipelined frames delivered in ONE write is answered
/// completely, in order, with ids echoed. The burst (400 frames) is
/// deliberately far past the event transport's 128-request pipeline
/// window, so the overflow-parking path — frames decoded in one read
/// beyond the window park and release as answers flush — is covered,
/// not just the happy path.
#[test]
fn pipelined_burst_in_one_segment_answers_in_order() {
    const BURST: u64 = 400;
    let (_server, addr) = spawn(TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let mut burst = Vec::new();
    for id in 0..BURST {
        write_frame(&mut burst, &predict_frame(id)).expect("encode");
    }
    let mut writer = stream;
    writer.write_all(&burst).expect("one segment");
    writer.flush().expect("flush");

    for id in 0..BURST {
        let response = read_frame(&mut reader).expect("read").expect("frame");
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(id),
            "responses come back in request order"
        );
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
}

/// The same request delivered one byte per TCP segment (server-side
/// incremental decode) still answers correctly.
#[test]
fn single_bytes_per_segment_decode_into_one_request() {
    let (_server, addr) = spawn(TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut bytes = Vec::new();
    write_frame(&mut bytes, &predict_frame(9)).expect("encode");
    for &b in &bytes {
        writer.write_all(&[b]).expect("dribble");
        writer.flush().expect("flush");
    }
    let response = read_frame(&mut reader).expect("read").expect("frame");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(9));
}

/// An oversized length prefix is a framing error: the connection closes
/// (no reply possible — the stream position is untrustworthy), and other
/// connections are unaffected.
#[test]
fn oversized_prefix_closes_only_the_offender() {
    let (_server, addr) = spawn(TransportConfig::default());
    let mut offender = TcpStream::connect(addr).expect("connect");
    offender
        .write_all(&u32::MAX.to_be_bytes())
        .expect("bogus prefix");
    assert_closed_within(offender, Duration::from_secs(5), "oversized prefix");
    // The server still serves fresh connections.
    let mut client = Client::connect_with(addr, WireFormat::Json).expect("fresh connect");
    client.ping().expect("server alive after framing abuse");
}

/// A valid frame followed by garbage bytes: the valid request is
/// answered; once the garbage desynchronizes framing the connection
/// closes, without collateral damage.
#[test]
fn trailing_garbage_after_valid_frame() {
    let (_server, addr) = spawn(TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");

    let mut bytes = Vec::new();
    write_frame(&mut bytes, &predict_frame(1)).expect("encode");
    // 0xFF... reads as a ~4GB length prefix — framing death.
    bytes.extend_from_slice(&[0xFF; 8]);
    writer.write_all(&bytes).expect("frame + garbage");
    writer.flush().expect("flush");

    let response = read_frame(&mut reader).expect("read").expect("frame");
    assert_eq!(
        response.get("id").and_then(Json::as_u64),
        Some(1),
        "the valid frame is answered before the garbage kills framing"
    );
    assert_closed_within(stream, Duration::from_secs(5), "trailing garbage");
    let mut client = Client::connect_with(addr, WireFormat::Json).expect("fresh connect");
    client.ping().expect("server alive");
}

/// `--max-conns`: connections beyond the cap are dropped at accept and
/// counted; closing one admits the next.
#[test]
fn max_conns_rejects_and_recovers() {
    let (server, addr) = spawn(TransportConfig {
        max_conns: 2,
        ..TransportConfig::default()
    });
    let mut a = Client::connect_with(addr, WireFormat::Json).expect("conn a");
    a.ping().expect("a serves");
    let mut b = Client::connect_with(addr, WireFormat::Json).expect("conn b");
    b.ping().expect("b serves");

    // Third connection: TCP connect succeeds (the kernel accepts),
    // but the server drops it before serving — the first read sees
    // EOF.
    let c = TcpStream::connect(addr).expect("tcp connect");
    assert_closed_within(c, Duration::from_secs(5), "over-cap connection");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().conns_rejected == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.stats().conns_rejected >= 1, "rejection counted");

    // Freeing a slot admits new connections again.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = false;
    while !admitted && Instant::now() < deadline {
        if let Ok(mut d) = Client::connect_with(addr, WireFormat::Json) {
            if d.ping().is_ok() {
                admitted = true;
            }
        }
        if !admitted {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    assert!(admitted, "slot freed after close");
    b.ping().expect("b unaffected throughout");
}

/// A JSON frame arriving mid-binary-session is a framing error: the
/// server cannot answer it in a format the peer's (evidently broken)
/// encoder will parse, so the connection closes — after the valid binary
/// frames before it were answered, and without touching any neighbor.
#[test]
fn json_frame_mid_binary_session_closes_only_the_offender() {
    let (_server, addr) = spawn(TransportConfig::default());

    // A healthy JSON neighbor sharing the server the whole time.
    let mut neighbor = Client::connect_with(addr, WireFormat::Json).expect("neighbor connect");
    neighbor.ping().expect("neighbor serves");

    let stream = TcpStream::connect(addr).expect("offender connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");

    // Two valid binary pings negotiate the session and are answered.
    writer.write_all(&gpsq::ping_frame(1)).expect("ping 1");
    writer.write_all(&gpsq::ping_frame(2)).expect("ping 2");
    writer.flush().expect("flush");
    assert_eq!(gpsq::pong_id(&gpsq::read_payload(&mut reader)), 1);
    assert_eq!(gpsq::pong_id(&gpsq::read_payload(&mut reader)), 2);

    // Now a well-formed *JSON* frame on the binary session.
    let mut intruder = Vec::new();
    write_frame(&mut intruder, &predict_frame(3)).expect("encode");
    writer.write_all(&intruder).expect("intruder");
    writer.flush().expect("flush");
    assert_closed_within(stream, Duration::from_secs(5), "JSON mid-binary-session");

    // No collateral damage: the neighbor and fresh binary sessions
    // keep working.
    neighbor.ping().expect("neighbor unaffected");
    let mut fresh = Client::connect_with(addr, WireFormat::Binary).expect("fresh binary");
    fresh.ping().expect("server alive after format abuse");
}

/// The mirror case: a GPSQ frame arriving mid-JSON-session also closes
/// only the offender (no mid-stream format switches in either
/// direction).
#[test]
fn binary_frame_mid_json_session_closes_only_the_offender() {
    let (_server, addr) = spawn(TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");

    let mut bytes = Vec::new();
    write_frame(&mut bytes, &predict_frame(1)).expect("encode");
    writer.write_all(&bytes).expect("json frame");
    writer.flush().expect("flush");
    let response = read_frame(&mut reader).expect("read").expect("frame");
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));

    writer.write_all(&gpsq::ping_frame(2)).expect("gpsq frame");
    writer.flush().expect("flush");
    assert_closed_within(stream, Duration::from_secs(5), "GPSQ mid-JSON-session");
    let mut client = Client::connect_with(addr, WireFormat::Json).expect("fresh connect");
    client.ping().expect("server alive");
}

/// A burst of pipelined *binary* frames delivered in one write is
/// answered completely, in order, ids echoed — the GPSQ sibling of the
/// JSON pipelining case, past the event transport's pipeline window so
/// parked binary frames are exercised too.
#[test]
fn pipelined_binary_burst_answers_in_order() {
    const BURST: u64 = 300;
    let (_server, addr) = spawn(TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut burst = Vec::new();
    for id in 0..BURST {
        burst.extend_from_slice(&gpsq::ping_frame(id));
    }
    writer.write_all(&burst).expect("one segment");
    writer.flush().expect("flush");
    for id in 0..BURST {
        assert_eq!(
            gpsq::pong_id(&gpsq::read_payload(&mut reader)),
            id,
            "binary responses come back in request order"
        );
    }
}

/// A model whose cold answer for 10.0.0.0/16 ranks `ports` ports: one
/// tiny request, one big reply.
fn wide_priors_model(ports: u16) -> ServableModel {
    let snapshot = gps::core::ModelSnapshot {
        manifest: ModelManifest {
            format: (FORMAT_MAJOR, FORMAT_MINOR),
            universe_seed: 0,
            dataset_name: "adversarial-wide".into(),
            step_prefix: 16,
            min_prob: 1e-5,
            interactions: Interactions::ALL,
            net_features: vec![NetFeature::Slash(16)],
            hosts_in: 0,
            distinct_keys: 0,
            cooccur_entries: 0,
            num_rules: 0,
            num_priors: ports as usize,
            checksum: 0,
        },
        rules: CompiledRules::from_rules(&FeatureRules::from_parts(HashMap::new())),
        priors: (0..ports)
            .map(|i| PriorsEntry {
                port: Port(1000 + i),
                subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
                // Scattered weights: rank order is not port order.
                coverage: 1 + (u64::from(i) * 7919) % 1000,
            })
            .collect(),
    };
    ServableModel::from_snapshot(snapshot)
}

/// The most payload the kernel can hold between a writer and a peer that
/// never reads: the largest send buffer plus the largest receive buffer
/// TCP autotuning may grow to.
fn kernel_socket_slack() -> u64 {
    let max_of = |path: &str| -> Option<u64> {
        let text = std::fs::read_to_string(path).ok()?;
        text.split_whitespace().nth(2)?.parse().ok()
    };
    max_of("/proc/sys/net/ipv4/tcp_wmem").unwrap_or(32 << 20)
        + max_of("/proc/sys/net/ipv4/tcp_rmem").unwrap_or(32 << 20)
}

/// A peer pipelines a thousand tiny requests with big replies and does
/// not read. Every reply completes the moment its request is decoded, so
/// nothing but the write buffer's high-water mark stands between one
/// 64 KiB read burst and ~90 MB of queued replies: the connection must
/// stop answering once the mark is passed (at most one reply over it),
/// park the rest of the burst, and pick up again — in order — when the
/// peer finally reads. The server's request counter is the witness: each
/// answered request put one reply either into the kernel's socket
/// buffers or into the connection's own.
#[test]
fn non_reading_pipelined_client_cannot_grow_the_write_buffer() {
    const REQUESTS: u64 = 1200;
    const PORTS: u16 = 8000;
    /// `WRITE_HIGH_WATER` in `crates/serve/src/net/conn.rs`.
    const HIGH_WATER: u64 = 256 * 1024;
    /// A GPSQ ranking entry is a port varint (>= 1 byte) and 8 raw
    /// probability bytes.
    const MIN_REPLY_BYTES: u64 = 9 * PORTS as u64;
    // answered * reply <= kernel + HIGH_WATER + reply, with reply bounded
    // from below.
    let most_answerable = (kernel_socket_slack() + HIGH_WATER) / MIN_REPLY_BYTES + 1;

    let (server, addr) = spawn_model(wide_priors_model(PORTS), TransportConfig::default());
    let mut query = Query::new(Ip::from_octets(10, 0, 0, 1));
    query.top = PORTS as usize;
    let expected = server.model().predict(&query);
    assert_eq!(expected.len(), PORTS as usize, "one reply ranks every port");

    let mut client = Client::connect_with(addr, WireFormat::Binary).expect("connect");
    let ids: Vec<u64> = (0..REQUESTS)
        .map(|_| client.predict_send(None, &query).expect("pipelined send"))
        .collect();

    // Not reading. Wait for the server to go quiet.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut answered = 0;
    let mut quiet_since = Instant::now();
    while answered == 0 || quiet_since.elapsed() < Duration::from_millis(300) {
        assert!(Instant::now() < deadline, "never went quiet");
        std::thread::sleep(Duration::from_millis(20));
        let now = server.stats().requests;
        if now != answered {
            answered = now;
            quiet_since = Instant::now();
        }
    }
    assert!(
        answered <= most_answerable,
        "{answered} replies queued for a peer that reads nothing \
         (kernel buffers + high-water + one reply hold at most {most_answerable})"
    );

    // Now read: every reply arrives, in request order, bit for bit.
    for id in ids {
        let ranked = client.predict_recv(id).expect("reply in order");
        assert!(
            ranked.len() == expected.len()
                && ranked
                    .iter()
                    .zip(&expected)
                    .all(|(got, want)| got.0 == want.0 && got.1.to_bits() == want.1.to_bits()),
            "reply {id} differs from the model's answer"
        );
    }
    assert_eq!(server.stats().requests, REQUESTS);
}

/// One client write carrying a whole pipelined burst whose replies cross
/// the write high-water mark several times mid-burst. The event loop
/// queues a burst's replies and sends them with one flush, flushing early
/// only when the buffer is over the mark — so a dropped or reordered tail
/// shows here: every reply must arrive, in request order, bit-identical
/// to the model's own answer, and the connection must still serve.
#[test]
fn one_write_burst_crossing_high_water_answers_in_order() {
    const BURST: usize = 48;
    const PORTS: u16 = 4000;
    let (server, addr) = spawn_model(wide_priors_model(PORTS), TransportConfig::default());
    // Distinct `top` per request: replies differ in length and
    // content (>= 9 bytes per ranked port, ~36 KiB each against a
    // 256 KiB mark), so a swapped pair cannot pass.
    let queries: Vec<Query> = (0..BURST)
        .map(|i| {
            let mut query = Query::new(Ip::from_octets(10, 0, 0, 1));
            query.top = PORTS as usize - i;
            query
        })
        .collect();
    let mut client = Client::connect_with(addr, WireFormat::Binary).expect("connect");
    // Sends only buffer (about 1 KiB in all, under the client's
    // 8 KiB writer): the first recv flushes the burst as one write.
    let ids: Vec<u64> = queries
        .iter()
        .map(|query| client.predict_send(None, query).expect("buffered send"))
        .collect();
    let check = |i: usize, ranked: Ranked| {
        let expected = server.model().predict(&queries[i]);
        assert!(
            ranked.len() == expected.len()
                && ranked
                    .iter()
                    .zip(&expected)
                    .all(|(got, want)| got.0 == want.0 && got.1.to_bits() == want.1.to_bits()),
            "reply {i} differs from the model's answer"
        );
    };
    check(0, client.predict_recv(ids[0]).expect("first reply"));

    // Read the rest only after the server has answered all it can
    // with nobody reading.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut answered = 0;
    let mut quiet_since = Instant::now();
    while answered < BURST as u64 && quiet_since.elapsed() < Duration::from_millis(300) {
        assert!(Instant::now() < deadline, "never went quiet");
        std::thread::sleep(Duration::from_millis(10));
        let now = server.stats().requests;
        if now != answered {
            answered = now;
            quiet_since = Instant::now();
        }
    }
    for (i, &id) in ids.iter().enumerate().skip(1) {
        check(i, client.predict_recv(id).expect("reply in order"));
    }
    check(
        0,
        client
            .predict(&queries[0])
            .expect("connection still usable"),
    );
    assert_eq!(server.stats().requests, BURST as u64 + 1);
}

/// A pipelining client pays for the wire once per burst: a receive whose
/// reply is already whole in the client's read buffer leaves the sends
/// made since buffered, and the next receive that has to read the socket
/// flushes them. The server's request counter is the witness that the
/// later sends stayed in the client until then. Distinct `top`s make
/// every reply distinct, so a reply taken out of order cannot pass.
#[test]
fn buffered_replies_drain_without_flushing_later_sends() {
    const PORTS: u16 = 64;
    const WINDOW: usize = 4;
    for wire in [WireFormat::Binary, WireFormat::Json] {
        let (server, addr) = spawn_model(wide_priors_model(PORTS), TransportConfig::default());
        let queries: Vec<Query> = (0..WINDOW + 2)
            .map(|i| {
                let mut query = Query::new(Ip::from_octets(10, 0, 0, 1));
                query.top = PORTS as usize - i;
                query
            })
            .collect();
        let check = |i: usize, ranked: Ranked| {
            let expected = server.model().predict(&queries[i]);
            assert!(
                ranked.len() == expected.len()
                    && ranked.iter().zip(&expected).all(|(got, want)| {
                        got.0 == want.0 && got.1.to_bits() == want.1.to_bits()
                    }),
                "{wire:?}: reply {i} differs from the model's answer"
            );
        };
        let mut client = Client::connect_with(addr, wire).expect("connect");
        let mut ids: Vec<u64> = queries[..WINDOW]
            .iter()
            .map(|query| client.predict_send(None, query).expect("buffered send"))
            .collect();
        // The first receive finds nothing buffered: it flushes the window
        // as one write, which the server answers as one burst, so the
        // other replies arrive with the first.
        check(0, client.predict_recv(ids[0]).expect("first reply"));
        assert_eq!(server.stats().requests, WINDOW as u64, "{wire:?}");

        // Two more sends while three replies wait in the read buffer.
        for query in &queries[WINDOW..] {
            ids.push(client.predict_send(None, query).expect("buffered send"));
        }
        for (i, &id) in ids.iter().enumerate().take(WINDOW).skip(1) {
            check(i, client.predict_recv(id).expect("buffered reply"));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            server.stats().requests,
            WINDOW as u64,
            "{wire:?}: draining buffered replies flushed the later sends"
        );

        // Nothing is buffered now: this receive flushes both sends.
        for (i, &id) in ids.iter().enumerate().skip(WINDOW) {
            check(i, client.predict_recv(id).expect("reply after the flush"));
        }
        assert_eq!(server.stats().requests, WINDOW as u64 + 2, "{wire:?}");
    }
}

/// A legal batch whose reply passes the frame cap: 256 cold queries, each
/// ranking 8,000 ports (about 20 MB of GPSQ, more as JSON). On GPSQ, on
/// framed JSON and through the GPSQ admin envelope the batch is answered
/// with the standard over-cap error carrying its request id, and the next
/// request on the same connection is answered.
#[test]
fn a_reply_over_the_frame_cap_is_the_standard_error_and_the_connection_serves_on() {
    const PORTS: u16 = 8000;
    const OVERSIZE: &str = "response exceeds frame size cap";
    let (_server, addr) = spawn_model(wide_priors_model(PORTS), TransportConfig::default());
    let queries: Vec<Query> = (0..256u32)
        .map(|i| {
            let mut query = Query::new(Ip(Ip::from_octets(10, 0, 0, 0).0 + i));
            query.top = PORTS as usize;
            query
        })
        .collect();
    let small = Query::new(Ip::from_octets(10, 0, 0, 1));
    for wire in [WireFormat::Binary, WireFormat::Json] {
        let mut client = Client::connect_with(addr, wire).expect("connect");
        let err = client
            .predict_batch(&queries)
            .expect_err("the reply passes the cap");
        assert_eq!(err.to_string(), OVERSIZE, "{wire:?}");
        let ranked = client.predict(&small).expect("the connection serves on");
        assert_eq!(ranked.len(), 16, "{wire:?}: the server's default top");
    }

    // The admin envelope: a JSON batch command inside a GPSQ frame.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let batch: Vec<Json> = queries
        .iter()
        .map(gps::serve::proto::query_to_json)
        .collect();
    let mut request = Json::obj();
    request
        .set("cmd", "batch")
        .set("queries", batch)
        .set("id", Json::Num(41.0));
    let mut text = String::new();
    request.write(&mut text);
    let mut frames = gpsq::admin_frame(&text);
    frames.extend(gpsq::admin_frame(r#"{"cmd":"ping","id":42}"#));
    stream.write_all(&frames).expect("batch, then ping");
    for (id, want) in [(41, Some(OVERSIZE)), (42, None)] {
        let gpsq::Reply::Admin(text) = gpsq::decode(&gpsq::read_payload(&mut stream)) else {
            panic!("admin envelope reply expected for id {id}");
        };
        let reply = Json::parse(&text).expect("admin json");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id), "{text}");
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            want,
            "id {id}: {text}"
        );
        let ok = reply.get("ok").and_then(Json::as_bool);
        assert_eq!(ok, Some(want.is_none()), "id {id}: {text}");
    }
}

/// Valid binary frame, then garbage whose first bytes read as a ~4GB
/// length prefix: the valid frame is answered, then the connection
/// closes (framing death), like the JSON trailing-garbage case.
#[test]
fn trailing_garbage_after_valid_binary_frame() {
    let (_server, addr) = spawn(TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");

    let mut bytes = gpsq::ping_frame(7);
    bytes.extend_from_slice(&[0xFF; 8]);
    writer.write_all(&bytes).expect("frame + garbage");
    writer.flush().expect("flush");
    assert_eq!(
        gpsq::pong_id(&gpsq::read_payload(&mut reader)),
        7,
        "the valid binary frame is answered first"
    );
    assert_closed_within(stream, Duration::from_secs(5), "binary trailing garbage");
    let mut client = Client::connect_with(addr, WireFormat::Binary).expect("fresh connect");
    client.ping().expect("server alive");
}

/// The binary client through the byte-dribbling proxy: GPSQ requests and
/// responses torn into single-byte TCP segments still reassemble (both
/// directions of the incremental decoder, binary session).
#[test]
fn binary_client_survives_dribbled_bytes() {
    let (_server, addr) = spawn(TransportConfig::default());
    let proxy = DribbleProxy::start(addr).expect("proxy");
    let mut client =
        Client::connect_with(proxy.addr(), WireFormat::Binary).expect("connect via proxy");
    client.ping().expect("ping through dribble");
    let ranked = client
        .predict(&Query::new(Ip::from_octets(10, 0, 0, 9)).with_open([80]))
        .expect("predict through dribble");
    assert_eq!(ranked[0], (Port(443), 0.9));
    let batch = vec![
        Query::new(Ip::from_octets(10, 0, 1, 1)),
        Query::new(Ip::from_octets(10, 0, 2, 2)).with_open([80]),
    ];
    let answers = client.predict_batch(&batch).expect("batch through dribble");
    assert_eq!(answers.len(), 2);
    assert_eq!(answers[1][0], (Port(443), 0.9));
    // Admin envelope through the dribble too.
    client.stats().expect("stats through dribble");
}

/// Regression for the `Client` read path: every response byte arriving
/// in its own TCP segment (length prefix torn across four reads) must
/// reassemble — covered by routing a real client through the
/// byte-dribbling proxy.
#[test]
fn client_reassembles_dribbled_responses() {
    let (_server, addr) = spawn(TransportConfig::default());
    let proxy = DribbleProxy::start(addr).expect("proxy");
    let mut client =
        Client::connect_with(proxy.addr(), WireFormat::Json).expect("connect via proxy");
    client.ping().expect("ping through dribble");
    let ranked = client
        .predict(&Query::new(Ip::from_octets(10, 0, 0, 9)).with_open([80]))
        .expect("predict through dribble");
    assert_eq!(ranked[0], (Port(443), 0.9));
    let batch = vec![
        Query::new(Ip::from_octets(10, 0, 1, 1)),
        Query::new(Ip::from_octets(10, 0, 2, 2)).with_open([80]),
    ];
    let answers = client.predict_batch(&batch).expect("batch through dribble");
    assert_eq!(answers.len(), 2);
    assert_eq!(answers[1][0], (Port(443), 0.9));
}

/// A batch whose frame would pass the 16 MiB cap is refused by the
/// client before a byte is sent — `InvalidInput`, "frame too large" — on
/// both wires, and the same client stays in step: its next predict is
/// answered. Each query carries 64 five-digit ports; GPSQ packs a query
/// into ~136 bytes and JSON into ~410, so each wire gets the count that
/// passes the cap.
#[test]
fn client_refuses_an_oversized_frame_and_stays_in_step() {
    let (_server, addr) = spawn(TransportConfig::default());
    for (wire, count) in [(WireFormat::Json, 45_000u32), (WireFormat::Binary, 130_000)] {
        let mut client = Client::connect_with(addr, wire).expect("connect");
        let open: Vec<u16> = (0..64).map(|i| 10_000 + 800 * i).collect();
        let batch: Vec<Query> = (0..count)
            .map(|i| Query::new(Ip(0x0A00_0000 + i)).with_open(open.iter().copied()))
            .collect();
        let err = client
            .predict_batch_on(None, &batch)
            .expect_err("over the frame cap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{wire:?}");
        assert_eq!(err.to_string(), "frame too large", "{wire:?}");
        drop(batch);
        let ranked = client
            .predict(&Query::new(Ip::from_octets(10, 0, 0, 9)).with_open([80]))
            .expect("still in step");
        assert_eq!(ranked[0], (Port(443), 0.9), "{wire:?}");
    }
}

/// Raw protocol sanity under the dribble proxy from the server's
/// perspective too: a request written through the proxy arrives a byte
/// at a time and is still answered (this is the regression pairing for
/// the incremental server-side decoder).
#[test]
fn server_reassembles_dribbled_requests() {
    let (_server, addr) = spawn(TransportConfig::default());
    let proxy = DribbleProxy::start(addr).expect("proxy");
    let stream = TcpStream::connect(proxy.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &predict_frame(4)).expect("write");
    let response = read_frame(&mut reader).expect("read").expect("frame");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(4));
}

/// A `POST /predict` body that is not UTF-8 is refused as bad JSON with
/// a 400 naming the UTF-8 failure, not decoded with replacement
/// characters, and the kept-alive connection answers the next request.
#[test]
fn http_body_that_is_not_utf8_is_a_400_and_the_connection_serves_on() {
    let server = Arc::new(PredictionServer::start(model(), ServeConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("frame port");
    let http = TcpListener::bind("127.0.0.1:0").expect("http port");
    let http_addr = http.local_addr().expect("http addr");
    std::thread::spawn(move || {
        gps::serve::serve_with_http(server, listener, Some(http), TransportConfig::default())
    });
    let mut stream = TcpStream::connect(http_addr).expect("http connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let bad = b"{\"ip\":\"10.0.0.1\",\"top\":2,\"model\":\"\xff\"}";
    let ok = r#"{"ip":"10.0.3.4","open":[80]}"#;
    let mut requests = format!(
        "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        bad.len()
    )
    .into_bytes();
    requests.extend_from_slice(bad);
    write!(
        requests,
        "POST /predict HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{ok}",
        ok.len()
    )
    .expect("second request");
    stream.write_all(&requests).expect("requests");
    let mut both = Vec::new();
    stream.read_to_end(&mut both).expect("both replies");
    let text = String::from_utf8(both).expect("replies are utf-8");
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    let second = text.find("HTTP/1.1 200 ").expect("a 200 after the 400");
    let refusal = &text[..second];
    assert!(
        refusal.contains(r#"{"ok":false,"error":"bad json: "#) && refusal.contains("not utf-8"),
        "{refusal}"
    );
    assert!(!refusal.contains('\u{fffd}'), "{refusal}");
    assert!(text[second..].contains(r#""ok":true"#), "{text}");
}

/// Adversarial *backends* behind the routing tier: a backend that stalls
/// mid-request (the per-attempt deadline must fire and an alternate must
/// answer) and a backend that replies with protocol garbage (it must be
/// marked down without poisoning the front connection). The router's /16
/// owner hash is mirrored here so each test can aim queries at the
/// misbehaving backend deliberately.
mod router_adversarial {
    use super::*;
    use gps::serve::{Router, RouterConfig, RouterHandle};
    use std::sync::atomic::{AtomicU32, Ordering};

    pub(super) fn owner_of(ip: Ip, n: usize) -> usize {
        (((ip.0 >> 16) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
    }

    /// An IP in `10.x.0.0/16` space owned by backend `want` of `n`.
    pub(super) fn ip_owned_by(want: usize, n: usize) -> Ip {
        (0u32..256)
            .map(|x| Ip::from_octets(10, x as u8, 3, 4))
            .find(|&ip| owner_of(ip, n) == want)
            .expect("some /16 hashes to every backend")
    }

    /// A backend that accepts, reads, and never says a word.
    fn spawn_staller() -> (SocketAddr, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind staller");
        let addr = listener.local_addr().expect("local addr");
        let conns = Arc::new(AtomicU32::new(0));
        {
            let conns = conns.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    conns.fetch_add(1, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        let mut void = [0u8; 1024];
                        while matches!(stream.read(&mut void), Ok(n) if n > 0) {}
                    });
                }
            });
        }
        (addr, conns)
    }

    /// A backend that answers every connection with bytes that are not a
    /// frame: a length prefix far past the 16 MiB cap, then junk.
    fn spawn_garbage() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind garbage");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let mut void = [0u8; 1024];
                    // Wait for the router's request, then poison the reply.
                    let _ = stream.read(&mut void);
                    let _ = stream.write_all(&[0xFF; 64]);
                    let _ = stream.flush();
                });
            }
        });
        addr
    }

    fn backend_health(handle: &RouterHandle, idx: usize) -> String {
        let stats = handle.stats_json();
        stats
            .get("router")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_arr)
            .and_then(|b| b.get(idx))
            .and_then(|b| b.get("health"))
            .and_then(Json::as_str)
            .expect("backend health")
            .to_string()
    }

    fn await_down(handle: &RouterHandle, idx: usize, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while backend_health(handle, idx) != "down" {
            assert!(
                Instant::now() < deadline,
                "{what}: backend {idx} never marked down (health {})",
                backend_health(handle, idx)
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// A backend that accepts the request and stalls forever: the
    /// per-attempt deadline fires, the alternate answers the query, and
    /// once the staller is marked down later queries skip it entirely
    /// (fast again).
    #[test]
    fn stalling_backend_hits_deadline_and_alternate_answers() {
        let (_real_server, real_addr) = spawn(TransportConfig::default());
        let (stall_addr, stall_conns) = spawn_staller();
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                backends: vec![real_addr.to_string(), stall_addr.to_string()],
                // One probe round at startup only: the *query path* must
                // discover the stall via its own deadline here, not lean
                // on the prober.
                probe_interval: Duration::from_secs(60),
                request_timeout: Duration::from_millis(300),
                max_retries: 2,
            },
        )
        .expect("router starts");
        let mut client =
            Client::connect_with(handle.addr(), WireFormat::Json).expect("connect router");
        let owned = ip_owned_by(1, 2); // owned by the staller

        let t0 = Instant::now();
        let ranked = client
            .predict_on(None, &Query::new(owned).with_open([80]))
            .expect("answered despite the stall");
        let elapsed = t0.elapsed();
        assert_eq!(ranked[0], (Port(443), 0.9), "alternate served the query");
        assert!(
            elapsed >= Duration::from_millis(250),
            "deadline should have gated the stalled attempt, got {elapsed:?}"
        );
        assert!(handle.retries_total() > 0, "the stall forced a failover");
        assert!(
            stall_conns.load(Ordering::Relaxed) > 0,
            "the staller really was attempted"
        );

        // The stalled attempt plus the startup probe put the staller at
        // two failures: down. Later queries skip it without paying the
        // deadline.
        await_down(&handle, 1, "stall");
        let t0 = Instant::now();
        let ranked = client
            .predict_on(None, &Query::new(owned).with_open([80]))
            .expect("still answered");
        assert_eq!(ranked[0], (Port(443), 0.9));
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "a downed staller must not be waited on again, got {:?}",
            t0.elapsed()
        );
    }

    /// A stalled backend inside one pipelined burst: its 32 queries wait
    /// out one deadline together — one per burst, not one per query —
    /// then move to the healthy backend, each exactly once, while the
    /// healthy backend's 32 are answered meanwhile. Nothing is shed.
    #[test]
    fn stalled_backend_inside_a_pipelined_burst_costs_one_deadline() {
        let (_real_server, real_addr) = spawn(TransportConfig::default());
        let (stall_addr, stall_conns) = spawn_staller();
        let timeout = Duration::from_millis(300);
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                backends: vec![real_addr.to_string(), stall_addr.to_string()],
                probe_interval: Duration::from_secs(60),
                request_timeout: timeout,
                max_retries: 2,
            },
        )
        .expect("router starts");
        let (healthy, stalled) = (ip_owned_by(0, 2), ip_owned_by(1, 2));
        let mut client =
            Client::connect_with(handle.addr(), WireFormat::Json).expect("connect router");
        // 64 JSON frames of ~60 bytes stay inside the client's 8 KiB
        // writer: the first receive flushes them as one write.
        let ids: Vec<u64> = (0..64u32)
            .map(|i| {
                let base = if i % 2 == 0 { stalled } else { healthy };
                let query = Query::new(Ip(base.0 + i)).with_open([80]);
                client.predict_send(None, &query).expect("buffered send")
            })
            .collect();
        let t0 = Instant::now();
        for id in ids {
            let ranked = client.predict_recv(id).expect("answered despite the stall");
            assert_eq!(ranked[0], (Port(443), 0.9));
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < 2 * timeout,
            "one deadline per burst, got {elapsed:?} against a {timeout:?} deadline"
        );
        assert!(
            stall_conns.load(Ordering::Relaxed) > 0,
            "the staller was tried"
        );
        assert_eq!(handle.shed_total(), 0, "the healthy backend covered");
        assert_eq!(handle.retries_total(), 32, "each stalled query moved once");
    }

    /// A backend that replies with garbage bytes: the router abandons the
    /// poisoned backend connection, retries on the healthy alternate, and
    /// the *front* connection keeps working — protocol corruption on a
    /// backend link never propagates to clients.
    #[test]
    fn garbage_frame_backend_is_marked_down_without_poisoning_the_front() {
        let (_real_server, real_addr) = spawn(TransportConfig::default());
        let garbage_addr = spawn_garbage();
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                // Garbage backend first: index 0.
                backends: vec![garbage_addr.to_string(), real_addr.to_string()],
                probe_interval: Duration::from_millis(100),
                request_timeout: Duration::from_millis(500),
                max_retries: 2,
            },
        )
        .expect("router starts");
        let mut client =
            Client::connect_with(handle.addr(), WireFormat::Json).expect("connect router");
        let owned = ip_owned_by(0, 2); // owned by the garbage backend

        let ranked = client
            .predict_on(None, &Query::new(owned).with_open([80]))
            .expect("answered despite the garbage");
        assert_eq!(ranked[0], (Port(443), 0.9), "alternate served the query");
        assert!(handle.retries_total() > 0, "the garbage forced a failover");

        // The prober speaks real GPSQ at the garbage backend and keeps
        // failing: down it goes.
        await_down(&handle, 0, "garbage");

        // Front connection not poisoned: the same client keeps getting
        // correct answers on both partitions, and batches spanning the
        // downed owner still come back complete.
        for i in 0..8u32 {
            let ip = Ip::from_octets(10, i as u8, 9, 9);
            let ranked = client
                .predict_on(None, &Query::new(ip).with_open([80]))
                .expect("front connection survived");
            assert_eq!(ranked[0], (Port(443), 0.9));
        }
        let batch: Vec<Query> = (0..16u32)
            .map(|i| Query::new(Ip::from_octets(10, i as u8, 5, 5)).with_open([80]))
            .collect();
        let answers = client.predict_batch_on(None, &batch).expect("batch");
        assert_eq!(answers.len(), 16);
        assert!(answers.iter().all(|r| r[0] == (Port(443), 0.9)));
        assert_eq!(handle.shed_total(), 0, "the healthy backend covered");
    }

    /// With *every* backend unreachable the router sheds: an explicit
    /// `overloaded` error, immediately — not a hang, not a closed
    /// connection — and the same front connection recovers the moment a
    /// backend is healthy again (here: never, so it keeps shedding).
    #[test]
    fn all_backends_down_sheds_with_explicit_error() {
        // Two addresses with nothing listening: connects fail instantly.
        let dead_a = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_b = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr_a = dead_a.local_addr().expect("addr");
        let addr_b = dead_b.local_addr().expect("addr");
        drop(dead_a);
        drop(dead_b);
        let handle = Router::start(
            "127.0.0.1:0",
            None,
            RouterConfig {
                backends: vec![addr_a.to_string(), addr_b.to_string()],
                probe_interval: Duration::from_millis(100),
                request_timeout: Duration::from_millis(300),
                max_retries: 2,
            },
        )
        .expect("router starts");
        let mut client =
            Client::connect_with(handle.addr(), WireFormat::Json).expect("connect router");
        let err = client
            .predict_on(None, &Query::new(Ip::from_octets(10, 1, 2, 3)))
            .expect_err("no backend can answer");
        assert!(
            err.to_string().contains("overloaded"),
            "explicit shed error, got: {err}"
        );
        assert!(handle.shed_total() > 0);
        // The front connection is still alive and speaks protocol.
        let err = client
            .predict_on(None, &Query::new(Ip::from_octets(10, 4, 5, 6)))
            .expect_err("still shedding");
        assert!(err.to_string().contains("overloaded"));
    }
}

/// The router hop under pipelined bursts: everything one client write
/// carries is routed at once — singles and batch parts to both backends,
/// admin frames after the predicts — and answered in request order, on
/// both front wires.
mod router_hop {
    use super::router_adversarial::{ip_owned_by, owner_of};
    use super::*;
    use gps::core::{censys_dataset, run_gps, GpsConfig, ModelSnapshot};
    use gps::serve::proto::{query_to_json, ranked_from_json, MAX_TOP};
    use gps::serve::{Router, RouterConfig, RouterHandle};
    use gps::synthnet::{Internet, UniverseConfig};

    /// A model trained on the quick universe, and that universe's hosts.
    fn trained() -> (ModelSnapshot, Vec<Ip>) {
        let net = Internet::generate(&UniverseConfig::tiny(42));
        let dataset = censys_dataset(&net, 200, 0.05, 0, 1);
        let config = GpsConfig {
            seed_fraction: 0.05,
            step_prefix: 16,
            ..GpsConfig::default()
        };
        let run = run_gps(&net, &dataset, &config);
        let hosts = net.host_ips().iter().map(|&ip| Ip(ip)).collect();
        (ModelSnapshot::from_run(&run, &config, 42), hosts)
    }

    type Backend = (Arc<PredictionServer>, SocketAddr);

    /// Two backends serving `model()`, behind a router with its HTTP
    /// sideline and the shipping defaults otherwise.
    fn tier(model: impl Fn() -> ServableModel) -> (Vec<Backend>, RouterHandle) {
        let backends: Vec<Backend> = (0..2)
            .map(|_| spawn_model(model(), TransportConfig::default()))
            .collect();
        let router = Router::start(
            "127.0.0.1:0",
            Some("127.0.0.1:0"),
            RouterConfig {
                backends: backends.iter().map(|(_, addr)| addr.to_string()).collect(),
                ..RouterConfig::default()
            },
        )
        .expect("router starts");
        (backends, router)
    }

    /// `count` queries over both owners with varied evidence: an IP owned
    /// by each backend first, then hosts of the trained universe.
    fn queries(hosts: &[Ip], count: usize, top: usize) -> Vec<Query> {
        let evidence: [&[u16]; 4] = [&[], &[80], &[443], &[22, 80]];
        (0..count)
            .map(|i| {
                let ip = if i < 2 {
                    ip_owned_by(i, 2)
                } else {
                    hosts[(i * 7919) % hosts.len()]
                };
                let mut query = Query::new(ip).with_open(evidence[i % 4].iter().copied());
                query.top = top;
                query
            })
            .collect()
    }

    fn same(got: &Ranked, want: &Ranked) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits())
    }

    enum Req<'a> {
        Predict(Option<&'a str>, &'a Query),
        Batch(&'a [Query]),
        Ping,
        Stats,
    }

    /// One request frame carrying `id`, on `wire`.
    fn encode(wire: WireFormat, id: u64, req: Req<'_>) -> Vec<u8> {
        if wire == WireFormat::Binary {
            return match req {
                Req::Predict(model, query) => gpsq::predict_frame(id, model, query),
                Req::Batch(queries) => gpsq::batch_frame(id, queries),
                Req::Ping => gpsq::ping_frame(id),
                Req::Stats => gpsq::admin_frame(&format!("{{\"cmd\":\"stats\",\"id\":{id}}}")),
            };
        }
        let mut json = Json::obj();
        match req {
            Req::Predict(model, query) => {
                json = query_to_json(query);
                json.set("cmd", "predict");
                if let Some(model) = model {
                    json.set("model", model);
                }
            }
            Req::Batch(queries) => {
                let queries = queries.iter().map(query_to_json).collect::<Vec<_>>();
                json.set("cmd", "batch").set("queries", queries);
            }
            Req::Ping => {
                json.set("cmd", "ping");
            }
            Req::Stats => {
                json.set("cmd", "stats");
            }
        }
        json.set("id", Json::Num(id as f64));
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &json).expect("encode");
        bytes
    }

    /// What one front reply said, whichever wire carried it.
    #[derive(Debug)]
    enum Said {
        Rankings(Vec<Ranked>),
        Error(String),
        Pong,
        Stats(Json),
    }

    /// Read the next reply, which must answer request `id`.
    fn read_reply(wire: WireFormat, reader: &mut impl BufRead, id: u64) -> Said {
        let (got, said) = match wire {
            WireFormat::Json => {
                let reply = read_frame(reader).expect("read").expect("a reply");
                let said = if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                    Said::Error(
                        reply
                            .get("error")
                            .and_then(Json::as_str)
                            .expect("error")
                            .into(),
                    )
                } else if let Some(ranking) = reply.get("predictions") {
                    Said::Rankings(vec![ranked_from_json(ranking).expect("ranking")])
                } else if let Some(results) = reply.get("results").and_then(Json::as_arr) {
                    Said::Rankings(
                        results
                            .iter()
                            .map(|r| ranked_from_json(r).expect("ranking"))
                            .collect(),
                    )
                } else if let Some(stats) = reply.get("stats") {
                    Said::Stats(stats.clone())
                } else {
                    assert_eq!(reply.get("pong").and_then(Json::as_bool), Some(true));
                    Said::Pong
                };
                (reply.get("id").and_then(Json::as_u64), said)
            }
            WireFormat::Binary => match gpsq::decode(&gpsq::read_payload(reader)) {
                gpsq::Reply::Predict(got, ranking) => (got, Said::Rankings(vec![ranking])),
                gpsq::Reply::Batch(got, rankings) => (got, Said::Rankings(rankings)),
                gpsq::Reply::Error(got, message) => (got, Said::Error(message)),
                gpsq::Reply::Pong(got) => (got, Said::Pong),
                gpsq::Reply::Admin(text) => {
                    let reply = Json::parse(&text).expect("admin json");
                    let stats = reply.get("stats").expect("a stats reply").clone();
                    (reply.get("id").and_then(Json::as_u64), Said::Stats(stats))
                }
            },
        };
        assert_eq!(
            got,
            Some(id),
            "{wire:?}: replies come back in request order"
        );
        said
    }

    fn rankings(said: Said) -> Vec<Ranked> {
        match said {
            Said::Rankings(rankings) => rankings,
            other => panic!("expected rankings, got {other:?}"),
        }
    }

    /// `(health, errors)` per backend, from a router `stats` payload.
    fn health(stats: &Json) -> Vec<(String, u64)> {
        stats
            .get("router")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_arr)
            .expect("backends")
            .iter()
            .map(|b| {
                let health = b.get("health").and_then(Json::as_str).expect("health");
                (
                    health.to_string(),
                    b.get("errors").and_then(Json::as_u64).expect("errors"),
                )
            })
            .collect()
    }

    /// One client write carrying, in order: a single owned by each
    /// backend, a batch spanning both owners, `ping`, `stats`, and a
    /// predict naming an unknown model. Every reply comes back in request
    /// order and every ranking is bit-identical to the backend model's;
    /// the unknown model gets the backend's own error verbatim, and that
    /// error keeps the link: neither backend accepts a connection during
    /// the burst, and both stay up with no errors.
    #[test]
    fn mixed_burst_answers_in_request_order_on_both_wires() {
        let (snapshot, hosts) = trained();
        for wire in [WireFormat::Json, WireFormat::Binary] {
            let (backends, router) = tier(|| ServableModel::from_snapshot(snapshot.clone()));
            let model = backends[0].0.model();
            let singles = queries(&hosts, 2, 8);
            let batch = queries(&hosts, 40, 8);
            let unknown = Query::new(hosts[0]).with_open([80]);
            let want_error = Client::connect_with(backends[0].1, wire)
                .expect("direct connect")
                .predict_on(Some("no-such-model"), &unknown)
                .expect_err("unknown model")
                .to_string();

            let stream = TcpStream::connect(router.addr()).expect("connect router");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            // A first burst opens this connection's link to each backend.
            let mut warm = encode(wire, 1, Req::Predict(None, &singles[0]));
            warm.extend(encode(wire, 2, Req::Predict(None, &singles[1])));
            writer.write_all(&warm).expect("warm-up");
            for id in 1..=2 {
                rankings(read_reply(wire, &mut reader, id));
            }
            // Direct ask + prober + link on backend 0; prober + link on 1.
            let deadline = Instant::now() + Duration::from_secs(10);
            let accepted = |b: usize| backends[b].0.stats().conns_accepted;
            while accepted(0) < 3 || accepted(1) < 2 {
                assert!(Instant::now() < deadline, "{wire:?}: links never opened");
                std::thread::sleep(Duration::from_millis(10));
            }
            let before = [accepted(0), accepted(1)];

            let mut burst = Vec::new();
            let requests = [
                Req::Predict(None, &singles[0]),
                Req::Predict(None, &singles[1]),
                Req::Batch(&batch),
                Req::Ping,
                Req::Stats,
                Req::Predict(Some("no-such-model"), &unknown),
            ];
            for (id, request) in (1u64..).zip(requests) {
                burst.extend(encode(wire, id, request));
            }
            writer.write_all(&burst).expect("one write");

            for (id, query) in (1u64..).zip(&singles) {
                let got = rankings(read_reply(wire, &mut reader, id));
                assert!(
                    same(&got[0], &model.predict(query)),
                    "{wire:?}: single {id}"
                );
            }
            let got = rankings(read_reply(wire, &mut reader, 3));
            assert_eq!(got.len(), batch.len(), "{wire:?}");
            for (i, (got, query)) in got.iter().zip(&batch).enumerate() {
                assert!(
                    same(got, &model.predict(query)),
                    "{wire:?}: batch query {i}"
                );
            }
            assert!(
                got.iter().any(|r| !r.is_empty()),
                "{wire:?}: the batch has real answers"
            );
            assert!(matches!(read_reply(wire, &mut reader, 4), Said::Pong));
            match read_reply(wire, &mut reader, 5) {
                Said::Stats(stats) => assert_eq!(
                    health(&stats),
                    [("up".to_string(), 0), ("up".to_string(), 0)],
                    "{wire:?}"
                ),
                other => panic!("{wire:?}: expected stats, got {other:?}"),
            }
            match read_reply(wire, &mut reader, 6) {
                Said::Error(message) => assert_eq!(message, want_error, "{wire:?}: verbatim"),
                other => panic!("{wire:?}: expected the backend's error, got {other:?}"),
            }
            assert_eq!(
                [accepted(0), accepted(1)],
                before,
                "{wire:?}: the error reply kept the link"
            );
            assert_eq!(router.retries_total(), 0, "{wire:?}");
            assert_eq!(
                health(&router.stats_json()),
                [("up".to_string(), 0), ("up".to_string(), 0)]
            );
        }
    }

    /// Valid frames and then a garbage length prefix in the same write:
    /// the valid frames are answered, in order, then the connection
    /// closes — and a new connection is served.
    #[test]
    fn valid_frames_before_a_garbage_prefix_are_answered_then_the_connection_closes() {
        for wire in [WireFormat::Json, WireFormat::Binary] {
            let (_backends, router) = tier(model);
            let singles: Vec<Query> = (0..2)
                .map(|b| Query::new(ip_owned_by(b, 2)).with_open([80]))
                .collect();
            let stream = TcpStream::connect(router.addr()).expect("connect router");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream.try_clone().expect("clone");
            let mut bytes = encode(wire, 1, Req::Predict(None, &singles[0]));
            bytes.extend(encode(wire, 2, Req::Predict(None, &singles[1])));
            bytes.extend(encode(wire, 3, Req::Ping));
            bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, b'j', b'u', b'n', b'k']);
            writer.write_all(&bytes).expect("one write");
            for id in 1..=2 {
                let got = rankings(read_reply(wire, &mut reader, id));
                assert_eq!(got[0][0], (Port(443), 0.9), "{wire:?}");
            }
            assert!(matches!(read_reply(wire, &mut reader, 3), Said::Pong));
            assert_closed_within(stream, Duration::from_secs(5), "router after garbage");

            let mut client = Client::connect_with(router.addr(), wire).expect("new connection");
            let ranked = client.predict(&singles[1]).expect("served");
            assert_eq!(ranked[0], (Port(443), 0.9), "{wire:?}");
        }
    }

    /// Several pipelined batch frames in one write, with a `top` large
    /// enough that the replies due from each backend run to several MiB —
    /// past the backend's write high-water mark plus the socket buffers
    /// between it and the router. A hop that wrote everything before
    /// reading would stall on a backend that stopped reading; this one
    /// interleaves, so every ranking arrives bit-identical with no retry
    /// and no backend error.
    #[test]
    fn large_replies_cannot_wedge_a_link() {
        const FRAMES: usize = 10;
        const QUERIES: usize = 4096;
        let (snapshot, hosts) = trained();
        let (backends, router) = tier(|| ServableModel::from_snapshot(snapshot.clone()));
        let model = backends[0].0.model();
        // Cold queries rank their /16's priors: the longest answers this
        // model gives.
        let frames: Vec<Vec<Query>> = (0..FRAMES)
            .map(|f| {
                (0..QUERIES)
                    .map(|i| {
                        let mut query = Query::new(hosts[(f * QUERIES + i) % hosts.len()]);
                        query.top = MAX_TOP;
                        query
                    })
                    .collect()
            })
            .collect();
        let stream = TcpStream::connect(router.addr()).expect("connect router");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut burst = Vec::new();
        for (id, queries) in (1u64..).zip(&frames) {
            burst.extend(encode(WireFormat::Binary, id, Req::Batch(queries)));
        }
        writer.write_all(&burst).expect("one write");

        // A GPSQ ranking entry is a port varint (>= 1 byte) and 8
        // probability bytes: a lower bound on what each backend sent.
        let mut reply_bytes = [0usize; 2];
        for (id, queries) in (1u64..).zip(&frames) {
            let got = rankings(read_reply(WireFormat::Binary, &mut reader, id));
            assert_eq!(got.len(), queries.len());
            for (i, (got, query)) in got.iter().zip(queries).enumerate() {
                assert!(same(got, &model.predict(query)), "frame {id} query {i}");
                reply_bytes[owner_of(query.ip, 2)] += 9 * got.len();
            }
        }
        assert!(
            reply_bytes.iter().all(|&bytes| bytes > 4 << 20),
            "replies per backend must run to several MiB: {reply_bytes:?}"
        );
        assert_eq!(router.retries_total(), 0);
        assert_eq!(
            health(&router.stats_json()),
            [("up".to_string(), 0), ("up".to_string(), 0)]
        );
    }

    /// FNV-1a over each reply's length (u64, little-endian) and bytes.
    fn replies_digest(replies: &[Vec<u8>]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for reply in replies {
            for &byte in (reply.len() as u64).to_le_bytes().iter().chain(reply) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Every malformed or edge-case frame a front door can refuse, plus a
    /// success reply of each kind, sent one per fresh connection to a
    /// backend and to the router over it: the reply bytes are equal, so
    /// the router refuses (and answers) exactly as `gps serve` does. The
    /// backend's replies, and two HTTP `/predict` replies from a gateway,
    /// are pinned by digest: a byte change made to both sides at once
    /// fails here too.
    #[test]
    fn router_refuses_malformed_frames_like_the_server() {
        let (backends, router) = tier(model);
        let over_cap = vec!["{\"ip\":\"10.0.0.1\"}"; 65_537].join(",");
        let json = [
            "not json".to_string(),
            r#"{"id":1}"#.to_string(),
            r#"{"cmd":7,"id":2}"#.to_string(),
            r#"{"cmd":"stats","model":7,"id":3}"#.to_string(),
            r#"{"cmd":"predict","ip":"999.1.2.3","id":4}"#.to_string(),
            r#"{"cmd":"predict","open":[80],"id":5}"#.to_string(),
            r#"{"cmd":"batch","id":6}"#.to_string(),
            r#"{"cmd":"batch","queries":[{"ip":"10.0.0.1"},{"ip":"nope"}],"id":7}"#.to_string(),
            format!(
                r#"{{"cmd":"predict","ip":"10.0.0.1","top":{},"id":8}}"#,
                MAX_TOP + 1
            ),
            format!(r#"{{"cmd":"batch","queries":[{over_cap}],"id":9}}"#),
            r#"{"cmd":"predict","ip":"10.0.0.1","model":"no-such-model","id":10}"#.to_string(),
            r#"{"cmd":"batch","queries":[],"id":11}"#.to_string(),
            r#"{"cmd":"ping","id":12}"#.to_string(),
        ];
        let mut frames: Vec<Vec<u8>> = json.iter().map(|text| gpsq::text_frame(text)).collect();
        frames.extend([
            gpsq::raw_frame(1, 9, Some(13), &[]),
            gpsq::raw_frame(1, 2, Some(14), &[10, 0]),
            gpsq::raw_frame(2, 1, Some(15), &[]),
            gpsq::raw_frame(1, 4, None, b"{not json"),
            gpsq::raw_frame(1, 4, None, br#"{"id":17}"#),
            gpsq::raw_frame(1, 4, None, br#"{"cmd":"predict","ip":"bad","id":18}"#),
            gpsq::raw_frame(1, 4, None, &[0xFF, 0xFE, b'{']),
            // A batch declaring 65,537 queries (LEB128).
            gpsq::raw_frame(1, 3, Some(20), &[0x81, 0x80, 0x04]),
        ]);
        assert_eq!(frames.len(), 21);
        // The success replies: a predict and a batch on each wire (the
        // batch spans both owners and a cold /16 with priors), and one
        // command in the GPSQ admin envelope.
        let warm = Query::new(ip_owned_by(0, 2)).with_open([80]);
        let batch = [
            warm.clone(),
            Query::new(ip_owned_by(1, 2)).with_open([80]),
            Query::new(Ip::from_octets(10, 0, 9, 9)),
        ];
        for (wire, id) in [(WireFormat::Binary, 21), (WireFormat::Json, 23)] {
            frames.push(encode(wire, id, Req::Predict(None, &warm)));
            frames.push(encode(wire, id + 1, Req::Batch(&batch)));
        }
        frames.push(gpsq::admin_frame(r#"{"cmd":"ping","id":25}"#));
        let reply = |addr: SocketAddr, frame: &[u8]| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream.write_all(frame).expect("frame");
            gpsq::read_payload(&mut stream)
        };
        let mut pinned = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let direct = reply(backends[0].1, frame);
            let routed = reply(router.addr(), frame);
            assert_eq!(
                String::from_utf8_lossy(&routed),
                String::from_utf8_lossy(&direct),
                "frame {i}"
            );
            assert_eq!(routed, direct, "frame {i}");
            pinned.push(direct);
        }
        // Every frame counts as a request the router answered, refusals
        // included.
        let requests = router.stats_json().get("requests").and_then(Json::as_u64);
        assert_eq!(requests, Some(frames.len() as u64));

        // HTTP `/predict` on a gateway: a 200 on a kept-alive connection,
        // then a 400 that closes it.
        let server = Arc::new(PredictionServer::start(model(), ServeConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("frame port");
        let http = TcpListener::bind("127.0.0.1:0").expect("http port");
        let http_addr = http.local_addr().expect("http addr");
        std::thread::spawn(move || {
            gps::serve::serve_with_http(server, listener, Some(http), TransportConfig::default())
        });
        let mut stream = TcpStream::connect(http_addr).expect("http connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let ok = r#"{"ip":"10.0.3.4","open":[80],"id":26}"#;
        let bad = r#"{"ip":"nope","id":27}"#;
        write!(
            stream,
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{ok}\
             POST /predict HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{bad}",
            ok.len(),
            bad.len()
        )
        .expect("requests");
        let mut both = Vec::new();
        stream.read_to_end(&mut both).expect("both replies");
        let text = String::from_utf8_lossy(&both).into_owned();
        let second = text.find("HTTP/1.1 400 ").expect("a 400 after the 200");
        assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
        pinned.push(both[..second].to_vec());
        pinned.push(both[second..].to_vec());

        let bytes: usize = pinned.iter().map(Vec::len).sum();
        let digest = replies_digest(&pinned);
        assert_eq!(
            (digest, bytes),
            (0x5bc0_540d_b24b_92e5, 1662),
            "reply bytes moved:\n{}",
            pinned
                .iter()
                .map(|r| format!("{:?}", String::from_utf8_lossy(r)))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("http connect");
        write!(stream, "GET {path} HTTP/1.1\r\nhost: router\r\n\r\n").expect("request");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("response");
        text
    }

    /// `reset-stats` through the router zeroes the whole tier, its own
    /// `forwarded` counters included: the onward reset it sends each
    /// backend is not forwarded predict work.
    #[test]
    fn reset_stats_through_the_router_zeroes_forwarded() {
        let (backends, router) = tier(model);
        let mut client = Client::connect_with(router.addr(), WireFormat::Binary).expect("connect");
        for b in 0..2 {
            let ranked = client
                .predict(&Query::new(ip_owned_by(b, 2)).with_open([80]))
                .expect("predict");
            assert_eq!(ranked[0], (Port(443), 0.9));
        }
        let forwarded = |stats: Json| -> Vec<u64> {
            stats
                .get("router")
                .and_then(|r| r.get("backends"))
                .and_then(Json::as_arr)
                .expect("backends")
                .iter()
                .map(|b| {
                    b.get("forwarded")
                        .and_then(Json::as_u64)
                        .expect("forwarded")
                })
                .collect()
        };
        assert_eq!(forwarded(client.stats().expect("stats")), [1, 1]);
        client.reset_stats().expect("reset-stats");
        assert_eq!(forwarded(client.stats().expect("stats")), [0, 0]);
        let metrics = http_get(router.http_addr().expect("http sideline"), "/metrics");
        for (_, addr) in &backends {
            let series = format!("gps_backend_forwarded_total{{backend=\"{addr}\"}} 0");
            assert!(
                metrics.contains(&series),
                "{series} missing from:\n{metrics}"
            );
        }
    }

    /// One raw request to the router's HTTP sideline, `dribble`d a byte
    /// at a time or written at once, read until the router closes the
    /// connection. Returns the reply and whether it did close (EOF or
    /// reset) rather than leave the read to time out.
    fn http_raw(addr: SocketAddr, request: &[u8], dribble: bool) -> (String, bool) {
        let mut stream = TcpStream::connect(addr).expect("http connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        if dribble {
            for byte in request {
                stream
                    .write_all(std::slice::from_ref(byte))
                    .expect("dribble");
                std::thread::sleep(Duration::from_micros(200));
            }
        } else {
            // A refused head may be answered and closed before it is
            // all written.
            let _ = stream.write_all(request);
        }
        let mut reply = Vec::new();
        let closed = match stream.read_to_end(&mut reply) {
            Ok(_) => true,
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };
        (String::from_utf8_lossy(&reply).into_owned(), closed)
    }

    /// The sideline parses HTTP like the server's gateway: a dribbled
    /// request still parses; an oversized head, a chunked body and a
    /// garbage request line get their own status; a wrong method or path
    /// gets 405 or 404. Every reply says `connection: close` and the
    /// connection then closes, and `/healthz` turns 503 once the router
    /// drains.
    #[test]
    fn http_sideline_parses_refuses_and_drains_like_the_gateway() {
        let (_backends, router) = tier(model);
        let addr = router.http_addr().expect("http sideline");
        let healthz: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        let padded = format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Padding: {}\r\n\r\n",
            "a".repeat(16 * 1024)
        );
        let cases: [(&str, &[u8], bool, u16); 6] = [
            ("dribbled healthz", healthz, true, 200),
            ("oversized head", padded.as_bytes(), false, 431),
            (
                "chunked",
                b"POST /predict HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n",
                false,
                501,
            ),
            ("garbage line", b"EHLO observability\r\n\r\n", false, 400),
            (
                "wrong method",
                b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                false,
                405,
            ),
            (
                "unknown path",
                b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n",
                false,
                404,
            ),
        ];
        for (what, request, dribble, want) in cases {
            let (reply, closed) = http_raw(addr, request, dribble);
            let head = reply.split("\r\n\r\n").next().unwrap_or_default();
            let head = head.to_ascii_lowercase();
            assert!(
                head.starts_with(&format!("http/1.1 {want} ")),
                "{what}: want {want}, got {reply:?}"
            );
            assert!(
                head.contains("connection: close"),
                "{what}: every reply closes, got {head:?}"
            );
            assert!(closed, "{what}: the connection closes after the reply");
        }
        let (reply, _) = http_raw(addr, healthz, false);
        assert!(reply.ends_with("\r\n\r\nok\n"), "{reply:?}");
        router.begin_drain();
        let (reply, _) = http_raw(addr, healthz, false);
        assert!(
            reply.starts_with("HTTP/1.1 503 ") && reply.ends_with("\r\n\r\ndraining\n"),
            "healthz while draining: {reply:?}"
        );
    }
}

/// Graceful drain on `gps serve` itself: the wire `shutdown` command
/// flips the server into drain — the ack goes out,
/// in-flight work finishes, connections close once they owe nothing, and
/// new connections are refused.
mod serve_drain {
    use super::*;

    #[test]
    fn shutdown_command_drains_every_transport() {
        let (server, addr) = spawn(TransportConfig::default());

        // A working connection that has answered traffic already.
        let mut busy = Client::connect_with(addr, WireFormat::Json).expect("busy client");
        let ranked = busy
            .predict(&Query::new(Ip::from_octets(10, 0, 1, 1)).with_open([80]))
            .expect("pre-drain predict");
        assert_eq!(ranked[0], (Port(443), 0.9));

        // Another client sends the shutdown; the ack must come back
        // before anything closes.
        let mut admin = Client::connect_with(addr, WireFormat::Json).expect("admin client");
        admin.shutdown().expect("shutdown acked");
        assert!(server.is_draining(), "draining flag set");
        assert!(server.stats().draining, "stats report it");

        // The answered-and-idle connection closes: its event loop
        // sweeps it shut on its next wake, so at most one request
        // that raced the sweep is still served. Any reply that does
        // arrive must still be correct, and within two attempts the
        // close must have landed.
        let mut closed = false;
        for i in 0..2u8 {
            match busy.predict(&Query::new(Ip::from_octets(10, 0, 2 + i, 2)).with_open([80])) {
                Ok(ranked) => assert_eq!(ranked[0], (Port(443), 0.9)),
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        assert!(closed, "drained connection must close");

        // New connections are refused while draining: the TCP accept
        // may succeed but the server hangs up without answering.
        let mut late = Client::connect_with(addr, WireFormat::Json).expect("TCP-level connect");
        assert!(
            late.ping().is_err(),
            "draining server must not take new work"
        );
    }
}
