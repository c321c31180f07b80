//! Wire protocol: length-prefixed frames over TCP, in two negotiated
//! payload formats.
//!
//! Every message is a 4-byte big-endian length followed by that many
//! payload bytes. A connection's *first* frame negotiates what the
//! payloads are (`net::decoder`): a payload opening with the `GPSQ` magic
//! makes it a binary session (`crate::wire` — the hot-path format: no
//! text encode/decode, rankings as varint-delta ports + raw f64 bits);
//! anything else is a JSON session, the original protocol described
//! here. The choice is sticky per connection; both formats answer every
//! command identically (asserted by the wire-format parity e2e suite).
//! JSON requests are objects with a `cmd` field:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"predict","ip":"10.1.2.3","open":[80,443],"asn":7,"top":8}
//! {"cmd":"predict","ip":"10.1.2.3","model":"lzr-day3"}  — pick a model id
//! {"cmd":"batch","queries":[{"ip":...}, ...],"model":"quick"}
//! {"cmd":"stats"}                        — includes per-model breakdown
//! {"cmd":"manifest"}                     — optional "model" id too
//! {"cmd":"reload"}                       — re-read the served snapshot file
//! {"cmd":"reload","model":"/path.gpsb"}  — switch to a different snapshot
//! {"cmd":"reload","name":"quick"}        — reload a specific model id
//! {"cmd":"load","name":"b","model":"/b.gpsb"}  — register a new model
//! {"cmd":"unload","name":"b"}            — drop a model (not the default)
//! {"cmd":"list-models"}                  — every model id + its counters
//! {"cmd":"shutdown"}                     — drain: stop accepting, finish
//!                                          in-flight work, close
//!                                          connections
//! ```
//!
//! The server holds a *registry* of models keyed by id (`server.rs`); a
//! frame without `"model"`/`"name"` routes to the default model, so
//! pre-registry clients work unchanged. On query/batch/manifest frames
//! `"model"` is a model *id*; on `reload`/`load` frames `"model"` remains
//! the snapshot *path* it always was, and `"name"` carries the id.
//!
//! Successful responses carry `"ok":true` plus the payload; failures carry
//! `"ok":false` and an `"error"` string (a malformed request never kills
//! the connection; an unknown model id is an error reply like any other).
//! A request may carry an `"id"` (any JSON value); the response — success
//! *or* error — echoes it verbatim, so pipelining clients can correlate
//! failures with the request that caused them.
//!
//! `reload` swaps a served model with zero downtime (see the epoch slots
//! in `server.rs`); like `stats`, the admin commands are trusted-operator
//! surface — anyone who can reach the port can point the server at a
//! different snapshot *file path*, so bind to loopback or put an
//! authenticating proxy in front. The server is std-only; the event
//! loops in `crate::net` drive its sockets, and every inbound frame —
//! either wire format, the HTTP gateway's commands, and the router's
//! front — is decoded here (`decode_request` / `decode_json`). `gps
//! serve` answers it through `answer`, the router through its backends;
//! both produce one `Reply`, and `encode_reply` frames every reply for
//! its envelope.

use std::io::{self, BufRead, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::artifact::{Query, Ranked};
use crate::hist::{EndpointLabel, WireLabel};
use crate::net::http;
use crate::net::{FrameDecoder, WireFormat};
use crate::server::PredictionServer;
use crate::wire;
use gps_types::binary::ByteWriter;
use gps_types::json::Json;
use gps_types::{GpsError, Ip, JsonCodec, Port};

/// Frames above this many bytes are rejected (a length prefix is attacker
/// input; without a cap a single frame could balloon memory).
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Largest batch a single `batch` request may carry.
pub const MAX_BATCH_QUERIES: usize = 65_536;

/// Most open-port evidence entries a single query may carry: each one
/// costs a rule-table walk, so the cap bounds the work one query can ask
/// for.
pub const MAX_OPEN_PORTS: usize = 64;

/// Largest `top` a query may request over the wire (bounds response size).
pub const MAX_TOP: usize = 65_536;

/// Write one length-prefixed JSON frame.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let mut text = String::new();
    json.write(&mut text);
    let len = u32::try_from(text.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(frame_too_large)?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF before a length prefix.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Json>> {
    match read_frame_text(r)? {
        None => Ok(None),
        Some(text) => Json::parse(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Read one frame's payload text; `Ok(None)` on clean EOF before a length
/// prefix. Errors here are *framing* errors (truncation, size cap,
/// non-UTF-8): the stream position can no longer be trusted, so the
/// connection must close. Whether the text parses is the caller's concern
/// — the server replies to well-framed garbage instead of disconnecting.
pub fn read_frame_text(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    match read_frame_payload(r, &mut decoder)? {
        None => Ok(None),
        // The fresh decoder negotiated from this very frame; a GPSQ
        // payload negotiates Binary and is refused here (the caller asked
        // for text).
        Some(payload) => match decoder.format() {
            Some(WireFormat::Json) | None => {
                Ok(Some(String::from_utf8(payload).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "frame is not utf-8")
                })?))
            }
            Some(WireFormat::Binary) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected a JSON frame, got GPSQ",
            )),
        },
    }
}

/// Read one frame's payload bytes through a *persistent* per-connection
/// decoder (which carries the negotiated wire format across frames);
/// `Ok(None)` on clean EOF before a length prefix. Errors here are
/// *framing* errors (truncation, size cap, non-UTF-8 in a JSON session, a
/// format flip mid-session): the stream position can no longer be
/// trusted, so the connection must close. Whether the payload parses is
/// the caller's concern — the server replies to well-framed garbage
/// instead of disconnecting.
pub(crate) fn read_frame_payload(
    r: &mut impl BufRead,
    decoder: &mut FrameDecoder,
) -> io::Result<Option<Vec<u8>>> {
    // The decoder takes bytes out of the reader's buffer up to the end of
    // one frame and no further, so a length prefix or body torn across
    // arbitrarily small TCP segments reassembles correctly and the bytes
    // of later frames stay buffered for the next call. Only EOF before
    // the first length byte is a clean close; EOF midway through a frame
    // is truncation from a dead peer.
    loop {
        let buffered = match r.fill_buf() {
            Ok(buffered) => buffered,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buffered.is_empty() {
            return if decoder.at_boundary() {
                Ok(None)
            } else {
                Err(io::ErrorKind::UnexpectedEof.into())
            };
        }
        let mut rest = buffered;
        let frame = decoder
            .next_frame(&mut rest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let taken = buffered.len() - rest.len();
        r.consume(taken);
        if frame.is_some() {
            return Ok(frame);
        }
    }
}

/// True when `buffered` opens with one whole frame: a 4-byte big-endian
/// length prefix followed by at least that many bytes.
fn holds_whole_frame(buffered: &[u8]) -> bool {
    match buffered.split_first_chunk::<4>() {
        Some((prefix, body)) => body.len() >= u32::from_be_bytes(*prefix) as usize,
        None => false,
    }
}

/// Encode a query for the wire.
pub fn query_to_json(query: &Query) -> Json {
    let mut json = Json::obj();
    json.set("ip", query.ip.to_json());
    if !query.open.is_empty() {
        json.set(
            "open",
            query.open.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
        );
    }
    if let Some(asn) = query.asn {
        json.set("asn", asn);
    }
    if query.top > 0 {
        json.set("top", query.top);
    }
    json
}

/// Decode a query from the wire.
pub fn query_from_json(json: &Json) -> Result<Query, String> {
    let ip =
        Ip::from_json(json.req("ip").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let mut query = Query::new(ip);
    if let Some(open) = json.get("open") {
        let open = open.as_arr().ok_or("open must be an array")?;
        if open.len() > MAX_OPEN_PORTS {
            return Err(format!("open lists at most {MAX_OPEN_PORTS} ports"));
        }
        for port in open {
            query
                .open
                .push(Port::from_json(port).map_err(|e| e.to_string())?);
        }
    }
    if let Some(asn) = json.get("asn") {
        query.asn = Some(
            asn.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("bad asn")?,
        );
    }
    if let Some(top) = json.get("top") {
        let top = top.as_u64().ok_or("bad top")? as usize;
        if top > MAX_TOP {
            return Err(format!("top is capped at {MAX_TOP}"));
        }
        query.top = top;
    }
    Ok(query)
}

/// `[[port, prob], ...]`.
pub fn ranked_to_json(ranked: &Ranked) -> Json {
    Json::Arr(
        ranked
            .iter()
            .map(|&(port, prob)| Json::Arr(vec![port.to_json(), Json::Num(prob)]))
            .collect(),
    )
}

/// Inverse of [`ranked_to_json`].
pub fn ranked_from_json(json: &Json) -> Result<Ranked, String> {
    json.as_arr()
        .ok_or("predictions must be an array")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad prediction pair")?;
            let port = Port::from_json(&pair[0]).map_err(|e| e.to_string())?;
            let prob = pair[1].as_f64().ok_or("bad probability")?;
            Ok((port, prob))
        })
        .collect()
}

pub(crate) fn ok_response() -> Json {
    let mut json = Json::obj();
    json.set("ok", true);
    json
}

/// Patch the length prefix reserved at `start` once the payload is in
/// place; `false` (with the frame rolled back) if the payload outgrew the
/// cap.
fn finish_frame(out: &mut Vec<u8>, start: usize) -> bool {
    let len = out.len() - start - 4;
    match u32::try_from(len).ok().filter(|&n| n <= MAX_FRAME_BYTES) {
        Some(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            true
        }
        None => {
            out.truncate(start);
            false
        }
    }
}

/// Append one length-prefixed JSON frame carrying `text` to `out`;
/// `false` if it exceeded the cap (the buffer is rolled back).
fn append_json_frame(out: &mut Vec<u8>, text: &str) -> bool {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(text.as_bytes());
    finish_frame(out, start)
}

/// Append one length-prefixed GPSQ frame, encoding the payload *directly
/// into `out`* through a [`ByteWriter`] wrapping it (no intermediate
/// buffer — this is the zero-copy half of the binary wire path); `false`
/// if it exceeded the cap (rolled back).
pub(crate) fn append_binary_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut ByteWriter)) -> bool {
    let start = out.len();
    let mut writer = ByteWriter::from_vec(std::mem::take(out));
    writer.put_bytes(&[0u8; 4]);
    encode(&mut writer);
    *out = writer.into_bytes();
    finish_frame(out, start)
}

/// The standard substitute when a legal request produced a response past
/// the frame cap (a huge batch against a rule-rich model can):
pub(crate) const OVERSIZE_REPLY: &str = "response exceeds frame size cap";

/// How the reply to one decoded request frame must be encoded — the
/// per-request state carried from decoding to reply serialization.
pub(crate) enum ReplyCtx {
    /// A JSON-session frame: set the echoed id, serialize as JSON text.
    Json { id: Option<Json> },
    /// A native GPSQ frame: varint id, binary response body.
    Binary { id: Option<u64> },
    /// A GPSQ admin envelope: JSON semantics (id included) inside a
    /// binary frame.
    BinaryAdmin { id: Option<Json> },
    /// An HTTP request: the body is the *same* JSON text a JSON-wire
    /// reply carries (parity by construction), wrapped in an HTTP/1.1
    /// response head — 400 for an error, 200 otherwise.
    Http { id: Option<Json>, keep_alive: bool },
}

/// One reply, before [`encode_reply`] frames it for its envelope. The
/// server, the router and the HTTP gateway all answer with one.
pub(crate) enum Reply {
    /// A success response (`"ok":true` plus its payload).
    Json(Json),
    /// A refusal or failure: `{"ok":false,"error":...}`, or a GPSQ error
    /// frame.
    Error(String),
    /// The answer to `ping`: `{"ok":true,"pong":true}`, or a GPSQ pong.
    Pong,
    /// One ranking per query: `"predictions"` for a single, `"results"`
    /// for a `batch` frame — in either format.
    Rankings { answers: Vec<Ranked>, batch: bool },
}

impl Reply {
    /// The JSON text of the reply, with the request's id echoed last.
    fn text(self, id: &Option<Json>) -> String {
        let mut json = match self {
            Reply::Json(json) => json,
            Reply::Error(message) => {
                let mut json = Json::obj();
                json.set("ok", false).set("error", message);
                json
            }
            Reply::Pong => {
                let mut json = ok_response();
                json.set("pong", true);
                json
            }
            Reply::Rankings { answers, batch } => {
                let mut json = ok_response();
                if batch {
                    let results = answers.iter().map(ranked_to_json).collect::<Vec<_>>();
                    json.set("results", results);
                } else {
                    json.set("predictions", ranked_to_json(&answers[0]));
                }
                json
            }
        };
        if let Some(id) = id {
            json.set("id", id.clone());
        }
        let mut text = String::new();
        json.write(&mut text);
        text
    }
}

/// Frame `reply` for the envelope its request arrived in and append it
/// to `out`. On a native GPSQ context a pong, an error or rankings is a
/// binary frame encoded straight into `out` (no intermediate buffer); a
/// JSON response there rides the admin envelope with its id as a JSON
/// number. Every other context carries the reply's JSON text: in a JSON
/// frame, a GPSQ admin envelope, or an HTTP/1.1 response (400 for an
/// error, else 200). A frame past the cap is rolled back and replaced by
/// the [`OVERSIZE_REPLY`] error, id included, in the same kind of frame;
/// an HTTP body has no cap.
pub(crate) fn encode_reply(ctx: &ReplyCtx, reply: Reply, out: &mut Vec<u8>) {
    let (id, append): (_, fn(&mut Vec<u8>, &str) -> bool) = match ctx {
        ReplyCtx::Binary { id } => {
            let id = *id;
            let fits = match &reply {
                Reply::Json(_) => {
                    let id = id.map(|id| Json::Num(id as f64));
                    return encode_reply(&ReplyCtx::BinaryAdmin { id }, reply, out);
                }
                Reply::Error(message) => {
                    append_binary_frame(out, |w| wire::encode_error(id, message, w))
                }
                Reply::Pong => append_binary_frame(out, |w| wire::encode_pong(id, w)),
                Reply::Rankings { answers, batch } => append_binary_frame(out, |w| {
                    wire::encode_predict_response(id, answers, *batch, w)
                }),
            };
            if !fits {
                let oversized = |w: &mut ByteWriter| wire::encode_error(id, OVERSIZE_REPLY, w);
                assert!(append_binary_frame(out, oversized), "error fits the cap");
            }
            return;
        }
        ReplyCtx::Http { id, keep_alive } => {
            let status = if matches!(reply, Reply::Error(_)) {
                400
            } else {
                200
            };
            let mut text = reply.text(id);
            text.push('\n');
            http::append_response(
                out,
                status,
                "application/json",
                text.as_bytes(),
                *keep_alive,
            );
            return;
        }
        ReplyCtx::Json { id } => (id, append_json_frame),
        ReplyCtx::BinaryAdmin { id } => (id, |out, text| {
            append_binary_frame(out, |w| wire::encode_admin_response(text, w))
        }),
    };
    if !append(out, &reply.text(id)) {
        let oversized = Reply::Error(OVERSIZE_REPLY.to_string()).text(id);
        assert!(append(out, &oversized), "error fits the cap");
    }
}

/// An optional string field that, when present, must actually be a
/// string (`Ok(None)` when absent).
fn optional_str<'a>(request: &'a Json, field: &str) -> Result<Option<&'a str>, String> {
    match request.get(field) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.as_str())),
        Some(_) => Err(format!("{field} must be a string")),
    }
}

/// One request frame, decoded: the request grammar every front door
/// shares. `gps serve` answers it through [`answer`]; the router routes
/// its predicts to backends and answers its commands itself. Both refuse
/// a malformed frame from the same `Ready` reply, so their refusals are
/// byte-identical.
pub(crate) enum Request {
    /// Answered as decoded: a malformed frame's refusal, or a pong.
    Ready(ReplyCtx, Reply),
    /// A single query, or a `batch` frame's queries, for `model` (`None`
    /// = the default model). `batch` frames answer with the batch shape,
    /// singles with the single shape — in either format.
    Predict {
        ctx: ReplyCtx,
        model: Option<String>,
        queries: Vec<Query>,
        batch: bool,
    },
    /// Any other command, its `"cmd"` and `"model"` fields checked.
    Command {
        ctx: ReplyCtx,
        cmd: String,
        request: Json,
    },
}

/// Decode one raw frame payload of either wire format.
pub(crate) fn decode_request(format: WireFormat, payload: &[u8]) -> Request {
    match format {
        WireFormat::Json => match std::str::from_utf8(payload) {
            // The frame decoder already refuses non-UTF-8 JSON frames;
            // this arm only guards direct callers.
            Err(_) => Request::Ready(
                ReplyCtx::Json { id: None },
                Reply::Error("bad json: frame is not utf-8".to_string()),
            ),
            Ok(text) => decode_json(Json::parse(text), |id| ReplyCtx::Json { id }),
        },
        WireFormat::Binary => match wire::decode_request(payload) {
            Err(e) => Request::Ready(ReplyCtx::Binary { id: e.id }, Reply::Error(e.message)),
            Ok(wire::Request::Ping { id }) => Request::Ready(ReplyCtx::Binary { id }, Reply::Pong),
            Ok(wire::Request::Predict { id, model, query }) => Request::Predict {
                ctx: ReplyCtx::Binary { id },
                model,
                queries: vec![query],
                batch: false,
            },
            Ok(wire::Request::Batch { id, model, queries }) => Request::Predict {
                ctx: ReplyCtx::Binary { id },
                model,
                queries,
                batch: true,
            },
            // Admin passthrough: JSON semantics, binary envelope.
            Ok(wire::Request::Admin { json }) => {
                decode_json(Json::parse(&json), |id| ReplyCtx::BinaryAdmin { id })
            }
        },
    }
}

/// Decode one parsed JSON request (or its parse failure). `ctx_of` builds
/// the reply context from the echoed id — JSON frame, GPSQ admin
/// envelope, HTTP body — so the reply rides the envelope the request
/// arrived in.
pub(crate) fn decode_json(
    parsed: Result<Json, GpsError>,
    ctx_of: impl FnOnce(Option<Json>) -> ReplyCtx,
) -> Request {
    // The request id (if any) is echoed on every reply, error replies
    // included — a pipelining client must be able to tell *which* request
    // of a burst failed. Unparseable JSON has no extractable id, so only
    // framing-level garbage goes un-correlated.
    let request = match parsed {
        Ok(request) => request,
        Err(e) => return Request::Ready(ctx_of(None), Reply::Error(format!("bad json: {e}"))),
    };
    let ctx = ctx_of(request.get("id").cloned());
    let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
        return Request::Ready(ctx, Reply::Error("missing cmd".to_string()));
    };
    // On query-shaped frames `"model"` is a registry id (absent = the
    // default model); on `reload`/`load` it is a snapshot path.
    let model = match optional_str(&request, "model") {
        Ok(model) => model.map(str::to_string),
        Err(e) => return Request::Ready(ctx, Reply::Error(e)),
    };
    let queries = match cmd {
        "predict" => query_from_json(&request).map(|query| vec![query]),
        "batch" => match request.get("queries").and_then(Json::as_arr) {
            Some(items) if items.len() <= MAX_BATCH_QUERIES => {
                items.iter().map(query_from_json).collect()
            }
            Some(_) => Err("batch too large".to_string()),
            None => Err("missing queries".to_string()),
        },
        "ping" => return Request::Ready(ctx, Reply::Pong),
        _ => {
            let cmd = cmd.to_string();
            return Request::Command { ctx, cmd, request };
        }
    };
    match queries {
        Ok(queries) => Request::Predict {
            batch: cmd == "batch",
            ctx,
            model,
            queries,
        },
        Err(e) => Request::Ready(ctx, Reply::Error(e)),
    }
}

/// Answer one decoded request on `gps serve` into `out`: resolve a
/// predict's model and run every query on the calling thread, or run the
/// command; encode the reply; then record the request's one latency
/// sample. A predict lands in its model's (wire, endpoint) cell — a
/// batch frame of `n` queries counts `n` samples, keeping histogram
/// counts summable against `requests`, and the server-level predict cells
/// are the models summed at snapshot time. Everything else, an
/// unknown-model refusal included, lands in the server's admin cell.
pub(crate) fn answer(
    server: &PredictionServer,
    wire: WireLabel,
    started: Instant,
    request: Request,
    out: &mut Vec<u8>,
) {
    let (ctx, reply, predicted) = match request {
        Request::Ready(ctx, reply) => (ctx, reply, None),
        Request::Command { ctx, cmd, request } => (ctx, command(server, &cmd, &request), None),
        Request::Predict {
            ctx,
            model,
            mut queries,
            batch,
        } => match server.entry_or_default(model.as_deref()) {
            Ok(entry) => {
                let answers = server.predict_batch_entry(&entry, &mut queries);
                let (n, endpoint) = match batch {
                    true => (answers.len() as u64, EndpointLabel::Batch),
                    false => (1, EndpointLabel::Single),
                };
                let reply = Reply::Rankings { answers, batch };
                (ctx, reply, Some((entry, endpoint, n)))
            }
            Err(e) => (ctx, Reply::Error(e), None),
        },
    };
    encode_reply(&ctx, reply, out);
    let latency_ns = started.elapsed().as_nanos() as u64;
    match predicted {
        Some((entry, endpoint, n)) => {
            let cell = entry.counters.hists.cell(wire, endpoint);
            cell.record_n(latency_ns, n);
        }
        None => {
            let cell = server.server_stats().hists.cell(wire, EndpointLabel::Admin);
            cell.record(latency_ns);
        }
    }
}

/// Answer one command other than the predicts and `ping`, computed in
/// full.
fn command(server: &PredictionServer, cmd: &str, request: &Json) -> Reply {
    let model_id = request.get("model").and_then(Json::as_str);
    let mut json = ok_response();
    match cmd {
        "stats" => {
            json.set("stats", server.stats().to_json());
        }
        "reset-stats" => {
            // Zero traffic counters and histograms (global and per model);
            // generations, registry membership, connection gauges, and
            // uptime are untouched. Lets a bench reuse one server across
            // phases without the first phase polluting the second's
            // numbers.
            server.reset_stats();
        }
        "manifest" => {
            let (generation, model) = match server.entry_or_default(model_id) {
                Ok(entry) => entry.published(),
                Err(e) => return Reply::Error(e),
            };
            let m = model.manifest();
            let mut inner = Json::obj();
            inner
                .set("dataset", m.dataset_name.as_str())
                .set(
                    "universe_seed",
                    gps_types::json::u64_to_hex(m.universe_seed),
                )
                .set("step_prefix", m.step_prefix)
                .set("distinct_keys", m.distinct_keys)
                .set("num_rules", m.num_rules)
                .set("num_priors", m.num_priors)
                .set("checksum", gps_types::json::u64_to_hex(m.checksum));
            json.set("manifest", inner)
                .set("generation", Json::Num(generation as f64));
        }
        "reload" => {
            // Here `"model"` keeps its pre-registry meaning — a snapshot
            // *path* — and the registry id rides in `"name"`.
            let path = model_id.map(std::path::PathBuf::from);
            let name = match optional_str(request, "name") {
                Ok(name) => name,
                Err(e) => return Reply::Error(e),
            };
            // Describe the model *this* reload published — reading the
            // slot again here could race with a concurrent reload and
            // misattribute the manifest. On failure the old model is
            // still serving; the error only reports why the swap did not
            // happen.
            let (generation, model) = match server.reload_from_disk(name, path.as_deref()) {
                Ok(published) => published,
                Err(e) => return Reply::Error(format!("reload failed: {e}")),
            };
            let m = model.manifest();
            json.set("generation", Json::Num(generation as f64))
                .set("num_rules", m.num_rules)
                .set("num_priors", m.num_priors)
                .set("checksum", gps_types::json::u64_to_hex(m.checksum));
            if let Some(name) = name {
                json.set("name", name);
            }
        }
        "load" => {
            let name = match optional_str(request, "name") {
                Ok(Some(name)) => name,
                Ok(None) => return Reply::Error("load requires a name".to_string()),
                Err(e) => return Reply::Error(e),
            };
            let Some(path) = model_id else {
                return Reply::Error("load requires a model snapshot path".to_string());
            };
            let model = match server.load_model_from_disk(name, std::path::Path::new(path)) {
                Ok(model) => model,
                Err(e) => return Reply::Error(format!("load failed: {e}")),
            };
            let m = model.manifest();
            json.set("name", name)
                .set("num_rules", m.num_rules)
                .set("num_priors", m.num_priors)
                .set("checksum", gps_types::json::u64_to_hex(m.checksum));
        }
        "unload" => {
            let name = match optional_str(request, "name") {
                Ok(Some(name)) => name,
                Ok(None) => return Reply::Error("unload requires a name".to_string()),
                Err(e) => return Reply::Error(e),
            };
            if let Err(e) = server.unload_model(name) {
                return Reply::Error(format!("unload failed: {e}"));
            }
            json.set("name", name);
        }
        "shutdown" => {
            // Enter drain: the accept gates stop admitting, and the
            // event loops close connections once their in-flight replies
            // finish. The reply itself still goes out on this connection
            // — drain never cuts off an answer already owed.
            server.begin_drain();
            json.set("draining", true);
        }
        "list-models" => {
            let stats = server.stats();
            let models = stats.models.iter().map(|m| {
                let mut entry = m.to_json();
                entry.set("name", m.id.as_str());
                entry
            });
            json.set("models", models.collect::<Vec<_>>());
        }
        other => return Reply::Error(format!("unknown cmd {other:?}")),
    }
    Reply::Json(json)
}

/// Connect within `timeout`. `TcpStream::connect_timeout` wants one
/// resolved address; try each resolution like `TcpStream::connect` does.
pub(crate) fn connect_timeout(
    addr: impl ToSocketAddrs,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect")))
}

fn frame_too_large() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "frame too large")
}

fn server_closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn verify_id(got: Option<u64>, want: u64) -> io::Result<()> {
    if got != Some(want) {
        return Err(bad_data(format!(
            "response does not echo request id {want}"
        )));
    }
    Ok(())
}

/// Check a JSON reply against the request it must answer: the id echo
/// first (a desynchronized stream is a hard error), then `ok`, with an
/// `ok:false` reply's message as an `ErrorKind::Other` error.
fn json_reply(response: Json, id: u64) -> io::Result<Json> {
    verify_id(response.get("id").and_then(Json::as_u64), id)?;
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(response),
        _ => {
            let message = response.get("error").and_then(Json::as_str);
            Err(io::Error::other(message.unwrap_or("unknown server error")))
        }
    }
}

/// A blocking protocol client (used by `gps query`, `gps reload`, the
/// router's prober, the `loadgen` driver and tests).
/// [`connect`](Client::connect) speaks GPSQ;
/// [`connect_with`](Client::connect_with) picks the wire format. Every
/// request carries a monotonically increasing `id`, and the echoed id on
/// the reply — error replies included — is verified, so a desynchronized
/// stream surfaces as a hard error instead of silently mis-attributed
/// answers.
///
/// On a binary client the hot calls (`ping`, `predict`, `predict_batch`)
/// use native GPSQ messages; the admin calls (`stats`, `manifest`,
/// `reload`, ...) ride the GPSQ admin envelope, so every method works on
/// either format and answers identically.
pub struct Client {
    reader: io::BufReader<TcpStream>,
    writer: io::BufWriter<TcpStream>,
    next_id: u64,
    wire: WireFormat,
    /// Persistent response decoder (binary sessions): carries framing
    /// state and catches a server that flips format mid-stream.
    decoder: FrameDecoder,
    /// Reused request scratch: one frame is encoded here, checked
    /// against the cap, then buffered.
    buf: Vec<u8>,
}

impl Client {
    /// Connect speaking GPSQ, with no deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, WireFormat::Binary)
    }

    /// Connect speaking the given wire format, with no deadlines.
    pub fn connect_with(addr: impl ToSocketAddrs, wire: WireFormat) -> io::Result<Client> {
        Self::open(TcpStream::connect(addr)?, wire, None)
    }

    /// Connect speaking GPSQ with `timeout` as the connect, read and
    /// write deadline, for callers that must survive a hung or dead
    /// server (the router's prober and its `reset-stats` fan-out). An
    /// expired read surfaces as an `io::Error` of kind `WouldBlock` or
    /// `TimedOut`.
    pub(crate) fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> io::Result<Client> {
        Self::open(
            connect_timeout(addr, timeout)?,
            WireFormat::Binary,
            Some(timeout),
        )
    }

    fn open(stream: TcpStream, wire: WireFormat, timeout: Option<Duration>) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(Client {
            reader: io::BufReader::new(stream.try_clone()?),
            writer: io::BufWriter::new(stream),
            next_id: 1,
            wire,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            buf: Vec::new(),
        })
    }

    /// Read one GPSQ response payload into a decoded [`wire::Response`].
    fn read_binary_response(&mut self) -> io::Result<wire::Response> {
        let payload =
            read_frame_payload(&mut self.reader, &mut self.decoder)?.ok_or_else(server_closed)?;
        wire::decode_response(&payload).map_err(bad_data)
    }

    /// Read one JSON response frame.
    fn read_json_response(&mut self) -> io::Result<Json> {
        read_frame(&mut self.reader)?.ok_or_else(server_closed)
    }

    /// Takes the request by value: every caller builds it fresh, and a
    /// large `batch` request would otherwise be deep-cloned just to tack
    /// the id on. On a binary session the JSON request rides the GPSQ
    /// admin envelope — same semantics, same replies.
    fn call(&mut self, mut request: Json) -> io::Result<Json> {
        let id = self.next_id;
        self.next_id += 1;
        request.set("id", Json::Num(id as f64));
        let response = match self.wire {
            WireFormat::Json => {
                write_frame(&mut self.writer, &request)?;
                self.read_json_response()?
            }
            WireFormat::Binary => {
                let mut text = String::new();
                request.write(&mut text);
                self.buf.clear();
                if !append_binary_frame(&mut self.buf, |w| wire::encode_admin_request(&text, w)) {
                    return Err(frame_too_large());
                }
                self.writer.write_all(&self.buf)?;
                self.writer.flush()?;
                match self.read_binary_response()? {
                    wire::Response::Admin { json } => {
                        Json::parse(&json).map_err(|e| bad_data(e.to_string()))?
                    }
                    // The server answers a broken admin *envelope* with a
                    // native error frame (the embedded JSON never parsed,
                    // so there is no JSON reply to wrap).
                    wire::Response::Error { message, .. } => return Err(io::Error::other(message)),
                    _ => return Err(bad_data("expected an admin envelope reply")),
                }
            }
        };
        json_reply(response, id)
    }

    pub fn ping(&mut self) -> io::Result<()> {
        if self.wire == WireFormat::Binary {
            let id = self.next_id;
            self.next_id += 1;
            self.buf.clear();
            assert!(append_binary_frame(&mut self.buf, |w| {
                wire::encode_ping(Some(id), w)
            }));
            self.writer.write_all(&self.buf)?;
            self.writer.flush()?;
            return match self.read_binary_response()? {
                wire::Response::Pong { id: got } => verify_id(got, id),
                wire::Response::Error { id: got, message } => {
                    verify_id(got, id)?;
                    Err(io::Error::other(message))
                }
                _ => Err(bad_data("expected pong")),
            };
        }
        let mut request = Json::obj();
        request.set("cmd", "ping");
        self.call(request).map(|_| ())
    }

    /// Predict against the server's default model.
    pub fn predict(&mut self, query: &Query) -> io::Result<Ranked> {
        self.predict_on(None, query)
    }

    /// Predict against a specific model id (`None` = the default model).
    pub fn predict_on(&mut self, model: Option<&str>, query: &Query) -> io::Result<Ranked> {
        let id = self.predict_send(model, query)?;
        self.predict_recv(id)
    }

    pub fn predict_batch(&mut self, queries: &[Query]) -> io::Result<Vec<Ranked>> {
        self.predict_batch_on(None, queries)
    }

    /// Batch-predict against a specific model id (`None` = the default).
    pub fn predict_batch_on(
        &mut self,
        model: Option<&str>,
        queries: &[Query],
    ) -> io::Result<Vec<Ranked>> {
        let id = self.send_predict(model, queries, true)?;
        self.recv_predict(id, true)
    }

    /// Send one single-query predict without waiting for the reply
    /// (pipelined mode); returns the request id to pass to
    /// [`predict_recv`](Self::predict_recv). The frame is buffered, not
    /// flushed: it waits in the client's buffer until a receive has to
    /// read the socket (or the buffer fills). A sliding window that
    /// receives one reply per send therefore pays one `write(2)` per
    /// burst of replies the socket delivered, not one per query.
    /// Responses come back in request order (the server guarantees it),
    /// so receive in send order, per connection.
    pub fn predict_send(&mut self, model: Option<&str>, query: &Query) -> io::Result<u64> {
        self.send_predict(model, std::slice::from_ref(query), false)
    }

    /// Receive the next pipelined predict response, which must answer
    /// the request whose [`predict_send`](Self::predict_send) returned
    /// `id`. A reply already whole in the client's read buffer is taken
    /// from there and buffered sends stay buffered; otherwise they are
    /// flushed before the socket is read, so the server always holds
    /// every request it is being waited on for.
    pub fn predict_recv(&mut self, id: u64) -> io::Result<Ranked> {
        let mut rankings = self.recv_predict(id, false)?;
        Ok(rankings
            .pop()
            .expect("a single predict answers one ranking"))
    }

    /// Buffer one predict request — a single query, or a `batch` frame —
    /// in either format, and return its id. A frame over the cap is
    /// refused before a byte is buffered, so the stream stays in step.
    fn send_predict(
        &mut self,
        model: Option<&str>,
        queries: &[Query],
        batch: bool,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.buf.clear();
        let encoded = match self.wire {
            WireFormat::Json => {
                let mut request = if batch {
                    let mut request = Json::obj();
                    let queries = queries.iter().map(query_to_json).collect::<Vec<_>>();
                    request.set("cmd", "batch").set("queries", queries);
                    request
                } else {
                    let mut request = query_to_json(&queries[0]);
                    request.set("cmd", "predict");
                    request
                };
                if let Some(model) = model {
                    request.set("model", model);
                }
                request.set("id", Json::Num(id as f64));
                append_json_frame(&mut self.buf, &request.to_string())
            }
            WireFormat::Binary => append_binary_frame(&mut self.buf, |w| {
                if batch {
                    wire::encode_batch(Some(id), model, queries, w);
                } else {
                    wire::encode_predict(Some(id), model, &queries[0], w);
                }
            }),
        };
        if !encoded {
            return Err(frame_too_large());
        }
        self.writer.write_all(&self.buf)?;
        Ok(id)
    }

    /// Receive the predict reply to request `id`: one ranking for a
    /// single, one per query for a batch. Buffered sends are flushed only
    /// when that reply is not already whole in the read buffer, so sends
    /// made while buffered replies drain share one `write(2)`.
    fn recv_predict(&mut self, id: u64, batch: bool) -> io::Result<Vec<Ranked>> {
        if !(self.decoder.at_boundary() && holds_whole_frame(self.reader.buffer())) {
            self.writer.flush()?;
        }
        if self.wire == WireFormat::Binary {
            return match self.read_binary_response()? {
                wire::Response::Predict { id: got, ranking } if !batch => {
                    verify_id(got, id).map(|()| vec![ranking])
                }
                wire::Response::Batch { id: got, rankings } if batch => {
                    verify_id(got, id).map(|()| rankings)
                }
                wire::Response::Error { id: got, message } => {
                    verify_id(got, id)?;
                    Err(io::Error::other(message))
                }
                _ => Err(bad_data("unexpected GPSQ response kind")),
            };
        }
        let response = self.read_json_response()?;
        let response = json_reply(response, id)?;
        let ranked = |json: &Json| ranked_from_json(json).map_err(bad_data);
        if !batch {
            let ranking = response
                .get("predictions")
                .ok_or_else(|| bad_data("no predictions"))?;
            return Ok(vec![ranked(ranking)?]);
        }
        response
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad_data("no results"))?
            .iter()
            .map(ranked)
            .collect()
    }

    pub fn stats(&mut self) -> io::Result<Json> {
        let mut request = Json::obj();
        request.set("cmd", "stats");
        let response = self.call(request)?;
        response
            .get("stats")
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no stats"))
    }

    /// Zero the server's traffic counters and histograms (`reset-stats`).
    pub fn reset_stats(&mut self) -> io::Result<()> {
        let mut request = Json::obj();
        request.set("cmd", "reset-stats");
        self.call(request).map(|_| ())
    }

    /// Ask the server to drain and shut down (`shutdown`): it stops
    /// admitting connections, answers everything in flight — this ack
    /// included — then closes.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let mut request = Json::obj();
        request.set("cmd", "shutdown");
        self.call(request).map(|_| ())
    }

    pub fn manifest(&mut self) -> io::Result<Json> {
        self.manifest_of(None)
    }

    /// Manifest of a specific model id (`None` = the default model).
    pub fn manifest_of(&mut self, model: Option<&str>) -> io::Result<Json> {
        let mut request = Json::obj();
        request.set("cmd", "manifest");
        if let Some(id) = model {
            request.set("model", id);
        }
        let response = self.call(request)?;
        response
            .get("manifest")
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no manifest"))
    }

    /// Ask the server to hot-reload model `name` (`None` = the default
    /// model) — from `path` if given, else from the snapshot file it is
    /// already serving. The returned outcome is taken from the reload
    /// reply itself, so it describes exactly the model this reload
    /// published (a follow-up `manifest` call could race with another
    /// reload).
    pub fn reload(&mut self, name: Option<&str>, path: Option<&str>) -> io::Result<ReloadOutcome> {
        let mut request = Json::obj();
        request.set("cmd", "reload");
        if let Some(name) = name {
            request.set("name", name);
        }
        if let Some(path) = path {
            request.set("model", path);
        }
        let response = self.call(request)?;
        let generation = response
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no generation"))?;
        Ok(ReloadOutcome {
            generation,
            num_rules: response
                .get("num_rules")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            num_priors: response
                .get("num_priors")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            checksum: response
                .get("checksum")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
        })
    }

    /// Register a new model on the server from a snapshot path.
    pub fn load_model(&mut self, name: &str, path: &str) -> io::Result<()> {
        let mut request = Json::obj();
        request
            .set("cmd", "load")
            .set("name", name)
            .set("model", path);
        self.call(request).map(|_| ())
    }

    /// Drop a model from the server's registry (the default cannot be
    /// unloaded).
    pub fn unload_model(&mut self, name: &str) -> io::Result<()> {
        let mut request = Json::obj();
        request.set("cmd", "unload").set("name", name);
        self.call(request).map(|_| ())
    }

    /// Every registered model with its per-model counters, as the server
    /// reported them (sorted by id).
    pub fn list_models(&mut self) -> io::Result<Vec<Json>> {
        let mut request = Json::obj();
        request.set("cmd", "list-models");
        let response = self.call(request)?;
        response
            .get("models")
            .and_then(Json::as_arr)
            .map(|models| models.to_vec())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no models"))
    }
}

/// What a successful [`Client::reload`] published, per the server's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The post-swap model generation.
    pub generation: u64,
    pub num_rules: u64,
    pub num_priors: u64,
    /// Hex manifest checksum of the now-serving snapshot.
    pub checksum: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut json = Json::obj();
        json.set("cmd", "predict").set("ip", "1.2.3.4");
        let mut buf = Vec::new();
        write_frame(&mut buf, &json).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let parsed = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(parsed, json);
        // Clean EOF.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // EOF mid-length-prefix is truncation, not a clean close.
        assert!(read_frame(&mut [0u8, 0].as_slice()).is_err());
        // EOF before any byte IS a clean close.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn query_json_round_trip() {
        let mut query = Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([443, 80]);
        query.asn = Some(64500);
        query.top = 5;
        let json = query_to_json(&query);
        assert_eq!(query_from_json(&json).unwrap(), query);
        // Minimal query: just an IP.
        let minimal = query_to_json(&Query::new(Ip::from_octets(1, 1, 1, 1)));
        let parsed = query_from_json(&minimal).unwrap();
        assert!(parsed.open.is_empty() && parsed.asn.is_none() && parsed.top == 0);
    }

    #[test]
    fn ranked_json_round_trip() {
        let ranked: Ranked = vec![(Port(443), 0.875), (Port(22), 1.0 / 3.0)];
        assert_eq!(ranked_from_json(&ranked_to_json(&ranked)).unwrap(), ranked);
    }
}
