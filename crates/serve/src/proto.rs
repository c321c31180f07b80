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
//! front — is decoded here (`decode_request` / `decode_json`); the
//! server answers it through `classify` and the response builders.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::artifact::{Query, Ranked};
use crate::hist::{EndpointLabel, WireLabel};
use crate::net::http;
use crate::net::{FrameDecoder, WireFormat};
use crate::server::{ModelEntry, PredictionServer};
use crate::wire;
use gps_types::binary::ByteWriter;
use gps_types::json::Json;
use gps_types::{Ip, JsonCodec, Port};

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
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
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
pub fn read_frame_text(r: &mut impl Read) -> io::Result<Option<String>> {
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
    r: &mut impl Read,
    decoder: &mut FrameDecoder,
) -> io::Result<Option<Vec<u8>>> {
    // Driven with exact-sized reads (`need()`), so a length prefix or body
    // torn across arbitrarily small TCP segments reassembles correctly
    // and no byte of the *next* frame is ever consumed. Only EOF before
    // the first length byte is a clean close; EOF midway through a frame
    // is truncation from a dead peer. Exact-sized reads also mean a feed
    // completes at most one frame, so nothing is ever buffered between
    // calls except inside the decoder itself.
    let mut frames = Vec::with_capacity(1);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let want = decoder.need().min(chunk.len());
        let n = match r.read(&mut chunk[..want]) {
            Ok(0) => {
                return if decoder.at_boundary() {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        decoder
            .feed(&chunk[..n], &mut frames)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(payload) = frames.pop() {
            return Ok(Some(payload));
        }
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

pub(crate) fn error_response(message: impl Into<String>) -> Json {
    let mut json = Json::obj();
    json.set("ok", false).set("error", message.into());
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

/// Append one length-prefixed JSON frame to `out`; `false` if it
/// exceeded the cap (the buffer is rolled back).
fn append_json_frame(out: &mut Vec<u8>, json: &Json) -> bool {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let mut text = String::new();
    json.write(&mut text);
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
    /// response head — 200 on `"ok":true`, 400 otherwise.
    Http { id: Option<Json>, keep_alive: bool },
}

/// A finished (no predict work) reply, ready to serialize.
pub(crate) enum ReadyReply {
    /// JSON response on a JSON session.
    Json { response: Json, id: Option<Json> },
    /// GPSQ pong.
    Pong { id: Option<u64> },
    /// GPSQ native error.
    BinaryError { id: Option<u64>, message: String },
    /// JSON response riding in a GPSQ admin envelope.
    BinaryAdmin { response: Json, id: Option<Json> },
    /// JSON response riding in an HTTP/1.1 response.
    Http {
        response: Json,
        id: Option<Json>,
        keep_alive: bool,
    },
}

/// What one request frame classified into: a finished reply, or predict
/// work plus the context to encode its eventual answer.
pub(crate) enum FrameAction {
    Ready(ReadyReply),
    Predict(PredictWork),
}

/// Classified predict work: the resolved model, the parsed queries, and
/// how to encode the answer.
pub(crate) struct PredictWork {
    entry: Arc<ModelEntry>,
    queries: Vec<Query>,
    /// `batch` frames answer with the batch shape, singles with the
    /// single shape — in either format.
    batch: bool,
    pub(crate) ctx: ReplyCtx,
}

impl PredictWork {
    /// Answer every query on the calling thread and append the reply
    /// frame to `out` — the one way predict work executes. Then the
    /// request latency goes into the model's histogram cell (a batch
    /// frame of `n` queries counts `n` samples, keeping histogram counts
    /// summable against `requests`; the server-level predict cells are
    /// derived at snapshot time by summing the models, so the hot path
    /// pays for one histogram update, not two).
    pub(crate) fn answer(
        mut self,
        server: &PredictionServer,
        wire: WireLabel,
        started: Instant,
        out: &mut Vec<u8>,
    ) {
        let n = self.queries.len() as u64;
        let answers = server.predict_batch_entry(&self.entry, &mut self.queries);
        encode_predict_reply(&self.ctx, &answers, self.batch, out);
        let latency_ns = started.elapsed().as_nanos() as u64;
        let endpoint = if self.batch {
            EndpointLabel::Batch
        } else {
            EndpointLabel::Single
        };
        self.entry
            .counters
            .hists
            .cell(wire, endpoint)
            .record_n(latency_ns, n);
    }
}

/// An error reply shaped for the reply context.
pub(crate) fn ready_error(ctx: ReplyCtx, message: String) -> ReadyReply {
    match ctx {
        ReplyCtx::Binary { id } => ReadyReply::BinaryError { id, message },
        ctx => ready_json(ctx, error_response(message)),
    }
}

/// A finished JSON response in the envelope the reply context calls for.
pub(crate) fn ready_json(ctx: ReplyCtx, response: Json) -> ReadyReply {
    match ctx {
        ReplyCtx::Json { id } => ReadyReply::Json { response, id },
        ReplyCtx::BinaryAdmin { id } => ReadyReply::BinaryAdmin { response, id },
        ReplyCtx::Http { id, keep_alive } => ReadyReply::Http {
            response,
            id,
            keep_alive,
        },
        // A native GPSQ context has no JSON envelope: it answers through
        // `encode_predict_reply` or pong/error frames.
        ReplyCtx::Binary { id } => ReadyReply::BinaryError {
            id,
            message: "internal: JSON reply on a binary context".to_string(),
        },
    }
}

/// Serialize a finished reply as one frame appended to `out`, falling
/// back to the standard over-cap error reply (id included, same format)
/// if it outgrew the frame cap.
pub(crate) fn encode_ready(reply: ReadyReply, out: &mut Vec<u8>) {
    match reply {
        ReadyReply::Json { mut response, id } => {
            if let Some(id) = &id {
                response.set("id", id.clone());
            }
            if !append_json_frame(out, &response) {
                let mut oversized = error_response(OVERSIZE_REPLY);
                if let Some(id) = &id {
                    oversized.set("id", id.clone());
                }
                assert!(
                    append_json_frame(out, &oversized),
                    "error frame fits the cap"
                );
            }
        }
        ReadyReply::Pong { id } => {
            assert!(
                append_binary_frame(out, |w| wire::encode_pong(id, w)),
                "pong fits the cap"
            );
        }
        ReadyReply::BinaryError { id, message } => {
            if !append_binary_frame(out, |w| wire::encode_error(id, &message, w)) {
                assert!(
                    append_binary_frame(out, |w| wire::encode_error(id, OVERSIZE_REPLY, w)),
                    "error frame fits the cap"
                );
            }
        }
        ReadyReply::BinaryAdmin { mut response, id } => {
            if let Some(id) = &id {
                response.set("id", id.clone());
            }
            let mut text = String::new();
            response.write(&mut text);
            if !append_binary_frame(out, |w| wire::encode_admin_response(&text, w)) {
                let mut oversized = error_response(OVERSIZE_REPLY);
                if let Some(id) = &id {
                    oversized.set("id", id.clone());
                }
                let mut text = String::new();
                oversized.write(&mut text);
                assert!(
                    append_binary_frame(out, |w| wire::encode_admin_response(&text, w)),
                    "error frame fits the cap"
                );
            }
        }
        ReadyReply::Http {
            mut response,
            id,
            keep_alive,
        } => {
            if let Some(id) = &id {
                response.set("id", id.clone());
            }
            // The body is exactly the JSON-wire reply text; the only
            // HTTP-ism is the status code mirroring the `ok` flag.
            let status = match response.get("ok").and_then(Json::as_bool) {
                Some(true) => 200,
                _ => 400,
            };
            let mut text = String::new();
            response.write(&mut text);
            text.push('\n');
            http::append_response(out, status, "application/json", text.as_bytes(), keep_alive);
        }
    }
}

/// Serialize the success reply for completed predict work as one frame
/// appended to `out` (both shapes, both formats), with the over-cap
/// fallback. On a binary session the ranking bytes are encoded straight
/// into `out` — no intermediate `String` or `Vec` per frame.
pub(crate) fn encode_predict_reply(
    ctx: &ReplyCtx,
    answers: &[Ranked],
    batch: bool,
    out: &mut Vec<u8>,
) {
    match ctx {
        ReplyCtx::Json { id } => encode_ready(
            ReadyReply::Json {
                response: predict_response(answers, batch),
                id: id.clone(),
            },
            out,
        ),
        ReplyCtx::Binary { id } => {
            if !append_binary_frame(out, |w| {
                wire::encode_predict_response(*id, answers, batch, w)
            }) {
                assert!(
                    append_binary_frame(out, |w| wire::encode_error(*id, OVERSIZE_REPLY, w)),
                    "error frame fits the cap"
                );
            }
        }
        ReplyCtx::BinaryAdmin { id } => encode_ready(
            ReadyReply::BinaryAdmin {
                response: predict_response(answers, batch),
                id: id.clone(),
            },
            out,
        ),
        ReplyCtx::Http { id, keep_alive } => encode_ready(
            ReadyReply::Http {
                response: predict_response(answers, batch),
                id: id.clone(),
                keep_alive: *keep_alive,
            },
            out,
        ),
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

/// Build the success reply for completed predict work (both shapes).
pub(crate) fn predict_response(answers: &[Ranked], batch: bool) -> Json {
    let mut json = ok_response();
    if batch {
        json.set(
            "results",
            answers.iter().map(ranked_to_json).collect::<Vec<_>>(),
        );
    } else {
        json.set("predictions", ranked_to_json(&answers[0]));
    }
    json
}

/// One request frame, decoded: the request grammar every front door
/// shares. `gps serve` answers it through [`classify`]; the router routes
/// its predicts to backends and answers its commands itself. Both refuse
/// a malformed frame from the same `Ready` reply, so their refusals are
/// byte-identical.
pub(crate) enum Request {
    /// Answered as decoded: a malformed frame's refusal, or a GPSQ pong.
    Ready(ReadyReply),
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
            Err(_) => Request::Ready(ready_error(
                ReplyCtx::Json { id: None },
                "bad json: frame is not utf-8".to_string(),
            )),
            Ok(text) => decode_json(text, |id| ReplyCtx::Json { id }),
        },
        WireFormat::Binary => match wire::decode_request(payload) {
            Err(e) => Request::Ready(ReadyReply::BinaryError {
                id: e.id,
                message: e.message,
            }),
            Ok(wire::Request::Ping { id }) => Request::Ready(ReadyReply::Pong { id }),
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
                decode_json(&json, |id| ReplyCtx::BinaryAdmin { id })
            }
        },
    }
}

/// Decode one JSON request text. `ctx_of` builds the reply context from
/// the echoed id — JSON frame, GPSQ admin envelope, HTTP body — so the
/// reply rides the envelope the request arrived in.
pub(crate) fn decode_json(text: &str, ctx_of: impl FnOnce(Option<Json>) -> ReplyCtx) -> Request {
    // The request id (if any) is echoed on every reply, error replies
    // included — a pipelining client must be able to tell *which* request
    // of a burst failed. Unparseable JSON has no extractable id, so only
    // framing-level garbage goes un-correlated.
    let request = match Json::parse(text) {
        Ok(request) => request,
        Err(e) => return Request::Ready(ready_error(ctx_of(None), format!("bad json: {e}"))),
    };
    let ctx = ctx_of(request.get("id").cloned());
    let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
        return Request::Ready(ready_error(ctx, "missing cmd".to_string()));
    };
    // On query-shaped frames `"model"` is a registry id (absent = the
    // default model); on `reload`/`load` it is a snapshot path.
    let model = match optional_str(&request, "model") {
        Ok(model) => model.map(str::to_string),
        Err(e) => return Request::Ready(ready_error(ctx, e)),
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
        Err(e) => Request::Ready(ready_error(ctx, e)),
    }
}

/// Answer one decoded request on `gps serve`: a predict's model resolves
/// into work the event loop runs through [`PredictWork::answer`] (or into
/// the unknown-model error), and a command is answered by [`command`].
pub(crate) fn classify(server: &PredictionServer, request: Request) -> FrameAction {
    match request {
        Request::Ready(reply) => FrameAction::Ready(reply),
        Request::Predict {
            ctx,
            model,
            queries,
            batch,
        } => {
            let entry = match model {
                None => Ok(server.default_entry().clone()),
                Some(id) => server.entry(&id),
            };
            match entry {
                Ok(entry) => FrameAction::Predict(PredictWork {
                    entry,
                    queries,
                    batch,
                    ctx,
                }),
                Err(e) => FrameAction::Ready(ready_error(ctx, e)),
            }
        }
        Request::Command { ctx, cmd, request } => {
            FrameAction::Ready(ready_json(ctx, command(server, &cmd, &request)))
        }
    }
}

/// Answer one command other than the predicts, computed in full.
fn command(server: &PredictionServer, cmd: &str, request: &Json) -> Json {
    let model_id = request.get("model").and_then(Json::as_str);
    match cmd {
        "ping" => {
            let mut json = ok_response();
            json.set("pong", true);
            json
        }
        "stats" => {
            let mut json = ok_response();
            json.set("stats", server.stats().to_json());
            json
        }
        "reset-stats" => {
            // Zero traffic counters and histograms (global and per model);
            // generations, registry membership, connection gauges, and
            // uptime are untouched. Lets a bench reuse one server across
            // phases without the first phase polluting the second's
            // numbers.
            server.reset_stats();
            ok_response()
        }
        "manifest" => {
            let (generation, model) = match server.entry_or_default(model_id) {
                Ok(entry) => entry.published(),
                Err(e) => return error_response(e),
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
            let mut json = ok_response();
            json.set("manifest", inner)
                .set("generation", Json::Num(generation as f64));
            json
        }
        "reload" => {
            // Here `"model"` keeps its pre-registry meaning — a snapshot
            // *path* — and the registry id rides in `"name"`.
            let path = model_id.map(std::path::PathBuf::from);
            let name = match optional_str(request, "name") {
                Ok(name) => name,
                Err(e) => return error_response(e),
            };
            match server.reload_from_disk(name, path.as_deref()) {
                // Describe the model *this* reload published — reading
                // the slot again here could race with a concurrent
                // reload and misattribute the manifest.
                Ok((generation, model)) => {
                    let m = model.manifest();
                    let mut json = ok_response();
                    json.set("generation", Json::Num(generation as f64))
                        .set("num_rules", m.num_rules)
                        .set("num_priors", m.num_priors)
                        .set("checksum", gps_types::json::u64_to_hex(m.checksum));
                    if let Some(name) = name {
                        json.set("name", name);
                    }
                    json
                }
                // The old model is still serving; the error only reports
                // why the swap did not happen.
                Err(e) => error_response(format!("reload failed: {e}")),
            }
        }
        "load" => {
            let name = match optional_str(request, "name") {
                Ok(Some(name)) => name,
                Ok(None) => return error_response("load requires a name"),
                Err(e) => return error_response(e),
            };
            let path = match model_id {
                Some(path) => std::path::PathBuf::from(path),
                None => return error_response("load requires a model snapshot path"),
            };
            match server.load_model_from_disk(name, &path) {
                Ok(model) => {
                    let m = model.manifest();
                    let mut json = ok_response();
                    json.set("name", name)
                        .set("num_rules", m.num_rules)
                        .set("num_priors", m.num_priors)
                        .set("checksum", gps_types::json::u64_to_hex(m.checksum));
                    json
                }
                Err(e) => error_response(format!("load failed: {e}")),
            }
        }
        "unload" => {
            let name = match optional_str(request, "name") {
                Ok(Some(name)) => name,
                Ok(None) => return error_response("unload requires a name"),
                Err(e) => return error_response(e),
            };
            match server.unload_model(name) {
                Ok(()) => {
                    let mut json = ok_response();
                    json.set("name", name);
                    json
                }
                Err(e) => error_response(format!("unload failed: {e}")),
            }
        }
        "shutdown" => {
            // Enter drain: the accept gates stop admitting, and the
            // event loops close connections once their in-flight replies
            // finish. The reply itself still goes out on this connection
            // — drain never cuts off an answer already owed.
            server.begin_drain();
            let mut json = ok_response();
            json.set("draining", true);
            json
        }
        "list-models" => {
            let stats = server.stats();
            let mut json = ok_response();
            json.set(
                "models",
                stats
                    .models
                    .iter()
                    .map(|m| {
                        let mut entry = m.to_json();
                        entry.set("name", m.id.as_str());
                        entry
                    })
                    .collect::<Vec<_>>(),
            );
            json
        }
        other => error_response(format!("unknown cmd {other:?}")),
    }
}

/// Record one admin-shaped request (anything that is not a predict)
/// into the server-level histogram matrix.
pub(crate) fn record_admin(server: &PredictionServer, wire: WireLabel, started: Instant) {
    server
        .server_stats()
        .hists
        .cell(wire, EndpointLabel::Admin)
        .record(started.elapsed().as_nanos() as u64);
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
/// router's prober, the `loadgen` driver and tests), speaking either
/// wire format — pick with [`connect_with`](Client::connect_with);
/// [`connect`](Client::connect) stays JSON. Every request carries a
/// monotonically increasing `id`, and the echoed id on the reply — error
/// replies included — is verified, so a desynchronized stream surfaces
/// as a hard error instead of silently mis-attributed answers.
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

/// Connection settings for [`Client::connect_config`]. The plain
/// constructors ([`Client::connect`], [`Client::connect_with`]) keep
/// their historical no-timeout behavior; anything that must survive a
/// hung or dead server — the router's prober, `gps query` against a
/// remote box — sets deadlines here.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub wire: WireFormat,
    /// Bound on TCP connect (`None` = the OS default, typically minutes).
    pub connect_timeout: Option<Duration>,
    /// Per-read socket deadline; an expiry surfaces as an `io::Error` of
    /// kind `WouldBlock` or `TimedOut`.
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            wire: WireFormat::Json,
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

impl ClientConfig {
    /// All three deadlines set to `timeout` on the given wire.
    pub fn timeouts(wire: WireFormat, timeout: Duration) -> ClientConfig {
        ClientConfig {
            wire,
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

impl Client {
    /// Connect speaking JSON (the historical default).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, WireFormat::Json)
    }

    /// Connect speaking the given wire format.
    pub fn connect_with(addr: impl ToSocketAddrs, wire: WireFormat) -> io::Result<Client> {
        Self::connect_config(
            addr,
            &ClientConfig {
                wire,
                ..ClientConfig::default()
            },
        )
    }

    /// Connect with explicit timeouts (and wire format).
    pub fn connect_config(addr: impl ToSocketAddrs, config: &ClientConfig) -> io::Result<Client> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => connect_timeout(addr, timeout)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Client {
            reader: io::BufReader::new(stream.try_clone()?),
            writer: io::BufWriter::new(stream),
            next_id: 1,
            wire: config.wire,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            buf: Vec::new(),
        })
    }

    /// The wire format this client negotiated.
    pub fn wire(&self) -> WireFormat {
        self.wire
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
    /// flushed: it waits in the client's buffer until the next receive
    /// flushes before reading (or the buffer fills), so only sends made
    /// back to back share a `write(2)`. A sliding window that receives
    /// one reply per send pays one `write(2)` per query. Responses come
    /// back in request order (the server guarantees it), so receive in
    /// send order, per connection.
    pub fn predict_send(&mut self, model: Option<&str>, query: &Query) -> io::Result<u64> {
        self.send_predict(model, std::slice::from_ref(query), false)
    }

    /// Receive the next pipelined predict response, which must answer
    /// the request whose [`predict_send`](Self::predict_send) returned
    /// `id`. Flushes any buffered sends first.
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
                append_json_frame(&mut self.buf, &request)
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

    /// Flush buffered sends, then receive the predict reply to request
    /// `id`: one ranking for a single, one per query for a batch.
    fn recv_predict(&mut self, id: u64, batch: bool) -> io::Result<Vec<Ranked>> {
        self.writer.flush()?;
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
