//! GPSQ — the compact binary wire format for the query plane.
//!
//! The JSON protocol (`proto.rs`) is self-describing and debuggable, but
//! on the hot path it burns the TCP serving budget in text encode/decode:
//! every probability through shortest-round-trip float formatting, every
//! request through a JSON tree. GPSQ is the binary sibling, built on the
//! same `gps_types::binary` primitives as the GPSB snapshot format: LE
//! fixed-width ints, LEB128 varints, varint-length strings — plus
//! zigzag-delta port lists. It rides inside the *same* outer framing (a
//! 4-byte big-endian length prefix), so both formats share one frame
//! decoder; the payload's leading [`GPSQ_MAGIC`] is what negotiates a
//! connection into binary (see `net::decoder`).
//!
//! ## Message layout
//!
//! Every payload:
//!
//! ```text
//! "GPSQ" | version u8 | kind u8 | flags u8 | [id varint] | body
//! ```
//!
//! `flags` bit 0 = an id varint follows (echoed on the reply, like the
//! JSON `"id"`); bit 1 (requests only) = a model-id string follows the
//! id. Request kinds and their bodies:
//!
//! ```text
//! 1 ping      (empty)
//! 2 predict   query
//! 3 batch     count varint, then count queries
//! 4 admin     JSON request text, verbatim (stats/manifest/reload/...)
//! ```
//!
//! A query is `ip u32 LE | qflags u8 | [asn varint] | top varint |
//! open-port delta list`. Response kinds:
//!
//! ```text
//! 0 error     message string
//! 1 pong      (empty)
//! 2 predict   ranking
//! 3 batch     count varint, then count rankings
//! 4 admin     JSON response text, verbatim
//! ```
//!
//! A ranking is `count varint | count ports as zigzag deltas | count
//! probabilities as f64 bit patterns (LE)`. The bit patterns are exact,
//! so a prediction served over GPSQ is **bit-identical** to the same
//! prediction served over JSON (whose floats round-trip by construction)
//! — property-tested in `tests/property_invariants.rs`.
//!
//! ## Admin passthrough
//!
//! The admin commands are rare, trusted-operator surface with deeply
//! structured replies (`stats`, `list-models`); giving each a bespoke
//! binary schema would buy nothing on the hot path and cost a second
//! codec to keep in lockstep. Kind 4 instead carries the *JSON request
//! text* inside a binary envelope and returns the JSON response text the
//! same way — every admin command (and any future one) answers
//! identically in either format by construction, and a binary session
//! never has to switch formats mid-stream. Predict/batch commands are
//! legal inside the envelope too (they run through the same shared
//! request core); native kinds 2/3 are simply the fast path.
//!
//! All decode paths treat input as untrusted: lengths are bounds-checked
//! before allocation (`ByteReader`), list sizes are capped, and
//! truncation anywhere is an error.

use crate::artifact::{Query, Ranked};
use crate::proto::{MAX_BATCH_QUERIES, MAX_OPEN_PORTS, MAX_TOP};
use gps_types::binary::{ByteReader, ByteWriter, GPSQ_MAGIC, GPSQ_VERSION};
use gps_types::{Ip, Port};

// Request kinds.
pub(crate) const REQ_PING: u8 = 1;
pub(crate) const REQ_PREDICT: u8 = 2;
pub(crate) const REQ_BATCH: u8 = 3;
pub(crate) const REQ_ADMIN: u8 = 4;

// Response kinds.
pub(crate) const RESP_ERROR: u8 = 0;
pub(crate) const RESP_PONG: u8 = 1;
pub(crate) const RESP_PREDICT: u8 = 2;
pub(crate) const RESP_BATCH: u8 = 3;
pub(crate) const RESP_ADMIN: u8 = 4;

// Header flags.
const FLAG_ID: u8 = 1;
const FLAG_MODEL: u8 = 2;

// Query flags.
const QFLAG_ASN: u8 = 1;

/// One decoded GPSQ request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Request {
    Ping {
        id: Option<u64>,
    },
    Predict {
        id: Option<u64>,
        model: Option<String>,
        query: Query,
    },
    Batch {
        id: Option<u64>,
        model: Option<String>,
        queries: Vec<Query>,
    },
    /// JSON request text in a binary envelope (admin commands).
    Admin {
        json: String,
    },
}

/// One decoded GPSQ response (the client's view).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Response {
    Error {
        id: Option<u64>,
        message: String,
    },
    Pong {
        id: Option<u64>,
    },
    Predict {
        id: Option<u64>,
        ranking: Ranked,
    },
    Batch {
        id: Option<u64>,
        rankings: Vec<Ranked>,
    },
    /// JSON response text in a binary envelope.
    Admin {
        json: String,
    },
}

/// A decode failure, with the request id if the header got far enough to
/// carry one — the server echoes it on the error reply so a pipelining
/// client can still correlate the failure.
pub(crate) struct RequestError {
    pub id: Option<u64>,
    pub message: String,
}

fn header(out: &mut ByteWriter, kind: u8, id: Option<u64>, model: Option<&str>) {
    out.put_bytes(&GPSQ_MAGIC);
    out.put_u8(GPSQ_VERSION);
    out.put_u8(kind);
    let mut flags = 0u8;
    if id.is_some() {
        flags |= FLAG_ID;
    }
    if model.is_some() {
        flags |= FLAG_MODEL;
    }
    out.put_u8(flags);
    if let Some(id) = id {
        out.put_varint(id);
    }
    if let Some(model) = model {
        out.put_str(model);
    }
}

fn put_query(out: &mut ByteWriter, query: &Query) {
    out.put_u32(query.ip.0);
    out.put_u8(if query.asn.is_some() { QFLAG_ASN } else { 0 });
    if let Some(asn) = query.asn {
        out.put_varint(asn as u64);
    }
    out.put_varint(query.top as u64);
    out.put_port_deltas(query.open.iter().map(|p| p.0));
}

/// Append one ranking: ports as zigzag deltas, then probabilities as raw
/// f64 bits (exact — no formatting round trip).
pub(crate) fn put_ranking(out: &mut ByteWriter, ranking: &Ranked) {
    out.put_port_deltas(ranking.iter().map(|&(port, _)| port.0));
    for &(_, prob) in ranking {
        out.put_f64(prob);
    }
}

// ---------------------------------------------------------------------
// Request encode (client side).

pub(crate) fn encode_ping(id: Option<u64>, out: &mut ByteWriter) {
    header(out, REQ_PING, id, None);
}

pub(crate) fn encode_predict(
    id: Option<u64>,
    model: Option<&str>,
    query: &Query,
    out: &mut ByteWriter,
) {
    header(out, REQ_PREDICT, id, model);
    put_query(out, query);
}

pub(crate) fn encode_batch(
    id: Option<u64>,
    model: Option<&str>,
    queries: &[Query],
    out: &mut ByteWriter,
) {
    header(out, REQ_BATCH, id, model);
    out.put_varint(queries.len() as u64);
    for query in queries {
        put_query(out, query);
    }
}

pub(crate) fn encode_admin_request(json: &str, out: &mut ByteWriter) {
    header(out, REQ_ADMIN, None, None);
    out.put_bytes(json.as_bytes());
}

// ---------------------------------------------------------------------
// Request decode (server side).

/// Header fields every message shares.
struct Header {
    kind: u8,
    id: Option<u64>,
    model: Option<String>,
}

fn read_header(reader: &mut ByteReader<'_>, request: bool) -> Result<Header, String> {
    let magic = reader.take(4).map_err(|e| e.to_string())?;
    if magic != GPSQ_MAGIC {
        return Err("missing GPSQ magic".to_string());
    }
    let version = reader.u8().map_err(|e| e.to_string())?;
    if version != GPSQ_VERSION {
        return Err(format!("unsupported GPSQ version {version}"));
    }
    let kind = reader.u8().map_err(|e| e.to_string())?;
    let flags = reader.u8().map_err(|e| e.to_string())?;
    let id = if flags & FLAG_ID != 0 {
        Some(reader.varint().map_err(|e| e.to_string())?)
    } else {
        None
    };
    let model = if flags & FLAG_MODEL != 0 {
        if !request {
            return Err("model flag on a response".to_string());
        }
        Some(reader.str().map_err(|e| e.to_string())?.to_string())
    } else {
        None
    };
    Ok(Header { kind, id, model })
}

/// Decode one query, enforcing the same caps as the JSON path — with the
/// same error strings, so the two formats reject identically.
fn read_query(reader: &mut ByteReader<'_>) -> Result<Query, String> {
    let ip = Ip(reader.u32().map_err(|e| e.to_string())?);
    let qflags = reader.u8().map_err(|e| e.to_string())?;
    let mut query = Query::new(ip);
    if qflags & QFLAG_ASN != 0 {
        let asn = reader.varint().map_err(|e| e.to_string())?;
        query.asn = Some(u32::try_from(asn).map_err(|_| "bad asn".to_string())?);
    }
    let top = reader.varint().map_err(|e| e.to_string())? as usize;
    if top > MAX_TOP {
        return Err(format!("top is capped at {MAX_TOP}"));
    }
    query.top = top;
    let open = reader.port_deltas().map_err(|e| e.to_string())?;
    if open.len() > MAX_OPEN_PORTS {
        return Err(format!("open lists at most {MAX_OPEN_PORTS} ports"));
    }
    query.open = open.into_iter().map(Port).collect();
    Ok(query)
}

/// Decode one request payload. On failure the id is recovered when the
/// header got that far.
pub(crate) fn decode_request(payload: &[u8]) -> Result<Request, RequestError> {
    let mut reader = ByteReader::new(payload);
    let header =
        read_header(&mut reader, true).map_err(|message| RequestError { id: None, message })?;
    let fail = |id: Option<u64>, message: String| RequestError { id, message };
    match header.kind {
        REQ_PING => Ok(Request::Ping { id: header.id }),
        REQ_PREDICT => {
            let query = read_query(&mut reader).map_err(|m| fail(header.id, m))?;
            Ok(Request::Predict {
                id: header.id,
                model: header.model,
                query,
            })
        }
        REQ_BATCH => {
            let count = reader
                .varint()
                .map_err(|e| fail(header.id, e.to_string()))?;
            let count = usize::try_from(count)
                .ok()
                .filter(|&n| n <= MAX_BATCH_QUERIES)
                .ok_or_else(|| fail(header.id, "batch too large".to_string()))?;
            // Capacity capped well below the declared count: the count is
            // attacker input, the bytes may never arrive.
            let mut queries = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                queries.push(read_query(&mut reader).map_err(|m| fail(header.id, m))?);
            }
            Ok(Request::Batch {
                id: header.id,
                model: header.model,
                queries,
            })
        }
        REQ_ADMIN => {
            let json = std::str::from_utf8(reader.take(reader.remaining()).expect("remaining"))
                .map_err(|_| fail(header.id, "admin payload is not utf-8".to_string()))?
                .to_string();
            Ok(Request::Admin { json })
        }
        other => Err(fail(
            header.id,
            format!("unknown GPSQ request kind {other}"),
        )),
    }
}

// ---------------------------------------------------------------------
// Response encode (server side).

pub(crate) fn encode_pong(id: Option<u64>, out: &mut ByteWriter) {
    header(out, RESP_PONG, id, None);
}

pub(crate) fn encode_error(id: Option<u64>, message: &str, out: &mut ByteWriter) {
    header(out, RESP_ERROR, id, None);
    out.put_str(message);
}

/// The predict/batch success reply: `batch` answers with kind 3 even for
/// one query (mirroring the JSON `"results"` vs `"predictions"` shapes).
pub(crate) fn encode_predict_response(
    id: Option<u64>,
    answers: &[Ranked],
    batch: bool,
    out: &mut ByteWriter,
) {
    if batch {
        header(out, RESP_BATCH, id, None);
        out.put_varint(answers.len() as u64);
        for ranking in answers {
            put_ranking(out, ranking);
        }
    } else {
        header(out, RESP_PREDICT, id, None);
        put_ranking(out, &answers[0]);
    }
}

pub(crate) fn encode_admin_response(json: &str, out: &mut ByteWriter) {
    header(out, RESP_ADMIN, None, None);
    out.put_bytes(json.as_bytes());
}

// ---------------------------------------------------------------------
// Response decode (client side).

/// Decode one ranking (the inverse of [`put_ranking`]).
pub(crate) fn read_ranking(reader: &mut ByteReader<'_>) -> Result<Ranked, String> {
    let ports = reader.port_deltas().map_err(|e| e.to_string())?;
    let mut ranking = Vec::with_capacity(ports.len());
    for port in ports {
        let prob = reader.f64().map_err(|e| e.to_string())?;
        ranking.push((Port(port), prob));
    }
    Ok(ranking)
}

pub(crate) fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut reader = ByteReader::new(payload);
    let header = read_header(&mut reader, false)?;
    match header.kind {
        RESP_ERROR => Ok(Response::Error {
            id: header.id,
            message: reader.str().map_err(|e| e.to_string())?.to_string(),
        }),
        RESP_PONG => Ok(Response::Pong { id: header.id }),
        RESP_PREDICT => Ok(Response::Predict {
            id: header.id,
            ranking: read_ranking(&mut reader)?,
        }),
        RESP_BATCH => {
            let count = reader.varint().map_err(|e| e.to_string())?;
            let count = usize::try_from(count)
                .ok()
                .filter(|&n| n <= MAX_BATCH_QUERIES)
                .ok_or("batch response too large")?;
            let mut rankings = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                rankings.push(read_ranking(&mut reader)?);
            }
            Ok(Response::Batch {
                id: header.id,
                rankings,
            })
        }
        RESP_ADMIN => Ok(Response::Admin {
            json: std::str::from_utf8(reader.take(reader.remaining()).expect("remaining"))
                .map_err(|_| "admin response is not utf-8".to_string())?
                .to_string(),
        }),
        other => Err(format!("unknown GPSQ response kind {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Query {
        let mut query = Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([443, 80, 22]);
        query.asn = Some(64_500);
        query.top = 8;
        query
    }

    #[test]
    fn request_kinds_round_trip() {
        let cases = [
            Request::Ping { id: Some(7) },
            Request::Ping { id: None },
            Request::Predict {
                id: Some(u64::MAX),
                model: Some("lzr-day3".to_string()),
                query: query(),
            },
            Request::Predict {
                id: None,
                model: None,
                query: Query::new(Ip(0)),
            },
            Request::Batch {
                id: Some(1),
                model: None,
                queries: vec![query(), Query::new(Ip(u32::MAX))],
            },
            Request::Admin {
                json: "{\"cmd\":\"stats\",\"id\":3}".to_string(),
            },
        ];
        for request in cases {
            let mut w = ByteWriter::new();
            match &request {
                Request::Ping { id } => encode_ping(*id, &mut w),
                Request::Predict { id, model, query } => {
                    encode_predict(*id, model.as_deref(), query, &mut w)
                }
                Request::Batch { id, model, queries } => {
                    encode_batch(*id, model.as_deref(), queries, &mut w)
                }
                Request::Admin { json } => encode_admin_request(json, &mut w),
            }
            let bytes = w.into_bytes();
            assert!(bytes.starts_with(&GPSQ_MAGIC));
            let decoded = decode_request(&bytes).unwrap_or_else(|e| panic!("{}", e.message));
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn response_kinds_round_trip_with_exact_probabilities() {
        let ranking: Ranked = vec![
            (Port(443), 0.875),
            (Port(22), 1.0 / 3.0),
            (Port(8080), f64::MIN_POSITIVE),
        ];
        let answers = vec![ranking.clone(), Vec::new()];
        let cases: Vec<(Response, Vec<u8>)> = vec![
            (Response::Pong { id: Some(4) }, {
                let mut w = ByteWriter::new();
                encode_pong(Some(4), &mut w);
                w.into_bytes()
            }),
            (
                Response::Error {
                    id: None,
                    message: "unknown model \"x\"".to_string(),
                },
                {
                    let mut w = ByteWriter::new();
                    encode_error(None, "unknown model \"x\"", &mut w);
                    w.into_bytes()
                },
            ),
            (
                Response::Predict {
                    id: Some(9),
                    ranking: ranking.clone(),
                },
                {
                    let mut w = ByteWriter::new();
                    encode_predict_response(Some(9), &answers[..1], false, &mut w);
                    w.into_bytes()
                },
            ),
            (
                Response::Batch {
                    id: Some(10),
                    rankings: vec![ranking.clone(), Vec::new()],
                },
                {
                    let mut w = ByteWriter::new();
                    encode_predict_response(Some(10), &answers, true, &mut w);
                    w.into_bytes()
                },
            ),
            (
                Response::Admin {
                    json: "{\"ok\":true}".to_string(),
                },
                {
                    let mut w = ByteWriter::new();
                    encode_admin_response("{\"ok\":true}", &mut w);
                    w.into_bytes()
                },
            ),
        ];
        for (expected, bytes) in cases {
            let decoded = decode_response(&bytes).expect("decodes");
            assert_eq!(decoded, expected);
            if let (Response::Predict { ranking: got, .. }, Response::Predict { ranking, .. }) =
                (&decoded, &expected)
            {
                for (a, b) in got.iter().zip(ranking) {
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "bit-exact probabilities");
                }
            }
        }
    }

    #[test]
    fn caps_match_the_json_path() {
        // Over-long open list: same error text as proto::query_from_json.
        let mut too_open = Query::new(Ip(1));
        too_open.open = (0..65u16).map(Port).collect();
        let mut w = ByteWriter::new();
        encode_predict(Some(1), None, &too_open, &mut w);
        let err = decode_request(&w.into_bytes()).unwrap_err();
        assert_eq!(err.id, Some(1), "id recovered for correlation");
        assert_eq!(
            err.message,
            format!("open lists at most {MAX_OPEN_PORTS} ports")
        );

        // Oversized top.
        let mut big_top = Query::new(Ip(1));
        big_top.top = MAX_TOP + 1;
        let mut w = ByteWriter::new();
        encode_predict(None, None, &big_top, &mut w);
        let err = decode_request(&w.into_bytes()).unwrap_err();
        assert_eq!(err.message, format!("top is capped at {MAX_TOP}"));

        // A batch count past the cap fails before allocating.
        let mut w = ByteWriter::new();
        header(&mut w, REQ_BATCH, Some(2), None);
        w.put_varint(MAX_BATCH_QUERIES as u64 + 1);
        let err = decode_request(&w.into_bytes()).unwrap_err();
        assert_eq!(err.id, Some(2));
        assert_eq!(err.message, "batch too large");
    }

    proptest::proptest! {
        /// Mirror of the GPSB corruption properties for the wire codec:
        /// any single flipped byte of any encoded request, and any
        /// truncation, decodes without panicking and without violating
        /// the caps — either a clean error or a request whose lists are
        /// within bounds (bounds-checked `ByteReader` reads make
        /// hostile lengths unrepresentable). Unlike GPSB, GPSQ frames
        /// are deliberately un-checksummed (per-frame hashing would tax
        /// the hot path TCP already protects); the guarantee here is
        /// memory safety and bounded allocation, not tamper evidence.
        #[test]
        fn any_flip_or_truncation_decodes_safely(
            position in proptest::prelude::any::<u16>(),
            flip in 1u8..=255,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = gps_types::rng::Rng::new(seed);
            let mut queries = Vec::new();
            for _ in 0..(1 + rng.gen_range(4)) {
                let mut q = Query::new(Ip(rng.next_u32()));
                q.top = rng.gen_range(64) as usize;
                q.open = (0..rng.gen_range(5)).map(|_| Port(rng.next_u32() as u16)).collect();
                queries.push(q);
            }
            let mut w = ByteWriter::new();
            encode_batch(Some(rng.next_u32() as u64), Some("m-x"), &queries, &mut w);
            let clean = w.into_bytes();
            proptest::prop_assert!(decode_request(&clean).is_ok());
            let position = position as usize % clean.len();
            let mut corrupt = clean.clone();
            corrupt[position] ^= flip;
            if let Ok(Request::Batch { queries, .. }) = decode_request(&corrupt) {
                proptest::prop_assert!(queries.len() <= MAX_BATCH_QUERIES);
                for q in &queries {
                    proptest::prop_assert!(q.open.len() <= MAX_OPEN_PORTS);
                    proptest::prop_assert!(q.top <= MAX_TOP);
                }
            }
            let cut = position; // reuse the random point as a cut
            proptest::prop_assert!(
                decode_request(&clean[..cut]).is_err(),
                "a truncated request must not decode"
            );
        }
    }

    #[test]
    fn hostile_requests_never_panic() {
        // Truncation at every length of a valid predict request.
        let mut w = ByteWriter::new();
        encode_predict(Some(3), Some("m"), &query(), &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let _ = decode_request(&bytes[..cut]);
        }
        // Every single-byte flip decodes without panicking (bounds-checked
        // reads), and a flipped magic/version/kind is cleanly rejected.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let _ = decode_request(&corrupt);
        }
        let mut corrupt = bytes.clone();
        corrupt[4] = 99; // version
        assert!(decode_request(&corrupt).is_err());
        let mut corrupt = bytes;
        corrupt[5] = 200; // kind
        assert!(decode_request(&corrupt).is_err());
    }
}
