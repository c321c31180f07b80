//! GPSB binary codec primitives.
//!
//! JSON (`gps_types::json`) is self-describing and diffable, but parsing
//! it would dominate model load time on big universes: every float goes
//! through shortest-round-trip formatting and back, and every key is
//! re-tokenized. GPSB is the container `gps-core::snapshot` writes
//! instead. This module is only the byte-level layer — what a `varint`
//! is, how a section is framed — so the snapshot layer and any future
//! artifact share one set of primitives.
//!
//! ## Conventions
//!
//! - **Endianness is explicit**: every fixed-width integer and every
//!   `f64` bit pattern is little-endian, on every platform.
//! - **Varints** are LEB128 (7 bits per byte, low group first, high bit =
//!   continuation), at most 10 bytes for a `u64`. Counts, symbol ids and
//!   coverage counters compress to 1–2 bytes this way.
//! - **Strings** are a varint byte length followed by UTF-8 bytes.
//! - **Sections** are `tag (4 bytes) | payload length (u32 LE) | payload |
//!   FNV-1a checksum of the payload (u64 LE)`. A reader can verify or skip
//!   a section without understanding its payload, and corruption is
//!   pinned to the section it hit.
//!
//! All read paths treat the input as untrusted: every length is bounds-
//! checked against the remaining input before allocation, and truncation
//! anywhere is an error, never a short read.

use crate::error::GpsError;
use crate::json::fnv64;

/// Magic bytes opening every GPSB container.
pub const GPSB_MAGIC: [u8; 4] = *b"GPSB";

/// Version of the *container* layout (magic, header, section framing) —
/// independent of the snapshot's own `format` major/minor, which lives in
/// the manifest and governs the payload schema.
pub const GPSB_CONTAINER_VERSION: u8 = 1;

/// Magic bytes opening every GPSQ binary *wire* payload (the query-plane
/// sibling of GPSB: same primitives, framed per TCP message instead of
/// per file section). A frame payload starting with these bytes
/// negotiates a connection into the binary wire format; JSON payloads
/// can never collide (no JSON document starts with `G`).
pub const GPSQ_MAGIC: [u8; 4] = *b"GPSQ";

/// Version byte following [`GPSQ_MAGIC`] on every binary wire message.
pub const GPSQ_VERSION: u8 = 1;

fn bad(reason: &'static str) -> GpsError {
    GpsError::parse("gpsb", "", reason)
}

/// An append-only byte buffer with the GPSB encoding conventions.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Wrap an existing buffer and append to it — how the wire path
    /// encodes straight into a connection's write buffer with no
    /// intermediate allocation (take the buffer, wrap, encode, unwrap
    /// with [`into_bytes`](Self::into_bytes); both directions are moves).
    pub fn from_vec(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern, little-endian — exact, no formatting round
    /// trip involved.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Varint byte length + UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Zigzag-encoded signed varint: small magnitudes of either sign
    /// encode in one byte (`0 → 0, -1 → 1, 1 → 2, -2 → 3, ...`).
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A port list as a count plus zigzag deltas between consecutive
    /// ports. Arbitrary order round-trips exactly; sorted or clustered
    /// lists (the common case for both query evidence and rankings)
    /// compress to ~1 byte per port. The GPSQ wire format's list shape.
    pub fn put_port_deltas(&mut self, ports: impl ExactSizeIterator<Item = u16>) {
        self.put_varint(ports.len() as u64);
        let mut prev: i64 = 0;
        for port in ports {
            self.put_zigzag(port as i64 - prev);
            prev = port as i64;
        }
    }
}

/// Largest port-list length [`ByteReader::port_deltas`] will decode —
/// matches the serving layer's evidence cap plus headroom for rankings
/// (a ranking is at most the 65,536-port space).
pub const MAX_PORT_LIST: usize = 65_536;

/// A bounds-checked cursor over untrusted GPSB bytes.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes verbatim.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], GpsError> {
        if n > self.remaining() {
            return Err(bad("truncated input"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, GpsError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, GpsError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, GpsError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, GpsError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, GpsError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// LEB128 varint. Rejects encodings longer than 10 bytes and 10-byte
    /// encodings whose final group overflows 64 bits.
    pub fn varint(&mut self) -> Result<u64, GpsError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = (byte & 0x7F) as u64;
            if shift == 63 && group > 1 {
                return Err(bad("varint overflows u64"));
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(bad("varint too long"))
    }

    /// A varint that must fit the named narrower width.
    pub fn varint_u32(&mut self) -> Result<u32, GpsError> {
        u32::try_from(self.varint()?).map_err(|_| bad("varint exceeds u32"))
    }

    /// Varint byte length + UTF-8 bytes.
    pub fn str(&mut self) -> Result<&'a str, GpsError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| bad("string length overflow"))?;
        std::str::from_utf8(self.take(len)?).map_err(|_| bad("string is not utf-8"))
    }

    /// Inverse of [`ByteWriter::put_zigzag`].
    pub fn zigzag(&mut self) -> Result<i64, GpsError> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Inverse of [`ByteWriter::put_port_deltas`]. Every decoded value is
    /// range-checked back into a `u16`; the count is capped at
    /// [`MAX_PORT_LIST`] *before* allocation (the count is attacker
    /// input).
    pub fn port_deltas(&mut self) -> Result<Vec<u16>, GpsError> {
        let count = self.varint()?;
        let count = usize::try_from(count)
            .ok()
            .filter(|&n| n <= MAX_PORT_LIST)
            .ok_or_else(|| bad("port list too long"))?;
        let mut ports = Vec::with_capacity(count);
        let mut prev: i64 = 0;
        for _ in 0..count {
            // Checked: a hostile delta near i64::MAX must be an error,
            // not a debug-build overflow panic.
            let port = prev
                .checked_add(self.zigzag()?)
                .ok_or_else(|| bad("port out of range"))?;
            prev = port;
            ports.push(u16::try_from(port).map_err(|_| bad("port out of range"))?);
        }
        Ok(ports)
    }
}

/// Append one framed section: tag, payload length, payload, payload
/// checksum.
pub fn write_section(out: &mut ByteWriter, tag: [u8; 4], payload: &[u8]) -> Result<(), GpsError> {
    let len = u32::try_from(payload.len()).map_err(|_| bad("section exceeds 4 GiB"))?;
    out.put_bytes(&tag);
    out.put_u32(len);
    out.put_bytes(payload);
    out.put_u64(fnv64(payload));
    Ok(())
}

/// One decoded section frame. Framing (lengths, truncation) has been
/// checked; call [`verify`](Section::verify) before trusting the payload
/// — callers that need the mismatching values for their own error types
/// can compare [`stored_checksum`](Section::stored_checksum) against
/// [`computed_checksum`](Section::computed_checksum) directly.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    pub tag: [u8; 4],
    pub payload: &'a [u8],
    /// The checksum recorded in the frame.
    pub stored_checksum: u64,
}

impl Section<'_> {
    /// FNV-1a over the payload as read.
    pub fn computed_checksum(&self) -> u64 {
        fnv64(self.payload)
    }

    /// Fail on a stored/computed checksum mismatch.
    pub fn verify(&self) -> Result<(), GpsError> {
        if self.stored_checksum != self.computed_checksum() {
            return Err(bad("section checksum mismatch"));
        }
        Ok(())
    }
}

/// Read the next section frame. `Ok(None)` at clean end of input. Only
/// framing is validated here — the caller decides how to surface a
/// checksum mismatch via [`Section::verify`].
pub fn read_section<'a>(reader: &mut ByteReader<'a>) -> Result<Option<Section<'a>>, GpsError> {
    if reader.is_empty() {
        return Ok(None);
    }
    let tag: [u8; 4] = reader.take(4)?.try_into().unwrap();
    let len = reader.u32()? as usize;
    let payload = reader.take(len)?;
    let stored_checksum = reader.u64()?;
    Ok(Some(Section {
        tag,
        payload,
        stored_checksum,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_round_trip_is_little_endian() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        w.put_f64(-0.15625);
        let bytes = w.into_bytes();
        // Spot-check the wire order: u16 low byte first.
        assert_eq!(&bytes[1..3], &[0x34, 0x12]);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.f64().unwrap(), -0.15625);
        assert!(r.is_empty());
    }

    #[test]
    fn f64_bits_are_exact() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, f64::NAN] {
            let mut w = ByteWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let got = ByteReader::new(&bytes).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn varint_round_trip_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v, "value {v}");
            assert!(r.is_empty());
        }
        // Encoding sizes at the group boundaries.
        let size = |v: u64| {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            w.len()
        };
        assert_eq!(size(127), 1);
        assert_eq!(size(128), 2);
        assert_eq!(size(u64::MAX), 10);
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes: too long.
        let overlong = [0x80u8; 11];
        assert!(ByteReader::new(&overlong).varint().is_err());
        // 10 bytes whose final group sets bit 65.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(ByteReader::new(&overflow).varint().is_err());
        // Truncated mid-varint.
        assert!(ByteReader::new(&[0x80]).varint().is_err());
    }

    #[test]
    fn zigzag_round_trips_signed_boundaries() {
        let cases = [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            -65,
            i64::from(u16::MAX),
            -i64::from(u16::MAX),
            i64::MAX,
            i64::MIN,
        ];
        for &v in &cases {
            let mut w = ByteWriter::new();
            w.put_zigzag(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.zigzag().unwrap(), v, "value {v}");
            assert!(r.is_empty());
        }
        // Small magnitudes of either sign stay one byte.
        for v in [-63i64, -1, 0, 1, 63] {
            let mut w = ByteWriter::new();
            w.put_zigzag(v);
            assert_eq!(w.len(), 1, "value {v}");
        }
    }

    #[test]
    fn port_deltas_round_trip_any_order() {
        let cases: [&[u16]; 5] = [
            &[],
            &[443],
            &[22, 80, 443, 8080],       // ascending: tiny deltas
            &[8080, 22, 65535, 0, 443], // arbitrary order still exact
            &[80, 80, 80],              // duplicates survive
        ];
        for ports in cases {
            let mut w = ByteWriter::new();
            w.put_port_deltas(ports.iter().copied());
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.port_deltas().unwrap(), ports, "{ports:?}");
            assert!(r.is_empty());
        }
        // Clustered ascending lists compress: count + 1–2 bytes per port.
        let mut w = ByteWriter::new();
        w.put_port_deltas([8000u16, 8001, 8002, 8003, 8080].into_iter());
        assert!(w.len() <= 8, "5 clustered ports in {} bytes", w.len());
    }

    #[test]
    fn port_deltas_reject_hostile_input() {
        // A count past the cap must fail before allocating.
        let mut w = ByteWriter::new();
        w.put_varint(MAX_PORT_LIST as u64 + 1);
        assert!(ByteReader::new(&w.into_bytes()).port_deltas().is_err());
        // A delta walking out of u16 range is rejected.
        let mut w = ByteWriter::new();
        w.put_varint(2);
        w.put_zigzag(65_535);
        w.put_zigzag(1);
        assert!(ByteReader::new(&w.into_bytes()).port_deltas().is_err());
        // Negative walk below zero too.
        let mut w = ByteWriter::new();
        w.put_varint(1);
        w.put_zigzag(-1);
        assert!(ByteReader::new(&w.into_bytes()).port_deltas().is_err());
        // A delta that would overflow the i64 accumulator is an error,
        // not a panic (regression: this used to overflow in debug).
        let mut w = ByteWriter::new();
        w.put_varint(2);
        w.put_zigzag(1);
        w.put_zigzag(i64::MAX);
        assert!(ByteReader::new(&w.into_bytes()).port_deltas().is_err());
        // Truncation mid-list is an error, not a short list.
        let mut w = ByteWriter::new();
        w.put_port_deltas([1u16, 2, 3].into_iter());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ByteReader::new(&bytes[..cut]).port_deltas().is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn strings_round_trip() {
        let mut w = ByteWriter::new();
        w.put_str("");
        w.put_str("hello");
        w.put_str("snowman ☃ and crab 🦀");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.str().unwrap(), "snowman ☃ and crab 🦀");
    }

    #[test]
    fn string_rejects_bad_utf8_and_truncation() {
        let mut w = ByteWriter::new();
        w.put_varint(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).str().is_err());
        // Declared length beyond the buffer must not allocate/panic.
        let mut w = ByteWriter::new();
        w.put_varint(1 << 40);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).str().is_err());
    }

    #[test]
    fn sections_round_trip_and_verify() {
        let mut w = ByteWriter::new();
        write_section(&mut w, *b"AAAA", b"first payload").unwrap();
        write_section(&mut w, *b"BBBB", b"").unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let a = read_section(&mut r).unwrap().unwrap();
        a.verify().unwrap();
        assert_eq!(a.tag, *b"AAAA");
        assert_eq!(a.payload, b"first payload");
        let b = read_section(&mut r).unwrap().unwrap();
        b.verify().unwrap();
        assert_eq!(b.tag, *b"BBBB");
        assert!(b.payload.is_empty());
        assert!(read_section(&mut r).unwrap().is_none());
    }

    #[test]
    fn section_corruption_is_detected() {
        let mut w = ByteWriter::new();
        write_section(&mut w, *b"MODL", b"some model bytes").unwrap();
        let clean = w.into_bytes();
        // Flip every payload byte in turn: each flip must fail the
        // checksum (tag/length/checksum flips may fail differently, but
        // payload flips are exactly what FNV covers).
        for i in 8..8 + b"some model bytes".len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x01;
            let mut r = ByteReader::new(&corrupt);
            let section = read_section(&mut r).unwrap().unwrap();
            assert!(section.verify().is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn truncated_sections_are_errors_at_every_length() {
        let mut w = ByteWriter::new();
        write_section(&mut w, *b"PRIO", b"0123456789").unwrap();
        let clean = w.into_bytes();
        for len in 1..clean.len() {
            let mut r = ByteReader::new(&clean[..len]);
            assert!(
                read_section(&mut r).is_err(),
                "prefix of {len} bytes must be an error"
            );
        }
        // The empty prefix is a clean end-of-input, not an error.
        let mut r = ByteReader::new(&[]);
        assert!(read_section(&mut r).unwrap().is_none());
    }
}
