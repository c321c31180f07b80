//! Persistent model artifacts.
//!
//! What `run_gps` trains for a server to answer from — the "most
//! predictive feature values" rules list (§5.4) and the priors scan list
//! (§5.3) — is saved to a single versioned snapshot file and reloaded
//! later by the serving subsystem (`gps-serve`) without re-running the
//! pipeline. This is what turns the repo from a one-shot batch
//! reproduction into a servable system: train once with
//! `gps export-model`, answer prediction queries for as long as the model
//! stays fresh with `gps serve`.
//!
//! ## Format
//!
//! A snapshot is one GPSB container (`gps_types::binary`):
//! length-prefixed, per-section-checksummed little-endian sections.
//!
//! ```text
//! "GPSB" | container version (u8)
//! MANI section: the manifest as JSON text  (forward-compatible header)
//! RULE section: the compiled rule arena    (see [`crate::compiled`])
//! PRIO section: priors scan list
//! ```
//!
//! Each section is `tag | u32 length | payload | u64 FNV-1a of payload`,
//! so corruption is pinned to a section, and all three are required. The
//! manifest stays JSON inside its section: new manifest fields from newer
//! minor versions ride through without a binary schema change. It lists
//! the tags of the sections that follow it, and a reader requires the
//! container to hold exactly those.
//!
//! The rules are stored once, in the form a server answers from: RULE is
//! [`CompiledRules`]' sorted key table (each key with its arena offset and
//! length) followed by the `u16` port and `u64` probability-bit arenas as
//! bulk little-endian arrays, re-validated by [`CompiledRules::from_parts`]
//! on load. Probabilities are IEEE-754 bit patterns, so a round trip is
//! bit-exact by construction. PRIO is the ordered §5.3 scan list with its
//! coverage counts; the serving layer compiles its cold-query index from
//! it at load.
//!
//! The manifest's `checksum` field — the identity `/models`, reload
//! outcomes and `gps models` report — is FNV-1a over the canonical
//! serialization of the manifest (checksum zeroed) followed by the RULE
//! and PRIO payloads: every byte a server answers from. Every load
//! recomputes it, so an edit that re-seals a section's own FNV still
//! fails, and corrupting a manifest field that drives serving
//! (step_prefix, net_features) fails the same check as corrupting a rule.
//! Version checks are split by field: a different `format` major is
//! rejected, a newer minor is accepted (minor bumps may only add manifest
//! fields and sections, which the reader ignores once they verify).
//!
//! Interned symbols (`Sym`) are stored as raw `u32`s: they are only
//! meaningful together with the universe that produced them, which is
//! itself a pure function of the recorded `universe_seed`.

use std::fmt;
use std::path::Path;

use gps_types::binary::{
    read_section, write_section, ByteReader, ByteWriter, GPSB_CONTAINER_VERSION, GPSB_MAGIC,
};
use gps_types::json::{fnv64, u64_from_hex, u64_to_hex, Json};
use gps_types::{FeatureKind, FeatureValue, GpsError, Port, Subnet, Sym};

use crate::compiled::CompiledRules;
use crate::config::{GpsConfig, Interactions, NetFeature};
use crate::model::{CondKey, NetKey};
use crate::pipeline::GpsRun;
use crate::priors::PriorsEntry;

/// Snapshot format version. Major changes break compatibility; minor
/// changes only add fields. Major 1 also carried the co-occurrence model
/// (a `MODL` section) and had a JSON encoding; major 2 stored the rules
/// twice, as a per-key list and as a derived compiled copy outside the
/// manifest checksum. No reader for either is kept.
pub const FORMAT_MAJOR: u32 = 3;
pub const FORMAT_MINOR: u32 = 0;

/// GPSB section tags. MANI must come first (it gates version checks);
/// unknown tags from newer minor versions are skipped after their
/// checksum verifies.
const SEC_MANIFEST: [u8; 4] = *b"MANI";
const SEC_RULES: [u8; 4] = *b"RULE";
const SEC_PRIORS: [u8; 4] = *b"PRIO";

/// Net-key discriminants inside binary conditioning keys.
const NETKEY_SLASH: u8 = 0;
const NETKEY_ASN: u8 = 1;

/// Descriptive header of a snapshot: enough to decide whether to trust and
/// how to query the artifact without deserializing the body.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelManifest {
    pub format: (u32, u32),
    /// Seed of the synthetic universe the model was trained against.
    pub universe_seed: u64,
    pub dataset_name: String,
    /// §5.3 scanning step: the prefix length priors entries are keyed on.
    /// The serving layer maps query IPs to subnets of this length.
    pub step_prefix: u8,
    /// The resolved §5.4 discard threshold used at training time.
    pub min_prob: f64,
    pub interactions: Interactions,
    pub net_features: Vec<NetFeature>,
    /// Training-set size (model build input).
    pub hosts_in: usize,
    pub distinct_keys: usize,
    pub cooccur_entries: u64,
    pub num_rules: usize,
    pub num_priors: usize,
    /// FNV-1a over the canonical manifest (this field zeroed) followed by
    /// the RULE and PRIO section payloads.
    pub checksum: u64,
}

/// A trained, persistable GPS model: manifest + the artifacts a server
/// answers from.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    pub manifest: ModelManifest,
    /// The §5.4 rules, compiled: exactly what the RULE section holds.
    pub rules: CompiledRules,
    /// The ordered §5.3 scan list: exactly what the PRIO section holds.
    pub priors: Vec<PriorsEntry>,
}

/// Errors from snapshot persistence.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    Malformed(GpsError),
    /// The file's major version is not this build's major version.
    Version {
        found: (u32, u32),
        supported: (u32, u32),
    },
    Checksum {
        expected: u64,
        computed: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Version { found, supported } => write!(
                f,
                "unsupported snapshot format {}.{} (this build supports {}.x)",
                found.0, found.1, supported.0
            ),
            SnapshotError::Checksum { expected, computed } => write!(
                f,
                "snapshot checksum mismatch: manifest says {expected:016x}, body hashes to {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<GpsError> for SnapshotError {
    fn from(e: GpsError) -> Self {
        SnapshotError::Malformed(e)
    }
}

impl ModelSnapshot {
    /// Package the artifacts of a finished [`GpsRun`] for persistence,
    /// compiling its rules once.
    pub fn from_run(run: &GpsRun, config: &GpsConfig, universe_seed: u64) -> ModelSnapshot {
        let mut snapshot = ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed,
                dataset_name: run.dataset_name.clone(),
                step_prefix: config.step_prefix,
                min_prob: run.min_prob_used,
                interactions: config.interactions,
                net_features: config.net_features.clone(),
                hosts_in: run.model_stats.hosts_in,
                distinct_keys: run.model_stats.distinct_keys,
                cooccur_entries: run.model_stats.cooccur_entries,
                num_rules: run.rules.len(),
                num_priors: run.priors_list.len(),
                checksum: 0,
            },
            rules: CompiledRules::from_rules(&run.rules),
            priors: run.priors_list.clone(),
        };
        snapshot.manifest.checksum = checksum_of(
            &snapshot.manifest,
            &encode_rules(&snapshot.rules),
            &encode_priors(&snapshot.priors),
        );
        snapshot
    }

    /// Serialize the snapshot to GPSB bytes.
    pub fn to_binary_bytes(&self) -> Vec<u8> {
        let rules = encode_rules(&self.rules);
        let priors = encode_priors(&self.priors);
        // The checksum is always recomputed here: the fields are public,
        // so the snapshot may have been edited since construction and a
        // stored stale checksum would produce a file that can never be
        // loaded.
        let mut manifest = manifest_to_json(&ModelManifest {
            checksum: checksum_of(&self.manifest, &rules, &priors),
            ..self.manifest.clone()
        });
        let body = [(SEC_RULES, rules), (SEC_PRIORS, priors)];
        // The MANI frame declares the sections that follow it, and readers
        // require the container's tags to match exactly — otherwise
        // corrupting a section tag would demote that section to "unknown,
        // skip". `manifest_from_json` ignores the field, so the checksum
        // does not cover it; the MANI section's own FNV does.
        manifest.set(
            "sections",
            body.iter()
                .map(|(tag, _)| Json::Str(String::from_utf8_lossy(tag).into_owned()))
                .collect::<Vec<_>>(),
        );
        let mut manifest_text = String::new();
        manifest.write(&mut manifest_text);

        let mut out = ByteWriter::with_capacity(
            64 + manifest_text.len() + body.iter().map(|(_, p)| p.len() + 16).sum::<usize>(),
        );
        out.put_bytes(&GPSB_MAGIC);
        out.put_u8(GPSB_CONTAINER_VERSION);
        write_section(&mut out, SEC_MANIFEST, manifest_text.as_bytes())
            .expect("snapshot section under 4 GiB");
        for (tag, payload) in &body {
            write_section(&mut out, *tag, payload).expect("snapshot section under 4 GiB");
        }
        out.into_bytes()
    }

    /// Parse a snapshot from GPSB bytes, verifying the container version,
    /// the manifest format major, every section checksum, the section
    /// list, and the manifest checksum — in that order, before any body
    /// section is decoded.
    pub fn from_binary_bytes(bytes: &[u8]) -> Result<ModelSnapshot, SnapshotError> {
        let mut reader = open_container(bytes)?;
        let (manifest, manifest_doc) = read_manifest(&mut reader)?;
        let mut declared: Vec<[u8; 4]> = Vec::new();
        for name in manifest_doc
            .req("sections")?
            .as_arr()
            .ok_or_else(|| malformed("manifest sections must be an array"))?
        {
            declared.push(
                name.as_str()
                    .and_then(|s| s.as_bytes().try_into().ok())
                    .ok_or_else(|| malformed("bad manifest section tag"))?,
            );
        }

        let (mut rules, mut priors) = (None, None);
        let mut found: Vec<[u8; 4]> = Vec::new();
        while let Some(section) = read_section(&mut reader)? {
            // Every section is integrity-checked, unknown ones included:
            // "loads cleanly" must mean "every byte hashes".
            verify_section(&section)?;
            found.push(section.tag);
            let slot = match section.tag {
                SEC_RULES => &mut rules,
                SEC_PRIORS => &mut priors,
                SEC_MANIFEST => return Err(malformed("duplicate MANI section").into()),
                // Unknown tags are future minor-version sections.
                _ => continue,
            };
            if slot.replace(section.payload).is_some() {
                return Err(malformed("duplicate GPSB section").into());
            }
        }
        declared.sort_unstable();
        found.sort_unstable();
        if declared != found {
            return Err(malformed("container sections disagree with manifest").into());
        }
        let rules = rules.ok_or_else(|| malformed("missing RULE section"))?;
        let priors = priors.ok_or_else(|| malformed("missing PRIO section"))?;
        let computed = checksum_of(&manifest, rules, priors);
        if computed != manifest.checksum {
            return Err(SnapshotError::Checksum {
                expected: manifest.checksum,
                computed,
            });
        }

        Ok(ModelSnapshot {
            rules: decode_rules(rules)?,
            priors: decode_priors(priors)?,
            manifest,
        })
    }

    /// Write the snapshot to a file.
    pub fn save_binary(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        write_atomically(path.as_ref(), &self.to_binary_bytes())
    }

    /// Read, version-check, and checksum-verify a snapshot file.
    pub fn load(path: impl AsRef<Path>) -> Result<ModelSnapshot, SnapshotError> {
        Self::from_binary_bytes(&std::fs::read(path.as_ref())?)
    }

    /// Read only the manifest of a snapshot file — the registry helper
    /// behind `list-models`-style tooling that must describe many
    /// snapshots without materializing any of them. Only the leading MANI
    /// section is read from disk, checksum-verified and gated on the
    /// format major; full integrity is what [`load`](Self::load) is for.
    pub fn load_manifest(path: impl AsRef<Path>) -> Result<ModelManifest, SnapshotError> {
        use std::io::Read;
        let mut file = std::fs::File::open(path.as_ref())?;
        // magic(4) | container(1) | tag(4) | payload length (u32 LE):
        // enough to size a read of just the manifest frame.
        let mut bytes = Vec::new();
        file.by_ref().take(13).read_to_end(&mut bytes)?;
        let mut head = open_container(&bytes)?;
        head.take(4)?;
        // The length field is untrusted input, so it caps the read rather
        // than sizing a buffer: a corrupt header reads at most the file.
        let frame_rest = u64::from(head.u32()?) + 8;
        file.take(frame_rest).read_to_end(&mut bytes)?;
        Ok(read_manifest(&mut open_container(&bytes)?)?.0)
    }
}

fn malformed(reason: &'static str) -> GpsError {
    GpsError::parse("snapshot", "", reason)
}

/// Check the magic and container version; the reader is left at the
/// first section. This is the error any non-GPSB file (a JSON snapshot
/// from format 1, say) gets.
fn open_container(bytes: &[u8]) -> Result<ByteReader<'_>, SnapshotError> {
    let mut reader = ByteReader::new(bytes);
    if reader.take(4).ok() != Some(&GPSB_MAGIC[..]) {
        return Err(malformed("not a GPSB container (missing GPSB magic)").into());
    }
    if reader.u8()? != GPSB_CONTAINER_VERSION {
        return Err(malformed("unsupported GPSB container version").into());
    }
    Ok(reader)
}

/// Read the manifest section, which must come first: it gates the format
/// version before any body section is interpreted. Also returns the
/// parsed MANI document for the fields [`ModelManifest`] does not carry.
fn read_manifest(reader: &mut ByteReader<'_>) -> Result<(ModelManifest, Json), SnapshotError> {
    let section = read_section(reader)?.ok_or_else(|| malformed("empty GPSB container"))?;
    if section.tag != SEC_MANIFEST {
        return Err(malformed("first GPSB section must be the manifest").into());
    }
    verify_section(&section)?;
    let text =
        std::str::from_utf8(section.payload).map_err(|_| malformed("manifest is not utf-8"))?;
    let doc = Json::parse(text)?;
    let manifest = manifest_from_json(&doc)?;
    if manifest.format.0 != FORMAT_MAJOR {
        return Err(SnapshotError::Version {
            found: manifest.format,
            supported: (FORMAT_MAJOR, FORMAT_MINOR),
        });
    }
    Ok((manifest, doc))
}

/// Write-then-rename so a crash mid-write (or a concurrent reader) never
/// sees a truncated artifact and never loses the previous good one.
///
/// The temp file lives in the destination directory (rename must not cross
/// filesystems) under a name unique per (process, call) — a fixed
/// `path.with_extension("tmp")` would let two concurrent exporters to the
/// same destination clobber each other's temp data and rename a
/// half-written snapshot into place. The file is fsynced before the
/// rename, so the bytes a reader can observe under the final name are
/// durable.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::io::Write;
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    let tmp = path.with_file_name(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result.map_err(SnapshotError::Io)
}

/// Map a GPSB section checksum mismatch onto [`SnapshotError::Checksum`]
/// so corruption reports the same way at the section and manifest layers.
fn verify_section(section: &gps_types::binary::Section<'_>) -> Result<(), SnapshotError> {
    let computed = section.computed_checksum();
    if section.stored_checksum != computed {
        return Err(SnapshotError::Checksum {
            expected: section.stored_checksum,
            computed,
        });
    }
    Ok(())
}

/// Binary key encoding: class discriminant, anchor port, then the
/// class-dependent app/net parts.
fn key_to_binary(key: &CondKey, out: &mut ByteWriter) {
    out.put_u8(key.class());
    out.put_u16(key.port().0);
    if let Some(f) = key.app() {
        out.put_u8(f.kind.index() as u8);
        out.put_varint(f.value.0 as u64);
    }
    if let Some(net) = key.net() {
        match net {
            NetKey::Slash(len, base) => {
                out.put_u8(NETKEY_SLASH);
                out.put_u8(len);
                out.put_u32(base);
            }
            NetKey::Asn(n) => {
                out.put_u8(NETKEY_ASN);
                out.put_varint(n as u64);
            }
        }
    }
}

fn key_from_binary(reader: &mut ByteReader<'_>) -> Result<CondKey, GpsError> {
    let class = reader.u8()?;
    let port = Port(reader.u16()?);
    let app = |reader: &mut ByteReader<'_>| -> Result<FeatureValue, GpsError> {
        let kind_idx = reader.u8()? as usize;
        let kind = *FeatureKind::ALL
            .get(kind_idx)
            .ok_or_else(|| malformed("feature kind out of range"))?;
        let sym = reader.varint_u32()?;
        Ok(FeatureValue::new(kind, Sym(sym)))
    };
    let net = |reader: &mut ByteReader<'_>| -> Result<NetKey, GpsError> {
        match reader.u8()? {
            NETKEY_SLASH => {
                let len = reader.u8()?;
                if len > 32 {
                    return Err(malformed("bad net prefix"));
                }
                Ok(NetKey::Slash(len, reader.u32()?))
            }
            NETKEY_ASN => Ok(NetKey::Asn(reader.varint_u32()?)),
            _ => Err(malformed("bad net key tag")),
        }
    };
    match class {
        4 => Ok(CondKey::Port(port)),
        5 => Ok(CondKey::PortApp(port, app(reader)?)),
        6 => Ok(CondKey::PortNet(port, net(reader)?)),
        7 => Ok(CondKey::PortAppNet(port, app(reader)?, net(reader)?)),
        _ => Err(malformed("unknown key class")),
    }
}

/// RULE payload: the compiled key table (keys in `CondKey` order, each
/// with its arena offset and length), then the port and probability-bit
/// arenas as contiguous little-endian blocks. [`CompiledRules`] is
/// deterministic, so identical models produce identical bytes.
fn encode_rules(rules: &CompiledRules) -> Vec<u8> {
    let (keys, offsets, lens, ports, prob_bits) = rules.parts();
    let mut out = ByteWriter::with_capacity(16 + 16 * keys.len() + 10 * ports.len());
    out.put_varint(keys.len() as u64);
    for ((key, &offset), &len) in keys.iter().zip(offsets).zip(lens) {
        key_to_binary(key, &mut out);
        out.put_varint(offset as u64);
        out.put_varint(len as u64);
    }
    out.put_varint(ports.len() as u64);
    for &port in ports {
        out.put_u16(port);
    }
    for &bits in prob_bits {
        out.put_u64(bits);
    }
    out.into_bytes()
}

/// PRIO payload, in scan-list order.
fn encode_priors(priors: &[PriorsEntry]) -> Vec<u8> {
    let mut out = ByteWriter::with_capacity(12 * priors.len());
    out.put_varint(priors.len() as u64);
    for entry in priors {
        out.put_u16(entry.port.0);
        out.put_u32(entry.subnet.base().0);
        out.put_u8(entry.subnet.prefix_len());
        out.put_varint(entry.coverage);
    }
    out.into_bytes()
}

/// Decode a RULE payload. The section is checksummed, but its slice
/// tables are still treated as untrusted: `from_parts` re-validates every
/// invariant a query indexes on. The arenas are read as two bulk blocks,
/// not entry by entry.
fn decode_rules(payload: &[u8]) -> Result<CompiledRules, GpsError> {
    let mut reader = ByteReader::new(payload);
    // Key table: bare key (3 bytes) + offset + len varints.
    let num_keys = bounded_count(&mut reader, 5)?;
    let mut keys = Vec::with_capacity(num_keys);
    let mut offsets = Vec::with_capacity(num_keys);
    let mut lens = Vec::with_capacity(num_keys);
    for _ in 0..num_keys {
        keys.push(key_from_binary(&mut reader)?);
        offsets.push(reader.varint_u32()?);
        lens.push(reader.varint_u32()?);
    }
    let arena_len = bounded_count(&mut reader, 10)?;
    let ports = bulk_u16(&mut reader, arena_len)?;
    let prob_bits = bulk_u64(&mut reader, arena_len)?;
    expect_consumed(&reader)?;
    CompiledRules::from_parts(keys, offsets, lens, ports, prob_bits)
        .map_err(|_| malformed("invalid RULE layout"))
}

fn decode_priors(payload: &[u8]) -> Result<Vec<PriorsEntry>, GpsError> {
    let mut reader = ByteReader::new(payload);
    let count = bounded_count(&mut reader, 8)?;
    let mut priors = Vec::with_capacity(count);
    for _ in 0..count {
        let port = Port(reader.u16()?);
        let base = reader.u32()?;
        let prefix = reader.u8()?;
        if prefix > 32 {
            return Err(malformed("bad priors prefix"));
        }
        priors.push(PriorsEntry {
            port,
            subnet: Subnet::of_ip(gps_types::Ip(base), prefix),
            coverage: reader.varint()?,
        });
    }
    expect_consumed(&reader)?;
    Ok(priors)
}

fn bulk_u16(reader: &mut ByteReader<'_>, count: usize) -> Result<Vec<u16>, GpsError> {
    let bytes = reader.take(count * 2)?;
    Ok(bytes
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect())
}

fn bulk_u64(reader: &mut ByteReader<'_>, count: usize) -> Result<Vec<u64>, GpsError> {
    let bytes = reader.take(count * 8)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Read an element count and sanity-check it against the bytes actually
/// present (each element costs at least `min_bytes_per_item`), so a
/// corrupted count cannot drive a huge up-front allocation.
fn bounded_count(
    reader: &mut ByteReader<'_>,
    min_bytes_per_item: usize,
) -> Result<usize, GpsError> {
    let count = reader.varint()?;
    let fits = count <= (reader.remaining() / min_bytes_per_item.max(1)) as u64;
    if !fits {
        return Err(malformed("section count exceeds payload size"));
    }
    Ok(count as usize)
}

/// Trailing bytes after the declared entries mean the writer and reader
/// disagree about the schema — reject instead of silently ignoring.
fn expect_consumed(reader: &ByteReader<'_>) -> Result<(), GpsError> {
    if !reader.is_empty() {
        return Err(malformed("trailing bytes in section"));
    }
    Ok(())
}

/// FNV-1a over the canonical manifest serialization (checksum field
/// zeroed) followed by the RULE and PRIO payloads — so corruption of
/// manifest fields that drive serving behavior (step_prefix,
/// net_features, ...) is caught, not just body corruption.
fn checksum_of(manifest: &ModelManifest, rules: &[u8], priors: &[u8]) -> u64 {
    let mut text = String::new();
    manifest_to_json(&ModelManifest {
        checksum: 0,
        ..manifest.clone()
    })
    .write(&mut text);
    let mut input = text.into_bytes();
    input.extend_from_slice(rules);
    input.extend_from_slice(priors);
    fnv64(&input)
}

fn manifest_to_json(m: &ModelManifest) -> Json {
    let mut json = Json::obj();
    json.set(
        "format",
        vec![Json::Num(m.format.0 as f64), Json::Num(m.format.1 as f64)],
    )
    .set("universe_seed", u64_to_hex(m.universe_seed))
    .set("dataset", m.dataset_name.as_str())
    .set("step_prefix", m.step_prefix)
    .set("min_prob", m.min_prob)
    .set(
        "interactions",
        vec![
            Json::Bool(m.interactions.transport),
            Json::Bool(m.interactions.transport_app),
            Json::Bool(m.interactions.transport_net),
            Json::Bool(m.interactions.transport_app_net),
        ],
    )
    .set(
        "net_features",
        m.net_features
            .iter()
            .map(|nf| match nf {
                NetFeature::Slash(p) => {
                    Json::Arr(vec![Json::Str("s".into()), Json::Num(*p as f64)])
                }
                NetFeature::Asn => Json::Arr(vec![Json::Str("a".into())]),
            })
            .collect::<Vec<_>>(),
    )
    .set("hosts_in", m.hosts_in)
    .set("distinct_keys", m.distinct_keys)
    .set("cooccur_entries", Json::Num(m.cooccur_entries as f64))
    .set("num_rules", m.num_rules)
    .set("num_priors", m.num_priors)
    .set("checksum", u64_to_hex(m.checksum));
    json
}

fn manifest_from_json(json: &Json) -> Result<ModelManifest, GpsError> {
    let format_arr = json
        .req("format")?
        .as_arr()
        .ok_or_else(|| malformed("bad format"))?;
    if format_arr.len() != 2 {
        return Err(malformed("format must be [major, minor]"));
    }
    let format = (
        format_arr[0]
            .as_u64()
            .ok_or_else(|| malformed("bad format major"))? as u32,
        format_arr[1]
            .as_u64()
            .ok_or_else(|| malformed("bad format minor"))? as u32,
    );
    let inter = json
        .req("interactions")?
        .as_arr()
        .ok_or_else(|| malformed("bad interactions"))?;
    if inter.len() != 4 {
        return Err(malformed("interactions must have 4 flags"));
    }
    let flag = |i: usize| {
        inter[i]
            .as_bool()
            .ok_or_else(|| malformed("bad interaction flag"))
    };
    let mut net_features = Vec::new();
    for nf in json
        .req("net_features")?
        .as_arr()
        .ok_or_else(|| malformed("bad net_features"))?
    {
        let parts = nf.as_arr().ok_or_else(|| malformed("bad net feature"))?;
        match parts.first().and_then(Json::as_str) {
            Some("s") => net_features.push(NetFeature::Slash(
                parts
                    .get(1)
                    .and_then(Json::as_u64)
                    .and_then(|v| u8::try_from(v).ok())
                    .filter(|&p| p <= 32)
                    .ok_or_else(|| malformed("bad slash prefix"))?,
            )),
            Some("a") => net_features.push(NetFeature::Asn),
            _ => return Err(malformed("unknown net feature tag")),
        }
    }
    Ok(ModelManifest {
        format,
        universe_seed: u64_from_hex(
            json.req("universe_seed")?
                .as_str()
                .ok_or_else(|| malformed("bad universe_seed"))?,
        )?,
        dataset_name: json
            .req("dataset")?
            .as_str()
            .ok_or_else(|| malformed("bad dataset"))?
            .to_string(),
        step_prefix: json
            .req("step_prefix")?
            .as_u64()
            .and_then(|v| u8::try_from(v).ok())
            .filter(|&p| p <= 32)
            .ok_or_else(|| malformed("bad step_prefix"))?,
        min_prob: json
            .req("min_prob")?
            .as_f64()
            .ok_or_else(|| malformed("bad min_prob"))?,
        interactions: Interactions {
            transport: flag(0)?,
            transport_app: flag(1)?,
            transport_net: flag(2)?,
            transport_app_net: flag(3)?,
        },
        net_features,
        hosts_in: json
            .req("hosts_in")?
            .as_u64()
            .ok_or_else(|| malformed("bad hosts_in"))? as usize,
        distinct_keys: json
            .req("distinct_keys")?
            .as_u64()
            .ok_or_else(|| malformed("bad distinct_keys"))? as usize,
        cooccur_entries: json
            .req("cooccur_entries")?
            .as_u64()
            .ok_or_else(|| malformed("bad cooccur_entries"))?,
        num_rules: json
            .req("num_rules")?
            .as_u64()
            .ok_or_else(|| malformed("bad num_rules"))? as usize,
        num_priors: json
            .req("num_priors")?
            .as_u64()
            .ok_or_else(|| malformed("bad num_priors"))? as usize,
        checksum: u64_from_hex(
            json.req("checksum")?
                .as_str()
                .ok_or_else(|| malformed("bad checksum"))?,
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetFeature;
    use crate::host::group_by_host;
    use crate::model::CondModel;
    use gps_scan::ServiceObservation;
    use gps_types::testutil::TestDir;
    use gps_types::{Ip, Protocol};
    use std::sync::Arc;

    fn trained_snapshot() -> ModelSnapshot {
        let mut observations = Vec::new();
        for ip in 1..=6u32 {
            observations.push(ServiceObservation {
                ip: Ip(ip),
                port: Port(80),
                ttl: 60,
                protocol: Protocol::Http,
                content: Sym(0),
                features: vec![FeatureValue::new(FeatureKind::HttpServer, Sym(7))],
            });
            observations.push(ServiceObservation {
                ip: Ip(ip),
                port: Port(443),
                ttl: 60,
                protocol: Protocol::Tls,
                content: Sym(1),
                features: vec![],
            });
        }
        let hosts = group_by_host(
            &observations,
            &[NetFeature::Slash(16), NetFeature::Asn],
            &|_| Some(9),
        );
        let (model, stats) = CondModel::build(&hosts, Interactions::ALL);
        let rules = crate::predict::FeatureRules::build(&model, &hosts, 1e-5);
        let priors = crate::priors::build_priors_list(&model, &hosts, 16);
        let mut snapshot = ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 0xC0FFEE,
                dataset_name: "unit".to_string(),
                step_prefix: 16,
                min_prob: 1e-5,
                interactions: Interactions::ALL,
                net_features: vec![NetFeature::Slash(16), NetFeature::Asn],
                hosts_in: stats.hosts_in,
                distinct_keys: stats.distinct_keys,
                cooccur_entries: stats.cooccur_entries,
                num_rules: rules.len(),
                num_priors: priors.len(),
                checksum: 0,
            },
            rules: CompiledRules::from_rules(&rules),
            priors,
        };
        snapshot.manifest.checksum = checksum_of(
            &snapshot.manifest,
            &encode_rules(&snapshot.rules),
            &encode_priors(&snapshot.priors),
        );
        snapshot
    }

    /// Rebuild a container section by section: `edit` returns the payload
    /// to write for each tag (`None` drops the section), and every kept
    /// section's own FNV is re-sealed — so only the checks above the
    /// section layer can object to the result.
    fn rebuilt(bytes: &[u8], mut edit: impl FnMut([u8; 4], &[u8]) -> Option<Vec<u8>>) -> Vec<u8> {
        let mut reader = open_container(bytes).unwrap();
        let mut out = ByteWriter::new();
        out.put_bytes(&GPSB_MAGIC);
        out.put_u8(GPSB_CONTAINER_VERSION);
        while let Some(section) = read_section(&mut reader).unwrap() {
            if let Some(payload) = edit(section.tag, section.payload) {
                write_section(&mut out, section.tag, &payload).unwrap();
            }
        }
        out.into_bytes()
    }

    /// `rebuilt` with a text substitution inside the MANI payload.
    fn with_manifest_edit(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
        rebuilt(bytes, |tag, payload| {
            if tag != SEC_MANIFEST {
                return Some(payload.to_vec());
            }
            let text = std::str::from_utf8(payload).unwrap();
            assert!(text.contains(from), "{from} not in {text}");
            Some(text.replace(from, to).into_bytes())
        })
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snapshot = trained_snapshot();
        let bytes = snapshot.to_binary_bytes();
        let loaded = ModelSnapshot::from_binary_bytes(&bytes).unwrap();
        assert_eq!(loaded.manifest, snapshot.manifest);
        assert_eq!(loaded.priors, snapshot.priors);
        assert_eq!(loaded.rules, snapshot.rules);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = trained_snapshot();
        let b = trained_snapshot();
        assert_eq!(a.to_binary_bytes(), b.to_binary_bytes());
        // And stable across a round trip: save -> load -> save is
        // byte-identical.
        let loaded = ModelSnapshot::from_binary_bytes(&a.to_binary_bytes()).unwrap();
        assert_eq!(loaded.to_binary_bytes(), a.to_binary_bytes());
    }

    #[test]
    fn save_load_file() {
        let dir = TestDir::new("save-load");
        let snapshot = trained_snapshot();
        let path = dir.path("snapshot.gpsb");
        snapshot.save_binary(&path).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"GPSB"));
        let loaded = ModelSnapshot::load(&path).unwrap();
        assert_eq!(loaded.manifest, snapshot.manifest);
    }

    #[test]
    fn concurrent_saves_to_one_destination_never_corrupt() {
        // Racing exporters to the same path: with a shared fixed temp
        // name, one writer's rename could publish another's half-written
        // file. Unique temp names make every published state a complete
        // snapshot, and no temp litter may survive.
        let dir = TestDir::new("concurrent-save");
        let dir_path = dir.dir().to_path_buf();
        let path = Arc::new(dir.path("model.gpsb"));
        let snapshot = Arc::new(trained_snapshot());
        let mut writers = Vec::new();
        for _ in 0..4 {
            let path = path.clone();
            let snapshot = snapshot.clone();
            writers.push(std::thread::spawn(move || {
                for _ in 0..12 {
                    snapshot.save_binary(&*path).expect("save");
                    // Every observable state of the file is loadable.
                    ModelSnapshot::load(&*path).expect("snapshot stays complete");
                }
            }));
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        ModelSnapshot::load(&*path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir_path)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
    }

    #[test]
    fn load_manifest_reads_header_only() {
        let dir = TestDir::new("manifest-peek");
        let snapshot = trained_snapshot();
        let path = dir.path("model.gpsb");
        snapshot.save_binary(&path).unwrap();
        assert_eq!(
            ModelSnapshot::load_manifest(&path).unwrap(),
            snapshot.manifest
        );
        // Nothing past the MANI frame is read: the peek still answers
        // when every body section has been cut off.
        let bytes = std::fs::read(&path).unwrap();
        let mani_only = rebuilt(&bytes, |tag, payload| {
            (tag == SEC_MANIFEST).then(|| payload.to_vec())
        });
        std::fs::write(&path, &mani_only).unwrap();
        assert_eq!(
            ModelSnapshot::load_manifest(&path).unwrap(),
            snapshot.manifest
        );
        assert!(ModelSnapshot::load(&path).is_err());
        // A corrupted manifest byte fails the section checksum.
        let mut corrupt = bytes.clone();
        corrupt[20] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            ModelSnapshot::load_manifest(&path),
            Err(SnapshotError::Checksum { .. } | SnapshotError::Malformed(_))
        ));
        // A corrupted length field reads at most the file, then fails.
        let mut huge = bytes.clone();
        huge[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(matches!(
            ModelSnapshot::load_manifest(&path),
            Err(SnapshotError::Malformed(_))
        ));
        for len in [0, 3, 12] {
            std::fs::write(&path, &bytes[..len]).unwrap();
            assert!(matches!(
                ModelSnapshot::load_manifest(&path),
                Err(SnapshotError::Malformed(_))
            ));
        }
        // Foreign major is rejected from the peek too.
        let mut bumped = snapshot.clone();
        bumped.manifest.format = (FORMAT_MAJOR + 1, 0);
        bumped.save_binary(&path).unwrap();
        assert!(matches!(
            ModelSnapshot::load_manifest(&path),
            Err(SnapshotError::Version { .. })
        ));
    }

    #[test]
    fn checksum_detects_corruption() {
        // Flip one byte inside the RULE payload and re-seal that
        // section's own FNV, so `verify_section` passes: the manifest
        // checksum is what must catch it.
        let clean = trained_snapshot().to_binary_bytes();
        for target in [SEC_RULES, SEC_PRIORS] {
            let corrupt = rebuilt(&clean, |tag, payload| {
                let mut payload = payload.to_vec();
                if tag == target {
                    *payload.last_mut().unwrap() ^= 0x01;
                }
                Some(payload)
            });
            assert_ne!(corrupt, clean);
            match ModelSnapshot::from_binary_bytes(&corrupt) {
                Err(SnapshotError::Checksum { expected, computed }) => {
                    assert_ne!(expected, computed)
                }
                other => panic!("expected checksum failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_body_section_is_covered_by_the_manifest_checksum() {
        // No section a server answers from may sit outside the identity
        // checksum: for every body section the writer emits, a flipped
        // byte anywhere in it — first, middle, last — with that section's
        // own FNV re-sealed must still fail as a checksum mismatch.
        let clean = trained_snapshot().to_binary_bytes();
        let mut body = Vec::new();
        rebuilt(&clean, |tag, payload| {
            if tag != SEC_MANIFEST {
                body.push((tag, payload.len()));
            }
            Some(payload.to_vec())
        });
        let tags: Vec<[u8; 4]> = body.iter().map(|&(tag, _)| tag).collect();
        for (target, len) in body {
            for at in [0, len / 2, len - 1] {
                let corrupt = rebuilt(&clean, |tag, payload| {
                    let mut payload = payload.to_vec();
                    if tag == target {
                        payload[at] ^= 0x01;
                    }
                    Some(payload)
                });
                match ModelSnapshot::from_binary_bytes(&corrupt) {
                    Err(SnapshotError::Checksum { .. }) => {}
                    other => panic!(
                        "flip at {at} in {} should be a checksum failure, got {:?}",
                        String::from_utf8_lossy(&target),
                        other.map(|s| s.manifest)
                    ),
                }
            }
        }
        assert_eq!(tags, [SEC_RULES, SEC_PRIORS]);
    }

    #[test]
    fn checksum_covers_manifest_fields() {
        // Corrupting a manifest field that drives serving behavior (the
        // step prefix) must fail verification, not load silently — even
        // with the MANI section re-sealed.
        let clean = trained_snapshot().to_binary_bytes();
        let corrupt = with_manifest_edit(&clean, "\"step_prefix\":16", "\"step_prefix\":20");
        match ModelSnapshot::from_binary_bytes(&corrupt) {
            Err(SnapshotError::Checksum { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn malformed_sections_are_rejected_not_emptied() {
        // A section that does not decode must be a Malformed error, not
        // an empty model. The section is re-sealed and the manifest
        // checksum recomputed over the tampered payload, so only the
        // decoder can reject it.
        let snapshot = trained_snapshot();
        let clean = snapshot.to_binary_bytes();
        let rules = encode_rules(&snapshot.rules);
        let priors = encode_priors(&snapshot.priors);
        type Tamper = fn(&[u8]) -> Vec<u8>;
        let tamperings: [(&str, Tamper); 3] = [
            ("trailing byte", |p| [p, &[0]].concat()),
            ("cut short", |p| p[..p.len() - 1].to_vec()),
            ("count beyond payload", |p| {
                [&[0xFF, 0xFF, 0x03], &p[1..]].concat()
            }),
        ];
        for target in [SEC_RULES, SEC_PRIORS] {
            for (what, tamper) in tamperings {
                let (bad_rules, bad_priors) = if target == SEC_RULES {
                    (tamper(&rules), priors.clone())
                } else {
                    (rules.clone(), tamper(&priors))
                };
                let resealed = rebuilt(&clean, |tag, payload| {
                    Some(match tag {
                        SEC_RULES => bad_rules.clone(),
                        SEC_PRIORS => bad_priors.clone(),
                        _ => payload.to_vec(),
                    })
                });
                let text = with_manifest_edit(
                    &resealed,
                    &u64_to_hex(snapshot.manifest.checksum),
                    &u64_to_hex(checksum_of(&snapshot.manifest, &bad_rules, &bad_priors)),
                );
                match ModelSnapshot::from_binary_bytes(&text) {
                    Err(SnapshotError::Malformed(_)) => {}
                    other => panic!(
                        "{what} in {} should be Malformed, got {other:?}",
                        String::from_utf8_lossy(&target)
                    ),
                }
            }
        }
    }

    #[test]
    fn sections_must_match_the_manifest_list_and_include_rule_and_prio() {
        let clean = trained_snapshot().to_binary_bytes();
        for (target, declared) in [(SEC_RULES, "\"RULE\","), (SEC_PRIORS, ",\"PRIO\"")] {
            let name = String::from_utf8_lossy(&target).into_owned();
            let without = |bytes: &[u8]| {
                rebuilt(bytes, |tag, payload| {
                    (tag != target).then(|| payload.to_vec())
                })
            };
            // Cut out of the container but still declared.
            assert!(matches!(
                ModelSnapshot::from_binary_bytes(&without(&clean)),
                Err(SnapshotError::Malformed(_))
            ));
            // A consistent container that never had it: both body
            // sections are required.
            let undeclared = with_manifest_edit(&clean, declared, "");
            match ModelSnapshot::from_binary_bytes(&without(&undeclared)) {
                Err(SnapshotError::Malformed(e)) => {
                    assert!(e.to_string().contains(&format!("missing {name}")), "{e}")
                }
                other => panic!("{name}-less container should be Malformed, got {other:?}"),
            }
            // Present but undeclared.
            assert!(matches!(
                ModelSnapshot::from_binary_bytes(&undeclared),
                Err(SnapshotError::Malformed(_))
            ));
        }
        // No list at all.
        let unlisted = with_manifest_edit(&clean, "\"sections\":", "\"parts\":");
        assert!(matches!(
            ModelSnapshot::from_binary_bytes(&unlisted),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_foreign_major_version() {
        let clean = trained_snapshot().to_binary_bytes();
        let text = with_manifest_edit(
            &clean,
            &format!("\"format\":[{FORMAT_MAJOR},"),
            &format!("\"format\":[{},", FORMAT_MAJOR + 1),
        );
        match ModelSnapshot::from_binary_bytes(&text) {
            Err(SnapshotError::Version { found, .. }) => assert_eq!(found.0, FORMAT_MAJOR + 1),
            other => panic!("expected version failure, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_format_1_container() {
        // What the earlier majors wrote, hand-assembled since no writer
        // for either exists any more: format [1,0] with the co-occurrence
        // model in a MODL section, and format [2,0] with the rules twice —
        // RULE plus the derived, unchecksummed CMPL. Both must be refused
        // by version, before any section is interpreted.
        let snapshot = trained_snapshot();
        let (rules, priors) = (
            encode_rules(&snapshot.rules),
            encode_priors(&snapshot.priors),
        );
        let dir = TestDir::new("old-majors");
        for (found, tags) in [
            ((1, 0), [*b"MODL", SEC_RULES, SEC_PRIORS]),
            ((2, 0), [SEC_RULES, SEC_PRIORS, *b"CMPL"]),
        ] {
            let mut manifest = manifest_to_json(&ModelManifest {
                format: found,
                ..snapshot.manifest.clone()
            });
            manifest.set(
                "sections",
                tags.map(|t| Json::Str(String::from_utf8_lossy(&t).into_owned()))
                    .to_vec(),
            );
            let mut manifest_text = String::new();
            manifest.write(&mut manifest_text);
            let mut out = ByteWriter::new();
            out.put_bytes(&GPSB_MAGIC);
            out.put_u8(GPSB_CONTAINER_VERSION);
            write_section(&mut out, SEC_MANIFEST, manifest_text.as_bytes()).unwrap();
            for tag in tags {
                let payload = match tag {
                    SEC_RULES => &rules[..],
                    SEC_PRIORS => &priors[..],
                    _ => &[0][..],
                };
                write_section(&mut out, tag, payload).unwrap();
            }
            let bytes = out.into_bytes();
            let version = format!("unsupported snapshot format {}.{}", found.0, found.1);
            match ModelSnapshot::from_binary_bytes(&bytes) {
                Err(e @ SnapshotError::Version { found: f, .. }) if f == found => {
                    assert!(e.to_string().contains(&version), "{e}")
                }
                other => panic!(
                    "expected version failure, got {:?}",
                    other.map(|s| s.manifest)
                ),
            }
            let path = dir.path("old.gpsb");
            std::fs::write(&path, &bytes).unwrap();
            match ModelSnapshot::load_manifest(&path) {
                Err(SnapshotError::Version { found: f, .. }) if f == found => {}
                other => panic!("expected version failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_files_are_refused_by_name() {
        // Format 1's JSON encoding has no reader: no sniffing, no
        // fallback, and the error says what was expected instead.
        let dir = TestDir::new("json-refused");
        let path = dir.path("model.json");
        std::fs::write(
            &path,
            "{\"manifest\":{\"format\":[1,0]},\"body\":{\"rules\":[],\"priors\":[]}}",
        )
        .unwrap();
        for result in [
            ModelSnapshot::load(&path).map(|s| s.manifest),
            ModelSnapshot::load_manifest(&path),
        ] {
            match result {
                Err(e @ SnapshotError::Malformed(_)) => {
                    assert!(e.to_string().contains("not a GPSB container"), "{e}")
                }
                other => panic!("a JSON file should be Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn accepts_newer_minor_version() {
        // A newer-minor writer computes its checksum over its own
        // manifest, so simulate by re-serializing with the bumped minor
        // (a raw text edit would — correctly — fail the checksum).
        let mut snapshot = trained_snapshot();
        snapshot.manifest.format = (FORMAT_MAJOR, 99);
        let bytes = snapshot.to_binary_bytes();
        let loaded = ModelSnapshot::from_binary_bytes(&bytes).unwrap();
        assert_eq!(loaded.manifest.format, (FORMAT_MAJOR, 99));
        // What a minor bump may add rides through: a manifest field this
        // build does not know, and a section it does not know (declared,
        // and verified before it is skipped).
        let extended = {
            let mut out = ByteWriter::from_vec(with_manifest_edit(
                &bytes,
                "\"PRIO\"]",
                "\"PRIO\",\"XTRA\"],\"trained_at\":1790000000",
            ));
            write_section(&mut out, *b"XTRA", b"future").unwrap();
            out.into_bytes()
        };
        let loaded = ModelSnapshot::from_binary_bytes(&extended).unwrap();
        assert_eq!(loaded.manifest.format, (FORMAT_MAJOR, 99));
        let mut torn = extended.clone();
        let last = torn.len() - 9;
        torn[last] ^= 0x01;
        assert!(matches!(
            ModelSnapshot::from_binary_bytes(&torn),
            Err(SnapshotError::Checksum { .. })
        ));
    }

    #[test]
    fn binary_corruption_is_rejected_per_section() {
        let snapshot = trained_snapshot();
        let clean = snapshot.to_binary_bytes();
        // Flip one byte in every section payload region; each must fail
        // with a checksum error.
        let step = (clean.len() / 59).max(1);
        let mut hits = 0;
        for i in (5..clean.len()).step_by(step) {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x10;
            let loaded = ModelSnapshot::from_binary_bytes(&corrupt);
            assert!(loaded.is_err(), "flip at byte {i} must not load");
            if matches!(loaded, Err(SnapshotError::Checksum { .. })) {
                hits += 1;
            }
        }
        assert!(hits > 0, "at least some flips must land in payloads");
    }

    #[test]
    fn binary_truncation_is_rejected_at_every_prefix() {
        let snapshot = trained_snapshot();
        let clean = snapshot.to_binary_bytes();
        let step = (clean.len() / 97).max(1);
        for len in (0..clean.len()).step_by(step) {
            assert!(
                ModelSnapshot::from_binary_bytes(&clean[..len]).is_err(),
                "prefix of {len} bytes must not load"
            );
        }
    }

    #[test]
    fn binary_rejects_foreign_versions() {
        let snapshot = trained_snapshot();
        let clean = snapshot.to_binary_bytes();
        // Foreign container version.
        let mut wrong_container = clean.clone();
        wrong_container[4] = 99;
        assert!(matches!(
            ModelSnapshot::from_binary_bytes(&wrong_container),
            Err(SnapshotError::Malformed(_))
        ));
        // Foreign manifest major: rewrite the manifest through the writer
        // (a raw byte edit would — correctly — fail the section checksum).
        let mut bumped = snapshot.clone();
        bumped.manifest.format = (FORMAT_MAJOR + 1, 0);
        match ModelSnapshot::from_binary_bytes(&bumped.to_binary_bytes()) {
            Err(SnapshotError::Version { found, .. }) => assert_eq!(found.0, FORMAT_MAJOR + 1),
            other => panic!("expected version failure, got {other:?}"),
        }
        // Newer minor is accepted.
        let mut newer_minor = snapshot.clone();
        newer_minor.manifest.format = (FORMAT_MAJOR, 99);
        let loaded = ModelSnapshot::from_binary_bytes(&newer_minor.to_binary_bytes()).unwrap();
        assert_eq!(loaded.manifest.format, (FORMAT_MAJOR, 99));
        // Not-a-snapshot inputs.
        assert!(ModelSnapshot::from_binary_bytes(b"").is_err());
        assert!(ModelSnapshot::from_binary_bytes(b"JSON{}").is_err());
    }

    #[test]
    fn from_run_packages_pipeline_output() {
        use crate::dataset::censys_dataset;
        use gps_synthnet::{Internet, UniverseConfig};
        let net = Internet::generate(&UniverseConfig::tiny(77));
        let ds = censys_dataset(&net, 200, 0.05, 0, 1);
        let config = GpsConfig {
            seed_fraction: 0.05,
            step_prefix: 20,
            ..GpsConfig::default()
        };
        let run = crate::pipeline::run_gps(&net, &ds, &config);
        let snapshot = ModelSnapshot::from_run(&run, &config, 77);
        assert_eq!(snapshot.manifest.num_priors, run.priors_list.len());
        assert_eq!(
            snapshot.manifest.distinct_keys,
            run.model_stats.distinct_keys
        );
        assert!(snapshot.manifest.checksum != 0);
        let bytes = snapshot.to_binary_bytes();
        let loaded = ModelSnapshot::from_binary_bytes(&bytes).unwrap();
        assert_eq!(loaded.priors, snapshot.priors);
        // The checksum `from_run` reports is the one the file carries,
        // and two exports of one run are byte-identical.
        assert_eq!(loaded.manifest.checksum, snapshot.manifest.checksum);
        assert_eq!(
            ModelSnapshot::from_run(&run, &config, 77).to_binary_bytes(),
            bytes
        );
    }

    #[test]
    fn rule_section_round_trips_the_compiled_rules() {
        use crate::dataset::censys_dataset;
        use gps_synthnet::{Internet, UniverseConfig};
        let net = Internet::generate(&UniverseConfig::tiny(77));
        let config = GpsConfig::default();
        let run = crate::pipeline::run_gps(&net, &censys_dataset(&net, 200, 0.05, 0, 1), &config);
        let feature_rules = &run.rules;
        let snapshot = ModelSnapshot::from_run(&run, &config, 77);
        let loaded = ModelSnapshot::from_binary_bytes(&snapshot.to_binary_bytes()).unwrap();
        // Decoding rebuilds both lookup tables, the Eq. 4 direct index and
        // the probe table that answers Eq. 5/6/7: all four key classes
        // answer exactly as the rule map the snapshot was compiled from.
        let classes: std::collections::BTreeSet<u8> =
            feature_rules.iter().map(|(key, _)| key.class()).collect();
        assert_eq!(classes.into_iter().collect::<Vec<_>>(), [4, 5, 6, 7]);
        assert_eq!(loaded.rules.len(), feature_rules.len());
        assert_eq!(loaded.rules.num_keys(), feature_rules.num_keys());
        for (key, targets) in feature_rules.iter() {
            let got: Vec<(Port, f64)> = loaded.rules.get(key).expect("key decoded").collect();
            assert_eq!(&got, targets, "targets for {key:?}");
        }
        assert_eq!(loaded.rules, CompiledRules::from_rules(feature_rules));
    }

    #[test]
    fn rule_tag_flip_is_rejected_via_section_manifest() {
        // A flipped section tag turns RULE or PRIO into an unknown (but
        // checksum-valid) section; the manifest's declared section list
        // is what catches it.
        let clean = trained_snapshot().to_binary_bytes();
        for tag in [SEC_RULES, SEC_PRIORS] {
            // The last occurrence: the first is the name in MANI's list.
            let pos = clean
                .windows(4)
                .rposition(|w| w == tag)
                .expect("tag present");
            for i in 0..4 {
                let mut corrupt = clean.clone();
                corrupt[pos + i] ^= 0x01;
                assert!(
                    ModelSnapshot::from_binary_bytes(&corrupt).is_err(),
                    "{} tag byte {i} flip must not load",
                    String::from_utf8_lossy(&tag)
                );
            }
        }
    }
}
