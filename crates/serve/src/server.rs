//! The long-lived prediction server: a model registry, an epoch swap per
//! model, and counters.
//!
//! [`PredictionServer::start_named`] registers [`ServableModel`]s — one
//! per scan universe/day, keyed by a caller-chosen model id.
//! [`predict_for`](PredictionServer::predict_for) /
//! [`predict_batch_for`](PredictionServer::predict_batch_for) run the
//! compiled kernel ([`ServableModel::predict_with`]) **on the calling
//! thread** — a connection thread, an event loop, or an in-process caller
//! — with that thread's own [`PredictScratch`]. A prediction is a table
//! lookup costing a few hundred nanoseconds, less than any way of moving
//! the query to another thread or remembering its answer, so the server
//! does neither: it spawns no thread and caches nothing. The first
//! registered model is the *default*: the id-less API
//! ([`predict`](PredictionServer::predict),
//! [`reload`](PredictionServer::reload), ...) and id-less wire frames
//! route to it. Counters accumulate globally in [`ServerStats`] and per
//! model in [`ModelStatsSnapshot`]; [`StatsSnapshot`] is the consistent
//! read.
//!
//! ## Hot reload
//!
//! Each registry entry publishes its model through an epoch slot
//! (`ModelSlot`): an `Arc<ServableModel>` plus a generation counter.
//! [`PredictionServer::reload`] publishes a new model under an existing
//! id and bumps that id's generation. Every request clones the slot's
//! `Arc` once, so the request after a reload answers from the new model,
//! requests already running finish on the epoch they grabbed — nothing is
//! dropped, nothing blocks — and an old epoch is freed when its last
//! in-flight `Arc` clone goes away. In a deployment the one trigger is
//! the `reload` wire command (`proto.rs`, `gps reload [id]`), which calls
//! [`PredictionServer::reload_from_disk`]: without a path it re-reads the
//! model's recorded snapshot file, so replacing a served model is export,
//! rename into place (snapshot saves are write-then-rename, so a reader
//! never sees a half-written file), reload.
//!
//! ## Registry membership
//!
//! [`load_model`](PredictionServer::load_model) /
//! [`unload_model`](PredictionServer::unload_model) add and remove ids at
//! runtime (the default model cannot be unloaded). An unloaded model's
//! memory is released when the last request holding its epoch finishes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime};

use crate::artifact::{Query, Ranked, ServableModel};
use crate::hist::HistogramSet;
use crate::net::Connections;
use crate::PredictScratch;
use gps_core::ModelSnapshot;
use gps_types::json::Json;
use gps_types::{HistogramSnapshot, JsonCodec};

thread_local! {
    /// The calling thread's warm-fold working memory: sized on the first
    /// warm query a thread answers, reused for every one after.
    static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
}

/// The model id the id-less API and id-less wire frames route to when the
/// server was started through the single-model constructors.
pub const DEFAULT_MODEL_ID: &str = "default";

/// Longest accepted model id (ids travel on the wire and key hash maps).
pub const MAX_MODEL_ID_LEN: usize = 64;

/// A usable registry key: nonempty, at most [`MAX_MODEL_ID_LEN`] bytes of
/// `[A-Za-z0-9._-]`. The charset keeps ids unambiguous in `name=path` CLI
/// arguments and shell-quotable in wire examples.
pub fn validate_model_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("model id must not be empty".to_string());
    }
    if id.len() > MAX_MODEL_ID_LEN {
        return Err(format!("model id exceeds {MAX_MODEL_ID_LEN} bytes"));
    }
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(format!(
            "model id {id:?} has characters outside [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub(crate) fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The epoch-published model: every request clones the current `Arc`,
/// so a reload is one pointer swap.
struct ModelSlot {
    current: RwLock<Arc<ServableModel>>,
    generation: AtomicU64,
}

impl ModelSlot {
    fn new(model: ServableModel) -> ModelSlot {
        ModelSlot {
            current: RwLock::new(Arc::new(model)),
            generation: AtomicU64::new(0),
        }
    }

    fn current(&self) -> Arc<ServableModel> {
        self.current.read().expect("model slot lock").clone()
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The published `(generation, model)` pair, read under one lock:
    /// [`publish`](Self::publish) stores and bumps under the write lock,
    /// so a concurrent reload cannot pair one model with another's
    /// generation.
    fn published(&self) -> (u64, Arc<ServableModel>) {
        let current = self.current.read().expect("model slot lock");
        (self.generation(), current.clone())
    }

    /// Publish a new model and return the new generation. The generation
    /// bump happens while the write lock is still held, so concurrent
    /// publishers cannot interleave store and bump — the Nth store is
    /// the Nth generation — and a reader that observes a generation
    /// always reads that model or a newer one.
    fn publish(&self, model: Arc<ServableModel>) -> u64 {
        let mut current = self.current.write().expect("model slot lock");
        *current = model;
        self.generation.fetch_add(1, Ordering::Release) + 1
    }
}

/// Per-model monotonic counters, bumped alongside the global
/// [`ServerStats`].
#[derive(Default)]
pub(crate) struct ModelCounters {
    pub requests: AtomicU64,
    pub reloads: AtomicU64,
    /// Unix seconds of the last completed reload (0 = never reloaded).
    pub last_reload_unix: AtomicU64,
    /// Per-(wire, endpoint) latency histograms, recorded by the
    /// event loops at reply time.
    pub hists: HistogramSet,
}

/// One registered model: id, epoch slot, snapshot source path, and
/// counters.
pub(crate) struct ModelEntry {
    pub(crate) id: String,
    slot: ModelSlot,
    path: Mutex<Option<PathBuf>>,
    /// Serializes reloads of this model, so each reply's (generation,
    /// model) pair is the pair that reload actually published, and `path`
    /// always names the serving snapshot.
    reload_lock: Mutex<()>,
    pub(crate) counters: ModelCounters,
}

impl ModelEntry {
    fn new(id: &str, model: ServableModel, path: Option<PathBuf>) -> Arc<ModelEntry> {
        Arc::new(ModelEntry {
            id: id.to_string(),
            slot: ModelSlot::new(model),
            path: Mutex::new(path),
            reload_lock: Mutex::new(()),
            counters: ModelCounters::default(),
        })
    }

    pub(crate) fn generation(&self) -> u64 {
        self.slot.generation()
    }

    pub(crate) fn current(&self) -> Arc<ServableModel> {
        self.slot.current()
    }

    /// The serving model with its own generation, for replies that report
    /// both (`manifest`, per-model stats).
    pub(crate) fn published(&self) -> (u64, Arc<ServableModel>) {
        self.slot.published()
    }

    fn path(&self) -> Option<PathBuf> {
        self.path.lock().expect("model path lock").clone()
    }

    fn set_path(&self, path: impl Into<PathBuf>) {
        *self.path.lock().expect("model path lock") = Some(path.into());
    }
}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Predictions returned when a query doesn't say (`Query::top == 0`).
    pub default_top: usize,
    /// Ignored; its only readers are the frozen
    /// `benchmark/src/{serving,ladder}.rs`, which construct it.
    #[doc(hidden)]
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            default_top: 16,
            shards: 0,
        }
    }
}

/// Monotonic serving counters. Global across models; the per-model
/// breakdown lives in [`ModelStatsSnapshot`].
#[derive(Debug, Default)]
pub struct ServerStats {
    pub requests: AtomicU64,
    /// Server-level per-(wire, endpoint) latency histograms, recorded by
    /// the event loops at reply time.
    pub hists: HistogramSet,
    /// Completed hot reloads since start, across every model.
    pub reloads: AtomicU64,
    /// Connection accounting and the drain flag: the accept gate, the
    /// event loops and the `shutdown` command share it.
    pub(crate) conns: Connections,
}

impl ServerStats {
    /// Zero the traffic counters and histograms. Connection counters are
    /// deliberately spared: the accept gate derives the active-connection
    /// count from `accepted - closed`, so zeroing those mid-serve would
    /// break `--max-conns`. `reloads` survives too — it describes
    /// configuration history, not traffic.
    fn reset_traffic(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.hists.reset();
    }
}

/// A point-in-time copy of one model's counters and identity.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStatsSnapshot {
    pub id: String,
    /// Whether the id-less API routes to this model.
    pub is_default: bool,
    /// 0 = the model this entry was registered with, +1 per reload.
    pub generation: u64,
    pub requests: u64,
    pub reloads: u64,
    /// Unix seconds of the last completed reload; `None` when this model
    /// has never been reloaded.
    pub last_reload_unix: Option<u64>,
    /// Where the served snapshot came from, when known.
    pub path: Option<String>,
    pub dataset: String,
    /// Manifest checksum of the serving snapshot.
    pub checksum: u64,
    pub num_rules: u64,
    pub num_priors: u64,
    /// Non-empty (wire, endpoint) latency histogram cells.
    pub hists: Vec<(&'static str, &'static str, HistogramSnapshot)>,
}

impl ModelStatsSnapshot {
    fn of(entry: &ModelEntry, is_default: bool) -> ModelStatsSnapshot {
        let (generation, model) = entry.published();
        let manifest = model.manifest();
        let last_reload = entry.counters.last_reload_unix.load(Ordering::Relaxed);
        ModelStatsSnapshot {
            id: entry.id.clone(),
            is_default,
            generation,
            requests: entry.counters.requests.load(Ordering::Relaxed),
            reloads: entry.counters.reloads.load(Ordering::Relaxed),
            last_reload_unix: (last_reload != 0).then_some(last_reload),
            hists: nonempty_hists(&entry.counters.hists),
            path: entry.path().map(|p| p.display().to_string()),
            dataset: manifest.dataset_name.clone(),
            checksum: manifest.checksum,
            num_rules: manifest.num_rules as u64,
            num_priors: manifest.num_priors as u64,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut json = Json::obj();
        json.set("default", self.is_default)
            .set("generation", Json::Num(self.generation as f64))
            .set("requests", Json::Num(self.requests as f64))
            .set("reloads", Json::Num(self.reloads as f64))
            .set("dataset", self.dataset.as_str())
            .set("checksum", gps_types::json::u64_to_hex(self.checksum))
            .set("num_rules", Json::Num(self.num_rules as f64))
            .set("num_priors", Json::Num(self.num_priors as f64));
        if let Some(last_reload) = self.last_reload_unix {
            json.set("last_reload_unix", Json::Num(last_reload as f64));
        }
        if let Some(path) = &self.path {
            json.set("path", path.as_str());
        }
        if !self.hists.is_empty() {
            json.set("hists", hists_to_json(&self.hists));
        }
        json
    }
}

/// Snapshot only the histogram cells that have recorded samples (a cell
/// for a wire the deployment never speaks stays out of `stats` replies).
fn nonempty_hists(set: &HistogramSet) -> Vec<(&'static str, &'static str, HistogramSnapshot)> {
    set.snapshot()
        .into_iter()
        .filter(|(_, _, snap)| snap.count > 0)
        .collect()
}

/// `{"<wire>/<endpoint>": {histogram}}` — the `stats` wire encoding of a
/// histogram cell list.
fn hists_to_json(hists: &[(&'static str, &'static str, HistogramSnapshot)]) -> Json {
    let mut json = Json::obj();
    for (wire, endpoint, snap) in hists {
        json.set(&format!("{wire}/{endpoint}"), snap.to_json());
    }
    json
}

/// A point-in-time copy of [`ServerStats`] plus derived rates and the
/// per-model breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The serving crate's build version (`CARGO_PKG_VERSION`).
    pub version: String,
    pub requests: u64,
    /// Always 0 and in no output; its only reader is the frozen
    /// `benchmark/src/ladder.rs`.
    #[doc(hidden)]
    pub cache_hits: u64,
    /// Always 0 and in no output; its only reader is the frozen
    /// `benchmark/src/ladder.rs`.
    #[doc(hidden)]
    pub l1_hits: u64,
    /// Always 0 and in no output; its only reader is the frozen
    /// `benchmark/src/ladder.rs`.
    #[doc(hidden)]
    pub cache_misses: u64,
    /// Always 0 and in no output; its only reader is the frozen
    /// `benchmark/src/ladder.rs`.
    #[doc(hidden)]
    pub batches: u64,
    pub uptime_secs: f64,
    /// Completed reloads across every model.
    pub reloads: u64,
    /// Connection counters (the accept threads and event loops feed them).
    pub conns_accepted: u64,
    pub conns_closed: u64,
    /// `conns_accepted - conns_closed` at snapshot time: connections the
    /// transport is holding right now.
    pub conns_active: u64,
    pub conns_timed_out: u64,
    pub conns_rejected: u64,
    /// Whether the server is draining (a `shutdown` command was
    /// accepted): no new connections are admitted.
    pub draining: bool,
    /// The *default* model's generation (0 = the model the server started
    /// with) — the pre-registry meaning, kept for wire compatibility.
    pub generation: u64,
    /// Non-empty server-level (wire, endpoint) latency histogram cells.
    pub hists: Vec<(&'static str, &'static str, HistogramSnapshot)>,
    /// Per-model counters, sorted by id.
    pub models: Vec<ModelStatsSnapshot>,
}

impl StatsSnapshot {
    pub fn to_json(&self) -> Json {
        let mut models = Json::obj();
        for model in &self.models {
            models.set(model.id.as_str(), model.to_json());
        }
        let mut json = Json::obj();
        json.set("version", self.version.as_str())
            .set("requests", Json::Num(self.requests as f64))
            .set("uptime_secs", self.uptime_secs)
            .set("reloads", Json::Num(self.reloads as f64))
            .set("conns_accepted", Json::Num(self.conns_accepted as f64))
            .set("conns_closed", Json::Num(self.conns_closed as f64))
            .set("conns_active", Json::Num(self.conns_active as f64))
            .set("conns_timed_out", Json::Num(self.conns_timed_out as f64))
            .set("conns_rejected", Json::Num(self.conns_rejected as f64))
            .set("draining", self.draining)
            .set("generation", Json::Num(self.generation as f64));
        if !self.hists.is_empty() {
            json.set("hists", hists_to_json(&self.hists));
        }
        json.set("models", models);
        json
    }

    /// The merged histogram over every cell matching `wire` and/or
    /// `endpoint` (`None` = all) — e.g. `(Some("gpsq"), None)` is the
    /// full GPSQ latency distribution. Empty when nothing matched.
    pub fn merged_hist(&self, wire: Option<&str>, endpoint: Option<&str>) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (w, e, snap) in &self.hists {
            if wire.is_some_and(|want| want != *w) || endpoint.is_some_and(|want| want != *e) {
                continue;
            }
            merged.merge(snap);
        }
        merged
    }
}

/// A running, queryable prediction service over a registry of models.
pub struct PredictionServer {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    /// The entry id-less calls route to. Fixed at start; the entry itself
    /// is mutated by reloads (its slot), never replaced, so the hot path
    /// never takes the registry lock.
    default_entry: Arc<ModelEntry>,
    stats: ServerStats,
    started: Instant,
    config: ServeConfig,
}

impl PredictionServer {
    /// The ready server with a single model registered under
    /// [`DEFAULT_MODEL_ID`].
    pub fn start(model: ServableModel, config: ServeConfig) -> PredictionServer {
        Self::start_named(vec![(DEFAULT_MODEL_ID.to_string(), model)], config)
            .expect("default id is valid and unique")
    }

    /// The ready server with every given `(id, model)` registered. The
    /// first entry is the default model. Fails on an empty list, an
    /// invalid id, or a duplicate id.
    pub fn start_named(
        models: Vec<(String, ServableModel)>,
        config: ServeConfig,
    ) -> Result<PredictionServer, String> {
        let default_id = match models.first() {
            Some((id, _)) => id.clone(),
            None => return Err("at least one model is required".to_string()),
        };
        let mut map: HashMap<String, Arc<ModelEntry>> = HashMap::with_capacity(models.len());
        for (id, model) in models {
            validate_model_id(&id)?;
            if map
                .insert(id.clone(), ModelEntry::new(&id, model, None))
                .is_some()
            {
                return Err(format!("duplicate model id {id:?}"));
            }
        }
        Ok(PredictionServer {
            default_entry: map[&default_id].clone(),
            models: RwLock::new(map),
            stats: ServerStats::default(),
            started: Instant::now(),
            config,
        })
    }

    /// Convenience: start with defaults.
    pub fn with_defaults(model: ServableModel) -> PredictionServer {
        Self::start(model, ServeConfig::default())
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The id the id-less API routes to (the first registered model).
    pub fn default_model_id(&self) -> &str {
        &self.default_entry.id
    }

    /// Every registered entry, sorted by id.
    fn entries(&self) -> Vec<Arc<ModelEntry>> {
        let mut entries: Vec<Arc<ModelEntry>> = self
            .models
            .read()
            .expect("registry lock")
            .values()
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries
    }

    /// Every registered model id, sorted.
    pub fn model_ids(&self) -> Vec<String> {
        self.entries().iter().map(|e| e.id.clone()).collect()
    }

    pub(crate) fn entry(&self, id: &str) -> Result<Arc<ModelEntry>, String> {
        self.models
            .read()
            .expect("registry lock")
            .get(id)
            .cloned()
            .ok_or_else(|| format!("unknown model {id:?}"))
    }

    /// The entry `id` names, or the default entry for `None`.
    pub(crate) fn entry_or_default(&self, id: Option<&str>) -> Result<Arc<ModelEntry>, String> {
        match id {
            None => Ok(self.default_entry.clone()),
            Some(id) => self.entry(id),
        }
    }

    /// The shared counters, for the event loops (which account
    /// connections) — what [`stats`](Self::stats) snapshots.
    pub(crate) fn server_stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The currently published default model. Holders keep the epoch they
    /// grabbed alive; re-call to observe a reload.
    pub fn model(&self) -> Arc<ServableModel> {
        self.default_entry.current()
    }

    /// The currently published model registered under `id`.
    pub fn model_of(&self, id: &str) -> Result<Arc<ServableModel>, String> {
        Ok(self.entry(id)?.current())
    }

    /// The default model's generation: 0 at start, +1 per completed
    /// reload of that model.
    pub fn generation(&self) -> u64 {
        self.default_entry.generation()
    }

    pub fn generation_of(&self, id: &str) -> Result<u64, String> {
        Ok(self.entry(id)?.generation())
    }

    /// Record where model `id`'s snapshot lives on disk (`None` = the
    /// default model): the source
    /// [`reload_from_disk`](Self::reload_from_disk) re-reads when given no
    /// path.
    pub fn set_model_path(&self, id: Option<&str>, path: impl Into<PathBuf>) -> Result<(), String> {
        self.entry_or_default(id)?.set_path(path);
        Ok(())
    }

    /// Register a new model under `id`, optionally recording the snapshot
    /// path it came from. Fails on an invalid or already-registered id —
    /// replacing an existing model is what [`reload`](Self::reload) is
    /// for.
    pub fn load_model(
        &self,
        id: &str,
        model: ServableModel,
        path: Option<PathBuf>,
    ) -> Result<(), String> {
        validate_model_id(id)?;
        let entry = ModelEntry::new(id, model, path);
        let mut models = self.models.write().expect("registry lock");
        if models.contains_key(id) {
            return Err(format!("model {id:?} is already loaded (use reload)"));
        }
        models.insert(id.to_string(), entry);
        Ok(())
    }

    /// Load a snapshot file and register it under `id`. The file is fully
    /// loaded and verified before the registry changes — a bad file
    /// leaves the registry untouched.
    pub fn load_model_from_disk(
        &self,
        id: &str,
        path: &Path,
    ) -> Result<Arc<ServableModel>, String> {
        validate_model_id(id)?;
        let snapshot = ModelSnapshot::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let model = ServableModel::from_snapshot(snapshot);
        self.load_model(id, model, Some(path.to_path_buf()))?;
        self.model_of(id)
    }

    /// Remove `id` from the registry. Requests already running against it
    /// finish normally on the epoch they grabbed; subsequent lookups fail
    /// with an unknown-model error. The default model cannot be unloaded
    /// — id-less callers must always have somewhere to land.
    pub fn unload_model(&self, id: &str) -> Result<(), String> {
        if id == self.default_entry.id {
            return Err(format!("cannot unload the default model {id:?}"));
        }
        match self.models.write().expect("registry lock").remove(id) {
            Some(_) => Ok(()),
            None => Err(format!("unknown model {id:?}")),
        }
    }

    /// Publish a new model under `id` (`None` = the default model) with
    /// zero downtime and return the new generation. Requests already
    /// running finish on the epoch they grabbed; the next request answers
    /// from the new model.
    pub fn reload(&self, id: Option<&str>, model: ServableModel) -> Result<u64, String> {
        let entry = self.entry_or_default(id)?;
        Ok(self.publish(&entry, Arc::new(model), None))
    }

    /// Reload model `id` (`None` = the default model) from a snapshot
    /// file: `path` if given, else its recorded path. The snapshot is
    /// fully loaded and verified *before* anything is published — a bad
    /// file leaves the old model serving. On success the recorded path is
    /// updated to the source used, and the returned model is exactly the
    /// one this call published under the returned generation.
    pub fn reload_from_disk(
        &self,
        id: Option<&str>,
        path: Option<&Path>,
    ) -> Result<(u64, Arc<ServableModel>), String> {
        let entry = self.entry_or_default(id)?;
        let source = match path {
            Some(p) => p.to_path_buf(),
            None => entry
                .path()
                .ok_or_else(|| format!("no snapshot path recorded for model {:?}", entry.id))?,
        };
        // Load outside the reload lock: it is the expensive part.
        let snapshot =
            ModelSnapshot::load(&source).map_err(|e| format!("{}: {e}", source.display()))?;
        let model = Arc::new(ServableModel::from_snapshot(snapshot));
        Ok((self.publish(&entry, model.clone(), Some(source)), model))
    }

    /// Publish `model` (and record `source` as its snapshot path, when
    /// given) under the entry's reload lock. Reloads of one model
    /// serialize here, so each caller's (generation, model) pair is the
    /// pair it published and the recorded path names the serving
    /// snapshot.
    fn publish(
        &self,
        entry: &ModelEntry,
        model: Arc<ServableModel>,
        source: Option<PathBuf>,
    ) -> u64 {
        let _guard = entry.reload_lock.lock().expect("reload lock");
        let generation = entry.slot.publish(model);
        if let Some(source) = source {
            entry.set_path(source);
        }
        self.stats.reloads.fetch_add(1, Ordering::Relaxed);
        entry.counters.reloads.fetch_add(1, Ordering::Relaxed);
        entry
            .counters
            .last_reload_unix
            .store(unix_now_secs(), Ordering::Relaxed);
        generation
    }

    /// Answer one query on the default model.
    pub fn predict(&self, query: Query) -> Ranked {
        self.predict_entry(&self.default_entry, query)
    }

    /// Answer one query on the model registered under `id`.
    pub fn predict_for(&self, id: &str, query: Query) -> Result<Ranked, String> {
        let entry = self.entry(id)?;
        Ok(self.predict_entry(&entry, query))
    }

    pub(crate) fn predict_entry(&self, entry: &ModelEntry, query: Query) -> Ranked {
        self.predict_batch_entry(entry, &mut [query])
            .pop()
            .expect("one answer per query")
    }

    /// Answer a batch on the default model, preserving input order.
    pub fn predict_batch(&self, mut queries: Vec<Query>) -> Vec<Ranked> {
        self.predict_batch_entry(&self.default_entry, &mut queries)
    }

    /// Answer a batch on the model registered under `id`.
    pub fn predict_batch_for(
        &self,
        id: &str,
        mut queries: Vec<Query>,
    ) -> Result<Vec<Ranked>, String> {
        let entry = self.entry(id)?;
        Ok(self.predict_batch_entry(&entry, &mut queries))
    }

    /// The one predict path: every query of the request runs the kernel
    /// here, on the caller's thread, against the epoch current when the
    /// request started. An unset `top` means the server default, and is
    /// set to it in place.
    pub(crate) fn predict_batch_entry(
        &self,
        entry: &ModelEntry,
        queries: &mut [Query],
    ) -> Vec<Ranked> {
        let model = entry.current();
        let answers: Vec<Ranked> = SCRATCH.with_borrow_mut(|scratch| {
            queries
                .iter_mut()
                .map(|query| {
                    if query.top == 0 {
                        query.top = self.config.default_top;
                    }
                    model.predict_with(scratch, query)
                })
                .collect()
        });
        let n = answers.len() as u64;
        if n > 0 {
            self.stats.requests.fetch_add(n, Ordering::Relaxed);
            entry.counters.requests.fetch_add(n, Ordering::Relaxed);
        }
        answers
    }

    /// One model's counters and identity.
    pub fn model_stats(&self, id: &str) -> Result<ModelStatsSnapshot, String> {
        let entry = self.entry(id)?;
        Ok(ModelStatsSnapshot::of(
            &entry,
            Arc::ptr_eq(&entry, &self.default_entry),
        ))
    }

    /// Consistent snapshot of the counters, including the per-model
    /// breakdown (sorted by id).
    pub fn stats(&self) -> StatsSnapshot {
        let models: Vec<ModelStatsSnapshot> = self
            .entries()
            .iter()
            .map(|entry| ModelStatsSnapshot::of(entry, Arc::ptr_eq(entry, &self.default_entry)))
            .collect();
        // Server-level histograms: the event loops record predict traffic
        // per model only (one hot-path update per request), so the
        // server totals are the models summed into the server-level set,
        // which itself holds just the admin samples.
        let mut cells = self.stats.hists.snapshot();
        for model in &models {
            for (wire, endpoint, snap) in &model.hists {
                if let Some(cell) = cells
                    .iter_mut()
                    .find(|(w, e, _)| w == wire && e == endpoint)
                {
                    cell.2.merge(snap);
                }
            }
        }
        let hists = cells.into_iter().filter(|(_, _, s)| s.count > 0).collect();
        StatsSnapshot {
            version: env!("CARGO_PKG_VERSION").to_string(),
            requests: self.stats.requests.load(Ordering::Relaxed),
            cache_hits: 0,
            l1_hits: 0,
            cache_misses: 0,
            batches: 0,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            reloads: self.stats.reloads.load(Ordering::Relaxed),
            conns_accepted: self.stats.conns.accepted.load(Ordering::Relaxed),
            conns_closed: self.stats.conns.closed.load(Ordering::Relaxed),
            conns_active: self.stats.conns.active(),
            conns_timed_out: self.stats.conns.timed_out.load(Ordering::Relaxed),
            conns_rejected: self.stats.conns.rejected.load(Ordering::Relaxed),
            draining: self.is_draining(),
            generation: self.default_entry.generation(),
            hists,
            models,
        }
    }

    /// Zero every traffic counter and histogram — global and per model —
    /// leaving generations, registry membership, connection accounting,
    /// reload history, and uptime untouched (the `reset-stats` admin
    /// command). Counters mutate individually (no global stop-the-world),
    /// so a request racing the reset may land partially on either side —
    /// each counter is still individually consistent.
    pub fn reset_stats(&self) {
        self.stats.reset_traffic();
        for entry in self.entries() {
            entry.counters.requests.store(0, Ordering::Relaxed);
            entry.counters.hists.reset();
        }
    }

    /// Enter drain: stop admitting new connections (the accept gate
    /// rejects while draining) and let in-flight replies finish.
    /// Idempotent. The event loops and the CLI watch
    /// [`is_draining`](Self::is_draining) to close connections and exit.
    pub fn begin_drain(&self) {
        self.stats.conns.begin_drain();
    }

    /// Whether [`begin_drain`](Self::begin_drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.stats.conns.is_draining()
    }

    /// Block until every connection has closed or `timeout` passes;
    /// returns the connections still open (0 = drained).
    pub fn wait_drained(&self, timeout: Duration) -> u64 {
        self.stats.conns.wait_drained(timeout)
    }

    /// Consume the server. Nothing runs behind it — predictions execute
    /// on their callers' threads — so this only drops the models.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    use gps_core::{CompiledRules, FeatureRules, Interactions, NetFeature, PriorsEntry};
    use gps_types::{Ip, Port, Subnet};
    use std::collections::HashMap;

    fn model() -> ServableModel {
        let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(443), 0.9)]);
        let snapshot = gps_core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 0,
                dataset_name: "unit".into(),
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

    #[test]
    fn predict_and_stats() {
        let server = PredictionServer::start(model(), ServeConfig::default());
        let cold = server.predict(Query::new(Ip::from_octets(10, 0, 3, 4)));
        assert_eq!(cold[0], (Port(22), 1.0));
        let warm = server.predict(Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]));
        assert_eq!(warm[0], (Port(443), 0.9));
        // Same subnet + evidence, same answer.
        let again = server.predict(Query::new(Ip::from_octets(10, 0, 9, 9)).with_open([80]));
        assert_eq!(again, warm);
        let stats = server.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.models[0].requests, 3);
        server.shutdown();
    }

    #[test]
    fn batch_preserves_order() {
        let server = PredictionServer::start(model(), ServeConfig::default());
        let ips: Vec<Ip> = (0..64u32).map(|i| Ip((i << 16) | 5)).collect();
        let queries: Vec<Query> = ips
            .iter()
            .map(|&ip| Query::new(ip).with_open([80]))
            .collect();
        let answers = server.predict_batch(queries.clone());
        assert_eq!(answers.len(), 64);
        for (query, answer) in queries.into_iter().zip(&answers) {
            assert_eq!(*answer, server.predict(query), "order preserved");
        }
    }

    #[test]
    fn empty_batch() {
        let server = PredictionServer::with_defaults(model());
        assert!(server.predict_batch(Vec::new()).is_empty());
    }

    #[test]
    fn concurrent_clients_agree() {
        let server = Arc::new(PredictionServer::start(model(), ServeConfig::default()));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let server = server.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let ip = Ip(((t * 37 + i) % 256) << 16 | i);
                    let ranked = server.predict(Query::new(ip).with_open([80]));
                    assert_eq!(ranked[0], (Port(443), 0.9));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().requests, 1600);
    }

    /// Like [`model`], but rules say 80 predicts 8443 — distinguishable
    /// from the original model on the same warm query.
    fn model_v2() -> ServableModel {
        let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
        rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(8443), 0.7)]);
        let snapshot = gps_core::ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 1,
                dataset_name: "unit-v2".into(),
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
                port: Port(2222),
                subnet: Subnet::of_ip(Ip::from_octets(10, 0, 0, 0), 16),
                coverage: 4,
            }],
        };
        ServableModel::from_snapshot(snapshot)
    }

    #[test]
    fn reload_swaps_model_for_the_next_query() {
        let server = PredictionServer::start(model(), ServeConfig::default());
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert_eq!(server.generation(), 0);

        let generation = server.reload(None, model_v2()).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(server.generation(), 1);
        // The very next answer comes from the new model.
        assert_eq!(server.predict(query())[0], (Port(8443), 0.7));
        // Cold path follows the new priors too.
        assert_eq!(
            server.predict(Query::new(Ip::from_octets(10, 0, 1, 1)))[0].0,
            Port(2222)
        );
        let stats = server.stats();
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.generation, 1);
        assert_eq!(server.model().manifest().dataset_name, "unit-v2");
        server.shutdown();
    }

    /// The `manifest` command's reply, as a JSON session receives it.
    fn manifest_reply(server: &PredictionServer) -> Json {
        use crate::proto::{answer, decode_request, read_frame};
        use crate::{WireFormat, WireLabel};
        let request = decode_request(WireFormat::Json, br#"{"cmd":"manifest"}"#);
        let mut out = Vec::new();
        answer(server, WireLabel::Json, Instant::now(), request, &mut out);
        read_frame(&mut out.as_slice()).unwrap().unwrap()
    }

    #[test]
    fn reload_under_concurrent_traffic_never_fails_a_query() {
        // Reloads alternate `model_v2()` and `model()`, so every odd
        // generation is "unit-v2" and every even one "unit".
        const RELOADS: u64 = 2000;
        let server = Arc::new(PredictionServer::start(model(), ServeConfig::default()));
        let reloading = Arc::new(std::sync::atomic::AtomicBool::new(true));
        // Identity readers never pair one generation with another
        // generation's model.
        let reader = {
            let server = server.clone();
            let reloading = reloading.clone();
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while reloading.load(Ordering::Acquire) {
                    let stats = server.model_stats(DEFAULT_MODEL_ID).unwrap();
                    assert_eq!(
                        stats.generation % 2 == 1,
                        stats.dataset == "unit-v2",
                        "model_stats paired generation {} with {}",
                        stats.generation,
                        stats.dataset
                    );
                    let reply = manifest_reply(&server);
                    let generation = reply.get("generation").and_then(Json::as_u64).unwrap();
                    let dataset = reply
                        .get("manifest")
                        .and_then(|m| m.get("dataset"))
                        .and_then(Json::as_str)
                        .unwrap();
                    assert_eq!(
                        generation % 2 == 1,
                        dataset == "unit-v2",
                        "manifest paired generation {generation} with {dataset}"
                    );
                    checked += 1;
                }
                checked
            })
        };
        let mut clients = Vec::new();
        for t in 0..4u32 {
            let server = server.clone();
            clients.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let ip = Ip(((t * 41 + i) % 128) << 16 | i);
                    let ranked = server.predict(Query::new(ip).with_open([80]));
                    // Either model's answer is acceptable; an empty or
                    // foreign answer is not.
                    assert!(
                        ranked[0] == (Port(443), 0.9) || ranked[0] == (Port(8443), 0.7),
                        "unexpected answer {ranked:?}"
                    );
                }
            }));
        }
        // Interleave the reloads with the traffic and the readers.
        for flip in 0..RELOADS {
            let next = if flip % 2 == 0 { model_v2() } else { model() };
            server.reload(None, next).unwrap();
        }
        reloading.store(false, Ordering::Release);
        for c in clients {
            c.join().expect("no query may fail across reloads");
        }
        let checked = reader.join().expect("no torn identity read");
        assert!(checked > 0, "the reader ran alongside the reloads");
        let stats = server.stats();
        assert_eq!(stats.requests, 4 * 500);
        assert_eq!(stats.reloads, RELOADS);
        assert_eq!(stats.generation, RELOADS);
    }

    #[test]
    fn concurrent_reloads_get_distinct_generations() {
        // Publish holds the slot's write lock through the generation
        // bump, so N racing reloads must produce exactly the generations
        // 1..=N — no duplicates, no gaps, no misattribution.
        let server = Arc::new(PredictionServer::with_defaults(model()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let server = server.clone();
            handles.push(std::thread::spawn(move || {
                server.reload(None, model_v2()).unwrap()
            }));
        }
        let mut generations: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("reload thread"))
            .collect();
        generations.sort_unstable();
        assert_eq!(generations, (1..=8).collect::<Vec<u64>>());
        assert_eq!(server.generation(), 8);
        assert_eq!(server.stats().reloads, 8);
    }

    #[test]
    fn registry_serves_models_independently() {
        let server = PredictionServer::start_named(
            vec![("a".to_string(), model()), ("b".to_string(), model_v2())],
            ServeConfig::default(),
        )
        .unwrap();
        assert_eq!(server.default_model_id(), "a");
        assert_eq!(server.model_ids(), vec!["a".to_string(), "b".to_string()]);
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        // Same query, different answers per model; id-less routes to "a".
        assert_eq!(
            server.predict_for("a", query()).unwrap()[0],
            (Port(443), 0.9)
        );
        assert_eq!(
            server.predict_for("b", query()).unwrap()[0],
            (Port(8443), 0.7)
        );
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert!(server
            .predict_for("nope", query())
            .unwrap_err()
            .contains("unknown model"));
        // Batches too.
        let batch = server
            .predict_batch_for("b", vec![query(), query()])
            .unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0][0], (Port(8443), 0.7));
        // Per-model counters attribute the traffic correctly: "a" saw 2
        // requests (1 explicit + 1 id-less), "b" saw 3 (1 + batch of 2).
        let stats = server.stats();
        assert_eq!(stats.models.len(), 2);
        let of = |id: &str| stats.models.iter().find(|m| m.id == id).unwrap().clone();
        assert_eq!(of("a").requests, 2);
        assert_eq!(of("b").requests, 3);
        assert!(of("a").is_default);
        assert!(!of("b").is_default);
        assert_eq!(stats.requests, 5, "global counters still see everything");
        server.shutdown();
    }

    #[test]
    fn start_named_rejects_bad_registries() {
        assert!(PredictionServer::start_named(Vec::new(), ServeConfig::default()).is_err());
        assert!(PredictionServer::start_named(
            vec![("a".to_string(), model()), ("a".to_string(), model_v2())],
            ServeConfig::default(),
        )
        .is_err());
        assert!(PredictionServer::start_named(
            vec![("bad id!".to_string(), model())],
            ServeConfig::default(),
        )
        .is_err());
        assert!(validate_model_id("quick-2026.07.25_v2").is_ok());
        assert!(validate_model_id("").is_err());
        assert!(validate_model_id("a=b").is_err());
        assert!(validate_model_id(&"x".repeat(MAX_MODEL_ID_LEN + 1)).is_err());
    }

    #[test]
    fn reloading_one_model_never_changes_another_models_answers() {
        let server = PredictionServer::start_named(
            vec![("a".to_string(), model()), ("b".to_string(), model_v2())],
            ServeConfig::default(),
        )
        .unwrap();
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        let before_b = server.predict_for("b", query()).unwrap();
        assert_eq!(
            server.predict_for("a", query()).unwrap()[0],
            (Port(443), 0.9)
        );

        // Reload A: B's generation and B's answer stay exactly what they
        // were.
        server.reload(Some("a"), model_v2()).unwrap();
        assert_eq!(server.generation_of("a").unwrap(), 1);
        assert_eq!(server.generation_of("b").unwrap(), 0);
        assert_eq!(server.predict_for("b", query()).unwrap(), before_b);
        // And A now answers from its new epoch.
        assert_eq!(
            server.predict_for("a", query()).unwrap()[0],
            (Port(8443), 0.7)
        );
        assert_eq!(server.stats().reloads, 1);
        assert_eq!(server.model_stats("a").unwrap().reloads, 1);
        assert_eq!(server.model_stats("b").unwrap().reloads, 0);
        server.shutdown();
    }

    #[test]
    fn load_and_unload_models_at_runtime() {
        let server = PredictionServer::start(model(), ServeConfig::default());
        let query = || Query::new(Ip::from_octets(10, 0, 3, 4)).with_open([80]);
        server.load_model("extra", model_v2(), None).unwrap();
        assert_eq!(
            server.model_ids(),
            vec![DEFAULT_MODEL_ID.to_string(), "extra".to_string()]
        );
        assert_eq!(
            server.predict_for("extra", query()).unwrap()[0],
            (Port(8443), 0.7)
        );
        // Double-load of a live id is an error (reload is the replace path).
        assert!(server
            .load_model("extra", model_v2(), None)
            .unwrap_err()
            .contains("already loaded"));
        // Unload: subsequent lookups fail, the default keeps serving.
        server.unload_model("extra").unwrap();
        assert!(server.predict_for("extra", query()).is_err());
        assert_eq!(server.predict(query())[0], (Port(443), 0.9));
        assert!(server.unload_model("extra").is_err(), "already gone");
        assert!(
            server.unload_model(DEFAULT_MODEL_ID).is_err(),
            "the default model must not be unloadable"
        );
        // Re-loading the freed id works and serves fresh state.
        server.load_model("extra", model(), None).unwrap();
        assert_eq!(
            server.predict_for("extra", query()).unwrap()[0],
            (Port(443), 0.9)
        );
        server.shutdown();
    }

    #[test]
    fn reload_from_disk_rereads_a_replaced_file_for_one_model() {
        let dir = gps_types::testutil::TestDir::new("reload-replaced");
        let make = |target: u16| {
            let mut rules: HashMap<gps_core::CondKey, Vec<(Port, f64)>> = HashMap::new();
            rules.insert(gps_core::CondKey::Port(Port(80)), vec![(Port(target), 0.9)]);
            gps_core::ModelSnapshot {
                manifest: ModelManifest {
                    format: (FORMAT_MAJOR, FORMAT_MINOR),
                    universe_seed: 0,
                    dataset_name: format!("replaced-{target}"),
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
            }
        };
        let path_a = dir.path("a.gpsb");
        let path_b = dir.path("b.gpsb");
        make(443).save_binary(&path_a).unwrap();
        make(9000).save_binary(&path_b).unwrap();
        let load = |p: &Path| ServableModel::from_snapshot(ModelSnapshot::load(p).unwrap());
        let server = PredictionServer::start_named(
            vec![
                ("a".to_string(), load(&path_a)),
                ("b".to_string(), load(&path_b)),
            ],
            ServeConfig::default(),
        )
        .unwrap();
        server.set_model_path(Some("a"), &path_a).unwrap();
        server.set_model_path(Some("b"), &path_b).unwrap();
        let warm = || Query::new(Ip::from_octets(10, 0, 0, 1)).with_open([80]);
        let before_a = server.predict_for("a", warm()).unwrap();

        // Replace B's file in place (save_binary writes, then renames)
        // and reload B from its recorded path.
        make(9999).save_binary(&path_b).unwrap();
        let (generation, model) = server.reload_from_disk(Some("b"), None).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(model.manifest().dataset_name, "replaced-9999");
        assert_eq!(server.predict_for("b", warm()).unwrap()[0].0, Port(9999));
        assert_eq!(
            server.model_stats("b").unwrap().path,
            Some(path_b.display().to_string()),
            "the recorded path is unchanged"
        );
        assert_eq!(server.generation_of("a").unwrap(), 0, "A untouched");
        assert_eq!(server.predict_for("a", warm()).unwrap(), before_a);
    }
}
