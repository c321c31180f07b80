//! # gps-serve
//!
//! The prediction-serving subsystem: GPS's trained artifacts, persisted by
//! `gps-core`'s [`snapshot`](gps_core::snapshot) layer, loaded behind a
//! long-lived server that answers "which ports should I probe on this
//! IP?" queries at wire speed.
//!
//! The paper's pitch is that the conditional-probability model makes
//! all-port discovery cheap to *compute* (13 minutes on a parallel engine,
//! §6.5); an LZR-style deployment then needs those predictions *on
//! demand*, per target, for as long as the model stays fresh. This crate
//! is that missing half:
//!
//! - [`artifact`] — [`ServableModel`]: a loaded snapshot in query form
//!   (cold queries rank §5.3 priors by subnet; warm queries expand
//!   observed ports through the §5.4 rules);
//! - [`server`] — [`PredictionServer`]: a *registry* of named models
//!   (one per scan universe/day — compare quick vs full or LZR-filtered
//!   vs raw from one process), [`ServerStats`] counters with a per-model
//!   breakdown, and zero-downtime snapshot hot-reload (epoch-published
//!   models, swapped by the `reload` command, which re-reads a model's
//!   recorded snapshot file). A prediction is a table lookup (§5.4,
//!   Eq. 4–7) of a few hundred nanoseconds, and an LZR-style scanner
//!   asks per host with that host's own evidence, so answers rarely
//!   repeat: every query runs the compiled kernel on the thread that
//!   received it — no worker pool, no answer cache;
//! - [`proto`] — a length-prefixed JSON frame protocol over TCP plus the
//!   blocking [`Client`] used by `gps query` and the `loadgen` driver;
//! - [`transport`] / [`net`] — how connections are driven, for `gps
//!   serve` and the [`router`] alike: event loops (epoll readiness,
//!   incremental frame decoding, one write per read burst) that serve
//!   two pipelined connections and C10K-scale fan-in alike, honoring
//!   `--max-conns` and `--idle-timeout`, with one bounded HTTP parser for
//!   both processes' HTTP sidelines. A request is answered, in order, on
//!   the loop that read it — a 65,536-query batch occupies its event loop
//!   for the length of the batch, as an admin reload already does, and a
//!   router loop waits out a stalled backend for at most one request
//!   timeout per burst.
//!
//! ## Quick start
//!
//! ```
//! use gps_serve::{PredictionServer, Query, ServableModel, ServeConfig};
//! use gps_core::{censys_dataset, run_gps, GpsConfig, ModelSnapshot};
//! use gps_synthnet::{Internet, UniverseConfig};
//!
//! // Train on a tiny universe and package the artifacts.
//! let net = Internet::generate(&UniverseConfig::tiny(7));
//! let dataset = censys_dataset(&net, 100, 0.05, 0, 1);
//! let config = GpsConfig { seed_fraction: 0.05, step_prefix: 20, ..GpsConfig::default() };
//! let run = run_gps(&net, &dataset, &config);
//! let snapshot = ModelSnapshot::from_run(&run, &config, 7);
//!
//! // Serve it.
//! let server = PredictionServer::start(
//!     ServableModel::from_snapshot(snapshot),
//!     ServeConfig::default(),
//! );
//! let ip = gps_types::Ip(net.host_ips()[0]);
//! let ranked = server.predict(Query::new(ip));
//! println!("predicted {} candidate ports for {ip}", ranked.len());
//! ```

pub mod artifact;
pub mod hist;
pub mod net;
pub mod proto;
pub mod router;
pub mod server;
pub mod transport;
mod wire;

pub use artifact::{Query, Ranked, ReferenceModel, ServableModel};
pub use gps_core::compiled::PredictScratch;
pub use hist::{EndpointLabel, HistogramSet, LatencyHistogram, WireLabel};
pub use net::{DecodeError, FrameDecoder, WireFormat};
pub use proto::{Client, ReloadOutcome};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{
    validate_model_id, ModelStatsSnapshot, PredictionServer, ServeConfig, ServerStats,
    StatsSnapshot, DEFAULT_MODEL_ID, MAX_MODEL_ID_LEN,
};
pub use transport::{serve, serve_with_http, TransportConfig};
