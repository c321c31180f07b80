//! # gps-core
//!
//! The paper's contribution: GPS, a predictive framework that finds IPv4
//! services across all 65K ports with no prior knowledge, built on simple
//! conditional probabilities (*Predicting IPv4 Services Across All Ports*,
//! SIGCOMM 2022).
//!
//! The four-phase pipeline (§5):
//!
//! 1. **Seed scan** ([`dataset`], [`pipeline`]) — random-sample scan across
//!    ports, filtered for pseudo-services ([`filter`], Appendix B);
//! 2. **Probabilistic model** ([`model`]) — conditional probabilities over
//!    the four feature-interaction classes of Equations 4–7, computed as a
//!    parallelizable co-occurrence matrix;
//! 3. **Priors scan** ([`priors`]) — find the most predictive first service
//!    on every host by exhaustively scanning (port, subnet) tuples sorted by
//!    maximal coverage (§5.3);
//! 4. **Prediction scan** ([`predict`]) — expand each discovered service
//!    through the "most predictive feature values" list (§5.4).
//!
//! Coverage metrics (Equations 1–2), precision, and bandwidth accounting in
//! the paper's 100%-scan unit live in [`metrics`].
//!
//! ## Quick start
//!
//! ```
//! use gps_core::{censys_dataset, run_gps, GpsConfig};
//! use gps_synthnet::{Internet, UniverseConfig};
//!
//! let net = Internet::generate(&UniverseConfig::tiny(7));
//! let dataset = censys_dataset(&net, 100, 0.05, 0, 1);
//! let run = run_gps(&net, &dataset, &GpsConfig {
//!     seed_fraction: 0.05,
//!     step_prefix: 20,
//!     ..GpsConfig::default()
//! });
//! println!(
//!     "found {:.1}% of services with {:.1} full-scan units",
//!     100.0 * run.fraction_of_services(),
//!     run.total_scans(),
//! );
//! assert!(run.fraction_of_services() > 0.0);
//! ```

pub mod compiled;
pub mod config;
pub mod dataset;
pub mod filter;
pub mod host;
pub mod known_hosts;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod predict;
pub mod priors;
pub mod snapshot;

pub use compiled::{CompiledModel, CompiledPriors, CompiledRules};
pub use config::{GpsConfig, Interactions, NetFeature};
pub use dataset::{censys_dataset, lzr_dataset, Dataset};
pub use filter::{filter_pseudo_services, FilterStats, MAX_REAL_SERVICES_PER_HOST};
pub use host::{group_by_host, HostRecord};
pub use known_hosts::KnownHostExpander;
pub use metrics::{CoverageTracker, CurvePoint, DiscoveryCurve, GroundTruth};
pub use model::{BuildStats, CondKey, CondModel, KeyStats, NetKey};
pub use pipeline::{run_gps, GpsRun, PhaseTimings};
pub use predict::{build_predictions, FeatureRules, Prediction};
pub use priors::{build_priors_list, PriorsEntry};
pub use snapshot::{ModelManifest, ModelSnapshot, SnapshotError};
