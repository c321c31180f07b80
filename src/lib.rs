//! # GPS — Predicting IPv4 Services Across All Ports
//!
//! A full-system Rust reproduction of *Predicting IPv4 Services Across All
//! Ports* (Izhikevich, Teixeira, Durumeric — SIGCOMM 2022): the GPS
//! predictive scanning framework, every substrate it depends on, and every
//! baseline it is evaluated against.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `gps-types` | IPs, subnets, ports, protocols, the 25 features of Table 1, deterministic RNG |
//! | [`engine`] | `gps-engine` | Table 2's compute ledger and $/TB cost model, plus the parallel map the XGBoost baseline uses |
//! | [`synthnet`] | `gps-synthnet` | deterministic synthetic IPv4 Internet (the datasets stand-in) |
//! | [`scan`] | `gps-scan` | simulated ZMap + LZR + ZGrab chain with exact bandwidth accounting |
//! | [`core`] | `gps-core` | the paper's contribution: Eq. 4–7 model, priors scan, prediction scan |
//! | [`baselines`] | `gps-baselines` | exhaustive/oracle probers, GBDT + XGBoost-scanner, TGAs, recommender |
//!
//! ## Quick start
//!
//! ```
//! use gps::prelude::*;
//!
//! // A small deterministic universe (≈260K addresses).
//! let net = Internet::generate(&UniverseConfig::tiny(7));
//! // Censys-style workload: 100% visibility of the top 100 ports,
//! // 5% of addresses as the training seed.
//! let dataset = censys_dataset(&net, 100, 0.05, 0, 1);
//! let run = run_gps(&net, &dataset, &GpsConfig {
//!     seed_fraction: 0.05,
//!     step_prefix: 20,
//!     ..GpsConfig::default()
//! });
//! println!(
//!     "GPS found {:.1}% of services using {:.1} 100%-scan units",
//!     100.0 * run.fraction_of_services(),
//!     run.total_scans(),
//! );
//! assert!(run.fraction_of_services() > 0.3);
//! ```

pub use gps_baselines as baselines;
pub use gps_core as core;
pub use gps_engine as engine;
pub use gps_scan as scan;
pub use gps_serve as serve;
pub use gps_synthnet as synthnet;
pub use gps_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use gps_baselines::{
        optimal_port_order_curve, oracle_curve, random_probe_curve, run_xgb_scanner,
        XgbScannerConfig,
    };
    pub use gps_core::ModelSnapshot;
    pub use gps_core::{
        censys_dataset, lzr_dataset, run_gps, Dataset, DiscoveryCurve, GpsConfig, GpsRun,
        Interactions, NetFeature,
    };
    pub use gps_scan::{ScanConfig, ScanPhase, Scanner};
    pub use gps_serve::{PredictionServer, Query, ServableModel, ServeConfig};
    pub use gps_synthnet::{Internet, UniverseConfig};
    pub use gps_types::{Ip, Port, PortSet, ServiceKey, Subnet};
}
