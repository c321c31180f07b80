//! # gps-engine
//!
//! Table 2's compute accounting, plus the one parallel map the XGBoost
//! baseline uses.
//!
//! The paper builds GPS's co-occurrence model on Google BigQuery (§5.5)
//! and reports, per stage, the data it processed and what that cost
//! (§6.5, Table 2). `gps-core` builds the same model with one sequential
//! fold; this crate keeps the books on it:
//!
//! - [`ledger`] — rows/bytes-processed accounting and the $/TB cost model
//!   used to reproduce Table 2's data and cost columns;
//! - [`par`] — an order-preserving parallel map over a slice, which the
//!   XGBoost scanner uses to score candidate addresses.

pub mod ledger;
pub mod par;

pub use ledger::{CostModel, ExecLedger};
pub use par::{available_workers, par_map};
