//! # gps-scan
//!
//! The simulated scanning substrate: a faithful stand-in for the paper's
//! ZMap + LZR + ZGrab chain (§5.5), with
//!
//! - exact bandwidth accounting in the paper's "number of 100% scans" unit
//!   ([`ledger`]),
//! - ZMap's multiplicative-cyclic-group address permutation
//!   ([`permutation`]),
//! - per-stage observation types ([`observe`]),
//! - the probe engine itself ([`scanner`]) with blocklisting (operators can
//!   block GPS, §5.5) and response-loss fault injection,
//! - a wall-clock rate model reproducing Table 2's scan/transfer times.

pub mod ledger;
pub mod lzr;
pub mod observe;
pub mod permutation;
pub mod scanner;

pub use ledger::{BandwidthLedger, LedgerCheckpoint, ProbeCosts, RateModel, ScanPhase};
pub use observe::ServiceObservation;
pub use permutation::CyclicPermutation;
pub use scanner::{ScanConfig, Scanner};
