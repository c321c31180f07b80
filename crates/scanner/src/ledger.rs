//! Bandwidth accounting and the wall-clock rate model.
//!
//! The paper's unit of bandwidth is "the number of 100% scans" — probe count
//! divided by the 3.7-billion-address space (§6.1). Every scanner entry
//! point charges this ledger; experiments read coverage/bandwidth curves off
//! it. The rate model converts probe counts to wall-clock at the rates
//! Table 2 reports (1.5 Gb/s for the seed scan; 50 Mb/s for prediction scans
//! to avoid inbound drop).

use std::time::Duration;

/// Scanning phases (rows of Table 2; series of Figures 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanPhase {
    /// Random-sample seed scan (§5.1).
    Seed,
    /// Exhaustive (port, subnet) priors scan (§5.3).
    Priors,
    /// Targeted prediction scan (§5.4).
    Predict,
    /// Baseline scans (exhaustive probing, XGBoost scanner, TGAs, ...).
    Baseline,
}

impl ScanPhase {
    pub const ALL: [ScanPhase; 4] = [
        ScanPhase::Seed,
        ScanPhase::Priors,
        ScanPhase::Predict,
        ScanPhase::Baseline,
    ];

    const fn index(self) -> usize {
        self as usize
    }
}

/// Bytes on the wire per probe at each pipeline stage (Ethernet + IP + TCP,
/// approximating ZMap SYNs, LZR data probes and ZGrab L7 handshakes).
#[derive(Debug, Clone, Copy)]
pub struct ProbeCosts {
    pub syn_bytes: u64,
    pub lzr_bytes: u64,
    pub zgrab_bytes: u64,
}

impl Default for ProbeCosts {
    fn default() -> Self {
        ProbeCosts {
            syn_bytes: 60,
            lzr_bytes: 180,
            zgrab_bytes: 1500,
        }
    }
}

/// Per-phase probe/byte totals.
#[derive(Debug, Clone, Default)]
pub struct BandwidthLedger {
    probes: [u64; ScanPhase::ALL.len()],
    bytes: [u64; ScanPhase::ALL.len()],
}

impl BandwidthLedger {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn charge(&mut self, phase: ScanPhase, probes: u64, bytes: u64) {
        self.probes[phase.index()] += probes;
        self.bytes[phase.index()] += bytes;
    }

    pub fn probes(&self, phase: ScanPhase) -> u64 {
        self.probes[phase.index()]
    }

    pub fn bytes(&self, phase: ScanPhase) -> u64 {
        self.bytes[phase.index()]
    }

    pub fn total_probes(&self) -> u64 {
        self.probes.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bandwidth in the paper's unit: number of 100% scans of the universe.
    pub fn full_scans(&self, universe_size: u64) -> f64 {
        self.total_probes() as f64 / universe_size as f64
    }

    pub fn full_scans_phase(&self, phase: ScanPhase, universe_size: u64) -> f64 {
        self.probes(phase) as f64 / universe_size as f64
    }

    /// Snapshot for curve sampling.
    pub fn checkpoint(&self) -> LedgerCheckpoint {
        LedgerCheckpoint {
            total_probes: self.total_probes(),
            total_bytes: self.total_bytes(),
        }
    }
}

/// A point-in-time snapshot of cumulative cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerCheckpoint {
    pub total_probes: u64,
    pub total_bytes: u64,
}

/// Wall-clock rate model (Table 2's scan-time column). Converts bytes sent
/// to time at a link rate.
#[derive(Debug, Clone, Copy)]
pub struct RateModel {
    /// Seed-scan line rate, bits/s (paper: 1.5 Gb/s).
    pub seed_rate_bps: f64,
    /// Prediction-scan line rate, bits/s (paper: 50 Mb/s, lowered to avoid
    /// congestion and inbound packet drop given the higher hit rate).
    pub predict_rate_bps: f64,
    /// Up/download rate to the compute platform, bits/s (paper observes
    /// 18–30 MB/s with 24 parallel processes).
    pub transfer_rate_bps: f64,
}

impl Default for RateModel {
    fn default() -> Self {
        RateModel {
            seed_rate_bps: 1.5e9,
            predict_rate_bps: 50e6,
            transfer_rate_bps: 20.0 * 8.0 * 1e6, // 20 MB/s
        }
    }
}

impl RateModel {
    fn rate_for(&self, phase: ScanPhase) -> f64 {
        match phase {
            ScanPhase::Seed | ScanPhase::Baseline => self.seed_rate_bps,
            _ => self.predict_rate_bps,
        }
    }

    /// Wall-clock to send `bytes` during `phase`.
    pub fn scan_time(&self, phase: ScanPhase, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.rate_for(phase))
    }

    /// Wall-clock to transfer `bytes` to/from the compute platform.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.transfer_rate_bps)
    }

    /// Wall-clock for the whole ledger.
    pub fn total_scan_time(&self, ledger: &BandwidthLedger) -> Duration {
        ScanPhase::ALL
            .iter()
            .map(|&p| self.scan_time(p, ledger.bytes(p)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_phase() {
        let mut l = BandwidthLedger::new();
        l.charge(ScanPhase::Seed, 100, 6000);
        l.charge(ScanPhase::Seed, 50, 3000);
        l.charge(ScanPhase::Predict, 10, 600);
        assert_eq!(l.probes(ScanPhase::Seed), 150);
        assert_eq!(l.probes(ScanPhase::Predict), 10);
        assert_eq!(l.total_probes(), 160);
        assert_eq!(l.total_bytes(), 9600);
    }

    #[test]
    fn full_scan_units() {
        let mut l = BandwidthLedger::new();
        l.charge(ScanPhase::Baseline, 2_000_000, 0);
        assert!((l.full_scans(1_000_000) - 2.0).abs() < 1e-12);
        assert!((l.full_scans_phase(ScanPhase::Baseline, 4_000_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_model_seed_is_faster_than_predict() {
        let m = RateModel::default();
        let seed = m.scan_time(ScanPhase::Seed, 1_000_000_000);
        let predict = m.scan_time(ScanPhase::Predict, 1_000_000_000);
        assert!(predict > seed * 20, "50 Mb/s vs 1.5 Gb/s is a 30× gap");
    }

    #[test]
    fn paper_scale_sanity() {
        // A 1% seed scan of 3.7B addrs × 65536 ports at 60B/probe and
        // 1.5 Gb/s should land near the paper's ~12 days.
        let m = RateModel::default();
        let probes = (3.7e9 * 0.01) as u64 * 65536;
        let days = m.scan_time(ScanPhase::Seed, probes * 60).as_secs_f64() / 86400.0;
        assert!((5.0..30.0).contains(&days), "got {days} days");
    }

    #[test]
    fn checkpoint_snapshots() {
        let mut l = BandwidthLedger::new();
        l.charge(ScanPhase::Priors, 5, 50);
        let c1 = l.checkpoint();
        l.charge(ScanPhase::Priors, 5, 50);
        let c2 = l.checkpoint();
        assert_eq!(c1.total_probes, 5);
        assert_eq!(c2.total_probes, 10);
    }
}
