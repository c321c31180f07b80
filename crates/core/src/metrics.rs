//! Coverage metrics (§3, Equations 1–2) and discovery curves.
//!
//! - **Fraction of services** (Eq. 1): found ÷ ground truth, over all
//!   (IP, port) pairs — biased toward popular ports.
//! - **Normalized services** (Eq. 2): per-port recall averaged over ports,
//!   so finding all of an uncommon port's three services counts as much as
//!   finding all of port 80.
//! - **Precision**: newly-found real services ÷ discovery probes (Figure 3).
//! - **Bandwidth**: probes ÷ universe size, the "number of 100% scans" unit.
//!
//! [`CoverageTracker`] maintains all of these incrementally so the pipeline
//! can checkpoint a [`DiscoveryCurve`] for every figure without rescanning.

use gps_types::{IntMap, IntSet, Port, ServiceKey};

/// An immutable set of ground-truth services with per-port counts.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    services: IntSet<ServiceKey>,
    per_port: IntMap<u16, u64>,
    total: u64,
}

impl GroundTruth {
    pub fn from_services(services: Vec<ServiceKey>) -> Self {
        let mut per_port: IntMap<u16, u64> = IntMap::default();
        let set: IntSet<ServiceKey> = services.into_iter().collect();
        for key in &set {
            *per_port.entry(key.port.0).or_default() += 1;
        }
        let total = set.len() as u64;
        GroundTruth {
            services: set,
            per_port,
            total,
        }
    }

    pub fn contains(&self, key: &ServiceKey) -> bool {
        self.services.contains(key)
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn num_ports(&self) -> usize {
        self.per_port.len()
    }

    pub fn per_port(&self) -> &IntMap<u16, u64> {
        &self.per_port
    }

    pub fn port_count(&self, port: Port) -> u64 {
        self.per_port.get(&port.0).copied().unwrap_or(0)
    }

    pub fn services(&self) -> &IntSet<ServiceKey> {
        &self.services
    }
}

/// Incremental coverage bookkeeping against one ground truth.
#[derive(Debug)]
pub struct CoverageTracker<'a> {
    ground: &'a GroundTruth,
    found: IntSet<ServiceKey>,
    found_per_port: IntMap<u16, u64>,
    /// Running Σ_p found_p / truth_p (numerator of Eq. 2).
    normalized_sum: f64,
    /// Probes spent in discovery phases (excludes the sunk seed scan).
    discovery_probes: u64,
}

impl<'a> CoverageTracker<'a> {
    pub fn new(ground: &'a GroundTruth) -> Self {
        CoverageTracker {
            ground,
            found: IntSet::default(),
            found_per_port: IntMap::default(),
            normalized_sum: 0.0,
            discovery_probes: 0,
        }
    }

    /// Record a discovered service. Returns true if it is a *new* test-set
    /// service (a "hit").
    pub fn record(&mut self, key: ServiceKey) -> bool {
        if !self.ground.contains(&key) || !self.found.insert(key) {
            return false;
        }
        *self.found_per_port.entry(key.port.0).or_default() += 1;
        let truth = self.ground.port_count(key.port) as f64;
        self.normalized_sum += 1.0 / truth;
        true
    }

    pub fn charge_probes(&mut self, probes: u64) {
        self.discovery_probes += probes;
    }

    /// Eq. 1.
    pub fn fraction_of_services(&self) -> f64 {
        if self.ground.total() == 0 {
            return 0.0;
        }
        self.found.len() as f64 / self.ground.total() as f64
    }

    /// Eq. 2.
    pub fn normalized_fraction(&self) -> f64 {
        let ports = self.ground.num_ports();
        if ports == 0 {
            return 0.0;
        }
        self.normalized_sum / ports as f64
    }

    /// Found ÷ discovery probes.
    pub fn precision(&self) -> f64 {
        if self.discovery_probes == 0 {
            return 0.0;
        }
        self.found.len() as f64 / self.discovery_probes as f64
    }

    pub fn found_count(&self) -> u64 {
        self.found.len() as u64
    }

    pub fn discovery_probes(&self) -> u64 {
        self.discovery_probes
    }

    pub fn found(&self) -> &IntSet<ServiceKey> {
        &self.found
    }

    /// Snapshot a curve point at the given cumulative bandwidth.
    pub fn snapshot(&self, scans: f64) -> CurvePoint {
        CurvePoint {
            scans,
            discovery_probes: self.discovery_probes,
            found: self.found.len() as u64,
            fraction_all: self.fraction_of_services(),
            fraction_normalized: self.normalized_fraction(),
            precision: self.precision(),
        }
    }
}

/// One point of a discovery curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Cumulative bandwidth in 100%-scan units (seed included).
    pub scans: f64,
    /// Cumulative probes spent on discovery (seed excluded).
    pub discovery_probes: u64,
    /// Services found so far.
    pub found: u64,
    /// Eq. 1 at this point.
    pub fraction_all: f64,
    /// Eq. 2 at this point.
    pub fraction_normalized: f64,
    /// Precision at this point.
    pub precision: f64,
}

/// A bandwidth-ordered sequence of curve points.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryCurve {
    pub points: Vec<CurvePoint>,
}

impl DiscoveryCurve {
    pub fn push(&mut self, point: CurvePoint) {
        self.points.push(point);
    }

    /// Smallest bandwidth at which `fraction_all ≥ target`, if reached.
    pub fn scans_to_reach_all(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.fraction_all >= target)
            .map(|p| p.scans)
    }

    /// Smallest bandwidth at which `fraction_normalized ≥ target`.
    pub fn scans_to_reach_normalized(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.fraction_normalized >= target)
            .map(|p| p.scans)
    }

    /// Final point (panics on an empty curve).
    pub fn last(&self) -> &CurvePoint {
        self.points.last().expect("empty curve")
    }

    /// Linear interpolation of fraction_all at a bandwidth.
    pub fn all_at_scans(&self, scans: f64) -> f64 {
        interpolate(&self.points, scans, |p| p.fraction_all)
    }

    /// Write the curve as CSV (header + one row per point) for external
    /// plotting of the reproduced figures.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "scans,discovery_probes,found,fraction_all,fraction_normalized,precision"
        )?;
        for p in &self.points {
            writeln!(
                w,
                "{:.6},{},{},{:.6},{:.6},{:.8}",
                p.scans,
                p.discovery_probes,
                p.found,
                p.fraction_all,
                p.fraction_normalized,
                p.precision
            )?;
        }
        Ok(())
    }
}

fn interpolate(points: &[CurvePoint], x: f64, get: impl Fn(&CurvePoint) -> f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    if x <= points[0].scans {
        return 0.0;
    }
    for w in points.windows(2) {
        if x <= w[1].scans {
            let (x0, x1) = (w[0].scans, w[1].scans);
            let (y0, y1) = (get(&w[0]), get(&w[1]));
            if x1 <= x0 {
                return y1;
            }
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
        }
    }
    get(points.last().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_types::Ip;

    fn key(ip: u32, port: u16) -> ServiceKey {
        ServiceKey::new(Ip(ip), Port(port))
    }

    fn ground() -> GroundTruth {
        // Port 80: 4 services; port 9999: 1 service.
        GroundTruth::from_services(vec![
            key(1, 80),
            key(2, 80),
            key(3, 80),
            key(4, 80),
            key(9, 9999),
        ])
    }

    #[test]
    fn ground_truth_counts() {
        let g = ground();
        assert_eq!(g.total(), 5);
        assert_eq!(g.num_ports(), 2);
        assert_eq!(g.port_count(Port(80)), 4);
        assert_eq!(g.port_count(Port(1)), 0);
    }

    #[test]
    fn normalization_weighs_ports_equally() {
        let g = ground();
        let mut t = CoverageTracker::new(&g);
        // Finding the single uncommon service = 50% normalized, 20% of all.
        assert!(t.record(key(9, 9999)));
        assert!((t.normalized_fraction() - 0.5).abs() < 1e-12);
        assert!((t.fraction_of_services() - 0.2).abs() < 1e-12);
        // Finding all of port 80 brings normalized to 1.0.
        for ip in 1..=4 {
            t.record(key(ip, 80));
        }
        assert!((t.normalized_fraction() - 1.0).abs() < 1e-12);
        assert!((t.fraction_of_services() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_ground_and_duplicate_records_are_not_hits() {
        let g = ground();
        let mut t = CoverageTracker::new(&g);
        assert!(!t.record(key(100, 80)), "not in ground truth");
        assert!(t.record(key(1, 80)));
        assert!(!t.record(key(1, 80)), "duplicate");
        assert_eq!(t.found_count(), 1);
    }

    #[test]
    fn precision_counts_discovery_probes_only() {
        let g = ground();
        let mut t = CoverageTracker::new(&g);
        t.charge_probes(10);
        t.record(key(1, 80));
        assert!((t.precision() - 0.1).abs() < 1e-12);
        t.charge_probes(10);
        assert!((t.precision() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn curve_queries() {
        let g = ground();
        let mut t = CoverageTracker::new(&g);
        let mut curve = DiscoveryCurve::default();
        curve.push(t.snapshot(1.0));
        t.charge_probes(100);
        t.record(key(1, 80));
        t.record(key(2, 80));
        curve.push(t.snapshot(2.0));
        for ip in 3..=4 {
            t.record(key(ip, 80));
        }
        t.record(key(9, 9999));
        curve.push(t.snapshot(5.0));

        assert_eq!(curve.scans_to_reach_all(0.4), Some(2.0));
        assert_eq!(curve.scans_to_reach_all(1.0), Some(5.0));
        assert_eq!(curve.scans_to_reach_all(1.1), None);
        assert!(
            (curve.all_at_scans(3.5) - 0.7).abs() < 1e-9,
            "interpolated midpoint"
        );
        assert_eq!(curve.all_at_scans(0.5), 0.0, "before first point");
        assert!(
            (curve.all_at_scans(99.0) - 1.0).abs() < 1e-12,
            "past the end"
        );
    }

    #[test]
    fn csv_round_trip_shape() {
        let g = ground();
        let mut t = CoverageTracker::new(&g);
        let mut curve = DiscoveryCurve::default();
        t.charge_probes(10);
        t.record(key(1, 80));
        curve.push(t.snapshot(1.5));
        let mut buf = Vec::new();
        curve.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scans,"));
        assert!(lines[1].starts_with("1.5"));
        assert_eq!(lines[1].split(',').count(), 6);
    }

    #[test]
    fn empty_ground_truth_is_safe() {
        let g = GroundTruth::from_services(vec![]);
        let mut t = CoverageTracker::new(&g);
        assert!(!t.record(key(1, 80)));
        assert_eq!(t.fraction_of_services(), 0.0);
        assert_eq!(t.normalized_fraction(), 0.0);
        assert_eq!(t.precision(), 0.0);
    }
}
