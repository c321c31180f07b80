//! Evaluation datasets (§6.1 methodology).
//!
//! The paper evaluates GPS against two ground truths:
//!
//! - **Censys-style**: 100% scans of the most popular 2K ports;
//! - **LZR-style**: a 1% random IPv4 sample across all 65K ports.
//!
//! Each dataset randomly assigns every IP address (with its services) to a
//! *seed* or *test* side; GPS trains on the seed side and is scored on the
//! test side. The LZR evaluation additionally filters both sides to ports
//! with more than two responsive IP addresses.
//!
//! A [`Dataset`] carries the scanner-level view filters (which IPs/ports are
//! visible at all) so the pipeline literally cannot observe anything outside
//! the dataset — the same constraint the paper's evaluation has.

use std::sync::Arc;

use gps_scan::CyclicPermutation;
use gps_synthnet::Internet;
use gps_types::{IntMap, IntSet, PortSet, Rng, ServiceKey};

use crate::metrics::GroundTruth;

/// A train/test split over a (possibly restricted) view of the universe.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    /// Day the dataset snapshot observes.
    pub day: u16,
    /// Visible ports (None = all 65K).
    pub ports: Option<Arc<PortSet>>,
    /// Visible addresses (None = whole universe) — the LZR 1% sample.
    pub visible_ips: Option<Arc<IntSet<u32>>>,
    /// Seed-side addresses (responsive or not); the seed scan probes these.
    pub seed_ips: Arc<IntSet<u32>>,
    /// Test-side ground truth (real services only, filters applied).
    pub test: GroundTruth,
    /// Ports-with-more-than-N-IPs filter applied to both sides (LZR: 2).
    pub min_ips_per_port: u64,
}

impl Dataset {
    /// Whether a service key belongs to the test ground truth.
    pub fn in_test(&self, key: &ServiceKey) -> bool {
        self.test.contains(key)
    }

    /// Number of seed-side addresses.
    pub fn seed_size(&self) -> u64 {
        self.seed_ips.len() as u64
    }
}

/// Sample `count` distinct addresses from the allocated universe, in ZMap
/// permutation order (uniform without replacement).
fn sample_universe_ips(net: &Internet, count: u64, seed: u64) -> IntSet<u32> {
    let mut rng = Rng::new(seed);
    let blocks = net.topology().blocks();
    CyclicPermutation::new(net.universe_size(), &mut rng)
        .take(count as usize)
        .map(|idx| blocks[(idx / 65536) as usize].base | (idx % 65536) as u32)
        .collect()
}

/// Drop the services on ports with at most `min_ips_per_port` responsive
/// IPs in the candidate set, keeping the rest in order.
fn apply_port_threshold(services: Vec<ServiceKey>, min_ips_per_port: u64) -> Vec<ServiceKey> {
    if min_ips_per_port == 0 {
        return services;
    }
    let mut per_port: IntMap<u16, u64> = IntMap::default();
    for s in &services {
        *per_port.entry(s.port.0).or_default() += 1;
    }
    let keep: IntSet<u16> = per_port
        .iter()
        .filter(|&(_, &c)| c > min_ips_per_port)
        .map(|(&p, _)| p)
        .collect();
    services
        .into_iter()
        .filter(|s| keep.contains(&s.port.0))
        .collect()
}

/// Build the Censys-style dataset: full visibility of the `top_k_ports` most
/// populated ports, seed split of `seed_fraction` of the address space.
pub fn censys_dataset(
    net: &Internet,
    top_k_ports: usize,
    seed_fraction: f64,
    day: u16,
    split_seed: u64,
) -> Dataset {
    let census = gps_synthnet::PortCensus::new(net, day);
    let ports = Arc::new(PortSet::from_ports(census.top_ports(top_k_ports)));
    let seed_count = (net.universe_size() as f64 * seed_fraction).round() as u64;
    let seed_ips = Arc::new(sample_universe_ips(net, seed_count, split_seed));

    let services = gps_synthnet::stats::services_where(
        net,
        day,
        |p| ports.contains(p),
        |ip| !seed_ips.contains(&ip.0),
    );
    Dataset {
        name: format!("censys-top{top_k_ports}-seed{:.2}%", seed_fraction * 100.0),
        day,
        ports: Some(ports),
        visible_ips: None,
        seed_ips,
        test: GroundTruth::from_services(services),
        min_ips_per_port: 0,
    }
}

/// Build the LZR-style dataset: a `sample_fraction` random-address view of
/// all ports, split `seed_share`/(1−`seed_share`) into seed/test, both sides
/// filtered to ports with more than `min_ips_per_port` responsive IPs.
pub fn lzr_dataset(
    net: &Internet,
    sample_fraction: f64,
    seed_share: f64,
    min_ips_per_port: u64,
    day: u16,
    split_seed: u64,
) -> Dataset {
    let sample_count = (net.universe_size() as f64 * sample_fraction).round() as u64;
    let sample: Vec<u32> = {
        let mut v: Vec<u32> = sample_universe_ips(net, sample_count, split_seed)
            .into_iter()
            .collect();
        v.sort_unstable();
        v
    };
    // Split the sample into seed/test deterministically.
    let mut rng = Rng::new(split_seed ^ 0xD15C);
    let mut indices: Vec<usize> = (0..sample.len()).collect();
    rng.shuffle(&mut indices);
    let seed_count = (sample.len() as f64 * seed_share).round() as usize;
    let seed_ips: IntSet<u32> = indices[..seed_count].iter().map(|&i| sample[i]).collect();
    let visible: IntSet<u32> = sample.iter().copied().collect();

    let services = gps_synthnet::stats::services_where(
        net,
        day,
        |_| true,
        |ip| visible.contains(&ip.0) && !seed_ips.contains(&ip.0),
    );
    let services = apply_port_threshold(services, min_ips_per_port);
    Dataset {
        name: format!(
            "lzr-sample{:.2}%-seed{:.2}%",
            sample_fraction * 100.0,
            sample_fraction * seed_share * 100.0
        ),
        day,
        ports: None,
        visible_ips: Some(Arc::new(visible)),
        seed_ips: Arc::new(seed_ips),
        test: GroundTruth::from_services(services),
        min_ips_per_port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_synthnet::UniverseConfig;

    fn net() -> Internet {
        Internet::generate(&UniverseConfig::tiny(55))
    }

    #[test]
    fn censys_split_is_disjoint() {
        let net = net();
        let ds = censys_dataset(&net, 100, 0.05, 0, 1);
        assert!(ds.seed_size() > 0);
        // No test service on a seed IP.
        for key in ds.test.services().iter().take(200) {
            assert!(!ds.seed_ips.contains(&key.ip.0));
        }
        // Test services only on allowed ports.
        let ports = ds.ports.as_ref().unwrap();
        for key in ds.test.services().iter().take(200) {
            assert!(ports.contains(key.port));
        }
    }

    #[test]
    fn censys_seed_size_matches_fraction() {
        let net = net();
        let ds = censys_dataset(&net, 100, 0.05, 0, 1);
        let expect = (net.universe_size() as f64 * 0.05).round() as u64;
        assert_eq!(ds.seed_size(), expect);
    }

    #[test]
    fn lzr_respects_sample_and_threshold() {
        let net = net();
        let ds = lzr_dataset(&net, 0.20, 0.5, 2, 0, 2);
        let visible = ds.visible_ips.as_ref().unwrap();
        for key in ds.test.services().iter().take(500) {
            assert!(visible.contains(&key.ip.0));
            assert!(!ds.seed_ips.contains(&key.ip.0));
        }
        // Every surviving port has >2 responsive test IPs.
        for (port, count) in ds.test.per_port() {
            assert!(*count > 2, "port {port} kept with only {count} IPs");
        }
    }

    #[test]
    fn lzr_seed_share_splits_sample() {
        let net = net();
        let ds = lzr_dataset(&net, 0.10, 0.5, 2, 0, 3);
        let visible_n = ds.visible_ips.as_ref().unwrap().len();
        let seed_n = ds.seed_ips.len();
        assert!((seed_n as f64 / visible_n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn datasets_are_deterministic() {
        let net = net();
        let a = lzr_dataset(&net, 0.10, 0.5, 2, 0, 42);
        let b = lzr_dataset(&net, 0.10, 0.5, 2, 0, 42);
        assert_eq!(a.test.total(), b.test.total());
        assert_eq!(a.seed_ips, b.seed_ips);
        let c = lzr_dataset(&net, 0.10, 0.5, 2, 0, 43);
        assert_ne!(a.seed_ips, c.seed_ips);
    }

    #[test]
    fn threshold_filter_unit() {
        use gps_types::{Ip, Port};
        let mk = |ip: u32, port: u16| ServiceKey::new(Ip(ip), Port(port));
        // Port 10: 3 IPs; port 20: 2 IPs.
        let services = vec![mk(1, 10), mk(2, 10), mk(3, 10), mk(1, 20), mk(2, 20)];
        let kept = apply_port_threshold(services, 2);
        assert!(kept.iter().all(|k| k.port == Port(10)));
        assert_eq!(kept.len(), 3);
    }
}
