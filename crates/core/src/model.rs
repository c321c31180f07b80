//! The conditional-probability model (§5.2, Equations 4–7).
//!
//! For every conditioning tuple K observed in the seed set, the model stores
//!
//! - `hosts(K)` — how many seed hosts exhibit K, and
//! - `cooccur(K, Portₐ)` — how many of those also respond on Portₐ,
//!
//! so that `P(Portₐ | K) = cooccur(K, Portₐ) / hosts(K)`. This *is* the
//! paper's "pairwise co-occurrence matrix for every feature and port"
//! (§5.5): enumerating ordered service pairs within each host is the
//! self-join, and the two grouped counts are the aggregation. The paper
//! runs this on BigQuery (§5.5); here it is one sequential fold over the
//! hosts, which at this repo's scale takes milliseconds.

use std::collections::HashMap;
use std::time::Duration;

use gps_types::{FeatureValue, Port};

use crate::config::Interactions;
use crate::host::{service_keys, HostRecord};

/// A network-layer conditioning value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetKey {
    /// (prefix length, subnet base address)
    Slash(u8, u32),
    /// ASN number
    Asn(u32),
}

impl std::fmt::Display for NetKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetKey::Slash(len, base) => write!(f, "{}/{len}", gps_types::Ip(*base)),
            NetKey::Asn(n) => write!(f, "AS{n}"),
        }
    }
}

/// A conditioning tuple: always anchored on an observed port (`Port_b`),
/// optionally refined by an application feature value and/or a network key.
/// The `Ord` impl gives snapshots a canonical key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CondKey {
    /// Eq. 4
    Port(Port),
    /// Eq. 5
    PortApp(Port, FeatureValue),
    /// Eq. 6
    PortNet(Port, NetKey),
    /// Eq. 7
    PortAppNet(Port, FeatureValue, NetKey),
}

impl CondKey {
    /// The anchor port (`Port_b`).
    pub fn port(&self) -> Port {
        match self {
            CondKey::Port(p)
            | CondKey::PortApp(p, _)
            | CondKey::PortNet(p, _)
            | CondKey::PortAppNet(p, _, _) => *p,
        }
    }

    /// The application feature, if the key has one.
    pub fn app(&self) -> Option<FeatureValue> {
        match self {
            CondKey::PortApp(_, f) | CondKey::PortAppNet(_, f, _) => Some(*f),
            _ => None,
        }
    }

    /// The network key, if the key has one.
    pub fn net(&self) -> Option<NetKey> {
        match self {
            CondKey::PortNet(_, n) | CondKey::PortAppNet(_, _, n) => Some(*n),
            _ => None,
        }
    }

    /// Which equation class the key belongs to (4, 5, 6 or 7).
    pub fn class(&self) -> u8 {
        match self {
            CondKey::Port(_) => 4,
            CondKey::PortApp(_, _) => 5,
            CondKey::PortNet(_, _) => 6,
            CondKey::PortAppNet(_, _, _) => 7,
        }
    }
}

/// Counts for one conditioning tuple.
#[derive(Debug, Clone, Default)]
pub struct KeyStats {
    /// Number of seed hosts exhibiting the tuple.
    pub hosts: u32,
    /// Co-occurrence counts: (target port, hosts with both), sorted by count
    /// descending then port ascending.
    pub targets: Vec<(Port, u32)>,
}

impl KeyStats {
    /// P(target | key).
    pub fn probability(&self, target: Port) -> f64 {
        if self.hosts == 0 {
            return 0.0;
        }
        self.targets
            .iter()
            .find(|&&(p, _)| p == target)
            .map(|&(_, c)| c as f64 / self.hosts as f64)
            .unwrap_or(0.0)
    }
}

/// Build statistics (Table 2's compute columns).
#[derive(Debug, Clone)]
pub struct BuildStats {
    pub hosts_in: usize,
    pub multi_service_hosts: usize,
    pub distinct_keys: usize,
    pub cooccur_entries: u64,
    /// Self-join volume: Σₕ k·(k−1) ordered service pairs over hosts with
    /// k services (Table 2's data-processed column).
    pub join_pairs: u64,
    pub elapsed: Duration,
}

/// The trained model.
#[derive(Debug, Clone)]
pub struct CondModel {
    keys: HashMap<CondKey, KeyStats>,
    interactions: Interactions,
}

impl CondModel {
    /// Compute the co-occurrence model over host-grouped seed records.
    pub fn build(hosts: &[HostRecord], interactions: Interactions) -> (CondModel, BuildStats) {
        let start = std::time::Instant::now();

        // key → (host count, target port → co-occurrence count)
        let mut counts: HashMap<CondKey, (u32, HashMap<Port, u32>)> = HashMap::new();
        let mut join_pairs = 0u64;
        for host in hosts {
            let k = host.services.len() as u64;
            join_pairs += k * k.saturating_sub(1);
            for b in &host.services {
                service_keys(b, &host.nets, interactions, &mut |key| {
                    let entry = counts.entry(key).or_default();
                    entry.0 += 1;
                    for a in &host.services {
                        if a.port != b.port {
                            *entry.1.entry(a.port).or_default() += 1;
                        }
                    }
                });
            }
        }

        let mut cooccur_entries = 0u64;
        let keys: HashMap<CondKey, KeyStats> = counts
            .into_iter()
            .map(|(key, (host_count, targets))| {
                cooccur_entries += targets.len() as u64;
                let mut targets: Vec<(Port, u32)> = targets.into_iter().collect();
                targets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                (
                    key,
                    KeyStats {
                        hosts: host_count,
                        targets,
                    },
                )
            })
            .collect();

        let stats = BuildStats {
            hosts_in: hosts.len(),
            multi_service_hosts: hosts.iter().filter(|h| h.services.len() > 1).count(),
            distinct_keys: keys.len(),
            cooccur_entries,
            join_pairs,
            elapsed: start.elapsed(),
        };
        (CondModel { keys, interactions }, stats)
    }

    /// Stats for a key, if observed in the seed.
    pub fn stats(&self, key: &CondKey) -> Option<&KeyStats> {
        self.keys.get(key)
    }

    /// `P(target | key)`; 0.0 for unseen keys.
    pub fn probability(&self, key: &CondKey, target: Port) -> f64 {
        self.keys
            .get(key)
            .map(|s| s.probability(target))
            .unwrap_or(0.0)
    }

    /// Iterate all keys (deterministic order NOT guaranteed).
    pub fn iter(&self) -> impl Iterator<Item = (&CondKey, &KeyStats)> {
        self.keys.iter()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn interactions(&self) -> Interactions {
        self.interactions
    }

    /// Over all keys derivable from the services of `host`, the maximum
    /// P(target | key) and the service (by index) + key achieving it.
    ///
    /// This is step 2 of the §5.3 priors algorithm: for every (IP, Portₐ),
    /// find the Port_b (with its best feature refinement) most predictive
    /// of Portₐ.
    pub fn best_predictor_for(
        &self,
        host: &HostRecord,
        target: Port,
    ) -> Option<(usize, CondKey, f64)> {
        let mut best: Option<(usize, CondKey, f64)> = None;
        for (idx, b) in host.services.iter().enumerate() {
            if b.port == target {
                continue;
            }
            service_keys(b, &host.nets, self.interactions, &mut |key| {
                let p = self.probability(&key, target);
                if p > 0.0 {
                    // Ties break toward the simpler equation class: generic
                    // tuples have larger support (hosts(Port) ⊇
                    // hosts(Port, App)), so at equal estimated probability
                    // the simpler key is the statistically safer rule and
                    // matches more future hosts. This also reproduces
                    // Table 3's ranking, where (Port, Protocol) and bare
                    // Port dominate the most-predictive-feature census.
                    let better = match &best {
                        None => true,
                        Some((_, bk, bp)) => p > *bp || (p == *bp && key.class() < bk.class()),
                    };
                    if better {
                        best = Some((idx, key, p));
                    }
                }
            });
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetFeature;
    use crate::host::group_by_host;
    use gps_scan::ServiceObservation;
    use gps_types::{FeatureKind, Ip, Protocol, Sym};

    fn obs(ip: u32, port: u16, feature: Option<u32>) -> ServiceObservation {
        ServiceObservation {
            ip: Ip(ip),
            port: Port(port),
            ttl: 60,
            protocol: Protocol::Http,
            content: Sym(0),
            features: feature
                .map(|v| vec![FeatureValue::new(FeatureKind::HttpServer, Sym(v))])
                .unwrap_or_default(),
        }
    }

    /// Three hosts: two run {80, 443}, one runs {80} alone.
    fn simple_hosts() -> Vec<HostRecord> {
        let observations = vec![
            obs(1, 80, Some(7)),
            obs(1, 443, None),
            obs(2, 80, Some(7)),
            obs(2, 443, None),
            obs(3, 80, Some(8)),
        ];
        group_by_host(&observations, &[NetFeature::Slash(16)], &|_| None)
    }

    fn build(hosts: &[HostRecord]) -> CondModel {
        CondModel::build(hosts, Interactions::ALL).0
    }

    #[test]
    fn eq4_probabilities() {
        let model = build(&simple_hosts());
        // P(443 | 80) = 2 hosts with both / 3 hosts with 80.
        let p = model.probability(&CondKey::Port(Port(80)), Port(443));
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        // P(80 | 443) = 2/2.
        let p = model.probability(&CondKey::Port(Port(443)), Port(80));
        assert!((p - 1.0).abs() < 1e-12);
        // Unseen target.
        assert_eq!(model.probability(&CondKey::Port(Port(80)), Port(22)), 0.0);
        // Unseen key.
        assert_eq!(model.probability(&CondKey::Port(Port(9999)), Port(80)), 0.0);
    }

    #[test]
    fn eq5_feature_refinement_beats_eq4() {
        let model = build(&simple_hosts());
        // Feature 7 on port 80 occurs on hosts 1,2 which both run 443:
        // P(443 | 80, f=7) = 1.0 > P(443 | 80) = 2/3.
        let f = FeatureValue::new(FeatureKind::HttpServer, Sym(7));
        let p = model.probability(&CondKey::PortApp(Port(80), f), Port(443));
        assert!((p - 1.0).abs() < 1e-12);
        // Feature 8 host runs nothing else.
        let f8 = FeatureValue::new(FeatureKind::HttpServer, Sym(8));
        assert_eq!(
            model.probability(&CondKey::PortApp(Port(80), f8), Port(443)),
            0.0
        );
    }

    #[test]
    fn eq6_network_keys_counted() {
        let model = build(&simple_hosts());
        // All three IPs share /16 0.0.0.0/16.
        let key = CondKey::PortNet(Port(80), NetKey::Slash(16, 0));
        let stats = model.stats(&key).expect("net key present");
        assert_eq!(stats.hosts, 3);
        assert!((stats.probability(Port(443)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn denominator_consistency_invariant() {
        // For every key: every target count ≤ host count (P ≤ 1).
        let model = build(&simple_hosts());
        for (_, stats) in model.iter() {
            for &(_, c) in &stats.targets {
                assert!(c <= stats.hosts);
            }
        }
    }

    #[test]
    fn single_service_hosts_contribute_denominators_only() {
        let observations = vec![obs(1, 80, None)];
        let hosts = group_by_host(&observations, &[], &|_| None);
        let model = build(&hosts);
        let stats = model.stats(&CondKey::Port(Port(80))).unwrap();
        assert_eq!(stats.hosts, 1);
        assert!(stats.targets.is_empty());
    }

    #[test]
    fn best_predictor_finds_strongest_key() {
        let hosts = simple_hosts();
        let model = build(&hosts);
        // On host 1, target 443: best predictor should be the (80, f=7)
        // refinement with probability 1.0.
        let host = &hosts[0];
        let (idx, key, p) = model.best_predictor_for(host, Port(443)).unwrap();
        assert_eq!(host.services[idx].port, Port(80));
        assert!((p - 1.0).abs() < 1e-12);
        assert!(p >= model.probability(&CondKey::Port(Port(80)), Port(443)));
        assert_eq!(key.port(), Port(80));
    }

    #[test]
    fn best_predictor_none_for_single_service_host() {
        let observations = vec![obs(9, 8080, None)];
        let hosts = group_by_host(&observations, &[], &|_| None);
        let model = build(&simple_hosts());
        assert!(model.best_predictor_for(&hosts[0], Port(8080)).is_none());
    }

    #[test]
    fn build_stats_are_plausible() {
        let (_, stats) = CondModel::build(&simple_hosts(), Interactions::ALL);
        assert_eq!(stats.hosts_in, 3);
        assert_eq!(stats.multi_service_hosts, 2);
        assert!(stats.distinct_keys > 0);
        assert!(stats.cooccur_entries > 0);
        // Join volume: hosts 1,2 have k=2 → 2 pairs each; host 3 none.
        assert_eq!(stats.join_pairs, 4);
    }
}
