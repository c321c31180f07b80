//! Ground-truth statistics used across experiments and baselines.
//!
//! These are the quantities the paper derives from its ground-truth datasets:
//! per-port service counts (the denominator of Equation 2's per-port
//! normalization and the ordering for the optimal-port-order baseline),
//! top-K port lists (the Censys-style workload), and the §4 predictive-
//! feature measurements.

use std::collections::HashMap;

use gps_types::{IntMap, Ip, Port, ServiceKey};

use crate::internet::Internet;

/// Per-port population snapshot of a ground truth on a given day.
#[derive(Debug, Clone)]
pub struct PortCensus {
    /// (port, live service count), descending by count.
    pub by_count: Vec<(Port, u64)>,
    counts: IntMap<u16, u64>,
    pub total_services: u64,
    pub day: u16,
}

impl PortCensus {
    pub fn new(net: &Internet, day: u16) -> Self {
        let by_count = net.port_census(day);
        let counts = by_count.iter().map(|&(p, c)| (p.0, c)).collect();
        let total_services = by_count.iter().map(|&(_, c)| c).sum();
        PortCensus {
            by_count,
            counts,
            total_services,
            day,
        }
    }

    /// Live service count on a port.
    pub fn count(&self, port: Port) -> u64 {
        self.counts.get(&port.0).copied().unwrap_or(0)
    }

    /// The `k` most populated ports (the Censys-style "top 2K ports").
    pub fn top_ports(&self, k: usize) -> Vec<Port> {
        self.by_count.iter().take(k).map(|&(p, _)| p).collect()
    }

    /// Ports with strictly more than `min_ips` responsive IPs — the paper
    /// filters its all-port evaluation to ports with > 2 responsive IPs.
    pub fn ports_with_more_than(&self, min_ips: u64) -> Vec<Port> {
        self.by_count
            .iter()
            .take_while(|&&(_, c)| c > min_ips)
            .map(|&(p, _)| p)
            .collect()
    }

    /// Number of distinct populated ports.
    pub fn num_ports(&self) -> usize {
        self.by_count.len()
    }

    /// Fraction of all services on the `k` most popular ports (§3 cites 5%
    /// of all services living on the top 10 ports).
    pub fn share_of_top(&self, k: usize) -> f64 {
        if self.total_services == 0 {
            return 0.0;
        }
        let top: u64 = self.by_count.iter().take(k).map(|&(_, c)| c).sum();
        top as f64 / self.total_services as f64
    }
}

/// §4 measurement: for each port, the fraction of its hosts that also
/// respond on at least one other port. The paper finds ≥25% everywhere.
pub fn second_port_fraction(net: &Internet, day: u16) -> Vec<(Port, f64)> {
    let mut per_port: HashMap<u16, (u64, u64)> = HashMap::new(); // (hosts, multi)
    for (_, host) in net.iter_hosts() {
        let open: Vec<Port> = host.open_ports(day).collect();
        for &p in &open {
            let e = per_port.entry(p.0).or_default();
            e.0 += 1;
            if open.len() > 1 {
                e.1 += 1;
            }
        }
    }
    let mut v: Vec<(Port, f64)> = per_port
        .into_iter()
        .map(|(p, (hosts, multi))| (Port(p), multi as f64 / hosts as f64))
        .collect();
    v.sort_by_key(|&(p, _)| p);
    v
}

/// §4 measurement: fraction of services that co-occur — i.e. share their
/// port with at least one other service in the same /16. The paper reports
/// 81% overall, dropping to ~0.02% on unpopular ports.
pub fn slash16_cooccurrence(net: &Internet, day: u16) -> Slash16Cooccurrence {
    // Count services per (port, /16).
    let mut cell: HashMap<(u16, u32), u64> = HashMap::new();
    for (ip, host) in net.iter_hosts() {
        for port in host.open_ports(day) {
            *cell.entry((port.0, ip.slash16().base().0)).or_default() += 1;
        }
    }
    let mut per_port: HashMap<u16, (u64, u64)> = HashMap::new(); // (total, cooccurring)
    for (&(port, _), &count) in &cell {
        let e = per_port.entry(port).or_default();
        e.0 += count;
        if count >= 2 {
            e.1 += count;
        }
    }
    let total: u64 = per_port.values().map(|&(t, _)| t).sum();
    let cooccurring: u64 = per_port.values().map(|&(_, c)| c).sum();
    let mut by_port: Vec<(Port, f64, u64)> = per_port
        .into_iter()
        .map(|(p, (t, c))| (Port(p), c as f64 / t as f64, t))
        .collect();
    by_port.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    Slash16Cooccurrence {
        overall_fraction: cooccurring as f64 / total as f64,
        by_port,
    }
}

/// Result of [`slash16_cooccurrence`].
#[derive(Debug, Clone)]
pub struct Slash16Cooccurrence {
    /// Fraction of all services sharing (port, /16) with another service.
    pub overall_fraction: f64,
    /// (port, co-occurring fraction, service count), descending by count.
    pub by_port: Vec<(Port, f64, u64)>,
}

/// §7 measurement: fraction of services whose TTL differs from their host's
/// baseline (the port-forwarding signature), restricted to ports outside the
/// `top_exclude` most popular. The paper: ≥55% across the 99% most
/// uncommon ports.
pub fn forwarded_fraction_uncommon(net: &Internet, day: u16, top_exclude: usize) -> f64 {
    let census = PortCensus::new(net, day);
    let popular: std::collections::HashSet<u16> =
        census.top_ports(top_exclude).iter().map(|p| p.0).collect();
    let mut total = 0u64;
    let mut forwarded = 0u64;
    for (_, host) in net.iter_hosts() {
        for s in &host.services {
            if s.alive(day) && !popular.contains(&s.port.0) {
                total += 1;
                if s.ttl != host.ttl_base {
                    forwarded += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        forwarded as f64 / total as f64
    }
}

/// Enumerate every live service (ground-truth set for recall computations).
pub fn all_services(net: &Internet, day: u16) -> Vec<ServiceKey> {
    let mut v: Vec<ServiceKey> = net
        .iter_hosts()
        .flat_map(|(ip, host)| {
            host.services
                .iter()
                .filter(move |s| s.alive(day))
                .map(move |s| ServiceKey::new(ip, s.port))
        })
        .collect();
    v.sort_unstable();
    v
}

/// Services restricted to a set of ports and an IP predicate — used to build
/// the Censys-style (top-K ports, all IPs) and LZR-style (all ports, sampled
/// IPs) ground truths.
pub fn services_where(
    net: &Internet,
    day: u16,
    port_ok: impl Fn(Port) -> bool,
    ip_ok: impl Fn(Ip) -> bool,
) -> Vec<ServiceKey> {
    let mut v: Vec<ServiceKey> = net
        .iter_hosts()
        .filter(|(ip, _)| ip_ok(*ip))
        .flat_map(|(ip, host)| {
            host.services
                .iter()
                .filter(move |s| s.alive(day))
                .filter(|s| port_ok(s.port))
                .map(move |s| ServiceKey::new(ip, s.port))
        })
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;

    fn net() -> Internet {
        Internet::generate(&UniverseConfig::tiny(21))
    }

    #[test]
    fn census_totals_match() {
        let n = net();
        let c = PortCensus::new(&n, 0);
        assert_eq!(c.total_services, n.total_services());
        assert_eq!(c.top_ports(3).len(), 3);
        let all: u64 = c.by_count.iter().map(|&(_, x)| x).sum();
        assert_eq!(all, c.total_services);
        // count() agrees with by_count.
        for &(p, expect) in c.by_count.iter().take(10) {
            assert_eq!(c.count(p), expect);
        }
        assert_eq!(c.count(Port(1)), 0, "port 1 should be empty");
    }

    #[test]
    fn top_share_is_monotone() {
        let c = PortCensus::new(&net(), 0);
        let s10 = c.share_of_top(10);
        let s100 = c.share_of_top(100);
        assert!(s10 > 0.0 && s10 <= s100 && s100 <= 1.0);
    }

    #[test]
    fn ports_filter_threshold() {
        let c = PortCensus::new(&net(), 0);
        let filtered = c.ports_with_more_than(2);
        assert!(!filtered.is_empty());
        for p in &filtered {
            assert!(c.count(*p) > 2);
        }
        // Census is count-descending so take_while is exact: verify against
        // a full scan.
        let exact = c.by_count.iter().filter(|&&(_, x)| x > 2).count();
        assert_eq!(filtered.len(), exact);
    }

    #[test]
    fn second_port_fraction_matches_paper_floor() {
        let n = net();
        let fractions = second_port_fraction(&n, 0);
        assert!(!fractions.is_empty());
        // §4: "for every port, at least 25% of hosts also respond on the
        // same second port" — check it holds for the populated ports.
        let census = PortCensus::new(&n, 0);
        let mut violations = 0;
        let mut considered = 0;
        for &(port, frac) in &fractions {
            if census.count(port) >= 5 {
                considered += 1;
                if frac < 0.25 {
                    violations += 1;
                }
            }
        }
        assert!(considered > 20);
        assert!(
            (violations as f64) < considered as f64 * 0.1,
            "{violations}/{considered} populated ports below 25% second-port fraction"
        );
    }

    #[test]
    fn slash16_cooccurrence_shape() {
        let n = net();
        let co = slash16_cooccurrence(&n, 0);
        assert!(
            co.overall_fraction > 0.5,
            "most services should co-occur in their /16, got {}",
            co.overall_fraction
        );
        // Popular ports co-occur more than the tail.
        let head: f64 = co.by_port.iter().take(5).map(|&(_, f, _)| f).sum::<f64>() / 5.0;
        let tail: f64 = co
            .by_port
            .iter()
            .rev()
            .take(50)
            .map(|&(_, f, _)| f)
            .sum::<f64>()
            / 50.0;
        assert!(head > tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn all_services_sorted_unique() {
        let n = net();
        let s = all_services(&n, 0);
        assert_eq!(s.len() as u64, n.total_services());
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn services_where_filters() {
        let n = net();
        let only80 = services_where(&n, 0, |p| p == Port(80), |_| true);
        assert!(!only80.is_empty());
        assert!(only80.iter().all(|k| k.port == Port(80)));
        let census = PortCensus::new(&n, 0);
        assert_eq!(only80.len() as u64, census.count(Port(80)));
    }

    #[test]
    fn forwarded_fraction_is_substantial_in_tail() {
        let n = net();
        let f = forwarded_fraction_uncommon(&n, 0, 20);
        assert!(f > 0.1, "forwarding signature too rare in tail: {f}");
    }
}
