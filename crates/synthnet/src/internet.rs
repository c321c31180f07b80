//! The ground-truth Internet.
//!
//! [`Internet::generate`] instantiates every host in the allocated address
//! space from the template catalog, places services on ports (including
//! forwarding and random placements), generates banners, assigns churn
//! lifetimes, and plants middleboxes serving pseudo-services. The result is
//! a queryable ground truth the scanner probes — the stand-in for the live
//! IPv4 Internet, the Censys universal dataset and the LZR dataset at once.
//!
//! Determinism: every per-host decision derives from `mix64(seed, ip)`, so
//! the universe is a pure function of its config, independent of generation
//! order (asserted by tests).

use std::sync::Arc;

use gps_types::rng::mix64;
use gps_types::{Asn, FeatureValue, IntMap, Interner, Ip, Port, Protocol, Rng, Subnet};

use crate::banner::BannerCache;
use crate::config::UniverseConfig;
use crate::template::{Placement, TemplateId, CATALOG};
use crate::topology::{BlockInfo, Topology};

/// How a service's port came to be (analysis metadata; scanners never see
/// this — it exists so experiments can decompose coverage by predictability
/// class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// IANA-assigned or vendor-fixed port (the head of the distribution).
    Anchor,
    /// Small per-host alternates pool.
    Pool,
    /// Per-(template, /16 deployment) port.
    Spread,
    /// Per-(template, AS) port.
    AsPool,
    /// Uniformly random port (FRITZ-style).
    Random,
    /// Relocated by router port-forwarding.
    Forwarded,
}

/// A service that truly exists on a host.
#[derive(Debug, Clone)]
pub struct GroundService {
    pub port: Port,
    pub protocol: Protocol,
    /// How the port was chosen (analysis only).
    pub placement: PlacementKind,
    /// True if the service reached its port through (simulated) router
    /// port-forwarding — its TTL differs from the host's other services.
    pub forwarded: bool,
    /// Observed IP TTL of response packets.
    pub ttl: u8,
    /// The service exists for `day < dies_day` (§3 churn).
    pub dies_day: u16,
    /// Application-layer feature values (banner-derived; network features
    /// are derived from the IP at extraction time).
    pub features: Vec<FeatureValue>,
}

impl GroundService {
    /// Whether the service is alive on the given day.
    pub fn alive(&self, day: u16) -> bool {
        day < self.dies_day
    }
}

/// A real host and its services.
#[derive(Debug, Clone)]
pub struct Host {
    pub template: TemplateId,
    /// Baseline observed TTL for non-forwarded services.
    pub ttl_base: u8,
    /// Services sorted by port (at most one service per port).
    pub services: Vec<GroundService>,
}

impl Host {
    pub fn service_on(&self, port: Port) -> Option<&GroundService> {
        self.services
            .binary_search_by_key(&port, |s| s.port)
            .ok()
            .map(|i| &self.services[i])
    }

    pub fn template_name(&self) -> &'static str {
        CATALOG[self.template as usize].name
    }

    /// Open ports alive on `day`.
    pub fn open_ports(&self, day: u16) -> impl Iterator<Item = Port> + '_ {
        self.services
            .iter()
            .filter(move |s| s.alive(day))
            .map(|s| s.port)
    }
}

/// A middlebox answering >1000 contiguous ports with near-identical content
/// (Appendix B's pseudo-services).
#[derive(Debug, Clone)]
pub struct PseudoHost {
    pub ip: Ip,
    pub first_port: u16,
    pub last_port: u16,
    /// Content hash after stripping dynamic fields — identical across all of
    /// the host's ports, which is what the filter keys on.
    pub content: gps_types::Sym,
    pub ttl: u8,
}

impl PseudoHost {
    pub fn responds_on(&self, port: Port) -> bool {
        (self.first_port..=self.last_port).contains(&port.0)
    }

    pub fn num_ports(&self) -> u32 {
        (self.last_port - self.first_port) as u32 + 1
    }

    /// What a probe of any port in the range observes.
    pub fn view(&self) -> ProbeView<'static> {
        ProbeView::Pseudo {
            content: self.content,
            ttl: self.ttl,
        }
    }
}

/// What a single SYN+data probe of (ip, port) observes.
#[derive(Debug, Clone, Copy)]
pub enum ProbeView<'a> {
    /// A real service.
    Real(&'a GroundService),
    /// A middlebox pseudo-service.
    Pseudo { content: gps_types::Sym, ttl: u8 },
}

impl ProbeView<'_> {
    pub fn is_pseudo(&self) -> bool {
        matches!(self, ProbeView::Pseudo { .. })
    }
}

/// The generated ground truth.
pub struct Internet {
    config: UniverseConfig,
    topology: Topology,
    hosts: IntMap<u32, Host>,
    /// Sorted list of real host addresses.
    host_ips: Vec<u32>,
    /// Per-port sorted address lists (real services, any lifetime).
    port_index: IntMap<u16, Vec<u32>>,
    /// Middleboxes, sorted by address.
    pseudo: Vec<PseudoHost>,
    interner: Arc<Interner>,
    /// Real services alive on day 0.
    total_services_day0: u64,
}

impl Internet {
    /// Generate the universe. Cost is linear in host count (≈3×10⁵ for the
    /// standard config) and entirely deterministic. A [`BannerCache`]
    /// formats and interns each shared banner value once per universe, so
    /// the per-host unique values are most of the interning left. On a
    /// 2-vCPU Xeon (release) 32 /16s take 0.23–0.35 s and 128 take 0.8–1.2 s.
    pub fn generate(config: &UniverseConfig) -> Internet {
        config.validate().expect("invalid universe config");
        let interner = Arc::new(Interner::new());
        let mut rng = Rng::new(config.seed).fork(0x7090);
        let topology = Topology::generate(config, &mut rng);

        let mut hosts = IntMap::default();
        let mut pseudo = Vec::new();
        let mut banners = BannerCache::new(&interner);

        for block in topology.blocks() {
            generate_block(config, block, &mut banners, &mut hosts, &mut pseudo);
        }

        let mut host_ips: Vec<u32> = hosts.keys().copied().collect();
        host_ips.sort_unstable();
        pseudo.sort_by_key(|p| p.ip);

        let mut port_index: IntMap<u16, Vec<u32>> = IntMap::default();
        let mut total = 0u64;
        for (&ip, host) in &hosts {
            for s in &host.services {
                port_index.entry(s.port.0).or_default().push(ip);
                if s.alive(0) {
                    total += 1;
                }
            }
        }
        for ips in port_index.values_mut() {
            ips.sort_unstable();
        }

        Internet {
            config: config.clone(),
            topology,
            hosts,
            host_ips,
            port_index,
            pseudo,
            interner,
            total_services_day0: total,
        }
    }

    // ------------------------------------------------------------- queries

    /// Probe one (ip, port). Returns what a scanner's SYN + data exchange
    /// would observe, or `None` if nothing answers.
    pub fn probe(&self, ip: Ip, port: Port, day: u16) -> Option<ProbeView<'_>> {
        if let Some(host) = self.hosts.get(&ip.0) {
            if let Some(s) = host.service_on(port) {
                if s.alive(day) {
                    return Some(ProbeView::Real(s));
                }
            }
        }
        if let Ok(i) = self.pseudo.binary_search_by_key(&ip, |p| p.ip) {
            let p = &self.pseudo[i];
            if p.responds_on(port) {
                return Some(p.view());
            }
        }
        None
    }

    /// The real service at (ip, port) if alive, ignoring middleboxes.
    pub fn service(&self, ip: Ip, port: Port, day: u16) -> Option<&GroundService> {
        self.hosts
            .get(&ip.0)
            .and_then(|h| h.service_on(port))
            .filter(|s| s.alive(day))
    }

    pub fn host(&self, ip: Ip) -> Option<&Host> {
        self.hosts.get(&ip.0)
    }

    /// All real host addresses, ascending.
    pub fn host_ips(&self) -> &[u32] {
        &self.host_ips
    }

    /// Sorted addresses with a real service on `port` (any lifetime).
    pub fn ips_on_port(&self, port: Port) -> &[u32] {
        self.port_index
            .get(&port.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The real services alive on `port` inside `subnet`, ascending by
    /// address: a lazy walk of the sorted port index.
    pub fn ips_on_port_in(
        &self,
        port: Port,
        subnet: Subnet,
        day: u16,
    ) -> impl Iterator<Item = (Ip, &GroundService)> + '_ {
        let ips = self.ips_on_port(port);
        let hi = subnet.last().0;
        let start = ips.partition_point(|&x| x < subnet.first().0);
        ips[start..]
            .iter()
            .take_while(move |&&x| x <= hi)
            .filter_map(move |&x| self.service(Ip(x), port, day).map(|s| (Ip(x), s)))
    }

    /// Middlebox hosts (sorted by address).
    pub fn pseudo_hosts(&self) -> &[PseudoHost] {
        &self.pseudo
    }

    /// Middlebox addresses that fall inside `subnet` and respond on `port`.
    pub fn pseudo_in(&self, port: Port, subnet: Subnet) -> Vec<&PseudoHost> {
        let lo = subnet.first();
        let hi = subnet.last();
        let start = self.pseudo.partition_point(|p| p.ip < lo);
        self.pseudo[start..]
            .iter()
            .take_while(|p| p.ip <= hi)
            .filter(|p| p.responds_on(port))
            .collect()
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    pub fn asn_of(&self, ip: Ip) -> Option<Asn> {
        self.topology.asn_of(ip)
    }

    /// Total addresses in the simulated space (denominator of the "number of
    /// 100% scans" bandwidth unit).
    pub fn universe_size(&self) -> u64 {
        self.topology.universe_size()
    }

    /// Size of the simulated port space (the "all 65K ports" analog).
    pub fn port_space(&self) -> u16 {
        self.config.port_space
    }

    /// The full simulated port set (`0..port_space`).
    pub fn all_ports(&self) -> gps_types::PortSet {
        gps_types::PortSet::from_ports((0..self.config.port_space).map(Port))
    }

    /// Number of real services alive on day 0.
    pub fn total_services(&self) -> u64 {
        self.total_services_day0
    }

    /// Number of real services alive on the given day.
    pub fn total_services_on(&self, day: u16) -> u64 {
        self.hosts
            .values()
            .map(|h| h.services.iter().filter(|s| s.alive(day)).count() as u64)
            .sum()
    }

    /// Iterate (ip, host) pairs in unspecified order.
    pub fn iter_hosts(&self) -> impl Iterator<Item = (Ip, &Host)> {
        self.hosts.iter().map(|(&ip, h)| (Ip(ip), h))
    }

    /// Count of real services alive on `day`, per port, descending by count.
    pub fn port_census(&self, day: u16) -> Vec<(Port, u64)> {
        let mut counts: IntMap<u16, u64> = IntMap::default();
        for host in self.hosts.values() {
            for s in &host.services {
                if s.alive(day) {
                    *counts.entry(s.port.0).or_default() += 1;
                }
            }
        }
        let mut v: Vec<(Port, u64)> = counts.into_iter().map(|(p, c)| (Port(p), c)).collect();
        // Deterministic order: by count desc, then port asc.
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl std::fmt::Debug for Internet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Internet")
            .field("universe_size", &self.universe_size())
            .field("hosts", &self.hosts.len())
            .field("services_day0", &self.total_services_day0)
            .field("pseudo_hosts", &self.pseudo.len())
            .finish()
    }
}

// ------------------------------------------------------------- generation

fn generate_block(
    config: &UniverseConfig,
    block: &BlockInfo,
    banners: &mut BannerCache,
    hosts: &mut IntMap<u32, Host>,
    pseudo: &mut Vec<PseudoHost>,
) {
    let mut block_rng = Rng::new(mix64(config.seed, block.base as u64));
    let num_real = ((block.density * 65536.0) as usize).min(60000);
    let num_pseudo = ((num_real as f64) * config.pseudo_host_fraction).round() as usize;

    // Distinct host suffixes for real + pseudo hosts.
    let suffixes = block_rng.sample_indices(65536, num_real + num_pseudo);

    // Template distribution for this block: profile weights, plus affinity
    // templates dominating their home network.
    let mut weights: Vec<f64> = CATALOG
        .iter()
        .map(|t| match t.as_affinity {
            Some(slot) => {
                if block.affinity == Some(slot) {
                    t.weight[block.profile.index()]
                } else {
                    0.0
                }
            }
            None => t.weight[block.profile.index()],
        })
        .collect();
    // Access-pool blocks are near-homogeneous: one CPE model dominates the
    // whole DHCP range (this is what gives the priors scan (port, subnet)
    // cells with 30%+ hit rates — Figure 3's opening precision).
    if block.pool {
        let dominant = block_rng.choose_weighted(&weights);
        weights[dominant] *= 60.0;
    }

    for (n, &suffix) in suffixes.iter().enumerate() {
        let ip = Ip(block.base | suffix as u32);
        let host_key = mix64(config.seed, ip.0 as u64);
        let mut rng = Rng::new(host_key);

        if n < num_pseudo {
            // Middlebox: >1000 contiguous ports of identical filtered
            // content (Appendix B).
            let max_span = (config.port_space / 4).max(1001);
            let span = 1000 + rng.gen_range((max_span - 1000) as u64) as u16;
            let first = rng.gen_range((config.port_space - span) as u64) as u16;
            let vendor = rng.gen_range(5);
            pseudo.push(PseudoHost {
                ip,
                first_port: first,
                last_port: first + span,
                content: banners.middlebox_content(vendor as u32),
                ttl: sample_ttl(&mut rng, 0),
            });
            continue;
        }

        let template_id = rng.choose_weighted(&weights) as TemplateId;
        let host = instantiate_host(config, block, banners, template_id, host_key, &mut rng);
        if !host.services.is_empty() {
            hosts.insert(ip.0, host);
        }
    }
}

fn sample_ttl(rng: &mut Rng, extra_hops: u8) -> u8 {
    let initial: u8 = if rng.chance(0.6) { 64 } else { 128 };
    let hops = 5 + rng.gen_range(20) as u8 + extra_hops;
    initial.saturating_sub(hops)
}

fn instantiate_host(
    config: &UniverseConfig,
    block: &BlockInfo,
    banners: &mut BannerCache,
    template_id: TemplateId,
    host_key: u64,
    rng: &mut Rng,
) -> Host {
    let template = &CATALOG[template_id as usize];
    let ttl_base = sample_ttl(rng, 0);
    let mut services: Vec<GroundService> = Vec::new();

    for (spec_idx, spec) in template.services.iter().enumerate() {
        if !rng.chance(spec.prob) {
            continue;
        }
        let (placed, kind) = match spec.placement {
            Placement::Assigned => (spec.protocol.assigned_port(), PlacementKind::Anchor),
            Placement::Fixed(p) => (p, PlacementKind::Anchor),
            Placement::Pool(ports) => (*rng.choose(ports), PlacementKind::Pool),
            Placement::Spread { base, span } => {
                // One port per (template, /16 deployment): a vendor's
                // firmware build or an operator's rollout pins the port for
                // the whole access network. This is what makes the paper's
                // first-service strategy work — any seed host of the
                // deployment makes its (port, subnet) tuple cover everyone.
                let key = mix64(
                    config.seed ^ block.base as u64,
                    0x5E0_0000 | ((template_id as u64) << 8) | spec_idx as u64,
                );
                (base + (key % span as u64) as u16, PlacementKind::Spread)
            }
            Placement::AsPool { base, span } => {
                // Shared across all hosts of this template in this AS.
                let key = mix64(
                    config.seed ^ block.asn.0 as u64,
                    ((template_id as u64) << 16) | spec_idx as u64,
                );
                (base + (key % span as u64) as u16, PlacementKind::AsPool)
            }
            Placement::RandomHigh => (
                1024 + rng.gen_range(config.port_space as u64 - 1024) as u16,
                PlacementKind::Random,
            ),
        };
        debug_assert!(
            placed < config.port_space || matches!(spec.placement, Placement::RandomHigh),
            "template places port {placed} outside the simulated port space"
        );

        // Router port-forwarding: relocate to a uniform random high port and
        // perturb the TTL (the paper detects forwarding via TTL variance).
        let forward_p = (spec.forward_prob * config.forward_scale).min(1.0);
        let (port, forwarded, ttl) = if rng.chance(forward_p) {
            let p = 1024 + rng.gen_range(config.port_space as u64 - 1024) as u16;
            (p, true, ttl_base.saturating_sub(1 + rng.gen_range(3) as u8))
        } else {
            // Vendor/alt-port services frequently sit behind a NAT port map
            // even when the port itself is deterministic, so their TTL
            // diverges from the host baseline about half the time — the
            // §7 forwarding signature ("different TTL values returned
            // across all services being hosted").
            let natted = !matches!(spec.placement, Placement::Assigned | Placement::Fixed(_))
                && rng.chance(0.55);
            let ttl = if natted {
                ttl_base.saturating_sub(1 + rng.gen_range(3) as u8)
            } else {
                ttl_base
            };
            (placed, false, ttl)
        };

        if port == 0 || services.iter().any(|s| s.port.0 == port) {
            continue; // intra-host port collision: first placement wins
        }

        // Churn: uncommon placements (forwarded services and random ports)
        // disappear more readily — DHCP re-leases and forwarding rules expire
        // faster than server deployments (§3: normalized churn 15% vs 9%).
        let churn_mult = if forwarded || matches!(spec.placement, Placement::RandomHigh) {
            2.5
        } else {
            1.0
        };
        let churn_p = (template.churn_10d * config.churn_scale * churn_mult).min(1.0);
        let dies_day = if rng.chance(churn_p) {
            1 + rng.gen_range(10) as u16
        } else {
            u16::MAX
        };

        services.push(GroundService {
            port: Port(port),
            protocol: spec.protocol,
            placement: if forwarded {
                PlacementKind::Forwarded
            } else {
                kind
            },
            forwarded,
            ttl,
            dies_day,
            features: banners.features_for_service(
                template,
                template_id,
                spec.protocol,
                host_key,
                block.asn,
            ),
        });
    }

    services.sort_by_key(|s| s.port);
    Host {
        template: template_id,
        ttl_base,
        services,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Internet {
        Internet::generate(&UniverseConfig::tiny(11))
    }

    #[test]
    fn generates_hosts_and_services() {
        let net = tiny();
        assert!(net.host_ips().len() > 1000, "got {}", net.host_ips().len());
        assert!(net.total_services() > 2000);
        assert!(!net.pseudo_hosts().is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Internet::generate(&UniverseConfig::tiny(5));
        let b = Internet::generate(&UniverseConfig::tiny(5));
        assert_eq!(a.host_ips(), b.host_ips());
        assert_eq!(a.total_services(), b.total_services());
        for &ip in a.host_ips().iter().step_by(97) {
            let (ha, hb) = (a.host(Ip(ip)).unwrap(), b.host(Ip(ip)).unwrap());
            assert_eq!(ha.template, hb.template);
            assert_eq!(ha.services.len(), hb.services.len());
            for (sa, sb) in ha.services.iter().zip(&hb.services) {
                assert_eq!(sa.port, sb.port);
                assert_eq!(sa.protocol, sb.protocol);
                assert_eq!(sa.dies_day, sb.dies_day);
                // Generation interns in a fixed order, so the syms
                // themselves agree between the two interners.
                assert_eq!(sa.features, sb.features);
            }
        }
        assert_eq!(a.interner().len(), b.interner().len());
    }

    #[test]
    fn probe_agrees_with_ground_truth() {
        let net = tiny();
        let mut checked = 0;
        for &ip in net.host_ips().iter().take(200) {
            let host = net.host(Ip(ip)).unwrap();
            for s in &host.services {
                if s.alive(0) {
                    match net.probe(Ip(ip), s.port, 0) {
                        Some(ProbeView::Real(gs)) => assert_eq!(gs.port, s.port),
                        other => panic!("expected real service, got {other:?}"),
                    }
                    checked += 1;
                }
            }
            // A port nothing listens on.
            let mut free = 1u16;
            while host.service_on(Port(free)).is_some() {
                free += 1;
            }
            assert!(net.probe(Ip(ip), Port(free), 0).is_none());
        }
        assert!(checked > 100);
    }

    #[test]
    fn port_index_is_sorted_and_consistent() {
        let net = tiny();
        let ips = net.ips_on_port(Port(80));
        assert!(!ips.is_empty(), "port 80 must be populated");
        assert!(ips.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        for &ip in ips.iter().take(50) {
            let host = net.host(Ip(ip)).unwrap();
            assert!(host.service_on(Port(80)).is_some());
        }
    }

    #[test]
    fn subnet_port_queries_match_probing() {
        let net = tiny();
        let block = net.topology().blocks()[0].subnet();
        let (lo, hi) = block.split().unwrap();
        let _ = hi;
        for (ip, service) in net.ips_on_port_in(Port(80), lo, 0) {
            assert!(lo.contains(ip));
            assert_eq!(service.port, Port(80));
            assert!(net.service(ip, Port(80), 0).is_some());
        }
        // Exhaustive check against the per-host view on a /24 for speed.
        let small = Subnet::of_ip(block.base(), 24);
        let via_index: Vec<Ip> = net
            .ips_on_port_in(Port(80), small, 0)
            .map(|(ip, _)| ip)
            .collect();
        let via_probe: Vec<Ip> = small
            .iter()
            .filter(|&ip| net.service(ip, Port(80), 0).is_some())
            .collect();
        assert_eq!(via_index, via_probe);
    }

    #[test]
    fn pseudo_hosts_respond_on_contiguous_range() {
        let net = tiny();
        let p = &net.pseudo_hosts()[0];
        assert!(p.num_ports() > 1000, "Appendix B: >1000 contiguous ports");
        let mid = Port(p.first_port + 5);
        match net.probe(p.ip, mid, 0) {
            Some(ProbeView::Pseudo { content, .. }) => assert_eq!(content, p.content),
            other => panic!("expected pseudo response, got {other:?}"),
        }
        if p.first_port > 0 {
            assert!(net.probe(p.ip, Port(p.first_port - 1), 0).is_none());
        }
    }

    #[test]
    fn churn_removes_services_over_time() {
        let net = tiny();
        let day0 = net.total_services_on(0);
        let day10 = net.total_services_on(10);
        assert!(day10 < day0, "some services must churn out");
        let loss = 1.0 - day10 as f64 / day0 as f64;
        assert!(
            loss > 0.02 && loss < 0.30,
            "10-day loss {loss:.3} out of plausible range"
        );
    }

    #[test]
    fn forwarded_services_have_divergent_ttl() {
        let net = tiny();
        let mut seen_forwarded = 0;
        for (_, host) in net.iter_hosts() {
            for s in &host.services {
                if s.forwarded {
                    assert_ne!(s.ttl, host.ttl_base);
                    seen_forwarded += 1;
                }
            }
        }
        assert!(seen_forwarded > 50, "expected a forwarded population");
    }

    #[test]
    fn services_have_one_port_each() {
        let net = tiny();
        for (_, host) in net.iter_hosts() {
            let mut ports: Vec<u16> = host.services.iter().map(|s| s.port.0).collect();
            let before = ports.len();
            ports.dedup();
            assert_eq!(ports.len(), before, "duplicate port on one host");
            assert!(
                ports.windows(2).all(|w| w[0] < w[1]),
                "services sorted by port"
            );
        }
    }

    #[test]
    fn census_is_sorted_desc() {
        let net = tiny();
        let census = net.port_census(0);
        assert!(census.windows(2).all(|w| w[0].1 >= w[1].1));
        let total: u64 = census.iter().map(|(_, c)| c).sum();
        assert_eq!(total, net.total_services());
        // Port 80 should be at or near the top.
        let rank80 = census.iter().position(|(p, _)| *p == Port(80)).unwrap();
        assert!(rank80 < 5, "port 80 rank {rank80}");
    }

    #[test]
    fn affinity_template_is_network_local() {
        let net = Internet::generate(&UniverseConfig {
            num_slash16: 16,
            ..UniverseConfig::tiny(3)
        });
        // Find the freebox-like template id.
        let fb = CATALOG
            .iter()
            .position(|t| t.name == "freebox-like")
            .unwrap() as u16;
        let mut asns = std::collections::HashSet::new();
        let mut count = 0;
        for (ip, host) in net.iter_hosts() {
            if host.template == fb {
                asns.insert(net.asn_of(ip).unwrap());
                count += 1;
            }
        }
        assert!(count > 50, "freebox population too small: {count}");
        assert_eq!(asns.len(), 1, "freebox-like must live in exactly one AS");
    }
}
