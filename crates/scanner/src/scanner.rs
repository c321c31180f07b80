//! The simulated ZMap + LZR + ZGrab scan chain.
//!
//! [`Scanner`] is the only way any code in this repository "sees" the ground
//! truth: every observation passes through a probe that is charged to the
//! [`BandwidthLedger`], so coverage/bandwidth trade-offs are exact by
//! construction.
//!
//! Fidelity notes:
//! - probes to unallocated space cost bandwidth and return nothing, exactly
//!   like scanning dark IPv4 space;
//! - operators can blocklist the scanner (§5.5: ZMap's IP-ID 54321
//!   fingerprint makes GPS easy to block) — blocklisted subnets silently
//!   drop probes;
//! - optional fault injection drops a fraction of responses (per-probe
//!   deterministic), modelling loss at high scan rates;
//! - exhaustive subnet scans are answered from the ground-truth indexes, so
//!   simulation cost is proportional to *responses*, while *charged* cost is
//!   proportional to probes;
//! - each responsive target is resolved against the ground truth once, as
//!   LZR fingerprints on the connection ZMap opened: that one view yields
//!   the SYN-ACK, the LZR waterfall's charge and ZGrab's features. Every
//!   stage is still charged as its own probes (SYN, `lzr::fingerprint_probes`
//!   data probes, one L7 handshake).

use gps_synthnet::{Internet, ProbeView};
use gps_types::rng::mix64;
use gps_types::{IntSet, Ip, Port, PortSet, Subnet, Sym};

use crate::ledger::{BandwidthLedger, ProbeCosts, ScanPhase};
use crate::observe::ServiceObservation;
use crate::permutation::CyclicPermutation;

/// Scanner behaviour knobs.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Which day of the universe's life the scan observes (§3 churn).
    pub day: u16,
    /// Probability that a responsive probe's answer is lost (fault
    /// injection; 0.0 = lossless).
    pub response_drop_prob: f64,
    /// Seed for the scanner's own randomness (permutation, fault
    /// injection). Independent of the universe seed.
    pub seed: u64,
    pub costs: ProbeCosts,
    /// Dataset view: if set, only these addresses ever answer (evaluating
    /// against the LZR-style 1% sample means the rest of the space is
    /// invisible). Probes outside are still charged.
    pub ip_filter: Option<std::sync::Arc<IntSet<u32>>>,
    /// Dataset view: if set, only these ports ever answer (the Censys-style
    /// top-2K-port dataset). Probes outside are still charged.
    pub port_filter: Option<std::sync::Arc<PortSet>>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            day: 0,
            response_drop_prob: 0.0,
            seed: 0x5CA4,
            costs: ProbeCosts::default(),
            ip_filter: None,
            port_filter: None,
        }
    }
}

/// The scan engine. Borrows the ground truth; owns the ledger.
pub struct Scanner<'a> {
    net: &'a Internet,
    config: ScanConfig,
    ledger: BandwidthLedger,
    blocklist: Vec<Subnet>,
    sentinel_content: Sym,
}

impl<'a> Scanner<'a> {
    pub fn new(net: &'a Internet, config: ScanConfig) -> Self {
        let sentinel_content = net.interner().intern("<no-payload>");
        Scanner {
            net,
            config,
            ledger: BandwidthLedger::new(),
            blocklist: Vec::new(),
            sentinel_content,
        }
    }

    pub fn with_defaults(net: &'a Internet) -> Self {
        Self::new(net, ScanConfig::default())
    }

    pub fn ledger(&self) -> &BandwidthLedger {
        &self.ledger
    }

    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    pub fn day(&self) -> u16 {
        self.config.day
    }

    /// Observe a different day with the same ledger (the §3 churn scan pair).
    pub fn set_day(&mut self, day: u16) {
        self.config.day = day;
    }

    /// Operators blocking the ZMap fingerprint: probes into these subnets
    /// are charged but never answered.
    pub fn add_blocklist(&mut self, subnet: Subnet) {
        self.blocklist.push(subnet);
    }

    fn blocked(&self, ip: Ip) -> bool {
        self.blocklist.iter().any(|s| s.contains(ip))
    }

    /// Whether a (ip, port) can possibly answer: not blocklisted and inside
    /// the dataset view.
    fn hidden(&self, ip: Ip, port: Port) -> bool {
        if self.blocked(ip) {
            return true;
        }
        if let Some(ips) = &self.config.ip_filter {
            if !ips.contains(&ip.0) {
                return true;
            }
        }
        if let Some(ports) = &self.config.port_filter {
            if !ports.contains(port) {
                return true;
            }
        }
        false
    }

    /// Per-probe deterministic fault injection.
    fn dropped(&self, ip: Ip, port: Port) -> bool {
        if self.config.response_drop_prob <= 0.0 {
            return false;
        }
        let h = mix64(self.config.seed, ((ip.0 as u64) << 16) | port.0 as u64);
        (h as f64 / u64::MAX as f64) < self.config.response_drop_prob
    }

    // ----------------------------------------------------------- the chain

    /// ZMap stage: charge one SYN probe and resolve what answers it, if
    /// anything can.
    fn syn(&mut self, phase: ScanPhase, ip: Ip, port: Port) -> Option<ProbeView<'a>> {
        self.ledger.charge(phase, 1, self.config.costs.syn_bytes);
        if self.hidden(ip, port) || self.dropped(ip, port) {
            return None;
        }
        self.net.probe(ip, port, self.config.day)
    }

    /// LZR + ZGrab on a responsive target, from the one view its SYN
    /// resolved. Charges LZR's waterfall ([`crate::lzr`]: one data probe
    /// for server-first protocols, one per trial handshake for client-first
    /// ones; a middlebox ACKs the first trial) plus one ZGrab L7 handshake.
    fn grab(
        &mut self,
        phase: ScanPhase,
        ip: Ip,
        port: Port,
        view: ProbeView<'a>,
    ) -> ServiceObservation {
        let costs = self.config.costs;
        let trials = match view {
            ProbeView::Real(s) => crate::lzr::fingerprint_probes(s.protocol),
            ProbeView::Pseudo { .. } => 1,
        };
        self.ledger.charge(
            phase,
            trials + 1,
            trials * costs.lzr_bytes + costs.zgrab_bytes,
        );
        match view {
            ProbeView::Real(s) => ServiceObservation {
                ip,
                port,
                ttl: s.ttl,
                protocol: s.protocol,
                // Payload identity = the first *content* feature (body hash,
                // banner, certificate) — never the protocol fingerprint,
                // which legitimately repeats across a host's services.
                content: s
                    .features
                    .iter()
                    .find(|f| f.kind != gps_types::FeatureKind::Protocol)
                    .map(|f| f.value)
                    .unwrap_or(self.sentinel_content),
                features: s.features.clone(),
            },
            ProbeView::Pseudo { content, ttl } => ServiceObservation {
                ip,
                port,
                ttl,
                protocol: gps_types::Protocol::Http,
                content,
                features: Vec::new(),
            },
        }
    }

    /// Full chain on one (ip, port).
    pub fn scan_service(
        &mut self,
        phase: ScanPhase,
        ip: Ip,
        port: Port,
    ) -> Option<ServiceObservation> {
        let view = self.syn(phase, ip, port)?;
        Some(self.grab(phase, ip, port, view))
    }

    /// Every responsive port of `ports` on one address, each through
    /// [`Self::grab`]: the address's live real services, then a middlebox's
    /// range. The SYN sweep itself is charged by the caller.
    fn grab_address(
        &mut self,
        phase: ScanPhase,
        ip: Ip,
        ports: &PortSet,
        out: &mut Vec<ServiceObservation>,
    ) {
        if self.blocked(ip) {
            return;
        }
        let net = self.net;
        let day = self.config.day;
        if let Some(host) = net.host(ip) {
            for s in &host.services {
                if s.alive(day)
                    && ports.contains(s.port)
                    && !self.hidden(ip, s.port)
                    && !self.dropped(ip, s.port)
                {
                    out.push(self.grab(phase, ip, s.port, ProbeView::Real(s)));
                }
            }
        }
        if let Ok(i) = net.pseudo_hosts().binary_search_by_key(&ip, |p| p.ip) {
            let pseudo = &net.pseudo_hosts()[i];
            for port in (pseudo.first_port..=pseudo.last_port).map(Port) {
                if ports.contains(port) && !self.hidden(ip, port) && !self.dropped(ip, port) {
                    out.push(self.grab(phase, ip, port, pseudo.view()));
                }
            }
        }
    }

    // ----------------------------------------------------- bulk operations

    /// Full-chain scan of explicit targets (the predictions scan of §5.4).
    pub fn scan_targets(
        &mut self,
        phase: ScanPhase,
        targets: impl IntoIterator<Item = (Ip, Port)>,
    ) -> Vec<ServiceObservation> {
        targets
            .into_iter()
            .filter_map(|(ip, port)| self.scan_service(phase, ip, port))
            .collect()
    }

    /// Exhaustively scan `subnet` on `port` (one priors-scan entry, §5.3).
    ///
    /// Charged probes = allocated addresses inside the subnet; responses are
    /// answered from the ground-truth indexes.
    pub fn scan_subnet_port(
        &mut self,
        phase: ScanPhase,
        subnet: Subnet,
        port: Port,
    ) -> Vec<ServiceObservation> {
        let probes = self.allocated_size_within(subnet);
        self.ledger
            .charge(phase, probes, probes * self.config.costs.syn_bytes);

        let net = self.net;
        let mut out = Vec::new();
        for (ip, service) in net.ips_on_port_in(port, subnet, self.config.day) {
            if !self.hidden(ip, port) && !self.dropped(ip, port) {
                out.push(self.grab(phase, ip, port, ProbeView::Real(service)));
            }
        }
        for pseudo in net.pseudo_in(port, subnet) {
            if !self.hidden(pseudo.ip, port) && !self.dropped(pseudo.ip, port) {
                out.push(self.grab(phase, pseudo.ip, port, pseudo.view()));
            }
        }
        out.sort_by_key(|o| (o.ip, o.port));
        out
    }

    /// Random-sample scan: probe `sample_size` uniformly-chosen addresses on
    /// every port of `ports` (the seed scan of §5.1). Address order follows
    /// the ZMap cyclic permutation.
    pub fn sample_scan(
        &mut self,
        phase: ScanPhase,
        sample_size: u64,
        ports: &PortSet,
    ) -> Vec<ServiceObservation> {
        let universe = self.net.universe_size();
        let sample_size = sample_size.min(universe);
        let mut rng = gps_types::Rng::new(self.config.seed).fork(0x5A3);
        let perm = CyclicPermutation::new(universe, &mut rng);

        // Charge the full SYN sweep up front: sample × |ports| probes.
        let probes = sample_size * ports.len() as u64;
        self.ledger
            .charge(phase, probes, probes * self.config.costs.syn_bytes);

        let mut out = Vec::new();
        for idx in perm.take(sample_size as usize) {
            let ip = self.index_to_ip(idx);
            self.grab_address(phase, ip, ports, &mut out);
        }
        out.sort_by_key(|o| (o.ip, o.port));
        out
    }

    /// Exhaustively scan every allocated address on `port` (one unit of the
    /// exhaustive baseline).
    pub fn full_scan_port(&mut self, phase: ScanPhase, port: Port) -> Vec<ServiceObservation> {
        self.scan_subnet_port(phase, Subnet::ALL, port)
    }

    /// Scan an explicit address set across a port set (the seed scan over a
    /// dataset's sampled addresses). Charges `|ips| × |ports|` SYN probes;
    /// responses are enumerated from the ground-truth indexes.
    pub fn scan_ip_set(
        &mut self,
        phase: ScanPhase,
        ips: impl IntoIterator<Item = Ip>,
        ports: &PortSet,
    ) -> Vec<ServiceObservation> {
        let mut out = Vec::new();
        let mut num_ips = 0u64;
        for ip in ips {
            num_ips += 1;
            self.grab_address(phase, ip, ports, &mut out);
        }
        let probes = num_ips * ports.len() as u64;
        self.ledger
            .charge(phase, probes, probes * self.config.costs.syn_bytes);
        out.sort_by_key(|o| (o.ip, o.port));
        out
    }

    // ------------------------------------------------------------- helpers

    /// Map a universe index (0..universe_size) to an address.
    fn index_to_ip(&self, idx: u64) -> Ip {
        let blocks = self.net.topology().blocks();
        let block = &blocks[(idx / 65536) as usize];
        Ip(block.base | (idx % 65536) as u32)
    }

    /// Number of allocated addresses inside `subnet`.
    pub fn allocated_size_within(&self, subnet: Subnet) -> u64 {
        if subnet.prefix_len() >= 16 {
            let slash16 = Subnet::of_ip(subnet.base(), 16);
            if self.net.topology().is_allocated(slash16.base()) {
                subnet.size()
            } else {
                0
            }
        } else {
            self.net
                .topology()
                .blocks()
                .iter()
                .filter(|b| subnet.contains(Ip(b.base)))
                .count() as u64
                * 65536
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_synthnet::UniverseConfig;

    fn net() -> Internet {
        Internet::generate(&UniverseConfig::tiny(33))
    }

    #[test]
    fn full_chain_observes_real_service() {
        let net = net();
        let mut sc = Scanner::with_defaults(&net);
        let ip = Ip(net.ips_on_port(Port(80))[0]);
        let obs = sc
            .scan_service(ScanPhase::Seed, ip, Port(80))
            .expect("service exists");
        assert_eq!(obs.port, Port(80));
        assert!(!obs.features.is_empty(), "HTTP carries banner features");
        // One SYN + one LZR + one ZGrab charged.
        assert_eq!(sc.ledger().probes(ScanPhase::Seed), 3);
    }

    #[test]
    fn unresponsive_probe_costs_one_probe() {
        let net = net();
        let mut sc = Scanner::with_defaults(&net);
        // 224.0.0.1 is never allocated.
        assert!(sc
            .scan_service(ScanPhase::Seed, Ip::from_octets(224, 0, 0, 1), Port(80))
            .is_none());
        assert_eq!(sc.ledger().probes(ScanPhase::Seed), 1);
    }

    #[test]
    fn subnet_scan_charges_subnet_size() {
        let net = net();
        let mut sc = Scanner::with_defaults(&net);
        let block = net.topology().blocks()[0].subnet();
        let sub24 = Subnet::of_ip(block.base(), 24);
        let before = sc.ledger().total_probes();
        let _ = sc.scan_subnet_port(ScanPhase::Priors, sub24, Port(80));
        let charged = sc.ledger().probes(ScanPhase::Priors);
        assert!(charged >= 256, "at least the SYN sweep: {charged}");
        let _ = before;
    }

    #[test]
    fn subnet_scan_finds_exactly_ground_truth() {
        let net = net();
        let mut sc = Scanner::with_defaults(&net);
        let block = net.topology().blocks()[0].subnet();
        let obs = sc.scan_subnet_port(ScanPhase::Priors, block, Port(80));
        let truth = net.ips_on_port_in(Port(80), block, 0).count();
        let pseudo = net.pseudo_in(Port(80), block);
        assert_eq!(obs.len(), truth + pseudo.len());
    }

    #[test]
    fn subnet_sweep_and_single_probes_observe_alike() {
        // One block holding a middlebox, swept on common ports and on ports
        // inside the middlebox's range: every swept response must equal,
        // field for field, what a single full-chain probe of it observes,
        // and each single probe must charge SYN + LZR waterfall + ZGrab.
        let net = net();
        let pseudo = &net.pseudo_hosts()[0];
        let block = pseudo.ip.slash16();
        let ports = [
            Port(80),
            Port(443),
            Port(22),
            Port(pseudo.first_port),
            Port(pseudo.first_port + 7),
            Port(pseudo.last_port),
        ];
        let mut sweeper = Scanner::with_defaults(&net);
        let mut single = Scanner::with_defaults(&net);
        let (mut real, mut middlebox) = (0, 0);
        for port in ports {
            let before = sweeper.ledger().probes(ScanPhase::Priors);
            let swept = sweeper.scan_subnet_port(ScanPhase::Priors, block, port);
            let mut chain_probes = 0;
            for obs in &swept {
                let before = single.ledger().probes(ScanPhase::Seed);
                let one = single
                    .scan_service(ScanPhase::Seed, obs.ip, port)
                    .expect("a swept response answers a single probe");
                assert_eq!(&one, obs, "{}:{}", obs.ip, port);
                let charged = single.ledger().probes(ScanPhase::Seed) - before;
                let fingerprint = crate::lzr::fingerprint_probes(one.protocol);
                assert_eq!(charged, 1 + fingerprint + 1, "{}:{}", obs.ip, port);
                if net.service(obs.ip, port, 0).is_some() {
                    real += 1;
                } else {
                    assert_eq!(charged, 3, "a pseudo-service costs SYN + 1 trial + ZGrab");
                    middlebox += 1;
                }
                chain_probes += fingerprint + 1;
            }
            // The sweep charges its SYNs plus the same chain per response.
            assert_eq!(
                sweeper.ledger().probes(ScanPhase::Priors) - before,
                65536 + chain_probes
            );
        }
        assert!(
            real > 0 && middlebox >= 3,
            "{real} real, {middlebox} pseudo"
        );

        // A miss inside the block costs its SYN alone.
        let miss = block
            .iter()
            .find(|&ip| net.probe(ip, Port(80), 0).is_none())
            .expect("an address without port 80");
        let before = single.ledger().probes(ScanPhase::Seed);
        assert!(single
            .scan_service(ScanPhase::Seed, miss, Port(80))
            .is_none());
        assert_eq!(single.ledger().probes(ScanPhase::Seed) - before, 1);
    }

    #[test]
    fn allocated_size_cases() {
        let net = net();
        let sc = Scanner::with_defaults(&net);
        let block = net.topology().blocks()[0].subnet();
        assert_eq!(sc.allocated_size_within(block), 65536);
        assert_eq!(
            sc.allocated_size_within(Subnet::of_ip(block.base(), 24)),
            256
        );
        assert_eq!(
            sc.allocated_size_within(Subnet::ALL),
            net.universe_size(),
            "/0 covers exactly the allocated space"
        );
        // Unallocated /16 contributes nothing.
        assert_eq!(
            sc.allocated_size_within(Subnet::of_ip(Ip::from_octets(224, 0, 0, 0), 16)),
            0
        );
    }

    #[test]
    fn sample_scan_finds_sampled_hosts_services() {
        let net = net();
        let mut sc = Scanner::with_defaults(&net);
        let obs = sc.sample_scan(ScanPhase::Seed, net.universe_size() / 10, &PortSet::all());
        assert!(!obs.is_empty());
        // Charged exactly sample × 65536 probes... plus chain probes.
        let expected_syn = (net.universe_size() / 10) * 65536;
        assert!(sc.ledger().probes(ScanPhase::Seed) >= expected_syn);
        // All observations verify against ground truth (or are pseudo).
        for o in obs.iter().take(100) {
            let real = net.service(o.ip, o.port, 0).is_some();
            let pseudo = net
                .pseudo_hosts()
                .binary_search_by_key(&o.ip, |p| p.ip)
                .is_ok();
            assert!(
                real || pseudo,
                "{}:{} observed but not in ground truth",
                o.ip,
                o.port
            );
        }
    }

    #[test]
    fn sample_scan_is_deterministic() {
        let net = net();
        let mut a = Scanner::with_defaults(&net);
        let mut b = Scanner::with_defaults(&net);
        let oa = a.sample_scan(ScanPhase::Seed, 1000, &PortSet::all());
        let ob = b.sample_scan(ScanPhase::Seed, 1000, &PortSet::all());
        assert_eq!(oa, ob);
    }

    #[test]
    fn blocklist_suppresses_responses() {
        let net = net();
        let block = net.topology().blocks()[0].subnet();
        let mut sc = Scanner::with_defaults(&net);
        sc.add_blocklist(block);
        let obs = sc.scan_subnet_port(ScanPhase::Priors, block, Port(80));
        assert!(obs.is_empty(), "blocklisted subnet must not answer");
        // Probes are still charged (the scanner doesn't know it's blocked).
        assert!(sc.ledger().probes(ScanPhase::Priors) >= 65536);
    }

    #[test]
    fn fault_injection_loses_some_responses() {
        let net = net();
        let mut lossless = Scanner::with_defaults(&net);
        let mut lossy = Scanner::new(
            &net,
            ScanConfig {
                response_drop_prob: 0.5,
                ..Default::default()
            },
        );
        let block = net.topology().blocks()[0].subnet();
        let all = lossless.scan_subnet_port(ScanPhase::Priors, block, Port(80));
        let some = lossy.scan_subnet_port(ScanPhase::Priors, block, Port(80));
        assert!(some.len() < all.len());
        assert!(!all.is_empty());
    }

    #[test]
    fn churn_day_changes_results() {
        let net = net();
        let mut day0 = Scanner::with_defaults(&net);
        let mut day10 = Scanner::new(
            &net,
            ScanConfig {
                day: 10,
                ..Default::default()
            },
        );
        let block = net.topology().blocks()[0].subnet();
        let now: usize = net
            .port_census(0)
            .iter()
            .take(5)
            .map(|&(p, _)| day0.scan_subnet_port(ScanPhase::Baseline, block, p).len())
            .sum();
        let later: usize = net
            .port_census(0)
            .iter()
            .take(5)
            .map(|&(p, _)| day10.scan_subnet_port(ScanPhase::Baseline, block, p).len())
            .sum();
        assert!(later <= now, "services only disappear in the churn model");
        assert!(later > 0);
    }

    #[test]
    fn pseudo_hosts_dominate_unfiltered_port_observations() {
        // Appendix B: across most ports, pseudo services dominate the raw
        // responses; sanity-check they at least appear in full-port scans of
        // an uncommon port.
        let net = net();
        let mut sc = Scanner::with_defaults(&net);
        let pseudo = &net.pseudo_hosts()[0];
        let port = Port(pseudo.first_port + 1);
        let obs = sc.full_scan_port(ScanPhase::Baseline, port);
        assert!(obs.iter().any(|o| o.ip == pseudo.ip));
    }
}
