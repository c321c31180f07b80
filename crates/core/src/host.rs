//! Host-grouped scan records and model-key extraction.
//!
//! The conditional-probability model (Eq. 4–7) is computed over *hosts*: a
//! host exhibiting a feature tuple is one denominator count, and each of its
//! other open ports is one numerator count. [`HostRecord`] groups a scan's
//! observations per IP; [`service_keys`] enumerates the model keys a single
//! service gives rise to.

use gps_scan::ServiceObservation;
use gps_types::{Ip, Port, Subnet};

use crate::config::NetFeature;
use crate::model::{CondKey, NetKey};

/// One scanned host: its IP, derived network keys, and observed services.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub ip: Ip,
    /// Network keys of the host under the configured [`NetFeature`]s.
    pub nets: Vec<NetKey>,
    /// Observations sorted by port (one per port).
    pub services: Vec<ServiceObservation>,
}

impl HostRecord {
    pub fn open_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.services.iter().map(|s| s.port)
    }
}

/// Derive the [`NetKey`]s of an address. ASN resolution is supplied by the
/// caller (the scanner/topology layer owns that mapping). Lazy, so a
/// served query derives its keys without allocating.
pub fn net_keys_for<'a>(
    ip: Ip,
    net_features: &'a [NetFeature],
    asn_of: &'a dyn Fn(Ip) -> Option<u32>,
) -> impl Iterator<Item = NetKey> + Clone + 'a {
    net_features.iter().filter_map(move |nf| match nf {
        NetFeature::Slash(prefix) => {
            Some(NetKey::Slash(*prefix, Subnet::of_ip(ip, *prefix).base().0))
        }
        NetFeature::Asn => asn_of(ip).map(NetKey::Asn),
    })
}

/// Group observations by host, deduplicating (ip, port) pairs and sorting
/// services by port. Output is sorted by IP (deterministic model input).
///
/// One sort does all three: each observation becomes an
/// `(ip << 16 | port, index)` key, so after sorting the keys of one host
/// are adjacent and in port order, and the first of a run of equal pairs
/// carries the lowest index — the first observation of that (ip, port),
/// which is the one kept.
pub fn group_by_host(
    observations: &[ServiceObservation],
    net_features: &[NetFeature],
    asn_of: &dyn Fn(Ip) -> Option<u32>,
) -> Vec<HostRecord> {
    let mut order: Vec<(u64, usize)> = observations
        .iter()
        .enumerate()
        .map(|(index, obs)| ((u64::from(obs.ip.0) << 16) | u64::from(obs.port.0), index))
        .collect();
    order.sort_unstable();
    order.dedup_by_key(|&mut (pair, _)| pair);
    let mut hosts: Vec<HostRecord> = Vec::new();
    for (pair, index) in order {
        let ip = Ip((pair >> 16) as u32);
        if hosts.last().is_none_or(|host| host.ip != ip) {
            hosts.push(HostRecord {
                ip,
                nets: net_keys_for(ip, net_features, asn_of).collect(),
                services: Vec::new(),
            });
        }
        let host = hosts.last_mut().expect("pushed above");
        host.services.push(observations[index].clone());
    }
    hosts
}

/// Enumerate every model key (Eq. 4–7 conditioning tuples) derivable from
/// one observed service on a host with the given network keys.
///
/// - Eq. 4: `(Port_b)`
/// - Eq. 5: `(Port_b, App_b)` for each application feature of the service
/// - Eq. 6: `(Port_b, Net)` for each network key
/// - Eq. 7: `(Port_b, App_b, Net)` for each feature × network key
pub fn service_keys(
    service: &ServiceObservation,
    nets: &[NetKey],
    interactions: crate::config::Interactions,
    sink: &mut dyn FnMut(CondKey),
) {
    let port = service.port;
    if interactions.transport {
        sink(CondKey::Port(port));
    }
    if interactions.transport_app {
        for f in &service.features {
            sink(CondKey::PortApp(port, *f));
        }
    }
    if interactions.transport_net {
        for net in nets {
            sink(CondKey::PortNet(port, *net));
        }
    }
    if interactions.transport_app_net {
        for f in &service.features {
            for net in nets {
                sink(CondKey::PortAppNet(port, *f, *net));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Interactions;
    use gps_types::{FeatureKind, FeatureValue, Protocol, Sym};

    fn obs(ip: u32, port: u16, nfeatures: usize) -> ServiceObservation {
        ServiceObservation {
            ip: Ip(ip),
            port: Port(port),
            ttl: 60,
            protocol: Protocol::Http,
            content: Sym(0),
            features: (0..nfeatures)
                .map(|i| FeatureValue::new(FeatureKind::HttpServer, Sym(i as u32)))
                .collect(),
        }
    }

    #[test]
    fn grouping_sorts_and_dedups() {
        let observations = vec![obs(2, 443, 0), obs(1, 80, 0), obs(2, 80, 0), obs(2, 80, 0)];
        let hosts = group_by_host(&observations, &[NetFeature::Slash(16)], &|_| None);
        assert_eq!(hosts.len(), 2);
        assert_eq!(hosts[0].ip, Ip(1));
        assert_eq!(hosts[1].services.len(), 2);
        assert_eq!(hosts[1].services[0].port, Port(80));
        assert_eq!(hosts[1].services[1].port, Port(443));

        // Duplicates of one (ip, port) that differ in ttl and features: the
        // first observation of the pair is kept, whatever follows it.
        let with_ttl = |mut o: ServiceObservation, ttl: u8| {
            o.ttl = ttl;
            o
        };
        let first_80 = with_ttl(obs(2, 80, 2), 51);
        let first_443 = with_ttl(obs(2, 443, 0), 52);
        let observations = vec![
            with_ttl(obs(3, 22, 1), 40),
            first_443.clone(),
            first_80.clone(),
            with_ttl(obs(2, 80, 0), 60),
            with_ttl(obs(2, 443, 3), 61),
            with_ttl(obs(2, 80, 1), 62),
            obs(1, 80, 0),
        ];
        let hosts = group_by_host(&observations, &[NetFeature::Slash(16)], &|_| None);
        let ips: Vec<Ip> = hosts.iter().map(|h| h.ip).collect();
        assert_eq!(ips, [Ip(1), Ip(2), Ip(3)]);
        assert_eq!(hosts[1].services, [first_80, first_443]);
        assert_eq!(hosts[2].services[0].ttl, 40);
    }

    #[test]
    fn net_keys_cover_features() {
        let ip = Ip::from_octets(10, 20, 30, 40);
        let keys: Vec<NetKey> =
            net_keys_for(ip, &[NetFeature::Slash(16), NetFeature::Asn], &|_| Some(7)).collect();
        assert_eq!(keys.len(), 2);
        assert!(
            matches!(keys[0], NetKey::Slash(16, base) if base == Ip::from_octets(10, 20, 0, 0).0)
        );
        assert!(matches!(keys[1], NetKey::Asn(7)));
        // Unknown ASN yields no ASN key.
        assert_eq!(net_keys_for(ip, &[NetFeature::Asn], &|_| None).count(), 0);
    }

    #[test]
    fn key_count_formula() {
        // k features, n nets ⇒ 1 + k + n + k·n keys with all interactions.
        let service = obs(1, 80, 3);
        let nets = vec![NetKey::Slash(16, 0), NetKey::Asn(9)];
        let mut keys = Vec::new();
        service_keys(&service, &nets, Interactions::ALL, &mut |k| keys.push(k));
        assert_eq!(keys.len(), 1 + 3 + 2 + 6);
        // All keys distinct.
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn interaction_gating() {
        let service = obs(1, 80, 2);
        let nets = vec![NetKey::Asn(1)];
        let mut keys = Vec::new();
        service_keys(&service, &nets, Interactions::TRANSPORT_ONLY, &mut |k| {
            keys.push(k)
        });
        assert_eq!(keys, vec![CondKey::Port(Port(80))]);
    }

    #[test]
    fn unknown_protocol_has_only_port_and_net_keys() {
        let mut service = obs(1, 5432, 0);
        service.protocol = Protocol::Unknown;
        let nets = vec![NetKey::Slash(16, 0)];
        let mut keys = Vec::new();
        service_keys(&service, &nets, Interactions::ALL, &mut |k| keys.push(k));
        assert_eq!(keys.len(), 2, "Port + PortNet only: {keys:?}");
    }
}
