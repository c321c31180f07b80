//! Observation types produced by the scan chain.
//!
//! §5.5: *"ZMap is a stateless Layer 4 scanner that initiates TCP
//! connections … LZR then takes over the TCP connection, filters out
//! middleboxes, and efficiently fingerprints services … LZR (can) forward
//! the connection information to ZGrab, which can then complete the full
//! Layer 7 handshake to collect additional application layer features."*
//!
//! The simulated chain resolves a responsive target once and charges each
//! stage's probes from that one view, so it has one record: the
//! [`ServiceObservation`] that LZR's fingerprint and ZGrab's handshake
//! complete together.

use gps_types::{FeatureValue, Ip, Port, Protocol, ServiceKey, Sym};

/// A fully-grabbed service: the unit of data GPS's model trains on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceObservation {
    pub ip: Ip,
    pub port: Port,
    pub ttl: u8,
    /// Protocol LZR fingerprinted ([`Protocol::Unknown`] for real listeners
    /// that speak none of the 15 bannered protocols).
    pub protocol: Protocol,
    /// Response payload identity after stripping expected dynamic fields
    /// (Appendix B): middlebox pseudo-services share one value across all
    /// their ports.
    pub content: Sym,
    /// Application-layer feature values collected by the ZGrab stage
    /// (empty for `Unknown`-protocol services and un-grabbed responses).
    pub features: Vec<FeatureValue>,
}

impl ServiceObservation {
    pub fn key(&self) -> ServiceKey {
        ServiceKey::new(self.ip, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_key() {
        let obs = ServiceObservation {
            ip: Ip::from_octets(10, 0, 0, 1),
            port: Port(8080),
            ttl: 60,
            protocol: Protocol::Http,
            content: Sym(0),
            features: vec![],
        };
        assert_eq!(
            obs.key(),
            ServiceKey::new(Ip::from_octets(10, 0, 0, 1), Port(8080))
        );
    }
}
