//! # gps-types
//!
//! Foundation types shared by every crate in the GPS reproduction:
//!
//! - [`Ip`], [`Subnet`], [`Port`], [`Asn`] — address-space primitives with the
//!   exact semantics the paper relies on (scanning "step sizes" are subnet
//!   prefix lengths; network features are the /16 and the ASN of an IP).
//! - [`Protocol`] — the 15 TCP protocols with an available banner on Censys
//!   (Table 1 of the paper).
//! - [`FeatureKind`] / [`FeatureValue`] — the 25 application- and
//!   network-layer features GPS conditions on (Table 1).
//! - [`Interner`] / [`Sym`] — compact interned representation of banner
//!   strings so feature values compare/hash as `u32`s.
//! - [`rng`] — a vendored, fully deterministic xoshiro256++ generator. Every
//!   synthetic universe and every experiment in this repository is a pure
//!   function of a `u64` seed.
//! - [`hash`] — [`IntMap`] / [`IntSet`], hash tables under a deterministic
//!   integer hasher for the simulation's address- and port-keyed tables.
//!
//! Nothing in this crate allocates per-probe state: all types are `Copy`
//! except the interner, mirroring the paper's requirement that per-probe cost
//! stay negligible next to network I/O.

pub mod binary;
pub mod error;
pub mod feature;
pub mod hash;
pub mod intern;
pub mod ip;
pub mod json;
pub mod obs;
pub mod port;
pub mod protocol;
pub mod rng;
pub mod subnet;
pub mod testutil;

pub use binary::{ByteReader, ByteWriter};
pub use error::GpsError;
pub use feature::{FeatureKind, FeatureValue, APP_FEATURE_KINDS, NET_FEATURE_KINDS};
pub use hash::{IntHasher, IntMap, IntSet};
pub use intern::{DenseInterner, Interner, Sym};
pub use ip::{Asn, Ip};
pub use json::{Json, JsonCodec};
pub use obs::HistogramSnapshot;
pub use port::{Port, PortSet, NUM_PORTS};
pub use protocol::Protocol;
pub use rng::Rng;
pub use subnet::Subnet;

/// A (IP, port) pair — the unit of "a service" throughout the paper
/// (Equations 1–2 count `#(IP, p)` tuples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceKey {
    pub ip: Ip,
    pub port: Port,
}

impl ServiceKey {
    pub fn new(ip: Ip, port: Port) -> Self {
        Self { ip, port }
    }
}

impl std::fmt::Display for ServiceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_key_orders_by_ip_then_port() {
        let a = ServiceKey::new(Ip::from_octets(1, 2, 3, 4), Port(80));
        let b = ServiceKey::new(Ip::from_octets(1, 2, 3, 4), Port(443));
        let c = ServiceKey::new(Ip::from_octets(1, 2, 3, 5), Port(22));
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn service_key_display() {
        let k = ServiceKey::new(Ip::from_octets(10, 0, 0, 1), Port(8080));
        assert_eq!(k.to_string(), "10.0.0.1:8080");
    }
}
