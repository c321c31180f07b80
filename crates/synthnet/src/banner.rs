//! Application-layer feature value generation.
//!
//! §4: application-layer data that identifies a host's *manufacturer*
//! (TLS organization, PPTP vendor), *operating system* (HTTP Server, SSH
//! banner), *purpose* (HTML title, VNC desktop name) or *owner* (SSH key,
//! TLS certificate) predicts other services on the host. What makes a value
//! predictive is how widely it is *shared*: a per-template admin-page body
//! hash ties thousands of hosts together, while a per-host certificate hash
//! ties a value to exactly one host.
//!
//! Each (template-class, feature-kind) pair therefore gets a [`Scope`]:
//!
//! - `PerHost` — unique value per host (high Table 1 dimensionality, no
//!   cross-host predictive power);
//! - `Grouped(n)` — the template's population splits into `n` groups that
//!   share a value (firmware versions, fleet keys); `Grouped(1)` is the
//!   fully-manufactured case;
//! - `PerAs` — the value varies by autonomous system (ISP-customized
//!   firmware), giving the model's Eq. 7 (app ∧ net) tuples real signal.
//!
//! A value's string is a pure function of (universe seed, host, kind), never
//! of generation order. Its `Sym` id is the order in which the universe's
//! strings were first interned: generation is single-threaded, so that order
//! is fixed too. [`BannerCache`] interns each shared value once and keeps
//! that order exactly; `universe_is_pinned` in the integration tests guards
//! both the strings and the ids.

use gps_types::rng::mix64;
use gps_types::{Asn, FeatureKind, FeatureValue, IntMap, Interner, Protocol, Sym};

use crate::template::{DeviceTemplate, TemplateClass};

/// Sharing scope of a feature value within one template's population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    PerHost,
    Grouped(u32),
    PerAs,
}

/// The feature kinds a fingerprinted protocol exposes (Table 1 rows per
/// protocol). `Protocol`, `Slash16` and `Asn` are handled elsewhere: the
/// protocol fingerprint is attached to every bannered service and network
/// features are derived from the IP at extraction time.
pub fn kinds_for_protocol(proto: Protocol) -> &'static [FeatureKind] {
    use FeatureKind as F;
    match proto {
        Protocol::Http => &[
            F::HttpServer,
            F::HttpHtmlTitle,
            F::HttpBodyHash,
            F::HttpHeader,
        ],
        Protocol::Tls => &[
            F::TlsCertHash,
            F::TlsCertOrganization,
            F::TlsCertSubjectName,
        ],
        Protocol::Ssh => &[F::SshHostKey, F::SshBanner],
        Protocol::Vnc => &[F::VncDesktopName],
        Protocol::Smtp => &[F::SmtpBanner],
        Protocol::Ftp => &[F::FtpBanner],
        Protocol::Imap => &[F::ImapBanner],
        Protocol::Pop3 => &[F::Pop3Banner],
        Protocol::Cwmp => &[F::CwmpHeader, F::CwmpBodyHash],
        Protocol::Telnet => &[F::TelnetBanner],
        Protocol::Pptp => &[F::PptpVendor],
        Protocol::Mysql => &[F::MysqlServerVersion],
        Protocol::Memcached => &[F::MemcachedServerVersion],
        Protocol::Mssql => &[F::MssqlServerVersion],
        Protocol::Ipmi => &[F::IpmiBanner],
        Protocol::Unknown => &[],
    }
}

/// Sharing scope for a feature kind on a given template class.
///
/// The table encodes the realism arguments above; dimensionalities it
/// induces are validated against Table 1's *ordering* by the `tab1`
/// experiment (hashes ≫ banners ≫ CWMP header).
pub fn scope_for(class: TemplateClass, kind: FeatureKind) -> Scope {
    use FeatureKind as F;
    use TemplateClass as C;
    match (class, kind) {
        // Certificates: devices ship a handful of baked-in certs; servers
        // have per-site certs; fleets share certs across edge groups.
        (C::Device, F::TlsCertHash) => Scope::Grouped(8),
        (C::Server, F::TlsCertHash) => Scope::PerHost,
        (C::Fleet, F::TlsCertHash) => Scope::Grouped(50),
        (C::Device, F::TlsCertOrganization) => Scope::Grouped(1),
        (C::Server, F::TlsCertOrganization) => Scope::Grouped(40),
        (C::Fleet, F::TlsCertOrganization) => Scope::Grouped(1),
        (C::Device, F::TlsCertSubjectName) => Scope::Grouped(2),
        (C::Server, F::TlsCertSubjectName) => Scope::PerHost,
        (C::Fleet, F::TlsCertSubjectName) => Scope::Grouped(50),
        // HTTP content: identical admin pages on devices, per-site on
        // servers.
        (C::Device, F::HttpBodyHash) => Scope::Grouped(2),
        (C::Server, F::HttpBodyHash) => Scope::PerHost,
        (C::Fleet, F::HttpBodyHash) => Scope::Grouped(10),
        (C::Device, F::HttpHtmlTitle) => Scope::Grouped(1),
        (C::Server, F::HttpHtmlTitle) => Scope::PerHost,
        (C::Fleet, F::HttpHtmlTitle) => Scope::Grouped(5),
        (C::Device, F::HttpServer) => Scope::Grouped(3),
        (C::Server, F::HttpServer) => Scope::Grouped(8),
        (C::Fleet, F::HttpServer) => Scope::Grouped(2),
        (C::Device, F::HttpHeader) => Scope::Grouped(1),
        (C::Server, F::HttpHeader) => Scope::Grouped(4),
        (C::Fleet, F::HttpHeader) => Scope::Grouped(1),
        // SSH: embedded device keys are infamously shared; server keys are
        // unique; fleet keys shared per management group.
        (C::Device, F::SshHostKey) => Scope::Grouped(24),
        (C::Server, F::SshHostKey) => Scope::PerHost,
        (C::Fleet, F::SshHostKey) => Scope::Grouped(12),
        (_, F::SshBanner) => Scope::Grouped(4),
        // Mail banners embed the ISP/hosting domain → vary by AS for
        // devices/fleets, small version groups for servers.
        (C::Server, F::SmtpBanner | F::ImapBanner | F::Pop3Banner) => Scope::Grouped(6),
        (_, F::SmtpBanner | F::ImapBanner | F::Pop3Banner) => Scope::PerAs,
        (_, F::FtpBanner) => Scope::Grouped(3),
        // CWMP is the most manufactured protocol of all (Table 1: 10-11
        // distinct values globally).
        (_, F::CwmpHeader) => Scope::Grouped(1),
        (_, F::CwmpBodyHash) => Scope::Grouped(2),
        (_, F::TelnetBanner) => Scope::Grouped(2),
        (_, F::PptpVendor) => Scope::Grouped(1),
        (_, F::MysqlServerVersion) => Scope::Grouped(5),
        (_, F::MemcachedServerVersion) => Scope::Grouped(4),
        (_, F::MssqlServerVersion) => Scope::Grouped(4),
        (_, F::IpmiBanner) => Scope::Grouped(2),
        (C::Device, F::VncDesktopName) => Scope::Grouped(4),
        (_, F::VncDesktopName) => Scope::PerHost,
        // Not banner kinds; never requested from this table.
        (_, F::Protocol | F::Slash16 | F::Asn) => Scope::Grouped(1),
    }
}

/// Template-flavored base string for a feature kind.
fn base_string(t: &DeviceTemplate, kind: FeatureKind) -> String {
    use FeatureKind as F;
    match kind {
        F::HttpServer => format!("{}-httpd", t.vendor),
        F::HttpHtmlTitle => format!("{} Admin Console", t.vendor),
        F::HttpBodyHash => format!("body:{}", t.name),
        F::HttpHeader => format!("X-Powered-By: {}", t.vendor),
        F::TlsCertHash => format!("certsha256:{}", t.name),
        F::TlsCertOrganization => format!("{} Inc.", t.vendor),
        F::TlsCertSubjectName => format!("CN={}.local", t.vendor),
        F::SshHostKey => format!("ssh-rsa-key:{}", t.name),
        F::SshBanner => format!("SSH-2.0-{}_srv", t.vendor),
        F::VncDesktopName => format!("{} desktop", t.vendor),
        F::SmtpBanner => format!("220 {} ESMTP ready", t.vendor),
        F::FtpBanner => format!("220 {} FTP", t.vendor),
        F::ImapBanner => {
            if t.name == "bizland-shared" {
                // §6.6 anecdote: IMAP banner requesting TLS.
                "* OK IMAP4 server ready; STARTTLS required".to_string()
            } else {
                format!("* OK {} IMAP4rev1", t.vendor)
            }
        }
        F::Pop3Banner => format!("+OK {} POP3", t.vendor),
        F::CwmpHeader => format!("Server: {} CWMP", t.vendor),
        F::CwmpBodyHash => format!("cwmpbody:{}", t.name),
        F::TelnetBanner => {
            if t.name == "distributel-modem" {
                // §6.6 anecdote: the exact disabled-telnet banner.
                "Telnet service is disabled or Your telnet session has expired due to inactivity..."
                    .to_string()
            } else {
                format!("{} login:", t.vendor)
            }
        }
        F::PptpVendor => t.vendor.to_string(),
        F::MysqlServerVersion => format!("5.7-{}", t.vendor),
        F::MemcachedServerVersion => format!("1.6-{}", t.vendor),
        F::MssqlServerVersion => format!("15.0-{}", t.vendor),
        F::IpmiBanner => format!("IPMI-2.0 {}", t.vendor),
        F::Protocol | F::Slash16 | F::Asn => String::new(),
    }
}

/// Scope tags of a [`BannerCache`] key.
const TAG_GROUPED: u64 = 0;
const TAG_PER_AS: u64 = 1;
const TAG_PROTOCOL: u64 = 2;
const TAG_MIDDLEBOX: u64 = 3;

/// Pack a [`BannerCache`] key: the scope tag in bits 62–63, the template id
/// in bits 40–55, the feature kind in bits 32–39 and the discriminator
/// (group, ASN, protocol or vendor) in the low 32 bits. Distinct inputs give
/// distinct keys.
fn cache_key(tag: u64, template_id: u16, kind: FeatureKind, low: u32) -> u64 {
    tag << 62 | (template_id as u64) << 40 | (kind.index() as u64) << 32 | low as u64
}

/// The banner values of one universe, each shared value interned once.
///
/// A shared value — `Grouped` and `PerAs` scopes, the protocol fingerprint,
/// a middlebox's page — is a pure function of a small key, so only the first
/// request for a key formats the string and interns it; later requests read
/// the `Sym` back. `PerHost` values are unique per host and are interned
/// directly. Either way each new string reaches the interner exactly when it
/// would without the cache, so every `Sym` id is unchanged.
pub struct BannerCache<'a> {
    interner: &'a Interner,
    shared: IntMap<u64, Sym>,
}

impl<'a> BannerCache<'a> {
    pub fn new(interner: &'a Interner) -> Self {
        BannerCache {
            interner,
            shared: IntMap::default(),
        }
    }

    /// The interned feature values for one service.
    ///
    /// `host_key` is the host's stable 64-bit identity (`mix64(seed, ip)`),
    /// so regenerating the same universe yields identical banners regardless
    /// of iteration order.
    pub fn features_for_service(
        &mut self,
        t: &DeviceTemplate,
        template_id: u16,
        proto: Protocol,
        host_key: u64,
        asn: Asn,
    ) -> Vec<FeatureValue> {
        let kinds = kinds_for_protocol(proto);
        let mut out = Vec::with_capacity(kinds.len() + 1);
        // The protocol fingerprint itself is a feature (Table 1 row 1; Table
        // 3's top tuple is (Port, Port_Protocol)).
        if proto.has_banner() {
            let key = cache_key(TAG_PROTOCOL, 0, FeatureKind::Protocol, proto.index() as u32);
            let value = self.shared(key, || proto.name().to_string());
            out.push(FeatureValue::new(FeatureKind::Protocol, value));
        }
        for &kind in kinds {
            let value = match scope_for(t.class, kind) {
                Scope::Grouped(1) => {
                    let key = cache_key(TAG_GROUPED, template_id, kind, 0);
                    self.shared(key, || base_string(t, kind))
                }
                Scope::Grouped(n) => {
                    let group =
                        mix64(host_key, kind.index() as u64 ^ (template_id as u64) << 8) % n as u64;
                    let key = cache_key(TAG_GROUPED, template_id, kind, group as u32);
                    self.shared(key, || format!("{} [v{group}]", base_string(t, kind)))
                }
                Scope::PerAs => {
                    let key = cache_key(TAG_PER_AS, template_id, kind, asn.0);
                    self.shared(key, || format!("{} @as{}", base_string(t, kind), asn.0))
                }
                Scope::PerHost => self.interner.intern(&format!(
                    "{} #{:016x}",
                    base_string(t, kind),
                    mix64(host_key, kind.index() as u64)
                )),
            };
            out.push(FeatureValue::new(kind, value));
        }
        out
    }

    /// The filtered content a middlebox of `vendor` serves on every port.
    pub fn middlebox_content(&mut self, vendor: u32) -> Sym {
        let key = cache_key(TAG_MIDDLEBOX, 0, FeatureKind::Protocol, vendor);
        self.shared(key, || format!("middlebox-block-page v{vendor}"))
    }

    /// The `Sym` of the shared value under `key`, formatting and interning
    /// `value()` only on the key's first request.
    fn shared(&mut self, key: u64, value: impl FnOnce() -> String) -> Sym {
        let interner = self.interner;
        *self
            .shared
            .entry(key)
            .or_insert_with(|| interner.intern(&value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::CATALOG;

    fn template(name: &str) -> (&'static DeviceTemplate, u16) {
        CATALOG
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == name)
            .map(|(i, t)| (t, i as u16))
            .unwrap()
    }

    #[test]
    fn every_bannered_protocol_has_kinds() {
        for p in Protocol::BANNERED {
            assert!(!kinds_for_protocol(p).is_empty(), "{p}");
        }
        assert!(kinds_for_protocol(Protocol::Unknown).is_empty());
    }

    #[test]
    fn kinds_match_source_protocol() {
        for p in Protocol::BANNERED {
            for k in kinds_for_protocol(p) {
                assert_eq!(k.source_protocol(), Some(p), "{k} listed under {p}");
            }
        }
    }

    #[test]
    fn features_are_deterministic() {
        let interner = Interner::new();
        let mut cache = BannerCache::new(&interner);
        let (t, id) = template("home-router-alpha");
        let a = cache.features_for_service(t, id, Protocol::Http, 42, Asn(7));
        let b = cache.features_for_service(t, id, Protocol::Http, 42, Asn(7));
        assert_eq!(a, b);
    }

    #[test]
    fn per_host_values_differ_between_hosts() {
        let interner = Interner::new();
        let mut cache = BannerCache::new(&interner);
        let (t, id) = template("web-nginx");
        let a = cache.features_for_service(t, id, Protocol::Tls, 1, Asn(7));
        let b = cache.features_for_service(t, id, Protocol::Tls, 2, Asn(7));
        let hash_a = a
            .iter()
            .find(|f| f.kind == FeatureKind::TlsCertHash)
            .unwrap();
        let hash_b = b
            .iter()
            .find(|f| f.kind == FeatureKind::TlsCertHash)
            .unwrap();
        assert_ne!(
            hash_a.value, hash_b.value,
            "server cert hashes are per-host"
        );
    }

    #[test]
    fn manufactured_values_are_shared() {
        let interner = Interner::new();
        let mut cache = BannerCache::new(&interner);
        let (t, id) = template("home-router-alpha");
        let a = cache.features_for_service(t, id, Protocol::Cwmp, 1, Asn(7));
        let b = cache.features_for_service(t, id, Protocol::Cwmp, 999, Asn(9));
        let h_a = a
            .iter()
            .find(|f| f.kind == FeatureKind::CwmpHeader)
            .unwrap();
        let h_b = b
            .iter()
            .find(|f| f.kind == FeatureKind::CwmpHeader)
            .unwrap();
        assert_eq!(h_a.value, h_b.value, "CWMP header is fully manufactured");
    }

    #[test]
    fn per_as_values_vary_by_as_only() {
        let interner = Interner::new();
        let mut cache = BannerCache::new(&interner);
        let (t, id) = template("home-router-alpha");
        // Mail banners are PerAs on every non-Server class.
        let banner = |fs: &[FeatureValue]| {
            fs.iter()
                .find(|f| f.kind == FeatureKind::Pop3Banner)
                .unwrap()
                .value
        };
        let a = cache.features_for_service(t, id, Protocol::Pop3, 1, Asn(7));
        let b = cache.features_for_service(t, id, Protocol::Pop3, 2, Asn(7));
        let c = cache.features_for_service(t, id, Protocol::Pop3, 1, Asn(8));
        assert_eq!(banner(&a), banner(&b), "same AS → same banner");
        assert_ne!(banner(&a), banner(&c), "different AS → different banner");
    }

    #[test]
    fn anecdote_banners_present() {
        let interner = Interner::new();
        let mut cache = BannerCache::new(&interner);
        let (t, id) = template("distributel-modem");
        let f = cache.features_for_service(t, id, Protocol::Telnet, 5, Asn(1181));
        let telnet = f
            .iter()
            .find(|f| f.kind == FeatureKind::TelnetBanner)
            .unwrap();
        let banner = interner.resolve(telnet.value);
        assert!(banner.contains("Telnet service is disabled"));
        // The protocol fingerprint rides along as a feature.
        assert!(f.iter().any(|f| f.kind == FeatureKind::Protocol));
    }

    #[test]
    fn grouped_scope_bounds_dimensionality() {
        let interner = Interner::new();
        let mut cache = BannerCache::new(&interner);
        let (t, id) = template("home-router-alpha");
        let mut distinct = std::collections::HashSet::new();
        for host in 0..500u64 {
            let f = cache.features_for_service(t, id, Protocol::Http, host, Asn(7));
            let server = f
                .iter()
                .find(|f| f.kind == FeatureKind::HttpServer)
                .unwrap();
            distinct.insert(server.value);
        }
        assert!(
            distinct.len() <= 3,
            "device HttpServer is Grouped(3), got {}",
            distinct.len()
        );
        assert!(distinct.len() >= 2, "groups should actually split");
    }

    /// One long-lived cache must hand out exactly the `Sym`s a fresh cache
    /// per call would: a key-packing collision (the protocol fingerprint
    /// against a template's values, a group number against an ASN, a
    /// middlebox vendor against either) shows up as a mismatch.
    #[test]
    fn warm_cache_matches_a_cold_one() {
        let interner = Interner::new();
        let mut warm = BannerCache::new(&interner);
        for (id, t) in CATALOG.iter().enumerate() {
            for spec in t.services {
                for host in 0..50u64 {
                    let host_key = mix64(host, 0xBA22);
                    for asn in [Asn(1), Asn(7), Asn(1181)] {
                        let features = |cache: &mut BannerCache| {
                            cache.features_for_service(t, id as u16, spec.protocol, host_key, asn)
                        };
                        assert_eq!(
                            features(&mut warm),
                            features(&mut BannerCache::new(&interner)),
                            "{} {} host {host} {asn:?}",
                            t.name,
                            spec.protocol
                        );
                    }
                }
            }
        }
        for vendor in 0..5 {
            assert_eq!(
                warm.middlebox_content(vendor),
                BannerCache::new(&interner).middlebox_content(vendor)
            );
        }
    }
}
