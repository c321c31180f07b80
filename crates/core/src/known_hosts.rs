//! Known-host prediction mode (§7's IPv6 note).
//!
//! GPS's seed/priors machinery needs exhaustive random scanning, which is
//! impossible over IPv6's address space. But *"given known IPv6 addresses
//! that respond on at least one port, GPS can be used to predict other
//! responsive services on the known IPv6 addresses"* — i.e. the prediction
//! phase (§5.4) runs standalone against any hitlist of already-observed
//! services. The same mode is useful over IPv4 for incremental re-scans: a
//! search engine that already has one service per host can expand coverage
//! without any priors scan.
//!
//! This module packages that mode: train a model on whatever labelled
//! corpus exists, then expand a hitlist of observations into an ordered
//! predictions list.

use gps_scan::ServiceObservation;
use gps_types::Ip;

use crate::compiled::CompiledRules;
use crate::config::GpsConfig;
use crate::host::{group_by_host, HostRecord};
use crate::model::CondModel;
use crate::predict::{build_predictions, FeatureRules, Prediction};

/// A trained expander: rules distilled from a labelled corpus, applicable to
/// any future hitlist.
///
/// The rules are compiled once at train time into the arena-backed
/// [`CompiledRules`] form, so every `expand` call runs the same dense
/// kernel the serving layer uses.
pub struct KnownHostExpander {
    rules: CompiledRules,
    net_features: Vec<crate::config::NetFeature>,
}

impl KnownHostExpander {
    /// Distill prediction rules from a labelled corpus (e.g. a previous
    /// GPS run's discoveries, or an IPv6 hitlist scanned across ports).
    ///
    /// `asn_of` supplies network features; `min_prob` is the §5.4 discard
    /// threshold.
    pub fn train(
        corpus: &[ServiceObservation],
        config: &GpsConfig,
        min_prob: f64,
        asn_of: &dyn Fn(Ip) -> Option<u32>,
    ) -> (KnownHostExpander, crate::model::BuildStats) {
        let hosts = group_by_host(corpus, &config.net_features, asn_of);
        let (model, stats) = CondModel::build(&hosts, config.interactions);
        let rules = FeatureRules::build(&model, &hosts, min_prob);
        (
            KnownHostExpander {
                rules: CompiledRules::from_rules(&rules),
                net_features: config.net_features.clone(),
            },
            stats,
        )
    }

    /// Number of distilled rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Expand a hitlist: for every known host, predict its remaining
    /// services, ordered by descending confidence. Known (ip, port) pairs
    /// are never re-emitted: they are exactly the hosts' open ports,
    /// which the expansion skips.
    pub fn expand(
        &self,
        hitlist: &[ServiceObservation],
        max_predictions: usize,
        asn_of: &dyn Fn(Ip) -> Option<u32>,
    ) -> Vec<Prediction> {
        let hosts: Vec<HostRecord> = group_by_host(hitlist, &self.net_features, asn_of);
        build_predictions(&self.rules, &hosts, &[], max_predictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpsConfig;
    use gps_scan::{ScanConfig, ScanPhase, Scanner};
    use gps_synthnet::{Internet, UniverseConfig};
    use std::collections::HashSet;

    fn corpus_and_hitlist(net: &Internet) -> (Vec<ServiceObservation>, Vec<ServiceObservation>) {
        let mut scanner = Scanner::new(net, ScanConfig::default());
        let all = net.all_ports();
        let half = net.host_ips().len() / 2;
        let corpus_ips: Vec<Ip> = net.host_ips()[..half].iter().map(|&ip| Ip(ip)).collect();
        let corpus = scanner.scan_ip_set(ScanPhase::Seed, corpus_ips, &all);
        let (corpus, _) = crate::filter::filter_pseudo_services(corpus);

        // Hitlist: ONE service per host from the other half (the "known
        // IPv6 addresses responding on at least one port").
        let mut hitlist = Vec::new();
        for &ip in net.host_ips()[half..].iter().take(2000) {
            let host = net.host(Ip(ip)).unwrap();
            if let Some(s) = host.services.iter().find(|s| s.alive(0)) {
                if let Some(obs) = scanner.scan_service(ScanPhase::Baseline, Ip(ip), s.port) {
                    hitlist.push(obs);
                }
            }
        }
        (corpus, hitlist)
    }

    #[test]
    fn expands_hitlist_to_real_services() {
        let net = Internet::generate(&UniverseConfig::tiny(314));
        let (corpus, hitlist) = corpus_and_hitlist(&net);
        let config = GpsConfig::default();
        let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
        let (expander, stats) = KnownHostExpander::train(&corpus, &config, 1e-4, &asn_of);
        assert!(stats.distinct_keys > 100);
        assert!(expander.num_rules() > 50);

        let predictions = expander.expand(&hitlist, 100_000, &asn_of);
        assert!(!predictions.is_empty());
        // Ordered by confidence.
        assert!(predictions.windows(2).all(|w| w[0].prob >= w[1].prob));

        // A good share of the high-confidence predictions are real.
        let top: Vec<_> = predictions.iter().take(500).collect();
        let hits = top
            .iter()
            .filter(|p| net.service(p.ip, p.port, 0).is_some())
            .count();
        let precision = hits as f64 / top.len() as f64;
        assert!(precision > 0.5, "top-500 precision {precision}");

        // And they meaningfully grow coverage on hitlist hosts.
        let hit_hosts: HashSet<u32> = hitlist.iter().map(|o| o.ip.0).collect();
        let new_found = predictions
            .iter()
            .filter(|p| hit_hosts.contains(&p.ip.0))
            .filter(|p| net.service(p.ip, p.port, 0).is_some())
            .count();
        assert!(
            new_found > hitlist.len() / 4,
            "found {new_found} new services"
        );
    }

    #[test]
    fn never_repredicts_known_pairs() {
        let net = Internet::generate(&UniverseConfig::tiny(314));
        let (corpus, hitlist) = corpus_and_hitlist(&net);
        let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
        let (expander, _) = KnownHostExpander::train(&corpus, &GpsConfig::default(), 1e-4, &asn_of);
        let known: HashSet<(u32, u16)> = hitlist.iter().map(|o| (o.ip.0, o.port.0)).collect();
        for p in expander.expand(&hitlist, usize::MAX, &asn_of) {
            assert!(!known.contains(&(p.ip.0, p.port.0)));
        }
    }

    #[test]
    fn predictions_only_target_hitlist_hosts() {
        let net = Internet::generate(&UniverseConfig::tiny(314));
        let (corpus, hitlist) = corpus_and_hitlist(&net);
        let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);
        let (expander, _) = KnownHostExpander::train(&corpus, &GpsConfig::default(), 1e-4, &asn_of);
        let hosts: HashSet<u32> = hitlist.iter().map(|o| o.ip.0).collect();
        for p in expander.expand(&hitlist, usize::MAX, &asn_of) {
            assert!(
                hosts.contains(&p.ip.0),
                "predicted off-hitlist host {}",
                p.ip
            );
        }
    }
}
