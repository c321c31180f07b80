//! Predicting additional services (§5.4).
//!
//! Once the priors scan has found at least one service per host, GPS builds
//! the **most predictive feature values** list:
//!
//! 1. for each seed service (IP, Portₐ), the feature tuple maximizing
//!    P(Portₐ | tuple) enters the list (probabilities below the random-probe
//!    hit rate are discarded) — *every* predictable seed service is thereby
//!    guaranteed a matching rule;
//! 2. feature values are extracted from each responsive priors-scan service;
//! 3. any service matching a listed tuple contributes its predicted
//!    (IP, Portₐ) to the predictions list, ordered by descending
//!    predictability.

use std::collections::HashMap;

use gps_types::{Ip, Port, ServiceKey};

use crate::compiled::{CompiledRules, PredictScratch};
use crate::host::HostRecord;
use crate::model::{CondKey, CondModel};

/// The "most predictive feature values" list: tuple → predicted ports.
#[derive(Debug, Default, Clone)]
pub struct FeatureRules {
    rules: HashMap<CondKey, Vec<(Port, f64)>>,
    num_rules: usize,
}

impl FeatureRules {
    /// Reassemble rules from stored parts (snapshot deserialization).
    pub fn from_parts(rules: HashMap<CondKey, Vec<(Port, f64)>>) -> FeatureRules {
        let num_rules = rules.values().map(Vec::len).sum();
        FeatureRules { rules, num_rules }
    }

    /// Step 1: scan every seed service, keep its argmax feature tuple.
    pub fn build(model: &CondModel, seed_hosts: &[HostRecord], min_prob: f64) -> FeatureRules {
        let mut rules: HashMap<CondKey, HashMap<Port, f64>> = HashMap::new();
        for host in seed_hosts {
            if host.services.len() < 2 {
                continue;
            }
            for a in &host.services {
                if let Some((_idx, key, p)) = model.best_predictor_for(host, a.port) {
                    // Discard probabilities at/below the random hit rate —
                    // services on effectively random ports are unpredictable.
                    if p >= min_prob {
                        let slot = rules.entry(key).or_default().entry(a.port).or_insert(0.0);
                        if p > *slot {
                            *slot = p;
                        }
                    }
                }
            }
        }
        let mut num_rules = 0;
        let rules: HashMap<CondKey, Vec<(Port, f64)>> = rules
            .into_iter()
            .map(|(key, ports)| {
                let mut v: Vec<(Port, f64)> = ports.into_iter().collect();
                // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN
                // probability must not panic the pipeline (it sorts
                // deterministically and never beats a real rule downstream,
                // since `prob > slot` rejects NaN).
                v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                num_rules += v.len();
                (key, v)
            })
            .collect();
        FeatureRules { rules, num_rules }
    }

    /// Number of distinct (tuple → port) rules.
    pub fn len(&self) -> usize {
        self.num_rules
    }

    pub fn is_empty(&self) -> bool {
        self.num_rules == 0
    }

    /// Number of distinct feature tuples.
    pub fn num_keys(&self) -> usize {
        self.rules.len()
    }

    pub fn get(&self, key: &CondKey) -> Option<&[(Port, f64)]> {
        self.rules.get(key).map(|v| v.as_slice())
    }

    /// Iterate all (tuple, predicted ports) rules.
    pub fn iter(&self) -> impl Iterator<Item = (&CondKey, &Vec<(Port, f64)>)> {
        self.rules.iter()
    }
}

/// One prediction: probe (ip, port); `prob` is the model's confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    pub ip: Ip,
    pub port: Port,
    pub prob: f64,
}

impl Prediction {
    pub fn key(&self) -> ServiceKey {
        ServiceKey::new(self.ip, self.port)
    }
}

/// Steps 2–3: match priors-scan hosts against the rules and emit the
/// ordered predictions list.
///
/// * `prior_hosts` — host-grouped responsive services from the priors scan,
///   sorted by IP (as [`group_by_host`](crate::host::group_by_host) emits
///   them); a host's own open ports are never predicted;
/// * `exclude` — hosts whose services were already observed elsewhere
///   (the seed scan), sorted by IP; their ports are never re-predicted on
///   the same IP. One merge-join walk over the two sorted lists finds
///   each prior host's match, so no per-candidate hash probe is made;
/// * `max_predictions` — hard cap (keeps the highest-probability entries).
///
/// Each host is one [`CompiledRules::expand`] — the kernel a warm server
/// query runs — over its services' ports and features and its net keys,
/// matching the full Eq. 4–7 key family (rules built from a reduced
/// interaction set simply contain fewer keys).
pub fn build_predictions(
    rules: &CompiledRules,
    prior_hosts: &[HostRecord],
    exclude: &[HostRecord],
    max_predictions: usize,
) -> Vec<Prediction> {
    let mut scratch = PredictScratch::default();
    let mut predictions: Vec<Prediction> = Vec::new();
    let mut exclude = exclude.iter().peekable();
    for host in prior_hosts {
        while exclude.next_if(|seen| seen.ip < host.ip).is_some() {}
        let excluded = match exclude.peek() {
            Some(seen) if seen.ip == host.ip => seen.services.as_slice(),
            _ => &[],
        };
        rules.expand(
            &mut scratch,
            host.services
                .iter()
                .map(|s| (s.port, s.features.as_slice())),
            host.nets.iter().copied(),
        );
        predictions.extend(
            scratch
                .harvest()
                .filter(|&(port, _)| {
                    excluded
                        .binary_search_by_key(&port, |service| service.port)
                        .is_err()
                })
                .map(|(port, prob)| Prediction {
                    ip: host.ip,
                    port,
                    prob,
                }),
        );
    }
    // Descending predictability; deterministic tiebreak. `total_cmp` keeps
    // a NaN probability from panicking the sort (see `FeatureRules::build`).
    // Each (ip, port) appears once, so no two entries compare equal and the
    // unstable sort's order is the stable one.
    predictions.sort_unstable_by(|a, b| {
        b.prob
            .total_cmp(&a.prob)
            .then(a.ip.cmp(&b.ip))
            .then(a.port.cmp(&b.port))
    });
    predictions.truncate(max_predictions);
    predictions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Interactions, NetFeature};
    use crate::host::group_by_host;
    use crate::model::CondModel;
    use gps_scan::ServiceObservation;
    use gps_types::{FeatureKind, FeatureValue, Protocol, Sym};

    fn obs(ip: u32, port: u16, feature: Option<u32>) -> ServiceObservation {
        ServiceObservation {
            ip: Ip(ip),
            port: Port(port),
            ttl: 60,
            protocol: Protocol::Http,
            content: Sym(0),
            features: feature
                .map(|v| vec![FeatureValue::new(FeatureKind::HttpBodyHash, Sym(v))])
                .unwrap_or_default(),
        }
    }

    /// Seed: 5 hosts with body-hash 7 on port 80 all run 8082.
    fn trained() -> (Vec<HostRecord>, CondModel) {
        let mut observations = Vec::new();
        for ip in 1..=5u32 {
            observations.push(obs(ip, 80, Some(7)));
            observations.push(obs(ip, 8082, None));
        }
        let hosts = group_by_host(&observations, &[NetFeature::Slash(16)], &|_| None);
        let (model, _) = CondModel::build(&hosts, Interactions::ALL);
        (hosts, model)
    }

    #[test]
    fn rules_capture_the_pattern() {
        let (hosts, model) = trained();
        let rules = FeatureRules::build(&model, &hosts, 1e-5);
        assert!(!rules.is_empty());
        // Every key for 8082 given the port-80 evidence ties at p = 1.0 in
        // this homogeneous seed, so the argmax resolves to the simplest
        // class: the bare Port(80) tuple.
        let key = CondKey::Port(Port(80));
        let targets = rules.get(&key).expect("rule exists");
        assert_eq!(targets[0].0, Port(8082));
        assert!((targets[0].1 - 1.0).abs() < 1e-12);
        // The refined tuple was not selected (it tied, and ties prefer
        // simpler keys).
        let refined = CondKey::PortApp(
            Port(80),
            FeatureValue::new(FeatureKind::HttpBodyHash, Sym(7)),
        );
        assert!(rules.get(&refined).is_none());
    }

    #[test]
    fn threshold_prunes_weak_rules() {
        let (hosts, model) = trained();
        let none = FeatureRules::build(&model, &hosts, 1.01);
        assert!(none.is_empty(), "threshold above 1.0 kills everything");
        let all = FeatureRules::build(&model, &hosts, 0.0);
        assert!(all.len() >= 2);
    }

    #[test]
    fn predictions_follow_matched_rules() {
        let (hosts, model) = trained();
        let rules = CompiledRules::from_rules(&FeatureRules::build(&model, &hosts, 1e-5));
        // A new host seen in the priors scan with the same banner on 80.
        let prior = group_by_host(&[obs(100, 80, Some(7))], &[NetFeature::Slash(16)], &|_| {
            None
        });
        let preds = build_predictions(&rules, &prior, &[], 1000);
        assert!(
            preds
                .iter()
                .any(|p| p.ip == Ip(100) && p.port == Port(8082)),
            "must predict 8082 on the new host: {preds:?}"
        );
        // Highest-probability first.
        assert!(preds.windows(2).all(|w| w[0].prob >= w[1].prob));
    }

    #[test]
    fn known_and_open_ports_are_not_repredicted() {
        let (hosts, model) = trained();
        let rules = CompiledRules::from_rules(&FeatureRules::build(&model, &hosts, 1e-5));
        // Prior host already observed on both ports.
        let prior = group_by_host(
            &[obs(100, 80, Some(7)), obs(100, 8082, None)],
            &[NetFeature::Slash(16)],
            &|_| None,
        );
        let preds = build_predictions(&rules, &prior, &[], 1000);
        assert!(
            !preds
                .iter()
                .any(|p| p.ip == Ip(100) && p.port == Port(8082)),
            "open port must not be re-predicted"
        );
        // Same when another scan saw it: the exclusion list names it.
        let prior = group_by_host(&[obs(100, 80, Some(7))], &[NetFeature::Slash(16)], &|_| {
            None
        });
        let seen = group_by_host(
            &[
                obs(99, 8082, None),
                obs(100, 8082, None),
                obs(101, 22, None),
            ],
            &[NetFeature::Slash(16)],
            &|_| None,
        );
        let preds = build_predictions(&rules, &prior, &seen, 1000);
        assert!(!preds
            .iter()
            .any(|p| p.ip == Ip(100) && p.port == Port(8082)));
    }

    #[test]
    fn unmatched_hosts_produce_nothing() {
        let (hosts, model) = trained();
        let rules = CompiledRules::from_rules(&FeatureRules::build(&model, &hosts, 1e-5));
        // Different banner (Sym 9) and different /16 ⇒ only the bare Port
        // key might match.
        let prior = group_by_host(
            &[obs(0xFF000001, 4444, Some(9))],
            &[NetFeature::Slash(16)],
            &|_| None,
        );
        let preds = build_predictions(&rules, &prior, &[], 1000);
        assert!(preds.is_empty(), "{preds:?}");
    }

    #[test]
    fn nan_probability_rule_does_not_panic_or_win() {
        // Regression: ordering used `partial_cmp(..).unwrap()`, so a NaN
        // probability (e.g. from a hand-edited snapshot) panicked the
        // pipeline. It must sort deterministically and never outrank a
        // real prediction.
        let mut raw: HashMap<CondKey, Vec<(Port, f64)>> = HashMap::new();
        raw.insert(
            CondKey::Port(Port(80)),
            vec![(Port(9999), f64::NAN), (Port(8082), 0.9)],
        );
        let rules = CompiledRules::from_rules(&FeatureRules::from_parts(raw));
        let prior = group_by_host(&[obs(100, 80, Some(7))], &[NetFeature::Slash(16)], &|_| {
            None
        });
        let preds = build_predictions(&rules, &prior, &[], 1000);
        // The NaN never beats the 0.0 slot: port 9999 surfaces with the
        // or_insert default, ranked below the real prediction.
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].port, Port(8082));
        assert!((preds[0].prob - 0.9).abs() < 1e-12);
        assert_eq!(preds[1].port, Port(9999));
        assert_eq!(preds[1].prob, 0.0);
    }

    #[test]
    fn max_predictions_keeps_best() {
        let (hosts, model) = trained();
        let rules = CompiledRules::from_rules(&FeatureRules::build(&model, &hosts, 0.0));
        let mut prior_observations = Vec::new();
        for ip in 200..260u32 {
            prior_observations.push(obs(ip, 80, Some(7)));
        }
        let prior = group_by_host(&prior_observations, &[NetFeature::Slash(16)], &|_| None);
        let capped = build_predictions(&rules, &prior, &[], 10);
        assert_eq!(capped.len(), 10);
        let full = build_predictions(&rules, &prior, &[], usize::MAX);
        let min_kept = capped.iter().map(|p| p.prob).fold(f64::INFINITY, f64::min);
        let max_dropped = full[10..].iter().map(|p| p.prob).fold(0.0, f64::max);
        assert!(min_kept >= max_dropped);
    }
}
