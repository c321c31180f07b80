//! Loading a [`ModelSnapshot`] into query-ready form.
//!
//! A [`ServableModel`] answers two query shapes, mirroring the two
//! prediction stages of the paper:
//!
//! - **cold query** (no known services): rank ports by the §5.3 priors
//!   list restricted to the subnets containing the query IP — "which port
//!   is most likely to host this address's *first* service";
//! - **warm query** (caller supplies open ports it already observed, and
//!   optionally the host's ASN): expand the evidence through the §5.4
//!   "most predictive feature values" rules, exactly as the prediction
//!   phase does for priors-scan responses.
//!
//! A warm query is one call of
//! [`CompiledRules::expand`](gps_core::CompiledRules::expand), the kernel the
//! pipeline's prediction phase runs per priors-scan host. The kernel walks
//! all four key classes, but the wire does not carry application features
//! yet: a query's evidence is feature-less, so it matches the transport
//! and network key classes (Eq. 4/6) while the snapshot holds all of them.
//!
//! Queries run against the arena-backed [`CompiledModel`]: warm lookups
//! walk contiguous `(port, prob-bits)` slices and fold into a port-indexed
//! dense accumulator ([`PredictScratch`]), cold lookups binary-search a
//! subnet index and copy a pre-normalized slice out of the priors arena.
//! The rule arena arrives ready-made in the snapshot (its RULE section is
//! that arena); the priors index is compiled here from the snapshot's
//! ordered scan list. Answers
//! are bit-identical to the original HashMap path — kept here as
//! [`ReferenceModel`], built from the rule map a snapshot was compiled
//! from, and asserted against it by the parity property suite.

use std::collections::HashMap;

use gps_core::compiled::{CompiledModel, CompiledPriors, PredictScratch};
use gps_core::host::net_keys_for;
use gps_core::model::NetKey;
use gps_core::snapshot::{ModelManifest, ModelSnapshot};
use gps_core::{CondKey, FeatureRules, NetFeature};
use gps_types::{FeatureValue, Ip, Port, Subnet};

/// A ranked prediction list: `(port, probability)`, descending.
pub type Ranked = Vec<(Port, f64)>;

/// One prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ip: Ip,
    /// Ports the caller already knows are open on this host (may be empty).
    pub open: Vec<Port>,
    /// The host's ASN, if the caller resolved it (enables Eq. 6 ASN keys).
    pub asn: Option<u32>,
    /// Maximum number of predictions returned; 0 means the server default.
    pub top: usize,
}

impl Query {
    pub fn new(ip: Ip) -> Query {
        Query {
            ip,
            open: Vec::new(),
            asn: None,
            top: 0,
        }
    }

    pub fn with_open(mut self, open: impl IntoIterator<Item = u16>) -> Query {
        self.open = open.into_iter().map(Port).collect();
        self
    }
}

/// The query-ready artifact: a compiled rule arena for warm queries, a
/// subnet-indexed priors arena for cold queries.
pub struct ServableModel {
    manifest: ModelManifest,
    compiled: CompiledModel,
}

impl ServableModel {
    /// Build from a snapshot: its compiled rules are used as-is, and the
    /// cold-query priors index is compiled from its scan list in one pass.
    pub fn from_snapshot(snapshot: ModelSnapshot) -> ServableModel {
        let compiled = CompiledModel {
            priors: CompiledPriors::from_entries(&snapshot.priors, snapshot.manifest.step_prefix),
            rules: snapshot.rules,
        };
        ServableModel {
            manifest: snapshot.manifest,
            compiled,
        }
    }

    pub fn manifest(&self) -> &ModelManifest {
        &self.manifest
    }

    /// The compiled prediction core this model queries.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Answer one query: ranked `(port, probability)`, descending, open
    /// ports excluded, truncated to `top` (when nonzero). Allocates fresh
    /// working memory per call; loops should hold a [`PredictScratch`]
    /// and use [`predict_with`](Self::predict_with).
    pub fn predict(&self, query: &Query) -> Ranked {
        self.predict_with(&mut PredictScratch::default(), query)
    }

    /// [`predict`](Self::predict) with caller-owned scratch memory, so a
    /// long-lived caller (a serving thread, a benchmark loop) pays the
    /// dense accumulator's allocation once instead of per query. Answers
    /// are identical to [`predict`](Self::predict) — the scratch is
    /// epoch-reset on entry and never read across calls.
    pub fn predict_with(&self, scratch: &mut PredictScratch, query: &Query) -> Ranked {
        let mut ranked = if query.open.is_empty() {
            self.cold_ranking(query.ip)
        } else {
            self.warm_ranking(scratch, query)
        };
        if query.top > 0 {
            ranked.truncate(query.top);
        }
        ranked
    }

    /// Cold path: the priors arena slice for the IP's step subnet (or the
    /// global fallback), already normalized and sorted.
    fn cold_ranking(&self, ip: Ip) -> Ranked {
        let (ports, prob_bits) = self.compiled.priors.cold(ip);
        ports
            .iter()
            .zip(prob_bits)
            .map(|(&port, &bits)| (Port(port), f64::from_bits(bits)))
            .collect()
    }

    /// Warm path: the expansion kernel over the open ports, without
    /// application features, and the net keys the manifest's features
    /// derive from the query (the ASN key only when the query names one).
    fn warm_ranking(&self, scratch: &mut PredictScratch, query: &Query) -> Ranked {
        let asn_of = |_: Ip| query.asn;
        let no_features: &[FeatureValue] = &[];
        self.compiled.rules.expand(
            scratch,
            query.open.iter().map(|&port| (port, no_features)),
            net_keys_for(query.ip, &self.manifest.net_features, &asn_of),
        );
        let mut ranked: Ranked = scratch.harvest().collect();
        sort_ranked(&mut ranked);
        ranked
    }
}

/// The original HashMap-backed serving path, retained verbatim as the
/// differential-testing baseline: the parity property suite (and the
/// kernel bench) assert [`ServableModel`] answers are bit-identical to
/// this implementation on the same model. It reads the `FeatureRules` map
/// the snapshot was compiled from, never the compiled rules, so the
/// oracle shares no lookup code with what it checks.
pub struct ReferenceModel {
    rules: FeatureRules,
    priors_by_subnet: HashMap<Subnet, Ranked>,
    global_priors: Ranked,
    net_prefixes: Vec<u8>,
    uses_asn: bool,
    step_prefix: u8,
}

impl ReferenceModel {
    /// `rules` is the map `snapshot.rules` was compiled from; the
    /// snapshot supplies the priors list and the manifest.
    pub fn new(rules: &FeatureRules, snapshot: &ModelSnapshot) -> ReferenceModel {
        let mut priors_by_subnet: HashMap<Subnet, Ranked> = HashMap::new();
        let mut global: HashMap<Port, f64> = HashMap::new();
        for entry in &snapshot.priors {
            priors_by_subnet
                .entry(entry.subnet)
                .or_default()
                .push((entry.port, entry.coverage as f64));
            *global.entry(entry.port).or_default() += entry.coverage as f64;
        }
        for ranked in priors_by_subnet.values_mut() {
            normalize(ranked);
        }
        let mut global_priors: Ranked = global.into_iter().collect();
        normalize(&mut global_priors);

        let net_prefixes: Vec<u8> = snapshot
            .manifest
            .net_features
            .iter()
            .filter_map(|nf| match nf {
                NetFeature::Slash(p) => Some(*p),
                NetFeature::Asn => None,
            })
            .collect();
        ReferenceModel {
            rules: rules.clone(),
            priors_by_subnet,
            global_priors,
            net_prefixes,
            uses_asn: snapshot.manifest.net_features.contains(&NetFeature::Asn),
            step_prefix: snapshot.manifest.step_prefix,
        }
    }

    /// Answer one query through the HashMap path. `best` is the caller's
    /// reusable fold map (what `PredictScratch` used to hold).
    pub fn predict_with(&self, best: &mut HashMap<Port, f64>, query: &Query) -> Ranked {
        let mut ranked = if query.open.is_empty() {
            let subnet = Subnet::of_ip(query.ip, self.step_prefix);
            self.priors_by_subnet
                .get(&subnet)
                .unwrap_or(&self.global_priors)
                .clone()
        } else {
            best.clear();
            let mut consider = |targets: Option<&[(Port, f64)]>| {
                for &(port, prob) in targets.unwrap_or_default() {
                    if query.open.contains(&port) {
                        continue;
                    }
                    let slot = best.entry(port).or_insert(0.0);
                    if prob > *slot {
                        *slot = prob;
                    }
                }
            };
            for &b in &query.open {
                consider(self.rules.get(&CondKey::Port(b)));
                for &prefix in &self.net_prefixes {
                    let net = NetKey::Slash(prefix, Subnet::of_ip(query.ip, prefix).base().0);
                    consider(self.rules.get(&CondKey::PortNet(b, net)));
                }
                if self.uses_asn {
                    if let Some(asn) = query.asn {
                        consider(self.rules.get(&CondKey::PortNet(b, NetKey::Asn(asn))));
                    }
                }
            }
            let mut ranked: Ranked = best.drain().collect();
            sort_ranked(&mut ranked);
            ranked
        };
        if query.top > 0 {
            ranked.truncate(query.top);
        }
        ranked
    }

    pub fn predict(&self, query: &Query) -> Ranked {
        self.predict_with(&mut HashMap::new(), query)
    }
}

/// Descending probability, port-ascending tiebreak (deterministic output).
/// `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN-probability rule
/// (hand-edited snapshot) must not panic the server. Unstable sort is
/// sound here — every input has unique ports, so the port tiebreak makes
/// the comparator a strict total order and stability can't be observed.
pub fn sort_ranked(ranked: &mut Ranked) {
    ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

fn normalize(ranked: &mut Ranked) {
    let total: f64 = ranked.iter().map(|&(_, c)| c).sum();
    if total > 0.0 {
        for (_, c) in ranked.iter_mut() {
            *c /= total;
        }
    }
    sort_ranked(ranked);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::snapshot::{ModelManifest, FORMAT_MAJOR, FORMAT_MINOR};
    use gps_core::{CompiledRules, Interactions, PriorsEntry};
    use std::collections::HashMap as Map;

    fn snapshot() -> ModelSnapshot {
        snapshot_of(&fixture_rules())
    }

    /// Hand-built rules: 80 predicts 443 (p=.8) generally, 8080 (p=.9)
    /// within 10.1.0.0/16, and 9000 (p=.95) in AS 7.
    fn fixture_rules() -> FeatureRules {
        let mut rules: Map<CondKey, Vec<(Port, f64)>> = Map::new();
        rules.insert(
            CondKey::Port(Port(80)),
            vec![(Port(443), 0.8), (Port(22), 0.3)],
        );
        rules.insert(
            CondKey::PortNet(Port(80), NetKey::Slash(16, Ip::from_octets(10, 1, 0, 0).0)),
            vec![(Port(8080), 0.9)],
        );
        rules.insert(
            CondKey::PortNet(Port(80), NetKey::Asn(7)),
            vec![(Port(9000), 0.95)],
        );
        FeatureRules::from_parts(rules)
    }

    /// A snapshot compiled from `rules`, whose priors say subnet 10.1/16
    /// leads with port 80.
    fn snapshot_of(rules: &FeatureRules) -> ModelSnapshot {
        let priors = vec![
            PriorsEntry {
                port: Port(80),
                subnet: Subnet::of_ip(Ip::from_octets(10, 1, 0, 0), 16),
                coverage: 30,
            },
            PriorsEntry {
                port: Port(22),
                subnet: Subnet::of_ip(Ip::from_octets(10, 1, 0, 0), 16),
                coverage: 10,
            },
            PriorsEntry {
                port: Port(443),
                subnet: Subnet::of_ip(Ip::from_octets(10, 2, 0, 0), 16),
                coverage: 5,
            },
        ];
        ModelSnapshot {
            manifest: ModelManifest {
                format: (FORMAT_MAJOR, FORMAT_MINOR),
                universe_seed: 1,
                dataset_name: "unit".into(),
                step_prefix: 16,
                min_prob: 1e-5,
                interactions: Interactions::ALL,
                net_features: vec![NetFeature::Slash(16), NetFeature::Asn],
                hosts_in: 0,
                distinct_keys: 0,
                cooccur_entries: 0,
                num_rules: rules.len(),
                num_priors: 3,
                checksum: 0,
            },
            rules: CompiledRules::from_rules(rules),
            priors,
        }
    }

    #[test]
    fn cold_query_ranks_subnet_priors() {
        let model = ServableModel::from_snapshot(snapshot());
        let ranked = model.predict(&Query::new(Ip::from_octets(10, 1, 2, 3)));
        assert_eq!(ranked[0].0, Port(80));
        assert!((ranked[0].1 - 0.75).abs() < 1e-12, "30/(30+10): {ranked:?}");
        assert_eq!(ranked[1].0, Port(22));
    }

    #[test]
    fn cold_query_unknown_subnet_falls_back_to_global() {
        let model = ServableModel::from_snapshot(snapshot());
        let ranked = model.predict(&Query::new(Ip::from_octets(99, 0, 0, 1)));
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].0, Port(80), "global leader: {ranked:?}");
    }

    #[test]
    fn warm_query_uses_port_and_net_rules() {
        let model = ServableModel::from_snapshot(snapshot());
        // In 10.1/16 the net-refined rule for 8080 (0.9) outranks the
        // generic 443 rule (0.8).
        let ranked = model.predict(&Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([80]));
        assert_eq!(ranked[0], (Port(8080), 0.9));
        assert_eq!(ranked[1], (Port(443), 0.8));
        // Outside that /16 only the generic rules fire.
        let ranked = model.predict(&Query::new(Ip::from_octets(10, 9, 2, 3)).with_open([80]));
        assert_eq!(ranked[0], (Port(443), 0.8));
        assert!(ranked.iter().all(|&(p, _)| p != Port(8080)));
    }

    #[test]
    fn asn_evidence_unlocks_asn_rules() {
        let model = ServableModel::from_snapshot(snapshot());
        let mut query = Query::new(Ip::from_octets(99, 0, 0, 1)).with_open([80]);
        query.asn = Some(7);
        let ranked = model.predict(&query);
        assert_eq!(ranked[0], (Port(9000), 0.95));
    }

    #[test]
    fn open_ports_are_never_predicted() {
        let model = ServableModel::from_snapshot(snapshot());
        let ranked = model.predict(&Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([80, 443]));
        assert!(
            ranked.iter().all(|&(p, _)| p != Port(80) && p != Port(443)),
            "{ranked:?}"
        );
    }

    #[test]
    fn top_truncates() {
        let model = ServableModel::from_snapshot(snapshot());
        let mut query = Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([80]);
        query.top = 1;
        assert_eq!(model.predict(&query).len(), 1);
    }

    #[test]
    fn compiled_answers_match_reference_bit_for_bit() {
        let rules = fixture_rules();
        let snapshot = snapshot_of(&rules);
        let reference = ReferenceModel::new(&rules, &snapshot);
        let model = ServableModel::from_snapshot(snapshot);
        let mut scratch = PredictScratch::default();
        let mut best = HashMap::new();
        for ip in [
            Ip::from_octets(10, 1, 2, 3),
            Ip::from_octets(10, 2, 0, 9),
            Ip::from_octets(99, 0, 0, 1),
        ] {
            for open in [vec![], vec![80u16], vec![80, 443], vec![22]] {
                for asn in [None, Some(7), Some(8)] {
                    for top in [0usize, 1, 3] {
                        let mut query = Query::new(ip).with_open(open.iter().copied());
                        query.asn = asn;
                        query.top = top;
                        let got = model.predict_with(&mut scratch, &query);
                        let want = reference.predict_with(&mut best, &query);
                        let got_bits: Vec<(u16, u64)> =
                            got.iter().map(|&(p, v)| (p.0, v.to_bits())).collect();
                        let want_bits: Vec<(u16, u64)> =
                            want.iter().map(|&(p, v)| (p.0, v.to_bits())).collect();
                        assert_eq!(got_bits, want_bits, "query {query:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_across_queries() {
        let model = ServableModel::from_snapshot(snapshot());
        let mut scratch = PredictScratch::default();
        let warm = Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([80]);
        let first = model.predict_with(&mut scratch, &warm);
        // A different warm query in between must not pollute the next.
        let mut other = Query::new(Ip::from_octets(99, 0, 0, 1)).with_open([80]);
        other.asn = Some(7);
        let _ = model.predict_with(&mut scratch, &other);
        let again = model.predict_with(&mut scratch, &warm);
        assert_eq!(first, again);
    }

    #[test]
    fn nan_probability_rule_does_not_panic_the_server() {
        // Regression: `sort_ranked` used `partial_cmp(..).unwrap()`.
        let mut rules: Map<CondKey, Vec<(Port, f64)>> = fixture_rules()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        rules.insert(
            CondKey::Port(Port(22)),
            vec![(Port(4444), f64::NAN), (Port(5555), 0.4)],
        );
        let model = ServableModel::from_snapshot(snapshot_of(&FeatureRules::from_parts(rules)));
        let ranked = model.predict(&Query::new(Ip::from_octets(10, 1, 2, 3)).with_open([22]));
        // The NaN entry surfaces at its or_insert default of 0.0 and never
        // outranks the real rule.
        assert_eq!(ranked[0], (Port(5555), 0.4));
        assert!(ranked.iter().any(|&(p, v)| p == Port(4444) && v == 0.0));
    }
}
