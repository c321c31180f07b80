//! The four-phase GPS pipeline (§5): seed scan → probabilistic model →
//! priors scan → prediction scan, under the Equation 3 bandwidth constraint.
//!
//! [`run_gps`] drives the whole system against a [`Dataset`] and returns a
//! [`GpsRun`] holding the discovery curve, the trained artifacts (model
//! stats, priors list, feature rules), the bandwidth ledger, and phase
//! timings — everything the experiment harness needs to regenerate the
//! paper's figures.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gps_engine::ExecLedger;
use gps_scan::{BandwidthLedger, RateModel, ScanConfig, ScanPhase, Scanner, ServiceObservation};
use gps_synthnet::Internet;
use gps_types::{IntMap, IntSet, Ip, PortSet, ServiceKey};

use crate::config::GpsConfig;
use crate::dataset::Dataset;
use crate::filter::{filter_pseudo_services, FilterStats};
use crate::host::{group_by_host, HostRecord};
use crate::metrics::{CoverageTracker, DiscoveryCurve};
use crate::model::{BuildStats, CondModel};
use crate::predict::{build_predictions, FeatureRules, Prediction};
use crate::priors::{build_priors_list, PriorsEntry};

/// Wall-clock components of a run. Scan times are simulated via the
/// [`RateModel`]; compute times are measured.
#[derive(Debug, Clone)]
pub struct PhaseTimings {
    pub seed_scan: Duration,
    pub model_build: Duration,
    pub priors_build: Duration,
    pub priors_scan: Duration,
    pub rules_build: Duration,
    pub predict_scan: Duration,
}

impl PhaseTimings {
    /// Total measured computation (Table 2's compute rows; the paper's
    /// "13 minutes" on BigQuery).
    pub fn compute_total(&self) -> Duration {
        self.model_build + self.priors_build + self.rules_build
    }
}

/// Everything produced by one GPS run.
#[derive(Debug)]
pub struct GpsRun {
    pub dataset_name: String,
    /// Coverage/bandwidth/precision curve (checkpointed during discovery).
    pub curve: DiscoveryCurve,
    /// Test-set services discovered.
    pub found: IntSet<ServiceKey>,
    pub ledger: BandwidthLedger,
    pub universe_size: u64,
    /// Raw/filtered seed observation counts.
    pub seed_observations_raw: usize,
    pub seed_observations: usize,
    pub seed_hosts: usize,
    pub filter_stats: FilterStats,
    pub model_stats: BuildStats,
    /// Engine accounting for the model build (Table 2's data-processed
    /// column).
    pub engine_ledger: ExecLedger,
    /// Full priors list (entries actually scanned: `priors_scanned`).
    pub priors_list: Vec<PriorsEntry>,
    pub priors_scanned: usize,
    /// Responsive services found by the priors scan.
    pub priors_services: usize,
    pub rules: FeatureRules,
    /// The trained conditional-probability model (kept for downstream
    /// analyses: Figure 4 attribution, Tables 3–4, §6.6).
    pub model: CondModel,
    /// Host-grouped, filtered seed records the model was trained on.
    pub seed_host_records: Vec<HostRecord>,
    /// Predictions emitted / actually scanned.
    pub predictions_total: usize,
    pub predictions_scanned: usize,
    /// Prediction probes spent per target port (Figure 4b's GPS bars).
    pub predictions_per_port: IntMap<u16, u64>,
    pub min_prob_used: f64,
    pub timings: PhaseTimings,
    /// True if the Equation 3 budget stopped a phase early.
    pub truncated_by_budget: bool,
}

impl GpsRun {
    /// Eq. 1 at end of run.
    pub fn fraction_of_services(&self) -> f64 {
        self.curve.last().fraction_all
    }

    /// Eq. 2 at end of run.
    pub fn fraction_normalized(&self) -> f64 {
        self.curve.last().fraction_normalized
    }

    /// Total bandwidth in 100%-scan units.
    pub fn total_scans(&self) -> f64 {
        self.ledger.full_scans(self.universe_size)
    }
}

/// Run GPS end to end on a dataset.
pub fn run_gps(net: &Internet, dataset: &Dataset, config: &GpsConfig) -> GpsRun {
    config.validate().expect("invalid GPS config");
    let universe = net.universe_size();
    let budget_probes = config
        .budget_scans
        .map(|scans| (scans * universe as f64) as u64)
        .unwrap_or(u64::MAX);

    let mut scanner = Scanner::new(
        net,
        ScanConfig {
            day: dataset.day,
            ip_filter: dataset.visible_ips.clone(),
            port_filter: dataset.ports.clone(),
            ..Default::default()
        },
    );
    let rate_model = RateModel::default();
    let asn_of = |ip: Ip| net.asn_of(ip).map(|a| a.0);

    // ---------------------------------------------------- phase 1: seed scan
    // "All ports" means the simulated port space (the paper's 65,536 ports
    // scale down with the universe; DESIGN.md §1).
    let ports: PortSet = match &dataset.ports {
        Some(p) => (**p).clone(),
        None => net.all_ports(),
    };
    let seed_ips: Vec<Ip> = {
        let mut v: Vec<u32> = dataset.seed_ips.iter().copied().collect();
        v.sort_unstable();
        v.into_iter().map(Ip).collect()
    };
    let raw_seed = scanner.scan_ip_set(ScanPhase::Seed, seed_ips.iter().copied(), &ports);
    let seed_scan_time =
        rate_model.scan_time(ScanPhase::Seed, scanner.ledger().bytes(ScanPhase::Seed));

    // Appendix B filter, then the dataset's ports-with->N-IPs filter.
    let seed_observations_raw = raw_seed.len();
    let (filtered, filter_stats) = filter_pseudo_services(raw_seed);
    let filtered = apply_seed_port_threshold(filtered, dataset.min_ips_per_port);
    let seed_observations = filtered.len();

    let seed_hosts = group_by_host(&filtered, &config.net_features, &asn_of);
    let min_prob_used = resolve_min_prob(&filtered, dataset.seed_size());

    // ----------------------------------------------------- phase 2: model
    let t0 = Instant::now();
    let (model, model_stats) = CondModel::build(&seed_hosts, config.interactions);
    let model_build = t0.elapsed();
    // The self-join is one engine query over 24-byte pair rows.
    let mut engine_ledger = ExecLedger::new();
    engine_ledger.record_rows(model_stats.join_pairs, 24);

    // ------------------------------------------------ phase 3: priors scan
    let t0 = Instant::now();
    let priors_list = build_priors_list(&model, &seed_hosts, config.step_prefix);
    let priors_build = t0.elapsed();

    let mut tracker = CoverageTracker::new(&dataset.test);
    let mut curve = DiscoveryCurve::default();
    curve.push(tracker.snapshot(scanner.ledger().full_scans(universe)));

    // Seed pairs plus every priors response so far: a priors response is
    // kept once, and only if the seed did not already see it.
    let mut known: IntSet<(u32, u16)> = filtered.iter().map(|o| (o.ip.0, o.port.0)).collect();
    let mut prior_observations: Vec<ServiceObservation> = Vec::new();
    let mut truncated = false;
    let mut priors_scanned = 0usize;

    let stride = (priors_list.len() / (config.curve_points / 2).max(1)).max(1);
    for (i, entry) in priors_list.iter().enumerate() {
        // Estimate the SYN sweep; the LZR/ZGrab chain adds ~2 probes per
        // responsive service on top, so also stop once the ledger crosses
        // the budget (overshoot is bounded by one tuple's responses).
        let cost = scanner.allocated_size_within(entry.subnet);
        if scanner.ledger().total_probes().saturating_add(cost) > budget_probes {
            truncated = true;
            break;
        }
        let before = scanner.ledger().total_probes();
        let observations = scanner.scan_subnet_port(ScanPhase::Priors, entry.subnet, entry.port);
        tracker.charge_probes(scanner.ledger().total_probes() - before);
        for obs in observations {
            tracker.record(obs.key());
            if known.insert((obs.ip.0, obs.port.0)) {
                prior_observations.push(obs);
            }
        }
        priors_scanned = i + 1;
        if i % stride == 0 {
            curve.push(tracker.snapshot(scanner.ledger().full_scans(universe)));
        }
    }
    curve.push(tracker.snapshot(scanner.ledger().full_scans(universe)));
    let priors_scan_time =
        rate_model.scan_time(ScanPhase::Priors, scanner.ledger().bytes(ScanPhase::Priors));

    // -------------------------------------------- phase 4: prediction scan
    let t0 = Instant::now();
    let rules = FeatureRules::build(&model, &seed_hosts, min_prob_used);
    // Each host expands through `CompiledRules::expand`, the kernel a warm
    // server query runs, so offline and online answers share one fold.
    let compiled_rules = crate::compiled::CompiledRules::from_rules(&rules);
    let prior_hosts: Vec<HostRecord> =
        group_by_host(&prior_observations, &config.net_features, &asn_of);
    // A prior host's own responses are its open ports, which the
    // expansion skips; the seed's services on the same IP are the only
    // other known pairs left to exclude.
    let predictions: Vec<Prediction> = build_predictions(
        &compiled_rules,
        &prior_hosts,
        &seed_hosts,
        config.max_predictions,
    );
    let rules_build = t0.elapsed();

    let predictions_total = predictions.len();
    let mut predictions_scanned = 0usize;
    let mut predictions_per_port: IntMap<u16, u64> = IntMap::default();
    let chunk_size = (predictions.len() / (config.curve_points / 2).max(1)).max(256);
    for chunk in predictions.chunks(chunk_size) {
        let cost = chunk.len() as u64;
        if scanner.ledger().total_probes().saturating_add(cost) > budget_probes {
            truncated = true;
            break;
        }
        for p in chunk {
            *predictions_per_port.entry(p.port.0).or_default() += 1;
        }
        let before = scanner.ledger().total_probes();
        let found = scanner.scan_targets(ScanPhase::Predict, chunk.iter().map(|p| (p.ip, p.port)));
        tracker.charge_probes(scanner.ledger().total_probes() - before);
        for obs in found {
            tracker.record(obs.key());
        }
        predictions_scanned += chunk.len();
        curve.push(tracker.snapshot(scanner.ledger().full_scans(universe)));
    }
    let predict_scan_time = rate_model.scan_time(
        ScanPhase::Predict,
        scanner.ledger().bytes(ScanPhase::Predict),
    );

    GpsRun {
        dataset_name: dataset.name.clone(),
        curve,
        found: tracker.found().clone(),
        ledger: scanner.ledger().clone(),
        universe_size: universe,
        seed_observations_raw,
        seed_observations,
        seed_hosts: seed_hosts.len(),
        filter_stats,
        model_stats,
        engine_ledger,
        priors_list,
        priors_scanned,
        priors_services: prior_observations.len(),
        rules,
        model,
        seed_host_records: seed_hosts,
        predictions_total,
        predictions_scanned,
        predictions_per_port,
        min_prob_used,
        timings: PhaseTimings {
            seed_scan: seed_scan_time,
            model_build,
            priors_build,
            priors_scan: priors_scan_time,
            rules_build,
            predict_scan: predict_scan_time,
        },
        truncated_by_budget: truncated,
    }
}

/// Drop seed observations on ports with ≤ `min_ips` responsive seed IPs
/// (the LZR evaluation's port filter, applied to the seed side).
fn apply_seed_port_threshold(
    observations: Vec<ServiceObservation>,
    min_ips: u64,
) -> Vec<ServiceObservation> {
    if min_ips == 0 {
        return observations;
    }
    let mut per_port: HashMap<u16, u64> = HashMap::new();
    for o in &observations {
        *per_port.entry(o.port.0).or_default() += 1;
    }
    observations
        .into_iter()
        .filter(|o| per_port[&o.port.0] > min_ips)
        .collect()
}

/// §5.4: the discard threshold should sit at the hit rate of random
/// probing, estimated from the seed scan as (median per-port responsive
/// IPs in the seed) ÷ (seed addresses). Scale-free, so it works for
/// simulated universes much smaller than 3.7B addresses.
fn resolve_min_prob(seed_observations: &[ServiceObservation], seed_size: u64) -> f64 {
    let mut per_port: HashMap<u16, u64> = HashMap::new();
    for o in seed_observations {
        *per_port.entry(o.port.0).or_default() += 1;
    }
    if per_port.is_empty() || seed_size == 0 {
        return 1e-5;
    }
    let mut counts: Vec<u64> = per_port.values().copied().collect();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    (median as f64 / seed_size as f64).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{censys_dataset, lzr_dataset};
    use gps_synthnet::UniverseConfig;

    fn net() -> Internet {
        Internet::generate(&UniverseConfig::tiny(77))
    }

    fn quick_config() -> GpsConfig {
        GpsConfig {
            seed_fraction: 0.05,
            step_prefix: 20,
            curve_points: 32,
            ..Default::default()
        }
    }

    #[test]
    fn censys_run_finds_most_services() {
        let net = net();
        let ds = censys_dataset(&net, 200, 0.05, 0, 1);
        let run = run_gps(&net, &ds, &quick_config());
        assert!(
            run.seed_observations > 100,
            "seed too small: {}",
            run.seed_observations
        );
        assert!(run.model_stats.distinct_keys > 100);
        assert!(run.priors_scanned > 0);
        assert!(run.predictions_total > 0);
        let frac = run.fraction_of_services();
        assert!(frac > 0.5, "GPS should find most services, got {frac}");
        // Curve is monotone in bandwidth and coverage.
        let pts = &run.curve.points;
        assert!(pts.windows(2).all(|w| w[0].scans <= w[1].scans));
        assert!(pts
            .windows(2)
            .all(|w| w[0].fraction_all <= w[1].fraction_all));
    }

    #[test]
    fn found_services_are_real_test_services() {
        let net = net();
        let ds = censys_dataset(&net, 200, 0.05, 0, 1);
        let run = run_gps(&net, &ds, &quick_config());
        for key in run.found.iter().take(300) {
            assert!(ds.in_test(key));
            assert!(net.service(key.ip, key.port, 0).is_some());
        }
    }

    #[test]
    fn budget_truncates_run() {
        let net = net();
        let ds = censys_dataset(&net, 200, 0.05, 0, 1);
        let unbounded = run_gps(&net, &ds, &quick_config());
        let total = unbounded.total_scans();
        let seed = unbounded
            .ledger
            .full_scans_phase(ScanPhase::Seed, net.universe_size());
        assert!(total > seed, "discovery phases must cost something");
        // A budget halfway between the sunk seed cost and the full run must
        // cut discovery short.
        let budget = seed + (total - seed) * 0.5;
        let config = GpsConfig {
            budget_scans: Some(budget),
            ..quick_config()
        };
        let bounded = run_gps(&net, &ds, &config);
        assert!(bounded.truncated_by_budget);
        // The budget gate pre-checks each work unit's SYN sweep; the
        // response chain (LZR+ZGrab ≈ 2 probes per responsive service) can
        // overshoot by a hair.
        assert!(
            bounded.total_scans() <= budget * 1.05 + 0.05,
            "{} vs budget {budget}",
            bounded.total_scans()
        );
        assert!(bounded.fraction_of_services() <= unbounded.fraction_of_services());
    }

    #[test]
    fn lzr_run_works_on_all_ports() {
        let net = net();
        let ds = lzr_dataset(&net, 0.3, 0.5, 2, 0, 2);
        let config = GpsConfig {
            seed_fraction: 0.15,
            ..quick_config()
        };
        let run = run_gps(&net, &ds, &config);
        assert!(
            run.fraction_of_services() > 0.3,
            "got {}",
            run.fraction_of_services()
        );
        // Normalized is harder than raw coverage on all-port datasets.
        assert!(run.fraction_normalized() <= run.fraction_of_services() + 0.1);
    }

    #[test]
    fn deterministic_runs() {
        let net = net();
        let ds = censys_dataset(&net, 100, 0.05, 0, 9);
        let a = run_gps(&net, &ds, &quick_config());
        let b = run_gps(&net, &ds, &quick_config());
        assert_eq!(a.found, b.found);
        assert_eq!(a.predictions_total, b.predictions_total);
        assert_eq!(a.ledger.total_probes(), b.ledger.total_probes());
    }

    #[test]
    fn smaller_step_uses_less_priors_bandwidth() {
        let net = net();
        let ds = censys_dataset(&net, 100, 0.05, 0, 9);
        let big = run_gps(
            &net,
            &ds,
            &GpsConfig {
                step_prefix: 16,
                ..quick_config()
            },
        );
        let small = run_gps(
            &net,
            &ds,
            &GpsConfig {
                step_prefix: 24,
                ..quick_config()
            },
        );
        assert!(
            small.ledger.probes(ScanPhase::Priors) < big.ledger.probes(ScanPhase::Priors),
            "/24 priors must cost less than /16"
        );
    }

    #[test]
    fn min_prob_resolution() {
        use gps_types::{Port, Protocol, Sym};
        let mk = |ip: u32, port: u16| ServiceObservation {
            ip: Ip(ip),
            port: Port(port),
            ttl: 64,
            protocol: Protocol::Http,
            content: Sym(0),
            features: vec![],
        };
        // Ports with 1, 3, 5 responsive IPs → median 3.
        let mut observations = vec![mk(1, 10)];
        for ip in 1..=3 {
            observations.push(mk(ip, 20));
        }
        for ip in 1..=5 {
            observations.push(mk(ip, 30));
        }
        let p = resolve_min_prob(&observations, 1000);
        assert!((p - 3.0 / 1000.0).abs() < 1e-12);
        assert_eq!(resolve_min_prob(&[], 1000), 1e-5);
    }
}
