//! §7 — fundamental limitations: the ideal-conditions upper bound.
//!
//! The paper's stress test: give GPS a 95% seed (nearly all patterns
//! known), the /0 step size, and count *every* service on a host as found
//! the moment any service on it is found. Even then only ~80% of normalized
//! services are discoverable with less bandwidth than exhaustive scanning —
//! the remainder are randomly-configured hosts (FRITZ-style random ports,
//! forwarding) that no intelligent scanner can predict.

use std::collections::{HashMap, HashSet};

use gps_core::host::group_by_host;
use gps_core::priors::build_priors_list;
use gps_core::{lzr_dataset, CondModel, Interactions};
use gps_scan::{ScanConfig, ScanPhase, Scanner};
use gps_synthnet::Internet;

use crate::{Report, Scenario};

pub fn run(scenario: &Scenario, net: &Internet) -> Report {
    let mut report = Report::new();
    // 95% seed / 5% test split over an *unfiltered* all-ports sample, so
    // randomly-configured services (random ports, forwarding) stay in the
    // denominator — they are exactly the floor §7 quantifies.
    let dataset = lzr_dataset(net, 0.25, 0.95, 0, 0, scenario.seed ^ 0x5EC7);

    // Train on the 95% side.
    let mut scanner = Scanner::new(
        net,
        ScanConfig {
            day: 0,
            ip_filter: dataset.visible_ips.clone(),
            port_filter: dataset.ports.clone(),
            ..Default::default()
        },
    );
    let ports = match &dataset.ports {
        Some(p) => (**p).clone(),
        None => net.all_ports(),
    };
    let seed_ips: Vec<gps_types::Ip> = {
        let mut v: Vec<u32> = dataset.seed_ips.iter().copied().collect();
        v.sort_unstable();
        v.into_iter().map(gps_types::Ip).collect()
    };
    let seed = scanner.scan_ip_set(ScanPhase::Seed, seed_ips.iter().copied(), &ports);
    let (seed, _) = gps_core::filter_pseudo_services(seed);
    let asn_of = |ip: gps_types::Ip| net.asn_of(ip).map(|a| a.0);
    let hosts = group_by_host(
        &seed,
        &[gps_core::NetFeature::Slash(16), gps_core::NetFeature::Asn],
        &asn_of,
    );
    let (model, _) = CondModel::build(&hosts, Interactions::ALL);

    // /0 step: the priors list collapses to ports, scanned exhaustively in
    // coverage order. Count-at-first-discovery: a hit on any service of a
    // host credits all its test services.
    let priors = build_priors_list(&model, &hosts, 0);

    // Group the test ground truth by host.
    let mut test_by_host: HashMap<u32, Vec<gps_types::ServiceKey>> = HashMap::new();
    for key in dataset.test.services() {
        test_by_host.entry(key.ip.0).or_default().push(*key);
    }
    let per_port = dataset.test.per_port().clone();
    let num_ports = dataset.test.num_ports() as f64;

    let mut discovered_hosts: HashSet<u32> = HashSet::new();
    let mut norm_sum = 0.0;
    let mut found = 0u64;
    let mut probes = 0u64;
    let mut best_normalized_cheaper = 0.0f64;
    let universe = net.universe_size() as f64;

    let mut eval_scanner = Scanner::new(
        net,
        ScanConfig {
            day: 0,
            ip_filter: dataset.visible_ips.clone(),
            port_filter: dataset.ports.clone(),
            ..Default::default()
        },
    );
    for entry in &priors {
        probes += eval_scanner.allocated_size_within(entry.subnet);
        for obs in eval_scanner.scan_subnet_port(ScanPhase::Baseline, entry.subnet, entry.port) {
            if discovered_hosts.insert(obs.ip.0) {
                if let Some(services) = test_by_host.get(&obs.ip.0) {
                    for key in services {
                        found += 1;
                        norm_sum += 1.0 / per_port[&key.port.0] as f64;
                    }
                }
            }
        }
        let scans = probes as f64 / universe;
        let normalized = norm_sum / num_ports;
        // "Cheaper than exhaustive": exhaustive reaches `normalized` after
        // ~normalized × |ports| full scans (each port fully found when
        // scanned).
        let exhaustive_equiv = normalized * num_ports;
        if scans < exhaustive_equiv && normalized > best_normalized_cheaper {
            best_normalized_cheaper = normalized;
        }
    }

    let final_norm = norm_sum / num_ports;
    let final_all = found as f64 / dataset.test.total().max(1) as f64;
    println!("== §7: ideal-conditions upper bound ==");
    println!(
        "95% seed, /0 step, count-at-first-discovery: reached {:.1}% normalized / {:.1}% all",
        100.0 * final_norm,
        100.0 * final_all
    );
    println!(
        "max normalized reachable with less bandwidth than exhaustive: {:.1}%",
        100.0 * best_normalized_cheaper
    );

    report.claim(
        "sec7-bound",
        "even under ideal conditions, randomly-configured hosts bound discovery",
        "80% of normalized services discoverable cheaper than exhaustive scanning",
        format!("{:.1}%", 100.0 * best_normalized_cheaper),
        (0.5..0.98).contains(&best_normalized_cheaper),
    );

    report
}
