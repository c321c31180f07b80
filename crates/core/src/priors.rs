//! Predicting the first service (§5.3): the priors scan list.
//!
//! Only network features exist for hosts GPS has never seen, so the first
//! service on each host must be found by exhaustively scanning (port,
//! subnet) tuples chosen from the seed set:
//!
//! 1. hosts responding on a single seed port contribute
//!    `(that port, step-subnet(ip))`;
//! 2. for multi-service hosts, each service (IP, Portₐ) contributes the
//!    tuple of its *most predictive sibling* — the Port_b whose best key
//!    maximizes P(Portₐ | …) over all four equation classes;
//! 3. tuples are grouped and scored by how many unique seed services they
//!    help predict (maximal coverage);
//! 4. the list is sorted by coverage, descending.
//!
//! Scanning the list in order finds the most predictive service on each
//! host first, which the prediction phase (§5.4) then expands.

use std::collections::HashMap;

use gps_types::{Port, Subnet};

use crate::host::HostRecord;
use crate::model::CondModel;

/// One entry of the priors scan list: scan `subnet` exhaustively on `port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorsEntry {
    pub port: Port,
    pub subnet: Subnet,
    /// Number of unique seed services this tuple helps predict.
    pub coverage: u64,
}

/// Build the priors scan list from the seed hosts and the trained model.
pub fn build_priors_list(
    model: &CondModel,
    seed_hosts: &[HostRecord],
    step_prefix: u8,
) -> Vec<PriorsEntry> {
    let mut coverage: HashMap<(Port, Subnet), u64> = HashMap::new();

    for host in seed_hosts {
        let step_subnet = Subnet::of_ip(host.ip, step_prefix);
        if host.services.len() == 1 {
            // Step 1: the sole service is the first (and only) service that
            // must be found.
            *coverage
                .entry((host.services[0].port, step_subnet))
                .or_default() += 1;
            continue;
        }
        // Step 2: for every service, the most predictive sibling's port.
        for a in &host.services {
            match model.best_predictor_for(host, a.port) {
                Some((idx, _key, _p)) => {
                    let port_b = host.services[idx].port;
                    *coverage.entry((port_b, step_subnet)).or_default() += 1;
                }
                None => {
                    // No sibling predicts it (unseen pattern): fall back to
                    // finding the service directly.
                    *coverage.entry((a.port, step_subnet)).or_default() += 1;
                }
            }
        }
    }

    let mut list: Vec<PriorsEntry> = coverage
        .into_iter()
        .map(|((port, subnet), coverage)| PriorsEntry {
            port,
            subnet,
            coverage,
        })
        .collect();
    // Step 4: descending coverage; deterministic tiebreak.
    list.sort_by(|a, b| {
        b.coverage
            .cmp(&a.coverage)
            .then(a.port.cmp(&b.port))
            .then(a.subnet.cmp(&b.subnet))
    });
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Interactions, NetFeature};
    use crate::host::group_by_host;
    use crate::model::CondModel;
    use gps_scan::ServiceObservation;
    use gps_types::{Ip, Protocol, Sym};

    fn obs(ip: u32, port: u16) -> ServiceObservation {
        ServiceObservation {
            ip: Ip(ip),
            port: Port(port),
            ttl: 60,
            protocol: Protocol::Http,
            content: Sym(0),
            features: vec![],
        }
    }

    fn hosts_and_model(observations: Vec<ServiceObservation>) -> (Vec<HostRecord>, CondModel) {
        let hosts = group_by_host(&observations, &[NetFeature::Slash(16)], &|_| None);
        let (model, _) = CondModel::build(&hosts, Interactions::ALL);
        (hosts, model)
    }

    #[test]
    fn single_service_hosts_map_to_their_own_port() {
        let (hosts, model) = hosts_and_model(vec![obs(0x0A000001, 8080)]);
        let list = build_priors_list(&model, &hosts, 16);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].port, Port(8080));
        assert_eq!(list[0].subnet, Subnet::of_ip(Ip(0x0A000001), 16));
        assert_eq!(list[0].coverage, 1);
    }

    #[test]
    fn asymmetric_predictiveness_selects_rare_port() {
        // 10 hosts with port 80; two of them also run 2222.
        // P(80 | 2222) = 1.0 but P(2222 | 80) = 0.2, so for the two dual
        // hosts the most predictive first-service is 2222.
        let mut observations = Vec::new();
        for ip in 1..=10u32 {
            observations.push(obs(ip, 80));
        }
        observations.push(obs(1, 2222));
        observations.push(obs(2, 2222));
        let (hosts, model) = hosts_and_model(observations);
        let list = build_priors_list(&model, &hosts, 16);
        // All IPs share one /16 ⇒ tuples keyed by port only here.
        let port2222 = list
            .iter()
            .find(|e| e.port == Port(2222))
            .expect("2222 chosen");
        // 2222 helps predict both (ip1, 80) and (ip2, 80), and is itself the
        // best-predicted service for nobody... coverage ≥ 2.
        assert!(port2222.coverage >= 2, "coverage {}", port2222.coverage);
        // Eight single-service hosts keep (80, net).
        let port80 = list
            .iter()
            .find(|e| e.port == Port(80))
            .expect("80 present");
        assert!(port80.coverage >= 8);
    }

    #[test]
    fn list_is_sorted_by_coverage() {
        let mut observations = Vec::new();
        for ip in 1..=5u32 {
            observations.push(obs(ip, 80));
        }
        observations.push(obs(0x0B000001, 9999));
        let (hosts, model) = hosts_and_model(observations);
        let list = build_priors_list(&model, &hosts, 16);
        assert!(list.windows(2).all(|w| w[0].coverage >= w[1].coverage));
    }

    #[test]
    fn step_prefix_controls_subnet_granularity() {
        let (hosts, model) = hosts_and_model(vec![obs(0x0A00FF01, 80)]);
        for step in [0u8, 8, 16, 24] {
            let list = build_priors_list(&model, &hosts, step);
            assert_eq!(list[0].subnet.prefix_len(), step);
            assert!(list[0].subnet.contains(Ip(0x0A00FF01)));
        }
    }

    #[test]
    fn distinct_subnets_make_distinct_tuples() {
        // Same port, two /16s → two tuples.
        let (hosts, model) = hosts_and_model(vec![obs(0x0A000001, 80), obs(0x0B000001, 80)]);
        let list = build_priors_list(&model, &hosts, 16);
        assert_eq!(list.len(), 2);
        assert!(list.iter().all(|e| e.port == Port(80)));
    }

    #[test]
    fn deterministic_order() {
        let observations: Vec<_> = (1..=20u32)
            .flat_map(|ip| vec![obs(ip, 80), obs(ip, 443)])
            .collect();
        let (hosts, model) = hosts_and_model(observations.clone());
        let a = build_priors_list(&model, &hosts, 20);
        let (hosts2, model2) = hosts_and_model(observations);
        let b = build_priors_list(&model2, &hosts2, 20);
        assert_eq!(a, b);
    }
}
