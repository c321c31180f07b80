//! Table 2 — GPS performance breakdown.
//!
//! Reproduces the per-stage accounting: scanning bandwidth/wall-clock (via
//! the rate model), data transferred to/from the compute platform, the
//! measured single-threaded compute time, and the serverless cost of the
//! engine's bytes-processed.
//!
//! Paper headlines: the bottleneck is scanning bandwidth (12.3 days of
//! scans vs 13 minutes of BigQuery compute, itself 5870x faster than one
//! core); total engine cost ~75¢. Here the whole computation runs on one
//! thread in milliseconds, so the bottleneck claim is measured directly.

use std::time::Duration;

use gps_core::{run_gps, GpsConfig};
use gps_engine::CostModel;
use gps_scan::{RateModel, ScanPhase};
use gps_synthnet::Internet;

use crate::{Report, Scenario, Table};

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 86400.0 {
        format!("{:.1} days", s / 86400.0)
    } else if s >= 3600.0 {
        format!("{:.1} hours", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.0} ms", s * 1000.0)
    }
}

pub fn run(scenario: &Scenario, net: &Internet) -> Report {
    let mut report = Report::new();
    let dataset = scenario.lzr(net, 0.40, 0.0625);
    let rates = RateModel::default();
    let cost = CostModel::default();

    let run = run_gps(
        net,
        &dataset,
        &GpsConfig {
            step_prefix: 16,
            ..Default::default()
        },
    );

    // Data-transfer sizes: observation rows up, prediction rows down
    // (approximate row sizes mirroring the paper's GB figures).
    let seed_bytes = run.seed_observations_raw as u64 * 120;
    let priors_bytes = run.priors_services as u64 * 120;
    let predictions_bytes = run.predictions_total as u64 * 20;
    let engine_bytes = run.engine_ledger.bytes_processed();

    println!("== Table 2: GPS performance breakdown ==");
    let mut table = Table::new(["stage", "bandwidth/probes", "wall-clock", "data", "cost"]);
    table.row([
        "seed scan".to_string(),
        format!(
            "{:.1} scans",
            run.ledger
                .full_scans_phase(ScanPhase::Seed, net.universe_size())
        ),
        fmt_duration(rates.scan_time(ScanPhase::Seed, run.ledger.bytes(ScanPhase::Seed))),
        String::new(),
        String::new(),
    ]);
    table.row([
        "seed upload".to_string(),
        String::new(),
        fmt_duration(rates.transfer_time(seed_bytes)),
        format!("{:.2} GB", seed_bytes as f64 / 1e9),
        "0 c".to_string(),
    ]);
    table.row([
        "predict first service (compute)".to_string(),
        format!("{} keys", run.model_stats.distinct_keys),
        fmt_duration(run.timings.model_build + run.timings.priors_build),
        format!("{:.2} GB processed", engine_bytes as f64 / 1e9),
        format!("{:.2} c", cost.cost_cents(engine_bytes)),
    ]);
    table.row([
        "PFS scan (priors)".to_string(),
        format!(
            "{:.1} scans",
            run.ledger
                .full_scans_phase(ScanPhase::Priors, net.universe_size())
        ),
        fmt_duration(rates.scan_time(ScanPhase::Priors, run.ledger.bytes(ScanPhase::Priors))),
        String::new(),
        String::new(),
    ]);
    table.row([
        "PFS upload".to_string(),
        String::new(),
        fmt_duration(rates.transfer_time(priors_bytes)),
        format!("{:.2} GB", priors_bytes as f64 / 1e9),
        "0 c".to_string(),
    ]);
    table.row([
        "predict remaining services (compute)".to_string(),
        format!("{} rules", run.rules.len()),
        fmt_duration(run.timings.rules_build),
        String::new(),
        String::new(),
    ]);
    table.row([
        "PRS download".to_string(),
        format!("{} predictions", run.predictions_total),
        fmt_duration(rates.transfer_time(predictions_bytes)),
        format!("{:.2} GB", predictions_bytes as f64 / 1e9),
        "0 c".to_string(),
    ]);
    table.row([
        "PRS scan (predictions)".to_string(),
        format!(
            "{:.2} scans",
            run.ledger
                .full_scans_phase(ScanPhase::Predict, net.universe_size())
        ),
        fmt_duration(rates.scan_time(ScanPhase::Predict, run.ledger.bytes(ScanPhase::Predict))),
        String::new(),
        String::new(),
    ]);
    let total_scan_time = rates.total_scan_time(&run.ledger);
    table.row([
        "TOTAL".to_string(),
        format!("{:.1} scans", run.total_scans()),
        format!(
            "scan {} + compute {}",
            fmt_duration(total_scan_time),
            fmt_duration(run.timings.compute_total())
        ),
        format!(
            "{:.2} GB",
            (seed_bytes + priors_bytes + predictions_bytes + engine_bytes) as f64 / 1e9
        ),
        format!("{:.2} c", cost.cost_cents(engine_bytes)),
    ]);
    table.print();

    // Claims.
    report.claim(
        "tab2-bottleneck",
        "GPS's bottleneck is scanning bandwidth, not computation",
        "12.3 days of scanning vs 13 minutes of computation on BigQuery (5870x faster than one core)",
        format!(
            "simulated scanning {} vs measured single-threaded computation {}",
            fmt_duration(total_scan_time),
            fmt_duration(run.timings.compute_total())
        ),
        total_scan_time > run.timings.compute_total() * 10,
    );

    report.claim(
        "tab2-seed-dominates",
        "the seed scan dominates scanning cost when collected from scratch",
        "collecting the seed is 97.5% of all scanning time; reusing one cuts runtime 94%",
        format!(
            "seed {:.1} of {:.1} total scans ({:.0}%)",
            run.ledger
                .full_scans_phase(ScanPhase::Seed, net.universe_size()),
            run.total_scans(),
            100.0
                * run
                    .ledger
                    .full_scans_phase(ScanPhase::Seed, net.universe_size())
                / run.total_scans()
        ),
        run.ledger
            .full_scans_phase(ScanPhase::Seed, net.universe_size())
            / run.total_scans()
            > 0.5,
    );

    report
}
