//! `gpsbench` — the repository's benchmark.
//!
//! ```text
//! gpsbench --workload NAME --seed N --seconds S --trace 0|1   one gated run
//! gpsbench [--workload all] [--seed N] [--seconds S]          every workload,
//!                               interleaved, both passes, result file written
//! gpsbench --compare A B            judge two sets of runs: each side one result
//!                                   file, or a directory of them (one per run)
//! gpsbench --list                                             names and units
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod ladder;
mod offline;
mod proc;
mod report;
mod run;
mod serving;
mod stats;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use gps_types::Json;

use run::{Options, Selection};

/// Seed of a run that names none: the one `results/BENCH_11.json` was
/// measured on.
const DEFAULT_SEED: u64 = 11;

enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
    List,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut options = Options::new(DEFAULT_SEED);
    let mut trace: Option<bool> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.selection = if name == "all" {
                    Selection::All
                } else {
                    let known = report::WORKLOADS.iter().find(|(n, _)| *n == name);
                    Selection::One(known.ok_or_else(|| format!("unknown workload {name:?}"))?.0)
                };
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                options.seconds = seconds;
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            // Test hook: flip one bit of one expected answer, so the run
            // must report a wrong answer and fail.
            "--corrupt-expected" => options.corrupt_expected = true,
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--list" => return Ok(Command::List),
            "--help" | "-h" => {
                return Err(
                    "see the module docs in benchmark/src/main.rs and benchmark/README.md"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    options.trace = trace;
    Ok(Command::Run(options))
}

fn list() {
    println!("workloads:");
    for (name, why) in report::WORKLOADS {
        println!("  {name:<16} {why}");
    }
    println!("end-to-end metrics (every workload, --trace 0):");
    for m in report::END_TO_END
        .iter()
        .chain(std::iter::once(&report::FAIL_RATIO))
    {
        println!(
            "  {:<18} {:<6} better {:<6} bound {:>4.0}%{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            if m.exact { "  exact" } else { "" }
        );
    }
    println!("per-layer metrics (every workload, --trace 1):");
    for (name, unit, better) in report::PER_LAYER {
        println!("  {name:<38} {unit:<6} better {}", better.as_str());
    }
}

/// The result documents of one side of `--compare`: one file, or every
/// gpsbench result file of a directory (one per run of a set).
fn load_set(path: &PathBuf) -> Result<Vec<Json>, String> {
    let mut files = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|entry| entry.path())
            .filter(|file| file.extension().is_some_and(|ext| ext == "json"))
            .collect()
    } else {
        vec![path.clone()]
    };
    files.sort();
    let mut docs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        // A directory also holds trace files; only result files count.
        if doc.get("bench").and_then(Json::as_str) == Some("gpsbench") {
            docs.push(doc);
        } else if !path.is_dir() {
            return Err(format!("{}: not a gpsbench result file", file.display()));
        }
    }
    if docs.is_empty() {
        return Err(format!("{}: no gpsbench result file", path.display()));
    }
    Ok(docs)
}

fn compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let mut out = String::new();
    let regressed = report::compare(&load_set(a)?, &load_set(b)?, &mut out)?;
    print!("{out}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::List) => {
            list();
            Ok(true)
        }
        Ok(Command::Compare(a, b)) => compare(&a, &b).map(|regressed| {
            if regressed {
                eprintln!("gpsbench: regression");
            }
            !regressed
        }),
        Ok(Command::Run(options)) => run::run(&options),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gpsbench: {e}");
            ExitCode::from(2)
        }
    }
}
