//! `loadgen`'s contract, as CI's smokes rely on it: the binary against a
//! live server on a loopback port, its exit codes and the output lines
//! the smokes grep.

use std::net::SocketAddr;
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock};

use gps_cli::args::{self, Args};
use gps_cli::commands::cmd_export_model;
use gps_core::ModelSnapshot;
use gps_serve::{PredictionServer, ServableModel, ServeConfig, TransportConfig};
use gps_types::testutil::TestDir;

/// One server for the whole suite: a quick-universe model behind
/// `gps_serve::serve` on an ephemeral port.
fn server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let dir = TestDir::new("loadgen");
        let args = Args {
            command: args::Command::ExportModel,
            quick: true,
            seed_fraction: 0.05,
            model: dir.path("model.gpsb").to_string_lossy().into_owned(),
            ..Args::default()
        };
        cmd_export_model(&args).unwrap();
        let snapshot = ModelSnapshot::load(&args.model).unwrap();
        let server = PredictionServer::start(
            ServableModel::from_snapshot(snapshot),
            ServeConfig::default(),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            gps_serve::serve(Arc::new(server), listener, TransportConfig::default())
        });
        addr
    })
}

fn loadgen(flags: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(flags.split_whitespace())
        .output()
        .expect("loadgen runs")
}

fn against_server(flags: &str) -> Output {
    loadgen(&format!("--addr {} {flags}", server()))
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn holds_exactly_the_connections_asked_for() {
    let output = against_server("--connections 64 --clients 4 --requests 2000");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let text = stdout(&output);
    assert!(text.contains("64 opened and held"), "{text}");
    assert!(text.contains("live server-side at peak)"), "{text}");
    assert!(text.contains("predictions:  2000 in"), "{text}");
}

#[test]
fn pipelined_and_batched_runs_succeed() {
    for flags in ["--pipeline 8", "--batch 256"] {
        let output = against_server(&format!("--clients 2 --requests 3000 {flags}"));
        assert_eq!(output.status.code(), Some(0), "{flags}: {output:?}");
        assert!(stdout(&output).contains("predictions:  3000 in"), "{flags}");
    }
}

#[test]
fn a_refused_batch_exits_nonzero() {
    // One frame one query over `MAX_BATCH_QUERIES`: the server answers
    // it with an error, and loadgen must not report success.
    let output = against_server("--clients 1 --requests 65537 --batch 65537");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("query failed"));
}

#[test]
fn deleted_flags_bad_values_and_a_missing_addr_exit_2() {
    let addr = server();
    for flags in [
        format!("--addr {addr} --wire binary"),
        format!("--addr {addr} --tcp"),
        format!("--addr {addr} --json-out x"),
        format!("--addr {addr} --pipeline 8 --batch 256"),
        format!("--addr {addr} --pipeline 129"),
        "--clients 4".to_string(),
    ] {
        let output = loadgen(&flags);
        assert_eq!(output.status.code(), Some(2), "{flags}: {output:?}");
        assert!(stdout(&output).is_empty(), "{flags}: ran anyway");
    }
}
