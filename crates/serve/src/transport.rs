//! Transport selection for the TCP serving front end.
//!
//! The wire protocol (`proto`) is transport-agnostic; this module picks
//! *how* accepted sockets are driven:
//!
//! - [`Transport::Threads`] — one OS thread per connection, blocking
//!   reads/writes. Simplest, and the lowest-latency option while
//!   connection counts stay in the hundreds. The default.
//! - [`Transport::Events`] — N event-loop threads multiplexing
//!   nonblocking sockets over `epoll` (or the portable `poll(2)`
//!   fallback), with incremental frame decoding (`crate::net`). Holds
//!   tens of thousands of mostly-idle connections — the LZR-style
//!   scanning fan-in the serving layer exists for.
//!
//! Both transports share the request core (`proto::classify` + response
//! builders) and both honor `max_conns` / `idle_timeout`, so the choice
//! is invisible at the protocol level — the transport-parity e2e suite
//! runs every wire test against each.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use crate::server::PredictionServer;

/// Which connection-driving strategy `serve` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One blocking OS thread per connection.
    Threads,
    /// Readiness-based event loops over nonblocking sockets.
    Events,
}

impl Transport {
    pub fn name(&self) -> &'static str {
        match self {
            Transport::Threads => "threads",
            Transport::Events => "events",
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Transport, String> {
        match s {
            "threads" => Ok(Transport::Threads),
            "events" | "events-poll" => Ok(Transport::Events),
            other => Err(format!("unknown transport {other:?} (threads|events)")),
        }
    }
}

/// Knobs common to both transports plus the event loop's own.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    pub transport: Transport,
    /// Live-connection cap; 0 = unlimited. Accepts beyond the cap are
    /// dropped immediately and counted in `conns_rejected`.
    pub max_conns: usize,
    /// Close a connection that goes this long without sending a byte
    /// (half-sent frames included). `None` = never.
    pub idle_timeout: Option<Duration>,
    /// Event transport only: number of event-loop threads (0 = auto).
    pub event_loops: usize,
    /// Event transport only: force the portable `poll(2)` backend even
    /// where `epoll` is available (tests exercise it everywhere).
    pub poll_fallback: bool,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            transport: Transport::Threads,
            max_conns: 0,
            idle_timeout: None,
            event_loops: 0,
            poll_fallback: false,
        }
    }
}

impl TransportConfig {
    /// The event transport with defaults.
    pub fn events() -> TransportConfig {
        TransportConfig {
            transport: Transport::Events,
            ..TransportConfig::default()
        }
    }

    /// Resolve a transport *name* into a config: `"threads"`,
    /// `"events"`, or `"events-poll"` (the event transport pinned to the
    /// portable `poll(2)` backend — what the parity test matrix uses to
    /// cover both pollers on every platform).
    pub fn named(name: &str) -> Result<TransportConfig, String> {
        let transport: Transport = name.parse()?;
        Ok(TransportConfig {
            transport,
            poll_fallback: name == "events-poll",
            ..TransportConfig::default()
        })
    }

    pub(crate) fn max_conns_or_unlimited(&self) -> u64 {
        if self.max_conns == 0 {
            u64::MAX
        } else {
            self.max_conns as u64
        }
    }

    pub(crate) fn event_loops_or_auto(&self) -> usize {
        if self.event_loops > 0 {
            return self.event_loops;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(1, 4)
    }
}

/// Serve the wire protocol on `listener` with the configured transport.
/// Blocks forever (run on a dedicated thread if the caller needs to keep
/// working), like [`crate::proto::serve_tcp`] always has.
pub fn serve(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    config: TransportConfig,
) -> io::Result<()> {
    serve_with_http(server, listener, None, config)
}

/// [`serve`], plus an optional HTTP/1.1 gateway listener (`--http-addr`).
///
/// On the event transport the HTTP listener multiplexes onto the same
/// event loops as the frame protocol — HTTP connections are just another
/// per-connection protocol state. On the thread transport (which has no
/// HTTP support of its own) the gateway runs on a small dedicated event
/// loop alongside the blocking frame threads; either way both listeners
/// answer from the same [`PredictionServer`].
pub fn serve_with_http(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    http: Option<TcpListener>,
    config: TransportConfig,
) -> io::Result<()> {
    match config.transport {
        Transport::Threads => {
            if let Some(http) = http {
                let http_server = server.clone();
                let http_config = TransportConfig {
                    transport: Transport::Events,
                    event_loops: 1,
                    ..config.clone()
                };
                std::thread::Builder::new()
                    .name("gps-http".to_string())
                    .spawn(move || {
                        let _ =
                            crate::net::serve_events(http_server, None, Some(http), &http_config);
                    })
                    .expect("spawn http gateway thread");
            }
            crate::proto::serve_blocking(server, listener, &config)
        }
        Transport::Events => crate::net::serve_events(server, Some(listener), http, &config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_names_round_trip() {
        assert_eq!("threads".parse::<Transport>(), Ok(Transport::Threads));
        assert_eq!("events".parse::<Transport>(), Ok(Transport::Events));
        assert!("iouring".parse::<Transport>().is_err());
        assert_eq!(Transport::Threads.name(), "threads");
        assert_eq!(Transport::Events.name(), "events");

        let config = TransportConfig::named("events-poll").unwrap();
        assert_eq!(config.transport, Transport::Events);
        assert!(config.poll_fallback);
        let config = TransportConfig::named("events").unwrap();
        assert!(!config.poll_fallback);
        assert!(TransportConfig::named("nope").is_err());
    }

    #[test]
    fn config_resolution() {
        let config = TransportConfig::default();
        assert_eq!(config.max_conns_or_unlimited(), u64::MAX);
        assert!(config.event_loops_or_auto() >= 1);
        let config = TransportConfig {
            max_conns: 7,
            event_loops: 3,
            ..TransportConfig::default()
        };
        assert_eq!(config.max_conns_or_unlimited(), 7);
        assert_eq!(config.event_loops_or_auto(), 3);
    }
}
