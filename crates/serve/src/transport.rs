//! The TCP serving front end's settings and entry points.
//!
//! The wire protocol (`proto`) says what the bytes mean; `crate::net`
//! drives every accepted socket: N event-loop threads multiplexing
//! nonblocking sockets over Linux `epoll`, with incremental frame
//! decoding. One engine holds two pipelined connections and tens of
//! thousands of mostly-idle ones — the LZR-style scanning fan-in the
//! serving layer exists for — and hosts the HTTP gateway on the same
//! loops. The router (`gps route`) runs on the same engine with
//! [`TransportConfig::default`].

use std::io;
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

use crate::server::PredictionServer;

/// What [`serve`] can be told about the connections it holds.
#[derive(Debug, Clone, Default)]
pub struct TransportConfig {
    /// Live-connection cap; 0 = unlimited. Accepts beyond the cap are
    /// dropped immediately and counted in `conns_rejected`.
    pub max_conns: usize,
    /// Close a connection that goes this long without sending a byte
    /// (half-sent frames included). `None` = never.
    pub idle_timeout: Option<Duration>,
}

impl TransportConfig {
    /// Resolve a transport *name* into a config. `"events"` — the epoll
    /// event loops — is the only one, and resolves to the default.
    pub fn named(name: &str) -> Result<TransportConfig, String> {
        match name {
            "events" => Ok(TransportConfig::default()),
            other => Err(format!(
                "unknown transport {other:?} (events is the only transport)"
            )),
        }
    }

    pub(crate) fn max_conns_or_unlimited(&self) -> u64 {
        if self.max_conns == 0 {
            u64::MAX
        } else {
            self.max_conns as u64
        }
    }
}

/// Event-loop threads for a host reporting `parallelism`: the loops run
/// the prediction kernel themselves, so every core gets one (2 when the
/// host will not say).
pub(crate) fn event_loops(parallelism: io::Result<NonZeroUsize>) -> usize {
    parallelism.map_or(2, NonZeroUsize::get)
}

/// Serve the wire protocol on `listener`. Blocks forever (run on a
/// dedicated thread if the caller needs to keep working).
pub fn serve(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    config: TransportConfig,
) -> io::Result<()> {
    serve_with_http(server, listener, None, config)
}

/// [`serve`], plus an optional HTTP/1.1 gateway listener (`--http-addr`).
/// HTTP connections multiplex onto the same event loops as the frame
/// protocol — just another per-connection protocol state — and both
/// listeners answer from the same [`PredictionServer`].
pub fn serve_with_http(
    server: Arc<PredictionServer>,
    listener: TcpListener,
    http: Option<TcpListener>,
    config: TransportConfig,
) -> io::Result<()> {
    crate::net::serve_events(server, listener, http, &config)?;
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_to_pollers() {
        assert!(TransportConfig::named("events").is_ok());
        assert!(TransportConfig::named("events-poll").is_err());
        assert!(TransportConfig::named("threads").is_err());
        assert!(TransportConfig::named("nope").is_err());
    }

    #[test]
    fn config_resolution() {
        let config = TransportConfig::default();
        assert_eq!(config.max_conns_or_unlimited(), u64::MAX);
        let config = TransportConfig {
            max_conns: 7,
            ..TransportConfig::default()
        };
        assert_eq!(config.max_conns_or_unlimited(), 7);
    }

    #[test]
    fn one_event_loop_per_core_with_no_cap() {
        let cores = |n| Ok(NonZeroUsize::new(n).unwrap());
        assert_eq!(event_loops(cores(1)), 1);
        assert_eq!(event_loops(cores(64)), 64, "the old cap of 4 is gone");
        assert_eq!(event_loops(Err(io::ErrorKind::Unsupported.into())), 2);
    }
}
