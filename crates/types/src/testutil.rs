//! Test fixtures shared across the workspace's test suites.
//!
//! Compiled into the library (Rust has no cross-crate `#[cfg(test)]`
//! visibility) but carrying no runtime state — nothing here is reachable
//! from production code paths.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A per-test scratch directory with a unique name (label + pid +
/// process-wide sequence), removed on drop. Fixed file names in
/// `std::env::temp_dir()` are flaky under parallel `cargo test` and
/// across concurrent CI jobs; the drop cleanup is panic-safe, so failing
/// tests do not litter the temp dir.
pub struct TestDir(PathBuf);

impl TestDir {
    pub fn new(label: &str) -> TestDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gps-test-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create test dir");
        TestDir(dir)
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.0
    }

    /// A file path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The wire-format matrix the serving suites parameterize over: `json`
/// (the original text protocol) and `binary` (GPSQ). Every run covers
/// both.
pub fn serve_wires() -> Vec<&'static str> {
    vec!["json", "binary"]
}

/// A byte-dribbling TCP proxy: forwards every accepted connection to
/// `upstream`, one byte per write with `TCP_NODELAY` set, so the far side
/// sees maximal segmentation — length prefixes torn across reads, frames
/// arriving a byte at a time. Regression fixture for "the read path must
/// not assume the 4-byte prefix arrives whole", on both the client and
/// the server side of the protocol.
pub struct DribbleProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl DribbleProxy {
    pub fn start(upstream: SocketAddr) -> std::io::Result<DribbleProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("dribble-proxy".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_accept.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(client) = stream else { continue };
                    let Ok(server) = TcpStream::connect(upstream) else {
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    // One forwarder per direction; each exits on EOF or
                    // error (dropping its sockets closes the pair).
                    for (mut from, mut to) in [
                        (
                            client.try_clone().expect("clone"),
                            server.try_clone().expect("clone"),
                        ),
                        (server, client),
                    ] {
                        let stop = stop_accept.clone();
                        std::thread::spawn(move || {
                            let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
                            let mut byte = [0u8; 1];
                            while !stop.load(Ordering::Acquire) {
                                match from.read(&mut byte) {
                                    Ok(0) => return,
                                    Ok(_) => {
                                        if to.write_all(&byte).and_then(|()| to.flush()).is_err() {
                                            return;
                                        }
                                    }
                                    Err(e)
                                        if matches!(
                                            e.kind(),
                                            std::io::ErrorKind::WouldBlock
                                                | std::io::ErrorKind::TimedOut
                                        ) =>
                                    {
                                        continue
                                    }
                                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                                        continue
                                    }
                                    Err(_) => return,
                                }
                            }
                        });
                    }
                }
            })
            .expect("spawn proxy");
        Ok(DribbleProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// Where clients should connect instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for DribbleProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop so the thread can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_dirs_are_unique_and_cleaned_up() {
        let a = TestDir::new("unit");
        let b = TestDir::new("unit");
        assert_ne!(a.dir(), b.dir());
        std::fs::write(a.path("x.txt"), b"x").unwrap();
        let kept = a.dir().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropped dir is removed with its contents");
        assert!(b.dir().exists());
    }

    #[test]
    fn wire_matrix_covers_both_wires() {
        assert_eq!(serve_wires(), ["json", "binary"]);
    }

    #[test]
    fn dribble_proxy_forwards_byte_streams_intact() {
        // Upstream: a one-shot echo server.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        let proxy = DribbleProxy::start(upstream_addr).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"dribble me").unwrap();
        let mut got = [0u8; 10];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"dribble me");
        drop(client);
        drop(proxy);
        echo.join().unwrap();
    }
}
