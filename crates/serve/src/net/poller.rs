//! Readiness polling, plus the cross-thread waker.
//!
//! [`Poller`] is epoll, level-triggered (epoll's default), which keeps
//! the connection state machine simple: interest is re-derived from
//! buffer state after every step, and a socket that still has unread
//! bytes simply reports readable again on the next wait.
//!
//! The [`Waker`] is a connected loopback UDP socket pair — pure `std`, no
//! extra syscall surface: its receive half is one more descriptor in the
//! poller. Sends
//! coalesce (the receive side drains everything per wakeup) and a full
//! socket buffer just means a wakeup is already pending, so `wake` never
//! blocks and never needs to succeed more than once.

use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

use super::sys;

/// One ready descriptor, by the token it was registered under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup: the owner should read (to observe the error /
    /// EOF) and close.
    pub failed: bool,
}

/// What a registered descriptor wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// Level-triggered epoll: each registered descriptor carries a `u64`
/// token that comes back in its [`Event`]s.
pub(crate) struct Poller {
    epfd: std::os::fd::OwnedFd,
    scratch: Vec<sys::epoll::EpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll::create()?,
            scratch: vec![sys::epoll::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::epoll::EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::epoll::EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::epoll::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        use sys::epoll::*;
        let mut events = EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        let event = (op != EPOLL_CTL_DEL).then_some(EpollEvent {
            events,
            data: token,
        });
        sys::epoll::ctl(&self.epfd, op, fd, event)
    }

    /// Block until readiness or `timeout` (None = forever); ready
    /// descriptors are appended to `out` (cleared first). Spurious empty
    /// returns are allowed (EINTR, timeout).
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        use sys::epoll::*;
        out.clear();
        let timeout_ms: i32 = match timeout {
            // Round up so a 0.3ms deadline doesn't busy-spin as 0ms.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
            None => -1,
        };
        let n = sys::epoll::wait(&self.epfd, &mut self.scratch, timeout_ms)?;
        for event in &self.scratch[..n] {
            // `events`/`data` may be unaligned on x86-64 (packed struct):
            // copy out before using.
            let bits = { event.events };
            let token = { event.data };
            out.push(Event {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                failed: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// The send half of the loopback wakeup pair; clone freely across
/// threads.
#[derive(Clone)]
pub(crate) struct Waker {
    socket: Arc<UdpSocket>,
}

impl Waker {
    /// Nonblocking and infallible by design: a failed send means the
    /// buffer already holds an undelivered wakeup.
    pub fn wake(&self) {
        let _ = self.socket.send(&[1]);
    }
}

/// The receive half, registered in the owning loop's poller.
pub(crate) struct WakeReceiver {
    socket: UdpSocket,
}

impl WakeReceiver {
    pub fn fd(&self) -> RawFd {
        self.socket.as_raw_fd()
    }

    /// Swallow every queued wakeup (they coalesce into one loop pass).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while self.socket.recv(&mut buf).is_ok() {}
    }
}

/// A connected loopback UDP pair: `Waker::wake` makes the receiver's fd
/// readable.
pub(crate) fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let rx = UdpSocket::bind(("127.0.0.1", 0))?;
    rx.set_nonblocking(true)?;
    let tx = UdpSocket::bind(("127.0.0.1", 0))?;
    tx.connect(rx.local_addr()?)?;
    tx.set_nonblocking(true)?;
    Ok((
        Waker {
            socket: Arc::new(tx),
        },
        WakeReceiver { socket: rx },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Register, modify and deregister move a loopback TCP socket through
    /// the readable/writable transitions.
    #[test]
    fn epoll_reports_tcp_readiness() {
        let mut poller = Poller::new().expect("poller");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing to read yet.
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"hi").unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "readable after peer write"
        );
        let mut buf = [0u8; 8];
        let mut server = server;
        assert_eq!(server.read(&mut buf).unwrap(), 2);

        // Ask for writability: an idle socket is immediately writable.
        poller
            .modify(
                server.as_raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.writable),
            "writable when buffers are empty"
        );
        poller.deregister(server.as_raw_fd()).unwrap();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "deregistered");
    }

    #[test]
    fn waker_wakes_the_poller() {
        let mut poller = Poller::new().expect("poller");
        let (waker, wake_rx) = wake_pair().expect("wake pair");
        poller.register(wake_rx.fd(), 0, Interest::READ).unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
            waker.wake(); // coalesces
        });
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 0 && e.readable),
            "wakeup delivered"
        );
        wake_rx.drain();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "drained wakeups don't re-fire");
        handle.join().unwrap();
    }
}
