//! The raw readiness syscalls the event loops sit on: [`epoll`]'s
//! `epoll_create1` / `epoll_ctl` / `epoll_wait`, the Linux readiness API
//! that stays O(ready) as registered-descriptor counts grow to C10K and
//! beyond. They are declared directly against the C library the binary
//! already links (the offline crate budget buys no `libc`).
//!
//! Everything above this module speaks [`super::poller::Poller`]; nothing
//! else in the crate touches a raw descriptor.

/// Linux `epoll`.
pub mod epoll {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`. x86-64 is the one ABI where the kernel
    /// declares it packed (a 12-byte struct); everywhere else it has
    /// natural alignment. Getting this wrong corrupts the `data` word of
    /// every event after the first, so it is pinned down here once.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // The kernel reads and writes this struct through raw pointers: a
    // layout that differs from its own is memory corruption, not an error
    // return, so the build fails instead.
    #[cfg(target_arch = "x86_64")]
    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == 12 && std::mem::offset_of!(EpollEvent, data) == 4
    );
    // (32-bit x86 aligns `u64` to 4 in C and in Rust alike: 12 and 4.)
    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == 16 && std::mem::offset_of!(EpollEvent, data) == 8
    );

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// A fresh epoll instance (close-on-exec), closed on drop.
    pub fn create() -> io::Result<OwnedFd> {
        // SAFETY: takes a flags word and no pointer; it touches no memory
        // of ours and reports failure as -1.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the kernel just handed us this descriptor; nothing else
        // owns it.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// `epoll_ctl` with a (possibly null) event payload.
    pub fn ctl(epfd: &OwnedFd, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut event = event;
        let ptr = event
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is either null (only for DEL, where the kernel
        // ignores it) or points at a live stack value for the call's
        // duration.
        if unsafe { epoll_ctl(epfd.as_raw_fd(), op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocking wait; fills `events` and returns how many are ready.
    /// `timeout_ms < 0` blocks indefinitely. `EINTR` surfaces as
    /// `Ok(0)` — the caller's loop re-waits.
    pub fn wait(epfd: &OwnedFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a live, writable slice; the kernel writes at
        // most `events.len()` entries.
        let n = unsafe {
            epoll_wait(
                epfd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}
