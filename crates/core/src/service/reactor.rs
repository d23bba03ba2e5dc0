//! A minimal readiness reactor over raw `poll(2)`/`epoll(7)` FFI.
//!
//! The workspace builds offline with no async runtime and no `libc`
//! crate, so — exactly like [`super::signal`] — this module declares
//! the handful of syscall wrappers it needs against the platform libc
//! that `std` already links. [`Poller`] multiplexes readiness for the
//! server's listener and every client socket on **one thread**; the
//! connection state machine itself lives in [`super::server`].
//!
//! Two backends share one interface:
//!
//! - **`poll(2)`** — the portable baseline. The fd set is rebuilt from
//!   a small map on every wait, which is O(n) per tick but has no
//!   kernel registration state to get out of sync.
//! - **`epoll(7)`** — the Linux upgrade, O(ready) per wait. Always
//!   selected on Linux, with `poll(2)` as the fallback when
//!   `epoll_create1` fails; the unit tests run every readiness check
//!   against both backends.
//!
//! Both are level-triggered: the server only registers write interest
//! while a connection has buffered output, so an idle socket never
//! spins the loop.
//!
//! [`Waker`] is the cross-thread wakeup: one nonblocking socketpair
//! whose read end sits in the poll set. Any thread (the scheduler
//! finishing a job, a subscriber pump, the SIGTERM handler — `write`
//! is async-signal-safe) can make a blocked [`Poller::wait`] return
//! now by writing one byte.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    /// `poll(2)` from the platform libc (linked by `std`).
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

#[cfg(target_os = "linux")]
mod epoll {
    //! Raw `epoll(7)` declarations (Linux only).

    /// `struct epoll_event`; packed on x86-64 per the kernel ABI.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// What a registration wants to be told about. Level-triggered: keep
/// `writable` off unless output is actually buffered, or the loop will
/// spin on an always-writable socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a peer hangup).
    pub readable: bool,
    /// Wake when the fd can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the steady state of an idle connection).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct ReadyEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer closed — a read will observe the EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition; the owner should read to the error and
    /// close.
    pub hangup: bool,
}

enum Backend {
    /// Portable `poll(2)`: fd → (token, interest), rebuilt every wait.
    Poll {
        interests: HashMap<RawFd, (u64, Interest)>,
    },
    /// Linux `epoll(7)`: registration state lives in the kernel.
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
}

/// Readiness multiplexer over raw `poll(2)` or `epoll(7)`.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a poller: epoll on Linux, else (or when epoll is
    /// unavailable) the portable `poll(2)` backend.
    pub fn new() -> std::io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: epoll_create1 takes only a flag word and returns a
            // new fd or -1; no memory is shared with the kernel.
            let epfd = unsafe { epoll::epoll_create1(epoll::EPOLL_CLOEXEC) };
            if epfd >= 0 {
                return Ok(Poller {
                    backend: Backend::Epoll { epfd },
                });
            }
            // Fall through to poll(2) on failure (e.g. a kernel
            // without epoll support in a restricted sandbox).
        }
        Ok(Poller::portable())
    }

    /// A poller on the portable `poll(2)` backend.
    fn portable() -> Poller {
        Poller {
            backend: Backend::Poll {
                interests: HashMap::new(),
            },
        }
    }

    /// The active backend, for logs and tests.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Poll { .. } => "poll",
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
        }
    }

    /// Registers `fd` under `token`. One registration per fd.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> std::io::Result<()> {
        match &mut self.backend {
            Backend::Poll { interests } => {
                interests.insert(fd, (token, interest));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => epoll_op(*epfd, epoll::EPOLL_CTL_ADD, fd, token, interest),
        }
    }

    /// Updates the interest set (and token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> std::io::Result<()> {
        match &mut self.backend {
            Backend::Poll { interests } => {
                interests.insert(fd, (token, interest));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => epoll_op(*epfd, epoll::EPOLL_CTL_MOD, fd, token, interest),
        }
    }

    /// Removes an fd from the set. Must be called *before* the fd is
    /// closed (epoll keys on the open file description).
    pub fn deregister(&mut self, fd: RawFd) -> std::io::Result<()> {
        match &mut self.backend {
            Backend::Poll { interests } => {
                interests.remove(&fd);
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => epoll_op(
                *epfd,
                epoll::EPOLL_CTL_DEL,
                fd,
                0,
                Interest {
                    readable: false,
                    writable: false,
                },
            ),
        }
    }

    /// Blocks until at least one fd is ready or `timeout` elapses,
    /// filling `events` (cleared first). A signal interrupting the wait
    /// returns an empty set, not an error — callers poll their own
    /// shutdown flags on every pass.
    pub fn wait(&mut self, events: &mut Vec<ReadyEvent>, timeout: Duration) -> std::io::Result<()> {
        events.clear();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        match &mut self.backend {
            Backend::Poll { interests } => {
                let mut fds: Vec<PollFd> = Vec::with_capacity(interests.len());
                let mut tokens: Vec<u64> = Vec::with_capacity(interests.len());
                for (&fd, &(token, interest)) in interests.iter() {
                    let mut ev = 0i16;
                    if interest.readable {
                        ev |= POLLIN;
                    }
                    if interest.writable {
                        ev |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd,
                        events: ev,
                        revents: 0,
                    });
                    tokens.push(token);
                }
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if n < 0 {
                    let err = std::io::Error::last_os_error();
                    if err.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for (pfd, &token) in fds.iter().zip(&tokens) {
                    let r = pfd.revents;
                    if r != 0 {
                        events.push(ReadyEvent {
                            token,
                            readable: r & (POLLIN | POLLHUP) != 0,
                            writable: r & POLLOUT != 0,
                            hangup: r & (POLLERR | POLLHUP) != 0,
                        });
                    }
                }
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut buf = [epoll::EpollEvent { events: 0, data: 0 }; 256];
                let n = unsafe {
                    epoll::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if n < 0 {
                    let err = std::io::Error::last_os_error();
                    if err.kind() == std::io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for ev in buf.iter().take(n.max(0) as usize) {
                    // Copy out of the (possibly packed) struct before use.
                    let bits = { ev.events };
                    let token = { ev.data };
                    events.push(ReadyEvent {
                        token,
                        readable: bits & (epoll::EPOLLIN | epoll::EPOLLHUP) != 0,
                        writable: bits & epoll::EPOLLOUT != 0,
                        hangup: bits & (epoll::EPOLLERR | epoll::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = self.backend {
            unsafe {
                epoll::close(epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_op(
    epfd: RawFd,
    op: i32,
    fd: RawFd,
    token: u64,
    interest: Interest,
) -> std::io::Result<()> {
    let mut bits = 0u32;
    if interest.readable {
        bits |= epoll::EPOLLIN;
    }
    if interest.writable {
        bits |= epoll::EPOLLOUT;
    }
    let mut ev = epoll::EpollEvent {
        events: bits,
        data: token,
    };
    let rc = unsafe { epoll::epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// The write half of the reactor's self-wakeup channel. Cheap to
/// clone-by-`Arc` and safe to use from any thread; the raw fd is also
/// handed to the signal handler (a 1-byte `write(2)` is on the
/// async-signal-safe list).
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Makes a blocked [`Poller::wait`] return now. Best-effort: a full
    /// pipe already implies a pending wakeup.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// The raw write-end fd, for [`super::signal::set_wake_fd`].
    pub fn raw_fd(&self) -> RawFd {
        self.tx.as_raw_fd()
    }
}

/// Creates the wakeup channel: a nonblocking socketpair whose read end
/// the reactor registers and drains, and whose write end is the
/// [`Waker`].
pub fn wake_pair() -> std::io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Drains every pending wakeup byte (call when the read end reports
/// readable).
pub fn drain_wakes(rx: &mut UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// Both backends: the one [`Poller::new`] picks (epoll on Linux) and
    /// a directly built `poll(2)` one, which Linux only reaches when
    /// epoll fails. Every readiness test runs against each.
    fn backends() -> [Poller; 2] {
        let portable = Poller::portable();
        assert_eq!(portable.backend_name(), "poll");
        [Poller::new().unwrap(), portable]
    }

    fn ready_tokens(events: &[ReadyEvent]) -> Vec<u64> {
        let mut t: Vec<u64> = events.iter().map(|e| e.token).collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn wait_times_out_with_no_ready_fds() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            poller
                .register(listener.as_raw_fd(), 7, Interest::READ)
                .unwrap();
            let mut events = Vec::new();
            let start = Instant::now();
            poller.wait(&mut events, Duration::from_millis(30)).unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
            assert!(start.elapsed() >= Duration::from_millis(20));
        }
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            poller
                .register(listener.as_raw_fd(), 1, Interest::READ)
                .unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert_eq!(ready_tokens(&events), vec![1], "{}", poller.backend_name());
            assert!(events[0].readable);
        }
    }

    #[test]
    fn deregistered_fd_reports_nothing() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            poller
                .register(listener.as_raw_fd(), 5, Interest::READ)
                .unwrap();
            poller.deregister(listener.as_raw_fd()).unwrap();
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(20)).unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
        }
    }

    #[test]
    fn waker_wakes_a_blocked_wait_from_another_thread() {
        for mut poller in backends() {
            let (waker, mut rx) = wake_pair().unwrap();
            poller.register(rx.as_raw_fd(), 42, Interest::READ).unwrap();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker // keep the write end open past the second wait below
            });
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert_eq!(ready_tokens(&events), vec![42], "{}", poller.backend_name());
            drain_wakes(&mut rx);
            let _waker = handle.join().unwrap();
            // Drained: the next wait times out instead of spinning.
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
        }
    }

    #[test]
    fn write_interest_reports_writable_and_modify_clears_it() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller
                .register(
                    server.as_raw_fd(),
                    3,
                    Interest {
                        readable: true,
                        writable: true,
                    },
                )
                .unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert!(events.iter().any(|e| e.token == 3 && e.writable));
            // Dropping write interest stops the writable reports.
            poller
                .modify(server.as_raw_fd(), 3, Interest::READ)
                .unwrap();
            poller.wait(&mut events, Duration::from_millis(20)).unwrap();
            assert!(
                events.iter().all(|e| !e.writable),
                "{}",
                poller.backend_name()
            );
            drop(client);
        }
    }
}
