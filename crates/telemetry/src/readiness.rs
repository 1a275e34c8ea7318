//! Kernel readiness for the collector's threads: a safe wrapper around
//! `poll(2)` and a socket-pair waker.
//!
//! The collector's reactor shards and accept thread park in [`PollSet::wait`]
//! until one of their sockets is readable, instead of sleeping a fixed
//! interval and retrying nonblocking reads. A [`Waker`] gives another thread
//! a readable fd to post to when it has handed work over (a new connection)
//! or wants the parked thread to notice the stop flag.
//!
//! The only `unsafe` in this crate is the `poll` call below; the
//! declaration binds against the libc the standard library already links,
//! so no dependency is added.

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    // `nfds_t` is `unsigned long` on Linux (glibc and musl).
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Data to read (`POLLIN`).
const POLLIN: c_short = 0x001;

/// The fds one thread parks on, rebuilt before each wait.
#[derive(Debug, Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Forget every fd pushed so far.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watch `fd` for readability; its index is the number of fds pushed
    /// before it since the last [`clear`](Self::clear).
    pub(crate) fn push(&mut self, fd: &impl AsRawFd) {
        self.fds.push(PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
    }

    /// Block until at least one watched fd is ready, retrying on `EINTR`.
    pub(crate) fn wait(&mut self) -> io::Result<()> {
        loop {
            // SAFETY: the pointer and length describe `self.fds`, a live,
            // exclusively borrowed `Vec` of `#[repr(C)]` `struct pollfd`s,
            // and `poll` writes only their `revents` fields. The fd values
            // need no validity: the kernel reports a closed or foreign fd
            // as `POLLNVAL` in `revents` rather than touching memory.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, -1) };
            if rc >= 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Whether the fd at `idx` reported any event in the last wait:
    /// readable, hung up, errored or invalid. Every one of those is
    /// settled by a nonblocking read.
    pub(crate) fn ready(&self, idx: usize) -> bool {
        self.fds[idx].revents != 0
    }
}

/// The posting end of a wake-up channel; the parked thread owns the
/// [`WakeReceiver`] and watches it in its [`PollSet`].
#[derive(Debug)]
pub(crate) struct Waker(UnixStream);

/// The readable end of a [`Waker`].
#[derive(Debug)]
pub(crate) struct WakeReceiver(UnixStream);

/// A connected waker pair, both ends nonblocking.
pub(crate) fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker(tx), WakeReceiver(rx)))
}

impl Waker {
    /// Make the receiver readable. A full socket buffer already holds a
    /// pending wake-up, and a closed receiver has no thread to wake, so
    /// write errors are ignored.
    pub(crate) fn wake(&self) {
        let _ = (&self.0).write(&[1]);
    }
}

impl WakeReceiver {
    /// Consume every pending wake-up, so the next wait parks until a new
    /// one is posted.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.0).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

impl AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn wake_makes_receiver_ready_and_drain_rearms() {
        let (w, r) = waker().unwrap();
        let (w2, r2) = waker().unwrap();
        let mut set = PollSet::default();
        w.wake();
        w.wake();
        set.push(&r);
        set.push(&r2);
        set.wait().unwrap();
        assert!(set.ready(0));
        assert!(!set.ready(1));

        r.drain();
        let poster = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w2.wake();
        });
        let t0 = Instant::now();
        set.wait().unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "drained waker re-armed"
        );
        assert!(!set.ready(0));
        assert!(set.ready(1));
        poster.join().unwrap();
    }

    #[test]
    fn closed_peer_reports_ready() {
        let (w, r) = waker().unwrap();
        drop(w);
        let mut set = PollSet::default();
        set.push(&r);
        set.wait().unwrap();
        assert!(set.ready(0), "hangup is an event a read settles");
        r.drain();
    }
}
