//! The shared clock and the `/proc` readers the load generator uses to account
//! the serving process's CPU and memory from outside it.

use std::collections::BTreeMap;
use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_MONOTONIC` on Linux.
const CLOCK_MONOTONIC: i32 = 1;

/// Nanoseconds on the system-wide monotonic clock. Unlike
/// [`std::time::Instant`], readings taken in different processes on one
/// host are comparable, so the load generator and the serving process can stamp
/// one epoch's due time and its stored verdict on the same axis.
pub fn mono_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // CLOCK_MONOTONIC is always available, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Thread groups of the serving process, by the names its crates give
/// their threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreadGroup {
    /// `flock-reactor-*` and `flock-collector-accept` (telemetry crate).
    Collector,
    /// `flock-shard-*` (the stream crate's shard executor).
    Shard,
    /// The serving process's main thread and any unnamed thread.
    Main,
}

impl ThreadGroup {
    fn of(comm: &str) -> Self {
        // `comm` is truncated to 15 bytes: `flock-collector-accept`
        // reads as `flock-collector`.
        if comm.starts_with("flock-reactor") || comm.starts_with("flock-collecto") {
            ThreadGroup::Collector
        } else if comm.starts_with("flock-shard") {
            ThreadGroup::Shard
        } else {
            ThreadGroup::Main
        }
    }
}

/// On-CPU nanoseconds (user + system) of every live thread of `pid`,
/// keyed by thread id, from `/proc/<pid>/task/<tid>/schedstat`.
pub fn thread_cpu(pid: u32) -> std::io::Result<BTreeMap<u32, (ThreadGroup, u64)>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        // A thread can exit between listing and reading; skip it.
        let (Ok(comm), Ok(sched)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let ns = sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        out.insert(tid, (ThreadGroup::of(comm.trim()), ns));
    }
    Ok(out)
}

/// CPU nanoseconds per thread group between two [`thread_cpu`]
/// snapshots. Threads born inside the window count from zero.
pub fn cpu_delta(
    before: &BTreeMap<u32, (ThreadGroup, u64)>,
    after: &BTreeMap<u32, (ThreadGroup, u64)>,
) -> BTreeMap<ThreadGroup, u64> {
    let mut out = BTreeMap::new();
    for (tid, &(group, ns)) in after {
        let base = before.get(tid).map_or(0, |&(_, b)| b);
        *out.entry(group).or_insert(0) += ns.saturating_sub(base);
    }
    out
}

/// CPU time the hypervisor gave to other guests (`steal`, all CPUs),
/// in milliseconds since boot, from `/proc/stat`. A run whose window
/// saw steal time ran on a loaded host.
pub fn host_steal_ms() -> std::io::Result<u64> {
    Ok(host_steal()?.0)
}

/// Steal time per CPU of the guest, in milliseconds since boot: the
/// time each of its CPUs was held by the host, on average. Between two
/// readings it is how far a clock that stopped while the host held the
/// guest's CPUs would have fallen behind the wall clock. It counts in
/// 10 ms ticks summed over the CPUs, so one interval's figure is off by
/// up to 10 ms ÷ CPUs either way, and by nothing on average.
pub fn steal_per_cpu_ms() -> std::io::Result<f64> {
    let (ms, cpus) = host_steal()?;
    Ok(ms as f64 / cpus.max(1) as f64)
}

/// `/proc/stat`'s total steal in milliseconds, and the CPUs it sums.
fn host_steal() -> std::io::Result<(u64, usize)> {
    let stat = fs::read_to_string("/proc/stat")?;
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other("no steal field in /proc/stat"))?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    // `/proc/stat` counts in USER_HZ, 100 per second on Linux.
    Ok((ticks * 10, cpus))
}

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> std::io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc status"))
}
