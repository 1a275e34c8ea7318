//! A failed `accept` must not stop the collector accepting.
//!
//! This test lowers the process's descriptor limit, so it lives in a test
//! binary of its own: no other test shares the process while descriptors
//! run out.

use flock_telemetry::wire::encode_message;
use flock_telemetry::{Collector, CollectorConfig};
use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::process::Command;
use std::time::{Duration, Instant};

fn wait_for<F: Fn() -> bool>(cond: F, ms: u64) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Set this process's soft `RLIMIT_NOFILE` with util-linux `prlimit`.
fn set_soft_nofile(limit: &str) {
    let pid = std::process::id().to_string();
    let status = Command::new("prlimit")
        .args(["--pid", &pid, &format!("--nofile={limit}:")])
        .status()
        .expect("run prlimit (util-linux)");
    assert!(status.success(), "prlimit --nofile={limit}: failed");
}

#[test]
fn accept_survives_descriptor_exhaustion() {
    let collector = Collector::bind_with(
        "127.0.0.1:0".parse().unwrap(),
        CollectorConfig {
            shards: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = collector.local_addr();
    let soft_before = std::fs::read_to_string("/proc/self/limits")
        .unwrap()
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3).map(str::to_owned))
        .expect("soft open-files limit in /proc/self/limits");
    let highest_fd = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .max()
        .unwrap();
    set_soft_nofile(&(highest_fd + 16).to_string());

    // Use up every descriptor, then free exactly one for the agent's
    // socket: the collector's accept then fails with EMFILE.
    let mut hog = Vec::new();
    let emfile = loop {
        match File::open("/dev/null") {
            Ok(f) => hog.push(f),
            Err(e) => break e,
        }
    };
    assert_eq!(emfile.raw_os_error(), Some(24), "EMFILE: {emfile}");
    hog.pop();
    let mut agent = TcpStream::connect(addr).unwrap();
    agent.write_all(&encode_message(5, 0, 0, &[])).unwrap();
    assert!(wait_for(
        || collector.stats().snapshot().accept_errors >= 1,
        2000
    ));
    assert_eq!(collector.stats().snapshot().connections, 0);

    // Descriptors freed: the queued connection is accepted and served.
    drop(hog);
    assert!(wait_for(
        || collector.stats().snapshot().messages == 1,
        2000
    ));
    let snap = collector.stats().snapshot();
    assert_eq!(snap.connections, 1);
    // The back-off bounds the retries while descriptors were exhausted.
    assert!(
        snap.accept_errors < 300,
        "{} failed accepts",
        snap.accept_errors
    );
    drop(agent);
    collector.shutdown();
    set_soft_nofile(&soft_before);
}
