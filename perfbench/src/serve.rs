//! The serving role: the system under test in a process of its own, so
//! its CPU and memory read cleanly from `/proc/<pid>`.
//!
//! It builds exactly what a deployment builds — topology, pipeline,
//! collector, verdict store — then takes one control line per epoch on
//! stdin and answers with one `verdict` line per stored report on
//! stdout:
//!
//! ```text
//! stdin:  epoch <k> <cumulative records> <trace 0|1> | end
//! stdout: ready <port> | verdict key=value ... | drained
//! ```
//!
//! The control line carries no evidence: records reach the collector
//! only over the agents' TCP connections. It says how many records the
//! run has sent up to and including epoch `k`, which is how the serving
//! loop knows epoch `k` is complete (a deployment closes the window on
//! a timer instead). When the loop lags the open loop, records of later
//! epochs are already arriving, so completeness is counted per epoch
//! from the drained buckets, never from the collector's total alone.

use crate::fixture::Workload;
use crate::procfs::mono_ns;
use crate::replay::Counters;
use flock_store::{StoreConfig, VerdictStore};
use flock_stream::{EpochReport, StreamPipeline};
use flock_telemetry::Collector;
use flock_topology::Component;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::Duration;

/// How long the serving loop waits for an epoch's records before it
/// closes the window with what arrived (the epoch then fails its
/// record-count check).
const RECORD_WAIT: Duration = Duration::from_secs(10);

/// Poll interval while waiting for an epoch's records.
const PENDING_POLL: Duration = Duration::from_micros(100);

/// Run the serving loop until stdin closes.
pub fn serve(w: &Workload, store_path: &Path) -> Result<(), String> {
    let topo = w.topology();
    let cfg = w.stream_config();
    let epoch_ms = cfg.epoch.epoch_ms;
    let mut pipeline = StreamPipeline::new(&topo, cfg);
    let collector = Collector::bind("127.0.0.1:0".parse().expect("loopback address"))
        .map_err(|e| format!("collector bind: {e}"))?;
    let mut store = VerdictStore::create(StoreConfig::default(), store_path)
        .map_err(|e| format!("store create: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "ready {}", collector.local_addr().port()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    // Records drained so far, and how many of them belong to each epoch
    // not yet closed.
    let mut drained = 0u64;
    let mut open_epochs: BTreeMap<u64, u64> = BTreeMap::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("control read: {e}"))?;
        let mut it = line.split_whitespace();
        match it.next() {
            Some("epoch") => {
                let mut num = || -> Result<u64, String> {
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("bad control line `{line}`"))
                };
                let (k, cum, trace) = (num()?, num()?, num()? == 1);
                let mut spans = Spans::default();
                let give_up = std::time::Instant::now() + RECORD_WAIT;
                let mut batches = Vec::new();
                loop {
                    let later: u64 = open_epochs.range(k + 1..).map(|(_, n)| n).sum();
                    let timed_out = std::time::Instant::now() >= give_up;
                    if drained - later >= cum || (timed_out && spans.pending != 0) {
                        break;
                    }
                    if drained + (collector.pending() as u64) < cum && !timed_out {
                        std::thread::sleep(PENDING_POLL);
                        continue;
                    }
                    // Enough records are pending in total; drain them and
                    // count by epoch. Usually this completes epoch `k` at
                    // once; under lag, later epochs' records may have
                    // filled the count and the loop drains again.
                    if spans.pending == 0 {
                        spans.pending = mono_ns();
                    }
                    let batch = collector.drain_buckets();
                    if batch.is_empty() {
                        std::thread::sleep(PENDING_POLL);
                        continue;
                    }
                    drained += batch.len() as u64;
                    for (seq, bucket) in &batch.buckets {
                        *open_epochs.entry(*seq).or_insert(0) += bucket.len() as u64;
                    }
                    batches.push(batch);
                }
                if spans.pending == 0 {
                    // Complete before this step began: a lagging loop
                    // drained the epoch's records during earlier steps.
                    spans.pending = mono_ns();
                }
                spans.drain = mono_ns();
                for batch in batches {
                    pipeline.ingest_bucketed(batch);
                }
                spans.window = mono_ns();
                let reports = pipeline.poll((k + 1) * epoch_ms);
                spans.poll = mono_ns();
                open_epochs = open_epochs.split_off(&(k + 1));
                for r in &reports {
                    let line = store_report(&mut store, &pipeline, &collector, r, trace, &spans);
                    writeln!(out, "{line}").map_err(|e| e.to_string())?;
                }
            }
            Some("end") => {
                let spans = Spans::default();
                for r in &pipeline.drain() {
                    let line = store_report(&mut store, &pipeline, &collector, r, false, &spans);
                    writeln!(out, "{line}").map_err(|e| e.to_string())?;
                }
                store.sync().map_err(|e| format!("store sync: {e}"))?;
                writeln!(out, "drained").map_err(|e| e.to_string())?;
            }
            _ => return Err(format!("unknown control line `{line}`")),
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    collector.shutdown();
    Ok(())
}

/// Timestamps (monotonic ns) of one control epoch's steps.
#[derive(Default)]
struct Spans {
    pending: u64,
    drain: u64,
    window: u64,
    poll: u64,
}

/// Ingest one report into the store and format its `verdict` line. The
/// counters ride on every line; the span timestamps only when traced.
fn store_report(
    store: &mut VerdictStore,
    pipeline: &StreamPipeline<'_>,
    collector: &Collector,
    r: &EpochReport,
    trace: bool,
    spans: &Spans,
) -> String {
    let store_start = if trace { mono_ns() } else { 0 };
    store.ingest(r);
    let stored = mono_ns();
    let mut line = format!("verdict epoch={} stored={stored}", r.epoch_index);
    if trace {
        let shard_ns = r
            .shards
            .iter()
            .map(|s| s.elapsed.as_nanos())
            .max()
            .unwrap_or(0);
        let _ = write!(
            line,
            " pending={} drain={} window={} poll={} store_start={store_start} \
             prepare_ns={} shard_ns={shard_ns} merge_ns={}",
            spans.pending,
            spans.drain,
            spans.window,
            spans.poll,
            r.stages.prepare.as_nanos(),
            r.stages.merge.as_nanos(),
        );
    }
    for (key, value) in Counters::of_report(r).0 {
        let _ = write!(line, " {key}={value}");
    }
    let stats = collector.stats().snapshot();
    let reasons: Vec<String> = r.health.reasons().iter().map(|x| x.to_string()).collect();
    let blamed: Vec<String> = r.result.predicted.iter().map(component_token).collect();
    let _ = write!(
        line,
        " healthy={} reasons={} late={} rejected={} coll_records={} coll_bytes={} \
         decode_errors={} dropped={} segment_bytes={} blamed={}",
        u8::from(!r.health.is_degraded()),
        list_or_dash(&reasons),
        pipeline.late_records(),
        pipeline.rejected_records(),
        stats.records,
        stats.bytes,
        stats.decode_errors,
        stats.dropped_records,
        store.segment_bytes(),
        list_or_dash(&blamed),
    );
    line
}

fn list_or_dash(items: &[String]) -> String {
    if items.is_empty() {
        "-".into()
    } else {
        // Tokens must stay whitespace-free: the line is `key=value` pairs.
        items.join(",").replace(char::is_whitespace, "_")
    }
}

/// A blamed component as one whitespace-free token (`L12`, `D5`).
pub fn component_token(c: &Component) -> String {
    match c {
        Component::Link(l) => format!("L{}", l.0),
        Component::Device(n) => format!("D{}", n.0),
    }
}
