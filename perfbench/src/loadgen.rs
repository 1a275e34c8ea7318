//! The load generator: one process, one sending thread. It generates and
//! pre-encodes a workload, replays it in-process through the oracle,
//! then runs [`SESSIONS`] serving processes one after another over the
//! same epochs — each timed from spawn to its cold verdict, warmed up,
//! then driven as an open loop over loopback TCP — and checks and
//! reduces what came back.

use crate::fixture::{self, EncodedEpoch, Fixture, Workload};
use crate::procfs::{self, mono_ns, ThreadGroup};
use crate::replay::{self, ReplayEpoch};
use crate::stats::{max, median, percentile};
use flock_core::evaluate;
use flock_store::{StoreConfig, VerdictStore};
use flock_topology::Component;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

/// Epochs after the cold one and before the measured window: the warm
/// engine and the collector's buffers reach steady state here. With
/// three, the first measured epochs of `pareto-fanin` still ran about
/// half again as long as the later ones. They are sent as a closed
/// loop, each as soon as the one before it is stored, so they take
/// little of the run's time.
const WARM_EPOCHS: usize = 8;

/// Serving processes started per run, one after another. Each serves
/// the same epochs from a cold start, so every run times set-up this
/// many times and checks that the work counters repeat exactly from
/// process to process. Every epoch is served this many times, spread
/// over the whole run, and its latency is the best of those servings
/// (see [`best_latency_ms`]).
const SESSIONS: usize = 10;

/// How long the load generator waits for any one answer from the serving
/// process.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// One run's arguments.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One metric as reported.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one workload's run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Run one workload end to end and reduce it to metrics. Progress and
/// every check that failed go to stdout as human-readable lines.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let n_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_conns = n_cpus.min(2);
    let per_session = ((args.seconds * 1000) / w.period_ms / SESSIONS as u64).max(2) as usize;
    let first = 1 + WARM_EPOCHS;
    let total = first + per_session;

    let t0 = mono_ns();
    let fx = fixture::generate(w, args.seed, total, n_conns);
    let gen_s = (mono_ns() - t0) as f64 / 1e9;
    println!(
        "[{}] seed {}: {SESSIONS} sessions x {total} epochs ({per_session} measured at one per \
         {} ms), {:.0} records / {:.2} MB per epoch over {n_conns} connections, generated in \
         {gen_s:.1} s",
        w.name,
        args.seed,
        w.period_ms,
        fx.epochs.iter().map(|e| e.records).sum::<u64>() as f64 / total as f64,
        fx.epochs.iter().map(EncodedEpoch::bytes).sum::<u64>() as f64 / total as f64 / 1e6,
    );
    // The oracle first: it needs nothing from the served runs, and the
    // load generator then sits idle while they are measured.
    let replays = replay::replay(w, &fx.epochs, args.trace)?;

    let run_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.runs"));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let mut checks = Checks::default();
    let mut sessions = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let path = run_dir.join(format!("{}-{}-{i}.seg", w.name, std::process::id()));
        let raw = serve_session(w, &fx, first, args.trace, n_conns, path)?;
        let epochs = check_epochs(&fx, &raw, &replays, &mut checks)?;
        let lat: Vec<f64> = epochs[first..]
            .iter()
            .map(ServedEpoch::latency_ms)
            .collect();
        println!(
            "[{}] session {i}: setup {:.3} s | latency p50 {:.3} ms | peak rss {:.1} MB | \
             host steal {} ms",
            w.name,
            raw.setup_ms / 1e3,
            median(&lat),
            raw.peak_rss_kib as f64 / 1024.0,
            raw.steal_ms,
        );
        sessions.push(Session { raw, epochs });
    }
    let _ = std::fs::remove_dir(&run_dir);

    let topo = w.topology();
    let measured = SESSIONS * per_session;
    let n = measured as f64;
    let latency_ms = best_latency_ms(&sessions, first);
    let wall_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| &s.epochs[first..])
        .map(ServedEpoch::wall_ms)
        .collect();
    let (mut p_sum, mut r_sum) = (0.0, 0.0);
    for s in &sessions {
        for (k, e) in s.epochs.iter().enumerate().skip(first) {
            let pr = evaluate(&topo, &e.blamed, &fx.truth[k]);
            p_sum += pr.precision;
            r_sum += pr.recall;
        }
    }
    let mut cpu: BTreeMap<ThreadGroup, u64> = BTreeMap::new();
    for s in &sessions {
        for (&g, &ns) in &s.raw.cpu {
            *cpu.entry(g).or_insert(0) += ns;
        }
    }
    let cpu_ms = |g: ThreadGroup| cpu.get(&g).copied().unwrap_or(0) as f64 / 1e6 / n;
    let cpu_total_ms = cpu.values().sum::<u64>() as f64 / 1e6 / n;
    let setup_s: Vec<f64> = sessions.iter().map(|s| s.raw.setup_ms / 1e3).collect();
    let setup_wall_s: Vec<f64> = sessions.iter().map(|s| s.raw.setup_wall_ms / 1e3).collect();
    let rss_kib: Vec<f64> = sessions.iter().map(|s| s.raw.peak_rss_kib as f64).collect();
    let lateness_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.raw.lateness_ms.clone())
        .collect();
    let failed = sessions
        .iter()
        .flat_map(|s| &s.epochs)
        .filter(|e| e.failed)
        .count() as u64;
    let attempted = (SESSIONS * total) as u64;

    let m = Metric::new;
    let e2e = vec![
        m("setup_s", median(&setup_s), "s"),
        m("latency_p50_ms", median(&latency_ms), "ms"),
        m("latency_p90_ms", percentile(&latency_ms, 0.9), "ms"),
        m("cpu_ms_per_epoch", cpu_total_ms, "ms"),
        // Each process's high-water mark moves with allocator timing and
        // with the records a slowed process had to buffer; the median
        // process is the typical one.
        m("peak_rss_mb", median(&rss_kib) / 1024.0, "MB"),
        m("precision", p_sum / n, "ratio"),
        m("recall", r_sum / n, "ratio"),
    ];
    println!(
        "[{}] setup {:.3} s (median of {SESSIONS}; wall clock {:.3} s) | latency p50 {:.3} ms, \
         p90 {:.3} ms ({} epochs, each the best of {SESSIONS} servings; wall clock over all \
         {measured} servings p50 {:.3} ms, p90 {:.3} ms) | cpu {:.3} ms/epoch \
         (collector {:.3}, shard {:.3}, main {:.3}) | peak rss {:.1} MB (max {:.1}) | \
         precision {:.3} recall {:.3} | epochs_failed_frac {:.4} ({failed}/{attempted}) | \
         generator lateness max {:.3} ms",
        w.name,
        e2e[0].value,
        median(&setup_wall_s),
        e2e[1].value,
        e2e[2].value,
        latency_ms.len(),
        median(&wall_ms),
        percentile(&wall_ms, 0.9),
        cpu_total_ms,
        cpu_ms(ThreadGroup::Collector),
        cpu_ms(ThreadGroup::Shard),
        cpu_ms(ThreadGroup::Main),
        e2e[4].value,
        max(&rss_kib) / 1024.0,
        e2e[5].value,
        e2e[6].value,
        failed as f64 / attempted as f64,
        max(&lateness_ms),
    );

    let metrics = if args.trace {
        per_layer(&sessions, first, &replays[first..], &cpu_ms, &mut checks)?
    } else {
        e2e
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), format!("{} is not a number", m.name));
        println!("[{}]   {:<32} {:>14.4} {}", w.name, m.name, m.value, m.unit);
    }
    for problem in &checks.problems {
        println!("[{}] CHECK FAILED: {problem}", w.name);
    }
    Ok(Outcome {
        correct: checks.problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// What one serving process returned, before checking.
struct RawSession {
    /// Spawn → cold epoch's verdict stored, less the steal per CPU in
    /// between (see [`ServedEpoch::latency_ms`]).
    setup_ms: f64,
    /// The same on the wall clock.
    setup_wall_ms: f64,
    /// Due time of every epoch (the cold epoch's is its send time).
    due: Vec<u64>,
    /// Steal per CPU (`procfs::steal_per_cpu_ms`) at every epoch's due
    /// time.
    due_steal_ms: Vec<f64>,
    /// Every verdict line, in arrival order.
    lines: Vec<VerdictLine>,
    /// Blamed components per epoch, read back from the segment.
    stored: BTreeMap<u64, Vec<Component>>,
    /// CPU per thread group over the measured window.
    cpu: BTreeMap<ThreadGroup, u64>,
    /// Host steal time over the measured window.
    steal_ms: u64,
    peak_rss_kib: u64,
    /// Per measured epoch: how late the generator started sending.
    lateness_ms: Vec<f64>,
    /// Per measured epoch: how long the send took.
    send_ms: Vec<f64>,
}

/// One session after checking.
struct Session {
    raw: RawSession,
    epochs: Vec<ServedEpoch>,
}

/// Per measured epoch, the best latency (less steal, see
/// [`ServedEpoch::latency_ms`]) any session served it with. Taking off
/// the steal removes most of what a loaded host adds. It still slows
/// the servings it overlaps in other ways (a stolen CPU's share of an
/// epoch is not exactly the mean; other guests evict the caches), and
/// the best serving is the one it slowed least. Every epoch gets the
/// same number of tries, so the choice favours no kind of epoch, and a
/// change that slows an epoch slows every serving of it.
fn best_latency_ms(sessions: &[Session], first: usize) -> Vec<f64> {
    let n = sessions[0].epochs.len();
    (first..n)
        .map(|k| {
            sessions
                .iter()
                .map(|s| s.epochs[k].latency_ms())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Start one serving process and drive every epoch of `fx` through it:
/// the cold epoch as soon as it is up (set-up), the warm-up epochs each
/// as soon as the one before it is stored, then the rest as an open
/// loop, one epoch every period. The measured window opens just before
/// epoch `first` is due and closes one period after the last one was.
fn serve_session(
    w: &Workload,
    fx: &Fixture,
    first: usize,
    trace: bool,
    n_conns: usize,
    store_path: PathBuf,
) -> Result<RawSession, String> {
    let total = fx.epochs.len();
    let steal = || procfs::steal_per_cpu_ms().map_err(|e| format!("proc: {e}"));
    let spawn_steal_ms = steal()?;
    let mut sut = Sut::spawn(w, store_path.clone(), n_conns)?;
    let mut due = Vec::with_capacity(total + 1);
    let mut due_steal_ms = Vec::with_capacity(total);
    let mut lines = Vec::with_capacity(total);
    let mut cum = 0;
    for (k, epoch) in fx.epochs[..first].iter().enumerate() {
        due.push(mono_ns());
        due_steal_ms.push(steal()?);
        cum += epoch.records;
        sut.send_epoch(k as u64, cum, false, epoch)?;
        lines.push(sut.next_verdict()?);
    }
    let cold = &lines[0];
    let setup_wall_ms = (cold.u("stored")? - sut.spawned_ns) as f64 / 1e6;
    let setup_ms = setup_wall_ms - (cold.steal_ms - spawn_steal_ms);

    let period_ns = w.period_ms * 1_000_000;
    let start = mono_ns() + period_ns;
    due.extend((first..=total).map(|k| start + (k - first) as u64 * period_ns));
    let mut lateness_ms = Vec::with_capacity(total - first);
    let mut send_ms = Vec::with_capacity(total - first);
    let host_steal = || procfs::host_steal_ms().map_err(|e| format!("proc: {e}"));
    sleep_until(due[first].saturating_sub(1_000_000));
    let cpu_before = procfs::thread_cpu(sut.pid).map_err(|e| format!("proc: {e}"))?;
    let steal_before = host_steal()?;
    for (k, epoch) in fx.epochs.iter().enumerate().skip(first) {
        sleep_until(due[k]);
        due_steal_ms.push(steal()?);
        let sent = mono_ns();
        cum += epoch.records;
        // The traced run alternates traced and untraced epochs, so the
        // tracing overhead is measured under the same conditions.
        let traced = trace && (k - first) % 2 == 1;
        sut.send_epoch(k as u64, cum, traced, epoch)?;
        lateness_ms.push((sent - due[k]) as f64 / 1e6);
        send_ms.push((mono_ns() - sent) as f64 / 1e6);
    }
    sleep_until(due[total]);
    let steal_ms = host_steal()?.saturating_sub(steal_before);
    due.truncate(total);
    lines.extend(sut.end()?);
    let cpu_after = procfs::thread_cpu(sut.pid).map_err(|e| format!("proc: {e}"))?;
    let peak_rss_kib = procfs::peak_rss_kib(sut.pid).map_err(|e| format!("proc: {e}"))?;
    let cpu = procfs::cpu_delta(&cpu_before, &cpu_after);
    sut.close()?;
    let stored = read_store(&store_path, total);
    let _ = std::fs::remove_file(&store_path);
    Ok(RawSession {
        setup_ms,
        setup_wall_ms,
        due,
        due_steal_ms,
        lines,
        stored: stored?,
        cpu,
        steal_ms,
        peak_rss_kib,
        lateness_ms,
        send_ms,
    })
}

/// Failed checks, collected so one run reports all of them.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, problem: impl Into<String>) {
        if !ok && self.problems.len() < 50 {
            self.problems.push(problem.into());
        }
    }
}

/// One epoch of a served session, after checking.
struct ServedEpoch {
    line: VerdictLine,
    due: u64,
    stored: u64,
    /// Steal per CPU from the due time to the verdict line's arrival.
    steal_ms: f64,
    blamed: Vec<Component>,
    failed: bool,
}

impl ServedEpoch {
    /// Due time → verdict returned from `VerdictStore::ingest`, on the
    /// wall clock.
    fn wall_ms(&self) -> f64 {
        (self.stored as f64 - self.due as f64) / 1e6
    }

    /// The latency the benchmark reports: the wall-clock latency less
    /// the time the host held the guest's CPUs meanwhile, per CPU. On a
    /// host of its own the guest sees no steal and the two are equal. On
    /// a shared host the host takes the guest's CPUs for seconds to
    /// minutes at a time, and this takes most of that out of the figure.
    fn latency_ms(&self) -> f64 {
        self.wall_ms() - self.steal_ms
    }
}

/// Match every epoch's verdict line, stored record and oracle replay by
/// `epoch_index`, and decide which epochs failed.
fn check_epochs(
    fx: &Fixture,
    raw: &RawSession,
    replays: &[ReplayEpoch],
    checks: &mut Checks,
) -> Result<Vec<ServedEpoch>, String> {
    let (lines, stored) = (&raw.lines, &raw.stored);
    let mut by_epoch: BTreeMap<u64, (VerdictLine, u64)> = BTreeMap::new();
    // Cumulative loss counters: a rise between consecutive lines is
    // charged to the later line's epoch.
    let loss_keys = ["late", "rejected", "decode_errors", "dropped"];
    let mut prev_loss = [0u64; 4];
    for line in lines {
        let k = line.u("epoch")?;
        let mut loss = 0;
        for (i, key) in loss_keys.iter().enumerate() {
            let v = line.u(key)?;
            loss += v.saturating_sub(prev_loss[i]);
            prev_loss[i] = v;
        }
        checks.expect(
            by_epoch.insert(k, (line.clone(), loss)).is_none(),
            format!("epoch {k}: stored twice"),
        );
    }
    let mut out = Vec::with_capacity(fx.epochs.len());
    for (k, (epoch, replay)) in fx.epochs.iter().zip(replays).enumerate() {
        let k64 = k as u64;
        let Some((line, loss)) = by_epoch.remove(&k64) else {
            return Err(format!("epoch {k}: no verdict came back"));
        };
        let mut failed = false;
        let mut fail = |ok: bool, why: String| {
            if !ok {
                failed = true;
                checks.expect(false, format!("epoch {k}: {why}"));
            }
        };
        fail(
            line.u("healthy")? == 1,
            format!("degraded ({})", line.s("reasons")),
        );
        fail(
            loss == 0,
            format!("{loss} late, rejected, undecodable or dropped records"),
        );
        fail(
            line.u("records")? == epoch.records,
            format!(
                "window got {} of {} records",
                line.u("records")?,
                epoch.records
            ),
        );
        let blamed_line = line.tokens("blamed");
        let stored_comps = stored.get(&k64).cloned();
        let stored_tokens = stored_comps.as_ref().map(|c| {
            let mut t: Vec<String> = c.iter().map(crate::serve::component_token).collect();
            t.sort();
            t
        });
        fail(
            stored_tokens.as_ref() == Some(&blamed_line),
            format!("stored verdict {stored_tokens:?} differs from the served one {blamed_line:?}"),
        );
        fail(
            blamed_line == replay.blamed,
            format!(
                "served verdict {blamed_line:?} differs from the oracle's {:?}",
                replay.blamed
            ),
        );
        for (key, oracle) in replay.counters.0 {
            let served = line.u(key)?;
            checks.expect(
                served == oracle,
                format!("epoch {k}: served {key} {served} differs from the oracle's {oracle}"),
            );
        }
        out.push(ServedEpoch {
            due: raw.due[k],
            stored: line.u("stored")?,
            steal_ms: line.steal_ms - raw.due_steal_ms[k],
            blamed: stored_comps.unwrap_or_default(),
            line,
            failed,
        });
    }
    checks.expect(
        by_epoch.is_empty(),
        format!(
            "verdicts for unsent epochs {:?}",
            by_epoch.keys().collect::<Vec<_>>()
        ),
    );
    let last = out.last().expect("at least one epoch");
    let sent_records: u64 = fx.epochs.iter().map(|e| e.records).sum();
    let sent_bytes: u64 = fx.epochs.iter().map(EncodedEpoch::bytes).sum();
    checks.expect(
        last.line.u("coll_records")? == sent_records && last.line.u("coll_bytes")? == sent_bytes,
        format!(
            "collector counted {} records / {} bytes, generator sent {sent_records} / {sent_bytes}",
            last.line.u("coll_records")?,
            last.line.u("coll_bytes")?
        ),
    );
    Ok(out)
}

/// The traced run's per-layer metrics, with the reconciliation check:
/// the top-level spans of every traced epoch lie in order between its
/// due time and its stored verdict, so their self times plus
/// `unattributed_ms` add up to its wall-clock latency. Span times,
/// counters and CPU pool every session; the tracing overhead compares
/// best latencies, as the end-to-end metrics do.
fn per_layer(
    sessions: &[Session],
    first: usize,
    replays: &[ReplayEpoch],
    cpu_ms: &dyn Fn(ThreadGroup) -> f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    #[derive(Default)]
    struct Series {
        wait: Vec<f64>,
        drain: Vec<f64>,
        window: Vec<f64>,
        poll: Vec<f64>,
        store: Vec<f64>,
        prepare: Vec<f64>,
        shard: Vec<f64>,
        merge: Vec<f64>,
        poll_other: Vec<f64>,
        unattributed: Vec<f64>,
    }
    let ms = |ns: i128| ns as f64 / 1e6;
    let mut s = Series::default();
    for e in sessions.iter().flat_map(|s| &s.epochs[first..]) {
        let due = e.due as i128;
        let latency = e.stored as i128 - due;
        if !e.line.has("pending") {
            continue;
        }
        let t = |k: &str| e.line.u(k).map(|v| v as i128);
        let marks = [
            due,
            t("pending")?,
            t("drain")?,
            t("window")?,
            t("poll")?,
            t("store_start")?,
            e.stored as i128,
        ];
        checks.expect(
            marks.windows(2).all(|p| p[0] <= p[1]),
            format!("epoch {}: spans out of order {marks:?}", e.line.s("epoch")),
        );
        let (wait, drain, window, poll, store) = (
            marks[1] - marks[0],
            marks[2] - marks[1],
            marks[3] - marks[2],
            marks[4] - marks[3],
            marks[6] - marks[5],
        );
        let unattributed = latency - (wait + drain + window + poll + store);
        let (prepare, shard, merge) = (t("prepare_ns")?, t("shard_ns")?, t("merge_ns")?);
        s.wait.push(ms(wait));
        s.drain.push(ms(drain));
        s.window.push(ms(window));
        s.poll.push(ms(poll));
        s.store.push(ms(store));
        s.prepare.push(ms(prepare));
        s.shard.push(ms(shard));
        s.merge.push(ms(merge));
        s.poll_other.push(ms(poll - prepare - shard - merge));
        s.unattributed.push(ms(unattributed));
    }
    // Traced and untraced epochs alternate, the same in every session.
    let (mut traced_latency, mut untraced_latency) = (Vec::new(), Vec::new());
    let best = best_latency_ms(sessions, first);
    for (e, best) in sessions[0].epochs[first..].iter().zip(best) {
        if e.line.has("pending") {
            traced_latency.push(best);
        } else {
            untraced_latency.push(best);
        }
    }
    if traced_latency.is_empty() || untraced_latency.is_empty() {
        return Err("the traced run needs at least two measured epochs per session".into());
    }
    // Counters: totals over every session's window; cumulative counters
    // of the serving process count from the epoch before the window.
    let window = || sessions.iter().flat_map(|s| &s.epochs[first..]);
    let sum = |key: &str| -> Result<f64, String> {
        window()
            .map(|e| e.line.u(key))
            .sum::<Result<u64, String>>()
            .map(|v| v as f64)
    };
    let delta = |key: &str| -> Result<f64, String> {
        let mut total = 0;
        for s in sessions {
            let last = s.epochs.last().expect("non-empty session");
            total += last.line.u(key)? - s.epochs[first - 1].line.u(key)?;
        }
        Ok(total as f64)
    };
    let at_end = |key: &str| -> Result<f64, String> {
        let mut total = 0;
        for s in sessions {
            total += s.epochs.last().expect("non-empty session").line.u(key)?;
        }
        Ok(total as f64)
    };
    let last = &sessions[0].epochs.last().expect("non-empty session").line;
    let replay_med = |f: fn(&crate::replay::LayerReplay) -> u64| -> f64 {
        let xs: Vec<f64> = replays
            .iter()
            .filter_map(|r| r.layers.as_ref().map(|x| f(x) as f64 / 1e6))
            .collect();
        median(&xs)
    };
    let term_entries = replays
        .last()
        .and_then(|r| r.layers.as_ref())
        .map_or(0, |x| x.term_entries);
    let decode: Vec<f64> = replays.iter().map(|r| r.decode_ns as f64 / 1e6).collect();
    let lateness: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.raw.lateness_ms.clone())
        .collect();
    let send: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.raw.send_ms.clone())
        .collect();
    let n = window().count() as f64;
    let m = Metric::new;
    Ok(vec![
        m("collector.wait_ms", median(&s.wait), "ms"),
        m("collector.drain_ms", median(&s.drain), "ms"),
        m("collector.cpu_ms", cpu_ms(ThreadGroup::Collector), "ms"),
        m("collector.records", delta("coll_records")?, "count"),
        m("collector.bytes", delta("coll_bytes")?, "count"),
        m("collector.decode_errors", at_end("decode_errors")?, "count"),
        m("collector.dropped_records", at_end("dropped")?, "count"),
        m("wire.decode_ms", median(&decode), "ms"),
        m("stream.window_ms", median(&s.window), "ms"),
        m("stream.poll_ms", median(&s.poll), "ms"),
        m("stream.prepare_ms", median(&s.prepare), "ms"),
        m("stream.shard_ms", median(&s.shard), "ms"),
        m("stream.merge_ms", median(&s.merge), "ms"),
        m("stream.poll_other_ms", median(&s.poll_other), "ms"),
        m("stream.shard_cpu_ms", cpu_ms(ThreadGroup::Shard), "ms"),
        m("stream.observations", sum("observations")?, "count"),
        m("stream.late_records", at_end("late")?, "count"),
        m("stream.rejected_records", at_end("rejected")?, "count"),
        m("sut.main_cpu_ms", cpu_ms(ThreadGroup::Main), "ms"),
        m("input.assemble_ms", replay_med(|x| x.assemble_ns), "ms"),
        m(
            "input.coalesce_ratio",
            sum("raw_flows")? / sum("super_flows")?.max(1.0),
            "ratio",
        ),
        m("engine.rebind_ms", replay_med(|x| x.rebind_ns), "ms"),
        m("engine.super_flows", sum("super_flows")?, "count"),
        m("engine.term_entries", term_entries as f64, "count"),
        m("engine.comps", last.u("comps")? as f64, "count"),
        m("engine.paths", last.u("paths")? as f64, "count"),
        m("engine.sets", last.u("sets")? as f64, "count"),
        m("engine.members", last.u("members")? as f64, "count"),
        m("greedy.search_ms", replay_med(|x| x.search_ns), "ms"),
        m("greedy.hypotheses_scanned", sum("scanned")?, "count"),
        m("store.ingest_ms", median(&s.store), "ms"),
        m(
            "store.segment_bytes_per_epoch",
            delta("segment_bytes")? / n,
            "bytes",
        ),
        m("gen.lateness_ms", max(&lateness), "ms"),
        m(
            "host.steal_ms",
            sessions.iter().map(|s| s.raw.steal_ms).sum::<u64>() as f64 / n,
            "ms",
        ),
        m("gen.send_ms", median(&send), "ms"),
        m("unattributed_ms", median(&s.unattributed), "ms"),
        m(
            "tracing_overhead_ms",
            median(&traced_latency) - median(&untraced_latency),
            "ms",
        ),
    ])
}

/// Every stored epoch's blamed components, read back from the segment
/// through the store's own reopen path.
fn read_store(
    path: &std::path::Path,
    epochs: usize,
) -> Result<BTreeMap<u64, Vec<Component>>, String> {
    let cfg = StoreConfig {
        ring_capacity: epochs + 1,
        ..StoreConfig::default()
    };
    let store = VerdictStore::open(cfg, path).map_err(|e| format!("store reopen: {e}"))?;
    if let Some(torn) = store.torn() {
        return Err(format!("store reopen found a torn tail: {torn}"));
    }
    Ok(store
        .recent()
        .map(|r| {
            (
                r.epoch_index,
                r.verdicts.iter().map(|v| v.component).collect(),
            )
        })
        .collect())
}

fn sleep_until(t_ns: u64) {
    let now = mono_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// One `verdict` line of the serving process, as `key=value` fields.
#[derive(Clone)]
struct VerdictLine {
    fields: BTreeMap<String, String>,
    /// Steal per CPU when the load generator read the line.
    steal_ms: f64,
}

impl VerdictLine {
    fn parse(rest: &str, steal_ms: f64) -> Self {
        VerdictLine {
            fields: rest
                .split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            steal_ms,
        }
    }

    fn has(&self, key: &str) -> bool {
        self.fields.contains_key(key)
    }

    fn s(&self, key: &str) -> &str {
        self.fields.get(key).map_or("", String::as_str)
    }

    fn u(&self, key: &str) -> Result<u64, String> {
        self.s(key)
            .parse()
            .map_err(|_| format!("verdict line lacks a numeric `{key}`"))
    }

    /// A comma list field as sorted tokens (`-` is empty).
    fn tokens(&self, key: &str) -> Vec<String> {
        let mut t: Vec<String> = match self.s(key) {
            "-" | "" => Vec::new(),
            v => v.split(',').map(str::to_string).collect(),
        };
        t.sort();
        t
    }
}

/// A message from the serving process.
enum Msg {
    Ready(u16),
    Verdict(VerdictLine),
    Drained,
    Other(String),
}

/// A running serving process and the generator's connections to it.
struct Sut {
    child: Child,
    pid: u32,
    stdin: Option<ChildStdin>,
    rx: Receiver<Msg>,
    reader: Option<JoinHandle<()>>,
    conns: Vec<TcpStream>,
    spawned_ns: u64,
}

impl Sut {
    /// Start the serving process and connect the generator to it.
    fn spawn(w: &Workload, store: PathBuf, n_conns: usize) -> Result<Sut, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned_ns = mono_ns();
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--workload")
            .arg(w.name)
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn serving process: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let msg = if let Some(port) = line.strip_prefix("ready ") {
                    port.trim()
                        .parse()
                        .map_or(Msg::Other(line.clone()), Msg::Ready)
                } else if let Some(rest) = line.strip_prefix("verdict ") {
                    match procfs::steal_per_cpu_ms() {
                        Ok(steal_ms) => Msg::Verdict(VerdictLine::parse(rest, steal_ms)),
                        Err(e) => Msg::Other(format!("proc: {e}")),
                    }
                } else if line == "drained" {
                    Msg::Drained
                } else {
                    Msg::Other(line)
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
        });
        let mut sut = Sut {
            pid: child.id(),
            child,
            stdin: None,
            rx,
            reader: Some(reader),
            conns: Vec::new(),
            spawned_ns,
        };
        sut.stdin = sut.child.stdin.take();
        let port = match sut.recv()? {
            Msg::Ready(port) => port,
            _ => return Err("serving process did not report ready".into()),
        };
        for _ in 0..n_conns {
            let c = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
            c.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            // A serving process that stops reading must fail the run, not
            // block the sender once the socket buffers fill.
            c.set_write_timeout(Some(ANSWER_TIMEOUT))
                .map_err(|e| format!("write timeout: {e}"))?;
            sut.conns.push(c);
        }
        Ok(sut)
    }

    fn recv(&self) -> Result<Msg, String> {
        loop {
            match self.rx.recv_timeout(ANSWER_TIMEOUT) {
                Ok(Msg::Other(line)) => println!("serving process: {line}"),
                Ok(msg) => return Ok(msg),
                Err(_) => return Err("serving process stopped answering".into()),
            }
        }
    }

    fn next_verdict(&self) -> Result<VerdictLine, String> {
        match self.recv()? {
            Msg::Verdict(v) => Ok(v),
            _ => Err("expected a verdict line".into()),
        }
    }

    fn control(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until close");
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("control write: {e}"))
    }

    /// Announce epoch `k` and send its records over every connection.
    fn send_epoch(
        &mut self,
        k: u64,
        cum: u64,
        trace: bool,
        epoch: &EncodedEpoch,
    ) -> Result<(), String> {
        self.control(&format!("epoch {k} {cum} {}\n", u8::from(trace)))?;
        for (conn, bytes) in self.conns.iter_mut().zip(&epoch.conns) {
            conn.write_all(bytes).map_err(|e| format!("send: {e}"))?;
        }
        Ok(())
    }

    /// Ask for the tail to be drained and stored; returns every verdict
    /// line not yet taken.
    fn end(&mut self) -> Result<Vec<VerdictLine>, String> {
        self.control("end\n")?;
        let mut out = Vec::new();
        loop {
            match self.recv()? {
                Msg::Verdict(v) => out.push(v),
                Msg::Drained => return Ok(out),
                Msg::Ready(_) | Msg::Other(_) => {}
            }
        }
    }

    /// Close the connections and stdin and wait for the process to exit.
    fn close(mut self) -> Result<(), String> {
        self.conns.clear();
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for serving process: {e}"))?;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if !status.success() {
            return Err(format!("serving process exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        // Only reached with the process still running on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.stdin = None;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}
