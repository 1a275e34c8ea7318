//! Work the load generator does in its own process before the serving
//! processes start, so none of it competes with a measured window:
//!
//! * the **oracle**: every epoch's bytes decoded and replayed through
//!   [`StreamPipeline::run_flows`] with the serving process's config —
//!   its verdicts and work counters are what the served run must repeat;
//! * the **layer replays** of the traced run: the wire decode, then
//!   `Assembler::assemble` on a warm arena, `Engine::try_rebind_view` and
//!   `FlockGreedy::search_warm` — the single-engine path of the default
//!   plan — each timed on its own.

use crate::fixture::{EncodedEpoch, Workload};
use crate::procfs::mono_ns;
use crate::serve::component_token;
use flock_core::{CompIdx, Engine, EngineOptions, FlockGreedy};
use flock_stream::{reconstruct, EpochReport, StreamPipeline};
use flock_telemetry::wire::{DecodeStep, StreamDecoder};
use flock_telemetry::{ArenaView, Assembler, CoalesceMode, FlowRecord, MonitoredFlow};
use flock_topology::{Router, Topology};

/// The work counts of one epoch's report that must repeat exactly, by
/// their names on a `verdict` line. The serving process writes them
/// from its reports and the load generator compares them with the oracle's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters(pub [(&'static str, u64); 9]);

impl Counters {
    /// The counts of one report, summed over its shards.
    pub fn of_report(r: &EpochReport) -> Self {
        let sum = |f: fn(&flock_stream::ShardOutcome) -> usize| -> u64 {
            r.shards.iter().map(f).sum::<usize>() as u64
        };
        Counters([
            ("records", r.records as u64),
            ("observations", r.observations as u64),
            ("raw_flows", sum(|s| s.raw_flows)),
            ("super_flows", sum(|s| s.flows)),
            ("scanned", r.result.hypotheses_scanned),
            ("comps", sum(|s| s.state.comps)),
            ("paths", sum(|s| s.state.paths)),
            ("sets", sum(|s| s.state.sets)),
            ("members", sum(|s| s.state.members)),
        ])
    }
}

/// Timings and counters of one epoch's layer replay.
#[derive(Debug, Clone, Default)]
pub struct LayerReplay {
    pub assemble_ns: u64,
    pub rebind_ns: u64,
    pub search_ns: u64,
    pub term_entries: u64,
}

/// One epoch's replay results.
pub struct ReplayEpoch {
    /// Wall time of `StreamDecoder` plus `reconstruct` over the epoch's
    /// bytes.
    pub decode_ns: u64,
    /// The oracle's blamed components, sorted tokens.
    pub blamed: Vec<String>,
    /// The oracle report's counters.
    pub counters: Counters,
    /// Layer replay (traced runs only).
    pub layers: Option<LayerReplay>,
}

/// Bytes the collector reads from a connection at a time.
const READ_CHUNK: usize = 64 * 1024;

/// Decode an epoch's bytes the way the collector's readers do — 64 KiB
/// reads, each followed by popping every complete frame — and rebuild
/// the monitored flows.
fn decode(epoch: &EncodedEpoch) -> Result<Vec<MonitoredFlow>, String> {
    let mut records: Vec<FlowRecord> = Vec::with_capacity(epoch.records as usize);
    for bytes in &epoch.conns {
        let mut dec = StreamDecoder::new();
        for chunk in bytes.chunks(READ_CHUNK) {
            dec.feed(chunk);
            loop {
                match dec.next_step() {
                    DecodeStep::Message(msg) => records.extend(msg.records),
                    DecodeStep::NeedMore => break,
                    DecodeStep::Quarantined(e) | DecodeStep::Resynced { cause: e, .. } => {
                        return Err(format!("decode: {e}"))
                    }
                }
            }
        }
        if dec.buffered() != 0 {
            return Err("decode: trailing partial message".into());
        }
    }
    Ok(reconstruct(records))
}

/// Replay every epoch in order (inference state is warm, so history
/// matters), with the layer replays when `layers` is set.
pub fn replay(
    w: &Workload,
    epochs: &[EncodedEpoch],
    layers: bool,
) -> Result<Vec<ReplayEpoch>, String> {
    let topo = w.topology();
    let cfg = w.stream_config();
    let epoch_ms = cfg.epoch.epoch_ms;
    let mut oracle = StreamPipeline::new(&topo, cfg.clone());
    let mut chain = layers.then(|| LayerChain::new(&topo, w));
    let mut out = Vec::with_capacity(epochs.len());
    for (k, epoch) in epochs.iter().enumerate() {
        let t0 = mono_ns();
        let flows = decode(epoch)?;
        let decode_ns = mono_ns() - t0;
        let k = k as u64;
        let report = oracle.run_flows(k, k * epoch_ms, (k + 1) * epoch_ms, &flows);
        let mut blamed: Vec<String> = report
            .result
            .predicted
            .iter()
            .map(component_token)
            .collect();
        blamed.sort();
        out.push(ReplayEpoch {
            decode_ns,
            blamed,
            counters: Counters::of_report(&report),
            layers: chain.as_mut().map(|c| c.run(&topo, &flows)),
        });
    }
    Ok(out)
}

/// The single-engine inference chain, persistent across epochs exactly
/// as one shard of the pipeline keeps it.
struct LayerChain<'t> {
    router: Router<'t>,
    cfg: flock_stream::StreamConfig,
    assembler: Assembler,
    view: ArenaView,
    engine: Option<Engine>,
    prev: Vec<CompIdx>,
}

impl<'t> LayerChain<'t> {
    fn new(topo: &'t Topology, w: &Workload) -> Self {
        let cfg = w.stream_config();
        let mut assembler = Assembler::new();
        assembler.set_coalesce(if cfg.coalesce {
            cfg.coalesce_mode
        } else {
            CoalesceMode::Exact
        });
        LayerChain {
            router: Router::new(topo),
            cfg,
            assembler,
            view: ArenaView::new(),
            engine: None,
            prev: Vec::new(),
        }
    }

    fn run(&mut self, topo: &Topology, flows: &[MonitoredFlow]) -> LayerReplay {
        let cfg = &self.cfg;
        let t0 = mono_ns();
        let obs = self
            .assembler
            .assemble(topo, &self.router, flows, &cfg.kinds, cfg.mode);
        let assemble_ns = mono_ns() - t0;
        self.view
            .bind_epoch(&obs, |_, _| true)
            .expect("the chain's assembler keeps one arena lineage");
        let t0 = mono_ns();
        match self.engine.as_mut() {
            Some(e) => e
                .try_rebind_view(topo, &obs, &self.view)
                .expect("the chain's view is the engine's own"),
            None => {
                let opts = EngineOptions {
                    coalesce: cfg.coalesce,
                    mode: cfg.coalesce_mode,
                    ..Default::default()
                };
                self.engine = Some(Engine::with_view(topo, &obs, cfg.params, opts, &self.view));
            }
        }
        let rebind_ns = mono_ns() - t0;
        let engine = self.engine.as_mut().expect("engine just installed");
        let seed: Vec<CompIdx> = self
            .prev
            .iter()
            .filter_map(|&g| engine.local_comp(g))
            .collect();
        let t0 = mono_ns();
        let (picked, _) = FlockGreedy::new(cfg.params).search_warm(engine, &seed);
        let search_ns = mono_ns() - t0;
        self.prev = picked.iter().map(|&(c, _)| engine.global_comp(c)).collect();
        let term_entries = engine.term_table_sizes().1 as u64;
        self.assembler.recycle(obs);
        LayerReplay {
            assemble_ns,
            rebind_ns,
            search_ns,
            term_entries,
        }
    }
}
