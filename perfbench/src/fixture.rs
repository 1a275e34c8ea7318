//! Workloads: per-epoch evidence from `flock-bench`'s generators (plus
//! `DynamicScenario` for fault churn), turned into the wire-v2 bytes the
//! per-host agents would export, split over the generator's connections.

use flock_netsim::dynamic::DynamicScenario;
use flock_netsim::failure::DEFAULT_NOISE_MAX;
use flock_netsim::flowsim::{simulate_flows, FlowSimConfig};
use flock_netsim::traffic::{generate_demands, TrafficConfig, TrafficPattern};
use flock_stream::{EpochConfig, StreamConfig};
use flock_telemetry::agent::{AgentConfig, AgentCore, FlowSample};
use flock_telemetry::{AnalysisMode, InputKind, MonitoredFlow};
use flock_topology::{ClosParams, GroundTruth, NodeId, Router, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Which generator a workload draws its epochs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Paper traffic (uniform, Pareto mean 200 KB) under a
    /// `DynamicScenario` of silent-drop faults that appear and heal.
    UniformChurn,
    /// `flock_bench::pareto_heavy_epochs`: storage fan-in with heavy-tailed
    /// sizes under one persistent agg–spine fault.
    ParetoFanin,
    /// `flock_bench::spine_heavy_epochs`: inter-pod RPC traffic with
    /// quantized sizes under one persistent agg–spine fault.
    RpcIngest,
}

/// One benchmark workload: a fabric, an evidence shape and a send rate.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator.
    pub shape: Shape,
    /// Servers in the three-tier Clos fabric.
    pub servers: u32,
    /// Flows simulated per epoch (one agent record each).
    pub flows_per_epoch: usize,
    /// Telemetry kinds the pipeline assembles.
    pub kinds: &'static [InputKind],
    /// Open-loop period: one epoch is due every `period_ms`, which is
    /// also the pipeline's tumbling epoch length.
    pub period_ms: u64,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "uniform-churn",
        shape: Shape::UniformChurn,
        servers: 1024,
        flows_per_epoch: 16_384,
        kinds: &[InputKind::A2, InputKind::P],
        period_ms: 100,
    },
    Workload {
        name: "pareto-fanin",
        shape: Shape::ParetoFanin,
        servers: 1024,
        flows_per_epoch: 32_768,
        kinds: &[InputKind::P],
        period_ms: 100,
    },
    Workload {
        name: "rpc-ingest",
        shape: Shape::RpcIngest,
        servers: 128,
        flows_per_epoch: 65_536,
        kinds: &[InputKind::A2, InputKind::P],
        period_ms: 100,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The fabric both the serving process and the in-process oracle
    /// build.
    pub fn topology(&self) -> Topology {
        flock_topology::clos::three_tier(ClosParams::with_servers(self.servers))
    }

    /// The pipeline configuration: the paper default with only the
    /// deployment and workload fields set (epoch length, telemetry kinds,
    /// analysis mode). Every inference-path field keeps its default, so
    /// a change to the default plan is measured without editing this.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            epoch: EpochConfig::tumbling(self.period_ms),
            kinds: self.kinds.to_vec(),
            mode: AnalysisMode::PerPacket,
            ..StreamConfig::paper_default()
        }
    }
}

/// One epoch as the generator sends it.
pub struct EncodedEpoch {
    /// Pre-encoded wire-v2 messages, one byte stream per connection.
    pub conns: Vec<Vec<u8>>,
    /// Records across all messages.
    pub records: u64,
}

impl EncodedEpoch {
    /// Wire bytes across all connections.
    pub fn bytes(&self) -> u64 {
        self.conns.iter().map(|c| c.len() as u64).sum()
    }
}

/// A workload's generated inputs: every epoch's bytes and ground truth.
pub struct Fixture {
    /// Per-epoch wire bytes, epoch 0 first.
    pub epochs: Vec<EncodedEpoch>,
    /// Per-epoch ground truth.
    pub truth: Vec<GroundTruth>,
}

/// Epochs generated per call of the `flock-bench` generators, which
/// return a whole run at once: chunking bounds the flows held in memory.
const CHUNK_EPOCHS: usize = 8;

/// Generate `n_epochs` epochs of `w` from `seed` and encode them for
/// `n_conns` connections. The same arguments give the same bytes.
pub fn generate(w: &Workload, seed: u64, n_epochs: usize, n_conns: usize) -> Fixture {
    let mut enc = Encoder::new(w, n_conns);
    let mut truth = Vec::with_capacity(n_epochs);
    match w.shape {
        Shape::UniformChurn => {
            let topo = w.topology();
            let router = Router::new(&topo);
            let mut rng = StdRng::seed_from_u64(seed);
            // About one fault in three epochs, each lasting 2–6 epochs:
            // faults appear and heal every few epochs.
            let scenario = DynamicScenario::generate(
                &topo,
                n_epochs as u64,
                n_epochs.div_ceil(3),
                (0.01, 0.02),
                (2, 6),
                DEFAULT_NOISE_MAX,
                &mut rng,
            );
            let traffic = TrafficConfig::paper(w.flows_per_epoch, TrafficPattern::Uniform);
            for k in 0..n_epochs {
                let snapshot = scenario.scenario_at(k as u64);
                let demands = generate_demands(&topo, &traffic, &mut rng);
                let flows = simulate_flows(
                    &topo,
                    &router,
                    &snapshot,
                    &demands,
                    &FlowSimConfig::default(),
                    &mut rng,
                );
                enc.push(&flows);
                truth.push(snapshot.truth);
            }
        }
        Shape::ParetoFanin | Shape::RpcIngest => {
            for (chunk, start) in (0..n_epochs).step_by(CHUNK_EPOCHS).enumerate() {
                let n = CHUNK_EPOCHS.min(n_epochs - start);
                let chunk_seed = seed.wrapping_mul(1_000_003).wrapping_add(chunk as u64);
                let fx = match w.shape {
                    Shape::ParetoFanin => flock_bench::pareto_heavy_epochs(
                        w.servers,
                        w.flows_per_epoch,
                        n,
                        chunk_seed,
                    ),
                    _ => {
                        flock_bench::spine_heavy_epochs(w.servers, w.flows_per_epoch, n, chunk_seed)
                    }
                };
                for flows in &fx.epochs {
                    enc.push(flows);
                    truth.push(fx.truth.clone());
                }
            }
        }
    }
    Fixture {
        epochs: enc.epochs,
        truth,
    }
}

/// Per-host agents, persistent across epochs (their message sequence
/// numbers continue), multiplexed over the generator's connections.
struct Encoder {
    agents: BTreeMap<NodeId, AgentCore>,
    period_ms: u64,
    trace_paths: bool,
    n_conns: usize,
    epochs: Vec<EncodedEpoch>,
}

impl Encoder {
    fn new(w: &Workload, n_conns: usize) -> Self {
        Encoder {
            agents: BTreeMap::new(),
            period_ms: w.period_ms,
            trace_paths: w.kinds.contains(&InputKind::A2),
            n_conns,
            epochs: Vec::new(),
        }
    }

    fn push(&mut self, flows: &[MonitoredFlow]) {
        let k = self.epochs.len() as u64;
        let mut per_host: BTreeMap<NodeId, Vec<&MonitoredFlow>> = BTreeMap::new();
        for f in flows {
            per_host.entry(f.key.src).or_default().push(f);
        }
        // Exports are stamped mid-window, so each lands in epoch `k`.
        let export_ms = k * self.period_ms + self.period_ms / 2;
        let mut epoch = EncodedEpoch {
            conns: vec![Vec::new(); self.n_conns],
            records: 0,
        };
        for (host, host_flows) in per_host {
            let period_ms = self.period_ms;
            let agent = self.agents.entry(host).or_insert_with(|| {
                AgentCore::new(AgentConfig {
                    agent_id: host.0,
                    epoch_hint_ms: Some(period_ms),
                    ..Default::default()
                })
            });
            for f in host_flows {
                agent.observe(FlowSample {
                    key: f.key,
                    packets: f.stats.packets,
                    retransmissions: f.stats.retransmissions,
                    bytes: f.stats.bytes,
                    rtt_us: Some(f.stats.rtt_max_us),
                    // A2: agents trace the path of flows that lost packets.
                    path: (self.trace_paths && f.stats.retransmissions > 0)
                        .then(|| f.true_path.clone()),
                    class: f.class,
                });
            }
            let records = agent.export();
            epoch.records += records.len() as u64;
            let conn = &mut epoch.conns[host.0 as usize % self.n_conns];
            for msg in agent.encode_export(export_ms, &records) {
                conn.extend_from_slice(&msg);
            }
        }
        self.epochs.push(epoch);
    }
}
