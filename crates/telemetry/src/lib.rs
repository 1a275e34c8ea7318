//! Telemetry substrate for the Flock fault-localization suite.
//!
//! This crate implements the monitoring plane of §3.1/§5.1 of the paper and
//! the input-assembly logic of §6.2:
//!
//! * [`flow`] — flow keys, per-flow statistics, and the monitored-flow
//!   record shared by the simulators and the live agent path.
//! * [`wire`] — the IPFIX-style export format: fixed message header plus
//!   52-byte fixed flow-stats records (matching the paper's "52 bytes per
//!   flow"), with an optional variable-length path attachment for flows
//!   whose exact route is known (active probes / INT). Two negotiated
//!   header versions: v1 (32 B) and v2 (40 B, adding the agent-stamped
//!   `epoch_seq` hint).
//! * [`agent`] — the end-host agent: aggregates packet/flow samples by flow
//!   key, optionally downsamples, and periodically exports records,
//!   stamping each export with its epoch index when configured with the
//!   collector-agreed cadence.
//! * [`collector`] — a sharded, event-driven TCP reactor that multiplexes
//!   many agent connections over a few threads, decodes export messages
//!   into shard-local stores pre-bucketed by epoch, and sheds load at a
//!   configurable high-water mark (reproduces the Fig. 7 scalability
//!   measurements).
//! * [`probes`] — active-probe planning: A1 host↔spine bounce probes with
//!   pinned paths (NetBouncer-style) and path-tracing for flagged flows
//!   (007-style A2).
//! * [`input`] — assembly of inference inputs: given monitored flows and a
//!   set of telemetry kinds (A1 / A2 / P / INT), produce the
//!   [`ObservationSet`] consumed by every inference
//!   scheme, with interned fabric paths and ECMP path sets.
//! * [`view`] — per-shard [`ArenaView`]s: persistent dense projections of
//!   the global path arena onto one shard's evidence, the layer that lets
//!   a sharded executor's engines allocate and iterate O(their own
//!   evidence) instead of O(total arena).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod collector;
pub mod flow;
pub mod input;
pub mod probes;
#[allow(unsafe_code)]
mod readiness;
pub mod view;
pub mod wire;

pub use agent::{AgentConfig, AgentCore, FlowSample};
pub use collector::{
    AgentSeen, Collector, CollectorConfig, CollectorStats, DrainBatch, ReactorHook, StampedRecord,
    StatsSnapshot,
};
pub use flow::{FlowKey, FlowRecord, FlowStats, MonitoredFlow, TrafficClass};
pub use input::{
    AnalysisMode, ArenaDelta, Assembler, BucketQuantizer, CoalesceMode, DeltaError, FlowObs,
    InputKind, ObservationSet, PathArena, PathId, PathSetId,
};
pub use probes::{plan_a1_probes, ProbeSpec};
pub use view::{ArenaView, DenseRemap, ViewError};
