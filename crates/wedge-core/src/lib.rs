//! # wedge-core
//!
//! The WedgeChain protocol (§III–V of the paper), implemented as
//! deterministic state machines driven by `wedge-sim`:
//!
//! - [`engine`]: the sans-IO protocol engines, the single
//!   implementation of the protocol shared by every runtime, and the
//!   [`engine::Engine`] trait they share:
//!   - [`engine::ClientEngine`]: authenticated clients — workload
//!     driver, receipt holder, proof verifier, dispute filer;
//!   - [`engine::EdgeEngine`]: the untrusted edge node — seals blocks,
//!     issues signed Phase-I receipts, certifies lazily (digests only),
//!     serves proofs; [`fault::FaultPlan`] scripts its lies;
//!   - [`engine::CloudEngine`]: the trusted cloud node — certification
//!     ledger, merge verification, gossip watermarks, dispute rulings,
//!     punishment.
//! - [`node`]: the simulator's one actor, [`node::EngineNode`], which
//!   runs any of the three engines inside `wedge-sim`.
//! - [`messages`]: the protocol message set with wire sizes (the
//!   data-free certification message is 72 bytes regardless of block
//!   size).
//! - [`deployment`]: the one deployment builder — derived identities,
//!   the key registry, the bootstrapped cloud index and the configured
//!   engines — shared by the simulator and the real-time cluster.
//! - [`harness`]: the simulator deployments
//!   ([`harness::SystemHarness`], [`harness::MultiPartitionHarness`])
//!   used by examples, tests and benches.
//! - [`cost`]: the calibrated CPU cost model; [`config`]: deployment
//!   knobs; [`metrics`]: latency/timeline collection.
//! - [`driver`]: the real-time runtime skeleton — config, one service
//!   body for every role, cloud→edge backpressure, the run report —
//!   generic over a transport; [`threaded`]: that skeleton on
//!   in-process channels (`wedge-net` puts it on TCP sockets).

#![forbid(unsafe_code)]

pub mod config;
// Test support, public so every transport's crate runs the same
// bodies; not part of the runtime API.
#[doc(hidden)]
pub mod conformance;
pub mod cost;
pub mod deployment;
pub mod driver;
pub mod engine;
pub mod fault;
pub mod harness;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod threaded;

pub use config::{CryptoMode, SystemConfig};
pub use cost::CostModel;
// The workload plan types (`ClientPlan`, `PlanProgress`, ...) keep
// their `wedge_core::client` path.
pub use engine::client;
pub use engine::{
    ClientCommand, ClientEffect, ClientEngine, ClientEvent, ClientPlan, CloudCommand, CloudEffect,
    CloudEngine, CloudStats, EdgeCommand, EdgeEffect, EdgeEngine, EdgeStats, Engine, GetOutcome,
    PutOutcome,
};
pub use fault::FaultPlan;
pub use harness::{Aggregate, MultiPartitionHarness, SystemHarness};
pub use messages::{AddReceipt, Dispute, DisputeVerdict, Msg, ReadReceipt, WireMsg};
pub use metrics::{ClientMetrics, LatencyStats, Timeline};
pub use node::{ClientNode, CloudNode, EdgeNode, EngineNode};
