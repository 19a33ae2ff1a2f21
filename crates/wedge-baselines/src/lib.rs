//! # wedge-baselines
//!
//! The two comparison systems of the evaluation (§II-C, §VI):
//!
//! - [`cloud_only`]: every request is processed by the trusted cloud.
//!   Results need no verification, but each operation pays the
//!   wide-area round trip. The module holds the cloud server.
//! - [`edge_baseline`]: writes are certified at the cloud *before*
//!   the edge can serve them — the "mLSM with no changes" deployment
//!   the paper contrasts lazy certification against. The module holds
//!   the cloud and edge servers.
//! - [`client`]: the one client both baselines run, a
//!   [`BaselineClient`] on a [`Route`]. It issues its plan with the
//!   WedgeChain client's own policy
//!   ([`PlanProgress`](wedge_core::client::PlanProgress)), so all
//!   three systems see the same workload.
//! - [`runner`]: a unified [`runner::run_scenario`] entry point so the
//!   bench harness can sweep all three systems uniformly.

#![forbid(unsafe_code)]

pub mod client;
pub mod cloud_only;
pub mod edge_baseline;
pub mod msg;
pub mod runner;

pub use client::{BaselineClient, Route};
pub use cloud_only::CloudOnlyCloud;
pub use edge_baseline::{EbCloud, EbEdge};
pub use msg::BMsg;
pub use runner::{plan_from_scenario, run_scenario, RunOutput, SystemKind};
