//! One WedgeChain deployment, written out once for every runtime.
//!
//! §III's deployment is one trusted cloud plus N untrusted edges, one
//! partition each, with every client in exactly one partition and every
//! party under one PKI. This module is the only place that deployment
//! is spelled out:
//!
//! - [`Identities`]: every party's derived identity — cloud 1, edges
//!   100 + p, clients 1000 + i numbered in partition order — and the
//!   registry of their public keys. Entries, blocks and digests are
//!   byte-identical across runtimes because every runtime (and the
//!   baselines) takes its identities from here;
//! - [`client_workload_seed`]: each client's engine-owned key stream;
//! - the engine builder: the cloud's `CloudIndex` bootstrapped with one
//!   `init_edge` per edge, and the configured cloud, edge and client
//!   engines. It is generic over the peer handles the engines address
//!   each other by — simulator `ActorId`s in [`crate::harness`], link
//!   indices in [`crate::driver`].

use crate::config::CryptoMode;
use crate::cost::CostModel;
use crate::engine::{ClientEngine, ClientPlan, CloudEngine, EdgeEngine};
use crate::fault::FaultPlan;
use std::hash::Hash;
use wedge_crypto::{Identity, IdentityId, KeyRegistry};
use wedge_lsmerkle::{CloudIndex, LsMerkle, LsmConfig};

/// Identity id blocks: cloud 1, edges 100+, clients 1000+.
const CLOUD_ID: u64 = 1;
const EDGE_ID_BASE: u64 = 100;
const CLIENT_ID_BASE: u64 = 1000;

/// The engine-owned workload seed for one client: derived from the
/// deployment seed and the client identity, so each client's key
/// stream is deterministic regardless of how runtimes interleave
/// their execution (the sim/threads differential depends on this).
pub fn client_workload_seed(deployment_seed: u64, client: IdentityId) -> u64 {
    deployment_seed ^ client.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Every party's identity and the one registry of their public keys.
pub struct Identities {
    /// The trusted cloud.
    pub cloud: Identity,
    /// The edge of each partition.
    pub edges: Vec<Identity>,
    /// Clients grouped by partition.
    pub clients: Vec<Vec<Identity>>,
    /// The public keys of all of the above.
    pub registry: KeyRegistry,
}

impl Identities {
    /// Derives the cloud, `partitions` edges and `clients_per_partition`
    /// clients per edge — each identity exactly once — and registers
    /// every key.
    pub fn derive(partitions: usize, clients_per_partition: usize) -> Self {
        let cloud = Identity::derive("cloud", CLOUD_ID);
        let edges: Vec<Identity> =
            (0..partitions).map(|p| Identity::derive("edge", EDGE_ID_BASE + p as u64)).collect();
        let clients: Vec<Vec<Identity>> = (0..partitions)
            .map(|p| {
                (0..clients_per_partition)
                    .map(|c| {
                        let n = p * clients_per_partition + c;
                        Identity::derive("client", CLIENT_ID_BASE + n as u64)
                    })
                    .collect()
            })
            .collect();
        let mut registry = KeyRegistry::new();
        for ident in std::iter::once(&cloud).chain(&edges).chain(clients.iter().flatten()) {
            registry.register(ident.id, ident.public()).expect("derived ids are distinct");
        }
        Identities { cloud, edges, clients, registry }
    }
}

/// What every runtime configures its engines with, in engine units
/// (nanoseconds). The simulator fills it from `SystemConfig`, the
/// real-time cluster from `RuntimeConfig`.
pub(crate) struct EngineConfig {
    pub lsm: LsmConfig,
    pub cost: CostModel,
    pub crypto_mode: CryptoMode,
    /// Scripted misbehaviour per partition's edge (missing entries are
    /// honest).
    pub faults: Vec<FaultPlan>,
    /// What every client runs.
    pub plan: ClientPlan,
    /// Seeds every client's workload stream via
    /// [`client_workload_seed`].
    pub seed: u64,
    pub data_free: bool,
    pub gossip_period_ns: Option<u64>,
    pub dispute_timeout_ns: u64,
    pub freshness_window_ns: Option<u64>,
    pub compaction_period_ns: Option<u64>,
}

/// A deployment's built engines, before any runtime drives them.
pub(crate) struct Engines<P, C> {
    pub cloud: CloudEngine<P>,
    /// The edge of each partition.
    pub edges: Vec<EdgeEngine<C>>,
    /// Clients grouped by partition.
    pub clients: Vec<Vec<ClientEngine>>,
}

impl<P: Copy + Eq + Hash, C: Copy + Eq + Hash> Engines<P, C> {
    /// Builds the engines of `ids`' deployment. `edge_peers[p]` is the
    /// cloud's handle for partition `p`'s edge and `client_peers[p]`
    /// that edge's handles for its clients. Every engine shares `pool`:
    /// a scope that finds it busy runs inline, so engines on different
    /// threads never wait for each other's fan-outs.
    pub(crate) fn build(
        ids: &Identities,
        cfg: EngineConfig,
        edge_peers: &[P],
        client_peers: &[Vec<C>],
        pool: &wedge_pool::Pool,
    ) -> Self {
        let mut index = CloudIndex::new(cfg.lsm.clone());
        index.set_pool(pool.clone());
        let inits: Vec<_> =
            ids.edges.iter().map(|e| index.init_edge(&ids.cloud, e.id, 0)).collect();
        let cloud = CloudEngine::new(
            ids.cloud.clone(),
            ids.registry.clone(),
            cfg.cost.clone(),
            index,
            edge_peers.iter().copied().zip(ids.edges.iter().map(|e| e.id)).collect(),
            cfg.gossip_period_ns,
        );
        let mut faults = cfg.faults.into_iter();
        let edges = ids
            .edges
            .iter()
            .zip(inits)
            .enumerate()
            .map(|(p, (ident, init))| {
                let mut engine = EdgeEngine::new(
                    ident.clone(),
                    ids.cloud.id,
                    ids.registry.clone(),
                    cfg.cost.clone(),
                    cfg.crypto_mode,
                    faults.next().unwrap_or_default(),
                    LsMerkle::new(ident.id, cfg.lsm.clone(), init),
                    client_peers[p].clone(),
                );
                engine.data_free = cfg.data_free;
                engine.set_pool(pool.clone());
                engine.set_compaction_period_ns(cfg.compaction_period_ns);
                engine
            })
            .collect();
        let clients = ids
            .clients
            .iter()
            .zip(&ids.edges)
            .map(|(group, edge)| {
                group
                    .iter()
                    .map(|ident| {
                        let mut engine = ClientEngine::new(
                            ident.clone(),
                            edge.id,
                            ids.cloud.id,
                            ids.registry.clone(),
                            cfg.cost.clone(),
                            cfg.crypto_mode,
                            cfg.plan.clone(),
                            cfg.freshness_window_ns,
                            cfg.dispute_timeout_ns,
                            client_workload_seed(cfg.seed, ident.id),
                        );
                        engine.set_pool(pool.clone());
                        engine
                    })
                    .collect()
            })
            .collect();
        Engines { cloud, edges, clients }
    }
}
