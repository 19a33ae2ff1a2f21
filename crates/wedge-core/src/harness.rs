//! The simulator deployments: build WedgeChain inside the simulator
//! and drive it.
//!
//! This is the entry point examples, tests and benches use: place the
//! clients and their edge in one region and the cloud in another, hand
//! each client a [`ClientPlan`], run, and read the metrics.
//! [`MultiPartitionHarness`] holds N partitions; [`SystemHarness`] is
//! its one-partition case. Both are built by one constructor on top of
//! [`crate::deployment`] — the identities and engines the real-time
//! cluster builds too — and share one put/get body.

use crate::config::{SystemConfig, CLIENT_REGION};
use crate::deployment::{EngineConfig, Engines, Identities};
use crate::driver::RunReport;
use crate::engine::{ClientPlan, GetOutcome, PutOutcome};
use crate::fault::FaultPlan;
use crate::messages::Msg;
use crate::metrics::ClientMetrics;
use crate::node::{ClientNode, CloudNode, EdgeNode};
use wedge_crypto::{IdentityId, Signature};
use wedge_log::Entry;
use wedge_lsmerkle::{certify_block, KvOp};
use wedge_sim::{ActorId, SimDuration, SimTime, Simulation};

pub use crate::deployment::client_workload_seed;

/// The read-benchmark preload every system's harness installs: keys
/// `0..n` in batches of `batch`, each value `value_size` bytes of
/// `0xEE`, attributed to `client` with sequence `u64::MAX / 2 + key`
/// (clear of any workload's sequences), unsigned.
pub fn preload_batches(
    n: u64,
    batch: usize,
    value_size: usize,
    client: IdentityId,
) -> impl Iterator<Item = Vec<Entry>> {
    let batch = batch.max(1) as u64;
    (0..n).step_by(batch as usize).map(move |first| {
        (first..n.min(first + batch))
            .map(|key| Entry {
                client,
                sequence: u64::MAX / 2 + key,
                payload: KvOp::put(key, vec![0xEE; value_size]).encode(),
                signature: Signature { e: 0, s: 0 },
            })
            .collect()
    })
}

/// A fully wired single-partition WedgeChain deployment.
pub struct SystemHarness {
    /// The simulation (exposed for advanced scenarios).
    pub sim: Simulation<Msg>,
    /// Client actor ids, in plan order.
    pub clients: Vec<ActorId>,
    /// The edge node actor.
    pub edge: ActorId,
    /// The cloud node actor.
    pub cloud: ActorId,
    cfg: SystemConfig,
    ids: Identities,
    max_events: u64,
}

/// Aggregate results across clients.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Mean Phase-I latency (ms) across all batches of all clients.
    pub p1_latency_ms: f64,
    /// Mean Phase-II latency (ms).
    pub p2_latency_ms: f64,
    /// Mean verified read latency (ms).
    pub read_latency_ms: f64,
    /// Total throughput, K operations per virtual second.
    pub throughput_kops: f64,
    /// Total operations Phase-I committed.
    pub total_ops: u64,
    /// Virtual seconds to finish the whole workload.
    pub makespan_secs: f64,
}

impl Aggregate {
    /// Aggregates per-client metrics: latency means weighted by sample
    /// count, the makespan set by the last client to finish.
    pub fn of<'a>(clients: impl IntoIterator<Item = &'a ClientMetrics>) -> Aggregate {
        let mut agg = Aggregate::default();
        let (mut p1_sum, mut p1_n, mut p2_sum, mut p2_n, mut rd_sum, mut rd_n) =
            (0.0, 0usize, 0.0, 0usize, 0.0, 0usize);
        let mut makespan = 0.0f64;
        for m in clients {
            p1_sum += m.p1_latency.mean() * m.p1_latency.count() as f64;
            p1_n += m.p1_latency.count();
            p2_sum += m.p2_latency.mean() * m.p2_latency.count() as f64;
            p2_n += m.p2_latency.count();
            rd_sum += m.read_latency.mean() * m.read_latency.count() as f64;
            rd_n += m.read_latency.count();
            agg.total_ops += m.total_ops();
            if let Some(t) = m.finished_at {
                makespan = makespan.max(t.as_secs_f64());
            }
        }
        agg.p1_latency_ms = if p1_n > 0 { p1_sum / p1_n as f64 } else { 0.0 };
        agg.p2_latency_ms = if p2_n > 0 { p2_sum / p2_n as f64 } else { 0.0 };
        agg.read_latency_ms = if rd_n > 0 { rd_sum / rd_n as f64 } else { 0.0 };
        agg.makespan_secs = makespan;
        agg.throughput_kops =
            if makespan > 0.0 { agg.total_ops as f64 / makespan / 1_000.0 } else { 0.0 };
        agg
    }
}

/// A multi-partition deployment: several edge nodes (one partition
/// each, as §III prescribes — every client belongs to exactly one
/// partition) sharing one trusted cloud.
pub struct MultiPartitionHarness {
    /// The simulation.
    pub sim: Simulation<Msg>,
    /// Edge actor per partition.
    pub edges: Vec<ActorId>,
    /// Clients grouped by partition.
    pub clients: Vec<Vec<ActorId>>,
    /// The shared cloud node.
    pub cloud: ActorId,
}

impl MultiPartitionHarness {
    /// Builds `partitions` edge nodes, each with `clients_per_partition`
    /// clients running `plan`; `faults[i]` scripts partition `i`'s edge
    /// (missing entries default to honest).
    pub fn new(
        cfg: SystemConfig,
        partitions: usize,
        clients_per_partition: usize,
        plan: ClientPlan,
        faults: Vec<FaultPlan>,
    ) -> Self {
        Self::build(&cfg, partitions, clients_per_partition, plan, faults).0
    }

    /// The one simulator deployment, and the identities it runs under.
    /// Actor layout: cloud = 0, edges = 1..=P, then clients in
    /// partition order.
    fn build(
        cfg: &SystemConfig,
        partitions: usize,
        clients_per_partition: usize,
        plan: ClientPlan,
        faults: Vec<FaultPlan>,
    ) -> (Self, Identities) {
        assert!(partitions > 0);
        let ids = Identities::derive(partitions, clients_per_partition);
        let cloud = ActorId::from_index(0);
        let edges: Vec<ActorId> = (1..=partitions).map(ActorId::from_index).collect();
        let clients: Vec<Vec<ActorId>> = (0..partitions)
            .map(|p| {
                let first = 1 + partitions + p * clients_per_partition;
                (first..first + clients_per_partition).map(ActorId::from_index).collect()
            })
            .collect();
        let engine_cfg = EngineConfig {
            lsm: cfg.lsm.clone(),
            cost: cfg.cost.clone(),
            crypto_mode: cfg.crypto_mode,
            faults,
            plan,
            seed: cfg.seed,
            data_free: cfg.data_free,
            gossip_period_ns: (cfg.gossip_period_ms > 0).then(|| cfg.gossip_period_ms * 1_000_000),
            dispute_timeout_ns: cfg.dispute_timeout_ms * 1_000_000,
            freshness_window_ns: cfg.freshness_window_ms.map(|ms| ms * 1_000_000),
            compaction_period_ns: cfg.compaction_period_ms.map(|ms| ms * 1_000_000),
        };
        // One pool serves every edge and client: width 1 keeps each
        // fan-out inline, so the discrete-event run stays on one thread
        // and its virtual clock exact. Results are byte-identical for
        // every width.
        let pool = wedge_pool::Pool::new(1);
        let engines = Engines::build(&ids, engine_cfg, &edges, &clients, &pool);

        let mut sim: Simulation<Msg> = Simulation::new(cfg.seed);
        let node = CloudNode::new(engines.cloud, ());
        assert_eq!(sim.add_actor(cfg.cloud_region, Box::new(node)), cloud);
        for (p, engine) in engines.edges.into_iter().enumerate() {
            let node = EdgeNode::new(engine, cloud);
            assert_eq!(sim.add_actor(cfg.edge_region, Box::new(node)), edges[p]);
        }
        for (p, group) in engines.clients.into_iter().enumerate() {
            for (c, engine) in group.into_iter().enumerate() {
                let node = ClientNode::new(engine, (edges[p], cloud));
                assert_eq!(sim.add_actor(CLIENT_REGION, Box::new(node)), clients[p][c]);
            }
        }
        (MultiPartitionHarness { sim, edges, clients, cloud }, ids)
    }

    /// Starts all clients and runs until everyone finished or halted
    /// (bounded by `max_events`).
    pub fn run(&mut self, max_events: u64) {
        self.sim.start();
        for group in self.clients.clone() {
            for c in group {
                self.sim.inject(self.cloud, c, Msg::Start);
            }
        }
        let mut n = 0u64;
        loop {
            if !self.sim.step() {
                break;
            }
            n += 1;
            if n >= max_events {
                break;
            }
            if n.is_multiple_of(512) && self.all_finished() {
                break;
            }
        }
    }

    fn all_finished(&self) -> bool {
        self.clients.iter().flatten().all(|&c| {
            let node = self.sim.actor::<ClientNode>(c);
            node.metrics.finished_at.is_some() || node.halted
        })
    }

    /// Metrics of client `c` in partition `p`.
    pub fn client_metrics(&self, p: usize, c: usize) -> &ClientMetrics {
        &self.sim.actor::<ClientNode>(self.clients[p][c]).metrics
    }

    /// Client `c` of partition `p` (engine state access for tests).
    pub fn client_node(&self, p: usize, c: usize) -> &ClientNode {
        self.sim.actor::<ClientNode>(self.clients[p][c])
    }

    /// Performs one put through partition `p`'s client `c` and waits
    /// for Phase I (scripted workloads; mirrors [`SystemHarness::put`]).
    pub fn put(&mut self, p: usize, c: usize, key: u64, value: Vec<u8>) -> PutOutcome {
        client_put(&mut self.sim, self.cloud, self.clients[p][c], vec![(key, value)])
    }

    /// Performs one put and additionally waits for Phase II.
    pub fn put_certified(&mut self, p: usize, c: usize, key: u64, value: Vec<u8>) -> PutOutcome {
        client_put_certified(&mut self.sim, self.cloud, self.clients[p][c], vec![(key, value)])
    }

    /// Performs one verified get through partition `p`'s client `c`.
    pub fn get(&mut self, p: usize, c: usize, key: u64) -> GetOutcome {
        client_get(&mut self.sim, self.cloud, self.clients[p][c], key)
    }

    /// Advances virtual time by `d`, letting engine-owned deadlines
    /// (gossip rounds, dispute timeouts) fire.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.start();
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline, 10_000_000);
    }

    /// The cloud node.
    pub fn cloud_node(&self) -> &CloudNode {
        self.sim.actor::<CloudNode>(self.cloud)
    }

    /// Partition `p`'s edge node.
    pub fn edge_node(&self, p: usize) -> &EdgeNode {
        self.sim.actor::<EdgeNode>(self.edges[p])
    }

    /// The run's protocol outcome, in the real runtimes' report shape:
    /// each partition follows its first client, as a real runtime runs
    /// one client per partition.
    pub fn report(&self) -> RunReport {
        let firsts = self.clients.iter().map(|group| group[0]);
        report(&self.sim, self.cloud, self.edges.iter().copied().zip(firsts))
    }
}

/// [`RunReport::from_engines`] over the simulator's actors.
fn report(
    sim: &Simulation<Msg>,
    cloud: ActorId,
    partitions: impl IntoIterator<Item = (ActorId, ActorId)>,
) -> RunReport {
    let partitions = partitions.into_iter().map(|(edge, client)| {
        (&sim.actor::<EdgeNode>(edge).engine, &sim.actor::<ClientNode>(client).engine)
    });
    RunReport::from_engines(&sim.actor::<CloudNode>(cloud).engine, partitions)
}

// ----------------------------------------------------------------------
// Single-operation API (quickstart / doctests / tests), shared by both
// harnesses. The harness instructs a client by injecting a control
// message "from" the cloud actor.
// ----------------------------------------------------------------------

/// Puts `ops` through `client` as one block and waits for Phase I.
fn client_put(
    sim: &mut Simulation<Msg>,
    cloud: ActorId,
    client: ActorId,
    ops: Vec<(u64, Vec<u8>)>,
) -> PutOutcome {
    sim.start();
    // Clear any previous result *before* injecting: the DoPut is only
    // processed after the first step, so a stale result would
    // otherwise satisfy the wait loop immediately.
    sim.actor_mut::<ClientNode>(client).last_put = None;
    sim.inject(cloud, client, Msg::DoPut { ops });
    let mut guard = 0u64;
    while sim.actor::<ClientNode>(client).last_put.is_none() {
        assert!(sim.step(), "simulation went idle before put completed");
        guard += 1;
        assert!(guard < 1_000_000, "put did not complete");
    }
    sim.actor::<ClientNode>(client).last_put.clone().unwrap()
}

/// Puts `ops` through `client` as one block and waits for Phase II as
/// well.
fn client_put_certified(
    sim: &mut Simulation<Msg>,
    cloud: ActorId,
    client: ActorId,
    ops: Vec<(u64, Vec<u8>)>,
) -> PutOutcome {
    let first = client_put(sim, cloud, client, ops);
    let mut guard = 0u64;
    while sim
        .actor::<ClientNode>(client)
        .last_put
        .as_ref()
        .is_some_and(|o| o.phase2_latency.is_none())
    {
        if !sim.step() {
            break;
        }
        guard += 1;
        if guard > 1_000_000 {
            break;
        }
    }
    sim.actor::<ClientNode>(client).last_put.clone().unwrap_or(first)
}

/// Performs one verified get through `client`.
fn client_get(sim: &mut Simulation<Msg>, cloud: ActorId, client: ActorId, key: u64) -> GetOutcome {
    sim.start();
    sim.actor_mut::<ClientNode>(client).last_get = None;
    sim.inject(cloud, client, Msg::DoGet { key });
    let mut guard = 0u64;
    while sim.actor::<ClientNode>(client).last_get.is_none() {
        assert!(sim.step(), "simulation went idle before get completed");
        guard += 1;
        assert!(guard < 1_000_000, "get did not complete");
    }
    sim.actor::<ClientNode>(client).last_get.clone().unwrap()
}

impl SystemHarness {
    /// Builds a WedgeChain deployment where every client runs `plan`:
    /// the one-partition, `cfg.num_clients`-client
    /// [`MultiPartitionHarness`].
    pub fn wedgechain_with(cfg: SystemConfig, plan: ClientPlan, fault: FaultPlan) -> Self {
        let (MultiPartitionHarness { sim, edges, mut clients, cloud }, ids) =
            MultiPartitionHarness::build(&cfg, 1, cfg.num_clients, plan, vec![fault]);
        SystemHarness {
            sim,
            clients: clients.remove(0),
            edge: edges[0],
            cloud,
            cfg,
            ids,
            max_events: 50_000_000,
        }
    }

    /// A deployment with honest nodes and idle clients (drive it with
    /// [`SystemHarness::put`] / [`SystemHarness::get`]).
    pub fn wedgechain(cfg: SystemConfig) -> Self {
        Self::wedgechain_with(cfg, ClientPlan::idle(), FaultPlan::honest())
    }

    /// The configuration this deployment was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Starts every client's workload and runs until the simulation
    /// goes idle (all work, certification, merges and gossip drained)
    /// or until `deadline` if given.
    pub fn run(&mut self, deadline: Option<SimTime>) {
        self.sim.start();
        for c in self.clients.clone() {
            self.sim.inject(self.cloud, c, Msg::Start);
        }
        match deadline {
            Some(d) => self.sim.run_until(d, self.max_events),
            None => self.run_until_clients_finish(),
        };
    }

    fn run_until_clients_finish(&mut self) -> u64 {
        // Gossip deadlines re-arm forever, so "queue empty" never happens
        // when gossip is on; instead, run until every client reports
        // finished (then a short drain for P2 traffic).
        let mut processed = 0;
        let time_cap = SimTime::from_nanos(7_200 * 1_000_000_000); // 2 h virtual
        loop {
            if !self.sim.step() {
                break;
            }
            processed += 1;
            if processed % 256 == 0 && (self.all_clients_finished() || self.sim.now() > time_cap) {
                break;
            }
            if processed >= self.max_events {
                break;
            }
        }
        // Drain certification/merge traffic for a grace window so
        // Phase-II metrics and timelines complete.
        let drain_until = self.sim.now() + SimDuration::from_secs(300);
        let mut guard = 0u64;
        while !self.pending_p2_empty() {
            if !self.sim.step() {
                break;
            }
            guard += 1;
            if self.sim.now() > drain_until || guard > self.max_events {
                break;
            }
        }
        processed
    }

    fn all_clients_finished(&self) -> bool {
        self.clients.iter().all(|&c| self.sim.actor::<ClientNode>(c).metrics.finished_at.is_some())
    }

    fn pending_p2_empty(&self) -> bool {
        self.clients.iter().all(|&c| {
            let m = &self.sim.actor::<ClientNode>(c).metrics;
            m.ops_p2 >= m.ops_p1
        })
    }

    /// Metrics of client `i`.
    pub fn client_metrics(&self, i: usize) -> &ClientMetrics {
        &self.sim.actor::<ClientNode>(self.clients[i]).metrics
    }

    /// Mutable client access (rarely needed; mainly for tests).
    pub fn client_mut(&mut self, i: usize) -> &mut ClientNode {
        let id = self.clients[i];
        self.sim.actor_mut::<ClientNode>(id)
    }

    /// The edge node's state.
    pub fn edge_node(&self) -> &EdgeNode {
        self.sim.actor::<EdgeNode>(self.edge)
    }

    /// The cloud node's state.
    pub fn cloud_node(&self) -> &CloudNode {
        self.sim.actor::<CloudNode>(self.cloud)
    }

    /// The run's protocol outcome: [`MultiPartitionHarness::report`]
    /// of the one partition.
    pub fn report(&self) -> RunReport {
        report(&self.sim, self.cloud, [(self.edge, self.clients[0])])
    }

    /// Aggregates metrics across all clients.
    pub fn aggregate(&self) -> Aggregate {
        Aggregate::of(self.clients.iter().map(|&c| &self.sim.actor::<ClientNode>(c).metrics))
    }

    /// Performs one put through client `i` and waits for Phase I.
    pub fn put(&mut self, client: usize, key: u64, value: Vec<u8>) -> PutOutcome {
        client_put(&mut self.sim, self.cloud, self.clients[client], vec![(key, value)])
    }

    /// Performs one put and additionally waits for Phase II.
    pub fn put_certified(&mut self, client: usize, key: u64, value: Vec<u8>) -> PutOutcome {
        self.put_batch_certified(client, vec![(key, value)])
    }

    /// Puts `ops` through client `i` as one block and waits for Phase
    /// II as well.
    pub fn put_batch_certified(&mut self, client: usize, ops: Vec<(u64, Vec<u8>)>) -> PutOutcome {
        client_put_certified(&mut self.sim, self.cloud, self.clients[client], ops)
    }

    /// Performs one verified get through client `i`.
    pub fn get(&mut self, client: usize, key: u64) -> GetOutcome {
        client_get(&mut self.sim, self.cloud, self.clients[client], key)
    }

    /// Preloads `n` sequential keys directly into the edge's log and
    /// tree and the cloud's ledger and index, bypassing the network
    /// (setup for read benchmarks): [`preload_batches`] with the
    /// configured batch and value size, every entry attributed to
    /// client 0. Each block is sealed at time 0, certified by
    /// [`certify_block`], then settled by the shared in-process merge
    /// loop,
    /// [`CloudIndex::merge_until_settled`](wedge_lsmerkle::CloudIndex::merge_until_settled).
    pub fn preload(&mut self, n: u64) {
        let edge_id = self.ids.edges[0].id;
        let client_id = self.ids.clients[0][0].id;
        let cloud_id = &self.ids.cloud;
        let (edge, cloud) = self.sim.actor_pair_mut::<EdgeNode, CloudNode>(self.edge, self.cloud);
        let cloud = &mut cloud.engine;
        for entries in preload_batches(n, self.cfg.batch_size, self.cfg.value_size, client_id) {
            let id = edge.log.iter().last().map(|b| b.block.id.next()).unwrap_or_default();
            let block = wedge_log::Block { edge: edge_id, id, entries, sealed_at_ns: 0 };
            edge.log.append(block.clone());
            let proof = certify_block(cloud_id, &mut cloud.ledger, &mut edge.tree, block);
            edge.log.attach_proof(proof);
            cloud.index.merge_until_settled(cloud_id, &cloud.ledger, &mut edge.tree, 0);
        }
        edge.sync_next_bid();
    }
}
