//! Unified experiment runner: one entry point that builds any of the
//! three systems for a [`Scenario`] and returns comparable metrics.
//!
//! The bench targets call [`run_scenario`] once per (system, point)
//! pair and print the paper-style rows.

use crate::client::{BaselineClient, Route};
use crate::cloud_only::CloudOnlyCloud;
use crate::edge_baseline::{EbCloud, EbEdge};
use crate::msg::BMsg;
use wedge_core::client::ClientPlan;
use wedge_core::config::SystemConfig;
use wedge_core::deployment::Identities;
use wedge_core::fault::FaultPlan;
use wedge_core::harness::{preload_batches, Aggregate, SystemHarness};
use wedge_core::metrics::Timeline;
use wedge_lsmerkle::{CloudIndex, LsMerkle};
use wedge_sim::{ActorId, Simulation};
use wedge_workload::{Mix, Scenario};

/// The three systems of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// The paper's system (lazy certification).
    WedgeChain,
    /// All requests at the cloud.
    CloudOnly,
    /// Synchronous cloud certification, edge serves reads.
    EdgeBaseline,
}

impl SystemKind {
    /// All three, in the paper's plotting order.
    pub const ALL: [SystemKind; 3] =
        [SystemKind::WedgeChain, SystemKind::CloudOnly, SystemKind::EdgeBaseline];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::WedgeChain => "WedgeChain",
            SystemKind::CloudOnly => "Cloud-only",
            SystemKind::EdgeBaseline => "Edge-baseline",
        }
    }
}

/// Result of one experiment point.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Aggregate latency/throughput.
    pub agg: Aggregate,
    /// P1 commit timeline of client 0 (Fig 6).
    pub p1_timeline: Timeline,
    /// P2 commit timeline of client 0 (Fig 6).
    pub p2_timeline: Timeline,
}

/// Builds a [`ClientPlan`] from a scenario.
pub fn plan_from_scenario(s: &Scenario) -> ClientPlan {
    ClientPlan {
        write_batches: s.batches_per_client,
        reads: s.reads_per_client,
        batch_size: s.batch_size,
        value_size: s.value_size,
        key_dist: s.dist.clone(),
        key_space: s.key_space,
        read_pipeline: s.read_pipeline,
        interleave: matches!(s.mix, Mix::Mixed5050),
        kv: true,
    }
}

/// Runs `scenario` on `kind` under `cfg` and returns the metrics.
pub fn run_scenario(kind: SystemKind, mut cfg: SystemConfig, scenario: &Scenario) -> RunOutput {
    cfg.num_clients = scenario.clients;
    cfg.batch_size = scenario.batch_size;
    cfg.value_size = scenario.value_size;
    cfg.key_space = scenario.key_space;
    let plan = plan_from_scenario(scenario);
    match kind {
        SystemKind::WedgeChain => run_wedgechain(cfg, plan, scenario),
        SystemKind::CloudOnly => run_cloud_only(cfg, plan, scenario),
        SystemKind::EdgeBaseline => run_edge_baseline(cfg, plan, scenario),
    }
}

fn run_wedgechain(cfg: SystemConfig, plan: ClientPlan, scenario: &Scenario) -> RunOutput {
    let mut h = SystemHarness::wedgechain_with(cfg, plan, FaultPlan::honest());
    if scenario.reads_per_client > 0 {
        // Reads need data: preload the key space (capped for memory).
        h.preload(scenario.key_space.min(20_000));
    }
    h.run(None);
    let m0 = h.client_metrics(0).clone();
    RunOutput { agg: h.aggregate(), p1_timeline: m0.p1_timeline, p2_timeline: m0.p2_timeline }
}

fn run_cloud_only(cfg: SystemConfig, plan: ClientPlan, scenario: &Scenario) -> RunOutput {
    let mut sim: Simulation<BMsg> = Simulation::new(cfg.net.clone(), cfg.seed);
    let cloud_node = CloudOnlyCloud::new(cfg.cost.clone());
    let cloud = sim.add_actor("cloud", cfg.cloud_region, Box::new(cloud_node));
    if scenario.reads_per_client > 0 {
        // Preload the trusted store directly.
        let store = &mut sim.actor_mut::<CloudOnlyCloud>(cloud).store;
        for k in 0..scenario.key_space.min(20_000) {
            store.insert(k, vec![0xEE; cfg.value_size]);
        }
    }
    run_clients(sim, &cfg, cloud, |_| BaselineClient::new(cloud, Route::Cloud, plan.clone()))
}

fn run_edge_baseline(cfg: SystemConfig, plan: ClientPlan, scenario: &Scenario) -> RunOutput {
    let mut sim: Simulation<BMsg> = Simulation::new(cfg.net.clone(), cfg.seed);
    // The same identities and registry as the WedgeChain deployment.
    let ids = Identities::derive(1, cfg.num_clients);
    let (cloud_ident, edge_ident) = (&ids.cloud, &ids.edges[0]);

    // Pre-computed ids: cloud=0, edge=1, clients=2…
    let cloud_id = ActorId::from_index(0);
    let edge_id = ActorId::from_index(1);
    let cloud_node = EbCloud::new(
        cloud_ident.clone(),
        edge_id,
        edge_ident.id,
        cfg.cost.clone(),
        cfg.lsm.clone(),
    );
    let cloud = sim.add_actor("cloud", cfg.cloud_region, Box::new(cloud_node));
    assert_eq!(cloud, cloud_id);

    // The edge replica starts from the same (deterministic) init state.
    let mut replica_index = CloudIndex::new(cfg.lsm.clone());
    let init = replica_index.init_edge(cloud_ident, edge_ident.id, 0);
    let replica = LsMerkle::new(edge_ident.id, cfg.lsm.clone(), init);
    let edge_node = EbEdge::new(cloud, cfg.cost.clone(), replica);
    let edge = sim.add_actor("edge", cfg.edge_region, Box::new(edge_node));
    assert_eq!(edge, edge_id);

    if scenario.reads_per_client > 0 {
        // Preload both the cloud's authoritative tree and the edge
        // replica, bypassing the network (read-benchmark setup).
        let n = scenario.key_space.min(20_000);
        let client = ids.clients[0][0].id;
        for entries in preload_batches(n, cfg.batch_size, cfg.value_size, client) {
            let install = sim.actor_mut::<EbCloud>(cloud).seal(entries, 0);
            sim.actor_mut::<EbEdge>(edge).install(install);
        }
    }
    run_clients(sim, &cfg, cloud, |i| {
        let route = Route::Edge {
            edge,
            client: ids.clients[0][i].id,
            edge_identity: edge_ident.id,
            cloud_identity: cloud_ident.id,
            registry: ids.registry.clone(),
            cost: cfg.cost.clone(),
        };
        BaselineClient::new(cloud, route, plan.clone())
    })
}

/// Adds `cfg.num_clients` clients built by `client`, starts them, runs
/// the simulation until idle and collects their metrics.
fn run_clients(
    mut sim: Simulation<BMsg>,
    cfg: &SystemConfig,
    cloud: ActorId,
    client: impl Fn(usize) -> BaselineClient,
) -> RunOutput {
    let clients: Vec<ActorId> = (0..cfg.num_clients)
        .map(|i| sim.add_actor(format!("client-{i}"), cfg.client_region, Box::new(client(i))))
        .collect();
    sim.start();
    for &c in &clients {
        sim.inject(cloud, c, BMsg::Start);
    }
    sim.run_until_idle(u64::MAX / 2);
    let metrics = |c: ActorId| &sim.actor::<BaselineClient>(c).metrics;
    let m0 = metrics(clients[0]).clone();
    RunOutput {
        agg: Aggregate::of(clients.iter().map(|&c| metrics(c))),
        p1_timeline: m0.p1_timeline,
        p2_timeline: m0.p2_timeline,
    }
}
